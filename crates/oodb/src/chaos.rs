//! Deterministic message-level fault injection for the chaos harness.
//!
//! The harness (DESIGN.md §13) drives the real engine through faulty
//! transports. Every fault is drawn from a PCG stream derived from a
//! seed, so a failing run's schedule is reproducible from the seed
//! alone. Two wrappers inject at the two transport traits:
//!
//! * [`ChaosSink`] wraps a [`RequestSink`] (client→server): requests can
//!   be delayed in place, or the connection severed under them.
//! * [`ChaosPort`] wraps a [`ClientPort`] (server→client): envelopes can
//!   be delayed on the delivering thread (the paper-level "grant delay"),
//!   or the connection severed before or after them.
//!
//! FGSP runs over TCP, a reliable FIFO stream: a *frame* cannot be
//! dropped, duplicated, or reordered while the connection lives. Those
//! packet-level faults surface above the stream as exactly two
//! observables — added latency, or connection death (TCP gives up). So
//! the schedule has just those: a delay, and a sever, which either comes
//! before the frame (it never arrives) or right after it (it arrives,
//! then the connection dies). A sever is the fault the protocol must
//! actually survive: a callback or grant that never arrives, a client
//! that vanishes mid-transaction. Recovery from a severed connection is
//! the reconnect path ([`RemoteClient::connect_retry`] client-side,
//! [`ServerEngine::client_gone`] server-side).
//!
//! [`RemoteClient::connect_retry`]: crate::RemoteClient::connect_retry
//! [`ServerEngine::client_gone`]: fgs_core::server::ServerEngine::client_gone

use crate::error::TxnError;
use crate::transport::{ClientPort, RequestSink};
use crate::wire::ToClient;
use fgs_core::sync::Mutex;
use fgs_core::{ClientId, Oid, Request};
use fgs_simkernel::Pcg32;
use std::sync::Arc;
use std::time::Duration;

/// A seeded plan of message-level faults. Rates are per ten thousand
/// messages; `max_events` bounds the total injected so every run
/// terminates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Seed of the schedule; each wrapped endpoint derives its own PCG
    /// stream from it, so schedules are per-connection deterministic.
    pub seed: u64,
    /// Chance (per 10 000) of holding a message for up to
    /// [`max_delay_us`](ChaosConfig::max_delay_us).
    pub delay_per_10k: u32,
    /// Upper bound on one injected delay, in microseconds.
    pub max_delay_us: u64,
    /// Chance (per 10 000) of severing the connection before the message
    /// is delivered (a drop, reorder or reset — see the module docs).
    pub sever_per_10k: u32,
    /// Chance (per 10 000) of delivering the message, then severing the
    /// connection (a duplicate).
    pub deliver_then_sever_per_10k: u32,
    /// Upper bound on injected events per endpoint.
    pub max_events: u32,
}

impl ChaosConfig {
    /// A plan that injects nothing.
    pub fn none() -> ChaosConfig {
        ChaosConfig {
            seed: 0,
            delay_per_10k: 0,
            max_delay_us: 0,
            sever_per_10k: 0,
            deliver_then_sever_per_10k: 0,
            max_events: 0,
        }
    }
}

/// What the schedule says to do with one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChaosEvent {
    Deliver,
    Delay(u64),
    Sever,
    DeliverThenSever,
}

#[derive(Debug)]
struct ChaosState {
    rng: Pcg32,
    cfg: ChaosConfig,
    injected: u32,
}

impl ChaosState {
    fn new(cfg: ChaosConfig, stream: u64) -> ChaosState {
        ChaosState {
            rng: Pcg32::new(cfg.seed, stream),
            cfg,
            injected: 0,
        }
    }

    fn draw(&mut self) -> ChaosEvent {
        if self.injected >= self.cfg.max_events {
            return ChaosEvent::Deliver;
        }
        let roll = self.rng.next_u32() % 10_000;
        let c = self.cfg;
        let mut edge = c.delay_per_10k;
        if roll < edge {
            self.injected += 1;
            let span = c.max_delay_us.max(1);
            return ChaosEvent::Delay(1 + u64::from(self.rng.next_u32()) % span);
        }
        for (rate, event) in [
            (c.sever_per_10k, ChaosEvent::Sever),
            (c.deliver_then_sever_per_10k, ChaosEvent::DeliverThenSever),
        ] {
            edge += rate;
            if roll < edge {
                self.injected += 1;
                return event;
            }
        }
        ChaosEvent::Deliver
    }
}

// ----------------------------------------------------------------------
// Client→server: the request sink wrapper
// ----------------------------------------------------------------------

/// A fault-injecting [`RequestSink`]. Every call is made under the
/// client's state lock, so an in-place delay preserves request FIFO. `sever`
/// kills the underlying connection *abruptly* (no `Bye`), as a network
/// fault would.
pub(crate) struct ChaosSink {
    inner: Box<dyn RequestSink>,
    state: ChaosState,
    sever: Box<dyn Fn() + Send + Sync>,
}

impl ChaosSink {
    pub(crate) fn new(
        inner: Box<dyn RequestSink>,
        cfg: ChaosConfig,
        stream: u64,
        sever: Box<dyn Fn() + Send + Sync>,
    ) -> ChaosSink {
        ChaosSink {
            inner,
            state: ChaosState::new(cfg, stream),
            sever,
        }
    }
}

impl RequestSink for ChaosSink {
    fn send_request(
        &mut self,
        from: ClientId,
        req: Request,
        commit_data: Vec<(Oid, Vec<u8>)>,
    ) -> Result<(), TxnError> {
        match self.state.draw() {
            ChaosEvent::Deliver => self.inner.send_request(from, req, commit_data),
            ChaosEvent::Delay(us) => {
                std::thread::sleep(Duration::from_micros(us));
                self.inner.send_request(from, req, commit_data)
            }
            ChaosEvent::DeliverThenSever => {
                let _ = self.inner.send_request(from, req, commit_data);
                (self.sever)();
                Err(TxnError::Server)
            }
            ChaosEvent::Sever => {
                (self.sever)();
                Err(TxnError::Server)
            }
        }
    }

    fn close(&mut self) {
        self.inner.close();
    }
}

// ----------------------------------------------------------------------
// Server→client: the port wrapper
// ----------------------------------------------------------------------

/// A fault-injecting [`ClientPort`], run on the delivering thread like
/// the port it wraps: an injected delay stalls that thread, as a slow
/// link stalls its sender. One thread at a time delivers to a client, so
/// the engine-order FIFO holds.
pub(crate) struct ChaosPort {
    inner: Arc<dyn ClientPort>,
    /// The schedule; `None` once it severed the connection or the port
    /// closed, after which envelopes drain quietly.
    state: Mutex<Option<ChaosState>>,
}

impl ChaosPort {
    /// Wraps `inner`; the schedule kills the connection by closing it.
    pub(crate) fn new(inner: Arc<dyn ClientPort>, cfg: ChaosConfig, stream: u64) -> ChaosPort {
        let state = Mutex::new(Some(ChaosState::new(cfg, stream)));
        ChaosPort { inner, state }
    }
}

impl ClientPort for ChaosPort {
    fn deliver(&self, env: ToClient) -> bool {
        let event = {
            let mut state = self.state.lock();
            let Some(event) = state.as_mut().map(ChaosState::draw) else {
                return true;
            };
            if !matches!(event, ChaosEvent::Deliver | ChaosEvent::Delay(_)) {
                *state = None;
            }
            event
        };
        match event {
            ChaosEvent::Deliver => {
                let _ = self.inner.deliver(env);
            }
            ChaosEvent::Delay(us) => {
                std::thread::sleep(Duration::from_micros(us));
                let _ = self.inner.deliver(env);
            }
            ChaosEvent::DeliverThenSever => {
                let _ = self.inner.deliver(env);
                self.inner.close();
            }
            ChaosEvent::Sever => self.inner.close(),
        }
        true
    }

    fn close(&self) {
        *self.state.lock() = None;
        self.inner.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pcg_streams_are_deterministic_and_independent() {
        let a: Vec<u32> = {
            let mut r = Pcg32::new(42, 1);
            (0..8).map(|_| r.next_u32()).collect()
        };
        let b: Vec<u32> = {
            let mut r = Pcg32::new(42, 1);
            (0..8).map(|_| r.next_u32()).collect()
        };
        let c: Vec<u32> = {
            let mut r = Pcg32::new(42, 2);
            (0..8).map(|_| r.next_u32()).collect()
        };
        assert_eq!(a, b, "same seed+stream, same sequence");
        assert_ne!(a, c, "different streams diverge");
    }

    /// The schedule's generator is `fgs_simkernel::Pcg32`. These outputs
    /// were captured from the private copy this module used to carry, so a
    /// seed's schedule does not drift with the shared generator.
    #[test]
    fn pcg_stream_keeps_its_golden_outputs() {
        for (seed, stream, want) in [
            (
                42,
                1,
                [1_307_692_281, 3_850_602_322, 1_491_967_504, 4_091_771_729],
            ),
            (
                7,
                3,
                [3_682_281_251, 3_185_575_708, 1_655_154_972, 2_344_720_130],
            ),
            (
                0x1234_5678_9ABC_1A55,
                0,
                [2_735_179_163, 2_184_957_030, 199_519_313, 838_408_299],
            ),
        ] {
            let mut r = Pcg32::new(seed, stream);
            let got: [u32; 4] = std::array::from_fn(|_| r.next_u32());
            assert_eq!(got, want, "Pcg32::new({seed:#x}, {stream})");
        }
    }

    #[test]
    fn schedules_are_deterministic_and_bounded() {
        let cfg = ChaosConfig {
            seed: 7,
            delay_per_10k: 2_000,
            max_delay_us: 10,
            sever_per_10k: 3_000,
            deliver_then_sever_per_10k: 1_000,
            max_events: 5,
        };
        let draw_all = || {
            let mut s = ChaosState::new(cfg, 3);
            (0..64).map(|_| s.draw()).collect::<Vec<_>>()
        };
        let a = draw_all();
        assert_eq!(a, draw_all(), "same plan, same schedule");
        let injected = a.iter().filter(|e| **e != ChaosEvent::Deliver).count();
        assert_eq!(injected, 5, "max_events bounds the schedule");
    }

    struct CountingPort {
        delivered: AtomicUsize,
        closed: AtomicUsize,
    }

    impl ClientPort for CountingPort {
        fn deliver(&self, _env: ToClient) -> bool {
            self.delivered.fetch_add(1, Ordering::SeqCst);
            true
        }
        fn close(&self) {
            self.closed.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn env() -> ToClient {
        ToClient {
            msg: fgs_core::ServerMsg::CommitDone {
                txn: fgs_core::TxnId::new(ClientId(0), 1),
            },
            page_image: None,
            object_bytes: None,
        }
    }

    #[test]
    fn port_severs_once_then_drains_quietly() {
        let inner = Arc::new(CountingPort {
            delivered: AtomicUsize::new(0),
            closed: AtomicUsize::new(0),
        });
        let cfg = ChaosConfig {
            seed: 1,
            sever_per_10k: 10_000, // sever on the very first envelope
            max_events: 1,
            ..ChaosConfig::none()
        };
        let port = ChaosPort::new(inner.clone(), cfg, 0);
        for _ in 0..4 {
            assert!(port.deliver(env()));
        }
        port.close();
        assert_eq!(
            inner.delivered.load(Ordering::SeqCst),
            0,
            "the sever precedes delivery"
        );
        assert_eq!(
            inner.closed.load(Ordering::SeqCst),
            2,
            "closed once by the sever, once by the shutdown"
        );
    }
}
