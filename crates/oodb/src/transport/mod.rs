//! The transport layer: how client runtimes and the server pipeline
//! exchange [`wire`](crate::wire) envelopes.
//!
//! The protocol engines and the server pipeline are transport-blind; they
//! speak through narrow traits. [`RequestSink`] is the client→server
//! half (a runtime pushes requests into it; the producer then runs them
//! through [`Serve`]), and [`ClientPort`] is the server→client half (the
//! completion router delivers engine-ordered envelopes through it). Two
//! backends implement them:
//!
//! * [`channel`] — the embedded default: the thread that queued a request
//!   serves it, and the client runtime is itself the port, so the thread
//!   that delivers runs the client. Payload `Arc`s move through memory
//!   untouched (zero-copy fan-out).
//! * [`tcp`] — real sockets framed by [`crate::codec`], used by the
//!   `fgs-serverd` binary and [`crate::RemoteClient`], and by the
//!   embedded engine when [`TransportKind::Tcp`] is configured (every
//!   client loops back through a real socket pair).
//!
//! The server side is backend-agnostic through [`PortMap`]: a registry of
//! live ports keyed by client id. Embedded channel clients register at
//! startup; TCP connections register at handshake and deregister when the
//! socket dies.

pub(crate) mod channel;
pub(crate) mod tcp;

use crate::error::TxnError;
use crate::wire::{ToClient, ToServer};
use fgs_core::sync::Mutex;
use fgs_core::{ClientId, Oid, Protocol, Request};
use std::collections::HashMap;
use std::sync::{Arc, Weak};

/// Which transport the embedded engine wires its clients over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// In process: a client runs its own requests through the server
    /// (zero-copy, the default).
    Channel,
    /// Loopback TCP: every client runtime talks to the server through a
    /// real socket and the binary frame codec, exercising the full wire
    /// path in-process.
    Tcp,
}

impl TransportKind {
    /// Reads the `FGS_TRANSPORT` environment variable (`"tcp"` or
    /// `"channel"`, case-insensitive); anything else — including unset —
    /// means [`TransportKind::Channel`]. The test suites use this to run
    /// unmodified over both backends.
    pub fn from_env() -> TransportKind {
        match std::env::var("FGS_TRANSPORT") {
            Ok(v) if v.eq_ignore_ascii_case("tcp") => TransportKind::Tcp,
            _ => TransportKind::Channel,
        }
    }
}

/// Everything a client runtime needs to configure its protocol engine
/// and byte cache. Embedded clients derive it from the [`EngineConfig`];
/// remote clients receive it in the handshake `Welcome`.
///
/// [`EngineConfig`]: crate::EngineConfig
#[derive(Debug, Clone, Copy)]
pub(crate) struct ClientParams {
    pub protocol: Protocol,
    pub objects_per_page: u16,
    pub page_size: usize,
    pub client_cache_pages: usize,
    /// First transaction sequence number this runtime may use. Encodes
    /// the server's transaction epoch (and, over TCP, the connection
    /// counter), so no two connections — and no two server incarnations
    /// over one log — ever mint the same `TxnId`.
    pub first_txn_seq: u64,
}

impl ClientParams {
    pub(crate) fn from_config(config: &crate::EngineConfig) -> ClientParams {
        ClientParams {
            protocol: config.protocol,
            objects_per_page: config.objects_per_page,
            page_size: config.page_size,
            client_cache_pages: config.client_cache_pages,
            first_txn_seq: u64::from(config.txn_epoch) << 48,
        }
    }
}

/// The client→server half of a transport, called under the client's
/// lock. A send failure means the connection is gone; the runtime fails
/// its pending call with [`TxnError::Server`] and every later call the
/// same way.
pub(crate) trait RequestSink: Send {
    /// Ships one protocol request (commits carry their dirty bytes).
    fn send_request(
        &mut self,
        from: ClientId,
        req: Request,
        commit_data: Vec<(Oid, Vec<u8>)>,
    ) -> Result<(), TxnError>;

    /// Says goodbye when the runtime closes or loses the server
    /// (idempotent).
    fn close(&mut self) {}

    /// An in-process sink only queues: the thread that queued claims the
    /// next request here, under the lock, to serve once unlocked. `None`
    /// when nothing is queued or another thread is serving the queue (it
    /// takes the new ones too); `resume` is that thread asking for more.
    fn claim_run(&mut self, _resume: bool) -> Option<Run> {
        None
    }
}

/// The server end: runs one of a client's requests through the whole
/// pipeline, delivery included, on the calling thread, which holds no
/// lock. `false`: the server is closed and ran nothing.
pub(crate) trait Serve: Send + Sync {
    fn serve(&self, env: ToServer) -> bool;
}

/// A claimed request and the server to run it on — by weak reference,
/// as the server owns its clients' ports; a server that is gone is closed.
pub(crate) type Run = (Weak<dyn Serve>, ToServer);

/// The server→client half of a transport: the completion router
/// delivers engine-ordered envelopes through it, and a TCP client's
/// reader thread delivers what arrives on the socket into the client
/// runtime through the same trait.
pub(crate) trait ClientPort: Send + Sync {
    /// Delivers one envelope; `false` means the port is dead (the router
    /// drops the message and the rest of the client's released prefix —
    /// the peer is gone).
    fn deliver(&self, env: ToClient) -> bool;

    /// The connection is gone: a TCP port shuts its socket; a client
    /// runtime fails its parked call and every later one with
    /// [`TxnError::Server`].
    fn close(&self);
}

/// The registry state under the [`PortMap`] lock — a distinct type so the
/// lock-order lint can rank it (`PortTable` sits after the storage locks;
/// see DESIGN.md §10).
struct PortTable {
    ports: HashMap<u16, Arc<dyn ClientPort>>,
    /// Set by [`PortMap::close_all_ports`]; refuses late registrations so
    /// a connection racing server shutdown cannot park itself forever.
    closed: bool,
}

/// Live client ports keyed by client id. The completion router resolves
/// the destination of every delivery here, so clients may come and go
/// (TCP) without the pipeline noticing.
///
/// Lock discipline: the table lock guards only the map — `deliver` and
/// `close` run on a cloned `Arc` *after* the guard drops, so a slow or
/// blocked socket never stalls registration or other clients' lookups.
pub(crate) struct PortMap {
    table: Mutex<PortTable>,
    /// Client ids must stay below this (the configured client count).
    limit: u16,
}

impl PortMap {
    pub(crate) fn new(limit: u16) -> PortMap {
        PortMap {
            table: Mutex::new(PortTable {
                ports: HashMap::new(),
                closed: false,
            }),
            limit,
        }
    }

    /// Binds `port` to `want` (or the lowest free id), failing if the id
    /// is taken or the table is full.
    pub(crate) fn register_port(
        &self,
        want: Option<u16>,
        port: Arc<dyn ClientPort>,
    ) -> Result<u16, &'static str> {
        let mut table = self.table.lock();
        if table.closed {
            return Err("server is shutting down");
        }
        let id = match want {
            Some(id) => {
                if id >= self.limit {
                    return Err("client id out of range");
                }
                if table.ports.contains_key(&id) {
                    return Err("client id in use");
                }
                id
            }
            None => match (0..self.limit).find(|id| !table.ports.contains_key(id)) {
                Some(id) => id,
                None => return Err("server is full"),
            },
        };
        table.ports.insert(id, port);
        Ok(id)
    }

    /// Unbinds `id`, but only while it still maps to `port` — a client
    /// that reconnected (rebinding the id) must not be torn down by its
    /// predecessor's cleanup.
    pub(crate) fn deregister_port(&self, id: u16, port: &Arc<dyn ClientPort>) {
        let mut table = self.table.lock();
        if let Some(current) = table.ports.get(&id) {
            if Arc::ptr_eq(current, port) {
                table.ports.remove(&id);
            }
        }
    }

    /// The port bound to `id`, if any.
    pub(crate) fn lookup_port(&self, id: u16) -> Option<Arc<dyn ClientPort>> {
        self.table.lock().ports.get(&id).cloned()
    }

    /// Empties the registry, refuses all future registrations, and closes
    /// every port (server shutdown); ports are closed after the guard
    /// drops.
    pub(crate) fn close_all_ports(&self) {
        let drained: Vec<Arc<dyn ClientPort>> = {
            let mut table = self.table.lock();
            table.closed = true;
            table.ports.drain().map(|(_, p)| p).collect()
        };
        for port in drained {
            port.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct CountingPort(AtomicUsize);
    impl ClientPort for CountingPort {
        fn deliver(&self, _env: ToClient) -> bool {
            true
        }
        fn close(&self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn port() -> Arc<CountingPort> {
        Arc::new(CountingPort(AtomicUsize::new(0)))
    }

    #[test]
    fn register_assigns_lowest_free_id() {
        let map = PortMap::new(3);
        assert_eq!(map.register_port(None, port()), Ok(0));
        assert_eq!(map.register_port(Some(2), port()), Ok(2));
        assert_eq!(map.register_port(None, port()), Ok(1));
        assert_eq!(map.register_port(None, port()), Err("server is full"));
    }

    #[test]
    fn register_rejects_taken_and_out_of_range_ids() {
        let map = PortMap::new(2);
        assert_eq!(map.register_port(Some(0), port()), Ok(0));
        assert_eq!(map.register_port(Some(0), port()), Err("client id in use"));
        assert_eq!(
            map.register_port(Some(2), port()),
            Err("client id out of range")
        );
    }

    #[test]
    fn deregister_ignores_a_superseded_binding() {
        let map = PortMap::new(1);
        let old = port();
        let old_dyn: Arc<dyn ClientPort> = old.clone();
        map.register_port(Some(0), old.clone()).unwrap();
        // The old connection dies, a new one rebinds the id...
        map.deregister_port(0, &old_dyn);
        let new = port();
        map.register_port(Some(0), new.clone()).unwrap();
        // ...and the old connection's (late, duplicate) cleanup is a no-op.
        map.deregister_port(0, &old_dyn);
        assert!(map.lookup_port(0).is_some());
        map.close_all_ports();
        assert_eq!(new.0.load(Ordering::SeqCst), 1);
        assert!(map.lookup_port(0).is_none());
    }
}
