//! The in-process channel transport, the embedded engine's default wire.
//!
//! Requests queue in the client's outbox, inside its locked state, and
//! the thread that queued them — the caller for its misses and commits, a
//! deliverer for the callback replies its delivery produced — runs them
//! through the server once it has dropped the lock. The other half has
//! no transport code at all: the client runtime is itself the port the
//! server delivers to, so the delivering thread runs it. Payload
//! [`SharedBytes`](crate::wire::SharedBytes) `Arc`s are cloned, never
//! serialized — the zero-copy fan-out path.

use super::{RequestSink, Run, Serve};
use crate::error::TxnError;
use crate::wire::ToServer;
use fgs_core::{ClientId, Oid, Request};
use std::collections::VecDeque;
use std::sync::Weak;

/// Client→server through the client's outbox.
pub(crate) struct ChannelSink {
    from: ClientId,
    server: Weak<dyn Serve>,
    outbox: VecDeque<ToServer>,
    /// A thread is serving the outbox; others leave what they queue to
    /// it, so a client's requests run one at a time, in order.
    serving: bool,
}

impl ChannelSink {
    pub(crate) fn new(from: ClientId, server: Weak<dyn Serve>) -> ChannelSink {
        ChannelSink {
            from,
            server,
            outbox: VecDeque::new(),
            serving: false,
        }
    }
}

impl RequestSink for ChannelSink {
    fn send_request(
        &mut self,
        from: ClientId,
        req: Request,
        commit_data: Vec<(Oid, Vec<u8>)>,
    ) -> Result<(), TxnError> {
        self.outbox.push_back(ToServer::Req {
            from,
            req,
            commit_data,
        });
        Ok(())
    }

    /// Tells the engine the client is gone, as a dying TCP connection
    /// does, queued behind every request the runtime sent.
    fn close(&mut self) {
        self.outbox
            .push_back(ToServer::Disconnect { from: self.from });
    }

    fn claim_run(&mut self, resume: bool) -> Option<Run> {
        if self.serving && !resume {
            return None;
        }
        let next = self.outbox.pop_front();
        self.serving = next.is_some();
        Some((self.server.clone(), next?))
    }
}
