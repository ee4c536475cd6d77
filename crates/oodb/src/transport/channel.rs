//! The in-process channel transport, the embedded engine's default wire.
//!
//! Requests go straight into the owning worker shard's queue. The other
//! half has no transport code at all: the client runtime is itself the
//! port the server delivers to, so the delivering thread runs it.
//! Payload [`SharedBytes`](crate::wire::SharedBytes) `Arc`s are cloned,
//! never serialized — the zero-copy fan-out path.

use super::RequestSink;
use crate::error::TxnError;
use crate::wire::ToServer;
use crossbeam::channel::Sender;
use fgs_core::{ClientId, Oid, Request};

/// Client→server over the worker shard's channel.
pub(crate) struct ChannelSink {
    from: ClientId,
    worker_tx: Sender<ToServer>,
}

impl ChannelSink {
    pub(crate) fn new(from: ClientId, worker_tx: Sender<ToServer>) -> ChannelSink {
        ChannelSink { from, worker_tx }
    }
}

impl RequestSink for ChannelSink {
    fn send_request(
        &self,
        from: ClientId,
        req: Request,
        commit_data: Vec<(Oid, Vec<u8>)>,
    ) -> Result<(), TxnError> {
        self.worker_tx
            .send(ToServer::Req {
                from,
                req,
                commit_data,
            })
            .map_err(|_| TxnError::Server)
    }

    /// Tells the engine the client is gone, as a dying TCP connection
    /// does. It travels the request channel, so it lands after every
    /// request the runtime sent — a notice from any other thread could be
    /// overtaken by a request the runtime was still sending.
    fn close(&self) {
        let _ = self
            .worker_tx
            .send(ToServer::Disconnect { from: self.from });
    }
}
