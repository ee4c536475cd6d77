//! The in-process channel transport: crossbeam senders on both halves.
//!
//! This is the embedded engine's default wire. Requests go straight into
//! the owning worker shard's queue; envelopes go straight into the client
//! runtime's inbox. Payload [`SharedBytes`](crate::wire::SharedBytes)
//! `Arc`s are cloned, never serialized — the zero-copy fan-out path.

use super::{ClientPort, RequestSink};
use crate::error::TxnError;
use crate::wire::{ClientMsg, ToClient, ToServer};
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

/// Server→client into the runtime's inbox.
pub(crate) struct ChannelPort {
    inbox: Sender<ClientMsg>,
}

impl ChannelPort {
    pub(crate) fn new(inbox: Sender<ClientMsg>) -> ChannelPort {
        ChannelPort { inbox }
    }
}

impl ClientPort for ChannelPort {
    fn deliver(&self, env: ToClient) -> bool {
        self.inbox.send(ClientMsg::Server(env)).is_ok()
    }

    /// A multi-envelope run is one enqueue (`ClientMsg::ServerBatch`), so
    /// the pump wakes once per run instead of once per envelope.
    fn deliver_batch(&self, mut envs: Vec<ToClient>) -> bool {
        match envs.len() {
            0 => true,
            1 => self.deliver(envs.pop().expect("len checked")),
            _ => self.inbox.send(ClientMsg::ServerBatch(envs)).is_ok(),
        }
    }

    /// Tells the runtime its "connection" is gone, mirroring what a dead
    /// socket does over TCP. Embedded runtimes normally outlive their
    /// port, so this only matters when fault injection severs the port.
    fn close(&self) {
        let _ = self.inbox.send(ClientMsg::Lost);
    }
}
