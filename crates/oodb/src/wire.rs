//! Internal channel message types between client runtimes and the server
//! threads.

use fgs_core::{ClientId, Oid, Request, ServerMsg};

pub(crate) use crate::codec::{into_owned, SharedBytes};

/// Client → server envelope.
#[derive(Debug)]
pub(crate) enum ToServer {
    /// A protocol request; commits carry the dirty object bytes.
    Req {
        /// Sending client.
        from: ClientId,
        /// The protocol request.
        req: Request,
        /// Dirty `(object, bytes)` pairs accompanying a commit.
        commit_data: Vec<(Oid, Vec<u8>)>,
    },
    /// The transport lost `from`'s connection: the engine reclaims the
    /// client's copies and aborts its live transactions. Routed through
    /// the client's worker shard, so it is ordered after every request
    /// the dead connection managed to send.
    Disconnect {
        /// The client whose connection died.
        from: ClientId,
    },
    /// Stop the server thread.
    Shutdown,
}

/// Server → client envelope: the protocol message plus any data payloads.
#[derive(Debug)]
pub(crate) struct ToClient {
    /// The protocol message.
    pub msg: ServerMsg,
    /// Raw page image accompanying a `DataGrant::Page`.
    pub page_image: Option<SharedBytes>,
    /// Resolved bytes of the requested object (present with grants; used
    /// when the object's home slot holds a forwarding stub).
    pub object_bytes: Option<SharedBytes>,
}

/// The client pump thread's inbox: everything the transport delivers to
/// one client, in per-client FIFO order (application calls never pass
/// through here — they run the runtime on their own thread).
#[derive(Debug)]
pub(crate) enum ClientMsg {
    /// An envelope from the server.
    Server(ToClient),
    /// A seq-contiguous run of envelopes delivered as one enqueue: the
    /// channel transport's zero-copy batch path (`ClientPort::deliver_batch`
    /// on `ChannelPort`). The pump handles the envelopes in order under one
    /// lock hold, so the per-client ordering guarantee is unchanged.
    ServerBatch(Vec<ToClient>),
    /// The transport lost the server connection: the parked call and every
    /// future one fail with [`TxnError::Server`](crate::TxnError::Server).
    /// Channel transports never send this; the TCP reader does when the
    /// socket dies.
    Lost,
    /// The engine (or remote client) is shutting down: close the runtime
    /// and stop the pump.
    Shutdown,
}
