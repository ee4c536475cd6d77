//! The envelopes client runtimes and the server pipeline exchange:
//! [`ToServer`] is run through the server by the thread that produced it
//! (from a client's outbox, or as read off a connection), [`ToClient`] is
//! handed to the client's port, which runs the client runtime on the
//! delivering thread (or ships it over a socket).

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
    /// client's copies and aborts its live transactions. Run by the
    /// client's own producer, so it is ordered after every request the
    /// dead connection managed to send.
    Disconnect {
        /// The client whose connection died.
        from: ClientId,
    },
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
