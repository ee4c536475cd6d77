//! The wire codec: length-prefixed, versioned binary frames carrying the
//! protocol messages (plus their data payloads) between clients and the
//! server.
//!
//! Layering (DESIGN.md §12): `fgs_core::msg` defines *what* is said,
//! [`fgs_core::codec`] defines how each protocol value is serialized, and
//! this module defines the *envelope* — the unit a transport reads and
//! writes:
//!
//! ```text
//! frame := len:u32le  kind:u8  body
//! ```
//!
//! `len` counts the kind byte plus the body and is capped at
//! [`MAX_FRAME`], so a corrupt prefix cannot drive allocation. The `kind`
//! tags are stable; bodies are versioned by the connection handshake
//! ([`Frame::Hello`]/[`Frame::Welcome`] negotiate [`PROTOCOL_VERSION`]),
//! never per frame.
//!
//! The in-process channel transport never touches this module on its data
//! path — it moves [`SharedBytes`] `Arc`s through channels, keeping the
//! server's zero-copy payload fan-out. The TCP transport serializes each
//! envelope with [`write_frame`] and revives it with [`read_frame`].

use fgs_core::codec::{
    get_oid, get_protocol, get_request, get_server_msg, put_bytes, put_oid, put_protocol,
    put_request, put_server_msg, put_varint, CodecError, Reader,
};
use fgs_core::{ClientId, Oid, Protocol, Request, ServerMsg};
use std::io::{self, Read, Write};
use std::sync::Arc;

/// A shared, immutable byte payload on the server→client wire.
///
/// Grants that fan the same page image (or object bytes) to several
/// clients in one request's outcome clone the `Arc`, not the bytes — the
/// server copies each payload out of the store once per request. The inner
/// `Vec` (rather than `Arc<[u8]>`) lets the *last* receiver reclaim the
/// buffer with [`into_owned`] instead of copying it again.
pub type SharedBytes = Arc<Vec<u8>>;

/// Unwraps a [`SharedBytes`] into an owned buffer: free when this is the
/// only reference (the common single-recipient case), one copy otherwise.
pub fn into_owned(bytes: SharedBytes) -> Vec<u8> {
    Arc::try_unwrap(bytes).unwrap_or_else(|shared| (*shared).clone())
}

/// First bytes of every connection: `b"FGSP"`.
pub const MAGIC: [u8; 4] = *b"FGSP";

/// The newest frame-format version this build speaks. The handshake
/// settles on `min(client max, server max)`; a peer whose range does not
/// overlap ours is rejected. Version bumps change *bodies* only — the
/// frame envelope (`len`, `kind`) and the HELLO/WELCOME kinds are frozen
/// so any two versions can at least negotiate.
pub const PROTOCOL_VERSION: u16 = 1;

/// Hard cap on a frame's length prefix (16 MiB). Pages are a few KiB and
/// commit data is bounded by the client cache, so anything larger is a
/// corrupt or hostile prefix.
pub const MAX_FRAME: u32 = 16 << 20;

const KIND_HELLO: u8 = 1;
const KIND_WELCOME: u8 = 2;
const KIND_REJECT: u8 = 3;
const KIND_REQUEST: u8 = 4;
const KIND_SERVER: u8 = 5;
const KIND_BYE: u8 = 6;

/// One wire frame: handshake, payload-bearing protocol envelope, or
/// connection control.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Client→server greeting opening a connection.
    Hello {
        /// Oldest frame-format version the client still speaks.
        min_version: u16,
        /// Newest frame-format version the client speaks.
        max_version: u16,
        /// Client id the peer wants, or `None` to let the server assign
        /// one.
        client: Option<u16>,
    },
    /// Server→client handshake acceptance, carrying everything the remote
    /// client runtime needs to configure its protocol engine.
    Welcome {
        /// The negotiated frame-format version.
        version: u16,
        /// The client id this connection is bound to.
        client: u16,
        /// The granularity protocol the server runs.
        protocol: Protocol,
        /// Objects per page, as configured server-side.
        objects_per_page: u16,
        /// Page size in bytes.
        page_size: u32,
        /// Client cache budget in pages.
        client_cache_pages: u32,
        /// First transaction sequence number this connection may use.
        /// Unique per accepted connection (and per server incarnation), so
        /// a client that reconnects after a reset — or a server restarted
        /// over a recovered disk — never reissues a `TxnId` the write-ahead
        /// log has already seen.
        first_txn_seq: u64,
    },
    /// Server→client handshake refusal; the connection closes after it.
    Reject {
        /// Human-readable refusal reason.
        reason: String,
    },
    /// Client→server protocol request; commits carry the dirty object
    /// bytes.
    Request {
        /// The sending client (must match the handshake binding).
        from: ClientId,
        /// The protocol request.
        req: Request,
        /// Dirty `(object, bytes)` pairs accompanying a commit.
        commit_data: Vec<(Oid, Vec<u8>)>,
    },
    /// Server→client protocol message plus any data payloads.
    Server {
        /// The protocol message.
        msg: ServerMsg,
        /// Raw page image accompanying a page grant.
        page_image: Option<SharedBytes>,
        /// Resolved bytes of the requested object.
        object_bytes: Option<SharedBytes>,
    },
    /// Clean shutdown notice; either side may send it before closing.
    Bye,
}

/// Encodes `frame` with its length prefix, ready to write to a stream.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    encode_frame_into(&mut out, frame);
    out
}

/// Appends `frame` (length prefix included) to `out`. The scratch-buffer
/// form of [`encode_frame`]: callers batching several frames reuse one
/// allocation across all of them.
pub fn encode_frame_into(out: &mut Vec<u8>, frame: &Frame) {
    let start = out.len();
    out.extend_from_slice(&[0, 0, 0, 0]); // length prefix, patched below
    match frame {
        Frame::Hello {
            min_version,
            max_version,
            client,
        } => {
            out.push(KIND_HELLO);
            out.extend_from_slice(&MAGIC);
            put_varint(out, u64::from(*min_version));
            put_varint(out, u64::from(*max_version));
            match client {
                Some(id) => {
                    out.push(1);
                    put_varint(out, u64::from(*id));
                }
                None => out.push(0),
            }
        }
        Frame::Welcome {
            version,
            client,
            protocol,
            objects_per_page,
            page_size,
            client_cache_pages,
            first_txn_seq,
        } => {
            out.push(KIND_WELCOME);
            put_varint(out, u64::from(*version));
            put_varint(out, u64::from(*client));
            put_protocol(out, *protocol);
            put_varint(out, u64::from(*objects_per_page));
            put_varint(out, u64::from(*page_size));
            put_varint(out, u64::from(*client_cache_pages));
            put_varint(out, *first_txn_seq);
        }
        Frame::Reject { reason } => {
            out.push(KIND_REJECT);
            put_bytes(out, reason.as_bytes());
        }
        Frame::Request {
            from,
            req,
            commit_data,
        } => {
            out.push(KIND_REQUEST);
            put_varint(out, u64::from(from.0));
            put_request(out, req);
            put_varint(out, commit_data.len() as u64);
            for (oid, bytes) in commit_data {
                put_oid(out, *oid);
                put_bytes(out, bytes);
            }
        }
        Frame::Server {
            msg,
            page_image,
            object_bytes,
        } => {
            out.push(KIND_SERVER);
            put_server_msg(out, msg);
            let flags = u8::from(page_image.is_some()) | (u8::from(object_bytes.is_some()) << 1);
            out.push(flags);
            if let Some(image) = page_image {
                put_bytes(out, image);
            }
            if let Some(bytes) = object_bytes {
                put_bytes(out, bytes);
            }
        }
        Frame::Bye => out.push(KIND_BYE),
    }
    let len = (out.len() - start - 4) as u32;
    debug_assert!(len <= MAX_FRAME, "frame exceeds MAX_FRAME");
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// A batch of frames encoded for coalesced, zero-copy transmission.
///
/// Headers, protocol messages and control frames are serialized into one
/// reusable scratch buffer; [`Frame::Server`] payload *bodies* (page
/// images, object bytes) are never copied — the encoder records a
/// borrowed [`SharedBytes`] segment where each body belongs, so a
/// transport can emit the whole batch as a vectored write straight out
/// of the store's shared buffers. The byte stream produced is exactly
/// the concatenation of [`encode_frame`] over the same frames (a
/// property test in `codec_props` holds the two encoders together).
#[derive(Default)]
pub struct BatchEncoder {
    /// Everything except `Frame::Server` payload bodies.
    scratch: Vec<u8>,
    /// The output stream, in order: ranges of `scratch` interleaved with
    /// borrowed payload bodies.
    parts: Vec<Part>,
    /// Start of the scratch chunk not yet closed into `parts`.
    open: usize,
}

/// One segment of the encoded output stream.
enum Part {
    /// `scratch[range]` — frame headers, messages, control frames.
    Scratch(std::ops::Range<usize>),
    /// A payload body, borrowed from the store/attach stage.
    Shared(SharedBytes),
}

impl BatchEncoder {
    /// A fresh encoder (empty scratch buffer).
    pub fn new() -> BatchEncoder {
        BatchEncoder::default()
    }

    /// Resets for a new batch, keeping the scratch allocation.
    pub fn clear(&mut self) {
        self.scratch.clear();
        self.parts.clear();
        self.open = 0;
    }

    /// Closes the currently open scratch chunk into the part list.
    fn close_chunk(&mut self) {
        if self.open < self.scratch.len() {
            self.parts
                .push(Part::Scratch(self.open..self.scratch.len()));
        }
        self.open = self.scratch.len();
    }

    /// Appends one frame to the batch. `Frame::Server` payload bodies are
    /// recorded as borrowed segments; everything else lands in scratch.
    pub fn push_frame(&mut self, frame: &Frame) {
        match frame {
            Frame::Server {
                msg,
                page_image,
                object_bytes,
            } => {
                let start = self.scratch.len();
                self.scratch.extend_from_slice(&[0, 0, 0, 0]); // patched below
                self.scratch.push(KIND_SERVER);
                put_server_msg(&mut self.scratch, msg);
                let flags =
                    u8::from(page_image.is_some()) | (u8::from(object_bytes.is_some()) << 1);
                self.scratch.push(flags);
                let mut body_len = 0usize;
                for payload in [page_image, object_bytes].into_iter().flatten() {
                    // The length prefix of the body goes to scratch; the
                    // body itself is borrowed, not copied.
                    put_varint(&mut self.scratch, payload.len() as u64);
                    body_len += payload.len();
                    self.close_chunk();
                    self.parts.push(Part::Shared(Arc::clone(payload)));
                    self.open = self.scratch.len();
                }
                let len = (self.scratch.len() - start - 4 + body_len) as u32;
                debug_assert!(len <= MAX_FRAME, "frame exceeds MAX_FRAME");
                self.scratch[start..start + 4].copy_from_slice(&len.to_le_bytes());
            }
            other => encode_frame_into(&mut self.scratch, other),
        }
        self.close_chunk();
    }

    /// Total encoded bytes across all pushed frames.
    pub fn total_len(&self) -> usize {
        self.parts
            .iter()
            .map(|p| match p {
                Part::Scratch(r) => r.len(),
                Part::Shared(b) => b.len(),
            })
            .sum()
    }

    /// The encoded stream as ordered byte slices, ready for a vectored
    /// write.
    pub fn segments(&self) -> Vec<&[u8]> {
        self.parts
            .iter()
            .map(|p| match p {
                Part::Scratch(r) => &self.scratch[r.clone()],
                Part::Shared(b) => b.as_slice(),
            })
            .collect()
    }

    /// Flattens the stream into one contiguous buffer (tests and
    /// transports without a vectored path).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.total_len());
        for seg in self.segments() {
            out.extend_from_slice(seg);
        }
        out
    }
}

/// Decodes one frame *body* (everything after the length prefix).
pub fn decode_frame(body: &[u8]) -> Result<Frame, CodecError> {
    let mut r = Reader::new(body);
    let frame = match r.u8()? {
        KIND_HELLO => {
            let magic = r.bytes(4, "Hello magic")?;
            if magic != MAGIC {
                return Err(CodecError::Domain {
                    what: "Hello magic",
                });
            }
            let min_version = r.var_u16()?;
            let max_version = r.var_u16()?;
            let client = if r.boolean("Hello client flag")? {
                Some(r.var_u16()?)
            } else {
                None
            };
            Frame::Hello {
                min_version,
                max_version,
                client,
            }
        }
        KIND_WELCOME => Frame::Welcome {
            version: r.var_u16()?,
            client: r.var_u16()?,
            protocol: get_protocol(&mut r)?,
            objects_per_page: r.var_u16()?,
            page_size: r.var_u32()?,
            client_cache_pages: r.var_u32()?,
            first_txn_seq: r.varint()?,
        },
        KIND_REJECT => {
            let bytes = r.byte_vec("Reject reason")?;
            let reason = String::from_utf8(bytes).map_err(|_| CodecError::Domain {
                what: "Reject reason",
            })?;
            Frame::Reject { reason }
        }
        KIND_REQUEST => {
            let from = ClientId(r.var_u16()?);
            let req = get_request(&mut r)?;
            let n = r.list_len("Request commit_data", 2)?;
            let mut commit_data = Vec::with_capacity(n);
            for _ in 0..n {
                let oid = get_oid(&mut r)?;
                let bytes = r.byte_vec("Request commit bytes")?;
                commit_data.push((oid, bytes));
            }
            Frame::Request {
                from,
                req,
                commit_data,
            }
        }
        KIND_SERVER => {
            let msg = get_server_msg(&mut r)?;
            let flags = r.u8()?;
            if flags & !0b11 != 0 {
                return Err(CodecError::Domain {
                    what: "Server payload flags",
                });
            }
            let page_image = if flags & 1 != 0 {
                Some(Arc::new(r.byte_vec("Server page image")?))
            } else {
                None
            };
            let object_bytes = if flags & 2 != 0 {
                Some(Arc::new(r.byte_vec("Server object bytes")?))
            } else {
                None
            };
            Frame::Server {
                msg,
                page_image,
                object_bytes,
            }
        }
        KIND_BYE => Frame::Bye,
        tag => return Err(CodecError::Tag { what: "Frame", tag }),
    };
    r.finish()?;
    Ok(frame)
}

/// Writes one frame to `w` (length prefix included).
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    w.write_all(&encode_frame(frame))
}

/// Reads one frame from `r`, rejecting oversized or malformed frames with
/// `InvalidData`. A clean EOF *before* the length prefix surfaces as
/// `UnexpectedEof` (callers treat it as the peer hanging up).
pub fn read_frame(r: &mut impl Read) -> io::Result<Frame> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix)?;
    let len = u32::from_le_bytes(prefix);
    if len == 0 || len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} outside (0, {MAX_FRAME}]"),
        ));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    decode_frame(&body)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("malformed frame: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgs_core::{DataGrant, PageId, TxnId};

    fn round_trip(f: &Frame) {
        let bytes = encode_frame(f);
        let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        assert_eq!(len, bytes.len() - 4);
        assert_eq!(&decode_frame(&bytes[4..]).unwrap(), f);
        // And through the stream API.
        let mut cursor = io::Cursor::new(&bytes);
        assert_eq!(&read_frame(&mut cursor).unwrap(), f);
    }

    #[test]
    fn handshake_frames_round_trip() {
        round_trip(&Frame::Hello {
            min_version: 1,
            max_version: 1,
            client: Some(7),
        });
        round_trip(&Frame::Hello {
            min_version: 1,
            max_version: 9,
            client: None,
        });
        round_trip(&Frame::Welcome {
            version: 1,
            client: 3,
            protocol: Protocol::PsAa,
            objects_per_page: 8,
            page_size: 4096,
            client_cache_pages: 16,
            first_txn_seq: 7 << 32,
        });
        round_trip(&Frame::Reject {
            reason: "client id in use".to_string(),
        });
        round_trip(&Frame::Bye);
    }

    #[test]
    fn envelope_frames_round_trip() {
        let txn = TxnId::new(ClientId(2), 5);
        round_trip(&Frame::Request {
            from: ClientId(2),
            req: Request::Commit {
                txn,
                writes: vec![],
            },
            commit_data: vec![
                (Oid::new(PageId(1), 0), vec![1, 2, 3]),
                (Oid::new(PageId(1), 1), vec![]),
            ],
        });
        round_trip(&Frame::Server {
            msg: ServerMsg::ReadGranted {
                txn,
                oid: Oid::new(PageId(4), 2),
                data: DataGrant::Page {
                    page: PageId(4),
                    unavailable: vec![0],
                    epoch: 3,
                },
            },
            page_image: Some(Arc::new(vec![0xAB; 512])),
            object_bytes: Some(Arc::new(vec![1, 2])),
        });
    }

    #[test]
    fn bad_magic_and_bad_kind_are_rejected() {
        let mut hello = encode_frame(&Frame::Hello {
            min_version: 1,
            max_version: 1,
            client: None,
        });
        hello[5] = b'X'; // corrupt the magic
        assert!(decode_frame(&hello[4..]).is_err());
        assert!(matches!(
            decode_frame(&[0xEE]),
            Err(CodecError::Tag { what: "Frame", .. })
        ));
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut stream = io::Cursor::new((MAX_FRAME + 1).to_le_bytes().to_vec());
        let err = read_frame(&mut stream).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
