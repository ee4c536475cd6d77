//! The TCP transport: one reader/writer socket pair per connection,
//! framed by [`crate::codec`].
//!
//! Connections open with a `Hello`/`Welcome` handshake that negotiates
//! the frame-format version and binds a client id; the `Welcome` carries
//! the engine parameters, so a [`RemoteClient`](crate::RemoteClient)
//! needs no local configuration. After the handshake each side runs one
//! dedicated reader thread: the client's runs the client runtime for
//! every envelope it reads, the server's runs every request it reads
//! through the server pipeline. Writes are serialized by a small mutex
//! around the write half ([`ConnWriter`] in the lock-order DAG,
//! DESIGN.md §10).
//!
//! Timeouts: the handshake read is bounded (a dead or hostile peer cannot
//! park a connection thread), and every write is bounded (a stalled peer
//! marks the connection dead instead of wedging the thread delivering to
//! it). Steady-state reads are *unbounded* by design — a
//! client legitimately blocks for as long as a lock conflict lasts;
//! liveness there is the deadlock
//! detector's job, not the socket's. Dead connections surface to the
//! application as [`TxnError::Server`](crate::TxnError::Server).

use super::{ClientParams, ClientPort, PortMap, RequestSink, Serve};
use crate::chaos::{ChaosConfig, ChaosPort};
use crate::codec::{read_frame, BatchEncoder, Frame, PROTOCOL_VERSION};
use crate::error::TxnError;
use crate::server::ServerRuntime;
use crate::wire::{ToClient, ToServer};
use fgs_core::sync::Mutex;
use fgs_core::{ClientId, Oid, Protocol, Request};
use std::io::{self, IoSlice, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a freshly accepted connection may take to say `Hello` (and a
/// connecting client may wait for its `Welcome`).
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// Per-write bound; a peer that cannot drain a frame for this long is
/// treated as dead.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// The write half of a connection plus its health — a distinct type so
/// the lock-order lint ranks the mutex around it (`ConnWriter`, the
/// innermost class; see DESIGN.md §10).
struct ConnWriter {
    stream: TcpStream,
    /// A failed or timed-out write poisons the connection; later sends
    /// fail fast instead of interleaving bytes into a torn frame.
    dead: bool,
    /// Reusable frame encoder: frame headers land in its scratch buffer,
    /// payload bodies stay borrowed from their [`SharedBytes`] Arcs —
    /// the zero-copy send path (DESIGN.md §15). Living inside the
    /// `ConnWriter` lock, it needs no synchronization of its own.
    ///
    /// [`SharedBytes`]: crate::codec::SharedBytes
    encoder: BatchEncoder,
}

/// One side's handle on an established connection: the shared write half.
/// The read half lives in the connection's dedicated reader thread.
pub(crate) struct TcpPeer {
    writer: Mutex<ConnWriter>,
}

impl TcpPeer {
    fn new(stream: TcpStream) -> TcpPeer {
        TcpPeer {
            writer: Mutex::new(ConnWriter {
                stream,
                dead: false,
                encoder: BatchEncoder::new(),
            }),
        }
    }

    /// Writes one frame, whole or not at all from this side's view: it is
    /// encoded into the connection's reusable scratch buffer (payload
    /// bodies borrowed, never copied) and emitted with one vectored write
    /// and one flush. Any error (including a write timeout) kills the
    /// connection — the peer's reader sees a torn stream and treats the
    /// connection as dead.
    fn send_frame(&self, frame: &Frame) -> io::Result<()> {
        let mut w = self.writer.lock();
        if w.dead {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "connection is dead",
            ));
        }
        let result = {
            let ConnWriter {
                stream,
                dead: _,
                encoder,
            } = &mut *w;
            encoder.clear();
            encoder.push_frame(frame);
            write_all_segments(stream, &encoder.segments())
        };
        match result {
            Ok(()) => Ok(()),
            Err(e) => {
                w.dead = true;
                let _ = w.stream.shutdown(Shutdown::Both);
                Err(e)
            }
        }
    }

    /// Tears the socket down (both directions), unblocking the reader.
    pub(crate) fn shutdown_conn(&self) {
        let mut w = self.writer.lock();
        w.dead = true;
        let _ = w.stream.shutdown(Shutdown::Both);
    }
}

/// Writes every segment to the stream with as few syscalls as the OS
/// allows — one `write_vectored` covers the whole frame in the common
/// case — then flushes once. Partial writes resume from the exact byte
/// reached (`(idx, off)` walks the segment list), so a frame is never
/// torn by this side.
fn write_all_segments(stream: &mut TcpStream, segments: &[&[u8]]) -> io::Result<()> {
    let mut idx = 0;
    let mut off = 0;
    while idx < segments.len() {
        if off >= segments[idx].len() {
            idx += 1;
            off = 0;
            continue;
        }
        let bufs: Vec<IoSlice<'_>> = std::iter::once(IoSlice::new(&segments[idx][off..]))
            .chain(segments[idx + 1..].iter().map(|s| IoSlice::new(s)))
            .collect();
        let mut n = stream.write_vectored(&bufs)?;
        if n == 0 {
            return Err(io::ErrorKind::WriteZero.into());
        }
        while idx < segments.len() {
            let rem = segments[idx].len() - off;
            if n >= rem {
                n -= rem;
                idx += 1;
                off = 0;
            } else {
                off += n;
                break;
            }
        }
    }
    stream.flush()
}

fn configure_stream(stream: &TcpStream) -> io::Result<()> {
    // Request/response traffic with small frames: Nagle + delayed ACK
    // would serialize the whole pipeline on timer ticks.
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    Ok(())
}

// ----------------------------------------------------------------------
// Server side
// ----------------------------------------------------------------------

/// Engine parameters the server advertises in every `Welcome`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WelcomeInfo {
    pub protocol: Protocol,
    pub objects_per_page: u16,
    pub page_size: u32,
    pub client_cache_pages: u32,
    /// Folded into the top 16 bits of every connection's first
    /// transaction sequence number (see [`first_txn_seq`]).
    pub txn_epoch: u16,
    /// When set, every accepted connection's port is wrapped in a
    /// fault-injecting [`ChaosPort`] seeded by the connection counter.
    pub chaos: Option<ChaosConfig>,
}

impl WelcomeInfo {
    pub(crate) fn from_config(config: &crate::EngineConfig) -> WelcomeInfo {
        WelcomeInfo {
            protocol: config.protocol,
            objects_per_page: config.objects_per_page,
            page_size: config.page_size as u32,
            client_cache_pages: config.client_cache_pages as u32,
            txn_epoch: config.txn_epoch,
            chaos: config.chaos,
        }
    }
}

/// The first transaction sequence number a connection may use:
/// `epoch:16 | conn:16 | 0:32`. The epoch separates server incarnations
/// over one write-ahead log; the (wrapping) connection counter separates
/// reconnections within an incarnation; the low 32 bits leave each
/// connection four billion transactions. Together they guarantee a
/// `TxnId` never repeats in a log even across crashes and reconnects.
fn first_txn_seq(epoch: u16, conn: u64) -> u64 {
    (u64::from(epoch) << 48) | ((conn & 0xFFFF) << 32)
}

/// Server→client over a connection's write half.
struct TcpPort {
    peer: Arc<TcpPeer>,
}

impl ClientPort for TcpPort {
    fn deliver(&self, env: ToClient) -> bool {
        self.peer
            .send_frame(&Frame::Server {
                msg: env.msg,
                page_image: env.page_image,
                object_bytes: env.object_bytes,
            })
            .is_ok()
    }

    fn close(&self) {
        self.peer.shutdown_conn();
    }
}

/// The listening side: an accept thread spawning one reader thread per
/// connection, which runs the connection's requests. Connections
/// register in the shared [`PortMap`] at handshake, so the server
/// pipeline reaches them like any other port.
pub(crate) struct TcpServer {
    local: SocketAddr,
    stop: Arc<AtomicBool>,
    ports: Arc<PortMap>,
    accept: Option<JoinHandle<()>>,
}

impl TcpServer {
    /// Binds `addr` and starts accepting clients of `server`.
    pub(crate) fn bind(
        addr: impl ToSocketAddrs,
        welcome: WelcomeInfo,
        server: Arc<ServerRuntime>,
    ) -> io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let ports = server.ports().clone();
        let accept = {
            let stop = stop.clone();
            std::thread::Builder::new()
                .name("fgs-accept".into())
                .spawn(move || accept_loop(listener, welcome, server, stop))
                .expect("spawn acceptor")
        };
        Ok(TcpServer {
            local,
            stop,
            ports,
            accept: Some(accept),
        })
    }

    /// The bound address (useful with port 0).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Stops accepting, tears down every live connection, and joins all
    /// transport threads. Idempotent.
    pub(crate) fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Fence and unblock: no new registrations, live sockets shut.
        self.ports.close_all_ports();
        // Wake the acceptor; it sees `stop` and exits (joining its
        // connection threads on the way out).
        let _ = TcpStream::connect(self.local);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    welcome: WelcomeInfo,
    server: Arc<ServerRuntime>,
    stop: Arc<AtomicBool>,
) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    let mut next = 0u64;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            break; // the shutdown wake-up connection
        }
        let server = server.clone();
        let conn = next;
        let handle = std::thread::Builder::new()
            .name(format!("fgs-conn-{next}"))
            .spawn(move || serve_conn(stream, welcome, &server, conn))
            .expect("spawn connection");
        conns.push(handle);
        next += 1;
        // Reap finished connection threads so a long-lived server under
        // connection churn doesn't accumulate zombie handles.
        let mut i = 0;
        while i < conns.len() {
            if conns[i].is_finished() {
                let _ = conns.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
    }
    for h in conns {
        let _ = h.join();
    }
}

/// Runs one server-side connection to completion: handshake, register,
/// run each request through the server as it arrives, deregister.
fn serve_conn(stream: TcpStream, welcome: WelcomeInfo, server: &ServerRuntime, conn: u64) {
    let ports = server.ports();
    if configure_stream(&stream).is_err() {
        return;
    }
    let mut read_half = stream;
    let write_half = match read_half.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let peer = Arc::new(TcpPeer::new(write_half));

    // Handshake: Hello → (version check, id binding) → Welcome | Reject.
    let (min_version, max_version, want) = match read_frame(&mut read_half) {
        Ok(Frame::Hello {
            min_version,
            max_version,
            client,
        }) => (min_version, max_version, client),
        _ => {
            peer.shutdown_conn();
            return;
        }
    };
    if min_version > PROTOCOL_VERSION || max_version < 1 {
        let _ = peer.send_frame(&Frame::Reject {
            reason: format!("unsupported frame version range {min_version}..={max_version}"),
        });
        peer.shutdown_conn();
        return;
    }
    let tcp_port = TcpPort { peer: peer.clone() };
    let port: Arc<dyn ClientPort> = match welcome.chaos {
        // Fault injection: deliveries to this connection pass through a
        // seeded chaos schedule (stream = connection counter, so every
        // accepted connection draws an independent sequence). Severing
        // shuts the socket; the read loop below then ends and reports the
        // disconnect, exactly like a real connection death.
        Some(cfg) => Arc::new(ChaosPort::new(Arc::new(tcp_port), cfg, conn)),
        None => Arc::new(tcp_port),
    };
    let id = match ports.register_port(want, port.clone()) {
        Ok(id) => id,
        Err(reason) => {
            let _ = peer.send_frame(&Frame::Reject {
                reason: reason.to_string(),
            });
            peer.shutdown_conn();
            return;
        }
    };
    let accepted = peer
        .send_frame(&Frame::Welcome {
            version: PROTOCOL_VERSION.min(max_version),
            client: id,
            protocol: welcome.protocol,
            objects_per_page: welcome.objects_per_page,
            page_size: welcome.page_size,
            client_cache_pages: welcome.client_cache_pages,
            first_txn_seq: first_txn_seq(welcome.txn_epoch, conn),
        })
        .is_ok();

    // Steady state: unbounded reads (see module docs); this thread is the
    // connection's only producer, so it runs each request to completion
    // as it reads it, in order.
    if accepted && read_half.set_read_timeout(None).is_ok() {
        // `Bye`, any other frame (protocol violation), a read error or a
        // closed server all end the connection.
        while let Ok(Frame::Request {
            from,
            req,
            commit_data,
        }) = read_frame(&mut read_half)
        {
            // A connection may only speak for the id it bound.
            if from.0 != id {
                break;
            }
            let req = ToServer::Req {
                from,
                req,
                commit_data,
            };
            if !server.serve(req) {
                break;
            }
        }
    }
    // Tell the engine the client is gone — after everything the
    // connection sent. Run *before* deregistering: a reconnecting client
    // can only rebind the id after the deregister, so its first request
    // runs after this notice and cannot be swept up by the old
    // connection's cleanup.
    server.serve(ToServer::Disconnect { from: ClientId(id) });
    ports.deregister_port(id, &port);
    peer.shutdown_conn();
}

// ----------------------------------------------------------------------
// Client side
// ----------------------------------------------------------------------

/// Client→server over the connection's write half.
pub(crate) struct TcpSink {
    peer: Arc<TcpPeer>,
}

impl RequestSink for TcpSink {
    fn send_request(
        &mut self,
        from: ClientId,
        req: Request,
        commit_data: Vec<(Oid, Vec<u8>)>,
    ) -> Result<(), TxnError> {
        self.peer
            .send_frame(&Frame::Request {
                from,
                req,
                commit_data,
            })
            .map_err(|_| TxnError::Server)
    }

    fn close(&mut self) {
        let _ = self.peer.send_frame(&Frame::Bye);
        self.peer.shutdown_conn();
    }
}

/// An established, handshaken client-side connection.
pub(crate) struct TcpConnection {
    peer: Arc<TcpPeer>,
    read_half: TcpStream,
    /// The client id the server bound this connection to.
    pub client: u16,
    /// Engine parameters from the server's `Welcome`.
    pub params: ClientParams,
}

impl TcpConnection {
    /// Connects, handshakes, and returns a ready connection. `want` pins
    /// a client id; `None` lets the server assign one.
    pub(crate) fn connect(
        addr: impl ToSocketAddrs,
        want: Option<u16>,
    ) -> io::Result<TcpConnection> {
        let stream = TcpStream::connect(addr)?;
        configure_stream(&stream)?;
        let mut read_half = stream.try_clone()?;
        let peer = Arc::new(TcpPeer::new(stream));
        peer.send_frame(&Frame::Hello {
            min_version: 1,
            max_version: PROTOCOL_VERSION,
            client: want,
        })?;
        let welcome = match read_frame(&mut read_half) {
            Ok(Frame::Welcome {
                version,
                client,
                protocol,
                objects_per_page,
                page_size,
                client_cache_pages,
                first_txn_seq,
            }) => {
                if !(1..=PROTOCOL_VERSION).contains(&version) {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("server negotiated unknown frame version {version}"),
                    ));
                }
                TcpConnection {
                    peer,
                    read_half,
                    client,
                    params: ClientParams {
                        protocol,
                        objects_per_page,
                        page_size: page_size as usize,
                        client_cache_pages: client_cache_pages as usize,
                        first_txn_seq,
                    },
                }
            }
            Ok(Frame::Reject { reason }) => {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    format!("server rejected connection: {reason}"),
                ));
            }
            Ok(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "unexpected frame during handshake",
                ));
            }
            Err(e) => return Err(e),
        };
        welcome.read_half.set_read_timeout(None)?;
        Ok(welcome)
    }

    /// The request sink for this connection's runtime.
    pub(crate) fn sink(&self) -> TcpSink {
        TcpSink {
            peer: self.peer.clone(),
        }
    }

    /// The shared write half — lets fault injection sever the connection
    /// abruptly (no `Bye`), as a network failure would.
    pub(crate) fn peer(&self) -> Arc<TcpPeer> {
        self.peer.clone()
    }

    /// Consumes the read half into the `fgs-rx-N` reader thread, which
    /// runs the client (`port.deliver`) for every server envelope, then —
    /// on `Bye`, an unexpected frame or a dead socket — tells it the
    /// server is unreachable (`port.close`). A port that refuses a
    /// delivery is closed already; the reader stops there too.
    pub(crate) fn spawn_reader(self, port: Arc<dyn ClientPort>) -> JoinHandle<()> {
        let TcpConnection {
            peer,
            mut read_half,
            client,
            ..
        } = self;
        std::thread::Builder::new()
            .name(format!("fgs-rx-{client}"))
            .spawn(move || {
                while let Ok(Frame::Server {
                    msg,
                    page_image,
                    object_bytes,
                }) = read_frame(&mut read_half)
                {
                    let env = ToClient {
                        msg,
                        page_image,
                        object_bytes,
                    };
                    if !port.deliver(env) {
                        break;
                    }
                }
                port.close();
                peer.shutdown_conn();
            })
            .expect("spawn connection reader")
    }
}
