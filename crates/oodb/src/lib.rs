//! # fgs-oodb
//!
//! An embedded, multi-threaded **page-server OODBMS** implementing the
//! five granularity schemes of Carey, Franklin & Zaharioudakis (SIGMOD
//! 1994). The server is a staged pipeline with no request threads of its
//! own — whoever sends a request runs it through every stage: commit
//! records are appended to a double-buffered WAL tail and forced by a
//! dedicated log-writer thread (acks released by the completion router
//! once the durable watermark passes them), the protocol engine runs
//! single-writer under a small lock, and data payloads are attached
//! outside it. Each client workstation is passive state — its own cache
//! (page images or objects) driven by the client protocol engine — that
//! a [`Session`] call runs on the calling thread, so an access to a
//! cached object costs a lock and no message or thread hop; a miss or a
//! commit runs its own request through the server on that same thread,
//! and a server message runs the client on the thread that delivers it
//! (whichever thread is running the request that produced it, the log
//! writer, or a TCP connection's reader).
//! The engines are the *same* `fgs-core` engines the simulator
//! evaluates, so the measured protocols and the executable system cannot
//! diverge.
//!
//! Features:
//!
//! * all five protocols: PS, OS, PS-OO, PS-OA, PS-AA (pick via
//!   [`EngineConfig::protocol`]);
//! * intertransaction caching with callback-based consistency, adaptive
//!   de-escalation under PS-AA, and deadlock detection with victim abort
//!   (surfaced as [`TxnError::Deadlock`] — retry via [`Session::run_txn`]);
//! * steal/no-force durability: WAL with before/after images, an
//!   asynchronous durability pipeline (a dedicated log-writer thread
//!   coalesces forces across commits; see [`Oodb::store_stats`]), crash
//!   recovery (see `fgs-pagestore`);
//! * size-changing updates: objects may grow up to page capacity;
//!   overflow at the server forwards records transparently;
//! * a pluggable transport (DESIGN.md §12): the embedded engine runs its
//!   clients over in-process channels or loopback TCP
//!   ([`EngineConfig::transport`]), and the same server pipeline serves
//!   remote processes via [`serve_tcp`] (the `fgs-serverd` binary) and
//!   [`RemoteClient`].
//!
//! ```
//! use fgs_oodb::{EngineConfig, Oodb};
//! use fgs_core::{Oid, PageId, Protocol};
//!
//! let db = Oodb::open(EngineConfig {
//!     protocol: Protocol::PsAa,
//!     ..EngineConfig::default()
//! }).unwrap();
//! let alice = db.session(0);
//! let oid = Oid::new(PageId(3), 4);
//! alice.run_txn(4, |t| {
//!     t.write(oid, b"drawing rev 1".to_vec())
//! }).unwrap();
//! let bob = db.session(1);
//! bob.begin().unwrap();
//! assert_eq!(bob.read(oid).unwrap(), b"drawing rev 1");
//! bob.commit().unwrap();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod chaos;
mod client;
pub mod codec;
mod config;
mod error;
mod remote;
mod server;
mod session;
mod transport;
mod wire;

pub use chaos::ChaosConfig;
pub use config::EngineConfig;
pub use error::TxnError;
pub use fgs_pagestore::{StoreStats, WalHold};
pub use remote::{serve_tcp, serve_tcp_recover, serve_tcp_with_disk, RemoteClient, ServerHandle};
pub use session::Session;
pub use transport::TransportKind;

use crate::chaos::ChaosPort;
use crate::client::ClientShared;
use crate::server::{log_writer_loop, ServerRuntime};
use crate::transport::channel::ChannelSink;
use crate::transport::tcp::{TcpConnection, TcpServer, WelcomeInfo};
use crate::transport::{ClientParams, ClientPort};
use fgs_core::server::ServerEngine;
use fgs_core::{ClientId, ServerStats};
use fgs_pagestore::{DiskManager, MemDisk, RecoveryReport, Store};
use std::sync::Arc;
use std::thread::JoinHandle;

/// The transport-independent server half: the request pipeline, which
/// whoever sends a request runs (delivering, in engine order, through
/// the completion router), and the log writer — the server's one thread.
/// [`Oodb`] wires local clients onto it; [`serve_tcp`] exposes it to
/// remote ones.
pub(crate) struct ServerCore {
    runtime: Arc<ServerRuntime>,
    /// The dedicated log-writer thread; stopped (with a final catch-up
    /// cycle) only after the close and the runs still in flight, so all
    /// registered commits are forced and acked before it exits.
    log_writer: Option<JoinHandle<()>>,
}

impl ServerCore {
    /// Starts the pipeline and its log-writer thread, admitting client
    /// ids below `config.n_clients`.
    pub(crate) fn start(config: &EngineConfig, store: Store) -> ServerCore {
        let engine = ServerEngine::new(config.protocol, config.objects_per_page);
        let runtime = Arc::new(ServerRuntime::new(
            engine,
            store,
            config.paranoid,
            config.n_clients,
        ));
        // The durability stage: one thread owning the WAL tail, cycling
        // seal → write → force over whatever the runs appended and
        // advancing the completion router's durable watermark.
        let log_writer = {
            let runtime = runtime.clone();
            std::thread::Builder::new()
                .name("fgs-wal".into())
                .spawn(move || log_writer_loop(&runtime))
                .expect("spawn log writer")
        };
        ServerCore {
            runtime,
            log_writer: Some(log_writer),
        }
    }

    pub(crate) fn checkpoint(&self) -> std::io::Result<()> {
        self.runtime.store().flush_all()
    }

    /// Closes the server — a later request fails with
    /// [`TxnError::Server`] — and joins the log writer, whose last cycle,
    /// taken once the runs in flight finish, forces and acks everything
    /// they registered.
    pub(crate) fn shutdown(&mut self) {
        if let Some(writer) = self.log_writer.take() {
            self.runtime.close();
            let _ = writer.join();
        }
    }
}

/// An embedded page-server database: the server pipeline plus one client
/// runtime per client workstation — run by its callers and by whichever
/// thread delivers its server messages — wired over the configured
/// [`TransportKind`].
pub struct Oodb {
    config: EngineConfig,
    core: ServerCore,
    clients: Vec<Arc<ClientShared>>,
    /// Over [`TransportKind::Tcp`], each client's connection reader.
    readers: Vec<JoinHandle<()>>,
    /// The loopback listener when running over [`TransportKind::Tcp`].
    tcp: Option<TcpServer>,
}

impl Oodb {
    /// Opens a fresh in-memory database initialized with
    /// `db_pages × objects_per_page` zero-filled objects.
    pub fn open(config: EngineConfig) -> std::io::Result<Oodb> {
        let disk = Arc::new(MemDisk::new(config.page_size));
        Self::open_with_disk(config, disk, true)
    }

    /// Opens a database over an existing disk, optionally (re)initializing
    /// the object layout. Use `init = false` to attach to a disk image that
    /// already holds data (e.g. after [`Oodb::recover`]).
    pub fn open_with_disk(
        config: EngineConfig,
        disk: Arc<dyn DiskManager>,
        init: bool,
    ) -> std::io::Result<Oodb> {
        config.validate();
        let store = Store::new(disk, config.server_pool_pages, config.db_pages);
        if init {
            store.init_objects(config.db_pages, config.objects_per_page, config.object_size)?;
        }
        Self::start(config, store)
    }

    /// Recovers a database from a crashed disk image plus the durable log
    /// bytes, then starts it.
    pub fn recover(
        config: EngineConfig,
        disk: Arc<dyn DiskManager>,
        log_bytes: Vec<u8>,
    ) -> std::io::Result<(Oodb, RecoveryReport)> {
        config.validate();
        let (store, report) =
            Store::recover(disk, log_bytes, config.server_pool_pages, config.db_pages)?;
        Ok((Self::start(config, store)?, report))
    }

    fn start(config: EngineConfig, store: Store) -> std::io::Result<Oodb> {
        let core = ServerCore::start(&config, store);
        let params = ClientParams::from_config(&config);
        let mut clients = Vec::new();
        let mut readers = Vec::new();

        // Wire each client runtime to the server over the configured
        // transport. If a loopback connection fails mid-start, the `?`
        // drops the listener, whose shutdown closes every connection made
        // so far; their readers see the socket die and exit.
        let tcp = match config.transport {
            TransportKind::Channel => {
                for i in 0..config.n_clients {
                    let id = ClientId(i);
                    let server = Arc::downgrade(&core.runtime);
                    let sink = ChannelSink::new(id, server);
                    let shared = ClientShared::new(id, params, Box::new(sink));
                    // The runtime is its own port: the thread that
                    // delivers runs it.
                    let port: Arc<dyn ClientPort> = match config.chaos {
                        // Fault injection: deliveries pass through a
                        // seeded chaos schedule (stream = client id).
                        // Severing closes the runtime like a dead socket;
                        // it says goodbye to the engine through its sink.
                        Some(cfg) => Arc::new(ChaosPort::new(shared.clone(), cfg, u64::from(i))),
                        None => shared.clone(),
                    };
                    core.runtime
                        .ports()
                        .register_port(Some(i), port)
                        .expect("register embedded client");
                    clients.push(shared);
                }
                None
            }
            TransportKind::Tcp => {
                let server = TcpServer::bind(
                    ("127.0.0.1", 0),
                    WelcomeInfo::from_config(&config),
                    core.runtime.clone(),
                )?;
                let addr = server.local_addr();
                for i in 0..config.n_clients {
                    let conn = TcpConnection::connect(addr, Some(i))?;
                    let shared = ClientShared::new(ClientId(i), params, Box::new(conn.sink()));
                    readers.push(conn.spawn_reader(shared.clone()));
                    clients.push(shared);
                }
                Some(server)
            }
        };
        Ok(Oodb {
            config,
            core,
            clients,
            readers,
            tcp,
        })
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// A session for client `client` (one transaction at a time each).
    pub fn session(&self, client: u16) -> Session {
        Session::new(client, self.clients[client as usize].clone())
    }

    /// Server-side protocol counters.
    pub fn server_stats(&self) -> ServerStats {
        self.core.runtime.engine_stats()
    }

    /// Commit-durability counters (commits, log-writer cycles, log forces).
    pub fn store_stats(&self) -> StoreStats {
        self.core.runtime.store_stats()
    }

    /// Checks the server engine's internal invariants (tests).
    pub fn check_server_invariants(&self) {
        self.core.runtime.check_invariants();
    }

    /// Flushes all dirty pages and the log (checkpoint).
    pub fn checkpoint(&self) -> std::io::Result<()> {
        self.core.checkpoint()
    }

    /// A snapshot of the *durable* log bytes, as a crash would leave them
    /// (for recovery tests).
    pub fn durable_log(&self) -> Vec<u8> {
        self.core.runtime.store().wal().durable_bytes()
    }

    /// The durable log plus a torn tail of `extra` unforced bytes — the
    /// log image of a crash striking mid-write (for recovery tests).
    pub fn crash_log(&self, extra: usize) -> Vec<u8> {
        self.core.runtime.store().wal().crash_bytes(extra)
    }

    /// Freezes (or releases) the log writer at a chosen stage of its
    /// seal → write → force cycle — the chaos harness's crash points for
    /// the asynchronous durability pipeline. While held, the durable
    /// watermark stops and pending commit acks stay parked; synchronous
    /// flushes (checkpoint, abort) are deliberately unaffected.
    pub fn wal_hold(&self, hold: WalHold) {
        self.core.runtime.store().wal().set_hold(hold);
        // A turn under a hold no-ops yet still counts as handled, so the
        // writer must be kicked (not merely woken) to re-drain once the
        // hold lifts — otherwise parked acks wait for the next commit.
        self.core.runtime.kick_log_writer();
    }

    /// Stops all threads, flushing state first (as dropping it does).
    pub fn shutdown(self) {}
}

impl Drop for Oodb {
    fn drop(&mut self) {
        let _ = self.checkpoint();
        // Clients first (each closes its runtime and says goodbye through
        // its sink, so a `Session` still around fails with `Closed`; over
        // TCP the goodbye also ends the client's reader), then the
        // transport, then the pipeline, which refuses any later request.
        for client in &self.clients {
            client.shutdown();
        }
        for t in self.readers.drain(..) {
            let _ = t.join();
        }
        if let Some(tcp) = self.tcp.as_mut() {
            tcp.shutdown();
        }
        self.core.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgs_core::{Oid, PageId};

    /// A client's outbox refers to its server weakly — the server owns
    /// its clients' ports — so dropping the engine frees the whole
    /// server (store, pool, log) even while a `Session` lives on.
    #[test]
    fn dropping_the_engine_frees_the_server() {
        let db = Oodb::open(EngineConfig {
            transport: TransportKind::Channel,
            ..EngineConfig::default()
        })
        .unwrap();
        let session = db.session(0);
        session
            .run_txn(0, |t| t.read(Oid::new(PageId(1), 0)))
            .unwrap();
        let server = Arc::downgrade(&db.core.runtime);
        drop(db);
        assert!(server.upgrade().is_none(), "the server outlived its engine");
        assert_eq!(session.begin(), Err(TxnError::Closed));
    }
}
