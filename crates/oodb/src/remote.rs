//! Remote operation: the same server pipeline behind a TCP listener
//! ([`serve_tcp`], the `fgs-serverd` binary) and a client runtime that
//! reaches it from another process ([`RemoteClient`]).
//!
//! A remote client is configured entirely by the server: the handshake
//! `Welcome` carries the protocol and cache parameters, so connecting
//! takes nothing but an address. The runtime behind a [`RemoteClient`]
//! is the *same* client runtime the embedded engine runs — only the
//! sink differs, and the thread that runs it for server messages is the
//! connection's reader (DESIGN.md §12).

use crate::chaos::{ChaosConfig, ChaosSink};
use crate::client::ClientShared;
use crate::server::ServerRuntime;
use crate::transport::tcp::{TcpConnection, TcpServer, WelcomeInfo};
use crate::transport::RequestSink;
use crate::{start_server, EngineConfig, Session};
use fgs_core::{ClientId, ServerStats};
use fgs_pagestore::{DiskManager, MemDisk, RecoveryReport, Store, StoreStats};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A running page server accepting TCP clients; dropping it (or calling
/// [`ServerHandle::shutdown`]) checkpoints and stops it.
pub struct ServerHandle {
    config: EngineConfig,
    server: Arc<ServerRuntime>,
    tcp: Option<TcpServer>,
}

/// Serves a fresh in-memory database on `addr` (e.g. `"127.0.0.1:0"` for
/// an ephemeral port — read it back via [`ServerHandle::local_addr`]).
///
/// Up to [`EngineConfig::n_clients`] clients may be connected at once;
/// ids are assigned (or validated) at handshake, and each connection's
/// server-side reader runs its requests.
/// [`EngineConfig::transport`] is ignored — this server *is* the TCP
/// transport.
pub fn serve_tcp(config: EngineConfig, addr: impl ToSocketAddrs) -> std::io::Result<ServerHandle> {
    config.validate();
    let disk = Arc::new(MemDisk::new(config.page_size));
    serve_tcp_with_disk(config, addr, disk, true)
}

/// [`serve_tcp`] over an existing disk; `init = false` attaches to a
/// disk image that already holds data.
pub fn serve_tcp_with_disk(
    config: EngineConfig,
    addr: impl ToSocketAddrs,
    disk: Arc<dyn DiskManager>,
    init: bool,
) -> std::io::Result<ServerHandle> {
    config.validate();
    let store = Store::new(disk, config.server_pool_pages, config.db_pages);
    if init {
        store.init_objects(config.db_pages, config.objects_per_page, config.object_size)?;
    }
    let server = start_server(&config, store);
    let tcp = TcpServer::bind(addr, WelcomeInfo::from_config(&config), server.clone())?;
    Ok(ServerHandle {
        config,
        server,
        tcp: Some(tcp),
    })
}

/// Recovers a database from a crashed disk image plus the durable log
/// bytes, then serves it on `addr`. Bump [`EngineConfig::txn_epoch`] past
/// the crashed incarnation's so restarted clients cannot reuse a
/// `TxnId` already present in the log.
pub fn serve_tcp_recover(
    config: EngineConfig,
    addr: impl ToSocketAddrs,
    disk: Arc<dyn DiskManager>,
    log_bytes: Vec<u8>,
) -> std::io::Result<(ServerHandle, RecoveryReport)> {
    config.validate();
    let (store, report) =
        Store::recover(disk, log_bytes, config.server_pool_pages, config.db_pages)?;
    let server = start_server(&config, store);
    let tcp = TcpServer::bind(addr, WelcomeInfo::from_config(&config), server.clone())?;
    Ok((
        ServerHandle {
            config,
            server,
            tcp: Some(tcp),
        },
        report,
    ))
}

impl ServerHandle {
    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The bound listen address.
    pub fn local_addr(&self) -> SocketAddr {
        self.tcp.as_ref().expect("server is running").local_addr()
    }

    /// Server-side protocol counters.
    pub fn server_stats(&self) -> ServerStats {
        self.server.engine_stats()
    }

    /// Commit-durability counters (commits, group commits, log forces).
    pub fn store_stats(&self) -> StoreStats {
        self.server.store_stats()
    }

    /// Checks the server engine's internal invariants (tests).
    pub fn check_server_invariants(&self) {
        self.server.check_invariants();
    }

    /// Flushes all dirty pages and the log (checkpoint).
    pub fn checkpoint(&self) -> std::io::Result<()> {
        self.server.store().flush_all()
    }

    /// A snapshot of the *durable* log bytes, as a crash would leave them
    /// (for recovery tests).
    pub fn durable_log(&self) -> Vec<u8> {
        self.server.store().wal().durable_bytes()
    }

    /// The durable log plus a torn tail of `extra` unforced bytes — the
    /// log image of a crash striking mid-write (for recovery tests).
    pub fn crash_log(&self, extra: usize) -> Vec<u8> {
        self.server.store().wal().crash_bytes(extra)
    }

    /// Freezes (or releases) the log's seal → write → force cycle at a
    /// chosen stage (chaos crash points); see
    /// [`Oodb::wal_hold`](crate::Oodb::wal_hold).
    pub fn wal_hold(&self, hold: crate::WalHold) {
        self.server.set_wal_hold(hold);
    }

    /// Checkpoints, disconnects every client, and stops the pipeline (as
    /// dropping it does).
    pub fn shutdown(self) {}
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        let _ = self.checkpoint();
        if let Some(mut tcp) = self.tcp.take() {
            tcp.shutdown();
        }
        self.server.close();
    }
}

/// A client workstation in another process: a full client runtime (cache,
/// protocol engine) over a TCP connection to a [`serve_tcp`] server.
///
/// If the connection dies, every pending and future call fails with
/// [`TxnError::Server`](crate::TxnError::Server); reconnect by creating
/// a fresh `RemoteClient`.
pub struct RemoteClient {
    client: u16,
    shared: Arc<ClientShared>,
    /// The connection's reader, which runs the runtime for every server
    /// message; `None` once joined.
    reader: Option<JoinHandle<()>>,
}

impl RemoteClient {
    /// Connects and lets the server assign a free client id.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<RemoteClient> {
        Self::connect_as(addr, None)
    }

    /// Connects as a specific client id (refused if taken or out of
    /// range).
    pub fn connect_as(
        addr: impl ToSocketAddrs,
        want: Option<u16>,
    ) -> std::io::Result<RemoteClient> {
        let conn = TcpConnection::connect(addr, want)?;
        let sink = Box::new(conn.sink());
        Ok(Self::start(conn, sink))
    }

    /// Builds the runtime over `sink` first, then hands the connection's
    /// read half to the reader thread that delivers into it.
    fn start(conn: TcpConnection, sink: Box<dyn RequestSink>) -> RemoteClient {
        let client = conn.client;
        let shared = ClientShared::new(ClientId(client), conn.params, sink);
        let reader = conn.spawn_reader(shared.clone());
        RemoteClient {
            client,
            shared,
            reader: Some(reader),
        }
    }

    /// [`RemoteClient::connect_as`] with bounded retry and exponential
    /// backoff — for reconnecting while a server restarts, or when a
    /// wanted id is briefly still bound to a dying predecessor
    /// connection. Returns the last error if every attempt fails.
    pub fn connect_retry(
        addr: impl ToSocketAddrs,
        want: Option<u16>,
        attempts: u32,
        backoff: Duration,
    ) -> std::io::Result<RemoteClient> {
        let mut delay = backoff;
        let mut last = None;
        for attempt in 0..attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_millis(500));
            }
            match Self::connect_as(&addr, want) {
                Ok(c) => return Ok(c),
                Err(e) => last = Some(e),
            }
        }
        Err(last.expect("at least one attempt"))
    }

    /// Connects with seeded fault injection on the client→server path:
    /// requests pass through a [`ChaosSink`] schedule that may delay
    /// them or sever the connection abruptly (no `Bye` — the socket is
    /// torn down as a network failure would). `stream` selects an
    /// independent schedule from the seed in `cfg`.
    pub fn connect_chaos(
        addr: impl ToSocketAddrs,
        want: Option<u16>,
        cfg: ChaosConfig,
        stream: u64,
    ) -> std::io::Result<RemoteClient> {
        let conn = TcpConnection::connect(addr, want)?;
        let peer = conn.peer();
        let sink = Box::new(ChaosSink::new(
            Box::new(conn.sink()),
            cfg,
            stream,
            Box::new(move || peer.shutdown_conn()),
        ));
        Ok(Self::start(conn, sink))
    }

    /// The client id the server bound this connection to.
    pub fn client_id(&self) -> u16 {
        self.client
    }

    /// A session on this workstation (one transaction at a time).
    pub fn session(&self) -> Session {
        Session::new(self.client, self.shared.clone())
    }

    /// Says goodbye to the server and stops the runtime.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    /// The goodbye shuts the socket, which ends the reader.
    fn shutdown_inner(&mut self) {
        if let Some(reader) = self.reader.take() {
            self.shared.shutdown();
            let _ = reader.join();
        }
    }
}

impl Drop for RemoteClient {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}
