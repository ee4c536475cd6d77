//! End-to-end tests of remote operation: a `serve_tcp` server in this
//! process, `RemoteClient` workstations attaching over real loopback
//! sockets — the same path the `fgs-serverd` binary exposes.

use fgs_core::{ClientId, Oid, PageId, Protocol, Request, ServerMsg, TxnId};
use fgs_oodb::codec::{read_frame, write_frame, Frame, PROTOCOL_VERSION};
use fgs_oodb::{serve_tcp, EngineConfig, RemoteClient, TxnError};
use std::net::{TcpListener, TcpStream};

fn retry_connect(addr: std::net::SocketAddr, want: Option<u16>) -> RemoteClient {
    for _ in 0..100 {
        match RemoteClient::connect_as(addr, want) {
            Ok(c) => return c,
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
        }
    }
    panic!("could not (re)connect to {addr} as {want:?}");
}

fn config(protocol: Protocol, n_clients: u16) -> EngineConfig {
    EngineConfig {
        protocol,
        db_pages: 8,
        objects_per_page: 8,
        object_size: 32,
        page_size: 512,
        n_clients,
        client_cache_pages: 4,
        server_pool_pages: 16,
        paranoid: true,
        ..EngineConfig::default()
    }
}

/// Two remote workstations see each other's committed writes, under a
/// page protocol and under the object server.
#[test]
fn remote_clients_share_data() {
    for protocol in [Protocol::PsAa, Protocol::Os] {
        let server = serve_tcp(config(protocol, 4), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();

        let alice = RemoteClient::connect(addr).unwrap();
        let bob = RemoteClient::connect(addr).unwrap();
        assert_ne!(alice.client_id(), bob.client_id());

        let oid = Oid::new(PageId(2), 3);
        alice
            .session()
            .run_txn(4, |t| t.write(oid, b"from alice".to_vec()))
            .unwrap();
        let got = bob.session().run_txn(4, |t| t.read(oid)).unwrap();
        assert_eq!(got, b"from alice");

        // And back: bob updates, alice re-reads (exercises the callback
        // path over the wire under PS-AA).
        bob.session()
            .run_txn(4, |t| t.write(oid, b"from bob".to_vec()))
            .unwrap();
        let got = alice.session().run_txn(4, |t| t.read(oid)).unwrap();
        assert_eq!(got, b"from bob");

        server.check_server_invariants();
        alice.shutdown();
        bob.shutdown();
        server.shutdown();
    }
}

/// Client-id binding: pinned ids are honored, duplicates and
/// out-of-range ids are rejected, a full server refuses, and a freed id
/// can be rebound.
#[test]
fn client_id_assignment_and_rejection() {
    let server = serve_tcp(config(Protocol::PsAa, 2), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let pinned = RemoteClient::connect_as(addr, Some(1)).unwrap();
    assert_eq!(pinned.client_id(), 1);
    // The assigned id is the remaining free slot.
    let assigned = RemoteClient::connect(addr).unwrap();
    assert_eq!(assigned.client_id(), 0);

    // Taken, out of range, and full are all refused at handshake.
    assert!(RemoteClient::connect_as(addr, Some(1)).is_err());
    assert!(RemoteClient::connect_as(addr, Some(7)).is_err());
    assert!(RemoteClient::connect(addr).is_err());

    // A clean goodbye frees the slot for a newcomer. The client's
    // goodbye returns before the server finishes deregistering, so give
    // the rebind a moment.
    pinned.shutdown();
    let reuse = retry_connect(addr, Some(1));
    assert_eq!(reuse.client_id(), 1);

    reuse.shutdown();
    assigned.shutdown();
    server.shutdown();
}

/// A garbage-spewing connection is dropped without disturbing the
/// server; real clients keep working.
#[test]
fn malformed_peer_does_not_disturb_the_server() {
    let server = serve_tcp(config(Protocol::PsOa, 4), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    {
        use std::io::Write;
        let mut vandal = TcpStream::connect(addr).unwrap();
        vandal
            .write_all(b"\xFF\xFF\xFF\xFFnot a frame at all")
            .unwrap();
    } // dropped: the server's handshake read fails and the conn dies

    let client = RemoteClient::connect(addr).unwrap();
    let oid = Oid::new(PageId(1), 1);
    client
        .session()
        .run_txn(4, |t| t.write(oid, b"still alive".to_vec()))
        .unwrap();
    assert_eq!(
        client.session().run_txn(4, |t| t.read(oid)).unwrap(),
        b"still alive"
    );
    client.shutdown();
    server.shutdown();
}

/// A client demanding a frame version the server does not speak is
/// rejected at handshake with a `Reject` frame, not a hang or a silent
/// close.
#[test]
fn version_mismatch_from_client_is_rejected() {
    let server = serve_tcp(config(Protocol::PsAa, 2), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let mut conn = TcpStream::connect(addr).unwrap();
    write_frame(
        &mut conn,
        &Frame::Hello {
            min_version: PROTOCOL_VERSION + 98,
            max_version: PROTOCOL_VERSION + 99,
            client: None,
        },
    )
    .unwrap();
    match read_frame(&mut conn) {
        Ok(Frame::Reject { reason }) => {
            assert!(
                reason.contains("version"),
                "reject should name the version problem, got {reason:?}"
            );
        }
        other => panic!("expected Reject, got {other:?}"),
    }

    // The rejection burned nothing: a well-versioned client still fits.
    let client = RemoteClient::connect(addr).unwrap();
    client.shutdown();
    server.shutdown();
}

/// A server negotiating a frame version the client does not speak is
/// refused client-side: `connect` fails with `InvalidData` instead of
/// running a runtime over frames it cannot trust.
#[test]
fn version_mismatch_from_server_is_refused() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    // A fake server that accepts the handshake but claims a future frame
    // version in its `Welcome`.
    let fake = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        match read_frame(&mut conn) {
            Ok(Frame::Hello { .. }) => {}
            other => panic!("expected Hello, got {other:?}"),
        }
        write_frame(
            &mut conn,
            &Frame::Welcome {
                version: PROTOCOL_VERSION + 98,
                client: 0,
                protocol: Protocol::PsAa,
                objects_per_page: 8,
                page_size: 512,
                client_cache_pages: 4,
                first_txn_seq: 0,
            },
        )
        .unwrap();
        // Hold the socket open until the client has judged the Welcome.
        let _ = read_frame(&mut conn);
    });

    let err = match RemoteClient::connect(addr) {
        Err(e) => e,
        Ok(_) => panic!("future version must be refused"),
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    fake.join().unwrap();
}

/// Threads alive in this process (Linux: one entry per task).
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(0)
}

/// A bare socket that said `Hello` pinned to `id` and got its `Welcome`.
/// The server unbinds an id only once the connection's thread reads EOF,
/// so a predecessor that just dropped its socket may still hold `id`: a
/// `Reject` of "client id in use" is retried with bounded backoff, as
/// `RemoteClient::connect_retry` does (DESIGN.md §12).
fn raw_handshake(addr: std::net::SocketAddr, id: u16) -> TcpStream {
    let mut delay = std::time::Duration::from_millis(1);
    for _ in 0..20 {
        let mut conn = TcpStream::connect(addr).unwrap();
        let hello = Frame::Hello {
            min_version: 1,
            max_version: PROTOCOL_VERSION,
            client: Some(id),
        };
        write_frame(&mut conn, &hello).unwrap();
        match read_frame(&mut conn) {
            Ok(Frame::Welcome { .. }) => return conn,
            Ok(Frame::Reject { reason }) if reason == "client id in use" => {
                std::thread::sleep(delay);
                delay = (delay * 2).min(std::time::Duration::from_millis(500));
            }
            other => panic!("expected Welcome, got {other:?}"),
        }
    }
    panic!("client id {id} stayed bound to a dead connection");
}

/// Connection churn — clean goodbyes and abrupt resets alike — must not
/// leak server-side connection threads. Exercises the acceptor's
/// finished-handle reaping and the read loop's teardown path.
#[test]
fn repeated_connections_do_not_leak_threads() {
    let server = serve_tcp(config(Protocol::PsAa, 2), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let oid = Oid::new(PageId(1), 2);

    // Warm up one full connection so lazily spawned threads exist before
    // the baseline is taken.
    let warm = retry_connect(addr, Some(0));
    warm.session()
        .run_txn(4, |t| t.write(oid, b"warm".to_vec()))
        .unwrap();
    warm.shutdown();
    let baseline = thread_count();

    for i in 0..50 {
        if i % 2 == 0 {
            // Clean: full handshake, one transaction, polite goodbye.
            let c = retry_connect(addr, Some(0));
            c.session()
                .run_txn(4, |t| t.write(oid, vec![i as u8; 4]))
                .unwrap();
            c.shutdown();
        } else {
            // Abrupt: handshake then drop the socket mid-conversation —
            // a connection reset from the server's point of view.
            drop(raw_handshake(addr, 1));
        }
    }

    // Dead connection threads take a moment to unwind; poll until the
    // count settles back to the baseline (small slack for the acceptor's
    // in-flight reap).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let now = thread_count();
        if now <= baseline + 2 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "thread count {now} never settled to baseline {baseline}"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    // And the server still serves.
    let c = retry_connect(addr, Some(0));
    assert_eq!(
        c.session().run_txn(4, |t| t.read(oid)).unwrap()[0],
        48,
        "last clean write visible"
    );
    c.shutdown();
    server.shutdown();
}

/// An unclean disconnect aborts the client's in-flight transaction: a
/// raw socket takes a page write lock and vanishes without a goodbye, and
/// another client's write to the same object then completes, because the
/// dying connection runs the client's `Disconnect` through the engine.
#[test]
fn an_unclean_disconnect_releases_the_clients_locks() {
    let server = serve_tcp(config(Protocol::Ps, 2), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let oid = Oid::new(PageId(1), 2);

    let mut raw = raw_handshake(addr, 0);
    let req = Request::Write {
        txn: TxnId::new(ClientId(0), 1),
        oid,
        need_copy: true,
    };
    let frame = Frame::Request {
        from: ClientId(0),
        req,
        commit_data: Vec::new(),
    };
    write_frame(&mut raw, &frame).unwrap();
    match read_frame(&mut raw) {
        Ok(Frame::Server {
            msg: ServerMsg::WriteGranted { .. },
            ..
        }) => {}
        other => panic!("expected WriteGranted, got {other:?}"),
    }
    drop(raw);

    let other = retry_connect(addr, Some(1));
    let session = other.session();
    let (done, outcome) = std::sync::mpsc::channel();
    let writer = std::thread::spawn(move || {
        let _ = done.send(session.run_txn(4, |t| t.write(oid, b"after".to_vec())));
    });
    outcome
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("the write still waits on the vanished client's lock")
        .unwrap();
    writer.join().unwrap();
    other.shutdown();
    server.shutdown();
}

/// When the server goes away under a live client, calls fail with
/// `TxnError::Server` instead of hanging or panicking.
#[test]
fn server_shutdown_surfaces_as_server_error() {
    let server = serve_tcp(config(Protocol::Ps, 4), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let client = RemoteClient::connect(addr).unwrap();

    let oid = Oid::new(PageId(3), 0);
    client
        .session()
        .run_txn(4, |t| t.write(oid, b"pre-crash".to_vec()))
        .unwrap();

    server.shutdown();

    let session = client.session();
    // The begin may sneak in before the runtime notices the loss, but a
    // round trip cannot — a write to a never-cached object must ask the
    // server under every protocol, so this chain fails with the
    // transport error.
    let fresh = Oid::new(PageId(5), 2);
    let res = session
        .begin()
        .and_then(|_| session.write(fresh, b"post-crash".to_vec()));
    assert_eq!(res.unwrap_err(), TxnError::Server);
    // And every later call fails fast the same way.
    assert_eq!(session.begin().unwrap_err(), TxnError::Server);
    client.shutdown();
}
