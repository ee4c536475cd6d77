//! Isolated layer probes: each layer's public functions timed on their
//! own, single-threaded, with the message shapes and page strings the
//! workload produces. They run after the measured phase of a traced
//! pass; every timed batch is also a span in the trace.

use crate::stats;
use crate::trace::{Tracer, NO_PARENT};
use crate::workloads::{TxnSource, Workload, OBJECT_SIZE, SERVER_POOL_PAGES};
use fgs_core::{
    ClientAction, ClientEngine, ClientId, DataGrant, Oid, PageId, Protocol, Request, ServerAction,
    ServerEngine, ServerMsg, TxnId, WriteSet,
};
use fgs_oodb::codec::{decode_frame, encode_frame, BatchEncoder, Frame};
use fgs_oodb::{EngineConfig, Oodb, Session, TransportKind};
use fgs_pagestore::{LogRecord, MemDisk, Store, Wal};
use fgs_sim::{run_point, RunConfig, SystemConfig};
use fgs_workload::{DB_PAGES, OBJECTS_PER_PAGE};
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Timed batches per probe; the median batch is reported.
const BATCHES: usize = 5;
/// Cached reads timed by the session-hop probe.
pub const HOP_CALLS: usize = 2_000;
/// One-page fetches timed per transport.
const FETCHES: usize = 1_500;
/// Transactions per client replayed through the bare protocol engines.
const REPLAY_TXNS: usize = 150;
/// `ClientEngine::access` calls per timed batch.
const ACCESS_ITERS: usize = 50_000;
const PAGE_SIZE: usize = 4096;

/// Median over [`BATCHES`] batches of the mean time of one `f` call, in
/// nanoseconds. Each batch is recorded as a span named after the probe.
fn ns_per_call(
    tracer: &mut Tracer,
    name: &'static str,
    iters: usize,
    mut f: impl FnMut(usize),
) -> f64 {
    let per_batch: Vec<f64> = (0..BATCHES)
        .map(|b| {
            let id = tracer.open(name, NO_PARENT, 0);
            for i in 0..iters {
                f(b * iters + i);
            }
            tracer.close(id);
            tracer.spans[id as usize].duration_ns() as f64 / iters as f64
        })
        .collect();
    stats::median(&per_batch)
}

fn p50_us(mut samples_ns: Vec<f64>) -> f64 {
    stats::sort(&mut samples_ns);
    stats::percentile(&samples_ns, 0.50) / 1e3
}

/// `session.hop_us_p50`: one cached read through `Session` on an idle
/// engine — the cross-thread hop every call pays, with nothing else.
pub fn session_hop_us(session: &Session) -> f64 {
    let oid = Oid::new(PageId(0), 0);
    session.begin().expect("hop probe begin");
    session.read(oid).expect("hop probe warm read");
    let samples = (0..HOP_CALLS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(session.read(oid).expect("hop probe read"));
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    session.commit().expect("hop probe commit");
    p50_us(samples)
}

/// One-page fetch round trip on an otherwise idle engine: a read of a
/// page the two-page client cache cannot hold, over `transport`, with
/// every page resident in the server pool.
fn fetch_rtt_us(transport: TransportKind) -> f64 {
    const PAGES: u32 = 256;
    let db = Oodb::open(EngineConfig {
        protocol: Protocol::PsAa,
        db_pages: PAGES,
        objects_per_page: OBJECTS_PER_PAGE,
        object_size: OBJECT_SIZE,
        n_clients: 1,
        client_cache_pages: 2,
        server_pool_pages: PAGES as usize,
        transport,
        ..EngineConfig::default()
    })
    .expect("open transport probe engine");
    let s = db.session(0);
    let samples = (0..FETCHES as u32)
        .map(|i| {
            s.begin().expect("fetch probe begin");
            let t0 = Instant::now();
            black_box(
                s.read(Oid::new(PageId(i * 7 % PAGES), 0))
                    .expect("fetch probe read"),
            );
            let ns = t0.elapsed().as_nanos() as f64;
            s.commit().expect("fetch probe commit");
            ns
        })
        .collect();
    db.shutdown();
    p50_us(samples)
}

/// Delivers `actions` from client `from` to the server and every reply
/// back, to quiescence, logging each request the server handled.
fn pump(
    server: &mut ServerEngine,
    clients: &mut [ClientEngine],
    from: ClientId,
    actions: Vec<ClientAction>,
    log: &mut Vec<(ClientId, Request)>,
) {
    let mut inbox: VecDeque<(ClientId, Request)> = VecDeque::new();
    let sends = |from: ClientId, actions: Vec<ClientAction>, inbox: &mut VecDeque<_>| {
        for a in actions {
            if let ClientAction::Send(req) = a {
                inbox.push_back((from, req));
            }
        }
    };
    sends(from, actions, &mut inbox);
    while let Some((from, req)) = inbox.pop_front() {
        log.push((from, req.clone()));
        for action in server.handle(from, req).actions {
            // No durability stage here: a commit is acknowledged at once.
            let (to, msg) = match action {
                ServerAction::Send { to, msg } => (to, msg),
                ServerAction::AckCommit { to, txn } => (to, ServerMsg::CommitDone { txn }),
            };
            let out = clients[usize::from(to.0)].handle_server(msg);
            sends(to, out.actions, &mut inbox);
        }
    }
}

/// `core.handle_ns`: the workload's request mix through a bare
/// `ServerEngine`. The mix is produced once by in-memory
/// `ClientEngine`s running the workload's transactions one at a time
/// (so callbacks happen but nothing blocks), then replayed request by
/// request into a fresh engine with only `handle` inside the timer.
fn handle_ns(workload: Workload, seed: u64, n_clients: u16, tracer: &mut Tracer) -> (f64, u64) {
    let cache_pages = workload.engine_config(n_clients).client_cache_pages;
    let fresh = || ServerEngine::new(Protocol::PsAa, OBJECTS_PER_PAGE);
    let mut server = fresh();
    let mut clients: Vec<ClientEngine> = (0..n_clients)
        .map(|c| ClientEngine::new(ClientId(c), Protocol::PsAa, OBJECTS_PER_PAGE, cache_pages))
        .collect();
    let mut sources: Vec<TxnSource> = (0..n_clients)
        .map(|c| TxnSource::new(workload, seed, c, n_clients))
        .collect();
    let mut log = Vec::new();
    for seq in 1..=REPLAY_TXNS as u64 {
        for c in 0..n_clients {
            let (id, i) = (ClientId(c), usize::from(c));
            clients[i].begin(TxnId::new(id, seq));
            for op in sources[i].next_txn() {
                for write in [false, true].into_iter().take(1 + usize::from(op.write)) {
                    let out = clients[i].access(op.oid, write);
                    pump(&mut server, &mut clients, id, out.actions, &mut log);
                }
            }
            let out = clients[i].commit();
            pump(&mut server, &mut clients, id, out.actions, &mut log);
        }
    }
    let handles = log.len();
    let per_batch: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let mut server = fresh();
            let requests = log.clone();
            let id = tracer.open("core.handle_ns", NO_PARENT, 0);
            for (from, req) in requests {
                black_box(server.handle(from, req));
            }
            tracer.close(id);
            tracer.spans[id as usize].duration_ns() as f64 / handles.max(1) as f64
        })
        .collect();
    (stats::median(&per_batch), handles as u64)
}

/// `client.access_hit_ns`: `ClientEngine::access` on a cached object
/// inside an open transaction — the whole client-side cost of a hit.
fn access_hit_ns(tracer: &mut Tracer) -> f64 {
    let id = ClientId(0);
    let mut server = ServerEngine::new(Protocol::PsAa, OBJECTS_PER_PAGE);
    let mut clients = [ClientEngine::new(id, Protocol::PsAa, OBJECTS_PER_PAGE, 64)];
    clients[0].begin(TxnId::new(id, 1));
    let oid = Oid::new(PageId(1), 0);
    let out = clients[0].access(oid, false);
    pump(&mut server, &mut clients, id, out.actions, &mut Vec::new());
    let client = &mut clients[0];
    ns_per_call(tracer, "client.access_hit_ns", ACCESS_ITERS, |_| {
        black_box(client.access(black_box(oid), false));
    })
}

fn codec_probes(tracer: &mut Tracer, set: &mut dyn FnMut(&str, f64, u64)) {
    const ITERS: usize = 20_000;
    let txn = TxnId::new(ClientId(0), 7);
    let oid = Oid::new(PageId(77), 3);
    let request = Frame::Request {
        from: ClientId(0),
        req: Request::Read { txn, oid },
        commit_data: Vec::new(),
    };
    let grant = Frame::Server {
        msg: ServerMsg::ReadGranted {
            txn,
            oid,
            data: DataGrant::Page {
                page: oid.page,
                unavailable: Vec::new(),
                epoch: 1,
            },
        },
        page_image: Some(Arc::new(vec![0xAB; PAGE_SIZE])),
        object_bytes: Some(Arc::new(vec![0xCD; OBJECT_SIZE])),
    };
    // private_cached's commit: 24 updated objects over 10 pages.
    let slots: Vec<Oid> = (0..24)
        .map(|i| Oid::new(PageId(i % 10), (i / 10) as u16))
        .collect();
    let commit = Frame::Request {
        from: ClientId(0),
        req: Request::Commit {
            txn,
            writes: (0..10)
                .map(|p| WriteSet {
                    page: PageId(p),
                    slots: slots
                        .iter()
                        .filter(|o| o.page.0 == p)
                        .map(|o| o.slot)
                        .collect(),
                })
                .collect(),
        },
        commit_data: slots
            .iter()
            .map(|&o| (o, vec![0xEF; OBJECT_SIZE]))
            .collect(),
    };
    let n = (BATCHES * ITERS) as u64;
    for (name, frame) in [
        ("codec.request_encode_ns", &request),
        ("codec.page_grant_encode_ns", &grant),
        ("codec.commit24_encode_ns", &commit),
    ] {
        let ns = ns_per_call(tracer, name, ITERS, |_| {
            black_box(encode_frame(black_box(frame)));
        });
        set(name, ns, n);
    }
    for (name, frame) in [
        ("codec.request_decode_ns", &request),
        ("codec.page_grant_decode_ns", &grant),
    ] {
        let bytes = encode_frame(frame);
        let body = &bytes[4..]; // past the length prefix
        let ns = ns_per_call(tracer, name, ITERS, |_| {
            black_box(decode_frame(black_box(body)).expect("decode own frame"));
        });
        set(name, ns, n);
    }
    const BATCH_FRAMES: usize = 8;
    let mut encoder = BatchEncoder::new();
    let ns = ns_per_call(
        tracer,
        "codec.batch_push_ns_per_frame",
        ITERS / BATCH_FRAMES,
        |_| {
            encoder.clear();
            for _ in 0..BATCH_FRAMES {
                encoder.push_frame(black_box(&grant));
            }
            black_box(encoder.total_len());
        },
    );
    set("codec.batch_push_ns_per_frame", ns / BATCH_FRAMES as f64, n);
    set(
        "codec.bytes_per_page_grant",
        encode_frame(&grant).len() as f64,
        1,
    );
}

fn wal_probes(tracer: &mut Tracer, set: &mut dyn FnMut(&str, f64, u64)) {
    const ITERS: usize = 10_000;
    let txn = TxnId::new(ClientId(0), 1);
    let update = LogRecord::Update {
        txn,
        oid: Oid::new(PageId(1), 1),
        before: vec![0; OBJECT_SIZE],
        after: vec![1; OBJECT_SIZE],
    };
    let wal = Wal::new();
    let ns = ns_per_call(tracer, "wal.append_ns", ITERS, |_| {
        black_box(wal.append(black_box(&update)));
    });
    set("wal.append_ns", ns, (BATCHES * ITERS) as u64);
    // What the log writer does for one lone commit.
    let wal = Wal::new();
    let commit = LogRecord::Commit { txn };
    let ns = ns_per_call(tracer, "wal.cycle_ns", ITERS, |_| {
        wal.append(&commit);
        wal.seal();
        wal.write_sealed();
        black_box(wal.force_written());
    });
    set("wal.cycle_ns", ns, (BATCHES * ITERS) as u64);
}

/// A bare `Store` shaped like the engine's: the whole database behind a
/// pool half its size.
fn probe_store() -> Store {
    let store = Store::new(
        Arc::new(MemDisk::new(PAGE_SIZE)),
        SERVER_POOL_PAGES,
        DB_PAGES,
    );
    store
        .init_objects(DB_PAGES, OBJECTS_PER_PAGE, OBJECT_SIZE)
        .expect("init probe store");
    store
}

const STORE_ITERS: usize = 5_000;
/// Pages the hit and update probes cycle over: well inside the pool.
const HOT_PAGES: u32 = 100;

fn hot_page(i: usize) -> PageId {
    PageId(i as u32 % HOT_PAGES)
}

fn touch_hot_pages(store: &Store) {
    for page in 0..HOT_PAGES {
        store.page_image(PageId(page)).expect("touch hot page");
    }
}

/// `store.page_image_hit_ns` / `_miss_ns`: the read path with the page
/// resident, and with it evicted.
fn store_read_probes(tracer: &mut Tracer, set: &mut dyn FnMut(&str, f64, u64)) {
    let store = probe_store();
    let n = (BATCHES * STORE_ITERS) as u64;
    touch_hot_pages(&store);
    let ns = ns_per_call(tracer, "store.page_image_hit_ns", STORE_ITERS, |i| {
        black_box(store.page_image(hot_page(i)).expect("page image"));
    });
    set("store.page_image_hit_ns", ns, n);
    // A cyclic scan of twice the pool defeats LRU: every call misses.
    let ns = ns_per_call(tracer, "store.page_image_miss_ns", STORE_ITERS, |i| {
        black_box(
            store
                .page_image(PageId(i as u32 % DB_PAGES))
                .expect("page image"),
        );
    });
    set("store.page_image_miss_ns", ns, n);
}

/// `store.update_object_ns` / `append_commit_ns`: what a commit costs
/// the store. Updates land on resident pages, as a commit's pages are
/// (the client fetched them moments before).
fn store_write_probes(tracer: &mut Tracer, set: &mut dyn FnMut(&str, f64, u64)) {
    let store = probe_store();
    let n = (BATCHES * STORE_ITERS) as u64;
    touch_hot_pages(&store);
    let txn = TxnId::new(ClientId(0), 1);
    store.begin(txn);
    let after = [7u8; OBJECT_SIZE];
    let ns = ns_per_call(tracer, "store.update_object_ns", STORE_ITERS, |i| {
        let oid = Oid::new(
            hot_page(i),
            (i / HOT_PAGES as usize % usize::from(OBJECTS_PER_PAGE)) as u16,
        );
        store
            .update_object(txn, oid, black_box(&after))
            .expect("update object");
    });
    set("store.update_object_ns", ns, n);
    let ns = ns_per_call(tracer, "store.append_commit_ns", STORE_ITERS, |i| {
        black_box(store.append_commit(TxnId::new(ClientId(0), i as u64 + 2)));
    });
    set("store.append_commit_ns", ns, n);
}

/// `pool.hit_rate`: the workload's page string through
/// `Store::page_image`, as if every access reached the pool.
fn pool_hit_rate(
    workload: Workload,
    seed: u64,
    n_clients: u16,
    tracer: &mut Tracer,
    set: &mut dyn FnMut(&str, f64, u64),
) {
    let store = probe_store();
    let (hits0, misses0) = store.pool().stats();
    let mut sources: Vec<TxnSource> = (0..n_clients)
        .map(|c| TxnSource::new(workload, seed, c, n_clients))
        .collect();
    let id = tracer.open("pool.hit_rate", NO_PARENT, 0);
    for _ in 0..REPLAY_TXNS {
        for source in &mut sources {
            for op in source.next_txn() {
                black_box(store.page_image(op.oid.page).expect("page image"));
            }
        }
    }
    tracer.close(id);
    let (hits, misses) = store.pool().stats();
    let (hits, misses) = (hits - hits0, misses - misses0);
    set(
        "pool.hit_rate",
        stats::ratio(hits as f64, (hits + misses) as f64),
        hits + misses,
    );
}

/// The same workload through the paper's simulator, for the
/// hardware-independent per-commit counts.
fn sim_probe(
    workload: Workload,
    seed: u64,
    n_clients: u16,
    tracer: &mut Tracer,
    set: &mut dyn FnMut(&str, f64, u64),
) {
    let Some(spec) = workload.sim_spec() else {
        return;
    };
    let sys = SystemConfig {
        num_clients: n_clients,
        client_buf_frac: workload.client_buf_frac(),
        ..SystemConfig::default()
    };
    let run = RunConfig {
        duration: 320.0,
        warmup: 20.0,
        batches: 2,
        seed,
    };
    let id = tracer.open("sim.run_point", NO_PARENT, 0);
    let m = run_point(Protocol::PsAa, spec, &sys, &run);
    tracer.close(id);
    let wall_s = tracer.spans[id as usize].duration_ns() as f64 / 1e9;
    let commits = m.commits as f64;
    set("sim.msgs_per_commit", m.msgs_per_commit, m.commits);
    set(
        "sim.callbacks_per_commit",
        stats::ratio(m.callbacks as f64, commits),
        m.commits,
    );
    set(
        "sim.deescalations_per_commit",
        stats::ratio(m.deescalations as f64, commits),
        m.commits,
    );
    set("sim.page_grant_frac", m.page_grant_frac, m.commits);
    set("sim.wall_s_per_sim_s", wall_s / run.duration, 1);
}

fn transport_probes(set: &mut dyn FnMut(&str, f64, u64)) {
    let channel = fetch_rtt_us(TransportKind::Channel);
    let tcp = fetch_rtt_us(TransportKind::Tcp);
    set("transport.fetch_rtt_us_channel", channel, FETCHES as u64);
    set("transport.fetch_rtt_us_tcp", tcp, FETCHES as u64);
    set(
        "transport.tcp_minus_channel_us",
        tcp - channel,
        FETCHES as u64,
    );
}

/// Runs every probe that needs no live engine, reporting through `set`.
///
/// Three probes replay the workload's own transactions and run for every
/// workload. The rest time a fixed input, so each runs in one traced
/// pass only: that of the workload whose end-to-end metrics its layer
/// should move (README, "Which layer should move which"). Elsewhere
/// those metrics read 0.
pub fn layer_probes(
    workload: Workload,
    seed: u64,
    n_clients: u16,
    tracer: &mut Tracer,
    set: &mut dyn FnMut(&str, f64, u64),
) {
    let (ns, handles) = handle_ns(workload, seed, n_clients, tracer);
    set("core.handle_ns", ns, handles);
    pool_hit_rate(workload, seed, n_clients, tracer, set);
    sim_probe(workload, seed, n_clients, tracer, set);
    match workload {
        Workload::CommitShort => {
            wal_probes(tracer, set);
            store_write_probes(tracer, set);
        }
        Workload::FetchCold => {
            transport_probes(set);
            codec_probes(tracer, set);
            store_read_probes(tracer, set);
        }
        Workload::PrivateCached => set(
            "client.access_hit_ns",
            access_hit_ns(tracer),
            (BATCHES * ACCESS_ITERS) as u64,
        ),
        Workload::HiconContend => {}
    }
}
