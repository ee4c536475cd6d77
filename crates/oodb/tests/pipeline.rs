//! Tests of the pipelined server runtime: group commit under
//! concurrency, a log writer that never stalls the request path (nor is
//! stalled by it), server-initiated aborts on storage failures, and
//! crash recovery from a snapshot taken mid-group-commit.

use fgs_core::{Oid, PageId, Protocol};
use fgs_oodb::{EngineConfig, Oodb, TxnError, WalHold};
use fgs_pagestore::{DiskManager, MemDisk};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const CLIENTS: u16 = 8;

fn config(protocol: Protocol) -> EngineConfig {
    EngineConfig {
        protocol,
        db_pages: 4,
        objects_per_page: 8,
        object_size: 16,
        page_size: 512,
        n_clients: CLIENTS,
        client_cache_pages: 4,
        server_pool_pages: 8,
        paranoid: true,
        // Transport comes from `FGS_TRANSPORT` (the CI loopback-TCP lane
        // runs this whole suite over sockets).
        ..EngineConfig::default()
    }
}

fn decode(v: &[u8]) -> u64 {
    u64::from_le_bytes(v[..8].try_into().expect("stamp"))
}

fn encode(version: u64) -> Vec<u8> {
    let mut v = vec![0u8; 16];
    v[..8].copy_from_slice(&version.to_le_bytes());
    v
}

/// Eight sessions of mixed read/write transactions, each running its own
/// requests through the server: the version-counter oracle proves serializability
/// (strict 2PL means counters never regress or skip), and the store's
/// commit counters prove that concurrent commits from distinct clients
/// were made durable by batched (group) log forces.
#[test]
fn pipelined_server_is_serializable_and_group_commits() {
    for protocol in [Protocol::Ps, Protocol::PsAa] {
        let db = Arc::new(Oodb::open(config(protocol)).unwrap());
        let objects: Vec<Oid> = (0..4)
            .flat_map(|p| (0..8).map(move |s| Oid::new(PageId(p), s)))
            .collect();
        std::thread::scope(|scope| {
            for t in 0..CLIENTS {
                let db = db.clone();
                let objects = objects.clone();
                scope.spawn(move || {
                    let s = db.session(t);
                    let mut x = 0xA076_1D64_78BD_642Fu64.wrapping_mul(u64::from(t) + 1);
                    let mut rand = move || {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x
                    };
                    for _ in 0..30 {
                        let a = objects[(rand() % 32) as usize];
                        let b = objects[(rand() % 32) as usize];
                        let read_only = rand() % 4 == 0;
                        let res: Result<(), TxnError> = s.run_txn(100, |txn| {
                            let va = decode(&txn.read(a)?);
                            // Repeatable read inside the transaction.
                            assert_eq!(decode(&txn.read(a)?), va, "{protocol}");
                            if read_only {
                                let _ = decode(&txn.read(b)?);
                                return Ok(());
                            }
                            txn.write(a, encode(va + 1))?;
                            assert_eq!(decode(&txn.read(a)?), va + 1, "{protocol}");
                            if b != a {
                                let vb = decode(&txn.read(b)?);
                                txn.write(b, encode(vb + 1))?;
                            }
                            Ok(())
                        });
                        res.unwrap_or_else(|e| panic!("{protocol}: {e}"));
                    }
                });
            }
        });
        // Every increment ran under a write lock: the total equals the
        // number of (txn, object) bumps, which is between one and two per
        // writing transaction.
        let s = db.session(0);
        s.begin().unwrap();
        let total: u64 = objects.iter().map(|&o| decode(&s.read(o).unwrap())).sum();
        s.commit().unwrap();
        let writers = u64::from(CLIENTS) * 30; // upper bound: none read-only
        assert!(
            total >= u64::from(CLIENTS) && total <= 2 * writers,
            "{protocol}: {total} increments outside possible range"
        );
        db.check_server_invariants();

        // Deterministic coalescing evidence: park the log writer behind
        // a chaos hold, let four clients append their commit records
        // (appends never block under a hold; the acks park in the
        // completion router), then release — the parked commits become
        // durable, and are accounted, as one forced writer cycle.
        db.wal_hold(WalHold::BeforeSeal);
        std::thread::scope(|scope| {
            for t in 0..4u16 {
                let db = db.clone();
                scope.spawn(move || {
                    let s = db.session(t);
                    s.run_txn(100, |txn| {
                        let o = Oid::new(PageId(u32::from(t)), 0);
                        let v = decode(&txn.read(o)?);
                        txn.write(o, encode(v + 1))
                    })
                    .unwrap_or_else(|e| panic!("{protocol}: held commit: {e}"));
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(200));
            db.wal_hold(WalHold::None);
        });

        let stats = db.store_stats();
        assert!(
            stats.commits >= u64::from(CLIENTS),
            "{protocol}: every writer committed at least once ({stats:?})"
        );
        assert!(
            stats.group_commit_batches >= 1,
            "{protocol}: concurrent commits never coalesced into one \
             log force ({stats:?})"
        );
        assert!(
            stats.piggybacked_commits >= 1,
            "{protocol}: no commit ever piggybacked on another's force ({stats:?})"
        );
        assert!(
            stats.log_forces < stats.commits,
            "{protocol}: group commit must force fewer times than it \
             commits ({stats:?})"
        );
    }
}

/// Commits never wait on the force path: while client 0's commit is
/// parked behind a frozen force, client 4 still runs a whole
/// transaction that needs the server. A request path that waited for
/// durability would wedge it.
#[test]
fn a_commit_parked_on_the_force_does_not_stall_the_server() {
    let db = Oodb::open(config(Protocol::PsAa)).unwrap();
    let committed = AtomicBool::new(false);
    db.wal_hold(WalHold::BeforeForce);
    let durable = db.durable_log().len();
    std::thread::scope(|scope| {
        let commit = scope.spawn(|| {
            let s = db.session(0);
            s.begin()?;
            s.write(Oid::new(PageId(0), 0), encode(1))?;
            let done = s.commit();
            committed.store(true, Ordering::SeqCst);
            done
        });
        // Client 0's run has appended the commit's records; the force
        // stays held.
        while db.crash_log(usize::MAX).len() <= durable {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let s = db.session(4);
        s.begin().unwrap();
        assert_eq!(s.read(Oid::new(PageId(1), 0)).unwrap(), vec![0u8; 16]);
        s.abort().unwrap();
        assert!(
            !committed.load(Ordering::SeqCst),
            "the commit was acked while its force was held"
        );
        db.wal_hold(WalHold::None);
        commit.join().unwrap().expect("the parked commit completes");
    });
    db.check_server_invariants();
    db.shutdown();
}

/// The log writer never blocks inside a run. Under `BeforeWrite`,
/// client 0's commit parks on the force, and the callback client 1's
/// write sends to client 0 (which caches the page) queues behind that
/// ack. A checkpoint forces the log synchronously — holds never gate it
/// — and re-engaging the hold kicks the writer: its turn releases the ack
/// and the callback on the log-writer thread, client 0 answers the
/// callback there, and that reply is served with the hold still engaged,
/// so client 1's write goes through. Releasing the hold then acks client
/// 1's commit, parked under it.
#[test]
fn a_callback_reply_produced_by_a_log_writer_delivery_is_served() {
    let db = Oodb::open(config(Protocol::PsAa)).unwrap();
    let x = Oid::new(PageId(0), 0);
    let (a, b) = (db.session(0), db.session(1));
    a.run_txn(0, |t| t.read(x).map(drop)).unwrap();
    let wrote = AtomicBool::new(false);
    let committed = AtomicBool::new(false);
    let wait_for = |what: &str, cond: &dyn Fn() -> bool| {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !cond() {
            assert!(
                std::time::Instant::now() < deadline,
                "timed out waiting for {what}"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    };
    db.wal_hold(WalHold::BeforeWrite);
    a.begin().unwrap();
    a.write(Oid::new(PageId(1), 0), encode(1)).unwrap();
    let (passes, callbacks) = (
        db.store_stats().lock_acquisitions,
        db.server_stats().callbacks_sent,
    );
    std::thread::scope(|scope| {
        let a_commit = scope.spawn(|| a.commit());
        // The commit's run has passed the protocol stage, so its ack is
        // ahead of anything client 1's write makes the engine send.
        wait_for("client 0's commit", &|| {
            db.store_stats().lock_acquisitions > passes
        });
        let b_txn = scope.spawn(|| {
            b.begin()?;
            b.write(x, encode(7))?;
            wrote.store(true, Ordering::SeqCst);
            let done = b.commit();
            committed.store(true, Ordering::SeqCst);
            done
        });
        wait_for("the callback to client 0", &|| {
            db.server_stats().callbacks_sent > callbacks
        });
        assert!(
            !wrote.load(Ordering::SeqCst),
            "the callback overtook client 0's parked ack"
        );
        db.checkpoint().unwrap();
        db.wal_hold(WalHold::BeforeWrite);
        a_commit
            .join()
            .unwrap()
            .expect("client 0's commit is acked");
        wait_for("client 1's write", &|| wrote.load(Ordering::SeqCst));
        assert!(
            !committed.load(Ordering::SeqCst),
            "client 1's commit was acked while the hold was engaged"
        );
        db.wal_hold(WalHold::None);
        b_txn.join().unwrap().expect("client 1's commit is acked");
    });
    db.check_server_invariants();
    db.shutdown();
}

/// A disk that can be switched into a failing mode: reads of uncached
/// pages then surface I/O errors into the server's attach/install stages.
#[derive(Debug)]
struct FlakyDisk {
    inner: MemDisk,
    failing: AtomicBool,
}

impl DiskManager for FlakyDisk {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }
    fn read_page(&self, page: PageId) -> std::io::Result<Vec<u8>> {
        if self.failing.load(Ordering::Relaxed) {
            return Err(std::io::Error::other("injected disk failure"));
        }
        self.inner.read_page(page)
    }
    fn write_page(&self, page: PageId, data: &[u8]) -> std::io::Result<()> {
        self.inner.write_page(page, data)
    }
    fn sync(&self) -> std::io::Result<()> {
        self.inner.sync()
    }
}

/// A storage error while attaching a grant's data aborts the requesting
/// transaction with [`TxnError::Server`] instead of panicking the server;
/// once the disk heals, the same session works again.
#[test]
fn storage_failure_aborts_txn_with_server_error() {
    let disk = Arc::new(FlakyDisk {
        inner: MemDisk::new(512),
        failing: AtomicBool::new(false),
    });
    let db = Oodb::open_with_disk(
        EngineConfig {
            protocol: Protocol::Ps,
            server_pool_pages: 1, // a one-frame pool: every new page faults
            n_clients: 2,
            ..config(Protocol::Ps)
        },
        disk.clone(),
        true,
    )
    .unwrap();
    let s = db.session(0);

    // Warm: page 0 works and occupies the only pool frame.
    s.begin().unwrap();
    s.read(Oid::new(PageId(0), 0)).unwrap();
    s.commit().unwrap();

    // Fail: reading page 2 needs a disk fault, which now errors. The
    // server drops the grant and aborts the transaction server-side.
    disk.failing.store(true, Ordering::Relaxed);
    s.begin().unwrap();
    match s.read(Oid::new(PageId(2), 0)) {
        Err(TxnError::Server) => {}
        other => panic!("expected TxnError::Server, got {other:?}"),
    }
    assert_eq!(db.server_stats().server_aborts, 1);
    db.check_server_invariants();

    // Heal: the server survived; the session can run transactions again.
    disk.failing.store(false, Ordering::Relaxed);
    s.begin().unwrap();
    assert_eq!(s.read(Oid::new(PageId(2), 0)).unwrap(), vec![0u8; 16]);
    s.write(Oid::new(PageId(2), 0), encode(7)).unwrap();
    s.commit().unwrap();
    db.shutdown();
}

/// Crash recovery from a snapshot taken while eight writers race through
/// group commit. The snapshot order (acked map, then disk, then durable
/// log) models a real crash: the write-ahead rule guarantees the log
/// image covers every flushed page, and every acknowledged commit is in
/// a forced batch. Redo must restore, per object, a generation at least
/// as new as the last acknowledged commit and no newer than the last
/// submitted one.
#[test]
fn crash_mid_group_commit_recovers_forced_batches() {
    let config = EngineConfig {
        db_pages: 8,
        server_pool_pages: 4, // small pool: steals flush dirty pages early
        ..config(Protocol::PsAa)
    };
    let disk = Arc::new(MemDisk::new(config.page_size));
    let db = Arc::new(Oodb::open_with_disk(config.clone(), disk.clone(), true).unwrap());

    let acked: Vec<AtomicU64> = (0..CLIENTS).map(|_| AtomicU64::new(0)).collect();
    let acked = Arc::new(acked);
    let stop = Arc::new(AtomicBool::new(false));

    // Park the log writer so every client's first commit coalesces into
    // one forced cycle when the hold lifts — deterministic group-commit
    // evidence for the assertion below.
    db.wal_hold(WalHold::BeforeSeal);
    let (snap_acked, snap_disk, snap_log) = std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let db = db.clone();
            let acked = acked.clone();
            let stop = stop.clone();
            scope.spawn(move || {
                // Client `c` is the only writer of page `c`, slot 0, and
                // stamps strictly increasing generations into it.
                let s = db.session(c);
                let oid = Oid::new(PageId(u32::from(c)), 0);
                let mut generation = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    s.run_txn(100, |txn| txn.write(oid, encode(generation)))
                        .unwrap();
                    acked[c as usize].store(generation, Ordering::Release);
                    generation += 1;
                }
            });
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
        db.wal_hold(WalHold::None);
        // Let every writer commit a few times, then snapshot mid-flight.
        while acked.iter().any(|a| a.load(Ordering::Acquire) < 3) {
            std::thread::yield_now();
        }
        let snap_acked: Vec<u64> = acked.iter().map(|a| a.load(Ordering::Acquire)).collect();
        let snap_disk = Arc::new(MemDisk::new(config.page_size));
        for p in 0..config.db_pages {
            let image = disk.read_page(PageId(p)).unwrap();
            snap_disk.write_page(PageId(p), &image).unwrap();
        }
        let snap_log = db.durable_log();
        stop.store(true, Ordering::Relaxed);
        (snap_acked, snap_disk, snap_log)
    });
    let submitted: Vec<u64> = acked
        .iter()
        .map(|a| a.load(Ordering::Acquire) + 1)
        .collect();
    let stats = db.store_stats();
    assert!(
        stats.group_commit_batches >= 1,
        "writers must have group-committed before the crash ({stats:?})"
    );
    drop(db); // the original server "crashed": only the snapshots survive

    let (db2, report) = Oodb::recover(config, snap_disk, snap_log).unwrap();
    let total_acked: u64 = snap_acked.iter().sum();
    assert!(
        report.winners.len() as u64 >= total_acked,
        "every acknowledged commit ({total_acked}) must be a redo winner \
         ({} found)",
        report.winners.len()
    );
    let s = db2.session(0);
    s.begin().unwrap();
    for c in 0..CLIENTS as usize {
        let v = s.read(Oid::new(PageId(c as u32), 0)).unwrap();
        let generation = decode(&v);
        assert!(
            generation >= snap_acked[c] && generation <= submitted[c],
            "client {c}: recovered generation {generation} outside \
             [acked {}, submitted {}]",
            snap_acked[c],
            submitted[c]
        );
    }
    s.commit().unwrap();
    db2.check_server_invariants();
    db2.shutdown();
}
