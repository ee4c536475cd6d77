//! The seeded chaos run: drives the real engine over a faulty transport
//! and a faulty disk, crashes it mid-flight, recovers, and hands the
//! recorded history to the oracle.
//!
//! One run is entirely derived from a single `u64` seed: the protocol,
//! the shape of the database, the workload mix, the message-fault
//! schedule ([`ChaosConfig`]), the storage-fault plan ([`FaultPlan`]),
//! the crash point, and the torn log tail. Thread interleaving remains
//! nondeterministic, but every *injected* event is seed-derived, and the
//! oracle (see [`crate::oracle`]) is sound under any interleaving — so a
//! seed that fails once points at the schedule that can fail, and
//! rerunning it explores the same fault plan until the interleaving
//! recurs.
//!
//! A run has two phases. **Phase 1** applies the full fault plan, then
//! draws a *crash line*: the frozen flag is raised, the disk stops
//! accepting writes, and the log is captured with a torn tail — commits
//! acknowledged before the line must survive recovery; later ones are
//! ghosts. **Phase 2** recovers the crash image twice (the two passes
//! must agree — recovery is deterministic), restarts the server over it
//! under a bumped transaction epoch, sweeps every object to check
//! durability, and runs a short clean workload to prove the recovered
//! database still serializes.

use crate::history::{decode_version, encode_stamp, Outcome, Stamp, TxnRecord, Version, STAMP_LEN};
use crate::oracle::{check_history, check_recovery, OracleReport};
use fgs_core::{Oid, PageId, Protocol};
use fgs_oodb::{
    serve_tcp_recover, serve_tcp_with_disk, ChaosConfig, EngineConfig, Oodb, RemoteClient, Session,
    TransportKind, TxnError,
};
use fgs_pagestore::{FaultPlan, FaultyDisk, MemDisk, Store, WalHold};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which transport the run drives the engine over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Embedded engine over in-process channels (chaos on the ports).
    Channel,
    /// Out-of-process shape: a TCP server plus remote clients with
    /// chaos on both wire directions and reconnection on severance.
    Tcp,
}

/// What a clean run reports.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// The seed that generated everything.
    pub seed: u64,
    /// The transport the run drove.
    pub mode: Mode,
    /// The protocol under test.
    pub protocol: Protocol,
    /// Oracle report for the faulty pre-crash phase.
    pub phase1: OracleReport,
    /// Oracle report for the clean post-recovery phase.
    pub phase2: OracleReport,
    /// Storage faults actually injected.
    pub disk_faults: u64,
    /// Transactions the recovery pass redid / undid.
    pub recovered_winners: usize,
    /// Transactions the recovery pass rolled back.
    pub recovered_losers: usize,
}

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything phase 1 needs, derived from the seed.
struct Plan {
    config: EngineConfig,
    chaos: ChaosConfig,
    faults: FaultPlan,
    txns_per_client: usize,
    freeze_after: usize,
    torn_tail: usize,
    hot_objects: usize,
    workload_seed: u64,
}

fn derive_plan(seed: u64, mode: Mode, txns_per_client: usize) -> Plan {
    let mut s = seed ^ 0xD6E8_FEB8_6659_FD93;
    let mut r = move |m: u64| splitmix64(&mut s) % m;

    let protocol = Protocol::ALL[(r(5)) as usize];
    let n_clients = 2 + r(3) as u16; // 2..=4
    let db_pages = 4 + r(4) as u32; // 4..=7
    let config = EngineConfig {
        protocol,
        db_pages,
        objects_per_page: 4,
        object_size: STAMP_LEN,
        page_size: 256,
        n_clients,
        client_cache_pages: 2 + r(4) as usize,
        server_pool_pages: 8,
        paranoid: true,
        transport: match mode {
            Mode::Channel => TransportKind::Channel,
            Mode::Tcp => TransportKind::Tcp, // unused: phase 1 runs serve_tcp
        },
        txn_epoch: 0,
        chaos: None, // set per phase below
    };
    let chaos_seed = {
        let mut x = seed ^ 0xC4A5;
        splitmix64(&mut x)
    };
    let chaos = ChaosConfig {
        seed: chaos_seed,
        delay_per_10k: r(1200) as u32,
        max_delay_us: 1 + r(300),
        drop_per_10k: r(70) as u32,
        dup_per_10k: r(70) as u32,
        reorder_per_10k: r(70) as u32,
        reset_per_10k: r(70) as u32,
        max_events: 1 + r(8) as u32,
    };
    let faults = FaultPlan {
        seed: seed ^ 0xF417,
        write_fault_per_10k: r(40) as u32,
        read_fault_per_10k: r(20) as u32,
        max_faults: r(4),
        // Park the WAL pipeline at a seed-chosen stage boundary when the
        // crash line is drawn, so crash images routinely carry
        // appended-not-forced and sealed-not-written tails.
        wal_hold: match r(4) {
            0 => WalHold::None,
            1 => WalHold::BeforeSeal,
            2 => WalHold::BeforeWrite,
            _ => WalHold::BeforeForce,
        },
    };
    let total = txns_per_client * n_clients as usize;
    Plan {
        config,
        chaos,
        faults,
        txns_per_client,
        // Crash somewhere in the back half of the workload.
        freeze_after: total / 2 + (r(u64::from(total as u32 / 2).max(1)) as usize),
        torn_tail: r(80) as usize,
        hot_objects: 6,
        workload_seed: seed ^ 0x57A9,
    }
}

fn all_objects(config: &EngineConfig) -> Vec<Oid> {
    (0..config.db_pages)
        .flat_map(|p| (0..config.objects_per_page).map(move |s| Oid::new(PageId(p), s)))
        .collect()
}

/// Is the connection behind this error worth recycling? `Server` is
/// ambiguous (a server-side abort and a dead connection surface the
/// same), so the driver recycles on both — a spurious reconnect is
/// harmless, a missed one wedges the client.
fn conn_suspect(e: &TxnError) -> bool {
    matches!(e, TxnError::Server | TxnError::Closed | TxnError::Io(_))
}

/// Runs one transaction on `session`, recording what happened.
/// `Err` means the client read bytes that decode to nothing sane —
/// corruption, reported immediately.
fn attempt_txn(
    session: &Session,
    client: u16,
    counter: &mut u64,
    rng: &mut u64,
    objects: &[Oid],
    hot: usize,
    frozen: &AtomicBool,
) -> Result<(Option<TxnRecord>, bool), String> {
    if let Err(e) = session.begin() {
        // A poisoned or mid-teardown session; nothing was attempted.
        return Ok((None, !conn_suspect(&e)));
    }
    let n_ops = 1 + (splitmix64(rng) % 3) as usize;
    let mut ops = Vec::with_capacity(n_ops);
    let mut picked: Vec<Oid> = Vec::with_capacity(n_ops);
    while picked.len() < n_ops {
        // Mostly the hot set, to provoke conflicts and callbacks.
        let pool = if splitmix64(rng) % 4 < 3 {
            hot.min(objects.len())
        } else {
            objects.len()
        };
        let oid = objects[(splitmix64(rng) as usize) % pool];
        if !picked.contains(&oid) {
            picked.push(oid);
        }
    }
    for oid in picked {
        let observed = match session.read(oid) {
            Ok(bytes) => decode_version(&bytes)
                .map_err(|e| format!("client {client} read corrupt {oid:?}: {e}"))?,
            Err(e) => {
                if !conn_suspect(&e) {
                    let _ = session.abort();
                }
                return Ok((
                    Some(TxnRecord {
                        client,
                        ops,
                        outcome: Outcome::Aborted,
                        pre_crash: false,
                    }),
                    !conn_suspect(&e),
                ));
            }
        };
        // Read-modify-write: two thirds of the touched objects are
        // written back with a fresh stamp.
        let wrote = if splitmix64(rng) % 3 < 2 {
            *counter += 1;
            let stamp = Stamp {
                client,
                counter: *counter,
            };
            match session.write(oid, encode_stamp(stamp)) {
                Ok(()) => Some(stamp),
                Err(e) => {
                    if !conn_suspect(&e) {
                        let _ = session.abort();
                    }
                    ops.push(crate::history::OpRecord {
                        oid,
                        observed,
                        wrote: None,
                    });
                    return Ok((
                        Some(TxnRecord {
                            client,
                            ops,
                            outcome: Outcome::Aborted,
                            pre_crash: false,
                        }),
                        !conn_suspect(&e),
                    ));
                }
            }
        } else {
            None
        };
        ops.push(crate::history::OpRecord {
            oid,
            observed,
            wrote,
        });
    }
    match session.commit() {
        Ok(()) => {
            // The ack happened before the flag read: if the crash line
            // is not yet drawn, the commit's log force is provably in
            // the captured image.
            let pre_crash = !frozen.load(Ordering::SeqCst);
            Ok((
                Some(TxnRecord {
                    client,
                    ops,
                    outcome: Outcome::Committed,
                    pre_crash,
                }),
                true,
            ))
        }
        Err(e) => {
            let outcome = if conn_suspect(&e) {
                // The commit left this client; whether it landed is
                // unknowable here. The oracle resolves by observation.
                Outcome::InDoubt
            } else {
                Outcome::Aborted
            };
            if !conn_suspect(&e) {
                let _ = session.abort();
            }
            Ok((
                Some(TxnRecord {
                    client,
                    ops,
                    outcome,
                    pre_crash: false,
                }),
                !conn_suspect(&e),
            ))
        }
    }
}

/// Phase-1 worker over TCP: reconnects (with a fresh chaos stream) every
/// time the schedule severs the connection.
fn tcp_worker(
    addr: std::net::SocketAddr,
    client: u16,
    chaos: ChaosConfig,
    budget: usize,
    objects: &[Oid],
    hot: usize,
    frozen: &AtomicBool,
    done: &AtomicUsize,
    seed: u64,
) -> Result<Vec<TxnRecord>, String> {
    let mut recs = Vec::new();
    let mut counter = 0u64;
    let mut rng = seed ^ (0xC11E_u64 << 16) ^ u64::from(client);
    let mut attempt = 0u64;
    let mut conn: Option<RemoteClient> = None;
    for _ in 0..budget {
        if frozen.load(Ordering::SeqCst) {
            break;
        }
        if conn.is_none() {
            conn = reconnect(addr, client, chaos, &mut attempt, frozen);
            if conn.is_none() {
                break; // frozen or the server stopped taking us back
            }
        }
        let session = conn.as_ref().expect("connected").session();
        let (rec, alive) = attempt_txn(
            &session,
            client,
            &mut counter,
            &mut rng,
            objects,
            hot,
            frozen,
        )?;
        if let Some(rec) = rec {
            recs.push(rec);
            done.fetch_add(1, Ordering::SeqCst);
        }
        if !alive {
            conn = None; // drop reconnects cleanly; the server purges us
        }
    }
    Ok(recs)
}

/// Reconnects with bounded patience; `None` once the crash line is drawn
/// or the server refuses long enough.
fn reconnect(
    addr: std::net::SocketAddr,
    client: u16,
    chaos: ChaosConfig,
    attempt: &mut u64,
    frozen: &AtomicBool,
) -> Option<RemoteClient> {
    for _ in 0..800 {
        if frozen.load(Ordering::SeqCst) {
            return None;
        }
        *attempt += 1;
        // A fresh stream per connection: the schedule is per-connection
        // deterministic, independent of how many times we died before.
        let stream = (u64::from(client) << 32) | *attempt;
        match RemoteClient::connect_chaos(addr, Some(client), chaos, stream) {
            Ok(c) => return Some(c),
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    None
}

/// Phase-1 worker over the embedded engine: the session cannot
/// reconnect, so a severed port ends the worker early.
fn channel_worker(
    session: &Session,
    client: u16,
    budget: usize,
    objects: &[Oid],
    hot: usize,
    frozen: &AtomicBool,
    done: &AtomicUsize,
    seed: u64,
) -> Result<Vec<TxnRecord>, String> {
    let mut recs = Vec::new();
    let mut counter = 0u64;
    let mut rng = seed ^ (0xC11E_u64 << 16) ^ u64::from(client);
    for _ in 0..budget {
        if frozen.load(Ordering::SeqCst) {
            break;
        }
        let (rec, alive) = attempt_txn(
            session,
            client,
            &mut counter,
            &mut rng,
            objects,
            hot,
            frozen,
        )?;
        if let Some(rec) = rec {
            recs.push(rec);
            done.fetch_add(1, Ordering::SeqCst);
        }
        if !alive {
            break; // the embedded runtime is poisoned for good
        }
    }
    Ok(recs)
}

/// Waits for the workload to reach the crash point (or wind down), then
/// draws the crash line. Returns once the flag is up and the disk is
/// frozen.
//
// The wall-clock read below is a 60s hang backstop only: it bounds how
// long a wedged run can stall CI and never feeds the seeded schedule, so
// results stay bit-identical for a given seed.
// fgs-lint: allow(determinism)
fn await_crash_point(
    done: &AtomicUsize,
    finished_workers: &AtomicUsize,
    n_workers: usize,
    freeze_after: usize,
    frozen: &AtomicBool,
    disk: &FaultyDisk,
) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while done.load(Ordering::SeqCst) < freeze_after
        && finished_workers.load(Ordering::SeqCst) < n_workers
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(1));
    }
    // Order matters: the flag first (commits acked from here on are
    // ghosts), then the disk. The log capture happens after this
    // returns, so every pre-flag ack's force is inside the capture.
    frozen.store(true, Ordering::SeqCst);
    disk.freeze();
}

/// Reads every object through a recovered bare [`Store`] — the second,
/// independent recovery pass for the convergence check.
fn bare_recovery_sweep(
    disk: Arc<MemDisk>,
    crash_log: Vec<u8>,
    config: &EngineConfig,
    objects: &[Oid],
) -> Result<(HashMap<Oid, Version>, usize, usize), String> {
    let (store, report) =
        Store::recover(disk, crash_log, config.server_pool_pages, config.db_pages)
            .map_err(|e| format!("bare recovery failed: {e}"))?;
    let mut state = HashMap::new();
    for &oid in objects {
        let bytes = store
            .read_object(oid)
            .map_err(|e| format!("bare read {oid:?}: {e}"))?
            .ok_or_else(|| format!("bare recovery lost {oid:?}"))?;
        state.insert(
            oid,
            decode_version(&bytes).map_err(|e| format!("bare {oid:?}: {e}"))?,
        );
    }
    Ok((state, report.redone, report.undone))
}

/// Sweeps every object through a live session, one page per transaction.
fn session_sweep(
    session: &Session,
    objects: &[Oid],
    per_txn: usize,
) -> Result<HashMap<Oid, Version>, String> {
    let mut state = HashMap::new();
    for chunk in objects.chunks(per_txn.max(1)) {
        let got: Vec<(Oid, Vec<u8>)> = session
            .run_txn(16, |t| {
                chunk
                    .iter()
                    .map(|&oid| t.read(oid).map(|b| (oid, b)))
                    .collect()
            })
            .map_err(|e| format!("sweep failed: {e}"))?;
        for (oid, bytes) in got {
            state.insert(
                oid,
                decode_version(&bytes).map_err(|e| format!("sweep {oid:?}: {e}"))?,
            );
        }
    }
    Ok(state)
}

/// The clean phase-2 workload: a short burst of RMW transactions over
/// the recovered database. Counters restart far above phase 1's so no
/// stamp can ever collide across the crash.
fn phase2_workload(
    sessions: &[Session],
    objects: &[Oid],
    hot: usize,
    budget: usize,
    seed: u64,
) -> Result<Vec<TxnRecord>, String> {
    let frozen = AtomicBool::new(false); // no crash line in phase 2
    let done = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (i, session) in sessions.iter().enumerate() {
            let frozen = &frozen;
            let done = &done;
            handles.push(scope.spawn(move || {
                let client = i as u16;
                let mut counter = 1u64 << 32;
                let mut rng = seed ^ 0xF2F2 ^ (u64::from(client) << 8);
                let mut recs = Vec::new();
                for _ in 0..budget {
                    let (rec, alive) = attempt_txn(
                        session,
                        client,
                        &mut counter,
                        &mut rng,
                        objects,
                        hot,
                        frozen,
                    )?;
                    if let Some(rec) = rec {
                        recs.push(rec);
                        done.fetch_add(1, Ordering::SeqCst);
                    }
                    if !alive {
                        return Err(format!(
                            "client {client} lost its connection in the clean phase"
                        ));
                    }
                }
                Ok(recs)
            }));
        }
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().expect("phase-2 worker")?);
        }
        Ok(all)
    })
}

/// Runs one full seeded chaos run; `Err` carries the violation (always
/// reproducible from the seed and mode alone).
pub fn run_seed(seed: u64, mode: Mode) -> Result<RunSummary, String> {
    let txns_per_client = if cfg!(debug_assertions) { 12 } else { 30 };
    run_seed_with(seed, mode, txns_per_client)
}

/// [`run_seed`] with an explicit per-client transaction budget.
pub fn run_seed_with(seed: u64, mode: Mode, txns_per_client: usize) -> Result<RunSummary, String> {
    run_seed_hold(seed, mode, txns_per_client, None)
}

/// [`run_seed_with`] with the crash line's WAL freeze point forced to
/// `hold` instead of seed-derived — the hold-sweep tests pin each stage
/// boundary in turn so every crash point is exercised every run.
pub fn run_seed_hold(
    seed: u64,
    mode: Mode,
    txns_per_client: usize,
    hold: Option<WalHold>,
) -> Result<RunSummary, String> {
    let mut plan = derive_plan(seed, mode, txns_per_client);
    if let Some(h) = hold {
        plan.faults.wal_hold = h;
    }
    let objects = all_objects(&plan.config);
    let fail = |phase: &str, e: String| format!("seed {seed} ({mode:?}, {phase}): {e}");

    // ------------------------------------------------------------------
    // Phase 1: the faulty run, up to the crash line.
    // ------------------------------------------------------------------
    let disk = FaultyDisk::new(Arc::new(MemDisk::new(plan.config.page_size)));
    let frozen = AtomicBool::new(false);
    let done = AtomicUsize::new(0);
    let finished = AtomicUsize::new(0);
    let n_workers = plan.config.n_clients as usize;

    let mut phase1: Vec<TxnRecord> = Vec::new();
    let crash_log: Vec<u8>;

    match mode {
        Mode::Tcp => {
            let mut config = plan.config.clone();
            config.chaos = Some(plan.chaos);
            let server = serve_tcp_with_disk(config, "127.0.0.1:0", disk.clone(), true)
                .map_err(|e| fail("serve", e.to_string()))?;
            disk.arm(plan.faults); // armed only after initial load
            let addr = server.local_addr();
            let (log, results) = std::thread::scope(|scope| {
                let mut handles = Vec::new();
                for c in 0..plan.config.n_clients {
                    let objects = &objects;
                    let frozen = &frozen;
                    let done = &done;
                    let finished = &finished;
                    let chaos = plan.chaos;
                    let wseed = plan.workload_seed;
                    let budget = plan.txns_per_client;
                    let hot = plan.hot_objects;
                    handles.push(scope.spawn(move || {
                        let r =
                            tcp_worker(addr, c, chaos, budget, objects, hot, frozen, done, wseed);
                        finished.fetch_add(1, Ordering::SeqCst);
                        r
                    }));
                }
                await_crash_point(
                    &done,
                    &finished,
                    n_workers,
                    plan.freeze_after,
                    &frozen,
                    &disk,
                );
                // The log capture: strictly after the crash line, with
                // the WAL pipeline parked at the plan's stage boundary.
                // Releasing the hold afterwards forces the parked tail on
                // this thread, so in-flight (ghost) commits unwedge before
                // the join.
                server.wal_hold(plan.faults.wal_hold);
                let log = server.crash_log(plan.torn_tail);
                server.wal_hold(WalHold::None);
                let results = handles
                    .into_iter()
                    .map(|h| h.join().expect("phase-1 worker"))
                    .collect::<Vec<_>>();
                (log, results)
            });
            crash_log = log;
            drop(server); // its checkpoint lands on the frozen disk: eaten
            for r in results {
                phase1.extend(r.map_err(|e| fail("phase1", e))?);
            }
        }
        Mode::Channel => {
            let mut config = plan.config.clone();
            config.chaos = Some(plan.chaos);
            config.transport = TransportKind::Channel;
            let db = Oodb::open_with_disk(config, disk.clone(), true)
                .map_err(|e| fail("open", e.to_string()))?;
            disk.arm(plan.faults);
            let (log, results) = std::thread::scope(|scope| {
                let mut handles = Vec::new();
                for c in 0..plan.config.n_clients {
                    let session = db.session(c);
                    let objects = &objects;
                    let frozen = &frozen;
                    let done = &done;
                    let finished = &finished;
                    let wseed = plan.workload_seed;
                    let budget = plan.txns_per_client;
                    let hot = plan.hot_objects;
                    handles.push(scope.spawn(move || {
                        let r =
                            channel_worker(&session, c, budget, objects, hot, frozen, done, wseed);
                        finished.fetch_add(1, Ordering::SeqCst);
                        r
                    }));
                }
                await_crash_point(
                    &done,
                    &finished,
                    n_workers,
                    plan.freeze_after,
                    &frozen,
                    &disk,
                );
                // As in the TCP arm: capture under the hold, then
                // release it so parked ghost acks unwedge the workers.
                db.wal_hold(plan.faults.wal_hold);
                let log = db.crash_log(plan.torn_tail);
                db.wal_hold(WalHold::None);
                let results = handles
                    .into_iter()
                    .map(|h| h.join().expect("phase-1 worker"))
                    .collect::<Vec<_>>();
                (log, results)
            });
            crash_log = log;
            drop(db);
            for r in results {
                phase1.extend(r.map_err(|e| fail("phase1", e))?);
            }
        }
    }

    // The faulty history must serialize on its own.
    let empty_initial = HashMap::new();
    let phase1_report =
        check_history(&phase1, &empty_initial).map_err(|e| fail("oracle/phase1", e))?;

    // ------------------------------------------------------------------
    // Phase 2: recover twice, check durability, run clean.
    // ------------------------------------------------------------------
    let snap_a = disk.snapshot();
    let snap_b = disk.snapshot();
    let disk_faults = disk.injected_faults();

    // Independent pass for the convergence check.
    let (bare_state, redone, undone) =
        bare_recovery_sweep(snap_b, crash_log.clone(), &plan.config, &objects)
            .map_err(|e| fail("recovery", e))?;

    let mut config2 = plan.config.clone();
    config2.chaos = None;
    config2.txn_epoch = 1; // a new incarnation over the same log
    let phase2_budget = (plan.txns_per_client / 3).max(4);

    let (recovered, phase2) = match mode {
        Mode::Tcp => {
            let (server, _report) =
                serve_tcp_recover(config2.clone(), "127.0.0.1:0", snap_a, crash_log)
                    .map_err(|e| fail("serve_tcp_recover", e.to_string()))?;
            let addr = server.local_addr();
            let clients: Vec<RemoteClient> = (0..config2.n_clients)
                .map(|c| {
                    RemoteClient::connect_retry(addr, Some(c), 50, Duration::from_millis(5))
                        .map_err(|e| fail("phase2 connect", e.to_string()))
                })
                .collect::<Result<_, _>>()?;
            let sessions: Vec<Session> = clients.iter().map(|c| c.session()).collect();
            let recovered = session_sweep(
                &sessions[0],
                &objects,
                plan.config.objects_per_page as usize,
            )
            .map_err(|e| fail("sweep", e))?;
            let phase2 = phase2_workload(
                &sessions,
                &objects,
                plan.hot_objects,
                phase2_budget,
                plan.workload_seed ^ 0xBEEF,
            )
            .map_err(|e| fail("phase2", e))?;
            server.check_server_invariants();
            for c in clients {
                c.shutdown();
            }
            server.shutdown();
            (recovered, phase2)
        }
        Mode::Channel => {
            config2.transport = TransportKind::Channel;
            let (db, _report) = Oodb::recover(config2.clone(), snap_a, crash_log)
                .map_err(|e| fail("recover", e.to_string()))?;
            let sessions: Vec<Session> = (0..config2.n_clients).map(|c| db.session(c)).collect();
            let recovered = session_sweep(
                &sessions[0],
                &objects,
                plan.config.objects_per_page as usize,
            )
            .map_err(|e| fail("sweep", e))?;
            let phase2 = phase2_workload(
                &sessions,
                &objects,
                plan.hot_objects,
                phase2_budget,
                plan.workload_seed ^ 0xBEEF,
            )
            .map_err(|e| fail("phase2", e))?;
            db.check_server_invariants();
            db.shutdown();
            (recovered, phase2)
        }
    };

    // Recovery is deterministic: both passes must agree exactly.
    if recovered != bare_state {
        let diff: Vec<_> = objects
            .iter()
            .filter(|o| recovered.get(o) != bare_state.get(o))
            .collect();
        return Err(fail(
            "convergence",
            format!("two recovery passes disagree on {diff:?}"),
        ));
    }
    // Durability: every pre-crash-acknowledged commit survived.
    check_recovery(&phase1, &empty_initial, &recovered).map_err(|e| fail("oracle/recovery", e))?;
    // The recovered database still serializes.
    let phase2_report = check_history(&phase2, &recovered).map_err(|e| fail("oracle/phase2", e))?;

    Ok(RunSummary {
        seed,
        mode,
        protocol: plan.config.protocol,
        phase1: phase1_report,
        phase2: phase2_report,
        disk_faults,
        recovered_winners: redone,
        recovered_losers: undone,
    })
}
