//! One benchmark run: set the engine up, drive it closed-loop for the
//! measured time, verify what it stored, and hand what was seen to the
//! metric builders. Everything goes through the engine's public API.

use crate::layers;
use crate::probes;
use crate::proc;
use crate::report::{Metric, RunRecord, END_TO_END, OUT_DIR};
use crate::stats::{self, ratio};
use crate::trace::{Tracer, NO_PARENT};
use crate::workloads::{TxnSource, Workload};
use fgs_core::{ClientStats, Oid, ServerStats};
use fgs_oodb::{EngineConfig, Oodb, Session, StoreStats, TransportKind, TxnError};
use fgs_pagestore::MemDisk;
use fgs_workload::AccessRef;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Transactions each client runs before timing starts, so caches are
/// filled and lazy set-up is done.
const WARMUP_TXNS: usize = 200;
/// Engines built per run; `setup_s` is the median of their set-up
/// times, and the last one built is the one measured.
const SETUPS: usize = 5;
/// Deadlock-victim re-runs allowed before a transaction counts as
/// failed.
const RETRY_BUDGET: u32 = 100;
/// Root spans per thread the trace file keeps: the first 500 traced
/// transactions of each client (a `gen` and a `txn` root apiece, with
/// the calls under them). Metrics are computed from every span.
const TRACE_FILE_ROOTS: usize = 1_000;
/// Pages a read-back transaction touches: within the smallest client
/// cache any workload configures, so verification never thrashes it.
const READ_BACK_PAGES: usize = 8;

pub struct RunOpts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Measurement windows; every window yields one value of each
    /// end-to-end metric and the reported value is their median.
    pub windows: usize,
    /// Isolated layer probes (traced pass only; `--smoke` skips them).
    pub probes: bool,
}

/// Why a transaction did not commit.
enum Fail {
    Engine(TxnError),
    /// A counter read back lower than (or, for a sole writer, different
    /// from) the increments this client has seen commit.
    WrongValue {
        oid: Oid,
        seen: u64,
        expected: u64,
    },
}

impl fmt::Display for Fail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fail::Engine(e) => write!(f, "{e}"),
            Fail::WrongValue {
                oid,
                seen,
                expected,
            } => write!(f, "{oid:?} read {seen}, {expected} increments committed"),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct TxnRecord {
    end_ns: u64,
    txn_ns: u64,
    commit_ns: u64,
    gen_ns: u64,
    retries: u32,
    ok: bool,
}

struct Client {
    session: Session,
    source: TxnSource,
    /// Increments per object this client has seen commit.
    committed: HashMap<Oid, u64>,
    tracer: Tracer,
    records: Vec<TxnRecord>,
    /// High bits carry the client id so span `txn` ids are unique.
    next_txn: u64,
    /// The only writer of everything it reads: counters must match its
    /// own tally exactly, not just bound it from below.
    sole_writer: bool,
    problems: Vec<String>,
}

fn counter(bytes: &[u8]) -> u64 {
    let mut le = [0u8; 8];
    let n = bytes.len().min(8);
    le[..n].copy_from_slice(&bytes[..n]);
    u64::from_le_bytes(le)
}

/// Times a session call as a child span when the transaction is traced.
fn call<T>(
    tracer: &mut Tracer,
    span: Option<(u32, u64)>,
    name: &'static str,
    f: impl FnOnce() -> Result<T, TxnError>,
) -> Result<T, Fail> {
    match span {
        Some((parent, txn)) => tracer.time(name, parent, txn, f),
        None => f(),
    }
    .map_err(Fail::Engine)
}

impl Client {
    /// One attempt at `ops`; returns the `commit()` call's duration.
    fn attempt(&mut self, ops: &[AccessRef], span: Option<(u32, u64)>) -> Result<u64, Fail> {
        let Client {
            session,
            tracer,
            committed,
            sole_writer,
            ..
        } = self;
        call(tracer, span, "begin", || session.begin())?;
        for op in ops {
            let mut bytes = call(tracer, span, "read", || session.read(op.oid))?;
            let seen = counter(&bytes);
            let expected = committed.get(&op.oid).copied().unwrap_or(0);
            if seen < expected || (*sole_writer && seen != expected) {
                return Err(Fail::WrongValue {
                    oid: op.oid,
                    seen,
                    expected,
                });
            }
            if op.write {
                bytes[..8].copy_from_slice(&(seen + 1).to_le_bytes());
                call(tracer, span, "write", || session.write(op.oid, bytes))?;
            }
        }
        let t0 = tracer.now_ns();
        call(tracer, span, "commit", || session.commit())?;
        Ok(tracer.now_ns() - t0)
    }

    /// Generates and runs one transaction to commit (re-running it when
    /// it is chosen as a deadlock victim) or to failure.
    fn run_txn(&mut self, traced: bool) -> TxnRecord {
        let gen_start = self.tracer.now_ns();
        let ops = self.source.next_txn();
        let start = self.tracer.now_ns();
        self.next_txn += 1;
        let id = self.next_txn;
        let span = traced.then(|| {
            self.tracer.push("gen", NO_PARENT, id, gen_start, start);
            (self.tracer.open("txn", NO_PARENT, id), id)
        });
        let mut retries = 0;
        let outcome = loop {
            match self.attempt(&ops, span) {
                Err(Fail::Engine(TxnError::Deadlock)) if retries < RETRY_BUDGET => retries += 1,
                other => break other,
            }
        };
        if let Some((root, _)) = span {
            self.tracer.close(root);
        }
        let end = self.tracer.now_ns();
        match &outcome {
            Ok(_) => {
                for op in ops.iter().filter(|op| op.write) {
                    *self.committed.entry(op.oid).or_insert(0) += 1;
                }
            }
            Err(fail) => {
                // A deadlock victim is already cleaned up server-side;
                // anything else may have left the transaction open.
                if !matches!(fail, Fail::Engine(TxnError::Deadlock)) {
                    let _ = self.session.abort();
                }
                if self.problems.len() < 5 {
                    self.problems.push(format!("transaction failed: {fail}"));
                }
            }
        }
        TxnRecord {
            end_ns: end,
            txn_ns: end - start,
            commit_ns: *outcome.as_ref().unwrap_or(&0),
            gen_ns: start - gen_start,
            retries,
            ok: outcome.is_ok(),
        }
    }
}

/// A built, warmed engine and the clients driving it.
struct Engine {
    config: EngineConfig,
    db: Oodb,
    disk: Arc<MemDisk>,
    clients: Vec<Client>,
}

/// Open + initialise + warm up. Returns the engine, how long that took,
/// and how many warm-up transactions failed.
fn set_up(workload: Workload, seed: u64, n_clients: u16, epoch: Instant) -> (Engine, f64, u64) {
    let t0 = Instant::now();
    let config = workload.engine_config(n_clients);
    let disk = Arc::new(MemDisk::new(config.page_size));
    let db = Oodb::open_with_disk(config.clone(), disk.clone(), true).expect("open engine");
    let mut clients: Vec<Client> = (0..n_clients)
        .map(|c| Client {
            session: db.session(c),
            source: TxnSource::new(workload, seed, c, n_clients),
            committed: HashMap::new(),
            tracer: Tracer::new(epoch),
            records: Vec::new(),
            next_txn: u64::from(c) << 48,
            sole_writer: n_clients == 1,
            problems: Vec::new(),
        })
        .collect();
    let failed = std::thread::scope(|scope| {
        let warm = |c: &mut Client| (0..WARMUP_TXNS).filter(|_| !c.run_txn(false).ok).count();
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| scope.spawn(move || warm(c)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up thread") as u64)
            .sum()
    });
    let engine = Engine {
        config,
        db,
        disk,
        clients,
    };
    (engine, t0.elapsed().as_secs_f64(), failed)
}

/// Counters sampled at a window boundary.
pub struct Snap {
    pub store: StoreStats,
    pub server: ServerStats,
    pub cpu_ms: f64,
    pub ctx_switches: u64,
}

impl Snap {
    fn take(db: &Oodb) -> Snap {
        Snap {
            store: db.store_stats(),
            server: db.server_stats(),
            cpu_ms: proc::cpu_ms(),
            ctx_switches: proc::voluntary_ctx_switches(),
        }
    }

    /// Protocol messages through the server, both directions — the
    /// paper's hardware-independent cost.
    fn msgs(&self) -> u64 {
        self.store.dispatch_batch_msgs + self.store.send_batch_msgs
    }
}

/// What one window saw: the unit every end-to-end metric is computed
/// on, so a run yields `windows` values of each and reports the median.
pub struct Window {
    /// From the last commit before the window to the last one in it.
    secs: f64,
    pub commits: u64,
    pub retries: u64,
    /// Sorted latencies of the transactions that committed in the window.
    pub txn_ms: Vec<f64>,
    pub commit_ms: Vec<f64>,
    msgs: u64,
}

impl Window {
    pub fn txn_per_s(&self) -> f64 {
        ratio(self.commits as f64, self.secs)
    }

    fn value(&self, name: &str) -> f64 {
        let commits = self.commits as f64;
        match name {
            "txn_per_s" => self.txn_per_s(),
            "txn_p50_ms" => stats::percentile(&self.txn_ms, 0.50),
            "commit_p50_ms" => stats::percentile(&self.commit_ms, 0.50),
            "attempts_per_commit" => ratio(commits + self.retries as f64, commits),
            "msgs_per_commit" => ratio(self.msgs as f64, commits),
            other => unreachable!("no window value for {other}"),
        }
    }
}

/// Everything the measured phase and the checks after it observed; the
/// per-layer metrics are computed from this.
pub struct Measured {
    pub windows: Vec<Window>,
    pub elapsed_ns: u64,
    /// Counters at the first and last window boundary.
    pub first: Snap,
    pub last: Snap,
    /// Client-side counters over the measured phase, summed over clients.
    pub client_delta: ClientStats,
    /// Durable log bytes written during the measured phase, and in all.
    pub log_bytes: u64,
    pub log_total_bytes: u64,
    pub attempted: u64,
    pub failed: u64,
    pub gen_ns: u64,
    pub threads: u64,
    pub peak_rss_mb: f64,
    pub replay_s: f64,
}

impl Measured {
    pub fn commits(&self) -> u64 {
        self.windows.iter().map(|w| w.commits).sum()
    }
}

pub fn metric(name: &str, unit: &str, value: f64, samples: u64, spread: f64) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
        samples,
        spread,
    }
}

/// Reads every written object back and counts those whose counter is
/// not the number of increments the clients saw commit.
fn read_back(session: &Session, expected: &BTreeMap<Oid, u64>) -> Result<u64, TxnError> {
    let oids: Vec<(&Oid, &u64)> = expected.iter().collect();
    let mut wrong = 0;
    let mut rest = oids.as_slice();
    while !rest.is_empty() {
        // BTreeMap order groups objects by page; cut after a few pages.
        let mut pages = 0;
        let mut last = None;
        let cut = rest
            .iter()
            .position(|(oid, _)| {
                if last != Some(oid.page) {
                    pages += 1;
                    last = Some(oid.page);
                }
                pages > READ_BACK_PAGES
            })
            .unwrap_or(rest.len());
        let (chunk, tail) = rest.split_at(cut);
        wrong += session.run_txn(RETRY_BUDGET as usize, |s| {
            let mut wrong = 0;
            for (oid, want) in chunk {
                wrong += u64::from(counter(&s.read(**oid)?) != **want);
            }
            Ok(wrong)
        })?;
        rest = tail;
    }
    Ok(wrong)
}

fn client_stats(clients: &[Client]) -> ClientStats {
    let mut sum = ClientStats::default();
    for c in clients {
        let s = c.session.stats().expect("client stats");
        sum.hits += s.hits;
        sum.misses += s.misses;
        sum.callbacks_received += s.callbacks_received;
        sum.busy_replies += s.busy_replies;
        sum.evictions += s.evictions;
    }
    sum
}

pub fn run(opts: &RunOpts) -> RunRecord {
    let workload = opts.workload;
    let affinity_cpus = proc::allowed_cpus().len().max(1);
    let n_clients = workload.clients(affinity_cpus);
    let epoch = Instant::now();
    let mut problems = Vec::new();

    // Set-up, several times over: the median is the metric, and every
    // engine but the last is torn down again.
    let mut setup_secs = Vec::new();
    let mut warmup_failed = 0;
    let mut engine = None;
    for _ in 0..SETUPS {
        if let Some(Engine { db, .. }) = engine.take() {
            db.shutdown();
        }
        let (built, secs, failed) = set_up(workload, opts.seed, n_clients, epoch);
        setup_secs.push(secs);
        warmup_failed += failed;
        engine = Some(built);
    }
    let Engine {
        config,
        db,
        disk,
        mut clients,
    } = engine.expect("at least one set-up");
    if warmup_failed > 0 {
        problems.push(format!("{warmup_failed} warm-up transactions failed"));
    }

    // Measured phase. Clients run until the deadline; this thread wakes
    // only at window boundaries, to sample the engine's counters.
    let windows = opts.windows.max(1);
    let window_ns = (opts.seconds * 1e9 / windows as f64) as u64;
    let clients_before = client_stats(&clients);
    let log_before = db.durable_log().len();
    let threads = proc::threads() + u64::from(n_clients);
    let start_ns = clients[0].tracer.now_ns();
    let end_ns = start_ns + window_ns * windows as u64;
    let mut snaps = vec![Snap::take(&db)];
    std::thread::scope(|scope| {
        for c in clients.iter_mut() {
            let traced_run = opts.traced;
            scope.spawn(move || loop {
                let now = c.tracer.now_ns();
                if now >= end_ns {
                    break;
                }
                // A traced run alternates untraced and traced windows,
                // so the two rates it compares share the same minutes
                // (a lone `--smoke` window is traced whole).
                let odd = ((now - start_ns) / window_ns) % 2 == 1;
                let traced = traced_run && (odd || windows == 1);
                let rec = c.run_txn(traced);
                c.records.push(rec);
            });
        }
        for k in 1..=windows as u64 {
            let due = epoch + Duration::from_nanos(start_ns + k * window_ns);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            snaps.push(Snap::take(&db));
        }
    });
    let clients_after = client_stats(&clients);
    // Every commit has been acknowledged: this is the log a crash right
    // now would leave.
    let durable_log = db.durable_log();
    let log_total_bytes = durable_log.len() as u64;

    // Window accounting: a transaction belongs to the window it ended
    // in; the few still running at the deadline belong to none. A
    // window's rate is taken over the interval from the last commit
    // before it to its own last commit, so it is not a whole number of
    // commits over a fixed time.
    let mut last_commit_ns = start_ns;
    let all: Vec<TxnRecord> = clients
        .iter()
        .flat_map(|c| c.records.iter().copied())
        .filter(|r| r.end_ns < end_ns)
        .collect();
    let per_window: Vec<Window> = (0..windows)
        .map(|k| {
            let lo = start_ns + k as u64 * window_ns;
            let mut w = Window {
                secs: 0.0,
                commits: 0,
                retries: 0,
                txn_ms: Vec::new(),
                commit_ms: Vec::new(),
                msgs: snaps[k + 1].msgs() - snaps[k].msgs(),
            };
            let from = last_commit_ns;
            for r in all
                .iter()
                .filter(|r| r.ok && (lo..lo + window_ns).contains(&r.end_ns))
            {
                w.commits += 1;
                w.retries += u64::from(r.retries);
                w.txn_ms.push(r.txn_ns as f64 / 1e6);
                w.commit_ms.push(r.commit_ns as f64 / 1e6);
                last_commit_ns = last_commit_ns.max(r.end_ns);
            }
            w.secs = (last_commit_ns - from) as f64 / 1e9;
            stats::sort(&mut w.txn_ms);
            stats::sort(&mut w.commit_ms);
            w
        })
        .collect();

    // Output checks: counters, engine invariants, then crash recovery.
    let mut expected: BTreeMap<Oid, u64> = BTreeMap::new();
    for c in &mut clients {
        for (oid, n) in &c.committed {
            *expected.entry(*oid).or_insert(0) += n;
        }
        problems.append(&mut c.problems);
    }
    let hop_us = (opts.traced && opts.probes).then(|| probes::session_hop_us(&clients[0].session));
    match read_back(&clients[0].session, &expected) {
        Ok(0) => {}
        Ok(wrong) => problems.push(format!(
            "{wrong} of {} counters differ from the committed increments",
            expected.len()
        )),
        Err(e) => problems.push(format!("read-back failed: {e}")),
    }
    if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        db.check_server_invariants()
    }))
    .is_err()
    {
        problems.push("server invariants violated".into());
    }
    let peak_rss_mb = proc::peak_rss_mb();
    let tracers: Vec<Tracer> = clients.into_iter().map(|c| c.tracer).collect();
    db.shutdown();
    let replay_start = Instant::now();
    let recovered = Oodb::recover(
        EngineConfig {
            txn_epoch: 1,
            ..config.clone()
        },
        disk,
        durable_log,
    );
    let replay_s = replay_start.elapsed().as_secs_f64();
    match recovered {
        Ok((db, _report)) => {
            match read_back(&db.session(0), &expected) {
                Ok(0) => {}
                Ok(wrong) => problems.push(format!(
                    "{wrong} acknowledged counters unreadable after recovery"
                )),
                Err(e) => problems.push(format!("read-back after recovery failed: {e}")),
            }
            db.shutdown();
        }
        Err(e) => problems.push(format!("recovery failed: {e}")),
    }
    // A failed check is a failed run even if every transaction passed.
    let correct = problems.is_empty();
    let attempted = (all.len() as u64).max(1);
    let failed = (all.iter().filter(|r| !r.ok).count() as u64).max(u64::from(!correct));

    let last = snaps.pop().expect("end snapshot");
    let first = snaps.swap_remove(0);
    let measured = Measured {
        windows: per_window,
        elapsed_ns: window_ns * windows as u64,
        first,
        last,
        client_delta: ClientStats {
            hits: clients_after.hits - clients_before.hits,
            misses: clients_after.misses - clients_before.misses,
            callbacks_received: clients_after.callbacks_received
                - clients_before.callbacks_received,
            busy_replies: clients_after.busy_replies - clients_before.busy_replies,
            evictions: clients_after.evictions - clients_before.evictions,
            ..ClientStats::default()
        },
        log_bytes: log_total_bytes - log_before as u64,
        log_total_bytes,
        attempted,
        failed,
        gen_ns: all.iter().map(|r| r.gen_ns).sum(),
        threads,
        peak_rss_mb,
        replay_s,
    };

    let metrics = if opts.traced {
        let mut probe_tracer = Tracer::new(epoch);
        let metrics = layers::per_layer(
            &measured,
            &tracers,
            hop_us,
            opts.probes.then_some((workload, opts.seed, n_clients)),
            &mut probe_tracer,
        );
        let path = Path::new(OUT_DIR).join(format!("trace-{}.jsonl", workload.name()));
        let mut owners: Vec<(String, &Tracer)> = tracers
            .iter()
            .enumerate()
            .map(|(i, t)| (format!("client-{i}"), t))
            .collect();
        owners.push(("probes".to_string(), &probe_tracer));
        if let Err(e) = crate::trace::write_jsonl(&path, &owners, TRACE_FILE_ROOTS) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
        metrics
    } else {
        END_TO_END
            .iter()
            .map(|def| {
                let (values, samples): (Vec<f64>, u64) = match def.name {
                    "setup_s" => (setup_secs.clone(), SETUPS as u64),
                    name => (
                        measured.windows.iter().map(|w| w.value(name)).collect(),
                        measured.commits(),
                    ),
                };
                metric(
                    def.name,
                    def.unit,
                    stats::median(&values),
                    samples,
                    stats::spread(&values),
                )
            })
            .collect()
    };

    RunRecord {
        workload: workload.name().to_string(),
        traced: opts.traced,
        seed: opts.seed,
        seconds: opts.seconds,
        windows: windows as u64,
        clients: u64::from(n_clients),
        host_cpus: proc::online_cpus(),
        affinity_cpus: affinity_cpus as u64,
        transport: match workload.transport() {
            TransportKind::Channel => "channel",
            TransportKind::Tcp => "tcp",
        }
        .to_string(),
        protocol: config.protocol.to_string(),
        log_device: "memory".to_string(),
        correct,
        attempted,
        failed,
        window_txn_per_s: measured.windows.iter().map(Window::txn_per_s).collect(),
        problems,
        metrics,
    }
}
