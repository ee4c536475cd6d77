//! Per-layer metrics of a traced run, from the engine's own counters
//! over the measured phase, the driver's spans, and the layer probes.

use crate::probes;
use crate::report::{Metric, PER_LAYER};
use crate::run::{metric, Measured};
use crate::stats::{self, ratio};
use crate::trace::{self, Tracer, NO_PARENT};
use crate::workloads::Workload;
use fgs_core::ServerStats;
use fgs_oodb::StoreStats;
use std::collections::HashMap;

/// Collects per-layer values by name; unknown names are a bug here, and
/// names never set are reported as 0 (the metric does not apply to the
/// workload, or probes were skipped).
struct Layers(Vec<Metric>);

impl Layers {
    fn new() -> Layers {
        Layers(
            PER_LAYER
                .iter()
                .map(|(name, unit, _)| metric(name, unit, 0.0, 0, 0.0))
                .collect(),
        )
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    }

    fn set(&mut self, name: &str, value: f64, samples: u64) {
        let m = self
            .0
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric"));
        m.value = value;
        m.samples = samples;
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Every [`PER_LAYER`] metric, in declaration order. `probe` names the
/// workload to run the isolated layer probes for (`None` skips them).
pub fn per_layer(
    m: &Measured,
    tracers: &[Tracer],
    hop_us: Option<f64>,
    probe: Option<(Workload, u64, u16)>,
    probe_tracer: &mut Tracer,
) -> Vec<Metric> {
    let mut l = Layers::new();
    let commits = m.commits();
    // "Commits" in every ratio are transactions the driver saw commit:
    // the engine's own commit counter stays 0 for read-only ones.
    let n = commits as f64;
    let elapsed_ns = m.elapsed_ns as f64;

    session_metrics(&mut l, tracers);
    if let Some(hop) = hop_us {
        l.set("session.hop_us_p50", hop, probes::HOP_CALLS as u64);
    }

    let c = &m.client_delta;
    let accesses = c.hits + c.misses;
    l.set(
        "client.hit_rate",
        ratio(c.hits as f64, accesses as f64),
        accesses,
    );
    l.set(
        "client.evictions_per_txn",
        ratio(c.evictions as f64, n),
        commits,
    );
    l.set(
        "client.callbacks_received_per_commit",
        ratio(c.callbacks_received as f64, n),
        commits,
    );
    l.set(
        "client.busy_per_callback",
        ratio(c.busy_replies as f64, c.callbacks_received as f64),
        c.callbacks_received,
    );

    let sd = |f: fn(&StoreStats) -> u64| (f(&m.last.store) - f(&m.first.store)) as f64;
    let (msgs_in, batches_in) = (sd(|s| s.dispatch_batch_msgs), sd(|s| s.dispatch_batches));
    let (msgs_out, batches_out) = (sd(|s| s.send_batch_msgs), sd(|s| s.send_batches));
    l.set("server.msgs_in_per_commit", ratio(msgs_in, n), commits);
    l.set("server.msgs_out_per_commit", ratio(msgs_out, n), commits);
    l.set(
        "server.dispatch_batch_avg",
        ratio(msgs_in, batches_in),
        batches_in as u64,
    );
    l.set(
        "server.send_batch_avg",
        ratio(msgs_out, batches_out),
        batches_out as u64,
    );
    for (name, ns) in [
        ("server.protocol_us_per_commit", sd(|s| s.protocol_ns)),
        ("server.durability_us_per_commit", sd(|s| s.durability_ns)),
        ("server.dispatch_us_per_commit", sd(|s| s.dispatch_ns)),
    ] {
        l.set(name, ratio(ns / 1e3, n), commits);
    }
    let locks = sd(|s| s.lock_acquisitions) as u64;
    l.set(
        "server.lock_wait_share",
        sd(|s| s.lock_wait_ns) / elapsed_ns,
        locks,
    );
    l.set(
        "server.lock_hold_share",
        sd(|s| s.lock_hold_ns) / elapsed_ns,
        locks,
    );
    // The engine's own commit-latency histogram is cumulative, so these
    // two include the warm-up commits.
    let end = &m.last.store;
    l.set(
        "server.commit_p50_us",
        end.commit_p50_us as f64,
        end.commit_latency_samples,
    );
    l.set(
        "server.commit_p99_us",
        end.commit_p99_us as f64,
        end.commit_latency_samples,
    );
    l.set(
        "server.deferred_acks_per_commit",
        ratio(sd(|s| s.deferred_acks), n),
        commits,
    );

    let ed = |f: fn(&ServerStats) -> u64| (f(&m.last.server) - f(&m.first.server)) as f64;
    let callbacks = ed(|s| s.callbacks_sent);
    l.set("core.callbacks_per_commit", ratio(callbacks, n), commits);
    l.set(
        "core.busy_per_callback",
        ratio(ed(|s| s.busy_replies), callbacks),
        callbacks as u64,
    );
    l.set(
        "core.deescalations_per_commit",
        ratio(ed(|s| s.deescalations), n),
        commits,
    );
    l.set(
        "core.blocks_per_commit",
        ratio(ed(|s| s.blocks), n),
        commits,
    );
    l.set(
        "core.deadlocks_per_commit",
        ratio(ed(|s| s.deadlocks), n),
        commits,
    );
    let grants = ed(|s| s.page_grants) + ed(|s| s.obj_grants);
    l.set(
        "core.page_grant_frac",
        ratio(ed(|s| s.page_grants), grants),
        grants as u64,
    );
    l.set(
        "core.pages_shipped_per_commit",
        ratio(ed(|s| s.pages_shipped), n),
        commits,
    );

    let forces = sd(|s| s.log_forces);
    l.set(
        "wal.commits_per_force",
        ratio(sd(|s| s.commits), forces),
        forces as u64,
    );
    l.set(
        "wal.seals_per_commit",
        ratio(sd(|s| s.wal_seals), n),
        commits,
    );
    l.set(
        "wal.writes_per_commit",
        ratio(sd(|s| s.wal_writes), n),
        commits,
    );
    l.set(
        "wal.bytes_per_commit",
        ratio(m.log_bytes as f64, n),
        commits,
    );

    l.set(
        "workload.gen_us_per_txn",
        ratio(us(m.gen_ns), m.attempted as f64),
        m.attempted,
    );
    l.set("process.peak_rss_mb", m.peak_rss_mb, 1);
    l.set("process.threads", m.threads as f64, 1);
    let switches = (m.last.ctx_switches - m.first.ctx_switches) as f64;
    l.set(
        "process.vol_ctx_switches_per_txn",
        ratio(switches, n),
        commits,
    );
    // Odd windows were traced, even ones were not.
    let rates = |odd: bool| -> Vec<f64> {
        let picked = m.windows.iter().skip(usize::from(odd)).step_by(2);
        picked.map(|w| w.txn_per_s()).collect()
    };
    let (plain, traced) = (rates(false), rates(true));
    if !traced.is_empty() {
        let (plain, traced) = (stats::median(&plain), stats::median(&traced));
        l.set(
            "trace.overhead_pct",
            100.0 * ratio(plain - traced, plain),
            m.windows.len() as u64,
        );
    }
    l.set("recovery.replay_s", m.replay_s, 1);
    l.set(
        "recovery.log_mb",
        m.log_total_bytes as f64 / f64::from(1 << 20),
        1,
    );

    let retries: u64 = m.windows.iter().map(|w| w.retries).sum();
    l.set("retries_per_commit", ratio(retries as f64, n), commits);
    l.set(
        "failed_share",
        ratio(m.failed as f64, m.attempted as f64),
        m.attempted,
    );
    l.set(
        "cpu_ms_per_txn",
        ratio(m.last.cpu_ms - m.first.cpu_ms, n),
        commits,
    );
    let merged = |pick: fn(&crate::run::Window) -> &Vec<f64>| {
        let mut all: Vec<f64> = m
            .windows
            .iter()
            .flat_map(|w| pick(w).iter().copied())
            .collect();
        stats::sort(&mut all);
        all
    };
    let (txn_ms, commit_ms) = (merged(|w| &w.txn_ms), merged(|w| &w.commit_ms));
    for (name, data, q) in [
        ("txn_p95_ms", &txn_ms, 0.95),
        ("txn_p99_ms", &txn_ms, 0.99),
        ("txn_p999_ms", &txn_ms, 0.999),
        ("commit_p95_ms", &commit_ms, 0.95),
        ("commit_p99_ms", &commit_ms, 0.99),
        ("commit_p999_ms", &commit_ms, 0.999),
    ] {
        l.set(name, stats::percentile(data, q), data.len() as u64);
    }

    if let Some((workload, seed, n_clients)) = probe {
        probes::layer_probes(
            workload,
            seed,
            n_clients,
            probe_tracer,
            &mut |name, v, n| l.set(name, v, n),
        );
        // Engine ÷ simulator on the counts that do not depend on
        // hardware; 0 where the simulator has no such cell or count.
        let msgs = l.get("server.msgs_in_per_commit") + l.get("server.msgs_out_per_commit");
        for (name, engine, sim) in [
            ("calib.msgs_ratio", msgs, "sim.msgs_per_commit"),
            (
                "calib.callbacks_ratio",
                l.get("core.callbacks_per_commit"),
                "sim.callbacks_per_commit",
            ),
            (
                "calib.deesc_ratio",
                l.get("core.deescalations_per_commit"),
                "sim.deescalations_per_commit",
            ),
        ] {
            l.set(name, ratio(engine, l.get(sim)), commits);
        }
    }
    l.0
}

/// `session.*`: per-call latencies and the shares of transaction time
/// each kind of call takes, from the spans of the traced windows.
fn session_metrics(l: &mut Layers, tracers: &[Tracer]) {
    let mut by_name: HashMap<&str, Vec<f64>> = HashMap::new();
    let (mut txn_ns, mut self_ns, mut txns, mut calls) = (0u64, 0u64, 0u64, 0u64);
    for t in tracers {
        let selfs = trace::self_times(&t.spans);
        for (s, own) in t.spans.iter().zip(selfs) {
            if s.name == "txn" {
                txn_ns += s.duration_ns();
                self_ns += own;
                txns += 1;
            } else if s.parent != NO_PARENT {
                calls += 1;
                by_name.entry(s.name).or_default().push(us(s.duration_ns()));
            }
        }
    }
    for v in by_name.values_mut() {
        stats::sort(v);
    }
    let empty = Vec::new();
    let of = |name: &str| by_name.get(name).unwrap_or(&empty);
    for (metric, call, q) in [
        ("session.begin_us_p50", "begin", 0.50),
        ("session.read_us_p50", "read", 0.50),
        ("session.read_us_p95", "read", 0.95),
        ("session.write_us_p50", "write", 0.50),
        ("session.commit_us_p50", "commit", 0.50),
    ] {
        let calls = of(call);
        l.set(
            metric,
            stats::gated_percentile(calls, q),
            calls.len() as u64,
        );
    }
    let total_us = us(txn_ns);
    for (metric, call) in [
        ("session.read_share", "read"),
        ("session.write_share", "write"),
        ("session.commit_share", "commit"),
    ] {
        l.set(metric, ratio(of(call).iter().sum(), total_us), txns);
    }
    l.set(
        "session.driver_self_share",
        ratio(us(self_ns), total_us),
        txns,
    );
    l.set(
        "session.calls_per_txn",
        ratio(calls as f64, txns as f64),
        txns,
    );
}
