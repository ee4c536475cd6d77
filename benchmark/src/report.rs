//! Metric names, units and regression bounds; the record one run
//! produces; and `compare`, which applies the bounds to two result
//! files.

use crate::stats::{self, ratio};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Where traces, per-run records and `results.json` go, relative to the
/// repo root `run.sh` changes to.
pub const OUT_DIR: &str = "benchmark/out";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// A metric a user of the engine would see, with the share of the
/// baseline by which it may worsen before `compare` calls it worse.
/// `floor` is the absolute worsening below which a relative change is
/// ignored (a 30 % rise of a 0.1 s set-up is scheduler noise).
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub floor: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    floor: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        floor,
    }
}

/// Reported by every workload from the untraced pass. BENCHMARK.json
/// carries the same names, units, directions and bounds (a test holds
/// the two together). No timing bound is wider than 15 %: a timing that
/// cannot repeat within that is reported per-layer instead (README,
/// "Bounds"). Set-up is the exception the acceptance contract makes: it
/// takes the widest bound, and on these sub-second set-ups 25 % is
/// still tighter than the 0.25 s floor.
pub const END_TO_END: [EndToEnd; 6] = [
    e2e("setup_s", "s", Better::Lower, 0.25, 0.25),
    e2e("txn_per_s", "1/s", Better::Higher, 0.15, 0.0),
    e2e("txn_p50_ms", "ms", Better::Lower, 0.15, 0.0),
    e2e("commit_p50_ms", "ms", Better::Lower, 0.15, 0.0),
    e2e(
        "attempts_per_commit",
        "run/commit",
        Better::Lower,
        0.05,
        0.005,
    ),
    e2e("msgs_per_commit", "msg/commit", Better::Lower, 0.02, 0.0),
];

/// Per-layer metrics of the traced pass: `(name, unit, better)`. The
/// prefix is the module measured. No bounds — these explain a change,
/// they do not gate it.
pub const PER_LAYER: [(&str, &str, Better); 81] = {
    use Better::{Higher as H, Lower as L};
    [
        // oodb::session + client runtime, from the driver's own spans.
        ("session.begin_us_p50", "us", L),
        ("session.read_us_p50", "us", L),
        ("session.read_us_p95", "us", L),
        ("session.write_us_p50", "us", L),
        ("session.commit_us_p50", "us", L),
        ("session.read_share", "share", L),
        ("session.write_share", "share", L),
        ("session.commit_share", "share", L),
        ("session.driver_self_share", "share", L),
        ("session.calls_per_txn", "call/txn", L),
        ("session.hop_us_p50", "us", L),
        // core::client, from ClientStats deltas and a bare-engine probe.
        ("client.hit_rate", "share", H),
        ("client.evictions_per_txn", "1/txn", L),
        ("client.callbacks_received_per_commit", "1/commit", L),
        ("client.busy_per_callback", "share", L),
        ("client.access_hit_ns", "ns", L),
        // oodb::transport, one-page fetch on an idle engine.
        ("transport.fetch_rtt_us_channel", "us", L),
        ("transport.fetch_rtt_us_tcp", "us", L),
        ("transport.tcp_minus_channel_us", "us", L),
        // core::codec + oodb::codec.
        ("codec.request_encode_ns", "ns", L),
        ("codec.request_decode_ns", "ns", L),
        ("codec.page_grant_encode_ns", "ns", L),
        ("codec.page_grant_decode_ns", "ns", L),
        ("codec.commit24_encode_ns", "ns", L),
        ("codec.batch_push_ns_per_frame", "ns", L),
        ("codec.bytes_per_page_grant", "B", L),
        // oodb::server, from StoreStats deltas.
        ("server.msgs_in_per_commit", "msg/commit", L),
        ("server.msgs_out_per_commit", "msg/commit", L),
        ("server.dispatch_batch_avg", "msg/batch", H),
        ("server.send_batch_avg", "msg/batch", H),
        ("server.protocol_us_per_commit", "us", L),
        ("server.durability_us_per_commit", "us", L),
        ("server.dispatch_us_per_commit", "us", L),
        ("server.lock_wait_share", "share", L),
        ("server.lock_hold_share", "share", L),
        ("server.commit_p50_us", "us", L),
        ("server.commit_p99_us", "us", L),
        ("server.deferred_acks_per_commit", "1/commit", L),
        // core::server, from ServerStats deltas and a replay probe.
        ("core.callbacks_per_commit", "1/commit", L),
        ("core.busy_per_callback", "share", L),
        ("core.deescalations_per_commit", "1/commit", L),
        ("core.blocks_per_commit", "1/commit", L),
        ("core.deadlocks_per_commit", "1/commit", L),
        ("core.page_grant_frac", "share", H),
        ("core.pages_shipped_per_commit", "1/commit", L),
        ("core.handle_ns", "ns", L),
        // pagestore::wal.
        ("wal.commits_per_force", "commit/force", H),
        ("wal.seals_per_commit", "1/commit", L),
        ("wal.writes_per_commit", "1/commit", L),
        ("wal.bytes_per_commit", "B/commit", L),
        ("wal.append_ns", "ns", L),
        ("wal.cycle_ns", "ns", L),
        // pagestore::store and bufferpool, on a bare store.
        ("store.update_object_ns", "ns", L),
        ("store.append_commit_ns", "ns", L),
        ("store.page_image_hit_ns", "ns", L),
        ("store.page_image_miss_ns", "ns", L),
        ("pool.hit_rate", "share", H),
        // fgs-sim cell of the same workload, and engine ÷ sim ratios.
        ("sim.msgs_per_commit", "msg/commit", L),
        ("sim.callbacks_per_commit", "1/commit", L),
        ("sim.deescalations_per_commit", "1/commit", L),
        ("sim.page_grant_frac", "share", H),
        ("sim.wall_s_per_sim_s", "s/s", L),
        ("calib.msgs_ratio", "ratio", L),
        ("calib.callbacks_ratio", "ratio", L),
        ("calib.deesc_ratio", "ratio", L),
        // The driver itself and the process.
        ("workload.gen_us_per_txn", "us", L),
        ("process.peak_rss_mb", "MiB", L),
        ("process.threads", "count", L),
        ("process.vol_ctx_switches_per_txn", "1/txn", L),
        ("trace.overhead_pct", "%", L),
        ("recovery.replay_s", "s", L),
        ("recovery.log_mb", "MiB", L),
        // Failure accounting, kept out of the bounded list because it is
        // zero at the seed state.
        ("retries_per_commit", "1/commit", L),
        ("failed_share", "share", L),
        // One closed-loop chain of hand-offs keeps about one CPU busy
        // whatever it runs on, so this is 1000 / txn_per_s in other
        // words and is not bounded a second time.
        ("cpu_ms_per_txn", "ms", L),
        // Tails of the end-to-end latencies, over the whole measured
        // phase. Not bounded: on a shared host they follow the
        // neighbours more than the code (README, "Bounds").
        ("txn_p95_ms", "ms", L),
        ("txn_p99_ms", "ms", L),
        ("txn_p999_ms", "ms", L),
        ("commit_p95_ms", "ms", L),
        ("commit_p99_ms", "ms", L),
        ("commit_p999_ms", "ms", L),
    ]
};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// Observations behind `value` (transactions, windows or probe
    /// iterations, as the metric's definition says).
    pub samples: u64,
    /// Interquartile distance ÷ median of the per-window (or
    /// per-set-up) values `value` is the median of; 0 for a metric
    /// measured once.
    pub spread: f64,
}

/// Everything one `(workload, pass)` run produced. Two records compare
/// only when the configuration fields match.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunRecord {
    pub workload: String,
    pub traced: bool,
    pub seed: u64,
    pub seconds: f64,
    pub windows: u64,
    pub clients: u64,
    /// CPUs the machine has online, and how many of them this run was
    /// allowed on (1 for the workloads `run.sh` pins).
    pub host_cpus: u64,
    pub affinity_cpus: u64,
    pub transport: String,
    pub protocol: String,
    pub log_device: String,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Committed transactions per second in each window, in order — a
    /// drift or a disturbed stretch of the run shows here.
    pub window_txn_per_s: Vec<f64>,
    /// What a failed check found, in words.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Results {
    pub runs: Vec<RunRecord>,
}

impl RunRecord {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// `workload metric value unit` lines, one per metric.
    pub fn print(&self) {
        for m in &self.metrics {
            println!(
                "{} {} {} {} n={} spread={:.4}",
                self.workload, m.name, m.value, m.unit, m.samples, m.spread
            );
        }
        let rates: Vec<String> = self
            .window_txn_per_s
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect();
        println!("{} window_txn_per_s {}", self.workload, rates.join(" "));
        for p in &self.problems {
            println!("{} PROBLEM {p}", self.workload);
        }
    }

    /// The one-line result object the acceptance driver reads.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints every digit of the f64 and keeps a decimal
            // point on whole numbers.
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The run-to-run spread of either side is wider than the bound, or
    /// a side has a single run and so no spread at all: the data cannot
    /// tell a regression from noise.
    Unresolved,
}

/// One side of a comparison: a metric's value in each of the side's
/// untraced runs of one workload.
pub struct Side {
    pub median: f64,
    /// Interquartile distance of the runs' values ÷ their median; `None`
    /// with fewer than two runs.
    pub spread: Option<f64>,
}

impl Side {
    pub fn of(runs: &[&RunRecord], name: &str) -> Option<Side> {
        let values: Vec<f64> = runs
            .iter()
            .map(|r| r.metric(name).map(|m| m.value))
            .collect::<Option<_>>()?;
        Some(Side {
            median: stats::median(&values),
            spread: (values.len() >= 2).then(|| stats::spread(&values)),
        })
    }
}

pub fn verdict(def: &EndToEnd, base: &Side, new: &Side) -> Verdict {
    let worse_by = match def.better {
        Better::Higher => base.median - new.median,
        Better::Lower => new.median - base.median,
    };
    if ratio(worse_by, base.median.abs()) > def.bound && worse_by > def.floor {
        return Verdict::Worse;
    }
    match (base.spread, new.spread) {
        (Some(a), Some(b)) if a.max(b) <= def.bound => Verdict::Ok,
        _ => Verdict::Unresolved,
    }
}

/// Why two records must not be compared, if they must not.
fn mismatch(a: &RunRecord, b: &RunRecord) -> Option<String> {
    let fields = [
        ("clients", a.clients.to_string(), b.clients.to_string()),
        (
            "host_cpus",
            a.host_cpus.to_string(),
            b.host_cpus.to_string(),
        ),
        (
            "affinity_cpus",
            a.affinity_cpus.to_string(),
            b.affinity_cpus.to_string(),
        ),
        ("seed", a.seed.to_string(), b.seed.to_string()),
        ("seconds", a.seconds.to_string(), b.seconds.to_string()),
        ("windows", a.windows.to_string(), b.windows.to_string()),
        ("transport", a.transport.clone(), b.transport.clone()),
        ("protocol", a.protocol.clone(), b.protocol.clone()),
        ("log_device", a.log_device.clone(), b.log_device.clone()),
    ];
    fields
        .into_iter()
        .find(|(_, x, y)| x != y)
        .map(|(name, x, y)| format!("{}: {name} differs ({x} vs {y})", a.workload))
}

impl Results {
    /// The untraced runs of `workload`, in the order they were made.
    fn untraced(&self, workload: &str) -> Vec<&RunRecord> {
        let of = |r: &&RunRecord| !r.traced && r.workload == workload;
        self.runs.iter().filter(of).collect()
    }

    /// Workloads in first-appearance order.
    fn workloads(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for r in &self.runs {
            if !names.contains(&r.workload.as_str()) {
                names.push(&r.workload);
            }
        }
        names
    }

    /// `workload metric median unit runs=N run_spread=S`, one line per
    /// workload × end-to-end metric: each value is the median over the
    /// suite's repeated untraced runs, the spread is theirs.
    pub fn print_summary(&self) {
        for workload in self.workloads() {
            let runs = self.untraced(workload);
            for def in &END_TO_END {
                if let Some(side) = Side::of(&runs, def.name) {
                    println!(
                        "{workload} {} {} {} runs={} run_spread={:.4}",
                        def.name,
                        side.median,
                        def.unit,
                        runs.len(),
                        side.spread.unwrap_or(0.0)
                    );
                }
            }
        }
    }
}

/// One row per workload × end-to-end metric, each side's value the
/// median over its untraced runs. `Err` refuses the comparison;
/// `Ok(true)` means every row was `ok`.
pub fn compare(base: &Results, new: &Results) -> Result<bool, String> {
    let mut clean = true;
    println!(
        "{:<16} {:<20} {:>12} {:>12} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "base", "new", "change", "spread", "bound"
    );
    for workload in base.workloads() {
        let (a, b) = (base.untraced(workload), new.untraced(workload));
        let (Some(a0), Some(b0)) = (a.first(), b.first()) else {
            return Err(format!("{workload}: no untraced run on one side"));
        };
        // Every run of a side is checked against the other side's first.
        if let Some(why) = a
            .iter()
            .find_map(|r| mismatch(r, b0))
            .or_else(|| b.iter().find_map(|r| mismatch(a0, r)))
        {
            return Err(why);
        }
        if !a.iter().chain(&b).all(|r| r.correct) {
            println!("{workload:<16} output checks failed");
            clean = false;
        }
        for def in &END_TO_END {
            let (Some(sa), Some(sb)) = (Side::of(&a, def.name), Side::of(&b, def.name)) else {
                return Err(format!("{workload}: {} missing", def.name));
            };
            let v = verdict(def, &sa, &sb);
            clean &= v == Verdict::Ok;
            let spread = match (sa.spread, sb.spread) {
                (Some(x), Some(y)) => format!("{:.1}%", 100.0 * x.max(y)),
                _ => "?".to_string(),
            };
            println!(
                "{:<16} {:<20} {:>12.4} {:>12.4} {:>+7.1}% {:>7} {:>6.0}%  {}",
                workload,
                def.name,
                sa.median,
                sb.median,
                100.0 * ratio(sb.median - sa.median, sa.median.abs()),
                spread,
                100.0 * def.bound,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(median: f64, spread: f64) -> Side {
        Side {
            median,
            spread: Some(spread),
        }
    }

    fn def(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|d| d.name == name).unwrap()
    }

    #[test]
    fn verdicts_follow_direction_bound_floor_and_spread() {
        let tps = def("txn_per_s");
        let v = |d, a: (f64, f64), b: (f64, f64)| verdict(d, &side(a.0, a.1), &side(b.0, b.1));
        assert_eq!(v(tps, (1000.0, 0.01), (950.0, 0.01)), Verdict::Ok);
        assert_eq!(v(tps, (1000.0, 0.01), (800.0, 0.01)), Verdict::Worse);
        // Faster is never worse.
        assert_eq!(v(tps, (1000.0, 0.01), (2000.0, 0.01)), Verdict::Ok);
        let p50 = def("txn_p50_ms");
        assert_eq!(v(p50, (1.0, 0.0), (1.2, 0.0)), Verdict::Worse);
        assert_eq!(v(p50, (1.0, 0.0), (0.5, 0.0)), Verdict::Ok);
        // Within the bound, but the runs of one side disagree by more.
        assert_eq!(v(p50, (1.0, 0.3), (1.05, 0.0)), Verdict::Unresolved);
        assert_eq!(v(p50, (1.0, 0.0), (1.05, 0.3)), Verdict::Unresolved);
        // A clear regression is worse even when noisy.
        assert_eq!(v(p50, (1.0, 0.3), (2.0, 0.3)), Verdict::Worse);
        // One run a side has no spread to judge by.
        let lone = Side {
            median: 1.0,
            spread: None,
        };
        assert_eq!(verdict(p50, &lone, &side(1.0, 0.0)), Verdict::Unresolved);
        assert_eq!(verdict(p50, &lone, &side(2.0, 0.0)), Verdict::Worse);
        // Floors: +40 % of a 0.1 s set-up is under the 0.25 s floor.
        let setup = def("setup_s");
        assert_eq!(v(setup, (0.1, 0.0), (0.14, 0.0)), Verdict::Ok);
        assert_eq!(v(setup, (2.0, 0.0), (2.8, 0.0)), Verdict::Worse);
    }

    fn record(workload: &str, value: f64) -> RunRecord {
        RunRecord {
            workload: workload.into(),
            traced: false,
            seed: 1,
            seconds: 20.0,
            windows: 10,
            clients: 1,
            host_cpus: 2,
            affinity_cpus: 1,
            transport: "channel".into(),
            protocol: "PS-AA".into(),
            log_device: "memory".into(),
            correct: true,
            attempted: 10,
            failed: 0,
            window_txn_per_s: vec![],
            problems: vec![],
            metrics: END_TO_END
                .iter()
                .map(|d| Metric {
                    name: d.name.into(),
                    value,
                    unit: d.unit.into(),
                    samples: 6,
                    spread: 0.0,
                })
                .collect(),
        }
    }

    /// A side of `values.len()` untraced runs of one workload.
    fn results(values: &[f64]) -> Results {
        Results {
            runs: values.iter().map(|&v| record("commit_short", v)).collect(),
        }
    }

    #[test]
    fn compare_refuses_mismatched_configurations() {
        let a = results(&[1.0, 1.0]);
        for change in [
            (|r: &mut RunRecord| r.clients = 2) as fn(&mut RunRecord),
            |r| r.transport = "tcp".into(),
            |r| r.affinity_cpus = 2,
            |r| r.windows = 1,
        ] {
            // In either run of either side.
            for i in 0..2 {
                let mut b = results(&[1.0, 1.0]);
                change(&mut b.runs[i]);
                assert!(compare(&a, &b).unwrap_err().contains("differs"));
                assert!(compare(&b, &a).unwrap_err().contains("differs"));
            }
        }
        assert!(compare(&a, &Results { runs: vec![] }).is_err());
    }

    #[test]
    fn compare_judges_medians_by_the_run_to_run_spread() {
        let a = results(&[10.0, 10.0, 10.0]);
        assert_eq!(compare(&a, &a), Ok(true));
        // Everything doubled: the lower-is-better metrics are worse.
        assert_eq!(compare(&a, &results(&[20.0, 20.0, 20.0])), Ok(false));
        // Same median, but the runs of the second side scatter by more
        // than any bound: unresolved, so not clean.
        assert_eq!(compare(&a, &results(&[5.0, 10.0, 15.0])), Ok(false));
        // One run a side cannot be called ok.
        assert_eq!(compare(&results(&[10.0]), &results(&[10.0])), Ok(false));
        let mut failed = results(&[10.0, 10.0, 10.0]);
        failed.runs[1].correct = false;
        assert_eq!(compare(&a, &failed), Ok(false));
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let mut r = record("commit_short", 2.0);
        r.metrics.truncate(2);
        assert_eq!(
            r.result_line(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}, \
             \"txn_per_s\": {\"value\": 2.0, \"unit\": \"1/s\"}}}"
        );
    }

    #[derive(Deserialize)]
    struct ManifestWorkload {
        name: String,
    }

    #[derive(Deserialize)]
    struct ManifestEndToEnd {
        name: String,
        unit: String,
        better: String,
        bound: f64,
    }

    #[derive(Deserialize)]
    struct ManifestLayer {
        name: String,
        unit: String,
        better: String,
    }

    #[derive(Deserialize)]
    struct Manifest {
        run_seconds: f64,
        workloads: Vec<ManifestWorkload>,
        end_to_end: Vec<ManifestEndToEnd>,
        per_layer: Vec<ManifestLayer>,
    }

    /// BENCHMARK.json sits outside this package but declares what this
    /// package emits; neither may change without the other.
    #[test]
    fn benchmark_json_declares_exactly_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let manifest: Manifest = serde_json::from_str(&text).expect("parse BENCHMARK.json");
        let better = |b: Better| match b {
            Better::Higher => "higher",
            Better::Lower => "lower",
        };
        let declared: Vec<_> = manifest
            .end_to_end
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str(), m.better.as_str(), m.bound))
            .collect();
        let emitted: Vec<_> = END_TO_END
            .iter()
            .map(|d| (d.name, d.unit, better(d.better), d.bound))
            .collect();
        assert_eq!(declared, emitted);
        let declared: Vec<_> = manifest
            .per_layer
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str(), m.better.as_str()))
            .collect();
        let emitted: Vec<_> = PER_LAYER
            .iter()
            .map(|&(name, unit, b)| (name, unit, better(b)))
            .collect();
        assert_eq!(declared, emitted);
        let names: Vec<&str> = manifest.workloads.iter().map(|w| w.name.as_str()).collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, ours);
        assert_eq!(manifest.run_seconds, crate::DEFAULT_SECONDS);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|d| d.name)
            .chain(PER_LAYER.iter().map(|p| p.0))
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
