//! Simulator hot-path benchmark: the calendar-queue event engine versus
//! the binary heap it replaced, and sweep wall-clock across worker
//! counts on the parallel sweep scheduler.
//!
//! Run via `cargo bench -p fgs-bench --bench sim_hotpath`.
//! Control with env:
//!   FGS_QUALITY=quick|full  event count / sweep length (default: full)
//!   FGS_RESULTS=results     output directory for BENCH_sim.json
//!
//! The engine benchmark is Brown's classic *hold model*: prime the queue
//! with `pending` events, then alternate pop / schedule-one-ahead so the
//! population stays constant — the steady state of the simulator's main
//! loop. Gaps are exponential (mean 1 ms), like the model's service and
//! think times. The heap baseline is the pre-calendar implementation
//! (`fgs_simkernel::test_support::HeapCalendar`: same tie-break, same
//! clock discipline).
//!
//! The sweep benchmark times one small HOTCOLD figure at 1/2/4/8 workers
//! and cross-checks that every figure is bit-identical to the sequential
//! run. `host_cpus` is recorded alongside: wall-clock speedup is bounded
//! by physical parallelism, so judge the numbers against it.

use fgs_core::Protocol;
use fgs_sim::{sweep_probs_workers, Figure, RunConfig, SystemConfig};
use fgs_simkernel::test_support::HeapCalendar;
use fgs_simkernel::{Calendar, Pcg32, SimTime};
use fgs_workload::{Locality, WorkloadSpec};
use serde::Serialize;
use std::time::Instant;

// ---------------------------------------------------------------------
// Hold model
// ---------------------------------------------------------------------

const GAP_MEAN_S: f64 = 1e-3;

/// The two engines under one minimal interface, so the hold loop below
/// drives them identically.
trait Engine {
    fn schedule_at(&mut self, time: SimTime, event: u32);
    fn pop_next(&mut self) -> (SimTime, u32);
}

impl Engine for HeapCalendar<u32> {
    fn schedule_at(&mut self, time: SimTime, event: u32) {
        self.schedule(time, event);
    }
    fn pop_next(&mut self) -> (SimTime, u32) {
        self.pop().expect("hold model never empties")
    }
}

impl Engine for Calendar<u32> {
    fn schedule_at(&mut self, time: SimTime, event: u32) {
        self.schedule(time, event);
    }
    fn pop_next(&mut self) -> (SimTime, u32) {
        self.pop().expect("hold model never empties")
    }
}

/// Drives `events` pop/schedule rounds at a constant population of
/// `pending` and returns (elapsed seconds, checksum). The checksum folds
/// every popped event id, so the work cannot be optimized away and both
/// engines can be cross-checked against each other.
fn hold<E: Engine>(engine: &mut E, pending: usize, events: u64, seed: u64) -> (f64, u64) {
    let mut rng = Pcg32::new(seed, 7);
    for i in 0..pending {
        engine.schedule_at(SimTime::from_secs(rng.exponential(GAP_MEAN_S)), i as u32);
    }
    let t0 = Instant::now();
    let mut checksum = 0u64;
    for _ in 0..events {
        let (now, ev) = engine.pop_next();
        checksum = checksum
            .wrapping_mul(0x100_0000_01B3)
            .wrapping_add(u64::from(ev));
        engine.schedule_at(
            SimTime::from_secs(now.as_secs() + rng.exponential(GAP_MEAN_S)),
            ev,
        );
    }
    (t0.elapsed().as_secs_f64(), checksum)
}

#[derive(Serialize)]
struct EnginePoint {
    structure: String,
    pending: usize,
    events: u64,
    elapsed_s: f64,
    events_per_s: f64,
}

fn engine_points(quality: &str) -> Vec<EnginePoint> {
    let events: u64 = if quality == "quick" {
        200_000
    } else {
        2_000_000
    };
    let mut out = Vec::new();
    for pending in [256usize, 4096, 32768] {
        let seed = 0x5EED_0000 + pending as u64;
        let mut heap = HeapCalendar::new();
        let (heap_s, heap_sum) = hold(&mut heap, pending, events, seed);
        let mut cal: Calendar<u32> = Calendar::new();
        let (cal_s, cal_sum) = hold(&mut cal, pending, events, seed);
        assert_eq!(
            heap_sum, cal_sum,
            "engines disagree on pop order at pending={pending}"
        );
        for (structure, elapsed) in [("binary_heap", heap_s), ("calendar_queue", cal_s)] {
            println!(
                "{structure:>14} pending={pending:>6}: {:>12.0} events/s",
                events as f64 / elapsed
            );
            out.push(EnginePoint {
                structure: structure.to_string(),
                pending,
                events,
                elapsed_s: elapsed,
                events_per_s: events as f64 / elapsed,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// Sweep wall-clock
// ---------------------------------------------------------------------

#[derive(Serialize)]
struct SweepPoint {
    workers: usize,
    cells: usize,
    elapsed_s: f64,
    speedup_vs_sequential: f64,
    identical_to_sequential: bool,
}

fn sweep_figure(run: &RunConfig, workers: usize) -> (Figure, f64) {
    let protocols = [Protocol::Ps, Protocol::Os, Protocol::PsAa];
    let probs = [0.0, 0.05, 0.1, 0.2];
    let sys = SystemConfig::default();
    let t0 = Instant::now();
    let fig = sweep_probs_workers(
        "bench",
        "sim_hotpath sweep",
        &protocols,
        &sys,
        run,
        &probs,
        |w| WorkloadSpec::hotcold(Locality::Low, w),
        workers,
    );
    (fig, t0.elapsed().as_secs_f64())
}

fn sweep_points(quality: &str) -> Vec<SweepPoint> {
    let run = RunConfig {
        duration: if quality == "quick" { 30.0 } else { 120.0 },
        warmup: if quality == "quick" { 5.0 } else { 20.0 },
        batches: 4,
        seed: 0xF65_1994,
    };
    let (reference, ref_elapsed) = sweep_figure(&run, 1);
    let cells = reference.runs.len();
    let mut out = vec![SweepPoint {
        workers: 1,
        cells,
        elapsed_s: ref_elapsed,
        speedup_vs_sequential: 1.0,
        identical_to_sequential: true,
    }];
    for workers in [2usize, 4, 8] {
        let (fig, elapsed) = sweep_figure(&run, workers);
        let identical = fig == reference;
        assert!(
            identical,
            "{workers}-worker figure diverged from sequential"
        );
        println!(
            "sweep {cells} cells @ {workers} workers: {elapsed:.2}s ({:.2}x)",
            ref_elapsed / elapsed
        );
        out.push(SweepPoint {
            workers,
            cells,
            elapsed_s: elapsed,
            speedup_vs_sequential: ref_elapsed / elapsed,
            identical_to_sequential: identical,
        });
    }
    out
}

// ---------------------------------------------------------------------

#[derive(Serialize)]
struct BenchReport {
    bench: String,
    quality: String,
    host_cpus: usize,
    engine: Vec<EnginePoint>,
    sweep: Vec<SweepPoint>,
}

fn main() {
    let quality = match std::env::var("FGS_QUALITY").as_deref() {
        Ok("quick") => "quick".to_string(),
        _ => "full".to_string(),
    };
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("sim_hotpath quality={quality} host_cpus={host_cpus}");
    let engine = engine_points(&quality);
    let sweep = sweep_points(&quality);
    let report = BenchReport {
        bench: "sim_hotpath".to_string(),
        quality,
        host_cpus,
        engine,
        sweep,
    };
    let out_dir = match std::env::var("FGS_RESULTS") {
        Ok(dir) => std::path::PathBuf::from(dir),
        Err(_) => std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."),
    };
    let path = out_dir.join("BENCH_sim.json");
    match serde_json::to_string_pretty(&report) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                println!("wrote {}", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialize report: {e}"),
    }
}
