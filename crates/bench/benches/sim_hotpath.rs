//! Simulator hot-path benchmark: sweep wall-clock across worker counts on
//! the parallel sweep scheduler.
//!
//! Run via `cargo bench -p fgs-bench --bench sim_hotpath`.
//! Control with env:
//!   FGS_QUALITY=quick|full  sweep length (default: full)
//!   FGS_RESULTS=results     output directory for BENCH_sim.json
//!
//! It times one small HOTCOLD figure at 1/2/4/8 workers and cross-checks
//! that every figure is bit-identical to the sequential run. `host_cpus`
//! is recorded alongside: wall-clock speedup is bounded by physical
//! parallelism, so judge the numbers against it.

use fgs_core::Protocol;
use fgs_sim::{sweep_probs_workers, Figure, RunConfig, SystemConfig};
use fgs_workload::{Locality, WorkloadSpec};
use serde::Serialize;
use std::time::Instant;

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

#[derive(Serialize)]
struct BenchReport {
    bench: String,
    quality: String,
    host_cpus: usize,
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
    let sweep = sweep_points(&quality);
    let report = BenchReport {
        bench: "sim_hotpath".to_string(),
        quality,
        host_cpus,
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
