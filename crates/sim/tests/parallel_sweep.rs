//! Determinism regression tests for the parallel sweep scheduler: the
//! same grid run sequentially and at 4 workers must produce bit-identical
//! metrics, figures included.

use fgs_core::Protocol;
use fgs_sim::{cell_seed, run_cells, sweep_probs_workers, RunConfig, SweepCell, SystemConfig};
use fgs_workload::{Locality, WorkloadSpec};

fn quick() -> RunConfig {
    RunConfig {
        duration: 40.0,
        warmup: 8.0,
        batches: 4,
        seed: 0xF65_1994,
    }
}

/// The satellite regression: one HOTCOLD sweep cell, sequential vs. the
/// parallel scheduler at 4 workers, asserting identical `Metrics`.
#[test]
fn hotcold_cell_identical_sequential_vs_parallel() {
    let sys = SystemConfig::default();
    let run = quick();
    let cells = vec![SweepCell {
        protocol: Protocol::PsAa,
        write_prob: 0.1,
        spec: WorkloadSpec::hotcold(Locality::Low, 0.1),
    }];
    let seq = run_cells(&cells, &sys, &run, 1);
    let par = run_cells(&cells, &sys, &run, 4);
    assert_eq!(seq, par, "single HOTCOLD cell must be scheduler-invariant");
    assert!(seq[0].commits > 0, "the cell actually simulated something");
}

/// A multi-protocol, multi-probability grid: every metric of every cell,
/// and the assembled figure (series order, points, runs order), must be
/// bit-identical between worker counts — including a worker count larger
/// than the cell count.
#[test]
fn full_grid_is_bit_identical_across_worker_counts() {
    let sys = SystemConfig::default();
    let run = quick();
    let protocols = [Protocol::Ps, Protocol::Os, Protocol::PsAa];
    let probs = [0.0, 0.1];
    let make = |w| WorkloadSpec::hotcold(Locality::Low, w);
    let seq = sweep_probs_workers("t", "grid", &protocols, &sys, &run, &probs, make, 1);
    let par4 = sweep_probs_workers("t", "grid", &protocols, &sys, &run, &probs, make, 4);
    let par8 = sweep_probs_workers("t", "grid", &protocols, &sys, &run, &probs, make, 8);
    assert_eq!(seq, par4, "4 workers must replay the sequential figure");
    assert_eq!(seq, par8, "8 workers must replay the sequential figure");
    // Ordered assembly: runs are protocol-major like the sequential loop.
    assert_eq!(seq.runs.len(), protocols.len() * probs.len());
    for (pi, p) in protocols.iter().enumerate() {
        for (wi, &w) in probs.iter().enumerate() {
            let m = &seq.runs[pi * probs.len() + wi];
            assert_eq!(m.protocol, p.name());
            assert_eq!(m.write_prob, w);
        }
    }
}

/// Cells get seeds derived from their coordinates: two cells of the same
/// grid never share a random stream, and the derivation is stable.
#[test]
fn grid_cells_use_distinct_derived_seeds() {
    let base = quick().seed;
    let mut seeds = Vec::new();
    for p in [Protocol::Ps, Protocol::PsAa] {
        for w in [0.0, 0.1, 0.2] {
            seeds.push(cell_seed(base, p, w, "HOTCOLD"));
        }
    }
    let mut dedup = seeds.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), seeds.len(), "all cell seeds distinct");
}

/// HICON at low locality blocks and deadlocks constantly, and two cycles
/// through the same blocked transaction are common there. The victim must
/// not depend on hash order: the same cells run twice in one process
/// (where every hash table gets fresh random keys) must agree exactly.
#[test]
fn hicon_deadlock_victims_replay_within_a_process() {
    let sys = SystemConfig::default();
    let run = quick();
    let mut cells = Vec::new();
    for protocol in [Protocol::Ps, Protocol::PsAa] {
        for write_prob in [0.02, 0.05, 0.1] {
            cells.push(SweepCell {
                protocol,
                write_prob,
                spec: WorkloadSpec::hicon(Locality::Low, write_prob),
            });
        }
    }
    let first = run_cells(&cells, &sys, &run, 1);
    let second = run_cells(&cells, &sys, &run, 1);
    assert_eq!(first, second, "HICON cells must replay for a fixed seed");
    assert!(
        first.iter().any(|m| m.aborts > 0),
        "the grid actually deadlocked"
    );
    // Pinned when deadlock detection became ordered: a change to the
    // event calendar or the waits-for graph must reproduce it exactly.
    let last = first.last().expect("six cells");
    assert_eq!((last.commits, last.aborts), (118, 375), "PS-AA, w = 0.1");
}
