//! The parallel sweep scheduler: fans independent sweep cells
//! (protocol × write probability × workload) across worker threads.
//!
//! Every figure in the paper is a sweep of mutually independent
//! simulation cells, so the executor is embarrassingly parallel by
//! construction — the engineering is in keeping it **bit-deterministic**
//! and bounded:
//!
//! * **Seeding** — each cell's RNG seed is derived from
//!   `(base_seed, protocol, write_prob, workload family)` by
//!   [`cell_seed`], never from execution order, so a cell's result is a
//!   pure function of its coordinates. Sequential and parallel runs (at
//!   any worker count) produce bit-identical metrics.
//! * **Scheduling** — workers claim cells from a shared atomic cursor
//!   (a lock-free injector queue over the fixed cell list); there is no
//!   work-order dependence to race on.
//! * **Bounded memory** — finished [`RunMetrics`] flow back over a
//!   bounded channel sized to the worker count, so a slow consumer
//!   throttles producers instead of buffering a whole figure.
//! * **Ordered assembly** — results are slotted back by cell index;
//!   callers always observe the sequential order.
//!
//! Thread-safety story: the scheduler shares only the immutable cell
//! list, one `AtomicUsize`, and an mpsc channel between threads. It
//! takes no locks, so the lock-order DAG enforced by fgs-lint is
//! unaffected.

use crate::config::{RunConfig, SystemConfig};
use crate::driver::Simulator;
use crate::metrics::RunMetrics;
use fgs_core::Protocol;
use fgs_simkernel::splitmix64;
use fgs_workload::WorkloadSpec;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// One independent simulation point of a sweep.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Protocol under test.
    pub protocol: Protocol,
    /// Per-object write probability (the figure's x-coordinate).
    pub write_prob: f64,
    /// The fully instantiated workload.
    pub spec: WorkloadSpec,
}

/// FNV-1a over a string, for folding protocol / family names into seeds.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Derives the RNG seed for one sweep cell from its coordinates.
///
/// The derivation depends only on `(base_seed, protocol, write_prob,
/// family)` — never on execution order or thread assignment — so the
/// sequential and parallel schedulers produce bit-identical metrics, and
/// distinct cells get statistically independent random streams instead
/// of replaying one seed across the whole grid.
pub fn cell_seed(base_seed: u64, protocol: Protocol, write_prob: f64, family: &str) -> u64 {
    let mut h = splitmix64(&mut { base_seed });
    h = splitmix64(&mut (h ^ fnv1a(protocol.name())));
    h = splitmix64(&mut (h ^ write_prob.to_bits()));
    h = splitmix64(&mut (h ^ fnv1a(family)));
    h
}

/// Resolves the sweep worker count: `FGS_SIM_WORKERS` if set (a value of
/// `1` forces the sequential path), else the machine's available
/// parallelism.
pub fn default_workers() -> usize {
    if let Ok(v) = std::env::var("FGS_SIM_WORKERS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs one cell with its derived seed.
fn run_cell(cell: &SweepCell, sys: &SystemConfig, run: &RunConfig) -> RunMetrics {
    let seeded = RunConfig {
        seed: cell_seed(run.seed, cell.protocol, cell.write_prob, cell.spec.name),
        ..run.clone()
    };
    Simulator::new(cell.protocol, cell.spec.clone(), sys.clone(), seeded).run()
}

/// Executes every cell and returns the metrics **in cell order**, using
/// up to `workers` threads. `workers <= 1` (or a single cell) runs
/// inline with zero thread overhead; the output is bit-identical either
/// way because each cell is a pure function of its coordinates and
/// derived seed.
pub fn run_cells(
    cells: &[SweepCell],
    sys: &SystemConfig,
    run: &RunConfig,
    workers: usize,
) -> Vec<RunMetrics> {
    let workers = workers.min(cells.len()).max(1);
    if workers == 1 {
        return cells.iter().map(|c| run_cell(c, sys, run)).collect();
    }
    let cursor = AtomicUsize::new(0);
    // Backpressure: at most ~2 finished-but-unassembled results per
    // worker in flight, so a huge grid never buffers unboundedly.
    let (tx, rx) = mpsc::sync_channel::<(usize, RunMetrics)>(workers * 2);
    let mut results: Vec<Option<RunMetrics>> = Vec::new();
    results.resize_with(cells.len(), || None);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let cursor = &cursor;
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(i) else { break };
                let m = run_cell(cell, sys, run);
                if tx.send((i, m)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        // Assemble in order as results stream in; the channel closes
        // when the last worker exits (normally or by panic — a worker
        // panic propagates when the scope joins).
        while let Ok((i, m)) = rx.recv() {
            results[i] = Some(m);
        }
    });
    results
        .into_iter()
        .map(|m| m.expect("every cell completed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_seed_is_stable_and_sensitive() {
        let base = 0xF65_1994;
        let a = cell_seed(base, Protocol::PsAa, 0.1, "HOTCOLD");
        assert_eq!(a, cell_seed(base, Protocol::PsAa, 0.1, "HOTCOLD"));
        for (p, w, f) in [
            (Protocol::Ps, 0.1, "HOTCOLD"),
            (Protocol::PsAa, 0.2, "HOTCOLD"),
            (Protocol::PsAa, 0.1, "UNIFORM"),
        ] {
            assert_ne!(a, cell_seed(base, p, w, f), "{p} {w} {f}");
        }
        assert_ne!(a, cell_seed(base + 1, Protocol::PsAa, 0.1, "HOTCOLD"));
    }

    #[test]
    fn workers_env_override_parses() {
        // Only exercises the parse path indirectly; the env itself is
        // process-global, so don't mutate it here.
        assert!(default_workers() >= 1);
    }
}
