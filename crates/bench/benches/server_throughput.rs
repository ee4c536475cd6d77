//! Server-runtime throughput sweep: commits/second through the sharded,
//! pipelined server (worker pool + group commit) as the client count
//! grows, for PS and PS-AA — over both transports (in-process channels
//! and loopback TCP), so BENCH_server.json reports the cost of the wire
//! layer directly.
//!
//! Run via `cargo bench -p fgs-bench --bench server_throughput`.
//! Control with env:
//!   FGS_QUALITY=quick|full  transactions per client (default: full)
//!   FGS_REPS=N              measured repetitions per point (default: 3)
//!   FGS_RESULTS=results     output directory for BENCH_server.json
//!
//! Methodology: every point runs one unmeasured warmup pass (quarter
//! load, fresh engine) to fault in code paths and the allocator, then
//! `FGS_REPS` measured passes, each against a fresh engine. The report
//! carries the median pass (by commits/s) plus the min/max spread — a
//! single pass over a few hundred transactions is dominated by
//! scheduler noise on small machines, so never compare single-shot
//! numbers.
//!
//! Each client updates two objects on its private page and reads one
//! object of a shared page per transaction — enough write traffic to
//! exercise commit durability on every transaction while keeping lock
//! conflicts (which would measure the protocol, not the runtime) low.

use fgs_core::{Oid, PageId, Protocol};
use fgs_oodb::{EngineConfig, Oodb, StoreStats, TransportKind};
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

const DB_PAGES: u32 = 32;
const SHARED_PAGE: u32 = 31;
const CLIENT_COUNTS: [u16; 4] = [1, 4, 8, 16];

#[derive(Serialize)]
struct BenchPoint {
    protocol: String,
    transport: String,
    clients: u64,
    txns: u64,
    /// Measured repetitions behind the median/spread below.
    reps: u64,
    /// Elapsed seconds of the median rep.
    elapsed_s: f64,
    /// Median commits/s across reps; min/max give the observed spread.
    commits_per_s: f64,
    commits_per_s_min: f64,
    commits_per_s_max: f64,
    // Everything below describes the median rep.
    commits: u64,
    log_forces: u64,
    group_commit_batches: u64,
    piggybacked_commits: u64,
    /// Wall time each pipeline stage consumed, summed over workers.
    durability_ms: f64,
    protocol_ms: f64,
    dispatch_ms: f64,
    /// Protocol-lock contention: total wait-to-acquire and hold time.
    lock_wait_ms: f64,
    lock_hold_ms: f64,
    lock_acquisitions: u64,
    /// Server-side commit latency (durable + granted + dispatched).
    commit_p50_us: u64,
    commit_p99_us: u64,
    /// Mean inbound messages per protocol-lock acquisition.
    dispatch_batch_avg: f64,
    /// Mean envelopes per coalesced send (vectored write on TCP).
    send_batch_avg: f64,
}

#[derive(Serialize)]
struct BenchReport {
    bench: String,
    txns_per_client: u64,
    reps: u64,
    /// Logical CPUs of the measuring host. Numbers from differently
    /// shaped hosts are not comparable; the regression gate downgrades
    /// its verdict to a warning when this differs from the baseline's.
    host_cpus: u64,
    points: Vec<BenchPoint>,
}

fn config(protocol: Protocol, transport: TransportKind, clients: u16) -> EngineConfig {
    EngineConfig {
        protocol,
        db_pages: DB_PAGES,
        objects_per_page: 8,
        object_size: 64,
        page_size: 4096,
        n_clients: clients,
        client_cache_pages: 16,
        server_pool_pages: 64,
        server_workers: 4,
        paranoid: false,
        transport,
        txn_epoch: 0,
        chaos: None,
    }
}

fn transport_name(transport: TransportKind) -> &'static str {
    match transport {
        TransportKind::Channel => "channel",
        TransportKind::Tcp => "tcp",
    }
}

/// One measured pass: fresh engine, `txns_per_client` transactions per
/// client, returns (elapsed seconds, end-of-run stats).
fn run_pass(
    protocol: Protocol,
    transport: TransportKind,
    clients: u16,
    txns_per_client: u64,
) -> (f64, StoreStats) {
    let db = Arc::new(Oodb::open(config(protocol, transport, clients)).unwrap());
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let db = db.clone();
            scope.spawn(move || {
                let s = db.session(c);
                let own = PageId(u32::from(c) % (DB_PAGES - 1));
                for i in 0..txns_per_client {
                    s.run_txn(100, |txn| {
                        let payload = i.to_le_bytes().to_vec();
                        txn.write(Oid::new(own, (i % 8) as u16), payload.clone())?;
                        txn.write(Oid::new(own, ((i + 1) % 8) as u16), payload)?;
                        txn.read(Oid::new(PageId(SHARED_PAGE), c % 8))?;
                        Ok(())
                    })
                    .unwrap();
                }
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let stats = db.store_stats();
    db.check_server_invariants();
    (elapsed, stats)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn run_point(
    protocol: Protocol,
    transport: TransportKind,
    clients: u16,
    txns_per_client: u64,
    reps: u64,
) -> BenchPoint {
    // Warmup: quarter load, unmeasured, fresh engine — faults in lazy
    // init (thread pools, allocator arenas, TCP accept path) so the
    // first measured rep is not the odd one out.
    let warmup = (txns_per_client / 4).max(10);
    let _ = run_pass(protocol, transport, clients, warmup);

    let txns = u64::from(clients) * txns_per_client;
    let mut passes: Vec<(f64, StoreStats)> = (0..reps)
        .map(|_| run_pass(protocol, transport, clients, txns_per_client))
        .collect();
    // Median by throughput == median by elapsed (fixed work per pass).
    passes.sort_by(|a, b| a.0.total_cmp(&b.0));
    let rates: Vec<f64> = passes.iter().map(|(e, _)| txns as f64 / e).collect();
    let (elapsed, stats) = &passes[passes.len() / 2];

    BenchPoint {
        protocol: protocol.to_string(),
        transport: transport_name(transport).to_string(),
        clients: u64::from(clients),
        txns,
        reps,
        elapsed_s: *elapsed,
        commits_per_s: txns as f64 / elapsed,
        commits_per_s_min: rates.iter().copied().fold(f64::INFINITY, f64::min),
        commits_per_s_max: rates.iter().copied().fold(0.0, f64::max),
        commits: stats.commits,
        log_forces: stats.log_forces,
        group_commit_batches: stats.group_commit_batches,
        piggybacked_commits: stats.piggybacked_commits,
        durability_ms: ms(stats.durability_ns),
        protocol_ms: ms(stats.protocol_ns),
        dispatch_ms: ms(stats.dispatch_ns),
        lock_wait_ms: ms(stats.lock_wait_ns),
        lock_hold_ms: ms(stats.lock_hold_ns),
        lock_acquisitions: stats.lock_acquisitions,
        commit_p50_us: stats.commit_p50_us,
        commit_p99_us: stats.commit_p99_us,
        dispatch_batch_avg: ratio(stats.dispatch_batch_msgs, stats.dispatch_batches),
        send_batch_avg: ratio(stats.send_batch_msgs, stats.send_batches),
    }
}

fn main() {
    let txns_per_client: u64 = match std::env::var("FGS_QUALITY").as_deref() {
        Ok("quick") => 100,
        _ => 400,
    };
    let reps: u64 = std::env::var("FGS_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&r| r > 0)
        .unwrap_or(3);
    let mut points = Vec::new();
    for transport in [TransportKind::Channel, TransportKind::Tcp] {
        for protocol in [Protocol::Ps, Protocol::PsAa] {
            for clients in CLIENT_COUNTS {
                let p = run_point(protocol, transport, clients, txns_per_client, reps);
                println!(
                    "{:6} /{:7} {:2} clients: {:8.0} commits/s \
                     [{:.0}..{:.0} over {} reps] p50 {}us p99 {}us \
                     batch {:.1} in / {:.1} out, lock wait {:.1}ms hold {:.1}ms",
                    p.protocol,
                    p.transport,
                    p.clients,
                    p.commits_per_s,
                    p.commits_per_s_min,
                    p.commits_per_s_max,
                    p.reps,
                    p.commit_p50_us,
                    p.commit_p99_us,
                    p.dispatch_batch_avg,
                    p.send_batch_avg,
                    p.lock_wait_ms,
                    p.lock_hold_ms,
                );
                points.push(p);
            }
        }
    }
    let report = BenchReport {
        bench: "server_throughput".to_string(),
        txns_per_client,
        reps,
        host_cpus: std::thread::available_parallelism()
            .map(|n| n.get() as u64)
            .unwrap_or(0),
        points,
    };
    let out_dir = match std::env::var("FGS_RESULTS") {
        Ok(dir) => std::path::PathBuf::from(dir),
        Err(_) => std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."),
    };
    let path = out_dir.join("BENCH_server.json");
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
