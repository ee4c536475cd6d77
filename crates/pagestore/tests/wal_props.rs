//! Property tests for the WAL's group-commit force primitive:
//! `force_up_to(lsn)` must be **idempotent** (a second force of the same
//! LSN is never physical) and **monotone** (the durable horizon never
//! retreats) — both sequentially over arbitrary append/force/flush
//! programs and under concurrent callers racing on one log.

use fgs_core::{ClientId, TxnId};
use fgs_pagestore::{LogRecord, Lsn, Wal, WalHold};
use proptest::prelude::*;
use std::sync::Arc;
use std::thread;

/// One step of a WAL program. Force targets index into the list of LSNs
/// returned by earlier appends (modulo whatever exists at run time).
#[derive(Debug, Clone, Copy)]
enum Op {
    Append { payload: u8 },
    ForceAppended { index: usize },
    Flush,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    // (kind, value): half the steps append, the rest mostly force with an
    // occasional full flush. The vendored prop_oneof! is homogeneous, so
    // encode the choice in a tuple instead.
    prop::collection::vec(
        (0u8..8, 0u64..256).prop_map(|(kind, value)| match kind {
            0..=3 => Op::Append {
                payload: value as u8,
            },
            4..=6 => Op::ForceAppended {
                index: value as usize,
            },
            _ => Op::Flush,
        }),
        1..60,
    )
}

fn append(wal: &Wal, client: u16, payload: u8) -> Lsn {
    wal.append(&LogRecord::Update {
        txn: TxnId::new(ClientId(client), 1),
        oid: fgs_core::Oid::new(fgs_core::PageId(u32::from(payload)), 0),
        before: vec![],
        after: vec![payload],
    })
}

/// Runs a program against `wal`, checking force semantics at every step.
/// Safe to run from several threads at once: every assertion holds under
/// interference because the horizon is global and monotone.
fn run_program(wal: &Wal, client: u16, program: &[Op]) {
    let mut lsns: Vec<Lsn> = Vec::new();
    let mut last_seen_flushed = 0;
    for op in program {
        match *op {
            Op::Append { payload } => lsns.push(append(wal, client, payload)),
            Op::ForceAppended { index } => {
                if lsns.is_empty() {
                    continue;
                }
                let lsn = lsns[index % lsns.len()];
                wal.force_up_to(lsn);
                // Coverage: on return the record at `lsn` is durable, no
                // matter which caller performed the physical force.
                assert!(wal.flushed() > lsn, "force_up_to({lsn}) left it unforced");
                // Idempotence: an immediate re-force of the same LSN is
                // never physical — the horizon is already past it and can
                // never retreat, even if other threads appended meanwhile.
                assert!(
                    !wal.force_up_to(lsn),
                    "second force_up_to({lsn}) claimed to be physical"
                );
            }
            Op::Flush => {
                wal.flush();
            }
        }
        // Monotonicity: the horizon observed by this thread never
        // retreats across any pair of its own observations.
        let now = wal.flushed();
        assert!(
            now >= last_seen_flushed,
            "flushed went backwards: {last_seen_flushed} -> {now}"
        );
        last_seen_flushed = now;
    }
}

/// One step of a *staged* WAL program, driving the double-buffered
/// force-cycle API (`seal` / `write_sealed` / `force_written`) plus chaos
/// holds, the way the server's committing runs and the harness do.
#[derive(Debug, Clone, Copy)]
enum StagedOp {
    /// Append a commit record for a fresh transaction.
    Commit,
    /// Append a filler update record (commit-data traffic).
    Update {
        payload: u8,
    },
    /// One force-cycle stage.
    Seal,
    WriteSealed,
    /// Force: every commit whose record end is covered by the returned
    /// watermark becomes *acked* — the completion router's release rule.
    ForceWritten,
    /// The synchronous path (checkpoint/abort), which collapses stages.
    Flush,
    /// Engage or release a chaos freeze point.
    Hold {
        which: u8,
    },
}

fn staged_ops() -> impl Strategy<Value = Vec<StagedOp>> {
    prop::collection::vec(
        (0u8..16, 0u64..256).prop_map(|(kind, value)| match kind {
            0..=4 => StagedOp::Commit,
            5..=7 => StagedOp::Update {
                payload: value as u8,
            },
            8..=9 => StagedOp::Seal,
            10..=11 => StagedOp::WriteSealed,
            12..=13 => StagedOp::ForceWritten,
            14 => StagedOp::Flush,
            _ => StagedOp::Hold {
                which: (value % 4) as u8,
            },
        }),
        1..80,
    )
}

proptest! {
    /// The asynchronous-durability safety property, end to end: however
    /// a staged program interleaves appends, cycle stages, synchronous
    /// flushes and chaos holds, a crash image with an arbitrary torn
    /// tail (`crash_bytes(extra)`) replays **every commit whose ack the
    /// completion router would have released** (watermark past its
    /// record end). Ghost commits may appear; acked ones may not vanish.
    #[test]
    fn torn_shadow_tail_never_loses_an_acked_commit(
        program in staged_ops(),
        extra in 0usize..256,
    ) {
        let wal = Wal::new();
        let mut next_txn = 1u64;
        // (txn seq, record end offset) of every appended commit.
        let mut commits: Vec<(u64, Lsn)> = Vec::new();
        let mut acked: Vec<u64> = Vec::new();
        let ack_up_to = |commits: &[(u64, Lsn)], durable: u64, acked: &mut Vec<u64>| {
            for &(txn, end) in commits {
                if end <= durable && !acked.contains(&txn) {
                    acked.push(txn);
                }
            }
        };
        for op in &program {
            match *op {
                StagedOp::Commit => {
                    let txn = next_txn;
                    next_txn += 1;
                    wal.append(&LogRecord::Commit {
                        txn: TxnId::new(ClientId(0), txn),
                    });
                    commits.push((txn, wal.len()));
                }
                StagedOp::Update { payload } => {
                    append(&wal, 0, payload);
                }
                StagedOp::Seal => {
                    wal.seal();
                }
                StagedOp::WriteSealed => {
                    wal.write_sealed();
                }
                StagedOp::ForceWritten => {
                    let durable = wal.force_written();
                    ack_up_to(&commits, durable, &mut acked);
                }
                StagedOp::Flush => {
                    let durable = wal.flush();
                    ack_up_to(&commits, durable, &mut acked);
                }
                StagedOp::Hold { which } => {
                    wal.set_hold(match which {
                        0 => WalHold::None,
                        1 => WalHold::BeforeSeal,
                        2 => WalHold::BeforeWrite,
                        _ => WalHold::BeforeForce,
                    });
                }
            }
            // The watermark may never outrun an ack the router would
            // withhold: everything acked is within the durable prefix.
            let durable = wal.flushed();
            for &txn in &acked {
                let (_, end) = commits.iter().find(|(t, _)| *t == txn).expect("acked commit");
                prop_assert!(*end <= durable);
            }
        }
        // Crash with a torn tail cut anywhere into the written-not-forced
        // remainder, the sealed shadow buffer, and the active buffer.
        let crashed = Wal::from_bytes(wal.crash_bytes(extra));
        let survived: Vec<u64> = crashed
            .replay()
            .into_iter()
            .filter_map(|(_, rec)| match rec {
                LogRecord::Commit { txn } => Some(txn.seq),
                _ => None,
            })
            .collect();
        for txn in &acked {
            prop_assert!(
                survived.contains(txn),
                "acked commit {txn} vanished from the crash image (extra={extra})"
            );
        }
    }

    /// Sequential oracle: arbitrary programs keep the horizon monotone,
    /// forces physical-exactly-when-advancing, and the durable prefix
    /// replayable.
    #[test]
    fn force_is_idempotent_and_monotone_sequentially(program in ops()) {
        let wal = Wal::new();
        run_program(&wal, 0, &program);
        // Accounting: never more physical forces than force/flush calls,
        // and the horizon never outruns the appended bytes.
        assert!(wal.flushed() <= wal.len());
        // The durable prefix replays record-for-record (no torn records
        // from force/append interleaving).
        let replayed = wal.replay();
        for (lsn, _) in &replayed {
            assert!(*lsn < wal.flushed());
        }
    }

    /// Concurrent callers: three threads race independent programs on one
    /// log. Every per-call contract from the sequential case must survive
    /// interference, and the final log must replay every surviving append.
    #[test]
    fn force_contracts_hold_under_concurrent_callers(
        a in ops(), b in ops(), c in ops()
    ) {
        let wal = Arc::new(Wal::new());
        let programs = [a, b, c];
        let total_appends: usize = programs
            .iter()
            .flatten()
            .filter(|op| matches!(op, Op::Append { .. }))
            .count();
        let handles: Vec<_> = programs
            .into_iter()
            .enumerate()
            .map(|(i, program)| {
                let wal = Arc::clone(&wal);
                thread::spawn(move || run_program(&wal, i as u16, &program))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        wal.flush();
        let replayed = wal.replay();
        assert_eq!(replayed.len(), total_appends, "no append lost or torn");
        // Every record in the durable prefix decodes; LSNs strictly
        // increase (appends serialized under the WAL lock, no tearing).
        let mut prev: Option<Lsn> = None;
        for (lsn, _) in &replayed {
            if let Some(p) = prev {
                assert!(*lsn > p, "replay LSNs not strictly increasing");
            }
            prev = Some(*lsn);
        }
        assert_eq!(wal.flushed(), wal.len(), "final flush covers the log");
    }
}
