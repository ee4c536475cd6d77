//! Differential and property tests for the calendar-queue event engine:
//! random interleavings of schedule / pop / cancel are replayed against
//! the reference binary-heap calendar (`test_support::HeapCalendar`, the
//! implementation the queue replaced), and every observable — pop order, timestamps, clock,
//! length, stale-id handling — must match exactly.

use fgs_simkernel::test_support::HeapCalendar;
use fgs_simkernel::{Calendar, EventId, SimTime};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Script interpreter: both implementations execute the same random
// operation sequence.
// ---------------------------------------------------------------------

/// One scripted operation. Times are microsecond offsets from `now` so
/// every schedule is legal; `Tie` reuses the exact previous timestamp to
/// stress FIFO ordering; `Cancel` indexes into the ids issued so far
/// (hitting both live and stale ones).
#[derive(Debug, Clone)]
enum Op {
    /// Schedule at `now + us`; large offsets land in the overflow heap.
    Schedule {
        us: u32,
    },
    /// Schedule at exactly the last scheduled timestamp (if still >= now).
    Tie,
    Pop,
    /// Cancel the (i % issued)-th id ever issued.
    Cancel {
        i: u16,
    },
}

/// The vendored proptest's `prop_oneof!` is homogeneous, so operations
/// are generated as raw `(kind, offset, index)` tuples and decoded:
/// kind 0-1 → near schedule, 2 → far schedule (overflow territory),
/// 3 → tie, 4-5 → pop, 6 → cancel.
fn decode(raw: &[(u8, u32, u16)]) -> Vec<Op> {
    raw.iter()
        .map(|&(kind, us, i)| match kind % 7 {
            // Mostly sub-millisecond gaps (the simulator's regime), with
            // a tail of far-future events that exercise overflow and
            // bucket-resize boundaries.
            0 | 1 => Op::Schedule { us: us % 2_000 },
            2 => Op::Schedule {
                us: 100_000 + us % 50_000_000,
            },
            3 => Op::Tie,
            4 | 5 => Op::Pop,
            _ => Op::Cancel { i },
        })
        .collect()
}

fn ops() -> impl Strategy<Value = Vec<(u8, u32, u16)>> {
    prop::collection::vec((any::<u8>(), any::<u32>(), any::<u16>()), 1..400)
}

fn run_script(script: &[Op]) {
    let mut cq: Calendar<u64> = Calendar::new();
    let mut heap: HeapCalendar<u64> = HeapCalendar::new();
    let mut ids: Vec<(EventId, u64)> = Vec::new(); // (queue id, heap seq)
    let mut last_time: Option<SimTime> = None;
    let mut payload = 0u64;
    for op in script {
        match *op {
            Op::Schedule { us } => {
                let t = cq.now() + fgs_simkernel::Duration::from_secs(f64::from(us) * 1e-6);
                let a = cq.schedule(t, payload);
                let b = heap.schedule(t, payload);
                ids.push((a, b));
                last_time = Some(t);
                payload += 1;
            }
            Op::Tie => {
                if let Some(t) = last_time.filter(|&t| t >= cq.now()) {
                    let a = cq.schedule(t, payload);
                    let b = heap.schedule(t, payload);
                    ids.push((a, b));
                    payload += 1;
                }
            }
            Op::Pop => {
                let got = cq.pop();
                let want = heap.pop();
                assert_eq!(got, want, "pop diverged");
                assert_eq!(cq.now(), heap.now(), "clock diverged");
            }
            Op::Cancel { i } => {
                if !ids.is_empty() {
                    let (a, b) = ids[i as usize % ids.len()];
                    let got = cq.cancel(a).is_some();
                    let want = heap.cancel(b);
                    assert_eq!(got, want, "cancel liveness diverged for {a:?}");
                }
            }
        }
        assert_eq!(cq.len(), heap.len(), "length diverged");
        assert_eq!(cq.is_empty(), heap.is_empty());
    }
    // Drain both completely: residual order must match too.
    loop {
        let got = cq.pop();
        let want = heap.pop();
        assert_eq!(got, want, "drain diverged");
        if got.is_none() {
            break;
        }
    }
}

proptest! {
    /// Randomized differential: the calendar queue and the reference heap
    /// agree on every observable for arbitrary schedule/tie/pop/cancel
    /// interleavings.
    #[test]
    fn calendar_queue_matches_heap(raw in ops()) {
        run_script(&decode(&raw));
    }
}

/// A long deterministic hold-model run (the simulator's steady state):
/// enough events to cross several grow boundaries on the way up and
/// shrink boundaries on the way down.
#[test]
fn hold_model_crosses_resize_boundaries() {
    let mut script = Vec::new();
    for i in 0..3_000u32 {
        script.push(Op::Schedule {
            us: (i * 37) % 5_000,
        });
        if i % 16 == 0 {
            script.push(Op::Schedule {
                us: 1_000_000 + i * 101,
            });
        }
    }
    for i in 0..3_000u32 {
        script.push(Op::Pop);
        if i % 3 == 0 {
            script.push(Op::Schedule {
                us: (i * 53) % 2_500,
            });
        }
        if i % 7 == 0 {
            script.push(Op::Cancel { i: i as u16 });
        }
    }
    run_script(&script);
}

/// Mass ties: thousands of events at identical timestamps interleaved
/// with pops must preserve global FIFO order.
#[test]
fn mass_ties_stay_fifo() {
    let mut script = Vec::new();
    for _ in 0..50 {
        script.push(Op::Schedule { us: 500 });
        for _ in 0..40 {
            script.push(Op::Tie);
        }
        for _ in 0..30 {
            script.push(Op::Pop);
        }
    }
    run_script(&script);
}

/// The schedule-in-the-past panic survives the reimplementation.
#[test]
#[should_panic(expected = "scheduling into the past")]
fn past_scheduling_still_panics() {
    let mut cal: Calendar<()> = Calendar::new();
    cal.schedule(SimTime::from_secs(5.0), ());
    cal.pop();
    cal.schedule(SimTime::from_secs(1.0), ());
}
