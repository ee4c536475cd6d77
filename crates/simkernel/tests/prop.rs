//! Property tests for the simulation kernel's resources: work
//! conservation, FIFO discipline, and the calendar's pop order and clock
//! against a naive oracle under random schedules.

use fgs_simkernel::{Calendar, Cpu, CpuClass, Duration, FifoServer, SimTime};
use proptest::prelude::*;

/// Random (arrival offset ms, instructions, is_system) job descriptions.
fn jobs() -> impl Strategy<Value = Vec<(u32, u32, bool)>> {
    prop::collection::vec((0u32..2_000, 1u32..2_000_000, any::<bool>()), 1..40)
}

/// Raw `(kind, offset µs)` calendar operations; the vendored proptest's
/// `prop_oneof!` is homogeneous, so the test decodes them.
fn calendar_ops() -> impl Strategy<Value = Vec<(u8, u32)>> {
    prop::collection::vec((any::<u8>(), any::<u32>()), 1..400)
}

/// Removes and returns the oracle's next event: the least `(time,
/// scheduling index)`.
fn oracle_pop(pending: &mut Vec<(SimTime, usize)>) -> Option<(SimTime, usize)> {
    let i = (0..pending.len()).min_by(|&a, &b| pending[a].cmp(&pending[b]))?;
    Some(pending.swap_remove(i))
}

proptest! {
    /// Every submitted CPU job completes exactly once; busy time equals
    /// total work divided by speed (work conservation: the CPU is never
    /// idle while jobs are queued, never busy while empty); system jobs
    /// finish in FIFO order.
    #[test]
    fn cpu_conserves_work(descr in jobs()) {
        let mips = 10.0;
        let mut cpu = Cpu::new(mips);
        let mut cal: Calendar<u64> = Calendar::new();
        // Sort arrivals; submit via arrival events encoded as tokens with
        // the high bit set.
        let mut arrivals = descr.clone();
        arrivals.sort_by_key(|a| a.0);
        for (i, &(at_ms, _, _)) in arrivals.iter().enumerate() {
            cal.schedule(SimTime::from_millis(f64::from(at_ms)), (1 << 40) | i as u64);
        }
        let mut done: Vec<u64> = Vec::new();
        let mut system_submitted: Vec<u64> = Vec::new();
        while let Some((now, ev)) = cal.pop() {
            if ev & (1 << 40) != 0 {
                let i = (ev & 0xFFFF_FFFF) as usize;
                let (_, inst, is_system) = arrivals[i];
                let class = if is_system { CpuClass::System } else { CpuClass::User };
                if is_system {
                    system_submitted.push(i as u64);
                }
                cpu.submit(now, i as u64, f64::from(inst), class);
                if let Some((t, generation)) = cpu.completion_event(now) {
                    cal.schedule(t.max(now), generation << 41 | (1 << 39));
                }
            } else if ev & (1 << 39) != 0 {
                let generation = ev >> 41;
                if let Some(finished) = cpu.complete(now, generation) {
                    done.extend(finished);
                    if let Some((t, generation)) = cpu.completion_event(now) {
                        cal.schedule(t.max(now), generation << 41 | (1 << 39));
                    }
                }
            }
        }
        prop_assert_eq!(done.len(), arrivals.len(), "every job completes once");
        let total_inst: f64 = arrivals.iter().map(|a| f64::from(a.1)).sum();
        let busy = cpu.busy_time().as_secs();
        prop_assert!(
            (busy - total_inst / (mips * 1e6)).abs() < 1e-6,
            "work conservation: busy {} vs {}", busy, total_inst / (mips * 1e6)
        );
        // System jobs complete in submission order.
        let sys_done: Vec<u64> = done
            .iter()
            .copied()
            .filter(|t| system_submitted.contains(t))
            .collect();
        prop_assert_eq!(sys_done, system_submitted);
    }

    /// FIFO server: completions are ordered, spaced by at least the
    /// service times, and busy time is the sum of service demands.
    #[test]
    fn fifo_server_is_work_conserving(
        reqs in prop::collection::vec((0u32..5_000, 1u32..500), 1..50),
    ) {
        let mut reqs = reqs;
        reqs.sort_by_key(|r| r.0);
        let mut server = FifoServer::new();
        let mut last_done = SimTime::ZERO;
        let mut total = 0.0;
        for &(at_ms, service_ms) in &reqs {
            let now = SimTime::from_millis(f64::from(at_ms));
            let done = server.submit(now, Duration::from_millis(f64::from(service_ms)));
            prop_assert!(done >= last_done, "FIFO completions are ordered");
            prop_assert!(done >= now + Duration::from_millis(f64::from(service_ms)));
            last_done = done;
            total += f64::from(service_ms) / 1e3;
        }
        prop_assert!((server.busy_time().as_secs() - total).abs() < 1e-9);
        prop_assert_eq!(server.served(), reqs.len() as u64);
    }

    /// Random interleavings of schedule (at an offset from `now`, near or
    /// far), exact-tie and pop operations, checked step by step against a
    /// naive oracle: every pop returns the pending event with the least
    /// `(time, scheduling order)`, and `now()` and `len()` agree after
    /// every operation.
    #[test]
    fn calendar_orders_random_schedules(ops in calendar_ops()) {
        let mut cal: Calendar<usize> = Calendar::new();
        // Oracle: pending (time, scheduling index) pairs, unordered.
        let mut pending: Vec<(SimTime, usize)> = Vec::new();
        let mut scheduled = 0usize;
        let mut last_time: Option<SimTime> = None;
        let mut now = SimTime::ZERO;
        for &(kind, offset) in &ops {
            match kind % 6 {
                // Mostly sub-2 ms gaps, the simulator's regime, with a
                // tail of far-future events.
                0..=2 => {
                    let us = if kind % 6 == 2 {
                        100_000 + offset % 50_000_000
                    } else {
                        offset % 2_000
                    };
                    let t = now + Duration::from_secs(f64::from(us) * 1e-6);
                    cal.schedule(t, scheduled);
                    pending.push((t, scheduled));
                    scheduled += 1;
                    last_time = Some(t);
                }
                3 => {
                    if let Some(t) = last_time.filter(|&t| t >= now) {
                        cal.schedule(t, scheduled);
                        pending.push((t, scheduled));
                        scheduled += 1;
                    }
                }
                _ => {
                    let want = oracle_pop(&mut pending);
                    prop_assert_eq!(cal.pop(), want, "pop disagrees with the oracle");
                    if let Some((t, _)) = want {
                        now = t;
                    }
                }
            }
            prop_assert_eq!(cal.now(), now);
            prop_assert_eq!(cal.len(), pending.len());
            prop_assert_eq!(cal.is_empty(), pending.is_empty());
        }
        loop {
            let want = oracle_pop(&mut pending);
            prop_assert_eq!(cal.pop(), want, "drain disagrees with the oracle");
            let Some((t, _)) = want else { break };
            prop_assert_eq!(cal.now(), t);
            prop_assert_eq!(cal.len(), pending.len());
        }
    }
}
