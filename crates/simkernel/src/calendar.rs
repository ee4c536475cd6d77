//! The event calendar: a time-ordered queue of future events.
//!
//! A binary heap of `(time, seq)` entries, as the paper's model specifies
//! ("time-ordered heap, FIFO tie-break"). The schedule counter `seq`
//! breaks ties between simultaneous events in scheduling order. The
//! simulator keeps a few dozen events pending at most (one or two per
//! client and resource), where `O(log n)` is a handful of comparisons.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One pending event. Ordered so the max-heap pops the earliest
/// `(time, seq)` first.
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A time-ordered event queue with FIFO tie-breaking.
///
/// The calendar owns the simulation clock: [`Calendar::pop`] advances `now`
/// to the fired event's timestamp. Scheduling an event in the past panics,
/// which catches causality bugs early.
pub struct Calendar<E> {
    heap: BinaryHeap<Entry<E>>,
    now: SimTime,
    seq: u64,
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Calendar<E> {
    /// An empty calendar with the clock at time zero.
    pub fn new() -> Self {
        Calendar {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
        }
    }

    /// The current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire at `time`. Panics if `time` is in the past.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "scheduling into the past: {} < {}",
            time,
            self.now
        );
        self.heap.push(Entry {
            time,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the calendar is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Entry { time, event, .. } = self.heap.pop()?;
        self.now = time;
        Some((time, event))
    }

    /// The timestamp of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether there are no pending events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_secs(3.0), "c");
        cal.schedule(SimTime::from_secs(1.0), "a");
        cal.schedule(SimTime::from_secs(2.0), "b");
        let order: Vec<&str> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut cal = Calendar::new();
        let t = SimTime::from_secs(1.0);
        for i in 0..100 {
            cal.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_secs(5.0), ());
        assert_eq!(cal.now(), SimTime::ZERO);
        cal.pop();
        assert_eq!(cal.now(), SimTime::from_secs(5.0));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn rejects_past_events() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_secs(5.0), ());
        cal.pop();
        cal.schedule(SimTime::from_secs(1.0), ());
    }

    #[test]
    fn peek_matches_pop() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_secs(2.0), 1);
        cal.schedule(SimTime::from_secs(1.0), 2);
        assert_eq!(cal.peek_time(), Some(SimTime::from_secs(1.0)));
        assert_eq!(cal.len(), 2);
        cal.pop();
        assert_eq!(cal.peek_time(), Some(SimTime::from_secs(2.0)));
    }

    #[test]
    fn earlier_arrival_after_peek_fires_first() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_secs(10.0), "late");
        assert_eq!(cal.peek_time(), Some(SimTime::from_secs(10.0)));
        cal.schedule(SimTime::from_secs(0.5), "early");
        assert_eq!(cal.pop().map(|(_, e)| e), Some("early"));
        assert_eq!(cal.pop().map(|(_, e)| e), Some("late"));
    }

    #[test]
    fn far_future_events_overflow_and_return() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_secs(1_000.0), "far");
        cal.schedule(SimTime::from_secs(0.001), "near");
        assert_eq!(cal.pop().map(|(_, e)| e), Some("near"));
        assert_eq!(cal.pop().map(|(_, e)| e), Some("far"));
        assert!(cal.pop().is_none());
    }
}
