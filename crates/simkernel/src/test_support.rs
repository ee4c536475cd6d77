//! Reference implementations for tests and benchmarks that check the
//! kernel against what it replaced.

use crate::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct HeapEntry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for HeapEntry<E> {}
impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The binary-heap event calendar the calendar queue
/// ([`Calendar`](crate::Calendar)) replaced, with its semantics
/// verbatim: a max-heap inverted to a min-heap, FIFO tie-break on a
/// schedule counter, clock advanced on pop, past scheduling panics.
/// Cancellation is lazy (a tombstone list), which is observationally
/// equivalent; a calendar that never cancels pays nothing for it.
pub struct HeapCalendar<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    cancelled: Vec<u64>,
    now: SimTime,
    seq: u64,
}

impl<E> Default for HeapCalendar<E> {
    fn default() -> Self {
        HeapCalendar {
            heap: BinaryHeap::new(),
            cancelled: Vec::new(),
            now: SimTime::ZERO,
            seq: 0,
        }
    }
}

impl<E> HeapCalendar<E> {
    /// An empty calendar at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The simulation clock: the time of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at `time` and returns its id (the schedule
    /// counter). Panics if `time` is before [`now`](Self::now).
    pub fn schedule(&mut self, time: SimTime, event: E) -> u64 {
        assert!(time >= self.now, "scheduling into the past");
        let id = self.seq;
        self.heap.push(HeapEntry {
            time,
            seq: self.seq,
            event,
        });
        self.seq += 1;
        id
    }

    /// Pops the earliest live event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            let entry = self.heap.pop()?;
            if let Some(i) = self.cancelled.iter().position(|&s| s == entry.seq) {
                self.cancelled.swap_remove(i);
                continue;
            }
            self.now = entry.time;
            return Some((entry.time, entry.event));
        }
    }

    /// Cancels the event with id `seq`; `false` if it already fired or
    /// was cancelled.
    pub fn cancel(&mut self, seq: u64) -> bool {
        let live = self.heap.iter().any(|e| e.seq == seq) && !self.cancelled.contains(&seq);
        if live {
            self.cancelled.push(seq);
        }
        live
    }

    /// Live (scheduled, not yet popped or cancelled) events.
    pub fn len(&self) -> usize {
        self.heap.len() - self.cancelled.len()
    }

    /// Whether no live event is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
