//! A stable, timestamped event queue.
//!
//! [`EventQueue`] is a min-heap keyed by `(SimTime, sequence)`. The sequence
//! number makes ordering *stable*: two events scheduled for the same instant
//! pop in the order they were pushed, which keeps simulations deterministic
//! regardless of heap internals.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
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
        // BinaryHeap is a max-heap; reverse to get earliest-first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A priority queue of events ordered by virtual timestamp with FIFO
/// tie-breaking.
pub(crate) struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub(crate) fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` at virtual instant `at`.
    pub(crate) fn push(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Removes and returns the earliest event together with its timestamp.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.at, e.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(30), "c");
        q.push(SimTime::from_millis(10), "a");
        q.push(SimTime::from_millis(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    /// Popping always yields non-decreasing timestamps, and every pushed
    /// event comes back exactly once.
    #[test]
    fn prop_pop_order_sorted() {
        testkit::check(64, |g| {
            let times = g.vec(0..200, |g| g.u64_in(0..1_000));
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_nanos(t), i);
            }
            let mut last = SimTime::ZERO;
            let mut seen = vec![false; times.len()];
            while let Some((at, idx)) = q.pop() {
                assert!(at >= last);
                last = at;
                assert!(!seen[idx]);
                seen[idx] = true;
            }
            assert!(seen.iter().all(|&s| s));
        });
    }

    /// FIFO tie-break: among events with equal timestamps, indices ascend.
    #[test]
    fn prop_fifo_within_timestamp() {
        testkit::check(64, |g| {
            let times = g.vec(0..100, |g| g.u64_in(0..5));
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_nanos(t), i);
            }
            let mut last_per_time: std::collections::HashMap<u64, usize> = Default::default();
            while let Some((at, idx)) = q.pop() {
                if let Some(&prev) = last_per_time.get(&at.as_nanos()) {
                    assert!(idx > prev);
                }
                last_per_time.insert(at.as_nanos(), idx);
            }
        });
    }
}
