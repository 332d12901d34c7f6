//! Per-thread virtual time for concurrent experiment drivers.
//!
//! The parallel-request experiments (Fig. 12(b) and the contention benches)
//! exercise the real HotC pool from many OS threads. Those drivers do not use
//! the single-threaded [`crate::Simulation`]; instead each worker owns a
//! [`ThreadTimeline`] and advances it by the virtual cost of each operation
//! it performs. Parallel work overlaps in virtual time, so an experiment's
//! notion of "now" is the maximum across timelines, mirroring wall-clock
//! semantics of parallel execution.

use crate::time::{SimDuration, SimTime};

/// A per-thread virtual timeline layered over a shared experiment start time.
///
/// Each worker thread owns one timeline; parallel virtual work advances only
/// that timeline. The experiment's elapsed virtual time is the max over all
/// timelines.
#[derive(Debug, Clone)]
pub struct ThreadTimeline {
    now: SimTime,
}

impl ThreadTimeline {
    /// Starts a timeline at the given instant.
    pub fn starting_at(t: SimTime) -> Self {
        ThreadTimeline { now: t }
    }

    /// This thread's current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances this thread's timeline by `d` and returns the new time.
    pub fn advance(&mut self, d: SimDuration) -> SimTime {
        self.now += d;
        self.now
    }

    /// Waits until at least `t` (models blocking on a resource that becomes
    /// free at `t` on another timeline).
    pub fn wait_until(&mut self, t: SimTime) {
        if t > self.now {
            self.now = t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timelines_model_parallel_work() {
        let start = SimTime::from_secs(1);
        let mut a = ThreadTimeline::starting_at(start);
        let mut b = ThreadTimeline::starting_at(start);
        a.advance(SimDuration::from_secs(3));
        b.advance(SimDuration::from_secs(5));
        // Parallel work completes when the slowest thread does.
        assert_eq!(a.now().max(b.now()), SimTime::from_secs(6));
    }

    #[test]
    fn wait_until_only_moves_forward() {
        let mut t = ThreadTimeline::starting_at(SimTime::from_secs(10));
        t.wait_until(SimTime::from_secs(5));
        assert_eq!(t.now(), SimTime::from_secs(10));
        t.wait_until(SimTime::from_secs(15));
        assert_eq!(t.now(), SimTime::from_secs(15));
    }
}
