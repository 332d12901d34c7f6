//! Vector clocks for the model checker's happens-before tracking.
//!
//! One component per virtual thread, grown on demand (threads are spawned
//! during a run). A thread's own component counts its events; joins take the
//! componentwise maximum, which is exactly the happens-before union.

/// A grow-on-demand vector clock indexed by virtual thread id.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VClock {
    ticks: Vec<u32>,
}

impl VClock {
    /// The all-zero clock (happens-before everything).
    pub fn new() -> VClock {
        VClock::default()
    }

    /// The component for thread `tid` (0 if never ticked).
    pub fn get(&self, tid: usize) -> u32 {
        self.ticks.get(tid).copied().unwrap_or(0)
    }

    /// Advances `tid`'s own component by one event and returns the new value.
    pub fn tick(&mut self, tid: usize) -> u32 {
        if self.ticks.len() <= tid {
            self.ticks.resize(tid + 1, 0);
        }
        self.ticks[tid] += 1;
        self.ticks[tid]
    }

    /// Componentwise maximum: after `self.join(other)`, everything that
    /// happened-before `other` also happens-before `self`.
    pub fn join(&mut self, other: &VClock) {
        if self.ticks.len() < other.ticks.len() {
            self.ticks.resize(other.ticks.len(), 0);
        }
        for (mine, theirs) in self.ticks.iter_mut().zip(other.ticks.iter()) {
            *mine = (*mine).max(*theirs);
        }
    }

    /// Whether the event `(tid, tick)` happens-before (or is) this clock's
    /// current point — i.e. this clock has observed it.
    pub(crate) fn observed(&self, tid: usize, tick: u32) -> bool {
        self.get(tid) >= tick
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_join_observed() {
        let mut a = VClock::new();
        let mut b = VClock::new();
        assert_eq!(a.tick(0), 1);
        assert_eq!(a.tick(0), 2);
        assert_eq!(b.tick(3), 1);
        assert!(!b.observed(0, 1), "b has not seen a's events");
        b.join(&a);
        assert!(b.observed(0, 2));
        assert!(b.observed(3, 1));
        assert!(!b.observed(0, 3));
        assert!(a.observed(1, 0), "tick 0 is vacuously observed");
    }
}
