//! Per-node load index: in-flight counts plus power-of-two-choices.
//!
//! Replaces the old `least_loaded()` full min-scan, which walked every node
//! *and* allocated a tie `Vec` per placement. The index keeps the running
//! total so the overload-guard mean is O(1), and picks nodes by
//! power-of-two-choices: sample two nodes uniformly, keep the less loaded.
//! P2C's max-load bound (`log log n` above the mean, Azar et al.) is enough
//! for placement; a 1024-host decision costs two RNG draws and two loads
//! instead of a 1024-element scan.

use simclock::SimRng;

/// In-flight request counts per node, with the running total.
#[derive(Debug, Clone)]
pub(crate) struct LoadIndex {
    loads: Vec<u32>,
    total: u64,
}

impl LoadIndex {
    /// An all-idle index over `nodes` nodes.
    pub(crate) fn new(nodes: usize) -> Self {
        LoadIndex {
            loads: vec![0; nodes],
            total: 0,
        }
    }

    /// Current in-flight count of one node.
    pub(crate) fn load(&self, node: usize) -> u32 {
        self.loads[node]
    }

    /// Records a placement on `node`.
    pub(crate) fn inc(&mut self, node: usize) {
        self.loads[node] += 1;
        self.total += 1;
    }

    /// Records a completion on `node`.
    pub(crate) fn dec(&mut self, node: usize) {
        debug_assert!(self.loads[node] > 0, "completion without a placement");
        self.loads[node] = self.loads[node].saturating_sub(1);
        self.total = self.total.saturating_sub(1);
    }

    /// Mean in-flight load across all nodes (0.0 for an empty index).
    pub(crate) fn mean(&self) -> f64 {
        if self.loads.is_empty() {
            return 0.0;
        }
        self.total as f64 / self.loads.len() as f64
    }

    /// Power-of-two-choices: sample two nodes, return the less loaded (the
    /// first draw on a tie). Always consumes **exactly two** RNG draws, so
    /// an independent implementation fed the same seed makes the same
    /// sequence of decisions — the property test's reference scheduler
    /// depends on this. Must not be called on an empty index.
    pub(crate) fn pick_p2c(&self, rng: &mut SimRng) -> usize {
        let a = rng.index(self.loads.len());
        let b = rng.index(self.loads.len());
        if self.loads[b] < self.loads[a] {
            b
        } else {
            a
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_track_inc_dec() {
        let mut idx = LoadIndex::new(4);
        idx.inc(1);
        idx.inc(1);
        idx.inc(3);
        assert_eq!(idx.load(1), 2);
        assert_eq!(idx.load(3), 1);
        assert!((idx.mean() - 0.75).abs() < 1e-12);
        idx.dec(1);
        assert_eq!(idx.load(1), 1);
        assert!((idx.mean() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn p2c_prefers_the_less_loaded_sample() {
        // One node is heavily loaded: P2C must send almost everything
        // elsewhere (it picks the hot node only when both draws hit it).
        let mut idx = LoadIndex::new(8);
        for _ in 0..100 {
            idx.inc(0);
        }
        let mut rng = SimRng::seeded(7);
        let mut hot = 0;
        for _ in 0..1000 {
            if idx.pick_p2c(&mut rng) == 0 {
                hot += 1;
            }
        }
        // P(both draws = node 0) = 1/64 ≈ 16 of 1000.
        assert!(hot < 40, "hot node picked {hot}/1000 times");
    }

    #[test]
    fn p2c_consumes_exactly_two_draws() {
        let idx = LoadIndex::new(5);
        let mut a = SimRng::seeded(42);
        let mut b = SimRng::seeded(42);
        idx.pick_p2c(&mut a);
        b.index(5);
        b.index(5);
        // Same stream position afterwards: the next draws agree.
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn p2c_balances_under_feedback() {
        // Placing where P2C points keeps the spread tight.
        let mut idx = LoadIndex::new(16);
        let mut rng = SimRng::seeded(2021);
        for _ in 0..16 * 100 {
            let n = idx.pick_p2c(&mut rng);
            idx.inc(n);
        }
        let max = (0..16).map(|i| idx.load(i)).max().unwrap_or(0);
        let min = (0..16).map(|i| idx.load(i)).min().unwrap_or(0);
        assert!(max - min <= 8, "spread {min}..{max}");
    }
}
