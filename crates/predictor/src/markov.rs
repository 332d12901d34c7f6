//! Markov chain over value regions (paper Eq. 2).
//!
//! The observed range is partitioned into `n` contiguous region states
//! `R_i = [R_{i1}, R_{i2})`. From the historical state sequence the k-step
//! transition counts `T_ij(k)` are accumulated and normalized into the
//! transition probability matrix `P_ij(k) = T_ij(k) / T_i`. Given the current
//! state, the predicted next value is the midpoint `(R_{i1}+R_{i2})/2` of the
//! most probable next region (§IV-C-3).

use crate::Predictor;

/// An equal-width partition of `[lo, hi]` into `n` regions.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionPartition {
    lo: f64,
    hi: f64,
    n: usize,
}

impl RegionPartition {
    /// Builds a partition over `[lo, hi]` with `n ≥ 1` regions. Degenerate
    /// ranges (`hi <= lo`) are widened to a unit interval around `lo`.
    pub fn new(lo: f64, hi: f64, n: usize) -> Self {
        assert!(n >= 1, "need at least one region");
        let (lo, hi) = if hi > lo { (lo, hi) } else { (lo, lo + 1.0) };
        RegionPartition { lo, hi, n }
    }

    /// Builds a partition spanning the min/max of a history slice.
    pub fn from_history(history: &[f64], n: usize) -> Self {
        let lo = history.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = history.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        if history.is_empty() || !lo.is_finite() || !hi.is_finite() {
            RegionPartition::new(0.0, 1.0, n)
        } else {
            RegionPartition::new(lo, hi, n)
        }
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether this is a single-region (trivial) partition.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Maps a value to its region index (clamped at the edges).
    pub fn state_of(&self, value: f64) -> usize {
        let width = (self.hi - self.lo) / self.n as f64;
        let idx = ((value - self.lo) / width).floor();
        (idx.max(0.0) as usize).min(self.n - 1)
    }

    /// The `(R_{i1}, R_{i2})` bounds of region `i`.
    pub(crate) fn bounds(&self, i: usize) -> (f64, f64) {
        let width = (self.hi - self.lo) / self.n as f64;
        (self.lo + width * i as f64, self.lo + width * (i + 1) as f64)
    }

    /// The midpoint `(R_{i1}+R_{i2})/2` of region `i` — the predicted value
    /// when the chain lands in that region.
    pub fn midpoint(&self, i: usize) -> f64 {
        let (a, b) = self.bounds(i);
        (a + b) / 2.0
    }
}

/// The Markov chain predictor of Eq. 2.
///
/// Observes a value series, maintains the 1-step transition counts over a
/// region partition, and predicts the midpoint of the most probable next
/// region. K-step matrices are available via [`MarkovChain::k_step_matrix`].
#[derive(Debug, Clone)]
pub struct MarkovChain {
    partition: RegionPartition,
    /// Row-major `n×n` matrix: `counts[i*n + j]` = observed 1-step
    /// transitions i → j. Flat so a chain costs one allocation — per-key
    /// controllers build (and re-fit) thousands of these.
    counts: Vec<u64>,
    last_state: Option<usize>,
    observations: usize,
    /// Bumped on every count mutation; the k-step cache keys off it.
    version: u64,
    /// Memoized `(k, version) → P^k`: a tick can ask for the same power
    /// repeatedly while the counts are unchanged.
    kstep_cache: std::cell::RefCell<Option<KStepCache>>,
}

#[derive(Debug, Clone)]
struct KStepCache {
    k: u32,
    version: u64,
    matrix: Vec<Vec<f64>>,
}

impl MarkovChain {
    /// Creates a chain over a fixed partition.
    pub fn new(partition: RegionPartition) -> Self {
        let n = partition.len();
        MarkovChain {
            partition,
            counts: vec![0; n * n],
            last_state: None,
            observations: 0,
            version: 0,
            kstep_cache: std::cell::RefCell::new(None),
        }
    }

    /// Forgets every observation and takes `partition`: the state
    /// [`Self::new`] builds, keeping the counts allocation.
    pub(crate) fn reset(&mut self, partition: RegionPartition) {
        let n = partition.len();
        self.partition = partition;
        self.counts.clear();
        self.counts.resize(n * n, 0);
        self.last_state = None;
        self.observations = 0;
        self.version = 0;
        *self.kstep_cache.get_mut() = None;
    }

    /// Creates a chain whose partition spans a training history, then
    /// observes that history.
    pub fn fit(history: &[f64], regions: usize) -> Self {
        let mut chain = MarkovChain::new(RegionPartition::from_history(history, regions));
        for &x in history {
            chain.observe_value(x);
        }
        chain
    }

    /// Re-fits this chain in place over a history given as two slices (a
    /// ring buffer's halves), reusing the counts allocation. Equivalent to
    /// replacing the chain with `MarkovChain::fit` over the concatenation,
    /// minus the allocations — the sliding-window predictor re-partitions
    /// this way every time its value range drifts.
    pub(crate) fn refit(&mut self, head: &[f64], tail: &[f64], regions: usize) {
        let values = || head.iter().chain(tail).copied();
        let lo = values().fold(f64::INFINITY, f64::min);
        let hi = values().fold(f64::NEG_INFINITY, f64::max);
        self.partition = if !lo.is_finite() || !hi.is_finite() {
            RegionPartition::new(0.0, 1.0, regions)
        } else {
            RegionPartition::new(lo, hi, regions)
        };
        self.counts.clear();
        self.counts.resize(regions * regions, 0);
        self.last_state = None;
        self.observations = 0;
        self.version = self.version.wrapping_add(1);
        for x in values() {
            self.observe_value(x);
        }
    }

    fn observe_value(&mut self, value: f64) {
        let state = self.partition.state_of(value);
        if let Some(prev) = self.last_state {
            self.counts[prev * self.partition.len() + state] += 1;
        }
        self.last_state = Some(state);
        self.observations += 1;
        self.version = self.version.wrapping_add(1);
    }

    /// Retracts the oldest windowed observation: its outgoing transition
    /// `from → to` and its contribution to the observation count. Together
    /// with [`Predictor::observe`] this keeps the counts equal to a batch
    /// [`MarkovChain::fit`] over a sliding window, without refitting —
    /// evicting the window head removes exactly its one outgoing edge.
    pub(crate) fn forget_oldest(&mut self, from: usize, to: usize) {
        let cell = &mut self.counts[from * self.partition.len() + to];
        debug_assert!(
            *cell > 0,
            "retracting a transition {from}→{to} that was never observed"
        );
        *cell = cell.saturating_sub(1);
        self.observations = self.observations.saturating_sub(1);
        self.version = self.version.wrapping_add(1);
    }

    /// What [`Self::forget_oldest`]`(s, s)` followed by observing one more
    /// value of region `s` leaves behind when the chain sits in `s` and the
    /// window's two oldest samples do too: the `s → s` cell loses one and
    /// gains one, the observation total likewise, and only `version` moves —
    /// twice, as the two calls would have moved it.
    pub(crate) fn slide_self_loop(&mut self) {
        self.version = self.version.wrapping_add(2);
    }

    /// The raw 1-step transition counts `T_ij`, row-major (`n×n` flat).
    #[cfg(test)]
    pub(crate) fn transition_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Row `i` of the raw transition counts.
    fn counts_row(&self, i: usize) -> &[u64] {
        let n = self.partition.len();
        &self.counts[i * n..(i + 1) * n]
    }

    /// The region partition.
    pub fn partition(&self) -> &RegionPartition {
        &self.partition
    }

    /// The current state (region of the latest observation).
    pub(crate) fn current_state(&self) -> Option<usize> {
        self.last_state
    }

    /// Row `i` of the 1-step transition matrix `P_ij = T_ij / T_i`. Rows with
    /// no outgoing observations fall back to "stay in place" (identity row),
    /// which is the least-surprising prior for a demand series.
    pub(crate) fn transition_row(&self, i: usize) -> Vec<f64> {
        let row = self.counts_row(i);
        let total: u64 = row.iter().sum();
        if total == 0 {
            let mut out = vec![0.0; row.len()];
            out[i] = 1.0;
            return out;
        }
        row.iter().map(|&c| c as f64 / total as f64).collect()
    }

    /// The full 1-step transition matrix.
    pub(crate) fn transition_matrix(&self) -> Vec<Vec<f64>> {
        (0..self.partition.len())
            .map(|i| self.transition_row(i))
            .collect()
    }

    /// The k-step transition matrix `P(k) = P^k` (Eq. 2's matrix power).
    ///
    /// The result is memoized per `(k, counts-version)`: repeated calls
    /// between count mutations return a clone of the cached power instead of
    /// redoing the matrix multiplications.
    pub fn k_step_matrix(&self, k: u32) -> Vec<Vec<f64>> {
        if let Some(cache) = self.kstep_cache.borrow().as_ref() {
            if cache.k == k && cache.version == self.version {
                return cache.matrix.clone();
            }
        }
        let n = self.partition.len();
        let mut result: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let mut row = vec![0.0; n];
                row[i] = 1.0;
                row
            })
            .collect();
        let p = self.transition_matrix();
        for _ in 0..k {
            result = mat_mul(&result, &p);
        }
        *self.kstep_cache.borrow_mut() = Some(KStepCache {
            k,
            version: self.version,
            matrix: result.clone(),
        });
        result
    }

    /// Most probable next state from the current one (ties break toward the
    /// lower region, matching a conservative resource allocation). Works on
    /// the raw counts directly — no row normalization, no allocation.
    pub(crate) fn predict_state(&self) -> Option<usize> {
        let cur = self.last_state?;
        let row = self.counts_row(cur);
        let mut best = cur; // identity fallback for rows never exited
        let mut best_c = 0u64;
        for (j, &c) in row.iter().enumerate() {
            if c > best_c {
                best = j;
                best_c = c;
            }
        }
        Some(best)
    }

    /// Whether the chain has ever been observed *leaving* `state` (i.e. the
    /// transition row has real evidence rather than the identity fallback).
    pub(crate) fn has_outgoing(&self, state: usize) -> bool {
        self.counts_row(state).iter().sum::<u64>() > 0
    }
}

impl Predictor for MarkovChain {
    fn observe(&mut self, value: f64) {
        self.observe_value(value);
    }

    fn predict(&self) -> f64 {
        match self.predict_state() {
            Some(s) => self.partition.midpoint(s),
            None => 0.0,
        }
    }

    fn name(&self) -> &'static str {
        "markov"
    }

    fn observations(&self) -> usize {
        self.observations
    }
}

fn mat_mul(a: &[Vec<f64>], b: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let n = a.len();
    let mut out = vec![vec![0.0; n]; n];
    for i in 0..n {
        for k in 0..n {
            let aik = a[i][k];
            if aik == 0.0 {
                continue;
            }
            for j in 0..n {
                out[i][j] += aik * b[k][j];
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_maps_values_to_regions() {
        let p = RegionPartition::new(0.0, 10.0, 5);
        assert_eq!(p.state_of(-1.0), 0); // clamped
        assert_eq!(p.state_of(0.0), 0);
        assert_eq!(p.state_of(3.9), 1);
        assert_eq!(p.state_of(9.99), 4);
        assert_eq!(p.state_of(42.0), 4); // clamped
        assert_eq!(p.midpoint(0), 1.0);
        assert_eq!(p.midpoint(4), 9.0);
    }

    #[test]
    fn degenerate_range_widened() {
        let p = RegionPartition::new(5.0, 5.0, 4);
        assert_eq!(p.state_of(5.0), 0);
        assert!(p.midpoint(0).is_finite());
    }

    #[test]
    fn alternating_series_learned_exactly() {
        // 1, 9, 1, 9, ... with two regions: perfect alternation.
        let series: Vec<f64> = (0..40)
            .map(|i| if i % 2 == 0 { 1.0 } else { 9.0 })
            .collect();
        let chain = MarkovChain::fit(&series, 2);
        // Last value was 9 (state 1); next must be state 0.
        assert_eq!(chain.current_state(), Some(1));
        assert_eq!(chain.predict_state(), Some(0));
        let pred = chain.predict();
        assert!(pred < 5.0, "pred={pred}");
    }

    #[test]
    fn rows_are_stochastic() {
        let series: Vec<f64> = (0..100).map(|i| ((i * 7919) % 23) as f64).collect();
        let chain = MarkovChain::fit(&series, 6);
        for i in 0..6 {
            let sum: f64 = chain.transition_row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "row {i} sums to {sum}");
        }
    }

    #[test]
    fn unvisited_row_is_identity() {
        let chain = MarkovChain::new(RegionPartition::new(0.0, 10.0, 3));
        let row = chain.transition_row(2);
        assert_eq!(row, vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn k_step_matrix_power() {
        let series: Vec<f64> = (0..40)
            .map(|i| if i % 2 == 0 { 1.0 } else { 9.0 })
            .collect();
        let chain = MarkovChain::fit(&series, 2);
        // Perfect alternation: P² = identity.
        let p2 = chain.k_step_matrix(2);
        assert!((p2[0][0] - 1.0).abs() < 1e-9);
        assert!((p2[1][1] - 1.0).abs() < 1e-9);
        // P⁰ = identity by definition.
        let p0 = chain.k_step_matrix(0);
        assert!((p0[0][0] - 1.0).abs() < 1e-12 && p0[0][1].abs() < 1e-12);
    }

    #[test]
    fn k_step_cache_invalidates_on_count_changes() {
        let series: Vec<f64> = (0..40)
            .map(|i| if i % 2 == 0 { 1.0 } else { 9.0 })
            .collect();
        let mut chain = MarkovChain::fit(&series, 2);
        let before = chain.k_step_matrix(3);
        assert_eq!(before, chain.k_step_matrix(3)); // cache hit
                                                    // Break the perfect alternation (9 → 9); the cached power must not
                                                    // survive the count change. The range is unchanged, so a fresh fit
                                                    // over the extended series is the ground truth.
        chain.observe(9.0);
        let mut extended = series.clone();
        extended.push(9.0);
        let reference = MarkovChain::fit(&extended, 2);
        assert_eq!(chain.k_step_matrix(3), reference.k_step_matrix(3));
        assert_ne!(chain.k_step_matrix(3), before);
    }

    #[test]
    fn forget_oldest_retracts_head_transition() {
        let series = [1.0, 9.0, 1.0, 9.0];
        let mut chain = MarkovChain::fit(&series, 2);
        // Evicting the head removes its outgoing 1→9 edge; the remainder
        // matches a fit over the shortened window.
        chain.forget_oldest(0, 1);
        let shorter = MarkovChain::fit(&series[1..], 2);
        assert_eq!(chain.transition_counts(), shorter.transition_counts());
        assert_eq!(chain.observations(), shorter.observations());
    }

    #[test]
    fn empty_chain_predicts_zero() {
        let chain = MarkovChain::new(RegionPartition::new(0.0, 1.0, 3));
        assert_eq!(chain.predict(), 0.0);
        assert_eq!(chain.predict_state(), None);
    }

    /// Every k-step matrix row remains a probability distribution.
    #[test]
    fn prop_k_step_rows_stochastic() {
        testkit::check(64, |g| {
            let series = g.vec(2..80, |g| g.f64_in(0.0..100.0));
            let regions = g.usize_in(1..8);
            let k = g.u32_in(0..5);
            let chain = MarkovChain::fit(&series, regions);
            for row in chain.k_step_matrix(k) {
                let sum: f64 = row.iter().sum();
                assert!((sum - 1.0).abs() < 1e-6, "row sums to {sum}");
                for p in row {
                    assert!((-1e-9..=1.0 + 1e-9).contains(&p));
                }
            }
        });
    }

    /// Predictions always land inside the partition's overall range.
    #[test]
    fn prop_prediction_in_range() {
        testkit::check(64, |g| {
            let series = g.vec(2..80, |g| g.f64_in(0.0..100.0));
            let regions = g.usize_in(1..8);
            let chain = MarkovChain::fit(&series, regions);
            let lo = series.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = series.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let p = chain.predict();
            // Midpoints lie strictly inside [lo, hi] (or the widened unit interval).
            assert!(p >= lo - 1.0 && p <= hi + 1.0);
        });
    }
}
