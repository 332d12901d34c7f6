//! Log-bucketed latency histogram whose memory follows what was recorded.
//!
//! [`LatencyRecorder`](crate::latency::LatencyRecorder) keeps raw samples —
//! exact but O(n) memory. For long-running drivers (day-long trace
//! replays) this HDR-style histogram
//! records into fixed log-spaced buckets: ~2.4 % relative error, bounded
//! memory, O(1) record.
//!
//! # Representation
//!
//! The bucket scheme is fixed (41 octaves × 32 sub-buckets = 1312 buckets),
//! but a histogram does not pay for buckets it never touched. Counts start
//! as a list of `(bucket, count)` pairs sorted by bucket — an empty
//! histogram owns no heap memory, and a per-function stage histogram of
//! the simulator's quantised latencies holds a handful of entries (16 B
//! each). The first sample that would make the list longer than
//! `SPARSE_MAX` distinct buckets **promotes** the histogram, once and for
//! good, to the dense array of all 1312 `u64` counts (10.5 KB); a wide
//! distribution such as the derived `all` scope therefore gets full
//! resolution like any other histogram, by the same rule and without being
//! told to.
//! `record`, `merge` and `quantile` all go through one add/iterate pair on
//! that representation, and iteration is in bucket order in both states, so
//! every statistic — quantiles included — is independent of whether, or
//! when, a histogram promoted.

use simclock::SimDuration;

/// Buckets per power of two (higher = finer resolution).
const SUB_BUCKETS: usize = 32;
/// Number of powers of two covered (1 ns … ~2^40 ns ≈ 18 min).
const OCTAVES: usize = 41;
/// Total bucket count; bucket indices are stored as `u16` while sparse.
const N_BUCKETS: usize = OCTAVES * SUB_BUCKETS;
const _: () = assert!(N_BUCKETS <= u16::MAX as usize + 1);
/// Most distinct buckets held as a sorted list; one more promotes to the
/// dense array. At 16 B per entry the list tops out at 768 B, a fourteenth
/// of the dense array, and a binary search over it is at most six probes.
const SPARSE_MAX: usize = 48;

/// Per-bucket sample counts.
#[derive(Debug, Clone)]
enum Counts {
    /// `(bucket, count)` with nonzero counts, strictly ascending by bucket,
    /// at most [`SPARSE_MAX`] entries.
    Sparse(Vec<(u16, u64)>),
    /// One count per bucket, `N_BUCKETS` long.
    Dense(Box<[u64]>),
}

impl Counts {
    /// Adds `n` samples to `bucket`, promoting to dense when the sorted list
    /// is full and `bucket` is not in it.
    fn add(&mut self, bucket: usize, n: u64) {
        match self {
            Counts::Dense(counts) => counts[bucket] += n,
            Counts::Sparse(entries) => {
                let key = bucket as u16; // N_BUCKETS fits, asserted above
                match entries.binary_search_by_key(&key, |&(b, _)| b) {
                    Ok(at) => entries[at].1 += n,
                    Err(at) if entries.len() < SPARSE_MAX => entries.insert(at, (key, n)),
                    Err(_) => {
                        let mut counts = vec![0u64; N_BUCKETS].into_boxed_slice();
                        for &(b, c) in entries.iter() {
                            counts[usize::from(b)] = c;
                        }
                        counts[bucket] += n;
                        *self = Counts::Dense(counts);
                    }
                }
            }
        }
    }

    /// Adds every count of `other`: a sparse list into a sparse list in one
    /// ascending walk, every other pair through [`Counts::add`].
    fn merge(&mut self, other: &Counts) {
        match (&mut *self, other) {
            (Counts::Sparse(mine), Counts::Sparse(theirs)) => {
                let mut from = 0;
                for (i, &(b, c)) in theirs.iter().enumerate() {
                    while mine.get(from).is_some_and(|&(m, _)| m < b) {
                        from += 1;
                    }
                    if mine.get(from).is_some_and(|&(m, _)| m == b) {
                        mine[from].1 += c;
                    } else if mine.len() < SPARSE_MAX {
                        mine.insert(from, (b, c));
                    } else {
                        // The list is full: `add` promotes it and takes the
                        // rest.
                        for &(b, c) in &theirs[i..] {
                            self.add(usize::from(b), c);
                        }
                        return;
                    }
                }
            }
            _ => {
                for (bucket, c) in other.iter() {
                    self.add(bucket, c);
                }
            }
        }
    }

    /// The nonzero `(bucket, count)` pairs in ascending bucket order. One of
    /// the two chained halves is always empty; chaining gives both states a
    /// single iterator type without boxing.
    fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        let (sparse, dense) = match self {
            Counts::Sparse(entries) => (Some(entries), None),
            Counts::Dense(counts) => (None, Some(counts)),
        };
        let sparse = sparse
            .into_iter()
            .flatten()
            .map(|&(b, c)| (usize::from(b), c));
        let dense = dense
            .into_iter()
            .flat_map(|counts| counts.iter().copied().enumerate())
            .filter(|&(_, c)| c > 0);
        sparse.chain(dense)
    }
}

/// A log-bucketed latency histogram.
///
/// ```
/// use metrics_lite::LatencyHistogram;
/// use simclock::SimDuration;
///
/// let mut h = LatencyHistogram::new();
/// for ms in 1..=1000 {
///     h.record(SimDuration::from_millis(ms));
/// }
/// let p99 = h.quantile(0.99).as_millis_f64();
/// assert!((p99 - 990.0).abs() / 990.0 < 0.02); // ≤ ~1.6 % midpoint error
/// ```
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Counts,
    total: u64,
    sum_ns: u128,
    max_ns: u64,
    min_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram. Allocates nothing until the first sample.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: Counts::Sparse(Vec::new()),
            total: 0,
            sum_ns: 0,
            max_ns: 0,
            min_ns: u64::MAX,
        }
    }

    fn bucket_of(ns: u64) -> usize {
        if ns == 0 {
            return 0;
        }
        let octave = 63 - ns.leading_zeros() as usize;
        let octave = octave.min(OCTAVES - 1);
        // Position within the octave, scaled into SUB_BUCKETS slots.
        let base = 1u64 << octave;
        let offset = ((ns - base) as u128 * SUB_BUCKETS as u128 / base as u128) as usize;
        octave * SUB_BUCKETS + offset.min(SUB_BUCKETS - 1)
    }

    /// Representative (midpoint) value of a bucket. Reporting the midpoint
    /// of `[lo, hi)` instead of the lower bound halves the worst-case
    /// quantile bias; the lower bound systematically under-reported by up to
    /// one sub-bucket width.
    fn bucket_value(bucket: usize) -> u64 {
        let octave = bucket / SUB_BUCKETS;
        let offset = (bucket % SUB_BUCKETS) as u64;
        let base = 1u64 << octave;
        let lo = base + base * offset / SUB_BUCKETS as u64;
        let hi = base + base * (offset + 1) / SUB_BUCKETS as u64;
        lo + (hi - lo) / 2
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: SimDuration) {
        let ns = latency.as_nanos();
        self.counts.add(Self::bucket_of(ns), 1);
        self.total += 1;
        self.sum_ns += u128::from(ns);
        self.max_ns = self.max_ns.max(ns);
        self.min_ns = self.min_ns.min(ns);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether the histogram is empty.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact sum of all samples in nanoseconds (tracked outside the
    /// buckets), for reconciling aggregates against e2e totals.
    pub(crate) fn sum_ns(&self) -> u128 {
        self.sum_ns
    }

    /// Exact mean (tracked outside the buckets).
    pub fn mean(&self) -> SimDuration {
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos((self.sum_ns / u128::from(self.total)) as u64)
    }

    /// Exact maximum.
    pub fn max(&self) -> SimDuration {
        if self.total == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(self.max_ns)
        }
    }

    /// Exact minimum.
    pub fn min(&self) -> SimDuration {
        if self.total == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(self.min_ns)
        }
    }

    /// Approximate quantile (nearest-rank over buckets; ≤ ~3 % relative
    /// error by construction).
    ///
    /// # Panics
    /// Panics when empty or `q` is out of `[0, 1]`.
    pub fn quantile(&self, q: f64) -> SimDuration {
        assert!(self.total > 0, "quantile of empty histogram");
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        let target = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cum = 0u64;
        for (bucket, c) in self.counts.iter() {
            cum += c;
            if cum >= target {
                let v = Self::bucket_value(bucket).clamp(self.min_ns, self.max_ns);
                return SimDuration::from_nanos(v);
            }
        }
        SimDuration::from_nanos(self.max_ns)
    }

    /// Whether the counts have been promoted to the dense array.
    #[cfg(test)]
    pub(crate) fn is_dense(&self) -> bool {
        matches!(self.counts, Counts::Dense(_))
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        self.counts.merge(&other.counts);
        self.total += other.total;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    /// The eager layout this type replaced — all `N_BUCKETS` counts from
    /// birth — kept as the oracle the sparse-until-dense representation is
    /// held to, sample for sample. It shares only the bucket scheme
    /// (`bucket_of` / `bucket_value`) with the type under test.
    #[derive(Clone)]
    struct DenseReference {
        counts: Vec<u64>,
        total: u64,
        sum_ns: u128,
        max_ns: u64,
        min_ns: u64,
    }

    impl DenseReference {
        fn new() -> Self {
            DenseReference {
                counts: vec![0; N_BUCKETS],
                total: 0,
                sum_ns: 0,
                max_ns: 0,
                min_ns: u64::MAX,
            }
        }

        fn record(&mut self, ns: u64) {
            self.counts[LatencyHistogram::bucket_of(ns)] += 1;
            self.total += 1;
            self.sum_ns += u128::from(ns);
            self.max_ns = self.max_ns.max(ns);
            self.min_ns = self.min_ns.min(ns);
        }

        fn merge(&mut self, other: &DenseReference) {
            for (a, b) in self.counts.iter_mut().zip(&other.counts) {
                *a += b;
            }
            self.total += other.total;
            self.sum_ns += other.sum_ns;
            self.max_ns = self.max_ns.max(other.max_ns);
            self.min_ns = self.min_ns.min(other.min_ns);
        }

        fn quantile(&self, q: f64) -> u64 {
            let target = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
            let mut cum = 0u64;
            for (bucket, &c) in self.counts.iter().enumerate() {
                cum += c;
                if cum >= target {
                    return LatencyHistogram::bucket_value(bucket).clamp(self.min_ns, self.max_ns);
                }
            }
            self.max_ns
        }
    }

    /// A histogram and its oracle, driven in lockstep.
    #[derive(Clone)]
    struct Pair {
        hist: LatencyHistogram,
        dense: DenseReference,
    }

    impl Pair {
        fn new() -> Self {
            Pair {
                hist: LatencyHistogram::new(),
                dense: DenseReference::new(),
            }
        }

        fn record(&mut self, ns: u64) {
            self.hist.record(SimDuration::from_nanos(ns));
            self.dense.record(ns);
        }

        fn merge(&mut self, other: &Pair) {
            self.hist.merge(&other.hist);
            self.dense.merge(&other.dense);
        }

        /// Every public statistic, the bucket contents and the
        /// representation's own invariants.
        fn assert_in_step(&self) {
            let (h, d) = (&self.hist, &self.dense);
            assert_eq!(h.count(), d.total);
            assert_eq!(h.is_empty(), d.total == 0);
            assert_eq!(h.sum_ns(), d.sum_ns);
            if d.total == 0 {
                assert_eq!(h.min(), SimDuration::ZERO);
                assert_eq!(h.max(), SimDuration::ZERO);
                assert_eq!(h.mean(), SimDuration::ZERO);
            } else {
                assert_eq!(h.min().as_nanos(), d.min_ns);
                assert_eq!(h.max().as_nanos(), d.max_ns);
                let mean = (d.sum_ns / u128::from(d.total)) as u64;
                assert_eq!(h.mean().as_nanos(), mean);
                for q in [0.0, 0.001, 0.5, 0.9, 0.99, 1.0] {
                    assert_eq!(h.quantile(q).as_nanos(), d.quantile(q), "q={q}");
                }
            }
            let expected = d.counts.iter().copied().enumerate().filter(|&(_, c)| c > 0);
            assert!(h.counts.iter().eq(expected), "bucket contents diverged");
            match &h.counts {
                Counts::Sparse(entries) => {
                    assert!(entries.len() <= SPARSE_MAX);
                    assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "unsorted");
                }
                Counts::Dense(counts) => assert_eq!(counts.len(), N_BUCKETS),
            }
        }
    }

    /// One sample value: zero, the low octaves whose sub-buckets alias
    /// (fewer than 32 integers per octave below 2^5), the range past 2^40
    /// that clamps into the top octave, or log-uniform over the rest.
    fn draw_ns(g: &mut testkit::Gen) -> u64 {
        let log_uniform = |g: &mut testkit::Gen, octaves: std::ops::Range<u32>| {
            let base = 1u64 << g.u32_in(octaves);
            base + g.u64_in(0..base)
        };
        match g.u8_in(0..8) {
            0 => 0,
            1 => g.u64_in(1..32),
            2 => log_uniform(g, 40..64),
            _ => log_uniform(g, 0..41),
        }
    }

    /// Values falling into a number of distinct buckets drawn from `buckets`.
    fn palette(g: &mut testkit::Gen, buckets: std::ops::Range<usize>) -> Vec<u64> {
        let buckets = g.usize_in(buckets);
        let mut values = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        while seen.len() < buckets {
            let ns = draw_ns(g);
            if seen.insert(LatencyHistogram::bucket_of(ns)) {
                values.push(ns);
            }
        }
        values
    }

    /// Random record / merge / clone sequences over three histograms whose
    /// value sources keep them below, around and past the promotion
    /// threshold, compared with the dense oracle after every step.
    #[test]
    fn prop_lockstep_with_dense_reference() {
        testkit::check(64, |g| {
            let narrow = palette(g, 1..8);
            let edge = palette(g, SPARSE_MAX - 2..SPARSE_MAX + 3);
            let mut slots = [Pair::new(), Pair::new(), Pair::new()];
            for _ in 0..g.usize_in(100..500) {
                let i = g.usize_in(0..3);
                let j = (i + g.usize_in(1..3)) % 3;
                match g.u8_in(0..20) {
                    0..=15 => {
                        let ns = match i {
                            0 => *g.pick(&narrow),
                            1 => *g.pick(&edge),
                            _ => draw_ns(g),
                        };
                        slots[i].record(ns);
                    }
                    16..=18 => {
                        let other = slots[j].clone();
                        let was_dense = slots[i].hist.is_dense();
                        slots[i].merge(&other);
                        assert!(slots[i].hist.is_dense() >= was_dense, "demoted");
                        other.assert_in_step();
                    }
                    _ => slots[i] = slots[j].clone(),
                }
                slots[i].assert_in_step();
            }
        });
    }

    /// `n` values in `n` distinct buckets, a different set per `salt`.
    fn distinct_values(n: usize, salt: u64) -> Vec<u64> {
        // Octave 20 + k has sub-buckets 2^(15+k) ns wide: one value each.
        (0..n as u64)
            .map(|k| (1u64 << (20 + k / 32)) * (32 + k % 32) / 32 + salt)
            .collect()
    }

    #[test]
    fn promotes_on_the_first_bucket_past_sparse_max() {
        let mut p = Pair::new();
        for ns in distinct_values(SPARSE_MAX, 0) {
            p.record(ns);
        }
        // Full, and re-recording buckets it already holds keeps it sparse.
        for ns in distinct_values(SPARSE_MAX, 1) {
            p.record(ns);
        }
        assert!(!p.hist.is_dense());
        p.assert_in_step();
        // The sample that does not fit promotes — and is itself counted.
        p.record(0);
        assert!(p.hist.is_dense());
        p.assert_in_step();
        assert_eq!(p.hist.count(), 2 * SPARSE_MAX as u64 + 1);
        assert_eq!(p.hist.min(), SimDuration::ZERO);
    }

    /// Each of the four sparse/dense direction pairs of `merge`, with
    /// overlapping buckets, plus the sparse ← sparse merge whose union
    /// outgrows the list.
    #[test]
    fn merge_in_all_four_direction_pairs() {
        let build = |n: usize, salt: u64| {
            let mut p = Pair::new();
            for ns in distinct_values(n, salt) {
                p.record(ns);
                p.record(ns + 1);
            }
            assert_eq!(p.hist.is_dense(), n > SPARSE_MAX);
            p
        };
        // (buckets in target, buckets in source, target dense afterwards)
        for (into, from, dense_after) in [
            (10, 20, false),
            (10, 100, true),
            (100, 10, true),
            (100, 120, true),
            (SPARSE_MAX - 8, SPARSE_MAX, false),
        ] {
            let mut target = build(into, 0);
            let source = build(from, 3);
            target.merge(&source);
            target.assert_in_step();
            source.assert_in_step();
            assert_eq!(target.hist.is_dense(), dense_after, "{into} <- {from}");
        }
        // Disjoint sparse halves: shift the source past the target's range.
        let mut target = build(30, 0);
        let mut source = Pair::new();
        for ns in distinct_values(60, 0).into_iter().skip(30) {
            source.record(ns);
        }
        assert!(!target.hist.is_dense() && !source.hist.is_dense());
        target.merge(&source);
        target.assert_in_step();
        assert!(target.hist.is_dense(), "60 distinct buckets do not fit");
    }

    #[test]
    fn empty_histogram_owns_no_heap() {
        match LatencyHistogram::new().counts {
            Counts::Sparse(entries) => assert_eq!(entries.capacity(), 0),
            Counts::Dense(_) => panic!("born dense"),
        }
    }

    #[test]
    fn exact_stats_track() {
        let mut h = LatencyHistogram::new();
        for v in [10, 20, 30, 40, 50] {
            h.record(ms(v));
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.mean().as_millis(), 30);
        assert_eq!(h.min().as_millis(), 10);
        assert_eq!(h.max().as_millis(), 50);
    }

    #[test]
    fn quantiles_within_bucket_error() {
        let mut h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(ms(v));
        }
        for (q, expected_ms) in [(0.5, 500u64), (0.9, 900), (0.99, 990)] {
            let got = h.quantile(q).as_millis_f64();
            let rel = (got - expected_ms as f64).abs() / expected_ms as f64;
            assert!(rel < 0.02, "q={q}: got {got}, want ~{expected_ms} ({rel})");
        }
    }

    #[test]
    fn bucket_midpoint_removes_lower_bound_bias() {
        // 1540 ns falls in bucket [1536, 1568) (octave 10, 32 ns sub-bucket
        // width). The pre-fix lower-bound representative reported 1536 —
        // biased low for every sample in the bucket — where the midpoint
        // 1552 is the unbiased choice.
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::from_nanos(1540));
        h.record(SimDuration::from_nanos(4096));
        assert_eq!(h.quantile(0.5).as_nanos(), 1552);
        // Exact powers of two clamp to the recorded max, not the midpoint of
        // their (otherwise empty) bucket.
        assert_eq!(h.quantile(1.0).as_nanos(), 4096);
    }

    #[test]
    fn empty_histogram_defaults() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.max(), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "empty histogram")]
    fn empty_quantile_panics() {
        LatencyHistogram::new().quantile(0.5);
    }

    #[test]
    fn zero_and_huge_values_clamp() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::ZERO);
        h.record(SimDuration::from_secs(100_000));
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), SimDuration::ZERO);
        assert!(h.quantile(1.0) <= SimDuration::from_secs(100_000));
    }

    #[test]
    fn merge_equals_combined() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        for v in 1..=100 {
            let d = ms(v);
            if v % 2 == 0 {
                a.record(d);
            } else {
                b.record(d);
            }
            all.record(d);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.mean(), all.mean());
        assert_eq!(a.quantile(0.5), all.quantile(0.5));
    }

    /// Histogram quantiles track exact quantiles within bucket error.
    #[test]
    fn prop_quantile_accuracy() {
        testkit::check(64, |g| {
            let mut vals = g.vec(10..300, |g| g.u64_in(1..10_000_000));
            let q = g.f64_in(0.01..1.0);
            let mut h = LatencyHistogram::new();
            for &v in &vals {
                h.record(SimDuration::from_nanos(v));
            }
            vals.sort_unstable();
            let rank = ((q * vals.len() as f64).ceil() as usize).clamp(1, vals.len());
            let exact = vals[rank - 1] as f64;
            let approx = h.quantile(q).as_nanos() as f64;
            // Bucket resolution: 1/32 per octave, halved by the midpoint
            // representative ⇒ ≤ ~1.6 % plus rank-boundary effects.
            assert!(
                (approx - exact).abs() / exact < 0.04,
                "q={q} exact={exact} approx={approx}"
            );
        });
    }

    /// Quantiles are monotone.
    #[test]
    fn prop_quantiles_monotone() {
        testkit::check(64, |g| {
            let vals = g.vec(2..200, |g| g.u64_in(1..1_000_000));
            let mut h = LatencyHistogram::new();
            for &v in &vals {
                h.record(SimDuration::from_nanos(v));
            }
            let qs = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
            for w in qs.windows(2) {
                assert!(h.quantile(w[0]) <= h.quantile(w[1]));
            }
        });
    }
}
