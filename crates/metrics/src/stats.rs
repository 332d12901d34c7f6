//! Streaming statistics via Welford's online algorithm.

use stdshim::{JsonValue, ToJson};

/// Single-pass mean/variance/min/max accumulator.
///
/// Numerically stable (Welford) and mergeable, so per-worker accumulators
/// can be combined without keeping samples.
#[derive(Debug, Clone, Copy)]
pub struct StreamingStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for StreamingStats {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        StreamingStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 for fewer than 2 samples).
    pub(crate) fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (+∞ when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample (−∞ when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (Chan's parallel update).
    pub fn merge(&mut self, other: &StreamingStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.count = total;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl ToJson for StreamingStats {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("count", self.count().to_json()),
            ("mean", self.mean().to_json()),
            ("variance", self.variance().to_json()),
            ("min", self.min().to_json()),
            ("max", self.max().to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_values() {
        let mut s = StreamingStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_is_neutral() {
        let s = StreamingStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn single_sample() {
        let mut s = StreamingStats::new();
        s.push(42.0);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
    }

    #[test]
    fn merge_with_empty_sides() {
        let mut a = StreamingStats::new();
        let mut b = StreamingStats::new();
        b.push(1.0);
        b.push(3.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!((a.mean() - 2.0).abs() < 1e-12);
        let empty = StreamingStats::new();
        a.merge(&empty);
        assert_eq!(a.count(), 2);
    }

    /// Merging two accumulators equals accumulating the concatenation.
    #[test]
    fn prop_merge_equals_concat() {
        testkit::check(64, |g| {
            let xs = g.vec(0..100, |g| g.f64_in(-1000.0..1000.0));
            let ys = g.vec(0..100, |g| g.f64_in(-1000.0..1000.0));
            let mut a = StreamingStats::new();
            for &x in &xs {
                a.push(x);
            }
            let mut b = StreamingStats::new();
            for &y in &ys {
                b.push(y);
            }
            a.merge(&b);

            let mut all = StreamingStats::new();
            for &x in xs.iter().chain(&ys) {
                all.push(x);
            }

            assert_eq!(a.count(), all.count());
            if all.count() > 0 {
                assert!((a.mean() - all.mean()).abs() < 1e-6);
                assert!((a.variance() - all.variance()).abs() < 1e-5);
                assert_eq!(a.min(), all.min());
                assert_eq!(a.max(), all.max());
            }
        });
    }

    /// Mean is bounded by min/max.
    #[test]
    fn prop_mean_bounded() {
        testkit::check(64, |g| {
            let xs = g.vec(1..200, |g| g.f64_in(-1e6..1e6));
            let mut s = StreamingStats::new();
            for &x in &xs {
                s.push(x);
            }
            assert!(s.mean() >= s.min() - 1e-9);
            assert!(s.mean() <= s.max() + 1e-9);
        });
    }
}
