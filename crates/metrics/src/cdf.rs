//! Empirical cumulative distribution functions (Fig. 1(b)).

use simclock::SimDuration;

/// An empirical CDF over latency samples.
#[derive(Debug, Clone)]
pub struct Cdf {
    sorted: Vec<SimDuration>,
}

impl Cdf {
    /// Builds a CDF from samples (copied and sorted).
    ///
    /// # Panics
    /// Panics on an empty sample set.
    pub fn from_samples(samples: &[SimDuration]) -> Self {
        assert!(!samples.is_empty(), "CDF needs at least one sample");
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        Cdf { sorted }
    }

    /// Fraction of samples ≤ `x`.
    pub fn eval(&self, x: SimDuration) -> f64 {
        // partition_point returns the count of samples <= x.
        let count = self.sorted.partition_point(|&s| s <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// The value at quantile `q ∈ [0, 1]` (nearest rank).
    pub fn quantile(&self, q: f64) -> SimDuration {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        let rank = ((q * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        self.sorted[rank - 1]
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// A CDF is never empty (construction enforces it).
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn eval_counts_fraction_leq() {
        let cdf = Cdf::from_samples(&[ms(10), ms(20), ms(30), ms(40)]);
        assert_eq!(cdf.eval(ms(5)), 0.0);
        assert_eq!(cdf.eval(ms(10)), 0.25);
        assert_eq!(cdf.eval(ms(25)), 0.5);
        assert_eq!(cdf.eval(ms(40)), 1.0);
        assert_eq!(cdf.eval(ms(100)), 1.0);
    }

    #[test]
    fn quantile_inverts_eval() {
        let samples: Vec<_> = (1..=100).map(ms).collect();
        let cdf = Cdf::from_samples(&samples);
        assert_eq!(cdf.quantile(0.5), ms(50));
        assert_eq!(cdf.quantile(1.0), ms(100));
        assert_eq!(cdf.quantile(0.01), ms(1));
    }

    #[test]
    fn unsorted_input_is_fine() {
        let cdf = Cdf::from_samples(&[ms(30), ms(10), ms(20)]);
        assert_eq!(cdf.quantile(1.0), ms(30));
        assert!((cdf.eval(ms(15)) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_rejected() {
        let _ = Cdf::from_samples(&[]);
    }

    /// eval is monotone non-decreasing.
    #[test]
    fn prop_eval_monotone() {
        testkit::check(64, |g| {
            let vals = g.vec(1..100, |g| g.u64_in(0..10_000));
            let probe1 = g.u64_in(0..10_000);
            let probe2 = g.u64_in(0..10_000);
            let samples: Vec<_> = vals.iter().map(|&v| SimDuration::from_nanos(v)).collect();
            let cdf = Cdf::from_samples(&samples);
            let (lo, hi) = if probe1 <= probe2 {
                (probe1, probe2)
            } else {
                (probe2, probe1)
            };
            assert!(cdf.eval(SimDuration::from_nanos(lo)) <= cdf.eval(SimDuration::from_nanos(hi)));
        });
    }

    /// quantile(eval(x)) ≥ clamp of x into sample range for sample points.
    #[test]
    fn prop_quantile_eval_consistency() {
        testkit::check(64, |g| {
            let vals = g.vec(1..100, |g| g.u64_in(1..10_000));
            let samples: Vec<_> = vals.iter().map(|&v| SimDuration::from_nanos(v)).collect();
            let cdf = Cdf::from_samples(&samples);
            for &s in &samples {
                let q = cdf.eval(s);
                // The quantile at that probability is at least s.
                assert!(cdf.quantile(q) >= s);
            }
        });
    }
}
