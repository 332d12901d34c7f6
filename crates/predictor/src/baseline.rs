//! Baseline predictors the paper compares against (implicitly or via the
//! industry practices of §III-B).

use crate::Predictor;

use std::collections::VecDeque;
use stdshim::{JsonValue, ToJson};

/// Predicts the last observed value (naive persistence).
#[derive(Debug, Clone, Default)]
pub struct LastValue {
    last: Option<f64>,
    observations: usize,
}

impl LastValue {
    /// Creates the predictor.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Predictor for LastValue {
    fn observe(&mut self, value: f64) {
        self.last = Some(value);
        self.observations += 1;
    }
    fn predict(&self) -> f64 {
        self.last.unwrap_or(0.0)
    }
    fn name(&self) -> &'static str {
        "last-value"
    }
    fn observations(&self) -> usize {
        self.observations
    }
}

/// Predicts the mean of the last `w` observations.
#[derive(Debug, Clone)]
pub struct MovingAverage {
    window: usize,
    buf: VecDeque<f64>,
    sum: f64,
    observations: usize,
}

impl MovingAverage {
    /// Creates a moving average over a window of `w ≥ 1` samples.
    pub fn new(w: usize) -> Self {
        assert!(w >= 1, "window must be at least 1");
        MovingAverage {
            window: w,
            buf: VecDeque::with_capacity(w),
            sum: 0.0,
            observations: 0,
        }
    }
}

impl Predictor for MovingAverage {
    fn observe(&mut self, value: f64) {
        self.buf.push_back(value);
        self.sum += value;
        if self.buf.len() > self.window {
            if let Some(evicted) = self.buf.pop_front() {
                self.sum -= evicted;
            }
        }
        self.observations += 1;
    }
    fn predict(&self) -> f64 {
        if self.buf.is_empty() {
            0.0
        } else {
            self.sum / self.buf.len() as f64
        }
    }
    fn name(&self) -> &'static str {
        "moving-average"
    }
    fn observations(&self) -> usize {
        self.observations
    }
}

/// Histogram predictor in the spirit of the Azure hybrid-histogram policy the
/// paper cites as \[27\]: predicts a high percentile of the observed demand
/// distribution, trading extra warm capacity for fewer cold starts.
#[derive(Debug, Clone)]
pub struct HistogramPredictor {
    /// Percentile in `[0, 1]` to provision for (e.g. 0.95).
    percentile: f64,
    /// Observations bucketed at integer granularity.
    counts: Vec<u64>,
    total: u64,
    observations: usize,
}

impl HistogramPredictor {
    /// Creates a histogram predictor targeting the given percentile.
    pub fn new(percentile: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&percentile),
            "percentile must be in [0,1]"
        );
        HistogramPredictor {
            percentile,
            counts: Vec::new(),
            total: 0,
            observations: 0,
        }
    }
}

impl Predictor for HistogramPredictor {
    fn observe(&mut self, value: f64) {
        let bucket = value.max(0.0).round() as usize;
        if bucket >= self.counts.len() {
            self.counts.resize(bucket + 1, 0);
        }
        self.counts[bucket] += 1;
        self.total += 1;
        self.observations += 1;
    }

    fn predict(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let target = (self.percentile * self.total as f64).ceil() as u64;
        let mut cum = 0u64;
        for (bucket, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target.max(1) {
                return bucket as f64;
            }
        }
        (self.counts.len() - 1) as f64
    }

    fn name(&self) -> &'static str {
        "histogram"
    }
    fn observations(&self) -> usize {
        self.observations
    }
}

impl ToJson for LastValue {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("model", self.name().to_json()),
            ("observations", self.observations().to_json()),
            ("prediction", self.predict().to_json()),
        ])
    }
}

impl ToJson for MovingAverage {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("model", self.name().to_json()),
            ("window", self.window.to_json()),
            ("observations", self.observations().to_json()),
            ("prediction", self.predict().to_json()),
        ])
    }
}

impl ToJson for HistogramPredictor {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("model", self.name().to_json()),
            ("percentile", self.percentile.to_json()),
            ("observations", self.observations().to_json()),
            ("prediction", self.predict().to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_value_persists() {
        let mut p = LastValue::new();
        assert_eq!(p.predict(), 0.0);
        p.observe(3.0);
        p.observe(7.0);
        assert_eq!(p.predict(), 7.0);
    }

    #[test]
    fn moving_average_windows() {
        let mut p = MovingAverage::new(3);
        for x in [1.0, 2.0, 3.0, 4.0] {
            p.observe(x);
        }
        // Window holds [2, 3, 4].
        assert!((p.predict() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn moving_average_partial_window() {
        let mut p = MovingAverage::new(10);
        p.observe(4.0);
        p.observe(6.0);
        assert!((p.predict() - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "window must be at least 1")]
    fn moving_average_zero_window_rejected() {
        let _ = MovingAverage::new(0);
    }

    #[test]
    fn histogram_percentile() {
        let mut p = HistogramPredictor::new(0.9);
        // 90 observations of 2, 10 of 10: p90 = 2 boundary, p95 would be 10.
        for _ in 0..90 {
            p.observe(2.0);
        }
        for _ in 0..10 {
            p.observe(10.0);
        }
        assert_eq!(p.predict(), 2.0);
        let mut p99 = HistogramPredictor::new(0.99);
        for _ in 0..90 {
            p99.observe(2.0);
        }
        for _ in 0..10 {
            p99.observe(10.0);
        }
        assert_eq!(p99.predict(), 10.0);
    }

    #[test]
    fn histogram_empty_predicts_zero() {
        let p = HistogramPredictor::new(0.95);
        assert_eq!(p.predict(), 0.0);
    }

    #[test]
    #[should_panic(expected = "percentile must be in [0,1]")]
    fn histogram_bad_percentile_rejected() {
        let _ = HistogramPredictor::new(1.5);
    }

    /// Moving average always lies within the window's min/max.
    #[test]
    fn prop_moving_average_bounded() {
        testkit::check(64, |g| {
            let w = g.usize_in(1..10);
            let series = g.vec(1..60, |g| g.f64_in(-100.0..100.0));
            let mut p = MovingAverage::new(w);
            for &x in &series {
                p.observe(x);
            }
            let tail: Vec<f64> = series.iter().rev().take(w).cloned().collect();
            let lo = tail.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = tail.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let pred = p.predict();
            assert!(pred >= lo - 1e-9 && pred <= hi + 1e-9);
        });
    }

    /// Histogram prediction is a value that was actually observed (for
    /// integer inputs) and increases with the target percentile.
    #[test]
    fn prop_histogram_monotone_in_percentile() {
        testkit::check(64, |g| {
            let series = g.vec(1..100, |g| g.u8_in(0..50));
            let mut lo = HistogramPredictor::new(0.5);
            let mut hi = HistogramPredictor::new(0.99);
            for &x in &series {
                lo.observe(x as f64);
                hi.observe(x as f64);
            }
            assert!(hi.predict() >= lo.predict());
        });
    }
}
