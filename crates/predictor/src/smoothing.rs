//! Exponential smoothing (paper Eq. 1).
//!
//! `e_t = α·history[t] + (1-α)·e_{t-1}` with α ∈ (0, 1). The prediction for
//! the next interval is the current smoothed value. §IV-C-2 discusses the
//! parameter: α between 0.1 and 0.3 for stable series, larger for volatile
//! ones (the paper uses 0.8), and for short series (< 20 samples) the initial
//! value should be the mean of the first five observations rather than the
//! raw first sample.

use crate::Predictor;

use stdshim::{JsonValue, ToJson};
/// Strategy for seeding `e_0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InitialValue {
    /// Use the first observation directly (fine for long series).
    FirstObservation,
    /// Use the mean of the first `N` observations; predictions before `N`
    /// samples use the running mean so far. The paper's choice with N = 5.
    #[default]
    MeanOfFirst5,
}

/// The exponential smoothing predictor of Eq. 1.
#[derive(Debug, Clone)]
pub struct ExponentialSmoothing {
    alpha: f64,
    init: InitialValue,
    /// Smoothed value `e_t`, once seeded.
    smoothed: Option<f64>,
    /// Inline buffer of early observations while seeding with MeanOfFirst5
    /// (`warmup_len` entries are live); a controller builds one smoother per
    /// runtime key, so seeding must not allocate.
    warmup: [f64; 5],
    warmup_len: u8,
    observations: usize,
}

impl ExponentialSmoothing {
    /// Creates a predictor with the given smoothing coefficient.
    ///
    /// # Panics
    /// Panics unless `0 < alpha < 1` (the paper's stated valid range).
    pub fn new(alpha: f64) -> Self {
        Self::with_init(alpha, InitialValue::default())
    }

    /// Creates a predictor with an explicit initial-value strategy.
    pub fn with_init(alpha: f64, init: InitialValue) -> Self {
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "alpha must be in (0,1), got {alpha}"
        );
        ExponentialSmoothing {
            alpha,
            init,
            smoothed: None,
            warmup: [0.0; 5],
            warmup_len: 0,
            observations: 0,
        }
    }

    /// The paper's configuration: α = 0.8, mean-of-first-five seeding.
    pub fn paper_default() -> Self {
        Self::new(0.8)
    }

    /// Forgets every observation: the state [`Self::with_init`] builds.
    pub(crate) fn reset(&mut self) {
        *self = Self::with_init(self.alpha, self.init);
    }

    /// The smoothing coefficient.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The seeded smoothed value `e_t` and the factor one zero observation
    /// multiplies a non-negative `e_t` by: Eq. 1 with `history[t] = 0` is
    /// `α·0 + (1−α)·e = +0.0 + (1−α)·e`, and adding `+0.0` to a non-negative
    /// float is exact. `None` while the seed is still being collected.
    pub(crate) fn zero_decay(&self) -> Option<(f64, f64)> {
        self.smoothed.map(|e| (e, 1.0 - self.alpha))
    }
}

impl Predictor for ExponentialSmoothing {
    fn observe(&mut self, value: f64) {
        self.observations += 1;
        match (self.smoothed, self.init) {
            (Some(prev), _) => {
                self.smoothed = Some(self.alpha * value + (1.0 - self.alpha) * prev);
            }
            (None, InitialValue::FirstObservation) => {
                self.smoothed = Some(value);
            }
            (None, InitialValue::MeanOfFirst5) => {
                self.warmup[usize::from(self.warmup_len)] = value;
                self.warmup_len += 1;
                if usize::from(self.warmup_len) == self.warmup.len() {
                    let mean = self.warmup.iter().sum::<f64>() / self.warmup.len() as f64;
                    self.smoothed = Some(mean);
                    self.warmup_len = 0;
                }
            }
        }
    }

    fn predict(&self) -> f64 {
        match self.smoothed {
            Some(e) => e,
            // Still warming up: running mean of what we have, else 0.
            None if self.warmup_len > 0 => {
                let n = usize::from(self.warmup_len);
                self.warmup[..n].iter().sum::<f64>() / n as f64
            }
            None => 0.0,
        }
    }

    fn name(&self) -> &'static str {
        "exp-smoothing"
    }

    fn observations(&self) -> usize {
        self.observations
    }
}

impl ToJson for InitialValue {
    fn to_json(&self) -> JsonValue {
        JsonValue::Str(
            match self {
                InitialValue::FirstObservation => "first-observation",
                InitialValue::MeanOfFirst5 => "mean-of-first-5",
            }
            .to_string(),
        )
    }
}

impl ToJson for ExponentialSmoothing {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("model", self.name().to_json()),
            ("alpha", self.alpha().to_json()),
            ("init", self.init.to_json()),
            ("observations", self.observations().to_json()),
            ("prediction", self.predict().to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_series_predicts_constant() {
        let mut es = ExponentialSmoothing::paper_default();
        for _ in 0..30 {
            es.observe(7.0);
        }
        assert!((es.predict() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn recurrence_matches_eq1() {
        let mut es = ExponentialSmoothing::with_init(0.8, InitialValue::FirstObservation);
        es.observe(10.0); // e0 = 10
        es.observe(20.0); // e1 = 0.8*20 + 0.2*10 = 18
        assert!((es.predict() - 18.0).abs() < 1e-12);
        es.observe(15.0); // e2 = 0.8*15 + 0.2*18 = 15.6
        assert!((es.predict() - 15.6).abs() < 1e-12);
    }

    #[test]
    fn high_alpha_tracks_jumps_faster() {
        let series: Vec<f64> = std::iter::repeat_n(5.0, 10)
            .chain(std::iter::repeat_n(20.0, 3))
            .collect();
        let run = |alpha: f64| {
            let mut es = ExponentialSmoothing::with_init(alpha, InitialValue::FirstObservation);
            for &x in &series {
                es.observe(x);
            }
            es.predict()
        };
        let fast = run(0.8);
        let slow = run(0.2);
        // After the jump to 20, the α=0.8 model is much closer to 20.
        assert!((20.0 - fast).abs() < (20.0 - slow).abs());
        assert!(fast > 18.0, "fast={fast}");
        assert!(slow < 15.0, "slow={slow}");
    }

    #[test]
    fn mean_of_first5_seeding() {
        let mut es = ExponentialSmoothing::paper_default();
        for x in [2.0, 4.0, 6.0, 8.0, 10.0] {
            es.observe(x);
        }
        // e0 = mean of first five = 6.
        assert!((es.predict() - 6.0).abs() < 1e-12);
        es.observe(6.0);
        assert!((es.predict() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn warmup_predicts_running_mean() {
        let mut es = ExponentialSmoothing::paper_default();
        assert_eq!(es.predict(), 0.0);
        es.observe(4.0);
        assert!((es.predict() - 4.0).abs() < 1e-12);
        es.observe(8.0);
        assert!((es.predict() - 6.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0,1)")]
    fn alpha_one_rejected() {
        let _ = ExponentialSmoothing::new(1.0);
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0,1)")]
    fn alpha_zero_rejected() {
        let _ = ExponentialSmoothing::new(0.0);
    }

    /// The smoothed value is always within the observed range: it is a
    /// convex combination of observations (geometric weights summing to 1).
    #[test]
    fn prop_prediction_within_range() {
        testkit::check(64, |g| {
            let alpha = g.f64_in(0.01..0.99);
            let series = g.vec(1..100, |g| g.f64_in(0.0..1000.0));
            let mut es = ExponentialSmoothing::with_init(alpha, InitialValue::FirstObservation);
            for &x in &series {
                es.observe(x);
            }
            let lo = series.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = series.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let p = es.predict();
            assert!(p >= lo - 1e-9 && p <= hi + 1e-9, "p={p} not in [{lo},{hi}]");
        });
    }

    /// Shifting the whole series shifts the prediction by the same amount
    /// (linearity in the input level).
    #[test]
    fn prop_shift_equivariance() {
        testkit::check(64, |g| {
            let shift = g.f64_in(-100.0..100.0);
            let series = g.vec(6..50, |g| g.f64_in(0.0..100.0));
            let mut a = ExponentialSmoothing::paper_default();
            let mut b = ExponentialSmoothing::paper_default();
            for &x in &series {
                a.observe(x);
                b.observe(x + shift);
            }
            assert!((b.predict() - a.predict() - shift).abs() < 1e-6);
        });
    }
}
