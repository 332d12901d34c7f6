//! Holt's double exponential smoothing (trend-aware ES).
//!
//! §IV-C notes that plain exponential smoothing "is suitable for predicting
//! data that has no obvious trend" — its forecast chronically lags ramps.
//! Holt's method keeps a second smoothed *trend* term and projects it one
//! step ahead:
//!
//! ```text
//! level_t = α·x_t + (1-α)·(level_{t-1} + trend_{t-1})
//! trend_t = β·(level_t - level_{t-1}) + (1-β)·trend_{t-1}
//! forecast = level_t + trend_t
//! ```
//!
//! Included as an additional baseline for the Fig. 10 comparison: on linear
//! ramps Holt beats both plain ES and the Markov correction; on jumpy
//! regime-switching demand the trend term overshoots, which is exactly why
//! the paper pairs ES with a Markov chain instead.

use crate::Predictor;

/// Holt's linear (double) exponential smoothing.
#[derive(Debug, Clone)]
pub struct Holt {
    alpha: f64,
    beta: f64,
    level: Option<f64>,
    trend: f64,
    observations: usize,
}

impl Holt {
    /// Creates the predictor.
    ///
    /// # Panics
    /// Panics unless both coefficients are in `(0, 1)`.
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "alpha must be in (0,1), got {alpha}"
        );
        assert!(
            beta > 0.0 && beta < 1.0,
            "beta must be in (0,1), got {beta}"
        );
        Holt {
            alpha,
            beta,
            level: None,
            trend: 0.0,
            observations: 0,
        }
    }
}

impl Predictor for Holt {
    fn observe(&mut self, value: f64) {
        self.observations += 1;
        match self.level {
            None => {
                self.level = Some(value);
                self.trend = 0.0;
            }
            Some(prev_level) => {
                let level = self.alpha * value + (1.0 - self.alpha) * (prev_level + self.trend);
                self.trend = self.beta * (level - prev_level) + (1.0 - self.beta) * self.trend;
                self.level = Some(level);
            }
        }
    }

    fn predict(&self) -> f64 {
        match self.level {
            Some(level) => level + self.trend,
            None => 0.0,
        }
    }

    fn name(&self) -> &'static str {
        "holt"
    }

    fn observations(&self) -> usize {
        self.observations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::mape;
    use crate::smoothing::ExponentialSmoothing;
    use crate::{one_step_ahead, InitialValue};

    #[test]
    fn constant_series_no_trend() {
        let mut h = Holt::new(0.8, 0.3);
        for _ in 0..20 {
            h.observe(5.0);
        }
        assert!((h.predict() - 5.0).abs() < 1e-9);
        assert!(h.trend.abs() < 1e-9);
    }

    #[test]
    fn linear_ramp_learned_exactly() {
        let mut h = Holt::new(0.8, 0.5);
        for i in 0..40 {
            h.observe(3.0 * i as f64 + 2.0);
        }
        // On a clean line the one-step forecast converges onto the line.
        let expected = 3.0 * 40.0 + 2.0;
        assert!((h.predict() - expected).abs() < 0.5, "{}", h.predict());
        assert!((h.trend - 3.0).abs() < 0.2, "trend {}", h.trend);
    }

    #[test]
    fn beats_plain_es_on_a_ramp() {
        let series: Vec<f64> = (0..30).map(|i| 2.0 * i as f64).collect();
        let mut holt = Holt::new(0.8, 0.5);
        let mut es = ExponentialSmoothing::with_init(0.8, InitialValue::FirstObservation);
        let hp = one_step_ahead(&mut holt, &series);
        let ep = one_step_ahead(&mut es, &series);
        // Skip the first few warm-up points for a fair comparison.
        let h_err = mape(&hp[3..], &series[4..]);
        let e_err = mape(&ep[3..], &series[4..]);
        assert!(h_err < e_err / 2.0, "holt {h_err} vs es {e_err}");
    }

    #[test]
    fn overshoots_after_a_jump() {
        // The failure mode that motivates the paper's Markov correction:
        // after a step jump the learned trend keeps projecting upward.
        let mut h = Holt::new(0.8, 0.5);
        for _ in 0..10 {
            h.observe(5.0);
        }
        h.observe(20.0);
        // Forecast exceeds the new plateau because a spurious trend appeared.
        assert!(h.predict() > 21.0, "{}", h.predict());
    }

    #[test]
    #[should_panic(expected = "beta must be in (0,1)")]
    fn invalid_beta_rejected() {
        let _ = Holt::new(0.5, 1.0);
    }

    #[test]
    fn empty_predicts_zero() {
        let h = Holt::new(0.5, 0.5);
        assert_eq!(h.predict(), 0.0);
        assert_eq!(h.observations(), 0);
    }
}
