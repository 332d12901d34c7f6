//! Prediction-error metrics used in the Fig. 10 comparisons.

/// Mean absolute percentage error, with denominators clamped to ≥ 1 so a
/// zero-demand interval doesn't blow the metric up (demand is a count).
///
/// # Panics
/// Panics if the slices differ in length or are empty.
pub fn mape(predictions: &[f64], actuals: &[f64]) -> f64 {
    check(predictions, actuals);
    predictions
        .iter()
        .zip(actuals)
        .map(|(p, a)| (p - a).abs() / a.abs().max(1.0))
        .sum::<f64>()
        / predictions.len() as f64
}

fn check(predictions: &[f64], actuals: &[f64]) {
    assert_eq!(
        predictions.len(),
        actuals.len(),
        "prediction/actual length mismatch"
    );
    assert!(!predictions.is_empty(), "empty series");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_zero_error() {
        let s = [3.0, 5.0, 8.0];
        assert_eq!(mape(&s, &s), 0.0);
    }

    #[test]
    fn known_values() {
        let p = [2.0, 4.0];
        let a = [4.0, 8.0];
        assert!((mape(&p, &a) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mape_clamps_zero_actuals() {
        let p = [1.0];
        let a = [0.0];
        assert!((mape(&p, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = mape(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "empty series")]
    fn empty_series_panics() {
        let _ = mape(&[], &[]);
    }
}
