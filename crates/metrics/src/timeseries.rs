//! Timestamped value series for resource timelines and demand histories.

use simclock::SimTime;

/// A time-ordered series of `(SimTime, f64)` samples.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sample.
    ///
    /// # Panics
    /// Panics if `at` precedes the last sample (series must stay ordered).
    pub fn push(&mut self, at: SimTime, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(
                at >= last,
                "samples must be time-ordered: {at:?} < {last:?}"
            );
        }
        self.points.push((at, value));
    }

    /// The raw points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Just the values, in time order.
    pub fn values(&self) -> Vec<f64> {
        self.points.iter().map(|&(_, v)| v).collect()
    }

    /// Peak value (None when empty).
    pub fn max(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc, v| Some(acc.map_or(v, |m: f64| m.max(v))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn push_and_query() {
        let mut ts = TimeSeries::new();
        ts.push(t(1), 10.0);
        ts.push(t(3), 30.0);
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.points(), [(t(1), 10.0), (t(3), 30.0)]);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_rejected() {
        let mut ts = TimeSeries::new();
        ts.push(t(5), 1.0);
        ts.push(t(3), 2.0);
    }

    #[test]
    fn max_and_values() {
        let mut ts = TimeSeries::new();
        ts.push(t(0), 1.0);
        ts.push(t(1), 5.0);
        ts.push(t(2), 3.0);
        assert_eq!(ts.max(), Some(5.0));
        assert_eq!(ts.values(), vec![1.0, 5.0, 3.0]);
        assert!(TimeSeries::new().max().is_none());
    }
}
