//! Sampled step functions for resource timelines (`pool/live`, the
//! controller's demand series).
//!
//! A producer samples a [`TimeSeries`] at every tick, but the series stores
//! only its *change points*: the first sample, then each sample whose value
//! differs (bit for bit) from the value in force. It also remembers the last
//! instant it was sampled at, so it is the step function
//! [`TimeSeries::value_at`] over `[first sample, last sample]`. A 1 s tick
//! over a 67-hour replay is 242 k samples of a live count that changes a few
//! thousand times; the series costs the few thousand.
//!
//! The form is canonical: two series that sampled the same function over the
//! same span hold the same points and the same end. That is what lets
//! `MetricsRegistry::absorb` sum worker series as step functions and still
//! reproduce, byte for byte, the series of one registry that sampled the
//! per-tick sums.

use simclock::SimTime;

/// A step function kept as its change points plus the last sampled instant.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    /// `(instant, value)` at every change, strictly increasing in time, no
    /// two consecutive values equal.
    points: Vec<(SimTime, f64)>,
    /// The last instant sampled; `None` until the first sample.
    end: Option<SimTime>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Samples the series: `value` holds from `at` on. Stores a point only
    /// if `value` differs from the value in force.
    ///
    /// # Panics
    /// Panics if `at` precedes the last sample (series must stay ordered).
    pub fn push(&mut self, at: SimTime, value: f64) {
        if let Some(end) = self.end {
            assert!(at >= end, "samples must be time-ordered: {at:?} < {end:?}");
        }
        if self
            .points
            .last()
            .is_none_or(|&(_, v)| v.to_bits() != value.to_bits())
        {
            self.points.push((at, value));
        }
        self.end = Some(at);
    }

    /// The change points, in time order.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// The last instant sampled (`None` when empty). At or after the last
    /// change point; the last value holds up to it.
    pub fn end(&self) -> Option<SimTime> {
        self.end
    }

    /// The value in force at `at`: that of the last change point at or
    /// before it. `None` outside `[first sample, end]`.
    pub fn value_at(&self, at: SimTime) -> Option<f64> {
        if self.end.is_none_or(|end| at > end) {
            return None;
        }
        let after = self.points.partition_point(|&(t, _)| t <= at);
        after.checked_sub(1).map(|i| self.points[i].1)
    }

    /// Number of change points stored.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series was never sampled.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;
    use stdshim::JsonValue;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn push_and_query() {
        let mut ts = TimeSeries::new();
        assert_eq!((ts.end(), ts.value_at(t(0))), (None, None));
        ts.push(t(1), 10.0);
        ts.push(t(2), 10.0);
        ts.push(t(3), 30.0);
        ts.push(t(4), 30.0);
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.points(), [(t(1), 10.0), (t(3), 30.0)]);
        assert_eq!(ts.end(), Some(t(4)));
        let at: Vec<Option<f64>> = (0..6).map(|s| ts.value_at(t(s))).collect();
        assert_eq!(
            at,
            [None, Some(10.0), Some(10.0), Some(30.0), Some(30.0), None]
        );
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_rejected() {
        let mut ts = TimeSeries::new();
        ts.push(t(5), 1.0);
        ts.push(t(3), 2.0);
    }

    /// An unchanged sample stores no point but still moves the end, so a
    /// later sample before it is out of order.
    #[test]
    #[should_panic(expected = "time-ordered")]
    fn unstored_sample_still_orders() {
        let mut ts = TimeSeries::new();
        ts.push(t(10), 1.0);
        ts.push(t(20), 1.0);
        ts.push(t(15), 2.0);
    }

    /// The registry's guard compares against the last *sampled* instant: a
    /// guard that looked at the last stored point (10 s) would accept the
    /// 15 s sample after the unstored 20 s one.
    #[test]
    fn registry_drops_sample_before_unstored_one() {
        let reg = MetricsRegistry::new();
        reg.sample_series("s", t(10), 1.0);
        reg.sample_series("s", t(20), 1.0);
        reg.sample_series("s", t(15), 2.0);
        let series = &reg.snapshot().series[0].1;
        assert_eq!(series.points(), [(t(10), 1.0)]);
        assert_eq!(series.end(), Some(t(20)));
    }

    /// A million samples with `k` value changes store `k + 1` points, and the
    /// snapshot JSON stays under a fixed size whatever the sample count.
    #[test]
    fn million_samples_cost_their_changes() {
        const SAMPLES: u64 = 1_000_000;
        const CHANGES: u64 = 99;
        let reg = MetricsRegistry::new();
        let run = SAMPLES / (CHANGES + 1);
        for i in 0..SAMPLES {
            reg.sample_series("pool/live", SimTime::from_millis(i), (i / run) as f64);
        }
        let snap = reg.snapshot();
        let series = &snap.series[0].1;
        assert_eq!(series.len() as u64, CHANGES + 1);
        assert_eq!(series.end(), Some(SimTime::from_millis(SAMPLES - 1)));

        let json = snap.to_json().to_pretty_string();
        assert!(json.len() < 8 * 1024, "snapshot JSON is {} B", json.len());
        let parsed = JsonValue::parse(&json).expect("snapshot JSON parses");
        let rows = parsed
            .get("series")
            .and_then(|s| s.get("pool/live"))
            .and_then(JsonValue::as_array)
            .expect("pool/live rendered");
        // The change points, then the last sample (not itself a change).
        assert_eq!(rows.len() as u64, CHANGES + 2);
        let last = rows[rows.len() - 1].as_array().expect("[t_s, value]");
        assert_eq!(last[0].as_f64(), Some((SAMPLES - 1) as f64 / 1000.0));
        assert_eq!(last[1].as_f64(), Some(CHANGES as f64));
    }
}
