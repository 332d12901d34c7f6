//! Point-in-time JSON export of a [`MetricsRegistry`].
//!
//! A [`MetricsSnapshot`] freezes every named metric into plain data —
//! histogram summaries keep the exact sample count and nanosecond sum next
//! to the approximate quantiles, so a snapshot can be reconciled against
//! e2e request totals exactly. A scope keeps the stages that recorded a
//! sample, in `Stage::ALL` order; an absent stage has count 0. All
//! durations are reported in nanoseconds (`*_ns` fields).
//! [`MetricsSnapshot::to_json`] writes the snapshot through
//! [`stdshim::JsonWriter`] as it is read, so no JSON tree is ever built.
//!
//! One rule derives the request-wide view: scope `all` is the merge of every
//! `fn/` scope (plus anything recorded into `all` directly), and histogram
//! `gateway/e2e` the merge of those scopes' sample totals — each request's
//! stage sum is its e2e latency. Both are present in every snapshot, empty
//! or not, and nothing records into `gateway/e2e`.

use crate::histogram::LatencyHistogram;
use crate::registry::{MetricsRegistry, StageHistograms};
use crate::stage::{Stage, N_STAGES};
use crate::timeseries::TimeSeries;
use stdshim::{Json, JsonSink, JsonWriter, ToJson};

/// The prefix of per-function scopes, `fn/<function>`.
pub(crate) const FN_PREFIX: &str = "fn/";
/// The scope derived from every `fn/` scope.
const ALL_SCOPE: &str = "all";
/// The histogram derived from the `fn/` scopes' sample totals.
const E2E_HISTOGRAM: &str = "gateway/e2e";

/// Summary of one histogram: exact count/sum/min/max/mean plus approximate
/// quantiles (all nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Exact sum of all samples, in nanoseconds (saturating at `u64::MAX`).
    pub sum_ns: u64,
    /// Exact minimum.
    pub min_ns: u64,
    /// Exact maximum.
    pub max_ns: u64,
    /// Exact mean.
    pub mean_ns: u64,
    /// Approximate median.
    pub p50_ns: u64,
    /// Approximate 90th percentile.
    pub p90_ns: u64,
    /// Approximate 99th percentile.
    pub p99_ns: u64,
}

impl HistogramSummary {
    /// Summarizes a histogram (all-zero for an empty one).
    pub fn of(h: &LatencyHistogram) -> Self {
        if h.is_empty() {
            return HistogramSummary {
                count: 0,
                sum_ns: 0,
                min_ns: 0,
                max_ns: 0,
                mean_ns: 0,
                p50_ns: 0,
                p90_ns: 0,
                p99_ns: 0,
            };
        }
        HistogramSummary {
            count: h.count(),
            sum_ns: u64::try_from(h.sum_ns()).unwrap_or(u64::MAX),
            min_ns: h.min().as_nanos(),
            max_ns: h.max().as_nanos(),
            mean_ns: h.mean().as_nanos(),
            p50_ns: h.quantile(0.5).as_nanos(),
            p90_ns: h.quantile(0.9).as_nanos(),
            p99_ns: h.quantile(0.99).as_nanos(),
        }
    }
}

impl ToJson for HistogramSummary {
    fn write_json<S: JsonSink>(&self, w: &mut JsonWriter<S>) -> Result<(), S::Error> {
        w.begin_object()?;
        for (name, v) in [
            ("count", self.count),
            ("sum_ns", self.sum_ns),
            ("min_ns", self.min_ns),
            ("max_ns", self.max_ns),
            ("mean_ns", self.mean_ns),
            ("p50_ns", self.p50_ns),
            ("p90_ns", self.p90_ns),
            ("p99_ns", self.p99_ns),
        ] {
            w.key(name)?;
            w.uint(v)?;
        }
        w.end_object()
    }
}

/// A frozen view of every metric in a registry.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Named counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Named histograms, sorted by name.
    pub histograms: Vec<(String, HistogramSummary)>,
    /// Per-scope stage summaries, sorted by scope: the stages that recorded
    /// a sample, in `Stage::ALL` order; an absent stage has count 0.
    pub stages: Vec<(String, Vec<(Stage, HistogramSummary)>)>,
    /// Named time series, sorted by name.
    pub series: Vec<(String, TimeSeries)>,
}

impl MetricsSnapshot {
    /// A counter's value, if recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// One stage's summary within a scope, if the scope exists.
    pub(crate) fn stage(&self, scope: &str, stage: Stage) -> Option<HistogramSummary> {
        let (_, stages) = self.stages.iter().find(|(s, _)| s == scope)?;
        stages.iter().find(|&&(s, _)| s == stage).map(|&(_, h)| h)
    }

    /// Sample count of one stage in a scope (0 when absent).
    pub fn stage_count(&self, scope: &str, stage: Stage) -> u64 {
        self.stage(scope, stage).map_or(0, |h| h.count)
    }

    /// Exact nanosecond sum of one stage in a scope (0 when absent).
    pub(crate) fn stage_sum_ns(&self, scope: &str, stage: Stage) -> u64 {
        self.stage(scope, stage).map_or(0, |h| h.sum_ns)
    }

    /// Exact nanosecond sum across all stages of a scope — reconciles with
    /// the sum of `RequestTrace::total()` over the scope's requests.
    pub fn scope_total_ns(&self, scope: &str) -> u64 {
        Stage::ALL
            .iter()
            .map(|&s| self.stage_sum_ns(scope, s))
            .sum()
    }

    /// The snapshot as a JSON document, serialized on demand:
    /// `to_json().to_pretty_string()` streams the `--metrics-out` text into
    /// one `String`, `write_pretty` into any [`JsonSink`], and `Display` is
    /// the compact form.
    pub fn to_json(&self) -> Json<'_, Self> {
        Json(self)
    }
}

/// `[[t_s, value], …]`: the change points, then the last sample if it is not
/// itself one, so the run's end survives.
fn write_series<S: JsonSink>(w: &mut JsonWriter<S>, ts: &TimeSeries) -> Result<(), S::Error> {
    let end = match (ts.end(), ts.points().last()) {
        (Some(end), Some(&(last, v))) if end > last => Some((end, v)),
        _ => None,
    };
    w.begin_array()?;
    for (at, v) in ts.points().iter().copied().chain(end) {
        w.begin_array()?;
        w.float(at.as_secs_f64())?;
        w.float(v)?;
        w.end_array()?;
    }
    w.end_array()
}

impl ToJson for MetricsSnapshot {
    fn write_json<S: JsonSink>(&self, w: &mut JsonWriter<S>) -> Result<(), S::Error> {
        w.begin_object()?;
        w.key("counters")?;
        w.begin_object()?;
        for (name, v) in &self.counters {
            w.key(name)?;
            w.uint(*v)?;
        }
        w.end_object()?;
        // The registry keeps no gauges; the empty object keeps the
        // `--metrics-out` format unchanged.
        w.key("gauges")?;
        w.begin_object()?;
        w.end_object()?;
        w.key("histograms")?;
        w.begin_object()?;
        for (name, h) in &self.histograms {
            w.key(name)?;
            h.write_json(w)?;
        }
        w.end_object()?;
        w.key("stages")?;
        w.begin_object()?;
        for (scope, stages) in &self.stages {
            w.key(scope)?;
            w.begin_object()?;
            for (stage, h) in stages.iter().filter(|(_, h)| h.count > 0) {
                w.key(stage.name())?;
                h.write_json(w)?;
            }
            w.end_object()?;
        }
        w.end_object()?;
        w.key("series")?;
        w.begin_object()?;
        for (name, ts) in &self.series {
            w.key(name)?;
            write_series(w, ts)?;
        }
        w.end_object()?;
        w.end_object()
    }
}

impl MetricsRegistry {
    /// Freezes every metric into a [`MetricsSnapshot`]. The registry is read
    /// out once and each stage set visited once, under its own lock: what it
    /// holds then is summarized under its own scope and, for a `fn/` scope,
    /// merged into `all` and `gateway/e2e`, so those agree with the `fn/`
    /// scopes even while recorders run. A stage set that has recorded
    /// nothing yet is left out, however early its scope was created; `all`
    /// and `gateway/e2e` are always present.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let raw = self.read_out();
        let mut all = StageHistograms::default();
        let mut e2e = LatencyHistogram::new();
        // Only the stages that recorded a sample, in a `Vec` sized to them:
        // a filtered `collect` would start at 4 and regrow.
        let summarize = |scope: String, hists: &StageHistograms| {
            let recorded = Stage::ALL.iter().zip(hists).filter(|(_, h)| !h.is_empty());
            let mut summaries = Vec::with_capacity(recorded.clone().count());
            summaries.extend(recorded.map(|(&s, h)| (s, HistogramSummary::of(h))));
            (scope, summaries)
        };
        let mut stages = Vec::with_capacity(raw.stages.len() + 1);
        for (scope, set) in raw.stages {
            set.visit(|hists| {
                // Every sample lands in the totals slot, so an empty one
                // means an empty set.
                if hists[N_STAGES].is_empty() {
                    return;
                }
                let is_fn = scope.starts_with(FN_PREFIX);
                if is_fn || scope == ALL_SCOPE {
                    for (slot, hist) in all.iter_mut().zip(&hists[..N_STAGES]) {
                        slot.merge(hist);
                    }
                }
                if is_fn {
                    e2e.merge(&hists[N_STAGES]);
                }
                if scope != ALL_SCOPE {
                    stages.push(summarize(scope, hists));
                }
            });
        }
        stages.push(summarize(ALL_SCOPE.to_string(), &all));
        stages.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot {
            histograms: vec![(E2E_HISTOGRAM.to_string(), HistogramSummary::of(&e2e))],
            stages,
            counters: raw.counters,
            series: raw.series,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::StageSample;
    use simclock::{SimDuration, SimTime};

    #[test]
    fn snapshot_round_trips_values() {
        let reg = MetricsRegistry::new();
        reg.counter("a/requests").add(7);
        let mut s = StageSample::new();
        s.set(Stage::Exec, SimDuration::from_millis(4));
        s.set(Stage::RuntimeInit, SimDuration::from_millis(6));
        reg.fn_stage_set("x").record(&s);
        reg.sample_series("demand", SimTime::from_secs(30), 2.0);

        let snap = reg.snapshot();
        assert_eq!(snap.counter("a/requests"), Some(7));
        assert_eq!(snap.histograms[0].0, "gateway/e2e");
        assert_eq!(snap.histograms[0].1.count, 1);
        assert_eq!(snap.stage_count("fn/x", Stage::Exec), 1);
        assert_eq!(
            snap.scope_total_ns("fn/x"),
            SimDuration::from_millis(10).as_nanos()
        );
        assert_eq!(snap.series[0].1.len(), 1);
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let reg = MetricsRegistry::new();
        reg.counter("gateway/requests").add(1);
        let mut s = StageSample::new();
        s.set(Stage::Exec, SimDuration::from_millis(1));
        reg.stage_set("all").record(&s);
        let text = reg.snapshot().to_json().to_pretty_string();
        assert!(text.contains("\"gateway/requests\": 1"));
        assert!(text.contains("\"exec\""));
        assert!(text.contains("\"sum_ns\""));
        // Zero-count stages are omitted from the scope object.
        assert!(!text.contains("\"image_pull\""));
    }

    #[test]
    fn stage_sets_that_recorded_nothing_are_left_out() {
        let reg = MetricsRegistry::new();
        let _created_early = reg.fn_stage_set("idle");
        let mut s = StageSample::new();
        s.set(Stage::Exec, SimDuration::from_millis(1));
        reg.fn_stage_set("busy").record(&s);
        let snap = reg.snapshot();
        let scopes: Vec<&str> = snap.stages.iter().map(|(s, _)| s.as_str()).collect();
        assert_eq!(scopes, ["all", "fn/busy"]);
        // The derived `all` stays, empty or not.
        let empty = MetricsRegistry::new();
        empty.fn_stage_set("idle");
        assert_eq!(empty.snapshot().stages.len(), 1);
    }

    /// A scope lists only the stages that recorded a sample, and the
    /// absent ones still read as zero.
    #[test]
    fn snapshot_keeps_only_recorded_stages() {
        let reg = MetricsRegistry::new();
        let mut s = StageSample::new();
        s.set(Stage::Exec, SimDuration::from_millis(2));
        s.set(Stage::RuntimeInit, SimDuration::from_millis(3));
        reg.fn_stage_set("x").record(&s);
        let snap = reg.snapshot();
        for (scope, stages) in &snap.stages {
            let kept: Vec<Stage> = stages.iter().map(|&(stage, _)| stage).collect();
            assert_eq!(kept, [Stage::RuntimeInit, Stage::Exec], "{scope}");
            assert!(stages.iter().all(|(_, h)| h.count > 0), "{scope}");
            assert_eq!(stages.capacity(), stages.len(), "{scope}");
        }
        assert_eq!(snap.stage_count("fn/x", Stage::ImagePull), 0);
        assert_eq!(
            snap.scope_total_ns("all"),
            SimDuration::from_millis(5).as_nanos()
        );
        let empty = MetricsRegistry::new().snapshot();
        assert_eq!(empty.stages, [("all".to_string(), Vec::new())]);
    }

    #[test]
    fn empty_histogram_summary_is_zero() {
        let s = HistogramSummary::of(&LatencyHistogram::new());
        assert_eq!(s.count, 0);
        assert_eq!(s.p99_ns, 0);
    }
}
