//! Always-on metrics registry with a cheap concurrent recording path.
//!
//! The registry is the process-wide (or gateway-wide) home for named
//! [`Counter`]s, [`Gauge`]s, per-scope [`StageSet`]s, and sampled
//! [`TimeSeries`]. Recording is designed for the `ConcurrentGateway` worker
//! threads: counters and gauges are single relaxed atomics; stage sets are
//! striped by thread so concurrent recorders land on different locks. Named
//! latency histograms are not recorded into: they are declared as unions
//! ([`MetricsRegistry::histogram_union`]) and synthesized from the stage
//! sets' totals at snapshot time. Hot-path callers obtain their `Arc`
//! handles once (get-or-create by name) and record through the handle —
//! no per-request name lookup or allocation.
//!
//! Stripes materialize lazily: a [`StageSet`] is an array of
//! `OnceLock<Box<_>>` slots (two words each, 512 B for all 32), and a scope
//! touched by one thread allocates exactly one stripe — a cache-line-aligned
//! box holding the lock and the scope's histogram headers (≈1 KB), whose
//! counts in turn cost what was recorded into them (see
//! [`crate::histogram`]). A function's first request therefore allocates
//! ≈2 KB of telemetry, so a registry with 100 000 per-function scopes is a
//! few hundred MB rather than 15 GB.

use crate::histogram::LatencyHistogram;
use crate::stage::{Stage, StageSample, N_STAGES};
use crate::timeseries::TimeSeries;
use simclock::{SimDuration, SimTime};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use stdshim::{Mutex, RwLock};

/// Lock stripes per stage set. Worker threads hash onto stripes,
/// so up to this many threads record without contending. Sized to the
/// widest contention point the bench suite drives (32 gateway threads);
/// stripes are lazily allocated, so idle width costs one `OnceLock<Box<_>>`
/// (two words) each.
const N_STRIPES: usize = 32;

/// Monotone per-thread stripe assignment: the first time a thread records,
/// it claims the next stripe index round-robin and keeps it for life.
fn thread_stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    STRIPE.with(|s| *s) % N_STRIPES
}

/// One stripe: the lock and the per-stage histograms (plus the totals slot)
/// it guards, boxed on first use and aligned to its own cache-line pair.
/// Without the alignment, two stripes' lock words (and the histogram headers
/// mutated on every record) can share a cache line, and concurrent recorders
/// on *distinct* stripes still ping-pong that line between cores (false
/// sharing). The alignment sits on the boxed payload, not on the slot that
/// points to it: slots are written once and then only read, so packing them
/// costs nothing, while aligning them would make every stage set 4 KB wide
/// no matter how many threads ever record into it.
#[repr(align(128))]
#[derive(Debug)]
struct Stripe(Mutex<[LatencyHistogram; N_STAGES + 1]>);

impl Stripe {
    fn boxed() -> Box<Stripe> {
        Box::new(Stripe(Mutex::labeled(
            std::array::from_fn(|_| LatencyHistogram::new()),
            "metrics/stripe",
        )))
    }
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the counter. For gateways that already tally requests in
    /// an existing atomic: mirroring that tally into the registry at read
    /// time costs one store here instead of a second contended
    /// read-modify-write per request on the hot path.
    pub fn store(&self, v: u64) {
        // lint:allow(atomic-ordering, monotonic tally mirror; the counter word is the whole payload)
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge (stored as `f64` bits in one atomic).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        // lint:allow(atomic-ordering, last-value-wins gauge; the f64 bits are the whole payload)
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Per-scope stage histograms: one [`LatencyHistogram`] per [`Stage`] plus
/// one for the sample totals (the e2e distribution), in [`N_STRIPES`] lazily
/// allocated stripes merged on read. Recording a [`StageSample`] takes one stripe lock
/// for all stages of the request — including its total, so a gateway gets
/// the e2e histogram for free instead of locking a second structure.
#[derive(Debug, Default)]
pub struct StageSet {
    stripes: [OnceLock<Box<Stripe>>; N_STRIPES],
}

impl StageSet {
    /// An empty stage set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records every nonzero stage of `sample` into the calling thread's
    /// stripe (zero stages did not occur and are not counted), plus the
    /// sample total into the totals slot.
    pub fn record(&self, sample: &StageSample) {
        let _scope = stdshim::request_path_scope();
        let stripe = self.stripes[thread_stripe()].get_or_init(Stripe::boxed);
        let mut hists = stripe.0.lock();
        let mut total = 0u64;
        for (i, &ns) in sample.nanos().iter().enumerate() {
            if ns > 0 {
                hists[i].record(SimDuration::from_nanos(ns));
                total += ns;
            }
        }
        hists[N_STAGES].record(SimDuration::from_nanos(total));
    }

    /// Merged histogram for one stage.
    pub fn merged(&self, stage: Stage) -> LatencyHistogram {
        self.merged_index(stage.index())
    }

    /// Merged histogram of the recorded sample totals (one per sample).
    pub(crate) fn merged_total(&self) -> LatencyHistogram {
        self.merged_index(N_STAGES)
    }

    fn merged_index(&self, index: usize) -> LatencyHistogram {
        let mut out = LatencyHistogram::new();
        for stripe in &self.stripes {
            if let Some(stripe) = stripe.get() {
                out.merge(&stripe.0.lock()[index]);
            }
        }
        out
    }

    /// Merged histograms for all stages, in [`Stage::ALL`] order.
    pub(crate) fn merged_all(&self) -> Vec<(Stage, LatencyHistogram)> {
        Stage::ALL.iter().map(|&s| (s, self.merged(s))).collect()
    }

    /// Folds every sample recorded in `other` into this stage set (into
    /// stripe 0), including the totals slot. Reduction-time only; `other`
    /// is read out fully before this set's stripe lock is taken.
    pub fn absorb(&self, other: &StageSet) {
        let merged: Vec<LatencyHistogram> = (0..=N_STAGES).map(|i| other.merged_index(i)).collect();
        let stripe = self.stripes[0].get_or_init(Stripe::boxed);
        let mut hists = stripe.0.lock();
        for (slot, m) in hists.iter_mut().zip(merged.iter()) {
            slot.merge(m);
        }
    }
}

/// The named-metric registry.
///
/// ```
/// use metrics_lite::{MetricsRegistry, Stage, StageSample};
/// use simclock::{SimDuration, SimTime};
///
/// let reg = MetricsRegistry::new();
/// let requests = reg.counter("gateway/requests");
/// requests.add(1);
///
/// let mut sample = StageSample::new();
/// sample.set(Stage::Exec, SimDuration::from_millis(5));
/// reg.stage_set("fn/demo").record(&sample);
/// reg.sample_series("pool/size", SimTime::from_secs(30), 3.0);
///
/// let snap = reg.snapshot();
/// assert_eq!(snap.counter("gateway/requests"), Some(1));
/// assert_eq!(snap.stage_count("fn/demo", Stage::Exec), 1);
/// ```
#[derive(Debug)]
pub struct MetricsRegistry {
    counters: RwLock<HashMap<String, Arc<Counter>>>,
    gauges: RwLock<HashMap<String, Arc<Gauge>>>,
    stages: RwLock<HashMap<String, Arc<StageSet>>>,
    series: Mutex<HashMap<String, TimeSeries>>,
    /// `(union scope, member prefix)`: at snapshot time the union scope's
    /// stage histograms are synthesized by merging every stage set whose
    /// scope starts with the prefix, so the hot path records each sample
    /// once instead of once per enclosing scope.
    stage_unions: Mutex<Vec<(String, String)>>,
    /// `(histogram name, member prefix)`: the named histogram is synthesized
    /// at snapshot time from the member stage sets' total distributions.
    histogram_unions: Mutex<Vec<(String, String)>>,
    /// `member scope → union scope`: each member stage set feeds exactly one
    /// named union scope, synthesized at snapshot time (e.g. every
    /// `fn/<name>` feeding its function's `key/<runtime-key>`). Reassigning
    /// a member moves its whole history to the new union.
    member_unions: Mutex<HashMap<String, String>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        // Snapshot paths hold the name-table locks across union and stripe
        // locks (always in that order); each field gets its own lock class
        // so the sanitizer sees those edges as distinct, acyclic orderings.
        MetricsRegistry {
            counters: RwLock::labeled(HashMap::new(), "metrics/counters"),
            gauges: RwLock::labeled(HashMap::new(), "metrics/gauges"),
            stages: RwLock::labeled(HashMap::new(), "metrics/stages"),
            series: Mutex::labeled(HashMap::new(), "metrics/series"),
            stage_unions: Mutex::labeled(Vec::new(), "metrics/stage-unions"),
            histogram_unions: Mutex::labeled(Vec::new(), "metrics/histogram-unions"),
            member_unions: Mutex::labeled(HashMap::new(), "metrics/member-unions"),
        }
    }
}

/// Two-pointer merge of time series: points at equal instants sum (two
/// workers sampling the same quantity at the same tick), distinct instants
/// interleave in time order.
fn merge_series(a: &TimeSeries, b: &TimeSeries) -> TimeSeries {
    let (pa, pb) = (a.points(), b.points());
    let mut out = TimeSeries::new();
    let (mut i, mut j) = (0, 0);
    while i < pa.len() && j < pb.len() {
        let ((ta, va), (tb, vb)) = (pa[i], pb[j]);
        if ta == tb {
            out.push(ta, va + vb);
            i += 1;
            j += 1;
        } else if ta < tb {
            out.push(ta, va);
            i += 1;
        } else {
            out.push(tb, vb);
            j += 1;
        }
    }
    for &(t, v) in &pa[i..] {
        out.push(t, v);
    }
    for &(t, v) in &pb[j..] {
        out.push(t, v);
    }
    out
}

fn get_or_create<T: Default>(map: &RwLock<HashMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(v) = map.read().get(name) {
        return Arc::clone(v);
    }
    Arc::clone(
        map.write()
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(T::default())),
    )
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get-or-create a counter. Cache the handle; don't look up per event.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_create(&self.counters, name)
    }

    /// Get-or-create a gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_create(&self.gauges, name)
    }

    /// Get-or-create a per-scope stage set (scopes are conventionally
    /// `"all"`, `"fn/<function>"`, or `"key/<runtime-key>"`).
    pub fn stage_set(&self, scope: &str) -> Arc<StageSet> {
        get_or_create(&self.stages, scope)
    }

    /// Declares `scope` as the snapshot-time merge of every stage set whose
    /// scope starts with `member_prefix` (e.g. `"all"` over `"fn/"`).
    /// Recording into the member scopes then feeds the union for free;
    /// samples recorded directly into `scope` are merged in as well.
    pub fn stage_union(&self, scope: &str, member_prefix: &str) {
        let mut unions = self.stage_unions.lock();
        if !unions.iter().any(|(s, p)| s == scope && p == member_prefix) {
            unions.push((scope.to_string(), member_prefix.to_string()));
        }
    }

    /// Assigns `member_scope`'s stage set to feed the synthesized
    /// `union_scope` at snapshot time. A member feeds at most one union;
    /// assigning it again (e.g. a function re-registered under a different
    /// runtime key) moves its entire recorded history to the new union.
    pub fn stage_union_member(&self, union_scope: &str, member_scope: &str) {
        self.member_unions
            .lock()
            .insert(member_scope.to_string(), union_scope.to_string());
    }

    /// Declares the named histogram as the snapshot-time merge of the
    /// *total* distributions of every stage set whose scope starts with
    /// `member_prefix` (e.g. `"gateway/e2e"` over `"fn/"` — each request's
    /// stage sum is its e2e latency).
    pub fn histogram_union(&self, name: &str, member_prefix: &str) {
        let mut unions = self.histogram_unions.lock();
        if !unions.iter().any(|(n, p)| n == name && p == member_prefix) {
            unions.push((name.to_string(), member_prefix.to_string()));
        }
    }

    /// Folds every metric recorded in `other` into this registry: counters
    /// add, gauges sum, stage sets merge sample-for-sample,
    /// time series merge by timestamp (values at equal instants sum), and
    /// union declarations carry over (deduplicated, like re-declaring them).
    ///
    /// This is the deterministic reduction step for per-worker replay
    /// registries. Every fold is commutative and associative, union scopes
    /// are synthesized from the merged raw scopes at snapshot time (never
    /// absorbed pre-synthesized, which would double-count), and snapshots
    /// sort by name — so absorbing worker registries in any order yields
    /// the same snapshot. `other` is read out completely before any of this
    /// registry's locks are taken, so absorb never holds same-class locks
    /// from two registries at once.
    pub fn absorb(&self, other: &MetricsRegistry) {
        let counters = other.counters_snapshot();
        let gauges = other.gauges_snapshot();
        let stages: Vec<(String, Arc<StageSet>)> = {
            let map = other.stages.read();
            let mut v: Vec<_> = map
                .iter()
                .map(|(k, s)| (k.clone(), Arc::clone(s)))
                .collect();
            v.sort_by(|a, b| a.0.cmp(&b.0));
            v
        };
        let series_list = other.series_snapshot();
        let stage_unions = other.stage_unions.lock().clone();
        let histogram_unions = other.histogram_unions.lock().clone();
        let member_unions: Vec<(String, String)> = {
            let map = other.member_unions.lock();
            let mut v: Vec<_> = map.iter().map(|(m, s)| (m.clone(), s.clone())).collect();
            v.sort_by(|a, b| a.0.cmp(&b.0));
            v
        };

        for (name, v) in counters {
            self.counter(&name).add(v);
        }
        for (name, v) in gauges {
            let g = self.gauge(&name);
            g.set(g.get() + v);
        }
        for (scope, set) in stages {
            self.stage_set(&scope).absorb(&set);
        }
        {
            let mut series = self.series.lock();
            for (name, other_ts) in series_list {
                let entry = series.entry(name).or_default();
                *entry = merge_series(entry, &other_ts);
            }
        }
        for (scope, prefix) in stage_unions {
            self.stage_union(&scope, &prefix);
        }
        for (name, prefix) in histogram_unions {
            self.histogram_union(&name, &prefix);
        }
        for (member, scope) in member_unions {
            self.stage_union_member(&scope, &member);
        }
    }

    /// Appends one sample to a named time series. Out-of-order samples (only
    /// possible when unrelated threads race on the same series) are dropped
    /// rather than panicking the series' ordering invariant.
    pub fn sample_series(&self, name: &str, at: SimTime, value: f64) {
        let mut series = self.series.lock();
        // Look up by `&str` first: `entry` needs an owned key, which would
        // be one `String` per tick per series for a key that already exists.
        if let Some(ts) = series.get_mut(name) {
            match ts.points().last() {
                Some(&(last, _)) if at < last => {}
                _ => ts.push(at, value),
            }
            return;
        }
        let mut ts = TimeSeries::new();
        ts.push(at, value);
        series.insert(name.to_string(), ts);
    }

    /// Snapshot of every named time series.
    pub(crate) fn series_snapshot(&self) -> Vec<(String, TimeSeries)> {
        let mut out: Vec<_> = self
            .series
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    pub(crate) fn counters_snapshot(&self) -> Vec<(String, u64)> {
        let mut out: Vec<_> = self
            .counters
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    pub(crate) fn gauges_snapshot(&self) -> Vec<(String, f64)> {
        let mut out: Vec<_> = self
            .gauges
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    pub(crate) fn histograms_snapshot(&self) -> Vec<(String, LatencyHistogram)> {
        let stages = self.stages.read();
        let mut out: HashMap<String, LatencyHistogram> = HashMap::new();
        for (name, prefix) in self.histogram_unions.lock().iter() {
            let merged = out.entry(name.clone()).or_default();
            for (scope, set) in stages.iter() {
                if scope.starts_with(prefix.as_str()) {
                    merged.merge(&set.merged_total());
                }
            }
        }
        let mut out: Vec<_> = out.into_iter().collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    pub(crate) fn stages_snapshot(&self) -> Vec<(String, Vec<(Stage, LatencyHistogram)>)> {
        let stages = self.stages.read();
        let mut out: HashMap<String, Vec<(Stage, LatencyHistogram)>> = stages
            .iter()
            .map(|(k, v)| (k.clone(), v.merged_all()))
            .collect();
        for (scope, prefix) in self.stage_unions.lock().iter() {
            let mut merged: Vec<(Stage, LatencyHistogram)> = Stage::ALL
                .iter()
                .map(|&s| (s, LatencyHistogram::new()))
                .collect();
            for (member, set) in stages.iter() {
                if member.starts_with(prefix.as_str()) {
                    for (slot, (_, hist)) in merged.iter_mut().zip(set.merged_all()) {
                        slot.1.merge(&hist);
                    }
                }
            }
            if let Some(existing) = out.get(scope) {
                for (slot, (_, hist)) in merged.iter_mut().zip(existing.iter()) {
                    slot.1.merge(hist);
                }
            }
            out.insert(scope.clone(), merged);
        }
        for (member, scope) in self.member_unions.lock().iter() {
            let Some(set) = stages.get(member) else {
                continue; // assigned but never recorded into
            };
            let entry = out.entry(scope.clone()).or_insert_with(|| {
                Stage::ALL
                    .iter()
                    .map(|&s| (s, LatencyHistogram::new()))
                    .collect()
            });
            for (slot, (_, hist)) in entry.iter_mut().zip(set.merged_all()) {
                slot.1.merge(&hist);
            }
        }
        let mut out: Vec<_> = out.into_iter().collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stdshim::ToJson;

    #[test]
    fn counters_and_gauges_are_named_and_shared() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.add(1);
        b.add(2);
        assert_eq!(reg.counter("x").get(), 3);
        assert_eq!(reg.counter("y").get(), 0);

        reg.gauge("g").set(2.5);
        assert_eq!(reg.gauge("g").get(), 2.5);
    }

    #[test]
    fn stage_set_skips_zero_stages() {
        let set = StageSet::new();
        let mut sample = StageSample::new();
        sample.set(Stage::Exec, SimDuration::from_millis(2));
        set.record(&sample);
        assert_eq!(set.merged(Stage::Exec).count(), 1);
        assert_eq!(set.merged(Stage::ImagePull).count(), 0);
    }

    /// Property: recording samples concurrently through the striped stage
    /// set yields per-stage merged histograms equal to single-threaded
    /// recording of the same samples — striping must not lose, double, or
    /// distort samples.
    #[test]
    fn prop_stage_set_striping_preserves_samples() {
        testkit::check(16, |g| {
            let samples: Vec<StageSample> = g.vec(1..100, |g| {
                let mut s = StageSample::new();
                s.set(Stage::Exec, SimDuration::from_nanos(g.u64_in(1..1_000_000)));
                if g.u64_in(0..2) == 0 {
                    s.set(
                        Stage::RuntimeInit,
                        SimDuration::from_nanos(g.u64_in(1..1_000_000)),
                    );
                }
                s
            });
            let set = StageSet::new();
            std::thread::scope(|s| {
                for chunk in samples.chunks(samples.len().div_ceil(4)) {
                    let set = &set;
                    s.spawn(move || {
                        for sample in chunk {
                            set.record(sample);
                        }
                    });
                }
            });
            let mut exec_ref = LatencyHistogram::new();
            let mut init_ref = LatencyHistogram::new();
            for s in &samples {
                exec_ref.record(s.get(Stage::Exec));
                if !s.get(Stage::RuntimeInit).is_zero() {
                    init_ref.record(s.get(Stage::RuntimeInit));
                }
            }
            assert_eq!(set.merged(Stage::Exec).count(), exec_ref.count());
            assert_eq!(set.merged(Stage::Exec).sum_ns(), exec_ref.sum_ns());
            assert_eq!(set.merged(Stage::RuntimeInit).count(), init_ref.count());
            assert_eq!(set.merged(Stage::RuntimeInit).sum_ns(), init_ref.sum_ns());
        });
    }

    #[test]
    fn unions_synthesize_scopes_at_snapshot_time() {
        let reg = MetricsRegistry::new();
        reg.stage_union("all", "fn/");
        reg.histogram_union("gateway/e2e", "fn/");
        reg.stage_union_member("key/go", "fn/a");
        reg.stage_union_member("key/go", "fn/b");

        let mut a = StageSample::new();
        a.set(Stage::Exec, SimDuration::from_millis(2));
        a.set(Stage::RuntimeInit, SimDuration::from_millis(1));
        reg.stage_set("fn/a").record(&a);
        let mut b = StageSample::new();
        b.set(Stage::Exec, SimDuration::from_millis(3));
        reg.stage_set("fn/b").record(&b);

        let snap = reg.snapshot();
        // Prefix union: `all` is the merge of both fn scopes.
        assert_eq!(snap.stage_count("all", Stage::Exec), 2);
        assert_eq!(snap.stage_count("all", Stage::RuntimeInit), 1);
        assert_eq!(
            snap.scope_total_ns("all"),
            SimDuration::from_millis(6).as_nanos()
        );
        // Member union: both functions share the `key/go` runtime key.
        assert_eq!(snap.stage_count("key/go", Stage::Exec), 2);
        assert_eq!(
            snap.stage_sum_ns("key/go", Stage::Exec),
            SimDuration::from_millis(5).as_nanos()
        );
        // Histogram union: e2e is the per-sample total distribution.
        let e2e = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "gateway/e2e")
            .map(|(_, h)| h)
            .expect("synthesized e2e histogram");
        assert_eq!(e2e.count, 2);
        assert_eq!(e2e.sum_ns, SimDuration::from_millis(6).as_nanos());
        assert_eq!(e2e.max_ns, SimDuration::from_millis(3).as_nanos());

        // Reassigning a member moves its history to the new union scope.
        reg.stage_union_member("key/py", "fn/b");
        let snap = reg.snapshot();
        assert_eq!(snap.stage_count("key/go", Stage::Exec), 1);
        assert_eq!(snap.stage_count("key/py", Stage::Exec), 1);
    }

    /// Absorbing per-worker registries reproduces the snapshot of one
    /// registry that recorded everything itself — the property the parallel
    /// replay reduction depends on.
    #[test]
    fn absorb_equals_single_registry_recording() {
        let combined = MetricsRegistry::new();
        let workers: Vec<MetricsRegistry> = (0..3).map(|_| MetricsRegistry::new()).collect();
        for reg in workers.iter().chain([&combined]) {
            reg.stage_union("all", "fn/");
            reg.histogram_union("gateway/e2e", "fn/");
        }

        // Worker w records fn/w-scoped samples plus shared counters/series.
        for (w, reg) in workers.iter().enumerate() {
            reg.counter("gateway/requests").add(10 + w as u64);
            reg.gauge("load").set(0.5);
            let mut s = StageSample::new();
            s.set(Stage::Exec, SimDuration::from_millis(1 + w as u64));
            let scope = format!("fn/{w}");
            reg.stage_set(&scope).record(&s);
            reg.stage_union_member("key/k", &scope);
            reg.sample_series("pool/live", SimTime::from_secs(30), w as f64);
            reg.sample_series("pool/live", SimTime::from_secs(60), 1.0);

            combined.counter("gateway/requests").add(10 + w as u64);
            let g = combined.gauge("load");
            g.set(g.get() + 0.5);
            combined.stage_set(&scope).record(&s);
            combined.stage_union_member("key/k", &scope);
        }
        combined.sample_series("pool/live", SimTime::from_secs(30), 0.0 + 1.0 + 2.0);
        combined.sample_series("pool/live", SimTime::from_secs(60), 3.0);

        let target = MetricsRegistry::new();
        for w in &workers {
            target.absorb(w);
        }
        assert_eq!(
            target.snapshot().to_json().to_pretty_string(),
            combined.snapshot().to_json().to_pretty_string()
        );
    }

    /// `absorb` across histogram representations: a worker whose stage
    /// histograms have promoted to dense folding into a target that is still
    /// sparse, and the reverse, both reproduce single-registry recording
    /// byte for byte.
    #[test]
    fn absorb_across_sparse_and_dense_equals_single_registry_recording() {
        let sample = |exec: SimDuration| {
            let mut s = StageSample::new();
            s.set(Stage::GatewayHop, SimDuration::from_micros(400));
            s.set(Stage::Exec, exec);
            s
        };
        // 200 exec times over 7 octaves promote; three repeated ones do not.
        let wide: Vec<StageSample> = (1..=200)
            .map(|k| sample(SimDuration::from_micros(50 * k)))
            .collect();
        let narrow: Vec<StageSample> = (0..30)
            .map(|k| sample(SimDuration::from_millis(1 + k % 3)))
            .collect();

        for (in_target, in_worker) in [(&narrow, &wide), (&wide, &narrow)] {
            let (combined, target, worker) = (
                MetricsRegistry::new(),
                MetricsRegistry::new(),
                MetricsRegistry::new(),
            );
            for reg in [&combined, &target, &worker] {
                reg.stage_union("all", "fn/");
                reg.histogram_union("gateway/e2e", "fn/");
            }
            for (reg, samples) in [(&target, in_target), (&worker, in_worker)] {
                for s in samples {
                    reg.stage_set("fn/f").record(s);
                    combined.stage_set("fn/f").record(s);
                }
                let promoted = reg.stage_set("fn/f").merged(Stage::Exec).is_dense();
                assert_eq!(promoted, samples.len() == wide.len());
            }
            target.absorb(&worker);
            assert!(target.stage_set("fn/f").merged(Stage::Exec).is_dense());
            assert!(!target
                .stage_set("fn/f")
                .merged(Stage::GatewayHop)
                .is_dense());
            assert_eq!(
                target.snapshot().to_json().to_pretty_string(),
                combined.snapshot().to_json().to_pretty_string()
            );
        }
    }

    #[test]
    fn absorb_merges_series_at_distinct_instants() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.sample_series("s", SimTime::from_secs(10), 1.0);
        a.sample_series("s", SimTime::from_secs(30), 2.0);
        b.sample_series("s", SimTime::from_secs(20), 5.0);
        b.sample_series("s", SimTime::from_secs(30), 7.0);
        a.absorb(&b);
        let series = a.series_snapshot();
        assert_eq!(
            series[0].1.points(),
            &[
                (SimTime::from_secs(10), 1.0),
                (SimTime::from_secs(20), 5.0),
                (SimTime::from_secs(30), 9.0),
            ]
        );
    }

    #[test]
    fn series_drop_out_of_order() {
        let reg = MetricsRegistry::new();
        reg.sample_series("s", SimTime::from_secs(10), 1.0);
        reg.sample_series("s", SimTime::from_secs(5), 2.0); // dropped
        reg.sample_series("s", SimTime::from_secs(20), 3.0);
        let series = reg.series_snapshot();
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].1.len(), 2);
    }
}
