//! Always-on metrics registry with a cheap concurrent recording path.
//!
//! The registry is the process-wide (or gateway-wide) home for named
//! [`Counter`]s, per-scope [`StageSet`]s, and sampled [`Series`] (step
//! functions kept as change points). A counter is a single atomic; a stage
//! set or a series is one mutex around its data. Requests are recorded
//! once, into the stage set of their function's scope
//! ([`MetricsRegistry::fn_stage_set`], the one place that names
//! `fn/<function>`); scope `all` and histogram `gateway/e2e` are not
//! recorded into but derived from the `fn/` sets by every snapshot (see
//! [`crate::snapshot`]). Hot-path callers obtain their `Arc` handles once
//! (get-or-create by name) and record through the handle — no per-request
//! or per-tick name lookup or allocation.
//!
//! Three lock classes, nested one way only: the registry's name tables
//! (`metrics/registry`, one lock for all of them) over a stage set's
//! histograms (`metrics/stage-set`) or a series (`metrics/series`), which
//! `read_out` and `absorb` take one after another under it; nothing takes
//! the registry lock while holding another, and no two of the rest are
//! locked together.
//!
//! A stage set holds its histogram headers inline (≈0.9 KB with the lock),
//! and their counts cost what was recorded into them (see
//! [`crate::histogram`]), so a function's first request allocates ≈1.3 KB of
//! telemetry. One lock per scope is a measured choice, not a default: see
//! EXPERIMENTS.md "Stage-set stripes: 32 or one".

use crate::histogram::LatencyHistogram;
use crate::snapshot::FN_PREFIX;
use crate::stage::{StageSample, N_STAGES};
use crate::timeseries::TimeSeries;
use simclock::{SimDuration, SimTime};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use stdshim::Mutex;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`. Release, so a reader that sees this add also sees every
    /// add the same thread made to another counter before it.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Release);
    }

    /// Overwrites the counter, for a caller that owns the only tally behind
    /// it and copies that tally in at read time.
    pub fn store(&self, v: u64) {
        // lint:allow(atomic-ordering, monotonic tally copy; the counter word is the whole payload)
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }
}

/// A scope's histograms: one per [`crate::Stage`], in [`crate::Stage::ALL`]
/// order, then one for the sample totals (the e2e distribution).
pub(crate) type StageHistograms = [LatencyHistogram; N_STAGES + 1];

/// Per-scope stage histograms behind one lock. Recording a [`StageSample`]
/// takes that lock once for all stages of the request — including its total,
/// so a gateway gets the e2e histogram for free instead of locking a second
/// structure.
#[derive(Debug)]
pub struct StageSet(Mutex<StageHistograms>);

impl Default for StageSet {
    fn default() -> Self {
        StageSet(Mutex::labeled(Default::default(), "metrics/stage-set"))
    }
}

impl StageSet {
    /// An empty stage set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records every nonzero stage of `sample` (zero stages did not occur
    /// and are not counted), plus the sample total into the totals slot.
    pub fn record(&self, sample: &StageSample) {
        let _scope = stdshim::request_path_scope();
        let mut hists = self.0.lock();
        let mut total = 0u64;
        for (i, &ns) in sample.nanos().iter().enumerate() {
            if ns > 0 {
                hists[i].record(SimDuration::from_nanos(ns));
                total += ns;
            }
        }
        hists[N_STAGES].record(SimDuration::from_nanos(total));
    }

    /// A copy of everything recorded so far.
    pub(crate) fn read(&self) -> StageHistograms {
        self.0.lock().clone()
    }

    /// Runs `f` on everything recorded so far, under this set's lock and
    /// without copying it.
    pub(crate) fn visit(&self, f: impl FnOnce(&StageHistograms)) {
        f(&self.0.lock());
    }

    /// Folds histograms read out of another stage set into this one,
    /// including the totals slot. Reduction-time only.
    fn absorb(&self, recorded: &StageHistograms) {
        for (slot, r) in self.0.lock().iter_mut().zip(recorded) {
            slot.merge(r);
        }
    }
}

/// A sampled [`TimeSeries`] behind its own lock: the handle a tick loop
/// gets once ([`MetricsRegistry::series`]) and samples through, so a tick
/// takes no registry lock and hashes no name.
#[derive(Debug)]
pub struct Series(Mutex<TimeSeries>);

impl Default for Series {
    fn default() -> Self {
        Series(Mutex::labeled(TimeSeries::new(), "metrics/series"))
    }
}

impl Series {
    /// Samples the series (it stores the sample only if the value
    /// changed). A sample before the series' last sampled instant (only
    /// possible when unrelated threads race on the same series) is dropped
    /// rather than panicking the series' ordering invariant.
    pub fn sample(&self, at: SimTime, value: f64) {
        let mut ts = self.0.lock();
        if ts.end().is_none_or(|end| at >= end) {
            ts.push(at, value);
        }
    }

    /// A copy of everything sampled so far.
    fn read(&self) -> TimeSeries {
        self.0.lock().clone()
    }

    /// Sums another series into this one as step functions (see
    /// `merge_series`). Reduction-time only.
    fn absorb(&self, other: &TimeSeries) {
        let mut ts = self.0.lock();
        *ts = merge_series(&ts, other);
    }
}

/// The registry's name tables, all behind the registry's one lock.
#[derive(Debug, Default)]
struct Tables {
    counters: HashMap<String, Arc<Counter>>,
    /// Counters made by [`MetricsRegistry::unlisted_counter`] that nothing
    /// has listed yet: recorded into, left out of snapshots and `absorb`.
    unlisted: HashMap<String, Arc<Counter>>,
    stages: HashMap<String, Arc<StageSet>>,
    series: HashMap<String, Arc<Series>>,
}

/// Everything a registry holds, copied out under one hold of its lock with
/// every table sorted by name: what [`MetricsRegistry::absorb`] folds in and
/// what a snapshot summarizes. Stage sets come out as handles, so a reader
/// locks one scope's histograms at a time — `absorb` copies each out
/// ([`StageSet::read`]), a snapshot summarizes each in place
/// ([`StageSet::visit`]) — instead of all of them at once. Series come out
/// as copies, and only those sampled at least once: a handle nothing
/// sampled through leaves no trace.
pub(crate) struct ReadOut {
    pub(crate) counters: Vec<(String, u64)>,
    pub(crate) stages: Vec<(String, Arc<StageSet>)>,
    pub(crate) series: Vec<(String, TimeSeries)>,
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
/// reg.fn_stage_set("demo").record(&sample);
/// reg.sample_series("pool/size", SimTime::from_secs(30), 3.0);
///
/// let snap = reg.snapshot();
/// assert_eq!(snap.counter("gateway/requests"), Some(1));
/// assert_eq!(snap.stage_count("fn/demo", Stage::Exec), 1);
/// // Derived by the snapshot from every `fn/` scope.
/// assert_eq!(snap.stage_count("all", Stage::Exec), 1);
/// ```
#[derive(Debug)]
pub struct MetricsRegistry {
    tables: Mutex<Tables>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            tables: Mutex::labeled(Tables::default(), "metrics/registry"),
        }
    }
}

/// The step-function sum of two series (two workers sampling the same
/// quantity on one tick schedule): evaluated at every change instant of
/// either, a series counting as 0 before its first point, and ending at the
/// later end. `push` drops a sum equal to the one in force, so the result is
/// canonical and absorb order does not matter.
fn merge_series(a: &TimeSeries, b: &TimeSeries) -> TimeSeries {
    let (pa, pb) = (a.points(), b.points());
    let mut out = TimeSeries::new();
    let (mut i, mut j) = (0, 0);
    let (mut va, mut vb) = (0.0, 0.0);
    loop {
        let at = match (pa.get(i), pb.get(j)) {
            (Some(&(ta, _)), Some(&(tb, _))) => ta.min(tb),
            (Some(&(t, _)), None) | (None, Some(&(t, _))) => t,
            (None, None) => break,
        };
        if let Some(&(_, v)) = pa.get(i).filter(|p| p.0 == at) {
            (va, i) = (v, i + 1);
        }
        if let Some(&(_, v)) = pb.get(j).filter(|p| p.0 == at) {
            (vb, j) = (v, j + 1);
        }
        out.push(at, va + vb);
    }
    if let Some(end) = a.end().max(b.end()) {
        out.push(end, va + vb);
    }
    out
}

impl Tables {
    /// Moves counter `name` from `unlisted` to `counters`, if it is there.
    fn list(&mut self, name: &str) {
        if self.unlisted.is_empty() {
            return;
        }
        if let Some((name, counter)) = self.unlisted.remove_entry(name) {
            self.counters.insert(name, counter);
        }
    }
}

fn get_or_create<T: Default>(map: &mut HashMap<String, Arc<T>>, name: &str) -> Arc<T> {
    if let Some(v) = map.get(name) {
        return Arc::clone(v);
    }
    Arc::clone(map.entry(name.to_string()).or_default())
}

/// The counters, sorted by name and read in that order: of two counters a
/// snapshot reads the one that sorts first no later than the other. Adding
/// to `gateway/requests` before `gateway/cold_starts` (as
/// `faas::Gateway::finish` does) therefore never shows more cold starts than
/// requests, while the adds race the read.
fn counters_in_order(map: &HashMap<String, Arc<Counter>>) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = map.keys().map(|k| (k.clone(), 0)).collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    for (name, v) in &mut out {
        *v = map[name.as_str()].get();
    }
    out
}

/// A table's entries through `read`, sorted by name.
fn sorted<V, R>(map: &HashMap<String, V>, read: impl Fn(&V) -> R) -> Vec<(String, R)> {
    let mut out: Vec<_> = map.iter().map(|(k, v)| (k.clone(), read(v))).collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get-or-create a counter, listing it if it was unlisted. Cache the
    /// handle; don't look up per event.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut tables = self.tables.lock();
        tables.list(name);
        get_or_create(&mut tables.counters, name)
    }

    /// Get-or-create a counter that snapshots and [`Self::absorb`] leave out
    /// until [`Self::counter`], [`Self::list_counters`] or an absorbed
    /// counter of the same name lists it: a tally its recorder keeps current
    /// from the first event on, but that the registry shows only once it is
    /// read (a gateway's request tally, listed by `Gateway::metrics`).
    pub fn unlisted_counter(&self, name: &str) -> Arc<Counter> {
        let mut tables = self.tables.lock();
        match tables.counters.get(name) {
            Some(listed) => Arc::clone(listed),
            None => get_or_create(&mut tables.unlisted, name),
        }
    }

    /// Lists the named counters (see [`Self::unlisted_counter`]), creating
    /// any that do not exist yet: [`Self::counter`] for several names under
    /// one lock, without handing out handles.
    pub fn list_counters(&self, names: &[&str]) {
        let mut tables = self.tables.lock();
        for name in names {
            tables.list(name);
            if !tables.counters.contains_key(*name) {
                tables.counters.insert(name.to_string(), Arc::default());
            }
        }
    }

    /// Get-or-create a per-scope stage set. Samples recorded into `"all"`
    /// directly are merged into the derived `all` scope.
    pub fn stage_set(&self, scope: &str) -> Arc<StageSet> {
        get_or_create(&mut self.tables.lock().stages, scope)
    }

    /// Get-or-create function `name`'s stage set, scope `fn/<name>`: what
    /// every snapshot derives `all` and `gateway/e2e` from.
    pub fn fn_stage_set(&self, name: &str) -> Arc<StageSet> {
        self.stage_set(&format!("{FN_PREFIX}{name}"))
    }

    /// Folds every metric recorded in `other` into this registry: counters
    /// add, stage sets merge sample-for-sample, and
    /// time series sum as step functions (see `merge_series`).
    ///
    /// This is the deterministic reduction step for per-worker replay
    /// registries. Every fold is commutative and associative, `all` and
    /// `gateway/e2e` are derived from the merged raw scopes at snapshot time
    /// (never absorbed pre-derived, which would double-count), and snapshots
    /// sort by name — so absorbing worker registries in any order yields
    /// the same snapshot. `other`'s lock is released before this registry's
    /// is taken and each of its stage sets is copied out before the matching
    /// one here is locked, so absorb never holds same-class locks from two
    /// registries at once.
    pub fn absorb(&self, other: &MetricsRegistry) {
        let other = other.read_out();
        let mut tables = self.tables.lock();
        for (name, v) in other.counters {
            tables.list(&name);
            get_or_create(&mut tables.counters, &name).add(v);
        }
        for (scope, set) in other.stages {
            get_or_create(&mut tables.stages, &scope).absorb(&set.read());
        }
        for (name, ts) in other.series {
            get_or_create(&mut tables.series, &name).absorb(&ts);
        }
    }

    /// Get-or-create a time series. Cache the handle and sample through
    /// [`Series::sample`]; don't look up per tick.
    pub fn series(&self, name: &str) -> Arc<Series> {
        get_or_create(&mut self.tables.lock().series, name)
    }

    /// Samples a named time series: [`Self::series`] then
    /// [`Series::sample`], with the registry lock released before the
    /// series' is taken.
    pub fn sample_series(&self, name: &str, at: SimTime, value: f64) {
        self.series(name).sample(at, value);
    }

    pub(crate) fn read_out(&self) -> ReadOut {
        let tables = self.tables.lock();
        let mut series = sorted(&tables.series, |s| s.read());
        series.retain(|(_, ts)| !ts.is_empty());
        ReadOut {
            counters: counters_in_order(&tables.counters),
            stages: sorted(&tables.stages, Arc::clone),
            series,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::Stage;

    fn recorded(set: &StageSet, stage: Stage) -> LatencyHistogram {
        set.read()[stage.index()].clone()
    }

    #[test]
    fn counters_are_named_and_shared() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.add(1);
        b.add(2);
        assert_eq!(reg.counter("x").get(), 3);
        assert_eq!(reg.counter("y").get(), 0);
    }

    /// An unlisted counter counts from the start but shows in neither a
    /// snapshot nor an absorb until it is listed; a listed name hands out
    /// the listed counter.
    #[test]
    fn unlisted_counters_show_once_listed() {
        let reg = MetricsRegistry::new();
        let hidden = reg.unlisted_counter("u");
        hidden.add(2);
        reg.unlisted_counter("u").add(1);
        let target = MetricsRegistry::new();
        target.absorb(&reg);
        assert_eq!(reg.snapshot().counter("u"), None);
        assert_eq!(target.snapshot().counter("u"), None);
        reg.list_counters(&["u", "new"]);
        assert_eq!(reg.snapshot().counter("u"), Some(3));
        assert_eq!(reg.snapshot().counter("new"), Some(0));
        reg.unlisted_counter("u").add(1);
        assert_eq!(reg.counter("u").get(), 4);
    }

    /// Absorbing a listed counter into a registry that holds the same name
    /// unlisted lists it and adds into it: the recorder's handle and the
    /// absorbed count end up in one counter.
    #[test]
    fn absorb_into_an_unlisted_counter_keeps_both_counts() {
        let reg = MetricsRegistry::new();
        let hidden = reg.unlisted_counter("u");
        hidden.add(2);
        let worker = MetricsRegistry::new();
        worker.counter("u").add(3);
        reg.absorb(&worker);
        hidden.add(1);
        reg.list_counters(&["u"]);
        assert_eq!(reg.snapshot().counter("u"), Some(6));
    }

    #[test]
    fn stage_set_skips_zero_stages() {
        let set = StageSet::new();
        let mut sample = StageSample::new();
        sample.set(Stage::Exec, SimDuration::from_millis(2));
        set.record(&sample);
        assert_eq!(recorded(&set, Stage::Exec).count(), 1);
        assert_eq!(recorded(&set, Stage::ImagePull).count(), 0);
    }

    /// Property: recording samples concurrently through the stage set's one
    /// lock yields per-stage histograms equal to single-threaded recording
    /// of the same samples — no sample lost, doubled, or distorted.
    #[test]
    fn prop_concurrent_recorders_lose_no_sample() {
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
            assert_eq!(recorded(&set, Stage::Exec).count(), exec_ref.count());
            assert_eq!(recorded(&set, Stage::Exec).sum_ns(), exec_ref.sum_ns());
            assert_eq!(recorded(&set, Stage::RuntimeInit).count(), init_ref.count());
            assert_eq!(
                recorded(&set, Stage::RuntimeInit).sum_ns(),
                init_ref.sum_ns()
            );
        });
    }

    /// The fixed rule: `all` is the merge of every `fn/` scope plus what was
    /// recorded into `all` directly, and `gateway/e2e` the distribution of
    /// the `fn/` samples' totals — the direct `all` sample is not in it.
    #[test]
    fn fn_scopes_derive_all_and_e2e_at_snapshot_time() {
        let reg = MetricsRegistry::new();
        let mut a = StageSample::new();
        a.set(Stage::Exec, SimDuration::from_millis(2));
        a.set(Stage::RuntimeInit, SimDuration::from_millis(1));
        reg.fn_stage_set("a").record(&a);
        let mut b = StageSample::new();
        b.set(Stage::Exec, SimDuration::from_millis(3));
        reg.fn_stage_set("b").record(&b);
        let mut direct = StageSample::new();
        direct.set(Stage::Exec, SimDuration::from_millis(4));
        reg.stage_set("all").record(&direct);

        let snap = reg.snapshot();
        let scopes: Vec<&str> = snap.stages.iter().map(|(s, _)| s.as_str()).collect();
        assert_eq!(scopes, ["all", "fn/a", "fn/b"]);
        assert_eq!(snap.stage_count("all", Stage::Exec), 3);
        assert_eq!(snap.stage_count("all", Stage::RuntimeInit), 1);
        assert_eq!(
            snap.scope_total_ns("all"),
            SimDuration::from_millis(10).as_nanos()
        );
        assert_eq!(snap.histograms.len(), 1);
        let (name, e2e) = &snap.histograms[0];
        assert_eq!(name, "gateway/e2e");
        assert_eq!(e2e.count, 2);
        assert_eq!(e2e.sum_ns, SimDuration::from_millis(6).as_nanos());
        assert_eq!(e2e.max_ns, SimDuration::from_millis(3).as_nanos());
    }

    /// A registry nothing was recorded into still carries the derived scope
    /// and histogram, both empty.
    #[test]
    fn a_bare_snapshot_carries_all_and_an_empty_e2e() {
        let snap = MetricsRegistry::new().snapshot();
        let scopes: Vec<&str> = snap.stages.iter().map(|(s, _)| s.as_str()).collect();
        assert_eq!(scopes, ["all"]);
        assert_eq!(snap.scope_total_ns("all"), 0);
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].0, "gateway/e2e");
        assert_eq!(snap.histograms[0].1.count, 0);
    }

    #[test]
    fn fn_stage_set_is_the_fn_scope() {
        let reg = MetricsRegistry::new();
        assert!(Arc::ptr_eq(&reg.fn_stage_set("x"), &reg.stage_set("fn/x")));
    }

    /// Absorbing per-worker registries reproduces the snapshot of one
    /// registry that recorded everything itself — the property the parallel
    /// replay reduction depends on.
    #[test]
    fn absorb_equals_single_registry_recording() {
        let combined = MetricsRegistry::new();
        let workers: Vec<MetricsRegistry> = (0..3).map(|_| MetricsRegistry::new()).collect();

        // Worker w records fn/w-scoped samples plus shared counters/series.
        for (w, reg) in workers.iter().enumerate() {
            reg.counter("gateway/requests").add(10 + w as u64);
            let mut s = StageSample::new();
            s.set(Stage::Exec, SimDuration::from_millis(1 + w as u64));
            let function = w.to_string();
            reg.fn_stage_set(&function).record(&s);
            reg.sample_series("pool/live", SimTime::from_secs(30), w as f64);
            reg.sample_series("pool/live", SimTime::from_secs(60), 1.0);

            combined.counter("gateway/requests").add(10 + w as u64);
            combined.fn_stage_set(&function).record(&s);
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
            for (reg, samples) in [(&target, in_target), (&worker, in_worker)] {
                for s in samples {
                    reg.stage_set("fn/f").record(s);
                    combined.stage_set("fn/f").record(s);
                }
                let promoted = recorded(&reg.stage_set("fn/f"), Stage::Exec).is_dense();
                assert_eq!(promoted, samples.len() == wide.len());
            }
            target.absorb(&worker);
            assert!(recorded(&target.stage_set("fn/f"), Stage::Exec).is_dense());
            assert!(!recorded(&target.stage_set("fn/f"), Stage::GatewayHop).is_dense());
            assert_eq!(
                target.snapshot().to_json().to_pretty_string(),
                combined.snapshot().to_json().to_pretty_string()
            );
        }
    }

    /// Series at distinct instants sum as step functions: `b` counts as 0
    /// before its first point, and `a`'s 1 still holds when `b` changes.
    #[test]
    fn absorb_merges_series_at_distinct_instants() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.sample_series("s", SimTime::from_secs(10), 1.0);
        a.sample_series("s", SimTime::from_secs(30), 2.0);
        b.sample_series("s", SimTime::from_secs(20), 5.0);
        b.sample_series("s", SimTime::from_secs(30), 7.0);
        b.sample_series("s", SimTime::from_secs(40), 7.0);
        a.absorb(&b);
        let series = &a.read_out().series[0].1;
        assert_eq!(
            series.points(),
            &[
                (SimTime::from_secs(10), 1.0),
                (SimTime::from_secs(20), 6.0),
                (SimTime::from_secs(30), 9.0),
            ]
        );
        assert_eq!(series.end(), Some(SimTime::from_secs(40)));
    }

    /// Property: workers sampling one series on a shared tick schedule,
    /// absorbed in any order or grouping, give exactly the series of one
    /// registry that sampled the per-tick sums — including ticks where one
    /// worker's +1 cancels another's −1 and the sum stores no point.
    #[test]
    fn prop_absorbed_series_is_the_series_of_per_tick_sums() {
        let debug = |reg: &MetricsRegistry| format!("{:?}", reg.snapshot());
        testkit::check(128, |g| {
            let workers = g.usize_in(1..5);
            let mut at = SimTime::from_secs(g.u64_in(0..100));
            let ticks: Vec<SimTime> = g.vec(1..40, |g| {
                at += SimDuration::from_secs(g.u64_in(1..4));
                at
            });
            // Few distinct values, so runs, repeats and cancellations occur.
            let mut samples: Vec<Vec<f64>> = (0..workers)
                .map(|_| ticks.iter().map(|_| g.u64_in(0..3) as f64).collect())
                .collect();
            if workers >= 2 && ticks.len() >= 2 {
                // A same-instant cancellation: worker 0 +1, worker 1 −1.
                let k = g.usize_in(1..ticks.len());
                samples[0][k] = samples[0][k - 1] + 1.0;
                samples[1][k - 1] = samples[1][k - 1].max(1.0);
                samples[1][k] = samples[1][k - 1] - 1.0;
            }

            // Workers sample through a handle, as the replay loop does; the
            // combined registry samples by name.
            let regs: Vec<MetricsRegistry> = samples
                .iter()
                .map(|values| {
                    let reg = MetricsRegistry::new();
                    let live = reg.series("pool/live");
                    for (&t, &v) in ticks.iter().zip(values) {
                        live.sample(t, v);
                    }
                    reg
                })
                .collect();
            let combined = MetricsRegistry::new();
            for (i, &t) in ticks.iter().enumerate() {
                let sum = samples.iter().fold(0.0, |acc, s| acc + s[i]);
                combined.sample_series("pool/live", t, sum);
            }
            let expected = debug(&combined);

            let forward = MetricsRegistry::new();
            regs.iter().for_each(|r| forward.absorb(r));
            assert_eq!(debug(&forward), expected);
            let backward = MetricsRegistry::new();
            regs.iter().rev().for_each(|r| backward.absorb(r));
            assert_eq!(debug(&backward), expected);
            // Pairs first, then the pairs' sums.
            let tree = MetricsRegistry::new();
            for pair in regs.chunks(2) {
                let partial = MetricsRegistry::new();
                pair.iter().for_each(|r| partial.absorb(r));
                tree.absorb(&partial);
            }
            assert_eq!(debug(&tree), expected);
        });
    }

    /// A constant run and a same-instant cancellation store nothing after
    /// the first point; the end is still the last tick.
    #[test]
    fn absorb_of_unchanged_sums_keeps_one_point() {
        let (a, b) = (MetricsRegistry::new(), MetricsRegistry::new());
        for (s, va, vb) in [(0, 2.0, 1.0), (30, 3.0, 0.0), (60, 3.0, 0.0)] {
            a.sample_series("pool/live", SimTime::from_secs(s), va);
            b.sample_series("pool/live", SimTime::from_secs(s), vb);
        }
        a.absorb(&b);
        let series = &a.read_out().series[0].1;
        assert_eq!(series.points(), &[(SimTime::ZERO, 3.0)]);
        assert_eq!(series.end(), Some(SimTime::from_secs(60)));
    }

    /// Property: sampling through a [`Series`] handle and sampling by name
    /// store the same series, samples at an earlier instant (dropped) and
    /// repeats included; a handle nothing sampled through shows nowhere.
    #[test]
    fn prop_handle_samples_equal_by_name_samples() {
        let debug = |reg: &MetricsRegistry| format!("{:?}", reg.snapshot());
        testkit::check(128, |g| {
            let mut at = g.u64_in(0..100);
            let samples: Vec<(SimTime, f64)> = g.vec(1..60, |g| {
                // One step in five goes back in time.
                if g.u64_in(0..5) == 0 {
                    at = at.saturating_sub(g.u64_in(1..4));
                } else {
                    at += g.u64_in(0..3);
                }
                (SimTime::from_secs(at), g.u64_in(0..3) as f64)
            });
            let (by_name, by_handle) = (MetricsRegistry::new(), MetricsRegistry::new());
            let live = by_handle.series("pool/live");
            let unused = by_handle.series("never/sampled");
            for &(t, v) in &samples {
                by_name.sample_series("pool/live", t, v);
                live.sample(t, v);
            }
            assert_eq!(debug(&by_handle), debug(&by_name));
            assert!(Arc::ptr_eq(&live, &by_handle.series("pool/live")));
            drop(unused);
            assert_eq!(by_handle.read_out().series.len(), 1);
        });
    }

    #[test]
    fn series_drop_out_of_order() {
        let reg = MetricsRegistry::new();
        reg.sample_series("s", SimTime::from_secs(10), 1.0);
        reg.sample_series("s", SimTime::from_secs(5), 2.0); // dropped
        reg.sample_series("s", SimTime::from_secs(20), 3.0);
        let series = reg.read_out().series;
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].1.len(), 2);
    }
}
