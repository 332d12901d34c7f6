//! The thread-safe gateway frontend for the parallel-request experiments.
//!
//! Fig. 12(b) drives the backend from ten client threads at once; the
//! contention benchmarks push further. The workspace has exactly two
//! gateways: the single-threaded [`faas::Gateway`] (every experiment, the
//! CLI, the cluster nodes and the replay driver) and [`ConcurrentGateway`]
//! here. Runtime management is the same [`HotC`] the single-threaded gateway
//! drives — this frontend owns no pool, controller or limits of its own and
//! spells no part of the Fig. 6 sequence; it hands `HotC`'s `&self` entry
//! points its engine mutex where `faas::Gateway` hands them an exclusive
//! borrow. What is its own: request counters on atomics
//! ([`faas::SharedStats`]), the function table behind a read-mostly
//! [`stdshim::sync::RwLock`], and the single mutex that stands in for the
//! container daemon. Warm requests share **no** lock except the engine's
//! short critical sections (load-app + `begin_exec`, `end_exec` + cleanup);
//! a cold start adds the pool lock, taken after its container was created
//! and never together with the engine's.
//!
//! Telemetry: `finish` takes the function's stage-set lock once, after the
//! engine's was released, to record into `fn/<function>` (`all` and
//! `gateway/e2e` are snapshot-time unions over `fn/`). [`ConcurrentGateway::tick`]
//! is the only emitter of `controller/*`, `pool/available`, `pool/in_use`,
//! `pool/evictions` and, on this frontend, `pool/live`, all mirrored from
//! [`HotC`]; reading [`ConcurrentGateway::metrics`] refreshes the counters.
//!
//! The global-lock baseline it is measured against is a fixture local to
//! `benches/contention.rs`, not a type of this crate.
//!
//! Virtual time is per-thread ([`simclock::shared::ThreadTimeline`]): each
//! worker advances its own timeline by its requests' latencies, and an
//! experiment's elapsed time is the max across timelines (parallel-work
//! semantics).

use crate::middleware::{HotC, HotCConfig};
use crate::pool::{EngineRef, RuntimePool};
use containersim::ContainerEngine;
use faas::gateway::{GatewayError, InFlight};
use faas::pipeline::{GATEWAY_HOP, WATCHDOG_HOP};
use faas::{AppProfile, FunctionSpec, GatewayStats, RequestTrace, RuntimeProvider, SharedStats};
use metrics_lite::{Counter, MetricsRegistry, StageSet};
use simclock::shared::ThreadTimeline;
use simclock::{SimDuration, SimTime};
use std::collections::HashMap;
use std::sync::Arc;
use stdshim::sync::{Mutex, RwLock};

/// A registered function with its runtime key interned once, at registration
/// time — request paths hand out `Arc`s instead of deep-cloning the spec and
/// re-deriving the key on every call. The pool's [`crate::key::KeyId`] is
/// resolved here, so steady-state requests never even fingerprint the
/// configuration: the pool is addressed by a copyable `u32`. The
/// per-function stage-set handle is resolved here too, so the request path
/// records telemetry without any registry name lookup.
struct FunctionEntry {
    spec: FunctionSpec,
    key_id: crate::key::KeyId,
    stage_fn: Arc<StageSet>,
}

/// A pre-resolved function handle: pins the registration-time
/// [`FunctionEntry`] so steady-state callers (benchmark drivers, dedicated
/// per-function workers) skip even the function-table read lock — a warm
/// request then reaches `begin_exec` without a single lock acquisition.
/// The handle is a snapshot: re-registering the function does not update it.
pub struct FunctionHandle {
    entry: Arc<FunctionEntry>,
}

/// The concurrent HotC gateway: [`HotC`] (one pool lock, tick-only
/// controller mutex) driven through a single engine mutex standing in for
/// the container daemon, with atomic stats and a read-mostly function table
/// carrying registration-time runtime keys.
///
/// Lock order (see DESIGN.md): a thread holds at most one of
/// {function table, pool state, engine} at a time on the request path;
/// `HotC`'s controller mutex (tick only) may span pool/engine acquisitions
/// but is never taken while holding any other lock.
pub struct ConcurrentGateway {
    engine: Mutex<ContainerEngine>,
    hotc: HotC,
    functions: RwLock<HashMap<String, Arc<FunctionEntry>>>,
    stats: SharedStats,
    metrics: Arc<MetricsRegistry>,
    /// Read-time telemetry handles (the request path records only into the
    /// per-function stage sets; counters, `all`, and the e2e histogram are
    /// derived at snapshot time).
    requests_counter: Arc<Counter>,
    cold_counter: Arc<Counter>,
}

impl ConcurrentGateway {
    /// Builds the gateway over an engine from a HotC configuration, with its
    /// own fresh metrics registry.
    pub fn new(engine: ContainerEngine, config: HotCConfig) -> Self {
        Self::with_metrics(engine, config, Arc::new(MetricsRegistry::new()))
    }

    /// Builds the gateway recording into a shared metrics registry.
    pub fn with_metrics(
        engine: ContainerEngine,
        config: HotCConfig,
        metrics: Arc<MetricsRegistry>,
    ) -> Self {
        // Requests land once in their `fn/` scope; the `all` scope and e2e
        // histogram merge the `fn/` scopes at snapshot time.
        metrics.stage_union("all", "fn/");
        metrics.histogram_union("gateway/e2e", "fn/");
        let requests_counter = metrics.counter("gateway/requests");
        let cold_counter = metrics.counter("gateway/cold_starts");
        ConcurrentGateway {
            engine: Mutex::labeled(engine, "core/engine"),
            hotc: HotC::new(config),
            functions: RwLock::labeled(HashMap::new(), "gateway/functions"),
            stats: SharedStats::new(),
            metrics,
            requests_counter,
            cold_counter,
        }
    }

    /// The paper's deployed configuration over a local-image engine.
    pub fn with_defaults(engine: ContainerEngine) -> Self {
        Self::new(engine, HotCConfig::default())
    }

    /// The gateway's metrics registry. Mirrors the request/cold-start tally
    /// and `HotC`'s forced-eviction count into the registry's counters so a
    /// subsequent snapshot is current (`tick` refreshes them too).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        self.sync_counters();
        &self.metrics
    }

    /// Copies the hot-path atomic tallies into the registry counters: one
    /// store per counter here instead of a second contended increment per
    /// request in `finish`.
    fn sync_counters(&self) {
        let stats = self.stats.snapshot();
        self.requests_counter.store(stats.requests);
        self.cold_counter.store(stats.cold_starts);
        // Present in the snapshot only once the limits have evicted.
        let evicted = self.hotc.forced_evictions();
        if evicted > 0 {
            self.metrics.counter("pool/evictions").store(evicted);
        }
    }

    /// Registers (or replaces) a function. The runtime key is interned and
    /// the per-function stage-set handle is resolved here, once, so the
    /// per-request path never formats, hashes, or looks up a key string.
    pub fn register(&self, spec: FunctionSpec) {
        let key_id = self.pool().intern_config(&spec.config);
        let stage_fn = self.metrics.stage_set(&format!("fn/{}", spec.name));
        self.functions.write().insert(
            spec.name.clone(),
            Arc::new(FunctionEntry {
                spec,
                key_id,
                stage_fn,
            }),
        );
    }

    /// Resolves a function to a reusable [`FunctionHandle`], or `None` if it
    /// is not registered. One function-table read here replaces one per
    /// request in [`Self::begin`]/[`Self::finish`].
    pub fn function_handle(&self, function: &str) -> Option<FunctionHandle> {
        self.functions
            .read()
            .get(function)
            .cloned()
            .map(|entry| FunctionHandle { entry })
    }

    /// Convenience: registers an app under its own name with its default
    /// configuration.
    pub fn register_app(&self, app: AppProfile) {
        self.register(FunctionSpec::from_app(app));
    }

    /// Aggregate counters.
    pub fn stats(&self) -> GatewayStats {
        self.stats.snapshot()
    }

    /// The runtime pool.
    pub fn pool(&self) -> &RuntimePool {
        self.hotc.pool()
    }

    /// Cumulative background (off-request-path) cost: cleanup, pre-warm,
    /// retire, eviction.
    pub fn background_cost(&self) -> SimDuration {
        self.hotc.background_cost()
    }

    /// Runs a closure with the locked engine (setup, inspection).
    pub fn with_engine<R>(&self, f: impl FnOnce(&mut ContainerEngine) -> R) -> R {
        f(&mut self.engine.lock())
    }

    /// Starts serving a request that arrived at `now`. Each piece of shared
    /// state is locked by itself, in a fixed order, and never across a
    /// container creation.
    pub fn begin(&self, function: &str, now: SimTime) -> Result<InFlight, GatewayError> {
        let entry = self
            .functions
            .read()
            .get(function)
            .cloned()
            .ok_or_else(|| GatewayError::UnknownFunction(function.to_string()))?;
        self.begin_entry(&entry, now)
    }

    /// [`Self::begin`] through a pre-resolved [`FunctionHandle`]: no
    /// function-table lock, so a warm hit performs **zero** lock
    /// acquisitions before the engine's `begin_exec` critical section.
    pub(crate) fn begin_handle(
        &self,
        handle: &FunctionHandle,
        now: SimTime,
    ) -> Result<InFlight, GatewayError> {
        self.begin_entry(&handle.entry, now)
    }

    fn begin_entry(
        &self,
        entry: &Arc<FunctionEntry>,
        now: SimTime,
    ) -> Result<InFlight, GatewayError> {
        // DESIGN.md §5: the request path holds at most one of {function
        // table, pool state, engine} at a time — and the warm acquire below
        // holds none at all.
        let _scope = stdshim::request_path_scope();
        let t1 = now;
        let t2 = t1 + GATEWAY_HOP;
        // The acquire reuses the registration-time interned id, so a warm
        // hit is a bitmap CAS — no pool lock, no engine lock, no key
        // hashing.
        let warm_scope = stdshim::request_path_scope();
        let acq = self
            .hotc
            .acquire_on(&self.engine, entry.key_id, &entry.spec.config, t2)?;
        debug_assert!(
            !acq.lock_free || warm_scope.locks_taken() == 0,
            "warm gateway hit took a lock before begin_exec"
        );
        drop(warm_scope);
        // Function initiation: watchdog shim + obtaining the runtime.
        let t3 = t2 + WATCHDOG_HOP + acq.cost;
        // One engine critical section loads the app and starts it. App init
        // is due on a fresh runtime AND when the pooled runtime last ran a
        // different app (fuzzy keys / shared runtime types); the container's
        // own record knows which.
        let app = &entry.spec.app;
        let outcome = self.engine.with_engine(|e| {
            let needs_app_init = e.load_app(acq.container, app.name)?;
            e.begin_exec(acq.container, app.work_for(needs_app_init), t3)
        })?;
        let t4 = t3 + outcome.latency;
        Ok(InFlight {
            function: entry.spec.name.clone(),
            container: acq.container,
            t4_func_end: t4,
            t1,
            t2,
            t3,
            cold: acq.cold,
            first_exec: outcome.first_exec,
            crashed: outcome.crashed,
            breakdown: acq.breakdown,
            reconfig: acq.reconfig,
            init_latency: outcome.init_latency,
            exec_latency: outcome.latency,
        })
    }

    /// Completes an in-flight request at its `t4`: end the execution, return
    /// the container to the pool (a crashed one is disposed of), and bump the
    /// atomic counters.
    pub fn finish(&self, inflight: InFlight) -> Result<RequestTrace, GatewayError> {
        let entry = self.functions.read().get(&inflight.function).cloned();
        self.finish_entry(entry.as_ref(), inflight)
    }

    /// [`Self::finish`] through a pre-resolved [`FunctionHandle`]: no
    /// function-table lock. The handle must be the one the request began
    /// with.
    pub(crate) fn finish_handle(
        &self,
        handle: &FunctionHandle,
        inflight: InFlight,
    ) -> Result<RequestTrace, GatewayError> {
        self.finish_entry(Some(&handle.entry), inflight)
    }

    fn finish_entry(
        &self,
        entry: Option<&Arc<FunctionEntry>>,
        inflight: InFlight,
    ) -> Result<RequestTrace, GatewayError> {
        // DESIGN.md §5: at most one lock at a time on the finish path too —
        // and a warm release takes none outside the single engine critical
        // section (the container resolves through the pool's lock-free
        // reverse index).
        let _scope = stdshim::request_path_scope();
        // The pool's reverse index knows the key the container was acquired
        // under, so the end-exec + cleanup pair runs in one engine critical
        // section with no key re-derivation.
        self.hotc.finish_release_on(
            &self.engine,
            inflight.container,
            inflight.t4_func_end,
            inflight.crashed,
        )?;
        self.stats.record(inflight.cold);
        let trace = inflight.complete();
        // Always-on stage telemetry: one stage-set lock per request,
        // through the registration-time handle (no name lookup). Counters,
        // the `all` scope and the e2e histogram are derived at read time.
        if let Some(entry) = entry {
            entry.stage_fn.record(&inflight.stage_sample());
        }
        Ok(trace)
    }

    /// Serves one request on the calling thread's timeline (begin, advance
    /// past the virtual execution, finish).
    pub fn handle(
        &self,
        function: &str,
        timeline: &mut ThreadTimeline,
    ) -> Result<RequestTrace, GatewayError> {
        let inflight = self.begin(function, timeline.now())?;
        timeline.wait_until(inflight.t4_func_end);
        let trace = self.finish(inflight)?;
        timeline.wait_until(trace.t6_gateway_out);
        Ok(trace)
    }

    /// [`Self::handle`] through a pre-resolved [`FunctionHandle`] — the
    /// steady-state warm request performs zero lock acquisitions outside the
    /// engine's `begin_exec`/`end_exec` critical sections.
    pub fn handle_with(
        &self,
        handle: &FunctionHandle,
        timeline: &mut ThreadTimeline,
    ) -> Result<RequestTrace, GatewayError> {
        let inflight = self.begin_handle(handle, timeline.now())?;
        timeline.wait_until(inflight.t4_func_end);
        let trace = self.finish_handle(handle, inflight)?;
        timeline.wait_until(trace.t6_gateway_out);
        Ok(trace)
    }

    /// Periodic maintenance: `HotC`'s tick (controller step, limit
    /// enforcement), mirrored — together with the pool gauges and time
    /// series — into the metrics registry.
    pub fn tick(&self, now: SimTime) -> Result<(), GatewayError> {
        if let Some(report) = self.hotc.tick_on(&self.engine, now)? {
            self.metrics
                .counter("controller/prewarmed")
                .add(report.prewarmed as u64);
            self.metrics
                .counter("controller/retired")
                .add(report.retired as u64);
            self.metrics
                .counter("controller/gc_keys")
                .add(report.gc_keys as u64);
            self.metrics.sample_series(
                "controller/predicted_demand",
                now,
                report.predicted_total(),
            );
            self.metrics.sample_series(
                "controller/actual_demand",
                now,
                report.actual_total() as f64,
            );
        }
        let (avail, in_use) = self.pool().sizes();
        self.metrics.gauge("pool/available").set(avail as f64);
        self.metrics.gauge("pool/in_use").set(in_use as f64);
        self.metrics
            .sample_series("pool/live", now, (avail + in_use) as f64);
        self.sync_counters();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::limits::PoolLimits;
    use crate::pool::ExclusiveEngine;
    use containersim::engine::ExecWork;
    use containersim::{ContainerEngine, HardwareProfile, ImageId, LanguageRuntime};
    use faas::gateway::Gateway;
    use metrics_lite::LatencyRecorder;
    use simclock::SimDuration;
    use std::sync::Arc;

    /// The four qr-code functions both frontends register.
    fn qr_specs() -> Vec<FunctionSpec> {
        [
            LanguageRuntime::Python,
            LanguageRuntime::Go,
            LanguageRuntime::NodeJs,
            LanguageRuntime::Java,
        ]
        .iter()
        .enumerate()
        .map(|(i, lang)| {
            FunctionSpec::from_app(AppProfile::qr_code(*lang)).named(format!("qr-{i}"))
        })
        .collect()
    }

    /// The single-threaded gateway over the same engine, functions and
    /// configuration — the semantic reference for the concurrent frontend.
    fn exclusive_gateway(config: HotCConfig) -> Gateway<HotC> {
        let engine = ContainerEngine::with_local_images(HardwareProfile::server());
        let mut gw = Gateway::new(engine, HotC::new(config));
        for spec in qr_specs() {
            gw.register(spec);
        }
        gw
    }

    fn concurrent_gateway_with(config: HotCConfig) -> Arc<ConcurrentGateway> {
        let engine = ContainerEngine::with_local_images(HardwareProfile::server());
        let gw = ConcurrentGateway::new(engine, config);
        for spec in qr_specs() {
            gw.register(spec);
        }
        Arc::new(gw)
    }

    fn concurrent_gateway() -> Arc<ConcurrentGateway> {
        concurrent_gateway_with(HotCConfig::default())
    }

    /// `threads` workers, each serving `per_thread` requests a second apart
    /// from its own function `qr-{t}`; returns each worker's latencies.
    fn each_thread_own_function(
        gw: &Arc<ConcurrentGateway>,
        threads: usize,
        per_thread: usize,
    ) -> Vec<LatencyRecorder> {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    s.spawn(move || {
                        let mut timeline = ThreadTimeline::starting_at(SimTime::ZERO);
                        let mut rec = LatencyRecorder::new();
                        let function = format!("qr-{t}");
                        for _ in 0..per_thread {
                            let trace = gw.handle(&function, &mut timeline).unwrap();
                            rec.record(trace.total());
                            timeline.advance(SimDuration::from_secs(1));
                        }
                        rec
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn concurrent_threads_each_own_runtime() {
        let gw = concurrent_gateway();
        let threads = 4usize;
        let per_thread = 25usize;
        let recorders = each_thread_own_function(&gw, threads, per_thread);

        let stats = gw.stats();
        assert_eq!(stats.requests as usize, threads * per_thread);
        assert!(
            stats.cold_starts as usize <= threads * 3,
            "cold starts: {}",
            stats.cold_starts
        );
        for rec in &recorders {
            assert!(rec.median().as_millis() < 100, "median {:?}", rec.median());
        }
        // Pool and engine agree once everything is released.
        assert_eq!(gw.pool().total_live(), gw.with_engine(|e| e.live_count()));
    }

    #[test]
    fn concurrent_shared_config_reuse() {
        let engine = ContainerEngine::with_local_images(HardwareProfile::server());
        let gw = ConcurrentGateway::with_defaults(engine);
        gw.register_app(AppProfile::random_number());
        let gw = Arc::new(gw);

        std::thread::scope(|s| {
            for _ in 0..4 {
                let gw = Arc::clone(&gw);
                s.spawn(move || {
                    let mut timeline = ThreadTimeline::starting_at(SimTime::ZERO);
                    for _ in 0..20 {
                        gw.handle("random-number", &mut timeline).unwrap();
                        timeline.advance(SimDuration::from_millis(200));
                    }
                });
            }
        });

        let stats = gw.stats();
        assert_eq!(stats.requests, 80);
        assert!(stats.cold_starts <= 8, "cold={}", stats.cold_starts);
        let live = gw.with_engine(|e| e.live_count());
        assert!(live <= 8, "live={live}");
        assert_eq!(gw.pool().total_live(), live);
    }

    #[test]
    fn concurrent_matches_global_lock_single_threaded() {
        // Same traffic through both gateways yields identical traces: the
        // concurrent frontend changes synchronization, not semantics.
        let concurrent = {
            let gw = concurrent_gateway();
            let mut timeline = ThreadTimeline::starting_at(SimTime::ZERO);
            (0..10)
                .map(|_| gw.handle("qr-0", &mut timeline).unwrap().total())
                .collect::<Vec<_>>()
        };
        let exclusive = {
            let mut gw = exclusive_gateway(HotCConfig::default());
            let mut now = SimTime::ZERO;
            (0..10)
                .map(|_| {
                    let trace = gw.handle("qr-0", now).unwrap();
                    now = trace.t6_gateway_out;
                    trace.total()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(concurrent, exclusive);
    }

    /// Regression: cold-path limit enforcement went uncounted, so
    /// `pool/evictions` only saw tick-time evictions. Identical serial traffic
    /// over four runtime types under a two-container cap must tally the same,
    /// non-zero number on both gateways.
    #[test]
    fn cold_path_evictions_are_counted_like_the_exclusive_gateway() {
        let config = || HotCConfig {
            limits: PoolLimits::new(2, 0.99),
            ..Default::default()
        };
        let concurrent = concurrent_gateway_with(config());
        let mut timeline = ThreadTimeline::starting_at(SimTime::ZERO);
        let mut exclusive = exclusive_gateway(config());
        let mut now = SimTime::ZERO;
        for i in 0..12 {
            let function = format!("qr-{}", i % 4);
            let a = concurrent.handle(&function, &mut timeline).unwrap();
            let b = exclusive.handle(&function, now).unwrap();
            now = b.t6_gateway_out;
            assert_eq!(a, b, "request {i} diverged");
        }
        let counted = concurrent.metrics().snapshot().counter("pool/evictions");
        assert_eq!(counted, Some(exclusive.provider().forced_evictions()));
        assert_eq!(counted, Some(10));
    }

    /// The always-on registry sees every request from every worker thread:
    /// counters match the atomic stats, per-function stage histograms are
    /// populated, the aggregate stage sums reconcile exactly
    /// with the sum of e2e trace totals, and a tick samples the pool gauges
    /// and controller series.
    #[test]
    fn concurrent_telemetry_reconciles_across_threads() {
        let gw = concurrent_gateway();
        let threads = 4usize;
        let per_thread = 25usize;
        let recorders = each_thread_own_function(&gw, threads, per_thread);
        gw.tick(SimTime::from_secs(60)).unwrap();

        let snap = gw.metrics().snapshot();
        let n = (threads * per_thread) as u64;
        assert_eq!(snap.counter("gateway/requests"), Some(n));
        assert_eq!(
            snap.counter("gateway/cold_starts"),
            Some(gw.stats().cold_starts)
        );
        assert_eq!(snap.stage_count("all", metrics_lite::Stage::Exec), n);
        // Exact reconciliation: stage sums == Σ trace.total() over all
        // requests, across scopes.
        let expected: u64 = recorders
            .iter()
            .flat_map(|r| r.samples())
            .map(|d| d.as_nanos())
            .sum();
        assert_eq!(snap.scope_total_ns("all"), expected);
        let per_scope: u64 = (0..threads)
            .map(|t| snap.scope_total_ns(&format!("fn/qr-{t}")))
            .sum();
        assert_eq!(per_scope, expected);
        // The tick sampled pool gauges and the live series.
        assert!(snap.gauge("pool/available").is_some());
        assert!(snap
            .series
            .iter()
            .any(|(name, ts)| name == "pool/live" && ts.len() == 1));
    }

    /// Two apps on one runtime key, served serially from one prewarmed
    /// runtime: app init is paid on the runtime's first use although it was
    /// never cold for a request, re-paid on every app switch and not on a
    /// repeat — and the two frontends agree request for request.
    #[test]
    fn app_switches_repay_init_identically_on_both_gateways() {
        let alpha = AppProfile {
            name: "alpha",
            image: ImageId::parse("python:3.8-alpine"),
            app_init: SimDuration::from_millis(500),
            work: ExecWork::light(SimDuration::from_millis(50)),
        };
        let mut beta = alpha.clone();
        beta.name = "beta";
        let specs = [FunctionSpec::from_app(alpha), FunctionSpec::from_app(beta)];
        let config = &specs[0].config;
        assert_eq!(config, &specs[1].config, "one runtime type");

        let mut engine = ContainerEngine::with_local_images(HardwareProfile::server());
        let hotc = HotC::with_defaults();
        hotc.pool()
            .prewarm(&ExclusiveEngine::new(&mut engine), config, SimTime::ZERO)
            .unwrap();
        let mut exclusive = Gateway::new(engine, hotc);
        let concurrent = ConcurrentGateway::with_defaults(ContainerEngine::with_local_images(
            HardwareProfile::server(),
        ));
        concurrent
            .with_engine(|e| {
                let pool = concurrent.pool();
                pool.prewarm(&ExclusiveEngine::new(e), config, SimTime::ZERO)
            })
            .unwrap();
        for spec in &specs {
            exclusive.register(spec.clone());
            concurrent.register(spec.clone());
        }

        let mut timeline = ThreadTimeline::starting_at(SimTime::from_secs(1));
        let mut now = timeline.now();
        let script = [
            ("alpha", true), // prewarmed: never executed, nothing loaded
            ("alpha", false),
            ("beta", true),
            ("beta", false),
            ("alpha", true),
            ("beta", true),
        ];
        for (i, (function, init_due)) in script.into_iter().enumerate() {
            let a = concurrent.handle(function, &mut timeline).unwrap();
            let b = exclusive.handle(function, now).unwrap();
            now = b.t6_gateway_out;
            assert_eq!(a, b, "request {i} diverged");
            assert!(!a.cold, "request {i}: the prewarmed runtime serves it");
            assert_eq!(a.first_exec, i == 0, "request {i}");
            assert_eq!(
                a.execution() > SimDuration::from_millis(500),
                init_due,
                "request {i} ({function}): {:?}",
                a.execution()
            );
        }
        assert_eq!(exclusive.engine().live_count(), 1);
        assert_eq!(concurrent.with_engine(|e| e.live_count()), 1);
    }

    /// After a request of `qr-0` (Python) finished while the frontend believed
    /// its key to be Go's: the runtime is back in the pool of the key it was
    /// acquired under, ready for reuse, and nothing else is pooled or in use.
    fn assert_returned_to_the_python_pool(pool: &RuntimePool, live: usize) {
        let specs = qr_specs();
        let (python, go) = (pool.key_of(&specs[0].config), pool.key_of(&specs[1].config));
        assert_eq!((pool.total_live(), live), (1, 1), "(pool, engine) live");
        assert_eq!((pool.num_avail(&python), pool.num_in_use(&python)), (1, 0));
        assert_eq!((pool.num_avail(&go), pool.num_in_use(&go)), (0, 0));
        assert_eq!(pool.keys(), vec![python], "pooled under another key");
    }

    /// The function is re-registered with another configuration mid-flight
    /// (both gateways), or the request is finished through a handle pinning
    /// another function and key (concurrent): the pool, not the frontend, knows
    /// which key a container belongs to. The old configuration's next request
    /// reuses the runtime warm; the new configuration cold-starts.
    #[test]
    fn a_finished_container_returns_to_the_key_it_was_acquired_under() {
        let go_as_qr0 = || qr_specs()[1].clone().named("qr-0");
        let python_again = || qr_specs()[0].clone().named("qr-old");

        for stale_handle in [false, true] {
            let gw = concurrent_gateway();
            let mut timeline = ThreadTimeline::starting_at(SimTime::ZERO);
            let inflight = gw.begin("qr-0", timeline.now()).unwrap();
            let container = inflight.container;
            timeline.wait_until(inflight.t4_func_end);
            if stale_handle {
                let go = gw.function_handle("qr-1").unwrap();
                gw.finish_handle(&go, inflight).unwrap();
            } else {
                gw.register(go_as_qr0());
                gw.finish(inflight).unwrap();
            }
            let live = gw.with_engine(|e| e.live_count());
            assert_returned_to_the_python_pool(gw.pool(), live);
            gw.register(go_as_qr0());
            gw.register(python_again());
            assert!(gw.handle("qr-0", &mut timeline).unwrap().cold);
            let warm = gw.begin("qr-old", timeline.now()).unwrap();
            assert!(!warm.cold && warm.container == container);
        }

        let mut gw = exclusive_gateway(HotCConfig::default());
        let inflight = gw.begin("qr-0", SimTime::ZERO).unwrap();
        let (container, t4) = (inflight.container, inflight.t4_func_end);
        gw.register(go_as_qr0());
        gw.finish(inflight).unwrap();
        let live = gw.engine().live_count();
        assert_returned_to_the_python_pool(gw.provider().pool(), live);
        gw.register(python_again());
        assert!(gw.handle("qr-0", t4).unwrap().cold);
        let warm = gw.begin("qr-old", t4 + SimDuration::from_secs(1)).unwrap();
        assert!(!warm.cold && warm.container == container);
    }

    #[test]
    fn concurrent_tick_controls_pool() {
        let engine = ContainerEngine::with_local_images(HardwareProfile::server());
        let gw = ConcurrentGateway::with_defaults(engine);
        gw.register_app(AppProfile::random_number());
        let mut timeline = ThreadTimeline::starting_at(SimTime::ZERO);
        gw.handle("random-number", &mut timeline).unwrap();
        gw.tick(SimTime::from_secs(30)).unwrap();
        assert!(gw.background_cost() > SimDuration::ZERO);
        // The idle runtime stays warm for the next request.
        timeline.wait_until(SimTime::from_secs(31));
        let warm = gw.handle("random-number", &mut timeline).unwrap();
        assert!(!warm.cold);
    }
}
