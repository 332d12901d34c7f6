//! The thread-safe gateway frontend for the parallel-request experiments.
//!
//! Fig. 12(b) drives the backend from ten client threads at once; the
//! contention benchmarks push further. The workspace has exactly two
//! gateways: the single-threaded [`faas::Gateway`] (every experiment, the
//! CLI, the cluster nodes and the replay driver) and [`ShardedGateway`]
//! here. The runtime pool is a [`ShardedPool`] (per-shard locks), request
//! counters are atomics ([`faas::SharedStats`]), the function table is behind
//! a read-mostly [`stdshim::sync::RwLock`], and only the simulated container
//! daemon itself remains a single mutex. Warm requests for runtime types on
//! different shards share **no** lock except the engine's short
//! `begin_exec`/`end_exec` critical sections, and container creation happens
//! outside every shard lock, so cold starts on different keys overlap.
//!
//! The global-lock baseline it is measured against is a fixture local to
//! `benches/contention.rs`, not a type of this crate.
//!
//! Virtual time is per-thread ([`simclock::shared::ThreadTimeline`]): each
//! worker advances its own timeline by its requests' latencies, and an
//! experiment's elapsed time is the max across timelines (parallel-work
//! semantics).

use crate::controller::AdaptiveController;
use crate::limits::PoolLimits;
use crate::middleware::HotCConfig;
use crate::shard::{EngineRef, ShardedPool, DEFAULT_SHARDS};
use containersim::{ContainerEngine, ContainerId, ContainerState};
use faas::gateway::{GatewayError, InFlight};
use faas::pipeline::{GATEWAY_HOP, WATCHDOG_HOP};
use faas::AppTracker;
use faas::{AppProfile, FunctionSpec, GatewayStats, RequestTrace, SharedStats};
use metrics_lite::{Counter, MetricsRegistry, StageSet};
use simclock::shared::ThreadTimeline;
use simclock::{SimDuration, SimTime};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use stdshim::sync::{Mutex, RwLock};

/// A registered function with its runtime key interned once, at registration
/// time — request paths hand out `Arc`s instead of deep-cloning the spec and
/// re-deriving the key on every call. The pool's [`crate::key::KeyId`] is
/// resolved here, so steady-state requests never even fingerprint the
/// configuration: the pool is addressed by a copyable `u32`. The
/// per-function stage-set handle is resolved here too, so the request path
/// records telemetry without any registry name lookup (the `key/` scope is a
/// snapshot-time union of the key's member functions — no second lock per
/// request).
struct FunctionEntry {
    spec: FunctionSpec,
    key_id: crate::key::KeyId,
    stage_fn: Arc<StageSet>,
    /// The function's application, as a dense nonzero token from the
    /// gateway's registration-time app registry. The warm path compares this
    /// `u64` against the pool slot's atomic last-app word instead of taking
    /// a tracker lock to compare name strings.
    app_token: u64,
}

/// A pre-resolved function handle: pins the registration-time
/// [`FunctionEntry`] so steady-state callers (benchmark drivers, dedicated
/// per-function workers) skip even the function-table read lock — a warm
/// request then reaches `begin_exec` without a single lock acquisition.
/// The handle is a snapshot: re-registering the function does not update it.
pub struct FunctionHandle {
    entry: Arc<FunctionEntry>,
}

/// Last-app tracking sharded by container id, so the per-request app-switch
/// check does not reserialize the warm path on one tracker mutex.
struct ShardedTracker {
    shards: Box<[Mutex<AppTracker>]>,
}

impl ShardedTracker {
    fn new(shards: usize) -> Self {
        ShardedTracker {
            shards: (0..shards.max(1))
                .map(|_| Mutex::labeled(AppTracker::new(), "gateway/tracker"))
                .collect(),
        }
    }

    fn shard(&self, container: ContainerId) -> &Mutex<AppTracker> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        std::hash::Hash::hash(&container, &mut hasher);
        &self.shards[(std::hash::Hasher::finish(&hasher) % self.shards.len() as u64) as usize]
    }

    fn needs_app_init(&self, container: ContainerId, app: &'static str, first_exec: bool) -> bool {
        self.shard(container)
            .lock()
            .needs_app_init(container, app, first_exec)
    }

    fn tracked(&self) -> usize {
        self.shards.iter().map(|s| s.lock().tracked()).sum()
    }

    fn tracked_ids(&self) -> Vec<ContainerId> {
        self.shards
            .iter()
            .flat_map(|shard| shard.lock().tracked_ids())
            .collect()
    }

    fn forget(&self, gone: &[ContainerId]) {
        for shard in self.shards.iter() {
            shard.lock().forget(gone);
        }
    }
}

/// The sharded HotC gateway: per-shard pool locks, atomic stats, a
/// read-mostly function table with registration-time runtime keys, sharded
/// last-app tracking, and a single engine mutex standing in for the
/// container daemon.
///
/// Lock order (see DESIGN.md): a thread holds at most one of
/// {function table, tracker shard, pool shard, engine} at a time on the request
/// path; the controller mutex (tick only) may span shard/engine acquisitions
/// but is never taken while holding any other lock.
pub struct ShardedGateway {
    engine: Mutex<ContainerEngine>,
    functions: RwLock<HashMap<String, Arc<FunctionEntry>>>,
    stats: SharedStats,
    /// Last-app fallback for overflow containers (no bitmap slot). Bitmap
    /// containers — the steady state — use the pool's atomic last-app words.
    tracker: ShardedTracker,
    /// Registration-time app-name → token registry (see
    /// [`FunctionEntry::app_token`]). Locked only while registering.
    app_tokens: Mutex<Vec<&'static str>>,
    pool: ShardedPool,
    controller: Mutex<AdaptiveController>,
    limits: PoolLimits,
    disable_prediction: bool,
    /// Cumulative background cost in virtual nanoseconds (atomic: bumped on
    /// every release, so a mutex here would reserialize the warm path).
    background_nanos: AtomicU64,
    metrics: Arc<MetricsRegistry>,
    /// Read-time telemetry handles (the request path records only into the
    /// per-function/per-key stage sets; counters, `all`, and the e2e
    /// histogram are derived at snapshot time).
    requests_counter: Arc<Counter>,
    cold_counter: Arc<Counter>,
}

impl ShardedGateway {
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
        // Requests land once in their `fn/` scope (and once in `key/`); the
        // `all` scope and e2e histogram merge the `fn/` scopes at snapshot
        // time, keeping the multi-threaded record path to two stripe locks.
        metrics.stage_union("all", "fn/");
        metrics.histogram_union("gateway/e2e", "fn/");
        let requests_counter = metrics.counter("gateway/requests");
        let cold_counter = metrics.counter("gateway/cold_starts");
        ShardedGateway {
            engine: Mutex::labeled(engine, "core/engine"),
            functions: RwLock::labeled(HashMap::new(), "gateway/functions"),
            stats: SharedStats::new(),
            tracker: ShardedTracker::new(DEFAULT_SHARDS),
            app_tokens: Mutex::labeled(Vec::new(), "gateway/app-tokens"),
            pool: ShardedPool::new(config.key_policy),
            controller: Mutex::labeled(
                AdaptiveController::new(config.controller),
                "gateway/controller",
            ),
            limits: config.limits,
            disable_prediction: config.disable_prediction,
            background_nanos: AtomicU64::new(0),
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
    /// into the registry's counters so a subsequent snapshot is current
    /// (`tick` refreshes them too).
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
    }

    /// Registers (or replaces) a function. The runtime key is interned and
    /// the per-function/per-key stage-set handles are derived here, once, so
    /// the per-request path never formats, hashes, or looks up a key string.
    pub fn register(&self, spec: FunctionSpec) {
        let key_id = self.pool.intern_config(&spec.config);
        let key = self.pool.key_of(&spec.config);
        let fn_scope = format!("fn/{}", spec.name);
        let stage_fn = self.metrics.stage_set(&fn_scope);
        self.metrics
            .stage_union_member(&format!("key/{key}"), &fn_scope);
        let app_token = self.app_token(spec.app.name);
        self.functions.write().insert(
            spec.name.clone(),
            Arc::new(FunctionEntry {
                spec,
                key_id,
                stage_fn,
                app_token,
            }),
        );
    }

    /// The dense nonzero token for an app name, registering it on first use.
    /// Registration-time only; tokens are stable for the gateway's lifetime.
    fn app_token(&self, app: &'static str) -> u64 {
        let mut tokens = self.app_tokens.lock();
        match tokens.iter().position(|&a| a == app) {
            Some(at) => at as u64 + 1,
            None => {
                tokens.push(app);
                tokens.len() as u64
            }
        }
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

    /// The sharded runtime pool.
    pub fn pool(&self) -> &ShardedPool {
        &self.pool
    }

    /// Cumulative background (off-request-path) cost: cleanup, pre-warm,
    /// retire, eviction.
    pub fn background_cost(&self) -> SimDuration {
        SimDuration::from_nanos(self.background_nanos.load(Ordering::Relaxed))
            + self.controller.lock().background_cost()
    }

    fn add_background(&self, cost: SimDuration) {
        self.background_nanos
            .fetch_add(cost.as_nanos(), Ordering::Relaxed);
    }

    /// Evicts down to the limits — after a cold start and on every tick —
    /// booking the teardown cost and counting into `pool/evictions`.
    fn enforce_limits(&self, now: SimTime) -> Result<(), GatewayError> {
        let (cost, evicted) = self.limits.enforce(&self.pool, &self.engine, now)?;
        self.add_background(cost);
        if evicted > 0 {
            self.metrics.counter("pool/evictions").add(evicted as u64);
        }
        Ok(())
    }

    /// Number of containers with a tracked last-app entry.
    pub fn tracked_containers(&self) -> usize {
        self.tracker.tracked()
    }

    /// Runs a closure with the locked engine (setup, inspection).
    pub fn with_engine<R>(&self, f: impl FnOnce(&mut ContainerEngine) -> R) -> R {
        f(&mut self.engine.lock())
    }

    /// Starts serving a request that arrived at `now`. Each piece of shared
    /// state is locked by itself, in a fixed order, and never across the
    /// container-creation path of another key's shard.
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
    pub fn begin_handle(
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
        // table, pool shard, engine} at a time — and the warm acquire +
        // app-switch check below hold none at all.
        let _scope = stdshim::request_path_scope();
        let t1 = now;
        let t2 = t1 + GATEWAY_HOP;
        // `acquire_id` reports `first_exec` from pool bookkeeping and reuses
        // the registration-time interned id, so a warm hit is a bitmap CAS —
        // no shard lock, no engine lock, no key hashing. The app-switch
        // check then swaps the slot's atomic last-app word; only overflow
        // containers (beyond the per-key slot array) fall back to the
        // tracker mutex.
        let warm_scope = stdshim::request_path_scope();
        let acq = self
            .pool
            .acquire_id(&self.engine, entry.key_id, &entry.spec.config, t2)?;
        let first_exec = acq.first_exec;
        // App init is due on a fresh runtime AND when the pooled runtime
        // last ran a different app (fuzzy keys / shared runtime types).
        let needs_app_init = acq
            .slot
            .and_then(|slot| self.pool.note_app(entry.key_id, slot, entry.app_token))
            .map_or_else(
                || {
                    self.tracker
                        .needs_app_init(acq.container, entry.spec.app.name, first_exec)
                },
                |prev| first_exec || prev != entry.app_token,
            );
        debug_assert!(
            !acq.lock_free || warm_scope.locks_taken() == 0,
            "warm gateway hit took a lock before begin_exec"
        );
        drop(warm_scope);
        if acq.cold {
            // A cold start may have pushed the pool over its limits.
            self.enforce_limits(t2)?;
        }
        let work = entry.spec.app.work_for(needs_app_init);
        // Function initiation: watchdog shim + obtaining the runtime.
        let t3 = t2 + WATCHDOG_HOP + acq.cost;
        let outcome = self
            .engine
            .with_engine(|e| e.begin_exec(acq.container, work, t3))?;
        let t4 = t3 + outcome.latency;
        Ok(InFlight {
            function: entry.spec.name.clone(),
            container: acq.container,
            t4_func_end: t4,
            t1,
            t2,
            t3,
            cold: acq.cold,
            first_exec,
            crashed: outcome.crashed,
            breakdown: acq.breakdown,
            reconfig: acq.reconfig,
            init_latency: outcome.init_latency,
            exec_latency: outcome.latency,
        })
    }

    /// Completes an in-flight request at its `t4`: end the execution, return
    /// the container to the pool (a crashed one is disposed of), bump the
    /// atomic counters, and prune app-tracking entries that just went stale.
    pub fn finish(&self, inflight: InFlight) -> Result<RequestTrace, GatewayError> {
        let entry = self.functions.read().get(&inflight.function).cloned();
        self.finish_entry(entry.as_ref(), inflight)
    }

    /// [`Self::finish`] through a pre-resolved [`FunctionHandle`]: no
    /// function-table lock. The handle must be the one the request began
    /// with.
    pub fn finish_handle(
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
        let t4 = inflight.t4_func_end;
        // Fast path: the registration-time entry already carries the
        // interned key id, so the end-exec + cleanup pair runs in one engine
        // critical section instead of three, with no key re-derivation.
        let finished = match &entry {
            Some(entry) => self.pool.try_finish_release(
                &self.engine,
                entry.key_id,
                inflight.container,
                t4,
                inflight.crashed,
            )?,
            None => None,
        };
        let cost = match finished {
            Some(cost) => cost,
            None => {
                // The function was re-registered (or deregistered) with a
                // different configuration mid-flight: end the execution and
                // let the pool derive the key from the engine's config.
                self.engine
                    .with_engine(|e| e.end_exec(inflight.container, t4))?;
                self.pool.release(&self.engine, inflight.container, t4)?
            }
        };
        self.add_background(cost);
        self.stats.record(inflight.cold);
        if inflight.crashed {
            // The crashed container was just disposed of, so its tracker
            // entry is stale right now; containers disposed of by eviction
            // are pruned by the next `tick`.
            self.prune_tracker();
        }
        let trace = inflight.complete();
        // Always-on stage telemetry: ONE cache-padded stripe lock per
        // request, through the registration-time handle (no name lookup).
        // Counters, the `all` scope, the `key/` scopes, and the e2e
        // histogram are all derived at read time.
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

    /// Periodic maintenance: one adaptive-controller step (per shard), limit
    /// enforcement, tracker pruning — plus sampling the controller/pool
    /// gauges and time series into the metrics registry.
    pub fn tick(&self, now: SimTime) -> Result<(), GatewayError> {
        if !self.disable_prediction {
            let report = self
                .controller
                .lock()
                .maybe_step(&self.pool, &self.engine, now)?;
            if let Some(report) = report {
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
        }
        self.enforce_limits(now)?;
        let sizes = self.pool.shard_sizes();
        let (avail, in_use) = sizes
            .iter()
            .fold((0usize, 0usize), |(a, u), &(sa, su)| (a + sa, u + su));
        for (i, &(sa, su)) in sizes.iter().enumerate() {
            self.metrics
                .gauge(&format!("pool/shard{i}/live"))
                .set((sa + su) as f64);
        }
        self.metrics.gauge("pool/available").set(avail as f64);
        self.metrics.gauge("pool/in_use").set(in_use as f64);
        self.metrics
            .sample_series("pool/live", now, (avail + in_use) as f64);
        self.sync_counters();
        self.prune_tracker();
        Ok(())
    }

    /// Drops last-app entries for containers that no longer exist. Cheap
    /// guard first; on a real prune the tracked ids are read under the
    /// tracker locks, probed for liveness under the engine lock, and the
    /// dead ones dropped under the tracker locks again — O(tracked), and the
    /// two kinds of lock are never held together.
    fn prune_tracker(&self) {
        let tracked = self.tracker.tracked();
        let live = self.engine.with_engine(|e| e.live_count());
        if tracked > live {
            let mut gone = self.tracker.tracked_ids();
            self.engine
                .with_engine(|e| gone.retain(|&id| e.state(id) == ContainerState::Removed));
            self.tracker.forget(&gone);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::middleware::HotC;
    use containersim::{ContainerEngine, HardwareProfile, LanguageRuntime};
    use faas::gateway::Gateway;
    use faas::RuntimeProvider;
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
    /// configuration — the semantic reference for the sharded frontend.
    fn exclusive_gateway(config: HotCConfig) -> Gateway<HotC> {
        let engine = ContainerEngine::with_local_images(HardwareProfile::server());
        let mut gw = Gateway::new(engine, HotC::new(config));
        for spec in qr_specs() {
            gw.register(spec);
        }
        gw
    }

    fn sharded_gateway_with(config: HotCConfig) -> Arc<ShardedGateway> {
        let engine = ContainerEngine::with_local_images(HardwareProfile::server());
        let gw = ShardedGateway::new(engine, config);
        for spec in qr_specs() {
            gw.register(spec);
        }
        Arc::new(gw)
    }

    fn sharded_gateway() -> Arc<ShardedGateway> {
        sharded_gateway_with(HotCConfig::default())
    }

    /// `threads` workers, each serving `per_thread` requests a second apart
    /// from its own function `qr-{t}`; returns each worker's latencies.
    fn each_thread_own_function(
        gw: &Arc<ShardedGateway>,
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
    fn sharded_threads_each_own_runtime() {
        let gw = sharded_gateway();
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
    fn sharded_shared_config_reuse() {
        let engine = ContainerEngine::with_local_images(HardwareProfile::server());
        let gw = ShardedGateway::with_defaults(engine);
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
        // No request in flight ⇒ every tracked container is live.
        assert!(gw.tracked_containers() <= live);
    }

    #[test]
    fn sharded_matches_global_lock_single_threaded() {
        // Same traffic through both gateways yields identical traces: the
        // sharding changes synchronization, not semantics.
        let sharded = {
            let gw = sharded_gateway();
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
        assert_eq!(sharded, exclusive);
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
        let sharded = sharded_gateway_with(config());
        let mut timeline = ThreadTimeline::starting_at(SimTime::ZERO);
        let mut exclusive = exclusive_gateway(config());
        let mut now = SimTime::ZERO;
        for i in 0..12 {
            let function = format!("qr-{}", i % 4);
            let a = sharded.handle(&function, &mut timeline).unwrap();
            let b = exclusive.handle(&function, now).unwrap();
            now = b.t6_gateway_out;
            assert_eq!(a, b, "request {i} diverged");
        }
        let counted = sharded.metrics().snapshot().counter("pool/evictions");
        assert_eq!(counted, Some(exclusive.provider().forced_evictions()));
        assert_eq!(counted, Some(10));
    }

    /// The always-on registry sees every request from every worker thread:
    /// counters match the atomic stats, per-function and per-key stage
    /// histograms are populated, the aggregate stage sums reconcile exactly
    /// with the sum of e2e trace totals, and a tick samples the pool gauges
    /// and controller series.
    #[test]
    fn sharded_telemetry_reconciles_across_threads() {
        let gw = sharded_gateway();
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
        // Every function got its per-key scope too (distinct configs here).
        let key_scopes = snap
            .stages
            .iter()
            .filter(|(s, _)| s.starts_with("key/"))
            .count();
        assert_eq!(key_scopes, threads);
        // The tick sampled pool gauges and the live series.
        assert!(snap.gauge("pool/available").is_some());
        assert!(snap.gauge("pool/shard0/live").is_some());
        assert!(snap
            .series
            .iter()
            .any(|(name, ts)| name == "pool/live" && ts.len() == 1));
    }

    #[test]
    fn sharded_tick_controls_pool() {
        let engine = ContainerEngine::with_local_images(HardwareProfile::server());
        let gw = ShardedGateway::with_defaults(engine);
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
