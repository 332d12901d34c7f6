//! The thread-safe gateway frontend for the thread-contention benchmarks.
//!
//! The workspace has exactly two gateways: the single-threaded
//! [`faas::Gateway`] (every experiment, the CLI, the cluster nodes and the
//! replay driver) and [`ConcurrentGateway`] here, which `benches/contention.rs`
//! and the thread stress tests drive from many OS threads at once. Runtime
//! management is the same [`HotC`] the single-threaded gateway drives — this
//! frontend owns no pool, controller or limits of its own and spells no part
//! of the Fig. 6 sequence; it hands `HotC`'s `&self` entry points its engine
//! mutex where `faas::Gateway` hands them an exclusive borrow. What is its
//! own: the single mutex that stands in for the container daemon. The rest
//! of the request path is `faas`'s, shared with `faas::Gateway`:
//! [`InFlight::begin`], [`FunctionSpec::start`] inside the engine lock, and
//! the finish tail and tally mirror of [`faas::SharedStats`]. There is no
//! function table: [`ConcurrentGateway::register`] returns the
//! [`FunctionHandle`] every request method takes, so the request path holds
//! the engine lock or no lock — the engine's short critical sections
//! (load-app + `begin_exec`, `end_exec` + cleanup) are all that warm
//! requests share; a cold start adds the pool lock, taken after its
//! container was created and never together with the engine's.
//!
//! Telemetry: `finish` takes the function's stage-set lock once, after the
//! engine's was released, to record into `fn/<function>` of the handle the
//! request began with — the [`InFlight`] carries a borrow of that stage set
//! (every snapshot derives `all` and `gateway/e2e` from the `fn/` sets).
//! [`ConcurrentGateway::tick`] is the only emitter of `controller/*`,
//! `pool/available`, `pool/in_use`, `pool/evictions` and, on this frontend,
//! `pool/live`, all mirrored from [`HotC`]; reading
//! [`ConcurrentGateway::metrics`] refreshes the counters, from any thread.
//!
//! The global-lock baseline it is measured against is a fixture local to
//! `benches/contention.rs`, not a type of this crate.
//!
//! Virtual time is the caller's: each worker thread keeps its own `now`,
//! passes it to `begin`/`handle` and advances it from the trace's
//! `t6_gateway_out`, exactly as a `faas::Gateway` driver does.

use crate::middleware::{HotC, HotCConfig};
use crate::pool::{EngineRef, RuntimePool};
use containersim::ContainerEngine;
use faas::gateway::{GatewayError, InFlight};
use faas::{FunctionSpec, GatewayStats, RequestTrace, RuntimeProvider, SharedStats};
use metrics_lite::{MetricsRegistry, StageSet};
use simclock::SimTime;
use std::sync::Arc;
use stdshim::sync::Mutex;

/// A registered function, resolved once: the pool's [`crate::key::KeyId`]
/// is interned and the `fn/<name>` stage set looked up at registration, so a
/// request neither fingerprints the configuration nor names anything in a
/// table — the pool is addressed by a copyable `u32` and telemetry through
/// the handle. Registering the same name again yields a second, independent
/// handle (recording into the same `fn/` scope).
pub struct FunctionHandle {
    spec: FunctionSpec,
    key_id: crate::key::KeyId,
    stage_fn: Arc<StageSet>,
}

/// The concurrent HotC gateway: [`HotC`] (one pool lock, tick-only
/// controller mutex) driven through a single engine mutex standing in for
/// the container daemon, with atomic stats; functions are addressed by the
/// [`FunctionHandle`]s [`Self::register`] returns.
///
/// Lock order (see DESIGN.md): a thread holds at most one of
/// {pool state, engine} at a time on the request path; `HotC`'s controller
/// mutex (tick only) may span pool/engine acquisitions but is never taken
/// while holding any other lock.
pub struct ConcurrentGateway {
    engine: Mutex<ContainerEngine>,
    hotc: HotC,
    stats: SharedStats,
    metrics: MetricsRegistry,
}

impl ConcurrentGateway {
    /// Builds the gateway over an engine from a HotC configuration, with its
    /// own fresh metrics registry.
    pub fn new(engine: ContainerEngine, config: HotCConfig) -> Self {
        ConcurrentGateway {
            engine: Mutex::labeled(engine, "core/engine"),
            hotc: HotC::new(config),
            stats: SharedStats::new(),
            metrics: MetricsRegistry::new(),
        }
    }

    /// The paper's deployed configuration over a local-image engine.
    pub fn with_defaults(engine: ContainerEngine) -> Self {
        Self::new(engine, HotCConfig::default())
    }

    /// The gateway's metrics registry. Mirrors the request/cold-start tally
    /// and `HotC`'s forced-eviction count into the registry's counters so a
    /// subsequent snapshot is current (`tick` refreshes them too).
    pub fn metrics(&self) -> &MetricsRegistry {
        self.sync_counters();
        &self.metrics
    }

    /// Mirrors the request tally ([`SharedStats::mirror`]) and copies
    /// `HotC`'s forced-eviction count into the registry's counters.
    fn sync_counters(&self) {
        self.stats.mirror(&self.metrics);
        // Present in the snapshot only once the limits have evicted.
        let evicted = self.hotc.forced_evictions();
        if evicted > 0 {
            self.metrics.counter("pool/evictions").store(evicted);
        }
    }

    /// Registers a function and returns the handle its requests are served
    /// through. The runtime key is interned and the per-function stage set
    /// resolved here, once, so the per-request path never hashes a
    /// configuration or looks up a scope name. The scope stays out of
    /// snapshots until its first request is recorded.
    pub fn register(&self, spec: FunctionSpec) -> FunctionHandle {
        FunctionHandle {
            key_id: self.pool().intern_config(&spec.config),
            stage_fn: self.metrics.fn_stage_set(&spec.name),
            spec,
        }
    }

    /// Aggregate counters.
    pub fn stats(&self) -> GatewayStats {
        self.stats.snapshot()
    }

    /// The runtime pool.
    pub fn pool(&self) -> &RuntimePool {
        self.hotc.pool()
    }

    /// Runs a closure with the locked engine (setup, inspection).
    pub fn with_engine<R>(&self, f: impl FnOnce(&mut ContainerEngine) -> R) -> R {
        f(&mut self.engine.lock())
    }

    /// Starts serving a request of `function` that arrived at `now`. Each
    /// piece of shared state is locked by itself, in a fixed order, and never
    /// across a container creation. The in-flight request borrows the
    /// handle's stage set, which `finish` records into.
    pub fn begin<'h>(
        &self,
        function: &'h FunctionHandle,
        now: SimTime,
    ) -> Result<InFlight<&'h StageSet>, GatewayError> {
        // DESIGN.md §5: the request path holds at most one of {pool state,
        // engine} at a time — and a warm acquire holds none at all: nothing
        // precedes it in this scope, so a lock-free hit must leave the
        // scope's lock count at zero.
        let scope = stdshim::request_path_scope();
        let FunctionHandle {
            spec,
            key_id,
            stage_fn,
        } = function;
        InFlight::begin(
            &mut (),
            &**stage_fn,
            now,
            |(), t2| {
                // The acquire reuses the registration-time interned id, so a
                // warm hit is a bitmap CAS — no pool lock, no engine lock,
                // no key hashing.
                let acq = self
                    .hotc
                    .acquire_on(&self.engine, *key_id, &spec.config, t2)?;
                debug_assert!(
                    !acq.lock_free || scope.locks_taken() == 0,
                    "warm gateway hit took a lock before begin_exec"
                );
                Ok(acq.into())
            },
            // One engine critical section loads the app and starts it.
            |(), container, t3| self.engine.with_engine(|e| spec.start(e, container, t3)),
        )
    }

    /// Completes an in-flight request at its `t4`: end the execution, return
    /// the container to the pool (a crashed one is disposed of), then the
    /// shared finish tail ([`SharedStats::finish`]) into the stage set of the
    /// handle the request began with — one stage-set lock, no name lookup.
    /// The pool finds the container's key by itself.
    pub fn finish(&self, inflight: InFlight<&StageSet>) -> Result<RequestTrace, GatewayError> {
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
        Ok(self.stats.finish(&inflight, inflight.scope))
    }

    /// Serves one request start-to-finish; the caller's next `now` is the
    /// trace's `t6_gateway_out`.
    pub fn handle(
        &self,
        function: &FunctionHandle,
        now: SimTime,
    ) -> Result<RequestTrace, GatewayError> {
        let inflight = self.begin(function, now)?;
        self.finish(inflight)
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
            self.metrics
                .sample_series("controller/predicted_demand", now, report.predicted_total);
            self.metrics
                .sample_series("controller/actual_demand", now, report.actual_total as f64);
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
    use crate::controller::ScalingPolicy;
    use crate::limits::PoolLimits;
    use crate::pool::ExclusiveEngine;
    use containersim::engine::ExecWork;
    use containersim::{ContainerEngine, HardwareProfile, ImageId, LanguageRuntime};
    use faas::gateway::Gateway;
    use faas::AppProfile;
    use metrics_lite::LatencyRecorder;
    use simclock::SimDuration;

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

    /// The concurrent gateway and the handles of `qr-0`…`qr-3`.
    fn concurrent_gateway_with(config: HotCConfig) -> (ConcurrentGateway, Vec<FunctionHandle>) {
        let engine = ContainerEngine::with_local_images(HardwareProfile::server());
        let gw = ConcurrentGateway::new(engine, config);
        let handles = qr_specs().into_iter().map(|s| gw.register(s)).collect();
        (gw, handles)
    }

    fn concurrent_gateway() -> (ConcurrentGateway, Vec<FunctionHandle>) {
        concurrent_gateway_with(HotCConfig::default())
    }

    /// Serves `n` back-to-back requests of `function` from `now` on,
    /// `gap` apart; returns the traces.
    fn serve(
        gw: &ConcurrentGateway,
        function: &FunctionHandle,
        n: usize,
        gap: SimDuration,
    ) -> Vec<RequestTrace> {
        let mut now = SimTime::ZERO;
        (0..n)
            .map(|_| {
                let trace = gw.handle(function, now).unwrap();
                now = trace.t6_gateway_out + gap;
                trace
            })
            .collect()
    }

    /// One worker per handle, each serving `per_thread` requests a second
    /// apart from its own function; returns each worker's latencies.
    fn each_thread_own_function(
        gw: &ConcurrentGateway,
        handles: &[FunctionHandle],
        per_thread: usize,
    ) -> Vec<LatencyRecorder> {
        std::thread::scope(|s| {
            let workers: Vec<_> = handles
                .iter()
                .map(|function| {
                    s.spawn(move || {
                        let mut rec = LatencyRecorder::new();
                        for trace in serve(gw, function, per_thread, SimDuration::from_secs(1)) {
                            rec.record(trace.total());
                        }
                        rec
                    })
                })
                .collect();
            workers.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn concurrent_threads_each_own_runtime() {
        let (gw, handles) = concurrent_gateway();
        let per_thread = 25usize;
        let recorders = each_thread_own_function(&gw, &handles, per_thread);

        let stats = gw.stats();
        assert_eq!(stats.requests as usize, handles.len() * per_thread);
        assert!(
            stats.cold_starts as usize <= handles.len() * 3,
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
        let function = gw.register(FunctionSpec::from_app(AppProfile::random_number()));

        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| serve(&gw, &function, 20, SimDuration::from_millis(200)));
            }
        });

        let stats = gw.stats();
        assert_eq!(stats.requests, 80);
        assert!(stats.cold_starts <= 8, "cold={}", stats.cold_starts);
        let live = gw.with_engine(|e| e.live_count());
        assert!(live <= 8, "live={live}");
        assert_eq!(gw.pool().total_live(), live);
    }

    /// The same serial traffic — every function, cold then warm — through
    /// both gateways: the concurrent frontend changes synchronization, not
    /// semantics, so the traces agree request for request and so does what
    /// the snapshot says about them (`fn/*` and `all` stages, `gateway/e2e`,
    /// the request and cold-start counters). A function registered on both
    /// and never invoked shows up in neither snapshot.
    #[test]
    fn serial_traffic_yields_the_exclusive_gateways_traces_and_snapshot() {
        let (concurrent, handles) = concurrent_gateway();
        let mut exclusive = exclusive_gateway(HotCConfig::default());
        let idle = FunctionSpec::from_app(AppProfile::random_number()).named("never-invoked");
        exclusive.register(idle.clone());
        concurrent.register(idle);
        let mut now = SimTime::ZERO;
        for i in 0..12 {
            let function = &handles[i % 4];
            let a = concurrent.handle(function, now).unwrap();
            let b = exclusive.handle(&function.spec.name, now).unwrap();
            assert_eq!(a, b, "request {i} diverged");
            now = a.t6_gateway_out;
        }
        let (a, b) = (
            concurrent.metrics().snapshot(),
            exclusive.metrics().snapshot(),
        );
        let scopes: Vec<&str> = a.stages.iter().map(|(scope, _)| scope.as_str()).collect();
        assert_eq!(scopes, ["all", "fn/qr-0", "fn/qr-1", "fn/qr-2", "fn/qr-3"]);
        assert_eq!(a.stages, b.stages);
        assert_eq!(a.histograms, b.histograms);
        assert_eq!(a.histograms[0].0, "gateway/e2e");
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.counter("gateway/requests"), Some(12));
        assert_eq!(a.counter("gateway/cold_starts"), Some(4));
    }

    /// Under exact keys a warm request takes the engine lock for
    /// `begin_exec` and nothing else: no table read precedes the acquire,
    /// and the acquire itself is a bitmap claim. (`begin`'s own
    /// `debug_assert` checks the zero before `begin_exec`; this pins the
    /// total.) The finish adds the function's stage-set lock after the
    /// engine's.
    #[cfg(debug_assertions)]
    #[test]
    fn a_warm_request_takes_the_engine_lock_and_no_other_before_it_executes() {
        let (gw, handles) = concurrent_gateway();
        let cold = gw.handle(&handles[0], SimTime::ZERO).unwrap();
        let scope = stdshim::request_path_scope();
        let inflight = gw.begin(&handles[0], cold.t6_gateway_out).unwrap();
        assert!(!inflight.cold);
        assert_eq!(scope.locks_taken(), 1, "begin: core/engine only");
        gw.finish(inflight).unwrap();
        assert_eq!(
            scope.locks_taken(),
            3,
            "finish: core/engine, then stage set"
        );
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
        let (concurrent, handles) = concurrent_gateway_with(config());
        let mut exclusive = exclusive_gateway(config());
        let mut now = SimTime::ZERO;
        for i in 0..12 {
            let function = &handles[i % 4];
            let a = concurrent.handle(function, now).unwrap();
            let b = exclusive.handle(&function.spec.name, now).unwrap();
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
        let (gw, handles) = concurrent_gateway();
        let threads = handles.len();
        let per_thread = 25usize;
        let recorders = each_thread_own_function(&gw, &handles, per_thread);
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
        // The tick sampled pool gauges and the live series, which reads the
        // gauges' sum at the tick.
        let (avail, in_use) = (snap.gauge("pool/available"), snap.gauge("pool/in_use"));
        let live = snap
            .series
            .iter()
            .find(|(name, _)| name == "pool/live")
            .map(|(_, ts)| ts.value_at(SimTime::from_secs(60)));
        assert_eq!(live, Some(avail.zip(in_use).map(|(a, u)| a + u)));
    }

    /// The tally mirror under concurrent readers: threads serving requests
    /// (each of a function of its own configuration, so every one is cold
    /// and the cold-start count runs level with the request count) while
    /// other threads read the metrics. No read shows more cold starts than
    /// requests or more requests than the tally, and once the servers are
    /// done both counters equal the tally — a mirror that read what was
    /// mirrored and then added would count some gains twice.
    #[test]
    fn the_tally_mirror_is_exact_under_concurrent_reads() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let engine = ContainerEngine::with_local_images(HardwareProfile::server());
        let gw = ConcurrentGateway::with_defaults(engine);
        let (servers, per_server) = (2, 150);
        let handles: Vec<Vec<FunctionHandle>> = (0..servers)
            .map(|t| {
                (0..per_server)
                    .map(|i| {
                        let name = format!("f-{t}-{i}");
                        let mut spec = FunctionSpec::from_app(AppProfile::random_number());
                        spec.config.exec.env.insert("FN".into(), name.clone());
                        gw.register(spec.named(name))
                    })
                    .collect()
            })
            .collect();
        let served = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let mut reads = 0;
                    while reads == 0 || !served.load(Ordering::Acquire) {
                        // Mostly bare mirrors, which race each other; every
                        // 16th read also checks a snapshot.
                        reads += 1;
                        if reads % 16 != 1 {
                            gw.metrics();
                            continue;
                        }
                        let snap = gw.metrics().snapshot();
                        let requests = snap.counter("gateway/requests").unwrap_or(0);
                        let cold = snap.counter("gateway/cold_starts").unwrap_or(0);
                        assert!(cold <= requests, "read {reads}: {cold} cold > {requests}");
                        let tally = gw.stats().requests;
                        assert!(requests <= tally, "read {reads}: {requests} > {tally}");
                    }
                });
            }
            // Joined by hand, so a failing server cannot leave the readers
            // spinning: they stop once every server has returned.
            let all_cold: Vec<_> = std::thread::scope(|s| {
                let servers: Vec<_> = handles
                    .iter()
                    .map(|functions| {
                        let gw = &gw;
                        s.spawn(move || {
                            functions
                                .iter()
                                .all(|f| gw.handle(f, SimTime::ZERO).is_ok_and(|t| t.cold))
                        })
                    })
                    .collect();
                servers.into_iter().map(|h| h.join()).collect()
            });
            served.store(true, Ordering::Release);
            assert!(all_cold.into_iter().all(|r| r.is_ok_and(|cold| cold)));
        });
        let stats = gw.stats();
        assert_eq!(stats.requests, (servers * per_server) as u64);
        assert_eq!(stats.cold_starts, stats.requests);
        let snap = gw.metrics().snapshot();
        assert_eq!(snap.counter("gateway/requests"), Some(stats.requests));
        assert_eq!(snap.counter("gateway/cold_starts"), Some(stats.cold_starts));
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
        let [alpha, beta] = specs.map(|spec| {
            exclusive.register(spec.clone());
            concurrent.register(spec)
        });

        let mut now = SimTime::from_secs(1);
        let script = [
            (&alpha, true), // prewarmed: never executed, nothing loaded
            (&alpha, false),
            (&beta, true),
            (&beta, false),
            (&alpha, true),
            (&beta, true),
        ];
        for (i, (function, init_due)) in script.into_iter().enumerate() {
            let a = concurrent.handle(function, now).unwrap();
            let b = exclusive.handle(&function.spec.name, now).unwrap();
            now = b.t6_gateway_out;
            assert_eq!(a, b, "request {i} diverged");
            assert!(!a.cold, "request {i}: the prewarmed runtime serves it");
            assert_eq!(a.first_exec, i == 0, "request {i}");
            assert_eq!(
                a.execution() > SimDuration::from_millis(500),
                init_due,
                "request {i} ({}): {:?}",
                function.spec.name,
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
        let counts = |spec: &FunctionSpec| {
            pool.id_for(&spec.config)
                .map_or((0, 0), |id| (pool.num_avail_id(id), pool.num_in_use_id(id)))
        };
        assert_eq!((pool.total_live(), live), (1, 1), "(pool, engine) live");
        assert_eq!(counts(&specs[0]), (1, 0));
        assert_eq!(counts(&specs[1]), (0, 0));
        let python = pool.id_for(&specs[0].config).unwrap();
        assert_eq!(pool.keys(), vec![python], "pooled under another key");
    }

    /// A request finishes while another function holds the key it was
    /// acquired under (concurrent), or its function is re-registered with
    /// another configuration mid-flight (exclusive): the pool, not the
    /// frontend, knows which key a container belongs to, and the in-flight
    /// request, not the caller, which `fn/` scope its stages land in. The
    /// old configuration's next request reuses the runtime warm; the new
    /// configuration cold-starts.
    #[test]
    fn a_finished_container_returns_to_the_key_it_was_acquired_under() {
        let (gw, handles) = concurrent_gateway();
        let (python, go) = (&handles[0], &handles[1]);
        let inflight = gw.begin(python, SimTime::ZERO).unwrap();
        let (container, t4) = (inflight.container, inflight.t4_func_end);
        gw.finish(inflight).unwrap();
        let snap = gw.metrics().snapshot();
        assert_eq!(snap.stage_count("fn/qr-0", metrics_lite::Stage::Exec), 1);
        assert_eq!(snap.stage_count("fn/qr-1", metrics_lite::Stage::Exec), 0);
        let live = gw.with_engine(|e| e.live_count());
        assert_returned_to_the_python_pool(gw.pool(), live);
        assert!(gw.handle(go, t4).unwrap().cold);
        let warm = gw.begin(python, t4 + SimDuration::from_secs(1)).unwrap();
        assert!(!warm.cold && warm.container == container);

        let go_as_qr0 = qr_specs()[1].clone().named("qr-0");
        let python_again = qr_specs()[0].clone().named("qr-old");
        let mut gw = exclusive_gateway(HotCConfig::default());
        let inflight = gw.begin("qr-0", SimTime::ZERO).unwrap();
        let (container, t4) = (inflight.container, inflight.t4_func_end);
        gw.register(go_as_qr0);
        gw.finish(inflight).unwrap();
        let live = gw.engine().live_count();
        assert_returned_to_the_python_pool(gw.provider().pool(), live);
        gw.register(python_again);
        assert!(gw.handle("qr-0", t4).unwrap().cold);
        let warm = gw.begin("qr-old", t4 + SimDuration::from_secs(1)).unwrap();
        assert!(!warm.cold && warm.container == container);
    }

    /// Serial `qr-0` requests at `minutes` under a §III-B baseline, ticked
    /// every 30 s, through both frontends: they agree request for request.
    /// Returns which requests were cold.
    fn baseline_colds(policy: ScalingPolicy, minutes: &[u64]) -> Vec<bool> {
        let config = HotCConfig::baseline(policy);
        let (concurrent, handles) = concurrent_gateway_with(config.clone());
        let mut exclusive = exclusive_gateway(config);
        let mut next_tick = SimTime::ZERO;
        minutes
            .iter()
            .map(|&m| {
                let now = SimTime::from_secs(m * 60);
                while next_tick <= now {
                    concurrent.tick(next_tick).unwrap();
                    exclusive.tick(next_tick).unwrap();
                    next_tick += SimDuration::from_secs(30);
                }
                let a = concurrent.handle(&handles[0], now).unwrap();
                assert_eq!(a, exclusive.handle("qr-0", now).unwrap(), "minute {m}");
                a.cold
            })
            .collect()
    }

    /// The 15-minute window keeps the runtime across 10-minute gaps and
    /// retires it inside a 30-minute one.
    #[test]
    fn fixed_keepalive_runs_on_the_concurrent_gateway() {
        let policy = ScalingPolicy::KeepAlive(SimDuration::from_mins(15));
        let colds = baseline_colds(policy, &[0, 10, 20, 50]);
        assert_eq!(colds, [true, false, false, true]);
    }

    #[test]
    fn periodic_warmup_runs_on_the_concurrent_gateway() {
        let policy = ScalingPolicy::KeepAll {
            ping: Some(SimDuration::from_mins(5)),
        };
        assert_eq!(
            baseline_colds(policy, &[0, 10, 50, 200]),
            [true, false, false, false]
        );
    }

    /// Three 5-minute gaps teach a 5.5-minute window: a 7-minute gap the
    /// 10-minute default would have bridged is cold.
    #[test]
    fn hybrid_keepalive_runs_on_the_concurrent_gateway() {
        let colds = baseline_colds(ScalingPolicy::Hybrid, &[0, 5, 10, 15, 22]);
        assert_eq!(colds, [true, false, false, false, true]);
    }

    #[test]
    fn concurrent_tick_controls_pool() {
        let engine = ContainerEngine::with_local_images(HardwareProfile::server());
        let gw = ConcurrentGateway::with_defaults(engine);
        let function = gw.register(FunctionSpec::from_app(AppProfile::random_number()));
        gw.handle(&function, SimTime::ZERO).unwrap();
        gw.tick(SimTime::from_secs(30)).unwrap();
        // The idle runtime stays warm for the next request.
        let warm = gw.handle(&function, SimTime::from_secs(31)).unwrap();
        assert!(!warm.cold);
    }
}
