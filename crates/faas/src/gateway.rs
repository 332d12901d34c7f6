//! The gateway: entry point, function registry, and request driver.
//!
//! Mirrors the OpenFaaS pipeline of Fig. 5: gateway → watchdog → function
//! process → watchdog → gateway, stamping the six timestamps of §III-A along
//! the way. The gateway is generic over its [`RuntimeProvider`], so the same
//! driver code runs the cold-start baseline, the keep-alive baselines, and
//! HotC.
//!
//! [`Gateway`] owns its engine, provider, function table and request tally
//! outright, and every driver — a replay worker, a cluster node — owns its
//! gateway: nothing here is shared between threads. Which app last ran in a
//! container is not gateway state at all: the container's own engine record
//! remembers it ([`ContainerEngine::load_app`]), so it is dropped with the
//! container and nothing here needs pruning.
//!
//! Telemetry: `finish` records the request's [`StageSample`] once, into the
//! `fn/<function>` stage set of the gateway's [`MetricsRegistry`], and
//! counts it into the gateway's tally and the registry's
//! `gateway/requests` / `gateway/cold_starts` — unlisted counters, which a
//! registry shows once it has been read through a gateway
//! ([`Gateway::metrics`]); every snapshot derives scope `all` and histogram
//! `gateway/e2e` from the `fn/` sets. This gateway emits no other name
//! (`pool/live` is sampled by the replay driver). The `fn/` set travels
//! with the request: `begin` resolves it from the function's table entry
//! (or, for [`Gateway::begin_with`], one lookup by name) and the
//! [`InFlight`] carries its [`FnScope`] index, so `finish` names nothing and
//! a request lands in the scope it began in even if its function is
//! re-registered meanwhile.
//!
//! Two driving styles:
//! * [`Gateway::handle`] — begin+finish in one call, for workloads whose
//!   requests do not overlap in virtual time;
//! * [`Gateway::begin`] / [`Gateway::finish`] — split-phase, for concurrent
//!   workloads where many containers are busy simultaneously (the
//!   parallel/burst experiments schedule `finish` at each request's `t4`).

use crate::apps::AppProfile;
use crate::pipeline::{RequestTrace, GATEWAY_HOP, WATCHDOG_HOP};
use crate::{ProviderKey, RuntimeProvider};
use containersim::{
    ContainerConfig, ContainerEngine, ContainerId, CostBreakdown, EngineError, ExecOutcome,
};
use metrics_lite::{Counter, MetricsRegistry, Stage, StageSample, StageSet};
use simclock::{SimDuration, SimTime};
use std::collections::HashMap;
use std::sync::Arc;

/// A deployed function: its application profile and runtime configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionSpec {
    /// Function name (route).
    pub name: String,
    /// What it executes.
    pub app: AppProfile,
    /// The container runtime it requires.
    pub config: ContainerConfig,
}

impl FunctionSpec {
    /// A spec from an app profile with its default (bridge) configuration,
    /// named after the app.
    pub fn from_app(app: AppProfile) -> Self {
        let config = app.default_config();
        FunctionSpec {
            name: app.name.to_string(),
            app,
            config,
        }
    }

    /// Renames the function (builder style) — used when the same app is
    /// deployed under several configurations.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Replaces the runtime configuration (builder style).
    pub fn with_config(mut self, config: ContainerConfig) -> Self {
        self.config = config;
        self
    }

    /// The start step, at (3): loads the app into `container` — app init
    /// is due on a fresh runtime and after another app (fuzzy keys, shared
    /// runtime types) — and begins its execution.
    fn start(
        &self,
        engine: &mut ContainerEngine,
        container: ContainerId,
        t3: SimTime,
    ) -> Result<ExecOutcome, EngineError> {
        let needs_app_init = engine.load_app(container, self.app.name)?;
        engine.begin_exec(container, self.app.work_for(needs_app_init), t3)
    }
}

/// Aggregate request counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewayStats {
    /// Requests completed.
    pub requests: u64,
    /// Requests that required a container cold start.
    pub cold_starts: u64,
}

/// Gateway errors.
#[derive(Debug, Clone, PartialEq)]
pub enum GatewayError {
    /// No function registered under that name.
    UnknownFunction(String),
    /// The container engine rejected an operation.
    Engine(EngineError),
}

impl std::fmt::Display for GatewayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GatewayError::UnknownFunction(name) => write!(f, "unknown function '{name}'"),
            GatewayError::Engine(e) => write!(f, "engine error: {e}"),
        }
    }
}

impl std::error::Error for GatewayError {}

impl From<EngineError> for GatewayError {
    fn from(e: EngineError) -> Self {
        GatewayError::Engine(e)
    }
}

/// A [`Gateway`]'s handle to one function's `fn/` stage set: an index into
/// the gateway's scope table. Resolved when a request begins, so `finish`
/// records without naming the function; meaningful only to the gateway
/// that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FnScope(u32);

/// A request that has started executing; `finish` completes it at its `t4`.
#[derive(Debug, Clone)]
pub struct InFlight {
    /// The `fn/` stage set the request is recorded into, resolved when it
    /// began.
    pub scope: FnScope,
    /// The container executing it.
    pub container: ContainerId,
    /// When the function process will stop (schedule `finish` here).
    pub t4_func_end: SimTime,
    /// (1) request hits the gateway.
    pub t1: SimTime,
    /// (2) watchdog receives the forwarded request.
    pub t2: SimTime,
    /// (3) function process starts.
    pub t3: SimTime,
    /// Whether obtaining the runtime cold-started a container.
    pub cold: bool,
    /// Whether this is the runtime's first execution.
    pub first_exec: bool,
    /// Whether the function process will crash (fault injection).
    pub crashed: bool,
    /// Cold-start stage decomposition (`None` on reuse).
    pub breakdown: Option<CostBreakdown>,
    /// Reconfiguration cost of a fuzzy-matched reuse (zero otherwise).
    pub reconfig: SimDuration,
    /// Portion of the execution latency spent in app-level initialization.
    pub init_latency: SimDuration,
    /// Total execution latency (t4 − t3).
    pub exec_latency: SimDuration,
}

impl InFlight {
    /// Decomposes this request into per-stage durations. The stages always
    /// sum exactly to the trace's end-to-end `total()`: the four fixed hops,
    /// the acquisition cost (cold breakdown or reconfig), and the
    /// init/handler split of the execution segment.
    pub fn stage_sample(&self) -> StageSample {
        let mut s = StageSample::new();
        s.set(Stage::GatewayHop, GATEWAY_HOP + GATEWAY_HOP);
        s.set(Stage::WatchdogHop, WATCHDOG_HOP + WATCHDOG_HOP);
        if let Some(b) = &self.breakdown {
            s.set(Stage::QueueWait, b.daemon_queue);
            s.set(Stage::ImagePull, b.image_pull);
            s.set(Stage::ImageUnpack, b.image_unpack);
            s.set(Stage::ResourceAlloc, b.resource_alloc);
            s.set(Stage::NetworkSetup, b.network_setup);
            s.set(Stage::VolumeMount, b.volume_mount);
            s.set(Stage::RuntimeInit, b.runtime_init);
            s.set(Stage::CodeLoad, b.code_load);
        }
        s.set(Stage::Reconfig, self.reconfig);
        s.set(Stage::AppInit, self.init_latency);
        s.set(Stage::Exec, self.exec_latency - self.init_latency);
        s
    }

    /// The request's trace, with (5)–(6) stamped after its `t4`.
    fn trace(&self) -> RequestTrace {
        let t4 = self.t4_func_end;
        let t5 = t4 + WATCHDOG_HOP;
        let t6 = t5 + GATEWAY_HOP;
        let trace = RequestTrace {
            t1_gateway_in: self.t1,
            t2_watchdog_in: self.t2,
            t3_func_start: self.t3,
            t4_func_end: t4,
            t5_watchdog_out: t5,
            t6_gateway_out: t6,
            cold: self.cold,
            first_exec: self.first_exec,
            failed: self.crashed,
        };
        debug_assert!(trace.is_well_formed());
        trace
    }
}

/// A function-table entry: the spec, the provider's key for its
/// configuration and the function's `fn/` scope. Key and scope are filled by
/// the function's first request — not at registration, so a provider hands
/// out keys in first-request order. A re-registration empties the key, so it
/// never outlives the configuration it was resolved from, and keeps the
/// scope, whose name has not changed.
struct Deployed {
    spec: FunctionSpec,
    key: Option<ProviderKey>,
    scope: Option<FnScope>,
}

/// The registry counters of the request tally: requests, then cold starts.
const TALLY_COUNTERS: [&str; 2] = ["gateway/requests", "gateway/cold_starts"];

/// The serverless gateway.
///
/// ```
/// use containersim::{ContainerEngine, HardwareProfile};
/// use faas::{AppProfile, ColdStartAlways, Gateway};
/// use simclock::SimTime;
///
/// let engine = ContainerEngine::with_local_images(HardwareProfile::server());
/// let mut gateway = Gateway::new(engine, ColdStartAlways::new());
/// gateway.register_app(AppProfile::random_number());
///
/// let trace = gateway.handle("random-number", SimTime::ZERO).unwrap();
/// assert!(trace.cold);
/// // The §III-A decomposition: initiation dominates the cold request.
/// assert!(trace.initiation() > trace.execution());
/// ```
pub struct Gateway<P: RuntimeProvider> {
    engine: ContainerEngine,
    provider: P,
    /// The function table: name → deployed spec, its cached key and scope.
    /// Entries are boxed so a resize moves pointers: inline, the ~340-byte
    /// entries would sit in the old and the new table at once, a peak the
    /// ordered map this replaced never had.
    functions: HashMap<String, Box<Deployed>>,
    /// The scopes of functions served through [`Self::begin_with`], which
    /// are not in `functions`.
    placed: HashMap<String, FnScope>,
    /// Requests completed, and the cold starts among them.
    stats: GatewayStats,
    /// [`TALLY_COUNTERS`] in `metrics`, resolved by the first finish, which
    /// every finish adds to alongside `stats`: gateways sharing a registry,
    /// or registries absorbed into one another, sum.
    counters: Option<[Arc<Counter>; 2]>,
    metrics: Arc<MetricsRegistry>,
    /// `fn/<name>` stage-set handles, indexed by [`FnScope`]. A function's
    /// is resolved by its first `begin`, not at registration: the scope name
    /// is formatted and looked up in the registry once per function, and a
    /// function never invoked costs no stage set (the registry leaves a set
    /// out of snapshots until it has recorded, so creating it at `begin`
    /// rather than at `finish` shows nowhere).
    scopes: Vec<Arc<StageSet>>,
}

impl<P: RuntimeProvider> Gateway<P> {
    /// Creates a gateway over an engine and a runtime provider, with its own
    /// fresh metrics registry.
    pub fn new(engine: ContainerEngine, provider: P) -> Self {
        Self::with_metrics(engine, provider, Arc::new(MetricsRegistry::new()))
    }

    /// Creates a gateway recording into a shared metrics registry (so a
    /// driver can aggregate several gateways, or export after the run).
    pub fn with_metrics(
        engine: ContainerEngine,
        provider: P,
        metrics: Arc<MetricsRegistry>,
    ) -> Self {
        Gateway {
            engine,
            provider,
            functions: HashMap::new(),
            placed: HashMap::new(),
            stats: GatewayStats::default(),
            counters: None,
            metrics,
            scopes: Vec::new(),
        }
    }

    /// The gateway's metrics registry, with the request tally listed in it.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        self.metrics.list_counters(&TALLY_COUNTERS);
        &self.metrics
    }

    /// Registers (or replaces) a function. A replaced function's cached key
    /// goes with its old entry; its scope stays, so a request begun before
    /// the replacement and one begun after record into the same `fn/` set.
    pub fn register(&mut self, spec: FunctionSpec) {
        match self.functions.get_mut(spec.name.as_str()) {
            Some(deployed) => {
                deployed.spec = spec;
                deployed.key = None;
            }
            None => {
                let deployed = Deployed {
                    spec,
                    key: None,
                    scope: None,
                };
                self.functions
                    .insert(deployed.spec.name.clone(), Box::new(deployed));
            }
        }
    }

    /// Convenience: registers an app under its own name with its default
    /// configuration.
    pub fn register_app(&mut self, app: AppProfile) {
        self.register(FunctionSpec::from_app(app));
    }

    /// Looks up one function's spec.
    pub fn function(&self, name: &str) -> Option<&FunctionSpec> {
        self.functions.get(name).map(|d| &d.spec)
    }

    /// The underlying engine (resource inspection).
    pub fn engine(&self) -> &ContainerEngine {
        &self.engine
    }

    /// The runtime provider.
    pub fn provider(&self) -> &P {
        &self.provider
    }

    /// Mutable provider access.
    pub fn provider_mut(&mut self) -> &mut P {
        &mut self.provider
    }

    /// Aggregate counters.
    pub fn stats(&self) -> GatewayStats {
        self.stats
    }

    /// Runs provider maintenance (HotC's control step and limits).
    pub fn tick(&mut self, now: SimTime) -> Result<(), GatewayError> {
        self.provider.tick(&mut self.engine, now)?;
        Ok(())
    }

    /// Starts serving a request that arrived at the gateway at `now`.
    /// Timestamps (1)–(4) are computed; the caller must invoke
    /// [`Self::finish`] once the virtual clock reaches `t4_func_end`.
    pub fn begin(&mut self, function: &str, now: SimTime) -> Result<InFlight, GatewayError> {
        let Deployed { spec, key, scope } = &mut **self
            .functions
            .get_mut(function)
            .ok_or_else(|| GatewayError::UnknownFunction(function.to_string()))?;
        let scope = *scope
            .get_or_insert_with(|| Self::new_scope(&mut self.scopes, &self.metrics, &spec.name));
        Self::begin_on(&mut self.engine, &mut self.provider, spec, key, scope, now)
    }

    /// [`Self::begin`] with a caller-held spec, bypassing this gateway's
    /// registry. A cluster scheduler keeps **one** function table for all
    /// nodes and hands each node the spec at placement time — registering
    /// 10k functions on each of 1k hosts would hold 10M spec clones. `key`
    /// is this node's provider key for `spec.config` if the caller keeps
    /// one (`None` lets the provider resolve it). The function's scope is
    /// found by one lookup of its name.
    pub fn begin_with(
        &mut self,
        spec: &FunctionSpec,
        mut key: Option<ProviderKey>,
        now: SimTime,
    ) -> Result<InFlight, GatewayError> {
        let scope = match self.placed.get(spec.name.as_str()) {
            Some(&scope) => scope,
            None => {
                let scope = Self::new_scope(&mut self.scopes, &self.metrics, &spec.name);
                self.placed.insert(spec.name.clone(), scope);
                scope
            }
        };
        Self::begin_on(
            &mut self.engine,
            &mut self.provider,
            spec,
            &mut key,
            scope,
            now,
        )
    }

    /// Resolves function `name`'s stage set in the registry and appends it
    /// to the scope table; over the two fields only, so a caller may hold a borrow of
    /// the function table meanwhile.
    fn new_scope(
        scopes: &mut Vec<Arc<StageSet>>,
        metrics: &MetricsRegistry,
        name: &str,
    ) -> FnScope {
        let scope = FnScope(scopes.len() as u32);
        scopes.push(metrics.fn_stage_set(name));
        scope
    }

    /// The one body of [`Self::begin`] and [`Self::begin_with`], over the
    /// engine and provider only so a registered spec can be borrowed from
    /// `functions` for the call instead of cloned per request.
    fn begin_on(
        engine: &mut ContainerEngine,
        provider: &mut P,
        spec: &FunctionSpec,
        key: &mut Option<ProviderKey>,
        scope: FnScope,
        now: SimTime,
    ) -> Result<InFlight, GatewayError> {
        let t1 = now;
        let t2 = t1 + GATEWAY_HOP;
        let acq = provider.acquire_keyed(engine, &spec.config, key, t2)?;
        // Function initiation: watchdog shim + obtaining the runtime.
        let t3 = t2 + WATCHDOG_HOP + acq.cost;
        let outcome = spec.start(engine, acq.container, t3)?;
        Ok(InFlight {
            scope,
            container: acq.container,
            t4_func_end: t3 + outcome.latency,
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

    /// Completes an in-flight request: the function process has stopped at
    /// `t4`, the response flows back, and the container is returned to the
    /// provider (cleanup happens off the request path). The request is
    /// tallied and its stages recorded once, into the `fn/` set it began
    /// with. `inflight` must have begun on this gateway.
    pub fn finish(&mut self, inflight: InFlight) -> Result<RequestTrace, GatewayError> {
        let t4 = inflight.t4_func_end;
        self.engine.end_exec(inflight.container, t4)?;
        self.provider
            .release(&mut self.engine, inflight.container, t4)?;
        let [requests, cold_starts] = self
            .counters
            .get_or_insert_with(|| TALLY_COUNTERS.map(|n| self.metrics.unlisted_counter(n)));
        self.stats.requests += 1;
        requests.add(1);
        if inflight.cold {
            self.stats.cold_starts += 1;
            cold_starts.add(1);
        }
        self.scopes[inflight.scope.0 as usize].record(&inflight.stage_sample());
        Ok(inflight.trace())
    }

    /// Serves one request start-to-finish (no overlap with other requests).
    pub fn handle(&mut self, function: &str, now: SimTime) -> Result<RequestTrace, GatewayError> {
        let inflight = self.begin(function, now)?;
        self.finish(inflight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ColdStartAlways;
    use containersim::HardwareProfile;

    fn gateway<P: RuntimeProvider>(provider: P) -> Gateway<P> {
        let engine = ContainerEngine::with_local_images(HardwareProfile::server());
        let mut gw = Gateway::new(engine, provider);
        gw.register_app(AppProfile::random_number());
        gw
    }

    #[test]
    fn unknown_function_rejected() {
        let mut gw = gateway(ColdStartAlways::new());
        let err = gw.handle("nope", SimTime::ZERO).unwrap_err();
        assert_eq!(err, GatewayError::UnknownFunction("nope".to_string()));
    }

    #[test]
    fn cold_request_initiation_dominates() {
        // The §III-A finding: for a trivial function served cold, the 2→3
        // initiation segment dwarfs execution and forwarding.
        let mut gw = gateway(ColdStartAlways::new());
        let trace = gw.handle("random-number", SimTime::ZERO).unwrap();
        assert!(trace.cold);
        assert!(trace.is_well_formed());
        assert!(trace.initiation() > trace.execution() * 5);
        assert!(trace.initiation() > trace.forwarding() * 50);
    }

    /// A function's scope shows in the snapshot from its first `finish`: a
    /// registered function that is never invoked stays out, one that has
    /// only begun does too, and a `begin_with` caller's function (held by a
    /// cluster scheduler, never registered on this node) gets its scope all
    /// the same.
    #[test]
    fn stage_scopes_appear_on_first_finish_only() {
        let mut gw = gateway(ColdStartAlways::new());
        gw.register(FunctionSpec::from_app(AppProfile::random_number()).named("idle"));
        let placed = FunctionSpec::from_app(AppProfile::random_number()).named("placed");
        assert!(gw
            .metrics()
            .snapshot()
            .stages
            .iter()
            .all(|(s, _)| s == "all"));
        let begun = gw.begin("random-number", SimTime::ZERO).unwrap();
        let snap = gw.metrics().snapshot();
        assert!(snap.stages.iter().all(|(s, _)| s == "all"));
        gw.finish(begun).unwrap();

        for at in [10, 20] {
            gw.handle("random-number", SimTime::from_secs(at)).unwrap();
            let inflight = gw
                .begin_with(&placed, None, SimTime::from_secs(at + 1))
                .unwrap();
            gw.finish(inflight).unwrap();
        }
        let snap = gw.metrics().snapshot();
        let scopes: Vec<&str> = snap.stages.iter().map(|(s, _)| s.as_str()).collect();
        assert_eq!(scopes, ["all", "fn/placed", "fn/random-number"]);
        assert_eq!(snap.stage_count("fn/placed", Stage::Exec), 2);
        assert_eq!(snap.stage_count("fn/random-number", Stage::Exec), 3);
        assert_eq!(snap.stage_count("all", Stage::Exec), 5);
    }

    #[test]
    fn handle_equals_begin_finish() {
        let mut gw1 = gateway(ColdStartAlways::new());
        let mut gw2 = gateway(ColdStartAlways::new());
        let t1 = gw1.handle("random-number", SimTime::from_secs(3)).unwrap();
        let inflight = gw2.begin("random-number", SimTime::from_secs(3)).unwrap();
        let t2 = gw2.finish(inflight).unwrap();
        assert_eq!(t1, t2);
    }
}

#[cfg(test)]
mod component_tests {
    use super::*;
    use crate::Acquisition;
    use containersim::HardwareProfile;

    /// Regression (tally wrap): the tally was one word, requests in its
    /// low 32 bits and cold starts in its high 32, so the 2³²nd request
    /// carried into the cold-start half and read as 0 requests and one
    /// more cold start. A gateway that has served 2³² − 1 requests, none
    /// cold, finishes one more warm request.
    #[test]
    fn the_tally_counts_past_two_to_the_32_requests() {
        let engine = ContainerEngine::with_local_images(HardwareProfile::server());
        let mut gw = Gateway::new(engine, WarmAfterFirst::default());
        gw.register_app(AppProfile::random_number());
        assert!(gw.handle("random-number", SimTime::ZERO).unwrap().cold);
        let served = u64::from(u32::MAX);
        gw.stats = GatewayStats {
            requests: served,
            cold_starts: 0,
        };
        let counters = gw.counters.as_ref().unwrap();
        counters[0].store(served);
        counters[1].store(0);
        let trace = gw.handle("random-number", SimTime::from_secs(1)).unwrap();
        assert!(!trace.cold);
        let expected = GatewayStats {
            requests: 1 << 32,
            cold_starts: 0,
        };
        assert_eq!(gw.stats(), expected);
        let snapshot = gw.metrics().snapshot();
        assert_eq!(snapshot.counter("gateway/requests"), Some(1 << 32));
        assert_eq!(snapshot.counter("gateway/cold_starts"), Some(0));
    }

    /// A provider that cold-starts one container and reuses it after.
    #[derive(Default)]
    struct WarmAfterFirst(Option<ContainerId>);

    impl RuntimeProvider for WarmAfterFirst {
        fn acquire(
            &mut self,
            engine: &mut ContainerEngine,
            config: &ContainerConfig,
            now: SimTime,
        ) -> Result<Acquisition, EngineError> {
            if let Some(container) = self.0.take() {
                return Ok(Acquisition::warm(container));
            }
            let (container, breakdown) = engine.create_container(config.clone(), now)?;
            Ok(Acquisition::cold(container, breakdown))
        }

        fn release(
            &mut self,
            engine: &mut ContainerEngine,
            container: ContainerId,
            now: SimTime,
        ) -> Result<(), EngineError> {
            engine.cleanup(container, now)?;
            self.0 = Some(container);
            Ok(())
        }

        fn tick(&mut self, _: &mut ContainerEngine, _: SimTime) -> Result<(), EngineError> {
            Ok(())
        }

        fn name(&self) -> &'static str {
            "warm-after-first"
        }

        fn background_cost(&self) -> SimDuration {
            SimDuration::ZERO
        }
    }

    #[test]
    fn registry_replaces_by_name() {
        let engine = ContainerEngine::with_local_images(HardwareProfile::server());
        let mut gw = Gateway::new(engine, crate::policy::ColdStartAlways::new());
        gw.register(FunctionSpec::from_app(AppProfile::random_number()));
        assert_eq!(gw.functions.len(), 1);
        let replacement = FunctionSpec::from_app(AppProfile::random_number()).with_config(
            ContainerConfig::bridge(containersim::ImageId::parse("alpine:3.12")),
        );
        gw.register(replacement.clone());
        assert_eq!(gw.functions.len(), 1);
        assert_eq!(gw.function("random-number"), Some(&replacement));
        assert!(gw.function("nope").is_none());
    }
}
