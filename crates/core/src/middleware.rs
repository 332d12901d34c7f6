//! The HotC middleware: pool + adaptive controller + limits (Fig. 6).
//!
//! "When new requests arrive, HotC always attempts to execute the user code
//! in an existing and free container. If it cannot find an available
//! container, HotC just starts a new one as usual. After the container
//! finishes execution, it returns the results back to the client side and
//! then HotC will clean up the container and prepare for the next request."
//!
//! There is one [`HotC`], and the Fig. 6 sequence — acquire then enforce the
//! limits on a cold start, release then book the cleanup, tick = controller
//! step then enforce — is written here only. Its entry points take `&self`
//! and an [`EngineRef`], exactly as the pool's do: the single-threaded
//! [`faas::Gateway`] reaches them through [`faas::RuntimeProvider`] and an
//! [`ExclusiveEngine`] borrow, [`crate::ConcurrentGateway`] through its engine
//! mutex. The warm request path takes no lock here: the controller sits
//! behind a mutex that only `tick_on` (and the background-cost read) takes,
//! and the tallies are relaxed atomics.
//!
//! The §III-B keep-alive baselines are `HotC` too, with another
//! [`ScalingPolicy`] and no limits ([`HotC::fixed_keepalive`],
//! [`HotC::periodic_warmup`], [`HotC::hybrid_keepalive`]), so every frontend
//! and the cluster run them unchanged.

use crate::controller::{AdaptiveController, ScalingPolicy, StepReport};
use crate::key::{KeyId, KeyPolicy};
use crate::limits::PoolLimits;
use crate::pool::{EngineRef, ExclusiveEngine, PoolAcquisition, RuntimePool};
use containersim::{ContainerConfig, ContainerEngine, ContainerId, EngineError};
use faas::{Acquisition, ProviderKey, RuntimeProvider};
use simclock::{SimDuration, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use stdshim::sync::Mutex;

/// Top-level HotC configuration.
#[derive(Debug, Clone, Default)]
pub struct HotCConfig {
    /// Runtime-key matching policy.
    pub key_policy: KeyPolicy,
    /// Pool resource limits.
    pub limits: PoolLimits,
    /// How the controller sizes each key: Algorithm 3 by default;
    /// `KeepAll { ping: None }` is the "pool only" ablation.
    pub policy: ScalingPolicy,
}

impl HotCConfig {
    /// A §III-B baseline: exact keys, `policy`, and no limits — the
    /// industry practices HotC is compared with cap nothing.
    pub(crate) fn baseline(policy: ScalingPolicy) -> Self {
        HotCConfig {
            key_policy: KeyPolicy::Exact,
            limits: PoolLimits::new(usize::MAX, 1.5),
            policy,
        }
    }
}

/// The HotC runtime manager.
pub struct HotC {
    pool: RuntimePool,
    /// Taken by `tick_on` and the background-cost read only: a control step
    /// may span pool and engine acquisitions, but this lock is never taken
    /// while holding any other (DESIGN.md §5).
    controller: Mutex<AdaptiveController>,
    limits: PoolLimits,
    name: &'static str,
    /// Cumulative cleanup/eviction cost in virtual nanoseconds. Bumped on
    /// every release, so it is a statistic on a relaxed atomic rather than
    /// state behind a lock that would reserialize the warm path.
    background_nanos: AtomicU64,
    forced_evictions: AtomicU64,
}

impl HotC {
    /// Builds HotC from a configuration.
    pub fn new(config: HotCConfig) -> Self {
        HotC {
            pool: RuntimePool::new(config.key_policy),
            name: config.policy.name(),
            controller: Mutex::labeled(AdaptiveController::new(config.policy), "hotc/controller"),
            limits: config.limits,
            background_nanos: AtomicU64::new(0),
            forced_evictions: AtomicU64::new(0),
        }
    }

    /// The paper's deployed configuration: exact keys, 500-container /
    /// 80 %-memory limits, α = 0.8 adaptive control at 30 s.
    pub fn with_defaults() -> Self {
        Self::new(HotCConfig::default())
    }

    /// AWS-style fixed keep-alive: each key keeps the peak demand of the
    /// last `ttl` (AWS Lambda: about 15 minutes).
    pub fn fixed_keepalive(ttl: SimDuration) -> Self {
        Self::new(HotCConfig::baseline(ScalingPolicy::KeepAlive(ttl)))
    }

    /// Azure-Logic-style periodic warm-up: every runtime is kept and pays a
    /// ping per `period`.
    pub fn periodic_warmup(period: SimDuration) -> Self {
        Self::new(HotCConfig::baseline(ScalingPolicy::KeepAll {
            ping: Some(period),
        }))
    }

    /// Azure-style hybrid keep-alive: each key's window is learned from its
    /// own gaps.
    pub fn hybrid_keepalive() -> Self {
        Self::new(HotCConfig::baseline(ScalingPolicy::Hybrid))
    }

    /// Pool inspection.
    pub fn pool(&self) -> &RuntimePool {
        &self.pool
    }

    fn add_background(&self, cost: SimDuration) {
        self.background_nanos
            .fetch_add(cost.as_nanos(), Ordering::Relaxed);
    }

    /// Evicts down to the limits, booking the teardown cost and the count.
    fn enforce_limits(&self, engine: &impl EngineRef, now: SimTime) -> Result<(), EngineError> {
        let (cost, evicted) = self.limits.enforce(&self.pool, engine, now)?;
        self.add_background(cost);
        self.forced_evictions
            .fetch_add(evicted as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Algorithm 1 under the limits: obtains a runtime for `config` (whose
    /// interned key is `key_id`), evicting down to the limits when that took
    /// a cold start. A warm hit takes no lock.
    pub(crate) fn acquire_on(
        &self,
        engine: &impl EngineRef,
        key_id: KeyId,
        config: &ContainerConfig,
        now: SimTime,
    ) -> Result<PoolAcquisition, EngineError> {
        let acq = self.pool.acquire_id(engine, key_id, config, now)?;
        if acq.cold {
            // A cold start may have pushed the pool over its limits.
            self.enforce_limits(engine, now)?;
        }
        Ok(acq)
    }

    /// Algorithm 2 for a container that is still executing: ends the
    /// execution and cleans (or, if `crashed`, disposes of) the container in
    /// one engine critical section, returning it to the pool of the key it
    /// was acquired under — whatever the function is registered as by now.
    pub(crate) fn finish_release_on(
        &self,
        engine: &impl EngineRef,
        container: ContainerId,
        now: SimTime,
        crashed: bool,
    ) -> Result<(), EngineError> {
        let cost = self
            .pool
            .try_finish_release(engine, container, now, crashed);
        self.add_background(cost?);
        Ok(())
    }

    /// Algorithm 2: cleans a container whose execution has ended and returns
    /// it to the pool (a crashed one is disposed of), booking the cost.
    pub(crate) fn release_on(
        &self,
        engine: &impl EngineRef,
        container: ContainerId,
        now: SimTime,
    ) -> Result<(), EngineError> {
        self.add_background(self.pool.release(engine, container, now)?);
        Ok(())
    }

    /// Periodic maintenance: one adaptive-controller step if its interval
    /// has elapsed (returning that step's report), then limit enforcement.
    pub(crate) fn tick_on(
        &self,
        engine: &impl EngineRef,
        now: SimTime,
    ) -> Result<Option<StepReport>, EngineError> {
        let report = self.controller.lock().maybe_step(&self.pool, engine, now)?;
        self.enforce_limits(engine, now)?;
        Ok(report)
    }
}

impl RuntimeProvider for HotC {
    fn acquire(
        &mut self,
        engine: &mut ContainerEngine,
        config: &ContainerConfig,
        now: SimTime,
    ) -> Result<Acquisition, EngineError> {
        self.acquire_keyed(engine, config, &mut None, now)
    }

    /// Interns `config` only when `key` is empty, then fills it: a gateway
    /// that keeps the slot per function fingerprints each configuration once.
    fn acquire_keyed(
        &mut self,
        engine: &mut ContainerEngine,
        config: &ContainerConfig,
        key: &mut Option<ProviderKey>,
        now: SimTime,
    ) -> Result<Acquisition, EngineError> {
        let key_id = match *key {
            Some(cached) => {
                let id = KeyId::from_index(cached.0);
                // Checked here, before `acquire_id` opens its request-path
                // scope: the lookup takes the interner lock, which a warm
                // hit inside that scope must not.
                debug_assert_eq!(
                    self.pool.id_for(config),
                    Some(id),
                    "cached key is not the configuration's"
                );
                id
            }
            None => {
                let id = self.pool.intern_config(config);
                *key = Some(id.into());
                id
            }
        };
        self.acquire_on(&ExclusiveEngine::new(engine), key_id, config, now)
            .map(Into::into)
    }

    fn release(
        &mut self,
        engine: &mut ContainerEngine,
        container: ContainerId,
        now: SimTime,
    ) -> Result<(), EngineError> {
        self.release_on(&ExclusiveEngine::new(engine), container, now)
    }

    fn tick(&mut self, engine: &mut ContainerEngine, now: SimTime) -> Result<(), EngineError> {
        self.tick_on(&ExclusiveEngine::new(engine), now).map(drop)
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn background_cost(&self) -> SimDuration {
        SimDuration::from_nanos(self.background_nanos.load(Ordering::Relaxed))
            + self.controller.lock().background_cost()
    }

    fn forced_evictions(&self) -> u64 {
        self.forced_evictions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use containersim::{HardwareProfile, LanguageRuntime};
    use faas::{AppProfile, Gateway};

    fn gateway() -> Gateway<HotC> {
        let engine = ContainerEngine::with_local_images(HardwareProfile::server());
        let mut gw = Gateway::new(engine, HotC::with_defaults());
        gw.register_app(AppProfile::qr_code(LanguageRuntime::Python));
        gw
    }

    #[test]
    fn first_cold_then_reuse() {
        let mut gw = gateway();
        let cold = gw.handle("qr-code", SimTime::ZERO).unwrap();
        let warm = gw.handle("qr-code", SimTime::from_secs(30)).unwrap();
        assert!(cold.cold && !warm.cold);
        // §V-B: the QR transform itself is ~60 ms; warm latency is close to
        // that while cold is dominated by runtime setup.
        assert!(warm.total().as_millis() < 80);
        assert!(cold.total().as_millis() > 500);
    }

    /// A redeployed function serves under its new configuration's key, not
    /// the one the gateway cached for it under the old configuration.
    #[test]
    fn no_reuse_across_configs() {
        let mut gw = gateway();
        let py = gw.handle("qr-code", SimTime::ZERO).unwrap();
        assert!(py.cold);
        // The second request runs on the key the first one cached.
        assert!(!gw.handle("qr-code", SimTime::from_secs(1)).unwrap().cold);
        let py_config = gw.function("qr-code").unwrap().config.clone();
        // Redeploy the same function in Go: different image ⇒ different
        // runtime type ⇒ the idle python container must not be reused.
        gw.register_app(AppProfile::qr_code(LanguageRuntime::Go));
        let go = gw.handle("qr-code", SimTime::from_secs(2)).unwrap();
        assert!(go.cold);
        let pool = gw.provider().pool();
        let py_key = pool.id_for(&py_config).unwrap();
        let go_key = pool
            .id_for(&gw.function("qr-code").unwrap().config)
            .unwrap();
        assert_ne!(py_key, go_key);
        // The go runtime was created under go's key and returned there; the
        // python runtime is still pooled, unused.
        assert_eq!(
            (pool.num_avail_id(go_key), pool.num_in_use_id(go_key)),
            (1, 0)
        );
        assert_eq!(
            (pool.num_avail_id(py_key), pool.num_in_use_id(py_key)),
            (1, 0)
        );
        assert_eq!(gw.engine().live_count(), 2);
        // And the function's next request is warm under go's key.
        assert!(!gw.handle("qr-code", SimTime::from_secs(3)).unwrap().cold);
        assert_eq!(gw.provider().pool().num_avail_id(py_key), 1);
    }

    #[test]
    fn limits_enforced_on_cold_burst() {
        let engine = ContainerEngine::with_local_images(HardwareProfile::server());
        let config = HotCConfig {
            limits: PoolLimits::new(5, 0.99),
            ..Default::default()
        };
        let mut gw = Gateway::new(engine, HotC::new(config));
        gw.register_app(AppProfile::random_number());
        // 12 overlapping requests: 12 cold containers created, capped to 5
        // once they are released back to the pool and tick runs.
        let inflights: Vec<_> = (0..12)
            .map(|_| gw.begin("random-number", SimTime::ZERO).unwrap())
            .collect();
        for f in inflights {
            gw.finish(f).unwrap();
        }
        gw.tick(SimTime::from_secs(60)).unwrap();
        assert!(gw.engine().live_count() <= 5);
    }

    #[test]
    fn adaptive_prewarm_avoids_cold_on_growth() {
        let mut gw = gateway();
        // Round r: r+1 parallel requests; tick after each round lets the
        // controller learn the ramp and pre-warm.
        let mut cold_late = 0;
        for r in 0..10u64 {
            let now = SimTime::from_secs(r * 30);
            let inflights: Vec<_> = (0..=r).map(|_| gw.begin("qr-code", now).unwrap()).collect();
            for f in inflights {
                let tr = gw.finish(f).unwrap();
                if r >= 5 && tr.cold {
                    cold_late += 1;
                }
            }
            gw.tick(now + SimDuration::from_secs(29)).unwrap();
        }
        // Later rounds mostly reuse pre-warmed runtimes; a lagging predictor
        // may still miss a couple at the margin.
        assert!(
            cold_late <= 8,
            "late-round cold starts should be rare, got {cold_late}"
        );
    }

    #[test]
    fn background_cost_accumulates() {
        let mut gw = gateway();
        gw.handle("qr-code", SimTime::ZERO).unwrap();
        gw.tick(SimTime::from_secs(30)).unwrap();
        assert!(gw.provider().background_cost() > SimDuration::ZERO);
        assert_eq!(gw.provider().name(), "hotc");
    }

    #[test]
    fn disabled_prediction_still_reuses() {
        let engine = ContainerEngine::with_local_images(HardwareProfile::server());
        let config = HotCConfig {
            policy: ScalingPolicy::KeepAll { ping: None },
            ..Default::default()
        };
        let mut gw = Gateway::new(engine, HotC::new(config));
        gw.register_app(AppProfile::random_number());
        let a = gw.handle("random-number", SimTime::ZERO).unwrap();
        gw.tick(SimTime::from_secs(30)).unwrap();
        let b = gw.handle("random-number", SimTime::from_secs(31)).unwrap();
        assert!(a.cold && !b.cold);
        // With prediction disabled the idle container is kept (no retire).
        assert_eq!(gw.engine().live_count(), 1);
    }

    /// A container the pool never handed out — here one created behind its
    /// back and still executing — is rejected by both release entry points
    /// before the engine is touched: the execution is not ended, nothing is
    /// cleaned, nothing is pooled or booked.
    #[test]
    fn releasing_a_container_the_pool_never_handed_out_leaves_the_engine_untouched() {
        let mut engine = ContainerEngine::with_local_images(HardwareProfile::server());
        let hotc = HotC::with_defaults();
        let app = AppProfile::random_number();
        let (stray, _) = engine
            .create_container(app.default_config(), SimTime::ZERO)
            .unwrap();
        engine
            .begin_exec(stray, app.work_for(true), SimTime::ZERO)
            .unwrap();
        let now = SimTime::from_secs(1);
        let e = ExclusiveEngine::new(&mut engine);
        for result in [
            hotc.finish_release_on(&e, stray, now, false),
            hotc.release_on(&e, stray, now),
        ] {
            assert!(matches!(result, Err(EngineError::InvalidState { id, .. }) if id == stray));
        }
        assert_eq!(engine.state(stray), containersim::ContainerState::Running);
        assert_eq!(hotc.pool().total_live(), 0);
        assert_eq!(hotc.background_cost(), SimDuration::ZERO);
    }

    #[test]
    fn pool_view_matches_engine_after_traffic() {
        let mut gw = gateway();
        for i in 0..20 {
            gw.handle("qr-code", SimTime::from_secs(i)).unwrap();
        }
        assert_eq!(gw.provider().pool().total_live(), gw.engine().live_count());
    }
}
