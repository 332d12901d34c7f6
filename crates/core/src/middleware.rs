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
//! step then enforce — is written here only, as its
//! [`faas::RuntimeProvider`] implementation: the gateway owns the engine
//! and the provider and hands both to each call as `&mut`, so the pool, the
//! controller and the tallies are plain fields.
//!
//! The §III-B keep-alive baselines are `HotC` too, with another
//! [`ScalingPolicy`] and no limits ([`HotC::fixed_keepalive`],
//! [`HotC::periodic_warmup`], [`HotC::hybrid_keepalive`]), so the gateway
//! and the cluster run them unchanged.

use crate::controller::{AdaptiveController, ScalingPolicy};
use crate::key::{KeyId, KeyPolicy};
use crate::limits::PoolLimits;
use crate::pool::RuntimePool;
use containersim::{ContainerConfig, ContainerEngine, ContainerId, EngineError};
use faas::{Acquisition, ProviderKey, RuntimeProvider};
use simclock::{SimDuration, SimTime};

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
    controller: AdaptiveController,
    limits: PoolLimits,
    name: &'static str,
    /// Cumulative cleanup and eviction cost.
    background: SimDuration,
    forced_evictions: u64,
}

impl HotC {
    /// Builds HotC from a configuration.
    pub fn new(config: HotCConfig) -> Self {
        HotC {
            pool: RuntimePool::new(config.key_policy),
            name: config.policy.name(),
            controller: AdaptiveController::new(config.policy),
            limits: config.limits,
            background: SimDuration::ZERO,
            forced_evictions: 0,
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

    /// The pool, for a caller that interns into it (the cluster's
    /// per-node key translations).
    pub fn pool_mut(&mut self) -> &mut RuntimePool {
        &mut self.pool
    }

    /// Evicts down to the limits, booking the teardown cost and the count.
    fn enforce_limits(
        &mut self,
        engine: &mut ContainerEngine,
        now: SimTime,
    ) -> Result<(), EngineError> {
        let (cost, evicted) = self.limits.enforce(&mut self.pool, engine, now)?;
        self.background += cost;
        self.forced_evictions += evicted as u64;
        Ok(())
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

    /// Algorithm 1 under the limits: interns `config` only when `key` is
    /// empty, then fills it — a gateway that keeps the slot per function
    /// fingerprints each configuration once — and evicts down to the limits
    /// when the acquire took a cold start.
    fn acquire_keyed(
        &mut self,
        engine: &mut ContainerEngine,
        config: &ContainerConfig,
        key: &mut Option<ProviderKey>,
        now: SimTime,
    ) -> Result<Acquisition, EngineError> {
        let key_id = match *key {
            Some(cached) => KeyId::from_index(cached.0),
            None => {
                let id = self.pool.intern_config(config);
                *key = Some(id.into());
                id
            }
        };
        let acq = self.pool.acquire_id(engine, key_id, config, now)?;
        if acq.cold {
            // A cold start may have pushed the pool over its limits.
            self.enforce_limits(engine, now)?;
        }
        Ok(acq)
    }

    /// Algorithm 2: cleans a container whose execution has ended and returns
    /// it to the pool of the key it was acquired under (a crashed one is
    /// disposed of), booking the cost.
    fn release(
        &mut self,
        engine: &mut ContainerEngine,
        container: ContainerId,
        now: SimTime,
    ) -> Result<(), EngineError> {
        self.background += self.pool.release(engine, container, now)?;
        Ok(())
    }

    /// Periodic maintenance: one adaptive-controller step if its interval
    /// has elapsed, then limit enforcement.
    fn tick(&mut self, engine: &mut ContainerEngine, now: SimTime) -> Result<(), EngineError> {
        self.controller.maybe_step(&mut self.pool, engine, now)?;
        self.enforce_limits(engine, now)
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn background_cost(&self) -> SimDuration {
        self.background + self.controller.background_cost()
    }

    fn forced_evictions(&self) -> u64 {
        self.forced_evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use containersim::{HardwareProfile, LanguageRuntime};
    use faas::{AppProfile, FunctionSpec, Gateway};

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

    /// Regression: limit enforcement on the cold path went uncounted, so
    /// only tick-time evictions were tallied. Serial traffic over four
    /// runtime types under a two-container cap evicts on every cold start
    /// past the second, and each is counted.
    #[test]
    fn cold_path_evictions_are_counted() {
        let engine = ContainerEngine::with_local_images(HardwareProfile::server());
        let config = HotCConfig {
            limits: PoolLimits::new(2, 0.99),
            ..Default::default()
        };
        let mut gw = Gateway::new(engine, HotC::new(config));
        let langs = [
            LanguageRuntime::Python,
            LanguageRuntime::Go,
            LanguageRuntime::NodeJs,
            LanguageRuntime::Java,
        ];
        let names = langs.map(|lang| {
            let spec = FunctionSpec::from_app(AppProfile::qr_code(lang));
            let spec = spec.named(format!("qr-{lang:?}"));
            let name = spec.name.clone();
            gw.register(spec);
            name
        });
        let mut now = SimTime::ZERO;
        for i in 0..12 {
            let trace = gw.handle(&names[i % 4], now).unwrap();
            now = trace.t6_gateway_out;
        }
        assert_eq!(gw.provider().forced_evictions(), 10);
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
    /// back and still executing — is rejected before the engine is touched:
    /// the execution is not ended, nothing is cleaned, nothing is pooled or
    /// booked.
    #[test]
    fn releasing_a_container_the_pool_never_handed_out_leaves_the_engine_untouched() {
        let mut engine = ContainerEngine::with_local_images(HardwareProfile::server());
        let mut hotc = HotC::with_defaults();
        let app = AppProfile::random_number();
        let (stray, _) = engine
            .create_container(app.default_config(), SimTime::ZERO)
            .unwrap();
        engine
            .begin_exec(stray, app.work_for(true), SimTime::ZERO)
            .unwrap();
        let result = hotc.release(&mut engine, stray, SimTime::from_secs(1));
        assert!(matches!(result, Err(EngineError::InvalidState { id, .. }) if id == stray));
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
