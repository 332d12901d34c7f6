//! The unmanaged baseline: [`ColdStartAlways`] boots a new container for
//! every request and tears it down after the response.
//!
//! It implements [`RuntimeProvider`], so the gateway and the experiment
//! drivers treat it interchangeably with HotC. The §III-B keep-alive
//! practices (a fixed TTL, periodic warm-up, per-type hybrid windows) reuse
//! runtimes, so they are scaling policies of HotC's pool — `hotc::HotC`'s
//! `fixed_keepalive`, `periodic_warmup` and `hybrid_keepalive` — not
//! providers of their own.

use crate::{Acquisition, ProviderKey, RuntimeProvider};
use containersim::{ContainerConfig, ContainerEngine, ContainerId, EngineError};
use simclock::{SimDuration, SimTime};
use std::collections::HashMap;
use std::sync::Arc;

/// Boot a fresh container per request; remove it afterwards.
#[derive(Debug, Default)]
pub struct ColdStartAlways {
    background: SimDuration,
    /// Every distinct configuration served so far, indexed by
    /// [`ProviderKey`] and handed to the engine shared, so a cold start
    /// copies no configuration.
    configs: Vec<Arc<ContainerConfig>>,
    /// Each configuration's index in `configs`, read only to fill an empty
    /// key slot.
    keys: HashMap<Arc<ContainerConfig>, u32>,
}

impl ColdStartAlways {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// The index of `config`'s shared copy, added on first sight.
    fn intern(&mut self, config: &ContainerConfig) -> u32 {
        if let Some(&index) = self.keys.get(config) {
            return index;
        }
        let shared = Arc::new(config.clone());
        let index = self.configs.len() as u32;
        self.configs.push(Arc::clone(&shared));
        self.keys.insert(shared, index);
        index
    }
}

impl RuntimeProvider for ColdStartAlways {
    fn acquire(
        &mut self,
        engine: &mut ContainerEngine,
        config: &ContainerConfig,
        now: SimTime,
    ) -> Result<Acquisition, EngineError> {
        self.acquire_keyed(engine, config, &mut None, now)
    }

    /// Hashes `config` only when `key` is empty, then fills it with the
    /// index of its shared copy: a gateway that keeps the slot per function
    /// resolves each configuration once.
    fn acquire_keyed(
        &mut self,
        engine: &mut ContainerEngine,
        config: &ContainerConfig,
        key: &mut Option<ProviderKey>,
        now: SimTime,
    ) -> Result<Acquisition, EngineError> {
        let ProviderKey(index) = *key.get_or_insert_with(|| ProviderKey(self.intern(config)));
        let shared = Arc::clone(&self.configs[index as usize]);
        let (container, cost) = engine.create_container(shared, now)?;
        Ok(Acquisition::cold(container, cost))
    }

    fn release(
        &mut self,
        engine: &mut ContainerEngine,
        container: ContainerId,
        now: SimTime,
    ) -> Result<(), EngineError> {
        self.background += engine.stop_and_remove(container, now)?;
        Ok(())
    }

    fn tick(&mut self, _engine: &mut ContainerEngine, _now: SimTime) -> Result<(), EngineError> {
        Ok(())
    }

    fn name(&self) -> &'static str {
        "cold-start"
    }

    fn background_cost(&self) -> SimDuration {
        self.background
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use containersim::{HardwareProfile, ImageId};

    fn engine() -> ContainerEngine {
        ContainerEngine::with_local_images(HardwareProfile::server())
    }

    fn cfg() -> ContainerConfig {
        ContainerConfig::bridge(ImageId::parse("python:3.8-alpine"))
    }

    fn exec_once(
        engine: &mut ContainerEngine,
        provider: &mut dyn RuntimeProvider,
        now: SimTime,
    ) -> Acquisition {
        let acq = provider.acquire(engine, &cfg(), now).unwrap();
        let work = containersim::engine::ExecWork::light(SimDuration::from_millis(50));
        let out = engine.begin_exec(acq.container, work, now).unwrap();
        engine.end_exec(acq.container, now + out.latency).unwrap();
        provider
            .release(engine, acq.container, now + out.latency)
            .unwrap();
        acq
    }

    #[test]
    fn cold_start_always_never_reuses() {
        let mut e = engine();
        let mut p = ColdStartAlways::new();
        let a1 = exec_once(&mut e, &mut p, SimTime::from_secs(0));
        let a2 = exec_once(&mut e, &mut p, SimTime::from_secs(10));
        assert!(a1.cold && a2.cold);
        assert_ne!(a1.container, a2.container);
        assert_eq!(e.live_count(), 0, "containers removed after use");
        assert!(p.background_cost() > SimDuration::ZERO);
    }
}
