//! The unmanaged baseline: [`ColdStartAlways`] boots a new container for
//! every request and tears it down after the response.
//!
//! It implements [`RuntimeProvider`], so the gateway and the experiment
//! drivers treat it interchangeably with HotC. The §III-B keep-alive
//! practices (a fixed TTL, periodic warm-up, per-type hybrid windows) reuse
//! runtimes, so they are scaling policies of HotC's pool — `hotc::HotC`'s
//! `fixed_keepalive`, `periodic_warmup` and `hybrid_keepalive` — not
//! providers of their own.

use crate::{Acquisition, RuntimeProvider};
use containersim::{ContainerConfig, ContainerEngine, ContainerId, EngineError};
use simclock::{SimDuration, SimTime};
use std::collections::HashSet;
use std::sync::Arc;

/// Boot a fresh container per request; remove it afterwards.
#[derive(Debug, Default)]
pub struct ColdStartAlways {
    background: SimDuration,
    /// Every configuration served so far, handed to the engine shared, so
    /// a cold start copies no configuration. One entry per function.
    configs: HashSet<Arc<ContainerConfig>>,
}

impl ColdStartAlways {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RuntimeProvider for ColdStartAlways {
    fn acquire(
        &mut self,
        engine: &mut ContainerEngine,
        config: &ContainerConfig,
        now: SimTime,
    ) -> Result<Acquisition, EngineError> {
        let shared = match self.configs.get(config) {
            Some(shared) => Arc::clone(shared),
            None => {
                let shared = Arc::new(config.clone());
                self.configs.insert(Arc::clone(&shared));
                shared
            }
        };
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
