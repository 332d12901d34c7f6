//! Resource guardrails for the live pool (§IV-B "Container Runtime Pool").
//!
//! "In our current design, we set the maximum number of live containers to
//! 500 and the memory usage threshold as 80 % in the host. We used a
//! heuristic method to identify the memory pressure through monitoring
//! used_mem and used_swap in the kernel. If there exist too many containers
//! or fewer resources, the oldest live container is forcibly terminated."

use crate::pool::RuntimePool;
use containersim::{ContainerEngine, EngineError};
use simclock::{SimDuration, SimTime};

/// Pool resource limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolLimits {
    /// Maximum live containers in the pool (paper: 500).
    pub max_live: usize,
    /// Host memory-pressure threshold in `[0, 1]` over
    /// `(used_mem + used_swap) / physical` (paper: 0.8).
    pub mem_threshold: f64,
}

impl Default for PoolLimits {
    fn default() -> Self {
        PoolLimits {
            max_live: 500,
            mem_threshold: 0.8,
        }
    }
}

impl PoolLimits {
    /// Creates explicit limits.
    pub fn new(max_live: usize, mem_threshold: f64) -> Self {
        assert!(max_live >= 1, "pool must allow at least one container");
        assert!(
            (0.0..=1.5).contains(&mem_threshold),
            "threshold must be a sane fraction"
        );
        PoolLimits {
            max_live,
            mem_threshold,
        }
    }

    /// Whether the pool/host currently violates a limit.
    pub(crate) fn violated(&self, pool: &RuntimePool, engine: &ContainerEngine) -> bool {
        pool.total_live() > self.max_live || engine.host().memory_pressure() > self.mem_threshold
    }

    /// Oldest-first eviction until limits hold (or no available container
    /// remains to evict — in-flight containers are never killed). Each round
    /// walks the pool's age index ([`RuntimePool::evict_oldest`]), so a cold
    /// start under the cap pays O(in-flight) for its eviction, not a scan of
    /// the pool.
    /// Returns the accumulated teardown cost and the number evicted, which
    /// telemetry counts separately from controller-driven retires.
    pub fn enforce(
        &self,
        pool: &mut RuntimePool,
        engine: &mut ContainerEngine,
        now: SimTime,
    ) -> Result<(SimDuration, usize), EngineError> {
        let mut cost = SimDuration::ZERO;
        let mut evicted = 0;
        while self.violated(pool, engine) {
            match pool.evict_oldest(engine, now)? {
                Some(c) => {
                    cost += c;
                    evicted += 1;
                }
                None => break,
            }
        }
        Ok((cost, evicted))
    }
}

impl stdshim::ToJson for PoolLimits {
    fn to_json(&self) -> stdshim::JsonValue {
        stdshim::JsonValue::object([
            ("max_live", stdshim::ToJson::to_json(&self.max_live)),
            (
                "mem_threshold",
                stdshim::ToJson::to_json(&self.mem_threshold),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyPolicy;
    use containersim::{ContainerConfig, HardwareProfile, ImageId};

    fn setup() -> (ContainerEngine, RuntimePool) {
        (
            ContainerEngine::with_local_images(HardwareProfile::server()),
            RuntimePool::new(KeyPolicy::Exact),
        )
    }

    fn cfg() -> ContainerConfig {
        ContainerConfig::bridge(ImageId::parse("alpine:3.12"))
    }

    fn enforce(limits: &PoolLimits, pool: &mut RuntimePool, e: &mut ContainerEngine, secs: u64) {
        let (cost, evicted) = limits.enforce(pool, e, SimTime::from_secs(secs)).unwrap();
        assert_eq!(cost.is_zero(), evicted == 0);
    }

    #[test]
    fn default_limits_match_paper() {
        let limits = PoolLimits::default();
        assert_eq!(limits.max_live, 500);
        assert!((limits.mem_threshold - 0.8).abs() < 1e-12);
    }

    #[test]
    fn enforce_trims_to_max_live() {
        let (mut e, mut pool) = setup();
        let limits = PoolLimits::new(3, 0.99);
        for i in 0..6 {
            pool.prewarm(&mut e, &cfg(), SimTime::from_secs(i)).unwrap();
        }
        assert!(limits.violated(&pool, &e));
        enforce(&limits, &mut pool, &mut e, 10);
        assert_eq!(pool.total_live(), 3);
        assert!(!limits.violated(&pool, &e));
        // The newest three survive (oldest evicted first).
        let survivors = e.live_ids_oldest_first();
        assert_eq!(survivors.len(), 3,);
        assert!(e.created_at(survivors[0]).unwrap() >= SimTime::from_secs(3));
    }

    #[test]
    fn enforce_stops_when_only_busy_remain() {
        let (mut e, mut pool) = setup();
        let limits = PoolLimits::new(1, 0.99);
        // Two busy containers (never released): cannot be evicted.
        pool.acquire(&mut e, &cfg(), SimTime::ZERO).unwrap();
        pool.acquire(&mut e, &cfg(), SimTime::ZERO).unwrap();
        assert!(limits.violated(&pool, &e));
        enforce(&limits, &mut pool, &mut e, 1);
        // Still violated, but enforce terminated rather than spinning.
        assert_eq!(pool.total_live(), 2);
    }

    #[test]
    fn memory_pressure_triggers_eviction() {
        // A tiny edge host: Pi with 1 GB. JVM containers at ~49 MB idle each.
        let mut e = ContainerEngine::with_local_images(HardwareProfile::raspberry_pi3());
        let mut pool = RuntimePool::new(KeyPolicy::Exact);
        let jvm = ContainerConfig::bridge(ImageId::parse("openjdk:8-jre"));
        let limits = PoolLimits::new(500, 0.5);
        for i in 0..12 {
            pool.prewarm(&mut e, &jvm, SimTime::from_secs(i)).unwrap();
        }
        assert!(e.host().memory_pressure() > 0.5);
        enforce(&limits, &mut pool, &mut e, 20);
        assert!(e.host().memory_pressure() <= 0.5);
        assert!(pool.total_live() < 12);
    }

    #[test]
    #[should_panic(expected = "at least one container")]
    fn zero_max_rejected() {
        let _ = PoolLimits::new(0, 0.8);
    }
}
