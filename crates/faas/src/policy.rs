//! Baseline runtime-management policies (§III-B industry practices).
//!
//! * [`ColdStartAlways`] — the unmanaged default: every request boots a new
//!   container, torn down after the response.
//! * [`FixedKeepAlive`] — the AWS-Lambda-style policy: after a request, the
//!   container is kept warm for a fixed TTL (15 minutes in AWS) and reused
//!   for identical configurations; expired containers are reclaimed on tick.
//! * [`PeriodicWarmup`] — the Azure-Logic-style policy: containers are kept
//!   alive indefinitely by periodic warm-up pings, which cost background
//!   work; never expires, wastes resources on idle runtimes.
//!
//! All policies implement [`RuntimeProvider`], so the gateway and the
//! experiment drivers treat them interchangeably with HotC. The keep-alive
//! ones (these two and [`crate::HybridKeepAlive`]) keep their idle
//! containers on one private `WarmShelf`.

use crate::{Acquisition, RuntimeProvider};
use containersim::{ContainerConfig, ContainerEngine, ContainerId, EngineError};
use simclock::{SimDuration, SimTime};
use std::collections::HashMap;

/// Boot a fresh container per request; remove it afterwards.
#[derive(Debug, Default)]
pub struct ColdStartAlways {
    background: SimDuration,
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
        let (container, cost) = engine.create_container(config.clone(), now)?;
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

/// A warm container waiting for reuse.
#[derive(Debug, Clone, Copy)]
struct WarmEntry {
    container: ContainerId,
    idle_since: SimTime,
}

/// The warm shelf the three keep-alive baselines share: idle containers by
/// exact configuration, reused most-recent-first. What differs between the
/// baselines — TTL choice, ping accounting, gap history — stays with them.
#[derive(Debug, Default)]
pub(crate) struct WarmShelf {
    warm: HashMap<ContainerConfig, Vec<WarmEntry>>,
}

impl WarmShelf {
    /// Takes the most recently shelved container of `config`, if any.
    pub(crate) fn take(&mut self, config: &ContainerConfig) -> Option<ContainerId> {
        self.warm.get_mut(config)?.pop().map(|e| e.container)
    }

    /// Takes a used container back, off the request path: a crashed one
    /// cannot be kept warm and is disposed of; any other is cleaned and
    /// shelved under its configuration. Returns the cost, and the
    /// configuration when the container was shelved.
    pub(crate) fn shelve<'e>(
        &mut self,
        engine: &'e mut ContainerEngine,
        container: ContainerId,
        now: SimTime,
    ) -> Result<(SimDuration, Option<&'e ContainerConfig>), EngineError> {
        if engine.state(container) == containersim::ContainerState::Stopped {
            return Ok((engine.stop_and_remove(container, now)?, None));
        }
        let cost = engine.cleanup(container, now)?;
        // `cleanup` succeeded, so the container is live and configured.
        let config = engine
            .config(container)
            .ok_or(EngineError::UnknownContainer(container))?;
        self.warm
            .entry(config.clone())
            .or_default()
            .push(WarmEntry {
                container,
                idle_since: now,
            });
        Ok((cost, Some(config)))
    }

    /// Disposes of every shelved container that has idled past its
    /// configuration's TTL. Returns the teardown cost.
    pub(crate) fn expire(
        &mut self,
        engine: &mut ContainerEngine,
        now: SimTime,
        mut ttl_of: impl FnMut(&ContainerConfig) -> SimDuration,
    ) -> Result<SimDuration, EngineError> {
        let mut expired: Vec<ContainerId> = Vec::new();
        for (config, entries) in self.warm.iter_mut() {
            let ttl = ttl_of(config);
            entries.retain(|e| {
                if now.duration_since(e.idle_since) > ttl {
                    expired.push(e.container);
                    false
                } else {
                    true
                }
            });
        }
        self.warm.retain(|_, v| !v.is_empty());
        let mut cost = SimDuration::ZERO;
        for id in expired {
            cost += engine.stop_and_remove(id, now)?;
        }
        Ok(cost)
    }

    /// Number of shelved containers (across all configurations).
    pub(crate) fn len(&self) -> usize {
        self.warm.values().map(Vec::len).sum()
    }
}

/// Keep containers warm for a fixed TTL after use (AWS-style).
#[derive(Debug)]
pub struct FixedKeepAlive {
    ttl: SimDuration,
    shelf: WarmShelf,
    background: SimDuration,
}

impl FixedKeepAlive {
    /// Creates the policy with the given keep-alive TTL.
    pub fn new(ttl: SimDuration) -> Self {
        FixedKeepAlive {
            ttl,
            shelf: WarmShelf::default(),
            background: SimDuration::ZERO,
        }
    }

    /// AWS Lambda's publicized default: roughly 15 minutes.
    pub fn aws_default() -> Self {
        Self::new(SimDuration::from_mins(15))
    }

    /// Number of currently warm containers (across all configs).
    pub fn warm_count(&self) -> usize {
        self.shelf.len()
    }
}

impl RuntimeProvider for FixedKeepAlive {
    fn acquire(
        &mut self,
        engine: &mut ContainerEngine,
        config: &ContainerConfig,
        now: SimTime,
    ) -> Result<Acquisition, EngineError> {
        // Expire-then-reuse so a stale container never serves a request.
        self.tick(engine, now)?;
        if let Some(container) = self.shelf.take(config) {
            return Ok(Acquisition::warm(container));
        }
        let (container, cost) = engine.create_container(config.clone(), now)?;
        Ok(Acquisition::cold(container, cost))
    }

    fn release(
        &mut self,
        engine: &mut ContainerEngine,
        container: ContainerId,
        now: SimTime,
    ) -> Result<(), EngineError> {
        self.background += self.shelf.shelve(engine, container, now)?.0;
        Ok(())
    }

    fn tick(&mut self, engine: &mut ContainerEngine, now: SimTime) -> Result<(), EngineError> {
        let ttl = self.ttl;
        self.background += self.shelf.expire(engine, now, |_| ttl)?;
        Ok(())
    }

    fn name(&self) -> &'static str {
        "fixed-keepalive"
    }

    fn background_cost(&self) -> SimDuration {
        self.background
    }
}

/// Keep every container alive forever via periodic warm-up pings
/// (Azure-Logic-style). Never cold-starts a config twice, but pays a ping
/// per warm container per period and never reclaims resources.
#[derive(Debug)]
pub struct PeriodicWarmup {
    period: SimDuration,
    ping_cost: SimDuration,
    shelf: WarmShelf,
    last_warmup: SimTime,
    background: SimDuration,
}

impl PeriodicWarmup {
    /// Creates the policy; `period` is the warm-up ping interval.
    pub fn new(period: SimDuration) -> Self {
        PeriodicWarmup {
            period,
            ping_cost: SimDuration::from_millis(5),
            shelf: WarmShelf::default(),
            last_warmup: SimTime::ZERO,
            background: SimDuration::ZERO,
        }
    }

    /// Number of currently warm containers.
    pub fn warm_count(&self) -> usize {
        self.shelf.len()
    }
}

impl RuntimeProvider for PeriodicWarmup {
    fn acquire(
        &mut self,
        engine: &mut ContainerEngine,
        config: &ContainerConfig,
        now: SimTime,
    ) -> Result<Acquisition, EngineError> {
        self.tick(engine, now)?;
        if let Some(container) = self.shelf.take(config) {
            return Ok(Acquisition::warm(container));
        }
        let (container, cost) = engine.create_container(config.clone(), now)?;
        Ok(Acquisition::cold(container, cost))
    }

    fn release(
        &mut self,
        engine: &mut ContainerEngine,
        container: ContainerId,
        now: SimTime,
    ) -> Result<(), EngineError> {
        self.background += self.shelf.shelve(engine, container, now)?.0;
        Ok(())
    }

    fn tick(&mut self, _engine: &mut ContainerEngine, now: SimTime) -> Result<(), EngineError> {
        // Charge one ping per warm container per elapsed period.
        let elapsed = now.duration_since(self.last_warmup);
        let periods = elapsed.div_duration(self.period);
        if periods > 0 {
            let pings = periods * self.warm_count() as u64;
            self.background += self.ping_cost * pings;
            self.last_warmup += self.period * periods;
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "periodic-warmup"
    }

    fn background_cost(&self) -> SimDuration {
        self.background
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use containersim::{ContainerState, HardwareProfile, ImageId};

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

    #[test]
    fn keepalive_reuses_within_ttl() {
        let mut e = engine();
        let mut p = FixedKeepAlive::new(SimDuration::from_mins(15));
        let a1 = exec_once(&mut e, &mut p, SimTime::from_secs(0));
        assert!(a1.cold);
        assert_eq!(p.warm_count(), 1);
        let a2 = exec_once(&mut e, &mut p, SimTime::from_secs(60));
        assert!(!a2.cold, "should reuse the warm container");
        assert_eq!(a2.container, a1.container);
        assert!(a2.cost.is_zero());
    }

    #[test]
    fn keepalive_expires_after_ttl() {
        let mut e = engine();
        let mut p = FixedKeepAlive::new(SimDuration::from_mins(15));
        let a1 = exec_once(&mut e, &mut p, SimTime::from_secs(0));
        // 30 minutes later (the Fig. 1 idle gap): expired, cold again.
        let later = SimTime::from_secs(30 * 60);
        let a2 = exec_once(&mut e, &mut p, later);
        assert!(a2.cold);
        assert_ne!(a2.container, a1.container);
        // The expired container was actually removed from the engine.
        assert_eq!(e.state(a1.container), ContainerState::Removed);
    }

    #[test]
    fn keepalive_no_cross_config_reuse() {
        let mut e = engine();
        let mut p = FixedKeepAlive::aws_default();
        let a1 = p.acquire(&mut e, &cfg(), SimTime::ZERO).unwrap();
        let work = containersim::engine::ExecWork::light(SimDuration::from_millis(5));
        let out = e.begin_exec(a1.container, work, SimTime::ZERO).unwrap();
        e.end_exec(a1.container, SimTime::ZERO + out.latency)
            .unwrap();
        p.release(&mut e, a1.container, SimTime::ZERO + out.latency)
            .unwrap();

        // Different image ⇒ different config ⇒ no reuse.
        let other = ContainerConfig::bridge(ImageId::parse("golang:1.13"));
        let a2 = p.acquire(&mut e, &other, SimTime::from_secs(1)).unwrap();
        assert!(a2.cold);
        assert_eq!(p.warm_count(), 1, "python container still warm");
    }

    #[test]
    fn periodic_warmup_never_expires_but_pays_pings() {
        let mut e = engine();
        let mut p = PeriodicWarmup::new(SimDuration::from_mins(5));
        let a1 = exec_once(&mut e, &mut p, SimTime::from_secs(0));
        assert!(a1.cold);
        let bg_before = p.background_cost();
        // Two hours later: still warm (no expiry), but pings accumulated.
        let a2 = exec_once(&mut e, &mut p, SimTime::from_secs(7200));
        assert!(!a2.cold);
        assert!(p.background_cost() > bg_before, "pings must be charged");
    }

    #[test]
    fn keepalive_pools_parallel_containers() {
        let mut e = engine();
        let mut p = FixedKeepAlive::aws_default();
        // Two overlapping requests ⇒ two cold containers.
        let a1 = p.acquire(&mut e, &cfg(), SimTime::ZERO).unwrap();
        let a2 = p.acquire(&mut e, &cfg(), SimTime::ZERO).unwrap();
        assert!(a1.cold && a2.cold);
        assert_ne!(a1.container, a2.container);
        let work = containersim::engine::ExecWork::light(SimDuration::from_millis(5));
        for id in [a1.container, a2.container] {
            let out = e.begin_exec(id, work, SimTime::ZERO).unwrap();
            e.end_exec(id, SimTime::ZERO + out.latency).unwrap();
            p.release(&mut e, id, SimTime::from_secs(1)).unwrap();
        }
        assert_eq!(p.warm_count(), 2);
        // Both become reusable.
        let b1 = p.acquire(&mut e, &cfg(), SimTime::from_secs(2)).unwrap();
        let b2 = p.acquire(&mut e, &cfg(), SimTime::from_secs(2)).unwrap();
        assert!(!b1.cold && !b2.cold);
    }
}
