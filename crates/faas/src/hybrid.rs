//! Hybrid per-type keep-alive (the Azure practice reviewed in §III-B).
//!
//! "Researchers in Microsoft Azure \[27\] recently proposed using different
//! keep-alive values for workloads according to their actual invocation
//! frequency and patterns." [`HybridKeepAlive`] implements that idea: for
//! each runtime configuration it records the *idle gaps* between uses and
//! sets that type's keep-alive TTL to a high percentile of its observed gap
//! distribution (clamped to sane bounds). Frequently-invoked types get short
//! windows (little idle waste); rarely-invoked types get windows long enough
//! to still catch their next invocation.
//!
//! This is the strongest non-HotC baseline: unlike [`crate::FixedKeepAlive`]
//! it adapts per type, but unlike HotC it never *pre-warms* and sizes purely
//! from idle-gap history rather than concurrent demand.

use crate::policy::WarmShelf;
use crate::{Acquisition, RuntimeProvider};
use containersim::{ContainerConfig, ContainerEngine, ContainerId, EngineError};
use simclock::{SimDuration, SimTime};
use std::collections::{HashMap, VecDeque};

/// Percentile of a type's idle-gap distribution to provision for.
const PERCENTILE: f64 = 0.99;
/// Safety margin multiplied onto the percentile gap.
const MARGIN: f64 = 1.1;
/// TTL used until a type has enough gap samples.
const DEFAULT_TTL: SimDuration = SimDuration::from_mins(10);
/// Samples needed before trusting the learned distribution.
const MIN_SAMPLES: usize = 3;
/// Lower clamp on learned TTLs.
const MIN_TTL: SimDuration = SimDuration::from_secs(15);
/// Upper clamp on learned TTLs.
const MAX_TTL: SimDuration = SimDuration::from_mins(120);

#[derive(Debug, Default)]
struct TypeHistory {
    /// Observed idle gaps, oldest first (bounded ring: push at the back,
    /// evict at the front in O(1) instead of `Vec::remove(0)`'s O(n) shift).
    gaps: VecDeque<SimDuration>,
    /// The same gaps kept sorted, adjusted incrementally on each insert so
    /// `learned_ttl` — called per warm entry on every tick — never has to
    /// clone and re-sort the window.
    sorted: Vec<SimDuration>,
    /// When this type last went fully idle (release with no reuse since).
    idle_since: Option<SimTime>,
}

const GAP_WINDOW: usize = 256;

impl TypeHistory {
    fn record_gap(&mut self, gap: SimDuration) {
        if self.gaps.len() == GAP_WINDOW {
            if let Some(out) = self.gaps.pop_front() {
                // Every gap pushed into the window was also inserted into
                // the sorted view, so the evicted one is present.
                if let Ok(at) = self.sorted.binary_search(&out) {
                    self.sorted.remove(at);
                }
            }
        }
        self.gaps.push_back(gap);
        let at = self.sorted.binary_search(&gap).unwrap_or_else(|i| i);
        self.sorted.insert(at, gap);
    }

    fn learned_ttl(&self) -> SimDuration {
        if self.sorted.len() < MIN_SAMPLES {
            return DEFAULT_TTL;
        }
        let rank =
            ((PERCENTILE * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        self.sorted[rank - 1]
            .mul_f64(MARGIN)
            .max(MIN_TTL)
            .min(MAX_TTL)
    }
}

/// Per-type adaptive keep-alive provider.
///
/// ```
/// use containersim::{ContainerEngine, HardwareProfile};
/// use faas::{AppProfile, Gateway, HybridKeepAlive};
/// use simclock::{SimDuration, SimTime};
///
/// let engine = ContainerEngine::with_local_images(HardwareProfile::server());
/// let mut gateway = Gateway::new(engine, HybridKeepAlive::new());
/// gateway.register_app(AppProfile::random_number());
///
/// // Invoke on a steady 30 s cadence; the per-type TTL shrinks toward it.
/// let mut now = SimTime::ZERO;
/// for _ in 0..8 {
///     let trace = gateway.handle("random-number", now).unwrap();
///     now = trace.t4_func_end + SimDuration::from_secs(30);
/// }
/// // Two idle minutes later the container is gone: ten minutes was only the
/// // default until the type had a history.
/// gateway.tick(now + SimDuration::from_mins(2)).unwrap();
/// assert_eq!(gateway.provider().warm_count(), 0);
/// ```
#[derive(Debug, Default)]
pub struct HybridKeepAlive {
    shelf: WarmShelf,
    history: HashMap<ContainerConfig, TypeHistory>,
    background: SimDuration,
}

impl HybridKeepAlive {
    /// Creates the provider (99th-percentile gap × 1.1, clamped to
    /// 15 s – 120 min; 10 min until a type has three gaps).
    pub fn new() -> Self {
        Self::default()
    }

    /// The TTL currently in force for a configuration (learned or default).
    #[cfg(test)]
    fn ttl_for(&self, config: &ContainerConfig) -> SimDuration {
        self.history
            .get(config)
            .map_or(DEFAULT_TTL, TypeHistory::learned_ttl)
    }

    /// Number of currently warm containers.
    pub fn warm_count(&self) -> usize {
        self.shelf.len()
    }
}

impl RuntimeProvider for HybridKeepAlive {
    fn acquire(
        &mut self,
        engine: &mut ContainerEngine,
        config: &ContainerConfig,
        now: SimTime,
    ) -> Result<Acquisition, EngineError> {
        self.tick(engine, now)?;
        // Record the idle gap this invocation ends (hit or miss: the gap is
        // a property of the invocation pattern, not of the pool's luck).
        let history = self.history.entry(config.clone()).or_default();
        if let Some(idle_since) = history.idle_since.take() {
            history.record_gap(now.duration_since(idle_since));
        }
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
        let (cost, shelved) = self.shelf.shelve(engine, container, now)?;
        self.background += cost;
        if let Some(config) = shelved {
            self.history.entry(config.clone()).or_default().idle_since = Some(now);
        }
        Ok(())
    }

    fn tick(&mut self, engine: &mut ContainerEngine, now: SimTime) -> Result<(), EngineError> {
        let history = &self.history;
        self.background += self.shelf.expire(engine, now, |config| {
            history
                .get(config)
                .map_or(DEFAULT_TTL, TypeHistory::learned_ttl)
        })?;
        Ok(())
    }

    fn name(&self) -> &'static str {
        "hybrid-keepalive"
    }

    fn background_cost(&self) -> SimDuration {
        self.background
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AppProfile;
    use containersim::HardwareProfile;

    fn gateway() -> crate::Gateway<HybridKeepAlive> {
        let engine = ContainerEngine::with_local_images(HardwareProfile::server());
        let mut gw = crate::Gateway::new(engine, HybridKeepAlive::new());
        gw.register_app(AppProfile::random_number());
        gw
    }

    fn drive_gaps(gw: &mut crate::Gateway<HybridKeepAlive>, gaps_s: &[u64]) -> SimTime {
        let mut now = SimTime::ZERO;
        for &gap in gaps_s {
            let trace = gw.handle("random-number", now).expect("request");
            now = trace.t4_func_end + SimDuration::from_secs(gap);
        }
        now
    }

    #[test]
    fn learns_short_ttl_for_frequent_type() {
        let mut gw = gateway();
        // Invoked every ~20 s, 12 times.
        drive_gaps(&mut gw, &[20; 12]);
        let config = gw.function("random-number").unwrap().config.clone();
        let ttl = gw.provider().ttl_for(&config);
        // p99 of ≈20 s gaps × 1.1 margin ≈ 22 s — far below the 10 min default.
        assert!(ttl < SimDuration::from_secs(40), "ttl={ttl}");
        assert!(ttl >= SimDuration::from_secs(15), "clamped at min_ttl");
    }

    #[test]
    fn learns_long_ttl_for_rare_type() {
        let mut gw = gateway();
        // Invoked every ~30 min; drive_gaps leaves `now` one gap after the
        // last release.
        let now = drive_gaps(&mut gw, &[1800; 8]);
        let config = gw.function("random-number").unwrap().config.clone();
        let ttl = gw.provider().ttl_for(&config);
        assert!(ttl > SimDuration::from_mins(30), "ttl={ttl}");
        // With the learned long window, the rare type is still warm at its
        // usual cadence (a fixed 10–15 min window would have expired it).
        let trace = gw.handle("random-number", now).expect("request");
        assert!(!trace.cold);
    }

    #[test]
    fn default_ttl_until_enough_samples() {
        let gw = gateway();
        let config = gw.function("random-number").unwrap().config.clone();
        assert_eq!(gw.provider().ttl_for(&config), DEFAULT_TTL);
    }

    #[test]
    fn short_window_expires_frequent_type_after_anomalous_gap() {
        let mut gw = gateway();
        let end = drive_gaps(&mut gw, &[20; 12]);
        // An anomalous 5-minute silence: far beyond the ~22 s learned TTL.
        gw.tick(end + SimDuration::from_mins(5)).expect("tick");
        assert_eq!(gw.provider().warm_count(), 0, "short TTL reclaimed it");
    }

    /// The ring-buffer rewrite must keep the exact sliding-window semantics
    /// of the old `Vec::remove(0)` + clone-and-sort implementation: once the
    /// window wraps, the oldest gap leaves both views and `learned_ttl`
    /// equals a from-scratch sort of the surviving window.
    #[test]
    fn gap_window_matches_naive_resort_across_wraparound() {
        let mut history = TypeHistory::default();
        let mut naive: Vec<SimDuration> = Vec::new();
        // Deterministic pseudo-random gaps with plenty of duplicates.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for i in 0..(GAP_WINDOW * 2 + 17) {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let gap = SimDuration::from_millis(1 + state % 50);
            history.record_gap(gap);
            if naive.len() == GAP_WINDOW {
                naive.remove(0);
            }
            naive.push(gap);

            let mut resorted = naive.clone();
            resorted.sort_unstable();
            assert_eq!(history.sorted, resorted, "diverged at insert {i}");
            assert_eq!(
                history.gaps.iter().copied().collect::<Vec<_>>(),
                naive,
                "ring order diverged at insert {i}"
            );
            let naive_hist = TypeHistory {
                gaps: naive.iter().copied().collect(),
                sorted: resorted,
                idle_since: None,
            };
            assert_eq!(history.learned_ttl(), naive_hist.learned_ttl());
        }
        assert_eq!(history.gaps.len(), GAP_WINDOW);
        assert_eq!(history.sorted.len(), GAP_WINDOW);
    }

    #[test]
    fn ttl_clamped_to_max() {
        let mut gw = gateway();
        // Invoked every three hours: p99 × 1.1 is past the two-hour clamp.
        drive_gaps(&mut gw, &[180 * 60; 8]);
        let config = gw.function("random-number").unwrap().config.clone();
        assert_eq!(gw.provider().ttl_for(&config), MAX_TTL);
    }
}
