//! Adaptive live container management (§IV-C, Algorithm 3).
//!
//! At a fixed control interval the controller snapshots, per runtime type,
//! the peak number of containers the interval actually needed
//! (`history[k][t]`), feeds it to that type's combined exponential-smoothing
//! plus Markov predictor, and resizes the pool toward the predicted
//! next-interval demand — pre-warming containers ahead of predicted growth
//! ("prepare the runtime in advance") and retiring idle ones ahead of
//! predicted decline ("avoid … unnecessary resource consumption").
//!
//! A control step ([`AdaptiveController::step`]) takes one demand snapshot
//! under the pool lock, releases it, and then sizes the snapshot's keys in
//! `KeyId` order — so the container ids of same-step pre-warms, and with
//! them eviction's tie-breaks, are a function of the model alone. Warm
//! requests proceed lock-free throughout. By default the step takes the
//! pool's **dirty-set** snapshot — only keys touched since the last interval
//! (or still holding containers) are visited, so a step costs O(active
//! types) rather than O(registered types). Keys the dirty snapshot skipped saw zero demand by
//! construction; when such a key resurfaces, the controller backfills the
//! missed intervals as zero observations (one per skipped tick), so every
//! predictor sees exactly the demand series a full sweep would have fed it.
//! [`AdaptiveController::step_full`] keeps the O(all types)
//! reference path; a property test asserts the two produce identical
//! prewarm/retire/GC actions on the same trace.
//!
//! A key holding containers stays in every dirty snapshot, and almost all of
//! them are *idle*: no demand, nothing in use, already at their target, and
//! fed `observe(0.0)` + `predict()` only to arrive at `target == current`
//! again. The dirty step **holds** such a key: when it finds one idle and at
//! its target it asks the predictor for how many further zero observations
//! the target provably stays where it is ([`EsMarkov::zero_run_holding`]) and
//! records `(hold_until, level)` beside the predictor pointer. Later dirty
//! steps skip the key — without touching its predictor — while it is still
//! idle, still holds exactly `level` containers and the hold has not run
//! out; the first step that does visit it again (touched, evicted behind
//! the hold, or hold expired) backfills the skipped intervals like a cold
//! key's. A hold is only taken where the skipped steps were no-ops, so
//! `step_full`, which never holds, stays the oracle for the dirty step.
//!
//! Keys whose slots the pool garbage-collects (empty for several
//! consecutive zero-demand intervals) have their predictors dropped in the
//! same step, so the predictor map cannot grow without bound across
//! distinct configurations.

use crate::key::KeyId;
use crate::pool::{DemandSnapshot, EngineRef, RuntimePool};
use containersim::EngineError;
use predictor::{EsMarkov, InitialValue, Predictor};
use simclock::{SimDuration, SimTime};

/// Control interval: how often demand is sampled and the pool resized.
const INTERVAL: SimDuration = SimDuration::from_secs(30);
/// Seeding strategy for short series (paper: mean of first five).
const INIT: InitialValue = InitialValue::MeanOfFirst5;
/// Number of Markov demand regions.
const REGIONS: usize = 6;
/// Demand history window per key — and, because a predictor never vouches
/// for more zero observations than its window holds, the longest hold.
const WINDOW: usize = 256;

/// Controller tuning: the two knobs the ablations sweep.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Exponential smoothing coefficient (paper: 0.8).
    pub alpha: f64,
    /// Maximum fraction of the *excess* (current − target) retired per
    /// control step. Scale-up is immediate (cold starts hurt now); scale-down
    /// is deliberately gradual so capacity survives between recurring bursts
    /// — the §V-D burst experiment's "more same types of containers available
    /// after the previous burst". 1.0 = shed everything immediately.
    pub max_retire_fraction: f64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            alpha: 0.8,
            max_retire_fraction: 0.1,
        }
    }
}

/// What one control step did — the counters and predicted-vs-actual demand
/// the telemetry layer samples into the metrics registry.
#[derive(Debug, Clone, Default)]
pub struct StepReport {
    /// Containers pre-warmed ahead of predicted demand.
    pub prewarmed: usize,
    /// Idle containers retired beyond predicted demand.
    pub retired: usize,
    /// Keys whose empty slots (and predictors) were garbage collected.
    pub gc_keys: usize,
    /// Per-key `(predicted, actual)` demand for the interval, for the keys
    /// the step *sized*: a dirty step omits cold keys, which contribute
    /// zero to both totals, and held keys, whose actual demand is zero and
    /// whose prediction it did not compute.
    pub demand: Vec<(KeyId, f64, usize)>,
}

impl StepReport {
    /// Total predicted demand across keys.
    pub(crate) fn predicted_total(&self) -> f64 {
        self.demand.iter().map(|&(_, p, _)| p).sum()
    }

    /// Total actual demand across keys.
    pub(crate) fn actual_total(&self) -> usize {
        self.demand.iter().map(|&(_, _, d)| d).sum()
    }
}

/// One key's predictor plus the last tick it was fed, so dirty steps can
/// backfill the zero-demand intervals the key was skipped for.
struct KeyedPredictor {
    model: EsMarkov,
    last_tick: u64,
}

/// What the controller keeps per key: the boxed predictor and, inline, the
/// hold a dirty step checks before it would touch the predictor's memory.
#[derive(Default)]
struct KeySlot {
    /// Last control tick the hold covers; 0 (ticks start at 1) for none.
    hold_until: u64,
    /// The idle pool size the hold was taken at.
    hold_level: usize,
    predictor: Option<Box<KeyedPredictor>>,
}

/// The per-key adaptive controller.
pub struct AdaptiveController {
    config: ControllerConfig,
    /// Per-key slots indexed by [`KeyId::index`] — interned ids are dense
    /// per pool, so a direct-indexed table beats hashing on the per-key tick
    /// path. GC'd keys leave an empty slot (ids are never reused).
    keys: Vec<KeySlot>,
    /// Number of live (`Some`) predictor slots.
    live_predictors: usize,
    /// Monotone control-step counter; predictors record the tick they last
    /// observed so skipped (zero-demand) intervals can be backfilled.
    ticks: u64,
    last_step: Option<SimTime>,
    /// Cumulative background cost of pre-warm/retire actions.
    background: SimDuration,
}

impl AdaptiveController {
    /// Creates a controller.
    pub fn new(config: ControllerConfig) -> Self {
        AdaptiveController {
            config,
            keys: Vec::new(),
            live_predictors: 0,
            ticks: 0,
            last_step: None,
            background: SimDuration::ZERO,
        }
    }

    /// The paper's configuration (α = 0.8, 30 s interval).
    pub fn paper_default() -> Self {
        Self::new(ControllerConfig::default())
    }

    /// Number of keys with a live predictor (bounded by the pool's slot GC).
    #[cfg(test)]
    fn predictor_count(&self) -> usize {
        self.live_predictors
    }

    /// Cumulative cost of controller actions.
    pub fn background_cost(&self) -> SimDuration {
        self.background
    }

    /// Runs a control step if the interval has elapsed since the last one,
    /// returning the step's report when one ran.
    pub(crate) fn maybe_step(
        &mut self,
        pool: &RuntimePool,
        engine: &impl EngineRef,
        now: SimTime,
    ) -> Result<Option<StepReport>, EngineError> {
        let due = match self.last_step {
            None => true,
            Some(last) => now.duration_since(last) >= INTERVAL,
        };
        if !due {
            return Ok(None);
        }
        self.step(pool, engine, now).map(Some)
    }

    /// One O(active types) control step, unconditionally: take the pool's
    /// dirty-set demand snapshot (which also garbage-collects long-empty
    /// slots via the idle sweep), update predictors, and resize toward the
    /// predictions. The pool lock is held for the snapshot only, and never
    /// together with the engine lock.
    pub fn step(
        &mut self,
        pool: &RuntimePool,
        engine: &impl EngineRef,
        now: SimTime,
    ) -> Result<StepReport, EngineError> {
        self.apply(pool, engine, now, pool.take_demand_snapshot_dirty(), true)
    }

    /// The O(all types) reference step: a full-sweep snapshot that visits
    /// every tracked slot, each of which is fed and sized — no key is held.
    /// Produces the same pool-resize actions as
    /// [`Self::step`] on the same trace (property-tested below). No
    /// production path calls it: it is the oracle for that property and the
    /// `controller_tick` benches' baseline (the two `full_sweep` gates).
    pub fn step_full(
        &mut self,
        pool: &RuntimePool,
        engine: &impl EngineRef,
        now: SimTime,
    ) -> Result<StepReport, EngineError> {
        self.apply(pool, engine, now, pool.take_demand_snapshot(), false)
    }

    /// Feeds one snapshot to the predictors and resizes its keys, in the
    /// snapshot's order (ascending `KeyId`). With `may_hold` (the dirty
    /// step) idle keys under a hold are passed over and idle keys at their
    /// target are given one.
    fn apply(
        &mut self,
        pool: &RuntimePool,
        engine: &impl EngineRef,
        now: SimTime,
        snapshot: DemandSnapshot,
        may_hold: bool,
    ) -> Result<StepReport, EngineError> {
        self.last_step = Some(now);
        self.ticks += 1;
        let tick = self.ticks;
        let mut report = StepReport {
            gc_keys: snapshot.retired.len(),
            demand: Vec::with_capacity(snapshot.demands.len()),
            ..StepReport::default()
        };
        for id in &snapshot.retired {
            // The pool dropped the slot: drop its predictor, and any hold,
            // with it.
            if let Some(slot) = self.keys.get_mut(id.index()) {
                if std::mem::take(slot).predictor.is_some() {
                    self.live_predictors -= 1;
                }
            }
        }
        for sample in snapshot.demands {
            let (id, demand) = (sample.id, sample.demand);
            if self.keys.len() <= id.index() {
                self.keys.resize_with(id.index() + 1, KeySlot::default);
            }
            let slot = &mut self.keys[id.index()];
            let idle = may_hold && demand == 0 && sample.in_use == 0;
            // Every interval up to `hold_until` is one more zero for a
            // predictor that provably keeps sizing this key at `hold_level`:
            // with that many containers idle in the pool, feeding and
            // sizing it now would change nothing.
            if idle && tick <= slot.hold_until && sample.avail == slot.hold_level {
                continue;
            }
            slot.hold_until = 0;
            let entry = match &mut slot.predictor {
                Some(entry) => entry,
                None => {
                    self.live_predictors += 1;
                    slot.predictor.insert(Box::new(KeyedPredictor {
                        model: EsMarkov::with_params(self.config.alpha, INIT, REGIONS, WINDOW),
                        last_tick: tick - 1,
                    }))
                }
            };
            // A key absent from a dirty snapshot saw zero demand by
            // construction (any touch keeps it on the active list), and so
            // did a key passed over under a hold: feed the skipped
            // intervals now so the predictor's series is identical to what
            // a full sweep would have produced.
            entry
                .model
                .observe_zeros((tick - 1 - entry.last_tick) as usize);
            entry.last_tick = tick;
            entry.model.observe(demand as f64);
            let predicted = entry.model.predict();
            report.demand.push((id, predicted, demand));

            // Scale-down floor: never size below what the *last* interval
            // actually needed — on a growing workload the smoother lags
            // and would otherwise retire runtimes the next wave is about
            // to use (the Fig. 14(a) "at least half reuse" property).
            let target = (predicted.ceil().max(0.0) as usize).max(demand);
            // The snapshot read the live population under the pool lock
            // it already held — no per-key re-lock.
            let current = sample.live();
            // No-resurrect rule: a key with no demand and no containers
            // is on its way to being GC'd — pre-warming it would keep a
            // dead key alive forever on the ceil()-ed tail of a decaying
            // prediction.
            if current == 0 && demand == 0 {
                continue;
            }
            if target > current {
                // Prepare runtimes in advance of predicted demand.
                for _ in 0..(target - current) {
                    match pool.prewarm_key_id(engine, id, now)? {
                        Some(cost) => {
                            self.background += cost;
                            report.prewarmed += 1;
                        }
                        None => break, // slot GC'd since the snapshot
                    }
                }
            } else {
                // Shed idle runtimes beyond predicted demand — gradually,
                // so recurring bursts find warm capacity left over.
                let excess = current - target;
                if idle && excess == 0 {
                    slot.hold_until = tick + entry.model.zero_run_holding(current) as u64;
                    slot.hold_level = current;
                }
                let retire =
                    ((excess as f64 * self.config.max_retire_fraction).ceil() as usize).min(excess);
                for _ in 0..retire {
                    match pool.retire_one_id(engine, id, now)? {
                        Some(c) => {
                            self.background += c;
                            report.retired += 1;
                        }
                        None => break, // the rest are in use
                    }
                }
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyPolicy;
    use crate::pool::ExclusiveEngine;
    use containersim::engine::ExecWork;
    use containersim::{ContainerConfig, ContainerEngine, HardwareProfile, ImageId};

    /// One dirty-set step over an exclusive engine borrow, as `HotC::tick` runs it.
    fn step(
        ctl: &mut AdaptiveController,
        pool: &RuntimePool,
        engine: &mut ContainerEngine,
        now: SimTime,
    ) -> StepReport {
        ctl.step(pool, &ExclusiveEngine::new(engine), now).unwrap()
    }

    fn setup() -> (ContainerEngine, RuntimePool, AdaptiveController) {
        (
            ContainerEngine::with_local_images(HardwareProfile::server()),
            RuntimePool::new(KeyPolicy::Exact),
            AdaptiveController::paper_default(),
        )
    }

    fn cfg() -> ContainerConfig {
        ContainerConfig::bridge(ImageId::parse("python:3.8-alpine"))
    }

    /// The `k`-th of a family of runtime types that differ in one env value.
    fn keyed(k: usize) -> ContainerConfig {
        let mut c = cfg();
        c.exec.env.insert("K".into(), k.to_string());
        c
    }

    /// Simulates `n` concurrent requests for `config` in one interval.
    fn drive_config_demand(
        pool: &RuntimePool,
        engine: &mut ContainerEngine,
        config: &ContainerConfig,
        n: usize,
        now: SimTime,
    ) {
        let acqs: Vec<_> = (0..n)
            .map(|_| {
                pool.acquire(&ExclusiveEngine::new(engine), config, now)
                    .unwrap()
            })
            .collect();
        for a in acqs {
            let out = engine
                .begin_exec(
                    a.container,
                    ExecWork::light(SimDuration::from_millis(5)),
                    now,
                )
                .unwrap();
            engine.end_exec(a.container, now + out.latency).unwrap();
            pool.release(
                &ExclusiveEngine::new(engine),
                a.container,
                now + out.latency,
            )
            .unwrap();
        }
    }

    /// Simulates `n` concurrent requests in one interval.
    fn drive_demand(pool: &RuntimePool, engine: &mut ContainerEngine, n: usize, now: SimTime) {
        drive_config_demand(pool, engine, &cfg(), n, now);
    }

    #[test]
    fn steady_demand_sizes_pool_to_match() {
        let (mut e, pool, mut ctl) = setup();
        for t in 0..12 {
            let now = SimTime::from_secs(t * 30);
            drive_demand(&pool, &mut e, 5, now);
            step(&mut ctl, &pool, &mut e, now);
        }
        let key = pool.intern_config(&cfg());
        let live = pool.num_avail_id(key) + pool.num_in_use_id(key);
        assert!(
            (4..=7).contains(&live),
            "pool should track demand of 5, got {live}"
        );
    }

    #[test]
    fn demand_drop_retires_containers() {
        let (mut e, pool, mut ctl) = setup();
        // High demand for a while…
        for t in 0..8 {
            let now = SimTime::from_secs(t * 30);
            drive_demand(&pool, &mut e, 10, now);
            step(&mut ctl, &pool, &mut e, now);
        }
        let key = pool.intern_config(&cfg());
        let high = pool.num_avail_id(key);
        assert!(high >= 8, "pool grew to demand, got {high}");
        // …then it vanishes.
        for t in 8..20 {
            let now = SimTime::from_secs(t * 30);
            step(&mut ctl, &pool, &mut e, now);
        }
        let low = pool.num_avail_id(key);
        assert!(low <= 2, "pool should shrink after demand drop, got {low}");
    }

    #[test]
    fn growth_retains_full_capacity() {
        let (mut e, pool, mut ctl) = setup();
        // Ramp 2, 4, 6, … — the scale-down floor (last observed demand)
        // keeps every container from the latest wave warm even while the
        // lagging smoother under-predicts.
        for (r, n) in [2usize, 4, 6, 8, 10, 12].into_iter().enumerate() {
            let now = SimTime::from_secs(r as u64 * 30);
            drive_demand(&pool, &mut e, n, now);
            step(&mut ctl, &pool, &mut e, now);
        }
        let key = pool.intern_config(&cfg());
        assert_eq!(pool.num_avail_id(key), 12, "full last wave stays warm");
    }

    #[test]
    fn maybe_step_respects_interval() {
        let (mut e, pool, mut ctl) = setup();
        let mut due = |secs| {
            ctl.maybe_step(
                &pool,
                &ExclusiveEngine::new(&mut e),
                SimTime::from_secs(secs),
            )
            .unwrap()
            .is_some()
        };
        assert!(due(0));
        // 10 s later: not due (interval 30 s).
        assert!(!due(10));
        assert!(due(30));
    }

    /// The step report tallies what the controller actually did, so the
    /// telemetry layer can export prewarm/retire/GC counts and
    /// predicted-vs-actual demand without re-deriving them.
    #[test]
    fn step_report_tallies_actions() {
        let (mut e, mut pool, mut ctl) = setup();
        pool.set_gc_intervals(1);
        drive_demand(&pool, &mut e, 4, SimTime::ZERO);
        // Demand grew to four, but limit eviction took two of them back
        // before the step: the scale-down floor (what the interval needed)
        // is above what is left, so the step pre-warms the difference.
        for _ in 0..2 {
            pool.evict_oldest(&ExclusiveEngine::new(&mut e), SimTime::ZERO)
                .unwrap();
        }
        let report = step(&mut ctl, &pool, &mut e, SimTime::ZERO);
        assert_eq!(report.demand.len(), 1);
        assert_eq!(report.actual_total(), 4);
        assert!(report.predicted_total() > 0.0);
        assert_eq!(report.prewarmed, 2, "report: {report:?}");
        assert_eq!(report.gc_keys, 0);
        // Drain the pool, then let the empty slot hit the GC threshold.
        while pool
            .evict_oldest(&ExclusiveEngine::new(&mut e), SimTime::from_secs(1))
            .unwrap()
            .is_some()
        {}
        let report = step(&mut ctl, &pool, &mut e, SimTime::from_secs(30));
        assert_eq!(report.gc_keys, 1, "report: {report:?}");
    }

    /// Regression (unbounded predictor maps): when the pool GCs a dead
    /// slot, the controller drops its predictor in the same step — before
    /// the fix, every config ever seen kept a predictor (and a config clone)
    /// forever.
    #[test]
    fn gc_drops_predictors_for_dead_keys() {
        let (mut e, mut pool, mut ctl) = setup();
        pool.set_gc_intervals(2);
        drive_demand(&pool, &mut e, 2, SimTime::ZERO);
        step(&mut ctl, &pool, &mut e, SimTime::ZERO);
        assert_eq!(ctl.predictor_count(), 1);
        // Empty the slot behind the controller's back, as eviction under
        // memory pressure does.
        while pool
            .evict_oldest(&ExclusiveEngine::new(&mut e), SimTime::from_secs(1))
            .unwrap()
            .is_some()
        {}
        assert_eq!(pool.total_live(), 0);
        // Two zero-demand steps on the empty slot reach the GC threshold;
        // the no-resurrect rule keeps the controller from pre-warming it.
        for t in 1..=3u64 {
            step(&mut ctl, &pool, &mut e, SimTime::from_secs(t * 30));
        }
        assert_eq!(pool.total_live(), 0, "dead key must not be resurrected");
        assert!(pool.keys().is_empty());
        assert_eq!(ctl.predictor_count(), 0, "predictor GC'd with the slot");
    }

    /// Keys that all need a pre-warm in one control step get their new
    /// containers in `KeyId` order: ids ascend with the key, so the
    /// `(created_at, id)` eviction order among them is a function of the
    /// model, not of how the pool stores its keys.
    #[test]
    fn same_step_prewarms_receive_ids_in_key_order() {
        let (mut e, pool, mut ctl) = setup();
        let configs: Vec<ContainerConfig> = (0..10).map(keyed).collect();
        // Every key needed two runtimes this interval and has one left.
        for c in &configs {
            drive_config_demand(&pool, &mut e, c, 2, SimTime::ZERO);
            pool.retire_one_id(
                &ExclusiveEngine::new(&mut e),
                pool.intern_config(c),
                SimTime::ZERO,
            )
            .unwrap();
        }
        let at = SimTime::from_secs(30);
        assert_eq!(step(&mut ctl, &pool, &mut e, at).prewarmed, configs.len());
        let prewarmed_keys: Vec<KeyId> = e
            .live_ids_oldest_first()
            .into_iter()
            .filter(|&c| e.created_at(c) == Some(at))
            .map(|c| pool.intern_config(e.config(c).unwrap()))
            .collect();
        let in_key_order: Vec<KeyId> = configs.iter().map(|c| pool.intern_config(c)).collect();
        assert_eq!(prewarmed_keys, in_key_order);
    }

    /// The tentpole equivalence: on any shared trace, the dirty-set step
    /// and the full-sweep step take the same prewarm/retire/GC actions at
    /// every interval and leave the pool and predictor map in the same
    /// final state — the dirty path only skips work, never decisions.
    #[test]
    fn prop_dirty_step_matches_full_sweep() {
        testkit::check(48, |g| {
            let gc = g.u32_in(1..4);
            let intervals = g.usize_in(3..10);
            let configs = [
                ContainerConfig::bridge(ImageId::parse("python:3.8-alpine")),
                ContainerConfig::bridge(ImageId::parse("alpine:3.12")),
                ContainerConfig::bridge(ImageId::parse("golang:1.13")),
            ];
            // One op trace, applied identically to both stacks.
            let plan: Vec<Vec<(usize, u8, usize)>> = (0..intervals)
                .map(|_| {
                    g.vec(0..6, |g| {
                        (g.usize_in(0..3), g.u8_in(0..3), g.usize_in(1..4))
                    })
                })
                .collect();
            let (mut ef, mut pf, mut cf) = setup();
            let (mut ed, mut pd, mut cd) = setup();
            pf.set_gc_intervals(gc);
            pd.set_gc_intervals(gc);
            for (t, ops) in plan.iter().enumerate() {
                let now = SimTime::from_secs(t as u64 * 30);
                for &(ci, op, n) in ops {
                    let c = &configs[ci];
                    match op {
                        0 => {
                            drive_config_demand(&pf, &mut ef, c, n, now);
                            drive_config_demand(&pd, &mut ed, c, n, now);
                        }
                        1 => {
                            pf.prewarm(&ExclusiveEngine::new(&mut ef), c, now).unwrap();
                            pd.prewarm(&ExclusiveEngine::new(&mut ed), c, now).unwrap();
                        }
                        _ => {
                            for (p, e) in [(&pf, &mut ef), (&pd, &mut ed)] {
                                if let Some(id) = p.id_for(c) {
                                    p.retire_one_id(&ExclusiveEngine::new(e), id, now).unwrap();
                                }
                            }
                        }
                    }
                }
                let rf = cf
                    .step_full(&pf, &ExclusiveEngine::new(&mut ef), now)
                    .unwrap();
                let rd = step(&mut cd, &pd, &mut ed, now);
                assert_eq!(rf.prewarmed, rd.prewarmed, "interval {t}: prewarm diverged");
                assert_eq!(rf.retired, rd.retired, "interval {t}: retire diverged");
                assert_eq!(rf.gc_keys, rd.gc_keys, "interval {t}: GC diverged");
            }
            assert_eq!(pf.keys(), pd.keys(), "tracked key sets diverged");
            for key in pf.keys() {
                assert_eq!(
                    pf.num_avail_id(key),
                    pd.num_avail_id(key),
                    "sizing of {key}"
                );
                assert_eq!(pf.num_in_use_id(key), pd.num_in_use_id(key));
            }
            assert_eq!(cf.predictor_count(), cd.predictor_count());
        });
    }

    /// Serves one request on `config`, then steps until the key is held at
    /// one idle container (the smoother seeds on its fifth observation).
    /// Returns the interval index of the first step that has not run yet.
    fn settle_into_hold(
        ctl: &mut AdaptiveController,
        pool: &RuntimePool,
        engine: &mut ContainerEngine,
        configs: &[ContainerConfig],
    ) -> u64 {
        for c in configs {
            drive_config_demand(pool, engine, c, 1, SimTime::ZERO);
        }
        for t in 0..6 {
            step(ctl, pool, engine, SimTime::from_secs(t * 30));
        }
        for c in configs {
            let slot = &ctl.keys[pool.intern_config(c).index()];
            assert!(
                slot.hold_until > 6 + 64,
                "held well ahead: {}",
                slot.hold_until
            );
            assert_eq!(slot.hold_level, 1);
        }
        assert!(step(ctl, pool, engine, SimTime::from_secs(180))
            .demand
            .is_empty());
        7
    }

    /// A hold covers one pool size. When limit enforcement evicts a held
    /// key's container, the very next step visits the key again — and only
    /// that key: its neighbour's hold still stands.
    #[test]
    fn held_key_evicted_by_limits_is_visited_on_the_next_step() {
        let (mut e, pool, mut ctl) = setup();
        let configs = [keyed(0), keyed(1)];
        let t = settle_into_hold(&mut ctl, &pool, &mut e, &configs);
        let now = SimTime::from_secs(t * 30);
        let (_, evicted) = crate::PoolLimits::new(1, 0.8)
            .enforce(&pool, &ExclusiveEngine::new(&mut e), now)
            .unwrap();
        assert_eq!(evicted, 1);
        let oldest = pool.intern_config(&configs[0]);
        assert_eq!(
            pool.num_avail_id(oldest),
            0,
            "the older key lost its runtime"
        );
        let report = step(&mut ctl, &pool, &mut e, now);
        let visited: Vec<KeyId> = report.demand.iter().map(|&(id, _, _)| id).collect();
        assert_eq!(visited, [oldest]);
        assert_eq!(
            (report.prewarmed, report.retired),
            (0, 0),
            "no resurrection"
        );
    }

    /// A request inside a hold ends it: the step after reports the key's
    /// demand, and the predictor has every skipped zero before it.
    #[test]
    fn key_touched_mid_hold_reports_its_demand() {
        let (mut e, pool, mut ctl) = setup();
        let t = settle_into_hold(&mut ctl, &pool, &mut e, &[cfg()]);
        let id = pool.intern_config(&cfg());
        for t in t..t + 20 {
            assert!(step(&mut ctl, &pool, &mut e, SimTime::from_secs(t * 30))
                .demand
                .is_empty());
        }
        let now = SimTime::from_secs((t + 20) * 30);
        drive_demand(&pool, &mut e, 1, now);
        let report = step(&mut ctl, &pool, &mut e, now);
        assert_eq!(report.actual_total(), 1);
        assert_eq!(report.demand[0].0, id);
        let entry = ctl.keys[id.index()].predictor.as_ref().unwrap();
        assert_eq!(
            entry.model.observations() as u64,
            t + 21,
            "one per interval"
        );
    }

    /// The pool GCs a held key whose container was evicted; the hold goes
    /// with the predictor, so a revived key (same `KeyId`) starts clean.
    #[test]
    fn gc_clears_the_hold_with_the_predictor() {
        let (mut e, mut pool, mut ctl) = setup();
        pool.set_gc_intervals(2);
        let t = settle_into_hold(&mut ctl, &pool, &mut e, &[cfg()]);
        let id = pool.intern_config(&cfg());
        pool.evict_oldest(&ExclusiveEngine::new(&mut e), SimTime::from_secs(t * 30))
            .unwrap();
        let gc: usize = (t..t + 3)
            .map(|t| step(&mut ctl, &pool, &mut e, SimTime::from_secs(t * 30)).gc_keys)
            .sum();
        assert_eq!(gc, 1);
        let slot = &ctl.keys[id.index()];
        assert_eq!((slot.hold_until, slot.predictor.is_none()), (0, true));
        assert_eq!(ctl.predictor_count(), 0);
    }

    /// An idle fleet is what a hold is for: 400 keys that each served one
    /// request and then sit on one warm container are passed over on at
    /// least nine in ten of the dirty step's idle visits.
    #[test]
    fn idle_fleet_is_mostly_skipped() {
        let (mut e, pool, mut ctl) = setup();
        let configs: Vec<ContainerConfig> = (0..400).map(keyed).collect();
        for c in &configs {
            drive_config_demand(&pool, &mut e, c, 1, SimTime::ZERO);
        }
        step(&mut ctl, &pool, &mut e, SimTime::ZERO);
        // Every key a step meets here is idle, and every key holding its
        // runtime is in the step's snapshot: the ones the report leaves out
        // were passed over.
        let (mut met, mut skipped) = (0, 0);
        for t in 1..500 {
            let pooled = pool.total_available();
            let sized = step(&mut ctl, &pool, &mut e, SimTime::from_secs(t * 30)).demand;
            met += pooled;
            skipped += pooled.saturating_sub(sized.len());
        }
        assert!(met >= 400 * 400, "the fleet stayed pooled: {met}");
        assert!(
            skipped * 10 >= met * 9,
            "{skipped} of {met} idle visits skipped"
        );
    }

    /// Holds are decision-neutral over long idle runs: with sparse traffic
    /// over 50–600 intervals (so that holds are taken, run out, and are cut
    /// short by requests, prewarms and retires behind the controller's
    /// back), the holding dirty step and the every-key full sweep take the
    /// same actions at every interval, leave the same pool, and — once one
    /// common full sweep has made both visit every key — the same predictor
    /// state, bit for bit.
    #[test]
    fn prop_held_step_matches_full_sweep_over_long_idle_runs() {
        let mut held = 0;
        testkit::check(32, |g| {
            let gc = g.u32_in(1..4);
            let intervals = g.usize_in(50..601);
            let configs: Vec<ContainerConfig> = (0..4).map(keyed).collect();
            let (mut ef, mut pf, mut cf) = setup();
            let (mut ed, mut pd, mut cd) = setup();
            pf.set_gc_intervals(gc);
            pd.set_gc_intervals(gc);
            for t in 0..=intervals {
                let now = SimTime::from_secs(t as u64 * 30);
                let ops = if t == 0 || g.u8_in(0..12) == 0 {
                    g.vec(1..4, |g| {
                        (g.usize_in(0..4), g.u8_in(0..4), g.usize_in(1..4))
                    })
                } else {
                    Vec::new()
                };
                for (ci, op, n) in ops {
                    let c = &configs[ci];
                    for (p, e) in [(&pf, &mut ef), (&pd, &mut ed)] {
                        match op {
                            0 | 1 => drive_config_demand(p, e, c, n, now),
                            2 => {
                                p.prewarm(&ExclusiveEngine::new(e), c, now).unwrap();
                            }
                            _ => {
                                if let Some(id) = p.id_for(c) {
                                    p.retire_one_id(&ExclusiveEngine::new(e), id, now).unwrap();
                                }
                            }
                        }
                    }
                }
                let rf = cf
                    .step_full(&pf, &ExclusiveEngine::new(&mut ef), now)
                    .unwrap();
                let pooled = pd
                    .keys()
                    .into_iter()
                    .filter(|&k| pd.num_avail_id(k) > 0)
                    .count();
                // The last interval is the common full sweep.
                let rd = if t == intervals {
                    cd.step_full(&pd, &ExclusiveEngine::new(&mut ed), now)
                        .unwrap()
                } else {
                    step(&mut cd, &pd, &mut ed, now)
                };
                assert_eq!(rf.prewarmed, rd.prewarmed, "interval {t}: prewarm diverged");
                assert_eq!(rf.retired, rd.retired, "interval {t}: retire diverged");
                assert_eq!(rf.gc_keys, rd.gc_keys, "interval {t}: GC diverged");
                // A key holding a runtime is in every snapshot: the ones a
                // dirty report leaves out were passed over under a hold.
                held += pooled.saturating_sub(rd.demand.len());
            }
            assert_eq!(pf.keys(), pd.keys(), "tracked key sets diverged");
            for key in pf.keys() {
                assert_eq!(
                    pf.num_avail_id(key),
                    pd.num_avail_id(key),
                    "sizing of {key}"
                );
            }
            assert!(cf.keys.iter().all(|s| s.hold_until == 0), "a sweep held");
            assert_eq!(cf.keys.len(), cd.keys.len());
            for (f, d) in cf.keys.iter().zip(&cd.keys) {
                let model = |s: &KeySlot| s.predictor.as_ref().map(|p| format!("{:?}", p.model));
                assert_eq!(model(f), model(d));
            }
        });
        assert!(held > 1000, "holds were taken: {held} skips");
    }
}
