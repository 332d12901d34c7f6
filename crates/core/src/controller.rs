//! Adaptive live container management (§IV-C, Algorithm 3) — and the
//! §III-B industry practices it is measured against.
//!
//! At a fixed control interval the controller snapshots, per runtime type,
//! the peak number of containers the interval actually needed
//! (`history[k][t]`) and sizes each key's pool by its [`ScalingPolicy`].
//! The paper's policy ([`ScalingPolicy::EsMarkov`]) feeds that demand to the
//! type's combined exponential-smoothing plus Markov predictor and resizes
//! toward the predicted next-interval demand — pre-warming containers ahead
//! of predicted growth ("prepare the runtime in advance") and retiring idle
//! ones ahead of predicted decline ("avoid … unnecessary resource
//! consumption"). The keep-alive baselines (periodic warm-up, a fixed TTL, a
//! per-type learned TTL) decide only how many idle runtimes a key keeps and
//! for how long: they never pre-warm, and they run on the same pool, limits
//! and step machinery.
//!
//! A control step ([`AdaptiveController::step`]) takes the pool's demand
//! snapshot and then sizes the snapshot's keys in `KeyId` order — so the
//! container ids of same-step pre-warms, and with them eviction's
//! tie-breaks, are a function of the model alone. The snapshot visits only the keys
//! that may have changed — unparked ones, woken ones and those whose hold
//! ends now (below) — so a step costs O(keys that changed + holds that
//! end), not O(pooled types).
//!
//! Almost all pooled keys are *idle*: no demand, nothing in use, already at
//! their target, and fed `observe(0.0)` + `predict()` only to arrive at
//! `target == current` again. Under `EsMarkov` the step **holds** such a key:
//! when it finds one idle and at its target it asks the predictor for how
//! many further zero observations the target provably stays where it is
//! ([`EsMarkov::zero_run_holding`]) and records `(hold_until, level)` beside
//! the predictor pointer, and *parks* the key: the pool's next snapshot
//! stops visiting it. Later steps never see the key — not its predictor,
//! not its slot — until a change wakes it (a request, an eviction behind the
//! hold, any other change to its pool) or the hold runs out, which the
//! controller files by tick and hands to the snapshot as due. The step
//! that visits it again backfills the skipped intervals as zero
//! observations, and one that finds it still idle at `level` inside its
//! hold (a change that undid itself) parks it again. A hold is only taken
//! where the skipped steps were no-ops, so
//! [`AdaptiveController::step_full`], which never holds and visits every
//! tracked key, is the oracle for `step`: property tests assert the
//! two take the same prewarm/retire/GC actions on the same trace, under
//! every policy, and end with bit-equal predictors. The baselines never
//! hold: their windows are measured in simulated time.
//!
//! Keys whose slots the pool garbage-collects (empty for several
//! consecutive zero-demand intervals) have their per-key state dropped in
//! the same step, so the state table cannot grow without bound across
//! distinct configurations — except a hybrid key's gap history, which is
//! what it learns from across exactly those idle gaps. A collected key's
//! `EsMarkov` predictor is kept as a spare for the rest of the step, and a
//! key the same step sizes for the first time gets it [`EsMarkov::reset`]:
//! under steady churn, where every step collects some keys and admits
//! others, a re-admitted key costs no allocation for its predictor. Spares
//! left at the end of the step are dropped. Kept longer, they would hand
//! their grown windows to short-lived keys, and the live predictors' memory
//! would ratchet up to the largest window each has ever held.

use crate::key::KeyId;
use crate::pool::{DemandSnapshot, KeyDemand, RuntimePool};
use containersim::{ContainerEngine, EngineError};
use predictor::{EsMarkov, InitialValue, Predictor};
use simclock::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Control interval: how often demand is sampled and the pool resized.
const INTERVAL: SimDuration = SimDuration::from_secs(30);
/// Seeding strategy for short series (paper: mean of first five).
const INIT: InitialValue = InitialValue::MeanOfFirst5;
/// Number of Markov demand regions.
const REGIONS: usize = 6;
/// Demand history window per key — and, because a predictor never vouches
/// for more zero observations than its window holds, the longest hold.
const WINDOW: usize = 256;
/// Background cost of one periodic warm-up ping.
const PING_COST: SimDuration = SimDuration::from_millis(5);

/// `EsMarkov` tuning: the two knobs the ablations sweep.
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

/// How a control step sizes each key: Algorithm 3, or one of the §III-B
/// industry practices HotC is measured against. Only `EsMarkov` pre-warms
/// or holds; the others keep at most what a key already has.
#[derive(Debug, Clone)]
pub enum ScalingPolicy {
    /// Algorithm 3: the ES + Markov forecast, floored at the interval's
    /// demand, retiring `max_retire_fraction` of any excess per step.
    EsMarkov(ControllerConfig),
    /// Keep every runtime. `None` is reactive pooling only (the prediction
    /// ablation); `Some(period)` is Azure-Logic-style periodic warm-up,
    /// which pays one ping per available runtime per elapsed period.
    KeepAll {
        /// Warm-up ping interval, if pings are paid.
        ping: Option<SimDuration>,
    },
    /// AWS-style fixed keep-alive: keep the peak per-interval demand of the
    /// last `ttl` of simulated time.
    KeepAlive(SimDuration),
    /// Azure-style hybrid keep-alive: `KeepAlive` with the window learned
    /// per key from the gaps between the steps that see it in demand.
    Hybrid,
}

impl Default for ScalingPolicy {
    fn default() -> Self {
        ScalingPolicy::EsMarkov(ControllerConfig::default())
    }
}

impl ScalingPolicy {
    /// The provider name report tables use.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            ScalingPolicy::EsMarkov(_) | ScalingPolicy::KeepAll { ping: None } => "hotc",
            ScalingPolicy::KeepAll { ping: Some(_) } => "periodic-warmup",
            ScalingPolicy::KeepAlive(_) => "fixed-keepalive",
            ScalingPolicy::Hybrid => "hybrid-keepalive",
        }
    }
}

/// What one control step did: its actions and predicted-vs-actual demand.
///
/// The keys a step *sizes* are every key the pool tracks, cold keys included
/// until their slot GC (with their forecast), except held keys, whose
/// actual demand is zero and whose prediction `step` did not compute. A
/// keep-alive policy's prediction is its window's peak.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// Containers pre-warmed ahead of predicted demand.
    pub prewarmed: usize,
    /// Idle containers retired beyond predicted demand.
    pub retired: usize,
    /// Keys whose empty slots (and predictors) were garbage collected.
    pub gc_keys: usize,
    /// Keys the step sized.
    pub sized: usize,
    /// Predicted demand summed over the sized keys in snapshot order,
    /// starting from `-0.0` as `f64`'s `Sum` does: an empty step's total is
    /// `-0.0`.
    pub(crate) predicted_total: f64,
    /// Actual demand summed over the sized keys.
    pub(crate) actual_total: usize,
}

/// Percentile of a key's gap distribution the hybrid window provisions for.
const PERCENTILE: f64 = 0.99;
/// Safety margin multiplied onto the percentile gap.
const MARGIN: f64 = 1.1;
/// Window used until a key has enough gap samples.
const DEFAULT_TTL: SimDuration = SimDuration::from_mins(10);
/// Samples needed before trusting the learned distribution.
const MIN_SAMPLES: usize = 3;
/// Lower clamp on learned windows.
const MIN_TTL: SimDuration = SimDuration::from_secs(15);
/// Upper clamp on learned windows.
const MAX_TTL: SimDuration = SimDuration::from_mins(120);
/// Gap samples kept per key.
const GAP_WINDOW: usize = 256;

/// A hybrid key's gap history: the time between consecutive control steps
/// that saw it in demand (a zero-demand run plus one interval). The window
/// is a high percentile of it (Azure's per-type keep-alive).
#[derive(Debug, Default)]
struct TypeHistory {
    /// Observed gaps, oldest first (bounded ring: push at the back, evict at
    /// the front in O(1)).
    gaps: VecDeque<SimDuration>,
    /// The same gaps kept sorted, adjusted incrementally on each insert so
    /// `learned_ttl` never clones and re-sorts the window.
    sorted: Vec<SimDuration>,
    /// The last step that saw demand.
    last_seen: Option<SimTime>,
}

impl TypeHistory {
    /// Notes the interval ending `now`: one more gap when it saw demand.
    fn observe(&mut self, now: SimTime, demand: usize) {
        if demand > 0 {
            if let Some(last) = self.last_seen.replace(now) {
                self.record_gap(now.duration_since(last));
            }
        }
    }

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

    /// The window in force: the 99th-percentile gap × 1.1, clamped to
    /// 15 s – 120 min; 10 min until three gaps are known.
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

/// How long a keep-alive window is: fixed, or learned from the key's gaps.
#[derive(Debug)]
enum Ttl {
    Fixed(SimDuration),
    Learned(TypeHistory),
}

impl Ttl {
    /// Notes the interval ending `now` and returns the window in force.
    fn observe(&mut self, now: SimTime, demand: usize) -> SimDuration {
        match self {
            Ttl::Fixed(ttl) => *ttl,
            Ttl::Learned(history) => {
                history.observe(now, demand);
                history.learned_ttl()
            }
        }
    }
}

/// A keep-alive key's window: the per-interval demand peaks of the last TTL
/// that no later peak dominates, oldest (and largest) first — so the front
/// is the window's peak — and the TTL.
#[derive(Debug)]
struct Window {
    peaks: VecDeque<(SimTime, usize)>,
    ttl: Ttl,
}

impl Window {
    fn new(policy: &ScalingPolicy) -> Self {
        let ttl = match policy {
            ScalingPolicy::KeepAlive(ttl) => Ttl::Fixed(*ttl),
            _ => Ttl::Learned(TypeHistory::default()),
        };
        Window {
            peaks: VecDeque::new(),
            ttl,
        }
    }

    /// Records the interval ending `now` and returns the peak demand of the
    /// intervals that ended within the TTL.
    fn observe(&mut self, now: SimTime, demand: usize) -> usize {
        let ttl = self.ttl.observe(now, demand);
        while self
            .peaks
            .front()
            .is_some_and(|&(at, _)| now.duration_since(at) > ttl)
        {
            self.peaks.pop_front();
        }
        if demand > 0 {
            while self.peaks.back().is_some_and(|&(_, d)| d <= demand) {
                self.peaks.pop_back();
            }
            self.peaks.push_back((now, demand));
        }
        self.peaks.front().map_or(0, |&(_, d)| d)
    }
}

/// One key's `EsMarkov` predictor plus the last tick it was fed, so a step
/// can backfill the zero-demand intervals a hold skipped.
struct KeyedPredictor {
    model: EsMarkov,
    last_tick: u64,
}

/// What `EsMarkov` keeps per key: the boxed predictor and, inline, the hold
/// a step checks before it would touch the predictor's memory.
#[derive(Default)]
struct KeySlot {
    /// Last control tick the hold covers; 0 (ticks start at 1) for none.
    hold_until: u64,
    /// The idle pool size the hold was taken at.
    hold_level: usize,
    /// The tick of the key's live entry in `expiries`; 0 for none. An
    /// entry at any other tick is stale, so a key re-held every few steps
    /// keeps one entry, not one per hold.
    queued: u64,
    predictor: Option<Box<KeyedPredictor>>,
}

/// The per-key adaptive controller.
pub struct AdaptiveController {
    policy: ScalingPolicy,
    /// `EsMarkov`'s per-key slots indexed by [`KeyId::index`] — interned
    /// ids are dense per pool, so a direct-indexed table beats hashing on
    /// the per-key tick path. GC'd keys leave an empty slot (ids are never
    /// reused).
    keys: Vec<KeySlot>,
    /// The keep-alive policies' per-key windows, indexed the same way.
    windows: Vec<Option<Box<Window>>>,
    /// Predictors of the keys this step garbage-collected, handed out
    /// [`EsMarkov::reset`] before a new one is built; empty between steps.
    #[allow(
        clippy::vec_box,
        reason = "a spare moves into a key's slot as the box it already is"
    )]
    spares: Vec<Box<KeyedPredictor>>,
    /// Keys the last `step` left held: its pool's next snapshot parks them.
    park: Vec<KeyId>,
    /// Hold ends as `(first tick past the hold, key)`, earliest first: at
    /// most one live entry per key (`KeySlot::queued`).
    expiries: BinaryHeap<Reverse<(u64, KeyId)>>,
    /// The keys whose hold ends at this step, `step`'s snapshot and the
    /// last step's sized keys as `(key, predicted, actual)`, in snapshot
    /// order (scratch, kept for their capacity).
    due: Vec<KeyId>,
    snapshot: DemandSnapshot,
    demand: Vec<(KeyId, f64, usize)>,
    /// Monotone control-step counter; predictors record the tick they last
    /// observed so skipped (zero-demand) intervals can be backfilled.
    ticks: u64,
    last_step: Option<SimTime>,
    /// Where the last charged warm-up ping period ended.
    last_ping: SimTime,
    /// Cumulative background cost of pre-warm/retire actions and pings.
    background: SimDuration,
}

impl AdaptiveController {
    /// Creates a controller.
    pub fn new(policy: ScalingPolicy) -> Self {
        AdaptiveController {
            policy,
            keys: Vec::new(),
            windows: Vec::new(),
            spares: Vec::new(),
            park: Vec::new(),
            expiries: BinaryHeap::new(),
            due: Vec::new(),
            snapshot: DemandSnapshot::default(),
            demand: Vec::new(),
            ticks: 0,
            last_step: None,
            last_ping: SimTime::ZERO,
            background: SimDuration::ZERO,
        }
    }

    /// Number of keys with a live predictor or window (bounded by the
    /// pool's slot GC, hybrid gap histories aside).
    #[cfg(test)]
    fn state_count(&self) -> usize {
        let predictors = self.keys.iter().filter(|s| s.predictor.is_some());
        predictors.count() + self.windows.iter().flatten().count()
    }

    /// Cumulative cost of controller actions.
    pub fn background_cost(&self) -> SimDuration {
        self.background
    }

    /// Runs a control step if the interval has elapsed since the last one,
    /// returning the step's report when one ran.
    pub(crate) fn maybe_step(
        &mut self,
        pool: &mut RuntimePool,
        engine: &mut ContainerEngine,
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

    /// One control step, unconditionally: take the pool's demand snapshot
    /// (which also garbage-collects long-empty slots) of the keys not
    /// parked, woken or due, update their predictors, and resize toward the
    /// predictions, parking the keys it holds.
    pub fn step(
        &mut self,
        pool: &mut RuntimePool,
        engine: &mut ContainerEngine,
        now: SimTime,
    ) -> Result<StepReport, EngineError> {
        let tick = self.ticks + 1;
        self.due.clear();
        while let Some(&Reverse((end, id))) = self.expiries.peek() {
            if end > tick {
                break;
            }
            self.expiries.pop();
            let slot = &mut self.keys[id.index()];
            if slot.queued != end {
                continue;
            }
            // The hold in force may have been renewed to end later: the
            // live entry moves there.
            slot.queued = 0;
            let hold_end = slot.hold_until + 1;
            if hold_end == tick {
                self.due.push(id);
            } else if hold_end > tick {
                slot.queued = hold_end;
                self.expiries.push(Reverse((hold_end, id)));
            }
        }
        let mut snapshot = std::mem::take(&mut self.snapshot);
        pool.take_demand_snapshot(&self.park, &self.due, &mut snapshot);
        self.park.clear();
        let report = self.apply(pool, engine, now, &snapshot, true);
        self.snapshot = snapshot;
        report
    }

    /// The reference step: a snapshot of every tracked key, parked or not,
    /// every key of which is fed and sized — no key is held. Produces the
    /// same pool-resize actions as [`Self::step`] on the same trace
    /// (property-tested below). No production path calls it: it is the
    /// oracle for that property and the denominator of the
    /// `controller_tick` holding gate.
    pub fn step_full(
        &mut self,
        pool: &mut RuntimePool,
        engine: &mut ContainerEngine,
        now: SimTime,
    ) -> Result<StepReport, EngineError> {
        self.park.clear();
        let snapshot = pool.take_full_snapshot();
        self.apply(pool, engine, now, &snapshot, false)
    }

    /// Charges one warm-up ping per available runtime per `period` elapsed
    /// since the last charged one. Every key holding a runtime is in the
    /// snapshot: `KeepAll` never holds, so it never parks a key.
    fn charge_pings(&mut self, demands: &[KeyDemand], period: SimDuration, now: SimTime) {
        let periods = now.duration_since(self.last_ping).div_duration(period);
        if periods > 0 {
            let avail: usize = demands.iter().map(|d| d.avail).sum();
            self.background += PING_COST * (periods * avail as u64);
            self.last_ping += period * periods;
        }
    }

    /// Feeds one snapshot to the policy and resizes its keys, in the
    /// snapshot's order (ascending `KeyId`). With `may_hold` (`step`) idle
    /// `EsMarkov` keys under a hold are passed over and idle keys at their
    /// target are given one; both are parked.
    fn apply(
        &mut self,
        pool: &mut RuntimePool,
        engine: &mut ContainerEngine,
        now: SimTime,
        snapshot: &DemandSnapshot,
        may_hold: bool,
    ) -> Result<StepReport, EngineError> {
        self.last_step = Some(now);
        self.ticks += 1;
        let tick = self.ticks;
        let mut report = StepReport {
            prewarmed: 0,
            retired: 0,
            gc_keys: snapshot.retired.len(),
            sized: 0,
            predicted_total: -0.0,
            actual_total: 0,
        };
        self.demand.clear();
        let keeps_history = matches!(self.policy, ScalingPolicy::Hybrid);
        for id in &snapshot.retired {
            // The pool dropped the slot: drop any hold with it and keep its
            // predictor as a spare for this step — and drop its window,
            // unless that is a gap history, which is learned across exactly
            // such idle gaps.
            if let Some(slot) = self.keys.get_mut(id.index()) {
                self.spares.extend(std::mem::take(slot).predictor);
            }
            if let (Some(window), false) = (self.windows.get_mut(id.index()), keeps_history) {
                *window = None;
            }
        }
        if let ScalingPolicy::KeepAll { ping: Some(period) } = self.policy {
            self.charge_pings(&snapshot.demands, period, now);
        }
        for &sample in &snapshot.demands {
            let (id, demand) = (sample.id, sample.demand);
            // The snapshot carries the live population.
            let current = sample.live();
            // Per policy: the prediction to report, the target size, the
            // share of any excess to retire now, and — for an idle key at
            // its target — how many further intervals it may be held.
            let (predicted, target, retire_fraction, hold) = match &self.policy {
                ScalingPolicy::EsMarkov(config) => {
                    if self.keys.len() <= id.index() {
                        self.keys.resize_with(id.index() + 1, KeySlot::default);
                    }
                    let slot = &mut self.keys[id.index()];
                    let idle = may_hold && demand == 0 && sample.in_use == 0;
                    // Every interval up to `hold_until` is one more zero for
                    // a predictor that provably keeps sizing this key at
                    // `hold_level`: with that many containers idle in the
                    // pool, feeding and sizing it now would change nothing.
                    // Whatever woke it undid itself: park it again.
                    if idle && tick <= slot.hold_until && sample.avail == slot.hold_level {
                        self.park.push(id);
                        continue;
                    }
                    slot.hold_until = 0;
                    let entry = slot
                        .predictor
                        .get_or_insert_with(|| match self.spares.pop() {
                            Some(mut spare) => {
                                spare.model.reset();
                                spare.last_tick = tick - 1;
                                spare
                            }
                            None => Box::new(KeyedPredictor {
                                model: EsMarkov::with_params(config.alpha, INIT, REGIONS, WINDOW),
                                last_tick: tick - 1,
                            }),
                        });
                    // A key passed over under a hold saw zero demand in
                    // every skipped interval: feed them now so the
                    // predictor's series is identical to what `step_full`
                    // would have produced.
                    entry
                        .model
                        .observe_zeros((tick - 1 - entry.last_tick) as usize);
                    entry.last_tick = tick;
                    entry.model.observe(demand as f64);
                    let predicted = entry.model.predict();
                    // Scale-down floor: never size below what the *last*
                    // interval actually needed — on a growing workload the
                    // smoother lags and would otherwise retire runtimes the
                    // next wave is about to use (the Fig. 14(a) "at least
                    // half reuse" property).
                    let target = (predicted.ceil().max(0.0) as usize).max(demand);
                    let hold = (idle && target == current)
                        .then(|| entry.model.zero_run_holding(current) as u64);
                    (predicted, target, config.max_retire_fraction, hold)
                }
                ScalingPolicy::KeepAll { .. } => (current as f64, current, 0.0, None),
                policy @ (ScalingPolicy::KeepAlive(_) | ScalingPolicy::Hybrid) => {
                    if self.windows.len() <= id.index() {
                        self.windows.resize_with(id.index() + 1, || None);
                    }
                    let window = self.windows[id.index()]
                        .get_or_insert_with(|| Box::new(Window::new(policy)));
                    let peak = window.observe(now, demand);
                    (peak as f64, peak.min(current), 1.0, None)
                }
            };
            report.sized += 1;
            report.predicted_total += predicted;
            report.actual_total += demand;
            self.demand.push((id, predicted, demand));

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
                // Shed idle runtimes beyond the target — gradually under
                // `EsMarkov`, so recurring bursts find warm capacity left
                // over.
                let excess = current - target;
                if let (0, Some(hold)) = (excess, hold) {
                    let slot = &mut self.keys[id.index()];
                    slot.hold_until = tick + hold;
                    slot.hold_level = current;
                    if hold > 0 {
                        self.park.push(id);
                        // A live entry at or before the new end gets there
                        // (see `step`); only an earlier end needs its own.
                        let end = slot.hold_until + 1;
                        if slot.queued == 0 || end < slot.queued {
                            slot.queued = end;
                            self.expiries.push(Reverse((end, id)));
                        }
                    }
                }
                let retire = ((excess as f64 * retire_fraction).ceil() as usize).min(excess);
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
        self.spares.clear();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyPolicy;
    use crate::pool::GC_INTERVALS;
    use containersim::engine::ExecWork;
    use containersim::{ContainerConfig, ContainerEngine, HardwareProfile, ImageId};

    fn step(
        ctl: &mut AdaptiveController,
        pool: &mut RuntimePool,
        engine: &mut ContainerEngine,
        now: SimTime,
    ) -> StepReport {
        ctl.step(pool, engine, now).unwrap()
    }

    fn setup() -> (ContainerEngine, RuntimePool, AdaptiveController) {
        setup_with(ScalingPolicy::default())
    }

    fn setup_with(policy: ScalingPolicy) -> (ContainerEngine, RuntimePool, AdaptiveController) {
        (
            ContainerEngine::with_local_images(HardwareProfile::server()),
            RuntimePool::new(KeyPolicy::Exact),
            AdaptiveController::new(policy),
        )
    }

    /// Every policy, with windows short enough to run out inside a test.
    fn policies() -> [ScalingPolicy; 5] {
        [
            ScalingPolicy::default(),
            ScalingPolicy::KeepAll { ping: None },
            ScalingPolicy::KeepAll {
                ping: Some(SimDuration::from_mins(5)),
            },
            ScalingPolicy::KeepAlive(SimDuration::from_mins(2)),
            ScalingPolicy::Hybrid,
        ]
    }

    /// A key's `EsMarkov` predictor, if it has one.
    fn model(slot: &KeySlot) -> Option<&EsMarkov> {
        slot.predictor.as_ref().map(|p| &p.model)
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
        pool: &mut RuntimePool,
        engine: &mut ContainerEngine,
        config: &ContainerConfig,
        n: usize,
        now: SimTime,
    ) {
        let acqs: Vec<_> = (0..n)
            .map(|_| pool.acquire(engine, config, now).unwrap())
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
            pool.release(engine, a.container, now + out.latency)
                .unwrap();
        }
    }

    /// Simulates `n` concurrent requests for `config` in one interval whose
    /// containers all crash: each release disposes of its container.
    fn crash_config_demand(
        pool: &mut RuntimePool,
        engine: &mut ContainerEngine,
        config: &ContainerConfig,
        n: usize,
        now: SimTime,
    ) {
        engine.set_fault_injection(1.0, 7);
        drive_config_demand(pool, engine, config, n, now);
        engine.set_fault_injection(0.0, 7);
    }

    /// Simulates `n` concurrent requests in one interval.
    fn drive_demand(pool: &mut RuntimePool, engine: &mut ContainerEngine, n: usize, now: SimTime) {
        drive_config_demand(pool, engine, &cfg(), n, now);
    }

    #[test]
    fn steady_demand_sizes_pool_to_match() {
        let (mut e, mut pool, mut ctl) = setup();
        for t in 0..12 {
            let now = SimTime::from_secs(t * 30);
            drive_demand(&mut pool, &mut e, 5, now);
            step(&mut ctl, &mut pool, &mut e, now);
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
        let (mut e, mut pool, mut ctl) = setup();
        // High demand for a while…
        for t in 0..8 {
            let now = SimTime::from_secs(t * 30);
            drive_demand(&mut pool, &mut e, 10, now);
            step(&mut ctl, &mut pool, &mut e, now);
        }
        let key = pool.intern_config(&cfg());
        let high = pool.num_avail_id(key);
        assert!(high >= 8, "pool grew to demand, got {high}");
        // …then it vanishes.
        for t in 8..20 {
            let now = SimTime::from_secs(t * 30);
            step(&mut ctl, &mut pool, &mut e, now);
        }
        let low = pool.num_avail_id(key);
        assert!(low <= 2, "pool should shrink after demand drop, got {low}");
    }

    #[test]
    fn growth_retains_full_capacity() {
        let (mut e, mut pool, mut ctl) = setup();
        // Ramp 2, 4, 6, … — the scale-down floor (last observed demand)
        // keeps every container from the latest wave warm even while the
        // lagging smoother under-predicts.
        for (r, n) in [2usize, 4, 6, 8, 10, 12].into_iter().enumerate() {
            let now = SimTime::from_secs(r as u64 * 30);
            drive_demand(&mut pool, &mut e, n, now);
            step(&mut ctl, &mut pool, &mut e, now);
        }
        let key = pool.intern_config(&cfg());
        assert_eq!(pool.num_avail_id(key), 12, "full last wave stays warm");
    }

    #[test]
    fn maybe_step_respects_interval() {
        let (mut e, mut pool, mut ctl) = setup();
        let mut due = |secs| {
            ctl.maybe_step(&mut pool, &mut e, SimTime::from_secs(secs))
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
        drive_demand(&mut pool, &mut e, 4, SimTime::ZERO);
        // Demand grew to four, but limit eviction took two of them back
        // before the step: the scale-down floor (what the interval needed)
        // is above what is left, so the step pre-warms the difference.
        for _ in 0..2 {
            pool.evict_oldest(&mut e, SimTime::ZERO).unwrap();
        }
        let report = step(&mut ctl, &mut pool, &mut e, SimTime::ZERO);
        assert_eq!(report.sized, 1);
        assert_eq!(report.actual_total, 4);
        assert!(report.predicted_total > 0.0);
        assert_eq!(report.prewarmed, 2, "report: {report:?}");
        assert_eq!(report.gc_keys, 0);
        // Drain the pool, then let the empty slot hit the GC threshold.
        while pool
            .evict_oldest(&mut e, SimTime::from_secs(1))
            .unwrap()
            .is_some()
        {}
        for t in 1..GC_INTERVALS {
            let report = step(&mut ctl, &mut pool, &mut e, SimTime::from_secs(t * 30));
            assert_eq!(report.gc_keys, 0, "report: {report:?}");
        }
        let report = step(
            &mut ctl,
            &mut pool,
            &mut e,
            SimTime::from_secs(GC_INTERVALS * 30),
        );
        assert_eq!(report.gc_keys, 1, "report: {report:?}");
    }

    /// Regression (unbounded predictor maps): when the pool GCs a dead
    /// slot, the controller drops its predictor in the same step — before
    /// the fix, every config ever seen kept a predictor (and a config clone)
    /// forever. No key needed it in that step, so it is not kept either.
    #[test]
    fn gc_drops_predictors_for_dead_keys() {
        let (mut e, mut pool, mut ctl) = setup();
        drive_demand(&mut pool, &mut e, 2, SimTime::ZERO);
        step(&mut ctl, &mut pool, &mut e, SimTime::ZERO);
        assert_eq!(ctl.state_count(), 1);
        // Empty the slot behind the controller's back, as eviction under
        // memory pressure does.
        while pool
            .evict_oldest(&mut e, SimTime::from_secs(1))
            .unwrap()
            .is_some()
        {}
        assert_eq!(pool.total_live(), 0);
        // GC_INTERVALS zero-demand steps on the empty slot reach the GC
        // threshold; the no-resurrect rule keeps the controller from
        // pre-warming it.
        for t in 1..=GC_INTERVALS {
            step(&mut ctl, &mut pool, &mut e, SimTime::from_secs(t * 30));
        }
        assert_eq!(pool.total_live(), 0, "dead key must not be resurrected");
        assert!(pool.keys().is_empty());
        assert_eq!(ctl.state_count(), 0, "predictor GC'd with the slot");
        assert!(ctl.spares.is_empty(), "a spare outlived its step");
    }

    /// A key the step sizes for the first time gets the predictor of a key
    /// the same step collected, reset: it is the predictor a fresh one fed
    /// the new key's demand would be. (That no predictor is built then is
    /// `alloc_budget`'s churn test: the allocator may hand a freed box's
    /// address straight back, so identity cannot show it here.)
    #[test]
    fn a_key_admitted_as_another_is_collected_gets_a_reset_predictor() {
        let (mut e, mut pool, mut ctl) = setup();
        for t in 0..8 {
            let now = SimTime::from_secs(t * 30);
            drive_demand(&mut pool, &mut e, 1 + t as usize % 3, now);
            step(&mut ctl, &mut pool, &mut e, now);
        }
        while pool
            .evict_oldest(&mut e, SimTime::from_secs(7 * 30 + 1))
            .unwrap()
            .is_some()
        {}
        for t in 8..7 + GC_INTERVALS {
            step(&mut ctl, &mut pool, &mut e, SimTime::from_secs(t * 30));
        }
        // The step that collects the first key is the new key's first.
        let now = SimTime::from_secs((7 + GC_INTERVALS) * 30);
        drive_config_demand(&mut pool, &mut e, &keyed(1), 1, now);
        assert_eq!(step(&mut ctl, &mut pool, &mut e, now).gc_keys, 1);
        let id = pool.intern_config(&keyed(1));
        let recycled = &ctl.keys[id.index()].predictor.as_ref().unwrap().model;
        assert_eq!((ctl.state_count(), ctl.spares.len()), (1, 0));
        let mut fresh = EsMarkov::with_params(0.8, INIT, REGIONS, WINDOW);
        fresh.observe(1.0);
        assert_eq!(format!("{recycled:?}"), format!("{fresh:?}"));
    }

    /// The step totals the telemetry samples are the sums over the step's
    /// sized keys, bit for bit as `Iterator::sum` gives them — so an empty
    /// step's predicted total is `-0.0`, not `+0.0`.
    #[test]
    fn step_totals_are_the_sums_over_the_sized_keys() {
        let (mut e, mut pool, mut ctl) = setup();
        let empty = step(&mut ctl, &mut pool, &mut e, SimTime::ZERO);
        assert_eq!(empty.predicted_total.to_bits(), (-0.0f64).to_bits());
        assert_eq!((empty.sized, empty.actual_total), (0, 0));
        for (t, n) in [3usize, 1, 0, 4, 2, 2, 0, 5].into_iter().enumerate() {
            let now = SimTime::from_secs(30 * (t as u64 + 1));
            for k in 0..n {
                drive_config_demand(&mut pool, &mut e, &keyed(k), n - k, now);
            }
            let report = step(&mut ctl, &mut pool, &mut e, now);
            assert_eq!(report.sized, ctl.demand.len());
            let predicted: f64 = ctl.demand.iter().map(|&(_, p, _)| p).sum();
            assert_eq!(report.predicted_total.to_bits(), predicted.to_bits());
            let actual: usize = ctl.demand.iter().map(|&(_, _, d)| d).sum();
            assert_eq!(report.actual_total, actual);
        }
        assert!(ctl.demand.len() > 1, "the last step sized several keys");
    }

    /// Keys that all need a pre-warm in one control step get their new
    /// containers in `KeyId` order: ids ascend with the key, so the
    /// `(created_at, id)` eviction order among them is a function of the
    /// model, not of how the pool stores its keys.
    #[test]
    fn same_step_prewarms_receive_ids_in_key_order() {
        let (mut e, mut pool, mut ctl) = setup();
        let configs: Vec<ContainerConfig> = (0..10).map(keyed).collect();
        // Every key needed two runtimes this interval and has one left.
        for c in &configs {
            drive_config_demand(&mut pool, &mut e, c, 2, SimTime::ZERO);
            let id = pool.intern_config(c);
            pool.retire_one_id(&mut e, id, SimTime::ZERO).unwrap();
        }
        let at = SimTime::from_secs(30);
        assert_eq!(
            step(&mut ctl, &mut pool, &mut e, at).prewarmed,
            configs.len()
        );
        let prewarmed_keys: Vec<KeyId> = e
            .live_ids_oldest_first()
            .into_iter()
            .filter(|&c| e.created_at(c) == Some(at))
            .map(|c| pool.intern_config(e.config(c).unwrap()))
            .collect();
        let in_key_order: Vec<KeyId> = configs.iter().map(|c| pool.intern_config(c)).collect();
        assert_eq!(prewarmed_keys, in_key_order);
    }

    /// Serves one request on `config`, then steps until the key is held at
    /// one idle container (the smoother seeds on its fifth observation).
    /// Returns the interval index of the first step that has not run yet.
    fn settle_into_hold(
        ctl: &mut AdaptiveController,
        pool: &mut RuntimePool,
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
        assert_eq!(step(ctl, pool, engine, SimTime::from_secs(180)).sized, 0);
        for c in configs {
            assert!(pool.is_parked(pool.id_for(c).unwrap()), "parked once held");
        }
        7
    }

    /// The keys the last step sized, in order.
    fn visited(ctl: &AdaptiveController) -> Vec<KeyId> {
        ctl.demand.iter().map(|&(id, _, _)| id).collect()
    }

    /// One wake source against two parked keys: `wake` changes the first
    /// key's pool at interval `t`, and the step at `t` visits that key and
    /// only it — its quiet neighbour stays parked, unvisited, through that
    /// step and the next. Returns the woken step's report.
    fn woken_key_is_visited_in_the_next_step(
        wake: impl FnOnce(&mut RuntimePool, &mut ContainerEngine, &ContainerConfig, SimTime),
    ) -> StepReport {
        let (mut e, mut pool, mut ctl) = setup();
        let configs = [keyed(0), keyed(1)];
        let t = settle_into_hold(&mut ctl, &mut pool, &mut e, &configs);
        let [woken, quiet] = configs.each_ref().map(|c| pool.intern_config(c));
        let now = SimTime::from_secs(t * 30);
        wake(&mut pool, &mut e, &configs[0], now);
        assert!(!pool.is_parked(woken), "the change woke the key");
        let report = step(&mut ctl, &mut pool, &mut e, now);
        assert_eq!(visited(&ctl), [woken]);
        assert!(pool.is_parked(quiet), "the quiet key was visited");
        for t in t + 1..t + 3 {
            step(&mut ctl, &mut pool, &mut e, SimTime::from_secs(t * 30));
            assert!(
                pool.is_parked(quiet),
                "interval {t}: the quiet key was visited"
            );
        }
        report
    }

    /// A request on a parked key wakes it: the first warm acquire of the
    /// interval sets its wake bit, and the step reports its demand.
    #[test]
    fn warm_request_wakes_a_parked_key() {
        let report = woken_key_is_visited_in_the_next_step(|pool, e, c, now| {
            drive_config_demand(pool, e, c, 1, now);
        });
        assert_eq!(report.actual_total, 1);
    }

    /// A hold covers one pool size. When limit enforcement evicts a held
    /// key's container, the very next step visits the key again — without
    /// resurrecting it.
    #[test]
    fn eviction_behind_a_hold_wakes_the_key() {
        let report = woken_key_is_visited_in_the_next_step(|pool, e, _, now| {
            let (_, evicted) = crate::PoolLimits::new(1, 0.8)
                .enforce(pool, e, now)
                .unwrap();
            assert_eq!(evicted, 1, "the older key lost its runtime");
        });
        assert_eq!(
            (report.prewarmed, report.retired),
            (0, 0),
            "no resurrection"
        );
    }

    /// A request whose container crashes leaves the key one runtime short:
    /// the step visits it and pre-warms the runtime back.
    #[test]
    fn crashed_release_wakes_the_key() {
        let report = woken_key_is_visited_in_the_next_step(|pool, e, c, now| {
            crash_config_demand(pool, e, c, 1, now);
            assert_eq!(pool.num_avail_id(pool.id_for(c).unwrap()), 0);
        });
        assert_eq!((report.actual_total, report.prewarmed), (1, 1));
    }

    /// Steps from interval `t` on while `ids` are held: no step visits
    /// them and they stay parked until the first tick past their (common)
    /// hold, whose step visits exactly them.
    fn parked_until_hold_ends(
        ctl: &mut AdaptiveController,
        pool: &mut RuntimePool,
        engine: &mut ContainerEngine,
        t: u64,
        ids: &[KeyId],
    ) {
        let end = ctl.keys[ids[0].index()].hold_until + 1;
        for id in ids {
            let slot = &ctl.keys[id.index()];
            assert_eq!(slot.hold_until + 1, end, "twin histories, twin holds");
        }
        // Interval `t` runs tick `first`.
        let first = ctl.ticks + 1;
        let at = |tick: u64| SimTime::from_secs((t + tick - first) * 30);
        for tick in first..end {
            assert_eq!(step(ctl, pool, engine, at(tick)).sized, 0);
            assert!(ids.iter().all(|&id| pool.is_parked(id)), "tick {tick}");
        }
        step(ctl, pool, engine, at(end));
        assert_eq!(visited(ctl), ids);
    }

    /// A hold that runs out is due: the step at the first tick past it
    /// visits the key, and no step before it does.
    #[test]
    fn hold_expiry_visits_the_key_at_its_due_tick() {
        let (mut e, mut pool, mut ctl) = setup();
        let configs = [keyed(0), keyed(1)];
        let t = settle_into_hold(&mut ctl, &mut pool, &mut e, &configs);
        let ids = configs.each_ref().map(|c| pool.intern_config(c));
        parked_until_hold_ends(&mut ctl, &mut pool, &mut e, t, &ids);
    }

    /// A request ends a key's hold and the step after holds it anew: the
    /// key is visited at the new hold's end, whichever side of the key's
    /// live expiry entry that end falls on. Later (what renewals do): the
    /// entry moves there when it pops. Earlier: the renewal files an entry
    /// of its own — real renewals rarely end earlier, so with `late` the
    /// test plants a live entry past any hold first.
    fn renewed_hold_is_due_at_its_new_end(late: bool) {
        let (mut e, mut pool, mut ctl) = setup();
        let t = settle_into_hold(&mut ctl, &mut pool, &mut e, &[cfg()]);
        let id = pool.intern_config(&cfg());
        let mut live_end = ctl.keys[id.index()].hold_until + 1;
        if late {
            live_end = ctl.ticks + 10 * WINDOW as u64;
            ctl.keys[id.index()].queued = live_end;
            ctl.expiries.push(Reverse((live_end, id)));
        }
        drive_demand(&mut pool, &mut e, 1, SimTime::from_secs(t * 30));
        for t in t..t + 2 {
            step(&mut ctl, &mut pool, &mut e, SimTime::from_secs(t * 30));
            assert_eq!(visited(&ctl), [id]);
        }
        let new_end = ctl.keys[id.index()].hold_until + 1;
        assert_eq!(
            new_end < live_end,
            late,
            "renewed to {new_end}, entry at {live_end}"
        );
        parked_until_hold_ends(&mut ctl, &mut pool, &mut e, t + 2, &[id]);
    }

    #[test]
    fn renewed_hold_ending_later_is_due_at_its_new_end() {
        renewed_hold_is_due_at_its_new_end(false);
    }

    #[test]
    fn renewed_hold_ending_earlier_is_due_at_its_new_end() {
        renewed_hold_is_due_at_its_new_end(true);
    }

    /// A request inside a hold ends it: the step after reports the key's
    /// demand, and the predictor has every skipped zero before it.
    #[test]
    fn key_touched_mid_hold_reports_its_demand() {
        let (mut e, mut pool, mut ctl) = setup();
        let t = settle_into_hold(&mut ctl, &mut pool, &mut e, &[cfg()]);
        let id = pool.intern_config(&cfg());
        for t in t..t + 20 {
            let report = step(&mut ctl, &mut pool, &mut e, SimTime::from_secs(t * 30));
            assert_eq!(report.sized, 0);
        }
        let now = SimTime::from_secs((t + 20) * 30);
        drive_demand(&mut pool, &mut e, 1, now);
        let report = step(&mut ctl, &mut pool, &mut e, now);
        assert_eq!(report.actual_total, 1);
        assert_eq!(visited(&ctl), [id]);
        assert_eq!(
            model(&ctl.keys[id.index()]).unwrap().observations() as u64,
            t + 21,
            "one per interval"
        );
    }

    /// The pool GCs a held key whose container was evicted; the hold goes
    /// with the predictor, so a revived key (same `KeyId`) starts clean.
    #[test]
    fn gc_clears_the_hold_with_the_predictor() {
        let (mut e, mut pool, mut ctl) = setup();
        let t = settle_into_hold(&mut ctl, &mut pool, &mut e, &[cfg()]);
        let id = pool.intern_config(&cfg());
        pool.evict_oldest(&mut e, SimTime::from_secs(t * 30))
            .unwrap();
        let gc: usize = (t..t + GC_INTERVALS)
            .map(|t| step(&mut ctl, &mut pool, &mut e, SimTime::from_secs(t * 30)).gc_keys)
            .sum();
        assert_eq!(gc, 1);
        let slot = &ctl.keys[id.index()];
        assert_eq!((slot.hold_until, slot.predictor.is_none()), (0, true));
        assert_eq!(ctl.state_count(), 0);
    }

    /// An idle fleet is what a hold is for: 400 keys that each served one
    /// request and then sit on one warm container are passed over on at
    /// least nine in ten of the step's idle visits.
    #[test]
    fn idle_fleet_is_mostly_skipped() {
        let (mut e, mut pool, mut ctl) = setup();
        let configs: Vec<ContainerConfig> = (0..400).map(keyed).collect();
        for c in &configs {
            drive_config_demand(&mut pool, &mut e, c, 1, SimTime::ZERO);
        }
        step(&mut ctl, &mut pool, &mut e, SimTime::ZERO);
        // Every key here is idle: the ones the report leaves out were
        // parked or passed over.
        let (mut met, mut skipped) = (0, 0);
        for t in 1..500 {
            let pooled = pool.total_available();
            let sized = step(&mut ctl, &mut pool, &mut e, SimTime::from_secs(t * 30)).sized;
            met += pooled;
            skipped += pooled.saturating_sub(sized);
        }
        assert!(met >= 400 * 400, "the fleet stayed pooled: {met}");
        assert!(
            skipped * 10 >= met * 9,
            "{skipped} of {met} idle visits skipped"
        );
    }

    /// Holds are decision-neutral: on any shared trace and under every
    /// policy, `step` and the never-holding `step_full` take the same
    /// prewarm/retire/GC actions at every interval, pay the same background
    /// cost, leave the same pool and — once one common `step_full` has made
    /// both visit every key — the same predictor state, bit for bit. Short
    /// traces with traffic every interval, and sparse traffic over 50–600
    /// intervals (so that holds are taken, run out, and are cut short by
    /// every wake source behind the controller's back: requests, crashed
    /// releases, prewarms, retires and limit evictions). Only `EsMarkov`
    /// holds; the baselines never do.
    #[test]
    fn prop_step_matches_full_sweep() {
        for policy in policies() {
            testkit::check(48, |g| {
                step_matches_full_sweep(g, &policy, 3..10, 1);
            });
            let mut held = 0;
            testkit::check(32, |g| {
                held += step_matches_full_sweep(g, &policy, 50..601, 12);
            });
            if let ScalingPolicy::EsMarkov(_) = policy {
                assert!(held > 1000, "holds were taken: {held} skips");
            } else {
                assert_eq!(held, 0, "{policy:?} held a key");
            }
        }
    }

    /// One case of the property above, over `intervals` intervals with
    /// traffic in one in `quiet` of them; returns `step`'s skips.
    fn step_matches_full_sweep(
        g: &mut testkit::Gen,
        policy: &ScalingPolicy,
        intervals: std::ops::Range<usize>,
        quiet: u8,
    ) -> usize {
        let mut held = 0;
        let intervals = g.usize_in(intervals);
        let configs: Vec<ContainerConfig> = (0..4).map(keyed).collect();
        let (mut ef, mut pf, mut cf) = setup_with(policy.clone());
        let (mut ed, mut pd, mut cd) = setup_with(policy.clone());
        for t in 0..=intervals {
            let now = SimTime::from_secs(t as u64 * 30);
            let ops = if t == 0 || g.u8_in(0..quiet) == 0 {
                g.vec(1..4, |g| {
                    (g.usize_in(0..4), g.u8_in(0..6), g.usize_in(1..4))
                })
            } else {
                Vec::new()
            };
            for (ci, op, n) in ops {
                let c = &configs[ci];
                for (p, e) in [(&mut pf, &mut ef), (&mut pd, &mut ed)] {
                    match op {
                        0 | 1 => drive_config_demand(p, e, c, n, now),
                        2 => {
                            p.prewarm(e, c, now).unwrap();
                        }
                        3 => {
                            if let Some(id) = p.id_for(c) {
                                p.retire_one_id(e, id, now).unwrap();
                            }
                        }
                        // Limit enforcement, whichever key holds the oldest.
                        4 => {
                            for _ in 0..n {
                                p.evict_oldest(e, now).unwrap();
                            }
                        }
                        _ => crash_config_demand(p, e, c, n, now),
                    }
                }
            }
            let rf = cf.step_full(&mut pf, &mut ef, now).unwrap();
            let tracked = pd.keys().len();
            // The last interval is the common full sweep.
            let rd = if t == intervals {
                cd.step_full(&mut pd, &mut ed, now).unwrap()
            } else {
                step(&mut cd, &mut pd, &mut ed, now)
            };
            assert_eq!(rf.prewarmed, rd.prewarmed, "interval {t}: prewarm diverged");
            assert_eq!(rf.retired, rd.retired, "interval {t}: retire diverged");
            assert_eq!(rf.gc_keys, rd.gc_keys, "interval {t}: GC diverged");
            // The tracked keys neither GC'd nor reported were parked or
            // passed over under a hold.
            held += tracked - rd.gc_keys - rd.sized;
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
        assert_eq!(cf.state_count(), cd.state_count());
        assert_eq!(cf.background_cost(), cd.background_cost());
        assert!(cf.keys.iter().all(|s| s.hold_until == 0), "a sweep held");
        assert_eq!(cf.keys.len(), cd.keys.len());
        for (f, d) in cf.keys.iter().zip(&cd.keys) {
            let debug = |s| model(s).map(|m| format!("{m:?}"));
            assert_eq!(debug(f), debug(d));
        }
        held
    }

    /// Fig. 1's cadence: a batch every 30 minutes, steps every 60 s. A
    /// 15-minute window is 15 minutes of simulated time, not 30 steps'
    /// worth of the 30 s control interval — so the runtime is retired inside
    /// the gap and the next batch's first request is cold again.
    #[test]
    fn keep_alive_window_is_simulated_time_not_steps() {
        let policy = ScalingPolicy::KeepAlive(SimDuration::from_mins(15));
        let (mut e, mut pool, mut ctl) = setup_with(policy);
        let id = pool.intern_config(&cfg());
        for minute in 0..120u64 {
            let now = SimTime::from_secs(minute * 60);
            if minute % 30 == 0 {
                assert_eq!(
                    pool.num_avail_id(id),
                    0,
                    "minute {minute}: batch starts cold"
                );
                drive_demand(&mut pool, &mut e, 1, now);
            }
            let report = step(&mut ctl, &mut pool, &mut e, now);
            assert_eq!(report.prewarmed, 0);
            let kept = usize::from(minute % 30 <= 15);
            assert_eq!(pool.num_avail_id(id), kept, "minute {minute}");
        }
    }

    /// The port of the hybrid policy's rare-type test: a key invoked every
    /// 30 minutes is retired after the default 10-minute window and its slot
    /// garbage-collected — three times, while its gap history survives each
    /// GC — until three gaps teach it a 33-minute window; from then on it is
    /// warm at its cadence.
    #[test]
    fn hybrid_gap_history_survives_slot_gc() {
        let (mut e, mut pool, mut ctl) = setup_with(ScalingPolicy::Hybrid);
        let id = pool.intern_config(&cfg());
        let (mut warm, mut gc) = (Vec::new(), 0);
        for t in 0..8 * 60u64 {
            let now = SimTime::from_secs(t * 30);
            if t % 60 == 0 {
                warm.push(pool.num_avail_id(id) == 1);
                drive_demand(&mut pool, &mut e, 1, now);
            }
            gc += step(&mut ctl, &mut pool, &mut e, now).gc_keys;
        }
        assert_eq!(warm, [false, false, false, false, true, true, true, true]);
        assert_eq!(gc, 3);
    }

    /// The learned window needs three gaps and stays inside its clamps.
    #[test]
    fn learned_ttl_defaults_then_clamps() {
        let mut history = TypeHistory::default();
        for _ in 0..2 {
            history.record_gap(SimDuration::from_mins(180));
        }
        assert_eq!(history.learned_ttl(), DEFAULT_TTL, "two gaps");
        history.record_gap(SimDuration::from_mins(180));
        assert_eq!(history.learned_ttl(), MAX_TTL);
        for _ in 0..GAP_WINDOW {
            history.record_gap(SimDuration::from_secs(1));
        }
        assert_eq!(history.learned_ttl(), MIN_TTL);
    }

    /// The ring buffer and its incrementally sorted twin keep the exact
    /// sliding-window semantics of a `Vec::remove(0)` + clone-and-sort
    /// window: once it wraps, the oldest gap leaves both views and
    /// `learned_ttl` equals a from-scratch sort of the surviving window.
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
            assert!(history.gaps.iter().eq(&naive), "ring diverged at {i}");
            let naive_history = TypeHistory {
                gaps: naive.iter().copied().collect(),
                sorted: resorted,
                last_seen: None,
            };
            assert_eq!(history.learned_ttl(), naive_history.learned_ttl());
        }
        assert_eq!(history.gaps.len(), GAP_WINDOW);
    }

    /// Periodic warm-up pays one ping per available runtime per elapsed
    /// period, carrying a partial period over, and retires nothing.
    #[test]
    fn keep_all_pays_one_ping_per_available_runtime_per_period() {
        let policy = ScalingPolicy::KeepAll {
            ping: Some(SimDuration::from_mins(5)),
        };
        let (mut e, mut pool, mut ctl) = setup_with(policy);
        drive_demand(&mut pool, &mut e, 3, SimTime::ZERO);
        let mut pings_at = |minute: u64| {
            step(&mut ctl, &mut pool, &mut e, SimTime::from_secs(minute * 60));
            ctl.background_cost().div_duration(PING_COST)
        };
        assert_eq!(pings_at(1), 0, "inside the first period");
        assert_eq!(pings_at(21), 4 * 3, "four periods, three runtimes");
        assert_eq!(pings_at(24), 4 * 3, "the fifth period has not ended");
        assert_eq!(pings_at(25), 5 * 3);
        assert_eq!(pool.total_available(), 3);
    }

    /// Crash disposal is not refilled: under fault injection, over random
    /// traffic on three keys, no baseline step ever pre-warms.
    #[test]
    fn prop_baselines_never_prewarm_under_crashes() {
        for policy in &policies()[1..] {
            testkit::check(16, |g| {
                let (mut e, mut pool, mut ctl) = setup_with(policy.clone());
                e.set_fault_injection(0.3, g.u64_in(0..1000));
                for t in 0..g.u64_in(10..80) {
                    let now = SimTime::from_secs(t * 30);
                    for _ in 0..g.usize_in(0..3) {
                        let c = keyed(g.usize_in(0..3));
                        drive_config_demand(&mut pool, &mut e, &c, g.usize_in(1..5), now);
                    }
                    let report = step(&mut ctl, &mut pool, &mut e, now);
                    assert_eq!(report.prewarmed, 0, "{policy:?} at step {t}");
                }
            });
        }
    }
}
