//! The runtime pool (§IV-B, Fig. 7).
//!
//! The paper's pool is one key-value store in front of one container daemon,
//! and so is this one: [`RuntimePool`] is single-owner state, driven through
//! `&mut` by the one [`crate::HotC`] that owns it, with the engine handed in
//! as `&mut ContainerEngine` by the calls that create or tear down a
//! container. It interns each configuration into a dense [`KeyId`] and
//! keeps every key's containers in that key's slot array — a chain of fixed
//! [`SLOTS_PER_KEY`]-slot chunks that grows by one chunk whenever every slot
//! is occupied — indexed by three bitsets per chunk (`free`, `avail` and
//! `in_use`), so a warm acquire is a lowest-set-bit search plus a
//! container-id load, and a warm release a hash probe plus two bit flips.
//! Every container of a key lives in that array, whatever the population.
//!
//! Global eviction walks **one age index**: the pool keeps its containers
//! (available *and* in use) ordered by `(created_at, id)`, updated at the
//! five places that change the live count (cold start, prewarm,
//! crashed-release disposal, retire, evict). An eviction takes the oldest
//! entry whose container is available; in-use ones are passed over.
//!
//! The pool's bookkeeping invariants (enforced by the property tests):
//!
//! * `total_live() == engine.live_count()` when every container came from
//!   the pool, and the age index holds exactly the live containers;
//! * a slot index is in `avail` or `in_use`, never both; a container is
//!   owned by at most one request at a time (the `in_use` bit is the
//!   ownership token a release must find set);
//! * a slot exists only while its key holds a container, saw demand in the
//!   current control interval, or went cold fewer than `GC_INTERVALS` (3)
//!   demand snapshots ago — failed creates never materialize slots, and
//!   long-dead slots are garbage collected together with their controller
//!   state;
//! * a demand snapshot visits a key only if it is *unparked*, its hold
//!   ends at this step, or it was *woken* since the last snapshot. A control
//!   step parks the keys it holds (idle, at their target); every change to
//!   a parked key's sample wakes it — the first acquire of an interval (the
//!   one that finds the watermark at 0) and every occupancy change. So a
//!   step costs O(keys that changed + holds that end), and a parked key
//!   nothing.

use crate::key::{needs_reconfig, KeyId, KeyInterner, KeyPolicy, FUZZY_RECONFIG_COST};
use containersim::{ContainerConfig, ContainerEngine, ContainerId, ContainerState, EngineError};
use faas::Acquisition;
use simclock::{SimDuration, SimTime};
use std::collections::BTreeSet;
use std::sync::Arc;
use stdshim::FastMap;

/// Consecutive zero-demand snapshots after which an empty slot is garbage
/// collected.
pub(crate) const GC_INTERVALS: u64 = 3;

/// Slots per chunk of a key's slot array. A key starts with one chunk and
/// appends another whenever all its slots are occupied. Most keys hold one
/// to three containers, so a chunk is sized to them (136 B), not to a burst.
const SLOTS_PER_KEY: usize = 16;

/// One chunk's slots as bits: bit `b` is the chunk's slot `b`.
type SlotBits = u16;

/// The container a slot entry names, or `None` for an empty slot (engine ids
/// start at 1, so 0 is free to mean "empty").
fn entry_container(entry: u64) -> Option<ContainerId> {
    (entry != 0).then_some(ContainerId(entry))
}

/// Slot index `i`'s chunk and its bit there.
fn locate(i: usize) -> (usize, SlotBits) {
    (i / SLOTS_PER_KEY, 1 << (i % SLOTS_PER_KEY))
}

/// Sets `id`'s bit in a per-key bitmap, growing it as needed.
fn set_key_bit(bits: &mut Vec<u64>, id: KeyId) {
    let w = id.index() / 64;
    if bits.len() <= w {
        bits.resize(w + 1, 0);
    }
    bits[w] |= 1 << (id.index() % 64);
}

/// One fixed run of [`SLOTS_PER_KEY`] slots of a key's slot array. A slot
/// is `free`, or occupied and then exactly one of `avail` and `in_use`;
/// while it is occupied its entry names the same container.
#[derive(Debug)]
struct SlotChunk {
    /// The container id per slot; 0 = empty.
    entries: [u64; SLOTS_PER_KEY],
    /// Set = slot unoccupied.
    free: SlotBits,
    /// Set = warm container ready to claim (Existing-Available).
    avail: SlotBits,
    /// Set = handed out (Existing-Not-Available). The bit is the ownership
    /// token: a release must find it set, so double releases are rejected.
    in_use: SlotBits,
}

impl SlotChunk {
    fn new() -> SlotChunk {
        SlotChunk {
            entries: [0; SLOTS_PER_KEY],
            free: SlotBits::MAX,
            avail: 0,
            in_use: 0,
        }
    }
}

/// One key's slot array ([Fig. 7]'s value list) and the demand bookkeeping
/// the adaptive controller feeds on. Slot index `i` is bit
/// `i % SLOTS_PER_KEY` of chunk `i / SLOTS_PER_KEY`; every walk goes lowest
/// index first, so a key that never holds more than one chunk's worth never
/// leaves the first.
#[derive(Debug, Default)]
struct KeySlots {
    /// Appended when every slot is occupied and never freed: a key that
    /// once burst keeps its chunks, across slot GC too.
    chunks: Vec<SlotChunk>,
    /// In-use containers of this key.
    in_use_total: usize,
    /// Peak `in_use_total` since the last demand snapshot — the
    /// `history[k][t]` series the adaptive controller feeds the predictor.
    watermark: usize,
    /// The snapshot sequence number at which this slot went empty with zero
    /// demand, if it is currently cold; the slot is GC'd once it stays cold
    /// for [`GC_INTERVALS`] snapshots. A snapshot that finds demand or a
    /// container clears it.
    cold_since: Option<u64>,
    /// `Some` while the pool tracks the key — from its first container
    /// until the demand snapshot that garbage-collects its slot: a
    /// representative configuration, kept so the controller can pre-warm by
    /// key alone. Every container the pool boots with this exact
    /// configuration hands the engine this `Arc`, so the key's containers
    /// share one copy — the interner's, whenever the request that made the
    /// slot had the key's first configuration (always under exact keys), so
    /// it outlives the slot's GC.
    config: Option<Arc<ContainerConfig>>,
}

impl KeySlots {
    /// Occupied slots.
    fn occupied(&self) -> usize {
        let free: u32 = self.chunks.iter().map(|c| c.free.count_ones()).sum();
        self.chunks.len() * SLOTS_PER_KEY - free as usize
    }

    /// Available containers.
    fn avail_count(&self) -> usize {
        self.chunks
            .iter()
            .map(|c| c.avail.count_ones() as usize)
            .sum()
    }

    /// Whether slot `i` holds an available container.
    fn is_avail(&self, i: usize) -> bool {
        let (c, bit) = locate(i);
        self.chunks[c].avail & bit != 0
    }

    /// The container slot `i`'s entry names, if the slot is occupied.
    fn container_at(&self, i: usize) -> Option<ContainerId> {
        entry_container(self.chunks[i / SLOTS_PER_KEY].entries[i % SLOTS_PER_KEY])
    }

    /// The lowest slot index whose bit is set in `bits` of its chunk.
    fn lowest(&self, bits: impl Fn(&SlotChunk) -> SlotBits) -> Option<usize> {
        self.chunks.iter().enumerate().find_map(|(c, chunk)| {
            let set = bits(chunk);
            (set != 0).then(|| c * SLOTS_PER_KEY + set.trailing_zeros() as usize)
        })
    }

    /// Counts an acquisition into the demand bookkeeping. Returns whether
    /// it is the interval's first — the one that finds the watermark at 0,
    /// where a snapshot that found the key idle left it — which wakes the
    /// key.
    fn note_acquire(&mut self) -> bool {
        self.in_use_total += 1;
        let first = self.watermark == 0;
        self.watermark = self.watermark.max(self.in_use_total);
        first
    }

    /// The key's `(demand, avail, in_use)` for the interval ending now,
    /// resetting the watermark to what is still in use.
    fn sample(&mut self) -> (usize, usize, usize) {
        let in_use = self.in_use_total;
        let demand = std::mem::replace(&mut self.watermark, in_use).max(in_use);
        (demand, self.avail_count(), in_use)
    }

    /// Warm claim: the lowest available slot moves to in use. Returns its
    /// container and whether the acquire wakes the key.
    fn claim_warm(&mut self) -> Option<(ContainerId, bool)> {
        let i = self.lowest(|c| c.avail)?;
        let (c, bit) = locate(i);
        let chunk = &mut self.chunks[c];
        chunk.avail &= !bit;
        chunk.in_use |= bit;
        let container = entry_container(chunk.entries[i % SLOTS_PER_KEY]);
        debug_assert!(container.is_some(), "avail bit over an empty slot");
        Some((container?, self.note_acquire()))
    }

    /// Puts a just-created container into the lowest unoccupied slot,
    /// appending a chunk when every slot is occupied, in use (cold start)
    /// or available (prewarm). Returns the slot index.
    fn publish(&mut self, container: ContainerId, in_use: bool) -> usize {
        let i = self.lowest(|c| c.free).unwrap_or_else(|| {
            // Exactly: `Vec`'s first growth would hold four chunks.
            self.chunks.reserve_exact(1);
            self.chunks.push(SlotChunk::new());
            (self.chunks.len() - 1) * SLOTS_PER_KEY
        });
        let (c, bit) = locate(i);
        let chunk = &mut self.chunks[c];
        chunk.entries[i % SLOTS_PER_KEY] = container.0;
        chunk.free &= !bit;
        if in_use {
            chunk.in_use |= bit;
            self.note_acquire();
        } else {
            chunk.avail |= bit;
        }
        i
    }

    /// Whether slot `i`'s container is handed out.
    fn is_in_use(&self, i: usize) -> bool {
        let (c, bit) = locate(i);
        self.chunks[c].in_use & bit != 0
    }

    /// Returns an in-use slot's container to the warm pool.
    fn hand_back(&mut self, i: usize) {
        let (c, bit) = locate(i);
        let chunk = &mut self.chunks[c];
        chunk.in_use &= !bit;
        chunk.avail |= bit;
        self.in_use_total -= 1;
    }

    /// Empties slot `i`, in use or available.
    fn dispose(&mut self, i: usize) {
        let (c, bit) = locate(i);
        let chunk = &mut self.chunks[c];
        if chunk.in_use & bit != 0 {
            self.in_use_total -= 1;
        }
        chunk.entries[i % SLOTS_PER_KEY] = 0;
        chunk.avail &= !bit;
        chunk.in_use &= !bit;
        chunk.free |= bit;
    }
}

/// A pooled container's age-index key and its place in the pool: its key
/// and slot index, both fixed for the container's whole pool tenure.
#[derive(Debug, Clone, Copy)]
struct Pooled {
    created_at: SimTime,
    key: KeyId,
    slot: usize,
}

/// One key's demand sample within a [`DemandSnapshot`]. Carries the slot's
/// live population as the snapshot saw it, so the controller sizes the key
/// without asking the pool again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct KeyDemand {
    /// The runtime key.
    pub id: KeyId,
    /// Peak concurrent use over the interval (`history[k][t]`).
    pub demand: usize,
    /// Available containers at snapshot time.
    pub avail: usize,
    /// In-use containers at snapshot time.
    pub in_use: usize,
}

impl KeyDemand {
    /// Total live containers (available + in use) at snapshot time.
    pub fn live(&self) -> usize {
        self.avail + self.in_use
    }
}

/// One control interval's demand snapshot: per-key demand for the
/// controller, plus the keys whose empty slots were garbage collected in
/// this snapshot (the controller drops their predictors).
#[derive(Debug, Clone, Default)]
pub(crate) struct DemandSnapshot {
    /// `history[k][t]` entries for the interval, sorted by key id.
    pub demands: Vec<KeyDemand>,
    /// Keys GC'd by this snapshot, sorted.
    pub retired: Vec<KeyId>,
}

/// The HotC container pool (Algorithms 1–2).
///
/// ```
/// use containersim::{ContainerConfig, ContainerEngine, HardwareProfile, ImageId};
/// use hotc::{KeyPolicy, RuntimePool};
/// use simclock::SimTime;
///
/// let mut engine = ContainerEngine::with_local_images(HardwareProfile::server());
/// let mut pool = RuntimePool::new(KeyPolicy::Exact);
/// let config = ContainerConfig::bridge(ImageId::parse("python:3.8-alpine"));
///
/// // Algorithm 1: first acquire cold-starts, …
/// let first = pool.acquire(&mut engine, &config, SimTime::ZERO).unwrap();
/// assert!(first.cold);
/// # let out = engine.begin_exec(first.container,
/// #     containersim::engine::ExecWork::light(simclock::SimDuration::from_millis(1)),
/// #     SimTime::ZERO).unwrap();
/// # engine.end_exec(first.container, SimTime::ZERO + out.latency).unwrap();
/// // … Algorithm 2 cleans and re-pools, and the next acquire reuses.
/// pool.release(&mut engine, first.container, SimTime::from_secs(1))
///     .unwrap();
/// let second = pool
///     .acquire(&mut engine, &config, SimTime::from_secs(2))
///     .unwrap();
/// assert!(!second.cold);
/// assert_eq!(second.container, first.container);
/// ```
#[derive(Debug)]
pub struct RuntimePool {
    policy: KeyPolicy,
    /// Interns configurations into dense [`KeyId`]s; the slot arrays, the
    /// controller, and the gateway all key on the id.
    interner: KeyInterner,
    /// Dense key id → that key's slot array, created with the key's first
    /// container and kept across slot GC: its counters are zero while the
    /// key is untracked, and a revived key reuses the same chunks.
    keys: Vec<KeySlots>,
    /// One bit per [`KeyId`]: set = the next demand snapshot visits the key
    /// whether or not it is woken. Set when a key becomes tracked and by
    /// every snapshot that visits it; cleared when a control step parks the
    /// key or GC drops it.
    unparked: Vec<u64>,
    /// One bit per [`KeyId`]: set = the key may have changed since the last
    /// demand snapshot, which drains the bits and visits every woken key,
    /// parked or not. Set by a key's first acquire of an interval and by
    /// every occupancy change.
    woken: Vec<u64>,
    /// Snapshot sequence number (one per demand snapshot).
    seq: u64,
    /// The pooled containers (available *and* in use) ordered by
    /// `(created_at, id)` — the eviction order. Inserted and removed where
    /// the live count changes; warm claims and hand-backs change
    /// availability, not membership, and never touch it.
    ages: BTreeSet<(SimTime, ContainerId)>,
    /// Every pooled container's age-index key and slot: the reverse index a
    /// release resolves its container through without touching the engine
    /// or the interner. `pooled.len()` is [`Self::total_live`].
    pooled: FastMap<ContainerId, Pooled>,
    /// Bumped by every operation that may change warm availability
    /// (acquire, release, prewarm, retire, evict). External indexes over
    /// this pool's warm state — the cluster placement index — compare it to
    /// decide whether a resync is due, so an idle pool costs them one read.
    /// A bump without an actual change (e.g. a failed cold start) only
    /// causes a spurious resync, never a stale read.
    mutation_epoch: u64,
}

impl RuntimePool {
    /// Creates an empty pool.
    pub fn new(policy: KeyPolicy) -> Self {
        RuntimePool {
            policy,
            interner: KeyInterner::new(policy),
            keys: Vec::new(),
            unparked: Vec::new(),
            woken: Vec::new(),
            seq: 0,
            ages: BTreeSet::new(),
            pooled: FastMap::default(),
            mutation_epoch: 0,
        }
    }

    /// Monotonic counter of warm-availability-affecting operations. Equal
    /// epochs guarantee warm counts have not changed since the last read;
    /// unequal epochs mean "maybe changed, rescan".
    pub fn mutation_epoch(&self) -> u64 {
        self.mutation_epoch
    }

    /// Visits every key with at least one available (warm) container,
    /// yielding `(id, available_count)` in `KeyId` order.
    pub fn for_each_warm(&self, mut f: impl FnMut(KeyId, usize)) {
        for (index, ks) in self.keys.iter().enumerate() {
            let avail = ks.avail_count();
            if avail > 0 {
                f(KeyId::from_index(index as u32), avail);
            }
        }
    }

    /// The key policy in force.
    pub fn policy(&self) -> KeyPolicy {
        self.policy
    }

    /// Interns a configuration, returning its stable [`KeyId`] under this
    /// pool's policy. Steady-state calls hash only the key-relevant config
    /// fields — nothing is allocated.
    pub fn intern_config(&mut self, config: &ContainerConfig) -> KeyId {
        self.interner.intern(config)
    }

    /// [`Self::intern_config`] for a configuration behind an `Arc`: a new
    /// key keeps that `Arc` as its configuration, so the caller and the
    /// pool share one copy.
    pub fn intern_shared(&mut self, config: &Arc<ContainerConfig>) -> KeyId {
        self.interner.intern_shared(config)
    }

    /// The id of `config`'s key if the pool has seen a configuration with
    /// that key. Interns nothing, so the pool's id order is left alone.
    pub fn id_for(&self, config: &ContainerConfig) -> Option<KeyId> {
        self.interner.get(config)
    }

    /// The configuration first interned under an id this pool issued —
    /// the interner's own copy, shared.
    pub fn key_config(&self, id: KeyId) -> Option<Arc<ContainerConfig>> {
        self.interner.config(id)
    }

    /// `id`'s slot array, if the key ever held a container.
    fn slots(&self, id: KeyId) -> Option<&KeySlots> {
        self.keys.get(id.index())
    }

    /// `id`'s representative configuration, if the pool tracks the key.
    fn tracked(&self, id: KeyId) -> Option<&Arc<ContainerConfig>> {
        self.slots(id)?.config.as_ref()
    }

    /// Algorithm 1: obtain a runtime for `config`. Reuses the first
    /// available container of the same type if one exists, otherwise starts
    /// a new container. The reuse cost is zero, or the fuzzy
    /// reconfiguration cost when configs differ under a fuzzy key. A failed
    /// cold start records nothing: no phantom slot is left behind.
    pub fn acquire(
        &mut self,
        engine: &mut ContainerEngine,
        config: &ContainerConfig,
        now: SimTime,
    ) -> Result<Acquisition, EngineError> {
        let id = self.interner.intern(config);
        self.acquire_id(engine, id, config, now)
    }

    /// [`Self::acquire`] with a pre-interned key id: every frontend serves a
    /// function through `HotC` with a key it resolved once —
    /// `faas::Gateway`'s on the function's first request, the cluster's per
    /// (key, node) — instead of fingerprinting the configuration per
    /// request. `id` must be `self.intern_config(config)`.
    pub(crate) fn acquire_id(
        &mut self,
        engine: &mut ContainerEngine,
        id: KeyId,
        config: &ContainerConfig,
        now: SimTime,
    ) -> Result<Acquisition, EngineError> {
        debug_assert_eq!(Some(id), self.id_for(config));
        self.mutation_epoch += 1;
        let warm = self.keys.get_mut(id.index()).and_then(KeySlots::claim_warm);
        if let Some((container, wakes)) = warm {
            if wakes {
                set_key_bit(&mut self.woken, id);
            }
            let cost = self.fuzzy_reuse_cost(engine, container, config);
            return Ok(Acquisition {
                container,
                cost,
                cold: false,
                breakdown: None,
                reconfig: cost,
            });
        }
        // Not existing, or existing but not available: start a new one. The
        // slot is recorded only once the container exists, so a failed
        // create leaves no phantom slot behind for the controller to track.
        let config = self.boot_config(id, config);
        let (container, breakdown) = engine.create_container(Arc::clone(&config), now)?;
        self.admit(id, config, container, now, true);
        Ok(Acquisition {
            container,
            cost: breakdown.total(),
            cold: true,
            breakdown: Some(breakdown),
            reconfig: SimDuration::ZERO,
        })
    }

    /// What a container booted for `config` under `id` shares: the slot's
    /// configuration, else the interner's, where [`KeyPolicy::share`]
    /// allows it, else a copy of its own.
    fn boot_config(&self, id: KeyId, config: &ContainerConfig) -> Arc<ContainerConfig> {
        let shared = self
            .tracked(id)
            .and_then(|tracked| self.policy.share(tracked, config));
        shared.unwrap_or_else(|| self.interner.share(id, config))
    }

    /// Reconfiguration cost of reusing `container` for `config` — zero for
    /// exact keys (every key-relevant field is pinned), an engine config
    /// check for fuzzy keys.
    fn fuzzy_reuse_cost(
        &self,
        engine: &ContainerEngine,
        container: ContainerId,
        config: &ContainerConfig,
    ) -> SimDuration {
        if self.policy != KeyPolicy::Fuzzy {
            return SimDuration::ZERO;
        }
        match engine.config(container) {
            Some(existing) if needs_reconfig(existing, config) => FUZZY_RECONFIG_COST,
            _ => SimDuration::ZERO,
        }
    }

    /// Records a just-created container in `id`'s slot array — tracking
    /// the key, unparked, with `config` as its representative configuration
    /// if it is not tracked yet — and in the age index, and wakes the key.
    /// `created_at` is the `now` its `create_container` call was given.
    fn admit(
        &mut self,
        id: KeyId,
        config: Arc<ContainerConfig>,
        container: ContainerId,
        created_at: SimTime,
        in_use: bool,
    ) {
        if self.keys.len() <= id.index() {
            self.keys.resize_with(id.index() + 1, KeySlots::default);
        }
        let ks = &mut self.keys[id.index()];
        if ks.config.is_none() {
            ks.config = Some(config);
            set_key_bit(&mut self.unparked, id);
        }
        let slot = ks.publish(container, in_use);
        set_key_bit(&mut self.woken, id);
        self.ages.insert((created_at, container));
        let pooled = Pooled {
            created_at,
            key: id,
            slot,
        };
        self.pooled.insert(container, pooled);
    }

    /// Empties a pooled container's slot and drops it from the age index,
    /// waking its key (disposed, retired or evicted).
    fn forget(&mut self, container: ContainerId) {
        let pooled = self.pooled.remove(&container);
        debug_assert!(
            pooled.is_some(),
            "forgot a container the pool does not hold"
        );
        if let Some(Pooled {
            created_at,
            key,
            slot,
        }) = pooled
        {
            self.keys[key.index()].dispose(slot);
            self.ages.remove(&(created_at, container));
            set_key_bit(&mut self.woken, key);
        }
    }

    /// Algorithm 2: clean the used container and add it back to the pool.
    /// A crashed (Stopped) container cannot be reused: it is disposed of
    /// instead. Releasing a container that was never acquired from this pool
    /// — or releasing the same container twice — is an
    /// [`EngineError::InvalidState`] that leaves the engine untouched: the
    /// duplicate must not be pooled, or one container could serve two
    /// requests at once. So does a release the engine rejects (e.g. of a
    /// container still running): the container stays in use.
    pub fn release(
        &mut self,
        engine: &mut ContainerEngine,
        container: ContainerId,
        now: SimTime,
    ) -> Result<SimDuration, EngineError> {
        self.mutation_epoch += 1;
        let held = self
            .pooled
            .get(&container)
            .filter(|p| self.keys[p.key.index()].is_in_use(p.slot))
            .copied();
        let Some(Pooled { key, slot, .. }) = held else {
            return Err(EngineError::InvalidState {
                id: container,
                state: engine.state(container),
                needed: "a container acquired from this pool",
            });
        };
        if engine.state(container) == ContainerState::Stopped {
            let cost = engine.stop_and_remove(container, now)?;
            self.forget(container);
            Ok(cost)
        } else {
            let cost = engine.cleanup(container, now)?;
            self.keys[key.index()].hand_back(slot);
            Ok(cost)
        }
    }

    /// Pre-warms one container of the given configuration (adaptive
    /// controller's scale-up action). The container boots straight into the
    /// Existing-Available state. Returns the cold-start cost (background).
    pub fn prewarm(
        &mut self,
        engine: &mut ContainerEngine,
        config: &ContainerConfig,
        now: SimTime,
    ) -> Result<SimDuration, EngineError> {
        let id = self.interner.intern(config);
        let config = self.boot_config(id, config);
        self.prewarm_shared(engine, id, config, now)
    }

    /// [`Self::prewarm`] of `id`'s key with the configuration the new
    /// container's engine record shares.
    fn prewarm_shared(
        &mut self,
        engine: &mut ContainerEngine,
        id: KeyId,
        config: Arc<ContainerConfig>,
        now: SimTime,
    ) -> Result<SimDuration, EngineError> {
        self.mutation_epoch += 1;
        let (container, breakdown) = engine.create_container(Arc::clone(&config), now)?;
        self.admit(id, config, container, now, false);
        Ok(breakdown.total())
    }

    /// Pre-warms one container for a key the pool already tracks, using the
    /// slot's representative configuration. Returns `Ok(None)` if the key is
    /// unknown (e.g. its slot was GC'd since the snapshot).
    pub(crate) fn prewarm_key_id(
        &mut self,
        engine: &mut ContainerEngine,
        id: KeyId,
        now: SimTime,
    ) -> Result<Option<SimDuration>, EngineError> {
        match self.tracked(id).map(Arc::clone) {
            Some(config) => self.prewarm_shared(engine, id, config, now).map(Some),
            None => Ok(None),
        }
    }

    /// Retires the lowest-slot available container of the given type
    /// (adaptive controller's scale-down action). Returns the teardown cost,
    /// or `None` if none was available.
    pub(crate) fn retire_one_id(
        &mut self,
        engine: &mut ContainerEngine,
        id: KeyId,
        now: SimTime,
    ) -> Result<Option<SimDuration>, EngineError> {
        self.mutation_epoch += 1;
        let retired = self.slots(id).and_then(|ks| {
            let slot = ks.lowest(|c| c.avail)?;
            ks.container_at(slot)
        });
        self.remove(engine, retired, now)
    }

    /// Forcibly terminates the *oldest* available live container across all
    /// types (§IV-B's response to too many containers / memory pressure):
    /// one in-order walk of the age index, oldest `(created_at, id)` first,
    /// passing over containers in use. Returns the teardown cost, or `None`
    /// if the pool holds no available container.
    pub fn evict_oldest(
        &mut self,
        engine: &mut ContainerEngine,
        now: SimTime,
    ) -> Result<Option<SimDuration>, EngineError> {
        self.mutation_epoch += 1;
        let oldest = self.ages.iter().find_map(|&(_, container)| {
            let p = &self.pooled[&container];
            self.keys[p.key.index()]
                .is_avail(p.slot)
                .then_some(container)
        });
        self.remove(engine, oldest, now)
    }

    /// Takes an available container out of the pool and tears it down.
    fn remove(
        &mut self,
        engine: &mut ContainerEngine,
        container: Option<ContainerId>,
        now: SimTime,
    ) -> Result<Option<SimDuration>, EngineError> {
        let Some(container) = container else {
            return Ok(None);
        };
        self.forget(container);
        engine.stop_and_remove(container, now).map(Some)
    }

    /// `num_avail[key]`: available containers of the given type.
    pub fn num_avail_id(&self, id: KeyId) -> usize {
        self.slots(id).map_or(0, KeySlots::avail_count)
    }

    /// In-use containers of the given type.
    #[cfg(test)]
    pub(crate) fn num_in_use_id(&self, id: KeyId) -> usize {
        self.slots(id).map_or(0, |ks| ks.in_use_total)
    }

    /// Total live containers tracked by the pool (available + in use).
    /// O(1), so the limit check the controller runs every tick stays
    /// independent of fleet size.
    pub fn total_live(&self) -> usize {
        self.pooled.len()
    }

    /// The pool's `(available, in_use)` container counts — the telemetry
    /// layer exports these as the pool-size gauges.
    pub fn sizes(&self) -> (usize, usize) {
        self.keys.iter().fold((0, 0), |(a, u), ks| {
            (a + ks.avail_count(), u + ks.in_use_total)
        })
    }

    /// Total available containers across all types.
    pub fn total_available(&self) -> usize {
        self.sizes().0
    }

    /// The Fig. 7 pool-view code for a container: 1 Existing-Available, 0
    /// Existing-Not-Available, -1 Not-Existing.
    pub fn pool_code(&self, engine: &ContainerEngine, container: ContainerId) -> i8 {
        let available = self
            .pooled
            .get(&container)
            .is_some_and(|p| self.keys[p.key.index()].is_avail(p.slot));
        if available {
            1
        } else if engine.config(container).is_some() {
            0
        } else {
            -1
        }
    }

    /// Takes a control step's demand snapshot (`history[k][t]`). It parks
    /// `park` (the keys the previous step left held), then visits, in
    /// `KeyId` order, every tracked key that is unparked, in `due` (its hold
    /// ends at this step) or woken since the last snapshot: swaps its
    /// watermark for the next interval, reports it into `into` —
    /// zero-demand intervals included — and leaves it unparked, or
    /// garbage-collects it at its [`GC_INTERVALS`]-th consecutive snapshot
    /// with zero demand and no container.
    ///
    /// A parked key is skipped outright: nothing about it changed since
    /// the step that parked it (any change would have woken it), so its
    /// watermark is still 0 and its GC countdown still unset. A step costs
    /// O(keys visited), and `into`'s vectors are reused: once they have
    /// grown to the most keys a step visits, a step allocates nothing.
    pub(crate) fn take_demand_snapshot(
        &mut self,
        park: &[KeyId],
        due: &[KeyId],
        into: &mut DemandSnapshot,
    ) {
        for &id in park {
            if let Some(word) = self.unparked.get_mut(id.index() / 64) {
                *word &= !(1 << (id.index() % 64));
            }
        }
        for &id in due {
            set_key_bit(&mut self.unparked, id);
        }
        self.sweep(into);
    }

    /// [`Self::take_demand_snapshot`] over every tracked key, parked or
    /// not, unparking them all — the never-holding reference step's
    /// snapshot.
    pub(crate) fn take_full_snapshot(&mut self) -> DemandSnapshot {
        for index in 0..self.keys.len() {
            if self.keys[index].config.is_some() {
                set_key_bit(&mut self.unparked, KeyId::from_index(index as u32));
            }
        }
        let mut snapshot = DemandSnapshot::default();
        self.sweep(&mut snapshot);
        snapshot
    }

    /// Adds the woken keys to the unparked ones and visits every key whose
    /// `unparked` bit is then set, in `KeyId` order: swaps its watermark,
    /// reports `(demand, avail, in_use)` and keeps the bit, or — at the
    /// key's [`GC_INTERVALS`]-th consecutive snapshot with zero demand and
    /// no container — drops the key's tracking and reports it retired. A
    /// set bit naming an untracked key is cleared. Fills `into`, whose
    /// vectors keep their capacity.
    fn sweep(&mut self, into: &mut DemandSnapshot) {
        if self.unparked.len() < self.woken.len() {
            self.unparked.resize(self.woken.len(), 0);
        }
        for (word, woken) in self.unparked.iter_mut().zip(&mut self.woken) {
            *word |= std::mem::take(woken);
        }
        self.seq += 1;
        let seq = self.seq;
        let DemandSnapshot { demands, retired } = into;
        demands.clear();
        retired.clear();
        demands.reserve(self.unparked.iter().map(|w| w.count_ones() as usize).sum());
        for (w, word) in self.unparked.iter_mut().enumerate() {
            let mut bits = *word;
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let id = KeyId::from_index((w * 64 + bit) as u32);
                let ks = match self.keys.get_mut(id.index()) {
                    Some(ks) if ks.config.is_some() => ks,
                    _ => {
                        *word &= !(1 << bit);
                        continue;
                    }
                };
                let (demand, avail, in_use) = ks.sample();
                if demand == 0 && ks.occupied() == 0 {
                    let since = *ks.cold_since.get_or_insert(seq);
                    if seq - since + 1 >= GC_INTERVALS {
                        (ks.config, ks.cold_since) = (None, None);
                        *word &= !(1 << bit);
                        retired.push(id);
                        continue;
                    }
                } else {
                    ks.cold_since = None;
                }
                demands.push(KeyDemand {
                    id,
                    demand,
                    avail,
                    in_use,
                });
            }
        }
        if cfg!(debug_assertions) {
            self.assert_ages_consistent();
        }
    }

    /// Debug cross-check of the age index and the reverse index against the
    /// slot arrays they shadow: both hold one entry per occupied slot, each
    /// resolving to the container its key's slot array names there.
    fn assert_ages_consistent(&self) {
        let occupied: usize = self.keys.iter().map(KeySlots::occupied).sum();
        assert_eq!(
            self.pooled.len(),
            occupied,
            "reverse index != slot contents"
        );
        assert_eq!(self.ages.len(), occupied, "age index != slot contents");
        for &(created_at, container) in &self.ages {
            let p = self.pooled.get(&container);
            // lint:allow(unwrap, debug cross-check; a missing entry is the broken invariant it reports)
            let p = p.expect("aged container has no reverse-index entry");
            assert_eq!(p.created_at, created_at);
            assert!(
                self.keys[p.key.index()].config.is_some(),
                "pooled key untracked"
            );
            assert_eq!(
                self.keys[p.key.index()].container_at(p.slot),
                Some(container),
                "indexed slot names another container"
            );
        }
    }

    /// Whether the next [`Self::take_demand_snapshot`] skips `id` unless
    /// it is due or woken: tracked, parked and not woken since.
    #[cfg(test)]
    pub(crate) fn is_parked(&self, id: KeyId) -> bool {
        let (w, mask) = (id.index() / 64, 1u64 << (id.index() % 64));
        let set = |bits: &[u64]| bits.get(w).is_some_and(|word| word & mask != 0);
        self.tracked(id).is_some() && !set(&self.unparked) && !set(&self.woken)
    }

    /// The pooled containers in eviction order, oldest `(created_at, id)`
    /// first.
    #[cfg(test)]
    pub(crate) fn aged(&self) -> Vec<ContainerId> {
        self.ages.iter().map(|&(_, container)| container).collect()
    }

    /// The keys the pool currently tracks, sorted.
    pub fn keys(&self) -> Vec<KeyId> {
        (0..self.keys.len())
            .filter(|&index| self.keys[index].config.is_some())
            .map(|index| KeyId::from_index(index as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{AdaptiveController, ScalingPolicy};
    use crate::key::FUZZY_RECONFIG_COST;
    use containersim::container::ExecOptions;
    use containersim::engine::ExecWork;
    use containersim::{ContainerState, HardwareProfile, ImageId, ImageRegistry};

    fn plain_engine() -> ContainerEngine {
        ContainerEngine::with_local_images(HardwareProfile::server())
    }

    /// Runs one light execution on an acquired container.
    fn exec(e: &mut ContainerEngine, container: ContainerId, now: SimTime) {
        let out = e
            .begin_exec(container, ExecWork::light(SimDuration::from_millis(1)), now)
            .unwrap();
        e.end_exec(container, now + out.latency).unwrap();
    }

    fn cfg(image: &str) -> ContainerConfig {
        ContainerConfig::bridge(ImageId::parse(image))
    }

    /// The demand snapshot (GC included) as `(key, demand)`, sorted —
    /// what the controller sees over one interval.
    fn demand_snapshot(pool: &mut RuntimePool) -> Vec<(KeyId, usize)> {
        let snapshot = pool.take_full_snapshot();
        snapshot.demands.iter().map(|d| (d.id, d.demand)).collect()
    }

    /// Algorithm 1 then 2 then 1: cold start, clean + re-pool, reuse.
    #[test]
    fn acquire_release_round_trip() {
        let (mut e, mut pool) = (plain_engine(), RuntimePool::new(KeyPolicy::Exact));
        let c = cfg("alpine:3.12");
        let a = pool.acquire(&mut e, &c, SimTime::ZERO).unwrap();
        assert!(a.cold, "first request cold-starts");
        exec(&mut e, a.container, SimTime::ZERO);
        pool.release(&mut e, a.container, SimTime::from_secs(1))
            .unwrap();
        assert_eq!(pool.num_avail_id(pool.id_for(&c).unwrap()), 1);
        let b = pool.acquire(&mut e, &c, SimTime::from_secs(2)).unwrap();
        assert!(!b.cold, "second request reuses");
        assert_eq!(b.container, a.container);
        assert!(b.cost.is_zero());
    }

    /// One storage at any population: 300 containers of one key fill 19
    /// chunks, and with some held and some available in every chunk a warm
    /// acquire takes the lowest available slot, whichever chunk it is in.
    #[test]
    fn a_key_past_its_first_chunk_reuses_every_chunk() {
        let mut e = plain_engine();
        let mut pool = RuntimePool::new(KeyPolicy::Exact);
        let c = cfg("alpine:3.12");
        let id = pool.intern_config(&c);
        let mut held: Vec<ContainerId> = (0..300)
            .map(|_| pool.acquire(&mut e, &c, SimTime::ZERO).unwrap().container)
            .collect();
        let freed: Vec<ContainerId> = held.iter().copied().step_by(2).collect();
        held.retain(|container| !freed.contains(container));
        for &container in &freed {
            pool.release(&mut e, container, SimTime::from_secs(1))
                .unwrap();
        }
        assert_eq!((pool.num_avail_id(id), pool.total_live()), (150, 300));
        // Containers fill slots in creation order, so the lowest available
        // slot holds the oldest freed container.
        for &expected in &freed {
            let acq = pool
                .acquire_id(&mut e, id, &c, SimTime::from_secs(2))
                .unwrap();
            assert!(!acq.cold);
            assert_eq!(acq.container, expected);
            held.push(acq.container);
        }
        for container in held {
            pool.release(&mut e, container, SimTime::from_secs(3))
                .unwrap();
        }
        assert_eq!(pool.num_in_use_id(id), 0);
        assert_eq!((pool.num_avail_id(id), pool.total_live()), (300, 300));
        assert_eq!(e.live_count(), 300);
    }

    /// Regression (double release): the second release of the same
    /// container must fail instead of double-pooling the id.
    #[test]
    fn double_release_is_rejected_not_double_pooled() {
        let (mut e, mut pool) = (plain_engine(), RuntimePool::new(KeyPolicy::Exact));
        let c = cfg("alpine:3.12");
        let a = pool.acquire(&mut e, &c, SimTime::ZERO).unwrap();
        exec(&mut e, a.container, SimTime::ZERO);
        pool.release(&mut e, a.container, SimTime::from_secs(1))
            .unwrap();
        let err = pool
            .release(&mut e, a.container, SimTime::from_secs(2))
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidState { .. }));
        assert_eq!(pool.total_available(), 1, "exactly one pooled copy");
        assert_eq!(pool.total_live(), 1);
        // The pooled copy still round-trips.
        let again = pool.acquire(&mut e, &c, SimTime::from_secs(3)).unwrap();
        assert!(!again.cold);
        assert_eq!(again.container, a.container);
    }

    /// The bound the one sweep relies on, over random acquire / release /
    /// crashed release / prewarm / retire / evict traces on three keys: after
    /// every snapshot each tracked key holds a container, saw demand in the
    /// interval, or went cold fewer than [`GC_INTERVALS`] snapshots ago; a
    /// key left cold is retired at exactly its `GC_INTERVALS`-th zero-demand
    /// snapshot; and every key still tracked is reported, with the
    /// interval's peak in-use count as its demand.
    #[test]
    fn prop_snapshot_keeps_a_key_until_its_gc_interval() {
        testkit::check(64, |g| {
            let mut e = plain_engine();
            let mut pool = RuntimePool::new(KeyPolicy::Exact);
            let configs: Vec<ContainerConfig> = (0..3)
                .map(|k| {
                    let mut c = cfg("alpine:3.12");
                    c.exec.env.insert("K".into(), k.to_string());
                    c
                })
                .collect();
            let ids: Vec<KeyId> = configs.iter().map(|c| pool.intern_config(c)).collect();
            // The model, per key: containers in use now, the interval's peak
            // of that, and the run of cold snapshots (`None`: untracked).
            let (mut in_use, mut peak) = ([0usize; 3], [0usize; 3]);
            let mut cold_run: [Option<u64>; 3] = [None; 3];
            let mut busy: Vec<(usize, ContainerId)> = Vec::new();
            for t in 0..g.u64_in(1..40) {
                let now = SimTime::from_secs(t);
                for _ in 0..g.usize_in(0..4) {
                    let k = g.usize_in(0..3);
                    match g.u8_in(0..8) {
                        0 | 1 => {
                            let acq = pool.acquire(&mut e, &configs[k], now).unwrap();
                            busy.push((k, acq.container));
                            in_use[k] += 1;
                            peak[k] = peak[k].max(in_use[k]);
                            cold_run[k].get_or_insert(0);
                        }
                        2 | 3 if !busy.is_empty() => {
                            let (k, id) = busy.swap_remove(g.usize_in(0..busy.len()));
                            // One release in three is of a crashed container.
                            let crash = g.u8_in(0..3) == 0;
                            e.set_fault_injection(if crash { 1.0 } else { 0.0 }, 7);
                            exec(&mut e, id, now);
                            pool.release(&mut e, id, now).unwrap();
                            in_use[k] -= 1;
                        }
                        4 => {
                            pool.prewarm(&mut e, &configs[k], now).unwrap();
                            cold_run[k].get_or_insert(0);
                        }
                        5 => {
                            pool.retire_one_id(&mut e, ids[k], now).unwrap();
                        }
                        _ => {
                            pool.evict_oldest(&mut e, now).unwrap();
                        }
                    }
                }
                let snapshot = pool.take_full_snapshot();
                let mut live = [0usize; 3];
                for c in e.live_ids_oldest_first() {
                    let id = pool.id_for(e.config(c).unwrap());
                    live[ids.iter().position(|&k| Some(k) == id).unwrap()] += 1;
                }
                let tracked = pool.keys();
                let (mut reported, mut due) = (Vec::new(), Vec::new());
                for k in 0..3 {
                    let Some(run) = cold_run[k].as_mut() else {
                        continue;
                    };
                    let cold = peak[k] == 0 && live[k] == 0;
                    *run = if cold { *run + 1 } else { 0 };
                    if tracked.contains(&ids[k]) {
                        assert!(!cold || *run < GC_INTERVALS, "interval {t}: key {k} kept");
                        reported.push((ids[k], peak[k]));
                    } else {
                        assert_eq!(*run, GC_INTERVALS, "interval {t}: key {k} retired");
                        due.push(ids[k]);
                        cold_run[k] = None;
                    }
                    peak[k] = in_use[k];
                }
                let seen: Vec<(KeyId, usize)> =
                    snapshot.demands.iter().map(|d| (d.id, d.demand)).collect();
                assert_eq!(seen, reported, "interval {t}: every tracked key reported");
                assert_eq!(snapshot.retired, due, "interval {t}");
            }
        });
    }

    /// Among containers created at the same instant the lower id is the
    /// older one, so keys pre-warmed in `KeyId` order at one instant (what a
    /// control step does) are evicted in `KeyId` order — after anything
    /// created earlier, whichever key holds it.
    #[test]
    fn evict_oldest_breaks_created_at_ties_by_lowest_key_first() {
        let mut e = plain_engine();
        let mut pool = RuntimePool::new(KeyPolicy::Exact);
        let configs: Vec<ContainerConfig> = (0..10)
            .map(|k| {
                cfg("alpine:3.12").with_exec(ExecOptions::default().with_env("K", k.to_string()))
            })
            .collect();
        let ids: Vec<KeyId> = configs.iter().map(|c| pool.intern_config(c)).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "interning order");
        pool.prewarm(&mut e, &configs[9], SimTime::ZERO).unwrap();
        for c in &configs {
            pool.prewarm(&mut e, c, SimTime::from_secs(1)).unwrap();
        }
        let mut order = vec![ids[9]];
        order.extend(&ids);
        for victim in order {
            let before = pool.num_avail_id(victim);
            pool.evict_oldest(&mut e, SimTime::from_secs(2)).unwrap();
            assert_eq!(pool.num_avail_id(victim) + 1, before, "took another key's");
        }
        assert_eq!(pool.total_live(), 0);
    }

    // Algorithms 1-2 and the pool's bookkeeping contract, driven the way
    // `HotC` drives the pool (exclusive engine).

    fn run_request(
        pool: &mut RuntimePool,
        engine: &mut ContainerEngine,
        config: &ContainerConfig,
        now: SimTime,
    ) -> Acquisition {
        let acq = pool.acquire(engine, config, now).unwrap();
        let out = engine
            .begin_exec(
                acq.container,
                ExecWork::light(SimDuration::from_millis(10)),
                now,
            )
            .unwrap();
        engine.end_exec(acq.container, now + out.latency).unwrap();
        pool.release(engine, acq.container, now + out.latency)
            .unwrap();
        acq
    }

    #[test]
    fn num_avail_bookkeeping_matches_algorithms() {
        let mut e = plain_engine();
        let mut pool = RuntimePool::new(KeyPolicy::Exact);
        let c = cfg("alpine:3.12");

        let acq = pool.acquire(&mut e, &c, SimTime::ZERO).unwrap();
        let key = pool.intern_config(&c);
        assert_eq!(pool.num_avail_id(key), 0);
        assert_eq!(pool.num_in_use_id(key), 1);

        let out = e
            .begin_exec(
                acq.container,
                ExecWork::light(SimDuration::from_millis(5)),
                SimTime::ZERO,
            )
            .unwrap();
        e.end_exec(acq.container, SimTime::ZERO + out.latency)
            .unwrap();
        pool.release(&mut e, acq.container, SimTime::from_secs(1))
            .unwrap();
        assert_eq!(pool.num_avail_id(key), 1);
        assert_eq!(pool.num_in_use_id(key), 0);
    }

    #[test]
    fn occupied_containers_trigger_new_start() {
        let mut e = plain_engine();
        let mut pool = RuntimePool::new(KeyPolicy::Exact);
        let c = cfg("alpine:3.12");
        // Acquire twice without releasing: both cold, two containers.
        let a1 = pool.acquire(&mut e, &c, SimTime::ZERO).unwrap();
        let a2 = pool.acquire(&mut e, &c, SimTime::ZERO).unwrap();
        assert!(a1.cold && a2.cold);
        assert_ne!(a1.container, a2.container);
        assert_eq!(pool.total_live(), 2);
    }

    #[test]
    fn different_types_never_share() {
        let mut e = plain_engine();
        let mut pool = RuntimePool::new(KeyPolicy::Exact);
        run_request(&mut pool, &mut e, &cfg("python:3.8-alpine"), SimTime::ZERO);
        let b = run_request(
            &mut pool,
            &mut e,
            &cfg("golang:1.13"),
            SimTime::from_secs(1),
        );
        assert!(b.cold, "different image must not reuse python runtime");
    }

    #[test]
    fn exact_policy_rejects_env_mismatch_fuzzy_accepts() {
        let base = cfg("python:3.8-alpine");
        let with_env = base
            .clone()
            .with_exec(ExecOptions::default().with_env("MODE", "fast"));

        // Exact: env difference ⇒ cold.
        let mut e = plain_engine();
        let mut exact = RuntimePool::new(KeyPolicy::Exact);
        run_request(&mut exact, &mut e, &base, SimTime::ZERO);
        let a = run_request(&mut exact, &mut e, &with_env, SimTime::from_secs(1));
        assert!(a.cold);

        // Fuzzy: same image+network ⇒ reuse with a reconfig cost.
        let mut e2 = plain_engine();
        let mut fuzzy = RuntimePool::new(KeyPolicy::Fuzzy);
        run_request(&mut fuzzy, &mut e2, &base, SimTime::ZERO);
        let b = fuzzy
            .acquire(&mut e2, &with_env, SimTime::from_secs(1))
            .unwrap();
        assert!(!b.cold);
        assert_eq!(b.cost, FUZZY_RECONFIG_COST);
    }

    #[test]
    fn cold_starts_share_the_slot_config_only_when_it_is_theirs() {
        let base = cfg("python:3.8-alpine");
        let with_env = base
            .clone()
            .with_exec(ExecOptions::default().with_env("MODE", "fast"));
        // Each acquire below finds the key's only containers in use, so
        // each one is a cold start.
        let cold = |pool: &mut RuntimePool, e: &mut ContainerEngine, c: &ContainerConfig| {
            let acq = pool.acquire(e, c, SimTime::ZERO).unwrap();
            assert!(acq.cold);
            acq.container
        };

        // Exact: every cold start and prewarm of the key shares one copy.
        let mut e = plain_engine();
        let mut exact = RuntimePool::new(KeyPolicy::Exact);
        let a = cold(&mut exact, &mut e, &base);
        let b = cold(&mut exact, &mut e, &base);
        exact.prewarm(&mut e, &base, SimTime::ZERO).unwrap();
        let key = exact.intern_config(&base);
        exact
            .prewarm_key_id(&mut e, key, SimTime::ZERO)
            .unwrap()
            .unwrap();
        for c in e.live_ids_oldest_first() {
            assert!(std::ptr::eq(e.config(a).unwrap(), e.config(c).unwrap()));
        }
        assert_ne!(a, b);

        // Fuzzy: a same-key request with another env keeps its own config,
        // and an equal one shares the slot's.
        let mut e = plain_engine();
        let mut fuzzy = RuntimePool::new(KeyPolicy::Fuzzy);
        let first = cold(&mut fuzzy, &mut e, &base);
        let other = cold(&mut fuzzy, &mut e, &with_env);
        assert_eq!(e.config(other), Some(&with_env));
        assert_eq!(e.config(first), Some(&base));
        let again = cold(&mut fuzzy, &mut e, &base);
        assert!(std::ptr::eq(
            e.config(first).unwrap(),
            e.config(again).unwrap()
        ));
        fuzzy.prewarm(&mut e, &with_env, SimTime::ZERO).unwrap();
        let newest = *e.live_ids_oldest_first().last().unwrap();
        assert_eq!(e.config(newest), Some(&with_env));
    }

    #[test]
    fn prewarm_makes_next_request_warm() {
        let mut e = plain_engine();
        let mut pool = RuntimePool::new(KeyPolicy::Exact);
        let c = cfg("openjdk:8-jre");
        let cost = pool.prewarm(&mut e, &c, SimTime::ZERO).unwrap();
        assert!(!cost.is_zero());
        let acq = pool.acquire(&mut e, &c, SimTime::from_secs(1)).unwrap();
        assert!(!acq.cold, "prewarmed container serves the request");
    }

    #[test]
    fn retire_and_evict() {
        let mut e = plain_engine();
        let mut pool = RuntimePool::new(KeyPolicy::Exact);
        let c = cfg("alpine:3.12");
        let key = pool.intern_config(&c);
        for i in 0..3 {
            pool.prewarm(&mut e, &c, SimTime::from_secs(i)).unwrap();
        }
        assert_eq!(pool.num_avail_id(key), 3);

        let retired = pool
            .retire_one_id(&mut e, key, SimTime::from_secs(10))
            .unwrap();
        assert!(retired.is_some());
        assert_eq!(pool.num_avail_id(key), 2);
        assert_eq!(e.live_count(), 2);

        // Eviction removes the *oldest* (created at t=1 after the retire
        // popped the t=0 one from the FIFO front).
        let ids = e.live_ids_oldest_first();
        pool.evict_oldest(&mut e, SimTime::from_secs(11)).unwrap();
        assert_eq!(e.state(ids[0]), ContainerState::Removed);
        assert_eq!(pool.num_avail_id(key), 1);
    }

    #[test]
    fn evict_on_empty_pool_is_none() {
        let mut e = plain_engine();
        let mut pool = RuntimePool::new(KeyPolicy::Exact);
        assert!(pool.evict_oldest(&mut e, SimTime::ZERO).unwrap().is_none());
    }

    #[test]
    fn pool_codes_match_fig7() {
        let mut e = plain_engine();
        let mut pool = RuntimePool::new(KeyPolicy::Exact);
        let c = cfg("alpine:3.12");

        let acq = pool.acquire(&mut e, &c, SimTime::ZERO).unwrap();
        // In use ⇒ Existing-Not-Available (0).
        assert_eq!(pool.pool_code(&e, acq.container), 0);

        let out = e
            .begin_exec(
                acq.container,
                ExecWork::light(SimDuration::from_millis(5)),
                SimTime::ZERO,
            )
            .unwrap();
        e.end_exec(acq.container, SimTime::ZERO + out.latency)
            .unwrap();
        pool.release(&mut e, acq.container, SimTime::from_secs(1))
            .unwrap();
        // Available ⇒ 1.
        assert_eq!(pool.pool_code(&e, acq.container), 1);

        pool.retire_one_id(&mut e, pool.id_for(&c).unwrap(), SimTime::from_secs(2))
            .unwrap();
        // Gone ⇒ -1.
        assert_eq!(pool.pool_code(&e, acq.container), -1);
    }

    #[test]
    fn demand_snapshot_reports_watermark_and_resets() {
        let mut e = plain_engine();
        let mut pool = RuntimePool::new(KeyPolicy::Exact);
        let c = cfg("alpine:3.12");
        // Three concurrent acquisitions.
        let acqs: Vec<_> = (0..3)
            .map(|_| pool.acquire(&mut e, &c, SimTime::ZERO).unwrap())
            .collect();
        for acq in &acqs {
            let out = e
                .begin_exec(
                    acq.container,
                    ExecWork::light(SimDuration::from_millis(5)),
                    SimTime::ZERO,
                )
                .unwrap();
            e.end_exec(acq.container, SimTime::ZERO + out.latency)
                .unwrap();
            pool.release(&mut e, acq.container, SimTime::from_secs(1))
                .unwrap();
        }
        let snap = demand_snapshot(&mut pool);
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].1, 3, "watermark saw 3 concurrent");
        // After reset with nothing in use, next snapshot reports 0.
        let snap2 = demand_snapshot(&mut pool);
        assert_eq!(snap2[0].1, 0);
    }

    /// Regression (phantom slots): a failed cold start must not record a
    /// slot — before the fix, `acquire` inserted the slot before calling
    /// `create_container`, so an unknown image left an empty slot that
    /// the demand snapshot reported forever.
    #[test]
    fn failed_cold_start_leaves_no_phantom_slot() {
        let mut e = plain_engine();
        let mut pool = RuntimePool::new(KeyPolicy::Exact);
        let err = pool
            .acquire(&mut e, &cfg("no-such-image:1.0"), SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, EngineError::UnknownImage(_)));
        assert!(
            pool.keys().is_empty(),
            "failed create must not leave a slot"
        );
        assert!(demand_snapshot(&mut pool).is_empty());
    }

    /// Same, for an image the registry knows but whose pull fails validation
    /// — any create error path must leave the pool untouched.
    #[test]
    fn failed_cold_start_never_pollutes_existing_slot_set() {
        let registry = ImageRegistry::with_default_catalogue();
        let mut e = ContainerEngine::new(registry, HardwareProfile::server());
        let mut pool = RuntimePool::new(KeyPolicy::Exact);
        run_request(&mut pool, &mut e, &cfg("alpine:3.12"), SimTime::ZERO);
        let before = pool.keys();
        let _ = pool
            .acquire(&mut e, &cfg("ghost:0.0"), SimTime::from_secs(1))
            .unwrap_err();
        assert_eq!(pool.keys(), before);
    }

    /// Regression (release without acquire): before the fix a release of a
    /// container the pool never handed out `saturating_sub`'d `in_use` and
    /// pushed the id into `available` — the same container could then serve
    /// two requests at once. Now it's an error and the pool is unchanged.
    #[test]
    fn release_of_unacquired_container_is_rejected() {
        let mut e = plain_engine();
        let mut pool = RuntimePool::new(KeyPolicy::Exact);
        // A container created behind the pool's back.
        let (stray, _) = e
            .create_container(cfg("alpine:3.12"), SimTime::ZERO)
            .unwrap();
        let err = pool
            .release(&mut e, stray, SimTime::from_secs(1))
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidState { id, .. } if id == stray));
        assert_eq!(
            pool.id_for(&cfg("alpine:3.12")),
            None,
            "stray id must not be pooled"
        );
        assert_eq!(e.state(stray), ContainerState::Idle, "engine untouched");
    }

    /// A failed cleanup (release while still Running) must leave the
    /// container claimable, not stranded outside the bookkeeping.
    #[test]
    fn failed_cleanup_keeps_container_in_use() {
        let mut e = plain_engine();
        let mut pool = RuntimePool::new(KeyPolicy::Exact);
        let c = cfg("alpine:3.12");
        let acq = pool.acquire(&mut e, &c, SimTime::ZERO).unwrap();
        e.begin_exec(
            acq.container,
            ExecWork::light(SimDuration::from_millis(5)),
            SimTime::ZERO,
        )
        .unwrap();
        // Still Running: the engine rejects the cleanup.
        let err = pool
            .release(&mut e, acq.container, SimTime::from_secs(1))
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidState { .. }));
        let key = pool.intern_config(&c);
        assert_eq!(pool.num_in_use_id(key), 1, "claim handed back on failure");
        // Finish properly and the release succeeds.
        e.end_exec(acq.container, SimTime::from_secs(2)).unwrap();
        pool.release(&mut e, acq.container, SimTime::from_secs(3))
            .unwrap();
        assert_eq!(pool.num_avail_id(key), 1);
    }

    /// Regression (unbounded slot maps): a slot whose containers have all
    /// been retired is garbage-collected after [`GC_INTERVALS`] consecutive
    /// zero-demand snapshots, so `keys()` and the controller's predictor
    /// maps stop growing across distinct configs.
    #[test]
    fn empty_slots_are_garbage_collected() {
        let mut e = plain_engine();
        let mut pool = RuntimePool::new(KeyPolicy::Exact);
        let c = cfg("alpine:3.12");
        run_request(&mut pool, &mut e, &c, SimTime::ZERO);
        pool.retire_one_id(&mut e, pool.id_for(&c).unwrap(), SimTime::from_secs(1))
            .unwrap();
        assert_eq!(pool.total_live(), 0);

        // The first snapshot still reports the key (it served traffic this
        // interval), and so do the empty intervals before the threshold…
        for _ in 0..GC_INTERVALS {
            assert_eq!(demand_snapshot(&mut pool).len(), 1);
        }
        // …which the next one reaches, and GCs it.
        assert!(demand_snapshot(&mut pool).is_empty());
        assert!(pool.keys().is_empty());

        // A slot with an idle container is never GC'd.
        pool.prewarm(&mut e, &c, SimTime::from_secs(100)).unwrap();
        for _ in 0..5 {
            assert_eq!(demand_snapshot(&mut pool).len(), 1);
        }
    }

    /// GC'd keys come back transparently: the next request for the config
    /// cold-starts and re-creates the slot.
    #[test]
    fn gc_then_reacquire_recreates_slot() {
        let mut e = plain_engine();
        let mut pool = RuntimePool::new(KeyPolicy::Exact);
        let c = cfg("golang:1.13");
        run_request(&mut pool, &mut e, &c, SimTime::ZERO);
        let key = pool.intern_config(&c);
        pool.retire_one_id(&mut e, key, SimTime::from_secs(1))
            .unwrap();
        // The served-traffic interval, then GC_INTERVALS zero intervals.
        for _ in 0..=GC_INTERVALS {
            demand_snapshot(&mut pool);
        }
        assert!(pool.keys().is_empty());
        let acq = pool.acquire(&mut e, &c, SimTime::from_secs(2)).unwrap();
        assert!(acq.cold);
        assert_eq!(pool.keys(), vec![key]);
    }

    /// Pool invariants under any interleaving of acquire / release /
    /// prewarm / retire / evict / control step on four keys: the pool's
    /// live count and the age index equal the engine's live set; no
    /// container is handed out while it is held; every cold start or
    /// prewarm makes a container never seen before, of the key it was asked
    /// for; interning is stable; and once everything held is released,
    /// nothing is left in use.
    #[test]
    fn prop_pool_engine_consistency() {
        testkit::check(64, |g| {
            let ops = g.vec(1..60, |g| g.u8_in(0..6));
            let mut e = plain_engine();
            let mut pool = RuntimePool::new(KeyPolicy::Exact);
            let mut ctl = AdaptiveController::new(ScalingPolicy::default());
            let configs: Vec<ContainerConfig> = ["alpine:3.12", "python:3.8-alpine"]
                .iter()
                .flat_map(|image| {
                    (0..2).map(|k| {
                        cfg(image).with_exec(ExecOptions::default().with_env("K", k.to_string()))
                    })
                })
                .collect();
            let ids: Vec<KeyId> = configs.iter().map(|c| pool.intern_config(c)).collect();
            let key_of = |pool: &RuntimePool, e: &ContainerEngine, c: ContainerId| {
                pool.id_for(e.config(c).unwrap()).unwrap()
            };
            let mut busy: Vec<ContainerId> = Vec::new();
            let mut seen: std::collections::BTreeSet<ContainerId> = Default::default();
            for (i, &op) in ops.iter().enumerate() {
                let now = SimTime::from_secs(i as u64);
                let k = g.usize_in(0..configs.len());
                let c = &configs[k];
                match op {
                    0 => {
                        let acq = pool.acquire(&mut e, c, now).unwrap();
                        assert!(!busy.contains(&acq.container), "handed out twice");
                        assert_eq!(acq.cold, seen.insert(acq.container), "cold ⇔ new");
                        assert_eq!(key_of(&pool, &e, acq.container), ids[k]);
                        exec(&mut e, acq.container, now);
                        busy.push(acq.container);
                    }
                    1 => {
                        if let Some(id) = busy.pop() {
                            pool.release(&mut e, id, now).unwrap();
                        }
                    }
                    2 => {
                        pool.prewarm(&mut e, c, now).unwrap();
                        let newest = *e.live_ids_oldest_first().last().unwrap();
                        assert!(seen.insert(newest), "prewarm reused a container");
                        assert_eq!(key_of(&pool, &e, newest), ids[k]);
                    }
                    3 => {
                        pool.retire_one_id(&mut e, ids[k], now).unwrap();
                    }
                    4 => {
                        ctl.step(&mut pool, &mut e, now).unwrap();
                        seen.extend(e.live_ids_oldest_first());
                    }
                    _ => {
                        pool.evict_oldest(&mut e, now).unwrap();
                    }
                }
                assert_eq!(pool.total_live(), e.live_count());
                assert_eq!(pool.aged(), e.live_ids_oldest_first());
                assert_eq!(pool.total_available() + busy.len(), e.live_count());
                assert_eq!(pool.sizes().1, busy.len());
            }
            for id in busy {
                pool.release(&mut e, id, SimTime::from_secs(99)).unwrap();
            }
            assert_eq!(pool.sizes(), (e.live_count(), 0), "in use at quiescence");
            assert!(ids.iter().all(|&id| pool.num_in_use_id(id) == 0));
            for (c, &id) in configs.iter().zip(&ids) {
                assert_eq!(pool.intern_config(c), id, "interning moved");
            }
            assert_eq!(pool.interner.len(), configs.len());
        });
    }

    /// Lockstep against the public-API eviction oracle — the first id of
    /// `live_ids_oldest_first()` the pool reports Existing-Available — under
    /// random acquire / release / crashed release / prewarm / retire / evict
    /// / control-step sequences. Key 0 starts past its first chunk, so
    /// containers of a grown chunk are candidates; creation times are drawn
    /// from four instants, so `created_at` ties are common (the id breaks
    /// them) and `now` is not monotone across creations (age order ≠ id
    /// order). After every operation the age index equals the engine's live
    /// set, and no acquire hands out a container that is held; at the end,
    /// with everything released, nothing is left in use.
    #[test]
    fn prop_evict_oldest_matches_the_engine_oracle() {
        fn oracle(pool: &RuntimePool, e: &ContainerEngine) -> Option<ContainerId> {
            e.live_ids_oldest_first()
                .into_iter()
                .find(|&c| pool.pool_code(e, c) == 1)
        }
        fn evict_in_lockstep(
            pool: &mut RuntimePool,
            e: &mut ContainerEngine,
            now: SimTime,
        ) -> bool {
            let expected = oracle(pool, e);
            let live = e.live_count();
            let evicted = pool.evict_oldest(e, now).unwrap().is_some();
            assert_eq!(evicted, expected.is_some(), "None iff nothing is available");
            if let Some(victim) = expected {
                assert_eq!(e.state(victim), ContainerState::Removed, "evicted another");
                assert_eq!(e.live_count(), live - 1, "evicted more than one");
            }
            pool.take_full_snapshot();
            evicted
        }
        // Executes on an in-use container, crashing it or not, and releases
        // it: back to the pool, or disposed.
        fn finish(
            pool: &mut RuntimePool,
            e: &mut ContainerEngine,
            id: ContainerId,
            crash: bool,
            now: SimTime,
        ) {
            e.set_fault_injection(if crash { 1.0 } else { 0.0 }, 7);
            exec(e, id, now);
            pool.release(e, id, now).unwrap();
            assert_eq!(e.state(id) == ContainerState::Removed, crash);
        }
        testkit::check(48, |g| {
            let mut e = plain_engine();
            let mut pool = RuntimePool::new(KeyPolicy::Exact);
            let mut ctl = AdaptiveController::new(ScalingPolicy::default());
            let configs: Vec<ContainerConfig> = (0..5)
                .map(|k| {
                    let mut c = cfg("alpine:3.12");
                    c.exec.env.insert("K".into(), k.to_string());
                    c
                })
                .collect();
            let instant = |g: &mut testkit::Gen| SimTime::from_secs(g.u64_in(0..4));
            let mut busy: Vec<ContainerId> = Vec::new();
            for _ in 0..SLOTS_PER_KEY + 3 {
                let acq = pool.acquire(&mut e, &configs[0], instant(g)).unwrap();
                busy.push(acq.container);
            }
            // Most go straight back, so containers of both of key 0's
            // chunks are available, and a few of each stay in use.
            let (back, kept): (Vec<_>, Vec<_>) = busy.into_iter().partition(|_| g.u8_in(0..4) > 0);
            let mut busy = kept;
            for id in back {
                finish(&mut pool, &mut e, id, false, instant(g));
            }
            for _ in 0..g.usize_in(1..120) {
                let now = instant(g);
                let c = g.pick(&configs);
                match g.u8_in(0..10) {
                    0..=2 => {
                        let container = pool.acquire(&mut e, c, now).unwrap().container;
                        assert!(!busy.contains(&container), "handed out twice");
                        busy.push(container);
                    }
                    3 | 4 if !busy.is_empty() => {
                        let id = busy.swap_remove(g.usize_in(0..busy.len()));
                        // One release in three is of a crashed container.
                        finish(&mut pool, &mut e, id, g.u8_in(0..3) == 0, now);
                    }
                    5 => {
                        pool.prewarm(&mut e, c, now).unwrap();
                    }
                    6 => {
                        if let Some(id) = pool.id_for(c) {
                            pool.retire_one_id(&mut e, id, now).unwrap();
                        }
                    }
                    7 => {
                        ctl.step(&mut pool, &mut e, now).unwrap();
                    }
                    _ => {
                        evict_in_lockstep(&mut pool, &mut e, now);
                    }
                }
                assert_eq!(pool.total_live(), e.live_count());
                assert_eq!(pool.aged(), e.live_ids_oldest_first());
            }
            // Drain: whatever is available leaves in exactly the oracle's
            // order, and what remains is exactly what is still in use.
            while evict_in_lockstep(&mut pool, &mut e, SimTime::from_secs(9)) {}
            assert_eq!(pool.total_live(), busy.len());
            for id in busy {
                finish(&mut pool, &mut e, id, false, SimTime::from_secs(9));
            }
            assert_eq!(pool.sizes(), (e.live_count(), 0), "in use at quiescence");
            assert_eq!(pool.aged(), e.live_ids_oldest_first());
        });
    }
}
