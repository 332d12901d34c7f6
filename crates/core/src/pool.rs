//! The concurrent runtime pool (§IV-B, Fig. 7).
//!
//! The paper's pool is one key-value store in front of one container daemon.
//! [`RuntimePool`] interns each configuration into a dense [`KeyId`] and
//! keeps every key's containers in that key's slot array — a chain of fixed
//! [`SLOTS_PER_KEY`]-slot chunks that grows by one chunk whenever every slot
//! is occupied — indexed by two [`stdshim::sync::SlotBitmap`] free-lists per
//! chunk (`avail` and `in_use`), so a warm acquire is a claim-bit CAS plus a
//! container-handle load, and a warm release is the mirror image. Every
//! container of a key lives in that array under that one protocol, whatever
//! the population. What the bitmaps cannot say — which keys are tracked,
//! which slot index holds which container, how old each container is — sits
//! behind the one pool-state mutex.
//!
//! Lock discipline (see DESIGN.md §5):
//!
//! * **warm hit: zero locks.** `acquire_id` claims an `avail` bit with a
//!   CAS and loads the packed container entry; `release` resolves the
//!   container through a lock-free reverse index and claims its `in_use`
//!   bit. The interval's first acquire of a key also sets the key's bit in
//!   the pool's wake bitmap (one `fetch_or`, see below). Under
//!   `KeyPolicy::Exact` the request-path sanitizer scope asserts a lock
//!   depth of zero on this path in debug builds.
//! * **miss / cold start / evict / controller / GC: the pool lock.** The
//!   state `Mutex` serializes slot-array *occupancy* changes (which slot
//!   index holds which container, and the appending of a chunk); engine
//!   calls (container creation, cleanup, teardown) always happen outside it,
//!   one lock at a time.
//! * **publish-before-bit-set.** A newly cold-started or pre-warmed
//!   container's packed entry and reverse-index mapping are stored *before*
//!   its bitmap bit is set, and the bit-set is a release store — a claimer's
//!   acquire-CAS therefore always observes a fully published slot. A chunk
//!   is appended (a `OnceLock` publication) before any slot index in it is
//!   handed out, so whoever learns such an index — from the reverse index's
//!   release-store or from a set bit — also sees the chunk.
//! * global eviction walks **one age index**: the pool keeps its containers
//!   (available *and* in use) ordered by `(created_at, id)`, updated under
//!   the lock at the five places that change the live count (cold publish,
//!   prewarm, crashed-release disposal, retire, evict). An eviction walks it
//!   in order inside one critical section and claims the first entry whose
//!   `avail` bit it wins; an entry a racing lock-free acquire holds (or
//!   takes first) is passed over. The index covers *live* containers, not
//!   *available* ones, so the lock-free warm claim and hand-back never touch
//!   it.
//!
//! The pool's bookkeeping invariants (enforced by the property tests):
//!
//! * `total_live() == engine.live_count()` at quiescence;
//! * a slot index is in `avail` or `in_use`, never both; a container is
//!   owned by at most one request at a time (the `in_use` bit is the
//!   ownership token a release must claim);
//! * the `free` bitmaps (slot-array occupancy) are mutated only under the
//!   pool lock, so a key's live population is exact whenever the lock is
//!   held — the controller's GC decisions can never race a half-finished
//!   warm operation into stranding a container;
//! * a slot exists only while its key holds a container, saw demand in the
//!   current control interval, or went cold fewer than `GC_INTERVALS` (3)
//!   demand snapshots ago — failed creates never materialize slots, and
//!   long-dead slots are garbage collected together with their controller
//!   state;
//! * a demand snapshot visits a key only if it is *unparked*, its hold
//!   ends at this step, or it was *woken* since the last snapshot. A control
//!   step parks the keys it holds (idle, at their target); every change to
//!   a parked key's sample wakes it — lock-free, the first warm acquire of
//!   an interval (the one that finds the watermark at 0); under the lock,
//!   every occupancy change. So a step costs O(keys that changed + holds
//!   that end), and a parked key nothing.

use crate::key::{needs_reconfig, KeyId, KeyInterner, KeyPolicy, FUZZY_RECONFIG_COST};
use containersim::{ContainerConfig, ContainerEngine, ContainerId, CostBreakdown, EngineError};
use faas::Acquisition;
use simclock::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::sync::Arc;
use stdshim::atomic::{
    Ordering, ShimAtomicU64 as AtomicU64, ShimAtomicUsize as AtomicUsize, ShimOnceLock as OnceLock,
};
use stdshim::sync::{LazySlotTable, Mutex, SlotBitmap};
use stdshim::FastMap;

/// Consecutive zero-demand snapshots after which an empty slot is garbage
/// collected.
pub(crate) const GC_INTERVALS: u64 = 3;

/// Slots per chunk of a key's slot array. A key starts with one chunk and
/// appends another whenever all its slots are occupied.
const SLOTS_PER_KEY: usize = 128;

/// Scoped access to the container engine. The pool never holds its lock
/// across an engine call, so the engine guard's scope is chosen per call:
/// concurrent frontends implement this over a `Mutex<ContainerEngine>`,
/// single-threaded callers wrap their exclusive `&mut` in [`ExclusiveEngine`].
pub trait EngineRef {
    /// Runs `f` with exclusive access to the engine.
    fn with_engine<R>(&self, f: impl FnOnce(&mut ContainerEngine) -> R) -> R;
}

impl EngineRef for Mutex<ContainerEngine> {
    fn with_engine<R>(&self, f: impl FnOnce(&mut ContainerEngine) -> R) -> R {
        f(&mut self.lock())
    }
}

/// [`EngineRef`] over an exclusive borrow, for single-threaded callers (the
/// HotC provider) that already own `&mut` access.
pub struct ExclusiveEngine<'a> {
    inner: std::cell::RefCell<&'a mut ContainerEngine>,
}

impl<'a> ExclusiveEngine<'a> {
    /// Wraps an exclusive engine borrow.
    pub fn new(engine: &'a mut ContainerEngine) -> Self {
        ExclusiveEngine {
            inner: std::cell::RefCell::new(engine),
        }
    }
}

impl EngineRef for ExclusiveEngine<'_> {
    fn with_engine<R>(&self, f: impl FnOnce(&mut ContainerEngine) -> R) -> R {
        f(&mut self.inner.borrow_mut())
    }
}

/// The container a slot entry names, or `None` for an empty slot (engine ids
/// start at 1, so 0 is free to mean "empty").
fn entry_container(entry: u64) -> Option<ContainerId> {
    (entry != 0).then_some(ContainerId(entry))
}

/// One fixed run of [`SLOTS_PER_KEY`] slots of a key's slot array, and the
/// link to the run after it.
///
/// Index lifecycle: `free` (unoccupied, mutated **only** under the pool
/// lock) → publish stores the packed entry + reverse-index mapping, then
/// sets exactly one of `avail`/`in_use` — the release-store that makes the
/// slot claimable. While a slot index is occupied its entry names the same
/// container; only lock-holding paths (publish, dispose) rewrite it, so
/// lock-free claimers can re-verify entries without ABA hazards.
#[derive(Debug)]
struct SlotChunk {
    /// The container id per slot; 0 = empty.
    entries: Box<[AtomicU64]>,
    /// Set = slot unoccupied. Claimed at publish, released at dispose, both
    /// under the pool lock — `SLOTS_PER_KEY - free.count()` is the chunk's
    /// exact population whenever the lock is held.
    free: SlotBitmap,
    /// Set = warm container ready to claim (Existing-Available).
    avail: SlotBitmap,
    /// Set = handed out (Existing-Not-Available). The bit is the ownership
    /// token: a release must claim it, so double releases are rejected.
    in_use: SlotBitmap,
    /// The next chunk, appended under the pool lock once every slot up to
    /// here is occupied, and never freed: a key that once burst keeps its
    /// chain. Set before any slot index of the new chunk exists anywhere.
    next: OnceLock<Box<SlotChunk>>,
}

impl SlotChunk {
    /// An empty chunk with its first `free` slots unoccupied and the rest
    /// unusable. The pool frees all [`SLOTS_PER_KEY`]; the model API frees a
    /// small prefix instead — under the checker each bit release is a
    /// schedule point paid on every re-executed schedule.
    fn new(free: usize) -> SlotChunk {
        let chunk = SlotChunk {
            entries: (0..SLOTS_PER_KEY).map(|_| AtomicU64::new(0)).collect(),
            free: SlotBitmap::labeled(SLOTS_PER_KEY, "pool/slot-free"),
            avail: SlotBitmap::labeled(SLOTS_PER_KEY, "pool/slot-avail"),
            in_use: SlotBitmap::labeled(SLOTS_PER_KEY, "pool/slot-inuse"),
            next: OnceLock::new(),
        };
        for i in 0..free {
            chunk.free.release(i);
        }
        chunk
    }

    /// Empties a slot whose bits are already claimed by the caller. Pool
    /// lock required: this mutates `free` (occupancy).
    fn dispose_idle(&self, bit: usize) {
        // lint:allow(atomic-ordering, caller owns every bit of this slot; unreachable until free.release)
        self.entries[bit].store(0, Ordering::Relaxed);
        let fresh = self.free.release(bit);
        debug_assert!(fresh, "disposed slot was already free");
    }
}

/// Which of a publish's two ordered stores are release stores. Production
/// has the one value; the instrumented build adds the two weakenings the
/// mutation harness (`hotc-model/tests/mutation.rs`) must catch, so the
/// checker runs the very sequence the pool runs.
#[derive(Debug, Clone, Copy)]
pub enum PublishOrder {
    /// The reverse-index store and the bit-set are both `Release`.
    Release,
    /// Mutation: the final bit-set is `Relaxed`.
    #[cfg(hotc_model)]
    RelaxedBit,
    /// Mutation: the reverse-index store is `Relaxed`.
    #[cfg(hotc_model)]
    RelaxedRindex,
}

impl PublishOrder {
    fn store_rindex(self, cell: &AtomicU64, packed: u64) {
        match self {
            #[cfg(hotc_model)]
            // lint:allow(atomic-ordering, deliberately weak reverse-index publish; the mutation harness must catch it)
            PublishOrder::RelaxedRindex => cell.store(packed, Ordering::Relaxed),
            _ => cell.store(packed, Ordering::Release),
        }
    }

    fn set_bit(self, bitmap: &SlotBitmap, bit: usize) -> bool {
        match self {
            #[cfg(hotc_model)]
            PublishOrder::RelaxedBit => bitmap.release_relaxed(bit),
            _ => bitmap.release(bit),
        }
    }
}

/// The pool's wake bitmap, one bit per [`KeyId`]: set = the key may have
/// changed since the last demand snapshot, which drains the bits and visits
/// every woken key, parked or not. Set lock-free by a key's first warm
/// acquire of an interval ([`KeySlots::note_acquire`]) and under the pool
/// lock by every occupancy change. A key's word exists from the moment its
/// slot array does.
#[derive(Debug, Default)]
struct WakeBits {
    words: LazySlotTable<AtomicU64>,
}

impl WakeBits {
    /// Allocates the word holding `id`'s bit (with the key's slot array).
    fn reserve(&self, id: KeyId) {
        self.words.get_or_init(id.index() / 64);
    }

    /// Wakes `id`. `Release`, paired with the drain's `Acquire`: a snapshot
    /// that drains the bit also sees the watermark raised before it was set.
    fn set(&self, id: KeyId) {
        let word = self.words.get(id.index() / 64);
        debug_assert!(word.is_some(), "woke a key with no slot array");
        if let Some(word) = word {
            word.fetch_or(1 << (id.index() % 64), Ordering::Release);
        }
    }

    /// Takes and clears word `w`. A bit set after the first load stays set
    /// for the next snapshot; an all-clear word costs one load.
    fn drain(&self, w: usize) -> u64 {
        match self.words.get(w) {
            Some(word) if word.load(Ordering::Relaxed) != 0 => word.swap(0, Ordering::Acquire),
            _ => 0,
        }
    }
}

/// Sets `id`'s bit in a plain per-key bitmap, growing it as needed.
fn set_key_bit(bits: &mut Vec<u64>, id: KeyId) {
    let w = id.index() / 64;
    if bits.len() <= w {
        bits.resize(w + 1, 0);
    }
    bits[w] |= 1 << (id.index() % 64);
}

/// An unoccupied slot claimed off a key's `free` bitmaps: its index, its
/// chunk and its bit there.
type FreeSlot<'a> = (usize, &'a SlotChunk, usize);

/// One key's lock-free slot array: the warm-path state ([Fig. 7]'s value
/// list, flattened into atomics). Slot index `i` is bit `i % SLOTS_PER_KEY`
/// of chunk `i / SLOTS_PER_KEY`; every walk goes lowest index first, so a
/// key that never holds more than one chunk's worth never leaves `head`.
#[derive(Debug)]
struct KeySlots {
    head: SlotChunk,
    /// In-use containers of this key, including releases still in transit
    /// through their engine critical section. Decremented only once the
    /// container is available again (or disposed), so the demand watermark
    /// never under-reports a mid-release container.
    in_use_total: AtomicUsize,
    /// Peak `in_use_total` since the last demand snapshot — the
    /// `history[k][t]` series the adaptive controller feeds the predictor.
    watermark: AtomicUsize,
}

impl KeySlots {
    /// A slot array whose first chunk has `free` usable slots (see
    /// [`SlotChunk::new`]).
    fn new(free: usize) -> KeySlots {
        KeySlots {
            head: SlotChunk::new(free),
            in_use_total: AtomicUsize::new(0),
            watermark: AtomicUsize::new(0),
        }
    }

    /// Every chunk appended so far, in slot-index order (counting paths).
    fn chunks(&self) -> impl Iterator<Item = &SlotChunk> {
        std::iter::successors(Some(&self.head), |chunk| {
            chunk.next.get().map(|next| &**next)
        })
    }

    /// Slot index `i`'s chunk and its bit there; indices below
    /// [`SLOTS_PER_KEY`] load nothing. An index exists only after its chunk
    /// was appended, and whoever holds one learned it through a
    /// release-store made after the append (reverse index, bitmap bit, pool
    /// lock), so the walk cannot fall off the chain.
    fn at(&self, i: usize) -> (&SlotChunk, usize) {
        let mut chunk = &self.head;
        for _ in 0..i / SLOTS_PER_KEY {
            let next = chunk.next.get();
            // lint:allow(unwrap, a slot index beyond the chain is a broken publication order, not an input)
            chunk = next.expect("slot index beyond the key's chunk chain");
        }
        (chunk, i % SLOTS_PER_KEY)
    }

    /// Occupied slots. Exact under the pool lock (see [`SlotChunk::free`]).
    fn occupied(&self) -> usize {
        self.chunks()
            .map(|chunk| SLOTS_PER_KEY - chunk.free.count())
            .sum()
    }

    /// Available containers right now (advisory outside the pool lock).
    fn avail_count(&self) -> usize {
        self.chunks().map(|chunk| chunk.avail.count()).sum()
    }

    /// Whether slot `i` holds an available container right now.
    fn is_avail(&self, i: usize) -> bool {
        let (chunk, bit) = self.at(i);
        chunk.avail.is_set(bit)
    }

    /// The container slot `i`'s entry names, if the slot is occupied.
    fn container_at(&self, i: usize) -> Option<ContainerId> {
        let (chunk, bit) = self.at(i);
        entry_container(chunk.entries[bit].load(Ordering::Relaxed))
    }

    /// Counts an acquisition of key `id` into the demand bookkeeping. The
    /// interval's first — the one that finds the watermark at 0, where a
    /// snapshot that found the key idle left it — also wakes the key, so a
    /// snapshot either swaps this acquire out of the watermark or leaves the
    /// key woken for the next one.
    fn note_acquire(&self, wake: &WakeBits, id: KeyId) {
        let now = self.in_use_total.fetch_add(1, Ordering::Relaxed) + 1;
        if self.watermark.fetch_max(now, Ordering::Relaxed) == 0 {
            wake.set(id);
        }
    }

    /// The key's `(demand, avail, in_use)` for the interval ending now,
    /// resetting the watermark to what is still in use. Pool lock held.
    fn sample(&self) -> (usize, usize, usize) {
        let in_use = self.in_use_total.load(Ordering::Relaxed);
        let avail = self.avail_count();
        let demand = self
            .watermark
            // lint:allow(atomic-ordering, watermark is an advisory peak counter reset under the pool lock)
            .swap(in_use, Ordering::Relaxed)
            .max(in_use);
        (demand, avail, in_use)
    }

    /// CAS-claims the lowest set bit of one of the per-chunk bitmaps,
    /// looking at a further chunk only when the ones before it have none:
    /// the slot index, its chunk and its bit there.
    fn claim_lowest(
        &self,
        bitmap: impl Fn(&SlotChunk) -> &SlotBitmap,
    ) -> Option<(usize, &SlotChunk, usize)> {
        let (mut chunk, mut base) = (&self.head, 0);
        loop {
            if let Some(bit) = bitmap(chunk).claim() {
                return Some((base + bit, chunk, bit));
            }
            chunk = chunk.next.get()?;
            base += SLOTS_PER_KEY;
        }
    }

    /// Appends `chunk` behind the last one. Pool lock required (one
    /// appender at a time), and called only when every slot is occupied.
    fn append(&self, chunk: SlotChunk) {
        let mut last = &self.head;
        while let Some(next) = last.next.get() {
            last = next;
        }
        last.next.get_or_init(|| Box::new(chunk));
    }

    /// Claims the lowest unoccupied slot, appending a chunk when every slot
    /// is occupied. Pool lock required: this mutates `free`.
    fn claim_free(&self) -> FreeSlot<'_> {
        loop {
            if let Some(claimed) = self.claim_lowest(|chunk| &chunk.free) {
                return claimed;
            }
            self.append(SlotChunk::new(SLOTS_PER_KEY));
        }
    }

    /// Publishes a just-created container straight into the in-use state
    /// (cold-start acquire) at `free`. Pool lock held. The entry and the
    /// container's reverse-index cell `rindex` are stored *before* the
    /// `in_use` bit is set, and the bit-set is a release store
    /// (publish-before-bit-set). Returns the slot index.
    fn publish_in_use(
        &self,
        (i, chunk, bit): FreeSlot<'_>,
        rindex: &AtomicU64,
        id: KeyId,
        container: ContainerId,
        order: PublishOrder,
        wake: &WakeBits,
    ) -> usize {
        // lint:allow(atomic-ordering, entry store is ordered by the in_use bit-set below)
        chunk.entries[bit].store(container.0, Ordering::Relaxed);
        order.store_rindex(rindex, pack_rindex(id, i));
        let fresh = order.set_bit(&chunk.in_use, bit);
        debug_assert!(fresh, "published slot's in_use bit was already set");
        self.note_acquire(wake, id);
        i
    }

    /// Publishes a just-created container into the available state
    /// (prewarm) at `free`. Pool lock held; publish-before-bit-set as above.
    /// Returns the slot index.
    fn publish_avail(
        &self,
        (i, chunk, bit): FreeSlot<'_>,
        rindex: &AtomicU64,
        id: KeyId,
        container: ContainerId,
        order: PublishOrder,
    ) -> usize {
        // lint:allow(atomic-ordering, entry store is ordered by the avail bit-set below)
        chunk.entries[bit].store(container.0, Ordering::Relaxed);
        order.store_rindex(rindex, pack_rindex(id, i));
        let fresh = order.set_bit(&chunk.avail, bit);
        debug_assert!(fresh, "published slot's avail bit was already set");
        i
    }

    /// Lock-free warm claim: CAS an `avail` bit, load the published entry,
    /// take the `in_use` ownership token, count the acquire into key `id`'s
    /// demand. Returns the slot index and its container.
    fn claim_warm(&self, wake: &WakeBits, id: KeyId) -> Option<(usize, ContainerId)> {
        let (i, chunk, bit) = self.claim_lowest(|chunk| &chunk.avail)?;
        // The claim's acquire CAS synchronizes with the publisher's release
        // bit-set, so the entry (stored before the bit) is fully visible.
        let entry = chunk.entries[bit].load(Ordering::Relaxed);
        debug_assert_ne!(entry, 0, "claimed an avail bit over an empty slot");
        let fresh = chunk.in_use.release(bit);
        debug_assert!(fresh, "slot was avail and in_use at once");
        self.note_acquire(wake, id);
        Some((i, ContainerId(entry)))
    }

    /// Lock-free release claim: verify the entry names `container`, take the
    /// `in_use` ownership token, then re-verify. Entries only change while a
    /// slot is unoccupied or under the pool lock, so a double release (bit
    /// already claimed) or a stale reverse-index mapping fails here.
    fn try_claim_release(&self, i: usize, container: ContainerId) -> bool {
        let (chunk, bit) = self.at(i);
        if entry_container(chunk.entries[bit].load(Ordering::Acquire)) != Some(container) {
            return false;
        }
        if !chunk.in_use.claim_at(bit) {
            return false;
        }
        if entry_container(chunk.entries[bit].load(Ordering::Relaxed)) != Some(container) {
            let fresh = chunk.in_use.release(bit);
            debug_assert!(fresh, "restored claim found the in_use bit set");
            return false;
        }
        true
    }

    /// Returns an engine-rejected release's ownership token (see
    /// [`Self::try_claim_release`]).
    fn restore_claim(&self, i: usize) {
        let (chunk, bit) = self.at(i);
        let fresh = chunk.in_use.release(bit);
        debug_assert!(fresh, "restored claim found the in_use bit set");
    }

    /// Returns a claimed slot's container to the warm pool. Lock-free, and
    /// no entry store: the entry still names the container it was published
    /// with, so the `avail` release-store alone makes the slot claimable.
    fn hand_back(&self, i: usize) {
        let (chunk, bit) = self.at(i);
        let fresh = chunk.avail.release(bit);
        debug_assert!(fresh, "hand-back found the avail bit already set");
        self.in_use_total.fetch_sub(1, Ordering::Relaxed);
    }

    /// Retires any available container (controller scale-down): the
    /// avail-bit claim is atomic against racing lock-free acquires — whoever
    /// wins the CAS owns the slot. Pool lock required (disposes).
    fn retire_avail(&self) -> Option<ContainerId> {
        let (_, chunk, bit) = self.claim_lowest(|chunk| &chunk.avail)?;
        let container = entry_container(chunk.entries[bit].load(Ordering::Relaxed));
        debug_assert!(container.is_some(), "avail bit over an empty slot");
        chunk.dispose_idle(bit);
        container
    }

    /// Eviction's claim phase: entries are frozen while occupied, so the
    /// candidate is still at slot `i` ⇔ the entry still names it; the bit
    /// claim then races only lock-free acquirers, and a racing acquire
    /// winning it fails the eviction. Pool lock required (disposes).
    fn evict_at(&self, i: usize, container: ContainerId) -> bool {
        let (chunk, bit) = self.at(i);
        let entry = chunk.entries[bit].load(Ordering::Relaxed);
        let claimed = entry_container(entry) == Some(container) && chunk.avail.claim_at(bit);
        if claimed {
            chunk.dispose_idle(bit);
        }
        claimed
    }
}

/// One runtime type's containers, plus the bookkeeping the adaptive
/// controller feeds on. The containers live in the shared [`KeySlots`]; this
/// struct holds the locked remainder: controller flags and a representative
/// configuration.
#[derive(Debug)]
struct Slot {
    /// The key's lock-free slot array, shared with the pool-level key table
    /// so warm paths reach it without this `Slot` (or its lock).
    ks: Arc<KeySlots>,
    /// The snapshot sequence number at which this slot went empty with zero
    /// demand, if it is currently cold; the slot is GC'd once it stays cold
    /// for [`GC_INTERVALS`] snapshots. A snapshot that finds demand or a
    /// container clears it.
    cold_since: Option<u64>,
    /// A representative configuration for this key, kept so the controller
    /// can pre-warm by key alone. Every container the pool boots with this
    /// exact configuration hands the engine this `Arc`, so the key's
    /// containers share one copy — the interner's, whenever the request
    /// that made the slot had the key's first configuration (always under
    /// exact keys), so it outlives the slot's GC.
    config: Arc<ContainerConfig>,
}

impl Slot {
    fn new(config: Arc<ContainerConfig>, ks: Arc<KeySlots>) -> Self {
        Slot {
            ks,
            cold_since: None,
            config,
        }
    }
}

/// Everything the pool keeps behind its one lock: which keys are tracked
/// and the age order of the containers they hold.
#[derive(Debug, Default)]
struct PoolState {
    /// Keyed by interned id with [`FastMap`] — the id is an internal dense
    /// integer, so the default hasher's DoS resistance buys nothing on this
    /// per-request lookup.
    slots: FastMap<KeyId, Slot>,
    /// One bit per [`KeyId`]: set = the next demand snapshot visits the key
    /// whether or not it is woken. Set when a key becomes tracked and by
    /// every snapshot that visits it; cleared when a control step parks the
    /// key or GC drops it.
    unparked: Vec<u64>,
    /// Snapshot sequence number (one per demand snapshot).
    seq: u64,
    /// Containers currently tracked by the pool (available + in use),
    /// maintained under the lock at every occupancy change so
    /// [`RuntimePool::total_live`] is O(1). Warm hits and warm
    /// releases do not change occupancy, so they never touch it. Every
    /// demand snapshot cross-checks it in debug builds.
    live: usize,
    /// The pooled containers (available *and* in use) ordered by
    /// `(created_at, id)` — the eviction order. Inserted and removed at the
    /// same points that change `live`, so `ages.len() == live` under the
    /// lock; warm claims and hand-backs change availability, not
    /// membership, and never touch it. The value locates the container: its
    /// key and its slot index, both fixed for the container's whole pool
    /// tenure.
    ages: BTreeMap<(SimTime, ContainerId), (KeyId, usize)>,
    /// `created_at` per pooled container, for the removal sites that hold
    /// only the id (the engine has already forgotten a disposed container).
    born: FastMap<ContainerId, SimTime>,
}

impl PoolState {
    /// `id`'s slot, tracking the key — unparked, so the next snapshot
    /// visits it — if it is not tracked yet.
    fn track(&mut self, id: KeyId, slot: impl FnOnce() -> Slot) -> &Slot {
        let PoolState {
            slots, unparked, ..
        } = self;
        slots.entry(id).or_insert_with(|| {
            set_key_bit(unparked, id);
            slot()
        })
    }

    /// Visits every key whose `unparked` bit is set, in `KeyId` order: swaps
    /// its watermark, reports `(demand, avail, in_use)` and keeps the bit,
    /// or — at the key's [`GC_INTERVALS`]-th consecutive snapshot with zero
    /// demand and no container — drops the slot and reports the key retired.
    /// A set bit naming an untracked key is cleared. Fills `into`, whose
    /// vectors keep their capacity.
    fn sweep(&mut self, into: &mut DemandSnapshot) {
        self.seq += 1;
        let PoolState {
            slots,
            unparked,
            seq,
            ..
        } = self;
        let DemandSnapshot { demands, retired } = into;
        demands.clear();
        retired.clear();
        demands.reserve(unparked.iter().map(|w| w.count_ones() as usize).sum());
        for (w, word) in unparked.iter_mut().enumerate() {
            let mut bits = *word;
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let id = KeyId::from_index((w * 64 + bit) as u32);
                let Some(slot) = slots.get_mut(&id) else {
                    *word &= !(1 << bit);
                    continue;
                };
                let (demand, avail, in_use) = slot.ks.sample();
                // GC fires only when the key's live population — its slot
                // array's occupancy, exact under the pool lock — is zero, so
                // a warm operation caught between its CAS and its
                // bookkeeping can never have its container stranded.
                if demand == 0 && slot.ks.occupied() == 0 {
                    let since = *slot.cold_since.get_or_insert(*seq);
                    if *seq - since + 1 >= GC_INTERVALS {
                        slots.remove(&id);
                        *word &= !(1 << bit);
                        retired.push(id);
                        continue;
                    }
                } else {
                    slot.cold_since = None;
                }
                demands.push(KeyDemand {
                    id,
                    demand,
                    avail,
                    in_use,
                });
            }
        }
    }

    /// Counts a just-published container into the pool (`live` and the
    /// age index move together). `created_at` is the `now` its
    /// `create_container` call was given.
    fn admit(&mut self, container: ContainerId, created_at: SimTime, key: KeyId, at: usize) {
        self.live += 1;
        self.ages.insert((created_at, container), (key, at));
        self.born.insert(container, created_at);
    }

    /// Drops a container that just left the pool (disposed, retired or
    /// evicted) from `live` and the age index.
    fn forget(&mut self, container: ContainerId) {
        self.live -= 1;
        let created_at = self.born.remove(&container);
        debug_assert!(created_at.is_some(), "pooled container has no age entry");
        if let Some(created_at) = created_at {
            self.ages.remove(&(created_at, container));
        }
    }

    /// Debug cross-check of `live` and the age index against the slot
    /// bookkeeping they shadow: `live` is the slots' total occupancy, and
    /// the index has exactly `live` entries, each one resolving to the
    /// container its key's slot array names at that index.
    fn assert_ages_consistent(&self) {
        assert_eq!(
            self.live,
            self.slots.values().map(|s| s.ks.occupied()).sum::<usize>(),
            "pool live counter diverged from slot contents"
        );
        assert_eq!(self.ages.len(), self.live, "age index size != live");
        assert_eq!(self.born.len(), self.live, "age side map size != live");
        for (&(created_at, container), &(key, at)) in &self.ages {
            assert_eq!(self.born.get(&container), Some(&created_at));
            // lint:allow(unwrap, debug cross-check; a missing slot is the broken invariant it reports)
            let slot = self.slots.get(&key).expect("indexed key has no slot");
            assert_eq!(
                slot.ks.container_at(at),
                Some(container),
                "indexed slot names another container"
            );
        }
    }
}

/// One key's demand sample within a [`DemandSnapshot`]. Carries the slot's
/// live population as seen while the pool lock was already held, so the
/// controller can size the key without re-locking the pool per key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyDemand {
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
pub struct DemandSnapshot {
    /// `history[k][t]` entries for the interval, sorted by key id.
    pub demands: Vec<KeyDemand>,
    /// Keys GC'd by this snapshot, sorted.
    pub retired: Vec<KeyId>,
}

/// An acquisition with the pool-side detail behind it: whether any lock was
/// taken on the way.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PoolAcquisition {
    /// The container to run in.
    pub container: ContainerId,
    /// Virtual time spent obtaining it.
    pub cost: SimDuration,
    /// Whether a new container had to be created.
    pub cold: bool,
    /// Per-stage decomposition of a cold start (`None` on reuse).
    pub breakdown: Option<CostBreakdown>,
    /// Reconfiguration cost of a fuzzy-matched reuse (zero otherwise).
    pub reconfig: SimDuration,
    /// True when the acquisition completed without a single lock — a warm
    /// bitmap hit under an exact policy (fuzzy reuse checks the engine's
    /// config, locked-retry hits hold the pool lock). Callers assert a
    /// sanitizer lock depth of zero against this in debug builds.
    pub lock_free: bool,
}

impl From<PoolAcquisition> for Acquisition {
    fn from(a: PoolAcquisition) -> Acquisition {
        Acquisition {
            container: a.container,
            cost: a.cost,
            cold: a.cold,
            breakdown: a.breakdown,
            reconfig: a.reconfig,
        }
    }
}

/// A claimed slot: the caller holds the slot's ownership token (its
/// `in_use` bit is cleared) and must hand it back or dispose of it.
struct ClaimedSlot<'a> {
    id: KeyId,
    ks: &'a KeySlots,
    slot: usize,
}

/// The HotC container pool (Algorithms 1–2).
///
/// All methods take `&self`; warm hits are lock-free (bitmap CAS), while
/// one mutex serializes occupancy changes. Engine work happens outside that
/// lock via [`EngineRef`].
///
/// ```
/// use containersim::{ContainerConfig, ContainerEngine, HardwareProfile, ImageId};
/// use hotc::{ExclusiveEngine, KeyPolicy, RuntimePool};
/// use simclock::SimTime;
///
/// let mut engine = ContainerEngine::with_local_images(HardwareProfile::server());
/// let pool = RuntimePool::new(KeyPolicy::Exact);
/// let config = ContainerConfig::bridge(ImageId::parse("python:3.8-alpine"));
///
/// // Algorithm 1: first acquire cold-starts, …
/// let first = pool
///     .acquire(&ExclusiveEngine::new(&mut engine), &config, SimTime::ZERO)
///     .unwrap();
/// assert!(first.cold);
/// # let out = engine.begin_exec(first.container,
/// #     containersim::engine::ExecWork::light(simclock::SimDuration::from_millis(1)),
/// #     SimTime::ZERO).unwrap();
/// # engine.end_exec(first.container, SimTime::ZERO + out.latency).unwrap();
/// // … Algorithm 2 cleans and re-pools, and the next acquire reuses.
/// pool.release(&ExclusiveEngine::new(&mut engine), first.container, SimTime::from_secs(1))
///     .unwrap();
/// let second = pool
///     .acquire(&ExclusiveEngine::new(&mut engine), &config, SimTime::from_secs(2))
///     .unwrap();
/// assert!(!second.cold);
/// assert_eq!(second.container, first.container);
/// ```
#[derive(Debug)]
pub struct RuntimePool {
    policy: KeyPolicy,
    state: Mutex<PoolState>,
    /// Interns configurations into dense [`KeyId`]s; the slot map, the
    /// controller, and the gateway all key on the id.
    interner: KeyInterner,
    /// Lock-free key table: dense key id → that key's slot array. Entries
    /// are created once (first cold start / prewarm of the key) and persist
    /// across slot GC — their counters are provably zero while the key is
    /// untracked, and a revived key reuses the same array.
    key_slots: LazySlotTable<OnceLock<Arc<KeySlots>>>,
    /// Keys that may have changed since the last demand snapshot.
    wake: WakeBits,
    /// Lock-free reverse index: container id → packed `(key, slot)` (see
    /// [`pack_rindex`]), 0 = not pooled. Written at publish and cleared at
    /// dispose, both under the pool lock; read lock-free by
    /// `release`, which gets the container's true key and slot without
    /// touching the engine or the interner. It names every pooled container.
    rindex: LazySlotTable<AtomicU64>,
    /// Bumped by every operation that may change warm availability
    /// (acquire, release, prewarm, retire, evict). External indexes over
    /// this pool's warm state — the cluster placement index — compare it to
    /// decide whether a resync is due, so an idle pool costs them one load.
    /// A bump without an actual change (e.g. a failed cold start) only
    /// causes a spurious resync, never a stale read.
    mutation_epoch: AtomicU64,
}

/// Packs a key/slot pair for the container reverse index. Both halves are
/// stored +1 so the zero word means "no mapping".
fn pack_rindex(id: KeyId, slot: usize) -> u64 {
    ((id.index() as u64 + 1) << 32) | (slot as u64 + 1)
}

impl RuntimePool {
    /// Creates an empty pool.
    pub fn new(policy: KeyPolicy) -> Self {
        RuntimePool {
            policy,
            state: Mutex::labeled(PoolState::default(), "pool/state"),
            interner: KeyInterner::new(policy),
            key_slots: LazySlotTable::default(),
            wake: WakeBits::default(),
            rindex: LazySlotTable::default(),
            mutation_epoch: AtomicU64::new(0),
        }
    }

    /// Monotonic counter of warm-availability-affecting operations. Equal
    /// epochs guarantee warm counts have not changed since the last read;
    /// unequal epochs mean "maybe changed, rescan".
    pub fn mutation_epoch(&self) -> u64 {
        self.mutation_epoch.load(Ordering::Relaxed)
    }

    /// Marks warm availability as possibly changed (an atomic add, not a
    /// lock — the zero-lock warm path stays zero-lock).
    fn bump_epoch(&self) {
        self.mutation_epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Visits every key with at least one available (warm) container,
    /// yielding `(id, available_count)` under the pool lock; O(tracked
    /// keys). Lock-free warm traffic can move a count while it is read —
    /// exact when the caller serializes pool mutations (the single-threaded
    /// cluster scheduler does).
    pub fn for_each_warm(&self, mut f: impl FnMut(KeyId, usize)) {
        for (&id, slot) in &self.state.lock().slots {
            let avail = slot.ks.avail_count();
            if avail > 0 {
                f(id, avail);
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
    pub fn intern_config(&self, config: &ContainerConfig) -> KeyId {
        self.interner.intern(config)
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

    /// The key's slot array, creating the key-table entry (and the key's
    /// wake word) on first use.
    fn slots_for(&self, id: KeyId) -> Arc<KeySlots> {
        let cell = self.key_slots.get_or_init(id.index());
        self.wake.reserve(id);
        Arc::clone(cell.get_or_init(|| Arc::new(KeySlots::new(SLOTS_PER_KEY))))
    }

    /// The key's slot array, lock-free, if the key was ever pooled.
    fn key_slots(&self, key_index: usize) -> Option<&KeySlots> {
        Some(&**self.key_slots.get(key_index)?.get()?)
    }

    /// Resolves a container through the lock-free reverse index. `None` iff
    /// the pool does not hold the container.
    fn rindex_lookup(&self, container: ContainerId) -> Option<ClaimedSlot<'_>> {
        let packed = self
            .rindex
            .get(container.0 as usize)?
            .load(Ordering::Acquire);
        if packed == 0 {
            return None;
        }
        let key_index = (packed >> 32) as usize - 1;
        let slot = (packed & u64::from(u32::MAX)) as usize - 1;
        let ks = self.key_slots(key_index)?;
        Some(ClaimedSlot {
            id: KeyId::from_index(key_index as u32),
            ks,
            slot,
        })
    }

    /// The reverse-index cell a publish of `container` stores its mapping
    /// into (pool lock held).
    fn rindex_cell(&self, container: ContainerId) -> &AtomicU64 {
        self.rindex.get_or_init(container.0 as usize)
    }

    /// Clears a container's reverse-index mapping (pool lock held).
    fn rindex_clear(&self, container: ContainerId) {
        if let Some(cell) = self.rindex.get(container.0 as usize) {
            cell.store(0, Ordering::Release);
        }
    }

    /// Algorithm 1: obtain a runtime for `config`. Reuses the first
    /// available container of the same type if one exists, otherwise starts
    /// a new container — with the creation outside the pool lock. The reuse
    /// cost is zero, or the fuzzy reconfiguration cost when configs differ
    /// under a fuzzy key. A failed cold start records nothing: no phantom
    /// slot is left behind.
    pub fn acquire(
        &self,
        engine: &impl EngineRef,
        config: &ContainerConfig,
        now: SimTime,
    ) -> Result<Acquisition, EngineError> {
        let id = self.interner.intern(config);
        self.acquire_id(engine, id, config, now).map(Into::into)
    }

    /// [`Self::acquire`] with a pre-interned key id, returning the pool-side
    /// detail ([`PoolAcquisition`]) with it: every frontend serves a function
    /// through `HotC` with a key it resolved once — the concurrent gateway's
    /// at registration, `faas::Gateway`'s on the function's first request,
    /// the cluster's per (key, node) — instead of fingerprinting the
    /// configuration per request. `id` must be `self.intern_config(config)`.
    ///
    /// A warm hit takes **zero locks**: an `avail`-bit CAS claims the slot,
    /// the packed entry yields the container. Only a miss (no warm
    /// container) falls to the pool lock, and only a cold start touches
    /// the engine.
    pub(crate) fn acquire_id(
        &self,
        engine: &impl EngineRef,
        id: KeyId,
        config: &ContainerConfig,
        now: SimTime,
    ) -> Result<PoolAcquisition, EngineError> {
        // DESIGN.md §5: warm hits are lock-free; every other transition
        // takes its locks (pool, engine) strictly one at a time. The
        // sanitizer enforces both in debug builds.
        let _scope = stdshim::request_path_scope();
        self.bump_epoch();
        let lock_free_hit = self
            .key_slots(id.index())
            .and_then(|ks| ks.claim_warm(&self.wake, id));
        // What a cold start hands the engine, if the key's slot has it.
        let mut shared = None;
        let warm = lock_free_hit.or_else(|| {
            // The id↔config contract is verified off the lock-free path only:
            // the check interns, and the interner's lock would break the
            // warm hit's zero-lock guarantee in debug builds.
            debug_assert_eq!(id, self.intern_config(config));
            // Retry under the lock: a racing release may have refilled the
            // array after the lock-free claim missed.
            let guard = self.state.lock();
            let slot = guard.slots.get(&id)?;
            let hit = slot.ks.claim_warm(&self.wake, id);
            if hit.is_none() {
                shared = self.policy.share(&slot.config, config);
            }
            hit
        });
        if let Some((_, container)) = warm {
            // Exact keys never consult the engine on reuse, so a hit on the
            // first attempt must have run without a single lock.
            let lock_free = lock_free_hit.is_some() && self.policy != KeyPolicy::Fuzzy;
            let cost = self.fuzzy_reuse_cost(engine, container, config);
            debug_assert!(
                !lock_free || _scope.locks_taken() == 0,
                "warm hit took a lock"
            );
            return Ok(PoolAcquisition {
                container,
                cost,
                cold: false,
                breakdown: None,
                reconfig: cost,
                lock_free,
            });
        }
        // Not existing, or existing but not available: start a new one. The
        // slot is recorded only once the container exists, so a failed
        // create leaves no phantom slot behind for the controller to track.
        // With no slot configuration to share (an untracked key, or a fuzzy
        // request unlike its slot's), share the interner's where allowed:
        // its lock is taken here, between the pool-lock holds, not in one.
        let config = shared.unwrap_or_else(|| self.interner.share(id, config));
        let (container, breakdown) =
            engine.with_engine(|e| e.create_container(Arc::clone(&config), now))?;
        {
            let mut guard = self.state.lock();
            let slot = guard.track(id, || Slot::new(config, self.slots_for(id)));
            let slot_idx = slot.ks.publish_in_use(
                slot.ks.claim_free(),
                self.rindex_cell(container),
                id,
                container,
                PublishOrder::Release,
                &self.wake,
            );
            self.wake.set(id);
            guard.admit(container, now, id, slot_idx);
        }
        Ok(PoolAcquisition {
            container,
            cost: breakdown.total(),
            cold: true,
            breakdown: Some(breakdown),
            reconfig: SimDuration::ZERO,
            lock_free: false,
        })
    }

    /// Reconfiguration cost of reusing `container` for `config` — zero for
    /// exact keys (every key-relevant field is pinned), an engine config
    /// check for fuzzy keys.
    fn fuzzy_reuse_cost(
        &self,
        engine: &impl EngineRef,
        container: ContainerId,
        config: &ContainerConfig,
    ) -> SimDuration {
        if self.policy != KeyPolicy::Fuzzy {
            return SimDuration::ZERO;
        }
        engine.with_engine(|e| match e.config(container) {
            Some(existing) if needs_reconfig(existing, config) => FUZZY_RECONFIG_COST,
            _ => SimDuration::ZERO,
        })
    }

    /// Algorithm 2: clean the used container and add it back to the pool.
    /// A crashed (Stopped) container cannot be reused: it is disposed of
    /// instead. Releasing a container that was never acquired from this pool
    /// — or releasing the same container twice — is an
    /// [`EngineError::InvalidState`] that leaves the engine untouched: the
    /// duplicate must not be pooled, or one container could serve two
    /// requests at once.
    ///
    /// The warm path takes **zero pool locks**: the reverse index resolves
    /// the container to its key and slot, the `in_use` bit-claim proves
    /// ownership, and the hand-back is an `avail` release-store plus the
    /// demand-counter update. Only the disposal of a crashed container takes
    /// the pool lock.
    pub fn release(
        &self,
        engine: &impl EngineRef,
        container: ContainerId,
        now: SimTime,
    ) -> Result<SimDuration, EngineError> {
        self.release_claimed(engine, container, now, None)
    }

    /// The concurrent frontend's combined end-of-request path:
    /// [`Self::release`] for a container that is still executing — the
    /// execution is ended and the container cleaned (or, if `crashed`,
    /// disposed of) in a **single** engine critical section. The reverse
    /// index knows the container's *true* key, so a function re-registered
    /// with a different configuration mid-flight changes nothing here.
    pub(crate) fn try_finish_release(
        &self,
        engine: &impl EngineRef,
        container: ContainerId,
        now: SimTime,
        crashed: bool,
    ) -> Result<SimDuration, EngineError> {
        self.release_claimed(engine, container, now, Some(crashed))
    }

    /// Ends a container's pool tenure: claim it through the reverse index
    /// (lock-free), one engine critical section (optionally ending the
    /// execution first), then hand-back (lock-free) or disposal (pool
    /// lock) — disjoint regions, never nested. An engine rejection restores
    /// the ownership token.
    fn release_claimed(
        &self,
        engine: &impl EngineRef,
        container: ContainerId,
        now: SimTime,
        end_exec_then_crashed: Option<bool>,
    ) -> Result<SimDuration, EngineError> {
        // DESIGN.md §5: engine and pool locks are taken one at a time.
        let _scope = stdshim::request_path_scope();
        self.bump_epoch();
        let claim = self
            .rindex_lookup(container)
            .filter(|claim| claim.ks.try_claim_release(claim.slot, container));
        let Some(claim) = claim else {
            return Err(EngineError::InvalidState {
                id: container,
                state: engine.with_engine(|e| e.state(container)),
                needed: "a container acquired from this pool",
            });
        };
        let outcome = engine.with_engine(|e| {
            let crashed = match end_exec_then_crashed {
                Some(crashed) => {
                    e.end_exec(container, now)?;
                    crashed
                }
                None => e.state(container) == containersim::ContainerState::Stopped,
            };
            let cost = if crashed {
                e.stop_and_remove(container, now)
            } else {
                e.cleanup(container, now)
            }?;
            Ok::<_, EngineError>((cost, crashed))
        });
        match outcome {
            Ok((cost, crashed)) => {
                if crashed {
                    self.dispose_claimed(claim, container);
                } else {
                    claim.ks.hand_back(claim.slot);
                }
                Ok(cost)
            }
            Err(err) => {
                // The engine rejected the hand-back (e.g. released while
                // still Running): return the ownership token so bookkeeping
                // stays honest.
                claim.ks.restore_claim(claim.slot);
                Err(err)
            }
        }
    }

    /// Disposes of a claimed container (crashed release). Takes the pool
    /// lock: occupancy changes here.
    fn dispose_claimed(&self, claim: ClaimedSlot<'_>, container: ContainerId) {
        let mut guard = self.state.lock();
        debug_assert!(
            guard.slots.contains_key(&claim.id),
            "claimed container's key has no slot"
        );
        if guard.slots.contains_key(&claim.id) {
            let (chunk, bit) = claim.ks.at(claim.slot);
            chunk.dispose_idle(bit);
            claim.ks.in_use_total.fetch_sub(1, Ordering::Relaxed);
            self.rindex_clear(container);
            self.wake.set(claim.id);
            guard.forget(container);
        }
    }

    /// Pre-warms one container of the given configuration (adaptive
    /// controller's scale-up action). The container boots straight into the
    /// Existing-Available state. Returns the cold-start cost (background).
    pub fn prewarm(
        &self,
        engine: &impl EngineRef,
        config: &ContainerConfig,
        now: SimTime,
    ) -> Result<SimDuration, EngineError> {
        let id = self.interner.intern(config);
        let shared = self
            .state
            .lock()
            .slots
            .get(&id)
            .and_then(|slot| self.policy.share(&slot.config, config));
        let config = shared.unwrap_or_else(|| self.interner.share(id, config));
        self.prewarm_shared(engine, id, config, now)
    }

    /// [`Self::prewarm`] of `id`'s key with the configuration the new
    /// container's engine record shares.
    fn prewarm_shared(
        &self,
        engine: &impl EngineRef,
        id: KeyId,
        config: Arc<ContainerConfig>,
        now: SimTime,
    ) -> Result<SimDuration, EngineError> {
        self.bump_epoch();
        let (container, breakdown) =
            engine.with_engine(|e| e.create_container(Arc::clone(&config), now))?;
        let mut guard = self.state.lock();
        let slot = guard.track(id, || Slot::new(config, self.slots_for(id)));
        let slot_idx = slot.ks.publish_avail(
            slot.ks.claim_free(),
            self.rindex_cell(container),
            id,
            container,
            PublishOrder::Release,
        );
        self.wake.set(id);
        guard.admit(container, now, id, slot_idx);
        Ok(breakdown.total())
    }

    /// Pre-warms one container for a key the pool already tracks, using the
    /// slot's representative configuration. Returns `Ok(None)` if the key is
    /// unknown (e.g. its slot was GC'd since the snapshot).
    pub(crate) fn prewarm_key_id(
        &self,
        engine: &impl EngineRef,
        id: KeyId,
        now: SimTime,
    ) -> Result<Option<SimDuration>, EngineError> {
        let config = self
            .state
            .lock()
            .slots
            .get(&id)
            .map(|s| Arc::clone(&s.config));
        match config {
            Some(config) => self.prewarm_shared(engine, id, config, now).map(Some),
            None => Ok(None),
        }
    }

    /// Retires one available container of the given type (adaptive
    /// controller's scale-down action). Returns the teardown cost, or `None`
    /// if none was available.
    pub(crate) fn retire_one_id(
        &self,
        engine: &impl EngineRef,
        id: KeyId,
        now: SimTime,
    ) -> Result<Option<SimDuration>, EngineError> {
        self.bump_epoch();
        let popped = {
            let mut guard = self.state.lock();
            let popped = guard.slots.get(&id).and_then(|slot| slot.ks.retire_avail());
            if let Some(container) = popped {
                self.rindex_clear(container);
                self.wake.set(id);
                guard.forget(container);
            }
            popped
        };
        match popped {
            Some(container) => engine
                .with_engine(|e| e.stop_and_remove(container, now))
                .map(Some),
            None => Ok(None),
        }
    }

    /// Forcibly terminates the *oldest* available live container across all
    /// types (§IV-B's response to too many containers / memory pressure).
    ///
    /// One in-order walk of the age index inside one critical section —
    /// oldest `(created_at, id)` first — claiming the first entry whose
    /// `avail` bit it wins: in-use entries, and entries a racing lock-free
    /// acquire takes between the test and the claim, are passed over.
    /// Returns the teardown cost, or `None` if the pool holds no available
    /// container.
    pub fn evict_oldest(
        &self,
        engine: &impl EngineRef,
        now: SimTime,
    ) -> Result<Option<SimDuration>, EngineError> {
        self.bump_epoch();
        let evicted = {
            let mut guard = self.state.lock();
            let claimed = guard.ages.iter().find_map(|(&(_, container), &(key, at))| {
                let ks = &guard.slots.get(&key)?.ks;
                (ks.is_avail(at) && ks.evict_at(at, container)).then_some((key, container))
            });
            if let Some((key, container)) = claimed {
                self.rindex_clear(container);
                self.wake.set(key);
                guard.forget(container);
            }
            claimed.map(|(_, container)| container)
        };
        match evicted {
            Some(container) => engine
                .with_engine(|e| e.stop_and_remove(container, now))
                .map(Some),
            None => Ok(None),
        }
    }

    /// `num_avail[key]`: available containers of the given type.
    pub fn num_avail_id(&self, id: KeyId) -> usize {
        let state = self.state.lock();
        state.slots.get(&id).map_or(0, |s| s.ks.avail_count())
    }

    /// In-use containers of the given type (including releases in transit
    /// through their engine critical section).
    pub fn num_in_use_id(&self, id: KeyId) -> usize {
        let state = self.state.lock();
        state
            .slots
            .get(&id)
            .map_or(0, |s| s.ks.in_use_total.load(Ordering::Relaxed))
    }

    /// Total live containers tracked by the pool (available + in use).
    /// Reads one counter — O(1), not O(tracked keys), so the limit check
    /// the controller runs every tick stays independent of fleet size.
    pub fn total_live(&self) -> usize {
        self.state.lock().live
    }

    /// The pool's `(available, in_use)` container counts — the telemetry
    /// layer exports these as the pool-size gauges.
    pub fn sizes(&self) -> (usize, usize) {
        let state = self.state.lock();
        state.slots.values().fold((0, 0), |(a, u), s| {
            (
                a + s.ks.avail_count(),
                u + s.ks.in_use_total.load(Ordering::Relaxed),
            )
        })
    }

    /// Total available containers across all types.
    pub fn total_available(&self) -> usize {
        self.sizes().0
    }

    /// The Fig. 7 pool-view code for a container: 1 Existing-Available, 0
    /// Existing-Not-Available, -1 Not-Existing.
    pub fn pool_code(&self, engine: &ContainerEngine, container: ContainerId) -> i8 {
        // The reverse index names every pooled container; its slot's avail
        // bit answers directly.
        let available = self
            .rindex_lookup(container)
            .is_some_and(|claim| claim.ks.is_avail(claim.slot));
        if available {
            1
        } else if engine.config(container).is_some() {
            0
        } else {
            -1
        }
    }

    /// Takes a control step's demand snapshot (`history[k][t]`). Under the
    /// pool lock it parks `park` (the keys the previous step left held),
    /// then visits, in `KeyId` order, every tracked key that is unparked,
    /// in `due` (its hold ends at this step) or woken since the last
    /// snapshot: swaps its watermark for the next interval, reports it into
    /// `into` — zero-demand intervals included — and leaves it unparked, or
    /// garbage-collects it at its [`GC_INTERVALS`]-th consecutive snapshot
    /// with zero demand and no container.
    ///
    /// A parked key is skipped outright: nothing about it changed since
    /// the step that parked it (any change would have woken it), so its
    /// watermark is still 0 and its GC countdown still unset. A step costs
    /// O(keys visited), and `into`'s vectors are reused: once they have
    /// grown to the most keys a step visits, a step allocates nothing.
    pub(crate) fn take_demand_snapshot(
        &self,
        park: &[KeyId],
        due: &[KeyId],
        into: &mut DemandSnapshot,
    ) {
        let mut guard = self.state.lock();
        for &id in park {
            if let Some(word) = guard.unparked.get_mut(id.index() / 64) {
                *word &= !(1 << (id.index() % 64));
            }
        }
        for &id in due {
            set_key_bit(&mut guard.unparked, id);
        }
        self.drain_and_sweep(&mut guard, into);
    }

    /// [`Self::take_demand_snapshot`] over every tracked key, parked or
    /// not, unparking them all — the never-holding reference step's
    /// snapshot.
    pub fn take_full_snapshot(&self) -> DemandSnapshot {
        let mut guard = self.state.lock();
        let state = &mut *guard;
        for &id in state.slots.keys() {
            set_key_bit(&mut state.unparked, id);
        }
        let mut snapshot = DemandSnapshot::default();
        self.drain_and_sweep(state, &mut snapshot);
        snapshot
    }

    /// Adds the woken keys to the unparked ones — wake bits first, so a
    /// drained wake's watermark bump is seen by the sweep — and sweeps.
    fn drain_and_sweep(&self, state: &mut PoolState, into: &mut DemandSnapshot) {
        for (w, word) in state.unparked.iter_mut().enumerate() {
            *word |= self.wake.drain(w);
        }
        state.sweep(into);
        if cfg!(debug_assertions) {
            state.assert_ages_consistent();
        }
    }

    /// Whether the next [`Self::take_demand_snapshot`] skips `id` unless
    /// it is due or woken: tracked, parked and not woken since.
    #[cfg(test)]
    pub(crate) fn is_parked(&self, id: KeyId) -> bool {
        let state = self.state.lock();
        let (w, mask) = (id.index() / 64, 1u64 << (id.index() % 64));
        let listed = state.unparked.get(w).is_some_and(|bits| bits & mask != 0);
        let woken = self
            .wake
            .words
            .get(w)
            .is_some_and(|bits| bits.load(Ordering::Relaxed) & mask != 0);
        state.slots.contains_key(&id) && !listed && !woken
    }

    /// The keys the pool currently tracks, sorted.
    pub fn keys(&self) -> Vec<KeyId> {
        let mut keys: Vec<KeyId> = self.state.lock().slots.keys().copied().collect();
        keys.sort_unstable();
        keys
    }
}

/// Model-checker surface over the private [`KeySlots`] protocol, compiled
/// only under `--cfg hotc_model` (the instrumented build `hotc-model`'s
/// protocol suite runs against; see DESIGN.md §7.3).
///
/// Every operation calls the real `KeySlots` method — the lock-free ones
/// (`claim_warm`, `hand_back`, `try_claim_release`), the `KeySlots` halves of
/// the lock-holding ones (`retire_avail`, `evict_at`, `grow`, a snapshot's
/// wake drain and sample) and the two publishes [`RuntimePool`] itself
/// calls, with a few reverse-index cells and the key's wake word standing
/// in for the pool's tables — minus the pool lock: in the model the
/// lock's happens-before hand-off is reproduced by running every
/// lock-holding op either before spawning the racers (spawn copies the
/// parent's vector clock) or as the only lock-holder in the schedule, which
/// is precisely the mutual exclusion the real lock provides.
#[cfg(hotc_model)]
pub mod model_api {
    use super::{
        entry_container, AtomicU64, KeyId, KeySlots, Ordering, PublishOrder, SlotChunk, WakeBits,
    };
    use containersim::ContainerId;

    /// The model's one key.
    const KEY: KeyId = KeyId::from_index(0);

    /// One key's slot-array protocol surface for model tests.
    #[derive(Debug)]
    pub struct ModelSlots {
        ks: KeySlots,
        /// The reverse-index cells of the model's containers, by container
        /// id (`pack_rindex` of key 0, or 0 = not pooled).
        rindex: [AtomicU64; 8],
        /// The wake bitmap [`Self::snapshot`] drains. Boxed: the checker
        /// knows an atomic by its address, and the word is reserved before
        /// the `ModelSlots` moves.
        wake: Box<WakeBits>,
        /// The mutation [`Self::dropping_wakes`]: a wake bitmap acquires
        /// set and no snapshot drains.
        lost_wakes: Option<Box<WakeBits>>,
    }

    impl ModelSlots {
        /// A fresh slot group with only the first `prefree` free-bitmap
        /// slots released. The pool frees all of a chunk's slots; model
        /// tests keep `prefree` small so each re-executed schedule pays a
        /// handful of setup ops instead of 128.
        pub fn new(prefree: usize) -> ModelSlots {
            let wake = Box::<WakeBits>::default();
            wake.reserve(KEY);
            ModelSlots {
                ks: KeySlots::new(prefree),
                rindex: std::array::from_fn(|_| AtomicU64::new(0)),
                wake,
                lost_wakes: None,
            }
        }

        /// Mutation: [`Self::new`] with every acquire's wake dropped — the
        /// store goes to a bitmap no snapshot reads, so a parked key never
        /// learns of its first acquire.
        pub fn dropping_wakes(prefree: usize) -> ModelSlots {
            let lost = Box::<WakeBits>::default();
            lost.reserve(KEY);
            ModelSlots {
                lost_wakes: Some(lost),
                ..ModelSlots::new(prefree)
            }
        }

        fn cell(&self, container: ContainerId) -> &AtomicU64 {
            &self.rindex[container.0 as usize]
        }

        /// The bitmap an acquire wakes the key in.
        fn acquire_wakes(&self) -> &WakeBits {
            self.lost_wakes.as_deref().unwrap_or(&self.wake)
        }

        /// Real lock-free warm claim ([`KeySlots::claim_warm`]).
        pub fn claim_warm(&self) -> Option<(usize, ContainerId)> {
            self.ks.claim_warm(self.acquire_wakes(), KEY)
        }

        /// The key's share of [`super::RuntimePool::take_demand_snapshot`],
        /// run by the one lock-holder: the real wake drain, then — if the
        /// key is unparked or was woken — the real sample
        /// ([`KeySlots::sample`]). The visit's `(demand, in_use)`, or `None`
        /// when the key stayed parked.
        pub fn snapshot(&self, parked: bool) -> Option<(usize, usize)> {
            let woken = self.wake.drain(0) != 0;
            (!parked || woken).then(|| {
                let (demand, _, in_use) = self.ks.sample();
                (demand, in_use)
            })
        }

        /// Real lock-free hand-back ([`KeySlots::hand_back`]).
        pub fn hand_back(&self, i: usize) {
            self.ks.hand_back(i);
        }

        /// Real lock-free release claim ([`KeySlots::try_claim_release`]).
        pub fn try_claim_release(&self, i: usize, container: ContainerId) -> bool {
            self.ks.try_claim_release(i, container)
        }

        /// Real prewarm publish ([`KeySlots::publish_avail`]) into the
        /// lowest free slot. `None` when no slot is free: the model grows
        /// explicitly ([`Self::grow`]), not inside the free-claim.
        pub fn publish_avail(&self, container: ContainerId, order: PublishOrder) -> Option<usize> {
            let free = self.ks.claim_lowest(|chunk| &chunk.free)?;
            Some(
                self.ks
                    .publish_avail(free, self.cell(container), KEY, container, order),
            )
        }

        /// The growth step of [`KeySlots::claim_free`] (the real
        /// [`KeySlots::append`]) with only the first `prefree` slots of the
        /// new chunk free.
        pub fn grow(&self, prefree: usize) {
            self.ks.append(SlotChunk::new(prefree));
        }

        /// Real cold-start publish ([`KeySlots::publish_in_use`]) into the
        /// lowest free slot (`None` when there is none).
        pub fn publish_in_use(&self, container: ContainerId, order: PublishOrder) -> Option<usize> {
            let free = self.ks.claim_lowest(|chunk| &chunk.free)?;
            let (cell, wake) = (self.cell(container), self.acquire_wakes());
            Some(
                self.ks
                    .publish_in_use(free, cell, KEY, container, order, wake),
            )
        }

        /// The lock-free half of [`super::RuntimePool::release`]: resolve
        /// the container through its reverse-index cell (`None` = not
        /// pooled yet), then the real release claim on the slot it names.
        pub fn release_via_rindex(&self, container: ContainerId) -> Option<(usize, bool)> {
            let packed = self.cell(container).load(Ordering::Acquire);
            let slot = (packed & u64::from(u32::MAX)).checked_sub(1)? as usize;
            Some((slot, self.ks.try_claim_release(slot, container)))
        }

        /// Real controller retire ([`KeySlots::retire_avail`]).
        pub fn retire_avail(&self) -> Option<ContainerId> {
            self.ks.retire_avail()
        }

        /// The candidate test of [`super::RuntimePool::evict_oldest`] for one
        /// age-index entry: it reads the slot's `avail` bit (the container's
        /// identity comes from the index, i.e. from the caller). Advisory
        /// against lock-free claimers — the claim ([`Self::evict_at`]) decides.
        pub fn evict_candidate(&self, i: usize) -> bool {
            self.ks.is_avail(i)
        }

        /// Real eviction claim phase ([`KeySlots::evict_at`]).
        pub fn evict_at(&self, i: usize, container: ContainerId) -> bool {
            self.ks.evict_at(i, container)
        }

        /// Advisory `in_use` population.
        pub fn in_use_count(&self) -> usize {
            self.ks.chunks().map(|chunk| chunk.in_use.count()).sum()
        }

        /// Advisory free population.
        pub fn free_count(&self) -> usize {
            self.ks.chunks().map(|chunk| chunk.free.count()).sum()
        }

        /// Whether `container` sits available (scan of the `avail` bits).
        pub fn avail_contains(&self, container: ContainerId) -> bool {
            let mut found = false;
            for chunk in self.ks.chunks() {
                chunk.avail.for_each_set(|i| {
                    found |= entry_container(chunk.entries[i].load(Ordering::Acquire))
                        == Some(container);
                });
            }
            found
        }

        /// The key's in-use demand counter.
        pub fn in_use_total(&self) -> usize {
            self.ks.in_use_total.load(Ordering::Relaxed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::FUZZY_RECONFIG_COST;
    use containersim::container::ExecOptions;
    use containersim::engine::ExecWork;
    use containersim::{ContainerState, HardwareProfile, ImageId, ImageRegistry};

    fn plain_engine() -> ContainerEngine {
        ContainerEngine::with_local_images(HardwareProfile::server())
    }

    fn engine() -> Mutex<ContainerEngine> {
        Mutex::labeled(plain_engine(), "core/engine")
    }

    /// `HotC`'s calling convention: a fresh exclusive engine borrow per pool
    /// call, the engine free for direct use in between.
    fn ex(engine: &mut ContainerEngine) -> ExclusiveEngine<'_> {
        ExclusiveEngine::new(engine)
    }

    /// Runs one light execution on an acquired container.
    fn exec(e: &impl EngineRef, container: ContainerId, now: SimTime) {
        e.with_engine(|e| {
            let out = e
                .begin_exec(container, ExecWork::light(SimDuration::from_millis(1)), now)
                .unwrap();
            e.end_exec(container, now + out.latency).unwrap();
        });
    }

    fn cfg(image: &str) -> ContainerConfig {
        ContainerConfig::bridge(ImageId::parse(image))
    }

    /// The demand snapshot (GC included) as `(key, demand)`, sorted —
    /// what the controller sees over one interval.
    fn demand_snapshot(pool: &RuntimePool) -> Vec<(KeyId, usize)> {
        let snapshot = pool.take_full_snapshot();
        snapshot.demands.iter().map(|d| (d.id, d.demand)).collect()
    }

    /// Algorithm 1 then 2 then 1: cold start, clean + re-pool, reuse.
    fn round_trip(pool: &RuntimePool, e: &impl EngineRef) {
        let c = cfg("alpine:3.12");
        let a = pool.acquire(e, &c, SimTime::ZERO).unwrap();
        assert!(a.cold, "first request cold-starts");
        exec(e, a.container, SimTime::ZERO);
        pool.release(e, a.container, SimTime::from_secs(1)).unwrap();
        assert_eq!(pool.num_avail_id(pool.intern_config(&c)), 1);
        let b = pool.acquire(e, &c, SimTime::from_secs(2)).unwrap();
        assert!(!b.cold, "second request reuses");
        assert_eq!(b.container, a.container);
        assert!(b.cost.is_zero());
    }

    #[test]
    fn acquire_release_round_trip_through_either_engine_ref() {
        round_trip(&RuntimePool::new(KeyPolicy::Exact), &engine());
        round_trip(
            &RuntimePool::new(KeyPolicy::Exact),
            &ex(&mut plain_engine()),
        );
    }

    #[test]
    fn warm_hit_reuses_the_container_lock_free() {
        let e = engine();
        let pool = RuntimePool::new(KeyPolicy::Exact);
        let c = cfg("alpine:3.12");
        let id = pool.intern_config(&c);
        let a = pool.acquire_id(&e, id, &c, SimTime::ZERO).unwrap();
        assert!(a.cold && !a.lock_free);
        e.with_engine(|e| {
            let out = e
                .begin_exec(
                    a.container,
                    ExecWork::light(SimDuration::from_millis(1)),
                    SimTime::ZERO,
                )
                .unwrap();
            e.end_exec(a.container, SimTime::ZERO + out.latency)
                .unwrap();
        });
        pool.release(&e, a.container, SimTime::from_secs(1))
            .unwrap();
        let b = pool.acquire_id(&e, id, &c, SimTime::from_secs(2)).unwrap();
        assert!(!b.cold);
        assert_eq!(b.container, a.container);
        assert!(b.lock_free, "an exact-key bitmap hit takes no lock");
    }

    /// One storage, one protocol, at any population: 300 containers of one
    /// key fill three chunks, and with some held and some available in every
    /// chunk a warm acquire is still lock-free and a release takes no lock.
    #[test]
    fn a_key_past_its_first_chunk_stays_on_the_lock_free_path() {
        let mut e = plain_engine();
        let pool = RuntimePool::new(KeyPolicy::Exact);
        let c = cfg("alpine:3.12");
        let id = pool.intern_config(&c);
        let release = |e: &mut ContainerEngine, container| {
            let scope = stdshim::request_path_scope();
            pool.release(&ex(e), container, SimTime::from_secs(1))
                .unwrap();
            assert_eq!(
                scope.locks_taken(),
                0,
                "release of {container:?} took a lock"
            );
        };
        let mut held: Vec<ContainerId> = (0..300)
            .map(|_| {
                pool.acquire(&ex(&mut e), &c, SimTime::ZERO)
                    .unwrap()
                    .container
            })
            .collect();
        let freed: Vec<ContainerId> = held.iter().copied().step_by(2).collect();
        held.retain(|container| !freed.contains(container));
        for &container in &freed {
            release(&mut e, container);
        }
        assert_eq!((pool.num_avail_id(id), pool.total_live()), (150, 300));
        for _ in 0..freed.len() {
            let acq = pool
                .acquire_id(&ex(&mut e), id, &c, SimTime::from_secs(2))
                .unwrap();
            assert!(
                !acq.cold && acq.lock_free,
                "warm hit left the slot protocol"
            );
            assert!(freed.contains(&acq.container) && !held.contains(&acq.container));
            held.push(acq.container);
        }
        for container in held {
            release(&mut e, container);
        }
        assert_eq!(pool.num_in_use_id(id), 0);
        assert_eq!((pool.num_avail_id(id), pool.total_live()), (300, 300));
        assert_eq!(e.live_count(), 300);
    }

    /// Regression (double release): the second release of the same
    /// container must fail instead of double-pooling the id.
    fn double_release(pool: &RuntimePool, e: &impl EngineRef) {
        let c = cfg("alpine:3.12");
        let a = pool.acquire(e, &c, SimTime::ZERO).unwrap();
        exec(e, a.container, SimTime::ZERO);
        pool.release(e, a.container, SimTime::from_secs(1)).unwrap();
        let err = pool
            .release(e, a.container, SimTime::from_secs(2))
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidState { .. }));
        assert_eq!(pool.total_available(), 1, "exactly one pooled copy");
        assert_eq!(pool.total_live(), 1);
        // The pooled copy still round-trips.
        let again = pool.acquire(e, &c, SimTime::from_secs(3)).unwrap();
        assert!(!again.cold);
        assert_eq!(again.container, a.container);
    }

    #[test]
    fn double_release_is_rejected_not_double_pooled() {
        double_release(&RuntimePool::new(KeyPolicy::Exact), &engine());
        double_release(
            &RuntimePool::new(KeyPolicy::Exact),
            &ex(&mut plain_engine()),
        );
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
            let pool = RuntimePool::new(KeyPolicy::Exact);
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
                            let acq = pool.acquire(&ex(&mut e), &configs[k], now).unwrap();
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
                            exec(&ex(&mut e), id, now);
                            pool.release(&ex(&mut e), id, now).unwrap();
                            in_use[k] -= 1;
                        }
                        4 => {
                            pool.prewarm(&ex(&mut e), &configs[k], now).unwrap();
                            cold_run[k].get_or_insert(0);
                        }
                        5 => {
                            pool.retire_one_id(&ex(&mut e), ids[k], now).unwrap();
                        }
                        _ => {
                            pool.evict_oldest(&ex(&mut e), now).unwrap();
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
        let pool = RuntimePool::new(KeyPolicy::Exact);
        let configs: Vec<ContainerConfig> = (0..10)
            .map(|k| {
                cfg("alpine:3.12").with_exec(ExecOptions::default().with_env("K", k.to_string()))
            })
            .collect();
        let ids: Vec<KeyId> = configs.iter().map(|c| pool.intern_config(c)).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "interning order");
        pool.prewarm(&ex(&mut e), &configs[9], SimTime::ZERO)
            .unwrap();
        for c in &configs {
            pool.prewarm(&ex(&mut e), c, SimTime::from_secs(1)).unwrap();
        }
        let mut order = vec![ids[9]];
        order.extend(&ids);
        for victim in order {
            let before = pool.num_avail_id(victim);
            pool.evict_oldest(&ex(&mut e), SimTime::from_secs(2))
                .unwrap();
            assert_eq!(pool.num_avail_id(victim) + 1, before, "took another key's");
        }
        assert_eq!(pool.total_live(), 0);
    }

    // Algorithms 1-2 and the pool's bookkeeping contract, driven the way
    // `HotC` drives the pool (exclusive engine).

    fn run_request(
        pool: &RuntimePool,
        engine: &mut ContainerEngine,
        config: &ContainerConfig,
        now: SimTime,
    ) -> Acquisition {
        let acq = pool.acquire(&ex(engine), config, now).unwrap();
        let out = engine
            .begin_exec(
                acq.container,
                ExecWork::light(SimDuration::from_millis(10)),
                now,
            )
            .unwrap();
        engine.end_exec(acq.container, now + out.latency).unwrap();
        pool.release(&ex(engine), acq.container, now + out.latency)
            .unwrap();
        acq
    }

    #[test]
    fn num_avail_bookkeeping_matches_algorithms() {
        let mut e = plain_engine();
        let pool = RuntimePool::new(KeyPolicy::Exact);
        let c = cfg("alpine:3.12");

        let acq = pool.acquire(&ex(&mut e), &c, SimTime::ZERO).unwrap();
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
        pool.release(&ex(&mut e), acq.container, SimTime::from_secs(1))
            .unwrap();
        assert_eq!(pool.num_avail_id(key), 1);
        assert_eq!(pool.num_in_use_id(key), 0);
    }

    #[test]
    fn occupied_containers_trigger_new_start() {
        let mut e = plain_engine();
        let pool = RuntimePool::new(KeyPolicy::Exact);
        let c = cfg("alpine:3.12");
        // Acquire twice without releasing: both cold, two containers.
        let a1 = pool.acquire(&ex(&mut e), &c, SimTime::ZERO).unwrap();
        let a2 = pool.acquire(&ex(&mut e), &c, SimTime::ZERO).unwrap();
        assert!(a1.cold && a2.cold);
        assert_ne!(a1.container, a2.container);
        assert_eq!(pool.total_live(), 2);
    }

    #[test]
    fn different_types_never_share() {
        let mut e = plain_engine();
        let pool = RuntimePool::new(KeyPolicy::Exact);
        run_request(&pool, &mut e, &cfg("python:3.8-alpine"), SimTime::ZERO);
        let b = run_request(&pool, &mut e, &cfg("golang:1.13"), SimTime::from_secs(1));
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
        let exact = RuntimePool::new(KeyPolicy::Exact);
        run_request(&exact, &mut e, &base, SimTime::ZERO);
        let a = run_request(&exact, &mut e, &with_env, SimTime::from_secs(1));
        assert!(a.cold);

        // Fuzzy: same image+network ⇒ reuse with a reconfig cost.
        let mut e2 = plain_engine();
        let fuzzy = RuntimePool::new(KeyPolicy::Fuzzy);
        run_request(&fuzzy, &mut e2, &base, SimTime::ZERO);
        let b = fuzzy
            .acquire(&ex(&mut e2), &with_env, SimTime::from_secs(1))
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
        let cold = |pool: &RuntimePool, e: &mut ContainerEngine, c: &ContainerConfig| {
            let acq = pool.acquire(&ex(e), c, SimTime::ZERO).unwrap();
            assert!(acq.cold);
            acq.container
        };

        // Exact: every cold start and prewarm of the key shares one copy.
        let mut e = plain_engine();
        let exact = RuntimePool::new(KeyPolicy::Exact);
        let a = cold(&exact, &mut e, &base);
        let b = cold(&exact, &mut e, &base);
        exact.prewarm(&ex(&mut e), &base, SimTime::ZERO).unwrap();
        let key = exact.intern_config(&base);
        exact
            .prewarm_key_id(&ex(&mut e), key, SimTime::ZERO)
            .unwrap()
            .unwrap();
        for c in e.live_ids_oldest_first() {
            assert!(std::ptr::eq(e.config(a).unwrap(), e.config(c).unwrap()));
        }
        assert_ne!(a, b);

        // Fuzzy: a same-key request with another env keeps its own config,
        // and an equal one shares the slot's.
        let mut e = plain_engine();
        let fuzzy = RuntimePool::new(KeyPolicy::Fuzzy);
        let first = cold(&fuzzy, &mut e, &base);
        let other = cold(&fuzzy, &mut e, &with_env);
        assert_eq!(e.config(other), Some(&with_env));
        assert_eq!(e.config(first), Some(&base));
        let again = cold(&fuzzy, &mut e, &base);
        assert!(std::ptr::eq(
            e.config(first).unwrap(),
            e.config(again).unwrap()
        ));
        fuzzy
            .prewarm(&ex(&mut e), &with_env, SimTime::ZERO)
            .unwrap();
        let newest = *e.live_ids_oldest_first().last().unwrap();
        assert_eq!(e.config(newest), Some(&with_env));
    }

    #[test]
    fn prewarm_makes_next_request_warm() {
        let mut e = plain_engine();
        let pool = RuntimePool::new(KeyPolicy::Exact);
        let c = cfg("openjdk:8-jre");
        let cost = pool.prewarm(&ex(&mut e), &c, SimTime::ZERO).unwrap();
        assert!(!cost.is_zero());
        let acq = pool
            .acquire(&ex(&mut e), &c, SimTime::from_secs(1))
            .unwrap();
        assert!(!acq.cold, "prewarmed container serves the request");
    }

    #[test]
    fn retire_and_evict() {
        let mut e = plain_engine();
        let pool = RuntimePool::new(KeyPolicy::Exact);
        let c = cfg("alpine:3.12");
        let key = pool.intern_config(&c);
        for i in 0..3 {
            pool.prewarm(&ex(&mut e), &c, SimTime::from_secs(i))
                .unwrap();
        }
        assert_eq!(pool.num_avail_id(key), 3);

        let retired = pool
            .retire_one_id(&ex(&mut e), key, SimTime::from_secs(10))
            .unwrap();
        assert!(retired.is_some());
        assert_eq!(pool.num_avail_id(key), 2);
        assert_eq!(e.live_count(), 2);

        // Eviction removes the *oldest* (created at t=1 after the retire
        // popped the t=0 one from the FIFO front).
        let ids = e.live_ids_oldest_first();
        pool.evict_oldest(&ex(&mut e), SimTime::from_secs(11))
            .unwrap();
        assert_eq!(e.state(ids[0]), ContainerState::Removed);
        assert_eq!(pool.num_avail_id(key), 1);
    }

    #[test]
    fn evict_on_empty_pool_is_none() {
        let mut e = plain_engine();
        let pool = RuntimePool::new(KeyPolicy::Exact);
        assert!(pool
            .evict_oldest(&ex(&mut e), SimTime::ZERO)
            .unwrap()
            .is_none());
    }

    #[test]
    fn pool_codes_match_fig7() {
        let mut e = plain_engine();
        let pool = RuntimePool::new(KeyPolicy::Exact);
        let c = cfg("alpine:3.12");

        let acq = pool.acquire(&ex(&mut e), &c, SimTime::ZERO).unwrap();
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
        pool.release(&ex(&mut e), acq.container, SimTime::from_secs(1))
            .unwrap();
        // Available ⇒ 1.
        assert_eq!(pool.pool_code(&e, acq.container), 1);

        pool.retire_one_id(&ex(&mut e), pool.intern_config(&c), SimTime::from_secs(2))
            .unwrap();
        // Gone ⇒ -1.
        assert_eq!(pool.pool_code(&e, acq.container), -1);
    }

    #[test]
    fn demand_snapshot_reports_watermark_and_resets() {
        let mut e = plain_engine();
        let pool = RuntimePool::new(KeyPolicy::Exact);
        let c = cfg("alpine:3.12");
        // Three concurrent acquisitions.
        let acqs: Vec<_> = (0..3)
            .map(|_| pool.acquire(&ex(&mut e), &c, SimTime::ZERO).unwrap())
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
            pool.release(&ex(&mut e), acq.container, SimTime::from_secs(1))
                .unwrap();
        }
        let snap = demand_snapshot(&pool);
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].1, 3, "watermark saw 3 concurrent");
        // After reset with nothing in use, next snapshot reports 0.
        let snap2 = demand_snapshot(&pool);
        assert_eq!(snap2[0].1, 0);
    }

    /// Regression (phantom slots): a failed cold start must not record a
    /// slot — before the fix, `acquire` inserted the slot before calling
    /// `create_container`, so an unknown image left an empty slot that
    /// the demand snapshot reported forever.
    #[test]
    fn failed_cold_start_leaves_no_phantom_slot() {
        let mut e = plain_engine();
        let pool = RuntimePool::new(KeyPolicy::Exact);
        let err = pool
            .acquire(&ex(&mut e), &cfg("no-such-image:1.0"), SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, EngineError::UnknownImage(_)));
        assert!(
            pool.keys().is_empty(),
            "failed create must not leave a slot"
        );
        assert!(demand_snapshot(&pool).is_empty());
    }

    /// Same, for an image the registry knows but whose pull fails validation
    /// — any create error path must leave the pool untouched.
    #[test]
    fn failed_cold_start_never_pollutes_existing_slot_set() {
        let registry = ImageRegistry::with_default_catalogue();
        let mut e = ContainerEngine::new(registry, HardwareProfile::server());
        let pool = RuntimePool::new(KeyPolicy::Exact);
        run_request(&pool, &mut e, &cfg("alpine:3.12"), SimTime::ZERO);
        let before = pool.keys();
        let _ = pool
            .acquire(&ex(&mut e), &cfg("ghost:0.0"), SimTime::from_secs(1))
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
        let pool = RuntimePool::new(KeyPolicy::Exact);
        // A container created behind the pool's back.
        let (stray, _) = e
            .create_container(cfg("alpine:3.12"), SimTime::ZERO)
            .unwrap();
        let err = pool
            .release(&ex(&mut e), stray, SimTime::from_secs(1))
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
        let pool = RuntimePool::new(KeyPolicy::Exact);
        let c = cfg("alpine:3.12");
        let acq = pool.acquire(&ex(&mut e), &c, SimTime::ZERO).unwrap();
        e.begin_exec(
            acq.container,
            ExecWork::light(SimDuration::from_millis(5)),
            SimTime::ZERO,
        )
        .unwrap();
        // Still Running: the engine rejects the cleanup.
        let err = pool
            .release(&ex(&mut e), acq.container, SimTime::from_secs(1))
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidState { .. }));
        let key = pool.intern_config(&c);
        assert_eq!(pool.num_in_use_id(key), 1, "claim handed back on failure");
        // Finish properly and the release succeeds.
        e.end_exec(acq.container, SimTime::from_secs(2)).unwrap();
        pool.release(&ex(&mut e), acq.container, SimTime::from_secs(3))
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
        let pool = RuntimePool::new(KeyPolicy::Exact);
        let c = cfg("alpine:3.12");
        run_request(&pool, &mut e, &c, SimTime::ZERO);
        pool.retire_one_id(&ex(&mut e), pool.intern_config(&c), SimTime::from_secs(1))
            .unwrap();
        assert_eq!(pool.total_live(), 0);

        // The first snapshot still reports the key (it served traffic this
        // interval), and so do the empty intervals before the threshold…
        for _ in 0..GC_INTERVALS {
            assert_eq!(demand_snapshot(&pool).len(), 1);
        }
        // …which the next one reaches, and GCs it.
        assert!(demand_snapshot(&pool).is_empty());
        assert!(pool.keys().is_empty());

        // A slot with an idle container is never GC'd.
        pool.prewarm(&ex(&mut e), &c, SimTime::from_secs(100))
            .unwrap();
        for _ in 0..5 {
            assert_eq!(demand_snapshot(&pool).len(), 1);
        }
    }

    /// GC'd keys come back transparently: the next request for the config
    /// cold-starts and re-creates the slot.
    #[test]
    fn gc_then_reacquire_recreates_slot() {
        let mut e = plain_engine();
        let pool = RuntimePool::new(KeyPolicy::Exact);
        let c = cfg("golang:1.13");
        run_request(&pool, &mut e, &c, SimTime::ZERO);
        let key = pool.intern_config(&c);
        pool.retire_one_id(&ex(&mut e), key, SimTime::from_secs(1))
            .unwrap();
        // The served-traffic interval, then GC_INTERVALS zero intervals.
        for _ in 0..=GC_INTERVALS {
            demand_snapshot(&pool);
        }
        assert!(pool.keys().is_empty());
        let acq = pool
            .acquire(&ex(&mut e), &c, SimTime::from_secs(2))
            .unwrap();
        assert!(acq.cold);
        assert_eq!(pool.keys(), vec![key]);
    }

    /// Pool invariant: total_live equals the engine's live count under
    /// any interleaving of acquire/release/prewarm/retire/evict, and all
    /// available containers are Idle in the engine.
    #[test]
    fn prop_pool_engine_consistency() {
        testkit::check(64, |g| {
            let ops = g.vec(1..60, |g| g.u8_in(0..5));
            let mut e = plain_engine();
            let pool = RuntimePool::new(KeyPolicy::Exact);
            let configs = [cfg("alpine:3.12"), cfg("python:3.8-alpine")];
            let mut busy: Vec<ContainerId> = Vec::new();
            for (i, &op) in ops.iter().enumerate() {
                let now = SimTime::from_secs(i as u64);
                let c = &configs[i % 2];
                match op {
                    0 => {
                        let acq = pool.acquire(&ex(&mut e), c, now).unwrap();
                        let out = e
                            .begin_exec(
                                acq.container,
                                ExecWork::light(SimDuration::from_millis(1)),
                                now,
                            )
                            .unwrap();
                        e.end_exec(acq.container, now + out.latency).unwrap();
                        busy.push(acq.container);
                    }
                    1 => {
                        if let Some(id) = busy.pop() {
                            pool.release(&ex(&mut e), id, now).unwrap();
                        }
                    }
                    2 => {
                        pool.prewarm(&ex(&mut e), c, now).unwrap();
                    }
                    3 => {
                        if let Some(id) = pool.id_for(c) {
                            pool.retire_one_id(&ex(&mut e), id, now).unwrap();
                        }
                    }
                    _ => {
                        pool.evict_oldest(&ex(&mut e), now).unwrap();
                    }
                }
                assert_eq!(pool.total_live(), e.live_count());
                assert_eq!(pool.total_available() + busy.len(), e.live_count());
            }
        });
    }

    /// Lockstep against the public-API eviction oracle — the first id of
    /// `live_ids_oldest_first()` the pool reports Existing-Available — under
    /// random acquire / release / crashed release / prewarm / retire / evict
    /// sequences. Key 0 starts past its first chunk, so containers of a
    /// grown chunk are candidates; creation times are drawn from four
    /// instants, so `created_at` ties are common (the id breaks them) and
    /// `now` is not monotone across creations (age order ≠ id order, as
    /// `ConcurrentGateway` threads produce). Every snapshot re-runs the
    /// age-index cross-check.
    #[test]
    fn prop_evict_oldest_matches_the_engine_oracle() {
        fn oracle(pool: &RuntimePool, e: &ContainerEngine) -> Option<ContainerId> {
            e.live_ids_oldest_first()
                .into_iter()
                .find(|&c| pool.pool_code(e, c) == 1)
        }
        fn evict_in_lockstep(pool: &RuntimePool, e: &mut ContainerEngine, now: SimTime) -> bool {
            let expected = oracle(pool, e);
            let live = e.live_count();
            let evicted = pool.evict_oldest(&ex(e), now).unwrap().is_some();
            assert_eq!(evicted, expected.is_some(), "None iff nothing is available");
            if let Some(victim) = expected {
                assert_eq!(e.state(victim), ContainerState::Removed, "evicted another");
                assert_eq!(e.live_count(), live - 1, "evicted more than one");
            }
            pool.take_full_snapshot();
            evicted
        }
        testkit::check(48, |g| {
            let mut e = plain_engine();
            let pool = RuntimePool::new(KeyPolicy::Exact);
            let configs: Vec<ContainerConfig> = (0..5)
                .map(|k| {
                    let mut c = cfg("alpine:3.12");
                    c.exec.env.insert("K".into(), k.to_string());
                    c
                })
                .collect();
            let instant = |g: &mut testkit::Gen| SimTime::from_secs(g.u64_in(0..4));
            // Executes on an in-use container, crashing it or not, and
            // releases it: back to the pool, or disposed.
            let finish = |e: &mut ContainerEngine, id: ContainerId, crash: bool, now: SimTime| {
                e.set_fault_injection(if crash { 1.0 } else { 0.0 }, 7);
                exec(&ex(e), id, now);
                pool.release(&ex(e), id, now).unwrap();
                assert_eq!(e.state(id) == ContainerState::Removed, crash);
            };
            let mut busy: Vec<ContainerId> = Vec::new();
            for _ in 0..SLOTS_PER_KEY + 3 {
                let acq = pool.acquire(&ex(&mut e), &configs[0], instant(g)).unwrap();
                busy.push(acq.container);
            }
            // Most go straight back, so bitmap *and* overflow containers of
            // key 0 are available, and a few of each stay in use.
            let (back, kept): (Vec<_>, Vec<_>) = busy.into_iter().partition(|_| g.u8_in(0..4) > 0);
            let mut busy = kept;
            for id in back {
                finish(&mut e, id, false, instant(g));
            }
            for _ in 0..g.usize_in(1..120) {
                let now = instant(g);
                let c = g.pick(&configs);
                match g.u8_in(0..9) {
                    0..=2 => busy.push(pool.acquire(&ex(&mut e), c, now).unwrap().container),
                    3 | 4 if !busy.is_empty() => {
                        let id = busy.swap_remove(g.usize_in(0..busy.len()));
                        // One release in three is of a crashed container.
                        finish(&mut e, id, g.u8_in(0..3) == 0, now);
                    }
                    5 => {
                        pool.prewarm(&ex(&mut e), c, now).unwrap();
                    }
                    6 => {
                        if let Some(id) = pool.id_for(c) {
                            pool.retire_one_id(&ex(&mut e), id, now).unwrap();
                        }
                    }
                    _ => {
                        evict_in_lockstep(&pool, &mut e, now);
                    }
                }
                assert_eq!(pool.total_live(), e.live_count());
            }
            // Drain: whatever is available leaves in exactly the oracle's
            // order, and what remains is exactly what is still in use.
            while evict_in_lockstep(&pool, &mut e, SimTime::from_secs(9)) {}
            assert_eq!(pool.total_live(), busy.len());
        });
    }
}
