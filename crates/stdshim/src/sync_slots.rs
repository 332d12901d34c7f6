//! Lock-free slot primitives for the warm request path.
//!
//! The pool's warm hit must be a handful of atomic operations, not a mutex
//! acquisition (DESIGN.md §5). This module provides the two building blocks:
//!
//! * [`SlotBitmap`] — a fixed-capacity bitmap free-list over `AtomicU64`
//!   words. A set bit means "this slot index is available in this bitmap's
//!   domain"; [`SlotBitmap::claim`] finds a set bit and CAS-clears it,
//!   [`SlotBitmap::release`] sets it back. Claim uses `Acquire` and release
//!   uses `Release` ordering, so everything a publisher wrote to a slot's
//!   backing storage *before* setting the bit is visible to the claimer
//!   after a successful claim — the publish-before-bit-set invariant the
//!   pool relies on.
//! * [`LazySlotTable`] — a two-level table giving wait-free reads of
//!   densely indexed cells (per-key slot groups, per-container reverse
//!   index) without locking. It has no capacity to run out of: chunk `k` is
//!   `64 << k` cells, allocated on first touch, so nothing is paid for
//!   indices never used and no caller needs a fallback for "table full".
//!
//! Like the lock wrappers in [`crate::sync`], a `SlotBitmap` carries a
//! `&'static str` class label (convention: `"subsystem/role"`). The bitmap
//! is not a lock — claiming a bit never blocks and never counts against the
//! request-path scope assertion — but the label names the bitmap in misuse
//! panics (out-of-range indices, double release in debug builds), keeping
//! the diagnostics story uniform with the sanitizer's.
//!
//! Everything here is safe Rust over the [`crate::atomic`] facade — plain
//! `std::sync::atomic` in normal builds, the instrumented model-checker
//! types under `--cfg hotc_model` (the `atomic-facade` lint rule keeps raw
//! atomic imports out of this module); the workspace denies `unsafe_code`.

use crate::atomic::{Ordering, ShimAtomicU64 as AtomicU64, ShimOnceLock as OnceLock};

/// A fixed-capacity atomic bitmap free-list.
///
/// Bit `i` set ⇒ slot `i` is available to be claimed. All transitions are
/// single-word CAS/RMW operations:
///
/// * [`claim`](Self::claim) — find any set bit, clear it (`Acquire`), return
///   its index. The returned index is exclusively owned by the caller until
///   it is [`release`](Self::release)d.
/// * [`claim_at`](Self::claim_at) — clear one specific bit if set
///   (`Acquire`); used by lock-holding paths (evict, retire) that target a
///   known slot.
/// * [`release`](Self::release) — set bit `i` (`Release`). Returns `false`
///   if the bit was already set: a release of an unclaimed slot is rejected
///   rather than silently double-freeing the index.
///
/// Orderings: a claimer that observes a set bit via the `Acquire` CAS also
/// observes every store the releaser made before its `Release` set. That is
/// the only cross-slot guarantee; counting and snapshot reads are advisory.
#[derive(Debug)]
pub struct SlotBitmap {
    words: Box<[AtomicU64]>,
    capacity: usize,
    class: &'static str,
}

impl SlotBitmap {
    /// Creates an all-clear bitmap for `capacity` slots with a diagnostic
    /// class label (convention: `"subsystem/role"`, e.g. `"pool/slots"`).
    pub fn labeled(capacity: usize, class: &'static str) -> Self {
        let words = (0..capacity.div_ceil(64))
            .map(|_| AtomicU64::new(0))
            .collect();
        SlotBitmap {
            words,
            capacity,
            class,
        }
    }

    #[inline]
    fn locate(&self, index: usize) -> (usize, u64) {
        assert!(
            index < self.capacity,
            "SlotBitmap '{}': index {} out of range (capacity {})",
            self.class,
            index,
            self.capacity
        );
        (index / 64, 1u64 << (index % 64))
    }

    /// Claims the lowest-index set bit: clears it and returns its index, or
    /// `None` if every bit is clear. `Acquire` on success — the caller sees
    /// everything published before the matching [`release`](Self::release).
    #[inline]
    pub fn claim(&self) -> Option<usize> {
        for (w, word) in self.words.iter().enumerate() {
            let mut current = word.load(Ordering::Relaxed);
            while current != 0 {
                let bit = current.trailing_zeros() as usize;
                match word.compare_exchange_weak(
                    current,
                    current & !(1u64 << bit),
                    Ordering::Acquire,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => return Some(w * 64 + bit),
                    Err(actual) => current = actual,
                }
            }
        }
        None
    }

    /// Claims bit `index` specifically. Returns `true` if this call cleared
    /// it (`Acquire`), `false` if it was already clear.
    #[inline]
    pub fn claim_at(&self, index: usize) -> bool {
        let (w, mask) = self.locate(index);
        self.words[w].fetch_and(!mask, Ordering::Acquire) & mask != 0
    }

    /// Releases slot `index` back into the bitmap (`Release`): every store
    /// made before this call is visible to whichever thread next claims the
    /// bit. Returns `false` — rejecting the release — if the bit was already
    /// set, which means the caller did not own the slot.
    #[inline]
    pub fn release(&self, index: usize) -> bool {
        let (w, mask) = self.locate(index);
        self.words[w].fetch_or(mask, Ordering::Release) & mask == 0
    }

    /// Mutation-harness variant of [`release`](Self::release) with the
    /// ordering deliberately weakened to `Relaxed` — it exists only in
    /// model-checker builds so `hotc-model/tests/mutation.rs` can prove the
    /// checker catches a publish that skips the release fence. Never a
    /// production code path.
    #[cfg(hotc_model)]
    pub fn release_relaxed(&self, index: usize) -> bool {
        let (w, mask) = self.locate(index);
        // lint:allow(atomic-ordering, deliberately weak: the mutation harness proves the checker catches this)
        self.words[w].fetch_or(mask, Ordering::Relaxed) & mask == 0
    }

    /// Whether bit `index` is currently set (`Acquire`; advisory — another
    /// thread may claim or release it immediately after the load).
    #[inline]
    pub fn is_set(&self, index: usize) -> bool {
        let (w, mask) = self.locate(index);
        self.words[w].load(Ordering::Acquire) & mask != 0
    }

    /// Number of set bits (advisory snapshot; see [`is_set`](Self::is_set)).
    pub fn count(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Acquire).count_ones() as usize)
            .sum()
    }

    /// Calls `f` for each set bit in an `Acquire` snapshot taken word by
    /// word (bits may change concurrently; indices are ascending).
    pub fn for_each_set(&self, mut f: impl FnMut(usize)) {
        for (w, word) in self.words.iter().enumerate() {
            let mut got = word.load(Ordering::Acquire);
            while got != 0 {
                f(w * 64 + got.trailing_zeros() as usize);
                got &= got - 1;
            }
        }
    }
}

/// A two-level lazily allocated table of `T::default()` cells with
/// wait-free reads and no capacity.
///
/// Conceptually a `Vec<T>` that never moves and never ends: an inline
/// backbone of chunk `OnceLock`s where chunk `k` holds `64 << k` cells, so
/// that:
///
/// * [`get`](Self::get) is two atomic loads (the chunk pointer, then
///   whatever the caller loads from the cell) and never blocks or
///   allocates — safe on the zero-lock warm path;
/// * nothing is allocated before the first [`get_or_init`](Self::get_or_init),
///   and the chunks then hold at most twice the cells the highest touched
///   index needs (plus the first 64);
/// * there is no "table full" for a caller to handle — the chunks cover
///   every index whose cell could be backed by memory at all;
/// * cells live at a stable address for the table's lifetime (readers hold
///   `&T` across concurrent first touches elsewhere).
///
/// A cell is never reset by the table — the value for a dense id is expected
/// to be reusable across that id's lifetimes (the pool stores per-key slot
/// groups that survive GC emptied, not freed), and "unset" is whatever
/// `T::default()` means to the caller (an empty `OnceLock`, a zero word).
#[derive(Debug)]
pub struct LazySlotTable<T> {
    chunks: [OnceLock<Box<[T]>>; (usize::BITS - FIRST_BITS + 1) as usize],
}

/// `log2` of the first chunk's cell count (64).
const FIRST_BITS: u32 = 6;

impl<T> Default for LazySlotTable<T> {
    /// An empty table: nothing allocated.
    fn default() -> Self {
        LazySlotTable {
            chunks: std::array::from_fn(|_| OnceLock::new()),
        }
    }
}

impl<T: Default> LazySlotTable<T> {
    /// The chunk holding `index` and the offset within it: chunks double, so
    /// chunk `k` starts at `64 * (2^k - 1)`.
    #[inline]
    fn locate(index: usize) -> (usize, usize) {
        let k = ((index >> FIRST_BITS) + 1).ilog2();
        (k as usize, index - (((1usize << k) - 1) << FIRST_BITS))
    }

    /// Wait-free read of cell `index`: `None` if its chunk was never touched.
    #[inline]
    pub fn get(&self, index: usize) -> Option<&T> {
        let (k, offset) = Self::locate(index);
        Some(&self.chunks[k].get()?[offset])
    }

    /// Returns cell `index`, allocating its chunk of default cells if
    /// absent. May block briefly if another thread is allocating the same
    /// chunk (cold paths only).
    pub fn get_or_init(&self, index: usize) -> &T {
        let (k, offset) = Self::locate(index);
        let chunk = self.chunks[k].get_or_init(|| {
            (0..(1usize << FIRST_BITS) << k)
                .map(|_| T::default())
                .collect()
        });
        &chunk[offset]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn claim_release_round_trip() {
        let b = SlotBitmap::labeled(8, "test/bitmap");
        assert_eq!(b.claim(), None, "fresh bitmap has nothing to claim");
        assert!(b.release(3), "first release accepted");
        assert!(b.is_set(3));
        assert_eq!(b.count(), 1);
        assert_eq!(b.claim(), Some(3));
        assert!(!b.is_set(3));
        assert_eq!(b.claim(), None);
    }

    #[test]
    fn claim_prefers_lowest_index() {
        let b = SlotBitmap::labeled(128, "test/bitmap");
        for i in [5usize, 70, 127] {
            assert!(b.release(i));
        }
        assert_eq!(b.claim(), Some(5));
        assert_eq!(b.claim(), Some(70));
        assert_eq!(b.claim(), Some(127));
        assert_eq!(b.claim(), None);
    }

    #[test]
    fn word_boundaries() {
        // Indices 63/64/65 straddle the first word boundary; 64 is the
        // low bit of word 1 and must not alias bit 0 of word 0.
        let b = SlotBitmap::labeled(130, "test/bitmap");
        assert!(b.release(63));
        assert!(b.release(64));
        assert!(b.release(65));
        assert!(b.release(129));
        assert!(!b.is_set(0));
        assert!(b.claim_at(64));
        assert!(!b.claim_at(64), "second targeted claim finds bit clear");
        assert!(b.is_set(63));
        assert!(b.is_set(65));
    }

    #[test]
    fn full_bitmap_claims_every_slot_once() {
        // Capacity deliberately not a multiple of 64: the tail word's
        // unused high bits must never be claimable.
        let cap = 100usize;
        let b = SlotBitmap::labeled(cap, "test/bitmap");
        for i in 0..cap {
            assert!(b.release(i));
        }
        assert!(!b.release(0), "full bitmap rejects further releases");
        assert_eq!(b.count(), cap);
        let mut seen = Vec::new();
        while let Some(i) = b.claim() {
            seen.push(i);
        }
        assert_eq!(seen, (0..cap).collect::<Vec<_>>());
        assert_eq!(b.count(), 0);
    }

    #[test]
    fn release_of_unclaimed_is_rejected() {
        let b = SlotBitmap::labeled(64, "test/bitmap");
        assert!(b.release(10));
        assert!(!b.release(10), "double release rejected");
        assert_eq!(b.claim(), Some(10));
        assert!(b.release(10), "release after claim accepted again");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_release_panics_with_class() {
        let b = SlotBitmap::labeled(10, "test/bitmap");
        b.release(10);
    }

    #[test]
    fn for_each_set_snapshots_ascending() {
        let b = SlotBitmap::labeled(70, "test/bitmap");
        for i in [2usize, 63, 64, 69] {
            assert!(b.release(i));
        }
        let mut seen = Vec::new();
        b.for_each_set(|i| seen.push(i));
        assert_eq!(seen, vec![2, 63, 64, 69]);
        assert_eq!(b.count(), 4, "for_each_set does not consume bits");
    }

    #[test]
    fn concurrent_claims_are_exclusive() {
        // 8 threads race to claim 256 released slots; every slot must be
        // claimed exactly once across all threads.
        let b = Arc::new(SlotBitmap::labeled(256, "test/bitmap"));
        for i in 0..256 {
            assert!(b.release(i));
        }
        let mut all: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let b = Arc::clone(&b);
                    s.spawn(move || {
                        let mut mine = Vec::new();
                        while let Some(i) = b.claim() {
                            mine.push(i);
                        }
                        mine
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("claimer thread"))
                .collect()
        });
        all.sort_unstable();
        assert_eq!(all, (0..256).collect::<Vec<_>>());
    }

    #[test]
    fn lazy_table_get_or_init_is_stable() {
        let t: LazySlotTable<OnceLock<String>> = LazySlotTable::default();
        assert!(
            t.get(5).is_none(),
            "nothing is allocated before first touch"
        );
        let v = t.get_or_init(5).get_or_init(|| "five".to_string());
        assert_eq!(v, "five");
        // The cell is stable: a second touch finds the first value.
        let again = t.get_or_init(5).get_or_init(|| "other".to_string());
        assert_eq!(again, "five");
        let read = t.get(5).and_then(|c| c.get());
        assert_eq!(read.map(String::as_str), Some("five"));
        // A sibling in the touched chunk is default; other chunks are absent.
        assert!(t.get(6).is_some_and(|c| c.get().is_none()));
        assert!(t.get(64).is_none());
    }

    #[test]
    fn lazy_table_chunks_double_and_never_run_out() {
        // Chunk k covers [64 * (2^k - 1), 64 * (2^(k+1) - 1)).
        type Table = LazySlotTable<AtomicU64>;
        for (index, want) in [
            (0, (0, 0)),
            (63, (0, 63)),
            (64, (1, 0)),
            (191, (1, 127)),
            (192, (2, 0)),
        ] {
            assert_eq!(Table::locate(index), want, "index {index}");
        }
        let t = Table::default();
        assert_eq!(Table::locate(usize::MAX).0, t.chunks.len() - 1);
        // Every index is its own cell, across chunk boundaries.
        for index in 0..500 {
            t.get_or_init(index)
                .store(index as u64 + 1, Ordering::Relaxed);
        }
        for index in 0..500 {
            let cell = t.get(index).expect("touched");
            assert_eq!(cell.load(Ordering::Relaxed), index as u64 + 1);
        }
        // A far index is addressable, and a read of it allocates nothing.
        assert!(t.get(1 << 40).is_none());
    }

    #[test]
    fn lazy_table_concurrent_first_touch_initializes_once() {
        let t: Arc<LazySlotTable<OnceLock<usize>>> = Arc::new(LazySlotTable::default());
        let inits = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let t = Arc::clone(&t);
                let inits = Arc::clone(&inits);
                s.spawn(move || {
                    for i in 0..128 {
                        let v = t.get_or_init(i).get_or_init(|| {
                            inits.fetch_add(1, Ordering::Relaxed);
                            i * 10
                        });
                        assert_eq!(*v, i * 10);
                    }
                });
            }
        });
        assert_eq!(inits.load(Ordering::Relaxed), 128, "each entry inits once");
    }
}
