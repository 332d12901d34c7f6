//! The checker's weak-memory store model.
//!
//! Each atomic location keeps its whole modification order (the list of
//! stores, in the order they executed). A load does **not** have to read the
//! newest store: any store not yet overwritten *from the reading thread's
//! point of view* is a legal result, which is how `Relaxed` message-passing
//! bugs reproduce deterministically on x86 hosts.
//!
//! Visibility rule — thread `T` at location `L` may read store `S_i` iff:
//!
//! 1. `i >= seen[T][L]` (per-thread coherence floor: `T` never reads older
//!    than something it already read or wrote at `L`), and
//! 2. there is no later store `S_j` (`j > i`) whose *store event*
//!    happens-before `T`'s current point (if `T` has observed `S_j`, every
//!    older store is dead to it).
//!
//! Synchronization: a `Release`-class store snapshots the writer's vector
//! clock into the store's message clock; an `Acquire`-class load that reads
//! it joins that clock (release/acquire hand-off). RMWs always read the
//! newest store (C11 requires exactly that) and continue release sequences:
//! a `Relaxed` RMW forwards the previous store's message clock unchanged.
//!
//! Documented simplifications (see DESIGN.md §7.3): modification order is
//! execution order; a *failed* CAS reads the newest store (conservative —
//! fewer stale behaviours explored than C11 allows); `SeqCst` is modelled as
//! `AcqRel` plus read-newest, with no global SC order; fences are not
//! modelled (the protocol under test uses none).

use super::clock::VClock;
use std::sync::atomic::Ordering;

/// Whether `o` has acquire semantics on its load half.
pub(crate) fn acquire_class(o: Ordering) -> bool {
    // lint:allow(atomic-seqcst, classifying the caller's ordering, not performing a fence)
    matches!(o, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

/// Whether `o` has release semantics on its store half.
pub(crate) fn release_class(o: Ordering) -> bool {
    // lint:allow(atomic-seqcst, classifying the caller's ordering, not performing a fence)
    matches!(o, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

/// One store in a location's modification order.
#[derive(Debug, Clone)]
pub(crate) struct Store {
    /// Stored value.
    pub value: u64,
    /// Writing virtual thread.
    pub writer: usize,
    /// The writer's own clock component at the store event — `(writer, tick)`
    /// identifies the event for happens-before tests.
    pub tick: u32,
    /// Release-sequence message clock: acquire readers join this. `None` for
    /// a plain `Relaxed` store (which also breaks the sequence).
    pub msg: Option<VClock>,
}

/// One atomic location: label plus full modification order.
#[derive(Debug)]
pub(crate) struct Location {
    /// Diagnostic name used in traces (`L0`, `L1`, … in first-touch order).
    pub label: String,
    /// Modification order; index 0 is the initial value (a pseudo-store by
    /// "thread 0, tick 0", which happens-before every thread).
    pub stores: Vec<Store>,
}

/// All locations touched during one execution, plus per-thread coherence
/// floors.
#[derive(Debug, Default)]
pub(crate) struct Memory {
    locs: Vec<Location>,
    /// `seen[tid][loc]` — lowest modification-order index `tid` may still
    /// read at `loc` (grown on demand).
    seen: Vec<Vec<usize>>,
}

impl Memory {
    /// Registers a new location holding `initial`; returns its index.
    pub(crate) fn register(&mut self, initial: u64) -> usize {
        let idx = self.locs.len();
        self.locs.push(Location {
            label: format!("L{idx}"),
            stores: vec![Store {
                value: initial,
                writer: 0,
                tick: 0,
                msg: None,
            }],
        });
        idx
    }

    /// The location's diagnostic label.
    pub(crate) fn label(&self, loc: usize) -> &str {
        &self.locs[loc].label
    }

    /// Newest store index and value.
    pub(crate) fn latest(&self, loc: usize) -> (usize, u64) {
        let stores = &self.locs[loc].stores;
        (stores.len() - 1, stores[stores.len() - 1].value)
    }

    fn floor(&mut self, tid: usize, loc: usize) -> usize {
        if self.seen.len() <= tid {
            self.seen.resize_with(tid + 1, Vec::new);
        }
        if self.seen[tid].len() <= loc {
            self.seen[tid].resize(loc + 1, 0);
        }
        self.seen[tid][loc]
    }

    fn set_floor(&mut self, tid: usize, loc: usize, idx: usize) {
        let cur = self.floor(tid, loc);
        self.seen[tid][loc] = cur.max(idx);
    }

    /// Store indices thread `tid` (with clock `vc`) may legally read at
    /// `loc`, newest first — so choice 0 is always the strongest (x86-like)
    /// behaviour and stale reads are the explored alternatives.
    pub(crate) fn candidates(&mut self, tid: usize, loc: usize, vc: &VClock) -> Vec<usize> {
        let mut lo = self.floor(tid, loc);
        let stores = &self.locs[loc].stores;
        for (j, s) in stores.iter().enumerate().skip(lo + 1).rev() {
            if vc.observed(s.writer, s.tick) {
                lo = j;
                break;
            }
        }
        (lo..stores.len()).rev().collect()
    }

    /// Reads store `idx` at `loc`: updates the coherence floor and, for an
    /// acquire-class load of a release-sequence store, joins its message
    /// clock. Returns the value.
    pub(crate) fn read(
        &mut self,
        tid: usize,
        loc: usize,
        idx: usize,
        o: Ordering,
        vc: &mut VClock,
    ) -> u64 {
        self.set_floor(tid, loc, idx);
        let s = &self.locs[loc].stores[idx];
        if acquire_class(o) {
            if let Some(msg) = &s.msg {
                vc.join(msg);
            }
        }
        s.value
    }

    /// Appends a plain store (not an RMW). `vc` must already be ticked for
    /// this event. A release-class store starts a new release sequence; a
    /// relaxed one carries no message clock (and breaks any prior sequence).
    pub(crate) fn write(&mut self, tid: usize, loc: usize, value: u64, o: Ordering, vc: &VClock) {
        let msg = release_class(o).then(|| vc.clone());
        let idx = self.locs[loc].stores.len();
        self.locs[loc].stores.push(Store {
            value,
            writer: tid,
            tick: vc.get(tid),
            msg,
        });
        self.set_floor(tid, loc, idx);
    }

    /// Performs the read+write halves of a successful RMW: reads the newest
    /// store (acquire-joining per `o`), appends `new`, and continues the
    /// release sequence (a relaxed RMW forwards the previous message clock;
    /// a release-class RMW additionally merges its own clock in). `vc` must
    /// already be ticked. Returns the value read.
    pub(crate) fn rmw(
        &mut self,
        tid: usize,
        loc: usize,
        new: u64,
        o: Ordering,
        vc: &mut VClock,
    ) -> u64 {
        let (idx, old) = self.latest(loc);
        let prev_msg = self.locs[loc].stores[idx].msg.clone();
        if acquire_class(o) {
            if let Some(msg) = &prev_msg {
                vc.join(msg);
            }
        }
        let msg = match (release_class(o), prev_msg) {
            (true, Some(mut m)) => {
                m.join(vc);
                Some(m)
            }
            (true, None) => Some(vc.clone()),
            (false, carried) => carried,
        };
        self.locs[loc].stores.push(Store {
            value: new,
            writer: tid,
            tick: vc.get(tid),
            msg,
        });
        self.set_floor(tid, loc, idx + 1);
        old
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stale_reads_are_candidates_until_observed() {
        let mut m = Memory::default();
        let mut w = VClock::new();
        let mut r = VClock::new();
        let l = m.register(0);
        w.tick(1);
        m.write(1, l, 7, Ordering::Relaxed, &w);
        // Reader with no synchronization may read initial 0 or the 7.
        assert_eq!(m.candidates(2, l, &r), vec![1, 0]);
        // After observing the store event (e.g. via some acquire chain), the
        // initial value is dead.
        r.join(&w);
        assert_eq!(m.candidates(2, l, &r), vec![1]);
    }

    #[test]
    fn coherence_floor_is_per_thread_monotonic() {
        let mut m = Memory::default();
        let mut w = VClock::new();
        let mut r = VClock::new();
        let l = m.register(0);
        for v in [1u64, 2] {
            w.tick(1);
            m.write(1, l, v, Ordering::Relaxed, &w);
        }
        assert_eq!(m.candidates(2, l, &r), vec![2, 1, 0]);
        assert_eq!(m.read(2, l, 1, Ordering::Relaxed, &mut r), 1);
        // Having read store #1, the reader can never go back to #0.
        assert_eq!(m.candidates(2, l, &r), vec![2, 1]);
    }

    #[test]
    fn release_acquire_transfers_clock_and_relaxed_does_not() {
        let mut m = Memory::default();
        let mut w = VClock::new();
        let l = m.register(0);
        w.tick(1);
        m.write(1, l, 5, Ordering::Release, &w);

        let mut acq = VClock::new();
        assert_eq!(m.read(2, l, 1, Ordering::Acquire, &mut acq), 5);
        assert!(acq.observed(1, 1), "acquire read joined the release clock");

        let mut rlx = VClock::new();
        assert_eq!(m.read(3, l, 1, Ordering::Relaxed, &mut rlx), 5);
        assert!(!rlx.observed(1, 1), "relaxed read does not synchronize");
    }

    #[test]
    fn relaxed_rmw_continues_release_sequence() {
        let mut m = Memory::default();
        let mut w = VClock::new();
        let l = m.register(0);
        w.tick(1);
        m.write(1, l, 1, Ordering::Release, &w);
        // Another thread's Relaxed RMW must forward the release clock.
        let mut t2 = VClock::new();
        t2.tick(2);
        assert_eq!(m.rmw(2, l, 9, Ordering::Relaxed, &mut t2), 1);
        assert!(!t2.observed(1, 1), "relaxed RMW itself does not acquire");
        let mut acq = VClock::new();
        assert_eq!(m.read(3, l, 2, Ordering::Acquire, &mut acq), 9);
        assert!(
            acq.observed(1, 1),
            "acquire of the RMW store synchronizes with the sequence head"
        );
    }
}
