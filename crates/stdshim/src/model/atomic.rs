//! Model-instrumented atomic types, API-compatible with the
//! `std::sync::atomic` surface the slot protocol uses.
//!
//! Inside a [`Checker`](super::Checker) execution every operation becomes a
//! schedule point routed through the controlled scheduler and weak-memory
//! store model. Outside a run (plain unit tests, drained threads) each type
//! falls back to its embedded real atomic, so the instrumented build still
//! behaves sensibly everywhere.
//!
//! Location identity is the embedded atomic's address, valid for the
//! duration of one execution; labels (`L0`, `L1`, …) are assigned in
//! first-touch order, which replay preserves. An atomic dropped and
//! reallocated at the same address *within one execution* would alias — the
//! protocol tests keep everything alive in `Arc`s for the closure's
//! lifetime, which is the supported pattern.

use super::rt::{self, Op, OpResult, RmwKind};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Model-checked drop-in for [`std::sync::atomic::AtomicU64`].
#[derive(Debug, Default)]
pub struct ModelAtomicU64 {
    inner: AtomicU64,
}

impl ModelAtomicU64 {
    /// Creates a new atomic with the given initial value.
    pub const fn new(v: u64) -> ModelAtomicU64 {
        ModelAtomicU64 {
            inner: AtomicU64::new(v),
        }
    }

    fn addr(&self) -> usize {
        std::ptr::from_ref(&self.inner) as usize
    }

    /// Initial value for lazy per-run location registration: the real cell,
    /// untouched by in-run model stores.
    fn init(&self) -> u64 {
        self.inner.load(Ordering::Relaxed)
    }

    fn value_result(r: Option<OpResult>) -> Option<u64> {
        match r {
            Some(OpResult::Value(v)) => Some(v),
            Some(_) => None,
            None => None,
        }
    }

    /// See [`AtomicU64::load`].
    pub fn load(&self, o: Ordering) -> u64 {
        let modeled = rt::with_run(|sh, me| {
            sh.atomic_op(
                me,
                Op::Load {
                    addr: self.addr(),
                    init: self.init(),
                    o,
                },
            )
        });
        match modeled {
            // lint:allow(unwrap, Load ops always produce Value results; a None is checker corruption)
            Some(r) => Self::value_result(Some(r)).expect("load returns a value"),
            None => self.inner.load(o),
        }
    }

    /// See [`AtomicU64::store`].
    pub fn store(&self, value: u64, o: Ordering) {
        let modeled = rt::with_run(|sh, me| {
            sh.atomic_op(
                me,
                Op::Store {
                    addr: self.addr(),
                    init: self.init(),
                    value,
                    o,
                },
            )
        });
        if modeled.is_none() {
            self.inner.store(value, o);
        }
    }

    fn rmw(&self, kind: RmwKind, o: Ordering) -> Option<u64> {
        let modeled = rt::with_run(|sh, me| {
            sh.atomic_op(
                me,
                Op::Rmw {
                    addr: self.addr(),
                    init: self.init(),
                    kind,
                    o,
                },
            )
        });
        // lint:allow(unwrap, Rmw ops always produce Value results; a None is checker corruption)
        modeled.map(|r| Self::value_result(Some(r)).expect("rmw returns the old value"))
    }

    /// See [`AtomicU64::swap`].
    pub fn swap(&self, value: u64, o: Ordering) -> u64 {
        self.rmw(RmwKind::Swap(value), o)
            .unwrap_or_else(|| self.inner.swap(value, o))
    }

    /// See [`AtomicU64::fetch_add`].
    pub fn fetch_add(&self, value: u64, o: Ordering) -> u64 {
        self.rmw(RmwKind::Add(value), o)
            .unwrap_or_else(|| self.inner.fetch_add(value, o))
    }

    /// See [`AtomicU64::fetch_sub`].
    pub fn fetch_sub(&self, value: u64, o: Ordering) -> u64 {
        self.rmw(RmwKind::Sub(value), o)
            .unwrap_or_else(|| self.inner.fetch_sub(value, o))
    }

    /// See [`AtomicU64::fetch_and`].
    // lint:allow(dead-pub, sync_slots.rs calls it through the ShimAtomicU64 alias under --cfg hotc_model only)
    pub fn fetch_and(&self, value: u64, o: Ordering) -> u64 {
        self.rmw(RmwKind::And(value), o)
            .unwrap_or_else(|| self.inner.fetch_and(value, o))
    }

    /// See [`AtomicU64::fetch_or`].
    // lint:allow(dead-pub, sync_slots.rs calls it through the ShimAtomicU64 alias under --cfg hotc_model only)
    pub fn fetch_or(&self, value: u64, o: Ordering) -> u64 {
        self.rmw(RmwKind::Or(value), o)
            .unwrap_or_else(|| self.inner.fetch_or(value, o))
    }

    /// See [`AtomicU64::fetch_max`].
    pub fn fetch_max(&self, value: u64, o: Ordering) -> u64 {
        self.rmw(RmwKind::Max(value), o)
            .unwrap_or_else(|| self.inner.fetch_max(value, o))
    }

    fn cmpex(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Option<Result<u64, u64>> {
        let modeled = rt::with_run(|sh, me| {
            sh.atomic_op(
                me,
                Op::CmpEx {
                    addr: self.addr(),
                    init: self.init(),
                    current,
                    new,
                    success,
                    failure,
                },
            )
        });
        modeled.map(|r| match r {
            OpResult::Cas(v, true) => Ok(v),
            OpResult::Cas(v, false) => Err(v),
            _ => unreachable!("cas returns a cas result"),
        })
    }

    /// See [`AtomicU64::compare_exchange`].
    pub fn compare_exchange(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        self.cmpex(current, new, success, failure)
            .unwrap_or_else(|| self.inner.compare_exchange(current, new, success, failure))
    }

    /// See [`AtomicU64::compare_exchange_weak`]. The model never fails
    /// spuriously (a strict subset of the real op's behaviours — code
    /// correct under the model could still loop more on real hardware, but
    /// never the reverse).
    // lint:allow(dead-pub, sync_slots.rs calls it through the ShimAtomicU64 alias under --cfg hotc_model only)
    pub fn compare_exchange_weak(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        self.cmpex(current, new, success, failure)
            .unwrap_or_else(|| {
                self.inner
                    .compare_exchange_weak(current, new, success, failure)
            })
    }
}

/// Model-checked drop-in for [`std::sync::atomic::AtomicUsize`] (a thin
/// cast layer over [`ModelAtomicU64`]).
#[derive(Debug)]
pub struct ModelAtomicUsize {
    inner: ModelAtomicU64,
}

impl ModelAtomicUsize {
    /// Creates a new atomic with the given initial value.
    pub const fn new(v: usize) -> ModelAtomicUsize {
        ModelAtomicUsize {
            inner: ModelAtomicU64::new(v as u64),
        }
    }

    /// See [`std::sync::atomic::AtomicUsize::load`].
    pub fn load(&self, o: Ordering) -> usize {
        self.inner.load(o) as usize
    }

    /// See [`std::sync::atomic::AtomicUsize::store`].
    pub fn store(&self, value: usize, o: Ordering) {
        self.inner.store(value as u64, o);
    }

    /// See [`std::sync::atomic::AtomicUsize::swap`].
    pub fn swap(&self, value: usize, o: Ordering) -> usize {
        self.inner.swap(value as u64, o) as usize
    }

    /// See [`std::sync::atomic::AtomicUsize::fetch_add`].
    pub fn fetch_add(&self, value: usize, o: Ordering) -> usize {
        self.inner.fetch_add(value as u64, o) as usize
    }

    /// See [`std::sync::atomic::AtomicUsize::fetch_sub`].
    pub fn fetch_sub(&self, value: usize, o: Ordering) -> usize {
        self.inner.fetch_sub(value as u64, o) as usize
    }

    /// See [`std::sync::atomic::AtomicUsize::fetch_max`].
    pub fn fetch_max(&self, value: usize, o: Ordering) -> usize {
        self.inner.fetch_max(value as u64, o) as usize
    }
}

/// Model-checked drop-in for [`std::sync::OnceLock`].
///
/// Initialization is modelled as a single acquire-release RMW on a pseudo
/// location (the anchor), so a reader that observes "initialized" also
/// observes everything the initializer published first — and a reader with
/// no synchronization may legitimately still see "uninitialized" even
/// though the real inner `OnceLock` is already set (stale read).
///
/// Restriction: the `get_or_init` closure must not contain schedule points
/// (no model-atomic operations). All in-repo initializers are pure
/// constructions, and the checker cannot tolerate a thread parking while it
/// holds the real `OnceLock`'s internal initialization lock.
#[derive(Debug)]
pub struct ModelOnceLock<T> {
    anchor: AtomicU64,
    inner: OnceLock<T>,
}

impl<T> ModelOnceLock<T> {
    /// Creates an empty lock.
    pub const fn new() -> ModelOnceLock<T> {
        ModelOnceLock {
            anchor: AtomicU64::new(0),
            inner: OnceLock::new(),
        }
    }

    fn addr(&self) -> usize {
        std::ptr::from_ref(&self.anchor) as usize
    }

    /// See [`OnceLock::get`]. Under the model this is an `Acquire` load of
    /// the anchor: a stale 0 reads as "not initialized yet".
    pub fn get(&self) -> Option<&T> {
        let modeled = rt::with_run(|sh, me| {
            sh.atomic_op(
                me,
                Op::Load {
                    addr: self.addr(),
                    init: self.anchor.load(Ordering::Relaxed),
                    o: Ordering::Acquire,
                },
            )
        });
        match modeled {
            Some(OpResult::Value(0)) => None,
            Some(_) => self.inner.get(),
            None => self.inner.get(),
        }
    }

    /// See [`OnceLock::get_or_init`] (closure restriction above).
    pub fn get_or_init(&self, f: impl FnOnce() -> T) -> &T {
        let modeled = rt::with_run(|sh, me| sh.atomic_op(me, Op::OnceInit { addr: self.addr() }));
        if modeled.is_none() {
            // Outside a run: keep the anchor's count in step so a later
            // in-run registration sees a nonzero initial value.
            let v = self.inner.get_or_init(f);
            self.anchor.store(1, Ordering::Release);
            return v;
        }
        // In-run: the OnceInit op above executed while this thread held the
        // baton; the real init below finishes before any other virtual
        // thread runs (the closure has no schedule points).
        self.inner.get_or_init(f)
    }
}

impl<T> Default for ModelOnceLock<T> {
    fn default() -> Self {
        ModelOnceLock::new()
    }
}
