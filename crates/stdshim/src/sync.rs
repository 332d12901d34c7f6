//! The workspace's one lock kind — a non-poisoning [`Mutex`] over
//! `std::sync` — with a debug-build lock-order sanitizer.
//!
//! Its users (the metrics registry and its stage sets) want parking_lot-style
//! ergonomics: `.lock()` returns the guard directly instead of a `Result`
//! wrapping poison state. In this workspace a panic while holding a
//! lock only ever happens when a test assertion already failed, so poison
//! recovery adds nothing but call-site noise — the wrapper simply clears
//! the poison flag and hands out the guard. There is no reader-writer lock:
//! every lock in the workspace is this one kind, so the sanitizer has one
//! acquire shape.
//!
//! # Lock-order sanitizer (debug builds only)
//!
//! Under `debug_assertions` every [`Mutex`] participates in a
//! process-wide lock-order sanitizer (see [`self::sanitizer`]):
//!
//! * **Class labels.** [`Mutex::labeled`] tags a lock
//!   with a `&'static str` class (convention: `"subsystem/role"`, e.g.
//!   `"metrics/registry"`). All locks of a class share one node in the global
//!   lock-order graph. Unlabeled locks ([`Mutex::new`]) are tracked on the
//!   held stack (re-entry and scope checks) but record no ordering edges.
//! * **Order graph.** Each thread keeps a stack of currently held locks.
//!   Blocking-acquiring a labeled lock while holding another labeled lock
//!   records a `held-class → acquired-class` edge; an edge that closes a
//!   cycle (the classic ABBA deadlock, or any longer cycle) panics *before*
//!   blocking, naming every class on the cycle and the acquisition sites of
//!   both conflicting edges. Edges are recorded before the blocking wait, so
//!   an interleaving that would deadlock panics instead of hanging.
//! * **Re-entry.** Blocking-acquiring a lock this thread already holds (a
//!   guaranteed self-deadlock) panics immediately.
//! * **Request-path scope.** [`request_path_scope`] asserts the DESIGN.md §7.2
//!   invariant — a request-path thread holds at most one lock at a time —
//!   for the dynamic extent of the returned guard: acquiring a second lock
//!   on top of one taken after scope entry panics with both sites.
//!
//! Non-guarantees: a `try_lock` success is tracked on the held stack (it
//! *holds* the lock) but records no ordering edges — a try-acquire cannot
//! block, so it cannot complete a deadlock by itself.
//! The sanitizer observes orders actually executed; it proves the absence of
//! lock-order cycles only over code paths the test suite exercises.
//!
//! In release builds (`debug_assertions` off) every check compiles away:
//! the lock types store no extra state and the guards are newtypes over the
//! `std::sync` guards — the CI benches run on exactly the same code as
//! before the sanitizer existed.

use std::ops::{Deref, DerefMut};

#[cfg(debug_assertions)]
use sanitizer::Tracked;
#[cfg(debug_assertions)]
pub use sanitizer::{request_path_scope, RequestPathScope};

/// Release-build no-op twin of the debug `request_path_scope`.
#[cfg(not(debug_assertions))]
#[must_use = "the scope assertion only covers the guard's lifetime"]
pub fn request_path_scope() -> RequestPathScope {
    RequestPathScope {
        _not_send: std::marker::PhantomData,
    }
}

/// Release-build no-op scope guard (see [`sanitizer::RequestPathScope`]).
#[cfg(not(debug_assertions))]
pub struct RequestPathScope {
    // The scope is a per-thread assertion; keep the type `!Send` in both
    // build profiles so code cannot compile in release and fail in debug.
    _not_send: std::marker::PhantomData<*const ()>,
}

/// A mutual-exclusion lock whose `lock()` never returns a poison error.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    #[cfg(debug_assertions)]
    class: Option<&'static str>,
    inner: std::sync::Mutex<T>,
}

/// RAII guard for [`Mutex::lock`]; unlocks (and pops the sanitizer's
/// held-lock stack in debug builds) on drop.
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized> {
    #[cfg(debug_assertions)]
    _tracked: Tracked,
    inner: std::sync::MutexGuard<'a, T>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> Mutex<T> {
    /// Creates an unlabeled lock holding `value`. Unlabeled locks are
    /// re-entry/scope checked in debug builds but record no ordering edges;
    /// long-lived locks in concurrent subsystems should use
    /// [`Self::labeled`].
    pub fn new(value: T) -> Self {
        Mutex {
            #[cfg(debug_assertions)]
            class: None,
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Creates a lock with a lock-order class label (e.g. `"metrics/registry"`).
    /// All locks sharing a class are one node in the debug-build lock-order
    /// graph; in release builds the label is discarded.
    pub fn labeled(value: T, class: &'static str) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = class;
        Mutex {
            #[cfg(debug_assertions)]
            class: Some(class),
            inner: std::sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    #[cfg(debug_assertions)]
    fn addr(&self) -> usize {
        std::ptr::addr_of!(self.inner) as *const () as usize
    }

    /// Acquires the lock, blocking until it is free. A poisoned lock (a
    /// panic on another thread while holding it) is treated as unlocked.
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        sanitizer::before_blocking_acquire(self.addr(), self.class);
        let inner = self
            .inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        MutexGuard {
            #[cfg(debug_assertions)]
            _tracked: sanitizer::track(self.addr(), self.class),
            inner,
        }
    }

    /// Attempts to acquire the lock without blocking.
    #[track_caller]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = match self.inner.try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return None,
        };
        Some(MutexGuard {
            #[cfg(debug_assertions)]
            _tracked: sanitizer::track(self.addr(), self.class),
            inner,
        })
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner
            .get_mut()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

impl<T> From<T> for Mutex<T> {
    fn from(value: T) -> Self {
        Mutex::new(value)
    }
}

/// The debug-build lock-order sanitizer: per-thread held-lock stacks, a
/// global class-level order graph with cycle detection, re-entry detection,
/// and the [`request_path_scope`] at-most-one-lock assertion.
#[cfg(debug_assertions)]
pub(crate) mod sanitizer {
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::panic::Location;
    use std::sync::OnceLock;

    /// One currently held lock on this thread.
    #[derive(Clone, Copy)]
    struct Held {
        addr: usize,
        class: Option<&'static str>,
        site: &'static Location<'static>,
    }

    thread_local! {
        /// Stack of locks this thread currently holds (acquisition order).
        static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
        /// Held-stack depth at the entry of each active `request_path_scope`;
        /// the innermost governs the at-most-one-lock assertion.
        static SCOPES: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    }

    /// A recorded `from-class → to-class` acquisition, with the sites of the
    /// first occurrence (where `from` was held, where `to` was acquired).
    struct Edge {
        holding_site: &'static Location<'static>,
        acquiring_site: &'static Location<'static>,
    }

    #[derive(Default)]
    struct OrderGraph {
        /// `edges[from][to]`: `to` was blocking-acquired while holding
        /// `from`. Never removed: lock order is a whole-program invariant.
        edges: HashMap<&'static str, HashMap<&'static str, Edge>>,
    }

    impl OrderGraph {
        /// A class path `from → … → to` through recorded edges, if any.
        fn path(&self, from: &'static str, to: &'static str) -> Option<Vec<&'static str>> {
            let mut stack = vec![vec![from]];
            let mut visited = vec![from];
            while let Some(path) = stack.pop() {
                let last = *path.last()?;
                if last == to {
                    return Some(path);
                }
                if let Some(nexts) = self.edges.get(last) {
                    for &next in nexts.keys() {
                        if !visited.contains(&next) {
                            visited.push(next);
                            let mut p = path.clone();
                            p.push(next);
                            stack.push(p);
                        }
                    }
                }
            }
            None
        }

        fn render_path(&self, path: &[&'static str]) -> String {
            let mut out = String::new();
            for pair in path.windows(2) {
                if let Some(edge) = self.edges.get(pair[0]).and_then(|m| m.get(pair[1])) {
                    out.push_str(&format!(
                        "\n  '{}' -> '{}' (held '{}' at {}, acquired '{}' at {})",
                        pair[0], pair[1], pair[0], edge.holding_site, pair[1], edge.acquiring_site,
                    ));
                }
            }
            out
        }
    }

    fn graph() -> &'static std::sync::Mutex<OrderGraph> {
        static GRAPH: OnceLock<std::sync::Mutex<OrderGraph>> = OnceLock::new();
        GRAPH.get_or_init(|| std::sync::Mutex::new(OrderGraph::default()))
    }

    fn class_name(class: Option<&'static str>) -> &'static str {
        class.unwrap_or("<unlabeled>")
    }

    /// Checks a blocking acquisition *before* it blocks: re-entry, scope
    /// violation, and (for labeled locks) order-graph cycles. Panicking here
    /// — while the lock is still free — is what turns a would-be deadlock
    /// into a diagnosed failure.
    #[track_caller]
    pub(super) fn before_blocking_acquire(addr: usize, class: Option<&'static str>) {
        let site = Location::caller();
        let held: Vec<Held> = HELD.with(|h| h.borrow().clone());
        if let Some(prev) = held.iter().find(|e| e.addr == addr) {
            panic!(
                "lock sanitizer: re-entrant acquisition of '{}' at {} \
                 (this thread already holds it, acquired at {})",
                class_name(class),
                site,
                prev.site,
            );
        }
        check_scope(&held, class, site);
        if let Some(to) = class {
            for prev in held.iter() {
                if let Some(from) = prev.class {
                    record_edge(from, prev.site, to, site);
                }
            }
        }
    }

    /// The `request_path_scope` assertion: with a scope active, at most one
    /// lock may be held beyond the scope's entry baseline.
    fn check_scope(held: &[Held], class: Option<&'static str>, site: &'static Location<'static>) {
        SCOPES.with(|s| {
            if let Some(&baseline) = s.borrow().last() {
                if held.len() > baseline {
                    // held.len() > baseline >= 0, so last() exists.
                    let top = held[held.len() - 1];
                    panic!(
                        "lock sanitizer: request-path scope violated (at most one lock \
                         on the request path, DESIGN.md §7.2): acquiring '{}' at {} while \
                         already holding '{}' acquired at {}",
                        class_name(class),
                        site,
                        class_name(top.class),
                        top.site,
                    );
                }
            }
        });
    }

    /// Records `from → to` and panics if the reverse direction is already
    /// reachable, printing the full conflicting chain.
    fn record_edge(
        from: &'static str,
        holding_site: &'static Location<'static>,
        to: &'static str,
        acquiring_site: &'static Location<'static>,
    ) {
        if from == to {
            panic!(
                "lock sanitizer: same-class nesting of '{from}': acquired a second \
                 '{from}' lock at {acquiring_site} while holding one acquired at \
                 {holding_site} — two threads doing this in opposite instance order \
                 deadlock",
            );
        }
        let mut g = graph()
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let known = g.edges.get(from).is_some_and(|m| m.contains_key(to));
        if known {
            return; // validated when first recorded
        }
        // Would inserting from→to close a cycle? Look for to ⇝ from first.
        let conflict = g.path(to, from).map(|path| g.render_path(&path));
        g.edges.entry(from).or_default().insert(
            to,
            Edge {
                holding_site,
                acquiring_site,
            },
        );
        drop(g);
        if let Some(chain) = conflict {
            panic!(
                "lock sanitizer: lock-order cycle (ABBA deadlock): acquiring '{to}' \
                 at {acquiring_site} while holding '{from}' acquired at {holding_site}, \
                 but the opposite order is already on record:{chain}",
            );
        }
    }

    /// Pushes a successful acquisition onto the held stack; the returned
    /// token pops it on drop (stored inside the lock guard). `try_*`
    /// successes go through here too: they hold the lock, so re-entry-safe
    /// tracking and the scope assertion still apply.
    #[track_caller]
    pub(super) fn track(addr: usize, class: Option<&'static str>) -> Tracked {
        let site = Location::caller();
        // try_* acquisitions skip before_blocking_acquire; re-apply the
        // scope assertion so a try-acquired second lock is still caught.
        let held: Vec<Held> = HELD.with(|h| h.borrow().clone());
        check_scope(&held, class, site);
        HELD.with(|h| h.borrow_mut().push(Held { addr, class, site }));
        Tracked { addr }
    }

    /// Held-stack token embedded in each guard; pops its entry on drop.
    #[derive(Debug)]
    pub(super) struct Tracked {
        addr: usize,
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            // Guards may drop in any order: remove the *last* entry with our
            // address.
            // try_with: thread-local storage may already be gone during
            // thread teardown; bookkeeping for a dying thread is moot.
            let _ = HELD.try_with(|h| {
                let mut held = h.borrow_mut();
                if let Some(at) = held.iter().rposition(|e| e.addr == self.addr) {
                    held.remove(at);
                }
            });
        }
    }

    /// Asserts the DESIGN.md §7.2 request-path invariant — *a request-path
    /// thread holds at most one lock at a time* — for the guard's lifetime.
    ///
    /// The assertion is relative to scope entry: locks already held when the
    /// scope opens (e.g. a single-threaded façade's outer gateway lock) form
    /// the baseline, and at most one lock may ever be held beyond it. Scopes
    /// nest; the innermost governs. Debug builds only — the release twin is
    /// an empty struct and the call compiles to nothing.
    #[must_use = "the scope assertion only covers the guard's lifetime"]
    pub fn request_path_scope() -> RequestPathScope {
        let baseline = HELD.with(|h| h.borrow().len());
        SCOPES.with(|s| s.borrow_mut().push(baseline));
        RequestPathScope {
            _not_send: std::marker::PhantomData,
        }
    }

    /// Active [`request_path_scope`] assertion (debug builds).
    pub struct RequestPathScope {
        // Scope state is thread-local: forbid sending the guard elsewhere.
        _not_send: std::marker::PhantomData<*const ()>,
    }

    impl Drop for RequestPathScope {
        fn drop(&mut self) {
            let _ = SCOPES.try_with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn mutex_try_lock_contended() {
        let m = Mutex::new(0);
        let guard = m.lock();
        assert!(m.try_lock().is_none());
        drop(guard);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn mutex_survives_poison() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison the lock");
        })
        .join();
        // parking_lot semantics: the value is still reachable.
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn get_mut_bypasses_locking() {
        let mut m = Mutex::new(5);
        *m.get_mut() = 6;
        assert_eq!(*m.lock(), 6);
    }

    #[test]
    fn shared_across_threads() {
        let m = Arc::new(Mutex::new(0u64));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for _ in 0..1_000 {
                        *m.lock() += 1;
                    }
                });
            }
        });
        assert_eq!(*m.lock(), 8_000);
    }

    #[test]
    fn labeled_locks_round_trip() {
        let m = Mutex::labeled(1, "test/labeled-mutex");
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn consistent_nesting_order_is_fine() {
        // A → B in every thread: edges recorded, no cycle, no panic.
        let a = Arc::new(Mutex::labeled(0, "test/nest-outer"));
        let b = Arc::new(Mutex::labeled(0, "test/nest-inner"));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (a, b) = (Arc::clone(&a), Arc::clone(&b));
                s.spawn(move || {
                    for _ in 0..100 {
                        let ga = a.lock();
                        let mut gb = b.lock();
                        *gb += *ga;
                    }
                });
            }
        });
        assert_eq!(*b.lock(), 0);
    }
}
