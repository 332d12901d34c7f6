//! Seeded-deadlock tests for the debug-build lock-order sanitizer.
//!
//! Each test uses class names unique to itself: the lock-order graph is
//! process-global and never forgets an edge, so sharing a class across
//! tests would let one test's edges trip another's.
#![cfg(debug_assertions)]

use std::sync::{Arc, OnceLock};
use stdshim::sync::{request_path_scope, Mutex};

/// Runs `f` on a fresh thread, expecting it to panic, and returns the panic
/// message. Installs a quiet panic hook once so expected panics don't spray
/// backtraces over the test output.
fn panic_message(f: impl FnOnce() + Send + 'static) -> String {
    static QUIET: OnceLock<()> = OnceLock::new();
    QUIET.get_or_init(|| std::panic::set_hook(Box::new(|_| {})));
    let err = std::thread::spawn(f)
        .join()
        .expect_err("expected a sanitizer panic, but the closure succeeded");
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "<non-string panic payload>".to_string())
}

#[test]
fn abba_cycle_is_detected_and_names_both_classes() {
    let a = Arc::new(Mutex::labeled(0u32, "abba/left"));
    let b = Arc::new(Mutex::labeled(0u32, "abba/right"));

    // Thread 1 runs the A→B order to completion, seeding the edge.
    {
        let (a, b) = (Arc::clone(&a), Arc::clone(&b));
        std::thread::spawn(move || {
            let _ga = a.lock();
            let _gb = b.lock();
        })
        .join()
        .expect("first ordering must succeed");
    }

    // Thread 2 attempts B→A: the reverse edge closes a cycle, and the
    // sanitizer panics *before* blocking — under a real interleaving this
    // is the ABBA deadlock.
    let msg = panic_message(move || {
        let _gb = b.lock();
        let _ga = a.lock();
    });
    assert!(
        msg.contains("lock-order cycle"),
        "unexpected message: {msg}"
    );
    assert!(msg.contains("abba/left"), "missing class in: {msg}");
    assert!(msg.contains("abba/right"), "missing class in: {msg}");
}

#[test]
fn three_lock_cycle_is_detected_through_the_graph() {
    let a = Arc::new(Mutex::labeled(0u32, "tri/a"));
    let b = Arc::new(Mutex::labeled(0u32, "tri/b"));
    let c = Arc::new(Mutex::labeled(0u32, "tri/c"));

    // Seed a→b and b→c on separate threads.
    {
        let (a, b) = (Arc::clone(&a), Arc::clone(&b));
        std::thread::spawn(move || {
            let _ga = a.lock();
            let _gb = b.lock();
        })
        .join()
        .expect("a->b must succeed");
    }
    {
        let (b, c) = (Arc::clone(&b), Arc::clone(&c));
        std::thread::spawn(move || {
            let _gb = b.lock();
            let _gc = c.lock();
        })
        .join()
        .expect("b->c must succeed");
    }

    // c→a closes the 3-cycle even though no single thread ever took a and
    // c in the opposite direct order.
    let msg = panic_message(move || {
        let _gc = c.lock();
        let _ga = a.lock();
    });
    assert!(
        msg.contains("lock-order cycle"),
        "unexpected message: {msg}"
    );
    for class in ["tri/a", "tri/b", "tri/c"] {
        assert!(msg.contains(class), "missing {class} in: {msg}");
    }
}

#[test]
fn mutex_reentry_is_detected() {
    let m = Arc::new(Mutex::labeled(0u32, "reentry/mutex"));
    let msg = panic_message(move || {
        let _first = m.lock();
        let _second = m.lock(); // guaranteed self-deadlock without the sanitizer
    });
    assert!(msg.contains("re-entrant"), "unexpected message: {msg}");
    assert!(msg.contains("reentry/mutex"), "missing class in: {msg}");
}

#[test]
fn same_class_nesting_is_detected() {
    // Two *different* locks of one class nested: two threads doing this in
    // opposite instance order deadlock, which a class-level graph cannot
    // see as a cycle — so it is rejected directly.
    let outer = Arc::new(Mutex::labeled(0u32, "sameclass/shard"));
    let inner = Arc::new(Mutex::labeled(0u32, "sameclass/shard"));
    let msg = panic_message(move || {
        let _go = outer.lock();
        let _gi = inner.lock();
    });
    assert!(
        msg.contains("same-class nesting"),
        "unexpected message: {msg}"
    );
    assert!(msg.contains("sameclass/shard"), "missing class in: {msg}");
}

#[test]
fn request_path_scope_trips_on_nested_acquisition() {
    let a = Arc::new(Mutex::labeled(0u32, "scope/first"));
    let b = Arc::new(Mutex::labeled(0u32, "scope/second"));
    let msg = panic_message(move || {
        let _scope = request_path_scope();
        let _ga = a.lock();
        let _gb = b.lock(); // second lock inside the scope: §7.2 violation
    });
    assert!(
        msg.contains("request-path scope violated"),
        "unexpected message: {msg}"
    );
    assert!(msg.contains("scope/first"), "missing class in: {msg}");
    assert!(msg.contains("scope/second"), "missing class in: {msg}");
}

#[test]
fn request_path_scope_trips_on_try_lock_too() {
    // try_lock cannot deadlock, but a successful try-acquire still *holds*
    // a second lock on the request path — the scope assertion applies.
    let a = Arc::new(Mutex::labeled(0u32, "scopetry/first"));
    let b = Arc::new(Mutex::labeled(0u32, "scopetry/second"));
    let msg = panic_message(move || {
        let _scope = request_path_scope();
        let _ga = a.lock();
        let _gb = b.try_lock();
    });
    assert!(
        msg.contains("request-path scope violated"),
        "unexpected message: {msg}"
    );
}

#[test]
fn request_path_scope_allows_sequential_single_locks() {
    let a = Mutex::labeled(0u32, "scopeseq/a");
    let b = Mutex::labeled(0u32, "scopeseq/b");
    let scope = request_path_scope();
    for _ in 0..3 {
        *a.lock() += 1; // guard dropped at end of statement
        *b.lock() += 1;
    }
    drop(scope);
    assert_eq!(*a.lock(), 3);
    assert_eq!(*b.lock(), 3);
}

#[test]
fn request_path_scope_baseline_tolerates_locks_held_at_entry() {
    // A single-threaded façade may hold an outer gateway lock while the
    // inner pool opens a scope; locks held *at scope entry* are baseline,
    // and one more at a time on top is allowed.
    let outer = Mutex::labeled(0u32, "scopebase/outer");
    let shard = Mutex::labeled(0u32, "scopebase/shard");
    let outer_guard = outer.lock();
    {
        let _scope = request_path_scope();
        *shard.lock() += 1; // one lock beyond baseline: fine
        *shard.lock() += 1;
    }
    drop(outer_guard);
    assert_eq!(*shard.lock(), 2);
}

#[test]
fn scope_expires_when_guard_drops() {
    let a = Mutex::labeled(0u32, "scopedrop/a");
    let b = Mutex::labeled(0u32, "scopedrop/b");
    {
        let _scope = request_path_scope();
        *a.lock() += 1;
    }
    // Scope gone: nesting is legal again (and consistently ordered).
    let _ga = a.lock();
    let mut gb = b.lock();
    *gb += 1;
}

#[test]
fn consistent_global_order_never_panics_under_contention() {
    let a = Arc::new(Mutex::labeled(0u64, "order/outer"));
    let b = Arc::new(Mutex::labeled(0u64, "order/inner"));
    std::thread::scope(|s| {
        for _ in 0..4 {
            let (a, b) = (Arc::clone(&a), Arc::clone(&b));
            s.spawn(move || {
                for _ in 0..200 {
                    let ga = a.lock();
                    *b.lock() += *ga;
                }
            });
        }
    });
    assert_eq!(*b.lock(), 0);
}
