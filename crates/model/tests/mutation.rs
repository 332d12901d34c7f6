//! Mutation harness: prove the checker has teeth.
//!
//! `PublishOrder::RelaxedBit` runs the real publish sequence with the final
//! `avail` bit-set deliberately weakened from `Release` to `Relaxed`.
//! Without the release edge a racing `claim_warm` may win the bit yet read
//! the entry word stale (zero) — tripping `claim_warm`'s own
//! `debug_assert_ne!(entry, 0, "claimed an avail bit over an empty slot")`.
//! If the checker ever stops finding that schedule, the memory model has
//! silently gone strong and every clean protocol report is worthless.
#![cfg(hotc_model)]

use containersim::ContainerId;
use hotc::pool::model_api::ModelSlots;
use hotc::pool::PublishOrder;
use hotc_model::{spawn, Checker};
use std::sync::Arc;

const C1: ContainerId = ContainerId(7);

/// The racing shape: one publisher, one claimer, both spawned so the claim
/// carries no spawn-edge visibility of the publish.
fn race(order: PublishOrder) -> impl Fn() + Send + Sync + 'static {
    move || {
        let s = Arc::new(ModelSlots::new(1));
        let s2 = Arc::clone(&s);
        let publisher = spawn(move || {
            let published = s2.publish_avail(C1, order);
            assert!(published.is_some(), "the one slot was free");
        });
        let s3 = Arc::clone(&s);
        let claimer = spawn(move || {
            if let Some((_, c)) = s3.claim_warm() {
                assert_eq!(c, C1, "torn publish observed");
            }
        });
        publisher.join();
        claimer.join();
    }
}

#[test]
fn relaxed_publish_mutation_is_caught() {
    let report = Checker::new()
        .preemption_bound(2)
        .try_check(race(PublishOrder::RelaxedBit));
    let v = report
        .violation
        .expect("weakened publish must leak a torn entry to some schedule");
    assert!(
        v.message.contains("empty slot") || v.message.contains("torn publish"),
        "violation names the stale read: {}",
        v.message
    );
    assert!(!v.schedule.is_empty(), "schedule is replayable");
    let rendered = v.render();
    assert!(rendered.contains("replay choice vector"), "{rendered}");
    assert!(rendered.contains("execution trace"), "{rendered}");
}

#[test]
fn release_publish_survives_the_same_race() {
    // Control arm: identical shape, real ordering — the checker must
    // exhaust the tree clean, or the mutation test above proves nothing.
    let report = Checker::new()
        .preemption_bound(2)
        .try_check(race(PublishOrder::Release));
    assert!(
        report.violation.is_none(),
        "real publish ordering is correct: {:?}",
        report.violation
    );
    assert!(report.complete, "tree exhausted within budget");
}

/// The growth shape: a publisher appends a chunk and cold-publishes into it
/// while a releaser resolves the container through the reverse index. The
/// releaser's only edge to the chunk append is the reverse-index cell.
fn growth_race(order: PublishOrder) -> impl Fn() + Send + Sync + 'static {
    move || {
        let s = Arc::new(ModelSlots::new(0));
        let s2 = Arc::clone(&s);
        let publisher = spawn(move || {
            s2.grow(1);
            assert_eq!(s2.publish_in_use(C1, order), Some(128));
        });
        let s3 = Arc::clone(&s);
        let releaser = spawn(move || {
            s3.release_via_rindex(C1);
        });
        publisher.join();
        releaser.join();
    }
}

#[test]
fn relaxed_reverse_index_publish_into_a_grown_chunk_is_caught() {
    // With the reverse-index store weakened to `Relaxed`, a releaser may
    // read slot 128 out of the cell yet not see the chunk that holds it:
    // the chain walk falls off the end.
    let report = Checker::new()
        .preemption_bound(2)
        .try_check(growth_race(PublishOrder::RelaxedRindex));
    let v = report
        .violation
        .expect("weakened reverse-index publish must strand some releaser");
    assert!(
        v.message.contains("beyond the key's chunk chain"),
        "violation names the missing chunk: {}",
        v.message
    );
    assert!(!v.schedule.is_empty(), "schedule is replayable");
    // Control arm: identical shape, real ordering — exhausted clean.
    let report = Checker::new()
        .preemption_bound(2)
        .try_check(growth_race(PublishOrder::Release));
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(report.complete, "tree exhausted within budget");
}

/// The wake shape: a step's snapshot finds the key idle and the controller
/// parks it, while a first warm acquire races it; a snapshot after the join
/// must still count the acquire. `slots` decides where acquires wake.
fn wake_race(slots: fn(usize) -> ModelSlots) -> impl Fn() + Send + Sync + 'static {
    move || {
        let s = Arc::new(slots(1));
        s.publish_avail(C1, PublishOrder::Release)
            .expect("free slot");
        let s2 = Arc::clone(&s);
        let acquirer = spawn(move || {
            s2.claim_warm().expect("the key's runtime is available");
        });
        let first = s.snapshot(false);
        let parked = first == Some((0, 0));
        let second = s.snapshot(parked);
        acquirer.join();
        let parked = second.map_or(parked, |v| v == (0, 0));
        let third = s.snapshot(parked);
        assert!(
            [first, second, third]
                .into_iter()
                .flatten()
                .any(|(d, _)| d >= 1),
            "acquire lost behind a parked key"
        );
    }
}

#[test]
fn dropped_wake_mutation_is_caught() {
    // With the acquire's wake dropped, the schedule that parks the key
    // before the acquire leaves it parked for good: no snapshot counts it.
    // The checker models an RMW as reading the newest store, so a wake
    // weakened to `Relaxed` would be invisible to it; dropping the store is
    // the mutation it can and must see.
    let report = Checker::new()
        .preemption_bound(2)
        .try_check(wake_race(ModelSlots::dropping_wakes));
    let v = report
        .violation
        .expect("a dropped wake must lose some acquire");
    assert!(v.message.contains("acquire lost"), "{}", v.message);
    assert!(!v.schedule.is_empty(), "schedule is replayable");
    // Control arm: identical shape, real wake — exhausted clean.
    let report = Checker::new()
        .preemption_bound(2)
        .try_check(wake_race(ModelSlots::new));
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(report.complete, "tree exhausted within budget");
}
