//! The real lock-free slot protocol under the bounded model checker.
//!
//! Compiled only in the instrumented build
//! (`RUSTFLAGS='--cfg hotc_model' cargo test -p hotc-model`): the stdshim
//! facade then routes every `SlotBitmap`/`KeySlots` atomic through the
//! scheduler, and `hotc_core::pool::model_api` exposes the protocol ops.
//!
//! Setup convention: state created and seeded on the root virtual thread
//! *before* spawning racers is visible to all of them (spawn copies the
//! parent's vector clock) — exactly the happens-before the pool lock gives
//! the real publish/retire/evict paths.
#![cfg(hotc_model)]

use containersim::ContainerId;
use hotc::pool::model_api::ModelSlots;
use hotc::pool::PublishOrder::Release;
use hotc_model::{spawn, Checker};
use std::sync::Arc;
use stdshim::SlotBitmap;

const C1: ContainerId = ContainerId(1);
const C2: ContainerId = ContainerId(2);

fn checker() -> Checker {
    // The env budget (HOTC_MODEL_BUDGET) still applies; bound 2 preemptions.
    Checker::new().preemption_bound(2)
}

#[test]
fn bitmap_claims_are_exclusive() {
    // Two lock-free claimers race one released bit: at most one may win,
    // and the bit must end claimed (claimed-xor-set is conservation).
    checker().check(|| {
        let b = Arc::new(SlotBitmap::labeled(8, "model/bitmap"));
        assert!(b.release(3));
        let b2 = Arc::clone(&b);
        let t = spawn(move || b2.claim());
        let mine = b.claim();
        let theirs = t.join();
        assert!(
            !(mine.is_some() && theirs.is_some()),
            "both claimers won the same bit"
        );
        assert!(
            mine.is_some() || theirs.is_some(),
            "released bit vanished: no claimer won"
        );
        assert_eq!(b.count(), 0, "won bit still set");
    });
}

#[test]
fn double_release_is_rejected_in_all_interleavings() {
    // Two threads race the release of the same claimed slot (the stale
    // reverse-index / duplicate-release shape): exactly one
    // try_claim_release may win in every schedule.
    checker().check(|| {
        let s = Arc::new(ModelSlots::new(2));
        s.publish_avail(C1, Release).expect("free slot");
        let (i, c) = s.claim_warm().expect("setup claim");
        assert_eq!(c, C1);
        let s2 = Arc::clone(&s);
        let t = spawn(move || s2.try_claim_release(i, C1));
        let mine = s.try_claim_release(i, C1);
        let theirs = t.join();
        assert!(
            !(mine && theirs),
            "double release: both claimed the in_use bit"
        );
        assert!(mine || theirs, "owned slot refused both releases");
        // The winner completes the hand-back; the slot must come back warm.
        s.hand_back(i);
        assert!(s.avail_contains(C1));
        assert_eq!(s.in_use_count(), 0);
    });
}

#[test]
fn warm_acquire_release_vs_retire() {
    // A lock-free acquire/hand-back races the controller's retire (which
    // holds the pool lock in production — here the only lock-holder in
    // flight). Conservation: the container is either retired or warm at
    // the end, never both, never lost, never double-owned.
    checker().check(|| {
        let s = Arc::new(ModelSlots::new(1));
        s.publish_avail(C1, Release).expect("free slot");
        let s2 = Arc::clone(&s);
        let t = spawn(move || {
            if let Some((i, c)) = s2.claim_warm() {
                assert_eq!(c, C1, "claimed entry must be fully published");
                assert!(s2.try_claim_release(i, c), "sole owner releases its slot");
                s2.hand_back(i);
                true
            } else {
                false
            }
        });
        let retired = s.retire_avail();
        let acquired = t.join();
        t_join_invariants(&s, retired, acquired);
    });
}

fn t_join_invariants(s: &ModelSlots, retired: Option<ContainerId>, acquired: bool) {
    if let Some(c) = retired {
        assert_eq!(c, C1, "retire disposed a half-published entry");
    }
    assert_eq!(s.in_use_count(), 0, "all claims released");
    match retired {
        // Retired: the slot is gone for good. The acquirer may or may not
        // have gotten its turn first, but after its hand-back the retire
        // took the slot, or the retire won outright.
        Some(_) => {
            assert!(!s.avail_contains(C1), "retired container still warm");
            assert_eq!(s.free_count(), 1, "disposed slot returns to free");
        }
        // Retire lost the race and found nothing: the acquirer must have
        // held the slot at that instant and handed it back after.
        None => {
            assert!(acquired, "nobody held the slot yet retire found nothing");
            assert!(s.avail_contains(C1), "handed-back container not warm");
        }
    }
}

#[test]
fn warm_acquire_vs_evict_is_exclusive() {
    // Eviction re-verifies the entry then claims the avail bit; a racing
    // warm acquire takes the same bit. Exactly one side may own the
    // container — never both, and (with the claimer not handing back) the
    // bit can be taken at most once, so never neither.
    checker().check(|| {
        let s = Arc::new(ModelSlots::new(1));
        let i = s.publish_avail(C1, Release).expect("free slot");
        let s2 = Arc::clone(&s);
        let t = spawn(move || s2.claim_warm().is_some());
        let evicted = s.evict_at(i, C1);
        let acquired = t.join();
        assert!(
            acquired ^ evicted,
            "avail bit owned by {} parties",
            if acquired { 2 } else { 0 }
        );
        if evicted {
            assert_eq!(s.free_count(), 1, "evicted slot disposed back to free");
            assert!(!s.avail_contains(C1));
        } else {
            assert_eq!(s.in_use_count(), 1, "acquirer holds the slot");
        }
    });
}

#[test]
fn evict_candidate_test_vs_warm_acquire_and_hand_back() {
    // Eviction's two phases against a full warm round trip on the same
    // slot: the age index names the slot, phase one reads its avail bit,
    // phase two re-verifies the entry and claims the bit — while an acquirer
    // claims the slot, owns it, and hands it back. The bit read is advisory
    // (it may go stale either way before phase two); ownership must not be:
    // the owner finds its container intact for as long as it holds it, and
    // at the end the container is either evicted or warm, never both or
    // neither. The tree is small enough to demand exhaustion, not just the
    // absence of a violation within the budget.
    let report = checker().try_check(|| {
        let s = Arc::new(ModelSlots::new(1));
        let i = s.publish_avail(C1, Release).expect("free slot");
        let s2 = Arc::clone(&s);
        let t = spawn(move || {
            let Some((j, c)) = s2.claim_warm() else {
                return false;
            };
            assert_eq!((j, c), (i, C1), "claimed entry must be fully published");
            // The release claim re-reads the entry: a disposal while this
            // thread owned the slot would have zeroed it.
            assert!(
                s2.try_claim_release(j, c),
                "container disposed under its owner"
            );
            s2.hand_back(j);
            true
        });
        let evicted = s.evict_candidate(i) && s.evict_at(i, C1);
        let acquired = t.join();
        assert_eq!(s.in_use_count(), 0, "all claims released");
        assert!(
            evicted ^ s.avail_contains(C1),
            "container is {}",
            if evicted {
                "evicted and still warm"
            } else {
                "lost"
            }
        );
        if evicted {
            assert_eq!(s.free_count(), 1, "evicted slot disposed back to free");
        } else {
            assert!(acquired, "nobody held the slot yet eviction gave up on it");
        }
    });
    if let Some(v) = &report.violation {
        panic!("{}", v.render());
    }
    assert!(
        report.complete,
        "schedule tree not exhausted within budget ({} schedules)",
        report.schedules
    );
}

#[test]
fn cold_publish_vs_racing_claims_upholds_publish_before_bit_set() {
    // The tentpole invariant: a claimer that wins an avail bit must see the
    // container id that was stored before the release bit-set — across every interleaving of a cold publish
    // with two racing claimers. claim_warm's internal
    // debug_assert_ne!(entry, 0) is armed too: a torn publish panics the
    // schedule even before our asserts run.
    checker().check(|| {
        let s = Arc::new(ModelSlots::new(2));
        s.publish_avail(C1, Release).expect("free slot");
        let s2 = Arc::clone(&s);
        let publisher = spawn(move || s2.publish_avail(C2, Release));
        let s3 = Arc::clone(&s);
        let claimer = spawn(move || s3.claim_warm());
        let mine = s.claim_warm();
        let published = publisher.join();
        let theirs = claimer.join();
        assert!(published.is_some(), "second slot was free");
        let mut seen = Vec::new();
        for (_, c) in [mine, theirs].into_iter().flatten() {
            assert!(c == C1 || c == C2, "claimed a torn entry: {c:?}");
            seen.push(c);
        }
        seen.sort_unstable_by_key(|c| c.0);
        seen.dedup();
        assert_eq!(
            seen.len(),
            [mine, theirs].into_iter().flatten().count(),
            "two claimers handed the same container"
        );
        assert!(
            !seen.is_empty(),
            "at least the pre-spawned C1 was claimable by someone"
        );
    });
}

#[test]
fn prewarm_publish_vs_claim_then_reverse_index_release() {
    // A prewarm publish races a full warm round trip. Whoever wins the
    // `avail` bit releases through the reverse index, as `RuntimePool::release`
    // does — so the container's mapping must have been stored before the bit
    // was set (the other half of publish-before-bit-set): a publish that set
    // the bit first would leave some claimer holding a container the pool
    // says it never handed out.
    checker().check(|| {
        let s = Arc::new(ModelSlots::new(1));
        let s2 = Arc::clone(&s);
        let publisher = spawn(move || s2.publish_avail(C1, Release));
        if let Some((i, c)) = s.claim_warm() {
            assert_eq!(
                s.release_via_rindex(c),
                Some((i, true)),
                "claimed container has no reverse-index mapping"
            );
            s.hand_back(i);
        }
        assert_eq!(publisher.join(), Some(0));
        assert!(s.avail_contains(C1), "published container not warm");
        assert_eq!(s.in_use_count(), 0);
    });
}

#[test]
fn protocol_suite_exhausts_within_bound() {
    // The acceptance-criteria form: the acquire/release-vs-retire race is
    // not just violation-free but *exhausted* within the preemption bound
    // (complete=true means the DFS tree ended, not the budget).
    let report = checker().try_check(|| {
        let s = Arc::new(ModelSlots::new(1));
        s.publish_avail(C1, Release).expect("free slot");
        let s2 = Arc::clone(&s);
        let t = spawn(move || {
            if let Some((i, c)) = s2.claim_warm() {
                assert!(s2.try_claim_release(i, c));
                s2.hand_back(i);
            }
        });
        let _ = s.retire_avail();
        t.join();
    });
    assert!(report.violation.is_none(), "protocol is clean");
    assert!(
        report.complete,
        "schedule tree not exhausted within budget ({} schedules)",
        report.schedules
    );
    assert!(report.schedules > 10, "race actually explored");
}

#[test]
fn chunk_growth_vs_warm_claim_and_reverse_index_release() {
    // The growth step under all three parties. Every slot of the head chunk
    // is occupied, so the lock-holder (this thread — the only one in the
    // schedule) appends a chunk and publishes into it: C1 cold-started
    // (entry, reverse-index release-store, `in_use` bit) and C2 prewarmed
    // (entry, `avail` bit). A claimer walks the chain; a releaser resolves
    // C1 through the reverse index with no other edge to the publisher.
    // Whoever learns a slot of the new chunk — from a set bit or from the
    // reverse index — must find the chunk appended and the entry published:
    // claim_warm's empty-entry assert and the chain walk's expect are armed.
    // The release's hand-back runs after the joins, as it runs after the
    // acquire returned in production (the demand counter relies on that).
    checker().check(|| {
        let s = Arc::new(ModelSlots::new(0));
        let s2 = Arc::clone(&s);
        let claimer = spawn(move || s2.claim_warm());
        let s3 = Arc::clone(&s);
        let releaser = spawn(move || s3.release_via_rindex(C1));
        assert_eq!(s.publish_in_use(C1, Release), None, "head chunk is full");
        s.grow(2);
        assert_eq!(s.publish_in_use(C1, Release), Some(128), "first grown slot");
        assert_eq!(s.publish_avail(C2, Release), Some(129));
        let claimed = claimer.join();
        // Unmapped yet, or mapped to slot 128 — where the claim may still
        // lose to the not-yet-set `in_use` bit.
        let released = releaser.join().is_some_and(|(i, won)| {
            assert_eq!(i, 128, "reverse index named another slot");
            won
        });
        if released {
            s.hand_back(128);
        }
        if let Some(got) = claimed {
            assert_eq!(got, (129, C2), "claimed a torn entry");
        }
        assert_eq!(s.avail_contains(C1), released, "C1 lost or doubly owned");
        assert_eq!(s.avail_contains(C2), claimed.is_none(), "C2 lost");
        let in_use = usize::from(!released) + usize::from(claimed.is_some());
        assert_eq!(s.in_use_count(), in_use);
        assert_eq!(s.in_use_total(), in_use);
        assert_eq!(s.free_count(), 0, "both grown slots stay occupied");
    });
}

/// A warm request on the model key: claim, release claim, hand-back.
fn warm_request(s: &ModelSlots) {
    let (i, c) = s.claim_warm().expect("the key's runtime is available");
    assert!(s.try_claim_release(i, c), "sole owner releases its slot");
    s.hand_back(i);
}

/// Whether the controller parks the key a snapshot visited: idle (no
/// demand, nothing in use) — its one runtime is its target. A key the
/// snapshot skipped stays as it was.
fn parks(visit: Option<(usize, usize)>, was_parked: bool) -> bool {
    visit.map_or(was_parked, |v| v == (0, 0))
}

#[test]
fn first_warm_acquire_vs_snapshot_drain_and_swap() {
    // A parked key's first request of an interval races the snapshot's
    // wake drain and watermark swap. Either the snapshot counts the request
    // in this interval's demand, or the key is left woken and the next
    // snapshot (after the join) counts it — a parked key never loses one.
    checker().check(|| {
        let s = Arc::new(ModelSlots::new(1));
        s.publish_avail(C1, Release).expect("free slot");
        let idle = s.snapshot(false);
        assert_eq!(idle, Some((0, 0)), "the interval that parks the key");
        let s2 = Arc::clone(&s);
        let request = spawn(move || warm_request(&s2));
        let racing = s.snapshot(true);
        if let Some((demand, _)) = racing {
            assert!(demand >= 1, "a woken key's snapshot missed its acquire");
        }
        request.join();
        let next = s.snapshot(parks(racing, true));
        assert!(
            [racing, next]
                .into_iter()
                .flatten()
                .any(|(demand, _)| demand >= 1),
            "the acquire counted in no interval and woke nothing"
        );
    });
}

#[test]
fn first_warm_acquire_vs_parking() {
    // The request races the whole step that parks the key: the step's
    // snapshot finds it idle, the controller parks it, and the next
    // snapshot skips it unless it was woken. An acquire after the first
    // swap finds the watermark at 0 and wakes the key, so some snapshot —
    // at the latest the one after the join — counts it.
    checker().check(|| {
        let s = Arc::new(ModelSlots::new(1));
        s.publish_avail(C1, Release).expect("free slot");
        let s2 = Arc::clone(&s);
        let request = spawn(move || warm_request(&s2));
        let first = s.snapshot(false);
        let second = s.snapshot(parks(first, false));
        request.join();
        let third = s.snapshot(parks(second, parks(first, false)));
        assert!(
            [first, second, third]
                .into_iter()
                .flatten()
                .any(|(demand, _)| demand >= 1),
            "the acquire counted in no interval and woke nothing"
        );
    });
}
