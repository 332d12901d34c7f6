//! Multi-threaded property tests for the runtime pool.
//!
//! Random interleavings of acquire / release / prewarm / retire / evict from
//! several real threads, checking the two invariants the lock-free warm
//! path must preserve under contention:
//!
//! 1. **Exclusive ownership** — no container is ever handed to two requests
//!    at once. Every successful acquire inserts the id into a shared owned
//!    set and the insert must find it absent.
//! 2. **Bookkeeping agreement** — at quiescence the pool's view
//!    (`total_live`) matches the engine's (`live_count`), and nothing is
//!    left marked in-use.

use containersim::{ContainerConfig, ContainerEngine, ContainerId, HardwareProfile, ImageId};
use hotc::{KeyPolicy, RuntimePool};
use simclock::SimTime;
use std::collections::HashSet;
use std::sync::Arc;
use stdshim::sync::Mutex;
use testkit::Gen;

fn config_for_key(k: usize) -> ContainerConfig {
    let mut c = ContainerConfig::bridge(ImageId::parse("alpine:3.12"));
    c.exec.env.insert("K".into(), k.to_string());
    c
}

/// One worker's slice of the interleaving: random operations against the
/// shared pool, tracking which containers this thread currently owns.
fn worker(
    pool: &RuntimePool,
    engine: &Mutex<ContainerEngine>,
    owned: &Mutex<HashSet<ContainerId>>,
    seed: u64,
    ops: usize,
    keys: usize,
) {
    let mut g = Gen::from_seed(seed);
    let mut held: Vec<ContainerId> = Vec::new();
    for op in 0..ops {
        let now = SimTime::from_millis(op as u64);
        match g.u8_in(0..10) {
            // Acquire (weighted heaviest): must get a container nobody owns.
            0..=4 => {
                let cfg = config_for_key(g.usize_in(0..keys));
                let acq = pool.acquire(engine, &cfg, now).expect("acquire");
                let fresh = owned.lock().insert(acq.container);
                assert!(fresh, "container {:?} handed out twice", acq.container);
                held.push(acq.container);
            }
            // Release a random held container. The owned-set entry goes away
            // BEFORE pool.release: once release runs, another thread may
            // legitimately re-acquire the id.
            5..=7 => {
                if !held.is_empty() {
                    let c = held.swap_remove(g.usize_in(0..held.len()));
                    assert!(owned.lock().remove(&c), "released a container not owned");
                    pool.release(engine, c, now).expect("release");
                }
            }
            8 => {
                let cfg = config_for_key(g.usize_in(0..keys));
                pool.prewarm(engine, &cfg, now).expect("prewarm");
            }
            _ => {
                // Eviction/retire only touch *available* containers, so they
                // can never invalidate anything in a `held` list.
                pool.evict_oldest(engine, now).expect("evict");
            }
        }
    }
    // Quiesce: hand everything back.
    for c in held {
        assert!(owned.lock().remove(&c));
        pool.release(engine, c, SimTime::from_secs(3600))
            .expect("final release");
    }
}

#[test]
fn random_interleavings_preserve_ownership_and_bookkeeping() {
    // Each case is a fresh pool hammered by 4 OS threads with per-thread
    // deterministic op streams; the interleaving itself is the only
    // nondeterminism, which is exactly what the invariants must survive.
    testkit::check(12, |g| {
        let threads = 4usize;
        let ops = g.usize_in(40..120);
        let keys = g.usize_in(1..6);
        let policy = *g.pick(&[KeyPolicy::Exact, KeyPolicy::Fuzzy]);
        let seeds: Vec<u64> = (0..threads).map(|_| g.next_u64()).collect();

        let pool = RuntimePool::new(policy);
        let engine = Mutex::new(ContainerEngine::with_local_images(HardwareProfile::server()));
        let owned = Arc::new(Mutex::new(HashSet::new()));

        std::thread::scope(|s| {
            for seed in seeds {
                let pool = &pool;
                let engine = &engine;
                let owned = Arc::clone(&owned);
                s.spawn(move || worker(pool, engine, &owned, seed, ops, keys));
            }
        });

        // All threads joined and released: nobody owns anything, the pool
        // and engine agree on the live population, and every key's in-use
        // list is empty.
        assert!(owned.lock().is_empty());
        let live = engine.lock().live_count();
        assert_eq!(pool.total_live(), live);
        assert_eq!(pool.total_available(), live);
        for key in pool.keys() {
            assert_eq!(pool.num_in_use_id(key), 0);
        }
    });
}

#[test]
fn one_key_hammered_from_32_threads_survives_controller_ticks() {
    // The lock-free warm path's worst case: every thread wants the SAME
    // key, so every warm acquire and release races on one `SlotBitmap`
    // while a controller thread concurrently takes demand snapshots (which
    // swap the demand watermark and can GC the key) and evicts idle
    // containers (which claims available bits out from under the warm
    // path). Exclusive ownership must hold bit-for-bit, and at quiescence
    // the pool's live counter must reconcile with the engine.
    use std::sync::atomic::{AtomicBool, Ordering};

    let threads = 32usize;
    let ops = 200usize;
    let pool = RuntimePool::new(KeyPolicy::Exact);
    let engine = Mutex::new(ContainerEngine::with_local_images(HardwareProfile::server()));
    let owned = Mutex::new(HashSet::new());
    let stop = AtomicBool::new(false);

    std::thread::scope(|s| {
        let controller = {
            let (pool, engine, stop) = (&pool, &engine, &stop);
            s.spawn(move || {
                let mut tick = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    pool.take_full_snapshot();
                    pool.evict_oldest(engine, SimTime::from_millis(tick))
                        .expect("evict");
                    tick += 1;
                    std::thread::yield_now();
                }
            })
        };

        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let (pool, engine, owned) = (&pool, &engine, &owned);
                s.spawn(move || {
                    let mut g = Gen::from_seed(0xC0FFEE ^ (t as u64).wrapping_mul(0x9E37_79B9));
                    let mut held: Vec<ContainerId> = Vec::new();
                    for op in 0..ops {
                        let now = SimTime::from_millis(op as u64);
                        // Hold up to 3 containers so warm hits, cold starts,
                        // and releases all stay in the mix.
                        if held.len() < 3 && g.u8_in(0..3) != 0 {
                            let acq = pool
                                .acquire(engine, &config_for_key(0), now)
                                .expect("acquire");
                            let fresh = owned.lock().insert(acq.container);
                            assert!(fresh, "container {:?} handed out twice", acq.container);
                            held.push(acq.container);
                        } else if !held.is_empty() {
                            let c = held.swap_remove(g.usize_in(0..held.len()));
                            assert!(owned.lock().remove(&c), "released unowned container");
                            pool.release(engine, c, now).expect("release");
                        }
                    }
                    for c in held {
                        assert!(owned.lock().remove(&c));
                        pool.release(engine, c, SimTime::from_secs(3600))
                            .expect("final release");
                    }
                })
            })
            .collect();

        for w in workers {
            w.join().expect("worker panicked");
        }
        stop.store(true, Ordering::Relaxed);
        controller.join().expect("controller panicked");
    });

    // Quiescence: nothing owned, nothing in use, and the pool's bookkeeping
    // agrees with the engine's ground truth.
    assert!(owned.lock().is_empty());
    let live = engine.lock().live_count();
    assert_eq!(pool.total_live(), live, "pool live diverged from engine");
    assert_eq!(pool.total_available(), live, "in-use containers leaked");
    assert_eq!(
        pool.sizes(),
        (live, 0),
        "(avail, in use) diverged from engine"
    );
    for key in pool.keys() {
        assert_eq!(pool.num_in_use_id(key), 0);
    }
}

#[test]
fn evictor_racing_32_acquirers_keeps_the_age_index_exact() {
    // Limit enforcement on its own thread, in a loop, against 32 workers
    // spread over 16 keys under a cap well below what they hold and pool.
    // Each worker's clock jumps around 50 instants, so creation times tie
    // and age order differs from id order. The evictor's candidate test
    // (avail bit under the pool lock, then the claim) races every
    // lock-free warm claim and hand-back: it must never take a container a
    // worker holds, and the age index it walks must stay exact.
    //
    // Every worker first cold-starts three containers and waits at a barrier,
    // so 96 are live before the first release whatever the scheduler does,
    // and the evictor enforces once more after the workers are done: the cap
    // is certain to bite.
    use hotc::PoolLimits;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    let threads = 32usize;
    let ops = 200usize;
    let keys = 16usize;
    let pool = RuntimePool::new(KeyPolicy::Exact);
    let engine = Mutex::new(ContainerEngine::with_local_images(HardwareProfile::server()));
    let owned = Mutex::new(HashSet::new());
    let stop = AtomicBool::new(false);
    let all_holding = Barrier::new(threads);
    let cap = 24usize;
    let limits = PoolLimits::new(cap, 0.99);

    std::thread::scope(|s| {
        let evictor = {
            let (pool, engine, stop) = (&pool, &engine, &stop);
            s.spawn(move || {
                let mut evicted = 0usize;
                loop {
                    let last_pass = stop.load(Ordering::Acquire);
                    let (_, n) = limits
                        .enforce(pool, engine, SimTime::from_secs(1))
                        .expect("enforce");
                    evicted += n;
                    if last_pass {
                        return evicted;
                    }
                    std::thread::yield_now();
                }
            })
        };

        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let (pool, engine, owned, all_holding) = (&pool, &engine, &owned, &all_holding);
                s.spawn(move || {
                    let mut g = Gen::from_seed(0xA6E ^ (t as u64).wrapping_mul(0x9E37_79B9));
                    let mut held: Vec<ContainerId> = Vec::new();
                    for op in 0..ops {
                        if op == 3 {
                            all_holding.wait();
                        }
                        let now = SimTime::from_millis(g.u64_in(0..50));
                        if held.len() < 3 && (op < 3 || g.u8_in(0..3) != 0) {
                            let cfg = config_for_key(g.usize_in(0..keys));
                            let acq = pool.acquire(engine, &cfg, now).expect("acquire");
                            let fresh = owned.lock().insert(acq.container);
                            assert!(fresh, "container {:?} handed out twice", acq.container);
                            held.push(acq.container);
                        } else if !held.is_empty() {
                            let c = held.swap_remove(g.usize_in(0..held.len()));
                            assert!(
                                engine.lock().config(c).is_some(),
                                "container {c:?} was evicted while in use"
                            );
                            assert!(owned.lock().remove(&c), "released unowned container");
                            pool.release(engine, c, now).expect("release");
                        }
                    }
                    for c in held {
                        assert!(engine.lock().config(c).is_some(), "evicted while in use");
                        assert!(owned.lock().remove(&c));
                        pool.release(engine, c, SimTime::from_secs(3600))
                            .expect("final release");
                    }
                })
            })
            .collect();

        for w in workers {
            w.join().expect("worker panicked");
        }
        stop.store(true, Ordering::Release);
        let evicted = evictor.join().expect("evictor panicked");
        assert!(evicted >= threads * 3 - cap, "the cap never bit");
    });

    // Quiescence: the pool's counters agree with the engine, and the
    // snapshot's debug cross-check finds the age index holding exactly the
    // live containers, each where the slot bookkeeping says it is.
    assert!(owned.lock().is_empty());
    let live = engine.lock().live_count();
    assert!(live <= cap, "the last enforcement pass left {live} live");
    assert_eq!(pool.total_live(), live, "pool live diverged from engine");
    assert_eq!(pool.total_available(), live, "in-use containers leaked");
    pool.take_full_snapshot();
    // Draining removes what is left in exactly the oracle's order: oldest
    // `(created_at, id)` first, across keys.
    let order = engine.lock().live_ids_oldest_first();
    for victim in order {
        assert_eq!(
            pool.pool_code(&engine.lock(), victim),
            1,
            "all are available"
        );
        assert!(pool
            .evict_oldest(&engine, SimTime::from_secs(3601))
            .expect("evict")
            .is_some());
        assert!(
            engine.lock().config(victim).is_none(),
            "eviction skipped the oldest container {victim:?}"
        );
    }
    assert_eq!(pool.total_live(), 0);
    assert!(pool
        .evict_oldest(&engine, SimTime::from_secs(3602))
        .expect("evict")
        .is_none());
}

#[test]
fn one_key_driven_past_its_first_chunk_under_controller_and_evictor() {
    // One key, more live containers than one 128-slot chunk holds, while
    // everything races: 32 workers first cold-start and hold five containers
    // each (160 in use behind the barrier — the slot array must have grown),
    // then acquire and release at random, holding about four apiece, so the
    // second chunk's slots keep changing hands; the ticking controller of
    // the 32-thread test (demand snapshots, evict) and the cap-enforcing
    // evictor of the age-index test both run throughout. A container of the
    // grown chunk goes through the same claim, hand-back, retire and evict
    // sequences as one of the first.
    use hotc::PoolLimits;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    let (threads, ops, hold) = (32usize, 200usize, 5usize);
    let pool = RuntimePool::new(KeyPolicy::Exact);
    let engine = Mutex::new(ContainerEngine::with_local_images(HardwareProfile::server()));
    let owned = Mutex::new(HashSet::new());
    let stop = AtomicBool::new(false);
    let all_holding = Barrier::new(threads);
    let cfg = config_for_key(0);
    // Past one chunk: enforcement trims toward a population that spans two.
    let limits = PoolLimits::new(144, 0.99);

    std::thread::scope(|s| {
        let (pool, engine, owned, stop) = (&pool, &engine, &owned, &stop);
        let (all_holding, cfg) = (&all_holding, &cfg);
        let controller = s.spawn(move || {
            let mut tick = 0u64;
            while !stop.load(Ordering::Acquire) {
                pool.take_full_snapshot();
                pool.evict_oldest(engine, SimTime::from_millis(tick))
                    .expect("evict");
                tick += 1;
                std::thread::yield_now();
            }
        });
        let evictor = s.spawn(move || {
            while !stop.load(Ordering::Acquire) {
                limits
                    .enforce(pool, engine, SimTime::from_secs(1))
                    .expect("enforce");
                std::thread::yield_now();
            }
        });
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let mut g = Gen::from_seed(0xC4A1 ^ (t as u64).wrapping_mul(0x9E37_79B9));
                    let mut held: Vec<ContainerId> = Vec::new();
                    for op in 0..ops {
                        if op == hold {
                            if all_holding.wait().is_leader() {
                                let in_use = pool.num_in_use_id(pool.intern_config(cfg));
                                assert_eq!(in_use, threads * hold, "not every worker holds five");
                            }
                            all_holding.wait();
                        }
                        let now = SimTime::from_millis(g.u64_in(0..50));
                        if held.len() < hold && (op < hold || g.u8_in(0..3) != 0) {
                            let acq = pool.acquire(engine, cfg, now).expect("acquire");
                            assert!(op >= hold || acq.cold, "nothing was released yet");
                            let fresh = owned.lock().insert(acq.container);
                            assert!(fresh, "container {:?} handed out twice", acq.container);
                            held.push(acq.container);
                        } else if !held.is_empty() {
                            let c = held.swap_remove(g.usize_in(0..held.len()));
                            assert!(
                                engine.lock().config(c).is_some(),
                                "container {c:?} was evicted while in use"
                            );
                            assert!(owned.lock().remove(&c), "released unowned container");
                            pool.release(engine, c, now).expect("release");
                        }
                    }
                    for c in held {
                        assert!(owned.lock().remove(&c));
                        pool.release(engine, c, SimTime::from_secs(3600))
                            .expect("final release");
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("worker panicked");
        }
        stop.store(true, Ordering::Release);
        controller.join().expect("controller panicked");
        evictor.join().expect("evictor panicked");
    });

    // Quiescence: nothing owned, nothing in use, pool and engine agree, and
    // the snapshot's debug cross-check finds the age index naming every
    // live container at the slot — of whichever chunk — that holds it.
    assert!(owned.lock().is_empty());
    let live = engine.lock().live_count();
    assert_eq!(pool.total_live(), live, "pool live diverged from engine");
    assert_eq!(pool.total_available(), live, "in-use containers leaked");
    assert_eq!(pool.num_in_use_id(pool.intern_config(&cfg)), 0);
    pool.take_full_snapshot();
}

#[test]
fn interning_is_stable_under_concurrency() {
    // 8 threads race to intern the same 6 configurations (plus their own
    // re-interns, warm acquires, and releases). Every thread must observe
    // the same config → KeyId mapping, distinct configs must get distinct
    // ids, and the ids must agree with the lookup-only `id_for` — the
    // double-checked insert in the interner must never hand out two ids for
    // one key, or two slots would track the same runtime type.
    for policy in [KeyPolicy::Exact, KeyPolicy::Fuzzy] {
        let keys = 6usize;
        let pool = RuntimePool::new(policy);
        let engine = Mutex::new(ContainerEngine::with_local_images(HardwareProfile::server()));
        let maps: Mutex<Vec<Vec<hotc::KeyId>>> = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for t in 0..8 {
                let pool = &pool;
                let engine = &engine;
                let maps = &maps;
                s.spawn(move || {
                    let mut seen = Vec::with_capacity(keys);
                    for k in 0..keys {
                        // Stagger the first-touch order per thread so every
                        // key has several racing first interns.
                        let k = (k + t) % keys;
                        let cfg = config_for_key(k);
                        let id = pool.intern_config(&cfg);
                        let acq = pool
                            .acquire(engine, &cfg, SimTime::from_millis(t as u64))
                            .expect("acquire");
                        pool.release(engine, acq.container, SimTime::from_secs(1))
                            .expect("release");
                        assert_eq!(id, pool.intern_config(&cfg), "re-intern moved the id");
                        assert_eq!(Some(id), pool.id_for(&cfg));
                        seen.push((k, id));
                    }
                    seen.sort_unstable_by_key(|&(k, _)| k);
                    maps.lock()
                        .push(seen.into_iter().map(|(_, id)| id).collect());
                });
            }
        });
        // Fuzzy keys ignore env differences, so the distinct-id count is
        // the distinct-*key* count (1 under Fuzzy, `keys` under Exact).
        let distinct_keys = match policy {
            KeyPolicy::Exact => keys,
            KeyPolicy::Fuzzy => 1,
        };
        let maps = maps.into_inner();
        for map in &maps {
            assert_eq!(map, &maps[0], "threads disagree on config → id");
            let mut dedup = map.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), distinct_keys, "one id per distinct key");
        }
    }
}

#[test]
fn cold_starts_on_distinct_keys_make_distinct_containers() {
    // 8 threads, 8 disjoint keys, no warm pool: every acquire is a cold
    // start publishing under the one pool lock, and all 8 ids must be
    // distinct.
    let pool = RuntimePool::new(KeyPolicy::Exact);
    let engine = Mutex::new(ContainerEngine::with_local_images(HardwareProfile::server()));
    let ids = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for k in 0..8 {
            let pool = &pool;
            let engine = &engine;
            let ids = &ids;
            s.spawn(move || {
                let acq = pool
                    .acquire(engine, &config_for_key(k), SimTime::ZERO)
                    .expect("acquire");
                ids.lock().push(acq.container);
            });
        }
    });
    let mut ids = ids.into_inner();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), 8);
    assert_eq!(pool.total_live(), 8);
    assert_eq!(engine.lock().live_count(), 8);
}
