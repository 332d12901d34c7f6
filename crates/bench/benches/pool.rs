//! Micro-benchmarks of HotC's control-plane hot path: the real CPU cost of
//! the pool bookkeeping that sits on every request (the paper's "negligible
//! overhead" claim, §V-E).

use containersim::engine::ExecWork;
use containersim::{ContainerConfig, ContainerEngine, HardwareProfile, ImageId};
use hotc::{KeyPolicy, RuntimePool};
use hotc_bench::Harness;
use simclock::{SimDuration, SimTime};
use std::hint::black_box;

fn configs(n: usize) -> Vec<ContainerConfig> {
    let images = [
        "python:3.8-alpine",
        "golang:1.13",
        "node:12-alpine",
        "openjdk:8-jre",
    ];
    (0..n)
        .map(|i| {
            let mut c = ContainerConfig::bridge(ImageId::parse(images[i % images.len()]));
            c.exec.env.insert("SHARD".into(), i.to_string());
            c
        })
        .collect()
}

fn bench_key_intern(h: &mut Harness) {
    // A re-intern of a known configuration hashes the key-relevant fields
    // and returns the u32 id — nothing is allocated.
    let config = &configs(1)[0];
    let mut pool = RuntimePool::new(KeyPolicy::Exact);
    let id = pool.intern_config(config);
    h.bench("key/intern_hit", || {
        assert_eq!(id, pool.intern_config(black_box(config)));
    });
}

fn bench_acquire_release_reuse(h: &mut Harness, name: &str, held: usize) {
    // Steady-state: the container exists and is available; measure the pure
    // bookkeeping of Algorithm 1 + Algorithm 2 (reuse path). `held` further
    // containers of the key stay in use throughout, so past 128 the one free
    // runtime sits in a grown chunk of the key's slot array.
    let mut engine = ContainerEngine::with_local_images(HardwareProfile::server());
    let mut pool = RuntimePool::new(KeyPolicy::Exact);
    let config = &configs(1)[0];
    for _ in 0..held {
        let acq = pool.acquire(&mut engine, config, SimTime::ZERO);
        assert!(acq.unwrap().cold);
    }
    pool.prewarm(&mut engine, config, SimTime::ZERO).unwrap();
    let work = ExecWork::light(SimDuration::from_millis(1));

    let mut now = SimTime::ZERO;
    h.bench(name, || {
        now += SimDuration::from_millis(10);
        let acq = pool.acquire(&mut engine, config, now).unwrap();
        assert!(!acq.cold);
        let out = engine.begin_exec(acq.container, work, now).unwrap();
        engine.end_exec(acq.container, now + out.latency).unwrap();
        pool.release(&mut engine, acq.container, now).unwrap();
    });
}

fn bench_acquire_many_types(h: &mut Harness) {
    // 100 distinct runtime types warm in the pool: lookup cost at scale.
    let mut engine = ContainerEngine::with_local_images(HardwareProfile::server());
    let mut pool = RuntimePool::new(KeyPolicy::Exact);
    let configs = configs(100);
    for config in &configs {
        pool.prewarm(&mut engine, config, SimTime::ZERO).unwrap();
    }
    let work = ExecWork::light(SimDuration::from_millis(1));
    let mut i = 0usize;
    let mut now = SimTime::ZERO;
    h.bench("reuse_among_100_types", || {
        i = (i + 7) % configs.len();
        now += SimDuration::from_millis(10);
        let acq = pool.acquire(&mut engine, &configs[i], now).unwrap();
        let out = engine.begin_exec(acq.container, work, now).unwrap();
        engine.end_exec(acq.container, now + out.latency).unwrap();
        pool.release(&mut engine, acq.container, now).unwrap();
    });
}

fn bench_cold_create_and_remove(h: &mut Harness) {
    // The cold path's bookkeeping (engine create + pool insert + teardown).
    let config = configs(1).remove(0);
    h.bench_with_setup(
        "cold_create_then_evict",
        || {
            let engine = ContainerEngine::with_local_images(HardwareProfile::server());
            (engine, RuntimePool::new(KeyPolicy::Exact))
        },
        |(mut engine, mut pool)| {
            for i in 0..8u64 {
                pool.prewarm(&mut engine, &config, SimTime::from_secs(i))
                    .unwrap();
            }
            while pool
                .evict_oldest(&mut engine, SimTime::from_secs(100))
                .unwrap()
                .is_some()
            {}
            black_box(pool.total_live())
        },
    );
}

fn bench_evict_at_cap(h: &mut Harness) {
    // The paper's guardrail at its own size: 500 live containers over 500
    // runtime types, every one available. Each iteration admits one
    // container and evicts the oldest, so the pool stays at the cap — the
    // per-cold-start cost of limit enforcement.
    let mut engine = ContainerEngine::with_local_images(HardwareProfile::server());
    let mut pool = RuntimePool::new(KeyPolicy::Exact);
    let configs = configs(500);
    let mut now = SimTime::ZERO;
    for config in &configs {
        now += SimDuration::from_millis(10);
        pool.prewarm(&mut engine, config, now).unwrap();
    }
    let mut i = 0usize;
    h.bench("evict_at_cap_500", || {
        i = (i + 7) % configs.len();
        now += SimDuration::from_millis(10);
        pool.prewarm(&mut engine, &configs[i], now).unwrap();
        let evicted = pool.evict_oldest(&mut engine, now).unwrap();
        assert!(evicted.is_some());
    });
    assert_eq!(pool.total_live(), 500);
}

fn main() {
    let mut h = Harness::new("pool");
    bench_key_intern(&mut h);
    bench_acquire_release_reuse(&mut h, "acquire_exec_release_reuse", 0);
    bench_acquire_release_reuse(&mut h, "reuse_with_200_held", 200);
    bench_acquire_many_types(&mut h);
    bench_cold_create_and_remove(&mut h);
    bench_evict_at_cap(&mut h);
    h.finish();
}
