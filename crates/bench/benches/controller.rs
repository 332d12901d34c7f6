//! Control-plane tick benchmark: the controller step with holds against the
//! never-holding `step_full`.
//!
//! The fleet is the one a long-running node has: every one of `types`
//! runtime types *keeps one warm container*, and `HOT` of them — a window
//! that rotates through the fleet — see a request each interval.
//! `step_full` snapshots, feeds and sizes every type every interval; `step`
//! visits only the `HOT` touched now (their first acquire woke them), the
//! `HOT` touched last interval (taking their holds and parking them) and
//! the few whose hold ends, and never sees the rest. 300 untimed intervals
//! come first, so every demand window is past seeding and saturated and the
//! holds are in their steady state, and one timed iteration is 50
//! intervals: ten samples of it are tens of milliseconds even in `--smoke`,
//! where a 10 ms window of single intervals let one scheduler hiccup double
//! a mean. What `step` still pays per interval is the requests themselves
//! and a pass over the pool's wake and unparked bitmap words.
//!
//! `churn_step_1000types` is the fleet a pool far over its cap has: each
//! interval `CHURN` of the types — a window rotating through the fleet —
//! serve one cold request, limit enforcement evicts their runtimes, and the
//! step collects the slots that have been empty for the GC threshold, so
//! every step re-admits and garbage-collects `CHURN` keys. What it pays per
//! re-admission beyond the cold start is whatever the key had before its
//! collection and is given again: its configuration and its predictor.

use containersim::engine::ExecWork;
use containersim::{ContainerConfig, ContainerEngine, HardwareProfile, ImageId};
use hotc::{AdaptiveController, KeyPolicy, PoolLimits, RuntimePool, ScalingPolicy};
use hotc_bench::Harness;
use simclock::{SimDuration, SimTime};

/// Keys touched per interval.
const HOT: usize = 10;
/// Keys re-admitted, and keys collected, per churn interval.
const CHURN: usize = 100;

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
            c.exec.env.insert("T".into(), i.to_string());
            c
        })
        .collect()
}

/// One control interval: a round trip on each of `hot`, then one step.
fn interval<'a>(
    ctl: &mut AdaptiveController,
    pool: &mut RuntimePool,
    engine: &mut ContainerEngine,
    hot: impl Iterator<Item = &'a ContainerConfig>,
    tick: u64,
    full: bool,
) -> usize {
    let work = ExecWork::light(SimDuration::from_millis(1));
    let now = SimTime::from_secs(30 * tick);
    for c in hot {
        let acq = pool.acquire(engine, c, now).unwrap();
        let end = now + engine.begin_exec(acq.container, work, now).unwrap().latency;
        engine.end_exec(acq.container, end).unwrap();
        pool.release(engine, acq.container, end).unwrap();
    }
    let report = if full {
        ctl.step_full(pool, engine, now).unwrap()
    } else {
        ctl.step(pool, engine, now).unwrap()
    };
    report.sized
}

/// Intervals run before the `holding_*` timing starts.
const HOLDING_WARMUP: u64 = 300;
/// Intervals per timed `holding_*` iteration.
const HOLDING_BATCH: usize = 50;

fn bench_holding(h: &mut Harness, types: usize) {
    for full in [true, false] {
        let mut engine = ContainerEngine::with_local_images(HardwareProfile::server());
        let mut pool = RuntimePool::new(KeyPolicy::Exact);
        let all = configs(types);
        let mut ctl = AdaptiveController::new(ScalingPolicy::default());
        // Interval 0: every type serves its first (cold) request, and keeps
        // the container; from then on `HOT` of them are touched per interval.
        interval(&mut ctl, &mut pool, &mut engine, all.iter(), 0, full);
        let mut tick = 0u64;
        let mut next = |pool: &mut RuntimePool| {
            tick += 1;
            let hot = (0..HOT).map(|j| &all[(tick as usize * HOT + j) % types]);
            interval(&mut ctl, pool, &mut engine, hot, tick, full)
        };
        for _ in 0..HOLDING_WARMUP {
            next(&mut pool);
        }
        assert_eq!(pool.sizes(), (types, 0), "every type keeps its runtime");
        let name = format!(
            "holding_{}_{}types",
            if full { "step_full" } else { "step" },
            types
        );
        h.bench(&name, || {
            (0..HOLDING_BATCH).map(|_| next(&mut pool)).sum::<usize>()
        });
    }
}

fn bench_churn(h: &mut Harness, types: usize) {
    let mut engine = ContainerEngine::with_local_images(HardwareProfile::server());
    let mut pool = RuntimePool::new(KeyPolicy::Exact);
    let all = configs(types);
    let mut ctl = AdaptiveController::new(ScalingPolicy::default());
    // A cap of one: every runtime but the newest is evicted right after its
    // interval, so each type's slot is empty from its next step on.
    let limits = PoolLimits::new(1, 1.5);
    let mut tick = 0u64;
    let mut next = |pool: &mut RuntimePool| {
        tick += 1;
        let readmitted = (0..CHURN).map(|j| &all[(tick as usize * CHURN + j) % types]);
        let sized = interval(&mut ctl, pool, &mut engine, readmitted, tick, false);
        limits
            .enforce(pool, &mut engine, SimTime::from_secs(30 * tick))
            .unwrap();
        sized
    };
    // Every type is admitted, collected and re-admitted before timing.
    for _ in 0..3 * types / CHURN {
        next(&mut pool);
    }
    let tracked = pool.keys().len();
    assert!(
        tracked < 5 * CHURN,
        "slots are collected: {tracked} tracked"
    );
    h.bench(&format!("churn_step_{types}types"), || {
        (0..HOLDING_BATCH).map(|_| next(&mut pool)).sum::<usize>()
    });
}

fn main() {
    let mut h = Harness::new("controller_tick");
    bench_holding(&mut h, 1000);
    bench_churn(&mut h, 1000);
    h.finish();
}
