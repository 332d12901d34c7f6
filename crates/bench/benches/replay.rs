//! Streaming trace replay: overhead vs the materialized driver, and the
//! 1e6-request / 10k-key scale point.
//!
//! Two claims are gated (`ci/gates.json`, suite `replay`):
//!
//! 1. Pulling arrivals one at a time through [`hotc_bench::run_trace`] costs
//!    about the same as replaying a pre-built `Vec<Arrival>` through the
//!    closure-scheduled [`hotc_bench::reference::run_workload`] — the ratio
//!    gate pins streaming within 1.5x of materialized on an identical
//!    20k-request trace. (The baseline is the reference driver on purpose:
//!    `hotc_bench::run_workload` is the streaming loop itself.)
//! 2. A 1e6-request / 10k-key synthesized day replays end to end at a gated
//!    minimum rate, and the process peak RSS stays under a gated ceiling —
//!    the replay path's memory is O(keys + in-flight), not O(requests). The
//!    same day over 100k keys (= 100k registered functions) is the
//!    population-scale point: what a function costs the simulator when
//!    there are as many of them as in the Azure-style traces.
//!
//! 3. An idle tick — maintenance with nothing to do plus the `pool/live`
//!    sample — costs the replay loop a gated number of nanoseconds
//!    (`idle_tick_ns`): one function, two arrivals 10⁵ s apart, a 1 s tick.
//!
//! Each `*_peak_rss_kb` record is `VmHWM` read right after its point, with
//! the kernel's high-water mark reset right before it, so it is that point's
//! own peak (plus whatever freed memory the allocator still holds from the
//! points before it) rather than the process-lifetime maximum.
//!
//! These runs are seconds-to-a-minute long, so each is timed exactly once
//! with [`Harness::bench_once`] instead of the calibrated sampling loop.

use containersim::{ContainerEngine, HardwareProfile, NetworkMode};
use faas::gateway::Gateway;
use faas::{AppProfile, FunctionSpec};
use hotc::{HotC, HotCConfig, PoolLimits};
use hotc_bench::reference::run_workload;
use hotc_bench::{run_partitioned, run_trace, run_trace_partition, Harness};
use simclock::{SimDuration, SimTime};
use std::sync::Arc;
use workloads::trace::{PartitionTrace, Trace, VecTrace};
use workloads::{drain, synth_trace, Arrival, SynthShape, SynthSpec};

const TICK: SimDuration = SimDuration::from_secs(60);

/// A gateway registering the subset of `keys` functions that `assign` maps
/// to worker `w` (`None` = all of them), each a distinct runtime key (same
/// app, distinct env) — the shape `replicas = N` scenarios produce. The
/// returned route table always holds every name; `provider` lets the
/// partitioned workers scale HotC's pool limits to their share.
fn gateway_subset(
    keys: usize,
    subset: Option<(&[usize], usize)>,
    provider: HotC,
) -> (Gateway<HotC>, Vec<String>) {
    let engine = ContainerEngine::with_local_images(HardwareProfile::server());
    let mut gw = Gateway::new(engine, provider);
    let mut names = Vec::with_capacity(keys);
    for i in 0..keys {
        let name = format!("f#{i}");
        if subset.is_none_or(|(assign, w)| assign[i] == w) {
            let app = AppProfile::random_number();
            let mut config = app.config_with_network(NetworkMode::Bridge);
            config
                .exec
                .env
                .insert("HOTC_REPLICA".to_string(), i.to_string());
            gw.register(
                FunctionSpec::from_app(app)
                    .named(name.clone())
                    .with_config(config),
            );
        }
        names.push(name);
    }
    (gw, names)
}

fn gateway(keys: usize) -> (Gateway<HotC>, Vec<String>) {
    gateway_subset(keys, None, HotC::with_defaults())
}

fn spec(requests: u64, keys: usize) -> SynthSpec {
    SynthSpec {
        requests,
        keys,
        duration: SimDuration::from_mins(1440),
        zipf_exponent: 1.1,
        seed: 0xBE9C_0001,
        shape: SynthShape::Diurnal {
            peak_to_trough: 3.0,
        },
        key_offset: 0,
    }
}

/// Streams the synthesized trace through the pull-based driver; returns
/// (requests replayed, in-flight high-water mark).
fn replay_streaming(requests: u64, keys: usize) -> (u64, usize) {
    let (gw, names) = gateway(keys);
    let mut trace = synth_trace(&spec(requests, keys));
    let out = run_trace(
        gw,
        &mut trace,
        move |cid| names[cid % names.len()].clone(),
        TICK,
        |_, _| {},
    );
    assert!(out.trace_error.is_none(), "synth trace cannot error");
    (out.requests, out.max_inflight)
}

/// Materializes the same trace into a `Vec<Arrival>` first, then replays it
/// through the reference driver — the pre-streaming baseline.
fn replay_materialized(requests: u64, keys: usize) -> u64 {
    let (gw, names) = gateway(keys);
    let mut trace = synth_trace(&spec(requests, keys));
    let workload = drain(&mut trace);
    let out = run_workload(
        gw,
        &workload,
        move |cid| names[cid % names.len()].clone(),
        TICK,
    );
    out.traces.len() as u64
}

/// Partitioned replay of the same synthesized day across `workers` threads.
/// Every slot here is its own runtime key, so a modulo assignment is already
/// reuse-closed — exactly the partition the scenario runner would compute.
/// Each worker synthesizes the full stream, filters it to its keys, serves
/// them on a private gateway (pool limits ceil-divided so the aggregate cap
/// matches the sequential 500), and ticks at the shared global schedule.
fn replay_parallel(requests: u64, keys: usize, workers: usize) -> u64 {
    let assign: Arc<Vec<usize>> = Arc::new((0..keys).map(|i| i % workers).collect());
    let limits = PoolLimits::default();
    let per_worker = PoolLimits::new(
        limits.max_live.div_ceil(workers).max(1),
        limits.mem_threshold,
    );
    run_partitioned(vec![(); workers], |w, ()| {
        let provider = HotC::new(HotCConfig {
            limits: per_worker,
            ..Default::default()
        });
        let (gw, names) = gateway_subset(keys, Some((&assign, w)), provider);
        let mut part =
            PartitionTrace::new(synth_trace(&spec(requests, keys)), Arc::clone(&assign), w);
        let out = run_trace_partition(
            gw,
            &mut part,
            move |cid| names[cid % names.len()].clone(),
            TICK,
            |_, _| {},
        );
        assert!(out.trace_error.is_none(), "synth trace cannot error");
        out.requests
    })
    .into_iter()
    .sum()
}

/// Ticks in the idle run: a 1 s tick from t = 0 through the last arrival
/// (at 10⁵ s) plus two intervals.
const IDLE_TICKS: u64 = 100_003;

/// The idle-tick run's inputs: a one-function HotC gateway and two arrivals
/// 10⁵ s apart.
fn idle_setup() -> (Gateway<HotC>, VecTrace) {
    let (gw, _) = gateway(1);
    let arrivals = [0, 100_000].map(|s| Arrival {
        at: SimTime::from_secs(s),
        config_id: 0,
    });
    (gw, VecTrace::new(arrivals.to_vec()))
}

/// Replays the idle run on a 1 s tick; returns the ticks it ran.
fn idle_ticks((gw, mut trace): (Gateway<HotC>, VecTrace)) -> u64 {
    let out = run_trace(
        gw,
        &mut trace,
        |_| "f#0".to_string(),
        SimDuration::from_secs(1),
        |_, _| {},
    );
    assert_eq!(out.requests, 2);
    out.live_samples.len() as u64
}

/// Frontend-only drain: pulls every arrival out of the synthesizer with no
/// gateway attached — the raw emission rate of the trace source, and the
/// 1e7/1e8 scale points that are impractical to serve end to end in CI.
fn drain_count(requests: u64, keys: usize) -> u64 {
    let mut trace = synth_trace(&spec(requests, keys));
    let mut n = 0u64;
    while let Some(a) = trace.next_arrival() {
        std::hint::black_box(a.at);
        n += 1;
    }
    n
}

/// Process peak resident set (kB) from `/proc/self/status`; `None` where
/// procfs is unavailable (the RSS gate carries `skip_if_missing`).
fn vm_hwm_kb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Resets `VmHWM` to the current resident set (`5` → `clear_refs`, Linux
/// ≥ 4.0). Where the write is refused the mark simply keeps accumulating,
/// and a reading is the peak of every point so far — still an upper bound.
fn reset_vm_hwm() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn main() {
    let mut h = Harness::new("replay");

    // Untimed settling runs: both drivers pay allocator growth and image
    // setup once here, so the timed pair below measures the drivers, not
    // which one ran first in a cold process.
    std::hint::black_box(replay_streaming(5_000, 1_000));
    std::hint::black_box(replay_materialized(5_000, 1_000));

    // Overhead pair: byte-identical 20k-request / 1k-key trace through both
    // drivers, back to back in the same process.
    let (n, _) = h.bench_once("stream_20k_1k_keys", || replay_streaming(20_000, 1_000));
    assert_eq!(n, 20_000);
    let n = h.bench_once("materialized_20k_1k_keys", || {
        replay_materialized(20_000, 1_000)
    });
    assert_eq!(n, 20_000);

    // Idle ticks: the per-tick cost of the replay loop itself.
    assert_eq!(idle_ticks(idle_setup()), IDLE_TICKS);
    h.bench_with_setup("idle_ticks_100k", idle_setup, idle_ticks);
    if let Some(mean_ns) = h.mean_of("idle_ticks_100k") {
        h.record_derived("idle_tick_ns", mean_ns / IDLE_TICKS as f64);
    }

    // Scale point: a synthesized day of 1e6 requests over 10k runtime keys,
    // streamed — never materialized.
    reset_vm_hwm();
    let (n, max_inflight) =
        h.bench_once("stream_1m_10k_keys", || replay_streaming(1_000_000, 10_000));
    assert_eq!(n, 1_000_000);
    if let Some(mean_ns) = h.mean_of("stream_1m_10k_keys") {
        h.record_derived("replay_1m_req_per_sec", 1e6 / (mean_ns * 1e-9));
    }
    h.record_derived("replay_1m_max_inflight", max_inflight as f64);
    if let Some(kb) = vm_hwm_kb() {
        h.record_derived("replay_1m_peak_rss_kb", kb);
    }

    // The same 1e6 / 10k-key day, key-partitioned across 8 replay workers.
    // The `replay_parallel` gate group pins the speedup ratio against the
    // sequential scale point above (guarded by `min_parallelism`, so 1-core
    // runners skip it visibly instead of failing it).
    reset_vm_hwm();
    let n = h.bench_once("stream_1m_10k_keys_par8", || {
        replay_parallel(1_000_000, 10_000, 8)
    });
    assert_eq!(n, 1_000_000);
    if let Some(mean_ns) = h.mean_of("stream_1m_10k_keys_par8") {
        h.record_derived("replay_1m_par8_req_per_sec", 1e6 / (mean_ns * 1e-9));
    }
    if let Some(kb) = vm_hwm_kb() {
        h.record_derived("replay_1m_par8_peak_rss_kb", kb);
    }

    // Population scale point: the same day spread over 100k keys, every one
    // a registered function with its own runtime key. Memory here is per
    // key — function table, pool slots, controller history, telemetry —
    // not per request.
    reset_vm_hwm();
    let (n, _) = h.bench_once("stream_1m_100k_keys", || {
        replay_streaming(1_000_000, 100_000)
    });
    assert_eq!(n, 1_000_000);
    if let Some(kb) = vm_hwm_kb() {
        h.record_derived("replay_100k_keys_peak_rss_kb", kb);
    }

    // Frontend-only emission rate at the 1e6 / 1e7 / 1e8 scale points —
    // constant-memory generation with no gateway attached.
    let n = h.bench_once("drain_1e6_10k_keys", || drain_count(1_000_000, 10_000));
    assert_eq!(n, 1_000_000);
    let n = h.bench_once("drain_1e7_10k_keys", || drain_count(10_000_000, 10_000));
    assert_eq!(n, 10_000_000);
    let n = h.bench_once("drain_1e8_100k_keys", || drain_count(100_000_000, 100_000));
    assert_eq!(n, 100_000_000);
    if let Some(mean_ns) = h.mean_of("drain_1e8_100k_keys") {
        h.record_derived("drain_1e8_req_per_sec", 1e8 / (mean_ns * 1e-9));
    }

    h.finish();
}
