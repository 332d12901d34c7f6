//! The request path's allocation budget, counted without the benchmark: a
//! warm `Gateway<HotC>` request allocates nothing, a cold-start request or a
//! warm clustered one allocates only what amortised table growth costs, and
//! a key that churns out of the pool and back in pays nothing it paid
//! before; serialising the metrics snapshot allocates only its output. An
//! interned key, a key's first slot chunk and a key's predictor hold only
//! what they need.
//!
//! This target installs its own counting global allocator — the same scoped
//! `unsafe` as the benchmark's counted pass, for the same reason. It counts
//! allocations and held bytes per thread, so the test harness's other
//! threads never show up in a measurement.
#![allow(unsafe_code)]

use containersim::{ContainerConfig, ContainerEngine, HardwareProfile, LanguageRuntime};
use faas::{AppProfile, ColdStartAlways, FunctionSpec, Gateway, RuntimeProvider};
use hotc::{HotC, HotCConfig, KeyInterner, KeyPolicy, PoolLimits, RuntimePool};
use hotc_cluster::{Cluster, SchedulePolicy};
use metrics_lite::{MetricsRegistry, Stage, StageSample};
use predictor::{EsMarkov, Predictor};
use simclock::{SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated minus the bytes it freed.
    static HELD: Cell<isize> = const { Cell::new(0) };
}

/// Forwards to [`System`], counting the calling thread's allocations and
/// the bytes it holds. `realloc` counts as one allocation (it may move).
struct CountingAlloc;

fn count() {
    // A thread being torn down may allocate after its locals are gone;
    // nothing is measuring it then.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn hold(bytes: isize) {
    let _ = HELD.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only added work is a thread-local
// counter increment that neither allocates nor touches allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        hold(layout.size() as isize);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        hold(layout.size() as isize);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, for
        // this same `layout`.
        hold(-(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        hold(new_size as isize - layout.size() as isize);
        // SAFETY: `ptr`/`layout` came from `System` through this allocator
        // and the caller guarantees `new_size` is valid for the alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many allocations this thread made inside it.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Runs `f` and returns how many more heap bytes this thread holds after
/// it than before (what `f` returns included).
fn held<R>(f: impl FnOnce() -> R) -> (R, isize) {
    let before = HELD.with(Cell::get);
    let out = f();
    (out, HELD.with(Cell::get) - before)
}

const REQUESTS: u64 = 1_000;
const GAP: SimDuration = SimDuration::from_millis(100);

/// Four functions under four runtime keys.
fn specs() -> Vec<FunctionSpec> {
    [
        LanguageRuntime::Python,
        LanguageRuntime::Go,
        LanguageRuntime::NodeJs,
        LanguageRuntime::Java,
    ]
    .into_iter()
    .enumerate()
    .map(|(i, lang)| FunctionSpec::from_app(AppProfile::qr_code(lang)).named(format!("fn-{i}")))
    .collect()
}

const NAMES: [&str; 4] = ["fn-0", "fn-1", "fn-2", "fn-3"];

fn gateway<P: RuntimeProvider>(provider: P) -> Gateway<P> {
    let engine = ContainerEngine::with_local_images(HardwareProfile::server());
    let mut gw = Gateway::new(engine, provider);
    for spec in specs() {
        gw.register(spec);
    }
    gw
}

/// Serves one request of each function in turn, `rounds` times, each
/// through `begin` + `finish`; returns the next free instant.
fn serve<P: RuntimeProvider>(gw: &mut Gateway<P>, rounds: u64, mut now: SimTime) -> SimTime {
    for _ in 0..rounds {
        for name in NAMES {
            let inflight = gw.begin(name, now).expect("begin");
            let trace = gw.finish(inflight).expect("finish");
            now = trace.t6_gateway_out + GAP;
        }
    }
    now
}

#[test]
fn a_warm_gateway_request_allocates_nothing() {
    let mut gw = gateway(HotC::with_defaults());
    let now = serve(&mut gw, 1, SimTime::ZERO);
    let (_, allocs) = allocations(|| serve(&mut gw, REQUESTS / 4, now));
    assert_eq!(gw.stats().cold_starts, 4, "only the warm-up was cold");
    assert_eq!(
        allocs, 0,
        "{REQUESTS} warm requests allocated {allocs} times"
    );
}

#[test]
fn a_cold_start_request_allocates_only_amortised_growth() {
    let mut gw = gateway(ColdStartAlways::new());
    let now = serve(&mut gw, 1, SimTime::ZERO);
    let (_, allocs) = allocations(|| serve(&mut gw, REQUESTS / 4, now));
    assert_eq!(gw.stats().cold_starts, 4 + REQUESTS);
    let per_request = allocs as f64 / REQUESTS as f64;
    assert!(
        per_request <= 0.01,
        "{per_request} allocations per cold request"
    );
}

#[test]
fn a_warm_cluster_request_allocates_only_amortised_growth() {
    let gateways = (0..4)
        .map(|i| {
            let engine = ContainerEngine::with_local_images(HardwareProfile::server());
            (
                format!("node-{i}"),
                Gateway::new(engine, HotC::with_defaults()),
            )
        })
        .collect();
    let mut cluster = Cluster::new(SchedulePolicy::ReuseAffinity, gateways);
    for spec in specs() {
        cluster.register_everywhere(spec);
    }
    let serve = |cluster: &mut Cluster, rounds: u64, mut now: SimTime| {
        for _ in 0..rounds {
            for name in NAMES {
                let ticket = cluster.begin(name, now).expect("begin");
                let trace = cluster.finish(ticket).expect("finish");
                now = trace.t6_gateway_out + GAP;
            }
        }
        now
    };
    let now = serve(&mut cluster, 1, SimTime::ZERO);
    let (_, allocs) = allocations(|| serve(&mut cluster, REQUESTS / 4, now));
    assert_eq!(cluster.stats().cold_starts, 4, "only the warm-up was cold");
    let per_request = allocs as f64 / REQUESTS as f64;
    assert!(
        per_request <= 0.01,
        "{per_request} allocations per warm clustered request"
    );
}

/// The churn test's key groups, and the keys per group — also the pool
/// cap, so each group's cold starts evict the group before it.
const CHURN_GROUPS: usize = 6;
const CHURN_GROUP: usize = 8;
/// The control interval.
const INTERVAL: SimDuration = SimDuration::from_secs(30);

/// A key that churns pays nothing twice. `CHURN_GROUPS` groups of
/// functions, one runtime key each, take turns: each control interval one
/// group serves a request per function on a pool capped at one group, so
/// limit enforcement evicts the group before it, whose empty slots the
/// control step collects three intervals later — the step in which another
/// group comes back. From the second round on every request re-admits a
/// collected key, and a re-admission (its cold start and its share of the
/// control steps) allocates less than once on average: it shares the key's
/// interned configuration and gets a collected key's predictor, reset.
#[test]
fn a_churning_key_is_readmitted_without_allocating() {
    let mut gw = Gateway::new(
        ContainerEngine::with_local_images(HardwareProfile::server()),
        HotC::new(HotCConfig {
            limits: PoolLimits::new(CHURN_GROUP, 0.8),
            ..HotCConfig::default()
        }),
    );
    let base = AppProfile::qr_code(LanguageRuntime::Python);
    let functions: Vec<FunctionSpec> = (0..CHURN_GROUPS * CHURN_GROUP)
        .map(|i| {
            let mut config = base.default_config();
            config.exec.env.insert("KEY".into(), i.to_string());
            FunctionSpec::from_app(base.clone())
                .named(format!("churn-{i}"))
                .with_config(config)
        })
        .collect();
    for spec in &functions {
        gw.register(spec.clone());
    }
    let groups: Vec<&[FunctionSpec]> = functions.chunks(CHURN_GROUP).collect();
    for round in 0..5 {
        let (mut allocs, mut readmitted) = (0, 0);
        for (g, group) in groups.iter().enumerate() {
            let pool = gw.provider().pool();
            readmitted += group
                .iter()
                .filter(|spec| {
                    pool.id_for(&spec.config)
                        .is_none_or(|id| !pool.keys().contains(&id))
                })
                .count();
            let start = SimTime::ZERO + INTERVAL * (round * CHURN_GROUPS + g) as u64;
            let (_, n) = allocations(|| {
                let mut now = start;
                for spec in group.iter() {
                    let inflight = gw.begin(&spec.name, now).expect("begin");
                    now = gw.finish(inflight).expect("finish").t6_gateway_out + GAP;
                }
                // Steps run exactly one interval apart.
                gw.tick(start + INTERVAL / 2).expect("tick");
            });
            allocs += n;
        }
        if round > 0 {
            assert_eq!(readmitted, functions.len(), "round {round}");
            assert!(
                (allocs as usize) < readmitted,
                "round {round}: {allocs} allocations for {readmitted} re-admissions"
            );
        }
    }
}

/// Serialising a snapshot allocates only its output. A report of 2 000
/// recorded `fn/` scopes, as many as `evict_churn`'s, is measured and then
/// written into one `String` of exactly its length: one allocation, where a
/// growing `String` took ≈20 and a `JsonValue` tree 269 168.
#[test]
fn serialising_a_snapshot_allocates_no_tree() {
    let reg = MetricsRegistry::new();
    reg.counter("gateway/requests").add(12_000);
    for i in 0..2_000u64 {
        let set = reg.fn_stage_set(&format!("fn-{i}"));
        let mut cold = StageSample::new();
        for (k, &stage) in Stage::ALL.iter().enumerate() {
            cold.set(stage, SimDuration::from_micros(100 * k as u64 + i));
        }
        set.record(&cold);
        for w in 0..5 {
            let mut warm = StageSample::new();
            warm.set(Stage::Exec, SimDuration::from_micros(5_000 + 7 * i + w));
            set.record(&warm);
        }
    }
    for t in 0..1_000 {
        reg.sample_series("pool/live", SimTime::from_secs(t), (t % 37) as f64);
    }
    let snapshot = reg.snapshot();
    let (json, allocs) = allocations(|| snapshot.to_json().to_pretty_string());
    assert_eq!(json.matches("\"fn/").count(), 2_000);
    assert_eq!(allocs, 1, "{allocs} allocations for {} bytes", json.len());
    assert_eq!(json.capacity(), json.len());
}

/// A key costs what it holds: 10 000 one-env-var `random-number`
/// configurations interned hold ≤ 400 B of heap each, the interner's copy
/// of the configuration and its share of the two tables. An env as a
/// `BTreeMap` held a ≈520 B tree node per key (851 B per key).
#[test]
fn an_interned_key_holds_no_more_than_its_configuration() {
    const KEYS: usize = 10_000;
    let app = AppProfile::random_number();
    let configs: Vec<ContainerConfig> = (0..KEYS)
        .map(|i| {
            let mut config = app.default_config();
            config.exec.env.insert("HOTC_REPLICA".into(), i.to_string());
            config
        })
        .collect();
    let (interner, bytes) = held(|| {
        let mut interner = KeyInterner::new(KeyPolicy::Exact);
        for config in &configs {
            interner.intern(config);
        }
        interner
    });
    assert_eq!(interner.len(), KEYS);
    let per_key = bytes as usize / KEYS;
    assert!(per_key <= 400, "{per_key} B of heap per interned key");
}

/// A key's first container costs it one 16-slot chunk (136 B), not a
/// 128-slot one (1 072 B) nor a `Vec`'s first four (544 B). Measured as what a
/// key's first cold start (then release and eviction) holds beyond the
/// same cycle run again, which finds the chunk in place; a cycle of
/// another key first grows the pool's shared tables.
#[test]
fn a_first_cold_start_holds_one_small_chunk() {
    let mut engine = ContainerEngine::with_local_images(HardwareProfile::server());
    let mut pool = RuntimePool::new(KeyPolicy::Exact);
    let app = AppProfile::random_number();
    let [warmup, key] = ["0", "1"].map(|k| {
        let mut config = app.default_config();
        config.exec.env.insert("K".into(), k.into());
        config
    });
    for config in [&warmup, &key] {
        pool.intern_config(config);
    }
    let mut now = SimTime::ZERO;
    let mut cycle = |config: &ContainerConfig| {
        let acq = pool.acquire(&mut engine, config, now).expect("acquire");
        assert!(acq.cold);
        pool.release(&mut engine, acq.container, now)
            .expect("release");
        pool.evict_oldest(&mut engine, now)
            .expect("evict")
            .expect("a container");
        now += GAP;
    };
    cycle(&warmup);
    let ((), first) = held(|| cycle(&key));
    let ((), again) = held(|| cycle(&key));
    let chunk = first - again;
    assert!(
        chunk <= 160,
        "a key's first cold start held {chunk} B of slot chunks"
    );
}

/// A predictor holds its window's runs, not its samples: the paper's
/// predictor fed 1 000 intervals of sparse demand (one request every 25)
/// holds ≤ 1 024 B of heap — its 6×6 count matrix and a deque of ≈21 runs.
/// One `f64` per sample and a `BTreeMap` of the window's values held
/// 2 480 B.
#[test]
fn a_saturated_idle_predictor_holds_its_runs() {
    let (p, bytes) = held(|| {
        let mut p = EsMarkov::paper_default();
        for i in 0..1_000 {
            p.observe(if i % 25 == 0 { 1.0 } else { 0.0 });
        }
        p
    });
    assert_eq!(p.observations(), 1_000);
    assert!(bytes <= 1_024, "a saturated idle predictor held {bytes} B");
}
