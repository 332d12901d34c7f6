//! Cross-crate end-to-end tests: full gateway runs across all providers,
//! with resource-accounting invariants checked after the dust settles.

use containersim::{ContainerEngine, HardwareProfile, LanguageRuntime};
use faas::{AppProfile, Gateway, RuntimeProvider};
use hotc::{HotC, HotCConfig, KeyPolicy, PoolLimits};
use hotc_bench::run_workload;
use simclock::{SimDuration, SimTime};
use workloads::patterns;

fn mixed_gateway<P: RuntimeProvider>(provider: P) -> Gateway<P> {
    let engine = ContainerEngine::with_local_images(HardwareProfile::server());
    let mut gw = Gateway::new(engine, provider);
    for (i, lang) in [
        LanguageRuntime::Python,
        LanguageRuntime::Go,
        LanguageRuntime::NodeJs,
    ]
    .iter()
    .enumerate()
    {
        gw.register(
            faas::FunctionSpec::from_app(AppProfile::qr_code(*lang)).named(format!("fn-{i}")),
        );
    }
    gw
}

fn mixed_workload(seed: u64) -> Vec<workloads::Arrival> {
    patterns::poisson(2.0, SimDuration::from_secs(600), 3, 1.1, seed)
}

#[test]
fn all_providers_serve_the_same_workload() {
    let workload = mixed_workload(5);
    let route = |id: usize| format!("fn-{id}");
    let tick = SimDuration::from_secs(30);

    let cold = run_workload(
        mixed_gateway(faas::ColdStartAlways::new()),
        &workload,
        route,
        tick,
    );
    let keepalive = run_workload(
        mixed_gateway(HotC::fixed_keepalive(SimDuration::from_mins(15))),
        &workload,
        route,
        tick,
    );
    let warmup = run_workload(
        mixed_gateway(HotC::periodic_warmup(SimDuration::from_mins(5))),
        &workload,
        route,
        tick,
    );
    let hotc = run_workload(mixed_gateway(HotC::with_defaults()), &workload, route, tick);

    fn check<P: RuntimeProvider>(out: &hotc_bench::RunOutcome<P>, n: usize) {
        assert_eq!(out.traces.len(), n);
        assert!(out.traces.iter().all(|t| t.is_well_formed()));
    }
    check(&cold, workload.len());
    check(&keepalive, workload.len());
    check(&warmup, workload.len());
    check(&hotc, workload.len());

    // Ordering: cold-start is strictly worst; the warm strategies are close.
    assert!(hotc.mean_latency() < cold.mean_latency() / 3);
    assert!(keepalive.mean_latency() < cold.mean_latency() / 3);
    assert!((cold.cold_fraction() - 1.0).abs() < 1e-9);
    assert!(hotc.cold_fraction() < 0.1);

    // Cold-start-always leaves nothing behind; pooled strategies keep warm
    // runtimes bounded by peak concurrency, not request count.
    assert_eq!(cold.gateway.engine().live_count(), 0);
    assert!(hotc.gateway.engine().live_count() < 40);
}

#[test]
fn hotc_pool_view_is_consistent_after_traffic() {
    let workload = mixed_workload(9);
    let out = run_workload(
        mixed_gateway(HotC::with_defaults()),
        &workload,
        |id| format!("fn-{id}"),
        SimDuration::from_secs(30),
    );
    let gw = &out.gateway;
    // Pool bookkeeping matches the engine exactly.
    assert_eq!(gw.provider().pool().total_live(), gw.engine().live_count());
    assert_eq!(
        gw.provider().pool().total_available(),
        gw.engine().live_count(),
        "all containers idle (no in-flight request remains)"
    );
}

#[test]
fn tight_limits_hold_under_pressure() {
    let engine = ContainerEngine::with_local_images(HardwareProfile::server());
    let provider = HotC::new(HotCConfig {
        limits: PoolLimits::new(4, 0.99),
        ..Default::default()
    });
    let mut gw = Gateway::new(engine, provider);
    gw.register_app(AppProfile::random_number());

    // A big burst of simultaneous requests: live count spikes to the burst
    // size (in-flight containers cannot be evicted) …
    let burst = patterns::burst(20, 1, &[], 1, SimDuration::from_secs(30), 0);
    let out = run_workload(
        gw,
        &burst,
        |_| "random-number".to_string(),
        SimDuration::from_secs(30),
    );
    // … but once requests drain and ticks run, the pool respects max_live.
    assert!(
        out.gateway.engine().live_count() <= 4,
        "live={}",
        out.gateway.engine().live_count()
    );
}

#[test]
fn fuzzy_keys_reuse_across_env_differences() {
    // Two functions with the same image/network but different env vars.
    let build = |policy: KeyPolicy| {
        let engine = ContainerEngine::with_local_images(HardwareProfile::server());
        let provider = HotC::new(HotCConfig {
            key_policy: policy,
            ..Default::default()
        });
        let mut gw = Gateway::new(engine, provider);
        let app = AppProfile::qr_code(LanguageRuntime::Python);
        let mut config_a = app.default_config();
        config_a.exec.env.insert("TENANT".into(), "a".into());
        let mut config_b = app.default_config();
        config_b.exec.env.insert("TENANT".into(), "b".into());
        gw.register(
            faas::FunctionSpec::from_app(app.clone())
                .named("fn-a")
                .with_config(config_a),
        );
        gw.register(
            faas::FunctionSpec::from_app(app)
                .named("fn-b")
                .with_config(config_b),
        );
        gw
    };

    // Exact keys: the second function cold-starts its own runtime.
    let mut exact = build(KeyPolicy::Exact);
    exact.handle("fn-a", SimTime::ZERO).unwrap();
    let b_exact = exact.handle("fn-b", SimTime::from_secs(1)).unwrap();
    assert!(b_exact.cold);

    // Fuzzy keys (the paper's future-work §VII): reuse with a reconfig cost.
    let mut fuzzy = build(KeyPolicy::Fuzzy);
    fuzzy.handle("fn-a", SimTime::ZERO).unwrap();
    let b_fuzzy = fuzzy.handle("fn-b", SimTime::from_secs(1)).unwrap();
    assert!(!b_fuzzy.cold);
    assert!(b_fuzzy.total() < b_exact.total() / 5);
}

#[test]
fn keepalive_expiry_vs_hotc_retention() {
    // Requests 20 minutes apart: a 15-minute keep-alive expires between
    // them, HotC's adaptive pool (with no memory pressure) retains.
    let mut workload = Vec::new();
    for i in 0..6u64 {
        workload.push(workloads::Arrival {
            at: SimTime::from_secs(i * 20 * 60),
            config_id: 0,
        });
    }
    let route = |_| "fn-0".to_string();
    let ka = run_workload(
        mixed_gateway(HotC::fixed_keepalive(SimDuration::from_mins(15))),
        &workload,
        route,
        SimDuration::from_secs(60),
    );
    let hc = run_workload(
        mixed_gateway(HotC::with_defaults()),
        &workload,
        route,
        SimDuration::from_secs(60),
    );
    // Keep-alive: every request is cold (gap > TTL).
    assert!((ka.cold_fraction() - 1.0).abs() < 1e-9);
    // HotC: only the first (demand floor keeps one runtime warm).
    assert!(hc.cold_fraction() <= 0.34, "{}", hc.cold_fraction());
}
