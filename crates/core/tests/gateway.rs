//! The faas gateway over a provider that reuses runtimes: split-phase
//! overlap, first-execution init, and per-stage telemetry that reconciles
//! cold and warm. `faas` itself only has the cold-start provider, so these
//! run on `HotC` under AWS's 15-minute keep-alive; the gateway's key slot is
//! also checked on `ColdStartAlways`.

use containersim::engine::ExecWork;
use containersim::{
    ContainerConfig, ContainerEngine, ContainerId, HardwareProfile, ImageId, LanguageRuntime,
};
use faas::{AppProfile, ColdStartAlways, FunctionSpec, Gateway, RuntimeProvider};
use hotc::HotC;
use metrics_lite::{MetricsRegistry, MetricsSnapshot, Stage};
use simclock::{SimDuration, SimTime};
use std::sync::Arc;

fn keepalive() -> HotC {
    HotC::fixed_keepalive(SimDuration::from_mins(15))
}

fn gateway_with(metrics: Arc<MetricsRegistry>) -> Gateway<HotC> {
    let engine = ContainerEngine::with_local_images(HardwareProfile::server());
    let mut gw = Gateway::with_metrics(engine, keepalive(), metrics);
    gw.register_app(AppProfile::random_number());
    gw
}

fn gateway() -> Gateway<HotC> {
    gateway_with(Arc::new(MetricsRegistry::new()))
}

#[test]
fn split_phase_supports_overlap() {
    let mut gw = gateway();
    // Two requests arriving together must occupy two containers.
    let a = gw.begin("random-number", SimTime::ZERO).unwrap();
    let b = gw.begin("random-number", SimTime::ZERO).unwrap();
    assert_ne!(a.container, b.container);
    assert_eq!(gw.engine().live_count(), 2);
    let ta = gw.finish(a).unwrap();
    let tb = gw.finish(b).unwrap();
    assert!(ta.is_well_formed() && tb.is_well_formed());
    // After release both are warm; the next two reuse them.
    let c = gw.begin("random-number", SimTime::from_secs(5)).unwrap();
    let d = gw.begin("random-number", SimTime::from_secs(5)).unwrap();
    assert!(!c.cold && !d.cold);
    gw.finish(c).unwrap();
    gw.finish(d).unwrap();
}

#[test]
fn first_exec_charges_app_init() {
    let mut gw = gateway();
    let first = gw.handle("random-number", SimTime::ZERO).unwrap();
    let second = gw.handle("random-number", SimTime::from_secs(1)).unwrap();
    assert!(first.first_exec && !second.first_exec);
    // First execution includes the app init (20 ms vs 5 ms base).
    assert!(first.execution() > second.execution() * 2);
}

/// The tentpole invariant: a request's per-stage decomposition sums to
/// its e2e latency exactly, cold and warm alike, and the always-on
/// registry sees every request.
#[test]
fn stage_sample_reconciles_with_trace_total() {
    let mut gw = gateway();
    let cold = gw.begin("random-number", SimTime::ZERO).unwrap();
    let cold_sample = cold.stage_sample();
    let cold_trace = gw.finish(cold).unwrap();
    assert_eq!(cold_sample.total(), cold_trace.total());
    assert!(!cold_sample.get(Stage::RuntimeInit).is_zero());
    assert!(!cold_sample.get(Stage::AppInit).is_zero(), "first exec");

    let warm = gw.begin("random-number", SimTime::from_secs(10)).unwrap();
    let warm_sample = warm.stage_sample();
    let warm_trace = gw.finish(warm).unwrap();
    assert_eq!(warm_sample.total(), warm_trace.total());
    assert!(
        warm_sample.get(Stage::RuntimeInit).is_zero(),
        "no cold stages"
    );
    assert!(warm_sample.get(Stage::AppInit).is_zero(), "no re-init");

    let snap = gw.metrics().snapshot();
    assert_eq!(snap.counter("gateway/requests"), Some(2));
    assert_eq!(snap.counter("gateway/cold_starts"), Some(1));
    assert_eq!(snap.stage_count("all", Stage::Exec), 2);
    assert_eq!(snap.stage_count("fn/random-number", Stage::Exec), 2);
    assert_eq!(snap.stage_count("all", Stage::RuntimeInit), 1);
    assert_eq!(
        snap.scope_total_ns("all"),
        (cold_trace.total() + warm_trace.total()).as_nanos()
    );
}

/// Every finish adds to the registry's tally counters and `metrics()` lists
/// them, so the counters hold the sum however often and in whatever order
/// they are read: two gateways on one registry, and a registry that absorbed
/// another gateway's and is then read through its own gateway again.
#[test]
fn mirrored_counters_sum_across_gateways_and_absorbs() {
    let shared = Arc::new(MetricsRegistry::new());
    let mut nodes = [gateway_with(Arc::clone(&shared)), gateway_with(shared)];
    for (node, at) in [(0, 0), (0, 10), (1, 0)] {
        let now = SimTime::from_secs(at);
        nodes[node].handle("random-number", now).unwrap();
    }
    for gw in nodes.iter().chain(&nodes) {
        gw.metrics();
    }
    let snap = nodes[1].metrics().snapshot();
    assert_eq!(snap.counter("gateway/requests"), Some(3));
    assert_eq!(snap.counter("gateway/cold_starts"), Some(2));

    let mut worker = gateway();
    worker.handle("random-number", SimTime::ZERO).unwrap();
    nodes[0].metrics().absorb(worker.metrics());
    nodes[0]
        .handle("random-number", SimTime::from_secs(20))
        .unwrap();
    let snap = nodes[0].metrics().snapshot();
    assert_eq!(snap.counter("gateway/requests"), Some(5));
    assert_eq!(snap.counter("gateway/cold_starts"), Some(3));
}

/// Property: over random traffic (two runtime types, random gaps — cold
/// and warm both occur), every request's stage decomposition sums to its
/// trace total, and the registry's aggregate stage sums reconcile exactly
/// with the sum of e2e totals.
#[test]
fn prop_stage_sums_reconcile_with_trace_totals() {
    testkit::check(16, |g| {
        let mut gw = gateway();
        gw.register_app(AppProfile::qr_code(LanguageRuntime::Go));
        let names = ["random-number", "qr-code"];
        let mut now = SimTime::ZERO;
        let mut expected_total = 0u64;
        let n = 3 + g.u64_in(0..20);
        for _ in 0..n {
            let function = names[g.u64_in(0..names.len() as u64) as usize];
            let inflight = gw.begin(function, now).unwrap();
            let sample = inflight.stage_sample();
            let trace = gw.finish(inflight).unwrap();
            assert_eq!(sample.total(), trace.total(), "per-request split");
            expected_total += trace.total().as_nanos();
            now = trace.t6_gateway_out + SimDuration::from_millis(g.u64_in(0..120_000));
        }
        let snap = gw.metrics().snapshot();
        assert_eq!(snap.counter("gateway/requests"), Some(n));
        assert_eq!(snap.scope_total_ns("all"), expected_total);
        let per_fn: u64 = names
            .iter()
            .map(|f| snap.scope_total_ns(&format!("fn/{f}")))
            .sum();
        assert_eq!(per_fn, expected_total);
    });
}

/// A registered spec and the same spec handed in on a twin gateway take
/// one path: identical traces cold and warm, identical `fn/` scopes. On
/// `ColdStartAlways` the registered function's key slot is filled and the
/// handed-in one's never is; both requests are cold.
#[test]
fn begin_and_begin_with_agree() {
    begin_and_begin_with_agree_on(keepalive, false);
    begin_and_begin_with_agree_on(ColdStartAlways::new, true);
}

fn begin_and_begin_with_agree_on<P: RuntimeProvider>(provider: impl Fn() -> P, always_cold: bool) {
    let on_engine = || ContainerEngine::with_local_images(HardwareProfile::server());
    let mut registered = Gateway::new(on_engine(), provider());
    registered.register_app(AppProfile::random_number());
    let mut handed = Gateway::new(on_engine(), provider());
    let spec = FunctionSpec::from_app(AppProfile::random_number());
    for at in [0, 10] {
        let now = SimTime::from_secs(at);
        let a = registered.begin("random-number", now).unwrap();
        let b = handed.begin_with(&spec, None, now).unwrap();
        let (a, b) = (registered.finish(a).unwrap(), handed.finish(b).unwrap());
        assert_eq!(a, b);
        assert_eq!(a.cold, always_cold || at == 0);
    }
    let (a, b) = (registered.metrics().snapshot(), handed.metrics().snapshot());
    let scopes = |s: &MetricsSnapshot| -> Vec<String> {
        s.stages.iter().map(|(scope, _)| scope.clone()).collect()
    };
    assert_eq!(scopes(&a), ["all", "fn/random-number"]);
    assert_eq!(scopes(&a), scopes(&b));
    let cold_starts = if always_cold { 2 } else { 1 };
    for (stage, count) in [(Stage::RuntimeInit, cold_starts), (Stage::Exec, 2)] {
        assert_eq!(a.stage_count("fn/random-number", stage), count);
        assert_eq!(b.stage_count("fn/random-number", stage), count);
    }
}

fn cold_start_gateway() -> Gateway<ColdStartAlways> {
    let engine = ContainerEngine::with_local_images(HardwareProfile::server());
    Gateway::new(engine, ColdStartAlways::new())
}

/// The configuration a live container was booted with.
fn booted(gw: &Gateway<ColdStartAlways>, container: ContainerId) -> &ContainerConfig {
    gw.engine().config(container).expect("live container")
}

/// Whether two live containers were booted with one shared configuration.
fn share_config(gw: &Gateway<ColdStartAlways>, a: ContainerId, b: ContainerId) -> bool {
    std::ptr::eq(booted(gw, a), booted(gw, b))
}

/// A cold start copies no configuration: every container of a function
/// shares one, and so do two functions whose configurations are equal.
#[test]
fn cold_starts_share_one_configuration_per_distinct_config() {
    let mut gw = cold_start_gateway();
    let app = AppProfile::random_number();
    let mut other = app.default_config();
    other.exec.env.insert("V".into(), "2".into());
    gw.register(FunctionSpec::from_app(app.clone()));
    gw.register(FunctionSpec::from_app(app.clone()).named("twin"));
    gw.register(
        FunctionSpec::from_app(app)
            .named("other")
            .with_config(other),
    );
    let [a, b, twin, other] = ["random-number", "random-number", "twin", "other"]
        .map(|f| gw.begin(f, SimTime::ZERO).unwrap());
    assert!(share_config(&gw, a.container, b.container));
    assert!(share_config(&gw, a.container, twin.container));
    assert!(!share_config(&gw, a.container, other.container));
    assert_ne!(booted(&gw, a.container), booted(&gw, other.container));
}

/// A function re-registered with a new configuration boots the new one
/// from its next request on, though the function's key slot was filled by
/// the old; registered back, it shares the old configuration's copy again.
#[test]
fn a_re_registered_cold_start_function_boots_its_new_configuration() {
    let mut gw = cold_start_gateway();
    let app = AppProfile::random_number();
    let mut changed = app.default_config();
    changed.exec.env.insert("V".into(), "2".into());
    gw.register(FunctionSpec::from_app(app.clone()));
    let old = gw.begin("random-number", SimTime::ZERO).unwrap();
    gw.register(FunctionSpec::from_app(app.clone()).with_config(changed.clone()));
    let new = gw.begin("random-number", SimTime::from_secs(1)).unwrap();
    let again = gw.begin("random-number", SimTime::from_secs(2)).unwrap();
    assert_eq!(booted(&gw, new.container), &changed);
    assert!(share_config(&gw, new.container, again.container));
    gw.register(FunctionSpec::from_app(app));
    let back = gw.begin("random-number", SimTime::from_secs(3)).unwrap();
    assert_ne!(booted(&gw, back.container), &changed);
    assert!(share_config(&gw, old.container, back.container));
}

/// Two apps on one runtime key, served serially from one prewarmed
/// runtime: app init is paid on the runtime's first use although it was
/// never cold for a request, re-paid on every app switch and not on a
/// repeat.
#[test]
fn app_switches_repay_init_on_a_prewarmed_runtime() {
    let alpha = AppProfile {
        name: "alpha",
        image: ImageId::parse("python:3.8-alpine"),
        app_init: SimDuration::from_millis(500),
        work: ExecWork::light(SimDuration::from_millis(50)),
    };
    let mut beta = alpha.clone();
    beta.name = "beta";
    let specs = [FunctionSpec::from_app(alpha), FunctionSpec::from_app(beta)];
    assert_eq!(specs[0].config, specs[1].config, "one runtime type");

    let mut engine = ContainerEngine::with_local_images(HardwareProfile::server());
    let mut hotc = HotC::with_defaults();
    hotc.pool_mut()
        .prewarm(&mut engine, &specs[0].config, SimTime::ZERO)
        .unwrap();
    let mut gw = Gateway::new(engine, hotc);
    for spec in specs {
        gw.register(spec);
    }

    let mut now = SimTime::from_secs(1);
    let script = [
        ("alpha", true), // prewarmed: never executed, nothing loaded
        ("alpha", false),
        ("beta", true),
        ("beta", false),
        ("alpha", true),
        ("beta", true),
    ];
    for (i, (name, init_due)) in script.into_iter().enumerate() {
        let trace = gw.handle(name, now).unwrap();
        now = trace.t6_gateway_out;
        assert!(!trace.cold, "request {i}: the prewarmed runtime serves it");
        assert_eq!(trace.first_exec, i == 0, "request {i}");
        assert_eq!(
            trace.execution() > SimDuration::from_millis(500),
            init_due,
            "request {i} ({name}): {:?}",
            trace.execution()
        );
    }
    assert_eq!(gw.engine().live_count(), 1);
}
