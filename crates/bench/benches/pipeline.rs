//! End-to-end request-path benchmarks: the real CPU cost of serving one
//! request through gateway + watchdog + engine, warm vs cold, per provider,
//! and of the report a replay ends with.

use containersim::{ContainerEngine, HardwareProfile};
use faas::{AppProfile, ColdStartAlways, FunctionSpec, Gateway};
use hotc::HotC;
use hotc_bench::Harness;
use metrics_lite::{MetricsRegistry, Stage, StageSample};
use simclock::{SimDuration, SimTime};
use std::hint::black_box;

fn hotc_gateway() -> Gateway<HotC> {
    let engine = ContainerEngine::with_local_images(HardwareProfile::server());
    let mut gw = Gateway::new(engine, HotC::with_defaults());
    gw.register_app(AppProfile::random_number());
    gw
}

fn bench_warm_request(h: &mut Harness) {
    {
        let mut gw = hotc_gateway();
        gw.handle("random-number", SimTime::ZERO).unwrap(); // prime
        let mut now = SimTime::from_secs(1);
        h.bench("warm_request/hotc", || {
            now += SimDuration::from_millis(100);
            black_box(gw.handle("random-number", now).unwrap())
        });
    }
    {
        // The same request with 2 000 functions registered, named the way a
        // scenario names replicas: a table lookup by name must not grow
        // with the table (gated as a ratio to `warm_request/hotc`).
        let mut gw = hotc_gateway();
        for i in 1..2000 {
            gw.register(
                FunctionSpec::from_app(AppProfile::random_number())
                    .named(format!("random-number#{i}")),
            );
        }
        gw.handle("random-number", SimTime::ZERO).unwrap(); // prime
        let mut now = SimTime::from_secs(1);
        h.bench("warm_request/hotc_2000_fns", || {
            now += SimDuration::from_millis(100);
            black_box(gw.handle("random-number", now).unwrap())
        });
    }
    {
        let engine = ContainerEngine::with_local_images(HardwareProfile::server());
        let mut gw = Gateway::new(engine, HotC::fixed_keepalive(SimDuration::from_mins(15)));
        gw.register_app(AppProfile::random_number());
        gw.handle("random-number", SimTime::ZERO).unwrap();
        let mut now = SimTime::from_secs(1);
        h.bench("warm_request/fixed-keepalive", || {
            now += SimDuration::from_millis(100);
            black_box(gw.handle("random-number", now).unwrap())
        });
    }
}

fn bench_cold_request(h: &mut Harness) {
    // Cold path: every iteration creates and destroys a container.
    let engine = ContainerEngine::with_local_images(HardwareProfile::server());
    let mut gw = Gateway::new(engine, ColdStartAlways::new());
    gw.register_app(AppProfile::random_number());
    let mut now = SimTime::ZERO;
    h.bench("cold_request_cycle", || {
        now += SimDuration::from_secs(1);
        black_box(gw.handle("random-number", now).unwrap())
    });
}

fn bench_tick_with_large_pool(h: &mut Harness) {
    // Controller tick cost with a big, diverse pool (the per-interval
    // maintenance the paper's Algorithm 3 adds).
    h.bench_with_setup(
        "hotc_tick_100_types",
        || {
            let mut gw = hotc_gateway();
            for i in 0..100 {
                let app = AppProfile::random_number();
                let mut config = app.default_config();
                config.exec.env.insert("T".into(), i.to_string());
                gw.register(
                    FunctionSpec::from_app(app)
                        .named(format!("fn-{i}"))
                        .with_config(config),
                );
            }
            for i in 0..100 {
                gw.handle(&format!("fn-{i}"), SimTime::from_millis(i))
                    .unwrap();
            }
            gw
        },
        |mut gw| {
            for k in 1..=10u64 {
                gw.tick(SimTime::from_secs(30 * k)).unwrap();
            }
            black_box(gw.engine().live_count());
            // Returned so the harness tears the gateway down outside the
            // timed span — the bench measures tick cost, not Drop.
            gw
        },
    );
}

/// The report phase of `evict_churn`: snapshot and serialise a registry of
/// its shape — 2 000 `fn/` scopes of 100 requests each, a sixth of them
/// cold, so nine stages per scope; two counters; a 50-point `pool/live`.
fn bench_report(h: &mut Harness) {
    const COLD: [Stage; 6] = [
        Stage::ResourceAlloc,
        Stage::NetworkSetup,
        Stage::VolumeMount,
        Stage::RuntimeInit,
        Stage::CodeLoad,
        Stage::AppInit,
    ];
    let reg = MetricsRegistry::new();
    reg.counter("gateway/requests").add(200_000);
    reg.counter("gateway/cold_starts").add(32_000);
    for i in 0..2_000u64 {
        let set = reg.fn_stage_set(&format!("tier-a#{i}"));
        for r in 0..100 {
            let mut sample = StageSample::new();
            sample.set(Stage::GatewayHop, SimDuration::from_micros(200 + r % 7));
            sample.set(Stage::WatchdogHop, SimDuration::from_micros(150 + r % 5));
            sample.set(Stage::Exec, SimDuration::from_millis(5 + (i + r) % 40));
            if r % 6 == 0 {
                for (k, &stage) in COLD.iter().enumerate() {
                    sample.set(stage, SimDuration::from_millis(20 * k as u64 + r % 11));
                }
            }
            set.record(&sample);
        }
    }
    for t in 0..50 {
        reg.sample_series("pool/live", SimTime::from_secs(60 * t), (t % 9 * 50) as f64);
    }
    h.bench("report/snapshot_json_2000_fns", || {
        black_box(reg.snapshot().to_json().to_pretty_string())
    });
}

fn main() {
    let mut h = Harness::new("pipeline");
    bench_warm_request(&mut h);
    bench_cold_request(&mut h);
    bench_tick_with_large_pool(&mut h);
    bench_report(&mut h);
    h.finish();
}
