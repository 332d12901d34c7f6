//! Concurrency stress: many OS threads hammering the lock-free
//! [`ConcurrentGateway`] (std scoped threads), checking pool consistency
//! afterwards.

use containersim::{ContainerEngine, HardwareProfile, LanguageRuntime};
use faas::AppProfile;
use hotc::{ConcurrentGateway, FunctionHandle, HotCConfig, PoolLimits};
use simclock::{SimDuration, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};

/// The gateway with `fn-0`…`fn-{functions-1}` registered, and their handles.
fn shared_gateway(
    functions: usize,
    limits: Option<PoolLimits>,
) -> (ConcurrentGateway, Vec<FunctionHandle>) {
    let engine = ContainerEngine::with_local_images(HardwareProfile::server());
    let gw = ConcurrentGateway::new(
        engine,
        HotCConfig {
            limits: limits.unwrap_or_default(),
            ..Default::default()
        },
    );
    let langs = [
        LanguageRuntime::Python,
        LanguageRuntime::Go,
        LanguageRuntime::NodeJs,
        LanguageRuntime::Java,
        LanguageRuntime::Ruby,
    ];
    let handles = (0..functions)
        .map(|i| {
            let app = AppProfile::qr_code(langs[i % langs.len()]);
            let mut config = app.default_config();
            config.exec.env.insert("SHARD".into(), i.to_string());
            gw.register(
                faas::FunctionSpec::from_app(app)
                    .named(format!("fn-{i}"))
                    .with_config(config),
            )
        })
        .collect();
    (gw, handles)
}

/// Live containers according to the engine.
fn engine_live(gw: &ConcurrentGateway) -> usize {
    gw.with_engine(|e| e.live_count())
}

#[test]
fn stress_many_threads_many_functions() {
    let functions = 6;
    let threads = 8;
    let per_thread = 50;
    let (gw, handles) = shared_gateway(functions, None);
    let errors = AtomicU64::new(0);

    std::thread::scope(|s| {
        for t in 0..threads {
            let (gw, handles, errors) = (&gw, &handles, &errors);
            s.spawn(move || {
                let mut now = SimTime::ZERO;
                for i in 0..per_thread {
                    match gw.handle(&handles[(t + i) % functions], now) {
                        Ok(trace) => {
                            assert!(trace.is_well_formed());
                            now = trace.t6_gateway_out;
                        }
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    now += SimDuration::from_millis(500);
                }
            });
        }
    });

    assert_eq!(errors.load(Ordering::Relaxed), 0);
    let stats = gw.stats();
    assert_eq!(stats.requests as usize, threads * per_thread);
    // Pool and engine agree after the storm.
    assert_eq!(gw.pool().total_live(), engine_live(&gw));
    assert_eq!(gw.pool().total_available(), engine_live(&gw));
    // Reuse dominates: cold starts bounded by functions × peak overlap,
    // not by request count.
    assert!(
        (stats.cold_starts as usize) < threads * functions,
        "cold={}",
        stats.cold_starts
    );
    gw.with_engine(|e| assert_eq!(e.volumes().len(), e.live_count()));
}

#[test]
fn stress_with_concurrent_ticks_and_limits() {
    let (gw, handles) = shared_gateway(4, Some(PoolLimits::new(6, 0.99)));
    std::thread::scope(|s| {
        // Worker threads.
        for t in 0..6 {
            let (gw, handles) = (&gw, &handles);
            s.spawn(move || {
                let mut now = SimTime::ZERO;
                for i in 0..40 {
                    let trace = gw.handle(&handles[(t * 7 + i) % 4], now).expect("request");
                    now = trace.t6_gateway_out + SimDuration::from_millis(750);
                }
            });
        }
        // A maintenance thread racing ticks against the workers.
        s.spawn(|| {
            for k in 0..50u64 {
                gw.tick(SimTime::from_secs(k * 30)).expect("tick");
                std::thread::yield_now();
            }
        });
    });

    assert_eq!(gw.stats().requests, 240);
    assert_eq!(gw.pool().total_live(), engine_live(&gw));
    // Final maintenance enforces the cap.
    gw.tick(SimTime::from_secs(10_000)).expect("final tick");
    assert!(engine_live(&gw) <= 6);
}

#[test]
fn contended_single_function_converges_to_small_pool() {
    let (gw, handles) = shared_gateway(1, None);
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                let mut now = SimTime::ZERO;
                for _ in 0..30 {
                    let trace = gw.handle(&handles[0], now).expect("request");
                    now = trace.t6_gateway_out + SimDuration::from_secs(1);
                }
            });
        }
    });
    assert_eq!(gw.stats().requests, 240);
    // One runtime type: the pool is bounded by peak thread overlap.
    let live = engine_live(&gw);
    assert!(live <= 16, "live={live}");
}
