//! Concurrency stress: many OS threads hammering the lock-free
//! [`ConcurrentGateway`] (std scoped threads), checking pool consistency
//! afterwards.

use containersim::{ContainerEngine, HardwareProfile, LanguageRuntime};
use faas::AppProfile;
use hotc::{ConcurrentGateway, HotCConfig, PoolLimits};
use simclock::shared::ThreadTimeline;
use simclock::{SimDuration, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn shared_gateway(functions: usize, limits: Option<PoolLimits>) -> Arc<ConcurrentGateway> {
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
    for i in 0..functions {
        let app = AppProfile::qr_code(langs[i % langs.len()]);
        let mut config = app.default_config();
        config.exec.env.insert("SHARD".into(), i.to_string());
        gw.register(
            faas::FunctionSpec::from_app(app)
                .named(format!("fn-{i}"))
                .with_config(config),
        );
    }
    Arc::new(gw)
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
    let gw = shared_gateway(functions, None);
    let errors = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        for t in 0..threads {
            let gw = Arc::clone(&gw);
            let errors = Arc::clone(&errors);
            s.spawn(move || {
                let mut timeline = ThreadTimeline::starting_at(SimTime::ZERO);
                for i in 0..per_thread {
                    let function = format!("fn-{}", (t + i) % functions);
                    match gw.handle(&function, &mut timeline) {
                        Ok(trace) => assert!(trace.is_well_formed()),
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    timeline.advance(SimDuration::from_millis(500));
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
    let gw = shared_gateway(4, Some(PoolLimits::new(6, 0.99)));
    std::thread::scope(|s| {
        // Worker threads.
        for t in 0..6 {
            let gw = Arc::clone(&gw);
            s.spawn(move || {
                let mut timeline = ThreadTimeline::starting_at(SimTime::ZERO);
                for i in 0..40 {
                    let function = format!("fn-{}", (t * 7 + i) % 4);
                    gw.handle(&function, &mut timeline).expect("request");
                    timeline.advance(SimDuration::from_millis(750));
                }
            });
        }
        // A maintenance thread racing ticks against the workers.
        let gw_tick = Arc::clone(&gw);
        s.spawn(move || {
            for k in 0..50u64 {
                gw_tick.tick(SimTime::from_secs(k * 30)).expect("tick");
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
    let gw = shared_gateway(1, None);
    std::thread::scope(|s| {
        for _ in 0..8 {
            let gw = Arc::clone(&gw);
            s.spawn(move || {
                let mut timeline = ThreadTimeline::starting_at(SimTime::ZERO);
                for _ in 0..30 {
                    gw.handle("fn-0", &mut timeline).expect("request");
                    timeline.advance(SimDuration::from_secs(1));
                }
            });
        }
    });
    assert_eq!(gw.stats().requests, 240);
    // One runtime type: the pool is bounded by peak thread overlap.
    let live = engine_live(&gw);
    assert!(live <= 16, "live={live}");
}
