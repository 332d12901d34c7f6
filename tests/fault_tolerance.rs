//! Failure injection: container processes crash mid-execution; every
//! provider must dispose of crashed containers and keep serving, with no
//! leaked accounting.

use containersim::engine::ExecWork;
use containersim::{ContainerConfig, ContainerEngine, ContainerState, HardwareProfile, ImageId};
use faas::{AppProfile, Gateway};
use hotc::HotC;
use simclock::{SimDuration, SimTime};

fn crashy_engine(prob: f64, seed: u64) -> ContainerEngine {
    let mut engine = ContainerEngine::with_local_images(HardwareProfile::server());
    engine.set_fault_injection(prob, seed);
    engine
}

#[test]
fn crashed_container_is_stopped_and_disposable() {
    let mut engine = crashy_engine(1.0, 1); // always crash
    let cfg = ContainerConfig::bridge(ImageId::parse("alpine:3.12"));
    let (id, _) = engine.create_container(cfg, SimTime::ZERO).unwrap();
    let work = ExecWork::light(SimDuration::from_millis(100));

    let outcome = engine.begin_exec(id, work, SimTime::ZERO).unwrap();
    assert!(outcome.crashed);
    // The crash happens before the full execution would have completed.
    assert!(outcome.latency <= SimDuration::from_millis(101));
    engine
        .end_exec(id, SimTime::ZERO + outcome.latency)
        .unwrap();
    assert_eq!(engine.state(id), ContainerState::Stopped);

    // Stopped containers cannot run or be cleaned, only removed.
    assert!(engine.begin_exec(id, work, SimTime::ZERO).is_err());
    assert!(engine.cleanup(id, SimTime::ZERO).is_err());
    engine.stop_and_remove(id, SimTime::from_secs(1)).unwrap();
    assert_eq!(engine.live_count(), 0);
}

#[test]
fn zero_rate_never_crashes() {
    let mut engine = crashy_engine(0.0, 2);
    let cfg = ContainerConfig::bridge(ImageId::parse("alpine:3.12"));
    let (id, _) = engine.create_container(cfg, SimTime::ZERO).unwrap();
    for i in 0..50 {
        let out = engine
            .exec(
                id,
                ExecWork::light(SimDuration::from_millis(1)),
                SimTime::from_secs(i),
            )
            .unwrap();
        assert!(!out.crashed);
    }
}

#[test]
fn hotc_survives_crashes_and_stays_consistent() {
    let engine = crashy_engine(0.25, 42);
    let mut gw = Gateway::new(engine, HotC::with_defaults());
    gw.register_app(AppProfile::random_number());

    let mut failed = 0;
    let mut now = SimTime::ZERO;
    for _ in 0..200 {
        let trace = gw.handle("random-number", now).expect("request served");
        if trace.failed {
            failed += 1;
        }
        now = trace.t6_gateway_out + SimDuration::from_secs(1);
        gw.tick(now).expect("tick");
    }
    // Roughly a quarter of requests fail.
    assert!((25..80).contains(&failed), "failed={failed}");

    // Pool and engine agree; all remaining containers are reusable (crashed
    // ones were disposed).
    assert_eq!(gw.provider().pool().total_live(), gw.engine().live_count());
    assert_eq!(
        gw.provider().pool().total_available(),
        gw.engine().live_count()
    );
}

#[test]
fn keepalive_disposes_crashed_containers_too() {
    let engine = crashy_engine(1.0, 7);
    let mut gw = Gateway::new(engine, HotC::fixed_keepalive(SimDuration::from_mins(15)));
    gw.register_app(AppProfile::random_number());

    let t1 = gw.handle("random-number", SimTime::ZERO).unwrap();
    assert!(t1.failed);
    // Nothing was pooled: the crashed container is gone.
    assert_eq!(gw.provider().pool().total_live(), 0);
    assert_eq!(gw.engine().live_count(), 0);

    // The next request cold-starts a fresh container.
    let t2 = gw.handle("random-number", SimTime::from_secs(1)).unwrap();
    assert!(t2.cold);
}

#[test]
fn crash_rate_shows_up_in_cold_fraction() {
    // Every crash forces the next same-type request to cold-start, so the
    // steady-state cold fraction tracks the crash rate.
    let run = |prob: f64| {
        let engine = crashy_engine(prob, 99);
        let mut gw = Gateway::new(engine, HotC::with_defaults());
        gw.register_app(AppProfile::random_number());
        let mut now = SimTime::ZERO;
        for _ in 0..100 {
            let t = gw.handle("random-number", now).expect("request");
            now = t.t6_gateway_out + SimDuration::from_secs(1);
        }
        gw.stats().cold_starts
    };
    let stable = run(0.0);
    let flaky = run(0.3);
    assert_eq!(stable, 1);
    assert!(flaky > 15, "flaky={flaky}");
}

#[test]
fn crashes_are_deterministic_per_seed() {
    let run = |seed: u64| {
        let mut engine = crashy_engine(0.5, seed);
        let cfg = ContainerConfig::bridge(ImageId::parse("alpine:3.12"));
        let mut outcomes = Vec::new();
        for i in 0..20 {
            let (id, _) = engine
                .create_container(cfg.clone(), SimTime::from_secs(i))
                .unwrap();
            let out = engine
                .exec(
                    id,
                    ExecWork::light(SimDuration::from_millis(10)),
                    SimTime::from_secs(i),
                )
                .unwrap();
            outcomes.push((out.crashed, out.latency));
        }
        outcomes
    };
    assert_eq!(run(5), run(5));
    assert_ne!(run(5), run(6));
}
