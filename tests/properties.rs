//! Cross-crate property tests: invariants that must hold for *any* workload
//! or configuration, not just the paper's scenarios.

use std::collections::BTreeMap;

use containersim::container::{EnvVars, ExecOptions};
use containersim::{
    ContainerConfig, ContainerEngine, HardwareProfile, ImageId, NetworkConfig, NetworkMode,
};
use faas::{AppProfile, Gateway};
use hotc::{HotC, HotCConfig, KeyInterner, KeyPolicy, PoolLimits};
use simclock::{SimDuration, SimTime};
use testkit::Gen;

/// Draws a valid container configuration from the image catalogue,
/// single-host network modes, and small env maps.
fn gen_config(g: &mut Gen) -> ContainerConfig {
    let image = *g.pick(&[
        "alpine:3.12",
        "python:3.8-alpine",
        "golang:1.13",
        "node:12-alpine",
        "openjdk:8-jre",
    ]);
    let mode = *g.pick(&[
        NetworkMode::None,
        NetworkMode::Bridge,
        NetworkMode::Host,
        NetworkMode::Container,
    ]);
    let mut env = EnvVars::default();
    for _ in 0..g.usize_in(0..4) {
        env.insert(
            g.string(testkit::UPPER, 1..5),
            g.string(testkit::LOWER_DIGITS, 0..5),
        );
    }
    let mut exec = ExecOptions {
        cpu_millis: g.u32_in(0..4000),
        privileged: g.bool(),
        ..Default::default()
    };
    exec.env = env;
    ContainerConfig::bridge(ImageId::parse(image))
        .with_network(NetworkConfig::single(mode))
        .with_exec(exec)
}

/// Whether `a` and `b` intern to one runtime key under `policy`.
fn same_key(a: &ContainerConfig, b: &ContainerConfig, policy: KeyPolicy) -> bool {
    let mut interner = KeyInterner::new(policy);
    interner.intern(a) == interner.intern(b)
}

/// Exact runtime keys are injective: distinct configurations never
/// collide (otherwise HotC would hand a request the wrong runtime).
#[test]
fn exact_keys_injective() {
    testkit::check(64, |g| {
        let a = gen_config(g);
        let b = gen_config(g);
        assert_eq!(a == b, same_key(&a, &b, KeyPolicy::Exact));
    });
}

/// Env vars are canonical: the same pairs, names repeated, inserted in two
/// random orders give equal `EnvVars` and one runtime key, iterate as a
/// `BTreeMap` of the pairs does, and keep each name's last value.
#[test]
fn env_vars_are_canonical() {
    testkit::check(64, |g| {
        let pairs = g.vec(0..8, |g| {
            (g.string("ABC", 1..3), g.string(testkit::LOWER_DIGITS, 0..3))
        });
        // A random order that keeps each name's pairs in their drawn order,
        // so every order agrees on which value comes last.
        let shuffled_env = |g: &mut Gen| {
            let mut order: Vec<usize> = (0..pairs.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, g.usize_in(0..i + 1));
            }
            for (name, _) in &pairs {
                let at: Vec<usize> = (0..order.len())
                    .filter(|&p| pairs[order[p]].0 == *name)
                    .collect();
                let mut same: Vec<usize> = at.iter().map(|&p| order[p]).collect();
                same.sort_unstable();
                for (p, i) in at.into_iter().zip(same) {
                    order[p] = i;
                }
            }
            let mut env = EnvVars::default();
            for i in order {
                let (name, value) = pairs[i].clone();
                env.insert(name, value);
            }
            env
        };
        let (a, b) = (shuffled_env(g), shuffled_env(g));
        assert_eq!(a, b);
        let config = |env: EnvVars| {
            let exec = ExecOptions {
                env,
                ..Default::default()
            };
            ContainerConfig::bridge(ImageId::parse("alpine:3.12")).with_exec(exec)
        };
        assert!(same_key(&config(a.clone()), &config(b), KeyPolicy::Exact));
        let map: BTreeMap<String, String> = pairs.iter().cloned().collect();
        let expected: Vec<(&str, &str)> = map.iter().map(|(k, v)| (&k[..], &v[..])).collect();
        assert_eq!(a.iter().collect::<Vec<_>>(), expected);
        for (name, value) in a.iter() {
            let last = pairs.iter().rev().find(|(n, _)| n == name).unwrap();
            assert_eq!(value, last.1, "{name}: the last value wins");
        }
    });
}

/// Fuzzy keys are a coarsening of exact keys: exact-equal configs are
/// always fuzzy-equal, and fuzzy-equal means equal image and network
/// attachment.
#[test]
fn fuzzy_coarsens_exact() {
    testkit::check(64, |g| {
        let a = gen_config(g);
        let b = gen_config(g);
        let fuzzy_eq = same_key(&a, &b, KeyPolicy::Fuzzy);
        if same_key(&a, &b, KeyPolicy::Exact) {
            assert!(fuzzy_eq);
        }
        let attachment = |c: &ContainerConfig| (c.image.clone(), c.network.mode, c.network.scope);
        assert_eq!(fuzzy_eq, attachment(&a) == attachment(&b));
    });
}

/// Every request trace partitions exactly into its three segments, for
/// any app shape and either temperature.
#[test]
fn trace_segments_partition_total() {
    testkit::check(64, |g| {
        let compute_ms = g.u64_in(1..2000);
        let init_ms = g.u64_in(0..1000);
        let reuse = g.bool();
        let engine = ContainerEngine::with_local_images(HardwareProfile::server());
        let mut gw = Gateway::new(engine, HotC::fixed_keepalive(SimDuration::from_mins(15)));
        let mut app = AppProfile::random_number();
        app.app_init = SimDuration::from_millis(init_ms);
        app.work.compute = SimDuration::from_millis(compute_ms);
        gw.register_app(app);

        let t1 = gw.handle("random-number", SimTime::ZERO).unwrap();
        let trace = if reuse {
            gw.handle("random-number", SimTime::from_secs(60)).unwrap()
        } else {
            t1
        };
        assert!(trace.is_well_formed());
        let parts = trace.initiation() + trace.execution() + trace.forwarding();
        assert_eq!(parts, trace.total());
    });
}

/// Under any serial request/gap sequence, HotC's bookkeeping matches the
/// engine and the pool never exceeds its limits after a tick — even with
/// crashes injected.
#[test]
fn hotc_invariants_under_random_serial_traffic() {
    testkit::check(64, |g| {
        let gaps = g.vec(1..60, |g| g.u64_in(1..400));
        let max_live = g.usize_in(1..8);
        let crash = g.bool();
        let mut engine = ContainerEngine::with_local_images(HardwareProfile::server());
        if crash {
            engine.set_fault_injection(0.2, 7);
        }
        let provider = HotC::new(HotCConfig {
            limits: PoolLimits::new(max_live, 0.99),
            ..Default::default()
        });
        let mut gw = Gateway::new(engine, provider);
        gw.register_app(AppProfile::random_number());

        let mut now = SimTime::ZERO;
        for gap in gaps {
            let trace = gw.handle("random-number", now).unwrap();
            now = trace.t6_gateway_out + SimDuration::from_secs(gap);
            gw.tick(now).unwrap();
            assert!(gw.engine().live_count() <= max_live);
            assert_eq!(gw.provider().pool().total_live(), gw.engine().live_count());
        }
    });
}

/// Keep-alive semantics: within the TTL a request is always warm; after a
/// gap longer than the TTL plus two control intervals it is always cold
/// (single client, ticked every 30 s like the replay driver). Expiry is a
/// control step's decision, so the window opens at the first step that saw
/// the request (up to one interval after it) and closes at the first step
/// past the TTL (up to one more).
#[test]
fn keepalive_ttl_is_exact() {
    let interval = SimDuration::from_secs(30);
    testkit::check(64, |g| {
        let ttl_s = g.u64_in(10..1000);
        let gaps = g.vec(1..30, |g| g.u64_in(1..2000));
        let engine = ContainerEngine::with_local_images(HardwareProfile::server());
        let mut gw = Gateway::new(engine, HotC::fixed_keepalive(SimDuration::from_secs(ttl_s)));
        gw.register_app(AppProfile::random_number());
        let mut next_tick = SimTime::ZERO;
        let mut serve = |gw: &mut Gateway<HotC>, at: SimTime| {
            while next_tick <= at {
                gw.tick(next_tick).unwrap();
                next_tick += interval;
            }
            gw.handle("random-number", at).unwrap()
        };

        let first = serve(&mut gw, SimTime::ZERO);
        assert!(first.cold);
        let mut last_done = first.t4_func_end;
        for gap in gaps {
            let at = last_done + SimDuration::from_secs(gap);
            let trace = serve(&mut gw, at);
            if gap > ttl_s + 2 * interval.as_secs() {
                assert!(trace.cold, "gap {gap}s > ttl {ttl_s}s must be cold");
            } else if gap < ttl_s {
                assert!(!trace.cold, "gap {gap}s < ttl {ttl_s}s must be warm");
            }
            last_done = trace.t4_func_end;
        }
    });
}

/// The cold-start provider is stateless: request latency is independent
/// of history (same function ⇒ identical traces modulo timestamps).
#[test]
fn cold_start_latency_is_history_free() {
    testkit::check(64, |g| {
        let gaps = g.vec(2..20, |g| g.u64_in(1..100));
        let engine = ContainerEngine::with_local_images(HardwareProfile::server());
        let mut gw = Gateway::new(engine, faas::ColdStartAlways::new());
        gw.register_app(AppProfile::random_number());
        let mut now = SimTime::ZERO;
        let mut first_latency = None;
        for gap in gaps {
            let trace = gw.handle("random-number", now).unwrap();
            let latency = trace.total();
            if let Some(expected) = first_latency {
                assert_eq!(latency, expected);
            } else {
                first_latency = Some(latency);
            }
            now = trace.t6_gateway_out + SimDuration::from_secs(gap);
        }
    });
}
