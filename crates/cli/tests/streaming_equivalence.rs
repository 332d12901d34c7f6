//! Property test: the streaming replay path is observationally identical to
//! the materialized one (tentpole acceptance of the trace frontend).
//!
//! For every `WorkloadSpec` variant — generator-backed, synthesized, and
//! file-backed — `run_scenario` (pull-based, no full arrival vector) and
//! `run_scenario_materialized` (drain-then-replay reference) must produce
//! byte-identical rendered reports and byte-identical metrics JSON.

use containersim::{HardwareProfile, LanguageRuntime, NetworkMode};
use hotc_cli::scenario::{FunctionDecl, ProviderSpec, WorkloadSpec};
use hotc_cli::{run_scenario, run_scenario_materialized, Scenario};
use simclock::SimDuration;
use std::collections::BTreeMap;
use std::path::PathBuf;
use testkit::Gen;

fn decl(name: &str, app: &str, replicas: usize) -> FunctionDecl {
    FunctionDecl {
        name: name.to_string(),
        app: app.to_string(),
        lang: LanguageRuntime::Python,
        network: NetworkMode::Bridge,
        env: BTreeMap::new(),
        replicas,
    }
}

fn scenario(provider: ProviderSpec, seed: u64, workload: WorkloadSpec) -> Scenario {
    Scenario {
        hardware: HardwareProfile::server(),
        provider,
        seed,
        tick: SimDuration::from_secs(30),
        crash_rate: 0.0,
        replay_threads: None,
        functions: vec![
            decl("alpha", "qr-code", 1),
            decl("beta", "random-number", 3),
        ],
        workload,
    }
}

/// Writes the sample file-backed traces once per test process.
fn sample_files() -> (PathBuf, PathBuf) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let csv = dir.join("equiv_azure.csv");
    let opendc = dir.join("equiv_opendc.trace");
    std::fs::write(&csv, "name,m1,m2,m3\nfn-a,5,0,9\nfn-b,2,2,2\nfn-c,0,7,1\n").expect("write csv");
    std::fs::write(
        &opendc,
        "timestamp,function\n0,fa\n250,fb\n250,fa\n900,fc\n900,fb\n1800,fa\n",
    )
    .expect("write opendc");
    (csv, opendc)
}

fn all_variants() -> Vec<WorkloadSpec> {
    let (csv, opendc) = sample_files();
    let m = SimDuration::from_mins;
    let s = SimDuration::from_secs;
    vec![
        WorkloadSpec::Serial {
            count: 25,
            interval: s(20),
        },
        WorkloadSpec::Parallel {
            threads: 6,
            per_thread: 5,
            interval: s(40),
        },
        WorkloadSpec::Linear {
            increasing: true,
            start: 2,
            step: 3,
            rounds: 7,
            round: s(30),
        },
        WorkloadSpec::Exponential {
            increasing: false,
            rounds: 6,
            round: s(30),
        },
        WorkloadSpec::Burst {
            base: 5,
            factor: 8,
            burst_at: vec![2, 5],
            rounds: 8,
            round: s(30),
        },
        WorkloadSpec::Poisson {
            rate: 1.5,
            duration: s(240),
            zipf: 1.1,
        },
        WorkloadSpec::Youtube {
            scale: 30.0,
            index: s(60),
            length: 48,
        },
        WorkloadSpec::Azure {
            functions: 12,
            duration: m(30),
        },
        WorkloadSpec::Synth {
            requests: 1500,
            keys: 40,
            duration: m(60),
            zipf: 1.1,
            peak: 3.0,
        },
        WorkloadSpec::FlashCrowd {
            requests: 1200,
            keys: 30,
            duration: m(45),
            zipf: 1.2,
            peak: 2.0,
            at: 0.3,
            width: 0.08,
            magnitude: 6.0,
        },
        WorkloadSpec::DeployWaves {
            requests: 1000,
            keys: 64,
            duration: m(40),
            zipf: 1.1,
            waves: 4,
            window: 16,
        },
        WorkloadSpec::MultiTenant {
            tenants: 3,
            requests: 400,
            keys: 20,
            duration: m(30),
            zipf: 1.1,
        },
        WorkloadSpec::AzureCsv {
            path: csv.to_string_lossy().into_owned(),
            interval: m(2),
        },
        WorkloadSpec::OpenDc {
            path: opendc.to_string_lossy().into_owned(),
        },
    ]
}

fn assert_equivalent(sc: &Scenario, label: &str) {
    let streamed =
        run_scenario(sc).unwrap_or_else(|e| panic!("{label}: streaming run failed: {e}"));
    let materialized = run_scenario_materialized(sc)
        .unwrap_or_else(|e| panic!("{label}: materialized run failed: {e}"));
    assert!(
        streamed.render(true) == materialized.render(true),
        "{label}: rendered reports differ\nstreaming:\n{}\nmaterialized:\n{}",
        streamed.render(true),
        materialized.render(true)
    );
    let sj = streamed.metrics.to_json().to_pretty_string();
    let mj = materialized.metrics.to_json().to_pretty_string();
    assert!(
        sj == mj,
        "{label}: metrics JSON differs ({} vs {} bytes)",
        sj.len(),
        mj.len()
    );
}

#[test]
fn every_workload_variant_streams_identically() {
    for (i, workload) in all_variants().into_iter().enumerate() {
        let sc = scenario(ProviderSpec::HotC, 42, workload);
        assert_equivalent(&sc, &format!("variant #{i}"));
    }
}

#[test]
fn random_scenarios_stream_identically() {
    let variants = all_variants();
    let providers = [
        ProviderSpec::HotC,
        ProviderSpec::HotCFuzzy,
        ProviderSpec::ColdStart,
        ProviderSpec::KeepAlive(SimDuration::from_mins(10)),
        ProviderSpec::Warmup(SimDuration::from_mins(5)),
        ProviderSpec::Hybrid,
    ];
    testkit::check(18, |g: &mut Gen| {
        let workload = g.pick(&variants).clone();
        let provider = g.pick(&providers).clone();
        let seed = g.next_u64();
        let mut sc = scenario(provider, seed, workload);
        sc.tick = SimDuration::from_secs(*g.pick(&[15u64, 30, 60]));
        if g.bool() {
            sc.crash_rate = 0.2;
        }
        if g.bool() {
            sc.functions = vec![decl("solo", "random-number", 5)];
        }
        assert_equivalent(&sc, &format!("seed {seed}"));
    });
}

/// Satellite regression: equal-timestamp arrivals from *different* merge
/// sources replay in the same total order every run — the multi-tenant
/// scenario is all same-instant collisions across tenants, so any ordering
/// instability shows up as a report/metrics diff between two identical runs.
#[test]
fn colliding_merge_sources_replay_deterministically() {
    let sc = scenario(
        ProviderSpec::HotC,
        7,
        WorkloadSpec::MultiTenant {
            tenants: 4,
            requests: 600,
            keys: 16,
            duration: SimDuration::from_mins(20),
            zipf: 1.1,
        },
    );
    let a = run_scenario(&sc).expect("first run");
    let b = run_scenario(&sc).expect("second run");
    assert_eq!(a.render(true), b.render(true));
    assert_eq!(
        a.metrics.to_json().to_pretty_string(),
        b.metrics.to_json().to_pretty_string()
    );
}
