//! Property test: the partitioned parallel replay is observationally
//! identical to the sequential one (tentpole acceptance of the parallel
//! driver).
//!
//! For every `WorkloadSpec` variant and every provider,
//! `run_scenario_with_series` with no `replay_threads` (one worker) and with
//! `replay_threads` 1, 2, and 8 must produce byte-identical verbose reports
//! (the per-request series merged across workers included) and
//! byte-identical metrics JSON. One worker runs the same partitioned code
//! path inline (spawn-free degenerate case); eight workers exceed the
//! key-group count of the small fixtures, so some workers own zero slots and
//! still tick to the global horizon.

use containersim::{HardwareProfile, LanguageRuntime, NetworkMode};
use hotc_cli::scenario::{FunctionDecl, ProviderSpec, WorkloadSpec};
use hotc_cli::{run_scenario_with_series, Scenario};
use simclock::SimDuration;
use std::collections::BTreeMap;
use std::path::PathBuf;

const THREAD_COUNTS: &[usize] = &[1, 2, 8];

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
    let csv = dir.join("par_equiv_azure.csv");
    let opendc = dir.join("par_equiv_opendc.trace");
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

fn assert_parallel_equivalent(sc: &Scenario, label: &str) {
    let sequential = run_scenario_with_series(sc)
        .unwrap_or_else(|e| panic!("{label}: sequential run failed: {e}"));
    let seq_render = sequential.render(true);
    let seq_json = sequential.metrics.to_json().to_pretty_string();
    for &threads in THREAD_COUNTS {
        let threaded = Scenario {
            replay_threads: Some(threads),
            ..sc.clone()
        };
        let parallel = run_scenario_with_series(&threaded)
            .unwrap_or_else(|e| panic!("{label} x{threads}: parallel run failed: {e}"));
        assert!(
            !parallel.limits_coupled,
            "{label} x{threads}: pool limits fired — fixture is not limits-quiescent"
        );
        assert!(
            seq_render == parallel.render(true),
            "{label} x{threads}: rendered reports differ\nsequential:\n{seq_render}\nparallel:\n{}",
            parallel.render(true)
        );
        let pj = parallel.metrics.to_json().to_pretty_string();
        assert!(
            seq_json == pj,
            "{label} x{threads}: metrics JSON differs ({} vs {} bytes)",
            seq_json.len(),
            pj.len()
        );
    }
}

#[test]
fn every_workload_variant_replays_identically_in_parallel() {
    for (i, workload) in all_variants().into_iter().enumerate() {
        let sc = scenario(ProviderSpec::HotC, 42, workload);
        assert_parallel_equivalent(&sc, &format!("variant #{i}"));
    }
}

#[test]
fn every_provider_replays_identically_in_parallel() {
    let providers = [
        ProviderSpec::HotC,
        ProviderSpec::HotCFuzzy,
        ProviderSpec::ColdStart,
        ProviderSpec::KeepAlive(SimDuration::from_mins(10)),
        ProviderSpec::Warmup(SimDuration::from_mins(5)),
        ProviderSpec::Hybrid,
    ];
    for provider in providers {
        let label = format!("{provider:?}");
        let sc = scenario(
            provider,
            7,
            WorkloadSpec::Synth {
                requests: 1200,
                keys: 32,
                duration: SimDuration::from_mins(45),
                zipf: 1.1,
                peak: 3.0,
            },
        );
        assert_parallel_equivalent(&sc, &label);
    }
}

/// Fault injection decomposes per configuration: each worker's engine draws
/// exactly the crash decisions the sequential engine would have dealt that
/// worker's configs, so a faulty replay is still byte-identical in parallel.
#[test]
fn crash_faults_decompose_across_workers() {
    let mut sc = scenario(
        ProviderSpec::HotC,
        11,
        WorkloadSpec::Poisson {
            rate: 2.0,
            duration: SimDuration::from_secs(300),
            zipf: 1.1,
        },
    );
    sc.crash_rate = 0.2;
    assert_parallel_equivalent(&sc, "poisson with faults");
}

/// The three stress scenario files from `scenarios/`, with their request
/// volumes scaled down to keep the debug-build test quick. Structure (replica
/// counts, seeds, ticks, merge shapes) is exactly the shipped scenarios'.
#[test]
fn stress_scenario_files_replay_identically_in_parallel() {
    for name in ["multi_tenant", "flash_crowd", "deploy_waves"] {
        let path = format!("{}/../../scenarios/{name}.hotc", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let mut sc = Scenario::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        match &mut sc.workload {
            WorkloadSpec::MultiTenant { requests, .. }
            | WorkloadSpec::FlashCrowd { requests, .. }
            | WorkloadSpec::DeployWaves { requests, .. } => *requests = 4000,
            other => panic!("{name}: unexpected workload {other:?}"),
        }
        assert_parallel_equivalent(&sc, name);
    }
}
