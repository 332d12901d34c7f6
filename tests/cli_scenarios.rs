//! Every shipped scenario file must parse and run, producing sane reports.

use hotc_cli::{run_scenario, run_scenario_with_series, Scenario};

fn load(name: &str) -> Scenario {
    let path = format!("{}/scenarios/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    Scenario::parse(&text).unwrap_or_else(|e| panic!("parse {name}: {e}"))
}

#[test]
fn burst_scenario() {
    let report = run_scenario(&load("burst.hotc")).unwrap();
    assert_eq!(report.requests, 8 * 18 + 4 * 72);
    assert!(report.cold_fraction < 0.5);
    assert!(report.p50_ms < 100.0, "warm median, got {}", report.p50_ms);
}

#[test]
fn serial_keepalive_scenario() {
    let report = run_scenario(&load("serial_keepalive.hotc")).unwrap();
    assert_eq!(report.requests, 20);
    // One cold start, the rest within the 15-minute TTL.
    assert!((report.cold_fraction - 0.05).abs() < 1e-9);
}

#[test]
fn youtube_scenario() {
    let report = run_scenario(&load("youtube_day.hotc")).unwrap();
    assert!(report.requests > 1000);
    assert!(report.cold_fraction < 0.05);
    assert!(report.p99_ms < 100.0);
}

#[test]
fn edge_overlay_scenario() {
    let report = run_scenario(&load("edge_overlay.hotc")).unwrap();
    assert_eq!(report.requests, 10);
    // Edge inference is tens of seconds; the first run also pays a big cold
    // start (overlay + model load at Pi speed).
    assert!(report.p50_ms > 10_000.0);
    assert!(report.cold_fraction <= 0.1 + 1e-9);
}

#[test]
fn flaky_scenario_reports_failures() {
    let report = run_scenario(&load("flaky_multi_tenant.hotc")).unwrap();
    assert!(report.requests > 300);
    assert!(
        (0.04..0.25).contains(&report.failed_fraction),
        "failed fraction {}",
        report.failed_fraction
    );
    // Crashed containers are replaced: cold fraction tracks the crash rate
    // but service continues.
    assert!(report.cold_fraction < 0.4);
}

#[test]
fn scenarios_are_deterministic() {
    let a = run_scenario_with_series(&load("burst.hotc")).unwrap();
    let b = run_scenario_with_series(&load("burst.hotc")).unwrap();
    assert_eq!(a.latencies_ms.len(), a.requests);
    assert_eq!(a.latencies_ms, b.latencies_ms);
    assert_eq!(a.render(true), b.render(true));
}

#[test]
fn azure_hybrid_scenario() {
    let report = run_scenario(&load("azure_hybrid.hotc")).unwrap();
    assert!(report.requests > 500);
    // The hybrid provider keeps the hot/periodic classes warm.
    assert!(report.cold_fraction < 0.1, "{}", report.cold_fraction);
}

#[test]
fn multi_tenant_scenario() {
    let report = run_scenario(&load("multi_tenant.hotc")).unwrap();
    // The synthesizer emits exactly `requests` per tenant.
    assert_eq!(report.requests, 4 * 50_000);
    // Zipf-hot keys stay warm; the long tail cold-starts.
    assert!(report.cold_fraction < 0.2, "{}", report.cold_fraction);
}

#[test]
fn flash_crowd_scenario() {
    let report = run_scenario(&load("flash_crowd.hotc")).unwrap();
    assert_eq!(report.requests, 100_000);
    assert!(report.cold_fraction < 0.2, "{}", report.cold_fraction);
}

#[test]
fn deploy_waves_scenario() {
    let report = run_scenario(&load("deploy_waves.hotc")).unwrap();
    assert_eq!(report.requests, 100_000);
    // Each wave churns the hot key window, so some cold starts are expected
    // but the within-wave hot set must still mostly hit warm runtimes.
    assert!(report.cold_fraction < 0.5, "{}", report.cold_fraction);
}
