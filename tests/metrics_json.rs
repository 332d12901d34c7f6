//! The `--metrics-out` JSON of two scenarios, pinned by digest: the demo
//! scenario (`hotc-sim --demo`, a HotC burst) and
//! `scenarios/serial_keepalive.hotc` (a fixed keep-alive baseline). A change
//! to how telemetry is recorded, mirrored or derived that moves any byte of
//! what `hotc-sim --metrics-out` writes fails here.

use hotc_cli::scenario::DEMO_SCENARIO;
use hotc_cli::{run_scenario, Scenario};

/// FNV-1a over the bytes `hotc-sim --metrics-out` writes for `scenario`: a
/// digest whose algorithm is fixed here, not by the toolchain.
fn metrics_out_digest(scenario: &str) -> u64 {
    let scenario = Scenario::parse(scenario).unwrap();
    let report = run_scenario(&scenario).unwrap();
    let json = report.metrics.to_json().to_pretty_string() + "\n";
    json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn demo_scenario_metrics_json_is_pinned() {
    assert_eq!(metrics_out_digest(DEMO_SCENARIO), 0x9beb_eddc_9767_82e3);
}

#[test]
fn serial_keepalive_metrics_json_is_pinned() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/serial_keepalive.hotc"
    );
    let text = std::fs::read_to_string(path).unwrap();
    assert_eq!(metrics_out_digest(&text), 0xea9d_8e8c_7c04_9289);
}
