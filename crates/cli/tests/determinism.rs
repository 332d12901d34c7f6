//! Output-determinism regression test (satellite of ISSUE 4).
//!
//! The lint rule `map-iteration` forbids hash-ordered iteration on the
//! deterministic result path; this test is the runtime counterpart: the demo
//! scenario, run twice in the same process, must produce byte-identical
//! reports and byte-identical `--metrics-out` JSON. Hash containers randomize
//! their seed per process *and* per instantiation, so any hash-order leak
//! into the snapshot (or the report tables) shows up as a diff here.

use hotc_cli::scenario::DEMO_SCENARIO;
use hotc_cli::{build_trace, run_scenario, Scenario, ScenarioReport};
use stdshim::JsonValue;

fn run_once() -> ScenarioReport {
    let scenario = Scenario::parse(DEMO_SCENARIO).expect("demo scenario parses");
    run_scenario(&scenario).expect("demo scenario runs")
}

#[test]
fn demo_scenario_metrics_json_is_byte_identical_across_runs() {
    let a = run_once().metrics.to_json().to_pretty_string();
    let b = run_once().metrics.to_json().to_pretty_string();
    assert!(
        a == b,
        "metrics JSON differs between identical runs:\nfirst {} bytes vs {} bytes",
        a.len(),
        b.len()
    );
    // The snapshot is non-trivial: it must contain sorted stage histograms.
    assert!(a.contains("\"stages\""), "snapshot missing stages section");
}

/// `--metrics-out`'s `pool/live` is a canonical step function: change points
/// at strictly increasing instants, no value repeated, and the run's last
/// tick (last arrival + 2 ticks, rounded down to the tick grid) as its last
/// instant even when the count did not change there.
#[test]
fn demo_scenario_pool_live_series_is_canonical() {
    let scenario = Scenario::parse(DEMO_SCENARIO).expect("demo scenario parses");
    let json = run_once().metrics.to_json().to_pretty_string();
    let parsed = JsonValue::parse(&json).expect("metrics JSON parses");
    let rows: Vec<(f64, f64)> = parsed
        .get("series")
        .and_then(|s| s.get("pool/live"))
        .and_then(JsonValue::as_array)
        .expect("series[\"pool/live\"] present")
        .iter()
        .map(|row| match row.as_array() {
            Some([t, v]) => (t.as_f64().expect("t_s"), v.as_f64().expect("value")),
            _ => panic!("row is not [t_s, value]: {row:?}"),
        })
        .collect();
    assert!(rows.len() >= 2, "{rows:?}");
    assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "{rows:?}");
    // The last row may repeat the value before it: it marks the end.
    let changes = &rows[..rows.len() - 1];
    assert!(changes.windows(2).all(|w| w[0].1 != w[1].1), "{rows:?}");

    let slots = scenario.functions.iter().map(|f| f.replicas).sum();
    let mut trace = build_trace(&scenario.workload, slots, scenario.seed).expect("demo trace");
    let mut last_arrival = None;
    while let Some(a) = trace.next_arrival() {
        last_arrival = Some(a.at);
    }
    let tick = scenario.tick.as_nanos();
    let horizon = last_arrival.expect("demo has arrivals").as_nanos() + 2 * tick;
    let last_tick = (horizon / tick * tick) as f64 / 1e9;
    assert_eq!(rows[rows.len() - 1].0, last_tick);
}

#[test]
fn demo_scenario_report_is_byte_identical_across_runs() {
    let a = run_once();
    let b = run_once();
    assert_eq!(a.render(false), b.render(false));
    assert_eq!(a.render(true), b.render(true));
}
