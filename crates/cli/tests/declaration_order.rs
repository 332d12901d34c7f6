//! Measurement: is the order of a scenario's `[function]` blocks an input?
//!
//! It is (DESIGN.md §10.2). A workload addresses function *slots* by
//! position — slot `i` is the `i`-th declared function — and `KeyId`s are
//! handed out in interning order with the per-configuration fault streams
//! hanging off them, so permuting the blocks hands each function another
//! slot's arrivals and another function's place in every tie-break. What a
//! permutation does leave alone is the arrival stream itself: the request
//! total and the number of requests each *position* receives.

use hotc_cli::scenario::FunctionDecl;
use hotc_cli::{run_scenario, Scenario, ScenarioReport};
use metrics_lite::Stage;

fn load(name: &str) -> Scenario {
    let path = format!("{}/../../scenarios/{name}.hotc", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    Scenario::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Requests served per declared function, in declaration order: the sample
/// count of the gateway hop, the one stage no request has a zero share of.
fn requests_by_position(functions: &[FunctionDecl], report: &ScenarioReport) -> Vec<u64> {
    functions
        .iter()
        .map(|f| {
            report
                .metrics
                .stage_count(&format!("fn/{}", f.name), Stage::GatewayHop)
        })
        .collect()
}

#[test]
fn permuting_function_blocks_moves_rows_but_not_the_arrival_stream() {
    for name in ["flaky_multi_tenant", "azure_hybrid"] {
        let declared = load(name);
        let baseline = run_scenario(&declared).unwrap_or_else(|e| panic!("{name}: {e}"));
        let by_position = requests_by_position(&declared.functions, &baseline);
        assert_eq!(
            by_position.iter().sum::<u64>(),
            baseline.requests as u64,
            "{name}: per-function rows do not add up"
        );

        // Every rotation of the declared order, and its reverse.
        let n = declared.functions.len();
        let mut orders: Vec<Vec<FunctionDecl>> = (1..n)
            .map(|k| {
                let mut order = declared.functions.clone();
                order.rotate_left(k);
                order
            })
            .collect();
        orders.push(declared.functions.iter().rev().cloned().collect());
        orders.dedup(); // two functions: the one rotation is the reverse
        for order in orders {
            let label: Vec<&str> = order.iter().map(|f| f.name.as_str()).collect();
            let permuted = Scenario {
                functions: order.clone(),
                ..declared.clone()
            };
            let report =
                run_scenario(&permuted).unwrap_or_else(|e| panic!("{name} {label:?}: {e}"));
            assert_eq!(report.requests, baseline.requests, "{name} {label:?}");
            assert_eq!(
                requests_by_position(&order, &report),
                by_position,
                "{name} {label:?}: a position's traffic depends on who is declared there"
            );
            // The measured non-property. If this fails, functions are routed
            // by something other than position: strengthen this test to
            // per-function row equality and drop the DESIGN.md paragraph.
            assert_ne!(
                requests_by_position(&declared.functions, &report),
                by_position,
                "{name} {label:?}: per-function rows survived the permutation"
            );
        }
    }
}
