//! The materialized scenario runner — reference only: drains the workload
//! into a `Vec<Arrival>` and replays it through `hotc_bench::reference`'s
//! closure-scheduled driver. Kept for the streaming ≡ materialized property
//! test (`tests/streaming_equivalence.rs`); real runs never come through here.

use super::{
    build_gateway_slots, build_trace, dispatch_provider, slot_specs, ProviderOp, ReportAggregator,
    ScenarioReport,
};
use crate::scenario::Scenario;
use faas::RuntimeProvider;
use hotc_bench::reference::run_workload;
use workloads::Arrival;

struct MaterializedOp<'a> {
    scenario: &'a Scenario,
    workload: &'a [Arrival],
}

impl ProviderOp for MaterializedOp<'_> {
    type Out = Result<ScenarioReport, String>;
    fn run<P>(self, make: &(dyn Fn() -> P + Sync)) -> Self::Out
    where
        P: RuntimeProvider + Send + 'static,
    {
        let slots = slot_specs(self.scenario)?;
        let names: Vec<String> = slots.iter().map(|s| s.name.clone()).collect();
        let gateway = build_gateway_slots(make(), self.scenario, slots);
        let out = run_workload(
            gateway,
            self.workload,
            move |config_id| names[config_id % names.len()].clone(),
            self.scenario.tick,
        );
        let mut agg = ReportAggregator::new(true);
        for (i, t) in out.traces.iter().enumerate() {
            agg.observe(i as u64, t);
        }
        Ok(agg.finish(
            out.gateway.engine().live_count(),
            out.gateway.provider().background_cost(),
            out.gateway.metrics().snapshot(),
        ))
    }
}

/// Reference implementation of
/// [`run_scenario_with_series`](super::run_scenario_with_series) that
/// materializes the whole arrival vector and replays it through the
/// closure-scheduled reference driver.
pub fn run_scenario_materialized(scenario: &Scenario) -> Result<ScenarioReport, String> {
    let slots = scenario.functions.iter().map(|f| f.replicas).sum();
    let mut trace = build_trace(&scenario.workload, slots, scenario.seed)?;
    let workload = workloads::drain(trace.as_mut());
    if let Some(e) = trace.take_error() {
        return Err(format!("trace source error: {e}"));
    }
    if workload.is_empty() {
        return Err("workload generated no arrivals".to_string());
    }
    dispatch_provider(
        &scenario.provider,
        1,
        MaterializedOp {
            scenario,
            workload: &workload,
        },
    )
}
