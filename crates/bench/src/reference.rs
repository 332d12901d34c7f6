//! The closure-scheduled materialized driver — reference only.
//!
//! Schedules every tick, then every arrival (each scheduling its own finish
//! at run time) on a [`simclock::Simulation`] and lets the kernel's FIFO
//! tie-break produce the tick < arrival < finish order. No production path
//! runs it; it is the *independent* oracle the streaming loop in
//! [`crate::driver`] is compared with — by `run_scenario_materialized`, the
//! tests below and the `materialized_20k_1k_keys` bench record — so those
//! proofs and gates never compare the loop with itself.

use crate::driver::RunOutcome;
use faas::gateway::Gateway;
use faas::{RequestTrace, RuntimeProvider};
use simclock::{SimDuration, SimTime, Simulation};
use workloads::Arrival;

struct DriverState<P: RuntimeProvider> {
    gateway: Gateway<P>,
    traces: Vec<(usize, RequestTrace)>,
    live_samples: Vec<(SimTime, usize)>,
}

/// Drives `workload` through `gateway` by scheduling every event as a
/// closure up front. Same contract and result as
/// [`crate::driver::run_workload`].
pub fn run_workload<P>(
    gateway: Gateway<P>,
    workload: &[Arrival],
    route: impl Fn(usize) -> String,
    tick_interval: SimDuration,
) -> RunOutcome<P>
where
    P: RuntimeProvider + 'static,
{
    assert!(
        workloads::is_time_ordered(workload),
        "workload must be time-ordered"
    );
    assert!(!tick_interval.is_zero(), "tick interval must be positive");

    let mut sim = Simulation::new(DriverState {
        gateway,
        traces: Vec::new(),
        live_samples: Vec::new(),
    });

    // Provider maintenance ticks, scheduled FIRST so that at equal
    // timestamps the tick precedes the arrivals (FIFO tie-break).
    let horizon = workload
        .last()
        .map(|a| a.at + tick_interval * 2)
        .unwrap_or(SimTime::ZERO);
    let mut t = SimTime::ZERO;
    while t <= horizon {
        sim.schedule_at(t, move |s, st: &mut DriverState<P>| {
            st.gateway.tick(s.now()).expect("tick must not fail");
            let live = st.gateway.engine().live_count();
            st.gateway
                .metrics()
                .sample_series("pool/live", s.now(), live as f64);
            st.live_samples.push((s.now(), live));
        });
        t += tick_interval;
    }

    for (idx, arrival) in workload.iter().enumerate() {
        let function = route(arrival.config_id);
        sim.schedule_at(arrival.at, move |s, st: &mut DriverState<P>| {
            let inflight = st
                .gateway
                .begin(&function, s.now())
                .expect("request must begin");
            s.schedule_at(inflight.t4_func_end, move |_, st: &mut DriverState<P>| {
                let trace = st.gateway.finish(inflight).expect("request must finish");
                st.traces.push((idx, trace));
            });
        });
    }

    sim.run();
    let finished_at = sim.now();
    let mut state = sim.into_state();
    state.traces.sort_by_key(|&(idx, _)| idx);
    let traces = state.traces.into_iter().map(|(_, t)| t).collect();
    RunOutcome {
        gateway: state.gateway,
        traces,
        finished_at,
        live_samples: state.live_samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::tests::{gateway, sequential, TICK};
    use containersim::{ContainerEngine, HardwareProfile};
    use faas::{AppProfile, ColdStartAlways};
    use hotc::HotC;
    use workloads::patterns;

    /// Streaming and materialized drivers must be *event-identical*: same
    /// finish traces in the same order, same tick samples, same final
    /// telemetry bytes — and the collecting `driver::run_workload` returns
    /// exactly the reference's per-arrival vector.
    fn assert_run_equivalent<P, F>(make_provider: F, workload: Vec<Arrival>)
    where
        P: RuntimeProvider + 'static,
        F: Fn() -> P,
    {
        let route = |_| "random-number".to_string();
        let materialized = run_workload(gateway(make_provider()), &workload, route, TICK);
        let collector =
            crate::driver::run_workload(gateway(make_provider()), &workload, route, TICK);
        assert_eq!(collector.traces, materialized.traces);
        assert_eq!(collector.live_samples, materialized.live_samples);
        assert_eq!(collector.finished_at, materialized.finished_at);

        let (streamed, mut collected) = sequential(make_provider(), &workload);

        assert_eq!(streamed.requests as usize, materialized.traces.len());
        assert_eq!(streamed.finished_at, materialized.finished_at);
        assert_eq!(streamed.live_samples, materialized.live_samples);
        assert!(streamed.trace_error.is_none());
        collected.sort_by_key(|&(seq, _)| seq);
        for (i, (seq, t)) in collected.iter().enumerate() {
            assert_eq!(*seq as usize, i);
            assert_eq!(t, &materialized.traces[i], "trace {i} diverged");
        }
        // Byte-identical telemetry: every stage histogram, counter, and the
        // pool/live series saw the same events in the same order.
        assert_eq!(
            format!("{:?}", streamed.gateway.metrics().snapshot()),
            format!("{:?}", materialized.gateway.metrics().snapshot())
        );
    }

    #[test]
    fn streaming_replay_is_event_identical_to_materialized() {
        // Overlapping bursts exercise the finish heap; serial exercises the
        // tick/arrival interleave; empty exercises the horizon edge.
        assert_run_equivalent(
            HotC::with_defaults,
            patterns::burst(8, 10, &[1, 3], 6, SimDuration::from_secs(30), 0),
        );
        assert_run_equivalent(
            HotC::with_defaults,
            patterns::serial(SimDuration::from_secs(30), 20, 0),
        );
        assert_run_equivalent(HotC::hybrid_keepalive, Vec::new());
        assert_run_equivalent(
            ColdStartAlways::new,
            patterns::burst(8, 1, &[], 1, SimDuration::from_secs(30), 0),
        );
    }

    /// A registry its caller shares with the gateway (`with_metrics`) and
    /// never reads through the gateway after `run_trace` still lists the
    /// request tally — the replay read it through `Gateway::metrics` once —
    /// and holds the reference driver's `pool/live`, byte for byte.
    #[test]
    fn a_shared_registry_read_only_by_its_owner_lists_the_tally() {
        let w = patterns::burst(8, 10, &[1, 3], 6, SimDuration::from_secs(30), 0);
        let route = |_| "random-number".to_string();
        let registry = std::sync::Arc::new(metrics_lite::MetricsRegistry::new());
        let engine = ContainerEngine::with_local_images(HardwareProfile::server());
        let mut gw = Gateway::with_metrics(
            engine,
            HotC::with_defaults(),
            std::sync::Arc::clone(&registry),
        );
        gw.register_app(AppProfile::random_number());
        let mut source = workloads::trace::VecTrace::new(w.clone());
        drop(crate::run_trace(gw, &mut source, route, TICK, |_, _| {}));

        let snap = registry.snapshot();
        assert_eq!(snap.counter("gateway/requests"), Some(w.len() as u64));
        assert!(snap.counter("gateway/cold_starts").is_some_and(|n| n > 0));
        let materialized = run_workload(gateway(HotC::with_defaults()), &w, route, TICK);
        let reference = materialized.gateway.metrics().snapshot();
        assert!(snap.series.iter().any(|(name, _)| name == "pool/live"));
        assert_eq!(format!("{snap:?}"), format!("{reference:?}"));
    }
}
