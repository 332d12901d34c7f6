//! A function re-registered while one of its requests is in flight: the
//! request still lands in `fn/<name>`, its runtime returns to the key it was
//! acquired under, and the function's next request runs under the new key —
//! through a single gateway (`Gateway::register`) and through a cluster
//! (`Cluster::register_everywhere`). The traces and the metrics JSON of each
//! scripted sequence are pinned by digest to what they were while requests
//! still carried their function's name, so moving the `fn/` scope onto the
//! in-flight record changed no output.

use containersim::{ContainerEngine, HardwareProfile, LanguageRuntime};
use faas::{AppProfile, FunctionSpec, Gateway, RequestTrace};
use hotc::HotC;
use hotc_cluster::{Cluster, SchedulePolicy};
use metrics_lite::{MetricsRegistry, MetricsSnapshot, Stage};
use simclock::{SimDuration, SimTime};
use std::sync::Arc;

const GAP: SimDuration = SimDuration::from_secs(1);

/// `f` as the Python qr-code app (the first registration) or the Go one.
fn spec(lang: LanguageRuntime) -> FunctionSpec {
    FunctionSpec::from_app(AppProfile::qr_code(lang)).named("f")
}

/// FNV-1a over the traces' debug text and the pretty metrics JSON: a
/// digest whose algorithm is fixed here, not by the toolchain.
fn digest(traces: &[RequestTrace], snapshot: &MetricsSnapshot) -> u64 {
    let text = format!("{traces:?}\n{}", snapshot.to_json().to_pretty_string());
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The four requests both scripts serve: cold and warm under the first
/// registration, then cold and warm under the second.
fn assert_served(traces: &[RequestTrace], snapshot: &MetricsSnapshot) {
    let colds: Vec<bool> = traces.iter().map(|t| t.cold).collect();
    assert_eq!(colds, [true, false, true, false]);
    assert_eq!(snapshot.stage_count("fn/f", Stage::Exec), 4);
    assert_eq!(snapshot.stage_count("all", Stage::Exec), 4);
    let scopes: Vec<&str> = snapshot.stages.iter().map(|(s, _)| s.as_str()).collect();
    assert_eq!(scopes, ["all", "fn/f"]);
}

#[test]
fn a_request_in_flight_across_register_keeps_its_scope_and_key() {
    let engine = ContainerEngine::with_local_images(HardwareProfile::server());
    let mut gw = Gateway::new(engine, HotC::with_defaults());
    gw.register(spec(LanguageRuntime::Python));
    let cold = gw.handle("f", SimTime::ZERO).unwrap();
    let inflight = gw.begin("f", cold.t6_gateway_out + GAP).unwrap();
    gw.register(spec(LanguageRuntime::Go));
    let warm = gw.finish(inflight).unwrap();
    let moved = gw.handle("f", warm.t6_gateway_out + GAP).unwrap();
    let again = gw.handle("f", moved.t6_gateway_out + GAP).unwrap();

    let pool = gw.provider().pool();
    let python = pool.id_for(&spec(LanguageRuntime::Python).config).unwrap();
    let go = pool.id_for(&spec(LanguageRuntime::Go).config).unwrap();
    assert_eq!((pool.num_avail_id(python), pool.num_avail_id(go)), (1, 1));

    let traces = [cold, warm, moved, again];
    let snapshot = gw.metrics().snapshot();
    assert_served(&traces, &snapshot);
    assert_eq!(digest(&traces, &snapshot), 0x3d1c_1759_4235_222a);
}

#[test]
fn a_request_in_flight_across_register_everywhere_keeps_its_scope_and_key() {
    let metrics = Arc::new(MetricsRegistry::new());
    let gateways = (0..2)
        .map(|i| {
            let engine = ContainerEngine::with_local_images(HardwareProfile::server());
            let gw = Gateway::with_metrics(engine, HotC::with_defaults(), Arc::clone(&metrics));
            (format!("node-{i}"), gw)
        })
        .collect();
    let mut cluster = Cluster::new(SchedulePolicy::ReuseAffinity, gateways);
    cluster.register_everywhere(spec(LanguageRuntime::Python));
    let (first, cold) = cluster.handle("f", SimTime::ZERO).unwrap();
    let ticket = cluster.begin("f", cold.t6_gateway_out + GAP).unwrap();
    assert_eq!(ticket.node, first, "affinity returns to the warm node");
    cluster.register_everywhere(spec(LanguageRuntime::Go));
    let warm = cluster.finish(ticket).unwrap();
    let (_, moved) = cluster.handle("f", warm.t6_gateway_out + GAP).unwrap();
    let (_, again) = cluster.handle("f", moved.t6_gateway_out + GAP).unwrap();

    let traces = [cold, warm, moved, again];
    let snapshot = metrics.snapshot();
    assert_served(&traces, &snapshot);
    assert_eq!(cluster.stats().live_containers, 2);
    assert_eq!(digest(&traces, &snapshot), 0xf837_5959_eb08_d82c);
}
