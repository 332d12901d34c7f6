//! Direct probes: timed loops over the public functions of layers that the
//! replay loop cannot isolate from outside (`ContainerEngine` is a concrete
//! type handed to the provider; the predictor sits inside the controller;
//! the metrics record happens inside `Gateway::finish`). Each probe runs on
//! the workload's own key population and reports the median of
//! [`BATCHES`] batches, in host ns per operation.

use crate::driver::Slot;
use crate::trace::now;
use containersim::{ContainerEngine, HardwareProfile};
use metrics_lite::{MetricsRegistry, Stage, StageSample};
use predictor::{EsMarkov, Predictor};
use simclock::{SimDuration, SimTime};
use std::hint::black_box;

const BATCHES: usize = 5;

/// Median host ns per call of `op` over [`BATCHES`] batches of `iters`.
fn ns_per_op(iters: usize, mut op: impl FnMut(usize) -> Result<(), String>) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(BATCHES);
    for batch in 0..BATCHES {
        let t0 = now();
        for i in 0..iters {
            op(batch * iters + i)?;
        }
        samples.push(now().duration_since(t0).as_nanos() as f64 / iters as f64);
    }
    samples.sort_by(f64::total_cmp);
    Ok(samples[BATCHES / 2])
}

/// Results of all probes (host ns per operation).
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeResults {
    /// `Predictor::observe` + `predict` on `EsMarkov::paper_default()`.
    pub predictor_update_ns: f64,
    /// create → begin_exec → end_exec → stop_and_remove.
    pub lifecycle_ns: f64,
    /// begin_exec → end_exec on a warm container.
    pub exec_ns: f64,
    /// `live_ids_oldest_first` with 500 live containers.
    pub oldest_scan_ns: f64,
    /// `stage_set(fn/<name>).record`, round-robin over the keys.
    pub record_ns: f64,
}

fn engine_err(e: containersim::EngineError) -> String {
    format!("engine probe: {e}")
}

/// The stage decomposition of a typical warm request.
pub fn warm_sample() -> StageSample {
    let mut s = StageSample::new();
    s.set(Stage::GatewayHop, SimDuration::from_micros(400));
    s.set(Stage::WatchdogHop, SimDuration::from_micros(300));
    s.set(Stage::Exec, SimDuration::from_millis(9));
    s
}

/// Runs every probe over `slots`; `smoke` divides the iteration counts.
pub fn run(slots: &[Slot], smoke: bool) -> Result<ProbeResults, String> {
    let scale = if smoke { 20 } else { 1 };
    let mut out = ProbeResults::default();

    // Fixed series: a diurnal ramp with a deterministic ripple.
    let mut model = EsMarkov::paper_default();
    out.predictor_update_ns = ns_per_op(100_000 / scale, |i| {
        let x = 20.0
            + 15.0 * ((i % 1440) as f64 / 1440.0 * std::f64::consts::TAU).sin()
            + (i * 7 % 5) as f64;
        model.observe(black_box(x));
        black_box(model.predict());
        Ok(())
    })?;

    let mut engine = ContainerEngine::with_local_images(HardwareProfile::server());
    let mut at = SimTime::ZERO;
    out.lifecycle_ns = ns_per_op(10_000 / scale, |i| {
        let slot = &slots[i % slots.len()];
        at += SimDuration::from_secs(1);
        let (id, _) = engine
            .create_container(slot.config.clone(), at)
            .map_err(engine_err)?;
        let run = engine
            .begin_exec(id, slot.app.work_for(true), at)
            .map_err(engine_err)?;
        engine.end_exec(id, at + run.latency).map_err(engine_err)?;
        engine
            .stop_and_remove(id, at + run.latency)
            .map_err(engine_err)?;
        Ok(())
    })?;

    // One warm container per key, up to the pool cap; 500 live is also the
    // population the eviction scan sorts.
    let warm: Vec<_> = (0..500)
        .map(|i| {
            let slot = &slots[i % slots.len()];
            engine
                .create_container(slot.config.clone(), at)
                .map(|(id, _)| (id, slot.app.work_for(false)))
                .map_err(engine_err)
        })
        .collect::<Result<_, _>>()?;
    let distinct = slots.len().min(warm.len());
    out.exec_ns = ns_per_op(100_000 / scale, |i| {
        let (id, work) = warm[i % distinct];
        at += SimDuration::from_secs(1);
        let run = engine.begin_exec(id, work, at).map_err(engine_err)?;
        engine.end_exec(id, at + run.latency).map_err(engine_err)
    })?;
    out.oldest_scan_ns = ns_per_op(2_000 / scale, |_| {
        black_box(engine.live_ids_oldest_first());
        Ok(())
    })?;

    let registry = MetricsRegistry::new();
    let sample = warm_sample();
    out.record_ns = ns_per_op(200_000 / scale, |i| {
        // Mirrors `Gateway::finish`: one formatted scope lookup + one record.
        let scope = format!("fn/{}", slots[i % slots.len()].name);
        registry.stage_set(&scope).record(&sample);
        Ok(())
    })?;
    Ok(out)
}

/// Heap bytes a key's first record allocates in the metrics registry
/// (meaningful only under the counting allocator).
pub fn alloc_bytes_per_key(slots: &[Slot]) -> f64 {
    let registry = MetricsRegistry::new();
    let sample = warm_sample();
    let scopes: Vec<String> = slots.iter().map(|s| format!("fn/{}", s.name)).collect();
    let ((), _, bytes) = crate::alloc::counted(|| {
        for scope in &scopes {
            registry.stage_set(scope).record(&sample);
        }
    });
    bytes as f64 / scopes.len().max(1) as f64
}
