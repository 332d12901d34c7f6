//! Replays a day of YouTube-shaped campus traffic (the paper's Fig. 11
//! trace) through the serverless gateway and compares runtime managers.
//!
//! The trace is *streamed*: arrivals are pulled one at a time through the
//! [`workloads::trace::Trace`] iterator and fed straight into the driver,
//! so memory stays O(in-flight requests) no matter how long the day is.
//!
//! ```text
//! cargo run --example trace_replay
//! ```

use hotc_bench::run_trace;
use hotc_repro::prelude::*;
use workloads::trace::youtube_arrivals_trace;
use workloads::youtube::{youtube_trace, YoutubeTraceParams};

fn main() {
    // A 288-index day (5-minute indices), rates scaled down 10× to keep the
    // replay quick.
    let params = YoutubeTraceParams {
        length: 288,
        seed: 99,
        ..Default::default()
    };
    let rates: Vec<f64> = youtube_trace(&params)
        .into_iter()
        .map(|r| r / 10.0)
        .collect();
    println!("streaming a simulated day of campus traffic\n");

    let mut table = Table::new(
        "day-long trace replay",
        &[
            "backend",
            "requests",
            "mean_ms",
            "p99_ms",
            "cold_fraction",
            "live_at_end",
        ],
    );
    for backend in ["cold-start", "fixed-keepalive", "hotc"] {
        let engine = ContainerEngine::with_local_images(HardwareProfile::server());
        let row = match backend {
            "cold-start" => replay(
                Gateway::new(engine, faas::ColdStartAlways::new()),
                rates.clone(),
            ),
            "fixed-keepalive" => replay(
                Gateway::new(engine, HotC::fixed_keepalive(SimDuration::from_mins(15))),
                rates.clone(),
            ),
            _ => replay(Gateway::new(engine, HotC::with_defaults()), rates.clone()),
        };
        table.row(&[
            backend.to_string(),
            row.3.to_string(),
            format!("{:.1}", row.0.mean().as_millis_f64()),
            format!("{:.1}", row.0.percentile(0.99).as_millis_f64()),
            format!("{:.3}", row.1),
            row.2.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("(trace features: burst 20→300 at T710, decline T800–T1200, rise T1200–T1400)");
}

fn replay<P: RuntimeProvider + 'static>(
    mut gateway: Gateway<P>,
    rates: Vec<f64>,
) -> (LatencyRecorder, f64, usize, u64) {
    gateway.register_app(AppProfile::random_number());
    let mut trace = youtube_arrivals_trace(rates, SimDuration::from_secs(300), 0, 99);
    let mut recorder = LatencyRecorder::new();
    let mut cold = 0u64;
    let out = run_trace(
        gateway,
        &mut trace,
        |_| "random-number".to_string(),
        SimDuration::from_secs(30),
        |_, t| {
            recorder.record(t.total());
            if t.cold {
                cold += 1;
            }
        },
    );
    assert!(out.trace_error.is_none(), "youtube trace cannot error");
    let cold_fraction = cold as f64 / (out.requests as f64).max(1.0);
    (
        recorder,
        cold_fraction,
        out.gateway.engine().live_count(),
        out.requests,
    )
}
