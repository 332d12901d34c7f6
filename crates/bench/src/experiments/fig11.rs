//! Figure 11: the UMass-campus YouTube request trace, and (as an extension)
//! replaying it against the three backends.
//!
//! The paper uses the trace to motivate three request patterns: a burst
//! (20 → 300 at T710), an afternoon decline (T800–T1200), and an evening
//! rise (T1200–T1400). We reproduce the trace shape and additionally replay
//! a scaled-down version through the gateway to compare backends under a
//! realistic daily pattern.

use crate::driver::run_workload;
use crate::experiments::server_gateway;
use faas::{AppProfile, ColdStartAlways};
use hotc::HotC;
use metrics_lite::{render_series, Table};
use simclock::SimDuration;
use workloads::youtube::{expand_to_arrivals, youtube_trace, YoutubeTraceParams};

/// Per-backend replay outcome.
pub struct ReplayEval {
    /// Backend name.
    pub backend: &'static str,
    /// Mean request latency.
    pub mean_latency_ms: f64,
    /// Fraction of requests that cold-started.
    pub cold_fraction: f64,
    /// Live containers left at the end of the day.
    pub live_at_end: usize,
}

/// Result of the Fig. 11 experiment.
pub struct Fig11Result {
    /// The requests-per-index trace (full resolution).
    pub trace: Vec<f64>,
    /// Backend comparison on the scaled replay.
    pub replays: Vec<ReplayEval>,
}

/// Generates the trace and replays a scaled version (1 index = 1 virtual
/// minute, rates divided by `scale_down`) through each backend.
pub fn run(seed: u64, scale_down: f64) -> Fig11Result {
    let trace = youtube_trace(&YoutubeTraceParams::default());

    // Scaled replay: 288 five-minute indices to keep the event count sane.
    let scaled_params = YoutubeTraceParams {
        length: 288,
        seed,
        ..Default::default()
    };
    let scaled: Vec<f64> = youtube_trace(&scaled_params)
        .into_iter()
        .map(|r| r / scale_down)
        .collect();
    let workload = expand_to_arrivals(&scaled, SimDuration::from_secs(300), 0, seed);

    let mut replays = Vec::new();
    let apps = [AppProfile::random_number()];
    let route = |_| "random-number".to_string();
    let tick = SimDuration::from_secs(30);

    let cold = run_workload(
        server_gateway(ColdStartAlways::new(), &apps),
        &workload,
        route,
        tick,
    );
    replays.push(ReplayEval {
        backend: "cold-start",
        mean_latency_ms: cold.mean_latency().as_millis_f64(),
        cold_fraction: cold.cold_fraction(),
        live_at_end: cold.gateway.engine().live_count(),
    });

    let ka = run_workload(
        server_gateway(HotC::fixed_keepalive(SimDuration::from_mins(15)), &apps),
        &workload,
        route,
        tick,
    );
    replays.push(ReplayEval {
        backend: "fixed-keepalive",
        mean_latency_ms: ka.mean_latency().as_millis_f64(),
        cold_fraction: ka.cold_fraction(),
        live_at_end: ka.gateway.engine().live_count(),
    });

    let hc = run_workload(
        server_gateway(HotC::with_defaults(), &apps),
        &workload,
        route,
        tick,
    );
    replays.push(ReplayEval {
        backend: "hotc",
        mean_latency_ms: hc.mean_latency().as_millis_f64(),
        cold_fraction: hc.cold_fraction(),
        live_at_end: hc.gateway.engine().live_count(),
    });

    Fig11Result { trace, replays }
}

impl Fig11Result {
    /// Looks up a backend's replay.
    pub fn replay(&self, backend: &str) -> &ReplayEval {
        self.replays
            .iter()
            .find(|r| r.backend == backend)
            .expect("backend replayed")
    }

    /// Text rendering.
    pub fn render(&self) -> String {
        // Downsample the 1440-index trace to 24 hourly bins for display.
        let hourly: Vec<f64> = self
            .trace
            .chunks(60)
            .map(|c| c.iter().sum::<f64>() / c.len() as f64)
            .collect();
        let labels: Vec<String> = (0..hourly.len()).map(|h| format!("{h:02}:00")).collect();
        let mut out = render_series(
            "Fig 11: YouTube requests at the campus gateway (hourly mean of per-minute rate)",
            &labels,
            &hourly,
            48,
        );
        out.push_str(
            "(features: burst 20→300 at T710 ≈ 11:50, decline T800–T1200, rise T1200–T1400)\n\n",
        );

        let mut table = Table::new(
            "Trace replay across backends (scaled)",
            &["backend", "mean_latency_ms", "cold_fraction", "live_at_end"],
        );
        for r in &self.replays {
            table.row(&[
                r.backend.to_string(),
                format!("{:.1}", r.mean_latency_ms),
                format!("{:.3}", r.cold_fraction),
                r.live_at_end.to_string(),
            ]);
        }
        out.push_str(&table.render());
        out
    }
}
