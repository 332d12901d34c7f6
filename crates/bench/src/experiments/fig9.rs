//! Figure 9: QR-code web application latency without and with HotC.
//!
//! §V-B: a serverless app transforms URLs into QR codes, implemented in
//! several languages; clients send requests with random configurations. The
//! URL transform itself takes ~60 ms; without HotC almost every request pays
//! a runtime setup, while with HotC the latency drops as the pool warms and
//! "the probability of the same type of request goes up".

use crate::driver::{run_workload, RunOutcome};
use crate::experiments::server_gateway;
use containersim::LanguageRuntime;
use faas::gateway::FunctionSpec;
use faas::policy::ColdStartAlways;
use faas::AppProfile;
use hotc::HotC;
use metrics_lite::{render_series, Table};
use simclock::{SimDuration, SimTime};
use workloads::Arrival;

/// The language variants the clients randomly pick from.
pub(crate) const VARIANTS: [LanguageRuntime; 4] = [
    LanguageRuntime::Python,
    LanguageRuntime::Go,
    LanguageRuntime::NodeJs,
    LanguageRuntime::Java,
];

/// Result of the Fig. 9 experiment.
pub struct Fig9Result {
    /// Per-request latency without HotC (arrival order).
    pub default_latencies: Vec<SimDuration>,
    /// Per-request latency with HotC.
    pub hotc_latencies: Vec<SimDuration>,
    /// Mean latency without HotC.
    pub default_mean: SimDuration,
    /// Mean latency with HotC.
    pub hotc_mean: SimDuration,
    /// Cold fraction with HotC (drops toward the number of variants / n).
    pub hotc_cold_fraction: f64,
}

fn qr_workload(requests: usize, seed: u64) -> Vec<Arrival> {
    // Random configuration per request, 2 s apart.
    let mut rng = simclock::SimRng::seeded(seed);
    (0..requests)
        .map(|i| Arrival {
            at: SimTime::ZERO + SimDuration::from_secs(2 * i as u64),
            config_id: rng.index(VARIANTS.len()),
        })
        .collect()
}

fn build_and_run<P: faas::RuntimeProvider + 'static>(
    provider: P,
    workload: &[Arrival],
) -> RunOutcome<P> {
    let mut gw = server_gateway(provider, &[]);
    for (i, lang) in VARIANTS.iter().enumerate() {
        gw.register(FunctionSpec::from_app(AppProfile::qr_code(*lang)).named(format!("qr-{i}")));
    }
    run_workload(
        gw,
        workload,
        |config_id| format!("qr-{config_id}"),
        SimDuration::from_secs(30),
    )
}

/// Runs `requests` randomly-configured QR requests against both backends.
pub fn run(requests: usize, seed: u64) -> Fig9Result {
    let workload = qr_workload(requests, seed);
    let default_out = build_and_run(ColdStartAlways::new(), &workload);
    let hotc_out = build_and_run(HotC::with_defaults(), &workload);
    Fig9Result {
        default_mean: default_out.mean_latency(),
        hotc_mean: hotc_out.mean_latency(),
        hotc_cold_fraction: hotc_out.cold_fraction(),
        default_latencies: default_out.latencies(),
        hotc_latencies: hotc_out.latencies(),
    }
}

impl Fig9Result {
    /// Mean latency of the last quarter of requests with HotC — the "after
    /// the pool warmed" regime the paper highlights.
    pub fn hotc_warm_regime_mean(&self) -> SimDuration {
        let n = self.hotc_latencies.len();
        let tail = &self.hotc_latencies[n - n / 4..];
        let total: SimDuration = tail.iter().copied().sum();
        total / tail.len() as u64
    }

    /// Text rendering.
    pub fn render(&self) -> String {
        let labels: Vec<String> = (0..self.default_latencies.len())
            .map(|i| format!("r{i:02}"))
            .collect();
        let mut out = render_series(
            "Fig 9(a): QR latency per request, without HotC (ms)",
            &labels,
            &self
                .default_latencies
                .iter()
                .map(|d| d.as_millis_f64())
                .collect::<Vec<_>>(),
            48,
        );
        out.push('\n');
        out.push_str(&render_series(
            "Fig 9(b): QR latency per request, with HotC (ms)",
            &labels,
            &self
                .hotc_latencies
                .iter()
                .map(|d| d.as_millis_f64())
                .collect::<Vec<_>>(),
            48,
        ));
        let mut summary = Table::new(
            "Fig 9 summary",
            &["backend", "mean_ms", "warm_regime_mean_ms", "cold_fraction"],
        );
        summary.row(&[
            "default".to_string(),
            format!("{:.1}", self.default_mean.as_millis_f64()),
            "-".to_string(),
            "1.00".to_string(),
        ]);
        summary.row(&[
            "hotc".to_string(),
            format!("{:.1}", self.hotc_mean.as_millis_f64()),
            format!("{:.1}", self.hotc_warm_regime_mean().as_millis_f64()),
            format!("{:.2}", self.hotc_cold_fraction),
        ]);
        out.push('\n');
        out.push_str(&summary.render());
        out.push_str(
            "(paper: URL transform ≈60 ms; HotC latency drops once runtimes are pooled)\n",
        );
        out
    }
}
