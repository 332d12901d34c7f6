//! Figure 1: cold-start latency pattern and long-tail CDF.
//!
//! The paper's setup (§I): a client sends one request per second for ten
//! seconds, waits 30 minutes, and repeats; the backend generates a random
//! number. The keep-alive window is shorter than the idle gap, so the first
//! request of every batch is a cold start — the highest latency in the batch
//! (paper: +41.8 % over the lowest on AWS Lambda). Fig. 1(b) contrasts the
//! serverless latency CDF's long tail with a local function's flat CDF.
//!
//! Our substrate is a full container cold start (OpenFaaS-like), so the
//! cold/warm gap is larger than Lambda's pre-provisioned microVMs — the same
//! relationship the paper's own Fig. 9 shows for OpenFaaS. EXPERIMENTS.md
//! records both numbers.

use crate::driver::run_workload;
use crate::experiments::server_gateway;
use faas::AppProfile;
use hotc::HotC;
use metrics_lite::{Cdf, LatencyRecorder};
use simclock::{SimDuration, SimTime};
use workloads::Arrival;

/// Result of the Fig. 1 experiment.
pub struct Fig1Result {
    /// Per-request latency, batch-major (batches × 10 requests).
    pub latencies: Vec<SimDuration>,
    /// Number of batches.
    pub batches: usize,
    /// Requests per batch.
    pub per_batch: usize,
    /// Highest-over-lowest latency excess, percent (paper: 41.8 %).
    pub high_over_low_pct: f64,
    /// Highest-over-average latency excess, percent (paper: 31.7 %).
    pub high_over_avg_pct: f64,
    /// Serverless latency CDF (Fig. 1(b), long tail).
    pub serverless_cdf: Cdf,
    /// Local-function latency CDF (flat).
    pub local_cdf: Cdf,
    /// p99/p50 tail ratio, serverless.
    pub serverless_tail_ratio: f64,
    /// p99/p50 tail ratio, local function.
    pub local_tail_ratio: f64,
}

/// Runs the experiment: `batches` batches of `per_batch` 1 Hz requests with
/// 30-minute gaps, against a 15-minute keep-alive backend.
pub fn run(batches: usize, per_batch: usize) -> Fig1Result {
    let mut workload: Vec<Arrival> = Vec::new();
    let gap = SimDuration::from_mins(30);
    let batch_span = SimDuration::from_secs(per_batch as u64);
    for b in 0..batches {
        let start = SimTime::ZERO + (gap + batch_span) * b as u64;
        for i in 0..per_batch {
            workload.push(Arrival {
                at: start + SimDuration::from_secs(i as u64),
                config_id: 0,
            });
        }
    }

    let gw = server_gateway(
        HotC::fixed_keepalive(SimDuration::from_mins(15)),
        &[AppProfile::random_number()],
    );
    let out = run_workload(
        gw,
        &workload,
        |_| "random-number".to_string(),
        SimDuration::from_secs(60),
    );

    let mut recorder = LatencyRecorder::new();
    for t in &out.traces {
        recorder.record(t.total());
    }
    let low = recorder.min().as_secs_f64();
    let high = recorder.max().as_secs_f64();
    let avg = recorder.mean().as_secs_f64();

    // "Local function": the same handler invoked in-process — execution time
    // only, no gateway, no container. Model as the function's steady compute.
    let local_samples: Vec<SimDuration> = (0..recorder.count())
        .map(|i| SimDuration::from_micros(5000 + (i as u64 % 7) * 30))
        .collect();
    let local_cdf = Cdf::from_samples(&local_samples);
    let mut local_rec = LatencyRecorder::new();
    for &s in &local_samples {
        local_rec.record(s);
    }

    Fig1Result {
        latencies: recorder.samples().to_vec(),
        batches,
        per_batch,
        high_over_low_pct: (high / low - 1.0) * 100.0,
        high_over_avg_pct: (high / avg - 1.0) * 100.0,
        serverless_cdf: Cdf::from_samples(recorder.samples()),
        local_cdf,
        serverless_tail_ratio: recorder.tail_ratio(),
        local_tail_ratio: local_rec.tail_ratio(),
    }
}

impl Fig1Result {
    /// Whether, in every batch, the first request has the batch's highest
    /// latency (the paper's observation).
    pub fn first_is_always_slowest(&self) -> bool {
        self.latencies
            .chunks(self.per_batch)
            .all(|batch| batch.iter().skip(1).all(|&l| l < batch[0]))
    }

    /// Text rendering for the harness.
    pub fn render(&self) -> String {
        use metrics_lite::Table;
        let mut table = Table::new(
            "Fig 1(a): request latency to a keep-alive FaaS backend (first of each batch is cold)",
            &["batch", "req", "latency_ms", "cold"],
        );
        for (i, &lat) in self.latencies.iter().enumerate() {
            let batch = i / self.per_batch;
            let idx = i % self.per_batch;
            table.row(&[
                batch.to_string(),
                idx.to_string(),
                format!("{:.1}", lat.as_millis_f64()),
                (idx == 0).to_string(),
            ]);
        }
        let mut out = table.render();
        out.push_str(&format!(
            "\nhighest vs lowest: +{:.1}%   highest vs average: +{:.1}%  (paper: +41.8% / +31.7% on AWS Lambda)\n",
            self.high_over_low_pct, self.high_over_avg_pct
        ));
        out.push_str(&format!(
            "\nFig 1(b): tail ratio p99/p50 — serverless {:.1}x vs local {:.2}x\n",
            self.serverless_tail_ratio, self.local_tail_ratio
        ));
        let mut cdf_table = Table::new(
            "Fig 1(b): latency CDF",
            &["quantile", "serverless_ms", "local_ms"],
        );
        for q in [0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.00] {
            cdf_table.row(&[
                format!("{q:.2}"),
                format!("{:.1}", self.serverless_cdf.quantile(q).as_millis_f64()),
                format!("{:.2}", self.local_cdf.quantile(q).as_millis_f64()),
            ]);
        }
        out.push_str(&cdf_table.render());
        out
    }
}
