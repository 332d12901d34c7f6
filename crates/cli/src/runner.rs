//! Builds and runs a parsed [`Scenario`], producing a [`ScenarioReport`].
//!
//! A run is one gateway per replay worker, each with its own metrics
//! registry; worker registries are absorbed into worker 0's and the merged
//! registry is snapshotted once. The report's summary line (requests, mean,
//! p50, p99, cold fraction) is read from that snapshot — histogram
//! `gateway/e2e` and the `gateway/*` counters — so it cannot disagree with
//! what `--metrics-out` writes.

use crate::scenario::{FunctionDecl, ProviderSpec, Scenario, WorkloadSpec};
use containersim::ContainerEngine;
use faas::gateway::Gateway;
use faas::{AppProfile, ColdStartAlways, FunctionSpec, RequestTrace, RuntimeProvider};
use hotc::{HotC, HotCConfig, KeyInterner, KeyPolicy, PoolLimits};
use hotc_bench::{run_partitioned, run_trace_partition};
use metrics_lite::{MetricsSnapshot, Table};
use simclock::SimDuration;
use std::sync::Arc;
use workloads::patterns::Direction;
use workloads::trace::{
    self as wtrace, ConfigModulo, OpenDcTrace, PartitionTrace, SynthShape, SynthSpec, Trace,
};
use workloads::youtube::{youtube_trace, YoutubeTraceParams};

pub mod reference;
pub use reference::run_scenario_materialized;

/// A run that asks for the per-request series ([`run_scenario_with_series`])
/// keeps it exactly up to this many requests; past it the aggregator drops
/// the series so a 1e8-request replay does not hold 1e8 samples.
pub(crate) const LATENCY_DETAIL_CAP: usize = 1 << 20;

/// The outcome of a scenario run.
#[derive(Debug)]
pub struct ScenarioReport {
    /// Requests served.
    pub requests: usize,
    /// Mean latency (ms).
    pub mean_ms: f64,
    /// Median latency (ms).
    pub p50_ms: f64,
    /// p99 latency (ms).
    pub p99_ms: f64,
    /// Fraction of requests that cold-started.
    pub cold_fraction: f64,
    /// Fraction of requests that failed (fault injection).
    pub failed_fraction: f64,
    /// Live containers at the end of the run.
    pub live_at_end: usize,
    /// Provider background work (virtual seconds).
    pub background_s: f64,
    /// Per-request latencies (ms), arrival order. Empty unless the run
    /// asked for the series and served at most [`LATENCY_DETAIL_CAP`]
    /// requests.
    pub latencies_ms: Vec<f64>,
    /// Set when the run asked for the series and served more requests than
    /// the cap, so the series was dropped; read by [`Self::series_note`].
    series_dropped: bool,
    /// Full telemetry snapshot taken at the end of the run (counters,
    /// stage histograms, pool series) — exported by `--metrics-out`.
    pub metrics: metrics_lite::MetricsSnapshot,
    /// Set when the run had more than one replay worker and per-worker
    /// pool-limit enforcement actually evicted containers — the one case
    /// where a partitioned replay approximates (rather than reproduces) the
    /// one-worker run. Always `false` for one worker and for runs whose pool
    /// never hit its limits.
    pub limits_coupled: bool,
}

/// A per-request row label: the arrival's index, `r000` on.
struct RequestLabel(usize);

impl std::fmt::Display for RequestLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{:03}", self.0)
    }
}

impl ScenarioReport {
    /// Renders the report as text tables: [`Self::write_to`] into a string.
    pub fn render(&self, verbose: bool) -> String {
        let mut out = Vec::new();
        let written = self.write_to(&mut out, verbose);
        let text = written.ok().and_then(|()| String::from_utf8(out).ok());
        // lint:allow(unwrap, a Vec sink cannot fail and the report is UTF-8 text)
        text.expect("report renders")
    }

    /// Writes the report as text tables — with `verbose`, the per-request
    /// series first, one row at a time, so a million-request chart is never
    /// held whole.
    pub fn write_to(&self, out: &mut impl std::io::Write, verbose: bool) -> std::io::Result<()> {
        if verbose && !self.latencies_ms.is_empty() {
            metrics_lite::write_series(
                out,
                "per-request latency (ms)",
                (0..self.latencies_ms.len()).map(RequestLabel),
                &self.latencies_ms,
                48,
            )?;
            writeln!(out)?;
        }
        let mut table = Table::new(
            "scenario summary",
            &[
                "requests",
                "mean_ms",
                "p50_ms",
                "p99_ms",
                "cold_frac",
                "failed_frac",
                "live_at_end",
                "background_s",
            ],
        );
        table.row(&[
            self.requests.to_string(),
            format!("{:.1}", self.mean_ms),
            format!("{:.1}", self.p50_ms),
            format!("{:.1}", self.p99_ms),
            format!("{:.3}", self.cold_fraction),
            format!("{:.3}", self.failed_fraction),
            self.live_at_end.to_string(),
            format!("{:.2}", self.background_s),
        ]);
        out.write_all(table.render().as_bytes())
    }

    /// Why the per-request series is missing, when the run asked for it but
    /// served more requests than [`LATENCY_DETAIL_CAP`] — so a verbose
    /// render that prints only the summary does not do so silently.
    pub fn series_note(&self) -> Option<String> {
        self.series_dropped.then(|| {
            format!(
                "note: per-request series not printed: {} requests exceed its cap of {}",
                self.requests, LATENCY_DETAIL_CAP
            )
        })
    }
}

fn build_app(decl: &FunctionDecl) -> Result<AppProfile, String> {
    Ok(match decl.app.as_str() {
        "random-number" => AppProfile::random_number(),
        "qr-code" => AppProfile::qr_code(decl.lang),
        "s3-download" => AppProfile::s3_download(decl.lang),
        "v3-app" => AppProfile::v3_app(),
        "tf-api-app" => AppProfile::tf_api_app(),
        "cassandra" => AppProfile::cassandra(),
        other => return Err(format!("unknown app '{other}'")),
    })
}

/// Builds the pull-based arrival stream for a workload spec.
///
/// `slots` is the number of registered function slots (declared functions ×
/// replicas) the arrivals will be routed over; generators that pick functions
/// themselves (poisson, azure) spread across all of them.
pub fn build_trace(spec: &WorkloadSpec, slots: usize, seed: u64) -> Result<Box<dyn Trace>, String> {
    let slots = slots.max(1);
    let direction = |increasing: bool| {
        if increasing {
            Direction::Increasing
        } else {
            Direction::Decreasing
        }
    };
    Ok(match spec {
        WorkloadSpec::Serial { count, interval } => {
            Box::new(wtrace::serial_trace(*interval, *count, 0))
        }
        WorkloadSpec::Parallel {
            threads,
            per_thread,
            interval,
        } => Box::new(wtrace::parallel_trace(*threads, *per_thread, *interval)),
        WorkloadSpec::Linear {
            increasing,
            start,
            step,
            rounds,
            round,
        } => Box::new(wtrace::linear_ramp_trace(
            direction(*increasing),
            *start,
            *step,
            *rounds,
            *round,
            0,
        )),
        WorkloadSpec::Exponential {
            increasing,
            rounds,
            round,
        } => Box::new(wtrace::exponential_ramp_trace(
            direction(*increasing),
            *rounds,
            *round,
            0,
        )),
        WorkloadSpec::Burst {
            base,
            factor,
            burst_at,
            rounds,
            round,
        } => Box::new(wtrace::burst_trace(
            *base,
            *factor,
            burst_at.clone(),
            *rounds,
            *round,
            0,
        )),
        WorkloadSpec::Poisson {
            rate,
            duration,
            zipf,
        } => Box::new(wtrace::poisson_trace(*rate, *duration, slots, *zipf, seed)),
        WorkloadSpec::Azure {
            functions: population,
            duration,
        } => {
            let params = workloads::azure::AzureWorkloadParams {
                functions: *population,
                duration: *duration,
                seed,
                ..Default::default()
            };
            // Cycle the synthetic population onto the registered slots.
            let (merged, _) = wtrace::azure_trace(&params);
            Box::new(ConfigModulo::new(merged, slots))
        }
        WorkloadSpec::Youtube {
            scale,
            index,
            length,
        } => {
            let params = YoutubeTraceParams {
                length: *length,
                seed,
                ..Default::default()
            };
            let rates: Vec<f64> = youtube_trace(&params)
                .into_iter()
                .map(|r| r / scale)
                .collect();
            Box::new(wtrace::youtube_arrivals_trace(rates, *index, 0, seed))
        }
        WorkloadSpec::Synth {
            requests,
            keys,
            duration,
            zipf,
            peak,
        } => {
            let shape = if *peak <= 1.0 {
                SynthShape::Flat
            } else {
                SynthShape::Diurnal {
                    peak_to_trough: *peak,
                }
            };
            Box::new(wtrace::synth_trace(&SynthSpec {
                requests: *requests,
                keys: *keys,
                duration: *duration,
                zipf_exponent: *zipf,
                seed,
                shape,
                key_offset: 0,
            }))
        }
        WorkloadSpec::FlashCrowd {
            requests,
            keys,
            duration,
            zipf,
            peak,
            at,
            width,
            magnitude,
        } => Box::new(wtrace::synth_trace(&SynthSpec {
            requests: *requests,
            keys: *keys,
            duration: *duration,
            zipf_exponent: *zipf,
            seed,
            shape: SynthShape::FlashCrowd {
                peak_to_trough: *peak,
                at: *at,
                width: *width,
                magnitude: *magnitude,
            },
            key_offset: 0,
        })),
        WorkloadSpec::DeployWaves {
            requests,
            keys,
            duration,
            zipf,
            waves,
            window,
        } => Box::new(wtrace::synth_trace(&SynthSpec {
            requests: *requests,
            keys: *keys,
            duration: *duration,
            zipf_exponent: *zipf,
            seed,
            shape: SynthShape::DeployWaves {
                waves: *waves,
                window: *window,
            },
            key_offset: 0,
        })),
        WorkloadSpec::MultiTenant {
            tenants,
            requests,
            keys,
            duration,
            zipf,
        } => Box::new(wtrace::multi_tenant_trace(
            *tenants,
            &SynthSpec {
                requests: *requests,
                keys: *keys,
                duration: *duration,
                zipf_exponent: *zipf,
                seed,
                shape: SynthShape::Flat,
                key_offset: 0,
            },
        )),
        WorkloadSpec::AzureCsv { path, interval } => {
            let file = std::fs::File::open(path)
                .map_err(|e| format!("cannot open trace '{path}': {e}"))?;
            let (merged, _names) =
                wtrace::azure_csv_trace(std::io::BufReader::new(file), *interval)
                    .map_err(|e| format!("{path}: {e}"))?;
            Box::new(merged)
        }
        WorkloadSpec::OpenDc { path } => {
            let file = std::fs::File::open(path)
                .map_err(|e| format!("cannot open trace '{path}': {e}"))?;
            Box::new(OpenDcTrace::new(std::io::BufReader::new(file)))
        }
    })
}

/// The exact per-request series a [`ReportAggregator`] keeps, if asked.
enum Series {
    /// Not asked for: nothing is kept per request.
    Off,
    /// `(arrival seq, ms)` of every request so far, at most
    /// [`LATENCY_DETAIL_CAP`] of them.
    Kept(Vec<(u64, f64)>),
    /// Asked for, but dropped once the run passed the cap.
    Dropped,
}

/// Streaming report builder: O(1) per request, bounded memory.
///
/// The gateway's telemetry already holds every request's end-to-end latency
/// (`gateway/e2e`) and the request and cold-start tallies, and
/// [`Self::finish`] is handed their snapshot, so the report's count, mean,
/// quantiles and cold fraction are read from there. Kept here is only what
/// telemetry does not have: the failed count and, when the caller asks for
/// it, up to [`LATENCY_DETAIL_CAP`] exact per-request samples for the
/// verbose series.
struct ReportAggregator {
    series: Series,
    failed: u64,
}

impl ReportAggregator {
    fn new(series: bool) -> ReportAggregator {
        ReportAggregator {
            series: if series {
                Series::Kept(Vec::new())
            } else {
                Series::Off
            },
            failed: 0,
        }
    }

    fn observe(&mut self, seq: u64, t: &RequestTrace) {
        if t.failed {
            self.failed += 1;
        }
        if let Series::Kept(detail) = &mut self.series {
            if detail.len() == LATENCY_DETAIL_CAP {
                self.series = Series::Dropped;
            } else {
                detail.push((seq, t.total().as_millis_f64()));
            }
        }
    }

    /// Folds another worker's aggregate into this one. The exact series
    /// survives only if every input kept it AND the merged total is still
    /// within the cap — the same rule a single sequential aggregator applies
    /// to the combined stream.
    fn merge(&mut self, other: ReportAggregator) {
        self.failed += other.failed;
        match (&mut self.series, other.series) {
            (Series::Off, _) => {}
            (Series::Kept(mine), Series::Kept(theirs))
                if mine.len() + theirs.len() <= LATENCY_DETAIL_CAP =>
            {
                mine.extend(theirs)
            }
            (series, _) => *series = Series::Dropped,
        }
    }

    fn finish(
        self,
        live_at_end: usize,
        background: SimDuration,
        metrics: MetricsSnapshot,
    ) -> ScenarioReport {
        let e2e = metrics.histograms.iter().find(|(n, _)| n == "gateway/e2e");
        let (mean_ns, p50_ns, p99_ns) =
            e2e.map_or((0, 0, 0), |(_, h)| (h.mean_ns, h.p50_ns, h.p99_ns));
        let ms = |ns| SimDuration::from_nanos(ns).as_millis_f64();
        let requests = metrics.counter("gateway/requests").unwrap_or(0);
        let cold = metrics.counter("gateway/cold_starts").unwrap_or(0);
        let count = requests.max(1) as f64;
        let (latencies_ms, series_dropped) = match self.series {
            // Finishes arrive in completion order; the report series is in
            // arrival order (global sequence numbers, so a merged parallel
            // run sorts into the same order as the sequential one).
            Series::Kept(mut detail) => {
                detail.sort_by_key(|(seq, _)| *seq);
                (detail.into_iter().map(|(_, ms)| ms).collect(), false)
            }
            Series::Off => (Vec::new(), false),
            Series::Dropped => (Vec::new(), true),
        };
        ScenarioReport {
            requests: requests as usize,
            mean_ms: ms(mean_ns),
            p50_ms: ms(p50_ns),
            p99_ms: ms(p99_ns),
            cold_fraction: cold as f64 / count,
            failed_fraction: self.failed as f64 / count,
            live_at_end,
            background_s: background.as_secs_f64(),
            latencies_ms,
            series_dropped,
            metrics,
            limits_coupled: false,
        }
    }
}

/// Expands the scenario's function declarations (× replicas) into the flat
/// slot list all gateways are registered from: route name, app profile and
/// fully resolved container configuration. Slot index == the
/// `config_id % slots` routing index used by every driver. Each spec is
/// built the way a library user deploys one (`from_app`, `named`,
/// `with_config`), so a replay's set-up allocates what a hand-built
/// deployment of the same slots does.
fn slot_specs(scenario: &Scenario) -> Result<Vec<FunctionSpec>, String> {
    let mut slots = Vec::new();
    for decl in &scenario.functions {
        let app = build_app(decl)?;
        for i in 0..decl.replicas {
            let name = if decl.replicas == 1 {
                decl.name.clone()
            } else {
                format!("{}#{i}", decl.name)
            };
            let mut config = app.config_with_network(decl.network);
            for (k, v) in &decl.env {
                config.exec.env.insert(k.clone(), v.clone());
            }
            if decl.replicas > 1 {
                // Distinct env per replica ⇒ distinct runtime key: replicas
                // are how a scenario scales to 10k+ keys.
                config
                    .exec
                    .env
                    .insert("HOTC_REPLICA".to_string(), i.to_string());
            }
            slots.push(
                FunctionSpec::from_app(app.clone())
                    .named(name)
                    .with_config(config),
            );
        }
    }
    Ok(slots)
}

/// Builds a gateway and moves `slots` into it — all of them, or (for a
/// replay worker) the ones [`deal_slots`] gave it. Fault injection is seeded
/// identically either way; crash draws decompose per-config, so a worker
/// owning a subset of slots sees exactly the draws a one-worker run dealt
/// those configs.
fn build_gateway_slots<P: RuntimeProvider>(
    provider: P,
    scenario: &Scenario,
    slots: Vec<FunctionSpec>,
) -> Gateway<P> {
    let mut engine = ContainerEngine::with_local_images(scenario.hardware.clone());
    if scenario.crash_rate > 0.0 {
        engine.set_fault_injection(scenario.crash_rate, scenario.seed);
    }
    let mut gateway = Gateway::new(engine, provider);
    for slot in slots {
        gateway.register(slot);
    }
    gateway
}

/// Deals each slot to the worker `assign` names, in slot order, so every
/// worker's gateway can own its specs instead of cloning them.
fn deal_slots(
    slots: Vec<FunctionSpec>,
    assign: &[usize],
    threads: usize,
) -> Vec<Vec<FunctionSpec>> {
    let mut dealt: Vec<Vec<FunctionSpec>> = (0..threads)
        .map(|w| Vec::with_capacity(assign.iter().filter(|&&a| a == w).count()))
        .collect();
    for (slot, &w) in slots.into_iter().zip(assign) {
        dealt[w].push(slot);
    }
    dealt
}

/// A driver body, generic over the provider the scenario selected.
///
/// The two drivers (the key-partitioned replay and its materialized
/// [`reference`]) differ in how they feed arrivals through the gateway but
/// share everything else: the provider dispatch below, the gateway
/// construction, and the [`ReportAggregator`]. `make` builds one provider
/// instance; the replay calls it once per worker, the reference exactly once.
trait ProviderOp {
    type Out;
    fn run<P>(self, make: &(dyn Fn() -> P + Sync)) -> Self::Out
    where
        P: RuntimeProvider + Send + 'static;
}

/// HotC's pool limits are global state — the one thing a key-partitioned
/// replay cannot share. Each of `threads` workers gets a ceil-divided share
/// of `max_live` so the aggregate cap matches the configured total; with one
/// worker this reproduces the configured limits exactly.
fn split_limits(threads: usize) -> PoolLimits {
    let defaults = PoolLimits::default();
    PoolLimits::new(
        defaults.max_live.div_ceil(threads).max(1),
        defaults.mem_threshold,
    )
}

/// The single provider dispatch shared by both drivers: matches the scenario's
/// provider spec once and hands `op` a constructor for it. The keep-alive
/// baselines are `HotC` under another scaling policy, without limits.
fn dispatch_provider<O: ProviderOp>(spec: &ProviderSpec, threads: usize, op: O) -> O::Out {
    match spec {
        ProviderSpec::HotC => op.run(&move || {
            HotC::new(HotCConfig {
                limits: split_limits(threads),
                ..Default::default()
            })
        }),
        ProviderSpec::HotCFuzzy => op.run(&move || {
            HotC::new(HotCConfig {
                key_policy: KeyPolicy::Fuzzy,
                limits: split_limits(threads),
                ..Default::default()
            })
        }),
        ProviderSpec::ColdStart => op.run(&ColdStartAlways::new),
        ProviderSpec::KeepAlive(ttl) => op.run(&|| HotC::fixed_keepalive(*ttl)),
        ProviderSpec::Warmup(period) => op.run(&|| HotC::periodic_warmup(*period)),
        ProviderSpec::Hybrid => op.run(&HotC::hybrid_keepalive),
    }
}

/// Assigns each slot to a worker such that slots whose runtimes can be
/// reused for one another (one runtime key under the provider's matching
/// policy) always land on the same worker — the partition unit is the
/// reuse-closure, so no warm container is ever visible from two workers.
/// Key groups are dealt round-robin in first-appearance order, which is
/// interning order.
fn partition_slots(slots: &[FunctionSpec], policy: KeyPolicy, threads: usize) -> Vec<usize> {
    // One worker owns every slot; interning each slot's configuration to
    // learn that is a clone per function for nothing.
    if threads <= 1 {
        return vec![0; slots.len()];
    }
    let mut interner = KeyInterner::new(policy);
    slots
        .iter()
        .map(|slot| interner.intern(&slot.config).index() % threads)
        .collect()
}

/// The runtime-key matching policy the scenario's provider reuses under.
/// Every non-fuzzy provider pools per exact configuration.
fn provider_policy(spec: &ProviderSpec) -> KeyPolicy {
    match spec {
        ProviderSpec::HotCFuzzy => KeyPolicy::Fuzzy,
        _ => KeyPolicy::Exact,
    }
}

struct ReplayOp<'a> {
    scenario: &'a Scenario,
    threads: usize,
    /// Keep the per-request series (`hotc-sim --verbose`).
    series: bool,
}

impl ProviderOp for ReplayOp<'_> {
    type Out = Result<ScenarioReport, String>;
    fn run<P>(self, make: &(dyn Fn() -> P + Sync)) -> Self::Out
    where
        P: RuntimeProvider + Send + 'static,
    {
        let scenario = self.scenario;
        let (threads, series) = (self.threads, self.series);
        let slots = slot_specs(scenario)?;
        let n_slots = slots.len();
        let names: Arc<Vec<String>> = Arc::new(slots.iter().map(|s| s.name.clone()).collect());
        let assign: Arc<Vec<usize>> = Arc::new(partition_slots(
            &slots,
            provider_policy(&scenario.provider),
            threads,
        ));
        let dealt = deal_slots(slots, &assign, threads);

        let results = run_partitioned(dealt, |w, slots| -> Result<_, String> {
            // Workload generation is deterministic: every worker rebuilds
            // the full stream and filters it down to its own slots, keeping
            // the global arrival indices for tie-breaking and the series.
            let mut trace = build_trace(&scenario.workload, n_slots, scenario.seed)?;
            // An empty *stream* is an error (every worker sees the same one,
            // before it builds a gateway); an empty partition is not.
            if trace.peek().is_none() {
                return Err(match trace.take_error() {
                    Some(e) => format!("trace source error: {e}"),
                    None => "workload generated no arrivals".to_string(),
                });
            }
            let mut part = PartitionTrace::new(trace, Arc::clone(&assign), w);
            let gateway = build_gateway_slots(make(), scenario, slots);
            let names = Arc::clone(&names);
            let mut agg = ReportAggregator::new(series);
            let out = run_trace_partition(
                gateway,
                &mut part,
                move |config_id| names[config_id % names.len()].clone(),
                scenario.tick,
                |seq, t| agg.observe(seq, t),
            );
            if let Some(e) = out.trace_error {
                return Err(format!("trace source error: {e}"));
            }
            Ok((out, agg))
        });

        // Deterministic reduction, in worker-index order, into worker 0's
        // aggregator and registry — so a one-worker run copies nothing.
        let mut workers = results.into_iter();
        let (base, mut agg) = workers.next().ok_or("replay ran no workers")??;
        let metrics = base.gateway.metrics();
        let mut live_at_end = base.gateway.engine().live_count();
        let mut background = base.gateway.provider().background_cost();
        let mut evicted = base.gateway.provider().forced_evictions() > 0;
        for result in workers {
            let (out, worker_agg) = result?;
            agg.merge(worker_agg);
            live_at_end += out.gateway.engine().live_count();
            background += out.gateway.provider().background_cost();
            evicted |= out.gateway.provider().forced_evictions() > 0;
            // Telemetry merges at the registry level (raw counters, stage
            // histograms, series); unions and summaries are synthesized
            // from the merged raw state at snapshot time.
            metrics.absorb(out.gateway.metrics());
        }
        let mut report = agg.finish(live_at_end, background, metrics.snapshot());
        report.limits_coupled = threads > 1 && evicted;
        Ok(report)
    }
}

/// Runs a scenario end to end, streaming arrivals from the workload source —
/// the replay path never materializes the full arrival vector, and keeps
/// nothing per request or per tick beyond what the report prints, so
/// `latencies_ms` stays empty ([`run_scenario_with_series`] fills it).
///
/// The replay is key-partitioned across `scenario.replay_threads` workers
/// (default one, which runs inline and owns every slot); the merged report is
/// byte-identical (rendered text and metrics JSON) at every worker count. See
/// `DESIGN.md` §12 for the protocol and the one approximation (global pool
/// limits, surfaced via [`ScenarioReport::limits_coupled`]).
pub fn run_scenario(scenario: &Scenario) -> Result<ScenarioReport, String> {
    replay(scenario, false)
}

/// [`run_scenario`], also keeping the per-request latency series that
/// `render(true)` prints, up to [`LATENCY_DETAIL_CAP`] requests.
pub fn run_scenario_with_series(scenario: &Scenario) -> Result<ScenarioReport, String> {
    replay(scenario, true)
}

fn replay(scenario: &Scenario, series: bool) -> Result<ScenarioReport, String> {
    let threads = scenario.replay_threads.unwrap_or(1).max(1);
    let op = ReplayOp {
        scenario,
        threads,
        series,
    };
    dispatch_provider(&scenario.provider, threads, op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::DEMO_SCENARIO;
    use metrics_lite::MetricsRegistry;

    #[test]
    fn demo_scenario_runs() {
        let scenario = Scenario::parse(DEMO_SCENARIO).unwrap();
        let report = run_scenario(&scenario).unwrap();
        // 18 rounds × 8 + 4 bursts × 72 extra = 144 + 288 = 432 requests.
        assert_eq!(report.requests, 8 * 18 + 4 * 72);
        assert!(report.cold_fraction < 0.5);
        assert!(report.mean_ms > 0.0);
        assert_eq!(report.failed_fraction, 0.0);
    }

    #[test]
    fn cold_start_scenario_all_cold() {
        let text = DEMO_SCENARIO.replace("provider = hotc", "provider = cold-start");
        let scenario = Scenario::parse(&text).unwrap();
        let report = run_scenario(&scenario).unwrap();
        assert!((report.cold_fraction - 1.0).abs() < 1e-9);
        assert_eq!(report.live_at_end, 0);
    }

    #[test]
    fn crash_rate_flows_through() {
        let text = DEMO_SCENARIO.replace("seed     = 42", "seed = 42\ncrash_rate = 0.3");
        let scenario = Scenario::parse(&text).unwrap();
        assert!((scenario.crash_rate - 0.3).abs() < 1e-12);
        let report = run_scenario(&scenario).unwrap();
        assert!(report.failed_fraction > 0.15, "{}", report.failed_fraction);
    }

    #[test]
    fn unknown_app_is_a_runner_error() {
        let text = DEMO_SCENARIO.replace("app     = qr-code", "app = warp-drive");
        let scenario = Scenario::parse(&text).unwrap();
        let err = run_scenario(&scenario).unwrap_err();
        assert!(err.contains("warp-drive"));
    }

    #[test]
    fn multi_function_poisson_scenario() {
        let text = "\
provider = hotc
seed = 5

[function alpha]
app = qr-code
lang = python

[function beta]
app = qr-code
lang = go

[workload]
pattern = poisson
rate = 2.0
duration = 120s
";
        let scenario = Scenario::parse(text).unwrap();
        let report = run_scenario(&scenario).unwrap();
        assert!(report.requests > 100);
        assert!(report.cold_fraction < 0.2);
    }

    /// Regression: `replay_threads` in the scenario is honoured by the
    /// library entry point, not only by the binary. 640 distinct keys under
    /// HotC's 500-container cap make limit enforcement fire at any worker
    /// count; only a partitioned run flags the approximation.
    #[test]
    fn run_scenario_reads_replay_threads() {
        let text = "\
provider = hotc
seed = 9
tick = 30s

[function svc]
app = random-number
replicas = 640

[workload]
pattern = parallel
threads = 640
per_thread = 2
interval = 30s
";
        let mut scenario = Scenario::parse(text).unwrap();
        assert_eq!(scenario.replay_threads, None);
        let one = run_scenario(&scenario).unwrap();
        assert!(!one.limits_coupled);
        scenario.replay_threads = Some(2);
        let two = run_scenario(&scenario).unwrap();
        assert!(two.limits_coupled, "two workers must split the pool cap");
        assert_eq!(two.requests, one.requests);
    }

    /// The summary line is read from the snapshot it ships with — exactly,
    /// at one replay worker and at two — and the snapshot's stage
    /// decomposition reconciles with the per-request series.
    #[test]
    fn report_metrics_reconcile_with_summary() {
        let mut scenario = Scenario::parse(DEMO_SCENARIO).unwrap();
        for replay_threads in [1, 2] {
            scenario.replay_threads = Some(replay_threads);
            let report = run_scenario_with_series(&scenario).unwrap();
            let snap = &report.metrics;
            let requests = snap.counter("gateway/requests").unwrap();
            assert_eq!(requests, report.requests as u64);
            let cold = snap.counter("gateway/cold_starts").unwrap() as f64;
            assert_eq!(cold / requests as f64, report.cold_fraction);
            let (_, e2e) = snap
                .histograms
                .iter()
                .find(|(n, _)| n == "gateway/e2e")
                .unwrap();
            assert_eq!(e2e.count, requests);
            let ms = |ns: u64| ns as f64 / 1e6;
            assert_eq!(
                (ms(e2e.mean_ns), ms(e2e.p50_ns), ms(e2e.p99_ns)),
                (report.mean_ms, report.p50_ms, report.p99_ms)
            );
            // The stage decomposition covers every request and sums to the
            // recorded e2e totals.
            let total_ns: u64 = report
                .latencies_ms
                .iter()
                .map(|ms| (ms * 1_000_000.0).round() as u64)
                .sum();
            assert_eq!(snap.stage_count("all", metrics_lite::Stage::Exec), requests);
            assert_eq!(snap.scope_total_ns("all"), total_ns);
            assert_eq!(e2e.sum_ns, total_ns);
            // Cold starts ran the runtime-init stage at least once.
            assert!(snap.stage_count("all", metrics_lite::Stage::RuntimeInit) > 0);
        }
    }

    fn synthetic_trace(total: SimDuration) -> RequestTrace {
        let t0 = simclock::SimTime::ZERO;
        RequestTrace {
            t1_gateway_in: t0,
            t2_watchdog_in: t0,
            t3_func_start: t0,
            t4_func_end: t0 + total,
            t5_watchdog_out: t0 + total,
            t6_gateway_out: t0 + total,
            cold: false,
            first_exec: false,
            failed: false,
        }
    }

    /// `n` two-millisecond requests numbered from `base`, series kept.
    fn fill(n: usize, base: u64) -> ReportAggregator {
        let tr = synthetic_trace(SimDuration::from_millis(2));
        let mut agg = ReportAggregator::new(true);
        for i in 0..n {
            agg.observe(base + i as u64, &tr);
        }
        agg
    }

    fn series_len(agg: ReportAggregator) -> usize {
        let report = agg.finish(0, SimDuration::ZERO, MetricsRegistry::new().snapshot());
        report.latencies_ms.len()
    }

    #[test]
    fn series_is_exact_up_to_the_detail_cap_and_dropped_past_it() {
        assert_eq!(series_len(fill(LATENCY_DETAIL_CAP, 0)), LATENCY_DETAIL_CAP);
        assert_eq!(series_len(fill(LATENCY_DETAIL_CAP + 1, 0)), 0);
    }

    #[test]
    fn merged_detail_obeys_the_sequential_cap_rule() {
        // Two workers each under the cap, but whose union exceeds it: the
        // merge drops the exact series exactly as one sequential aggregator
        // fed the combined stream would.
        let mut a = fill(LATENCY_DETAIL_CAP / 2, 0);
        a.merge(fill(
            LATENCY_DETAIL_CAP / 2 + 1,
            (LATENCY_DETAIL_CAP / 2) as u64,
        ));
        assert_eq!(series_len(a), 0);
        // Under the cap the merged series is the full union, sorted back into
        // global arrival order even when a later worker held earlier seqs.
        let mut c = fill(10, 10);
        c.merge(fill(10, 0));
        assert_eq!(series_len(c), 20);
    }

    /// Past the cap the series is gone, so a verbose render prints only the
    /// summary — the same bytes as a plain one — and the report says why,
    /// naming the request count and the cap.
    #[test]
    fn a_dropped_series_is_noted() {
        let registry = MetricsRegistry::new();
        let requests = LATENCY_DETAIL_CAP + 1;
        registry.counter("gateway/requests").add(requests as u64);
        let report = fill(requests, 0).finish(0, SimDuration::ZERO, registry.snapshot());
        assert!(report.latencies_ms.is_empty());
        assert_eq!(report.render(true), report.render(false));
        let note = report.series_note().expect("dropped series is noted");
        assert!(note.contains(&requests.to_string()), "{note}");
        assert!(note.contains(&LATENCY_DETAIL_CAP.to_string()), "{note}");
        // At the cap the series is whole, and nothing is noted.
        assert_eq!(
            fill(LATENCY_DETAIL_CAP, 0)
                .finish(0, SimDuration::ZERO, registry.snapshot())
                .series_note(),
            None
        );
    }

    #[test]
    fn an_unasked_series_is_neither_kept_nor_noted() {
        let mut agg = ReportAggregator::new(false);
        let tr = synthetic_trace(SimDuration::from_millis(2));
        for i in 0..10 {
            agg.observe(i, &tr);
        }
        agg.merge(fill(10, 10));
        let report = agg.finish(0, SimDuration::ZERO, MetricsRegistry::new().snapshot());
        assert!(report.latencies_ms.is_empty());
        assert_eq!(report.series_note(), None);
    }

    #[test]
    fn report_renders() {
        let scenario = Scenario::parse(DEMO_SCENARIO).unwrap();
        let plain = run_scenario(&scenario).unwrap();
        assert!(plain.latencies_ms.is_empty());
        let report = run_scenario_with_series(&scenario).unwrap();
        assert_eq!(report.latencies_ms.len(), report.requests);
        let text = report.render(false);
        assert!(text.contains("scenario summary"));
        assert_eq!(plain.render(false), text);
        let verbose = report.render(true);
        assert!(verbose.contains("per-request latency"));
    }
}
