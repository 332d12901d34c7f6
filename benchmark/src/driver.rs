//! The benchmark's own driver: set-up, replay, report.
//!
//! Two replay paths exist on purpose:
//!
//! * the **timed** pass of the single-node workloads calls
//!   [`hotc_bench::run_trace`] — the loop every real run uses;
//! * the **traced** pass (and both passes of `cluster_affinity`, which has no
//!   scenario form) runs [`replay`], a copy of that loop built only from
//!   public functions, with a span around every call into a layer. It keeps
//!   `run_trace`'s semantics exactly — ticks from t = 0 through
//!   `last arrival + 2 × tick`, tick < arrival < finish at equal instants,
//!   finishes ordered by `(t4, arrival seq)` — which the benchmark checks on
//!   every invocation by comparing metrics snapshots byte for byte.

use crate::catalogue::Workload;
use crate::timed::Timed;
use crate::trace::{now, Span, Tracer};
use containersim::{ContainerEngine, HardwareProfile, LanguageRuntime};
use faas::gateway::Gateway;
use faas::{AppProfile, ColdStartAlways, FunctionSpec, InFlight, RequestTrace, RuntimeProvider};
use hotc::HotC;
use hotc_cli::scenario::{ProviderSpec, Scenario, WorkloadSpec};
use hotc_cluster::{Cluster, ClusterInFlight, SchedulePolicy};
use metrics_lite::MetricsRegistry;
use simclock::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;
use stdshim::ToJson;
use workloads::trace::{synth_trace, SynthShape, SynthSpec, Trace};

/// `--smoke` divides every workload's request and key counts by this.
pub const SMOKE_DIVISOR: u64 = 10;

/// Input of one repetition.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// The workload.
    pub workload: &'static Workload,
    /// Seed for trace synthesis (and cluster placement).
    pub seed: u64,
    /// Whether sizes are divided by [`SMOKE_DIVISOR`].
    pub smoke: bool,
}

impl RunSpec {
    fn scale(&self, size: u64) -> u64 {
        if self.smoke {
            (size / SMOKE_DIVISOR).max(1)
        } else {
            size
        }
    }
}

/// What one repetition produced. `sim_*` fields are simulated statistics;
/// the `*_s` timings are host seconds.
#[derive(Debug, Clone)]
pub struct RepOutcome {
    /// Host time of the set-up phase.
    pub setup_s: f64,
    /// Host time from the first arrival pulled to the report rendered.
    pub replay_report_s: f64,
    /// Arrivals pulled from the trace.
    pub arrivals: u64,
    /// Requests whose finish event ran.
    pub finished: u64,
    /// Finished requests whose trace is `failed`.
    pub failed: u64,
    /// Finished requests that cold-started.
    pub cold: u64,
    /// Requests / cold starts as the gateway(s) counted them.
    pub gateway_requests: u64,
    /// Cold starts as the gateway(s) counted them.
    pub gateway_cold_starts: u64,
    /// Engine `live_count()` at the end (summed over nodes).
    pub live_at_end: usize,
    /// Peak of the per-tick live samples.
    pub live_peak: usize,
    /// Mean of the per-tick live samples.
    pub live_mean: f64,
    /// Ticks run.
    pub ticks: u64,
    /// High-water mark of in-flight requests.
    pub max_inflight: usize,
    /// Provider background work (sim seconds); 0 for the cluster.
    pub background_s: f64,
    /// Containers force-evicted by pool limits; 0 for the cluster.
    pub forced_evictions: u64,
    /// Cluster only: max/mean of per-node completed requests.
    pub imbalance: f64,
    /// Error the trace source surfaced.
    pub trace_error: Option<String>,
    /// `gateway/e2e` mean (sim ms).
    pub sim_mean_ms: f64,
    /// `gateway/e2e` median (sim ms).
    pub sim_p50_ms: f64,
    /// `gateway/e2e` p99 (sim ms).
    pub sim_p99_ms: f64,
    /// The metrics snapshot, pretty-printed as `--metrics-out` writes it.
    pub snapshot_json: String,
    /// The rendered one-line summary.
    pub summary: String,
}

#[derive(Default)]
struct Tally {
    finished: u64,
    failed: u64,
    cold: u64,
}

impl Tally {
    fn observe(&mut self, t: &RequestTrace) {
        self.finished += 1;
        self.failed += u64::from(t.failed);
        self.cold += u64::from(t.cold);
    }
}

/// Parses the workload's scenario file and applies seed and size.
pub fn parse_scenario(spec: &RunSpec) -> Result<Scenario, String> {
    let text = spec
        .workload
        .scenario
        .ok_or_else(|| format!("workload '{}' has no scenario file", spec.workload.name))?;
    let mut scenario = Scenario::parse(text).map_err(|e| e.to_string())?;
    scenario.seed = spec.seed;
    for decl in &mut scenario.functions {
        decl.replicas = spec.scale(decl.replicas as u64) as usize;
    }
    match &mut scenario.workload {
        WorkloadSpec::Synth { requests, .. } | WorkloadSpec::FlashCrowd { requests, .. } => {
            *requests = spec.scale(*requests);
        }
        other => {
            return Err(format!(
                "benchmark scenarios are synth-shaped, got {other:?}"
            ))
        }
    }
    Ok(scenario)
}

/// One registered function slot, as `hotc_cli`'s runner expands them.
pub struct Slot {
    /// Route name (`name#i` for replicas).
    pub name: String,
    /// The app behind it.
    pub app: AppProfile,
    /// The resolved container configuration.
    pub config: containersim::ContainerConfig,
}

/// Expands the scenario's function declarations × replicas — the public-API
/// equivalent of the CLI runner's private `slot_specs` (same names, same
/// `HOTC_REPLICA` env), so the registered key population is identical.
pub fn slots(scenario: &Scenario) -> Result<Vec<Slot>, String> {
    let mut out = Vec::new();
    for decl in &scenario.functions {
        let app = match decl.app.as_str() {
            "random-number" => AppProfile::random_number(),
            "qr-code" => AppProfile::qr_code(decl.lang),
            other => return Err(format!("benchmark scenarios do not use app '{other}'")),
        };
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
                config
                    .exec
                    .env
                    .insert("HOTC_REPLICA".to_string(), i.to_string());
            }
            out.push(Slot {
                name,
                app: app.clone(),
                config,
            });
        }
    }
    Ok(out)
}

/// A built single-node deployment, ready to replay.
pub struct Prepared<P: RuntimeProvider> {
    gateway: Gateway<P>,
    names: Vec<String>,
    trace: Box<dyn Trace>,
    tick: SimDuration,
}

/// Builds engine, provider and gateway, registers every slot, constructs the
/// trace and peeks its first arrival.
pub fn build_single<P: RuntimeProvider>(
    scenario: &Scenario,
    provider: P,
) -> Result<Prepared<P>, String> {
    let slots = slots(scenario)?;
    let engine = ContainerEngine::with_local_images(scenario.hardware.clone());
    let mut gateway = Gateway::new(engine, provider);
    let mut names = Vec::with_capacity(slots.len());
    for slot in slots {
        names.push(slot.name.clone());
        gateway.register(
            FunctionSpec::from_app(slot.app)
                .named(slot.name)
                .with_config(slot.config),
        );
    }
    let mut trace = hotc_cli::build_trace(&scenario.workload, names.len(), scenario.seed)?;
    if trace.peek().is_none() {
        return Err("workload generated no arrivals".to_string());
    }
    Ok(Prepared {
        gateway,
        names,
        trace,
        tick: scenario.tick,
    })
}

/// Calls the generic `$f(args…, make)` with the constructor of the
/// scenario's provider. The constructors equal the CLI runner's for a
/// sequential run (`HotCConfig::default()` limits).
macro_rules! with_provider {
    ($scenario:expr, $f:ident($($arg:expr),*)) => {
        match $scenario.provider {
            ProviderSpec::HotC => $f($($arg,)* HotC::with_defaults),
            ProviderSpec::ColdStart => $f($($arg,)* ColdStartAlways::new),
            ref other => Err(format!("benchmark scenarios do not use provider {other:?}")),
        }
    };
}

/// Something [`replay`] can drive: one gateway or a cluster of them.
pub trait Target {
    /// The in-flight handle `begin` returns and `finish` consumes.
    type Ticket;
    /// Span recorded around `begin`.
    const BEGIN: Span;
    /// Span recorded around `finish`.
    const FINISH: Span;
    /// Span recorded around `tick`.
    const TICK: Span;
    /// The recorder.
    fn tracer(&mut self) -> &mut Tracer;
    /// Starts a request.
    fn begin(&mut self, function: &str, now: SimTime) -> Result<Self::Ticket, String>;
    /// When the ticket's function process stops.
    fn finish_at(ticket: &Self::Ticket) -> SimTime;
    /// Completes a request.
    fn finish(&mut self, ticket: Self::Ticket) -> Result<RequestTrace, String>;
    /// Provider maintenance.
    fn tick(&mut self, now: SimTime) -> Result<(), String>;
    /// Live containers right now.
    fn live_count(&self) -> usize;
    /// Appends to the `pool/live` series.
    fn sample_live(&self, now: SimTime, live: usize);
}

/// One gateway whose provider is wrapped in [`Timed`].
pub struct SingleNode<P: RuntimeProvider> {
    /// The gateway.
    pub gateway: Gateway<Timed<P>>,
}

impl<P: RuntimeProvider> Target for SingleNode<P> {
    type Ticket = InFlight;
    const BEGIN: Span = Span::FaasBegin;
    const FINISH: Span = Span::FaasFinish;
    const TICK: Span = Span::FaasTick;

    fn tracer(&mut self) -> &mut Tracer {
        &mut self.gateway.provider_mut().tracer
    }
    fn begin(&mut self, function: &str, now: SimTime) -> Result<InFlight, String> {
        self.gateway
            .begin(function, now)
            .map_err(|e| format!("request must begin: {e}"))
    }
    fn finish_at(ticket: &InFlight) -> SimTime {
        ticket.t4_func_end
    }
    fn finish(&mut self, ticket: InFlight) -> Result<RequestTrace, String> {
        self.gateway
            .finish(ticket)
            .map_err(|e| format!("request must finish: {e}"))
    }
    fn tick(&mut self, now: SimTime) -> Result<(), String> {
        self.gateway
            .tick(now)
            .map_err(|e| format!("tick must not fail: {e}"))
    }
    fn live_count(&self) -> usize {
        self.gateway.engine().live_count()
    }
    fn sample_live(&self, now: SimTime, live: usize) {
        self.gateway
            .metrics()
            .sample_series("pool/live", now, live as f64);
    }
}

/// The 64-node reuse-affinity cluster; all nodes record into one registry.
pub struct ClusterTarget {
    /// The cluster.
    pub cluster: Cluster,
    /// The registry every node gateway shares.
    pub metrics: Arc<MetricsRegistry>,
    /// The recorder (disabled in the timed pass).
    pub tracer: Tracer,
}

impl Target for ClusterTarget {
    type Ticket = ClusterInFlight;
    const BEGIN: Span = Span::ClusterBegin;
    const FINISH: Span = Span::ClusterFinish;
    const TICK: Span = Span::ClusterTick;

    fn tracer(&mut self) -> &mut Tracer {
        &mut self.tracer
    }
    fn begin(&mut self, function: &str, now: SimTime) -> Result<ClusterInFlight, String> {
        self.cluster
            .begin(function, now)
            .map_err(|e| format!("request must begin: {e}"))
    }
    fn finish_at(ticket: &ClusterInFlight) -> SimTime {
        ticket.inner.t4_func_end
    }
    fn finish(&mut self, ticket: ClusterInFlight) -> Result<RequestTrace, String> {
        self.cluster
            .finish(ticket)
            .map_err(|e| format!("request must finish: {e}"))
    }
    fn tick(&mut self, now: SimTime) -> Result<(), String> {
        self.cluster
            .tick(now)
            .map_err(|e| format!("tick must not fail: {e}"))
    }
    fn live_count(&self) -> usize {
        self.cluster.stats().live_containers
    }
    fn sample_live(&self, now: SimTime, live: usize) {
        self.metrics.sample_series("pool/live", now, live as f64);
    }
}

/// A pending finish, ordered by `(t4, arrival seq)` like `run_trace`'s.
struct FinishAt<K> {
    at: SimTime,
    seq: u64,
    ticket: K,
}

impl<K> PartialEq for FinishAt<K> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl<K> Eq for FinishAt<K> {}
impl<K> PartialOrd for FinishAt<K> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<K> Ord for FinishAt<K> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// What [`replay`] hands back (the target keeps the gateway state).
pub struct LoopOutcome {
    /// Arrivals replayed.
    pub arrivals: u64,
    /// Live containers sampled at every tick.
    pub live_samples: Vec<(SimTime, usize)>,
    /// High-water mark of in-flight requests.
    pub max_inflight: usize,
    /// Error the trace source surfaced.
    pub trace_error: Option<String>,
}

/// The benchmark's copy of `hotc_bench::run_trace`'s event loop, with a span
/// around each call into a layer. Requests carry their arrival sequence
/// number as span request id, ticks their index.
pub fn replay<T: Target>(
    target: &mut T,
    trace: &mut dyn Trace,
    route: impl Fn(usize) -> String,
    tick_interval: SimDuration,
    mut on_finish: impl FnMut(u64, &RequestTrace),
) -> Result<LoopOutcome, String> {
    if tick_interval.is_zero() {
        return Err("tick interval must be positive".to_string());
    }
    let mut live_samples = Vec::new();
    let mut pending: BinaryHeap<Reverse<FinishAt<T::Ticket>>> = BinaryHeap::new();
    let mut next_tick = SimTime::ZERO;
    let mut ticks_done = false;
    let mut last_arrival_at: Option<SimTime> = None;
    let mut count: u64 = 0;
    let mut max_inflight = 0usize;

    loop {
        let tick_at = if ticks_done { None } else { Some(next_tick) };
        target.tracer().enter(Span::Peek);
        let arrival_at = trace.peek().map(|a| a.at);
        target.tracer().exit();
        let finish_at = pending.peek().map(|Reverse(f)| f.at);

        let candidates = [
            tick_at.map(|t| (t, 0u8)),
            arrival_at.map(|t| (t, 1u8)),
            finish_at.map(|t| (t, 2u8)),
        ];
        let Some(&(now, class)) = candidates.iter().flatten().min() else {
            break;
        };

        match class {
            0 => {
                target.tracer().set_request(live_samples.len() as u64);
                target.tracer().enter(T::TICK);
                let ticked = target.tick(now);
                target.tracer().exit();
                target.tracer().clear_request();
                ticked?;
                let live = target.live_count();
                target.sample_live(now, live);
                live_samples.push((now, live));
                next_tick += tick_interval;
                if arrival_at.is_none() {
                    let horizon = last_arrival_at
                        .map(|last| last + tick_interval * 2)
                        .unwrap_or(SimTime::ZERO);
                    if next_tick > horizon {
                        ticks_done = true;
                    }
                }
            }
            1 => {
                target.tracer().enter(Span::NextArrival);
                let arrival = trace.next_arrival();
                target.tracer().exit();
                let arrival = arrival.ok_or("peeked arrival must exist")?;
                if last_arrival_at.is_some_and(|t| arrival.at < t) {
                    return Err("trace must be time-ordered".to_string());
                }
                last_arrival_at = Some(arrival.at);
                let seq = count;
                let function = route(arrival.config_id);
                target.tracer().set_request(seq);
                target.tracer().enter(T::BEGIN);
                let ticket = target.begin(&function, now);
                target.tracer().exit();
                target.tracer().clear_request();
                let ticket = ticket?;
                pending.push(Reverse(FinishAt {
                    at: T::finish_at(&ticket),
                    seq,
                    ticket,
                }));
                max_inflight = max_inflight.max(pending.len());
                count += 1;
            }
            _ => {
                let Reverse(f) = pending.pop().ok_or("peeked finish must exist")?;
                target.tracer().set_request(f.seq);
                target.tracer().enter(T::FINISH);
                let finished = target.finish(f.ticket);
                target.tracer().exit();
                target.tracer().clear_request();
                on_finish(f.seq, &finished?);
            }
        }
    }

    Ok(LoopOutcome {
        arrivals: count,
        live_samples,
        max_inflight,
        trace_error: trace.take_error(),
    })
}

/// End-of-run state read off the gateway(s), plus what the loop counted.
struct RunFacts {
    arrivals: u64,
    tally: Tally,
    gateway_requests: u64,
    gateway_cold_starts: u64,
    live_at_end: usize,
    live_samples: Vec<(SimTime, usize)>,
    max_inflight: usize,
    background_s: f64,
    forced_evictions: u64,
    imbalance: f64,
    trace_error: Option<String>,
}

/// The report phase: snapshot the registry, serialise it the way
/// `hotc-sim --metrics-out` does, render a summary line.
fn report(
    tracer: &mut Tracer,
    metrics: &MetricsRegistry,
    facts: RunFacts,
    setup_s: f64,
    replay_started: Instant,
) -> RepOutcome {
    tracer.enter(Span::Report);
    tracer.enter(Span::Snapshot);
    let snapshot = metrics.snapshot();
    tracer.exit();
    tracer.enter(Span::Json);
    let snapshot_json = snapshot.to_json().to_pretty_string();
    tracer.exit();
    let e2e = snapshot
        .histograms
        .iter()
        .find(|(name, _)| name == "gateway/e2e")
        .map(|&(_, h)| h);
    let ms = |ns: u64| ns as f64 / 1e6;
    let (sim_mean_ms, sim_p50_ms, sim_p99_ms) = e2e.map_or((0.0, 0.0, 0.0), |h| {
        (ms(h.mean_ns), ms(h.p50_ns), ms(h.p99_ns))
    });
    let ticks = facts.live_samples.len() as u64;
    let live_sum: usize = facts.live_samples.iter().map(|&(_, n)| n).sum();
    let live_mean = live_sum as f64 / ticks.max(1) as f64;
    let live_peak = facts
        .live_samples
        .iter()
        .map(|&(_, n)| n)
        .max()
        .unwrap_or(0);
    let finished = facts.tally.finished;
    let summary = format!(
        "requests {finished}  mean_ms {sim_mean_ms:.1}  p50_ms {sim_p50_ms:.1}  p99_ms {sim_p99_ms:.1}  \
         cold_frac {:.3}  failed_frac {:.3}  live_at_end {}  background_s {:.2}",
        facts.tally.cold as f64 / finished.max(1) as f64,
        facts.tally.failed as f64 / finished.max(1) as f64,
        facts.live_at_end,
        facts.background_s,
    );
    tracer.exit();
    let replay_report_s = now().duration_since(replay_started).as_secs_f64();
    RepOutcome {
        setup_s,
        replay_report_s,
        arrivals: facts.arrivals,
        finished,
        failed: facts.tally.failed,
        cold: facts.tally.cold,
        gateway_requests: facts.gateway_requests,
        gateway_cold_starts: facts.gateway_cold_starts,
        live_at_end: facts.live_at_end,
        live_peak,
        live_mean,
        ticks,
        max_inflight: facts.max_inflight,
        background_s: facts.background_s,
        forced_evictions: facts.forced_evictions,
        imbalance: facts.imbalance,
        trace_error: facts.trace_error,
        sim_mean_ms,
        sim_p50_ms,
        sim_p99_ms,
        snapshot_json,
        summary,
    }
}

fn single_facts<P: RuntimeProvider>(
    gateway: &Gateway<P>,
    arrivals: u64,
    tally: Tally,
    live_samples: Vec<(SimTime, usize)>,
    max_inflight: usize,
    trace_error: Option<String>,
) -> RunFacts {
    let stats = gateway.stats();
    RunFacts {
        arrivals,
        tally,
        gateway_requests: stats.requests,
        gateway_cold_starts: stats.cold_starts,
        live_at_end: gateway.engine().live_count(),
        live_samples,
        max_inflight,
        background_s: gateway.provider().background_cost().as_secs_f64(),
        forced_evictions: gateway.provider().forced_evictions(),
        imbalance: 0.0,
        trace_error,
    }
}

/// Timed pass, single node, from the parsed scenario on (`t0` is when
/// set-up began): build, `hotc_bench::run_trace`, report.
fn timed_single<P: RuntimeProvider + 'static>(
    scenario: &Scenario,
    t0: Instant,
    make: fn() -> P,
) -> Result<RepOutcome, String> {
    let Prepared {
        gateway,
        names,
        mut trace,
        tick,
    } = build_single(scenario, make())?;
    let t1 = now();
    let mut tally = Tally::default();
    let out = hotc_bench::run_trace(
        gateway,
        trace.as_mut(),
        move |config_id| names[config_id % names.len()].clone(),
        tick,
        |_, t| tally.observe(t),
    );
    let facts = single_facts(
        &out.gateway,
        out.requests,
        tally,
        out.live_samples,
        out.max_inflight,
        out.trace_error,
    );
    Ok(report(
        &mut Tracer::disabled(),
        out.gateway.metrics(),
        facts,
        t1.duration_since(t0).as_secs_f64(),
        t1,
    ))
}

/// Traced pass, single node, from the parsed scenario on: the same phases
/// through [`replay`], every layer boundary a span in `tracer` (whose
/// `driver.run` span the caller opened; handed back for the next repetition).
fn traced_single<P: RuntimeProvider + 'static>(
    scenario: &Scenario,
    t0: Instant,
    mut tracer: Tracer,
    make: fn() -> P,
) -> Result<(RepOutcome, Tracer), String> {
    tracer.enter(Span::Build);
    let Prepared {
        gateway,
        names,
        mut trace,
        tick,
    } = build_single(
        scenario,
        Timed {
            inner: make(),
            tracer,
        },
    )?;
    let mut node = SingleNode { gateway };
    node.tracer().exit();
    let t1 = now();
    node.tracer().enter(Span::Replay);
    let mut tally = Tally::default();
    let out = replay(
        &mut node,
        trace.as_mut(),
        move |config_id| names[config_id % names.len()].clone(),
        tick,
        |_, t| tally.observe(t),
    );
    node.tracer().exit();
    let out = out?;
    let mut tracer = std::mem::replace(node.tracer(), Tracer::disabled());
    let facts = single_facts(
        &node.gateway,
        out.arrivals,
        tally,
        out.live_samples,
        out.max_inflight,
        out.trace_error,
    );
    let rep = report(
        &mut tracer,
        node.gateway.metrics(),
        facts,
        t1.duration_since(t0).as_secs_f64(),
        t1,
    );
    tracer.exit();
    Ok((rep, tracer))
}

/// `cluster_affinity`'s shape (no scenario syntax exists for clusters).
pub mod cluster_shape {
    /// HotC nodes.
    pub const NODES: usize = 64;
    /// Functions registered cluster-wide.
    pub const FUNCTIONS: usize = 2000;
    /// Requests per repetition.
    pub const REQUESTS: u64 = 160_000;
    /// Simulated span, minutes.
    pub const DURATION_MIN: u64 = 360;
    /// Zipf exponent over functions.
    pub const ZIPF: f64 = 1.1;
    /// Diurnal peak-to-trough ratio.
    pub const PEAK: f64 = 3.0;
    /// Maintenance tick, seconds.
    pub const TICK_S: u64 = 30;
}

/// The function population `cluster_affinity` registers.
pub fn cluster_slots(spec: &RunSpec) -> Vec<Slot> {
    (0..spec.scale(cluster_shape::FUNCTIONS as u64) as usize)
        .map(|f| {
            let app = AppProfile::qr_code(LanguageRuntime::Go);
            let mut config = app.default_config();
            config.exec.env.insert("FN".to_string(), f.to_string());
            Slot {
                name: format!("fn-{f}"),
                app,
                config,
            }
        })
        .collect()
}

struct PreparedCluster {
    target: ClusterTarget,
    names: Vec<String>,
    trace: Box<dyn Trace>,
}

fn build_cluster(spec: &RunSpec, tracer: Tracer) -> Result<PreparedCluster, String> {
    let metrics = Arc::new(MetricsRegistry::new());
    let gateways = (0..cluster_shape::NODES)
        .map(|i| {
            let engine = ContainerEngine::with_local_images(HardwareProfile::server());
            (
                format!("node-{i}"),
                Gateway::with_metrics(engine, HotC::with_defaults(), Arc::clone(&metrics)),
            )
        })
        .collect();
    let mut cluster = Cluster::new(SchedulePolicy::ReuseAffinity, gateways);
    cluster.set_placement_seed(spec.seed);
    let slots = cluster_slots(spec);
    let mut names = Vec::with_capacity(slots.len());
    for slot in slots {
        names.push(slot.name.clone());
        cluster.register_everywhere(
            FunctionSpec::from_app(slot.app)
                .named(slot.name)
                .with_config(slot.config),
        );
    }
    let mut trace: Box<dyn Trace> = Box::new(synth_trace(&SynthSpec {
        requests: spec.scale(cluster_shape::REQUESTS),
        keys: names.len(),
        duration: SimDuration::from_mins(cluster_shape::DURATION_MIN),
        zipf_exponent: cluster_shape::ZIPF,
        seed: spec.seed,
        shape: SynthShape::Diurnal {
            peak_to_trough: cluster_shape::PEAK,
        },
        key_offset: 0,
    }));
    if trace.peek().is_none() {
        return Err("workload generated no arrivals".to_string());
    }
    Ok(PreparedCluster {
        target: ClusterTarget {
            cluster,
            metrics,
            tracer,
        },
        names,
        trace,
    })
}

/// Either pass of `cluster_affinity`: the timed pass hands in
/// [`Tracer::disabled`], the traced pass a live recorder.
pub fn run_cluster(spec: &RunSpec, mut tracer: Tracer) -> Result<(RepOutcome, Tracer), String> {
    let t0 = now();
    tracer.enter(Span::Run);
    tracer.enter(Span::Build);
    let PreparedCluster {
        mut target,
        names,
        mut trace,
    } = build_cluster(spec, tracer)?;
    target.tracer.exit();
    let t1 = now();
    target.tracer.enter(Span::Replay);
    let mut tally = Tally::default();
    let out = replay(
        &mut target,
        trace.as_mut(),
        move |config_id| names[config_id % names.len()].clone(),
        SimDuration::from_secs(cluster_shape::TICK_S),
        |_, t| tally.observe(t),
    );
    target.tracer.exit();
    let out = out?;
    let stats = target.cluster.stats();
    // Node gateways are private to the cluster, so nobody mirrors their
    // tallies into the shared registry; do it once here.
    target
        .metrics
        .counter("gateway/requests")
        .store(stats.requests);
    target
        .metrics
        .counter("gateway/cold_starts")
        .store(stats.cold_starts);
    let facts = RunFacts {
        arrivals: out.arrivals,
        tally,
        gateway_requests: stats.requests,
        gateway_cold_starts: stats.cold_starts,
        live_at_end: stats.live_containers,
        live_samples: out.live_samples,
        max_inflight: out.max_inflight,
        background_s: 0.0,
        forced_evictions: 0,
        imbalance: target.cluster.request_imbalance(),
        trace_error: out.trace_error,
    };
    let ClusterTarget {
        metrics,
        mut tracer,
        ..
    } = target;
    let rep = report(
        &mut tracer,
        &metrics,
        facts,
        t1.duration_since(t0).as_secs_f64(),
        t1,
    );
    tracer.exit();
    Ok((rep, tracer))
}

fn build_and_drop<P: RuntimeProvider>(scenario: &Scenario, make: fn() -> P) -> Result<(), String> {
    build_single(scenario, make()).map(drop)
}

/// Set-up alone (built, then dropped): extra `setup_s` samples.
pub fn setup_only(spec: &RunSpec) -> Result<f64, String> {
    let t0 = now();
    if spec.workload.scenario.is_some() {
        let scenario = parse_scenario(spec)?;
        with_provider!(scenario, build_and_drop(&scenario))?;
    } else {
        build_cluster(spec, Tracer::disabled()).map(drop)?;
    }
    Ok(now().duration_since(t0).as_secs_f64())
}

/// One timed repetition of any workload.
pub fn timed_rep(spec: &RunSpec) -> Result<RepOutcome, String> {
    if spec.workload.scenario.is_none() {
        return run_cluster(spec, Tracer::disabled()).map(|(rep, _)| rep);
    }
    let t0 = now();
    let scenario = parse_scenario(spec)?;
    with_provider!(scenario, timed_single(&scenario, t0))
}

/// One traced repetition of any workload; spans accumulate in `tracer`.
pub fn traced_rep(spec: &RunSpec, mut tracer: Tracer) -> Result<(RepOutcome, Tracer), String> {
    if spec.workload.scenario.is_none() {
        return run_cluster(spec, tracer);
    }
    let t0 = now();
    tracer.enter(Span::Run);
    tracer.enter(Span::Parse);
    let scenario = parse_scenario(spec);
    tracer.exit();
    let scenario = scenario?;
    with_provider!(scenario, traced_single(&scenario, t0, tracer))
}
