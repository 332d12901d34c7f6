//! Discrete-event workload driver: the one replay loop.
//!
//! Feeds a time-ordered [`Arrival`] stream through a [`ReplayTarget`] — a
//! single [`Gateway`] or a [`Cluster`] of them. Requests overlap naturally:
//! each arrival `begin`s immediately and its `finish` fires at the request's
//! `t4`, so simultaneous requests occupy separate containers — exactly how
//! the parallel/burst experiments must behave. Provider maintenance (`tick`)
//! runs at a fixed interval, *before* arrivals that share the same instant
//! (the controller acts at round boundaries).
//!
//! [`run_trace`], [`run_trace_partition`] and the collecting
//! [`run_workload`] are thin adapters over one crate-private event loop,
//! [`run_trace_core`], which the cluster experiments call directly; the
//! closure-scheduled driver it was derived from survives only as the
//! independent oracle in [`crate::reference`] (DESIGN.md §2, §10.2).

use faas::gateway::{Gateway, GatewayError};
use faas::{InFlight, RequestTrace, RuntimeProvider};
use hotc_cluster::{Cluster, ClusterError, ClusterInFlight};
use metrics_lite::Series;
use simclock::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use workloads::trace::{PartitionTrace, Trace, VecTrace};
use workloads::Arrival;

/// Result of driving a workload to completion.
pub struct RunOutcome<P: RuntimeProvider> {
    /// The gateway after the run (provider/engine inspection).
    pub gateway: Gateway<P>,
    /// One trace per arrival, in arrival order.
    pub traces: Vec<RequestTrace>,
    /// Virtual time at which the last event completed.
    pub finished_at: SimTime,
    /// Live-container count sampled at every tick — the resource-footprint
    /// timeline used by the policy comparisons.
    pub live_samples: Vec<(SimTime, usize)>,
}

impl<P: RuntimeProvider> RunOutcome<P> {
    /// Latencies in arrival order.
    pub fn latencies(&self) -> Vec<SimDuration> {
        self.traces.iter().map(|t| t.total()).collect()
    }

    /// Mean end-to-end latency.
    pub fn mean_latency(&self) -> SimDuration {
        if self.traces.is_empty() {
            return SimDuration::ZERO;
        }
        let total: SimDuration = self.traces.iter().map(|t| t.total()).sum();
        total / self.traces.len() as u64
    }

    /// Fraction of requests that cold-started.
    pub fn cold_fraction(&self) -> f64 {
        if self.traces.is_empty() {
            return 0.0;
        }
        self.traces.iter().filter(|t| t.cold).count() as f64 / self.traces.len() as f64
    }

    /// Fraction of requests whose function process crashed.
    pub fn failed_fraction(&self) -> f64 {
        if self.traces.is_empty() {
            return 0.0;
        }
        self.traces.iter().filter(|t| t.failed).count() as f64 / self.traces.len() as f64
    }

    /// Mean live containers across the tick samples — a resource-footprint
    /// proxy ("container-hours") for comparing keep-warm policies.
    pub(crate) fn mean_live_containers(&self) -> f64 {
        if self.live_samples.is_empty() {
            return 0.0;
        }
        self.live_samples
            .iter()
            .map(|&(_, n)| n as f64)
            .sum::<f64>()
            / self.live_samples.len() as f64
    }
}

/// Drives `workload` through `gateway`, collecting one trace per arrival:
/// [`run_trace`] over the slice, each finished trace placed at its arrival's
/// sequence number. `route` maps an arrival's `config_id` to the function
/// name to invoke; `tick_interval` is the provider maintenance cadence.
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
    let mut traces: Vec<Option<RequestTrace>> = vec![None; workload.len()];
    let out = run_trace(
        gateway,
        &mut VecTrace::new(workload.to_vec()),
        route,
        tick_interval,
        |seq, trace| traces[seq as usize] = Some(*trace),
    );
    RunOutcome {
        gateway: out.gateway,
        traces: traces
            .into_iter()
            .map(|t| t.expect("every arrival finishes"))
            .collect(),
        finished_at: out.finished_at,
        live_samples: out.live_samples,
    }
}

/// What the replay loop drives: a single [`Gateway`] or a [`Cluster`].
pub(crate) trait ReplayTarget {
    /// The in-flight handle `begin` returns and `finish` consumes.
    type Ticket;
    /// What a finished request reports to the `on_finish` callback.
    type Finished;
    /// The target's error type; the loop treats any error as fatal.
    type Error: std::fmt::Debug;
    /// Starts a request that arrived at `now`.
    fn begin(&mut self, function: &str, now: SimTime) -> Result<Self::Ticket, Self::Error>;
    /// When the ticket's function process stops — its finish event.
    fn finish_at(ticket: &Self::Ticket) -> SimTime;
    /// Completes a request at its finish instant.
    fn finish(&mut self, ticket: Self::Ticket) -> Result<Self::Finished, Self::Error>;
    /// Runs maintenance and returns the live-container count after it.
    fn tick(&mut self, now: SimTime) -> Result<usize, Self::Error>;
    /// The series the loop samples each tick's live count into, got once
    /// before the first event; `None` if the target keeps none.
    fn live_series(&self) -> Option<Arc<Series>>;
}

impl<P: RuntimeProvider> ReplayTarget for Gateway<P> {
    type Ticket = InFlight;
    type Finished = RequestTrace;
    type Error = GatewayError;

    fn begin(&mut self, function: &str, now: SimTime) -> Result<InFlight, GatewayError> {
        Gateway::begin(self, function, now)
    }
    fn finish_at(ticket: &InFlight) -> SimTime {
        ticket.t4_func_end
    }
    fn finish(&mut self, ticket: InFlight) -> Result<RequestTrace, GatewayError> {
        Gateway::finish(self, ticket)
    }
    fn tick(&mut self, now: SimTime) -> Result<usize, GatewayError> {
        Gateway::tick(self, now)?;
        Ok(self.engine().live_count())
    }
    /// `pool/live`, got through `metrics()`: that lists the request tally,
    /// so a registry the caller shares with the gateway shows it.
    fn live_series(&self) -> Option<Arc<Series>> {
        Some(self.metrics().series("pool/live"))
    }
}

/// Reports the serving node with each trace, like [`Cluster::handle`]; the
/// nodes keep registries of their own, so the loop samples no `pool/live`.
impl ReplayTarget for Cluster {
    type Ticket = ClusterInFlight;
    type Finished = (usize, RequestTrace);
    type Error = ClusterError;

    fn begin(&mut self, function: &str, now: SimTime) -> Result<ClusterInFlight, ClusterError> {
        Cluster::begin(self, function, now)
    }
    fn finish_at(ticket: &ClusterInFlight) -> SimTime {
        ticket.inner.t4_func_end
    }
    fn finish(&mut self, ticket: ClusterInFlight) -> Result<Self::Finished, ClusterError> {
        let node = ticket.node;
        Ok((node, Cluster::finish(self, ticket)?))
    }
    fn tick(&mut self, now: SimTime) -> Result<usize, ClusterError> {
        Cluster::tick(self, now)?;
        Ok(self.stats().live_containers)
    }
    fn live_series(&self) -> Option<Arc<Series>> {
        None
    }
}

/// What a replay measured, apart from the target it ran on.
pub(crate) struct ReplaySummary {
    /// Total arrivals replayed.
    pub requests: u64,
    /// Virtual time at which the last event completed.
    pub finished_at: SimTime,
    /// High-water mark of concurrently in-flight requests.
    pub max_inflight: usize,
    /// Error the trace source surfaced; `None` for a clean end-of-stream.
    pub trace_error: Option<String>,
}

/// Result of streaming a [`Trace`] to completion. Unlike [`RunOutcome`],
/// there is no per-request trace vector: the whole point of the streaming
/// path is O(inflight) memory at 1e6–1e8 requests, so per-request data goes
/// through the `on_finish` callback instead.
pub struct TraceOutcome<P: RuntimeProvider> {
    /// The gateway after the run (provider/engine inspection).
    pub gateway: Gateway<P>,
    /// Total arrivals replayed.
    pub requests: u64,
    /// Virtual time at which the last event completed.
    pub finished_at: SimTime,
    /// Live-container count sampled at every tick by [`run_trace`];
    /// empty from [`run_trace_partition`], which keeps no tick samples.
    pub live_samples: Vec<(SimTime, usize)>,
    /// High-water mark of concurrently in-flight requests — the replay
    /// engine's own memory ceiling is O(this), not O(requests).
    pub max_inflight: usize,
    /// Error the trace source surfaced (file-backed sources); `None` for a
    /// clean end-of-stream.
    pub trace_error: Option<String>,
}

impl<P: RuntimeProvider> TraceOutcome<P> {
    fn new(
        gateway: Gateway<P>,
        summary: ReplaySummary,
        live_samples: Vec<(SimTime, usize)>,
    ) -> Self {
        TraceOutcome {
            gateway,
            requests: summary.requests,
            finished_at: summary.finished_at,
            live_samples,
            max_inflight: summary.max_inflight,
            trace_error: summary.trace_error,
        }
    }
}

/// What the event loop needs from an arrival source beyond [`Trace`]. A
/// plain trace reports what the loop itself counted; a parallel worker's
/// [`PartitionTrace`] overrides both with facts about the underlying stream.
pub(crate) trait ReplaySource: Trace {
    /// Pulls the next arrival with its *reported* sequence number: the
    /// loop's own pull count, or the arrival's global index in the underlying
    /// stream (finish tie-breaks and callbacks then match the sequential run).
    fn next_seq(&mut self, pulled: u64) -> Option<(Arrival, u64)> {
        self.next_arrival().map(|a| (a, pulled))
    }
    /// Tick-horizon basis, asked once `peek` returns `None`: the last pulled
    /// arrival's instant, or the underlying stream's — a worker owning few or
    /// no arrivals must still tick to the global horizon. `None` if empty.
    fn horizon_basis(&self, last_pulled: Option<SimTime>) -> Option<SimTime> {
        last_pulled
    }
}

impl ReplaySource for dyn Trace + '_ {}
impl ReplaySource for VecTrace {}

impl<T: Trace> ReplaySource for PartitionTrace<T> {
    fn next_seq(&mut self, _pulled: u64) -> Option<(Arrival, u64)> {
        self.next_indexed()
    }
    fn horizon_basis(&self, _last_pulled: Option<SimTime>) -> Option<SimTime> {
        PartitionTrace::horizon_basis(self)
    }
}

/// Streams `trace` through `gateway` without materializing it: arrivals are
/// pulled lazily, so resident memory is O(inflight + sources), independent of
/// request count.
///
/// Event semantics are *identical* to the closure-scheduled reference
/// driver's (verified by the equivalence tests in [`crate::reference`]):
/// ticks run at every `tick_interval` from t=0 through
/// `last_arrival + 2×tick`, and at equal instants the order is
/// tick < arrival < finish, with arrivals in trace order and finishes in
/// `(t4, arrival seq)` order. `on_finish(seq, trace)` fires once per request
/// at its finish event, where `seq` is the arrival's 0-based pull index.
pub fn run_trace<P>(
    mut gateway: Gateway<P>,
    trace: &mut dyn Trace,
    route: impl Fn(usize) -> String,
    tick_interval: SimDuration,
    on_finish: impl FnMut(u64, &RequestTrace),
) -> TraceOutcome<P>
where
    P: RuntimeProvider + 'static,
{
    let mut live_samples = Vec::new();
    let summary = run_trace_core(
        &mut gateway,
        trace,
        route,
        tick_interval,
        on_finish,
        |at, n| live_samples.push((at, n)),
    );
    TraceOutcome::new(gateway, summary, live_samples)
}

/// Streams one worker's partition of a trace through that worker's own
/// gateway — the per-thread body of the parallel replay driver.
///
/// The event loop is the *same code* as [`run_trace`]; only the source
/// differs. `on_finish` receives the arrival's **global** index in the
/// underlying stream (not a worker-local count), so merged per-request data
/// sorts back into sequential arrival order, and finishes within this worker
/// tie-break by `(t4, global seq)` exactly as the sequential driver orders
/// the same subset. Ticks run at every `tick_interval` from t=0 through the
/// *global* horizon (`PartitionTrace` tracks the underlying stream's last
/// arrival), so every worker samples `pool/live` at the identical instants
/// and the merged series lines up point-for-point with the sequential one.
/// `TraceOutcome::requests` counts only this worker's arrivals.
///
/// Tick samples are not kept and `TraceOutcome::live_samples` stays empty:
/// the registry's `pool/live` series already records every one.
pub fn run_trace_partition<P, T>(
    mut gateway: Gateway<P>,
    part: &mut PartitionTrace<T>,
    route: impl Fn(usize) -> String,
    tick_interval: SimDuration,
    on_finish: impl FnMut(u64, &RequestTrace),
) -> TraceOutcome<P>
where
    P: RuntimeProvider + 'static,
    T: Trace,
{
    let summary = run_trace_core(
        &mut gateway,
        part,
        route,
        tick_interval,
        on_finish,
        |_, _| {},
    );
    TraceOutcome::new(gateway, summary, Vec::new())
}

/// Runs `worker(w, inputs[w])` for every worker `w` on scoped OS threads —
/// one thread per input, each moved into its worker — and returns the
/// results in worker-index order: the deterministic reduction order the
/// parallel replay merge depends on. With one input the worker runs inline
/// (the degenerate case exercises the same worker body with no spawn cost).
/// A worker panic propagates to the caller.
pub fn run_partitioned<I, W, F>(inputs: Vec<I>, worker: F) -> Vec<W>
where
    I: Send,
    W: Send,
    F: Fn(usize, I) -> W + Sync,
{
    assert!(!inputs.is_empty(), "need at least one replay worker");
    if inputs.len() == 1 {
        return inputs.into_iter().map(|input| worker(0, input)).collect();
    }
    std::thread::scope(|scope| {
        let worker = &worker;
        let handles: Vec<_> = inputs
            .into_iter()
            .enumerate()
            .map(|(w, input)| scope.spawn(move || worker(w, input)))
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                Err(panic) => std::panic::resume_unwind(panic),
            })
            .collect()
    })
}

/// The event loop: replays `source` through any borrowed [`ReplayTarget`]
/// with [`run_trace`]'s semantics. The cluster experiments call it directly
/// on a [`Cluster`]. Like finishes to `on_finish`, each tick's instant and
/// the live-container count after it go to `on_tick`, and into the
/// target's live series through a handle got once; the loop keeps nothing
/// per tick or per request itself.
pub(crate) fn run_trace_core<T, S>(
    target: &mut T,
    source: &mut S,
    route: impl Fn(usize) -> String,
    tick_interval: SimDuration,
    mut on_finish: impl FnMut(u64, &T::Finished),
    mut on_tick: impl FnMut(SimTime, usize),
) -> ReplaySummary
where
    T: ReplayTarget,
    S: ReplaySource + ?Sized,
{
    assert!(!tick_interval.is_zero(), "tick interval must be positive");

    // Pending finishes as `(t4, arrival seq, slot)` keys, ordered by
    // `(t4, seq)` — the reference driver's FIFO event queue order, since
    // each finish is scheduled the moment its arrival begins; `seq` is
    // unique, so `slot` never breaks a tie. The tickets wait in `slots`
    // (vacant ones listed in `free`), so the heap moves 24-byte keys.
    let mut pending: BinaryHeap<Reverse<(SimTime, u64, u32)>> = BinaryHeap::new();
    let mut slots: Vec<Option<T::Ticket>> = Vec::new();
    let mut free: Vec<u32> = Vec::new();
    let mut next_tick = SimTime::ZERO;
    let mut ticks_done = false;
    let mut last_arrival_at: Option<SimTime> = None;
    let mut count: u64 = 0;
    let mut max_inflight = 0usize;
    let mut finished_at = SimTime::ZERO;
    let live_series = target.live_series();

    // Event classes at equal instants: tick (0) < arrival (1) < finish (2),
    // mirroring the reference driver's schedule order (ticks first, then
    // arrivals, finishes scheduled at run time).
    loop {
        let tick_at = if ticks_done { None } else { Some(next_tick) };
        let arrival_at = source.peek().map(|a| a.at);
        let finish_at = pending.peek().map(|&Reverse((at, ..))| at);

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
                let live = target.tick(now).expect("tick must not fail");
                if let Some(series) = &live_series {
                    series.sample(now, live as f64);
                }
                on_tick(now, live);
                next_tick += tick_interval;
                if arrival_at.is_none() {
                    // Stream exhausted: the horizon is now known, exactly as
                    // the reference driver computes it up front. (While
                    // arrivals remain, every tick fired so far is <= the
                    // final horizon by construction.) An empty underlying
                    // stream has no basis: the single t=0 tick is the run.
                    let horizon = source
                        .horizon_basis(last_arrival_at)
                        .map(|last| last + tick_interval * 2)
                        .unwrap_or(SimTime::ZERO);
                    if next_tick > horizon {
                        ticks_done = true;
                    }
                }
            }
            1 => {
                let (arrival, seq) = source.next_seq(count).expect("peeked arrival must exist");
                assert!(
                    last_arrival_at.is_none_or(|t| arrival.at >= t),
                    "trace must be time-ordered"
                );
                last_arrival_at = Some(arrival.at);
                let function = route(arrival.config_id);
                let ticket = target.begin(&function, now).expect("request must begin");
                let at = T::finish_at(&ticket);
                let slot = free.pop().unwrap_or_else(|| {
                    slots.push(None);
                    u32::try_from(slots.len() - 1).expect("in-flight requests fit in u32")
                });
                slots[slot as usize] = Some(ticket);
                pending.push(Reverse((at, seq, slot)));
                max_inflight = max_inflight.max(pending.len());
                count += 1;
            }
            _ => {
                let Reverse((_, seq, slot)) = pending.pop().expect("peeked finish must exist");
                let ticket = slots[slot as usize]
                    .take()
                    .expect("a pending slot holds its ticket");
                free.push(slot);
                let finished = target.finish(ticket).expect("request must finish");
                on_finish(seq, &finished);
            }
        }
        finished_at = now;
    }

    ReplaySummary {
        requests: count,
        finished_at,
        max_inflight,
        trace_error: source.take_error(),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use containersim::{ContainerEngine, HardwareProfile};
    use faas::{AppProfile, ColdStartAlways};
    use hotc::HotC;
    use workloads::patterns;

    type Finishes = Vec<(u64, RequestTrace)>;
    type Ticks = Vec<(SimTime, usize)>;
    pub(crate) const TICK: SimDuration = SimDuration::from_secs(30);

    pub(crate) fn gateway<P: RuntimeProvider>(provider: P) -> Gateway<P> {
        let engine = ContainerEngine::with_local_images(HardwareProfile::server());
        let mut gw = Gateway::new(engine, provider);
        gw.register_app(AppProfile::random_number());
        gw
    }

    /// `w` through the collecting driver on the 30 s tick.
    fn collect<P: RuntimeProvider + 'static>(provider: P, w: &[Arrival]) -> RunOutcome<P> {
        run_workload(gateway(provider), w, |_| "random-number".to_string(), TICK)
    }

    #[test]
    fn serial_workload_all_traced() {
        let w = patterns::serial(SimDuration::from_secs(30), 10, 0);
        let out = collect(HotC::fixed_keepalive(SimDuration::from_mins(15)), &w);
        assert_eq!(out.traces.len(), 10);
        assert!(out.traces[0].cold);
        assert!(out.traces[1..].iter().all(|t| !t.cold));
        // Traces are in arrival order.
        for w in out.traces.windows(2) {
            assert!(w[0].t1_gateway_in <= w[1].t1_gateway_in);
        }
    }

    #[test]
    fn overlapping_arrivals_occupy_separate_containers() {
        // A burst of 8 simultaneous arrivals.
        let burst = patterns::burst(8, 1, &[], 1, TICK, 0);
        assert_eq!(burst.len(), 8);
        let out = collect(ColdStartAlways::new(), &burst);
        assert_eq!(out.traces.len(), 8);
        assert!(out.traces.iter().all(|t| t.cold));
    }

    #[test]
    fn hotc_run_reuses_and_ticks() {
        let w = patterns::serial(SimDuration::from_secs(30), 20, 0);
        let out = collect(HotC::with_defaults(), &w);
        assert!(out.cold_fraction() <= 0.1);
        assert!(out.mean_latency() < SimDuration::from_millis(120));
        assert!(out.finished_at >= SimTime::from_secs(19 * 30));
    }

    #[test]
    fn driver_populates_metrics_snapshot() {
        let w = patterns::serial(SimDuration::from_secs(30), 10, 0);
        let out = collect(HotC::fixed_keepalive(SimDuration::from_mins(15)), &w);
        let snap = out.gateway.metrics().snapshot();
        assert_eq!(snap.counter("gateway/requests"), Some(10));
        assert_eq!(snap.counter("gateway/cold_starts"), Some(1));
        assert_eq!(snap.stage_count("all", metrics_lite::Stage::Exec), 10);
        // pool/live is `live_samples` as change points: it reproduces every
        // tick's sample and stores no repeated value.
        let (_, series) = snap
            .series
            .iter()
            .find(|(n, _)| n == "pool/live")
            .expect("pool/live series present");
        for &(at, live) in &out.live_samples {
            assert_eq!(series.value_at(at), Some(live as f64), "at {at:?}");
        }
        assert_eq!(series.end(), out.live_samples.last().map(|&(at, _)| at));
        assert!(series.points().windows(2).all(|w| w[0].1 != w[1].1));
        assert!(series.len() < out.live_samples.len());
        let trace_total: u64 = out.traces.iter().map(|t| t.total().as_nanos()).sum();
        assert_eq!(snap.scope_total_ns("all"), trace_total);
    }

    #[test]
    fn run_trace_reports_inflight_high_water_mark() {
        let burst = patterns::burst(8, 1, &[], 1, TICK, 0);
        let (out, _) = sequential(ColdStartAlways::new(), &burst);
        // All 8 arrive at t=0 and overlap.
        assert_eq!(out.max_inflight, 8);
        assert_eq!(out.requests, 8);
    }

    #[test]
    fn run_trace_surfaces_source_errors() {
        let csv = "100,alpha\n50,alpha\n";
        let mut source = workloads::trace::OpenDcTrace::new(csv.as_bytes());
        let out = run_trace(
            gateway(ColdStartAlways::new()),
            &mut source,
            |_| "random-number".to_string(),
            SimDuration::from_secs(30),
            |_, _| {},
        );
        assert_eq!(out.requests, 1);
        assert!(out
            .trace_error
            .as_deref()
            .is_some_and(|e| e.contains("non-decreasing")));
    }

    /// Sequential streaming run of `w`, with its finishes in callback order.
    pub(crate) fn sequential<P>(provider: P, w: &[Arrival]) -> (TraceOutcome<P>, Finishes)
    where
        P: RuntimeProvider + 'static,
    {
        let mut finishes = Finishes::new();
        let mut source = VecTrace::new(w.to_vec());
        let route = |_| "random-number".to_string();
        let out = run_trace(gateway(provider), &mut source, route, TICK, |s, t| {
            finishes.push((s, *t))
        });
        (out, finishes)
    }

    /// `HotC` through `RuntimeProvider`'s required methods only, the way a
    /// provider wrapper that keeps `acquire_keyed`'s default sees it (the
    /// layer benchmark's timing wrapper does): the gateway's cached key
    /// never reaches the pool, and every request interns its configuration.
    struct Unkeyed(HotC);

    impl RuntimeProvider for Unkeyed {
        fn acquire(
            &mut self,
            engine: &mut ContainerEngine,
            config: &containersim::ContainerConfig,
            now: SimTime,
        ) -> Result<faas::Acquisition, containersim::EngineError> {
            self.0.acquire(engine, config, now)
        }
        fn release(
            &mut self,
            engine: &mut ContainerEngine,
            container: containersim::ContainerId,
            now: SimTime,
        ) -> Result<(), containersim::EngineError> {
            self.0.release(engine, container, now)
        }
        fn tick(
            &mut self,
            engine: &mut ContainerEngine,
            now: SimTime,
        ) -> Result<(), containersim::EngineError> {
            self.0.tick(engine, now)
        }
        fn name(&self) -> &'static str {
            self.0.name()
        }
        fn background_cost(&self) -> SimDuration {
            self.0.background_cost()
        }
    }

    /// The key `Gateway` caches per function changes no output: `HotC`
    /// served through `acquire_keyed` and through `acquire` alone give
    /// byte-identical traces, live samples and metrics JSON over 40
    /// replicated functions (the `replicas = N` shape: a distinct env each,
    /// here over four runtimes so fuzzy keys stay apart) under limits that
    /// keep evicting, for both key policies.
    #[test]
    fn keyed_acquire_is_observationally_unkeyed() {
        use containersim::LanguageRuntime::{Go, Java, NodeJs, Python};
        const FUNCTIONS: usize = 40;
        fn replicated<P: RuntimeProvider>(provider: P) -> Gateway<P> {
            let engine = ContainerEngine::with_local_images(HardwareProfile::server());
            let mut gw = Gateway::new(engine, provider);
            for i in 0..FUNCTIONS {
                let app = AppProfile::qr_code([Python, Go, Java, NodeJs][i % 4]);
                let mut config = app.default_config();
                config.exec.env.insert("HOTC_REPLICA".into(), i.to_string());
                gw.register(
                    faas::FunctionSpec::from_app(app)
                        .named(format!("f#{i}"))
                        .with_config(config),
                );
            }
            gw
        }
        fn replay<P: RuntimeProvider + 'static>(provider: P) -> (TraceOutcome<P>, Finishes) {
            let spec = workloads::trace::SynthSpec {
                requests: 3_000,
                keys: FUNCTIONS,
                duration: SimDuration::from_mins(20),
                seed: 11,
                ..Default::default()
            };
            let mut finishes = Finishes::new();
            let out = run_trace(
                replicated(provider),
                &mut workloads::trace::synth_trace(&spec),
                |id| format!("f#{}", id % FUNCTIONS),
                TICK,
                |s, t| finishes.push((s, *t)),
            );
            (out, finishes)
        }
        for key_policy in [hotc::KeyPolicy::Exact, hotc::KeyPolicy::Fuzzy] {
            let make = || {
                HotC::new(hotc::HotCConfig {
                    key_policy,
                    limits: hotc::PoolLimits::new(3, 0.99),
                    ..Default::default()
                })
            };
            let (keyed, keyed_finishes) = replay(make());
            let (unkeyed, unkeyed_finishes) = replay(Unkeyed(make()));
            assert!(
                keyed.gateway.provider().forced_evictions() > 0,
                "{key_policy:?}"
            );
            assert_eq!(
                keyed.gateway.provider().forced_evictions(),
                unkeyed.gateway.provider().0.forced_evictions()
            );
            assert_eq!(keyed_finishes, unkeyed_finishes, "{key_policy:?}");
            assert_eq!(keyed.live_samples, unkeyed.live_samples, "{key_policy:?}");
            let json = |registry: &metrics_lite::MetricsRegistry| {
                registry.snapshot().to_json().to_pretty_string()
            };
            assert!(
                json(keyed.gateway.metrics()) == json(unkeyed.gateway.metrics()),
                "{key_policy:?}: metrics JSON differs"
            );
        }
    }

    /// `w` replayed by one worker per distinct entry of `assign`, as
    /// [`run_trace_partition`] does, with each worker's finishes and ticks.
    fn partitioned<P>(
        make: fn() -> P,
        w: &[Arrival],
        assign: &[usize],
    ) -> Vec<(TraceOutcome<P>, Finishes, Ticks)>
    where
        P: RuntimeProvider + Send + 'static,
    {
        let workers = assign.iter().max().map_or(1, |m| m + 1);
        let assign = std::sync::Arc::new(assign.to_vec());
        run_partitioned(vec![(); workers], |worker, ()| {
            let source = VecTrace::new(w.to_vec());
            let mut part = PartitionTrace::new(source, std::sync::Arc::clone(&assign), worker);
            let mut finishes = Finishes::new();
            let mut ticks = Ticks::new();
            let mut gw = gateway(make());
            let summary = run_trace_core(
                &mut gw,
                &mut part,
                |_| "random-number".to_string(),
                TICK,
                |s, t| finishes.push((s, *t)),
                |at, live| ticks.push((at, live)),
            );
            (TraceOutcome::new(gw, summary, Vec::new()), finishes, ticks)
        })
    }

    /// The 1-thread degenerate parallel run goes through `PartitionTrace` +
    /// the event loop + `run_partitioned` and must be
    /// indistinguishable from the sequential streaming driver.
    #[test]
    fn single_worker_partition_equals_sequential() {
        let w = patterns::burst(8, 10, &[1, 3], 6, TICK, 0);
        let (sequential, seq_finishes) = sequential(HotC::with_defaults(), &w);
        let (out, finishes, ticks) = partitioned(HotC::with_defaults, &w, &[0]).remove(0);

        assert_eq!(out.requests, sequential.requests);
        assert_eq!(out.finished_at, sequential.finished_at);
        assert_eq!(ticks, sequential.live_samples);
        assert_eq!(out.max_inflight, sequential.max_inflight);
        assert_eq!(finishes, seq_finishes);
        assert_eq!(
            format!("{:?}", out.gateway.metrics().snapshot()),
            format!("{:?}", sequential.gateway.metrics().snapshot())
        );
    }

    /// Two workers partitioning a two-config stream: the merged finishes (by
    /// global index) equal the sequential run's, every worker ticks at the
    /// sequential instants, and per-tick live counts sum to the sequential
    /// count.
    #[test]
    fn two_workers_cover_stream_and_share_tick_schedule() {
        // Alternating configs, overlapping lifetimes.
        let w: Vec<Arrival> = (0..20u64)
            .map(|i| Arrival {
                at: SimTime::from_millis(i * 700),
                config_id: (i % 2) as usize,
            })
            .collect();
        let (sequential, mut seq_finishes) = sequential(ColdStartAlways::new(), &w);
        let results = partitioned(ColdStartAlways::new, &w, &[0, 1]);

        assert_eq!(results.iter().map(|(o, ..)| o.requests).sum::<u64>(), 20);
        let mut merged: Vec<(u64, RequestTrace)> = results
            .iter()
            .flat_map(|(_, f, _)| f.iter().copied())
            .collect();
        merged.sort_by_key(|&(s, _)| s);
        seq_finishes.sort_by_key(|&(s, _)| s);
        assert_eq!(merged, seq_finishes);

        let max_finished = results.iter().map(|(o, ..)| o.finished_at).max();
        assert_eq!(max_finished, Some(sequential.finished_at));
        for (_, _, ticks) in &results {
            let instants: Vec<SimTime> = ticks.iter().map(|&(t, _)| t).collect();
            let seq_instants: Vec<SimTime> =
                sequential.live_samples.iter().map(|&(t, _)| t).collect();
            assert_eq!(instants, seq_instants, "tick schedules must be global");
        }
        for (i, &(at, live)) in sequential.live_samples.iter().enumerate() {
            let summed: usize = results.iter().map(|(.., ticks)| ticks[i].1).sum();
            assert_eq!(summed, live, "live count diverged at {at:?}");
        }
    }

    /// A target whose request `i` (in begin order) finishes `config_id`
    /// seconds after it begins and reports `i` back, so a finish that got
    /// another request's ticket shows.
    struct Echo {
        begun: u64,
    }

    impl ReplayTarget for Echo {
        type Ticket = (u64, SimTime);
        type Finished = (u64, SimTime);
        type Error = std::convert::Infallible;

        fn begin(&mut self, function: &str, now: SimTime) -> Result<(u64, SimTime), Self::Error> {
            let secs: u64 = function.parse().expect("route is the finish offset");
            self.begun += 1;
            Ok((self.begun - 1, now + SimDuration::from_secs(secs)))
        }
        fn finish_at(ticket: &(u64, SimTime)) -> SimTime {
            ticket.1
        }
        fn finish(&mut self, ticket: (u64, SimTime)) -> Result<(u64, SimTime), Self::Error> {
            Ok(ticket)
        }
        fn tick(&mut self, _now: SimTime) -> Result<usize, Self::Error> {
            Ok(0)
        }
        fn live_series(&self) -> Option<Arc<Series>> {
            None
        }
    }

    /// Bursts of same-instant arrivals whose finishes tie on `t4`, in waves
    /// that overlap the previous one's tail so finished slots are reused
    /// while others are still pending: every request finishes once, with its
    /// own ticket, in `(t4, seq)` order.
    #[test]
    fn slab_keeps_finish_order_and_tickets() {
        const WAVES: u64 = 40;
        const BURST: u64 = 12;
        let w: Vec<Arrival> = (0..WAVES)
            .flat_map(|wave| {
                (0..BURST).map(move |i| Arrival {
                    at: SimTime::from_secs(wave * 3),
                    // Offsets 0..=4 s: ties on t4 within a burst, and with
                    // the next wave's early finishes.
                    config_id: ((i * 7 + wave) % 5) as usize,
                })
            })
            .collect();
        let mut finished: Vec<(u64, u64, SimTime)> = Vec::new();
        let summary = run_trace_core(
            &mut Echo { begun: 0 },
            &mut VecTrace::new(w.clone()),
            |offset| offset.to_string(),
            TICK,
            |seq, &(id, t4)| finished.push((seq, id, t4)),
            |_, _| {},
        );
        let n = WAVES * BURST;
        assert_eq!(summary.requests, n);
        assert!(summary.max_inflight < n as usize / 4, "slots were reused");
        assert!(
            finished
                .windows(2)
                .all(|p| (p[0].2, p[0].0) < (p[1].2, p[1].0)),
            "finishes leave in (t4, seq) order"
        );
        let mut seen = vec![false; n as usize];
        for &(seq, id, t4) in &finished {
            assert_eq!(id, seq, "seq {seq} finished with another ticket");
            let arrival = w[seq as usize];
            assert_eq!(
                t4,
                arrival.at + SimDuration::from_secs(arrival.config_id as u64)
            );
            assert!(
                !std::mem::replace(&mut seen[seq as usize], true),
                "seq {seq} twice"
            );
        }
        assert!(seen.iter().all(|&s| s), "every request finishes");
        let ties = finished.windows(2).filter(|p| p[0].2 == p[1].2).count();
        assert!(ties > n as usize / 2, "finishes tie on t4 ({ties})");
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn unordered_trace_rejected_mid_stream() {
        struct Backwards(usize);
        impl Trace for Backwards {
            fn peek(&mut self) -> Option<Arrival> {
                self.items().get(self.0).copied()
            }
            fn next_arrival(&mut self) -> Option<Arrival> {
                let out = self.items().get(self.0).copied();
                if out.is_some() {
                    self.0 += 1;
                }
                out
            }
        }
        impl Backwards {
            fn items(&self) -> Vec<Arrival> {
                vec![
                    Arrival {
                        at: SimTime::from_secs(5),
                        config_id: 0,
                    },
                    Arrival {
                        at: SimTime::from_secs(1),
                        config_id: 0,
                    },
                ]
            }
        }
        let _ = run_trace(
            gateway(ColdStartAlways::new()),
            &mut Backwards(0),
            |_| "random-number".to_string(),
            SimDuration::from_secs(30),
            |_, _| {},
        );
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn unordered_workload_rejected() {
        let w = vec![
            workloads::Arrival {
                at: SimTime::from_secs(5),
                config_id: 0,
            },
            workloads::Arrival {
                at: SimTime::from_secs(1),
                config_id: 0,
            },
        ];
        let _ = collect(ColdStartAlways::new(), &w);
    }
}
