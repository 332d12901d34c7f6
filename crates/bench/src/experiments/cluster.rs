//! Extension experiment (paper §VII future work): cluster-level scheduling.
//!
//! A few functions are extremely popular while others are rarely invoked
//! (Zipf), exactly the situation the paper's future-work paragraph worries
//! about. We drive the same skewed workload through a multi-node cluster
//! under each scheduling policy and compare cold starts, latency, resource
//! footprint, and load balance.

use crate::driver::run_trace_core;
use containersim::{ContainerEngine, HardwareProfile, LanguageRuntime};
use faas::gateway::Gateway;
use faas::{AppProfile, FunctionSpec};
use hotc::HotC;
use hotc_cluster::{Cluster, SchedulePolicy};
use metrics_lite::{LatencyRecorder, Table};
use simclock::SimDuration;
use workloads::patterns;
use workloads::trace::VecTrace;

/// One policy's outcome.
pub struct PolicyEval {
    /// The policy.
    pub policy: SchedulePolicy,
    /// Mean request latency (ms).
    pub mean_ms: f64,
    /// p99 latency (ms).
    pub p99_ms: f64,
    /// Cold-start fraction.
    pub cold_fraction: f64,
    /// Total live containers across the cluster at the end.
    pub live_containers: usize,
    /// Completed-request imbalance (max node / mean node; 1.0 = balanced).
    pub imbalance: f64,
}

/// Result of the cluster experiment.
pub struct ClusterResult {
    /// Nodes in the cluster.
    pub nodes: usize,
    /// Functions deployed.
    pub functions: usize,
    /// Requests served per policy.
    pub requests: usize,
    /// Per-policy outcomes.
    pub evals: Vec<PolicyEval>,
}

fn build_cluster(policy: SchedulePolicy, nodes: usize, functions: usize) -> Cluster {
    let gateways = (0..nodes)
        .map(|i| {
            let engine = ContainerEngine::with_local_images(HardwareProfile::server());
            (
                format!("node-{i}"),
                Gateway::new(engine, HotC::with_defaults()),
            )
        })
        .collect();
    let mut cluster = Cluster::new(policy, gateways);
    let langs = [
        LanguageRuntime::Python,
        LanguageRuntime::Go,
        LanguageRuntime::NodeJs,
    ];
    for f in 0..functions {
        let app = AppProfile::qr_code(langs[f % langs.len()]);
        let mut config = app.default_config();
        config.exec.env.insert("TENANT".into(), f.to_string());
        cluster.register_everywhere(
            FunctionSpec::from_app(app)
                .named(format!("fn-{f}"))
                .with_config(config),
        );
    }
    cluster
}

/// Replays `workload` through `cluster` on the shared event loop (30 s
/// ticks), returning the latency recorder and the cold-start count.
fn replay(cluster: &mut Cluster, workload: &[workloads::Arrival]) -> (LatencyRecorder, usize) {
    let mut recorder = LatencyRecorder::new();
    let mut cold = 0;
    run_trace_core(
        cluster,
        &mut VecTrace::new(workload.to_vec()),
        |config_id| format!("fn-{config_id}"),
        SimDuration::from_secs(30),
        |_, (_, trace)| {
            recorder.record(trace.total());
            cold += usize::from(trace.cold);
        },
        |_, _| {},
    );
    (recorder, cold)
}

/// Drives a Zipf-skewed Poisson workload through one policy's cluster.
fn eval(
    policy: SchedulePolicy,
    nodes: usize,
    functions: usize,
    workload: &[workloads::Arrival],
) -> PolicyEval {
    let mut cluster = build_cluster(policy, nodes, functions);
    let (recorder, cold) = replay(&mut cluster, workload);
    PolicyEval {
        policy,
        mean_ms: recorder.mean().as_millis_f64(),
        p99_ms: recorder.percentile(0.99).as_millis_f64(),
        cold_fraction: cold as f64 / recorder.count() as f64,
        live_containers: cluster.stats().live_containers,
        imbalance: cluster.request_imbalance(),
    }
}

/// One row of the warm-view staleness sweep.
pub struct StalenessRow {
    /// View sync interval (seconds; 0 = direct pool reads).
    pub staleness_s: u64,
    /// Cold fraction under reuse-affinity with that view.
    pub cold_fraction: f64,
    /// Mean latency (ms).
    pub mean_ms: f64,
}

/// Sweeps warm-view staleness for reuse-affinity scheduling (§VII's
/// distributed-registry deployment): the staler the replicated view, the
/// more requests are routed past their warm runtimes.
pub fn staleness_sweep(
    nodes: usize,
    functions: usize,
    seed: u64,
    staleness_s: &[u64],
) -> Vec<StalenessRow> {
    let workload = patterns::poisson(1.0, SimDuration::from_secs(900), functions, 1.2, seed);
    staleness_s
        .iter()
        .map(|&stale| {
            let mut cluster = build_cluster(SchedulePolicy::ReuseAffinity, nodes, functions);
            cluster.set_warm_view_staleness(SimDuration::from_secs(stale));
            let (recorder, cold) = replay(&mut cluster, &workload);
            StalenessRow {
                staleness_s: stale,
                cold_fraction: cold as f64 / recorder.count() as f64,
                mean_ms: recorder.mean().as_millis_f64(),
            }
        })
        .collect()
}

/// Runs all three policies on the same workload.
pub fn run(nodes: usize, functions: usize, seed: u64) -> ClusterResult {
    // Zipf-skewed arrivals: popular functions dominate (§VII's scenario).
    let workload = patterns::poisson(4.0, SimDuration::from_secs(600), functions, 1.2, seed);
    let evals = [
        SchedulePolicy::RoundRobin,
        SchedulePolicy::LeastLoaded,
        SchedulePolicy::ReuseAffinity,
    ]
    .into_iter()
    .map(|p| eval(p, nodes, functions, &workload))
    .collect();
    ClusterResult {
        nodes,
        functions,
        requests: workload.len(),
        evals,
    }
}

impl ClusterResult {
    /// Looks up a policy's outcome.
    pub fn eval(&self, policy: SchedulePolicy) -> &PolicyEval {
        self.evals
            .iter()
            .find(|e| e.policy == policy)
            .expect("policy evaluated")
    }

    /// Text rendering.
    pub fn render(&self) -> String {
        let mut table = Table::new(
            format!(
                "Cluster scheduling (§VII extension): {} nodes, {} functions, {} Zipf requests",
                self.nodes, self.functions, self.requests
            ),
            &[
                "policy",
                "mean_ms",
                "p99_ms",
                "cold_frac",
                "live_ctrs",
                "imbalance",
            ],
        );
        for e in &self.evals {
            table.row(&[
                e.policy.name().to_string(),
                format!("{:.1}", e.mean_ms),
                format!("{:.1}", e.p99_ms),
                format!("{:.3}", e.cold_fraction),
                e.live_containers.to_string(),
                format!("{:.2}", e.imbalance),
            ]);
        }
        let mut out = table.render();
        out.push_str(
            "(reuse-affinity should minimize cold starts and containers; round-robin smears \
             every runtime type across all nodes)\n\n",
        );
        let rows = staleness_sweep(self.nodes, self.functions, 21, &[0, 30, 120, 600]);
        let mut table = Table::new(
            "Warm-view staleness sweep (reuse-affinity via a replicated registry, §VII)",
            &["view_staleness_s", "cold_fraction", "mean_ms"],
        );
        for r in &rows {
            table.row(&[
                r.staleness_s.to_string(),
                format!("{:.3}", r.cold_fraction),
                format!("{:.1}", r.mean_ms),
            ]);
        }
        out.push_str(&table.render());
        out.push_str("(a stale replicated view routes requests past their warm runtimes)\n");
        out
    }
}
