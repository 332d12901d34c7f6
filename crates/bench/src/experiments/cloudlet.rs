//! Extension experiment (§VII): a heterogeneous *cloudlet* — one cloud
//! server plus edge boards — under mixed light/heavy traffic.
//!
//! The hazard the paper's future work hints at: warm-runtime affinity is
//! blind to node speed, so a heavy inference that once landed on a Raspberry
//! Pi keeps going back to its warm-but-30×-slower runtime. The cost-aware
//! policy estimates completion (cold-start cost + node execution speed) and
//! pays a server cold start instead when that is cheaper.

use crate::driver::run_trace_core;
use containersim::{ContainerEngine, HardwareProfile, LanguageRuntime};
use faas::gateway::Gateway;
use faas::{AppProfile, FunctionSpec};
use hotc::HotC;
use hotc_cluster::{Cluster, SchedulePolicy};
use metrics_lite::{LatencyRecorder, Table};
use simclock::{SimDuration, SimRng, SimTime};
use workloads::trace::VecTrace;
use workloads::Arrival;

/// One policy's outcome on the cloudlet.
pub struct CloudletEval {
    /// Policy name.
    pub policy: &'static str,
    /// Mean latency of the light (qr-code) class (ms).
    pub light_mean_ms: f64,
    /// Mean latency of the heavy (v3-app) class (s).
    pub heavy_mean_s: f64,
    /// Fraction of heavy requests served on the server node.
    pub heavy_on_server: f64,
}

/// Result of the cloudlet experiment.
pub struct CloudletResult {
    /// Requests served per policy.
    pub requests: usize,
    /// Per-policy outcomes.
    pub evals: Vec<CloudletEval>,
}

fn build(policy: SchedulePolicy) -> Cluster {
    let mut gateways = vec![(
        "server".to_string(),
        Gateway::new(
            ContainerEngine::with_local_images(HardwareProfile::server()),
            HotC::with_defaults(),
        ),
    )];
    for i in 0..2 {
        gateways.push((
            format!("pi-{i}"),
            Gateway::new(
                ContainerEngine::with_local_images(HardwareProfile::raspberry_pi3()),
                HotC::with_defaults(),
            ),
        ));
    }
    let mut cluster = Cluster::new(policy, gateways);
    cluster.register_everywhere(FunctionSpec::from_app(AppProfile::qr_code(
        LanguageRuntime::Go,
    )));
    cluster.register_everywhere(FunctionSpec::from_app(AppProfile::v3_app()));
    cluster
}

/// Mixed workload: light requests every ~2 s, a heavy inference every ~20 s.
fn workload(seed: u64, span: SimDuration) -> Vec<Arrival> {
    let mut rng = SimRng::seeded(seed);
    let mut out = Vec::new();
    let horizon = span.as_secs_f64();
    let mut t = 0.0;
    while t < horizon {
        t += rng.exponential(2.0);
        out.push(Arrival {
            at: SimTime::ZERO + SimDuration::from_secs_f64(t),
            config_id: 0, // light
        });
    }
    t = 5.0;
    while t < horizon {
        t += rng.exponential(20.0);
        out.push(Arrival {
            at: SimTime::ZERO + SimDuration::from_secs_f64(t),
            config_id: 1, // heavy
        });
    }
    out.sort_by_key(|a| a.at);
    out
}

fn eval(policy: SchedulePolicy, arrivals: &[Arrival]) -> CloudletEval {
    let mut cluster = build(policy);
    let mut light = LatencyRecorder::new();
    let mut heavy = LatencyRecorder::new();
    let mut heavy_on_server = 0usize;
    run_trace_core(
        &mut cluster,
        &mut VecTrace::new(arrivals.to_vec()),
        |config_id| if config_id == 1 { "v3-app" } else { "qr-code" }.to_string(),
        SimDuration::from_secs(30),
        |seq, &(node, trace)| {
            if arrivals[seq as usize].config_id == 1 {
                heavy.record(trace.total());
                heavy_on_server += usize::from(node == 0);
            } else {
                light.record(trace.total());
            }
        },
        |_, _| {},
    );
    CloudletEval {
        policy: policy.name(),
        light_mean_ms: light.mean().as_millis_f64(),
        heavy_mean_s: heavy.mean().as_secs_f64(),
        heavy_on_server: heavy_on_server as f64 / heavy.count().max(1) as f64,
    }
}

/// Runs the three relevant policies on the same mixed workload.
pub fn run(seed: u64) -> CloudletResult {
    let arrivals = workload(seed, SimDuration::from_mins(20));
    let evals = [
        SchedulePolicy::RoundRobin,
        SchedulePolicy::ReuseAffinity,
        SchedulePolicy::CostAware,
    ]
    .into_iter()
    .map(|p| eval(p, &arrivals))
    .collect();
    CloudletResult {
        requests: arrivals.len(),
        evals,
    }
}

impl CloudletResult {
    /// Looks up a policy's outcome.
    pub fn eval(&self, policy: &str) -> &CloudletEval {
        self.evals
            .iter()
            .find(|e| e.policy == policy)
            .expect("policy evaluated")
    }

    /// Text rendering.
    pub fn render(&self) -> String {
        let mut table = Table::new(
            format!(
                "Cloudlet (§VII): 1 server + 2 Raspberry Pis, {} mixed requests",
                self.requests
            ),
            &[
                "policy",
                "light_mean_ms",
                "heavy_mean_s",
                "heavy_on_server_%",
            ],
        );
        for e in &self.evals {
            table.row(&[
                e.policy.to_string(),
                format!("{:.1}", e.light_mean_ms),
                format!("{:.2}", e.heavy_mean_s),
                format!("{:.0}", e.heavy_on_server * 100.0),
            ]);
        }
        let mut out = table.render();
        out.push_str(
            "(warm affinity can pin heavy inference to a slow edge node; the cost-aware \
             policy pays a server cold start instead and wins on the heavy class)\n",
        );
        out
    }
}
