//! Extension experiment: keep-alive policy comparison on an Azure-style
//! multi-tenant workload (the §III-B industry-practice discussion, measured).
//!
//! A 20-function population (hot / periodic / rare classes) runs for four
//! simulated hours under each runtime manager. The interesting trade-off is
//! **cold-start fraction vs. warm-pool footprint**: a global fixed TTL
//! either wastes containers on rare types (long TTL) or cold-starts the
//! periodic types (short TTL); the Azure-style per-type hybrid window and
//! HotC's per-type pool both escape that dilemma.

use crate::driver::run_workload;
use crate::experiments::server_gateway;
use faas::gateway::FunctionSpec;
use faas::{AppProfile, ColdStartAlways, RuntimeProvider};
use hotc::HotC;
use metrics_lite::Table;
use simclock::SimDuration;
use workloads::azure::{azure_workload, AzureWorkloadParams, FunctionClass};
use workloads::Arrival;

/// One policy's outcome on the Azure-style workload.
pub struct KeepAliveEval {
    /// Policy name.
    pub policy: &'static str,
    /// Mean latency (ms).
    pub mean_ms: f64,
    /// Overall cold fraction.
    pub cold_fraction: f64,
    /// Cold fraction among *rare* functions only (the hard class).
    pub rare_cold_fraction: f64,
    /// Time-averaged live containers (warm-pool footprint).
    pub mean_live: f64,
}

/// Result of the keep-alive comparison.
pub struct KeepAliveResult {
    /// Functions in the population.
    pub functions: usize,
    /// Requests served.
    pub requests: usize,
    /// Per-policy outcomes.
    pub evals: Vec<KeepAliveEval>,
}

fn eval<P: RuntimeProvider + 'static>(
    name: &'static str,
    provider: P,
    workload: &[Arrival],
    rare_ids: &[usize],
    functions: usize,
) -> KeepAliveEval {
    let mut gw = server_gateway(provider, &[]);
    for f in 0..functions {
        let app = AppProfile::random_number();
        let mut config = app.default_config();
        config.exec.env.insert("FN".into(), f.to_string());
        gw.register(
            FunctionSpec::from_app(app)
                .named(format!("fn-{f}"))
                .with_config(config),
        );
    }
    let out = run_workload(
        gw,
        workload,
        |id| format!("fn-{id}"),
        SimDuration::from_secs(30),
    );
    let rare_total = workload
        .iter()
        .filter(|a| rare_ids.contains(&a.config_id))
        .count();
    let rare_cold = workload
        .iter()
        .zip(&out.traces)
        .filter(|(a, t)| rare_ids.contains(&a.config_id) && t.cold)
        .count();
    KeepAliveEval {
        policy: name,
        mean_ms: out.mean_latency().as_millis_f64(),
        cold_fraction: out.cold_fraction(),
        rare_cold_fraction: rare_cold as f64 / rare_total.max(1) as f64,
        mean_live: out.mean_live_containers(),
    }
}

/// Runs the comparison.
pub fn run(seed: u64) -> KeepAliveResult {
    let params = AzureWorkloadParams {
        seed,
        // Four hours: enough invocations for per-type windows to be learned
        // even for the rare class (20–60 min gaps).
        duration: simclock::SimDuration::from_mins(240),
        ..Default::default()
    };
    let (workload, mixes) = azure_workload(&params);
    let rare_ids: Vec<usize> = mixes
        .iter()
        .filter(|m| m.class == FunctionClass::Rare)
        .map(|m| m.config_id)
        .collect();
    let functions = params.functions;

    let evals = vec![
        eval(
            "cold-start",
            ColdStartAlways::new(),
            &workload,
            &rare_ids,
            functions,
        ),
        eval(
            "fixed-keepalive(10m)",
            HotC::fixed_keepalive(SimDuration::from_mins(10)),
            &workload,
            &rare_ids,
            functions,
        ),
        eval(
            "fixed-keepalive(60m)",
            HotC::fixed_keepalive(SimDuration::from_mins(60)),
            &workload,
            &rare_ids,
            functions,
        ),
        eval(
            "periodic-warmup(5m)",
            HotC::periodic_warmup(SimDuration::from_mins(5)),
            &workload,
            &rare_ids,
            functions,
        ),
        eval(
            "hybrid-keepalive",
            HotC::hybrid_keepalive(),
            &workload,
            &rare_ids,
            functions,
        ),
        eval(
            "hotc",
            HotC::with_defaults(),
            &workload,
            &rare_ids,
            functions,
        ),
    ];
    KeepAliveResult {
        functions,
        requests: workload.len(),
        evals,
    }
}

impl KeepAliveResult {
    /// Looks up a policy's outcome.
    pub fn eval(&self, policy: &str) -> &KeepAliveEval {
        self.evals
            .iter()
            .find(|e| e.policy == policy)
            .expect("policy evaluated")
    }

    /// Text rendering.
    pub fn render(&self) -> String {
        let mut table = Table::new(
            format!(
                "Keep-alive policy comparison on an Azure-style population \
                 ({} functions, {} requests over 4 h)",
                self.functions, self.requests
            ),
            &[
                "policy",
                "mean_ms",
                "cold_frac",
                "rare_cold_frac",
                "mean_live_ctrs",
            ],
        );
        for e in &self.evals {
            table.row(&[
                e.policy.to_string(),
                format!("{:.1}", e.mean_ms),
                format!("{:.3}", e.cold_fraction),
                format!("{:.3}", e.rare_cold_fraction),
                format!("{:.1}", e.mean_live),
            ]);
        }
        let mut out = table.render();
        out.push_str(
            "(§III-B trade-off: a short global TTL cold-starts the rare class, a long one \
             inflates the pool; the per-type hybrid window beats the short TTL on rare colds \
             at nearly its footprint but needs long histories to learn exponential gaps; \
             HotC's demand-floored per-type pool matches the long TTL's hit rate)\n",
        );
        out
    }
}
