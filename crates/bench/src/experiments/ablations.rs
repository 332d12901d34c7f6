//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! Each ablation isolates one knob of HotC and measures its end-to-end
//! effect (not just predictor error):
//!
//! 1. **Key policy** — exact keys vs the §VII fuzzy subset-matching, on a
//!    workload of same-image functions that differ only in environment.
//! 2. **Prediction** — the full adaptive controller vs reactive pooling
//!    only (`ScalingPolicy::KeepAll`), on the Fig. 14(b) burst workload.
//! 3. **Scale-down rate** — the `max_retire_fraction` sweep: aggressive
//!    shedding saves memory but forfeits the later-burst wins.
//! 4. **Smoothing coefficient** — α's end-to-end effect on an alternating
//!    workload.
//! 5. **Pool cap** — `max_live` sweep under a multi-tenant load: the
//!    latency/memory trade-off of the 500-container default.
//! 6. **Image distribution** — registry vs P2P vs lazy-format pulls on an
//!    uncached cold start (the §III-B Alibaba practices).

use crate::driver::run_workload;
use crate::experiments::server_gateway;
use containersim::{
    ContainerEngine, HardwareProfile, ImageRegistry, LanguageRuntime, PullStrategy,
};
use faas::gateway::Gateway;
use faas::{AppProfile, FunctionSpec};
use hotc::{ControllerConfig, HotC, HotCConfig, KeyPolicy, PoolLimits, ScalingPolicy};
use metrics_lite::Table;
use simclock::{SimDuration, SimTime};
use workloads::patterns;

/// Result of the key-policy ablation.
pub struct KeyPolicyAblation {
    /// Mean latency (ms) and cold fraction under exact keys.
    pub exact: (f64, f64),
    /// Same under fuzzy keys.
    pub fuzzy: (f64, f64),
}

/// Ablation 1: exact vs fuzzy keys on env-only variants.
pub fn key_policy(variants: usize, requests: usize) -> KeyPolicyAblation {
    let run = |policy: KeyPolicy| {
        let engine = ContainerEngine::with_local_images(HardwareProfile::server());
        let provider = HotC::new(HotCConfig {
            key_policy: policy,
            ..Default::default()
        });
        let mut gw = Gateway::new(engine, provider);
        for v in 0..variants {
            let app = AppProfile::qr_code(LanguageRuntime::Python);
            let mut config = app.default_config();
            config.exec.env.insert("VARIANT".into(), v.to_string());
            gw.register(
                FunctionSpec::from_app(app)
                    .named(format!("fn-{v}"))
                    .with_config(config),
            );
        }
        // Rotate through the variants, 5 s apart.
        let workload: Vec<workloads::Arrival> = (0..requests)
            .map(|i| workloads::Arrival {
                at: SimTime::from_secs(5 * i as u64),
                config_id: i % variants,
            })
            .collect();
        let out = run_workload(
            gw,
            &workload,
            |id| format!("fn-{id}"),
            SimDuration::from_secs(30),
        );
        (out.mean_latency().as_millis_f64(), out.cold_fraction())
    };
    KeyPolicyAblation {
        exact: run(KeyPolicy::Exact),
        fuzzy: run(KeyPolicy::Fuzzy),
    }
}

/// Result of the prediction ablation: per-burst latency reductions plus the
/// resource cost each mode pays to get them.
pub struct PredictionAblation {
    /// Reductions (%) per burst with the full adaptive controller.
    pub adaptive: Vec<f64>,
    /// Reductions (%) per burst with prediction disabled (reactive pool).
    pub reactive: Vec<f64>,
    /// Live containers at the end: adaptive sheds, reactive hoards.
    pub adaptive_live: usize,
    /// Reactive pool's final live count.
    pub reactive_live: usize,
}

/// Ablation 2: adaptive control vs reactive pooling on the burst workload.
pub fn prediction() -> PredictionAblation {
    let burst_rounds = [4usize, 8, 12, 16];
    let round = SimDuration::from_secs(30);
    let workload = patterns::burst(8, 10, &burst_rounds, 18, round, 0);
    let apps = [AppProfile::qr_code(LanguageRuntime::Python)];
    let route = |_| "qr-code".to_string();

    let default = run_workload(
        server_gateway(faas::ColdStartAlways::new(), &apps),
        &workload,
        route,
        round,
    );
    let burst_mean = |out: &crate::driver::RunOutcome<_>, br: usize| {
        let vals: Vec<f64> = workload
            .iter()
            .zip(&out.traces)
            .filter(|(a, _)| a.at.duration_since(SimTime::ZERO).div_duration(round) as usize == br)
            .map(|(_, t)| t.total().as_millis_f64())
            .collect();
        vals.iter().sum::<f64>() / vals.len() as f64
    };

    let mut results = Vec::new();
    let mut live_counts = Vec::new();
    for policy in [
        ScalingPolicy::default(),
        ScalingPolicy::KeepAll { ping: None },
    ] {
        let provider = HotC::new(HotCConfig {
            policy,
            ..Default::default()
        });
        let out = run_workload(server_gateway(provider, &apps), &workload, route, round);
        let reductions: Vec<f64> = burst_rounds
            .iter()
            .map(|&br| {
                let d = burst_mean(&default, br);
                let h = {
                    let vals: Vec<f64> = workload
                        .iter()
                        .zip(&out.traces)
                        .filter(|(a, _)| {
                            a.at.duration_since(SimTime::ZERO).div_duration(round) as usize == br
                        })
                        .map(|(_, t)| t.total().as_millis_f64())
                        .collect();
                    vals.iter().sum::<f64>() / vals.len() as f64
                };
                (1.0 - h / d) * 100.0
            })
            .collect();
        results.push(reductions);
        live_counts.push(out.gateway.engine().live_count());
    }
    PredictionAblation {
        adaptive: results[0].clone(),
        reactive: results[1].clone(),
        adaptive_live: live_counts[0],
        reactive_live: live_counts[1],
    }
}

/// One row of the retire-fraction sweep.
pub struct RetireRow {
    /// The max_retire_fraction value.
    pub fraction: f64,
    /// Mean latency across burst rounds 2–4 (ms).
    pub later_burst_mean_ms: f64,
    /// Mean live containers between bursts (resource cost proxy).
    pub steady_live: f64,
}

/// Ablation 3: scale-down rate vs burst performance.
pub fn retire_fraction(fractions: &[f64]) -> Vec<RetireRow> {
    let burst_rounds = [4usize, 8, 12, 16];
    let round = SimDuration::from_secs(30);
    let workload = patterns::burst(8, 10, &burst_rounds, 18, round, 0);
    let apps = [AppProfile::qr_code(LanguageRuntime::Python)];
    fractions
        .iter()
        .map(|&fraction| {
            let provider = HotC::new(HotCConfig {
                policy: ScalingPolicy::EsMarkov(ControllerConfig {
                    max_retire_fraction: fraction,
                    ..Default::default()
                }),
                ..Default::default()
            });
            let out = run_workload(
                server_gateway(provider, &apps),
                &workload,
                |_| "qr-code".to_string(),
                round,
            );
            let later: Vec<f64> = workload
                .iter()
                .zip(&out.traces)
                .filter(|(a, _)| {
                    let r = a.at.duration_since(SimTime::ZERO).div_duration(round) as usize;
                    burst_rounds[1..].contains(&r)
                })
                .map(|(_, t)| t.total().as_millis_f64())
                .collect();
            RetireRow {
                fraction,
                later_burst_mean_ms: later.iter().sum::<f64>() / later.len() as f64,
                steady_live: out.gateway.engine().live_count() as f64,
            }
        })
        .collect()
}

/// One row of the α sweep (end-to-end).
pub(crate) struct AlphaRow {
    /// The smoothing coefficient.
    pub alpha: f64,
    /// Mean latency (ms).
    pub mean_ms: f64,
    /// Cold fraction.
    pub cold_fraction: f64,
}

/// Ablation 4: α's end-to-end effect on an alternating (high/low) workload.
pub(crate) fn alpha_sweep(alphas: &[f64]) -> Vec<AlphaRow> {
    let round = SimDuration::from_secs(30);
    // Demand alternates 2 ↔ 14 every round for 24 rounds.
    let mut workload = Vec::new();
    for r in 0..24u64 {
        let n = if r % 2 == 0 { 2 } else { 14 };
        for _ in 0..n {
            workload.push(workloads::Arrival {
                at: SimTime::ZERO + round * r,
                config_id: 0,
            });
        }
    }
    let apps = [AppProfile::qr_code(LanguageRuntime::Python)];
    alphas
        .iter()
        .map(|&alpha| {
            let provider = HotC::new(HotCConfig {
                policy: ScalingPolicy::EsMarkov(ControllerConfig {
                    alpha,
                    ..Default::default()
                }),
                ..Default::default()
            });
            let out = run_workload(
                server_gateway(provider, &apps),
                &workload,
                |_| "qr-code".to_string(),
                round,
            );
            AlphaRow {
                alpha,
                mean_ms: out.mean_latency().as_millis_f64(),
                cold_fraction: out.cold_fraction(),
            }
        })
        .collect()
}

/// One row of the pool-cap sweep.
pub struct PoolCapRow {
    /// The max_live limit.
    pub max_live: usize,
    /// Mean latency (ms).
    pub mean_ms: f64,
    /// Cold fraction.
    pub cold_fraction: f64,
    /// Live containers at the end.
    pub live_at_end: usize,
}

/// Ablation 5: pool cap under a multi-tenant Poisson load.
pub fn pool_cap(caps: &[usize], seed: u64) -> Vec<PoolCapRow> {
    let functions = 8;
    let workload = patterns::poisson(3.0, SimDuration::from_secs(400), functions, 1.1, seed);
    caps.iter()
        .map(|&max_live| {
            let engine = ContainerEngine::with_local_images(HardwareProfile::server());
            let provider = HotC::new(HotCConfig {
                limits: PoolLimits::new(max_live, 0.99),
                ..Default::default()
            });
            let mut gw = Gateway::new(engine, provider);
            for f in 0..functions {
                let app = AppProfile::qr_code(LanguageRuntime::Python);
                let mut config = app.default_config();
                config.exec.env.insert("TENANT".into(), f.to_string());
                gw.register(
                    FunctionSpec::from_app(app)
                        .named(format!("fn-{f}"))
                        .with_config(config),
                );
            }
            let out = run_workload(
                gw,
                &workload,
                |id| format!("fn-{id}"),
                SimDuration::from_secs(30),
            );
            PoolCapRow {
                max_live,
                mean_ms: out.mean_latency().as_millis_f64(),
                cold_fraction: out.cold_fraction(),
                live_at_end: out.gateway.engine().live_count(),
            }
        })
        .collect()
}

/// One row of the image-distribution ablation.
pub struct PullRow {
    /// Strategy name.
    pub strategy: &'static str,
    /// Cold start cost including the pull (seconds).
    pub cold_start_s: f64,
}

/// Ablation 6: pull strategies on an uncached cold start.
pub fn pull_strategies() -> Vec<PullRow> {
    let strategies: [(&'static str, PullStrategy); 3] = [
        ("registry", PullStrategy::Registry),
        ("p2p(4 peers)", PullStrategy::P2p { peers: 4 }),
        ("lazy(15% eager)", PullStrategy::Lazy { eager_pct: 15 }),
    ];
    strategies
        .into_iter()
        .map(|(name, strategy)| {
            // Fresh engine with an EMPTY local store: the pull is paid.
            let registry = ImageRegistry::with_default_catalogue();
            let mut engine = ContainerEngine::new(registry, HardwareProfile::server());
            engine.set_pull_strategy(strategy);
            let app = AppProfile::v3_app();
            let (_, breakdown) = engine
                .create_container(app.default_config(), SimTime::ZERO)
                .expect("create with pull");
            PullRow {
                strategy: name,
                cold_start_s: breakdown.total().as_secs_f64(),
            }
        })
        .collect()
}

/// All ablations, rendered.
pub fn render_all() -> String {
    let mut out = String::new();

    let kp = key_policy(6, 36);
    let mut t = Table::new(
        "Ablation 1: runtime-key policy (6 env-variants of one image)",
        &["policy", "mean_ms", "cold_fraction"],
    );
    t.row(&[
        "exact".into(),
        format!("{:.1}", kp.exact.0),
        format!("{:.2}", kp.exact.1),
    ]);
    t.row(&[
        "fuzzy".into(),
        format!("{:.1}", kp.fuzzy.0),
        format!("{:.2}", kp.fuzzy.1),
    ]);
    out.push_str(&t.render());
    out.push_str("(fuzzy keys reuse across env differences for an 18 ms reconfig cost)\n\n");

    let pred = prediction();
    let mut t = Table::new(
        "Ablation 2: adaptive control vs reactive pool (burst reductions %)",
        &["burst", "adaptive", "reactive"],
    );
    for (i, br) in [4, 8, 12, 16].iter().enumerate() {
        t.row(&[
            br.to_string(),
            format!("{:.1}", pred.adaptive[i]),
            format!("{:.1}", pred.reactive[i]),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "(the reactive pool wins later bursts only by hoarding: {} live containers at the end \
         vs {} adaptive — prediction trades a little burst capacity for {}x fewer idle runtimes)\n\n",
        pred.reactive_live,
        pred.adaptive_live,
        if pred.adaptive_live > 0 {
            pred.reactive_live / pred.adaptive_live.max(1)
        } else {
            0
        }
    ));

    let rows = retire_fraction(&[0.05, 0.1, 0.25, 0.5, 1.0]);
    let mut t = Table::new(
        "Ablation 3: scale-down rate (max_retire_fraction)",
        &["fraction", "later_burst_mean_ms", "live_at_end"],
    );
    for r in &rows {
        t.row(&[
            format!("{:.2}", r.fraction),
            format!("{:.1}", r.later_burst_mean_ms),
            format!("{:.0}", r.steady_live),
        ]);
    }
    out.push_str(&t.render());
    out.push_str("(slow shedding keeps burst capacity warm; 1.0 = shed immediately)\n\n");

    let rows = alpha_sweep(&[0.2, 0.5, 0.8, 0.95]);
    let mut t = Table::new(
        "Ablation 4: smoothing coefficient α, end-to-end (alternating demand)",
        &["alpha", "mean_ms", "cold_fraction"],
    );
    for r in &rows {
        t.row(&[
            format!("{:.2}", r.alpha),
            format!("{:.1}", r.mean_ms),
            format!("{:.3}", r.cold_fraction),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "(finding: end-to-end latency is robust to α — the scale-down floor and gradual \
         retirement absorb prediction error; α matters for prediction accuracy, Fig 10(b))\n\n",
    );

    let rows = pool_cap(&[2, 5, 10, 50], 77);
    let mut t = Table::new(
        "Ablation 5: pool cap (max_live) under 8-tenant Poisson load",
        &["max_live", "mean_ms", "cold_fraction", "live_at_end"],
    );
    for r in &rows {
        t.row(&[
            r.max_live.to_string(),
            format!("{:.1}", r.mean_ms),
            format!("{:.3}", r.cold_fraction),
            r.live_at_end.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');

    let rows = pull_strategies();
    let mut t = Table::new(
        "Ablation 6: image distribution on an uncached v3-app cold start (§III-B)",
        &["strategy", "cold_start_s"],
    );
    for r in &rows {
        t.row(&[r.strategy.to_string(), format!("{:.2}", r.cold_start_s)]);
    }
    out.push_str(&t.render());
    out.push_str("(paper cites Alibaba's P2P distribution and partial-download image format)\n\n");

    let c = contention();
    let mut t = Table::new(
        "Ablation 7: CPU oversubscription (60 simultaneous warm requests, 20 cores)",
        &["model", "burst_mean_ms", "burst_p99_ms"],
    );
    t.row(&[
        "ideal (no contention)".into(),
        format!("{:.1}", c.ideal_mean_ms),
        "-".into(),
    ]);
    t.row(&[
        "contended".into(),
        format!("{:.1}", c.contended_mean_ms),
        format!("{:.1}", c.contended_p99_ms),
    ]);
    out.push_str(&t.render());
    out.push_str("(the §V-D latency spikes under parallel/burst flows come from exactly this)\n\n");

    let d = daemon_serialization();
    let mut t = Table::new(
        "Ablation 8: daemon-serialized creates under a 40-request burst",
        &["backend", "daemon", "burst_mean_ms"],
    );
    t.row(&[
        "cold-start".into(),
        "parallel".into(),
        format!("{:.0}", d.cold_parallel_ms),
    ]);
    t.row(&[
        "cold-start".into(),
        "serialized".into(),
        format!("{:.0}", d.cold_serialized_ms),
    ]);
    t.row(&[
        "hotc (warm)".into(),
        "serialized".into(),
        format!("{:.0}", d.hotc_serialized_ms),
    ]);
    out.push_str(&t.render());
    out.push_str(
        "(§III-B: burst cold starts queue behind the daemon; warm reuse never enters it)\n",
    );
    out
}

/// Result of the contention ablation.
pub struct ContentionAblation {
    /// Mean latency of the oversubscribing burst without contention (ms).
    pub ideal_mean_ms: f64,
    /// Mean latency with CPU contention modelled (ms).
    pub contended_mean_ms: f64,
    /// p99 with contention (the §V-D "slight spike of latency").
    pub contended_p99_ms: f64,
}

/// Ablation 7: CPU oversubscription under a simultaneous burst (60 × 0.5
/// cores on a 20-core host), with runtimes pre-warmed so only execution-time
/// effects show.
pub fn contention() -> ContentionAblation {
    let run = |contended: bool| {
        let mut engine = ContainerEngine::with_local_images(HardwareProfile::server());
        if contended {
            engine.enable_cpu_contention();
        }
        // Reactive pool (no adaptive resizing) so the burst is 100 % warm
        // and the only variable is CPU contention.
        let provider = HotC::new(HotCConfig {
            policy: ScalingPolicy::KeepAll { ping: None },
            ..Default::default()
        });
        let mut gw = Gateway::new(engine, provider);
        gw.register_app(AppProfile::qr_code(LanguageRuntime::Python));
        // One warm-up round so the burst itself is all-warm.
        let warmup = patterns::burst(60, 1, &[], 1, SimDuration::from_secs(30), 0);
        let burst_round = patterns::burst(60, 1, &[], 1, SimDuration::from_secs(30), 0);
        let mut workload = warmup;
        let offset = SimDuration::from_secs(60);
        workload.extend(burst_round.into_iter().map(|mut a| {
            a.at += offset;
            a
        }));
        let out = run_workload(
            gw,
            &workload,
            |_| "qr-code".to_string(),
            SimDuration::from_secs(30),
        );
        let burst_lat: Vec<f64> = out.traces[60..]
            .iter()
            .map(|t| t.total().as_millis_f64())
            .collect();
        let mean = burst_lat.iter().sum::<f64>() / burst_lat.len() as f64;
        let mut sorted = burst_lat.clone();
        sorted.sort_by(f64::total_cmp);
        let p99 = sorted[(0.99 * sorted.len() as f64) as usize - 1];
        (mean, p99)
    };
    let (ideal_mean_ms, _) = run(false);
    let (contended_mean_ms, contended_p99_ms) = run(true);
    ContentionAblation {
        ideal_mean_ms,
        contended_mean_ms,
        contended_p99_ms,
    }
}

/// Result of the daemon-serialization ablation.
pub struct DaemonAblation {
    /// Burst mean latency, cold-start backend, creates unserialized (ms).
    pub cold_parallel_ms: f64,
    /// Burst mean latency, cold-start backend, daemon-serialized (ms).
    pub cold_serialized_ms: f64,
    /// Burst mean latency, HotC (warm pool), daemon-serialized (ms).
    pub hotc_serialized_ms: f64,
}

/// Ablation 8: daemon-serialized creates under a 40-request burst. With
/// every cold start queueing behind the daemon's allocation lock, the
/// cold-start backend degrades super-linearly — and HotC sidesteps the queue
/// entirely because warm reuse never enters the daemon.
pub fn daemon_serialization() -> DaemonAblation {
    let burst_workload = patterns::burst(40, 1, &[], 2, SimDuration::from_secs(60), 0);
    fn mean_of_second_round<P: faas::RuntimeProvider>(out: &crate::driver::RunOutcome<P>) -> f64 {
        let lat: Vec<f64> = out.traces[40..]
            .iter()
            .map(|t| t.total().as_millis_f64())
            .collect();
        lat.iter().sum::<f64>() / lat.len() as f64
    }
    let run = |serialize: bool, hotc: bool| {
        let mut engine = ContainerEngine::with_local_images(HardwareProfile::server());
        if serialize {
            engine.enable_daemon_serialization();
        }
        if hotc {
            let mut gw = Gateway::new(engine, HotC::with_defaults());
            gw.register_app(AppProfile::qr_code(LanguageRuntime::Python));
            let out = run_workload(
                gw,
                &burst_workload,
                |_| "qr-code".to_string(),
                SimDuration::from_secs(60),
            );
            mean_of_second_round(&out)
        } else {
            let mut gw = Gateway::new(engine, faas::ColdStartAlways::new());
            gw.register_app(AppProfile::qr_code(LanguageRuntime::Python));
            let out = run_workload(
                gw,
                &burst_workload,
                |_| "qr-code".to_string(),
                SimDuration::from_secs(60),
            );
            mean_of_second_round(&out)
        }
    };
    DaemonAblation {
        cold_parallel_ms: run(false, false),
        cold_serialized_ms: run(true, false),
        hotc_serialized_ms: run(true, true),
    }
}
