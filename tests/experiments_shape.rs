//! Shape assertions for every reproduced figure: the relationships the paper
//! reports must hold in our reproduction (who wins, by roughly what factor,
//! where crossovers fall). Absolute values are recorded in EXPERIMENTS.md.

use containersim::LanguageRuntime;
use hotc_bench::experiments as exp;

#[test]
fn fig1_first_request_of_each_batch_is_coldest() {
    let r = exp::fig1::run(4, 10);
    assert!(r.first_is_always_slowest());
    // The serverless CDF has a long tail; the local one is flat.
    assert!(r.serverless_tail_ratio > 5.0, "{}", r.serverless_tail_ratio);
    assert!(r.local_tail_ratio < 1.2, "{}", r.local_tail_ratio);
    // Cold start makes the max clearly exceed the average.
    assert!(r.high_over_avg_pct > 31.7, "{}", r.high_over_avg_pct);
}

#[test]
fn fig2_few_images_dominate() {
    let r = exp::fig2::run(5000, 42);
    // Fig 2(a): a few images dominate, even harder among popular projects.
    assert!(r.all_top4_share > 0.55, "{}", r.all_top4_share);
    assert!(r.top100_top4_share > r.all_top4_share);
    // Fig 2(b): all three config categories are present and sum to 1.
    use workloads::dockerfiles::ConfigCategory;
    let sum: f64 = [
        ConfigCategory::Os,
        ConfigCategory::Language,
        ConfigCategory::Application,
    ]
    .iter()
    .map(|&c| r.category_share(c))
    .sum();
    assert!((sum - 1.0).abs() < 1e-9);
}

#[test]
fn fig4_language_and_network_ratios() {
    let r = exp::fig4::run();
    // (b) Go cold ≈ 3.06× hot.
    let go = r.lang(LanguageRuntime::Go).cold_over_hot();
    assert!((2.5..3.6).contains(&go), "go cold/hot = {go}");
    // Java: cold roughly doubles the already long execution.
    let java = r.lang(LanguageRuntime::Java);
    let jr = java.cold_over_hot();
    assert!((1.8..2.9).contains(&jr), "java cold/hot = {jr}");
    // Java's hot execution is the longest of the four.
    for lang in [
        LanguageRuntime::Python,
        LanguageRuntime::Go,
        LanguageRuntime::NodeJs,
    ] {
        assert!(java.hot_exec > r.lang(lang).hot_exec);
    }
    // (a) Java launches slowest (JVM boot), Go fastest.
    assert!(
        r.lang(LanguageRuntime::Java).launch.total() > r.lang(LanguageRuntime::Go).launch.total()
    );
    // (c) overlay up to 23× host.
    let overlay = r.overlay_over_host();
    assert!((20.0..25.0).contains(&overlay), "overlay/host = {overlay}");
}

#[test]
fn fig5_initiation_dominates_cold_requests() {
    let r = exp::fig5::run();
    assert!(
        r.cold_initiation_share() > 0.8,
        "{}",
        r.cold_initiation_share()
    );
    // Warm requests spend most of their time executing, not initiating.
    assert!(r.warm.execution() > r.warm.initiation());
    assert!(r.cold.total() > r.warm.total() * 10);
    // §III-A: the edge platforms show "much similar" results — initiation
    // dominates cold requests everywhere.
    for p in &r.platforms {
        assert!(
            p.cold_initiation_share() > 0.8,
            "{}: {}",
            p.platform,
            p.cold_initiation_share()
        );
    }
}

#[test]
fn fig8_reductions_match_paper_bands() {
    let r = exp::fig8::run(10);
    let v3_server = r.cell("v3-app", "server").reduction_pct();
    let tf_server = r.cell("TF-API-app", "server").reduction_pct();
    let v3_pi = r.cell("v3-app", "raspberry-pi3").reduction_pct();
    let tf_pi = r.cell("TF-API-app", "raspberry-pi3").reduction_pct();

    // Paper: 33.2 / 23.9 server, 26.6 / 20.6 Pi. Allow ±8 points.
    assert!((25.0..41.0).contains(&v3_server), "v3 server {v3_server}");
    assert!((16.0..32.0).contains(&tf_server), "tf server {tf_server}");
    assert!((18.0..35.0).contains(&v3_pi), "v3 pi {v3_pi}");
    assert!((12.0..29.0).contains(&tf_pi), "tf pi {tf_pi}");

    // Shape: v3 gains more than TF (heavier model load); the edge gains less
    // than the server (compute dominates there).
    assert!(v3_server > tf_server);
    assert!(v3_pi > tf_pi);
    assert!(v3_pi < v3_server);
    assert!(tf_pi < tf_server);
}

#[test]
fn fig9_hotc_latency_drops_as_pool_warms() {
    let r = exp::fig9::run(40, 7);
    // Without HotC everything pays setup; with HotC the mean is far lower.
    assert!(r.hotc_mean < r.default_mean / 3);
    // The warm regime approaches the 60 ms transform.
    let warm = r.hotc_warm_regime_mean().as_millis_f64();
    assert!(warm < 120.0, "warm regime mean {warm} ms");
    // Only the first few per-type requests cold-start.
    assert!(r.hotc_cold_fraction < 0.25, "{}", r.hotc_cold_fraction);
}

#[test]
fn fig10_markov_correction_helps_lagging_smoother() {
    let r = exp::fig10::run(11);
    let es = r.strategy("exp-smoothing(0.3)");
    let combo = r.strategy("es+markov(0.3)");
    // The combined predictor reduces both the overall and the jump error of
    // the lagging smoother (paper: 29 % → 10 % on the jump).
    assert!(combo.mape < es.mape, "{} !< {}", combo.mape, es.mape);
    assert!(
        combo.jump_error < es.jump_error,
        "{} !< {}",
        combo.jump_error,
        es.jump_error
    );
    // At the deployed α = 0.8 the combination must not hurt.
    let es8 = r.strategy("exp-smoothing(0.8)");
    let combo8 = r.strategy("es+markov(0.8)");
    assert!(combo8.mape <= es8.mape * 1.05);
}

#[test]
fn fig11_trace_features_and_replay_ordering() {
    let r = exp::fig11::run(3, 10.0);
    // Burst at T710 relative to the pre-burst level.
    assert!(r.trace[710] > r.trace[700] * 8.0);
    // Afternoon decline and evening rise.
    assert!(r.trace[850] > r.trace[1150]);
    assert!(r.trace[1390] > r.trace[1210]);
    // Backends order as expected.
    let cold = r.replay("cold-start");
    let ka = r.replay("fixed-keepalive");
    let hc = r.replay("hotc");
    assert!(hc.mean_latency_ms <= ka.mean_latency_ms * 1.15);
    assert!(ka.mean_latency_ms < cold.mean_latency_ms / 5.0);
    assert!(hc.cold_fraction < 0.05);
    assert!((cold.cold_fraction - 1.0).abs() < 1e-9);
}

/// The four §III-B readings the `keepalive` table's footer states, on the
/// committed run (seed 33).
#[test]
fn keepalive_footer_claims_hold() {
    let r = exp::keepalive::run(33);
    let short = r.eval("fixed-keepalive(10m)");
    let long = r.eval("fixed-keepalive(60m)");
    let hybrid = r.eval("hybrid-keepalive");
    let hotc = r.eval("hotc");
    // A short global TTL cold-starts the rare class …
    assert!(short.rare_cold_fraction > 2.0 * long.rare_cold_fraction);
    // … a long one inflates the pool.
    assert!(long.mean_live > 1.3 * short.mean_live);
    // The per-type hybrid window beats the short TTL on rare colds, at
    // nearly (within 20 % of) its footprint.
    assert!(hybrid.rare_cold_fraction < short.rare_cold_fraction);
    assert!(hybrid.mean_live < 1.2 * short.mean_live);
    // HotC's demand-floored pool matches the long TTL's hit rate.
    assert!(hotc.cold_fraction <= long.cold_fraction);
    assert!(hotc.rare_cold_fraction <= long.rare_cold_fraction);
}

#[test]
fn fig12_serial_and_parallel() {
    let r = exp::fig12::run(20, 10, 30);
    // (a) default: every serial request pays the cold cost; HotC: only the
    // first.
    let default_spread = r.serial_default.iter().cloned().fold(f64::MIN, f64::max)
        / r.serial_default.iter().cloned().fold(f64::MAX, f64::min);
    assert!(default_spread < 1.5, "default is uniformly slow");
    assert!(r.serial_hotc[0] > 10.0 * r.serial_hotc[1]);
    assert!(r.serial_hotc[1..].iter().all(|&l| l < 120.0));
    // (b) paper: HotC ≈ 9 % of default.
    let ratio = r.parallel_ratio();
    assert!((0.05..0.20).contains(&ratio), "parallel ratio {ratio}");
}

#[test]
fn fig13_ramps() {
    let r = exp::fig13::run(10);
    // Increasing: HotC's later rounds are cheaper than the default's.
    let inc = &r.increasing;
    for round in 2..inc.counts.len() {
        assert!(inc.hotc_ms[round] < inc.default_ms[round]);
    }
    // Decreasing: after round 0 everything is warm under HotC.
    let dec = &r.decreasing;
    assert!(dec.hotc_cold[0] > 0.9);
    for round in 1..dec.counts.len() {
        assert!(
            dec.hotc_cold[round] < 0.05,
            "round {round} cold {}",
            dec.hotc_cold[round]
        );
        assert!(dec.hotc_ms[round] < 120.0);
    }
}

#[test]
fn fig14_exponential_and_bursts() {
    let r = exp::fig14::run();
    // (a) increasing 2^i: from round 1 on, at least half of each round's
    // requests reuse the previous wave's runtimes.
    for round in 1..r.exp_increasing.counts.len() {
        assert!(
            r.exp_increasing.reuse_fraction[round] >= 0.5,
            "round {round}: {}",
            r.exp_increasing.reuse_fraction[round]
        );
    }
    // Decreasing: everything after the peak reuses.
    for round in 1..r.exp_decreasing.counts.len() {
        assert!(r.exp_decreasing.reuse_fraction[round] > 0.95);
    }
    // (b) paper: ≈9 % at the first burst, up to ≈73 % later.
    let reductions = r.bursts.reductions_pct();
    assert!(
        (4.0..18.0).contains(&reductions[0]),
        "first burst {}",
        reductions[0]
    );
    let best = reductions[1..].iter().cloned().fold(f64::MIN, f64::max);
    assert!(best > 45.0, "best later burst {best}");
    assert!(reductions[1..].iter().all(|&x| x > reductions[0]));
}

#[test]
fn fig15_overhead_is_negligible() {
    let r = exp::fig15::run();
    // (a) ten live containers: <1 % CPU; ≈0.7 MB + small runtime per container.
    assert!(r.cpu_for_ten < 0.01, "{}", r.cpu_for_ten);
    assert!(
        (0.5..6.0).contains(&r.mem_per_container_mb),
        "{}",
        r.mem_per_container_mb
    );
    // (b) the running app dwarfs the idle container, and resources return to
    // the idle level after the app stops.
    assert_eq!(r.timeline.len(), 21, "one row per second, 0..=20 s");
    let at = |sec: u64| r.timeline[sec as usize];
    let (_, idle_cpu, idle_mem) = at(2);
    let (_, busy_cpu, busy_mem) = at(r.app_start_s + 2);
    let (_, _, after_mem) = at(r.app_stop_s + 2);
    assert!(busy_mem > idle_mem + 1000.0, "app adds GBs");
    assert!((after_mem - idle_mem).abs() < 1.0, "OS reclaims app memory");
    assert!(busy_cpu > idle_cpu + 0.2);
}
