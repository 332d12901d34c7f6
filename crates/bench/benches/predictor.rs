//! Predictor micro-benchmarks: the per-control-step CPU cost of Eq. 1,
//! Eq. 2, and the combined model (runs once per runtime type per interval).

use hotc_bench::Harness;
use predictor::{EsMarkov, ExponentialSmoothing, MarkovChain, Predictor, RegionPartition};
use std::hint::black_box;

fn demand_series(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let base = if (i / 10) % 2 == 0 { 8.0 } else { 19.0 };
            base + (i % 3) as f64
        })
        .collect()
}

fn bench_smoothing_step(h: &mut Harness) {
    let mut es = ExponentialSmoothing::paper_default();
    let mut i = 0u64;
    h.bench("es_observe_predict", || {
        i += 1;
        es.observe((i % 23) as f64);
        black_box(es.predict())
    });
}

fn bench_markov_fit(h: &mut Harness) {
    let series = demand_series(256);
    h.bench("markov_fit_256", || {
        black_box(MarkovChain::fit(black_box(&series), 6))
    });
}

fn bench_markov_kstep(h: &mut Harness) {
    let chain = MarkovChain::fit(&demand_series(256), 6);
    h.bench("markov_4step_matrix", || black_box(chain.k_step_matrix(4)));
}

fn bench_combined_step(h: &mut Harness) {
    // The actual controller workload: one observe+predict per interval,
    // including the windowed chain rebuild.
    let mut p = EsMarkov::paper_default();
    for x in demand_series(64) {
        p.observe(x);
    }
    let mut i = 0u64;
    h.bench("es_markov_observe_predict", || {
        i += 1;
        p.observe((8 + (i % 12)) as f64);
        black_box(p.predict())
    });
}

fn bench_idle_key(h: &mut Harness) {
    // A controller key's step as it really runs: a full window of sparse
    // integer demand; each interval replays an idle stretch, takes one
    // request, predicts and asks how long the key's level holds.
    let mut p = EsMarkov::paper_default();
    for i in 0..256 {
        p.observe(if i % 13 == 0 { (1 + i % 3) as f64 } else { 0.0 });
    }
    h.bench("es_markov_idle_key", || {
        p.observe_zeros(12);
        p.observe(1.0);
        black_box(p.predict());
        black_box(p.zero_run_holding(1))
    });
}

fn bench_partition_lookup(h: &mut Harness) {
    let partition = RegionPartition::new(0.0, 100.0, 8);
    let mut x = 0.0f64;
    h.bench("region_state_of", || {
        x = (x + 13.7) % 120.0;
        black_box(partition.state_of(x))
    });
}

fn main() {
    let mut h = Harness::new("predictor");
    bench_smoothing_step(&mut h);
    bench_markov_fit(&mut h);
    bench_markov_kstep(&mut h);
    bench_combined_step(&mut h);
    bench_idle_key(&mut h);
    bench_partition_lookup(&mut h);
    h.finish();
}
