//! Simulation-kernel micro-benchmarks: the random draws every workload
//! generator pays per arrival. The replay loop's event queue is the
//! `BinaryHeap` inside `hotc_bench::driver` and is timed end to end by the
//! `replay` suite; `simclock::Simulation` schedules only the `reference`
//! oracle.

use hotc_bench::Harness;
use std::hint::black_box;

fn bench_rng_distributions(h: &mut Harness) {
    let mut rng = simclock::SimRng::seeded(1);
    h.bench("rng/exponential", || black_box(rng.exponential(10.0)));
    let mut rng = simclock::SimRng::seeded(2);
    h.bench("rng/poisson_small_lambda", || black_box(rng.poisson(5.0)));
    let mut rng = simclock::SimRng::seeded(3);
    h.bench("rng/zipf_14", || black_box(rng.zipf(14, 1.0)));
}

fn main() {
    let mut h = Harness::new("simkernel");
    bench_rng_distributions(&mut h);
    h.finish();
}
