//! Timed-loop micro-benchmark harness (std-only `criterion` replacement).
//!
//! Each bench target under `benches/` builds a [`Harness`], registers its
//! routines with [`Harness::bench`] / [`Harness::bench_with_setup`], and
//! calls [`Harness::finish`], which prints a per-routine summary table and
//! emits machine-readable JSON:
//!
//! - full mode: `BENCH_<suite>.json`, one pretty-printed object per suite;
//! - `--smoke` mode (or `BENCH_SMOKE=1`): drastically shortened warmup and
//!   measurement windows, and one compact JSON object appended as a line to
//!   `BENCH_ci.json` — running every suite yields a JSON-Lines artifact for
//!   CI to upload, seeding the repo's perf trajectory.
//!
//! Output lands in `BENCH_OUT_DIR` when set, else the current directory
//! (the package root under `cargo bench`).
//!
//! Methodology: a warmup loop sizes a batch so one timing sample spans
//! ≈50 µs (amortising `Instant::now()` overhead for nanosecond-scale
//! routines), one further timed batch is run and **discarded** (caches,
//! branch predictors, and lazily-allocated state settle outside the
//! recorded set), then batches are sampled until the measurement window
//! closes *and* at least [`MIN_SAMPLES`] samples exist — slow routines
//! extend the window instead of gating CI on two or three cold samples.
//! Reported numbers are per-iteration nanoseconds over those samples.

use std::time::{Duration, Instant};

use stdshim::{JsonValue, ToJson};

/// Target wall-clock span of a single timing sample.
const SAMPLE_SPAN: Duration = Duration::from_micros(50);

/// Minimum recorded samples per routine; the measurement window auto-extends
/// until reached, so smoke-mode records are stable enough to gate CI on.
const MIN_SAMPLES: usize = 10;

/// One registered routine's measurements, in per-iteration nanoseconds.
#[derive(Debug, Clone)]
pub(crate) struct BenchResult {
    /// Routine name, e.g. `pool/acquire_exec_release_reuse`.
    pub name: String,
    /// Mean per-iteration time over all samples.
    pub mean_ns: f64,
    /// Fastest sample's per-iteration time.
    pub min_ns: f64,
    /// Median sample's per-iteration time.
    pub median_ns: f64,
    /// Number of timing samples taken.
    pub samples: usize,
    /// Iterations per timing sample (1 for setup-per-iteration routines).
    pub iters_per_sample: u64,
}

impl ToJson for BenchResult {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("name", self.name.to_json()),
            ("mean_ns", self.mean_ns.to_json()),
            ("min_ns", self.min_ns.to_json()),
            ("median_ns", self.median_ns.to_json()),
            ("samples", self.samples.to_json()),
            ("iters_per_sample", self.iters_per_sample.to_json()),
        ])
    }
}

/// A suite of timed-loop micro-benchmarks.
pub struct Harness {
    suite: String,
    smoke: bool,
    warmup: Duration,
    measure: Duration,
    results: Vec<BenchResult>,
    derived: Vec<(String, f64)>,
}

impl Harness {
    /// Creates a harness for the named suite, reading `--smoke` from the
    /// command line (any position; other flags such as cargo's `--bench`
    /// are ignored) and the `BENCH_SMOKE` environment variable.
    pub fn new(suite: &str) -> Self {
        let smoke = std::env::args().any(|a| a == "--smoke")
            || std::env::var_os("BENCH_SMOKE").is_some_and(|v| v == "1");
        let (warmup, measure) = if smoke {
            (Duration::from_millis(2), Duration::from_millis(10))
        } else {
            (Duration::from_millis(100), Duration::from_millis(400))
        };
        Harness {
            suite: suite.to_string(),
            smoke,
            warmup,
            measure,
            results: Vec::new(),
            derived: Vec::new(),
        }
    }

    /// Mean of an already-recorded routine, for computing derived metrics
    /// from sibling results (e.g. a scaling-efficiency curve).
    pub fn mean_of(&self, name: &str) -> Option<f64> {
        self.results
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.mean_ns)
    }

    /// Records a derived (computed, not timed) metric. Derived metrics ride
    /// along in the suite's JSON under `"derived"` so trend tooling and CI
    /// gates can read them without re-deriving the arithmetic.
    pub fn record_derived(&mut self, name: &str, value: f64) {
        println!(
            "{:<44} {:>12.4}  (derived)",
            format!("{}/{}", self.suite, name),
            value,
        );
        self.derived.push((name.to_string(), value));
    }

    /// Times `routine` in calibrated batches. The routine's return value is
    /// passed through [`std::hint::black_box`] so the computation cannot be
    /// optimised away.
    pub fn bench<R>(&mut self, name: &str, mut routine: impl FnMut() -> R) {
        // Warmup: run until the window closes, counting iterations to size
        // the timing batch.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < self.warmup || warm_iters == 0 {
            std::hint::black_box(routine());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_nanos().max(1) / u128::from(warm_iters);
        let batch = (SAMPLE_SPAN.as_nanos() / per_iter.max(1)).clamp(1, 1 << 20) as u64;

        // Discard one full-size batch: the warmup loop ran unbatched, so the
        // first batched pass still pays one-time costs (allocator growth,
        // cache shape of the batch loop) that would skew a short window.
        for _ in 0..batch {
            std::hint::black_box(routine());
        }

        let mut samples = Vec::new();
        let run_start = Instant::now();
        while run_start.elapsed() < self.measure || samples.len() < MIN_SAMPLES {
            let t = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(routine());
            }
            samples.push(t.elapsed().as_nanos() as f64 / batch as f64);
        }
        self.push(name, samples, batch);
    }

    /// Times `routine` exactly once and records the single wall-clock span
    /// as the routine's mean — for heavyweight end-to-end runs (seconds-long
    /// trace replays) where the calibrated sampling loop would multiply a
    /// minute-scale routine past any CI budget. Returns the routine's output
    /// so the caller can assert on it and derive metrics (req/s, high-water
    /// marks) from the run that was actually timed.
    pub fn bench_once<R>(&mut self, name: &str, routine: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = std::hint::black_box(routine());
        let ns = t.elapsed().as_nanos().max(1) as f64;
        self.push(name, vec![ns], 1);
        out
    }

    /// Times `routine` on a fresh input from `setup` each iteration; only
    /// the routine itself is inside the timed span (criterion's
    /// `iter_batched` shape). Suitable for routines that consume or mutate
    /// their input and take ≳1 µs.
    pub fn bench_with_setup<S, R>(
        &mut self,
        name: &str,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> R,
    ) {
        let warm_start = Instant::now();
        let mut warmed = false;
        while warm_start.elapsed() < self.warmup || !warmed {
            let input = setup();
            std::hint::black_box(routine(input));
            warmed = true;
        }
        // Discarded settling run, symmetric with `bench`.
        std::hint::black_box(routine(setup()));

        let mut samples = Vec::new();
        let run_start = Instant::now();
        while run_start.elapsed() < self.measure || samples.len() < MIN_SAMPLES {
            let input = setup();
            let t = Instant::now();
            let output = std::hint::black_box(routine(input));
            samples.push(t.elapsed().as_nanos() as f64);
            // Teardown of the routine's output happens outside the timed
            // span (criterion's `iter_with_large_drop`): a routine that
            // consumes a large fixture is measured on its work, not on
            // dropping the fixture.
            drop(output);
        }
        self.push(name, samples, 1);
    }

    fn push(&mut self, name: &str, mut samples: Vec<f64>, iters_per_sample: u64) {
        samples.sort_by(|a, b| a.total_cmp(b));
        let mean_ns = samples.iter().sum::<f64>() / samples.len() as f64;
        let result = BenchResult {
            name: name.to_string(),
            mean_ns,
            min_ns: samples[0],
            median_ns: samples[samples.len() / 2],
            samples: samples.len(),
            iters_per_sample,
        };
        println!(
            "{:<44} mean {:>12.1} ns  min {:>12.1} ns  median {:>12.1} ns  ({} samples x {} iters)",
            format!("{}/{}", self.suite, result.name),
            result.mean_ns,
            result.min_ns,
            result.median_ns,
            result.samples,
            result.iters_per_sample,
        );
        self.results.push(result);
    }

    fn to_json(&self) -> JsonValue {
        let derived = JsonValue::array(self.derived.iter().map(|(name, value)| {
            JsonValue::object([("name", name.to_json()), ("value", value.to_json())])
        }));
        // Host parallelism rides along so gates on multi-thread scaling can
        // tell "regression" apart from "the runner has fewer cores than the
        // curve needs" (the perf-gate binary skips such gates, visibly).
        let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
        JsonValue::object([
            ("suite", self.suite.to_json()),
            ("mode", if self.smoke { "smoke" } else { "full" }.to_json()),
            ("parallelism", parallelism.to_json()),
            ("results", self.results.to_json()),
            ("derived", derived),
        ])
    }

    /// Writes the suite's JSON artifact(s). Panics on I/O failure so a CI
    /// run cannot silently drop its perf numbers.
    pub fn finish(self) {
        let dir = std::env::var("BENCH_OUT_DIR").unwrap_or_else(|_| ".".to_string());
        let json = self.to_json();
        if self.smoke {
            // One line per suite: BENCH_ci.json accumulates a JSON-Lines
            // record across every `cargo bench -- --smoke` target.
            let path = format!("{dir}/BENCH_ci.json");
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .unwrap_or_else(|e| panic!("open {path}: {e}"));
            writeln!(f, "{json}").unwrap_or_else(|e| panic!("write {path}: {e}"));
            println!("[{}] appended smoke results to {path}", self.suite);
        } else {
            let path = format!("{dir}/BENCH_{}.json", self.suite);
            std::fs::write(&path, json.to_pretty_string() + "\n")
                .unwrap_or_else(|e| panic!("write {path}: {e}"));
            println!("[{}] wrote {path}", self.suite);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_harness(suite: &str) -> Harness {
        let mut h = Harness::new(suite);
        // Force smoke timings regardless of the test invocation's args.
        h.smoke = true;
        h.warmup = Duration::from_micros(200);
        h.measure = Duration::from_millis(2);
        h
    }

    #[test]
    fn bench_records_sane_stats() {
        let mut h = smoke_harness("selftest");
        let mut acc = 0u64;
        h.bench("wrapping_add", || {
            acc = acc.wrapping_add(0x9E37_79B9);
            acc
        });
        let r = &h.results[0];
        assert!(r.samples >= 10);
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.mean_ns * 4.0);
        assert!(r.min_ns > 0.0);
    }

    #[test]
    fn bench_once_records_one_sample_and_returns_output() {
        let mut h = smoke_harness("selftest");
        let out = h.bench_once("single", || {
            let t = Instant::now();
            while t.elapsed() < Duration::from_micros(50) {
                std::hint::black_box(0u64);
            }
            41 + 1
        });
        assert_eq!(out, 42);
        let r = &h.results[0];
        assert_eq!(r.samples, 1);
        assert_eq!(r.iters_per_sample, 1);
        assert!(r.mean_ns >= 50_000.0, "got {}", r.mean_ns);
        assert_eq!(r.mean_ns, r.min_ns);
    }

    #[test]
    fn setup_variant_excludes_setup_cost() {
        let mut h = smoke_harness("selftest");
        h.bench_with_setup("sum_vec", || vec![1u64; 512], |v| v.iter().sum::<u64>());
        let r = &h.results[0];
        assert_eq!(r.iters_per_sample, 1);
        assert!(r.samples >= 10);
    }

    /// A routine slower than the whole measurement window must still land
    /// the minimum sample count — the window auto-extends rather than
    /// recording two or three cold samples (the old `hotc_tick_100_types`
    /// smoke-mode failure).
    #[test]
    fn slow_routines_extend_the_window_to_min_samples() {
        let mut h = smoke_harness("selftest");
        h.measure = Duration::from_micros(100);
        h.bench("slow_spin", || {
            let t = Instant::now();
            while t.elapsed() < Duration::from_micros(60) {
                std::hint::black_box(0u64);
            }
        });
        let r = &h.results[0];
        assert!(r.samples >= 10, "got only {} samples", r.samples);
    }

    #[test]
    fn smoke_output_is_json_lines() {
        let dir = std::env::temp_dir().join("hotc-bench-harness-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("BENCH_ci.json");
        let _ = std::fs::remove_file(&file);

        let mut h = smoke_harness("jsonl");
        h.bench("noop", || 1u32);
        // finish() reads BENCH_OUT_DIR at write time.
        std::env::set_var("BENCH_OUT_DIR", &dir);
        h.finish();
        let mut h2 = smoke_harness("jsonl2");
        h2.bench("noop", || 2u32);
        h2.finish();
        std::env::remove_var("BENCH_OUT_DIR");

        let text = std::fs::read_to_string(&file).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"suite\":\"jsonl\""));
        assert!(lines[1].contains("\"suite\":\"jsonl2\""));
        assert!(lines[0].starts_with('{') && lines[0].ends_with('}'));
    }
}
