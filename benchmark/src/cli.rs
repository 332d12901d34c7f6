//! Command line, pass orchestration, correctness checks and output.
//!
//! One invocation with `--workload W --trace 0|1` is what `BENCHMARK.json`'s
//! command runs: it measures for `--seconds`, checks outputs, prints every
//! metric by name and ends with one JSON line. Without `--workload` the
//! program runs every workload in both modes, each in a fresh child process,
//! and prints one table; `--check-repeat` does that twice and compares.

use crate::alloc;
use crate::catalogue::{self, Better, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use crate::driver::{self, RepOutcome, RunSpec};
use crate::probes;
use crate::proc;
use crate::trace::{now, Span, Tracer};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use stdshim::{JsonValue, ToJson};

const HEADER: &str = "HotC benchmark: offline trace replay, single thread, input sizes as listed; \
simulated arrival times are part of the input, host time is never fed back into the simulation. \
Every number is host (what the simulator costs) or sim (what the modelled deployment does).";

/// Where the traced pass and the counted child leave files, relative to the
/// working directory (the repository root; `run.sh` changes into it).
const OUT_DIR: &str = "benchmark/out";

/// Standalone set-ups run before the repetitions, for extra `setup_s` samples.
const EXTRA_SETUPS: usize = 5;

struct Args {
    workload: Option<&'static Workload>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    smoke: bool,
    check_repeat: bool,
    /// Child mode: one pass of one workload (`counted` or `timed`).
    pass: Option<String>,
    /// Child mode: the reference snapshot file to write (`counted`) or
    /// compare with (`timed`).
    reference: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: run.sh [--workload <{}>] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--check-repeat]\n\
         \x20 no --workload: every workload, both passes, one table",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: None,
        seconds: 10.0,
        trace: false,
        smoke: false,
        check_repeat: false,
        pass: None,
        reference: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    catalogue::workload(name)
                        .ok_or_else(|| format!("unknown workload '{name}'\n{}", usage()))?,
                );
            }
            "--seed" => {
                let v = value()?;
                args.seed = Some(v.parse().map_err(|_| format!("bad --seed '{v}'"))?);
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| (0.0..=600.0).contains(s))
                    .ok_or_else(|| format!("bad --seconds '{v}'"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace '{v}' (0 or 1)")),
                };
            }
            "--smoke" => args.smoke = true,
            "--check-repeat" => args.check_repeat = true,
            "--pass" => args.pass = Some(value()?.clone()),
            "--reference" => args.reference = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
    }
    Ok(args)
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics; 0 for an empty slice.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let Some(last) = v.len().checked_sub(1) else {
        return 0.0;
    };
    let at = q * last as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

/// The reference run: the counted child's results plus the file holding its
/// metrics snapshot JSON, which every other pass must reproduce byte for
/// byte. The file is removed when this is dropped.
struct Reference {
    allocs: u64,
    bytes: u64,
    requests: u64,
    live_at_end: u64,
    /// Allocations of one traced repetition (`--trace 1` only).
    traced_allocs: Option<u64>,
    /// `metrics.alloc_bytes_per_key` probe (`--trace 1` only).
    alloc_bytes_per_key: f64,
    path: PathBuf,
}

impl Drop for Reference {
    fn drop(&mut self) {
        // Best effort: a leftover file under benchmark/out is harmless.
        let _ = std::fs::remove_file(&self.path);
    }
}

/// The counted pass, run inside the `hotc-benchmark-counted` child: exact
/// allocation counts around `hotc_cli::run_scenario` plus the serialisation
/// `hotc-sim --metrics-out` does (around the benchmark's own driver for
/// `cluster_affinity`). With `traced`, also one traced repetition — whose
/// allocation count the parent holds to within 1 % of the counted one — and
/// the per-key metrics memory probe.
fn counted_child(spec: &RunSpec, traced: bool, reference: &Path) -> Result<(), String> {
    if alloc::counts().0 == 0 {
        return Err("--pass counted needs the hotc-benchmark-counted binary".to_string());
    }
    let ((requests, live_at_end, json), allocs, bytes) = if spec.workload.scenario.is_some() {
        let scenario = driver::parse_scenario(spec)?;
        let (out, allocs, bytes) = alloc::counted(|| {
            hotc_cli::run_scenario(&scenario).map(|report| {
                let json = report.metrics.to_json().to_pretty_string();
                (report.requests as u64, report.live_at_end as u64, json)
            })
        });
        (out?, allocs, bytes)
    } else {
        let (out, allocs, bytes) = alloc::counted(|| driver::timed_rep(spec));
        let rep = out?;
        (
            (rep.finished, rep.live_at_end as u64, rep.snapshot_json),
            allocs,
            bytes,
        )
    };
    std::fs::write(reference, &json).map_err(|e| format!("{}: {e}", reference.display()))?;

    let (traced_allocs, alloc_bytes_per_key) = if traced {
        let tracer = Tracer::new();
        let (out, traced_allocs, _) = alloc::counted(|| driver::traced_rep(spec, tracer));
        let (rep, _) = out?;
        if rep.snapshot_json != json {
            return Err("counted traced repetition's snapshot differs from the reference".into());
        }
        drop((rep, json));
        (
            JsonValue::Int(traced_allocs as i64),
            probes::alloc_bytes_per_key(&workload_slots(spec)?),
        )
    } else {
        (JsonValue::Null, 0.0)
    };
    println!(
        "{}",
        JsonValue::object([
            ("allocs", JsonValue::Int(allocs as i64)),
            ("bytes", JsonValue::Int(bytes as i64)),
            ("requests", JsonValue::Int(requests as i64)),
            ("live_at_end", JsonValue::Int(live_at_end as i64)),
            ("traced_allocs", traced_allocs),
            ("alloc_bytes_per_key", JsonValue::Float(alloc_bytes_per_key)),
        ])
    );
    Ok(())
}

fn workload_slots(spec: &RunSpec) -> Result<Vec<driver::Slot>, String> {
    if spec.workload.scenario.is_some() {
        driver::slots(&driver::parse_scenario(spec)?)
    } else {
        Ok(driver::cluster_slots(spec))
    }
}

/// Checks one repetition against itself and the reference snapshot.
fn rep_failures(rep: &RepOutcome, reference_json: &str) -> Vec<String> {
    let mut out = Vec::new();
    if let Some(e) = &rep.trace_error {
        out.push(format!("trace error: {e}"));
    }
    if rep.arrivals != rep.finished {
        out.push(format!(
            "{} arrivals but {} finished",
            rep.arrivals, rep.finished
        ));
    }
    if rep.gateway_requests != rep.finished || rep.gateway_cold_starts != rep.cold {
        out.push(format!(
            "gateway counted {} requests / {} cold, the loop {} / {}",
            rep.gateway_requests, rep.gateway_cold_starts, rep.finished, rep.cold
        ));
    }
    if rep.snapshot_json != reference_json {
        out.push("metrics snapshot JSON differs from the reference run's".to_string());
    }
    out
}

/// Requests that did not complete successfully.
fn failed_requests(rep: &RepOutcome) -> u64 {
    rep.failed + rep.arrivals.saturating_sub(rep.finished)
}

/// The timed pass, run inside a fresh `hotc-benchmark` child: one
/// repetition, then its checks and a few extra set-ups (after the peak RSS
/// was read, so they cannot raise it).
fn timed_child(spec: &RunSpec, reference: &Path) -> Result<(), String> {
    let rep = driver::timed_rep(spec)?;
    let peak_rss_mb = proc::peak_rss_mb()?;
    let stat = proc::stat()?;
    let reference_json =
        std::fs::read_to_string(reference).map_err(|e| format!("{}: {e}", reference.display()))?;
    let failures = rep_failures(&rep, &reference_json);
    let mut setups = vec![rep.setup_s];
    for _ in 0..EXTRA_SETUPS {
        setups.push(driver::setup_only(spec)?);
    }
    println!(
        "{}",
        JsonValue::object([
            ("failures", JsonValue::array(failures)),
            ("setups", JsonValue::array(setups)),
            (
                "wall_s",
                JsonValue::Float(rep.setup_s + rep.replay_report_s)
            ),
            (
                "req_per_s",
                JsonValue::Float(rep.arrivals as f64 / rep.replay_report_s)
            ),
            ("arrivals", JsonValue::Int(rep.arrivals as i64)),
            ("finished", JsonValue::Int(rep.finished as i64)),
            ("failed", JsonValue::Int(failed_requests(&rep) as i64)),
            ("live_at_end", JsonValue::Int(rep.live_at_end as i64)),
            ("peak_rss_mb", JsonValue::Float(peak_rss_mb)),
            ("sim_mean_ms", JsonValue::Float(rep.sim_mean_ms)),
            ("cpu_user_s", JsonValue::Float(stat.user_s)),
            ("cpu_sys_s", JsonValue::Float(stat.sys_s)),
            ("minor_faults", JsonValue::Int(stat.minor_faults as i64)),
            ("summary", JsonValue::Str(rep.summary)),
        ])
    );
    Ok(())
}

/// Runs a child to completion and parses the JSON on its last output line.
fn run_child(mut cmd: Command) -> Result<JsonValue, String> {
    let what = format!("{cmd:?}");
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{what}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{what}: {}\n{stdout}", out.status));
    }
    last_json_line(&stdout)
}

fn last_json_line(stdout: &str) -> Result<JsonValue, String> {
    let line = stdout.lines().next_back().ok_or("child printed nothing")?;
    JsonValue::parse(line).map_err(|e| format!("child result line: {e}"))
}

/// A `--pass` child of `exe` for `spec`, reading or writing `reference`.
fn pass_command(exe: PathBuf, pass: &str, spec: &RunSpec, reference: &Path) -> Command {
    let mut cmd = Command::new(exe);
    cmd.args(["--pass", pass, "--workload", spec.workload.name])
        .args(["--seed", &spec.seed.to_string()])
        .arg("--reference")
        .arg(reference);
    if spec.smoke {
        cmd.arg("--smoke");
    }
    cmd
}

fn num(line: &JsonValue, key: &str) -> Result<f64, String> {
    line.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("child result: no '{key}'"))
}

impl Reference {
    /// Runs the counted pass in a child and keeps what it found.
    fn create(spec: &RunSpec, traced: bool) -> Result<Reference, String> {
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
        let path = PathBuf::from(format!(
            "{OUT_DIR}/{}.reference.{}.json",
            spec.workload.name,
            std::process::id()
        ));
        let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut cmd = pass_command(
            me.with_file_name("hotc-benchmark-counted"),
            "counted",
            spec,
            &path,
        );
        cmd.args(["--trace", if traced { "1" } else { "0" }]);
        let line = run_child(cmd)?;
        Ok(Reference {
            allocs: num(&line, "allocs")? as u64,
            bytes: num(&line, "bytes")? as u64,
            requests: num(&line, "requests")? as u64,
            live_at_end: num(&line, "live_at_end")? as u64,
            traced_allocs: line
                .get("traced_allocs")
                .and_then(JsonValue::as_i64)
                .map(|v| v as u64),
            alloc_bytes_per_key: num(&line, "alloc_bytes_per_key")?,
            path,
        })
    }

    /// Failures of a run that served `finished` requests and ended with
    /// `live_at_end` live containers, against what the reference run saw.
    fn count_failures(&self, finished: u64, live_at_end: u64) -> Vec<String> {
        let mut out = Vec::new();
        if finished != self.requests {
            out.push(format!(
                "{finished} requests served, reference run served {}",
                self.requests
            ));
        }
        if live_at_end != self.live_at_end {
            out.push(format!(
                "{live_at_end} live containers at end, reference run ended with {}",
                self.live_at_end
            ));
        }
        out
    }
}

/// What one timed child measured.
struct TimedRun {
    failures: Vec<String>,
    setups: Vec<f64>,
    line: JsonValue,
}

impl TimedRun {
    fn get(&self, key: &str) -> Result<f64, String> {
        num(&self.line, key)
    }
}

/// One timed repetition in a fresh process.
fn spawn_timed(spec: &RunSpec, reference: &Reference) -> Result<TimedRun, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let line = run_child(pass_command(me, "timed", spec, &reference.path))?;
    let array = |key: &str| -> Result<Vec<&JsonValue>, String> {
        Ok(line
            .get(key)
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("timed child: no '{key}'"))?
            .iter()
            .collect())
    };
    let mut failures: Vec<String> = array("failures")?
        .into_iter()
        .filter_map(|f| f.as_str().map(str::to_string))
        .collect();
    failures.extend(reference.count_failures(
        num(&line, "finished")? as u64,
        num(&line, "live_at_end")? as u64,
    ));
    let setups = array("setups")?
        .into_iter()
        .filter_map(JsonValue::as_f64)
        .collect();
    Ok(TimedRun {
        failures,
        setups,
        line,
    })
}

/// One measured metric value, with the spread of the repetitions behind it
/// where there are any.
struct Value {
    name: &'static str,
    value: f64,
    spread: Option<(f64, f64, usize)>,
}

fn plain(name: &'static str, value: f64) -> Value {
    Value {
        name,
        value,
        spread: None,
    }
}

fn of_reps(name: &'static str, value: f64, samples: &[f64]) -> Value {
    let (lo, hi) = min_max(samples);
    Value {
        name,
        value,
        spread: Some((lo, hi, samples.len())),
    }
}

struct RunResult {
    values: Vec<Value>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

/// `--trace 0`: the counted pass once, then timed repetitions — each in a
/// fresh process, as `hotc-sim` itself runs — until `seconds` have passed.
fn timed_mode(spec: &RunSpec, seconds: f64) -> Result<RunResult, String> {
    let reference = Reference::create(spec, false)?;
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut peaks = Vec::new();
    let mut failures = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let started = now();
    let last = loop {
        let run = spawn_timed(spec, &reference)?;
        setups.extend(&run.setups);
        rates.push(run.get("req_per_s")?);
        peaks.push(run.get("peak_rss_mb")?);
        attempted += run.get("arrivals")? as u64;
        failed += run.get("failed")? as u64;
        println!(
            "rep     {:>2}  req_per_s {:>12.1}  wall_s {:.3}  cpu_user_s {:.2}  cpu_sys_s {:.2}  minor_faults {}  peak_rss_mb {:.1}",
            rates.len(),
            run.get("req_per_s")?,
            run.get("wall_s")?,
            run.get("cpu_user_s")?,
            run.get("cpu_sys_s")?,
            run.get("minor_faults")?,
            run.get("peak_rss_mb")?
        );
        for f in &run.failures {
            failures.push(format!("timed repetition {}: {f}", rates.len()));
        }
        if now().duration_since(started).as_secs_f64() >= seconds {
            break run;
        }
    };
    if let Some(summary) = last.line.get("summary").and_then(JsonValue::as_str) {
        println!("sim     {summary}");
    }
    let requests = reference.requests.max(1) as f64;
    Ok(RunResult {
        values: vec![
            of_reps("setup_s", median(&setups), &setups),
            // Interference on a shared host only ever slows a repetition
            // down, so the fast side of the distribution is the stable one:
            // the upper quartile spreads about half as much between runs as
            // the median does.
            of_reps("req_per_s", quantile(&rates, 0.75), &rates),
            of_reps("peak_rss_mb", median(&peaks), &peaks),
            plain("allocs_per_req", reference.allocs as f64 / requests),
            plain("alloc_bytes_per_req", reference.bytes as f64 / requests),
            plain("sim_mean_ms", last.get("sim_mean_ms")?),
        ],
        attempted,
        failed,
        failures,
    })
}

/// `--trace 1`: the counted pass (with its traced cross-check), one timed
/// repetition in a fresh process for the untraced wall and `proc.*`, then
/// traced repetitions in this process until `seconds` have passed, then the
/// direct probes.
fn traced_mode(spec: &RunSpec, seconds: f64) -> Result<RunResult, String> {
    let reference = Reference::create(spec, true)?;
    let timed = spawn_timed(spec, &reference)?;
    let mut failures: Vec<String> = timed
        .failures
        .iter()
        .map(|f| format!("timed repetition: {f}"))
        .collect();
    let reference_json = std::fs::read_to_string(&reference.path)
        .map_err(|e| format!("{}: {e}", reference.path.display()))?;

    let mut tracer = Tracer::new();
    let mut walls = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let started = now();
    let rep = loop {
        let t0 = now();
        let (rep, t) = driver::traced_rep(spec, tracer)?;
        tracer = t;
        walls.push(now().duration_since(t0).as_secs_f64());
        attempted += rep.arrivals;
        failed += failed_requests(&rep);
        for f in rep_failures(&rep, &reference_json)
            .into_iter()
            .chain(reference.count_failures(rep.finished, rep.live_at_end as u64))
        {
            failures.push(format!("traced repetition {}: {f}", walls.len()));
        }
        if now().duration_since(started).as_secs_f64() >= seconds {
            break rep;
        }
    };
    drop(reference_json);
    let reps = walls.len() as f64;
    println!("sim     {}", rep.summary);

    let probe = probes::run(&workload_slots(spec)?, spec.smoke)?;

    let traced_allocs = reference
        .traced_allocs
        .ok_or("counted child: no 'traced_allocs'")?;
    let drift =
        (traced_allocs as f64 - reference.allocs as f64).abs() / reference.allocs.max(1) as f64;
    if drift > 0.01 {
        failures.push(format!(
            "traced loop allocates {traced_allocs} times, run_scenario {} ({:.2} % apart): the mirrored loop has drifted from run_trace",
            reference.allocs,
            drift * 100.0
        ));
    }
    let is_cluster = spec.workload.scenario.is_none();
    let st = |s: Span| tracer.stats(s);
    if spec.workload.name == "always_cold" && st(Span::AcquireWarm).count != 0 {
        failures.push("always_cold served warm hits".to_string());
    }

    let spans_path = format!("{OUT_DIR}/{}.spans.json", spec.workload.name);
    std::fs::write(
        &spans_path,
        tracer.to_json(spec.workload.name).to_pretty_string(),
    )
    .map_err(|e| format!("{spans_path}: {e}"))?;

    let traced_wall: f64 = walls.iter().sum();
    let root_ns = st(Span::Run).total_ns.max(1) as f64;
    println!(
        "spans   {} traced repetition(s), {:.3} s; self time = duration minus child spans",
        walls.len(),
        root_ns / 1e9
    );
    for &s in Span::ALL {
        let t = st(s);
        if t.count > 0 {
            println!(
                "span    {:<26} count {:>10}  total_ms {:>10.2}  self_ms {:>10.2}  self_share {:>6.2} %",
                s.name(),
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                t.self_ns as f64 / root_ns * 100.0
            );
        }
    }
    println!("spans   written to {spans_path}");

    let warm = st(Span::AcquireWarm).count as f64;
    let cold = st(Span::AcquireCold).count as f64;
    let arrivals_traced = st(Span::NextArrival).count.max(1) as f64;
    let ms = |ns: f64| ns / 1e6;
    let on_cluster = |v: f64| if is_cluster { v } else { 0.0 };
    let values = vec![
        plain(
            "workloads.next_arrival_ns",
            (st(Span::Peek).total_ns + st(Span::NextArrival).total_ns) as f64 / arrivals_traced,
        ),
        plain("workloads.arrivals", rep.arrivals as f64),
        plain(
            "driver.loop_self_ns_per_req",
            st(Span::Replay).self_ns as f64 / arrivals_traced,
        ),
        plain("driver.max_inflight", rep.max_inflight as f64),
        plain("driver.ticks", rep.ticks as f64),
        plain("faas.begin_self_ns", st(Span::FaasBegin).mean_self_ns()),
        plain("faas.finish_self_ns", st(Span::FaasFinish).mean_self_ns()),
        plain("faas.tick_self_ns", st(Span::FaasTick).mean_self_ns()),
        plain("faas.requests", rep.gateway_requests as f64),
        plain("faas.cold_starts", rep.gateway_cold_starts as f64),
        plain("provider.acquire_warm_ns", st(Span::AcquireWarm).mean_ns()),
        plain("provider.release_ns", st(Span::Release).mean_ns()),
        plain("provider.acquires", (warm + cold) / reps),
        plain("provider.warm_hits", warm / reps),
        plain(
            "provider.hit_ratio",
            if warm + cold > 0.0 {
                warm / (warm + cold)
            } else {
                0.0
            },
        ),
        plain("provider.acquire_cold_ns", st(Span::AcquireCold).mean_ns()),
        plain(
            "provider.acquire_cold_p99_ns",
            st(Span::AcquireCold).quantile_ns(0.99),
        ),
        plain("provider.forced_evictions", rep.forced_evictions as f64),
        plain("provider.tick_ns", st(Span::ProviderTick).mean_ns()),
        plain(
            "provider.tick_p99_ns",
            st(Span::ProviderTick).quantile_ns(0.99),
        ),
        plain("provider.background_s", rep.background_s),
        plain("predictor.update_ns", probe.predictor_update_ns),
        plain("containersim.lifecycle_ns", probe.lifecycle_ns),
        plain("containersim.exec_ns", probe.exec_ns),
        plain("containersim.oldest_scan_ns", probe.oldest_scan_ns),
        plain("containersim.live_peak", rep.live_peak as f64),
        plain("metrics.record_ns", probe.record_ns),
        plain("metrics.alloc_bytes_per_key", reference.alloc_bytes_per_key),
        plain("metrics.snapshot_ms", ms(st(Span::Snapshot).mean_ns())),
        plain("metrics.json_ms", ms(st(Span::Json).mean_ns())),
        plain("metrics.json_bytes", rep.snapshot_json.len() as f64),
        plain("cli.parse_ms", ms(st(Span::Parse).mean_ns())),
        plain("cli.build_ms", ms(st(Span::Build).mean_ns())),
        plain("cli.report_ms", ms(st(Span::Report).mean_ns())),
        plain("cluster.begin_ns", st(Span::ClusterBegin).mean_ns()),
        plain("cluster.finish_ns", st(Span::ClusterFinish).mean_ns()),
        plain("cluster.tick_ns", st(Span::ClusterTick).mean_ns()),
        plain("cluster.placements", on_cluster(rep.arrivals as f64)),
        plain(
            "cluster.cold_starts",
            on_cluster(rep.gateway_cold_starts as f64),
        ),
        plain("cluster.imbalance", rep.imbalance),
        plain("cluster.live_end", on_cluster(rep.live_at_end as f64)),
        plain("sim.p50_ms", rep.sim_p50_ms),
        plain("sim.p99_ms", rep.sim_p99_ms),
        plain(
            "sim.cold_fraction",
            rep.cold as f64 / rep.finished.max(1) as f64,
        ),
        plain("sim.mean_live", rep.live_mean),
        plain(
            "sim.failed_share",
            failed_requests(&rep) as f64 / rep.arrivals.max(1) as f64,
        ),
        plain("proc.wall_s", timed.get("wall_s")?),
        plain("proc.cpu_user_s", timed.get("cpu_user_s")?),
        plain("proc.cpu_sys_s", timed.get("cpu_sys_s")?),
        plain("proc.minor_faults", timed.get("minor_faults")?),
        plain(
            "trace.overhead_ratio",
            median(&walls) / timed.get("wall_s")?,
        ),
        plain(
            "trace.self_sum_ratio",
            tracer.self_sum_ns() as f64 / 1e9 / traced_wall,
        ),
        plain(
            "trace.share_acquire_cold",
            st(Span::AcquireCold).self_ns as f64 / root_ns,
        ),
        plain(
            "trace.share_provider_tick",
            st(Span::ProviderTick).self_ns as f64 / root_ns,
        ),
    ];
    Ok(RunResult {
        values,
        attempted,
        failed,
        failures,
    })
}

/// Prints the metric lines and the final JSON line of one workload run.
fn print_result(trace: bool, result: &RunResult) -> Result<bool, String> {
    let mut metrics = Vec::new();
    let lookup = |name: &str| {
        result
            .values
            .iter()
            .find(|v| v.name == name)
            .ok_or_else(|| format!("metric '{name}' was not measured"))
    };
    if trace {
        for m in PER_LAYER {
            let v = lookup(m.name)?;
            println!(
                "layer   {:<30} {:>16.4} {:<6} {:<6} layer={} moves={} on={}",
                m.name,
                v.value,
                m.unit,
                m.better.as_str(),
                m.layer,
                m.moves,
                m.on
            );
            metrics.push((m.name, m.unit, v.value));
        }
    } else {
        for m in END_TO_END {
            let v = lookup(m.name)?;
            let spread = v.spread.map_or(String::new(), |(lo, hi, n)| {
                format!(" min={lo:.6} max={hi:.6} n={n}")
            });
            println!(
                "e2e     {:<22} {:>16.6} {:<6} {:<6} bound={}{spread}",
                m.name,
                v.value,
                m.unit,
                m.better.as_str(),
                m.bound
            );
            metrics.push((m.name, m.unit, v.value));
        }
    }
    if metrics.len() != result.values.len() {
        return Err("a measured metric is missing from the catalogue".to_string());
    }
    let correct = result.failures.is_empty();
    for f in &result.failures {
        println!("FAILED  {f}");
    }
    let failed = if correct {
        result.failed
    } else {
        result.attempted
    };
    println!(
        "{}",
        JsonValue::object([
            ("correct", JsonValue::Bool(correct)),
            ("attempted", JsonValue::Int(result.attempted as i64)),
            ("failed", JsonValue::Int(failed as i64)),
            (
                "metrics",
                JsonValue::Object(
                    metrics
                        .into_iter()
                        .map(|(name, unit, value)| {
                            (
                                name.to_string(),
                                JsonValue::object([
                                    ("value", JsonValue::Float(value)),
                                    ("unit", JsonValue::Str(unit.to_string())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    );
    Ok(correct)
}

fn run_one(spec: &RunSpec, seconds: f64, trace: bool) -> Result<bool, String> {
    println!("{HEADER}");
    println!(
        "workload {}  seed {}  pass {}  {}  measuring for {seconds} s{}",
        spec.workload.name,
        spec.seed,
        if trace { "traced" } else { "timed+counted" },
        spec.workload.why,
        if spec.smoke { "  (smoke sizes)" } else { "" }
    );
    let result = if trace {
        traced_mode(spec, seconds)?
    } else {
        timed_mode(spec, seconds)?
    };
    print_result(trace, &result)
}

/// One `(workload, pass)` in a fresh child process of this same binary.
/// Returns the child's metric lines `(name, value, min, max)` and whether it
/// reported `correct`.
fn run_in_child(
    args: &Args,
    workload: &Workload,
    trace: bool,
) -> Result<(Vec<Line>, bool), String> {
    let mut cmd = Command::new(std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?);
    cmd.args(["--workload", workload.name])
        .args([
            "--seed",
            &args.seed.unwrap_or(workload.default_seed).to_string(),
        ])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // A failed correctness check exits non-zero but still prints its result.
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{cmd:?}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    print!("{stdout}");
    let result = last_json_line(&stdout)?;
    let correct = result.get("correct").and_then(JsonValue::as_bool) == Some(true);
    let lines = stdout
        .lines()
        .filter(|l| l.starts_with("e2e ") || l.starts_with("layer "))
        .filter_map(Line::parse)
        .collect();
    Ok((lines, correct && out.status.success()))
}

/// One printed metric line, read back by the all-workloads modes.
struct Line {
    name: String,
    value: f64,
    min: Option<f64>,
    max: Option<f64>,
}

impl Line {
    fn parse(line: &str) -> Option<Line> {
        let mut words = line.split_whitespace();
        let _kind = words.next()?;
        let name = words.next()?.to_string();
        let value = words.next()?.parse().ok()?;
        let field = |key: &str| {
            line.split_whitespace()
                .find_map(|w| w.strip_prefix(key))
                .and_then(|v| v.parse().ok())
        };
        Some(Line {
            name,
            value,
            min: field("min="),
            max: field("max="),
        })
    }
}

/// Every workload, both passes, then one table per pass.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    let mut timed = Vec::new();
    let mut traced = Vec::new();
    for w in WORKLOADS {
        for (trace, table) in [(false, &mut timed), (true, &mut traced)] {
            let (lines, correct) = run_in_child(args, w, trace)?;
            ok &= correct;
            table.push(lines);
        }
    }
    println!();
    println!("{HEADER}");
    for (title, table, names) in [
        (
            "end-to-end (timed + counted passes)",
            &timed,
            END_TO_END
                .iter()
                .map(|m| (m.name, m.unit, m.better, Some(m.bound)))
                .collect::<Vec<_>>(),
        ),
        (
            "per-layer (traced pass + probes)",
            &traced,
            PER_LAYER
                .iter()
                .map(|m| (m.name, m.unit, m.better, None))
                .collect(),
        ),
    ] {
        println!("== {title}");
        print!(
            "{:<30} {:<6} {:<6} {:<6}",
            "metric", "unit", "better", "bound"
        );
        for w in WORKLOADS {
            print!(" {:>16}", w.name);
        }
        println!();
        for (name, unit, better, bound) in names {
            print!(
                "{name:<30} {unit:<6} {:<6} {:<6}",
                better.as_str(),
                bound.map_or("-".to_string(), |b| b.to_string())
            );
            for lines in table {
                match lines.iter().find(|l| l.name == name) {
                    Some(l) => print!(" {:>16.4}", l.value),
                    None => {
                        ok = false;
                        print!(" {:>16}", "MISSING");
                    }
                }
            }
            println!();
        }
    }
    Ok(ok)
}

/// The timed + counted passes of every workload, twice on the same tree;
/// fails unless every (end-to-end metric, workload) pair agrees within its
/// bound.
fn check_repeat(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    let mut rows = Vec::new();
    for w in WORKLOADS {
        let (a, correct_a) = run_in_child(args, w, false)?;
        let (b, correct_b) = run_in_child(args, w, false)?;
        ok &= correct_a && correct_b;
        for m in END_TO_END {
            let find = |lines: &[Line]| {
                lines
                    .iter()
                    .find(|l| l.name == m.name)
                    .map(|l| (l.value, l.min.unwrap_or(l.value), l.max.unwrap_or(l.value)))
                    .ok_or_else(|| format!("{}: no {} line", w.name, m.name))
            };
            let (first, second) = (find(&a)?, find(&b)?);
            let worse = match m.better {
                Better::Lower => second.0 / first.0 - 1.0,
                Better::Higher => first.0 / second.0 - 1.0,
            };
            let within = worse.abs() <= m.bound;
            ok &= within;
            rows.push(format!(
                "{:<17} {:<20} {:>14.6} [{:.6} .. {:.6}]  {:>14.6} [{:.6} .. {:.6}]  {:>+8.3} % of bound {:>5.1} %  {}",
                w.name,
                m.name,
                first.0,
                first.1,
                first.2,
                second.0,
                second.1,
                second.2,
                worse * 100.0,
                m.bound * 100.0,
                if within { "ok" } else { "OUT OF BOUND" }
            ));
        }
    }
    println!();
    println!("== repeat check: first run value [min .. max of its repetitions], second run likewise, second vs first");
    for row in rows {
        println!("{row}");
    }
    Ok(ok)
}

/// Program entry shared by both binaries.
pub fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| {
        let spec = |w: &'static Workload| RunSpec {
            workload: w,
            seed: args.seed.unwrap_or(w.default_seed),
            smoke: args.smoke,
        };
        match (args.workload, args.pass.as_deref()) {
            (Some(w), Some(pass)) => {
                let reference = args
                    .reference
                    .as_deref()
                    .ok_or("--pass needs --reference")?;
                match pass {
                    "counted" => counted_child(&spec(w), args.trace, reference),
                    "timed" => timed_child(&spec(w), reference),
                    other => Err(format!("bad --pass '{other}'")),
                }
                .map(|()| true)
            }
            (None, Some(_)) => Err("--pass needs --workload".to_string()),
            (Some(w), None) => run_one(&spec(w), args.seconds, args.trace),
            (None, None) if args.check_repeat => check_repeat(&args),
            (None, None) => run_all(&args),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("hotc-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
