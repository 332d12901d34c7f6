//! CI perf-gate checker: evaluates `ci/gates.json` against the JSON-Lines
//! perf artifact (`BENCH_ci.json`) that `cargo bench -- --smoke` appends to.
//!
//! Replaces the grep/sed/awk gate logic that used to live in `ci/check.sh`:
//! the same thresholds are now data (`ci/gates.json`), the arithmetic is
//! tested Rust, and the output is a pass/fail table instead of the first
//! failing pipeline's stderr. Usage:
//!
//! ```text
//! cargo run -p hotc-bench --bin gate -- [BENCH_ci.json] [ci/gates.json]
//! ```
//!
//! Exit status is non-zero when any gate fails, a referenced record is
//! missing, or either input file is absent or malformed — a perf artifact
//! that silently lost a suite must fail CI, not skip its gates.
//!
//! Gate kinds (see `ci/gates.json` for the live set):
//!
//! - `suite_present` — the suite emitted at least one record;
//! - `present` — a specific `suite` + `name` record exists;
//! - `max_mean` — the record's `mean_ns` is strictly under `max_mean_ns`;
//! - `ratio` — `mean_ns(suite/name)` over `mean_ns(denom_suite/denom)` is
//!   at most `max_ratio` (denominator suite defaults to `suite`). With
//!   `max_ratio` 1.0 this expresses "A must be cheaper than B"; with 1.25
//!   it pins a scaling curve, e.g. 16-thread mean within 1.25x of 8-thread.
//! - `min_derived` / `max_derived` — a suite's *derived* metric (computed,
//!   not timed: req/s throughput, peak-RSS kB, high-water marks) is at least
//!   `min_value` / at most `max_value`. A derived gate may carry
//!   `"skip_if_missing": true` for metrics the recording host cannot always
//!   produce (e.g. `/proc`-based RSS off Linux): absence then reports as an
//!   explicit `skip` row instead of a failure.
//!
//! A gate may carry `min_parallelism`: it is evaluated only when the
//! artifact's recorded host parallelism reaches that count, and reported as
//! an explicit `skip` row otherwise. Multi-thread scaling gates use this so
//! a 2-core runner reports "cannot measure 16-thread scaling" instead of a
//! spurious regression — while capable hardware still enforces the curve.

use std::process::ExitCode;

use stdshim::JsonValue;

/// Every `mean_ns` record in the artifact, keyed by `(suite, name)`.
/// Linear lookups: the artifact holds a few dozen records.
struct Records {
    suites: Vec<String>,
    means: Vec<(String, String, f64)>,
    /// Derived (computed, not timed) metrics, keyed the same way.
    derived: Vec<(String, String, f64)>,
    /// Smallest host parallelism any suite recorded (suites run in one CI
    /// job, so these agree; `min` is the conservative merge if not).
    parallelism: usize,
}

impl Records {
    fn mean(&self, suite: &str, name: &str) -> Option<f64> {
        self.means
            .iter()
            .find(|(s, n, _)| s == suite && n == name)
            .map(|&(_, _, m)| m)
    }

    fn derived(&self, suite: &str, name: &str) -> Option<f64> {
        self.derived
            .iter()
            .find(|(s, n, _)| s == suite && n == name)
            .map(|&(_, _, v)| v)
    }
}

fn str_field<'a>(value: &'a JsonValue, key: &str, ctx: &str) -> Result<&'a str, String> {
    value
        .get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("{ctx}: missing string field '{key}'"))
}

fn num_field(value: &JsonValue, key: &str, ctx: &str) -> Result<f64, String> {
    value
        .get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("{ctx}: missing numeric field '{key}'"))
}

fn load_records(path: &str) -> Result<Records, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut records = Records {
        suites: Vec::new(),
        means: Vec::new(),
        derived: Vec::new(),
        parallelism: usize::MAX,
    };
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ctx = format!("{path}:{}", idx + 1);
        let value = JsonValue::parse(line).map_err(|e| format!("{ctx}: {e}"))?;
        let suite = str_field(&value, "suite", &ctx)?.to_string();
        // Absent in pre-upgrade artifacts; treat those as single-core so
        // hardware-conditional gates skip rather than misfire.
        let parallelism = value
            .get("parallelism")
            .and_then(JsonValue::as_i64)
            .map_or(1, |p| p.max(1) as usize);
        records.parallelism = records.parallelism.min(parallelism);
        let results = value
            .get("results")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("{ctx}: missing 'results' array"))?;
        for r in results {
            let name = str_field(r, "name", &ctx)?.to_string();
            let mean = num_field(r, "mean_ns", &ctx)?;
            records.means.push((suite.clone(), name, mean));
        }
        // Absent in pre-upgrade artifacts.
        if let Some(derived) = value.get("derived").and_then(JsonValue::as_array) {
            for d in derived {
                let name = str_field(d, "name", &ctx)?.to_string();
                let v = num_field(d, "value", &ctx)?;
                records.derived.push((suite.clone(), name, v));
            }
        }
        records.suites.push(suite);
    }
    if records.suites.is_empty() {
        return Err(format!("{path}: no suite records — did the benches run?"));
    }
    Ok(records)
}

/// One evaluated gate row: outcome, short label, and the measured detail.
struct Row {
    outcome: Outcome,
    label: String,
    detail: String,
}

#[derive(PartialEq, Clone, Copy)]
enum Outcome {
    Pass,
    Skip,
    Fail,
}

impl Row {
    fn checked(ok: bool, label: String, detail: String) -> Row {
        Row {
            outcome: if ok { Outcome::Pass } else { Outcome::Fail },
            label,
            detail,
        }
    }
}

fn eval_gate(gate: &JsonValue, records: &Records, ctx: &str) -> Result<Row, String> {
    let kind = str_field(gate, "kind", ctx)?;
    // Hardware guard: a scaling gate is only meaningful when the recording
    // host could actually run the threads in parallel.
    if let Some(min) = gate.get("min_parallelism").and_then(JsonValue::as_i64) {
        let min = min.max(1) as usize;
        if records.parallelism < min {
            return Ok(Row {
                outcome: Outcome::Skip,
                label: format!("{kind} {}", str_field(gate, "name", ctx).unwrap_or("?")),
                detail: format!(
                    "skipped: host parallelism {} < required {min}",
                    records.parallelism
                ),
            });
        }
    }
    match kind {
        "suite_present" => {
            let suite = str_field(gate, "suite", ctx)?;
            let ok = records.suites.iter().any(|s| s == suite);
            let detail = if ok { "recorded" } else { "MISSING" };
            Ok(Row::checked(
                ok,
                format!("suite_present {suite}"),
                detail.to_string(),
            ))
        }
        "present" => {
            let suite = str_field(gate, "suite", ctx)?;
            let name = str_field(gate, "name", ctx)?;
            let ok = records.mean(suite, name).is_some();
            let detail = if ok { "recorded" } else { "MISSING" };
            Ok(Row::checked(
                ok,
                format!("present {suite}/{name}"),
                detail.to_string(),
            ))
        }
        "max_mean" => {
            let suite = str_field(gate, "suite", ctx)?;
            let name = str_field(gate, "name", ctx)?;
            let limit = num_field(gate, "max_mean_ns", ctx)?;
            let label = format!("max_mean {suite}/{name}");
            match records.mean(suite, name) {
                Some(mean) => Ok(Row::checked(
                    mean < limit,
                    label,
                    format!("{mean:.1} ns < {limit} ns"),
                )),
                None => Ok(Row::checked(false, label, "record MISSING".into())),
            }
        }
        "ratio" => {
            let suite = str_field(gate, "suite", ctx)?;
            let name = str_field(gate, "name", ctx)?;
            let denom_name = str_field(gate, "denom", ctx)?;
            let denom_suite = gate
                .get("denom_suite")
                .and_then(JsonValue::as_str)
                .unwrap_or(suite);
            let limit = num_field(gate, "max_ratio", ctx)?;
            let label = format!("ratio {suite}/{name} : {denom_suite}/{denom_name}");
            match (
                records.mean(suite, name),
                records.mean(denom_suite, denom_name),
            ) {
                (Some(num), Some(denom)) if denom > 0.0 => {
                    let ratio = num / denom;
                    Ok(Row::checked(
                        ratio <= limit,
                        label,
                        format!("{ratio:.3} <= {limit} ({num:.1} / {denom:.1} ns)"),
                    ))
                }
                _ => Ok(Row::checked(false, label, "record MISSING".into())),
            }
        }
        "min_derived" | "max_derived" => {
            let suite = str_field(gate, "suite", ctx)?;
            let name = str_field(gate, "name", ctx)?;
            let label = format!("{kind} {suite}/{name}");
            let value = match records.derived(suite, name) {
                Some(v) => v,
                None => {
                    let skip = gate
                        .get("skip_if_missing")
                        .and_then(JsonValue::as_bool)
                        .unwrap_or(false);
                    return Ok(if skip {
                        Row {
                            outcome: Outcome::Skip,
                            label,
                            detail: "skipped: derived metric not recorded on this host".into(),
                        }
                    } else {
                        Row::checked(false, label, "derived metric MISSING".into())
                    });
                }
            };
            if kind == "min_derived" {
                let limit = num_field(gate, "min_value", ctx)?;
                Ok(Row::checked(
                    value >= limit,
                    label,
                    format!("{value:.1} >= {limit}"),
                ))
            } else {
                let limit = num_field(gate, "max_value", ctx)?;
                Ok(Row::checked(
                    value <= limit,
                    label,
                    format!("{value:.1} <= {limit}"),
                ))
            }
        }
        other => Err(format!("{ctx}: unknown gate kind '{other}'")),
    }
}

fn run(bench_path: &str, gates_path: &str) -> Result<bool, String> {
    let records = load_records(bench_path)?;
    let gates_text =
        std::fs::read_to_string(gates_path).map_err(|e| format!("read {gates_path}: {e}"))?;
    let gates = JsonValue::parse(&gates_text)
        .map_err(|e| format!("{gates_path}: {e}"))?
        .get("gates")
        .and_then(JsonValue::as_array)
        .map(<[JsonValue]>::to_vec)
        .ok_or_else(|| format!("{gates_path}: missing top-level 'gates' array"))?;
    if gates.is_empty() {
        return Err(format!("{gates_path}: empty 'gates' array"));
    }

    println!(
        "perf gates: {} records from {bench_path}, {} gates from {gates_path}",
        records.means.len(),
        gates.len()
    );
    println!("{:<6} {:<64} DETAIL", "RESULT", "GATE");
    let mut failures = 0usize;
    for (idx, gate) in gates.iter().enumerate() {
        let ctx = format!("{gates_path} gate #{}", idx + 1);
        let row = eval_gate(gate, &records, &ctx)?;
        let verdict = match row.outcome {
            Outcome::Pass => "ok",
            Outcome::Skip => "skip",
            Outcome::Fail => {
                failures += 1;
                "FAIL"
            }
        };
        println!("{:<6} {:<64} {}", verdict, row.label, row.detail);
    }
    if failures > 0 {
        eprintln!("{failures} perf gate(s) failed");
    } else {
        println!("all {} perf gates passed", gates.len());
    }
    Ok(failures == 0)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let bench_path = args.next().unwrap_or_else(|| "BENCH_ci.json".to_string());
    let gates_path = args.next().unwrap_or_else(|| "ci/gates.json".to_string());
    match run(&bench_path, &gates_path) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(err) => {
            eprintln!("gate: {err}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Records {
        Records {
            suites: vec!["pool".into(), "contention".into()],
            means: vec![
                ("pool".into(), "acquire".into(), 240.0),
                (
                    "contention".into(),
                    "concurrent_gateway/8_threads".into(),
                    400_000.0,
                ),
                (
                    "contention".into(),
                    "concurrent_gateway/16_threads".into(),
                    480_000.0,
                ),
            ],
            derived: vec![("pool".into(), "req_per_sec".into(), 25_000.0)],
            parallelism: 32,
        }
    }

    fn gate_json(text: &str) -> JsonValue {
        JsonValue::parse(text).expect("test gate json")
    }

    #[test]
    fn max_mean_passes_under_and_fails_over() {
        let records = sample_records();
        let under =
            gate_json(r#"{"kind":"max_mean","suite":"pool","name":"acquire","max_mean_ns":510}"#);
        let over =
            gate_json(r#"{"kind":"max_mean","suite":"pool","name":"acquire","max_mean_ns":100}"#);
        assert!(matches!(
            eval_gate(&under, &records, "t").unwrap().outcome,
            Outcome::Pass
        ));
        assert!(matches!(
            eval_gate(&over, &records, "t").unwrap().outcome,
            Outcome::Fail
        ));
    }

    #[test]
    fn missing_record_fails_rather_than_skips() {
        let records = sample_records();
        let gone =
            gate_json(r#"{"kind":"max_mean","suite":"pool","name":"nope","max_mean_ns":510}"#);
        assert!(matches!(
            eval_gate(&gone, &records, "t").unwrap().outcome,
            Outcome::Fail
        ));
        let absent = gate_json(r#"{"kind":"present","suite":"pool","name":"nope"}"#);
        assert!(matches!(
            eval_gate(&absent, &records, "t").unwrap().outcome,
            Outcome::Fail
        ));
        // A ratio names two records; losing either one fails it — which is
        // why ci/gates.json keeps no `present` gate beside a numeric one.
        for (name, denom) in [("nope", "acquire"), ("acquire", "nope")] {
            let ratio = gate_json(&format!(
                r#"{{"kind":"ratio","suite":"pool","name":"{name}","denom":"{denom}","max_ratio":2.0}}"#
            ));
            let row = eval_gate(&ratio, &records, "t").unwrap();
            assert!(matches!(row.outcome, Outcome::Fail), "{name}/{denom}");
            assert!(row.detail.contains("MISSING"));
        }
    }

    #[test]
    fn ratio_gate_compares_against_denominator() {
        let records = sample_records();
        // 480000 / 400000 = 1.2 <= 1.25
        let ok = gate_json(
            r#"{"kind":"ratio","suite":"contention","name":"concurrent_gateway/16_threads","denom":"concurrent_gateway/8_threads","max_ratio":1.25}"#,
        );
        assert!(matches!(
            eval_gate(&ok, &records, "t").unwrap().outcome,
            Outcome::Pass
        ));
        let tight = gate_json(
            r#"{"kind":"ratio","suite":"contention","name":"concurrent_gateway/16_threads","denom":"concurrent_gateway/8_threads","max_ratio":1.1}"#,
        );
        assert!(matches!(
            eval_gate(&tight, &records, "t").unwrap().outcome,
            Outcome::Fail
        ));
    }

    #[test]
    fn scaling_gate_skips_below_min_parallelism_and_enforces_at_it() {
        let mut records = sample_records();
        let gate = gate_json(
            r#"{"kind":"ratio","suite":"contention","name":"concurrent_gateway/16_threads","denom":"concurrent_gateway/8_threads","max_ratio":1.25,"min_parallelism":16}"#,
        );
        assert!(matches!(
            eval_gate(&gate, &records, "t").unwrap().outcome,
            Outcome::Pass
        ));
        records.parallelism = 4;
        let row = eval_gate(&gate, &records, "t").unwrap();
        assert!(matches!(row.outcome, Outcome::Skip));
        assert!(row.detail.contains("host parallelism 4"));
    }

    #[test]
    fn derived_gates_compare_against_limits() {
        let records = sample_records();
        let fast = gate_json(
            r#"{"kind":"min_derived","suite":"pool","name":"req_per_sec","min_value":10000}"#,
        );
        assert!(matches!(
            eval_gate(&fast, &records, "t").unwrap().outcome,
            Outcome::Pass
        ));
        let too_fast = gate_json(
            r#"{"kind":"min_derived","suite":"pool","name":"req_per_sec","min_value":50000}"#,
        );
        assert!(matches!(
            eval_gate(&too_fast, &records, "t").unwrap().outcome,
            Outcome::Fail
        ));
        let ceiling = gate_json(
            r#"{"kind":"max_derived","suite":"pool","name":"req_per_sec","max_value":30000}"#,
        );
        assert!(matches!(
            eval_gate(&ceiling, &records, "t").unwrap().outcome,
            Outcome::Pass
        ));
        let low_ceiling = gate_json(
            r#"{"kind":"max_derived","suite":"pool","name":"req_per_sec","max_value":20000}"#,
        );
        assert!(matches!(
            eval_gate(&low_ceiling, &records, "t").unwrap().outcome,
            Outcome::Fail
        ));
    }

    #[test]
    fn missing_derived_fails_unless_marked_skippable() {
        let records = sample_records();
        let hard = gate_json(
            r#"{"kind":"max_derived","suite":"pool","name":"peak_rss_kb","max_value":1}"#,
        );
        assert!(matches!(
            eval_gate(&hard, &records, "t").unwrap().outcome,
            Outcome::Fail
        ));
        let soft = gate_json(
            r#"{"kind":"max_derived","suite":"pool","name":"peak_rss_kb","max_value":1,"skip_if_missing":true}"#,
        );
        let row = eval_gate(&soft, &records, "t").unwrap();
        assert!(matches!(row.outcome, Outcome::Skip));
        assert!(row.detail.contains("not recorded"));
    }

    #[test]
    fn unknown_kind_is_a_hard_error() {
        let records = sample_records();
        let bogus = gate_json(r#"{"kind":"min_mean","suite":"pool","name":"acquire"}"#);
        assert!(eval_gate(&bogus, &records, "t").is_err());
    }

    #[test]
    fn load_records_reads_json_lines_and_min_parallelism() {
        let dir = std::env::temp_dir().join("hotc-gate-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("BENCH_ci.json");
        std::fs::write(
            &path,
            concat!(
                r#"{"suite":"pool","mode":"smoke","parallelism":8,"results":[{"name":"a","mean_ns":1.5,"min_ns":1,"median_ns":1,"samples":10,"iters_per_sample":1}],"derived":[{"name":"d1","value":3.5}]}"#,
                "\n",
                r#"{"suite":"contention","mode":"smoke","results":[{"name":"b","mean_ns":2,"min_ns":2,"median_ns":2,"samples":10,"iters_per_sample":1}],"derived":[]}"#,
                "\n",
            ),
        )
        .expect("write");
        let records = load_records(path.to_str().expect("utf8 path")).expect("load");
        assert_eq!(
            records.suites,
            vec!["pool".to_string(), "contention".to_string()]
        );
        assert_eq!(records.mean("pool", "a"), Some(1.5));
        assert_eq!(records.mean("contention", "b"), Some(2.0));
        assert_eq!(records.derived("pool", "d1"), Some(3.5));
        // The parallelism-free second line counts as single-core, and the
        // merge takes the minimum.
        assert_eq!(records.parallelism, 1);
    }
}
