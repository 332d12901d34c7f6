//! Runs the whole benchmark at smoke sizes and holds its output, the
//! catalogue in `src/catalogue.rs` and `BENCHMARK.json` in step.

use hotc_benchmark::catalogue::{END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;
use stdshim::JsonValue;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn str_field<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("no string '{key}' in {v}"))
}

fn entries<'a>(doc: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    doc.get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json: no array '{key}'"))
}

#[test]
fn catalogue_is_well_formed() {
    let workloads: BTreeSet<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let end_to_end: BTreeSet<&str> = END_TO_END.iter().map(|m| m.name).collect();
    assert_eq!(workloads.len(), WORKLOADS.len(), "duplicate workload name");
    for w in WORKLOADS {
        assert!(valid_name(w.name), "{}", w.name);
        assert!(!w.why.is_empty() && w.why.len() <= 200 && !w.why.contains('\n'));
    }
    assert!(end_to_end.contains("setup_s"));
    for m in END_TO_END {
        assert!(valid_name(m.name), "{}", m.name);
        assert!(!m.unit.is_empty() && !m.what.is_empty());
        assert!(
            m.bound > 0.0 && m.bound <= 0.25,
            "{}: bound {}",
            m.name,
            m.bound
        );
    }
    let mut seen = end_to_end.clone();
    for m in PER_LAYER {
        assert!(valid_name(m.name), "{}", m.name);
        assert!(seen.insert(m.name), "{} is declared twice", m.name);
        assert!(!m.unit.is_empty() && !m.layer.is_empty());
        assert!(
            end_to_end.contains(m.moves),
            "{} moves unknown end-to-end metric {}",
            m.name,
            m.moves
        );
        assert!(
            workloads.contains(m.on),
            "{} names unknown workload {}",
            m.name,
            m.on
        );
    }
}

#[test]
fn benchmark_json_declares_the_catalogue() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");

    let declared: Vec<(&str, &str)> = entries(&doc, "workloads")
        .iter()
        .map(|w| (str_field(w, "name"), str_field(w, "why")))
        .collect();
    let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(declared, ours);

    let declared: Vec<(&str, &str, &str, f64)> = entries(&doc, "end_to_end")
        .iter()
        .map(|m| {
            let bound = m.get("bound").and_then(JsonValue::as_f64).expect("bound");
            (
                str_field(m, "name"),
                str_field(m, "unit"),
                str_field(m, "better"),
                bound,
            )
        })
        .collect();
    let ours: Vec<(&str, &str, &str, f64)> = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better.as_str(), m.bound))
        .collect();
    assert_eq!(declared, ours);

    let declared: Vec<(&str, &str, &str)> = entries(&doc, "per_layer")
        .iter()
        .map(|m| {
            (
                str_field(m, "name"),
                str_field(m, "unit"),
                str_field(m, "better"),
            )
        })
        .collect();
    let ours: Vec<(&str, &str, &str)> = PER_LAYER
        .iter()
        .map(|m| (m.name, m.unit, m.better.as_str()))
        .collect();
    assert_eq!(declared, ours);
}

/// One `{"correct": …}` result line per (workload, pass), in run order.
fn smoke_results() -> Vec<JsonValue> {
    let started = std::time::Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_hotc-benchmark"))
        .args(["--smoke", "--seconds", "0"])
        .current_dir(repo_root())
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "smoke run failed:\n{stdout}");
    assert!(stdout.contains("offline trace replay, single thread"));
    // Optimised builds only: a debug simulator is several times slower.
    if !cfg!(debug_assertions) {
        assert!(
            started.elapsed().as_secs_f64() < 15.0,
            "smoke run took {:?}",
            started.elapsed()
        );
    }
    stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\""))
        .map(|l| JsonValue::parse(l).expect("result line parses"))
        .collect()
}

#[test]
fn smoke_run_emits_exactly_what_is_declared() {
    let results = smoke_results();
    assert_eq!(results.len(), 2 * WORKLOADS.len());
    for (i, result) in results.iter().enumerate() {
        let workload = WORKLOADS[i / 2].name;
        let traced = i % 2 == 1;
        assert_eq!(
            result.get("correct").and_then(JsonValue::as_bool),
            Some(true),
            "{workload}"
        );
        assert_eq!(
            result.get("failed").and_then(JsonValue::as_i64),
            Some(0),
            "{workload}"
        );
        assert!(result.get("attempted").and_then(JsonValue::as_i64) >= Some(1));
        let Some(JsonValue::Object(metrics)) = result.get("metrics") else {
            panic!("{workload}: no metrics object");
        };
        let emitted: Vec<(&str, &str)> = metrics
            .iter()
            .map(|(name, m)| (name.as_str(), str_field(m, "unit")))
            .collect();
        let declared: Vec<(&str, &str)> = if traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        assert_eq!(emitted, declared, "{workload} traced={traced}");
        for (name, m) in metrics {
            let value = m.get("value").and_then(JsonValue::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{workload}: {name} = {value:?}"
            );
            // End-to-end metrics are chosen never to be 0.
            assert!(traced || value > Some(0.0), "{workload}: {name} is 0");
        }
    }
}
