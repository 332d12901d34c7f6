//! `hotc-sim`'s command line end to end: `--metrics-out` streams exactly the
//! in-process snapshot text, an argument it does not know or an option given
//! twice is a usage error, and a metrics path it cannot write or a scenario
//! it cannot parse fails before the replay and leaves no file behind.

use hotc_cli::scenario::DEMO_SCENARIO;
use hotc_cli::{run_scenario, Scenario};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh directory for one test, holding the demo scenario.
fn workdir(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("metrics_out-{test}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("demo.hotc"), DEMO_SCENARIO).unwrap();
    dir
}

fn hotc_sim(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hotc-sim"))
        .current_dir(dir)
        .args(args)
        .output()
        .unwrap()
}

#[test]
fn metrics_out_writes_the_in_process_snapshot_text() {
    let dir = workdir("bytes");
    let out = hotc_sim(&dir, &["demo.hotc", "--metrics-out", "m.json"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let report = run_scenario(&Scenario::parse(DEMO_SCENARIO).unwrap()).unwrap();
    let expected = report.metrics.to_json().to_pretty_string() + "\n";
    let written = std::fs::read_to_string(dir.join("m.json")).unwrap();
    assert!(written == expected, "--metrics-out differs from to_json()");
    assert!(written.ends_with("}\n\n"));
    assert_eq!(String::from_utf8(out.stdout).unwrap(), report.render(false));
}

#[test]
fn a_mistyped_argument_is_a_usage_error() {
    let dir = workdir("mistyped");
    for args in [
        &["demo.hotc", "--metric-out", "x.json"][..],
        &["demo.hotc", "--replay-thread", "4"],
        &["demo.hotc", "other.hotc"],
        &["demo.hotc", "--metrics-out"],
        &[
            "demo.hotc",
            "--metrics-out",
            "a.json",
            "--metrics-out",
            "b.json",
        ],
        &[
            "demo.hotc",
            "--replay-threads",
            "2",
            "--replay-threads",
            "4",
        ],
        &[],
    ] {
        let out = hotc_sim(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: hotc-sim"));
        assert!(out.stdout.is_empty(), "{args:?} ran the scenario");
    }
    for unwritten in ["x.json", "a.json", "b.json"] {
        assert!(!dir.join(unwritten).exists(), "{unwritten} was created");
    }
}

/// The demo with an app no engine knows: it parses, and its replay fails.
fn broken_demo(dir: &Path) -> &'static str {
    let broken = DEMO_SCENARIO.replace("app     = qr-code", "app     = no-such-app");
    std::fs::write(dir.join("broken.hotc"), broken).unwrap();
    "broken.hotc"
}

#[test]
fn an_unwritable_metrics_path_fails_before_the_replay() {
    let dir = workdir("unwritable");
    let path = dir.join("no-such-dir").join("m.json");
    let path = path.to_str().unwrap();
    for scenario in ["demo.hotc", broken_demo(&dir)] {
        let out = hotc_sim(&dir, &[scenario, "--metrics-out", path]);
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(path), "{stderr}");
        // The open is checked first: the replay's own error never shows.
        assert!(!stderr.contains("unknown app"), "{stderr}");
        assert!(out.stdout.is_empty());
    }
}

#[test]
fn a_scenario_error_leaves_no_metrics_file() {
    let dir = workdir("scenario_error");
    let out = hotc_sim(&dir, &[broken_demo(&dir), "--metrics-out", "m.json"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown app"));
    assert!(!dir.join("m.json").exists());
}

#[test]
fn a_zero_tick_is_a_parse_error_and_leaves_no_metrics_file() {
    let dir = workdir("zero_tick");
    let text = DEMO_SCENARIO.replace("tick     = 30s", "tick     = 0s");
    std::fs::write(dir.join("zero_tick.hotc"), text).unwrap();
    let out = hotc_sim(&dir, &["zero_tick.hotc", "--metrics-out", "m.json"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("scenario parse error"), "{stderr}");
    assert!(stderr.contains("tick must be positive"), "{stderr}");
    assert!(!dir.join("m.json").exists());
}

/// A workload value its trace generator would assert against — no keys, a
/// zero span, a rate that is not positive — fails the parse: exit 1 and no
/// metrics file, not a panic (exit 101) after the file was created.
#[test]
fn a_non_positive_workload_value_is_a_parse_error_and_leaves_no_metrics_file() {
    let dir = workdir("non_positive");
    for (pattern, line, message) in [
        ("synth", "keys = 0", "keys must be positive"),
        ("flash-crowd", "duration = 0m", "duration must be positive"),
        ("poisson", "rate = 0", "rate must be positive"),
    ] {
        let text = format!(
            "seed = 1\n\n[function f]\napp = random-number\n\n[workload]\npattern = {pattern}\n{line}\n"
        );
        std::fs::write(dir.join("bad.hotc"), text).unwrap();
        let out = hotc_sim(&dir, &["bad.hotc", "--metrics-out", "m.json"]);
        assert_eq!(out.status.code(), Some(1), "{pattern} {line}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("scenario parse error"), "{stderr}");
        assert!(stderr.contains(message), "{stderr}");
        assert!(!dir.join("m.json").exists(), "{pattern} {line}");
    }
}

/// An OpenDC row whose millisecond timestamp is past the simulator's clock
/// fails the run on that row, naming it — whether it is the first row or a
/// later one — instead of wrapping to an instant near t = 0.
#[test]
fn an_out_of_range_opendc_timestamp_fails_the_run() {
    let dir = workdir("opendc_range");
    let scenario = "seed = 1\n\n[function f]\napp = random-number\n\n[workload]\npattern = opendc\npath = rows.trace\n";
    std::fs::write(dir.join("opendc.hotc"), scenario).unwrap();
    for (rows, line) in [
        ("18446744073710,f\n18446744073710,f\n", 1),
        ("1000,f\n18446744073710,f\n", 2),
    ] {
        std::fs::write(dir.join("rows.trace"), rows).unwrap();
        let out = hotc_sim(&dir, &["opendc.hotc", "--metrics-out", "m.json"]);
        assert_eq!(out.status.code(), Some(1), "{rows}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let expected = format!("line {line}: timestamp '18446744073710' ms is out of range");
        assert!(stderr.contains(&expected), "{stderr}");
        assert!(out.stdout.is_empty(), "{rows}: a report was printed");
        assert!(!dir.join("m.json").exists());
    }
}
