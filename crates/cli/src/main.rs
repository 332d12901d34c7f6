//! `hotc-sim` — run HotC serverless scenarios from plain-text files.

use hotc_cli::scenario::{Scenario, DEMO_SCENARIO};
use std::fmt::Display;
use std::fs::File;
use std::io::{BufWriter, Read as _, Write as _};

fn usage() -> ! {
    eprintln!(
        "usage: hotc-sim <scenario-file> [--verbose] [--metrics-out <path>] [--replay-threads <n>]\n       hotc-sim -        (read scenario from stdin)\n       hotc-sim --demo   (print an example scenario)"
    );
    std::process::exit(2);
}

/// Reports a failed run and exits 1.
fn fail(msg: impl Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

/// The command line: a scenario source (a path, `-` for stdin, or
/// `--demo`) and the flags. Anything else is a usage error.
struct Args {
    source: String,
    verbose: bool,
    /// `--metrics-out <path>`: write the run's MetricsSnapshot as JSON.
    metrics_out: Option<String>,
    /// `--replay-threads <n>`: parallel replay, overriding the scenario's
    /// `replay_threads` key if both are given.
    replay_threads: Option<usize>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Args {
    let mut source = None;
    let mut verbose = false;
    let mut metrics_out = None;
    let mut replay_threads = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-v" | "--verbose" => verbose = true,
            // A repeated option is a usage error, not a silent override.
            "--metrics-out" if metrics_out.is_none() => {
                metrics_out = Some(args.next().unwrap_or_else(|| usage()))
            }
            "--replay-threads" if replay_threads.is_none() => {
                let v = args.next().unwrap_or_else(|| usage());
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => replay_threads = Some(n),
                    _ => {
                        eprintln!("bad --replay-threads '{v}': need an integer >= 1");
                        std::process::exit(2);
                    }
                }
            }
            "-" | "--demo" if source.is_none() => source = Some(arg),
            _ if source.is_none() && !arg.starts_with('-') => source = Some(arg),
            _ => usage(),
        }
    }
    Args {
        source: source.unwrap_or_else(|| usage()),
        verbose,
        metrics_out,
        replay_threads,
    }
}

fn main() {
    let args = parse_args(std::env::args().skip(1));
    if args.source == "--demo" {
        print!("{DEMO_SCENARIO}");
        return;
    }

    let text = if args.source == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .unwrap_or_else(|e| fail(format_args!("error reading stdin: {e}")));
        buf
    } else {
        std::fs::read_to_string(&args.source)
            .unwrap_or_else(|e| fail(format_args!("error reading '{}': {e}", args.source)))
    };

    let mut scenario =
        Scenario::parse(&text).unwrap_or_else(|e| fail(format_args!("scenario parse error: {e}")));
    if args.replay_threads.is_some() {
        scenario.replay_threads = args.replay_threads;
    }
    // Opened before the replay, so an unwritable path fails in seconds.
    let mut metrics_out = args.metrics_out.map(|path| {
        let file = File::create(&path)
            .unwrap_or_else(|e| fail(format_args!("error creating metrics file '{path}': {e}")));
        (path, BufWriter::new(file))
    });
    let run = if args.verbose {
        hotc_cli::run_scenario_with_series
    } else {
        hotc_cli::run_scenario
    };
    let report = run(&scenario).unwrap_or_else(|e| {
        if let Some((path, out)) = metrics_out.take() {
            drop(out);
            let _ = std::fs::remove_file(path);
        }
        fail(format_args!("scenario error: {e}"))
    });
    if report.limits_coupled {
        eprintln!(
            "note: pool limits evicted containers during a parallel replay; \
             results may differ slightly from a sequential run"
        );
    }
    if let Some((path, mut out)) = metrics_out {
        // The document ends in a newline; the file adds a blank line.
        let written = report
            .metrics
            .to_json()
            .write_pretty(&mut out)
            .and_then(|()| out.write_all(b"\n"))
            .and_then(|()| out.flush());
        if let Err(e) = written {
            fail(format_args!("error writing metrics to '{path}': {e}"));
        }
        eprintln!("wrote metrics snapshot to {path}");
    }
    if let Some(note) = report.series_note() {
        eprintln!("{note}");
    }
    let mut stdout = BufWriter::new(std::io::stdout().lock());
    let written = report
        .write_to(&mut stdout, args.verbose)
        .and_then(|()| stdout.flush());
    if let Err(e) = written {
        fail(format_args!("error writing the report: {e}"));
    }
}
