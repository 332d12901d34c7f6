//! `hotc-sim` — run HotC serverless scenarios from plain-text files.

use hotc_cli::scenario::{Scenario, DEMO_SCENARIO};
use std::io::Read as _;

fn usage() -> ! {
    eprintln!(
        "usage: hotc-sim <scenario-file> [--verbose] [--metrics-out <path>] [--replay-threads <n>]\n       hotc-sim -        (read scenario from stdin)\n       hotc-sim --demo   (print an example scenario)"
    );
    std::process::exit(2);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();

    // `--metrics-out <path>`: write the run's MetricsSnapshot as JSON.
    let metrics_out = match args.iter().position(|a| a == "--metrics-out") {
        Some(i) if i + 1 < args.len() => {
            args.remove(i);
            Some(args.remove(i))
        }
        Some(_) => usage(),
        None => None,
    };

    // `--replay-threads <n>`: parallel replay, overriding the scenario's
    // `replay_threads` key if both are given.
    let replay_threads = match args.iter().position(|a| a == "--replay-threads") {
        Some(i) if i + 1 < args.len() => {
            args.remove(i);
            let v = args.remove(i);
            match v.parse::<usize>() {
                Ok(n) if n >= 1 => Some(n),
                _ => {
                    eprintln!("bad --replay-threads '{v}': need an integer >= 1");
                    std::process::exit(2);
                }
            }
        }
        Some(_) => usage(),
        None => None,
    };

    if args.is_empty() {
        usage();
    }
    if args[0] == "--demo" {
        print!("{DEMO_SCENARIO}");
        return;
    }
    let verbose = args.iter().any(|a| a == "--verbose" || a == "-v");

    let text = if args[0] == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .unwrap_or_else(|e| {
                eprintln!("error reading stdin: {e}");
                std::process::exit(1);
            });
        buf
    } else {
        std::fs::read_to_string(&args[0]).unwrap_or_else(|e| {
            eprintln!("error reading '{}': {e}", args[0]);
            std::process::exit(1);
        })
    };

    let mut scenario = Scenario::parse(&text).unwrap_or_else(|e| {
        eprintln!("scenario parse error: {e}");
        std::process::exit(1);
    });
    if replay_threads.is_some() {
        scenario.replay_threads = replay_threads;
    }
    let report = hotc_cli::run_scenario(&scenario).unwrap_or_else(|e| {
        eprintln!("scenario error: {e}");
        std::process::exit(1);
    });
    if report.limits_coupled {
        eprintln!(
            "note: pool limits evicted containers during a parallel replay; \
             results may differ slightly from a sequential run"
        );
    }
    if let Some(path) = metrics_out {
        use stdshim::ToJson as _;
        let json = report.metrics.to_json().to_pretty_string();
        std::fs::write(&path, json + "\n").unwrap_or_else(|e| {
            eprintln!("error writing metrics to '{path}': {e}");
            std::process::exit(1);
        });
        eprintln!("wrote metrics snapshot to {path}");
    }
    print!("{}", report.render(verbose));
}
