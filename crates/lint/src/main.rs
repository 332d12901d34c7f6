//! `hotc-lint` — the workspace conformance analyzer.
//!
//! Scans every `.rs` and `Cargo.toml` file in the workspace (excluding
//! `target/`, VCS/tooling directories, and lint fixture corpora) and
//! enforces the determinism and concurrency rules documented in DESIGN.md
//! §7. Deny by default: any violation exits 1; the only escape is a
//! reasoned `// lint:allow(rule, reason)` on or directly above the
//! offending line.
//!
//! Usage: `cargo run -p hotc-lint [-- --json] [workspace-root]`.
//! `--json` emits the machine-readable report (CI archives it as an
//! artifact); human diagnostics then go to stderr so stdout stays pure
//! JSON.

use hotc_lint::{lint_workspace, workspace_root};
use std::path::PathBuf;
use stdshim::Json;

fn run() -> i32 {
    let mut json = false;
    let mut root_arg = None;
    for arg in std::env::args().skip(1) {
        if arg == "--json" {
            json = true;
        } else {
            root_arg = Some(PathBuf::from(arg));
        }
    }
    let root = workspace_root(root_arg);
    let outcome = match lint_workspace(&root) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("hotc-lint: {e}");
            return 2;
        }
    };

    if json {
        println!("{}", Json(&outcome).to_pretty_string());
    }
    if outcome.is_clean() {
        if !json {
            println!("hotc-lint: clean ({} files)", outcome.scanned);
        }
        return 0;
    }
    for v in &outcome.violations {
        let line = format!("{}:{}: [{}] {}", v.file, v.line, v.rule, v.msg);
        if json {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    }
    eprintln!(
        "hotc-lint: {} violation(s) in {} file(s) scanned — fix, or annotate with \
         `// lint:allow(rule, reason)` (see DESIGN.md §7)",
        outcome.violations.len(),
        outcome.scanned
    );
    1
}

fn main() {
    std::process::exit(run());
}
