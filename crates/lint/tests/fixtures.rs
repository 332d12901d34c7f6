//! Fixture-corpus driver: every file under `tests/fixtures/` is linted as
//! if it lived at the workspace path named by its `lint-fixture-path:`
//! header comment, and the findings must match its `.expect` manifest
//! (`line:rule` per line, order-insensitive) exactly — positive cases prove
//! each rule fires, negative cases prove it stays quiet on the idiomatic
//! form. A fixture *directory* is a miniature workspace for the cross-file
//! `dead-pub` rule: it is linted whole and its manifest lines read
//! `file:line:rule`. The workspace scan skips `tests/fixtures/`, so the
//! deliberate violations here never fail the real lint run.

use hotc_lint::lint_workspace;
use hotc_lint::rules::{check_manifest, check_rust_file};
use std::collections::BTreeSet;
use std::path::Path;

/// Every rule in the set; the corpus must exercise each at least once.
const ALL_RULES: [&str; 10] = [
    "wall-clock",
    "raw-lock",
    "map-iteration",
    "unwrap",
    "atomic-ordering",
    "atomic-seqcst",
    "unchecked-cas",
    "allow-syntax",
    "hermetic-deps",
    "dead-pub",
];

fn fixture_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// The pretend workspace path from the fixture's header comment.
fn declared_path(name: &str, src: &str) -> String {
    const MARKER: &str = "lint-fixture-path:";
    for line in src.lines().take(3) {
        if let Some(at) = line.find(MARKER) {
            return line[at + MARKER.len()..].trim().to_string();
        }
    }
    panic!("fixture {name} lacks a `{MARKER}` header comment");
}

fn expected(manifest: &str) -> Vec<String> {
    let mut out: Vec<String> = manifest
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect();
    out.sort();
    out
}

#[test]
fn fixture_corpus_matches_expected_violations() {
    let dir = fixture_dir();
    let mut checked = 0;
    let mut rules_seen: BTreeSet<String> = BTreeSet::new();
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("fixture dir exists")
        .map(|e| e.expect("readable fixture entry").path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .unwrap_or_default()
            .to_string_lossy()
            .to_string();
        let is_rust = name.ends_with(".rs");
        if !is_rust && !name.ends_with(".toml") && !path.is_dir() {
            continue;
        }
        let manifest_path = path.with_extension("expect");
        let manifest = std::fs::read_to_string(&manifest_path)
            .unwrap_or_else(|e| panic!("fixture {name} lacks its .expect manifest: {e}"));
        let (violations, mut got): (_, Vec<String>) = if path.is_dir() {
            let violations = lint_workspace(&path).expect("readable tree").violations;
            let got = violations
                .iter()
                .map(|v| format!("{}:{}:{}", v.file, v.line, v.rule))
                .collect();
            (violations, got)
        } else {
            let src = std::fs::read_to_string(&path).expect("readable fixture");
            let rel = declared_path(&name, &src);
            let violations = if is_rust {
                check_rust_file(&rel, &src)
            } else {
                check_manifest(&rel, &src)
            };
            let got = violations
                .iter()
                .map(|v| {
                    assert_eq!(v.file, rel, "{name}: finding reports the declared path");
                    format!("{}:{}", v.line, v.rule)
                })
                .collect();
            (violations, got)
        };
        got.sort();
        assert_eq!(
            got,
            expected(&manifest),
            "{name}: findings differ from {}",
            manifest_path.display()
        );
        for v in &violations {
            rules_seen.insert(v.rule.to_string());
        }
        checked += 1;
    }
    assert!(
        checked >= 2 * ALL_RULES.len() - 1,
        "corpus covers each rule both ways"
    );
    for rule in ALL_RULES {
        assert!(
            rules_seen.contains(rule),
            "no fixture exercises the `{rule}` rule"
        );
    }
}
