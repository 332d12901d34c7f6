//! `hotc-lint` — the workspace conformance analyzer, as a library.
//!
//! The binary (`cargo run -p hotc-lint`) is a thin wrapper over
//! [`lint_workspace`]; the fixture corpus under `tests/fixtures/` drives
//! [`rules::check_rust_file`] / [`rules::check_manifest`] directly against
//! files with known expected violations, and [`lint_workspace`] against the
//! miniature trees of the cross-file `dead-pub` rule. Deny by default: any
//! violation exits 1; the only escape is a reasoned
//! `// lint:allow(rule, reason)` on or directly above the offending line.

#![warn(missing_docs)]

mod dead_pub;
pub mod rules;
mod scan;

use rules::Violation;
use std::path::{Path, PathBuf};
use stdshim::{JsonSink, JsonWriter, ToJson};

/// The result of linting a workspace tree.
#[derive(Debug)]
pub struct Outcome {
    /// Every violation found, in path order.
    pub violations: Vec<Violation>,
    /// Number of files scanned.
    pub scanned: usize,
}

impl Outcome {
    /// True when no rule fired.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl ToJson for Violation {
    fn write_json<S: JsonSink>(&self, w: &mut JsonWriter<S>) -> Result<(), S::Error> {
        w.begin_object()?;
        w.key("file")?;
        w.str(&self.file)?;
        w.key("line")?;
        w.uint(self.line as u64)?;
        w.key("rule")?;
        w.str(self.rule)?;
        w.key("message")?;
        w.str(&self.msg)?;
        w.end_object()
    }
}

impl ToJson for Outcome {
    fn write_json<S: JsonSink>(&self, w: &mut JsonWriter<S>) -> Result<(), S::Error> {
        w.begin_object()?;
        w.key("clean")?;
        w.bool(self.is_clean())?;
        w.key("files_scanned")?;
        w.uint(self.scanned as u64)?;
        w.key("violations")?;
        w.begin_array()?;
        for v in &self.violations {
            v.write_json(w)?;
        }
        w.end_array()?;
        w.end_object()
    }
}

/// Recursively collects `.rs` and `Cargo.toml` files, skipping build output,
/// VCS/tooling directories, and lint fixture corpora (`tests/fixtures/`
/// holds files with *deliberate* violations driven by their own test).
pub(crate) fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("dir entry in {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            let fixture_corpus =
                name == "fixtures" && dir.file_name().is_some_and(|d| d == "tests");
            if name != "target" && !name.starts_with('.') && !fixture_corpus {
                collect_files(&path, out)?;
            }
        } else if name == "Cargo.toml" || name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The workspace root: an explicit path, or two levels up from this crate's
/// manifest directory (`crates/lint` → workspace).
pub fn workspace_root(explicit: Option<PathBuf>) -> PathBuf {
    if let Some(root) = explicit {
        return root;
    }
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

/// Lints every collected file under `root`. Errors are I/O problems, not
/// violations.
pub fn lint_workspace(root: &Path) -> Result<Outcome, String> {
    let mut files = Vec::new();
    collect_files(root, &mut files)?;
    files.sort();

    let mut violations = Vec::new();
    let mut sources = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(path).map_err(|e| format!("read {rel}: {e}"))?;
        if rel.ends_with("Cargo.toml") {
            violations.extend(rules::check_manifest(&rel, &src));
        } else {
            let scanned = scan::scan(&src);
            violations.extend(rules::check_scanned(&rel, &scanned));
            sources.push((rel, scanned));
        }
    }
    violations.extend(dead_pub::check(&sources));
    violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(Outcome {
        violations,
        scanned: files.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `--json` report's exact bytes: key order, number forms and
    /// string escaping are what CI archives, so they are pinned here.
    #[test]
    fn json_report_golden_text() {
        let violation = |file: &str, line, rule, msg: &str| Violation {
            file: file.to_string(),
            line,
            rule,
            msg: msg.to_string(),
        };
        let outcome = Outcome {
            violations: vec![
                violation(
                    "crates/a/src/lib.rs",
                    7,
                    "unwrap",
                    "`x.unwrap()` on the request path",
                ),
                violation(
                    "crates/b/Cargo.toml",
                    12,
                    "hermetic-deps",
                    "say \"path\" in C:\\deps",
                ),
            ],
            scanned: 3,
        };
        let expected = r#"{
  "clean": false,
  "files_scanned": 3,
  "violations": [
    {
      "file": "crates/a/src/lib.rs",
      "line": 7,
      "rule": "unwrap",
      "message": "`x.unwrap()` on the request path"
    },
    {
      "file": "crates/b/Cargo.toml",
      "line": 12,
      "rule": "hermetic-deps",
      "message": "say \"path\" in C:\\deps"
    }
  ]
}
"#;
        assert_eq!(stdshim::Json(&outcome).to_pretty_string(), expected);
    }
}
