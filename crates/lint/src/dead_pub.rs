//! `dead-pub`: `pub` means another package calls it.
//!
//! The one cross-file rule. A `pub` item (or crate-root `pub use`) in the
//! non-test part of `crates/*/src` must be named — as an identifier, in the
//! masked code view — by another package, or by its own package's
//! integration targets (`tests/`, `benches/`, `examples/`, `src/bin/`,
//! `src/main.rs`) or doc-tests, all of which compile as separate crates. A
//! type that a surviving `pub` signature mentions is reachable and passes.
//! Everything else wants `pub(crate)`; from there rustc's own `dead_code`
//! (under `clippy -D warnings`) says whether anything uses it at all, so
//! this rule never has to resolve a reference inside a crate.
//!
//! Identifier-level on purpose: a dead `pub fn new` hides behind every other
//! `new` in the tree. The rule is a floor, not a proof (DESIGN.md §7.1).

use crate::rules::{allows_for, Violation};
use crate::scan::Scanned;
use std::collections::{BTreeMap, BTreeSet};

const RULE: &str = "dead-pub";

/// The package owning a workspace-relative path: `crates/<name>`,
/// `benchmark`, or `""` for the root package (`src`, `tests`, `examples`).
fn package(rel: &str) -> &str {
    match rel.strip_prefix("crates/") {
        Some(rest) => &rel[..rest.find('/').map_or(rel.len(), |i| "crates/".len() + i)],
        None if rel.starts_with("benchmark/") => "benchmark",
        None => "",
    }
}

/// True for files of a package's library target; everything else in the
/// package (tests, benches, examples, bins) links the library from outside.
fn is_lib_source(rel: &str) -> bool {
    let in_pkg = rel[package(rel).len()..].trim_start_matches('/');
    in_pkg.starts_with("src/") && !in_pkg.starts_with("src/bin/") && in_pkg != "src/main.rs"
}

/// Identifier tokens of a masked code line, with byte offsets.
fn idents(code: &str) -> impl Iterator<Item = (usize, &str)> {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut rest = code;
    std::iter::from_fn(move || {
        let start = rest.find(is_ident)?;
        let len = rest[start..]
            .find(|c| !is_ident(c))
            .unwrap_or(rest.len() - start);
        let at = code.len() - rest.len() + start;
        rest = &rest[start + len..];
        Some((at, &code[at..at + len]))
    })
}

/// `pub <kind> <ident>` at the start of a masked line (`pub(crate)` and
/// friends do not match: the rule is about the cross-package surface).
fn definition(code: &str) -> Option<(&'static str, &str)> {
    const KINDS: [&str; 8] = [
        "fn", "struct", "enum", "trait", "type", "const", "static", "mod",
    ];
    let mut words = idents(code.trim_start().strip_prefix("pub ")?).map(|(_, w)| w);
    let mut kind = words.next()?;
    let mut ident = words.next()?;
    // `pub const fn`, `pub unsafe fn`, `pub async fn`.
    while matches!(kind, "const" | "unsafe" | "async") && KINDS.contains(&ident) {
        (kind, ident) = (ident, words.next()?);
    }
    Some((KINDS.into_iter().find(|k| *k == kind)?, ident))
}

/// The item starting on line `idx`: its header text (up to the body's `{`
/// or the closing `;`) and the body's lines, if it has one.
fn item(code: &[String], idx: usize) -> (String, &[String]) {
    let (mut header, mut body_from) = (String::new(), None);
    let (mut nest, mut braces) = (0i32, 0i32);
    for (l, line) in code.iter().enumerate().skip(idx) {
        for (col, ch) in line.char_indices() {
            match ch {
                '(' | '[' => nest += 1,
                ')' | ']' => nest -= 1,
                '{' => {
                    if body_from.is_none() {
                        header.push_str(&line[..col]);
                        body_from = Some(l);
                    }
                    braces += 1;
                }
                '}' => braces -= 1,
                ';' if nest == 0 && body_from.is_none() => {
                    header.push_str(&line[..col]);
                    return (header, &[]);
                }
                _ => {}
            }
            if let (Some(from), 0) = (body_from, braces) {
                return (header, &code[from..=l]);
            }
        }
        if body_from.is_none() {
            header.push_str(line);
            header.push(' ');
        }
    }
    (header, &[])
}

/// Identifiers a `pub` item of this kind shows its callers: the header
/// always; a struct's `pub` fields; an enum's or trait's whole body.
fn signature(code: &[String], idx: usize, kind: &str) -> BTreeSet<String> {
    let (header, body) = item(code, idx);
    let mut text = header;
    for line in body {
        if matches!(kind, "enum" | "trait")
            || (kind == "struct" && line.trim_start().starts_with("pub "))
        {
            text.push(' ');
            text.push_str(line);
        }
    }
    idents(&text).map(|(_, w)| w.to_string()).collect()
}

/// Names a crate-root `pub use` starting on line `idx` re-exports, with the
/// line each sits on: the last path segment or the `as` alias of every leaf.
fn reexports(code: &[String], idx: usize) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (l, line) in code.iter().enumerate().skip(idx) {
        for (at, word) in idents(line) {
            let leaf = matches!(
                line[at + word.len()..].trim_start().chars().next(),
                None | Some(',' | '}' | ';')
            );
            if leaf && !matches!(word, "self" | "pub" | "use") {
                out.push((l, word.to_string()));
            }
        }
        if line.contains(';') {
            break;
        }
    }
    out
}

struct Candidate<'a> {
    file: &'a str,
    line: usize,
    kind: &'static str,
    ident: String,
    exposes: BTreeSet<String>,
    allowed: bool,
}

/// Runs the rule over every scanned `.rs` file of the tree.
pub fn check(files: &[(String, Scanned)]) -> Vec<Violation> {
    // Who names each identifier: `(package, false)` for its library,
    // `(package, true)` for its integration targets and doc-tests.
    let mut named_by: BTreeMap<&str, BTreeSet<(&str, bool)>> = BTreeMap::new();
    let mut candidates = Vec::new();
    // Per package, identifiers mentioned by a surviving `pub` signature.
    // Associated types of trait impls are part of the implementing type's
    // interface wherever it is visible, so they seed it unconditionally.
    let mut exposed: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    for (rel, s) in files {
        let pkg = package(rel);
        let lib = is_lib_source(rel);
        // Inside a doc-comment code fence: `Some(compiled as a doc-test)`.
        let mut fence: Option<bool> = None;
        for (idx, code) in s.code.iter().enumerate() {
            for (_, word) in idents(code) {
                named_by.entry(word).or_default().insert((pkg, !lib));
            }
            let doc = s.comments[idx].trim_start();
            if let Some(text) = doc.strip_prefix("///").or_else(|| doc.strip_prefix("//!")) {
                if text.trim_start().starts_with("```") {
                    fence = match fence {
                        None => Some(matches!(text.trim(), "```" | "```rust")),
                        Some(_) => None,
                    };
                } else if fence == Some(true) {
                    for (_, word) in idents(text) {
                        named_by.entry(word).or_default().insert((pkg, true));
                    }
                }
            }
            if !lib || !rel.starts_with("crates/") || s.test[idx] {
                continue;
            }
            let mut push = |line: usize, kind, ident: &str, exposes| {
                candidates.push(Candidate {
                    file: rel,
                    line: line + 1,
                    kind,
                    ident: ident.to_string(),
                    exposes,
                    allowed: allows_for(s, line).iter().any(|a| a == RULE),
                });
            };
            if let Some((kind, ident)) = definition(code) {
                push(idx, kind, ident, signature(&s.code, idx, kind));
            } else if rel.ends_with("/src/lib.rs") && code.starts_with("pub use ") {
                for (line, ident) in reexports(&s.code, idx) {
                    push(line, "use", &ident, BTreeSet::new());
                }
            } else if code.trim_start().starts_with("type ") {
                let seen = idents(code).map(|(_, w)| w.to_string());
                exposed.entry(pkg).or_default().extend(seen);
            }
        }
    }

    // Alive: named from outside the library, or excused. Then, to a fixed
    // point, whatever an alive item's signature mentions is alive too.
    let mut dead = Vec::new();
    for c in candidates {
        let pkg = package(c.file);
        let named = named_by.get(c.ident.as_str());
        if c.allowed || named.is_some_and(|by| by.iter().any(|&(p, outside)| outside || p != pkg)) {
            exposed.entry(pkg).or_default().extend(c.exposes);
        } else {
            dead.push(c);
        }
    }
    loop {
        let before = dead.len();
        dead.retain_mut(|c| {
            let seen = exposed.entry(package(c.file)).or_default();
            let reachable = !matches!(c.kind, "fn" | "mod") && seen.contains(&c.ident);
            if reachable {
                seen.append(&mut c.exposes);
            }
            !reachable
        });
        if dead.len() == before {
            break;
        }
    }
    dead.iter()
        .map(|c| {
            let msg = if c.kind == "use" {
                format!(
                    "crate-root re-export of `{}` is imported by no other package and by \
                     none of this package's tests/benches/bins/doc-tests; drop it",
                    c.ident
                )
            } else {
                format!(
                    "`pub {} {}` is named by no other package and by none of this package's \
                     tests/benches/bins/doc-tests; make it `pub(crate)` and let rustc's \
                     dead_code say whether anything still uses it",
                    c.kind, c.ident
                )
            };
            Violation::new(c.file, c.line, RULE, msg)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn definitions_parse_qualifiers_and_skip_restricted_visibility() {
        assert_eq!(definition("    pub fn run(&self) {"), Some(("fn", "run")));
        assert_eq!(
            definition("pub const fn zero() -> Self {"),
            Some(("fn", "zero"))
        );
        assert_eq!(
            definition("pub const ZERO: u64 = 0;"),
            Some(("const", "ZERO"))
        );
        assert_eq!(definition("pub struct Pool<T> {"), Some(("struct", "Pool")));
        assert_eq!(definition("pub(crate) fn run() {}"), None);
        assert_eq!(definition("pub use a::B;"), None);
        assert_eq!(definition("pub name: String,"), None);
    }

    #[test]
    fn reexport_leaves_are_last_segments_and_aliases() {
        let code: Vec<String> = ["pub use a::{b::C, D as E,", "    f};", "pub use g::H;"]
            .map(str::to_string)
            .to_vec();
        let names =
            |idx| -> Vec<String> { reexports(&code, idx).into_iter().map(|(_, n)| n).collect() };
        assert_eq!(names(0), ["C", "E", "f"]);
        assert_eq!(reexports(&code, 2), [(2, "H".to_string())]);
    }

    #[test]
    fn package_and_target_classification() {
        assert_eq!(package("crates/core/src/pool.rs"), "crates/core");
        assert_eq!(package("benchmark/src/driver.rs"), "benchmark");
        assert_eq!(package("tests/end_to_end.rs"), "");
        assert!(is_lib_source("crates/core/src/pool.rs"));
        assert!(is_lib_source("src/lib.rs"));
        assert!(!is_lib_source("crates/bench/src/bin/repro.rs"));
        assert!(!is_lib_source("crates/cli/src/main.rs"));
        assert!(!is_lib_source("crates/core/tests/pool_concurrency.rs"));
    }
}
