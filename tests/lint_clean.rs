//! Tier-1 conformance guard: the whole workspace passes every `hotc-lint`
//! rule (DESIGN.md §7) — including `hermetic-deps`: path-only dependency
//! lines, the `[workspace.dependencies]` table, the replaced crate names.

#[test]
fn workspace_passes_every_lint_rule() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let outcome = hotc_lint::lint_workspace(root).expect("workspace is readable");
    assert!(outcome.is_clean(), "{:#?}", outcome.violations);
}
