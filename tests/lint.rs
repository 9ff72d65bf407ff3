//! The shipped tree must satisfy its own hygiene rules.

use std::path::PathBuf;

#[test]
fn workspace_passes_xtask_lint() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let findings = wcc_lint::scan_tree(&root).expect("workspace sources are readable");
    assert!(
        findings.is_empty(),
        "xtask-lint findings:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
