//! Token-level static analysis for the workspace: the engine behind
//! `cargo run --bin xtask-lint`.
//!
//! A std-only Rust [`lexer`] produces a lossless token stream; the rules
//! run on token *sequences* (never inside strings, comments, or char
//! literals) with `#[cfg(test)]` masking by real item extent. Deny by
//! default, allow by exception:
//!
//! * **hot-loop-alloc** — no per-event allocation (`Box::new`, `Vec::new()`,
//!   `format!`, a fresh `encode`) in the event-dispatch and decode files.
//! * **audit-bypass** — no `AuditEvent` built in the simulator or the TCP
//!   tier: `ProxyCore` and `WritePath` record what they do.
//! * **peer-time** — no `.issued_at` read in the TCP tier: a node judges at its clock.
//! * **protocol-name** — no `ProtocolKind::<Variant>` in the cores, the
//!   auditor or the drivers: they read `ProtocolConfig::policy()`'s fields.
//! * **map-iteration-order** — no unordered map/set iteration in the replay,
//!   trace and audit crates unless waived with its reason (see `order.rs`).
//!
//! Every rule that names a method, a type or a macro is the compiler's,
//! which also sees through a `use … as` alias, a glob import and a UFCS
//! call. `clippy.toml` holds the `disallowed-methods`, `-types` and
//! `-macros` lists: the ambient wall clock and `thread::sleep` everywhere
//! (root file), std hash maps in `core`, `httpsim` and `simnet`, the
//! `ProxyPolicy` / `ServerConsistency` steps in `httpsim` and `net`,
//! blocking socket I/O, locks, a role's own `WallClock` and ad-hoc atomic
//! counters in `net` (counters in `reactor` too), and `format!` / `write!`
//! in `proto` (each crate's own file). `clippy::unwrap_used` /
//! `clippy::expect_used` and `clippy::indexing_slicing` are denied in the
//! crate roots of the protocol crates, `clippy::wildcard_enum_match_arm`
//! makes every dispatch over the wire enums (`HttpMsg`, `AuditEvent`) name
//! every variant, and `clippy::todo` / `clippy::unimplemented`, denied in
//! `[workspace.lints.clippy]`, keep unfinished code out of every target.
//!
//! A finding can be waived with a `// xtask-lint: allow(<rule>)` comment
//! on the offending line, or alone on the line above it; the built-in
//! waiver audit reports a **stale-waiver** finding for any marker whose
//! line no longer triggers its rule.

use std::fmt;
use std::path::Path;

mod engine;
pub mod lexer;
mod order;
mod rules;
mod waiver;

use engine::SourceFile;

pub(crate) const STALE_WAIVER_RULE: &str = "stale-waiver";

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule that fired.
    pub rule: &'static str,
    /// What to do about it.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Scans one source file with every per-file rule, waivers applied.
/// `path` must be workspace-relative with forward slashes (it selects
/// which rules apply). Cross-file knowledge (bindings declared in sibling
/// files) is limited to what `source` itself declares; [`scan_tree`]
/// provides the whole-workspace view.
pub fn scan_source(path: &str, source: &str) -> Vec<Diagnostic> {
    let file = SourceFile::parse(path, source);
    let mut reg = order::Registry::default();
    order::collect_bindings(&file, &mut reg);
    let mut findings = scan_file(&file, &reg);
    apply_waivers(&file, &mut findings);
    sort_findings(&mut findings);
    findings
}

/// Audits the waiver markers of one source file against its rule findings:
/// returns one `stale-waiver` diagnostic per marker that suppresses
/// nothing (or names an unknown rule).
pub fn audit_waivers_source(path: &str, source: &str) -> Vec<Diagnostic> {
    let file = SourceFile::parse(path, source);
    let mut reg = order::Registry::default();
    order::collect_bindings(&file, &mut reg);
    let findings = scan_file(&file, &reg);
    let mut stale = audit_file_waivers(&file, &findings);
    sort_findings(&mut stale);
    stale
}

/// Scans a set of in-memory files as one workspace: binding registries
/// are shared per crate, and the waiver audit runs across the whole set. `files` holds
/// `(workspace-relative path, source)` pairs.
pub fn scan_files(files: &[(String, String)]) -> Vec<Diagnostic> {
    let parsed: Vec<SourceFile<'_>> = files
        .iter()
        .map(|(path, src)| SourceFile::parse(path, src))
        .collect();
    // Pass 1: per-crate binding registries.
    let mut registries: std::collections::BTreeMap<&str, order::Registry> =
        std::collections::BTreeMap::new();
    for file in &parsed {
        order::collect_bindings(
            file,
            registries.entry(order::crate_key(file.path)).or_default(),
        );
    }
    let empty = order::Registry::default();
    // Pass 2: rules, with waivers applied.
    let mut findings = Vec::new();
    for file in &parsed {
        let reg = registries
            .get(order::crate_key(file.path))
            .unwrap_or(&empty);
        let mut file_findings = scan_file(file, reg);
        // The audit compares markers against *unwaived* findings.
        let stale = audit_file_waivers(file, &file_findings);
        apply_waivers(file, &mut file_findings);
        findings.extend(file_findings);
        findings.extend(stale);
    }
    sort_findings(&mut findings);
    findings
}

/// Scans the workspace rooted at `root`: `src/` and every `crates/*/src/`.
/// Vendored shims are never scanned. Returns diagnostics (rule findings
/// plus stale waivers) sorted by path, line, and rule.
pub fn scan_tree(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut paths: Vec<std::path::PathBuf> = Vec::new();
    let src = root.join("src");
    if src.is_dir() {
        collect_rs(&src, &mut paths)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<_> = std::fs::read_dir(&crates)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        members.sort();
        for member in members {
            let member_src = member.join("src");
            if member_src.is_dir() {
                collect_rs(&member_src, &mut paths)?;
            }
        }
    }
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for file in paths {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        files.push((rel, std::fs::read_to_string(&file)?));
    }
    Ok(scan_files(&files))
}

/// Renders diagnostics as stable machine-readable JSON for CI artifacts.
pub fn to_json(findings: &[Diagnostic]) -> String {
    let mut out = String::from("{\n  \"schema\": \"wcc-lint/1\",\n  \"findings\": [");
    for (i, d) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"path\": ");
        json_str(&mut out, &d.path);
        out.push_str(", \"line\": ");
        out.push_str(&d.line.to_string());
        out.push_str(", \"rule\": ");
        json_str(&mut out, d.rule);
        out.push_str(", \"message\": ");
        json_str(&mut out, &d.message);
        out.push('}');
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// All rule findings for one parsed file (waivers not yet applied).
fn scan_file(file: &SourceFile<'_>, reg: &order::Registry) -> Vec<Diagnostic> {
    let mut findings = rules::scan_seq_rules(file);
    findings.extend(order::scan(file, reg));
    findings
}

/// Drops findings whose line carries a matching waiver marker.
fn apply_waivers(file: &SourceFile<'_>, findings: &mut Vec<Diagnostic>) {
    let waivers = waiver::waivers(file);
    if waivers.is_empty() {
        return;
    }
    findings.retain(|d| !waivers.iter().any(|w| w.line == d.line && w.rule == d.rule));
}

/// Stale-waiver diagnostics: markers that suppress no (unwaived) finding.
fn audit_file_waivers(file: &SourceFile<'_>, findings: &[Diagnostic]) -> Vec<Diagnostic> {
    let known = rules::known_rules();
    waiver::waivers(file)
        .into_iter()
        .filter_map(|w| {
            let message = if !known.contains(&w.rule.as_str()) {
                format!("waiver names unknown rule `{}`; remove it", w.rule)
            } else if findings
                .iter()
                .any(|d| d.line == w.line && d.rule == w.rule)
            {
                return None; // live
            } else {
                format!(
                    "stale waiver: line {} no longer triggers rule `{}`; remove the marker",
                    w.line, w.rule
                )
            };
            Some(Diagnostic {
                path: file.path.to_string(),
                line: w.line,
                rule: STALE_WAIVER_RULE,
                message,
            })
        })
        .collect()
}

fn sort_findings(findings: &mut [Diagnostic]) {
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
}

fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests;
