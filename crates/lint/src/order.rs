//! **map-iteration-order** — iterating an `FxHashMap` / `FxHashSet` /
//! `HashMap` / `HashSet` yields an unspecified order; in the replay crates,
//! the trace generator and the auditor that order must never reach wire
//! bytes, tables, verdicts or event scheduling. The rule denies every
//! iteration it sees: each `.iter()`-family call on a tracked map or set,
//! and each bare `for … in [&][mut] [obj.]map {`. An iteration that is
//! order-free (sorted after it is collected, a commutative fold, a merge
//! into another set) is waived in place, with the reason after the
//! marker: `// xtask-lint: allow(<rule>): sorted below`. The stale-waiver
//! audit reports a waiver once its line no longer iterates.
//!
//! The rule works from a *binding registry*: identifiers whose declared
//! type or initializer names a tracked container. The registry is scoped
//! per crate (fields declared in one file are recognised in its sibling
//! files) and is deliberately name-based — no type inference. Unknown
//! receivers are ignored, so `BTreeMap` iteration is never flagged. The
//! known limit is the other side of that: a map or set reached through a
//! closure parameter (`pending.get(&url).map(|s| s.iter()…)`) or any other
//! untyped binding is not tracked, and its iteration goes unseen.

use std::collections::BTreeSet;

use crate::engine::SourceFile;
use crate::lexer::{Delim, TokenKind};
use crate::Diagnostic;

pub(crate) const MAP_RULE: &str = "map-iteration-order";

/// Crates where unordered iteration can leak into replay-visible output.
fn map_rule_scope(path: &str) -> bool {
    [
        "crates/simnet/src/",
        "crates/httpsim/src/",
        "crates/core/src/",
        "crates/replay/src/",
        "crates/obs/src/",
        "crates/proto/src/",
        "crates/traces/src/",
        "crates/audit/src/",
    ]
    .iter()
    .any(|dir| path.starts_with(dir))
}

const MAP_HEADS: &[&str] = &["FxHashMap", "FxHashSet", "HashMap", "HashSet"];

/// Iterator sources on a map/set receiver.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Identifiers declared with a tracked map or set type, per crate.
pub(crate) type Registry = BTreeSet<String>;

/// The crate-scoping key for a workspace path: `crates/<name>` or `src`.
pub(crate) fn crate_key(path: &str) -> &str {
    if let Some(rest) = path.strip_prefix("crates/") {
        let end = rest.find('/').map_or(rest.len(), |p| p + "crates/".len());
        &path[..end]
    } else {
        "src"
    }
}

/// Collects map/set-typed binding names from one file.
pub(crate) fn collect_bindings(file: &SourceFile<'_>, reg: &mut Registry) {
    for k in 0..file.len() {
        if MAP_HEADS.contains(&file.s(k)) {
            if let Some(name) = binding_name(file, k) {
                reg.insert(name);
            }
        }
    }
}

/// Given a container head at significant index `k`, finds the identifier
/// bound to it: `name: Head<…>` (field, param, let annotation) or
/// `name = [path::]Head…` (init). Heads nested inside another generic
/// (`Vec<FxHashMap<…>>`) bind nothing.
fn binding_name(file: &SourceFile<'_>, k: usize) -> Option<String> {
    let mut j = k.checked_sub(1)?;
    // Walk back over a `path::` prefix.
    while j >= 1 && file.s(j) == ":" && file.s(j - 1) == ":" {
        j = j.checked_sub(2)?;
        if matches!(file.kind(j), Some(TokenKind::Ident)) {
            j = j.checked_sub(1)?;
        }
    }
    // References and mutability don't change the binding.
    while matches!(file.s(j), "&" | "mut" | "dyn")
        || matches!(file.kind(j), Some(TokenKind::Lifetime))
    {
        j = j.checked_sub(1)?;
    }
    if file.s(j) == ":" && file.s(j.wrapping_sub(1)) != ":" && file.s(j + 1) != ":" {
        // `name : Type` — but not inside an enclosing generic like
        // `Vec<FxHashMap<…>>`, which this direct `name :` shape never is.
        let name = file.s(j.checked_sub(1)?);
        let before = j.checked_sub(2).map(|b| file.s(b)).unwrap_or("");
        if matches!(file.kind(j - 1), Some(TokenKind::Ident)) && before != ":" {
            return Some(name.to_string());
        }
        return None;
    }
    if file.s(j) == "=" && file.s(j.wrapping_sub(1)) != "=" && file.s(j + 1) != "=" {
        // The identifier immediately left of the `=`.
        let lhs = j.checked_sub(1)?;
        if matches!(file.kind(lhs), Some(TokenKind::Ident)) && !matches!(file.s(lhs), "mut" | "let")
        {
            return Some(file.s(lhs).to_string());
        }
    }
    None
}

/// Flags every iteration of a tracked map or set in one file.
pub(crate) fn scan(file: &SourceFile<'_>, reg: &Registry) -> Vec<Diagnostic> {
    if !map_rule_scope(file.path) {
        return Vec::new();
    }
    (0..file.len())
        .filter(|&k| !file.masked_at(k))
        .filter_map(|k| iteration_at(file, reg, k))
        .map(|recv| Diagnostic {
            path: file.path.to_string(),
            line: file.line(recv),
            rule: MAP_RULE,
            message: "iteration over an unordered map/set: sort the items (or \
                      keep a BTreeMap) before the order can reach replay-visible \
                      output, or waive the line with the reason it is order-free"
                .to_string(),
        })
        .collect()
}

/// The receiver of a map/set iteration starting at significant index `k`:
/// `map.iter()`-family calls (at the `.`) and `for x in [&][mut]
/// [obj.]map {` without an explicit method (at the `in`).
fn iteration_at(file: &SourceFile<'_>, reg: &Registry, k: usize) -> Option<usize> {
    let tracked =
        |j: usize| matches!(file.kind(j), Some(TokenKind::Ident)) && reg.contains(file.s(j));
    if file.s(k) == "."
        && ITER_METHODS.contains(&file.s(k + 1))
        && matches!(file.kind(k + 2), Some(TokenKind::Open(Delim::Paren)))
        && tracked(k.checked_sub(1)?)
    {
        return Some(k - 1);
    }
    if file.s(k) != "in" || !matches!(file.kind(k), Some(TokenKind::Ident)) {
        return None;
    }
    let mut recv = k + 1;
    while matches!(file.s(recv), "&" | "mut") {
        recv += 1;
    }
    if matches!(file.kind(recv), Some(TokenKind::Ident)) && file.s(recv + 1) == "." {
        recv += 2; // `self .` / `obj .`
    }
    (tracked(recv) && matches!(file.kind(recv + 1), Some(TokenKind::Open(Delim::Brace))))
        .then_some(recv)
}
