//! Semantic determinism rules that need binding knowledge:
//!
//! * **map-iteration-order** — iterating an `FxHashMap` / `FxHashSet` /
//!   `HashMap` / `HashSet` yields an unspecified order; in the replay
//!   crates that order must never reach wire bytes, tables, or event
//!   scheduling. A site passes only when the engine can *prove* order
//!   insensitivity: the chain ends in a commutative fold (`sum`, `count`,
//!   `min`, `max`, `all`, `any`, …), collects into another unordered or
//!   ordered-by-key container, is sorted within the next statements, feeds
//!   `extend` on another tracked map/set, or the loop body only
//!   accumulates commutatively. Everything else is a finding (waivable —
//!   the waiver audit keeps waivers honest).
//! * **index-panic** — `v[idx]` on a `Vec` in the protocol crates, and in
//!   the two crates that parse peer input off real sockets (`net`,
//!   `reactor`), panics on a bad index; those paths must use `.get()` and
//!   handle the miss.
//!
//! Both rules work from a *binding registry*: identifiers whose declared
//! type or initializer names a tracked container. The registry is scoped
//! per crate (fields declared in one file are recognised in its sibling
//! files) and is deliberately name-based — no type inference. Unknown
//! receivers are ignored (no false positives from `BTreeMap` iteration);
//! unknown chain shapes on known receivers are denied (no silent holes).

use std::collections::BTreeSet;

use crate::engine::SourceFile;
use crate::lexer::{Delim, TokenKind};
use crate::Diagnostic;

pub(crate) const MAP_RULE: &str = "map-iteration-order";
pub(crate) const INDEX_RULE: &str = "index-panic";

/// Crates where unordered iteration can leak into replay-visible output.
pub(crate) fn map_rule_scope(path: &str) -> bool {
    path.starts_with("crates/simnet/src/")
        || path.starts_with("crates/httpsim/src/")
        || path.starts_with("crates/core/src/")
        || path.starts_with("crates/replay/src/")
        || path.starts_with("crates/obs/src/")
        || path.starts_with("crates/proto/src/")
}

/// Crates where a bad `Vec` index is reachable from protocol or peer
/// input: the protocol crates plus the socket tier that feeds them.
pub(crate) fn index_rule_scope(path: &str) -> bool {
    crate::rules::protocol_crate(path)
        || path.starts_with("crates/net/src/")
        || path.starts_with("crates/reactor/src/")
}

const MAP_HEADS: &[&str] = &["FxHashMap", "FxHashSet", "HashMap", "HashSet"];
const VEC_HEADS: &[&str] = &["Vec", "VecDeque"];

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

/// Adapters that preserve the (unspecified) order without consuming it.
const NEUTRAL_ADAPTERS: &[&str] = &[
    "copied",
    "cloned",
    "map",
    "filter",
    "filter_map",
    "flat_map",
    "flatten",
    "by_ref",
    "inspect",
    "peekable",
];

/// Terminals whose result cannot depend on iteration order.
const COMMUTATIVE_TERMINALS: &[&str] = &[
    "sum",
    "count",
    "product",
    "min",
    "max",
    "min_by",
    "min_by_key",
    "max_by",
    "max_by_key",
    "all",
    "any",
];

/// Sort calls that launder an unordered collect into a deterministic one.
const SORTS: &[&str] = &[
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_by_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "sort_by_cached_key",
];

/// Collect targets whose contents are independent of insertion order.
const ORDER_FREE_COLLECTS: &[&str] = &[
    "BTreeMap",
    "BTreeSet",
    "FxHashMap",
    "FxHashSet",
    "HashMap",
    "HashSet",
];

/// Identifiers declared with a tracked container type, per crate.
#[derive(Default)]
pub(crate) struct Registry {
    pub maps: BTreeSet<String>,
    pub vecs: BTreeSet<String>,
}

/// The crate-scoping key for a workspace path: `crates/<name>` or `src`.
pub(crate) fn crate_key(path: &str) -> &str {
    if let Some(rest) = path.strip_prefix("crates/") {
        let end = rest.find('/').map_or(rest.len(), |p| p + "crates/".len());
        &path[..end]
    } else {
        "src"
    }
}

/// Collects map/set- and Vec-typed binding names from one file.
pub(crate) fn collect_bindings(file: &SourceFile<'_>, reg: &mut Registry) {
    for k in 0..file.len() {
        let text = file.s(k);
        if MAP_HEADS.contains(&text) {
            if let Some(name) = binding_name(file, k) {
                reg.maps.insert(name);
            }
        } else if VEC_HEADS.contains(&text) {
            if let Some(name) = binding_name(file, k) {
                reg.vecs.insert(name);
            }
        } else if text == "vec" && file.s(k + 1) == "!" && file.s(k.wrapping_sub(1)) == "=" {
            // `let x = vec![…]` / `x = vec![…]`.
            if let Some(name) = lhs_name(file, k - 1) {
                reg.vecs.insert(name);
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
        return lhs_name(file, j);
    }
    None
}

/// The identifier immediately left of an `=` at significant index `eq`.
fn lhs_name(file: &SourceFile<'_>, eq: usize) -> Option<String> {
    let j = eq.checked_sub(1)?;
    if matches!(file.kind(j), Some(TokenKind::Ident)) && !matches!(file.s(j), "mut" | "let") {
        Some(file.s(j).to_string())
    } else {
        None
    }
}

/// Runs both binding-based rules over one file.
pub(crate) fn scan(file: &SourceFile<'_>, reg: &Registry) -> Vec<Diagnostic> {
    let mut findings = Vec::new();
    if map_rule_scope(file.path) {
        scan_map_order(file, reg, &mut findings);
    }
    if index_rule_scope(file.path) {
        scan_indexing(file, reg, &mut findings);
    }
    findings
}

fn scan_indexing(file: &SourceFile<'_>, reg: &Registry, findings: &mut Vec<Diagnostic>) {
    for k in 0..file.len() {
        if file.masked_at(k) {
            continue;
        }
        if !matches!(file.kind(k), Some(TokenKind::Ident)) || !reg.vecs.contains(file.s(k)) {
            continue;
        }
        if !matches!(file.kind(k + 1), Some(TokenKind::Open(Delim::Bracket))) {
            continue;
        }
        // `name[` directly after `let` / `if let` is a slice pattern, and
        // after `:` it is a type position; neither indexes.
        if matches!(file.s(k.wrapping_sub(1)), "let" | ":") {
            continue;
        }
        findings.push(Diagnostic {
            path: file.path.to_string(),
            line: file.line(k),
            rule: INDEX_RULE,
            message: format!(
                "indexing `{}[…]` panics on a bad index; protocol and socket \
                 crates must use .get() and handle the miss",
                file.s(k)
            ),
        });
    }
}

fn scan_map_order(file: &SourceFile<'_>, reg: &Registry, findings: &mut Vec<Diagnostic>) {
    let mut deny = |k: usize, detail: &str| {
        findings.push(Diagnostic {
            path: file.path.to_string(),
            line: file.line(k),
            rule: MAP_RULE,
            message: format!(
                "iteration over an unordered map/set {detail}; sort the \
                 items (or collect into a BTreeMap) before the order can \
                 reach replay-visible output"
            ),
        });
    };
    for k in 0..file.len() {
        if file.masked_at(k) {
            continue;
        }
        // `.iter()`-family call on a tracked receiver.
        if file.s(k) == "."
            && ITER_METHODS.contains(&file.s(k + 1))
            && matches!(file.kind(k + 2), Some(TokenKind::Open(Delim::Paren)))
            && matches!(file.kind(k.wrapping_sub(1)), Some(TokenKind::Ident))
            && reg.maps.contains(file.s(k - 1))
        {
            let Some(close) = file.partner_sig(k + 2) else {
                continue;
            };
            if let Some(detail) = classify_chain(file, reg, k, close) {
                deny(k - 1, &detail);
            }
        }
        // `for x in [&][mut] [self.]map { … }` without an explicit method.
        if file.s(k) == "in" && matches!(file.kind(k), Some(TokenKind::Ident)) {
            let mut j = k + 1;
            while matches!(file.s(j), "&" | "mut") {
                j += 1;
            }
            // Optional `self .` / `obj .` prefix.
            let mut recv = j;
            if matches!(file.kind(j), Some(TokenKind::Ident)) && file.s(j + 1) == "." {
                recv = j + 2;
            }
            if matches!(file.kind(recv), Some(TokenKind::Ident))
                && reg.maps.contains(file.s(recv))
                && matches!(file.kind(recv + 1), Some(TokenKind::Open(Delim::Brace)))
            {
                if let Some(detail) = classify_loop_body(file, reg, recv + 1) {
                    deny(recv, &detail);
                }
            }
        }
    }
}

/// Classifies the method chain hanging off a map-iterator call whose
/// closing paren is at `close`. `dot` is the `.` before the iter method.
/// Returns `None` when provably order-insensitive, else a denial detail.
fn classify_chain(
    file: &SourceFile<'_>,
    reg: &Registry,
    dot: usize,
    close: usize,
) -> Option<String> {
    let mut cur = close;
    loop {
        if file.s(cur + 1) == "." && matches!(file.kind(cur + 2), Some(TokenKind::Ident)) {
            let meth = file.s(cur + 2);
            let call_open = cur + 3;
            let has_args = matches!(file.kind(call_open), Some(TokenKind::Open(Delim::Paren)));
            let call_close = if has_args {
                file.partner_sig(call_open)?
            } else {
                cur + 2
            };
            if NEUTRAL_ADAPTERS.contains(&meth) {
                cur = call_close;
                continue;
            }
            if COMMUTATIVE_TERMINALS.contains(&meth) {
                return None;
            }
            if meth == "for_each" {
                return classify_group_body(file, reg, call_open);
            }
            if meth == "collect" {
                return classify_collect(file, reg, dot, cur + 2);
            }
            return Some(format!(
                "flows into `.{meth}(…)`, whose result depends on iteration order"
            ));
        }
        // Chain ends. A `for … in map.iter() { … }` body comes next; an
        // `x.extend(map.drain())` wrapper is order-free when `x` is itself
        // a tracked map/set.
        if matches!(file.kind(cur + 1), Some(TokenKind::Open(Delim::Brace)))
            && in_for_header(file, dot)
        {
            return classify_loop_body(file, reg, cur + 1);
        }
        if let Some(verdict) = classify_extend_wrapper(file, reg, dot) {
            return verdict;
        }
        return Some("escapes as a raw iterator (order reaches the caller)".to_string());
    }
}

/// True when the token at `dot` sits in a `for … in …` header (between the
/// `in` keyword and the loop body).
fn in_for_header(file: &SourceFile<'_>, dot: usize) -> bool {
    let d = file.depth_at(dot);
    let mut j = dot;
    while j > 0 {
        j -= 1;
        if file.depth_at(j) < d {
            return false; // left the expression without seeing `in`
        }
        if file.depth_at(j) == d {
            match file.s(j) {
                "in" => return true,
                ";" | "{" | "}" | "=" => return false,
                _ => {}
            }
        }
    }
    false
}

/// When the chain at `dot` is the sole argument of `target.extend(…)`,
/// classifies the wrapper; otherwise `None` (not an extend wrapper).
#[allow(clippy::option_option)]
fn classify_extend_wrapper(
    file: &SourceFile<'_>,
    reg: &Registry,
    dot: usize,
) -> Option<Option<String>> {
    // Receiver of the chain: walk back over `[self .] name`.
    let mut start = dot.checked_sub(1)?; // the map ident
    while start >= 2 && file.s(start - 1) == "." {
        start -= 2;
    }
    let open = start.checked_sub(1)?;
    if !matches!(file.kind(open), Some(TokenKind::Open(Delim::Paren)))
        || file.s(open - 1) != "extend"
    {
        return None;
    }
    let target = open.checked_sub(3)?; // `target . extend (`
    if file.s(open - 2) == "." && reg.maps.contains(file.s(target)) {
        return Some(None); // merging one unordered set into another
    }
    Some(Some(
        "feeds `.extend(…)` on an order-sensitive target".to_string(),
    ))
}

/// Classifies a loop body group opening at `open` (an `Open(Brace)`):
/// `None` when every statement is commutative accumulation, else details.
fn classify_loop_body(file: &SourceFile<'_>, reg: &Registry, open: usize) -> Option<String> {
    let close = file.partner_sig(open)?;
    classify_body_range(file, reg, open + 1, close)
}

/// Classifies a closure body inside a call group opening at `open` (for
/// `for_each(|x| …)`).
fn classify_group_body(file: &SourceFile<'_>, reg: &Registry, open: usize) -> Option<String> {
    let close = file.partner_sig(open)?;
    classify_body_range(file, reg, open + 1, close)
}

/// The commutative-accumulation allowlist: scans `[from, to)` for
/// order-sensitive effects.
fn classify_body_range(
    file: &SourceFile<'_>,
    reg: &Registry,
    from: usize,
    to: usize,
) -> Option<String> {
    let mut k = from;
    while k < to {
        let text = file.s(k);
        if text == "." && matches!(file.kind(k + 1), Some(TokenKind::Ident)) {
            let meth = file.s(k + 1);
            if matches!(meth, "push" | "push_str" | "insert" | "send" | "set_timer")
                && matches!(file.kind(k + 2), Some(TokenKind::Open(Delim::Paren)))
            {
                // Inserting into another tracked (unordered) map/set is
                // commutative for distinct keys; anything else records the
                // visit order.
                let recv_ok = matches!(file.kind(k.wrapping_sub(1)), Some(TokenKind::Ident))
                    && reg.maps.contains(file.s(k - 1))
                    && meth == "insert";
                if !recv_ok {
                    return Some(format!(
                        "loop body calls `.{meth}(…)`, which records visit order"
                    ));
                }
            }
            if meth == "extend" && matches!(file.kind(k + 2), Some(TokenKind::Open(Delim::Paren))) {
                let recv_ok = matches!(file.kind(k.wrapping_sub(1)), Some(TokenKind::Ident))
                    && reg.maps.contains(file.s(k - 1));
                if !recv_ok {
                    return Some("loop body extends an order-sensitive collection".to_string());
                }
            }
        }
        if matches!(
            text,
            "write" | "writeln" | "print" | "println" | "format" | "eprintln"
        ) && file.s(k + 1) == "!"
        {
            return Some(format!("loop body formats output via `{text}!`"));
        }
        if matches!(text, "return" | "break") && !matches!(file.s(k + 1), ";" | "}") {
            return Some(format!(
                "loop body leaves via `{text}` with a value chosen by visit order"
            ));
        }
        k += 1;
    }
    None
}

/// Classifies a `.collect()` terminal: allowed when the destination is an
/// order-free container or the collected binding is sorted immediately
/// after; `dot` anchors the statement, `meth` is the `collect` ident.
fn classify_collect(
    file: &SourceFile<'_>,
    reg: &Registry,
    dot: usize,
    meth: usize,
) -> Option<String> {
    // Turbofish: `collect::<BTreeMap<_, _>>()`.
    let mut call_open = meth + 1;
    if file.s(meth + 1) == ":" && file.s(meth + 2) == ":" && file.s(meth + 3) == "<" {
        let mut t = meth + 4;
        let mut angle = 1i32;
        while t < file.len() && angle > 0 {
            match file.s(t) {
                "<" => angle += 1,
                ">" => angle -= 1,
                head if ORDER_FREE_COLLECTS.contains(&head) => return None,
                _ => {}
            }
            t += 1;
        }
        call_open = t;
    }
    let call_close = if matches!(file.kind(call_open), Some(TokenKind::Open(Delim::Paren))) {
        file.partner_sig(call_open).unwrap_or(meth)
    } else {
        meth
    };
    // Statement shape: `[let [mut]] name [: Type] = <chain> ;`.
    let stmt = stmt_start(file, dot);
    let mut eq = None;
    let mut j = stmt;
    while j < dot {
        if file.s(j) == "="
            && !matches!(file.s(j + 1), "=" | ">")
            && file.s(j.wrapping_sub(1)) != "="
        {
            eq = Some(j);
        }
        j = file.skip_group(j);
    }
    let Some(eq) = eq else {
        // A tail expression: allowed when the enclosing fn returns an
        // order-free container (`-> BTreeMap<…> { map.iter()…collect() }`).
        if let Some(open) = stmt.checked_sub(1) {
            if matches!(file.kind(open), Some(TokenKind::Open(Delim::Brace))) {
                let mut t = open;
                while t > 0 {
                    t -= 1;
                    if matches!(file.s(t), ";" | "{" | "}") {
                        break;
                    }
                    if file.s(t) == "-" && file.s(t + 1) == ">" {
                        if (t..open).any(|r| ORDER_FREE_COLLECTS.contains(&file.s(r))) {
                            return None;
                        }
                        break;
                    }
                }
            }
        }
        return Some(
            "collects into a return/argument position without an ordered target".to_string(),
        );
    };
    // Type annotation between `:` and `=` naming an order-free container?
    for t in stmt..eq {
        if ORDER_FREE_COLLECTS.contains(&file.s(t)) {
            return None;
        }
    }
    let Some(name) = lhs_binding(file, stmt, eq) else {
        return Some("collects into an unrecognised destination".to_string());
    };
    if reg.maps.contains(name.as_str()) {
        return None; // collecting back into an unordered container
    }
    // Sorted in the statements right after? Scan a bounded window past the
    // terminating `;` for `name.sort*`.
    let mut t = call_close + 1;
    let window_end = (t + 48).min(file.len());
    while t < window_end {
        if file.s(t) == name && file.s(t + 1) == "." && SORTS.contains(&file.s(t + 2)) {
            return None;
        }
        t += 1;
    }
    Some(format!(
        "collects into `{name}` which is never sorted before use"
    ))
}

/// The binding named on the left of an assignment: `[let [mut]] name
/// [: Type] =`, with `self.`/field paths resolved to the last field name.
fn lhs_binding(file: &SourceFile<'_>, stmt: usize, eq: usize) -> Option<String> {
    let mut j = stmt;
    while matches!(file.s(j), "let" | "mut") {
        j += 1;
    }
    loop {
        if j >= eq || !matches!(file.kind(j), Some(TokenKind::Ident)) {
            return None;
        }
        match file.s(j + 1) {
            ":" if file.s(j + 2) != ":" => return Some(file.s(j).to_string()),
            "=" if j + 1 == eq => return Some(file.s(j).to_string()),
            "." => j += 2,
            _ => return None,
        }
    }
}

/// The first significant index of the statement containing `k`: scans
/// backward to the nearest `;` at the same nesting level or the enclosing
/// opening delimiter.
fn stmt_start(file: &SourceFile<'_>, k: usize) -> usize {
    let mut j = k;
    while j > 0 {
        let prev = j - 1;
        match file.kind(prev) {
            Some(TokenKind::Close(_)) => {
                // A complete group belonging to this statement: jump it.
                match file.partner_sig(prev) {
                    Some(open) if open > 0 => j = open,
                    _ => return 0,
                }
            }
            Some(TokenKind::Open(_)) => return j, // enclosing delimiter
            _ if file.s(prev) == ";" => return j,
            _ => j = prev,
        }
    }
    0
}
