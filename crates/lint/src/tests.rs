#![cfg(test)]
//! Rule-engine unit tests: each token rule's scope and needles, then the
//! engine itself (test masking, strings and comments, waivers, the
//! stale-waiver audit, output) on `peer-time` fixtures.

use super::*;

fn rules_fired(path: &str, source: &str) -> Vec<&'static str> {
    scan_source(path, source)
        .into_iter()
        .map(|d| d.rule)
        .collect()
}

#[test]
fn per_frame_encode_denied_in_hot_loop_files() {
    let src = "fn f(sb: &mut SendBuf, m: &HttpMsg) { sb.push_bytes(&encode(m)); }\n";
    assert_eq!(
        rules_fired("crates/net/src/evloop.rs", src),
        ["hot-loop-alloc"]
    );
    let pathed = "fn f(b: &mut Vec<u8>, m: &HttpMsg) { b.extend(wire::encode(m)); }\n";
    assert_eq!(
        rules_fired("crates/proto/src/zero.rs", pathed),
        ["hot-loop-alloc"]
    );
    // In place, into the send buffer: no `Vec` per frame.
    let ok = "fn f(sb: &mut SendBuf, m: &HttpMsg) { encode_into(m, sb.tail()); }\n";
    assert!(rules_fired("crates/net/src/evloop.rs", ok).is_empty());
    // A set-up call is waived in place.
    let waived = "fn dial(m: &HttpMsg) { w(&encode(m)); } // xtask-lint: allow(hot-loop-alloc)\n";
    assert!(rules_fired("crates/net/src/evloop.rs", waived).is_empty());
    // Files off the hot-loop list keep the convenience form.
    assert!(rules_fired("crates/net/src/scrape.rs", src).is_empty());
}

#[test]
fn audit_events_are_built_by_the_cores_not_the_drivers() {
    let src = "fn f(log: &mut Vec<AuditEvent>, at: SimTime) {\n\
               \x20   log.push(AuditEvent::InvalidateDelivered { url, client, at });\n\
               \x20   log.push(wcc_types::AuditEvent::Serve { url, client, version, from_cache, at });\n\
               }\n";
    for path in ["crates/httpsim/src/proxy.rs", "crates/net/src/upstream.rs"] {
        assert_eq!(rules_fired(path, src), ["audit-bypass"; 2], "{path}");
    }
    // The cores record them; a driver may merge and sort their logs.
    assert!(rules_fired("crates/core/src/fetch.rs", src).is_empty());
    assert!(rules_fired("crates/core/src/origin.rs", src).is_empty());
    let merge = "fn f(log: &mut Vec<AuditEvent>) { log.sort_by_key(AuditEvent::at); }\n";
    assert!(rules_fired("crates/httpsim/src/deployment.rs", merge).is_empty());
    let test =
        "#[cfg(test)]\nmod tests {\n    fn t() { AuditEvent::GaveUp { url, abandoned, at }; }\n}\n";
    assert!(rules_fired("crates/net/src/proxy.rs", test).is_empty());
}

#[test]
fn a_daemon_role_reads_no_peer_time() {
    let src = "fn f(get: GetRequest) { core.begin(get.client, get.url, get.issued_at, now, w); }\n";
    assert_eq!(rules_fired("crates/net/src/proxy.rs", src), ["peer-time"]);
    // Overwriting it with the receipt time, the simulator, and tests are fine.
    let stamp = "fn f(get: GetRequest) { GetRequest { issued_at: now, ..get }; }\n";
    assert!(rules_fired("crates/net/src/origin.rs", stamp).is_empty());
    assert!(rules_fired("crates/httpsim/src/parent.rs", src).is_empty());
    let test = format!("#[cfg(test)]\nmod tests {{\n    {src}}}\n");
    assert!(rules_fired("crates/net/src/parent.rs", &test).is_empty());
}

#[test]
fn a_protocol_is_read_from_its_policy_not_its_name() {
    let src = "fn f(kind: ProtocolKind) -> bool {\n\
               \x20   kind == ProtocolKind::PollEveryTime || matches!(kind, ProtocolKind::VolumeLease)\n\
               }\n";
    for path in [
        "crates/core/src/proxy.rs",
        "crates/audit/src/protocol.rs",
        "crates/httpsim/src/deployment.rs",
        "crates/net/src/origin.rs",
    ] {
        assert_eq!(rules_fired(path, src), ["protocol-name"], "{path}");
    }
    // The preset table, crates that only pick a preset, and tests are fine.
    assert!(rules_fired("crates/core/src/config.rs", src).is_empty());
    assert!(rules_fired("crates/bench/src/tables.rs", src).is_empty());
    assert!(rules_fired("crates/fuzz/src/check.rs", src).is_empty());
    let test = format!("#[cfg(test)]\nmod tests {{\n    {src}}}\n");
    assert!(rules_fired("crates/core/src/server.rs", &test).is_empty());
    // The list, the trio and the name lookup name no variant.
    let lists =
        "fn f() { ProtocolKind::ALL; ProtocolKind::PAPER_TRIO; ProtocolKind::from_name(n); }\n";
    assert!(rules_fired("crates/httpsim/src/deployment.rs", lists).is_empty());
}

/// A path where `peer-time` (and `protocol-name`) apply: the engine and
/// waiver tests below use its one-token-pair needle, `.issued_at`.
const NET: &str = "crates/net/src/proxy.rs";

#[test]
fn cfg_test_items_are_skipped() {
    let src = "\
fn live() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let at = get.issued_at;
        let kind = ProtocolKind::Invalidation;
    }
}
";
    assert!(scan_source(NET, src).is_empty());
}

#[test]
fn code_after_cfg_test_item_is_still_scanned() {
    let src = "\
#[cfg(test)]
mod tests {
    fn t(g: GetRequest) -> SimTime { g.issued_at }
}
fn live(g: GetRequest) -> SimTime { g.issued_at }
";
    let d = scan_source(NET, src);
    assert_eq!(d.len(), 1);
    assert_eq!(d[0].line, 5);
}

#[test]
fn strings_and_comments_do_not_trigger() {
    let src = "\
// reads get.issued_at under the hood
/* and ProtocolKind::Invalidation too,
   across lines */
fn f() -> &'static str { \"get.issued_at ProtocolKind::VolumeLease todo!\" }
/// Docs may say .issued_at freely.
fn g() {}
";
    assert!(scan_source(NET, src).is_empty());
}

#[test]
fn char_literals_and_lifetimes_survive_stripping() {
    let src = "fn f<'a>(x: &'a str) -> char { let q = '\"'; let n = '\\n'; q }\n";
    assert!(scan_source(NET, src).is_empty());
    // The lexer must not let a char literal swallow the rest of the line
    // as a string.
    let sneaky = "fn f(g: GetRequest) { let c = 'x'; g.issued_at; }\n";
    assert_eq!(rules_fired(NET, sneaky), ["peer-time"]);
}

#[test]
fn inline_waiver_suppresses_one_line() {
    let src = "\
fn f(g: GetRequest) -> SimTime { g.issued_at } // xtask-lint: allow(peer-time)
fn h(g: GetRequest) -> SimTime { g.issued_at }
";
    let d = scan_source(NET, src);
    assert_eq!(d.len(), 1);
    assert_eq!(d[0].line, 2);
    // The waiver is rule-specific.
    let wrong =
        "fn f(g: GetRequest) -> SimTime { g.issued_at } // xtask-lint: allow(protocol-name)\n";
    assert_eq!(rules_fired(NET, wrong), ["peer-time"]);
    // A marker alone on its line waives the line below it, and only that.
    let above = "// xtask-lint: allow(peer-time)\nfn f(g: GetRequest) -> SimTime { g.issued_at }\n\
                 fn h(g: GetRequest) -> SimTime { g.issued_at }\n";
    let d = scan_source(NET, above);
    assert_eq!((d.len(), d[0].line), (1, 3));
}

#[test]
fn diagnostics_carry_position_and_render() {
    let src = "fn a() {}\nfn f(g: GetRequest) -> SimTime { g.issued_at }\n";
    let d = scan_source(NET, src);
    assert_eq!(d.len(), 1);
    assert_eq!(d[0].line, 2);
    let rendered = d[0].to_string();
    assert!(rendered.starts_with("crates/net/src/proxy.rs:2: [peer-time]"));
}

// ---- token-only precision a substring match could not deliver ----

#[test]
fn raw_strings_and_macro_text_do_not_trigger() {
    let src = "fn f() -> &'static str { r#\"reads .issued_at and ProtocolKind::Invalidation\"# }\n";
    assert!(scan_source(NET, src).is_empty());
    // `.issued_at_ms` is not `.issued_at`: one identifier token, where a
    // substring match on `.issued_at` would fire.
    let longer = "fn f(g: Stamp) -> u64 { g.issued_at_ms }\n";
    assert!(scan_source(NET, longer).is_empty());
}

#[test]
fn spaced_tokens_still_match() {
    // Formatting cannot hide a read from the token matcher.
    let src = "fn f(g: GetRequest) -> SimTime { g . issued_at }\n";
    assert_eq!(rules_fired(NET, src), ["peer-time"]);
}

// ---- map-iteration-order ----

#[test]
fn unordered_iteration_feeding_output_is_flagged() {
    // The acceptance demo: seed an unsorted HashMap iteration into
    // tables.rs and the lint names the exact line.
    let src = "\
struct Tables { rows: FxHashMap<u32, u64> }
impl Tables {
    fn render(&self, out: &mut String) {
        for (k, v) in self.rows.iter() {
            out.push_str(&format!(\"{k} {v}\\n\"));
        }
    }
}
";
    let d = scan_source("crates/replay/src/tables.rs", src);
    assert_eq!(d.len(), 1);
    assert_eq!(d[0].rule, "map-iteration-order");
    assert_eq!(d[0].line, 4);
}

/// The shapes the old proof engine passed as order-free: commutative
/// folds, an in-place mutation loop, collect-then-sort, ordered collects
/// and a set-into-set merge. Each is now a finding on its own line until a
/// waiver on that line says why it is order-free.
#[test]
fn order_free_shapes_are_flagged_until_waived() {
    let commutative = "\
struct S { m: FxHashMap<u32, u64> }
impl S {
    fn total(&self) -> u64 { self.m.values().sum() }
    fn biggest(&self) -> Option<u64> { self.m.values().copied().max() }
    fn busy(&self) -> usize { self.m.values().filter(|v| **v > 0).count() }
    fn mark(&mut self) {
        for v in self.m.values_mut() {
            if *v > 3 { *v += 1; }
        }
    }
}
";
    let collects = "\
struct S { m: FxHashMap<u32, u64>, other: FxHashSet<u32> }
impl S {
    fn sorted(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.m.keys().copied().collect();
        v.sort_unstable();
        v
    }
    fn tree(&self) -> BTreeMap<u32, u64> {
        self.m.iter().map(|(k, v)| (*k, *v)).collect()
    }
    fn turbo(&self) -> usize {
        self.m.keys().copied().collect::<BTreeSet<u32>>().len()
    }
    fn merge(&mut self, other: &mut FxHashSet<u32>) {
        self.other.extend(other.drain());
    }
}
";
    for (path, src, lines) in [
        (
            "crates/httpsim/src/parent.rs",
            commutative,
            vec![3, 4, 5, 7],
        ),
        ("crates/simnet/src/sim.rs", collects, vec![4, 9, 12, 15]),
    ] {
        let d = scan_source(path, src);
        assert!(d.iter().all(|d| d.rule == "map-iteration-order"), "{d:?}");
        assert_eq!(d.iter().map(|d| d.line).collect::<Vec<_>>(), lines);
        let marker = " // xtask-lint: allow(map-iteration-order): order-free";
        let waive = |on: &[usize]| -> String {
            let line = |(i, l): (usize, &str)| {
                let tail = if on.contains(&(i + 1)) { marker } else { "" };
                format!("{l}{tail}\n")
            };
            src.lines().enumerate().map(line).collect()
        };
        let waived = waive(&lines);
        assert!(scan_source(path, &waived).is_empty(), "{path}");
        assert!(audit_waivers_source(path, &waived).is_empty(), "{path}");
        // A waiver on a line that iterates nothing is stale.
        let stale = audit_waivers_source(path, &waive(&[1]));
        assert_eq!(stale.len(), 1, "{path}");
        assert_eq!((stale[0].rule, stale[0].line), ("stale-waiver", 1));
    }
}

#[test]
fn unsorted_collect_and_escaping_iterators_are_flagged() {
    let src = "\
struct S { m: FxHashMap<u32, u64> }
impl S {
    fn leak(&self) -> Vec<u32> {
        let v: Vec<u32> = self.m.keys().copied().collect();
        v
    }
}
";
    let d = scan_source("crates/core/src/meter.rs", src);
    assert_eq!(d.len(), 1);
    assert_eq!(d[0].rule, "map-iteration-order");
    // A bare `for` over the map with an order-recording body.
    let push = "\
fn f(m: &FxHashSet<u32>, out: &mut Vec<u32>) {
    for x in m {
        out.push(*x);
    }
}
";
    assert_eq!(
        rules_fired("crates/obs/src/registry.rs", push),
        ["map-iteration-order"]
    );
    // Out-of-scope crates (the table printer, the CLI) may iterate freely.
    assert!(scan_source("crates/bench/src/tables.rs", src).is_empty());
}

#[test]
fn btreemap_iteration_is_never_flagged() {
    let src = "\
struct S { m: BTreeMap<u32, u64> }
impl S {
    fn render(&self, out: &mut String) {
        for (k, v) in self.m.iter() {
            out.push_str(&format!(\"{k}={v}\"));
        }
    }
}
";
    assert!(scan_source("crates/obs/src/registry.rs", src).is_empty());
}

// ---- waiver audit ----

#[test]
fn stale_waiver_is_reported_with_its_line() {
    let src = "\
fn fixed() -> u32 { 1 } // xtask-lint: allow(peer-time)
";
    let d = audit_waivers_source(NET, src);
    assert_eq!(d.len(), 1);
    assert_eq!(d[0].rule, "stale-waiver");
    assert_eq!(d[0].line, 1);
    assert!(d[0].message.contains("peer-time"));
    // A live waiver is not stale.
    let live = "fn f(g: GetRequest) -> SimTime { g.issued_at } // xtask-lint: allow(peer-time)\n";
    assert!(audit_waivers_source(NET, live).is_empty());
    // Unknown rule names are flagged (a rule that moved to clippy is one);
    // the `<rule>` doc placeholder is not a marker at all.
    for unknown in ["no-such-rule", "unwrap"] {
        let src = format!("fn f() {{}} // xtask-lint: allow({unknown})\n");
        let d = audit_waivers_source(NET, &src);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("unknown rule"));
    }
    let doc = "//! Waive with `// xtask-lint: allow(<rule>)` on the line.\n";
    assert!(audit_waivers_source(NET, doc).is_empty());
    // Markers inside string literals are inert.
    let in_str = "fn f() -> &'static str { \"// xtask-lint: allow(peer-time)\" }\n";
    assert!(audit_waivers_source(NET, in_str).is_empty());
}

#[test]
fn scan_files_reports_stale_waivers_alongside_findings() {
    let files = vec![(
        NET.to_string(),
        "fn ok() {} // xtask-lint: allow(protocol-name)\n\
         fn f(g: GetRequest) -> SimTime { g.issued_at }\n"
            .to_string(),
    )];
    let d = scan_files(&files);
    let rules: Vec<&str> = d.iter().map(|d| d.rule).collect();
    assert_eq!(rules, ["stale-waiver", "peer-time"]);
}

// ---- output format ----

#[test]
fn json_output_is_stable_and_escaped() {
    let d = vec![Diagnostic {
        path: "crates/core/src/lib.rs".to_string(),
        line: 3,
        rule: "peer-time",
        message: "say \"no\"".to_string(),
    }];
    let json = to_json(&d);
    assert!(json.contains("\"schema\": \"wcc-lint/1\""));
    assert!(json.contains("\"line\": 3"));
    assert!(json.contains("say \\\"no\\\""));
    let empty = to_json(&[]);
    assert!(empty.contains("\"findings\": []"));
}
