#![cfg(test)]
//! Rule-engine unit tests. The first half are the golden tests carried
//! over verbatim from the old substring engine (same inputs, same
//! verdicts); the rest cover the token-only rules.

use super::*;

fn rules_fired(path: &str, source: &str) -> Vec<&'static str> {
    scan_source(path, source)
        .into_iter()
        .map(|d| d.rule)
        .collect()
}

#[test]
fn wall_clock_denied_everywhere_but_time_rs() {
    let src = "fn f() { let t = std::time::Instant::now(); }\n";
    assert_eq!(rules_fired("crates/simnet/src/lib.rs", src), ["wall-clock"]);
    assert_eq!(rules_fired("crates/net/src/origin.rs", src), ["wall-clock"]);
    assert!(rules_fired("crates/types/src/time.rs", src).is_empty());
}

#[test]
fn wall_clock_allowed_in_the_trajectory_timer() {
    let src = "fn f() { let t = std::time::Instant::now(); }\n";
    assert!(rules_fired("crates/bench/src/trajectory.rs", src).is_empty());
    assert_eq!(
        rules_fired("crates/bench/src/tables.rs", src),
        ["wall-clock"]
    );
}

#[test]
fn default_hashers_denied_on_the_hot_path() {
    let map = "fn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n";
    assert_eq!(
        rules_fired("crates/core/src/server.rs", map),
        ["hot-path-hasher"]
    );
    let import = "use std::collections::HashSet;\n";
    assert_eq!(
        rules_fired("crates/httpsim/src/coord.rs", import),
        ["hot-path-hasher"]
    );
    assert_eq!(
        rules_fired("crates/simnet/src/net.rs", map),
        ["hot-path-hasher"]
    );
    // Cold paths (trace parsing, the CLI, the proto decoder) may keep
    // the DoS-resistant default.
    assert!(rules_fired("crates/traces/src/summary.rs", map).is_empty());
    assert!(rules_fired("crates/proto/src/wire.rs", import).is_empty());
    // Fx aliases pass everywhere.
    let fx = "fn f() { let m = wcc_types::FxHashMap::<u32, u32>::default(); }\n";
    assert!(rules_fired("crates/core/src/server.rs", fx).is_empty());
    // Shadow models in #[cfg(test)] code are exempt.
    let test_src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
    assert!(rules_fired("crates/core/src/sitelist.rs", test_src).is_empty());
}

#[test]
fn unwrap_denied_only_in_protocol_crates() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    assert_eq!(rules_fired("crates/core/src/server.rs", src), ["unwrap"]);
    assert_eq!(rules_fired("crates/proto/src/wire.rs", src), ["unwrap"]);
    assert_eq!(rules_fired("crates/cache/src/store.rs", src), ["unwrap"]);
    assert!(rules_fired("crates/httpsim/src/proxy.rs", src).is_empty());
    let expect = "fn f(x: Option<u32>) -> u32 { x.expect(\"set\") }\n";
    assert_eq!(rules_fired("crates/core/src/server.rs", expect), ["unwrap"]);
}

#[test]
fn sleep_denied_in_simulation_code_allowed_in_net() {
    let src = "fn f() { std::thread::sleep(d); }\n";
    assert_eq!(rules_fired("crates/core/src/server.rs", src), ["sleep"]);
    assert_eq!(rules_fired("src/bin/paper.rs", src), ["sleep"]);
    assert!(rules_fired("crates/net/src/tcp.rs", src).is_empty());
    // The serve load generator paces real sockets on the wall clock.
    assert!(rules_fired("crates/bench/src/serve.rs", src).is_empty());
}

#[test]
fn allocating_url_path_denied_in_message_hot_crates() {
    let src = "fn f(u: wcc_types::Url) -> String { u.path() }\n";
    assert_eq!(
        rules_fired("crates/httpsim/src/proxy.rs", src),
        ["url-path-alloc"]
    );
    assert_eq!(
        rules_fired("crates/proto/src/wire.rs", src),
        ["url-path-alloc"]
    );
    assert_eq!(
        rules_fired("crates/obs/src/trace.rs", src),
        ["url-path-alloc"]
    );
    // The non-allocating forms pass.
    let ok = "fn f(u: wcc_types::Url, s: &mut String) { u.write_path(s).ok(); }\n";
    assert!(rules_fired("crates/httpsim/src/proxy.rs", ok).is_empty());
    let disp = "fn f(u: wcc_types::Url) { let _ = format!(\"{}\", u.path_display()); }\n";
    assert!(rules_fired("crates/proto/src/msg.rs", disp).is_empty());
    // Cold crates (CLI, traces, replay) may keep the convenience form.
    assert!(rules_fired("crates/replay/src/tables.rs", src).is_empty());
    assert!(rules_fired("src/bin/wcc.rs", src).is_empty());
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
fn formatting_machinery_denied_in_the_wire_codec() {
    let put = "fn f(out: &mut Vec<u8>, n: u64) { let _ = write!(out, \"X-Size: {n}\\r\\n\"); }\n";
    let alloc = "fn f(n: u64) -> String { format!(\"{n}\") }\n";
    for path in ["crates/proto/src/wire.rs", "crates/proto/src/zero.rs"] {
        assert!(rules_fired(path, put).contains(&"codec-fmt"), "{path}");
        assert!(rules_fired(path, alloc).contains(&"codec-fmt"), "{path}");
    }
    // Literals copied in, numbers through the decimal writer.
    let ok = "fn f(out: &mut Vec<u8>, n: u64) { out.extend_from_slice(b\"X-Size: \"); put_dec(out, n); }\n";
    assert!(rules_fired("crates/proto/src/wire.rs", ok).is_empty());
    // `writeln!`-free text that merely mentions the macros does not count.
    let inert = "/// Nothing here goes through `write!` or `format!`.\nfn f() {}\n";
    assert!(rules_fired("crates/proto/src/wire.rs", inert).is_empty());
    // An error's text, rendered once as the connection closes.
    let waived =
        "fn bad(v: &str) -> E { E(format!(\"bad {v}\")) } // xtask-lint: allow(codec-fmt)\n";
    assert!(rules_fired("crates/proto/src/wire.rs", waived).is_empty());
    // The message model and every other crate format as they like.
    assert!(rules_fired("crates/proto/src/msg.rs", put).is_empty());
    assert!(rules_fired("crates/net/src/scrape.rs", alloc).is_empty());
    // The write!-based reference encoder is test code.
    let test = "#[cfg(test)]\nmod tests {\n    fn r(o: &mut Vec<u8>) { write!(o, \"x\"); }\n}\n";
    assert!(rules_fired("crates/proto/src/wire.rs", test).is_empty());
}

#[test]
fn blocking_socket_io_denied_on_the_node_thread() {
    for src in [
        "fn dial(a: SocketAddr) { let s = TcpStream::connect(a); }\n",
        "fn f(s: &TcpStream) { s.set_read_timeout(None); }\n",
        "fn f(s: &mut TcpStream, b: &mut [u8]) { s.read_exact(b); }\n",
        "fn f(s: &mut TcpStream, b: &[u8]) { s.write_all(b); }\n",
    ] {
        for path in [
            "crates/net/src/evloop.rs",
            "crates/net/src/proxy.rs",
            "crates/net/src/parent.rs",
            "crates/net/src/origin.rs",
            "crates/net/src/upstream.rs",
            "crates/net/src/downstream.rs",
        ] {
            let fired = rules_fired(path, src);
            assert!(fired.contains(&"reactor-blocking-io"), "{path}: {src}");
        }
        // The scrape client runs on its caller's thread, not a node's.
        assert!(rules_fired("crates/net/src/scrape.rs", src).is_empty());
    }
    // A bounded dial, and output queued through the send buffer.
    let ok = "fn dial(a: &SocketAddr) { let s = TcpStream::connect_timeout(a, T); }\n\
              fn f(sb: &mut SendBuf, m: &HttpMsg) { encode_into(m, sb.tail()); }\n";
    assert!(rules_fired("crates/net/src/evloop.rs", ok).is_empty());
    // The dial's first frame, and a caller-thread function, waived in place.
    let waived = "fn hello(s: &mut TcpStream, f: &[u8]) { s.write_all(f); } \
                  // xtask-lint: allow(reactor-blocking-io)\n";
    assert!(rules_fired("crates/net/src/evloop.rs", waived).is_empty());
    // Tests drive nodes from outside over blocking sockets.
    let test = "#[cfg(test)]\nmod tests {\n    fn f() { TcpStream::connect(a); }\n}\n";
    assert!(rules_fired("crates/net/src/evloop.rs", test).is_empty());
}

#[test]
fn shared_role_state_and_role_clocks_denied_in_the_roles() {
    for src in [
        "struct Proxy { state: Arc<Mutex<Inner>> }\n",
        "fn f(s: &parking_lot::RwLock<Core>) { s.read(); }\n",
        "fn f() -> SimTime { let c = WallClock::start(); now(c) }\n",
    ] {
        for role in ["proxy", "parent", "origin", "upstream", "downstream"] {
            let path = format!("crates/net/src/{role}.rs");
            assert_eq!(rules_fired(&path, src), ["role-owner"], "{path}: {src}");
        }
    }
}

#[test]
fn the_runtime_keeps_the_clock_and_tests_keep_their_locks() {
    // The runtime owns the node's one clock.
    let clock = "fn spawn() { let clock = WallClock::start(); }\n";
    assert!(rules_fired("crates/net/src/evloop.rs", clock).is_empty());
    // Told the time, a role reads none; test roles may share a Mutex.
    let told = "fn on_deadline(&mut self, now: SimTime) { self.up.expire(now); }\n";
    assert!(rules_fired("crates/net/src/proxy.rs", told).is_empty());
    let test = "#[cfg(test)]\nmod tests {\n    struct S { seen: Mutex<Vec<u64>> }\n}\n";
    assert!(rules_fired("crates/net/src/origin.rs", test).is_empty());
    // Outside the serve tier's roles the rule does not apply.
    let shared = "struct S { m: std::sync::Mutex<u64> }\n";
    assert!(rules_fired("crates/bench/src/serve.rs", shared).is_empty());
    assert!(rules_fired("crates/net/src/scrape.rs", shared).is_empty());
}

#[test]
fn hand_rolled_fetch_sequence_denied_outside_the_core() {
    let src = "fn f(p: &mut ProxyPolicy) { p.on_reply_200(k, m, l, t, c); }\n\
               fn g(p: &mut ProxyPolicy) -> bool { p.on_reply_304(k, l, t, c) }\n";
    for path in [
        "crates/httpsim/src/proxy.rs",
        "crates/httpsim/src/parent.rs",
        "crates/net/src/upstream.rs",
    ] {
        let fired = rules_fired(path, src);
        assert_eq!(fired, ["fetch-bypass", "fetch-bypass"], "{path}");
    }
    // The sequence's one home, and a crate that only measures it.
    assert!(rules_fired("crates/core/src/fetch.rs", src).is_empty());
    assert!(rules_fired("crates/bench/src/lib.rs", src).is_empty());
    // Driving the core, or naming the steps in a test, is fine.
    let ok = "fn f(core: &mut ProxyCore<W>) { core.complete(req, &reply); }\n";
    assert!(rules_fired("crates/net/src/proxy.rs", ok).is_empty());
    let test = "#[cfg(test)]\nmod tests {\n    fn t() { p.on_reply_200(k, m, l, t, c); }\n}\n";
    assert!(rules_fired("crates/httpsim/src/proxy.rs", test).is_empty());
}

#[test]
fn hand_rolled_write_path_denied_in_every_driver() {
    let src = "fn f(s: &mut ServerConsistency) { s.on_modify(u, t); s.expire_pending(t); }\n\
               fn g(s: &mut ServerConsistency) { s.on_inval_ack(u, c); }\n\
               fn h(s: &mut ServerConsistency) { s.on_server_recover(); }\n";
    // Origins and parents alike, and whatever joins them in those crates.
    for path in [
        "crates/httpsim/src/origin.rs",
        "crates/httpsim/src/parent.rs",
        "crates/net/src/origin.rs",
        "crates/net/src/parent.rs",
        "crates/net/src/downstream.rs",
    ] {
        assert_eq!(rules_fired(path, src), ["origin-bypass"; 3], "{path}");
    }
    // The write path's one home, and a crate that only measures it.
    assert!(rules_fired("crates/core/src/origin.rs", src).is_empty());
    assert!(rules_fired("crates/bench/src/lib.rs", src).is_empty());
    // Driving the core, or naming the steps in a test, is fine.
    let ok = "fn f(down: &mut WritePath) { down.modify(u, t, now, out); down.ack(u, c, now); }\n";
    assert!(rules_fired("crates/net/src/parent.rs", ok).is_empty());
    let test = "#[cfg(test)]\nmod tests {\n    fn t() { s.on_modify(u, t); }\n}\n";
    assert!(rules_fired("crates/httpsim/src/origin.rs", test).is_empty());
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

#[test]
fn adhoc_atomic_counters_denied_in_the_tcp_prototype() {
    let src = "use std::sync::atomic::AtomicU64;\n";
    assert_eq!(
        rules_fired("crates/net/src/origin.rs", src),
        ["obs-registry"]
    );
    assert_eq!(
        rules_fired(
            "crates/net/src/proxy.rs",
            "static N: AtomicUsize = AtomicUsize::new(0);\n"
        ),
        ["obs-registry"]
    );
    // Control-plane flags (AtomicBool/AtomicU32) are not counters.
    let flags = "use std::sync::atomic::{AtomicBool, AtomicU32};\n";
    assert!(rules_fired("crates/net/src/origin.rs", flags).is_empty());
    // Other crates may use atomics (e.g. the fan-out pool's internals).
    assert!(rules_fired("crates/replay/src/parallel.rs", src).is_empty());
}

#[test]
fn cfg_test_items_are_skipped() {
    let src = "\
fn live() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let x = Some(1).unwrap();
        std::thread::sleep(std::time::Duration::from_secs(1));
    }
}
";
    assert!(scan_source("crates/core/src/lib.rs", src).is_empty());
}

#[test]
fn code_after_cfg_test_item_is_still_scanned() {
    let src = "\
#[cfg(test)]
mod tests {
    fn t() { Some(1).unwrap(); }
}
fn live(x: Option<u32>) -> u32 { x.unwrap() }
";
    let d = scan_source("crates/core/src/lib.rs", src);
    assert_eq!(d.len(), 1);
    assert_eq!(d[0].line, 5);
}

#[test]
fn strings_and_comments_do_not_trigger() {
    let src = "\
// calls Instant::now() under the hood
/* and .unwrap() too,
   across lines */
fn f() -> &'static str { \"Instant::now() .unwrap() todo!\" }
/// Docs may say thread::sleep freely.
fn g() {}
";
    assert!(scan_source("crates/core/src/lib.rs", src).is_empty());
}

#[test]
fn char_literals_and_lifetimes_survive_stripping() {
    let src = "fn f<'a>(x: &'a str) -> char { let q = '\"'; let n = '\\n'; q }\n";
    assert!(scan_source("crates/core/src/lib.rs", src).is_empty());
    // The lexer must not let a char literal swallow the rest of the line
    // as a string.
    let sneaky = "fn f() { let c = 'x'; Some(1).unwrap(); }\n";
    assert_eq!(rules_fired("crates/core/src/lib.rs", sneaky), ["unwrap"]);
}

#[test]
fn inline_waiver_suppresses_one_line() {
    let src = "\
fn f() { Some(1).unwrap() } // xtask-lint: allow(unwrap)
fn g() { Some(1).unwrap() }
";
    let d = scan_source("crates/core/src/lib.rs", src);
    assert_eq!(d.len(), 1);
    assert_eq!(d[0].line, 2);
    // The waiver is rule-specific.
    let wrong = "fn f() { Some(1).unwrap() } // xtask-lint: allow(sleep)\n";
    assert_eq!(rules_fired("crates/core/src/lib.rs", wrong), ["unwrap"]);
    // A marker alone on its line waives the line below it, and only that.
    let above = "// xtask-lint: allow(unwrap)\nfn f() { Some(1).unwrap() }\n\
                 fn g() { Some(1).unwrap() }\n";
    let d = scan_source("crates/core/src/lib.rs", above);
    assert_eq!((d.len(), d[0].line), (1, 3));
}

#[test]
fn diagnostics_carry_position_and_render() {
    let src = "fn a() {}\nfn f() { Some(1).unwrap(); }\n";
    let d = scan_source("crates/core/src/server.rs", src);
    assert_eq!(d.len(), 1);
    assert_eq!(d[0].line, 2);
    let rendered = d[0].to_string();
    assert!(rendered.starts_with("crates/core/src/server.rs:2: [unwrap]"));
}

// ---- token-only precision the old engine could not deliver ----

#[test]
fn raw_strings_and_macro_text_do_not_trigger() {
    let src = "fn f() -> &'static str { r#\"calls .unwrap() and Instant::now()\"# }\n";
    assert!(scan_source("crates/core/src/lib.rs", src).is_empty());
    // `.unwrap_or(…)` is not `.unwrap()`: token matching sees the
    // difference, substring matching on `.unwrap()` also did — but
    // `.expect_err(…)` vs `.expect(` only tokens get right.
    let or = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n";
    assert!(scan_source("crates/core/src/lib.rs", or).is_empty());
}

#[test]
fn spaced_tokens_still_match() {
    // Formatting cannot hide a call from the token matcher.
    let src = "fn f(x: Option<u32>) -> u32 { x . unwrap ( ) }\n";
    assert_eq!(rules_fired("crates/core/src/lib.rs", src), ["unwrap"]);
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
fn fixed() -> u32 { 1 } // xtask-lint: allow(unwrap)
";
    let d = audit_waivers_source("crates/core/src/lib.rs", src);
    assert_eq!(d.len(), 1);
    assert_eq!(d[0].rule, "stale-waiver");
    assert_eq!(d[0].line, 1);
    assert!(d[0].message.contains("unwrap"));
    // A live waiver is not stale.
    let live = "fn f() { Some(1).unwrap() } // xtask-lint: allow(unwrap)\n";
    assert!(audit_waivers_source("crates/core/src/lib.rs", live).is_empty());
    // Unknown rule names are flagged; the `<rule>` doc placeholder is not
    // a marker at all.
    let unknown = "fn f() {} // xtask-lint: allow(no-such-rule)\n";
    let d = audit_waivers_source("crates/core/src/lib.rs", unknown);
    assert_eq!(d.len(), 1);
    assert!(d[0].message.contains("unknown rule"));
    let doc = "//! Waive with `// xtask-lint: allow(<rule>)` on the line.\n";
    assert!(audit_waivers_source("crates/core/src/lib.rs", doc).is_empty());
    // Markers inside string literals are inert.
    let in_str = "fn f() -> &'static str { \"// xtask-lint: allow(unwrap)\" }\n";
    assert!(audit_waivers_source("crates/core/src/lib.rs", in_str).is_empty());
}

#[test]
fn scan_files_reports_stale_waivers_alongside_findings() {
    let files = vec![(
        "crates/core/src/lib.rs".to_string(),
        "fn ok() {} // xtask-lint: allow(sleep)\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n"
            .to_string(),
    )];
    let d = scan_files(&files);
    let rules: Vec<&str> = d.iter().map(|d| d.rule).collect();
    assert_eq!(rules, ["stale-waiver", "unwrap"]);
}

// ---- output format ----

#[test]
fn json_output_is_stable_and_escaped() {
    let d = vec![Diagnostic {
        path: "crates/core/src/lib.rs".to_string(),
        line: 3,
        rule: "unwrap",
        message: "say \"no\"".to_string(),
    }];
    let json = to_json(&d);
    assert!(json.contains("\"schema\": \"wcc-lint/1\""));
    assert!(json.contains("\"line\": 3"));
    assert!(json.contains("say \\\"no\\\""));
    let empty = to_json(&[]);
    assert!(empty.contains("\"findings\": []"));
}
