//! The needle rules, ported from the old substring engine onto token
//! sequences: each needle is a sequence of significant-token texts, so a
//! match can never start inside a string literal, comment, or char
//! literal, and `#[cfg(test)]` masking follows real item extents.

use crate::engine::SourceFile;
use crate::Diagnostic;

pub(crate) struct SeqRule {
    pub name: &'static str,
    /// Each needle is one token-text sequence; any match fires the rule.
    pub needles: &'static [&'static [&'static str]],
    pub message: &'static str,
    /// Whether the rule applies to this workspace-relative path at all.
    pub in_scope: fn(&str) -> bool,
    /// Whether this path is on the rule's explicit allowlist.
    pub allowed: fn(&str) -> bool,
}

fn protocol_crate(path: &str) -> bool {
    path.starts_with("crates/core/src/")
        || path.starts_with("crates/proto/src/")
        || path.starts_with("crates/cache/src/")
}

fn hot_path_crate(path: &str) -> bool {
    path.starts_with("crates/core/src/")
        || path.starts_with("crates/httpsim/src/")
        || path.starts_with("crates/simnet/src/")
}

/// The event-dispatch and decode hot paths: the files whose steady state
/// the arena / zero-copy work keeps off the global allocator. Setup-time
/// allocations (constructors, per-run scaffolding) are waived in place —
/// the marker documents "init, not steady state" and the stale-waiver
/// audit keeps it honest.
fn hot_loop_file(path: &str) -> bool {
    matches!(
        path,
        "crates/simnet/src/event.rs"
            | "crates/simnet/src/sim.rs"
            | "crates/simnet/src/node.rs"
            | "crates/simnet/src/arena.rs"
            | "crates/proto/src/zero.rs"
            | "crates/cache/src/lru.rs"
            | "crates/httpsim/src/proxy.rs"
            | "crates/httpsim/src/origin.rs"
            | "crates/reactor/src/sys.rs"
            | "crates/reactor/src/buf.rs"
            | "crates/net/src/evloop.rs"
    )
}

/// The files whose code runs on a serve-tier node's one thread, with
/// every connection of the node waiting behind it.
fn reactor_file(path: &str) -> bool {
    matches!(
        path,
        "crates/net/src/evloop.rs"
            | "crates/net/src/proxy.rs"
            | "crates/net/src/parent.rs"
            | "crates/net/src/origin.rs"
            | "crates/net/src/upstream.rs"
            | "crates/net/src/downstream.rs"
    )
}

/// The drivers of the `wcc_core` state machines: simulator nodes, serve-tier roles.
fn driver_code(path: &str) -> bool {
    path.starts_with("crates/httpsim/src/") || path.starts_with("crates/net/src/")
}

fn simulation_code(path: &str) -> bool {
    // Everything except the real-network crate runs under the simulated
    // clock; `crates/net` is the one place wall-time waiting is legitimate.
    (path.starts_with("crates/") && !path.starts_with("crates/net/")) || path.starts_with("src/")
}

pub(crate) const SEQ_RULES: &[SeqRule] = &[
    SeqRule {
        name: "wall-clock",
        needles: &[
            &["SystemTime", ":", ":", "now"],
            &["Instant", ":", ":", "now"],
        ],
        message: "ambient wall clock breaks replay determinism; use \
                  wcc_types::WallClock (crates/types/src/time.rs)",
        in_scope: |_| true,
        allowed: |path| {
            path == "crates/types/src/time.rs" || path == "crates/bench/src/trajectory.rs"
        },
    },
    SeqRule {
        name: "hot-path-hasher",
        needles: &[
            &["HashMap", ":", ":", "new", "(", ")"],
            &["HashSet", ":", ":", "new", "(", ")"],
            &["collections", ":", ":", "HashMap"],
            &["collections", ":", ":", "HashSet"],
        ],
        message: "default SipHash maps are too slow for the replay hot \
                  path; use wcc_types::FxHashMap / FxHashSet (::default())",
        in_scope: hot_path_crate,
        allowed: |_| false,
    },
    SeqRule {
        name: "unwrap",
        needles: &[&[".", "unwrap", "(", ")"], &[".", "expect", "("]],
        message: "protocol crates must not panic on recoverable states; \
                  return or propagate the error",
        in_scope: protocol_crate,
        allowed: |_| false,
    },
    SeqRule {
        name: "sleep",
        needles: &[&["thread", ":", ":", "sleep"]],
        message: "simulation code must advance the discrete-event clock, \
                  not the OS scheduler",
        in_scope: simulation_code,
        // The serve load generator paces real sockets on the wall clock.
        allowed: |path| path == "crates/bench/src/serve.rs",
    },
    SeqRule {
        name: "url-path-alloc",
        needles: &[&[".", "path", "(", ")"]],
        message: "Url::path() allocates a String per call; format through \
                  Url::write_path / Url::path_display into an existing \
                  buffer instead",
        in_scope: |path| {
            path.starts_with("crates/httpsim/src/")
                || path.starts_with("crates/simnet/src/")
                || path.starts_with("crates/obs/src/")
                || path.starts_with("crates/proto/src/")
        },
        allowed: |_| false,
    },
    SeqRule {
        name: "hot-loop-alloc",
        needles: &[
            &["Box", ":", ":", "new"],
            &["Vec", ":", ":", "new", "(", ")"],
            &[".", "to_string", "(", ")"],
            &["format", "!"],
            // `wcc_proto::encode` returns a fresh `Vec` per frame.
            &["encode", "("],
        ],
        message: "event-dispatch and decode hot paths must not touch the \
                  global allocator in steady state; recycle through the \
                  arena, borrow from the receive buffer, encode a frame \
                  into its send buffer with encode_into, or waive a \
                  setup-time allocation in place",
        in_scope: hot_loop_file,
        allowed: |_| false,
    },
    SeqRule {
        name: "codec-fmt",
        needles: &[&["write", "!"], &["format", "!"]],
        message: "the codec runs once per frame of the serve tier: no \
                  core::fmt there; copy literals in, render numbers through \
                  wire.rs's put_dec, or waive in place the text of an error \
                  that ends its connection",
        in_scope: |path| {
            matches!(
                path,
                "crates/proto/src/wire.rs" | "crates/proto/src/zero.rs"
            )
        },
        allowed: |_| false,
    },
    SeqRule {
        name: "reactor-blocking-io",
        needles: &[
            &["TcpStream", ":", ":", "connect", "("],
            &["set_read_timeout", "("],
            &["read_exact", "("],
            &[".", "write_all", "("],
        ],
        message: "a serve-tier node has one thread: blocking socket I/O \
                  there stalls every connection of the node; queue the \
                  frame through the connection's send buffer or dial with \
                  connect_timeout (or waive its function in place)",
        in_scope: reactor_file,
        allowed: |_| false,
    },
    SeqRule {
        name: "role-owner",
        needles: &[&["Mutex"], &["RwLock"], &["WallClock", ":", ":", "start"]],
        message: "a role's state has one owner, its node's thread: a handle \
                  reaches it through Node::call, and the time is what the \
                  runtime passes in (Cx::now, `now`), not a clock of its own",
        in_scope: |path| reactor_file(path) && path != "crates/net/src/evloop.rs",
        allowed: |_| false,
    },
    SeqRule {
        name: "fetch-bypass",
        needles: &[&[".", "on_reply_200", "("], &[".", "on_reply_304", "("]],
        message: "the proxy-side fetch sequence (request, reply, the rule for \
                  a reply an invalidation overtook) lives once, in \
                  wcc_core::ProxyCore (crates/core/src/fetch.rs); drive its \
                  begin / complete rather than the ProxyPolicy steps",
        in_scope: driver_code,
        allowed: |_| false,
    },
    SeqRule {
        name: "origin-bypass",
        needles: &[
            &[".", "on_modify", "("],
            &[".", "on_inval_ack", "("],
            &[".", "on_server_recover", "("],
            &[".", "expire_pending", "("],
        ],
        message: "the write path (fan-out, acks, retry, §5 recovery) lives \
                  once, in wcc_core::WritePath (crates/core/src/origin.rs), \
                  for origins and parents alike: drive its modify / \
                  on_site_frame / on_timer / recover, not ServerConsistency",
        in_scope: driver_code,
        allowed: |_| false,
    },
    SeqRule {
        name: "audit-bypass",
        needles: &[
            &["AuditEvent", ":", ":", "Touch"],
            &["AuditEvent", ":", ":", "ModifyFanout"],
            &["AuditEvent", ":", ":", "Register"],
            &["AuditEvent", ":", ":", "InvalidateSend"],
            &["AuditEvent", ":", ":", "InvalidateDelivered"],
            &["AuditEvent", ":", ":", "InvalidateAck"],
            &["AuditEvent", ":", ":", "PendingExpired"],
            &["AuditEvent", ":", ":", "GaveUp"],
            &["AuditEvent", ":", ":", "PurgeExpired"],
            &["AuditEvent", ":", ":", "ServerRecovered"],
            &["AuditEvent", ":", ":", "BulkInvalidateDelivered"],
            &["AuditEvent", ":", ":", "Serve"],
        ],
        message: "audit events are recorded once, by the core that acts: \
                  wcc_core::ProxyCore for what a cache served and dropped, \
                  wcc_core::WritePath for the write side; read their logs",
        in_scope: driver_code,
        allowed: |_| false,
    },
    SeqRule {
        name: "peer-time",
        needles: &[&[".", "issued_at"]],
        message: "a daemon node judges at its own clock, cx.now(), not a time a peer sent",
        in_scope: |path| path.starts_with("crates/net/src/"),
        allowed: |_| false,
    },
    SeqRule {
        name: "protocol-name",
        needles: &[
            &["ProtocolKind", ":", ":", "AdaptiveTtl"],
            &["ProtocolKind", ":", ":", "FixedTtl"],
            &["ProtocolKind", ":", ":", "PollEveryTime"],
            &["ProtocolKind", ":", ":", "Invalidation"],
            &["ProtocolKind", ":", ":", "LeaseInvalidation"],
            &["ProtocolKind", ":", ":", "TwoTierLease"],
            &["ProtocolKind", ":", ":", "PiggybackInvalidation"],
            &["ProtocolKind", ":", ":", "VolumeLease"],
        ],
        message: "a protocol is a point of wcc_core::Policy: read the fields of \
                  ProtocolConfig::policy(), the one place (crates/core/src/config.rs) \
                  that turns a preset's name into them",
        in_scope: |path| {
            [
                "crates/core/src/",
                "crates/audit/src/",
                "crates/httpsim/src/",
                "crates/net/src/",
            ]
            .iter()
            .any(|dir| path.starts_with(dir))
        },
        allowed: |path| path == "crates/core/src/config.rs",
    },
    SeqRule {
        name: "obs-registry",
        needles: &[&["AtomicU64"], &["AtomicUsize"]],
        message: "ad-hoc atomic counters bypass the observability layer; \
                  publish through wcc_obs::Registry (counters/gauges/\
                  histograms) so /metrics stays complete",
        in_scope: |path| {
            path.starts_with("crates/net/src/") || path.starts_with("crates/reactor/src/")
        },
        allowed: |_| false,
    },
];

/// Every rule name the engine can emit (used to validate waivers).
pub(crate) fn known_rules() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = SEQ_RULES.iter().map(|r| r.name).collect();
    names.extend([crate::order::MAP_RULE, crate::STALE_WAIVER_RULE]);
    names
}

/// Runs every sequence rule over one file.
pub(crate) fn scan_seq_rules(file: &SourceFile<'_>) -> Vec<Diagnostic> {
    let mut findings = Vec::new();
    for rule in SEQ_RULES {
        if !(rule.in_scope)(file.path) || (rule.allowed)(file.path) {
            continue;
        }
        let mut last_line = 0;
        for k in 0..file.len() {
            if file.masked_at(k) || !rule.needles.iter().any(|n| file.seq_at(k, n)) {
                continue;
            }
            let line = file.line(k);
            if line == last_line {
                continue; // one finding per rule per line, like the old engine
            }
            last_line = line;
            findings.push(Diagnostic {
                path: file.path.to_string(),
                line,
                rule: rule.name,
                message: rule.message.to_string(),
            });
        }
    }
    findings
}
