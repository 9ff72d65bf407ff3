//! The needle rules: each needle is a sequence of significant-token texts,
//! so a match can never start inside a string literal, comment, or char
//! literal, and `#[cfg(test)]` masking follows real item extents. Only
//! what clippy's `disallowed-*` lists cannot say is here: a field read
//! (`peer-time`), enum variants (`audit-bypass`, `protocol-name`), and the
//! hot-loop allocation list, whose waivers mark set-up code line by line.

use crate::engine::SourceFile;
use crate::Diagnostic;

pub(crate) struct SeqRule {
    pub name: &'static str,
    /// Each needle is one token-text sequence; any match fires the rule.
    pub needles: &'static [&'static [&'static str]],
    pub message: &'static str,
    /// Whether the rule applies to this workspace-relative path at all.
    pub in_scope: fn(&str) -> bool,
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

/// The drivers of the `wcc_core` state machines: simulator nodes, serve-tier roles.
fn driver_code(path: &str) -> bool {
    path.starts_with("crates/httpsim/src/") || path.starts_with("crates/net/src/")
}

pub(crate) const SEQ_RULES: &[SeqRule] = &[
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
    },
    SeqRule {
        name: "peer-time",
        needles: &[&[".", "issued_at"]],
        message: "a daemon node judges at its own clock, cx.now(), not a time a peer sent",
        in_scope: |path| path.starts_with("crates/net/src/"),
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
        // The preset table itself is the one file that may name them.
        in_scope: |path| {
            path != "crates/core/src/config.rs"
                && [
                    "crates/core/src/",
                    "crates/audit/src/",
                    "crates/httpsim/src/",
                    "crates/net/src/",
                ]
                .iter()
                .any(|dir| path.starts_with(dir))
        },
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
        if !(rule.in_scope)(file.path) {
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
