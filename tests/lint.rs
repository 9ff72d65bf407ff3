//! What the compiler cannot say about the shipped tree.
//!
//! Clippy's `disallowed-*` lists cannot name an enum variant, so the two
//! rules that do are one source scan here: no `ProtocolKind::<Variant>`
//! outside the preset table, no `AuditEvent::<Variant>` in a driver. The
//! `plants` module holds one violation per rule of the root `clippy.toml`,
//! each under an `#[expect]`: a list that stops firing leaves its
//! expectation unfulfilled, which `cargo clippy -- -D warnings` fails.

use std::path::Path;

/// A rule of the scan: the variants it denies and the files it reads.
struct Rule {
    name: &'static str,
    enum_name: &'static str,
    variants: &'static [&'static str],
    why: &'static str,
    in_scope: fn(&str) -> bool,
}

const RULES: &[Rule] = &[
    Rule {
        name: "protocol-name",
        enum_name: "ProtocolKind",
        variants: &[
            "AdaptiveTtl",
            "FixedTtl",
            "PollEveryTime",
            "Invalidation",
            "LeaseInvalidation",
            "TwoTierLease",
            "PiggybackInvalidation",
            "VolumeLease",
        ],
        why: "a protocol is a point of wcc_core::Policy: read the fields of \
              ProtocolConfig::policy(), the one place (crates/core/src/config.rs) \
              that turns a preset's name into them",
        in_scope: |path| {
            path != "crates/core/src/config.rs"
                && ["core", "audit", "httpsim", "net"]
                    .iter()
                    .any(|krate| path.starts_with(&format!("crates/{krate}/src/")))
        },
    },
    Rule {
        name: "audit-bypass",
        enum_name: "AuditEvent",
        variants: &[
            "Touch",
            "ModifyFanout",
            "Register",
            "InvalidateSend",
            "InvalidateDelivered",
            "InvalidateAck",
            "PendingExpired",
            "GaveUp",
            "PurgeExpired",
            "ServerRecovered",
            "BulkInvalidateDelivered",
            "Serve",
        ],
        why: "audit events are recorded once, by the core that acts: \
              wcc_core::ProxyCore for what a cache served and dropped, \
              wcc_core::WritePath for the write side; read their logs",
        in_scope: |path| {
            path.starts_with("crates/httpsim/src/") || path.starts_with("crates/net/src/")
        },
    },
];

/// `path:line: [rule] why` for each variant `src` names, read up to its
/// first `#[cfg(test)]` line and with `//` comments cut off. `cargo fmt`
/// writes a path as `Enum::Variant`, with no space around the `::`.
fn findings(path: &str, src: &str) -> Vec<String> {
    let code = src
        .lines()
        .take_while(|line| !line.trim_start().starts_with("#[cfg(test)]"))
        .map(|line| line.split("//").next().unwrap_or_default());
    let mut found = Vec::new();
    for (i, line) in code.enumerate() {
        for rule in RULES.iter().filter(|rule| (rule.in_scope)(path)) {
            let named = line.match_indices(rule.enum_name).any(|(at, _)| {
                let rest = &line[at + rule.enum_name.len()..];
                let variant = rest.strip_prefix("::").map(|rest| {
                    let end = rest
                        .find(|c: char| !c.is_alphanumeric() && c != '_')
                        .unwrap_or(rest.len());
                    &rest[..end]
                });
                variant.is_some_and(|v| rule.variants.contains(&v))
            });
            if named {
                found.push(format!("{path}:{}: [{}] {}", i + 1, rule.name, rule.why));
            }
        }
    }
    found
}

/// Every `.rs` file under `dir`, as `(workspace-relative path, source)`.
fn sources(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) {
    for entry in std::fs::read_dir(dir).expect("source tree is readable") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            sources(root, &path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let rel = path.strip_prefix(root).expect("under the root");
            let src = std::fs::read_to_string(&path).expect("source is UTF-8");
            out.push((rel.to_string_lossy().replace('\\', "/"), src));
        }
    }
}

#[test]
fn cores_and_drivers_name_no_protocol_or_audit_variant() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    sources(root, &root.join("crates"), &mut files);
    let found: Vec<String> = files
        .iter()
        .flat_map(|(path, src)| findings(path, src))
        .collect();
    assert!(found.is_empty(), "{}", found.join("\n"));
}

#[test]
fn the_variant_scan_catches_a_plant_and_skips_comments_tests_and_the_preset_table() {
    let proxy = "crates/httpsim/src/proxy.rs";
    let planted = "fn f() -> P { ProtocolKind::Invalidation }\n";
    assert_eq!(findings(proxy, planted).len(), 1);
    let origin = "crates/net/src/origin.rs";
    assert_eq!(findings(origin, "let e = AuditEvent::Serve {\n").len(), 1);
    for quiet in [
        "// ProtocolKind::Invalidation is read from its policy\n",
        "let k = ProtocolKind::ALL; // AuditEvent::Serve\n",
        "#[cfg(test)]\nmod tests { const K: P = ProtocolKind::Invalidation; }\n",
    ] {
        assert_eq!(findings(proxy, quiet), Vec::<String>::new(), "{quiet}");
    }
    assert!(findings("crates/core/src/config.rs", planted).is_empty());
    assert!(findings("crates/core/src/proxy.rs", "AuditEvent::Serve {").is_empty());
}

/// One violation per rule of the root `clippy.toml` and the workspace's
/// `clippy::iter_over_hash_type`, each under the `#[expect]` that a firing
/// rule fulfils. Compiled by every `cargo test` and `cargo clippy`, never
/// run.
#[allow(dead_code, reason = "plants are compiled, never called")]
mod plants {
    use std::collections::HashMap;
    use wcc_types::{FxHashMap, FxHashSet};

    #[expect(clippy::disallowed_methods, reason = "plant: the wall clock")]
    fn wall_clock() -> std::time::Instant {
        std::time::Instant::now()
    }

    #[expect(clippy::disallowed_methods, reason = "plant: the wall clock, aliased")]
    fn wall_clock_alias() -> std::time::SystemTime {
        use std::time::SystemTime as Clock;
        Clock::now()
    }

    #[expect(clippy::disallowed_methods, reason = "plant: a sleep, glob-imported")]
    fn sleep_glob() {
        use std::thread::*;
        sleep(std::time::Duration::ZERO);
    }

    #[expect(clippy::disallowed_methods, reason = "plant: a std map's values")]
    fn map_values(m: &HashMap<u32, u32>) -> u32 {
        m.values().sum()
    }

    #[expect(clippy::disallowed_methods, reason = "plant: an Fx map's keys")]
    fn fx_keys(m: &FxHashMap<u32, u32>) -> Vec<u32> {
        m.keys().copied().collect()
    }

    #[expect(clippy::iter_over_hash_type, reason = "plant: a for over a map")]
    fn for_over_map(m: &FxHashMap<u32, u32>) -> u32 {
        let mut sum = 0;
        for (k, v) in m {
            sum += k * v;
        }
        sum
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "plant: a set reached through a closure parameter"
    )]
    fn closure_parameter(m: &FxHashMap<u32, FxHashSet<u32>>) -> Option<u32> {
        m.get(&0).map(|s| s.iter().sum())
    }

    /// The form no list can name: `<HashMap as IntoIterator>::into_iter`
    /// outside a `for` goes unseen (clippy cannot resolve that path).
    fn into_iter_is_unseen(m: FxHashMap<u32, u32>) -> Vec<(u32, u32)> {
        m.into_iter().collect()
    }
}
