//! Committed fuzz corpus: interesting scenario seeds replayed through the
//! full fuzz oracle on every test run.
//!
//! Each entry is a *scenario* seed (the per-iteration seed printed in a
//! `wcc fuzz` failure line, not the base seed). Reproducing a fuzz failure
//! locally and then committing its seed here turns a one-off catch into a
//! permanent regression test: the scenario is regenerated from the seed,
//! replayed with auditing on, and must pass every oracle check.
//!
//! To add a seed: run `wcc fuzz --shrink`, copy the `regression seed line`
//! from the repro block into `CORPUS`, and keep the one-line comment saying
//! what it caught.

use webcache::fuzz::{check, CheckOptions, Scenario};

/// Seeds chosen for coverage (every protocol, 0-3 faults, 1-4 proxies) plus
/// regressions for bugs the fuzzer has actually caught.
const CORPUS: &[u64] = &[
    // -- coverage: every protocol under faults ---------------------------
    0x5692161d100b05e5, // adaptive-ttl, 3 faults, 4 proxies
    0xe4d971771b652c20, // fixed-ttl, 1 fault, 4 proxies
    0xbeeb8da1658eec67, // lease-invalidation, fault-free (injection-detection seed)
    0x71c18690ee42c90b, // poll-every-time, 1 fault, single proxy
    0xc34d0bff90150280, // lease-invalidation, 1 fault, long-lived docs
    0xc4fea708156e0c84, // fixed-ttl, 2 faults, tiny doc population
    0xcb435c8e74616796, // invalidation, 1 fault, single proxy
    0x9afcd44d14cf8bfe, // two-tier-lease, 1 fault
    0x01c9558bd006badb, // piggyback, 1 fault, 4 proxies
    0x87b341d690d7a28a, // invalidation, 2 faults
    0x2ac2ce17a5794a3b, // lease-invalidation, 2 faults
    0x2310bd4abe96ea03, // volume-lease, 3 faults
    0x0c43407dc177b6f7, // piggyback, 2 faults, short trace
    0xc1af2b37c863da48, // piggyback, 3 faults, single proxy
    0x24bdf605ee188704, // volume-lease, 2 faults, week-scale lifetimes
    0x9464fd3ad6ffc7e6, // invalidation, 3 faults, 4 proxies
    0xdbd238973a2b148a, // adaptive-ttl, 3 faults, short trace
    0x3909f559401b6dab, // two-tier-lease, fault-free, hot small docs
    0xd85ab7a2b154095a, // poll-every-time, 1 fault, fast-changing docs
    0xea909a92e113bf3c, // volume-lease, fault-free, 31 clients
    // -- regressions: bugs the fuzzer caught -----------------------------
    // Recovery-time bulk INVALIDATE was fire-and-forget: an origin outage
    // overlapping an origin<->proxy partition swallowed it, so post-recovery
    // writes fanned out to an empty site list while the proxy kept a live
    // lease on a stale copy. Fixed by InvalidateServerAck + a bounded origin
    // retry loop.
    0x104410149bb2b666, // lease-invalidation, outage + partition overlap
    0x6c8099a8060d9f5c, // invalidation, same signature, 8 stale entries
    0x5e47202d6705578e, // lease-invalidation, 2-fault overlap
    0x41ac8f13e2dc7c12, // invalidation, 2-fault overlap
    0x1d67c34f6a2a35d9, // lease-invalidation, many-client variant
    0x44e41974af301401, // invalidation, large doc population variant
    // Oracle calibration: browser-based detection defers the origin's
    // knowledge of a write until the next poll, so end-of-run promised-fresh
    // staleness is a model property there, not a bug.
    0xb4a0472e578069ae, // volume-lease + browser-based detection + outage
    // -- coverage: every workload family x the paper trio ----------------
    // Family scenarios run multi-origin federations (2-6 origins).
    0x273ffb229ad337c9, // archival-scan, adaptive-ttl, 6 origins, 2 faults
    0x54c9abe8ef8c48ee, // archival-scan, invalidation, 2 proxies
    0xc3893c0f7dd1e207, // archival-scan, poll-every-time
    0x40b8d6825309434b, // breaking-news, adaptive-ttl, 2 faults
    0xf5e056b693184450, // breaking-news, invalidation, 3 faults
    0x3b0198ee397091e9, // breaking-news, poll-every-time
    0xeef31bee492e155e, // flash-crowd, adaptive-ttl, 6 origins, 3 faults
    0xe3880f0500ee1b50, // flash-crowd, invalidation, 4 proxies
    0x3f94f3ec74086c53, // flash-crowd, poll-every-time, 3 proxies
    0x2dfebae2ce73308b, // real-time-feed, adaptive-ttl, 6 origins
    0xfb4538e9d4deb08d, // real-time-feed, invalidation
    0x409ef71f42c6940e, // real-time-feed, poll-every-time, 5 origins
    0x23aaceb50f8f45be, // zipf-federation, adaptive-ttl, 2 faults
    0xed34dd8c16152b28, // zipf-federation, invalidation, 3 faults
    0xb4bb9b81b6e79bf7, // zipf-federation, poll-every-time, 4 origins
    // -- coverage: batched invalidation proposer --------------------------
    // Each seed enables the proposer at a different count threshold and
    // overlaps batch rounds with partitions or outages, so the staleness
    // and write-liveness oracles cover the coalescing fan-out path.
    0x538454127b093a7e, // entries=4, invalidation, batch round overlaps a partition
    0x9e3779b97f4a22f8, // entries=2, two-tier-lease + adaptive lease, archival-scan, 3 faults
    0xa40a9584ad25fc9d, // entries=4, two-tier-lease + adaptive lease, zipf-federation, 3 faults
    0x43d91e8ef8a4d808, // entries=8, invalidation + adaptive lease, archival-scan, 3 faults
    0xd0ec054665290918, // entries=16, two-tier-lease + adaptive lease, zipf-federation, 6 origins
    0xa0ac6ae1c541794b, // entries=32, lease-invalidation + adaptive lease, flash-crowd
];

#[test]
fn corpus_has_at_least_twenty_seeds() {
    assert!(CORPUS.len() >= 20, "corpus shrank to {}", CORPUS.len());
}

#[test]
fn corpus_seeds_are_unique() {
    let mut sorted = CORPUS.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), CORPUS.len(), "duplicate seed in CORPUS");
}

#[test]
fn corpus_covers_every_protocol() {
    let mut protocols: Vec<String> = CORPUS
        .iter()
        .map(|&seed| Scenario::generate(seed).protocol.kind.name().to_owned())
        .collect();
    protocols.sort();
    protocols.dedup();
    assert!(
        protocols.len() >= 8,
        "corpus only exercises {protocols:?}; keep all eight protocols covered"
    );
}

#[test]
fn corpus_covers_every_workload_family_with_the_paper_trio() {
    use webcache::traces::family::WorkloadFamily;

    // (family, protocol) pairs the family slice of the corpus exercises.
    let mut pairs: Vec<(&'static str, String)> = CORPUS
        .iter()
        .filter_map(|&seed| {
            let s = Scenario::generate(seed);
            s.family
                .map(|f| (f.name(), s.protocol.kind.name().to_owned()))
        })
        .collect();
    assert!(
        pairs.len() >= 8,
        "only {} family seeds in the corpus; keep at least 8",
        pairs.len()
    );
    pairs.sort();
    pairs.dedup();
    for family in WorkloadFamily::ALL {
        for protocol in ["invalidation", "adaptive-ttl", "poll-every-time"] {
            assert!(
                pairs.contains(&(family.name(), protocol.to_owned())),
                "corpus lost coverage of family {} under {protocol}",
                family.name()
            );
        }
    }
}

#[test]
fn corpus_covers_batched_proposer_thresholds() {
    let mut thresholds: Vec<usize> = CORPUS
        .iter()
        .filter_map(|&seed| {
            Scenario::generate(seed)
                .options
                .inval_batch
                .map(|b| b.max_entries)
        })
        .collect();
    thresholds.sort_unstable();
    thresholds.dedup();
    for want in [2usize, 4, 8, 16, 32] {
        assert!(
            thresholds.contains(&want),
            "corpus lost proposer coverage at max_entries={want} (have {thresholds:?})"
        );
    }
}

#[test]
fn corpus_replays_clean() {
    let opts = CheckOptions::default();
    let mut failures = Vec::new();
    for &seed in CORPUS {
        let scenario = Scenario::generate(seed);
        if let Err(failure) = check(&scenario, &opts) {
            failures.push(format!(
                "{seed:#018x} ({}): {failure}",
                scenario.protocol.kind
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "corpus seeds regressed:\n{}",
        failures.join("\n")
    );
}
