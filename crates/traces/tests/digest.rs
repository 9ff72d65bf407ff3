//! The generator's output, pinned.
//!
//! Every committed table, the fuzzer's summary and the benchmark's golden
//! digests are computed over traces this crate synthesises. A change to how
//! a draw is made (a faster search, a different sort, a hash set where an
//! ordered set was) must leave every record, document size and modification
//! schedule bit for bit as it was; this test holds the generator to FNV-1a
//! digests of its output, taken before any such change.
//!
//! Covered: the five paper traces at the tables' seed (1997) with both SDSC
//! lifetimes, the real-time-feed city family at a quarter scale (the
//! `feed-storm` workload's draw), and, at three other seeds, each paper
//! trace scaled down and each scenario family at a small scale. A digest
//! that moved on purpose is regenerated from the failure message, which
//! lists every case's current digest.

use wcc_traces::family::{self, FamilyConfig, WorkloadFamily};
use wcc_traces::{synthetic, ModSchedule, Trace, TraceSpec};
use wcc_types::SimDuration;

/// The tables' seed.
const TABLE_SEED: u64 = 1997;

/// 64-bit FNV-1a, written out so the digest never depends on a std hasher.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn trace(&mut self, trace: &Trace) {
        self.bytes(trace.name.as_bytes());
        self.u64(u64::from(trace.server.index()));
        self.u64(trace.duration.as_micros());
        self.u64(trace.doc_sizes.len() as u64);
        for size in &trace.doc_sizes {
            self.u64(size.as_u64());
        }
        self.u64(trace.records.len() as u64);
        for rec in &trace.records {
            self.u64(rec.at.as_micros());
            self.u64(u64::from(u32::from(rec.client)));
            self.u64(u64::from(rec.url.server().index()));
            self.u64(u64::from(rec.url.doc()));
        }
    }

    fn mods(&mut self, mods: &ModSchedule) {
        self.u64(mods.modifications().len() as u64);
        for m in mods.modifications() {
            self.u64(m.at.as_micros());
            self.u64(u64::from(m.doc));
        }
    }
}

/// A paper trace and its modifier, materialised as the replay harness does.
fn paper_digest(spec: &TraceSpec, lifetime: SimDuration, seed: u64) -> u64 {
    let trace = synthetic::generate(spec, seed);
    let mods = ModSchedule::generate(spec.num_docs, lifetime, spec.duration, seed);
    let mut h = Fnv::new();
    h.trace(&trace);
    h.mods(&mods);
    h.0
}

fn family_digest(cfg: &FamilyConfig, seed: u64) -> u64 {
    let workload = family::generate(cfg, seed);
    let mut h = Fnv::new();
    for (trace, mods) in &workload.workloads {
        h.trace(trace);
        h.mods(mods);
    }
    h.0
}

/// Every case's name and digest.
fn cases() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let sdsc_short = SimDuration::from_secs(5 * 86_400 / 2);
    for spec in TraceSpec::all() {
        let lifetime = spec.default_lifetime;
        out.push((
            format!("{}@{TABLE_SEED}", spec.name),
            paper_digest(&spec, lifetime, TABLE_SEED),
        ));
        if spec.name == "SDSC" {
            out.push((
                format!("SDSC-2.5d@{TABLE_SEED}"),
                paper_digest(&spec, sdsc_short, TABLE_SEED),
            ));
        }
    }
    let feed = FamilyConfig::city(WorkloadFamily::RealTimeFeed).scaled_down(4);
    out.push((
        format!("real-time-feed/4@{TABLE_SEED}"),
        family_digest(&feed, TABLE_SEED),
    ));
    for seed in [1, 42, 0xdead_beef] {
        for spec in TraceSpec::all() {
            let small = spec.clone().scaled_down(8);
            out.push((
                format!("{}/8@{seed}", spec.name),
                paper_digest(&small, spec.default_lifetime, seed),
            ));
        }
        for fam in WorkloadFamily::ALL {
            let cfg = FamilyConfig::city(fam).scaled_down(64);
            out.push((
                format!("{}/64@{seed}", fam.name()),
                family_digest(&cfg, seed),
            ));
        }
    }
    out
}

/// The digests, in [`cases`] order.
const PINNED: &[(&str, u64)] = &[
    ("EPA@1997", 0xa86daeed3c9306fa),
    ("SDSC@1997", 0x21eb9a19a83ed1c3),
    ("SDSC-2.5d@1997", 0xb0f59eb7e8565106),
    ("ClarkNet@1997", 0x0af1bf1c546f8bd0),
    ("NASA@1997", 0x5f048a611ab2569d),
    ("SASK@1997", 0xe4c88d48ef340cbd),
    ("real-time-feed/4@1997", 0xd09e6ec5b7e1ef17),
    ("EPA/8@1", 0xafca3f7580835c40),
    ("SDSC/8@1", 0x5dde2c0647036598),
    ("ClarkNet/8@1", 0x9c3c980a636a2424),
    ("NASA/8@1", 0xe0595af8a671d4e3),
    ("SASK/8@1", 0x1b721a887f480ade),
    ("zipf-federation/64@1", 0x5d8ab0be885234d5),
    ("flash-crowd/64@1", 0x4519b36272583a7b),
    ("breaking-news/64@1", 0x9b911ab188a35efa),
    ("real-time-feed/64@1", 0xaabf55c4f8b4afa3),
    ("archival-scan/64@1", 0xebf37b7fba2f1291),
    ("EPA/8@42", 0x73850684abdfaa62),
    ("SDSC/8@42", 0x85a2162f795f0a55),
    ("ClarkNet/8@42", 0x43cb7209592d033c),
    ("NASA/8@42", 0xb66d07ac36209e70),
    ("SASK/8@42", 0x33df6e21cdd5ad72),
    ("zipf-federation/64@42", 0x8e9f57af3e1e8e9b),
    ("flash-crowd/64@42", 0xdcc2c1999d960fa8),
    ("breaking-news/64@42", 0xf4773a94b6d64f7c),
    ("real-time-feed/64@42", 0xb55069853ba26de7),
    ("archival-scan/64@42", 0x6dbecc30c7c2f358),
    ("EPA/8@3735928559", 0xd251a5ae4847f6f6),
    ("SDSC/8@3735928559", 0x0cd54b288bc48bb4),
    ("ClarkNet/8@3735928559", 0x93cd8c813918c3f6),
    ("NASA/8@3735928559", 0xb214b136a570356b),
    ("SASK/8@3735928559", 0xa4ab5fd413c495e9),
    ("zipf-federation/64@3735928559", 0x78e7ad566ca6c431),
    ("flash-crowd/64@3735928559", 0xe98337a3ff86660e),
    ("breaking-news/64@3735928559", 0xcee9b8cb596575de),
    ("real-time-feed/64@3735928559", 0x45374cdde40c616d),
    ("archival-scan/64@3735928559", 0x007ebbfcd69a38c4),
];

#[test]
fn the_generators_output_is_pinned() {
    let got = cases();
    let listing: String = got
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n"))
        .collect();
    let names: Vec<&str> = got.iter().map(|(n, _)| n.as_str()).collect();
    let pinned_names: Vec<&str> = PINNED.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, pinned_names, "the cases changed; now:\n{listing}");
    let moved: Vec<&str> = got
        .iter()
        .zip(PINNED)
        .filter(|((_, d), (_, p))| d != p)
        .map(|((n, _), _)| n.as_str())
        .collect();
    assert!(
        moved.is_empty(),
        "generator output moved for {moved:?}; digests now:\n{listing}"
    );
}
