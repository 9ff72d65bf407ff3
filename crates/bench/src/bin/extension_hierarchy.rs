//! Extension E1: invalidation in a caching hierarchy.
//!
//! §2 of the paper credits Worrell's thesis with showing invalidation works
//! well in *hierarchical* object caches — "which significantly reduces the
//! overhead for invalidation" — but evaluates only the flat topology
//! because hierarchies were "not yet widely present". This experiment adds
//! the missing tier and measures exactly how much the hierarchy saves:
//!
//! * per-client flat (the paper's emulation: the server tracks every real
//!   client site);
//! * shared flat (deployed proxies: the server tracks four proxy sites);
//! * hierarchy (the server tracks one parent; the parent tracks children).

// Building options by mutating a default is the intended style here.
#![allow(clippy::field_reassign_with_default)]

use wcc_bench::{parse_scale, TABLE_SEED};
use wcc_core::{ProtocolConfig, ProtocolKind};
use wcc_httpsim::{CacheSharing, Deployment, DeploymentOptions, RawReport, Topology};
use wcc_traces::{synthetic, ModSchedule, TraceSpec};
use wcc_types::SimDuration;

fn main() {
    let scale = parse_scale(std::env::args());
    println!(
        "=== Extension E1: invalidation across cache topologies (NASA, scale 1/{scale}) ===\n"
    );
    let spec = TraceSpec::nasa().scaled_down(scale);
    let lifetime = SimDuration::from_days(7);
    let trace = synthetic::generate(&spec, TABLE_SEED);
    let mods = ModSchedule::generate(spec.num_docs, lifetime, spec.duration, TABLE_SEED);
    let cfg = ProtocolConfig::new(ProtocolKind::Invalidation);

    let run = |sharing: CacheSharing, topology: Topology| -> RawReport {
        let mut opts = DeploymentOptions::default();
        opts.sharing = sharing;
        opts.topology = topology;
        let mut d = Deployment::build(&trace, &mods, &cfg, opts);
        d.run();
        d.collect()
    };

    let per_client = run(CacheSharing::PerClient, Topology::Flat);
    let shared = run(CacheSharing::SharedPerProxy, Topology::Flat);
    let tree = run(CacheSharing::SharedPerProxy, Topology::Hierarchy);
    let parent = tree.parent.expect("hierarchy run has a parent");

    let origin_load = |r: &RawReport| match &r.parent {
        Some(p) => p.fetch.gets_sent + p.fetch.ims_sent,
        None => r.gets + r.ims,
    };
    println!(
        "{:<34}{:>16}{:>16}{:>16}",
        "", "per-client flat", "shared flat", "hierarchy"
    );
    println!(
        "{:<34}{:>16}{:>16}{:>16}",
        "Requests reaching the origin",
        origin_load(&per_client),
        origin_load(&shared),
        origin_load(&tree)
    );
    println!(
        "{:<34}{:>16}{:>16}{:>16}",
        "Origin INVALIDATEs per run",
        per_client.invalidations,
        shared.invalidations,
        tree.invalidations
    );
    println!(
        "{:<34}{:>16}{:>16}{:>16}",
        "Origin site-list entries (end)",
        per_client.sitelist.total_entries,
        shared.sitelist.total_entries,
        tree.sitelist.total_entries
    );
    println!(
        "{:<34}{:>16}{:>16}{:>16}",
        "Origin max site list",
        per_client.sitelist.max_list_len,
        shared.sitelist.max_list_len,
        tree.sitelist.max_list_len
    );
    println!(
        "{:<34}{:>16}{:>16}{:>16}",
        "Origin site-list storage",
        per_client.sitelist.storage.to_string(),
        shared.sitelist.storage.to_string(),
        tree.sitelist.storage.to_string()
    );
    println!(
        "{:<34}{:>16}{:>16}{:>16}",
        "Origin server CPU",
        format!("{:.1}%", per_client.server_cpu * 100.0),
        format!("{:.1}%", shared.server_cpu * 100.0),
        format!("{:.1}%", tree.server_cpu * 100.0)
    );
    println!(
        "{:<34}{:>16}{:>16}{:>16}",
        "Consistency violations",
        per_client.final_violations,
        shared.final_violations,
        tree.final_violations
    );
    println!(
        "\nHierarchy internals: parent hits {}, relayed {} invalidations to \
         children ({} child-list entries, {} inval races absorbed).",
        parent.counters.parent_hits,
        parent.counters.invalidations_relayed,
        parent.child_sitelist.total_entries,
        parent.fetch.inval_races,
    );
    println!(
        "\nExpected shape: each step left→right shrinks the origin's site\n\
         lists and invalidation fan-out (hierarchy: ≤1 per modification) and\n\
         offloads requests to the shared tiers — Worrell's observation,\n\
         quantified, with strong consistency intact at every step."
    );
}
