//! Ablation: the batched invalidation proposer's message-count vs
//! write-completion trade-off.
//!
//! The paper's worst-case latency comes from per-write invalidation
//! fan-out; the proposer batches pending invalidations per origin and
//! coalesces repeated writes to the same URL into one round. This binary
//! sweeps the count threshold under the two write-storm families
//! (flash-crowd and breaking-news federations) and prints, per setting,
//! the wire INVALIDATE traffic against the per-write counterfactual and
//! the write-completion tail the batching delay costs. The last section
//! repeats the lease-invalidation run with adaptive per-URL lease
//! durations (the Ling & Mi read/write cost objective) against the fixed
//! default.
//!
//! The acceptance configuration is `--scale 20`: the default threshold
//! must cut wire INVALIDATEs by ≥30% on the flash-crowd storm with a
//! write-completion p99 no worse than per-write fan-out.

// Building options by mutating a default is the intended style here.
#![allow(clippy::field_reassign_with_default)]

use wcc_bench::{parse_scale, TABLE_SEED};
use wcc_core::{AdaptiveLeaseConfig, ProtocolConfig, ProtocolKind};
use wcc_httpsim::{Deployment, DeploymentOptions, RawReport};
use wcc_traces::family::{self, FamilyConfig, WorkloadFamily};
use wcc_types::InvalBatchConfig;

/// Count thresholds the sweep visits; `None` is per-write fan-out.
const THRESHOLDS: [Option<usize>; 6] = [None, Some(2), Some(4), Some(8), Some(16), Some(32)];

fn replay(
    cfg: &FamilyConfig,
    protocol: &ProtocolConfig,
    batch: Option<InvalBatchConfig>,
) -> RawReport {
    let workload = family::generate(cfg, TABLE_SEED);
    let mut options = DeploymentOptions::default();
    options.inval_batch = batch;
    let mut dep = Deployment::build_multi(&workload.workloads, protocol, options);
    dep.run();
    dep.collect()
}

/// Wire INVALIDATE messages: per-copy sends with every batched entry
/// replaced by its share of one batch message.
fn wire_invalidations(r: &RawReport) -> u64 {
    r.origin_counters.invalidations - r.origin_counters.batched_entries
        + r.origin_counters.inval_batches
}

fn us(d: Option<wcc_types::SimDuration>) -> u64 {
    d.map_or(0, |d| d.as_micros())
}

fn main() {
    let scale = parse_scale(std::env::args());
    println!("=== Ablation: batched invalidation proposer (scale 1/{scale}) ===\n");
    let protocol = ProtocolConfig::new(ProtocolKind::Invalidation);
    for fam in [WorkloadFamily::FlashCrowd, WorkloadFamily::BreakingNews] {
        let cfg = FamilyConfig::city(fam).scaled_down(scale);
        println!("--- {} federation, invalidation protocol ---", fam.name());
        println!(
            "{:<12}{:>12}{:>14}{:>12}{:>10}{:>14}{:>14}{:>8}",
            "threshold",
            "wire msgs",
            "counterfact.",
            "reduction",
            "coalesce",
            "write p50",
            "write p99",
            "stale"
        );
        let mut per_write_wire = 0u64;
        let mut per_write_p99 = 0u64;
        for threshold in THRESHOLDS {
            let batch = threshold.map(InvalBatchConfig::with_max_entries);
            let r = replay(&cfg, &protocol, batch);
            assert!(r.writes_complete, "writes must complete at every setting");
            assert_eq!(
                r.final_violations, 0,
                "end-of-run strong consistency must hold at every setting"
            );
            let wire = wire_invalidations(&r);
            let counterfactual = r
                .proposer
                .map_or(r.invalidations, |p| p.enqueued + r.invalidation_retries);
            let p99 = us(r.write_completion.p99());
            if threshold.is_none() {
                per_write_wire = wire;
                per_write_p99 = p99;
            }
            let reduction = if per_write_wire == 0 {
                0.0
            } else {
                (1.0 - wire as f64 / per_write_wire as f64) * 100.0
            };
            println!(
                "{:<12}{:>12}{:>14}{:>11.1}%{:>10.2}{:>12}us{:>12}us{:>8}",
                threshold.map_or("per-write".into(), |t| t.to_string()),
                wire,
                counterfactual,
                reduction,
                r.proposer.map_or(1.0, |p| p.coalesce_ratio()),
                us(r.write_completion.median()),
                p99,
                r.stale_hits
            );
            if threshold == Some(InvalBatchConfig::default().max_entries) && per_write_p99 > 0 {
                assert!(
                    p99 <= per_write_p99,
                    "default threshold worsened write p99: {p99}us > {per_write_p99}us"
                );
            }
        }
        println!();
    }

    // Lease economics: the same storms under lease-invalidation, fixed
    // default duration vs per-URL adaptive durations.
    println!("--- lease-invalidation: fixed vs adaptive lease durations ---");
    println!(
        "{:<14}{:<12}{:>12}{:>12}{:>12}{:>10}{:>8}",
        "family", "lease", "messages", "invals", "hit ratio", "lat p99", "stale"
    );
    for fam in [WorkloadFamily::FlashCrowd, WorkloadFamily::BreakingNews] {
        let cfg = FamilyConfig::city(fam).scaled_down(scale);
        let fixed = ProtocolConfig::new(ProtocolKind::LeaseInvalidation);
        let adaptive = fixed
            .clone()
            .with_adaptive_lease(AdaptiveLeaseConfig::default());
        for (label, protocol) in [("fixed", &fixed), ("adaptive", &adaptive)] {
            let r = replay(&cfg, protocol, Some(InvalBatchConfig::default()));
            println!(
                "{:<14}{:<12}{:>12}{:>12}{:>11.1}%{:>8}us{:>8}",
                fam.name(),
                label,
                r.total_messages,
                wire_invalidations(&r),
                r.hits as f64 / r.requests.max(1) as f64 * 100.0,
                us(r.latency.p99()),
                r.stale_hits
            );
            assert!(r.writes_complete, "writes must complete at every setting");
            assert_eq!(
                r.final_violations, 0,
                "end-of-run strong consistency must hold at every setting"
            );
        }
    }
    println!(
        "\nExpected shape: wire INVALIDATEs fall as the threshold grows while\n\
         the age bound keeps the write-completion tail flat; adaptive leases\n\
         shorten write-hot documents' leases (fewer invalidations) and extend\n\
         read-hot ones' (fewer renewals)."
    );
}
