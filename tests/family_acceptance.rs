//! The federation-scale acceptance gate for the scenario-family layer: a
//! 64-origin, 120 000-client flash-crowd workload must
//!
//! * pass all seven fuzz-oracle checks (audit, liveness, polling purity,
//!   promise freshness, determinism of report and audit log,
//!   weak-consistency dominance, histogram sanity),
//! * and keep peak simulation-state bytes at least 30% below what the legacy
//!   layout (merged record stream + AoS site-list entries) held on the same
//!   replay, per the deterministic memory model — an absolute ceiling, since
//!   the legacy layout's accounting is no longer carried by the hot structs.
//!
//! The request count is reduced from the city preset's 160 000 so the
//! debug-mode oracle run stays in test-suite budget; the client pool and
//! origin fan-out — the axes this gate is about — stay at full city scale.

use webcache::core::{ProtocolConfig, ProtocolKind};
use webcache::fuzz::{check, CheckOptions, Scenario};
use webcache::httpsim::{Deployment, DeploymentOptions};
use webcache::traces::family::{self, FamilyConfig, WorkloadFamily};

/// The acceptance configuration: the city flash-crowd federation with a
/// debug-budget request count.
fn acceptance_config() -> FamilyConfig {
    let mut cfg = FamilyConfig::city(WorkloadFamily::FlashCrowd);
    cfg.spec.total_requests = 16_000;
    cfg
}

#[test]
fn city_flash_crowd_passes_the_full_oracle() {
    let cfg = acceptance_config();
    let scenario = Scenario {
        seed: 17_973,
        spec: cfg.spec.clone(),
        mean_lifetime: cfg.mean_lifetime,
        protocol: ProtocolConfig::new(ProtocolKind::Invalidation),
        options: DeploymentOptions::default(),
        interest: None,
        faults: Vec::new(),
        family: Some(WorkloadFamily::FlashCrowd),
    };
    assert_eq!(scenario.spec.num_origins, 64);
    assert!(scenario.spec.num_clients >= 100_000);

    let stats = check(&scenario, &CheckOptions::default())
        .unwrap_or_else(|failure| panic!("acceptance scenario failed the oracle: {failure}"));
    assert!(stats.requests > 0);
}

/// Ceiling on the acceptance replay's peak state bytes: 70% of what the
/// legacy layout held on this exact workload, measured with the
/// counterfactual accounting before it was deleted — 3 × 16 000 records ×
/// 24 B (the merged stream on top of the traces and partitions) = 1 152 000 B
/// plus 468 264 B of map-per-document site lists = 1 620 264 B; × 0.7,
/// rounded down. (Today's layout peaks at 1 063 236 B, a 34.4% cut.)
const PEAK_STATE_CEILING_BYTES: u64 = 1_134_184;

#[test]
fn city_flash_crowd_peak_state_bytes_stay_thirty_percent_under_the_legacy_layout() {
    let cfg = acceptance_config();
    let workload = family::generate(&cfg, 17_973);
    assert_eq!(workload.workloads.len(), 64);

    let protocol = ProtocolConfig::new(ProtocolKind::Invalidation);
    let mut deployment =
        Deployment::build_multi(&workload.workloads, &protocol, DeploymentOptions::default());
    deployment.run();
    let report = deployment.collect();
    assert_eq!(report.requests, workload.total_requests());

    let peak = deployment.memory_model().peak_bytes();
    assert!(peak > 0);
    assert!(
        peak <= PEAK_STATE_CEILING_BYTES,
        "peak state bytes {peak} exceed the {PEAK_STATE_CEILING_BYTES} B ceiling \
         (70% of the legacy layout's 1 620 264 B)"
    );
}
