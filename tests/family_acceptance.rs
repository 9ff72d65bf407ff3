//! The federation-scale acceptance gate for the scenario-family layer: a
//! 64-origin, 120 000-client flash-crowd workload must pass all seven
//! fuzz-oracle checks (audit, liveness, polling purity, promise freshness,
//! determinism of report and audit log, weak-consistency dominance,
//! histogram sanity). Its live heap is held by the trajectory's Exact
//! `family.peak_live_bytes` row.
//!
//! The request count is reduced from the city preset's 160 000 so the
//! debug-mode oracle run stays in test-suite budget; the client pool and
//! origin fan-out — the axes this gate is about — stay at full city scale.

use webcache::core::{ProtocolConfig, ProtocolKind};
use webcache::fuzz::{check, CheckOptions, Scenario};
use webcache::httpsim::DeploymentOptions;
use webcache::traces::family::{FamilyConfig, WorkloadFamily};

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
