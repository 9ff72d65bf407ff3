//! Adaptive TTL's weak-consistency behaviour under forced churn, and the
//! §3 relationship between staleness and bandwidth savings.

use wcc_core::{AdaptiveTtlConfig, ProtocolConfig, ProtocolKind};
use wcc_replay::{experiment::materialise, experiment::run_on, ExperimentConfig};
use wcc_traces::{synthetic, TraceSpec};
use wcc_types::SimDuration;

fn churny_base() -> ExperimentConfig {
    ExperimentConfig::builder(TraceSpec::sask().scaled_down(80))
        .mean_lifetime(SimDuration::from_hours(8))
        .seed(29)
        .build()
}

#[test]
fn ttl_serves_stale_under_churn() {
    let mut cfg = churny_base();
    cfg.protocol = ProtocolConfig::new(ProtocolKind::AdaptiveTtl);
    let (trace, mods) = materialise(&cfg);
    // Steer half the re-reads into the two hours after a modification so the
    // churn actually lands on cached copies (the raw synthetic trace rarely
    // re-reads a document soon enough after its write to observe staleness).
    let trace =
        synthetic::with_modification_interest(&trace, &mods, 0.5, SimDuration::from_hours(2), 5);
    let report = run_on(&cfg, &trace, &mods);
    assert!(
        report.raw.stale_hits > 0,
        "high churn + 10% TTLs must produce stale hits"
    );
}

#[test]
fn larger_ttl_threshold_trades_staleness_for_traffic() {
    // Sweep the Alex threshold: more trust → fewer validations (messages),
    // more stale hits. The trend must be monotone-ish across the sweep.
    let base = churny_base();
    let (trace, mods) = materialise(&base);
    let mut results = Vec::new();
    for threshold in [0.01, 0.1, 0.5, 2.0] {
        let mut cfg = base.clone();
        cfg.protocol = ProtocolConfig::new(ProtocolKind::AdaptiveTtl);
        cfg.protocol.adaptive_ttl = AdaptiveTtlConfig {
            threshold,
            floor: SimDuration::from_secs(30),
            cap: SimDuration::from_days(30),
        };
        let r = run_on(&cfg, &trace, &mods);
        results.push((threshold, r.raw.ims, r.raw.stale_hits));
    }
    for pair in results.windows(2) {
        let (t0, ims0, stale0) = pair[0];
        let (t1, ims1, stale1) = pair[1];
        assert!(
            ims1 <= ims0,
            "threshold {t0}→{t1}: validations should not increase ({ims0}→{ims1})"
        );
        assert!(
            stale1 >= stale0,
            "threshold {t0}→{t1}: staleness should not decrease ({stale0}→{stale1})"
        );
    }
    // The extremes actually separate (the sweep is not degenerate).
    assert!(results.first().expect("nonempty").2 < results.last().expect("nonempty").2);
}

#[test]
fn ttl_bandwidth_saving_equals_skipped_validations() {
    // §3: TTL saves *file transfers* over polling only via stale hits; its
    // transfer count can never exceed polling's.
    let base = churny_base();
    let (trace, mods) = materialise(&base);
    let mut ttl_cfg = base.clone();
    ttl_cfg.protocol = ProtocolConfig::new(ProtocolKind::AdaptiveTtl);
    let mut poll_cfg = base.clone();
    poll_cfg.protocol = ProtocolConfig::new(ProtocolKind::PollEveryTime);
    let ttl = run_on(&ttl_cfg, &trace, &mods);
    let poll = run_on(&poll_cfg, &trace, &mods);
    assert!(ttl.raw.replies_200 <= poll.raw.replies_200);
    assert!(ttl.raw.total_bytes <= poll.raw.total_bytes);
    // And TTL always uses fewer control messages than polling.
    assert!(ttl.raw.ims < poll.raw.ims);
}

#[test]
fn strong_protocols_immune_to_the_same_churn() {
    for kind in [
        ProtocolKind::PollEveryTime,
        ProtocolKind::Invalidation,
        ProtocolKind::LeaseInvalidation,
    ] {
        let mut cfg = churny_base();
        cfg.protocol = ProtocolConfig::new(kind).with_lease(SimDuration::from_days(1));
        cfg.options.audit = true;
        let (trace, mods) = materialise(&cfg);
        let r = run_on(&cfg, &trace, &mods);
        // `stale_hits` compares served versions against *trace time*, so it
        // also counts serves that race an in-flight invalidation — legal
        // under the paper's semantics, where a write completes only once
        // every registered site has acknowledged. The auditor applies the
        // delivery-aware definition: no serve after the invalidation for a
        // newer version reached that client.
        let audit = r.audit.as_ref().expect("audit was enabled");
        assert!(audit.is_clean(), "{kind}: {audit}");
        assert_eq!(r.raw.final_violations, 0, "{kind}");
    }
}
