//! End-to-end checks of the consistency auditor: real replays must come out
//! clean, and a deliberately corrupted event log must not.

use wcc_audit::Check;
use wcc_core::ProtocolKind;
use wcc_httpsim::Deployment;
use wcc_replay::{experiment::materialise, experiment::run_on, ExperimentConfig};
use wcc_traces::TraceSpec;
use wcc_types::{AuditEvent, SimDuration, SimTime};

fn audited_cfg(kind: ProtocolKind) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::builder(TraceSpec::epa().scaled_down(200))
        .protocol(kind)
        .mean_lifetime(SimDuration::from_hours(6))
        .seed(13)
        .build();
    cfg.options.audit = true;
    cfg
}

#[test]
fn unmodified_replays_audit_clean() {
    for kind in [
        ProtocolKind::Invalidation,
        ProtocolKind::PollEveryTime,
        ProtocolKind::LeaseInvalidation,
        ProtocolKind::VolumeLease,
    ] {
        let cfg = audited_cfg(kind);
        let (trace, mods) = materialise(&cfg);
        let report = run_on(&cfg, &trace, &mods);
        let audit = report.audit.expect("audit was enabled");
        assert!(audit.is_clean(), "{kind}: {audit}");
        assert!(audit.checked_serves > 0 || kind == ProtocolKind::PollEveryTime);
    }
}

#[test]
fn injected_stale_serve_is_detected() {
    let cfg = audited_cfg(ProtocolKind::Invalidation);
    let (trace, mods) = materialise(&cfg);
    let mut deployment = Deployment::build(&trace, &mods, &cfg.protocol, cfg.options.clone());
    deployment.run();

    let mut log = deployment.audit_log();
    // Pick a client that provably received an invalidation, then forge a
    // from-cache serve of the stone-age version after that delivery.
    let delivered = log
        .iter()
        .find_map(|ev| match ev {
            AuditEvent::InvalidateDelivered { url, client, .. } => Some((*url, *client)),
            _ => None,
        })
        .expect("an invalidation-protocol replay under churn delivers invalidations");
    let end = log.last().expect("nonempty log").at();
    log.push(AuditEvent::Serve {
        url: delivered.0,
        client: delivered.1,
        version: SimTime::ZERO,
        from_cache: true,
        at: end + SimDuration::from_secs(1),
    });

    let report = wcc_audit::audit(cfg.protocol.policy(), &log, None);
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.check == Check::Staleness),
        "forged stale serve must be flagged: {report}"
    );
    // The trail pins both the delivery and the offending serve.
    let v = report
        .violations
        .iter()
        .find(|v| v.check == Check::Staleness)
        .expect("checked above");
    assert_eq!(v.trail.len(), 2);
}

#[test]
fn tampered_expectations_are_caught() {
    // The same clean run must fail conservation if the server's claimed
    // counters disagree with the event log.
    let cfg = audited_cfg(ProtocolKind::Invalidation);
    let (trace, mods) = materialise(&cfg);
    let mut deployment = Deployment::build(&trace, &mods, &cfg.protocol, cfg.options.clone());
    deployment.run();
    let clean = deployment.audit();
    assert!(clean.is_clean(), "{clean}");

    let log = deployment.audit_log();
    let cooked = wcc_audit::Expectations {
        registrations: u64::MAX, // a counter no honest log can match
        ..Default::default()
    };
    let report = wcc_audit::audit(cfg.protocol.policy(), &log, Some(&cooked));
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.check == Check::Conservation),
        "cooked registration counter must be flagged: {report}"
    );
}
