//! The paper's §4 failure scenarios, as machine-checkable experiments.
//!
//! "There are three failure scenarios. The first is when a proxy is down and
//! misses an invalidation message. … The second scenario is when the server
//! site fails. … The third scenario is when network partitions occur."
//!
//! Each scenario runs the invalidation protocol over a scaled workload with
//! a [`FaultPlan`] injected, and returns a [`FailureOutcome`] whose
//! invariants the integration tests assert.

use crate::experiment::{materialise, run_faulted_on, ExperimentConfig, ReplayReport};
use wcc_core::ProtocolConfig;
use wcc_httpsim::{Deployment, DeploymentOptions};
use wcc_simnet::FaultPlan;
use wcc_traces::{ModSchedule, Trace};
use wcc_types::{SimDuration, SimTime};

/// What a failure-injection replay observed.
#[derive(Debug, Clone)]
pub struct FailureOutcome {
    /// The faulted replay's full report.
    pub report: ReplayReport,
    /// Wall length of the fault-free reference run (used to place faults).
    pub reference_wall: SimDuration,
    /// The injected outage window (wall clock).
    pub outage: (SimTime, SimTime),
}

/// The wall duration of a fault-free replay of `workloads` (one
/// `(trace, schedule)` pair per origin): faults are placed at fractions of
/// it. The auditor stays off; only the timing is wanted.
pub fn reference_wall(
    workloads: &[(Trace, ModSchedule)],
    protocol: &ProtocolConfig,
    options: &DeploymentOptions,
) -> SimDuration {
    let options = DeploymentOptions {
        audit: false,
        ..options.clone()
    };
    let mut d = Deployment::build_multi(workloads, protocol, options);
    d.run();
    d.collect().wall_duration
}

fn faulted_run(
    cfg: &ExperimentConfig,
    plan_for: impl FnOnce(&Deployment, SimTime, SimTime) -> FaultPlan,
    from_frac: f64,
    to_frac: f64,
) -> FailureOutcome {
    let workload = [materialise(cfg)];
    let wall = reference_wall(&workload, &cfg.protocol, &cfg.options);
    let at = |frac: f64| SimTime::ZERO + wall.mul_f64(frac);
    let (from, to) = (at(from_frac), at(to_frac));
    let [(trace, mods)] = &workload;
    FailureOutcome {
        report: run_faulted_on(cfg, trace, mods, |d| plan_for(d, from, to)),
        reference_wall: wall,
        outage: (from, to),
    }
}

/// Scenario 1: proxy 0 crashes mid-run and recovers later. On recovery it
/// marks its whole cache questionable; invalidations it missed are
/// compensated by revalidation, and the server retries unacknowledged
/// invalidations.
pub fn proxy_crash_scenario(cfg: &ExperimentConfig, from: f64, to: f64) -> FailureOutcome {
    faulted_run(
        cfg,
        |d, from, to| FaultPlan::new().outage(d.proxy_ids()[0], from, to),
        from,
        to,
    )
}

/// Scenario 2: the server site fails and recovers. On recovery it sends the
/// bulk `INVALIDATE <server-addr>` to every site on its persistent list.
pub fn server_crash_scenario(cfg: &ExperimentConfig, from: f64, to: f64) -> FailureOutcome {
    faulted_run(
        cfg,
        |d, from, to| FaultPlan::new().outage(d.origin_id(), from, to),
        from,
        to,
    )
}

/// Scenario 3: a network partition between the server and proxy 0.
/// Invalidations are retried over TCP until the partition heals.
pub fn partition_scenario(cfg: &ExperimentConfig, from: f64, to: f64) -> FailureOutcome {
    faulted_run(
        cfg,
        |d, from, to| FaultPlan::new().partition(d.origin_id(), d.proxy_ids()[0], from, to),
        from,
        to,
    )
}

/// Scenario 2+3 combined: the server site fails, and a partition between
/// the server and proxy 0 is still up when the server recovers, so the
/// recovery-time bulk `INVALIDATE <server-addr>` to that proxy is lost in
/// transit. The origin must retry the bulk message until it is acked
/// (found by the scenario fuzzer: fire-and-forget recovery invalidations
/// left proxy 0 holding a live lease on a stale copy).
///
/// The outage spans `[from, mid)` and the partition `[mid - ε, to)`, where
/// `mid` is halfway through the window.
pub fn server_crash_under_partition_scenario(
    cfg: &ExperimentConfig,
    from: f64,
    to: f64,
) -> FailureOutcome {
    faulted_run(
        cfg,
        |d, from, to| {
            let span = to.saturating_since(from);
            let mid = from + span.mul_f64(0.5);
            let overlap = mid - SimDuration::from_secs(60);
            FaultPlan::new().outage(d.origin_id(), from, mid).partition(
                d.origin_id(),
                d.proxy_ids()[0],
                overlap,
                to,
            )
        },
        from,
        to,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentConfig;
    use wcc_core::ProtocolKind;
    use wcc_traces::TraceSpec;
    use wcc_types::SimDuration;

    fn cfg() -> ExperimentConfig {
        // 150× keeps enough traffic in flight that the crash window actually
        // overlaps requests (at 300× the outage can land on a quiet stretch).
        ExperimentConfig::builder(TraceSpec::epa().scaled_down(150))
            .protocol(ProtocolKind::Invalidation)
            .mean_lifetime(SimDuration::from_hours(4)) // brisk churn
            .seed(5)
            .build()
    }

    #[test]
    fn proxy_crash_preserves_consistency() {
        let out = proxy_crash_scenario(&cfg(), 0.3, 0.6);
        let r = &out.report.raw;
        assert!(r.finished, "replay must drain despite the crash");
        assert_eq!(
            r.final_violations, 0,
            "no promised-fresh stale entries after recovery"
        );
        // The crash must actually have been felt.
        assert_eq!(r.proxy_recoveries, 1);
        assert!(
            r.questionable_marked > 0,
            "recovery should have marked cached entries questionable"
        );
    }

    #[test]
    fn server_crash_triggers_bulk_invalidation() {
        let out = server_crash_scenario(&cfg(), 0.3, 0.5);
        let r = &out.report.raw;
        assert!(r.finished);
        assert_eq!(
            r.bulk_invalidations, 4,
            "one INVALIDATE <server> per proxy site"
        );
        assert_eq!(r.final_violations, 0);
        // Requests during the outage timed out and were retransmitted.
        assert!(r.request_timeouts > 0);
    }

    #[test]
    fn partition_is_ridden_out_by_retries() {
        let out = partition_scenario(&cfg(), 0.3, 0.7);
        let r = &out.report.raw;
        assert!(r.finished);
        assert_eq!(r.final_violations, 0);
        assert!(r.writes_complete, "retries must deliver after healing");
    }

    #[test]
    fn faultless_reference_is_clean() {
        let base = cfg();
        let wall = reference_wall(&[materialise(&base)], &base.protocol, &base.options);
        assert!(wall > SimDuration::ZERO);
    }
}
