//! The check function: replay one [`Scenario`] and judge it with the
//! consistency auditor plus cross-cutting invariants.
//!
//! The oracle, per scenario:
//!
//! 1. **Auditor verdict** — the replay (with `DeploymentOptions::audit` on)
//!    must come out clean under `wcc_audit::audit`: delivery-aware
//!    staleness-freedom, write completion, shadow-table conservation and
//!    lease safety.
//! 2. **Liveness** — the coordinator must drain the full trace, even with
//!    crashes, recoveries and partitions injected (bounded by a generous
//!    simulated deadline so a livelock fails fast instead of hanging).
//! 3. **Polling purity** — a policy that trusts no copy (polling every
//!    time) must report zero trace-time stale hits (it never serves
//!    straight from cache).
//! 4. **Promise freshness** — invalidation-family protocols must end with
//!    zero `final_violations`, *provided* the model actually upholds the
//!    promise: change detection must be `Notify` (browser-based detection
//!    defers the origin's knowledge of a write until the next request for
//!    that document, so end-of-run caches may legitimately hold
//!    promised-fresh copies of documents the origin never learned were
//!    touched) and no fan-out was abandoned (`gave_up == 0`; plain
//!    invalidation's bounded retries deliberately trade consistency for
//!    liveness when a partition outlives the retry budget). The plain
//!    invalidation protocol with `Notify` detection and no faults must
//!    additionally complete every write.
//! 5. **Determinism** — replaying the identical scenario twice must produce
//!    a byte-identical `Debug`-formatted [`ReplayReport`] *and* audit-event
//!    log.
//! 6. **Weak dominance** — for invalidation-family scenarios the same
//!    materialised workload is also replayed under adaptive TTL; the
//!    invalidation run must never show more *delivery-aware* stale serves
//!    (auditor staleness violations) than adaptive TTL's stale hits. The
//!    comparison is delivery-aware on the invalidation side because
//!    trace-time `stale_hits` legitimately counts transient serves that
//!    race an in-flight write (see PR 1's auditor notes); the paper's
//!    claim is about *completed* writes.
//! 7. **Histogram sanity** — the latency summary feeding the paper tables
//!    must be internally consistent: quantiles monotone
//!    (min ≤ p50 ≤ p90 ≤ p99 ≤ p99.9 ≤ max) and at least one latency
//!    sample recorded per user request (a request can record several —
//!    retried upstream fetches each observe — but never zero).
//!
//! With [`CheckOptions::inject_stale_serve`] set, a forged from-cache serve
//! of a stone-age version is appended after a real invalidation delivery
//! (the `tests/audit.rs` fault) — the auditor must flag it, which the
//! fuzzer then reports as a found (planted) violation. If the auditor
//! *misses* the plant, that is itself a failure ([`FailureKind::OracleMiss`]):
//! the fuzzer guards the oracle too.

use crate::scenario::{FaultSpec, Scenario};
use std::fmt;
use wcc_audit::Check;
use wcc_core::{Delivery, ProtocolConfig, ProtocolKind, Trust};
use wcc_httpsim::{ChangeDetection, Deployment};
use wcc_replay::{reference_wall, ReplayReport};
use wcc_simnet::FaultPlan;
use wcc_traces::{synthetic, FamilyConfig, ModSchedule, Trace};
use wcc_types::{AuditEvent, SimDuration, SimTime};

/// Which cross-cutting invariant a [`FuzzFailure`] breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The consistency auditor found a violation of the given check.
    Audit(Check),
    /// A stale serve was planted but the auditor failed to flag it.
    OracleMiss,
    /// The replay did not drain the trace (or exceeded the deadline).
    Liveness,
    /// Two replays of the identical scenario diverged (report or audit
    /// log).
    Determinism,
    /// Polling-every-time reported trace-time stale hits.
    PollStale,
    /// An invalidation-family replay ended with promised-fresh stale
    /// entries.
    FinalViolations,
    /// Plain invalidation with immediate detection and no faults failed to
    /// complete every write.
    WriteIncomplete,
    /// Invalidation showed more delivery-aware stale serves than adaptive
    /// TTL's stale hits on the identical workload.
    WeakDominance,
    /// The latency histogram broke an internal invariant (non-monotone
    /// quantiles, or fewer samples than user requests).
    HistogramInvariant,
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureKind::Audit(check) => write!(f, "audit/{check}"),
            FailureKind::OracleMiss => f.write_str("oracle-miss"),
            FailureKind::Liveness => f.write_str("liveness"),
            FailureKind::Determinism => f.write_str("determinism"),
            FailureKind::PollStale => f.write_str("poll-stale"),
            FailureKind::FinalViolations => f.write_str("final-violations"),
            FailureKind::WriteIncomplete => f.write_str("write-incomplete"),
            FailureKind::WeakDominance => f.write_str("weak-dominance"),
            FailureKind::HistogramInvariant => f.write_str("histogram-invariant"),
        }
    }
}

/// One oracle violation, with enough detail to diagnose it.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// The broken invariant.
    pub kind: FailureKind,
    /// Human-readable description (auditor trail, counters, diff hints).
    pub detail: String,
}

impl fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.kind, self.detail)
    }
}

/// Knobs for the check function.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckOptions {
    /// Plant a forged stale serve in the audit log (the `tests/audit.rs`
    /// fault) and require the auditor to find it.
    pub inject_stale_serve: bool,
}

/// What a clean scenario run looked like (aggregated into fuzz summaries).
#[derive(Debug, Clone, Copy)]
pub struct CheckStats {
    /// The protocol replayed.
    pub protocol: ProtocolKind,
    /// User requests replayed.
    pub requests: u64,
    /// Audit events recorded.
    pub events: usize,
    /// From-cache serves the auditor checked.
    pub checked_serves: u64,
    /// Fault-plan entries resolved onto the simulation.
    pub fault_entries: usize,
    /// Trace-time stale hits of the replay.
    pub stale_hits: u64,
}

/// Materialises the scenario's workload: one `(trace, schedule)` pair per
/// origin. Classic scenarios yield a single pair (with the optional
/// post-write read steering applied); family scenarios delegate to the
/// multi-origin generators in `wcc_traces::family`.
pub fn materialise(s: &Scenario) -> Vec<(Trace, ModSchedule)> {
    if let Some(family) = s.family {
        let cfg = FamilyConfig {
            family,
            spec: s.spec.clone(),
            mean_lifetime: s.mean_lifetime,
        };
        return wcc_traces::family::generate(&cfg, s.seed).workloads;
    }
    let trace = synthetic::generate(&s.spec, s.seed);
    let mods = ModSchedule::generate(s.spec.num_docs, s.mean_lifetime, s.spec.duration, s.seed);
    let trace = match s.interest {
        Some(i) => synthetic::with_modification_interest(&trace, &mods, i.boost, i.window, s.seed),
        None => trace,
    };
    vec![(trace, mods)]
}

/// Resolves the scenario's fraction-based fault specs into absolute
/// simulation times over `wall` (the fault-free reference duration).
fn resolve_faults(s: &Scenario, d: &Deployment, wall: SimDuration) -> FaultPlan {
    let at = |frac: f64| SimTime::ZERO + wall.mul_f64(frac);
    let proxy_of = |ix: u32| {
        let ids = d.proxy_ids();
        ids[ix as usize % ids.len()]
    };
    let mut plan = FaultPlan::new();
    for f in &s.faults {
        plan = match *f {
            FaultSpec::ProxyOutage { proxy, from, to } => {
                plan.outage(proxy_of(proxy), at(from), at(to))
            }
            FaultSpec::OriginOutage { from, to } => plan.outage(d.origin_id(), at(from), at(to)),
            FaultSpec::Partition { proxy, from, to } => {
                plan.partition(d.origin_id(), proxy_of(proxy), at(from), at(to))
            }
        };
    }
    plan
}

/// One audited replay of the scenario's workload under `protocol`.
struct RunOutput {
    report: ReplayReport,
    log: Vec<AuditEvent>,
    fault_entries: usize,
}

fn run_once(
    s: &Scenario,
    workloads: &[(Trace, ModSchedule)],
    protocol: &ProtocolConfig,
    wall: SimDuration,
    deadline: SimTime,
) -> RunOutput {
    let mut options = s.options.clone();
    options.audit = true;
    let mut d = Deployment::build_multi(workloads, protocol, options);
    let plan = resolve_faults(s, &d, wall);
    let fault_entries = plan.len();
    d.apply_faults(&plan);
    d.run_until(deadline);
    let mods = workloads.iter().map(|(_, m)| m);
    let name = &workloads[0].0.name;
    RunOutput {
        report: ReplayReport::collect(&d, name, protocol.kind, s.mean_lifetime, s.seed, mods, true),
        log: d.audit_log(),
        fault_entries,
    }
}

/// Plants the `tests/audit.rs` fault: a forged from-cache serve of the
/// stone-age version, after a real invalidation delivery. Returns `false`
/// (leaving the log untouched) when the run delivered no invalidations.
fn inject_stale_serve(log: &mut Vec<AuditEvent>) -> bool {
    let Some((url, client)) = log.iter().find_map(|ev| match ev {
        AuditEvent::InvalidateDelivered { url, client, .. } => Some((*url, *client)),
        _ => None,
    }) else {
        return false;
    };
    let end = log.last().map_or(SimTime::ZERO, AuditEvent::at);
    log.push(AuditEvent::Serve {
        url,
        client,
        version: SimTime::ZERO,
        from_cache: true,
        at: end + SimDuration::from_secs(1),
    });
    true
}

/// Locates the first differing byte between two replays of one scenario
/// (report first, then audit log); `None` when they are byte-identical.
fn divergence(first: &RunOutput, second: &RunOutput) -> Option<String> {
    let pairs = [
        (
            "reports",
            format!("{:?}", first.report),
            format!("{:?}", second.report),
        ),
        (
            "audit logs",
            format!("{:?}", first.log),
            format!("{:?}", second.log),
        ),
    ];
    for (what, a, b) in &pairs {
        if a != b {
            let at = a
                .bytes()
                .zip(b.bytes())
                .position(|(x, y)| x != y)
                .unwrap_or_else(|| a.len().min(b.len()));
            let lo = at.saturating_sub(60);
            return Some(format!(
                "{what} diverge at byte {at}: ...{} vs ...{}",
                &a[lo..(at + 60).min(a.len())],
                &b[lo..(at + 60).min(b.len())],
            ));
        }
    }
    None
}

/// Replays `scenario` end-to-end and applies the oracle. `Ok` carries
/// summary statistics for a clean run; `Err` is a reproducible violation.
pub fn check(scenario: &Scenario, opts: &CheckOptions) -> Result<CheckStats, FuzzFailure> {
    let workloads = materialise(scenario);

    // Fault placement and the liveness deadline both need the fault-free
    // wall duration. Faulted runs may legitimately run long (retry loops
    // across outages), so the deadline is a generous multiple.
    let wall = reference_wall(&workloads, &scenario.protocol, &scenario.options);
    let deadline = SimTime::ZERO + wall.saturating_mul(64) + SimDuration::from_hours(1);

    let first = run_once(scenario, &workloads, &scenario.protocol, wall, deadline);
    let raw = &first.report.raw;

    // 2. Liveness: the coordinator must have drained the whole trace.
    if !raw.finished {
        return Err(FuzzFailure {
            kind: FailureKind::Liveness,
            detail: format!(
                "replay did not drain: {} steps run, wall {} (reference {wall}, deadline {})",
                raw.steps_run,
                raw.wall_duration,
                deadline.saturating_since(SimTime::ZERO),
            ),
        });
    }

    // 1. Auditor verdict on the real (untampered) run.
    let audit = first.report.audit.as_ref().expect("audit was enabled");
    if let Some(v) = audit.violations.first() {
        return Err(FuzzFailure {
            kind: FailureKind::Audit(v.check),
            detail: format!("{audit}"),
        });
    }

    // 3. Polling purity.
    let policy = scenario.protocol.policy();
    if policy.trust == Trust::Never && raw.stale_hits != 0 {
        return Err(FuzzFailure {
            kind: FailureKind::PollStale,
            detail: format!(
                "{} trusts no copy, yet reported {} trace-time stale hits",
                scenario.protocol.kind, raw.stale_hits
            ),
        });
    }

    // 7. Histogram sanity: the latency summary that feeds the paper tables
    // must be internally consistent before any of its numbers are trusted.
    if raw.latency.count() < raw.requests {
        return Err(FuzzFailure {
            kind: FailureKind::HistogramInvariant,
            detail: format!(
                "latency summary holds {} samples for {} user requests",
                raw.latency.count(),
                raw.requests
            ),
        });
    }
    let quantiles = [
        ("min", raw.latency.min()),
        ("p50", raw.latency.median()),
        ("p90", raw.latency.p90()),
        ("p99", raw.latency.p99()),
        ("p99.9", raw.latency.p999()),
        ("max", raw.latency.max()),
    ];
    for pair in quantiles.windows(2) {
        let [(lo_name, lo), (hi_name, hi)] = pair else {
            unreachable!()
        };
        if lo > hi {
            return Err(FuzzFailure {
                kind: FailureKind::HistogramInvariant,
                detail: format!(
                    "latency quantiles are not monotone: {lo_name} {lo:?} > {hi_name} {hi:?} \
                     over {} samples",
                    raw.latency.count()
                ),
            });
        }
    }

    // 4. Promise freshness for the invalidation family. Only meaningful
    // where the model upholds the promise: immediate (`Notify`) change
    // detection, and no abandoned fan-outs (see the module docs).
    let pushes = policy.delivery == Delivery::Push;
    if pushes && scenario.options.detection == ChangeDetection::Notify {
        if raw.final_violations != 0 && raw.gave_up == 0 {
            return Err(FuzzFailure {
                kind: FailureKind::FinalViolations,
                detail: format!(
                    "{} promised-fresh cache entries hold outdated versions at end of run \
                     with no abandoned fan-outs to excuse them",
                    raw.final_violations
                ),
            });
        }
        if scenario.protocol.kind == ProtocolKind::Invalidation
            && scenario.faults.is_empty()
            && !raw.writes_complete
        {
            return Err(FuzzFailure {
                kind: FailureKind::WriteIncomplete,
                detail: format!(
                    "fault-free invalidation left writes incomplete ({} gave up, \
                     {} retries)",
                    raw.gave_up, raw.invalidation_retries
                ),
            });
        }
    }

    // 5. Determinism: the identical scenario must replay byte-identically,
    // report and audit log.
    let second = run_once(scenario, &workloads, &scenario.protocol, wall, deadline);
    if let Some(detail) = divergence(&first, &second) {
        return Err(FuzzFailure {
            kind: FailureKind::Determinism,
            detail,
        });
    }

    // 6. Weak dominance: invalidation must not be *more* stale than
    // adaptive TTL on the identical workload and fault schedule.
    if pushes && !opts.inject_stale_serve {
        let ttl_cfg = ProtocolConfig::new(ProtocolKind::AdaptiveTtl);
        let ttl = run_once(scenario, &workloads, &ttl_cfg, wall, deadline);
        let ttl_audit = ttl.report.audit.as_ref().expect("audit was enabled");
        if let Some(v) = ttl_audit.violations.first() {
            return Err(FuzzFailure {
                kind: FailureKind::Audit(v.check),
                detail: format!("adaptive-TTL companion run: {ttl_audit}"),
            });
        }
        // Both runs replay the identical materialised trace, so they must
        // agree on how many user requests exist.
        if ttl.report.raw.requests != raw.requests {
            return Err(FuzzFailure {
                kind: FailureKind::WeakDominance,
                detail: format!(
                    "companion run disagrees on the workload: {} requests under {} \
                     vs {} under adaptive TTL",
                    raw.requests, scenario.protocol.kind, ttl.report.raw.requests
                ),
            });
        }
        let delivery_aware_stale = audit
            .violations
            .iter()
            .filter(|v| v.check == Check::Staleness)
            .count() as u64;
        if delivery_aware_stale > ttl.report.raw.stale_hits {
            return Err(FuzzFailure {
                kind: FailureKind::WeakDominance,
                detail: format!(
                    "{} delivery-aware stale serves under {} vs {} adaptive-TTL stale \
                     hits on the identical workload",
                    delivery_aware_stale, scenario.protocol.kind, ttl.report.raw.stale_hits
                ),
            });
        }
    }

    // Injection mode: plant the tests/audit.rs fault and demand detection.
    // (A scenario whose run delivered no invalidation has nothing to forge
    // against; it passes through and the fuzzer tries the next seed.)
    if opts.inject_stale_serve {
        let mut log = first.log.clone();
        if inject_stale_serve(&mut log) {
            let tampered = wcc_audit::audit(policy, &log, None);
            match tampered
                .violations
                .iter()
                .find(|v| v.check == Check::Staleness)
            {
                Some(v) => {
                    return Err(FuzzFailure {
                        kind: FailureKind::Audit(Check::Staleness),
                        detail: format!("planted stale serve detected: {v}"),
                    });
                }
                None => {
                    return Err(FuzzFailure {
                        kind: FailureKind::OracleMiss,
                        detail: format!(
                            "stale serve was planted but the auditor saw only: {tampered}"
                        ),
                    });
                }
            }
        }
    }

    Ok(CheckStats {
        protocol: scenario.protocol.kind,
        requests: raw.requests,
        events: first.log.len(),
        checked_serves: audit.checked_serves,
        fault_entries: first.fault_entries,
        stale_hits: raw.stale_hits,
    })
}
