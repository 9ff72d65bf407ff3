//! Multi-server deployments: several origins, one shared proxy fleet.
//! Exercises the `ServerId` scoping the protocols are written against.

use wcc_core::{ProtocolConfig, ProtocolKind};
use wcc_httpsim::{Deployment, DeploymentOptions};
use wcc_simnet::FaultPlan;
use wcc_traces::{synthetic, ModSchedule, Trace, TraceSpec};
use wcc_types::{ServerId, SimDuration, SimTime};

fn workloads() -> Vec<(Trace, ModSchedule)> {
    let spec_a = TraceSpec::epa().scaled_down(150);
    let spec_b = TraceSpec::sdsc().scaled_down(150);
    let trace_a = synthetic::generate(&spec_a, 131).reassign_server(ServerId::new(0));
    let trace_b = synthetic::generate(&spec_b, 132).reassign_server(ServerId::new(1));
    let mods_a = ModSchedule::generate(
        spec_a.num_docs,
        SimDuration::from_hours(8),
        spec_a.duration,
        131,
    );
    let mods_b = ModSchedule::generate(
        spec_b.num_docs,
        SimDuration::from_hours(8),
        spec_b.duration,
        132,
    );
    vec![(trace_a, mods_a), (trace_b, mods_b)]
}

fn build(kind: ProtocolKind) -> Deployment {
    Deployment::build_multi(
        &workloads(),
        &ProtocolConfig::new(kind),
        DeploymentOptions::default(),
    )
}

#[test]
fn two_origins_serve_their_own_documents() {
    let loads = workloads();
    let total_requests: u64 = loads.iter().map(|(t, _)| t.records.len() as u64).sum();
    let mut d = build(ProtocolKind::Invalidation);
    d.run();
    let r = d.collect();
    assert!(r.finished);
    assert_eq!(r.requests, total_requests);
    assert_eq!(r.gets + r.ims, r.replies_200 + r.replies_304);
    assert_eq!(r.final_violations, 0);
    assert!(r.writes_complete);
    // Each origin handled only its own trace's traffic.
    for (i, (trace, _)) in loads.iter().enumerate() {
        let origin = d.origin_at(i);
        let c = origin.core().snapshot();
        assert!(c.gets + c.ims <= trace.records.len() as u64 + 64);
        assert!(c.gets + c.ims > 0, "origin {i} idle");
        assert_eq!(origin.core().server(), ServerId::new(i as u32));
    }
}

#[test]
fn trio_ordering_survives_multiple_servers() {
    let mut totals = Vec::new();
    for kind in ProtocolKind::PAPER_TRIO {
        let mut d = build(kind);
        d.run();
        let r = d.collect();
        assert!(r.finished, "{kind}");
        totals.push((kind, r.total_messages));
    }
    let poll = totals
        .iter()
        .find(|(k, _)| *k == ProtocolKind::PollEveryTime)
        .expect("poll")
        .1;
    let inval = totals
        .iter()
        .find(|(k, _)| *k == ProtocolKind::Invalidation)
        .expect("inval")
        .1;
    assert!(poll > inval, "poll {poll} vs inval {inval}");
}

#[test]
fn server_crash_is_scoped_to_that_server() {
    // Crash origin 1 mid-run; its recovery bulk-invalidates only *its*
    // documents. Server 0's promised-fresh copies must survive untouched.
    let mut d = build(ProtocolKind::Invalidation);
    // Rough placement: a dry run is overkill here; crash well inside the
    // replay using a generous wall estimate.
    let probe = {
        let mut probe = build(ProtocolKind::Invalidation);
        probe.run();
        probe.collect().wall_duration
    };
    let from = SimTime::ZERO + probe.mul_f64(0.3);
    let to = SimTime::ZERO + probe.mul_f64(0.5);
    d.apply_faults(&FaultPlan::new().outage(d.origin_ids()[1], from, to));
    d.run();
    let r = d.collect();
    assert!(r.finished);
    assert_eq!(r.final_violations, 0);
    assert_eq!(
        r.bulk_invalidations, 4,
        "one bulk INVALIDATE per proxy, from the crashed origin only"
    );
    // Some server-0 entries are still promised fresh (not marked
    // questionable by server 1's recovery).
    let mut live_server0 = 0;
    let mut questionable_server1 = 0;
    for i in 0..4 {
        for (key, entry) in d.proxy(i).core().cache().iter() {
            match key.url().server().index() {
                0 if !entry.freshness.questionable => live_server0 += 1,
                1 if entry.freshness.questionable => questionable_server1 += 1,
                _ => {}
            }
        }
    }
    assert!(live_server0 > 0, "server-0 promises must survive");
    assert!(
        questionable_server1 > 0,
        "server-1 recovery must have marked its entries"
    );
}

#[test]
fn multi_server_replays_are_deterministic() {
    let run = || {
        let mut d = build(ProtocolKind::LeaseInvalidation);
        d.run();
        d.collect()
    };
    let a = run();
    let b = run();
    assert_eq!(a.total_messages, b.total_messages);
    assert_eq!(a.total_bytes, b.total_bytes);
    assert_eq!(a.latency.max(), b.latency.max());
}
