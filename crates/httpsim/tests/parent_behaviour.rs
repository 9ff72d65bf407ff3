//! Node-level behaviour of the hierarchy parent, pinned with handcrafted
//! single-document workloads. (Which children a relay reaches, and what a
//! lost acknowledgement costs, is `tests/origin_conformance.rs`'s parent
//! leg: pinned there on the simulator and over TCP at once.)

// Building options by mutating a default is the intended style here.
#![allow(clippy::field_reassign_with_default)]

use wcc_core::{ProtocolConfig, ProtocolKind};
use wcc_httpsim::{CacheSharing, Deployment, DeploymentOptions, Topology};
use wcc_traces::{ModSchedule, Modification, Trace, TraceRecord};
use wcc_types::{ByteSize, ClientId, ServerId, SimDuration, SimTime, Url};

fn record(secs: u64, client: u32, doc: u32) -> TraceRecord {
    TraceRecord {
        at: SimTime::from_secs(secs),
        client: ClientId::from_raw(client),
        url: Url::new(ServerId::new(0), doc),
    }
}

fn build(records: Vec<TraceRecord>, mods: Vec<Modification>) -> Deployment {
    let cfg = ProtocolConfig::new(ProtocolKind::Invalidation);
    build_with(records, mods, &cfg)
}

fn build_with(
    records: Vec<TraceRecord>,
    mods: Vec<Modification>,
    cfg: &ProtocolConfig,
) -> Deployment {
    let trace = Trace {
        name: "handcrafted".into(),
        server: ServerId::new(0),
        duration: SimDuration::from_hours(2),
        doc_sizes: vec![ByteSize::from_kib(8); 4],
        records,
    };
    let schedule = ModSchedule::from_modifications(4, mods);
    let mut opts = DeploymentOptions::default();
    opts.num_proxies = 2;
    opts.topology = Topology::Hierarchy;
    opts.sharing = CacheSharing::SharedPerProxy;
    Deployment::build(&trace, &schedule, cfg, opts)
}

#[test]
fn second_child_is_served_by_the_parent() {
    // Client 0 → partition 0; client 1 → partition 1. Same document, ten
    // minutes apart (separate lock-step windows).
    let mut d = build(vec![record(600, 0, 0), record(1200, 1, 0)], vec![]);
    d.run();
    let parent = d.parent().expect("hierarchy parent");
    assert_eq!(parent.core().counters().child_requests, 2);
    assert_eq!(
        parent.core().fetch().counters().gets_sent,
        1,
        "one compulsory miss"
    );
    assert_eq!(
        parent.core().counters().parent_hits,
        1,
        "second child hits the parent"
    );
    let r = d.collect();
    assert_eq!(r.replies_200, 1, "origin transferred the body once");
    assert_eq!(r.final_violations, 0);
}

#[test]
fn parent_answers_stale_validator_from_its_own_cache() {
    // Child 0 fetches doc 0; the *parent's* copy stays fresh. Child 1 then
    // asks with an ancient validator — the parent serves a 200 from its own
    // cache without going upstream.
    let mut d = build(
        vec![record(600, 0, 0), record(1200, 1, 0), record(1800, 1, 0)],
        vec![],
    );
    d.run();
    let parent = d.parent().expect("parent");
    let fetch = parent.core().fetch().counters();
    assert_eq!(fetch.gets_sent + fetch.ims_sent, 1);
    let r = d.collect();
    // Child 1's second request is a pure child-cache hit (leased).
    assert_eq!(r.hits, 1);
    assert_eq!(r.requests, 3);
}

#[test]
fn child_hit_reports_flow_through_the_parent_meter() {
    // Child 0 hits its own cache repeatedly; after the invalidation the
    // dying copy's count rides ack → parent → (parent ack) → origin.
    let mut d = build(
        vec![
            record(600, 0, 0),
            record(1200, 0, 0), // child cache hit
            record(1500, 0, 0), // child cache hit
            record(3600, 0, 0), // refetch after the modification
        ],
        vec![Modification {
            at: SimTime::from_secs(2400),
            doc: 0,
        }],
    );
    d.run();
    let r = d.collect();
    assert_eq!(r.requests, 4);
    assert_eq!(r.hits, 2);
    // The two child-cache hits were reported back to the origin: they ride
    // the child's InvalAck to the parent, fold into the parent's counter,
    // and reach the origin on the parent's next upstream request.
    assert_eq!(
        r.metered_served + r.metered_reported,
        4,
        "all four views metered (served {} + reported {})",
        r.metered_served,
        r.metered_reported
    );
}

/// A relay is re-sent until acknowledged: the `INVALIDATE` a partition
/// between parent and child swallows arrives once the partition has healed,
/// and the child's copy is gone before it is asked for again.
#[test]
fn a_relay_lost_to_a_partition_is_resent_after_it_heals() {
    use wcc_simnet::FaultPlan;
    use wcc_types::AuditEvent;
    let run = |faults: &FaultPlan| {
        let mods = vec![Modification {
            at: SimTime::from_secs(2400),
            doc: 0,
        }];
        // The miss at 2760 waits out the partition (its `GET` is lost and
        // retransmitted after 10 s), so the request at 3600 comes after it.
        let records = vec![record(600, 0, 0), record(2760, 0, 1), record(3600, 0, 0)];
        let trace = Trace {
            name: "handcrafted".into(),
            server: ServerId::new(0),
            duration: SimDuration::from_hours(2),
            doc_sizes: vec![ByteSize::from_kib(8); 4],
            records,
        };
        let mut opts = DeploymentOptions::default();
        opts.num_proxies = 2;
        opts.topology = Topology::Hierarchy;
        opts.audit = true;
        let schedule = ModSchedule::from_modifications(4, mods);
        let cfg = ProtocolConfig::new(ProtocolKind::Invalidation);
        let mut d = Deployment::build(&trace, &schedule, &cfg, opts);
        d.apply_faults(faults);
        d.run();
        d
    };
    let dry = run(&FaultPlan::new());
    let sent = |e: &&AuditEvent| matches!(e, AuditEvent::InvalidateSend { .. });
    let log = dry.origin().core().audit_log();
    // When the origin told the parent: the relay follows within the second.
    let told = log.iter().find(sent).expect("one write").at();
    let (parent, child) = (dry.parent_id().expect("parent"), dry.proxy_ids()[0]);
    assert_eq!(
        dry.parent()
            .unwrap()
            .core()
            .counters()
            .invalidations_relayed,
        1
    );

    // Down for three seconds: the relay and its first re-send (2 s) are lost.
    let down = SimDuration::from_secs(3);
    let d = run(&FaultPlan::new().partition(parent, child, told, told + down));
    let node = d.parent().expect("parent");
    assert_eq!(
        node.core().counters().invalidations_relayed,
        3,
        "sent, re-sent twice"
    );
    assert!(
        node.core().down().snapshot().writes_complete,
        "and acknowledged"
    );
    let r = d.collect();
    assert!(r.finished && r.request_timeouts >= 1);
    assert_eq!((r.stale_hits, r.final_violations), (0, 0));
    assert_eq!(r.hits, 0, "the refetch at 3600 went to the parent");
}

/// With the proposer on, the origin's coalesced rounds reach the parent,
/// which applies each as one round and acks it with one
/// `InvalidateBatchAck`, as a proxy does; every write still completes and
/// the audit stays clean.
#[test]
fn a_batched_round_is_applied_and_acked_as_one() {
    use wcc_traces::{synthetic, TraceSpec};
    use wcc_types::InvalBatchConfig;
    let spec = TraceSpec::epa().scaled_down(200);
    let trace = synthetic::generate(&spec, 7);
    let mods = ModSchedule::generate(spec.num_docs, SimDuration::from_hours(4), spec.duration, 7);
    let mut opts = DeploymentOptions::default();
    opts.topology = Topology::Hierarchy;
    opts.inval_batch = Some(InvalBatchConfig::default());
    opts.audit = true;
    let cfg = ProtocolConfig::new(ProtocolKind::Invalidation);
    let mut d = Deployment::build(&trace, &mods, &cfg, opts);
    d.run();
    let r = d.collect();
    let parent = r.parent.as_ref().expect("hierarchy parent");
    assert!(
        parent.fetch.inval_batches_received > 0,
        "{:?}",
        parent.fetch
    );
    assert!(r.finished && r.writes_complete);
    let audit = d.audit();
    assert!(audit.violations.is_empty(), "{audit}");
}

/// Client 0 fetches document 0 through the parent at 600 s, client 1 at
/// 3000 s and 5400 s; the origin writes it at 4800 s. Both children sit
/// under one parent, on their own partitions.
fn leased_run(cfg: &ProtocolConfig) -> wcc_httpsim::RawReport {
    let mut d = build_with(
        vec![record(600, 0, 0), record(3000, 1, 0), record(5400, 1, 0)],
        vec![Modification {
            at: SimTime::from_secs(4800),
            doc: 0,
        }],
        cfg,
    );
    d.run();
    d.collect()
}

/// A parent never promises a child more than the origin promised it. The
/// parent's copy is leased from 600 s to 4200 s; client 1's hit at 3000 s
/// may be leased no longer than that. Had it been leased for the hour from
/// 3000 s, the write at 4800 s — which the origin owes nobody, the parent's
/// lease having run out — would leave client 1 serving the old version at
/// 5400 s.
#[test]
fn a_child_lease_ends_no_later_than_the_parents() {
    let hour = SimDuration::from_hours(1);
    for kind in [ProtocolKind::LeaseInvalidation, ProtocolKind::VolumeLease] {
        let cfg = ProtocolConfig::new(kind)
            .with_lease(hour)
            .with_volume_lease(hour);
        let r = leased_run(&cfg);
        assert!(r.finished && r.writes_complete, "{kind}");
        assert_eq!((r.stale_hits, r.final_violations), (0, 0), "{kind}");
        assert_eq!((r.requests, r.hits, r.invalidations), (3, 1, 0), "{kind}");
    }
}

/// Invalidation promises for ever on both tiers: the write is pushed down
/// the tree and client 1 fetches the new version.
#[test]
fn an_unbounded_promise_is_invalidated_down_the_tree() {
    let r = leased_run(&ProtocolConfig::new(ProtocolKind::Invalidation));
    assert!(r.finished && r.writes_complete);
    assert_eq!((r.stale_hits, r.final_violations), (0, 0));
    assert_eq!((r.hits, r.invalidations), (0, 1));
}

/// Under volume leases a child's volume ends no later than the parent's
/// own. The object lease (a day) outlives the run; the parent's volume,
/// renewed by its fetch at 600 s, ends at 4200 s. Client 1's hit at 3000 s
/// may renew its volume only that far, so after the write at 4800 s —
/// which the origin only queues for the parent, whose volume has lapsed —
/// client 1 revalidates rather than serving its copy.
#[test]
fn a_child_volume_lease_ends_no_later_than_the_parents() {
    let cfg = ProtocolConfig::new(ProtocolKind::VolumeLease)
        .with_lease(SimDuration::from_hours(24))
        .with_volume_lease(SimDuration::from_hours(1));
    let r = leased_run(&cfg);
    assert!(r.finished && r.writes_complete);
    assert_eq!((r.stale_hits, r.final_violations), (0, 0));
    assert_eq!((r.requests, r.hits, r.invalidations), (3, 1, 0));
}
