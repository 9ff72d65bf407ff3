//! Node-level behaviour of the hierarchy parent, pinned with handcrafted
//! single-document workloads.

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
    Deployment::build(
        &trace,
        &schedule,
        &ProtocolConfig::new(ProtocolKind::Invalidation),
        opts,
    )
}

#[test]
fn second_child_is_served_by_the_parent() {
    // Client 0 → partition 0; client 1 → partition 1. Same document, ten
    // minutes apart (separate lock-step windows).
    let mut d = build(vec![record(600, 0, 0), record(1200, 1, 0)], vec![]);
    d.run();
    let parent = d.parent().expect("hierarchy parent");
    assert_eq!(parent.counters().child_requests, 2);
    assert_eq!(parent.core().counters().gets_sent, 1, "one compulsory miss");
    assert_eq!(
        parent.counters().parent_hits,
        1,
        "second child hits the parent"
    );
    let r = d.collect();
    assert_eq!(r.replies_200, 1, "origin transferred the body once");
    assert_eq!(r.final_violations, 0);
}

#[test]
fn invalidation_relays_only_to_copy_holders() {
    // Both children cache doc 0; only child of partition 0 caches doc 1.
    let mut d = build(
        vec![
            record(600, 0, 0),
            record(1200, 1, 0),
            record(1800, 0, 1),
            // doc 0 modified at t=2400; doc 1 modified at t=3000.
            record(3600, 0, 0), // refetch after invalidation
        ],
        vec![
            Modification {
                at: SimTime::from_secs(2400),
                doc: 0,
            },
            Modification {
                at: SimTime::from_secs(3000),
                doc: 1,
            },
        ],
    );
    d.run();
    let parent = d.parent().expect("parent");
    // doc 0 relay reaches both children; doc 1 relay reaches one.
    assert_eq!(parent.counters().invalidations_relayed, 3);
    let r = d.collect();
    // The origin itself sent exactly one INVALIDATE per modification (to
    // the parent).
    assert_eq!(r.invalidations - r.invalidation_retries, 2);
    assert_eq!(r.final_violations, 0);
    assert!(r.writes_complete);
    // The refetch observed the new version.
    assert_eq!(r.stale_hits, 0);
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
    let fetch = parent.core().counters();
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
