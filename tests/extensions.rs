//! Integration tests for the extension experiments: the WAN latency
//! extrapolation (§5.2), the fixed-TTL baseline and the cache hierarchy.

// Building options by mutating a default is the intended style here.
#![allow(clippy::field_reassign_with_default)]

use wcc_core::{ProtocolConfig, ProtocolKind};
use wcc_httpsim::{CacheSharing, Deployment, DeploymentOptions, RawReport, Topology};
use wcc_replay::{run_trio, ExperimentConfig};
use wcc_simnet::NetworkConfig;
use wcc_traces::{synthetic, ModSchedule, TraceSpec};
use wcc_types::{InvalBatchConfig, SimDuration};

#[test]
fn wan_penalises_polling_most() {
    // §5.2: "we expect polling-every-time to have a much worse average
    // response time in real life. Conversely, invalidation will have
    // similar or even lower response time than adaptive TTL, as long as
    // sending invalidations is decoupled…" The batched proposer keeps the
    // fan-out from stalling request handling.
    let mut options = DeploymentOptions::default();
    options.network = NetworkConfig::wan();
    options.inval_batch = Some(InvalBatchConfig::default());
    let cfg = ExperimentConfig::builder(TraceSpec::epa().scaled_down(50))
        .seed(61)
        .options(options)
        .build();
    let trio = run_trio(&cfg, None);
    let (ttl, poll, inval) = (&trio[0].raw, &trio[1].raw, &trio[2].raw);
    let avg = |r: &RawReport| r.latency.mean().expect("latency observed").as_secs_f64();
    assert!(
        avg(poll) > avg(inval),
        "poll {} should exceed inval {}",
        avg(poll),
        avg(inval)
    );
    assert!(
        avg(inval) <= avg(ttl) * 1.02,
        "inval {} should track/beat ttl {}",
        avg(inval),
        avg(ttl)
    );
    // Polling's minimum is a WAN round trip; invalidation's is a local hit.
    assert!(poll.latency.min() > inval.latency.min());
}

#[test]
fn fixed_ttl_is_dominated_by_adaptive() {
    // The frontier: at (roughly) equal staleness, adaptive costs no more;
    // at (roughly) equal cost, adaptive is no staler.
    let base = ExperimentConfig::builder(TraceSpec::sask().scaled_down(80))
        .mean_lifetime(SimDuration::from_days(2))
        .seed(71)
        .build();
    let (trace, mods) = wcc_replay::experiment::materialise(&base);
    let run = |cfg: ProtocolConfig| {
        let mut c = base.clone();
        c.protocol = cfg;
        wcc_replay::experiment::run_on(&c, &trace, &mods).raw
    };
    let adaptive = run(ProtocolConfig::new(ProtocolKind::AdaptiveTtl));
    let short =
        run(ProtocolConfig::new(ProtocolKind::FixedTtl).with_fixed_ttl(SimDuration::from_mins(10)));
    let long =
        run(ProtocolConfig::new(ProtocolKind::FixedTtl).with_fixed_ttl(SimDuration::from_days(8)));
    // Short fixed TTL: no less traffic than adaptive.
    assert!(short.total_messages >= adaptive.total_messages);
    // Long fixed TTL: much staler than adaptive.
    assert!(long.stale_hits > adaptive.stale_hits * 3);
    // Both remain weak-consistency protocols.
    assert!(long.stale_hits > 0);
}

#[test]
fn hierarchy_cuts_origin_invalidation_overhead() {
    let spec = TraceSpec::nasa().scaled_down(80);
    let trace = synthetic::generate(&spec, 81);
    let mods = ModSchedule::generate(spec.num_docs, SimDuration::from_hours(6), spec.duration, 81);
    let cfg = ProtocolConfig::new(ProtocolKind::Invalidation);
    let run = |topology: Topology, sharing: CacheSharing| {
        let mut opts = DeploymentOptions::default();
        opts.topology = topology;
        opts.sharing = sharing;
        let mut d = Deployment::build(&trace, &mods, &cfg, opts);
        d.run();
        d.collect()
    };
    let per_client = run(Topology::Flat, CacheSharing::PerClient);
    let tree = run(Topology::Hierarchy, CacheSharing::SharedPerProxy);

    // Strong consistency everywhere.
    assert_eq!(per_client.final_violations, 0);
    assert_eq!(tree.final_violations, 0);
    assert_eq!(tree.requests, per_client.requests);

    // Origin-side costs collapse by an order of magnitude.
    assert!(tree.invalidations * 5 < per_client.invalidations);
    assert!(tree.sitelist.max_list_len <= 1);
    assert!(
        tree.sitelist.storage.as_u64() * 3 < per_client.sitelist.storage.as_u64(),
        "tree {} vs per-client {}",
        tree.sitelist.storage,
        per_client.sitelist.storage
    );
    let parent = tree.parent.expect("parent summary");
    assert!(parent.counters.parent_hits > 0);
}

#[test]
fn hierarchy_survives_parent_races() {
    // High churn maximises the INVALIDATE-overtakes-reply window both at
    // the children and at the parent; the callback-race rule must hold.
    let spec = TraceSpec::sdsc().scaled_down(60);
    let trace = synthetic::generate(&spec, 82);
    let mods = ModSchedule::generate(spec.num_docs, SimDuration::from_hours(1), spec.duration, 82);
    let cfg = ProtocolConfig::new(ProtocolKind::Invalidation);
    let mut opts = DeploymentOptions::default();
    opts.topology = Topology::Hierarchy;
    let mut d = Deployment::build(&trace, &mods, &cfg, opts);
    d.run();
    let r = d.collect();
    assert!(r.finished);
    assert_eq!(r.final_violations, 0);
}

#[test]
fn browser_based_detection_defers_invalidations_but_converges() {
    use wcc_httpsim::ChangeDetection;
    let spec = TraceSpec::epa().scaled_down(100);
    let trace = synthetic::generate(&spec, 83);
    let mods = ModSchedule::generate(spec.num_docs, SimDuration::from_hours(6), spec.duration, 83);
    let cfg = ProtocolConfig::new(ProtocolKind::Invalidation);
    let run = |detection: ChangeDetection| {
        let mut opts = DeploymentOptions::default();
        opts.detection = detection;
        let mut d = Deployment::build(&trace, &mods, &cfg, opts);
        d.run();
        d.collect()
    };
    let eager = run(ChangeDetection::Notify);
    let lazy = run(ChangeDetection::BrowserBased);

    assert!(eager.finished && lazy.finished);
    // Lazy detection fires only when a modified document is re-requested.
    assert!(lazy.deferred_detections > 0);
    assert_eq!(eager.deferred_detections, 0);
    // Both variants keep promised-fresh entries consistent with what the
    // accelerator has *detected*; the lazy variant may legitimately leave
    // copies of never-re-requested documents stale (detection hasn't
    // happened, so the write has not completed in the §4 sense).
    assert_eq!(eager.final_violations, 0);
    assert!(lazy.writes_complete);
    // Lazy detection cannot send more invalidations than eager.
    assert!(
        lazy.invalidations - lazy.invalidation_retries
            <= eager.invalidations - eager.invalidation_retries
    );
    // Cache-served staleness: lazy has a wider window (between the touch
    // and the next request for the doc), so it may serve more stale bytes.
    assert!(lazy.stale_hits >= eager.stale_hits);
}

#[test]
fn volume_leases_bound_write_completion_through_partitions() {
    // The §4 partition problem, solved: with plain invalidation an unacked
    // INVALIDATE keeps the write incomplete until retries get through (or
    // the retry budget burns out); with volume leases the write completes
    // after at most the volume length, and the partitioned client learns of
    // the change via the piggyback on its first renewal after healing.
    use wcc_replay::partition_scenario;
    let base = |kind: ProtocolKind| {
        ExperimentConfig::builder(TraceSpec::epa().scaled_down(200))
            .protocol_config(ProtocolConfig::new(kind).with_volume_lease(SimDuration::from_mins(5)))
            .mean_lifetime(SimDuration::from_hours(4))
            .seed(113)
            .build()
    };
    let volume = partition_scenario(&base(ProtocolKind::VolumeLease), 0.3, 0.7);
    let r = &volume.report.raw;
    assert!(r.finished);
    assert!(r.writes_complete, "volume expiry completes the writes");
    assert_eq!(
        r.final_violations, 0,
        "healed client revalidates via renewal"
    );
    assert_eq!(
        r.gave_up, 0,
        "no retry budget exhaustion under volume leases"
    );
}

#[test]
fn volume_leases_preserve_strong_consistency_in_normal_operation() {
    let cfg = ExperimentConfig::builder(TraceSpec::sask().scaled_down(80))
        .protocol_config(
            ProtocolConfig::new(ProtocolKind::VolumeLease)
                .with_volume_lease(SimDuration::from_mins(10)),
        )
        .mean_lifetime(SimDuration::from_days(7))
        .seed(117)
        .build();
    let (trace, mods) = wcc_replay::experiment::materialise(&cfg);
    let r = wcc_replay::experiment::run_on(&cfg, &trace, &mods).raw;
    assert!(r.finished);
    assert_eq!(r.final_violations, 0);
    // Expired-volume hits revalidate, so volume leases trade some IMS
    // traffic for the bounded-wait guarantee.
    assert!(r.ims > 0, "volume renewals appear as IMS traffic");
    // Fewer pushes than plain invalidation would send (expired-volume
    // clients are piggybacked instead).
    let mut plain_cfg = cfg.clone();
    plain_cfg.protocol = ProtocolConfig::new(ProtocolKind::Invalidation);
    let plain = wcc_replay::experiment::run_on(&plain_cfg, &trace, &mods).raw;
    assert!(
        r.invalidations <= plain.invalidations,
        "volume {} vs plain {}",
        r.invalidations,
        plain.invalidations
    );
}
