//! Cross-protocol invariants over every trace: message conservation, the
//! paper's ordering results, and strong-consistency guarantees.

use wcc_core::ProtocolKind;
use wcc_replay::{run_trio, ExperimentConfig};
use wcc_traces::TraceSpec;

const SCALE: u64 = 60;

fn trios() -> Vec<[wcc_replay::ReplayReport; 3]> {
    TraceSpec::all()
        .into_iter()
        .map(|spec| {
            let cfg = ExperimentConfig::builder(spec.scaled_down(SCALE))
                .seed(11)
                .build();
            run_trio(&cfg, None)
        })
        .collect()
}

#[test]
fn every_request_is_answered_exactly_once() {
    for trio in trios() {
        for r in &trio {
            let raw = &r.raw;
            assert!(raw.finished, "{}/{}", r.trace, r.protocol);
            // Wire conservation: each GET/IMS produced exactly one reply.
            assert_eq!(
                raw.gets + raw.ims,
                raw.replies_200 + raw.replies_304,
                "{}/{}",
                r.trace,
                r.protocol
            );
            // Every user request was delivered (latency observed).
            assert!(raw.latency.count() >= raw.requests);
        }
    }
}

#[test]
fn polling_always_validates_and_never_serves_stale() {
    for trio in trios() {
        let poll = &trio[1];
        assert_eq!(poll.protocol, ProtocolKind::PollEveryTime);
        assert_eq!(
            poll.raw.gets + poll.raw.ims,
            poll.raw.requests + poll.raw.revalidation_races,
            "{}",
            poll.trace
        );
        assert_eq!(poll.raw.stale_hits, 0, "{}", poll.trace);
        assert_eq!(poll.raw.invalidations, 0);
    }
}

#[test]
fn invalidation_is_strongly_consistent_and_cheapest() {
    for trio in trios() {
        let (ttl, poll, inval) = (&trio[0], &trio[1], &trio[2]);
        assert!(inval.raw.writes_complete, "{}", inval.trace);
        assert_eq!(inval.raw.final_violations, 0, "{}", inval.trace);
        assert_eq!(inval.raw.gave_up, 0);
        // The paper's headline ordering: polling sends the most messages;
        // invalidation no more than adaptive TTL (±6% in the paper — here
        // we allow equality plus that same tolerance).
        assert!(
            poll.raw.total_messages > inval.raw.total_messages,
            "{}: poll {} !> inval {}",
            poll.trace,
            poll.raw.total_messages,
            inval.raw.total_messages
        );
        assert!(
            (inval.raw.total_messages as f64) <= (ttl.raw.total_messages as f64) * 1.06,
            "{}: inval {} vs ttl {}",
            inval.trace,
            inval.raw.total_messages,
            ttl.raw.total_messages
        );
    }
}

#[test]
fn bytes_are_dominated_by_file_transfers() {
    // §3: "the approaches have similar total bytes of messages" — control
    // messages are small next to transfers.
    for trio in trios() {
        let base = trio[2].raw.total_bytes.as_u64() as f64;
        for r in &trio {
            let ratio = r.raw.total_bytes.as_u64() as f64 / base;
            assert!(
                (0.95..=1.08).contains(&ratio),
                "{}/{}: byte ratio {ratio}",
                r.trace,
                r.protocol
            );
        }
    }
}

#[test]
fn polling_minimum_latency_is_a_server_round_trip() {
    for trio in trios() {
        let (ttl, poll, inval) = (&trio[0], &trio[1], &trio[2]);
        assert!(
            poll.raw.latency.min() >= ttl.raw.latency.min(),
            "{}",
            poll.trace
        );
        assert!(
            poll.raw.latency.min() >= inval.raw.latency.min(),
            "{}",
            poll.trace
        );
    }
}

#[test]
fn only_adaptive_ttl_may_serve_stale() {
    for trio in trios() {
        assert_eq!(trio[1].raw.stale_hits, 0, "{} poll", trio[1].trace);
        assert_eq!(trio[2].raw.stale_hits, 0, "{} inval", trio[2].trace);
        // (TTL staleness depends on churn; no assertion either way here —
        // the weak-consistency tests cover it with forced churn.)
    }
}

#[test]
fn server_cpu_ordering_matches_paper() {
    // "Polling-every-time generally has a high server CPU utilization."
    let mut poll_higher_than_ttl = 0;
    let mut total = 0;
    for trio in trios() {
        let (ttl, poll, _inval) = (&trio[0], &trio[1], &trio[2]);
        total += 1;
        if poll.raw.server_cpu > ttl.raw.server_cpu {
            poll_higher_than_ttl += 1;
        }
    }
    assert!(
        poll_higher_than_ttl >= total - 1,
        "polling should have the highest CPU on ~all traces \
         ({poll_higher_than_ttl}/{total})"
    );
}
