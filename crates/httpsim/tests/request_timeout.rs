//! The proxy's request timeout, pinned on the simulation clock.
//!
//! A proxy keeps one deadline (the open flight's) and at most one armed
//! timer. What a lost reply sees must be what one timer per request gave it:
//! a retransmit exactly ten seconds after the request left, whatever older
//! timer happens to be pending, and across a crash of the proxy itself
//! (which drops a timer that comes due meanwhile and spares one that does not).
//! Wall times are read off a traced clean run, then the faults are placed
//! around them in a second, identical replay.

// Building options by mutating a default is the intended style here.
#![allow(clippy::field_reassign_with_default)]

use wcc_core::{ProtocolConfig, ProtocolKind};
use wcc_httpsim::{Deployment, DeploymentOptions};
use wcc_obs::Phase;
use wcc_simnet::FaultPlan;
use wcc_traces::{ModSchedule, Trace, TraceRecord};
use wcc_types::{ByteSize, ClientId, ServerId, SimDuration, SimTime, Url};

const TIMEOUT: SimDuration = SimDuration::from_secs(10);
const TICK: SimDuration = SimDuration::from_micros(1);

fn record(secs: u64, doc: u32) -> TraceRecord {
    TraceRecord {
        at: SimTime::from_secs(secs),
        client: ClientId::from_raw(0),
        url: Url::new(ServerId::new(0), doc),
    }
}

/// One proxy polling one origin: every request goes upstream, a repeat as an
/// `If-Modified-Since` on the copy held.
fn build(records: &[TraceRecord], docs: u32, faults: &FaultPlan) -> Deployment {
    let trace = Trace {
        name: "handcrafted".into(),
        server: ServerId::new(0),
        duration: SimDuration::from_hours(2),
        doc_sizes: vec![ByteSize::from_kib(8); docs as usize],
        records: records.to_vec(),
    };
    let mut opts = DeploymentOptions::default();
    opts.num_proxies = 1;
    opts.trace = true;
    let mut d = Deployment::build(
        &trace,
        &ModSchedule::from_modifications(docs, vec![]),
        &ProtocolConfig::new(ProtocolKind::PollEveryTime),
        opts,
    );
    d.apply_faults(faults);
    d
}

/// Runs to the end of the replay (bounded: a wedged proxy would otherwise
/// keep the coordinator's watchdog ticking for ever) and returns the wall
/// instants at which the proxy put a request on the wire.
fn forwards(d: &mut Deployment) -> Vec<SimTime> {
    d.run_until(SimTime::from_secs(600));
    let sent = d.trace_log().into_iter();
    sent.filter(|e| e.phase == Phase::Upstream && e.node == "proxy0")
        .map(|e| e.at)
        .collect()
}

/// `plan`, plus a partition that lets a request sent at `sent` through and
/// swallows its reply.
fn losing_reply_to(plan: FaultPlan, d: &Deployment, sent: SimTime) -> FaultPlan {
    let (origin, proxy) = (d.origin_id(), d.proxy_ids()[0]);
    plan.partition(origin, proxy, sent + TICK, sent + SimDuration::from_secs(5))
}

#[test]
fn a_lost_reply_is_retransmitted_exactly_ten_seconds_after_the_request_left() {
    let records = [record(600, 0), record(1200, 0)];
    let mut clean = build(&records, 1, &FaultPlan::new());
    let sent = forwards(&mut clean);
    assert_eq!(sent.len(), 2);

    let lost = losing_reply_to(FaultPlan::new(), &clean, sent[1]);
    let mut d = build(&records, 1, &lost);
    assert_eq!(forwards(&mut d), [sent[0], sent[1], sent[1] + TIMEOUT]);
    let proxy = d.proxy(0);
    assert_eq!(proxy.counters().request_timeouts, 1);
    // The repeat and its retransmit both validate the copy held.
    let fetch = proxy.core().counters();
    assert_eq!((fetch.gets_sent, fetch.ims_sent), (1, 2));
    assert_eq!((proxy.serves().len(), proxy.core().in_flight()), (2, 0));
}

#[test]
fn a_request_sent_under_an_older_timer_still_gets_its_own_ten_seconds() {
    // One window: the second request leaves milliseconds after the first,
    // while the timer armed for the first has almost ten seconds to run.
    let records = [record(600, 0), record(601, 1), record(1200, 2)];
    let mut clean = build(&records, 3, &FaultPlan::new());
    let sent = forwards(&mut clean);
    assert_eq!(sent.len(), 3);
    assert!(sent[0] < sent[1] && sent[1] < sent[0] + TIMEOUT);

    let lost = losing_reply_to(FaultPlan::new(), &clean, sent[1]);
    let mut d = build(&records, 3, &lost);
    let resent = forwards(&mut d);
    assert_eq!(resent[..3], [sent[0], sent[1], sent[1] + TIMEOUT]);
    assert_eq!(resent.len(), 4, "and the third request follows");
    assert_eq!(d.proxy(0).counters().request_timeouts, 1);
}

#[test]
fn a_crash_with_the_timer_pending_does_not_wedge_later_timeouts() {
    let records = [record(600, 0), record(1200, 1), record(1800, 2)];
    let mut clean = build(&records, 3, &FaultPlan::new());
    let sent = forwards(&mut clean)[0];
    let proxy = clean.proxy_ids()[0];

    // Down from just after the first request left until after its timer
    // came due: the engine drops that timer, and recovery re-issues.
    let back = sent + TIMEOUT + SimDuration::from_secs(2);
    let outage = FaultPlan::new().outage(proxy, sent + TICK, back);
    let mut crashed = build(&records, 3, &outage);
    let after = forwards(&mut crashed);
    assert_eq!(after[..2], [sent, back], "re-issued on recovery");
    assert_eq!(after.len(), 4);
    assert_eq!(crashed.proxy(0).counters().reissued_after_crash, 1);

    // The same again, and a later request's reply is lost.
    let mut d = build(&records, 3, &losing_reply_to(outage, &clean, after[2]));
    let resent = forwards(&mut d);
    assert_eq!(resent[..4], [sent, back, after[2], after[2] + TIMEOUT]);
    assert_eq!(resent.len(), 5);
    let proxy = d.proxy(0);
    assert_eq!(proxy.counters().request_timeouts, 1);
    assert_eq!((proxy.serves().len(), proxy.core().in_flight()), (3, 0));
}

#[test]
fn a_timer_that_outlives_a_short_outage_does_not_cut_the_reissued_request_short() {
    let records = [record(600, 0), record(1200, 1)];
    let mut clean = build(&records, 2, &FaultPlan::new());
    let sent = forwards(&mut clean)[0];

    // Back up with seven of the first timer's ten seconds still to run; the
    // re-issued request's reply is lost as well.
    let back = sent + SimDuration::from_secs(3);
    let outage = FaultPlan::new().outage(clean.proxy_ids()[0], sent + TICK, back);
    let mut d = build(&records, 2, &losing_reply_to(outage, &clean, back));
    let resent = forwards(&mut d);
    assert_eq!(resent[..3], [sent, back, back + TIMEOUT]);
    assert_eq!(resent.len(), 4);
    let counters = d.proxy(0).counters();
    assert_eq!(
        (counters.reissued_after_crash, counters.request_timeouts),
        (1, 1)
    );
}

#[test]
fn a_clean_replay_arms_a_timer_per_ten_seconds_not_per_request() {
    // 3 000 compulsory misses, 400 to a five-minute window.
    const N: u64 = 3_000;
    let records: Vec<TraceRecord> = (0..N)
        .map(|i| record(600 + i * 300 / 400, i as u32))
        .collect();
    let mut d = build(&records, N as u32, &FaultPlan::new());
    d.run();
    let fetch = d.proxy(0).core().counters();
    assert_eq!(fetch.gets_sent, N);
    let wall_secs = d.coordinator().finished_at().expect("drained").as_micros() / 1_000_000;
    let steps = u64::from(d.coordinator().steps_run());

    // Every arena slot is a message on the wire or a timer: a delivery that
    // waits for a busy node waits in its own slot, and a backlog run in the
    // slot of a delivery it holds. Two messages per request; per window a
    // `StepStart` and a `StepDone` for each of proxy, origin and modifier.
    let timers = d.alloc_stats().allocated - 2 * N - 6 * steps;
    // The coordinator's watchdog per window, plus the proxy's share: two
    // timers at most in any ten seconds.
    let bound = steps + 2 * (wall_secs / 10 + 1);
    assert!(
        timers <= bound + 8,
        "{timers} timers over {wall_secs} s and {steps} windows"
    );
    assert!(bound + 8 < N / 4, "the bound tells the two designs apart");
}
