//! Driver conformance for the origin side: one script — `GET`s, a write
//! with two registered sites whose second acknowledgement is lost (retry,
//! then ack), a round of three writes that coalesces under the batched
//! proposer, a crash and the §5 bulk recovery, an `IMS` → `304` carrying a
//! §7 hit report, a write after the restart, unknown document ids — is fed
//! to a bare [`OriginCore`], to a one-origin [`Deployment`] and to a
//! [`NetOrigin`] over raw sockets, with the proposer off and on. The
//! simulator's origin and the daemon's are drivers of that core, so:
//!
//! * the simulated origin must log the bare core's audit events in the bare
//!   core's order (clocks aside) and end on equal counters;
//! * the daemon must put the bare core's frames on each site's push
//!   channel, in its order, answer each `GET` alike, and count alike.
//!
//! A daemon restart loses the ever-seen list and the counters with the
//! process, where the simulator's crash keeps both on disk: the bare core is
//! run once each way, and the two runs must push the same frames.
//!
//! The parent leg does the same one tier down: both parents are drivers of
//! [`ParentCore`], so a second script — two children, a write whose second
//! acknowledgement is lost, a write only one of them holds a copy for, a
//! write while a child's channel is down — is fed to a bare `ParentCore`,
//! to a `Topology::Hierarchy` [`Deployment`] and to a [`NetParent`] over
//! raw sockets, and each child's channel must carry the same frames in the
//! same order.
//!
//! Every leg reaches the write path the way the drivers do: what a site
//! sends — its `HELLO`, its acknowledgements — goes whole into the core's
//! entry for site frames, the bare legs' as the daemon legs' over TCP.
//!
//! The four per-protocol rows below the scripts are `sim_vs_tcp.rs`'s: a
//! whole trace without modifications through one proxy, simulated and over
//! TCP, must count alike on both sides of the wire.

// Building options by mutating a default is the intended style here.
#![allow(clippy::field_reassign_with_default)]

#[path = "../crates/net/tests/common/mod.rs"]
mod common;

use common::Wire;
use std::time::{Duration, Instant};
use wcc_cache::{CacheStore, ReplacementPolicy};
use wcc_core::{
    OriginCore, OriginCounters, OriginOut, OriginTimer, ParentCore, ProtocolConfig, ProtocolKind,
    ProxyCore, ProxyPolicy, ServerConsistency, SiteVerdict, UpstreamReply, WritePath,
};
use wcc_httpsim::{Deployment, DeploymentOptions, Topology};
use wcc_net::{NetOrigin, NetParent, NetProxy, OriginConfig};
use wcc_proto::{
    BatchAckEntry, BatchEntry, GetRequest, HttpMsg, HttpMsgRef, ReplyStatus, ReplyStatusRef,
    RequestId,
};
use wcc_simnet::{FaultPlan, LinkSpec, NetworkConfig};
use wcc_traces::{synthetic, ModSchedule, Modification, Trace, TraceRecord, TraceSpec};
use wcc_types::{
    AuditEvent, ByteSize, ClientId, DocMeta, InvalBatchConfig, ServerId, SimDuration, SimTime, Url,
};

const SERVER: ServerId = ServerId::new(0);
const DOCS: u32 = 4;
/// Two sites: client 4 lives on site 0, client 5 on site 1.
const SITES: u32 = 2;
const A: ClientId = ClientId::from_raw(4);
const B: ClientId = ClientId::from_raw(5);
/// The daemon's retry period; the other two drivers are given the same.
const RETRY: SimDuration = SimDuration::from_millis(250);

fn url(doc: u32) -> Url {
    Url::new(SERVER, doc)
}

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// Every copy is leased for longer than the script runs.
fn protocol() -> ProtocolConfig {
    ProtocolConfig::new(ProtocolKind::LeaseInvalidation).with_lease(SimDuration::from_secs(50_000))
}

/// Two entries flush a round at once; a lone one waits out the age bound,
/// set clear of how long the daemon may take to read three check-ins.
fn batching() -> InvalBatchConfig {
    InvalBatchConfig {
        max_entries: 2,
        max_age: SimDuration::from_millis(400),
        ..InvalBatchConfig::default()
    }
}

/// One step of the script. Times are trace seconds, a lock-step window
/// (300 s) or more apart unless rows are meant to share one.
enum Row {
    /// What `client`'s proxy sends upstream when it is asked for `doc`:
    /// `ims` is its copy's `Last-Modified`, `hits` the §7 report riding
    /// along; `status` is the answer the script expects.
    Get {
        at: u64,
        client: ClientId,
        doc: u32,
        ims: Option<u64>,
        hits: u64,
        status: u16,
    },
    /// `client` is served from its proxy's cache: nothing reaches the
    /// origin (a trace record, for the simulator's proxies to count).
    Hit { at: u64, client: ClientId, doc: u32 },
    /// The check-ins `(at, doc)` of one window, then the acknowledgements
    /// of what they fanned out — but for the first frame naming `lost`,
    /// which is only acknowledged when it is re-sent. `hits` rides the
    /// first acknowledgement from that client.
    Writes {
        writes: &'static [(u64, u32)],
        lost: Option<ClientId>,
        hits: Option<(ClientId, u64)>,
    },
    /// The origin crashes and comes back.
    Restart,
    /// A check-in, then a `GET`, naming a document the origin does not have.
    Unknown,
}

const SCRIPT: [Row; 14] = [
    Row::get(10, A, 0),
    Row::get(310, B, 0),
    Row::get(610, A, 1),
    Row::Hit {
        at: 910,
        client: A,
        doc: 0,
    },
    // Two registered sites; B's acknowledgement is lost, A's reports a hit.
    Row::Writes {
        writes: &[(1210, 0)],
        lost: Some(B),
        hits: Some((A, 1)),
    },
    Row::get(3100, A, 2),
    Row::get(3400, B, 2),
    Row::get(3700, B, 3),
    Row::get(4000, A, 3),
    // The second write finds A's invalidation still unacknowledged (queued,
    // with the proposer on: it coalesces); the third fills the round.
    Row::Writes {
        writes: &[(4600, 1), (4610, 1), (4620, 2)],
        lost: None,
        hits: None,
    },
    Row::Hit {
        at: 4700,
        client: B,
        doc: 3,
    },
    Row::Restart,
    // Questionable since the bulk: validated, which registers B again.
    Row::Get {
        at: 9000,
        client: B,
        doc: 3,
        ims: Some(0),
        hits: 1,
        status: 304,
    },
    // Only the copy the restarted origin knows of is invalidated: a lone
    // entry, which the proposer's age bound flushes.
    Row::Writes {
        writes: &[(9300, 3)],
        lost: None,
        hits: None,
    },
];

impl Row {
    const fn get(at: u64, client: ClientId, doc: u32) -> Row {
        Row::Get {
            at,
            client,
            doc,
            ims: None,
            hits: 0,
            status: 200,
        }
    }
}

/// The `(document, client)` copies a pushed frame names; none for the bulk.
fn copies(frame: &HttpMsg) -> Vec<(u32, ClientId)> {
    match frame {
        HttpMsg::Invalidate { url, client } => vec![(url.doc(), *client)],
        HttpMsg::InvalidateBatch { entries, .. } => {
            entries.iter().map(|e| (e.url.doc(), e.client)).collect()
        }
        _ => Vec::new(),
    }
}

/// What a write path asked for: the frames to push to each site; the
/// timers it armed go on `timers`.
fn frames(
    asked: Vec<OriginOut>,
    now: SimTime,
    timers: &mut Vec<(SimTime, OriginTimer)>,
) -> Vec<(u32, HttpMsg)> {
    let frame = |asked| match asked {
        OriginOut::Arm { after, timer } => {
            timers.push((now + after, timer));
            None
        }
        OriginOut::Push { site, msg } => Some((site, msg)),
        // A parent's ack to the origin: no site's channel carries it.
        OriginOut::Up(_) => None,
    };
    asked.into_iter().filter_map(frame).collect()
}

/// One push, and the §7 report of each acknowledged entry (`None`: the
/// acknowledgement is lost).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Pushed {
    site: u32,
    frame: HttpMsg,
    acked: Option<Vec<u64>>,
}

impl Pushed {
    /// The acknowledgement the site answers with; `None` when it is lost.
    fn ack(&self) -> Option<HttpMsg> {
        let hits = self.acked.as_ref()?;
        let ack = |(&(doc, client), &cache_hits)| BatchAckEntry {
            url: url(doc),
            client,
            cache_hits,
        };
        let entries: Vec<_> = copies(&self.frame).iter().zip(hits).map(ack).collect();
        Some(match (&self.frame, entries.first().copied()) {
            (HttpMsg::Invalidate { .. }, Some(e)) => HttpMsg::InvalAck {
                url: e.url,
                client: e.client,
                cache_hits: e.cache_hits,
            },
            (HttpMsg::InvalidateBatch { .. }, Some(_)) => HttpMsg::InvalidateBatchAck {
                server: SERVER,
                entries,
            },
            _ => HttpMsg::InvalidateServerAck { server: SERVER },
        })
    }
}

/// `site`'s `HELLO`.
fn hello(site: u32) -> HttpMsg {
    HttpMsg::Hello {
        partition: site,
        partitions: SITES,
    }
}

/// What a run of the script put on the wire, row by row, and counted.
#[derive(Debug, Default)]
struct Transcript {
    pushed: Vec<Vec<Pushed>>,
    at_restart: OriginCounters,
    end: OriginCounters,
    audit: Vec<String>,
}

/// An audit event without its clock reading (`at` is every variant's last
/// field). The coordinator's lease sweep is the simulator's own step.
fn untimed(log: &[AuditEvent]) -> Vec<String> {
    let sweep = |e: &&AuditEvent| !matches!(e, AuditEvent::PurgeExpired { .. });
    let strip = |e: &AuditEvent| {
        let text = format!("{e:?}");
        text[..text.rfind(", at: ").expect("timed")].to_string()
    };
    log.iter().filter(sweep).map(strip).collect()
}

fn origin_core(batch: Option<InvalBatchConfig>) -> OriginCore {
    let sizes = vec![ByteSize::from_kib(1); DOCS as usize];
    let consistency = ServerConsistency::new(&protocol(), SERVER);
    let mut core = OriginCore::new(consistency, sizes, 100, RETRY, 20, batch);
    core.set_sites(SITES);
    core.enable_audit();
    core
}

/// The bare core, its clock and its timers.
struct Bare {
    core: OriginCore,
    batch: Option<InvalBatchConfig>,
    /// `true`: a restart is a new process (the daemon's); `false`: a crash
    /// that keeps the disk (the simulator's).
    blank_restart: bool,
    now: SimTime,
    timers: Vec<(SimTime, OriginTimer)>,
    out: Vec<OriginOut>,
    lost: Option<ClientId>,
    hits: Option<(ClientId, u64)>,
    log: Transcript,
}

impl Bare {
    fn run(batch: Option<InvalBatchConfig>, blank_restart: bool) -> Transcript {
        let mut bare = Bare {
            core: origin_core(batch),
            batch,
            blank_restart,
            now: SimTime::ZERO,
            timers: Vec::new(),
            out: Vec::new(),
            lost: None,
            hits: None,
            log: Transcript::default(),
        };
        for row in SCRIPT.iter().chain([&Row::Unknown]) {
            bare.log.pushed.push(Vec::new());
            bare.now += SimDuration::from_secs(10);
            bare.row(row);
            bare.settle();
        }
        bare.log.end = bare.core.snapshot();
        bare.log.audit = untimed(bare.core.audit_log());
        bare.log
    }

    fn row(&mut self, row: &Row) {
        match *row {
            Row::Get {
                at,
                client,
                doc,
                ims,
                hits,
                status,
            } => {
                let get = get_request(at, client, doc, ims, hits);
                let (reply, _) = self.core.serve(&get, self.now).expect("a known document");
                let sent = matches!(reply.status, ReplyStatus::Ok(_));
                assert_eq!(sent, status == 200, "row at {at}");
            }
            Row::Hit { .. } => {}
            Row::Writes { writes, lost, hits } => {
                (self.lost, self.hits) = (lost, hits);
                for &(at, doc) in writes {
                    self.core
                        .touch(url(doc), secs(at), self.now)
                        .expect("known");
                    self.core
                        .modify(url(doc), secs(at), secs(at), self.now, &mut self.out);
                }
                self.deliver();
            }
            Row::Restart if self.blank_restart => {
                self.log.at_restart = self.core.snapshot();
                self.timers.clear();
                self.core = origin_core(self.batch);
                self.core.recover_unknown_sites();
                for site in 0..SITES {
                    let (now, out) = (self.now, &mut self.out);
                    let said = self
                        .core
                        .on_site_frame(None, hello(site), now, out, |_, _| ());
                    assert_eq!(said, SiteVerdict::Registered(site));
                }
                self.deliver();
            }
            Row::Restart => {
                self.core.crash();
                self.core.recover(self.now, &mut self.out);
                self.deliver();
            }
            Row::Unknown => {
                assert_eq!(self.core.touch(url(DOCS), secs(1), self.now), None);
                let get = get_request(1, A, DOCS, None, 3);
                assert_eq!(self.core.serve(&get, self.now), None);
                let ack = HttpMsg::InvalAck {
                    url: url(DOCS),
                    client: A,
                    cache_hits: 3,
                };
                let site = Some(A.partition(SITES));
                let (now, out, mut acked) = (self.now, &mut self.out, 0);
                let said = self
                    .core
                    .on_site_frame(site, ack, now, out, |_, _| acked += 1);
                // An entry for no document is skipped: nothing acknowledged.
                assert_eq!((said, acked), (SiteVerdict::Applied, 0));
            }
        }
    }

    /// Puts what the core asked for on the transcript and the timer list,
    /// then acknowledges it, in order.
    fn deliver(&mut self) {
        let mut pushed = Vec::new();
        let asked = std::mem::take(&mut self.out);
        for (site, frame) in frames(asked, self.now, &mut self.timers) {
            let entries = copies(&frame);
            let names = |who: ClientId| entries.iter().any(|&(_, c)| c == who);
            let acked = match self.lost {
                Some(who) if names(who) => {
                    self.lost = None;
                    None
                }
                _ => Some(entries.iter().map(|&(_, c)| self.report(c)).collect()),
            };
            pushed.push(Pushed { site, frame, acked });
        }
        for push in pushed {
            if let Some(ack) = push.ack() {
                let (from, now, out) = (Some(push.site), self.now, &mut self.out);
                let said = self.core.on_site_frame(from, ack, now, out, |_, _| ());
                assert_eq!(said, SiteVerdict::Applied, "its own site");
            }
            self.log.pushed.last_mut().expect("a row").push(push);
        }
    }

    /// The §7 report on `client`'s next acknowledgement.
    fn report(&mut self, client: ClientId) -> u64 {
        match self.hits {
            Some((who, hits)) if who == client => {
                self.hits = None;
                hits
            }
            _ => 0,
        }
    }

    /// Lets every armed timer come due, earliest first, before the next
    /// row — as the rows' spacing does for the other two drivers.
    fn settle(&mut self) {
        while let Some(next) = (0..self.timers.len()).min_by_key(|&i| self.timers[i]) {
            let (due, timer) = self.timers.swap_remove(next);
            self.now = self.now.max(due);
            self.core.on_timer(timer, self.now, &mut self.out);
            self.deliver();
        }
    }
}

fn get_request(at: u64, client: ClientId, doc: u32, ims: Option<u64>, hits: u64) -> GetRequest {
    GetRequest {
        req: RequestId::new(at),
        url: url(doc),
        client,
        ims: ims.map(secs),
        issued_at: secs(at),
        cache_hits: hits,
    }
}

// ---- the simulator ----

/// Every link is 100 ms and wide enough that size does not matter; retries
/// and the age bound come due well inside the wall time between two rows.
fn deployment(batch: Option<InvalBatchConfig>, faults: &FaultPlan) -> Deployment {
    let requests = SCRIPT.iter().filter_map(|row| match *row {
        Row::Get {
            at, client, doc, ..
        }
        | Row::Hit { at, client, doc } => Some(TraceRecord {
            at: secs(at),
            client,
            url: url(doc),
        }),
        _ => None,
    });
    let writes = SCRIPT.iter().flat_map(|row| match row {
        Row::Writes { writes, .. } => *writes,
        _ => &[],
    });
    let trace = Trace {
        name: "scripted".into(),
        server: SERVER,
        duration: SimDuration::from_secs(9600),
        doc_sizes: vec![ByteSize::from_kib(1); DOCS as usize],
        records: requests.collect(),
    };
    let mods = writes.map(|&(at, doc)| Modification { at: secs(at), doc });
    let mods = ModSchedule::from_modifications(DOCS, mods.collect());
    let options = DeploymentOptions {
        num_proxies: SITES,
        network: NetworkConfig::uniform(LinkSpec::new(SimDuration::from_millis(100), 1 << 30)),
        retry_interval: RETRY,
        inval_batch: batch,
        audit: true,
        ..DeploymentOptions::default()
    };
    let mut d = Deployment::build(&trace, &mods, &protocol(), options);
    d.apply_faults(faults);
    d.run();
    d
}

/// Runs the script with the lost acknowledgement and the restart placed
/// from dry runs: nothing before either instant depends on the fault.
fn simulate(batch: Option<InvalBatchConfig>) -> Deployment {
    let ms = SimDuration::from_millis;
    let dry = deployment(batch, &FaultPlan::new());
    let (origin, site_b) = (dry.origin_id(), dry.proxy_ids()[1]);
    // B's invalidation is on the wire when the link goes: its ack is lost.
    let sent = |e: &&AuditEvent| matches!(e, AuditEvent::InvalidateSend { client: B, .. });
    let log = dry.origin().core().audit_log();
    let sent = log.iter().find(sent).expect("sent").at();
    let faults = FaultPlan::new().partition(origin, site_b, sent + ms(50), sent + ms(150));
    // Down once the three-write round is acknowledged and its timers fired.
    let dry = deployment(batch, &faults);
    let acked =
        |e: &&AuditEvent| matches!(e, AuditEvent::InvalidateAck { url, .. } if url.doc() == 2);
    let log = dry.origin().core().audit_log();
    let acked = log.iter().rfind(acked).expect("acked").at();
    deployment(
        batch,
        &faults.outage(origin, acked + ms(600), acked + ms(800)),
    )
}

fn simulated_origin_conforms(batch: Option<InvalBatchConfig>) {
    let bare = Bare::run(batch, false);
    let d = simulate(batch);
    let raw = d.collect();
    assert!(raw.finished && raw.writes_complete);
    assert_eq!((raw.stale_hits, raw.final_violations), (0, 0));
    let origin = d.origin();
    assert_eq!(untimed(origin.core().audit_log()), bare.audit);
    // `Row::Unknown` counts nothing, so the bare run's end is the script's.
    assert_eq!(origin.core().snapshot(), bare.end);
    // The report's rows are fed by those counters.
    assert_eq!(
        (raw.invalidations, raw.invalidation_retries, raw.acks),
        (bare.end.invalidations, 1, bare.end.acks)
    );
    assert_eq!((raw.bulk_invalidations, raw.notifies), (2, 5));
    assert_eq!((raw.metered_served, raw.metered_reported), (8, 2));
    assert_eq!(raw.requests, raw.metered_served + raw.metered_reported);
    let audit = d.audit();
    assert!(audit.is_clean(), "{audit}");
}

// ---- the daemon ----

/// A [`NetOrigin`] and the raw sockets of two proxies and a modifier.
struct Daemon {
    origin: NetOrigin,
    channels: Vec<Wire>,
    requests: Vec<Wire>,
    modifier: Wire,
}

impl Daemon {
    fn spawn(batch: Option<InvalBatchConfig>, at: Option<std::net::SocketAddr>) -> Daemon {
        let config = OriginConfig {
            server: SERVER,
            doc_sizes: vec![ByteSize::from_kib(1); DOCS as usize],
            protocol: protocol(),
            doc_scale: 100,
            inval_batch: batch,
        };
        let origin = match at {
            Some(addr) => NetOrigin::spawn_at(addr, config, true),
            None => NetOrigin::spawn(config),
        }
        .expect("origin");
        let register = |partition| {
            let mut channel = Wire::connect(origin.addr());
            channel.send(&hello(partition));
            channel
        };
        Daemon {
            channels: (0..SITES).map(register).collect(),
            requests: (0..SITES).map(|_| Wire::connect(origin.addr())).collect(),
            modifier: Wire::connect(origin.addr()),
            origin,
        }
    }

    /// Waits until the origin has counted `want(snapshot)`.
    fn reached(&self, want: impl Fn(&OriginCounters) -> bool) -> OriginCounters {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let snap = self.origin.snapshot();
            if want(&snap) || Instant::now() > deadline {
                return snap;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// Reads the frames a bare run pushed for one row off the sites' channels,
/// in its order, acknowledging what it had acknowledged.
fn expect(channels: &mut [Wire], pushed: &[Pushed]) {
    for push in pushed {
        let channel = &mut channels[push.site as usize];
        assert_eq!(channel.next().to_owned(), push.frame, "site {}", push.site);
        if let Some(ack) = push.ack() {
            channel.send(&ack);
        }
    }
}

fn daemon_conforms(batch: Option<InvalBatchConfig>) {
    let bare = Bare::run(batch, true);
    // What a site is pushed does not depend on how the origin restarted.
    assert_eq!(bare.pushed, Bare::run(batch, false).pushed);

    let mut daemon = Daemon::spawn(batch, None);
    let mut notified = 0;
    for (row, pushed) in SCRIPT.iter().zip(&bare.pushed) {
        match *row {
            Row::Get {
                at,
                client,
                doc,
                ims,
                hits,
                status,
            } => {
                let requests = &mut daemon.requests[client.partition(SITES) as usize];
                requests.send(&HttpMsg::Get(get_request(at, client, doc, ims, hits)));
                let sent = match requests.next() {
                    HttpMsgRef::Reply(reply) => matches!(reply.status, ReplyStatusRef::Ok { .. }),
                    other => panic!("expected a reply, got {other:?}"),
                };
                assert_eq!(sent, status == 200, "row at {at}");
            }
            Row::Hit { .. } | Row::Unknown => {}
            Row::Writes { writes, .. } => {
                let notify = |&(at, doc)| HttpMsg::Notify {
                    url: url(doc),
                    at: secs(at),
                };
                let notifies: Vec<_> = writes.iter().map(notify).collect();
                daemon.modifier.send_all(&notifies);
                notified += writes.len() as u64;
            }
            Row::Restart => {
                let want = &bare.at_restart;
                let snap = daemon.reached(|s| (s.acks, s.notifies) == (want.acks, notified));
                assert_eq!(&snap, want);
                let addr = daemon.origin.addr();
                drop(daemon);
                daemon = Daemon::spawn(batch, Some(addr));
                notified = 0;
            }
        }
        expect(&mut daemon.channels, pushed);
    }
    let snap = daemon.reached(|s| (s.acks, s.notifies) == (bare.end.acks, notified));
    assert_eq!(snap, bare.end);
    assert!(snap.writes_complete && daemon.origin.recovery_complete());
    assert_eq!((snap.metered_served, snap.metered_reported), (1, 1));

    // A hostile id closes the connection it came in on, and counts nothing.
    daemon.modifier.send(&HttpMsg::Notify {
        url: url(DOCS),
        at: secs(1),
    });
    daemon.modifier.assert_closed();
    daemon.requests[0].send(&HttpMsg::Get(get_request(1, A, DOCS, None, 3)));
    daemon.requests[0].assert_closed();
    let ack = HttpMsg::InvalAck {
        url: url(DOCS),
        client: A,
        cache_hits: 3,
    };
    // Answered on the connection the ack came in on, so behind it.
    let barrier = HttpMsg::Get(get_request(2, A, 0, None, 0));
    daemon.channels[0].send_all(&[ack, barrier]);
    assert!(matches!(daemon.channels[0].next(), HttpMsgRef::Reply(_)));
    let after = daemon.origin.snapshot();
    assert_eq!(
        (
            after.gets,
            after.metered_reported,
            after.acks,
            after.notifies
        ),
        (
            snap.gets + 1,
            snap.metered_reported,
            snap.acks,
            snap.notifies
        )
    );
    for channel in &mut daemon.channels {
        channel.assert_quiet();
    }
}

#[test]
fn the_script_does_what_its_rows_say() {
    let per_write = Bare::run(None, false);
    let c = &per_write.end;
    assert_eq!((c.gets, c.ims, c.replies_200, c.replies_304), (7, 1, 7, 1));
    // A+B, B again, A for each write to document 1, A+B, then B alone.
    assert_eq!((c.invalidations, c.invalidation_retries), (8, 1));
    assert_eq!((c.acks, c.bulk_invalidations, c.notifies), (7 + 2, 2, 5));
    assert_eq!(
        (c.inval_batches, c.gave_up, c.writes_complete),
        (0, 0, true)
    );
    assert_eq!((c.metered_served, c.metered_reported), (8, 2));

    let batched = Bare::run(Some(batching()), false);
    let c = &batched.end;
    // The second write to document 1 coalesced: one entry fewer, and five
    // rounds — two, two and the age-flushed one — for seven copies.
    assert_eq!((c.invalidations, c.invalidation_retries), (7, 1));
    assert_eq!((c.inval_batches, c.batched_entries), (5, 6));
    assert_eq!((c.coalesced_invalidations, c.acks), (1, 6 + 2));
    let round = &batched.pushed[9];
    assert_eq!(round.len(), 2, "one batch per site: {round:?}");
    let entry = |doc| BatchEntry {
        url: url(doc),
        client: A,
    };
    let entries = vec![entry(1), entry(2)];
    let batch = HttpMsg::InvalidateBatch {
        server: SERVER,
        entries,
    };
    assert_eq!(round[0].frame, batch);
}

#[test]
fn simulated_origin_conforms_per_write() {
    simulated_origin_conforms(None);
}

#[test]
fn simulated_origin_conforms_batched() {
    simulated_origin_conforms(Some(batching()));
}

#[test]
fn daemon_conforms_per_write() {
    daemon_conforms(None);
}

#[test]
fn daemon_conforms_batched() {
    daemon_conforms(Some(batching()));
}

// ---- the parent leg ----

/// The two children: child `i` presents identity `i`, which lives on site
/// `i` (the simulator's hierarchy names them so).
const C0: ClientId = ClientId::from_raw(0);
const C1: ClientId = ClientId::from_raw(1);

/// Plain invalidation: a copy is good until its `INVALIDATE` arrives, so
/// every `GET` below is one the child could not answer itself.
fn parent_protocol() -> ProtocolConfig {
    ProtocolConfig::new(ProtocolKind::Invalidation)
}

/// One step of the parent script; `at` is a trace second. Steps are a
/// lock-step window or more apart, a write's successor far enough for its
/// re-send to be acknowledged first (an idle window is 200 ms of wall time).
enum Step {
    /// `client`'s cache misses `doc` and asks the parent.
    Get { at: u64, client: ClientId, doc: u32 },
    /// The origin modifies `doc` and tells the parent, which relays to the
    /// children holding it. `lost`: the child whose first acknowledgement is
    /// lost. `down`: the child whose channel is down when the relay leaves
    /// (a partition in the simulator, a closed socket and a later `HELLO`
    /// over TCP) and back up before the write path gives up.
    Write {
        at: u64,
        doc: u32,
        lost: Option<ClientId>,
        down: Option<ClientId>,
    },
}

const PARENT_SCRIPT: [Step; 7] = [
    Step::get(10, C0, 0),
    Step::get(310, C1, 0),
    Step::get(610, C0, 1),
    // Both children hold document 0; C1's acknowledgement is lost.
    Step::Write {
        at: 1210,
        doc: 0,
        lost: Some(C1),
        down: None,
    },
    // Only C0 holds document 1: nothing is relayed to C1.
    Step::Write {
        at: 3010,
        doc: 1,
        lost: None,
        down: None,
    },
    Step::get(4210, C1, 0),
    // Only C1 holds document 0 now, and its channel is down.
    Step::Write {
        at: 4810,
        doc: 0,
        lost: None,
        down: Some(C1),
    },
];

impl Step {
    const fn get(at: u64, client: ClientId, doc: u32) -> Step {
        Step::Get { at, client, doc }
    }
}

/// The bare parent core with two children as its sites, driven as both
/// parents drive it: every child `GET` through [`ParentCore::child_get`],
/// a miss answered by an origin that leases for ever, every write pushed
/// to the parent's identity and relayed at the latest trace time a child
/// request carried.
struct BareParent {
    core: ParentCore<()>,
    /// `true`: a child whose channel was down says `HELLO` (the daemon's
    /// children); `false`: its link heals after the first re-send was lost
    /// too (the simulator's partition).
    rehello: bool,
    now: SimTime,
    latest: SimTime,
    timers: Vec<(SimTime, OriginTimer)>,
    out: Vec<OriginOut>,
    lost: Option<ClientId>,
    down: Option<u32>,
    log: Transcript,
}

/// The identity both parents present to the origin.
const PARENT: ClientId = ClientId::from_raw(0);

impl BareParent {
    fn run(rehello: bool) -> Transcript {
        let consistency = ServerConsistency::new(&parent_protocol(), SERVER);
        let mut path = WritePath::new(consistency, 100, RETRY, 20, None);
        path.set_sites(SITES);
        path.enable_audit();
        let cache = CacheStore::unbounded(ReplacementPolicy::Lru);
        let fetch = ProxyCore::new(ProxyPolicy::new(&parent_protocol()), cache);
        let mut bare = BareParent {
            core: ParentCore::new(PARENT, fetch, path),
            rehello,
            now: SimTime::ZERO,
            latest: SimTime::ZERO,
            timers: Vec::new(),
            out: Vec::new(),
            lost: None,
            down: None,
            log: Transcript::default(),
        };
        for step in &PARENT_SCRIPT {
            bare.log.pushed.push(Vec::new());
            bare.now += SimDuration::from_secs(10);
            bare.step(step);
        }
        bare.log.end = bare.core.down().snapshot();
        bare.log.audit = untimed(bare.core.down().audit_log());
        bare.log
    }

    fn step(&mut self, step: &Step) {
        match *step {
            Step::Get { at, client, doc } => {
                self.latest = self.latest.max(secs(at));
                let get = get_request(at, client, doc, None, 0);
                let mut reply = self.core.child_get(get, self.now, || (), &mut self.out);
                if let Some(OriginOut::Up(HttpMsg::Get(up))) = self.out.pop() {
                    assert_eq!(up.client, PARENT);
                    let fresh = UpstreamReply {
                        meta: Some(DocMeta::new(ByteSize::from_kib(1), SimTime::ZERO)),
                        lease: Some(SimDuration::MAX),
                        volume_lease: None,
                        piggyback: Vec::new(),
                    };
                    let landed = self.core.landed(up.req, &fresh, self.now, &mut self.out);
                    reply = landed.map(|(reply, ())| reply);
                }
                let reply = reply.expect("answered from the parent's copy");
                assert!(matches!(reply.status, ReplyStatus::Ok(_)));
                assert_eq!(
                    (reply.client, reply.lease),
                    (client, Some(SimDuration::MAX))
                );
            }
            Step::Write {
                doc, lost, down, ..
            } => {
                (self.lost, self.down) = (lost, down.map(|c| c.partition(SITES)));
                let push = HttpMsg::Invalidate {
                    url: url(doc),
                    client: PARENT,
                };
                let (latest, now) = (self.latest, self.now);
                assert_eq!(self.core.pushed(push, latest, now, &mut self.out), Some(1));
                assert!(matches!(
                    self.out.first(),
                    Some(OriginOut::Up(HttpMsg::InvalAck { client: PARENT, .. }))
                ));
                self.deliver();
                if let Some(site) = self.down.filter(|_| self.rehello) {
                    self.down = None;
                    let said = self
                        .core
                        .on_site_frame(None, hello(site), now, &mut self.out);
                    assert_eq!(said, SiteVerdict::Registered(site));
                    self.deliver();
                }
                // Every armed timer comes due before the next step; the
                // first tick still finds a partitioned child's link down.
                while let Some(next) = (0..self.timers.len()).min_by_key(|&i| self.timers[i]) {
                    let (due, timer) = self.timers.swap_remove(next);
                    self.now = self.now.max(due);
                    self.core
                        .down_mut()
                        .on_timer(timer, self.now, &mut self.out);
                    self.deliver();
                    self.down = None;
                }
            }
        }
    }

    /// Puts the frames that reach a child on the transcript, then
    /// acknowledges them, in order; a frame for a child whose channel is
    /// down goes nowhere.
    fn deliver(&mut self) {
        let asked = std::mem::take(&mut self.out);
        let mut reached = frames(asked, self.now, &mut self.timers);
        reached.retain(|(site, _)| self.down != Some(*site));
        for (site, frame) in reached {
            let lost = copies(&frame).iter().any(|&(_, c)| self.lost == Some(c));
            let acked = (!lost).then(|| vec![0]);
            let push = Pushed { site, frame, acked };
            if let Some(ack) = push.ack() {
                let said = self
                    .core
                    .on_site_frame(Some(site), ack, self.now, &mut self.out);
                assert_eq!(said, SiteVerdict::Applied, "its own site");
            }
            self.lost = self.lost.filter(|_| !lost);
            self.log.pushed.last_mut().expect("a step").push(push);
        }
    }
}

/// What the parent script's `Get`s and `Write`s are to a [`Deployment`].
fn hierarchy(faults: &FaultPlan) -> Deployment {
    let requests = PARENT_SCRIPT.iter().filter_map(|step| match *step {
        Step::Get { at, client, doc } => Some(TraceRecord {
            at: secs(at),
            client,
            url: url(doc),
        }),
        Step::Write { .. } => None,
    });
    let writes = PARENT_SCRIPT.iter().filter_map(|step| match *step {
        Step::Write { at, doc, .. } => Some(Modification { at: secs(at), doc }),
        Step::Get { .. } => None,
    });
    let trace = Trace {
        name: "scripted".into(),
        server: SERVER,
        duration: SimDuration::from_secs(6000),
        doc_sizes: vec![ByteSize::from_kib(1); DOCS as usize],
        records: requests.collect(),
    };
    let mods = ModSchedule::from_modifications(DOCS, writes.collect());
    let options = DeploymentOptions {
        num_proxies: SITES,
        topology: Topology::Hierarchy,
        network: NetworkConfig::uniform(LinkSpec::new(SimDuration::from_millis(100), 1 << 30)),
        retry_interval: RETRY,
        audit: true,
        ..DeploymentOptions::default()
    };
    let mut d = Deployment::build(&trace, &mods, &parent_protocol(), options);
    d.apply_faults(faults);
    d.run();
    d
}

#[test]
fn simulated_parent_conforms() {
    let bare = BareParent::run(false);
    let ms = SimDuration::from_millis;
    // The faults are placed from dry runs, as for the origin: C1's first
    // relay is on the wire when its link goes (the ack is lost); its last
    // one and the re-send 250 ms later both find the link down.
    let relays = |d: &Deployment| -> Vec<SimTime> {
        let to_c1 = |e: &&AuditEvent| matches!(e, AuditEvent::InvalidateSend { client: C1, .. });
        let log = d.parent().expect("parent").core().down().audit_log();
        log.iter().filter(to_c1).map(AuditEvent::at).collect()
    };
    let dry = hierarchy(&FaultPlan::new());
    let (parent, c1) = (dry.parent_id().expect("parent"), dry.proxy_ids()[1]);
    let first = relays(&dry)[0];
    let faults = FaultPlan::new().partition(parent, c1, first + ms(50), first + ms(150));
    let last = *relays(&hierarchy(&faults)).last().expect("relayed");
    let d = hierarchy(&faults.partition(parent, c1, last - ms(50), last + ms(300)));

    let node = d.parent().expect("parent");
    assert_eq!(untimed(node.core().down().audit_log()), bare.audit);
    assert_eq!(node.core().down().snapshot(), bare.end);
    assert_eq!(
        node.core().counters().invalidations_relayed,
        bare.end.invalidations
    );
    let raw = d.collect();
    assert!(raw.finished && raw.writes_complete && bare.end.writes_complete);
    assert_eq!((raw.stale_hits, raw.final_violations), (0, 0));
    // The origin told one site, once per write; every child `GET` was a miss.
    assert_eq!((raw.invalidations, raw.invalidation_retries), (3, 0));
    assert_eq!((raw.requests, raw.hits), (4, 0));
}

#[test]
fn tcp_parent_conforms() {
    let bare = BareParent::run(true);
    // What reaches a child does not depend on how its channel came back.
    assert_eq!(bare.pushed, BareParent::run(false).pushed);
    let c = &bare.end;
    // Both, C1 again; C0 alone; C1 into the void, then on its `HELLO`.
    assert_eq!((c.invalidations, c.invalidation_retries), (6, 2));
    assert_eq!((c.gets, c.acks, c.gave_up), (4, 4, 0));
    let sent = |site| {
        let to_site = |p: &&Pushed| p.site == site;
        let reached = bare.pushed.iter().flatten().filter(to_site);
        reached.map(|p| p.frame.clone()).collect::<Vec<_>>()
    };
    let relay = |doc, client| HttpMsg::Invalidate {
        url: url(doc),
        client,
    };
    assert_eq!(sent(0), [relay(0, C0), relay(1, C0)]);
    assert_eq!(sent(1), [relay(0, C1), relay(0, C1), relay(0, C1)]);

    let upstream = common::ScriptedUpstream::bind();
    let capacity = ByteSize::from_mib(64);
    let parent = NetParent::spawn(upstream.addr(), &parent_protocol(), SERVER, capacity);
    let parent = parent.expect("parent");
    let mut origin = upstream.accept_node();
    let register = |partition| {
        let mut channel = Wire::connect(parent.addr());
        channel.send(&hello(partition));
        channel
    };
    let mut channels: Vec<Wire> = (0..SITES).map(register).collect();
    let mut requests: Vec<Wire> = (0..SITES).map(|_| Wire::connect(parent.addr())).collect();
    // The documents the parent holds, and the identity it asks for them in.
    let (mut held, mut identity) = (Vec::new(), None);
    for (step, pushed) in PARENT_SCRIPT.iter().zip(&bare.pushed) {
        match *step {
            Step::Get { at, client, doc } => {
                let child = &mut requests[client.partition(SITES) as usize];
                child.send(&HttpMsg::Get(get_request(at, client, doc, None, 0)));
                if !held.contains(&doc) {
                    let asked = origin.recv_get();
                    identity = Some(asked.client);
                    origin.reply_200(&asked, secs(at));
                    held.push(doc);
                }
                assert_eq!(child.recv_200().0, at);
            }
            Step::Write { doc, down, .. } => {
                let down = down.map(|c| c.partition(SITES));
                if let Some(site) = down {
                    // Closed; the replacement registers only after the relay.
                    channels[site as usize] = Wire::connect(parent.addr());
                }
                origin.send(&HttpMsg::Invalidate {
                    url: url(doc),
                    client: identity.expect("asked before"),
                });
                assert!(matches!(
                    origin.next(),
                    HttpMsgRef::Owned(HttpMsg::InvalAck { .. })
                ));
                held.retain(|&d| d != doc);
                if let Some(site) = down {
                    channels[site as usize].send(&hello(site));
                }
            }
        }
        expect(&mut channels, pushed);
    }
    // The last acknowledgement is behind this `GET` on its connection.
    channels[1].send(&HttpMsg::Get(get_request(1, C1, 2, None, 0)));
    let asked = origin.recv_get();
    origin.reply_200(&asked, secs(1));
    assert_eq!(channels[1].recv_200().0, 1);
    assert_eq!(
        parent.counters().parent.invalidations_relayed,
        c.invalidations
    );
    for channel in &mut channels {
        channel.assert_quiet();
    }
}

// ---- sim_vs_tcp.rs: a whole trace, no modifications, one proxy ----

fn crosscheck(kind: ProtocolKind) {
    let spec = TraceSpec::sdsc().scaled_down(150);
    let trace = synthetic::generate(&spec, 13);
    let mods = ModSchedule::none(spec.num_docs);
    let cfg = ProtocolConfig::new(kind);

    // Simulator, one pseudo-client.
    let mut options = DeploymentOptions::default();
    options.num_proxies = 1;
    let mut deployment = Deployment::build(&trace, &mods, &cfg, options);
    deployment.run();
    let sim = deployment.collect();

    // Real TCP, one proxy, same sequential request order.
    let origin = NetOrigin::spawn(OriginConfig {
        server: trace.server,
        doc_sizes: trace.doc_sizes.clone(),
        protocol: cfg.clone(),
        doc_scale: 100,
        inval_batch: None,
    })
    .expect("origin");
    let proxy = NetProxy::spawn(origin.addr(), &cfg, 0, 1, ByteSize::from_gib(4)).expect("proxy");
    std::thread::sleep(Duration::from_millis(50));
    for rec in &trace.records {
        proxy
            .fetch(rec.client, rec.url, rec.at)
            .expect("fetch over loopback");
    }
    let net = proxy.counters();

    assert_eq!(net.requests, sim.requests, "{kind}: requests");
    assert_eq!(net.hits, sim.hits, "{kind}: hits");
    assert_eq!(net.gets_sent, sim.gets, "{kind}: GETs");
    assert_eq!(net.ims_sent, sim.ims, "{kind}: IMS");
    assert_eq!(net.replies_200, sim.replies_200, "{kind}: 200s");
    assert_eq!(net.replies_304, sim.replies_304, "{kind}: 304s");
    // The two origins are one core: every counter, the §7 meter and the
    // site lists come out equal.
    let snap = origin.snapshot();
    assert_eq!(snap, deployment.origin().core().snapshot(), "{kind}");
    assert_eq!(
        (snap.gets, snap.ims, snap.sitelist.total_entries),
        (sim.gets, sim.ims, sim.sitelist.total_entries),
        "{kind}: the origin's view"
    );
}

#[test]
fn adaptive_ttl_counters_agree() {
    crosscheck(ProtocolKind::AdaptiveTtl);
}

#[test]
fn polling_counters_agree() {
    crosscheck(ProtocolKind::PollEveryTime);
}

#[test]
fn invalidation_counters_agree() {
    crosscheck(ProtocolKind::Invalidation);
}

#[test]
fn two_tier_counters_agree() {
    crosscheck(ProtocolKind::TwoTierLease);
}
