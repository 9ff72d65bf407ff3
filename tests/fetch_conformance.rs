//! Driver conformance: one scripted sequence — miss, hit, `IMS`→`304`, an
//! invalidation overtaking a reply, a timeout retransmit, a bulk
//! invalidation mid-flight, a `304` after an eviction — is fed to a bare
//! [`ProxyCore`] (with a model origin that answers at once) and to a
//! one-proxy [`Deployment`] (where the same incidents are made to happen
//! with link latencies, a write and origin outages). The simulator's proxy
//! is a driver of that core, so its [`FetchCounters`] must come out equal,
//! and the [`RawReport`] rows they feed with them.

use wcc_cache::{CacheStore, ReplacementPolicy};
use wcc_core::{
    Begin, Complete, FetchCounters, ProtocolConfig, ProtocolKind, ProxyCore, ProxyPolicy,
    ServerConsistency, UpstreamReply,
};
use wcc_httpsim::{CacheSharing, Deployment, DeploymentOptions, RawReport};
use wcc_obs::{Phase, SpanKind};
use wcc_proto::{GetRequest, HttpMsg};
use wcc_simnet::{FaultPlan, LinkSpec, NetworkConfig};
use wcc_traces::{ModSchedule, Modification, Trace, TraceRecord};
use wcc_types::{ByteSize, ClientId, DocMeta, NodeId, ServerId, SimDuration, SimTime, Url};

const SERVER: ServerId = ServerId::new(0);
const CLIENT: ClientId = ClientId::from_raw(5);
/// Every copy is leased for this long (trace time).
const LEASE: u64 = 1000;

/// Documents 0–2 are small; document 3 takes four seconds on the wire.
fn doc_sizes() -> Vec<ByteSize> {
    let mut sizes = vec![ByteSize::from_kib(1); 3];
    sizes.push(ByteSize::from_bytes(4_000_000));
    sizes
}

fn url(doc: u32) -> Url {
    Url::new(SERVER, doc)
}

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

fn protocol() -> ProtocolConfig {
    ProtocolConfig::new(ProtocolKind::LeaseInvalidation).with_lease(SimDuration::from_secs(LEASE))
}

/// What happens to a request on its way.
#[derive(Clone, Copy)]
enum Incident {
    /// Nothing: a miss, a hit or a validation, as the cache stands.
    None,
    /// The document is written (trace time) while its validation is in
    /// flight: the `INVALIDATE` overtakes the reply.
    Written(u64),
    /// The document was written earlier in the window, behind another
    /// request: the `INVALIDATE` is in before this one is issued.
    WrittenBefore(u64),
    /// The origin is down when the request arrives and back before its
    /// retransmit does; the recovery's bulk `INVALIDATE` then overtakes the
    /// retransmit's reply.
    OutageThenBulk,
    /// The origin answers, restarts, and its bulk `INVALIDATE` overtakes
    /// the answer still on the wire.
    BulkOvertakesReply,
}

/// `(trace time, document, incident)` per request, one lock-step window
/// apart unless they are meant to share one.
type Row = (u64, u32, Incident);
const SCRIPT: [Row; 9] = [
    (10, 0, Incident::None), // miss
    (20, 0, Incident::None), // hit
    (50, 1, Incident::None), // miss, leased until 1050
    // Leased at the write, lapsed at the read: IMS out, INVALIDATE in.
    (1100, 1, Incident::Written(1000)),
    (1300, 0, Incident::None), // IMS -> 304
    (1600, 2, Incident::OutageThenBulk),
    (1900, 3, Incident::BulkOvertakesReply),
    (2200, 0, Incident::None), // questionable since the bulk: IMS -> 304
    // Only a copy the restarted origin knows of gets invalidated.
    (2250, 3, Incident::WrittenBefore(2150)),
];

/// The bare core and an origin model that answers in the same instant. The
/// node's clock the core is told is the trace's (auditing is off).
struct Bare {
    core: ProxyCore<()>,
    server: ServerConsistency,
    versions: Vec<SimTime>,
}

impl Bare {
    fn new() -> Bare {
        let cache = CacheStore::new(ByteSize::from_gib(4), ReplacementPolicy::ExpiredFirstLru);
        Bare {
            core: ProxyCore::new(ProxyPolicy::new(&protocol()), cache),
            server: ServerConsistency::new(&protocol(), SERVER),
            versions: vec![SimTime::ZERO; doc_sizes().len()],
        }
    }

    fn answer(&mut self, get: &GetRequest) -> UpstreamReply {
        let doc = get.url.doc() as usize;
        let meta = DocMeta::new(doc_sizes()[doc], self.versions[doc]);
        let grant = self
            .server
            .on_get(get.url, get.client, get.ims, meta, get.issued_at);
        // Scaled to nothing: the core keeps no bodies.
        grant.into_reply(get, meta, u64::MAX).into()
    }

    /// Lands `reply` on `get`'s flight and answers every re-forward.
    fn land(&mut self, mut get: GetRequest, mut reply: UpstreamReply) {
        loop {
            match self
                .core
                .complete(get.req, &reply, get.issued_at)
                .expect("an open flight")
            {
                Complete::Done { .. } => return,
                Complete::Forward(again) => get = again,
            }
            reply = self.answer(&get);
        }
    }

    fn restart_origin(&mut self, now: SimTime) {
        self.server.on_server_recover();
        let bulk = HttpMsg::InvalidateServer { server: SERVER };
        self.core.on_push(bulk, None, now).expect("a push");
    }

    fn write(&mut self, doc: u32, at: u64) {
        self.versions[doc as usize] = secs(at);
        for site in self.server.on_modify(url(doc), secs(at)) {
            let push = HttpMsg::Invalidate {
                url: url(doc),
                client: site,
            };
            let ack = self.core.on_push(push, None, secs(at)).expect("a push");
            for e in ack.acked() {
                self.server.on_inval_ack(e.url, e.client);
            }
        }
    }

    fn row(&mut self, at: u64, doc: u32, incident: Incident) {
        if let Incident::WrittenBefore(written) = incident {
            self.write(doc, written);
        }
        let get = match self.core.begin(CLIENT, url(doc), secs(at), secs(at), || ()) {
            Begin::Serve(_) => return assert!(matches!(incident, Incident::None)),
            Begin::Forward(get) => get,
        };
        match incident {
            Incident::None | Incident::WrittenBefore(_) => {
                let reply = self.answer(&get);
                self.land(get, reply);
            }
            Incident::Written(written) => {
                self.write(doc, written);
                let reply = self.answer(&get);
                self.land(get, reply);
            }
            Incident::OutageThenBulk => {
                let again = self.core.retransmit(get.req).expect("an open flight");
                self.restart_origin(secs(at));
                let reply = self.answer(&again);
                self.land(again, reply);
            }
            Incident::BulkOvertakesReply => {
                let reply = self.answer(&get);
                self.restart_origin(secs(at));
                self.land(get, reply);
            }
        }
    }
}

/// Proxy ↔ origin is one second each way; everything else (coordinator,
/// modifier check-ins) a tenth of that, so a write's `INVALIDATE` is on its
/// way before the request of the same window reaches the origin.
fn network(origin: NodeId, proxy: NodeId) -> NetworkConfig {
    let mut net = NetworkConfig::uniform(LinkSpec::new(SimDuration::from_millis(100), 1_000_000));
    let second = LinkSpec::new(SimDuration::from_secs(1), 1_000_000);
    net.set_link(origin, proxy, second)
        .set_link(proxy, origin, second);
    net
}

fn deployment(script: &[Row], sharing: CacheSharing) -> Deployment {
    let trace = Trace {
        name: "scripted".into(),
        server: SERVER,
        duration: SimDuration::from_secs(2400),
        doc_sizes: doc_sizes(),
        records: script
            .iter()
            .map(|&(at, doc, _)| TraceRecord {
                at: secs(at),
                client: CLIENT,
                url: url(doc),
            })
            .collect(),
    };
    let writes = script.iter().filter_map(|&(_, doc, incident)| {
        let (Incident::Written(at) | Incident::WrittenBefore(at)) = incident else {
            return None;
        };
        Some(Modification { at: secs(at), doc })
    });
    let mods = ModSchedule::from_modifications(doc_sizes().len() as u32, writes.collect());
    let (origin, proxy) = (NodeId::new(0), NodeId::new(1));
    let options = DeploymentOptions {
        num_proxies: 1,
        network: network(origin, proxy),
        // Clear of the two-second ack round trip, so no bulk is sent twice.
        retry_interval: SimDuration::from_secs(5),
        sharing,
        audit: true,
        trace: true,
        ..DeploymentOptions::default()
    };
    let d = Deployment::build(&trace, &mods, &protocol(), options);
    assert_eq!((d.origin_id(), d.proxy_ids()), (origin, &[proxy][..]));
    d
}

/// Wall time at which the proxy first sent row `row`'s request upstream
/// (request spans are numbered in trace order).
fn sent_at(d: &Deployment, row: usize) -> SimTime {
    let log = d.trace_log();
    let sent = |e: &&wcc_obs::TraceEvent| {
        (e.kind, e.phase, e.span) == (SpanKind::Request, Phase::Upstream, row as u64)
    };
    log.iter().find(sent).expect("request sent").at
}

/// Runs `script` with an origin outage placed, for each row that asks for
/// one, relative to the instant its request left (found by a dry run:
/// nothing before that instant depends on the outage).
fn run(script: &[Row], sharing: CacheSharing, outage: [u64; 2]) -> Deployment {
    let mut faults = FaultPlan::new();
    loop {
        let mut d = deployment(script, sharing);
        d.apply_faults(&faults);
        d.run();
        let placed = faults.len() / 2;
        let outage_row = |(_, row): &(usize, &Row)| {
            matches!(
                row.2,
                Incident::OutageThenBulk | Incident::BulkOvertakesReply
            )
        };
        let Some((row, &(_, _, incident))) =
            script.iter().enumerate().filter(outage_row).nth(placed)
        else {
            return d;
        };
        let sent = sent_at(&d, row);
        let ms = |ms: u64| sent + SimDuration::from_millis(ms);
        faults = match incident {
            // Arrives a second after it left; the retransmit leaves at +10 s.
            Incident::OutageThenBulk => faults.outage(d.origin_id(), ms(outage[0]), ms(outage[1])),
            // Answered at +1 s; the four-second body lands at +6 s.
            _ => faults.outage(d.origin_id(), ms(1500), ms(2500)),
        };
    }
}

fn fed_by(c: FetchCounters) -> [u64; 5] {
    [
        c.requests,
        c.hits,
        c.gets_sent,
        c.ims_sent,
        c.revalidation_races,
    ]
}

fn feeds(r: &RawReport) -> [u64; 5] {
    [r.requests, r.hits, r.gets, r.ims, r.revalidation_races]
}

#[test]
fn simulated_proxy_counts_what_the_bare_core_counts() {
    let mut bare = Bare::new();
    for &(at, doc, incident) in &SCRIPT {
        bare.row(at, doc, incident);
    }
    let expected = bare.core.counters();
    // The script did what its rows say.
    assert_eq!((expected.requests, expected.hits), (9, 4));
    assert_eq!(
        (expected.gets_sent, expected.ims_sent),
        (2 + 1 + 3 + 2 + 1, 3)
    );
    assert_eq!((expected.replies_200, expected.replies_304), (6, 2));
    assert_eq!(expected.inval_races, 3);
    assert_eq!(
        (
            expected.invalidations_received,
            expected.bulk_invalidations_received
        ),
        (2, 2)
    );

    // Down from +0.5 s to +10.5 s: the request is lost, the retransmit is not.
    let d = run(&SCRIPT, CacheSharing::PerClient, [500, 10_500]);
    let raw = d.collect();
    let sim = d.proxy(0).core().counters();
    assert_eq!(sim, expected);
    assert_eq!(feeds(&raw), fed_by(expected));
    // The origin also counts the replies the proxy discarded.
    assert_eq!(
        raw.replies_200 + raw.replies_304,
        expected.replies_200 + expected.replies_304 + expected.inval_races
    );
    assert_eq!((raw.request_timeouts, raw.bulk_invalidations), (1, 2));
    assert!(raw.finished && raw.writes_complete);
    assert_eq!((raw.stale_hits, raw.final_violations), (0, 0));
    let audit = d.audit();
    assert!(audit.is_clean(), "{audit}");

    // The one row the sequential simulator cannot reach: with a single
    // request in flight nothing evicts the entry it is validating (no reply
    // piggybacks its own document). On the bare core a second flight does.
    let validate = match bare
        .core
        .begin(CLIENT, url(1), secs(2300), secs(2300), || ())
    {
        Begin::Forward(get) => get,
        Begin::Serve(_) => panic!("the lease lapsed at 2100"),
    };
    let Begin::Forward(other) = bare
        .core
        .begin(CLIENT, url(2), secs(3000), secs(3000), || ())
    else {
        panic!("the lease lapsed at 2600");
    };
    let mut evicting = bare.answer(&other);
    evicting.piggyback = vec![url(1)];
    bare.land(other, evicting);
    let not_modified = bare.answer(&validate);
    assert_eq!(not_modified.meta, None);
    bare.land(validate, not_modified);
    let c = bare.core.counters();
    assert_eq!((c.revalidation_races, raw.revalidation_races), (1, 0));
    assert_eq!(c.gets_sent, expected.gets_sent + 1);
}

/// A shared-identity proxy caches under its own identity, not the real
/// client's: a request it retransmits after a timeout must validate the
/// copy it holds (`IMS`, `304`), not fetch the body again.
#[test]
fn shared_cache_retransmit_validates_its_copy() {
    let script = [
        (10, 0, Incident::None),
        // The lease lapsed at 1010. Down from +0.5 s to +5 s: back (and its
        // bulk INVALIDATE in) well before the retransmit leaves at +10 s.
        (1300, 0, Incident::OutageThenBulk),
    ];
    let d = run(&script, CacheSharing::SharedPerProxy, [500, 5000]);
    let raw = d.collect();
    assert!(raw.finished);
    assert_eq!((raw.request_timeouts, raw.bulk_invalidations), (1, 1));
    assert_eq!((raw.gets, raw.ims), (1, 2), "the retransmit is an IMS too");
    assert_eq!((raw.replies_200, raw.replies_304), (1, 1));
    assert_eq!(d.proxy(0).core().counters().inval_races, 0);
}
