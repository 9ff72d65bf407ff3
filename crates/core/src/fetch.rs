//! The proxy-side fetch as a split state machine: one request in, at most
//! one upstream message out, one reply in, one answer out.
//!
//! [`ProxyCore`] owns what a caching node decides with — the
//! [`ProxyPolicy`], the [`CacheStore`], the table of upstream requests in
//! flight and the §7 hit reports waiting for a ride upstream — and no I/O:
//! [`ProxyCore::begin`] either serves from the cache or hands back the `GET`
//! to forward, [`ProxyCore::complete`] applies the reply that came back.
//! Whoever drives it (a reactor role, a blocking caller, a simulator actor)
//! does the sending, timing and accounting in between, so nothing here waits
//! and any number of flights may be open at once. [`ProxyCore::on_push`]
//! applies an invalidation from upstream and builds its ack. With auditing
//! on, each records what it served and dropped at the node's time `now`.
//! Every node driver runs the [`ProxyPolicy`] reply sequence through this
//! file; the only other caller is [`crate::analytical::simulate`], Table 1's
//! exact interpreter for one client and one document.
//!
//! The one rule for a reply that races an invalidation: an `INVALIDATE
//! <url>` — or a recovered origin's bulk `INVALIDATE <server>` — that
//! arrives while a request for such a copy is in flight *poisons* that
//! flight; its reply — which may carry the version, or a lease, from before
//! the write or the crash — is discarded and a plain `GET` goes out in its
//! place. The same re-forward covers a `304` whose entry was evicted while
//! it was being validated. A [`ProxyCore::retransmit`] leaves after the
//! invalidation arrived, so it starts clean.

use crate::proxy::{ProxyAction, ProxyPolicy};
use std::collections::VecDeque;
use wcc_cache::CacheStore;
use wcc_proto::{
    BatchAckEntry, BatchEntry, GetRequest, HttpMsg, Reply, ReplyRef, ReplyStatus, ReplyStatusRef,
    RequestId,
};
use wcc_types::AuditEvent::{self, BulkInvalidateDelivered, InvalidateDelivered};
use wcc_types::{ClientId, DocMeta, FxHashMap, ScopedUrl, SimDuration, SimTime, Url};

/// How a fetch was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchKind {
    /// Served straight from the cache, no origin contact.
    CacheHit,
    /// Validated with `If-Modified-Since`; origin said `304`.
    Validated,
    /// Transferred from the origin (`200`).
    Fetched,
}

/// The result of one fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchOutcome {
    /// How the request was satisfied.
    pub kind: FetchKind,
    /// Whether a cached entry existed when the request arrived.
    pub had_entry: bool,
    /// Metadata of the delivered version.
    pub meta: DocMeta,
}

/// What a flight needs of an upstream reply: everything but the body
/// (caches above this layer store metadata only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpstreamReply {
    /// `Some` for a `200`, `None` for a `304`.
    pub meta: Option<DocMeta>,
    /// Lease grant, if any: how long from when the request was sent.
    pub lease: Option<SimDuration>,
    /// Volume-lease renewal, if any: how long, counted the same way.
    pub volume_lease: Option<SimDuration>,
    /// Piggybacked invalidations (PSI).
    pub piggyback: Vec<Url>,
}

impl From<ReplyRef<'_>> for UpstreamReply {
    fn from(reply: ReplyRef<'_>) -> Self {
        UpstreamReply {
            meta: match reply.status {
                ReplyStatusRef::Ok { meta, .. } => Some(meta),
                ReplyStatusRef::NotModified => None,
            },
            lease: reply.lease,
            volume_lease: reply.volume_lease,
            piggyback: reply.piggyback,
        }
    }
}

impl From<Reply> for UpstreamReply {
    fn from(reply: Reply) -> Self {
        UpstreamReply {
            meta: match reply.status {
                ReplyStatus::Ok(body) => Some(body.meta()),
                ReplyStatus::NotModified => None,
            },
            lease: reply.lease,
            volume_lease: reply.volume_lease,
            piggyback: reply.piggyback,
        }
    }
}

/// Counters of the fetch state machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchCounters {
    /// Fetches begun.
    pub requests: u64,
    /// Of those, fetches that found a cached entry (the paper's "Hits" row:
    /// hits on copies that turn out stale included).
    pub hits: u64,
    /// Plain `GET`s handed out to forward.
    pub gets_sent: u64,
    /// `If-Modified-Since` requests handed out to forward.
    pub ims_sent: u64,
    /// `200` replies applied.
    pub replies_200: u64,
    /// `304` replies applied.
    pub replies_304: u64,
    /// `INVALIDATE <url>`s applied, each entry of a batched round counted.
    pub invalidations_received: u64,
    /// Coalesced `InvalidateBatch` rounds applied.
    pub inval_batches_received: u64,
    /// Bulk `INVALIDATE <server>`s applied.
    pub bulk_invalidations_received: u64,
    /// Piggybacked invalidations received (PSI).
    pub piggybacked_received: u64,
    /// Of those, ones that deleted a cached copy.
    pub piggybacked_effective: u64,
    /// Replies discarded because an invalidation overtook them.
    pub inval_races: u64,
    /// `304`s whose entry was evicted mid-validation (fetched again).
    pub revalidation_races: u64,
}

impl FetchCounters {
    /// Adds another node's counts to these.
    pub fn merge(&mut self, other: &FetchCounters) {
        self.requests += other.requests;
        self.hits += other.hits;
        self.gets_sent += other.gets_sent;
        self.ims_sent += other.ims_sent;
        self.replies_200 += other.replies_200;
        self.replies_304 += other.replies_304;
        self.invalidations_received += other.invalidations_received;
        self.inval_batches_received += other.inval_batches_received;
        self.bulk_invalidations_received += other.bulk_invalidations_received;
        self.piggybacked_received += other.piggybacked_received;
        self.piggybacked_effective += other.piggybacked_effective;
        self.inval_races += other.inval_races;
        self.revalidation_races += other.revalidation_races;
    }
}

/// What [`ProxyCore::begin`] decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Begin {
    /// The cached copy may be served: its metadata. Nothing is in flight.
    Serve(DocMeta),
    /// Send this upstream; its reply goes to [`ProxyCore::complete`].
    Forward(GetRequest),
}

/// What [`ProxyCore::complete`] made of a reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Complete<W> {
    /// The fetch is over; `waiter` is what [`ProxyCore::begin`] was given.
    Done {
        /// What to answer with.
        outcome: FetchOutcome,
        /// Who was waiting for it.
        waiter: W,
    },
    /// The reply could not be used (it raced an invalidation, or the `304`
    /// raced an eviction): send this plain `GET` instead. The flight lives
    /// on under the new request id.
    Forward(GetRequest),
}

/// One upstream request awaiting its reply.
#[derive(Debug)]
struct Flight<W> {
    /// The request as it went out (its `req` is the table key).
    sent: GetRequest,
    had_entry: bool,
    /// An invalidation for this copy arrived after `sent` left.
    poisoned: bool,
    waiter: W,
}

/// Policy, cache and flight table of one caching node. `W` is whatever the
/// driver needs to find its way back to the requester once a flight lands.
#[derive(Debug)]
pub struct ProxyCore<W> {
    policy: ProxyPolicy,
    cache: CacheStore,
    next_req: RequestId,
    /// In the order the requests were handed out — the order of their ids,
    /// which only grow — so a flight is found by binary search, and one
    /// that lands in order (always, for a driver with one request out)
    /// comes off the front without moving the rest.
    flights: VecDeque<Flight<W>>,
    /// Downstream hit reports (§7) that arrived while no copy was held to
    /// carry them; each rides the next upstream `GET` or invalidation ack
    /// for its key.
    orphan_reports: FxHashMap<ScopedUrl, u64>,
    counters: FetchCounters,
    audit: Option<Vec<AuditEvent>>,
}

impl<W> ProxyCore<W> {
    /// A node with nothing cached and nothing in flight.
    pub fn new(policy: ProxyPolicy, cache: CacheStore) -> Self {
        ProxyCore {
            policy,
            cache,
            next_req: RequestId::default(),
            // Allocated here, not under the node's first miss.
            flights: VecDeque::with_capacity(1),
            orphan_reports: FxHashMap::default(),
            counters: FetchCounters::default(),
            audit: None,
        }
    }

    /// Starts recording [`AuditEvent`]s.
    pub fn enable_audit(&mut self) {
        self.audit = Some(Vec::new());
    }

    /// The audit-event log (empty when auditing is off).
    pub fn audit_log(&self) -> &[AuditEvent] {
        self.audit.as_deref().unwrap_or(&[])
    }

    fn record(&mut self, now: SimTime, event: impl FnOnce(SimTime) -> AuditEvent) {
        if let Some(log) = self.audit.as_mut() {
            log.push(event(now));
        }
    }

    /// Records that `key`'s client was answered with `meta`'s version.
    fn served(&mut self, key: ScopedUrl, meta: DocMeta, hit: bool, now: SimTime) -> DocMeta {
        self.record(now, |at| AuditEvent::Serve {
            url: key.url(),
            client: key.client(),
            version: meta.last_modified(),
            from_cache: hit,
            at,
        });
        meta
    }

    /// The node's cache.
    pub fn cache(&self) -> &CacheStore {
        &self.cache
    }

    /// The node's protocol policy.
    pub fn policy(&self) -> &ProxyPolicy {
        &self.policy
    }

    /// Counters so far.
    pub fn counters(&self) -> FetchCounters {
        self.counters
    }

    /// Upstream requests awaiting a reply.
    pub fn in_flight(&self) -> usize {
        self.flights.len()
    }

    /// Takes flight `req` off the table.
    fn land(&mut self, req: RequestId) -> Option<Flight<W>> {
        let at = self.flights.binary_search_by_key(&req, |f| f.sent.req);
        self.flights.remove(at.ok()?)
    }

    /// Registers `sent` as in flight and counts it.
    fn launch(&mut self, mut sent: GetRequest, had_entry: bool, waiter: W) -> GetRequest {
        sent.req = self.next_req;
        self.next_req = self.next_req.next();
        if sent.ims.is_some() {
            self.counters.ims_sent += 1;
        } else {
            self.counters.gets_sent += 1;
        }
        self.flights.push_back(Flight {
            sent,
            had_entry,
            poisoned: false,
            waiter,
        });
        sent
    }

    /// `client` asks for `url` at protocol time `at` (node time `now`): serve
    /// the cached copy (same side effects as [`ProxyPolicy::on_request`]:
    /// recency, hit meter) or open a flight. `waiter` is only called, and
    /// kept, when a flight opens.
    pub fn begin(
        &mut self,
        client: ClientId,
        url: Url,
        at: SimTime,
        now: SimTime,
        waiter: impl FnOnce() -> W,
    ) -> Begin {
        let key = url.scoped(client);
        let disposition = self.policy.on_request(key, at, &mut self.cache);
        self.counters.requests += 1;
        self.counters.hits += u64::from(disposition.had_entry);
        let ims = match disposition.action {
            ProxyAction::ServeFromCache => match self.cache.peek(key) {
                Some(entry) => return Begin::Serve(self.served(key, entry.meta, true, now)),
                // A hit implies an entry; were it gone, fetch it.
                None => None,
            },
            ProxyAction::SendGet { ims } => ims,
        };
        let get = GetRequest {
            req: self.next_req,
            url,
            client,
            ims,
            issued_at: at,
            cache_hits: disposition.report_hits + self.take_orphan_report(key),
        };
        Begin::Forward(self.launch(get, disposition.had_entry, waiter()))
    }

    /// The reply to flight `req` arrived at node time `now`. `None`: no
    /// such flight (a late, duplicate or unknown id) — the reply is ignored.
    pub fn complete(
        &mut self,
        req: RequestId,
        reply: &UpstreamReply,
        now: SimTime,
    ) -> Option<Complete<W>> {
        let Flight {
            sent,
            had_entry,
            poisoned,
            waiter,
        } = self.land(req)?;
        let key = sent.url.scoped(sent.client);
        let at = sent.issued_at;
        // A lease runs from when this node sent, so it ends before the grantor's.
        let end = |lease: Option<SimDuration>| lease.map(|d| at + d);
        let delivered = if poisoned {
            // The invalidation overtook this reply: its version may predate
            // the write. Nothing of it is applied.
            self.counters.inval_races += 1;
            None
        } else {
            self.policy.on_volume_grant(key, end(reply.volume_lease));
            if !reply.piggyback.is_empty() {
                self.counters.piggybacked_received += reply.piggyback.len() as u64;
                self.counters.piggybacked_effective +=
                    self.policy
                        .on_piggyback(&reply.piggyback, sent.client, &mut self.cache)
                        as u64;
            }
            match reply.meta {
                Some(meta) => {
                    self.counters.replies_200 += 1;
                    self.policy
                        .on_reply_200(key, meta, end(reply.lease), at, &mut self.cache);
                    Some((FetchKind::Fetched, meta))
                }
                None if self
                    .policy
                    .on_reply_304(key, end(reply.lease), at, &mut self.cache) =>
                {
                    self.counters.replies_304 += 1;
                    self.cache
                        .peek(key)
                        .map(|entry| (FetchKind::Validated, entry.meta))
                }
                None => {
                    self.counters.revalidation_races += 1;
                    None
                }
            }
        };
        Some(match delivered {
            Some((kind, meta)) => {
                let client = sent.client;
                for &url in &reply.piggyback {
                    self.record(now, |at| InvalidateDelivered { url, client, at });
                }
                Complete::Done {
                    outcome: FetchOutcome {
                        kind,
                        had_entry,
                        meta: self.served(key, meta, false, now),
                    },
                    waiter,
                }
            }
            None => {
                let plain = GetRequest {
                    ims: None,
                    cache_hits: 0,
                    ..sent
                };
                Complete::Forward(self.launch(plain, had_entry, waiter))
            }
        })
    }

    /// Flight `req` went unanswered (its reply was lost, or this node was
    /// down when it came): the same fetch goes out again under a new id,
    /// validating whatever copy is held *now*. It is not a new request —
    /// [`ProxyPolicy::on_request`] does not run again — and a reply to the
    /// old id is ignored from here on.
    pub fn retransmit(&mut self, req: RequestId) -> Option<GetRequest> {
        let Flight {
            sent,
            had_entry,
            waiter,
            ..
        } = self.land(req)?;
        let held = self.cache.peek(sent.url.scoped(sent.client));
        let again = GetRequest {
            ims: held.map(|entry| entry.meta.last_modified()),
            cache_hits: 0,
            ..sent
        };
        Some(self.launch(again, had_entry, waiter))
    }

    /// Gives up on flight `req` (its reply can no longer arrive, or nobody
    /// waits for it); a reply that shows up later is ignored.
    pub fn abandon(&mut self, req: RequestId) -> Option<W> {
        self.land(req).map(|flight| flight.waiter)
    }

    /// The flight handed out first among those still open.
    pub fn oldest(&self) -> Option<(RequestId, &W)> {
        let flight = self.flights.front()?;
        Some((flight.sent.req, &flight.waiter))
    }

    /// Every open flight, oldest first: the request as sent, and its waiter.
    pub fn flights_mut(&mut self) -> impl Iterator<Item = (&GetRequest, &mut W)> {
        self.flights
            .iter_mut()
            .map(|flight| (&flight.sent, &mut flight.waiter))
    }

    /// A push from upstream, applied, and its ack. `INVALIDATE <url>` drops
    /// one copy (`InvalAck`, with its §7 report); an `InvalidateBatch` round
    /// drops each entry's (one `InvalidateBatchAck`, entries in frame order);
    /// the bulk `INVALIDATE <server>` marks that server's copies questionable
    /// (`InvalidateServerAck`). Every flight for a dropped or marked copy is
    /// poisoned. A proxy holds the copies the frame names; a parent holds
    /// every copy as `held_as`. `None`, and nothing applied, for any other
    /// frame. Each drop, and the bulk, is recorded at node time `now`.
    pub fn on_push(
        &mut self,
        push: HttpMsg,
        held_as: Option<ClientId>,
        now: SimTime,
    ) -> Option<HttpMsg> {
        Some(match push {
            HttpMsg::Invalidate { url, client } => {
                let e = self.on_invalidate(url, held_as.unwrap_or(client), now);
                HttpMsg::InvalAck {
                    url,
                    client: e.client,
                    cache_hits: e.cache_hits,
                }
            }
            HttpMsg::InvalidateBatch { server, entries } => {
                self.counters.inval_batches_received += 1;
                let ack =
                    |e: BatchEntry| self.on_invalidate(e.url, held_as.unwrap_or(e.client), now);
                let entries = entries.into_iter().map(ack).collect();
                HttpMsg::InvalidateBatchAck { server, entries }
            }
            HttpMsg::InvalidateServer { server } => {
                self.counters.bulk_invalidations_received += 1;
                for flight in &mut self.flights {
                    flight.poisoned |= flight.sent.url.server() == server;
                }
                self.policy.on_invalidate_server(server, &mut self.cache);
                self.record(now, |at| BulkInvalidateDelivered { server, at });
                HttpMsg::InvalidateServerAck { server }
            }
            HttpMsg::Get(_)
            | HttpMsg::Reply(_)
            | HttpMsg::InvalidateBatchAck { .. }
            | HttpMsg::InvalidateServerAck { .. }
            | HttpMsg::InvalAck { .. }
            | HttpMsg::Hello { .. }
            | HttpMsg::MetricsGet
            | HttpMsg::Notify { .. } => return None,
        })
    }

    /// Drops `client`'s copy of `url` and poisons every flight for it. The
    /// ack entry's §7 report is the dropped copy's unreported hits (see
    /// [`ProxyPolicy::on_invalidate`]) plus any downstream reports waiting
    /// for it.
    fn on_invalidate(&mut self, url: Url, client: ClientId, now: SimTime) -> BatchAckEntry {
        self.counters.invalidations_received += 1;
        self.record(now, |at| InvalidateDelivered { url, client, at });
        for flight in &mut self.flights {
            flight.poisoned |= flight.sent.url == url && flight.sent.client == client;
        }
        let own = self.policy.on_invalidate(url, client, &mut self.cache);
        let cache_hits = own.unwrap_or(0) + self.take_orphan_report(url.scoped(client));
        BatchAckEntry {
            url,
            client,
            cache_hits,
        }
    }

    /// This node came back from a crash: "let the proxy mark all its cache
    /// entries as questionable when it recovers." Returns how many; the
    /// flights still open are the driver's to [`ProxyCore::retransmit`].
    pub fn on_recover(&mut self) -> usize {
        self.policy.on_proxy_recover(&mut self.cache)
    }

    /// Takes a downstream cache's hit report for `client`'s copy of `url`
    /// into this tier: onto the copy when one is held, otherwise it waits
    /// for the next upstream `GET` or invalidation ack for that key.
    pub(crate) fn absorb_report(&mut self, url: Url, client: ClientId, hits: u64) {
        if hits == 0 {
            return;
        }
        let key = url.scoped(client);
        if self.cache.peek(key).is_some() {
            self.cache.add_unreported_hits(key, hits);
        } else {
            *self.orphan_reports.entry(key).or_default() += hits;
        }
    }

    fn take_orphan_report(&mut self, key: ScopedUrl) -> u64 {
        self.orphan_reports.remove(&key).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ProtocolConfig, ProtocolKind};
    use wcc_cache::ReplacementPolicy;
    use wcc_types::{ByteSize, ServerId, SimDuration};

    const CLIENT: ClientId = ClientId::from_raw(3);
    const SERVER: ServerId = ServerId::new(0);
    /// The node's clock, which only the audit log reads.
    const CLOCK: SimTime = SimTime::ZERO;

    fn core(kind: ProtocolKind) -> ProxyCore<u32> {
        ProxyCore::new(
            ProxyPolicy::new(&ProtocolConfig::new(kind)),
            CacheStore::unbounded(ReplacementPolicy::Lru),
        )
    }

    fn url(server: u32, doc: u32) -> Url {
        Url::new(ServerId::new(server), doc)
    }

    fn meta(modified_secs: u64) -> DocMeta {
        DocMeta::new(ByteSize::from_kib(8), SimTime::from_secs(modified_secs))
    }

    fn ok(modified_secs: u64) -> UpstreamReply {
        UpstreamReply {
            meta: Some(meta(modified_secs)),
            lease: Some(SimDuration::MAX),
            volume_lease: Some(SimDuration::MAX),
            piggyback: Vec::new(),
        }
    }

    fn not_modified() -> UpstreamReply {
        UpstreamReply {
            meta: None,
            ..ok(0)
        }
    }

    fn forwarded(begin: Begin) -> GetRequest {
        match begin {
            Begin::Forward(get) => get,
            Begin::Serve(meta) => panic!("served {meta:?} from the cache"),
        }
    }

    fn reforwarded(complete: Option<Complete<u32>>) -> GetRequest {
        match complete {
            Some(Complete::Forward(get)) => get,
            other => panic!("expected a re-forward, got {other:?}"),
        }
    }

    /// Fetches `url` once (version `modified_secs`) so a copy is cached.
    fn prime(core: &mut ProxyCore<u32>, url: Url, modified_secs: u64, now: SimTime) {
        let get = forwarded(core.begin(CLIENT, url, now, CLOCK, || 0));
        let done = core.complete(get.req, &ok(modified_secs), CLOCK);
        assert!(matches!(done, Some(Complete::Done { .. })));
    }

    /// A cached copy that every protocol must validate before serving.
    fn primed_questionable(kind: ProtocolKind) -> ProxyCore<u32> {
        let mut core = core(kind);
        prime(&mut core, url(0, 7), 5, SimTime::from_secs(10));
        assert_eq!(core.on_recover(), 1);
        core
    }

    /// The hit path is `on_request`, nothing more: for every protocol and
    /// entry state `begin` takes the action `on_request` decides, leaves
    /// the cache entry (recency, hit meter) exactly as `on_request` does,
    /// and opens a flight only when the origin must be contacted.
    #[test]
    fn begin_has_the_side_effects_of_on_request() {
        let fetched = SimTime::from_secs(100_000);
        let lease_end = fetched + SimDuration::from_secs(500);
        let key = url(0, 7).scoped(CLIENT);
        // Inside every lease/TTL, and past all of them.
        let times = [
            fetched + SimDuration::from_secs(100),
            fetched + SimDuration::from_days(365),
        ];
        for kind in ProtocolKind::ALL {
            for questionable in [false, true] {
                for now in times {
                    let mut core = core(kind);
                    let get = forwarded(core.begin(CLIENT, key.url(), fetched, CLOCK, || 0));
                    let reply = UpstreamReply {
                        lease: Some(lease_end - fetched),
                        volume_lease: Some(lease_end - fetched),
                        ..ok(5)
                    };
                    core.complete(get.req, &reply, CLOCK).expect("flight");
                    // The same history on a bare policy and cache.
                    let mut policy = ProxyPolicy::new(&ProtocolConfig::new(kind));
                    let mut cache = CacheStore::unbounded(ReplacementPolicy::Lru);
                    policy.on_request(key, fetched, &mut cache);
                    policy.on_volume_grant(key, Some(lease_end));
                    policy.on_reply_200(key, meta(5), Some(lease_end), fetched, &mut cache);
                    if questionable {
                        core.policy.on_proxy_recover(&mut core.cache);
                        policy.on_proxy_recover(&mut cache);
                    }
                    assert_eq!(core.cache.peek(key), cache.peek(key), "{kind:?}");
                    let disposition = policy.on_request(key, now, &mut cache);
                    let mut asked = false;
                    let begin = core.begin(CLIENT, key.url(), now, CLOCK, || {
                        asked = true;
                        1
                    });
                    assert_eq!(core.cache.peek(key), cache.peek(key), "{kind:?}");
                    match (disposition.action, begin) {
                        (ProxyAction::ServeFromCache, Begin::Serve(served)) => {
                            assert_eq!(served, meta(5));
                            assert_eq!((asked, core.in_flight()), (false, 0));
                        }
                        (ProxyAction::SendGet { ims }, Begin::Forward(get)) => {
                            assert_eq!((get.ims, get.cache_hits), (ims, disposition.report_hits));
                            assert_eq!(
                                (get.url, get.client, get.issued_at),
                                (key.url(), CLIENT, now)
                            );
                            assert_eq!((asked, core.in_flight()), (true, 1));
                        }
                        (action, begin) => panic!("{kind:?}: {action:?} vs {begin:?}"),
                    }
                    let c = core.counters();
                    assert_eq!((c.requests, c.hits), (2, 1), "{kind:?}");
                }
            }
        }
    }

    /// The callback race: an invalidation overtakes the reply. Whatever the
    /// reply says, none of it is applied, and a plain `GET` goes out.
    /// Leases cross the wire as durations: the grantor sends its end less
    /// the `issued_at` it received, and the holder trusts the copy until
    /// the `issued_at` it sent plus that, whether it sent before or after
    /// the grantor received, on the grantor's clock. An endless lease stays
    /// endless, and a two-tier zero lease stays zero.
    #[test]
    fn a_lease_crosses_the_wire_as_a_duration() {
        let d = SimDuration::from_secs(10);
        let received = SimTime::from_secs(50);
        let key = url(0, 7).scoped(CLIENT);
        // One grant, from the grantor's wire to the holder's cache: the
        // instant the holder's lease ends.
        let trusted = |kind, sent: SimTime, expect: SimDuration| {
            let cfg = ProtocolConfig::new(kind).with_lease(d);
            let mut grantor = crate::ServerConsistency::new(&cfg, SERVER);
            let mut holder = core(kind);
            let get = forwarded(holder.begin(CLIENT, key.url(), sent, CLOCK, || 0));
            let grant = grantor.on_get(key.url(), CLIENT, None, meta(5), received);
            let got = GetRequest {
                issued_at: received,
                ..get
            };
            let reply = grant.into_reply(&got, meta(5), 1);
            assert_eq!(reply.lease, Some(expect), "{kind:?}");
            holder
                .complete(get.req, &reply.into(), CLOCK)
                .expect("flight");
            let entry = holder.cache().peek(key).expect("cached");
            entry.freshness.lease_expires
        };
        for sent in [SimTime::from_secs(40), SimTime::from_secs(60)] {
            let fixed = trusted(ProtocolKind::LeaseInvalidation, sent, d);
            assert_eq!(fixed, sent + d);
            let endless = trusted(ProtocolKind::Invalidation, sent, SimDuration::MAX);
            assert_eq!(endless, SimTime::NEVER);
            let zero = trusted(ProtocolKind::TwoTierLease, sent, SimDuration::ZERO);
            assert_eq!(zero, sent);
        }
    }

    #[test]
    fn reply_overtaken_by_an_invalidation_is_refetched_without_ims() {
        for kind in ProtocolKind::ALL {
            for stale in [ok(5), not_modified()] {
                let mut core = primed_questionable(kind);
                let now = SimTime::from_secs(20);
                let first = forwarded(core.begin(CLIENT, url(0, 7), now, CLOCK, || 42));
                assert_eq!(first.ims, Some(SimTime::from_secs(5)), "{kind:?}");
                // Another client's copy is none of this flight's business.
                let other = ClientId::from_raw(4);
                core.on_invalidate(url(0, 7), other, CLOCK);
                core.on_invalidate(url(0, 7), CLIENT, CLOCK);

                let again = reforwarded(core.complete(first.req, &stale, CLOCK));
                assert_ne!(again.req, first.req);
                assert_eq!((again.ims, again.cache_hits), (None, 0), "{kind:?}");
                assert_eq!(
                    (again.url, again.client, again.issued_at),
                    (first.url, CLIENT, now)
                );
                assert!(core.cache().peek(url(0, 7).scoped(CLIENT)).is_none());
                assert_eq!(core.counters().inval_races, 1);
                assert_eq!(core.in_flight(), 1);

                match core.complete(again.req, &ok(15), CLOCK) {
                    Some(Complete::Done { outcome, waiter }) => {
                        assert_eq!(outcome.kind, FetchKind::Fetched);
                        assert!(
                            outcome.had_entry,
                            "an entry existed when the request arrived"
                        );
                        assert_eq!(outcome.meta, meta(15));
                        assert_eq!(waiter, 42);
                    }
                    other => panic!("{kind:?}: {other:?}"),
                }
                assert_eq!(
                    core.cache().peek(url(0, 7).scoped(CLIENT)).map(|e| e.meta),
                    Some(meta(15))
                );
                assert_eq!(core.in_flight(), 0);
            }
        }
    }

    /// A `304` for an entry that was dropped while it was being validated
    /// (here by another reply's piggybacked invalidation, which poisons
    /// nothing) falls back to a plain `GET`.
    #[test]
    fn not_modified_for_an_evicted_entry_is_refetched() {
        for kind in ProtocolKind::ALL {
            let mut core = primed_questionable(kind);
            let now = SimTime::from_secs(20);
            let validate = forwarded(core.begin(CLIENT, url(0, 7), now, CLOCK, || 1));
            let miss = forwarded(core.begin(CLIENT, url(0, 8), now, CLOCK, || 2));
            let evicting = UpstreamReply {
                piggyback: vec![url(0, 7)],
                ..ok(3)
            };
            assert!(matches!(
                core.complete(miss.req, &evicting, CLOCK),
                Some(Complete::Done { waiter: 2, .. })
            ));
            let again = reforwarded(core.complete(validate.req, &not_modified(), CLOCK));
            assert_eq!((again.ims, again.url), (None, url(0, 7)), "{kind:?}");
            let c = core.counters();
            assert_eq!(
                (c.inval_races, c.revalidation_races, c.replies_304),
                (0, 1, 0)
            );
            assert_eq!((c.piggybacked_received, c.piggybacked_effective), (1, 1));
            assert!(matches!(
                core.complete(again.req, &ok(5), CLOCK),
                Some(Complete::Done { waiter: 1, .. })
            ));
        }
    }

    #[test]
    fn bulk_invalidation_poisons_every_flight_of_that_server() {
        for kind in ProtocolKind::ALL {
            let mut core = core(kind);
            let now = SimTime::from_secs(1);
            prime(&mut core, url(0, 1), 0, now);
            let flights = [url(0, 2), url(0, 3), url(1, 2)]
                .map(|url| forwarded(core.begin(CLIENT, url, now, CLOCK, || url.doc())));
            let bulk = HttpMsg::InvalidateServer { server: SERVER };
            let acked = HttpMsg::InvalidateServerAck { server: SERVER };
            assert_eq!(core.on_push(bulk, None, CLOCK), Some(acked));
            for get in &flights[..2] {
                let again = reforwarded(core.complete(get.req, &ok(0), CLOCK));
                assert_eq!((again.url, again.ims), (get.url, None), "{kind:?}");
            }
            assert!(matches!(
                core.complete(flights[2].req, &ok(0), CLOCK),
                Some(Complete::Done { .. })
            ));
            assert_eq!(core.counters().inval_races, 2);
            // The re-forwarded flights are clean again.
            assert_eq!(core.in_flight(), 2);
        }
    }

    #[test]
    fn unknown_duplicate_and_late_replies_are_ignored() {
        for kind in ProtocolKind::ALL {
            let mut core = core(kind);
            let now = SimTime::from_secs(1);
            assert!(core.complete(RequestId::new(99), &ok(0), CLOCK).is_none());
            let get = forwarded(core.begin(CLIENT, url(0, 1), now, CLOCK, || 7));
            assert!(
                core.complete(get.req.next(), &ok(0), CLOCK).is_none(),
                "not handed out yet"
            );
            assert!(core.complete(get.req, &ok(1), CLOCK).is_some());
            assert!(core.complete(get.req, &ok(2), CLOCK).is_none(), "duplicate");
            let key = url(0, 1).scoped(CLIENT);
            assert_eq!(core.cache().peek(key).map(|e| e.meta), Some(meta(1)));

            let given_up = forwarded(core.begin(CLIENT, url(0, 2), now, CLOCK, || 8));
            assert_eq!(
                core.oldest().map(|(req, w)| (req, *w)),
                Some((given_up.req, 8))
            );
            assert_eq!(core.abandon(given_up.req), Some(8));
            assert_eq!(core.abandon(given_up.req), None);
            assert!(core.complete(given_up.req, &ok(3), CLOCK).is_none(), "late");
            assert!(core.cache().peek(url(0, 2).scoped(CLIENT)).is_none());
            let c = core.counters();
            assert_eq!((c.replies_200, c.gets_sent, core.in_flight()), (1, 2, 0));
        }
    }

    /// A flight whose reply never came goes out again under a new id,
    /// validating the copy held now under the flight's own client. It is
    /// not a second request, the old id is dead, and a poison does not
    /// outlive it: the new request leaves after the invalidation arrived.
    #[test]
    fn retransmit_validates_the_copy_held_now_and_starts_clean() {
        for kind in ProtocolKind::ALL {
            let mut core = primed_questionable(kind);
            let now = SimTime::from_secs(20);
            let first = forwarded(core.begin(CLIENT, url(0, 7), now, CLOCK, || 9));
            let before = core.counters();
            core.on_push(HttpMsg::InvalidateServer { server: SERVER }, None, CLOCK);

            let again = core.retransmit(first.req).expect("an open flight");
            assert_ne!(again.req, first.req);
            assert_eq!(
                (again.ims, again.cache_hits),
                (Some(SimTime::from_secs(5)), 0),
                "{kind:?}"
            );
            assert_eq!(
                (again.url, again.client, again.issued_at),
                (first.url, CLIENT, now)
            );
            let c = core.counters();
            assert_eq!((c.requests, c.hits), (before.requests, before.hits));
            assert_eq!(c.ims_sent, before.ims_sent + 1);
            assert!(
                core.complete(first.req, &not_modified(), CLOCK).is_none(),
                "late"
            );
            assert!(core.retransmit(first.req).is_none());

            match core.complete(again.req, &not_modified(), CLOCK) {
                Some(Complete::Done { outcome, waiter: 9 }) => {
                    assert_eq!(
                        (outcome.kind, outcome.meta),
                        (FetchKind::Validated, meta(5))
                    );
                }
                other => panic!("{kind:?}: {other:?}"),
            }
            assert_eq!(core.counters().inval_races, 0);

            // With no copy to validate it is a plain GET.
            let miss = forwarded(core.begin(CLIENT, url(0, 8), now, CLOCK, || 1));
            let again = core.retransmit(miss.req).expect("an open flight");
            assert_eq!((again.ims, core.in_flight()), (None, 1));
        }
    }

    /// §7 hit reports from downstream caches that arrive while no copy is
    /// held are not lost: each rides the next upstream `GET` for its copy,
    /// or the ack of the next invalidation, once.
    #[test]
    fn hit_reports_without_a_copy_ride_the_next_get_or_ack() {
        let mut core = core(ProtocolKind::Invalidation);
        let now = SimTime::from_secs(1);
        prime(&mut core, url(0, 1), 0, now);
        core.absorb_report(url(0, 1), CLIENT, 3);
        let hits =
            |core: &mut ProxyCore<u32>| core.on_invalidate(url(0, 1), CLIENT, CLOCK).cache_hits;
        assert_eq!(hits(&mut core), 3, "joined the copy");

        core.absorb_report(url(0, 1), CLIENT, 2);
        core.absorb_report(url(0, 1), CLIENT, 0);
        core.absorb_report(url(0, 2), CLIENT, 4);
        core.absorb_report(url(0, 2), ClientId::from_raw(4), 7);
        assert_eq!(hits(&mut core), 2);
        assert_eq!(hits(&mut core), 0, "reported once");
        let get = forwarded(core.begin(CLIENT, url(0, 2), now, CLOCK, || 0));
        assert_eq!(get.cache_hits, 4, "another client's report stays put");
        let again = core.retransmit(get.req).expect("an open flight");
        assert_eq!(again.cache_hits, 0, "reported once");
    }

    /// Every push kind, as a proxy drives it (the copy is the client's the
    /// frame names) and as a parent does (every copy held as its identity):
    /// applied, counted, flights for the copy poisoned, and acked with the
    /// §7 reports in frame order.
    #[test]
    fn a_push_is_applied_and_acked_in_frame_order() {
        for held_as in [None, Some(ClientId::from_raw(0))] {
            let holder = held_as.unwrap_or(CLIENT);
            let mut core = core(ProtocolKind::Invalidation);
            let now = SimTime::from_secs(1);
            for doc in 1..=3 {
                let get = forwarded(core.begin(holder, url(0, doc), now, CLOCK, || 0));
                core.complete(get.req, &ok(0), CLOCK).expect("a flight");
            }
            let hit = core.begin(holder, url(0, 2), now, CLOCK, || 0);
            assert_eq!(hit, Begin::Serve(meta(0)));
            let flight = forwarded(core.begin(holder, url(0, 4), now, CLOCK, || 0));
            let one = HttpMsg::Invalidate {
                url: url(0, 1),
                client: CLIENT,
            };
            let acked = HttpMsg::InvalAck {
                url: url(0, 1),
                client: holder,
                cache_hits: 0,
            };
            assert_eq!(
                core.on_push(one, held_as, CLOCK),
                Some(acked),
                "{held_as:?}"
            );
            let entry = |doc| BatchEntry {
                url: url(0, doc),
                client: CLIENT,
            };
            let ack = |doc, cache_hits| BatchAckEntry {
                url: url(0, doc),
                client: holder,
                cache_hits,
            };
            let round = HttpMsg::InvalidateBatch {
                server: SERVER,
                entries: vec![entry(4), entry(2), entry(3)],
            };
            let acked = HttpMsg::InvalidateBatchAck {
                server: SERVER,
                entries: vec![ack(4, 0), ack(2, 1), ack(3, 0)],
            };
            assert_eq!(
                core.on_push(round, held_as, CLOCK),
                Some(acked),
                "{held_as:?}"
            );
            assert_eq!(core.cache().len(), 0);
            let bulk = HttpMsg::InvalidateServer { server: SERVER };
            let acked = HttpMsg::InvalidateServerAck { server: SERVER };
            assert_eq!(core.on_push(bulk, held_as, CLOCK), Some(acked));
            let c = core.counters();
            assert_eq!(
                (
                    c.invalidations_received,
                    c.inval_batches_received,
                    c.bulk_invalidations_received
                ),
                (4, 1, 1)
            );
            reforwarded(core.complete(flight.req, &ok(0), CLOCK));
            assert_eq!(core.counters().inval_races, 1);
        }
    }

    /// A frame that is not a push is not acked and changes nothing: no
    /// counter moves, the copy stays and no flight is poisoned.
    #[test]
    fn a_frame_that_is_not_a_push_is_not_applied() {
        let mut core = core(ProtocolKind::Invalidation);
        let now = SimTime::from_secs(1);
        let copy = url(0, 1);
        prime(&mut core, copy, 0, now);
        let flight = forwarded(core.begin(CLIENT, url(0, 2), now, CLOCK, || 0));
        let before = core.counters();
        let acked = BatchAckEntry {
            url: copy,
            client: CLIENT,
            cache_hits: 1,
        };
        for frame in [
            HttpMsg::Get(flight),
            HttpMsg::Reply(Reply {
                req: flight.req,
                url: flight.url,
                client: flight.client,
                status: ReplyStatus::NotModified,
                lease: None,
                piggyback: Vec::new(),
                volume_lease: None,
            }),
            HttpMsg::InvalAck {
                url: copy,
                client: CLIENT,
                cache_hits: 1,
            },
            HttpMsg::InvalidateBatchAck {
                server: SERVER,
                entries: vec![acked],
            },
            HttpMsg::InvalidateServerAck { server: SERVER },
            HttpMsg::Hello {
                partition: 0,
                partitions: 1,
            },
            HttpMsg::MetricsGet,
            HttpMsg::Notify { url: copy, at: now },
        ] {
            assert_eq!(core.on_push(frame, None, CLOCK), None);
        }
        assert_eq!(core.counters(), before);
        assert!(core.cache().peek(copy.scoped(CLIENT)).is_some());
        let landed = core.complete(flight.req, &ok(0), CLOCK);
        assert!(
            matches!(landed, Some(Complete::Done { .. })),
            "not poisoned"
        );
    }

    /// The proxy side of the audit stream, recorded by the core at the
    /// node's time `now`, never the request's protocol time `at`: a hit's
    /// serve; a fetch's piggybacked drops, then its serve; one drop per
    /// pushed entry in frame order, and one event for the bulk — each under
    /// the client the copy is held as. An overtaken reply records nothing,
    /// and a core with auditing off records nothing at all.
    #[test]
    fn the_core_records_what_it_served_and_dropped_on_the_node_clock() {
        let at = SimTime::from_secs(1);
        let clock = |secs| SimTime::from_secs(1_000 + u64::from(secs));
        for held_as in [None, Some(ClientId::from_raw(0))] {
            let holder = held_as.unwrap_or(CLIENT);
            for audit in [true, false] {
                let mut core = core(ProtocolKind::Invalidation);
                if audit {
                    core.enable_audit();
                }
                for (doc, piggyback) in [(1, vec![url(0, 8), url(0, 9)]), (2, vec![]), (3, vec![])]
                {
                    let get = forwarded(core.begin(holder, url(0, doc), at, clock(doc), || 0));
                    let reply = UpstreamReply { piggyback, ..ok(5) };
                    core.complete(get.req, &reply, clock(doc))
                        .expect("a flight");
                }
                let hit = core.begin(holder, url(0, 2), at, clock(4), || 0);
                assert_eq!(hit, Begin::Serve(meta(5)));
                let flight = forwarded(core.begin(holder, url(0, 4), at, clock(5), || 0));
                let one = HttpMsg::Invalidate {
                    url: url(0, 4),
                    client: CLIENT,
                };
                core.on_push(one, held_as, clock(6)).expect("a push");
                let overtaken = UpstreamReply {
                    piggyback: vec![url(0, 3)],
                    ..ok(5)
                };
                reforwarded(core.complete(flight.req, &overtaken, clock(7)));
                let entry = |doc| BatchEntry {
                    url: url(0, doc),
                    client: CLIENT,
                };
                let round = HttpMsg::InvalidateBatch {
                    server: SERVER,
                    entries: vec![entry(3), entry(1), entry(2)],
                };
                core.on_push(round, held_as, clock(8)).expect("a push");
                let bulk = HttpMsg::InvalidateServer { server: SERVER };
                core.on_push(bulk, held_as, clock(9)).expect("a push");
                if !audit {
                    assert!(core.audit_log().is_empty(), "{held_as:?}");
                    continue;
                }
                let serve = |doc, from_cache, secs| AuditEvent::Serve {
                    url: url(0, doc),
                    client: holder,
                    version: SimTime::from_secs(5),
                    from_cache,
                    at: clock(secs),
                };
                let dropped = |doc, secs| AuditEvent::InvalidateDelivered {
                    url: url(0, doc),
                    client: holder,
                    at: clock(secs),
                };
                let expected = [
                    dropped(8, 1),
                    dropped(9, 1),
                    serve(1, false, 1),
                    serve(2, false, 2),
                    serve(3, false, 3),
                    serve(2, true, 4),
                    dropped(4, 6),
                    dropped(3, 8),
                    dropped(1, 8),
                    dropped(2, 8),
                    AuditEvent::BulkInvalidateDelivered {
                        server: SERVER,
                        at: clock(9),
                    },
                ];
                assert_eq!(core.audit_log(), expected, "{held_as:?}");
            }
        }
    }
}
