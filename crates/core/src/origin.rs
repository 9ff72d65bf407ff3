//! The invalidation write path (§3–§5) as a sans-IO state machine, written
//! once for every node with caches below it: [`OriginCore`], which the
//! simulator's `OriginNode` and the daemon's `OriginRole` drive, and the
//! child-facing half of [`crate::ParentCore`].
//!
//! [`WritePath`] owns what such a node decides with — site lists and open
//! writes ([`ServerConsistency`]; one record each: the copies it awaits,
//! its retry budget, when it opened), the batched [`Proposer`], the §5 set
//! of sites that owe a bulk acknowledgement, the counters, the
//! [`AuditEvent`] log — and no I/O. [`OriginCore`]
//! is a write path plus what only the origin has: the documents, their
//! versions and the §7 [`HitMeter`]; a parent (§2's hierarchy) grants from
//! the copy it caches instead, never past that copy's own lease
//! ([`WritePath::grant`]'s [`Promise`]). Every entry point takes `now` from its driver
//! and appends what must happen next to a caller-owned list of
//! [`OriginOut`]: the wire frames to push to a *site* (a partition index: the
//! proxy hosting the clients `c` with `c.partition(sites) == site`), built
//! here, and timers to arm, handed back through [`WritePath::on_timer`] when
//! due. The driver maps sites to links, sends, charges, traces and keeps the
//! clock. A parent's pushes from above come back through
//! `WritePath::relay`, read off the ack its fetch core built; a parent's
//! frames for the node above go out as [`OriginOut::Up`]. Nothing outside this
//! file calls `ServerConsistency`'s `on_get` / `on_modify` / `on_inval_ack` /
//! `expire_pending` / `on_server_recover` (clippy's `disallowed-methods` in
//! `crates/{httpsim,net}/clippy.toml`).
//!
//! The write side takes frames, the mirror of the proxy's `on_push`: a
//! site's `HELLO`, `InvalAck`, `InvalidateBatchAck` or `InvalidateServerAck`
//! goes whole into [`OriginCore::on_site_frame`] or
//! [`crate::ParentCore::on_site_frame`], with the site it came from. One rule
//! decides which acknowledgement counts, on both tiers: a frame is refused
//! whole, nothing applied, if an entry is for a copy another site holds, if
//! it names another server, or if its sender is no site (on the daemon, a
//! connection that has not said `HELLO`).

use crate::fetch::PushAck;
use crate::meter::HitMeter;
use crate::proposer::Proposer;
use crate::server::{Promise, ServerConsistency};
use crate::sitelist::SiteListStats;
use std::collections::BTreeMap;
use wcc_proto::{BatchAckEntry, BatchEntry, GetRequest, HttpMsg, Reply};
use wcc_types::{
    AuditEvent, ByteSize, ClientId, DocMeta, InvalBatchConfig, ServerId, SimDuration, SimTime, Url,
};

/// The default retry budget: a fan-out (or a recovery bulk) is re-sent this
/// many times before the unreachable sites are given up on.
pub const MAX_RETRIES: u32 = 20;

/// A timer the core asked for; handed back to [`WritePath::on_timer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OriginTimer {
    /// Re-send this document's unacknowledged invalidations.
    Retry(u32),
    /// The proposer's age bound: flush whatever is queued.
    Flush,
    /// Re-send the recovery bulk invalidation to the sites yet to ack it.
    Bulk,
}

/// What a driver must do for the core, in the order it was asked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OriginOut {
    /// Push `msg` to `site`: an `INVALIDATE <url>` for one copy, an
    /// `InvalidateBatch` round (entries in `(url, client)` order, never
    /// empty) or the recovery bulk `INVALIDATE <server>`.
    Push {
        /// The partition that hosts the copies `msg` names.
        site: u32,
        /// The frame.
        msg: HttpMsg,
    },
    /// Call [`WritePath::on_timer`] with `timer` once `after` has passed.
    Arm {
        /// The delay from `now`.
        after: SimDuration,
        /// What to hand back.
        timer: OriginTimer,
    },
    /// Send `msg` to the node above: a parent's forwarded `GET`, or its ack
    /// of a push it relays ([`crate::ParentCore`]). A write path never asks.
    Up(HttpMsg),
}

/// What a write path made of a frame from a site (the module docs' rule).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteVerdict {
    /// A `HELLO`: its sender is now this site's push channel.
    Registered(u32),
    /// An acknowledgement, applied whole.
    Applied,
    /// Nothing applied: the frame broke the rule, or is not one a site
    /// sends. The daemon closes the connection; the simulator drops it.
    Refused,
}

/// One acknowledged copy, in frame order: what the simulator's `Ack` /
/// `Quorum` spans and write-completion summary are made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Acked {
    /// The document.
    pub url: Url,
    /// Whose copy.
    pub client: ClientId,
    /// No copy of `url` awaits an acknowledgement any more.
    pub quorum: bool,
    /// How long the write took, when this was the last copy it waited for.
    pub took: Option<SimDuration>,
}

/// The write path's counters and the origin's: one struct for every driver
/// (the simulator's report rows, the daemon's `OriginSnapshot` / `/metrics`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OriginCounters {
    /// Plain `GET`s served.
    pub gets: u64,
    /// `If-Modified-Since` requests served.
    pub ims: u64,
    /// `200` replies sent.
    pub replies_200: u64,
    /// `304` replies sent.
    pub replies_304: u64,
    /// `INVALIDATE <url>`s handed out, per copy: retries included, each
    /// entry of a batched round counted once when its round is flushed.
    pub invalidations: u64,
    /// Of those, re-sends of an unacknowledged invalidation.
    pub invalidation_retries: u64,
    /// Bulk `INVALIDATE <server>`s handed out after a recovery.
    pub bulk_invalidations: u64,
    /// `InvalidateBatch` rounds flushed by the proposer (one per site).
    pub inval_batches: u64,
    /// Entries carried by those rounds (see
    /// [`wire_invalidations`](Self::wire_invalidations)).
    pub batched_entries: u64,
    /// Acknowledgements received (per copy, per batch entry, per bulk).
    pub acks: u64,
    /// Modifier check-ins processed.
    pub notifies: u64,
    /// Copies (or, for a bulk, sites) abandoned after the retry budget.
    pub gave_up: u64,
    /// Filled by [`WritePath::snapshot`]: enqueued invalidations the
    /// proposer absorbed because their `(url, client)` was already queued.
    pub coalesced_invalidations: u64,
    /// Filled by [`OriginCore::snapshot`]: §7 requests answered directly.
    pub metered_served: u64,
    /// Filled by [`OriginCore::snapshot`]: §7 cache hits reported on
    /// `GET`s and acknowledgements.
    pub metered_reported: u64,
    /// Filled by [`WritePath::snapshot`]: every invalidation acknowledged.
    pub writes_complete: bool,
    /// Filled by [`WritePath::snapshot`]: site-list statistics.
    pub sitelist: SiteListStats,
}

impl OriginCounters {
    /// Wire `INVALIDATE` messages: per-copy sends, with every batched entry
    /// replaced by its share of one batch message. Equals `invalidations`
    /// when the proposer is off.
    pub fn wire_invalidations(&self) -> u64 {
        self.invalidations - self.batched_entries + self.inval_batches
    }

    /// Adds another origin's counts to these; writes are complete if both's are.
    pub fn merge(&mut self, other: &OriginCounters) {
        self.gets += other.gets;
        self.ims += other.ims;
        self.replies_200 += other.replies_200;
        self.replies_304 += other.replies_304;
        self.invalidations += other.invalidations;
        self.invalidation_retries += other.invalidation_retries;
        self.bulk_invalidations += other.bulk_invalidations;
        self.inval_batches += other.inval_batches;
        self.batched_entries += other.batched_entries;
        self.acks += other.acks;
        self.notifies += other.notifies;
        self.gave_up += other.gave_up;
        self.coalesced_invalidations += other.coalesced_invalidations;
        self.metered_served += other.metered_served;
        self.metered_reported += other.metered_reported;
        self.writes_complete &= other.writes_complete;
        self.sitelist.merge(&other.sitelist);
    }
}

/// The write path of a node with caches below it. See the module docs.
#[derive(Debug)]
pub struct WritePath {
    consistency: ServerConsistency,
    doc_scale: u64,
    /// How many partitions the clients are sharded over.
    sites: u32,
    /// The count the first `HELLO` named; every later one must match it.
    hello_sites: Option<u32>,
    proposer: Option<Proposer>,
    counters: OriginCounters,
    retry_interval: SimDuration,
    max_retries: u32,
    /// §5: sites sent the bulk invalidation that have not acknowledged it.
    /// A partition at recovery time would otherwise swallow the one message
    /// that voids stale freshness promises.
    recovery_unacked: Vec<u32>,
    recovery_attempts: u32,
    /// `Some` once a bulk went out to sites this node cannot list (a restart
    /// that lost the ever-seen list, a bulk relayed down a hierarchy): the
    /// sites that acknowledged it. Any other site gets it on registering.
    recovery_acked: Option<Vec<u32>>,
    /// Trace-time end of the coordinator window in progress (the daemon's
    /// clock at its last due timer); what volume leases are expired against.
    window_end: SimTime,
    audit: Option<Vec<AuditEvent>>,
}

impl WritePath {
    /// A write path under `consistency`: one site, nothing cached anywhere,
    /// bodies cut by `doc_scale`. `inval_batch` turns the batched proposer on.
    pub fn new(
        consistency: ServerConsistency,
        doc_scale: u64,
        retry_interval: SimDuration,
        max_retries: u32,
        inval_batch: Option<InvalBatchConfig>,
    ) -> Self {
        WritePath {
            consistency,
            doc_scale,
            sites: 1,
            hello_sites: None,
            proposer: inval_batch.map(Proposer::new),
            counters: OriginCounters::default(),
            retry_interval,
            max_retries,
            recovery_unacked: Vec::new(),
            recovery_attempts: 0,
            recovery_acked: None,
            window_end: SimTime::ZERO,
            audit: None,
        }
    }

    /// The server whose documents this path invalidates.
    pub fn server(&self) -> ServerId {
        self.consistency.server()
    }

    /// The server-side protocol state (site lists, open writes).
    pub fn consistency(&self) -> &ServerConsistency {
        &self.consistency
    }

    /// The batched proposer (`None`: per-write fan-out).
    pub fn proposer(&self) -> Option<&Proposer> {
        self.proposer.as_ref()
    }

    /// The counters, with what is derived (site lists, …) filled in.
    pub fn snapshot(&self) -> OriginCounters {
        OriginCounters {
            coalesced_invalidations: self.proposer.as_ref().map_or(0, |p| p.stats().coalesced),
            writes_complete: self.consistency.writes_complete(),
            sitelist: self.consistency.table().stats(),
            ..self.counters.clone()
        }
    }

    /// Sets how many partitions the clients are sharded over.
    pub fn set_sites(&mut self, sites: u32) {
        self.sites = sites.max(1);
    }

    /// Starts recording [`AuditEvent`]s.
    pub fn enable_audit(&mut self) {
        self.audit = Some(Vec::new());
    }

    /// The audit-event log (empty when auditing is off).
    pub fn audit_log(&self) -> &[AuditEvent] {
        self.audit.as_deref().unwrap_or(&[])
    }

    fn record(&mut self, ev: AuditEvent) {
        if let Some(log) = self.audit.as_mut() {
            log.push(ev);
        }
    }

    /// Whether §5 recovery has finished: no bulk is unacknowledged and, if
    /// one went to sites this node cannot list, some site acknowledged.
    pub fn recovery_complete(&self) -> bool {
        let acked = |sites: &Vec<u32>| !sites.is_empty();
        self.recovery_unacked.is_empty() && self.recovery_acked.as_ref().is_none_or(acked)
    }

    /// Answers one `GET` for a document whose current version is `meta`:
    /// counters, the site-list registration, the lease, none of it past
    /// `until`. Returns the reply and whether the grant cost a write to the
    /// persistent ever-seen list.
    pub fn grant(
        &mut self,
        get: &GetRequest,
        meta: DocMeta,
        until: Promise,
        now: SimTime,
    ) -> (Reply, bool) {
        if get.is_ims() {
            self.counters.ims += 1;
        } else {
            self.counters.gets += 1;
        }
        let (url, client) = (get.url, get.client);
        let grant =
            self.consistency
                .on_get_within(url, client, get.ims, meta, get.issued_at, until);
        if let (true, Some(lease)) = (grant.register, grant.lease) {
            self.record(AuditEvent::Register {
                url,
                client,
                lease,
                at: now,
            });
        }
        if grant.send_body {
            self.counters.replies_200 += 1;
        } else {
            self.counters.replies_304 += 1;
        }
        let new_site = grant.new_site_disk_write;
        (grant.into_reply(get, meta, self.doc_scale), new_site)
    }

    /// `url` changed (to `version`): drains its site list of the leases that
    /// end after protocol time `at` (the daemon's: its clock) and fans the
    /// invalidation out — to the proposer's queue when batching, per copy
    /// otherwise — with the still-unacknowledged leftovers of earlier fan-outs.
    pub fn modify(
        &mut self,
        url: Url,
        version: SimTime,
        at: SimTime,
        now: SimTime,
        out: &mut Vec<OriginOut>,
    ) {
        let pending_before = match self.audit {
            Some(_) => self.consistency.owed(url).to_vec(),
            None => Vec::new(),
        };
        let recipients = self.consistency.on_modify(url, at);
        if self.audit.is_some() {
            let (resent, fresh) = recipients
                .iter()
                .copied()
                .partition(|c| pending_before.binary_search(c).is_ok());
            self.record(AuditEvent::ModifyFanout {
                url,
                version,
                fresh,
                resent,
                at: now,
            });
        }
        let write = self.consistency.writes.get_mut(&url);
        let Some(write) = write.filter(|_| !recipients.is_empty()) else {
            return;
        };
        // The write's clock starts unless it is running: the earliest
        // modification wins when a coalesced round spans several.
        write.opened.get_or_insert(now);
        // Fresh fan-out with the proposer on: queue instead of sending. The
        // age timer (armed as the queue opens) bounds the wait; a count or
        // byte threshold flushes at once. Retries stay per copy — they
        // target copies a flush already announced.
        let Some(proposer) = self.proposer.as_mut() else {
            return self.send(url, None, false, now, out);
        };
        let opened = recipients
            .iter()
            .fold(false, |o, &c| proposer.enqueue(url, c) | o);
        if opened {
            let (after, timer) = (proposer.config().max_age, OriginTimer::Flush);
            out.push(OriginOut::Arm { after, timer });
        }
        if proposer.should_flush() {
            self.flush(now, out);
        }
    }

    /// One `INVALIDATE <url>` per announced copy the write awaits (of `site`
    /// only — its `HELLO` — on a fresh budget, if given), counted as retries
    /// if `retry`, and the timer that re-sends to whoever has not answered.
    fn send(
        &mut self,
        url: Url,
        site: Option<u32>,
        retry: bool,
        now: SimTime,
        out: &mut Vec<OriginOut>,
    ) {
        let (first, sites, mut log) = (out.len(), self.sites, self.audit.take());
        for client in self.announced(url, site) {
            if let Some(log) = log.as_mut() {
                log.push(AuditEvent::InvalidateSend {
                    url,
                    client,
                    retry,
                    at: now,
                });
            }
            let (site, msg) = (client.partition(sites), HttpMsg::Invalidate { url, client });
            out.push(OriginOut::Push { site, msg });
        }
        self.audit = log;
        let n = (out.len() - first) as u64;
        self.counters.invalidations += n;
        self.counters.invalidation_retries += if retry { n } else { 0 };
        if n == 0 {
            return;
        }
        let write = self.consistency.writes.get_mut(&url);
        if let Some(write) = write.filter(|_| site.is_some()) {
            write.retries = 0;
        }
        self.arm_retry(url, out);
    }

    /// The copies `url`'s write awaits (of `site` only, if given) that were
    /// announced: the proposer's queued ones go, and arm a timer, at its flush.
    fn announced(&self, url: Url, site: Option<u32>) -> impl Iterator<Item = ClientId> + '_ {
        let (sites, proposer) = (self.sites, self.proposer.as_ref());
        let owed = self.consistency.owed(url).iter().copied();
        owed.filter(move |&c| {
            site.is_none_or(|s| c.partition(sites) == s)
                && !proposer.is_some_and(|p| p.queued(url, c))
        })
    }

    /// Arms `timer` one retry period from now.
    fn arm(&self, timer: OriginTimer, out: &mut Vec<OriginOut>) {
        let after = self.retry_interval;
        out.push(OriginOut::Arm { after, timer });
    }

    /// Arms `url`'s retry timer unless its open write has one armed: every
    /// fan-out, flush and `HELLO` re-push of the write shares one chain.
    fn arm_retry(&mut self, url: Url, out: &mut Vec<OriginOut>) {
        let write = self.consistency.writes.get_mut(&url);
        if let Some(write) = write.filter(|w| !w.armed) {
            write.armed = true;
            self.arm(OriginTimer::Retry(url.doc()), out);
        }
    }

    /// Drains the proposer into one `InvalidateBatch` per site with entries,
    /// and arms each flushed document's retry timer. The audit's
    /// `InvalidateSend`s are recorded here, at send time, so the auditor's
    /// pending table matches the wire.
    fn flush(&mut self, now: SimTime, out: &mut Vec<OriginOut>) {
        let server = self.server();
        let Some(proposer) = self.proposer.as_mut().filter(|p| !p.is_empty()) else {
            return;
        };
        let rounds = proposer.drain();
        let mut per_site: BTreeMap<u32, Vec<BatchEntry>> = BTreeMap::new();
        for (url, clients) in &rounds {
            for &client in clients {
                let site = client.partition(self.sites);
                let entry = BatchEntry { url: *url, client };
                per_site.entry(site).or_default().push(entry);
            }
        }
        for (site, entries) in per_site {
            let n = entries.len();
            proposer.note_batch(n);
            self.counters.inval_batches += 1;
            self.counters.batched_entries += n as u64;
            self.counters.invalidations += n as u64;
            let msg = HttpMsg::InvalidateBatch { server, entries };
            out.push(OriginOut::Push { site, msg });
        }
        for (url, clients) in &rounds {
            for &client in clients {
                self.record(AuditEvent::InvalidateSend {
                    url: *url,
                    client,
                    retry: false,
                    at: now,
                });
            }
            self.arm_retry(*url, out);
        }
    }

    /// The module docs' rule, applied to a frame from the site `from`
    /// (`None`: no site), and what in it is not per copy: a `HELLO`
    /// registers, a bulk acknowledgement counts. `Applied` leaves the
    /// copies an acknowledgement names, all checked, to [`Self::ack`].
    pub(crate) fn admit(
        &mut self,
        from: Option<u32>,
        frame: &HttpMsg,
        now: SimTime,
        out: &mut Vec<OriginOut>,
    ) -> SiteVerdict {
        let (ours, sites) = (self.server(), self.sites);
        let named = match *frame {
            HttpMsg::Hello {
                partition,
                partitions,
            } => return self.on_site_hello(partition, partitions, now, out),
            HttpMsg::InvalAck { url, .. } => url.server(),
            HttpMsg::InvalidateBatchAck { server, .. }
            | HttpMsg::InvalidateServerAck { server } => server,
            HttpMsg::Get(_)
            | HttpMsg::Reply(_)
            | HttpMsg::Invalidate { .. }
            | HttpMsg::InvalidateServer { .. }
            | HttpMsg::InvalidateBatch { .. }
            | HttpMsg::MetricsGet
            | HttpMsg::Notify { .. } => return SiteVerdict::Refused,
        };
        let held =
            |e: BatchAckEntry| e.url.server() == ours && Some(e.client.partition(sites)) == from;
        let Some(site) = from.filter(|_| named == ours && frame.acked().all(held)) else {
            return SiteVerdict::Refused;
        };
        if let HttpMsg::InvalidateServerAck { .. } = frame {
            self.counters.acks += 1;
            if let Some(at) = self.recovery_unacked.iter().position(|&s| s == site) {
                self.recovery_unacked.remove(at);
                self.recovery_acked.iter_mut().for_each(|a| a.push(site));
            }
        }
        SiteVerdict::Applied
    }

    /// One acknowledged copy of an admitted frame: counted and recorded.
    pub(crate) fn ack(&mut self, url: Url, client: ClientId, now: SimTime) -> Acked {
        self.counters.acks += 1;
        self.consistency.on_inval_ack(url, client);
        self.record(AuditEvent::InvalidateAck {
            url,
            client,
            at: now,
        });
        let quorum = self.consistency.owed(url).is_empty();
        let write = self.consistency.writes.get_mut(&url).filter(|_| quorum);
        let took = write.and_then(|w| Some(now.saturating_since(w.opened.take()?)));
        Acked {
            url,
            client,
            quorum,
            took,
        }
    }

    /// A timer armed through [`OriginOut::Arm`] is due.
    pub fn on_timer(&mut self, timer: OriginTimer, now: SimTime, out: &mut Vec<OriginOut>) {
        match timer {
            // A timer armed before an earlier threshold flush drains what
            // re-accumulated since — flushing early is always legal, and
            // the unconditional rule keeps replays deterministic.
            OriginTimer::Flush => self.flush(now, out),
            OriginTimer::Bulk => self.retry_bulk(out),
            OriginTimer::Retry(doc) => self.retry_document(doc, now, out),
        }
    }

    /// Re-sends one document's unacknowledged invalidations, up to the
    /// retry budget. Volume leases first drop the entries whose volume has
    /// expired — the bounded-write-completion rule.
    fn retry_document(&mut self, doc: u32, now: SimTime, out: &mut Vec<OriginOut>) {
        let dropped = self.consistency.expire_pending(self.window_end);
        if dropped > 0 {
            self.record(AuditEvent::PendingExpired {
                server: self.server(),
                dropped,
                at: now,
            });
        }
        let url = Url::new(self.server(), doc);
        let owed = self.announced(url, None).count() as u64;
        let settled = self.consistency.owed(url).is_empty();
        let Some(write) = self.consistency.writes.get_mut(&url) else {
            return;
        };
        write.armed = false;
        if owed == 0 {
            // A write that owes nothing closes; one whose copies are all
            // still queued starts its budget afresh.
            write.retries = 0;
            if settled {
                self.consistency.writes.remove(&url);
            }
            return;
        }
        write.retries += 1;
        if write.retries <= self.max_retries {
            return self.send(url, None, true, now, out);
        }
        // The write will never complete: its clock stops, and the next
        // fan-out or the site's next `HELLO` starts a fresh budget.
        (write.retries, write.opened) = (0, None);
        self.counters.gave_up += owed;
        let abandoned = self.announced(url, None).collect();
        self.record(AuditEvent::GaveUp {
            url,
            abandoned,
            at: now,
        });
    }

    /// Bulk-invalidation retry tick, on the same budget as a document's.
    fn retry_bulk(&mut self, out: &mut Vec<OriginOut>) {
        if self.recovery_unacked.is_empty() {
            return;
        }
        self.recovery_attempts += 1;
        if self.recovery_attempts > self.max_retries {
            // Accounted like an abandoned fan-out: these sites may keep
            // serving promised-fresh copies the bulk should have voided
            // (a site that registers again is sent a bulk of its own).
            self.counters.gave_up += self.recovery_unacked.len() as u64;
            return self.recovery_unacked.clear();
        }
        self.send_bulk(out);
    }

    /// One bulk `INVALIDATE <server>` per unacknowledged site, and the
    /// timer that re-sends to whoever has still not answered by then.
    fn send_bulk(&mut self, out: &mut Vec<OriginOut>) {
        self.counters.bulk_invalidations += self.recovery_unacked.len() as u64;
        out.extend(self.recovery_unacked.iter().map(|&site| self.bulk(site)));
        self.arm(OriginTimer::Bulk, out);
    }

    /// The bulk `INVALIDATE <server>` for `site`.
    fn bulk(&self, site: u32) -> OriginOut {
        let server = self.server();
        let msg = HttpMsg::InvalidateServer { server };
        OriginOut::Push { site, msg }
    }

    /// The process died: main-memory state — the proposer's queue, the bulk
    /// round in progress — goes with it (the open writes at recovery).
    /// Documents and the ever-seen site list are on disk and survive.
    pub fn crash(&mut self) {
        self.recovery_unacked.clear();
        self.recovery_attempts = 0;
        self.proposer.iter_mut().for_each(Proposer::clear);
    }

    /// The server site is back, its ever-seen list read from disk: the
    /// volatile site lists and the open writes are discarded and every site
    /// is sent one bulk `INVALIDATE <server>` (it marks each copy from this
    /// server questionable), re-sent until acknowledged.
    pub fn recover(&mut self, now: SimTime, out: &mut Vec<OriginOut>) {
        let seen = self.consistency.on_server_recover();
        // Recorded even with nobody to notify: the lists went either way.
        self.record(AuditEvent::ServerRecovered {
            server: self.server(),
            at: now,
        });
        if !seen.is_empty() {
            self.void_sites(out);
        }
    }

    /// Opens a bulk round to every site, on a fresh budget.
    fn void_sites(&mut self, out: &mut Vec<OriginOut>) {
        self.recovery_unacked = (0..self.sites).collect();
        self.recovery_attempts = 0;
        self.send_bulk(out);
    }

    /// Relays a push from above that this node acked with `ack`
    /// ([`crate::ProxyCore::on_push`]): each document it names is modified
    /// and judged at `version`. A bulk goes to every site, re-sent until
    /// acknowledged and sent on a site's next `HELLO` if its channel is
    /// down; the site lists stay, their copies only questionable.
    pub(crate) fn relay(
        &mut self,
        ack: &PushAck,
        version: SimTime,
        now: SimTime,
        out: &mut Vec<OriginOut>,
    ) {
        for e in ack.acked() {
            self.modify(e.url, version, version, now, out);
        }
        if let PushAck::Bulk { .. } = ack {
            self.recover_unknown_sites();
            self.void_sites(out);
        }
    }

    /// Every site is owed the bulk invalidation, sent when it next says
    /// `HELLO`: the process restarted with nothing on disk, not even the
    /// ever-seen list.
    pub fn recover_unknown_sites(&mut self) {
        self.recovery_acked = Some(Vec::new());
    }

    /// `site` (one of `sites`) opened its push channel, for the first time
    /// or again. A node that has no acknowledged bulk from it, and owes it
    /// one, sends one. And whatever the site still owes an acknowledgement
    /// for is pushed again at once, on a fresh retry budget: invalidations
    /// sent while its channel was down went nowhere, and the copies they
    /// were for are still being served. The first `HELLO` fixes how many
    /// sites there are; one that names another count is refused, nothing
    /// done: it would re-map every client to another site.
    fn on_site_hello(
        &mut self,
        site: u32,
        sites: u32,
        now: SimTime,
        out: &mut Vec<OriginOut>,
    ) -> SiteVerdict {
        if *self.hello_sites.get_or_insert(sites) != sites {
            return SiteVerdict::Refused;
        }
        self.set_sites(sites);
        let acked = self.recovery_acked.as_ref();
        if acked.is_some_and(|acked| !acked.contains(&site)) {
            self.counters.bulk_invalidations += 1;
            out.push(self.bulk(site));
            if self.recovery_unacked.is_empty() {
                // No round in progress: this opens one, timer and budget.
                self.recovery_attempts = 0;
                self.arm(OriginTimer::Bulk, out);
            }
            if !self.recovery_unacked.contains(&site) {
                self.recovery_unacked.push(site);
            }
        }
        for url in self.consistency.writes.keys().copied().collect::<Vec<_>>() {
            self.send(url, Some(site), true, now, out);
        }
        SiteVerdict::Registered(site)
    }

    /// A coordinator window ending at trace time `window_end` begins: a
    /// safe point to collect the leases that expired before the previous
    /// one ended. Retry ticks expire volume leases against `window_end`.
    pub fn on_window(&mut self, window_end: SimTime, now: SimTime) {
        let before = self.window_end;
        let purged = self.consistency.purge_expired_leases(before);
        self.record(AuditEvent::PurgeExpired {
            server: self.server(),
            before,
            purged,
            at: now,
        });
        self.window_end = window_end;
    }
}

/// The accelerator: a [`WritePath`] (which it derefs to — `modify`,
/// `on_timer`, `recover`, … are the path's) over the documents it serves.
#[derive(Debug)]
pub struct OriginCore {
    path: WritePath,
    doc_sizes: Vec<ByteSize>,
    /// Current last-modified (trace) time per document.
    versions: Vec<SimTime>,
    meter: HitMeter,
}

impl std::ops::Deref for OriginCore {
    type Target = WritePath;
    fn deref(&self) -> &WritePath {
        &self.path
    }
}

impl std::ops::DerefMut for OriginCore {
    fn deref_mut(&mut self) -> &mut WritePath {
        &mut self.path
    }
}

impl OriginCore {
    /// An origin serving `doc_sizes` under `consistency`, one site, nothing
    /// cached anywhere. `inval_batch` turns the batched proposer on.
    pub fn new(
        consistency: ServerConsistency,
        doc_sizes: Vec<ByteSize>,
        doc_scale: u64,
        retry_interval: SimDuration,
        max_retries: u32,
        inval_batch: Option<InvalBatchConfig>,
    ) -> Self {
        OriginCore {
            path: WritePath::new(
                consistency,
                doc_scale,
                retry_interval,
                max_retries,
                inval_batch,
            ),
            versions: vec![SimTime::ZERO; doc_sizes.len()],
            doc_sizes,
            meter: HitMeter::new(),
        }
    }

    /// The counters, with what is derived (meter, site lists, …) filled in.
    pub fn snapshot(&self) -> OriginCounters {
        OriginCounters {
            metered_served: self.meter.served(),
            metered_reported: self.meter.reported(),
            ..self.path.snapshot()
        }
    }

    /// Current last-modified time of `url`, if this origin has it.
    pub fn version(&self, url: Url) -> Option<SimTime> {
        self.meta(url).map(DocMeta::last_modified)
    }

    fn meta(&self, url: Url) -> Option<DocMeta> {
        let doc = url.doc() as usize;
        let ours = url.server() == self.path.server();
        let size = self.doc_sizes.get(doc).filter(|_| ours)?;
        Some(DocMeta::new(*size, *self.versions.get(doc)?))
    }

    /// Serves one `GET`: §7 metering and the path's grant. `None` for a
    /// document this origin does not have (ids come off the wire).
    pub fn serve(&mut self, get: &GetRequest, now: SimTime) -> Option<(Reply, bool)> {
        let meta = self.meta(get.url)?;
        self.meter.record_request(get.url);
        self.meter.record_report(get.url, get.cache_hits);
        Some(self.path.grant(get, meta, Promise::UNBOUNDED, now))
    }

    /// A check-in: `url`'s mtime advances to `at`. Returns the document's
    /// version now, `None` for a document this origin does not have. The
    /// driver decides when the accelerator notices ([`WritePath::modify`]).
    pub fn touch(&mut self, url: Url, at: SimTime, now: SimTime) -> Option<SimTime> {
        self.meta(url)?;
        let version = self.versions.get_mut(url.doc() as usize)?;
        *version = (*version).max(at);
        let version = *version;
        self.path.counters.notifies += 1;
        self.path.record(AuditEvent::Touch {
            url,
            version: at,
            at: now,
        });
        Some(version)
    }

    /// A frame from the site `from` (`None`: no site), under the module
    /// docs' rule. Each copy an applied acknowledgement names has its §7
    /// report metered and goes to `acked` with its document's version, in
    /// frame order; an entry for a document this origin does not have
    /// counts nothing (ids come off the wire).
    pub fn on_site_frame(
        &mut self,
        from: Option<u32>,
        frame: HttpMsg,
        now: SimTime,
        out: &mut Vec<OriginOut>,
        mut acked: impl FnMut(Acked, SimTime),
    ) -> SiteVerdict {
        let verdict = self.path.admit(from, &frame, now, out);
        for e in frame.acked().filter(|_| verdict == SiteVerdict::Applied) {
            if let Some(version) = self.version(e.url) {
                self.meter.record_report(e.url, e.cache_hits);
                acked(self.path.ack(e.url, e.client, now), version);
            }
        }
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ProtocolConfig, ProtocolKind};
    use wcc_proto::RequestId;

    const RETRY: SimDuration = SimDuration::from_millis(250);

    fn url(doc: u32) -> Url {
        Url::new(ServerId::new(0), doc)
    }

    fn client(raw: u32) -> ClientId {
        ClientId::from_raw(raw)
    }

    /// Two sites, three documents, a budget of two retries; clients 4 and 5
    /// (sites 0 and 1) hold document 1.
    fn origin() -> OriginCore {
        let cfg = ProtocolConfig::new(ProtocolKind::Invalidation);
        let consistency = ServerConsistency::new(&cfg, ServerId::new(0));
        let sizes = vec![ByteSize::from_kib(1); 3];
        let mut core = OriginCore::new(consistency, sizes, 100, RETRY, 2, None);
        core.set_sites(2);
        core.enable_audit();
        for c in [4, 5] {
            assert!(core.serve(&get(c), SimTime::ZERO).is_some());
        }
        core
    }

    /// Client `c`'s `GET` for document 1.
    fn get(c: u32) -> GetRequest {
        GetRequest {
            req: RequestId::default(),
            url: url(1),
            client: client(c),
            ims: None,
            issued_at: SimTime::from_secs(1),
            cache_hits: 0,
        }
    }

    /// The frame that invalidates client `c`'s copy of document 1.
    fn invalidate(site: u32, c: u32) -> OriginOut {
        let msg = HttpMsg::Invalidate {
            url: url(1),
            client: client(c),
        };
        OriginOut::Push { site, msg }
    }

    fn bulk(site: u32) -> OriginOut {
        let msg = HttpMsg::InvalidateServer {
            server: ServerId::new(0),
        };
        OriginOut::Push { site, msg }
    }

    /// Client `c`'s `InvalAck` for `url` from `site`, through the entry:
    /// how long the write took if this was its last copy, or the refusal.
    fn ack(
        core: &mut OriginCore,
        site: u32,
        url: Url,
        c: ClientId,
        cache_hits: u64,
        now: SimTime,
    ) -> Result<Option<SimDuration>, SiteVerdict> {
        let (mut out, mut took, client) = (Vec::new(), None, c);
        let frame = HttpMsg::InvalAck {
            url,
            client,
            cache_hits,
        };
        match core.on_site_frame(Some(site), frame, now, &mut out, |a, _| took = a.took) {
            SiteVerdict::Applied => Ok(took),
            refused @ (SiteVerdict::Registered(_) | SiteVerdict::Refused) => Err(refused),
        }
    }

    /// `site`'s acknowledgement of the bulk, through the entry.
    fn bulk_ack(core: &mut OriginCore, site: u32) {
        let ack = HttpMsg::InvalidateServerAck {
            server: ServerId::new(0),
        };
        let (now, out) = (SimTime::ZERO, &mut Vec::new());
        let said = core.on_site_frame(Some(site), ack, now, out, |_, _| ());
        assert_eq!(said, SiteVerdict::Applied);
    }

    fn arm(timer: OriginTimer) -> OriginOut {
        let after = RETRY;
        OriginOut::Arm { after, timer }
    }

    fn write(core: &mut OriginCore, out: &mut Vec<OriginOut>) {
        write_at(core, SimTime::ZERO, out);
    }

    /// A check-in of document 1, noticed at `now`.
    fn write_at(core: &mut OriginCore, now: SimTime, out: &mut Vec<OriginOut>) {
        let at = SimTime::from_secs(9) + now.saturating_since(SimTime::ZERO);
        assert_eq!(core.touch(url(1), at, now), Some(at));
        core.modify(url(1), at, at, now, out);
    }

    fn ms(millis: u64) -> SimTime {
        SimTime::from_millis(millis)
    }

    /// What a driver does with the core's output: every `Arm` becomes a
    /// timer due `after` from when it was asked for, fired in due order
    /// (ties in arming order) by `run`; pushes are dropped.
    #[derive(Default)]
    struct Wheel {
        due: Vec<(SimTime, OriginTimer)>,
        arms: usize,
    }

    impl Wheel {
        fn take(&mut self, out: &mut Vec<OriginOut>, now: SimTime) {
            for o in out.drain(..) {
                if let OriginOut::Arm { after, timer } = o {
                    self.due.push((now + after, timer));
                    self.arms += 1;
                }
            }
        }

        /// Fires every timer due by `until`.
        fn run(&mut self, core: &mut OriginCore, until: SimTime) {
            while let Some(next) = (0..self.due.len())
                .min_by_key(|&i| self.due[i].0)
                .filter(|&i| self.due[i].0 <= until)
            {
                let (now, timer) = self.due.remove(next);
                let mut out = Vec::new();
                core.on_timer(timer, now, &mut out);
                self.take(&mut out, now);
            }
        }
    }

    fn gave_up_events(core: &OriginCore) -> usize {
        let gave_up = |e: &&AuditEvent| matches!(e, AuditEvent::GaveUp { .. });
        core.audit_log().iter().filter(gave_up).count()
    }

    /// Two writes to one document while the site holding a copy is
    /// unreachable: the second re-sends the copy on the first's timer, so
    /// one chain of ticks spends the budget and gives the copy up once.
    #[test]
    fn two_writes_while_a_site_is_unreachable_share_one_timer_and_give_up_once() {
        let (mut core, mut out, mut wheel) = (origin(), Vec::new(), Wheel::default());
        write(&mut core, &mut out);
        wheel.take(&mut out, SimTime::ZERO);
        assert_eq!(ack(&mut core, 0, url(1), client(4), 0, ms(10)), Ok(None));
        write_at(&mut core, ms(100), &mut out);
        assert_eq!(out, [invalidate(1, 5)], "resent, no second timer");
        wheel.take(&mut out, ms(100));
        wheel.run(&mut core, SimTime::from_secs(60));
        let snap = core.snapshot();
        assert_eq!((snap.invalidation_retries, snap.gave_up), (2, 1));
        assert_eq!((wheel.arms, gave_up_events(&core)), (3, 1));
    }

    /// A site whose channel flaps says `HELLO` again and again: each pushes
    /// what it owes at once, on the write's one running chain.
    #[test]
    fn a_sites_repeated_hello_during_an_outage_adds_no_timer_chain() {
        let (mut core, mut out, mut wheel) = (origin(), Vec::new(), Wheel::default());
        write(&mut core, &mut out);
        wheel.take(&mut out, SimTime::ZERO);
        assert_eq!(ack(&mut core, 0, url(1), client(4), 0, ms(10)), Ok(None));
        for at in [ms(50), ms(100), ms(150)] {
            core.on_site_hello(1, 2, at, &mut out);
            assert_eq!(out, [invalidate(1, 5)], "at {at}");
            wheel.take(&mut out, at);
        }
        wheel.run(&mut core, SimTime::from_secs(60));
        let snap = core.snapshot();
        assert_eq!((snap.invalidation_retries, snap.gave_up), (3 + 2, 1));
        assert_eq!((wheel.arms, gave_up_events(&core)), (3, 1));
    }

    /// A write modified again before its copies acknowledge is timed from
    /// its first fan-out, and the re-send spends no extra budget: two ticks
    /// of a budget of two have run when the acks land at 600 ms.
    #[test]
    fn a_write_modified_again_before_its_acks_keeps_its_first_open_instant() {
        let (mut core, mut out, mut wheel) = (origin(), Vec::new(), Wheel::default());
        write(&mut core, &mut out);
        wheel.take(&mut out, SimTime::ZERO);
        write_at(&mut core, ms(100), &mut out);
        wheel.take(&mut out, ms(100));
        wheel.run(&mut core, ms(600));
        assert_eq!(ack(&mut core, 0, url(1), client(4), 0, ms(600)), Ok(None));
        let took = ack(&mut core, 1, url(1), client(5), 0, ms(600));
        assert_eq!(took, Ok(Some(SimDuration::from_millis(600))));
        assert_eq!(core.snapshot().gave_up, 0);
    }

    #[test]
    fn fan_out_is_retried_until_acked_or_the_budget_runs_out() {
        let (mut core, mut out) = (origin(), Vec::new());
        write(&mut core, &mut out);
        let retry = arm(OriginTimer::Retry(1));
        assert_eq!(out, [invalidate(0, 4), invalidate(1, 5), retry.clone()]);
        let t1 = SimTime::ZERO + RETRY;
        assert_eq!(
            ack(&mut core, 0, url(1), client(4), 3, t1),
            Ok(None),
            "5 is still out"
        );
        // Only the unacknowledged copy is sent again, twice; then given up.
        for _ in 0..2 {
            out.clear();
            core.on_timer(OriginTimer::Retry(1), t1, &mut out);
            assert_eq!(out, [invalidate(1, 5), retry.clone()]);
        }
        out.clear();
        core.on_timer(OriginTimer::Retry(1), t1, &mut out);
        assert!(out.is_empty());
        let snap = core.snapshot();
        assert_eq!((snap.invalidations, snap.invalidation_retries), (4, 2));
        assert_eq!((snap.gave_up, snap.writes_complete), (1, false));
        assert_eq!((snap.metered_served, snap.metered_reported), (2, 3));
        assert!(matches!(
            core.audit_log().last(),
            Some(AuditEvent::GaveUp { abandoned, .. }) if abandoned == &[client(5)]
        ));
        // The abandoned write's clock is gone: a late ack completes nothing.
        assert_eq!(ack(&mut core, 1, url(1), client(5), 0, t1), Ok(None));
        assert!(core.snapshot().writes_complete);
    }

    #[test]
    fn the_last_ack_reports_how_long_the_write_took() {
        let (mut core, mut out) = (origin(), Vec::new());
        write(&mut core, &mut out);
        let later = SimTime::ZERO + RETRY;
        assert_eq!(ack(&mut core, 1, url(1), client(5), 0, later), Ok(None));
        assert_eq!(
            ack(&mut core, 0, url(1), client(4), 0, later),
            Ok(Some(RETRY))
        );
    }

    /// Only the site that holds a copy answers for it: an ack for client 5
    /// (site 1) that arrives from site 0 is refused, counts nothing and
    /// leaves the copy pending, so its retry still goes out.
    #[test]
    fn an_ack_from_another_site_is_refused() {
        let (mut core, mut out) = (origin(), Vec::new());
        write(&mut core, &mut out);
        let before = (core.snapshot(), core.audit_log().len());
        assert_eq!(
            ack(&mut core, 0, url(1), client(5), 7, SimTime::ZERO),
            Err(SiteVerdict::Refused)
        );
        assert_eq!((core.snapshot(), core.audit_log().len()), before);
        out.clear();
        core.on_timer(OriginTimer::Retry(1), SimTime::ZERO, &mut out);
        assert_eq!(
            out,
            [
                invalidate(0, 4),
                invalidate(1, 5),
                arm(OriginTimer::Retry(1))
            ]
        );
    }

    /// One rule for both tiers: every frame a site sends, fed in turn to an
    /// origin and to a parent whose children hold the same copies (clients
    /// 4 and 5 of document 1, on sites 0 and 1, one write outstanding). Each
    /// row pins the verdict, then the acks counted and whether the write is
    /// complete; a refused frame applies nothing, not even its good entries.
    #[test]
    fn one_rule_decides_which_site_frame_counts() {
        use crate::{ParentCore, ProtocolConfig, ProtocolKind, ProxyCore, ProxyPolicy};
        use wcc_cache::{CacheStore, ReplacementPolicy};
        use SiteVerdict::{Applied, Refused, Registered};
        let (ours, theirs) = (ServerId::new(0), ServerId::new(1));
        let entry = |c| BatchAckEntry {
            url: url(1),
            client: client(c),
            cache_hits: 2,
        };
        let inval_ack = |c| HttpMsg::InvalAck {
            url: url(1),
            client: client(c),
            cache_hits: 2,
        };
        let batch = |server, cs: &[u32]| HttpMsg::InvalidateBatchAck {
            server,
            entries: cs.iter().map(|&c| entry(c)).collect(),
        };
        let bulk = |server| HttpMsg::InvalidateServerAck { server };
        let hello = |partitions| HttpMsg::Hello {
            partition: 0,
            partitions,
        };
        let push = HttpMsg::Invalidate {
            url: url(1),
            client: client(5),
        };
        let reply = HttpMsg::Reply(Reply {
            req: RequestId::default(),
            url: url(1),
            client: client(5),
            status: wcc_proto::ReplyStatus::NotModified,
            lease: None,
            piggyback: Vec::new(),
            volume_lease: None,
        });
        let round = HttpMsg::InvalidateBatch {
            server: ours,
            entries: vec![BatchEntry {
                url: url(1),
                client: client(5),
            }],
        };
        let notify = HttpMsg::Notify {
            url: url(1),
            at: SimTime::ZERO,
        };
        let table = [
            (None, inval_ack(4), Refused, 0, false),
            (None, hello(2), Registered(0), 0, false),
            (None, hello(3), Refused, 0, false),
            (Some(0), inval_ack(4), Applied, 1, false),
            (Some(0), inval_ack(5), Refused, 1, false),
            (Some(1), batch(ours, &[5, 4]), Refused, 1, false),
            (Some(1), batch(theirs, &[5]), Refused, 1, false),
            (Some(1), bulk(theirs), Refused, 1, false),
            (Some(1), push, Refused, 1, false),
            (Some(1), HttpMsg::Get(get(5)), Refused, 1, false),
            (Some(1), reply, Refused, 1, false),
            (Some(1), round, Refused, 1, false),
            (
                Some(1),
                HttpMsg::InvalidateServer { server: ours },
                Refused,
                1,
                false,
            ),
            (Some(1), HttpMsg::MetricsGet, Refused, 1, false),
            (Some(1), notify, Refused, 1, false),
            (Some(1), batch(ours, &[5]), Applied, 2, true),
            (Some(1), bulk(ours), Applied, 3, true),
        ];

        let (mut origin, mut out) = (origin(), Vec::new());
        write(&mut origin, &mut out);
        let cfg = ProtocolConfig::new(ProtocolKind::Invalidation);
        let mut down = WritePath::new(ServerConsistency::new(&cfg, ours), 100, RETRY, 2, None);
        down.set_sites(2);
        let meta = DocMeta::new(ByteSize::from_kib(1), SimTime::ZERO);
        for c in [4, 5] {
            let _ = down.grant(&get(c), meta, Promise::UNBOUNDED, SimTime::ZERO);
        }
        let at = SimTime::from_secs(9);
        down.modify(url(1), at, at, SimTime::ZERO, &mut out);
        let cache = CacheStore::unbounded(ReplacementPolicy::Lru);
        let fetch = ProxyCore::new(ProxyPolicy::new(&cfg), cache);
        let mut parent = ParentCore::<()>::new(client(0), fetch, down);

        for (row, (from, frame, verdict, acks, complete)) in table.into_iter().enumerate() {
            let now = SimTime::ZERO;
            let got = origin.on_site_frame(from, frame.clone(), now, &mut out, |_, _| ());
            let c = origin.snapshot();
            let want = (verdict, acks, complete);
            assert_eq!((got, c.acks, c.writes_complete), want, "origin, row {row}");
            let got = parent.on_site_frame(from, frame, now, &mut out);
            let c = parent.down().snapshot();
            assert_eq!((got, c.acks, c.writes_complete), want, "parent, row {row}");
        }
        // The two applied entries' §7 reports, 2 hits each, were metered.
        assert_eq!(origin.snapshot().metered_reported, 4);
    }

    #[test]
    fn a_site_that_registers_again_is_pushed_what_it_owes_at_once() {
        let (mut core, mut out) = (origin(), Vec::new());
        write(&mut core, &mut out);
        // Spend site 1's whole budget into the void.
        for _ in 0..3 {
            core.on_timer(OriginTimer::Retry(1), SimTime::ZERO, &mut out);
        }
        assert_eq!(core.snapshot().gave_up, 2);
        out.clear();
        core.on_site_hello(1, 2, SimTime::ZERO, &mut out);
        // Its own copies only, as retries, on a fresh budget.
        assert_eq!(out, [invalidate(1, 5), arm(OriginTimer::Retry(1))]);
        out.clear();
        core.on_timer(OriginTimer::Retry(1), SimTime::ZERO, &mut out);
        assert_eq!(out.len(), 3, "both copies, and the timer: {out:?}");
        // Nothing is owed by a site whose copies were acknowledged.
        assert_eq!(
            ack(&mut core, 0, url(1), client(4), 0, SimTime::ZERO),
            Ok(None)
        );
        out.clear();
        core.on_site_hello(0, 2, SimTime::ZERO, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn a_restart_without_the_ever_seen_list_sends_the_bulk_on_registration() {
        let (mut core, mut out) = (origin(), Vec::new());
        assert!(core.recovery_complete(), "a clean start has nothing to do");
        core.recover_unknown_sites();
        assert!(!core.recovery_complete(), "nobody acknowledged yet");
        core.on_site_hello(0, 2, SimTime::ZERO, &mut out);
        core.on_site_hello(1, 2, SimTime::ZERO, &mut out);
        // One timer for the round, however many sites join it.
        assert_eq!(out, [bulk(0), arm(OriginTimer::Bulk), bulk(1)]);
        bulk_ack(&mut core, 0);
        assert!(!core.recovery_complete(), "site 1 has not answered");
        out.clear();
        core.on_timer(OriginTimer::Bulk, SimTime::ZERO, &mut out);
        assert_eq!(out, [bulk(1), arm(OriginTimer::Bulk)]);
        bulk_ack(&mut core, 1);
        assert!(core.recovery_complete());
        // Acknowledged sites are not voided again; the round's timer lapses.
        out.clear();
        core.on_site_hello(0, 2, SimTime::ZERO, &mut out);
        core.on_timer(OriginTimer::Bulk, SimTime::ZERO, &mut out);
        assert!(out.is_empty());
        assert_eq!(core.snapshot().bulk_invalidations, 3);
    }

    #[test]
    fn a_recovery_from_disk_voids_every_site_and_gives_up_on_the_silent() {
        let (mut core, mut out) = (origin(), Vec::new());
        write(&mut core, &mut out);
        out.clear();
        core.crash();
        core.recover(SimTime::ZERO, &mut out);
        assert_eq!(out, [bulk(0), bulk(1), arm(OriginTimer::Bulk)]);
        assert!(core.snapshot().writes_complete, "the pending set went too");
        bulk_ack(&mut core, 0);
        for sent in [true, true, false] {
            out.clear();
            core.on_timer(OriginTimer::Bulk, SimTime::ZERO, &mut out);
            assert_eq!(!out.is_empty(), sent);
        }
        let snap = core.snapshot();
        assert_eq!((snap.bulk_invalidations, snap.gave_up), (4, 1));
        assert!(core.recovery_complete());
    }

    #[test]
    fn a_bulk_from_above_is_relayed_until_acked_and_keeps_the_site_lists() {
        let (mut core, mut out) = (origin(), Vec::new());
        let lists = core.snapshot().sitelist;
        let acked = PushAck::Bulk {
            server: ServerId::new(0),
        };
        core.relay(&acked, SimTime::ZERO, SimTime::ZERO, &mut out);
        assert_eq!(out, [bulk(0), bulk(1), arm(OriginTimer::Bulk)]);
        assert_eq!(core.snapshot().sitelist, lists, "only questionable");
        bulk_ack(&mut core, 0);
        // Site 1's channel was down: the round gives up on it, and it is
        // sent the bulk when it registers — site 0, which answered, is not.
        for _ in 0..3 {
            core.on_timer(OriginTimer::Bulk, SimTime::ZERO, &mut out);
        }
        assert_eq!(core.snapshot().gave_up, 1);
        out.clear();
        core.on_site_hello(0, 2, SimTime::ZERO, &mut out);
        assert!(out.is_empty());
        core.on_site_hello(1, 2, SimTime::ZERO, &mut out);
        assert_eq!(out, [bulk(1), arm(OriginTimer::Bulk)]);
        bulk_ack(&mut core, 1);
        assert!(core.recovery_complete());
    }

    /// A `HELLO` with another site count than the first one is refused: it
    /// would send every client's invalidations to another site.
    #[test]
    fn the_first_hello_fixes_the_site_count() {
        let (mut core, mut out) = (origin(), Vec::new());
        assert_eq!(
            core.on_site_hello(0, 2, SimTime::ZERO, &mut out),
            SiteVerdict::Registered(0)
        );
        assert_eq!(
            core.on_site_hello(0, 3, SimTime::ZERO, &mut out),
            SiteVerdict::Refused
        );
        assert_eq!(
            core.on_site_hello(1, 1, SimTime::ZERO, &mut out),
            SiteVerdict::Refused
        );
        write(&mut core, &mut out);
        let retry = arm(OriginTimer::Retry(1));
        assert_eq!(out, [invalidate(0, 4), invalidate(1, 5), retry]);
        assert_eq!(
            core.on_site_hello(1, 2, SimTime::ZERO, &mut out),
            SiteVerdict::Registered(1)
        );
    }

    #[test]
    fn ids_off_the_wire_that_name_no_document_change_nothing() {
        let mut core = origin();
        let before = core.snapshot();
        let get = GetRequest {
            req: RequestId::default(),
            url: url(3),
            client: client(4),
            ims: None,
            issued_at: SimTime::ZERO,
            cache_hits: 9,
        };
        assert_eq!(core.serve(&get, SimTime::ZERO), None);
        assert_eq!(core.touch(url(3), SimTime::ZERO, SimTime::ZERO), None);
        assert_eq!(
            ack(&mut core, 0, url(3), client(4), 9, SimTime::ZERO),
            Ok(None)
        );
        let elsewhere = Url::new(ServerId::new(1), 1);
        assert_eq!(core.touch(elsewhere, SimTime::ZERO, SimTime::ZERO), None);
        assert_eq!(core.snapshot(), before);
    }
}
