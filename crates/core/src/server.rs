//! The server-side (accelerator) half of each consistency protocol; an open
//! write is one record, its retry budget and clock kept by the write path.

use crate::config::{Delivery, Leases, ProtocolConfig};
use crate::economics::LeaseEconomics;
use crate::sitelist::InvalidationTable;
use std::collections::BTreeMap;
use wcc_proto::{GetRequest, Reply, ReplyStatus};
use wcc_types::{
    Body, ClientId, DocMeta, FxHashMap, FxHashSet, ServerId, SimDuration, SimTime, Url,
};

/// The accelerator's decision about one `GET`/`If-Modified-Since` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GetGrant {
    /// `true` → reply `200` with the body; `false` → reply `304`.
    pub send_body: bool,
    /// Lease expiry granted to the client (`None` for non-lease protocols;
    /// `Some(SimTime::NEVER)` is the plain-invalidation infinite promise).
    pub lease: Option<SimTime>,
    /// Whether the client was registered in the document's site list.
    pub register: bool,
    /// Whether registering required a recovery-list disk write (first time
    /// this client site has ever been seen by this server).
    pub new_site_disk_write: bool,
    /// Invalidations piggybacked on this reply (PSI and volume leases):
    /// documents this client must drop.
    pub piggyback: Vec<Url>,
    /// Volume-lease grant: under volume leases every reply renews the
    /// client's per-server volume lease.
    pub volume_lease: Option<SimTime>,
}

impl GetGrant {
    /// The reply that answers `get` under this grant: a `200` carrying
    /// `meta`'s synthetic body (payload cut by `doc_scale`) or a `304`, with
    /// the lease, piggyback and volume lease granted (leases as durations).
    pub fn into_reply(self, get: &GetRequest, meta: DocMeta, doc_scale: u64) -> Reply {
        let span = |end: SimTime| match end {
            SimTime::NEVER => SimDuration::MAX,
            end => end.saturating_since(get.issued_at),
        };
        Reply {
            req: get.req,
            url: get.url,
            client: get.client,
            status: if self.send_body {
                ReplyStatus::Ok(Body::synthetic(meta, doc_scale))
            } else {
                ReplyStatus::NotModified
            },
            lease: self.lease.map(span),
            piggyback: self.piggyback,
            volume_lease: self.volume_lease.map(span),
        }
    }
}

/// The end of what a grantor was promised itself: its copy's lease and its
/// volume lease. Nothing it grants ends later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Promise {
    /// When the grantor's object lease ends.
    pub lease: SimTime,
    /// When its volume lease ends.
    pub volume: SimTime,
}

impl Promise {
    /// The origin's: it holds the documents, so nothing bounds it.
    pub const UNBOUNDED: Promise = Promise {
        lease: SimTime::NEVER,
        volume: SimTime::NEVER,
    };
}

/// Counters the server half maintains (inputs to Tables 3–5).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Modifications processed.
    pub modifications: u64,
    /// `INVALIDATE <url>` messages requested (sum of fan-outs).
    pub invalidations_sent: u64,
    /// Site registrations performed.
    pub registrations: u64,
    /// Disk writes to the persistent ever-seen site list.
    pub recovery_disk_writes: u64,
    /// Invalidations delivered by piggybacking on replies (PSI).
    pub piggybacked: u64,
}

/// One open write of a document, from its first fan-out to the first retry
/// tick that finds nothing owed.
#[derive(Debug, Clone, Default)]
pub(crate) struct OpenWrite {
    /// Copies that owe an acknowledgement: sorted, no duplicates, kept so
    /// by this module's steps alone.
    owed: Vec<ClientId>,
    /// Retry ticks spent.
    pub(crate) retries: u32,
    /// When the write opened; `None` once acknowledged or given up on.
    pub(crate) opened: Option<SimTime>,
    /// Whether its retry timer is armed: one chain of ticks per write.
    pub(crate) armed: bool,
}

/// The server-side protocol state machine, living in the Harvest
/// accelerator so the origin server itself needs no modification.
///
/// Owns the invalidation table (per-document site lists with leases), the
/// open writes and the copies each still waits for, and the persistent
/// ever-seen client list used for crash recovery. Pure state: the sequence
/// of its steps, timers and retries are [`WritePath`](crate::WritePath)'s,
/// actual message transmission its drivers' (`wcc-httpsim`, `wcc-net`).
#[derive(Debug, Clone)]
pub struct ServerConsistency {
    server: ServerId,
    /// The lease each reply carries; `None` grants none and tracks no site.
    lease: Option<Leases>,
    /// How a change reaches the sites on a document's list.
    delivery: Delivery,
    table: InvalidationTable,
    /// The open writes, in URL order; the write path keeps their budgets.
    pub(crate) writes: BTreeMap<Url, OpenWrite>,
    /// Every client site this server has ever replied to (mirrored to disk;
    /// survives crashes — used for the bulk `INVALIDATE <server>` on
    /// recovery).
    ever_seen: FxHashSet<ClientId>,
    /// PSI / volume leases: invalidations waiting to ride the next reply
    /// to each site.
    piggyback_queues: FxHashMap<ClientId, Vec<Url>>,
    /// Volume leases, where the policy has them.
    volume: Option<VolumeLeases>,
    /// Site-list length observed at each modification (Table 5's
    /// "taken among the site lists of files that have been modified").
    modified_list_lens: Vec<u64>,
    /// Adaptive lease economics: per-URL read/write counters driving
    /// per-document lease durations (when configured).
    economics: Option<LeaseEconomics>,
    stats: ServerStats,
}

/// The server's volume leases: the length each reply grants, and when each
/// client's ends (trace time).
#[derive(Debug, Clone)]
struct VolumeLeases {
    len: SimDuration,
    ends: FxHashMap<ClientId, SimTime>,
}

impl VolumeLeases {
    fn live(&self, client: ClientId, now: SimTime) -> bool {
        self.ends.get(&client).is_some_and(|&end| end > now)
    }
}

impl ServerConsistency {
    /// Creates the server half of the configured protocol for `server`.
    pub fn new(cfg: &ProtocolConfig, server: ServerId) -> Self {
        let policy = cfg.policy();
        ServerConsistency {
            server,
            lease: policy.lease,
            delivery: policy.delivery,
            table: InvalidationTable::new(),
            writes: BTreeMap::new(),
            ever_seen: FxHashSet::default(),
            piggyback_queues: FxHashMap::default(),
            volume: policy.volume.map(|len| VolumeLeases {
                len,
                ends: FxHashMap::default(),
            }),
            modified_list_lens: Vec::new(),
            economics: cfg.adaptive_lease.map(LeaseEconomics::new),
            stats: ServerStats::default(),
        }
    }

    /// The origin server this accelerator fronts.
    pub fn server(&self) -> ServerId {
        self.server
    }

    /// The invalidation table (site lists).
    pub fn table(&self) -> &InvalidationTable {
        &self.table
    }

    /// Server-side counters.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Site-list lengths observed at modification time, for Table 5's
    /// avg/max rows.
    pub fn modified_list_lens(&self) -> &[u64] {
        &self.modified_list_lens
    }

    /// Handles a `GET` (plain if `ims` is `None`, conditional otherwise)
    /// from `client` for `url`, whose current version is `doc`.
    pub fn on_get(
        &mut self,
        url: Url,
        client: ClientId,
        ims: Option<SimTime>,
        doc: DocMeta,
        now: SimTime,
    ) -> GetGrant {
        self.on_get_within(url, client, ims, doc, now, Promise::UNBOUNDED)
    }

    /// [`Self::on_get`] by a grantor promised only `until` (a parent): the
    /// leases it grants, and the registration, end no later.
    pub(crate) fn on_get_within(
        &mut self,
        url: Url,
        client: ClientId,
        ims: Option<SimTime>,
        doc: DocMeta,
        now: SimTime,
        until: Promise,
    ) -> GetGrant {
        debug_assert_eq!(url.server(), self.server);
        let send_body = match ims {
            Some(validator) => doc.modified_since(validator),
            None => true,
        };
        // Repeat readers (those that come back with an If-Modified-Since)
        // may earn a longer lease than first-time GETs; a zero lease is
        // granted but not tracked.
        let lease = self
            .lease
            .map(|l| if ims.is_some() { l.ims } else { l.get });
        let register = lease.is_some_and(|d| !d.is_zero());
        let lease = lease.map(|d| now + d);
        // Adaptive lease economics: every request is a read, and tracked
        // grants replace the policy's fixed duration with the per-document
        // cost objective (plain invalidation's infinite promise becomes a
        // bounded adaptive lease).
        let lease = match self.economics.as_mut() {
            Some(econ) => {
                econ.on_read(url);
                match (register, lease) {
                    (true, Some(_)) => Some(now + econ.lease_for(url)),
                    (_, lease) => lease,
                }
            }
            None => lease,
        };
        let lease = lease.map(|end| end.min(until.lease));
        let mut new_site_disk_write = false;
        // Every registering policy grants a lease, so destructuring both
        // together keeps that invariant in the types instead of a panic.
        if let (true, Some(expiry)) = (register, lease) {
            self.stats.registrations += 1;
            // "A disk access is only necessary when a new client site which
            // has never been seen before contacts the server."
            if self.ever_seen.insert(client) {
                self.stats.recovery_disk_writes += 1;
                new_site_disk_write = true;
            }
            self.table.register(url, client, expiry);
        }
        // PSI / volume leases: deliver any invalidations queued for this
        // site on this reply (its own freshly-requested document needs no
        // notice).
        let mut piggyback = self.piggyback_queues.remove(&client).unwrap_or_default();
        piggyback.retain(|&u| u != url);
        self.stats.piggybacked += piggyback.len() as u64;
        // Volume leases: every reply renews the short volume lease.
        let volume_lease = self.volume.as_mut().map(|volume| {
            let expiry = (now + volume.len).min(until.volume);
            volume.ends.insert(client, expiry);
            expiry
        });
        GetGrant {
            send_body,
            lease,
            register,
            new_site_disk_write,
            piggyback,
            volume_lease,
        }
    }

    /// The accelerator detected a modification of `url` (via the check-in
    /// `NOTIFY` or the browser-based heuristic). Returns the clients that
    /// must receive `INVALIDATE <url>`, sorted: the fresh ones and those the
    /// write already owes; the first fan-out opens the write's record.
    pub fn on_modify(&mut self, url: Url, now: SimTime) -> Vec<ClientId> {
        self.stats.modifications += 1;
        if let Some(econ) = self.economics.as_mut() {
            econ.on_write(url);
        }
        if self.delivery == Delivery::None {
            return Vec::new();
        }
        self.modified_list_lens
            .push(self.table.site_count(url) as u64);
        let mut fresh = self.table.take_sites(url, now);
        if self.delivery == Delivery::Piggyback {
            // PSI: no push — queue the invalidation for each site's next
            // contact instead.
            for client in fresh {
                self.piggyback_queues.entry(client).or_default().push(url);
            }
            return Vec::new();
        }
        if let Some(volume) = &self.volume {
            // Push only to clients whose volume lease is live; the rest
            // cannot use the copy without renewing, and the renewal reply
            // will piggyback the invalidation.
            fresh.retain(|&client| {
                let live = volume.live(client, now);
                if !live {
                    self.piggyback_queues.entry(client).or_default().push(url);
                }
                live
            });
        }
        self.stats.invalidations_sent += fresh.len() as u64;
        // Include previously un-acked recipients: they may have missed the
        // earlier INVALIDATE (partition / crash) and must still be told.
        if fresh.is_empty() && !self.writes.contains_key(&url) {
            return fresh;
        }
        let write = self.writes.entry(url).or_default();
        for client in std::mem::replace(&mut write.owed, fresh) {
            if let Err(at) = write.owed.binary_search(&client) {
                write.owed.insert(at, client);
            }
        }
        write.owed.clone()
    }

    /// A proxy acknowledged `INVALIDATE <url>`: "once a client receives the
    /// invalidation message, the accelerator deletes it from the site list
    /// of the document."
    pub fn on_inval_ack(&mut self, url: Url, client: ClientId) {
        if let Some(write) = self.writes.get_mut(&url) {
            write.owed.retain(|&c| c != client);
        }
    }

    /// Clients still awaiting an `INVALIDATE <url>` acknowledgement (retry
    /// targets), sorted.
    pub fn owed(&self, url: Url) -> &[ClientId] {
        self.writes.get(&url).map_or(&[], |write| &write.owed)
    }

    /// Every open write, in URL order, with the clients it still awaits.
    pub fn open_writes(&self) -> impl Iterator<Item = (Url, &[ClientId])> {
        self.writes.iter().map(|(&url, w)| (url, w.owed.as_slice()))
    }

    /// Returns `true` once every invalidation has been acknowledged — the
    /// paper's definition of write completion for the invalidation approach.
    pub fn writes_complete(&self) -> bool {
        self.writes.values().all(|write| write.owed.is_empty())
    }

    /// Volume leases: drops pending invalidations for clients whose volume
    /// lease has expired — they can no longer use the copy without a
    /// renewal, and the renewal reply carries the invalidation, so the
    /// write is complete with respect to them. Returns entries dropped.
    /// This is what bounds write completion at `volume-lease length` even
    /// through crashes and partitions.
    pub fn expire_pending(&mut self, now: SimTime) -> u64 {
        let Some(volume) = &self.volume else {
            return 0;
        };
        let mut dropped = 0;
        let queues = &mut self.piggyback_queues;
        for (&url, write) in &mut self.writes {
            write.owed.retain(|&client| {
                let live = volume.live(client, now);
                if !live {
                    dropped += 1;
                    queues.entry(client).or_default().push(url);
                }
                live
            });
        }
        dropped
    }

    /// The server site recovered from a crash: every site it has *ever*
    /// served (the persistent on-disk list) must receive the bulk
    /// `INVALIDATE <server-addr>`, because modifications during the outage
    /// may have gone unnoticed. Returns the recipients, sorted.
    pub fn on_server_recover(&mut self) -> Vec<ClientId> {
        #[expect(clippy::disallowed_methods, reason = "sorted below")]
        let mut v: Vec<ClientId> = self.ever_seen.iter().copied().collect();
        v.sort_unstable();
        // Volatile site lists (and queued piggybacks) died with the crash;
        // the conservative bulk invalidation replaces them.
        self.table = InvalidationTable::new();
        self.writes.clear();
        self.piggyback_queues.clear();
        v
    }

    /// Garbage-collects expired leases (lease protocols call this
    /// periodically). Returns entries collected.
    pub fn purge_expired_leases(&mut self, now: SimTime) -> u64 {
        self.table.purge_expired(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ProtocolConfig, ProtocolKind};
    use wcc_types::ByteSize;

    fn url(doc: u32) -> Url {
        Url::new(ServerId::new(0), doc)
    }

    fn client(raw: u32) -> ClientId {
        ClientId::from_raw(raw)
    }

    fn doc(modified_secs: u64) -> DocMeta {
        DocMeta::new(ByteSize::from_kib(10), SimTime::from_secs(modified_secs))
    }

    fn server(kind: ProtocolKind) -> ServerConsistency {
        ServerConsistency::new(&ProtocolConfig::new(kind), ServerId::new(0))
    }

    #[test]
    fn ims_semantics() {
        let mut s = server(ProtocolKind::PollEveryTime);
        let now = SimTime::from_secs(100);
        // Unchanged since validator → 304.
        let g = s.on_get(
            url(1),
            client(1),
            Some(SimTime::from_secs(50)),
            doc(50),
            now,
        );
        assert!(!g.send_body);
        // Changed → 200.
        let g = s.on_get(
            url(1),
            client(1),
            Some(SimTime::from_secs(50)),
            doc(60),
            now,
        );
        assert!(g.send_body);
        // Plain GET always 200.
        let g = s.on_get(url(1), client(1), None, doc(1), now);
        assert!(g.send_body);
        // Polling registers nothing.
        assert!(!g.register);
        assert_eq!(g.lease, None);
        assert_eq!(s.table().total_entries(), 0);
    }

    #[test]
    fn plain_invalidation_grants_infinite_lease_and_registers() {
        let mut s = server(ProtocolKind::Invalidation);
        let g = s.on_get(url(1), client(7), None, doc(0), SimTime::from_secs(5));
        assert_eq!(g.lease, Some(SimTime::NEVER));
        assert!(g.register);
        assert!(g.new_site_disk_write, "first sighting hits the disk list");
        assert_eq!(s.table().site_count(url(1)), 1);

        // Second request from the same client: registered again, but no
        // disk write.
        let g = s.on_get(url(2), client(7), None, doc(0), SimTime::from_secs(6));
        assert!(!g.new_site_disk_write);
        assert_eq!(s.stats().recovery_disk_writes, 1);
        assert_eq!(s.stats().registrations, 2);
    }

    #[test]
    fn adaptive_lease_bounds_the_infinite_promise_and_tracks_writes() {
        use crate::economics::AdaptiveLeaseConfig;

        let cfg = ProtocolConfig::new(ProtocolKind::Invalidation).with_adaptive_lease(
            AdaptiveLeaseConfig {
                base: SimDuration::from_secs(3600),
                floor: SimDuration::from_secs(60),
                cap: SimDuration::from_secs(86_400),
            },
        );
        let mut s = ServerConsistency::new(&cfg, ServerId::new(0));
        let now = SimTime::from_secs(100);

        // First read: ratio (1+1)/(0+1) = 2 → sqrt 2 × base ≈ 5091s, not
        // the infinite promise plain invalidation would otherwise grant.
        let g = s.on_get(url(1), client(7), None, doc(0), now);
        assert!(g.register);
        let expiry = g.lease.expect("adaptive lease still granted");
        assert!(expiry < SimTime::NEVER);
        assert!(expiry > now + SimDuration::from_secs(3600), "{expiry}");
        assert!(expiry < now + SimDuration::from_secs(7200), "{expiry}");

        // Writes shorten the next grant.
        for _ in 0..50 {
            s.on_modify(url(1), now);
        }
        let g = s.on_get(url(1), client(7), None, doc(0), now);
        let short = g.lease.expect("lease still granted");
        assert!(short < expiry, "{short} vs {expiry}");
        assert!(!s.owed(url(1)).is_empty());
        assert!(s.owed(url(2)).is_empty());
    }

    #[test]
    fn modify_fans_out_and_acks_clear_pending() {
        let mut s = server(ProtocolKind::Invalidation);
        for c in [3u32, 1, 2] {
            s.on_get(url(1), client(c), None, doc(0), SimTime::from_secs(1));
        }
        let recipients = s.on_modify(url(1), SimTime::from_secs(10));
        assert_eq!(recipients, vec![client(1), client(2), client(3)]);
        assert_eq!(s.stats().invalidations_sent, 3);
        assert!(!s.writes_complete());
        assert_eq!(s.table().site_count(url(1)), 0, "list reset on modify");

        s.on_inval_ack(url(1), client(1));
        s.on_inval_ack(url(1), client(2));
        assert_eq!(s.owed(url(1)), [client(3)]);
        s.on_inval_ack(url(1), client(3));
        assert!(s.writes_complete());
        assert!(s.open_writes().all(|(_, owed)| owed.is_empty()));
    }

    #[test]
    fn unacked_recipients_are_retried_on_next_modify() {
        let mut s = server(ProtocolKind::Invalidation);
        s.on_get(url(1), client(1), None, doc(0), SimTime::from_secs(1));
        let first = s.on_modify(url(1), SimTime::from_secs(10));
        assert_eq!(first, vec![client(1)]);
        // No ack (message lost). A later modification re-targets client 1.
        let second = s.on_modify(url(1), SimTime::from_secs(20));
        assert_eq!(second, vec![client(1)]);
        // invalidations_sent counts fresh fan-outs only once.
        assert_eq!(s.stats().invalidations_sent, 1);
    }

    #[test]
    fn weak_protocols_send_no_invalidations() {
        for kind in [ProtocolKind::AdaptiveTtl, ProtocolKind::PollEveryTime] {
            let mut s = server(kind);
            s.on_get(url(1), client(1), None, doc(0), SimTime::from_secs(1));
            assert!(
                s.on_modify(url(1), SimTime::from_secs(2)).is_empty(),
                "{kind}"
            );
            assert!(s.writes_complete());
        }
    }

    #[test]
    fn lease_invalidation_only_notifies_live_leases() {
        let cfg = ProtocolConfig::new(ProtocolKind::LeaseInvalidation)
            .with_lease(SimDuration::from_secs(100));
        let mut s = ServerConsistency::new(&cfg, ServerId::new(0));
        s.on_get(url(1), client(1), None, doc(0), SimTime::from_secs(0));
        s.on_get(url(1), client(2), None, doc(0), SimTime::from_secs(90));
        // At t=150 client 1's lease (expires t=100) is dead; client 2 lives.
        let recipients = s.on_modify(url(1), SimTime::from_secs(150));
        assert_eq!(recipients, vec![client(2)]);
        // A zero lease ends as it is granted: it is not tracked.
        let zero = cfg.with_lease(SimDuration::ZERO);
        let mut s = ServerConsistency::new(&zero, ServerId::new(0));
        let g = s.on_get(url(1), client(1), None, doc(0), SimTime::from_secs(5));
        assert_eq!((g.lease, g.register), (Some(SimTime::from_secs(5)), false));
    }

    #[test]
    fn two_tier_registers_only_repeat_readers() {
        let cfg =
            ProtocolConfig::new(ProtocolKind::TwoTierLease).with_lease(SimDuration::from_days(3));
        let mut s = ServerConsistency::new(&cfg, ServerId::new(0));
        let now = SimTime::from_secs(10);
        // First-time GET: zero lease, not tracked.
        let g = s.on_get(url(1), client(1), None, doc(0), now);
        assert_eq!(g.lease, Some(now), "zero-length lease expires immediately");
        assert!(!g.register);
        assert_eq!(s.table().total_entries(), 0);
        // The promised revalidation arrives: full lease, tracked.
        let g = s.on_get(url(1), client(1), Some(SimTime::from_secs(0)), doc(0), now);
        assert_eq!(g.lease, Some(now + SimDuration::from_days(3)));
        assert!(g.register);
        assert_eq!(s.table().site_count(url(1)), 1);
    }

    #[test]
    fn modification_list_length_sampling() {
        let mut s = server(ProtocolKind::Invalidation);
        for c in 0..5 {
            s.on_get(url(1), client(c), None, doc(0), SimTime::from_secs(1));
        }
        s.on_modify(url(1), SimTime::from_secs(2));
        s.on_modify(url(2), SimTime::from_secs(3)); // empty list
        assert_eq!(s.modified_list_lens(), &[5, 0]);
    }

    #[test]
    fn server_recovery_targets_every_site_ever_seen() {
        let mut s = server(ProtocolKind::Invalidation);
        s.on_get(url(1), client(1), None, doc(0), SimTime::from_secs(1));
        s.on_get(url(2), client(2), None, doc(0), SimTime::from_secs(2));
        s.on_modify(url(1), SimTime::from_secs(3));
        let recipients = s.on_server_recover();
        assert_eq!(recipients, vec![client(1), client(2)]);
        assert_eq!(s.table().total_entries(), 0, "volatile lists lost");
        assert!(s.writes_complete(), "pending cleared by bulk invalidation");
        // The ever-seen list survives (it is on disk).
        let again = s.on_server_recover();
        assert_eq!(again.len(), 2);
    }

    #[test]
    fn psi_queues_and_piggybacks_instead_of_pushing() {
        let mut s = server(ProtocolKind::PiggybackInvalidation);
        s.on_get(url(1), client(1), None, doc(0), SimTime::from_secs(1));
        s.on_get(url(2), client(1), None, doc(0), SimTime::from_secs(2));
        // Modification pushes nothing…
        assert!(s.on_modify(url(1), SimTime::from_secs(10)).is_empty());
        assert_eq!(s.stats().invalidations_sent, 0);
        assert!(s.writes_complete(), "PSI never has pending pushes");
        // …but the next contact from that client carries the invalidation.
        let g = s.on_get(
            url(2),
            client(1),
            Some(SimTime::ZERO),
            doc(0),
            SimTime::from_secs(20),
        );
        assert_eq!(g.piggyback, vec![url(1)]);
        assert_eq!(s.stats().piggybacked, 1);
        // Delivered once only.
        let g = s.on_get(
            url(2),
            client(1),
            Some(SimTime::ZERO),
            doc(0),
            SimTime::from_secs(21),
        );
        assert!(g.piggyback.is_empty());
    }

    #[test]
    fn psi_does_not_piggyback_the_requested_document_itself() {
        let mut s = server(ProtocolKind::PiggybackInvalidation);
        s.on_get(url(1), client(1), None, doc(0), SimTime::from_secs(1));
        s.on_modify(url(1), SimTime::from_secs(10));
        // The client asks for url(1) itself: the fresh reply *is* the news.
        let g = s.on_get(
            url(1),
            client(1),
            Some(SimTime::ZERO),
            doc(20),
            SimTime::from_secs(30),
        );
        assert!(g.send_body);
        assert!(g.piggyback.is_empty());
    }

    #[test]
    fn psi_queues_are_per_client() {
        let mut s = server(ProtocolKind::PiggybackInvalidation);
        s.on_get(url(1), client(1), None, doc(0), SimTime::from_secs(1));
        s.on_get(url(1), client(2), None, doc(0), SimTime::from_secs(1));
        s.on_modify(url(1), SimTime::from_secs(10));
        let g1 = s.on_get(url(9), client(1), None, doc(0), SimTime::from_secs(20));
        assert_eq!(g1.piggyback, vec![url(1)]);
        let g2 = s.on_get(url(9), client(2), None, doc(0), SimTime::from_secs(21));
        assert_eq!(g2.piggyback, vec![url(1)], "client 2 gets its own copy");
    }

    #[test]
    fn volume_lease_replies_renew_and_partition_push_by_volume_state() {
        let cfg = ProtocolConfig::new(ProtocolKind::VolumeLease)
            .with_volume_lease(SimDuration::from_secs(100));
        let mut s = ServerConsistency::new(&cfg, ServerId::new(0));
        // Client 1 contacts at t=0 (volume until 100); client 2 at t=90
        // (volume until 190).
        let g = s.on_get(url(1), client(1), None, doc(0), SimTime::from_secs(0));
        assert_eq!(g.volume_lease, Some(SimTime::from_secs(100)));
        s.on_get(url(1), client(2), None, doc(0), SimTime::from_secs(90));
        // Modification at t=150: only client 2's volume is live → push to
        // it; client 1 gets a queued piggyback instead.
        let recipients = s.on_modify(url(1), SimTime::from_secs(150));
        assert_eq!(recipients, vec![client(2)]);
        // Client 1's next contact carries the invalidation.
        let g = s.on_get(url(9), client(1), None, doc(0), SimTime::from_secs(200));
        assert_eq!(g.piggyback, vec![url(1)]);
    }

    #[test]
    fn volume_lease_expire_pending_bounds_write_completion() {
        let cfg = ProtocolConfig::new(ProtocolKind::VolumeLease)
            .with_volume_lease(SimDuration::from_secs(100));
        let mut s = ServerConsistency::new(&cfg, ServerId::new(0));
        s.on_get(url(1), client(1), None, doc(0), SimTime::from_secs(0));
        // Push goes out at t=50 (volume live)…
        let recipients = s.on_modify(url(1), SimTime::from_secs(50));
        assert_eq!(recipients, vec![client(1)]);
        assert!(!s.writes_complete());
        // …but the ack never arrives (partition). Once the volume expires,
        // the pending entry may be dropped: the client cannot use the copy
        // without a renewal, and the renewal will piggyback the news.
        assert_eq!(
            s.expire_pending(SimTime::from_secs(99)),
            0,
            "volume still live"
        );
        assert_eq!(s.expire_pending(SimTime::from_secs(101)), 1);
        assert!(s.writes_complete(), "write completed by volume expiry");
        let g = s.on_get(url(2), client(1), None, doc(0), SimTime::from_secs(300));
        assert_eq!(
            g.piggyback,
            vec![url(1)],
            "missed invalidation delivered on renewal"
        );
    }

    #[test]
    fn expire_pending_is_noop_for_other_protocols() {
        let mut s = server(ProtocolKind::Invalidation);
        s.on_get(url(1), client(1), None, doc(0), SimTime::from_secs(0));
        s.on_modify(url(1), SimTime::from_secs(5));
        assert_eq!(s.expire_pending(SimTime::NEVER), 0);
        assert!(
            !s.writes_complete(),
            "plain invalidation must wait for acks"
        );
    }
}
