//! The proxy-side (client-side) half of each consistency protocol.

use crate::config::{ProtocolConfig, ProtocolKind};
use crate::AdaptiveTtlConfig;
use wcc_cache::{CacheStore, Freshness};
use wcc_types::{ClientId, DocMeta, FxHashMap, ScopedUrl, ServerId, SimDuration, SimTime, Url};

/// What the proxy must do to satisfy a user request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProxyAction {
    /// The cached copy may be returned to the user immediately.
    ServeFromCache,
    /// The origin must be contacted: a plain `GET` (`ims: None`) or an
    /// `If-Modified-Since` validation (`ims: Some(validator)`).
    SendGet {
        /// Validator for a conditional request.
        ims: Option<SimTime>,
    },
}

/// The outcome of [`ProxyPolicy::on_request`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestDisposition {
    /// Whether a cached entry existed at request time. This is the paper's
    /// "cache hit" — note that for polling-every-time it includes hits on
    /// copies that turn out to be stale, exactly as the paper counts them.
    pub had_entry: bool,
    /// What to do next.
    pub action: ProxyAction,
    /// Locally served hits to report to the origin on this contact (§7's
    /// hit metering; non-zero only when `action` contacts the server).
    pub report_hits: u64,
}

/// The proxy-side protocol state machine.
///
/// Stateless apart from configuration — all durable state lives in the
/// [`CacheStore`] passed to each call, which mirrors the prototype (Harvest
/// keeps consistency metadata on the cached object).
///
/// See the crate-level example for a full round trip.
#[derive(Debug, Clone)]
pub struct ProxyPolicy {
    kind: ProtocolKind,
    ttl: AdaptiveTtlConfig,
    fixed_ttl: SimDuration,
    /// Volume leases: per (client, server) volume expiry. Only populated
    /// under [`ProtocolKind::VolumeLease`].
    volumes: FxHashMap<(ClientId, ServerId), SimTime>,
}

impl ProxyPolicy {
    /// Creates the proxy half of the configured protocol.
    pub fn new(cfg: &ProtocolConfig) -> Self {
        ProxyPolicy {
            kind: cfg.kind,
            ttl: cfg.adaptive_ttl,
            fixed_ttl: cfg.fixed_ttl,
            volumes: FxHashMap::default(),
        }
    }

    /// Is the (client, server) volume lease live at `now`?
    fn volume_live(&self, key: ScopedUrl, now: SimTime) -> bool {
        self.volumes
            .get(&(key.client(), key.url().server()))
            .is_some_and(|&exp| exp > now)
    }

    /// Returns `true` if this protocol *promises* that the cached entry is
    /// fresh at `now` without any server contact — the predicate the
    /// strong-consistency audit checks. Weak protocols never promise
    /// (serving without contact is allowed but unguaranteed); the push
    /// family promises while the object lease is live; volume leases also
    /// require the volume lease to be live.
    pub fn promised_fresh(&self, key: ScopedUrl, f: &Freshness, now: SimTime) -> bool {
        if f.questionable {
            return false;
        }
        match self.kind {
            ProtocolKind::AdaptiveTtl
            | ProtocolKind::FixedTtl
            | ProtocolKind::PollEveryTime
            | ProtocolKind::PiggybackInvalidation => false,
            ProtocolKind::Invalidation
            | ProtocolKind::LeaseInvalidation
            | ProtocolKind::TwoTierLease => f.lease_expires > now,
            ProtocolKind::VolumeLease => f.lease_expires > now && self.volume_live(key, now),
        }
    }

    /// When `key`'s (client, server) volume lease ends: never, for a
    /// protocol without volume leases.
    pub(crate) fn volume_end(&self, key: ScopedUrl) -> SimTime {
        let volume = self.volumes.get(&(key.client(), key.url().server()));
        volume.copied().unwrap_or(SimTime::NEVER)
    }

    /// Records a volume-lease grant carried on a reply.
    pub fn on_volume_grant(&mut self, key: ScopedUrl, expires: Option<SimTime>) {
        if let Some(expires) = expires {
            self.volumes
                .insert((key.client(), key.url().server()), expires);
        }
    }

    /// The protocol this policy implements.
    pub fn kind(&self) -> ProtocolKind {
        self.kind
    }

    /// Whether a copy with freshness `f` may be served at `now` without
    /// contacting the origin: the decision [`ProxyPolicy::on_request`]
    /// acts on.
    #[inline]
    fn servable(&self, key: ScopedUrl, f: &Freshness, now: SimTime) -> bool {
        if f.questionable {
            // A failure made this copy suspect: always revalidate.
            return false;
        }
        match self.kind {
            // An expired TTL hit sends If-Modified-Since, not a full GET
            // (the Harvest optimisation the paper added).
            ProtocolKind::AdaptiveTtl | ProtocolKind::FixedTtl => f.ttl_expires > now,
            ProtocolKind::PollEveryTime => false,
            // While the lease is live the server promised to invalidate
            // us: the copy is fresh by construction. Once it ran out, we
            // promised to revalidate.
            ProtocolKind::Invalidation
            | ProtocolKind::LeaseInvalidation
            | ProtocolKind::TwoTierLease
            | ProtocolKind::PiggybackInvalidation => f.lease_expires > now,
            // Usable only while BOTH the object lease and the short
            // per-server volume lease are live; an expired volume is
            // renewed by the revalidation's reply (which also piggybacks
            // any missed invalidations).
            ProtocolKind::VolumeLease => f.lease_expires > now && self.volume_live(key, now),
        }
    }

    /// A user requests `key` at `now`: decide whether the cached copy can be
    /// served or the origin must be contacted. Updates LRU recency.
    pub fn on_request(
        &mut self,
        key: ScopedUrl,
        now: SimTime,
        cache: &mut CacheStore,
    ) -> RequestDisposition {
        let Some(entry) = cache.touch(key, now) else {
            return RequestDisposition {
                had_entry: false,
                action: ProxyAction::SendGet { ims: None },
                report_hits: 0,
            };
        };
        let action = if self.servable(key, &entry.freshness, now) {
            ProxyAction::ServeFromCache
        } else {
            ProxyAction::SendGet {
                ims: Some(entry.meta.last_modified()),
            }
        };
        // Hit metering (§7): count local serves; drain the counter onto any
        // request that contacts the origin.
        let report_hits = match action {
            ProxyAction::ServeFromCache => {
                cache.add_unreported_hit(key);
                0
            }
            ProxyAction::SendGet { .. } => cache.take_unreported_hits(key),
        };
        RequestDisposition {
            had_entry: true,
            action,
            report_hits,
        }
    }

    /// A `200` reply arrived: cache the new version with the right
    /// freshness metadata.
    pub fn on_reply_200(
        &mut self,
        key: ScopedUrl,
        meta: DocMeta,
        lease: Option<SimTime>,
        now: SimTime,
        cache: &mut CacheStore,
    ) {
        cache.insert(key, meta, now, self.fresh_for(meta, lease, now));
    }

    /// A `304 Not Modified` reply arrived: refresh the cached entry's
    /// freshness. Returns `false` if the entry vanished (evicted while the
    /// request was in flight) — the caller should fall back to a plain
    /// `GET`.
    pub fn on_reply_304(
        &mut self,
        key: ScopedUrl,
        lease: Option<SimTime>,
        now: SimTime,
        cache: &mut CacheStore,
    ) -> bool {
        let Some(entry) = cache.peek(key) else {
            return false;
        };
        let fresh = self.fresh_for(entry.meta, lease, now);
        cache.update_freshness(key, |f| *f = fresh)
    }

    /// An `INVALIDATE <url>` arrived for `client`: "a proxy cache that
    /// receives the message checks to see if the URL is cached. If so, it
    /// deletes the cached copy; if not, it ignores the message." Returns
    /// `Some(unreported hits on the deleted copy)` if a copy was deleted —
    /// the hit-meter report that rides the acknowledgement — or `None` if
    /// nothing was cached.
    pub fn on_invalidate(
        &mut self,
        url: Url,
        client: ClientId,
        cache: &mut CacheStore,
    ) -> Option<u64> {
        cache.remove(url.scoped(client)).map(|e| e.unreported_hits)
    }

    /// A bulk `INVALIDATE <server-addr>` arrived (server-site recovery):
    /// mark all copies from that server questionable. Returns how many.
    pub fn on_invalidate_server(&mut self, server: ServerId, cache: &mut CacheStore) -> usize {
        cache.mark_server_questionable(server)
    }

    /// This proxy just recovered from a crash: "let the proxy mark all its
    /// cache entries as questionable when it recovers." Returns how many.
    pub fn on_proxy_recover(&mut self, cache: &mut CacheStore) -> usize {
        cache.mark_all_questionable()
    }

    /// Applies piggybacked invalidations (PSI): drops this client's copies
    /// of the listed documents. Returns how many copies were deleted.
    pub fn on_piggyback(
        &mut self,
        urls: &[Url],
        client: ClientId,
        cache: &mut CacheStore,
    ) -> usize {
        urls.iter()
            .filter(|&&url| cache.remove(url.scoped(client)).is_some())
            .count()
    }

    /// The freshness metadata a newly validated/fetched copy gets.
    fn fresh_for(&self, meta: DocMeta, lease: Option<SimTime>, now: SimTime) -> Freshness {
        match self.kind {
            ProtocolKind::AdaptiveTtl => Freshness {
                ttl_expires: now + self.ttl.ttl_for_age(meta.age_at(now)),
                lease_expires: SimTime::NEVER,
                questionable: false,
            },
            ProtocolKind::FixedTtl => Freshness {
                ttl_expires: now + self.fixed_ttl,
                lease_expires: SimTime::NEVER,
                questionable: false,
            },
            ProtocolKind::PollEveryTime => Freshness {
                // Never trusted without validation; TTL plays no role.
                ttl_expires: SimTime::NEVER,
                lease_expires: SimTime::NEVER,
                questionable: false,
            },
            ProtocolKind::Invalidation
            | ProtocolKind::LeaseInvalidation
            | ProtocolKind::TwoTierLease
            | ProtocolKind::PiggybackInvalidation
            | ProtocolKind::VolumeLease => Freshness {
                ttl_expires: SimTime::NEVER,
                // Absent grant ⇒ treat as an infinite promise (plain
                // invalidation); a zero-length two-tier lease arrives as
                // `Some(now)` and is immediately expired.
                lease_expires: lease.unwrap_or(SimTime::NEVER),
                questionable: false,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProtocolConfig;
    use wcc_cache::ReplacementPolicy;
    use wcc_types::{ByteSize, SimDuration};

    fn setup(kind: ProtocolKind) -> (ProxyPolicy, CacheStore, ScopedUrl) {
        let policy = ProxyPolicy::new(&ProtocolConfig::new(kind));
        let cache = CacheStore::unbounded(ReplacementPolicy::Lru);
        let key = Url::new(ServerId::new(0), 7).scoped(ClientId::from_raw(3));
        (policy, cache, key)
    }

    fn meta(modified_secs: u64) -> DocMeta {
        DocMeta::new(ByteSize::from_kib(8), SimTime::from_secs(modified_secs))
    }

    #[test]
    fn miss_is_plain_get_for_all_protocols() {
        for kind in ProtocolKind::ALL {
            let (mut p, mut c, key) = setup(kind);
            let d = p.on_request(key, SimTime::from_secs(1), &mut c);
            assert!(!d.had_entry);
            assert_eq!(d.action, ProxyAction::SendGet { ims: None }, "{kind}");
        }
    }

    #[test]
    fn adaptive_ttl_serves_until_expiry_then_validates() {
        let (mut p, mut c, key) = setup(ProtocolKind::AdaptiveTtl);
        // Document is 100 000 s old at fetch → TTL = 10 000 s.
        let t_fetch = SimTime::from_secs(100_000);
        p.on_reply_200(key, meta(0), None, t_fetch, &mut c);

        let d = p.on_request(key, t_fetch + SimDuration::from_secs(5_000), &mut c);
        assert_eq!(d.action, ProxyAction::ServeFromCache);

        let late = t_fetch + SimDuration::from_secs(20_000);
        let d = p.on_request(key, late, &mut c);
        assert_eq!(
            d.action,
            ProxyAction::SendGet {
                ims: Some(SimTime::from_secs(0))
            },
            "expired hit must revalidate with the cached validator"
        );
        assert!(d.had_entry);
    }

    #[test]
    fn adaptive_ttl_304_extends_ttl_with_new_age() {
        let (mut p, mut c, key) = setup(ProtocolKind::AdaptiveTtl);
        let t_fetch = SimTime::from_secs(10_000);
        p.on_reply_200(key, meta(0), None, t_fetch, &mut c);
        let first_expiry = c.peek(key).unwrap().freshness.ttl_expires;

        // Validate much later: age has grown, so the TTL grows too.
        let t_revalidate = SimTime::from_secs(500_000);
        assert!(p.on_reply_304(key, None, t_revalidate, &mut c));
        let second_expiry = c.peek(key).unwrap().freshness.ttl_expires;
        assert!(second_expiry > first_expiry);
        assert_eq!(
            second_expiry,
            t_revalidate + SimDuration::from_secs(50_000),
            "10% of the 500 000 s age"
        );
    }

    #[test]
    fn poll_every_time_always_validates() {
        let (mut p, mut c, key) = setup(ProtocolKind::PollEveryTime);
        p.on_reply_200(key, meta(5), None, SimTime::from_secs(10), &mut c);
        for s in [11u64, 12, 1_000_000] {
            let d = p.on_request(key, SimTime::from_secs(s), &mut c);
            assert!(d.had_entry);
            assert_eq!(
                d.action,
                ProxyAction::SendGet {
                    ims: Some(SimTime::from_secs(5))
                }
            );
        }
    }

    #[test]
    fn invalidation_serves_from_cache_until_invalidated() {
        let (mut p, mut c, key) = setup(ProtocolKind::Invalidation);
        p.on_reply_200(
            key,
            meta(5),
            Some(SimTime::NEVER),
            SimTime::from_secs(10),
            &mut c,
        );
        // Forever a hit, no server contact…
        let d = p.on_request(key, SimTime::from_secs(1_000_000_000), &mut c);
        assert_eq!(d.action, ProxyAction::ServeFromCache);
        // …until an INVALIDATE deletes the copy.
        assert!(p.on_invalidate(key.url(), key.client(), &mut c).is_some());
        assert!(
            p.on_invalidate(key.url(), key.client(), &mut c).is_none(),
            "second is a no-op"
        );
        let d = p.on_request(key, SimTime::from_secs(1_000_000_001), &mut c);
        assert!(!d.had_entry);
        assert_eq!(d.action, ProxyAction::SendGet { ims: None });
    }

    #[test]
    fn lease_expiry_forces_revalidation() {
        let (mut p, mut c, key) = setup(ProtocolKind::LeaseInvalidation);
        let lease_end = SimTime::from_secs(100);
        p.on_reply_200(
            key,
            meta(5),
            Some(lease_end),
            SimTime::from_secs(10),
            &mut c,
        );
        assert_eq!(
            p.on_request(key, SimTime::from_secs(50), &mut c).action,
            ProxyAction::ServeFromCache
        );
        let d = p.on_request(key, SimTime::from_secs(150), &mut c);
        assert_eq!(
            d.action,
            ProxyAction::SendGet {
                ims: Some(SimTime::from_secs(5))
            },
            "expired lease → promised revalidation"
        );
        // A 304 with a fresh lease restores cache-served hits.
        assert!(p.on_reply_304(
            key,
            Some(SimTime::from_secs(400)),
            SimTime::from_secs(151),
            &mut c
        ));
        assert_eq!(
            p.on_request(key, SimTime::from_secs(200), &mut c).action,
            ProxyAction::ServeFromCache
        );
    }

    #[test]
    fn zero_lease_behaves_like_polling_until_second_request() {
        let (mut p, mut c, key) = setup(ProtocolKind::TwoTierLease);
        let now = SimTime::from_secs(10);
        // Two-tier server grants lease == now on a plain GET.
        p.on_reply_200(key, meta(5), Some(now), now, &mut c);
        let d = p.on_request(key, SimTime::from_secs(20), &mut c);
        assert_eq!(
            d.action,
            ProxyAction::SendGet {
                ims: Some(SimTime::from_secs(5))
            },
            "zero lease: next request must validate"
        );
    }

    #[test]
    fn questionable_entries_always_revalidate() {
        for kind in ProtocolKind::ALL {
            let (mut p, mut c, key) = setup(kind);
            p.on_reply_200(
                key,
                meta(5),
                Some(SimTime::NEVER),
                SimTime::from_secs(10),
                &mut c,
            );
            assert_eq!(p.on_proxy_recover(&mut c), 1);
            let d = p.on_request(key, SimTime::from_secs(11), &mut c);
            assert_eq!(
                d.action,
                ProxyAction::SendGet {
                    ims: Some(SimTime::from_secs(5))
                },
                "{kind}: questionable copy must revalidate"
            );
            // Revalidation clears the flag.
            assert!(p.on_reply_304(key, Some(SimTime::NEVER), SimTime::from_secs(12), &mut c));
            assert!(!c.peek(key).unwrap().freshness.questionable);
        }
    }

    #[test]
    fn server_recovery_marks_only_that_server() {
        let (mut p, mut c, key) = setup(ProtocolKind::Invalidation);
        let other = Url::new(ServerId::new(1), 1).scoped(ClientId::from_raw(3));
        p.on_reply_200(key, meta(5), None, SimTime::from_secs(10), &mut c);
        p.on_reply_200(other, meta(5), None, SimTime::from_secs(10), &mut c);
        assert_eq!(p.on_invalidate_server(ServerId::new(0), &mut c), 1);
        assert!(c.peek(key).unwrap().freshness.questionable);
        assert!(!c.peek(other).unwrap().freshness.questionable);
    }

    #[test]
    fn reply_304_for_evicted_entry_reports_failure() {
        let (mut p, mut c, key) = setup(ProtocolKind::PollEveryTime);
        assert!(!p.on_reply_304(key, None, SimTime::from_secs(1), &mut c));
    }
}
