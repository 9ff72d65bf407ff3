//! The byte-budgeted cache store and its replacement policies.

use crate::lru::Lru;
use std::collections::BTreeSet;
use wcc_types::{ByteSize, DocMeta, ScopedUrl, ServerId, SimTime};

/// Which victim-selection discipline the store uses when over budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplacementPolicy {
    /// Evict the least-recently-used entry.
    #[default]
    Lru,
    /// Harvest's discipline: evict entries whose TTL has already expired
    /// first (earliest expiry first), then fall back to LRU.
    ExpiredFirstLru,
}

impl ReplacementPolicy {
    /// A short human-readable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ReplacementPolicy::Lru => "lru",
            ReplacementPolicy::ExpiredFirstLru => "expired-first",
        }
    }
}

/// Consistency metadata attached to a cache entry. Which fields matter
/// depends on the active protocol:
///
/// * adaptive TTL uses `ttl_expires`;
/// * the lease protocols use `lease_expires`;
/// * all invalidation variants use `questionable` after failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Freshness {
    /// Instant at which the adaptive-TTL estimate expires; `SimTime::NEVER`
    /// when the protocol does not use TTLs.
    pub ttl_expires: SimTime,
    /// Instant at which the server's invalidation promise (lease) expires;
    /// `SimTime::NEVER` for the plain invalidation protocol (infinite
    /// lease), irrelevant for TTL/polling.
    pub lease_expires: SimTime,
    /// Set when the entry can no longer be trusted without revalidation
    /// (proxy recovered from a crash, or the origin sent a bulk
    /// `INVALIDATE <server>` after its own recovery).
    pub questionable: bool,
}

impl Default for Freshness {
    fn default() -> Self {
        Freshness {
            ttl_expires: SimTime::NEVER,
            lease_expires: SimTime::NEVER,
            questionable: false,
        }
    }
}

/// One cached document copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Size and `Last-Modified` validator of the cached version.
    pub meta: DocMeta,
    /// Consistency metadata.
    pub freshness: Freshness,
    /// Cache hits served locally since the last report to the origin —
    /// the paper's §7 hit-metering hook.
    pub unreported_hits: u64,
}

/// Outcome of an [`CacheStore::insert`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The entry was stored (possibly after evictions).
    Stored,
    /// The entry replaced an existing copy of the same key.
    Replaced,
    /// The document is larger than the whole cache and was not stored.
    TooLarge,
}

/// Counters the store maintains about its own operation.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Of those, entries that were already TTL-expired when evicted.
    pub expired_evictions: u64,
    /// Inserts rejected because the document exceeds the cache capacity.
    pub rejected_too_large: u64,
}

/// A byte-budgeted map from [`ScopedUrl`] to [`Entry`].
///
/// # Examples
///
/// ```
/// use wcc_cache::{CacheStore, Freshness, ReplacementPolicy};
/// use wcc_types::{ByteSize, ClientId, DocMeta, ServerId, SimTime, Url};
///
/// let mut cache = CacheStore::new(ByteSize::from_kib(64), ReplacementPolicy::Lru);
/// let key = Url::new(ServerId::new(0), 1).scoped(ClientId::from_raw(7));
/// let meta = DocMeta::new(ByteSize::from_kib(16), SimTime::ZERO);
/// cache.insert(key, meta, SimTime::from_secs(1), Freshness::default());
/// assert!(cache.touch(key, SimTime::from_secs(2)).is_some());
/// assert_eq!(cache.used(), ByteSize::from_kib(16));
/// ```
#[derive(Debug)]
pub struct CacheStore {
    capacity: ByteSize,
    policy: ReplacementPolicy,
    /// The entries, least recently used first.
    entries: Lru<ScopedUrl, Entry>,
    /// Expiry index: ordered by (ttl_expires, key); only finite expiries.
    expiry: BTreeSet<(SimTime, ScopedUrl)>,
    used: ByteSize,
    stats: CacheStats,
}

impl CacheStore {
    /// Creates a store with the given byte capacity and policy.
    pub fn new(capacity: ByteSize, policy: ReplacementPolicy) -> Self {
        CacheStore {
            capacity,
            policy,
            entries: Lru::default(),
            expiry: BTreeSet::new(),
            used: ByteSize::ZERO,
            stats: CacheStats::default(),
        }
    }

    /// Creates an effectively unbounded store (the analytical model's
    /// "the cache at C always has space for D" assumption).
    pub fn unbounded(policy: ReplacementPolicy) -> Self {
        CacheStore::new(ByteSize::from_bytes(u64::MAX), policy)
    }

    /// The configured byte capacity.
    pub fn capacity(&self) -> ByteSize {
        self.capacity
    }

    /// Bytes currently stored.
    pub fn used(&self) -> ByteSize {
        self.used
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The store's operational counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up `key` *without* touching recency.
    pub fn peek(&self, key: ScopedUrl) -> Option<&Entry> {
        self.entries.get(&key)
    }

    /// Looks up `key` and makes it the most recently used entry. The
    /// access instant `_now` is not stored: recency is the list's order.
    pub fn touch(&mut self, key: ScopedUrl, _now: SimTime) -> Option<&Entry> {
        self.entries.touch(&key).map(|entry| &*entry)
    }

    /// Records one locally served cache hit on `key` for later hit-meter
    /// reporting. No-op if absent.
    pub fn add_unreported_hit(&mut self, key: ScopedUrl) {
        self.add_unreported_hits(key, 1);
    }

    /// Adds `n` hits to `key`'s unreported count (a downstream cache's
    /// report being folded into this tier). No-op if absent.
    pub fn add_unreported_hits(&mut self, key: ScopedUrl, n: u64) {
        if let Some(entry) = self.entries.get_mut(&key) {
            entry.unreported_hits += n;
        }
    }

    /// Drains `key`'s unreported hit count (the report is about to ride a
    /// request to the origin). Returns 0 if absent.
    pub fn take_unreported_hits(&mut self, key: ScopedUrl) -> u64 {
        self.entries
            .get_mut(&key)
            .map(|e| std::mem::take(&mut e.unreported_hits))
            .unwrap_or(0)
    }

    /// Mutable access to an entry's freshness metadata (does not touch
    /// recency). Keeps the expiry index consistent when `ttl_expires`
    /// changes.
    pub fn update_freshness(&mut self, key: ScopedUrl, f: impl FnOnce(&mut Freshness)) -> bool {
        let Some(entry) = self.entries.get_mut(&key) else {
            return false;
        };
        let old_ttl = entry.freshness.ttl_expires;
        f(&mut entry.freshness);
        let new_ttl = entry.freshness.ttl_expires;
        if old_ttl != new_ttl {
            if old_ttl != SimTime::NEVER {
                self.expiry.remove(&(old_ttl, key));
            }
            if new_ttl != SimTime::NEVER {
                self.expiry.insert((new_ttl, key));
            }
        }
        true
    }

    /// Inserts (or replaces) an entry, evicting victims as needed.
    pub fn insert(
        &mut self,
        key: ScopedUrl,
        meta: DocMeta,
        now: SimTime,
        freshness: Freshness,
    ) -> InsertOutcome {
        if meta.size() > self.capacity {
            self.stats.rejected_too_large += 1;
            return InsertOutcome::TooLarge;
        }
        let replaced = self.remove(key).is_some();
        while self.used + meta.size() > self.capacity {
            if !self.evict_one(now) {
                break; // nothing left to evict (shouldn't happen: size fits)
            }
        }
        let entry = Entry {
            meta,
            freshness,
            unreported_hits: 0,
        };
        if freshness.ttl_expires != SimTime::NEVER {
            self.expiry.insert((freshness.ttl_expires, key));
        }
        self.used += meta.size();
        self.entries.push(key, entry);
        if replaced {
            InsertOutcome::Replaced
        } else {
            InsertOutcome::Stored
        }
    }

    /// Removes and returns an entry (e.g. on receipt of an `INVALIDATE`).
    pub fn remove(&mut self, key: ScopedUrl) -> Option<Entry> {
        let entry = self.entries.remove(&key)?;
        if entry.freshness.ttl_expires != SimTime::NEVER {
            self.expiry.remove(&(entry.freshness.ttl_expires, key));
        }
        self.used -= entry.meta.size();
        Some(entry)
    }

    /// Marks every entry questionable — the paper's proxy-recovery action
    /// ("let the proxy mark all its cache entries as questionable when it
    /// recovers"). Returns how many entries were marked.
    pub fn mark_all_questionable(&mut self) -> usize {
        for (_, entry) in self.entries.iter_mut() {
            entry.freshness.questionable = true;
        }
        self.entries.len()
    }

    /// Marks every entry from `server` questionable — the proxy-side effect
    /// of a bulk `INVALIDATE <server-addr>` after a server-site recovery.
    /// Returns how many entries were marked.
    pub fn mark_server_questionable(&mut self, server: ServerId) -> usize {
        let mut n = 0;
        for (key, entry) in self.entries.iter_mut() {
            if key.url().server() == server {
                entry.freshness.questionable = true;
                n += 1;
            }
        }
        n
    }

    /// Iterates over `(key, entry)` pairs, least recently used first.
    pub fn iter(&self) -> impl Iterator<Item = (ScopedUrl, &Entry)> {
        self.entries.iter()
    }

    /// Evicts one victim according to the policy. Returns `false` if empty.
    fn evict_one(&mut self, now: SimTime) -> bool {
        let victim = match self.policy {
            ReplacementPolicy::Lru => self.entries.oldest().map(|(k, _)| k),
            ReplacementPolicy::ExpiredFirstLru => {
                // An entry is "expired" if its TTL estimate has passed.
                let expired = self
                    .expiry
                    .iter()
                    .next()
                    .filter(|&&(exp, _)| exp <= now)
                    .map(|&(_, k)| k);
                expired.or_else(|| self.entries.oldest().map(|(k, _)| k))
            }
        };
        let Some(evicted) = victim.and_then(|key| self.remove(key)) else {
            return false;
        };
        self.stats.evictions += 1;
        if evicted.freshness.ttl_expires <= now {
            self.stats.expired_evictions += 1;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcc_types::{ClientId, Url};

    fn key(doc: u32) -> ScopedUrl {
        Url::new(ServerId::new(0), doc).scoped(ClientId::from_raw(1))
    }

    fn meta(kib: u64) -> DocMeta {
        DocMeta::new(ByteSize::from_kib(kib), SimTime::ZERO)
    }

    fn fresh_with_ttl(secs: u64) -> Freshness {
        Freshness {
            ttl_expires: SimTime::from_secs(secs),
            ..Freshness::default()
        }
    }

    #[test]
    fn insert_get_remove() {
        let mut c = CacheStore::new(ByteSize::from_kib(100), ReplacementPolicy::Lru);
        assert!(c.is_empty());
        assert_eq!(
            c.insert(key(1), meta(10), SimTime::ZERO, Freshness::default()),
            InsertOutcome::Stored
        );
        assert_eq!(c.len(), 1);
        assert_eq!(c.used(), ByteSize::from_kib(10));
        assert!(c.peek(key(1)).is_some());
        assert!(c.peek(key(2)).is_none());
        let removed = c.remove(key(1)).unwrap();
        assert_eq!(removed.meta, meta(10));
        assert_eq!(c.used(), ByteSize::ZERO);
        assert!(c.remove(key(1)).is_none());
    }

    #[test]
    fn replacing_same_key_does_not_double_count() {
        let mut c = CacheStore::new(ByteSize::from_kib(100), ReplacementPolicy::Lru);
        c.insert(key(1), meta(10), SimTime::ZERO, Freshness::default());
        assert_eq!(
            c.insert(
                key(1),
                meta(30),
                SimTime::from_secs(1),
                Freshness::default()
            ),
            InsertOutcome::Replaced
        );
        assert_eq!(c.len(), 1);
        assert_eq!(c.used(), ByteSize::from_kib(30));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = CacheStore::new(ByteSize::from_kib(30), ReplacementPolicy::Lru);
        c.insert(
            key(1),
            meta(10),
            SimTime::from_secs(1),
            Freshness::default(),
        );
        c.insert(
            key(2),
            meta(10),
            SimTime::from_secs(2),
            Freshness::default(),
        );
        c.insert(
            key(3),
            meta(10),
            SimTime::from_secs(3),
            Freshness::default(),
        );
        // Touch key(1) so key(2) is now LRU.
        c.touch(key(1), SimTime::from_secs(4));
        c.insert(
            key(4),
            meta(10),
            SimTime::from_secs(5),
            Freshness::default(),
        );
        assert!(c.peek(key(1)).is_some());
        assert!(c.peek(key(2)).is_none(), "LRU victim should be key 2");
        assert!(c.peek(key(3)).is_some());
        assert!(c.peek(key(4)).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn expired_first_prefers_expired_victims() {
        let mut c = CacheStore::new(ByteSize::from_kib(30), ReplacementPolicy::ExpiredFirstLru);
        // key(1) is oldest by LRU but has a far-future TTL; key(3) is the
        // most recently used but already expired.
        c.insert(
            key(1),
            meta(10),
            SimTime::from_secs(1),
            fresh_with_ttl(1_000_000),
        );
        c.insert(
            key(2),
            meta(10),
            SimTime::from_secs(2),
            fresh_with_ttl(2_000_000),
        );
        c.insert(key(3), meta(10), SimTime::from_secs(3), fresh_with_ttl(10));
        let now = SimTime::from_secs(100); // key(3)'s TTL has passed
        c.insert(key(4), meta(10), now, Freshness::default());
        assert!(c.peek(key(3)).is_none(), "expired entry should go first");
        assert!(c.peek(key(1)).is_some());
        assert!(c.peek(key(2)).is_some());
        assert_eq!(c.stats().expired_evictions, 1);
    }

    #[test]
    fn expired_first_falls_back_to_lru() {
        let mut c = CacheStore::new(ByteSize::from_kib(20), ReplacementPolicy::ExpiredFirstLru);
        c.insert(
            key(1),
            meta(10),
            SimTime::from_secs(1),
            fresh_with_ttl(1_000_000),
        );
        c.insert(
            key(2),
            meta(10),
            SimTime::from_secs(2),
            fresh_with_ttl(1_000_000),
        );
        c.insert(
            key(3),
            meta(10),
            SimTime::from_secs(3),
            Freshness::default(),
        );
        assert!(c.peek(key(1)).is_none(), "no expired entries → LRU victim");
    }

    #[test]
    fn oversized_documents_rejected() {
        let mut c = CacheStore::new(ByteSize::from_kib(5), ReplacementPolicy::Lru);
        assert_eq!(
            c.insert(key(1), meta(10), SimTime::ZERO, Freshness::default()),
            InsertOutcome::TooLarge
        );
        assert!(c.is_empty());
        assert_eq!(c.stats().rejected_too_large, 1);
    }

    #[test]
    fn questionable_marking() {
        let mut c = CacheStore::unbounded(ReplacementPolicy::Lru);
        let other_server = Url::new(ServerId::new(9), 1).scoped(ClientId::from_raw(1));
        c.insert(key(1), meta(1), SimTime::ZERO, Freshness::default());
        c.insert(key(2), meta(1), SimTime::ZERO, Freshness::default());
        c.insert(other_server, meta(1), SimTime::ZERO, Freshness::default());
        assert_eq!(c.mark_server_questionable(ServerId::new(0)), 2);
        assert!(c.peek(key(1)).unwrap().freshness.questionable);
        assert!(!c.peek(other_server).unwrap().freshness.questionable);
        assert_eq!(c.mark_all_questionable(), 3);
        assert!(c.peek(other_server).unwrap().freshness.questionable);
    }

    #[test]
    fn update_freshness_keeps_expiry_index_consistent() {
        let mut c = CacheStore::new(ByteSize::from_kib(20), ReplacementPolicy::ExpiredFirstLru);
        c.insert(key(1), meta(10), SimTime::from_secs(1), fresh_with_ttl(10));
        // Refresh the TTL far into the future (a 304 revalidation).
        assert!(c.update_freshness(key(1), |f| f.ttl_expires = SimTime::from_secs(1_000_000)));
        c.insert(
            key(2),
            meta(10),
            SimTime::from_secs(2),
            fresh_with_ttl(1_000_000),
        );
        // At t=100 nothing is expired any more; eviction must be LRU.
        c.insert(
            key(3),
            meta(10),
            SimTime::from_secs(100),
            Freshness::default(),
        );
        assert!(c.peek(key(1)).is_none(), "LRU fallback evicts key 1");
        assert!(c.peek(key(2)).is_some());
        assert!(!c.update_freshness(key(99), |_| {}));
    }

    #[test]
    fn touch_updates_recency_and_returns_entry() {
        let mut c = CacheStore::unbounded(ReplacementPolicy::Lru);
        c.insert(key(1), meta(1), SimTime::from_secs(1), Freshness::default());
        c.insert(key(2), meta(2), SimTime::from_secs(2), Freshness::default());
        let e = c.touch(key(1), SimTime::from_secs(9)).unwrap();
        assert_eq!(e.meta, meta(1));
        let order: Vec<ScopedUrl> = c.iter().map(|(k, _)| k).collect();
        assert_eq!(
            order,
            [key(2), key(1)],
            "the touched entry is now the newest"
        );
        assert!(c.touch(key(3), SimTime::from_secs(9)).is_none());
    }

    #[test]
    fn eviction_loop_frees_enough_for_large_insert() {
        let mut c = CacheStore::new(ByteSize::from_kib(30), ReplacementPolicy::Lru);
        for d in 0..3 {
            c.insert(
                key(d),
                meta(10),
                SimTime::from_secs(d as u64),
                Freshness::default(),
            );
        }
        // A 25 KiB insert leaves only 5 KiB of budget for the old entries,
        // so all three 10 KiB entries must go.
        c.insert(
            key(9),
            meta(25),
            SimTime::from_secs(10),
            Freshness::default(),
        );
        assert_eq!(c.stats().evictions, 3);
        assert!(c.used() <= c.capacity());
        assert!(c.peek(key(9)).is_some());
        assert_eq!(c.len(), 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use wcc_types::{ClientId, Url};

    #[derive(Debug, Clone)]
    enum Op {
        Insert { doc: u32, kib: u64, ttl_secs: u64 },
        Touch { doc: u32 },
        Remove { doc: u32 },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u32..20, 1u64..40, 0u64..1000).prop_map(|(doc, kib, ttl_secs)| Op::Insert {
                doc,
                kib,
                ttl_secs
            }),
            (0u32..20).prop_map(|doc| Op::Touch { doc }),
            (0u32..20).prop_map(|doc| Op::Remove { doc }),
        ]
    }

    fn skey(doc: u32) -> ScopedUrl {
        Url::new(ServerId::new(0), doc).scoped(ClientId::from_raw(5))
    }

    proptest! {
        /// After any operation sequence: used == Σ entry sizes ≤ capacity,
        /// and both indices agree with the entry map.
        #[test]
        fn accounting_invariants(ops in proptest::collection::vec(op_strategy(), 1..200),
                                 policy in prop_oneof![Just(ReplacementPolicy::Lru),
                                                       Just(ReplacementPolicy::ExpiredFirstLru)]) {
            let capacity = ByteSize::from_kib(100);
            let mut c = CacheStore::new(capacity, policy);
            let mut now = SimTime::ZERO;
            for op in ops {
                now += wcc_types::SimDuration::from_secs(10);
                match op {
                    Op::Insert { doc, kib, ttl_secs } => {
                        let f = Freshness {
                            ttl_expires: SimTime::from_secs(ttl_secs),
                            ..Freshness::default()
                        };
                        c.insert(skey(doc), DocMeta::new(ByteSize::from_kib(kib), SimTime::ZERO), now, f);
                    }
                    Op::Touch { doc } => { c.touch(skey(doc), now); }
                    Op::Remove { doc } => { c.remove(skey(doc)); }
                }
                let sum: ByteSize = c.iter().map(|(_, e)| e.meta.size()).sum();
                prop_assert_eq!(c.used(), sum);
                prop_assert!(c.used() <= capacity);
                prop_assert_eq!(c.len(), c.iter().count());
            }
        }

        /// An entry that was just inserted and never evicted is retrievable,
        /// and `touch` never invents entries.
        #[test]
        fn touch_only_returns_present(docs in proptest::collection::vec(0u32..10, 1..50)) {
            let mut c = CacheStore::unbounded(ReplacementPolicy::Lru);
            let mut present = std::collections::HashSet::new();
            let mut now = SimTime::ZERO;
            for doc in docs {
                now += wcc_types::SimDuration::from_secs(1);
                if present.contains(&doc) {
                    prop_assert!(c.touch(skey(doc), now).is_some());
                    c.remove(skey(doc));
                    present.remove(&doc);
                } else {
                    prop_assert!(c.touch(skey(doc), now).is_none());
                    c.insert(skey(doc), DocMeta::new(ByteSize::from_kib(1), SimTime::ZERO), now, Freshness::default());
                    present.insert(doc);
                }
            }
        }
    }
}
