//! Model-based property test: under arbitrary operation sequences, at any
//! capacity and under both policies, the store must agree exactly with a
//! reference model on presence, metadata, freshness, hit counters, byte
//! accounting, counters, recency order and — victim for victim — eviction.
//!
//! The model is the store as it was before the index-linked list: recency
//! is a `BTreeSet` keyed by `(access stamp, key)` with a stamp that grows on
//! every insert and touch. The O(1) list claims to keep that very order.

use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};
use wcc_cache::{CacheStats, CacheStore, Freshness, ReplacementPolicy};
use wcc_types::{ByteSize, ClientId, DocMeta, ScopedUrl, ServerId, SimTime, Url};

#[derive(Debug, Clone)]
enum Op {
    Insert {
        doc: u32,
        size_kib: u64,
        mtime: u64,
        ttl: u64,
    },
    Remove {
        doc: u32,
    },
    Touch {
        doc: u32,
    },
    Hit {
        doc: u32,
    },
    TakeHits {
        doc: u32,
    },
    MarkAll,
    MarkServer,
    UpdateFreshness {
        doc: u32,
        ttl: u64,
    },
}

/// TTLs straddle the clock (one second per operation, up to 150), so some
/// entries are expired when a victim is chosen and some are not; 0 stands
/// for "no TTL".
fn ttl_at(secs: u64) -> SimTime {
    if secs == 0 {
        SimTime::NEVER
    } else {
        SimTime::from_secs(secs)
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u32..12, 1u64..64, 0u64..1_000, 0u64..200).prop_map(|(doc, size_kib, mtime, ttl)| {
            Op::Insert {
                doc,
                size_kib,
                mtime,
                ttl,
            }
        }),
        1 => (0u32..12).prop_map(|doc| Op::Remove { doc }),
        3 => (0u32..12).prop_map(|doc| Op::Touch { doc }),
        1 => (0u32..12).prop_map(|doc| Op::Hit { doc }),
        1 => (0u32..12).prop_map(|doc| Op::TakeHits { doc }),
        1 => Just(Op::MarkAll),
        1 => Just(Op::MarkServer),
        1 => (0u32..12, 0u64..200).prop_map(|(doc, ttl)| Op::UpdateFreshness { doc, ttl }),
    ]
}

#[derive(Debug, Clone, PartialEq)]
struct ModelEntry {
    meta: DocMeta,
    freshness: Freshness,
    unreported: u64,
    access_seq: u64,
}

/// The reference: a map plus two ordered indexes, `lru` keyed by the access
/// stamp.
struct Model {
    capacity: ByteSize,
    policy: ReplacementPolicy,
    entries: HashMap<ScopedUrl, ModelEntry>,
    lru: BTreeSet<(u64, ScopedUrl)>,
    expiry: BTreeSet<(SimTime, ScopedUrl)>,
    used: ByteSize,
    next_seq: u64,
    stats: CacheStats,
    /// Every eviction victim so far, in order.
    victims: Vec<ScopedUrl>,
}

impl Model {
    fn new(capacity: ByteSize, policy: ReplacementPolicy) -> Self {
        Model {
            capacity,
            policy,
            entries: HashMap::new(),
            lru: BTreeSet::new(),
            expiry: BTreeSet::new(),
            used: ByteSize::ZERO,
            next_seq: 0,
            stats: CacheStats::default(),
            victims: Vec::new(),
        }
    }

    fn stamp(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    fn touch(&mut self, key: ScopedUrl) -> bool {
        let seq = self.stamp();
        let Some(entry) = self.entries.get_mut(&key) else {
            return false;
        };
        self.lru.remove(&(entry.access_seq, key));
        entry.access_seq = seq;
        self.lru.insert((seq, key));
        true
    }

    fn remove(&mut self, key: ScopedUrl) -> Option<ModelEntry> {
        let entry = self.entries.remove(&key)?;
        self.lru.remove(&(entry.access_seq, key));
        self.expiry.remove(&(entry.freshness.ttl_expires, key));
        self.used -= entry.meta.size();
        Some(entry)
    }

    fn evict_one(&mut self, now: SimTime) -> bool {
        let by_lru = self.lru.first().map(|&(_, k)| k);
        let victim = match self.policy {
            ReplacementPolicy::Lru => by_lru,
            ReplacementPolicy::ExpiredFirstLru => self
                .expiry
                .first()
                .filter(|&&(exp, _)| exp <= now)
                .map(|&(_, k)| k)
                .or(by_lru),
        };
        let Some(entry) = victim.and_then(|k| self.remove(k)) else {
            return false;
        };
        self.victims.extend(victim);
        self.stats.evictions += 1;
        self.stats.expired_evictions += u64::from(entry.freshness.ttl_expires <= now);
        true
    }

    /// `false` when the document is larger than the whole cache.
    fn insert(&mut self, key: ScopedUrl, meta: DocMeta, now: SimTime, fresh: Freshness) -> bool {
        if meta.size() > self.capacity {
            self.stats.rejected_too_large += 1;
            return false;
        }
        self.remove(key);
        while self.used + meta.size() > self.capacity && self.evict_one(now) {}
        let access_seq = self.stamp();
        self.lru.insert((access_seq, key));
        if fresh.ttl_expires != SimTime::NEVER {
            self.expiry.insert((fresh.ttl_expires, key));
        }
        self.used += meta.size();
        let entry = ModelEntry {
            meta,
            freshness: fresh,
            unreported: 0,
            access_seq,
        };
        self.entries.insert(key, entry);
        true
    }

    fn set_ttl(&mut self, key: ScopedUrl, ttl: SimTime) -> bool {
        let Some(entry) = self.entries.get_mut(&key) else {
            return false;
        };
        self.expiry.remove(&(entry.freshness.ttl_expires, key));
        entry.freshness.ttl_expires = ttl;
        if ttl != SimTime::NEVER {
            self.expiry.insert((ttl, key));
        }
        true
    }
}

fn key(doc: u32) -> ScopedUrl {
    Url::new(ServerId::new(0), doc).scoped(ClientId::from_raw(7))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn store_matches_the_stamp_ordered_reference_model(
        ops in proptest::collection::vec(op_strategy(), 1..150),
        policy in prop_oneof![Just(ReplacementPolicy::Lru), Just(ReplacementPolicy::ExpiredFirstLru)],
        // Unbounded, or tight enough that most inserts evict.
        capacity_kib in prop_oneof![Just(u64::MAX >> 10), 48u64..256],
    ) {
        let capacity = ByteSize::from_kib(capacity_kib);
        let mut store = CacheStore::new(capacity, policy);
        let mut model = Model::new(capacity, policy);
        let mut now = SimTime::ZERO;
        for op in ops {
            now += wcc_types::SimDuration::from_secs(1);
            let evicted_before = model.victims.len();
            match op {
                Op::Insert { doc, size_kib, mtime, ttl } => {
                    let meta = DocMeta::new(ByteSize::from_kib(size_kib), SimTime::from_secs(mtime));
                    let fresh = Freshness {
                        ttl_expires: ttl_at(ttl),
                        ..Freshness::default()
                    };
                    store.insert(key(doc), meta, now, fresh);
                    model.insert(key(doc), meta, now, fresh);
                }
                Op::Remove { doc } => {
                    let got = store.remove(key(doc));
                    let want = model.remove(key(doc));
                    prop_assert_eq!(got.is_some(), want.is_some());
                    if let (Some(g), Some(w)) = (got, want) {
                        prop_assert_eq!(g.meta, w.meta);
                        prop_assert_eq!(g.unreported_hits, w.unreported);
                    }
                }
                Op::Touch { doc } => {
                    prop_assert_eq!(store.touch(key(doc), now).is_some(), model.touch(key(doc)));
                }
                Op::Hit { doc } => {
                    store.add_unreported_hit(key(doc));
                    if let Some(e) = model.entries.get_mut(&key(doc)) {
                        e.unreported += 1;
                    }
                }
                Op::TakeHits { doc } => {
                    let got = store.take_unreported_hits(key(doc));
                    let want = model.entries.get_mut(&key(doc)).map(|e| std::mem::take(&mut e.unreported)).unwrap_or(0);
                    prop_assert_eq!(got, want);
                }
                Op::MarkAll => {
                    prop_assert_eq!(store.mark_all_questionable(), model.entries.len());
                    for e in model.entries.values_mut() {
                        e.freshness.questionable = true;
                    }
                }
                Op::MarkServer => {
                    // All keys are on server 0, so this equals MarkAll.
                    prop_assert_eq!(store.mark_server_questionable(ServerId::new(0)), model.entries.len());
                    for e in model.entries.values_mut() {
                        e.freshness.questionable = true;
                    }
                }
                Op::UpdateFreshness { doc, ttl } => {
                    prop_assert_eq!(store.update_freshness(key(doc), |f| f.ttl_expires = ttl_at(ttl)),
                                    model.set_ttl(key(doc), ttl_at(ttl)));
                }
            }
            // This operation's victims went (it never re-inserts one), and
            // no eviction happened that the model did not make...
            for victim in &model.victims[evicted_before..] {
                prop_assert!(store.peek(*victim).is_none(), "{victim:?} survived");
            }
            prop_assert_eq!(store.stats(), model.stats);
            // ...and what is left is the same, in the same recency order.
            let order: Vec<ScopedUrl> = store.iter().map(|(k, _)| k).collect();
            let want_order: Vec<ScopedUrl> = model.lru.iter().map(|&(_, k)| k).collect();
            prop_assert_eq!(order, want_order);
            prop_assert_eq!(store.len(), model.entries.len());
            for (k, want) in &model.entries {
                let got = store.peek(*k).expect("model entry must exist in store");
                prop_assert_eq!(got.meta, want.meta);
                prop_assert_eq!(got.freshness, want.freshness);
                prop_assert_eq!(got.unreported_hits, want.unreported);
            }
            prop_assert_eq!(store.used(), model.used);
            prop_assert!(store.used() <= capacity);
        }
    }
}
