//! The batched invalidation proposer.
//!
//! Plain invalidation pays one `INVALIDATE <url>` wire message per
//! registered copy per write. Under a write storm the same hot documents
//! are modified repeatedly within milliseconds, and each modification fans
//! out again. The proposer sits between `ServerConsistency::on_modify` and
//! the wire: pending `(document, client)` invalidation intents accumulate
//! in a per-origin queue and fire as one multi-URL
//! [`InvalidateBatch`](wcc_proto::HttpMsg::InvalidateBatch) round per
//! proxy when any [`InvalBatchConfig`] threshold trips — a count of
//! coalesced entries, the age of the oldest entry, or the wire bytes the
//! per-write fan-out would have cost. Repeated writes to the same URL
//! *coalesce*: the second write finds the `(url, client)` entry already
//! queued and adds nothing, so a storm of `w` writes costs one batched
//! round instead of `w` fan-outs.
//!
//! The queue is a `BTreeMap` keyed by URL with `BTreeSet` recipients, so a
//! drain is deterministically ordered without sorting — replays stay
//! byte-identical.

use std::collections::{BTreeMap, BTreeSet};

use wcc_proto::msg::sizes::INVALIDATE_SIZE;
use wcc_types::{ClientId, InvalBatchConfig, Url};

/// Counters the proposer keeps for the trajectory's `proposer` block.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ProposerStats {
    /// Invalidation intents handed to the proposer — the counterfactual
    /// per-write fan-out message count.
    pub enqueued: u64,
    /// Intents that found their `(url, client)` entry already pending and
    /// merged into it. `enqueued = coalesced + unique entries queued`.
    pub coalesced: u64,
    /// Drain rounds (threshold trips plus age-timer fires).
    pub flushes: u64,
    /// Unique entries drained across all flushes.
    pub flushed_entries: u64,
    /// Wire `InvalidateBatch` messages emitted (one per proxy with
    /// entries, per flush).
    pub batches: u64,
    /// Largest single wire batch, in entries.
    pub max_batch_entries: u64,
}

impl ProposerStats {
    /// Adds `other`'s counts to these and keeps the larger single batch:
    /// the proposers of a federation's origins read as one.
    pub fn merge(&mut self, other: &ProposerStats) {
        self.enqueued += other.enqueued;
        self.coalesced += other.coalesced;
        self.flushes += other.flushes;
        self.flushed_entries += other.flushed_entries;
        self.batches += other.batches;
        self.max_batch_entries = self.max_batch_entries.max(other.max_batch_entries);
    }

    /// Intents per delivered entry (`> 1` once writes coalesce).
    pub fn coalesce_ratio(&self) -> f64 {
        if self.flushed_entries == 0 {
            1.0
        } else {
            self.enqueued as f64 / self.flushed_entries as f64
        }
    }
}

/// Per-origin accumulator for pending invalidation fan-out.
#[derive(Debug, Clone)]
pub struct Proposer {
    cfg: InvalBatchConfig,
    /// url → recipients still queued. BTree keeps drain order deterministic.
    pending: BTreeMap<Url, BTreeSet<ClientId>>,
    /// Total `(url, client)` entries across `pending`.
    entries: usize,
    stats: ProposerStats,
}

impl Proposer {
    /// An empty proposer with the given thresholds.
    pub fn new(cfg: InvalBatchConfig) -> Proposer {
        Proposer {
            cfg,
            pending: BTreeMap::new(),
            entries: 0,
            stats: ProposerStats::default(),
        }
    }

    /// The thresholds in force.
    pub fn config(&self) -> InvalBatchConfig {
        self.cfg
    }

    /// Queues one invalidation intent. Returns `true` when the queue was
    /// empty before — the caller arms the age timer on that transition.
    pub fn enqueue(&mut self, url: Url, client: ClientId) -> bool {
        let was_empty = self.entries == 0;
        self.stats.enqueued += 1;
        if self.pending.entry(url).or_default().insert(client) {
            self.entries += 1;
        } else {
            self.stats.coalesced += 1;
        }
        was_empty
    }

    /// Whether `(url, client)` is still waiting in the queue. Retry timers
    /// skip recipients the proposer has not sent to yet.
    pub fn queued(&self, url: Url, client: ClientId) -> bool {
        self.pending
            .get(&url)
            .is_some_and(|set| set.contains(&client))
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Unique `(url, client)` entries currently pending.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Whether the count or byte threshold has tripped. (The age threshold
    /// is the caller's timer, not a queue property.)
    pub fn should_flush(&self) -> bool {
        self.entries >= self.cfg.max_entries
            || self.entries as u64 * INVALIDATE_SIZE >= self.cfg.max_bytes.as_u64()
    }

    /// Drains the queue in `(url, client)` order. Each returned recipient
    /// list is sorted and non-empty.
    pub fn drain(&mut self) -> Vec<(Url, Vec<ClientId>)> {
        let drained: Vec<(Url, Vec<ClientId>)> = std::mem::take(&mut self.pending)
            .into_iter()
            .map(|(url, set)| (url, set.into_iter().collect()))
            .collect();
        self.stats.flushes += 1;
        self.stats.flushed_entries += self.entries as u64;
        self.entries = 0;
        drained
    }

    /// Drops everything pending without counting a flush — crash recovery:
    /// the queue is main-memory state and dies with the process. Counters
    /// survive (they describe history, not state).
    pub fn clear(&mut self) {
        self.pending.clear();
        self.entries = 0;
    }

    /// Records one wire batch of `entries` entries emitted downstream.
    pub fn note_batch(&mut self, entries: usize) {
        self.stats.batches += 1;
        self.stats.max_batch_entries = self.stats.max_batch_entries.max(entries as u64);
    }

    /// The counters so far.
    pub fn stats(&self) -> ProposerStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcc_types::{ByteSize, ServerId, SimDuration};

    fn url(doc: u32) -> Url {
        Url::new(ServerId::new(0), doc)
    }

    fn client(raw: u32) -> ClientId {
        ClientId::from_raw(raw)
    }

    #[test]
    fn coalesces_repeat_writes_and_counts_them() {
        let mut p = Proposer::new(InvalBatchConfig::with_max_entries(8));
        assert!(
            p.enqueue(url(1), client(1)),
            "first enqueue opens the queue"
        );
        assert!(!p.enqueue(url(1), client(2)));
        assert!(!p.enqueue(url(1), client(1)), "repeat write coalesces");
        assert_eq!(p.entries(), 2);
        let s = p.stats();
        assert_eq!((s.enqueued, s.coalesced), (3, 1));
        assert!(p.queued(url(1), client(1)));
        assert!(!p.queued(url(2), client(1)));
    }

    #[test]
    fn count_threshold_trips_flush() {
        let mut p = Proposer::new(InvalBatchConfig::with_max_entries(2));
        p.enqueue(url(1), client(1));
        assert!(!p.should_flush());
        p.enqueue(url(2), client(1));
        assert!(p.should_flush());
    }

    #[test]
    fn byte_threshold_trips_flush() {
        let cfg = InvalBatchConfig {
            max_entries: 1000,
            max_age: SimDuration::from_secs(1),
            max_bytes: ByteSize::from_bytes(3 * INVALIDATE_SIZE),
        };
        let mut p = Proposer::new(cfg);
        p.enqueue(url(1), client(1));
        p.enqueue(url(2), client(1));
        assert!(!p.should_flush());
        p.enqueue(url(3), client(1));
        assert!(
            p.should_flush(),
            "3 per-write messages reach the byte bound"
        );
    }

    #[test]
    fn drain_is_sorted_and_resets() {
        let mut p = Proposer::new(InvalBatchConfig::with_max_entries(64));
        p.enqueue(url(9), client(3));
        p.enqueue(url(1), client(2));
        p.enqueue(url(1), client(1));
        let rounds = p.drain();
        assert_eq!(
            rounds,
            vec![
                (url(1), vec![client(1), client(2)]),
                (url(9), vec![client(3)]),
            ]
        );
        assert!(p.is_empty());
        assert!(!p.queued(url(1), client(1)));
        let s = p.stats();
        assert_eq!((s.flushes, s.flushed_entries), (1, 3));
        assert!(p.enqueue(url(5), client(1)), "queue reopens after drain");
    }

    #[test]
    fn note_batch_tracks_the_largest_round() {
        let mut p = Proposer::new(InvalBatchConfig::default());
        p.note_batch(3);
        p.note_batch(7);
        p.note_batch(2);
        let s = p.stats();
        assert_eq!((s.batches, s.max_batch_entries), (3, 7));
    }
}
