//! The totally ordered event queue at the heart of the simulator.
//!
//! Events are ordered by `(time, lane, lane sequence)` — see [`Rank`]. The
//! storage is a two-level bucket queue: a ring of one-microsecond buckets
//! covering the near future plus an overflow heap for everything beyond the
//! ring's horizon. The ring is 16 384 µs wide, twice the cost model's 8 ms
//! proxy request charge, so link hops, CPU charges and the replies parked
//! behind a busy proxy live their whole life in the ring; only large
//! transfers, far timers and the tail of a long backlog take one heap trip
//! and are pulled into the ring as the cursor approaches them. The trajectory
//! gates [`EventQueue::overflow_inserts`]: on the EPA invalidation replay
//! 1 362 inserts take the heap (16 937 of 65 600, 26 %, with a 4 096 µs ring).
//!
//! The ring's buckets own no memory. Every ring entry sits in one slab whose
//! slots are recycled through a free list, and a bucket is a list through
//! that slab, linked by `u32` indices from its head. So the ring's footprint
//! is its peak number of pending events plus one `u32` head per bucket, and
//! after warm-up an insert takes a free slot instead of calling the
//! allocator.
//!
//! The next occupied bucket is found through a two-level bitmap: one bit per
//! bucket, and a summary with one bit per non-empty bitmap word. A gap of
//! any length costs at most a probe of the cursor's word, of the summary's
//! four words and of the word the summary names.
//!
//! Only the bucket under the cursor is ever popped from, so only that
//! bucket is kept ordered: when the cursor lands on it, its entries move
//! into one reusable `Vec`, which is sorted once and drained from the back,
//! and an insert into it while it drains goes in by binary search. A bucket
//! of `k` same-microsecond events therefore costs `O(k log k)` to drain, and
//! the common one-event bucket costs a link, a move and a pop.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use wcc_types::SimTime;

/// Width of the near-future ring, in one-microsecond buckets: wider than
/// the cost model's longest CPU charge (the proxy's 8 ms per request), so a
/// delivery deferred to the end of one busy period lands in the ring — the
/// module docs give the measured overflow count.
const RING_BUCKETS: u64 = 16_384;

/// Occupancy-bitmap words covering the ring (one bit per bucket).
const RING_WORDS: usize = (RING_BUCKETS as usize) / 64;

/// Summary words covering the bitmap (one bit per bitmap word).
const SUMMARY_WORDS: usize = RING_WORDS / 64;

/// The end of a bucket's list and of the slab's free list.
const NIL: u32 = u32::MAX;

/// The tie-breaking key of a scheduled event: events firing at the same
/// instant pop in `(lane, seq)` order.
///
/// Lane 0 is reserved for *external* events (pre-run injections and fault
/// plans, scheduled through [`EventQueue::schedule`]); node `n` schedules on
/// lane `n + 1` with a per-node sequence counter. Because every lane's
/// counter is owned by exactly one scheduling site, the full key is a
/// function of that lane's own history: it does not depend on the order in
/// which other lanes' events were inserted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Rank {
    pub(crate) lane: u32,
    pub(crate) seq: u64,
}

impl Rank {
    /// The external lane: pre-run injections and fault schedules. Sorts
    /// before any node lane at the same instant.
    pub(crate) const fn external(seq: u64) -> Rank {
        Rank { lane: 0, seq }
    }

    /// The lane of node `node` (lanes are the node id shifted up by one to
    /// keep lane 0 external).
    pub(crate) const fn node(node: u32, seq: u64) -> Rank {
        Rank {
            lane: node + 1,
            seq,
        }
    }
}

/// An overflow-heap entry; inverted `Ord` so the `BinaryHeap` max-heap pops
/// the earliest `(at, rank)` first.
#[derive(Debug)]
struct Scheduled<E> {
    at: SimTime,
    rank: Rank,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.rank == other.rank
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.rank.cmp(&self.rank))
    }
}

/// One slab slot: a ring entry and the next slot of its bucket's list, or,
/// with no payload, the next slot of the free list.
#[derive(Debug)]
struct Link<E> {
    at: SimTime,
    rank: Rank,
    payload: Option<E>,
    next: u32,
}

/// Sorts a bucket so its earliest event is last. Out of line: almost every
/// bucket holds one event and never gets here.
#[inline(never)]
fn sort_descending<E>(bucket: &mut [(SimTime, Rank, E)]) {
    // Keys are unique, so an unstable sort is deterministic.
    bucket.sort_unstable_by_key(|e| std::cmp::Reverse((e.0, e.1)));
}

/// Inserts into a bucket sorted by [`sort_descending`], keeping it sorted.
#[inline(never)]
fn insert_sorted<E>(bucket: &mut Vec<(SimTime, Rank, E)>, at: SimTime, rank: Rank, payload: E) {
    let pos = bucket.partition_point(|e| (e.0, e.1) > (at, rank));
    bucket.insert(pos, (at, rank, payload));
}

/// A priority queue of simulation events ordered by `(time, lane, seq)`.
///
/// Events scheduled for the same instant on the same lane pop in insertion
/// order, and the full key never depends on hash ordering or on *when* an
/// event was inserted relative to other lanes, which makes the whole
/// simulation deterministic.
///
/// # Examples
///
/// ```
/// use wcc_simnet::EventQueue;
/// use wcc_types::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(2), "late");
/// q.schedule(SimTime::from_secs(1), "early");
/// q.schedule(SimTime::from_secs(1), "early-too");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "early-too")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Near-future ring: bucket `t % RING_BUCKETS` holds the events firing
    /// at microsecond `t`, for `t` in `[cursor, cursor + RING_BUCKETS)`, as
    /// a list through `slab` starting at `heads[bucket]`. The cursor bucket,
    /// once landed on, lives in `drain` instead.
    heads: Vec<u32>,
    /// Every listed ring entry; a slot without a payload is on the free list.
    slab: Vec<Link<E>>,
    /// Head of the slab's free list.
    free: u32,
    /// The cursor bucket's entries, sorted descending by `(at, rank)` so its
    /// minimum is the last element, while `landed` is set. Empty otherwise;
    /// its capacity is kept for the next bucket.
    drain: Vec<(SimTime, Rank, E)>,
    /// Occupancy bitmap over the ring: bit `b` of word `b / 64` is set iff
    /// bucket `b` is non-empty. Replaces the one-bucket-per-microsecond
    /// cursor walk in [`EventQueue::seek`] with a `trailing_zeros` scan —
    /// the event gaps in the replay traces average hundreds of microseconds,
    /// so the walk used to dominate the whole simulation's runtime.
    occupied: [u64; RING_WORDS],
    /// The bitmap's summary: bit `w` of word `w / 64` is set iff
    /// `occupied[w]` is non-zero, so a gap spanning many empty words is
    /// crossed by one summary probe instead of a scan over them.
    summary: [u64; SUMMARY_WORDS],
    /// Events at or beyond the ring horizon, pulled into the ring lazily as
    /// the cursor advances.
    overflow: BinaryHeap<Scheduled<E>>,
    /// The earliest microsecond the ring can still hold events for. Only
    /// ever advances (simulation time is monotone); an event scheduled
    /// behind it (never done by the engine) is clamped into the cursor
    /// bucket and still pops first by key comparison.
    cursor: u64,
    /// `true` once [`EventQueue::seek`] has moved the cursor bucket into
    /// `drain`; [`EventQueue::ring_push`] then inserts into `drain` (an
    /// emptied bucket stays trivially sorted). Dropped whenever the cursor
    /// moves.
    landed: bool,
    /// Events currently in the ring.
    ring_len: usize,
    /// Total pending events (ring + overflow).
    len: usize,
    /// Sequence counter of the external lane (see [`Rank::external`]).
    next_seq: u64,
    /// Inserts that landed beyond the ring's horizon.
    overflow_inserts: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heads: vec![NIL; RING_BUCKETS as usize],
            slab: Vec::new(), // xtask-lint: allow(hot-loop-alloc)
            free: NIL,
            drain: Vec::new(), // xtask-lint: allow(hot-loop-alloc)
            occupied: [0; RING_WORDS],
            summary: [0; SUMMARY_WORDS],
            overflow: BinaryHeap::new(),
            cursor: 0,
            landed: false,
            ring_len: 0,
            len: 0,
            next_seq: 0,
            overflow_inserts: 0,
        }
    }

    /// Marks ring bucket `slot` occupied.
    #[inline]
    fn mark(&mut self, slot: u64) {
        let word = (slot / 64) as usize;
        self.occupied[word] |= 1 << (slot % 64);
        self.summary[word / 64] |= 1 << (word % 64);
    }

    /// Clears ring bucket `slot`'s occupancy bit (bucket just became empty),
    /// and its word's summary bit if the word emptied with it.
    #[inline]
    fn unmark(&mut self, slot: u64) {
        let word = (slot / 64) as usize;
        self.occupied[word] &= !(1 << (slot % 64));
        if self.occupied[word] == 0 {
            self.summary[word / 64] &= !(1 << (word % 64));
        }
    }

    /// The first non-empty bitmap word at or circularly after word `from`:
    /// a probe of `from`'s summary word above `from`, then of the summary
    /// words after it, the last of them `from`'s own again (the words
    /// before `from` in it are the ones the wrap reaches last). The ring
    /// must be non-empty.
    fn next_occupied_word(&self, from: usize) -> usize {
        let (sword, sbit) = (from / 64, from % 64);
        let head = self.summary[sword] >> sbit;
        if head != 0 {
            return from + head.trailing_zeros() as usize;
        }
        for k in 1..=SUMMARY_WORDS {
            let i = (sword + k) % SUMMARY_WORDS;
            let w = self.summary[i];
            if w != 0 {
                return i * 64 + w.trailing_zeros() as usize;
            }
        }
        unreachable!("occupancy summary empty while ring_len > 0");
    }

    /// Circular distance from bucket `start` to the nearest occupied bucket
    /// (0 when `start` itself is occupied). The ring must be non-empty.
    ///
    /// Every ring event lives in `[cursor, cursor + RING_BUCKETS)`, so the
    /// circular scan order from `cursor % RING_BUCKETS` *is* time order.
    fn next_occupied_delta(&self, start: u64) -> u64 {
        let word = (start / 64) as usize;
        let bit = start % 64;
        let head = self.occupied[word] >> bit;
        if head != 0 {
            return u64::from(head.trailing_zeros());
        }
        // The next non-empty word `k` words on (`k == RING_WORDS` when only
        // the buckets below `bit` in this word are occupied: a full wrap).
        let next = self.next_occupied_word((word + 1) % RING_WORDS);
        let k = match (next + RING_WORDS - word) % RING_WORDS {
            0 => RING_WORDS,
            k => k,
        };
        (k as u64) * 64 - bit + u64::from(self.occupied[next].trailing_zeros())
    }

    /// Schedules `payload` to fire at `at` on the external lane. Returns the
    /// event's external sequence number (unique, monotonically increasing),
    /// so same-instant external events pop in insertion order.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(at, Rank::external(seq), payload);
        seq
    }

    /// Schedules `payload` with a caller-assigned rank (the engine's
    /// per-node lanes).
    pub(crate) fn schedule_ranked(&mut self, at: SimTime, rank: Rank, payload: E) {
        self.insert(at, rank, payload);
    }

    /// Whether microsecond `t` is at or past the ring's horizon. Near the
    /// end of the time axis the horizon is the axis's end, so events at
    /// [`SimTime::NEVER`] share the ring, and the key order, with those
    /// pulled in before them.
    fn beyond_ring(&self, t: u64) -> bool {
        t.saturating_sub(self.cursor) >= RING_BUCKETS
    }

    fn insert(&mut self, at: SimTime, rank: Rank, payload: E) {
        self.len += 1;
        let t = at.as_micros();
        if self.beyond_ring(t) {
            self.overflow_inserts += 1;
            self.overflow.push(Scheduled { at, rank, payload });
        } else {
            // Past-of-cursor events (clamped into the cursor bucket) still
            // pop first: the cursor bucket drains before any later one, and
            // within a bucket the stored key decides.
            self.ring_push(t.max(self.cursor), at, rank, payload);
        }
    }

    /// Places an event in the ring bucket of microsecond `t` (within the
    /// ring window): at the head of its list, in a recycled slab slot when
    /// there is one. The bucket being drained stays sorted: zero-delay
    /// sends, clamped past events and refills go in by binary search.
    #[inline]
    fn ring_push(&mut self, t: u64, at: SimTime, rank: Rank, payload: E) {
        let slot = t % RING_BUCKETS;
        if self.landed && t == self.cursor {
            insert_sorted(&mut self.drain, at, rank, payload);
        } else {
            let next = self.heads[slot as usize];
            let link = Link {
                at,
                rank,
                payload: Some(payload),
                next,
            };
            let index = if self.free == NIL {
                let index = u32::try_from(self.slab.len())
                    .ok()
                    .filter(|&i| i != NIL)
                    .expect("fewer than u32::MAX pending ring events");
                self.slab.push(link);
                index
            } else {
                let index = self.free;
                self.free = std::mem::replace(&mut self.slab[index as usize], link).next;
                index
            };
            self.heads[slot as usize] = index;
        }
        self.mark(slot);
        self.ring_len += 1;
    }

    /// Pulls overflow events that now fall inside the ring window. Called
    /// before every ring scan so "ring before overflow" stays a strict time
    /// partition even after the cursor advances.
    fn refill(&mut self) {
        while let Some(head) = self.overflow.peek() {
            let t = head.at.as_micros();
            if self.beyond_ring(t) {
                break;
            }
            let s = self.overflow.pop().expect("peeked overflow entry");
            self.ring_push(t, s.at, s.rank, s.payload);
        }
    }

    /// Moves the cursor bucket's list into `drain`, freeing its slots, and
    /// sorts it.
    fn land(&mut self) {
        let slot = (self.cursor % RING_BUCKETS) as usize;
        let mut index = std::mem::replace(&mut self.heads[slot], NIL);
        while index != NIL {
            let link = &mut self.slab[index as usize];
            let payload = link.payload.take().expect("a listed slot holds an event");
            self.drain.push((link.at, link.rank, payload));
            let next = std::mem::replace(&mut link.next, self.free);
            self.free = index;
            index = next;
        }
        if self.drain.len() > 1 {
            sort_descending(&mut self.drain);
        }
        self.landed = true;
    }

    /// Advances the cursor to the first non-empty bucket (one bitmap scan —
    /// empty stretches cost `trailing_zeros` word probes, not one step per
    /// microsecond) and lands on it if it has not yet: afterwards the
    /// earliest event is `drain`'s last. `None` if the queue is empty.
    fn seek(&mut self) -> Option<()> {
        if self.len == 0 {
            return None;
        }
        if self.ring_len == 0 {
            // Skip the empty stretch in one hop instead of walking buckets.
            let head = self.overflow.peek().expect("len > 0 with empty ring");
            let t = head.at.as_micros();
            if t > self.cursor {
                self.cursor = t;
                self.landed = false;
            }
            self.refill();
        }
        let delta = self.next_occupied_delta(self.cursor % RING_BUCKETS);
        if delta > 0 {
            self.cursor += delta;
            self.landed = false;
            // Crossing buckets can expose overflow entries that now fit the
            // window. One refill suffices: every overflow entry had
            // `t ≥ old cursor + RING_BUCKETS > new cursor` (the jump is less
            // than one full ring), so nothing refills at or before the
            // bucket the scan just chose.
            self.refill();
        }
        if !self.landed {
            self.land();
        }
        Some(())
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_bounded(SimTime::NEVER)
    }

    /// Removes and returns the earliest event if it fires at or before
    /// `bound`; leaves the queue untouched otherwise: the engine's one call
    /// per dispatched event.
    pub fn pop_bounded(&mut self, bound: SimTime) -> Option<(SimTime, E)> {
        self.seek()?;
        let next = self.drain.last().expect("seek lands on an occupied bucket");
        if next.0 > bound {
            return None;
        }
        let (at, _, payload) = self.drain.pop().expect("seek lands on an occupied bucket");
        if self.drain.is_empty() {
            self.unmark(self.cursor % RING_BUCKETS);
        }
        self.ring_len -= 1;
        self.len -= 1;
        Some((at, payload))
    }

    /// Events scheduled beyond the ring's horizon so far: each paid a heap
    /// push and pop on top of its ring trip.
    pub fn overflow_inserts(&self) -> u64 {
        self.overflow_inserts
    }

    /// The number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time_then_sequence() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), 'c');
        q.schedule(SimTime::from_secs(1), 'a');
        q.schedule(SimTime::from_secs(5), 'd');
        q.schedule(SimTime::from_secs(3), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c', 'd']);
    }

    #[test]
    fn len_counts_pending_events() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(7), ());
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn sequence_numbers_are_unique_and_increasing() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::ZERO, ());
        let b = q.schedule(SimTime::ZERO, ());
        assert!(b > a);
    }

    #[test]
    fn large_interleaving_stays_sorted() {
        let mut q = EventQueue::new();
        // Insert times in a scrambled but deterministic pattern.
        for i in 0u64..1000 {
            q.schedule(SimTime::from_micros((i * 7919) % 503), i);
        }
        let mut last = (SimTime::ZERO, 0u64);
        let mut first = true;
        while let Some((t, i)) = q.pop() {
            if !first {
                let same_time_in_order = t == last.0 && i > last.1;
                assert!(
                    t > last.0 || same_time_in_order,
                    "out of order: {t:?} after {last:?}"
                );
            }
            last = (t, i);
            first = false;
        }
    }

    #[test]
    fn node_lanes_order_after_external_and_by_lane() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.schedule_ranked(t, Rank::node(4, 0), "node4");
        q.schedule_ranked(t, Rank::node(0, 7), "node0");
        q.schedule(t, "external");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["external", "node0", "node4"]);
    }

    #[test]
    fn overflow_events_interleave_correctly_with_ring_events() {
        // Regression shape for the two-level design: an event parked in the
        // overflow heap must not be overtaken by a later ring event once the
        // cursor advances far enough for both to be "near future".
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(900), "early");
        q.schedule(SimTime::from_micros(RING_BUCKETS + 1_500), "overflow");
        assert_eq!(q.pop(), Some((SimTime::from_micros(900), "early")));
        // Scheduled *after* the pop moved the cursor: lands in the ring.
        q.schedule(SimTime::from_micros(RING_BUCKETS + 1_600), "ring");
        assert_eq!(
            q.pop(),
            Some((SimTime::from_micros(RING_BUCKETS + 1_500), "overflow"))
        );
        assert_eq!(
            q.pop(),
            Some((SimTime::from_micros(RING_BUCKETS + 1_600), "ring"))
        );
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn far_future_and_dense_bursts_mix() {
        let mut q = EventQueue::new();
        // A day-scale timer, a mid-range timer, and a dense burst.
        q.schedule(SimTime::from_secs(86_400), "day");
        q.schedule(SimTime::from_millis(50), "mid");
        for i in 0..100u64 {
            q.schedule(SimTime::from_micros(i % 7), "burst");
        }
        let mut popped = Vec::new();
        while let Some((t, _)) = q.pop() {
            popped.push(t);
        }
        assert_eq!(popped.len(), 102);
        assert!(popped.windows(2).all(|w| w[0] <= w[1]), "time-sorted");
        assert_eq!(popped.last(), Some(&SimTime::from_secs(86_400)));
    }

    #[test]
    fn empty_stretches_jump_rather_than_walk() {
        let mut q = EventQueue::new();
        // Events separated by hours of empty simulated time: pops must not
        // take time proportional to the gap.
        for h in 1..=5u64 {
            q.schedule(SimTime::from_secs(h * 3_600), h);
        }
        for h in 1..=5u64 {
            assert_eq!(q.pop(), Some((SimTime::from_secs(h * 3_600), h)));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn pop_bounded_respects_the_bound() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(10), 'a');
        q.schedule(SimTime::from_secs(1), 'b');
        assert_eq!(q.pop_bounded(SimTime::from_micros(5)), None);
        assert_eq!(q.len(), 2, "a refused pop leaves the queue untouched");
        assert_eq!(
            q.pop_bounded(SimTime::from_micros(10)),
            Some((SimTime::from_micros(10), 'a'))
        );
        assert_eq!(q.pop_bounded(SimTime::from_micros(10)), None);
        assert_eq!(
            q.pop_bounded(SimTime::NEVER),
            Some((SimTime::from_secs(1), 'b'))
        );
        assert_eq!(q.pop_bounded(SimTime::NEVER), None);
    }

    #[test]
    fn pop_bounded_pops_saturation_edge_events() {
        // run_until_idle must drain events parked at SimTime::NEVER.
        let mut q = EventQueue::new();
        q.schedule(SimTime::NEVER, 'z');
        assert_eq!(q.pop_bounded(SimTime::NEVER), Some((SimTime::NEVER, 'z')));
    }

    #[test]
    fn an_event_at_never_pops_before_a_later_ranked_one_already_pulled_in() {
        let mut q = EventQueue::new();
        q.schedule_ranked(SimTime::NEVER, Rank::node(3, 1), "lane3");
        // The refused pop pulls the lane-3 event into the ring.
        assert_eq!(q.pop_bounded(SimTime::from_secs(1)), None);
        q.schedule(SimTime::NEVER, "external");
        assert_eq!(q.pop(), Some((SimTime::NEVER, "external")));
        assert_eq!(q.pop(), Some((SimTime::NEVER, "lane3")));
    }

    #[test]
    fn occupancy_bitmap_tracks_interleaved_push_pop() {
        // Exercise word boundaries (bits 63/64), summary-word boundaries
        // (buckets 4 095/4 096) and re-marking a bucket that was emptied,
        // across several ring wraps.
        const OFFSETS: [u64; 10] = [
            63,
            64,
            65,
            127,
            128,
            4095,
            4096,
            8191,
            12_288,
            RING_BUCKETS - 1,
        ];
        let mut q = EventQueue::new();
        for round in 0u64..3 {
            let base = round * RING_BUCKETS;
            for &off in &OFFSETS {
                q.schedule(SimTime::from_micros(base + off), (round, off));
            }
            let mut got = Vec::new();
            while let Some((_, e)) = q.pop() {
                got.push(e.1);
            }
            assert_eq!(got, OFFSETS, "round {round}");
        }
    }

    #[test]
    fn same_instant_burst_with_inserts_mid_drain_pops_in_key_order() {
        // 10 000 events in one microsecond across 7 lanes, scheduled in a
        // scrambled order; while the bucket drains, more events land in it
        // (same instant, and a clamped past one) on every side of the keys
        // still pending. A BTreeSet of the keys is the oracle.
        use std::collections::BTreeSet;
        let t = SimTime::from_micros(777);
        let mut q = EventQueue::new();
        let mut model = BTreeSet::new();
        let mut seqs = [0u64; 7];
        for i in 0u64..10_000 {
            let lane = (i * 7919 % 7) as usize;
            let rank = Rank::node(lane as u32, seqs[lane]);
            seqs[lane] += 1;
            q.schedule_ranked(t, rank, (t, rank));
            model.insert((t, rank));
        }
        q.schedule_ranked(SimTime::from_micros(900), Rank::node(0, 0), {
            let key = (SimTime::from_micros(900), Rank::node(0, 0));
            model.insert(key);
            key
        });
        let mut popped = 0u64;
        while let Some((at, key)) = q.pop() {
            assert_eq!(Some(key), model.pop_first(), "pop {popped}");
            assert_eq!(at, key.0);
            popped += 1;
            if popped.is_multiple_of(3) && popped < 9_000 {
                // Rotate through the lanes: lanes already drained sort
                // first, later ones in the middle or last.
                let lane = (popped / 3 % 7) as usize;
                let at = if popped.is_multiple_of(600) {
                    SimTime::from_micros(5) // behind the cursor: clamped
                } else {
                    t
                };
                let rank = Rank::node(lane as u32, seqs[lane]);
                seqs[lane] += 1;
                q.schedule_ranked(at, rank, (at, rank));
                model.insert((at, rank));
            }
        }
        assert!(model.is_empty());
        assert!(popped > 12_000);
    }

    #[test]
    fn refill_into_the_bucket_being_drained_keeps_order() {
        // An overflow event due at exactly the microsecond the cursor lands
        // on next is refilled into that bucket before the landing sort.
        let mut q = EventQueue::new();
        let far = SimTime::from_micros(RING_BUCKETS + 10);
        q.schedule_ranked(far, Rank::node(3, 0), "overflow-lane3");
        q.schedule(SimTime::from_micros(20), "early");
        assert_eq!(q.pop(), Some((SimTime::from_micros(20), "early")));
        q.schedule_ranked(far, Rank::node(5, 0), "ring-lane5");
        q.schedule_ranked(far, Rank::node(1, 0), "ring-lane1");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["ring-lane1", "overflow-lane3", "ring-lane5"]);
    }

    /// Where a model-test insert lands, relative to the last popped time
    /// (`now`) or to the queue's cursor.
    #[derive(Debug, Clone)]
    enum When {
        Ahead(u64),
        Behind(u64),
        /// At `cursor + RING_BUCKETS - 1` (`false`) or `+ RING_BUCKETS`.
        RingEdge(bool),
        /// At the first bucket of the `k`-th summary word (4 096 buckets)
        /// after the cursor's, or (`true`) at the bucket before it: a gap
        /// that crosses summary words.
        SummaryEdge(u64, bool),
        /// `d` buckets past the next multiple of the ring width ahead of the
        /// cursor: a bucket whose slot wraps around behind the cursor's.
        Wrap(u64),
        Never,
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// On the external lane (`None`) or node lane `Some(n)`.
        Insert(Option<u32>, When),
        /// `n` inserts at `now`: into the bucket being drained, if any.
        Burst(Option<u32>, u8),
        Pop,
        PopBounded(u64),
    }

    fn op_strategy() -> impl proptest::strategy::Strategy<Value = Op> {
        use proptest::prelude::*;
        let lane = || proptest::option::of(0u32..4);
        let when = prop_oneof![
            4 => (0u64..8).prop_map(When::Ahead),
            4 => (0u64..2 * RING_BUCKETS).prop_map(When::Ahead),
            1 => (0u64..100_000).prop_map(When::Ahead),
            2 => (0u64..50).prop_map(When::Behind),
            2 => any::<bool>().prop_map(When::RingEdge),
            2 => (1u64..=4, any::<bool>()).prop_map(|(k, before)| When::SummaryEdge(k, before)),
            2 => (0u64..RING_BUCKETS).prop_map(When::Wrap),
            1 => Just(When::Never),
        ];
        prop_oneof![
            6 => (lane(), when).prop_map(|(lane, when)| Op::Insert(lane, when)),
            2 => (lane(), 1u8..20).prop_map(|(lane, n)| Op::Burst(lane, n)),
            4 => Just(Op::Pop),
            3 => (0u64..3 * RING_BUCKETS).prop_map(Op::PopBounded),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The pooled ring against a `BTreeSet` of keys: every pop is the
        /// set's minimum, a refused `pop_bounded` leaves both untouched, the
        /// slab never holds more slots than the ring's peak number of
        /// pending events, and once drained every slot is on the free list.
        #[test]
        fn the_queue_pops_in_key_order_and_recycles_every_slot(
            ops in proptest::collection::vec(op_strategy(), 1..300),
        ) {
            use std::collections::BTreeSet;
            type Key = (SimTime, Rank);
            fn insert(q: &mut EventQueue<Key>, model: &mut BTreeSet<Key>, lane: Option<u32>, t: u64, seqs: &mut [u64; 4]) {
                let at = SimTime::from_micros(t);
                let rank = match lane {
                    None => Rank::external(q.next_seq),
                    Some(n) => {
                        seqs[n as usize] += 1;
                        Rank::node(n, seqs[n as usize])
                    }
                };
                match lane {
                    None => assert_eq!(Rank::external(q.schedule(at, (at, rank))), rank),
                    Some(_) => q.schedule_ranked(at, rank, (at, rank)),
                }
                model.insert((at, rank));
            }
            let mut q = EventQueue::new();
            let mut model = BTreeSet::new();
            let (mut now, mut seqs, mut peak_ring) = (0u64, [0u64; 4], 0usize);
            for op in ops {
                let (got, want) = match op {
                    Op::Insert(lane, when) => {
                        let t = match when {
                            When::Ahead(d) => now.saturating_add(d),
                            When::Behind(d) => now.saturating_sub(d),
                            When::RingEdge(past) => {
                                q.cursor.saturating_add(RING_BUCKETS - 1 + u64::from(past))
                            }
                            When::SummaryEdge(k, before) => {
                                const SPAN: u64 = 64 * 64;
                                (q.cursor - q.cursor % SPAN).saturating_add(k * SPAN) - u64::from(before)
                            }
                            When::Wrap(d) => {
                                (q.cursor - q.cursor % RING_BUCKETS).saturating_add(RING_BUCKETS + d)
                            }
                            When::Never => SimTime::NEVER.as_micros(),
                        };
                        insert(&mut q, &mut model, lane, t, &mut seqs);
                        (None, None)
                    }
                    Op::Burst(lane, n) => {
                        for _ in 0..n {
                            insert(&mut q, &mut model, lane, now, &mut seqs);
                        }
                        (None, None)
                    }
                    Op::Pop => (q.pop(), model.pop_first()),
                    Op::PopBounded(d) => {
                        let bound = SimTime::from_micros(now.saturating_add(d));
                        let due = model.first().is_some_and(|&(at, _)| at <= bound);
                        (q.pop_bounded(bound), if due { model.pop_first() } else { None })
                    }
                };
                proptest::prop_assert_eq!(got.map(|(_, key)| key), want);
                // What the ring held before this op's pop, if it popped.
                let mut ring_peak_in_op = q.ring_len;
                if let Some((at, key)) = got {
                    proptest::prop_assert_eq!(at, key.0);
                    now = at.as_micros();
                    ring_peak_in_op += 1;
                }
                peak_ring = peak_ring.max(ring_peak_in_op);
                proptest::prop_assert_eq!(q.len(), model.len());
                proptest::prop_assert!(
                    q.slab.len() <= peak_ring,
                    "slab {} slots, ring peak {peak_ring}",
                    q.slab.len()
                );
            }
            while let Some((_, key)) = q.pop() {
                proptest::prop_assert_eq!(Some(key), model.pop_first());
            }
            proptest::prop_assert!(model.is_empty());
            let mut free = 0;
            let mut index = q.free;
            while index != NIL {
                free += 1;
                index = q.slab[index as usize].next;
            }
            proptest::prop_assert_eq!(free, q.slab.len());
        }
    }
}
