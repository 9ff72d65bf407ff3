//! A recency map that keeps its order only once it is asked for it.
//!
//! Entries live in a slab of slots; a hash index maps each key to its slot.
//! Until the first [`Lru::oldest`] (or [`Lru::order`]) nothing is linked:
//! each access writes a stamp from a growing clock into the slot's two link
//! words, and freed slots go on a free list. The first call sorts the live
//! slots by stamp, in place, re-points the index and threads them into a
//! circular doubly linked list by `u32` slot numbers, and from then on every
//! access relinks. Stamps are unique and only grow, so the sorted order is
//! the one the list would have held had it been kept from the start. Slot 0
//! is the list's sentinel (its `next` is the least, its `prev` the most
//! recently used entry), so linking never branches on a list end. Every
//! operation but that one-time sort is O(1), and freed slots are reused
//! before the slab grows: a store at its steady-state size does not
//! allocate.

use std::hash::Hash;
use wcc_types::FxHashMap;

#[derive(Debug)]
struct Slot<K, V> {
    /// `None` in the sentinel and in free slots.
    item: Option<(K, V)>,
    /// In a live slot before the order is built: the access stamp's high
    /// half.
    prev: u32,
    /// In a free slot: the next free slot, 0 ending the free list. In a live
    /// slot before the order is built: the access stamp's low half.
    next: u32,
}

impl<K, V> Slot<K, V> {
    fn stamp(&self) -> u64 {
        u64::from(self.prev) << 32 | u64::from(self.next)
    }
}

/// A map from `K` to `V` that also keeps its entries in recency order.
///
/// The order is built at the first [`Lru::oldest`] or [`Lru::order`]; until
/// then an access only stamps its slot.
#[derive(Debug)]
pub struct Lru<K, V> {
    slots: Vec<Slot<K, V>>,
    index: FxHashMap<K, u32>,
    /// Next access stamp; read only until the order is built.
    clock: u64,
    /// First free slot, 0 for none.
    free: u32,
    /// Whether the slots are threaded into the recency list.
    ordered: bool,
}

impl<K, V> Default for Lru<K, V> {
    fn default() -> Self {
        let sentinel = Slot {
            item: None,
            prev: 0,
            next: 0,
        };
        Lru {
            slots: vec![sentinel],
            index: FxHashMap::default(),
            clock: 0,
            free: 0,
            ordered: false,
        }
    }
}

impl<K: Copy + Eq + Hash, V> Lru<K, V> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Returns `true` if there are no entries.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether the recency list has been built.
    pub fn is_ordered(&self) -> bool {
        self.ordered
    }

    /// Looks up `key` without touching recency.
    pub fn get(&self, key: &K) -> Option<&V> {
        let slot = self.slots.get(*self.index.get(key)? as usize)?;
        slot.item.as_ref().map(|(_, value)| value)
    }

    /// Mutable [`Lru::get`].
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let slot = self.slots.get_mut(*self.index.get(key)? as usize)?;
        slot.item.as_mut().map(|(_, value)| value)
    }

    /// Looks up `key` and makes it the most recently used entry.
    pub fn touch(&mut self, key: &K) -> Option<&mut V> {
        let i = *self.index.get(key)?;
        if self.ordered {
            self.unlink(i);
            self.link_newest(i);
        } else {
            self.stamp(i);
        }
        let slot = self.slots.get_mut(i as usize)?;
        slot.item.as_mut().map(|(_, value)| value)
    }

    /// Inserts `key` as the most recently used entry, returning the value it
    /// replaces, if any.
    pub fn push(&mut self, key: K, value: V) -> Option<V> {
        let item = Some((key, value));
        let i = match self.free {
            0 => {
                assert!(self.slots.len() < u32::MAX as usize, "slab outgrew u32");
                self.slots.push(Slot {
                    item,
                    prev: 0,
                    next: 0,
                });
                (self.slots.len() - 1) as u32
            }
            i => {
                let slot = self.slots.get_mut(i as usize)?;
                self.free = slot.next;
                slot.item = item;
                i
            }
        };
        if self.ordered {
            self.link_newest(i);
        } else {
            self.stamp(i);
        }
        let replaced = self.index.insert(key, i)?;
        self.release(replaced)
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let i = self.index.remove(key)?;
        self.release(i)
    }

    /// The least recently used entry. Builds the order if it is not built
    /// yet.
    pub fn oldest(&mut self) -> Option<(K, &V)> {
        self.order();
        let first = self.slots.first().map_or(0, |sentinel| sentinel.next);
        let slot = self.slots.get(first as usize)?;
        slot.item.as_ref().map(|(key, value)| (*key, value))
    }

    /// Entries from least to most recently used. Before the order is built
    /// this collects and sorts the live slots' numbers, so it is for audits
    /// and tests, not for a hot path.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        let unsorted = if self.ordered {
            &[][..]
        } else {
            self.slots.as_slice()
        };
        let live = unsorted.iter().zip(0u32..);
        let live = live.filter(|(slot, _)| slot.item.is_some());
        let mut by_stamp: Vec<(u64, u32)> = live.map(|(slot, i)| (slot.stamp(), i)).collect();
        by_stamp.sort_unstable();
        let mut by_stamp = by_stamp.into_iter().map(|(_, i)| i);
        let mut at = self.slots.first().map_or(0, |sentinel| sentinel.next);
        std::iter::from_fn(move || {
            let i = if self.ordered { at } else { by_stamp.next()? };
            let slot = self.slots.get(i as usize)?;
            at = slot.next;
            slot.item.as_ref().map(|(key, value)| (*key, value))
        })
    }

    /// Every entry in slab order, which is no particular order.
    pub fn iter_unordered(&self) -> impl Iterator<Item = (K, &V)> {
        let items = self.slots.iter().filter_map(|slot| slot.item.as_ref());
        items.map(|(key, value)| (*key, value))
    }

    /// Every entry, mutably, in no particular order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (K, &mut V)> {
        let items = self.slots.iter_mut().filter_map(|slot| slot.item.as_mut());
        items.map(|(key, value)| (*key, value))
    }

    /// Builds the recency list, once: sorts the slab past the sentinel in
    /// place (live slots by stamp, then the free ones), re-points the index,
    /// links the live slots in that order and chains the rest into the free
    /// list. Returns `true` if this call built it.
    pub fn order(&mut self) -> bool {
        if self.ordered {
            return false;
        }
        self.ordered = true;
        let Some(rest) = self.slots.get_mut(1..) else {
            return true;
        };
        rest.sort_unstable_by_key(|slot| (slot.item.is_none(), slot.stamp()));
        let live = self.index.len() as u32;
        let end = self.slots.len() as u32;
        for (slot, i) in self.slots.iter_mut().zip(0u32..) {
            if let Some((key, _)) = &slot.item {
                if let Some(at) = self.index.get_mut(key) {
                    *at = i;
                }
            }
            (slot.prev, slot.next) = match i {
                // The sentinel: the newest before it, the oldest after it.
                0 => (live, live.min(1)),
                _ if i < live => (i - 1, i + 1),
                _ if i == live => (i - 1, 0),
                // A free slot: the next free one.
                _ => (0, if i + 1 < end { i + 1 } else { 0 }),
            };
        }
        self.free = if live + 1 < end { live + 1 } else { 0 };
        true
    }

    /// Gives slot `i` the next access stamp (before the order is built).
    fn stamp(&mut self, i: u32) {
        if let Some(slot) = self.slots.get_mut(i as usize) {
            (slot.prev, slot.next) = ((self.clock >> 32) as u32, self.clock as u32);
            self.clock += 1;
        }
    }

    /// Makes `before` and `after` neighbours.
    fn join(&mut self, before: u32, after: u32) {
        if let Some(slot) = self.slots.get_mut(before as usize) {
            slot.next = after;
        }
        if let Some(slot) = self.slots.get_mut(after as usize) {
            slot.prev = before;
        }
    }

    /// Takes slot `i` out of the list (its own links are left stale).
    fn unlink(&mut self, i: u32) {
        if let Some(&Slot { prev, next, .. }) = self.slots.get(i as usize) {
            self.join(prev, next);
        }
    }

    /// Appends the unlinked slot `i` at the most recently used end.
    fn link_newest(&mut self, i: u32) {
        let newest = self.slots.first().map_or(0, |sentinel| sentinel.prev);
        self.join(newest, i);
        self.join(i, 0);
    }

    /// Unlinks slot `i` (once the order is built), puts it on the free list
    /// and returns its value.
    fn release(&mut self, i: u32) -> Option<V> {
        if self.ordered {
            self.unlink(i);
        }
        let slot = self.slots.get_mut(i as usize)?;
        slot.next = std::mem::replace(&mut self.free, i);
        slot.item.take().map(|(_, value)| value)
    }
}

#[cfg(test)]
#[allow(
    clippy::iter_over_hash_type,
    reason = "the consistency check visits every key; order is irrelevant"
)]
mod tests {
    use super::*;

    fn keys(lru: &Lru<u32, &str>) -> Vec<u32> {
        lru.iter().map(|(key, _)| key).collect()
    }

    /// The index and the slab agree and the free list holds exactly the
    /// empty slots. Unordered: the live slots' stamps are distinct and
    /// behind the clock. Ordered: forward and backward links agree and
    /// visit exactly the indexed keys.
    fn assert_consistent(lru: &Lru<u32, &str>) {
        let live: Vec<usize> = (1..lru.slots.len())
            .filter(|&i| lru.slots[i].item.is_some())
            .collect();
        assert_eq!(live.len(), lru.len());
        for (key, &i) in &lru.index {
            assert_eq!(lru.slots[i as usize].item.unwrap().0, *key);
        }
        let mut free = Vec::new();
        let mut at = lru.free;
        while at != 0 && free.len() < lru.slots.len() {
            free.push(at as usize);
            at = lru.slots[at as usize].next;
        }
        free.sort_unstable();
        let empty: Vec<usize> = (1..lru.slots.len())
            .filter(|&i| lru.slots[i].item.is_none())
            .collect();
        assert_eq!(free, empty, "the free list is exactly the empty slots");
        if !lru.ordered {
            let mut stamps: Vec<u64> = live.iter().map(|&i| lru.slots[i].stamp()).collect();
            stamps.sort_unstable();
            stamps.dedup();
            assert_eq!(stamps.len(), live.len(), "stamps are distinct");
            assert!(stamps.iter().all(|&stamp| stamp < lru.clock));
            return;
        }
        let mut forward = Vec::new();
        let mut at = lru.slots[0].next;
        while at != 0 {
            forward.push(lru.slots[at as usize].item.as_ref().unwrap().0);
            at = lru.slots[at as usize].next;
        }
        assert_eq!(forward, keys(lru));
        let mut backward = Vec::new();
        let mut at = lru.slots[0].prev;
        while at != 0 {
            backward.push(lru.slots[at as usize].item.as_ref().unwrap().0);
            at = lru.slots[at as usize].prev;
        }
        backward.reverse();
        assert_eq!(forward, backward);
        assert_eq!(forward.len(), lru.len());
    }

    /// Keys 1, 2, 3 pushed in that order: unordered, then ordered.
    fn filled_both() -> [Lru<u32, &'static str>; 2] {
        [false, true].map(|ordered| {
            let mut lru = Lru::default();
            for (key, value) in [(1, "a"), (2, "b"), (3, "c")] {
                assert_eq!(lru.push(key, value), None);
            }
            if ordered {
                assert!(lru.order());
                assert!(!lru.order(), "the order is built once");
            }
            assert_eq!(lru.is_ordered(), ordered);
            assert_consistent(&lru);
            lru
        })
    }

    #[test]
    fn push_touch_and_oldest_follow_recency() {
        for mut lru in filled_both() {
            assert_eq!(lru.touch(&1).copied(), Some("a"));
            assert_eq!(keys(&lru), [2, 3, 1]);
            assert_eq!(lru.touch(&1).copied(), Some("a"), "already the newest");
            assert_eq!(keys(&lru), [2, 3, 1]);
            assert_eq!(lru.touch(&9), None);
            assert_eq!(lru.get(&2), Some(&"b"));
            *lru.get_mut(&2).unwrap() = "B";
            assert_eq!(keys(&lru), [2, 3, 1], "get and get_mut do not reorder");
            assert_consistent(&lru);
            assert_eq!(lru.oldest(), Some((2, &"B")));
            assert!(lru.is_ordered(), "oldest builds the order");
            assert_eq!(keys(&lru), [2, 3, 1]);
            assert_consistent(&lru);
        }
    }

    #[test]
    fn removing_head_tail_middle_and_the_only_element_keeps_links_consistent() {
        for (victim, left) in [(1, [2, 3]), (3, [1, 2]), (2, [1, 3])] {
            for mut lru in filled_both() {
                assert!(lru.remove(&victim).is_some());
                assert_eq!(lru.remove(&victim), None);
                assert_eq!(keys(&lru), left);
                assert_consistent(&lru);
                lru.order();
                assert_eq!(keys(&lru), left);
                assert_consistent(&lru);
            }
        }
        for ordered in [false, true] {
            let mut lru = Lru::default();
            if ordered {
                lru.order();
            }
            lru.push(7, "only");
            assert_eq!(lru.remove(&7), Some("only"));
            assert!(lru.is_empty());
            assert_consistent(&lru);
            assert!(lru.oldest().is_none());
            assert_consistent(&lru);
            lru.push(8, "again");
            assert_eq!(keys(&lru), [8]);
            assert_consistent(&lru);
        }
    }

    #[test]
    fn a_freed_slot_is_reused_before_the_slab_grows() {
        for mut lru in filled_both() {
            let slab = lru.slots.len();
            let freed = [lru.index[&2], lru.index[&1]];
            lru.remove(&2);
            lru.remove(&1);
            lru.push(4, "d");
            lru.push(5, "e");
            // Last freed, first reused.
            assert_eq!([lru.index[&5], lru.index[&4]], freed);
            assert_eq!(lru.slots.len(), slab);
            assert_eq!(keys(&lru), [3, 4, 5]);
            assert_consistent(&lru);
            lru.push(6, "f");
            assert_eq!(lru.slots.len(), slab + 1);
            assert_consistent(&lru);
        }
    }

    #[test]
    fn ordering_sorts_by_stamp_keeps_the_slab_and_chains_the_free_slots() {
        let mut lru = Lru::default();
        for key in 1..=6 {
            lru.push(key, "v");
        }
        for key in [4, 1, 5] {
            lru.touch(&key);
        }
        lru.remove(&2);
        lru.remove(&5);
        let slab = lru.slots.len();
        assert_eq!(keys(&lru), [3, 6, 4, 1]);
        assert!(lru.order());
        assert_eq!(keys(&lru), [3, 6, 4, 1]);
        assert_eq!(lru.slots.len(), slab, "ordering allocates no slot");
        assert_consistent(&lru);
        // Both freed slots are reused before the slab grows.
        lru.push(7, "v");
        lru.push(8, "v");
        assert_eq!(lru.slots.len(), slab);
        lru.touch(&3);
        assert_eq!(keys(&lru), [6, 4, 1, 7, 8, 3]);
        assert_consistent(&lru);
    }

    #[test]
    fn pushing_a_present_key_replaces_it_and_moves_it_last() {
        for mut lru in filled_both() {
            assert_eq!(lru.push(1, "z"), Some("a"));
            assert_eq!(keys(&lru), [2, 3, 1]);
            assert_eq!((lru.len(), lru.get(&1)), (3, Some(&"z")));
            assert_consistent(&lru);
        }
    }

    /// A proxy cache holds one slot per copy; `Entry` keeps only what the
    /// protocols read, and the access stamp shares the link words, so the
    /// slot stays at 72 bytes.
    #[test]
    fn a_cache_slot_fits_in_72_bytes() {
        let slot = std::mem::size_of::<Slot<wcc_types::ScopedUrl, crate::Entry>>();
        assert!(slot <= 72, "a cache slot grew to {slot} bytes");
    }

    #[test]
    fn iter_mut_and_iter_unordered_reach_every_live_entry_once() {
        for mut lru in filled_both() {
            lru.remove(&2);
            let mut seen: Vec<u32> = lru.iter_mut().map(|(key, _)| key).collect();
            seen.sort_unstable();
            assert_eq!(seen, [1, 3]);
            let mut seen: Vec<u32> = lru.iter_unordered().map(|(key, _)| key).collect();
            seen.sort_unstable();
            assert_eq!(seen, [1, 3]);
        }
    }
}
