//! An index-linked recency list: every operation is O(1).
//!
//! Entries live in a slab of slots threaded into a circular doubly linked
//! list by `u32` slot numbers; a hash index maps each key to its slot. Slot 0
//! is the list's sentinel (its `next` is the least, its `prev` the most
//! recently used entry), so linking never branches on a list end. Freed slots
//! go on a free list and are reused before the slab grows: a store at its
//! steady-state size does not allocate. Appending on every access keeps the
//! order a set sorted by a growing access stamp would, without stamp or tree.

use std::hash::Hash;
use wcc_types::FxHashMap;

#[derive(Debug)]
struct Slot<K, V> {
    /// `None` in the sentinel and in free slots.
    item: Option<(K, V)>,
    prev: u32,
    /// In a free slot: the next free slot, 0 ending the free list.
    next: u32,
}

/// A map from `K` to `V` that also keeps its entries in recency order.
#[derive(Debug)]
pub struct Lru<K, V> {
    slots: Vec<Slot<K, V>>,
    index: FxHashMap<K, u32>,
    /// First free slot, 0 for none.
    free: u32,
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
            free: 0,
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
        self.unlink(i);
        self.link_newest(i);
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
        self.link_newest(i);
        let replaced = self.index.insert(key, i)?;
        self.release(replaced)
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let i = self.index.remove(key)?;
        self.release(i)
    }

    /// The least recently used entry.
    pub fn oldest(&self) -> Option<(K, &V)> {
        self.iter().next()
    }

    /// Entries from least to most recently used.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        let mut at = self.slots.first().map_or(0, |sentinel| sentinel.next);
        std::iter::from_fn(move || {
            let slot = self.slots.get(at as usize)?;
            at = slot.next;
            slot.item.as_ref().map(|(key, value)| (*key, value))
        })
    }

    /// Every entry, mutably, in no particular order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (K, &mut V)> {
        let items = self.slots.iter_mut().filter_map(|slot| slot.item.as_mut());
        items.map(|(key, value)| (*key, value))
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

    /// Unlinks slot `i`, puts it on the free list and returns its value.
    fn release(&mut self, i: u32) -> Option<V> {
        self.unlink(i);
        let slot = self.slots.get_mut(i as usize)?;
        slot.next = std::mem::replace(&mut self.free, i);
        slot.item.take().map(|(_, value)| value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(lru: &Lru<u32, &str>) -> Vec<u32> {
        lru.iter().map(|(key, _)| key).collect()
    }

    /// Forward and backward links agree and visit exactly the indexed keys.
    fn assert_consistent(lru: &Lru<u32, &str>) {
        let forward = keys(lru);
        let mut backward = Vec::new();
        let mut at = lru.slots[0].prev;
        while at != 0 {
            backward.push(lru.slots[at as usize].item.as_ref().unwrap().0);
            at = lru.slots[at as usize].prev;
        }
        backward.reverse();
        assert_eq!(forward, backward);
        assert_eq!(forward.len(), lru.len());
        for key in forward {
            assert_eq!(lru.slots[lru.index[&key] as usize].item.unwrap().0, key);
        }
    }

    fn filled() -> Lru<u32, &'static str> {
        let mut lru = Lru::default();
        for (key, value) in [(1, "a"), (2, "b"), (3, "c")] {
            assert_eq!(lru.push(key, value), None);
        }
        lru
    }

    #[test]
    fn push_touch_and_oldest_follow_recency() {
        let mut lru = filled();
        assert_eq!(lru.oldest(), Some((1, &"a")));
        assert_eq!(lru.touch(&1).copied(), Some("a"));
        assert_eq!(keys(&lru), [2, 3, 1]);
        assert_eq!(lru.touch(&1).copied(), Some("a"), "already the newest");
        assert_eq!(keys(&lru), [2, 3, 1]);
        assert_eq!(lru.touch(&9), None);
        assert_eq!(lru.get(&2), Some(&"b"));
        *lru.get_mut(&2).unwrap() = "B";
        assert_eq!(keys(&lru), [2, 3, 1], "get and get_mut do not reorder");
        assert_eq!(lru.oldest(), Some((2, &"B")));
        assert_consistent(&lru);
    }

    #[test]
    fn removing_head_tail_middle_and_the_only_element_keeps_links_consistent() {
        for (victim, left) in [(1, [2, 3]), (3, [1, 2]), (2, [1, 3])] {
            let mut lru = filled();
            assert!(lru.remove(&victim).is_some());
            assert_eq!(lru.remove(&victim), None);
            assert_eq!(keys(&lru), left);
            assert_consistent(&lru);
        }
        let mut lru = Lru::default();
        lru.push(7, "only");
        assert_eq!(lru.remove(&7), Some("only"));
        assert!(lru.is_empty() && lru.oldest().is_none());
        assert_consistent(&lru);
        lru.push(8, "again");
        assert_eq!(keys(&lru), [8]);
        assert_consistent(&lru);
    }

    #[test]
    fn a_freed_slot_is_reused_before_the_slab_grows() {
        let mut lru = filled();
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

    #[test]
    fn pushing_a_present_key_replaces_it_and_moves_it_last() {
        let mut lru = filled();
        assert_eq!(lru.push(1, "z"), Some("a"));
        assert_eq!(keys(&lru), [2, 3, 1]);
        assert_eq!((lru.len(), lru.get(&1)), (3, Some(&"z")));
        assert_consistent(&lru);
    }

    /// A proxy cache holds one slot per copy; `Entry` keeps only what the
    /// protocols read, so the slot stays at 72 bytes.
    #[test]
    fn a_cache_slot_fits_in_72_bytes() {
        let slot = std::mem::size_of::<Slot<wcc_types::ScopedUrl, crate::Entry>>();
        assert!(slot <= 72, "a cache slot grew to {slot} bytes");
    }

    #[test]
    fn iter_mut_reaches_every_live_entry_once() {
        let mut lru = filled();
        lru.remove(&2);
        let mut seen: Vec<u32> = lru.iter_mut().map(|(key, _)| key).collect();
        seen.sort_unstable();
        assert_eq!(seen, [1, 3]);
    }
}
