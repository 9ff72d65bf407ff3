//! A generational slab arena for in-flight engine events.
//!
//! The engine schedules hundreds of thousands of [`crate::sim::EngineEvent`]s
//! per replay, each alive only from its scheduling site to its dispatch a few
//! hundred simulated microseconds later. Storing the events themselves in the
//! queue makes every ring-bucket move a memcpy of the full payload (the HTTP
//! simulator's `Message` is 120 bytes, an `EngineEvent<Message>` 128 and its
//! arena slot 136); storing [`Handle`]s keeps the queue entries at three
//! words and parks the payloads in slots that are recycled in steady state —
//! after warm-up, scheduling a `Deliver` touches no global allocator at all.
//! A delivery that has to wait for a busy node keeps its slot: the engine
//! re-keys its handle instead of taking the event out.
//!
//! Handles are *generational*: each slot carries a generation counter bumped
//! on every free, so a stale handle (a bug) is caught by an assert instead of
//! silently aliasing a recycled slot.

/// A handle to a value parked in an [`Arena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Handle {
    index: u32,
    generation: u32,
}

/// One arena slot: the parked value plus the generation that validates
/// handles pointing at it.
#[derive(Debug)]
struct Slot<T> {
    generation: u32,
    value: Option<T>,
}

/// Allocation counters, exposed to the trajectory bench's `alloc_stats`
/// block. Queried through a side accessor — deliberately *not* part of any
/// `Debug`-compared report: it describes how the engine ran a replay, not
/// what the replay did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ArenaStats {
    /// Total allocations served (fresh slots + recycled slots).
    pub allocated: u64,
    /// Of those, allocations served from the free list (no slab growth).
    pub recycled: u64,
    /// Values currently parked.
    pub live: u64,
    /// High-water mark of `live` — the slab never grows beyond this many
    /// slots, so it is also the arena's peak footprint in slots.
    pub peak_live: u64,
}

impl ArenaStats {
    /// Fraction of allocations served without touching the global
    /// allocator, in percent (100.0 when nothing was allocated).
    pub fn recycled_pct(&self) -> f64 {
        if self.allocated == 0 {
            100.0
        } else {
            self.recycled as f64 / self.allocated as f64 * 100.0
        }
    }

    /// Sums another arena's counters into this one (a caller totalling
    /// several replays): totals add, the peak takes the max.
    pub fn absorb(&mut self, other: ArenaStats) {
        self.allocated += other.allocated;
        self.recycled += other.recycled;
        self.live += other.live;
        self.peak_live = self.peak_live.max(other.peak_live);
    }
}

/// A slab allocator with generational slot reuse. Std-only, like the
/// vendored rand/proptest shims — no external dependency.
#[derive(Debug)]
pub struct Arena<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    stats: ArenaStats,
}

impl<T> Arena<T> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Arena {
            // Construction-time; both grow to a high-water mark and stay.
            slots: Vec::new(), // xtask-lint: allow(hot-loop-alloc)
            free: Vec::new(),  // xtask-lint: allow(hot-loop-alloc)
            stats: ArenaStats::default(),
        }
    }

    /// Parks `value`, preferring a recycled slot over slab growth.
    #[inline]
    pub fn alloc(&mut self, value: T) -> Handle {
        self.stats.allocated += 1;
        self.stats.live += 1;
        self.stats.peak_live = self.stats.peak_live.max(self.stats.live);
        if let Some(index) = self.free.pop() {
            self.stats.recycled += 1;
            let slot = &mut self.slots[index as usize];
            debug_assert!(slot.value.is_none(), "free-list slot still occupied");
            slot.value = Some(value);
            return Handle {
                index,
                generation: slot.generation,
            };
        }
        let index = u32::try_from(self.slots.len()).expect("arena slot overflow");
        self.slots.push(Slot {
            generation: 0,
            value: Some(value),
        });
        Handle {
            index,
            generation: 0,
        }
    }

    /// Takes the value out of `handle`'s slot, recycling the slot.
    ///
    /// # Panics
    ///
    /// Panics on a stale or double-freed handle (generation mismatch).
    #[inline]
    pub fn take(&mut self, handle: Handle) -> T {
        let slot = &mut self.slots[handle.index as usize];
        assert_eq!(slot.generation, handle.generation, "stale arena handle");
        let value = slot.value.take().expect("arena slot already freed");
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(handle.index);
        self.stats.live -= 1;
        value
    }

    /// The value parked under `handle`.
    ///
    /// # Panics
    ///
    /// Panics on a stale or freed handle (generation mismatch).
    #[inline]
    pub fn get(&self, handle: Handle) -> &T {
        let slot = &self.slots[handle.index as usize];
        assert_eq!(slot.generation, handle.generation, "stale arena handle");
        slot.value.as_ref().expect("arena slot already freed")
    }

    /// Mutable access to the value parked under `handle`.
    ///
    /// # Panics
    ///
    /// Panics on a stale or freed handle (generation mismatch).
    #[inline]
    pub fn get_mut(&mut self, handle: Handle) -> &mut T {
        let slot = &mut self.slots[handle.index as usize];
        assert_eq!(slot.generation, handle.generation, "stale arena handle");
        slot.value.as_mut().expect("arena slot already freed")
    }

    /// The values currently parked, in slot order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().filter_map(|slot| slot.value.as_ref())
    }

    /// The number of values currently parked.
    pub fn len(&self) -> usize {
        self.stats.live as usize
    }

    /// Returns `true` if nothing is parked.
    pub fn is_empty(&self) -> bool {
        self.stats.live == 0
    }

    /// The allocation counters.
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Arena::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_take_round_trips() {
        let mut arena = Arena::new();
        let a = arena.alloc("a");
        let b = arena.alloc("b");
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.take(a), "a");
        assert_eq!(arena.take(b), "b");
        assert!(arena.is_empty());
    }

    #[test]
    fn slots_recycle_in_steady_state() {
        let mut arena = Arena::new();
        // Warm-up: peak of 8 live values.
        let warm: Vec<Handle> = (0..8).map(|i| arena.alloc(i)).collect();
        for h in warm {
            arena.take(h);
        }
        // Steady state: every alloc is served from the free list.
        for i in 0..1000 {
            let h = arena.alloc(i);
            assert_eq!(arena.take(h), i);
        }
        let stats = arena.stats();
        assert_eq!(stats.allocated, 1008);
        assert_eq!(stats.recycled, 1000);
        assert_eq!(stats.peak_live, 8);
        assert!(stats.recycled_pct() > 99.0);
    }

    #[test]
    #[should_panic(expected = "stale arena handle")]
    fn stale_handle_is_caught() {
        let mut arena = Arena::new();
        let h = arena.alloc(1u32);
        arena.take(h);
        let _ = arena.alloc(2u32); // recycles the slot, bumping the generation
        arena.take(h);
    }

    #[test]
    fn absorb_sums_totals_and_maxes_peak() {
        let mut a = Arena::new();
        let ha = a.alloc(1u32);
        a.take(ha);
        let mut b = Arena::new();
        let h1 = b.alloc(2u32);
        let _h2 = b.alloc(3u32);
        b.take(h1);
        let mut s = a.stats();
        s.absorb(b.stats());
        assert_eq!(s.allocated, 3);
        assert_eq!(s.peak_live, 2);
        assert_eq!(s.live, 1);
    }
}
