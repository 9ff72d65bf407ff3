//! The accelerator's invalidation table: per-document site lists.
//!
//! "To keep track of client sites, the accelerator maintains an invalidation
//! table which records, for each URL document, a list of remote sites that
//! accessed the document since the previous invalidation of the document."
//!
//! Under the lease protocols each entry carries an expiry; the server only
//! needs to remember clients whose leases have not expired, which is what
//! bounds table growth (§6).

use wcc_types::{ByteSize, ClientId, FxHashMap, SimTime, Url};

/// Estimated memory cost of one site-list entry, in bytes. The paper reports
/// site-list storage "on the order of 20 to 30 bytes per request"; 24 bytes
/// models a client id, a lease expiry and map overhead. This constant is the
/// *paper's* accounting model and feeds the Table 5 "Storage" row; what
/// the table's struct-of-arrays layout actually holds is measured, with the
/// rest of a replay's heap, by the trajectory's `*.peak_live_bytes` rows.
pub const ENTRY_BYTES: u64 = 24;

/// Estimated per-document overhead of a non-empty site list, in bytes.
pub const LIST_OVERHEAD_BYTES: u64 = 48;

/// Aggregate statistics about the table, in the shape of the paper's
/// Table 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SiteListStats {
    /// Estimated memory consumed by all site lists.
    pub storage: ByteSize,
    /// Total entries across all lists.
    pub total_entries: u64,
    /// Number of documents with a non-empty list.
    pub tracked_documents: u64,
    /// Longest list.
    pub max_list_len: u64,
}

impl SiteListStats {
    /// Folds another table's statistics into these (the longest list wins).
    pub fn merge(&mut self, other: &SiteListStats) {
        self.storage += other.storage;
        self.total_entries += other.total_entries;
        self.tracked_documents += other.tracked_documents;
        self.max_list_len = self.max_list_len.max(other.max_list_len);
    }
}

/// The per-document site lists, with lease expiries.
///
/// # Examples
///
/// ```
/// use wcc_core::InvalidationTable;
/// use wcc_types::{ClientId, ServerId, SimTime, Url};
///
/// let mut table = InvalidationTable::new();
/// let url = Url::new(ServerId::new(0), 1);
/// let c1 = ClientId::from_raw(1);
/// let c2 = ClientId::from_raw(2);
/// table.register(url, c1, SimTime::NEVER);
/// table.register(url, c2, SimTime::from_secs(100));
///
/// // At t=200 c2's lease has expired: only c1 must be invalidated.
/// let sites = table.take_sites(url, SimTime::from_secs(200));
/// assert_eq!(sites, vec![c1]);
/// assert_eq!(table.site_count(url), 0); // list reset by the invalidation
/// ```
#[derive(Debug, Clone)]
pub struct InvalidationTable {
    lists: FxHashMap<Url, SiteList>,
    segments: Segments,
    entries: u64,
    /// No entry's lease expires before this instant, so a purge earlier than
    /// it has nothing to collect. Lowered by `register`, raised by a sweep.
    earliest_expiry: SimTime,
}

impl Default for InvalidationTable {
    fn default() -> Self {
        InvalidationTable {
            lists: FxHashMap::default(),
            segments: Segments::default(),
            entries: 0,
            earliest_expiry: SimTime::NEVER,
        }
    }
}

/// The smallest segment a site list holds: most lists stay this short
/// (Table 5's average EPA list has 2.8 entries).
const MIN_SEGMENT: usize = 4;

/// Every site list's entries in struct-of-arrays form: one array of client
/// ids and a parallel array of lease expiries. A list owns a segment of
/// them, `MIN_SEGMENT << class` entries from `start`. A segment that a list
/// outgrows, or that a drain or purge empties, goes on its class's free
/// list for the next list that needs one, so after warm-up starting or
/// growing a list takes no allocation.
#[derive(Debug, Default, Clone)]
struct Segments {
    clients: Vec<ClientId>,
    expires: Vec<SimTime>,
    /// Head of each class's free list (`NO_SEGMENT` when empty); a free
    /// segment's first client slot holds the start of the next.
    free: Vec<u32>,
}

/// The end of a free list.
const NO_SEGMENT: u32 = u32::MAX;

/// One document's site list: the first `len` entries of its segment,
/// sorted by client id, so membership is a binary search and draining
/// preserves sorted order for free.
#[derive(Debug, Clone, Copy)]
struct SiteList {
    start: u32,
    len: u32,
    class: u8,
}

impl Segments {
    /// The segment of `class` at `start`: its client ids and expiries.
    fn parts(&mut self, start: u32, class: u8) -> (&mut [ClientId], &mut [SimTime]) {
        let range = start as usize..start as usize + (MIN_SEGMENT << class);
        let clients = self.clients.get_mut(range.clone()).unwrap_or_default();
        (clients, self.expires.get_mut(range).unwrap_or_default())
    }

    /// A free segment of `class`, recycled or appended.
    fn take(&mut self, class: u8) -> u32 {
        let head = self.free.get_mut(usize::from(class));
        if let Some(head) = head.filter(|head| **head != NO_SEGMENT) {
            let start = *head;
            *head = self
                .clients
                .get(start as usize)
                .map_or(NO_SEGMENT, |&c| c.into());
            return start;
        }
        let start = self.clients.len();
        let end = start + (MIN_SEGMENT << class);
        assert!(end < NO_SEGMENT as usize, "site lists fit u32 indices");
        self.clients.resize(end, ClientId::from_raw(0));
        self.expires.resize(end, SimTime::ZERO);
        start as u32
    }

    /// Returns `list`'s segment to its class's free list.
    fn give(&mut self, list: SiteList) {
        let class = usize::from(list.class);
        if self.free.len() <= class {
            self.free.resize(class + 1, NO_SEGMENT);
        }
        let first = self.clients.get_mut(list.start as usize);
        if let (Some(head), Some(first)) = (self.free.get_mut(class), first) {
            *first = ClientId::from_raw(*head);
            *head = list.start;
        }
    }

    /// Inserts or extends `client`'s lease in `list`, moving it to a
    /// segment of the next class when it is full; returns whether the entry
    /// is new.
    fn register(&mut self, list: &mut SiteList, client: ClientId, lease_expires: SimTime) -> bool {
        let len = list.len as usize;
        let (clients, expires) = self.parts(list.start, list.class);
        let full = len == clients.len();
        let i = match clients
            .get(..len)
            .unwrap_or_default()
            .binary_search(&client)
        {
            Ok(i) => {
                if let Some(expiry) = expires.get_mut(i) {
                    *expiry = (*expiry).max(lease_expires);
                }
                return false;
            }
            Err(i) => i,
        };
        if full {
            let start = self.take(list.class + 1);
            let from = list.start as usize..list.start as usize + len;
            let to = start as usize;
            self.clients.copy_within(from.clone(), to);
            self.expires.copy_within(from, to);
            self.give(*list);
            (list.start, list.class) = (start, list.class + 1);
        }
        let (clients, expires) = self.parts(list.start, list.class);
        // Shift the tail up one, the free slot past it landing at `i`.
        #[expect(clippy::indexing_slicing, reason = "`i..=len` is never empty")]
        if let (Some(c), Some(e)) = (clients.get_mut(i..=len), expires.get_mut(i..=len)) {
            c.rotate_right(1);
            e.rotate_right(1);
            (c[0], e[0]) = (client, lease_expires);
        }
        list.len += 1;
        true
    }

    /// Drops `list`'s entries with `expires <= now` in place, keeping the
    /// rest in order; returns how many fell.
    fn purge(&mut self, list: &mut SiteList, now: SimTime) -> u64 {
        let len = list.len as usize;
        let (clients, expires) = self.parts(list.start, list.class);
        let mut kept = 0;
        for i in 0..len {
            if expires.get(i).is_some_and(|&e| e > now) {
                clients.swap(kept, i);
                expires.swap(kept, i);
                kept += 1;
            }
        }
        list.len = kept as u32;
        (len - kept) as u64
    }
}

impl InvalidationTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        InvalidationTable::default()
    }

    /// Records that `client` fetched `url` and is promised invalidations
    /// until `lease_expires`. Re-registering extends the existing promise
    /// (the later expiry wins).
    pub fn register(&mut self, url: Url, client: ClientId, lease_expires: SimTime) {
        self.earliest_expiry = self.earliest_expiry.min(lease_expires);
        let segments = &mut self.segments;
        let list = self.lists.entry(url).or_insert_with(|| SiteList {
            start: segments.take(0),
            len: 0,
            class: 0,
        });
        if segments.register(list, client, lease_expires) {
            self.entries += 1;
        }
    }

    /// Drains `url`'s site list (the modification just invalidated it) and
    /// returns the clients whose leases are still live at `now`, sorted for
    /// determinism. Clients with expired leases are simply dropped — they
    /// promised to revalidate on their own.
    pub fn take_sites(&mut self, url: Url, now: SimTime) -> Vec<ClientId> {
        let Some(list) = self.lists.remove(&url) else {
            return Vec::new();
        };
        self.entries -= u64::from(list.len);
        // `clients` is kept sorted, so filtering preserves the sorted order
        // the callers rely on.
        let (clients, expires) = self.segments.parts(list.start, list.class);
        let live = clients
            .iter()
            .zip(expires.iter())
            .take(list.len as usize)
            .filter(|&(_, &expires)| expires > now)
            .map(|(&client, _)| client)
            .collect();
        self.segments.give(list);
        live
    }

    /// The number of (live or expired) entries in `url`'s list.
    pub fn site_count(&self, url: Url) -> usize {
        self.lists.get(&url).map_or(0, |l| l.len as usize)
    }

    /// Total entries across all lists.
    pub fn total_entries(&self) -> u64 {
        self.entries
    }

    /// Drops every entry whose lease expired before `now`. Returns how many
    /// entries were collected. (The lease-augmented server runs this
    /// periodically; with infinite leases it never looks at a list.)
    pub fn purge_expired(&mut self, now: SimTime) -> u64 {
        if now < self.earliest_expiry {
            return 0;
        }
        let (mut removed, segments) = (0, &mut self.segments);
        self.lists.retain(|_, list| {
            removed += segments.purge(list, now);
            if list.len == 0 {
                segments.give(*list);
            }
            list.len > 0
        });
        self.entries -= removed;
        // Every survivor expires after `now`.
        self.earliest_expiry = now;
        removed
    }

    /// Table-wide statistics (the paper's Table 5 "Storage" row and friends).
    /// Storage is costed with the paper's per-entry model ([`ENTRY_BYTES`]),
    /// independent of the in-memory layout, so Table 5 stays comparable
    /// across layout changes; what the layout actually holds is measured by
    /// the trajectory's `*.peak_live_bytes` rows.
    pub fn stats(&self) -> SiteListStats {
        let mut stats = SiteListStats::default();
        // xtask-lint: allow(map-iteration-order): the body only sums and maxes
        for list in self.lists.values() {
            let len = u64::from(list.len);
            stats.total_entries += len;
            stats.tracked_documents += 1;
            stats.max_list_len = stats.max_list_len.max(len);
            stats.storage += ByteSize::from_bytes(LIST_OVERHEAD_BYTES + ENTRY_BYTES * len);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcc_types::ServerId;

    fn url(doc: u32) -> Url {
        Url::new(ServerId::new(0), doc)
    }

    fn client(raw: u32) -> ClientId {
        ClientId::from_raw(raw)
    }

    #[test]
    fn register_take_cycle() {
        let mut t = InvalidationTable::new();
        t.register(url(1), client(5), SimTime::NEVER);
        t.register(url(1), client(3), SimTime::NEVER);
        t.register(url(2), client(5), SimTime::NEVER);
        assert_eq!(t.site_count(url(1)), 2);
        assert_eq!(t.total_entries(), 3);

        let sites = t.take_sites(url(1), SimTime::from_secs(10));
        assert_eq!(sites, vec![client(3), client(5)], "sorted for determinism");
        assert_eq!(t.site_count(url(1)), 0);
        assert_eq!(t.site_count(url(2)), 1, "other documents untouched");
        assert!(t.take_sites(url(9), SimTime::ZERO).is_empty());
    }

    #[test]
    fn duplicate_registration_keeps_one_entry_latest_lease() {
        let mut t = InvalidationTable::new();
        t.register(url(1), client(1), SimTime::from_secs(100));
        t.register(url(1), client(1), SimTime::from_secs(500));
        assert_eq!(t.site_count(url(1)), 1);
        // Live at t=200 because the later lease won.
        assert_eq!(
            t.take_sites(url(1), SimTime::from_secs(200)),
            vec![client(1)]
        );

        // Re-registering with an *earlier* expiry must not shorten it.
        t.register(url(1), client(1), SimTime::from_secs(500));
        t.register(url(1), client(1), SimTime::from_secs(100));
        assert_eq!(
            t.take_sites(url(1), SimTime::from_secs(200)),
            vec![client(1)]
        );
    }

    #[test]
    fn expired_leases_are_not_invalidated() {
        let mut t = InvalidationTable::new();
        t.register(url(1), client(1), SimTime::from_secs(50));
        t.register(url(1), client(2), SimTime::from_secs(150));
        let sites = t.take_sites(url(1), SimTime::from_secs(100));
        assert_eq!(sites, vec![client(2)]);
    }

    #[test]
    fn purge_collects_only_expired() {
        let mut t = InvalidationTable::new();
        for c in 0..10 {
            let expiry = SimTime::from_secs(if c % 2 == 0 { 10 } else { 1_000 });
            t.register(url(c), client(c), expiry);
        }
        let removed = t.purge_expired(SimTime::from_secs(100));
        assert_eq!(removed, 5);
        assert_eq!(t.total_entries(), 5);
        assert_eq!(t.purge_expired(SimTime::from_secs(100)), 0);
    }

    #[test]
    fn purge_early_out_tracks_the_earliest_lease() {
        let mut t = InvalidationTable::new();
        t.register(url(1), client(1), SimTime::NEVER);
        assert_eq!(t.purge_expired(SimTime::from_secs(1_000_000)), 0);
        // A finite lease lowers the bound; a purge at exactly its expiry
        // collects it.
        t.register(url(1), client(2), SimTime::from_secs(50));
        assert_eq!(t.purge_expired(SimTime::from_secs(49)), 0);
        assert_eq!(t.purge_expired(SimTime::from_secs(50)), 1);
        // After a sweep, a lease registered behind the sweep time still
        // falls at the next purge.
        t.register(url(2), client(3), SimTime::from_secs(20));
        assert_eq!(t.purge_expired(SimTime::from_secs(50)), 1);
        assert_eq!(t.total_entries(), 1);
    }

    #[test]
    fn storage_accounting_matches_model() {
        let mut t = InvalidationTable::new();
        assert_eq!(t.stats().storage, ByteSize::ZERO);
        t.register(url(1), client(1), SimTime::NEVER);
        t.register(url(1), client(2), SimTime::NEVER);
        t.register(url(2), client(1), SimTime::NEVER);
        let s = t.stats();
        assert_eq!(s.tracked_documents, 2);
        assert_eq!(s.total_entries, 3);
        assert_eq!(s.max_list_len, 2);
        assert_eq!(
            s.storage,
            ByteSize::from_bytes(2 * LIST_OVERHEAD_BYTES + 3 * ENTRY_BYTES)
        );
    }

    #[test]
    fn take_sites_returns_sorted_unique_clients_from_soa_layout() {
        let mut t = InvalidationTable::new();
        // Register in descending order; the sorted-array invariant must
        // still yield ascending output.
        for c in (0..20).rev() {
            t.register(url(3), client(c * 7 % 20), SimTime::NEVER);
        }
        let sites = t.take_sites(url(3), SimTime::ZERO);
        let expect: Vec<ClientId> = (0..20).map(client).collect();
        assert_eq!(sites, expect);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use wcc_types::ServerId;

    proptest! {
        /// take_sites never returns expired leases and always empties the
        /// list; total_entries always equals the sum over documents.
        #[test]
        fn lease_and_accounting_invariants(
            regs in proptest::collection::vec((0u32..5, 0u32..8, 0u64..200), 1..100),
            take_at in 0u64..200,
        ) {
            let mut t = InvalidationTable::new();
            for (doc, client, expiry) in &regs {
                t.register(
                    Url::new(ServerId::new(0), *doc),
                    ClientId::from_raw(*client),
                    SimTime::from_secs(*expiry),
                );
            }
            let sum: u64 = (0u32..5)
                .map(|d| t.site_count(Url::new(ServerId::new(0), d)) as u64)
                .sum();
            prop_assert_eq!(t.total_entries(), sum);

            let now = SimTime::from_secs(take_at);
            let url0 = Url::new(ServerId::new(0), 0);
            let live = t.take_sites(url0, now);
            // Sorted and unique.
            let mut sorted = live.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(&sorted, &live);
            prop_assert_eq!(t.site_count(url0), 0);
            // Each returned client had at least one registration for doc 0
            // with expiry after `now`.
            for c in live {
                prop_assert!(regs.iter().any(|(d, cl, e)|
                    *d == 0 && ClientId::from_raw(*cl) == c && SimTime::from_secs(*e) > now));
            }
        }

        /// Conservation: across any op sequence the table tracks exactly the
        /// registered-and-not-yet-removed entries — every entry that leaves
        /// does so through `take_sites` or `purge_expired`,
        /// and the live subset returned by `take_sites` matches a shadow map.
        #[test]
        fn entries_are_conserved_across_op_sequences(
            ops in proptest::collection::vec((0u8..3, 0u32..4, 0u32..6, 0u64..100), 1..120),
        ) {
            use std::collections::HashMap;
            let mut t = InvalidationTable::new();
            // Shadow model: (doc, client) -> lease expiry (max wins).
            let mut shadow: HashMap<(u32, u32), SimTime> = HashMap::new();
            for (op, doc, cl, tick) in ops {
                let u = Url::new(ServerId::new(0), doc);
                let c = ClientId::from_raw(cl);
                let at = SimTime::from_secs(tick);
                match op {
                    0 => {
                        t.register(u, c, at);
                        let e = shadow.entry((doc, cl)).or_insert(at);
                        *e = (*e).max(at);
                    }
                    1 => {
                        let taken = t.take_sites(u, at);
                        let mut expect: Vec<ClientId> = shadow
                            .iter()
                            .filter(|(&(d, _), &exp)| d == doc && exp > at)
                            .map(|(&(_, raw), _)| ClientId::from_raw(raw))
                            .collect();
                        expect.sort_unstable();
                        prop_assert_eq!(taken, expect);
                        shadow.retain(|&(d, _), _| d != doc);
                    }
                    _ => {
                        let purged = t.purge_expired(at);
                        let before = shadow.len();
                        shadow.retain(|_, &mut exp| exp > at);
                        prop_assert_eq!(purged, (before - shadow.len()) as u64);
                    }
                }
                prop_assert_eq!(t.total_entries(), shadow.len() as u64);
                prop_assert_eq!(t.stats().total_entries, shadow.len() as u64);
            }
        }
    }
}
