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
/// *paper's* accounting model and feeds the Table 5 "Storage" row; the
/// struct-of-arrays layout the table actually uses is cheaper (see
/// [`SOA_ENTRY_BYTES`]).
pub const ENTRY_BYTES: u64 = 24;

/// Estimated per-document overhead of a non-empty site list, in bytes.
pub const LIST_OVERHEAD_BYTES: u64 = 48;

/// Bytes per entry in the struct-of-arrays layout the table actually stores:
/// a 4-byte client id in one array and an 8-byte lease expiry in a parallel
/// array — no per-entry map node, no padding between the two.
pub const SOA_ENTRY_BYTES: u64 = 12;

/// Peak-memory accounting for one invalidation table under the
/// struct-of-arrays layout it stores. City-scale scenarios (10⁵+ clients
/// over 50+ origins) are where it binds; the trajectory bench pins the
/// deployment-wide figure as an exact row. (What the per-entry-map layout
/// it replaced would have held is frozen in EXPERIMENTS.md.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SiteListMemory {
    /// High-water mark of the struct-of-arrays layout, in bytes.
    pub peak_bytes: u64,
}

impl SiteListMemory {
    /// Sum of two tables' peaks (deployments aggregate one table per
    /// origin; each origin's peak is taken independently, so the sum is the
    /// model's upper bound on simultaneous residency).
    #[must_use]
    pub fn merged(self, other: SiteListMemory) -> SiteListMemory {
        SiteListMemory {
            peak_bytes: self.peak_bytes + other.peak_bytes,
        }
    }
}

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
    entries: u64,
    peak: SiteListMemory,
    /// No entry's lease expires before this instant, so a purge earlier than
    /// it has nothing to collect. Lowered by `register`, raised by a sweep.
    earliest_expiry: SimTime,
}

impl Default for InvalidationTable {
    fn default() -> Self {
        InvalidationTable {
            lists: FxHashMap::default(),
            entries: 0,
            peak: SiteListMemory::default(),
            earliest_expiry: SimTime::NEVER,
        }
    }
}

/// One document's site list in struct-of-arrays form: a sorted array of
/// client ids and a parallel array of lease expiries. Membership is a
/// binary search; draining preserves sorted order for free.
#[derive(Debug, Default, Clone)]
struct SiteList {
    clients: Vec<ClientId>,
    expires: Vec<SimTime>,
}

impl SiteList {
    /// Inserts or extends `client`'s lease; returns whether the entry is new.
    fn register(&mut self, client: ClientId, lease_expires: SimTime) -> bool {
        match self.clients.binary_search(&client) {
            Ok(i) => {
                if let Some(expiry) = self.expires.get_mut(i) {
                    *expiry = (*expiry).max(lease_expires);
                }
                false
            }
            Err(i) => {
                self.clients.insert(i, client);
                self.expires.insert(i, lease_expires);
                true
            }
        }
    }

    fn len(&self) -> usize {
        self.clients.len()
    }

    /// Drops entries with `expires <= now` in place; returns how many fell.
    fn purge(&mut self, now: SimTime) -> u64 {
        let before = self.clients.len();
        // Lockstep compaction: walk the expiry array alongside each
        // retain pass so both arrays keep the same surviving rows, in
        // order, without indexing.
        let mut expiry_it = self.expires.iter().copied();
        self.clients
            .retain(|_| expiry_it.next().is_some_and(|e| e > now));
        self.expires.retain(|&e| e > now);
        (before - self.clients.len()) as u64
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
        if self
            .lists
            .entry(url)
            .or_default()
            .register(client, lease_expires)
        {
            self.entries += 1;
            // `register` is the only growth operation, so the high-water
            // mark only needs refreshing here.
            let lists = self.lists.len() as u64;
            self.peak.peak_bytes = self
                .peak
                .peak_bytes
                .max(lists * LIST_OVERHEAD_BYTES + self.entries * SOA_ENTRY_BYTES);
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
        self.entries -= list.len() as u64;
        // `clients` is kept sorted, so filtering preserves the sorted order
        // the callers rely on.
        list.clients
            .into_iter()
            .zip(list.expires)
            .filter(|&(_, expires)| expires > now)
            .map(|(client, _)| client)
            .collect()
    }

    /// The number of (live or expired) entries in `url`'s list.
    pub fn site_count(&self, url: Url) -> usize {
        self.lists.get(&url).map_or(0, |l| l.len())
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
        let mut removed = 0;
        self.lists.retain(|_, list| {
            removed += list.purge(now);
            list.len() > 0
        });
        self.entries -= removed;
        // Every survivor expires after `now`.
        self.earliest_expiry = now;
        removed
    }

    /// Table-wide statistics (the paper's Table 5 "Storage" row and friends).
    /// Storage is costed with the paper's per-entry model ([`ENTRY_BYTES`]),
    /// independent of the in-memory layout, so Table 5 stays comparable
    /// across layout changes; [`InvalidationTable::memory`] reports what the
    /// layout actually costs.
    pub fn stats(&self) -> SiteListStats {
        let mut stats = SiteListStats::default();
        for list in self.lists.values() {
            let len = list.len() as u64;
            stats.total_entries += len;
            stats.tracked_documents += 1;
            stats.max_list_len = stats.max_list_len.max(len);
            stats.storage += ByteSize::from_bytes(LIST_OVERHEAD_BYTES + ENTRY_BYTES * len);
        }
        stats
    }

    /// Peak-memory accounting over this table's lifetime: the
    /// struct-of-arrays high-water mark.
    pub fn memory(&self) -> SiteListMemory {
        self.peak
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
    fn peak_memory_tracks_the_high_water_mark() {
        let mut t = InvalidationTable::new();
        assert_eq!(t.memory(), SiteListMemory::default());
        for c in 0..10 {
            t.register(url(1), client(c), SimTime::NEVER);
        }
        let at_peak = t.memory();
        assert_eq!(
            at_peak.peak_bytes,
            LIST_OVERHEAD_BYTES + 10 * SOA_ENTRY_BYTES
        );
        // Draining the list does not lower the high-water mark...
        t.take_sites(url(1), SimTime::ZERO);
        assert_eq!(t.total_entries(), 0);
        assert_eq!(t.memory(), at_peak);
        // ...and duplicate re-registration does not inflate it.
        t.register(url(1), client(0), SimTime::NEVER);
        t.register(url(1), client(0), SimTime::NEVER);
        assert_eq!(t.memory(), at_peak);
        // Merging sums the peaks.
        assert_eq!(at_peak.merged(at_peak).peak_bytes, 2 * at_peak.peak_bytes);
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
