//! Adaptive lease economics: per-document lease durations derived from a
//! read/write cost objective.
//!
//! The paper's §6 picks one lease length for every document. The lease
//! literature that followed (Duvvuri's adaptive leases; Ling & Mi's
//! cost-optimal analysis) observes that the best duration depends on how a
//! document is used: every *read* under an expired lease costs a renewal
//! round trip, while every *write* costs one invalidation per live
//! leaseholder. Balancing the two per-document gives the classic
//! square-root rule — the optimal lease grows with `sqrt(reads / writes)`:
//!
//! * read-mostly documents earn long leases (renewals dominate, so stretch
//!   the promise);
//! * write-hot documents get short leases (fan-out dominates, so forget
//!   readers quickly).
//!
//! [`LeaseEconomics`] tracks per-URL read/write counters and evaluates
//!
//! ```text
//! lease(url) = clamp(base × sqrt((reads + 1) / (writes + 1)), floor, cap)
//! ```
//!
//! entirely in integer arithmetic (a fixed-point integer square root), so
//! replays remain byte-identical across hosts. The `cap` doubles as the
//! safety bound: family workloads clamp it to the tightest per-client
//! freshness deadline they carry, so an adaptively stretched lease can
//! never outlive the staleness budget a client declared.

use wcc_types::{FxHashMap, SimDuration, Url};

/// Tuning for adaptive, per-document lease durations.
///
/// # Examples
///
/// ```
/// use wcc_core::AdaptiveLeaseConfig;
/// use wcc_types::SimDuration;
///
/// let cfg = AdaptiveLeaseConfig::default().with_cap(SimDuration::from_mins(30));
/// assert_eq!(cfg.cap, SimDuration::from_mins(30));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveLeaseConfig {
    /// Lease granted to a document read and written equally often
    /// (the `reads == writes` fixed point of the objective).
    pub base: SimDuration,
    /// Lower bound on any assigned lease (avoids thrashing on write-hot
    /// documents).
    pub floor: SimDuration,
    /// Upper bound on any assigned lease. Family replays tighten this to
    /// the smallest per-client freshness deadline in the workload.
    pub cap: SimDuration,
}

impl Default for AdaptiveLeaseConfig {
    fn default() -> Self {
        AdaptiveLeaseConfig {
            base: SimDuration::from_hours(1),
            floor: SimDuration::from_mins(1),
            cap: SimDuration::from_days(3),
        }
    }
}

impl AdaptiveLeaseConfig {
    /// Overrides the cap (family runs bound it by the freshness deadline).
    #[must_use]
    pub fn with_cap(mut self, cap: SimDuration) -> Self {
        self.cap = cap;
        self
    }

    /// Overrides the base lease.
    #[must_use]
    pub fn with_base(mut self, base: SimDuration) -> Self {
        self.base = base;
        self
    }
}

/// Fixed-point scale for the integer square root: ratios are scaled by
/// `2^20` before the root, so the root itself carries `2^10` of precision.
const RATIO_SHIFT: u32 = 20;
const ROOT_SHIFT: u32 = RATIO_SHIFT / 2;

/// Integer square root (Newton's method, monotone, exact floor).
fn isqrt(n: u128) -> u128 {
    if n < 2 {
        return n;
    }
    // Start above the root so the iteration descends monotonically.
    let mut x = 1u128 << (n.ilog2() / 2 + 1);
    loop {
        let y = (x + n / x) / 2;
        if y >= x {
            return x;
        }
        x = y;
    }
}

/// Per-URL read/write counters and the lease objective over them.
///
/// Pure state, embedded in [`ServerConsistency`](crate::ServerConsistency)
/// when [`ProtocolConfig::adaptive_lease`](crate::ProtocolConfig) is set.
#[derive(Debug, Clone)]
pub struct LeaseEconomics {
    cfg: AdaptiveLeaseConfig,
    /// url → (reads, writes) observed so far.
    counts: FxHashMap<Url, (u64, u64)>,
}

impl LeaseEconomics {
    /// Creates an empty tracker with the given tuning.
    pub fn new(cfg: AdaptiveLeaseConfig) -> Self {
        LeaseEconomics {
            cfg,
            counts: FxHashMap::default(),
        }
    }

    /// The tuning in force.
    pub fn config(&self) -> AdaptiveLeaseConfig {
        self.cfg
    }

    /// Records one read (a `GET`/`If-Modified-Since` served).
    pub fn on_read(&mut self, url: Url) {
        self.counts.entry(url).or_insert((0, 0)).0 += 1;
    }

    /// Records one write (a modification detected).
    pub fn on_write(&mut self, url: Url) {
        self.counts.entry(url).or_insert((0, 0)).1 += 1;
    }

    /// The lease duration the cost objective assigns to `url` right now:
    /// `clamp(base × sqrt((reads+1)/(writes+1)), floor, cap)`, evaluated in
    /// fixed-point integer arithmetic.
    pub fn lease_for(&self, url: Url) -> SimDuration {
        let (reads, writes) = self.counts.get(&url).copied().unwrap_or((0, 0));
        let num = (reads + 1) as u128;
        let den = (writes + 1) as u128;
        let scaled_ratio = (num << RATIO_SHIFT) / den;
        let root = isqrt(scaled_ratio); // ≈ sqrt(ratio) << ROOT_SHIFT
        let micros = (self.cfg.base.as_micros() as u128 * root) >> ROOT_SHIFT;
        let lease = SimDuration::from_micros(micros.min(u64::MAX as u128) as u64);
        lease.max(self.cfg.floor).min(self.cfg.cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcc_types::ServerId;

    fn url(doc: u32) -> Url {
        Url::new(ServerId::new(0), doc)
    }

    fn econ(base_secs: u64, floor_secs: u64, cap_secs: u64) -> LeaseEconomics {
        LeaseEconomics::new(AdaptiveLeaseConfig {
            base: SimDuration::from_secs(base_secs),
            floor: SimDuration::from_secs(floor_secs),
            cap: SimDuration::from_secs(cap_secs),
        })
    }

    #[test]
    fn isqrt_exact_on_squares_and_monotone() {
        for n in 0..200u128 {
            assert_eq!(isqrt(n * n), n);
            assert!(isqrt(n) <= isqrt(n + 1));
        }
        assert_eq!(isqrt(u128::from(u64::MAX)) as u64, 4_294_967_295);
    }

    #[test]
    fn untouched_document_gets_the_base_lease() {
        let e = econ(3600, 1, 1_000_000);
        // reads = writes = 0 → ratio 1 → sqrt 1 → base.
        assert_eq!(e.lease_for(url(1)), SimDuration::from_secs(3600));
    }

    #[test]
    fn read_mostly_documents_earn_longer_leases() {
        let mut e = econ(3600, 1, 1_000_000);
        for _ in 0..99 {
            e.on_read(url(1));
        }
        // ratio 100 → sqrt 10 → 10× base (within fixed-point rounding).
        let lease = e.lease_for(url(1));
        assert!(lease >= SimDuration::from_secs(35_990), "{lease}");
        assert!(lease <= SimDuration::from_secs(36_010), "{lease}");
    }

    #[test]
    fn write_hot_documents_get_shorter_leases() {
        let mut e = econ(3600, 60, 1_000_000);
        for _ in 0..35 {
            e.on_write(url(1));
        }
        // ratio 1/36 → sqrt 1/6 → ~600s (floor rounding in the fixed-point
        // root shaves a couple of seconds).
        let lease = e.lease_for(url(1));
        assert!(lease >= SimDuration::from_secs(595), "{lease}");
        assert!(lease <= SimDuration::from_secs(601), "{lease}");
        // Past the floor, writes clamp.
        for _ in 0..10_000 {
            e.on_write(url(1));
        }
        assert_eq!(e.lease_for(url(1)), SimDuration::from_secs(60));
    }

    #[test]
    fn cap_bounds_the_stretch() {
        let mut e = econ(3600, 1, 7200);
        for _ in 0..10_000 {
            e.on_read(url(1));
        }
        assert_eq!(e.lease_for(url(1)), SimDuration::from_secs(7200));
    }

    #[test]
    fn counters_are_per_document() {
        let mut e = econ(3600, 1, 1_000_000);
        e.on_read(url(1));
        e.on_write(url(2));
        assert!(e.lease_for(url(1)) > e.lease_for(url(2)));
    }
}
