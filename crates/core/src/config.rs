//! Protocol selection and tuning knobs.

use crate::economics::AdaptiveLeaseConfig;
use core::fmt;
use wcc_types::SimDuration;

/// Which consistency protocol a deployment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// Weak consistency: the Alex protocol — TTL proportional to document
    /// age, `If-Modified-Since` when an expired copy is hit.
    AdaptiveTtl,
    /// Weak consistency with a single fixed time-to-live for every
    /// document — the baseline Worrell's thesis compared invalidation
    /// against (the paper cites it in §2). Kept as an ablation baseline;
    /// adaptive TTL dominates it.
    FixedTtl,
    /// Strong consistency by validation: `If-Modified-Since` on every hit.
    PollEveryTime,
    /// Strong consistency by server-driven invalidation with unbounded site
    /// lists (the paper's §4 prototype).
    Invalidation,
    /// Invalidation where every reply carries a fixed-length lease; the
    /// server forgets clients whose leases expired (§6).
    LeaseInvalidation,
    /// Two-tier leases: a very short (zero) lease on plain `GET`s, the full
    /// lease only on `If-Modified-Since` revalidations, so only clients that
    /// ask for a document a second time are remembered (§6).
    TwoTierLease,
    /// Piggyback server invalidation (PSI, Krishnamurthy & Wills — the
    /// follow-up line of work the paper's related work anticipates): the
    /// server keeps site lists but *piggybacks* invalidations on the next
    /// reply to each site instead of pushing them. No extra messages at
    /// all, but consistency is only as fresh as the site's last contact —
    /// a middle ground between adaptive TTL and invalidation.
    PiggybackInvalidation,
    /// Volume leases (Yin, Alvisi, Dahlin & Lin — the published answer to
    /// this paper's §4 partition problem): a *long* per-object lease plus a
    /// *short* per-server "volume" lease that every reply renews. A cached
    /// copy is served only while **both** are live. On a modification the
    /// server pushes invalidations to live-volume clients only and simply
    /// queues piggybacks for the rest — so a write completes after at most
    /// `max(ack time, volume-lease length)` even through a partition.
    VolumeLease,
}

impl ProtocolKind {
    /// All eight protocols (the paper's five, the fixed-TTL baseline and
    /// the PSI / volume-lease extensions).
    pub const ALL: [ProtocolKind; 8] = [
        ProtocolKind::AdaptiveTtl,
        ProtocolKind::FixedTtl,
        ProtocolKind::PollEveryTime,
        ProtocolKind::Invalidation,
        ProtocolKind::LeaseInvalidation,
        ProtocolKind::TwoTierLease,
        ProtocolKind::PiggybackInvalidation,
        ProtocolKind::VolumeLease,
    ];

    /// The three protocols compared head-to-head in Tables 3 and 4.
    pub const PAPER_TRIO: [ProtocolKind; 3] = [
        ProtocolKind::AdaptiveTtl,
        ProtocolKind::PollEveryTime,
        ProtocolKind::Invalidation,
    ];

    /// Returns `true` for the protocols that guarantee strong consistency
    /// (no stale document returned after a write completes): those that
    /// trust no copy without asking, and those that push every change.
    pub fn is_strong(self) -> bool {
        let policy = ProtocolConfig::new(self).policy();
        policy.trust == Trust::Never || policy.delivery == Delivery::Push
    }

    /// Returns `true` for the protocols that *push* `INVALIDATE` messages
    /// (and therefore guarantee write completion).
    pub fn uses_invalidation(self) -> bool {
        ProtocolConfig::new(self).policy().delivery == Delivery::Push
    }

    /// A short stable name used in reports and CLI arguments.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::AdaptiveTtl => "adaptive-ttl",
            ProtocolKind::FixedTtl => "fixed-ttl",
            ProtocolKind::PollEveryTime => "poll-every-time",
            ProtocolKind::Invalidation => "invalidation",
            ProtocolKind::LeaseInvalidation => "lease-invalidation",
            ProtocolKind::TwoTierLease => "two-tier-lease",
            ProtocolKind::PiggybackInvalidation => "piggyback",
            ProtocolKind::VolumeLease => "volume-lease",
        }
    }

    /// Parses the name produced by [`ProtocolKind::name`].
    pub fn from_name(name: &str) -> Option<ProtocolKind> {
        ProtocolKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Tuning for the adaptive-TTL (Alex) estimator:
/// `ttl = clamp(threshold × age, floor, cap)`.
///
/// The 10 % threshold is the classic Alex value; Harvest shipped comparable
/// defaults. The cap prevents a years-old document from being trusted for
/// months; the floor avoids thrashing on just-modified documents.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveTtlConfig {
    /// Fraction of the document's age used as its time-to-live.
    pub threshold: f64,
    /// Lower bound on the assigned TTL.
    pub floor: SimDuration,
    /// Upper bound on the assigned TTL.
    pub cap: SimDuration,
}

impl AdaptiveTtlConfig {
    /// The TTL assigned to a document of the given age.
    pub fn ttl_for_age(&self, age: SimDuration) -> SimDuration {
        let raw = age.mul_f64(self.threshold);
        raw.max(self.floor).min(self.cap)
    }
}

impl Default for AdaptiveTtlConfig {
    fn default() -> Self {
        AdaptiveTtlConfig {
            threshold: 0.1,
            floor: SimDuration::from_secs(30),
            cap: SimDuration::from_days(7),
        }
    }
}

/// How a proxy decides that a cached copy may be served without asking the
/// server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trust {
    /// Until the server's promise ends: the copy's lease and, where one
    /// applies, its site's volume lease.
    Promise,
    /// For a time-to-live set from the document's age (Alex).
    AdaptiveTtl(AdaptiveTtlConfig),
    /// For one time-to-live, whatever the document.
    FixedTtl(SimDuration),
    /// Never: every hit is validated with `If-Modified-Since`.
    Never,
}

/// How a change reaches a site that holds a copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// It does not: the site finds out when it next validates.
    None,
    /// On the server's next reply to that site (PSI).
    Piggyback,
    /// At once, by an `INVALIDATE` the site acknowledges.
    Push,
}

/// How long a reply promises that the server will tell the site of a
/// change: [`SimDuration::MAX`] never ends, and a zero lease is not
/// tracked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Leases {
    /// The lease on a plain `GET`.
    pub get: SimDuration,
    /// The lease on an `If-Modified-Since` revalidation.
    pub ims: SimDuration,
}

/// One point on §6's spectrum: what the proxy trusts, what the server
/// promises, and how a change reaches a site. Invalidation is a lease that
/// never ends; polling trusts no copy. Derived by
/// [`ProtocolConfig::policy`], never set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Policy {
    /// When the proxy serves a copy without asking.
    pub trust: Trust,
    /// The lease each reply carries (`None`: no promise, no site list).
    pub lease: Option<Leases>,
    /// How a change reaches the sites on the list.
    pub delivery: Delivery,
    /// The per-server volume lease every reply renews (Yin et al.), if one
    /// applies: a promise also ends with it.
    pub volume: Option<SimDuration>,
}

/// Complete protocol configuration shared by the proxy- and server-side
/// state machines.
///
/// # Examples
///
/// ```
/// use wcc_core::{ProtocolConfig, ProtocolKind};
/// use wcc_types::SimDuration;
///
/// let cfg = ProtocolConfig::new(ProtocolKind::LeaseInvalidation)
///     .with_lease(SimDuration::from_days(3));
/// assert!(cfg.kind.uses_invalidation());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolConfig {
    /// The protocol to run.
    pub kind: ProtocolKind,
    /// Adaptive-TTL tuning (used only by [`ProtocolKind::AdaptiveTtl`]).
    pub adaptive_ttl: AdaptiveTtlConfig,
    /// Lease duration for [`ProtocolKind::LeaseInvalidation`] and the
    /// `ims_lease` of [`ProtocolKind::TwoTierLease`]. The paper suggests
    /// leases of a few days.
    pub lease: SimDuration,
    /// The single TTL used by [`ProtocolKind::FixedTtl`].
    pub fixed_ttl: SimDuration,
    /// The short per-server volume lease used by
    /// [`ProtocolKind::VolumeLease`] (Yin et al. use tens of seconds to a
    /// few minutes).
    pub volume_lease: SimDuration,
    /// When set, lease-granting protocols replace their fixed duration with
    /// the per-document cost objective of
    /// [`LeaseEconomics`](crate::LeaseEconomics): read-mostly documents earn
    /// longer leases, write-hot ones shorter. Plain invalidation's infinite
    /// promise becomes a bounded adaptive lease.
    pub adaptive_lease: Option<AdaptiveLeaseConfig>,
}

impl ProtocolConfig {
    /// Configuration with default tuning for `kind`.
    pub fn new(kind: ProtocolKind) -> Self {
        ProtocolConfig {
            kind,
            adaptive_ttl: AdaptiveTtlConfig::default(),
            lease: SimDuration::from_days(3),
            fixed_ttl: SimDuration::from_days(1),
            volume_lease: SimDuration::from_mins(2),
            adaptive_lease: None,
        }
    }

    /// Overrides the lease duration.
    #[must_use]
    pub fn with_lease(mut self, lease: SimDuration) -> Self {
        self.lease = lease;
        self
    }

    /// Overrides the fixed TTL.
    #[must_use]
    pub fn with_fixed_ttl(mut self, ttl: SimDuration) -> Self {
        self.fixed_ttl = ttl;
        self
    }

    /// Overrides the volume-lease length.
    #[must_use]
    pub fn with_volume_lease(mut self, volume: SimDuration) -> Self {
        self.volume_lease = volume;
        self
    }

    /// Enables adaptive per-document lease durations.
    #[must_use]
    pub fn with_adaptive_lease(mut self, cfg: AdaptiveLeaseConfig) -> Self {
        self.adaptive_lease = Some(cfg);
        self
    }

    /// The policy this preset makes of these durations: the one place a
    /// protocol's name is read.
    pub fn policy(&self) -> Policy {
        use ProtocolKind as Kind;
        let (promise, push) = (Trust::Promise, Delivery::Push);
        let lease = |get, ims| Some(Leases { get, ims });
        let forever = lease(SimDuration::MAX, SimDuration::MAX);
        let (trust, lease, delivery) = match self.kind {
            Kind::AdaptiveTtl => (Trust::AdaptiveTtl(self.adaptive_ttl), None, Delivery::None),
            Kind::FixedTtl => (Trust::FixedTtl(self.fixed_ttl), None, Delivery::None),
            Kind::PollEveryTime => (Trust::Never, None, Delivery::None),
            Kind::Invalidation | Kind::VolumeLease => (promise, forever, push),
            Kind::LeaseInvalidation => (promise, lease(self.lease, self.lease), push),
            Kind::TwoTierLease => (promise, lease(SimDuration::ZERO, self.lease), push),
            Kind::PiggybackInvalidation => (promise, forever, Delivery::Piggyback),
        };
        let volume = (self.kind == Kind::VolumeLease).then_some(self.volume_lease);
        Policy {
            trust,
            lease,
            delivery,
            volume,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for kind in ProtocolKind::ALL {
            assert_eq!(ProtocolKind::from_name(kind.name()), Some(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(ProtocolKind::from_name("nonsense"), None);
    }

    #[test]
    fn every_preset_is_one_point_of_the_policy() {
        let (days, never, zero) = (
            SimDuration::from_days(8),
            SimDuration::MAX,
            SimDuration::ZERO,
        );
        // name, strong, pushes, piggybacks, volume lease, checks every hit,
        // lease on (GET, IMS)
        let presets = [
            ("adaptive-ttl", false, false, false, false, false, None),
            ("fixed-ttl", false, false, false, false, false, None),
            ("poll-every-time", true, false, false, false, true, None),
            (
                "invalidation",
                true,
                true,
                false,
                false,
                false,
                Some((never, never)),
            ),
            (
                "lease-invalidation",
                true,
                true,
                false,
                false,
                false,
                Some((days, days)),
            ),
            (
                "two-tier-lease",
                true,
                true,
                false,
                false,
                false,
                Some((zero, days)),
            ),
            (
                "piggyback",
                false,
                false,
                true,
                false,
                false,
                Some((never, never)),
            ),
            (
                "volume-lease",
                true,
                true,
                false,
                true,
                false,
                Some((never, never)),
            ),
        ];
        assert_eq!(
            presets.map(|p| p.0),
            ProtocolKind::ALL.map(ProtocolKind::name)
        );
        for (name, strong, pushes, piggybacks, volume, every_hit, lease) in presets {
            let kind = ProtocolKind::from_name(name).expect("a preset");
            let policy = ProtocolConfig::new(kind).with_lease(days).policy();
            let row = (
                kind.is_strong(),
                kind.uses_invalidation(),
                policy.delivery == Delivery::Piggyback,
                policy.volume.is_some(),
                policy.trust == Trust::Never,
                policy.lease.map(|l| (l.get, l.ims)),
            );
            assert_eq!(
                row,
                (strong, pushes, piggybacks, volume, every_hit, lease),
                "{name}"
            );
        }
    }

    #[test]
    fn adaptive_ttl_clamps() {
        let cfg = AdaptiveTtlConfig::default();
        // 10% of 10 days = 1 day.
        assert_eq!(
            cfg.ttl_for_age(SimDuration::from_days(10)),
            SimDuration::from_days(1)
        );
        // Very young documents get the floor.
        assert_eq!(cfg.ttl_for_age(SimDuration::from_secs(10)), cfg.floor);
        // Ancient documents are capped.
        assert_eq!(cfg.ttl_for_age(SimDuration::from_days(1000)), cfg.cap);
    }
}
