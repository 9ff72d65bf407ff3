//! The modifier process and the document version oracle.
//!
//! "A modifier process is run on the pseudo-server. … the modifier chooses a
//! random file to modify every N seconds. This modification pattern leads to
//! a geometric life time distribution for files; N is set so that the
//! average life time of the files is a particular value (for example, 50
//! days)."

use rand::rngs::StdRng;
use rand::Rng;
use wcc_types::{SimDuration, SimTime};

/// One modification event: document `doc` is touched (and checked in) at
/// `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Modification {
    /// When the modification happens.
    pub at: SimTime,
    /// Which document is touched.
    pub doc: u32,
}

/// The full modification schedule for one replay, plus a version oracle.
///
/// The oracle answers "what was `doc`'s `Last-Modified` time at instant
/// `t`?", which the replay harness uses to audit staleness of every byte
/// served from a cache.
///
/// # Examples
///
/// ```
/// use wcc_traces::ModSchedule;
/// use wcc_types::{SimDuration, SimTime};
///
/// let sched = ModSchedule::generate(100, SimDuration::from_days(10),
///                                   SimDuration::from_days(1), 42);
/// // 1 day × 100 files / 10 days = 10 modifications.
/// assert_eq!(sched.modifications().len(), 10);
/// // Before the first touch every document is at its initial version.
/// assert_eq!(sched.version_at(0, SimTime::ZERO), SimTime::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct ModSchedule {
    mods: Vec<Modification>,
    /// Per-document sorted modification times, for oracle queries.
    per_doc: Vec<Vec<SimTime>>,
    period: SimDuration,
}

impl ModSchedule {
    /// Builds the schedule: one uniform-random document touched every
    /// `mean_lifetime / num_docs`, for the whole `duration`.
    ///
    /// # Panics
    ///
    /// Panics if `num_docs` is zero.
    pub fn generate(
        num_docs: u32,
        mean_lifetime: SimDuration,
        duration: SimDuration,
        seed: u64,
    ) -> Self {
        assert!(num_docs > 0, "need at least one document");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
        let period = mean_lifetime.div(num_docs as u64);
        let mut mods = Vec::new();
        let mut per_doc = vec![Vec::new(); num_docs as usize];
        if !period.is_zero() {
            let mut t = SimTime::ZERO + period;
            while t <= SimTime::ZERO + duration {
                let doc = rng.gen_range(0..num_docs);
                mods.push(Modification { at: t, doc });
                per_doc[doc as usize].push(t);
                t += period;
            }
        }
        ModSchedule {
            mods,
            per_doc,
            period,
        }
    }

    /// An empty schedule (no modifications ever) over `num_docs` documents.
    pub fn none(num_docs: u32) -> Self {
        ModSchedule {
            mods: Vec::new(),
            per_doc: vec![Vec::new(); num_docs as usize],
            period: SimDuration::ZERO,
        }
    }

    /// Builds a schedule from an explicit modification list (tests and
    /// hand-crafted scenarios).
    ///
    /// # Panics
    ///
    /// Panics if the list is not sorted by time or references a document
    /// outside `0..num_docs`.
    pub fn from_modifications(num_docs: u32, mods: Vec<Modification>) -> Self {
        let mut per_doc = vec![Vec::new(); num_docs as usize];
        let mut last = SimTime::ZERO;
        for m in &mods {
            assert!(m.at >= last, "modifications must be sorted by time");
            assert!(m.doc < num_docs, "modification references unknown doc");
            last = m.at;
            per_doc[m.doc as usize].push(m.at);
        }
        ModSchedule {
            mods,
            per_doc,
            period: SimDuration::ZERO,
        }
    }

    /// The modification events, in time order.
    pub fn modifications(&self) -> &[Modification] {
        &self.mods
    }

    /// The touch period `N`.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// The `Last-Modified` time of `doc` as of instant `t` (documents are
    /// born at `SimTime::ZERO`).
    ///
    /// # Panics
    ///
    /// Panics if `doc` is out of range.
    pub fn version_at(&self, doc: u32, t: SimTime) -> SimTime {
        let times = &self.per_doc[doc as usize];
        match times.partition_point(|&m| m <= t) {
            0 => SimTime::ZERO,
            n => times[n - 1],
        }
    }

    /// The final version of `doc` (its `Last-Modified` at the end of the
    /// replay).
    pub fn final_version(&self, doc: u32) -> SimTime {
        self.per_doc[doc as usize]
            .last()
            .copied()
            .unwrap_or(SimTime::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_matches_formula() {
        // duration × files / lifetime.
        let s = ModSchedule::generate(
            3_600,
            SimDuration::from_days(50),
            SimDuration::from_days(1),
            1,
        );
        assert_eq!(s.modifications().len(), 72); // the paper's EPA number
        assert_eq!(s.period(), SimDuration::from_secs(1200));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = ModSchedule::generate(100, SimDuration::from_days(1), SimDuration::from_days(1), 5);
        let b = ModSchedule::generate(100, SimDuration::from_days(1), SimDuration::from_days(1), 5);
        let c = ModSchedule::generate(100, SimDuration::from_days(1), SimDuration::from_days(1), 6);
        assert_eq!(a.modifications(), b.modifications());
        assert_ne!(a.modifications(), c.modifications());
    }

    #[test]
    fn oracle_tracks_latest_touch() {
        let mut s = ModSchedule::none(3);
        // Hand-craft a schedule: doc 1 touched at t=100 and t=200.
        s.mods = vec![
            Modification {
                at: SimTime::from_secs(100),
                doc: 1,
            },
            Modification {
                at: SimTime::from_secs(200),
                doc: 1,
            },
        ];
        s.per_doc[1] = vec![SimTime::from_secs(100), SimTime::from_secs(200)];
        assert_eq!(s.version_at(1, SimTime::from_secs(50)), SimTime::ZERO);
        assert_eq!(
            s.version_at(1, SimTime::from_secs(100)),
            SimTime::from_secs(100)
        );
        assert_eq!(
            s.version_at(1, SimTime::from_secs(150)),
            SimTime::from_secs(100)
        );
        assert_eq!(
            s.version_at(1, SimTime::from_secs(201)),
            SimTime::from_secs(200)
        );
        assert_eq!(s.version_at(0, SimTime::from_secs(500)), SimTime::ZERO);
        assert_eq!(s.final_version(1), SimTime::from_secs(200));
        assert_eq!(s.final_version(2), SimTime::ZERO);
    }

    #[test]
    fn empty_when_lifetime_shorter_than_resolvable() {
        let s = ModSchedule::generate(10, SimDuration::ZERO, SimDuration::from_days(1), 1);
        assert!(s.modifications().is_empty());
        let none = ModSchedule::none(10);
        assert!(none.modifications().is_empty());
        assert_eq!(none.version_at(9, SimTime::NEVER), SimTime::ZERO);
    }

    #[test]
    fn mods_in_time_order_and_in_range() {
        let s = ModSchedule::generate(50, SimDuration::from_hours(5), SimDuration::from_days(1), 3);
        let mods = s.modifications();
        assert!(mods.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(mods.iter().all(|m| m.doc < 50));
        // Touching every period: 1 day / (5h/50) = 240 touches.
        assert_eq!(mods.len(), 240);
    }

    #[test]
    fn geometric_lifetimes_have_expected_mean() {
        // With many touches, the empirical mean inter-touch gap per document
        // approaches the configured mean lifetime.
        let lifetime = SimDuration::from_hours(2);
        let s = ModSchedule::generate(20, lifetime, SimDuration::from_days(30), 11);
        let mut gaps = Vec::new();
        for doc in 0..20u32 {
            let times = &s.per_doc[doc as usize];
            for w in times.windows(2) {
                gaps.push((w[1] - w[0]).as_secs_f64());
            }
        }
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let target = lifetime.as_secs_f64();
        assert!(
            (mean - target).abs() / target < 0.10,
            "mean lifetime {mean:.0}s vs target {target:.0}s"
        );
    }
}
