//! Metric primitives: the engine's drop count and min/avg/max summaries
//! with histogram-backed latency tails.

use core::fmt;
use wcc_obs::Histogram;
use wcc_types::SimDuration;

/// Traffic statistics maintained by the simulation engine. What was sent is
/// each node's own count; the engine counts what it lost.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct NetStats {
    /// Messages lost to partitions or crashed destinations.
    pub dropped: u64,
}

impl NetStats {
    pub(crate) fn record_dropped(&mut self) {
        self.dropped += 1;
    }
}

/// An online min/avg/max summary of simulated durations — the shape of the
/// paper's latency rows (Avg/Min/Max Latency) — with the full distribution
/// kept in a mergeable log-linear [`Histogram`] for tail quantiles.
///
/// Count, total, min, max and mean are exact; quantiles are histogram
/// estimates within 6.25% above the true nearest-rank value (and exact at
/// `q = 0` / `q = 1`).
///
/// # Examples
///
/// ```
/// use wcc_simnet::Summary;
/// use wcc_types::SimDuration;
///
/// let mut s = Summary::default();
/// s.observe(SimDuration::from_millis(10));
/// s.observe(SimDuration::from_millis(30));
/// assert_eq!(s.min(), Some(SimDuration::from_millis(10)));
/// assert_eq!(s.max(), Some(SimDuration::from_millis(30)));
/// assert_eq!(s.mean(), Some(SimDuration::from_millis(20)));
/// assert_eq!(s.count(), 2);
/// ```
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Summary {
    hist: Histogram,
}

impl Summary {
    /// Records one observation.
    pub fn observe(&mut self, value: SimDuration) {
        self.hist.record(value.as_micros());
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        self.hist.merge(&other.hist);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.hist.count()
    }

    /// Smallest observation, if any (exact).
    pub fn min(&self) -> Option<SimDuration> {
        self.hist.min().map(SimDuration::from_micros)
    }

    /// Largest observation, if any (exact).
    pub fn max(&self) -> Option<SimDuration> {
        self.hist.max().map(SimDuration::from_micros)
    }

    /// Mean observation, if any (exact).
    pub fn mean(&self) -> Option<SimDuration> {
        if self.hist.count() == 0 {
            None
        } else {
            Some(self.total().div(self.hist.count()))
        }
    }

    /// Sum of all observations (exact).
    pub fn total(&self) -> SimDuration {
        SimDuration::from_micros(self.hist.sum())
    }

    /// The nearest-rank `q`-quantile estimate, e.g. `quantile(0.99)` for
    /// the p99: the histogram bucket bound holding the ranked observation,
    /// within 6.25% above the true value (exact at `q = 0` / `q = 1`).
    /// Returns `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<SimDuration> {
        self.hist.quantile(q).map(SimDuration::from_micros)
    }

    /// The median observation estimate.
    pub fn median(&self) -> Option<SimDuration> {
        self.quantile(0.5)
    }

    /// The p90 estimate.
    pub fn p90(&self) -> Option<SimDuration> {
        self.quantile(0.9)
    }

    /// The p99 estimate.
    pub fn p99(&self) -> Option<SimDuration> {
        self.quantile(0.99)
    }

    /// The p99.9 estimate.
    pub fn p999(&self) -> Option<SimDuration> {
        self.quantile(0.999)
    }

    /// The underlying histogram (for registry exposition and merging into
    /// other observability sinks).
    pub fn histogram(&self) -> &Histogram {
        &self.hist
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.mean(), self.min(), self.max()) {
            (Some(mean), Some(min), Some(max)) => {
                write!(f, "avg {mean} / min {min} / max {max} (n={})", self.count())
            }
            _ => write!(f, "no observations"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_tracks_extremes_and_mean() {
        let mut s = Summary::default();
        for ms in [5u64, 1, 9, 5] {
            s.observe(SimDuration::from_millis(ms));
        }
        assert_eq!(s.count(), 4);
        assert_eq!(s.min(), Some(SimDuration::from_millis(1)));
        assert_eq!(s.max(), Some(SimDuration::from_millis(9)));
        assert_eq!(s.mean(), Some(SimDuration::from_millis(5)));
        assert_eq!(s.total(), SimDuration::from_millis(20));
    }

    #[test]
    fn empty_summary_reports_none() {
        let s = Summary::default();
        assert_eq!(s.mean(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.to_string(), "no observations");
    }

    #[test]
    fn merge_combines() {
        let mut a = Summary::default();
        a.observe(SimDuration::from_millis(2));
        let mut b = Summary::default();
        b.observe(SimDuration::from_millis(8));
        b.observe(SimDuration::from_millis(4));
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), Some(SimDuration::from_millis(2)));
        assert_eq!(a.max(), Some(SimDuration::from_millis(8)));
        // (2+8+4)/3 ≈ 4.666 ms
        assert_eq!(a.mean(), Some(SimDuration::from_micros(4_666)));
    }

    /// The histogram-backed quantile over-estimates the exact nearest-rank
    /// value by at most one sub-bucket (6.25%).
    fn assert_within_band(s: &Summary, q: f64, exact_ms: u64) {
        let exact = SimDuration::from_millis(exact_ms).as_micros();
        let est = s.quantile(q).unwrap().as_micros();
        assert!(est >= exact, "q={q}: {est} < {exact}");
        assert!(
            (est - exact) as f64 <= exact as f64 / 16.0,
            "q={q}: {est} vs {exact}"
        );
    }

    #[test]
    fn quantiles_are_bounded_histogram_estimates() {
        let mut s = Summary::default();
        for ms in 1..=100u64 {
            s.observe(SimDuration::from_millis(ms));
        }
        assert_within_band(&s, 0.5, 50);
        assert_within_band(&s, 0.99, 99);
        // The extremes are exact: they return the recorded min/max.
        assert_eq!(s.quantile(1.0), Some(SimDuration::from_millis(100)));
        assert_eq!(s.quantile(0.0), Some(SimDuration::from_millis(1)));
        assert_eq!(s.median(), s.quantile(0.5));
        assert_eq!(s.p99(), s.quantile(0.99));
        assert_eq!(Summary::default().quantile(0.9), None);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn out_of_range_quantile_panics() {
        let mut s = Summary::default();
        s.observe(SimDuration::from_millis(1));
        let _ = s.quantile(1.5);
    }

    #[test]
    fn merged_quantiles_see_all_samples() {
        let mut a = Summary::default();
        let mut b = Summary::default();
        for ms in 1..=50u64 {
            a.observe(SimDuration::from_millis(ms));
        }
        for ms in 51..=100u64 {
            b.observe(SimDuration::from_millis(ms));
        }
        a.merge(&b);
        assert_within_band(&a, 0.75, 75);
        assert_eq!(a.count(), 100);
        assert_eq!(a.histogram().count(), 100);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Summary::default();
        a.observe(SimDuration::from_secs(1));
        let before = a.clone();
        a.merge(&Summary::default());
        assert_eq!(a, before);
    }
}
