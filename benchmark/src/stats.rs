//! Exact order statistics over raw samples. Nothing here buckets: the
//! repeatability target (a few percent) is narrower than the 6–12 % bucket
//! edges of `wcc_obs::Histogram`.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it. `None` when empty.
pub fn percentile<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Integer-microsecond samples kept losslessly as one count per value
/// (values of [`ExactCounts::DIRECT`] µs and more go to an exact overflow
/// list), so a slice's memory does not grow with its throughput — which
/// would otherwise leak the generator's speed into `peak_rss_mb`. Quantiles
/// are those of the sorted raw samples, exactly.
#[derive(Debug, Clone)]
pub struct ExactCounts {
    counts: Vec<u32>,
    overflow: Vec<u32>,
    len: u64,
}

impl Default for ExactCounts {
    fn default() -> Self {
        ExactCounts {
            counts: vec![0; Self::DIRECT as usize],
            overflow: Vec::new(),
            len: 0,
        }
    }
}

impl ExactCounts {
    /// Values below this are counted in place.
    pub const DIRECT: u32 = 1 << 14;

    pub fn record(&mut self, value: u32) {
        match self.counts.get_mut(value as usize) {
            Some(count) => *count += 1,
            None => self.overflow.push(value),
        }
        self.len += 1;
    }

    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn merge(&mut self, other: &ExactCounts) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.overflow.extend_from_slice(&other.overflow);
        self.len += other.len;
    }

    /// Nearest-rank percentile, as [`percentile`] over the sorted samples.
    pub fn percentile(&self, q: f64) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.len as f64).ceil() as u64).clamp(1, self.len);
        let mut seen = 0u64;
        for (value, &count) in self.counts.iter().enumerate() {
            seen += u64::from(count);
            if seen >= rank {
                return Some(value as u32);
            }
        }
        let mut tail = self.overflow.clone();
        tail.sort_unstable();
        tail.get((rank - seen - 1) as usize).copied()
    }
}

/// Median of `values` (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// `(q1, q2, q3)` exactly as Python's `statistics.quantiles(values, n=4)`
/// (the "exclusive" method) — the rule the acceptance check uses. `None`
/// below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Inter-quartile range as a percentage of the median; 0 below two samples
/// or for a zero median.
pub fn iqr_pct(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q2, q3)) if q2 != 0.0 => (q3 - q1) / q2.abs() * 100.0,
        _ => 0.0,
    }
}

/// The tail percentiles this benchmark ever reports, ascending.
pub const TAILS: [(&str, f64); 4] = [
    ("p90", 0.90),
    ("p99", 0.99),
    ("p99.9", 0.999),
    ("p99.99", 0.9999),
];

/// Whether `n` samples support percentile `q`: at least ten samples must
/// lie beyond it.
pub fn tail_supported(n: usize, q: f64) -> bool {
    n as f64 * (1.0 - q) >= 10.0 - 1e-9
}

/// The highest entry of [`TAILS`] that `n` samples support.
pub fn highest_tail(n: usize) -> Option<(&'static str, f64)> {
    TAILS
        .iter()
        .rev()
        .find(|(_, q)| tail_supported(n, *q))
        .copied()
}

/// Smallest of `values` (`None` when empty).
pub fn min(values: &[f64]) -> Option<f64> {
    values.iter().copied().min_by(f64::total_cmp)
}

/// Largest of `values` (`None` when empty).
pub fn max(values: &[f64]) -> Option<f64> {
    values.iter().copied().max_by(f64::total_cmp)
}

/// For repeats of a fixed list of work units (`times[pass][unit]`), the sum
/// over units of each unit's median across passes: one disturbed stretch
/// spoils one unit of one pass, not a whole pass. Passes may be ragged (the
/// clock ran out mid-pass): a unit counts where it was measured. `None` if
/// some unit was never measured.
pub fn sum_of_unit_medians(times: &[Vec<f64>], units: usize) -> Option<f64> {
    (0..units).map(|u| unit_median(times, u)).sum()
}

/// Median across passes of unit `u` (`None` if never measured).
pub fn unit_median(times: &[Vec<f64>], u: usize) -> Option<f64> {
    let samples: Vec<f64> = times
        .iter()
        .filter_map(|pass| pass.get(u).copied())
        .collect();
    median(&samples)
}
