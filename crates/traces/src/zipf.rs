//! A deterministic Zipf sampler over `1..=n` ranks.
//!
//! Web document popularity is famously Zipf-like; the generator uses this
//! both for document choice and for client activity. Implemented with a
//! precomputed CDF and a guide table over `[0, 1)`: a draw `u` names its
//! cell by its own bits (the cell count is a power of two, so
//! `u × cells` is exact), and the cell gives a window of the CDF that holds
//! every rank `u` can land on. A binary search over that window finds the
//! rank a binary search over the whole CDF finds. Every window has the
//! same length — the most ranks one cell spans, a handful at the exponents
//! web traces have — so each draw takes the same few steps, with no branch
//! that depends on the draw, and no dependency beyond `rand`.

use rand::Rng;

/// Zipf distribution over ranks `0..n` with exponent `s`:
/// `P(rank = k) ∝ (k+1)^-s`.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use wcc_traces::Zipf;
///
/// let zipf = Zipf::new(100, 0.9);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let rank = zipf.sample(&mut rng);
/// assert!(rank < 100);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// Where cell `j`'s window starts: the first rank whose CDF value
    /// reaches `j / guide.len()`, moved down where needed so the window
    /// ends inside the CDF. `guide.len()` is the largest power of two no
    /// greater than `n / 8` (at least 1): the table costs a byte per rank
    /// against the CDF's eight, and a window at most a few steps more.
    guide: Vec<usize>,
    /// The window's length: the most ranks a draw in one cell can land on,
    /// less one.
    window: usize,
}

impl Zipf {
    /// Builds the sampler for `n` ranks with exponent `s`.
    ///
    /// `s = 0` degenerates to the uniform distribution; larger `s` skews
    /// mass toward low ranks.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `s` is negative/non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(
            s >= 0.0 && s.is_finite(),
            "Zipf exponent must be finite and non-negative"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Guard against floating-point shortfall at the top.
        *cdf.last_mut().expect("n > 0") = 1.0;
        let cells = 1usize << (n / 8).max(1).ilog2();
        let mut guide = Vec::with_capacity(cells);
        let mut rank = 0;
        for j in 0..cells {
            // The CDF ends at 1.0, above every edge, so the sweep stops.
            let edge = j as f64 / cells as f64;
            while cdf[rank] < edge {
                rank += 1;
            }
            guide.push(rank);
        }
        // A draw in cell `j` lands in `guide[j]..=guide[j + 1]`; `n` closes
        // the last cell.
        let window = (0..cells)
            .map(|j| guide.get(j + 1).copied().unwrap_or(n) - guide[j])
            .max()
            .expect("n > 0");
        for start in &mut guide {
            *start = (*start).min(n - window);
        }
        Zipf { cdf, guide, window }
    }

    /// The number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Returns `true` if the distribution has exactly one rank (degenerate).
    pub fn is_empty(&self) -> bool {
        false // by construction n > 0; method exists to pair with len()
    }

    /// Draws a rank in `0..n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.rank_of(rng.gen())
    }

    /// The first rank whose CDF value reaches `u`, for `u` in `[0, 1)`.
    ///
    /// The CDF is non-decreasing, so every rank before the cell's first lies
    /// below `u` and every rank past its window reaches it: the count of
    /// window values below `u` is the rank's offset in the window.
    fn rank_of(&self, u: f64) -> usize {
        let start = self.guide[(u * self.guide.len() as f64) as usize];
        start + self.cdf[start..start + self.window].partition_point(|&c| c < u)
    }

    /// The probability mass of `rank`.
    pub fn pmf(&self, rank: usize) -> f64 {
        if rank == 0 {
            self.cdf[0]
        } else {
            self.cdf[rank] - self.cdf[rank - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;

    /// The search the guide table replaced: a binary search over the whole
    /// CDF, kept as the oracle the table is held to.
    fn rank_by_search(z: &Zipf, u: f64) -> usize {
        z.cdf.partition_point(|&c| c < u).min(z.cdf.len() - 1)
    }

    const RANKS: [usize; 5] = [1, 2, 3, 1_000, 30_000];
    const EXPONENTS: [f64; 5] = [0.0, 0.6, 0.9, 1.0, 2.0];

    /// Every draw where the table could go wrong: each CDF value and each
    /// cell edge with the doubles either side, `0` and `1 - 2^-53`.
    fn edge_draws(z: &Zipf) -> Vec<f64> {
        let cells = z.guide.len();
        let edges = (0..=cells).map(|j| j as f64 / cells as f64);
        let mut draws = vec![0.0, 1.0 - f64::EPSILON / 2.0];
        for x in z.cdf.iter().copied().chain(edges) {
            draws.extend([x.next_down(), x, x.next_up()]);
        }
        draws.retain(|u| (0.0..1.0).contains(u));
        draws
    }

    #[test]
    fn the_guide_table_finds_the_searched_rank_at_every_edge() {
        for n in RANKS {
            for s in EXPONENTS {
                let z = Zipf::new(n, s);
                assert!(
                    z.guide.len() <= n.div_ceil(8),
                    "n {n}: {} cells",
                    z.guide.len()
                );
                for u in edge_draws(&z) {
                    assert_eq!(z.rank_of(u), rank_by_search(&z, u), "n {n} s {s} u {u:e}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn the_guide_table_finds_the_searched_rank(
            which in 0usize..25,
            seed in any::<u64>(),
        ) {
            let z = Zipf::new(RANKS[which % 5], EXPONENTS[which / 5]);
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..2_000 {
                let u: f64 = rng.gen();
                prop_assert_eq!(z.rank_of(u), rank_by_search(&z, u), "u {:e}", u);
            }
        }
    }

    #[test]
    fn uniform_when_s_zero() {
        let z = Zipf::new(4, 0.0);
        for k in 0..4 {
            assert!((z.pmf(k) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn skew_orders_ranks() {
        let z = Zipf::new(100, 1.0);
        assert!(z.pmf(0) > z.pmf(1));
        assert!(z.pmf(1) > z.pmf(50));
        let total: f64 = (0..100).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn samples_in_range_and_deterministic() {
        let z = Zipf::new(10, 0.8);
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x = z.sample(&mut a);
            let y = z.sample(&mut b);
            assert_eq!(x, y);
            assert!(x < 10);
        }
    }

    #[test]
    fn empirical_frequencies_track_pmf() {
        let z = Zipf::new(20, 1.0);
        let mut rng = StdRng::seed_from_u64(99);
        let n = 200_000;
        let mut counts = [0u64; 20];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for k in [0usize, 1, 5, 19] {
            let emp = counts[k] as f64 / n as f64;
            let expected = z.pmf(k);
            assert!(
                (emp - expected).abs() < 0.01 + expected * 0.1,
                "rank {k}: emp {emp} vs pmf {expected}"
            );
        }
    }

    #[test]
    fn single_rank_always_zero() {
        let z = Zipf::new(1, 2.0);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(z.sample(&mut rng), 0);
        assert_eq!(z.len(), 1);
        assert!(!z.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        Zipf::new(0, 1.0);
    }
}
