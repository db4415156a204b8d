//! Order statistics over raw samples.
//!
//! Every timing the benchmark reports is a median plus the highest
//! percentile that still has at least [`MIN_BEYOND`] samples above it,
//! computed here from the sorted raw samples. Bucketed histograms (such as
//! the library's log₂ `Histogram`) are never consulted: their quantiles are
//! bucket midpoints, not observed values.

/// Samples a tail percentile must leave above it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried, in per-mille, lowest first.
pub const TAIL_LADDER: [u32; 5] = [750, 900, 950, 990, 999];

/// Nearest-rank percentile of ascending `sorted` samples, with the
/// percentile given in per-mille (`900` = p90). Integer rank arithmetic
/// keeps the pick exact; it is also the same element when every sample is
/// repeated `k` times, so pooling identical passes leaves it unchanged.
///
/// # Panics
/// Panics on an empty slice or a per-mille outside `1..=1000`.
pub fn nearest_rank(sorted: &[f64], permille: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((1..=1000).contains(&permille), "per-mille {permille}");
    let n = sorted.len();
    let rank = (permille as usize * n).div_ceil(1000);
    sorted[rank.max(1) - 1]
}

/// Samples strictly above the nearest-rank pick of `permille` out of `n`.
pub fn beyond(n: usize, permille: u32) -> usize {
    n - (permille as usize * n).div_ceil(1000).max(1)
}

/// Summary of one set of raw samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median (mean of the two middle samples when `n` is even).
    pub median: f64,
    /// Nearest-rank p90.
    pub p90: f64,
    /// The highest ladder percentile with at least [`MIN_BEYOND`] samples
    /// beyond it, as `(per-mille, value)`; `None` when `n` is too small.
    pub tail: Option<(u32, f64)>,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarises `samples` (any order). Returns `None` for no samples.
    ///
    /// # Panics
    /// Panics if a sample is not finite: a NaN would make the order, and
    /// so every percentile, meaningless.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        assert!(samples.iter().all(|x| x.is_finite()), "non-finite sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
        };
        let tail = TAIL_LADDER
            .iter()
            .rev()
            .find(|&&pm| beyond(n, pm) >= MIN_BEYOND)
            .map(|&pm| (pm, nearest_rank(&sorted, pm)));
        Some(Summary {
            n,
            median,
            p90: nearest_rank(&sorted, 900),
            tail,
            min: sorted[0],
            max: sorted[n - 1],
        })
    }

    /// One-line rendering with the sample count and tail percentile.
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some((900, _)) => "tail p90".to_string(),
            Some((pm, v)) => format!("tail p{} {v:.6} {unit}", pm as f64 / 10.0),
            None => format!("no tail percentile has {MIN_BEYOND} samples beyond it"),
        };
        format!(
            "n={} median {:.6} {unit}, p90 {:.6} {unit}, {tail}, min {:.6}, max {:.6}",
            self.n, self.median, self.p90, self.min, self.max
        )
    }
}

/// Median of `samples`, or 0 when there are none.
pub fn median_or_zero(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_observed_samples() {
        let s = ramp(10);
        assert_eq!(nearest_rank(&s, 500), 5.0);
        assert_eq!(nearest_rank(&s, 900), 9.0);
        assert_eq!(nearest_rank(&s, 901), 10.0);
        assert_eq!(nearest_rank(&s, 1000), 10.0);
        assert_eq!(nearest_rank(&s, 1), 1.0);
        assert_eq!(nearest_rank(&[7.5], 999), 7.5);
    }

    #[test]
    fn rank_arithmetic_is_exact_where_floats_are_not() {
        // 0.29 * 100 = 28.999999999999996 in f64; the rank must be 29.
        let s = ramp(100);
        assert_eq!(nearest_rank(&s, 290), 29.0);
        assert_eq!(nearest_rank(&s, 900), 90.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        let t = |n| Summary::of(&ramp(n)).unwrap().tail;
        assert_eq!(t(39), None);
        assert_eq!(t(40), Some((750, 30.0)));
        assert_eq!(t(99), Some((750, 75.0)));
        assert_eq!(t(100), Some((900, 90.0)));
        assert_eq!(t(200), Some((950, 190.0)));
        assert_eq!(t(999), Some((950, 950.0)));
        assert_eq!(t(1000), Some((990, 990.0)));
        assert_eq!(t(10_000), Some((999, 9990.0)));
        for n in [40, 100, 250, 1000, 12_345] {
            let (pm, _) = t(n).unwrap();
            assert!(beyond(n, pm) >= MIN_BEYOND, "n={n}");
        }
    }

    #[test]
    fn summary_sorts_its_input_and_reports_the_count() {
        let s = Summary::of(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0]).unwrap();
        assert_eq!(s.n, 6);
        assert_eq!(s.median, 3.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.p90, 9.0);
        assert_eq!(Summary::of(&[2.0, 8.0, 5.0]).unwrap().median, 5.0);
        assert!(Summary::of(&[]).is_none());
        assert_eq!(median_or_zero(&[]), 0.0);
    }

    #[test]
    fn pooling_identical_passes_keeps_nearest_rank() {
        let one = [0.4, 0.1, 0.9, 0.3, 0.7, 0.2, 0.5];
        let mut sorted = one.to_vec();
        sorted.sort_by(f64::total_cmp);
        for k in 1..6 {
            let mut pooled: Vec<f64> = (0..k).flat_map(|_| one).collect();
            pooled.sort_by(f64::total_cmp);
            for pm in [1, 250, 500, 900, 999, 1000] {
                assert_eq!(nearest_rank(&pooled, pm), nearest_rank(&sorted, pm));
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_samples_are_refused() {
        Summary::of(&[1.0, f64::NAN]);
    }
}
