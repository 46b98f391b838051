//! Confidence intervals for simulation output analysis.
//!
//! The standard way to report discrete-event simulation results: a
//! t-interval over independent observations of the mean
//! ([`mean_confidence_interval`]). Where a study reads a *median*, the
//! matching interval is [`median_confidence_interval`]: two order
//! statistics chosen by binomial ranks, distribution-free. The level is a
//! [`ConfidenceLevel`], so only the levels the critical-value table covers
//! can be asked for.

use crate::online::OnlineStats;

/// A two-sided confidence level covered by the Student-t table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConfidenceLevel {
    /// 90 %.
    P90,
    /// 95 %.
    P95,
    /// 99 %.
    P99,
}

impl ConfidenceLevel {
    /// The level as a probability: `0.90`, `0.95` or `0.99`.
    #[must_use]
    pub fn value(self) -> f64 {
        match self {
            Self::P90 => 0.90,
            Self::P95 => 0.95,
            Self::P99 => 0.99,
        }
    }
}

/// A two-sided confidence interval around a sample mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate (sample mean).
    pub mean: f64,
    /// Half-width of the interval.
    pub half_width: f64,
    /// Confidence level used.
    pub confidence: ConfidenceLevel,
    /// Number of observations behind the estimate.
    pub count: u64,
}

impl ConfidenceInterval {
    /// Lower endpoint.
    #[must_use]
    pub fn lo(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper endpoint.
    #[must_use]
    pub fn hi(&self) -> f64 {
        self.mean + self.half_width
    }

    /// Whether `value` lies inside the interval.
    #[must_use]
    pub fn contains(&self, value: f64) -> bool {
        value >= self.lo() && value <= self.hi()
    }
}

/// Two-sided Student-t critical value for `df >= 1` degrees of freedom.
///
/// Exact table entries for small `df`, smooth interpolation to the normal
/// quantile for large `df`. Accuracy is better than 1% everywhere, which is
/// far below simulation noise.
fn t_critical(df: u64, confidence: ConfidenceLevel) -> f64 {
    // Table rows: df 1..=30; columns: 0.90, 0.95, 0.99.
    const TABLE: [[f64; 3]; 30] = [
        [6.314, 12.706, 63.657],
        [2.920, 4.303, 9.925],
        [2.353, 3.182, 5.841],
        [2.132, 2.776, 4.604],
        [2.015, 2.571, 4.032],
        [1.943, 2.447, 3.707],
        [1.895, 2.365, 3.499],
        [1.860, 2.306, 3.355],
        [1.833, 2.262, 3.250],
        [1.812, 2.228, 3.169],
        [1.796, 2.201, 3.106],
        [1.782, 2.179, 3.055],
        [1.771, 2.160, 3.012],
        [1.761, 2.145, 2.977],
        [1.753, 2.131, 2.947],
        [1.746, 2.120, 2.921],
        [1.740, 2.110, 2.898],
        [1.734, 2.101, 2.878],
        [1.729, 2.093, 2.861],
        [1.725, 2.086, 2.845],
        [1.721, 2.080, 2.831],
        [1.717, 2.074, 2.819],
        [1.714, 2.069, 2.807],
        [1.711, 2.064, 2.797],
        [1.708, 2.060, 2.787],
        [1.706, 2.056, 2.779],
        [1.703, 2.052, 2.771],
        [1.701, 2.048, 2.763],
        [1.699, 2.045, 2.756],
        [1.697, 2.042, 2.750],
    ];
    // Normal quantiles for the three levels (df -> infinity limit).
    const Z: [f64; 3] = [1.645, 1.960, 2.576];

    let col = match confidence {
        ConfidenceLevel::P90 => 0,
        ConfidenceLevel::P95 => 1,
        ConfidenceLevel::P99 => 2,
    };

    if df <= 30 {
        TABLE[(df - 1) as usize][col]
    } else {
        // Smooth df^-1 interpolation between the df=30 entry and the normal limit.
        let t30 = TABLE[29][col];
        let z = Z[col];
        let w = 30.0 / df as f64;
        z + (t30 - z) * w
    }
}

/// Student-t confidence interval for the mean of the observations in `stats`.
///
/// # Panics
/// Panics if `stats` holds fewer than two observations (no variance estimate).
#[must_use]
pub fn mean_confidence_interval(
    stats: &OnlineStats,
    confidence: ConfidenceLevel,
) -> ConfidenceInterval {
    assert!(
        stats.count() >= 2,
        "mean_confidence_interval: need at least 2 observations"
    );
    let t = t_critical(stats.count() - 1, confidence);
    ConfidenceInterval {
        mean: stats.mean(),
        half_width: t * stats.std_error(),
        confidence,
        count: stats.count(),
    }
}

/// A distribution-free confidence interval for a population median: two
/// order statistics of the sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MedianInterval {
    /// Lower endpoint, the `l`-th smallest observation.
    pub lo: f64,
    /// Upper endpoint, the `l`-th largest observation.
    pub hi: f64,
    /// Confidence level asked for.
    pub confidence: ConfidenceLevel,
    /// Exact coverage of the interval for continuous data, at least the
    /// level: `1 − 2·P(B < l)` for `B ~ Binomial(count, ½)`.
    pub coverage: f64,
    /// Number of observations behind the estimate.
    pub count: u64,
}

impl MedianInterval {
    /// Whether `value` lies inside the interval.
    #[must_use]
    pub fn contains(&self, value: f64) -> bool {
        value >= self.lo && value <= self.hi
    }
}

/// Distribution-free confidence interval for the median of the population
/// `values` were drawn from (independently).
///
/// Each observation falls below the population median with probability ½,
/// so the number below it is `B ~ Binomial(n, ½)`, and the `l`-th smallest
/// and `l`-th largest observations bracket it with probability
/// `1 − 2·P(B < l)` whatever the distribution. The interval takes the
/// largest `l` whose coverage still reaches `confidence`, so it always
/// contains the sample median.
///
/// Returns `None` when no pair of order statistics reaches the level: the
/// widest pair, the minimum and maximum, covers `1 − 2⁻⁽ⁿ⁻¹⁾`, so 95 %
/// needs six observations, 90 % five and 99 % eight.
#[must_use]
pub fn median_confidence_interval(
    values: &[f64],
    confidence: ConfidenceLevel,
) -> Option<MedianInterval> {
    let n = values.len();
    let tail = (1.0 - confidence.value()) / 2.0;
    // P(B ≤ k) for k = 0, 1, …, from the pmf's ratio recursion in log
    // space (2⁻ⁿ underflows for n > 1074).
    let mut log_pmf = -(n as f64) * std::f64::consts::LN_2;
    let mut below = 0.0;
    let mut l = 0;
    while l < n.div_ceil(2) {
        let next = below + log_pmf.exp();
        if next > tail {
            break;
        }
        below = next;
        log_pmf += ((n - l) as f64 / (l + 1) as f64).ln();
        l += 1;
    }
    if l == 0 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(MedianInterval {
        lo: sorted[l - 1],
        hi: sorted[n - l],
        confidence,
        coverage: 1.0 - 2.0 * below,
        count: n as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{sample, Exponential};
    use crate::rng::Xoshiro256StarStar;

    #[test]
    fn t_critical_matches_table() {
        assert!((t_critical(1, ConfidenceLevel::P95) - 12.706).abs() < 1e-9);
        assert!((t_critical(10, ConfidenceLevel::P95) - 2.228).abs() < 1e-9);
        assert!((t_critical(30, ConfidenceLevel::P99) - 2.750).abs() < 1e-9);
    }

    #[test]
    fn t_critical_large_df_approaches_normal() {
        assert!((t_critical(1_000_000, ConfidenceLevel::P95) - 1.960).abs() < 0.01);
        assert!(t_critical(31, ConfidenceLevel::P95) < t_critical(30, ConfidenceLevel::P95));
        assert!(t_critical(100, ConfidenceLevel::P95) > 1.960);
    }

    #[test]
    fn interval_geometry() {
        let ci = ConfidenceInterval {
            mean: 10.0,
            half_width: 2.0,
            confidence: ConfidenceLevel::P95,
            count: 5,
        };
        assert_eq!(ci.lo(), 8.0);
        assert_eq!(ci.hi(), 12.0);
        assert!(ci.contains(9.0));
        assert!(!ci.contains(12.5));
    }

    #[test]
    fn interval_covers_known_mean() {
        // 200 replications of an exponential(mean 2) sample mean: the 99% CI
        // should cover the true mean.
        let mut rng = Xoshiro256StarStar::seed_from_u64(99);
        let d = Exponential::with_mean(2.0);
        let mut reps = OnlineStats::new();
        for _ in 0..200 {
            let m: f64 = (0..50).map(|_| sample(&d, &mut rng)).sum::<f64>() / 50.0;
            reps.push(m);
        }
        let ci = mean_confidence_interval(&reps, ConfidenceLevel::P99);
        assert!(ci.contains(2.0), "CI [{}, {}] misses 2.0", ci.lo(), ci.hi());
    }

    #[test]
    fn median_interval_ranks_match_the_binomial_table() {
        // n = 6 at 95 %: only the extremes, coverage 1 − 2/64.
        let six = [6.0, 1.0, 5.0, 2.0, 4.0, 3.0];
        let ci = median_confidence_interval(&six, ConfidenceLevel::P95).unwrap();
        assert_eq!((ci.lo, ci.hi, ci.count), (1.0, 6.0, 6));
        assert!((ci.coverage - (1.0 - 2.0 / 64.0)).abs() < 1e-15);
        // n = 20 at 95 %: the 6th smallest and 6th largest (P(B ≤ 5) =
        // 0.0207 ≤ 0.025 < P(B ≤ 6) = 0.0577).
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        let ci = median_confidence_interval(&twenty, ConfidenceLevel::P95).unwrap();
        assert_eq!((ci.lo, ci.hi), (6.0, 15.0));
        assert!((ci.coverage - 0.958_610_5).abs() < 1e-6, "{}", ci.coverage);
        // Large n: no underflow, and the ranks close in on the median.
        let many: Vec<f64> = (0..5000).map(f64::from).collect();
        let ci = median_confidence_interval(&many, ConfidenceLevel::P99).unwrap();
        assert!(ci.lo < 2499.5 && 2499.5 < ci.hi);
        assert!(ci.hi - ci.lo < 200.0, "[{}, {}]", ci.lo, ci.hi);
        assert!(
            ci.coverage >= 0.99 && ci.coverage < 0.992,
            "{}",
            ci.coverage
        );
    }

    #[test]
    fn median_interval_needs_enough_observations_for_its_level() {
        let values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        for (level, min_n) in [
            (ConfidenceLevel::P90, 5),
            (ConfidenceLevel::P95, 6),
            (ConfidenceLevel::P99, 8),
        ] {
            for n in 0..min_n {
                assert_eq!(median_confidence_interval(&values[..n], level), None);
            }
            let ci = median_confidence_interval(&values[..min_n], level).unwrap();
            let sorted = {
                let mut v = values[..min_n].to_vec();
                v.sort_by(f64::total_cmp);
                v
            };
            assert_eq!((ci.lo, ci.hi), (sorted[0], sorted[min_n - 1]));
            assert!(ci.coverage >= level.value());
        }
    }

    #[test]
    fn median_interval_coverage_holds_on_known_distributions() {
        // 4000 samples of 25 from each law: the interval covers the true
        // median at its exact coverage (0.9567 for n = 25 at 95 %), whatever
        // the distribution, within four binomial standard errors.
        use crate::dist::{LogNormal, Pareto, Uniform};
        let laws: [(&dyn crate::dist::Distribution, f64); 4] = [
            (&Exponential::new(1.0), std::f64::consts::LN_2),
            (&Uniform::new(-1.0, 3.0), 1.0),
            (&LogNormal::new(0.5, 1.0), 0.5f64.exp()),
            (&Pareto::new(1.0, 1.5), 2f64.powf(1.0 / 1.5)),
        ];
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x3ed1a);
        for (law, true_median) in laws {
            let (trials, mut covered, mut coverage) = (4000, 0, 0.0);
            for _ in 0..trials {
                let sample: Vec<f64> = (0..25).map(|_| sample(law, &mut rng)).collect();
                let ci = median_confidence_interval(&sample, ConfidenceLevel::P95).unwrap();
                covered += usize::from(ci.contains(true_median));
                coverage = ci.coverage;
            }
            let rate = covered as f64 / f64::from(trials);
            let se = (coverage * (1.0 - coverage) / f64::from(trials)).sqrt();
            assert!(coverage >= 0.95);
            assert!(
                (rate - coverage).abs() < 4.0 * se,
                "median {true_median}: covered {rate}, exact {coverage}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least 2 observations")]
    fn mean_ci_requires_two_points() {
        let s = OnlineStats::from_slice(&[1.0]);
        let _ = mean_confidence_interval(&s, ConfidenceLevel::P95);
    }
}
