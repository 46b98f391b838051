//! Student-t confidence intervals for simulation output analysis.
//!
//! The standard way to report discrete-event simulation results: a
//! t-interval over independent observations of the mean. The level is a
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
    #[should_panic(expected = "at least 2 observations")]
    fn mean_ci_requires_two_points() {
        let s = OnlineStats::from_slice(&[1.0]);
        let _ = mean_confidence_interval(&s, ConfidenceLevel::P95);
    }
}
