//! The verification sensor: estimating execution values from observations.
//!
//! The paper's protocol (end of Sec. 3): *"In this waiting period the
//! mechanism estimates the actual job processing rate at each computer and
//! uses it to determine the execution value t̃."* The paper does not give an
//! estimator; this module supplies the natural one. Under every service
//! model in [`crate::server`], the stationary mean response at machine `i`
//! is `t̃_i · x_i`, so
//!
//! ```text
//! t̃̂_i = (mean observed response) / x_i
//! ```
//!
//! is a consistent estimator (for the i.i.d. exponential model it is exactly
//! the maximum-likelihood estimator of the mean divided by a known
//! constant).
//!
//! [`EstimatorConfig`] adds two knobs used by the robustness ablation:
//! a cap on how many completions are observed (sampling) and multiplicative
//! observation noise.

use lb_stats::dist::{sample, LogNormal};
use lb_stats::online::OnlineStats;
use lb_stats::rng::Xoshiro256StarStar;

/// Configuration of the execution-value estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimatorConfig {
    /// Observe at most this many completions per machine (`None` = all).
    pub max_samples: Option<usize>,
    /// Multiplicative log-normal observation noise with this coefficient of
    /// variation (0 = noiseless measurement).
    pub noise_cv: f64,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        Self {
            max_samples: None,
            noise_cv: 0.0,
        }
    }
}

/// Accumulates response-time observations for one machine and produces the
/// execution-value estimate.
#[derive(Debug, Clone)]
pub struct ExecValueEstimator {
    stats: OnlineStats,
    config: EstimatorConfig,
}

impl ExecValueEstimator {
    /// Creates an estimator with the given configuration.
    #[must_use]
    pub fn new(config: EstimatorConfig) -> Self {
        Self {
            stats: OnlineStats::new(),
            config,
        }
    }

    /// Records one observed response time, applying configured noise and
    /// sample caps. `rng` drives the noise; it is unused when `noise_cv == 0`.
    pub fn observe(&mut self, response_time: f64, rng: &mut Xoshiro256StarStar) {
        if let Some(cap) = self.config.max_samples {
            if self.stats.count() as usize >= cap {
                return;
            }
        }
        let observed = if self.config.noise_cv > 0.0 {
            let noise = LogNormal::with_mean_cv(1.0, self.config.noise_cv);
            response_time * sample(&noise, rng)
        } else {
            response_time
        };
        self.stats.push(observed);
    }

    /// Number of observations used.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.stats.count()
    }

    /// Point estimate of the execution value given the known assigned rate.
    ///
    /// Returns `None` when the machine produced no observations (idle
    /// machines cannot be verified — the driver substitutes the *bid*, the
    /// only information available, which is also what a real implementation
    /// would have to do).
    #[must_use]
    pub fn estimate(&self, assigned_rate: f64) -> Option<f64> {
        if self.stats.is_empty() || assigned_rate <= 0.0 {
            None
        } else {
            Some(self.stats.mean() / assigned_rate)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServiceModel;
    use crate::workload::PoissonProcess;
    use lb_stats::ci::{mean_confidence_interval, ConfidenceInterval, ConfidenceLevel};

    /// Confidence interval for the execution value (requires ≥ 2 samples).
    fn estimate_ci(
        est: &ExecValueEstimator,
        assigned_rate: f64,
        confidence: ConfidenceLevel,
    ) -> Option<ConfidenceInterval> {
        if est.stats.count() < 2 || assigned_rate <= 0.0 {
            return None;
        }
        let ci = mean_confidence_interval(&est.stats, confidence);
        Some(ConfidenceInterval {
            mean: ci.mean / assigned_rate,
            half_width: ci.half_width / assigned_rate,
            ..ci
        })
    }

    #[test]
    fn noiseless_deterministic_recovery_is_exact() {
        let mut est = ExecValueEstimator::new(EstimatorConfig::default());
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        // Machine with t̃ = 2.5 at rate 4: every response is 10.0.
        for _ in 0..100 {
            est.observe(10.0, &mut rng);
        }
        let t = est.estimate(4.0).unwrap();
        assert!((t - 2.5).abs() < 1e-12);
    }

    #[test]
    fn exponential_model_recovery_converges() {
        let exec = 3.0;
        let rate = 2.0;
        let arrivals = PoissonProcess::new(rate, Xoshiro256StarStar::seed_from_u64(2))
            .arrivals_until(20_000.0);
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let responses =
            ServiceModel::StationaryExponential.responses(&arrivals, exec, rate, &mut rng);
        let mut est = ExecValueEstimator::new(EstimatorConfig::default());
        for &r in &responses {
            est.observe(r, &mut rng);
        }
        let t = est.estimate(rate).unwrap();
        assert!((t - exec).abs() / exec < 0.03, "estimate {t}");
        let ci = estimate_ci(&est, rate, ConfidenceLevel::P99).unwrap();
        assert!(
            ci.contains(exec),
            "CI [{}, {}] misses {exec}",
            ci.lo(),
            ci.hi()
        );
    }

    #[test]
    fn idle_machine_yields_none() {
        let est = ExecValueEstimator::new(EstimatorConfig::default());
        assert_eq!(est.estimate(1.0), None);
        assert_eq!(estimate_ci(&est, 1.0, ConfidenceLevel::P95), None);
        let mut est2 = ExecValueEstimator::new(EstimatorConfig::default());
        let mut rng = Xoshiro256StarStar::seed_from_u64(4);
        est2.observe(1.0, &mut rng);
        assert_eq!(est2.estimate(0.0), None);
    }

    #[test]
    fn sample_cap_is_respected() {
        let mut est = ExecValueEstimator::new(EstimatorConfig {
            max_samples: Some(10),
            noise_cv: 0.0,
        });
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        for i in 0..100 {
            est.observe(i as f64, &mut rng);
        }
        assert_eq!(est.samples(), 10);
        // Only the first 10 observations (0..9, mean 4.5) were used.
        assert!((est.estimate(1.0).unwrap() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn noise_is_unbiased_but_widens_spread() {
        let mut clean = ExecValueEstimator::new(EstimatorConfig::default());
        let mut noisy = ExecValueEstimator::new(EstimatorConfig {
            max_samples: None,
            noise_cv: 0.3,
        });
        let mut rng1 = Xoshiro256StarStar::seed_from_u64(6);
        let mut rng2 = Xoshiro256StarStar::seed_from_u64(7);
        for _ in 0..50_000 {
            clean.observe(5.0, &mut rng1);
            noisy.observe(5.0, &mut rng2);
        }
        let c = clean.estimate(1.0).unwrap();
        let n = noisy.estimate(1.0).unwrap();
        assert!((c - 5.0).abs() < 1e-12);
        assert!((n - 5.0).abs() < 0.05, "noisy estimate {n} biased");
        let ci_c = estimate_ci(&clean, 1.0, ConfidenceLevel::P95).unwrap();
        let ci_n = estimate_ci(&noisy, 1.0, ConfidenceLevel::P95).unwrap();
        assert!(ci_n.half_width > ci_c.half_width);
    }
}
