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
//!
//! Without either knob the estimator's observations are exactly the
//! machine's response statistics, so it keeps no accumulator of its own:
//! [`ExecValueEstimator::estimate`] reads the statistics the caller already
//! keeps, and each job costs one Welford update, not two. With a knob it
//! keeps its own [`OnlineStats`] of the capped, noisy observations.
//! Noise is drawn from the machine's response stream, so the verification
//! kernel observes a machine's responses only after it has drawn all of
//! them; that order is part of the output.

use lb_stats::dist::LogNormal;
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

/// The execution-value estimate of one machine, with the observations of
/// its own that a sample cap or noise calls for.
#[derive(Debug, Clone)]
pub struct ExecValueEstimator {
    config: EstimatorConfig,
    /// Multiplicative observation noise, when `noise_cv > 0`.
    noise: Option<LogNormal>,
    /// The capped, noisy observations; `None` without either knob, when the
    /// estimate reads the machine's response statistics instead.
    sampled: Option<OnlineStats>,
}

impl ExecValueEstimator {
    /// Creates an estimator with the given configuration.
    ///
    /// # Panics
    /// Panics if `noise_cv` is infinite.
    #[must_use]
    pub fn new(config: EstimatorConfig) -> Self {
        let noise = (config.noise_cv > 0.0).then(|| LogNormal::with_mean_cv(1.0, config.noise_cv));
        let knobs = noise.is_some() || config.max_samples.is_some();
        Self {
            config,
            noise,
            sampled: knobs.then(OnlineStats::new),
        }
    }

    /// Whether the estimate reads observations of its own (a sample cap or
    /// noise is set) rather than the machine's response statistics; only
    /// then does [`Self::observe`] record anything.
    #[must_use]
    pub(crate) fn samples_apart(&self) -> bool {
        self.sampled.is_some()
    }

    /// Records one observed response time, applying configured noise and
    /// sample caps. `rng` drives the noise; it is unused when `noise_cv ==
    /// 0`. Without either knob this records nothing: the estimate reads
    /// the machine's response statistics instead.
    pub fn observe(&mut self, response_time: f64, rng: &mut Xoshiro256StarStar) {
        let Some(stats) = &mut self.sampled else {
            return;
        };
        if self
            .config
            .max_samples
            .is_some_and(|cap| stats.count() as usize >= cap)
        {
            return;
        }
        let observed = match &self.noise {
            Some(noise) => response_time * noise.draw(rng),
            None => response_time,
        };
        stats.push(observed);
    }

    /// The statistics the estimate reads: its own observations, or the
    /// machine's `responses` when it keeps none.
    fn observations<'a>(&'a self, responses: &'a OnlineStats) -> &'a OnlineStats {
        self.sampled.as_ref().unwrap_or(responses)
    }

    /// Point estimate of the execution value given the machine's response
    /// statistics and its known assigned rate: the mean of its own
    /// observations, or of `responses` when it keeps none, over the rate.
    ///
    /// Returns `None` when the machine produced no observations (idle
    /// machines cannot be verified — the driver substitutes the *bid*, the
    /// only information available, which is also what a real implementation
    /// would have to do).
    #[must_use]
    pub fn estimate(&self, responses: &OnlineStats, assigned_rate: f64) -> Option<f64> {
        let stats = self.observations(responses);
        if stats.is_empty() || assigned_rate <= 0.0 {
            None
        } else {
            Some(stats.mean() / assigned_rate)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServiceModel;
    use crate::workload::PoissonProcess;
    use lb_stats::ci::{mean_confidence_interval, ConfidenceInterval, ConfidenceLevel};

    /// One machine as the kernel keeps it: its response statistics and the
    /// estimator observing the same responses.
    struct Machine {
        responses: OnlineStats,
        est: ExecValueEstimator,
    }

    impl Machine {
        fn new(config: EstimatorConfig) -> Self {
            Self {
                responses: OnlineStats::new(),
                est: ExecValueEstimator::new(config),
            }
        }

        fn observe(&mut self, r: f64, rng: &mut Xoshiro256StarStar) {
            self.responses.push(r);
            self.est.observe(r, rng);
        }

        fn estimate(&self, assigned_rate: f64) -> Option<f64> {
            self.est.estimate(&self.responses, assigned_rate)
        }

        /// Confidence interval for the execution value (requires ≥ 2
        /// samples).
        fn estimate_ci(
            &self,
            assigned_rate: f64,
            confidence: ConfidenceLevel,
        ) -> Option<ConfidenceInterval> {
            let stats = self.est.observations(&self.responses);
            if stats.count() < 2 || assigned_rate <= 0.0 {
                return None;
            }
            let ci = mean_confidence_interval(stats, confidence);
            Some(ConfidenceInterval {
                mean: ci.mean / assigned_rate,
                half_width: ci.half_width / assigned_rate,
                ..ci
            })
        }
    }

    #[test]
    fn noiseless_deterministic_recovery_is_exact() {
        let mut m = Machine::new(EstimatorConfig::default());
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        // Machine with t̃ = 2.5 at rate 4: every response is 10.0.
        for _ in 0..100 {
            m.observe(10.0, &mut rng);
        }
        let t = m.estimate(4.0).unwrap();
        assert!((t - 2.5).abs() < 1e-12);
    }

    #[test]
    fn a_plain_estimator_keeps_no_observations_of_its_own() {
        let mut m = Machine::new(EstimatorConfig::default());
        assert!(!m.est.samples_apart());
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        let before = rng.clone();
        for r in [1.0, 2.0, 6.0] {
            m.observe(r, &mut rng);
        }
        assert_eq!(rng, before, "a plain estimator draws nothing");
        assert_eq!(m.estimate(1.5), Some(3.0 / 1.5));
        for config in [
            EstimatorConfig {
                max_samples: Some(1),
                noise_cv: 0.0,
            },
            EstimatorConfig {
                max_samples: None,
                noise_cv: 0.1,
            },
        ] {
            assert!(
                ExecValueEstimator::new(config).samples_apart(),
                "{config:?}"
            );
        }
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
        let mut m = Machine::new(EstimatorConfig::default());
        for &r in &responses {
            m.observe(r, &mut rng);
        }
        let t = m.estimate(rate).unwrap();
        assert!((t - exec).abs() / exec < 0.03, "estimate {t}");
        let ci = m.estimate_ci(rate, ConfidenceLevel::P99).unwrap();
        assert!(
            ci.contains(exec),
            "CI [{}, {}] misses {exec}",
            ci.lo(),
            ci.hi()
        );
    }

    #[test]
    fn idle_machine_yields_none() {
        let m = Machine::new(EstimatorConfig::default());
        assert_eq!(m.estimate(1.0), None);
        assert_eq!(m.estimate_ci(1.0, ConfidenceLevel::P95), None);
        let mut m2 = Machine::new(EstimatorConfig::default());
        let mut rng = Xoshiro256StarStar::seed_from_u64(4);
        m2.observe(1.0, &mut rng);
        assert_eq!(m2.estimate(0.0), None);
    }

    #[test]
    fn sample_cap_is_respected() {
        let mut m = Machine::new(EstimatorConfig {
            max_samples: Some(10),
            noise_cv: 0.0,
        });
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        for i in 0..100 {
            m.observe(i as f64, &mut rng);
        }
        assert_eq!(m.est.observations(&m.responses).count(), 10);
        // Only the first 10 observations (0..9, mean 4.5) were used.
        assert!((m.estimate(1.0).unwrap() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn noise_is_unbiased_but_widens_spread() {
        let mut clean = Machine::new(EstimatorConfig::default());
        let mut noisy = Machine::new(EstimatorConfig {
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
        let ci_c = clean.estimate_ci(1.0, ConfidenceLevel::P95).unwrap();
        let ci_n = noisy.estimate_ci(1.0, ConfidenceLevel::P95).unwrap();
        assert!(ci_n.half_width > ci_c.half_width);
    }
}
