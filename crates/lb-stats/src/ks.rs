//! One-sample Kolmogorov–Smirnov goodness-of-fit test.
//!
//! Used by the simulator's validation tests to check distributional claims
//! that moment comparisons can miss — e.g. that interarrival times of the
//! Poisson workload are *exponential*, not merely mean-correct.

/// Result of a one-sample KS test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KsTest {
    /// The KS statistic `D_n = sup |F_n(x) − F(x)|`.
    pub statistic: f64,
    /// Asymptotic p-value (Kolmogorov distribution, Marsaglia-style series).
    pub p_value: f64,
    /// Sample size.
    pub n: usize,
}

impl KsTest {
    /// Whether the null hypothesis (sample drawn from `cdf`) is rejected at
    /// significance `alpha`.
    #[must_use]
    pub fn rejects_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// A sample [`ks_test`] cannot test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KsError {
    /// The sample has no observations.
    EmptySample,
    /// The sample holds a NaN, which has no place in the order.
    NanInSample,
}

impl std::fmt::Display for KsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::EmptySample => "ks_test: empty sample",
            Self::NanInSample => "ks_test: NaN in sample",
        })
    }
}

impl std::error::Error for KsError {}

/// Runs a one-sample KS test of `sample` against the continuous CDF `cdf`.
///
/// # Errors
/// [`KsError::EmptySample`] for an empty sample, [`KsError::NanInSample`]
/// for a sample holding a NaN.
pub fn ks_test<F: Fn(f64) -> f64>(sample: &[f64], cdf: F) -> Result<KsTest, KsError> {
    if sample.is_empty() {
        return Err(KsError::EmptySample);
    }
    if sample.iter().any(|x| x.is_nan()) {
        return Err(KsError::NanInSample);
    }
    let mut sorted = sample.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let nf = n as f64;
    let mut d = 0.0f64;
    for (i, &x) in sorted.iter().enumerate() {
        let f = cdf(x).clamp(0.0, 1.0);
        let upper = (i as f64 + 1.0) / nf - f;
        let lower = f - i as f64 / nf;
        d = d.max(upper).max(lower);
    }
    Ok(KsTest {
        statistic: d,
        p_value: kolmogorov_sf((nf.sqrt() + 0.12 + 0.11 / nf.sqrt()) * d),
        n,
    })
}

/// Survival function of the Kolmogorov distribution,
/// `Q(t) = 2 Σ_{k≥1} (−1)^{k−1} exp(−2k²t²)`.
fn kolmogorov_sf(t: f64) -> f64 {
    if t <= 0.0 {
        return 1.0;
    }
    if t > 8.0 {
        return 0.0;
    }
    let mut sum = 0.0;
    let mut sign = 1.0;
    for k in 1..=100 {
        let kf = f64::from(k);
        let term = (-2.0 * kf * kf * t * t).exp();
        sum += sign * term;
        sign = -sign;
        if term < 1e-16 {
            break;
        }
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

/// CDF of the exponential distribution with the given rate.
pub fn exponential_cdf(rate: f64) -> impl Fn(f64) -> f64 {
    move |x: f64| {
        if x <= 0.0 {
            0.0
        } else {
            1.0 - (-rate * x).exp()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{sample, Exponential, LogNormal, Uniform};
    use crate::rng::Xoshiro256StarStar;

    /// CDF of the uniform distribution on `[lo, hi]`.
    fn uniform_cdf(lo: f64, hi: f64) -> impl Fn(f64) -> f64 {
        move |x: f64| ((x - lo) / (hi - lo)).clamp(0.0, 1.0)
    }

    fn draw<D: crate::dist::Distribution>(d: &D, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        (0..n).map(|_| sample(d, &mut rng)).collect()
    }

    #[test]
    fn exponential_sample_passes_against_its_own_cdf() {
        let s = draw(&Exponential::new(2.0), 5_000, 1);
        let test = ks_test(&s, exponential_cdf(2.0)).unwrap();
        assert!(
            !test.rejects_at(0.01),
            "D = {}, p = {}",
            test.statistic,
            test.p_value
        );
    }

    #[test]
    fn uniform_sample_passes_against_its_own_cdf() {
        let s = draw(&Uniform::new(-1.0, 3.0), 5_000, 2);
        let test = ks_test(&s, uniform_cdf(-1.0, 3.0)).unwrap();
        assert!(!test.rejects_at(0.01), "p = {}", test.p_value);
    }

    #[test]
    fn wrong_rate_is_rejected() {
        let s = draw(&Exponential::new(2.0), 5_000, 3);
        let test = ks_test(&s, exponential_cdf(1.0)).unwrap();
        assert!(test.rejects_at(0.001), "p = {}", test.p_value);
        assert!(test.statistic > 0.1);
    }

    #[test]
    fn wrong_family_with_same_mean_is_rejected() {
        // LogNormal with mean 0.5 vs exponential(2) (mean 0.5): moments agree
        // at first order, the KS test still separates them.
        let s = draw(&LogNormal::with_mean_cv(0.5, 0.4), 5_000, 4);
        let test = ks_test(&s, exponential_cdf(2.0)).unwrap();
        assert!(test.rejects_at(0.001), "p = {}", test.p_value);
    }

    #[test]
    fn kolmogorov_sf_reference_values() {
        // Q(0.83) ≈ 0.496, Q(1.36) ≈ 0.049 (classic table values).
        assert!((kolmogorov_sf(0.828) - 0.5).abs() < 0.01);
        assert!((kolmogorov_sf(1.358) - 0.05).abs() < 0.005);
        assert_eq!(kolmogorov_sf(0.0), 1.0);
        assert_eq!(kolmogorov_sf(9.0), 0.0);
    }

    #[test]
    fn empty_and_nan_samples_are_typed_errors() {
        assert_eq!(
            ks_test(&[], exponential_cdf(1.0)),
            Err(KsError::EmptySample)
        );
        assert_eq!(
            ks_test(&[0.5, f64::NAN, 1.0], exponential_cdf(1.0)),
            Err(KsError::NanInSample)
        );
        assert_eq!(KsError::NanInSample.to_string(), "ks_test: NaN in sample");
    }
}
