//! Autocovariance and autocorrelation analysis for simulation output.
//!
//! Response times out of a queue are serially correlated; treating them as
//! i.i.d. understates the variance of their mean. These helpers quantify
//! that correlation and estimate the effective sample size of an
//! autocorrelated series.

/// Sample autocovariance of `series` at `lag` (biased, normalised by `n`,
/// the standard spectral-friendly convention).
///
/// # Panics
/// Panics if the series is shorter than `lag + 2`.
#[must_use]
fn autocovariance(series: &[f64], lag: usize) -> f64 {
    assert!(
        series.len() >= lag + 2,
        "autocovariance: series too short for lag {lag}"
    );
    let n = series.len();
    let mean = series.iter().sum::<f64>() / n as f64;
    let mut acc = 0.0;
    for i in 0..n - lag {
        acc += (series[i] - mean) * (series[i + lag] - mean);
    }
    acc / n as f64
}

/// Sample autocorrelation at `lag` (`1.0` at lag 0 for non-constant series).
///
/// Returns 0 for (numerically) constant series.
///
/// # Panics
/// Panics if the series is shorter than `lag + 2`.
#[must_use]
pub fn autocorrelation(series: &[f64], lag: usize) -> f64 {
    let c0 = autocovariance(series, 0);
    if c0 <= 1e-300 {
        return 0.0;
    }
    autocovariance(series, lag) / c0
}

/// Integrated autocorrelation time `τ = 1 + 2 Σ_k ρ(k)`, with the sum
/// truncated at the first non-positive autocorrelation (Geyer's initial
/// positive sequence — the standard practical truncation).
///
/// `τ ≈ 1` for i.i.d. data; the variance of the sample mean is inflated by
/// `τ` relative to the i.i.d. formula.
///
/// # Panics
/// Panics if the series has fewer than 3 observations.
#[must_use]
fn integrated_autocorrelation_time(series: &[f64]) -> f64 {
    assert!(
        series.len() >= 3,
        "integrated_autocorrelation_time: series too short"
    );
    let max_lag = (series.len() / 4).max(1);
    let mut tau = 1.0;
    for lag in 1..=max_lag {
        if series.len() < lag + 2 {
            break;
        }
        let rho = autocorrelation(series, lag);
        if rho <= 0.0 {
            break;
        }
        tau += 2.0 * rho;
    }
    tau
}

/// Effective sample size `n / τ` of an autocorrelated series.
///
/// # Panics
/// Panics if the series has fewer than 3 observations.
#[must_use]
pub fn effective_sample_size(series: &[f64]) -> f64 {
    series.len() as f64 / integrated_autocorrelation_time(series)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{sample, Exponential};
    use crate::rng::Xoshiro256StarStar;

    fn iid_series(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let d = Exponential::with_mean(1.0);
        (0..n).map(|_| sample(&d, &mut rng)).collect()
    }

    fn ar1_series(n: usize, phi: f64, seed: u64) -> Vec<f64> {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let d = Exponential::with_mean(1.0);
        let mut x = 0.0;
        (0..n)
            .map(|_| {
                x = phi * x + sample(&d, &mut rng);
                x
            })
            .collect()
    }

    #[test]
    fn lag_zero_autocorrelation_is_one() {
        let s = iid_series(1000, 1);
        assert!((autocorrelation(&s, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn iid_series_has_negligible_autocorrelation() {
        let s = iid_series(50_000, 2);
        for lag in [1usize, 2, 5, 10] {
            let rho = autocorrelation(&s, lag);
            assert!(rho.abs() < 0.02, "lag {lag}: rho {rho}");
        }
        let tau = integrated_autocorrelation_time(&s);
        assert!(tau < 1.2, "tau {tau}");
    }

    #[test]
    fn ar1_autocorrelation_matches_theory() {
        let phi = 0.7;
        let s = ar1_series(200_000, phi, 3);
        // AR(1): rho(k) = phi^k.
        for lag in 1..=4usize {
            let rho = autocorrelation(&s, lag);
            let expect = phi.powi(i32::try_from(lag).unwrap());
            assert!((rho - expect).abs() < 0.03, "lag {lag}: {rho} vs {expect}");
        }
    }

    #[test]
    fn ar1_integrated_time_matches_theory() {
        // tau = (1+phi)/(1-phi) for AR(1).
        let phi = 0.5;
        let s = ar1_series(200_000, phi, 4);
        let tau = integrated_autocorrelation_time(&s);
        let expect = (1.0 + phi) / (1.0 - phi);
        assert!((tau - expect).abs() < 0.3, "tau {tau} vs {expect}");
        let ess = effective_sample_size(&s);
        assert!((ess - s.len() as f64 / expect).abs() / ess < 0.2);
    }

    #[test]
    fn constant_series_is_handled() {
        let s = vec![2.0; 100];
        assert_eq!(autocorrelation(&s, 1), 0.0);
    }

    #[test]
    #[should_panic(expected = "series too short")]
    fn short_series_panics() {
        let _ = autocovariance(&[1.0, 2.0], 5);
    }
}
