//! Mechanism quality metrics: frugality and performance degradation.
//!
//! Figure 6 of the paper compares the mechanism's **total payment** against
//! the **total valuation** and observes a ratio of at most ~2.5 on the
//! Table 1 system — the paper's frugality argument. Figure 1 reports the
//! **performance degradation** of each manipulation experiment relative to
//! the truthful optimum.

use crate::traits::MechanismOutcome;

/// Frugality ratio: total payment / total |valuation|.
///
/// The paper's lower bound is 1 (the mechanism must at least refund costs to
/// preserve voluntary participation); it reports an upper bound of ~2.5 for
/// the evaluated system.
///
/// Returns `f64::INFINITY` when the total valuation is zero.
#[must_use]
pub fn frugality_ratio(outcome: &MechanismOutcome) -> f64 {
    let valuation = outcome.total_valuation_abs();
    if valuation == 0.0 {
        f64::INFINITY
    } else {
        outcome.total_payment() / valuation
    }
}

/// Relative performance degradation of a realised latency against the
/// optimum: `(L − L*) / L*`.
///
/// # Panics
/// Panics if `optimal` is not strictly positive.
#[must_use]
pub fn degradation(actual: f64, optimal: f64) -> f64 {
    assert!(
        optimal > 0.0,
        "degradation: optimal latency must be positive"
    );
    (actual - optimal) / optimal
}

/// Closed-form frugality of the truthful profile on a *uniform* system of
/// `n` identical machines, under the contributed-latency valuation:
///
/// ```text
/// L* = R²t/n,   L_{-i} = R²t/(n−1),   Σ B = n(L_{-i} − L*) = R²t/(n−1)
/// ratio = 1 + ΣB / L* = 1 + n/(n−1)
/// ```
///
/// → 3 at `n = 2`, decreasing to 2 as `n → ∞`: the paper's ≤ 2.5 bound is a
/// *heterogeneity* effect of its 16-machine system, not a universal one
/// (uniform pairs pay 3×). Property-tested against the empirical ratio.
///
/// # Panics
/// Panics if `n < 2`.
#[must_use]
pub fn analytic_frugality_uniform_contributed(n: usize) -> f64 {
    assert!(
        n >= 2,
        "analytic_frugality_uniform_contributed: need n >= 2"
    );
    1.0 + n as f64 / (n as f64 - 1.0)
}

/// Closed-form frugality of the truthful profile on a uniform system under
/// the per-job valuation (the paper-faithful default): the valuation is
/// `Σ t·x_i = tR` while the bonus sum is `R²t/(n−1)`, so
///
/// ```text
/// ratio = 1 + R / (n − 1)
/// ```
///
/// — unlike the contributed model it *grows with the load* `R`, which is why
/// Figure 6's sweep peaks at the evaluated `R = 20`.
///
/// # Panics
/// Panics if `n < 2` or `r` is not positive.
#[must_use]
pub fn analytic_frugality_uniform_per_job(n: usize, r: f64) -> f64 {
    assert!(n >= 2, "analytic_frugality_uniform_per_job: need n >= 2");
    assert!(
        r.is_finite() && r > 0.0,
        "analytic_frugality_uniform_per_job: invalid rate"
    );
    1.0 + r / (n as f64 - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cb::CompensationBonusMechanism;
    use crate::profile::Profile;
    use crate::traits::run_mechanism;
    use lb_core::scenario::{paper_system, PAPER_ARRIVAL_RATE};

    #[test]
    fn analytic_uniform_frugality_matches_empirical() {
        for n in [2usize, 3, 8, 32] {
            let sys = lb_core::System::from_true_values(&vec![2.0; n]).unwrap();
            let r = 5.0;
            let profile = Profile::truthful(&sys, r).unwrap();

            let contributed =
                run_mechanism(&CompensationBonusMechanism::contributed(), &profile).unwrap();
            let want = analytic_frugality_uniform_contributed(n);
            let got = frugality_ratio(&contributed);
            assert!(
                (got - want).abs() < 1e-9,
                "contributed n={n}: {got} vs {want}"
            );

            let per_job = run_mechanism(&CompensationBonusMechanism::paper(), &profile).unwrap();
            let want = analytic_frugality_uniform_per_job(n, r);
            let got = frugality_ratio(&per_job);
            assert!((got - want).abs() < 1e-9, "per-job n={n}: {got} vs {want}");
        }
    }

    #[test]
    fn uniform_pair_pays_three_times_valuation() {
        assert!((analytic_frugality_uniform_contributed(2) - 3.0).abs() < 1e-12);
        assert!((analytic_frugality_uniform_contributed(1000) - 2.001_001).abs() < 1e-6);
    }

    #[test]
    fn truthful_paper_frugality_is_within_paper_bound() {
        let profile = Profile::truthful(&paper_system(), PAPER_ARRIVAL_RATE).unwrap();
        let out = run_mechanism(&CompensationBonusMechanism::paper(), &profile).unwrap();
        let ratio = frugality_ratio(&out);
        // Analytic under the per-job valuation: total valuation = 16·(20/5.1)
        // = 62.75, total bonus = Σ L_{-i} − 16·L* = 89.27, so the ratio is
        // (62.75 + 89.27)/62.75 = 2.42 — within the paper's ≤ 2.5 bound.
        assert!(ratio > 1.0, "ratio {ratio}");
        assert!(ratio <= 2.5, "ratio {ratio} above paper bound");
        assert!((ratio - 2.4226).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn degradation_of_optimum_is_zero() {
        assert_eq!(degradation(78.43, 78.43), 0.0);
        assert!((degradation(87.08, 78.43) - 0.1103).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "optimal latency must be positive")]
    fn degradation_rejects_bad_optimum() {
        let _ = degradation(1.0, 0.0);
    }
}
