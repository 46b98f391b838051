//! Adaptive quadrature for payment integrals.
//!
//! The Archer–Tardos payment rule integrates the work curve
//! `w_i(u, b_{-i})` over all bids `u ≥ b_i` (an improper integral). For the
//! linear latency family this has a closed form; this module provides an
//! independent numerical path so the closed form can be cross-checked and so
//! non-linear latency families can reuse the same payment rule.

use crate::error::MechanismError;
use lb_core::CoreError;

/// Adaptive Simpson quadrature of `f` over `[a, b]` to absolute tolerance
/// `tol`.
///
/// # Errors
/// Returns [`MechanismError::QuadratureFailed`] if the recursion depth limit
/// is reached before the error estimate falls below `tol` or the integrand
/// produces non-finite values, and a typed validation error for an invalid
/// interval or tolerance (fuzzed inputs must never abort).
fn integrate<F: Fn(f64) -> f64>(f: &F, a: f64, b: f64, tol: f64) -> Result<f64, MechanismError> {
    if !(a.is_finite() && b.is_finite() && a <= b) {
        return Err(CoreError::InvalidParameter {
            name: "integration bound",
            value: b - a,
        }
        .into());
    }
    if !(tol.is_finite() && tol > 0.0) {
        return Err(CoreError::InvalidParameter {
            name: "integration tolerance",
            value: tol,
        }
        .into());
    }
    if a == b {
        return Ok(0.0);
    }
    let m = 0.5 * (a + b);
    let fa = f(a);
    let fb = f(b);
    let fm = f(m);
    let whole = simpson(a, b, fa, fm, fb);
    adaptive(f, a, b, fa, fm, fb, whole, tol, 60)
}

/// Improper integral of `f` over `[a, ∞)` via the substitution
/// `u = a + s/(1−s)`, `du = ds/(1−s)²`, mapping the half-line onto `[0, 1)`.
///
/// `f` must decay fast enough for the integral to exist (the Archer–Tardos
/// work curves decay like `1/u²`).
///
/// # Errors
/// Returns [`MechanismError::QuadratureFailed`] if the transformed integral
/// does not converge within the depth limit, or a typed validation error for
/// a non-finite lower bound.
pub fn integrate_to_infinity<F: Fn(f64) -> f64>(
    f: &F,
    a: f64,
    tol: f64,
) -> Result<f64, MechanismError> {
    if !a.is_finite() {
        return Err(CoreError::InvalidParameter {
            name: "integration bound",
            value: a,
        }
        .into());
    }
    let g = |s: f64| -> f64 {
        if s >= 1.0 {
            return 0.0;
        }
        let one_minus = 1.0 - s;
        let u = a + s / one_minus;
        f(u) / (one_minus * one_minus)
    };
    // Stop slightly short of 1 to avoid the (removable, decaying) endpoint.
    integrate(&g, 0.0, 1.0 - 1e-12, tol)
}

fn simpson(a: f64, b: f64, fa: f64, fm: f64, fb: f64) -> f64 {
    (b - a) / 6.0 * (fa + 4.0 * fm + fb)
}

#[allow(clippy::too_many_arguments)]
fn adaptive<F: Fn(f64) -> f64>(
    f: &F,
    a: f64,
    b: f64,
    fa: f64,
    fm: f64,
    fb: f64,
    whole: f64,
    tol: f64,
    depth: u32,
) -> Result<f64, MechanismError> {
    let m = 0.5 * (a + b);
    let lm = 0.5 * (a + m);
    let rm = 0.5 * (m + b);
    let flm = f(lm);
    let frm = f(rm);
    let left = simpson(a, m, fa, flm, fm);
    let right = simpson(m, b, fm, frm, fb);
    let delta = left + right - whole;
    if !delta.is_finite() {
        // A non-finite integrand can never converge; bail out immediately
        // instead of recursing the full depth on poisoned estimates.
        return Err(MechanismError::QuadratureFailed {
            estimate: delta.abs(),
        });
    }
    if delta.abs() <= 15.0 * tol || (b - a) < 1e-14 {
        // Richardson extrapolation term improves the estimate one order.
        return Ok(left + right + delta / 15.0);
    }
    if depth == 0 {
        return Err(MechanismError::QuadratureFailed {
            estimate: delta.abs(),
        });
    }
    let l = adaptive(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)?;
    let r = adaptive(f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1)?;
    Ok(l + r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integrates_polynomials_exactly() {
        // Simpson is exact for cubics.
        let f = |x: f64| 3.0 * x * x * x - x + 2.0;
        let got = integrate(&f, 0.0, 2.0, 1e-12).unwrap();
        // Antiderivative: 3/4 x^4 - x²/2 + 2x -> 12 - 2 + 4 = 14.
        assert!((got - 14.0).abs() < 1e-10, "got {got}");
    }

    #[test]
    fn integrates_transcendentals() {
        let got = integrate(&f64::sin, 0.0, std::f64::consts::PI, 1e-12).unwrap();
        assert!((got - 2.0).abs() < 1e-9, "got {got}");
        let got = integrate(&|x: f64| x.exp(), 0.0, 1.0, 1e-12).unwrap();
        assert!((got - (std::f64::consts::E - 1.0)).abs() < 1e-9);
    }

    #[test]
    fn degenerate_interval_is_zero() {
        assert_eq!(integrate(&|x: f64| x, 3.0, 3.0, 1e-9).unwrap(), 0.0);
    }

    #[test]
    fn improper_integral_of_inverse_square() {
        // ∫_1^∞ du/u² = 1.
        let got = integrate_to_infinity(&|u: f64| 1.0 / (u * u), 1.0, 1e-12).unwrap();
        assert!((got - 1.0).abs() < 1e-8, "got {got}");
    }

    #[test]
    fn improper_integral_of_archer_tardos_shape() {
        // ∫_b^∞ R²/(1+Su)² du = R²/(S(1+Sb)); check with R=20, S=4.1, b=1.
        let r2 = 400.0;
        let s = 4.1;
        let b = 1.0;
        let f = |u: f64| r2 / ((1.0 + s * u) * (1.0 + s * u));
        let got = integrate_to_infinity(&f, b, 1e-10).unwrap();
        let want = r2 / (s * (1.0 + s * b));
        assert!((got - want).abs() < 1e-6, "{got} vs {want}");
    }

    #[test]
    fn improper_integral_exponential_decay() {
        // ∫_0^∞ e^-u du = 1.
        let got = integrate_to_infinity(&|u: f64| (-u).exp(), 0.0, 1e-10).unwrap();
        assert!((got - 1.0).abs() < 1e-7, "got {got}");
    }

    #[test]
    fn invalid_inputs_yield_typed_errors_not_panics() {
        // Regression for the fuzz no-abort policy: these used to assert.
        assert!(integrate(&|x: f64| x, 1.0, 0.0, 1e-9).is_err());
        assert!(integrate(&|x: f64| x, 0.0, f64::INFINITY, 1e-9).is_err());
        assert!(integrate(&|x: f64| x, 0.0, 1.0, 0.0).is_err());
        assert!(integrate(&|x: f64| x, 0.0, 1.0, f64::NAN).is_err());
        assert!(integrate_to_infinity(&|u: f64| (-u).exp(), f64::NAN, 1e-9).is_err());
    }

    #[test]
    fn non_finite_integrand_fails_fast() {
        // A pole inside the interval poisons the Simpson estimates with
        // inf/NaN; the integrator must answer QuadratureFailed, not recurse
        // forever or return a poisoned value.
        let got = integrate(&|x: f64| 1.0 / x, -1.0, 1.0, 1e-9);
        assert!(
            matches!(got, Err(MechanismError::QuadratureFailed { .. })),
            "{got:?}"
        );
    }
}
