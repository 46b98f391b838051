//! Load-dependent latency functions.
//!
//! The paper models each computer by a **linear** latency function
//! `l(x) = t · x` (Sec. 2, Eq. 1): `l(x)` is the time to complete one job
//! when the machine receives jobs at rate `x`. The paper notes that this
//! form "could represent the expected waiting time in an M/G/1 queue, under
//! light load conditions". The [`LatencyFunction`] trait generalises the
//! model so the convex solver and the mechanism baselines also cover M/M/1
//! (the authors' companion paper); [`Affine`] and [`Polynomial`] are the
//! further convex families the solver's tests cross-check against.

/// A load-dependent per-job latency function `l(x)` for one machine.
///
/// Implementations must guarantee that the **total latency** `x · l(x)` is
/// convex and differentiable on the feasible domain, which is what the
/// optimality theory (Theorem 2.1 and its KKT generalisation) requires.
pub trait LatencyFunction {
    /// Per-job latency `l(x)` at arrival rate `x >= 0`.
    ///
    /// For capacitated families, returns `f64::INFINITY` at or above capacity.
    fn per_job(&self, x: f64) -> f64;

    /// Total latency contribution `x · l(x)` at arrival rate `x`.
    fn total(&self, x: f64) -> f64 {
        if x == 0.0 {
            0.0
        } else {
            x * self.per_job(x)
        }
    }

    /// Derivative of the total latency, `d/dx [x · l(x)]` — the KKT marginal.
    fn marginal_total(&self, x: f64) -> f64;

    /// Inverse of [`LatencyFunction::marginal_total`]: the rate `x >= 0` at
    /// which the marginal equals `lambda`, clamped to 0 when the marginal at
    /// zero already exceeds `lambda`.
    ///
    /// A closed form exists for every family shipped here; generic
    /// implementations may bisect.
    fn inverse_marginal(&self, lambda: f64) -> f64;

    /// Upper bound on the feasible arrival rate, if the family is
    /// capacitated (e.g. the service rate `mu` for M/M/1).
    fn capacity(&self) -> Option<f64> {
        None
    }
}

/// The paper's linear latency: `l(x) = t·x`, total `t·x²`, marginal `2tx`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Linear {
    /// The latency coefficient `t` (inverse processing rate).
    pub t: f64,
}

impl Linear {
    /// Creates a linear latency function.
    ///
    /// # Panics
    /// Panics unless `t` is finite and strictly positive.
    #[must_use]
    pub fn new(t: f64) -> Self {
        assert!(t.is_finite() && t > 0.0, "Linear: t must be finite and > 0");
        Self { t }
    }
}

impl LatencyFunction for Linear {
    fn per_job(&self, x: f64) -> f64 {
        self.t * x
    }
    fn marginal_total(&self, x: f64) -> f64 {
        2.0 * self.t * x
    }
    fn inverse_marginal(&self, lambda: f64) -> f64 {
        (lambda / (2.0 * self.t)).max(0.0)
    }
}

/// Affine latency `l(x) = a + b·x`: a fixed per-job overhead plus a linear
/// congestion term. Total `ax + bx²`, marginal `a + 2bx`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Affine {
    /// Fixed per-job latency `a >= 0`.
    pub a: f64,
    /// Congestion coefficient `b > 0`.
    pub b: f64,
}

impl Affine {
    /// Creates an affine latency function.
    ///
    /// # Panics
    /// Panics unless `a >= 0` and `b > 0` (both finite).
    #[must_use]
    pub fn new(a: f64, b: f64) -> Self {
        assert!(
            a.is_finite() && a >= 0.0,
            "Affine: a must be finite and >= 0"
        );
        assert!(b.is_finite() && b > 0.0, "Affine: b must be finite and > 0");
        Self { a, b }
    }
}

impl LatencyFunction for Affine {
    fn per_job(&self, x: f64) -> f64 {
        self.a + self.b * x
    }
    fn marginal_total(&self, x: f64) -> f64 {
        self.a + 2.0 * self.b * x
    }
    fn inverse_marginal(&self, lambda: f64) -> f64 {
        ((lambda - self.a) / (2.0 * self.b)).max(0.0)
    }
}

/// M/M/1 expected response time `l(x) = 1/(mu − x)` for `x < mu`.
///
/// This is the latency family of the authors' companion mechanism paper
/// (Grosu & Chronopoulos, Cluster 2002, [ref.&nbsp;8]); total `x/(mu − x)`,
/// marginal `mu/(mu − x)²`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mm1 {
    /// Service rate `mu > 0` (jobs per unit time).
    pub mu: f64,
}

impl Mm1 {
    /// Creates an M/M/1 latency function.
    ///
    /// # Panics
    /// Panics unless `mu` is finite and strictly positive.
    #[must_use]
    pub fn new(mu: f64) -> Self {
        assert!(mu.is_finite() && mu > 0.0, "Mm1: mu must be finite and > 0");
        Self { mu }
    }
}

impl LatencyFunction for Mm1 {
    fn per_job(&self, x: f64) -> f64 {
        if x >= self.mu {
            f64::INFINITY
        } else {
            1.0 / (self.mu - x)
        }
    }
    fn marginal_total(&self, x: f64) -> f64 {
        if x >= self.mu {
            f64::INFINITY
        } else {
            let d = self.mu - x;
            self.mu / (d * d)
        }
    }
    fn inverse_marginal(&self, lambda: f64) -> f64 {
        // Solve mu/(mu - x)^2 = lambda  =>  x = mu - sqrt(mu/lambda).
        if lambda <= 1.0 / self.mu {
            // Marginal at x = 0 is 1/mu; below that no positive rate is optimal.
            0.0
        } else {
            self.mu - (self.mu / lambda).sqrt()
        }
    }
    fn capacity(&self) -> Option<f64> {
        Some(self.mu)
    }
}

/// Polynomial latency `l(x) = Σ c_k x^k` with non-negative coefficients,
/// which guarantees convexity of the total `x·l(x)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Polynomial {
    /// Coefficients `c_0, c_1, …` of the per-job latency.
    coeffs: Vec<f64>,
}

impl Polynomial {
    /// Creates a polynomial latency function from per-job coefficients.
    ///
    /// # Panics
    /// Panics if `coeffs` is empty, any coefficient is negative or
    /// non-finite, or all coefficients are zero.
    #[must_use]
    pub fn new(coeffs: Vec<f64>) -> Self {
        assert!(
            !coeffs.is_empty(),
            "Polynomial: need at least one coefficient"
        );
        assert!(
            coeffs.iter().all(|c| c.is_finite() && *c >= 0.0),
            "Polynomial: coefficients must be finite and >= 0"
        );
        assert!(
            coeffs.iter().any(|&c| c > 0.0),
            "Polynomial: all-zero latency is invalid"
        );
        Self { coeffs }
    }
}

impl LatencyFunction for Polynomial {
    fn per_job(&self, x: f64) -> f64 {
        // Horner evaluation.
        self.coeffs.iter().rev().fold(0.0, |acc, &c| acc * x + c)
    }
    fn marginal_total(&self, x: f64) -> f64 {
        // d/dx [x * Σ c_k x^k] = Σ (k+1) c_k x^k.
        self.coeffs
            .iter()
            .enumerate()
            .rev()
            .fold(0.0, |acc, (k, &c)| acc * x + (k as f64 + 1.0) * c)
    }
    fn inverse_marginal(&self, lambda: f64) -> f64 {
        // Marginal is strictly increasing where any k>=1 coefficient is
        // positive; bisect on [0, hi].
        if self.marginal_total(0.0) >= lambda {
            return 0.0;
        }
        let mut hi = 1.0f64;
        let mut guard = 0;
        while self.marginal_total(hi) < lambda {
            hi *= 2.0;
            guard += 1;
            if guard > 1024 {
                // Marginal is constant (pure c_0 latency): infinite rate would
                // be needed; cap at a huge sentinel the solver will reject.
                return f64::MAX.sqrt();
            }
        }
        let mut lo = 0.0f64;
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.marginal_total(mid) < lambda {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_marginal_numerically<F: LatencyFunction>(f: &F, xs: &[f64], tol: f64) {
        let h = 1e-6;
        for &x in xs {
            let num = (f.total(x + h) - f.total((x - h).max(0.0))) / (h + (x - (x - h).max(0.0)));
            let ana = f.marginal_total(x);
            assert!(
                (num - ana).abs() < tol * (1.0 + ana.abs()),
                "x={x}: numeric {num} vs analytic {ana}"
            );
        }
    }

    fn check_inverse_marginal<F: LatencyFunction>(f: &F, lambdas: &[f64]) {
        for &l in lambdas {
            let x = f.inverse_marginal(l);
            assert!(x >= 0.0);
            if x > 0.0 {
                assert!(
                    (f.marginal_total(x) - l).abs() < 1e-6 * (1.0 + l),
                    "lambda={l}, x={x}"
                );
            } else {
                assert!(f.marginal_total(0.0) >= l - 1e-12);
            }
        }
    }

    #[test]
    fn linear_basics() {
        let f = Linear::new(2.0);
        assert_eq!(f.per_job(3.0), 6.0);
        assert_eq!(f.total(3.0), 18.0);
        assert_eq!(f.marginal_total(3.0), 12.0);
        assert_eq!(f.capacity(), None);
        check_marginal_numerically(&f, &[0.0, 0.5, 2.0, 10.0], 1e-5);
        check_inverse_marginal(&f, &[0.0, 0.1, 1.0, 50.0]);
    }

    #[test]
    fn linear_total_at_zero_is_zero() {
        assert_eq!(Linear::new(5.0).total(0.0), 0.0);
    }

    #[test]
    fn affine_basics() {
        let f = Affine::new(1.0, 0.5);
        assert_eq!(f.per_job(2.0), 2.0);
        assert_eq!(f.total(2.0), 4.0);
        assert_eq!(f.marginal_total(2.0), 3.0);
        check_marginal_numerically(&f, &[0.0, 1.0, 4.0], 1e-5);
        check_inverse_marginal(&f, &[0.5, 1.0, 2.0, 10.0]);
        // Below the zero-load marginal the inverse clamps at zero.
        assert_eq!(f.inverse_marginal(0.5), 0.0);
    }

    #[test]
    fn mm1_basics() {
        let f = Mm1::new(4.0);
        assert!((f.per_job(2.0) - 0.5).abs() < 1e-15);
        assert!((f.total(2.0) - 1.0).abs() < 1e-15);
        assert!((f.marginal_total(2.0) - 1.0).abs() < 1e-15);
        assert_eq!(f.capacity(), Some(4.0));
        check_marginal_numerically(&f, &[0.0, 1.0, 3.0], 1e-4);
        check_inverse_marginal(&f, &[0.1, 0.25, 1.0, 100.0]);
    }

    #[test]
    fn mm1_saturates_at_capacity() {
        let f = Mm1::new(2.0);
        assert_eq!(f.per_job(2.0), f64::INFINITY);
        assert_eq!(f.per_job(3.0), f64::INFINITY);
        assert_eq!(f.marginal_total(2.5), f64::INFINITY);
    }

    #[test]
    fn mm1_inverse_marginal_below_zero_load_marginal() {
        let f = Mm1::new(4.0);
        // marginal at 0 is 1/mu = 0.25.
        assert_eq!(f.inverse_marginal(0.2), 0.0);
        assert!(f.inverse_marginal(0.26) > 0.0);
    }

    #[test]
    fn polynomial_matches_linear_special_case() {
        let p = Polynomial::new(vec![0.0, 3.0]); // l(x) = 3x
        let l = Linear::new(3.0);
        for x in [0.0, 0.4, 2.0] {
            assert!((p.per_job(x) - l.per_job(x)).abs() < 1e-12);
            assert!((p.marginal_total(x) - l.marginal_total(x)).abs() < 1e-12);
        }
    }

    #[test]
    fn polynomial_marginal_and_inverse() {
        let p = Polynomial::new(vec![1.0, 2.0, 0.5]); // l = 1 + 2x + 0.5x²
        check_marginal_numerically(&p, &[0.0, 0.7, 3.0], 1e-4);
        check_inverse_marginal(&p, &[1.0, 2.0, 17.0, 400.0]);
    }

    #[test]
    fn polynomial_constant_latency_inverse_is_capped() {
        let p = Polynomial::new(vec![2.0]); // l = 2, total = 2x, marginal = 2
        assert_eq!(p.inverse_marginal(1.0), 0.0);
        // Any lambda above the constant marginal can never be reached.
        assert!(p.inverse_marginal(3.0) > 1e100);
    }

    #[test]
    #[should_panic(expected = "all-zero")]
    fn polynomial_rejects_all_zero() {
        let _ = Polynomial::new(vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "must be finite and > 0")]
    fn linear_rejects_nonpositive() {
        let _ = Linear::new(0.0);
    }

    #[test]
    fn trait_objects_are_usable() {
        let fns: Vec<Box<dyn LatencyFunction>> = vec![
            Box::new(Linear::new(1.0)),
            Box::new(Mm1::new(2.0)),
            Box::new(Affine::new(0.1, 1.0)),
        ];
        let total: f64 = fns.iter().map(|f| f.total(0.5)).sum();
        assert!(total > 0.0);
    }
}
