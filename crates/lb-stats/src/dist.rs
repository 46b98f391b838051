//! Probability distributions implemented from first principles.
//!
//! The workspace deliberately avoids pulling a distributions crate: every
//! sampler used by the simulator is implemented and tested here, so the whole
//! stochastic pipeline is auditable. All samplers draw from the [`Rng`] trait
//! and are therefore deterministic given a seed.

use crate::rng::Rng;

/// A real-valued probability distribution that can be sampled.
///
/// The trait is object-safe so heterogeneous service-time models can be boxed
/// inside simulator servers.
pub trait Distribution {
    /// Draws one sample using the supplied generator.
    fn sample(&self, rng: &mut dyn FnMut() -> u64) -> f64;

    /// The theoretical mean of the distribution, if finite.
    fn mean(&self) -> Option<f64>;

    /// The theoretical variance of the distribution, if finite.
    fn variance(&self) -> Option<f64>;
}

/// Adapter: draw one sample from `dist` using any [`Rng`].
pub fn sample<D: Distribution + ?Sized, R: Rng>(dist: &D, rng: &mut R) -> f64 {
    dist.sample(&mut || rng.next_u64())
}

/// The object-safe sampler's bit source as an [`Rng`], so a sampler with a
/// generic draw runs the same code through [`Distribution::sample`].
struct Bits<'a>(&'a mut dyn FnMut() -> u64);

impl Rng for Bits<'_> {
    fn next_u64(&mut self) -> u64 {
        (self.0)()
    }
}

/// Degenerate distribution: always returns the same value.
///
/// Used for deterministic service times (paper's latency model is a mean-value
/// model, so deterministic per-job times reproduce it with zero variance).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Deterministic {
    /// The constant value returned by every sample.
    pub value: f64,
}

impl Deterministic {
    /// Creates a point mass at `value`.
    ///
    /// # Panics
    /// Panics if `value` is not finite.
    #[must_use]
    pub fn new(value: f64) -> Self {
        assert!(value.is_finite(), "Deterministic: value must be finite");
        Self { value }
    }
}

impl Distribution for Deterministic {
    fn sample(&self, _rng: &mut dyn FnMut() -> u64) -> f64 {
        self.value
    }
    fn mean(&self) -> Option<f64> {
        Some(self.value)
    }
    fn variance(&self) -> Option<f64> {
        Some(0.0)
    }
}

/// Continuous uniform distribution on `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Creates a uniform distribution on `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if the bounds are non-finite or `lo > hi`.
    #[must_use]
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "Uniform: invalid bounds"
        );
        Self { lo, hi }
    }
}

impl Distribution for Uniform {
    fn sample(&self, rng: &mut dyn FnMut() -> u64) -> f64 {
        self.lo + (self.hi - self.lo) * Bits(rng).next_f64()
    }
    fn mean(&self) -> Option<f64> {
        Some(0.5 * (self.lo + self.hi))
    }
    fn variance(&self) -> Option<f64> {
        let w = self.hi - self.lo;
        Some(w * w / 12.0)
    }
}

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
///
/// Sampled by inversion: `-ln(U)/λ`. This is the interarrival law of the
/// Poisson job streams in the paper's system model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given rate (> 0).
    ///
    /// # Panics
    /// Panics if `rate` is not strictly positive and finite.
    #[must_use]
    pub fn new(rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "Exponential: rate must be > 0"
        );
        Self { rate }
    }

    /// Creates an exponential distribution with the given mean (> 0).
    #[must_use]
    pub fn with_mean(mean: f64) -> Self {
        assert!(
            mean.is_finite() && mean > 0.0,
            "Exponential: mean must be > 0"
        );
        Self::new(1.0 / mean)
    }

    /// The rate parameter λ.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// One draw from a concrete generator, bit for bit [`sample`]`(self,
    /// rng)` but with no `dyn` call per draw: the simulator's per-job path.
    #[inline]
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        -rng.next_f64_open().ln() / self.rate
    }
}

impl Distribution for Exponential {
    fn sample(&self, rng: &mut dyn FnMut() -> u64) -> f64 {
        self.draw(&mut Bits(rng))
    }
    fn mean(&self) -> Option<f64> {
        Some(1.0 / self.rate)
    }
    fn variance(&self) -> Option<f64> {
        Some(1.0 / (self.rate * self.rate))
    }
}

/// Pareto (Type I) distribution with scale `x_m > 0` and shape `alpha > 0`.
///
/// Heavy-tailed service times: used to stress the rate estimator beyond the
/// exponential case (M/G/1 light-load justification in the paper, Sec. 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    scale: f64,
    shape: f64,
}

impl Pareto {
    /// Creates a Pareto distribution.
    ///
    /// # Panics
    /// Panics unless `scale > 0` and `shape > 0`.
    #[must_use]
    pub fn new(scale: f64, shape: f64) -> Self {
        assert!(
            scale.is_finite() && scale > 0.0,
            "Pareto: scale must be > 0"
        );
        assert!(
            shape.is_finite() && shape > 0.0,
            "Pareto: shape must be > 0"
        );
        Self { scale, shape }
    }

    /// Pareto with the given mean and shape (`shape > 1` so the mean exists).
    ///
    /// # Panics
    /// Panics unless `mean > 0` and `shape > 1`.
    #[must_use]
    pub fn with_mean(mean: f64, shape: f64) -> Self {
        assert!(shape > 1.0, "Pareto: mean finite only for shape > 1");
        assert!(mean.is_finite() && mean > 0.0, "Pareto: mean must be > 0");
        Self::new(mean * (shape - 1.0) / shape, shape)
    }
}

impl Distribution for Pareto {
    fn sample(&self, rng: &mut dyn FnMut() -> u64) -> f64 {
        self.scale / Bits(rng).next_f64_open().powf(1.0 / self.shape)
    }
    fn mean(&self) -> Option<f64> {
        (self.shape > 1.0).then(|| self.scale * self.shape / (self.shape - 1.0))
    }
    fn variance(&self) -> Option<f64> {
        (self.shape > 2.0).then(|| {
            let a = self.shape;
            self.scale * self.scale * a / ((a - 1.0) * (a - 1.0) * (a - 2.0))
        })
    }
}

/// Standard normal deviate via the Marsaglia polar method (no cached spare,
/// so the sampler stays `&self`).
#[inline]
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u = 2.0 * rng.next_f64() - 1.0;
        let v = 2.0 * rng.next_f64() - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * ((-2.0 * s.ln()) / s).sqrt();
        }
    }
}

/// Log-normal distribution: `exp(N(mu, sigma²))`.
///
/// A positively skewed service-time model with all moments finite; used in
/// estimator-robustness ablations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal with underlying normal parameters `(mu, sigma)`.
    ///
    /// # Panics
    /// Panics unless both parameters are finite and `sigma >= 0`.
    #[must_use]
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(
            mu.is_finite() && sigma.is_finite() && sigma >= 0.0,
            "LogNormal: invalid parameters"
        );
        Self { mu, sigma }
    }

    /// Log-normal with the given (arithmetic) mean and coefficient of variation.
    ///
    /// # Panics
    /// Panics unless `mean > 0` and `cv >= 0`.
    #[must_use]
    pub fn with_mean_cv(mean: f64, cv: f64) -> Self {
        assert!(mean > 0.0 && cv >= 0.0, "LogNormal: invalid mean/cv");
        let sigma2 = (1.0 + cv * cv).ln();
        Self::new(mean.ln() - 0.5 * sigma2, sigma2.sqrt())
    }

    /// One draw from a concrete generator, bit for bit [`sample`]`(self,
    /// rng)` but with no `dyn` call per draw.
    #[inline]
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }
}

impl Distribution for LogNormal {
    fn sample(&self, rng: &mut dyn FnMut() -> u64) -> f64 {
        self.draw(&mut Bits(rng))
    }
    fn mean(&self) -> Option<f64> {
        Some((self.mu + 0.5 * self.sigma * self.sigma).exp())
    }
    fn variance(&self) -> Option<f64> {
        let s2 = self.sigma * self.sigma;
        Some((s2.exp() - 1.0) * (2.0 * self.mu + s2).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::OnlineStats;
    use crate::rng::{Rng, Xoshiro256StarStar};

    fn empirical<D: Distribution>(d: &D, n: usize, seed: u64) -> OnlineStats {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let mut stats = OnlineStats::new();
        let mut next = move || rng.next_u64();
        for _ in 0..n {
            stats.push(d.sample(&mut next));
        }
        stats
    }

    fn assert_moments<D: Distribution>(d: &D, n: usize, seed: u64, mean_tol: f64, var_tol: f64) {
        let s = empirical(d, n, seed);
        let m = d.mean().expect("finite mean");
        let v = d.variance().expect("finite variance");
        assert!(
            (s.mean() - m).abs() < mean_tol,
            "mean {} vs {}",
            s.mean(),
            m
        );
        assert!(
            (s.variance() - v).abs() < var_tol,
            "var {} vs {}",
            s.variance(),
            v
        );
    }

    #[test]
    fn deterministic_is_constant() {
        let d = Deterministic::new(3.25);
        let mut rng = Xoshiro256StarStar::seed_from_u64(0);
        let mut next = move || rng.next_u64();
        for _ in 0..10 {
            assert_eq!(d.sample(&mut next), 3.25);
        }
    }

    #[test]
    fn uniform_moments() {
        assert_moments(&Uniform::new(2.0, 6.0), 200_000, 1, 0.02, 0.05);
    }

    #[test]
    fn exponential_moments() {
        assert_moments(&Exponential::new(0.5), 200_000, 2, 0.03, 0.15);
    }

    #[test]
    fn exponential_with_mean_roundtrip() {
        let d = Exponential::with_mean(4.0);
        assert!((d.mean().unwrap() - 4.0).abs() < 1e-12);
        assert!((d.rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn exponential_samples_are_positive() {
        let d = Exponential::new(3.0);
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let mut next = move || rng.next_u64();
        for _ in 0..10_000 {
            assert!(d.sample(&mut next) > 0.0);
        }
    }

    #[test]
    fn generic_draws_are_the_object_safe_samples_bit_for_bit() {
        let exp = Exponential::with_mean(0.7);
        let log_normal = LogNormal::with_mean_cv(1.0, 0.4);
        let (mut a, mut b) = (
            Xoshiro256StarStar::seed_from_u64(31),
            Xoshiro256StarStar::seed_from_u64(31),
        );
        for _ in 0..10_000 {
            assert_eq!(exp.draw(&mut a).to_bits(), sample(&exp, &mut b).to_bits());
            assert_eq!(
                log_normal.draw(&mut a).to_bits(),
                sample(&log_normal, &mut b).to_bits()
            );
        }
        assert_eq!(a, b, "both consumed the same bits");
    }

    #[test]
    fn pareto_moments_with_light_tail() {
        // shape = 4 so the variance exists and converges reasonably.
        let d = Pareto::with_mean(2.0, 4.0);
        assert!((d.mean().unwrap() - 2.0).abs() < 1e-12);
        assert_moments(&d, 400_000, 4, 0.03, 0.2);
    }

    #[test]
    fn pareto_samples_respect_scale() {
        let d = Pareto::new(1.5, 2.0);
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let mut next = move || rng.next_u64();
        for _ in 0..10_000 {
            assert!(d.sample(&mut next) >= 1.5);
        }
    }

    #[test]
    fn lognormal_moments() {
        let d = LogNormal::with_mean_cv(3.0, 0.5);
        assert!((d.mean().unwrap() - 3.0).abs() < 1e-9);
        assert_moments(&d, 400_000, 7, 0.03, 0.12);
    }
}
