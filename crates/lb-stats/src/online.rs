//! Single-pass, numerically stable summary statistics.
//!
//! [`OnlineStats`] implements Welford's algorithm with the Chan et al.
//! pairwise-merge extension, so partial summaries computed on different
//! shards or threads can be reduced without precision loss — the pattern
//! [`crate::sketch::LatencySketch`] uses for its exact moments.

/// Streaming count / mean / variance / extrema accumulator (Welford).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Builds an accumulator from a slice in one pass.
    #[must_use]
    pub fn from_slice(values: &[f64]) -> Self {
        let mut s = Self::new();
        for &v in values {
            s.push(v);
        }
        s
    }

    /// Adds one observation.
    ///
    /// # Panics
    /// Panics (in debug builds) if `value` is NaN — a NaN observation would
    /// silently poison every subsequent statistic.
    pub fn push(&mut self, value: f64) {
        debug_assert!(!value.is_nan(), "OnlineStats: NaN observation");
        self.count += 1;
        self.sum += value;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merges another accumulator into this one (Chan et al. parallel update).
    pub fn merge(&mut self, other: &Self) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no observations have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all observations (0 when empty).
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Sample mean (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 for fewer than two observations).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean (`s / sqrt(n)`, 0 when empty).
    #[must_use]
    pub fn std_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Smallest observation (`+inf` when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The raw Welford state `(count, mean, m2, min, max, sum)`, for
    /// serializing a partial summary across a wire or process boundary.
    /// Inverse of [`Self::from_parts`].
    #[must_use]
    pub fn parts(&self) -> (u64, f64, f64, f64, f64, f64) {
        (self.count, self.mean, self.m2, self.min, self.max, self.sum)
    }

    /// Rebuilds an accumulator from the state captured by [`Self::parts`].
    ///
    /// Returns `None` when the state could not have come from a valid
    /// accumulator: NaN anywhere, negative `m2`, non-finite moments for a
    /// non-empty summary, or a non-empty payload claiming `count == 0`.
    #[must_use]
    pub fn from_parts(
        count: u64,
        mean: f64,
        m2: f64,
        min: f64,
        max: f64,
        sum: f64,
    ) -> Option<Self> {
        if [mean, m2, min, max, sum].iter().any(|v| v.is_nan()) || m2 < 0.0 {
            return None;
        }
        if count == 0 {
            // The only empty state is the canonical one — anything else is a
            // corrupted frame, not a summary.
            return (mean == 0.0 && m2 == 0.0 && sum == 0.0 && min > max).then(Self::new);
        }
        if !(mean.is_finite() && m2.is_finite() && sum.is_finite()) || min > max {
            return None;
        }
        Some(Self {
            count,
            mean,
            m2,
            min,
            max,
            sum,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_neutral() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.std_error(), 0.0);
    }

    #[test]
    fn known_small_sample() {
        let s = OnlineStats::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!((s.sum() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn single_observation() {
        let s = OnlineStats::from_slice(&[3.5]);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 3.5);
        assert_eq!(s.max(), 3.5);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let whole = OnlineStats::from_slice(&xs);
        let mut a = OnlineStats::from_slice(&xs[..37]);
        let b = OnlineStats::from_slice(&xs[37..]);
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.variance() - whole.variance()).abs() < 1e-10);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::from_slice(&[1.0, 2.0, 3.0]);
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);

        let mut e = OnlineStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn welford_is_stable_for_large_offsets() {
        // Classic catastrophic-cancellation scenario for naive sum-of-squares.
        let offset = 1e9;
        let s =
            OnlineStats::from_slice(&[offset + 4.0, offset + 7.0, offset + 13.0, offset + 16.0]);
        assert!((s.mean() - (offset + 10.0)).abs() < 1e-3);
        assert!(
            (s.variance() - 30.0).abs() < 1e-6,
            "variance = {}",
            s.variance()
        );
    }

    #[test]
    fn parts_round_trip_is_exact() {
        let s = OnlineStats::from_slice(&[2.0, 4.0, 8.0, 16.0]);
        let (count, mean, m2, min, max, sum) = s.parts();
        let back = OnlineStats::from_parts(count, mean, m2, min, max, sum).unwrap();
        assert_eq!(back, s);

        let empty = OnlineStats::new();
        let (count, mean, m2, min, max, sum) = empty.parts();
        let back = OnlineStats::from_parts(count, mean, m2, min, max, sum).unwrap();
        assert_eq!(back, empty);
    }

    #[test]
    fn from_parts_rejects_corrupted_states() {
        // NaN, negative m2, inverted extrema, phantom-empty payloads.
        assert!(OnlineStats::from_parts(1, f64::NAN, 0.0, 1.0, 1.0, 1.0).is_none());
        assert!(OnlineStats::from_parts(2, 1.0, -0.5, 0.0, 2.0, 2.0).is_none());
        assert!(OnlineStats::from_parts(2, 1.0, 0.0, 2.0, 0.0, 2.0).is_none());
        assert!(OnlineStats::from_parts(0, 1.0, 0.0, 1.0, 1.0, 1.0).is_none());
        assert!(OnlineStats::from_parts(1, f64::INFINITY, 0.0, 1.0, 1.0, 1.0).is_none());
    }
}
