//! Mergeable latency sketches: the workspace's one summary of observed
//! durations.
//!
//! A [`LatencySketch`] summarizes a population of wall-clock durations with
//! two mergeable parts:
//!
//! * [`OnlineStats`] — exact count / mean / variance / extrema, merged with
//!   the Chan et al. parallel update, so the fleet-wide mean and max are
//!   exact regardless of how the population was partitioned;
//! * log₁₀-domain bin counts with a *fixed geometry* — every sketch in the
//!   workspace covers `[10^-7.5, 10^4.5)` seconds with 40 bins per decade,
//!   so any two sketches merge by bin addition and the merged quantiles are
//!   **identical** to the quantiles of a sketch built from the concatenated
//!   population (merge is exact; only the quantile *read* is approximate).
//!
//! The log domain buys a scale-free accuracy contract: a quantile read is
//! off by at most [`SKETCH_RTOL`] *relative* (two bin widths,
//! `10^0.05 - 1 ≈ 12%`) whether the population is microseconds or hours.
//! Reads are additionally clamped to the exact `[min, max]` tracked by the
//! stats side, so the q→0/q→1 edges and underflow mass degrade to the exact
//! extrema instead of the domain bounds. Overflow mass (durations of
//! `10^4.5` s and more) reads as that edge, clamped.
//!
//! The same sketch backs the telemetry metrics registry's histograms
//! (`lb_top`) and every profiler read over recorded span durations, so
//! both serve the same quantile for the same durations.

use crate::online::OnlineStats;

/// Lower edge of the sketch domain, in log₁₀ seconds (`10^-7.5 ≈ 32 ns`).
const SKETCH_LOG_LO: f64 = -7.5;
/// Exclusive upper edge of the sketch domain, in log₁₀ seconds
/// (`10^4.5 ≈ 8.8 hours`).
const SKETCH_LOG_HI: f64 = 4.5;
/// Bin count: 12 decades × 40 bins per decade.
const SKETCH_BINS: usize = 480;
/// Documented relative quantile tolerance of a sketch read: two log-domain
/// bin widths, `10^(2/40) - 1 ≈ 0.122`, rounded up. Populations whose
/// adjacent order statistics straddle a bin boundary can shift a read by
/// one extra bin, hence two widths rather than one.
pub const SKETCH_RTOL: f64 = 0.13;

/// A mergeable summary of a wall-clock duration population (seconds).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySketch {
    stats: OnlineStats,
    bins: Box<[u64; SKETCH_BINS]>,
    underflow: u64,
    overflow: u64,
}

impl Default for LatencySketch {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencySketch {
    /// An empty sketch over the workspace-standard log domain.
    #[must_use]
    pub fn new() -> Self {
        Self {
            stats: OnlineStats::new(),
            bins: Box::new([0; SKETCH_BINS]),
            underflow: 0,
            overflow: 0,
        }
    }

    /// Builds a sketch from a slice in one pass.
    #[must_use]
    pub fn from_slice(seconds: &[f64]) -> Self {
        let mut s = Self::new();
        for &v in seconds {
            s.record(v);
        }
        s
    }

    /// Records one duration in seconds. Zero durations (below the clock's
    /// resolution) land in the underflow bin and read back as the exact
    /// minimum.
    ///
    /// # Panics
    /// Panics (in debug builds) on NaN or negative durations.
    pub fn record(&mut self, seconds: f64) {
        debug_assert!(
            seconds >= 0.0 && !seconds.is_nan(),
            "LatencySketch: duration must be a non-negative number, got {seconds}"
        );
        self.stats.push(seconds);
        *self.bin(seconds) += 1;
    }

    /// The count a duration lands in. log10(0) = -inf falls below the
    /// domain and is counted as underflow.
    fn bin(&mut self, seconds: f64) -> &mut u64 {
        let log = seconds.log10();
        if log < SKETCH_LOG_LO {
            &mut self.underflow
        } else if log >= SKETCH_LOG_HI {
            &mut self.overflow
        } else {
            let frac = (log - SKETCH_LOG_LO) / (SKETCH_LOG_HI - SKETCH_LOG_LO);
            let idx = ((frac * SKETCH_BINS as f64) as usize).min(SKETCH_BINS - 1);
            &mut self.bins[idx]
        }
    }

    /// Merges another sketch into this one. Exact: the result is identical
    /// to a sketch built from the concatenated populations.
    pub fn merge(&mut self, other: &Self) {
        self.stats.merge(&other.stats);
        for (a, b) in self.bins.iter_mut().zip(other.bins.iter()) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
    }

    /// Number of recorded durations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    /// Whether the sketch holds no observations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }

    /// Exact mean duration (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// Exact sample standard deviation (0 with fewer than two durations).
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.stats.std_dev()
    }

    /// Exact sum of durations (0 when empty).
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.stats.sum()
    }

    /// Exact minimum (`+inf` when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.stats.min()
    }

    /// Exact maximum (`-inf` when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.stats.max()
    }

    /// Approximate `q`-quantile in seconds, within [`SKETCH_RTOL`] relative
    /// of the population quantile, clamped to the exact `[min, max]`.
    ///
    /// # Panics
    /// Panics if the sketch is empty or `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(
            !self.is_empty() && (0.0..=1.0).contains(&q),
            "LatencySketch: quantile {q} of a sketch holding {} durations",
            self.count()
        );
        let log_q = self.log_quantile(q * self.count() as f64);
        // Underflow ranks read as the lower domain edge; those are
        // sub-resolution durations, so read them as the exact min.
        if log_q <= SKETCH_LOG_LO {
            return self.stats.min();
        }
        10f64.powf(log_q).clamp(self.stats.min(), self.stats.max())
    }

    /// The log₁₀ duration at cumulative rank `target`, interpolated linearly
    /// within its bin; out-of-range mass reads as the domain edges.
    fn log_quantile(&self, target: f64) -> f64 {
        let mut cum = self.underflow as f64;
        if target <= cum {
            return SKETCH_LOG_LO;
        }
        let w = (SKETCH_LOG_HI - SKETCH_LOG_LO) / SKETCH_BINS as f64;
        for (i, &c) in self.bins.iter().enumerate() {
            let next = cum + c as f64;
            if target <= next && c > 0 {
                let frac = (target - cum) / c as f64;
                return SKETCH_LOG_LO + w * (i as f64 + frac);
            }
            cum = next;
        }
        SKETCH_LOG_HI
    }

    /// Median (approximate, see [`Self::quantile`]).
    #[must_use]
    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }

    /// 99th percentile (approximate, see [`Self::quantile`]).
    #[must_use]
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{nearest_rank, Rng, Xoshiro256StarStar};

    fn log_uniform(rng: &mut Xoshiro256StarStar, lo: f64, hi: f64) -> f64 {
        let u = rng.next_f64();
        10f64.powf(lo + u * (hi - lo))
    }

    #[test]
    fn merge_is_exact_against_whole_population() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(42);
        let values: Vec<f64> = (0..1000)
            .map(|_| log_uniform(&mut rng, -6.0, 1.0))
            .collect();
        let whole = LatencySketch::from_slice(&values);
        let mut merged = LatencySketch::from_slice(&values[..313]);
        merged.merge(&LatencySketch::from_slice(&values[313..700]));
        merged.merge(&LatencySketch::from_slice(&values[700..]));
        assert_eq!(merged.count(), whole.count());
        assert_eq!(merged.max(), whole.max());
        assert_eq!(merged.min(), whole.min());
        // The histogram side is bit-identical, so every quantile read agrees.
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(merged.quantile(q), whole.quantile(q), "q = {q}");
        }
    }

    #[test]
    fn quantiles_track_exact_nearest_rank_within_tolerance() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let values: Vec<f64> = (0..5000)
            .map(|_| log_uniform(&mut rng, -5.0, 2.0))
            .collect();
        let sketch = LatencySketch::from_slice(&values);
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.01, 0.1, 0.5, 0.9, 0.99] {
            let exact = sorted[nearest_rank(q, sorted.len()) - 1];
            let approx = sketch.quantile(q);
            let rel = (approx - exact).abs() / exact;
            assert!(
                rel <= SKETCH_RTOL,
                "q = {q}: exact {exact}, sketch {approx}, rel {rel}"
            );
        }
    }

    #[test]
    fn extremes_read_back_exactly() {
        let sketch = LatencySketch::from_slice(&[3e-4, 1e-2, 0.5]);
        assert_eq!(sketch.quantile(0.0), 3e-4);
        assert_eq!(sketch.quantile(1.0), 0.5);
        assert_eq!(sketch.max(), 0.5);
        assert_eq!(sketch.mean(), (3e-4 + 1e-2 + 0.5) / 3.0);
    }

    #[test]
    fn zero_durations_underflow_and_clamp_to_min() {
        let sketch = LatencySketch::from_slice(&[0.0, 0.0, 1e-3]);
        assert_eq!(sketch.count(), 3);
        assert_eq!(sketch.min(), 0.0);
        assert_eq!(sketch.quantile(0.1), 0.0, "underflow mass reads as min");
    }

    #[test]
    fn out_of_domain_durations_land_in_the_flow_bins() {
        let sketch = LatencySketch::from_slice(&[0.0, 1e-3, 1e5]);
        let binned: u64 = sketch.bins.iter().sum();
        assert_eq!((sketch.underflow, binned, sketch.overflow), (1, 1, 1));
    }

    #[test]
    #[should_panic(expected = "quantile NaN")]
    fn nan_quantile_is_rejected() {
        let _ = LatencySketch::from_slice(&[1.0]).quantile(f64::NAN);
    }
}
