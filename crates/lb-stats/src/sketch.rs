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
//! The same sketch backs the profiler's cross-shard rollup (`/profile`) and
//! the telemetry metrics registry (`/metrics`, `lb_top`), so both serve the
//! same quantile for the same durations.
//!
//! [`WireSketch`] is the frame payload (lb-proto encodes it): the raw Welford
//! state plus the raw bin counts. Decoding *validates* — NaN moments,
//! negative `m2`, mismatched geometry or count mismatches between the two
//! parts are rejected as corrupt rather than merged into the fleet rollup.

use crate::online::OnlineStats;
use std::fmt;

/// Lower edge of the sketch domain, in log₁₀ seconds (`10^-7.5 ≈ 32 ns`).
const SKETCH_LOG_LO: f64 = -7.5;
/// Exclusive upper edge of the sketch domain, in log₁₀ seconds
/// (`10^4.5 ≈ 8.8 hours`).
const SKETCH_LOG_HI: f64 = 4.5;
/// Bin count: 12 decades × 40 bins per decade.
pub const SKETCH_BINS: usize = 480;
/// Documented relative quantile tolerance of a sketch read: two log-domain
/// bin widths, `10^(2/40) - 1 ≈ 0.122`, rounded up. Populations whose
/// adjacent order statistics straddle a bin boundary can shift a read by
/// one extra bin, hence two widths rather than one.
pub const SKETCH_RTOL: f64 = 0.13;

/// Why a [`WireSketch`] was rejected on decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The Welford state was not a valid accumulator (NaN, negative `m2`,
    /// inverted extrema, or a phantom non-empty empty state).
    Stats,
    /// The bin geometry differs from the workspace constant, or the bin
    /// counts overflow.
    Geometry,
    /// The two parts disagree about how many observations they hold.
    CountMismatch,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Stats => write!(f, "invalid Welford state in sketch frame"),
            WireError::Geometry => write!(f, "sketch frame histogram geometry mismatch"),
            WireError::CountMismatch => {
                write!(f, "sketch frame stats/histogram count mismatch")
            }
        }
    }
}

impl std::error::Error for WireError {}

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

    /// Records `n` observations of the same duration in O(1): how a
    /// block-timed profiler gives each machine of a block the block's mean.
    ///
    /// # Panics
    /// Panics (in debug builds) on NaN or negative durations.
    pub fn record_n(&mut self, seconds: f64, n: u64) {
        debug_assert!(
            seconds >= 0.0 && !seconds.is_nan(),
            "LatencySketch: duration must be a non-negative number, got {seconds}"
        );
        let sum = seconds * n as f64;
        if let Some(group) = OnlineStats::from_parts(n, seconds, 0.0, seconds, seconds, sum) {
            self.stats.merge(&group);
            *self.bin(seconds) += n;
        }
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

    /// Serializes the sketch for the wire. Inverse of [`Self::from_wire`].
    #[must_use]
    pub fn to_wire(&self) -> WireSketch {
        let (count, mean, m2, min, max, sum) = self.stats.parts();
        WireSketch {
            count,
            mean,
            m2,
            min,
            max,
            sum,
            log_lo: SKETCH_LOG_LO,
            log_hi: SKETCH_LOG_HI,
            bins: self.bins.to_vec(),
            underflow: self.underflow,
            overflow: self.overflow,
        }
    }

    /// Validates and rebuilds a sketch from a wire frame.
    ///
    /// # Errors
    /// Returns a [`WireError`] when the frame could not have been produced
    /// by [`Self::to_wire`] — corrupt moments, foreign geometry, or
    /// disagreeing counts.
    pub fn from_wire(wire: &WireSketch) -> Result<Self, WireError> {
        let stats =
            OnlineStats::from_parts(wire.count, wire.mean, wire.m2, wire.min, wire.max, wire.sum)
                .ok_or(WireError::Stats)?;
        if wire.log_lo != SKETCH_LOG_LO || wire.log_hi != SKETCH_LOG_HI {
            return Err(WireError::Geometry);
        }
        let bins: Box<[u64; SKETCH_BINS]> = wire
            .bins
            .clone()
            .into_boxed_slice()
            .try_into()
            .map_err(|_| WireError::Geometry)?;
        let mass = bins
            .iter()
            .try_fold(wire.underflow, |acc, &b| acc.checked_add(b))
            .and_then(|m| m.checked_add(wire.overflow))
            .ok_or(WireError::Geometry)?;
        if mass != stats.count() {
            return Err(WireError::CountMismatch);
        }
        Ok(Self {
            stats,
            bins,
            underflow: wire.underflow,
            overflow: wire.overflow,
        })
    }
}

/// The wire form of a [`LatencySketch`]: raw Welford state
/// plus raw bin counts, validated on decode by [`LatencySketch::from_wire`].
#[derive(Debug, Clone, PartialEq)]
pub struct WireSketch {
    /// Observation count (must match the bin mass).
    pub count: u64,
    /// Welford mean.
    pub mean: f64,
    /// Welford second central moment.
    pub m2: f64,
    /// Exact minimum.
    pub min: f64,
    /// Exact maximum.
    pub max: f64,
    /// Exact sum.
    pub sum: f64,
    /// Domain lower edge, log₁₀ seconds (−7.5 in every valid frame).
    pub log_lo: f64,
    /// Domain upper edge, log₁₀ seconds (4.5 in every valid frame).
    pub log_hi: f64,
    /// Raw per-bin counts ([`SKETCH_BINS`] of them).
    pub bins: Vec<u64>,
    /// Mass below the domain (sub-nanosecond durations).
    pub underflow: u64,
    /// Mass at or above the domain.
    pub overflow: u64,
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
    fn record_n_is_n_records_of_one_value() {
        let mut g = Xoshiro256StarStar::seed_from_u64(0xb10c);
        let (mut grouped, mut single) = (LatencySketch::new(), LatencySketch::new());
        for _ in 0..50 {
            let (v, n) = (log_uniform(&mut g, -9.0, 6.0), g.next_below(40));
            grouped.record_n(v, n);
            (0..n).for_each(|_| single.record(v));
        }
        grouped.record_n(0.0, 3);
        (0..3).for_each(|_| single.record(0.0));
        assert_eq!(grouped.count(), single.count());
        assert_eq!(grouped.to_wire().bins, single.to_wire().bins);
        assert_eq!((grouped.min(), grouped.max()), (single.min(), single.max()));
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(grouped.quantile(q).to_bits(), single.quantile(q).to_bits());
        }
        assert!((grouped.mean() - single.mean()).abs() <= 1e-12 * single.mean());
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
    fn wire_round_trip_is_identity() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let values: Vec<f64> = (0..200).map(|_| log_uniform(&mut rng, -4.0, 0.0)).collect();
        let sketch = LatencySketch::from_slice(&values);
        let back = LatencySketch::from_wire(&sketch.to_wire()).unwrap();
        assert_eq!(back, sketch);

        let empty = LatencySketch::new();
        let back = LatencySketch::from_wire(&empty.to_wire()).unwrap();
        assert_eq!(back, empty);
    }

    #[test]
    fn corrupt_wire_frames_are_rejected() {
        let sketch = LatencySketch::from_slice(&[1.0, 2.0]);
        let good = sketch.to_wire();

        let mut bad = good.clone();
        bad.mean = f64::NAN;
        assert_eq!(LatencySketch::from_wire(&bad), Err(WireError::Stats));

        let mut bad = good.clone();
        bad.log_hi = 9.0;
        assert_eq!(LatencySketch::from_wire(&bad), Err(WireError::Geometry));

        let mut bad = good.clone();
        bad.bins.truncate(10);
        assert_eq!(LatencySketch::from_wire(&bad), Err(WireError::Geometry));

        let mut bad = good.clone();
        bad.bins[0] = u64::MAX;
        assert_eq!(LatencySketch::from_wire(&bad), Err(WireError::Geometry));

        let mut bad = good;
        bad.count += 1;
        bad.m2 = 0.1;
        assert_eq!(
            LatencySketch::from_wire(&bad),
            Err(WireError::CountMismatch)
        );
    }

    #[test]
    fn out_of_domain_durations_land_in_the_flow_bins() {
        let wire = LatencySketch::from_slice(&[0.0, 1e-3, 1e5]).to_wire();
        let binned: u64 = wire.bins.iter().sum();
        assert_eq!((wire.underflow, binned, wire.overflow), (1, 1, 1));
    }

    #[test]
    #[should_panic(expected = "quantile NaN")]
    fn nan_quantile_is_rejected() {
        let _ = LatencySketch::from_slice(&[1.0]).quantile(f64::NAN);
    }
}
