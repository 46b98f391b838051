//! Statistics substrate for the `lbmv` workspace.
//!
//! The IPPS 2003 paper evaluates its mechanism by simulation; every stochastic
//! ingredient that simulation needs lives here so the rest of the workspace
//! stays deterministic and dependency-light:
//!
//! * [`rng`] — counter-seeded, splittable pseudo-random number generators
//!   (SplitMix64 for seeding, xoshiro256\*\* as the workhorse generator).
//!   Every simulation in the workspace is reproducible from a single `u64`
//!   seed, and each machine draws from its own provably disjoint stream.
//! * [`dist`] — the samplers the simulator draws from (exponential
//!   interarrival and service times, log-normal observation noise) behind a
//!   single [`dist::Distribution`] trait, plus the fixtures its tests use.
//! * [`online`] — numerically stable single-pass (Welford) statistics with
//!   pairwise merge for parallel reductions.
//! * [`ci`] — Student-t confidence intervals for a mean and
//!   distribution-free order-statistic intervals for a median, at a
//!   [`ConfidenceLevel`].
//! * [`sketch`] — [`LatencySketch`], the workspace's one latency summary:
//!   exact moments plus fixed-geometry log-domain bins, merged exactly and
//!   read as quantiles by the profiler, the metrics registry and the bench
//!   studies; [`quantile::nearest_rank`] keeps exact order statistics.
//! * [`ks`] and [`autocorr`] — the Kolmogorov–Smirnov test and the
//!   autocorrelation estimates the simulator's tests check their
//!   distributional claims with.
//! * [`prop`] — a seeded property runner (composable generators, fixed
//!   per-property streams) for the workspace's property tests.
//! * [`parallel`] — [`par_map`], an order-preserving scoped-thread map.

pub mod autocorr;
pub mod ci;
pub mod dist;
pub mod ks;
pub mod online;
pub mod parallel;
pub mod prop;
pub mod quantile;
pub mod rng;
pub mod sketch;

pub use autocorr::{autocorrelation, effective_sample_size};
pub use ci::{
    mean_confidence_interval, median_confidence_interval, ConfidenceInterval, ConfidenceLevel,
    MedianInterval,
};
pub use dist::Distribution;
pub use ks::{ks_test, KsTest};
pub use online::OnlineStats;
pub use parallel::par_map;
pub use quantile::nearest_rank;
pub use rng::{derive_seed, Rng, SplitMix64, Streams, Xoshiro256StarStar};
pub use sketch::{LatencySketch, SKETCH_RTOL};
