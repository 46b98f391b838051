//! Statistics substrate for the `lbmv` workspace.
//!
//! The IPPS 2003 paper evaluates its mechanism by simulation; every stochastic
//! ingredient that simulation needs lives here so the rest of the workspace
//! stays deterministic and dependency-light:
//!
//! * [`rng`] — counter-seeded, splittable pseudo-random number generators
//!   (SplitMix64 for seeding, xoshiro256\*\* as the workhorse generator).
//!   Every simulation in the workspace is reproducible from a single `u64`
//!   seed, and parallel replications draw from provably disjoint streams.
//! * [`dist`] — probability distributions implemented from first principles
//!   (exponential, uniform, Pareto, gamma, normal, Poisson, Zipf, …) behind a
//!   single [`dist::Distribution`] trait.
//! * [`online`] — numerically stable single-pass (Welford) statistics with
//!   pairwise merge for parallel reductions, plus EWMA smoothing.
//! * [`ci`] — Student-t confidence intervals and batch-means analysis for
//!   autocorrelated simulation output.
//! * [`sketch`] — [`LatencySketch`], the workspace's one latency summary:
//!   exact moments plus fixed-geometry log-domain bins, merged exactly and
//!   read as quantiles by the profiler, the metrics registry and the bench
//!   studies; [`quantile::nearest_rank`] keeps exact order statistics.
//! * [`parallel`] — deterministic fan-out of independent replications over
//!   `std::thread::scope`, the workspace's HPC building block.
//! * [`prop`] — a seeded property runner (composable generators, fixed
//!   per-property streams) for the workspace's property tests.

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

pub use autocorr::{
    autocorrelation, autocovariance, effective_sample_size, integrated_autocorrelation_time,
};
pub use ci::{batch_means, mean_confidence_interval, ConfidenceInterval};
pub use dist::Distribution;
pub use ks::{ks_test, KsTest};
pub use online::{Ewma, OnlineStats};
pub use parallel::par_map;
pub use quantile::nearest_rank;
pub use rng::{derive_seed, Rng, SplitMix64, Streams, Xoshiro256StarStar};
pub use sketch::{
    LatencySketch, WireError, WireSketch, SKETCH_BINS, SKETCH_LOG_HI, SKETCH_LOG_LO, SKETCH_RTOL,
};
