//! Problem model for *A Load Balancing Mechanism with Verification*
//! (Grosu & Chronopoulos, IPPS 2003).
//!
//! A distributed system of `n` heterogeneous computers receives jobs at a
//! total rate `R`. Computer `i` has a load-dependent latency function
//! `l_i(x_i)`; in the paper this is **linear**, `l_i(x_i) = t_i · x_i`, where
//! the private parameter `t_i` is inversely proportional to `i`'s processing
//! rate. An allocation `x = (x_1, …, x_n)` is feasible when `x_i ≥ 0` and
//! `Σ x_i = R`; the system objective is the total latency
//! `L(x) = Σ x_i · l_i(x_i)`.
//!
//! This crate provides, with no mechanism-design content yet:
//!
//! * [`machine`] — machine identities, validated private parameters and the
//!   [`machine::System`] collection type.
//! * [`latency`] — the [`latency::LatencyFunction`] trait with the paper's
//!   linear model plus the M/M/1 extension (and the affine and polynomial
//!   families the convex solver's tests cross-check against).
//! * [`allocation`] — feasible allocations, the paper's **PR algorithm**
//!   (Theorem 2.1: allocate in proportion to processing rates) and exact
//!   closed-form optima for the linear model.
//! * [`convex`] — a general KKT/bisection solver that minimises total latency
//!   for *any* convex latency family, used both to cross-check the PR closed
//!   form and to support the M/M/1 extension experiments.
//! * [`scenario`] — the paper's 16-computer Table 1 testbed.

pub mod allocation;
pub mod analysis;
pub mod baselines;
pub mod capped;
pub mod convex;
pub mod error;
pub mod latency;
pub mod machine;
pub mod numeric;
pub mod scenario;

pub use allocation::{
    optimal_latency_excluding, optimal_latency_excluding_legacy, optimal_latency_linear,
    pr_allocate, pr_allocate_with_sum, total_latency_linear, Allocation, LeaveOneOut,
};
pub use analysis::marginal_contributions;
pub use baselines::{equal_split, weighted_round_robin};
pub use capped::pr_allocate_capped;
pub use convex::{solve_convex, ConvexSolverOptions};
pub use error::CoreError;
pub use latency::{Affine, LatencyFunction, Linear, Mm1, Polynomial};
pub use machine::{Machine, MachineId, System, MAX_LATENCY_PARAM, MIN_LATENCY_PARAM};
pub use numeric::{
    compensated_sum, feasibility_tolerance, inv_sum_dd, merge_inv_sums, IncrementalInvSum, TwoF64,
};
pub use scenario::paper_system;
