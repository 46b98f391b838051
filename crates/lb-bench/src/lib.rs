//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (Sec. 4), plus the ablations described in `DESIGN.md`.
//!
//! * [`paper`] — the eight Table 2 experiments and their execution, both
//!   analytically (closed forms) and through the full simulation pipeline.
//! * [`figures`] — data series for Figures 1–6 and the extra analyses
//!   (message counts, ablations).
//! * [`tables`] — fixed-width ASCII table rendering for the `experiments`
//!   binary.
//! * [`bench_log`] — the append-only schema for the checked-in
//!   `BENCH_*.json` artifacts.
//! * [`overhead`] — the paired off/on estimator, row type and renderers
//!   every overhead study shares.
//! * [`audit_overhead`] — cost of the streaming invariant monitor
//!   (off / full / sampled) on the settle phase.
//! * [`round_scaling`] — full sharded rounds at 10⁴–10⁶ machines:
//!   rounds/sec and p99 phase latency through the hierarchical
//!   coordinator.
//! * [`online_scaling`] — the online mechanism's event path: incremental
//!   O(1) harmonic-sum updates vs from-scratch per-event recomputation,
//!   in events/sec over 10⁵-event churn streams.
//!
//! The `experiments` binary prints the same rows/series the paper reports:
//!
//! ```text
//! cargo run -p lb-bench --bin experiments -- all
//! ```

pub mod audit_overhead;
pub mod bench_log;
pub mod chart;
pub mod figures;
pub mod online_scaling;
pub mod overhead;
pub mod paper;
pub mod payment_scaling;
pub mod round_scaling;
pub mod tables;

pub use chart::BarChart;
pub use paper::{paper_experiments, run_experiment, ExperimentResult, ExperimentSpec};
pub use tables::Table;
