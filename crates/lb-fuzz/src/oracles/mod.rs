//! The differential oracles.
//!
//! Each submodule exposes `check(seed) -> Result<(), String>`: generate one
//! structured input from the seed, run the production kernel and an
//! independent reference (double-double arithmetic, a second solver, or an
//! invariant set), and report any disagreement. The harness treats both
//! `Err` and contained panics as findings.

pub mod alloc;
pub mod audit;
pub mod codec;
pub mod online;
pub mod payment;
pub mod prof;
pub mod recovery;
pub mod session;
pub mod shard;
pub mod sim;
pub mod telemetry;

/// Relative-error budget the numerical oracles enforce against the
/// double-double references (the acceptance bar for spreads up to 10¹²).
pub const REL_TOL: f64 = 1e-9;

/// `|got − want| ≤ REL_TOL · scale` with an explicit magnitude scale.
pub(crate) fn close(got: f64, want: f64, scale: f64) -> bool {
    (got - want).abs() <= REL_TOL * scale.abs().max(1e-300)
}
