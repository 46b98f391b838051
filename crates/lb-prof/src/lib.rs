//! Round profiling for the load-balancing protocol: where does a round's
//! wall-time go, per phase and per shard, and is it getting worse?
//!
//! The profiler is analyses over recorded spans: it reads the one event
//! stream every observed round already writes to its collector, and adds
//! no channel, frame or probe of its own. Two layers, std-only:
//!
//! * **Critical-path analyzer** ([`critical`]) — replays a recorded round
//!   trace and extracts the coordinator → phase → straggler-shard chain
//!   that bounded wall-time, with per-node self/blocked time, coverage,
//!   and a per-phase straggler ranking over the `shard.*` spans;
//!   structured as a [`RoundProfile`] with a text rendering.
//! * **Regression sentinel** ([`sentinel`]) — compares a live per-phase
//!   series against a labelled `BENCH_*.json` baseline using Student-t
//!   confidence intervals: flagged only when the CI lower bound clears
//!   the baseline p99 plus slack.

pub mod critical;
pub mod sentinel;

pub use critical::{profile_events, PathNode, ProfileError, RoundProfile, Straggler};
pub use sentinel::{check, render, Baseline, BaselineError, BaselineRow, SentinelConfig, Verdict};
