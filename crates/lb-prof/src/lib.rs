//! Round profiling for the load-balancing protocol: where does a round's
//! wall-time go, per shard and fleet-wide, and is it getting worse?
//!
//! Three layers, std-only, strictly observational — attaching the
//! profiler never changes allocations, payments, exclusions, or message
//! counts (the inertness differentials in `tests/prof.rs` enforce this
//! bit-for-bit across the deterministic and sharded runtimes):
//!
//! * **Cross-shard rollup** ([`rollup`]) — shard workers fold
//!   per-machine verification wall-times into mergeable
//!   [`lb_stats::LatencySketch`]es that travel to the coordinator as
//!   compact wire frames next to the `ShardSum` partials. The root merges
//!   them — sketch merge is exact bin addition, so fleet quantiles equal a
//!   whole-fleet recompute — and accumulates per-shard phase timings,
//!   without a single raw span leaving its shard.
//! * **Critical-path analyzer** ([`critical`]) — replays a recorded round
//!   trace and extracts the coordinator → phase → straggler-shard chain
//!   that bounded wall-time, with per-node self/blocked time, coverage,
//!   and a per-phase straggler ranking; structured as a
//!   [`RoundProfile`] (JSONL and text renderings).
//! * **Regression sentinel** ([`sentinel`]) — compares the live per-phase
//!   series against a labelled `BENCH_*.json` baseline using Student-t
//!   confidence intervals: flagged only when the CI lower bound clears
//!   the baseline p99 plus slack.

pub mod critical;
pub mod rollup;
pub mod sentinel;

pub use critical::{
    from_jsonl, profile_events, to_jsonl, PathNode, ProfileError, RoundProfile, Straggler,
};
pub use rollup::{Rollup, RoundProfiler, ShardRollup, WireShardProfile, PHASES};
pub use sentinel::{check, render, Baseline, BaselineError, BaselineRow, SentinelConfig, Verdict};
