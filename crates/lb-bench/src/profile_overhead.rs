//! Profiler-overhead study: what the cross-shard telemetry rollup costs on
//! top of a full sharded round.
//!
//! Three arms drive the same bid → allocate → execute/verify → settle round
//! through the hierarchical sharded coordinator on the
//! [`crate::round_scaling`] workload:
//!
//! * **off** — the plain round, no profiler attached: the baseline every
//!   deployment pays anyway;
//! * **attached** — a [`RoundProfiler`] profiling every round: shard
//!   workers sketch their per-machine verification wall-times, ship one
//!   profile frame each to the root, and the root merges the rollup and
//!   phase series;
//! * **sampled** — the same profiler with a 1/[`SAMPLE_PERIOD`] sampling
//!   period, the recommended always-on posture: unsampled rounds take the
//!   detached fast path.
//!
//! Each arm is one [`batch`] of rounds, timed in ns **per settled round**,
//! and the paired estimator in [`crate::overhead`] reports `on/off − 1`,
//! the fraction of round wall-time the rollup actually costs. The round
//! *outcome* is bit-identical across all three arms (the inertness
//! differentials in `tests/prof.rs` enforce that); this study prices the
//! telemetry, it does not re-check inertness.
//!
//! ```text
//! cargo run -p lb-bench --release --bin experiments -- profile-overhead
//! ```

use lb_mechanism::CompensationBonusMechanism;
use lb_prof::RoundProfiler;
use lb_proto::{drive_sharded_round, Coordinator, FaultPlan, RoundId};

use crate::overhead::{self, OverheadRow};
use crate::round_scaling::{config, specs};

/// The `n` grid of the overhead study.
pub const OVERHEAD_NS: &[usize] = &[256, 1024, 4096];

/// Shard count, matching the round-scaling study.
pub const SHARDS: usize = 8;

/// Sampling period of the `sampled` arm: one profiled round in this many.
pub const SAMPLE_PERIOD: u64 = 8;

/// Rounds driven per timing sample — two full sampling periods, so the
/// sampled arm amortises to its steady state.
pub const ROUNDS_PER_SAMPLE: u64 = 2 * SAMPLE_PERIOD;

/// The batch for a grid point of `n` machines: [`ROUNDS_PER_SAMPLE`]
/// sharded rounds (round ids `0..ROUNDS_PER_SAMPLE`, so the sampled arm
/// actually skips) with no profiler (`arm` 0), one profiling every round
/// (1) or one round in [`SAMPLE_PERIOD`] (2). The profiler is fresh per
/// batch, so rollup growth cannot leak between batches. Returns ns per
/// round.
pub fn batch(n: usize) -> impl Fn(usize) -> f64 {
    let (mech, specs, config) = (CompensationBonusMechanism::paper(), specs(n), config());
    move |arm| {
        let every = [0, 1, SAMPLE_PERIOD][arm];
        let mut profiler = RoundProfiler::sampled(every.max(1));
        overhead::ns_per_round(ROUNDS_PER_SAMPLE, |round| {
            let mut root = Coordinator::try_new(
                &mech,
                specs.len(),
                config.total_rate,
                RoundId(round),
                config.simulation,
            )
            .expect("bench coordinator");
            let attach = (every > 0).then_some(&mut profiler);
            let faults = FaultPlan::none();
            let (report, _) =
                drive_sharded_round(&mut root, &specs, &config, SHARDS, &faults, attach)
                    .expect("bench round settles");
            report.outcome.stats.messages as usize
        })
    }
}

/// Measures the grid, `reps` paired repetitions per point.
#[must_use]
pub fn measure(ns: &[usize], reps: usize) -> Vec<OverheadRow> {
    overhead::measure(ns, reps, ["attached", "sampled"], Some(SHARDS), batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_log::BenchLog;
    use lb_telemetry::Json;

    #[test]
    fn measure_smoke_reports_finite_positive_times() {
        let rows = measure(&[24], 2);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert!(row.off_ns > 0.0 && row.on.iter().all(|on| on.ns > 0.0));
        assert!(row.on.iter().all(|on| on.overhead.is_finite()));
        let json = overhead::rows_json(&rows);
        assert_eq!(json[0].get("n").and_then(Json::as_u64), Some(24));
        assert_eq!(
            json[0].get("shards").and_then(Json::as_u64),
            Some(SHARDS as u64)
        );
    }

    #[test]
    fn rows_render_into_a_schema_valid_bench_log() {
        let rows = measure(&[16], 2);
        let mut log = BenchLog::new("profile_overhead", "ns/round");
        log.append("test", overhead::rows_json(&rows)).unwrap();
        let reparsed = BenchLog::parse(&log.render()).unwrap();
        assert_eq!(reparsed, log);
    }

    #[test]
    fn the_checked_in_profile_overhead_artifact_parses() {
        let text = include_str!("../../../BENCH_profile_overhead.json");
        let log = BenchLog::parse(text).unwrap();
        assert_eq!(log.bench, "profile_overhead");
        assert_eq!(log.unit, "ns/round");
        assert!(!log.entries.is_empty());
        // The acceptance point: the seed entry measures n = 1024 and its
        // attached rollup costs under 10% of round time there.
        let seed = &log.entries[0];
        let at_1024 = seed
            .rows
            .iter()
            .find(|r| r.get("n").and_then(Json::as_u64) == Some(1024))
            .expect("seed entry covers n = 1024");
        let ovh = at_1024
            .get("attached_overhead")
            .and_then(Json::as_f64)
            .expect("attached_overhead column");
        assert!(ovh < 0.10, "seed attached overhead at n = 1024: {ovh}");
    }
}
