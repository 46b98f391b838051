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
//! The reported number is minimum ns **per settled round**, so
//! `overhead = arm/off − 1` is the fraction of round wall-time the rollup
//! actually costs. The round *outcome* is bit-identical across all three
//! arms (the inertness differentials in `tests/prof.rs` enforce that);
//! this study prices the telemetry, it does not re-check inertness.
//!
//! ```text
//! cargo run -p lb-bench --release --bin experiments -- profile-overhead
//! ```

use lb_mechanism::CompensationBonusMechanism;
use lb_prof::RoundProfiler;
use lb_proto::{drive_sharded_round, Coordinator, FaultPlan, RoundId};
use lb_telemetry::Json;
use std::time::Instant;

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

/// One measured grid point (all times minimum ns per settled round).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileOverheadRow {
    /// Number of machines.
    pub n: usize,
    /// Shard coordinators under the root.
    pub shards: usize,
    /// Baseline: the round with no profiler.
    pub off_ns: f64,
    /// Profiler attached, every round profiled.
    pub attached_ns: f64,
    /// Profiler attached, one round in [`SAMPLE_PERIOD`] profiled.
    pub sampled_ns: f64,
}

impl ProfileOverheadRow {
    /// Fractional overhead of the always-profiling arm over the baseline.
    #[must_use]
    pub fn attached_overhead(&self) -> f64 {
        self.attached_ns / self.off_ns - 1.0
    }

    /// Fractional overhead of the sampled arm over the baseline.
    #[must_use]
    pub fn sampled_overhead(&self) -> f64 {
        self.sampled_ns / self.off_ns - 1.0
    }
}

/// Drives `rounds` sharded rounds (round ids `0..rounds`, so the sampled
/// arm actually skips) and returns ns per round. `every == 0` means no
/// profiler at all; the profiler is fresh per batch so rollup growth
/// cannot leak between samples.
fn time_batch(
    mech: &CompensationBonusMechanism,
    specs: &[lb_proto::NodeSpec],
    rounds: u64,
    every: u64,
) -> f64 {
    let config = config();
    let mut profiler = RoundProfiler::sampled(every.max(1));
    let mut sink = 0.0_f64;
    let start = Instant::now();
    for round in 0..rounds {
        let mut root = Coordinator::try_new(
            mech,
            specs.len(),
            config.total_rate,
            RoundId(round),
            config.simulation,
        )
        .expect("bench coordinator");
        let attach = (every > 0).then_some(&mut profiler);
        let (report, _) = drive_sharded_round(
            &mut root,
            specs,
            &config,
            SHARDS,
            &FaultPlan::none(),
            attach,
        )
        .expect("bench round settles");
        #[allow(clippy::cast_precision_loss)]
        {
            sink += report.outcome.stats.messages as f64;
        }
    }
    let elapsed = start.elapsed().as_nanos();
    assert!(sink > 0.0, "work was optimised away");
    #[allow(clippy::cast_precision_loss)]
    {
        elapsed as f64 / rounds as f64
    }
}

/// Measures the grid. `samples` is the per-arm repetition count; arms are
/// interleaved inside every repetition and each arm reports its *minimum*
/// per-round time, so machine-wide load drift hits all arms alike.
#[must_use]
pub fn measure(ns: &[usize], samples: usize) -> Vec<ProfileOverheadRow> {
    assert!(samples > 0, "profile_overhead: need at least one sample");
    let mech = CompensationBonusMechanism::paper();
    ns.iter()
        .map(|&n| {
            let specs = specs(n);
            let (mut off, mut attached, mut sampled) =
                (f64::INFINITY, f64::INFINITY, f64::INFINITY);
            for _ in 0..samples {
                off = off.min(time_batch(&mech, &specs, ROUNDS_PER_SAMPLE, 0));
                attached = attached.min(time_batch(&mech, &specs, ROUNDS_PER_SAMPLE, 1));
                sampled = sampled.min(time_batch(&mech, &specs, ROUNDS_PER_SAMPLE, SAMPLE_PERIOD));
            }
            ProfileOverheadRow {
                n,
                shards: SHARDS,
                off_ns: off,
                attached_ns: attached,
                sampled_ns: sampled,
            }
        })
        .collect()
}

/// Renders the human-readable table the `experiments` target prints.
#[must_use]
pub fn render_table(rows: &[ProfileOverheadRow]) -> String {
    let mut out = String::from(
        "     n | shards |     off (µs) | attached (µs) | sampled (µs) | attached ovh | sampled ovh\n",
    );
    out.push_str(
        "-------+--------+--------------+---------------+--------------+--------------+------------\n",
    );
    for row in rows {
        out.push_str(&format!(
            "{:6} |{:7} |{:13.1} |{:14.1} |{:13.1} |{:12.1}% |{:10.1}%\n",
            row.n,
            row.shards,
            row.off_ns / 1e3,
            row.attached_ns / 1e3,
            row.sampled_ns / 1e3,
            100.0 * row.attached_overhead(),
            100.0 * row.sampled_overhead(),
        ));
    }
    out
}

/// The rows as JSON objects for the [`crate::bench_log`] artifact.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn rows_json(rows: &[ProfileOverheadRow]) -> Vec<Json> {
    let r4 = |v: f64| (v * 1e4).round() / 1e4;
    rows.iter()
        .map(|row| {
            Json::obj([
                ("n", Json::Num(row.n as f64)),
                ("shards", Json::Num(row.shards as f64)),
                ("off_ns", Json::Num(row.off_ns.round())),
                ("attached_ns", Json::Num(row.attached_ns.round())),
                ("sampled_ns", Json::Num(row.sampled_ns.round())),
                ("attached_overhead", Json::Num(r4(row.attached_overhead()))),
                ("sampled_overhead", Json::Num(r4(row.sampled_overhead()))),
            ])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_log::BenchLog;

    #[test]
    fn measure_smoke_reports_finite_positive_times() {
        let rows = measure(&[24], 1);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert!(row.off_ns > 0.0 && row.attached_ns > 0.0 && row.sampled_ns > 0.0);
        assert!(row.attached_overhead().is_finite() && row.sampled_overhead().is_finite());
        let json = rows_json(&rows);
        assert_eq!(json[0].get("n").and_then(Json::as_u64), Some(24));
        assert_eq!(
            json[0].get("shards").and_then(Json::as_u64),
            Some(SHARDS as u64)
        );
    }

    #[test]
    fn rows_render_into_a_schema_valid_bench_log() {
        let rows = measure(&[16], 1);
        let mut log = BenchLog::new("profile_overhead", "ns/round");
        log.append("test", rows_json(&rows)).unwrap();
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
