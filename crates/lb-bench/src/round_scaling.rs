//! Round-scaling study: full sharded rounds at up to a million machines.
//!
//! The single-coordinator runtime walks every machine once per phase, so a
//! round is O(n) — but the constant matters at datacenter scale. This study
//! drives complete bid → allocate → execute/verify → settle rounds through
//! the hierarchical sharded coordinator ([`lb_proto::shard`]) on the bench
//! workload and reports, per population size:
//!
//! * **rounds/sec** — settled rounds per wall-clock second, the number a
//!   capacity plan actually needs;
//! * **p99 phase latency** — the exact nearest-rank
//!   ([`lb_stats::nearest_rank`]) 99th percentile of each protocol phase's
//!   wall-clock time (collect, allocate, execute, settle) across the driven
//!   rounds. Over [`ROUNDS_PER_POINT`] = 8 rounds that is the slowest
//!   round, i.e. the max. Live dashboard quantiles are
//!   [`lb_stats::LatencySketch`] reads, a different estimator.
//!
//! The biggest grid point is n = 10⁶. Telemetry stays off (the noop
//! collector): the study measures the protocol, not the recorder — the
//! monitor's cost has its own artifact ([`crate::audit_overhead`]).
//!
//! ```text
//! cargo run -p lb-bench --release --bin experiments -- round-scaling
//! ```

use lb_mechanism::CompensationBonusMechanism;
use lb_proto::{
    drive_sharded_round, expected_sharded_message_count, Coordinator, FaultPlan, NodeSpec,
    ProtocolConfig, RoundId,
};
use lb_sim::driver::SimulationConfig;
use lb_sim::server::ServiceModel;
use lb_stats::nearest_rank;
use lb_telemetry::Json;
use std::time::Instant;

/// The population grid: 10⁴, 10⁵ and 10⁶ machines.
pub const SCALING_NS: &[usize] = &[10_000, 100_000, 1_000_000];

/// Rounds driven per grid point in the full study — enough for a stable
/// p99 at the small sizes without making the 10⁶ point take minutes.
pub const ROUNDS_PER_POINT: usize = 8;

/// Shard count used at every grid point (one shard per worker thread; a
/// fixed count keeps grid points comparable and the study deterministic).
const SHARDS: usize = 8;

/// One measured grid point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundScalingRow {
    /// Number of machines.
    pub n: usize,
    /// Shard coordinators under the root.
    pub shards: usize,
    /// Rounds driven.
    pub rounds: usize,
    /// Settled rounds per wall-clock second.
    pub rounds_per_sec: f64,
    /// p99 bid-collection latency, milliseconds.
    pub p99_collect_ms: f64,
    /// p99 aggregate-and-allocate latency, milliseconds.
    pub p99_allocate_ms: f64,
    /// p99 execute-and-verify latency, milliseconds.
    pub p99_execute_ms: f64,
    /// p99 settlement latency, milliseconds.
    pub p99_settle_ms: f64,
}

/// The bench population: truthful machines over the same 7-class latency
/// spread as [`crate::payment_scaling::workload`], scaled to any `n`.
#[must_use]
pub fn specs(n: usize) -> Vec<NodeSpec> {
    #[allow(clippy::cast_precision_loss)]
    (0..n)
        .map(|i| NodeSpec::truthful(1.0 + (i % 7) as f64))
        .collect()
}

/// The protocol configuration of the study: deterministic service so two
/// runs measure the same work, a short horizon so the verification
/// simulation is bounded per machine.
#[must_use]
pub fn config() -> ProtocolConfig {
    ProtocolConfig {
        total_rate: 20.0,
        simulation: SimulationConfig {
            horizon: 50.0,
            seed: 7,
            model: ServiceModel::StationaryDeterministic,
            workload: Default::default(),
            warmup: 0.0,
            estimator: lb_sim::estimator::EstimatorConfig::default(),
        },
        ..ProtocolConfig::default()
    }
}

/// Drives `rounds` sharded rounds at each grid size and folds the phase
/// timings into per-phase samples.
///
/// # Panics
/// Panics if a round fails on the validated bench workload, or sends other
/// than [`expected_sharded_message_count`] frames — that is a protocol
/// regression, not a measurement condition.
#[must_use]
pub fn measure(ns: &[usize], rounds: usize) -> Vec<RoundScalingRow> {
    assert!(rounds > 0, "round_scaling: need at least one round");
    let mech = CompensationBonusMechanism::paper();
    let config = config();
    ns.iter()
        .map(|&n| {
            let specs = specs(n);
            let mut phases: [Vec<f64>; 4] = Default::default();
            let start = Instant::now();
            for _ in 0..rounds {
                let mut root = Coordinator::try_new(
                    &mech,
                    n,
                    config.total_rate,
                    RoundId(0),
                    config.simulation,
                )
                .expect("bench coordinator");
                let (report, t) =
                    drive_sharded_round(&mut root, &specs, &config, SHARDS, &FaultPlan::none())
                        .expect("bench round settles");
                assert!(root.is_sealed());
                // The paper's O(n) claim, checked at every bench size: a
                // fan-out that drops or duplicates frames fails here.
                assert_eq!(
                    report.outcome.stats.messages,
                    expected_sharded_message_count(n, SHARDS),
                    "round_scaling: message count at n = {n}"
                );
                for (samples, seconds) in phases
                    .iter_mut()
                    .zip([t.collect, t.allocate, t.execute, t.settle])
                {
                    samples.push(seconds);
                }
            }
            let elapsed = start.elapsed().as_secs_f64();
            let p99_ms = |samples: &mut Vec<f64>| {
                samples.sort_by(f64::total_cmp);
                samples[nearest_rank(0.99, samples.len()) - 1] * 1e3
            };
            #[allow(clippy::cast_precision_loss)]
            RoundScalingRow {
                n,
                shards: SHARDS,
                rounds,
                rounds_per_sec: rounds as f64 / elapsed,
                p99_collect_ms: p99_ms(&mut phases[0]),
                p99_allocate_ms: p99_ms(&mut phases[1]),
                p99_execute_ms: p99_ms(&mut phases[2]),
                p99_settle_ms: p99_ms(&mut phases[3]),
            }
        })
        .collect()
}

/// Renders the human-readable table the `experiments` target prints.
#[must_use]
pub fn render_table(rows: &[RoundScalingRow]) -> String {
    let mut out = String::from(
        "        n | shards | rounds/s | p99 collect | p99 allocate | p99 execute | p99 settle\n",
    );
    out.push_str(
        "----------+--------+----------+-------------+--------------+-------------+-----------\n",
    );
    for row in rows {
        out.push_str(&format!(
            "{:9} |{:7} |{:9.2} |{:9.2} ms |{:10.2} ms |{:9.2} ms |{:8.2} ms\n",
            row.n,
            row.shards,
            row.rounds_per_sec,
            row.p99_collect_ms,
            row.p99_allocate_ms,
            row.p99_execute_ms,
            row.p99_settle_ms,
        ));
    }
    out
}

/// The rows as JSON objects for the [`crate::bench_log`] artifact.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn rows_json(rows: &[RoundScalingRow]) -> Vec<Json> {
    let r4 = |v: f64| (v * 1e4).round() / 1e4;
    rows.iter()
        .map(|row| {
            Json::obj([
                ("n", Json::Num(row.n as f64)),
                ("shards", Json::Num(row.shards as f64)),
                ("rounds", Json::Num(row.rounds as f64)),
                ("rounds_per_sec", Json::Num(r4(row.rounds_per_sec))),
                ("p99_collect_ms", Json::Num(r4(row.p99_collect_ms))),
                ("p99_allocate_ms", Json::Num(r4(row.p99_allocate_ms))),
                ("p99_execute_ms", Json::Num(r4(row.p99_execute_ms))),
                ("p99_settle_ms", Json::Num(r4(row.p99_settle_ms))),
            ])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_log::BenchLog;

    #[test]
    fn measure_smoke_reports_finite_positive_numbers() {
        let rows = measure(&[64], 3);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert!(row.rounds_per_sec > 0.0 && row.rounds_per_sec.is_finite());
        for p99 in [
            row.p99_collect_ms,
            row.p99_allocate_ms,
            row.p99_execute_ms,
            row.p99_settle_ms,
        ] {
            assert!(p99 >= 0.0 && p99.is_finite());
        }
        let json = rows_json(&rows);
        assert_eq!(json[0].get("n").and_then(Json::as_u64), Some(64));
        assert_eq!(
            json[0].get("shards").and_then(Json::as_u64),
            Some(SHARDS as u64)
        );
    }

    #[test]
    fn rows_render_into_a_schema_valid_bench_log() {
        let rows = measure(&[32], 2);
        let mut log = BenchLog::new("round_scaling", "rounds/sec");
        log.append("test", rows_json(&rows)).unwrap();
        let reparsed = BenchLog::parse(&log.render()).unwrap();
        assert_eq!(reparsed, log);
    }

    #[test]
    fn the_checked_in_round_scaling_artifact_parses() {
        let text = include_str!("../../../BENCH_round_scaling.json");
        let log = BenchLog::parse(text).unwrap();
        assert_eq!(log.bench, "round_scaling");
        assert_eq!(log.unit, "rounds/sec");
        assert!(!log.entries.is_empty());
        // The acceptance grid: the seed entry spans 10⁴ to 10⁶ machines.
        let seed = &log.entries[0];
        let ns: Vec<u64> = seed
            .rows
            .iter()
            .filter_map(|r| r.get("n").and_then(Json::as_u64))
            .collect();
        assert!(ns.contains(&1_000_000), "seed entry covers n = 10⁶: {ns:?}");
        assert!(seed
            .rows
            .iter()
            .all(|r| r.get("p99_settle_ms").is_some() && r.get("rounds_per_sec").is_some()));
    }
}
