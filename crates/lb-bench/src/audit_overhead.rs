//! Monitor-overhead study: what the streaming invariant monitor costs on
//! top of an instrumented settle phase.
//!
//! Three arms share one workload (the [`crate::payment_scaling`] truthful
//! profile) and hand each settled round to their collector as one
//! [`SettledRound`], as the coordinator does:
//!
//! * **off** — allocation and payments computed and the round handed to a
//!   plain [`RingCollector`], which records the settlement gauges: the
//!   per-round coordinator compute without a monitor;
//! * **full** — the same round handed to an [`InvariantMonitor`] over such
//!   a ring, with every check on every round ([`Sampler::Always`]);
//! * **sampled** — drift reference and truthfulness probe admitted once
//!   every [`SAMPLE_PERIOD`] rounds, the recommended production posture.
//!
//! The reported number is median ns **per settled round** (payments +
//! emission + any monitoring), so `overhead = arm/off − 1` is the fraction
//! a deployment actually pays. The cheap structural checks (conservation,
//! feasibility, exclusion, total, floor) run every round in both monitored
//! arms; only the double-double reference and the counterfactual probes —
//! the O(n) heavyweights — are sampled.
//!
//! ```text
//! cargo run -p lb-bench --release --bin experiments -- audit-overhead
//! ```

use lb_audit::{InvariantMonitor, MonitorConfig};
use lb_mechanism::CompensationBonusMechanism;
use lb_telemetry::{Collector, Json, RingCollector, Sampler, SettledRound};
use std::sync::Arc;
use std::time::Instant;

use crate::payment_scaling::workload;

/// The `n` grid of the overhead study.
pub const OVERHEAD_NS: &[usize] = &[64, 1024, 16384];

/// Sampling period of the `sampled` arm: drift + probe once every this
/// many rounds.
pub const SAMPLE_PERIOD: u64 = 16;

/// Rounds driven per timing sample — enough for the periodic sampler to
/// amortise to its steady state.
pub const ROUNDS_PER_SAMPLE: u64 = 2 * SAMPLE_PERIOD;

/// One measured grid point (all times median ns per settled round).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadRow {
    /// Number of machines.
    pub n: usize,
    /// Baseline: settle + gauge emission, no monitor.
    pub off_ns: f64,
    /// Monitor with every check on every round.
    pub full_ns: f64,
    /// Monitor with drift/probe sampled at 1/[`SAMPLE_PERIOD`].
    pub sampled_ns: f64,
}

impl OverheadRow {
    /// Fractional overhead of the always-on monitor over the baseline.
    #[must_use]
    pub fn full_overhead(&self) -> f64 {
        self.full_ns / self.off_ns - 1.0
    }

    /// Fractional overhead of the sampled monitor over the baseline.
    #[must_use]
    pub fn sampled_overhead(&self) -> f64 {
        self.sampled_ns / self.off_ns - 1.0
    }
}

/// One settled round of coordinator compute — allocation, payment vector,
/// and the settled round handed to `collector`. Returns the payment count
/// as an optimisation sink.
fn settle_round(
    collector: &dyn Collector,
    mech: &CompensationBonusMechanism,
    values: &[f64],
    total_rate: f64,
    round: u64,
) -> usize {
    let alloc = lb_core::pr_allocate(values, total_rate).expect("bench workload allocates");
    let breakdown = mech
        .payment_breakdown(values, &alloc, values, total_rate)
        .expect("bench workload settles");
    let payments: Vec<f64> = breakdown.iter().map(|p| p.total()).collect();
    let excluded = vec![false; values.len()];
    let view = SettledRound::new(
        round,
        total_rate,
        values,
        alloc.rates(),
        values,
        &excluded,
        &payments,
        payments.iter().sum(),
    )
    .expect("bench workload has equal, non-empty columns");
    collector.settled(0.0, &view);
    payments.len()
}

/// The sampled-arm monitor configuration.
#[must_use]
pub fn sampled_config() -> MonitorConfig {
    MonitorConfig {
        sampler: Sampler::PerRound(SAMPLE_PERIOD),
        ..MonitorConfig::default()
    }
}

/// Times one batch of [`ROUNDS_PER_SAMPLE`] settled rounds through
/// `collector`, returning ns per round.
fn time_batch(
    collector: &Arc<dyn Collector>,
    mech: &CompensationBonusMechanism,
    values: &[f64],
    r: f64,
) -> f64 {
    let start = Instant::now();
    let mut sink = 0;
    for round in 0..ROUNDS_PER_SAMPLE {
        sink += settle_round(collector.as_ref(), mech, values, r, round);
    }
    let elapsed = start.elapsed().as_nanos();
    assert!(sink > 0, "work was optimised away");
    #[allow(clippy::cast_precision_loss)]
    {
        elapsed as f64 / ROUNDS_PER_SAMPLE as f64
    }
}

fn ring() -> Arc<RingCollector> {
    // Large enough to hold one big round; older rounds rotate out, which is
    // exactly what a live deployment's ring does.
    Arc::new(RingCollector::new(1 << 18))
}

/// Measures the grid. `samples` is the per-arm repetition count.
///
/// The three arms are interleaved inside every repetition and each arm
/// reports its *minimum* per-round time, so machine-wide load that drifts
/// over the run hits all arms alike instead of biasing whichever arm it
/// overlapped — on a shared box the min is the only stable estimator of
/// the code's own cost.
#[must_use]
pub fn measure(ns: &[usize], samples: usize) -> Vec<OverheadRow> {
    let mech = CompensationBonusMechanism::paper();
    ns.iter()
        .map(|&n| {
            let (values, _, r) = workload(n);
            let (mut off, mut full, mut sampled) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
            for _ in 0..samples {
                let plain = ring() as Arc<dyn Collector>;
                off = off.min(time_batch(&plain, &mech, &values, r));
                let monitored = Arc::new(InvariantMonitor::new(
                    ring() as Arc<dyn Collector>,
                    MonitorConfig::default(),
                )) as Arc<dyn Collector>;
                full = full.min(time_batch(&monitored, &mech, &values, r));
                let amortised = Arc::new(InvariantMonitor::new(
                    ring() as Arc<dyn Collector>,
                    sampled_config(),
                )) as Arc<dyn Collector>;
                sampled = sampled.min(time_batch(&amortised, &mech, &values, r));
            }
            OverheadRow {
                n,
                off_ns: off,
                full_ns: full,
                sampled_ns: sampled,
            }
        })
        .collect()
}

/// Renders the human-readable table the `experiments` target prints.
#[must_use]
pub fn render_table(rows: &[OverheadRow]) -> String {
    let mut out = String::from(
        "     n |     off (µs) |    full (µs) | sampled (µs) |  full ovh | sampled ovh\n",
    );
    out.push_str("-------+--------------+--------------+--------------+-----------+------------\n");
    for row in rows {
        out.push_str(&format!(
            "{:6} |{:13.1} |{:13.1} |{:13.1} |{:9.1}% |{:10.1}%\n",
            row.n,
            row.off_ns / 1e3,
            row.full_ns / 1e3,
            row.sampled_ns / 1e3,
            100.0 * row.full_overhead(),
            100.0 * row.sampled_overhead(),
        ));
    }
    out
}

/// The rows as JSON objects for the [`crate::bench_log`] artifact.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn rows_json(rows: &[OverheadRow]) -> Vec<Json> {
    rows.iter()
        .map(|row| {
            Json::obj([
                ("n", Json::Num(row.n as f64)),
                ("off_ns", Json::Num(row.off_ns.round())),
                ("full_ns", Json::Num(row.full_ns.round())),
                ("sampled_ns", Json::Num(row.sampled_ns.round())),
                (
                    "full_overhead",
                    Json::Num((row.full_overhead() * 1e4).round() / 1e4),
                ),
                (
                    "sampled_overhead",
                    Json::Num((row.sampled_overhead() * 1e4).round() / 1e4),
                ),
            ])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monitored_rounds_are_clean_on_the_bench_workload() {
        let sink = ring();
        let monitor = InvariantMonitor::new(sink as Arc<dyn Collector>, MonitorConfig::default());
        let mech = CompensationBonusMechanism::paper();
        let (values, _, r) = workload(64);
        for round in 0..3 {
            settle_round(&monitor, &mech, &values, r, round);
        }
        let stats = monitor.stats();
        assert_eq!(stats.rounds, 3);
        assert_eq!(stats.total_violations(), 0, "{stats:?}");
        assert!(monitor.latest_report().is_some_and(|r| r.ok()));
    }

    #[test]
    fn sampled_config_admits_one_round_in_the_period() {
        let config = sampled_config();
        let admitted = (0..SAMPLE_PERIOD)
            .filter(|&r| config.sampler.admits(0, r))
            .count();
        assert_eq!(admitted, 1);
    }

    #[test]
    fn measure_smoke_reports_finite_positive_times() {
        let rows = measure(&[16], 1);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert!(row.off_ns > 0.0 && row.full_ns > 0.0 && row.sampled_ns > 0.0);
        assert!(row.full_overhead().is_finite());
        let json = rows_json(&rows);
        assert_eq!(json[0].get("n").and_then(Json::as_u64), Some(16));
    }
}
