//! Monitor-overhead study: what the streaming invariant monitor costs on
//! top of an instrumented settle phase.
//!
//! Three arms share one workload (the [`crate::payment_scaling`] truthful
//! profile) and hand each settled round to their collector as one
//! [`SettledRound`], as the coordinator does:
//!
//! * **off** — allocation and payments computed and the round handed to a
//!   plain [`RingCollector`], which records the settlement events: the
//!   per-round coordinator compute without a monitor;
//! * **full** — the same round handed to an [`InvariantMonitor`] over such
//!   a ring, with every check on every round ([`Sampler::Always`]);
//! * **sampled** — drift reference and truthfulness probe admitted once
//!   every `SAMPLE_PERIOD` (16) rounds, the recommended production posture.
//!
//! Each arm is one [`batch`] of settled rounds, timed in ns **per settled
//! round** (payments + emission + any monitoring), and the paired
//! estimator in [`crate::overhead`] reports `on/off − 1`, the fraction a
//! deployment actually pays. The off arm settles through
//! [`VerifiedMechanism::payments`], the settle a coordinator runs. The cheap structural checks (conservation,
//! feasibility, exclusion, total, floor) run every round in both monitored
//! arms; only the double-double reference and the counterfactual probes —
//! the O(n) heavyweights — are sampled.
//!
//! ```text
//! cargo run -p lb-bench --release --bin experiments -- audit-overhead
//! ```

use lb_audit::{InvariantMonitor, MonitorConfig};
use lb_mechanism::{CompensationBonusMechanism, VerifiedMechanism};
use lb_telemetry::{Collector, RingCollector, Sampler, SettledRound};
use std::sync::Arc;

use crate::overhead::{self, OverheadRow};
use crate::payment_scaling::workload;

/// The `n` grid of the overhead study.
pub const OVERHEAD_NS: &[usize] = &[64, 1024, 16384];

/// Sampling period of the `sampled` arm: drift + probe once every this
/// many rounds.
const SAMPLE_PERIOD: u64 = 16;

/// Rounds driven per timing sample — enough for the periodic sampler to
/// amortise to its steady state.
const ROUNDS_PER_SAMPLE: u64 = 2 * SAMPLE_PERIOD;

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
    let payments = mech
        .payments(values, &alloc, values, total_rate)
        .expect("bench workload settles");
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
fn sampled_config() -> MonitorConfig {
    MonitorConfig {
        sampler: Sampler::PerRound(SAMPLE_PERIOD),
        ..MonitorConfig::default()
    }
}

fn ring() -> Arc<RingCollector> {
    // Large enough to hold one big round; older rounds rotate out, which is
    // exactly what a live deployment's ring does.
    Arc::new(RingCollector::new(1 << 18))
}

/// The batch for a grid point of `n` machines: `ROUNDS_PER_SAMPLE` (32)
/// settled rounds, each handed to a plain ring (`arm` 0), the always-on
/// monitor (1) or the sampled one (2). Returns ns per round.
pub fn batch(n: usize) -> impl Fn(usize) -> f64 {
    let mech = CompensationBonusMechanism::paper();
    let (values, _, r) = workload(n);
    move |arm| {
        let collector: Arc<dyn Collector> = match arm {
            0 => ring(),
            1 => Arc::new(InvariantMonitor::new(ring(), MonitorConfig::default())),
            _ => Arc::new(InvariantMonitor::new(ring(), sampled_config())),
        };
        overhead::ns_per_round(ROUNDS_PER_SAMPLE, |round| {
            settle_round(collector.as_ref(), &mech, &values, r, round)
        })
    }
}

/// Measures the grid, `reps` paired repetitions per point.
#[must_use]
pub fn measure(ns: &[usize], reps: usize) -> Vec<OverheadRow> {
    overhead::measure(ns, reps, ["full", "sampled"], batch)
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
        let rows = measure(&[16], 2);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.n, 16);
        assert!(row.off_ns > 0.0 && row.on.iter().all(|on| on.ns > 0.0));
        assert_eq!(row.on.map(|on| on.name), ["full", "sampled"]);
        assert!(row.on.iter().all(|on| on.overhead.is_finite()));
    }
}
