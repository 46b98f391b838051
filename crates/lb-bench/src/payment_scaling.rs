//! Settle-phase payment scaling: batch leave-one-out kernel vs the legacy
//! per-agent rebuild.
//!
//! A dependency-free `Instant` harness that produces the
//! `BENCH_payment.json` artifact and the EXPERIMENTS.md scaling table from
//! one workload: one full compensation-and-bonus payment vector
//! (Def. 3.3) over a truthful profile of `n` machines with latency
//! parameters cycling through seven magnitudes.
//!
//! ```text
//! cargo run -p lb-bench --release --bin experiments -- payment-scaling
//! ```

use lb_core::allocation::optimal_latency_excluding_legacy;
use lb_core::{pr_allocate, total_latency_linear, Allocation};
use lb_mechanism::{CompensationBonusMechanism, PaymentBreakdown, VerifiedMechanism};
use lb_telemetry::Json;
use std::time::Instant;

/// The `n` grid of the scaling study.
pub const SCALING_NS: &[usize] = &[64, 256, 1024, 4096, 16384];

/// Largest `n` the quadratic legacy path is timed at when generating the
/// checked-in artifact (beyond this a single legacy settle takes seconds and
/// the comparison is already decided).
pub const LEGACY_CAP: usize = 4096;

/// One measured grid point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingRow {
    /// Number of machines in the settle phase.
    pub n: usize,
    /// Median wall time of the O(n) batch payment vector, nanoseconds.
    pub batch_ns: f64,
    /// Median wall time of the legacy O(n²) payment vector, nanoseconds
    /// (`None` above [`LEGACY_CAP`]).
    pub legacy_ns: Option<f64>,
    /// `legacy_ns / batch_ns`, when both were measured.
    pub speedup: Option<f64>,
}

/// The bench workload: `t_i` cycling through seven magnitudes so the
/// harmonic sum spans a realistic spread, plus the PR allocation on it.
#[must_use]
pub fn workload(n: usize) -> (Vec<f64>, Allocation, f64) {
    #[allow(clippy::cast_precision_loss)]
    let values: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
    let r = 20.0;
    let alloc = pr_allocate(&values, r).expect("bench workload allocates");
    (values, alloc, r)
}

/// The pre-batch settle phase, reconstructed verbatim for differential
/// timing: one `optimal_latency_excluding_legacy` rebuild per agent.
///
/// # Panics
/// Panics on the validated bench workload only if the kernel regresses.
#[must_use]
fn legacy_payment_breakdown(
    mech: &CompensationBonusMechanism,
    bids: &[f64],
    alloc: &Allocation,
    exec_values: &[f64],
    r: f64,
) -> Vec<PaymentBreakdown> {
    let actual_latency = total_latency_linear(alloc, exec_values).expect("finite latency");
    (0..bids.len())
        .map(|i| {
            let without_i =
                optimal_latency_excluding_legacy(bids, i, r).expect("legacy L_-i computes");
            PaymentBreakdown {
                compensation: mech.valuation.compensation(alloc.rate(i), exec_values[i]),
                bonus: without_i - actual_latency,
            }
        })
        .collect()
}

fn time_ns<F: FnMut() -> usize>(mut f: F, samples: usize) -> f64 {
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        let sink = f();
        let elapsed = start.elapsed().as_nanos();
        assert!(sink > 0, "work was optimised away");
        #[allow(clippy::cast_precision_loss)]
        times.push(elapsed as f64);
    }
    crate::overhead::median(&times)
}

/// Measures the grid. `samples` is the per-point repetition count (median
/// reported); `legacy_cap` bounds the quadratic path.
#[must_use]
pub fn measure(ns: &[usize], samples: usize, legacy_cap: usize) -> Vec<ScalingRow> {
    let mech = CompensationBonusMechanism::paper();
    ns.iter()
        .map(|&n| {
            let (values, alloc, r) = workload(n);
            let batch_ns = time_ns(
                || {
                    mech.payments(&values, &alloc, &values, r)
                        .expect("batch settle")
                        .len()
                },
                samples,
            );
            let legacy_ns = (n <= legacy_cap).then(|| {
                time_ns(
                    || legacy_payment_breakdown(&mech, &values, &alloc, &values, r).len(),
                    samples,
                )
            });
            ScalingRow {
                n,
                batch_ns,
                legacy_ns,
                speedup: legacy_ns.map(|l| l / batch_ns),
            }
        })
        .collect()
}

/// The rows as JSON objects for the [`crate::bench_log`] artifact.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn rows_json(rows: &[ScalingRow]) -> Vec<Json> {
    rows.iter()
        .map(|row| {
            Json::obj([
                ("n", Json::Num(row.n as f64)),
                ("batch_ns", Json::Num(row.batch_ns.round())),
                (
                    "legacy_ns",
                    row.legacy_ns.map_or(Json::Null, |v| Json::Num(v.round())),
                ),
                (
                    "speedup",
                    row.speedup
                        .map_or(Json::Null, |v| Json::Num((v * 10.0).round() / 10.0)),
                ),
            ])
        })
        .collect()
}

/// Renders the human-readable table the `experiments` target prints.
#[must_use]
pub fn render_table(rows: &[ScalingRow]) -> String {
    let mut out = String::from("     n |    batch (µs) |   legacy (µs) | speedup\n");
    out.push_str("-------+---------------+---------------+--------\n");
    for row in rows {
        let legacy = row.legacy_ns.map_or_else(
            || "     (skipped)".to_string(),
            |v| format!("{:14.1}", v / 1e3),
        );
        let speedup = row
            .speedup
            .map_or_else(|| "      —".to_string(), |v| format!("{v:7.1}"));
        out.push_str(&format!(
            "{:6} |{:14.1} |{} |{}\n",
            row.n,
            row.batch_ns / 1e3,
            legacy,
            speedup
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_log::BenchLog;

    #[test]
    fn batch_and_legacy_breakdowns_agree_on_the_bench_workload() {
        let mech = CompensationBonusMechanism::paper();
        let (values, alloc, r) = workload(64);
        let batch = mech.payment_breakdown(&values, &alloc, &values, r).unwrap();
        let legacy = legacy_payment_breakdown(&mech, &values, &alloc, &values, r);
        assert_eq!(batch.len(), legacy.len());
        for (i, (b, l)) in batch.iter().zip(&legacy).enumerate() {
            let scale = l.total().abs().max(1.0);
            assert!(
                (b.total() - l.total()).abs() < 1e-9 * scale,
                "agent {i}: {} vs {}",
                b.total(),
                l.total()
            );
        }
    }

    #[test]
    fn json_artifact_is_well_formed() {
        let rows = vec![
            ScalingRow {
                n: 64,
                batch_ns: 1000.0,
                legacy_ns: Some(50_000.0),
                speedup: Some(50.0),
            },
            ScalingRow {
                n: 16384,
                batch_ns: 300_000.0,
                legacy_ns: None,
                speedup: None,
            },
        ];
        let mut log = BenchLog::new("payment_scaling", "ns/settle-phase");
        log.append("test", rows_json(&rows)).unwrap();
        let reparsed = BenchLog::parse(&log.render()).unwrap();
        assert_eq!(reparsed, log);
        let parsed = &reparsed.entries[0].rows;
        assert_eq!(parsed[0].get("n").and_then(Json::as_u64), Some(64));
        assert_eq!(
            parsed[0].get("legacy_ns").and_then(Json::as_f64),
            Some(50_000.0)
        );
        assert_eq!(parsed[1].get("legacy_ns"), Some(&Json::Null));
        assert_eq!(parsed[1].get("speedup"), Some(&Json::Null));
    }

    #[test]
    fn measure_smoke_reports_speedup_at_tiny_n() {
        let rows = measure(&[16, 64], 1, 64);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.batch_ns > 0.0);
            assert!(row.legacy_ns.is_some());
        }
    }
}
