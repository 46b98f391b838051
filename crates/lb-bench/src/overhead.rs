//! The paired overhead estimator every overhead study reads through.
//!
//! A study times three arms of one workload: **off**, the baseline, and two
//! **on** arms that add the feature being priced. Each arm is a batch that
//! runs a fixed number of rounds and returns ns per round. Every
//! repetition times all three arms back to back, rotating which goes first,
//! so load that drifts over the run and any penalty for leading a
//! repetition fall on every arm alike.
//!
//! Each on arm is then compared against the *same repetition's* off batch.
//! Its overhead is the median over repetitions of `on/off − 1`, reported
//! with the distribution-free 95 % interval of that median (two order
//! statistics at binomial ranks), so the interval always contains the
//! number the gate reads. A paired median shrugs off
//! the odd batch a neighbour disturbs; a ratio of per-arm minima does not,
//! because the two minima come from different moments of the run.
//!
//! [`render_table`] and [`rows_json`] render every study's rows, so the
//! `BENCH_*_overhead.json` artifacts share one schema: `n`, `off_ns`, and
//! per on arm `<arm>_ns`, `<arm>_overhead`, `<arm>_overhead_lo` and
//! `<arm>_overhead_hi`.

use lb_stats::{median_confidence_interval, ConfidenceLevel, MedianInterval};
use lb_telemetry::Json;
use std::time::Instant;

use crate::tables::{pct, Table};

/// Arms per repetition: off (index 0), then the two on arms.
pub(crate) const ARMS: usize = 3;

/// Paired repetitions per grid point, in the studies and their smokes. On a
/// 2-vCPU x86-64 host one repetition's on/off ratio of a sharded round
/// scattered with a standard deviation of ≈ 11 %; over 200 repetitions the
/// median moved ≈ 0.6 % from run to run, over 20 ≈ 3 %.
pub const REPS: usize = 200;

/// Runs `reps` repetitions of `batch(arm)` and returns the ns-per-round
/// samples indexed `[rep][arm]`. Repetition `rep` times the arms in the
/// order `0, 1, 2` rotated left by `rep`, so each arm goes first once
/// every [`ARMS`] repetitions.
pub(crate) fn sample(reps: usize, mut batch: impl FnMut(usize) -> f64) -> Vec<[f64; ARMS]> {
    (0..reps)
        .map(|rep| {
            let mut times = [0.0; ARMS];
            for arm in (rep..rep + ARMS).map(|k| k % ARMS) {
                times[arm] = batch(arm);
            }
            times
        })
        .collect()
}

/// Times `round(id)` for ids `0..rounds` and returns ns per round. Each
/// call returns a work count, summed as an optimisation sink.
///
/// # Panics
/// Panics if every round reports no work.
pub(crate) fn ns_per_round(rounds: u64, mut round: impl FnMut(u64) -> usize) -> f64 {
    let start = Instant::now();
    let sink: usize = (0..rounds).map(&mut round).sum();
    let elapsed = start.elapsed().as_nanos();
    assert!(sink > 0, "work was optimised away");
    elapsed as f64 / rounds as f64
}

/// The median of `values`: the middle one, or the mean of the middle two
/// for an even count.
///
/// # Panics
/// Panics if `values` is empty.
#[must_use]
pub(crate) fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// One on arm's estimate against the off arm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnArm {
    /// The arm's name, the prefix of its JSON keys.
    pub name: &'static str,
    /// Median ns per round.
    pub ns: f64,
    /// Median over repetitions of `on/off − 1`.
    pub overhead: f64,
    /// Distribution-free 95 % interval of the median paired ratio; `None`
    /// below six repetitions, whose order statistics cannot reach 95 %.
    pub interval: Option<MedianInterval>,
}

/// One measured grid point of an overhead study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadRow {
    /// Number of machines.
    pub n: usize,
    /// Median ns per round of the off arm.
    pub off_ns: f64,
    /// The two on arms, in arm order (indices 1 and 2).
    pub on: [OnArm; 2],
}

impl OverheadRow {
    /// Estimates a grid point from paired samples (see [`sample`]); `on`
    /// names arms 1 and 2.
    ///
    /// # Panics
    /// Panics with no repetitions.
    #[must_use]
    pub(crate) fn from_samples(n: usize, on: [&'static str; 2], samples: &[[f64; ARMS]]) -> Self {
        let column = |arm: usize| samples.iter().map(|s| s[arm]).collect::<Vec<_>>();
        Self {
            n,
            off_ns: median(&column(0)),
            on: std::array::from_fn(|k| {
                let ratios: Vec<f64> = samples.iter().map(|s| s[k + 1] / s[0] - 1.0).collect();
                OnArm {
                    name: on[k],
                    ns: median(&column(k + 1)),
                    overhead: median(&ratios),
                    interval: median_confidence_interval(&ratios, ConfidenceLevel::P95),
                }
            }),
        }
    }
}

/// Measures a study over the `n` grid: `batch(n)` builds the arm batch
/// for one grid point, and each point runs `reps` repetitions.
pub(crate) fn measure<B: FnMut(usize) -> f64>(
    ns: &[usize],
    reps: usize,
    on: [&'static str; 2],
    batch: impl Fn(usize) -> B,
) -> Vec<OverheadRow> {
    ns.iter()
        .map(|&n| OverheadRow::from_samples(n, on, &sample(reps, batch(n))))
        .collect()
}

/// Checks the paired median overhead of the on arm named `arm` against
/// `budget` at every row with at least `min_n` machines.
///
/// # Errors
/// Names the first row whose overhead reaches the budget.
pub fn gate(rows: &[OverheadRow], arm: &str, min_n: usize, budget: f64) -> Result<(), String> {
    for row in rows.iter().filter(|row| row.n >= min_n) {
        let Some(on) = row.on.iter().find(|on| on.name == arm) else {
            return Err(format!("no on arm named {arm:?}"));
        };
        if on.overhead >= budget {
            return Err(format!(
                "{arm} overhead at n = {} is {} (paired median), budget {}",
                row.n,
                pct(on.overhead),
                pct(budget)
            ));
        }
    }
    Ok(())
}

/// Renders the human-readable table the `experiments` targets print.
#[must_use]
pub fn render_table(rows: &[OverheadRow]) -> String {
    let Some(first) = rows.first() else {
        return String::new();
    };
    let mut header = vec!["n".to_string(), "off (µs)".to_string()];
    for name in first.on.map(|on| on.name) {
        header.extend([
            format!("{name} (µs)"),
            format!("{name} ovh"),
            format!("{name} 95% CI"),
        ]);
    }
    let mut table = Table::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
    for row in rows {
        let mut cells = vec![row.n.to_string(), format!("{:.1}", row.off_ns / 1e3)];
        for on in &row.on {
            cells.extend([
                format!("{:.1}", on.ns / 1e3),
                pct(on.overhead),
                on.interval.map_or("-".to_string(), |ci| {
                    format!("{} .. {}", pct(ci.lo), pct(ci.hi))
                }),
            ]);
        }
        table.row(&cells);
    }
    table.render()
}

/// The rows as JSON objects for the [`crate::bench_log`] artifact.
#[must_use]
pub fn rows_json(rows: &[OverheadRow]) -> Vec<Json> {
    let r4 = |v: f64| (v * 1e4).round() / 1e4;
    rows.iter()
        .map(|row| {
            let mut fields = vec![
                ("n".to_string(), row.n as f64),
                ("off_ns".to_string(), row.off_ns.round()),
            ];
            for OnArm {
                name,
                ns,
                overhead,
                interval,
            } in row.on
            {
                fields.extend([
                    (format!("{name}_ns"), ns.round()),
                    (format!("{name}_overhead"), r4(overhead)),
                ]);
                if let Some(ci) = interval {
                    fields.extend([
                        (format!("{name}_overhead_lo"), r4(ci.lo)),
                        (format!("{name}_overhead_hi"), r4(ci.hi)),
                    ]);
                }
            }
            Json::obj(fields.into_iter().map(|(k, v)| (k, Json::Num(v))))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_log::BenchLog;

    const ON: [&str; 2] = ["attached", "sampled"];

    /// Off batches that wander over a 2x range, as a loaded host's do.
    fn drifting_off(reps: usize) -> Vec<f64> {
        (0..reps)
            .map(|r| 1e6 * (1.0 + (r % 7) as f64 / 7.0))
            .collect()
    }

    fn paired(reps: usize, attached: f64, sampled: f64) -> Vec<[f64; ARMS]> {
        drifting_off(reps)
            .into_iter()
            .map(|off| [off, off * attached, off * sampled])
            .collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[f64::INFINITY, 0.0, 1.0, 2.0, -1.0]), 1.0);
    }

    #[test]
    fn arm_order_rotates_across_repetitions() {
        let mut calls = Vec::new();
        let samples = sample(6, |arm| {
            calls.push(arm);
            arm as f64
        });
        assert_eq!(samples, vec![[0.0, 1.0, 2.0]; 6]);
        let reps: Vec<&[usize]> = calls.chunks(ARMS).collect();
        assert_eq!(reps.len(), 6);
        for (rep, order) in reps.iter().enumerate() {
            assert_eq!(order[0], rep % ARMS, "repetition {rep} leads with its turn");
            let mut sorted = order.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, [0, 1, 2], "each arm once per repetition");
        }
    }

    #[test]
    fn equal_arms_pass_the_gate() {
        let row = OverheadRow::from_samples(1024, ON, &paired(20, 1.0, 1.0));
        assert_eq!(row.on[0].overhead, 0.0);
        assert!(row.on[0].interval.unwrap().contains(0.0));
        assert!(gate(&[row], "attached", 1024, 0.10).is_ok());
    }

    #[test]
    fn a_twenty_percent_arm_fails_the_gate() {
        let row = OverheadRow::from_samples(1024, ON, &paired(20, 1.2, 1.0));
        assert!((row.on[0].overhead - 0.2).abs() < 1e-12);
        assert!(row.on[0].interval.unwrap().lo > 0.10);
        let err = gate(&[row], "attached", 1024, 0.10).unwrap_err();
        assert!(err.contains("n = 1024"), "{err}");
        // Only rows at or above the gate's n are checked.
        assert!(gate(&[row], "attached", 4096, 0.10).is_ok());
        assert!(gate(&[row], "sampled", 1024, 0.10).is_ok());
        assert!(gate(&[row], "nosuch", 1024, 0.10).is_err());
    }

    #[test]
    fn the_median_ratio_ignores_one_disturbed_batch() {
        let mut samples = paired(21, 1.05, 1.0);
        samples[4][1] *= 3.0;
        let row = OverheadRow::from_samples(64, ON, &samples);
        assert!((row.on[0].overhead - 0.05).abs() < 1e-12);
        assert!(gate(&[row], "attached", 64, 0.10).is_ok());
    }

    #[test]
    fn the_interval_contains_the_gated_median_when_the_mean_is_elsewhere() {
        // Ten repetitions at no overhead and eleven at +10 %: the median is
        // +10 %, the Student-t interval of the mean sits near +5 % and
        // excludes it, and the order-statistic interval brackets it.
        let mut samples = paired(21, 1.1, 1.0);
        for s in &mut samples[..10] {
            s[1] = s[0];
        }
        let row = OverheadRow::from_samples(64, ON, &samples);
        let on = row.on[0];
        let interval = on.interval.unwrap();
        assert!((on.overhead - 0.1).abs() < 1e-12);
        assert!(interval.contains(on.overhead));
        let ratios: Vec<f64> = samples.iter().map(|s| s[1] / s[0] - 1.0).collect();
        let mean = lb_stats::mean_confidence_interval(
            &lb_stats::OnlineStats::from_slice(&ratios),
            ConfidenceLevel::P95,
        );
        assert!(!mean.contains(on.overhead), "{mean:?}");
        // Below six repetitions there is no 95 % interval to report.
        let few = OverheadRow::from_samples(64, ON, &samples[..5]);
        assert_eq!(few.on[0].interval, None);
        assert!(rows_json(&[few])[0].get("attached_overhead_lo").is_none());
    }

    #[test]
    fn rows_render_every_key_and_reparse() {
        let rows = [
            OverheadRow::from_samples(1024, ON, &paired(6, 1.1, 1.0)),
            OverheadRow::from_samples(64, ["full", "sampled"], &paired(7, 2.0, 1.5)),
        ];
        let json = rows_json(&rows);
        for key in [
            "n",
            "off_ns",
            "attached_ns",
            "attached_overhead",
            "attached_overhead_lo",
            "attached_overhead_hi",
            "sampled_ns",
            "sampled_overhead",
        ] {
            assert!(json[0].get(key).is_some(), "missing {key}");
        }
        assert_eq!(
            json[1].get("full_overhead").and_then(Json::as_f64),
            Some(1.0)
        );
        let mut log = BenchLog::new("overhead", "ns/round");
        log.append("test", json).unwrap();
        assert_eq!(BenchLog::parse(&log.render()).unwrap(), log);
        let table = render_table(&rows[..1]);
        assert!(
            table.contains("attached ovh") && table.contains("+10.0%"),
            "{table}"
        );
    }
}
