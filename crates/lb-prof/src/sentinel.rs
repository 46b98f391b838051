//! Perf-regression sentinel: live phase timings vs a named `BENCH_*.json`
//! baseline.
//!
//! The bench harness (`lb-bench`) persists labelled result sets in its
//! bench-log schema: `{bench, unit, entries: [{label, rows: [...]}]}`,
//! where each row of the `round-scaling` bench carries `n` plus
//! `p99_<phase>_ms` for the four protocol phases. [`Baseline::parse`]
//! reads that document (via [`lb_telemetry::Json`]; lb-prof deliberately
//! does not depend on lb-bench) and selects one labelled entry.
//!
//! [`check`] then compares a live series of per-round phase wall-times
//! (the [`RoundProfiler`](crate::rollup::RoundProfiler) accumulates one
//! [`OnlineStats`] per phase) against the baseline row for the same fleet
//! size. A phase is flagged **regressed** when the lower bound of the
//! Student-t confidence interval of its observed mean exceeds the
//! baseline p99 by more than the configured slack:
//!
//! ```text
//! regressed  ⇔  rounds ≥ min_rounds  ∧  CI_lo(mean) > p99_base · (1 + slack)
//! ```
//!
//! Using the CI lower bound (not the point mean) keeps the sentinel quiet
//! under noise: a single slow round widens the interval instead of
//! tripping the alarm, while a genuine slowdown tightens around the new
//! mean and clears the threshold. The slack absorbs hardware drift
//! between the machine that produced the baseline and the live one.

use crate::rollup::PHASES;
use lb_stats::{mean_confidence_interval, ConfidenceLevel, OnlineStats};
use lb_telemetry::Json;
use std::fmt;
use std::fmt::Write as _;

/// Why a baseline document could not be used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BaselineError {
    /// The text is not a bench-log document.
    BadLog(String),
    /// No entry with the requested label.
    UnknownLabel(String),
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaselineError::BadLog(m) => write!(f, "bad bench log: {m}"),
            BaselineError::UnknownLabel(l) => write!(f, "no bench-log entry labelled {l:?}"),
        }
    }
}

impl std::error::Error for BaselineError {}

/// One fleet size's baseline phase p99s, milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineRow {
    /// Fleet size the row was measured at.
    pub n: u64,
    /// p99 per phase, ms, in [`PHASES`] order (collect, allocate,
    /// execute, settle).
    pub phase_p99_ms: [f64; 4],
}

/// A labelled entry of a bench-log document, ready for [`check`].
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Bench name from the document (e.g. `round-scaling`).
    pub bench: String,
    /// The entry label selected at parse time (e.g. `seed`).
    pub label: String,
    /// One row per fleet size.
    pub rows: Vec<BaselineRow>,
}

impl Baseline {
    /// Parses a bench-log document and selects the entry named `label`.
    ///
    /// # Errors
    /// [`BaselineError::BadLog`] on malformed documents or rows missing
    /// the `n` / `p99_<phase>_ms` keys; [`BaselineError::UnknownLabel`]
    /// when no entry carries `label`.
    pub fn parse(text: &str, label: &str) -> Result<Self, BaselineError> {
        let bad = |m: &str| BaselineError::BadLog(m.to_string());
        let doc = Json::parse(text).map_err(|e| bad(&format!("does not parse: {e}")))?;
        let bench = doc
            .get("bench")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing bench name"))?
            .to_string();
        let entries = doc
            .get("entries")
            .and_then(Json::as_array)
            .ok_or_else(|| bad("missing entries"))?;
        let entry = entries
            .iter()
            .find(|e| e.get("label").and_then(Json::as_str) == Some(label))
            .ok_or_else(|| BaselineError::UnknownLabel(label.to_string()))?;
        let rows_json = entry
            .get("rows")
            .and_then(Json::as_array)
            .ok_or_else(|| bad("entry has no rows"))?;
        let mut rows = Vec::with_capacity(rows_json.len());
        for row in rows_json {
            let n = row
                .get("n")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("row missing n"))?;
            let mut phase_p99_ms = [0.0_f64; 4];
            for (i, phase) in PHASES.iter().enumerate() {
                let key = format!("p99_{phase}_ms");
                let v = row
                    .get(&key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| bad(&format!("row missing {key}")))?;
                if !v.is_finite() || v < 0.0 {
                    return Err(bad(&format!("row has invalid {key}")));
                }
                phase_p99_ms[i] = v;
            }
            rows.push(BaselineRow { n, phase_p99_ms });
        }
        Ok(Self {
            bench,
            label: label.to_string(),
            rows,
        })
    }

    /// The row measured at fleet size `n`, if the baseline has one.
    #[must_use]
    pub fn row_for(&self, n: u64) -> Option<&BaselineRow> {
        self.rows.iter().find(|r| r.n == n)
    }
}

/// Sentinel thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SentinelConfig {
    /// Student-t confidence level for the mean interval.
    pub confidence: ConfidenceLevel,
    /// Fractional headroom over the baseline p99 before flagging
    /// (absorbs cross-machine drift).
    pub slack: f64,
    /// Minimum profiled rounds before any phase may be flagged.
    pub min_rounds: u64,
}

impl Default for SentinelConfig {
    fn default() -> Self {
        Self {
            confidence: ConfidenceLevel::P99,
            slack: 0.25,
            min_rounds: 3,
        }
    }
}

/// One phase's comparison against the baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Phase name (`collect`, `allocate`, `execute`, `settle`).
    pub phase: &'static str,
    /// Profiled rounds behind the verdict.
    pub rounds: u64,
    /// Observed mean phase wall-time, ms.
    pub observed_mean_ms: f64,
    /// CI lower bound of the mean, ms (equals the mean when too few
    /// rounds for an interval).
    pub ci_lo_ms: f64,
    /// CI upper bound of the mean, ms.
    pub ci_hi_ms: f64,
    /// Baseline p99 for the phase, ms.
    pub baseline_p99_ms: f64,
    /// Flagging threshold: `baseline_p99_ms * (1 + slack)`.
    pub threshold_ms: f64,
    /// Whether the phase regressed past the threshold.
    pub regressed: bool,
}

/// Compares live per-phase series against the baseline row for fleet
/// size `n`. Returns one [`Verdict`] per phase, or an empty vector when
/// the baseline has no row at `n` (nothing comparable — not a failure).
#[must_use]
pub fn check(
    series: &[OnlineStats; 4],
    n: u64,
    baseline: &Baseline,
    cfg: &SentinelConfig,
) -> Vec<Verdict> {
    let Some(row) = baseline.row_for(n) else {
        return Vec::new();
    };
    // The t-interval needs >= 2 observations regardless of configuration.
    let min_rounds = cfg.min_rounds.max(2);
    PHASES
        .iter()
        .enumerate()
        .map(|(i, phase)| {
            let stats = &series[i];
            let rounds = stats.count();
            let mean_ms = if rounds == 0 { 0.0 } else { stats.mean() * 1e3 };
            let (ci_lo_ms, ci_hi_ms) = if rounds >= 2 {
                let ci = mean_confidence_interval(stats, cfg.confidence);
                (ci.lo() * 1e3, ci.hi() * 1e3)
            } else {
                (mean_ms, mean_ms)
            };
            let baseline_p99_ms = row.phase_p99_ms[i];
            let threshold_ms = baseline_p99_ms * (1.0 + cfg.slack);
            Verdict {
                phase,
                rounds,
                observed_mean_ms: mean_ms,
                ci_lo_ms,
                ci_hi_ms,
                baseline_p99_ms,
                threshold_ms,
                regressed: rounds >= min_rounds && ci_lo_ms > threshold_ms,
            }
        })
        .collect()
}

/// The `/regressions` document for a verdict set.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn verdicts_json(
    verdicts: &[Verdict],
    n: u64,
    baseline: &Baseline,
    cfg: &SentinelConfig,
) -> Json {
    Json::obj([
        ("bench", Json::Str(baseline.bench.clone())),
        ("label", Json::Str(baseline.label.clone())),
        ("n", Json::Num(n as f64)),
        ("confidence", Json::Num(cfg.confidence.value())),
        ("slack", Json::Num(cfg.slack)),
        (
            "regressed",
            Json::Bool(verdicts.iter().any(|v| v.regressed)),
        ),
        (
            "verdicts",
            Json::Arr(
                verdicts
                    .iter()
                    .map(|v| {
                        Json::obj([
                            ("phase", Json::Str(v.phase.to_string())),
                            ("rounds", Json::Num(v.rounds as f64)),
                            ("observed_mean_ms", Json::Num(v.observed_mean_ms)),
                            ("ci_lo_ms", Json::Num(v.ci_lo_ms)),
                            ("ci_hi_ms", Json::Num(v.ci_hi_ms)),
                            ("baseline_p99_ms", Json::Num(v.baseline_p99_ms)),
                            ("threshold_ms", Json::Num(v.threshold_ms)),
                            ("regressed", Json::Bool(v.regressed)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Renders verdicts as a fixed-width text table for terminal dashboards.
#[must_use]
pub fn render(verdicts: &[Verdict]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>7} {:>12} {:>12} {:>12} {:>12}  verdict",
        "phase", "rounds", "mean ms", "ci-lo ms", "base p99", "threshold"
    );
    for v in verdicts {
        let _ = writeln!(
            out,
            "{:<10} {:>7} {:>12.3} {:>12.3} {:>12.3} {:>12.3}  {}",
            v.phase,
            v.rounds,
            v.observed_mean_ms,
            v.ci_lo_ms,
            v.baseline_p99_ms,
            v.threshold_ms,
            if v.regressed { "REGRESSED" } else { "ok" }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_log_text() -> String {
        r#"{"bench":"round-scaling","unit":"ms","entries":[
            {"label":"seed","rows":[
                {"n":1024,"shards":8,"rounds":8,
                 "p99_collect_ms":4.0,"p99_allocate_ms":10.0,
                 "p99_execute_ms":6.0,"p99_settle_ms":8.0},
                {"n":100000,"shards":8,"rounds":8,
                 "p99_collect_ms":40.0,"p99_allocate_ms":372.2,
                 "p99_execute_ms":60.0,"p99_settle_ms":34.7}]},
            {"label":"other","rows":[
                {"n":1024,"p99_collect_ms":1.0,"p99_allocate_ms":1.0,
                 "p99_execute_ms":1.0,"p99_settle_ms":1.0}]}
        ]}"#
        .to_string()
    }

    fn series(ms_per_phase: [f64; 4], rounds: u64, jitter: f64) -> [OnlineStats; 4] {
        let mut out = [OnlineStats::new(); 4];
        for (i, stats) in out.iter_mut().enumerate() {
            for r in 0..rounds {
                // Small deterministic jitter so variance is nonzero.
                #[allow(clippy::cast_precision_loss)]
                let wobble = jitter * ((r % 3) as f64 - 1.0);
                stats.push((ms_per_phase[i] + wobble) * 1e-3);
            }
        }
        out
    }

    #[test]
    fn parse_selects_the_labelled_entry() {
        let b = Baseline::parse(&bench_log_text(), "seed").unwrap();
        assert_eq!(b.bench, "round-scaling");
        assert_eq!(b.rows.len(), 2);
        assert_eq!(b.row_for(1024).unwrap().phase_p99_ms[1], 10.0);
        assert_eq!(b.row_for(100_000).unwrap().phase_p99_ms[3], 34.7);
        assert!(b.row_for(7).is_none());

        let other = Baseline::parse(&bench_log_text(), "other").unwrap();
        assert_eq!(other.row_for(1024).unwrap().phase_p99_ms[0], 1.0);
    }

    #[test]
    fn unknown_label_and_malformed_rows_are_errors() {
        assert_eq!(
            Baseline::parse(&bench_log_text(), "nope"),
            Err(BaselineError::UnknownLabel("nope".to_string()))
        );
        assert!(matches!(
            Baseline::parse("{\"entries\":[]}", "seed"),
            Err(BaselineError::BadLog(_))
        ));
        let missing_key = r#"{"bench":"b","unit":"ms","entries":[
            {"label":"seed","rows":[{"n":10,"p99_collect_ms":1.0}]}]}"#;
        assert!(matches!(
            Baseline::parse(missing_key, "seed"),
            Err(BaselineError::BadLog(_))
        ));
    }

    #[test]
    fn healthy_series_is_not_flagged() {
        let baseline = Baseline::parse(&bench_log_text(), "seed").unwrap();
        let cfg = SentinelConfig::default();
        // Means sit at the baseline p99s themselves: inside the slack band.
        let verdicts = check(
            &series([4.0, 10.0, 6.0, 8.0], 8, 0.05),
            1024,
            &baseline,
            &cfg,
        );
        assert_eq!(verdicts.len(), 4);
        assert!(verdicts.iter().all(|v| !v.regressed));
    }

    #[test]
    fn doubled_settle_is_flagged_and_only_settle() {
        let baseline = Baseline::parse(&bench_log_text(), "seed").unwrap();
        let cfg = SentinelConfig::default();
        // Settle at 2x its 8 ms baseline; threshold is 10 ms.
        let verdicts = check(
            &series([4.0, 10.0, 6.0, 16.0], 8, 0.05),
            1024,
            &baseline,
            &cfg,
        );
        let settle = verdicts.iter().find(|v| v.phase == "settle").unwrap();
        assert!(settle.regressed);
        assert!(settle.ci_lo_ms > settle.threshold_ms);
        assert_eq!(verdicts.iter().filter(|v| v.regressed).count(), 1);
    }

    #[test]
    fn too_few_rounds_never_flags() {
        let baseline = Baseline::parse(&bench_log_text(), "seed").unwrap();
        let cfg = SentinelConfig::default();
        let verdicts = check(
            &series([4.0, 10.0, 6.0, 50.0], 2, 0.05),
            1024,
            &baseline,
            &cfg,
        );
        assert!(verdicts.iter().all(|v| !v.regressed));
        // And a fleet size the baseline never measured yields no verdicts.
        assert!(check(&series([4.0; 4], 8, 0.05), 999, &baseline, &cfg).is_empty());
    }

    #[test]
    fn wide_noise_keeps_the_sentinel_quiet() {
        let baseline = Baseline::parse(&bench_log_text(), "seed").unwrap();
        let cfg = SentinelConfig::default();
        // Mean above threshold but jitter so large the CI dips below it.
        let verdicts = check(
            &series([4.0, 10.0, 6.0, 11.0], 4, 9.0),
            1024,
            &baseline,
            &cfg,
        );
        let settle = verdicts.iter().find(|v| v.phase == "settle").unwrap();
        assert!(!settle.regressed, "wide CI must not trip the alarm");
    }

    #[test]
    fn verdicts_json_round_trips_and_render_mentions_regression() {
        let baseline = Baseline::parse(&bench_log_text(), "seed").unwrap();
        let cfg = SentinelConfig::default();
        let verdicts = check(
            &series([4.0, 10.0, 6.0, 16.0], 8, 0.05),
            1024,
            &baseline,
            &cfg,
        );
        let doc = verdicts_json(&verdicts, 1024, &baseline, &cfg);
        let back = Json::parse(&doc.render()).unwrap();
        assert_eq!(back.get("regressed").and_then(Json::as_bool), Some(true));
        assert_eq!(back.get("confidence").and_then(Json::as_f64), Some(0.99));
        assert_eq!(
            back.get("verdicts")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(4)
        );
        let text = render(&verdicts);
        assert!(text.contains("REGRESSED"));
        assert!(text.contains("settle"));
    }

    /// The typed level reproduces, bit for bit, the interval the sentinel
    /// computed when the level was the `f64` 0.90, 0.95 or 0.99: below
    /// (7 rounds, table rows) and above (40 rounds, interpolation) df = 30.
    #[test]
    fn confidence_levels_reproduce_the_f64_intervals() {
        const EXPECTED: [(u64, ConfidenceLevel, [[u64; 2]; 4]); 6] = [
            (
                7,
                ConfidenceLevel::P90,
                [
                    [0x400d_6dae_e9df_52fa, 0x4010_d421_3a9b_4f32],
                    [0x4023_5b6b_ba77_d4be, 0x4024_6a10_9d4d_a799],
                    [0x4016_b6d7_74ef_a97e, 0x4018_d421_3a9b_4f32],
                    [0x401e_b6d7_74ef_a97e, 0x4020_6a10_9d4d_a79a],
                ],
            ),
            (
                7,
                ConfidenceLevel::P95,
                [
                    [0x400c_e146_ed68_7d81, 0x4011_1a55_38d6_b9f0],
                    [0x4023_3851_bb5a_1f60, 0x4024_8d2a_9c6b_5cf7],
                    [0x4016_70a3_76b4_3ec0, 0x4019_1a55_38d6_b9f0],
                    [0x401e_70a3_76b4_3ec1, 0x4020_8d2a_9c6b_5cf8],
                ],
            ),
            (
                7,
                ConfidenceLevel::P99,
                [
                    [0x400b_8242_f63f_67d1, 0x4011_c9d7_346b_44c7],
                    [0x4022_e090_bd8f_d9f3, 0x4024_e4eb_9a35_a264],
                    [0x4015_c121_7b1f_b3e9, 0x4019_c9d7_346b_44c7],
                    [0x401d_c121_7b1f_b3e9, 0x4020_e4eb_9a35_a265],
                ],
            ),
            (
                40,
                ConfidenceLevel::P90,
                [
                    [0x400f_3601_bbea_df69, 0x4010_5084_40c2_e238],
                    [0x4023_cd80_6efa_b7d9, 0x4024_2842_2061_711c],
                    [0x4017_9b00_ddf5_6fb5, 0x4018_5084_40c2_e238],
                    [0x401f_9b00_ddf5_6fb2, 0x4020_2842_2061_711c],
                ],
            ),
            (
                40,
                ConfidenceLevel::P95,
                [
                    [0x400f_1196_8ef7_962e, 0x4010_62b9_d73c_86d5],
                    [0x4023_c465_a3bd_e58a, 0x4024_315c_eb9e_436a],
                    [0x4017_88cb_477b_cb17, 0x4018_62b9_d73c_86d6],
                    [0x401f_88cb_477b_cb15, 0x4020_315c_eb9e_436a],
                ],
            ),
            (
                40,
                ConfidenceLevel::P99,
                [
                    [0x400e_c79b_7747_ef13, 0x4010_87b7_6314_5a63],
                    [0x4023_b1e6_ddd1_fbc3, 0x4024_43db_b18a_2d31],
                    [0x4017_63cd_bba3_f78a, 0x4018_87b7_6314_5a63],
                    [0x401f_63cd_bba3_f787, 0x4020_43db_b18a_2d31],
                ],
            ),
        ];
        let baseline = Baseline::parse(&bench_log_text(), "seed").unwrap();
        for (rounds, confidence, expected) in EXPECTED {
            let cfg = SentinelConfig {
                confidence,
                ..SentinelConfig::default()
            };
            let got: Vec<[u64; 2]> = check(
                &series([4.0, 10.0, 6.0, 8.0], rounds, 0.4),
                1024,
                &baseline,
                &cfg,
            )
            .iter()
            .map(|v| [v.ci_lo_ms.to_bits(), v.ci_hi_ms.to_bits()])
            .collect();
            assert_eq!(got, expected, "{rounds} rounds at {confidence:?}");
        }
    }
}
