//! Online-event scaling study: the O(1) incremental path vs from-scratch
//! per-event recomputation.
//!
//! The online mechanism's claim (DESIGN.md §18) is that a membership event
//! — join, leave, re-bid — costs O(1) amortized: the harmonic sum
//! `S = Σ 1/b_i` is updated in double-double by one add/sub, and every
//! machine's PR rate is available through the factored closed form
//! `x_i = (1/b_i)/S · R` without touching the other machines. The naive
//! alternative recomputes `S` and the materialised allocation from scratch
//! after every event, O(n) each. This study drives the *same*
//! seed-deterministic churn stream ([`lb_sim::churn::ChurnGen`]) through
//! both paths and reports, per live-population size:
//!
//! * **events/sec (incremental)** — the [`lb_mechanism::OnlinePool`] event
//!   path, reading back the affected machine's rate after each event;
//! * **events/sec (scratch)** — full [`lb_core::inv_sum_dd`] +
//!   [`lb_core::pr_allocate_with_sum`] rebuild per event, measured on a
//!   bounded subsample of the stream (the full product would take minutes
//!   at the top grid point — which is the point);
//! * **speedup** — the ratio, the ISSUE-10 acceptance number (≥100× at
//!   10⁵ events);
//! * **re-sums** and the final relative error of the incremental sum
//!   against a from-scratch fold (must sit below 10⁻¹²).
//!
//! ```text
//! cargo run -p lb-bench --release --bin experiments -- online-scaling
//! ```

use lb_core::{inv_sum_dd, pr_allocate_with_sum};
use lb_mechanism::OnlinePool;
use lb_sim::churn::{ChurnConfig, ChurnEvent, ChurnGen};
use lb_telemetry::Json;
use std::time::Instant;

/// The slot-space grid: live population starts at half of each.
pub const SCALING_SLOTS: &[usize] = &[256, 1_024, 4_096, 16_384];

/// Events per grid point in the full study — the ISSUE-10 churn scale.
pub const EVENTS_PER_POINT: usize = 100_000;

/// Scratch-path rebuilds measured per grid point (uniformly sampled from
/// the stream, then extrapolated to events/sec).
pub const SCRATCH_SAMPLE: usize = 1_000;

/// Total arrival rate distributed by the bench pool.
const TOTAL_RATE: f64 = 20.0;

/// Churn-stream seed (fixed: the study is deterministic end to end).
const STREAM_SEED: u64 = 42;

/// One measured grid point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineScalingRow {
    /// Slot-space width (live population ≈ half at any moment).
    pub slots: usize,
    /// Events driven through the incremental path.
    pub events: usize,
    /// Incremental-path throughput.
    pub inc_events_per_sec: f64,
    /// From-scratch-rebuild throughput (subsampled, extrapolated).
    pub scratch_events_per_sec: f64,
    /// `inc_events_per_sec / scratch_events_per_sec`.
    pub speedup: f64,
    /// Compensated re-sums the incremental sum needed over the stream.
    pub resums: u64,
    /// Final relative error of the incremental sum vs a from-scratch fold.
    pub s_rel_error: f64,
}

/// The churn shape of the study: half-full slot space, pure event path
/// (no settle ticks — tick cost is a protocol-tier property measured by
/// [`crate::round_scaling`]).
#[must_use]
pub fn churn(slots: usize, events: usize) -> ChurnConfig {
    ChurnConfig {
        slots,
        initial: slots / 2,
        events,
        half_width: 3.0,
        tick_every: 0,
        min_live: 2,
    }
}

/// Applies one event to a mirror membership vector.
fn mirror_apply(mirror: &mut [Option<f64>], event: ChurnEvent) {
    match event {
        ChurnEvent::Join { slot, value } | ChurnEvent::RateChange { slot, value } => {
            mirror[slot] = Some(value);
        }
        ChurnEvent::Leave { slot } => mirror[slot] = None,
        ChurnEvent::Tick => {}
    }
}

fn event_slot(event: ChurnEvent) -> Option<usize> {
    match event {
        ChurnEvent::Join { slot, .. }
        | ChurnEvent::Leave { slot }
        | ChurnEvent::RateChange { slot, .. } => Some(slot),
        ChurnEvent::Tick => None,
    }
}

/// Drives the stream through both paths at each grid size.
///
/// # Panics
/// Panics if an event fails on the validated bench stream — that is a
/// regression in the online pool, not a measurement condition.
#[must_use]
pub fn measure(slot_grid: &[usize], events: usize, scratch_sample: usize) -> Vec<OnlineScalingRow> {
    assert!(
        events > 0 && scratch_sample > 0,
        "online_scaling: empty run"
    );
    slot_grid
        .iter()
        .map(|&slots| {
            let cfg = churn(slots, events);
            let stream: Vec<ChurnEvent> = ChurnGen::new(cfg, STREAM_SEED).collect();

            // Incremental path: apply the event, read back the affected
            // machine's rate through the O(1) factored view.
            let mut pool = OnlinePool::new(TOTAL_RATE).expect("bench rate is valid");
            let mut sink = 0.0f64;
            let start = Instant::now();
            for &event in &stream {
                match event {
                    ChurnEvent::Join { slot, value } => {
                        pool.join(slot, value).expect("bench join");
                        sink += pool.rate_of(slot).unwrap_or(0.0);
                    }
                    ChurnEvent::Leave { slot } => {
                        pool.leave(slot).expect("bench leave");
                    }
                    ChurnEvent::RateChange { slot, value } => {
                        pool.rate_change(slot, value).expect("bench rebid");
                        sink += pool.rate_of(slot).unwrap_or(0.0);
                    }
                    ChurnEvent::Tick => {}
                }
            }
            let inc_elapsed = start.elapsed().as_secs_f64();
            std::hint::black_box(sink);

            // From-scratch path: replay the same stream against a mirror;
            // on a uniform subsample of events, rebuild S and the full
            // materialised allocation, timing only the rebuilds.
            let mut mirror: Vec<Option<f64>> = vec![None; slots];
            let stride = (stream.len() / scratch_sample).max(1);
            let mut rebuilds = 0usize;
            let mut scratch_elapsed = 0.0f64;
            for (k, &event) in stream.iter().enumerate() {
                mirror_apply(&mut mirror, event);
                if k % stride != 0 || event_slot(event).is_none() {
                    continue;
                }
                let live: Vec<f64> = mirror.iter().copied().flatten().collect();
                if live.len() < 2 {
                    continue;
                }
                let t0 = Instant::now();
                let s = inv_sum_dd(&live);
                let alloc = pr_allocate_with_sum(&live, TOTAL_RATE, s).expect("bench allocation");
                scratch_elapsed += t0.elapsed().as_secs_f64();
                std::hint::black_box(alloc.rate(0));
                rebuilds += 1;
            }

            #[allow(clippy::cast_precision_loss)]
            let inc_events_per_sec = stream.len() as f64 / inc_elapsed;
            #[allow(clippy::cast_precision_loss)]
            let scratch_events_per_sec = rebuilds as f64 / scratch_elapsed;

            let live: Vec<f64> = mirror.iter().copied().flatten().collect();
            let scratch_s = inv_sum_dd(&live).value();
            let s_rel_error = (pool.harmonic_sum().value() - scratch_s).abs() / scratch_s.abs();

            OnlineScalingRow {
                slots,
                events: stream.len(),
                inc_events_per_sec,
                scratch_events_per_sec,
                speedup: inc_events_per_sec / scratch_events_per_sec,
                resums: pool.resums(),
                s_rel_error,
            }
        })
        .collect()
}

/// Renders the human-readable table the `experiments` target prints.
#[must_use]
pub fn render_table(rows: &[OnlineScalingRow]) -> String {
    let mut out = String::from(
        "    slots |   events | inc events/s | scratch events/s | speedup | resums | S rel err\n",
    );
    out.push_str(
        "----------+----------+--------------+------------------+---------+--------+----------\n",
    );
    for row in rows {
        out.push_str(&format!(
            "{:9} |{:9} |{:13.0} |{:17.0} |{:7.1}x |{:7} | {:8.1e}\n",
            row.slots,
            row.events,
            row.inc_events_per_sec,
            row.scratch_events_per_sec,
            row.speedup,
            row.resums,
            row.s_rel_error,
        ));
    }
    out
}

/// The rows as JSON objects for the [`crate::bench_log`] artifact.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn rows_json(rows: &[OnlineScalingRow]) -> Vec<Json> {
    let r1 = |v: f64| (v * 10.0).round() / 10.0;
    rows.iter()
        .map(|row| {
            Json::obj([
                ("slots", Json::Num(row.slots as f64)),
                ("events", Json::Num(row.events as f64)),
                ("inc_events_per_sec", Json::Num(r1(row.inc_events_per_sec))),
                (
                    "scratch_events_per_sec",
                    Json::Num(r1(row.scratch_events_per_sec)),
                ),
                ("speedup", Json::Num(r1(row.speedup))),
                ("resums", Json::Num(row.resums as f64)),
                ("s_rel_error", Json::Num(row.s_rel_error)),
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
        let rows = measure(&[64], 2_000, 50);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.events, 2_000);
        assert!(row.inc_events_per_sec > 0.0 && row.inc_events_per_sec.is_finite());
        assert!(row.scratch_events_per_sec > 0.0 && row.scratch_events_per_sec.is_finite());
        assert!(row.speedup > 0.0 && row.speedup.is_finite());
        assert!(
            row.s_rel_error <= 1e-12,
            "incremental sum drifted {:e}",
            row.s_rel_error
        );
        let json = rows_json(&rows);
        assert_eq!(json[0].get("slots").and_then(Json::as_u64), Some(64));
        assert!(json[0].get("speedup").is_some());
    }

    #[test]
    fn rows_render_into_a_schema_valid_bench_log() {
        let rows = measure(&[32], 500, 25);
        let mut log = BenchLog::new("online_scaling", "events/sec");
        log.append("test", rows_json(&rows)).unwrap();
        let reparsed = BenchLog::parse(&log.render()).unwrap();
        assert_eq!(reparsed, log);
    }

    #[test]
    fn the_checked_in_online_scaling_artifact_parses() {
        let text = include_str!("../../../BENCH_online.json");
        let log = BenchLog::parse(text).unwrap();
        assert_eq!(log.bench, "online_scaling");
        assert_eq!(log.unit, "events/sec");
        assert!(!log.entries.is_empty());
        // The acceptance claim: at the 10⁵-event churn scale the
        // incremental path beats per-event recomputation by ≥100×.
        let seed = &log.entries[0];
        assert!(seed
            .rows
            .iter()
            .filter_map(|r| r.get("events").and_then(Json::as_u64))
            .any(|e| e >= 100_000));
        assert!(
            seed.rows
                .iter()
                .filter_map(|r| r.get("speedup").and_then(Json::as_f64))
                .any(|s| s >= 100.0),
            "no grid point reached the 100x acceptance speedup"
        );
    }
}
