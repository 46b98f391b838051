//! Differential oracle for `lb-prof`'s reads: the latency sketch it and
//! the metrics registry summarise durations with, and its profile
//! documents.
//!
//! Two properties per iteration, both on seed-derived inputs:
//!
//! 1. **Merge exactness** — a population of wall-times is split across a
//!    random shard partition; the per-shard sketches merged with
//!    [`LatencySketch::merge`] must answer every quantile read *bitwise*
//!    equal to a sketch built from the whole population (the histogram
//!    merge is bin addition, so partitioning must be unobservable), and
//!    reads must track the exact nearest-rank quantile within the
//!    documented [`SKETCH_RTOL`].
//! 2. **Profile document robustness** — a synthetic [`RoundProfile`]
//!    round-trips through its JSONL codec exactly, and byte-mutated
//!    documents parse to a typed error or a valid profile, never a panic.

use crate::generate::{mutate_bytes, rng_for};
use lb_prof::{from_jsonl, to_jsonl, PathNode, RoundProfile, Straggler};
use lb_stats::{nearest_rank, LatencySketch, Rng, Xoshiro256StarStar, SKETCH_RTOL};

/// Quantiles every iteration reads back; edges included deliberately —
/// they must degrade to the exact extrema.
const PROBES: [f64; 6] = [0.0, 0.25, 0.5, 0.9, 0.99, 1.0];

fn wall_times(rng: &mut Xoshiro256StarStar, n: usize) -> Vec<f64> {
    // Machine verification wall-times: log-uniform across microseconds to
    // tens of seconds, the plausible range of the sketch's use.
    (0..n)
        .map(|_| 10f64.powf(rng.next_range(-6.0, 1.0)))
        .collect()
}

fn merge_exactness(rng: &mut Xoshiro256StarStar) -> Result<(), String> {
    let n = 1 + rng.next_below(300) as usize;
    let values = wall_times(rng, n);
    let whole = LatencySketch::from_slice(&values);

    let shards = 1 + rng.next_below(8) as u32;
    let mut parts: Vec<Vec<f64>> = vec![Vec::new(); shards as usize];
    for &v in &values {
        parts[rng.next_below(u64::from(shards)) as usize].push(v);
    }

    let mut fleet = LatencySketch::new();
    for part in &parts {
        fleet.merge(&LatencySketch::from_slice(part));
    }
    if fleet.count() != whole.count() {
        return Err(format!(
            "fleet count {} != population count {}",
            fleet.count(),
            whole.count()
        ));
    }
    for q in PROBES {
        let (m, w) = (fleet.quantile(q), whole.quantile(q));
        if m.to_bits() != w.to_bits() {
            return Err(format!(
                "merged q{q} = {m:e} differs from whole-population {w:e}"
            ));
        }
    }

    // Accuracy against the exact order statistic, at a seed-dependent q.
    let mut sorted = values;
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite wall-times"));
    let q = rng.next_range(0.01, 0.99);
    let exact = sorted[nearest_rank(q, sorted.len()) - 1];
    let approx = fleet.quantile(q);
    let rel = (approx - exact).abs() / exact;
    if rel > SKETCH_RTOL {
        return Err(format!(
            "q{q:.3} read {approx:e} vs exact {exact:e}: rel {rel:.4} > {SKETCH_RTOL}"
        ));
    }
    Ok(())
}

fn synthetic_profile(rng: &mut Xoshiro256StarStar) -> RoundProfile {
    let round_wall = 10f64.powf(rng.next_range(-3.0, 1.0));
    let mut path = vec![PathNode {
        name: "round".to_string(),
        depth: 0,
        start: 0.0,
        end: round_wall,
        self_time: round_wall * rng.next_f64() * 0.1,
        blocked_time: round_wall * rng.next_f64() * 0.9,
        shard: None,
        machine: None,
    }];
    let mut cursor = 0.0;
    for phase in ["collect", "allocate", "execute", "settle"] {
        let dur = round_wall * rng.next_range(0.05, 0.2);
        path.push(PathNode {
            name: format!("phase.{phase}"),
            depth: 1,
            start: cursor,
            end: cursor + dur,
            self_time: dur * rng.next_f64(),
            blocked_time: dur * rng.next_f64(),
            shard: rng.next_bool(0.5).then(|| rng.next_below(8)),
            machine: rng.next_bool(0.2).then(|| rng.next_below(1000)),
        });
        cursor += dur;
    }
    let stragglers = (0..rng.next_below(4))
        .map(|_| Straggler {
            phase: "phase.execute".to_string(),
            shard: rng.next_below(8),
            duration: round_wall * rng.next_f64(),
        })
        .collect();
    RoundProfile {
        round_wall,
        coverage: cursor / round_wall,
        path,
        stragglers,
    }
}

fn document_robustness(rng: &mut Xoshiro256StarStar) -> Result<(), String> {
    let profiles: Vec<RoundProfile> = (0..1 + rng.next_below(3))
        .map(|_| synthetic_profile(rng))
        .collect();
    let text = to_jsonl(&profiles);
    let back = from_jsonl(&text).map_err(|e| format!("clean profile JSONL rejected: {e}"))?;
    if back != profiles {
        return Err("profile JSONL round-trip not identity".to_string());
    }
    // Byte mutation: the parser must answer with a typed error or a valid
    // document — the catch_unwind harness turns any panic into a finding.
    let mut bytes = text.into_bytes();
    mutate_bytes(rng, &mut bytes);
    let mutated = String::from_utf8_lossy(&bytes);
    match from_jsonl(&mutated) {
        Ok(profiles) => {
            for p in &profiles {
                let _ = p.render_text();
                let _ = p.to_json().render();
            }
        }
        Err(e) => {
            let _ = e.to_string();
        }
    }
    Ok(())
}

/// One iteration: merge exactness, then document robustness.
///
/// # Errors
/// A description of the first violated property.
pub fn check(seed: u64) -> Result<(), String> {
    let mut rng = rng_for(seed);
    merge_exactness(&mut rng)?;
    document_robustness(&mut rng)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_sample_passes() {
        for seed in 0..40 {
            check(seed).unwrap();
        }
    }

    #[test]
    fn synthetic_profiles_round_trip() {
        let mut rng = rng_for(11);
        let p = synthetic_profile(&mut rng);
        let back = from_jsonl(&to_jsonl(std::slice::from_ref(&p))).unwrap();
        assert_eq!(back, vec![p]);
    }
}
