//! Differential oracle for the `lb-prof` cross-shard rollup.
//!
//! Three properties per iteration, all on seed-derived inputs:
//!
//! 1. **Merge exactness** — a population of wall-times is split across a
//!    random shard partition; every per-shard sketch must survive a wire
//!    round-trip bit-identically, the shard sketches merged through
//!    [`RoundProfiler::ingest_shard`] must answer every quantile read
//!    *bitwise* equal to a sketch built from the whole population (the
//!    histogram merge is bin addition, so partitioning must be
//!    unobservable), and reads must track the exact nearest-rank quantile
//!    within the documented [`SKETCH_RTOL`].
//! 2. **Frame validation** — one random corruption (NaN moments, foreign
//!    histogram geometry, truncated bins, stats/histogram count mismatch)
//!    must be rejected by the typed decoder, and a rejected frame must
//!    leave the rollup untouched.
//! 3. **Profile document robustness** — a synthetic [`RoundProfile`]
//!    round-trips through its JSONL codec exactly, and byte-mutated
//!    documents parse to a typed error or a valid profile, never a panic.

use crate::generate::{mutate_bytes, rng_for};
use lb_prof::{
    from_jsonl, to_jsonl, PathNode, RoundProfile, RoundProfiler, Straggler, WireShardProfile,
};
use lb_stats::{nearest_rank, LatencySketch, Rng, Xoshiro256StarStar, SKETCH_BINS, SKETCH_RTOL};

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

    let mut profiler = RoundProfiler::new();
    for (shard, part) in parts.iter().enumerate() {
        let sketch = LatencySketch::from_slice(part);
        let wire = sketch.to_wire();
        let back = LatencySketch::from_wire(&wire)
            .map_err(|e| format!("clean frame rejected (shard {shard}): {e}"))?;
        if back != sketch {
            return Err(format!("wire round-trip not identity (shard {shard})"));
        }
        let slowest = part
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite wall-times"))
            .map(|(i, &w)| (i as u64, w));
        #[allow(clippy::cast_possible_truncation)]
        let frame = WireShardProfile {
            shard: shard as u32,
            machines: part.len() as u64,
            machine_wall: wire,
            slowest,
        };
        profiler
            .ingest_shard(&frame, slowest)
            .map_err(|e| format!("clean ingest rejected (shard {shard}): {e}"))?;
    }

    let fleet = profiler.rollup().fleet_machine();
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

fn frame_validation(rng: &mut Xoshiro256StarStar) -> Result<(), String> {
    let n = 2 + rng.next_below(30) as usize;
    let values = wall_times(rng, n);
    let good = LatencySketch::from_slice(&values).to_wire();
    let mut bad = good.clone();
    let class = match rng.next_below(4) {
        0 => {
            bad.mean = f64::NAN;
            "NaN mean"
        }
        1 => {
            bad.log_hi = 9.0;
            "foreign geometry"
        }
        2 => {
            bad.bins
                .truncate(rng.next_below(SKETCH_BINS as u64) as usize);
            "truncated bins"
        }
        _ => {
            bad.count += 1 + rng.next_below(5);
            bad.m2 = 0.1;
            "count mismatch"
        }
    };
    if LatencySketch::from_wire(&bad).is_ok() {
        return Err(format!("corrupt frame ({class}) accepted"));
    }
    // A rejected frame must not perturb the rollup.
    let mut profiler = RoundProfiler::new();
    profiler
        .ingest_shard(
            &WireShardProfile {
                shard: 0,
                machines: values.len() as u64,
                machine_wall: good,
                slowest: None,
            },
            None,
        )
        .map_err(|e| format!("clean frame rejected: {e}"))?;
    let before = profiler.rollup().clone();
    let corrupt = WireShardProfile {
        shard: 1,
        machines: 1,
        machine_wall: bad,
        slowest: None,
    };
    if profiler.ingest_shard(&corrupt, None).is_ok() {
        return Err(format!("corrupt shard frame ({class}) ingested"));
    }
    if *profiler.rollup() != before {
        return Err(format!("rejected frame ({class}) mutated the rollup"));
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

/// One iteration: merge exactness, frame validation, document robustness.
///
/// # Errors
/// A description of the first violated property.
pub fn check(seed: u64) -> Result<(), String> {
    let mut rng = rng_for(seed);
    merge_exactness(&mut rng)?;
    frame_validation(&mut rng)?;
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
