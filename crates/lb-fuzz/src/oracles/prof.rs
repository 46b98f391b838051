//! Differential oracle for `lb-prof`'s reads: the latency sketch it and
//! the metrics registry summarise durations with.
//!
//! **Merge exactness**, on seed-derived inputs: a population of wall-times
//! is split across a random shard partition; the per-shard sketches merged
//! with [`LatencySketch::merge`] must answer every quantile read *bitwise*
//! equal to a sketch built from the whole population (the histogram merge
//! is bin addition, so partitioning must be unobservable), and reads must
//! track the exact nearest-rank quantile within the documented
//! [`SKETCH_RTOL`].

use crate::generate::rng_for;
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

/// One iteration: merge exactness.
///
/// # Errors
/// A description of the violated property.
pub fn check(seed: u64) -> Result<(), String> {
    merge_exactness(&mut rng_for(seed))
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
}
