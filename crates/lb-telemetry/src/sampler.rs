//! Head-based trace sampling and per-collector overhead accounting.
//!
//! Sampling decisions are made **once, at the head of a round**, and are a
//! pure function of `(seed, round)` — never of a wall clock or a global RNG —
//! so a chaos replay of the same seed samples exactly the same rounds and
//! reproduces identical traces. The decision is then carried to every
//! participant in the `sampled` flag of the wire
//! [`TraceContext`](crate::context::TraceContext).

use lb_stats::derive_seed;

/// Salt so the sampling hash is independent of the trace-id derivation.
const SAMPLE_SALT: u64 = 0x7361_6D70_6C65_7221; // "sampler!"

/// A deterministic head-based sampling policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sampler {
    /// Sample every round.
    Always,
    /// Sample nothing.
    Never,
    /// Sample each round independently with this probability, decided by a
    /// hash of `(seed, round)`. Values ≤ 0 behave like [`Sampler::Never`],
    /// values ≥ 1 like [`Sampler::Always`].
    Ratio(f64),
    /// Sample every `n`-th round (rounds `0, n, 2n, …`). `PerRound(0)`
    /// samples nothing.
    PerRound(u64),
}

impl Sampler {
    /// Whether the round identified by `(seed, round)` is sampled.
    ///
    /// Pure and deterministic: the same inputs always give the same answer,
    /// on every machine, in every replay.
    #[must_use]
    pub fn admits(&self, seed: u64, round: u64) -> bool {
        match *self {
            Sampler::Always => true,
            Sampler::Never => false,
            Sampler::Ratio(r) => {
                if r.is_nan() || r <= 0.0 {
                    return false;
                }
                if r >= 1.0 {
                    return true;
                }
                // 53 uniform bits → [0, 1); compare against the ratio.
                let h = derive_seed(seed ^ SAMPLE_SALT, round);
                #[allow(clippy::cast_precision_loss)]
                let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                u < r
            }
            Sampler::PerRound(n) => n != 0 && round % n == 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_and_never_are_constant() {
        for round in 0..32 {
            assert!(Sampler::Always.admits(7, round));
            assert!(!Sampler::Never.admits(7, round));
        }
    }

    #[test]
    fn ratio_is_deterministic_and_roughly_calibrated() {
        let s = Sampler::Ratio(0.25);
        let first: Vec<bool> = (0..4000).map(|r| s.admits(99, r)).collect();
        let second: Vec<bool> = (0..4000).map(|r| s.admits(99, r)).collect();
        assert_eq!(first, second, "sampling must be a pure function");
        let hits = first.iter().filter(|b| **b).count();
        assert!(
            (800..=1200).contains(&hits),
            "0.25 ratio admitted {hits}/4000"
        );
        // Different seeds make independent decisions.
        let other_hits = (0..4000).filter(|&r| s.admits(100, r)).count();
        assert_ne!(hits, 0);
        assert!(other_hits > 0);
    }

    #[test]
    fn ratio_extremes_clamp() {
        assert!(!Sampler::Ratio(0.0).admits(1, 1));
        assert!(!Sampler::Ratio(-3.0).admits(1, 1));
        assert!(!Sampler::Ratio(f64::NAN).admits(1, 1));
        assert!(Sampler::Ratio(1.0).admits(1, 1));
        assert!(Sampler::Ratio(7.5).admits(1, 1));
    }

    #[test]
    fn per_round_samples_multiples() {
        let s = Sampler::PerRound(4);
        let admitted: Vec<u64> = (0..13).filter(|&r| s.admits(3, r)).collect();
        assert_eq!(admitted, vec![0, 4, 8, 12]);
        assert!(!Sampler::PerRound(0).admits(3, 0), "PerRound(0) is Never");
    }
}
