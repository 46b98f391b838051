//! Structure-aware, seed-deterministic input generators.
//!
//! Every generator draws from an explicit [`Xoshiro256StarStar`] so that a
//! failing fuzz iteration is reproduced *exactly* by re-running its derived
//! seed (see [`crate::harness`]). Values are sampled **log-uniformly** —
//! exponents first, then `10^e` — because the interesting numerical
//! behaviour of the PR/payment kernels lives in the magnitude *spread*
//! between machines, not in the mantissas.

use lb_proto::{ChaosConfig, FaultPlan, Message, NodeSpec, RoundId};
use lb_stats::{Rng, Xoshiro256StarStar};

/// The RNG for one fuzz iteration.
#[must_use]
pub fn rng_for(seed: u64) -> Xoshiro256StarStar {
    Xoshiro256StarStar::seed_from_u64(seed)
}

/// Picks a magnitude-spread class: half-width of the exponent range the
/// latency parameters are drawn from. `6.0` means values span `10^±6` —
/// a 10¹² spread across machines, the widest the acceptance bar requires.
#[must_use]
pub fn spread_half_width(rng: &mut Xoshiro256StarStar) -> f64 {
    match rng.next_below(3) {
        0 => 0.5,
        1 => 3.0,
        _ => 6.0,
    }
}

/// Latency parameters `t_i`, log-uniform in `10^[-half_width, half_width]`.
#[must_use]
pub fn latency_values(rng: &mut Xoshiro256StarStar, n: usize, half_width: f64) -> Vec<f64> {
    (0..n)
        .map(|_| 10f64.powf(rng.next_range(-half_width, half_width)))
        .collect()
}

/// A total arrival rate, log-uniform in `10^[-3, 3]`.
#[must_use]
pub fn arrival_rate(rng: &mut Xoshiro256StarStar) -> f64 {
    10f64.powf(rng.next_range(-3.0, 3.0))
}

/// A random protocol message with finite payload fields (finiteness keeps
/// `PartialEq` usable for round-trip comparison; raw-bit robustness is
/// exercised separately through byte mutation).
#[must_use]
pub fn message(rng: &mut Xoshiro256StarStar) -> Message {
    let round = RoundId(rng.next_u64());
    #[allow(clippy::cast_possible_truncation)]
    let machine = rng.next_u64() as u32;
    let value = 10f64.powf(rng.next_range(-6.0, 6.0));
    match rng.next_below(7) {
        0 => Message::RequestBid { round },
        1 => Message::Bid {
            round,
            machine,
            value,
        },
        2 => Message::Assign { round, rate: value },
        3 => Message::ExecutionDone { round, machine },
        4 => Message::ShardSum {
            round,
            shard: machine,
            sum_hi: value,
            sum_lo: value * 1e-17,
        },
        5 => Message::ShardEstimates {
            round,
            shard: machine,
            estimates: (0..rng.next_below(8))
                .map(|_| 10f64.powf(rng.next_range(-6.0, 6.0)))
                .collect(),
        },
        _ => Message::Payment {
            round,
            amount: if rng.next_bool(0.5) { value } else { -value },
        },
    }
}

/// Applies 1–4 random byte-level mutations in place: bit flips, byte
/// overwrites, truncations and insertions — the corruption model a codec
/// must survive without panicking or over-allocating.
pub fn mutate_bytes(rng: &mut Xoshiro256StarStar, bytes: &mut Vec<u8>) {
    let ops = 1 + rng.next_below(4);
    for _ in 0..ops {
        if bytes.is_empty() {
            bytes.push(rng.next_u64() as u8);
            continue;
        }
        #[allow(clippy::cast_possible_truncation)]
        let pos = rng.next_below(bytes.len() as u64) as usize;
        match rng.next_below(4) {
            0 => bytes[pos] ^= 1 << rng.next_below(8),
            1 => bytes[pos] = rng.next_u64() as u8,
            2 => bytes.truncate(pos),
            _ => bytes.insert(pos, rng.next_u64() as u8),
        }
    }
}

/// Node behaviours for a chaos round. Every node is **consistent** in the
/// paper's sense (it executes at its bid, `t̃_i = b_i`), because that is the
/// precondition of Theorems 3.1/3.2 — the invariants the session oracle
/// checks. Roughly 70% of nodes are fully truthful; the rest overbid by a
/// factor in `[1, 3]` and run at the bid.
#[must_use]
pub fn node_specs(rng: &mut Xoshiro256StarStar, n: usize) -> Vec<NodeSpec> {
    (0..n)
        .map(|_| {
            let t = 10f64.powf(rng.next_range(-1.0, 1.0));
            if rng.next_bool(0.7) {
                NodeSpec::truthful(t)
            } else {
                let bid = t * rng.next_range(1.0, 3.0);
                NodeSpec::strategic(t, bid, bid)
            }
        })
        .collect()
}

/// A random—but always *valid*—chaos configuration: moderate fault
/// probabilities, an armed retry budget and timers that satisfy the
/// documented preconditions (`retry_timeout` above one round trip,
/// `backoff ≥ 1`).
#[must_use]
pub fn chaos_config(rng: &mut Xoshiro256StarStar, seed: u64) -> ChaosConfig {
    #[allow(clippy::cast_possible_truncation)]
    let bid_retries = rng.next_below(5) as u32;
    ChaosConfig {
        seed,
        drop_prob: rng.next_range(0.0, 0.25),
        duplicate_prob: rng.next_range(0.0, 0.2),
        corrupt_prob: rng.next_range(0.0, 0.2),
        jitter: rng.next_range(0.0, 0.005),
        plan: FaultPlan::none(),
        bid_retries,
        retry_timeout: rng.next_range(0.02, 0.1),
        backoff: rng.next_range(1.0, 3.0),
        exec_timeout: rng.next_range(0.5, 1.5),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed() {
        let mut a = rng_for(42);
        let mut b = rng_for(42);
        assert_eq!(
            latency_values(&mut a, 8, 6.0),
            latency_values(&mut b, 8, 6.0)
        );
        assert_eq!(message(&mut a), message(&mut b));
    }

    #[test]
    fn latency_values_are_always_in_the_validated_domain() {
        let mut rng = rng_for(7);
        for _ in 0..200 {
            let half = spread_half_width(&mut rng);
            for v in latency_values(&mut rng, 6, half) {
                assert!(v.is_finite() && v > 0.0);
                assert!((lb_core::MIN_LATENCY_PARAM..=lb_core::MAX_LATENCY_PARAM).contains(&v));
            }
        }
    }

    #[test]
    fn chaos_configs_always_pass_validation() {
        // An invalid generated config would be rejected up front instead of
        // fuzzing the runtime.
        let mut rng = rng_for(11);
        for i in 0..100 {
            let cfg = chaos_config(&mut rng, i);
            assert!(cfg.validate().is_ok(), "{cfg:?}");
        }
    }

    #[test]
    fn mutation_terminates_and_changes_something_eventually() {
        let mut rng = rng_for(13);
        let original = vec![1u8, 2, 3, 4, 5, 6, 7, 8];
        let mut changed = 0;
        for _ in 0..50 {
            let mut bytes = original.clone();
            mutate_bytes(&mut rng, &mut bytes);
            if bytes != original {
                changed += 1;
            }
        }
        assert!(changed > 25, "only {changed}/50 mutations had any effect");
    }
}
