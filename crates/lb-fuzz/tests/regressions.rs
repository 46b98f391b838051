//! Pinned regressions for the bug classes the fuzz oracles police.
//!
//! Each test is a crafted input reproducing a hardening fix made in this
//! workspace; the oracles would rediscover these probabilistically, the
//! pins keep them fixed deterministically.

use lb_core::{optimal_latency_linear, pr_allocate, Allocation, CoreError};
use lb_fuzz::{registry, run_oracle, FuzzConfig};
use lb_mechanism::{CompensationBonusMechanism, MechanismError};
use lb_proto::{decode, CodecError, FrameReader, Message, MAX_FRAME_LEN};

/// `alloc` oracle class: the feasibility gate used a naive sum with an
/// absolute window and rejected algebraically exact PR allocations at large
/// `n` and wide parameter spreads.
#[test]
fn pr_output_revalidates_at_n_10_000_with_1e12_spread() {
    let n = 10_000;
    #[allow(clippy::cast_precision_loss)]
    let values: Vec<f64> = (0..n)
        .map(|i| 10f64.powf(-6.0 + 12.0 * i as f64 / (n - 1) as f64))
        .collect();
    let alloc = pr_allocate(&values, 20.0).unwrap();
    assert!(Allocation::new(alloc.rates().to_vec(), 20.0).is_ok());
}

/// `alloc` oracle class: `r²/Σ(1/t)` used to overflow silently to `inf`;
/// now a typed error.
#[test]
fn latency_overflow_is_a_typed_error() {
    assert!(matches!(
        optimal_latency_linear(&[1e250], 1e200),
        Err(CoreError::NumericalOverflow { .. })
    ));
}

/// `payment` oracle class: a subnormal bid used to flow into `1/b_i` and
/// NaN-poison every bonus term; now rejected at mechanism entry.
#[test]
fn subnormal_bid_is_rejected_not_nan_poisoned() {
    let mech = CompensationBonusMechanism::paper();
    let bids = [f64::MIN_POSITIVE / 2.0, 1.0];
    let exec = [1.0, 1.0];
    let alloc = Allocation::new(vec![0.5, 0.5], 1.0).unwrap();
    match mech.payment_breakdown(&bids, &alloc, &exec, 1.0) {
        Err(MechanismError::Core(CoreError::InvalidParameter { .. })) => {}
        other => panic!("expected InvalidParameter, got {other:?}"),
    }
}

/// `codec` oracle class: a corrupted in-band length below the old `2³²`
/// guard was handed to the decoder as a trusted size hint; any length
/// beyond the remaining input is now rejected up front.
#[test]
fn corrupt_sub_4gib_length_prefix_is_rejected() {
    // A `ShardEstimates` frame (tag 6, round, shard) whose estimate count
    // announces 3e9 elements, followed by two bytes.
    let mut bytes = 6u32.to_le_bytes().to_vec();
    bytes.extend_from_slice(&1u64.to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes());
    bytes.extend_from_slice(&3_000_000_000u64.to_le_bytes());
    bytes.extend_from_slice(&[1, 2]);
    assert!(matches!(
        decode::<Message>(&bytes),
        Err(CodecError::LengthOverflow(3_000_000_000))
    ));
}

/// `codec` oracle class: a hostile frame header announcing 4 GiB must hit
/// the hard frame bound before any buffering.
#[test]
fn hostile_frame_header_hits_the_hard_bound() {
    let mut reader = FrameReader::new();
    reader.feed(&u32::MAX.to_le_bytes());
    match reader.next_frame::<Message>() {
        Err(CodecError::FrameTooLarge { len, max }) => {
            assert_eq!(len, u64::from(u32::MAX));
            assert_eq!(max, MAX_FRAME_LEN as u64);
        }
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
}

/// The harness itself must be bit-deterministic: identical configurations
/// produce identical reports, and every oracle holds over a small budget.
#[test]
fn harness_is_deterministic_and_clean_on_a_small_budget() {
    let config = FuzzConfig {
        seed: 0x1db5_0b5e,
        iterations: 40,
    };
    let run_all = |config: &FuzzConfig| -> Vec<_> {
        registry().iter().map(|o| run_oracle(o, config)).collect()
    };
    let first = run_all(&config);
    let second = run_all(&config);
    assert_eq!(first.len(), registry().len());
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.oracle, b.oracle);
        assert_eq!(a.iterations, b.iterations);
        assert!(
            a.failures.is_empty(),
            "{}: {:?}",
            a.oracle,
            a.failures
                .iter()
                .map(|f| (f.seed, &f.message))
                .collect::<Vec<_>>()
        );
        assert_eq!(a.failures.len(), b.failures.len());
    }
}

/// A reported failure seed reproduces standalone through `run_one`,
/// independent of the iteration loop (the CLI `--raw-seed` path).
#[test]
fn raw_seed_reproduction_matches_the_iteration_path() {
    let config = FuzzConfig {
        seed: 7,
        iterations: 10,
    };
    for oracle in registry() {
        for i in 0..config.iterations {
            let seed = lb_stats::derive_seed(config.seed, i);
            assert_eq!(
                lb_fuzz::run_one(oracle, seed).is_ok(),
                run_oracle(
                    oracle,
                    &FuzzConfig {
                        seed: config.seed,
                        iterations: i + 1
                    }
                )
                .failures
                .iter()
                .all(|f| f.iteration != i),
                "oracle {} iteration {i} disagrees with raw-seed replay",
                oracle.name
            );
        }
    }
}
