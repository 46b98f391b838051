//! The fuzz driver: seed derivation, panic containment and reporting.
//!
//! One **oracle** is a property checked once per iteration against freshly
//! generated inputs. The harness derives iteration `i`'s seed as
//! [`derive_seed`]`(base, i)` — an injective SplitMix64 mix — so any failure
//! is reproduced by re-running that single seed, independent of iteration
//! order or count. Panics are contained with [`std::panic::catch_unwind`]
//! and reported as failures carrying the reproducing seed: for a fuzzer a
//! panic is a finding, not a crash.

use crate::oracles;
use lb_stats::derive_seed;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Stop collecting after this many failures per oracle: enough to see a
/// pattern, bounded enough to keep reports readable.
const MAX_FAILURES_PER_ORACLE: usize = 5;

/// A named differential oracle.
pub struct Oracle {
    /// Stable identifier (CLI `--oracle` argument).
    pub name: &'static str,
    /// One-line description of the property checked.
    pub description: &'static str,
    /// Runs one iteration against the inputs derived from `seed`.
    pub run: fn(u64) -> Result<(), String>,
}

/// The eleven differential oracles, pure kernels first; later oracles are
/// appended, so every name keeps its position.
#[must_use]
pub fn registry() -> &'static [Oracle] {
    const ORACLES: &[Oracle] = &[
        Oracle {
            name: "alloc",
            description: "PR closed form vs. KKT solver vs. double-double reference",
            run: oracles::alloc::check,
        },
        Oracle {
            name: "payment",
            description: "compensation+bonus payments vs. double-double C_i + B_i",
            run: oracles::payment::check,
        },
        Oracle {
            name: "codec",
            description: "wire codec and framing round-trip + byte-mutation robustness",
            run: oracles::codec::check,
        },
        Oracle {
            name: "session",
            description: "chaos-round invariants under random fault schedules",
            run: oracles::session::check,
        },
        Oracle {
            name: "telemetry",
            description: "telemetry JSONL round-trip, replay and mutation robustness",
            run: oracles::telemetry::check,
        },
        Oracle {
            name: "recovery",
            description: "crash/recover at every journal boundary vs. uninterrupted round",
            run: oracles::recovery::check,
        },
        Oracle {
            name: "shard",
            description: "sharded hierarchical round vs. single coordinator, plus crash replay",
            run: oracles::shard::check,
        },
        Oracle {
            name: "audit",
            description:
                "invariant monitor + ledger chain catch injected corruption, no false alarms",
            run: oracles::audit::check,
        },
        Oracle {
            name: "prof",
            description:
                "sharded sketch merge vs. whole-population recompute, profile JSONL robustness",
            run: oracles::prof::check,
        },
        Oracle {
            name: "online",
            description:
                "incremental harmonic sum / online session vs. from-scratch recompute after every churn event",
            run: oracles::online::check,
        },
        Oracle {
            name: "sim",
            description:
                "partitioned verification kernel vs. one partition, bit for bit; invalid inputs are typed errors",
            run: oracles::sim::check,
        },
    ];
    ORACLES
}

/// Harness configuration: the base seed and the per-oracle iteration budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzConfig {
    /// Base seed; iteration `i` runs under `derive_seed(seed, i)`.
    pub seed: u64,
    /// Iterations per oracle.
    pub iterations: u64,
}

/// One failing iteration, with everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// The oracle that failed.
    pub oracle: &'static str,
    /// Zero-based iteration index under the base seed.
    pub iteration: u64,
    /// The derived seed: re-run exactly this input with
    /// `lb-fuzz --oracle <name> --iters 1 --raw-seed <seed>`.
    pub seed: u64,
    /// The oracle's message, or the contained panic payload.
    pub message: String,
}

/// Outcome of running one oracle for a full budget.
#[derive(Debug, Clone)]
pub struct OracleReport {
    /// The oracle's name.
    pub oracle: &'static str,
    /// Iterations actually executed (may stop early at the failure cap).
    pub iterations: u64,
    /// All collected failures (empty on a clean run).
    pub failures: Vec<FuzzFailure>,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

/// Runs one iteration of `oracle` under an explicit derived seed.
pub fn run_one(oracle: &Oracle, seed: u64) -> Result<(), String> {
    match catch_unwind(AssertUnwindSafe(|| (oracle.run)(seed))) {
        Ok(result) => result,
        Err(payload) => Err(panic_message(payload.as_ref())),
    }
}

/// Runs `oracle` for the configured budget, deriving one seed per iteration.
#[must_use]
pub fn run_oracle(oracle: &Oracle, config: &FuzzConfig) -> OracleReport {
    let mut failures = Vec::new();
    let mut executed = 0;
    for i in 0..config.iterations {
        executed = i + 1;
        let seed = derive_seed(config.seed, i);
        if let Err(message) = run_one(oracle, seed) {
            failures.push(FuzzFailure {
                oracle: oracle.name,
                iteration: i,
                seed,
                message,
            });
            if failures.len() >= MAX_FAILURES_PER_ORACLE {
                break;
            }
        }
    }
    OracleReport {
        oracle: oracle.name,
        iterations: executed,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panics_are_contained_and_reported_with_their_seed() {
        let oracle = Oracle {
            name: "boom",
            description: "always panics",
            run: |_| panic!("intentional test panic"),
        };
        let report = run_oracle(
            &oracle,
            &FuzzConfig {
                seed: 1,
                iterations: 10,
            },
        );
        assert_eq!(report.failures.len(), MAX_FAILURES_PER_ORACLE);
        assert_eq!(report.iterations, MAX_FAILURES_PER_ORACLE as u64);
        let f = &report.failures[0];
        assert_eq!(f.seed, lb_stats::derive_seed(1, 0));
        assert!(
            f.message.contains("intentional test panic"),
            "{}",
            f.message
        );
    }

    #[test]
    fn failure_seeds_reproduce_independent_of_budget() {
        // The seed recorded for iteration i must not depend on how many
        // iterations ran: derive_seed is position-addressed, not sequential.
        let fail_on_odd_seed: fn(u64) -> Result<(), String> = |s| {
            if s % 2 == 1 {
                Err("odd".into())
            } else {
                Ok(())
            }
        };
        let oracle = Oracle {
            name: "odd",
            description: "",
            run: fail_on_odd_seed,
        };
        let short = run_oracle(
            &oracle,
            &FuzzConfig {
                seed: 9,
                iterations: 4,
            },
        );
        let long = run_oracle(
            &oracle,
            &FuzzConfig {
                seed: 9,
                iterations: 8,
            },
        );
        for (a, b) in short.failures.iter().zip(&long.failures) {
            assert_eq!(a.iteration, b.iteration);
            assert_eq!(a.seed, b.seed);
        }
    }

    #[test]
    fn registry_names_are_unique_and_stable() {
        let names: Vec<&str> = registry().iter().map(|o| o.name).collect();
        assert_eq!(
            names,
            [
                "alloc",
                "payment",
                "codec",
                "session",
                "telemetry",
                "recovery",
                "shard",
                "audit",
                "prof",
                "online",
                "sim"
            ]
        );
    }
}
