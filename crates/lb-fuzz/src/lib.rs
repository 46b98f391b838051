//! In-tree deterministic fuzzing for the `lbmv` workspace.
//!
//! A conventional fuzzer needs an external engine and a corpus; this crate
//! needs neither. It is **seed-deterministic** (every iteration's inputs
//! derive from `derive_seed(base, i)`, so any finding is a single `u64` to
//! reproduce), **structure-aware** (inputs are generated directly in the
//! domain — latency parameters by magnitude class, protocol messages,
//! chaos schedules — instead of raw bytes), and **differential**: each
//! oracle compares a production kernel against an independent reference
//! that cannot share its bugs.
//!
//! The eleven oracles (see [`harness::registry`]):
//!
//! * `alloc` — the PR closed form ([Theorem 2.1]) vs. the KKT bisection
//!   solver vs. a double-double reference, on spreads up to 10¹².
//! * `payment` — compensation-and-bonus payments (Def. 3.3) vs. a
//!   brute-force `C_i + B_i` at ≈106-bit precision.
//! * `codec` — wire-format and framing round-trips, plus byte-mutation
//!   robustness of the length-prefixed decoder.
//! * `session` — full chaos protocol rounds against their seed-independent
//!   invariants (conservation, voluntary participation, message bounds,
//!   bit-exact replay).
//! * `telemetry` — JSONL recording round-trips, span-forest replay and
//!   byte-mutation robustness of the telemetry parser (typed errors, never
//!   panics).
//! * `recovery` — crash the journalled coordinator at every record
//!   boundary (plus random torn-write byte offsets), recover, finish the
//!   round, and demand a bit-identical outcome to the uninterrupted run.
//! * `shard` — the hierarchical sharded coordinator against the
//!   single-coordinator lossy runtime on random populations, shard counts
//!   and fault plans (bit-identical allocations, payments, estimates and
//!   exclusions), plus crash-recovery of journalled sharded rounds at
//!   sampled record boundaries.
//! * `audit` — the verification-observability stack both ways: a clean
//!   round raises no monitor violations and verifies an intact ledger,
//!   while an injected skimmed payment, a CRC-fixed journal byte flip and
//!   a violated Theorem 3.2 floor must each be flagged.
//! * `prof` — the profiler's reads: latency sketches split across a random
//!   shard partition must merge to bitwise the same quantile reads as a
//!   whole-population recompute.
//! * `online` — the streaming mechanism layer: after every churn event the
//!   incrementally maintained harmonic sum and factored allocation must
//!   agree with from-scratch recomputation to 10⁻¹² relative (bit-exact
//!   after a compensated re-sum), the first settle tick must pay out
//!   bit-identically to a batch protocol round on the same population, and
//!   the session's ledger, journal blocks and replay must all be exact.
//! * `sim` — the verification kernel: a fleet simulated in random
//!   contiguous partitions at their global stream offsets must reproduce
//!   the one-partition observations and estimates bit for bit, across all
//!   four service models, Poisson and bursty arrivals, warm-up, sample
//!   caps and estimator noise; one corrupted input (actual value, rate,
//!   mean response, length, horizon, bursty parameters, noise) must be a
//!   typed error.
//!
//! Run from the workspace root:
//!
//! ```text
//! cargo run -p lb-fuzz --release -- --iters 10000 --seed 3405691582
//! ```
//!
//! [Theorem 2.1]: lb_core::pr_allocate

pub mod extended;
pub mod generate;
pub mod harness;
pub mod oracles;

pub use extended::{
    inv_sum_dd, marginal_contribution_dd, optimal_latency_dd, optimal_latency_excluding_dd,
    pr_rates_dd, total_latency_dd, TwoF64,
};
pub use harness::{registry, run_one, run_oracle, FuzzConfig, FuzzFailure, Oracle, OracleReport};
