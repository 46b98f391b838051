//! # lbmv — A Load Balancing Mechanism with Verification
//!
//! Facade crate for the reproduction of Grosu & Chronopoulos, *A Load
//! Balancing Mechanism with Verification* (IPPS 2003). Re-exports the
//! workspace crates under one roof:
//!
//! * [`core`] — problem model, PR allocation algorithm, convex solver.
//! * [`mechanism`] — the compensation-and-bonus mechanism with verification
//!   plus baselines and property checkers.
//! * [`sim`] — discrete-event simulator and the execution-rate estimator.
//! * [`proto`] — centralized O(n)-message protocol engine.
//! * [`agents`] — strategic bidding/execution models and best-response
//!   dynamics.
//! * [`stats`] — RNG streams, distributions and output analysis.
//! * [`telemetry`] — structured tracing and metrics: span/event collectors,
//!   a ring-buffer recorder, and JSONL / Chrome-trace / timeline exporters.
//! * [`audit`] — verification observability: a streaming economic-invariant
//!   monitor, a tamper-evident round ledger, and live `/invariants` +
//!   `/health` documents.
//! * [`prof`] — performance observability: mergeable cross-shard latency
//!   sketches, a critical-path round profiler, and a perf-regression
//!   sentinel against the checked-in `BENCH_*.json` baselines.
//!
//! See `examples/quickstart.rs` for a five-minute tour.
//!
//! ```
//! use lbmv::prelude::*;
//! use lbmv::mechanism::run_mechanism;
//!
//! // Four machines; t is the inverse processing rate (machine 0 is fastest).
//! let system = System::from_true_values(&[1.0, 2.0, 4.0, 8.0])?;
//! let mechanism = CompensationBonusMechanism::paper();
//!
//! // Machine 0 over-bids 3x and runs 2x slower than its capability.
//! let strategic = Profile::with_deviation(&system, 10.0, 0, 3.0, 2.0)?;
//! let honest = Profile::truthful(&system, 10.0)?;
//!
//! let u_strategic = run_mechanism(&mechanism, &strategic)?.utilities[0];
//! let u_honest = run_mechanism(&mechanism, &honest)?.utilities[0];
//! assert!(u_strategic < u_honest, "lying does not pay (Theorem 3.1)");
//! # Ok::<(), lbmv::mechanism::MechanismError>(())
//! ```

pub use lb_agents as agents;
pub use lb_audit as audit;
pub use lb_core as core;
pub use lb_mechanism as mechanism;
pub use lb_prof as prof;
pub use lb_proto as proto;
pub use lb_sim as sim;
pub use lb_stats as stats;
pub use lb_telemetry as telemetry;

/// Commonly used items, importable with `use lbmv::prelude::*`.
pub mod prelude {
    pub use lb_audit::{verify_ledger, InvariantMonitor, MonitorConfig};
    pub use lb_core::{
        pr_allocate, pr_allocate_capped, solve_convex, total_latency_linear, Allocation,
        LatencyFunction, Linear, Machine, MachineId, Mm1, System,
    };
    pub use lb_mechanism::{
        run_mechanism, CompensationBonusMechanism, FeeAdjusted, GeneralizedCompensationBonus,
        MechanismError, MechanismOutcome, Mm1Family, Profile, VerifiedMechanism,
    };
    pub use lb_proto::{run_round, NodeSpec, ProtocolConfig, RoundSpec, Transport};
    pub use lb_sim::driver::{verified_round, SimulationConfig};
    pub use lb_stats::{OnlineStats, Rng, Xoshiro256StarStar};
    pub use lb_telemetry::{Collector, MetricsRegistry, RingCollector};
}
