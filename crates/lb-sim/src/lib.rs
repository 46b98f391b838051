//! Discrete-event simulation substrate for the load balancing mechanism.
//!
//! The paper evaluates its mechanism "by simulation" on a 16-computer
//! system; its protocol description also requires the mechanism to *estimate
//! the actual job processing rate at each computer* while the allocated jobs
//! execute — that estimate is the verification signal `t̃`. This crate
//! provides everything needed to realise that pipeline from first
//! principles:
//!
//! * [`time`] — a totally ordered simulation clock.
//! * [`events`] — a deterministic discrete-event queue (time, FIFO tiebreak).
//! * [`workload`] — Poisson job streams (the paper's arrival model) and
//!   trace generators.
//! * [`queue`] — FCFS single-server queue simulation plus M/M/1 analytic
//!   formulas used to validate it (Little's law, stationary response times).
//! * [`server`] — per-machine service models that realise the paper's
//!   latency abstraction `l_i(x_i) = t̃_i x_i` as an actual stochastic
//!   process (stationary-response sampling or a literal M/M/1 queue whose
//!   operating point matches the target mean response).
//! * [`estimator`] — the verification sensor: estimates `t̃_i` from observed
//!   job completions, with optional noise injection for robustness studies.
//! * [`driver`] — one full simulated round: allocate → execute → observe →
//!   estimate, and the end-to-end pipeline that feeds the estimates into a
//!   [`lb_mechanism::VerifiedMechanism`] for payments.
//! * [`metrics`] — per-machine observation records and sanity checks.
//! * [`churn`] — the seed-deterministic churn stream the online mechanism
//!   is driven by.

pub mod churn;
pub mod driver;
pub mod estimator;
pub mod events;
pub mod metrics;
pub mod queue;
pub mod server;
pub mod time;
pub mod workload;

pub use churn::{ChurnConfig, ChurnEvent, ChurnGen};
pub use driver::{
    simulate_partition, simulate_round, verified_round, PartitionReport, RoundReport,
    SimulationConfig, VerifiedRound,
};
pub use estimator::{EstimatorConfig, ExecValueEstimator};
pub use events::EventQueue;
pub use server::ServiceModel;
pub use time::SimTime;
pub use workload::PoissonProcess;
