//! Strategic agent models for the load balancing mechanism.
//!
//! The paper's central claim (Theorem 3.1) is that truth-telling plus
//! full-capacity execution is a dominant strategy. This crate provides the
//! machinery to probe that claim the way a strategic participant would:
//!
//! * [`mod@best_response`] — numerical best-response search: given the others'
//!   behaviour, find the (bid, exec) pair maximising one agent's utility
//!   under a given mechanism.
//! * [`dynamics`] — iterated best-response dynamics: under a truthful
//!   mechanism they converge to the truthful profile from any start.
//! * [`game`] — small normal-form game analysis over discretised strategy
//!   spaces: empirical payoff tables, dominant-strategy and pure-Nash
//!   checks.

pub mod adaptive;
pub mod best_response;
pub mod dynamics;
pub mod game;

pub use adaptive::{repeated_play, EpsilonGreedyAgent, RepeatedPlayReport};
pub use best_response::{best_response, BestResponse, SearchOptions};
pub use dynamics::{run_dynamics, DynamicsOptions, DynamicsReport};
pub use game::{empirical_game, EmpiricalGame, StrategyOption};
