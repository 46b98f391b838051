//! Mechanism-design layer: the paper's contribution.
//!
//! The load balancing *mechanism design problem* (Def. 3.1 of the paper):
//! each computer `i` has a privately known true value `t_i` and, after
//! executing its assigned jobs, a publicly observable **execution value**
//! `t̃_i ≥ t_i` (it may run slower than its capability, never faster). The
//! mechanism asks for bids `b`, allocates jobs with the PR algorithm on the
//! bids, observes `t̃` (that is the *verification*), and then pays each agent
//!
//! ```text
//! P_i(b, t̃) = C_i(t̃_i, x_i) + B_i(b, t̃)
//! C_i = t̃_i · x_i(b)²                       (compensation: refunds the cost)
//! B_i = L_{-i}(b_{-i}) − L(x(b), t̃)         (bonus: marginal contribution)
//! ```
//!
//! Agent `i`'s valuation is `V_i = −t̃_i · x_i²` (the negation of its
//! latency), so its utility `U_i = P_i + V_i = B_i`. Theorem 3.1: truthful
//! bidding plus full-capacity execution is a dominant strategy; Theorem 3.2:
//! truthful agents never lose (voluntary participation).
//!
//! Modules:
//!
//! * [`profile`] — the strategic state of one round: true values, bids,
//!   execution values, total rate.
//! * [`traits`] — [`VerifiedMechanism`] abstraction and the
//!   [`MechanismOutcome`] accounting (payments, valuations, utilities).
//! * [`cb`] — the paper's compensation-and-bonus mechanism.
//! * [`unverified`] — the same payment computed from *bids only* (no
//!   verification): the ablation showing why verification is needed.
//! * [`archer_tardos`] — the one-parameter (Archer–Tardos) payment rule used
//!   by the authors' companion paper [ref.&nbsp;8], with closed-form and quadrature
//!   payment paths.
//! * [`quad`] — adaptive-Simpson quadrature (including improper integrals)
//!   backing the Archer–Tardos cross-check.
//! * [`general`] — the construction lifted to arbitrary convex latency
//!   families (M/M/1 included) through the KKT solver.
//! * [`fee`] — budget reduction via own-bid-independent participation fees
//!   (exactly strategyproofness-preserving).
//! * [`probe`] — counterfactual bid probes (utility under a perturbed bid,
//!   everything else as observed) backing the streaming truthfulness-margin
//!   monitor in `lb-audit`.
//! * [`properties`] — empirical truthfulness / voluntary-participation /
//!   dominant-strategy checkers used by tests and the experiment harness.
//! * [`metrics`] — frugality and degradation metrics (Figure 6), plus
//!   closed-form frugality for uniform systems.

pub mod archer_tardos;
pub mod cb;
pub mod error;
pub mod fee;
pub mod general;
pub mod metrics;
pub mod online;
pub mod probe;
pub mod profile;
pub mod properties;
pub mod quad;
pub mod traits;
pub mod unverified;

pub use archer_tardos::ArcherTardosMechanism;
pub use cb::{CompensationBonusMechanism, PaymentBreakdown};
pub use error::MechanismError;
pub use fee::FeeAdjusted;
pub use general::{GeneralizedCompensationBonus, LatencyFamily, LinearFamily, Mm1Family};
pub use metrics::{degradation, frugality_ratio};
pub use online::{OnlineError, OnlinePool};
pub use probe::{truthfulness_probe, CounterfactualProbe};
pub use profile::Profile;
pub use properties::{
    dominant_strategy_check, truthfulness_scan, voluntary_participation_scan, DeviationGrid,
    DeviationReport,
};
pub use traits::{
    run_mechanism, run_verified, settle_verified, BidSide, MechanismOutcome, VerifiedMechanism,
};
pub use unverified::UnverifiedCompensationBonus;
