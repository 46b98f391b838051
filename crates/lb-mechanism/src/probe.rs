//! Counterfactual probes: what an agent's utility *would have been* under a
//! different bid, everything else held fixed.
//!
//! The streaming truthfulness monitor (`lb-audit`) estimates incentive
//! margins online: for a sampled round and agent it replays the round's
//! observed bids and execution values through the mechanism twice — once as
//! observed, once with the probed agent's bid perturbed — and reports the
//! utility gap. Theorem 3.1 says that against consistent opponents a
//! consistent agent's observed utility should dominate every such
//! counterfactual; a persistently positive gap *for the deviation* is
//! evidence the deployed payment rule has drifted from the mechanism it is
//! supposed to implement.
//!
//! Each probe is O(n): one bid side of the counterfactual bids
//! ([`VerifiedMechanism::bid_side`]), settled once, and one valuation.

use crate::error::MechanismError;
use crate::traits::VerifiedMechanism;
use std::borrow::Cow;

/// The outcome of one counterfactual bid probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CounterfactualProbe {
    /// Probed agent index.
    pub agent: usize,
    /// The bid the agent actually submitted.
    pub observed_bid: f64,
    /// The counterfactual bid the probe evaluated.
    pub probe_bid: f64,
    /// Utility under the observed bid.
    pub observed_utility: f64,
    /// Utility under the counterfactual bid (same execution values).
    pub probe_utility: f64,
}

impl CounterfactualProbe {
    /// The truthfulness margin: observed-bid utility minus counterfactual
    /// utility. Non-negative (up to numerical tolerance) whenever the
    /// probed agent and its opponents are consistent (Theorem 3.1);
    /// negative means the counterfactual bid would have *paid better*.
    #[must_use]
    pub fn margin(&self) -> f64 {
        self.observed_utility - self.probe_utility
    }
}

/// Evaluates agent `agent`'s utility had it bid `bid`, with every other bid
/// and all execution values exactly as observed.
///
/// The utility is `P_i + V_i` where the payment is recomputed under the
/// counterfactual bid vector and the valuation is taken at the
/// counterfactual allocation — the agent still *executes* at its observed
/// execution value, which is what verification measures.
///
/// # Errors
/// Returns [`lb_core::CoreError::LengthMismatch`] (`expected` the number
/// of bids, `actual` the agent) if `agent` is out of range, and propagates
/// mechanism errors: out-of-domain counterfactual bids, arity mismatches,
/// or singleton systems.
fn utility_with_bid(
    mechanism: &dyn VerifiedMechanism,
    bids: &[f64],
    agent: usize,
    bid: f64,
    exec_values: &[f64],
    total_rate: f64,
) -> Result<f64, MechanismError> {
    let mut probe_bids = bids.to_vec();
    *probe_bids
        .get_mut(agent)
        .ok_or(lb_core::CoreError::LengthMismatch {
            expected: bids.len(),
            actual: agent,
        })? = bid;
    let side = mechanism.bid_side(Cow::Owned(probe_bids), total_rate, None)?;
    let (allocation, payments, _) = mechanism.settle_bid_side(Cow::Owned(side), exec_values)?;
    Ok(payments[agent] + mechanism.valuation(allocation.rate(agent), exec_values[agent]))
}

/// Probes agent `agent` with a relative bid perturbation: the counterfactual
/// bid is `bids[agent] * (1 + delta)` (use a negative `delta` to under-bid).
///
/// # Errors
/// Returns [`lb_core::CoreError::LengthMismatch`] if `agent` is out of
/// range, as `utility_with_bid` does, and propagates mechanism errors
/// from either evaluation; in particular a perturbation that pushes the
/// bid out of the validated domain.
pub fn truthfulness_probe(
    mechanism: &dyn VerifiedMechanism,
    bids: &[f64],
    agent: usize,
    delta: f64,
    exec_values: &[f64],
    total_rate: f64,
) -> Result<CounterfactualProbe, MechanismError> {
    let observed_bid = *bids.get(agent).ok_or(lb_core::CoreError::LengthMismatch {
        expected: bids.len(),
        actual: agent,
    })?;
    let probe_bid = observed_bid * (1.0 + delta);
    let observed_utility = utility_with_bid(
        mechanism,
        bids,
        agent,
        observed_bid,
        exec_values,
        total_rate,
    )?;
    let probe_utility =
        utility_with_bid(mechanism, bids, agent, probe_bid, exec_values, total_rate)?;
    Ok(CounterfactualProbe {
        agent,
        observed_bid,
        probe_bid,
        observed_utility,
        probe_utility,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cb::CompensationBonusMechanism;
    use crate::profile::Profile;
    use crate::traits::run_mechanism;
    use lb_core::scenario::{paper_system, PAPER_ARRIVAL_RATE};

    #[test]
    fn unperturbed_probe_reproduces_run_mechanism_utility() {
        let mech = CompensationBonusMechanism::paper();
        let profile = Profile::truthful(&paper_system(), PAPER_ARRIVAL_RATE).unwrap();
        let out = run_mechanism(&mech, &profile).unwrap();
        for agent in [0, 5, 15] {
            let u = utility_with_bid(
                &mech,
                profile.bids(),
                agent,
                profile.bids()[agent],
                profile.exec_values(),
                PAPER_ARRIVAL_RATE,
            )
            .unwrap();
            assert!(
                (u - out.utilities[agent]).abs() < 1e-9,
                "agent {agent}: {u} vs {}",
                out.utilities[agent]
            );
        }
    }

    #[test]
    fn truthful_margins_are_nonnegative_on_the_paper_system() {
        // Theorem 3.1 on the truthful paper profile: no ±20% bid deviation
        // should pay better than truth.
        let mech = CompensationBonusMechanism::paper();
        let profile = Profile::truthful(&paper_system(), PAPER_ARRIVAL_RATE).unwrap();
        for agent in 0..profile.len() {
            for delta in [-0.2, -0.05, 0.05, 0.2] {
                let probe = truthfulness_probe(
                    &mech,
                    profile.bids(),
                    agent,
                    delta,
                    profile.exec_values(),
                    PAPER_ARRIVAL_RATE,
                )
                .unwrap();
                assert!(
                    probe.margin() >= -1e-9,
                    "agent {agent} delta {delta}: margin {}",
                    probe.margin()
                );
            }
        }
    }

    #[test]
    fn lying_round_yields_negative_margin_toward_truth() {
        // In the Low2 profile C1 under-bids (t/2) and drags its own utility
        // negative; probing its bid back *up* toward the truth must show the
        // counterfactual paying better, i.e. a negative margin.
        let mech = CompensationBonusMechanism::paper();
        let sys = paper_system();
        let profile = Profile::with_deviation(&sys, PAPER_ARRIVAL_RATE, 0, 0.5, 2.0).unwrap();
        let probe = truthfulness_probe(
            &mech,
            profile.bids(),
            0,
            1.0, // double the bid: back to the true value
            profile.exec_values(),
            PAPER_ARRIVAL_RATE,
        )
        .unwrap();
        assert!(
            probe.margin() < 0.0,
            "under-bidding should not dominate: margin {}",
            probe.margin()
        );
    }

    #[test]
    fn out_of_range_agent_is_a_typed_error() {
        let mech = CompensationBonusMechanism::paper();
        let bids = [1.0, 2.0];
        let mismatch = |r: Result<_, MechanismError>| {
            matches!(
                r,
                Err(MechanismError::Core(lb_core::CoreError::LengthMismatch {
                    expected: 2,
                    actual: 2
                }))
            )
        };
        assert!(mismatch(utility_with_bid(&mech, &bids, 2, 1.0, &bids, 5.0)));
        assert!(mismatch(
            truthfulness_probe(&mech, &bids, 2, 0.1, &bids, 5.0).map(|p| p.margin())
        ));
    }

    #[test]
    fn out_of_domain_probe_bid_is_a_typed_error() {
        let mech = CompensationBonusMechanism::paper();
        let bids = [1.0, 2.0];
        let err = utility_with_bid(&mech, &bids, 0, f64::MIN_POSITIVE / 2.0, &bids, 5.0);
        assert!(err.is_err());
    }
}
