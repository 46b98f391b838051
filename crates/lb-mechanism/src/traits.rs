//! The mechanism abstraction and outcome accounting.

use crate::error::MechanismError;
use crate::profile::Profile;
use lb_core::{inv_sum_dd, Allocation, TwoF64};

/// How an agent's valuation (its "benefit or loss", Def. 3.1) is modelled.
///
/// The paper defines the valuation as "the negation of its latency". Two
/// readings are arithmetically consistent with different parts of the paper
/// (the published formulae are OCR-damaged; see `DESIGN.md`):
///
/// * [`ValuationModel::PerJobLatency`] — `V_i = −t̃_i·x_i`, the per-job
///   latency `l_i(x_i)` a job experiences at machine `i`. This is the only
///   reading consistent with the paper's *numerical* claims: the negative
///   payment of C1 in experiment Low2 and the payment drop in True2 both
///   require the compensation `C_i = t̃_i·x_i`. **Paper-faithful default.**
/// * [`ValuationModel::ContributedLatency`] — `V_i = −t̃_i·x_i²`, machine
///   `i`'s contribution to the total latency objective (so `Σ V_i = −L`).
///   This matches the printed `x²` glyphs in Defs. 3.1/3.3.
///
/// The choice only shifts payment *levels* (compensation always exactly
/// cancels the valuation, so utility = bonus under both): every incentive
/// theorem is unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ValuationModel {
    /// `V_i = −t̃_i·x_i` (per-job latency; matches the paper's numbers).
    #[default]
    PerJobLatency,
    /// `V_i = −t̃_i·x_i²` (contribution to total latency; matches the
    /// printed formulae).
    ContributedLatency,
}

impl ValuationModel {
    /// Evaluates the valuation of an agent with execution value `exec_value`
    /// serving jobs at rate `rate`.
    #[must_use]
    pub fn valuation(self, rate: f64, exec_value: f64) -> f64 {
        match self {
            Self::PerJobLatency => -exec_value * rate,
            Self::ContributedLatency => -exec_value * rate * rate,
        }
    }

    /// The compensation that exactly cancels the valuation (`C = −V`).
    #[must_use]
    pub fn compensation(self, rate: f64, exec_value: f64) -> f64 {
        -self.valuation(rate, exec_value)
    }
}

/// A direct-revelation load balancing mechanism with verification
/// (Def. 3.2 of the paper): an allocation function over bids plus a payment
/// function over bids *and observed execution values*.
pub trait VerifiedMechanism {
    /// Human-readable mechanism name (for reports and tables).
    fn name(&self) -> &'static str;

    /// The valuation model this mechanism's payments are designed around.
    fn valuation_model(&self) -> ValuationModel {
        ValuationModel::default()
    }

    /// An agent's valuation when serving at `rate` with execution value
    /// `exec_value`.
    ///
    /// Defaults to the linear-latency formula of [`ValuationModel`];
    /// mechanisms over other latency families
    /// ([`crate::general::GeneralizedCompensationBonus`]) override it so the
    /// valuation, the compensation and the realised latency all speak the
    /// same cost language.
    fn valuation(&self, rate: f64, exec_value: f64) -> f64 {
        self.valuation_model().valuation(rate, exec_value)
    }

    /// Realised total latency of `allocation` under the execution values,
    /// in this mechanism's latency family (linear by default).
    ///
    /// # Errors
    /// Returns an error on arity mismatches.
    fn realised_latency(
        &self,
        allocation: &Allocation,
        exec_values: &[f64],
    ) -> Result<f64, MechanismError> {
        Ok(lb_core::total_latency_linear(allocation, exec_values)?)
    }

    /// The allocation function `x(b)` — jobs are assigned from bids alone,
    /// before any execution happens.
    ///
    /// # Errors
    /// Returns a [`MechanismError`] for invalid bids or rate.
    fn allocate(&self, bids: &[f64], total_rate: f64) -> Result<Allocation, MechanismError>;

    /// The payment function `P(b, t̃)`, evaluated after execution when the
    /// execution values `t̃` have been observed.
    ///
    /// Mechanisms without verification simply ignore `exec_values` here —
    /// that is precisely what [`crate::unverified::UnverifiedCompensationBonus`]
    /// does, and the ablation experiments quantify the consequences.
    ///
    /// # Errors
    /// Returns a [`MechanismError`] for arity mismatches or degenerate
    /// systems (fewer than two agents).
    fn payments(
        &self,
        bids: &[f64],
        allocation: &Allocation,
        exec_values: &[f64],
        total_rate: f64,
    ) -> Result<Vec<f64>, MechanismError>;

    /// [`VerifiedMechanism::allocate`] against a pre-aggregated harmonic sum
    /// `s = Σ 1/b_j` in double-double precision: the coordinator merges it
    /// from per-shard partials, [`run_mechanism`] computes it once a round.
    ///
    /// The default ignores `s` and recomputes from `bids`, which is still
    /// shard-count invariant. Mechanisms built on the harmonic sum
    /// ([`crate::cb::CompensationBonusMechanism`]) consume `s` directly, so
    /// sharded and single-coordinator rounds run bit-identical arithmetic.
    ///
    /// # Errors
    /// Returns a [`MechanismError`] for invalid bids or rate.
    fn allocate_with_sum(
        &self,
        bids: &[f64],
        total_rate: f64,
        s: TwoF64,
    ) -> Result<Allocation, MechanismError> {
        let _ = s;
        self.allocate(bids, total_rate)
    }

    /// [`VerifiedMechanism::payments`] against the same `s`, with the same
    /// contract as [`VerifiedMechanism::allocate_with_sum`]: the default
    /// ignores `s`, and leave-one-out mechanisms settle against it.
    ///
    /// # Errors
    /// Returns a [`MechanismError`] for arity mismatches or degenerate
    /// systems (fewer than two agents).
    fn payments_with_sum(
        &self,
        bids: &[f64],
        allocation: &Allocation,
        exec_values: &[f64],
        total_rate: f64,
        s: TwoF64,
    ) -> Result<Vec<f64>, MechanismError> {
        let _ = s;
        self.payments(bids, allocation, exec_values, total_rate)
    }

    /// One settle: the payments of [`VerifiedMechanism::payments_with_sum`]
    /// and the [`VerifiedMechanism::realised_latency`] of the `observed`
    /// execution values, in that order. [`run_verified`] settles through it.
    ///
    /// The default makes those two calls. A mechanism whose payments already
    /// compute the realised latency
    /// ([`crate::cb::CompensationBonusMechanism`]) returns that one value
    /// instead of summing it again; both parts stay bit-identical to the two
    /// calls.
    ///
    /// # Errors
    /// The first error of the two calls.
    fn settle_with_sum(
        &self,
        bids: &[f64],
        allocation: &Allocation,
        observed: &[f64],
        total_rate: f64,
        s: TwoF64,
    ) -> Result<(Vec<f64>, f64), MechanismError> {
        let payments = self.payments_with_sum(bids, allocation, observed, total_rate, s)?;
        Ok((payments, self.realised_latency(allocation, observed)?))
    }
}

/// Complete accounting of one mechanism round.
#[derive(Debug, Clone, PartialEq)]
pub struct MechanismOutcome {
    /// Job-rate allocation computed from the bids.
    pub allocation: Allocation,
    /// Payment handed to each agent.
    pub payments: Vec<f64>,
    /// Each agent's valuation `V_i` under the mechanism's valuation model.
    pub valuations: Vec<f64>,
    /// Each agent's utility `U_i = P_i + V_i`.
    pub utilities: Vec<f64>,
    /// Actual total latency `L(x(b), t̃) = Σ t̃_i x_i²` realised this round.
    pub total_latency: f64,
}

impl MechanismOutcome {
    /// Sum of payments handed out by the mechanism.
    #[must_use]
    pub fn total_payment(&self) -> f64 {
        self.payments.iter().sum()
    }

    /// Sum of absolute valuations.
    #[must_use]
    pub fn total_valuation_abs(&self) -> f64 {
        self.valuations.iter().map(|v| v.abs()).sum()
    }
}

/// Runs one full round of `mechanism` on `profile`: allocate from the bids,
/// realise the latency under the execution values, compute payments,
/// valuations and utilities. This is [`run_verified`] with exact
/// verification: the mechanism observes the profile's execution values.
///
/// # Errors
/// Propagates any [`MechanismError`] from allocation or payment computation.
pub fn run_mechanism<M: VerifiedMechanism + ?Sized>(
    mechanism: &M,
    profile: &Profile,
) -> Result<MechanismOutcome, MechanismError> {
    run_verified(mechanism, profile, profile.exec_values())
}

/// Runs one round of `mechanism` on `profile` that pays, and realises the
/// latency, against the `observed` execution values — what verification
/// measured — while each agent's valuation follows its actual execution
/// value. `S = Σ 1/b_j` is computed once for allocation and payments.
///
/// # Errors
/// Propagates any [`MechanismError`] from allocation or payment
/// computation, including a length mismatch of `observed`.
pub fn run_verified<M: VerifiedMechanism + ?Sized>(
    mechanism: &M,
    profile: &Profile,
    observed: &[f64],
) -> Result<MechanismOutcome, MechanismError> {
    let (bids, r) = (profile.bids(), profile.total_rate());
    let s = inv_sum_dd(bids);
    let allocation = mechanism.allocate_with_sum(bids, r, s)?;
    let (payments, total_latency) = mechanism.settle_with_sum(bids, &allocation, observed, r, s)?;
    let n = payments.len();
    let (mut valuations, mut utilities) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for ((&x, &e), &p) in allocation
        .rates()
        .iter()
        .zip(profile.exec_values())
        .zip(&payments)
    {
        let v = mechanism.valuation(x, e);
        valuations.push(v);
        utilities.push(p + v);
    }
    Ok(MechanismOutcome {
        allocation,
        payments,
        valuations,
        utilities,
        total_latency,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cb::CompensationBonusMechanism;
    use lb_core::scenario::paper_system;

    #[test]
    fn valuation_models_evaluate() {
        assert_eq!(ValuationModel::PerJobLatency.valuation(3.0, 2.0), -6.0);
        assert_eq!(
            ValuationModel::ContributedLatency.valuation(3.0, 2.0),
            -18.0
        );
        assert_eq!(ValuationModel::PerJobLatency.compensation(3.0, 2.0), 6.0);
    }

    #[test]
    fn outcome_totals_are_consistent() {
        let mech = CompensationBonusMechanism::paper();
        let profile = Profile::truthful(&paper_system(), 20.0).unwrap();
        let out = run_mechanism(&mech, &profile).unwrap();
        assert_eq!(out.payments.len(), 16);
        assert!((out.total_payment() - out.payments.iter().sum::<f64>()).abs() < 1e-12);
        // Utility identity: U = P + V elementwise.
        for i in 0..16 {
            assert!((out.utilities[i] - (out.payments[i] + out.valuations[i])).abs() < 1e-12);
        }
    }

    #[test]
    fn contributed_model_valuation_totals_equal_latency() {
        let mech = CompensationBonusMechanism::contributed();
        let profile = Profile::truthful(&paper_system(), 20.0).unwrap();
        let out = run_mechanism(&mech, &profile).unwrap();
        assert!((out.total_valuation_abs() - out.total_latency).abs() < 1e-9);
    }

    #[test]
    fn utilities_are_model_independent() {
        // Utility = bonus under both valuation models — the model shifts
        // payments and valuations by equal and opposite amounts.
        let profile = Profile::truthful(&paper_system(), 20.0).unwrap();
        let a = run_mechanism(&CompensationBonusMechanism::paper(), &profile).unwrap();
        let b = run_mechanism(&CompensationBonusMechanism::contributed(), &profile).unwrap();
        for (x, y) in a.utilities.iter().zip(&b.utilities) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    /// `run_verified` equals the composed calls bit for bit: allocate and
    /// settle against one `S`, the realised latency of the observed values,
    /// valuations at the actual ones. CB overrides `settle_with_sum`;
    /// `FeeAdjusted` and the unverified mechanism take the default.
    #[test]
    fn prop_run_verified_equals_the_composed_calls() {
        use crate::fee::FeeAdjusted;
        use crate::unverified::UnverifiedCompensationBonus;
        use lb_stats::{prop, prop_assert_eq};
        let fee = FeeAdjusted::new(CompensationBonusMechanism::paper(), 0.1);
        let mechanisms: [&dyn VerifiedMechanism; 4] = [
            &CompensationBonusMechanism::paper(),
            &CompensationBonusMechanism::contributed(),
            &fee,
            &UnverifiedCompensationBonus::default(),
        ];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop::check(
            "prop_run_verified_equals_the_composed_calls",
            64,
            (
                prop::vec(-3.0f64..3.0, 2..40),
                prop::vec(1.0f64..3.0, 40..41),
                prop::vec(0.5f64..2.0, 40..41),
                0.5f64..50.0,
            ),
            |(exponents, slowdowns, noise, r)| {
                let trues: Vec<f64> = exponents.iter().map(|&e| 10f64.powf(e)).collect();
                let exec: Vec<f64> = trues.iter().zip(&slowdowns).map(|(t, k)| t * k).collect();
                let observed: Vec<f64> = exec.iter().zip(&noise).map(|(e, k)| e * k).collect();
                let profile = Profile::new(trues.clone(), trues, exec, r).unwrap();
                let (bids, actual) = (profile.bids(), profile.exec_values());
                for m in mechanisms {
                    let out = run_verified(m, &profile, &observed).unwrap();
                    let s = inv_sum_dd(bids);
                    let allocation = m.allocate_with_sum(bids, r, s).unwrap();
                    let payments = m
                        .payments_with_sum(bids, &allocation, &observed, r, s)
                        .unwrap();
                    let latency = m.realised_latency(&allocation, &observed).unwrap();
                    let valuations: Vec<f64> = allocation
                        .rates()
                        .iter()
                        .zip(actual)
                        .map(|(&x, &e)| m.valuation(x, e))
                        .collect();
                    let utilities: Vec<f64> = payments
                        .iter()
                        .zip(&valuations)
                        .map(|(p, v)| p + v)
                        .collect();
                    prop_assert_eq!(bits(out.allocation.rates()), bits(allocation.rates()));
                    prop_assert_eq!(bits(&out.payments), bits(&payments));
                    prop_assert_eq!(bits(&out.valuations), bits(&valuations));
                    prop_assert_eq!(bits(&out.utilities), bits(&utilities));
                    prop_assert_eq!(out.total_latency.to_bits(), latency.to_bits());
                }
                Ok(())
            },
        );
    }

    #[test]
    fn run_mechanism_is_object_safe() {
        let mech: Box<dyn VerifiedMechanism> = Box::new(CompensationBonusMechanism::paper());
        let profile = Profile::truthful(&paper_system(), 20.0).unwrap();
        assert!(run_mechanism(mech.as_ref(), &profile).is_ok());
    }
}
