//! The mechanism abstraction and outcome accounting.

use crate::error::MechanismError;
use crate::profile::Profile;
use lb_core::machine::validate_values;
use lb_core::{inv_sum_dd, pr_allocate_with_sum, Allocation, CoreError, TwoF64};
use std::borrow::Cow;

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
/// function over bids *and observed execution values*. A mechanism defines
/// the two ([`VerifiedMechanism::allocate`], [`VerifiedMechanism::payments`]);
/// every settle derives its bid side, the bids-only half, and settles it
/// ([`VerifiedMechanism::bid_side`], [`VerifiedMechanism::settle_bid_side`]).
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

    /// What a round derives from the bids alone (Theorem 2.1), once for
    /// every settle of the round: the mechanism's allocation, the harmonic
    /// sum `S = Σ 1/b_j` and, where the mechanism pays it, the `L_{-i}`
    /// column. The side owns its bids or borrows its caller's, so it can
    /// outlive the call that built it.
    ///
    /// `s` is the source of `S`: `None` folds it from the bids, `Some(s)` is
    /// a sum aggregated elsewhere (the shard tier's merged partials, the
    /// online pool's incremental sum), which CB allocates and pays against.
    /// The default keeps [`VerifiedMechanism::allocate`]; its settle ignores
    /// `S`.
    ///
    /// # Errors
    /// Returns a [`MechanismError`] for invalid bids or rate.
    fn bid_side<'a>(
        &self,
        bids: Cow<'a, [f64]>,
        total_rate: f64,
        s: Option<TwoF64>,
    ) -> Result<BidSide<'a>, MechanismError> {
        let allocation = self.allocate(&bids, total_rate)?;
        let s = s.unwrap_or_else(|| inv_sum_dd(&bids));
        Ok(BidSide {
            bids,
            total_rate,
            s,
            allocation,
            excluding: None,
        })
    }

    /// One settle against a bid side of this mechanism: the allocation, the
    /// payments and the realised latency of the `observed` execution values.
    /// A borrowed side can settle again; an owned one gives its columns up.
    /// The default makes [`VerifiedMechanism::payments`] and
    /// [`VerifiedMechanism::realised_latency`], in that order; CB returns
    /// the `L` its payments computed, bit-identical to the two calls.
    ///
    /// # Errors
    /// The errors of those two calls, in their order.
    fn settle_bid_side(
        &self,
        side: Cow<'_, BidSide<'_>>,
        observed: &[f64],
    ) -> Result<(Allocation, Vec<f64>, f64), MechanismError> {
        let BidSide {
            bids,
            total_rate,
            allocation,
            ..
        } = side.into_owned();
        let payments = self.payments(&bids, &allocation, observed, total_rate)?;
        let latency = self.realised_latency(&allocation, observed)?;
        Ok((allocation, payments, latency))
    }
}

/// The bid side of one round (Theorem 2.1): the bids, the total rate, `S`,
/// the mechanism's allocation and, for CB's folded side, the `L_{-i}`
/// column. See [`VerifiedMechanism::bid_side`].
#[derive(Debug, Clone, PartialEq)]
pub struct BidSide<'a> {
    pub(crate) bids: Cow<'a, [f64]>,
    pub(crate) total_rate: f64,
    pub(crate) s: TwoF64,
    pub(crate) allocation: Allocation,
    pub(crate) excluding: Option<Vec<f64>>,
}

impl BidSide<'_> {
    /// The mechanism's allocation of the bids, which the side's settle pays.
    #[must_use]
    pub fn allocation(&self) -> &Allocation {
        &self.allocation
    }

    /// The PR allocation of the bids, which the simulator executes
    /// whatever the mechanism: a copy of the side's own when it carries the
    /// `L_{-i}` column of the same pass, otherwise [`pr_allocate_with_sum`]
    /// against `S` — [`lb_core::pr_allocate`] bit for bit either way.
    ///
    /// # Errors
    /// [`lb_core::pr_allocate`]'s errors.
    pub fn pr_allocation(&self) -> Result<Allocation, CoreError> {
        if self.excluding.is_some() {
            return Ok(self.allocation.clone());
        }
        validate_values("latency coefficient", &self.bids)?;
        pr_allocate_with_sum(&self.bids, self.total_rate, self.s)
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
/// For [`crate::cb::CompensationBonusMechanism`] that is one reciprocal per
/// bid: the bid side's one pass gives `S`, the allocation and the `L_{-i}`
/// column, and the settle pays in that column.
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
/// value. The bid side is derived once ([`VerifiedMechanism::bid_side`])
/// and this one settle consumes it ([`settle_verified`]).
///
/// # Errors
/// Propagates any [`MechanismError`] from allocation or payment
/// computation, including a length mismatch of `observed`.
pub fn run_verified<M: VerifiedMechanism + ?Sized>(
    mechanism: &M,
    profile: &Profile,
    observed: &[f64],
) -> Result<MechanismOutcome, MechanismError> {
    let side = mechanism.bid_side(profile.bids().into(), profile.total_rate(), None)?;
    settle_verified(mechanism, profile, Cow::Owned(side), observed)
}

/// One settle of a round against its bid side, which `mechanism` derived
/// from `profile`'s bids and total rate: the payments and realised latency
/// of the `observed` execution values
/// ([`VerifiedMechanism::settle_bid_side`]), then each agent's valuation at
/// its actual execution value and its utility, in one loop. A round that
/// settles twice borrows the side for the first settle and hands it over
/// to the last.
///
/// # Errors
/// The settle's errors.
pub fn settle_verified<M: VerifiedMechanism + ?Sized>(
    mechanism: &M,
    profile: &Profile,
    side: Cow<'_, BidSide<'_>>,
    observed: &[f64],
) -> Result<MechanismOutcome, MechanismError> {
    let (allocation, payments, total_latency) = mechanism.settle_bid_side(side, observed)?;
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

    /// `run_verified` equals the composed calls bit for bit: `allocate` and
    /// `payments` (for CB, its settle against `S = inv_sum_dd(bids)`), the
    /// realised latency of the observed values, valuations at the actual
    /// ones. CB overrides the bid side and its settle; `FeeAdjusted` and
    /// the unverified mechanism take the defaults.
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
                    let allocation = m.allocate(bids, r).unwrap();
                    let payments = m.payments(bids, &allocation, &observed, r).unwrap();
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
