//! Budget reduction through participation fees.
//!
//! The compensation-and-bonus mechanism runs a deficit: total payments
//! exceed total valuations by the sum of bonuses (Figure 6's ratio above 1).
//! A classic lever reduces it without touching incentives: subtract from
//! each agent's payment a **fee that depends only on the others' bids**,
//! `h_i(b_{-i})`. Since agent `i` cannot influence its own fee, every
//! deviation comparison in Theorem 3.1's proof shifts by the same constant —
//! truthfulness is *exactly* preserved. What is sacrificed is voluntary
//! participation: a fee larger than an agent's bonus makes its truthful
//! utility negative. The tests pin down both sides of that trade-off, and
//! [`FeeAdjusted::break_even_fraction`] computes the largest uniform fee
//! that keeps every truthful agent whole.

use crate::error::MechanismError;
use crate::traits::{ValuationModel, VerifiedMechanism};
use lb_core::allocation::LeaveOneOut;
use lb_core::Allocation;

/// A wrapped mechanism whose payments are reduced by a fee
/// `h_i(b_{-i}) = fraction · [L_{-i}(b_{-i}) − R²/Σ_j(1/b_j)]`-style bonus
/// proxy. Concretely we charge `fraction` of the agent's *benchmark*
/// advantage `L_{-i}(b_{-i}) − L_opt(b)`, which is a function of the full
/// bid vector's others-part only through `L_{-i}` and of `b_i` through
/// `L_opt` — so to keep strategyproofness exact we charge
/// `fraction · L_{-i}(b_{-i})`-relative form: agent `i`'s fee is
/// `fraction · L_{-i}(b_{-i}) / n`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeeAdjusted<M> {
    /// The underlying mechanism.
    pub inner: M,
    /// Fraction of the fee base charged to every agent (≥ 0).
    pub fraction: f64,
}

impl<M> FeeAdjusted<M> {
    /// Wraps `inner`, charging `fraction` of each agent's fee base.
    ///
    /// # Panics
    /// Panics if `fraction` is negative or non-finite.
    #[must_use]
    pub fn new(inner: M, fraction: f64) -> Self {
        assert!(
            fraction.is_finite() && fraction >= 0.0,
            "FeeAdjusted: invalid fraction"
        );
        Self { inner, fraction }
    }

    /// The fees of all agents from one [`LeaveOneOut`] batch call, in O(n).
    ///
    /// Agent `i`'s fee is `fraction · L_{-i}(b_{-i}) / n`. Any function of
    /// `b` that is constant in `b_i` keeps the mechanism truthful; this is
    /// the simplest sound choice. It depends only on `b_{-i}` (and the
    /// public `n`, `R`), never on agent `i`'s own report.
    ///
    /// # Errors
    /// Propagates benchmark computation errors.
    fn fees(&self, bids: &[f64], total_rate: f64) -> Result<Vec<f64>, MechanismError> {
        let loo = LeaveOneOut::compute(bids, total_rate)?;
        #[allow(clippy::cast_precision_loss)]
        let n = bids.len() as f64;
        Ok(loo
            .all_excluding()
            .iter()
            .map(|&l_minus_i| self.fraction * l_minus_i / n)
            .collect())
    }

    /// The largest uniform `fraction` that keeps every *truthful* agent's
    /// utility non-negative on the given system: the minimum over agents of
    /// `bonus_i / fee_base_i`.
    ///
    /// One batch call covers every agent (this used to be the *second*
    /// quadratic sweep in this module, re-deriving `L_{-i}` over the true
    /// values after [`Self::payments`] had already done so over the bids),
    /// and the truthful bonus comes from the batch kernel's
    /// cancellation-free closed form rather than the subtractive
    /// `L_{-i} − L*` — at large `n` the subtraction loses every significant
    /// digit of a slow machine's bonus and with it the minimum this
    /// function exists to find.
    ///
    /// # Errors
    /// Propagates benchmark computation errors.
    pub fn break_even_fraction(
        true_values: &[f64],
        total_rate: f64,
    ) -> Result<f64, MechanismError> {
        let loo = LeaveOneOut::compute(true_values, total_rate)?;
        #[allow(clippy::cast_precision_loss)]
        let n = true_values.len() as f64;
        let mut best = f64::INFINITY;
        for i in 0..true_values.len() {
            let bonus = loo.marginal(i);
            let base = loo.excluding(i) / n;
            best = best.min(bonus / base);
        }
        Ok(best)
    }
}

impl<M: VerifiedMechanism> VerifiedMechanism for FeeAdjusted<M> {
    fn name(&self) -> &'static str {
        "fee-adjusted"
    }

    fn valuation_model(&self) -> ValuationModel {
        self.inner.valuation_model()
    }

    fn valuation(&self, rate: f64, exec_value: f64) -> f64 {
        self.inner.valuation(rate, exec_value)
    }

    fn realised_latency(
        &self,
        allocation: &Allocation,
        exec_values: &[f64],
    ) -> Result<f64, MechanismError> {
        self.inner.realised_latency(allocation, exec_values)
    }

    fn allocate(&self, bids: &[f64], total_rate: f64) -> Result<Allocation, MechanismError> {
        self.inner.allocate(bids, total_rate)
    }

    fn payments(
        &self,
        bids: &[f64],
        allocation: &Allocation,
        exec_values: &[f64],
        total_rate: f64,
    ) -> Result<Vec<f64>, MechanismError> {
        let base = self
            .inner
            .payments(bids, allocation, exec_values, total_rate)?;
        let fees = self.fees(bids, total_rate)?;
        Ok(base.into_iter().zip(fees).map(|(p, f)| p - f).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cb::CompensationBonusMechanism;
    use crate::profile::Profile;
    use crate::traits::run_mechanism;
    use lb_core::allocation::optimal_latency_excluding;
    use lb_core::scenario::{paper_system, PAPER_ARRIVAL_RATE};
    use lb_stats::prop;
    use lb_stats::prop_assert;

    fn mech(fraction: f64) -> FeeAdjusted<CompensationBonusMechanism> {
        FeeAdjusted::new(CompensationBonusMechanism::paper(), fraction)
    }

    /// Agent `i`'s fee on its own, from the per-agent `L_{-i}` reference.
    fn fee<M>(m: &FeeAdjusted<M>, bids: &[f64], i: usize, total_rate: f64) -> f64 {
        let l_minus_i = optimal_latency_excluding(bids, i, total_rate).unwrap();
        m.fraction * l_minus_i / bids.len() as f64
    }

    #[test]
    fn zero_fee_is_the_identity() {
        let profile = Profile::truthful(&paper_system(), PAPER_ARRIVAL_RATE).unwrap();
        let base = run_mechanism(&CompensationBonusMechanism::paper(), &profile).unwrap();
        let wrapped = run_mechanism(&mech(0.0), &profile).unwrap();
        assert_eq!(base.payments, wrapped.payments);
    }

    #[test]
    fn fees_shrink_the_deficit() {
        let profile = Profile::truthful(&paper_system(), PAPER_ARRIVAL_RATE).unwrap();
        let base = run_mechanism(&CompensationBonusMechanism::paper(), &profile).unwrap();
        let wrapped = run_mechanism(&mech(0.2), &profile).unwrap();
        let base_deficit = base.total_payment() - base.total_valuation_abs();
        let wrapped_deficit = wrapped.total_payment() - wrapped.total_valuation_abs();
        assert!(wrapped_deficit < base_deficit - 1e-9);
    }

    #[test]
    fn batch_fees_match_the_single_index_path() {
        let m = mech(0.3);
        let bids: Vec<f64> = paper_system().true_values();
        let batch = m.fees(&bids, PAPER_ARRIVAL_RATE).unwrap();
        assert_eq!(batch.len(), bids.len());
        for (i, &f) in batch.iter().enumerate() {
            let single = fee(&m, &bids, i, PAPER_ARRIVAL_RATE);
            assert!(
                (f - single).abs() <= 1e-12 * single.abs().max(1.0),
                "agent {i}: {f} vs {single}"
            );
        }
    }

    #[test]
    fn break_even_keeps_everyone_whole_and_beyond_breaks_participation() {
        let sys = paper_system();
        let trues = sys.true_values();
        let fraction = FeeAdjusted::<CompensationBonusMechanism>::break_even_fraction(
            &trues,
            PAPER_ARRIVAL_RATE,
        )
        .unwrap();
        assert!(fraction > 0.0);

        let profile = Profile::truthful(&sys, PAPER_ARRIVAL_RATE).unwrap();
        let at_break_even = run_mechanism(&mech(fraction * 0.999), &profile).unwrap();
        for (i, u) in at_break_even.utilities.iter().enumerate() {
            assert!(*u >= -1e-9, "agent {i} lost at break-even: {u}");
        }
        let beyond = run_mechanism(&mech(fraction * 1.5), &profile).unwrap();
        assert!(
            beyond.utilities.iter().any(|&u| u < -1e-9),
            "some agent must lose beyond break-even"
        );
    }

    /// The fee never depends on the agent's own bid (exact
    /// strategyproofness-preservation certificate).
    #[test]
    fn prop_fee_is_own_bid_independent() {
        prop::check(
            "prop_fee_is_own_bid_independent",
            256,
            (
                prop::vec(0.1f64..10.0, 2..10),
                0.1f64..10.0,
                0.1f64..10.0,
                0.5f64..50.0,
            ),
            |(trues, own_bid_a, own_bid_b, rate)| {
                let m = mech(0.3);
                let mut bids_a = trues.clone();
                let mut bids_b = trues.clone();
                bids_a[0] = own_bid_a;
                bids_b[0] = own_bid_b;
                let fa = fee(&m, &bids_a, 0, rate);
                let fb = fee(&m, &bids_b, 0, rate);
                prop_assert!(
                    (fa - fb).abs() < 1e-12,
                    "fee moved with own bid: {} vs {}",
                    fa,
                    fb
                );
                Ok(())
            },
        );
    }

    /// Truthfulness is preserved for any fee fraction.
    #[test]
    fn prop_fee_preserves_truthfulness() {
        prop::check(
            "prop_fee_preserves_truthfulness",
            256,
            (
                prop::vec(0.1f64..10.0, 2..8),
                0.0f64..2.0,
                0.2f64..5.0,
                1.0f64..4.0,
                0.5f64..50.0,
            ),
            |(trues, fraction, bid_factor, exec_factor, rate)| {
                let m = mech(fraction);
                let sys = lb_core::System::from_true_values(&trues).unwrap();
                let truthful = run_mechanism(&m, &Profile::truthful(&sys, rate).unwrap())
                    .unwrap()
                    .utilities[0];
                let deviating = run_mechanism(
                    &m,
                    &Profile::with_deviation(&sys, rate, 0, bid_factor, exec_factor).unwrap(),
                )
                .unwrap()
                .utilities[0];
                prop_assert!(deviating <= truthful + 1e-7 * truthful.abs().max(1.0));
                Ok(())
            },
        );
    }
}
