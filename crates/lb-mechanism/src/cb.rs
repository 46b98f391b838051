//! The paper's compensation-and-bonus mechanism with verification (Def. 3.3).
//!
//! * **Allocation:** the PR algorithm applied to the *bids*.
//! * **Payment:** `P_i = C_i + B_i` with compensation `C_i = −V_i(t̃_i, x_i)`
//!   (refunds the agent's realised latency cost exactly; see
//!   [`ValuationModel`] for the two cost readings) and bonus
//!   `B_i = L_{-i}(b_{-i}) − L(x(b), t̃)` — the optimal total latency of the
//!   system *without* agent `i` minus the *actual* total latency with it.
//!   The bonus equals the agent's contribution to reducing total latency,
//!   which is what makes truth-telling + full-speed execution dominant
//!   (Theorem 3.1) and keeps truthful utilities non-negative against
//!   consistent opponents (Theorem 3.2).
//!
//! The bonus can be *negative* (payment below compensation, possibly below
//! zero) when an agent's lie makes the system slower than not having the
//! agent at all — exactly the paper's Low2 experiment, where C1 under-bids
//! to grab jobs and then executes them at half speed.
//!
//! **Scope of the theorems.** Both theorems, as proved in the paper, compare
//! against opponents that are *consistent* — each opponent `j` executes at
//! its bid (`t̃_j = b_j ≥ t_j`). Against an opponent that, say, bids high
//! and then executes even slower, the constant `L_{-i}(b_{-i})` no longer
//! upper-bounds the realised latency and a truthful agent can be dragged to
//! negative utility. The property checkers in [`crate::properties`] encode
//! this precondition explicitly.

use crate::error::{check_arity, finite, MechanismError};
use crate::traits::{ValuationModel, VerifiedMechanism};
use lb_core::allocation::{
    for_each_latency_excluding, latency_excluding_dd, validate_inv_sum, validate_rate,
};
use lb_core::machine::validate_values;
use lb_core::{inv_sum_dd, pr_allocate_with_sum, total_latency_linear, Allocation, TwoF64};

/// The load balancing mechanism with verification of Grosu & Chronopoulos.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompensationBonusMechanism {
    /// Valuation/compensation model (see [`ValuationModel`]).
    pub valuation: ValuationModel,
}

/// Per-agent decomposition of a compensation-and-bonus payment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaymentBreakdown {
    /// Compensation `C_i = −V_i` (refunds the realised cost).
    pub compensation: f64,
    /// Bonus `B_i = L_{-i}(b_{-i}) − L(x(b), t̃)`.
    pub bonus: f64,
}

impl PaymentBreakdown {
    /// Total payment `C_i + B_i`.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.compensation + self.bonus
    }
}

impl CompensationBonusMechanism {
    /// The paper-faithful configuration (per-job-latency valuation).
    #[must_use]
    pub fn paper() -> Self {
        Self {
            valuation: ValuationModel::PerJobLatency,
        }
    }

    /// The contributed-latency configuration (`V_i = −t̃_i x_i²`).
    #[must_use]
    pub fn contributed() -> Self {
        Self {
            valuation: ValuationModel::ContributedLatency,
        }
    }

    /// Computes the per-agent compensation/bonus decomposition.
    ///
    /// Bids, execution values and the rate are validated at entry — a
    /// degenerate input (subnormal bid, non-finite rate) answers with a
    /// typed error here instead of NaN-poisoning `1/b_i` and every `L_{-i}`
    /// bonus term downstream. All `n` bonus terms share one harmonic sum
    /// `S = Σ 1/b_j`, so a full settle phase is O(n).
    ///
    /// # Errors
    /// Returns [`MechanismError::NeedTwoAgents`] for singleton systems
    /// (the `L_{-i}` term is undefined), or arity/validation errors.
    pub fn payment_breakdown(
        &self,
        bids: &[f64],
        allocation: &Allocation,
        exec_values: &[f64],
        total_rate: f64,
    ) -> Result<Vec<PaymentBreakdown>, MechanismError> {
        self.payment_breakdown_with_sum(bids, allocation, exec_values, total_rate, inv_sum_dd(bids))
    }

    /// [`CompensationBonusMechanism::payment_breakdown`] against a
    /// pre-aggregated double-double harmonic sum `s = Σ 1/b_j`. Its
    /// per-machine term does the arithmetic of
    /// [`VerifiedMechanism::payments_with_sum`], so the components add up to
    /// the payment bit for bit.
    ///
    /// # Errors
    /// Same contract as [`CompensationBonusMechanism::payment_breakdown`].
    fn payment_breakdown_with_sum(
        &self,
        bids: &[f64],
        allocation: &Allocation,
        exec_values: &[f64],
        total_rate: f64,
        s: TwoF64,
    ) -> Result<Vec<PaymentBreakdown>, MechanismError> {
        let term = self.terms(bids, allocation, exec_values, total_rate, s)?;
        (0..bids.len()).map(term).collect()
    }

    /// Validates one settle's inputs, each column once, and returns the
    /// realised latency `L`.
    fn settle_inputs(
        bids: &[f64],
        allocation: &Allocation,
        exec_values: &[f64],
        total_rate: f64,
        s: TwoF64,
    ) -> Result<f64, MechanismError> {
        if bids.len() < 2 {
            return Err(MechanismError::NeedTwoAgents);
        }
        validate_values("bid", bids)?;
        validate_values("execution value", exec_values)?;
        validate_rate(total_rate)?;
        check_arity(bids.len(), allocation.len(), exec_values.len())?;
        let actual_latency = total_latency_linear(allocation, exec_values)?;
        validate_inv_sum(s)?;
        Ok(actual_latency)
    }

    /// Validates one settle's inputs and computes the realised latency `L`
    /// once; returns machine `i`'s compensation and bonus `L_{-i} − L` as a
    /// function of `i`, with no per-machine vector.
    fn terms<'a>(
        &self,
        bids: &'a [f64],
        allocation: &'a Allocation,
        exec_values: &'a [f64],
        total_rate: f64,
        s: TwoF64,
    ) -> Result<impl Fn(usize) -> Result<PaymentBreakdown, MechanismError> + 'a, MechanismError>
    {
        let actual_latency = Self::settle_inputs(bids, allocation, exec_values, total_rate, s)?;
        let valuation = self.valuation;
        Ok(move |i| {
            let excluding = finite(
                latency_excluding_dd(bids, i, total_rate, s).value(),
                "leave-one-out latency r²/(S − 1/t_i)",
            )?;
            let compensation = finite(
                valuation.compensation(allocation.rate(i), exec_values[i]),
                "compensation term C_i",
            )?;
            Ok(PaymentBreakdown {
                compensation,
                bonus: excluding - actual_latency,
            })
        })
    }
}

impl VerifiedMechanism for CompensationBonusMechanism {
    fn name(&self) -> &'static str {
        "compensation-bonus (verified)"
    }

    fn valuation_model(&self) -> ValuationModel {
        self.valuation
    }

    fn allocate(&self, bids: &[f64], total_rate: f64) -> Result<Allocation, MechanismError> {
        self.allocate_with_sum(bids, total_rate, inv_sum_dd(bids))
    }

    fn payments(
        &self,
        bids: &[f64],
        allocation: &Allocation,
        exec_values: &[f64],
        total_rate: f64,
    ) -> Result<Vec<f64>, MechanismError> {
        self.payments_with_sum(bids, allocation, exec_values, total_rate, inv_sum_dd(bids))
    }

    fn allocate_with_sum(
        &self,
        bids: &[f64],
        total_rate: f64,
        s: TwoF64,
    ) -> Result<Allocation, MechanismError> {
        validate_values("bid", bids)?;
        Ok(pr_allocate_with_sum(bids, total_rate, s)?)
    }

    fn payments_with_sum(
        &self,
        bids: &[f64],
        allocation: &Allocation,
        exec_values: &[f64],
        total_rate: f64,
        s: TwoF64,
    ) -> Result<Vec<f64>, MechanismError> {
        self.settle_with_sum(bids, allocation, exec_values, total_rate, s)
            .map(|(payments, _)| payments)
    }

    /// The blocked leave-one-out kernel writes the `L_{-i}` column straight
    /// into the payment vector, and one pass turns it into
    /// `C_i + (L_{-i} − L)` in place, against one `L`. The terms are checked
    /// with one finiteness flag; only when it trips is the settle re-walked
    /// machine by machine, so the error is the one
    /// [`CompensationBonusMechanism::payment_breakdown`] reports at the
    /// lowest failing index.
    fn settle_with_sum(
        &self,
        bids: &[f64],
        allocation: &Allocation,
        exec_values: &[f64],
        total_rate: f64,
        s: TwoF64,
    ) -> Result<(Vec<f64>, f64), MechanismError> {
        let latency = Self::settle_inputs(bids, allocation, exec_values, total_rate, s)?;
        let (rates, valuation) = (allocation.rates(), self.valuation);
        let mut payments = Vec::with_capacity(bids.len());
        for_each_latency_excluding(bids, total_rate, s, |_, l_minus| {
            payments.push(l_minus.value());
        });
        let mut all_finite = true;
        for ((p, &x), &e) in payments.iter_mut().zip(rates).zip(exec_values) {
            let compensation = valuation.compensation(x, e);
            all_finite &= p.is_finite() & compensation.is_finite();
            *p = compensation + (*p - latency);
        }
        if !all_finite {
            let term = self.terms(bids, allocation, exec_values, total_rate, s)?;
            if let Some(err) = (0..bids.len()).find_map(|i| term(i).err()) {
                return Err(err);
            }
        }
        Ok((payments, latency))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profile;
    use crate::traits::run_mechanism;
    use lb_core::scenario::{paper_system, PAPER_ARRIVAL_RATE};
    use lb_stats::prop;
    use lb_stats::{prop_assert, prop_assert_eq};

    fn mech() -> CompensationBonusMechanism {
        CompensationBonusMechanism::paper()
    }

    #[test]
    fn truthful_utility_equals_marginal_contribution() {
        // U_i = L_{-i} − L* for the truthful profile; check C1 on the paper
        // system: 400/4.1 − 400/5.1 = 19.13...
        let sys = paper_system();
        let profile = Profile::truthful(&sys, PAPER_ARRIVAL_RATE).unwrap();
        let out = run_mechanism(&mech(), &profile).unwrap();
        let expected = 400.0 / 4.1 - 400.0 / 5.1;
        assert!(
            (out.utilities[0] - expected).abs() < 1e-9,
            "U1 = {}",
            out.utilities[0]
        );
    }

    #[test]
    fn truthful_paper_latency_is_78_43() {
        let profile = Profile::truthful(&paper_system(), PAPER_ARRIVAL_RATE).unwrap();
        let out = run_mechanism(&mech(), &profile).unwrap();
        assert!((out.total_latency - 78.431_372_549).abs() < 1e-6);
    }

    #[test]
    fn compensation_exactly_cancels_valuation() {
        let sys = paper_system();
        let profile = Profile::with_deviation(&sys, PAPER_ARRIVAL_RATE, 0, 3.0, 3.0).unwrap();
        for m in [
            CompensationBonusMechanism::paper(),
            CompensationBonusMechanism::contributed(),
        ] {
            let alloc = m.allocate(profile.bids(), PAPER_ARRIVAL_RATE).unwrap();
            let breakdown = m
                .payment_breakdown(
                    profile.bids(),
                    &alloc,
                    profile.exec_values(),
                    PAPER_ARRIVAL_RATE,
                )
                .unwrap();
            for (i, b) in breakdown.iter().enumerate() {
                let x = alloc.rate(i);
                let valuation = m.valuation.valuation(x, profile.exec_values()[i]);
                assert!((b.compensation + valuation).abs() < 1e-9, "agent {i}");
            }
        }
    }

    #[test]
    fn utility_equals_bonus() {
        let sys = paper_system();
        let profile = Profile::with_deviation(&sys, PAPER_ARRIVAL_RATE, 0, 0.5, 2.0).unwrap();
        let out = run_mechanism(&mech(), &profile).unwrap();
        let breakdown = mech()
            .payment_breakdown(
                profile.bids(),
                &out.allocation,
                profile.exec_values(),
                PAPER_ARRIVAL_RATE,
            )
            .unwrap();
        for (u, b) in out.utilities.iter().zip(&breakdown) {
            assert!((u - b.bonus).abs() < 1e-9);
        }
    }

    #[test]
    fn low2_payment_and_utility_are_negative_for_c1() {
        // Paper Sec. 4: in Low2 (bid t/2, execute 2t) C1's bonus outweighs its
        // compensation and both payment and utility go negative.
        let sys = paper_system();
        let profile = Profile::with_deviation(&sys, PAPER_ARRIVAL_RATE, 0, 0.5, 2.0).unwrap();
        let out = run_mechanism(&mech(), &profile).unwrap();
        assert!(out.payments[0] < 0.0, "payment = {}", out.payments[0]);
        assert!(out.utilities[0] < 0.0, "utility = {}", out.utilities[0]);
        // Analytic: x1 = 40/6.1, C = 2·x1, L = 2·x1² + (20/6.1)²·4.1,
        // B = 400/4.1 − L.
        let x1 = 40.0 / 6.1;
        let l_actual = 2.0 * x1 * x1 + (20.0 / 6.1) * (20.0 / 6.1) * 4.1;
        let expected = 2.0 * x1 + (400.0 / 4.1 - l_actual);
        assert!(
            (out.payments[0] - expected).abs() < 1e-9,
            "{} vs {expected}",
            out.payments[0]
        );
    }

    #[test]
    fn true2_payment_drops_relative_to_true1() {
        // Paper Fig. 2: C1 is "penalized for lying": the payment in True2
        // (honest bid, 2x slower execution) is below the True1 payment.
        let sys = paper_system();
        let true1 = Profile::truthful(&sys, PAPER_ARRIVAL_RATE).unwrap();
        let true2 = Profile::with_deviation(&sys, PAPER_ARRIVAL_RATE, 0, 1.0, 2.0).unwrap();
        let p1 = run_mechanism(&mech(), &true1).unwrap().payments[0];
        let p2 = run_mechanism(&mech(), &true2).unwrap().payments[0];
        assert!(p2 < p1, "True2 payment {p2} not below True1 payment {p1}");
    }

    #[test]
    fn with_sum_entry_points_match_the_plain_mechanism_bitwise() {
        // Shard-count invariance at the mechanism layer: feeding the merged
        // per-shard TwoF64 harmonic partials into the *_with_sum entry points
        // must reproduce the single-coordinator allocation and payments bit
        // for bit, for every shard count.
        use lb_core::merge_inv_sums;
        let n: usize = 4096;
        #[allow(clippy::cast_precision_loss)]
        let bids: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.37).collect();
        #[allow(clippy::cast_precision_loss)]
        let exec: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64 * 0.61).collect();
        let r = 20.0;
        let m = mech();
        let ref_alloc = m.allocate(&bids, r).unwrap();
        let ref_pay = m.payments(&bids, &ref_alloc, &exec, r).unwrap();
        for k in [1usize, 2, 7, 64] {
            let chunk = n.div_ceil(k);
            let partials: Vec<_> = bids.chunks(chunk).map(inv_sum_dd).collect();
            let s = merge_inv_sums(&partials);
            let alloc = m.allocate_with_sum(&bids, r, s).unwrap();
            let pay = m.payments_with_sum(&bids, &alloc, &exec, r, s).unwrap();
            for i in 0..n {
                assert_eq!(
                    alloc.rate(i).to_bits(),
                    ref_alloc.rate(i).to_bits(),
                    "k = {k}, agent {i}: allocation diverged"
                );
                assert_eq!(
                    pay[i].to_bits(),
                    ref_pay[i].to_bits(),
                    "k = {k}, agent {i}: payment diverged"
                );
            }
        }
    }

    #[test]
    fn default_with_sum_methods_fall_back_to_the_plain_path() {
        // A mechanism that does not override the *_with_sum hooks ignores the
        // merged sum and recomputes from the bid vector — still well-defined
        // and shard-count invariant (same full vector either way).
        let m = crate::unverified::UnverifiedCompensationBonus::default();
        let bids = [1.0, 2.0, 4.0];
        let exec = [1.0, 2.5, 4.0];
        let r = 10.0;
        let s = inv_sum_dd(&bids);
        let plain = m.allocate(&bids, r).unwrap();
        let with_sum = m.allocate_with_sum(&bids, r, s).unwrap();
        for i in 0..bids.len() {
            assert_eq!(plain.rate(i).to_bits(), with_sum.rate(i).to_bits());
        }
        let p_plain = m.payments(&bids, &plain, &exec, r).unwrap();
        let p_sum = m.payments_with_sum(&bids, &plain, &exec, r, s).unwrap();
        for i in 0..bids.len() {
            assert_eq!(p_plain[i].to_bits(), p_sum[i].to_bits());
        }
    }

    /// When a leave-one-out latency overflows, the one-flag settle returns
    /// exactly the error of the per-machine walk: with one overflowing
    /// machine at the last index, and with two.
    #[test]
    fn overflowing_settle_returns_the_per_machine_error() {
        let overflow = Err(MechanismError::Core(
            lb_core::CoreError::NumericalOverflow {
                what: "leave-one-out latency r²/(S − 1/t_i)",
            },
        ));
        // One: without the dominant last machine S₋ᵢ = 3, so L₋ᵢ = R²/3
        // overflows while every other L₋ⱼ ≈ R²/1e300 and L ≈ 1e20 stay finite.
        let one = (vec![1.0, 1.0, 1.0, 1e-300], 1e160);
        // Two: each twin leaves the other's 1e300, so L₋ᵢ = R²/1e300 = 2.25e308
        // overflows while L = R²/2e300 stays finite.
        let two = (vec![1.0, 1.0, 1e-300, 1e-300], 1.5e304);
        for m in [mech(), CompensationBonusMechanism::contributed()] {
            for (bids, r) in [&one, &two] {
                let (bids, r) = (bids.as_slice(), *r);
                let s = inv_sum_dd(bids);
                let alloc = m.allocate_with_sum(bids, r, s).unwrap();
                assert!(total_latency_linear(&alloc, bids).unwrap().is_finite());
                let walk = m.payment_breakdown_with_sum(bids, &alloc, bids, r, s);
                assert_eq!(walk.map(drop), overflow);
                let settle = m.settle_with_sum(bids, &alloc, bids, r, s);
                assert_eq!(settle.map(drop), overflow);
                let paid = m.payments_with_sum(bids, &alloc, bids, r, s);
                assert_eq!(paid.map(drop), overflow);
                let profile = Profile::new(bids.to_vec(), bids.to_vec(), bids.to_vec(), r);
                assert_eq!(run_mechanism(&m, &profile.unwrap()).map(drop), overflow);
            }
        }
    }

    /// The blocked settle at 2^20 machines against the per-machine
    /// reference `C_i + (latency_excluding_dd(..) − L)`, bit for bit. Run in
    /// release: `cargo test --release -p lb-mechanism -- --ignored
    /// settle_at_scale`.
    #[test]
    #[ignore = "2^20 machines; run in release"]
    fn settle_at_scale_matches_the_per_machine_reference() {
        use lb_core::allocation::latency_excluding_dd;
        use lb_stats::{Rng, Xoshiro256StarStar};
        let n = 1 << 20;
        let mut rng = Xoshiro256StarStar::seed_from_u64(20);
        let bids: Vec<f64> = (0..n)
            .map(|_| 10f64.powf(rng.next_range(-3.0, 3.0)))
            .collect();
        let exec: Vec<f64> = bids.iter().map(|&b| b * rng.next_range(1.0, 3.0)).collect();
        #[allow(clippy::cast_precision_loss)]
        let r = n as f64;
        for m in [mech(), CompensationBonusMechanism::contributed()] {
            let s = inv_sum_dd(&bids);
            let alloc = m.allocate_with_sum(&bids, r, s).unwrap();
            let (payments, latency) = m.settle_with_sum(&bids, &alloc, &exec, r, s).unwrap();
            let want_latency = total_latency_linear(&alloc, &exec).unwrap();
            assert_eq!(latency.to_bits(), want_latency.to_bits());
            for (i, p) in payments.iter().enumerate() {
                let excluding = latency_excluding_dd(&bids, i, r, s).value();
                let compensation = m.valuation.compensation(alloc.rate(i), exec[i]);
                let want = compensation + (excluding - latency);
                assert_eq!(p.to_bits(), want.to_bits(), "machine {i}");
            }
        }
    }

    #[test]
    fn singleton_system_is_rejected() {
        let profile = Profile::new(vec![1.0], vec![1.0], vec![1.0], 5.0).unwrap();
        let err = run_mechanism(&mech(), &profile).unwrap_err();
        assert!(matches!(err, MechanismError::NeedTwoAgents));
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let m = mech();
        let alloc = m.allocate(&[1.0, 2.0], 5.0).unwrap();
        assert!(m.payments(&[1.0, 2.0], &alloc, &[1.0], 5.0).is_err());
        assert!(m
            .payments(&[1.0, 2.0, 3.0], &alloc, &[1.0, 2.0, 3.0], 5.0)
            .is_err());
    }

    #[test]
    fn length_mismatch_names_the_column_that_differs() {
        let m = mech();
        let alloc = m.allocate(&[1.0, 2.0], 5.0).unwrap();
        let mismatch = |expected, actual| -> Result<(), _> {
            Err(MechanismError::Core(lb_core::CoreError::LengthMismatch {
                expected,
                actual,
            }))
        };
        assert_eq!(
            m.payment_breakdown(&[1.0, 2.0], &alloc, &[1.0, 2.0, 3.0], 5.0)
                .map(drop),
            mismatch(2, 3)
        );
        assert_eq!(
            m.payments(&[1.0, 2.0, 3.0], &alloc, &[1.0, 2.0, 3.0], 5.0)
                .map(drop),
            mismatch(3, 2)
        );
    }

    #[test]
    fn degenerate_bids_yield_typed_errors_not_nan() {
        // Regression for the `payment` fuzz-oracle class: a subnormal bid
        // used to reach 1/b_i, turn the allocation infinite and NaN-poison
        // every bonus. Now each degenerate input answers with a typed error.
        let m = mech();
        let alloc = m.allocate(&[1.0, 2.0], 5.0).unwrap();
        let subnormal = f64::MIN_POSITIVE / 2.0;
        assert!(matches!(
            m.payment_breakdown(&[subnormal, 2.0], &alloc, &[1.0, 2.0], 5.0),
            Err(MechanismError::Core(
                lb_core::CoreError::InvalidParameter { .. }
            ))
        ));
        assert!(matches!(
            m.payment_breakdown(&[1.0, 2.0], &alloc, &[subnormal, 2.0], 5.0),
            Err(MechanismError::Core(
                lb_core::CoreError::InvalidParameter { .. }
            ))
        ));
        assert!(matches!(
            m.payment_breakdown(&[1.0, 2.0], &alloc, &[1.0, 2.0], f64::NAN),
            Err(MechanismError::Core(lb_core::CoreError::InvalidRate(_)))
        ));
        assert!(m.allocate(&[subnormal, 2.0], 5.0).is_err());
        // A valid wide-spread profile still computes finite payments.
        let wide = [1e-6, 1e6];
        let alloc = m.allocate(&wide, 5.0).unwrap();
        let breakdown = m.payment_breakdown(&wide, &alloc, &wide, 5.0).unwrap();
        for b in &breakdown {
            assert!(b.total().is_finite());
        }
    }

    /// The failing case once recorded for `prop_voluntary_participation`:
    /// an opponent "executing" at a fifth of its true value. Such a profile
    /// is not consistent (execution faster than truth), and it is now
    /// rejected when built rather than reaching the mechanism.
    #[test]
    fn voluntary_participation_recorded_case_is_rejected() {
        let trues = [2.953_764_377_354_815, 0.1];
        let b = trues[1] * 0.2;
        let profile = Profile::new(trues.to_vec(), vec![trues[0], b], vec![trues[0], b], 0.5);
        assert!(matches!(
            profile,
            Err(MechanismError::ExecutionFasterThanTruth { agent: 1, .. })
        ));
    }

    /// Theorem 3.2 (voluntary participation): a truthful agent's utility
    /// is non-negative whatever the *consistent* others bid (consistent:
    /// execution equals bid, which must be at least the true value).
    #[test]
    fn prop_voluntary_participation() {
        prop::check(
            "prop_voluntary_participation",
            256,
            (
                prop::vec(0.1f64..10.0, 2..10),
                prop::vec(1.0f64..5.0, 2..10),
                0.5f64..50.0,
            ),
            |(trues, other_factors, r)| {
                let n = trues.len().min(other_factors.len());
                let trues = &trues[..n];
                let factors = &other_factors[..n];
                let mut bids = vec![trues[0]];
                let mut exec = vec![trues[0]];
                for i in 1..n {
                    let b = trues[i] * factors[i];
                    bids.push(b);
                    exec.push(b);
                }
                let profile = Profile::new(trues.to_vec(), bids, exec, r).unwrap();
                let out = run_mechanism(&mech(), &profile).unwrap();
                prop_assert!(
                    out.utilities[0] >= -1e-9,
                    "truthful agent lost: {}",
                    out.utilities[0]
                );
                Ok(())
            },
        );
    }

    /// Theorem 3.1 (truthfulness): with the other agents consistent
    /// (executing at their bid), no (bid, exec) deviation beats truth.
    #[test]
    fn prop_truthfulness_dominant() {
        prop::check(
            "prop_truthfulness_dominant",
            256,
            (
                prop::vec(0.1f64..10.0, 2..8),
                0.2f64..5.0,
                1.0f64..4.0,
                1.0f64..2.0,
                0.5f64..50.0,
            ),
            |(trues, bid_factor, exec_factor, other_factor, r)| {
                // Others: consistent (exec == bid >= true).
                let mut bids: Vec<f64> = trues.iter().map(|&t| t * other_factor).collect();
                let mut exec = bids.clone();
                // Truthful utility of agent 0.
                bids[0] = trues[0];
                exec[0] = trues[0];
                let truthful = run_mechanism(
                    &mech(),
                    &Profile::new(trues.clone(), bids.clone(), exec.clone(), r).unwrap(),
                )
                .unwrap()
                .utilities[0];
                // Deviating utility of agent 0.
                bids[0] = trues[0] * bid_factor;
                exec[0] = trues[0] * exec_factor;
                let deviating = run_mechanism(
                    &mech(),
                    &Profile::new(trues.clone(), bids, exec, r).unwrap(),
                )
                .unwrap()
                .utilities[0];
                prop_assert!(
                    deviating <= truthful + 1e-7 * truthful.abs().max(1.0),
                    "deviation gained: {} > {}",
                    deviating,
                    truthful
                );
                Ok(())
            },
        );
    }

    /// Theorem 3.1 under extreme magnitudes: true values sampled
    /// log-uniformly over 1e-6..1e6 (twelve orders of magnitude), others
    /// consistent — truth still dominates every (bid, exec) deviation.
    #[test]
    fn prop_truthfulness_extreme_magnitudes() {
        prop::check(
            "prop_truthfulness_extreme_magnitudes",
            256,
            (
                prop::vec(-6.0f64..6.0, 2..8),
                0.2f64..5.0,
                1.0f64..4.0,
                1.0f64..2.0,
                -3.0f64..3.0,
            ),
            |(exponents, bid_factor, exec_factor, other_factor, r_exp)| {
                let trues: Vec<f64> = exponents.iter().map(|&e| 10f64.powf(e)).collect();
                let r = 10f64.powf(r_exp);
                let mut bids: Vec<f64> = trues.iter().map(|&t| t * other_factor).collect();
                let mut exec = bids.clone();
                bids[0] = trues[0];
                exec[0] = trues[0];
                let truthful = run_mechanism(
                    &mech(),
                    &Profile::new(trues.clone(), bids.clone(), exec.clone(), r).unwrap(),
                )
                .unwrap()
                .utilities[0];
                bids[0] = trues[0] * bid_factor;
                exec[0] = trues[0] * exec_factor;
                let deviating = run_mechanism(
                    &mech(),
                    &Profile::new(trues.clone(), bids, exec, r).unwrap(),
                )
                .unwrap()
                .utilities[0];
                prop_assert!(
                    deviating <= truthful + 1e-7 * truthful.abs().max(1.0),
                    "deviation gained: {} > {}",
                    deviating,
                    truthful
                );
                Ok(())
            },
        );
    }

    /// Theorem 3.2 under extreme magnitudes: truthful utility stays
    /// non-negative against consistent opponents across 1e-6..1e6 spreads.
    #[test]
    fn prop_participation_extreme_magnitudes() {
        prop::check(
            "prop_participation_extreme_magnitudes",
            256,
            (
                prop::vec(-6.0f64..6.0, 2..8),
                prop::vec(1.0f64..5.0, 2..8),
                -3.0f64..3.0,
            ),
            |(exponents, other_factors, r_exp)| {
                let n = exponents.len().min(other_factors.len());
                let trues: Vec<f64> = exponents[..n].iter().map(|&e| 10f64.powf(e)).collect();
                let r = 10f64.powf(r_exp);
                let mut bids = vec![trues[0]];
                let mut exec = vec![trues[0]];
                for i in 1..n {
                    let b = trues[i] * other_factors[i];
                    bids.push(b);
                    exec.push(b);
                }
                let profile = Profile::new(trues.clone(), bids, exec, r).unwrap();
                let out = run_mechanism(&mech(), &profile).unwrap();
                // Utilities here scale like r²·t, so the acceptance floor must
                // be relative to the magnitude of the terms being cancelled.
                let scale = out.utilities[0].abs().max(out.total_latency.abs()).max(1.0);
                prop_assert!(
                    out.utilities[0] >= -1e-9 * scale,
                    "truthful agent lost: {}",
                    out.utilities[0]
                );
                Ok(())
            },
        );
    }

    /// Payments decompose exactly: P = C + B and U = B, under both
    /// valuation models.
    #[test]
    fn prop_payment_decomposition() {
        prop::check(
            "prop_payment_decomposition",
            256,
            (
                prop::vec(0.1f64..10.0, 2..8),
                0.2f64..5.0,
                1.0f64..4.0,
                0.5f64..50.0,
                prop::any_bool(),
            ),
            |(trues, bid_factor, exec_factor, r, contributed)| {
                let m = if contributed {
                    CompensationBonusMechanism::contributed()
                } else {
                    CompensationBonusMechanism::paper()
                };
                let sys = lb_core::System::from_true_values(&trues).unwrap();
                let profile = Profile::with_deviation(&sys, r, 0, bid_factor, exec_factor).unwrap();
                let out = run_mechanism(&m, &profile).unwrap();
                let breakdown = m
                    .payment_breakdown(profile.bids(), &out.allocation, profile.exec_values(), r)
                    .unwrap();
                prop_assert_eq!(breakdown.len(), trues.len());
                for ((p, u), b) in out.payments.iter().zip(&out.utilities).zip(&breakdown) {
                    prop_assert!((p - b.total()).abs() < 1e-9);
                    prop_assert!((u - b.bonus).abs() < 1e-9);
                }
                Ok(())
            },
        );
    }
}
