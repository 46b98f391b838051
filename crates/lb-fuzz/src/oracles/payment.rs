//! Payment oracle: Definition 3.3's `P_i = C_i + B_i`, brute-forced at
//! double-double precision.
//!
//! The bonus `B_i = L_{-i}(b_{-i}) − L(x(b), t̃)` is a difference of two
//! near-equal totals whenever one machine contributes little, so the honest
//! error measure is relative to the *magnitudes being cancelled*, not to the
//! difference: the oracle enforces
//! `|got − ref| ≤ 1e-9 · max(|C_i|, |L_{-i}|, |L|)`. Both sides consume the
//! same bids/rates/execution values — the comparison isolates arithmetic
//! error in the production kernel, which must stay ~seven orders of
//! magnitude below the budget thanks to compensated summation.
//!
//! Since the batch leave-one-out kernel landed, each iteration additionally
//! cross-checks **three independent `L_{-i}` pipelines** — the production
//! batch (`LeaveOneOut`, one dd harmonic sum, subtractive residual), the
//! legacy per-agent rebuild (`optimal_latency_excluding_legacy`, fresh `Vec`
//! plus compensated f64 re-sum) and the brute-force double-double reference —
//! plus the production cancellation-free marginal closed form against the
//! dd subtractive marginal.
//!
//! The settle entry points must also agree **bit for bit**: `payments`,
//! `run_mechanism(..).payments`, `payment_breakdown(..).total()` and three
//! settles against the merged sums of 1–4 random cut points — a folded bid
//! side (`bid_side` with no given `S`), a side given the merged sum and
//! CB's `payments_with_sum` against it — in payments and, for the two
//! sides, in the allocation and `L`; and each batch `L_{-i}` with the
//! single-index `optimal_latency_excluding`.
//!
//! A second profile of 2–64 machines, mostly not a multiple of the
//! leave-one-out kernel's 16-machine block and half the time with a
//! dominant machine on the re-sum fallback, checks `payments_with_sum` and
//! `LeaveOneOut::compute` bit for bit against the per-machine
//! `latency_excluding_dd` reference.

use crate::extended::{
    marginal_contribution_dd, optimal_latency_excluding_dd, total_latency_dd, TwoF64,
};
use crate::generate::{arrival_rate, latency_values, rng_for, spread_half_width};
use crate::oracles::REL_TOL;
use lb_core::allocation::{
    latency_excluding_dd, optimal_latency_excluding, optimal_latency_excluding_legacy,
};
use lb_core::{inv_sum_dd, merge_inv_sums, total_latency_linear, LeaveOneOut};
use lb_mechanism::traits::ValuationModel;
use lb_mechanism::{
    run_mechanism, CompensationBonusMechanism, PaymentBreakdown, Profile, VerifiedMechanism,
};
use lb_stats::{Rng, Xoshiro256StarStar};
use std::borrow::Cow;

/// Runs one payment-oracle iteration.
///
/// # Errors
/// Returns a description of the first disagreement found.
pub fn check(seed: u64) -> Result<(), String> {
    let mut rng = rng_for(seed);
    let half_width = spread_half_width(&mut rng);
    #[allow(clippy::cast_possible_truncation)]
    let n = 2 + rng.next_below(9) as usize;
    let true_values = latency_values(&mut rng, n, half_width);
    // Strategic bids around the truth (×10^[-0.3, 0.6]) and lazy execution
    // (t̃ = t · [1, 3]): the payment formula must hold off the truthful path.
    let bids: Vec<f64> = true_values
        .iter()
        .map(|&t| t * 10f64.powf(rng.next_range(-0.3, 0.6)))
        .collect();
    let exec_values: Vec<f64> = true_values
        .iter()
        .map(|&t| t * rng.next_range(1.0, 3.0))
        .collect();
    let r = arrival_rate(&mut rng);
    let mech = if rng.next_bool(0.5) {
        CompensationBonusMechanism::paper()
    } else {
        CompensationBonusMechanism::contributed()
    };

    let alloc = lb_core::pr_allocate(&bids, r).map_err(|e| format!("pr_allocate: {e}"))?;
    let breakdown = mech
        .payment_breakdown(&bids, &alloc, &exec_values, r)
        .map_err(|e| format!("payment_breakdown failed on valid profile: {e}"))?;

    let actual_latency_dd = total_latency_dd(alloc.rates(), &exec_values);
    for (i, b) in breakdown.iter().enumerate() {
        let x = alloc.rate(i);
        // C_i = −V_i at double-double precision.
        let comp_dd = match mech.valuation {
            ValuationModel::PerJobLatency => TwoF64::from_f64(exec_values[i]).mul_f64(x),
            ValuationModel::ContributedLatency => {
                TwoF64::from_f64(x).mul_f64(x).mul_f64(exec_values[i])
            }
        };
        let without_i = optimal_latency_excluding_dd(&bids, i, r);
        let want = comp_dd
            .add_f64(without_i)
            .add_f64(-actual_latency_dd)
            .value();
        let scale = comp_dd
            .value()
            .abs()
            .max(without_i.abs())
            .max(actual_latency_dd.abs());
        let got = b.total();
        if (got - want).abs() > REL_TOL * scale.max(1e-300) {
            return Err(format!(
                "P[{i}] = {got:e} vs dd reference {want:e} \
                 (C = {:e}, L_-i = {without_i:e}, L = {actual_latency_dd:e}, r = {r:e})",
                comp_dd.value()
            ));
        }
        // The compensation component alone must also match (it is what the
        // settlement audit refunds; a bonus-side error must not hide in it).
        if (b.compensation - comp_dd.value()).abs() > REL_TOL * comp_dd.value().abs().max(1e-300) {
            return Err(format!(
                "C[{i}] = {:e} vs dd reference {:e}",
                b.compensation,
                comp_dd.value()
            ));
        }
    }

    // Every settle entry point pays the same bits.
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let totals: Vec<f64> = breakdown.iter().map(PaymentBreakdown::total).collect();
    let plain = mech
        .payments(&bids, &alloc, &exec_values, r)
        .map_err(|e| format!("payments failed on valid profile: {e}"))?;
    let profile = Profile::new(true_values, bids.clone(), exec_values.clone(), r)
        .map_err(|e| format!("profile rejected: {e}"))?;
    let round = run_mechanism(&mech, &profile)
        .map_err(|e| format!("run_mechanism failed on valid profile: {e}"))?;
    #[allow(clippy::cast_possible_truncation)]
    let mut cuts: Vec<usize> = (0..=rng.next_below(4))
        .map(|_| rng.next_below(n as u64 + 1) as usize)
        .collect();
    cuts.sort_unstable();
    let mut partials = Vec::with_capacity(cuts.len() + 1);
    let mut start = 0;
    for &cut in cuts.iter().chain([&n]) {
        partials.push(inv_sum_dd(&bids[start..cut]));
        start = cut;
    }
    let s = merge_inv_sums(&partials);
    let settle = |given| {
        let side = mech.bid_side(Cow::Borrowed(&bids), r, given)?;
        mech.settle_bid_side(Cow::Owned(side), &exec_values)
    };
    let (folded_alloc, folded, folded_latency) =
        settle(None).map_err(|e| format!("folded side failed on valid profile: {e}"))?;
    let (given_alloc, given, given_latency) =
        settle(Some(s)).map_err(|e| format!("given-S side failed on valid profile: {e}"))?;
    let merged = mech
        .payments_with_sum(&bids, &alloc, &exec_values, r, s)
        .map_err(|e| format!("payments_with_sum failed on valid profile: {e}"))?;
    let latency = total_latency_linear(&alloc, &exec_values)
        .map_err(|e| format!("realised latency failed: {e}"))?;
    for (name, side_alloc, side_latency) in [
        ("folded side", &folded_alloc, folded_latency),
        ("given-S side", &given_alloc, given_latency),
    ] {
        if bits(side_alloc.rates()) != bits(alloc.rates())
            || side_latency.to_bits() != latency.to_bits()
        {
            return Err(format!(
                "{name}: rates {:?}, L {side_latency:e} vs pr_allocate {:?}, L {latency:e} \
                 (cuts {cuts:?})",
                side_alloc.rates(),
                alloc.rates()
            ));
        }
    }
    for (name, got) in [
        ("payments", &plain),
        ("run_mechanism", &round.payments),
        ("folded side", &folded),
        ("given-S side", &given),
        ("payments_with_sum", &merged),
    ] {
        if bits(got) != bits(&totals) {
            return Err(format!(
                "{name} {got:?} vs payment_breakdown totals {totals:?} (cuts {cuts:?})"
            ));
        }
    }

    // Three-way leave-one-out cross-check: batch vs legacy vs dd, plus the
    // cancellation-free marginal closed form vs the dd subtractive marginal.
    let loo = LeaveOneOut::compute(&bids, r)
        .map_err(|e| format!("LeaveOneOut failed on valid profile: {e}"))?;
    for i in 0..bids.len() {
        let batch = loo.excluding(i);
        let single = optimal_latency_excluding(&bids, i, r)
            .map_err(|e| format!("L_-[{i}] failed on valid profile: {e}"))?;
        if batch.to_bits() != single.to_bits() {
            return Err(format!(
                "L_-[{i}] batch {batch:e} vs single-index {single:e}"
            ));
        }
        let legacy = optimal_latency_excluding_legacy(&bids, i, r)
            .map_err(|e| format!("legacy L_-[{i}] failed on valid profile: {e}"))?;
        let dd = optimal_latency_excluding_dd(&bids, i, r);
        if (batch - dd).abs() > REL_TOL * dd.abs().max(1e-300) {
            return Err(format!(
                "L_-[{i}] batch {batch:e} vs dd reference {dd:e} (r = {r:e})"
            ));
        }
        if (batch - legacy).abs() > REL_TOL * dd.abs().max(1e-300) {
            return Err(format!(
                "L_-[{i}] batch {batch:e} vs legacy per-agent {legacy:e} (r = {r:e})"
            ));
        }
        // The marginal is judged relative to itself: the closed form is
        // cancellation-free, so it must track the dd reference tightly even
        // when the marginal sits far below L_{-i}.
        let marginal_dd = marginal_contribution_dd(&bids, i, r);
        if (loo.marginal(i) - marginal_dd).abs() > REL_TOL * marginal_dd.abs().max(1e-300) {
            return Err(format!(
                "marginal[{i}] closed form {:e} vs dd reference {marginal_dd:e} (r = {r:e})",
                loo.marginal(i)
            ));
        }
    }
    check_blocked(&mut rng)
}

/// The blocked settle across block edges: `payments_with_sum` and
/// `LeaveOneOut::compute` against the per-machine reference, bit for bit.
fn check_blocked(rng: &mut Xoshiro256StarStar) -> Result<(), String> {
    #[allow(clippy::cast_possible_truncation)]
    let n = 2 + rng.next_below(63) as usize;
    let half_width = spread_half_width(rng);
    let mut bids = latency_values(rng, n, half_width);
    if rng.next_bool(0.5) {
        // 1e20 times the fastest rate: the rest of S is below 1e-18 of it.
        #[allow(clippy::cast_possible_truncation)]
        let dominant = rng.next_below(n as u64) as usize;
        bids[dominant] = bids.iter().copied().fold(f64::INFINITY, f64::min) * 1e-20;
    }
    let exec_values: Vec<f64> = bids.iter().map(|&b| b * rng.next_range(1.0, 3.0)).collect();
    let r = arrival_rate(rng);
    let mech = if rng.next_bool(0.5) {
        CompensationBonusMechanism::paper()
    } else {
        CompensationBonusMechanism::contributed()
    };
    let s = inv_sum_dd(&bids);
    let alloc = mech
        .allocate(&bids, r)
        .map_err(|e| format!("blocked: allocate failed on valid profile: {e}"))?;
    let latency = total_latency_linear(&alloc, &exec_values)
        .map_err(|e| format!("blocked: realised latency failed: {e}"))?;
    let paid = mech
        .payments_with_sum(&bids, &alloc, &exec_values, r, s)
        .map_err(|e| format!("blocked: payments_with_sum failed on valid profile: {e}"))?;
    let loo = LeaveOneOut::compute(&bids, r)
        .map_err(|e| format!("blocked: LeaveOneOut failed on valid profile: {e}"))?;
    for i in 0..n {
        let excluding = latency_excluding_dd(&bids, i, r, s).value();
        let compensation = mech.valuation.compensation(alloc.rate(i), exec_values[i]);
        let want = compensation + (excluding - latency);
        if paid[i].to_bits() != want.to_bits() {
            return Err(format!(
                "blocked P[{i}] = {:e} vs per-machine reference {want:e} (n = {n})",
                paid[i]
            ));
        }
        if loo.excluding(i).to_bits() != excluding.to_bits() {
            return Err(format!(
                "blocked L_-[{i}] = {:e} vs per-machine reference {excluding:e} (n = {n})",
                loo.excluding(i)
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holds_for_a_small_seed_sample() {
        for seed in 0..50 {
            check(seed).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }
}
