//! Double-double reference payments for the drift monitor.
//!
//! The deployed settle path computes payments through
//! `lb_mechanism::CompensationBonusMechanism`, whose bonus terms come from
//! `lb_core::allocation::latency_excluding_dd`, one harmonic-sum residual
//! per machine. This module re-derives the same
//! payments *independently*, carrying every intermediate in [`TwoF64`]
//! double-double arithmetic:
//!
//! ```text
//! P_i = C_i + L_{-i} − L(x, t̃)
//! C_i = compensation(x_i, t̃_i)          (per the valuation model)
//! L_{-i} = R² / Σ_{j≠i} 1/b_j           (linear-model leave-one-out optimum)
//! L(x, t̃) = Σ_j t̃_j · x_j²             (realised total latency)
//! ```
//!
//! The leave-one-out sums use prefix/suffix accumulation so the whole
//! reference is O(n) — cheap enough to run on sampled production rounds,
//! not only in offline tests. Agreement between the two implementations is
//! the drift check: a persistent gap means the fast path has been corrupted
//! (a bad build, a tampered binary, silent numerical regression).

use lb_core::TwoF64;
use lb_mechanism::traits::ValuationModel;

/// Independent double-double payments for one settled round, in machine
/// order over the *respondent* sub-vector (the same sub-vector the
/// coordinator hands its mechanism).
///
/// Returns `None` when the inputs cannot support the computation: fewer
/// than two machines (the `L_{-i}` term is undefined), mismatched arities,
/// or a non-positive / non-finite bid or rate parameter — the monitor
/// treats that as "reference unavailable", not as a violation (the
/// feasibility checks own those complaints).
#[must_use]
pub fn reference_payments(
    bids: &[f64],
    rates: &[f64],
    exec_values: &[f64],
    total_rate: f64,
    model: ValuationModel,
) -> Option<Vec<f64>> {
    let n = bids.len();
    if n < 2 || rates.len() != n || exec_values.len() != n {
        return None;
    }
    if !(total_rate.is_finite() && total_rate > 0.0) {
        return None;
    }
    if bids.iter().any(|&b| !(b.is_finite() && b > 0.0)) {
        return None;
    }
    if exec_values.iter().any(|&t| !(t.is_finite() && t > 0.0)) {
        return None;
    }

    // Prefix/suffix double-double sums of 1/b_j, so each S_{-i} is an exact
    // recombination rather than the cancellation-prone `S − 1/b_i`.
    let mut prefix = vec![TwoF64::ZERO; n + 1];
    for i in 0..n {
        prefix[i + 1] = prefix[i] + TwoF64::recip(bids[i]);
    }
    let mut suffix = vec![TwoF64::ZERO; n + 1];
    for i in (0..n).rev() {
        suffix[i] = suffix[i + 1] + TwoF64::recip(bids[i]);
    }

    let mut latency = TwoF64::ZERO;
    for (&x, &t) in rates.iter().zip(exec_values) {
        latency = latency + TwoF64::from_f64(t).mul_f64(x).mul_f64(x);
    }
    let r_squared = TwoF64::from_f64(total_rate).mul_f64(total_rate);

    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let s_excluding = prefix[i] + suffix[i + 1];
        if s_excluding.value() <= 0.0 {
            return None;
        }
        let loo = r_squared / s_excluding;
        let compensation = match model {
            ValuationModel::PerJobLatency => TwoF64::from_f64(exec_values[i]).mul_f64(rates[i]),
            ValuationModel::ContributedLatency => TwoF64::from_f64(exec_values[i])
                .mul_f64(rates[i])
                .mul_f64(rates[i]),
        };
        out.push((compensation + loo - latency).value());
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lb_core::scenario::{paper_system, PAPER_ARRIVAL_RATE};
    use lb_mechanism::{run_mechanism, CompensationBonusMechanism, Profile};

    #[test]
    fn reference_matches_the_deployed_payment_path() {
        let mech = CompensationBonusMechanism::paper();
        let profile = Profile::truthful(&paper_system(), PAPER_ARRIVAL_RATE).unwrap();
        let out = run_mechanism(&mech, &profile).unwrap();
        let rates: Vec<f64> = (0..profile.len()).map(|i| out.allocation.rate(i)).collect();
        let reference = reference_payments(
            profile.bids(),
            &rates,
            profile.exec_values(),
            PAPER_ARRIVAL_RATE,
            ValuationModel::PerJobLatency,
        )
        .unwrap();
        for (i, (&fast, &slow)) in out.payments.iter().zip(&reference).enumerate() {
            let scale = 1.0 + fast.abs();
            assert!(
                (fast - slow).abs() / scale < 1e-9,
                "machine {i}: fast {fast} vs dd {slow}"
            );
        }
    }

    #[test]
    fn contributed_model_reference_matches_too() {
        let mech = CompensationBonusMechanism::contributed();
        let profile = Profile::truthful(&paper_system(), PAPER_ARRIVAL_RATE).unwrap();
        let out = run_mechanism(&mech, &profile).unwrap();
        let rates: Vec<f64> = (0..profile.len()).map(|i| out.allocation.rate(i)).collect();
        let reference = reference_payments(
            profile.bids(),
            &rates,
            profile.exec_values(),
            PAPER_ARRIVAL_RATE,
            ValuationModel::ContributedLatency,
        )
        .unwrap();
        for (i, (&fast, &slow)) in out.payments.iter().zip(&reference).enumerate() {
            let scale = 1.0 + fast.abs();
            assert!(
                (fast - slow).abs() / scale < 1e-9,
                "machine {i}: fast {fast} vs dd {slow}"
            );
        }
    }

    #[test]
    fn degenerate_inputs_yield_no_reference() {
        let m = ValuationModel::PerJobLatency;
        assert!(reference_payments(&[1.0], &[5.0], &[1.0], 5.0, m).is_none());
        assert!(reference_payments(&[1.0, 0.0], &[2.0, 3.0], &[1.0, 1.0], 5.0, m).is_none());
        assert!(reference_payments(&[1.0, 2.0], &[2.0, 3.0], &[1.0, 1.0], f64::NAN, m).is_none());
        assert!(reference_payments(&[1.0, 2.0], &[2.0], &[1.0, 1.0], 5.0, m).is_none());
    }
}
