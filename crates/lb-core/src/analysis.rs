//! Marginal value of participation.
//!
//! `L_{-i} − L*` is the reduction in optimal total latency machine `i`'s
//! participation buys, which is exactly the truthful bonus the mechanism
//! pays (Def. 3.3): the payment rule prices participation at its marginal
//! value.

use crate::allocation::LeaveOneOut;
use crate::error::CoreError;

/// Marginal contribution of every machine: `L_{-i} − L*` — the reduction in
/// optimal total latency its participation buys (and its truthful bonus).
///
/// One O(n) [`LeaveOneOut`] batch call, using the cancellation-free closed
/// form `R²·(1/t_i)/(S·(S − 1/t_i))`. The former per-agent subtraction
/// `L_{-i} − L*` rebuilt the value vector n times (quadratic) and, at large
/// `n`, cancelled catastrophically: both operands are `O(R²/S)` while a slow
/// machine's true marginal can sit tens of orders of magnitude below them.
///
/// # Errors
/// Propagates validation errors; needs at least two machines.
pub fn marginal_contributions(values: &[f64], r: f64) -> Result<Vec<f64>, CoreError> {
    Ok(LeaveOneOut::compute(values, r)?.marginals().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{paper_true_values, PAPER_ARRIVAL_RATE};
    use lb_stats::prop;
    use lb_stats::prop_assert;

    #[test]
    fn marginal_contributions_equal_truthful_bonuses() {
        // The mechanism's truthful bonus is the marginal contribution: check
        // C1's published value 400/4.1 - 400/5.1 = 19.13.
        let values = paper_true_values();
        let mc = marginal_contributions(&values, PAPER_ARRIVAL_RATE).unwrap();
        assert!((mc[0] - (400.0 / 4.1 - 400.0 / 5.1)).abs() < 1e-9);
        // Faster machines contribute more.
        assert!(mc[0] > mc[2] && mc[2] > mc[5] && mc[5] > mc[10]);
    }

    /// Marginal contributions are non-negative and sum to less than the
    /// total payment budget (they are the utilities of Figure 3).
    #[test]
    fn prop_marginal_contributions_nonnegative() {
        prop::check(
            "prop_marginal_contributions_nonnegative",
            256,
            (prop::vec(0.1f64..10.0, 2..12), 0.5f64..50.0),
            |(values, r)| {
                let mc = marginal_contributions(&values, r).unwrap();
                for (i, c) in mc.iter().enumerate() {
                    prop_assert!(*c >= -1e-12, "contribution {} negative: {}", i, c);
                }
                Ok(())
            },
        );
    }
}
