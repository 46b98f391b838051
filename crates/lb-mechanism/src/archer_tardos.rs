//! Archer–Tardos one-parameter mechanism for load balancing.
//!
//! The authors' companion paper (Grosu & Chronopoulos, Cluster 2002 — ref.
//! [ref.&nbsp;8] of the IPPS paper) designs a truthful load balancing mechanism through
//! the Archer–Tardos framework for *one-parameter agents*: agent `i`'s cost
//! is `t_i · w_i(b)` for a per-agent "work" measure `w_i` that must be
//! non-increasing in `i`'s own bid. For linear latencies the natural work is
//!
//! ```text
//! w_i(b) = x_i(b)²      so that   cost_i = t_i x_i² = realised latency.
//! ```
//!
//! Under the PR allocation, `x_i(b) = R·(1/b_i)/(1/b_i + S_i)` with
//! `S_i = Σ_{j≠i} 1/b_j`, hence `w_i(u, b_{-i}) = R²/(1 + S_i u)²`, which is
//! decreasing in `u` — the monotonicity Archer–Tardos require. Their payment
//!
//! ```text
//! P_i(b) = b_i w_i(b) + ∫_{b_i}^{∞} w_i(u, b_{-i}) du
//!        = b_i w_i(b) + R² / (S_i (1 + S_i b_i))
//! ```
//!
//! makes truthful *bidding* a dominant strategy. Contrast with the paper's
//! compensation-and-bonus mechanism: Archer–Tardos payments are computed
//! from bids alone (no verification), so like
//! [`crate::unverified::UnverifiedCompensationBonus`] they cannot react to
//! the realised execution values; they also pay agents even when their
//! presence does not help the system, which shows up as worse frugality in
//! Figure 6-style comparisons.
//!
//! Both the closed-form payment and an adaptive-quadrature evaluation of the
//! integral are provided; tests pin them against each other.

use crate::error::MechanismError;
use crate::quad::integrate_to_infinity;
use crate::traits::VerifiedMechanism;
use lb_core::{pr_allocate, Allocation};

/// How the Archer–Tardos payment integral is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum PaymentEvaluation {
    /// Closed-form `R²/(S(1+Sb))` (exact, fast).
    #[default]
    ClosedForm,
    /// Adaptive Simpson quadrature of the work curve (general, slower) —
    /// used to cross-check the closed form and to support non-linear work
    /// curves in extensions.
    Quadrature,
}

/// The Archer–Tardos one-parameter mechanism over the PR allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArcherTardosMechanism {
    /// Selected payment-integral evaluation strategy.
    evaluation: PaymentEvaluation,
}

impl ArcherTardosMechanism {
    /// Closed-form variant (the default).
    #[must_use]
    pub fn closed_form() -> Self {
        Self {
            evaluation: PaymentEvaluation::ClosedForm,
        }
    }

    /// Quadrature variant (cross-check / extensions).
    #[must_use]
    pub fn quadrature() -> Self {
        Self {
            evaluation: PaymentEvaluation::Quadrature,
        }
    }

    /// The work measure `w_i(b) = x_i(b)²` under the PR allocation, as a
    /// function of agent `i`'s own bid `u` with the others fixed.
    fn work(u: f64, others_inv_sum: f64, total_rate: f64) -> f64 {
        let x = total_rate * (1.0 / u) / (1.0 / u + others_inv_sum);
        x * x
    }
}

impl VerifiedMechanism for ArcherTardosMechanism {
    fn name(&self) -> &'static str {
        match self.evaluation {
            PaymentEvaluation::ClosedForm => "archer-tardos (closed form)",
            PaymentEvaluation::Quadrature => "archer-tardos (quadrature)",
        }
    }

    fn valuation_model(&self) -> crate::traits::ValuationModel {
        // The one-parameter cost the payment rule is designed for is
        // t_i · w_i = t_i x_i², i.e. the contributed-latency valuation.
        crate::traits::ValuationModel::ContributedLatency
    }

    fn allocate(&self, bids: &[f64], total_rate: f64) -> Result<Allocation, MechanismError> {
        Ok(pr_allocate(bids, total_rate)?)
    }

    fn payments(
        &self,
        bids: &[f64],
        allocation: &Allocation,
        _exec_values: &[f64],
        total_rate: f64,
    ) -> Result<Vec<f64>, MechanismError> {
        if bids.len() < 2 {
            // With a single agent the work curve w(u) = R² is constant and the
            // payment integral diverges.
            return Err(MechanismError::NeedTwoAgents);
        }
        if allocation.len() != bids.len() {
            return Err(lb_core::CoreError::LengthMismatch {
                expected: bids.len(),
                actual: allocation.len(),
            }
            .into());
        }
        let inv_sum: f64 = bids.iter().map(|b| 1.0 / b).sum();
        bids.iter()
            .enumerate()
            .map(|(i, &b_i)| {
                let s_i = inv_sum - 1.0 / b_i;
                let w_i = {
                    let x = allocation.rate(i);
                    x * x
                };
                let integral = match self.evaluation {
                    PaymentEvaluation::ClosedForm => {
                        total_rate * total_rate / (s_i * (1.0 + s_i * b_i))
                    }
                    PaymentEvaluation::Quadrature => {
                        let f = |u: f64| Self::work(u, s_i, total_rate);
                        integrate_to_infinity(&f, b_i, 1e-10)?
                    }
                };
                Ok(b_i * w_i + integral)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profile;
    use crate::traits::run_mechanism;
    use lb_core::scenario::{paper_system, PAPER_ARRIVAL_RATE};
    use lb_stats::prop;
    use lb_stats::prop_assert;

    #[test]
    fn closed_form_matches_quadrature() {
        let sys = paper_system();
        let profile = Profile::truthful(&sys, PAPER_ARRIVAL_RATE).unwrap();
        let cf = run_mechanism(&ArcherTardosMechanism::closed_form(), &profile).unwrap();
        let q = run_mechanism(&ArcherTardosMechanism::quadrature(), &profile).unwrap();
        for (a, b) in cf.payments.iter().zip(&q.payments) {
            assert!((a - b).abs() < 1e-5 * a.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn payment_exceeds_declared_cost() {
        // P_i = b_i w_i + positive integral, so truthful agents profit.
        let sys = paper_system();
        let profile = Profile::truthful(&sys, PAPER_ARRIVAL_RATE).unwrap();
        let mech = ArcherTardosMechanism::closed_form();
        let out = run_mechanism(&mech, &profile).unwrap();
        for i in 0..profile.len() {
            let x = out.allocation.rate(i);
            let declared = profile.bids()[i] * x * x;
            assert!(out.payments[i] > declared, "agent {i}");
            assert!(
                out.utilities[i] > 0.0,
                "agent {i} utility {}",
                out.utilities[i]
            );
        }
    }

    #[test]
    fn singleton_rejected() {
        let profile = Profile::new(vec![1.0], vec![1.0], vec![1.0], 2.0).unwrap();
        assert!(matches!(
            run_mechanism(&ArcherTardosMechanism::closed_form(), &profile),
            Err(MechanismError::NeedTwoAgents)
        ));
    }

    #[test]
    fn payments_ignore_execution_values() {
        let sys = paper_system();
        let honest = Profile::truthful(&sys, PAPER_ARRIVAL_RATE).unwrap();
        let lazy = Profile::with_deviation(&sys, PAPER_ARRIVAL_RATE, 0, 1.0, 3.0).unwrap();
        let mech = ArcherTardosMechanism::closed_form();
        let p1 = run_mechanism(&mech, &honest).unwrap().payments;
        let p2 = run_mechanism(&mech, &lazy).unwrap().payments;
        for (a, b) in p1.iter().zip(&p2) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    /// Bid-truthfulness of the Archer–Tardos payment with full-capacity
    /// execution: no bid deviation beats truth.
    #[test]
    fn prop_bid_truthful() {
        prop::check(
            "prop_bid_truthful",
            256,
            (prop::vec(0.1f64..10.0, 2..8), 0.2f64..5.0, 0.5f64..50.0),
            |(trues, bid_factor, r)| {
                let sys = lb_core::System::from_true_values(&trues).unwrap();
                let mech = ArcherTardosMechanism::closed_form();
                let truthful = run_mechanism(&mech, &Profile::truthful(&sys, r).unwrap())
                    .unwrap()
                    .utilities[0];
                let deviating = run_mechanism(
                    &mech,
                    &Profile::with_deviation(&sys, r, 0, bid_factor, 1.0).unwrap(),
                )
                .unwrap()
                .utilities[0];
                prop_assert!(
                    deviating <= truthful + 1e-7 * truthful.abs().max(1.0),
                    "gain: {} > {}",
                    deviating,
                    truthful
                );
                Ok(())
            },
        );
    }

    /// The work curve is monotone non-increasing in the own bid — the
    /// Archer–Tardos prerequisite.
    #[test]
    fn prop_work_monotone() {
        prop::check(
            "prop_work_monotone",
            256,
            (
                prop::vec(0.1f64..10.0, 1..8),
                0.1f64..10.0,
                0.01f64..10.0,
                0.5f64..50.0,
            ),
            |(others, b_lo, delta, r)| {
                let s: f64 = others.iter().map(|b| 1.0 / b).sum();
                let w_lo = ArcherTardosMechanism::work(b_lo, s, r);
                let w_hi = ArcherTardosMechanism::work(b_lo + delta, s, r);
                prop_assert!(w_hi <= w_lo + 1e-12);
                Ok(())
            },
        );
    }

    /// Closed form equals quadrature on random instances.
    #[test]
    fn prop_closed_form_vs_quadrature() {
        prop::check(
            "prop_closed_form_vs_quadrature",
            256,
            (prop::vec(0.2f64..5.0, 2..6), 1.0f64..30.0),
            |(trues, r)| {
                let sys = lb_core::System::from_true_values(&trues).unwrap();
                let profile = Profile::truthful(&sys, r).unwrap();
                let cf = run_mechanism(&ArcherTardosMechanism::closed_form(), &profile).unwrap();
                let q = run_mechanism(&ArcherTardosMechanism::quadrature(), &profile).unwrap();
                for (a, b) in cf.payments.iter().zip(&q.payments) {
                    prop_assert!((a - b).abs() < 1e-4 * a.abs().max(1.0), "{} vs {}", a, b);
                }
                Ok(())
            },
        );
    }
}
