//! Generalized compensation-and-bonus mechanism over arbitrary convex
//! latency families.
//!
//! The paper proves its results for linear latencies; the construction is
//! more general: all it needs is (a) an allocation rule that minimises the
//! total latency given declared parameters, and (b) the `L_{-i}` benchmark
//! for the same family. This module lifts the mechanism to any
//! [`LatencyFamily`] — a one-parameter family of convex latency functions —
//! using the KKT solver from `lb-core` for both. Instantiated with
//! [`LinearFamily`] it reproduces [`crate::cb::CompensationBonusMechanism`]
//! exactly (tested); instantiated with [`Mm1Family`] it covers the M/M/1
//! model of the authors' companion paper (Grosu & Chronopoulos, Cluster
//! 2002, [ref.&nbsp;8]).

use crate::error::{check_arity, MechanismError};
use crate::traits::{ValuationModel, VerifiedMechanism};
use lb_core::latency::{LatencyFunction, Linear, Mm1};
use lb_core::{solve_convex, Allocation, ConvexSolverOptions};

/// A one-parameter family of latency functions, indexed by the agents'
/// scalar type `t` (small `t` = fast machine, exactly as in the paper).
pub trait LatencyFamily {
    /// The concrete latency function type.
    type Fn: LatencyFunction;

    /// Builds the latency function for a machine with parameter `t`.
    ///
    /// # Errors
    /// Returns an error for invalid parameters.
    fn make(&self, t: f64) -> Result<Self::Fn, MechanismError>;

    /// Family name for reports.
    fn name(&self) -> &'static str;
}

/// The paper's linear family: `l(x) = t·x`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinearFamily;

impl LatencyFamily for LinearFamily {
    type Fn = Linear;
    fn make(&self, t: f64) -> Result<Linear, MechanismError> {
        if !(t.is_finite() && t > 0.0) {
            return Err(lb_core::CoreError::InvalidParameter {
                name: "linear t",
                value: t,
            }
            .into());
        }
        Ok(Linear::new(t))
    }
    fn name(&self) -> &'static str {
        "linear"
    }
}

/// M/M/1 family: parameter `t = 1/μ` (mean service time), `l(x) = 1/(μ−x)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Mm1Family;

impl LatencyFamily for Mm1Family {
    type Fn = Mm1;
    fn make(&self, t: f64) -> Result<Mm1, MechanismError> {
        if !(t.is_finite() && t > 0.0) {
            return Err(lb_core::CoreError::InvalidParameter {
                name: "mm1 t",
                value: t,
            }
            .into());
        }
        Ok(Mm1::new(1.0 / t))
    }
    fn name(&self) -> &'static str {
        "mm1"
    }
}

/// Compensation-and-bonus mechanism with verification over a latency family.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GeneralizedCompensationBonus<F> {
    /// The latency family.
    pub family: F,
    /// Valuation/compensation model.
    pub valuation: ValuationModel,
}

impl<F: LatencyFamily> GeneralizedCompensationBonus<F> {
    /// Creates the mechanism with default options.
    #[must_use]
    pub fn new(family: F) -> Self {
        Self {
            family,
            valuation: ValuationModel::default(),
        }
    }

    fn fns(&self, values: &[f64]) -> Result<Vec<F::Fn>, MechanismError> {
        values.iter().map(|&v| self.family.make(v)).collect()
    }

    fn optimal_latency(&self, values: &[f64], rate: f64) -> Result<f64, MechanismError> {
        let fns = self.fns(values)?;
        let refs: Vec<&F::Fn> = fns.iter().collect();
        let alloc = solve_convex(&refs, rate, ConvexSolverOptions::default())?;
        Ok(alloc
            .rates()
            .iter()
            .zip(&fns)
            .map(|(&x, f)| f.total(x))
            .sum())
    }

    /// Actual total latency of `allocation` under execution parameters.
    ///
    /// For capacitated families a machine may have *attracted* (via its bid)
    /// more load than it can actually serve; its stationary latency then
    /// diverges and the round has no well-defined settlement — reported as
    /// an [`lb_core::CoreError::Infeasible`] error rather than a NaN payment.
    fn actual_latency(&self, allocation: &Allocation, exec: &[f64]) -> Result<f64, MechanismError> {
        let fns = self.fns(exec)?;
        let total: f64 = allocation
            .rates()
            .iter()
            .zip(&fns)
            .map(|(&x, f)| f.total(x))
            .sum();
        if !total.is_finite() {
            return Err(lb_core::CoreError::Infeasible {
                reason:
                    "realised latency diverges: a machine was allocated beyond its actual capacity"
                        .to_string(),
            }
            .into());
        }
        Ok(total)
    }

    fn valuation_of(&self, f: &F::Fn, x: f64) -> f64 {
        match self.valuation {
            ValuationModel::PerJobLatency => -f.per_job(x),
            ValuationModel::ContributedLatency => -f.total(x),
        }
    }
}

impl<F: LatencyFamily> VerifiedMechanism for GeneralizedCompensationBonus<F> {
    fn name(&self) -> &'static str {
        "generalized compensation-bonus"
    }

    fn valuation_model(&self) -> ValuationModel {
        self.valuation
    }

    fn valuation(&self, rate: f64, exec_value: f64) -> f64 {
        match self.family.make(exec_value) {
            Ok(f) => self.valuation_of(&f, rate),
            Err(_) => f64::NAN,
        }
    }

    fn realised_latency(
        &self,
        allocation: &Allocation,
        exec_values: &[f64],
    ) -> Result<f64, MechanismError> {
        self.actual_latency(allocation, exec_values)
    }

    fn allocate(&self, bids: &[f64], total_rate: f64) -> Result<Allocation, MechanismError> {
        let fns = self.fns(bids)?;
        let refs: Vec<&F::Fn> = fns.iter().collect();
        Ok(solve_convex(
            &refs,
            total_rate,
            ConvexSolverOptions::default(),
        )?)
    }

    fn payments(
        &self,
        bids: &[f64],
        allocation: &Allocation,
        exec_values: &[f64],
        total_rate: f64,
    ) -> Result<Vec<f64>, MechanismError> {
        if bids.len() < 2 {
            return Err(MechanismError::NeedTwoAgents);
        }
        check_arity(bids.len(), allocation.len(), exec_values.len())?;
        let actual = self.actual_latency(allocation, exec_values)?;
        let exec_fns = self.fns(exec_values)?;
        (0..bids.len())
            .map(|i| {
                let x = allocation.rate(i);
                let compensation = -self.valuation_of(&exec_fns[i], x);
                let others: Vec<f64> = bids
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, &b)| b)
                    .collect();
                let without_i = self.optimal_latency(&others, total_rate)?;
                Ok(compensation + without_i - actual)
            })
            .collect()
    }
}

/// Note on the valuation in the generalized setting: the per-job cost of a
/// machine is its latency `l(x; t̃)` and the contributed cost is
/// `x·l(x; t̃)`; for the linear family these reduce to `t̃·x` and `t̃·x²`,
/// recovering the paper's formulas exactly.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::cb::CompensationBonusMechanism;
    use crate::profile::Profile;
    use crate::traits::run_mechanism;
    use lb_core::scenario::{paper_system, PAPER_ARRIVAL_RATE};
    use lb_core::System;

    #[test]
    fn linear_family_reduces_to_paper_mechanism() {
        let gen = GeneralizedCompensationBonus::new(LinearFamily);
        let cb = CompensationBonusMechanism::paper();
        for (bid_f, exec_f) in [(1.0, 1.0), (3.0, 3.0), (0.5, 2.0)] {
            let profile =
                Profile::with_deviation(&paper_system(), PAPER_ARRIVAL_RATE, 0, bid_f, exec_f)
                    .unwrap();
            let a = run_mechanism(&gen, &profile).unwrap();
            let b = run_mechanism(&cb, &profile).unwrap();
            for i in 0..16 {
                assert!(
                    (a.payments[i] - b.payments[i]).abs() < 1e-5 * b.payments[i].abs().max(1.0),
                    "agent {i}: {} vs {}",
                    a.payments[i],
                    b.payments[i]
                );
                assert!(
                    (a.utilities[i] - b.utilities[i]).abs() < 1e-5 * b.utilities[i].abs().max(1.0)
                );
            }
        }
    }

    #[test]
    fn length_mismatch_names_the_column_that_differs() {
        let m = GeneralizedCompensationBonus::new(LinearFamily);
        let alloc = m.allocate(&[1.0, 2.0], 5.0).unwrap();
        assert_eq!(
            m.payments(&[1.0, 2.0], &alloc, &[1.0, 2.0, 3.0], 5.0),
            Err(lb_core::CoreError::LengthMismatch {
                expected: 2,
                actual: 3
            }
            .into())
        );
        assert_eq!(
            m.payments(&[1.0, 2.0, 3.0], &alloc, &[1.0, 2.0, 3.0], 5.0),
            Err(lb_core::CoreError::LengthMismatch {
                expected: 3,
                actual: 2
            }
            .into())
        );
    }

    fn mm1_system() -> System {
        // Mean service times t = 1/mu; capacities mu = [10, 5, 2].
        System::from_true_values(&[0.1, 0.2, 0.5]).unwrap()
    }

    #[test]
    fn mm1_truthful_round_is_feasible_and_optimal() {
        let gen = GeneralizedCompensationBonus::new(Mm1Family);
        let sys = mm1_system();
        // Capacities mu = [10, 5, 2]; the bonus benchmark L_{-i} must stay
        // feasible for every i, so the load must be below the smallest
        // leave-one-out capacity (7 here) — the "no monopolist" condition.
        let profile = Profile::truthful(&sys, 5.0).unwrap();
        let out = run_mechanism(&gen, &profile).unwrap();
        // Allocation below each capacity.
        for (x, t) in out.allocation.rates().iter().zip(&sys.true_values()) {
            assert!(*x < 1.0 / t, "x {x} vs capacity {}", 1.0 / t);
        }
        // Voluntary participation: no truthful agent loses; loaded agents
        // strictly profit. (At this load the slowest machine is optimally
        // idle — its marginal latency at zero exceeds the KKT multiplier —
        // so its marginal contribution, and hence its bonus, is exactly 0.)
        for (i, u) in out.utilities.iter().enumerate() {
            assert!(*u >= -1e-9, "agent {i}: {u}");
            if out.allocation.rate(i) > 1e-9 {
                assert!(*u > 1e-9, "loaded agent {i} did not profit: {u}");
            }
        }
    }

    #[test]
    fn mm1_truthfulness_on_deviation_grid() {
        let gen = GeneralizedCompensationBonus::new(Mm1Family);
        let sys = mm1_system();
        let rate = 5.0;
        let truthful = run_mechanism(&gen, &Profile::truthful(&sys, rate).unwrap())
            .unwrap()
            .utilities[0];
        for bid_f in [0.5, 0.8, 1.2, 1.5, 2.5] {
            for exec_f in [1.0, 1.3, 2.0] {
                let p = Profile::with_deviation(&sys, rate, 0, bid_f, exec_f).unwrap();
                match run_mechanism(&gen, &p) {
                    Ok(out) => {
                        assert!(
                            out.utilities[0] <= truthful + 1e-6 * truthful.abs().max(1.0),
                            "deviation ({bid_f},{exec_f}) gained: {} > {truthful}",
                            out.utilities[0]
                        );
                    }
                    Err(MechanismError::Core(lb_core::CoreError::InsufficientCapacity {
                        ..
                    })) => {
                        // A deviation that makes the declared system unable to
                        // carry the load is rejected outright — also no gain.
                    }
                    Err(MechanismError::Core(lb_core::CoreError::Infeasible { .. })) => {
                        // Under-bidding can attract more load than the machine
                        // can actually serve: its queue diverges, which is the
                        // opposite of a profitable deviation.
                    }
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
        }
    }

    #[test]
    fn mm1_monopolist_load_is_rejected() {
        // At R = 10 the system cannot do without machine 0 (remaining
        // capacity 7): the L_{-0} benchmark is undefined and the mechanism
        // refuses the round instead of inventing a payment.
        let gen = GeneralizedCompensationBonus::new(Mm1Family);
        let profile = Profile::truthful(&mm1_system(), 10.0).unwrap();
        assert!(matches!(
            run_mechanism(&gen, &profile),
            Err(MechanismError::Core(
                lb_core::CoreError::InsufficientCapacity { .. }
            ))
        ));
    }

    #[test]
    fn mm1_over_capacity_bids_are_rejected() {
        let gen = GeneralizedCompensationBonus::new(Mm1Family);
        // Declared capacities sum to 3 < rate 5.
        let err = gen.allocate(&[1.0, 2.0], 5.0).unwrap_err();
        assert!(matches!(
            err,
            MechanismError::Core(lb_core::CoreError::InsufficientCapacity { .. })
        ));
    }

    #[test]
    fn singleton_rejected() {
        let gen = GeneralizedCompensationBonus::new(LinearFamily);
        let profile = Profile::new(vec![1.0], vec![1.0], vec![1.0], 2.0).unwrap();
        assert!(matches!(
            run_mechanism(&gen, &profile),
            Err(MechanismError::NeedTwoAgents)
        ));
    }

    #[test]
    fn family_constructors_validate() {
        assert!(LinearFamily.make(0.0).is_err());
        assert!(Mm1Family.make(-1.0).is_err());
        assert!(Mm1Family.make(0.5).is_ok());
        assert_eq!(LinearFamily.name(), "linear");
        assert_eq!(Mm1Family.name(), "mm1");
    }
}
