//! Iterated best-response dynamics.
//!
//! A strong empirical signature of dominant-strategy truthfulness: start the
//! population anywhere, let agents best-respond in round-robin order, and
//! the profile should land on (truth, full capacity) after a single sweep —
//! under a dominant-strategy mechanism, the best response does not depend on
//! what the others are doing.

use crate::best_response::{best_response, SearchOptions};
use lb_mechanism::{MechanismError, Profile, VerifiedMechanism};

/// Options for the dynamics loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicsOptions {
    /// Maximum round-robin sweeps.
    pub max_sweeps: u32,
    /// Convergence tolerance on relative bid movement within a sweep.
    pub tolerance: f64,
    /// Inner best-response search options.
    pub search: SearchOptions,
}

impl Default for DynamicsOptions {
    fn default() -> Self {
        Self {
            max_sweeps: 10,
            tolerance: 1e-4,
            search: SearchOptions::default(),
        }
    }
}

/// Trace of one dynamics run.
#[derive(Debug, Clone)]
pub struct DynamicsReport {
    /// Bids after each sweep (row per sweep).
    pub bid_history: Vec<Vec<f64>>,
    /// Execution values after each sweep.
    pub exec_history: Vec<Vec<f64>>,
    /// Sweeps performed before convergence (== `bid_history.len()`).
    pub sweeps: u32,
    /// Whether the loop converged within the sweep budget.
    pub converged: bool,
}

impl DynamicsReport {
    /// Final bids.
    ///
    /// # Panics
    /// Panics if the report is empty (cannot happen for a completed run).
    #[must_use]
    pub fn final_bids(&self) -> &[f64] {
        self.bid_history.last().expect("at least one sweep")
    }

    /// Final execution values.
    ///
    /// # Panics
    /// Panics if the report is empty.
    #[must_use]
    fn final_exec(&self) -> &[f64] {
        self.exec_history.last().expect("at least one sweep")
    }

    /// Maximum relative distance of the final profile from truth *up to a
    /// common bid scale*.
    ///
    /// The PR allocation depends only on bid ratios, so any profile with
    /// bids proportional to the true values and full-capacity execution is
    /// outcome-identical to the truthful one (same allocation, same total
    /// latency, same utilities). Best-response dynamics therefore converge
    /// to this *equivalence class*, not to the literal truthful point; this
    /// metric measures distance to the class.
    #[must_use]
    pub fn distance_from_truth_up_to_scale(&self, true_values: &[f64]) -> f64 {
        let bids = self.final_bids();
        // Median scale is robust to a single straggler agent.
        let mut scales: Vec<f64> = bids.iter().zip(true_values).map(|(b, t)| b / t).collect();
        scales.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let scale = scales[scales.len() / 2];
        let bid_d = bids
            .iter()
            .zip(true_values)
            .map(|(b, t)| (b - scale * t).abs() / (scale * t))
            .fold(0.0, f64::max);
        let exec_d = self
            .final_exec()
            .iter()
            .zip(true_values)
            .map(|(e, t)| (e - t).abs() / t)
            .fold(0.0, f64::max);
        bid_d.max(exec_d)
    }
}

/// Runs round-robin best-response dynamics from `start` until no agent moves
/// its bid by more than `tolerance` (relative) within a sweep.
///
/// # Errors
/// Propagates mechanism errors from the inner searches.
pub fn run_dynamics<M: VerifiedMechanism + ?Sized>(
    mechanism: &M,
    start: &Profile,
    options: &DynamicsOptions,
) -> Result<DynamicsReport, MechanismError> {
    let n = start.len();
    let mut current = start.clone();
    let mut bid_history = Vec::new();
    let mut exec_history = Vec::new();
    let mut converged = false;
    let mut sweeps = 0;

    for _ in 0..options.max_sweeps {
        sweeps += 1;
        let mut moved = 0.0f64;
        for agent in 0..n {
            let br = best_response(mechanism, &current, agent, &options.search)?;
            let old_bid = current.bids()[agent];
            moved = moved.max((br.bid - old_bid).abs() / old_bid.abs().max(1e-12));
            current = current.replace_agent(agent, br.bid, br.exec_value)?;
        }
        bid_history.push(current.bids().to_vec());
        exec_history.push(current.exec_values().to_vec());
        if moved <= options.tolerance {
            converged = true;
            break;
        }
    }

    Ok(DynamicsReport {
        bid_history,
        exec_history,
        sweeps,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lb_core::scenario::PAPER_ARRIVAL_RATE;
    use lb_core::System;
    use lb_mechanism::CompensationBonusMechanism;

    /// Maximum relative distance of the final profile from full truth.
    fn distance_from_truth(report: &DynamicsReport, true_values: &[f64]) -> f64 {
        let distance = |values: &[f64]| {
            values
                .iter()
                .zip(true_values)
                .map(|(v, t)| (v - t).abs() / t)
                .fold(0.0, f64::max)
        };
        distance(report.final_bids()).max(distance(report.final_exec()))
    }

    fn small_system() -> System {
        System::from_true_values(&[1.0, 2.0, 5.0, 10.0]).unwrap()
    }

    #[test]
    fn dynamics_converge_to_truth_equivalent_profile_from_liar_start() {
        let sys = small_system();
        let trues = sys.true_values();
        // Start: everyone over-bids 3x and throttles 2x.
        let bids: Vec<f64> = trues.iter().map(|t| t * 3.0).collect();
        let exec: Vec<f64> = trues.iter().map(|t| t * 2.0).collect();
        let start = Profile::new(trues.clone(), bids, exec, PAPER_ARRIVAL_RATE).unwrap();

        let mech = CompensationBonusMechanism::paper();
        let report = run_dynamics(&mech, &start, &DynamicsOptions::default()).unwrap();
        assert!(
            report.converged,
            "did not converge in {} sweeps",
            report.sweeps
        );
        // Scale-invariance of PR: the dynamics land on bids *proportional*
        // to the true values with full-capacity execution — outcome-identical
        // to truth (same allocation, same optimal latency).
        assert!(
            report.distance_from_truth_up_to_scale(&trues) < 0.05,
            "final profile not truth-equivalent: {:?}",
            report.final_bids()
        );

        // Certify outcome equivalence directly: the realised total latency at
        // the final profile equals the truthful optimum.
        let final_profile = Profile::new(
            trues.clone(),
            report.final_bids().to_vec(),
            report.final_exec().to_vec(),
            PAPER_ARRIVAL_RATE,
        )
        .unwrap();
        let out = lb_mechanism::run_mechanism(&mech, &final_profile).unwrap();
        let optimal = lb_core::optimal_latency_linear(&trues, PAPER_ARRIVAL_RATE).unwrap();
        assert!(
            (out.total_latency - optimal).abs() / optimal < 0.01,
            "latency {} vs optimal {optimal}",
            out.total_latency
        );
    }

    #[test]
    fn dynamics_from_truth_stay_at_truth_in_one_sweep() {
        let sys = small_system();
        let start = Profile::truthful(&sys, PAPER_ARRIVAL_RATE).unwrap();
        let mech = CompensationBonusMechanism::paper();
        let report = run_dynamics(&mech, &start, &DynamicsOptions::default()).unwrap();
        assert!(report.converged);
        assert_eq!(report.sweeps, 1);
        assert!(distance_from_truth(&report, &sys.true_values()) < 0.05);
    }

    #[test]
    fn history_is_recorded_per_sweep() {
        let sys = small_system();
        let start = Profile::truthful(&sys, PAPER_ARRIVAL_RATE).unwrap();
        let mech = CompensationBonusMechanism::paper();
        let report = run_dynamics(&mech, &start, &DynamicsOptions::default()).unwrap();
        assert_eq!(report.bid_history.len() as u32, report.sweeps);
        assert_eq!(report.exec_history.len() as u32, report.sweeps);
    }
}
