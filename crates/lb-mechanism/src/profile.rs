//! Strategic profiles: the complete state of one mechanism round.

use crate::error::MechanismError;
use lb_core::machine::validate_values;
use lb_core::{allocation::validate_rate, System};

/// The strategic state of one round: who the agents really are
/// (`true_values`), what they claimed (`bids`), how they actually executed
/// (`exec_values`) and the total job arrival rate.
///
/// Invariants enforced at construction:
/// * all three vectors share one length `n ≥ 1`,
/// * every entry is finite and strictly positive,
/// * `exec_values[i] ≥ true_values[i]` — Def. 3.1 of the paper: a machine can
///   execute *slower* than its capability, never faster.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    true_values: Vec<f64>,
    bids: Vec<f64>,
    exec_values: Vec<f64>,
    total_rate: f64,
}

impl Profile {
    /// Creates a validated profile.
    ///
    /// # Errors
    /// Returns a [`MechanismError`] describing the violated invariant.
    pub fn new(
        true_values: Vec<f64>,
        bids: Vec<f64>,
        exec_values: Vec<f64>,
        total_rate: f64,
    ) -> Result<Self, MechanismError> {
        validate_values("true value", &true_values)?;
        validate_values("bid", &bids)?;
        validate_values("execution value", &exec_values)?;
        validate_rate(total_rate)?;
        if bids.len() != true_values.len() {
            return Err(lb_core::CoreError::LengthMismatch {
                expected: true_values.len(),
                actual: bids.len(),
            }
            .into());
        }
        if exec_values.len() != true_values.len() {
            return Err(lb_core::CoreError::LengthMismatch {
                expected: true_values.len(),
                actual: exec_values.len(),
            }
            .into());
        }
        for (i, (&t, &e)) in true_values.iter().zip(&exec_values).enumerate() {
            if e < t {
                return Err(MechanismError::ExecutionFasterThanTruth {
                    agent: i,
                    true_value: t,
                    exec_value: e,
                });
            }
        }
        Ok(Self {
            true_values,
            bids,
            exec_values,
            total_rate,
        })
    }

    /// The fully truthful profile for a system: `b = t̃ = t`.
    ///
    /// # Errors
    /// Propagates validation errors (e.g. invalid rate).
    pub fn truthful(system: &System, total_rate: f64) -> Result<Self, MechanismError> {
        let t = system.true_values();
        Self::new(t.clone(), t.clone(), t, total_rate)
    }

    /// A truthful profile with a single deviating agent.
    ///
    /// `bid_factor` scales the deviator's bid relative to its true value;
    /// `exec_factor` scales its execution value (clamped up to ≥ 1 since
    /// machines cannot beat their capacity).
    ///
    /// # Errors
    /// Propagates validation errors; `agent` out of range yields a
    /// length-mismatch error.
    pub fn with_deviation(
        system: &System,
        total_rate: f64,
        agent: usize,
        bid_factor: f64,
        exec_factor: f64,
    ) -> Result<Self, MechanismError> {
        let t = system.true_values();
        if agent >= t.len() {
            return Err(lb_core::CoreError::LengthMismatch {
                expected: t.len(),
                actual: agent,
            }
            .into());
        }
        let mut bids = t.clone();
        let mut exec = t.clone();
        bids[agent] = t[agent] * bid_factor;
        exec[agent] = t[agent] * exec_factor.max(1.0);
        Self::new(t, bids, exec, total_rate)
    }

    /// Number of agents.
    #[must_use]
    pub fn len(&self) -> usize {
        self.true_values.len()
    }

    /// Whether the profile is empty (never true after construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.true_values.is_empty()
    }

    /// Private true values `t`.
    #[must_use]
    pub fn true_values(&self) -> &[f64] {
        &self.true_values
    }

    /// Declared bids `b`.
    #[must_use]
    pub fn bids(&self) -> &[f64] {
        &self.bids
    }

    /// Observed execution values `t̃`.
    #[must_use]
    pub fn exec_values(&self) -> &[f64] {
        &self.exec_values
    }

    /// Total job arrival rate `R`.
    #[must_use]
    pub fn total_rate(&self) -> f64 {
        self.total_rate
    }

    /// Returns a copy with agent `agent`'s bid and execution value replaced.
    ///
    /// # Errors
    /// Propagates validation errors (invalid values, exec below truth).
    pub fn replace_agent(
        &self,
        agent: usize,
        bid: f64,
        exec_value: f64,
    ) -> Result<Self, MechanismError> {
        if agent >= self.len() {
            return Err(lb_core::CoreError::LengthMismatch {
                expected: self.len(),
                actual: agent,
            }
            .into());
        }
        let mut bids = self.bids.clone();
        let mut exec = self.exec_values.clone();
        bids[agent] = bid;
        exec[agent] = exec_value;
        Self::new(self.true_values.clone(), bids, exec, self.total_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lb_core::scenario::paper_system;

    #[test]
    fn truthful_profile_is_truthful() {
        let p = Profile::truthful(&paper_system(), 20.0).unwrap();
        assert_eq!(p.len(), 16);
        assert_eq!(p.bids(), p.true_values());
        assert_eq!(p.exec_values(), p.true_values());
        assert_eq!(p.total_rate(), 20.0);
    }

    #[test]
    fn execution_faster_than_truth_is_rejected() {
        let err = Profile::new(vec![2.0, 2.0], vec![2.0, 2.0], vec![1.9, 2.0], 5.0).unwrap_err();
        assert!(matches!(
            err,
            MechanismError::ExecutionFasterThanTruth { agent: 0, .. }
        ));
    }

    #[test]
    fn mismatched_lengths_are_rejected() {
        assert!(Profile::new(vec![1.0, 2.0], vec![1.0], vec![1.0, 2.0], 5.0).is_err());
        assert!(Profile::new(vec![1.0, 2.0], vec![1.0, 2.0], vec![1.0], 5.0).is_err());
    }

    #[test]
    fn invalid_entries_are_rejected() {
        assert!(Profile::new(vec![0.0], vec![1.0], vec![1.0], 5.0).is_err());
        assert!(Profile::new(vec![1.0], vec![-1.0], vec![1.0], 5.0).is_err());
        assert!(Profile::new(vec![1.0], vec![1.0], vec![f64::NAN], 5.0).is_err());
        assert!(Profile::new(vec![1.0], vec![1.0], vec![1.0], 0.0).is_err());
    }

    #[test]
    fn deviation_builder_clamps_exec_to_capacity() {
        let sys = paper_system();
        // exec_factor 0.5 would be faster than capacity; it must clamp to 1.0.
        let p = Profile::with_deviation(&sys, 20.0, 0, 3.0, 0.5).unwrap();
        assert_eq!(p.exec_values()[0], 1.0);
        assert_eq!(p.bids()[0], 3.0);
        assert_ne!(p.bids(), p.true_values());
        // All other agents untouched.
        assert_eq!(p.bids()[1..], p.true_values()[1..]);
    }

    #[test]
    fn deviation_out_of_range_errors() {
        assert!(Profile::with_deviation(&paper_system(), 20.0, 99, 1.0, 1.0).is_err());
    }

    #[test]
    fn replace_agent_roundtrip() {
        let sys = paper_system();
        let p = Profile::truthful(&sys, 20.0).unwrap();
        let q = p.replace_agent(2, 4.0, 2.5).unwrap();
        assert_eq!(q.bids()[2], 4.0);
        assert_eq!(q.exec_values()[2], 2.5);
        assert!(q.replace_agent(2, 4.0, 1.0).is_err()); // exec < true=2.0
        assert!(q.replace_agent(99, 1.0, 1.0).is_err());
    }
}
