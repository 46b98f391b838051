//! Per-machine observation records for one simulated round.

use lb_stats::online::OnlineStats;

/// What the coordinator observed about one machine during a round.
#[derive(Debug, Clone)]
pub struct MachineObservation {
    /// Machine index.
    pub machine: usize,
    /// Rate the PR allocation assigned.
    pub assigned_rate: f64,
    /// Number of jobs that arrived during the horizon.
    pub jobs_arrived: u64,
    /// Response-time statistics over the observed completions.
    pub response: OnlineStats,
    /// Estimated execution value (`None` for idle machines).
    pub estimated_exec: Option<f64>,
}

impl MachineObservation {
    /// Estimated contribution of this machine to the total latency,
    /// `x_i · mean_response_i ≈ t̃_i x_i²`.
    #[must_use]
    pub fn latency_contribution(&self) -> f64 {
        if self.response.is_empty() {
            0.0
        } else {
            self.assigned_rate * self.response.mean()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(rate: f64, responses: &[f64]) -> MachineObservation {
        MachineObservation {
            machine: 0,
            assigned_rate: rate,
            jobs_arrived: responses.len() as u64,
            response: OnlineStats::from_slice(responses),
            estimated_exec: None,
        }
    }

    #[test]
    fn latency_contribution_is_rate_times_mean() {
        let o = obs(2.0, &[3.0, 5.0]);
        assert!((o.latency_contribution() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn idle_machine_contributes_nothing() {
        let o = obs(0.0, &[]);
        assert_eq!(o.latency_contribution(), 0.0);
    }
}
