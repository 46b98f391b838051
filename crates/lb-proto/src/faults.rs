//! Declarative faults: lost messages, silent machines, partitions.
//!
//! The paper's protocol implicitly assumes a reliable network; a deployable
//! version cannot. A [`FaultPlan`] names the frames a round loses; it is the
//! declarative part of [`crate::chaos::ChaosConfig`], and the round engine
//! applies two timeout rules to it:
//!
//! * **Bid timeout** — machines whose bids never arrived are *excluded*:
//!   the round proceeds over the respondents (the excluded machine receives
//!   no jobs and no payment, which is exactly the `L_{-i}` counterfactual
//!   its bonus is measured against, so incentives are unaffected). With
//!   `bid_retries: 0` the first loss excludes.
//! * **Completion timeout** — settlement does not wait for lost completion
//!   acknowledgements: payments derive from the coordinator's *own*
//!   measurements, the acks are liveness signals only.

use crate::message::Message;
use crate::network::Endpoint;

/// Declarative fault plan for one round.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Machines whose `Bid` messages are lost in transit — every attempt,
    /// so under a retrying runtime these machines exhaust their retries and
    /// are excluded.
    pub lose_bids_from: Vec<u32>,
    /// Machines whose `ExecutionDone` acknowledgements are lost.
    pub lose_acks_from: Vec<u32>,
    /// Machines that never receive any coordinator message (full partition).
    pub partitioned: Vec<u32>,
    /// `(machine, k)` pairs: only the machine's first `k` bid transmissions
    /// are lost. Without retries any `k >= 1` behaves like
    /// `lose_bids_from`; with them a retransmission gets through once `k`
    /// attempts have failed, demonstrating retry-then-include.
    pub lose_bid_attempts: Vec<(u32, u32)>,
}

impl FaultPlan {
    /// A plan with no faults (a round then matches the reliable one).
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether the plan names no fault at all.
    pub(crate) fn is_empty(&self) -> bool {
        self.lose_bids_from.is_empty()
            && self.lose_acks_from.is_empty()
            && self.partitioned.is_empty()
            && self.lose_bid_attempts.is_empty()
    }

    fn drops(&self, from: Endpoint, to: Endpoint, message: &Message) -> bool {
        match (from, to, message) {
            (Endpoint::Node(i), _, Message::Bid { .. }) if self.lose_bids_from.contains(&i) => true,
            (Endpoint::Node(i), _, Message::ExecutionDone { .. })
                if self.lose_acks_from.contains(&i) =>
            {
                true
            }
            (_, Endpoint::Node(i), _) if self.partitioned.contains(&i) => true,
            (Endpoint::Node(i), _, _) if self.partitioned.contains(&i) => true,
            _ => false,
        }
    }

    /// Like `drops`, additionally counting bid transmissions per machine in
    /// `bid_attempts` so `lose_bid_attempts` can lose only the first `k`.
    pub(crate) fn drops_counted(
        &self,
        from: Endpoint,
        to: Endpoint,
        message: &Message,
        bid_attempts: &mut [u32],
    ) -> bool {
        if let (Endpoint::Node(i), Message::Bid { .. }) = (from, message) {
            let attempt = match bid_attempts.get_mut(i as usize) {
                Some(count) => {
                    *count += 1;
                    *count
                }
                None => 1,
            };
            if self
                .lose_bid_attempts
                .iter()
                .any(|&(m, k)| m == i && attempt <= k)
            {
                return true;
            }
        }
        self.drops(from, to, message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosConfig;
    use crate::coordinator::ProtocolError;
    use crate::node::NodeSpec;
    use crate::runtime::{run_round, ProtocolConfig, ProtocolOutcome, RoundSpec, Transport};
    use lb_core::scenario::{paper_true_values, PAPER_ARRIVAL_RATE};
    use lb_mechanism::{run_mechanism, CompensationBonusMechanism, MechanismError, Profile};
    use lb_sim::driver::SimulationConfig;
    use lb_sim::server::ServiceModel;

    fn config() -> ProtocolConfig {
        ProtocolConfig {
            total_rate: PAPER_ARRIVAL_RATE,
            link_latency: 0.001,
            simulation: SimulationConfig {
                horizon: 300.0,
                seed: 3,
                model: ServiceModel::StationaryDeterministic,
                workload: Default::default(),
                warmup: 0.0,
                estimator: lb_sim::estimator::EstimatorConfig::default(),
            },
        }
    }

    fn truthful_specs() -> Vec<NodeSpec> {
        paper_true_values()
            .iter()
            .map(|&t| NodeSpec::truthful(t))
            .collect()
    }

    /// One round under `plan`, excluding on first loss.
    fn run(specs: &[NodeSpec], plan: FaultPlan) -> Result<ProtocolOutcome, ProtocolError> {
        let mech = CompensationBonusMechanism::paper();
        let chaos = ChaosConfig {
            plan,
            bid_retries: 0,
            ..ChaosConfig::reliable(config().simulation.seed)
        };
        let spec = RoundSpec {
            transport: Transport::Chaos(chaos),
            ..RoundSpec::new(&mech, specs, config())
        };
        run_round(&spec).map(|report| report.outcome)
    }

    fn reliable(specs: &[NodeSpec]) -> ProtocolOutcome {
        let mech = CompensationBonusMechanism::paper();
        run_round(&RoundSpec::new(&mech, specs, config()))
            .unwrap()
            .outcome
    }

    #[test]
    fn lost_bid_excludes_the_machine_and_round_completes() {
        let mech = CompensationBonusMechanism::paper();
        let faults = FaultPlan {
            lose_bids_from: vec![0],
            ..FaultPlan::none()
        };
        let outcome = run(&truthful_specs(), faults).unwrap();

        assert_eq!(outcome.rates[0], 0.0);
        assert_eq!(outcome.payments[0], 0.0);
        assert_eq!(outcome.utilities[0], 0.0);

        // The surviving machines are settled exactly as the 15-machine
        // system C2..C16 (the L_{-C1} world).
        let trues = paper_true_values();
        let sub_sys = lb_core::System::from_true_values(&trues[1..]).unwrap();
        let sub = run_mechanism(
            &mech,
            &Profile::truthful(&sub_sys, PAPER_ARRIVAL_RATE).unwrap(),
        )
        .unwrap();
        for j in 1..16 {
            assert!(
                (outcome.payments[j] - sub.payments[j - 1]).abs() < 1e-6,
                "machine {j}: {} vs {}",
                outcome.payments[j],
                sub.payments[j - 1]
            );
        }
    }

    #[test]
    fn lost_ack_does_not_change_payments() {
        let specs = truthful_specs();
        let clean = reliable(&specs);
        let faults = FaultPlan {
            lose_acks_from: vec![3, 7],
            ..FaultPlan::none()
        };
        let outcome = run(&specs, faults).unwrap();
        for i in 0..16 {
            assert!(
                (clean.payments[i] - outcome.payments[i]).abs() < 1e-9,
                "payment {i}"
            );
        }
    }

    #[test]
    fn partitioned_machine_is_fully_excluded() {
        let faults = FaultPlan {
            partitioned: vec![5],
            ..FaultPlan::none()
        };
        let outcome = run(&truthful_specs(), faults).unwrap();
        assert_eq!(outcome.rates[5], 0.0);
        assert_eq!(outcome.payments[5], 0.0);
        // Load conservation still holds over the survivors.
        let total: f64 = outcome.rates.iter().sum();
        assert!((total - PAPER_ARRIVAL_RATE).abs() < 1e-9);
    }

    #[test]
    fn too_many_lost_bids_is_a_clean_error() {
        let specs: Vec<NodeSpec> = vec![NodeSpec::truthful(1.0), NodeSpec::truthful(2.0)];
        let faults = FaultPlan {
            lose_bids_from: vec![0],
            ..FaultPlan::none()
        };
        assert!(matches!(
            run(&specs, faults),
            Err(ProtocolError::Mechanism(MechanismError::NeedTwoAgents))
        ));
    }

    #[test]
    fn first_attempt_loss_excludes_without_retransmission() {
        // Without retries, losing just the first bid attempt is as fatal as
        // losing them all.
        let faults = FaultPlan {
            lose_bid_attempts: vec![(0, 1)],
            ..FaultPlan::none()
        };
        let outcome = run(&truthful_specs(), faults).unwrap();
        assert_eq!(outcome.rates[0], 0.0);
        assert_eq!(outcome.payments[0], 0.0);
    }

    #[test]
    fn lazy_machine_is_still_penalized_under_faults() {
        // A lossy network must not launder a lazy machine's behaviour.
        let mut specs = truthful_specs();
        specs[1] = NodeSpec::strategic(1.0, 1.0, 2.0);
        let faults = FaultPlan {
            lose_acks_from: vec![1],
            ..FaultPlan::none()
        };
        let outcome = run(&specs, faults).unwrap();

        let honest = reliable(&truthful_specs());
        assert!(outcome.payments[1] < honest.payments[1] - 1e-6);
    }
}
