//! Integration tests for the beyond-paper extensions: learning agents over
//! real protocol sessions, fault tolerance, payment auditing and the
//! generalized M/M/1 mechanism.

use lbmv::agents::adaptive::EpsilonGreedyAgent;
use lbmv::agents::game::consistent_strategy_menu;
use lbmv::core::scenario::{paper_true_values, PAPER_ARRIVAL_RATE};
use lbmv::mechanism::{
    run_mechanism, CompensationBonusMechanism, GeneralizedCompensationBonus, LinearFamily,
    Mm1Family, Profile,
};
use lbmv::proto::audit::{audit_settlement, SettlementRecord};
use lbmv::proto::faults::FaultPlan;
use lbmv::proto::{
    run_chaos_session, run_round, ChaosConfig, ChaosSessionConfig, NodeSpec, Observers,
    ProtocolConfig, ProtocolOutcome, RoundSpec, Transport,
};
use lbmv::sim::driver::SimulationConfig;
use lbmv::sim::server::ServiceModel;
use lbmv::stats::Xoshiro256StarStar;
use std::cell::RefCell;

fn config() -> ProtocolConfig {
    ProtocolConfig {
        total_rate: PAPER_ARRIVAL_RATE,
        link_latency: 0.001,
        simulation: SimulationConfig {
            horizon: 150.0,
            seed: 31,
            model: ServiceModel::StationaryDeterministic,
            workload: Default::default(),
            warmup: 0.0,
            estimator: Default::default(),
        },
    }
}

#[test]
fn learners_converge_to_truth_through_the_real_protocol() {
    let trues = [1.0, 2.0, 5.0, 10.0];
    let menu = consistent_strategy_menu();
    let mechanism = CompensationBonusMechanism::paper();
    let base = Xoshiro256StarStar::seed_from_u64(123);
    let learners: RefCell<Vec<EpsilonGreedyAgent>> = RefCell::new(
        (0..trues.len())
            .map(|i| EpsilonGreedyAgent::new(menu.clone(), 0.1, base.stream(i as u64)))
            .collect(),
    );
    let arms: RefCell<Vec<usize>> = RefCell::new(vec![0; trues.len()]);

    let mut cfg = config();
    cfg.total_rate = 10.0;
    cfg.simulation.horizon = 60.0;
    let session = ChaosSessionConfig::new(1500, ChaosConfig::reliable(cfg.simulation.seed));
    let _report = run_chaos_session(
        &mechanism,
        &cfg,
        &session,
        |_, prev| {
            let mut learners = learners.borrow_mut();
            let mut arms = arms.borrow_mut();
            if let Some(outcome) = prev.map(|r| &r.outcome) {
                for (i, learner) in learners.iter_mut().enumerate() {
                    learner.observe(arms[i], outcome.utilities[i]);
                }
            }
            trues
                .iter()
                .enumerate()
                .map(|(i, &t)| {
                    let arm = learners[i].choose();
                    arms[i] = arm;
                    let s = menu[arm];
                    NodeSpec::strategic(t, t * s.bid_factor, t * s.exec_factor.max(1.0))
                })
                .collect()
        },
        &Observers::default(),
        None,
    )
    .unwrap();

    for (i, learner) in learners.borrow().iter().enumerate() {
        assert_eq!(
            learner.best_arm(),
            0,
            "machine {i} did not learn truthfulness"
        );
    }
}

/// One round under a declarative fault plan: a lost bid excludes at the
/// first timeout, with no retransmission.
fn fault_round(
    mechanism: &CompensationBonusMechanism,
    specs: &[NodeSpec],
    faults: FaultPlan,
) -> ProtocolOutcome {
    let chaos = ChaosConfig {
        plan: faults,
        bid_retries: 0,
        ..ChaosConfig::reliable(config().simulation.seed)
    };
    let spec = RoundSpec {
        transport: Transport::Chaos(chaos),
        ..RoundSpec::new(mechanism, specs, config())
    };
    run_round(&spec).unwrap().outcome
}

#[test]
fn fault_then_audit_pipeline() {
    // Round with faults, then the settlement audit passes end-to-end.
    let mechanism = CompensationBonusMechanism::paper();
    let specs: Vec<NodeSpec> = paper_true_values()
        .iter()
        .map(|&t| NodeSpec::truthful(t))
        .collect();
    let faults = FaultPlan {
        lose_acks_from: vec![2],
        ..FaultPlan::none()
    };
    let outcome = fault_round(&mechanism, &specs, faults);

    let record = SettlementRecord {
        bids: specs.iter().map(|s| s.bid).collect(),
        estimated_exec_values: outcome.estimated_exec_values.clone(),
        total_rate: PAPER_ARRIVAL_RATE,
        claimed_payments: outcome.payments.clone(),
    };
    let report = audit_settlement(&mechanism, &record, 1e-9).unwrap();
    assert!(report.all_verified());
}

#[test]
fn excluded_machine_bonus_identity() {
    // The fault path's economics: excluding machine i leaves the others
    // paid exactly as in the (n-1)-machine system, whose latency is the
    // L_{-i} the bonus formula uses — the two code paths must agree.
    let mechanism = CompensationBonusMechanism::paper();
    let trues = paper_true_values();
    let specs: Vec<NodeSpec> = trues.iter().map(|&t| NodeSpec::truthful(t)).collect();
    let faults = FaultPlan {
        lose_bids_from: vec![0],
        ..FaultPlan::none()
    };
    let outcome = fault_round(&mechanism, &specs, faults);

    let survivors = lbmv::core::System::from_true_values(&trues[1..]).unwrap();
    let direct = run_mechanism(
        &mechanism,
        &Profile::truthful(&survivors, PAPER_ARRIVAL_RATE).unwrap(),
    )
    .unwrap();
    let realised: f64 = outcome
        .rates
        .iter()
        .zip(&outcome.estimated_exec_values)
        .map(|(&x, &e)| e * x * x)
        .sum();
    assert!((realised - direct.total_latency).abs() < 1e-6);
    // And that latency is exactly L_{-C1} of the full system.
    let l_minus_1 =
        lbmv::core::allocation::optimal_latency_excluding(&trues, 0, PAPER_ARRIVAL_RATE).unwrap();
    assert!((realised - l_minus_1).abs() < 1e-6);
}

#[test]
fn generalized_linear_equals_paper_mechanism_end_to_end() {
    let gen = GeneralizedCompensationBonus::new(LinearFamily);
    let cb = CompensationBonusMechanism::paper();
    let sys = lbmv::core::scenario::paper_system();
    for (bf, ef) in [(1.0, 1.0), (0.5, 2.0)] {
        let profile = Profile::with_deviation(&sys, PAPER_ARRIVAL_RATE, 0, bf, ef).unwrap();
        let a = run_mechanism(&gen, &profile).unwrap();
        let b = run_mechanism(&cb, &profile).unwrap();
        for i in 0..16 {
            assert!((a.utilities[i] - b.utilities[i]).abs() < 1e-5 * b.utilities[i].abs().max(1.0));
        }
    }
}

#[test]
fn mm1_mechanism_keeps_voluntary_participation() {
    let gen = GeneralizedCompensationBonus::new(Mm1Family);
    // Capacities mu = [8, 5, 4, 3]; leave-one-out minimum is 12 > rate.
    let sys = lbmv::core::System::from_true_values(&[0.125, 0.2, 0.25, 1.0 / 3.0]).unwrap();
    let profile = Profile::truthful(&sys, 8.0).unwrap();
    let out = run_mechanism(&gen, &profile).unwrap();
    for (i, u) in out.utilities.iter().enumerate() {
        assert!(*u >= -1e-9, "agent {i} lost: {u}");
    }
}
