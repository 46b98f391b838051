//! Cross-crate pipeline consistency: analytic mechanism ⇔ discrete-event
//! simulation ⇔ protocol runtimes must all tell the same story.

use lbmv::core::scenario::{paper_system, paper_true_values, PAPER_ARRIVAL_RATE};
use lbmv::mechanism::{run_mechanism, CompensationBonusMechanism, Profile};
use lbmv::proto::{
    expected_sharded_message_count, run_round, NodeSpec, ProtocolConfig, RoundSpec, Transport,
};
use lbmv::sim::driver::{verified_round, SimulationConfig};
use lbmv::sim::estimator::EstimatorConfig;
use lbmv::sim::server::ServiceModel;

fn det_sim(horizon: f64, seed: u64) -> SimulationConfig {
    SimulationConfig {
        horizon,
        seed,
        model: ServiceModel::StationaryDeterministic,
        workload: Default::default(),
        warmup: 0.0,
        estimator: EstimatorConfig::default(),
    }
}

#[test]
fn analytic_and_simulated_payments_agree_in_deterministic_mode() {
    let sys = paper_system();
    let mech = CompensationBonusMechanism::paper();
    for (bid_f, exec_f) in [(1.0, 1.0), (3.0, 3.0), (0.5, 2.0), (1.0, 2.0)] {
        let profile = Profile::with_deviation(&sys, PAPER_ARRIVAL_RATE, 0, bid_f, exec_f).unwrap();
        let analytic = run_mechanism(&mech, &profile).unwrap();
        let simulated = verified_round(&mech, &profile, &det_sim(400.0, 1)).unwrap();
        for i in 0..16 {
            assert!(
                (analytic.payments[i] - simulated.outcome.payments[i]).abs() < 1e-6,
                "payment {i} for ({bid_f},{exec_f})"
            );
        }
    }
}

#[test]
fn stochastic_simulation_converges_to_analytic_with_horizon() {
    let sys = paper_system();
    let mech = CompensationBonusMechanism::paper();
    let profile = Profile::truthful(&sys, PAPER_ARRIVAL_RATE).unwrap();
    let analytic = run_mechanism(&mech, &profile).unwrap();

    let mut errors = Vec::new();
    for horizon in [200.0, 2_000.0, 20_000.0] {
        let cfg = SimulationConfig {
            horizon,
            seed: 17,
            model: ServiceModel::StationaryExponential,
            workload: Default::default(),
            warmup: 0.0,
            estimator: EstimatorConfig::default(),
        };
        let round = verified_round(&mech, &profile, &cfg).unwrap();
        let err = (round.report.estimated_total_latency - analytic.total_latency).abs();
        errors.push(err);
    }
    // Error shrinks with horizon (allow one inversion from noise between the
    // first two, but the longest horizon must beat the shortest).
    assert!(errors[2] < errors[0], "errors did not shrink: {errors:?}");
    assert!(
        errors[2] / analytic.total_latency < 0.02,
        "final rel error {}",
        errors[2]
    );
}

#[test]
fn protocol_and_direct_mechanism_agree() {
    let mech = CompensationBonusMechanism::paper();
    let trues = paper_true_values();
    let mut specs: Vec<NodeSpec> = trues.iter().map(|&t| NodeSpec::truthful(t)).collect();
    specs[0] = NodeSpec::strategic(1.0, 0.5, 2.0); // Low2

    let config = ProtocolConfig {
        total_rate: PAPER_ARRIVAL_RATE,
        link_latency: 0.001,
        simulation: det_sim(400.0, 5),
    };
    let proto = run_round(&RoundSpec::new(&mech, &specs, config))
        .map(|r| r.outcome)
        .unwrap();

    let sys = paper_system();
    let profile = Profile::with_deviation(&sys, PAPER_ARRIVAL_RATE, 0, 0.5, 2.0).unwrap();
    let direct = run_mechanism(&mech, &profile).unwrap();

    for i in 0..16 {
        assert!(
            (proto.payments[i] - direct.payments[i]).abs() < 1e-6,
            "payment {i}"
        );
        assert!(
            (proto.utilities[i] - direct.utilities[i]).abs() < 1e-6,
            "utility {i}"
        );
    }
    // Low2's fine survives the full protocol path.
    assert!(proto.payments[0] < 0.0);
}

/// The concurrent transport (the sharded topology, its machines on worker
/// threads) pays exactly what the deterministic simulated network pays.
#[test]
fn threaded_and_deterministic_protocols_agree_across_scenarios() {
    let mech = CompensationBonusMechanism::paper();
    let trues = paper_true_values();
    for (bid_f, exec_f) in [(1.0, 1.0), (3.0, 1.0), (0.5, 2.0_f64)] {
        let mut specs: Vec<NodeSpec> = trues.iter().map(|&t| NodeSpec::truthful(t)).collect();
        specs[0] = NodeSpec::strategic(1.0, bid_f, exec_f.max(1.0));
        let config = ProtocolConfig {
            total_rate: PAPER_ARRIVAL_RATE,
            link_latency: 0.001,
            simulation: det_sim(400.0, 5),
        };
        let st = run_round(&RoundSpec::new(&mech, &specs, config))
            .map(|r| r.outcome)
            .unwrap();
        let mt = run_round(&RoundSpec {
            transport: Transport::Sharded {
                shards: 3,
                profiler: None,
            },
            ..RoundSpec::new(&mech, &specs, config)
        })
        .map(|r| r.outcome)
        .unwrap();
        assert_eq!(
            mt.stats.messages,
            expected_sharded_message_count(specs.len(), 3),
            "traffic for ({bid_f},{exec_f})"
        );
        assert_eq!(st.payments, mt.payments, "payments for ({bid_f},{exec_f})");
    }
}

#[test]
fn message_complexity_is_exactly_linear() {
    let mech = CompensationBonusMechanism::paper();
    let mut per_node = Vec::new();
    for n in [4usize, 16, 64] {
        let specs: Vec<NodeSpec> = (0..n).map(|i| NodeSpec::truthful(1.0 + i as f64)).collect();
        let config = ProtocolConfig {
            total_rate: 10.0,
            link_latency: 0.001,
            simulation: det_sim(50.0, 9),
        };
        let out = run_round(&RoundSpec::new(&mech, &specs, config))
            .map(|r| r.outcome)
            .unwrap();
        per_node.push(out.stats.messages as f64 / n as f64);
    }
    // O(n): per-node message count is a constant.
    assert!((per_node[0] - per_node[1]).abs() < 1e-12);
    assert!((per_node[1] - per_node[2]).abs() < 1e-12);
}

#[test]
fn estimator_noise_perturbs_payments_boundedly() {
    let sys = paper_system();
    let mech = CompensationBonusMechanism::paper();
    let profile = Profile::truthful(&sys, PAPER_ARRIVAL_RATE).unwrap();
    let noisy = SimulationConfig {
        horizon: 5_000.0,
        seed: 23,
        model: ServiceModel::StationaryExponential,
        workload: Default::default(),
        warmup: 0.0,
        estimator: EstimatorConfig {
            max_samples: None,
            noise_cv: 0.2,
        },
    };
    let round = verified_round(&mech, &profile, &noisy).unwrap();
    // With thousands of samples, even 20% per-observation noise keeps the
    // payment error small relative to payment magnitudes (~20+).
    assert!(
        round.max_payment_error() < 2.0,
        "error {}",
        round.max_payment_error()
    );
}
