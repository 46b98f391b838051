//! Agents that know nothing about the mechanism learn to be truthful from
//! utility feedback alone — ε-greedy bandits over a strategy menu, plugged
//! into the *real* protocol through multi-round sessions.
//!
//! ```text
//! cargo run --example adaptive_learning
//! ```

use lbmv::agents::adaptive::EpsilonGreedyAgent;
use lbmv::agents::game::consistent_strategy_menu;
use lbmv::mechanism::CompensationBonusMechanism;
use lbmv::proto::{
    run_chaos_session, ChaosConfig, ChaosRoundResult, ChaosSessionConfig, NodeSpec, Observers,
    ProtocolConfig,
};
use lbmv::sim::driver::SimulationConfig;
use lbmv::sim::server::ServiceModel;
use lbmv::stats::Xoshiro256StarStar;
use std::cell::RefCell;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trues = [1.0, 2.0, 5.0, 10.0];
    let menu = consistent_strategy_menu();
    let mechanism = CompensationBonusMechanism::paper();

    let base = Xoshiro256StarStar::seed_from_u64(99);
    let learners: RefCell<Vec<EpsilonGreedyAgent>> = RefCell::new(
        (0..trues.len())
            .map(|i| EpsilonGreedyAgent::new(menu.clone(), 0.1, base.stream(i as u64)))
            .collect(),
    );
    let arms: RefCell<Vec<usize>> = RefCell::new(vec![0; trues.len()]);

    let config = ProtocolConfig {
        total_rate: 10.0,
        link_latency: 0.0005,
        simulation: SimulationConfig {
            horizon: 150.0,
            seed: 5,
            model: ServiceModel::StationaryDeterministic,
            workload: Default::default(),
            warmup: 0.0,
            estimator: Default::default(),
        },
    };

    // Every machine bids over a reliable network, so no round can abort.
    let session = ChaosSessionConfig::new(600, ChaosConfig::reliable(config.simulation.seed));
    let report = run_chaos_session(
        &mechanism,
        &config,
        &session,
        |_, prev| {
            let mut learners = learners.borrow_mut();
            let mut arms = arms.borrow_mut();
            // Feed back the previous round's utilities.
            if let Some(outcome) = prev.map(|r| &r.outcome) {
                for (i, learner) in learners.iter_mut().enumerate() {
                    learner.observe(arms[i], outcome.utilities[i]);
                }
            }
            // Choose this round's strategies.
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
    )?;

    println!(
        "{} protocol rounds, {} control messages total",
        report.rounds.len(),
        report.total_messages
    );
    let learners = learners.borrow();
    for (i, learner) in learners.iter().enumerate() {
        let pulls = learner.pulls();
        let total: u64 = pulls.iter().sum();
        println!(
            "machine {i}: best arm = {:12} | truthful-arm share {:.0}% | mean utility on best arm {:+.3}",
            menu[learner.best_arm()].name,
            100.0 * pulls[0] as f64 / total as f64,
            learner.mean_utility(learner.best_arm()),
        );
    }
    let utility: f64 = report
        .rounds
        .iter()
        .filter_map(ChaosRoundResult::settled)
        .map(|r| r.outcome.utilities[0])
        .sum();
    println!("\ncumulative utility of machine 0 over the session: {utility:+.1}");
    println!(
        "(every learner's best arm should be `truthful` — Theorem 3.1, discovered empirically)"
    );
    Ok(())
}
