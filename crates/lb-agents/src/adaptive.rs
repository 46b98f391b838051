//! Adaptive agents: learning to be truthful from payoff feedback alone.
//!
//! The paper's incentive argument assumes rational agents that *compute*
//! their dominant strategy. A more demanding (and realistic) test: agents
//! that know nothing about the mechanism and just run ε-greedy bandits over
//! a menu of (bid factor, execution factor) arms, observing only their own
//! realised utility each round. Under a truthful mechanism the truthful arm
//! has the highest mean payoff *whatever the others do*, so every learner's
//! arm-choice frequency should concentrate on it — demonstrated by the
//! tests and the `repeated_play` simulation.

use crate::game::StrategyOption;
use lb_mechanism::{run_mechanism, MechanismError, Profile, VerifiedMechanism};
use lb_stats::online::OnlineStats;
use lb_stats::rng::{Rng, Xoshiro256StarStar};

/// An ε-greedy bandit over a strategy menu.
#[derive(Debug, Clone)]
pub struct EpsilonGreedyAgent {
    /// Strategy arms.
    pub menu: Vec<StrategyOption>,
    epsilon: f64,
    arm_stats: Vec<OnlineStats>,
    pulls: Vec<u64>,
    rng: Xoshiro256StarStar,
}

impl EpsilonGreedyAgent {
    /// Creates a learner with exploration rate `epsilon` in `[0, 1]`.
    ///
    /// # Panics
    /// Panics if the menu is empty or `epsilon` is out of range.
    #[must_use]
    pub fn new(menu: Vec<StrategyOption>, epsilon: f64, rng: Xoshiro256StarStar) -> Self {
        assert!(!menu.is_empty(), "EpsilonGreedyAgent: empty menu");
        assert!(
            (0.0..=1.0).contains(&epsilon),
            "EpsilonGreedyAgent: epsilon out of range"
        );
        let k = menu.len();
        Self {
            menu,
            epsilon,
            arm_stats: vec![OnlineStats::new(); k],
            pulls: vec![0; k],
            rng,
        }
    }

    /// Picks the next arm (explore with probability ε, else exploit; unplayed
    /// arms are tried first).
    pub fn choose(&mut self) -> usize {
        if let Some(unplayed) = self.pulls.iter().position(|&p| p == 0) {
            return unplayed;
        }
        if self.rng.next_bool(self.epsilon) {
            self.rng.next_below(self.menu.len() as u64) as usize
        } else {
            self.best_arm()
        }
    }

    /// Feeds the observed utility for arm `arm`.
    ///
    /// # Panics
    /// Panics if `arm` is out of range.
    pub fn observe(&mut self, arm: usize, utility: f64) {
        self.arm_stats[arm].push(utility);
        self.pulls[arm] += 1;
    }

    /// The arm with the best empirical mean (ties to the lower index).
    #[must_use]
    pub fn best_arm(&self) -> usize {
        let mut best = 0;
        for i in 1..self.menu.len() {
            if self.arm_stats[i].mean() > self.arm_stats[best].mean() {
                best = i;
            }
        }
        best
    }

    /// Number of times each arm was played.
    #[must_use]
    pub fn pulls(&self) -> &[u64] {
        &self.pulls
    }

    /// Empirical mean utility of an arm.
    ///
    /// # Panics
    /// Panics if `arm` is out of range.
    #[must_use]
    pub fn mean_utility(&self, arm: usize) -> f64 {
        self.arm_stats[arm].mean()
    }
}

/// Outcome of a repeated-play simulation.
#[derive(Debug, Clone)]
pub struct RepeatedPlayReport {
    /// Final best arm per agent.
    pub best_arms: Vec<usize>,
    /// Pull counts per agent per arm.
    pub pulls: Vec<Vec<u64>>,
    /// Mean realised total latency over the last quarter of the rounds.
    pub late_mean_latency: f64,
    /// Agent 0's cumulative regret trace: after each round, the gap between
    /// the truthful-arm counterfactual (against the *same* opponent play)
    /// and the utility actually earned, summed over rounds. For a truthful
    /// mechanism the per-round regret is non-negative and vanishes as the
    /// learner locks onto the truthful arm, so this trace is sublinear.
    pub cumulative_regret: Vec<f64>,
}

/// Simulates `rounds` of repeated play: every agent is an independent
/// ε-greedy learner over `menu`; each round they pick arms, the mechanism
/// runs, and they observe only their own utility.
///
/// # Errors
/// Propagates mechanism errors.
///
/// # Panics
/// Panics if `rounds == 0` or the system is empty.
pub fn repeated_play<M: VerifiedMechanism + ?Sized>(
    mechanism: &M,
    true_values: &[f64],
    total_rate: f64,
    menu: &[StrategyOption],
    rounds: u32,
    epsilon: f64,
    seed: u64,
) -> Result<RepeatedPlayReport, MechanismError> {
    assert!(rounds > 0, "repeated_play: need at least one round");
    let n = true_values.len();
    let base = Xoshiro256StarStar::seed_from_u64(seed);
    let mut agents: Vec<EpsilonGreedyAgent> = (0..n)
        .map(|i| EpsilonGreedyAgent::new(menu.to_vec(), epsilon, base.stream(i as u64)))
        .collect();

    let mut late_latency = OnlineStats::new();
    let late_start = rounds - rounds / 4;
    let mut cumulative_regret = Vec::with_capacity(rounds as usize);
    let mut regret_acc = 0.0;
    for round in 0..rounds {
        let arms: Vec<usize> = agents.iter_mut().map(EpsilonGreedyAgent::choose).collect();
        let bids: Vec<f64> = arms
            .iter()
            .zip(true_values)
            .map(|(&a, &t)| t * menu[a].bid_factor)
            .collect();
        let exec: Vec<f64> = arms
            .iter()
            .zip(true_values)
            .map(|(&a, &t)| t * menu[a].exec_factor.max(1.0))
            .collect();
        let profile = Profile::new(true_values.to_vec(), bids, exec, total_rate)?;
        let outcome = run_mechanism(mechanism, &profile)?;

        // Counterfactual for agent 0: the truthful arm against the same
        // opponent play this round.
        let counterfactual = {
            let profile = profile.replace_agent(0, true_values[0], true_values[0])?;
            run_mechanism(mechanism, &profile)?.utilities[0]
        };
        regret_acc += counterfactual - outcome.utilities[0];
        cumulative_regret.push(regret_acc);

        for (i, agent) in agents.iter_mut().enumerate() {
            agent.observe(arms[i], outcome.utilities[i]);
        }
        if round >= late_start {
            late_latency.push(outcome.total_latency);
        }
    }

    Ok(RepeatedPlayReport {
        best_arms: agents.iter().map(EpsilonGreedyAgent::best_arm).collect(),
        pulls: agents.iter().map(|a| a.pulls().to_vec()).collect(),
        late_mean_latency: late_latency.mean(),
        cumulative_regret,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::consistent_strategy_menu;
    use lb_core::optimal_latency_linear;
    use lb_mechanism::CompensationBonusMechanism;

    /// Average per-round regret of agent 0 over the final quarter of play.
    fn late_average_regret(report: &RepeatedPlayReport) -> f64 {
        let n = report.cumulative_regret.len();
        assert!(n >= 4, "late_average_regret: too few rounds");
        let late = n / 4;
        let span = &report.cumulative_regret[n - late - 1..];
        (span[span.len() - 1] - span[0]) / late as f64
    }

    #[test]
    fn learners_discover_truthfulness() {
        let trues = [1.0, 2.0, 5.0, 10.0];
        let mech = CompensationBonusMechanism::paper();
        let report = repeated_play(
            &mech,
            &trues,
            10.0,
            &consistent_strategy_menu(),
            3_000,
            0.1,
            42,
        )
        .unwrap();
        // Arm 0 is "truthful" in the consistent menu.
        for (i, &arm) in report.best_arms.iter().enumerate() {
            assert_eq!(arm, 0, "agent {i} learned arm {arm}");
        }
        // Exploitation concentrates on the truthful arm.
        for pulls in &report.pulls {
            let total: u64 = pulls.iter().sum();
            assert!(
                pulls[0] as f64 / total as f64 > 0.6,
                "truthful arm underplayed: {pulls:?}"
            );
        }
        // The realised latency approaches the optimum as everyone learns.
        let optimal = optimal_latency_linear(&trues, 10.0).unwrap();
        assert!(
            report.late_mean_latency < 1.25 * optimal,
            "late latency {} vs optimal {optimal}",
            report.late_mean_latency
        );
    }

    #[test]
    fn regret_is_nonnegative_and_flattens() {
        let trues = [1.0, 2.0, 5.0, 10.0];
        let mech = CompensationBonusMechanism::paper();
        let report = repeated_play(
            &mech,
            &trues,
            10.0,
            &consistent_strategy_menu(),
            2_000,
            0.1,
            5,
        )
        .unwrap();
        let regret = &report.cumulative_regret;
        // Per-round regret against the truthful counterfactual is always
        // >= 0 for a truthful mechanism: the cumulative trace is monotone.
        for w in regret.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-9,
                "regret decreased: {} -> {}",
                w[0],
                w[1]
            );
        }
        // Sublinearity in practice: late per-round regret far below early.
        let early = regret[regret.len() / 10] / (regret.len() / 10) as f64;
        let late = late_average_regret(&report);
        assert!(late < 0.5 * early, "late {late} vs early {early}");
    }

    #[test]
    fn bandit_mechanics() {
        let menu = consistent_strategy_menu();
        let mut agent =
            EpsilonGreedyAgent::new(menu.clone(), 0.0, Xoshiro256StarStar::seed_from_u64(1));
        // Unplayed arms first, in order.
        for expected in 0..menu.len() {
            let arm = agent.choose();
            assert_eq!(arm, expected);
            agent.observe(arm, if expected == 2 { 10.0 } else { 1.0 });
        }
        // With epsilon 0 it now exploits the best arm (2).
        assert_eq!(agent.choose(), 2);
        assert_eq!(agent.best_arm(), 2);
        assert_eq!(agent.pulls(), &[1, 1, 1, 1]);
        assert!((agent.mean_utility(2) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn exploration_rate_is_respected() {
        let menu = consistent_strategy_menu();
        let mut agent =
            EpsilonGreedyAgent::new(menu.clone(), 1.0, Xoshiro256StarStar::seed_from_u64(2));
        for i in 0..menu.len() {
            let a = agent.choose();
            agent.observe(a, i as f64);
        }
        // epsilon = 1: pure exploration, all arms keep being played.
        let mut seen = vec![false; menu.len()];
        for _ in 0..200 {
            let a = agent.choose();
            agent.observe(a, 0.0);
            seen[a] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "empty menu")]
    fn empty_menu_panics() {
        let _ = EpsilonGreedyAgent::new(vec![], 0.1, Xoshiro256StarStar::seed_from_u64(0));
    }
}
