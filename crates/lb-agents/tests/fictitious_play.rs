//! Fictitious play over a discrete strategy menu.
//!
//! A second learning dynamic besides the ε-greedy bandit: each agent tracks
//! the *empirical frequencies* of every opponent's past strategies and plays
//! a best response to that belief (expected utility under independent
//! opponent mixing, computed exactly from the [`EmpiricalGame`] payoff
//! table). For a mechanism whose truthful strategy is dominant within the
//! menu, truth is a best response to *every* belief, so fictitious play
//! locks onto it immediately and never leaves — a stronger convergence
//! statement than the bandit's stochastic one. These tests are the only
//! user of the dynamic, so it lives here with them.

use lb_agents::game::{consistent_strategy_menu, empirical_game, EmpiricalGame};
use lb_core::System;
use lb_mechanism::CompensationBonusMechanism;

/// State of one fictitious-play run.
#[derive(Debug, Clone)]
struct FictitiousPlay<'g> {
    game: &'g EmpiricalGame,
    /// `counts[agent][strategy]`: how often each agent has played each arm.
    counts: Vec<Vec<u64>>,
    /// Strategy each agent chose last round.
    last: Vec<usize>,
    rounds: u64,
}

impl<'g> FictitiousPlay<'g> {
    /// Starts fictitious play from an initial joint strategy profile.
    ///
    /// # Panics
    /// Panics if the profile arity or any index is out of range.
    #[must_use]
    fn new(game: &'g EmpiricalGame, initial: &[usize]) -> Self {
        assert_eq!(
            initial.len(),
            game.n,
            "FictitiousPlay: profile arity mismatch"
        );
        let k = game.menu.len();
        let mut counts = vec![vec![0u64; k]; game.n];
        for (agent, &s) in initial.iter().enumerate() {
            assert!(s < k, "FictitiousPlay: strategy index out of range");
            counts[agent][s] = 1;
        }
        Self {
            game,
            counts,
            last: initial.to_vec(),
            rounds: 1,
        }
    }

    /// Empirical mixed strategy of `agent` (its belief held by others).
    ///
    /// # Panics
    /// Panics if `agent` is out of range.
    #[must_use]
    fn belief(&self, agent: usize) -> Vec<f64> {
        let total: u64 = self.counts[agent].iter().sum();
        self.counts[agent]
            .iter()
            .map(|&c| c as f64 / total as f64)
            .collect()
    }

    /// Expected utility of `agent` playing `strategy` against the current
    /// beliefs about everyone else (exact expectation over the product of
    /// opponent mixtures).
    #[must_use]
    fn expected_utility(&self, agent: usize, strategy: usize) -> f64 {
        let k = self.game.menu.len();
        let n = self.game.n;
        // Enumerate opponent profiles with an odometer, weighting by belief
        // products. Cost k^(n-1) — fictitious play is for small panels.
        let beliefs: Vec<Vec<f64>> = (0..n).map(|a| self.belief(a)).collect();
        let mut profile = vec![0usize; n];
        profile[agent] = strategy;
        let mut expected = 0.0;
        loop {
            let mut weight = 1.0;
            for a in 0..n {
                if a != agent {
                    weight *= beliefs[a][profile[a]];
                }
            }
            if weight > 0.0 {
                let flat = profile.iter().rev().fold(0, |acc, &s| acc * k + s);
                expected += weight * self.game.payoffs[flat][agent];
            }
            // Advance the odometer over everyone but `agent`.
            let mut pos = 0;
            loop {
                if pos == n {
                    return expected;
                }
                if pos == agent {
                    pos += 1;
                    continue;
                }
                profile[pos] += 1;
                if profile[pos] < k {
                    break;
                }
                profile[pos] = 0;
                pos += 1;
            }
        }
    }

    /// Plays one simultaneous round: every agent best-responds to current
    /// beliefs (ties to the lowest index), then all beliefs update.
    fn step(&mut self) {
        let k = self.game.menu.len();
        let mut next = Vec::with_capacity(self.game.n);
        for agent in 0..self.game.n {
            let mut best = 0;
            let mut best_u = self.expected_utility(agent, 0);
            for s in 1..k {
                let u = self.expected_utility(agent, s);
                if u > best_u + 1e-12 {
                    best = s;
                    best_u = u;
                }
            }
            next.push(best);
        }
        for (agent, &s) in next.iter().enumerate() {
            self.counts[agent][s] += 1;
        }
        self.last = next;
        self.rounds += 1;
    }

    /// Strategies chosen in the latest round.
    #[must_use]
    fn current_profile(&self) -> &[usize] {
        &self.last
    }

    /// Rounds played (including the initial profile).
    #[must_use]
    fn rounds(&self) -> u64 {
        self.rounds
    }
}

fn game() -> EmpiricalGame {
    let sys = System::from_true_values(&[1.0, 2.0, 5.0]).unwrap();
    empirical_game(
        &CompensationBonusMechanism::paper(),
        &sys,
        10.0,
        &consistent_strategy_menu(),
    )
    .unwrap()
}

#[test]
fn converges_to_truth_from_any_pure_start() {
    let g = game();
    let k = g.menu.len();
    for start in 0..k {
        let mut fp = FictitiousPlay::new(&g, &[start, start, start]);
        for _ in 0..20 {
            fp.step();
        }
        assert_eq!(fp.current_profile(), &[0, 0, 0], "start {start}");
    }
}

#[test]
fn truth_is_best_response_to_every_sampled_belief() {
    // Dominance within the consistent menu: after arbitrary histories,
    // the truthful arm's expected utility tops every alternative.
    let g = game();
    let mut fp = FictitiousPlay::new(&g, &[3, 1, 2]);
    for _ in 0..5 {
        fp.step();
    }
    for agent in 0..3 {
        let truthful = fp.expected_utility(agent, 0);
        for s in 1..g.menu.len() {
            assert!(
                fp.expected_utility(agent, s) <= truthful + 1e-9,
                "agent {agent} prefers {s}"
            );
        }
    }
}

#[test]
fn beliefs_are_probability_vectors() {
    let g = game();
    let mut fp = FictitiousPlay::new(&g, &[1, 2, 3]);
    fp.step();
    fp.step();
    for agent in 0..3 {
        let b = fp.belief(agent);
        assert!((b.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(b.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }
    assert_eq!(fp.rounds(), 3);
}

#[test]
#[should_panic(expected = "profile arity mismatch")]
fn wrong_arity_panics() {
    let g = game();
    let _ = FictitiousPlay::new(&g, &[0, 0]);
}
