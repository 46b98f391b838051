//! Empirical normal-form game analysis.
//!
//! Discretise each agent's strategy space into a handful of named options
//! (truthful, over-bid, under-bid, lazy…), evaluate the mechanism on every
//! joint profile, and analyse the resulting finite game: per-agent dominant
//! strategies and pure Nash equilibria. For the paper's mechanism the
//! truthful option should be dominant for every agent and the all-truthful
//! profile a Nash equilibrium.

use lb_core::System;
use lb_mechanism::{run_mechanism, MechanismError, Profile, VerifiedMechanism};

/// A named pure strategy: multiplicative bid and execution factors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrategyOption {
    /// Display name.
    pub name: &'static str,
    /// Bid = `bid_factor × t`.
    pub bid_factor: f64,
    /// Execution = `max(exec_factor, 1) × t`.
    pub exec_factor: f64,
}

/// A menu of *consistent* strategies (execution equals bid, at or above
/// capacity) — the opponent class against which the paper's Theorem 3.1
/// proof is exact, and within which truth-telling is weakly dominant.
#[must_use]
pub fn consistent_strategy_menu() -> Vec<StrategyOption> {
    vec![
        StrategyOption {
            name: "truthful",
            bid_factor: 1.0,
            exec_factor: 1.0,
        },
        StrategyOption {
            name: "slow-1.5x",
            bid_factor: 1.5,
            exec_factor: 1.5,
        },
        StrategyOption {
            name: "slow-2x",
            bid_factor: 2.0,
            exec_factor: 2.0,
        },
        StrategyOption {
            name: "slow-3x",
            bid_factor: 3.0,
            exec_factor: 3.0,
        },
    ]
}

/// A fully evaluated finite game.
#[derive(Debug, Clone)]
pub struct EmpiricalGame {
    /// Strategy menu (same for every agent).
    pub menu: Vec<StrategyOption>,
    /// Number of agents.
    pub n: usize,
    /// `payoffs[flat][agent]` — utilities per joint profile, where profile
    /// `p` sits at `flat = Σ_a p[a]·|menu|^a`.
    pub payoffs: Vec<Vec<f64>>,
    /// Strides for flattening joint profiles.
    strides: Vec<usize>,
}

impl EmpiricalGame {
    /// Flat index of a joint profile.
    ///
    /// # Panics
    /// Panics if the profile length or any strategy index is out of range.
    #[must_use]
    fn index(&self, profile: &[usize]) -> usize {
        assert_eq!(profile.len(), self.n, "profile arity mismatch");
        profile
            .iter()
            .zip(&self.strides)
            .map(|(&s, &stride)| {
                assert!(s < self.menu.len(), "strategy index out of range");
                s * stride
            })
            .sum()
    }

    /// Utility of `agent` under a joint profile.
    #[must_use]
    fn payoff(&self, profile: &[usize], agent: usize) -> f64 {
        self.payoffs[self.index(profile)][agent]
    }

    /// Whether strategy `s` is weakly dominant for `agent` (best against
    /// every opponent profile, within `tol`).
    #[must_use]
    pub fn is_dominant(&self, agent: usize, s: usize, tol: f64) -> bool {
        let k = self.menu.len();
        let mut opponents = vec![0usize; self.n];
        loop {
            // For this opponent configuration, compare s against all
            // alternatives for `agent`.
            let mut profile = opponents.clone();
            profile[agent] = s;
            let base = self.payoff(&profile, agent);
            for alt in 0..k {
                profile[agent] = alt;
                if self.payoff(&profile, agent) > base + tol {
                    return false;
                }
            }
            // Advance opponents odometer (skipping `agent`'s digit).
            let mut pos = 0;
            loop {
                if pos == self.n {
                    return true;
                }
                if pos == agent {
                    pos += 1;
                    continue;
                }
                opponents[pos] += 1;
                if opponents[pos] < k {
                    break;
                }
                opponents[pos] = 0;
                pos += 1;
            }
        }
    }

    /// All pure Nash equilibria (as strategy-index profiles).
    #[must_use]
    pub fn pure_nash(&self, tol: f64) -> Vec<Vec<usize>> {
        let k = self.menu.len();
        let mut out = Vec::new();
        let mut profile = vec![0usize; self.n];
        loop {
            let mut is_nash = true;
            'agents: for agent in 0..self.n {
                let base = self.payoff(&profile, agent);
                let mut alt_profile = profile.clone();
                for alt in 0..k {
                    alt_profile[agent] = alt;
                    if self.payoff(&alt_profile, agent) > base + tol {
                        is_nash = false;
                        break 'agents;
                    }
                }
            }
            if is_nash {
                out.push(profile.clone());
            }
            // Odometer over all joint profiles.
            let mut pos = 0;
            loop {
                if pos == self.n {
                    return out;
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
}

/// Evaluates the full payoff table of the finite game induced by `menu` on
/// `system` under `mechanism`.
///
/// Cost is `|menu|^n` mechanism evaluations — intended for small `n`.
///
/// # Errors
/// Propagates mechanism errors.
///
/// # Panics
/// Panics if the menu is empty or the table would exceed 10⁶ entries.
pub fn empirical_game<M: VerifiedMechanism + ?Sized>(
    mechanism: &M,
    system: &System,
    total_rate: f64,
    menu: &[StrategyOption],
) -> Result<EmpiricalGame, MechanismError> {
    assert!(!menu.is_empty(), "empirical_game: empty menu");
    let n = system.len();
    let k = menu.len();
    let size = k
        .checked_pow(u32::try_from(n).expect("n fits u32"))
        .expect("table too large");
    assert!(
        size <= 1_000_000,
        "empirical_game: table too large ({size} entries)"
    );

    let trues = system.true_values();
    let mut strides = vec![0usize; n];
    let mut acc = 1;
    for stride in &mut strides {
        *stride = acc;
        acc *= k;
    }

    let mut payoffs = Vec::with_capacity(size);
    let mut profile = vec![0usize; n];
    for _ in 0..size {
        let bids: Vec<f64> = profile
            .iter()
            .zip(&trues)
            .map(|(&s, &t)| t * menu[s].bid_factor)
            .collect();
        let exec: Vec<f64> = profile
            .iter()
            .zip(&trues)
            .map(|(&s, &t)| t * menu[s].exec_factor.max(1.0))
            .collect();
        let p = Profile::new(trues.clone(), bids, exec, total_rate)?;
        payoffs.push(run_mechanism(mechanism, &p)?.utilities);
        // Odometer.
        for digit in &mut profile {
            *digit += 1;
            if *digit < k {
                break;
            }
            *digit = 0;
        }
    }
    Ok(EmpiricalGame {
        menu: menu.to_vec(),
        n,
        payoffs,
        strides,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lb_mechanism::CompensationBonusMechanism;

    /// The canonical strategy menu mirroring the paper's Table 2 families.
    fn paper_strategy_menu() -> Vec<StrategyOption> {
        vec![
            StrategyOption {
                name: "truthful",
                bid_factor: 1.0,
                exec_factor: 1.0,
            },
            StrategyOption {
                name: "high-consistent",
                bid_factor: 3.0,
                exec_factor: 3.0,
            },
            StrategyOption {
                name: "high-fast",
                bid_factor: 3.0,
                exec_factor: 1.0,
            },
            StrategyOption {
                name: "low",
                bid_factor: 0.5,
                exec_factor: 1.0,
            },
            StrategyOption {
                name: "lazy",
                bid_factor: 1.0,
                exec_factor: 2.0,
            },
        ]
    }

    fn game() -> EmpiricalGame {
        let sys = System::from_true_values(&[1.0, 2.0, 5.0]).unwrap();
        empirical_game(
            &CompensationBonusMechanism::paper(),
            &sys,
            10.0,
            &paper_strategy_menu(),
        )
        .unwrap()
    }

    fn consistent_game() -> EmpiricalGame {
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
    fn truthful_is_dominant_within_consistent_menu() {
        // Theorem 3.1's exact scope: against consistent opponents
        // (execution = bid), truth is weakly dominant for every agent.
        let g = consistent_game();
        for agent in 0..3 {
            assert!(
                g.is_dominant(agent, 0, 1e-9),
                "truthful not dominant for agent {agent}"
            );
        }
    }

    #[test]
    fn no_lazy_strategy_is_dominant_in_consistent_menu() {
        let g = consistent_game();
        for s in 1..g.menu.len() {
            assert!(
                !g.is_dominant(0, s, 1e-9),
                "strategy {} should not be dominant",
                g.menu[s].name
            );
        }
    }

    #[test]
    fn dominance_fails_against_inconsistent_opponents() {
        // Scale-invariance of PR: when every opponent plays high-fast
        // (bid 3t, execute t), the best reply is to rescale one's own bid —
        // literal truth-telling is *not* dominant over the full menu. This is
        // the boundary of Theorem 3.1 the crate documents.
        let g = game();
        assert!(
            !g.is_dominant(0, 0, 1e-9),
            "truth unexpectedly dominant over inconsistent menu"
        );
    }

    #[test]
    fn all_truthful_is_a_pure_nash_equilibrium() {
        let g = game();
        let nash = g.pure_nash(1e-9);
        assert!(
            nash.contains(&vec![0, 0, 0]),
            "all-truthful missing from Nash set: {nash:?}"
        );
    }

    #[test]
    fn payoff_indexing_is_consistent() {
        let g = game();
        // Spot check: payoff() must agree with the raw table through index().
        let profile = vec![1usize, 0, 2];
        let idx = g.index(&profile);
        assert_eq!(g.payoff(&profile, 1), g.payoffs[idx][1]);
    }

    #[test]
    #[should_panic(expected = "strategy index out of range")]
    fn bad_strategy_index_panics() {
        let g = game();
        let _ = g.index(&[9, 0, 0]);
    }
}
