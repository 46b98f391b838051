//! Numerical best-response search.
//!
//! Given the other agents' bids and execution values, find the `(bid, exec)`
//! pair maximising one agent's utility under a mechanism. The search is a
//! coarse multiplicative grid followed by golden-section refinement of the
//! bid (utility is unimodal in the own bid for the mechanisms in this
//! workspace; the refinement tolerates mild non-unimodality by starting from
//! the best grid cell).

use lb_mechanism::{run_mechanism, MechanismError, Profile, VerifiedMechanism};

/// Search configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchOptions {
    /// Smallest bid multiplier explored.
    pub bid_lo: f64,
    /// Largest bid multiplier explored.
    pub bid_hi: f64,
    /// Number of coarse grid points per axis.
    pub grid: usize,
    /// Largest execution multiplier explored (lower bound is always 1).
    pub exec_hi: f64,
    /// Golden-section refinement iterations.
    pub refine_iters: u32,
}

impl Default for SearchOptions {
    fn default() -> Self {
        Self {
            bid_lo: 0.05,
            bid_hi: 20.0,
            grid: 24,
            exec_hi: 5.0,
            refine_iters: 60,
        }
    }
}

/// Result of a best-response search for one agent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BestResponse {
    /// Optimal bid found.
    pub bid: f64,
    /// Optimal execution value found.
    pub exec_value: f64,
    /// Utility at the optimum.
    pub utility: f64,
    /// Utility of truthful full-capacity play in the same environment.
    pub truthful_utility: f64,
}

impl BestResponse {
    /// Gain of the best response over truthful play (`<= tol` certifies
    /// truthfulness numerically).
    #[must_use]
    pub fn gain(&self) -> f64 {
        self.utility - self.truthful_utility
    }
}

/// Evaluates agent `agent`'s utility when it plays `(bid, exec)` against the
/// fixed environment in `base` (which supplies everyone else's behaviour).
fn utility_of<M: VerifiedMechanism + ?Sized>(
    mechanism: &M,
    base: &Profile,
    agent: usize,
    bid: f64,
    exec: f64,
) -> Result<f64, MechanismError> {
    let profile = base.replace_agent(agent, bid, exec)?;
    Ok(run_mechanism(mechanism, &profile)?.utilities[agent])
}

/// Finds agent `agent`'s best response in the environment described by
/// `base` (the other agents' entries of `base` are held fixed; the agent's
/// own entry is ignored).
///
/// # Errors
/// Propagates mechanism errors.
///
/// # Panics
/// Panics if `agent` is out of range or options are degenerate.
pub fn best_response<M: VerifiedMechanism + ?Sized>(
    mechanism: &M,
    base: &Profile,
    agent: usize,
    options: &SearchOptions,
) -> Result<BestResponse, MechanismError> {
    assert!(agent < base.len(), "best_response: agent out of range");
    assert!(options.grid >= 2 && options.bid_lo > 0.0 && options.bid_hi > options.bid_lo);
    let t = base.true_values()[agent];

    let truthful_utility = utility_of(mechanism, base, agent, t, t)?;

    // Coarse log-spaced grid over (bid multiplier, exec multiplier).
    let mut best = (t, t, truthful_utility);
    let ln_lo = options.bid_lo.ln();
    let ln_hi = options.bid_hi.ln();
    for bi in 0..options.grid {
        let frac = bi as f64 / (options.grid - 1) as f64;
        let bid = t * (ln_lo + frac * (ln_hi - ln_lo)).exp();
        for ei in 0..options.grid {
            let efrac = ei as f64 / (options.grid - 1) as f64;
            let exec = t * (1.0 + efrac * (options.exec_hi - 1.0));
            let u = utility_of(mechanism, base, agent, bid, exec)?;
            if u > best.2 {
                best = (bid, exec, u);
            }
        }
    }

    // Golden-section refinement of the bid at the best exec value.
    let exec = best.1;
    let phi = (5.0_f64.sqrt() - 1.0) / 2.0;
    let mut lo = best.0 / 2.0;
    let mut hi = best.0 * 2.0;
    let mut x1 = hi - phi * (hi - lo);
    let mut x2 = lo + phi * (hi - lo);
    let mut f1 = utility_of(mechanism, base, agent, x1, exec)?;
    let mut f2 = utility_of(mechanism, base, agent, x2, exec)?;
    for _ in 0..options.refine_iters {
        if f1 < f2 {
            lo = x1;
            x1 = x2;
            f1 = f2;
            x2 = lo + phi * (hi - lo);
            f2 = utility_of(mechanism, base, agent, x2, exec)?;
        } else {
            hi = x2;
            x2 = x1;
            f2 = f1;
            x1 = hi - phi * (hi - lo);
            f1 = utility_of(mechanism, base, agent, x1, exec)?;
        }
    }
    let refined_bid = 0.5 * (lo + hi);
    let refined_u = utility_of(mechanism, base, agent, refined_bid, exec)?;
    if refined_u > best.2 {
        best = (refined_bid, exec, refined_u);
    }

    Ok(BestResponse {
        bid: best.0,
        exec_value: best.1,
        utility: best.2,
        truthful_utility,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lb_core::scenario::{paper_system, PAPER_ARRIVAL_RATE};
    use lb_mechanism::CompensationBonusMechanism;

    #[test]
    fn truth_is_best_response_under_cb_mechanism() {
        let sys = paper_system();
        let base = Profile::truthful(&sys, PAPER_ARRIVAL_RATE).unwrap();
        let mech = CompensationBonusMechanism::paper();
        for agent in [0usize, 4, 12] {
            let br = best_response(&mech, &base, agent, &SearchOptions::default()).unwrap();
            assert!(br.gain() <= 1e-6, "agent {agent}: gain {}", br.gain());
            let t = base.true_values()[agent];
            assert!(
                (br.bid - t).abs() / t < 0.05,
                "agent {agent}: best bid {} vs t {t}",
                br.bid
            );
            assert!(
                (br.exec_value - t).abs() / t < 1e-9,
                "agent {agent}: exec {}",
                br.exec_value
            );
        }
    }

    #[test]
    fn truth_is_best_even_against_liars() {
        // Others over-bid consistently; truth should still be agent 0's best.
        let sys = paper_system();
        let trues = sys.true_values();
        let mut bids = trues.clone();
        let mut exec = trues.clone();
        for j in 1..bids.len() {
            bids[j] = trues[j] * 2.0;
            exec[j] = bids[j];
        }
        let base = Profile::new(trues, bids, exec, PAPER_ARRIVAL_RATE).unwrap();
        let mech = CompensationBonusMechanism::paper();
        let br = best_response(&mech, &base, 0, &SearchOptions::default()).unwrap();
        assert!(br.gain() <= 1e-6, "gain {}", br.gain());
    }

    #[test]
    fn search_finds_profitable_deviation_when_one_exists() {
        // Sanity check that the search is not vacuous: under a broken
        // "mechanism" that pays proportionally to the declared value, lying
        // high must be found profitable.
        struct PayTheBid;
        impl VerifiedMechanism for PayTheBid {
            fn name(&self) -> &'static str {
                "pay-the-bid (broken)"
            }
            fn allocate(
                &self,
                bids: &[f64],
                total_rate: f64,
            ) -> Result<lb_core::Allocation, MechanismError> {
                Ok(lb_core::pr_allocate(bids, total_rate)?)
            }
            fn payments(
                &self,
                bids: &[f64],
                allocation: &lb_core::Allocation,
                _exec: &[f64],
                _total_rate: f64,
            ) -> Result<Vec<f64>, MechanismError> {
                // Pays each agent its bid times its load — trivially gameable.
                Ok(bids
                    .iter()
                    .zip(allocation.rates())
                    .map(|(&b, &x)| 10.0 * b * x)
                    .collect())
            }
        }
        let sys = paper_system();
        let base = Profile::truthful(&sys, PAPER_ARRIVAL_RATE).unwrap();
        let br = best_response(&PayTheBid, &base, 0, &SearchOptions::default()).unwrap();
        assert!(
            br.gain() > 1.0,
            "search failed to find the obvious deviation"
        );
        assert!(br.bid > base.true_values()[0], "deviation should over-bid");
    }

    #[test]
    #[should_panic(expected = "agent out of range")]
    fn out_of_range_agent_panics() {
        let sys = paper_system();
        let base = Profile::truthful(&sys, PAPER_ARRIVAL_RATE).unwrap();
        let _ = best_response(
            &CompensationBonusMechanism::paper(),
            &base,
            99,
            &SearchOptions::default(),
        );
    }
}
