//! Session oracle: chaos-round invariants under random fault schedules.
//!
//! One iteration builds a random consistent node population, a random (but
//! always valid) [`ChaosConfig`] and runs one full protocol round through
//! the chaos runtime. A typed mechanism error is an acceptable outcome (the
//! chaos layer may legitimately exclude too many machines to settle); a
//! panic or a violated invariant is a finding. The invariants are the
//! seed-independent guarantees the chaos runtime advertises:
//!
//! * conservation — the allocation over respondents sums to `R`;
//! * excluded machines receive zero rate and zero payment;
//! * the settlement audits clean over the respondent sub-profile
//!   (`P_i = C_i + B_i`, Def. 3.3);
//! * voluntary participation — truthful respondents never end below a
//!   rounding-scale floor (Theorem 3.2; all generated nodes are consistent);
//! * message complexity stays within [`chaos_message_bound`];
//! * the coordinator's-eye trace replays clean, and replaying the same
//!   seeds reproduces the round bit for bit.

use crate::generate::{chaos_config, node_specs, rng_for};
use lb_mechanism::CompensationBonusMechanism;
use lb_proto::{
    audit_settlement, chaos_message_bound, replay_check, run_round, ChaosConfig, NodeSpec,
    ProtocolConfig, RoundReport, RoundSpec, SettlementRecord, Transport,
};
use lb_sim::driver::SimulationConfig;
use lb_sim::server::ServiceModel;
use lb_stats::Rng;

fn protocol_config(total_rate: f64, sim_seed: u64) -> ProtocolConfig {
    ProtocolConfig {
        total_rate,
        link_latency: 0.001,
        simulation: SimulationConfig {
            horizon: 50.0,
            seed: sim_seed,
            model: ServiceModel::StationaryDeterministic,
            workload: Default::default(),
            warmup: 0.0,
            estimator: lb_sim::estimator::EstimatorConfig::default(),
        },
    }
}

fn check_invariants(
    report: &RoundReport,
    specs: &[NodeSpec],
    chaos: &ChaosConfig,
    total_rate: f64,
) -> Result<(), String> {
    let n = specs.len();
    let outcome = &report.outcome;

    let total: f64 = outcome.rates.iter().sum();
    if (total - total_rate).abs() > 1e-6 * total_rate.max(1.0) {
        return Err(format!("allocation sums to {total:e}, want {total_rate:e}"));
    }

    for (i, &excluded) in report.excluded.iter().enumerate() {
        if excluded && (outcome.rates[i] != 0.0 || outcome.payments[i] != 0.0) {
            return Err(format!(
                "excluded machine {i} got rate {:e}, payment {:e}",
                outcome.rates[i], outcome.payments[i]
            ));
        }
    }

    let respondents: Vec<usize> = (0..n).filter(|&i| !report.excluded[i]).collect();
    if respondents.len() >= 2 {
        let mech = CompensationBonusMechanism::paper();
        let record = SettlementRecord {
            bids: respondents.iter().map(|&i| specs[i].bid).collect(),
            estimated_exec_values: respondents
                .iter()
                .map(|&i| outcome.estimated_exec_values[i])
                .collect(),
            total_rate,
            claimed_payments: respondents.iter().map(|&i| outcome.payments[i]).collect(),
        };
        let audit = audit_settlement(&mech, &record, 1e-6)
            .map_err(|e| format!("settlement not auditable: {e}"))?;
        if !audit.all_verified() {
            return Err(format!(
                "settlement disputed for machines {:?}",
                audit.disputed()
            ));
        }
    }

    // Rounding-scale utility floor: realised totals are bounded by
    // r² · max t̃ (since Σ 1/t̃ ≥ 1/max t̃), so anything below this floor is
    // a genuine Theorem 3.2 violation, not accumulated rounding.
    let max_exec = specs.iter().map(|s| s.exec_value).fold(1.0, f64::max);
    let floor = -1e-9 * (1.0 + total_rate * total_rate * max_exec);
    for &i in &respondents {
        if specs[i].is_truthful() && outcome.utilities[i] < floor {
            return Err(format!(
                "truthful machine {i} realised utility {:e} (floor {floor:e})",
                outcome.utilities[i]
            ));
        }
    }

    let bound = chaos_message_bound(n, chaos.bid_retries, report.faults.duplicated);
    if outcome.stats.messages > bound {
        return Err(format!(
            "{} messages exceeds bound {bound}",
            outcome.stats.messages
        ));
    }

    let violations = replay_check(&report.trace, n);
    if !violations.is_empty() {
        return Err(format!("trace replay violations: {violations:?}"));
    }
    Ok(())
}

/// Runs one session-oracle iteration.
///
/// # Errors
/// Returns a description of the first violated invariant.
pub fn check(seed: u64) -> Result<(), String> {
    let mut rng = rng_for(seed);
    #[allow(clippy::cast_possible_truncation)]
    let n = 3 + rng.next_below(4) as usize;
    let specs = node_specs(&mut rng, n);
    let chaos_seed = rng.next_u64();
    let chaos = chaos_config(&mut rng, chaos_seed);
    let total_rate = rng.next_range(1.0, 50.0);
    let sim_seed = rng.next_u64();
    let config = protocol_config(total_rate, sim_seed);
    let mech = CompensationBonusMechanism::paper();

    let spec = RoundSpec {
        transport: Transport::Chaos(chaos.clone()),
        ..RoundSpec::new(&mech, &specs, config)
    };
    let report = match run_round(&spec) {
        Ok(report) => report,
        // Typed failure is legitimate under chaos (e.g. too few respondents
        // to settle); the oracle hunts panics and invariant violations.
        Err(_) => return Ok(()),
    };
    check_invariants(&report, &specs, &chaos, total_rate)?;

    // Determinism spot-check (every 8th iteration — it doubles the cost):
    // the same seeds must reproduce the identical round, faults included.
    if seed % 8 == 0 {
        let replay = run_round(&spec)
            .map_err(|e| format!("replay errored where the first run succeeded: {e}"))?;
        if replay.outcome.rates != report.outcome.rates
            || replay.outcome.payments != report.outcome.payments
            || replay.faults != report.faults
            || replay.retries != report.retries
        {
            return Err("replay with identical seeds diverged".to_string());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holds_for_a_small_seed_sample() {
        for seed in 0..25 {
            check(seed).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }
}
