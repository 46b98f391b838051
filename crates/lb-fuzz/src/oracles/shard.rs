//! Shard oracle: the hierarchical coordinator is a transparent wrapper.
//!
//! One iteration draws a random round shape — node population, shard count,
//! arrival rate, simulation seed and a declarative fault plan — and checks
//! two properties of [`lb_proto::shard`]:
//!
//! 1. **Topology transparency.** The sharded round (random `k`) must be
//!    bit-identical to the single-coordinator round on the same inputs —
//!    the fault plan run as a chaos configuration with `bid_retries: 0`:
//!    allocation rates, payments, verification estimates (all compared via
//!    `to_bits`), the exclusion set and the anomaly totals.
//!    The shard tier only repartitions *where* bids are gathered and
//!    partial harmonic sums are folded; any observable difference is a bug
//!    in the aggregation (see the `TwoF64` merge contract in
//!    `lb_proto::shard`).
//! 2. **Crash-recovery transparency.** A journalled sharded round, crashed
//!    at randomly sampled record boundaries and revived with
//!    [`recover_round`], must settle to the same payments and leave the
//!    journal byte-identical to the uninterrupted run — under the *same*
//!    fault plan, so recovery mid-collect re-excludes faulted machines
//!    deterministically.
//!
//! Fault draws keep at least two respondents so the round always settles
//! (fewer is the documented `NeedTwoAgents` error, tested elsewhere).

use crate::generate::{node_specs, rng_for};
use lb_mechanism::CompensationBonusMechanism;
use lb_proto::{
    drive_sharded_round, recover_round, run_round, ChaosConfig, Coordinator, FaultPlan, Journal,
    JournalReplay, MemJournal, ProtocolConfig, RoundContext, RoundId, RoundSpec, Transport,
};
use lb_sim::driver::SimulationConfig;
use lb_sim::server::ServiceModel;
use lb_stats::Rng;
use lb_telemetry::noop_collector;
use std::cell::RefCell;
use std::rc::Rc;

/// Crash points sampled per iteration (on top of the exhaustive sweep in
/// the shard module's own pinned test).
const CRASH_SAMPLES: usize = 4;

fn protocol_config(rng: &mut impl Rng) -> ProtocolConfig {
    ProtocolConfig {
        total_rate: rng.next_range(1.0, 50.0),
        simulation: SimulationConfig {
            horizon: 50.0,
            seed: rng.next_u64(),
            model: ServiceModel::StationaryDeterministic,
            workload: Default::default(),
            warmup: 0.0,
            estimator: lb_sim::estimator::EstimatorConfig::default(),
        },
        ..ProtocolConfig::default()
    }
}

/// Draws a fault plan leaving at least two machines with a surviving bid.
fn fault_plan(rng: &mut impl Rng, n: usize) -> FaultPlan {
    let mut plan = FaultPlan::none();
    let mut bid_budget = n - 2;
    for i in 0..n {
        #[allow(clippy::cast_possible_truncation)]
        let machine = i as u32;
        if bid_budget > 0 && rng.next_bool(0.2) {
            bid_budget -= 1;
            match rng.next_below(3) {
                0 => plan.lose_bids_from.push(machine),
                1 => plan.partitioned.push(machine),
                #[allow(clippy::cast_possible_truncation)]
                _ => plan
                    .lose_bid_attempts
                    .push((machine, 1 + rng.next_below(3) as u32)),
            }
        } else if rng.next_bool(0.2) {
            plan.lose_acks_from.push(machine);
        }
    }
    plan
}

/// Runs one shard-oracle iteration.
///
/// # Errors
/// Returns a description of the first divergence between the sharded and
/// single-coordinator rounds, or between a crash-recovered and the
/// uninterrupted sharded round.
pub fn check(seed: u64) -> Result<(), String> {
    let mut rng = rng_for(seed);
    #[allow(clippy::cast_possible_truncation)]
    let n = 4 + rng.next_below(9) as usize;
    #[allow(clippy::cast_possible_truncation)]
    let shards = 1 + rng.next_below(n as u64 + 2) as usize;
    let specs = node_specs(&mut rng, n);
    let config = protocol_config(&mut rng);
    let faults = fault_plan(&mut rng, n);
    let mech = CompensationBonusMechanism::paper();
    let round = RoundId(0);

    // Property 1: sharded == single-coordinator, bit for bit.
    let chaos = ChaosConfig {
        plan: faults.clone(),
        bid_retries: 0,
        ..ChaosConfig::reliable(config.simulation.seed)
    };
    let single = run_round(&RoundSpec {
        transport: Transport::Chaos(chaos),
        ..RoundSpec::new(&mech, &specs, config)
    })
    .map_err(|e| format!("single-coordinator round: {e}"))?;
    if single.anomalies.total() != 0 {
        return Err(format!(
            "single coordinator: clean drops produced {} anomalies",
            single.anomalies.total()
        ));
    }
    let single = single.outcome;
    let mut root = Coordinator::try_new(&mech, n, config.total_rate, round, config.simulation)
        .map_err(|e| format!("root: {e}"))?;
    let (report, _timings) = drive_sharded_round(&mut root, &specs, &config, shards, &faults)
        .map_err(|e| format!("sharded round (k = {shards}): {e}"))?;
    let excluded = &report.excluded;
    let anomalies = report.anomalies;
    let report = report.outcome;

    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    if bits(&single.rates) != bits(&report.rates) {
        return Err(format!(
            "k = {shards}: allocations diverged:\n  single  {:?}\n  sharded {:?}",
            single.rates, report.rates
        ));
    }
    if bits(&single.payments) != bits(&report.payments) {
        return Err(format!(
            "k = {shards}: payments diverged:\n  single  {:?}\n  sharded {:?}",
            single.payments, report.payments
        ));
    }
    if bits(&single.estimated_exec_values) != bits(&report.estimated_exec_values) {
        return Err(format!("k = {shards}: verification estimates diverged"));
    }
    let single_excluded: Vec<bool> = (0..n).map(|i| single.rates[i] == 0.0).collect();
    if single_excluded != *excluded {
        return Err(format!(
            "k = {shards}: exclusions diverged: single {single_excluded:?} sharded {excluded:?}"
        ));
    }
    if anomalies.total() != 0 {
        return Err(format!(
            "k = {shards}: clean drops produced {} anomalies",
            anomalies.total()
        ));
    }

    // Property 2: crash-recovered sharded rounds replay byte-identically.
    let ctx = RoundContext {
        n,
        total_rate: config.total_rate,
        round,
        sim: config.simulation,
    };
    let journal: Rc<RefCell<MemJournal>> = Rc::new(RefCell::new(MemJournal::new()));
    let mut durable = Coordinator::try_new(&mech, n, ctx.total_rate, round, ctx.sim)
        .map_err(|e| format!("durable root: {e}"))?
        .with_journal(journal.clone());
    drive_sharded_round(&mut durable, &specs, &config, shards, &faults)
        .map_err(|e| format!("durable sharded round: {e}"))?;
    let reference_bytes = journal
        .borrow()
        .bytes()
        .map_err(|e| format!("journal bytes: {e}"))?;
    let reference_payments = bits(durable.payments().ok_or("durable round has no payments")?);

    let boundaries = JournalReplay::boundaries(&reference_bytes);
    for _ in 0..CRASH_SAMPLES {
        #[allow(clippy::cast_possible_truncation)]
        let cut = boundaries[rng.next_below(boundaries.len() as u64) as usize];
        let revived: Rc<RefCell<dyn Journal>> = Rc::new(RefCell::new(MemJournal::from_bytes(
            reference_bytes[..cut].to_vec(),
        )));
        let (mut rec, _report) = recover_round(&mech, revived.clone(), &ctx, noop_collector(), 0.0)
            .map_err(|e| format!("cut {cut}: recover: {e}"))?;
        drive_sharded_round(&mut rec, &specs, &config, shards, &faults)
            .map_err(|e| format!("cut {cut}: re-drive: {e}"))?;
        let payments = bits(rec.payments().ok_or("recovered round has no payments")?);
        if payments != reference_payments {
            return Err(format!("cut {cut}: recovered payments diverged"));
        }
        let replayed = revived
            .borrow()
            .bytes()
            .map_err(|e| format!("cut {cut}: bytes: {e}"))?;
        if replayed != reference_bytes {
            return Err(format!(
                "cut {cut}: replayed journal differs from the uninterrupted run \
                 ({} vs {} bytes)",
                replayed.len(),
                reference_bytes.len()
            ));
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
