//! Recovery oracle: crash-at-every-boundary differential check.
//!
//! One iteration drives a random journalled round to completion without
//! interruption and records the outcome plus the journal bytes. It then
//! crashes the coordinator at *every* record boundary of that journal —
//! and at a handful of random mid-record byte offsets, which model torn
//! writes — recovers via [`recover_round`], finishes the round exactly as
//! the driver would, and asserts the recovered outcome is bit-identical to
//! the uninterrupted run:
//!
//! * allocation rates, execution estimates and payments match `to_bits`
//!   for every machine (payments are *restored*, never recomputed, so a
//!   crash after `PaymentsCommitted` cannot even in principle drift);
//! * the exclusion set and the anomaly count match exactly;
//! * a duplicate of an already-journalled bid delivered *after* recovery
//!   degrades to an anomaly without perturbing the settled outcome.
//!
//! The scenario space covers quarantined machines (excluded up front, as a
//! session would), silent machines (never bid — excluded by the bid
//! timeout) and machines whose completion acks are lost (settled by the
//! execution timeout), so every crash point lands in every phase the
//! coordinator can durably occupy.

use super::finish_round;
use crate::generate::{node_specs, rng_for};
use lb_mechanism::CompensationBonusMechanism;
use lb_proto::{
    read_journal, recover_round, Coordinator, CoordinatorPhase, Journal, JournalReplay, MemJournal,
    Message, NodeSpec, RoundContext, RoundId,
};
use lb_sim::driver::SimulationConfig;
use lb_sim::server::ServiceModel;
use lb_stats::Rng;
use lb_telemetry::noop_collector;
use std::cell::RefCell;
use std::rc::Rc;

/// How many random (possibly mid-record) truncation points to try on top
/// of the exhaustive record-boundary sweep.
const RANDOM_CUTS: usize = 3;

fn sim_config(seed: u64) -> SimulationConfig {
    SimulationConfig {
        horizon: 50.0,
        seed,
        model: ServiceModel::StationaryDeterministic,
        workload: Default::default(),
        warmup: 0.0,
        estimator: lb_sim::estimator::EstimatorConfig::default(),
    }
}

/// The bit-level fingerprint of a finished round.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Outcome {
    rates: Vec<u64>,
    estimates: Vec<u64>,
    payments: Vec<u64>,
    excluded: Vec<bool>,
    anomalies: u64,
    sealed: bool,
}

fn outcome_of(c: &Coordinator<'_>, n: usize) -> Result<Outcome, String> {
    let allocation = c.allocation().ok_or("finished round has no allocation")?;
    let estimates = c
        .estimated_exec_values()
        .ok_or("finished round has no estimates")?;
    let payments = c.payments().ok_or("finished round has no payments")?;
    Ok(Outcome {
        rates: (0..n).map(|i| allocation.rate(i).to_bits()).collect(),
        estimates: estimates.iter().map(|v| v.to_bits()).collect(),
        payments: payments.iter().map(|v| v.to_bits()).collect(),
        excluded: c.excluded().to_vec(),
        anomalies: c.anomalies().total(),
        sealed: c.is_sealed(),
    })
}

/// The random shape of one scenario. `quarantined + silent` is capped at
/// `n - 2` so at least two machines always respond and the round settles.
struct Scenario {
    quarantined: Vec<bool>,
    silent: Vec<bool>,
    lost_ack: Vec<bool>,
}

fn scenario(rng: &mut impl Rng, n: usize) -> Scenario {
    let mut quarantined = vec![false; n];
    let mut silent = vec![false; n];
    let mut lost_ack = vec![false; n];
    let mut budget = n - 2;
    for q in &mut quarantined {
        if budget > 0 && rng.next_bool(0.25) {
            *q = true;
            budget -= 1;
        }
    }
    for i in 0..n {
        if !quarantined[i] && budget > 0 && rng.next_bool(0.25) {
            silent[i] = true;
            budget -= 1;
        }
    }
    for i in 0..n {
        if !quarantined[i] && !silent[i] && rng.next_bool(0.25) {
            lost_ack[i] = true;
        }
    }
    Scenario {
        quarantined,
        silent,
        lost_ack,
    }
}

/// Plays the driver's role from `pending` on: answers the coordinator's
/// frames (silent machines never bid, lost-ack machines never acknowledge),
/// fires the phase timeouts when the round stalls, and seals on completion.
fn finish(
    c: &mut Coordinator<'_>,
    pending: Vec<u32>,
    specs: &[NodeSpec],
    actual: &[f64],
    sc: &Scenario,
    round: RoundId,
) -> Result<(), String> {
    finish_round(c, pending, actual, |machine, message| {
        let i = machine as usize;
        match message {
            Message::RequestBid { .. } if !sc.silent[i] => Some(Message::Bid {
                round,
                machine,
                value: specs[i].bid,
            }),
            Message::Assign { .. } if !sc.lost_ack[i] => {
                Some(Message::ExecutionDone { round, machine })
            }
            _ => None,
        }
    })
}

/// Runs one recovery-oracle iteration.
///
/// # Errors
/// Returns a description of the first crash point whose recovered outcome
/// diverges from the uninterrupted run.
pub fn check(seed: u64) -> Result<(), String> {
    let mut rng = rng_for(seed);
    #[allow(clippy::cast_possible_truncation)]
    let n = 3 + rng.next_below(4) as usize;
    let specs = node_specs(&mut rng, n);
    let sc = scenario(&mut rng, n);
    let total_rate = rng.next_range(1.0, 50.0);
    let sim = sim_config(rng.next_u64());
    let round = RoundId(0);
    let actual: Vec<f64> = specs.iter().map(|s| s.exec_value).collect();
    let mech = CompensationBonusMechanism::paper();

    // Uninterrupted reference run, journalled.
    let journal = Rc::new(RefCell::new(MemJournal::new()));
    let mut c = Coordinator::try_new(&mech, n, total_rate, round, sim)
        .map_err(|e| format!("coordinator: {e}"))?
        .with_journal(Rc::clone(&journal) as Rc<RefCell<dyn Journal>>);
    for (i, &q) in sc.quarantined.iter().enumerate() {
        if q {
            c.exclude(i).map_err(|e| format!("exclude: {e}"))?;
        }
    }
    let opening = c.missing_bids();
    finish(&mut c, opening, &specs, &actual, &sc, round)?;
    let reference = outcome_of(&c, n)?;
    let bytes = journal
        .borrow()
        .bytes()
        .map_err(|e| format!("bytes: {e}"))?;

    // Crash points: every clean record boundary, plus random byte offsets
    // that usually land mid-record and exercise torn-tail truncation.
    let mut cuts = JournalReplay::boundaries(&bytes);
    for _ in 0..RANDOM_CUTS {
        #[allow(clippy::cast_possible_truncation)]
        cuts.push(rng.next_below(bytes.len() as u64 + 1) as usize);
    }

    let ctx = RoundContext {
        n,
        total_rate,
        round,
        sim,
    };
    for cut in cuts {
        // A torn tail is what the backends truncate on revival; mirror that
        // before handing the prefix to recovery.
        let valid = read_journal(&bytes[..cut])
            .map_err(|e| format!("cut {cut}: read: {e}"))?
            .valid_len;
        let j: Rc<RefCell<dyn Journal>> = Rc::new(RefCell::new(MemJournal::from_bytes(
            bytes[..valid].to_vec(),
        )));
        let (mut rc, _report) = recover_round(&mech, j, &ctx, noop_collector(), 0.0)
            .map_err(|e| format!("cut {cut}: recover: {e}"))?;
        // The session re-asserts quarantine on recovery; idempotent when the
        // exclusions were already journalled.
        if rc.phase() == CoordinatorPhase::CollectingBids {
            for (i, &q) in sc.quarantined.iter().enumerate() {
                if q {
                    rc.exclude(i)
                        .map_err(|e| format!("cut {cut}: exclude: {e}"))?;
                }
            }
        }
        let pending = rc
            .resume(&actual)
            .map_err(|e| format!("cut {cut}: resume: {e}"))?;
        finish(&mut rc, pending, &specs, &actual, &sc, round)
            .map_err(|e| format!("cut {cut}: {e}"))?;
        let got = outcome_of(&rc, n).map_err(|e| format!("cut {cut}: {e}"))?;
        if got != reference {
            return Err(format!(
                "cut {cut}: recovered outcome diverged:\n  got  {got:?}\n  want {reference:?}"
            ));
        }

        // Exactly-once absorption: a duplicate of a bid the journal already
        // holds must degrade to an anomaly, not perturb the settled round.
        if let Some(r) = (0..n).find(|&i| !sc.quarantined[i] && !sc.silent[i]) {
            #[allow(clippy::cast_possible_truncation)]
            let machine = r as u32;
            let replies = rc
                .handle(
                    &Message::Bid {
                        round,
                        machine,
                        value: specs[r].bid,
                    },
                    &actual,
                )
                .map_err(|e| format!("cut {cut}: duplicate bid: {e}"))?;
            if !replies.is_empty() {
                return Err(format!(
                    "cut {cut}: duplicate bid after sealing produced {} replies",
                    replies.len()
                ));
            }
            let after = outcome_of(&rc, n).map_err(|e| format!("cut {cut}: {e}"))?;
            if after.anomalies != reference.anomalies + 1 {
                return Err(format!(
                    "cut {cut}: duplicate bid counted {} anomalies, want {}",
                    after.anomalies,
                    reference.anomalies + 1
                ));
            }
            if after.payments != reference.payments || after.rates != reference.rates {
                return Err(format!(
                    "cut {cut}: duplicate bid perturbed the settled outcome"
                ));
            }
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
