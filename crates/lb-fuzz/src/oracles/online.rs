//! Online oracle: the incremental event path is a transparent wrapper over
//! from-scratch recomputation.
//!
//! One iteration draws a random churn-stream shape — slot-space width,
//! warmup population, event count, latency spread — and checks three
//! properties of the online mechanism layer:
//!
//! 1. **Per-event sum/allocation transparency.** After *every* membership
//!    event, the incrementally maintained harmonic sum `S = Σ 1/b_i`
//!    ([`lb_mechanism::OnlinePool`]) must agree with a from-scratch
//!    [`inv_sum_dd`] over the live bids to `1e-12` relative, the
//!    materialised allocation must agree per-machine with the mechanism's
//!    own from-scratch allocation to the same bound, and the O(1) factored
//!    view ([`OnlinePool::rate_of`]) must be *bit-identical* to the
//!    materialised rates. A terminal compensated re-sum must then restore
//!    bit-exact agreement with the sequential fold.
//! 2. **First-tick settle transparency.** The stream's first settle tick
//!    fires right after warmup (join-only prefix, slot order = dense
//!    order), where the incremental sum is bit-identical to the batch
//!    fold — so the [`lb_proto::OnlineSession`] tick must pay out
//!    bit-identically to [`run_round`] on the same specs, seed
//!    and config.
//! 3. **Session accounting and durability.** Over the whole stream the
//!    session's ledger must equal the sum of its per-tick fan-outs, tick
//!    counts must match the stream, the round journal must replay cleanly
//!    (no torn tail, one round block per settled tick), and a second run
//!    from the same seed must reproduce every payment bit for bit.

use crate::generate::rng_for;
use lb_core::inv_sum_dd;
use lb_mechanism::{CompensationBonusMechanism, OnlinePool, VerifiedMechanism};
use lb_proto::{
    read_journal, run_round, split_rounds, Journal, MemJournal, NodeSpec, OnlineApplied,
    OnlineEvent, OnlineSession, ProtocolConfig, RoundSpec,
};
use lb_sim::churn::{ChurnConfig, ChurnEvent, ChurnGen};
use lb_sim::driver::SimulationConfig;
use lb_sim::server::ServiceModel;
use lb_stats::Rng;
use std::cell::RefCell;
use std::rc::Rc;

/// The incremental-path acceptance bound (ISSUE 10): every event-by-event
/// difference against from-scratch recomputation stays below this, far
/// tighter than the session-wide `REL_TOL`.
const INC_REL_TOL: f64 = 1e-12;

fn rel(got: f64, want: f64) -> f64 {
    (got - want).abs() / want.abs().max(f64::MIN_POSITIVE)
}

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

fn churn_config(rng: &mut impl Rng) -> ChurnConfig {
    #[allow(clippy::cast_possible_truncation)]
    let initial = 3 + rng.next_below(6) as usize;
    #[allow(clippy::cast_possible_truncation)]
    let slots = initial + 4 + rng.next_below(24) as usize;
    #[allow(clippy::cast_possible_truncation)]
    let events = 120 + rng.next_below(200) as usize;
    ChurnConfig {
        slots,
        initial,
        events,
        half_width: rng.next_range(0.5, 3.0),
        // The first tick fires on the first post-warmup event, while the
        // membership history is still join-only: there the incremental sum
        // is bit-identical to the batch fold, making the settle comparison
        // in property 2 exact rather than tolerance-based.
        tick_every: initial + 1,
        min_live: 2,
    }
}

/// Applies one churn event to a mirror membership, returning the live bids
/// in slot order.
fn mirror_apply(mirror: &mut [Option<f64>], event: ChurnEvent) {
    match event {
        ChurnEvent::Join { slot, value } | ChurnEvent::RateChange { slot, value } => {
            mirror[slot] = Some(value);
        }
        ChurnEvent::Leave { slot } => mirror[slot] = None,
        ChurnEvent::Tick => {}
    }
}

/// Runs one online-oracle iteration.
///
/// # Errors
/// Returns a description of the first divergence between the incremental
/// online path and from-scratch recomputation.
pub fn check(seed: u64) -> Result<(), String> {
    let mut rng = rng_for(seed);
    let churn = churn_config(&mut rng);
    let config = protocol_config(&mut rng);
    let churn_seed = rng.next_u64();
    let mech = CompensationBonusMechanism::paper();

    // Property 1: per-event incremental vs from-scratch, at the pool tier.
    let mut pool = OnlinePool::new(config.total_rate).map_err(|e| format!("pool: {e}"))?;
    let mut mirror: Vec<Option<f64>> = vec![None; churn.slots];
    for (k, event) in ChurnGen::new(churn, churn_seed).enumerate() {
        match event {
            ChurnEvent::Join { slot, value } => pool
                .join(slot, value)
                .map_err(|e| format!("event {k}: join: {e}"))?,
            ChurnEvent::Leave { slot } => {
                pool.leave(slot)
                    .map_err(|e| format!("event {k}: leave: {e}"))?;
            }
            ChurnEvent::RateChange { slot, value } => {
                pool.rate_change(slot, value)
                    .map_err(|e| format!("event {k}: rebid: {e}"))?;
            }
            ChurnEvent::Tick => continue,
        }
        mirror_apply(&mut mirror, event);
        let live: Vec<f64> = mirror.iter().copied().flatten().collect();
        let scratch = inv_sum_dd(&live);
        let s_rel = rel(pool.harmonic_sum().value(), scratch.value());
        if s_rel > INC_REL_TOL {
            return Err(format!(
                "event {k}: incremental S drifted {s_rel:e} from scratch ({} live)",
                live.len()
            ));
        }
        if live.len() >= 2 {
            let alloc = pool
                .allocation()
                .map_err(|e| format!("event {k}: allocation: {e}"))?;
            let reference = mech
                .allocate(&live, pool.total_rate())
                .map_err(|e| format!("event {k}: reference allocation: {e}"))?;
            let mut j = 0;
            for (slot, bid) in mirror.iter().copied().enumerate() {
                if bid.is_none() {
                    continue;
                }
                let x_rel = rel(alloc.rate(j), reference.rate(j));
                if x_rel > INC_REL_TOL {
                    return Err(format!(
                        "event {k}: rate of slot {slot} drifted {x_rel:e} from scratch"
                    ));
                }
                // The O(1) factored view is the materialised rate, bit for
                // bit — same sum, same closed-form expression.
                let factored = pool
                    .rate_of(slot)
                    .ok_or_else(|| format!("event {k}: live slot {slot} has no rate"))?;
                if factored.to_bits() != alloc.rate(j).to_bits() {
                    return Err(format!(
                        "event {k}: factored rate of slot {slot} ({factored}) is not \
                         bit-identical to the materialised allocation ({})",
                        alloc.rate(j)
                    ));
                }
                j += 1;
            }
        }
    }
    // A terminal compensated re-sum restores bit-exactness.
    pool.resum();
    let live: Vec<f64> = mirror.iter().copied().flatten().collect();
    let scratch = inv_sum_dd(&live);
    if pool.harmonic_sum().value().to_bits() != scratch.value().to_bits() {
        return Err("re-sum did not restore bit-exact agreement with the fold".into());
    }
    if pool.drift_bound() != 0.0 {
        return Err(format!(
            "re-sum left a non-zero drift bound: {}",
            pool.drift_bound()
        ));
    }

    // Properties 2 and 3: the protocol-tier session over the same stream.
    let journal: Rc<RefCell<dyn Journal>> = Rc::new(RefCell::new(MemJournal::new()));
    let mut session = OnlineSession::new(&mech, config)
        .map_err(|e| format!("session: {e}"))?
        .with_journal(Rc::clone(&journal));
    let mut warmup_specs: Vec<NodeSpec> = Vec::with_capacity(churn.initial);
    let mut ticks_in_stream = 0u64;
    let mut first_tick: Option<Vec<f64>> = None;
    let mut ledger = vec![0.0f64; churn.slots];
    let mut all_payments: Vec<u64> = Vec::new();
    for (k, event) in ChurnGen::new(churn, churn_seed).enumerate() {
        if let ChurnEvent::Join { value, .. } = event {
            if warmup_specs.len() < churn.initial {
                warmup_specs.push(NodeSpec::truthful(value));
            }
        }
        if matches!(event, ChurnEvent::Tick) {
            ticks_in_stream += 1;
        }
        let applied = session
            .apply(OnlineEvent::from_churn(event))
            .map_err(|e| format!("event {k}: session: {e}"))?;
        if let OnlineApplied::Settled(tick) = applied {
            if tick.machines.len() != tick.payments.len() {
                return Err(format!("tick {}: ragged settle fan-out", tick.round));
            }
            for (&slot, &p) in tick.machines.iter().zip(&tick.payments) {
                ledger[slot] += p;
                all_payments.push(p.to_bits());
            }
            if first_tick.is_none() {
                first_tick = Some(tick.payments.clone());
            }
        }
    }

    // Property 2: the first tick settled the warmup population, join-only
    // history — bit-identical to the batch protocol round on those specs.
    let first = first_tick.ok_or("stream settled no tick")?;
    let batch = run_round(&RoundSpec::new(&mech, &warmup_specs, config))
        .map_err(|e| format!("batch reference round: {e}"))?
        .outcome;
    if first.len() != batch.payments.len() {
        return Err(format!(
            "first tick paid {} machines, batch round {}",
            first.len(),
            batch.payments.len()
        ));
    }
    for (i, (&got, &want)) in first.iter().zip(&batch.payments).enumerate() {
        if got.to_bits() != want.to_bits() {
            return Err(format!(
                "first tick, machine {i}: online payment {got} != batch payment {want}"
            ));
        }
    }

    // Property 3a: ledger accounting and tick bookkeeping.
    let report = session.report();
    if report.ticks_settled + report.ticks_skipped != ticks_in_stream {
        return Err(format!(
            "{} ticks in stream, session saw {} + {}",
            ticks_in_stream, report.ticks_settled, report.ticks_skipped
        ));
    }
    for (slot, &total) in ledger.iter().enumerate() {
        let got = report.cumulative_payments.get(slot).copied().unwrap_or(0.0);
        if got.to_bits() != total.to_bits() {
            return Err(format!(
                "slot {slot}: session ledger {got} != fan-out total {total}"
            ));
        }
    }

    // Property 3b: the journal replays cleanly, one block per settled tick.
    let bytes = journal
        .borrow()
        .bytes()
        .map_err(|e| format!("journal bytes: {e}"))?;
    let replayed = read_journal(&bytes).map_err(|e| format!("read_journal: {e}"))?;
    if replayed.truncated_tail != 0 {
        return Err(format!(
            "journal has a torn tail of {} bytes",
            replayed.truncated_tail
        ));
    }
    let blocks = split_rounds(&replayed.records).map_err(|e| format!("split_rounds: {e}"))?;
    if blocks.len() as u64 != report.ticks_settled {
        return Err(format!(
            "{} settled ticks journalled {} round blocks",
            report.ticks_settled,
            blocks.len()
        ));
    }

    // Property 3c: the whole session is seed-deterministic.
    let mut replay = OnlineSession::new(&mech, config).map_err(|e| format!("replay: {e}"))?;
    let mut replay_payments: Vec<u64> = Vec::new();
    for event in ChurnGen::new(churn, churn_seed) {
        if let OnlineApplied::Settled(tick) = replay
            .apply(OnlineEvent::from_churn(event))
            .map_err(|e| format!("replay: {e}"))?
        {
            replay_payments.extend(tick.payments.iter().map(|p| p.to_bits()));
        }
    }
    if replay_payments != all_payments {
        return Err("replayed session diverged from the original payments".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holds_for_a_small_seed_sample() {
        for seed in 0..20 {
            check(seed).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }
}
