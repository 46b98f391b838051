//! Audit oracle: the verification-observability stack against injected
//! corruption.
//!
//! One iteration drives a random journalled round with an
//! [`InvariantMonitor`] attached as the coordinator's collector and checks
//! both directions of the detection contract:
//!
//! * **No false positives.** The clean round must produce zero monitor
//!   violations and an intact ledger verdict — a monitor that cries wolf
//!   on honest rounds is as useless as one that misses theft.
//! * **No false negatives.** Corruptions are then injected into owned
//!   copies of the clean round's columns, handed to a fresh monitor as a
//!   [`SettledRound`], and each must be flagged by the check that owns it:
//!   1. a *skimmed payment* — one respondent's payment lowered, with the
//!      payment total lowered alike so the aggregate still balances —
//!      caught by the double-double drift reference;
//!   2. a *tampered journal* — a random byte flipped in a pre-seal record
//!      with the frame CRC recomputed, the edit the per-record checksum
//!      cannot see — caught by the ledger hash chain;
//!   3. a *violated utility floor* — a consistent synthetic round with one
//!      respondent underpaid past its Theorem 3.2 floor — caught by the
//!      floor check;
//!   4. a *leaked rate* — one rate raised so `Σx ≠ R` — caught by
//!      conservation;
//!   5. an *infeasible rate* — one rate made negative, NaN or infinite —
//!      caught by feasibility;
//!   6. a *paid exclusion* — a respondent marked excluded while it keeps
//!      its rate and payment — caught by exclusion;
//!   7. a *misreported total* — the payment total moved off `Σ P_i` —
//!      caught by total.

use super::finish_round;
use crate::generate::{latency_values, node_specs, rng_for, spread_half_width};
use lb_audit::{verify_ledger, InvariantMonitor, MonitorConfig, MonitorReport};
use lb_mechanism::{run_mechanism, CompensationBonusMechanism, Profile};
use lb_proto::journal::{crc32, JournalRecord};
use lb_proto::{
    decode, Coordinator, Journal, JournalReplay, MemJournal, Message, NodeSpec, RoundId,
};
use lb_sim::driver::SimulationConfig;
use lb_sim::server::ServiceModel;
use lb_stats::Rng;
use lb_telemetry::{noop_collector, Collector, SettledRound};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

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

/// Drives one journalled round to seal, like the session driver would.
fn drive(
    c: &mut Coordinator<'_>,
    specs: &[NodeSpec],
    actual: &[f64],
    round: RoundId,
) -> Result<(), String> {
    finish_round(
        c,
        c.missing_bids(),
        actual,
        |machine, message| match message {
            Message::RequestBid { .. } => Some(Message::Bid {
                round,
                machine,
                value: specs[machine as usize].bid,
            }),
            Message::Assign { .. } => Some(Message::ExecutionDone { round, machine }),
            _ => None,
        },
    )
}

/// Owned columns of one settled round, for tampering.
#[derive(Debug, Clone)]
struct Columns {
    total_rate: f64,
    bids: Vec<f64>,
    rates: Vec<f64>,
    estimates: Vec<f64>,
    excluded: Vec<bool>,
    payments: Vec<f64>,
    payment_total: f64,
}

impl Columns {
    /// Hands the columns to a fresh monitor as round 0 and returns its
    /// verdict.
    fn audit(&self) -> Result<MonitorReport, String> {
        let round = SettledRound::new(
            0,
            self.total_rate,
            &self.bids,
            &self.rates,
            &self.estimates,
            &self.excluded,
            &self.payments,
            self.payment_total,
        )
        .map_err(|e| e.to_string())?;
        let monitor = InvariantMonitor::new(noop_collector(), MonitorConfig::default());
        monitor.settled(0.0, &round);
        monitor
            .latest_report()
            .ok_or_else(|| "monitor completed no round".to_string())
    }
}

/// Audits a tampered copy and requires the named check to flag it.
fn expect_flagged(tampered: &Columns, check: &str, fault: &str) -> Result<(), String> {
    let report = tampered.audit()?;
    if report.check(check).is_none_or(|c| c.ok) {
        return Err(format!(
            "{fault} not caught by the {check} check: {report:?}"
        ));
    }
    Ok(())
}

/// Runs one audit-oracle iteration.
///
/// # Errors
/// Returns a description of the first missed corruption or false alarm.
pub fn check(seed: u64) -> Result<(), String> {
    let mut rng = rng_for(seed);
    #[allow(clippy::cast_possible_truncation)]
    let n = 3 + rng.next_below(5) as usize;
    let specs = node_specs(&mut rng, n);
    let total_rate = rng.next_range(1.0, 50.0);
    let sim = sim_config(rng.next_u64());
    let round = RoundId(0);
    let actual: Vec<f64> = specs.iter().map(|s| s.exec_value).collect();
    let mech = CompensationBonusMechanism::paper();

    // Clean journalled round, observed live by the monitor.
    let journal = Rc::new(RefCell::new(MemJournal::new()));
    let monitor = Arc::new(InvariantMonitor::new(
        Arc::new(lb_telemetry::RingCollector::new(8192)),
        MonitorConfig::default(),
    ));
    let clean = {
        let mut c = Coordinator::try_new(&mech, n, total_rate, round, sim)
            .map_err(|e| format!("coordinator: {e}"))?
            .with_journal(Rc::clone(&journal) as Rc<RefCell<dyn Journal>>)
            .with_collector(monitor.clone() as Arc<dyn Collector>);
        drive(&mut c, &specs, &actual, round)?;
        let payments = c.payments().ok_or("round settled with no payments")?;
        Columns {
            total_rate,
            // Every machine bids in this fault-free round.
            bids: specs.iter().map(|s| s.bid).collect(),
            rates: c.allocation().ok_or("no allocation")?.rates().to_vec(),
            estimates: c.estimated_exec_values().ok_or("no estimates")?.to_vec(),
            excluded: c.excluded().to_vec(),
            payments: payments.to_vec(),
            payment_total: payments.iter().sum(),
        }
    };

    // 1. No false positives: the honest round is clean end to end.
    let report = monitor.latest_report().ok_or("monitor observed no round")?;
    if !report.ok() {
        return Err(format!(
            "false positive on a clean round: {:?}",
            report.violations
        ));
    }
    let stats = monitor.stats();
    if stats.rounds != 1 || stats.total_violations() != 0 {
        return Err(format!("clean-run stats polluted: {stats:?}"));
    }
    let bytes = journal
        .borrow()
        .bytes()
        .map_err(|e| format!("journal bytes: {e}"))?;
    let verdict = verify_ledger(&bytes);
    if !verdict.is_intact() || verdict.seals == 0 {
        return Err(format!("clean journal fails verification: {verdict:?}"));
    }

    // The owned copy is the round the monitor saw live.
    if clean.audit()? != report {
        return Err("the clean copy audits differently from the live round".to_string());
    }
    let respondent = clean
        .excluded
        .iter()
        .position(|&excluded| !excluded)
        .ok_or("round settled with no respondents")?;

    // 2a. Skimmed payment: lower one respondent's payment and the total
    // alike, so the aggregate check stays green — the drift reference must
    // still catch it.
    let mut skimmed = clean.clone();
    let skim = (0.01 + rng.next_range(0.0, 0.5)) * (1.0 + clean.payments[respondent].abs());
    skimmed.payments[respondent] -= skim;
    skimmed.payment_total -= skim;
    expect_flagged(
        &skimmed,
        "drift",
        &format!("skimmed payment (machine {respondent}, −{skim:e})"),
    )?;

    // 2b. Tampered journal: flip a byte in a random pre-seal record and
    // recompute the frame CRC. The per-record checksum now passes; only
    // the hash chain can notice.
    let boundaries = JournalReplay::boundaries(&bytes);
    let seal_index = (0..boundaries.len() - 1)
        .find(|&i| {
            matches!(
                decode::<JournalRecord>(&bytes[boundaries[i] + 8..boundaries[i + 1]]),
                Ok(JournalRecord::LedgerSealed { .. })
            )
        })
        .ok_or("journal has no seal record")?;
    #[allow(clippy::cast_possible_truncation)]
    let victim = rng.next_below(seal_index as u64) as usize;
    let (start, end) = (boundaries[victim], boundaries[victim + 1]);
    let mut tampered = bytes.clone();
    #[allow(clippy::cast_possible_truncation)]
    let pos = start + 8 + rng.next_below((end - start - 8) as u64) as usize;
    tampered[pos] ^= 1 << rng.next_below(8);
    let crc = crc32(&tampered[start + 8..end]).to_le_bytes();
    tampered[start + 4..start + 8].copy_from_slice(&crc);
    let tampered_verdict = verify_ledger(&tampered);
    if tampered_verdict.is_intact() {
        return Err(format!(
            "CRC-fixed byte flip in record {victim} (offset {pos}) went undetected: \
             {tampered_verdict:?}"
        ));
    }
    if verify_ledger(&bytes).head != verdict.head {
        return Err("ledger verification is not deterministic".to_string());
    }

    // 2c. Violated floor: a consistent synthetic round (execution values
    // equal to bids, so Theorem 3.2 applies observably) with one machine
    // underpaid below its floor.
    #[allow(clippy::cast_possible_truncation)]
    let m = 2 + rng.next_below(6) as usize;
    let synth_half_width = spread_half_width(&mut rng);
    let values = latency_values(&mut rng, m, synth_half_width);
    let synth_rate = rng.next_range(1.0, 50.0);
    let profile = Profile::new(values.clone(), values.clone(), values.clone(), synth_rate)
        .map_err(|e| format!("synthetic profile: {e}"))?;
    let out = run_mechanism(&mech, &profile).map_err(|e| format!("synthetic round: {e}"))?;
    #[allow(clippy::cast_possible_truncation)]
    let victim = rng.next_below(m as u64) as usize;
    // Steal more than the whole payment scale: the floor tolerance is
    // relative to Σ|P_i|, so the theft must dominate it even on 10¹²
    // magnitude spreads.
    let theft = 10.0 * (1.0 + out.payments.iter().map(|p| p.abs()).sum::<f64>());
    let mut floored = Columns {
        total_rate: synth_rate,
        bids: values.clone(),
        rates: out.allocation.rates().to_vec(),
        estimates: values,
        excluded: vec![false; m],
        payments: out.payments.clone(),
        payment_total: out.payments.iter().sum::<f64>() - theft,
    };
    floored.payments[victim] -= theft;
    if !floored.audit()?.consistent {
        return Err("synthetic round should read as consistent".to_string());
    }
    expect_flagged(
        &floored,
        "floor",
        &format!("underpaid machine {victim} (−{theft:e})"),
    )?;

    // 2d. Leaked rate: Σx drifts off R by far more than the tolerance.
    let mut leaked = clean.clone();
    let leak = (0.01 + rng.next_range(0.0, 0.5)) * total_rate;
    leaked.rates[respondent] += leak;
    expect_flagged(
        &leaked,
        "conservation",
        &format!("rate leak (machine {respondent}, +{leak:e})"),
    )?;

    // 2e. Infeasible rate: negative, NaN or infinite.
    let mut infeasible = clean.clone();
    let bad_rate = match rng.next_below(3) {
        0 => -(1.0 + clean.rates[respondent]),
        1 => f64::NAN,
        _ => f64::INFINITY,
    };
    infeasible.rates[respondent] = bad_rate;
    expect_flagged(
        &infeasible,
        "feasibility",
        &format!("rate {bad_rate} (machine {respondent})"),
    )?;

    // 2f. Paid exclusion: a respondent keeps its (positive) rate and its
    // payment while marked excluded.
    let mut paid_exclusion = clean.clone();
    paid_exclusion.excluded[respondent] = true;
    expect_flagged(
        &paid_exclusion,
        "exclusion",
        &format!("excluded machine {respondent} still served and paid"),
    )?;

    // 2g. Misreported total: the aggregate moves off Σ P_i.
    let mut misreported = clean;
    let shift = (0.01 + rng.next_range(0.0, 0.5))
        * (1.0 + misreported.payments.iter().map(|p| p.abs()).sum::<f64>());
    misreported.payment_total += shift;
    expect_flagged(
        &misreported,
        "total",
        &format!("payment total shifted by {shift:e}"),
    )?;

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
