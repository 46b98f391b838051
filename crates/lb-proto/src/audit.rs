//! Distributed payment auditing — the paper's "future work" direction.
//!
//! The paper closes with: *"Future work will address the problem of
//! distributed handling of payments…"*. The key observation making that
//! possible is that the payment function is a **public deterministic
//! function of public data**: the bid vector and the measured execution
//! values. If the coordinator broadcasts that data with the payments
//! (one extra message per node — the round stays `O(n)`), every node can
//! recompute the entire payment vector locally and refuse a settlement that
//! doesn't match. This module implements that audit.

use crate::network::MessageStats;
use lb_mechanism::{MechanismError, VerifiedMechanism};
use std::borrow::Cow;

/// The public settlement record the coordinator broadcasts.
#[derive(Debug, Clone, PartialEq)]
pub struct SettlementRecord {
    /// All bids, in machine order.
    pub bids: Vec<f64>,
    /// Measured execution values, in machine order.
    pub estimated_exec_values: Vec<f64>,
    /// Total arrival rate of the round.
    pub total_rate: f64,
    /// The payments the coordinator claims to have made.
    pub claimed_payments: Vec<f64>,
}

/// Result of auditing one settlement.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditReport {
    /// Per-machine verdict: does the recomputed payment match the claim?
    pub verified: Vec<bool>,
    /// Largest |claimed − recomputed| across machines.
    pub max_discrepancy: f64,
    /// Recomputed payments (what the mechanism actually prescribes).
    pub recomputed: Vec<f64>,
}

impl AuditReport {
    /// Whether every machine's payment checks out within the tolerance used
    /// at audit time.
    #[must_use]
    pub fn all_verified(&self) -> bool {
        self.verified.iter().all(|&v| v)
    }

    /// Indices of machines whose payments were tampered with.
    #[must_use]
    pub fn disputed(&self) -> Vec<usize> {
        self.verified
            .iter()
            .enumerate()
            .filter(|&(_, v)| !v)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Audits a settlement record against the public mechanism: derives the
/// bid side of the broadcast bids ([`VerifiedMechanism::bid_side`]),
/// settles it once with the broadcast estimates and compares the payments.
///
/// `tolerance` absorbs floating-point differences between the coordinator's
/// and the auditor's computation (they run the same code here, but a real
/// deployment may not).
///
/// # Errors
/// Propagates mechanism errors (e.g. malformed broadcast data).
pub fn audit_settlement<M: VerifiedMechanism + ?Sized>(
    mechanism: &M,
    record: &SettlementRecord,
    tolerance: f64,
) -> Result<AuditReport, MechanismError> {
    if record.claimed_payments.len() != record.bids.len()
        || record.estimated_exec_values.len() != record.bids.len()
    {
        return Err(lb_core::CoreError::LengthMismatch {
            expected: record.bids.len(),
            actual: record
                .claimed_payments
                .len()
                .min(record.estimated_exec_values.len()),
        }
        .into());
    }
    let side = mechanism.bid_side(Cow::Borrowed(&record.bids), record.total_rate, None)?;
    let (_, recomputed, _) =
        mechanism.settle_bid_side(Cow::Owned(side), &record.estimated_exec_values)?;
    let verified: Vec<bool> = recomputed
        .iter()
        .zip(&record.claimed_payments)
        .map(|(r, c)| (r - c).abs() <= tolerance)
        .collect();
    let max_discrepancy = recomputed
        .iter()
        .zip(&record.claimed_payments)
        .map(|(r, c)| (r - c).abs())
        .fold(0.0, f64::max);
    Ok(AuditReport {
        verified,
        max_discrepancy,
        recomputed,
    })
}

/// Traffic cost of adding the audit broadcast to a settled round: one
/// [`SettlementRecord`] per node.
#[must_use]
pub fn audit_broadcast_cost(record: &SettlementRecord, n: usize) -> MessageStats {
    let bytes = crate::codec::encode(record).len() as u64;
    MessageStats {
        messages: n as u64,
        bytes: bytes * n as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeSpec;
    use crate::runtime::{run_round, ProtocolConfig, RoundSpec};
    use lb_core::scenario::{paper_true_values, PAPER_ARRIVAL_RATE};
    use lb_mechanism::CompensationBonusMechanism;
    use lb_sim::driver::SimulationConfig;
    use lb_sim::server::ServiceModel;

    fn settled_record() -> SettlementRecord {
        let mech = CompensationBonusMechanism::paper();
        let specs: Vec<NodeSpec> = paper_true_values()
            .iter()
            .map(|&t| NodeSpec::truthful(t))
            .collect();
        let config = ProtocolConfig {
            total_rate: PAPER_ARRIVAL_RATE,
            link_latency: 0.001,
            simulation: SimulationConfig {
                horizon: 300.0,
                seed: 3,
                model: ServiceModel::StationaryDeterministic,
                workload: Default::default(),
                warmup: 0.0,
                estimator: lb_sim::estimator::EstimatorConfig::default(),
            },
        };
        let outcome = run_round(&RoundSpec::new(&mech, &specs, config))
            .map(|r| r.outcome)
            .unwrap();
        SettlementRecord {
            bids: specs.iter().map(|s| s.bid).collect(),
            estimated_exec_values: outcome.estimated_exec_values.clone(),
            total_rate: PAPER_ARRIVAL_RATE,
            claimed_payments: outcome.payments,
        }
    }

    #[test]
    fn honest_settlement_passes_audit() {
        let record = settled_record();
        let report = audit_settlement(&CompensationBonusMechanism::paper(), &record, 1e-9).unwrap();
        assert!(report.all_verified(), "disputed: {:?}", report.disputed());
        assert!(report.max_discrepancy < 1e-9);
    }

    #[test]
    fn tampered_payment_is_detected_by_exactly_that_machine() {
        let mut record = settled_record();
        record.claimed_payments[4] += 0.5; // coordinator skims machine 4
        let report = audit_settlement(&CompensationBonusMechanism::paper(), &record, 1e-6).unwrap();
        assert!(!report.all_verified());
        assert_eq!(report.disputed(), vec![4]);
        assert!((report.max_discrepancy - 0.5).abs() < 1e-9);
    }

    #[test]
    fn tampered_measurements_shift_all_payments() {
        // Forging the broadcast *measurements* instead of the payments is
        // also visible: the claimed payments no longer match the mechanism
        // applied to the forged data.
        let mut record = settled_record();
        record.estimated_exec_values[0] *= 2.0;
        let report = audit_settlement(&CompensationBonusMechanism::paper(), &record, 1e-6).unwrap();
        assert!(!report.all_verified());
        assert!(
            report.disputed().len() > 1,
            "forged data should implicate many payments"
        );
    }

    #[test]
    fn malformed_record_is_rejected() {
        let mut record = settled_record();
        record.claimed_payments.pop();
        assert!(audit_settlement(&CompensationBonusMechanism::paper(), &record, 1e-6).is_err());
    }

    #[test]
    fn audit_broadcast_stays_linear() {
        let record = settled_record();
        let cost16 = audit_broadcast_cost(&record, 16);
        let cost32 = audit_broadcast_cost(&record, 32);
        assert_eq!(cost16.messages, 16);
        assert_eq!(cost32.bytes, 2 * cost16.bytes);
        // The record serialises compactly: 3 f64 vectors + rate.
        assert!(
            cost16.bytes / 16 < 1024,
            "record too large: {} bytes",
            cost16.bytes / 16
        );
    }

    #[test]
    fn record_roundtrips_through_the_wire_codec() {
        let record = settled_record();
        let bytes = crate::codec::encode(&record);
        let back: SettlementRecord = crate::codec::decode(&bytes).unwrap();
        assert_eq!(back, record);
    }
}
