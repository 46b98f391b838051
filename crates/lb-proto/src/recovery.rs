//! Crash recovery: deterministic replay of the round journal.
//!
//! After a coordinator process dies, the journal (see [`crate::journal`]) is
//! the only surviving state. [`recover_round`] rebuilds a [`Coordinator`]
//! from it: records of the current round are replayed in order into a fresh
//! state machine, the journal is re-attached so new appends continue where
//! the dead process stopped, and [`Coordinator::resume`] then names the
//! machines the recovered round must send to in order to move forward.
//!
//! Two properties make the replay safe:
//!
//! * **Determinism** — everything not read from the journal is recomputed
//!   from the same inputs the dead process had (same bids, same
//!   round-adjusted simulation seed), so a crash *before* a commit point
//!   reproduces bit-identical allocations and estimates.
//! * **Exactly-once settle** — payments are restored from the
//!   `PaymentsCommitted` record, never recomputed, and the re-sent Payment
//!   fan-out is idempotent at the nodes; a crash *after* the commit point
//!   therefore cannot change (or double-apply) any payment.
//!
//! [`split_rounds`] is the session-level view of the same bytes: the full
//! journal partitioned into per-round blocks, from which
//! [`crate::session::run_chaos_session`] with a journal rebuilds quarantine state
//! and cumulative payment totals across a multi-round crash.

use crate::coordinator::{Coordinator, CoordinatorPhase, ProtocolError};
use crate::journal::{read_journal, ExclusionReason, Journal, JournalRecord, JournalReplay};
use crate::message::RoundId;
use lb_mechanism::VerifiedMechanism;
use lb_sim::driver::SimulationConfig;
use lb_telemetry::{Collector, Field, Subsystem};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// The out-of-band inputs a round's recovery needs: everything the journal
/// deliberately does *not* store because the driver re-derives it the same
/// way every time.
#[derive(Debug, Clone, Copy)]
pub struct RoundContext {
    /// Number of machines in the round.
    pub n: usize,
    /// Total rate `R` being allocated.
    pub total_rate: f64,
    /// The round being recovered.
    pub round: RoundId,
    /// Simulation config with the seed already round-adjusted
    /// (`base seed + round`), exactly as the original driver built it.
    pub sim: SimulationConfig,
}

/// What [`recover_round`] reconstructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Journal records replayed into the coordinator (0 means the journal
    /// held nothing for this round: the recovery degenerated to a fresh
    /// round).
    pub records_replayed: u64,
    /// Torn-tail bytes found (and ignored) after the last valid record.
    pub truncated_tail: u64,
    /// Phase the coordinator came back in.
    pub phase: CoordinatorPhase,
    /// Whether the round was already sealed (nothing left to do).
    pub sealed: bool,
    /// Quarantine exclusions restored from the journal.
    pub quarantine_restored: u64,
}

/// Rebuilds a coordinator for `ctx.round` from `journal`.
///
/// The journal's valid prefix is parsed (a torn tail is ignored — the
/// backends truncate it on revival) and the *last* round block is replayed
/// if it belongs to `ctx.round`; otherwise — an empty journal, or a journal
/// whose last block is an earlier round — the coordinator starts fresh with
/// the journal attached, and the new round's records will append after the
/// existing ones.
///
/// Emits a `recover.replay` span with `recover.records` /
/// `recover.truncated_bytes` counters and one `recover.quarantine` instant
/// per restored quarantine exclusion when `collector` is enabled.
///
/// # Errors
/// [`ProtocolError::Journal`] if the journal cannot be read or holds hard
/// corruption; [`ProtocolError::ReplayMismatch`] if the records contradict
/// `ctx` (wrong width, wrong round, out-of-order commit records).
pub fn recover_round<'m>(
    mechanism: &'m dyn VerifiedMechanism,
    journal: Rc<RefCell<dyn Journal>>,
    ctx: &RoundContext,
    collector: Arc<dyn Collector>,
    now: f64,
) -> Result<(Coordinator<'m>, RecoveryReport), ProtocolError> {
    let bytes = journal.borrow().bytes()?;
    let replay = read_journal(&bytes)?;
    let block = current_round_block(&replay, ctx.round);

    let mut coordinator =
        Coordinator::try_new(mechanism, ctx.n, ctx.total_rate, ctx.round, ctx.sim)?
            .with_collector(Arc::clone(&collector));

    if block.is_empty() {
        // Nothing durable for this round yet: fresh start, journal attached
        // so the round writes its own block.
        let report = RecoveryReport {
            records_replayed: 0,
            truncated_tail: replay.truncated_tail as u64,
            phase: coordinator.phase(),
            sealed: false,
            quarantine_restored: 0,
        };
        return Ok((coordinator.with_journal(journal), report));
    }

    let span = if collector.enabled() {
        collector.span_start(
            now,
            "recover.replay",
            Subsystem::Coordinator,
            vec![
                Field::u64("round", ctx.round.0),
                Field::u64("records", block.len() as u64),
            ],
        )
    } else {
        lb_telemetry::SpanId::NULL
    };

    let mut quarantine_restored = 0u64;
    for record in block {
        if let JournalRecord::ExclusionDecided {
            machine,
            reason: ExclusionReason::Quarantine,
        } = record
        {
            quarantine_restored += 1;
            if collector.enabled() {
                collector.instant(
                    now,
                    "recover.quarantine",
                    Subsystem::Coordinator,
                    vec![Field::u64("machine", u64::from(*machine))],
                );
            }
        }
        coordinator.apply_record(record)?;
    }
    coordinator.attach_replayed_journal(journal);

    if collector.enabled() {
        collector.counter(
            now,
            "recover.records",
            Subsystem::Coordinator,
            block.len() as u64,
        );
        if replay.truncated_tail > 0 {
            collector.counter(
                now,
                "recover.truncated_bytes",
                Subsystem::Coordinator,
                replay.truncated_tail as u64,
            );
        }
        collector.span_end(now, span);
    }

    let report = RecoveryReport {
        records_replayed: block.len() as u64,
        truncated_tail: replay.truncated_tail as u64,
        phase: coordinator.phase(),
        sealed: coordinator.is_sealed(),
        quarantine_restored,
    };
    Ok((coordinator, report))
}

/// The record slice of the journal's last round block, when it belongs to
/// `round`; empty otherwise.
fn current_round_block(replay: &JournalReplay, round: RoundId) -> &[JournalRecord] {
    let Some(start) = replay
        .records
        .iter()
        .rposition(|r| matches!(r, JournalRecord::RoundOpened { .. }))
    else {
        return &[];
    };
    match &replay.records[start] {
        JournalRecord::RoundOpened { round: r, .. } if *r == round => &replay.records[start..],
        _ => &[],
    }
}

/// One round's worth of journal records, as seen by session-level recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundBlock {
    /// Round identifier from the block's `RoundOpened`.
    pub round: RoundId,
    /// Machine count from the block's `RoundOpened`.
    pub n: usize,
    /// Total rate from the block's `RoundOpened`.
    pub total_rate: f64,
    /// Every record of the block, `RoundOpened` included.
    pub records: Vec<JournalRecord>,
    /// Whether the block ends in `RoundSealed` — a fully finished round.
    pub sealed: bool,
}

impl RoundBlock {
    /// Machines this block quarantined up front (session health policy).
    #[must_use]
    pub fn quarantined(&self) -> Vec<usize> {
        self.records
            .iter()
            .filter_map(|r| match r {
                JournalRecord::ExclusionDecided {
                    machine,
                    reason: ExclusionReason::Quarantine,
                } => Some(*machine as usize),
                _ => None,
            })
            .collect()
    }

    /// Every machine this block excluded, for any reason.
    #[must_use]
    pub fn excluded(&self) -> Vec<usize> {
        self.records
            .iter()
            .filter_map(|r| match r {
                JournalRecord::ExclusionDecided { machine, .. } => Some(*machine as usize),
                _ => None,
            })
            .collect()
    }

    /// The committed payment ledger, if the block got that far.
    #[must_use]
    pub fn payments(&self) -> Option<&[f64]> {
        self.records.iter().rev().find_map(|r| match r {
            JournalRecord::PaymentsCommitted { payments } => Some(payments.as_slice()),
            _ => None,
        })
    }
}

/// Partitions a replayed record stream into per-round blocks, in journal
/// order.
///
/// # Errors
/// [`ProtocolError::ReplayMismatch`] if a record precedes the first
/// `RoundOpened` — every record belongs to exactly one round block.
pub fn split_rounds(records: &[JournalRecord]) -> Result<Vec<RoundBlock>, ProtocolError> {
    let mut blocks: Vec<RoundBlock> = Vec::new();
    for record in records {
        if let JournalRecord::RoundOpened {
            round,
            n,
            total_rate,
        } = record
        {
            blocks.push(RoundBlock {
                round: *round,
                n: *n as usize,
                total_rate: *total_rate,
                records: vec![record.clone()],
                sealed: false,
            });
        } else {
            let Some(block) = blocks.last_mut() else {
                return Err(ProtocolError::ReplayMismatch {
                    what: "journal record before the first RoundOpened",
                });
            };
            block.records.push(record.clone());
            if matches!(record, JournalRecord::RoundSealed) {
                block.sealed = true;
            }
        }
    }
    Ok(blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{encode_record, JournalError, MemJournal};
    use crate::message::Message;
    use lb_mechanism::CompensationBonusMechanism;
    use lb_sim::server::ServiceModel;
    use lb_telemetry::noop_collector;

    fn sim() -> SimulationConfig {
        SimulationConfig {
            horizon: 300.0,
            seed: 9,
            model: ServiceModel::StationaryDeterministic,
            workload: Default::default(),
            warmup: 0.0,
            estimator: lb_sim::estimator::EstimatorConfig::default(),
        }
    }

    fn ctx(n: usize) -> RoundContext {
        RoundContext {
            n,
            total_rate: 3.0,
            round: RoundId(0),
            sim: sim(),
        }
    }

    /// Drives a journalled 2-machine round to completion and returns the
    /// journal bytes plus the settled outcome.
    fn recorded_round(mech: &CompensationBonusMechanism) -> (Vec<u8>, Vec<f64>, Vec<f64>) {
        let journal: Rc<RefCell<MemJournal>> = Rc::new(RefCell::new(MemJournal::new()));
        let mut c = Coordinator::try_new(mech, 2, 3.0, RoundId(0), sim())
            .unwrap()
            .with_journal(Rc::clone(&journal) as Rc<RefCell<dyn Journal>>);
        let trues = [1.0, 2.0];
        for m in 0..2u32 {
            c.handle(
                &Message::Bid {
                    round: RoundId(0),
                    machine: m,
                    value: trues[m as usize],
                },
                &trues,
            )
            .unwrap();
        }
        for m in 0..2u32 {
            c.handle(
                &Message::ExecutionDone {
                    round: RoundId(0),
                    machine: m,
                },
                &trues,
            )
            .unwrap();
        }
        c.seal().unwrap();
        let rates = (0..2).map(|i| c.allocation().unwrap().rate(i)).collect();
        let payments = c.payments().unwrap().to_vec();
        let bytes = journal.borrow().bytes().unwrap();
        (bytes, rates, payments)
    }

    /// Regression: a journal cut after the last `ExecutionObserved` resumes
    /// straight into settle, which used to run without opening the round
    /// span, so the recovered round left no `round` span in its recording.
    #[test]
    fn resume_into_settle_opens_the_round_span() {
        let mech = CompensationBonusMechanism::paper();
        let (bytes, _, _) = recorded_round(&mech);
        let replay = read_journal(&bytes).unwrap();
        let acked = replay
            .records
            .iter()
            .rposition(|r| matches!(r, JournalRecord::ExecutionObserved { .. }))
            .unwrap();
        let cut = crate::journal::JournalReplay::boundaries(&bytes)[acked + 1];
        let journal: Rc<RefCell<dyn Journal>> =
            Rc::new(RefCell::new(MemJournal::from_bytes(bytes[..cut].to_vec())));
        let ring = Arc::new(lb_telemetry::RingCollector::new(1024));
        let (mut c, report) = recover_round(
            &mech,
            journal,
            &ctx(2),
            Arc::clone(&ring) as Arc<dyn Collector>,
            0.0,
        )
        .unwrap();
        assert_eq!(report.phase, CoordinatorPhase::Executing);
        assert_eq!(c.resume(&[1.0, 2.0]).unwrap().len(), 2, "payment fan-out");
        c.seal().unwrap();
        c.end_telemetry();
        let spans = lb_telemetry::replay_spans(&ring.snapshot()).unwrap();
        assert!(spans.iter().any(|s| s.name == "round"));
        assert!(spans.iter().any(|s| s.name == "phase.settle"));
    }

    /// A journal whose `AllocationCommitted` rates are not the allocation
    /// of its bids (two rates swapped: still an allocation of the total)
    /// is a typed error at the settle, on resume and on a later settle,
    /// whether every acknowledgement was journalled or none was.
    #[test]
    fn committed_rates_unlike_the_rebuilt_side_are_a_typed_error() {
        let mech = CompensationBonusMechanism::paper();
        let (bytes, _, _) = recorded_round(&mech);
        let records = read_journal(&bytes).unwrap().records;
        let settled = records
            .iter()
            .position(|r| matches!(r, JournalRecord::PaymentsCommitted { .. }))
            .unwrap();
        let committed = records
            .iter()
            .position(|r| matches!(r, JournalRecord::AllocationCommitted { .. }))
            .unwrap();
        let mismatch = |r: Result<Vec<u32>, ProtocolError>| matches!(r, Err(ProtocolError::ReplayMismatch { what }) if what.contains("rates"));
        for (end, acked) in [(settled, true), (committed + 1, false)] {
            let mut tampered = Vec::new();
            for record in &records[..end] {
                let record = match record {
                    JournalRecord::AllocationCommitted {
                        rates,
                        estimated_exec,
                    } => JournalRecord::AllocationCommitted {
                        rates: vec![rates[1], rates[0]],
                        estimated_exec: estimated_exec.clone(),
                    },
                    other => other.clone(),
                };
                tampered.extend(encode_record(&record).unwrap());
            }
            let journal: Rc<RefCell<dyn Journal>> =
                Rc::new(RefCell::new(MemJournal::from_bytes(tampered)));
            let (mut c, report) =
                recover_round(&mech, journal, &ctx(2), noop_collector(), 0.0).unwrap();
            assert_eq!(report.phase, CoordinatorPhase::Executing);
            let resumed = c.resume(&[1.0, 2.0]);
            if acked {
                assert!(mismatch(resumed), "resume settles against the journal");
            } else {
                assert_eq!(resumed.unwrap(), [0, 1], "the assignments are re-sent");
            }
            assert!(mismatch(c.close_execution()));
            assert_eq!(c.phase(), CoordinatorPhase::Executing);
            assert!(c.payments().is_none());
        }
    }

    #[test]
    fn empty_journal_recovers_to_fresh_round() {
        let mech = CompensationBonusMechanism::paper();
        let journal: Rc<RefCell<dyn Journal>> = Rc::new(RefCell::new(MemJournal::new()));
        let (c, report) = recover_round(&mech, journal, &ctx(2), noop_collector(), 0.0).unwrap();
        assert_eq!(report.records_replayed, 0);
        assert_eq!(c.phase(), CoordinatorPhase::CollectingBids);
        assert!(!report.sealed);
    }

    #[test]
    fn full_journal_recovers_sealed_round_bit_identically() {
        let mech = CompensationBonusMechanism::paper();
        let (bytes, rates, payments) = recorded_round(&mech);
        let journal: Rc<RefCell<dyn Journal>> =
            Rc::new(RefCell::new(MemJournal::from_bytes(bytes)));
        let (mut c, report) =
            recover_round(&mech, journal, &ctx(2), noop_collector(), 0.0).unwrap();
        assert!(report.sealed);
        assert_eq!(report.phase, CoordinatorPhase::Done);
        assert!(report.records_replayed >= 6);
        for i in 0..2 {
            assert_eq!(
                c.allocation().unwrap().rate(i).to_bits(),
                rates[i].to_bits()
            );
            assert_eq!(c.payments().unwrap()[i].to_bits(), payments[i].to_bits());
        }
        // A sealed round has nothing left to send.
        assert!(c.resume(&[1.0, 2.0]).unwrap().is_empty());
    }

    #[test]
    fn recovery_from_every_prefix_completes_identically() {
        let mech = CompensationBonusMechanism::paper();
        let (bytes, rates, payments) = recorded_round(&mech);
        let trues = [1.0, 2.0];
        for cut in 0..=bytes.len() {
            let journal: Rc<RefCell<dyn Journal>> =
                Rc::new(RefCell::new(MemJournal::from_bytes(bytes[..cut].to_vec())));
            let (mut c, _) = recover_round(&mech, journal, &ctx(2), noop_collector(), 0.0).unwrap();
            // Finish the round: re-feed whatever the replayed state still
            // wants, exactly as the driver would.
            c.resume(&trues).unwrap();
            if c.phase() == CoordinatorPhase::CollectingBids {
                for m in 0..2u32 {
                    c.handle(
                        &Message::Bid {
                            round: RoundId(0),
                            machine: m,
                            value: trues[m as usize],
                        },
                        &trues,
                    )
                    .unwrap();
                }
            }
            if c.phase() == CoordinatorPhase::Executing {
                for m in 0..2u32 {
                    c.handle(
                        &Message::ExecutionDone {
                            round: RoundId(0),
                            machine: m,
                        },
                        &trues,
                    )
                    .unwrap();
                }
            }
            c.seal().unwrap();
            for i in 0..2 {
                assert_eq!(
                    c.allocation().unwrap().rate(i).to_bits(),
                    rates[i].to_bits(),
                    "cut at {cut}"
                );
                assert_eq!(
                    c.payments().unwrap()[i].to_bits(),
                    payments[i].to_bits(),
                    "cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn journal_for_a_different_round_starts_fresh() {
        let mech = CompensationBonusMechanism::paper();
        let (bytes, ..) = recorded_round(&mech);
        let journal: Rc<RefCell<dyn Journal>> =
            Rc::new(RefCell::new(MemJournal::from_bytes(bytes)));
        let mut other = ctx(2);
        other.round = RoundId(1);
        other.sim.seed = other.sim.seed.wrapping_add(1);
        let (c, report) = recover_round(&mech, journal, &other, noop_collector(), 0.0).unwrap();
        assert_eq!(report.records_replayed, 0);
        assert_eq!(c.phase(), CoordinatorPhase::CollectingBids);
    }

    #[test]
    fn corrupt_record_surfaces_as_journal_error() {
        let mech = CompensationBonusMechanism::paper();
        // A CRC-valid record whose payload is not a JournalRecord.
        let mut bytes = Vec::new();
        let payload = b"not a journal record".to_vec();
        bytes.extend_from_slice(&u32::try_from(payload.len()).unwrap().to_le_bytes());
        bytes.extend_from_slice(&crate::journal::crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let journal: Rc<RefCell<dyn Journal>> =
            Rc::new(RefCell::new(MemJournal::from_bytes(bytes)));
        let err = recover_round(&mech, journal, &ctx(2), noop_collector(), 0.0).unwrap_err();
        assert!(matches!(
            err,
            ProtocolError::Journal(JournalError::CorruptRecord { .. })
        ));
    }

    #[test]
    fn split_rounds_partitions_and_flags_sealed_blocks() {
        let records = vec![
            JournalRecord::RoundOpened {
                round: RoundId(0),
                n: 2,
                total_rate: 3.0,
            },
            JournalRecord::BidAccepted {
                machine: 0,
                value: 1.0,
            },
            JournalRecord::PaymentsCommitted {
                payments: vec![0.5, 0.25],
            },
            JournalRecord::RoundSealed,
            JournalRecord::RoundOpened {
                round: RoundId(1),
                n: 2,
                total_rate: 3.0,
            },
            JournalRecord::ExclusionDecided {
                machine: 1,
                reason: ExclusionReason::Quarantine,
            },
        ];
        let blocks = split_rounds(&records).unwrap();
        assert_eq!(blocks.len(), 2);
        assert!(blocks[0].sealed);
        assert_eq!(blocks[0].payments().unwrap(), &[0.5, 0.25]);
        assert!(blocks[0].quarantined().is_empty());
        assert!(!blocks[1].sealed);
        assert_eq!(blocks[1].quarantined(), vec![1]);
        assert_eq!(blocks[1].excluded(), vec![1]);
        assert!(blocks[1].payments().is_none());
    }

    #[test]
    fn record_before_round_opened_is_a_replay_mismatch() {
        let records = vec![JournalRecord::BidAccepted {
            machine: 0,
            value: 1.0,
        }];
        assert!(matches!(
            split_rounds(&records),
            Err(ProtocolError::ReplayMismatch { .. })
        ));
    }

    #[test]
    fn encode_record_roundtrips_through_read_journal() {
        // Sanity link between the two layers recovery depends on.
        let rec = JournalRecord::ExecutionObserved { machine: 7 };
        let bytes = encode_record(&rec).unwrap();
        let replay = read_journal(&bytes).unwrap();
        assert_eq!(replay.records, vec![rec]);
        assert_eq!(replay.truncated_tail, 0);
    }
}
