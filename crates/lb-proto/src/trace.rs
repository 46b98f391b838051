//! Protocol round tracing: record every frame, replay it later.
//!
//! Production mechanisms need an audit trail beyond the settlement record:
//! *who said what, when*. A [`RoundTrace`] captures a round's frames as the
//! coordinator saw them, in order — every frame it sent, at its send time,
//! and every frame it accepted, at its delivery time; a duplicate or stale
//! frame it rejects is counted as an anomaly, not traced (serializable through the wire codec, so traces can be
//! shipped or archived), and [`replay_check`] re-validates a trace against
//! the protocol's invariants — the off-line analogue of the coordinator's
//! on-line assertions.

use crate::message::Message;
use crate::network::Endpoint;

/// One frame of a round, as the coordinator saw it.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// Simulated time (seconds): the send time of a frame from the
    /// coordinator, the delivery time of a frame to it.
    pub at: f64,
    /// Sender.
    pub from: Endpoint,
    /// Receiver.
    pub to: Endpoint,
    /// The message.
    pub message: Message,
}

/// An ordered record of every frame the coordinator sent or accepted in
/// one round.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundTrace {
    /// Frames in the order the coordinator sent or accepted them.
    pub entries: Vec<TraceEntry>,
}

/// A violation found while replaying a trace.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceViolation {
    /// Delivery times went backwards at this entry index.
    TimeRegression(usize),
    /// A node answered a request it never received.
    UnsolicitedBid {
        /// Offending machine.
        machine: u32,
    },
    /// A machine bid more than once.
    DuplicateBid {
        /// Offending machine.
        machine: u32,
    },
    /// An assignment was sent before every expected bid arrived or was
    /// resolved by exclusion — the coordinator allocated early.
    PrematureAssign(usize),
    /// A payment was sent to a machine that was never assigned load.
    PaymentWithoutAssignment {
        /// Offending machine.
        machine: u32,
    },
}

/// A protocol irregularity observed *on-line* and absorbed gracefully.
///
/// This is the runtime counterpart of [`TraceViolation`]: where `replay_check`
/// flags problems in an archived trace, an `Anomaly` is recorded the moment a
/// graceful coordinator (or the chaos runtime) sees a message it must ignore.
/// A byzantine or chaotic network can therefore raise anomaly counts but can
/// never crash the mechanism centre.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Anomaly {
    /// A machine bid more than once in the collection phase.
    DuplicateBid,
    /// A machine reported execution completion more than once.
    DuplicateAck,
    /// A message carried a round id other than the current round.
    StaleRound,
    /// A message type arrived outside the phase that expects it.
    WrongPhase,
    /// A message referenced a machine outside the round's roster, or arrived
    /// from a participant with no standing in the round.
    Unsolicited,
    /// A bid from a machine already excluded by timeout — too late to count.
    StaleAfterExclusion,
    /// A frame failed its link-level integrity check and was discarded.
    CorruptFrame,
    /// A frame arrived at an endpoint that can never accept it (e.g. a
    /// coordinator-originated message echoed back to the coordinator).
    Misrouted,
}

impl Anomaly {
    /// Stable snake_case name, used as the telemetry `kind` field so
    /// recordings and metrics keys are greppable.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Anomaly::DuplicateBid => "duplicate_bid",
            Anomaly::DuplicateAck => "duplicate_ack",
            Anomaly::StaleRound => "stale_round",
            Anomaly::WrongPhase => "wrong_phase",
            Anomaly::Unsolicited => "unsolicited",
            Anomaly::StaleAfterExclusion => "stale_after_exclusion",
            Anomaly::CorruptFrame => "corrupt_frame",
            Anomaly::Misrouted => "misrouted",
        }
    }
}

/// Per-kind counters of absorbed [`Anomaly`] events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnomalyStats {
    /// Count of [`Anomaly::DuplicateBid`].
    pub duplicate_bids: u64,
    /// Count of [`Anomaly::DuplicateAck`].
    pub duplicate_acks: u64,
    /// Count of [`Anomaly::StaleRound`].
    pub stale_rounds: u64,
    /// Count of [`Anomaly::WrongPhase`].
    pub wrong_phase: u64,
    /// Count of [`Anomaly::Unsolicited`].
    pub unsolicited: u64,
    /// Count of [`Anomaly::StaleAfterExclusion`].
    pub stale_after_exclusion: u64,
    /// Count of [`Anomaly::CorruptFrame`].
    pub corrupt_frames: u64,
    /// Count of [`Anomaly::Misrouted`].
    pub misrouted: u64,
}

impl AnomalyStats {
    /// Records one occurrence of `anomaly`. Counters saturate rather than
    /// wrap: a hostile network can raise counts but never panic (debug) or
    /// silently reset (release) the audit trail.
    pub fn record(&mut self, anomaly: Anomaly) {
        let slot = match anomaly {
            Anomaly::DuplicateBid => &mut self.duplicate_bids,
            Anomaly::DuplicateAck => &mut self.duplicate_acks,
            Anomaly::StaleRound => &mut self.stale_rounds,
            Anomaly::WrongPhase => &mut self.wrong_phase,
            Anomaly::Unsolicited => &mut self.unsolicited,
            Anomaly::StaleAfterExclusion => &mut self.stale_after_exclusion,
            Anomaly::CorruptFrame => &mut self.corrupt_frames,
            Anomaly::Misrouted => &mut self.misrouted,
        };
        *slot = slot.saturating_add(1);
    }

    /// Total anomalies across all kinds (saturating).
    #[must_use]
    pub fn total(&self) -> u64 {
        [
            self.duplicate_bids,
            self.duplicate_acks,
            self.stale_rounds,
            self.wrong_phase,
            self.unsolicited,
            self.stale_after_exclusion,
            self.corrupt_frames,
            self.misrouted,
        ]
        .into_iter()
        .fold(0u64, u64::saturating_add)
    }

    /// Adds every counter of `other` into `self` (saturating).
    pub fn merge(&mut self, other: &AnomalyStats) {
        self.duplicate_bids = self.duplicate_bids.saturating_add(other.duplicate_bids);
        self.duplicate_acks = self.duplicate_acks.saturating_add(other.duplicate_acks);
        self.stale_rounds = self.stale_rounds.saturating_add(other.stale_rounds);
        self.wrong_phase = self.wrong_phase.saturating_add(other.wrong_phase);
        self.unsolicited = self.unsolicited.saturating_add(other.unsolicited);
        self.stale_after_exclusion = self
            .stale_after_exclusion
            .saturating_add(other.stale_after_exclusion);
        self.corrupt_frames = self.corrupt_frames.saturating_add(other.corrupt_frames);
        self.misrouted = self.misrouted.saturating_add(other.misrouted);
    }
}

/// Replays a trace and checks the protocol's causal invariants.
///
/// `n` is the number of machines the round was opened with. Returns every
/// violation found (empty = clean trace).
#[must_use]
pub fn replay_check(trace: &RoundTrace, n: usize) -> Vec<TraceViolation> {
    let mut violations = Vec::new();
    let mut last_time = f64::NEG_INFINITY;
    let mut requested = vec![false; n];
    let mut bid = vec![false; n];
    let mut assigned = vec![false; n];
    // A machine that never bids anywhere in the trace counts as excluded;
    // one that bids later is unresolved until its first bid arrives.
    let mut bids_somewhere = vec![false; n];
    for entry in &trace.entries {
        if let (Endpoint::Coordinator, Message::Bid { machine, .. }) = (&entry.to, &entry.message) {
            if let Some(slot) = bids_somewhere.get_mut(*machine as usize) {
                *slot = true;
            }
        }
    }
    let mut unresolved = bids_somewhere.iter().filter(|&&b| b).count();

    for (idx, entry) in trace.entries.iter().enumerate() {
        if entry.at < last_time {
            violations.push(TraceViolation::TimeRegression(idx));
        }
        last_time = entry.at;
        match (&entry.to, &entry.message) {
            (Endpoint::Node(i), Message::RequestBid { .. }) => {
                if let Some(slot) = requested.get_mut(*i as usize) {
                    *slot = true;
                }
            }
            (Endpoint::Coordinator, Message::Bid { machine, .. }) => {
                let m = *machine as usize;
                if !requested.get(m).copied().unwrap_or(false) {
                    violations.push(TraceViolation::UnsolicitedBid { machine: *machine });
                }
                match bid.get_mut(m) {
                    Some(true) => {
                        violations.push(TraceViolation::DuplicateBid { machine: *machine });
                    }
                    Some(slot) => {
                        *slot = true;
                        unresolved -= 1;
                    }
                    None => {}
                }
            }
            (Endpoint::Node(i), Message::Assign { .. }) => {
                // Allocation must wait for the full bid picture: every machine
                // has either bid or been excluded (never assigned later).
                if unresolved > 0 {
                    violations.push(TraceViolation::PrematureAssign(idx));
                }
                if let Some(slot) = assigned.get_mut(*i as usize) {
                    *slot = true;
                }
            }
            (Endpoint::Node(i), Message::Payment { .. })
                if !assigned.get(*i as usize).copied().unwrap_or(false) =>
            {
                violations.push(TraceViolation::PaymentWithoutAssignment { machine: *i });
            }
            _ => {}
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::RoundId;

    fn clean_trace() -> RoundTrace {
        let r = RoundId(0);
        RoundTrace {
            entries: vec![
                TraceEntry {
                    at: 0.0,
                    from: Endpoint::Coordinator,
                    to: Endpoint::Node(0),
                    message: Message::RequestBid { round: r },
                },
                TraceEntry {
                    at: 0.0,
                    from: Endpoint::Coordinator,
                    to: Endpoint::Node(1),
                    message: Message::RequestBid { round: r },
                },
                TraceEntry {
                    at: 0.1,
                    from: Endpoint::Node(0),
                    to: Endpoint::Coordinator,
                    message: Message::Bid {
                        round: r,
                        machine: 0,
                        value: 1.0,
                    },
                },
                TraceEntry {
                    at: 0.2,
                    from: Endpoint::Node(1),
                    to: Endpoint::Coordinator,
                    message: Message::Bid {
                        round: r,
                        machine: 1,
                        value: 2.0,
                    },
                },
                TraceEntry {
                    at: 0.3,
                    from: Endpoint::Coordinator,
                    to: Endpoint::Node(0),
                    message: Message::Assign {
                        round: r,
                        rate: 2.0,
                    },
                },
                TraceEntry {
                    at: 0.3,
                    from: Endpoint::Coordinator,
                    to: Endpoint::Node(1),
                    message: Message::Assign {
                        round: r,
                        rate: 1.0,
                    },
                },
                TraceEntry {
                    at: 0.4,
                    from: Endpoint::Node(0),
                    to: Endpoint::Coordinator,
                    message: Message::ExecutionDone {
                        round: r,
                        machine: 0,
                    },
                },
                TraceEntry {
                    at: 0.5,
                    from: Endpoint::Node(1),
                    to: Endpoint::Coordinator,
                    message: Message::ExecutionDone {
                        round: r,
                        machine: 1,
                    },
                },
                TraceEntry {
                    at: 0.6,
                    from: Endpoint::Coordinator,
                    to: Endpoint::Node(0),
                    message: Message::Payment {
                        round: r,
                        amount: 3.0,
                    },
                },
                TraceEntry {
                    at: 0.6,
                    from: Endpoint::Coordinator,
                    to: Endpoint::Node(1),
                    message: Message::Payment {
                        round: r,
                        amount: 1.0,
                    },
                },
            ],
        }
    }

    #[test]
    fn clean_trace_replays_without_violations() {
        assert!(replay_check(&clean_trace(), 2).is_empty());
    }

    #[test]
    fn time_regression_is_flagged() {
        let mut t = clean_trace();
        t.entries[3].at = 0.05; // before the previous entry
        let v = replay_check(&t, 2);
        assert!(v.contains(&TraceViolation::TimeRegression(3)), "{v:?}");
    }

    #[test]
    fn unsolicited_and_duplicate_bids_are_flagged() {
        let mut t = clean_trace();
        t.entries.remove(1); // node 1 never got a request
        let v = replay_check(&t, 2);
        assert!(
            v.contains(&TraceViolation::UnsolicitedBid { machine: 1 }),
            "{v:?}"
        );

        let mut t = clean_trace();
        let dup = t.entries[2].clone();
        t.entries.insert(3, dup);
        let v = replay_check(&t, 2);
        assert!(
            v.contains(&TraceViolation::DuplicateBid { machine: 0 }),
            "{v:?}"
        );
    }

    #[test]
    fn premature_assignment_is_flagged() {
        let mut t = clean_trace();
        // Move the first Assign before node 1's bid.
        let assign = t.entries.remove(4);
        t.entries.insert(3, TraceEntry { at: 0.15, ..assign });
        let v = replay_check(&t, 2);
        assert!(
            v.iter()
                .any(|x| matches!(x, TraceViolation::PrematureAssign(_))),
            "{v:?}"
        );
        // A third machine that never bids was excluded: it does not hold
        // up the allocation, and it does not excuse the premature one.
        assert!(replay_check(&clean_trace(), 3).is_empty());
        assert_eq!(
            replay_check(&t, 3),
            vec![TraceViolation::PrematureAssign(3)],
        );
    }

    #[test]
    fn payment_without_assignment_is_flagged() {
        let mut t = clean_trace();
        t.entries
            .retain(|e| !matches!(e.message, Message::Assign { .. }));
        let v = replay_check(&t, 2);
        assert!(
            v.contains(&TraceViolation::PaymentWithoutAssignment { machine: 0 }),
            "{v:?}"
        );
    }

    #[test]
    fn anomaly_stats_record_total_and_merge() {
        let mut a = AnomalyStats::default();
        a.record(Anomaly::DuplicateBid);
        a.record(Anomaly::DuplicateBid);
        a.record(Anomaly::StaleRound);
        assert_eq!(a.duplicate_bids, 2);
        assert_eq!(a.total(), 3);

        let mut b = AnomalyStats::default();
        b.record(Anomaly::CorruptFrame);
        b.record(Anomaly::Misrouted);
        b.record(Anomaly::DuplicateAck);
        b.record(Anomaly::WrongPhase);
        b.record(Anomaly::Unsolicited);
        b.record(Anomaly::StaleAfterExclusion);
        a.merge(&b);
        assert_eq!(a.total(), 9);
        assert_eq!(a.corrupt_frames, 1);
        assert_eq!(a.stale_after_exclusion, 1);
    }

    #[test]
    fn anomaly_stats_merge_with_empty_is_identity() {
        let mut a = AnomalyStats::default();
        for k in [
            Anomaly::DuplicateBid,
            Anomaly::DuplicateAck,
            Anomaly::StaleRound,
            Anomaly::WrongPhase,
            Anomaly::Unsolicited,
            Anomaly::StaleAfterExclusion,
            Anomaly::CorruptFrame,
            Anomaly::Misrouted,
        ] {
            a.record(k);
        }
        let before = a;

        // merging the empty stats changes nothing…
        a.merge(&AnomalyStats::default());
        assert_eq!(a, before);

        // …and merging *into* the empty stats reproduces the original.
        let mut empty = AnomalyStats::default();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn anomaly_stats_saturate_instead_of_overflowing() {
        let mut a = AnomalyStats {
            duplicate_bids: u64::MAX,
            ..AnomalyStats::default()
        };
        // One more duplicate bid must not wrap the counter.
        a.record(Anomaly::DuplicateBid);
        assert_eq!(a.duplicate_bids, u64::MAX);

        // total() saturates across kinds rather than overflowing the sum.
        a.corrupt_frames = u64::MAX;
        assert_eq!(a.total(), u64::MAX);

        // merge() saturates per counter.
        let mut b = AnomalyStats {
            duplicate_bids: 1,
            misrouted: 7,
            ..AnomalyStats::default()
        };
        b.merge(&a);
        assert_eq!(b.duplicate_bids, u64::MAX);
        assert_eq!(b.misrouted, 7);
    }

    #[test]
    fn anomaly_names_are_stable_and_distinct() {
        let kinds = [
            Anomaly::DuplicateBid,
            Anomaly::DuplicateAck,
            Anomaly::StaleRound,
            Anomaly::WrongPhase,
            Anomaly::Unsolicited,
            Anomaly::StaleAfterExclusion,
            Anomaly::CorruptFrame,
            Anomaly::Misrouted,
        ];
        let names: std::collections::BTreeSet<&str> = kinds.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), kinds.len());
        assert!(names
            .iter()
            .all(|n| n.chars().all(|c| c.is_ascii_lowercase() || c == '_')));
    }

    #[test]
    fn record_counts_only_the_touched_kinds() {
        let mut a = AnomalyStats::default();
        a.record(Anomaly::StaleRound);
        a.record(Anomaly::StaleRound);
        a.record(Anomaly::Misrouted);
        let expected = AnomalyStats {
            stale_rounds: 2,
            misrouted: 1,
            ..AnomalyStats::default()
        };
        assert_eq!(a, expected);
        assert_eq!(a.total(), 3);
    }
}
