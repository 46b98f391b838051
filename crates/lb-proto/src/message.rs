//! Protocol message vocabulary.
//!
//! One round of the paper's centralized protocol exchanges, per machine:
//! a bid request, a bid, an allocation, and a payment — `O(n)` messages.
//! Job completions are data-plane traffic observed by the coordinator's
//! monitoring (the verification), not control messages, so they do not enter
//! the message count (matching the paper's `O(n)` figure).

/// Identifier of a protocol round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RoundId(pub u64);

/// Messages exchanged between the coordinator (the mechanism) and the nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Coordinator → node: report your latency parameter for this round.
    RequestBid {
        /// Round being negotiated.
        round: RoundId,
    },
    /// Node → coordinator: the declared (possibly untruthful) value.
    Bid {
        /// Round this bid belongs to.
        round: RoundId,
        /// Sender machine index.
        machine: u32,
        /// Declared latency parameter `b_i`.
        value: f64,
    },
    /// Coordinator → node: your assigned job arrival rate for this round.
    Assign {
        /// Round being executed.
        round: RoundId,
        /// Assigned rate `x_i`.
        rate: f64,
    },
    /// Node → coordinator: execution finished (carries no trusted data —
    /// the coordinator has *measured* the node's rate itself).
    ExecutionDone {
        /// Round that finished.
        round: RoundId,
        /// Sender machine index.
        machine: u32,
    },
    /// Coordinator → node: your payment for this round.
    Payment {
        /// Round being settled.
        round: RoundId,
        /// Payment amount (may be negative — a fine).
        amount: f64,
    },
    /// Shard → root: the shard's partial harmonic sum `Σ 1/b_i` over its
    /// respondent bids, carried as the two limbs of a double-double so the
    /// merged total is bit-identical to a single-coordinator round.
    ShardSum {
        /// Round being aggregated.
        round: RoundId,
        /// Shard index (not a machine index).
        shard: u32,
        /// High limb of the partial double-double sum.
        sum_hi: f64,
        /// Low (compensation) limb of the partial double-double sum.
        sum_lo: f64,
    },
    /// Shard → root: verified execution-rate estimates for the shard's
    /// respondents, in ascending machine order within the shard.
    ShardEstimates {
        /// Round being aggregated.
        round: RoundId,
        /// Shard index (not a machine index).
        shard: u32,
        /// Estimated `t̃_i` per respondent, shard-local respondent order.
        estimates: Vec<f64>,
    },
}

impl Message {
    /// The round this message belongs to.
    #[must_use]
    pub fn round(&self) -> RoundId {
        match self {
            Self::RequestBid { round }
            | Self::Bid { round, .. }
            | Self::Assign { round, .. }
            | Self::ExecutionDone { round, .. }
            | Self::Payment { round, .. }
            | Self::ShardSum { round, .. }
            | Self::ShardEstimates { round, .. } => *round,
        }
    }

    /// Stable snake_case name of the message variant, used as the telemetry
    /// `kind` field on network events.
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self {
            Self::RequestBid { .. } => "request_bid",
            Self::Bid { .. } => "bid",
            Self::Assign { .. } => "assign",
            Self::ExecutionDone { .. } => "execution_done",
            Self::Payment { .. } => "payment",
            Self::ShardSum { .. } => "shard_sum",
            Self::ShardEstimates { .. } => "shard_estimates",
        }
    }

    /// The sender machine index, for node-originated messages.
    #[must_use]
    pub fn machine(&self) -> Option<u32> {
        match self {
            Self::Bid { machine, .. } | Self::ExecutionDone { machine, .. } => Some(*machine),
            Self::RequestBid { .. }
            | Self::Assign { .. }
            | Self::Payment { .. }
            | Self::ShardSum { .. }
            | Self::ShardEstimates { .. } => None,
        }
    }

    /// Short label for tracing.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Self::RequestBid { .. } => "request-bid",
            Self::Bid { .. } => "bid",
            Self::Assign { .. } => "assign",
            Self::ExecutionDone { .. } => "execution-done",
            Self::Payment { .. } => "payment",
            Self::ShardSum { .. } => "shard-sum",
            Self::ShardEstimates { .. } => "shard-estimates",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode, encode};

    #[test]
    fn all_messages_roundtrip_through_codec() {
        let msgs = [
            Message::RequestBid { round: RoundId(1) },
            Message::Bid {
                round: RoundId(1),
                machine: 3,
                value: 2.5,
            },
            Message::Assign {
                round: RoundId(1),
                rate: 4.25,
            },
            Message::ExecutionDone {
                round: RoundId(1),
                machine: 3,
            },
            Message::Payment {
                round: RoundId(1),
                amount: -19.4,
            },
            Message::ShardSum {
                round: RoundId(1),
                shard: 2,
                sum_hi: 1.5,
                sum_lo: -1e-18,
            },
            Message::ShardEstimates {
                round: RoundId(1),
                shard: 2,
                estimates: vec![1.0, 2.5, 4.125],
            },
        ];
        for m in &msgs {
            let bytes = encode(m);
            let back: Message = decode(&bytes).unwrap();
            assert_eq!(&back, m);
        }
    }

    #[test]
    fn round_and_kind_accessors() {
        let m = Message::Payment {
            round: RoundId(7),
            amount: 1.0,
        };
        assert_eq!(m.round(), RoundId(7));
        assert_eq!(m.kind(), "payment");
        assert_eq!(m.machine(), None);
        assert_eq!(
            Message::RequestBid { round: RoundId(0) }.kind(),
            "request-bid"
        );
        let b = Message::Bid {
            round: RoundId(7),
            machine: 4,
            value: 1.0,
        };
        assert_eq!(b.machine(), Some(4));
    }

    #[test]
    fn message_stays_forty_bytes_wide() {
        // Every per-machine frame is held as a `Message`.
        assert!(std::mem::size_of::<Message>() <= 40);
    }

    #[test]
    fn wire_size_is_compact() {
        let m = Message::Bid {
            round: RoundId(1),
            machine: 3,
            value: 2.5,
        };
        // 4 (variant) + 8 (round) + 4 (machine) + 8 (value) = 24 bytes.
        assert_eq!(encode(&m).len(), 24);
    }
}
