//! [`Wire`] for the types that reach the wire or the journal, following the
//! layout table in the module docs.

use super::{CodecError, Decoder, Wire};
use crate::audit::SettlementRecord;
use crate::journal::{ExclusionReason, JournalRecord};
use crate::message::{Message, RoundId};

impl Wire for RoundId {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
    }
    fn take(input: &mut Decoder<'_>) -> Result<Self, CodecError> {
        input.get().map(Self)
    }
}

impl Wire for Message {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Self::RequestBid { round } => {
                0u32.put(out);
                round.put(out);
            }
            Self::Bid {
                round,
                machine,
                value,
            } => {
                1u32.put(out);
                round.put(out);
                machine.put(out);
                value.put(out);
            }
            Self::Assign { round, rate } => {
                2u32.put(out);
                round.put(out);
                rate.put(out);
            }
            Self::ExecutionDone { round, machine } => {
                3u32.put(out);
                round.put(out);
                machine.put(out);
            }
            Self::Payment { round, amount } => {
                4u32.put(out);
                round.put(out);
                amount.put(out);
            }
            Self::ShardSum {
                round,
                shard,
                sum_hi,
                sum_lo,
            } => {
                5u32.put(out);
                round.put(out);
                shard.put(out);
                sum_hi.put(out);
                sum_lo.put(out);
            }
            Self::ShardEstimates {
                round,
                shard,
                estimates,
            } => {
                6u32.put(out);
                round.put(out);
                shard.put(out);
                estimates.put(out);
            }
        }
    }

    fn take(input: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(match input.get::<u32>()? {
            0 => Self::RequestBid {
                round: input.get()?,
            },
            1 => Self::Bid {
                round: input.get()?,
                machine: input.get()?,
                value: input.get()?,
            },
            2 => Self::Assign {
                round: input.get()?,
                rate: input.get()?,
            },
            3 => Self::ExecutionDone {
                round: input.get()?,
                machine: input.get()?,
            },
            4 => Self::Payment {
                round: input.get()?,
                amount: input.get()?,
            },
            5 => Self::ShardSum {
                round: input.get()?,
                shard: input.get()?,
                sum_hi: input.get()?,
                sum_lo: input.get()?,
            },
            6 => Self::ShardEstimates {
                round: input.get()?,
                shard: input.get()?,
                estimates: input.get()?,
            },
            tag => return Err(CodecError::InvalidVariant(tag)),
        })
    }
}

impl Wire for ExclusionReason {
    fn put(&self, out: &mut Vec<u8>) {
        let tag: u32 = match self {
            Self::Quarantine => 0,
            Self::Timeout => 1,
        };
        tag.put(out);
    }
    fn take(input: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match input.get::<u32>()? {
            0 => Ok(Self::Quarantine),
            1 => Ok(Self::Timeout),
            tag => Err(CodecError::InvalidVariant(tag)),
        }
    }
}

impl Wire for JournalRecord {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Self::RoundOpened {
                round,
                n,
                total_rate,
            } => {
                0u32.put(out);
                round.put(out);
                n.put(out);
                total_rate.put(out);
            }
            Self::BidAccepted { machine, value } => {
                1u32.put(out);
                machine.put(out);
                value.put(out);
            }
            Self::ExclusionDecided { machine, reason } => {
                2u32.put(out);
                machine.put(out);
                reason.put(out);
            }
            Self::AllocationCommitted {
                rates,
                estimated_exec,
            } => {
                3u32.put(out);
                rates.put(out);
                estimated_exec.put(out);
            }
            Self::ExecutionObserved { machine } => {
                4u32.put(out);
                machine.put(out);
            }
            Self::PaymentsCommitted { payments } => {
                5u32.put(out);
                payments.put(out);
            }
            Self::RoundSealed => 6u32.put(out),
            Self::LedgerSealed { digest } => {
                7u32.put(out);
                digest.put(out);
            }
        }
    }

    fn take(input: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(match input.get::<u32>()? {
            0 => Self::RoundOpened {
                round: input.get()?,
                n: input.get()?,
                total_rate: input.get()?,
            },
            1 => Self::BidAccepted {
                machine: input.get()?,
                value: input.get()?,
            },
            2 => Self::ExclusionDecided {
                machine: input.get()?,
                reason: input.get()?,
            },
            3 => Self::AllocationCommitted {
                rates: input.get()?,
                estimated_exec: input.get()?,
            },
            4 => Self::ExecutionObserved {
                machine: input.get()?,
            },
            5 => Self::PaymentsCommitted {
                payments: input.get()?,
            },
            6 => Self::RoundSealed,
            7 => Self::LedgerSealed {
                digest: input.get()?,
            },
            tag => return Err(CodecError::InvalidVariant(tag)),
        })
    }
}

impl Wire for SettlementRecord {
    fn put(&self, out: &mut Vec<u8>) {
        self.bids.put(out);
        self.estimated_exec_values.put(out);
        self.total_rate.put(out);
        self.claimed_payments.put(out);
    }
    fn take(input: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            bids: input.get()?,
            estimated_exec_values: input.get()?,
            total_rate: input.get()?,
            claimed_payments: input.get()?,
        })
    }
}

/// Golden frames: every expected byte string below is written out by hand
/// from the layout table in the module docs, one field per line, so a change
/// to the encoding fails here even if encode and decode change together.
#[cfg(test)]
#[rustfmt::skip]
mod golden {
    use super::*;
    use crate::codec::{decode, decode_with_context, encode, encode_with_context};
    use lb_telemetry::TraceContext;

    // f64 constants used below, as little-endian IEEE-754 bytes.
    const F_0_5: [u8; 8] = [0, 0, 0, 0, 0, 0, 0xE0, 0x3F]; // 0x3FE0_0000_0000_0000
    const F_1_5: [u8; 8] = [0, 0, 0, 0, 0, 0, 0xF8, 0x3F]; // 0x3FF8_0000_0000_0000
    const F_2_0: [u8; 8] = [0, 0, 0, 0, 0, 0, 0x00, 0x40]; // 0x4000_0000_0000_0000
    const F_NEG_1: [u8; 8] = [0, 0, 0, 0, 0, 0, 0xF0, 0xBF]; // 0xBFF0_0000_0000_0000

    fn frame(fields: &[&[u8]]) -> Vec<u8> {
        fields.concat()
    }

    fn assert_golden<T: Wire + PartialEq + std::fmt::Debug>(value: &T, expected: &[u8]) {
        assert_eq!(encode(value), expected, "encoding of {value:?}");
        assert_eq!(decode::<T>(expected).as_ref(), Ok(value));
    }

    #[test]
    fn message_frames_match_the_layout() {
        let round = &[9, 0, 0, 0, 0, 0, 0, 0][..]; // round 9
        assert_golden(
            &Message::RequestBid { round: RoundId(9) },
            &frame(&[&[0, 0, 0, 0], round]),
        );
        assert_golden(
            &Message::Bid { round: RoundId(9), machine: 3, value: 1.5 },
            &frame(&[&[1, 0, 0, 0], round, &[3, 0, 0, 0], &F_1_5]),
        );
        assert_golden(
            &Message::Assign { round: RoundId(9), rate: 2.0 },
            &frame(&[&[2, 0, 0, 0], round, &F_2_0]),
        );
        assert_golden(
            &Message::ExecutionDone { round: RoundId(9), machine: 0x0102 },
            &frame(&[&[3, 0, 0, 0], round, &[0x02, 0x01, 0, 0]]),
        );
        assert_golden(
            &Message::Payment { round: RoundId(9), amount: -1.0 },
            &frame(&[&[4, 0, 0, 0], round, &F_NEG_1]),
        );
        assert_golden(
            &Message::ShardSum { round: RoundId(9), shard: 2, sum_hi: 1.5, sum_lo: 0.5 },
            &frame(&[&[5, 0, 0, 0], round, &[2, 0, 0, 0], &F_1_5, &F_0_5]),
        );
        assert_golden(
            &Message::ShardEstimates { round: RoundId(9), shard: 1, estimates: vec![2.0, 0.5] },
            &frame(&[
                &[6, 0, 0, 0], round, &[1, 0, 0, 0],
                &[2, 0, 0, 0, 0, 0, 0, 0], &F_2_0, &F_0_5, // count 2, elements
            ]),
        );
    }

    #[test]
    fn journal_frames_match_the_layout() {
        assert_golden(
            &JournalRecord::RoundOpened { round: RoundId(9), n: 3, total_rate: 2.0 },
            &frame(&[&[0, 0, 0, 0], &[9, 0, 0, 0, 0, 0, 0, 0], &[3, 0, 0, 0], &F_2_0]),
        );
        assert_golden(
            &JournalRecord::BidAccepted { machine: 1, value: 1.5 },
            &frame(&[&[1, 0, 0, 0], &[1, 0, 0, 0], &F_1_5]),
        );
        assert_golden(
            &JournalRecord::ExclusionDecided { machine: 2, reason: ExclusionReason::Quarantine },
            &frame(&[&[2, 0, 0, 0], &[2, 0, 0, 0], &[0, 0, 0, 0]]),
        );
        assert_golden(
            &JournalRecord::ExclusionDecided { machine: 2, reason: ExclusionReason::Timeout },
            &frame(&[&[2, 0, 0, 0], &[2, 0, 0, 0], &[1, 0, 0, 0]]),
        );
        assert_golden(
            &JournalRecord::AllocationCommitted { rates: vec![1.5], estimated_exec: vec![] },
            &frame(&[
                &[3, 0, 0, 0],
                &[1, 0, 0, 0, 0, 0, 0, 0], &F_1_5, // rates
                &[0; 8],                           // estimated_exec: empty
            ]),
        );
        assert_golden(
            &JournalRecord::ExecutionObserved { machine: 7 },
            &frame(&[&[4, 0, 0, 0], &[7, 0, 0, 0]]),
        );
        assert_golden(
            &JournalRecord::PaymentsCommitted { payments: vec![-1.0, 0.5] },
            &frame(&[&[5, 0, 0, 0], &[2, 0, 0, 0, 0, 0, 0, 0], &F_NEG_1, &F_0_5]),
        );
        assert_golden(&JournalRecord::RoundSealed, &[6, 0, 0, 0]);
        assert_golden(
            &JournalRecord::LedgerSealed { digest: 0x0807_0605_0403_0201 },
            &frame(&[&[7, 0, 0, 0], &[1, 2, 3, 4, 5, 6, 7, 8]]),
        );
    }

    #[test]
    fn settlement_record_matches_the_layout() {
        let record = SettlementRecord {
            bids: vec![2.0],
            estimated_exec_values: vec![0.5],
            total_rate: 1.5,
            claimed_payments: vec![-1.0],
        };
        assert_golden(
            &record,
            &frame(&[
                &[1, 0, 0, 0, 0, 0, 0, 0], &F_2_0,
                &[1, 0, 0, 0, 0, 0, 0, 0], &F_0_5,
                &F_1_5,
                &[1, 0, 0, 0, 0, 0, 0, 0], &F_NEG_1,
            ]),
        );
    }

    #[test]
    fn bid_with_trace_trailer_matches_the_layout() {
        let ctx = TraceContext {
            trace_id: 0x1F1E_1D1C_1B1A_1918_1716_1514_1312_1110,
            span_id: 0x2726_2524_2322_2120,
            sampled: true,
        };
        let msg = Message::Bid { round: RoundId(9), machine: 3, value: 1.5 };
        let expected = frame(&[
            &[1, 0, 0, 0], &[9, 0, 0, 0, 0, 0, 0, 0], &[3, 0, 0, 0], &F_1_5,
            // trailer: magic "TC", version 1, trace id, span id, flags
            &[0x54, 0x43], &[1],
            &[0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17,
              0x18, 0x19, 0x1A, 0x1B, 0x1C, 0x1D, 0x1E, 0x1F],
            &[0x20, 0x21, 0x22, 0x23, 0x24, 0x25, 0x26, 0x27],
            &[1],
        ]);
        assert_eq!(expected.len(), 24 + 28);
        assert_eq!(encode_with_context(&msg, Some(&ctx)), expected);
        assert_eq!(decode_with_context::<Message>(&expected), Ok((msg, Some(ctx))));
    }
}
