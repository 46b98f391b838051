//! Compact binary wire format.
//!
//! A non-self-describing, little-endian binary encoding. Each type that
//! reaches the wire or the journal implements [`Wire`] by hand (see
//! `types.rs`), writing its fields in declaration order. Decoding requires
//! the exact type that was encoded, which is the right trade-off for a
//! protocol whose two endpoints share one message vocabulary.
//!
//! # Byte layout
//!
//! | field | bytes |
//! |---|---|
//! | `u32` | 4, little-endian |
//! | `u64` | 8, little-endian |
//! | `f64` | 8, the IEEE-754 bits as a little-endian `u64` |
//! | `Vec<f64>`, `Vec<u64>` | `u64` element count, then the elements |
//! | `Option<(u64, f64)>` | tag byte `0` (none) or `1` (some), then the pair |
//! | enum | `u32` variant tag (declaration order), then the variant's fields |
//! | struct | its fields in declaration order, no padding |
//!
//! [`RoundId`](crate::RoundId) is its `u64`. The wire types, with their
//! variant tags:
//!
//! ```text
//! Message
//!   0 RequestBid          round:u64
//!   1 Bid                 round:u64 machine:u32 value:f64
//!   2 Assign              round:u64 rate:f64
//!   3 ExecutionDone       round:u64 machine:u32
//!   4 Payment             round:u64 amount:f64
//!   5 ShardSum            round:u64 shard:u32 sum_hi:f64 sum_lo:f64
//!   6 ShardEstimates      round:u64 shard:u32 estimates:Vec<f64>
//!   7 ShardProfile        round:u64 shard:u32 profile:WireShardProfile
//! WireShardProfile        shard:u32 machines:u64 machine_wall:WireSketch
//!                         slowest:Option<(u64, f64)>
//! WireSketch              count:u64 mean:f64 m2:f64 min:f64 max:f64 sum:f64
//!                         log_lo:f64 log_hi:f64 bins:Vec<u64>
//!                         underflow:u64 overflow:u64
//! JournalRecord
//!   0 RoundOpened         round:u64 n:u32 total_rate:f64
//!   1 BidAccepted         machine:u32 value:f64
//!   2 ExclusionDecided    machine:u32 reason:ExclusionReason
//!   3 AllocationCommitted rates:Vec<f64> estimated_exec:Vec<f64>
//!   4 ExecutionObserved   machine:u32
//!   5 PaymentsCommitted   payments:Vec<f64>
//!   6 RoundSealed
//!   7 LedgerSealed        digest:u64
//! ExclusionReason         0 Quarantine, 1 Timeout (tag only)
//! SettlementRecord        bids:Vec<f64> estimated_exec_values:Vec<f64>
//!                         total_rate:f64 claimed_payments:Vec<f64>
//! ```
//!
//! A `Bid` is therefore 24 bytes: tag `1`, round, machine, value. Decoding
//! rejects truncated input, unknown variant tags, option tags other than
//! `0`/`1`, element counts beyond the remaining input (before anything is
//! allocated) and unexplained trailing bytes, each as a typed
//! [`CodecError`].
//!
//! # Trace-context trailer
//!
//! [`encode_with_context`] / [`decode_with_context`] carry an optional
//! [`TraceContext`] as a fixed-size trailer *after* the encoded message,
//! inside the same frame payload. The trailer is self-delimiting (magic +
//! version + fixed length), so a receiver that knows about it can peel it
//! off, while the message encoding itself is byte-identical to the plain
//! [`encode`] output — frames written without a trailer decode unchanged,
//! which keeps old recordings and uninstrumented runs bit-compatible.

mod error;
mod types;

use lb_telemetry::{TraceContext, TRAILER_LEN};

pub use error::CodecError;

/// A type with a fixed binary encoding (see the module docs for the
/// layout).
pub trait Wire: Sized {
    /// Appends this value's encoding to `out`.
    fn put(&self, out: &mut Vec<u8>);

    /// Reads one value from the front of `input`.
    ///
    /// # Errors
    /// Returns [`CodecError`] for truncated or corrupt input.
    fn take(input: &mut Decoder<'_>) -> Result<Self, CodecError>;
}

/// Encodes a value into its wire representation.
#[must_use]
pub fn encode<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    value.put(&mut out);
    out
}

/// Decodes a value from its wire representation, requiring the input to be
/// consumed exactly.
///
/// # Errors
/// Returns [`CodecError`] for truncated, corrupt or trailing input.
pub fn decode<T: Wire>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut input = Decoder::new(bytes);
    let value = T::take(&mut input)?;
    match input.remaining() {
        0 => Ok(value),
        rest => Err(CodecError::TrailingBytes(rest)),
    }
}

/// Encodes `value`, appending `ctx` as a fixed-size trace trailer when
/// present. With `ctx == None` the output is byte-identical to [`encode`],
/// so uninstrumented traffic never changes on the wire.
#[must_use]
pub fn encode_with_context<T: Wire>(value: &T, ctx: Option<&TraceContext>) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    put_with_context(&mut out, value, ctx);
    out
}

/// Appends [`encode_with_context`]'s bytes to `out`, so a caller can reuse
/// one buffer for many frames.
pub(crate) fn put_with_context<T: Wire>(out: &mut Vec<u8>, value: &T, ctx: Option<&TraceContext>) {
    value.put(out);
    if let Some(ctx) = ctx {
        out.extend_from_slice(&ctx.to_trailer());
    }
}

/// Decodes a value that may carry a trace-context trailer.
///
/// Exactly-consumed input decodes as `(value, None)`; input whose leftover
/// is one well-formed trailer decodes as `(value, Some(ctx))`. Any other
/// leftover — wrong length, bad magic, unknown version, reserved flag bits —
/// is rejected as [`CodecError::TrailingBytes`], exactly as the plain
/// [`decode`] would reject it.
///
/// # Errors
/// Returns [`CodecError`] for truncated, corrupt or unexplained trailing
/// input.
pub fn decode_with_context<T: Wire>(bytes: &[u8]) -> Result<(T, Option<TraceContext>), CodecError> {
    let mut input = Decoder::new(bytes);
    let value = T::take(&mut input)?;
    let rest = input.remaining();
    if rest == 0 {
        return Ok((value, None));
    }
    if rest == TRAILER_LEN {
        if let Some(ctx) = TraceContext::from_trailer(&bytes[bytes.len() - rest..]) {
            return Ok((value, Some(ctx)));
        }
    }
    Err(CodecError::TrailingBytes(rest))
}

/// Reading cursor over a borrowed byte slice.
#[derive(Debug)]
pub struct Decoder<'a> {
    input: &'a [u8],
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `input`.
    #[must_use]
    pub fn new(input: &'a [u8]) -> Self {
        Self { input }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.input.len()
    }

    /// Reads one value of type `T`.
    ///
    /// # Errors
    /// Returns [`CodecError`] for truncated or corrupt input.
    pub fn get<T: Wire>(&mut self) -> Result<T, CodecError> {
        T::take(self)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let Some((head, tail)) = self.input.split_first_chunk::<N>() else {
            return Err(CodecError::UnexpectedEof {
                needed: N,
                available: self.input.len(),
            });
        };
        self.input = tail;
        Ok(*head)
    }

    /// Reads a `u64` element count. A sequence of `len` elements needs at
    /// least one byte each, so any count beyond the remaining input is
    /// corrupt; rejecting it here, before anything is reserved, bounds
    /// allocation by the input size.
    fn count(&mut self) -> Result<usize, CodecError> {
        let len = u64::take(self)?;
        if len > self.input.len() as u64 {
            return Err(CodecError::LengthOverflow(len));
        }
        usize::try_from(len).map_err(|_| CodecError::LengthOverflow(len))
    }
}

macro_rules! wire_le {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn take(input: &mut Decoder<'_>) -> Result<Self, CodecError> {
                Ok(<$ty>::from_le_bytes(input.array()?))
            }
        }
    )*};
}

wire_le!(u32, u64, f64);

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u64).put(out);
        for x in self {
            x.put(out);
        }
    }
    fn take(input: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let len = input.count()?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::take(input)?);
        }
        Ok(out)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn take(input: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok((A::take(input)?, B::take(input)?))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(value) => {
                out.push(1);
                value.put(out);
            }
        }
    }
    fn take(input: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match input.array::<1>()?[0] {
            0 => Ok(None),
            1 => T::take(input).map(Some),
            tag => Err(CodecError::InvalidTag(tag)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Message, RoundId};
    use lb_stats::prop::{self, any_bool, any_f64, any_u32, any_u64, any_u8, one_of, vec, Gen};
    use lb_stats::{prop_assert_eq, prop_assume};

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(value: &T) {
        let back: T = decode(&encode(value)).expect("decode");
        assert_eq!(&back, value);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(&0u32);
        roundtrip(&u64::MAX);
        roundtrip(&std::f64::consts::PI);
        roundtrip(&f64::NEG_INFINITY);
        roundtrip(&vec![1.0f64, 2.0, 3.0]);
        roundtrip(&Vec::<u64>::new());
        roundtrip(&Some((5u64, -0.5f64)));
        roundtrip(&Option::<(u64, f64)>::None);
    }

    #[test]
    fn integers_are_little_endian() {
        assert_eq!(encode(&0x0102_0304u32), [4, 3, 2, 1]);
        assert_eq!(encode(&0x0102_0304_0506_0708u64), [8, 7, 6, 5, 4, 3, 2, 1]);
    }

    #[test]
    fn options_use_one_byte_tags() {
        assert_eq!(encode(&Option::<(u64, f64)>::None), [0]);
        let some = encode(&Some((7u64, 0.0f64)));
        assert_eq!(some[..9], [1, 7, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(some.len(), 1 + 8 + 8);
    }

    #[test]
    fn primitive_decode() {
        assert_eq!(decode::<u32>(&[4, 3, 2, 1]), Ok(0x0102_0304));
        assert_eq!(decode::<Option<(u64, f64)>>(&[0]), Ok(None));
    }

    #[test]
    fn eof_reports_need() {
        assert_eq!(
            decode::<u32>(&[1, 2]),
            Err(CodecError::UnexpectedEof {
                needed: 4,
                available: 2
            })
        );
    }

    #[test]
    fn huge_length_prefix_is_caught() {
        let bytes = u64::MAX.to_le_bytes();
        assert_eq!(
            decode::<Vec<f64>>(&bytes),
            Err(CodecError::LengthOverflow(u64::MAX))
        );
    }

    #[test]
    fn corrupt_sub_4gib_length_prefix_is_caught() {
        // Regression for the `codec` fuzz-oracle class: the guard used to
        // fire only for lengths past 2^32, so a corrupt prefix like 3e9 (or
        // even 1000 against a 2-byte tail) passed the length check and was
        // trusted as a size hint. Any length beyond the remaining bytes is
        // corrupt and must be rejected before anything is reserved.
        for corrupt_len in [10u64, 1_000, 3_000_000_000] {
            let mut bytes = corrupt_len.to_le_bytes().to_vec();
            bytes.extend_from_slice(&[0u8; 2]);
            assert_eq!(
                decode::<Vec<f64>>(&bytes),
                Err(CodecError::LengthOverflow(corrupt_len)),
                "len {corrupt_len}"
            );
        }
    }

    #[test]
    fn exact_length_prefix_still_decodes() {
        let mut bytes = 3u64.to_le_bytes().to_vec();
        for x in [7u64, 8, 9] {
            bytes.extend_from_slice(&x.to_le_bytes());
        }
        assert_eq!(decode::<Vec<u64>>(&bytes), Ok(vec![7, 8, 9]));
    }

    #[test]
    fn truncated_input_errors_cleanly() {
        let bytes = encode(&Message::ShardEstimates {
            round: RoundId(1),
            shard: 2,
            estimates: vec![3.0, 4.0],
        });
        for cut in 0..bytes.len() {
            let err = decode::<Message>(&bytes[..cut]);
            assert!(err.is_err(), "cut at {cut} decoded successfully");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode(&5u32);
        bytes.push(0);
        assert!(matches!(
            decode::<u32>(&bytes),
            Err(CodecError::TrailingBytes(1))
        ));
    }

    #[test]
    fn unknown_variant_is_rejected() {
        // A variant tag beyond the enum's arity.
        let bytes = encode(&17u32);
        assert_eq!(
            decode::<crate::journal::ExclusionReason>(&bytes),
            Err(CodecError::InvalidVariant(17))
        );
    }

    #[test]
    fn invalid_option_tag_is_rejected() {
        let mut bytes = vec![7];
        bytes.extend_from_slice(&[0; 16]);
        assert_eq!(
            decode::<Option<(u64, f64)>>(&bytes),
            Err(CodecError::InvalidTag(7))
        );
    }

    #[test]
    fn context_trailer_roundtrips() {
        let msg = Message::Bid {
            round: RoundId(7),
            machine: 3,
            value: 1.5,
        };
        let ctx = TraceContext::root(42, 7, true).with_span(99);
        let bytes = encode_with_context(&msg, Some(&ctx));
        let (back, got): (Message, _) = decode_with_context(&bytes).unwrap();
        assert_eq!(back, msg);
        assert_eq!(got, Some(ctx));
    }

    #[test]
    fn absent_context_is_byte_identical_to_plain_encode() {
        let msg = Message::RequestBid { round: RoundId(3) };
        let plain = encode(&msg);
        let traced = encode_with_context(&msg, None);
        assert_eq!(plain, traced);
        let (back, ctx): (Message, _) = decode_with_context(&plain).unwrap();
        assert_eq!(back, msg);
        assert_eq!(ctx, None, "trailer-free frames decode without a context");
    }

    #[test]
    fn trailered_bytes_are_rejected_by_the_plain_decoder() {
        // A context-unaware decoder sees the trailer as unexplained input:
        // backward compatibility is one-directional by design (old frames
        // always decode; new frames need a context-aware receiver).
        let msg = Message::RequestBid { round: RoundId(3) };
        let ctx = TraceContext::root(1, 0, false);
        let bytes = encode_with_context(&msg, Some(&ctx));
        assert!(matches!(
            decode::<Message>(&bytes),
            Err(CodecError::TrailingBytes(n)) if n == TRAILER_LEN
        ));
    }

    #[test]
    fn corrupted_trailer_is_rejected_not_misread() {
        let msg = Message::RequestBid { round: RoundId(3) };
        let ctx = TraceContext::root(5, 2, true);
        let good = encode_with_context(&msg, Some(&ctx));
        let body_len = good.len() - TRAILER_LEN;
        // Damage the magic, the version byte and the flags byte in turn.
        for offset in [body_len, body_len + 2, good.len() - 1] {
            let mut bad = good.clone();
            bad[offset] ^= 0xFF;
            assert!(
                matches!(
                    decode_with_context::<Message>(&bad),
                    Err(CodecError::TrailingBytes(n)) if n == TRAILER_LEN
                ),
                "corruption at {offset} was not rejected"
            );
        }
        // Truncating the trailer leaves unexplained bytes, not a context.
        let truncated = &good[..good.len() - 1];
        assert!(matches!(
            decode_with_context::<Message>(truncated),
            Err(CodecError::TrailingBytes(n)) if n == TRAILER_LEN - 1
        ));
    }

    fn arb_message() -> impl Gen<Value = Message> {
        let round = || any_u64().prop_map(RoundId);
        one_of(vec![
            round()
                .prop_map(|round| Message::RequestBid { round })
                .boxed(),
            (round(), any_u32(), -1e12f64..1e12)
                .prop_map(|(round, machine, value)| Message::Bid {
                    round,
                    machine,
                    value,
                })
                .boxed(),
            (round(), -1e12f64..1e12)
                .prop_map(|(round, rate)| Message::Assign { round, rate })
                .boxed(),
            (round(), any_u32())
                .prop_map(|(round, machine)| Message::ExecutionDone { round, machine })
                .boxed(),
            (round(), -1e12f64..1e12)
                .prop_map(|(round, amount)| Message::Payment { round, amount })
                .boxed(),
            (round(), any_u32(), -1e12f64..1e12, -1e-6f64..1e-6)
                .prop_map(|(round, shard, sum_hi, sum_lo)| Message::ShardSum {
                    round,
                    shard,
                    sum_hi,
                    sum_lo,
                })
                .boxed(),
            (round(), any_u32(), vec(1e-12f64..1e12, 0..32))
                .prop_map(|(round, shard, estimates)| Message::ShardEstimates {
                    round,
                    shard,
                    estimates,
                })
                .boxed(),
        ])
    }

    /// Every protocol message, with arbitrary field values, survives the
    /// wire format bit-exactly.
    #[test]
    fn prop_roundtrip_protocol_messages() {
        prop::check(
            "prop_roundtrip_protocol_messages",
            256,
            arb_message(),
            |msg| {
                prop_assert_eq!(decode::<Message>(&encode(&msg)), Ok(msg));
                Ok(())
            },
        );
    }

    /// Every field of the vocabulary, with arbitrary values, survives the
    /// wire format bit-exactly.
    #[test]
    fn prop_roundtrip_fields() {
        prop::check(
            "prop_roundtrip_fields",
            256,
            (any_u32(), any_u64(), any_f64()),
            |(a, b, c)| {
                prop_assume!(!c.is_nan());
                prop_assert_eq!(decode::<u32>(&encode(&a)), Ok(a));
                prop_assert_eq!(decode::<u64>(&encode(&b)), Ok(b));
                prop_assert_eq!(decode::<f64>(&encode(&c)), Ok(c));
                Ok(())
            },
        );
    }

    #[test]
    fn prop_roundtrip_vectors() {
        prop::check("prop_roundtrip_vectors", 256, vec(any_f64(), 0..64), |v| {
            prop_assume!(v.iter().all(|x| !x.is_nan()));
            prop_assert_eq!(decode::<Vec<f64>>(&encode(&v)), Ok(v));
            Ok(())
        });
    }

    #[test]
    fn prop_roundtrip_options() {
        prop::check(
            "prop_roundtrip_options",
            256,
            (vec(any_u64(), 0..32), any_bool(), any_u64(), any_f64()),
            |(v, some, i, x)| {
                prop_assume!(!x.is_nan());
                let slowest = some.then_some((i, x));
                prop_assert_eq!(decode::<Vec<u64>>(&encode(&v)), Ok(v));
                prop_assert_eq!(decode::<Option<(u64, f64)>>(&encode(&slowest)), Ok(slowest));
                Ok(())
            },
        );
    }

    #[test]
    fn prop_random_bytes_never_panic() {
        prop::check(
            "prop_random_bytes_never_panic",
            256,
            vec(any_u8(), 0..256),
            |data| {
                // Decoding arbitrary garbage must fail gracefully, never panic.
                let _ = decode::<Message>(&data);
                let _ = decode::<crate::journal::JournalRecord>(&data);
                let _ = decode::<crate::audit::SettlementRecord>(&data);
                let _ = decode_with_context::<Message>(&data);
                Ok(())
            },
        );
    }
}
