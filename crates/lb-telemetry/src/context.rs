//! Wire-propagated trace context.
//!
//! A [`TraceContext`] is the minimal identity a frame must carry for a
//! receiver to continue the sender's trace: a 128-bit trace id naming the
//! whole round, the 64-bit id of the span that was open when the frame was
//! sent (the parent for any span the receiver opens), and a sampled flag so
//! unsampled rounds cost nothing downstream.
//!
//! Ids are **deterministic**: [`TraceContext::root`] derives them from the
//! round seed with SplitMix64 ([`lb_stats::derive_seed`]), so a chaos replay
//! of the same seed reproduces byte-identical trace ids and a recording can
//! be diffed across runs.
//!
//! # Wire format
//!
//! The context travels as a fixed [`TRAILER_LEN`]-byte trailer appended
//! *after* the encoded message inside a frame's payload:
//!
//! ```text
//! offset  size  field
//! 0       2     magic "TC" (0x54 0x43)
//! 2       1     version (currently 1)
//! 3       16    trace_id, u128 little-endian
//! 19      8     span_id, u64 little-endian
//! 27      1     flags (bit 0 = sampled)
//! ```
//!
//! The trailer is optional and backward compatible: frames without it decode
//! exactly as before, and a receiver that does not understand it can ignore
//! the trailing bytes (the lb-proto codec exposes `decode_with_context` for
//! exactly this). Parsing is total — any malformed trailer yields `None`,
//! never a panic.

use lb_stats::derive_seed;

/// Trailer length in bytes: magic(2) + version(1) + trace_id(16) +
/// span_id(8) + flags(1).
pub const TRAILER_LEN: usize = 28;

/// Trailer magic bytes (`"TC"`), distinguishing a trailer from accidental
/// trailing garbage.
const TRAILER_MAGIC: [u8; 2] = [0x54, 0x43];

/// Current trailer format version.
const TRAILER_VERSION: u8 = 1;

/// Bit 0 of the flags byte: the trace is sampled.
const FLAG_SAMPLED: u8 = 0b0000_0001;

/// Salt mixed into the low half of a derived trace id so the two halves
/// differ even when `derive_seed` collides.
const LOW_HALF_SALT: u64 = 0x7472_6163_655F_6964; // "trace_id"

/// The trace identity carried on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// 128-bit id naming the whole trace (one protocol round).
    pub trace_id: u128,
    /// The span open at the sender when the frame was sent — the parent for
    /// any span the receiver opens while handling it.
    pub span_id: u64,
    /// Whether this trace is sampled; receivers skip span recording when
    /// false.
    pub sampled: bool,
}

impl TraceContext {
    /// Derives the deterministic root context for `round` of a run seeded
    /// with `seed`. Same `(seed, round)` → same trace id, always.
    ///
    /// The root has no open span yet (`span_id` 0); senders stamp the
    /// current span with [`TraceContext::with_span`] before serialising.
    #[must_use]
    pub fn root(seed: u64, round: u64, sampled: bool) -> Self {
        let hi = derive_seed(seed, round);
        let lo = derive_seed(seed ^ LOW_HALF_SALT, round);
        Self {
            trace_id: (u128::from(hi) << 64) | u128::from(lo),
            span_id: 0,
            sampled,
        }
    }

    /// The same trace with `span_id` as the current (parent) span.
    #[must_use]
    pub fn with_span(self, span_id: u64) -> Self {
        Self { span_id, ..self }
    }

    /// Serialises the context into its fixed-size wire trailer.
    #[must_use]
    pub fn to_trailer(&self) -> [u8; TRAILER_LEN] {
        let mut out = [0u8; TRAILER_LEN];
        out[0..2].copy_from_slice(&TRAILER_MAGIC);
        out[2] = TRAILER_VERSION;
        out[3..19].copy_from_slice(&self.trace_id.to_le_bytes());
        out[19..27].copy_from_slice(&self.span_id.to_le_bytes());
        out[27] = if self.sampled { FLAG_SAMPLED } else { 0 };
        out
    }

    /// Parses a wire trailer. Returns `None` for anything that is not a
    /// well-formed current-version trailer (wrong length, magic, version,
    /// or reserved flag bits) — callers treat such bytes as not-a-trailer.
    #[must_use]
    pub fn from_trailer(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != TRAILER_LEN
            || bytes[0..2] != TRAILER_MAGIC
            || bytes[2] != TRAILER_VERSION
            || bytes[27] & !FLAG_SAMPLED != 0
        {
            return None;
        }
        let mut trace_id = [0u8; 16];
        trace_id.copy_from_slice(&bytes[3..19]);
        let mut span_id = [0u8; 8];
        span_id.copy_from_slice(&bytes[19..27]);
        Some(Self {
            trace_id: u128::from_le_bytes(trace_id),
            span_id: u64::from_le_bytes(span_id),
            sampled: bytes[27] & FLAG_SAMPLED != 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trailer_roundtrips() {
        for sampled in [false, true] {
            let ctx = TraceContext::root(42, 7, sampled).with_span(99);
            let bytes = ctx.to_trailer();
            assert_eq!(bytes.len(), TRAILER_LEN);
            assert_eq!(TraceContext::from_trailer(&bytes), Some(ctx));
        }
    }

    #[test]
    fn root_is_deterministic_and_distinct_per_round() {
        let a = TraceContext::root(5, 0, true);
        let b = TraceContext::root(5, 0, true);
        assert_eq!(a, b);
        assert_ne!(a.trace_id, TraceContext::root(5, 1, true).trace_id);
        assert_ne!(a.trace_id, TraceContext::root(6, 0, true).trace_id);
        assert_eq!(a.span_id, 0);
    }

    #[test]
    fn trace_id_halves_differ() {
        let ctx = TraceContext::root(0, 0, true);
        #[allow(clippy::cast_possible_truncation)]
        let lo = ctx.trace_id as u64;
        let hi = (ctx.trace_id >> 64) as u64;
        assert_ne!(lo, hi);
    }

    #[test]
    fn malformed_trailers_parse_to_none() {
        let good = TraceContext::root(1, 2, true).with_span(3).to_trailer();
        assert!(TraceContext::from_trailer(&good).is_some());
        // Wrong length.
        assert_eq!(TraceContext::from_trailer(&good[..27]), None);
        assert_eq!(TraceContext::from_trailer(&[]), None);
        // Wrong magic.
        let mut bad = good;
        bad[0] ^= 0xFF;
        assert_eq!(TraceContext::from_trailer(&bad), None);
        // Wrong version.
        let mut bad = good;
        bad[2] = 2;
        assert_eq!(TraceContext::from_trailer(&bad), None);
        // Reserved flag bits set.
        let mut bad = good;
        bad[27] |= 0b1000_0000;
        assert_eq!(TraceContext::from_trailer(&bad), None);
    }

    #[test]
    fn with_span_replaces_only_the_span() {
        let ctx = TraceContext::root(9, 9, true);
        let stamped = ctx.with_span(1234);
        assert_eq!(stamped.trace_id, ctx.trace_id);
        assert_eq!(stamped.span_id, 1234);
        assert!(stamped.sampled);
    }
}
