//! Length-prefixed stream framing for the wire codec.
//!
//! The in-memory runtimes exchange whole frames; a TCP-style transport
//! delivers *byte streams* with arbitrary fragmentation. [`FrameWriter`]
//! prefixes each encoded message with a `u32` length; [`FrameReader`]
//! reassembles frames from any sequence of partial reads, enforcing a
//! maximum frame size against corrupt or malicious peers.

use crate::codec::{decode, decode_with_context, put_with_context, CodecError, Wire};
use lb_telemetry::TraceContext;

/// Hard upper bound on any frame, reader or writer side (1 MiB — far above
/// any protocol message, small enough to bound memory under corruption). A
/// corrupted or hostile header can announce up to `u32::MAX` (4 GiB); every
/// path compares against this bound *before* buffering or allocating.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Encodes values into length-prefixed frames.
#[derive(Debug, Default)]
pub struct FrameWriter {
    buf: Vec<u8>,
}

impl FrameWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one value as a frame.
    ///
    /// # Errors
    /// Returns [`CodecError::FrameTooLarge`] for payloads above
    /// [`MAX_FRAME_LEN`] (a peer must never be able to emit a frame its
    /// counterpart is required to reject).
    pub fn write<T: Wire>(&mut self, value: &T) -> Result<(), CodecError> {
        self.write_with_context(value, None)
    }

    /// Appends one value as a frame, embedding `ctx` as a trace-context
    /// trailer inside the frame payload when present. With `ctx == None`
    /// this is [`FrameWriter::write`] exactly, byte for byte.
    ///
    /// # Errors
    /// Returns [`CodecError::FrameTooLarge`] for payloads above
    /// [`MAX_FRAME_LEN`].
    pub fn write_with_context<T: Wire>(
        &mut self,
        value: &T,
        ctx: Option<&TraceContext>,
    ) -> Result<(), CodecError> {
        // The payload is encoded in place behind a placeholder prefix.
        let start = self.buf.len();
        self.buf.extend_from_slice(&[0; 4]);
        put_with_context(&mut self.buf, value, ctx);
        let len = self.buf.len() - start - 4;
        if len > MAX_FRAME_LEN {
            self.buf.truncate(start);
            let (len, max) = (len as u64, MAX_FRAME_LEN as u64);
            return Err(CodecError::FrameTooLarge { len, max });
        }
        // MAX_FRAME_LEN fits the u32 prefix.
        self.buf[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
        Ok(())
    }

    /// Takes every byte written so far (the wire stream).
    #[must_use]
    pub fn take(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.buf)
    }

    /// Bytes currently buffered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the writer holds no bytes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Reassembles length-prefixed frames from arbitrary byte chunks.
///
/// Popped frames advance a read offset into the buffer; the consumed prefix
/// is dropped on the next [`FrameReader::feed`], so each byte is moved at
/// most once per feed rather than once per frame.
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    start: usize,
}

impl Default for FrameReader {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameReader {
    /// Creates a reader that accepts frames up to [`MAX_FRAME_LEN`].
    #[must_use]
    pub fn new() -> Self {
        Self {
            buf: Vec::new(),
            start: 0,
        }
    }

    /// Feeds a chunk of received bytes (any fragmentation).
    pub fn feed(&mut self, chunk: &[u8]) {
        self.buf.drain(..self.start);
        self.start = 0;
        self.buf.extend_from_slice(chunk);
    }

    /// Pops the next complete frame, if one has fully arrived.
    ///
    /// # Errors
    /// Returns [`CodecError::FrameTooLarge`] when a frame header exceeds the
    /// limit (stream corrupt: no recovery), or decode errors for the payload.
    /// The check runs before any payload is buffered past the header, so a
    /// corrupted header cannot drive an allocation beyond the limit.
    pub fn next_frame<T: Wire>(&mut self) -> Result<Option<T>, CodecError> {
        self.next_payload()?.map(decode).transpose()
    }

    /// Pops the next complete frame, peeling off its trace-context trailer
    /// if the sender embedded one. Frames written without a trailer (by
    /// [`FrameWriter::write`] or any pre-trailer peer) yield `None` for the
    /// context — the wire format is backward compatible.
    ///
    /// # Errors
    /// Exactly the errors of [`FrameReader::next_frame`].
    pub fn next_frame_with_context<T: Wire>(
        &mut self,
    ) -> Result<Option<(T, Option<TraceContext>)>, CodecError> {
        self.next_payload()?.map(decode_with_context).transpose()
    }

    /// Shared header logic: pops the next complete frame payload, if one has
    /// fully arrived, enforcing the size limit before buffering past the
    /// header.
    fn next_payload(&mut self) -> Result<Option<&[u8]>, CodecError> {
        let pending = &self.buf[self.start..];
        let Some(header) = pending.first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*header) as usize;
        if len > MAX_FRAME_LEN {
            return Err(CodecError::FrameTooLarge {
                len: len as u64,
                max: MAX_FRAME_LEN as u64,
            });
        }
        if pending.len() < 4 + len {
            return Ok(None);
        }
        let body = self.start + 4;
        self.start = body + len;
        Ok(Some(&self.buf[body..self.start]))
    }

    /// Bytes buffered but not yet consumed.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Message, RoundId};
    use lb_stats::rng::{Rng, Xoshiro256StarStar};

    fn sample_messages() -> Vec<Message> {
        (0..20)
            .map(|i| Message::Bid {
                round: RoundId(u64::from(i)),
                machine: i,
                value: f64::from(i) * 0.5 + 0.1,
            })
            .collect()
    }

    #[test]
    fn whole_stream_roundtrip() {
        let msgs = sample_messages();
        let mut w = FrameWriter::new();
        for m in &msgs {
            w.write(m).unwrap();
        }
        let stream = w.take();
        assert!(w.is_empty());

        let mut r = FrameReader::new();
        r.feed(&stream);
        let mut out = Vec::new();
        while let Some(m) = r.next_frame::<Message>().unwrap() {
            out.push(m);
        }
        assert_eq!(out, msgs);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn byte_at_a_time_delivery_reassembles() {
        let msgs = sample_messages();
        let mut w = FrameWriter::new();
        for m in &msgs {
            w.write(m).unwrap();
        }
        let stream = w.take();

        let mut r = FrameReader::new();
        let mut out = Vec::new();
        for &b in stream.iter() {
            r.feed(&[b]);
            while let Some(m) = r.next_frame::<Message>().unwrap() {
                out.push(m);
            }
        }
        assert_eq!(out, msgs);
    }

    #[test]
    fn random_fragmentation_reassembles() {
        let msgs = sample_messages();
        let mut w = FrameWriter::new();
        for m in &msgs {
            w.write(m).unwrap();
        }
        let stream = w.take();

        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        let mut r = FrameReader::new();
        let mut out = Vec::new();
        let mut pos = 0;
        while pos < stream.len() {
            let chunk = 1 + rng.next_below(13) as usize;
            let end = (pos + chunk).min(stream.len());
            r.feed(&stream[pos..end]);
            pos = end;
            while let Some(m) = r.next_frame::<Message>().unwrap() {
                out.push(m);
            }
        }
        assert_eq!(out, msgs);
    }

    #[test]
    fn oversized_header_is_rejected() {
        let mut r = FrameReader::new();
        let len = MAX_FRAME_LEN as u32 + 1;
        r.feed(&len.to_le_bytes());
        r.feed(&[0u8; 8]);
        assert!(matches!(
            r.next_frame::<Message>(),
            Err(CodecError::FrameTooLarge { len, max })
                if len == u64::from(MAX_FRAME_LEN as u32 + 1) && max == MAX_FRAME_LEN as u64
        ));
    }

    #[test]
    fn corrupted_header_cannot_exceed_hard_bound() {
        // Regression for the `codec` fuzz-oracle class: a hostile header
        // announcing u32::MAX (4 GiB) must be rejected against MAX_FRAME_LEN
        // before any buffering.
        let mut r = FrameReader::new();
        r.feed(&u32::MAX.to_le_bytes());
        r.feed(&[0u8; 32]);
        match r.next_frame::<Message>() {
            Err(CodecError::FrameTooLarge { len, max }) => {
                assert_eq!(len, u64::from(u32::MAX));
                assert_eq!(max, MAX_FRAME_LEN as u64);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn single_corrupted_length_byte_is_detected() {
        // Flip the high byte of a valid frame's length prefix: the announced
        // length jumps past the limit and the reader reports it as corrupt.
        let mut w = FrameWriter::new();
        w.write(&Message::RequestBid { round: RoundId(7) }).unwrap();
        let mut stream = w.take();
        stream[3] ^= 0x80; // now len >= 2^31 > MAX_FRAME_LEN
        let mut r = FrameReader::new();
        r.feed(&stream);
        assert!(matches!(
            r.next_frame::<Message>(),
            Err(CodecError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn oversized_write_is_rejected_and_leaves_the_stream_intact() {
        let mut w = FrameWriter::new();
        w.write(&Message::RequestBid { round: RoundId(1) }).unwrap();
        let before = w.len();
        let huge = Message::ShardEstimates {
            round: RoundId(1),
            shard: 0,
            estimates: vec![0.5; MAX_FRAME_LEN / 8 + 1],
        };
        assert!(matches!(
            w.write(&huge),
            Err(CodecError::FrameTooLarge { len, max })
                if len > max && max == MAX_FRAME_LEN as u64
        ));
        assert_eq!(w.len(), before, "the rejected frame left no bytes");
        let mut r = FrameReader::new();
        r.feed(&w.take());
        assert!(r.next_frame::<Message>().unwrap().is_some());
        assert!(r.next_frame::<Message>().unwrap().is_none());
    }

    #[test]
    fn incomplete_frame_waits() {
        let mut w = FrameWriter::new();
        w.write(&Message::RequestBid { round: RoundId(1) }).unwrap();
        let stream = w.take();
        let mut r = FrameReader::new();
        r.feed(&stream[..stream.len() - 1]);
        assert!(r.next_frame::<Message>().unwrap().is_none());
        r.feed(&stream[stream.len() - 1..]);
        assert!(r.next_frame::<Message>().unwrap().is_some());
    }

    #[test]
    fn mixed_traced_and_plain_frames_reassemble_with_contexts() {
        // Alternate trailered and plain frames on one stream: the
        // context-aware reader recovers each message with exactly the
        // context its sender attached.
        let msgs = sample_messages();
        let mut w = FrameWriter::new();
        for (i, m) in msgs.iter().enumerate() {
            let ctx = TraceContext::root(11, i as u64, true).with_span(i as u64 + 1);
            let ctx = (i % 2 == 0).then_some(ctx);
            w.write_with_context(m, ctx.as_ref()).unwrap();
        }
        let stream = w.take();

        let mut r = FrameReader::new();
        r.feed(&stream);
        let mut out = Vec::new();
        while let Some(pair) = r.next_frame_with_context::<Message>().unwrap() {
            out.push(pair);
        }
        assert_eq!(out.len(), msgs.len());
        for (i, (m, ctx)) in out.iter().enumerate() {
            assert_eq!(m, &msgs[i]);
            if i % 2 == 0 {
                let expected = TraceContext::root(11, i as u64, true).with_span(i as u64 + 1);
                assert_eq!(*ctx, Some(expected), "frame {i}");
            } else {
                assert_eq!(*ctx, None, "frame {i}");
            }
        }
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn trailer_free_frames_decode_unchanged_by_a_context_aware_reader() {
        // Backward compatibility: a stream written by the pre-trailer writer
        // is byte-identical under `write_with_context(.., None)` and decodes
        // through both readers.
        let msgs = sample_messages();
        let mut plain = FrameWriter::new();
        let mut traced = FrameWriter::new();
        for m in &msgs {
            plain.write(m).unwrap();
            traced.write_with_context(m, None).unwrap();
        }
        let plain_stream = plain.take();
        assert_eq!(plain_stream, traced.take());

        let mut r = FrameReader::new();
        r.feed(&plain_stream);
        let mut out = Vec::new();
        while let Some((m, ctx)) = r.next_frame_with_context::<Message>().unwrap() {
            assert_eq!(ctx, None);
            out.push(m);
        }
        assert_eq!(out, msgs);
    }

    #[test]
    fn context_unaware_reader_rejects_trailered_frames() {
        let mut w = FrameWriter::new();
        let ctx = TraceContext::root(1, 0, true);
        w.write_with_context(&Message::RequestBid { round: RoundId(2) }, Some(&ctx))
            .unwrap();
        let mut r = FrameReader::new();
        r.feed(&w.take());
        assert!(matches!(
            r.next_frame::<Message>(),
            Err(CodecError::TrailingBytes(n)) if n == lb_telemetry::TRAILER_LEN
        ));
    }
}
