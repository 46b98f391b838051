//! Codec error type.

use std::fmt;

/// Errors produced while encoding or decoding wire messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value was fully decoded.
    UnexpectedEof {
        /// Bytes needed to continue.
        needed: usize,
        /// Bytes remaining.
        available: usize,
    },
    /// The input contained extra bytes after the value.
    TrailingBytes(usize),
    /// An enum variant tag was out of range for the target enum.
    InvalidVariant(u32),
    /// A length prefix exceeded the remaining input (corruption guard).
    LengthOverflow(u64),
    /// A frame exceeded the configured maximum frame size (hostile or
    /// corrupted header; bounds allocation before any buffering happens).
    FrameTooLarge {
        /// Length announced by the frame header.
        len: u64,
        /// Maximum frame size the reader/writer accepts.
        max: u64,
    },
    /// A frame failed the link's integrity check: it was damaged in transit
    /// and must not be decoded.
    CorruptFrame,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnexpectedEof { needed, available } => {
                write!(
                    f,
                    "unexpected end of input: needed {needed} bytes, {available} available"
                )
            }
            Self::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            Self::InvalidVariant(v) => write!(f, "invalid enum variant index {v}"),
            Self::LengthOverflow(n) => write!(f, "length prefix {n} exceeds remaining input"),
            Self::FrameTooLarge { len, max } => {
                write!(
                    f,
                    "frame of {len} bytes exceeds the maximum frame size {max}"
                )
            }
            Self::CorruptFrame => write!(f, "frame failed its integrity check"),
        }
    }
}

impl std::error::Error for CodecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        assert!(CodecError::UnexpectedEof {
            needed: 4,
            available: 1
        }
        .to_string()
        .contains('4'));
        assert!(CodecError::TrailingBytes(3).to_string().contains('3'));
        assert!(CodecError::InvalidVariant(2).to_string().contains('2'));
        assert!(CodecError::LengthOverflow(7).to_string().contains('7'));
        let e = CodecError::FrameTooLarge {
            len: 5_000_000,
            max: 1_048_576,
        };
        assert!(e.to_string().contains("5000000"));
        assert!(e.to_string().contains("1048576"));
        assert!(CodecError::CorruptFrame.to_string().contains("integrity"));
    }
}
