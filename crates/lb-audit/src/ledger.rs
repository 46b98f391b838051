//! Offline verification of the tamper-evident round ledger.
//!
//! The coordinator threads a [`LedgerChain`] over every framed byte it
//! appends to the durable journal and, immediately before each
//! `RoundSealed`, writes a `LedgerSealed { digest }` record carrying the
//! chain head over everything that precedes it. [`verify_ledger`] replays
//! that construction from the raw journal bytes alone:
//!
//! * walk the CRC-valid frames exactly as crash recovery does
//!   ([`JournalReplay::boundaries`]);
//! * absorb each frame into a fresh chain, and at every `LedgerSealed`
//!   record compare the journalled digest against the running head
//!   **before** absorbing the seal frame itself;
//! * report the first divergence with its record index and byte offset,
//!   which localises tampering to one frame interval.
//!
//! The per-record CRC already catches accidental corruption; the chain
//! exists for *deliberate* edits that recompute the CRC — flip a payment
//! byte and fix the frame checksum, and every subsequent seal digest
//! diverges. The digest is a non-cryptographic 64-bit mix, so the trust
//! model is tamper-*evidence* against an adversary who cannot also rewrite
//! every later seal plus an out-of-band copy of the head (the `health`
//! document carries it) — not cryptographic authentication.
//!
//! Frames whose payload no longer decodes (possible only under deliberate
//! corruption, since `read_journal` would refuse them) are absorbed as
//! opaque bytes and counted, so verification never aborts early.

use lb_proto::journal::{JournalRecord, LedgerChain};
use lb_proto::{decode, JournalReplay};

/// The first point where the journalled seal digests stop matching the
/// recomputed chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerDivergence {
    /// Index of the diverging `LedgerSealed` record in the frame walk.
    pub record_index: usize,
    /// Byte offset of that record's frame in the journal.
    pub offset: usize,
    /// Ordinal of the seal among all seals (0-based).
    pub seal_index: usize,
    /// The head the verifier recomputed from the preceding bytes.
    pub expected: u64,
    /// The digest the journal claims.
    pub found: u64,
}

/// The outcome of verifying one journal byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerVerdict {
    /// CRC-valid frames walked (sealed or not).
    pub records: usize,
    /// `LedgerSealed` records encountered and checked.
    pub seals: usize,
    /// Frames whose payload failed to decode and were absorbed opaquely.
    pub undecodable: usize,
    /// The recomputed chain head over the full valid prefix — compare
    /// against an out-of-band copy (e.g. the `health` document).
    pub head: u64,
    /// Bytes past the last CRC-valid frame (a torn tail from a crash, or
    /// CRC-breaking corruption).
    pub truncated_tail: usize,
    /// The first seal whose digest did not match, if any.
    pub divergence: Option<LedgerDivergence>,
}

impl LedgerVerdict {
    /// Whether every seal digest matched the recomputed chain.
    #[must_use]
    pub fn is_intact(&self) -> bool {
        self.divergence.is_none()
    }
}

/// Recomputes the ledger chain over `bytes` and checks every journalled
/// seal digest against it.
#[must_use]
pub fn verify_ledger(bytes: &[u8]) -> LedgerVerdict {
    let boundaries = JournalReplay::boundaries(bytes);
    let mut chain = LedgerChain::new();
    let mut verdict = LedgerVerdict {
        records: boundaries.len() - 1,
        seals: 0,
        undecodable: 0,
        head: LedgerChain::SEED,
        truncated_tail: bytes.len() - boundaries.last().copied().unwrap_or(0),
        divergence: None,
    };
    for (index, window) in boundaries.windows(2).enumerate() {
        let (start, end) = (window[0], window[1]);
        let frame = &bytes[start..end];
        // Frame layout: len:u32 crc:u32 payload.
        match decode::<JournalRecord>(&frame[8..]) {
            Ok(JournalRecord::LedgerSealed { digest }) => {
                verdict.seals += 1;
                if digest != chain.head() && verdict.divergence.is_none() {
                    verdict.divergence = Some(LedgerDivergence {
                        record_index: index,
                        offset: start,
                        seal_index: verdict.seals - 1,
                        expected: chain.head(),
                        found: digest,
                    });
                }
            }
            Ok(_) => {}
            Err(_) => verdict.undecodable += 1,
        }
        chain.absorb_frame(frame);
    }
    verdict.head = chain.head();
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use lb_proto::journal::{crc32, encode_record, ExclusionReason};
    use lb_proto::RoundId;

    /// A miniature sealed journal: open, exclude, commit payments, seal.
    fn sealed_journal() -> Vec<u8> {
        let mut bytes = Vec::new();
        let mut chain = LedgerChain::new();
        let records = [
            JournalRecord::RoundOpened {
                round: RoundId(0),
                n: 3,
                total_rate: 10.0,
            },
            JournalRecord::ExclusionDecided {
                machine: 2,
                reason: ExclusionReason::Quarantine,
            },
            JournalRecord::BidAccepted {
                machine: 0,
                value: 1.5,
            },
            JournalRecord::PaymentsCommitted {
                payments: vec![3.25, 1.5, 0.0],
            },
        ];
        for record in &records {
            let frame = encode_record(record).unwrap();
            chain.absorb_frame(&frame);
            bytes.extend_from_slice(&frame);
        }
        let seal = encode_record(&JournalRecord::LedgerSealed {
            digest: chain.head(),
        })
        .unwrap();
        chain.absorb_frame(&seal);
        bytes.extend_from_slice(&seal);
        let sealed = encode_record(&JournalRecord::RoundSealed).unwrap();
        bytes.extend_from_slice(&sealed);
        bytes
    }

    #[test]
    fn clean_journal_verifies_intact() {
        let bytes = sealed_journal();
        let verdict = verify_ledger(&bytes);
        assert!(verdict.is_intact(), "{verdict:?}");
        assert_eq!(verdict.seals, 1);
        assert_eq!(verdict.records, 6);
        assert_eq!(verdict.undecodable, 0);
        assert_eq!(verdict.truncated_tail, 0);
        assert_eq!(verdict.head, LedgerChain::replay(&bytes).head());
    }

    #[test]
    fn torn_tail_is_reported_but_not_a_divergence() {
        let mut bytes = sealed_journal();
        bytes.extend_from_slice(&[0xAB; 5]);
        let verdict = verify_ledger(&bytes);
        assert!(verdict.is_intact());
        assert_eq!(verdict.truncated_tail, 5);
    }

    #[test]
    fn crc_fixed_payload_edit_diverges_at_the_seal() {
        let mut bytes = sealed_journal();
        let boundaries = JournalReplay::boundaries(&bytes);
        // Tamper with the payments record (index 3), then recompute its CRC
        // so the frame still parses — the adversarial edit the chain is for.
        let (start, end) = (boundaries[3], boundaries[4]);
        bytes[end - 1] ^= 0x01;
        let crc = crc32(&bytes[start + 8..end]).to_le_bytes();
        bytes[start + 4..start + 8].copy_from_slice(&crc);

        let verdict = verify_ledger(&bytes);
        let div = verdict.divergence.expect("tamper must be flagged");
        assert_eq!(div.record_index, 4, "caught at the seal record");
        assert_eq!(div.seal_index, 0);
        assert_eq!(div.offset, boundaries[4]);
        assert_ne!(div.expected, div.found);
    }

    #[test]
    fn dropped_record_diverges() {
        let bytes = sealed_journal();
        let boundaries = JournalReplay::boundaries(&bytes);
        let mut shorter = bytes[..boundaries[1]].to_vec();
        shorter.extend_from_slice(&bytes[boundaries[2]..]);
        let verdict = verify_ledger(&shorter);
        assert!(!verdict.is_intact());
    }

    #[test]
    fn second_generation_seal_checks_against_the_full_prefix() {
        // Simulate a crash-recovery generation: more frames and a second
        // seal after the first sealed round. Each seal must match the head
        // over *everything* before it.
        let mut bytes = sealed_journal();
        let mut chain = LedgerChain::replay(&bytes);
        let more = encode_record(&JournalRecord::RoundOpened {
            round: RoundId(1),
            n: 3,
            total_rate: 10.0,
        })
        .unwrap();
        chain.absorb_frame(&more);
        bytes.extend_from_slice(&more);
        let seal = encode_record(&JournalRecord::LedgerSealed {
            digest: chain.head(),
        })
        .unwrap();
        chain.absorb_frame(&seal);
        bytes.extend_from_slice(&seal);

        let verdict = verify_ledger(&bytes);
        assert!(verdict.is_intact(), "{verdict:?}");
        assert_eq!(verdict.seals, 2);

        // Tampering with generation-0 bytes now breaks *both* seals; the
        // divergence localises to the first.
        let boundaries = JournalReplay::boundaries(&bytes);
        let (start, end) = (boundaries[0], boundaries[1]);
        bytes[end - 1] ^= 0x80;
        let crc = crc32(&bytes[start + 8..end]).to_le_bytes();
        bytes[start + 4..start + 8].copy_from_slice(&crc);
        let tampered = verify_ledger(&bytes);
        assert_eq!(tampered.divergence.map(|d| d.seal_index), Some(0));
    }
}
