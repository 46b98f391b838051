//! Write-ahead round journal: the durability substrate for crash recovery.
//!
//! The coordinator appends a [`JournalRecord`] at every state transition that
//! must survive process death, and calls [`Journal::commit`] at the three
//! commit points (allocation, payments, seal). After a crash the journal is
//! the *only* source of truth: `recovery::recover_round` replays the records
//! to rebuild the coordinator mid-round.
//!
//! # Record framing
//!
//! The journal is a flat byte stream of length-prefixed, checksummed records:
//!
//! ```text
//! record := len:u32-le  crc:u32-le  payload[len]
//! ```
//!
//! where `payload` is the record encoded with the crate's wire codec and
//! `crc` is the CRC-32 (IEEE) of `payload`. A crash can tear the final
//! record at any byte; on replay the torn tail is detected (incomplete
//! header, incomplete payload, or checksum mismatch) and discarded, never
//! misparsed. A record whose checksum verifies but whose payload does not
//! decode is *not* a torn write — it is hard corruption and surfaces as
//! [`JournalError::CorruptRecord`].
//!
//! # Backends
//!
//! * [`MemJournal`] — an in-memory byte buffer; commit is a watermark.
//! * [`FileJournal`] — an append-only file; commit is `fsync` (`sync_data`).
//!   Opening an existing file truncates any torn tail before appending.
//! * [`CrashingJournal`] — a fault-injection wrapper that kills the journal
//!   at a configured byte offset, tearing the in-flight record mid-write,
//!   exactly as a crashed process would.

use crate::codec::{decode, encode, CodecError};
use crate::message::RoundId;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Why a machine was excluded from the current round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExclusionReason {
    /// Excluded up front by the session health policy (quarantine).
    Quarantine,
    /// Excluded by the coordinator after failing to bid before the deadline.
    Timeout,
}

/// One durable event in the life of a protocol round.
///
/// Records are written in protocol order; `RoundOpened` is always first in a
/// round's block and `RoundSealed` (if the round completed and its payment
/// fan-out was sent) is always last.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A round began with `n` machines competing for `total_rate`.
    RoundOpened {
        /// Round identifier.
        round: RoundId,
        /// Number of machines in the round (including excluded ones).
        n: u32,
        /// Total rate `R` being allocated.
        total_rate: f64,
    },
    /// A bid was accepted from `machine`.
    BidAccepted {
        /// Bidding machine.
        machine: u32,
        /// Bid value `b_i`.
        value: f64,
    },
    /// `machine` was excluded from the round.
    ExclusionDecided {
        /// Excluded machine.
        machine: u32,
        /// Why it was excluded.
        reason: ExclusionReason,
    },
    /// The allocation (and execution estimates) were computed and are about
    /// to be fanned out. Commit point: `Assign` frames may only be sent
    /// after this record is durable.
    AllocationCommitted {
        /// Allocated rates, full width (zeros for excluded machines).
        rates: Vec<f64>,
        /// Estimated execution values, full width.
        estimated_exec: Vec<f64>,
    },
    /// `machine` acknowledged execution completion.
    ExecutionObserved {
        /// Acknowledging machine.
        machine: u32,
    },
    /// Payments were computed. Commit point: the settle fan-out may only be
    /// sent after this record is durable — on replay payments are read from
    /// here, never recomputed, which is what makes settle exactly-once.
    PaymentsCommitted {
        /// Payments, full width (zeros for excluded machines).
        payments: Vec<f64>,
    },
    /// The payment fan-out was handed to the network; the round is finished
    /// and will never emit again.
    RoundSealed,
    /// Tamper-evidence seal: the [`LedgerChain`] head computed over every
    /// framed journal byte written before this record. Appended by
    /// `Coordinator::seal` immediately before [`JournalRecord::RoundSealed`];
    /// an auditor replaying the journal recomputes the chain and compares —
    /// see `lb_audit::verify_ledger`. Kept at the end of the enum so journals
    /// written before this variant existed still decode.
    LedgerSealed {
        /// Chain head digest at the moment of sealing.
        digest: u64,
    },
}

/// Errors from journal backends and replay.
#[derive(Debug)]
pub enum JournalError {
    /// An I/O operation on a [`FileJournal`] failed.
    Io {
        /// What the journal was doing.
        context: &'static str,
        /// The underlying error message.
        message: String,
    },
    /// A [`CrashingJournal`] hit its configured crash point. The process
    /// holding the journal is considered dead; call
    /// [`CrashingJournal::revive`] to simulate a restart.
    Crashed {
        /// Byte offset at which the journal died.
        at_byte: u64,
    },
    /// A record failed to encode or decode through the wire codec.
    Codec(CodecError),
    /// A record's checksum verified but its payload did not decode: the
    /// journal is corrupt in a way a torn write cannot explain.
    CorruptRecord {
        /// Byte offset of the corrupt record's header.
        offset: usize,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { context, message } => write!(f, "journal io ({context}): {message}"),
            Self::Crashed { at_byte } => write!(f, "journal crashed at byte {at_byte}"),
            Self::Codec(e) => write!(f, "journal codec error: {e}"),
            Self::CorruptRecord { offset } => {
                write!(f, "journal record at byte {offset} is corrupt")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<CodecError> for JournalError {
    fn from(e: CodecError) -> Self {
        Self::Codec(e)
    }
}

/// CRC-32 (IEEE 802.3, reflected) over `bytes`. Bitwise, std-only; journal
/// records are small enough that a lookup table buys nothing.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Upper bound on a single record's payload; a length prefix beyond this is
/// treated as garbage (torn tail), bounding allocation during replay.
const MAX_RECORD_LEN: u32 = 1 << 20;

/// FNV-1a over `bytes`, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// SplitMix64 finaliser: a full-avalanche 64-bit mix.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Tamper-evident hash chain over the journal's framed record bytes.
///
/// Each framed record (header + checksum + payload, exactly as it sits on
/// disk) is folded into a running 64-bit head:
///
/// ```text
/// head' = mix64(head ^ fnv1a64(frame) ^ frame.len())
/// ```
///
/// so the head after record `k` commits to every byte of records `0..=k`
/// *and their order*. `Coordinator::seal` writes the current head into a
/// [`JournalRecord::LedgerSealed`] record (which is itself then absorbed, so
/// the chain stays continuous across rounds and process generations), and
/// `lb_audit::verify_ledger` replays the chain to localise the first
/// divergent record.
///
/// This is an FNV/SplitMix construction, **not** a cryptographic hash: it
/// makes accidental corruption and casual tampering evident (any byte flip,
/// record drop, reorder or splice changes the head with full avalanche), but
/// an adversary who can rewrite the whole journal can recompute the seals.
/// External trust therefore comes from exporting the head digest out-of-band
/// — the `/health` endpoint publishes it live precisely so a scrape archive
/// pins the chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerChain {
    head: u64,
}

impl LedgerChain {
    /// Chain seed ("lbmv ldg 1" as a number): the head of the empty journal.
    pub const SEED: u64 = 0x6c62_6d76_6c64_6731;

    /// A chain positioned at the start of an empty journal.
    #[must_use]
    pub fn new() -> Self {
        Self { head: Self::SEED }
    }

    /// Folds one framed record (as produced by [`encode_record`]) into the
    /// chain.
    pub fn absorb_frame(&mut self, frame: &[u8]) {
        self.head = mix64(self.head ^ fnv1a64(frame) ^ frame.len() as u64);
    }

    /// The current chain head.
    #[must_use]
    pub fn head(&self) -> u64 {
        self.head
    }

    /// Rebuilds the chain over every intact framed record in `bytes`
    /// (torn tail excluded), e.g. after reopening a journal.
    #[must_use]
    pub fn replay(bytes: &[u8]) -> Self {
        let mut chain = Self::new();
        let mut at = 0usize;
        while let Some((range, next)) = next_record(bytes, at) {
            chain.absorb_frame(&bytes[range.start - 8..range.end]);
            at = next;
        }
        chain
    }
}

impl Default for LedgerChain {
    fn default() -> Self {
        Self::new()
    }
}

/// Encodes one record into its framed byte representation.
///
/// # Errors
/// Returns [`JournalError::Codec`] if the payload is longer than a `u32`
/// length prefix can state.
pub fn encode_record(record: &JournalRecord) -> Result<Vec<u8>, JournalError> {
    let payload = encode(record);
    let mut framed = Vec::with_capacity(8 + payload.len());
    framed.extend_from_slice(
        &u32::try_from(payload.len())
            .map_err(|_| JournalError::Codec(CodecError::LengthOverflow(payload.len() as u64)))?
            .to_le_bytes(),
    );
    framed.extend_from_slice(&crc32(&payload).to_le_bytes());
    framed.extend_from_slice(&payload);
    Ok(framed)
}

/// The result of replaying a journal byte stream.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalReplay {
    /// Every intact record, in append order.
    pub records: Vec<JournalRecord>,
    /// Length of the valid prefix in bytes; everything past it is torn tail.
    pub valid_len: usize,
    /// Bytes of torn tail discarded (a partial final record, or garbage
    /// after the last checksummed record).
    pub truncated_tail: usize,
}

impl JournalReplay {
    /// Byte offset of the end of each record boundary, starting with 0 (the
    /// empty prefix). Useful for crash-point enumeration: truncating the
    /// journal at any of these offsets yields a clean (untorn) prefix.
    #[must_use]
    pub fn boundaries(bytes: &[u8]) -> Vec<usize> {
        let mut offsets = vec![0];
        let mut at = 0usize;
        while let Some((_, next)) = next_record(bytes, at) {
            offsets.push(next);
            at = next;
        }
        offsets
    }
}

/// Parses the record starting at `at`, returning `(payload_range, next)` if
/// the header, payload, and checksum are all intact.
fn next_record(bytes: &[u8], at: usize) -> Option<(std::ops::Range<usize>, usize)> {
    let [l0, l1, l2, l3, c0, c1, c2, c3] = *bytes.get(at..)?.first_chunk::<8>()?;
    let len = u32::from_le_bytes([l0, l1, l2, l3]);
    if len > MAX_RECORD_LEN {
        return None;
    }
    let crc = u32::from_le_bytes([c0, c1, c2, c3]);
    let start = at + 8;
    let end = start.checked_add(len as usize)?;
    let payload = bytes.get(start..end)?;
    if crc32(payload) != crc {
        return None;
    }
    Some((start..end, end))
}

/// Replays a journal byte stream into its records.
///
/// The valid prefix is parsed record by record; the first incomplete or
/// checksum-failing record ends the stream and everything from there on is
/// reported as torn tail. This is the write-ahead-log convention: a crash
/// can only tear the *final* record, so any checksum failure marks the
/// durable frontier.
///
/// # Errors
/// Returns [`JournalError::CorruptRecord`] if a record's checksum verifies
/// but its payload fails to decode — corruption no torn write can produce.
pub fn read_journal(bytes: &[u8]) -> Result<JournalReplay, JournalError> {
    let mut records = Vec::new();
    let mut at = 0usize;
    while let Some((range, next)) = next_record(bytes, at) {
        let record: JournalRecord =
            decode(&bytes[range]).map_err(|_| JournalError::CorruptRecord { offset: at })?;
        records.push(record);
        at = next;
    }
    Ok(JournalReplay {
        records,
        valid_len: at,
        truncated_tail: bytes.len() - at,
    })
}

/// An append-only, checksummed record log.
///
/// `append` stages a record; `commit` makes everything appended so far
/// durable. Backends differ only in where bytes live and what "durable"
/// means.
pub trait Journal {
    /// Appends one framed record.
    ///
    /// # Errors
    /// Backend-specific write failures, or [`JournalError::Crashed`] from a
    /// fault-injecting backend.
    fn append(&mut self, record: &JournalRecord) -> Result<(), JournalError>;

    /// Makes all appended records durable (fsync for file backends).
    ///
    /// # Errors
    /// Backend-specific sync failures.
    fn commit(&mut self) -> Result<(), JournalError>;

    /// A snapshot of the journal's current byte content, including any
    /// uncommitted tail.
    ///
    /// # Errors
    /// Backend-specific read failures.
    fn bytes(&self) -> Result<Vec<u8>, JournalError>;
}

/// In-memory journal backend. `commit` advances a watermark so tests can
/// distinguish durable bytes from staged ones.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemJournal {
    buf: Vec<u8>,
    committed: usize,
}

impl MemJournal {
    /// An empty in-memory journal.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A journal pre-loaded with `bytes` (e.g. a recorded round, possibly
    /// truncated), all considered committed.
    #[must_use]
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        let committed = bytes.len();
        Self {
            buf: bytes,
            committed,
        }
    }
}

impl Journal for MemJournal {
    fn append(&mut self, record: &JournalRecord) -> Result<(), JournalError> {
        self.buf.extend_from_slice(&encode_record(record)?);
        Ok(())
    }

    fn commit(&mut self) -> Result<(), JournalError> {
        self.committed = self.buf.len();
        Ok(())
    }

    fn bytes(&self) -> Result<Vec<u8>, JournalError> {
        Ok(self.buf.clone())
    }
}

fn io_err(context: &'static str) -> impl FnOnce(std::io::Error) -> JournalError {
    move |e| JournalError::Io {
        context,
        message: e.to_string(),
    }
}

/// File-backed journal. Appends buffer in the OS page cache; `commit` calls
/// `sync_data`, so a record is durable exactly when the commit point that
/// follows it returns.
#[derive(Debug)]
pub struct FileJournal {
    file: File,
    path: PathBuf,
}

impl FileJournal {
    /// Creates a fresh journal file, truncating any existing content.
    ///
    /// # Errors
    /// Returns [`JournalError::Io`] if the file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, JournalError> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(io_err("create"))?;
        Ok(Self { file, path })
    }

    /// Opens an existing journal file, replays it, truncates any torn tail
    /// left by a crash, and positions for appending. Returns the journal and
    /// the replay of its intact records.
    ///
    /// # Errors
    /// Returns [`JournalError::Io`] on file errors and
    /// [`JournalError::CorruptRecord`] on non-torn corruption.
    pub fn open(path: impl AsRef<Path>) -> Result<(Self, JournalReplay), JournalError> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(io_err("open"))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(io_err("read"))?;
        let replay = read_journal(&bytes)?;
        if replay.truncated_tail > 0 {
            file.set_len(replay.valid_len as u64)
                .map_err(io_err("truncate torn tail"))?;
            file.sync_data().map_err(io_err("sync after truncate"))?;
        }
        file.seek(SeekFrom::End(0)).map_err(io_err("seek"))?;
        Ok((Self { file, path }, replay))
    }

    /// The path this journal writes to.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Journal for FileJournal {
    fn append(&mut self, record: &JournalRecord) -> Result<(), JournalError> {
        self.file
            .write_all(&encode_record(record)?)
            .map_err(io_err("append"))
    }

    fn commit(&mut self) -> Result<(), JournalError> {
        self.file.sync_data().map_err(io_err("fsync"))
    }

    fn bytes(&self) -> Result<Vec<u8>, JournalError> {
        let mut file = File::open(&self.path).map_err(io_err("reopen"))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(io_err("read"))?;
        Ok(bytes)
    }
}

/// Fault-injecting journal backend for crash tests and the `recovery` fuzz
/// oracle.
///
/// Wraps a [`MemJournal`] and dies at configured absolute byte offsets: an
/// append that would carry the journal past the next pending crash offset
/// writes only the bytes up to that offset — a torn record, exactly what a
/// process killed mid-`write` leaves behind — and every subsequent operation
/// fails with [`JournalError::Crashed`] until [`CrashingJournal::revive`]
/// simulates a restart by discarding the torn tail.
#[derive(Debug, Clone, Default)]
pub struct CrashingJournal {
    inner: MemJournal,
    /// Pending crash offsets, ascending; the front one is armed.
    crash_offsets: Vec<u64>,
    crashed: bool,
}

impl CrashingJournal {
    /// A journal that never crashes.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A journal pre-loaded with `bytes` that crashes when its length would
    /// exceed each offset in `crash_offsets` (absolute, in bytes).
    #[must_use]
    pub fn with_crashes(bytes: Vec<u8>, mut crash_offsets: Vec<u64>) -> Self {
        crash_offsets.sort_unstable();
        let len = bytes.len() as u64;
        crash_offsets.retain(|&o| o >= len);
        Self {
            inner: MemJournal::from_bytes(bytes),
            crash_offsets,
            crashed: false,
        }
    }

    /// Simulates a process restart: discards the torn tail (if any), clears
    /// the crashed flag, and returns the replay of the surviving records.
    ///
    /// # Errors
    /// Returns [`JournalError::CorruptRecord`] on non-torn corruption.
    pub fn revive(&mut self) -> Result<JournalReplay, JournalError> {
        let replay = read_journal(&self.inner.buf)?;
        self.inner.buf.truncate(replay.valid_len);
        self.inner.committed = self.inner.committed.min(replay.valid_len);
        self.crashed = false;
        Ok(replay)
    }
}

impl Journal for CrashingJournal {
    fn append(&mut self, record: &JournalRecord) -> Result<(), JournalError> {
        if self.crashed {
            return Err(JournalError::Crashed {
                at_byte: self.inner.buf.len() as u64,
            });
        }
        let framed = encode_record(record)?;
        let end = self.inner.buf.len() as u64 + framed.len() as u64;
        if let Some(&at) = self.crash_offsets.first() {
            if end > at {
                // Torn write: only the bytes before the crash point land.
                let keep = (at as usize).saturating_sub(self.inner.buf.len());
                self.inner.buf.extend_from_slice(&framed[..keep]);
                self.crash_offsets.remove(0);
                self.crashed = true;
                return Err(JournalError::Crashed { at_byte: at });
            }
        }
        self.inner.buf.extend_from_slice(&framed);
        Ok(())
    }

    fn commit(&mut self) -> Result<(), JournalError> {
        if self.crashed {
            return Err(JournalError::Crashed {
                at_byte: self.inner.buf.len() as u64,
            });
        }
        self.inner.commit()
    }

    fn bytes(&self) -> Result<Vec<u8>, JournalError> {
        self.inner.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::RoundOpened {
                round: RoundId(7),
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
            JournalRecord::BidAccepted {
                machine: 1,
                value: 2.5,
            },
            JournalRecord::AllocationCommitted {
                rates: vec![6.0, 4.0, 0.0],
                estimated_exec: vec![1.5, 2.5, 0.0],
            },
            JournalRecord::ExecutionObserved { machine: 0 },
            JournalRecord::ExecutionObserved { machine: 1 },
            JournalRecord::PaymentsCommitted {
                payments: vec![-3.0, -2.0, 0.0],
            },
            JournalRecord::LedgerSealed {
                digest: 0x0123_4567_89ab_cdef,
            },
            JournalRecord::RoundSealed,
        ]
    }

    fn journal_bytes(records: &[JournalRecord]) -> Vec<u8> {
        let mut j = MemJournal::new();
        for r in records {
            j.append(r).unwrap();
        }
        j.bytes().unwrap()
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32/IEEE of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_all_record_kinds() {
        let records = sample_records();
        let bytes = journal_bytes(&records);
        let replay = read_journal(&bytes).unwrap();
        assert_eq!(replay.records, records);
        assert_eq!(replay.valid_len, bytes.len());
        assert_eq!(replay.truncated_tail, 0);
    }

    #[test]
    fn every_truncation_point_is_torn_tail_never_misparse() {
        let records = sample_records();
        let bytes = journal_bytes(&records);
        let boundaries = JournalReplay::boundaries(&bytes);
        assert_eq!(boundaries.len(), records.len() + 1);
        for cut in 0..=bytes.len() {
            let replay = read_journal(&bytes[..cut]).unwrap();
            // The replayed prefix must be an exact prefix of the records.
            assert_eq!(
                replay.records.as_slice(),
                &records[..replay.records.len()],
                "cut at {cut}"
            );
            // At a record boundary nothing is torn; in between, the torn
            // tail is exactly the partial record.
            if boundaries.contains(&cut) {
                assert_eq!(replay.truncated_tail, 0, "cut at {cut}");
            } else {
                assert!(replay.truncated_tail > 0, "cut at {cut}");
            }
            assert_eq!(replay.valid_len + replay.truncated_tail, cut);
        }
    }

    #[test]
    fn bit_flip_in_payload_ends_the_stream() {
        let bytes = journal_bytes(&sample_records());
        let boundaries = JournalReplay::boundaries(&bytes);
        // Flip a byte inside the third record's payload.
        let mut corrupt = bytes.clone();
        let offset = boundaries[2] + 8; // past len+crc header
        corrupt[offset] ^= 0xFF;
        let replay = read_journal(&corrupt).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.valid_len, boundaries[2]);
    }

    #[test]
    fn absurd_length_prefix_is_torn_tail() {
        let mut bytes = journal_bytes(&sample_records()[..2]);
        let good = bytes.len();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 12]);
        let replay = read_journal(&bytes).unwrap();
        assert_eq!(replay.valid_len, good);
        assert_eq!(replay.truncated_tail, 16);
    }

    #[test]
    fn crc_valid_undecodable_payload_is_hard_corruption() {
        // A payload that passes the checksum but holds an invalid enum
        // variant index: not producible by a torn write.
        let payload = 99u32.to_le_bytes();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        match read_journal(&bytes) {
            Err(JournalError::CorruptRecord { offset: 0 }) => {}
            other => panic!("expected CorruptRecord, got {other:?}"),
        }
    }

    #[test]
    fn mem_journal_commit_watermark() {
        let mut j = MemJournal::new();
        j.append(&JournalRecord::RoundSealed).unwrap();
        assert_eq!(j.committed, 0);
        j.commit().unwrap();
        assert_eq!(j.committed, j.bytes().unwrap().len());
    }

    #[test]
    fn file_journal_roundtrip_and_torn_tail_truncation() {
        let path = std::env::temp_dir().join(format!(
            "lb-journal-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let records = sample_records();
        {
            let mut j = FileJournal::create(&path).unwrap();
            for r in &records {
                j.append(r).unwrap();
            }
            j.commit().unwrap();
        }
        // Tear the tail mid-record, as a crash would.
        let bytes = std::fs::read(&path).unwrap();
        let boundaries = JournalReplay::boundaries(&bytes);
        let cut = boundaries[boundaries.len() - 2] + 3;
        std::fs::write(&path, &bytes[..cut]).unwrap();

        let (mut j, replay) = FileJournal::open(&path).unwrap();
        assert_eq!(replay.records.as_slice(), &records[..records.len() - 1]);
        assert_eq!(replay.truncated_tail, 3);
        // The torn tail is physically gone and appends continue cleanly.
        j.append(&JournalRecord::RoundSealed).unwrap();
        j.commit().unwrap();
        let replay2 = read_journal(&j.bytes().unwrap()).unwrap();
        assert_eq!(replay2.records, records);
        assert_eq!(replay2.truncated_tail, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn crashing_journal_tears_midwrite_and_revives() {
        let records = sample_records();
        let clean = journal_bytes(&records);
        let boundaries = JournalReplay::boundaries(&clean);
        // Crash 3 bytes into the AllocationCommitted record.
        let crash_at = boundaries[4] as u64 + 3;
        let mut j = CrashingJournal::with_crashes(Vec::new(), vec![crash_at]);
        let mut failed_at = None;
        for (i, r) in records.iter().enumerate() {
            match j.append(r) {
                Ok(()) => {}
                Err(JournalError::Crashed { at_byte }) => {
                    assert_eq!(at_byte, crash_at);
                    failed_at = Some(i);
                    break;
                }
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert_eq!(failed_at, Some(4));
        assert!(j.crashed);
        // Dead until revived.
        assert!(matches!(j.commit(), Err(JournalError::Crashed { .. })));
        let replay = j.revive().unwrap();
        assert_eq!(replay.records.as_slice(), &records[..4]);
        assert_eq!(replay.truncated_tail, 3);
        // After revival the journal accepts the rest of the round.
        for r in &records[4..] {
            j.append(r).unwrap();
        }
        j.commit().unwrap();
        assert_eq!(read_journal(&j.bytes().unwrap()).unwrap().records, records);
    }

    #[test]
    fn ledger_chain_replay_matches_incremental_absorption() {
        let records = sample_records();
        let mut incremental = LedgerChain::new();
        let mut bytes = Vec::new();
        for r in &records {
            let frame = encode_record(r).unwrap();
            incremental.absorb_frame(&frame);
            bytes.extend_from_slice(&frame);
        }
        assert_eq!(LedgerChain::replay(&bytes).head(), incremental.head());
        assert_ne!(incremental.head(), LedgerChain::SEED);
        // Resume from an exported head: same terminal state.
        let mid = LedgerChain::replay(&journal_bytes(&records[..4]));
        let mut resumed = LedgerChain { head: mid.head() };
        let tail = journal_bytes(&records);
        let boundaries = JournalReplay::boundaries(&tail);
        let mut at = boundaries[4];
        for &next in &boundaries[5..] {
            resumed.absorb_frame(&tail[at..next]);
            at = next;
        }
        assert_eq!(resumed.head(), incremental.head());
    }

    #[test]
    fn ledger_chain_sees_any_tamper() {
        let records = sample_records();
        let bytes = journal_bytes(&records);
        let clean = LedgerChain::replay(&bytes).head();
        let boundaries = JournalReplay::boundaries(&bytes);

        // A payload byte flip with a recomputed checksum — invisible to the
        // CRC framing — still diverges the chain. The flipped byte is the
        // low mantissa byte of `payments[0]` (after the 8-byte frame header,
        // the 4-byte tag and the 8-byte count), so the forged record still
        // decodes.
        let mut forged = bytes.clone();
        let (start, end) = (boundaries[7], boundaries[8]);
        forged[start + 8 + 12] ^= 0x01;
        let crc = crc32(&forged[start + 8..end]).to_le_bytes();
        forged[start + 4..start + 8].copy_from_slice(&crc);
        assert_eq!(read_journal(&forged).unwrap().records.len(), records.len());
        assert_ne!(LedgerChain::replay(&forged).head(), clean);

        // Dropping a whole record diverges too.
        let mut dropped = bytes[..boundaries[2]].to_vec();
        dropped.extend_from_slice(&bytes[boundaries[3]..]);
        assert_ne!(LedgerChain::replay(&dropped).head(), clean);

        // Reordering two adjacent records diverges (order is committed).
        let mut swapped = bytes[..boundaries[2]].to_vec();
        swapped.extend_from_slice(&bytes[boundaries[3]..boundaries[4]]);
        swapped.extend_from_slice(&bytes[boundaries[2]..boundaries[3]]);
        swapped.extend_from_slice(&bytes[boundaries[4]..]);
        assert_ne!(LedgerChain::replay(&swapped).head(), clean);
    }

    #[test]
    fn crash_exactly_at_boundary_is_clean() {
        let records = sample_records();
        let clean = journal_bytes(&records);
        let boundaries = JournalReplay::boundaries(&clean);
        let crash_at = boundaries[2] as u64;
        let mut j = CrashingJournal::with_crashes(Vec::new(), vec![crash_at]);
        let mut wrote = 0;
        for r in &records {
            if j.append(r).is_err() {
                break;
            }
            wrote += 1;
        }
        assert_eq!(wrote, 2);
        let replay = j.revive().unwrap();
        assert_eq!(replay.truncated_tail, 0);
        assert_eq!(replay.records.as_slice(), &records[..2]);
    }
}
