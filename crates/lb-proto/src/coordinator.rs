//! The mechanism centre as an explicit state machine.
//!
//! The coordinator drives one round through three phases:
//!
//! ```text
//! CollectingBids → Executing → Done
//! ```
//!
//! One private transition crosses each phase boundary of the paper's
//! protocol (end of Sec. 3): `end_bidding`, `allocate` against a harmonic
//! sum `s = Σ 1/b_i`, `commit_allocation` of the rates and the
//! verification estimates, and `settle` against `s`. Only the
//! message-driven triggers ([`Coordinator::handle`],
//! [`Coordinator::close_bidding`], [`Coordinator::close_execution`],
//! [`Coordinator::resume`]) run them, every driver's round included, and
//! they take `s` and the estimates from the round's topology: by default the
//! single coordinator, one partial sum over the whole round and the
//! verification kernel ([`lb_sim::driver::simulate_partition`]) over one
//! range at stream offset 0; per-shard partials and simulations on the
//! shard tier ([`crate::shard`]). Every topology gathers, simulates and
//! scatters the same way and summarises verification as the `verify`
//! instant. It runs at the nodes' *actual* execution values, and the
//! coordinator keeps only the *estimates* for payment — it never reads a
//! node's private state.
//!
//! **Fault handling.** A machine whose bid never arrives can be *excluded*
//! by [`Coordinator::close_bidding`]: the round proceeds over the
//! respondents only (the excluded machine gets no jobs and no payment —
//! exactly the `L_{-i}` world its bonus is benchmarked against). A machine
//! whose completion acknowledgement is lost does not block settlement:
//! [`Coordinator::close_execution`] settles from the coordinator's own
//! measurements, which is all the payment needs.

use crate::codec::CodecError;
use crate::journal::{
    encode_record, ExclusionReason, Journal, JournalError, JournalRecord, LedgerChain,
};
use crate::message::{Message, RoundId};
use crate::trace::{Anomaly, AnomalyStats};
use lb_core::{inv_sum_dd, Allocation, CoreError, TwoF64};
use lb_mechanism::{MechanismError, VerifiedMechanism};
use lb_sim::driver::{simulate_partition, SimulationConfig};
use lb_telemetry::{
    noop_collector, Collector, Field, Phase, SettledRound, SpanId, Subsystem, TraceContext,
};
use std::cell::{Cell, RefCell};
use std::fmt;
use std::ops::Range;
use std::rc::Rc;
use std::sync::Arc;

/// One verification range's inputs, gathered by
/// [`Coordinator::verify_inputs`]: its respondents' global indices, their
/// bids, actual execution values and rates, and the global respondent
/// ordinal its RNG streams start at.
pub(crate) struct VerifyInput {
    pub(crate) idx: Vec<usize>,
    pub(crate) bids: Vec<f64>,
    pub(crate) exec: Vec<f64>,
    pub(crate) rates: Vec<f64>,
    pub(crate) offset: u64,
}

impl VerifyInput {
    /// The verification kernel over this range: its estimates, in range
    /// order.
    pub(crate) fn simulate(&self, sim: &SimulationConfig) -> Result<Vec<f64>, CoreError> {
        let (bids, exec, rates) = (&self.bids, &self.exec, &self.rates);
        simulate_partition(bids, exec, rates, sim, self.offset)
            .map(|report| report.estimated_exec_values)
    }
}

/// Where a round's two aggregate steps run: the harmonic sum
/// `s = Σ 1/b_i` that allocation and settlement use, and verification. The
/// defaults are the single coordinator, the `k = 1` case: one partial sum
/// over `0..n` and one simulated range at stream offset 0, with no frames.
pub(crate) trait Topology {
    /// `s` over the respondents, at allocation or (`allocating` false) at
    /// settlement, which a recovered round reaches without the allocation.
    fn inv_sum(
        &mut self,
        coordinator: &Coordinator<'_>,
        _allocating: bool,
    ) -> Result<TwoF64, ProtocolError> {
        Ok(coordinator.partial_inv_sum(0..coordinator.bids.len()))
    }

    /// The verification estimates for `rates`, full width (0 for excluded
    /// machines), simulated against `actual_exec_values`. No telemetry of
    /// its own: [`Coordinator::commit_allocation`] records the `verify`
    /// instant.
    fn verify(
        &mut self,
        c: &Coordinator<'_>,
        rates: &[f64],
        actual_exec_values: &[f64],
    ) -> Result<Vec<f64>, ProtocolError> {
        let inputs =
            c.verify_inputs(std::iter::once(0..c.bids.len()), rates, actual_exec_values)?;
        let simulate = |input: &VerifyInput| input.simulate(&c.sim_config);
        let estimates = inputs.iter().map(simulate).collect::<Result<Vec<_>, _>>()?;
        Ok(c.scatter(inputs.iter().map(|input| &input.idx).zip(&estimates)))
    }
}

/// The single-coordinator topology: the seam's defaults.
pub(crate) struct Local;

impl Topology for Local {}

/// Phase of the coordinator's round state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordinatorPhase {
    /// Waiting for all bids.
    CollectingBids,
    /// Jobs executing; waiting for all completion acknowledgements.
    Executing,
    /// Round complete.
    Done,
}

/// The downward frame of the coordinator's current phase
/// ([`Coordinator::outbound`]): transitions name only recipients, and a
/// driver builds each one's frame as it sends it. `Copy + Send + Sync`, so
/// frames can be built from one shared value on any thread.
#[derive(Debug, Clone, Copy)]
pub struct Outbound<'a> {
    round: RoundId,
    phase: CoordinatorPhase,
    /// The rates while executing, the payment ledger once settled.
    column: &'a [f64],
}

impl Outbound<'_> {
    /// The frame `machine` is sent: `RequestBid` while collecting bids, its
    /// `Assign` while executing, its `Payment` once settled. A machine the
    /// column does not cover is sent 0, as an excluded machine is.
    #[must_use]
    pub fn frame(self, machine: u32) -> Message {
        let round = self.round;
        let x = self.column.get(machine as usize).copied().unwrap_or(0.0);
        match self.phase {
            CoordinatorPhase::CollectingBids => Message::RequestBid { round },
            CoordinatorPhase::Executing => Message::Assign { round, rate: x },
            CoordinatorPhase::Done => Message::Payment { round, amount: x },
        }
    }
}

/// Typed errors from coordinator operations.
///
/// Out-of-order or replayed *calls* (as opposed to messages, which graceful
/// mode absorbs as anomalies) used to abort the process via `assert!` /
/// `expect`; after crash recovery such calls are reachable from ordinary
/// driver races, so they degrade to [`ProtocolError::PhaseViolation`]
/// instead.
#[derive(Debug)]
pub enum ProtocolError {
    /// An operation was invoked in a phase it is not valid in.
    PhaseViolation {
        /// The operation attempted.
        op: &'static str,
        /// The phase it requires.
        expected: CoordinatorPhase,
        /// The phase the coordinator is actually in.
        actual: CoordinatorPhase,
    },
    /// Round state the operation depends on is missing (e.g. settling with
    /// no committed allocation).
    MissingState {
        /// What was missing.
        what: &'static str,
    },
    /// A journal record contradicts the round it is being replayed into.
    ReplayMismatch {
        /// What disagreed.
        what: &'static str,
    },
    /// The round is too large for the wire format: machine indices and node
    /// counts travel as `u32`, so a round is capped at `u32::MAX` nodes.
    /// Validated up front by [`Coordinator::try_new`] — an oversized round
    /// surfaces here instead of panicking mid-phase (or worse, attempting a
    /// multi-gigabyte state allocation first).
    TooManyNodes {
        /// The offending node count.
        n: usize,
    },
    /// The sharded round asked for more shards than the `u32` wire format
    /// can index: shard ids travel as `u32` in `ShardSum` / `ShardEstimates`
    /// frames. Reachable only through an absurd shard
    /// count, but it surfaces as a typed error instead of a mid-round panic
    /// — the same contract as [`ProtocolError::TooManyNodes`].
    TooManyShards {
        /// The offending shard index (zero-based).
        shard: usize,
    },
    /// A shard worker thread panicked. The root aborts the round with this
    /// typed error instead of propagating the panic: the journal is left
    /// truncated at a record boundary (every append is atomic), so the
    /// round replays exactly like any other crash-interrupted round.
    ShardPanicked {
        /// The shard whose worker died.
        shard: usize,
    },
    /// The OS refused to start a shard's worker thread.
    ThreadRefused {
        /// The shard whose thread could not start.
        worker: usize,
    },
    /// A caller-supplied configuration is out of range (e.g. a fault
    /// probability outside `[0, 1]`, or a transport the requested topology
    /// cannot run over).
    InvalidConfig {
        /// What was invalid.
        what: &'static str,
    },
    /// A call named a machine the round does not have.
    MachineOutOfRange {
        /// The offending machine index.
        machine: usize,
        /// The round's machine count.
        n: usize,
    },
    /// A frame the receiver could not decode or encode.
    Codec(CodecError),
    /// The durable journal failed (including injected crashes).
    Journal(JournalError),
    /// A mechanism or simulation error.
    Mechanism(MechanismError),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::PhaseViolation {
                op,
                expected,
                actual,
            } => write!(
                f,
                "{op} requires phase {expected:?}, but phase is {actual:?}"
            ),
            Self::MissingState { what } => write!(f, "missing round state: {what}"),
            Self::ReplayMismatch { what } => write!(f, "journal replay mismatch: {what}"),
            Self::TooManyNodes { n } => {
                write!(f, "round of {n} nodes exceeds the u32 wire-format limit")
            }
            Self::TooManyShards { shard } => {
                write!(f, "shard index {shard} exceeds the u32 wire-format limit")
            }
            Self::ShardPanicked { shard } => {
                write!(f, "shard {shard} worker panicked; round aborted")
            }
            Self::ThreadRefused { worker } => {
                write!(f, "the OS refused to start worker thread {worker}")
            }
            Self::InvalidConfig { what } => write!(f, "invalid configuration: {what}"),
            Self::MachineOutOfRange { machine, n } => {
                write!(f, "machine {machine} is out of range for a round of {n}")
            }
            Self::Codec(e) => write!(f, "codec: {e}"),
            Self::Journal(e) => write!(f, "journal: {e}"),
            Self::Mechanism(e) => write!(f, "mechanism: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<MechanismError> for ProtocolError {
    fn from(e: MechanismError) -> Self {
        Self::Mechanism(e)
    }
}

impl From<CoreError> for ProtocolError {
    fn from(e: CoreError) -> Self {
        Self::Mechanism(MechanismError::Core(e))
    }
}

impl From<CodecError> for ProtocolError {
    fn from(e: CodecError) -> Self {
        Self::Codec(e)
    }
}

impl From<JournalError> for ProtocolError {
    fn from(e: JournalError) -> Self {
        Self::Journal(e)
    }
}

impl ProtocolError {
    /// Collapses into a [`MechanismError`] for drivers whose public result
    /// type predates the protocol-level error: mechanism errors pass
    /// through untouched (so `NeedTwoAgents` stays matchable), everything
    /// else is folded into an `Infeasible` core error carrying the message.
    #[must_use]
    pub fn into_mechanism(self) -> MechanismError {
        match self {
            Self::Mechanism(e) => e,
            other => MechanismError::Core(CoreError::Infeasible {
                reason: other.to_string(),
            }),
        }
    }

    /// Whether this is an injected journal crash — the signal the durable
    /// drivers recover from.
    #[must_use]
    pub fn is_crash(&self) -> bool {
        matches!(self, Self::Journal(JournalError::Crashed { .. }))
    }
}

/// Checks a round's machine count: at least one, and within the `u32`
/// wire width that machine indices and node counts travel in.
pub(crate) fn check_width(n: usize) -> Result<(), ProtocolError> {
    if n == 0 {
        return Err(ProtocolError::MissingState {
            what: "at least one node",
        });
    }
    if u32::try_from(n).is_err() {
        return Err(ProtocolError::TooManyNodes { n });
    }
    Ok(())
}

/// The mechanism centre for one round over `n` nodes.
pub struct Coordinator<'m> {
    mechanism: &'m dyn VerifiedMechanism,
    total_rate: f64,
    round: RoundId,
    sim_config: SimulationConfig,
    phase: CoordinatorPhase,
    bids: Vec<Option<f64>>,
    excluded: Vec<bool>,
    done: Vec<bool>,
    /// Machines that still owe a bid (not excluded, no bid recorded).
    outstanding_bids: usize,
    /// Respondents that still owe a completion acknowledgement.
    outstanding_acks: usize,
    allocation: Option<Allocation>,
    estimated_exec: Option<Vec<f64>>,
    payments: Option<Vec<f64>>,
    anomalies: AnomalyStats,
    /// Durable journal, when attached. Shared with the driver (which keeps
    /// its own handle for crash injection and recovery), hence `Rc`.
    journal: Option<Rc<RefCell<dyn Journal>>>,
    /// Whether this round's `RoundOpened` record is already in the journal
    /// (written lazily on the first append, or inherited via replay).
    journal_opened: bool,
    /// Tamper-evidence hash chain over the journal's framed bytes. Rebuilt
    /// lazily from the journal's current content on the first append (so it
    /// covers records inherited from earlier rounds and generations), then
    /// maintained incrementally; `None` until then.
    ledger: RefCell<Option<LedgerChain>>,
    /// Whether `RoundSealed` has been journalled: the round will never emit
    /// again, so a replayed settle fan-out is a no-op.
    sealed: bool,
    /// Whether this round's `LedgerSealed` record is already durable (written
    /// by [`Coordinator::seal`], or inherited via replay). Tracked separately
    /// from `sealed` so a crash *between* the two seal records does not make
    /// the recovered process journal `LedgerSealed` twice.
    ledger_sealed: bool,
    collector: Arc<dyn Collector>,
    /// Logical clock for telemetry, in seconds. The coordinator has no clock
    /// of its own; drivers call [`Coordinator::set_now`] before each handle
    /// or close call (sim time on the simulated network, wall-clock seconds
    /// since the round started on the shard tier).
    now: Cell<f64>,
    round_span: Cell<SpanId>,
    phase_span: Cell<SpanId>,
    spans_started: Cell<bool>,
    /// Trace context of the round, set by [`Coordinator::with_trace`]. When
    /// present (and sampled, and a collector is attached) every outbound
    /// frame carries it on the wire via [`Coordinator::wire_context`].
    trace: Cell<Option<TraceContext>>,
    /// The span id outbound frames are parented on: the currently open
    /// phase span, retained across settlement so Payment frames sent at
    /// round close still carry the trace identity.
    wire_span: Cell<SpanId>,
}

impl std::fmt::Debug for Coordinator<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coordinator")
            .field("round", &self.round)
            .field("phase", &self.phase)
            .field("excluded", &self.excluded)
            .finish()
    }
}

impl<'m> Coordinator<'m> {
    /// Creates a coordinator for a round over `n` nodes. Machine indices and
    /// node counts travel as `u32` on the wire and in the journal, so the
    /// count is validated *before* any per-node state is allocated — an
    /// oversized `n` answers with [`ProtocolError::TooManyNodes`] instead of
    /// attempting a huge allocation and then aborting mid-round at the
    /// first journal append.
    ///
    /// # Errors
    /// Returns [`ProtocolError::MissingState`] when `n == 0` and
    /// [`ProtocolError::TooManyNodes`] when `n > u32::MAX`.
    pub fn try_new(
        mechanism: &'m dyn VerifiedMechanism,
        n: usize,
        total_rate: f64,
        round: RoundId,
        sim_config: SimulationConfig,
    ) -> Result<Self, ProtocolError> {
        check_width(n)?;
        Ok(Self {
            mechanism,
            total_rate,
            round,
            sim_config,
            phase: CoordinatorPhase::CollectingBids,
            bids: vec![None; n],
            excluded: vec![false; n],
            done: vec![false; n],
            outstanding_bids: n,
            outstanding_acks: 0,
            allocation: None,
            estimated_exec: None,
            payments: None,
            anomalies: AnomalyStats::default(),
            journal: None,
            journal_opened: false,
            ledger: RefCell::new(None),
            sealed: false,
            ledger_sealed: false,
            collector: noop_collector(),
            now: Cell::new(0.0),
            round_span: Cell::new(SpanId::NULL),
            phase_span: Cell::new(SpanId::NULL),
            spans_started: Cell::new(false),
            trace: Cell::new(None),
            wire_span: Cell::new(SpanId::NULL),
        })
    }

    /// Narrows a machine index to the `u32` wire width. Infallible in
    /// practice — [`Coordinator::try_new`] rejects rounds wider than
    /// `u32::MAX` — but kept as a typed error so no hot path carries a
    /// reachable panic.
    fn machine_u32(i: usize) -> Result<u32, ProtocolError> {
        u32::try_from(i).map_err(|_| ProtocolError::TooManyNodes { n: i })
    }

    /// Attaches a wire-propagated trace context. Outbound frames then carry
    /// it (with the current phase span as parent) when the context is
    /// sampled and a collector is attached — see
    /// [`Coordinator::wire_context`].
    #[must_use]
    pub fn with_trace(self, ctx: TraceContext) -> Self {
        self.trace.set(Some(ctx));
        self
    }

    /// The trace context outbound frames should carry right now: the round's
    /// context re-parented on the most recent phase span. `None` when no
    /// context was attached, the round is unsampled, or telemetry is off —
    /// in which case frames stay byte-identical to the untraced wire format.
    #[must_use]
    pub fn wire_context(&self) -> Option<TraceContext> {
        if !self.collector.enabled() {
            return None;
        }
        let ctx = self.trace.get()?;
        if !ctx.sampled {
            return None;
        }
        Some(ctx.with_span(self.wire_span.get().0))
    }

    /// The currently open phase span ([`SpanId::NULL`] when none is open) —
    /// drivers use it to decide whether an inbound frame's context still
    /// parents on a live span or must degrade to an instant.
    pub(crate) fn phase_span(&self) -> SpanId {
        self.phase_span.get()
    }

    /// Attaches a telemetry collector. The coordinator then emits a `round`
    /// span with nested `phase.*` spans, an `anomaly` instant per absorbed
    /// irregularity and an `exclude` instant per exclusion, all timestamped
    /// with the clock fed through [`Coordinator::set_now`]. The default is
    /// the free noop collector.
    #[must_use]
    pub fn with_collector(mut self, collector: Arc<dyn Collector>) -> Self {
        self.collector = collector;
        self
    }

    /// Attaches a write-ahead journal. Every durable state transition is
    /// appended before the transition returns its recipients, and the
    /// allocation/payment/seal commit points `fsync` — see the `journal`
    /// module docs for the record grammar.
    #[must_use]
    pub fn with_journal(mut self, journal: Rc<RefCell<dyn Journal>>) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Re-attaches a journal whose records were already replayed into this
    /// coordinator: appends continue where the journal left off, without
    /// re-writing `RoundOpened`.
    pub(crate) fn attach_replayed_journal(&mut self, journal: Rc<RefCell<dyn Journal>>) {
        self.journal = Some(journal);
        self.journal_opened = true;
    }

    /// Appends one record, lazily preceding it with this round's
    /// `RoundOpened`.
    fn journal_append(&mut self, record: JournalRecord) -> Result<(), ProtocolError> {
        let Some(journal) = self.journal.clone() else {
            return Ok(());
        };
        self.ensure_ledger(&journal)?;
        let mut journal = journal.borrow_mut();
        if !self.journal_opened {
            let opened = JournalRecord::RoundOpened {
                round: self.round,
                n: u32::try_from(self.bids.len())
                    .map_err(|_| ProtocolError::TooManyNodes { n: self.bids.len() })?,
                total_rate: self.total_rate,
            };
            journal.append(&opened)?;
            self.journal_opened = true;
            self.ledger_absorb(&opened);
        }
        journal.append(&record)?;
        self.ledger_absorb(&record);
        Ok(())
    }

    /// Positions the ledger chain over the journal's current bytes, once.
    /// Lazy so that a journal inherited from earlier rounds or a previous
    /// process generation is folded in before this round's first append.
    fn ensure_ledger(&self, journal: &Rc<RefCell<dyn Journal>>) -> Result<(), ProtocolError> {
        if self.ledger.borrow().is_some() {
            return Ok(());
        }
        let bytes = journal.borrow().bytes()?;
        *self.ledger.borrow_mut() = Some(LedgerChain::replay(&bytes));
        Ok(())
    }

    /// Folds a just-appended record's frame into the ledger chain. Called
    /// only after the backend accepted the append — a torn (crashed) write
    /// never advances the chain; the next generation rebuilds it from the
    /// surviving bytes.
    fn ledger_absorb(&self, record: &JournalRecord) {
        if let Ok(frame) = encode_record(record) {
            if let Some(chain) = self.ledger.borrow_mut().as_mut() {
                chain.absorb_frame(&frame);
            }
        }
    }

    /// The current head of the tamper-evidence ledger chain, covering every
    /// framed byte in the attached journal. `None` without a journal (or if
    /// the journal's bytes cannot be read). This is the digest `seal` writes
    /// into [`JournalRecord::LedgerSealed`] and the value the `health`
    /// document carries as the external trust anchor.
    fn ledger_head(&self) -> Option<u64> {
        let journal = self.journal.clone()?;
        self.ensure_ledger(&journal).ok()?;
        self.ledger.borrow().as_ref().map(LedgerChain::head)
    }

    /// Flushes the journal at a commit point (fsync for file backends).
    fn journal_commit(&mut self) -> Result<(), ProtocolError> {
        if let Some(journal) = self.journal.clone() {
            journal.borrow_mut().commit()?;
        }
        Ok(())
    }

    /// Advances the coordinator's logical telemetry clock (seconds). Call
    /// before delivering a message or closing a phase so emitted events carry
    /// the driver's time; never moves backwards on its own.
    pub fn set_now(&self, at: f64) {
        self.now.set(at);
    }

    /// The attached telemetry collector (the noop collector by default).
    #[must_use]
    pub fn collector(&self) -> &Arc<dyn Collector> {
        &self.collector
    }

    /// Opens the `round` span (and the collect-bids phase span) on first
    /// use. Lazy so that un-instrumented coordinators never allocate ids.
    /// `pub(crate)` so drivers can open the spans before the first frame
    /// leaves: the opening bid requests then carry `phase.collect_bids` in
    /// their wire context, and shard workers parent their spans on it.
    /// Idempotent; a no-op without an enabled collector.
    pub(crate) fn ensure_round_span(&self) {
        if self.spans_started.get() || !self.collector.enabled() {
            return;
        }
        self.spans_started.set(true);
        let at = self.now.get();
        let mut fields = vec![
            Field::u64("round", self.round.0),
            Field::u64("n", self.bids.len() as u64),
        ];
        if let Some(ctx) = self.trace.get() {
            fields.push(Field::u64("trace_hi", (ctx.trace_id >> 64) as u64));
            fields.push(Field::u64("trace_lo", ctx.trace_id as u64));
        }
        let round = self
            .collector
            .span_start(at, "round", Subsystem::Coordinator, fields);
        self.round_span.set(round);
        let phase = self.collector.span_start_in(
            at,
            Phase::CollectBids.span_name(),
            Subsystem::Coordinator,
            round,
            Vec::new(),
        );
        self.phase_span.set(phase);
        self.wire_span.set(phase);
    }

    /// Ends the current phase span and, unless `next` is `None`, opens the
    /// next one under the round span.
    fn switch_phase_span(&self, next: Option<Phase>, fields: Vec<Field>) {
        if !self.collector.enabled() || !self.spans_started.get() {
            return;
        }
        let at = self.now.get();
        let current = self.phase_span.get();
        if !current.is_null() {
            self.collector.span_end(at, current);
        }
        match next {
            Some(phase) => {
                let span = self.collector.span_start_in(
                    at,
                    phase.span_name(),
                    Subsystem::Coordinator,
                    self.round_span.get(),
                    fields,
                );
                self.phase_span.set(span);
                self.wire_span.set(span);
            }
            // The wire span is deliberately retained: frames sent while no
            // phase is open (Payment, after settle) still carry the identity
            // of the last phase of their round.
            None => self.phase_span.set(SpanId::NULL),
        }
    }

    /// Closes any telemetry spans still open — call when abandoning a round
    /// midway (e.g. a session aborting on `NeedTwoAgents`) so the recording
    /// still replays cleanly. A settled round has already closed its spans;
    /// calling this again is a no-op.
    pub fn end_telemetry(&self) {
        if !self.spans_started.get() {
            return;
        }
        let at = self.now.get();
        let phase = self.phase_span.get();
        if !phase.is_null() {
            self.collector.span_end(at, phase);
            self.phase_span.set(SpanId::NULL);
        }
        let round = self.round_span.get();
        if !round.is_null() {
            self.collector.span_end(at, round);
            self.round_span.set(SpanId::NULL);
        }
    }

    /// The mechanism this round settles with.
    pub(crate) fn mechanism(&self) -> &'m dyn VerifiedMechanism {
        self.mechanism
    }

    /// Current phase.
    #[must_use]
    pub fn phase(&self) -> CoordinatorPhase {
        self.phase
    }

    /// Machines excluded from the current round (bid never arrived).
    #[must_use]
    pub fn excluded(&self) -> &[bool] {
        &self.excluded
    }

    /// Anomalies absorbed so far (graceful mode counts instead of panicking).
    #[must_use]
    pub fn anomalies(&self) -> &AnomalyStats {
        &self.anomalies
    }

    /// The one place that decides what a phase sends: the downward frame
    /// of the current phase, for the recipients a transition returned.
    ///
    /// # Errors
    /// Returns [`ProtocolError::MissingState`] if the phase's column (the
    /// allocation while executing, the payment ledger once settled) is
    /// missing.
    pub fn outbound(&self) -> Result<Outbound<'_>, ProtocolError> {
        let missing = |what| ProtocolError::MissingState { what };
        let column: &[f64] = match self.phase {
            CoordinatorPhase::CollectingBids => &[],
            CoordinatorPhase::Executing => self
                .allocation
                .as_ref()
                .ok_or(missing("allocation"))?
                .rates(),
            CoordinatorPhase::Done => self.payments.as_deref().ok_or(missing("payment ledger"))?,
        };
        let (round, phase) = (self.round, self.phase);
        Ok(Outbound {
            round,
            phase,
            column,
        })
    }

    /// The machines `keep` selects, ascending, at the u32 wire width.
    fn machines_where(&self, keep: impl Fn(usize) -> bool) -> Vec<u32> {
        // Pairing with a u32 counter keeps this hot path panic-free: try_new
        // guarantees every index fits, so the zip never truncates.
        (0u32..)
            .zip(0..self.bids.len())
            .filter(|&(_, i)| keep(i))
            .map(|(m, _)| m)
            .collect()
    }

    /// Machines still expected to bid: not excluded and no bid recorded.
    /// Only meaningful during the collection phase; the retransmission
    /// runtime re-requests exactly this set.
    #[must_use]
    pub fn missing_bids(&self) -> Vec<u32> {
        self.machines_where(|i| self.bids[i].is_none() && !self.excluded[i])
    }

    /// Fails with [`ProtocolError::PhaseViolation`] unless the round is in
    /// `expected`.
    fn expect_phase(
        &self,
        op: &'static str,
        expected: CoordinatorPhase,
    ) -> Result<(), ProtocolError> {
        if self.phase == expected {
            Ok(())
        } else {
            Err(ProtocolError::PhaseViolation {
                op,
                expected,
                actual: self.phase,
            })
        }
    }

    /// Excludes `machine` up front, before any timeout — used by sessions to
    /// quarantine a machine for the round. Its bids will be absorbed as
    /// stale. A failed call changes nothing.
    ///
    /// # Errors
    /// Returns [`ProtocolError::PhaseViolation`] outside the collection
    /// phase, [`ProtocolError::MachineOutOfRange`] for a machine the round
    /// does not have, or a journal error from the attached journal.
    pub fn exclude(&mut self, machine: usize) -> Result<(), ProtocolError> {
        self.expect_phase("exclude", CoordinatorPhase::CollectingBids)?;
        let n = self.excluded.len();
        if machine >= n {
            return Err(ProtocolError::MachineOutOfRange { machine, n });
        }
        self.ensure_round_span();
        if self.excluded[machine] {
            // Already excluded (e.g. re-applied after recovery): idempotent.
            return Ok(());
        }
        self.journal_append(JournalRecord::ExclusionDecided {
            machine: Self::machine_u32(machine)?,
            reason: ExclusionReason::Quarantine,
        })?;
        self.write_slot(machine, |c| c.excluded[machine] = true);
        self.collector.instant(
            self.now.get(),
            "exclude",
            Subsystem::Coordinator,
            vec![
                Field::u64("machine", machine as u64),
                Field::str("reason", "quarantine"),
            ],
        );
        Ok(())
    }

    /// Records an anomaly in the stats and as an `anomaly` telemetry
    /// instant.
    fn note_anomaly(&mut self, anomaly: Anomaly) {
        self.anomalies.record(anomaly);
        self.collector.instant(
            self.now.get(),
            "anomaly",
            Subsystem::Coordinator,
            vec![Field::str("kind", anomaly.name())],
        );
    }

    /// Records an anomaly for a rejected message: a byzantine or chaotic
    /// network cannot crash the mechanism centre.
    fn reject(&mut self, anomaly: Anomaly) -> bool {
        self.note_anomaly(anomaly);
        false
    }

    /// Machine `i`'s accepted bid, unless it was excluded.
    fn respondent_bid(&self, i: usize) -> Option<f64> {
        if self.excluded[i] {
            None
        } else {
            self.bids[i]
        }
    }

    /// The respondents in `range`, in ascending order, with their bids.
    fn respondent_bids(&self, range: Range<usize>) -> (Vec<usize>, Vec<f64>) {
        range
            .filter_map(|i| self.respondent_bid(i).map(|b| (i, b)))
            .unzip()
    }

    fn respondents(&self) -> Vec<u32> {
        self.machines_where(|i| self.respondent_bid(i).is_some())
    }

    /// Spreads values over the full width of the round (0 for everyone
    /// else): each part pairs machine indices with one value apiece.
    pub(crate) fn scatter<M: AsRef<[usize]>, V: AsRef<[f64]>>(
        &self,
        parts: impl IntoIterator<Item = (M, V)>,
    ) -> Vec<f64> {
        let mut full = vec![0.0; self.bids.len()];
        for (machines, values) in parts {
            for (&i, &v) in machines.as_ref().iter().zip(values.as_ref()) {
                full[i] = v;
            }
        }
        full
    }

    /// The verification gather: for each of `ranges` (ascending and
    /// contiguous), its respondents with their bids, actual execution values
    /// and rates (`rates` and `actual_exec_values` are full-width), plus the
    /// global respondent ordinal at which their RNG streams start.
    pub(crate) fn verify_inputs(
        &self,
        ranges: impl IntoIterator<Item = Range<usize>>,
        rates: &[f64],
        actual_exec_values: &[f64],
    ) -> Result<Vec<VerifyInput>, ProtocolError> {
        let mut inputs = Vec::new();
        let mut offset = 0;
        for range in ranges {
            let (idx, bids) = self.respondent_bids(range);
            let pick = |column: &[f64]| {
                idx.iter()
                    .map(|&i| {
                        column.get(i).copied().ok_or(CoreError::LengthMismatch {
                            expected: self.bids.len(),
                            actual: column.len(),
                        })
                    })
                    .collect::<Result<Vec<f64>, _>>()
            };
            let input = VerifyInput {
                exec: pick(actual_exec_values)?,
                rates: pick(rates)?,
                bids,
                offset,
                idx,
            };
            offset += input.idx.len() as u64;
            inputs.push(input);
        }
        Ok(inputs)
    }

    /// `Σ 1/b_i` over the respondents in `range`, in double-double: one
    /// shard's partial harmonic sum. The message-driven round is the `k = 1`
    /// case and sums `0..n`.
    pub(crate) fn partial_inv_sum(&self, range: Range<usize>) -> TwoF64 {
        let bids: Vec<f64> = range.filter_map(|i| self.respondent_bid(i)).collect();
        inv_sum_dd(&bids)
    }

    /// Whether machine `i` still owes a bid, and an acknowledgement (0/1).
    fn outstanding_at(&self, i: usize) -> (usize, usize) {
        let bid = self.bids[i].is_none() && !self.excluded[i];
        let ack = self.respondent_bid(i).is_some() && !self.done[i];
        (usize::from(bid), usize::from(ack))
    }

    /// Writes machine `i`'s bid, exclusion or acknowledgement slot through
    /// `write`, keeping the outstanding counters equal to a full scan, so
    /// the triggers decide in O(1) per frame.
    fn write_slot(&mut self, i: usize, write: impl FnOnce(&mut Self)) {
        let (bid, ack) = self.outstanding_at(i);
        write(self);
        let (bid_after, ack_after) = self.outstanding_at(i);
        self.outstanding_bids = self.outstanding_bids + bid_after - bid;
        self.outstanding_acks = self.outstanding_acks + ack_after - ack;
    }

    /// Handles one node message; returns the machines to send to, each the
    /// frame [`Coordinator::outbound`] builds for the phase the message
    /// left the round in. The last bid in allocates and the last
    /// acknowledgement in settles.
    ///
    /// `actual_exec_values` is the *world state* the execution simulation
    /// runs against; the coordinator only ever uses its measurements of it.
    ///
    /// # Errors
    /// Propagates mechanism/simulation errors (as
    /// [`ProtocolError::Mechanism`]) and journal failures.
    ///
    /// Protocol violations — wrong round, out-of-range machine,
    /// coordinator-originated messages, duplicate bids, out-of-phase
    /// messages — are absorbed and counted in [`Coordinator::anomalies`];
    /// they send nothing.
    pub fn handle(
        &mut self,
        message: &Message,
        actual_exec_values: &[f64],
    ) -> Result<Vec<u32>, ProtocolError> {
        self.handle_in(message, actual_exec_values, &mut Local)
    }

    /// [`Coordinator::handle`] over `topology`.
    pub(crate) fn handle_in(
        &mut self,
        message: &Message,
        actual_exec_values: &[f64],
        topology: &mut dyn Topology,
    ) -> Result<Vec<u32>, ProtocolError> {
        if !self.ingest(message)? {
            return Ok(Vec::new());
        }
        match message {
            Message::Bid { .. } if self.outstanding_bids == 0 => {
                self.allocate_in(actual_exec_values, topology)
            }
            Message::ExecutionDone { .. } if self.outstanding_acks == 0 => self.settle_in(topology),
            _ => Ok(Vec::new()),
        }
    }

    /// Bid timeout: excludes every machine whose bid has not arrived and
    /// proceeds with the respondents. Returns the respondents, each to be
    /// sent its `Assign`.
    ///
    /// # Errors
    /// Returns [`MechanismError::NeedTwoAgents`] (wrapped in
    /// [`ProtocolError::Mechanism`]) when fewer than two bids arrived (the
    /// mechanism cannot run), [`ProtocolError::PhaseViolation`] outside the
    /// bid-collection phase, or downstream errors.
    pub fn close_bidding(&mut self, actual_exec_values: &[f64]) -> Result<Vec<u32>, ProtocolError> {
        self.end_bidding()?;
        self.allocate_in(actual_exec_values, &mut Local)
    }

    /// Execution timeout: settles from the coordinator's own measurements
    /// even though some completion acknowledgements are missing. Returns
    /// the respondents, each to be sent its `Payment`.
    ///
    /// # Errors
    /// Propagates mechanism errors; returns
    /// [`ProtocolError::PhaseViolation`] outside the execution phase.
    pub fn close_execution(&mut self) -> Result<Vec<u32>, ProtocolError> {
        self.settle_in(&mut Local)
    }

    /// The timeout of the phase the round is in, over `topology`:
    /// [`Coordinator::close_bidding`] or [`Coordinator::close_execution`].
    pub(crate) fn close_phase_in(
        &mut self,
        actual_exec_values: &[f64],
        topology: &mut dyn Topology,
    ) -> Result<Vec<u32>, ProtocolError> {
        match self.phase {
            CoordinatorPhase::CollectingBids => {
                self.end_bidding()?;
                self.allocate_in(actual_exec_values, topology)
            }
            CoordinatorPhase::Executing => self.settle_in(topology),
            CoordinatorPhase::Done => Ok(Vec::new()),
        }
    }

    /// Allocates against the topology's harmonic sum, verifies through it
    /// and commits.
    fn allocate_in(
        &mut self,
        actual_exec_values: &[f64],
        topology: &mut dyn Topology,
    ) -> Result<Vec<u32>, ProtocolError> {
        let rates = self.allocate(topology.inv_sum(self, true)?)?;
        let estimates = topology.verify(self, &rates, actual_exec_values)?;
        self.commit_allocation(rates, estimates)
    }

    /// Settles against the topology's harmonic sum.
    fn settle_in(&mut self, topology: &mut dyn Topology) -> Result<Vec<u32>, ProtocolError> {
        let s = topology.inv_sum(self, false)?;
        self.settle(s)
    }

    /// Absorbs one node message *without* triggering a phase transition:
    /// [`Coordinator::handle`]'s acceptance and anomaly semantics (stale
    /// round, unsolicited, stale-after-exclusion, wrong phase, duplicate),
    /// ahead of the allocation or settle the last bid or acknowledgement
    /// triggers.
    ///
    /// Returns whether the message was accepted into the round state;
    /// a rejected one is counted in [`Coordinator::anomalies`].
    fn ingest(&mut self, message: &Message) -> Result<bool, ProtocolError> {
        self.ensure_round_span();
        if message.round() != self.round {
            return Ok(self.reject(Anomaly::StaleRound));
        }
        match *message {
            Message::Bid { machine, value, .. } => {
                let idx = machine as usize;
                let anomaly = if idx >= self.bids.len() {
                    Anomaly::Unsolicited
                } else if self.excluded[idx] {
                    // A bid that arrives after exclusion is stale: absorbed
                    // in whatever phase it straggles in (losing a race
                    // against the timeout is the network's fault).
                    Anomaly::StaleAfterExclusion
                } else if self.phase != CoordinatorPhase::CollectingBids {
                    Anomaly::WrongPhase
                } else if self.bids[idx].is_some() {
                    Anomaly::DuplicateBid
                } else {
                    self.journal_append(JournalRecord::BidAccepted { machine, value })?;
                    self.write_slot(idx, |c| c.bids[idx] = Some(value));
                    return Ok(true);
                };
                Ok(self.reject(anomaly))
            }
            Message::ExecutionDone { machine, .. } => {
                let idx = machine as usize;
                let anomaly = if self.phase != CoordinatorPhase::Executing {
                    Anomaly::WrongPhase
                } else if idx >= self.done.len() || self.excluded[idx] {
                    // An excluded machine has nothing to complete; its ack
                    // carries no standing in the round.
                    Anomaly::Unsolicited
                } else if self.done[idx] {
                    // A duplicated ack is idempotent: settlement depends on
                    // the set of completed machines, not the ack count.
                    Anomaly::DuplicateAck
                } else {
                    self.journal_append(JournalRecord::ExecutionObserved { machine })?;
                    self.write_slot(idx, |c| c.done[idx] = true);
                    return Ok(true);
                };
                Ok(self.reject(anomaly))
            }
            // Shard control frames are consumed by the shard runtime itself;
            // reaching the round state machine means a routing bug, same as
            // any coordinator-originated message.
            Message::RequestBid { .. }
            | Message::Assign { .. }
            | Message::Payment { .. }
            | Message::ShardSum { .. }
            | Message::ShardEstimates { .. } => Ok(self.reject(Anomaly::Misrouted)),
        }
    }

    /// Closes bidding: journals a timeout exclusion for every machine whose
    /// bid has not arrived, and fails with fewer than two respondents. The
    /// round stays in the collection phase until
    /// [`Coordinator::commit_allocation`].
    fn end_bidding(&mut self) -> Result<(), ProtocolError> {
        self.expect_phase("end_bidding", CoordinatorPhase::CollectingBids)?;
        self.ensure_round_span();
        for i in 0..self.bids.len() {
            if self.bids[i].is_none() && !self.excluded[i] {
                self.journal_append(JournalRecord::ExclusionDecided {
                    machine: Self::machine_u32(i)?,
                    reason: ExclusionReason::Timeout,
                })?;
                self.write_slot(i, |c| c.excluded[i] = true);
                self.collector.instant(
                    self.now.get(),
                    "exclude",
                    Subsystem::Coordinator,
                    vec![
                        Field::u64("machine", i as u64),
                        Field::str("reason", "timeout"),
                    ],
                );
            }
        }
        if self.respondents().len() < 2 {
            return Err(MechanismError::NeedTwoAgents.into());
        }
        Ok(())
    }

    /// Allocates over the respondents against `s`, the harmonic sum
    /// `Σ 1/b_i` of their bids (through the mechanism's
    /// [`VerifiedMechanism::allocate_with_sum`]), opens the allocate phase
    /// span and returns the full-width rate vector (excluded machines at
    /// 0). The round stays in the collection phase: verification runs
    /// between this call and [`Coordinator::commit_allocation`].
    fn allocate(&mut self, s: TwoF64) -> Result<Vec<f64>, ProtocolError> {
        self.expect_phase("allocate", CoordinatorPhase::CollectingBids)?;
        let (respondents, bids) = self.respondent_bids(0..self.bids.len());
        if respondents.len() < 2 {
            // Reachable when machines were excluded up front (quarantine)
            // and every remaining machine bid: the mechanism needs at least
            // two participants to run.
            return Err(MechanismError::NeedTwoAgents.into());
        }
        self.switch_phase_span(
            Some(Phase::Allocate),
            vec![Field::u64("respondents", respondents.len() as u64)],
        );
        let allocation = self
            .mechanism
            .allocate_with_sum(&bids, self.total_rate, s)?;
        Ok(self.scatter([(&respondents, allocation.rates())]))
    }

    /// Commits the allocation: validates it, emits the `verify` instant
    /// (the verification simulation ran between [`Coordinator::allocate`]
    /// and this call), journals `AllocationCommitted` and commits, installs
    /// the allocation and the estimates, advances to the execution phase
    /// and returns the respondents, each to be sent its `Assign`. `rates`
    /// and `estimates` are full-width (excluded machines at 0). A call
    /// rejected for its input (a column that is not `n` wide, rates that
    /// are not an allocation of the total) changes nothing.
    fn commit_allocation(
        &mut self,
        rates: Vec<f64>,
        estimates: Vec<f64>,
    ) -> Result<Vec<u32>, ProtocolError> {
        self.expect_phase("commit_allocation", CoordinatorPhase::CollectingBids)?;
        let n = self.bids.len();
        if let Some(column) = [&rates, &estimates].into_iter().find(|c| c.len() != n) {
            return Err(CoreError::LengthMismatch {
                expected: n,
                actual: column.len(),
            }
            .into());
        }
        let allocation = Allocation::new(rates, self.total_rate)?;
        let respondents = self.respondents();
        self.collector.instant(
            self.now.get(),
            "verify",
            Subsystem::Coordinator,
            vec![
                Field::u64("machines", respondents.len() as u64),
                Field::f64("horizon", self.sim_config.horizon),
            ],
        );
        // Commit point: the allocation must be durable before any Assign
        // frame can reach a node. The record copies two columns, so it is
        // built only when a journal is attached.
        if self.journal.is_some() {
            self.journal_append(JournalRecord::AllocationCommitted {
                rates: allocation.rates().to_vec(),
                estimated_exec: estimates.clone(),
            })?;
            self.journal_commit()?;
        }
        self.allocation = Some(allocation);
        self.estimated_exec = Some(estimates);
        self.phase = CoordinatorPhase::Executing;
        self.switch_phase_span(Some(Phase::Execute), Vec::new());
        Ok(respondents)
    }

    /// Settles the round against `s`, the respondents' harmonic sum
    /// (through the mechanism's [`VerifiedMechanism::payments_with_sum`]):
    /// journals and commits the payment ledger and returns the
    /// respondents, each to be sent its `Payment`. O(n): the payment rule
    /// takes every `L_{-i}` from one batch kernel pass.
    fn settle(&mut self, s: TwoF64) -> Result<Vec<u32>, ProtocolError> {
        self.expect_phase("settle", CoordinatorPhase::Executing)?;
        // A recovered generation whose journal already holds every ack
        // reaches settle straight from `resume`, with no span open yet.
        self.ensure_round_span();
        let (respondents, bids) = self.respondent_bids(0..self.bids.len());
        self.switch_phase_span(
            Some(Phase::Settle),
            vec![Field::u64(
                "completed",
                respondents.iter().filter(|&&i| self.done[i]).count() as u64,
            )],
        );
        let allocation = self
            .allocation
            .as_ref()
            .ok_or(ProtocolError::MissingState { what: "allocation" })?;
        let estimates = self
            .estimated_exec
            .as_ref()
            .ok_or(ProtocolError::MissingState {
                what: "execution estimates",
            })?;
        let sub_alloc = Allocation::new(
            respondents.iter().map(|&i| allocation.rate(i)).collect(),
            self.total_rate,
        )?;
        let sub_estimates: Vec<f64> = respondents.iter().map(|&i| estimates[i]).collect();
        let sub_payments = self.mechanism.payments_with_sum(
            &bids,
            &sub_alloc,
            &sub_estimates,
            self.total_rate,
            s,
        )?;
        let payments = self.scatter([(&respondents, &sub_payments)]);
        // Commit point: the payment ledger must be durable before the settle
        // fan-out leaves — on replay payments come from this record, never a
        // recomputation, which is what makes settlement exactly-once.
        if self.journal.is_some() {
            self.journal_append(JournalRecord::PaymentsCommitted {
                payments: payments.clone(),
            })?;
            self.journal_commit()?;
        }
        self.payments = Some(payments);
        self.report_settled();
        self.phase = CoordinatorPhase::Done;
        self.switch_phase_span(None, Vec::new());
        self.end_telemetry();
        Ok(self.respondents())
    }

    /// Hands the settled round to the collector as one [`SettledRound`]
    /// view ([`Collector::settled`]; the default records the settlement
    /// gauges when the collector is enabled). Called on every settle, so a
    /// monitor sees the round even over a disabled collector, and again
    /// from [`Coordinator::resume`] when a recovered round is already
    /// settled, so monitors attached to the new process generation still
    /// observe the round. A no-op before settlement state exists.
    fn report_settled(&self) {
        let (Some(allocation), Some(estimates), Some(payments)) = (
            self.allocation.as_ref(),
            self.estimated_exec.as_ref(),
            self.payments.as_ref(),
        ) else {
            return;
        };
        let bids: Vec<f64> = self.bids.iter().map(|b| b.unwrap_or(0.0)).collect();
        // Every column has the round's n > 0 entries, so the view always
        // builds.
        if let Ok(round) = SettledRound::new(
            self.round.0,
            self.total_rate,
            &bids,
            allocation.rates(),
            estimates,
            &self.excluded,
            payments,
            payments.iter().sum(),
        ) {
            self.collector.settled(self.now.get(), &round);
        }
    }

    /// Seals the round: journals `RoundSealed` and commits, marking that
    /// the settle fan-out has been handed to the network. After sealing, a
    /// recovered coordinator will not re-emit Payment frames. Idempotent;
    /// meaningful only with a journal attached (a plain coordinator just
    /// sets the flag).
    ///
    /// # Errors
    /// Returns [`ProtocolError::PhaseViolation`] before settlement, or a
    /// journal error.
    pub fn seal(&mut self) -> Result<(), ProtocolError> {
        if self.sealed {
            return Ok(());
        }
        self.expect_phase("seal", CoordinatorPhase::Done)?;
        if self.journal.is_some() && !self.ledger_sealed {
            // Tamper-evidence seal first: its digest covers every framed
            // byte written so far (this round's records included), then the
            // seal record itself joins the chain for the next round. Skipped
            // when a replayed journal already carries this round's
            // `LedgerSealed` (the crash hit between the two seal records).
            let digest = self.ledger_head().ok_or(ProtocolError::MissingState {
                what: "ledger chain head",
            })?;
            self.journal_append(JournalRecord::LedgerSealed { digest })?;
            self.ledger_sealed = true;
        }
        self.journal_append(JournalRecord::RoundSealed)?;
        self.journal_commit()?;
        self.sealed = true;
        Ok(())
    }

    /// Whether `RoundSealed` has been journalled.
    #[must_use]
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// This coordinator's round id.
    #[must_use]
    pub fn round(&self) -> RoundId {
        self.round
    }

    /// Applies one replayed journal record to the in-memory round state.
    /// Used by recovery; never re-journals (the record is already durable).
    pub(crate) fn apply_record(&mut self, record: &JournalRecord) -> Result<(), ProtocolError> {
        let check_machine = |machine: u32, n: usize| -> Result<usize, ProtocolError> {
            let idx = machine as usize;
            if idx >= n {
                return Err(ProtocolError::ReplayMismatch {
                    what: "machine index out of range",
                });
            }
            Ok(idx)
        };
        let n = self.bids.len();
        match record {
            JournalRecord::RoundOpened {
                round,
                n: opened_n,
                total_rate,
            } => {
                if *round != self.round
                    || *opened_n as usize != n
                    || total_rate.to_bits() != self.total_rate.to_bits()
                {
                    return Err(ProtocolError::ReplayMismatch {
                        what: "RoundOpened does not match the coordinator's round",
                    });
                }
            }
            JournalRecord::BidAccepted { machine, value } => {
                let idx = check_machine(*machine, n)?;
                self.write_slot(idx, |c| c.bids[idx] = Some(*value));
            }
            JournalRecord::ExclusionDecided { machine, .. } => {
                let idx = check_machine(*machine, n)?;
                self.write_slot(idx, |c| c.excluded[idx] = true);
            }
            JournalRecord::AllocationCommitted {
                rates,
                estimated_exec,
            } => {
                if rates.len() != n || estimated_exec.len() != n {
                    return Err(ProtocolError::ReplayMismatch {
                        what: "AllocationCommitted width",
                    });
                }
                self.allocation = Some(Allocation::new(rates.clone(), self.total_rate)?);
                self.estimated_exec = Some(estimated_exec.clone());
                self.phase = CoordinatorPhase::Executing;
            }
            JournalRecord::ExecutionObserved { machine } => {
                let idx = check_machine(*machine, n)?;
                self.write_slot(idx, |c| c.done[idx] = true);
            }
            JournalRecord::PaymentsCommitted { payments } => {
                if payments.len() != n {
                    return Err(ProtocolError::ReplayMismatch {
                        what: "PaymentsCommitted width",
                    });
                }
                // Exactly-once settle: the durable ledger *is* the payment —
                // it is restored, never recomputed.
                self.payments = Some(payments.clone());
                self.phase = CoordinatorPhase::Done;
            }
            JournalRecord::RoundSealed => {
                if self.phase != CoordinatorPhase::Done {
                    return Err(ProtocolError::ReplayMismatch {
                        what: "RoundSealed before PaymentsCommitted",
                    });
                }
                self.sealed = true;
            }
            JournalRecord::LedgerSealed { .. } => {
                // Tamper-evidence seal: carries no round state beyond the
                // fact that it was written (so `seal` won't write it again).
                // Its digest is checked offline by `lb_audit::verify_ledger`,
                // not during recovery (recovery trusts the CRC framing; an
                // auditor does not have to).
                self.ledger_sealed = true;
            }
        }
        Ok(())
    }

    /// The machines a recovered coordinator must (re-)send the current
    /// phase's frame ([`Coordinator::outbound`]) to move the round forward,
    /// derived from the replayed phase:
    ///
    /// * collecting, some bids missing — re-request exactly the missing bids
    ///   (nodes that already bid will be absorbed as duplicates);
    /// * collecting, all bids in — the crash hit between the last bid and
    ///   the allocation commit: run the allocation now (deterministic, so
    ///   bit-identical to what the dead process would have computed);
    /// * executing — re-send `Assign` to respondents that have not acked
    ///   (acked ones are done; re-acks would be absorbed as duplicates), or
    ///   settle immediately if every ack was already journalled;
    /// * settled but unsealed — re-send the Payment fan-out from the
    ///   durable ledger (idempotent at the nodes);
    /// * sealed — nothing: the round is over.
    ///
    /// # Errors
    /// Propagates mechanism/journal errors from the allocation or settle
    /// steps.
    pub fn resume(&mut self, actual_exec_values: &[f64]) -> Result<Vec<u32>, ProtocolError> {
        self.resume_in(actual_exec_values, &mut Local)
    }

    /// [`Coordinator::resume`] over `topology`.
    pub(crate) fn resume_in(
        &mut self,
        actual_exec_values: &[f64],
        topology: &mut dyn Topology,
    ) -> Result<Vec<u32>, ProtocolError> {
        match self.phase {
            CoordinatorPhase::CollectingBids if self.outstanding_bids == 0 => {
                self.allocate_in(actual_exec_values, topology)
            }
            CoordinatorPhase::CollectingBids => Ok(self.missing_bids()),
            CoordinatorPhase::Executing if self.outstanding_acks == 0 => self.settle_in(topology),
            CoordinatorPhase::Executing => {
                Ok(self.machines_where(|i| self.respondent_bid(i).is_some() && !self.done[i]))
            }
            CoordinatorPhase::Done => {
                if self.sealed {
                    return Ok(Vec::new());
                }
                // The dead generation reported the settled round to a
                // collector that died with it; report it again so a monitor
                // attached to this generation observes the recovered round.
                self.ensure_round_span();
                self.report_settled();
                Ok(self.respondents())
            }
        }
    }

    /// The allocation, once computed (full width; excluded machines at 0).
    #[must_use]
    pub fn allocation(&self) -> Option<&Allocation> {
        self.allocation.as_ref()
    }

    /// The verification estimates, once measured (0 for excluded machines).
    #[must_use]
    pub fn estimated_exec_values(&self) -> Option<&[f64]> {
        self.estimated_exec.as_deref()
    }

    /// The payments, once settled (0 for excluded machines).
    #[must_use]
    pub fn payments(&self) -> Option<&[f64]> {
        self.payments.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lb_mechanism::CompensationBonusMechanism;
    use lb_sim::server::ServiceModel;

    fn config() -> SimulationConfig {
        SimulationConfig {
            horizon: 300.0,
            seed: 9,
            model: ServiceModel::StationaryDeterministic,
            workload: Default::default(),
            warmup: 0.0,
            estimator: lb_sim::estimator::EstimatorConfig::default(),
        }
    }

    /// The frames a driver sends `recipients` in `c`'s current phase.
    fn frames(c: &Coordinator<'_>, recipients: &[u32]) -> Vec<(u32, Message)> {
        let outbound = c.outbound().unwrap();
        recipients.iter().map(|&m| (m, outbound.frame(m))).collect()
    }

    #[test]
    fn full_round_state_machine() {
        let mech = CompensationBonusMechanism::paper();
        let trues = [1.0, 2.0];
        let mut c = Coordinator::try_new(&mech, 2, 3.0, RoundId(0), config()).unwrap();
        assert_eq!(c.phase(), CoordinatorPhase::CollectingBids);

        let none = c
            .handle(
                &Message::Bid {
                    round: RoundId(0),
                    machine: 0,
                    value: 1.0,
                },
                &trues,
            )
            .unwrap();
        assert!(none.is_empty());
        let assigns = c
            .handle(
                &Message::Bid {
                    round: RoundId(0),
                    machine: 1,
                    value: 2.0,
                },
                &trues,
            )
            .unwrap();
        assert_eq!(assigns.len(), 2);
        assert_eq!(c.phase(), CoordinatorPhase::Executing);
        let rates = c.allocation().unwrap().rates().to_vec();
        assert_eq!(
            frames(&c, &assigns),
            [0, 1].map(|m| (
                m,
                Message::Assign {
                    round: RoundId(0),
                    rate: rates[m as usize]
                }
            ))
        );

        let none = c
            .handle(
                &Message::ExecutionDone {
                    round: RoundId(0),
                    machine: 1,
                },
                &trues,
            )
            .unwrap();
        assert!(none.is_empty());
        let payments = c
            .handle(
                &Message::ExecutionDone {
                    round: RoundId(0),
                    machine: 0,
                },
                &trues,
            )
            .unwrap();
        assert_eq!(payments.len(), 2);
        assert_eq!(c.phase(), CoordinatorPhase::Done);
        let ledger = c.payments().unwrap().to_vec();
        assert_eq!(
            frames(&c, &payments),
            [0, 1].map(|m| (
                m,
                Message::Payment {
                    round: RoundId(0),
                    amount: ledger[m as usize]
                }
            ))
        );
        // Verification recovered the true execution values exactly
        // (deterministic service model).
        let est = c.estimated_exec_values().unwrap();
        assert!((est[0] - 1.0).abs() < 1e-9 && (est[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn close_bidding_excludes_silent_machines() {
        let mech = CompensationBonusMechanism::paper();
        let trues = [1.0, 2.0, 4.0];
        let mut c = Coordinator::try_new(&mech, 3, 3.0, RoundId(0), config()).unwrap();
        c.handle(
            &Message::Bid {
                round: RoundId(0),
                machine: 0,
                value: 1.0,
            },
            &trues,
        )
        .unwrap();
        c.handle(
            &Message::Bid {
                round: RoundId(0),
                machine: 2,
                value: 4.0,
            },
            &trues,
        )
        .unwrap();
        // Machine 1 never bids; timeout.
        let assigns = c.close_bidding(&trues).unwrap();
        assert_eq!(assigns.len(), 2, "assigns only to respondents");
        assert_eq!(c.excluded(), &[false, true, false]);
        let alloc = c.allocation().unwrap();
        assert_eq!(alloc.rate(1), 0.0);
        assert!((alloc.total_rate() - 3.0).abs() < 1e-9);

        // A stale bid from machine 1 after exclusion is ignored.
        let out = c
            .handle(
                &Message::Bid {
                    round: RoundId(0),
                    machine: 1,
                    value: 2.0,
                },
                &trues,
            )
            .unwrap();
        assert!(out.is_empty());
        assert_eq!(c.anomalies().stale_after_exclusion, 1);
    }

    #[test]
    fn close_bidding_needs_two_respondents() {
        let mech = CompensationBonusMechanism::paper();
        let trues = [1.0, 2.0, 4.0];
        let mut c = Coordinator::try_new(&mech, 3, 3.0, RoundId(0), config()).unwrap();
        c.handle(
            &Message::Bid {
                round: RoundId(0),
                machine: 0,
                value: 1.0,
            },
            &trues,
        )
        .unwrap();
        assert!(matches!(
            c.close_bidding(&trues),
            Err(ProtocolError::Mechanism(MechanismError::NeedTwoAgents))
        ));
    }

    #[test]
    fn close_execution_settles_without_all_acks() {
        let mech = CompensationBonusMechanism::paper();
        let trues = [1.0, 2.0];
        let mut c = Coordinator::try_new(&mech, 2, 3.0, RoundId(0), config()).unwrap();
        c.handle(
            &Message::Bid {
                round: RoundId(0),
                machine: 0,
                value: 1.0,
            },
            &trues,
        )
        .unwrap();
        c.handle(
            &Message::Bid {
                round: RoundId(0),
                machine: 1,
                value: 2.0,
            },
            &trues,
        )
        .unwrap();
        c.handle(
            &Message::ExecutionDone {
                round: RoundId(0),
                machine: 0,
            },
            &trues,
        )
        .unwrap();
        // Machine 1's ack is lost; settle from measurements.
        let payments = c.close_execution().unwrap();
        assert_eq!(payments.len(), 2);
        assert_eq!(c.phase(), CoordinatorPhase::Done);
    }

    #[test]
    fn duplicate_bid_is_counted_and_sends_nothing() {
        let mech = CompensationBonusMechanism::paper();
        let trues = [1.0, 2.0];
        let mut c = Coordinator::try_new(&mech, 2, 3.0, RoundId(0), config()).unwrap();
        let bid = Message::Bid {
            round: RoundId(0),
            machine: 0,
            value: 1.0,
        };
        assert!(c.handle(&bid, &trues).unwrap().is_empty());
        assert!(c.handle(&bid, &trues).unwrap().is_empty());
        assert_eq!(c.anomalies().duplicate_bids, 1);
        assert_eq!(c.anomalies().total(), 1);
        assert_eq!(c.phase(), CoordinatorPhase::CollectingBids);
    }

    #[test]
    fn wrong_round_is_counted_and_sends_nothing() {
        let mech = CompensationBonusMechanism::paper();
        let mut c = Coordinator::try_new(&mech, 1, 3.0, RoundId(0), config()).unwrap();
        let sent = c
            .handle(
                &Message::Bid {
                    round: RoundId(1),
                    machine: 0,
                    value: 1.0,
                },
                &[1.0],
            )
            .unwrap();
        assert!(sent.is_empty());
        assert_eq!(c.anomalies().stale_rounds, 1);
        assert_eq!(c.anomalies().total(), 1);
        assert_eq!(c.missing_bids(), vec![0]);
    }

    #[test]
    fn graceful_coordinator_absorbs_violations_as_anomalies() {
        let mech = CompensationBonusMechanism::paper();
        let trues = [1.0, 2.0];
        let mut c = Coordinator::try_new(&mech, 2, 3.0, RoundId(0), config()).unwrap();
        let bid0 = Message::Bid {
            round: RoundId(0),
            machine: 0,
            value: 1.0,
        };

        // Wrong round, duplicate, out-of-range, misrouted, early ack: all
        // absorbed without output and without state damage.
        assert!(c
            .handle(
                &Message::Bid {
                    round: RoundId(7),
                    machine: 0,
                    value: 9.0
                },
                &trues
            )
            .unwrap()
            .is_empty());
        c.handle(&bid0, &trues).unwrap();
        assert!(c.handle(&bid0, &trues).unwrap().is_empty());
        assert!(c
            .handle(
                &Message::Bid {
                    round: RoundId(0),
                    machine: 9,
                    value: 1.0
                },
                &trues
            )
            .unwrap()
            .is_empty());
        assert!(c
            .handle(&Message::RequestBid { round: RoundId(0) }, &trues)
            .unwrap()
            .is_empty());
        assert!(c
            .handle(
                &Message::ExecutionDone {
                    round: RoundId(0),
                    machine: 0
                },
                &trues
            )
            .unwrap()
            .is_empty());

        let a = *c.anomalies();
        assert_eq!(a.stale_rounds, 1);
        assert_eq!(a.duplicate_bids, 1);
        assert_eq!(a.unsolicited, 1);
        assert_eq!(a.misrouted, 1);
        assert_eq!(a.wrong_phase, 1);
        assert_eq!(a.total(), 5);

        // The round still completes normally afterwards.
        let assigns = c
            .handle(
                &Message::Bid {
                    round: RoundId(0),
                    machine: 1,
                    value: 2.0,
                },
                &trues,
            )
            .unwrap();
        assert_eq!(assigns.len(), 2);
        assert_eq!(c.phase(), CoordinatorPhase::Executing);

        // Duplicate acks are idempotent.
        c.handle(
            &Message::ExecutionDone {
                round: RoundId(0),
                machine: 0,
            },
            &trues,
        )
        .unwrap();
        assert!(c
            .handle(
                &Message::ExecutionDone {
                    round: RoundId(0),
                    machine: 0
                },
                &trues
            )
            .unwrap()
            .is_empty());
        assert_eq!(c.anomalies().duplicate_acks, 1);
        let payments = c
            .handle(
                &Message::ExecutionDone {
                    round: RoundId(0),
                    machine: 1,
                },
                &trues,
            )
            .unwrap();
        assert_eq!(payments.len(), 2);
        assert_eq!(c.phase(), CoordinatorPhase::Done);
    }

    #[test]
    fn instrumented_round_emits_clean_phase_spans_and_anomalies() {
        use lb_telemetry::{replay_spans, EventKind, RingCollector};
        let mech = CompensationBonusMechanism::paper();
        let trues = [1.0, 2.0];
        let ring = Arc::new(RingCollector::new(256));
        let mut c = Coordinator::try_new(&mech, 2, 3.0, RoundId(3), config())
            .unwrap()
            .with_collector(ring.clone());

        c.set_now(0.0);
        c.ensure_round_span();
        c.set_now(0.1);
        c.handle(
            &Message::Bid {
                round: RoundId(3),
                machine: 0,
                value: 1.0,
            },
            &trues,
        )
        .unwrap();
        // A duplicate bid mid-round surfaces as an anomaly instant.
        c.set_now(0.15);
        c.handle(
            &Message::Bid {
                round: RoundId(3),
                machine: 0,
                value: 1.0,
            },
            &trues,
        )
        .unwrap();
        c.set_now(0.2);
        c.handle(
            &Message::Bid {
                round: RoundId(3),
                machine: 1,
                value: 2.0,
            },
            &trues,
        )
        .unwrap();
        c.set_now(0.4);
        c.handle(
            &Message::ExecutionDone {
                round: RoundId(3),
                machine: 0,
            },
            &trues,
        )
        .unwrap();
        c.set_now(0.5);
        c.handle(
            &Message::ExecutionDone {
                round: RoundId(3),
                machine: 1,
            },
            &trues,
        )
        .unwrap();

        let events = ring.snapshot();
        let spans = replay_spans(&events).expect("recording replays cleanly");
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        for expected in [
            "round",
            "phase.collect_bids",
            "phase.allocate",
            "phase.execute",
            "phase.settle",
        ] {
            assert!(
                names.contains(&expected),
                "missing span {expected}: {names:?}"
            );
        }
        let round_span = spans.iter().find(|s| s.name == "round").unwrap();
        assert_eq!(round_span.depth, 0);
        assert!((round_span.start, round_span.end) == (0.0, 0.5));
        for s in spans.iter().filter(|s| s.name.starts_with("phase.")) {
            assert_eq!(
                s.parent,
                Some(round_span.id),
                "{} nests under round",
                s.name
            );
        }

        let anomalies: Vec<_> = events
            .iter()
            .filter(|e| e.name == "anomaly" && matches!(e.kind, EventKind::Instant))
            .collect();
        assert_eq!(anomalies.len(), 1);
        assert_eq!(
            anomalies[0].field("kind"),
            Some(&lb_telemetry::FieldValue::Str("duplicate_bid".into()))
        );
        assert_eq!(anomalies[0].at, 0.15);
    }

    #[test]
    fn abandoned_round_closes_spans_via_end_telemetry() {
        use lb_telemetry::{replay_spans, RingCollector};
        let mech = CompensationBonusMechanism::paper();
        let trues = [1.0, 2.0, 4.0];
        let ring = Arc::new(RingCollector::new(64));
        let mut c = Coordinator::try_new(&mech, 3, 3.0, RoundId(0), config())
            .unwrap()
            .with_collector(ring.clone());
        c.set_now(0.0);
        c.handle(
            &Message::Bid {
                round: RoundId(0),
                machine: 0,
                value: 1.0,
            },
            &trues,
        )
        .unwrap();
        c.set_now(1.0);
        assert!(
            c.close_bidding(&trues).is_err(),
            "one respondent cannot run"
        );
        // The driver abandons the round; telemetry must still balance.
        c.end_telemetry();
        let spans = replay_spans(&ring.snapshot()).expect("abandoned round still replays");
        assert!(spans.iter().any(|s| s.name == "round"));
    }

    #[test]
    fn wire_context_tracks_phase_spans_and_survives_settlement() {
        use lb_telemetry::{replay_spans, RingCollector};
        let mech = CompensationBonusMechanism::paper();
        let trues = [1.0, 2.0];
        let ring = Arc::new(RingCollector::new(256));
        let trace = TraceContext::root(99, 5, true);
        let mut c = Coordinator::try_new(&mech, 2, 3.0, RoundId(5), config())
            .unwrap()
            .with_collector(ring.clone())
            .with_trace(trace);

        c.set_now(0.0);
        c.ensure_round_span();
        let collect_ctx = c.wire_context().expect("sampled round with collector");
        assert_eq!(collect_ctx.trace_id, trace.trace_id);
        assert!(collect_ctx.sampled);

        for (machine, value) in [(0u32, 1.0), (1, 2.0)] {
            c.handle(
                &Message::Bid {
                    round: RoundId(5),
                    machine,
                    value,
                },
                &trues,
            )
            .unwrap();
        }
        let exec_ctx = c.wire_context().expect("still traced");
        assert_ne!(
            exec_ctx.span_id, collect_ctx.span_id,
            "a new phase re-parents the wire context"
        );

        for machine in [0u32, 1] {
            c.handle(
                &Message::ExecutionDone {
                    round: RoundId(5),
                    machine,
                },
                &trues,
            )
            .unwrap();
        }
        assert_eq!(c.phase(), CoordinatorPhase::Done);
        let settle_ctx = c.wire_context().expect("retained after settlement");

        let spans = replay_spans(&ring.snapshot()).expect("clean recording");
        let name_of = |id: u64| spans.iter().find(|s| s.id.0 == id).map(|s| s.name.as_str());
        assert_eq!(name_of(collect_ctx.span_id), Some("phase.collect_bids"));
        assert_eq!(name_of(exec_ctx.span_id), Some("phase.execute"));
        assert_eq!(
            name_of(settle_ctx.span_id),
            Some("phase.settle"),
            "Payment frames carry the settle span even after spans close"
        );

        // The round span advertises the trace id for offline stitching.
        let events = ring.snapshot();
        let start = events
            .iter()
            .find(|e| {
                e.name == "round" && matches!(e.kind, lb_telemetry::EventKind::SpanStart { .. })
            })
            .unwrap();
        assert_eq!(
            start.field("trace_lo"),
            Some(&lb_telemetry::FieldValue::U64(trace.trace_id as u64))
        );
    }

    #[test]
    fn wire_context_is_absent_when_unsampled_or_untraced() {
        let mech = CompensationBonusMechanism::paper();
        use lb_telemetry::RingCollector;
        let ring = Arc::new(RingCollector::new(64));

        // Traced but unsampled: nothing goes on the wire.
        let c = Coordinator::try_new(&mech, 2, 3.0, RoundId(0), config())
            .unwrap()
            .with_collector(ring.clone())
            .with_trace(TraceContext::root(1, 0, false));
        c.ensure_round_span();
        assert_eq!(c.wire_context(), None);

        // Sampled but no collector: telemetry off means tracing off.
        let c = Coordinator::try_new(&mech, 2, 3.0, RoundId(0), config())
            .unwrap()
            .with_trace(TraceContext::root(1, 0, true));
        c.ensure_round_span();
        assert_eq!(c.wire_context(), None);

        // Untraced: plain instrumented rounds carry nothing extra.
        let c = Coordinator::try_new(&mech, 2, 3.0, RoundId(0), config())
            .unwrap()
            .with_collector(ring);
        c.ensure_round_span();
        assert_eq!(c.wire_context(), None);
    }

    #[test]
    fn settlement_emits_per_machine_gauges() {
        use lb_telemetry::{EventKind, RingCollector};
        let mech = CompensationBonusMechanism::paper();
        let trues = [1.0, 2.0];
        let ring = Arc::new(RingCollector::new(256));
        let mut c = Coordinator::try_new(&mech, 2, 3.0, RoundId(0), config())
            .unwrap()
            .with_collector(ring.clone());
        for (machine, value) in [(0u32, 1.0), (1, 2.0)] {
            c.handle(
                &Message::Bid {
                    round: RoundId(0),
                    machine,
                    value,
                },
                &trues,
            )
            .unwrap();
        }
        for machine in [0u32, 1] {
            c.handle(
                &Message::ExecutionDone {
                    round: RoundId(0),
                    machine,
                },
                &trues,
            )
            .unwrap();
        }
        let events = ring.snapshot();
        let gauge = |name: &str| {
            events.iter().find_map(|e| match e.kind {
                EventKind::Gauge { value } if e.name == name => Some(value),
                _ => None,
            })
        };
        let alloc = c.allocation().unwrap();
        let payments = c.payments().unwrap();
        assert_eq!(gauge("alloc.rate.m0"), Some(alloc.rate(0)));
        assert_eq!(gauge("alloc.rate.m1"), Some(alloc.rate(1)));
        assert_eq!(gauge("payment.m0"), Some(payments[0]));
        assert_eq!(gauge("payment.m1"), Some(payments[1]));
        assert_eq!(
            gauge("round.payment.total"),
            Some(payments.iter().sum::<f64>())
        );
    }

    #[test]
    fn missing_bids_tracks_outstanding_machines() {
        let mech = CompensationBonusMechanism::paper();
        let trues = [1.0, 2.0, 4.0];
        let mut c = Coordinator::try_new(&mech, 3, 3.0, RoundId(0), config()).unwrap();
        assert_eq!(c.missing_bids(), vec![0, 1, 2]);
        c.handle(
            &Message::Bid {
                round: RoundId(0),
                machine: 1,
                value: 2.0,
            },
            &trues,
        )
        .unwrap();
        assert_eq!(c.missing_bids(), vec![0, 2]);
        c.exclude(0).unwrap();
        assert_eq!(c.missing_bids(), vec![2]);
    }

    #[test]
    fn upfront_exclusion_quarantines_a_machine() {
        let mech = CompensationBonusMechanism::paper();
        let trues = [1.0, 2.0, 4.0];
        let mut c = Coordinator::try_new(&mech, 3, 3.0, RoundId(0), config()).unwrap();
        c.exclude(1).unwrap();
        c.handle(
            &Message::Bid {
                round: RoundId(0),
                machine: 0,
                value: 1.0,
            },
            &trues,
        )
        .unwrap();
        // The quarantined machine's bid is absorbed as stale.
        assert!(c
            .handle(
                &Message::Bid {
                    round: RoundId(0),
                    machine: 1,
                    value: 2.0
                },
                &trues
            )
            .unwrap()
            .is_empty());
        let assigns = c
            .handle(
                &Message::Bid {
                    round: RoundId(0),
                    machine: 2,
                    value: 4.0,
                },
                &trues,
            )
            .unwrap();
        assert_eq!(assigns.len(), 2, "round runs over the two active machines");
        assert_eq!(c.excluded(), &[false, true, false]);
    }

    #[test]
    fn quarantine_below_two_participants_errors() {
        let mech = CompensationBonusMechanism::paper();
        let trues = [1.0, 2.0, 4.0];
        let mut c = Coordinator::try_new(&mech, 3, 3.0, RoundId(0), config()).unwrap();
        c.exclude(1).unwrap();
        c.exclude(2).unwrap();
        let out = c.handle(
            &Message::Bid {
                round: RoundId(0),
                machine: 0,
                value: 1.0,
            },
            &trues,
        );
        assert!(matches!(
            out,
            Err(ProtocolError::Mechanism(MechanismError::NeedTwoAgents))
        ));
    }

    #[test]
    fn try_new_rejects_empty_rounds_with_a_typed_error() {
        let mech = CompensationBonusMechanism::paper();
        assert!(matches!(
            Coordinator::try_new(&mech, 0, 3.0, RoundId(0), config()),
            Err(ProtocolError::MissingState { .. })
        ));
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn try_new_rejects_oversized_rounds_before_allocating() {
        // Regression: `u32::try_from(n).expect(...)` used to panic deep in
        // journal_append / fan-out paths. The count is now validated up
        // front — and *before* the per-node vectors are allocated, so this
        // test is cheap despite asking for 2^32 nodes.
        let mech = CompensationBonusMechanism::paper();
        let n = usize::try_from(u64::from(u32::MAX) + 1).unwrap();
        match Coordinator::try_new(&mech, n, 3.0, RoundId(0), config()) {
            Err(ProtocolError::TooManyNodes { n: got }) => assert_eq!(got, n),
            other => panic!("expected TooManyNodes, got {other:?}", other = other.err()),
        }
    }

    #[test]
    fn sharded_transitions_reproduce_the_message_driven_round_bitwise() {
        use lb_core::merge_inv_sums;
        use lb_sim::driver::simulate_partition;
        let mech = CompensationBonusMechanism::paper();
        // Machine 1 bids 2 but executes at 3: verification moves payments.
        let trues = [1.0, 3.0, 4.0, 8.0];
        let bids = [1.0, 2.0, 4.0, 8.0];

        // Reference: the message-driven round.
        let mut classic = Coordinator::try_new(&mech, 4, 3.0, RoundId(0), config()).unwrap();
        let mut last = Vec::new();
        for (machine, value) in (0u32..).zip(bids) {
            last = classic
                .handle(
                    &Message::Bid {
                        round: RoundId(0),
                        machine,
                        value,
                    },
                    &trues,
                )
                .unwrap();
        }
        assert_eq!(classic.phase(), CoordinatorPhase::Executing);
        let classic_assigns = frames(&classic, &last);
        for machine in 0..4u32 {
            last = classic
                .handle(
                    &Message::ExecutionDone {
                        round: RoundId(0),
                        machine,
                    },
                    &trues,
                )
                .unwrap();
        }
        let classic_payments = frames(&classic, &last);

        // The transitions driven as two shards would: the harmonic sum
        // merged from two partials, the estimates from two partition
        // simulations at their respondent stream offsets.
        let mut sharded = Coordinator::try_new(&mech, 4, 3.0, RoundId(0), config()).unwrap();
        for (machine, value) in (0u32..).zip(bids) {
            sharded
                .ingest(&Message::Bid {
                    round: RoundId(0),
                    machine,
                    value,
                })
                .unwrap();
        }
        sharded.end_bidding().unwrap();
        assert_eq!(sharded.phase(), CoordinatorPhase::CollectingBids);
        let s = merge_inv_sums(&[inv_sum_dd(&bids[..2]), inv_sum_dd(&bids[2..])]);
        let rates = sharded.allocate(s).unwrap();
        let mut estimates = Vec::new();
        for (range, offset) in [(0..2, 0), (2..4, 2)] {
            let part = simulate_partition(
                &bids[range.clone()],
                &trues[range.clone()],
                &rates[range],
                &config(),
                offset,
            )
            .unwrap();
            estimates.extend(part.estimated_exec_values);
        }
        let assigns = sharded.commit_allocation(rates, estimates).unwrap();
        assert_eq!(frames(&sharded, &assigns), classic_assigns);
        for machine in 0..4u32 {
            sharded
                .ingest(&Message::ExecutionDone {
                    round: RoundId(0),
                    machine,
                })
                .unwrap();
        }
        let payments = sharded.settle(s).unwrap();
        assert_eq!(frames(&sharded, &payments), classic_payments);

        let (ca, sa) = (classic.allocation().unwrap(), sharded.allocation().unwrap());
        for i in 0..4 {
            assert_eq!(ca.rate(i).to_bits(), sa.rate(i).to_bits());
        }
        assert_eq!(
            classic.estimated_exec_values().unwrap(),
            sharded.estimated_exec_values().unwrap()
        );
        assert_ne!(classic.estimated_exec_values().unwrap()[1], bids[1]);
        assert_eq!(classic.payments().unwrap(), sharded.payments().unwrap());
    }

    #[test]
    fn transitions_enforce_their_phase_preconditions() {
        let mech = CompensationBonusMechanism::paper();
        let mut c = Coordinator::try_new(&mech, 2, 3.0, RoundId(0), config()).unwrap();
        let s = inv_sum_dd(&[1.0, 2.0]);
        assert!(matches!(
            c.settle(s),
            Err(ProtocolError::PhaseViolation { .. })
        ));
        // No bids at all: closing must fail, and not change phase.
        assert!(matches!(
            c.end_bidding(),
            Err(ProtocolError::Mechanism(MechanismError::NeedTwoAgents))
        ));
        assert!(matches!(
            c.allocate(s),
            Err(ProtocolError::Mechanism(MechanismError::NeedTwoAgents))
        ));
        assert!(matches!(
            c.commit_allocation(vec![1.0], vec![1.0]),
            Err(ProtocolError::Mechanism(_))
        ));
        assert_eq!(c.phase(), CoordinatorPhase::CollectingBids);
    }

    // Pinned regression: a mis-sized commit column used to be reported by
    // the shorter of the two lengths, so n = 4 with 5 estimates read
    // "expected 4, actual 4".
    #[test]
    fn commit_allocation_reports_the_length_of_the_wrong_column() {
        let mech = CompensationBonusMechanism::paper();
        let bids = [1.0, 2.0, 4.0, 8.0];
        let mut c = Coordinator::try_new(&mech, 4, 3.0, RoundId(0), config()).unwrap();
        for (machine, value) in (0u32..).zip(bids) {
            c.ingest(&Message::Bid {
                round: RoundId(0),
                machine,
                value,
            })
            .unwrap();
        }
        c.end_bidding().unwrap();
        let rates = c.allocate(inv_sum_dd(&bids)).unwrap();
        let width = |r: Result<Vec<u32>, ProtocolError>| match r {
            Err(ProtocolError::Mechanism(MechanismError::Core(CoreError::LengthMismatch {
                expected,
                actual,
            }))) => (expected, actual),
            other => panic!("expected a width error, got {other:?}"),
        };
        assert_eq!(
            width(c.commit_allocation(rates.clone(), vec![1.0; 5])),
            (4, 5)
        );
        assert_eq!(
            width(c.commit_allocation(vec![1.0; 3], vec![1.0; 4])),
            (4, 3)
        );
        assert_eq!(c.phase(), CoordinatorPhase::CollectingBids);
        assert_eq!(c.commit_allocation(rates, bids.to_vec()).unwrap().len(), 4);
    }

    #[test]
    fn outbound_frames_follow_the_phase() {
        fn shareable<T: Copy + Send + Sync>(_: T) {}
        let mech = CompensationBonusMechanism::paper();
        let round = RoundId(5);
        let mut c = Coordinator::try_new(&mech, 3, 3.0, round, config()).unwrap();
        shareable(c.outbound().unwrap());
        assert_eq!(
            frames(&c, &c.missing_bids()),
            [0, 1, 2].map(|m| (m, Message::RequestBid { round }))
        );
        for (machine, value) in [(0, 1.0), (2, 4.0)] {
            c.ingest(&Message::Bid {
                round,
                machine,
                value,
            })
            .unwrap();
        }
        let assigned = c.close_bidding(&[1.0, 2.0, 4.0]).unwrap();
        assert_eq!(assigned, [0, 2]);
        let rate = |m: usize| c.allocation().unwrap().rate(m);
        let (rate0, rate2) = (rate(0), rate(2));
        let outbound = c.outbound().unwrap();
        assert_eq!(outbound.frame(2), Message::Assign { round, rate: rate2 });
        // The excluded machine, and one outside the round, are sent 0.
        for machine in [1, 3, u32::MAX] {
            assert_eq!(
                outbound.frame(machine),
                Message::Assign { round, rate: 0.0 }
            );
        }
        assert_eq!(outbound.frame(0), Message::Assign { round, rate: rate0 });
        let paid = c.close_execution().unwrap();
        assert_eq!(paid, [0, 2]);
        let amount = c.payments().unwrap()[2];
        assert_ne!(amount, 0.0);
        assert_eq!(
            c.outbound().unwrap().frame(2),
            Message::Payment { round, amount }
        );
    }

    /// Asserts the outstanding counters equal a full scan of the slots.
    fn assert_counters_match_a_scan(c: &Coordinator<'_>, at: &str) {
        let n = c.bids.len();
        let bids = (0..n)
            .filter(|&i| c.bids[i].is_none() && !c.excluded[i])
            .count();
        let acks = (0..n)
            .filter(|&i| c.bids[i].is_some() && !c.excluded[i] && !c.done[i])
            .count();
        let counters = (c.outstanding_bids, c.outstanding_acks);
        assert_eq!(counters, (bids, acks), "after {at}");
    }

    #[test]
    fn outstanding_counters_match_a_full_scan_live_and_replayed() {
        use crate::journal::{read_journal, JournalReplay, MemJournal};
        let mech = CompensationBonusMechanism::paper();
        let trues = [1.0, 1.5, 2.0, 3.0, 4.5, 6.0];
        let round = RoundId(0);
        let journal = Rc::new(RefCell::new(MemJournal::new()));
        let mut c = Coordinator::try_new(&mech, trues.len(), 3.0, round, config())
            .unwrap()
            .with_journal(journal.clone());

        // A faulty round: machine 0 quarantined, machine 5 silent, a
        // duplicate bid, a stale one, a bid after exclusion, a duplicate
        // ack, an ack from a non-respondent and one lost ack.
        c.exclude(0).unwrap();
        assert_counters_match_a_scan(&c, "exclude");
        let bid = |machine: u32, round| Message::Bid {
            round,
            machine,
            value: trues[machine as usize],
        };
        for message in [
            bid(1, round),
            bid(2, round),
            bid(2, round),
            bid(3, RoundId(9)),
            bid(3, round),
            bid(0, round),
            bid(4, round),
        ] {
            c.ingest(&message).unwrap();
            assert_counters_match_a_scan(&c, message.kind());
        }
        c.end_bidding().unwrap();
        assert_counters_match_a_scan(&c, "end_bidding");
        let rates = c.allocate(c.partial_inv_sum(0..trues.len())).unwrap();
        let estimates = Local.verify(&c, &rates, &trues).unwrap();
        c.commit_allocation(rates, estimates).unwrap();
        assert_counters_match_a_scan(&c, "commit_allocation");
        for machine in [1, 1, 5, 2, 3] {
            c.ingest(&Message::ExecutionDone { round, machine })
                .unwrap();
            assert_counters_match_a_scan(&c, "ack");
        }
        assert_eq!(c.outstanding_acks, 1, "machine 4's ack is lost");
        c.close_execution().unwrap();
        c.seal().unwrap();

        let bytes = journal.borrow().bytes().unwrap();
        for cut in JournalReplay::boundaries(&bytes) {
            let replay = read_journal(&bytes[..cut]).unwrap();
            let mut r = Coordinator::try_new(&mech, trues.len(), 3.0, round, config()).unwrap();
            for record in &replay.records {
                r.apply_record(record).unwrap();
                assert_counters_match_a_scan(&r, &format!("{record:?} in a {cut}-byte prefix"));
            }
        }
    }

    #[test]
    fn an_infeasible_commit_changes_nothing() {
        use crate::journal::MemJournal;
        let mech = CompensationBonusMechanism::paper();
        let journal = Rc::new(RefCell::new(MemJournal::new()));
        let mut c = Coordinator::try_new(&mech, 2, 3.0, RoundId(0), config())
            .unwrap()
            .with_journal(journal.clone());
        for (machine, value) in [(0, 1.0), (1, 2.0)] {
            c.ingest(&Message::Bid {
                round: RoundId(0),
                machine,
                value,
            })
            .unwrap();
        }
        c.end_bidding().unwrap();
        let rates = c.allocate(inv_sum_dd(&[1.0, 2.0])).unwrap();
        let state = |c: &Coordinator<'_>| (c.phase(), journal.borrow().clone());
        let before = state(&c);
        assert!(matches!(
            c.commit_allocation(vec![-1.0, 4.0], vec![1.0, 2.0]),
            Err(ProtocolError::Mechanism(MechanismError::Core(
                CoreError::Infeasible { .. }
            )))
        ));
        assert_eq!(state(&c), before);
        assert_eq!(c.phase(), CoordinatorPhase::CollectingBids);
        assert!(c.allocation().is_none());
        assert_eq!(c.commit_allocation(rates, vec![1.0, 2.0]).unwrap(), [0, 1]);
        assert_eq!(c.phase(), CoordinatorPhase::Executing);
    }

    #[test]
    fn excluding_an_unknown_machine_is_a_typed_error_that_changes_nothing() {
        use crate::journal::MemJournal;
        let mech = CompensationBonusMechanism::paper();
        let journal = Rc::new(RefCell::new(MemJournal::new()));
        let mut c = Coordinator::try_new(&mech, 3, 3.0, RoundId(0), config())
            .unwrap()
            .with_journal(journal.clone());
        c.handle(
            &Message::Bid {
                round: RoundId(0),
                machine: 0,
                value: 1.0,
            },
            &[1.0, 2.0, 4.0],
        )
        .unwrap();
        c.exclude(1).unwrap();
        let state = |c: &Coordinator<'_>| {
            (
                c.phase(),
                c.excluded().to_vec(),
                journal.borrow().bytes().unwrap(),
            )
        };
        let before = state(&c);
        for machine in [3, usize::MAX] {
            assert!(matches!(
                c.exclude(machine),
                Err(ProtocolError::MachineOutOfRange { machine: m, n: 3 }) if m == machine
            ));
        }
        assert_eq!(state(&c), before);
    }
}
