//! Protocol engine for the centralized load balancing mechanism.
//!
//! The paper describes (end of Sec. 3) a centralized protocol: the mechanism
//! collects bids, computes the PR allocation, allocates the jobs, waits for
//! them to execute while estimating each computer's actual processing rate,
//! then computes and sends the payments — `O(n)` messages in total. This
//! crate realises that protocol as an actual message-passing system with
//! one round engine.
//!
//! # Running rounds
//!
//! Four entry points cover every way to run the protocol:
//!
//! * [`run_round`] runs one round described by a [`RoundSpec`]: the
//!   [`Transport`] its frames travel over (the simulated network, reliable
//!   with [`ChaosConfig::reliable`] or under seeded [`ChaosConfig`] fault
//!   injection, or the two-level [`shard`] topology of `k` shard
//!   coordinators on worker threads), and the [`Observers`] watching it.
//! * [`drive_sharded_round`] drives a sharded round on a root coordinator,
//!   fresh or recovered mid-round from its journal, and returns its
//!   [`RoundReport`] with the root's phase timings.
//! * [`run_chaos_session`] runs every multi-round session under a policy
//!   callback over one persistent simulated network (late frames straggle
//!   into the next round): it tracks machine health, quarantines and
//!   re-admits flaky machines, and is durable when given a crash-injecting
//!   journal. A reliable session is `ChaosConfig::reliable(seed)`.
//! * [`OnlineSession`] runs the streaming mechanism over a stream of
//!   joins, leaves, re-bids and settle ticks.
//!
//! Every round, sharded or not, runs through the one event loop in
//! [`chaos`] and crosses its phases through the same four [`Coordinator`]
//! transitions — end bidding, allocate against a harmonic sum, commit the
//! allocation with its verification estimates, settle. A link only decides
//! how frames move, whether retry timers are armed, and where the harmonic
//! sum and the verification run; a single-coordinator round is the `k = 1`
//! case of the sharded one. Allocations, payments, estimates, exclusions,
//! message statistics and journal bytes are bit-identical across transports
//! and with or without observers.
//!
//! # Modules
//!
//! * [`codec`] — the compact, non-self-describing binary wire encoding:
//!   one [`codec::Wire`] trait, implemented by hand for the messages,
//!   journal records and settlement records that reach the wire.
//! * [`message`] — the protocol message vocabulary.
//! * [`network`] — an in-memory simulated network with per-link delay and
//!   complete message/byte accounting (validating the O(n) claim).
//! * [`node`] — node-side behaviour: what a machine bids, how it executes,
//!   and how it serves a traced frame.
//! * [`coordinator`] — the mechanism centre as an explicit state machine;
//!   duplicated, stale or misrouted frames are absorbed and counted as
//!   anomalies, never panics.
//! * [`runtime`] — [`RoundSpec`], [`Transport`], [`Observers`] and
//!   [`run_round`].
//! * [`chaos`] — the round engine, seeded probabilistic fault injection
//!   (drop / duplicate / corrupt / jitter) and the retransmission protocol
//!   that survives it: missing bids are re-requested with exponential
//!   backoff before the exclusion fallback.
//! * [`faults`] — declarative fault plans, the named-frame part of a chaos
//!   configuration.
//! * [`session`] — multi-round sessions.
//! * [`journal`] — a write-ahead round journal (length-prefixed, CRC-checked
//!   records over the wire codec) with in-memory, file-backed, and
//!   crash-injecting backends; torn tails are detected and truncated, never
//!   misparsed.
//! * [`recovery`] — deterministic replay of the journal into a fresh
//!   coordinator mid-round, with exactly-once settle (payments restore from
//!   the `PaymentsCommitted` record, never recompute) and an idempotent
//!   resume fan-out.
//! * [`online`] — the streaming mechanism session: joins / leaves /
//!   re-bids maintain the harmonic sum `S = Σ 1/b_i` incrementally in
//!   double-double (O(1) amortized per event, drift re-summed below
//!   `1e-12` relative), and periodic `RoundTick`s settle full payment
//!   rounds against the incremental `S` through the coordinator's round
//!   transitions.
//! * [`shard`] — the two-level topology for million-machine rounds as a
//!   link of the round engine: `k` shards relay their machines' frames on
//!   worker threads and ship partial harmonic sums and verification
//!   estimates upward; allocations and payments stay bit-identical to the
//!   single-coordinator round for every shard count.
//!
//! # Observability
//!
//! An [`Observers`] value carries every attachment: a telemetry collector
//! (e.g. [`lb_telemetry::RingCollector`]) and a head-based
//! [`lb_telemetry::Sampler`]. A round's phase spans, frame fates,
//! retransmissions and session health decisions are recorded on the
//! simulated clock (wall-clock seconds on the shard tier). The
//! coordinator is the round's one phase clock: its phase spans and
//! [`ShardPhaseTimings`] read the same recorded phase boundaries, and the
//! settle phase ends at the seal, after the payment fan-out. The
//! default is the noop collector, which keeps unobserved rounds free.
//!
//! Observed rounds also carry a **wire-propagated trace context**: a
//! fixed-size [`lb_telemetry::TraceContext`] trailer appended to each
//! frame's payload ([`codec::encode_with_context`] /
//! [`codec::decode_with_context`]), so the receiving side continues the
//! sender's trace and a whole bid → allocate → execute → settle round —
//! retransmissions included — stitches into one trace across shards and
//! transports. Trailer-free frames decode exactly as before, and the
//! sampler decides per round whether anything goes on the wire: an
//! unsampled round runs with the noop collector.

pub mod audit;
pub mod chaos;
pub mod codec;
pub mod coordinator;
pub mod faults;
pub mod framing;
pub mod journal;
pub mod message;
pub mod network;
pub mod node;
pub mod online;
pub mod recovery;
pub mod runtime;
pub mod session;
pub mod shard;
pub mod trace;

pub use audit::{audit_broadcast_cost, audit_settlement, AuditReport, SettlementRecord};
pub use chaos::{chaos_message_bound, ChaosConfig, ChaosNetStats, RoundRecoveryStats};
pub use codec::{decode, decode_with_context, encode, encode_with_context, CodecError, Wire};
pub use coordinator::{Coordinator, CoordinatorPhase, Outbound, ProtocolError};
pub use faults::FaultPlan;
pub use framing::{FrameReader, FrameWriter, MAX_FRAME_LEN};
pub use journal::{
    read_journal, CrashingJournal, ExclusionReason, FileJournal, Journal, JournalError,
    JournalRecord, JournalReplay, LedgerChain, MemJournal,
};
pub use message::{Message, RoundId};
pub use network::MessageStats;
pub use node::NodeSpec;
pub use online::{OnlineApplied, OnlineEvent, OnlineReport, OnlineSession, OnlineTick};
pub use recovery::{recover_round, split_rounds, RecoveryReport, RoundBlock, RoundContext};
pub use runtime::{
    run_round, Observers, ProtocolConfig, ProtocolOutcome, RoundReport, RoundSpec, Transport,
};
pub use session::{
    run_chaos_session, ChaosRoundResult, ChaosSessionConfig, ChaosSessionReport, CrashPlan,
    MachineHealth,
};
pub use shard::{
    drive_sharded_round, expected_sharded_message_count, shard_ranges, ShardPhaseTimings,
};
pub use trace::{replay_check, Anomaly, AnomalyStats, RoundTrace, TraceEntry, TraceViolation};
