//! Verification observability: is the deployed mechanism still the
//! mechanism the theorems are about?
//!
//! The workspace proves its economic properties offline — property tests,
//! fuzz oracles, differential references. This crate moves that posture
//! *online*: a production session should be able to show, continuously and
//! cheaply, that every settled round still satisfies the invariants the
//! paper guarantees, and that the durable record of those rounds has not
//! been rewritten after the fact.
//!
//! * [`monitor`] — [`InvariantMonitor`], a
//!   [`Collector`](lb_telemetry::Collector) wrapper that receives each
//!   settled round as one typed
//!   [`SettledRound`](lb_telemetry::SettledRound) view and checks:
//!   allocation conservation and feasibility, exclusion zeroing, the
//!   payment total, the Theorem 3.2 utility floor, sampled double-double
//!   payment drift and a sampled online truthfulness margin (Theorem 3.1,
//!   via counterfactual bid probes). Attaching it changes no allocation,
//!   payment, journal byte or non-`audit.*` event — observation inertness
//!   is a tested property, not a hope — and it never panics.
//! * [`reference`](mod@reference) — the independent O(n) double-double payment reference
//!   the drift check compares against.
//! * [`ledger`] — [`verify_ledger`]: replays the hash chain the
//!   coordinator threads through its durable journal
//!   ([`lb_proto::LedgerChain`]) and checks every `LedgerSealed` digest,
//!   localising the first tampered frame. The per-record CRC catches
//!   accidents; the chain catches *edits* that fix the CRC.
//! * [`report`] — the per-round [`MonitorReport`] JSONL record.
//! * [`health`] — renders `/invariants` and `/health` documents for the
//!   std-only exposition server, including the ledger chain head (whose
//!   out-of-band publication is what makes the chain tamper-*evident*).

pub mod health;
pub mod ledger;
pub mod monitor;
pub mod reference;
pub mod report;

pub use health::{health_json, invariants_json, publish};
pub use ledger::{verify_ledger, LedgerDivergence, LedgerVerdict};
pub use monitor::{InvariantMonitor, MonitorConfig, MonitorStats};
pub use reference::reference_payments;
pub use report::{CheckOutcome, MonitorReport};
