//! Structured telemetry for the lbmv workspace — std-only, zero external
//! service dependencies.
//!
//! The mechanism's guarantees (Theorems 3.1/3.2, the `O(n)`-message protocol
//! bound) and the chaos runtime's behaviour were previously only visible
//! post-hoc through ad-hoc report structs. This crate is the instrumentation
//! plane that makes a session *watchable*: what phase the coordinator is in,
//! what every frame's fate was, when a bid was retransmitted, when a machine
//! was quarantined — all recorded as typed events on a caller-injected clock
//! so recordings are deterministic and replayable.
//!
//! * [`event`] — the typed event vocabulary: spans, instants, counters,
//!   gauges, histogram samples, with structured key/value fields.
//! * [`collector`] — the [`Collector`] trait every instrumentation point
//!   accepts, and the free [`noop_collector`] that makes instrumented hot
//!   paths cost (almost) nothing when telemetry is off.
//! * [`ring`] — [`RingCollector`]: a fixed-capacity ring buffer behind a
//!   `std::sync::Mutex` recording every event in order.
//! * [`registry`] — [`MetricsRegistry`]: named counters, gauges and
//!   histogram summaries, each histogram an `lb-stats` `LatencySketch`; can
//!   ingest a recording to derive per-phase latency, per-endpoint message
//!   counts and anomaly rates.
//! * [`replay`] — validates the span structure of a recording (every end
//!   matches a start, children close before parents) and extracts the
//!   completed spans.
//! * [`json`] — a minimal self-contained JSON emitter/parser, used by the
//!   exporters and their round-trip tests.
//! * [`export`] — JSONL event logs (machine-greppable, re-parseable) and
//!   Chrome `trace_event` files loadable in `chrome://tracing` / Perfetto.
//! * [`timeline`] — a plain-text round-timeline/summary renderer for
//!   terminals and examples.
//! * [`context`] — the wire-propagated [`TraceContext`] (128-bit trace id,
//!   parent span id, sampled flag) and its fixed-size backward-compatible
//!   frame trailer, so one trace stitches across coordinator and nodes.
//! * [`sampler`] — deterministic head-based sampling
//!   (always/never/ratio/per-round as a pure function of the round seed).
//! * [`settled`] — [`SettledRound`], the typed view of a settled round a
//!   coordinator hands [`Collector::settled`], and the one definition of
//!   the settlement-gauge export format.
//!
//! # Clock discipline
//!
//! Every API takes the timestamp explicitly (`at`, in seconds). The caller
//! owns the clock: the simulated network passes its simulated clock, the
//! shard tier passes wall-clock seconds since the round started, and the
//! simulator passes its own sim time. Telemetry never reads a wall clock by
//! itself, so a recording is a pure function of the run that produced it.
//!
//! # Overhead
//!
//! All convenience methods check [`Collector::enabled`] before building an
//! event, so call sites may construct field vectors inside an
//! `if collector.enabled()` guard (or rely on the default methods, which
//! return early). With [`noop_collector`] the cost per instrumentation point
//! is one virtual call returning a constant.

pub mod collector;
pub mod context;
pub mod event;
pub mod export;
pub mod json;
pub mod registry;
pub mod replay;
pub mod ring;
pub mod sampler;
pub mod settled;
pub mod timeline;

pub use collector::{noop_collector, Collector};
pub use context::{TraceContext, TRAILER_LEN};
pub use event::{EventKind, Field, FieldValue, Phase, SpanId, Subsystem, TelemetryEvent};
pub use export::{from_jsonl, to_chrome_trace, to_jsonl, ExportError};
pub use json::{Json, JsonError};
pub use registry::{HistogramSummary, MetricsRegistry, MetricsSnapshot};
pub use replay::{replay_spans, CompletedSpan, ReplayError};
pub use ring::RingCollector;
pub use sampler::Sampler;
pub use settled::{ColumnLengthError, SettledRound};
pub use timeline::render_timeline;
