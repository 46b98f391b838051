//! The typed telemetry event vocabulary.
//!
//! An event is a timestamped, named record with a [`Subsystem`] category, a
//! [`EventKind`] payload and a small list of structured [`Field`]s. Names are
//! `Cow<'static, str>` so instrumentation sites pay no allocation for their
//! (static) names while parsed recordings can carry owned strings.

use std::borrow::Cow;
use std::fmt;

/// Protocol phase a span or metric is attributed to.
///
/// These mirror the coordinator's state machine: collect bids → allocate →
/// execute (with verification) → settle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Waiting for bids (including retransmission retries).
    CollectBids,
    /// Computing the PR allocation and running the verification simulation.
    Allocate,
    /// Jobs executing; waiting for completion acknowledgements.
    Execute,
    /// Computing and sending payments.
    Settle,
}

impl Phase {
    /// Every phase, in protocol order.
    pub const ALL: [Phase; 4] = [
        Phase::CollectBids,
        Phase::Allocate,
        Phase::Execute,
        Phase::Settle,
    ];

    /// Short lowercase name (`collect_bids`, `allocate`, …).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::CollectBids => "collect_bids",
            Phase::Allocate => "allocate",
            Phase::Execute => "execute",
            Phase::Settle => "settle",
        }
    }

    /// Canonical span name for this phase (`phase.collect_bids`, …).
    #[must_use]
    pub fn span_name(self) -> &'static str {
        match self {
            Phase::CollectBids => "phase.collect_bids",
            Phase::Allocate => "phase.allocate",
            Phase::Execute => "phase.execute",
            Phase::Settle => "phase.settle",
        }
    }
}

/// Subsystem that emitted an event — the Chrome-trace category and lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Subsystem {
    /// The mechanism centre's state machine.
    Coordinator,
    /// The (simulated or channel) transport.
    Network,
    /// The chaos injector and retransmission driver.
    Chaos,
    /// Multi-round session management (quarantine, readmission).
    Session,
    /// Node-side agents.
    Node,
    /// The discrete-event execution simulator.
    Sim,
    /// The experiment harness.
    Bench,
    /// The verification-observability monitors (economic invariants,
    /// truthfulness margins, ledger health).
    Audit,
    /// Shard-tier coordinators of the hierarchical (sharded) round runtime.
    Shard,
}

impl Subsystem {
    /// Every subsystem, in lane order.
    pub const ALL: [Subsystem; 9] = [
        Subsystem::Coordinator,
        Subsystem::Network,
        Subsystem::Chaos,
        Subsystem::Session,
        Subsystem::Node,
        Subsystem::Sim,
        Subsystem::Bench,
        Subsystem::Audit,
        Subsystem::Shard,
    ];

    /// Short lowercase name (`coordinator`, `network`, …).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Subsystem::Coordinator => "coordinator",
            Subsystem::Network => "network",
            Subsystem::Chaos => "chaos",
            Subsystem::Session => "session",
            Subsystem::Node => "node",
            Subsystem::Sim => "sim",
            Subsystem::Bench => "bench",
            Subsystem::Audit => "audit",
            Subsystem::Shard => "shard",
        }
    }

    /// Inverse of [`Subsystem::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<Subsystem> {
        Subsystem::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Stable lane number used as the Chrome-trace `tid`, so each subsystem
    /// renders as its own track.
    #[must_use]
    pub fn lane(self) -> u64 {
        match self {
            Subsystem::Coordinator => 1,
            Subsystem::Network => 2,
            Subsystem::Chaos => 3,
            Subsystem::Session => 4,
            Subsystem::Node => 5,
            Subsystem::Sim => 6,
            Subsystem::Bench => 7,
            Subsystem::Audit => 8,
            Subsystem::Shard => 9,
        }
    }
}

impl fmt::Display for Subsystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Identifier of a span within one recording.
///
/// Allocated by the collector ([`crate::Collector::next_span_id`]); the null
/// id `0` is returned by disabled collectors and never recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null span id, produced by disabled collectors.
    pub const NULL: SpanId = SpanId(0);

    /// Whether this is the null id.
    #[must_use]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }
}

/// A structured field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String (owned so parsed recordings round-trip).
    Str(String),
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => f.write_str(v),
        }
    }
}

/// One structured key/value field on an event.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Field key.
    pub key: Cow<'static, str>,
    /// Field value.
    pub value: FieldValue,
}

impl Field {
    /// Unsigned-integer field.
    #[must_use]
    pub fn u64(key: &'static str, value: u64) -> Self {
        Self {
            key: Cow::Borrowed(key),
            value: FieldValue::U64(value),
        }
    }

    /// Signed-integer field.
    #[must_use]
    pub fn i64(key: &'static str, value: i64) -> Self {
        Self {
            key: Cow::Borrowed(key),
            value: FieldValue::I64(value),
        }
    }

    /// Floating-point field.
    #[must_use]
    pub fn f64(key: &'static str, value: f64) -> Self {
        Self {
            key: Cow::Borrowed(key),
            value: FieldValue::F64(value),
        }
    }

    /// Boolean field.
    #[must_use]
    pub fn bool(key: &'static str, value: bool) -> Self {
        Self {
            key: Cow::Borrowed(key),
            value: FieldValue::Bool(value),
        }
    }

    /// String field.
    #[must_use]
    pub fn str(key: &'static str, value: impl Into<String>) -> Self {
        Self {
            key: Cow::Borrowed(key),
            value: FieldValue::Str(value.into()),
        }
    }
}

/// What kind of record an event is.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A span opened. Spans form a forest through `parent` links; children
    /// must close before their parent ([`crate::replay_spans`] enforces it).
    SpanStart {
        /// Identifier matched by the closing [`EventKind::SpanEnd`].
        id: SpanId,
        /// Enclosing span, if any.
        parent: Option<SpanId>,
    },
    /// A span closed.
    SpanEnd {
        /// Identifier of the span being closed.
        id: SpanId,
    },
    /// A point-in-time event.
    Instant,
    /// A monotonic counter increment.
    Counter {
        /// Amount added to the counter.
        delta: u64,
    },
    /// A gauge set to an absolute value.
    Gauge {
        /// The new gauge value.
        value: f64,
    },
    /// One sample of a distribution (latency, backoff delay, …).
    Histogram {
        /// The observed value.
        value: f64,
    },
}

impl EventKind {
    /// Stable lowercase tag used by the exporters.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::SpanStart { .. } => "span_start",
            EventKind::SpanEnd { .. } => "span_end",
            EventKind::Instant => "instant",
            EventKind::Counter { .. } => "counter",
            EventKind::Gauge { .. } => "gauge",
            EventKind::Histogram { .. } => "histogram",
        }
    }
}

/// One telemetry record: a timestamp on the caller's clock, a name, a
/// category, a kind and structured fields.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryEvent {
    /// Timestamp in seconds on the clock the caller injected (sim time on
    /// the simulated network, wall-clock seconds since round start on the shard tier).
    pub at: f64,
    /// Event name (static at instrumentation sites, owned after parsing).
    pub name: Cow<'static, str>,
    /// Emitting subsystem.
    pub cat: Subsystem,
    /// Payload.
    pub kind: EventKind,
    /// Structured fields.
    pub fields: Vec<Field>,
}

impl TelemetryEvent {
    /// Looks up a field by key.
    #[must_use]
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|f| f.key == key).map(|f| &f.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_roundtrip() {
        for p in Phase::ALL {
            let named = Phase::ALL
                .into_iter()
                .find(|q| q.span_name() == p.span_name());
            assert_eq!(named, Some(p));
            assert!(p.span_name().ends_with(p.name()));
        }
    }

    #[test]
    fn subsystem_names_roundtrip() {
        for s in Subsystem::ALL {
            assert_eq!(Subsystem::from_name(s.name()), Some(s));
        }
        assert_eq!(Subsystem::from_name("bogus"), None);
    }

    #[test]
    fn lanes_are_distinct() {
        let lanes: std::collections::BTreeSet<u64> =
            Subsystem::ALL.into_iter().map(Subsystem::lane).collect();
        assert_eq!(lanes.len(), Subsystem::ALL.len());
    }

    #[test]
    fn field_lookup_finds_values() {
        let e = TelemetryEvent {
            at: 1.0,
            name: Cow::Borrowed("x"),
            cat: Subsystem::Network,
            kind: EventKind::Instant,
            fields: vec![Field::u64("machine", 3), Field::str("fate", "dropped")],
        };
        assert_eq!(e.field("machine"), Some(&FieldValue::U64(3)));
        assert_eq!(e.field("fate"), Some(&FieldValue::Str("dropped".into())));
        assert_eq!(e.field("absent"), None);
    }
}
