//! The [`Collector`] trait and the free [`noop_collector`].
//!
//! Instrumentation points accept `&dyn Collector` (usually through an
//! `Arc<dyn Collector>` so the shard tier's worker threads can share one
//! collector). Implementors provide three primitives — [`Collector::enabled`],
//! [`Collector::record`] and [`Collector::next_span_id`] — and inherit the
//! span/instant/counter/gauge/histogram convenience API, every method of
//! which returns immediately when the collector is disabled, plus the
//! [`Collector::settled`] end-of-round hook, whose default records the
//! round as typed `settle.machine` instants (see [`crate::settled`]).

use crate::event::{EventKind, Field, SpanId, Subsystem, TelemetryEvent};
use crate::settled::SettledRound;
use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

/// A sink for telemetry events.
///
/// All timestamps are caller-supplied seconds (see the crate docs for the
/// clock discipline). Implementations must be thread-safe: the shard tier
/// records from its worker threads and the root coordinator concurrently.
pub trait Collector: Send + Sync {
    /// Whether events are being recorded. Hot paths check this before
    /// building field vectors; the default convenience methods already do.
    fn enabled(&self) -> bool;

    /// Records one event. Disabled collectors discard it.
    fn record(&self, event: TelemetryEvent);

    /// Allocates a fresh span id. Disabled collectors return
    /// [`SpanId::NULL`].
    fn next_span_id(&self) -> SpanId;

    /// Opens a top-level span; returns its id for the matching
    /// [`Collector::span_end`].
    fn span_start(
        &self,
        at: f64,
        name: &'static str,
        cat: Subsystem,
        fields: Vec<Field>,
    ) -> SpanId {
        self.span_start_in(at, name, cat, SpanId::NULL, fields)
    }

    /// Opens a span nested under `parent` (pass [`SpanId::NULL`] for a
    /// top-level span).
    fn span_start_in(
        &self,
        at: f64,
        name: &'static str,
        cat: Subsystem,
        parent: SpanId,
        fields: Vec<Field>,
    ) -> SpanId {
        if !self.enabled() {
            return SpanId::NULL;
        }
        let id = self.next_span_id();
        self.record(TelemetryEvent {
            at,
            name: Cow::Borrowed(name),
            cat,
            kind: EventKind::SpanStart {
                id,
                parent: if parent.is_null() { None } else { Some(parent) },
            },
            fields,
        });
        id
    }

    /// Closes a span. Null ids (from disabled collectors) are ignored.
    fn span_end(&self, at: f64, id: SpanId) {
        self.span_end_with(at, id, Vec::new());
    }

    /// Closes a span, attaching fields that only became known at the end
    /// (e.g. a simulator machine's final estimate).
    fn span_end_with(&self, at: f64, id: SpanId, fields: Vec<Field>) {
        if !self.enabled() || id.is_null() {
            return;
        }
        self.record(TelemetryEvent {
            at,
            name: Cow::Borrowed(""),
            cat: Subsystem::Coordinator,
            kind: EventKind::SpanEnd { id },
            fields,
        });
    }

    /// Records a point-in-time event.
    fn instant(&self, at: f64, name: &'static str, cat: Subsystem, fields: Vec<Field>) {
        if !self.enabled() {
            return;
        }
        self.record(TelemetryEvent {
            at,
            name: Cow::Borrowed(name),
            cat,
            kind: EventKind::Instant,
            fields,
        });
    }

    /// Adds `delta` to the named monotonic counter.
    fn counter(&self, at: f64, name: &'static str, cat: Subsystem, delta: u64) {
        if !self.enabled() {
            return;
        }
        self.record(TelemetryEvent {
            at,
            name: Cow::Borrowed(name),
            cat,
            kind: EventKind::Counter { delta },
            fields: Vec::new(),
        });
    }

    /// Sets the named gauge to `value`.
    fn gauge(&self, at: f64, name: &'static str, cat: Subsystem, value: f64) {
        if !self.enabled() {
            return;
        }
        self.record(TelemetryEvent {
            at,
            name: Cow::Borrowed(name),
            cat,
            kind: EventKind::Gauge { value },
            fields: Vec::new(),
        });
    }

    /// Records one sample of the named distribution.
    fn histogram(&self, at: f64, name: &'static str, cat: Subsystem, value: f64) {
        if !self.enabled() {
            return;
        }
        self.record(TelemetryEvent {
            at,
            name: Cow::Borrowed(name),
            cat,
            kind: EventKind::Histogram { value },
            fields: Vec::new(),
        });
    }

    /// A coordinator settled a round. Called on every settle, enabled or
    /// not; the default records one `settle.machine` instant per machine
    /// and the three `round.*` gauges (see [`crate::settled`]) when the
    /// collector is enabled. Observers that check rounds override it and
    /// read the typed view.
    fn settled(&self, at: f64, round: &SettledRound<'_>) {
        if self.enabled() {
            round.record(self, at);
        }
    }
}

/// The do-nothing collector: every instrumented hot path costs one virtual
/// call returning `false`.
#[derive(Debug, Clone, Copy, Default)]
struct NoopCollector;

impl Collector for NoopCollector {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: TelemetryEvent) {}

    fn next_span_id(&self) -> SpanId {
        SpanId::NULL
    }
}

/// A shared, lazily initialised `Arc<dyn Collector>` noop — the default
/// collector of every instrumented runtime, cloned without allocating.
#[must_use]
pub fn noop_collector() -> Arc<dyn Collector> {
    static NOOP: OnceLock<Arc<NoopCollector>> = OnceLock::new();
    NOOP.get_or_init(|| Arc::new(NoopCollector)).clone() as Arc<dyn Collector>
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled_and_null() {
        let c = NoopCollector;
        assert!(!c.enabled());
        assert_eq!(c.next_span_id(), SpanId::NULL);
        // Convenience methods return without panicking and yield null ids.
        let id = c.span_start(0.0, "round", Subsystem::Coordinator, vec![]);
        assert!(id.is_null());
        c.span_end(1.0, id);
        c.instant(0.5, "x", Subsystem::Network, vec![]);
        c.counter(0.5, "n", Subsystem::Network, 3);
        c.gauge(0.5, "g", Subsystem::Sim, 1.0);
        c.histogram(0.5, "h", Subsystem::Chaos, 0.25);
    }

    #[test]
    fn shared_noop_is_cheap_to_clone() {
        let a = noop_collector();
        let b = noop_collector();
        assert!(!a.enabled());
        assert!(!b.enabled());
    }
}
