//! Telemetry oracle: recording round-trips and mutated-input robustness.
//!
//! The observability stack persists recordings as JSONL and rebuilds span
//! forests from them (`lb-top`, the Chrome exporter, the replay validator all
//! consume that format), so the serialiser/parser pair gets the same
//! treatment as the wire codec. Three properties, in increasing hostility:
//!
//! 1. **Round-trip**: a well-formed random recording survives
//!    `from_jsonl(to_jsonl(events))` bit-exactly, replays into a clean span
//!    forest, and exports to a Chrome trace.
//! 2. **Closure**: whatever `from_jsonl` accepts, `to_jsonl` must be able to
//!    re-serialise, and that output must parse again to the same number of
//!    events. The parser's image must stay inside the serialiser's domain
//!    (non-finite timestamps are the historical trap here).
//! 3. **Corruption**: after random byte mutations the parser must return a
//!    typed error or a valid recording — never panic. A recording that does
//!    parse may no longer replay (span structure is content, not framing),
//!    but the replayer must fail with a typed
//!    [`ReplayError`](lb_telemetry::ReplayError), not a panic. The metrics
//!    registry must ingest it and render Prometheus text and JSON without a
//!    panic, exactly as `lb_top --file` does, including the null samples
//!    and reversed spans the oracle plants before mutating.

use crate::generate::{mutate_bytes, rng_for};
use lb_stats::{Rng, Xoshiro256StarStar};
use lb_telemetry::{
    from_jsonl, replay_spans, to_chrome_trace, to_jsonl, EventKind, Field, MetricsRegistry, SpanId,
    Subsystem, TelemetryEvent,
};
use std::borrow::Cow;

/// Bound for counter deltas and span-adjacent integers, which travel as JSON
/// numbers: `2^53`, the largest range that representation round-trips
/// exactly. *Field* values are unrestricted — the exporter switches to
/// decimal strings above this bound (that is how 64-bit trace ids survive),
/// and the oracle deliberately generates full-range values to exercise it.
const EXACT_INT_BOUND: u64 = 1 << 53;

fn subsystem(rng: &mut Xoshiro256StarStar) -> Subsystem {
    match rng.next_below(9) {
        0 => Subsystem::Coordinator,
        1 => Subsystem::Network,
        2 => Subsystem::Chaos,
        3 => Subsystem::Session,
        4 => Subsystem::Node,
        5 => Subsystem::Sim,
        6 => Subsystem::Audit,
        7 => Subsystem::Shard,
        _ => Subsystem::Bench,
    }
}

/// Event names drawn from real instrumentation sites plus escaping-hostile
/// strings (quotes, backslashes, control characters, non-ASCII) that stress
/// the JSON string escaper.
fn name(rng: &mut Xoshiro256StarStar) -> Cow<'static, str> {
    match rng.next_below(8) {
        0 => Cow::Borrowed("phase.collect_bids"),
        1 => Cow::Borrowed("node.bid"),
        2 => Cow::Borrowed("net.send"),
        3 => Cow::Borrowed("round"),
        4 => Cow::Owned(format!("fuzz.{}", rng.next_below(1000))),
        5 => Cow::Borrowed("quoted \"name\" with \\ backslash"),
        6 => Cow::Borrowed("ctrl\tchars\nand\r\u{1} too"),
        _ => Cow::Borrowed("unicode λ→name"),
    }
}

fn field(rng: &mut Xoshiro256StarStar) -> Field {
    match rng.next_below(6) {
        0 => Field::u64("machine", rng.next_below(1024)),
        1 => Field::f64("value", rng.next_range(-1e9, 1e9)),
        2 => Field::bool("flag", rng.next_bool(0.5)),
        3 => Field::str("label", format!("m{}\"\\", rng.next_below(100))),
        #[allow(clippy::cast_possible_wrap)]
        4 => Field::i64("offset", rng.next_u64() as i64),
        _ => Field::u64("trace_lo", rng.next_u64()),
    }
}

fn fields(rng: &mut Xoshiro256StarStar) -> Vec<Field> {
    (0..rng.next_below(4)).map(|_| field(rng)).collect()
}

/// Builds a well-formed random recording: spans open and close in proper
/// LIFO nesting order (a stack guarantees replayability by construction),
/// interleaved with instants, counters, gauges and histogram samples.
fn recording(rng: &mut Xoshiro256StarStar) -> Vec<TelemetryEvent> {
    let mut events = Vec::new();
    let mut stack: Vec<(SpanId, Subsystem)> = Vec::new();
    let mut next_id = 1u64;
    let mut at = 0.0f64;
    let count = 8 + rng.next_below(48);
    for _ in 0..count {
        at += rng.next_range(0.0, 0.01);
        let mut cat = subsystem(rng);
        let kind = match rng.next_below(8) {
            0 | 1 => {
                let id = SpanId(next_id);
                next_id += 1;
                let parent = stack.last().copied();
                // Well-formed recordings respect the shard-lineage rule:
                // a Shard span only opens under a Coordinator or Shard
                // parent (replay_spans rejects orphans). Downgrade the
                // category elsewhere, exactly as real instrumentation
                // never emits a stray shard span.
                if cat == Subsystem::Shard
                    && !matches!(parent, Some((_, Subsystem::Coordinator | Subsystem::Shard)))
                {
                    cat = Subsystem::Coordinator;
                }
                stack.push((id, cat));
                EventKind::SpanStart {
                    id,
                    parent: parent.map(|(p, _)| p),
                }
            }
            2 if !stack.is_empty() => {
                let (id, _) = stack.pop().expect("non-empty stack");
                EventKind::SpanEnd { id }
            }
            2 | 3 => EventKind::Instant,
            4 => EventKind::Counter {
                delta: rng.next_below(EXACT_INT_BOUND),
            },
            5 => EventKind::Gauge {
                value: rng.next_range(-1e6, 1e6),
            },
            _ => EventKind::Histogram {
                value: rng.next_range(0.0, 1e3),
            },
        };
        events.push(TelemetryEvent {
            at,
            name: name(rng),
            cat,
            kind,
            fields: fields(rng),
        });
    }
    // Close whatever is still open, innermost first, so the forest is
    // complete and `replay_spans` accepts it.
    while let Some((id, _)) = stack.pop() {
        at += rng.next_range(0.0, 0.01);
        events.push(TelemetryEvent {
            at,
            name: Cow::Borrowed("close"),
            cat: Subsystem::Bench,
            kind: EventKind::SpanEnd { id },
            fields: Vec::new(),
        });
    }
    events
}

/// Runs one telemetry-oracle iteration.
///
/// # Errors
/// Returns a description of the first violated property.
pub fn check(seed: u64) -> Result<(), String> {
    let mut rng = rng_for(seed);
    let events = recording(&mut rng);

    // 1. Well-formed by construction: must replay and export cleanly.
    let spans = replay_spans(&events).map_err(|e| format!("clean recording rejected: {e}"))?;
    let starts = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::SpanStart { .. }))
        .count();
    if spans.len() != starts {
        return Err(format!(
            "replay produced {} spans from {starts} span starts",
            spans.len()
        ));
    }
    to_chrome_trace(&events).map_err(|e| format!("chrome export of clean recording: {e}"))?;

    // Exact JSONL round-trip.
    let text = to_jsonl(&events);
    let parsed = from_jsonl(&text).map_err(|e| format!("reparse of own serialisation: {e}"))?;
    if parsed != events {
        let diverged = parsed
            .iter()
            .zip(&events)
            .position(|(a, b)| a != b)
            .map_or_else(|| "length".to_string(), |i| format!("event {i}"));
        return Err(format!(
            "JSONL round-trip changed the recording ({diverged})"
        ));
    }

    // 2+3. Mutated document: typed outcome, and closure on acceptance. The
    // document first gains samples the registry must skip: null histogram
    // values (NaN serialises as null) and span ends stamped before 0.
    let mut hostile = events;
    for event in &mut hostile {
        match &mut event.kind {
            EventKind::Histogram { value } if rng.next_bool(0.1) => *value = f64::NAN,
            EventKind::SpanEnd { .. } if rng.next_bool(0.1) => event.at = -event.at,
            _ => {}
        }
    }
    let mut corrupted = to_jsonl(&hostile).into_bytes();
    mutate_bytes(&mut rng, &mut corrupted);
    let corrupted = String::from_utf8_lossy(&corrupted);
    if let Ok(survivors) = from_jsonl(&corrupted) {
        // The parser accepted it, so the serialiser must be able to take it
        // back — and its output must parse to the same number of events.
        let reserialised = to_jsonl(&survivors);
        let again = from_jsonl(&reserialised)
            .map_err(|e| format!("serialiser emitted an unparseable document: {e}"))?;
        if again.len() != survivors.len() {
            return Err(format!(
                "re-serialisation changed the event count: {} -> {}",
                survivors.len(),
                again.len()
            ));
        }
        // Span structure is content, not framing: a mutated recording may
        // legitimately fail to replay, but only with a typed error.
        let _ = replay_spans(&survivors);
        let _ = to_chrome_trace(&survivors);
        let mut registry = MetricsRegistry::new();
        registry.ingest(&survivors);
        let snapshot = registry.snapshot();
        let _ = snapshot.to_prometheus();
        let _ = snapshot.to_json().render();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holds_for_a_small_seed_sample() {
        for seed in 0..50 {
            check(seed).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn recordings_are_deterministic_and_non_trivial() {
        let a = recording(&mut rng_for(7));
        let b = recording(&mut rng_for(7));
        assert_eq!(a, b);
        assert!(a.len() >= 8);
        // The generator exercises the span machinery, not just flat events.
        let any_span = (0..20).any(|s| {
            recording(&mut rng_for(s))
                .iter()
                .any(|e| matches!(e.kind, EventKind::SpanStart { .. }))
        });
        assert!(any_span);
    }
}
