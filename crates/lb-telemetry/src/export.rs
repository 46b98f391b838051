//! Exporters: JSONL event logs and Chrome `trace_event` files.
//!
//! * [`to_jsonl`] / [`from_jsonl`] — one JSON object per line, loss-free
//!   round-trip of every [`TelemetryEvent`] (kind, span ids, typed fields).
//!   Greppable, diffable, and re-parseable for offline analysis.
//! * [`to_chrome_trace`] — the Trace Event Format consumed by
//!   `chrome://tracing` and Perfetto. Spans are emitted as complete (`"X"`)
//!   events derived from [`crate::replay_spans`] — not `B`/`E` pairs —
//!   because overlapping sibling spans (per-machine simulator spans) inside
//!   one lane would violate `B`/`E` stack discipline. Timestamps are
//!   converted from seconds to the format's microseconds.

use crate::event::{EventKind, Field, FieldValue, SpanId, Subsystem, TelemetryEvent};
use crate::json::{Json, JsonError};
use crate::replay::{replay_spans, ReplayError};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// Why an export or import failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ExportError {
    /// A JSONL line was not valid JSON.
    Json {
        /// 1-based line number.
        line: usize,
        /// The underlying syntax error.
        source: JsonError,
    },
    /// A JSONL line parsed but did not match the event schema.
    Schema {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// The recording's spans do not replay cleanly, so no Chrome trace can
    /// be built from it.
    Replay(ReplayError),
}

impl fmt::Display for ExportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExportError::Json { line, source } => write!(f, "line {line}: {source}"),
            ExportError::Schema { line, message } => write!(f, "line {line}: {message}"),
            ExportError::Replay(e) => write!(f, "invalid span structure: {e}"),
        }
    }
}

impl std::error::Error for ExportError {}

impl From<ReplayError> for ExportError {
    fn from(e: ReplayError) -> Self {
        ExportError::Replay(e)
    }
}

/// Largest integer magnitude a JSON number round-trips exactly (`2^53`).
/// Bigger integers — 64-bit trace ids above all — are written as decimal
/// strings instead, so they survive the round-trip bit-exactly.
const EXACT_JSON_INT: u64 = 1 << 53;

fn field_value_json(value: &FieldValue) -> Json {
    let (tag, json) = match value {
        FieldValue::U64(v) if *v <= EXACT_JSON_INT => ("u64", Json::Num(*v as f64)),
        FieldValue::U64(v) => ("u64", Json::Str(v.to_string())),
        FieldValue::I64(v) if v.unsigned_abs() <= EXACT_JSON_INT => ("i64", Json::Num(*v as f64)),
        FieldValue::I64(v) => ("i64", Json::Str(v.to_string())),
        FieldValue::F64(v) => ("f64", Json::Num(*v)),
        FieldValue::Bool(v) => ("bool", Json::Bool(*v)),
        FieldValue::Str(v) => ("str", Json::Str(v.clone())),
    };
    Json::obj([(tag, json)])
}

fn event_json(event: &TelemetryEvent) -> Json {
    let mut obj: BTreeMap<String, Json> = BTreeMap::new();
    obj.insert("at".into(), Json::Num(event.at));
    obj.insert("name".into(), Json::Str(event.name.clone().into_owned()));
    obj.insert("cat".into(), Json::Str(event.cat.name().into()));
    obj.insert("kind".into(), Json::Str(event.kind.tag().into()));
    match &event.kind {
        EventKind::SpanStart { id, parent } => {
            obj.insert("id".into(), Json::Num(id.0 as f64));
            if let Some(parent) = parent {
                obj.insert("parent".into(), Json::Num(parent.0 as f64));
            }
        }
        EventKind::SpanEnd { id } => {
            obj.insert("id".into(), Json::Num(id.0 as f64));
        }
        EventKind::Counter { delta } => {
            obj.insert("delta".into(), Json::Num(*delta as f64));
        }
        EventKind::Gauge { value } | EventKind::Histogram { value } => {
            obj.insert("value".into(), Json::Num(*value));
        }
        EventKind::Instant => {}
    }
    if !event.fields.is_empty() {
        // An array (not an object) so field order survives the round-trip.
        obj.insert(
            "fields".into(),
            Json::Arr(
                event
                    .fields
                    .iter()
                    .map(|f| {
                        let Json::Obj(mut tagged) = field_value_json(&f.value) else {
                            unreachable!("field_value_json returns an object")
                        };
                        tagged.insert("k".into(), Json::Str(f.key.clone().into_owned()));
                        Json::Obj(tagged)
                    })
                    .collect(),
            ),
        );
    }
    Json::Obj(obj)
}

/// Serialises a recording as JSONL: one event object per line, in order.
#[must_use]
pub fn to_jsonl(events: &[TelemetryEvent]) -> String {
    let mut out = String::new();
    for event in events {
        out.push_str(&event_json(event).render());
        out.push('\n');
    }
    out
}

fn schema_err(line: usize, message: impl Into<String>) -> ExportError {
    ExportError::Schema {
        line,
        message: message.into(),
    }
}

fn parse_field(line: usize, entry: &Json) -> Result<Field, ExportError> {
    let Json::Obj(map) = entry else {
        return Err(schema_err(line, "field entry is not an object"));
    };
    let key = map
        .get("k")
        .and_then(Json::as_str)
        .ok_or_else(|| schema_err(line, "field entry missing string 'k'"))?;
    let (tag, inner) = map
        .iter()
        .find(|(k, _)| k.as_str() != "k")
        .ok_or_else(|| schema_err(line, format!("field '{key}' has no type tag")))?;
    let value = match (tag.as_str(), inner) {
        ("u64", Json::Num(v)) => FieldValue::U64(*v as u64),
        ("u64", Json::Str(s)) => FieldValue::U64(
            s.parse()
                .map_err(|_| schema_err(line, format!("field '{key}': bad u64 '{s}'")))?,
        ),
        ("i64", Json::Num(v)) => FieldValue::I64(*v as i64),
        ("i64", Json::Str(s)) => FieldValue::I64(
            s.parse()
                .map_err(|_| schema_err(line, format!("field '{key}': bad i64 '{s}'")))?,
        ),
        ("f64", Json::Num(v)) => FieldValue::F64(*v),
        ("f64", Json::Null) => FieldValue::F64(f64::NAN),
        ("bool", Json::Bool(v)) => FieldValue::Bool(*v),
        ("str", Json::Str(v)) => FieldValue::Str(v.clone()),
        _ => {
            return Err(schema_err(
                line,
                format!("field '{key}' has bad tag '{tag}'"),
            ))
        }
    };
    Ok(Field {
        key: Cow::Owned(key.to_string()),
        value,
    })
}

fn parse_event(line: usize, json: &Json) -> Result<TelemetryEvent, ExportError> {
    let at = json
        .get("at")
        .and_then(Json::as_f64)
        .ok_or_else(|| schema_err(line, "missing numeric 'at'"))?;
    // `to_jsonl` writes a non-finite timestamp as null, rejected above; an
    // overflowing literal such as `1e999` is rejected here, so the parser's
    // image stays inside the serialiser's domain.
    if !at.is_finite() {
        return Err(schema_err(line, "non-finite 'at'"));
    }
    let name = json
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| schema_err(line, "missing string 'name'"))?
        .to_string();
    let cat_name = json
        .get("cat")
        .and_then(Json::as_str)
        .ok_or_else(|| schema_err(line, "missing string 'cat'"))?;
    let cat = Subsystem::from_name(cat_name)
        .ok_or_else(|| schema_err(line, format!("unknown subsystem '{cat_name}'")))?;
    let kind_tag = json
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| schema_err(line, "missing string 'kind'"))?;
    let span_id = |key: &str| -> Result<SpanId, ExportError> {
        json.get(key)
            .and_then(Json::as_u64)
            .map(SpanId)
            .ok_or_else(|| schema_err(line, format!("missing span '{key}'")))
    };
    let kind = match kind_tag {
        "span_start" => EventKind::SpanStart {
            id: span_id("id")?,
            parent: json.get("parent").and_then(Json::as_u64).map(SpanId),
        },
        "span_end" => EventKind::SpanEnd { id: span_id("id")? },
        "instant" => EventKind::Instant,
        "counter" => EventKind::Counter {
            delta: json
                .get("delta")
                .and_then(Json::as_u64)
                .ok_or_else(|| schema_err(line, "missing numeric 'delta'"))?,
        },
        "gauge" | "histogram" => {
            let value = match json.get("value") {
                Some(Json::Num(v)) => *v,
                Some(Json::Null) => f64::NAN,
                _ => return Err(schema_err(line, "missing numeric 'value'")),
            };
            if kind_tag == "gauge" {
                EventKind::Gauge { value }
            } else {
                EventKind::Histogram { value }
            }
        }
        other => return Err(schema_err(line, format!("unknown kind '{other}'"))),
    };
    let mut fields = Vec::new();
    if let Some(Json::Arr(entries)) = json.get("fields") {
        for entry in entries {
            fields.push(parse_field(line, entry)?);
        }
    }
    Ok(TelemetryEvent {
        at,
        name: Cow::Owned(name),
        cat,
        kind,
        fields,
    })
}

/// Parses a JSONL recording produced by [`to_jsonl`]. Blank lines are
/// skipped.
///
/// # Errors
/// Returns the first malformed line — invalid JSON or schema mismatch.
pub fn from_jsonl(text: &str) -> Result<Vec<TelemetryEvent>, ExportError> {
    let mut events = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let json = Json::parse(raw).map_err(|source| ExportError::Json { line, source })?;
        events.push(parse_event(line, &json)?);
    }
    Ok(events)
}

const MICROS: f64 = 1e6;

fn args_json(fields: &[Field]) -> Json {
    Json::Obj(
        fields
            .iter()
            .map(|f| {
                let v = match &f.value {
                    FieldValue::U64(v) => Json::Num(*v as f64),
                    FieldValue::I64(v) => Json::Num(*v as f64),
                    FieldValue::F64(v) => Json::Num(*v),
                    FieldValue::Bool(v) => Json::Bool(*v),
                    FieldValue::Str(v) => Json::Str(v.clone()),
                };
                (f.key.clone().into_owned(), v)
            })
            .collect(),
    )
}

/// Renders a recording as a Chrome Trace Event Format document (load it in
/// `chrome://tracing` or [Perfetto](https://ui.perfetto.dev)).
///
/// Spans become complete (`"X"`) events, instants become `"i"` events,
/// counters and gauges become `"C"` counter tracks (counters accumulate,
/// gauges are absolute), and histogram samples become instants carrying
/// their value. Each subsystem renders in its own lane (`tid`).
///
/// # Errors
/// Fails with [`ExportError::Replay`] if the spans do not replay cleanly.
pub fn to_chrome_trace(events: &[TelemetryEvent]) -> Result<String, ExportError> {
    let spans = replay_spans(events)?;
    let mut trace: Vec<Json> = Vec::new();

    // Metadata records (`"M"` phase) name the process and each subsystem
    // lane, so viewers render "coordinator" / "node" / … instead of bare
    // tids. The pid/tid mapping is stable: pid 1 for the whole workspace,
    // tid = `Subsystem::lane`. Only lanes that actually appear are named.
    trace.push(Json::obj([
        ("name", Json::Str("process_name".into())),
        ("ph", Json::Str("M".into())),
        ("pid", Json::Num(1.0)),
        ("args", Json::obj([("name", Json::Str("lbmv".into()))])),
    ]));
    let lanes: BTreeMap<u64, &'static str> = events
        .iter()
        .map(|e| (e.cat.lane(), e.cat.name()))
        .collect();
    for (lane, name) in &lanes {
        trace.push(Json::obj([
            ("name", Json::Str("thread_name".into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::Num(1.0)),
            ("tid", Json::Num(*lane as f64)),
            ("args", Json::obj([("name", Json::Str((*name).into()))])),
        ]));
    }

    for span in &spans {
        trace.push(Json::obj([
            ("name", Json::Str(span.name.clone())),
            ("cat", Json::Str(span.cat.name().into())),
            ("ph", Json::Str("X".into())),
            ("ts", Json::Num(span.start * MICROS)),
            ("dur", Json::Num(span.duration() * MICROS)),
            ("pid", Json::Num(1.0)),
            ("tid", Json::Num(span.cat.lane() as f64)),
            ("args", args_json(&span.fields)),
        ]));
    }

    let mut counter_totals: BTreeMap<&str, u64> = BTreeMap::new();
    for event in events {
        match &event.kind {
            EventKind::Instant => trace.push(Json::obj([
                ("name", Json::Str(event.name.clone().into_owned())),
                ("cat", Json::Str(event.cat.name().into())),
                ("ph", Json::Str("i".into())),
                ("s", Json::Str("t".into())),
                ("ts", Json::Num(event.at * MICROS)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(event.cat.lane() as f64)),
                ("args", args_json(&event.fields)),
            ])),
            EventKind::Counter { delta } => {
                let total = counter_totals.entry(event.name.as_ref()).or_insert(0);
                *total = total.saturating_add(*delta);
                trace.push(Json::obj([
                    ("name", Json::Str(event.name.clone().into_owned())),
                    ("cat", Json::Str(event.cat.name().into())),
                    ("ph", Json::Str("C".into())),
                    ("ts", Json::Num(event.at * MICROS)),
                    ("pid", Json::Num(1.0)),
                    ("args", Json::obj([("value", Json::Num(*total as f64))])),
                ]));
            }
            EventKind::Gauge { value } => trace.push(Json::obj([
                ("name", Json::Str(event.name.clone().into_owned())),
                ("cat", Json::Str(event.cat.name().into())),
                ("ph", Json::Str("C".into())),
                ("ts", Json::Num(event.at * MICROS)),
                ("pid", Json::Num(1.0)),
                ("args", Json::obj([("value", Json::Num(*value))])),
            ])),
            EventKind::Histogram { value } => trace.push(Json::obj([
                ("name", Json::Str(event.name.clone().into_owned())),
                ("cat", Json::Str(event.cat.name().into())),
                ("ph", Json::Str("i".into())),
                ("s", Json::Str("t".into())),
                ("ts", Json::Num(event.at * MICROS)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(event.cat.lane() as f64)),
                ("args", Json::obj([("value", Json::Num(*value))])),
            ])),
            EventKind::SpanStart { .. } | EventKind::SpanEnd { .. } => {}
        }
    }

    Ok(Json::obj([
        ("traceEvents", Json::Arr(trace)),
        ("displayTimeUnit", Json::Str("ms".into())),
    ])
    .render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::Collector;
    use crate::ring::RingCollector;

    fn sample_recording() -> Vec<TelemetryEvent> {
        let ring = RingCollector::new(64);
        let round = ring.span_start(
            0.0,
            "round",
            Subsystem::Coordinator,
            vec![Field::u64("round", 7)],
        );
        let collect = ring.span_start_in(
            0.0,
            "phase.collect_bids",
            Subsystem::Coordinator,
            round,
            vec![],
        );
        ring.instant(
            0.05,
            "net.send",
            Subsystem::Network,
            vec![
                Field::u64("to", 3),
                Field::str("fate", "corrupted"),
                Field::bool("retry", false),
                Field::f64("delay", 0.001),
                Field::i64("skew", -2),
            ],
        );
        ring.counter(0.05, "net.messages", Subsystem::Network, 1);
        ring.counter(0.06, "net.messages", Subsystem::Network, 2);
        ring.gauge(0.07, "session.healthy", Subsystem::Session, 4.0);
        ring.histogram(0.08, "chaos.backoff", Subsystem::Chaos, 0.012);
        ring.span_end(0.2, collect);
        ring.span_end_with(0.3, round, vec![Field::bool("converged", true)]);
        ring.snapshot()
    }

    #[test]
    fn jsonl_roundtrips_losslessly() {
        let events = sample_recording();
        let text = to_jsonl(&events);
        assert_eq!(text.lines().count(), events.len());
        let parsed = from_jsonl(&text).unwrap();
        assert_eq!(parsed, events);
        // And the round-trip is a fixed point.
        assert_eq!(to_jsonl(&parsed), text);
    }

    #[test]
    fn jsonl_rejects_bad_lines_with_line_numbers() {
        let err = from_jsonl("not json\n").unwrap_err();
        assert!(matches!(err, ExportError::Json { line: 1, .. }));
        let err = from_jsonl("{\"at\":1}\n").unwrap_err();
        assert!(matches!(err, ExportError::Schema { line: 1, .. }));
        let good = "{\"at\":1,\"cat\":\"network\",\"kind\":\"instant\",\"name\":\"x\"}";
        let err = from_jsonl(&format!("{good}\n{{\"at\":2}}\n")).unwrap_err();
        assert!(matches!(err, ExportError::Schema { line: 2, .. }));
    }

    #[test]
    fn big_integer_fields_roundtrip_exactly() {
        // 64-bit trace ids exceed 2^53; a JSON number would round them, so
        // they travel as decimal strings.
        let events = vec![TelemetryEvent {
            at: 0.5,
            name: "round".into(),
            cat: Subsystem::Coordinator,
            kind: EventKind::Instant,
            fields: vec![
                Field::u64("trace_lo", u64::MAX - 1),
                Field::u64("small", 7),
                Field::i64("offset", i64::MIN + 1),
            ],
        }];
        let text = to_jsonl(&events);
        assert!(text.contains(&format!("\"{}\"", u64::MAX - 1)), "{text}");
        assert!(text.contains("\"small\",\"u64\":7") || text.contains("\"u64\":7"));
        assert_eq!(from_jsonl(&text).unwrap(), events);
    }

    #[test]
    fn jsonl_rejects_overflowed_timestamps() {
        // "1e999" parses as +inf; accepting it would let a recording through
        // that `to_jsonl` later panics on. The parser's image must stay
        // inside the serialiser's domain.
        let line = "{\"at\":1e999,\"cat\":\"network\",\"kind\":\"instant\",\"name\":\"x\"}";
        let err = from_jsonl(line).unwrap_err();
        assert!(matches!(err, ExportError::Schema { line: 1, .. }), "{err}");
    }

    #[test]
    fn blank_lines_are_skipped() {
        let events = sample_recording();
        let text = to_jsonl(&events).replace('\n', "\n\n");
        assert_eq!(from_jsonl(&text).unwrap(), events);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_shape() {
        let events = sample_recording();
        let trace = to_chrome_trace(&events).unwrap();
        let json = Json::parse(&trace).unwrap();
        let all = json.get("traceEvents").and_then(Json::as_array).unwrap();
        // Metadata first: one process_name + one thread_name per used lane
        // (coordinator, network, chaos, session).
        let meta: Vec<&Json> = all
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .collect();
        assert_eq!(meta.len(), 5);
        assert_eq!(
            meta[0].get("name").and_then(Json::as_str),
            Some("process_name")
        );
        assert_eq!(
            meta[0]
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str),
            Some("lbmv")
        );
        let thread_names: Vec<(&str, u64)> = meta[1..]
            .iter()
            .map(|e| {
                (
                    e.get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Json::as_str)
                        .unwrap(),
                    e.get("tid").and_then(Json::as_u64).unwrap(),
                )
            })
            .collect();
        assert_eq!(
            thread_names,
            vec![
                ("coordinator", 1),
                ("network", 2),
                ("chaos", 3),
                ("session", 4)
            ]
        );
        let items: Vec<&Json> = all
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) != Some("M"))
            .collect();
        // 2 spans + 2 instants (net.send + histogram sample) + 2 counters + 1 gauge.
        assert_eq!(items.len(), 7);
        let complete: Vec<&Json> = items
            .iter()
            .copied()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(complete.len(), 2);
        for e in &complete {
            assert!(e.get("dur").and_then(Json::as_f64).unwrap() >= 0.0);
        }
        // Counters accumulate: second net.messages sample reports 3.
        let counters: Vec<f64> = items
            .iter()
            .copied()
            .filter(|e| {
                e.get("ph").and_then(Json::as_str) == Some("C")
                    && e.get("name").and_then(Json::as_str) == Some("net.messages")
            })
            .map(|e| {
                e.get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Json::as_f64)
                    .unwrap()
            })
            .collect();
        assert_eq!(counters, vec![1.0, 3.0]);
    }

    #[test]
    fn chrome_trace_refuses_unbalanced_spans() {
        let ring = RingCollector::new(8);
        let _ = ring.span_start(0.0, "round", Subsystem::Coordinator, vec![]);
        assert!(matches!(
            to_chrome_trace(&ring.snapshot()),
            Err(ExportError::Replay(_))
        ));
    }
}
