//! [`MetricsRegistry`]: named counters, gauges and histogram summaries.
//!
//! Every histogram is an `lb-stats` [`LatencySketch`]: exact Welford
//! moments plus fixed-geometry log₁₀ bins, so a registry stays O(1) memory
//! per metric no matter how many samples flow through it, registries merge
//! exactly, and a quantile read here is the same read `/profile` serves for
//! the same durations.
//!
//! A registry can be fed directly (`add` / `observe`) or can
//! [`MetricsRegistry::ingest`] a recording, deriving per-phase latency
//! histograms from span durations, per-machine message counts from network
//! instants and anomaly counts from coordinator instants.

use crate::event::{EventKind, FieldValue, SpanId, TelemetryEvent};
use crate::json::Json;
use lb_stats::LatencySketch;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Point-in-time summary of one histogram metric, read off its
/// [`LatencySketch`]: the moments and extrema are exact, the quantiles are
/// sketch reads within [`lb_stats::SKETCH_RTOL`] relative.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of samples observed.
    pub count: u64,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
    /// Sketch median.
    pub p50: f64,
    /// Sketch 95th percentile.
    pub p95: f64,
    /// Sketch 99th percentile.
    pub p99: f64,
}

fn summary(sketch: &LatencySketch) -> HistogramSummary {
    HistogramSummary {
        count: sketch.count(),
        mean: sketch.mean(),
        std_dev: sketch.std_dev(),
        min: sketch.min(),
        max: sketch.max(),
        p50: sketch.quantile(0.50),
        p95: sketch.quantile(0.95),
        p99: sketch.quantile(0.99),
    }
}

/// A registry of named metrics with deterministic (sorted) iteration order.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, LatencySketch>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named counter (created at zero on first use).
    pub fn add(&mut self, name: impl Into<String>, delta: u64) {
        let slot = self.counters.entry(name.into()).or_insert(0);
        *slot = slot.saturating_add(delta);
    }

    /// Sets the named gauge.
    fn set_gauge(&mut self, name: impl Into<String>, value: f64) {
        self.gauges.insert(name.into(), value);
    }

    /// Records one duration sample (seconds) of the named distribution.
    ///
    /// Only finite, non-negative samples are recorded. Anything else — a
    /// `"value":null` recording line parses as NaN, a span end stamped
    /// before its start gives a negative duration — is skipped before the
    /// metric is created, so a histogram that exists is never empty.
    pub fn observe(&mut self, name: impl Into<String>, value: f64) {
        if value.is_finite() && value >= 0.0 {
            self.histograms
                .entry(name.into())
                .or_default()
                .record(value);
        }
    }

    /// Current value of a counter (zero if never touched).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge, if set.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Summary of a histogram, if any samples were observed.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<HistogramSummary> {
        self.histograms.get(name).map(summary)
    }

    /// Feeds a recording through the registry.
    ///
    /// * counter / gauge / histogram events update the same-named metric;
    /// * each completed span contributes its duration to a
    ///   `span.<name>.seconds` histogram (so phase spans become per-phase
    ///   latency distributions);
    /// * `anomaly` instants bump `anomaly.total` and `anomaly.<kind>`;
    /// * `net.send` instants bump `net.fate.<fate>` and, when the frame's
    ///   node endpoint is known, `net.machine.<machine>`;
    /// * `chaos.retransmit` instants bump `chaos.retransmit.machine.<m>`.
    ///
    /// Span bookkeeping here is intentionally forgiving — it tracks open
    /// spans by id and skips unmatched ends, leaving structural validation
    /// to [`crate::replay_spans`].
    pub fn ingest(&mut self, events: &[TelemetryEvent]) {
        let mut open: BTreeMap<SpanId, (String, f64)> = BTreeMap::new();
        for event in events {
            match &event.kind {
                EventKind::Counter { delta } => self.add(event.name.clone(), *delta),
                EventKind::Gauge { value } => self.set_gauge(event.name.clone(), *value),
                EventKind::Histogram { value } => self.observe(event.name.clone(), *value),
                EventKind::SpanStart { id, .. } => {
                    open.insert(*id, (event.name.clone().into_owned(), event.at));
                }
                EventKind::SpanEnd { id } => {
                    if let Some((name, start)) = open.remove(id) {
                        self.observe(format!("span.{name}.seconds"), event.at - start);
                    }
                }
                EventKind::Instant => match event.name.as_ref() {
                    "anomaly" => {
                        self.add("anomaly.total", 1);
                        if let Some(FieldValue::Str(kind)) = event.field("kind") {
                            self.add(format!("anomaly.{kind}"), 1);
                        }
                    }
                    "net.send" => {
                        if let Some(FieldValue::Str(fate)) = event.field("fate") {
                            self.add(format!("net.fate.{fate}"), 1);
                        }
                        if let Some(FieldValue::U64(node)) = event.field("node") {
                            self.add(format!("net.machine.{node}"), 1);
                        }
                    }
                    "chaos.retransmit" => {
                        if let Some(FieldValue::U64(machine)) = event.field("machine") {
                            self.add(format!("chaos.retransmit.machine.{machine}"), 1);
                        }
                    }
                    _ => {}
                },
            }
        }
    }

    /// Merges another registry into this one — the reduction step when each
    /// collector (per thread, per node, per round) fed its own registry.
    ///
    /// Counters add (saturating), gauges take the other side's value when it
    /// set one (last-writer-wins, matching `set_gauge` semantics) and
    /// histograms merge their sketches exactly, so every summary, quantiles
    /// included, equals that of one registry fed both streams.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, delta) in &other.counters {
            self.add(name.clone(), *delta);
        }
        for (name, value) in &other.gauges {
            self.set_gauge(name.clone(), *value);
        }
        for (name, sketch) in &other.histograms {
            self.histograms
                .entry(name.clone())
                .or_default()
                .merge(sketch);
        }
    }

    /// A frozen, renderable copy of every metric.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            gauges: self.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), summary(v)))
                .collect(),
        }
    }
}

/// A frozen view of a [`MetricsRegistry`], sorted by metric name.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter name/value pairs.
    pub counters: Vec<(String, u64)>,
    /// Gauge name/value pairs.
    pub gauges: Vec<(String, f64)>,
    /// Histogram name/summary pairs.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl MetricsSnapshot {
    /// Renders an aligned plain-text report.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            let width = self
                .counters
                .iter()
                .map(|(k, _)| k.len())
                .max()
                .unwrap_or(0);
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name:<width$}  {value}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            let width = self.gauges.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
            for (name, value) in &self.gauges {
                let _ = writeln!(out, "  {name:<width$}  {value:.6}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            let width = self
                .histograms
                .iter()
                .map(|(k, _)| k.len())
                .max()
                .unwrap_or(0);
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {name:<width$}  n={} mean={:.6} sd={:.6} min={:.6} p50={:.6} p95={:.6} p99={:.6} max={:.6}",
                    h.count, h.mean, h.std_dev, h.min, h.p50, h.p95, h.p99, h.max
                );
            }
        }
        out
    }

    /// Renders the snapshot as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let finite = |v: f64| {
            if v.is_finite() {
                Json::Num(v)
            } else {
                Json::Null
            }
        };
        Json::obj([
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                        .collect(),
                ),
            ),
            (
                "gauges",
                Json::Obj(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), finite(*v)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, h)| {
                            (
                                k.clone(),
                                Json::obj([
                                    ("count", Json::Num(h.count as f64)),
                                    ("mean", finite(h.mean)),
                                    ("std_dev", finite(h.std_dev)),
                                    ("min", finite(h.min)),
                                    ("max", finite(h.max)),
                                    ("p50", finite(h.p50)),
                                    ("p95", finite(h.p95)),
                                    ("p99", finite(h.p99)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::Collector;
    use crate::event::{Field, Subsystem};
    use crate::ring::RingCollector;

    #[test]
    fn counters_saturate_and_default_to_zero() {
        let mut reg = MetricsRegistry::new();
        assert_eq!(reg.counter("never"), 0);
        reg.add("n", u64::MAX - 1);
        reg.add("n", 5);
        assert_eq!(reg.counter("n"), u64::MAX);
    }

    #[test]
    fn histogram_summary_tracks_moments_and_quantiles() {
        let mut reg = MetricsRegistry::new();
        for i in 1..=100 {
            reg.observe("lat", f64::from(i));
        }
        let h = reg.histogram("lat").unwrap();
        assert_eq!(h.count, 100);
        assert!((h.mean - 50.5).abs() < 1e-9);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 100.0);
        assert!((h.p50 - 50.0).abs() < 5.0, "p50 ~ {}", h.p50);
        assert!(h.p95 > 85.0 && h.p95 <= 100.0, "p95 ~ {}", h.p95);
        assert!(h.p99 >= h.p95);
    }

    #[test]
    fn ingest_derives_span_and_event_metrics() {
        let ring = RingCollector::new(64);
        let round = ring.span_start(0.0, "round", Subsystem::Coordinator, vec![]);
        let collect = ring.span_start_in(
            0.0,
            "phase.collect_bids",
            Subsystem::Coordinator,
            round,
            vec![],
        );
        ring.instant(
            0.1,
            "net.send",
            Subsystem::Network,
            vec![Field::u64("node", 2), Field::str("fate", "delivered")],
        );
        ring.instant(
            0.2,
            "net.send",
            Subsystem::Network,
            vec![Field::u64("node", 2), Field::str("fate", "dropped")],
        );
        ring.instant(
            0.3,
            "anomaly",
            Subsystem::Coordinator,
            vec![Field::str("kind", "late_bid")],
        );
        ring.instant(
            0.35,
            "chaos.retransmit",
            Subsystem::Chaos,
            vec![Field::u64("machine", 2)],
        );
        ring.counter(0.4, "net.messages", Subsystem::Network, 2);
        ring.gauge(0.4, "session.healthy", Subsystem::Session, 3.0);
        ring.histogram(0.4, "chaos.backoff", Subsystem::Chaos, 0.05);
        ring.span_end(0.5, collect);
        ring.span_end(0.6, round);

        let mut reg = MetricsRegistry::new();
        reg.ingest(&ring.snapshot());

        assert_eq!(reg.counter("net.machine.2"), 2);
        assert_eq!(reg.counter("net.fate.delivered"), 1);
        assert_eq!(reg.counter("net.fate.dropped"), 1);
        assert_eq!(reg.counter("anomaly.total"), 1);
        assert_eq!(reg.counter("anomaly.late_bid"), 1);
        assert_eq!(reg.counter("chaos.retransmit.machine.2"), 1);
        assert_eq!(reg.counter("net.messages"), 2);
        assert_eq!(reg.gauge("session.healthy"), Some(3.0));
        assert_eq!(reg.histogram("chaos.backoff").unwrap().count, 1);
        let collect_lat = reg.histogram("span.phase.collect_bids.seconds").unwrap();
        assert_eq!(collect_lat.count, 1);
        assert!((collect_lat.mean - 0.5).abs() < 1e-12);
        let round_lat = reg.histogram("span.round.seconds").unwrap();
        assert!((round_lat.mean - 0.6).abs() < 1e-12);
    }

    #[test]
    fn merge_of_two_collectors_matches_one_combined_stream() {
        // Two RingCollectors record disjoint halves of the same activity;
        // each feeds its own registry, the registries are merged, and the
        // result must equal a single registry fed the combined stream. The
        // sketch merge is exact bin addition, so the quantiles agree bit for
        // bit; the moments agree to the Chan update's rounding.
        let left = RingCollector::new(4096);
        let right = RingCollector::new(4096);
        for i in 0..1000u32 {
            let ring = if i % 2 == 0 { &left } else { &right };
            let at = f64::from(i) * 1e-3;
            ring.counter(at, "net.messages", Subsystem::Network, 2);
            ring.histogram(
                at,
                "latency",
                Subsystem::Network,
                f64::from(i % 100) / 100.0,
            );
            ring.gauge(at, "healthy", Subsystem::Session, f64::from(i));
        }

        let mut a = MetricsRegistry::new();
        a.ingest(&left.snapshot());
        let mut b = MetricsRegistry::new();
        b.ingest(&right.snapshot());
        a.merge(&b);

        let mut combined = MetricsRegistry::new();
        combined.ingest(&left.snapshot());
        combined.ingest(&right.snapshot());

        assert_eq!(a.counter("net.messages"), combined.counter("net.messages"));
        assert_eq!(a.counter("net.messages"), 2000);
        let m = a.histogram("latency").unwrap();
        let c = combined.histogram("latency").unwrap();
        assert_eq!(m.count, c.count);
        assert!((m.mean - c.mean).abs() < 1e-12, "{} vs {}", m.mean, c.mean);
        assert!((m.std_dev - c.std_dev).abs() < 1e-9);
        assert_eq!(m.min, c.min);
        assert_eq!(m.max, c.max);
        for (merged_q, combined_q) in [(m.p50, c.p50), (m.p95, c.p95), (m.p99, c.p99)] {
            assert_eq!(merged_q.to_bits(), combined_q.to_bits());
        }
        // Gauges: last writer wins, and `merge` takes the other side's value.
        assert_eq!(a.gauge("healthy"), Some(999.0));
    }

    #[test]
    fn registry_quantiles_are_the_sketch_reads() {
        // `/metrics` and `/profile` serve the same number for the same
        // durations: a registry histogram is a `LatencySketch`.
        let durations: Vec<f64> = (1..=500).map(|i| f64::from(i).powf(1.7) * 1e-6).collect();
        let mut reg = MetricsRegistry::new();
        for &d in &durations {
            reg.observe("span.round.seconds", d);
        }
        let h = reg.histogram("span.round.seconds").unwrap();
        let sketch = LatencySketch::from_slice(&durations);
        for (read, q) in [(h.p50, 0.5), (h.p95, 0.95), (h.p99, 0.99)] {
            assert_eq!(read.to_bits(), sketch.quantile(q).to_bits(), "q = {q}");
        }
        assert_eq!((h.count, h.min, h.max), (500, sketch.min(), sketch.max()));
    }

    /// Feeds `events` through every surface `lb_top` uses, returning the
    /// snapshot.
    fn render_all(events: &[TelemetryEvent]) -> MetricsSnapshot {
        let mut reg = MetricsRegistry::new();
        reg.ingest(events);
        let snap = reg.snapshot();
        let _ = snap.to_text();
        assert!(Json::parse(&snap.to_json().render()).is_ok());
        snap
    }

    #[test]
    fn null_histogram_sample_is_skipped_not_a_panic() {
        let line =
            r#"{"at":0.5,"name":"chaos.backoff","cat":"chaos","kind":"histogram","value":null}"#;
        let events = crate::from_jsonl(line).unwrap();
        let snap = render_all(&events);
        assert!(snap.histograms.is_empty(), "NaN sample created a metric");
    }

    #[test]
    fn reversed_span_is_skipped_not_a_panic() {
        let ring = RingCollector::new(8);
        let id = ring.span_start(1.0, "round", Subsystem::Coordinator, vec![]);
        ring.span_end(0.5, id);
        let snap = render_all(&ring.snapshot());
        assert!(snap.histograms.is_empty(), "negative duration recorded");
    }

    #[test]
    fn merge_into_empty_clones_histograms() {
        let mut src = MetricsRegistry::new();
        for i in 1..=50 {
            src.observe("lat", f64::from(i));
        }
        src.add("n", 7);
        let mut dst = MetricsRegistry::new();
        dst.merge(&src);
        assert_eq!(dst.counter("n"), 7);
        let h = dst.histogram("lat").unwrap();
        assert_eq!(h.count, 50);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 50.0);
    }

    #[test]
    fn snapshot_renders_text_and_valid_json() {
        let mut reg = MetricsRegistry::new();
        reg.add("messages", 12);
        reg.set_gauge("healthy", 4.0);
        reg.observe("latency", 0.25);
        reg.observe("latency", 0.75);
        let snap = reg.snapshot();
        let text = snap.to_text();
        assert!(text.contains("messages"));
        assert!(text.contains("n=2"));
        let json = snap.to_json();
        let reparsed = Json::parse(&json.render()).unwrap();
        assert_eq!(
            reparsed
                .get("counters")
                .and_then(|c| c.get("messages"))
                .and_then(Json::as_u64),
            Some(12)
        );
        assert_eq!(
            reparsed
                .get("histograms")
                .and_then(|h| h.get("latency"))
                .and_then(|l| l.get("count"))
                .and_then(Json::as_u64),
            Some(2)
        );
    }
}
