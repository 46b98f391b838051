//! Append-only `BENCH_*.json` artifact log.
//!
//! Historically each experiments target rewrote its artifact wholesale, so
//! a re-run silently discarded the previous machine's numbers. This module
//! gives every artifact the same schema and an *append* discipline:
//!
//! ```json
//! {
//!   "bench": "payment_scaling",
//!   "unit": "ns/settle-phase",
//!   "entries": [
//!     {"label": "seed", "rows": [ {...}, {...} ]},
//!     {"label": "2026-08-ci", "rows": [ {...} ]}
//!   ]
//! }
//! ```
//!
//! [`BenchLog::parse`] validates the document shape (and migrates the
//! legacy top-level `rows` form into an entry labelled `"seed"`);
//! [`BenchLog::append`] adds or replaces one labelled entry, so re-running
//! under the same label is idempotent while distinct labels accumulate a
//! history. Rendering is deliberately line-per-row so the checked-in
//! artifacts stay reviewable in diffs.

use lb_telemetry::Json;

/// The label legacy top-level `rows` are filed under when an old-format
/// artifact is migrated.
const LEGACY_LABEL: &str = "seed";

/// One labelled measurement batch inside an artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Caller-chosen label (a machine, a date, `"seed"` for the checked-in
    /// baseline). Appending under an existing label replaces that entry.
    pub label: String,
    /// The measured rows, one JSON object per grid point.
    pub rows: Vec<Json>,
}

/// A parsed, schema-valid `BENCH_*.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchLog {
    /// Benchmark identifier (`"payment_scaling"`, `"audit_overhead"`, …).
    pub bench: String,
    /// Unit of the numeric columns.
    pub unit: String,
    /// Labelled entries, in append order.
    pub entries: Vec<BenchEntry>,
}

fn required_str(doc: &Json, key: &str) -> Result<String, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("bench log: missing string field {key:?}"))
}

fn validate_rows(rows: &[Json]) -> Result<(), String> {
    for (i, row) in rows.iter().enumerate() {
        let Json::Obj(fields) = row else {
            return Err(format!("bench log: row {i} is not an object"));
        };
        if fields.is_empty() {
            return Err(format!("bench log: row {i} is empty"));
        }
        if let Some((key, _)) = fields
            .iter()
            .find(|(_, v)| matches!(v, Json::Num(n) if !n.is_finite()))
        {
            return Err(format!("bench log: row {i} field {key:?} is not finite"));
        }
    }
    Ok(())
}

impl BenchLog {
    /// A new, empty log.
    #[must_use]
    pub fn new(bench: impl Into<String>, unit: impl Into<String>) -> Self {
        BenchLog {
            bench: bench.into(),
            unit: unit.into(),
            entries: Vec::new(),
        }
    }

    /// Parses and validates an artifact, migrating the legacy top-level
    /// `rows` form into a single `LEGACY_LABEL` (`"seed"`) entry.
    ///
    /// # Errors
    /// Describes the first schema problem found.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text).map_err(|e| format!("bench log: {e:?}"))?;
        let bench = required_str(&doc, "bench")?;
        let unit = required_str(&doc, "unit")?;
        let mut entries = Vec::new();
        if let Some(list) = doc.get("entries") {
            let list = list
                .as_array()
                .ok_or("bench log: \"entries\" is not an array")?;
            for (i, entry) in list.iter().enumerate() {
                let label = required_str(entry, "label").map_err(|e| format!("{e} (entry {i})"))?;
                if label.is_empty() {
                    return Err(format!("bench log: entry {i} has an empty label"));
                }
                if entries.iter().any(|e: &BenchEntry| e.label == label) {
                    return Err(format!("bench log: duplicate label {label:?}"));
                }
                let rows = entry
                    .get("rows")
                    .and_then(Json::as_array)
                    .ok_or_else(|| format!("bench log: entry {i} has no \"rows\" array"))?
                    .to_vec();
                validate_rows(&rows)?;
                entries.push(BenchEntry { label, rows });
            }
        } else if let Some(rows) = doc.get("rows").and_then(Json::as_array) {
            let rows = rows.to_vec();
            validate_rows(&rows)?;
            entries.push(BenchEntry {
                label: LEGACY_LABEL.to_string(),
                rows,
            });
        } else {
            return Err("bench log: neither \"entries\" nor legacy \"rows\" present".into());
        }
        Ok(BenchLog {
            bench,
            unit,
            entries,
        })
    }

    /// Appends one labelled batch, replacing any existing entry with the
    /// same label (idempotent re-runs).
    ///
    /// # Errors
    /// Rejects empty labels and malformed rows.
    pub fn append(&mut self, label: impl Into<String>, rows: Vec<Json>) -> Result<(), String> {
        let label = label.into();
        if label.is_empty() {
            return Err("bench log: empty label".into());
        }
        validate_rows(&rows)?;
        if let Some(existing) = self.entries.iter_mut().find(|e| e.label == label) {
            existing.rows = rows;
        } else {
            self.entries.push(BenchEntry { label, rows });
        }
        Ok(())
    }

    /// Renders the artifact, one row per line for reviewable diffs.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"bench\": {},\n  \"unit\": {},\n  \"entries\": [\n",
            Json::Str(self.bench.clone()).render(),
            Json::Str(self.unit.clone()).render()
        ));
        for (i, entry) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"label\": {}, \"rows\": [\n",
                Json::Str(entry.label.clone()).render()
            ));
            for (k, row) in entry.rows.iter().enumerate() {
                out.push_str(&format!(
                    "      {}{}\n",
                    row.render(),
                    if k + 1 < entry.rows.len() { "," } else { "" }
                ));
            }
            out.push_str(&format!(
                "    ]}}{}\n",
                if i + 1 < self.entries.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Loads `path` (tolerating a missing file), appends `rows` under `label`,
/// and writes the artifact back — the one-call form the experiments targets
/// use.
///
/// # Errors
/// Propagates schema violations, a bench/unit mismatch with an existing
/// artifact, and I/O failures.
pub fn append_to_file(
    path: &str,
    bench: &str,
    unit: &str,
    label: &str,
    rows: Vec<Json>,
) -> Result<(), String> {
    let mut log = match std::fs::read_to_string(path) {
        Ok(text) => {
            let log = BenchLog::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            if log.bench != bench || log.unit != unit {
                return Err(format!(
                    "{path}: artifact is {:?}/{:?}, refusing to append {bench:?}/{unit:?}",
                    log.bench, log.unit
                ));
            }
            log
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => BenchLog::new(bench, unit),
        Err(e) => return Err(format!("read {path}: {e}")),
    };
    log.append(label, rows)?;
    std::fs::write(path, log.render()).map_err(|e| format!("write {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(n: f64) -> Json {
        Json::obj([("n", Json::Num(n)), ("ns", Json::Num(10.0 * n))])
    }

    #[test]
    fn render_parse_round_trips() {
        let mut log = BenchLog::new("payment_scaling", "ns/settle-phase");
        log.append("seed", vec![row(64.0), row(256.0)]).unwrap();
        log.append("ci", vec![row(1024.0)]).unwrap();
        let text = log.render();
        let reparsed = BenchLog::parse(&text).unwrap();
        assert_eq!(reparsed, log);
        // Line-per-row layout: every row starts its own line.
        assert!(text
            .lines()
            .any(|l| l.trim_start().starts_with("{\"n\":64")));
    }

    #[test]
    fn legacy_rows_migrate_under_the_seed_label() {
        let legacy = r#"{"bench": "payment_scaling", "unit": "ns", "rows": [{"n": 64}]}"#;
        let log = BenchLog::parse(legacy).unwrap();
        assert_eq!(log.entries.len(), 1);
        assert_eq!(log.entries[0].label, LEGACY_LABEL);
        assert_eq!(log.entries[0].rows.len(), 1);
    }

    #[test]
    fn same_label_replaces_distinct_labels_accumulate() {
        let mut log = BenchLog::new("b", "u");
        log.append("a", vec![row(1.0)]).unwrap();
        log.append("a", vec![row(2.0), row(3.0)]).unwrap();
        log.append("b", vec![row(4.0)]).unwrap();
        assert_eq!(log.entries.len(), 2);
        assert_eq!(log.entries[0].rows.len(), 2);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(BenchLog::parse("{}").is_err());
        assert!(BenchLog::parse(r#"{"bench": "b", "unit": "u"}"#).is_err());
        assert!(
            BenchLog::parse(r#"{"bench": "b", "unit": "u", "entries": [{"label": ""}]}"#).is_err()
        );
        assert!(BenchLog::parse(
            r#"{"bench": "b", "unit": "u", "entries": [
                {"label": "x", "rows": [1]}]}"#
        )
        .is_err());
        assert!(BenchLog::parse(
            r#"{"bench": "b", "unit": "u", "entries": [
                {"label": "x", "rows": []}, {"label": "x", "rows": []}]}"#
        )
        .is_err());
        let mut log = BenchLog::new("b", "u");
        assert!(log.append("", vec![]).is_err());
        assert!(log
            .append("x", vec![Json::obj([("v", Json::Num(f64::NAN))])])
            .is_err());
    }

    #[test]
    fn the_checked_in_payment_artifact_parses() {
        let text = include_str!("../../../BENCH_payment.json");
        let log = BenchLog::parse(text).unwrap();
        assert_eq!(log.bench, "payment_scaling");
        assert!(!log.entries.is_empty());
        assert!(log.entries[0].rows.iter().all(|r| r.get("n").is_some()));
    }
}
