//! Verification-health documents.
//!
//! Renders the monitor's cumulative state and the ledger verdict into two
//! JSON documents: `invariants` (per-check detail of the latest round plus
//! cumulative counts) and `health` (one-line verdict: `ok` / `violating` /
//! `tampered`, plus the ledger chain head so an operator who archives it
//! holds an out-of-band copy — the piece that upgrades the
//! non-cryptographic chain from self-consistency to tamper evidence).

use crate::ledger::LedgerVerdict;
use crate::monitor::MonitorStats;
use crate::report::MonitorReport;
use lb_telemetry::Json;
use std::collections::BTreeMap;

#[allow(clippy::cast_precision_loss)]
fn num_u64(value: u64) -> Json {
    Json::Num(value as f64)
}

/// The `invariants` document: cumulative check statistics and the latest
/// round's full report.
#[must_use]
pub fn invariants_json(stats: &MonitorStats, latest: Option<&MonitorReport>) -> Json {
    let mut obj = BTreeMap::new();
    obj.insert("rounds".to_string(), num_u64(stats.rounds));
    obj.insert(
        "violating_rounds".to_string(),
        num_u64(stats.violating_rounds),
    );
    let mut violations = BTreeMap::new();
    for (&name, &count) in &stats.violations {
        violations.insert(name.to_string(), num_u64(count));
    }
    obj.insert("violations".to_string(), Json::Obj(violations));
    obj.insert(
        "min_margin".to_string(),
        stats.min_margin.map_or(Json::Null, Json::Num),
    );
    obj.insert(
        "max_drift".to_string(),
        stats.max_drift.map_or(Json::Null, Json::Num),
    );
    obj.insert(
        "latest".to_string(),
        latest.map_or(Json::Null, MonitorReport::to_json),
    );
    Json::Obj(obj)
}

/// The `health` document: an overall status string, headline counters and
/// the ledger chain state.
///
/// Status is `tampered` if a ledger verdict shows a seal divergence,
/// otherwise `violating` if any monitored round violated an invariant,
/// otherwise `ok`.
#[must_use]
pub fn health_json(stats: &MonitorStats, ledger: Option<&LedgerVerdict>) -> Json {
    let status = if ledger.is_some_and(|v| !v.is_intact()) {
        "tampered"
    } else if stats.violating_rounds > 0 {
        "violating"
    } else {
        "ok"
    };
    let mut obj = BTreeMap::new();
    obj.insert("status".to_string(), Json::Str(status.to_string()));
    obj.insert("rounds".to_string(), num_u64(stats.rounds));
    obj.insert("violations".to_string(), num_u64(stats.total_violations()));
    obj.insert(
        "min_margin".to_string(),
        stats.min_margin.map_or(Json::Null, Json::Num),
    );
    obj.insert(
        "last_round".to_string(),
        stats.last_round.map_or(Json::Null, num_u64),
    );
    let ledger_doc = ledger.map_or(Json::Null, |verdict| {
        let mut doc = BTreeMap::new();
        doc.insert(
            "head".to_string(),
            Json::Str(format!("{:#018x}", verdict.head)),
        );
        doc.insert("records".to_string(), num_u64(verdict.records as u64));
        doc.insert("seals".to_string(), num_u64(verdict.seals as u64));
        doc.insert("intact".to_string(), Json::Bool(verdict.is_intact()));
        doc.insert(
            "truncated_tail".to_string(),
            num_u64(verdict.truncated_tail as u64),
        );
        if let Some(div) = verdict.divergence {
            let mut at = BTreeMap::new();
            at.insert("record".to_string(), num_u64(div.record_index as u64));
            at.insert("offset".to_string(), num_u64(div.offset as u64));
            at.insert("seal".to_string(), num_u64(div.seal_index as u64));
            doc.insert("divergence".to_string(), Json::Obj(at));
        }
        Json::Obj(doc)
    });
    obj.insert("ledger".to_string(), ledger_doc);
    Json::Obj(obj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::LedgerDivergence;

    fn stats() -> MonitorStats {
        let mut stats = MonitorStats {
            rounds: 12,
            violating_rounds: 1,
            min_margin: Some(0.25),
            max_drift: Some(3.0e-13),
            last_round: Some(11),
            ..MonitorStats::default()
        };
        stats.violations.insert("drift", 1);
        stats
    }

    #[test]
    fn health_status_escalates() {
        let clean = MonitorStats::default();
        assert_eq!(
            health_json(&clean, None).get("status").unwrap().as_str(),
            Some("ok")
        );
        assert_eq!(
            health_json(&stats(), None).get("status").unwrap().as_str(),
            Some("violating")
        );
        let tampered = LedgerVerdict {
            records: 9,
            seals: 1,
            undecodable: 0,
            head: 0xDEAD,
            truncated_tail: 0,
            divergence: Some(LedgerDivergence {
                record_index: 8,
                offset: 200,
                seal_index: 0,
                expected: 1,
                found: 2,
            }),
        };
        let doc = health_json(&stats(), Some(&tampered));
        assert_eq!(doc.get("status").unwrap().as_str(), Some("tampered"));
        let ledger = doc.get("ledger").unwrap();
        assert_eq!(ledger.get("intact").unwrap().as_bool(), Some(false));
        assert_eq!(
            ledger
                .get("divergence")
                .unwrap()
                .get("offset")
                .unwrap()
                .as_u64(),
            Some(200)
        );
    }

    #[test]
    fn documents_are_valid_json() {
        let doc = invariants_json(&stats(), None).render();
        let parsed = Json::parse(&doc).unwrap();
        assert_eq!(parsed.get("rounds").unwrap().as_u64(), Some(12));
        assert_eq!(parsed.get("latest"), Some(&Json::Null));
        assert_eq!(
            parsed
                .get("violations")
                .unwrap()
                .get("drift")
                .unwrap()
                .as_u64(),
            Some(1)
        );
    }

    #[test]
    fn ledger_head_renders_as_fixed_width_hex() {
        let verdict = LedgerVerdict {
            records: 1,
            seals: 0,
            undecodable: 0,
            head: 0xABC,
            truncated_tail: 0,
            divergence: None,
        };
        let doc = health_json(&MonitorStats::default(), Some(&verdict));
        assert_eq!(
            doc.get("ledger").unwrap().get("head").unwrap().as_str(),
            Some("0x0000000000000abc")
        );
    }
}
