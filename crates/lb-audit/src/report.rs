//! The per-round monitor report: what was checked, what held, what didn't.
//!
//! One [`MonitorReport`] is produced each time the
//! [`InvariantMonitor`](crate::monitor::InvariantMonitor) is handed a
//! settled round. Reports serialise to one JSON
//! object per line through the workspace's own
//! [`Json`] model — the same JSONL discipline the
//! telemetry exporters use — so a session's verification history is a
//! greppable, re-parseable sidecar file, and the recovery tests can assert
//! a replayed round reports **bit-identically** to the uninterrupted one.

use lb_telemetry::Json;
use std::collections::BTreeMap;

/// One evaluated invariant check.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckOutcome {
    /// Stable check name (`conservation`, `feasibility`, `exclusion`,
    /// `total`, `floor`, `drift`, `margin`).
    pub name: &'static str,
    /// Whether the invariant held.
    pub ok: bool,
    /// The check's witness value: residual for conservation/total, minimum
    /// rate for feasibility, worst excess for exclusion/floor, maximum
    /// relative drift, minimum probed margin.
    pub value: f64,
}

/// The verification verdict for one settled round.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorReport {
    /// Round index.
    pub round: u64,
    /// Machines in the round (respondents + excluded + silent).
    pub machines: usize,
    /// Machines that bid and were not excluded.
    pub respondents: usize,
    /// Whether every respondent's execution value matched its bid — the
    /// observable premise of Theorems 3.1/3.2, gating the floor and margin
    /// checks.
    pub consistent: bool,
    /// Every check evaluated this round, in evaluation order. Sampled
    /// checks (`drift`, `margin`) appear only on sampled rounds.
    pub checks: Vec<CheckOutcome>,
    /// Human-readable description of each violation (empty when clean).
    pub violations: Vec<String>,
}

impl MonitorReport {
    /// Whether every evaluated check held.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.violations.is_empty() && self.checks.iter().all(|c| c.ok)
    }

    /// The outcome of the named check, if it was evaluated this round.
    #[must_use]
    pub fn check(&self, name: &str) -> Option<&CheckOutcome> {
        self.checks.iter().find(|c| c.name == name)
    }

    /// Serialises to a [`Json`] object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut obj = BTreeMap::new();
        #[allow(clippy::cast_precision_loss)]
        obj.insert("round".to_string(), Json::Num(self.round as f64));
        #[allow(clippy::cast_precision_loss)]
        obj.insert("machines".to_string(), Json::Num(self.machines as f64));
        #[allow(clippy::cast_precision_loss)]
        obj.insert(
            "respondents".to_string(),
            Json::Num(self.respondents as f64),
        );
        obj.insert("consistent".to_string(), Json::Bool(self.consistent));
        obj.insert("ok".to_string(), Json::Bool(self.ok()));
        let checks = self
            .checks
            .iter()
            .map(|c| {
                let mut check = BTreeMap::new();
                check.insert("name".to_string(), Json::Str(c.name.to_string()));
                check.insert("ok".to_string(), Json::Bool(c.ok));
                check.insert("value".to_string(), Json::Num(c.value));
                Json::Obj(check)
            })
            .collect();
        obj.insert("checks".to_string(), Json::Arr(checks));
        obj.insert(
            "violations".to_string(),
            Json::Arr(
                self.violations
                    .iter()
                    .map(|v| Json::Str(v.clone()))
                    .collect(),
            ),
        );
        Json::Obj(obj)
    }

    /// Rebuilds a report from [`MonitorReport::to_json`] output.
    ///
    /// Returns `None` on structurally foreign documents. Check names are
    /// interned back to the monitor's static vocabulary; an unknown name
    /// rejects the document (it cannot round-trip as `&'static str`).
    #[must_use]
    pub fn from_json(json: &Json) -> Option<MonitorReport> {
        const NAMES: [&str; 7] = [
            "conservation",
            "feasibility",
            "exclusion",
            "total",
            "floor",
            "drift",
            "margin",
        ];
        let round = json.get("round")?.as_u64()?;
        let machines = usize::try_from(json.get("machines")?.as_u64()?).ok()?;
        let respondents = usize::try_from(json.get("respondents")?.as_u64()?).ok()?;
        let consistent = json.get("consistent")?.as_bool()?;
        let mut checks = Vec::new();
        for check in json.get("checks")?.as_array()? {
            let name = check.get("name")?.as_str()?;
            let name = NAMES.iter().find(|&&k| k == name)?;
            checks.push(CheckOutcome {
                name,
                ok: check.get("ok")?.as_bool()?,
                value: check.get("value")?.as_f64()?,
            });
        }
        let mut violations = Vec::new();
        for v in json.get("violations")?.as_array()? {
            violations.push(v.as_str()?.to_string());
        }
        Some(MonitorReport {
            round,
            machines,
            respondents,
            consistent,
            checks,
            violations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MonitorReport {
        MonitorReport {
            round: 7,
            machines: 5,
            respondents: 4,
            consistent: true,
            checks: vec![
                CheckOutcome {
                    name: "conservation",
                    ok: true,
                    value: 1.1e-13,
                },
                CheckOutcome {
                    name: "margin",
                    ok: false,
                    value: -0.25,
                },
            ],
            violations: vec!["margin: round 7 agent 2 margin -0.25".to_string()],
        }
    }

    #[test]
    fn jsonl_round_trip_is_exact() {
        let report = sample();
        let line = report.to_json().render();
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(MonitorReport::from_json(&parsed), Some(report));
    }

    #[test]
    fn ok_reflects_checks_and_violations() {
        let mut report = sample();
        assert!(!report.ok());
        report.checks[1].ok = true;
        report.violations.clear();
        assert!(report.ok());
    }

    #[test]
    fn foreign_documents_are_rejected() {
        assert_eq!(MonitorReport::from_json(&Json::Null), None);
        let mut report = sample();
        report.checks[0].name = "conservation";
        let line = report.to_json().render().replace("conservation", "bogus");
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(MonitorReport::from_json(&parsed), None);
    }

    #[test]
    fn check_lookup_finds_outcomes() {
        let report = sample();
        assert!(report.check("conservation").unwrap().ok);
        assert!(!report.check("margin").unwrap().ok);
        assert!(report.check("drift").is_none());
    }
}
