//! Verification-observability integration: the `lb-audit` stack against a
//! real protocol session.
//!
//! * **Inertness** — attaching the [`InvariantMonitor`] must not change the
//!   session outcome (payments, journal bytes) *or* the underlying
//!   telemetry stream: the forwarded events are exactly the unmonitored
//!   events plus `audit.*` re-emissions.
//! * **Clean rounds are clean** — an honest multi-round durable session
//!   produces zero violations and a ledger that verifies intact, one seal
//!   per round.
//! * **Exposition round-trip** — publishing the monitor + ledger verdict
//!   renders valid `/invariants` and `/health` documents carrying the
//!   chain head.

use lbmv::audit::{health_json, invariants_json, publish, verify_ledger};
use lbmv::audit::{InvariantMonitor, MonitorConfig};
use lbmv::mechanism::CompensationBonusMechanism;
use lbmv::proto::{
    run_chaos_session, ChaosConfig, ChaosSessionConfig, CrashPlan, Journal, NodeSpec, Observers,
    ProtocolConfig,
};
use lbmv::sim::driver::SimulationConfig;
use lbmv::sim::server::ServiceModel;
use lbmv::telemetry::{
    noop_collector, to_jsonl, Collector, Exposition, Json, RingCollector, Subsystem,
};
use std::sync::Arc;

const RATE: f64 = 9.0;
const TRUES: [f64; 3] = [1.0, 1.5, 2.0];
const ROUNDS: usize = 3;

fn sim() -> SimulationConfig {
    SimulationConfig {
        horizon: 50.0,
        seed: 42,
        model: ServiceModel::StationaryDeterministic,
        workload: Default::default(),
        warmup: 0.0,
        estimator: Default::default(),
    }
}

fn protocol_config() -> ProtocolConfig {
    ProtocolConfig {
        total_rate: RATE,
        link_latency: 0.001,
        simulation: sim(),
    }
}

fn specs() -> Vec<NodeSpec> {
    TRUES.iter().map(|&t| NodeSpec::truthful(t)).collect()
}

/// What a durable session leaves behind: its payment totals and journal.
struct Durable {
    cumulative_payments: Vec<f64>,
    journal_bytes: Vec<u8>,
}

fn run_session(collector: Arc<dyn Collector>) -> Durable {
    let journal = CrashPlan::none().journal(Vec::new());
    let report = run_chaos_session(
        &CompensationBonusMechanism::paper(),
        &protocol_config(),
        &ChaosSessionConfig::new(ROUNDS as u32, ChaosConfig::reliable(2)),
        |_, _| specs(),
        &Observers {
            collector,
            ..Observers::default()
        },
        Some(&journal),
    )
    .unwrap();
    let journal_bytes = journal.borrow().bytes().unwrap();
    Durable {
        cumulative_payments: report.cumulative_payments,
        journal_bytes,
    }
}

#[test]
fn monitor_is_inert_on_outcome_and_stream() {
    // Arm 1: no monitor at all.
    let detached = run_session(noop_collector());
    let plain_ring = Arc::new(RingCollector::new(1 << 16));
    let plain = run_session(plain_ring.clone() as Arc<dyn Collector>);

    // Arm 2: monitor interposed between the session and the same ring.
    let ring = Arc::new(RingCollector::new(1 << 16));
    let monitor = Arc::new(InvariantMonitor::new(
        ring.clone() as Arc<dyn Collector>,
        MonitorConfig::default(),
    ));
    let monitored = run_session(monitor.clone() as Arc<dyn Collector>);

    // Outcome is bit-identical whether the monitor observes or not.
    for i in 0..TRUES.len() {
        assert_eq!(
            monitored.cumulative_payments[i].to_bits(),
            detached.cumulative_payments[i].to_bits(),
            "machine {i}"
        );
        assert_eq!(
            monitored.cumulative_payments[i].to_bits(),
            plain.cumulative_payments[i].to_bits(),
            "machine {i}"
        );
    }
    assert_eq!(monitored.journal_bytes, detached.journal_bytes);
    assert_eq!(monitored.journal_bytes, plain.journal_bytes);

    // Stream is additive-only: events minus `audit.*` re-emissions are
    // exactly the unmonitored stream (JSONL form, so bit-for-bit).
    let forwarded: Vec<_> = ring
        .snapshot()
        .into_iter()
        .filter(|e| e.cat != Subsystem::Audit)
        .collect();
    assert_eq!(to_jsonl(&forwarded), to_jsonl(&plain_ring.snapshot()));
    // And the monitor really did watch: one report per settled round.
    assert_eq!(monitor.stats().rounds as usize, ROUNDS);
}

#[test]
fn honest_session_verifies_clean_end_to_end() {
    let monitor = Arc::new(InvariantMonitor::new(
        noop_collector(),
        MonitorConfig::default(),
    ));
    let report = run_session(monitor.clone() as Arc<dyn Collector>);

    let stats = monitor.stats();
    assert_eq!(stats.rounds as usize, ROUNDS);
    assert_eq!(stats.total_violations(), 0, "{stats:?}");
    assert!(monitor.latest_report().is_some_and(|r| r.ok()));
    // Truthful consistent rounds sit on a strictly positive margin.
    assert!(stats.min_margin.is_some_and(|m| m > 0.0), "{stats:?}");

    let verdict = verify_ledger(&report.journal_bytes);
    assert!(verdict.is_intact(), "{verdict:?}");
    assert_eq!(verdict.seals, ROUNDS, "one seal per round");
    assert_eq!(verdict.undecodable, 0);
    assert_eq!(verdict.truncated_tail, 0);

    // A tampered byte (CRC left stale) still fails verification, through
    // the frame checksum rather than the chain.
    let mut bytes = report.journal_bytes.clone();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    let tampered = verify_ledger(&bytes);
    assert!(
        !tampered.is_intact() || tampered.records < verdict.records,
        "{tampered:?}"
    );
}

#[test]
fn exposition_documents_round_trip() {
    let monitor = Arc::new(InvariantMonitor::new(
        noop_collector(),
        MonitorConfig::default(),
    ));
    let report = run_session(monitor.clone() as Arc<dyn Collector>);
    let verdict = verify_ledger(&report.journal_bytes);

    let exposition = Exposition::new();
    publish(&exposition, &monitor, Some(&verdict));

    let health = Json::parse(exposition.health_text().trim()).unwrap();
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    let ledger = health.get("ledger").unwrap();
    assert_eq!(ledger.get("intact").unwrap().as_bool(), Some(true));
    let head = ledger.get("head").unwrap().as_str().unwrap().to_string();
    assert!(head.starts_with("0x") && head.len() == 18, "{head}");
    assert_eq!(head, format!("{:#018x}", verdict.head));

    let invariants = Json::parse(exposition.invariants_text().trim()).unwrap();
    assert_eq!(
        invariants.get("rounds").unwrap().as_u64(),
        Some(ROUNDS as u64)
    );
    let latest = invariants.get("latest").unwrap();
    assert_eq!(latest.get("consistent").unwrap().as_bool(), Some(true));

    // The pure builders agree with what was published.
    let stats = monitor.stats();
    assert_eq!(
        invariants_json(&stats, monitor.latest_report().as_ref()).render() + "\n",
        exposition.invariants_text()
    );
    assert_eq!(
        health_json(&stats, Some(&verdict)).render() + "\n",
        exposition.health_text()
    );
}
