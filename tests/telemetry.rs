//! End-to-end observability: a chaotic session recorded by a ring collector
//! must export losslessly, replay cleanly, and agree with the protocol's own
//! message accounting — while the default noop collector changes nothing.
//! Every driver keeps one clock per recording: spans nest in time, and the
//! verification simulation's clock never enters it.

use lbmv::core::scenario::{paper_true_values, PAPER_ARRIVAL_RATE};
use lbmv::mechanism::CompensationBonusMechanism;
use lbmv::proto::audit::{audit_broadcast_cost, SettlementRecord};
use lbmv::proto::chaos::ChaosConfig;
use lbmv::proto::session::{run_chaos_session, ChaosSessionConfig, ChaosSessionReport};
use lbmv::proto::{
    encode, run_round, NodeSpec, Observers, OnlineApplied, OnlineEvent, OnlineSession,
    ProtocolConfig, RoundSpec, Transport,
};
use lbmv::sim::driver::SimulationConfig;
use lbmv::sim::server::ServiceModel;
use lbmv::telemetry::{
    from_jsonl, replay_spans, to_chrome_trace, to_jsonl, Json, MetricsRegistry, RingCollector,
    Subsystem, TelemetryEvent, TRAILER_LEN,
};
use std::sync::Arc;

fn paper_config(seed: u64) -> ProtocolConfig {
    ProtocolConfig {
        total_rate: PAPER_ARRIVAL_RATE,
        link_latency: 0.001,
        simulation: SimulationConfig {
            horizon: 300.0,
            seed,
            model: ServiceModel::StationaryDeterministic,
            workload: Default::default(),
            warmup: 0.0,
            estimator: Default::default(),
        },
    }
}

fn truthful_specs() -> Vec<NodeSpec> {
    paper_true_values()
        .iter()
        .map(|&t| NodeSpec::truthful(t))
        .collect()
}

/// Runs a 3-round heavy-chaos session on the paper system, recording into a
/// fresh ring, and returns the report plus the recording.
fn recorded_session(seed: u64) -> (ChaosSessionReport, Vec<TelemetryEvent>) {
    let session = ChaosSessionConfig::new(3, ChaosConfig::heavy(seed));
    let ring = Arc::new(RingCollector::new(65_536));
    let report = run_chaos_session(
        &CompensationBonusMechanism::paper(),
        &paper_config(3),
        &session,
        |_, _| truthful_specs(),
        &Observers {
            collector: ring.clone(),
            ..Observers::default()
        },
        None,
    )
    .unwrap();
    assert_eq!(ring.overwritten(), 0, "ring too small for the session");
    (report, ring.snapshot())
}

#[test]
fn chaos_session_recording_replays_and_matches_the_wire() {
    let (report, events) = recorded_session(7);
    assert_eq!(report.aborted_rounds, 0, "seed 7 should settle every round");

    // The JSONL export is lossless, and the reloaded recording's span
    // nesting replays cleanly: every phase span closed inside its round.
    let reloaded = from_jsonl(&to_jsonl(&events)).unwrap();
    assert_eq!(reloaded, events);
    let spans = replay_spans(&reloaded).unwrap();
    assert_eq!(spans.iter().filter(|s| s.name == "round").count(), 3);
    assert!(spans
        .iter()
        .any(|s| s.name == "phase.collect_bids" && s.depth == 1));

    // The metrics derived from the recording agree with the protocol's own
    // accounting — every send attempt, drops included, on both sides.
    let mut reg = MetricsRegistry::new();
    reg.ingest(&reloaded);
    assert_eq!(reg.counter("net.messages"), report.total_messages);
    assert_eq!(reg.counter("net.bytes"), report.total_bytes);
    assert_eq!(reg.counter("anomaly.total"), report.anomalies.total());
}

#[test]
fn audit_broadcast_counters_match_the_audit_cost() {
    let (report, events) = recorded_session(7);
    let last = report
        .rounds
        .last()
        .and_then(|r| r.settled())
        .expect("settled round");
    let record = SettlementRecord {
        bids: truthful_specs().iter().map(|s| s.bid).collect(),
        estimated_exec_values: last.outcome.estimated_exec_values.clone(),
        total_rate: PAPER_ARRIVAL_RATE,
        claimed_payments: last.outcome.payments.clone(),
    };

    // The audit broadcast costs one encoded record per machine, on top of
    // the control plane the recording accounts for.
    let n = record.bids.len();
    let stats = audit_broadcast_cost(&record, n);
    assert_eq!(stats.messages, n as u64);
    assert_eq!(stats.bytes, n as u64 * encode(&record).len() as u64);

    let mut reg = MetricsRegistry::new();
    reg.ingest(&events);
    assert_eq!(reg.counter("net.messages"), report.total_messages);
}

#[test]
fn chrome_trace_export_is_valid_json() {
    let (_, events) = recorded_session(7);
    let trace = to_chrome_trace(&events).unwrap();
    // The JSON Object Format: `{"traceEvents": [...], "displayTimeUnit": ..}`.
    let json = Json::parse(&trace).unwrap();
    match json.get("traceEvents") {
        Some(Json::Arr(entries)) => assert!(!entries.is_empty(), "trace should carry events"),
        other => panic!("chrome trace must carry a traceEvents array, got {other:?}"),
    }
}

#[test]
fn recording_a_session_does_not_change_its_outcome() {
    let mechanism = CompensationBonusMechanism::paper();
    let config = paper_config(3);
    let session = ChaosSessionConfig::new(3, ChaosConfig::heavy(7));

    let run = |observers: &Observers| {
        run_chaos_session(
            &mechanism,
            &config,
            &session,
            |_, _| truthful_specs(),
            observers,
            None,
        )
        .unwrap()
    };
    let plain = run(&Observers::default());
    let observed = run(&Observers {
        collector: Arc::new(RingCollector::new(65_536)),
        ..Observers::default()
    });

    assert_eq!(plain.total_messages, observed.total_messages);
    assert_eq!(plain.total_retries, observed.total_retries);
    assert_eq!(plain.anomalies, observed.anomalies);
    for (a, b) in plain.rounds.iter().zip(&observed.rounds) {
        match (a.settled(), b.settled()) {
            (Some(ra), Some(rb)) => {
                assert_eq!(ra.outcome.payments, rb.outcome.payments);
                assert_eq!(ra.outcome.rates, rb.outcome.rates);
                // Recording samples every round, so each frame carries one
                // trace-context trailer inside its payload: the same frames,
                // each exactly TRAILER_LEN bytes longer.
                assert_eq!(ra.outcome.stats.messages, rb.outcome.stats.messages);
                assert_eq!(
                    rb.outcome.stats.bytes,
                    ra.outcome.stats.bytes + TRAILER_LEN as u64 * ra.outcome.stats.messages
                );
            }
            (None, None) => {}
            _ => panic!("settlement pattern diverged under observation"),
        }
    }
}

/// One round's recording keeps the protocol clock: it holds no simulator
/// event, verification shows as one `verify` instant, and every span lies
/// within its parent's `[start, end]`.
fn assert_clock_discipline(label: &str, events: &[TelemetryEvent]) {
    assert!(
        events.iter().all(|e| e.cat != Subsystem::Sim),
        "{label}: simulator event recorded"
    );
    let verify = events.iter().filter(|e| e.name == "verify").count();
    assert_eq!(verify, 1, "{label}: one verify instant");
    let spans = replay_spans(events).unwrap();
    for span in &spans {
        let Some(id) = span.parent else { continue };
        let parent = spans
            .iter()
            .find(|p| p.id == id)
            .unwrap_or_else(|| panic!("{label}: {} has an unrecorded parent", span.name));
        assert!(
            parent.start <= span.start && span.end <= parent.end,
            "{label}: {} [{}, {}] escapes {} [{}, {}]",
            span.name,
            span.start,
            span.end,
            parent.name,
            parent.start,
            parent.end
        );
    }
}

#[test]
fn every_driver_keeps_verification_off_the_span_clock() {
    let mechanism = CompensationBonusMechanism::paper();
    let specs = truthful_specs();
    let record = |transport| {
        let ring = Arc::new(RingCollector::new(65_536));
        run_round(&RoundSpec {
            transport,
            observers: Observers {
                collector: ring.clone(),
                ..Observers::default()
            },
            ..RoundSpec::new(&mechanism, &specs, paper_config(3))
        })
        .unwrap();
        assert_eq!(ring.overwritten(), 0);
        ring.snapshot()
    };
    for (label, transport) in [
        ("reliable", Transport::Reliable),
        ("chaos", Transport::Chaos(ChaosConfig::heavy(7))),
        ("sharded k = 1", Transport::Sharded { shards: 1 }),
        ("sharded k = 4", Transport::Sharded { shards: 4 }),
    ] {
        assert_clock_discipline(label, &record(transport));
    }

    let ring = Arc::new(RingCollector::new(65_536));
    let mut session = OnlineSession::new(&mechanism, paper_config(3))
        .unwrap()
        .with_collector(ring.clone());
    for (machine, &spec) in specs.iter().enumerate() {
        session.apply(OnlineEvent::Join { machine, spec }).unwrap();
    }
    let tick = session.apply(OnlineEvent::RoundTick).unwrap();
    assert!(matches!(tick, OnlineApplied::Settled(_)));
    assert_clock_discipline("online tick", &ring.snapshot());
}
