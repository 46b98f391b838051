//! Crash-recovery integration: the durable round journal end to end.
//!
//! * a file-backed journal recovered from **every byte prefix** (the CI
//!   journal-truncation smoke test) finishes the round bit-identically;
//! * a durable chaos session killed at pseudo-random byte offsets settles
//!   the same rounds and pays the same totals as an uninterrupted run;
//! * quarantine state crosses simulated process generations through the
//!   journal alone.

use lbmv::audit::{InvariantMonitor, MonitorConfig};
use lbmv::mechanism::CompensationBonusMechanism;
use lbmv::proto::{
    read_journal, recover_round, run_chaos_session, ChaosConfig, ChaosSessionConfig,
    ChaosSessionReport, Coordinator, CoordinatorPhase, CrashPlan, FileJournal, Journal, MemJournal,
    Message, NodeSpec, Observers, ProtocolConfig, RoundContext, RoundId,
};
use lbmv::sim::driver::SimulationConfig;
use lbmv::sim::server::ServiceModel;
use lbmv::telemetry::{noop_collector, replay_spans, Collector, RingCollector};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const RATE: f64 = 9.0;
const TRUES: [f64; 3] = [1.0, 1.5, 2.0];

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

fn ctx() -> RoundContext {
    RoundContext {
        n: TRUES.len(),
        total_rate: RATE,
        round: RoundId(0),
        sim: sim(),
    }
}

/// A collision-free temp path (no tempfile dependency).
fn temp_wal(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "lbmv-recovery-{}-{}-{}.wal",
        std::process::id(),
        tag,
        unique
    ))
}

/// Feeds every missing bid and pending ack until the round settles, then
/// seals. Mirrors what a reliable driver does after `resume`.
fn finish(c: &mut Coordinator<'_>) {
    let round = RoundId(0);
    c.resume(&TRUES).unwrap();
    if c.phase() == CoordinatorPhase::CollectingBids {
        for (m, &value) in TRUES.iter().enumerate() {
            c.handle(
                &Message::Bid {
                    round,
                    machine: m as u32,
                    value,
                },
                &TRUES,
            )
            .unwrap();
        }
    }
    if c.phase() == CoordinatorPhase::Executing {
        for m in 0..TRUES.len() as u32 {
            c.handle(&Message::ExecutionDone { round, machine: m }, &TRUES)
                .unwrap();
        }
    }
    c.seal().unwrap();
}

/// Drives one journalled round to completion on a fresh file journal and
/// returns its bytes plus the settled payments.
fn record_round(path: &PathBuf) -> (Vec<u8>, Vec<f64>, Vec<f64>) {
    let mech = CompensationBonusMechanism::paper();
    let journal: Rc<RefCell<dyn Journal>> =
        Rc::new(RefCell::new(FileJournal::create(path).unwrap()));
    let mut c = Coordinator::try_new(&mech, TRUES.len(), RATE, RoundId(0), sim())
        .unwrap()
        .with_journal(Rc::clone(&journal));
    finish(&mut c);
    let rates: Vec<f64> = (0..TRUES.len())
        .map(|i| c.allocation().unwrap().rate(i))
        .collect();
    let payments = c.payments().unwrap().to_vec();
    let bytes = journal.borrow().bytes().unwrap();
    (bytes, rates, payments)
}

/// A durable session and the bytes its journal ends with.
struct Durable {
    report: ChaosSessionReport,
    journal_bytes: Vec<u8>,
}

fn durable(
    mech: &CompensationBonusMechanism,
    session: &ChaosSessionConfig,
    plan: &CrashPlan,
    initial_journal: Vec<u8>,
) -> Durable {
    let journal = plan.journal(initial_journal);
    let report = run_chaos_session(
        mech,
        &protocol_config(),
        session,
        |_, _| specs(),
        &Observers::default(),
        Some(&journal),
    )
    .unwrap();
    let journal_bytes = journal.borrow().bytes().unwrap();
    Durable {
        report,
        journal_bytes,
    }
}

#[test]
fn file_journal_recovers_from_every_byte_prefix() {
    let recorded = temp_wal("record");
    let (bytes, rates, payments) = record_round(&recorded);
    let mech = CompensationBonusMechanism::paper();

    for cut in 0..=bytes.len() {
        // Simulate a crash that left only the first `cut` bytes durable.
        let torn = temp_wal("torn");
        fs::write(&torn, &bytes[..cut]).unwrap();
        let (journal, _replay) = FileJournal::open(&torn).unwrap();
        let journal: Rc<RefCell<dyn Journal>> = Rc::new(RefCell::new(journal));
        let (mut c, _report) =
            recover_round(&mech, Rc::clone(&journal), &ctx(), noop_collector(), 0.0)
                .unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        finish(&mut c);
        for i in 0..TRUES.len() {
            assert_eq!(
                c.allocation().unwrap().rate(i).to_bits(),
                rates[i].to_bits(),
                "cut {cut} machine {i}"
            );
            assert_eq!(
                c.payments().unwrap()[i].to_bits(),
                payments[i].to_bits(),
                "cut {cut} machine {i}"
            );
        }
        fs::remove_file(&torn).ok();
    }
    fs::remove_file(&recorded).ok();
}

#[test]
fn recovered_rounds_re_emit_spans_and_bit_identical_monitor_reports() {
    // Reference: an uninterrupted round observed by a monitor, recording
    // the report it settles on and the span forest it emits.
    let mech = CompensationBonusMechanism::paper();
    let observe = || {
        let ring = Arc::new(RingCollector::new(1 << 14));
        let monitor = Arc::new(InvariantMonitor::new(
            ring.clone() as Arc<dyn Collector>,
            MonitorConfig::default(),
        ));
        (ring, monitor)
    };
    let (ring, monitor) = observe();
    let journal: Rc<RefCell<dyn Journal>> = Rc::new(RefCell::new(MemJournal::new()));
    let mut c = Coordinator::try_new(&mech, TRUES.len(), RATE, RoundId(0), sim())
        .unwrap()
        .with_journal(Rc::clone(&journal))
        .with_collector(monitor.clone() as Arc<dyn Collector>);
    finish(&mut c);
    c.end_telemetry();
    let bytes = journal.borrow().bytes().unwrap();
    let reference_report = monitor.latest_report().expect("reference round observed");
    let reference_line = reference_report.to_jsonl_line();
    let reference_spans: BTreeSet<String> = replay_spans(&ring.snapshot())
        .unwrap()
        .iter()
        .map(|s| s.name.clone())
        .collect();
    assert!(reference_spans.contains("round"));
    assert!(reference_spans.iter().any(|s| s.starts_with("phase.")));

    // Crash at every byte prefix short of the seal (a fully sealed round
    // is finished history — resume correctly re-emits nothing for it); the
    // recovered generation's monitor must settle on a bit-identical report,
    // and the re-emitted span forest must still replay with the round span
    // present.
    for cut in 0..bytes.len() {
        let torn: Rc<RefCell<dyn Journal>> =
            Rc::new(RefCell::new(MemJournal::from_bytes(bytes[..cut].to_vec())));
        let (ring, monitor) = observe();
        let (mut c, _report) = recover_round(
            &mech,
            Rc::clone(&torn),
            &ctx(),
            monitor.clone() as Arc<dyn Collector>,
            0.0,
        )
        .unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        finish(&mut c);
        c.end_telemetry();
        let report = monitor
            .latest_report()
            .unwrap_or_else(|| panic!("cut {cut}: recovered round unobserved"));
        assert_eq!(report.to_jsonl_line(), reference_line, "cut {cut}");
        assert_eq!(report, reference_report, "cut {cut}");
        let spans: BTreeSet<String> = replay_spans(&ring.snapshot())
            .unwrap_or_else(|e| panic!("cut {cut}: spans do not replay: {e}"))
            .iter()
            .map(|s| s.name.clone())
            .collect();
        assert!(spans.contains("round"), "cut {cut}: {spans:?}");
        if cut == 0 {
            // An empty journal is a fresh round: the whole forest matches.
            assert_eq!(spans, reference_spans);
        }
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

#[test]
fn durable_session_survives_seeded_crash_storms() {
    let mech = CompensationBonusMechanism::paper();
    let session = ChaosSessionConfig::new(3, ChaosConfig::reliable(2));
    let reference = durable(&mech, &session, &CrashPlan::none(), Vec::new());

    let max_byte = reference.journal_bytes.len() as u64;
    for seed in 0..8u64 {
        let crashed = durable(
            &mech,
            &session,
            &CrashPlan::seeded(seed, 5, max_byte),
            Vec::new(),
        );
        assert!(crashed.report.recovery.crashes > 0, "seed {seed}");
        assert_eq!(
            crashed.report.rounds.len(),
            reference.report.rounds.len(),
            "seed {seed}"
        );
        for (r, (c, want)) in crashed
            .report
            .rounds
            .iter()
            .zip(reference.report.rounds.iter())
            .enumerate()
        {
            assert_eq!(
                c.settled().unwrap().outcome.payments,
                want.settled().unwrap().outcome.payments,
                "seed {seed} round {r}"
            );
            assert_eq!(
                c.settled().unwrap().outcome.rates,
                want.settled().unwrap().outcome.rates,
                "seed {seed} round {r}"
            );
        }
        for i in 0..TRUES.len() {
            assert_eq!(
                crashed.report.cumulative_payments[i].to_bits(),
                reference.report.cumulative_payments[i].to_bits(),
                "seed {seed} machine {i}"
            );
        }
    }
}

#[test]
fn journal_hands_a_session_across_process_generations() {
    // Generation 1 plays round 0 and "dies"; generation 2 restarts from the
    // journal bytes, folds round 0 without re-running it, and plays the
    // remaining rounds — totals match a single uninterrupted session.
    let mech = CompensationBonusMechanism::paper();
    let full = ChaosSessionConfig::new(3, ChaosConfig::reliable(2));
    let uninterrupted = durable(&mech, &full, &CrashPlan::none(), Vec::new());

    let gen1_cfg = ChaosSessionConfig::new(1, ChaosConfig::reliable(2));
    let gen1 = durable(&mech, &gen1_cfg, &CrashPlan::none(), Vec::new());
    // The handoff journal replays cleanly: one sealed round.
    let replay = read_journal(&gen1.journal_bytes).unwrap();
    assert_eq!(replay.truncated_tail, 0);

    let gen2 = durable(&mech, &full, &CrashPlan::none(), gen1.journal_bytes.clone());
    assert_eq!(gen2.report.recovered_rounds, 1);
    assert_eq!(gen2.report.rounds.len(), 2);
    for i in 0..TRUES.len() {
        assert_eq!(
            gen2.report.cumulative_payments[i].to_bits(),
            uninterrupted.report.cumulative_payments[i].to_bits(),
            "machine {i}"
        );
    }
}
