//! Crash recovery: the write-ahead round journal across simulated process
//! restarts.
//!
//! Generation 1 opens a file-backed journal, accepts part of a round, and
//! "crashes" (the process state is simply dropped). Generation 2 reopens
//! the file, replays the journal, resumes the round mid-flight and settles
//! — with payments bit-identical to a run that never crashed. A durable
//! chaos session then survives a storm of injected mid-write crashes.
//!
//! ```text
//! cargo run --example crash_recovery
//! ```

use lbmv::mechanism::CompensationBonusMechanism;
use lbmv::proto::{
    recover_round, run_chaos_session, ChaosConfig, ChaosSessionConfig, Coordinator, CrashPlan,
    FileJournal, Journal, Message, NodeSpec, Observers, ProtocolConfig, RoundContext, RoundId,
};
use lbmv::sim::driver::SimulationConfig;
use lbmv::sim::server::ServiceModel;
use lbmv::telemetry::noop_collector;
use std::cell::RefCell;
use std::rc::Rc;

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

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mechanism = CompensationBonusMechanism::paper();
    let round = RoundId(0);
    let wal = std::env::temp_dir().join(format!("lbmv-crash-recovery-{}.wal", std::process::id()));

    // ---- Generation 1: a round interrupted mid-bidding ------------------
    {
        let journal: Rc<RefCell<dyn Journal>> = Rc::new(RefCell::new(FileJournal::create(&wal)?));
        let mut c = Coordinator::try_new(&mechanism, TRUES.len(), RATE, round, sim())?
            .with_journal(Rc::clone(&journal));
        // Two of three bids arrive, then the process dies: the accepted
        // bids are already in the write-ahead journal, the third is not.
        for m in 0..2u32 {
            c.handle(
                &Message::Bid {
                    round,
                    machine: m,
                    value: TRUES[m as usize],
                },
                &TRUES,
            )?;
        }
        println!("gen 1: accepted 2/3 bids, crashing before the third");
    } // <- coordinator and journal dropped: the "crash"

    // ---- Generation 2: replay, resume, settle ---------------------------
    let (journal, replay) = FileJournal::open(&wal)?;
    println!(
        "gen 2: replayed {} records ({} torn bytes truncated)",
        replay.records.len(),
        replay.truncated_tail
    );
    let ctx = RoundContext {
        n: TRUES.len(),
        total_rate: RATE,
        round,
        sim: sim(),
    };
    let journal: Rc<RefCell<dyn Journal>> = Rc::new(RefCell::new(journal));
    let (mut c, report) = recover_round(&mechanism, journal, &ctx, noop_collector(), 0.0)?;
    println!(
        "gen 2: recovered in phase {:?}, {} records replayed",
        report.phase, report.records_replayed
    );

    // `resume` re-requests exactly what is missing — here, machine 2's bid.
    let outgoing = c.resume(&TRUES)?;
    println!("gen 2: resume re-requests {} bid(s)", outgoing.len());
    c.handle(
        &Message::Bid {
            round,
            machine: 2,
            value: TRUES[2],
        },
        &TRUES,
    )?;
    for m in 0..TRUES.len() as u32 {
        c.handle(&Message::ExecutionDone { round, machine: m }, &TRUES)?;
    }
    c.seal()?;
    let payments = c.payments().expect("settled");
    println!("gen 2: settled payments {payments:?}");
    std::fs::remove_file(&wal).ok();

    // ---- A durable session under a crash storm --------------------------
    let config = ProtocolConfig {
        total_rate: RATE,
        link_latency: 0.001,
        simulation: sim(),
    };
    let specs: Vec<NodeSpec> = TRUES.iter().map(|&t| NodeSpec::truthful(t)).collect();
    let session = ChaosSessionConfig::new(3, ChaosConfig::reliable(2));
    let durable = |plan: &CrashPlan| {
        let journal = plan.journal(Vec::new());
        let report = run_chaos_session(
            &mechanism,
            &config,
            &session,
            |_, _| specs.clone(),
            &Observers::default(),
            Some(&journal),
        )?;
        let bytes = journal.borrow().bytes()?;
        Ok::<_, Box<dyn std::error::Error>>((report, bytes))
    };
    let (clean, clean_journal) = durable(&CrashPlan::none())?;
    let (stormy, _) = durable(&CrashPlan::seeded(7, 6, clean_journal.len() as u64))?;
    println!(
        "session: {} crashes injected, {} records replayed, {} torn bytes truncated",
        stormy.recovery.crashes, stormy.recovery.records_replayed, stormy.recovery.truncated_bytes
    );
    assert_eq!(
        stormy
            .cumulative_payments
            .iter()
            .map(|p| p.to_bits())
            .collect::<Vec<_>>(),
        clean
            .cumulative_payments
            .iter()
            .map(|p| p.to_bits())
            .collect::<Vec<_>>(),
        "crash-recovered payments must be bit-identical"
    );
    println!(
        "session: cumulative payments bit-identical to the uninterrupted run: {:?}",
        stormy.cumulative_payments
    );
    Ok(())
}
