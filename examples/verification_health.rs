//! Verification health, live: a streaming invariant monitor over a
//! protocol session, the tamper-evident round ledger, and the
//! `/invariants` + `/health` documents an operator would scrape.
//!
//! Three acts:
//!
//! 1. an honest durable session runs with an [`InvariantMonitor`] attached
//!    as the coordinator's collector — every round passes every economic
//!    invariant (conservation, feasibility, Theorem 3.2 floor, dd payment
//!    drift, truthfulness margin) and the journal's hash chain verifies;
//! 2. a byte of the journal is flipped *with its frame CRC recomputed* —
//!    the per-record checksum passes, but the ledger chain localises the
//!    divergence and `/health` flips to `tampered`;
//! 3. a settled round with a skimmed payment is handed to a monitor — the
//!    double-double reference catches the theft the aggregate total check
//!    cannot see.
//!
//! ```text
//! cargo run --example verification_health
//! ```

use lbmv::audit::{health_json, publish, verify_ledger, InvariantMonitor, MonitorConfig};
use lbmv::mechanism::CompensationBonusMechanism;
use lbmv::proto::journal::crc32;
use lbmv::proto::{
    decode, run_chaos_session, ChaosConfig, ChaosSessionConfig, CrashPlan, Journal, JournalRecord,
    JournalReplay, NodeSpec, Observers, ProtocolConfig,
};
use lbmv::sim::driver::SimulationConfig;
use lbmv::sim::server::ServiceModel;
use lbmv::telemetry::{noop_collector, Collector, Exposition, SettledRound};
use std::sync::Arc;

const RATE: f64 = 9.0;
const TRUES: [f64; 3] = [1.0, 1.5, 2.0];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mechanism = CompensationBonusMechanism::paper();
    let config = ProtocolConfig {
        total_rate: RATE,
        link_latency: 0.001,
        simulation: SimulationConfig {
            horizon: 50.0,
            seed: 42,
            model: ServiceModel::StationaryDeterministic,
            workload: Default::default(),
            warmup: 0.0,
            estimator: Default::default(),
        },
    };
    let specs: Vec<NodeSpec> = TRUES.iter().map(|&t| NodeSpec::truthful(t)).collect();

    // Act 1 — honest session, monitor attached, ledger intact.
    let monitor = Arc::new(InvariantMonitor::new(
        noop_collector(),
        MonitorConfig::default(),
    ));
    let journal = CrashPlan::none().journal(Vec::new());
    run_chaos_session(
        &mechanism,
        &config,
        &ChaosSessionConfig::new(3, ChaosConfig::reliable(2)),
        |_, _| specs.clone(),
        &Observers {
            collector: monitor.clone() as Arc<dyn Collector>,
            ..Observers::default()
        },
        Some(&journal),
    )?;
    let journal_bytes = journal.borrow().bytes()?;
    let verdict = verify_ledger(&journal_bytes);
    let stats = monitor.stats();
    println!("— honest session —");
    println!(
        "rounds audited: {}   violations: {}   min truthfulness margin: {:.6}",
        stats.rounds,
        stats.total_violations(),
        stats.min_margin.unwrap_or(f64::NAN),
    );
    println!(
        "ledger: {} records, {} seals, head {:#018x}, intact: {}",
        verdict.records,
        verdict.seals,
        verdict.head,
        verdict.is_intact()
    );
    let exposition = Exposition::new();
    publish(&exposition, &monitor, Some(&verdict));
    println!("/health    -> {}", exposition.health_text().trim());
    println!("/invariants (first 120 chars) ->");
    let invariants = exposition.invariants_text();
    let head = invariants.trim();
    println!("  {}…", &head[..head.len().min(120)]);

    // Act 2 — flip one byte inside a journalled record and recompute the
    // frame CRC, the edit a per-record checksum cannot see.
    let mut tampered = journal_bytes.clone();
    let boundaries = JournalReplay::boundaries(&tampered);
    let victim = boundaries
        .windows(2)
        .position(|w| {
            matches!(
                decode::<JournalRecord>(&tampered[w[0] + 8..w[1]]),
                Ok(JournalRecord::PaymentsCommitted { .. })
            )
        })
        .expect("session journalled payments");
    let (start, end) = (boundaries[victim], boundaries[victim + 1]);
    tampered[start + 12] ^= 0x04;
    let crc = crc32(&tampered[start + 8..end]).to_le_bytes();
    tampered[start + 4..start + 8].copy_from_slice(&crc);
    let bad = verify_ledger(&tampered);
    println!("\n— tampered journal (bit flipped in record {victim}, CRC recomputed) —");
    match bad.divergence {
        Some(div) => println!(
            "chain diverges at seal {} (record {}, offset {}): expected {:#018x}, found {:#018x}",
            div.seal_index, div.record_index, div.offset, div.expected, div.found
        ),
        None => println!("divergence expected but not found: {bad:?}"),
    }
    println!("/health    -> {}", health_json(&stats, Some(&bad)).render());

    // Act 3 — skim one payment out of a settled round (patching the total
    // so the aggregate still balances) and hand it to a fresh monitor: only
    // the dd reference notices.
    let skimmer = InvariantMonitor::new(noop_collector(), MonitorConfig::default());
    let alloc = lbmv::core::pr_allocate(&TRUES, RATE)?;
    let out = lbmv::mechanism::run_mechanism(
        &mechanism,
        &lbmv::mechanism::Profile::truthful(&lbmv::core::System::from_true_values(&TRUES)?, RATE)?,
    )?;
    let skim = 0.05 * (1.0 + out.payments[1].abs());
    let mut paid = out.payments.clone();
    paid[1] -= skim;
    skimmer.settled(
        0.0,
        &SettledRound::new(
            0,
            RATE,
            &TRUES,
            alloc.rates(),
            &TRUES,
            &[false; 3],
            &paid,
            out.payments.iter().sum::<f64>() - skim,
        )?,
    );
    let caught = skimmer.latest_report().expect("round observed");
    println!("\n— skimmed payment (machine 1, −{skim:.6}) —");
    println!(
        "drift check ok: {}   violations: {:?}",
        caught.check("drift").is_some_and(|c| c.ok),
        caught.violations
    );
    assert!(!caught.ok(), "the skim must be detected");
    Ok(())
}
