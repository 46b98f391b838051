//! The protocol under network faults: lost bids, partitions, lost acks,
//! the distributed payment audit that keeps the coordinator honest — and
//! the chaos runtime, whose retransmission protocol turns transient bid
//! loss into a retry instead of an exclusion.
//!
//! ```text
//! cargo run --example fault_tolerance
//! ```

use lbmv::core::scenario::{paper_true_values, PAPER_ARRIVAL_RATE};
use lbmv::mechanism::CompensationBonusMechanism;
use lbmv::proto::audit::{audit_settlement, SettlementRecord};
use lbmv::proto::chaos::ChaosConfig;
use lbmv::proto::faults::FaultPlan;
use lbmv::proto::{run_round, RoundSpec, Transport};
use lbmv::proto::{NodeSpec, ProtocolConfig};
use lbmv::sim::driver::SimulationConfig;
use lbmv::sim::server::ServiceModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mechanism = CompensationBonusMechanism::paper();
    let specs: Vec<NodeSpec> = paper_true_values()
        .iter()
        .map(|&t| NodeSpec::truthful(t))
        .collect();
    let config = ProtocolConfig {
        total_rate: PAPER_ARRIVAL_RATE,
        link_latency: 0.002,
        simulation: SimulationConfig {
            horizon: 500.0,
            seed: 11,
            model: ServiceModel::StationaryDeterministic,
            workload: Default::default(),
            warmup: 0.0,
            estimator: Default::default(),
        },
    };

    // One round over the simulated network under `chaos`.
    let chaos_round = |chaos: ChaosConfig| {
        run_round(&RoundSpec {
            transport: Transport::Chaos(chaos),
            ..RoundSpec::new(&mechanism, &specs, config)
        })
    };
    // A declarative fault plan with no retransmission: a lost bid excludes.
    let no_retries = |plan: FaultPlan| ChaosConfig {
        plan,
        bid_retries: 0,
        ..ChaosConfig::reliable(config.simulation.seed)
    };

    // 1. C1's bid is lost: the coordinator times out, excludes C1, and the
    //    round settles over the 15 survivors.
    let faults = FaultPlan {
        lose_bids_from: vec![0],
        ..FaultPlan::none()
    };
    let outcome = chaos_round(no_retries(faults))?.outcome;
    println!("C1 bid lost:");
    println!(
        "  C1 rate {:.2}, payment {:+.2} (excluded)",
        outcome.rates[0], outcome.payments[0]
    );
    println!(
        "  load conservation over survivors: total rate = {:.3}",
        outcome.rates.iter().sum::<f64>()
    );
    println!(
        "  C2 payment {:+.2} (paid as in the 15-machine system)",
        outcome.payments[1]
    );

    // 2. Lost completion acks: settlement proceeds from the coordinator's
    //    own measurements.
    let faults = FaultPlan {
        lose_acks_from: vec![3, 7],
        ..FaultPlan::none()
    };
    let outcome = chaos_round(no_retries(faults))?.outcome;
    println!(
        "\nC4+C8 acks lost: round still settles; C4 payment {:+.2}",
        outcome.payments[3]
    );

    // 3. Audit: nodes recompute their payments from the broadcast settlement.
    let record = SettlementRecord {
        bids: specs.iter().map(|s| s.bid).collect(),
        estimated_exec_values: outcome.estimated_exec_values.clone(),
        total_rate: PAPER_ARRIVAL_RATE,
        claimed_payments: outcome.payments.clone(),
    };
    let report = audit_settlement(&mechanism, &record, 1e-9)?;
    println!(
        "\naudit of the honest settlement: all verified = {}",
        report.all_verified()
    );

    let mut tampered = record;
    tampered.claimed_payments[4] -= 1.0;
    let report = audit_settlement(&mechanism, &tampered, 1e-6)?;
    println!(
        "audit after skimming C5 by 1.0: verified = {}, disputed machines = {:?}",
        report.all_verified(),
        report.disputed()
    );

    // 4. Retransmission saves a flaky machine: C1's first bid transmission is
    //    lost, but the chaos runtime re-requests it after a timeout and the
    //    retry gets through — C1 is *included*, not excluded.
    let mut chaos = ChaosConfig::reliable(17);
    chaos.plan = FaultPlan {
        lose_bid_attempts: vec![(0, 1)],
        ..FaultPlan::none()
    };
    let report = chaos_round(chaos)?;
    println!("\nC1's first bid lost, retransmission succeeds:");
    println!(
        "  C1 excluded = {}, rate {:.2}, payment {:+.2}",
        report.excluded[0], report.outcome.rates[0], report.outcome.payments[0]
    );
    println!(
        "  retries = {}, messages = {}, anomalies = {}",
        report.retries,
        report.outcome.stats.messages,
        report.anomalies.total()
    );

    // 5. Retry exhaustion: C1 stays silent through every re-request, so after
    //    the bounded backoff schedule the coordinator falls back to exclusion
    //    and the round settles over the survivors.
    let mut chaos = ChaosConfig::reliable(17);
    chaos.plan = FaultPlan {
        lose_bids_from: vec![0],
        ..FaultPlan::none()
    };
    let report = chaos_round(chaos)?;
    println!("\nC1 silent through all retries:");
    println!(
        "  C1 excluded = {}, retries = {}, total rate over survivors = {:.3}",
        report.excluded[0],
        report.retries,
        report.outcome.rates.iter().sum::<f64>()
    );

    // 6. Probabilistic chaos: heavy seeded drop/duplicate/corrupt/jitter on
    //    every link. The protocol absorbs what it can and excludes the rest;
    //    the anomaly and fault counters show what the network did.
    let report = chaos_round(ChaosConfig::heavy(17))?;
    let survivors = report.excluded.iter().filter(|&&e| !e).count();
    println!("\nheavy chaos (seed 17): {survivors}/16 machines settled");
    println!(
        "  faults injected: {} dropped, {} duplicated, {} corrupted",
        report.faults.dropped, report.faults.duplicated, report.faults.corrupted
    );
    println!(
        "  retries = {}, anomalies absorbed = {}, messages = {}",
        report.retries,
        report.anomalies.total(),
        report.outcome.stats.messages
    );
    Ok(())
}
