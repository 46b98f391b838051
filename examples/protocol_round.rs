//! One round of the centralized protocol over the simulated network and —
//! identically — over the sharded topology, whose shards relay their
//! machines' binary-encoded frames on worker threads.
//!
//! Validates the paper's O(n)-messages claim with actual message counting.
//!
//! ```text
//! cargo run --example protocol_round
//! ```

use lbmv::core::scenario::{paper_true_values, PAPER_ARRIVAL_RATE};
use lbmv::mechanism::CompensationBonusMechanism;
use lbmv::proto::{run_round, NodeSpec, ProtocolConfig, RoundSpec, Transport};
use lbmv::sim::driver::SimulationConfig;
use lbmv::sim::server::ServiceModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mechanism = CompensationBonusMechanism::paper();

    // The paper's 16 computers; C1 over-bids and matches its bid (High1).
    let mut specs: Vec<NodeSpec> = paper_true_values()
        .iter()
        .map(|&t| NodeSpec::truthful(t))
        .collect();
    specs[0] = NodeSpec::strategic(1.0, 3.0, 3.0);

    let config = ProtocolConfig {
        total_rate: PAPER_ARRIVAL_RATE,
        link_latency: 0.002,
        simulation: SimulationConfig {
            horizon: 1_000.0,
            seed: 7,
            model: ServiceModel::StationaryDeterministic,
            workload: Default::default(),
            warmup: 0.0,
            estimator: Default::default(),
        },
    };

    let outcome = run_round(&RoundSpec::new(&mechanism, &specs, config)).map(|r| r.outcome)?;
    println!("deterministic runtime:");
    println!(
        "  messages: {} ({} per node), bytes: {}",
        outcome.stats.messages,
        outcome.stats.messages / specs.len() as u64,
        outcome.stats.bytes
    );
    println!(
        "  C1: rate {:.3}, estimated t~ {:.3}, payment {:+.2}, utility {:+.2}",
        outcome.rates[0],
        outcome.estimated_exec_values[0],
        outcome.payments[0],
        outcome.utilities[0]
    );
    println!(
        "  C2: rate {:.3}, payment {:+.2}, utility {:+.2}",
        outcome.rates[1], outcome.payments[1], outcome.utilities[1]
    );

    let sharded = run_round(&RoundSpec {
        transport: Transport::Sharded {
            shards: 4,
            profiler: None,
        },
        ..RoundSpec::new(&mechanism, &specs, config)
    })
    .map(|r| r.outcome)?;
    println!("\nsharded runtime (4 shards on worker threads, binary codec):");
    println!(
        "  messages: {} (5n plus one partial sum and one estimate frame per shard), bytes: {}",
        sharded.stats.messages, sharded.stats.bytes
    );
    let max_dp = outcome
        .payments
        .iter()
        .zip(&sharded.payments)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!(
        "  max payment difference vs deterministic runtime: {max_dp:.3e} (bit-identical protocol)"
    );
    Ok(())
}
