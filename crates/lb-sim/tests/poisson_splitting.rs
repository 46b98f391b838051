//! The Poisson-splitting assumption behind per-machine verification.
//!
//! The round driver gives every machine its own Poisson stream of rate
//! `x_i`. That is sound only because routing one system-wide Poisson stream
//! of rate `R` to machine `i` with probability `x_i/R` yields independent
//! Poisson streams of rates `x_i`. These tests simulate the literal system —
//! one arrival stream, per-job probabilistic dispatch — and check the
//! thinned streams and the estimates they produce against that claim.

use lb_core::scenario::{paper_true_values, PAPER_ARRIVAL_RATE};
use lb_core::{pr_allocate, Allocation};
use lb_sim::driver::{simulate_round, SimulationConfig};
use lb_sim::estimator::ExecValueEstimator;
use lb_sim::server::ServiceModel;
use lb_sim::workload::PoissonProcess;
use lb_stats::ks::{exponential_cdf, ks_test};
use lb_stats::online::OnlineStats;
use lb_stats::rng::{Rng, Xoshiro256StarStar};

/// One dispatch-level round.
struct Dispatch {
    /// The PR allocation the dispatcher routed by.
    allocation: Allocation,
    /// Arrival times routed to each machine.
    arrivals: Vec<Vec<f64>>,
    /// Estimated execution values (bid fallback for idle machines).
    estimated_exec_values: Vec<f64>,
}

/// Routes one job to machine `i` with probability `x_i / R`: an inverse-CDF
/// lookup of a uniform draw in the cumulative allocation.
fn route(cumulative: &[f64], rng: &mut Xoshiro256StarStar) -> usize {
    let total = cumulative[cumulative.len() - 1];
    let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
    cumulative
        .partition_point(|&c| c <= u)
        .min(cumulative.len() - 1)
}

/// Simulates one round at the dispatch level: a single system-wide Poisson
/// stream of rate `R`, each job routed independently with probabilities
/// `x_i/R`, executed under `config.model` and observed by the estimator
/// exactly as the driver does.
fn simulate_dispatch(
    bids: &[f64],
    actual_exec_values: &[f64],
    total_rate: f64,
    config: &SimulationConfig,
) -> Dispatch {
    let allocation = pr_allocate(bids, total_rate).unwrap();
    let cumulative: Vec<f64> = allocation
        .rates()
        .iter()
        .scan(0.0, |acc, &x| {
            *acc += x;
            Some(*acc)
        })
        .collect();

    let base = Xoshiro256StarStar::seed_from_u64(config.seed ^ 0xd15_a7c4);
    let mut route_rng = base.stream(1);
    let mut arrivals: Vec<Vec<f64>> = vec![Vec::new(); bids.len()];
    for t in PoissonProcess::new(total_rate, base.stream(0)).arrivals_until(config.horizon) {
        arrivals[route(&cumulative, &mut route_rng)].push(t);
    }

    let estimated_exec_values = arrivals
        .iter()
        .enumerate()
        .map(|(i, machine_arrivals)| {
            let mut rng = base.stream(2 + i as u64);
            let rate = allocation.rate(i);
            let responses =
                config
                    .model
                    .responses(machine_arrivals, actual_exec_values[i], rate, &mut rng);
            let mut estimator = ExecValueEstimator::new(config.estimator);
            let mut observed = OnlineStats::new();
            for (&a, &r) in machine_arrivals.iter().zip(&responses) {
                if a >= config.warmup {
                    observed.push(r);
                    estimator.observe(r, &mut rng);
                }
            }
            estimator.estimate(&observed, rate).unwrap_or(bids[i])
        })
        .collect();

    Dispatch {
        allocation,
        arrivals,
        estimated_exec_values,
    }
}

fn config(horizon: f64, model: ServiceModel) -> SimulationConfig {
    SimulationConfig {
        horizon,
        seed: 77,
        model,
        ..SimulationConfig::default()
    }
}

#[test]
fn routed_load_matches_the_allocation() {
    let trues = paper_true_values();
    let report = simulate_dispatch(
        &trues,
        &trues,
        PAPER_ARRIVAL_RATE,
        &config(5_000.0, ServiceModel::StationaryDeterministic),
    );
    for (i, arr) in report.arrivals.iter().enumerate() {
        let empirical = arr.len() as f64 / 5_000.0;
        let target = report.allocation.rate(i);
        assert!(
            (empirical - target).abs() / target < 0.06,
            "machine {i}: {empirical} vs {target}"
        );
    }
}

#[test]
fn thinned_streams_are_poisson() {
    // Poisson splitting: the per-machine interarrivals must pass a KS
    // test against Exp(x_i).
    let trues = paper_true_values();
    let report = simulate_dispatch(
        &trues,
        &trues,
        PAPER_ARRIVAL_RATE,
        &config(20_000.0, ServiceModel::StationaryDeterministic),
    );
    for i in [0usize, 5, 12] {
        let arr = &report.arrivals[i];
        let mut gaps = Vec::with_capacity(arr.len());
        let mut prev = 0.0;
        for &t in arr {
            gaps.push(t - prev);
            prev = t;
        }
        let test = ks_test(&gaps, exponential_cdf(report.allocation.rate(i))).unwrap();
        assert!(
            !test.rejects_at(0.01),
            "machine {i}: KS p = {}",
            test.p_value
        );
    }
}

#[test]
fn dispatch_estimates_agree_with_per_machine_pipeline() {
    // Both realisations recover the execution values; their estimates
    // agree within sampling tolerance.
    let trues = paper_true_values();
    let mut exec = trues.clone();
    exec[0] = 2.0; // a lazy machine must be detected by both
    let cfg = config(20_000.0, ServiceModel::StationaryExponential);
    let dispatch = simulate_dispatch(&trues, &exec, PAPER_ARRIVAL_RATE, &cfg);
    let per_machine = simulate_round(&trues, &exec, PAPER_ARRIVAL_RATE, &cfg).unwrap();
    for (i, &e) in exec.iter().enumerate() {
        let a = dispatch.estimated_exec_values[i];
        let b = per_machine.estimated_exec_values[i];
        assert!((a - b).abs() / b < 0.12, "machine {i}: {a} vs {b}");
        assert!((a - e).abs() / e < 0.1, "machine {i} truth: {a} vs {e}");
    }
    assert!((dispatch.estimated_exec_values[0] - 2.0).abs() < 0.2);
}
