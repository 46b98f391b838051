//! The O(n) batch leave-one-out payment kernel vs the legacy per-agent
//! path: equivalence on the validated domain, the large-`n` cancellation
//! regression it fixes, and a zero-diff check on the paper scenario's
//! protocol settle phase.

use lb_fuzz::extended::{marginal_contribution_dd, optimal_latency_excluding_dd};
use lb_stats::prop;
use lb_stats::prop_assert;
use lbmv::core::allocation::{optimal_latency_excluding, optimal_latency_excluding_legacy};
use lbmv::core::scenario::{paper_true_values, PAPER_ARRIVAL_RATE};
use lbmv::core::{marginal_contributions, optimal_latency_linear, LeaveOneOut};
use lbmv::mechanism::CompensationBonusMechanism;
use lbmv::proto::{run_round, NodeSpec, ProtocolConfig, RoundSpec};
use lbmv::sim::driver::SimulationConfig;
use lbmv::sim::estimator::EstimatorConfig;
use lbmv::sim::server::ServiceModel;

/// n = 10⁵ latency parameters log-spaced over nine orders of magnitude —
/// the regime where the subtractive bonus form loses its digits.
fn wide_values(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| 10f64.powf(9.0 * i as f64 / (n - 1) as f64))
        .collect()
}

#[test]
fn pinned_large_n_cancellation_regression() {
    // The slowest machine's marginal contribution sits ~13 orders of
    // magnitude below L*: the subtractive form `L_{-i} − L*` in f64 keeps
    // at best 3 decimal digits of it, while the batch kernel's closed form
    // `R²·(1/t_i)/(S·(S − 1/t_i))` must stay within the 1e-9 oracle budget
    // of the double-double reference.
    let n = 100_000;
    let values = wide_values(n);
    let r = 20.0;
    let loo = LeaveOneOut::compute(&values, r).unwrap();
    let full = optimal_latency_linear(&values, r).unwrap();

    // Probe the extremes and the middle; the dd reference is O(n) per
    // probe, so the whole test stays well under a second.
    for &i in &[0usize, n / 2, n - 1] {
        let dd = marginal_contribution_dd(&values, i, r);
        let closed = loo.marginal(i);
        let rel = ((closed - dd) / dd).abs();
        assert!(
            rel < 1e-9,
            "machine {i}: closed form drifted {rel:e} from dd reference"
        );
        // And the batch L_{-i} itself matches the dd rebuild.
        let l_dd = optimal_latency_excluding_dd(&values, i, r);
        let l_rel = ((loo.excluding(i) - l_dd) / l_dd).abs();
        assert!(l_rel < 1e-12, "machine {i}: L_-i drifted {l_rel:e}");
    }

    // The slowest machine: the subtractive form visibly drifts (worse than
    // ten times the 1e-9 budget), which is exactly why the closed form
    // exists. Pinned so a refactor that silently reverts to subtraction
    // fails loudly.
    let slowest = n - 1;
    let dd = marginal_contribution_dd(&values, slowest, r);
    assert!(dd > 0.0);
    let subtractive = optimal_latency_excluding_legacy(&values, slowest, r).unwrap() - full;
    let drift = ((subtractive - dd) / dd).abs();
    assert!(
        drift > 1e-8,
        "subtractive form unexpectedly accurate ({drift:e}); regression test lost its witness"
    );
}

#[test]
fn batch_marginals_power_the_analysis_module() {
    // `marginal_contributions` is the same closed form; spot-check the
    // paper's published C1 value survives the rewiring.
    let values = paper_true_values();
    let mc = marginal_contributions(&values, PAPER_ARRIVAL_RATE).unwrap();
    assert!((mc[0] - (400.0 / 4.1 - 400.0 / 5.1)).abs() < 1e-9);
}

#[test]
fn settle_phase_payments_are_unchanged_on_the_paper_scenario() {
    // Zero-diff: a full protocol round on the paper's Table 1 scenario must
    // pay exactly what the legacy per-agent settle would have paid, given
    // the round's own measured inputs (bids, rates, estimated exec values).
    let mech = CompensationBonusMechanism::paper();
    let trues = paper_true_values();
    let specs: Vec<NodeSpec> = trues.iter().map(|&t| NodeSpec::truthful(t)).collect();
    let config = ProtocolConfig {
        total_rate: PAPER_ARRIVAL_RATE,
        link_latency: 0.001,
        simulation: SimulationConfig {
            horizon: 400.0,
            seed: 11,
            model: ServiceModel::StationaryDeterministic,
            workload: Default::default(),
            warmup: 0.0,
            estimator: EstimatorConfig::default(),
        },
    };
    let out = run_round(&RoundSpec::new(&mech, &specs, config))
        .map(|r| r.outcome)
        .unwrap();

    // Rebuild the settle phase through the legacy kernel from the same
    // inputs the coordinator saw.
    let alloc = lbmv::core::Allocation::new(out.rates.clone(), PAPER_ARRIVAL_RATE).unwrap();
    let actual = lbmv::core::total_latency_linear(&alloc, &out.estimated_exec_values).unwrap();
    for i in 0..trues.len() {
        let without_i = optimal_latency_excluding_legacy(&trues, i, PAPER_ARRIVAL_RATE).unwrap();
        let compensation = out.estimated_exec_values[i] * alloc.rate(i);
        let legacy_payment = compensation + (without_i - actual);
        let scale = legacy_payment.abs().max(actual.abs()).max(1.0);
        assert!(
            (out.payments[i] - legacy_payment).abs() <= 1e-12 * scale,
            "machine {i}: settle payment moved: {} vs legacy {legacy_payment}",
            out.payments[i]
        );
    }
}

/// Batch `L_{-i}` agrees with the legacy per-agent rebuild to 1e-12
/// relative across the validated bid domain (12 orders of magnitude of
/// spread, arrival rates over six).
#[test]
fn prop_batch_equals_legacy() {
    prop::check(
        "prop_batch_equals_legacy",
        256,
        (prop::vec(-6.0f64..6.0, 2..48), -3.0f64..3.0),
        |(exponents, r_exp)| {
            let values: Vec<f64> = exponents.iter().map(|&e| 10f64.powf(e)).collect();
            let r = 10f64.powf(r_exp);
            let loo = LeaveOneOut::compute(&values, r).unwrap();
            for i in 0..values.len() {
                let legacy = optimal_latency_excluding_legacy(&values, i, r).unwrap();
                let shim = optimal_latency_excluding(&values, i, r).unwrap();
                prop_assert!(
                    ((loo.excluding(i) - legacy) / legacy).abs() < 1e-12,
                    "batch vs legacy at {}: {} vs {}",
                    i,
                    loo.excluding(i),
                    legacy
                );
                prop_assert!(
                    ((shim - loo.excluding(i)) / legacy).abs() < 1e-12,
                    "shim vs batch at {}",
                    i
                );
            }
            Ok(())
        },
    );
}

/// The closed-form marginals match the subtractive form wherever the
/// subtraction is still numerically meaningful (small n, mild spread).
#[test]
fn prop_marginals_match_subtractive_on_benign_domain() {
    prop::check(
        "prop_marginals_match_subtractive_on_benign_domain",
        256,
        (prop::vec(0.1f64..10.0, 2..16), 0.5f64..50.0),
        |(values, r)| {
            let loo = LeaveOneOut::compute(&values, r).unwrap();
            let full = optimal_latency_linear(&values, r).unwrap();
            for i in 0..values.len() {
                let subtractive = optimal_latency_excluding_legacy(&values, i, r).unwrap() - full;
                let scale = loo.excluding(i).abs().max(1.0);
                prop_assert!(
                    (loo.marginal(i) - subtractive).abs() < 1e-9 * scale,
                    "marginal {}: {} vs {}",
                    i,
                    loo.marginal(i),
                    subtractive
                );
            }
            Ok(())
        },
    );
}
