//! Data series for every figure of the paper plus the beyond-paper analyses.

use crate::paper::{paper_experiments, run_experiment, ExperimentResult};
use crate::tables::{f2, pct, Table};
use lb_core::scenario::{paper_system, paper_true_values, PAPER_ARRIVAL_RATE};
use lb_mechanism::{
    frugality_ratio, run_mechanism, CompensationBonusMechanism, MechanismError, Profile,
    UnverifiedCompensationBonus,
};
use lb_proto::{run_round, NodeSpec, ProtocolConfig, ProtocolError, RoundSpec};
use lb_sim::driver::{verified_round, SimulationConfig};
use lb_sim::estimator::EstimatorConfig;
use lb_sim::server::ServiceModel;

/// Runs all eight experiments analytically.
///
/// # Errors
/// Propagates mechanism errors.
fn all_experiments() -> Result<Vec<ExperimentResult>, MechanismError> {
    paper_experiments().iter().map(run_experiment).collect()
}

/// Table 1: the system configuration.
#[must_use]
pub fn table1() -> Table {
    let mut t = Table::new(&["Computers", "True value (t)"]);
    t.row(&["C1 - C2".into(), "1.0".into()]);
    t.row(&["C3 - C5".into(), "2.0".into()]);
    t.row(&["C6 - C10".into(), "5.0".into()]);
    t.row(&["C11 - C16".into(), "10.0".into()]);
    t
}

/// Table 2: the experiment taxonomy.
#[must_use]
pub fn table2() -> Table {
    let mut t = Table::new(&["Experiment", "bid b1", "exec t~1", "Characterization"]);
    for e in paper_experiments() {
        t.row(&[
            e.name.into(),
            format!("{} t1", e.bid_factor),
            format!("{} t1", e.exec_factor),
            e.description.into(),
        ]);
    }
    t
}

/// Figure 1: performance degradation — total latency per experiment.
///
/// # Errors
/// Propagates mechanism errors.
pub fn figure1() -> Result<Table, MechanismError> {
    let mut t = Table::new(&["Experiment", "Total latency L", "vs True1"]);
    for r in all_experiments()? {
        t.row(&[r.spec.name.into(), f2(r.total_latency), pct(r.degradation)]);
    }
    Ok(t)
}

/// Figure 2: payment and utility of computer C1 per experiment.
///
/// # Errors
/// Propagates mechanism errors.
pub fn figure2() -> Result<Table, MechanismError> {
    let mut t = Table::new(&["Experiment", "C1 payment", "C1 utility"]);
    for r in all_experiments()? {
        t.row(&[r.spec.name.into(), f2(r.c1_payment()), f2(r.c1_utility())]);
    }
    Ok(t)
}

/// Figures 3–5: per-computer payment and utility for one experiment
/// (`True1`, `High1` or `Low1` in the paper).
///
/// # Errors
/// Propagates mechanism errors; unknown names yield a core error.
pub fn per_computer_figure(experiment: &str) -> Result<Table, MechanismError> {
    let spec = crate::paper::experiment_by_name(experiment).ok_or_else(|| {
        MechanismError::Core(lb_core::CoreError::Infeasible {
            reason: format!("unknown experiment {experiment}"),
        })
    })?;
    let r = run_experiment(&spec)?;
    let mut t = Table::new(&["Computer", "Payment", "Utility"]);
    for i in 0..r.payments.len() {
        t.row(&[format!("C{}", i + 1), f2(r.payments[i]), f2(r.utilities[i])]);
    }
    Ok(t)
}

/// Figure 6: payment structure — total payment vs total valuation for the
/// truthful profile across arrival rates, plus the per-experiment structure.
///
/// # Errors
/// Propagates mechanism errors.
pub fn figure6() -> Result<(Table, Table), MechanismError> {
    let sys = paper_system();
    let mech = CompensationBonusMechanism::paper();
    let mut sweep = Table::new(&["R (jobs/s)", "Total payment", "Total valuation", "Ratio"]);
    for k in 1..=10 {
        let r = 2.0 * f64::from(k);
        let out = run_mechanism(&mech, &Profile::truthful(&sys, r)?)?;
        sweep.row(&[
            f2(r),
            f2(out.total_payment()),
            f2(out.total_valuation_abs()),
            f2(frugality_ratio(&out)),
        ]);
    }
    let mut per_exp = Table::new(&["Experiment", "Total payment", "Total valuation", "Ratio"]);
    for r in all_experiments()? {
        per_exp.row(&[
            r.spec.name.into(),
            f2(r.total_payment),
            f2(r.total_valuation),
            f2(r.frugality),
        ]);
    }
    Ok((sweep, per_exp))
}

/// Beyond-paper: protocol message counts, validating the O(n) claim.
///
/// # Errors
/// Propagates protocol errors.
pub fn message_counts() -> Result<Table, MechanismError> {
    let mech = CompensationBonusMechanism::paper();
    let mut t = Table::new(&["n computers", "Messages", "Messages / n", "Bytes"]);
    for n in [2usize, 4, 8, 16, 32, 64] {
        let specs: Vec<NodeSpec> = (0..n)
            .map(|i| NodeSpec::truthful(1.0 + i as f64 / 4.0))
            .collect();
        let config = ProtocolConfig {
            total_rate: 10.0,
            link_latency: 0.001,
            simulation: SimulationConfig {
                horizon: 50.0,
                seed: 42,
                model: ServiceModel::StationaryDeterministic,
                workload: Default::default(),
                warmup: 0.0,
                estimator: EstimatorConfig::default(),
            },
        };
        let outcome = run_round(&RoundSpec::new(&mech, &specs, config))
            .map_err(ProtocolError::into_mechanism)?
            .outcome;
        t.row(&[
            n.to_string(),
            outcome.stats.messages.to_string(),
            format!("{:.1}", outcome.stats.messages as f64 / n as f64),
            outcome.stats.bytes.to_string(),
        ]);
    }
    Ok(t)
}

/// Ablation 1: verification on/off — C1's payment across experiments under
/// the verified vs the bid-only mechanism.
///
/// # Errors
/// Propagates mechanism errors.
pub fn ablation_verification() -> Result<Table, MechanismError> {
    let verified = CompensationBonusMechanism::paper();
    let unverified = UnverifiedCompensationBonus::paper();
    let mut t = Table::new(&[
        "Experiment",
        "C1 payment (verified)",
        "C1 payment (unverified)",
        "Verification response",
    ]);
    for spec in paper_experiments() {
        let profile = crate::paper::experiment_profile(&spec)?;
        let v = run_mechanism(&verified, &profile)?.payments[0];
        let u = run_mechanism(&unverified, &profile)?.payments[0];
        t.row(&[spec.name.into(), f2(v), f2(u), f2(v - u)]);
    }
    Ok(t)
}

/// Ablation 2: estimator robustness — C1 payment error vs observation noise
/// and horizon (sample budget), via the full simulation pipeline.
///
/// # Errors
/// Propagates mechanism/simulation errors.
pub fn ablation_estimator() -> Result<Table, MechanismError> {
    let mech = CompensationBonusMechanism::paper();
    let sys = paper_system();
    let profile = Profile::truthful(&sys, PAPER_ARRIVAL_RATE)?;
    let mut t = Table::new(&[
        "Noise cv",
        "Horizon (s)",
        "Max |payment error|",
        "Max |t~ error| (rel)",
    ]);
    for &noise in &[0.0, 0.1, 0.3] {
        for &horizon in &[200.0, 1_000.0, 5_000.0] {
            let config = SimulationConfig {
                horizon,
                seed: 7,
                model: ServiceModel::StationaryExponential,
                workload: Default::default(),
                warmup: 0.0,
                estimator: EstimatorConfig {
                    max_samples: None,
                    noise_cv: noise,
                },
            };
            let round = verified_round(&mech, &profile, &config)?;
            let trues = paper_true_values();
            let est_err = round
                .report
                .estimated_exec_values
                .iter()
                .zip(&trues)
                .map(|(e, t)| (e - t).abs() / t)
                .fold(0.0, f64::max);
            t.row(&[
                format!("{noise:.1}"),
                format!("{horizon:.0}"),
                f2(round.max_payment_error()),
                format!("{est_err:.4}"),
            ]);
        }
    }
    Ok(t)
}

/// Figure 1 as an ASCII bar chart (the paper's presentation).
///
/// # Errors
/// Propagates mechanism errors.
pub fn figure1_chart() -> Result<crate::chart::BarChart, MechanismError> {
    let mut c =
        crate::chart::BarChart::new("Figure 1: total latency per experiment (R = 20 jobs/s)", 48);
    for r in all_experiments()? {
        c.bar(r.spec.name, r.total_latency);
    }
    Ok(c)
}

/// Figure 2 as paired ASCII bar charts (payment and utility of C1).
///
/// # Errors
/// Propagates mechanism errors.
pub fn figure2_chart() -> Result<(crate::chart::BarChart, crate::chart::BarChart), MechanismError> {
    let mut payment = crate::chart::BarChart::new("Figure 2a: payment of C1", 48);
    let mut utility = crate::chart::BarChart::new("Figure 2b: utility of C1", 48);
    for r in all_experiments()? {
        payment.bar(r.spec.name, r.c1_payment());
        utility.bar(r.spec.name, r.c1_utility());
    }
    Ok((payment, utility))
}

/// Beyond-paper: fault-tolerant rounds — what each fault costs.
///
/// # Errors
/// Propagates protocol errors.
pub fn fault_tolerance() -> Result<Table, MechanismError> {
    use lb_proto::{ChaosConfig, FaultPlan, Transport};
    let mech = CompensationBonusMechanism::paper();
    let specs: Vec<NodeSpec> = paper_true_values()
        .iter()
        .map(|&t| NodeSpec::truthful(t))
        .collect();
    let config = ProtocolConfig {
        total_rate: PAPER_ARRIVAL_RATE,
        link_latency: 0.001,
        simulation: SimulationConfig {
            horizon: 300.0,
            seed: 42,
            model: ServiceModel::StationaryDeterministic,
            workload: Default::default(),
            warmup: 0.0,
            estimator: EstimatorConfig::default(),
        },
    };
    let scenarios: Vec<(&str, FaultPlan)> = vec![
        ("no faults", FaultPlan::none()),
        (
            "C1 bid lost",
            FaultPlan {
                lose_bids_from: vec![0],
                ..FaultPlan::none()
            },
        ),
        (
            "C1 partitioned",
            FaultPlan {
                partitioned: vec![0],
                ..FaultPlan::none()
            },
        ),
        (
            "C4+C8 acks lost",
            FaultPlan {
                lose_acks_from: vec![3, 7],
                ..FaultPlan::none()
            },
        ),
    ];
    let mut t = Table::new(&[
        "Scenario",
        "Total latency",
        "Excluded",
        "C2 payment",
        "Messages",
    ]);
    for (name, plan) in scenarios {
        // Declarative faults with no retransmission: a lost bid excludes.
        let chaos = ChaosConfig {
            plan,
            bid_retries: 0,
            ..ChaosConfig::reliable(config.simulation.seed)
        };
        let spec = RoundSpec {
            transport: Transport::Chaos(chaos),
            ..RoundSpec::new(&mech, &specs, config)
        };
        let out = run_round(&spec)
            .map_err(ProtocolError::into_mechanism)?
            .outcome;
        let latency: f64 = out
            .rates
            .iter()
            .zip(&out.estimated_exec_values)
            .map(|(&x, &e)| e * x * x)
            .sum();
        let excluded = out.rates.iter().filter(|&&x| x == 0.0).count();
        t.row(&[
            name.into(),
            f2(latency),
            excluded.to_string(),
            f2(out.payments[1]),
            out.stats.messages.to_string(),
        ]);
    }
    Ok(t)
}

/// Beyond-paper: distributed payment audit (the paper's future work).
///
/// # Errors
/// Propagates protocol/mechanism errors.
pub fn audit_demo() -> Result<Table, MechanismError> {
    use lb_proto::audit::{audit_settlement, SettlementRecord};
    let mech = CompensationBonusMechanism::paper();
    let specs: Vec<NodeSpec> = paper_true_values()
        .iter()
        .map(|&t| NodeSpec::truthful(t))
        .collect();
    let config = ProtocolConfig {
        total_rate: PAPER_ARRIVAL_RATE,
        link_latency: 0.001,
        simulation: SimulationConfig {
            horizon: 300.0,
            seed: 42,
            model: ServiceModel::StationaryDeterministic,
            workload: Default::default(),
            warmup: 0.0,
            estimator: EstimatorConfig::default(),
        },
    };
    let outcome = run_round(&RoundSpec::new(&mech, &specs, config))
        .map_err(ProtocolError::into_mechanism)?
        .outcome;
    let mut record = SettlementRecord {
        bids: specs.iter().map(|s| s.bid).collect(),
        estimated_exec_values: outcome.estimated_exec_values.clone(),
        total_rate: PAPER_ARRIVAL_RATE,
        claimed_payments: outcome.payments,
    };
    let mut t = Table::new(&[
        "Settlement",
        "All verified",
        "Disputed machines",
        "Max discrepancy",
    ]);
    let honest = audit_settlement(&mech, &record, 1e-9)?;
    t.row(&[
        "honest coordinator".into(),
        honest.all_verified().to_string(),
        format!("{:?}", honest.disputed()),
        format!("{:.2e}", honest.max_discrepancy),
    ]);
    record.claimed_payments[4] -= 1.0; // skim machine 5
    let tampered = audit_settlement(&mech, &record, 1e-6)?;
    t.row(&[
        "skims C5 by 1.0".into(),
        tampered.all_verified().to_string(),
        format!("{:?}", tampered.disputed()),
        format!("{:.2e}", tampered.max_discrepancy),
    ]);
    Ok(t)
}

/// Beyond-paper: ε-greedy learners discovering truthfulness.
///
/// # Errors
/// Propagates mechanism errors.
pub fn learning_demo() -> Result<Table, MechanismError> {
    use lb_agents::adaptive::repeated_play;
    use lb_agents::game::consistent_strategy_menu;
    let trues = [1.0, 2.0, 5.0, 10.0];
    let menu = consistent_strategy_menu();
    let mech = CompensationBonusMechanism::paper();
    let mut t = Table::new(&[
        "Rounds",
        "Agents on truthful arm",
        "Truthful-arm play share",
        "Late latency / L*",
    ]);
    let optimal = lb_core::optimal_latency_linear(&trues, 10.0)?;
    for rounds in [200u32, 1_000, 4_000] {
        let report = repeated_play(&mech, &trues, 10.0, &menu, rounds, 0.1, 7)?;
        let on_truth = report.best_arms.iter().filter(|&&a| a == 0).count();
        let share: f64 = report
            .pulls
            .iter()
            .map(|p| p[0] as f64 / p.iter().sum::<u64>() as f64)
            .sum::<f64>()
            / report.pulls.len() as f64;
        t.row(&[
            rounds.to_string(),
            format!("{on_truth}/{}", trues.len()),
            format!("{share:.2}"),
            format!("{:.3}", report.late_mean_latency / optimal),
        ]);
    }
    Ok(t)
}

/// Beyond-paper: the generalized mechanism on M/M/1 latencies.
///
/// # Errors
/// Propagates mechanism errors.
pub fn mm1_demo() -> Result<Table, MechanismError> {
    use lb_mechanism::{GeneralizedCompensationBonus, Mm1Family};
    let gen = GeneralizedCompensationBonus::new(Mm1Family);
    // Mean service times 1/mu; capacities mu = [10, 5, 2].
    let sys = lb_core::System::from_true_values(&[0.1, 0.2, 0.5]).map_err(MechanismError::from)?;
    let rate = 5.0;
    let mut t = Table::new(&["Scenario", "x1", "x2", "x3", "U1", "U2", "U3"]);
    for (name, bid_f, exec_f) in [
        ("truthful", 1.0, 1.0),
        ("C1 bids 1.5x", 1.5, 1.0),
        ("C1 lazy 1.5x", 1.0, 1.5),
    ] {
        let profile = Profile::with_deviation(&sys, rate, 0, bid_f, exec_f)?;
        let out = run_mechanism(&gen, &profile)?;
        t.row(&[
            name.into(),
            f2(out.allocation.rate(0)),
            f2(out.allocation.rate(1)),
            f2(out.allocation.rate(2)),
            f2(out.utilities[0]),
            f2(out.utilities[1]),
            f2(out.utilities[2]),
        ]);
    }
    Ok(t)
}

/// Beyond-paper: bursty (MMPP) workloads and the estimator.
///
/// # Errors
/// Propagates simulation errors.
pub fn bursty_demo() -> Result<Table, MechanismError> {
    use lb_sim::workload::WorkloadModel;
    let trues = paper_true_values();
    let mut t = Table::new(&["Workload", "Service model", "Max |t~ error| (rel)"]);
    for (wname, workload) in [
        ("poisson", WorkloadModel::Poisson),
        (
            "bursty 8x",
            WorkloadModel::Bursty {
                burstiness: 8.0,
                dwell_means: [50.0, 10.0],
            },
        ),
    ] {
        for (sname, model) in [
            ("stationary-exp", ServiceModel::StationaryExponential),
            ("mm1-queue", ServiceModel::Mm1Queue),
        ] {
            let config = SimulationConfig {
                horizon: 10_000.0,
                seed: 33,
                model,
                workload,
                warmup: if matches!(model, ServiceModel::Mm1Queue) {
                    1_000.0
                } else {
                    0.0
                },
                estimator: EstimatorConfig::default(),
            };
            let report =
                lb_sim::driver::simulate_round(&trues, &trues, PAPER_ARRIVAL_RATE, &config)?;
            let err = report
                .estimated_exec_values
                .iter()
                .zip(&trues)
                .map(|(e, t)| (e - t).abs() / t)
                .fold(0.0, f64::max);
            t.row(&[wname.into(), sname.into(), format!("{err:.3}")]);
        }
    }
    Ok(t)
}

/// Beyond-paper: dynamic (time-varying) load — is per-epoch reallocation
/// worth it?
///
/// For the paper's *linear* latencies the PR shares are load-independent, so
/// static shares are exactly optimal at every epoch (adaptation benefit 0 —
/// the scale-invariance of PR). For capacitated M/M/1 latencies the optimal
/// shares shift with load, and the benefit of re-solving per epoch grows
/// with load variability.
///
/// # Errors
/// Propagates solver errors.
pub fn dynamic_demo() -> Result<Table, MechanismError> {
    use lb_core::latency::{LatencyFunction, Linear, Mm1};
    use lb_core::{solve_convex, ConvexSolverOptions};

    fn weighted_latency<F: LatencyFunction>(
        fns: &[F],
        epochs: &[(f64, f64)],
        static_shares: Option<&[f64]>,
    ) -> Result<f64, MechanismError> {
        let mut total = 0.0;
        let mut time = 0.0;
        for &(duration, rate) in epochs {
            let rates: Vec<f64> = match static_shares {
                Some(shares) => shares.iter().map(|s| s * rate).collect(),
                None => {
                    let refs: Vec<&F> = fns.iter().collect();
                    solve_convex(&refs, rate, ConvexSolverOptions::default())?
                        .rates()
                        .to_vec()
                }
            };
            let l: f64 = rates.iter().zip(fns).map(|(&x, f)| f.total(x)).sum();
            total += duration * l;
            time += duration;
        }
        Ok(total / time)
    }

    let mut t = Table::new(&[
        "Latency family",
        "Load swing",
        "L (static shares)",
        "L (per-epoch)",
        "Adaptation benefit",
    ]);

    for &(label, lo, hi) in &[
        ("calm (15..25)", 15.0, 25.0),
        ("mild (10..30)", 10.0, 30.0),
        ("wild (4..36)", 4.0, 36.0),
    ] {
        let epochs = [(1.0, lo), (1.0, hi)];
        let mean_rate = 0.5 * (lo + hi);

        // Linear family: paper's model — shares are load-invariant.
        let lin: Vec<Linear> = paper_true_values()
            .iter()
            .map(|&v| Linear::new(v))
            .collect();
        let refs: Vec<&Linear> = lin.iter().collect();
        let base = solve_convex(&refs, mean_rate, ConvexSolverOptions::default())?;
        let shares: Vec<f64> = base.rates().iter().map(|x| x / mean_rate).collect();
        let l_static = weighted_latency(&lin, &epochs, Some(&shares))?;
        let l_dynamic = weighted_latency(&lin, &epochs, None)?;
        t.row(&[
            "linear".into(),
            label.into(),
            f2(l_static),
            f2(l_dynamic),
            pct((l_static - l_dynamic) / l_static),
        ]);

        // M/M/1 family: shares shift with load.
        let mus = [12.0, 12.0, 8.0, 8.0, 6.0, 4.0];
        let mm1: Vec<Mm1> = mus.iter().map(|&m| Mm1::new(m)).collect();
        let refs: Vec<&Mm1> = mm1.iter().collect();
        let base = solve_convex(&refs, mean_rate, ConvexSolverOptions::default())?;
        let shares: Vec<f64> = base.rates().iter().map(|x| x / mean_rate).collect();
        let l_static = weighted_latency(&mm1, &epochs, Some(&shares))?;
        let l_dynamic = weighted_latency(&mm1, &epochs, None)?;
        t.row(&[
            "mm1".into(),
            label.into(),
            f2(l_static),
            f2(l_dynamic),
            pct((l_static - l_dynamic) / l_static),
        ]);
    }
    Ok(t)
}

/// Beyond-paper: the paper's own conjecture — "we expect even larger
/// increase if more than one computer does not report its true value".
/// Sweeps the number of simultaneous liars (bid 3t, execute at the bid).
///
/// # Errors
/// Propagates mechanism errors.
pub fn multi_liar_demo() -> Result<Table, MechanismError> {
    let sys = paper_system();
    let trues = sys.true_values();
    let mech = CompensationBonusMechanism::paper();
    let optimal = lb_core::optimal_latency_linear(&trues, PAPER_ARRIVAL_RATE)?;
    let mut t = Table::new(&[
        "Liars (k)",
        "Total latency",
        "vs True1",
        "Mean liar utility drop",
    ]);
    let truthful = run_mechanism(&mech, &Profile::truthful(&sys, PAPER_ARRIVAL_RATE)?)?;
    for k in [0usize, 1, 2, 4, 8, 16] {
        let mut bids = trues.clone();
        let mut exec = trues.clone();
        for i in 0..k {
            bids[i] = trues[i] * 3.0;
            exec[i] = trues[i] * 3.0;
        }
        let profile = Profile::new(trues.clone(), bids, exec, PAPER_ARRIVAL_RATE)?;
        let out = run_mechanism(&mech, &profile)?;
        let drop = if k == 0 {
            0.0
        } else {
            (0..k)
                .map(|i| 1.0 - out.utilities[i] / truthful.utilities[i])
                .sum::<f64>()
                / k as f64
        };
        t.row(&[
            k.to_string(),
            f2(out.total_latency),
            pct((out.total_latency - optimal) / optimal),
            pct(drop),
        ]);
    }
    Ok(t)
}

/// Beyond-paper: utility of C1 as a function of its lie magnitude — the
/// single-peaked "figure 7" showing the maximum at the truthful bid.
///
/// # Errors
/// Propagates mechanism errors.
pub fn sensitivity_demo() -> Result<Table, MechanismError> {
    let sys = paper_system();
    let mech = CompensationBonusMechanism::paper();
    let mut t = Table::new(&[
        "Bid factor",
        "C1 utility (full speed)",
        "C1 utility (exec = bid)",
    ]);
    for &f in &[0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0] {
        let fast = Profile::with_deviation(&sys, PAPER_ARRIVAL_RATE, 0, f, 1.0)?;
        let consistent = Profile::with_deviation(&sys, PAPER_ARRIVAL_RATE, 0, f, f.max(1.0))?;
        t.row(&[
            format!("{f:.2}"),
            f2(run_mechanism(&mech, &fast)?.utilities[0]),
            f2(run_mechanism(&mech, &consistent)?.utilities[0]),
        ]);
    }
    Ok(t)
}

/// Beyond-paper: machine churn across rounds — C1 leaving and a new fast
/// machine joining, with the payments shifting accordingly.
///
/// # Errors
/// Propagates protocol errors.
pub fn churn_demo() -> Result<Table, MechanismError> {
    let mech = CompensationBonusMechanism::paper();
    let config = ProtocolConfig {
        total_rate: PAPER_ARRIVAL_RATE,
        link_latency: 0.001,
        simulation: SimulationConfig {
            horizon: 300.0,
            seed: 55,
            model: ServiceModel::StationaryDeterministic,
            workload: Default::default(),
            warmup: 0.0,
            estimator: EstimatorConfig::default(),
        },
    };
    let base = paper_true_values();
    let rounds: Vec<(&str, Vec<f64>)> = vec![
        ("16 machines (Table 1)", base.clone()),
        ("C1 leaves (15)", base[1..].to_vec()),
        ("fast t=0.5 joins (16)", {
            let mut v = base[1..].to_vec();
            v.insert(0, 0.5);
            v
        }),
    ];
    let mut t = Table::new(&["Round", "n", "Total latency", "Fastest machine's payment"]);
    for (name, trues) in rounds {
        let specs: Vec<NodeSpec> = trues.iter().map(|&v| NodeSpec::truthful(v)).collect();
        let out = run_round(&RoundSpec::new(&mech, &specs, config))
            .map_err(ProtocolError::into_mechanism)?
            .outcome;
        let latency: f64 = out
            .rates
            .iter()
            .zip(&out.estimated_exec_values)
            .map(|(&x, &e)| e * x * x)
            .sum();
        // The fastest machine is the one with the smallest true value.
        let fastest = trues
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
            .expect("non-empty");
        t.row(&[
            name.into(),
            trues.len().to_string(),
            f2(latency),
            f2(out.payments[fastest]),
        ]);
    }
    Ok(t)
}

/// Beyond-paper: the deficit/participation trade-off of fee-adjusted
/// payments (own-bid-independent fees preserve truthfulness exactly).
///
/// # Errors
/// Propagates mechanism errors.
pub fn fees_demo() -> Result<Table, MechanismError> {
    use lb_mechanism::FeeAdjusted;
    let sys = paper_system();
    let trues = sys.true_values();
    let profile = Profile::truthful(&sys, PAPER_ARRIVAL_RATE)?;
    let break_even =
        FeeAdjusted::<CompensationBonusMechanism>::break_even_fraction(&trues, PAPER_ARRIVAL_RATE)?;
    let mut t = Table::new(&[
        "Fee fraction",
        "Total payment",
        "Deficit (payment - valuation)",
        "Min truthful utility",
    ]);
    for &fraction in &[0.0, 0.5 * break_even, break_even, 1.5 * break_even] {
        let mech = FeeAdjusted::new(CompensationBonusMechanism::paper(), fraction);
        let out = run_mechanism(&mech, &profile)?;
        let min_u = out.utilities.iter().copied().fold(f64::INFINITY, f64::min);
        t.row(&[
            format!("{fraction:.3}"),
            f2(out.total_payment()),
            f2(out.total_payment() - out.total_valuation_abs()),
            f2(min_u),
        ]);
    }
    Ok(t)
}

/// Beyond-paper: per-job latency *percentiles* per experiment — the paper
/// reports only means, but SLOs are tail quantiles. Streams every simulated
/// completion into one [`lb_stats::LatencySketch`] (O(1) memory) and reads its
/// p50/p95/p99.
///
/// # Errors
/// Propagates simulation errors.
pub fn percentiles_demo() -> Result<Table, MechanismError> {
    use lb_stats::LatencySketch;
    let mut t = Table::new(&["Experiment", "p50", "p95", "p99", "mean (= L/R)"]);
    for spec in paper_experiments() {
        let profile = crate::paper::experiment_profile(&spec)?;
        let config = SimulationConfig {
            horizon: 3_000.0,
            seed: 17,
            model: ServiceModel::StationaryExponential,
            workload: Default::default(),
            warmup: 0.0,
            estimator: EstimatorConfig::default(),
        };
        let report = lb_sim::driver::simulate_round(
            profile.bids(),
            profile.exec_values(),
            PAPER_ARRIVAL_RATE,
            &config,
        )?;
        // Re-generate the responses percentile-wise: reuse the recorded
        // per-machine means for the mean column and stream quantiles over a
        // fresh simulation pass at the same seed (same trajectories).
        let mut sketch = LatencySketch::new();
        let mut total_jobs = 0u64;
        let mut weighted_mean = 0.0;
        for obs in &report.observations {
            total_jobs += obs.response.count();
            weighted_mean += obs.response.sum();
        }
        // Stream actual response samples for quantiles.
        let traces = lb_sim::workload::per_machine_traces(
            report.allocation.rates(),
            config.horizon,
            config.seed,
        );
        let streams = lb_stats::rng::Xoshiro256StarStar::seed_from_u64(
            config.seed ^ lb_sim::driver::RESPONSE_STREAM_SALT,
        )
        .streams(0);
        for ((i, trace), mut rng) in traces.iter().enumerate().zip(streams) {
            let arrivals: Vec<f64> = trace.iter().map(|j| j.arrival).collect();
            let responses = config.model.responses(
                &arrivals,
                profile.exec_values()[i],
                report.allocation.rate(i),
                &mut rng,
            );
            for r in responses {
                sketch.record(r);
            }
        }
        let mean = weighted_mean / total_jobs.max(1) as f64;
        t.row(&[
            spec.name.into(),
            f2(sketch.quantile(0.5)),
            f2(sketch.quantile(0.95)),
            f2(sketch.quantile(0.99)),
            f2(mean),
        ]);
    }
    Ok(t)
}

/// Beyond-paper: classical allocation baselines vs the PR optimum.
///
/// # Errors
/// Propagates allocation errors.
pub fn baselines_demo() -> Result<Table, MechanismError> {
    use lb_core::baselines::{equal_split, penalty_vs_optimal, weighted_round_robin};
    let values = paper_true_values();
    let mut t = Table::new(&["Policy", "Total latency", "vs PR optimum"]);
    let opt = lb_core::optimal_latency_linear(&values, PAPER_ARRIVAL_RATE)?;
    t.row(&["PR (Theorem 2.1)".into(), f2(opt), pct(0.0)]);
    let eq = equal_split(values.len(), PAPER_ARRIVAL_RATE)?;
    let l = lb_core::total_latency_linear(&eq, &values)?;
    t.row(&[
        "equal split".into(),
        f2(l),
        pct(penalty_vs_optimal(&eq, &values, PAPER_ARRIVAL_RATE)?),
    ]);
    for cycle in [16u32, 128, 1024] {
        let wrr = weighted_round_robin(&values, PAPER_ARRIVAL_RATE, cycle)?;
        let l = lb_core::total_latency_linear(&wrr, &values)?;
        t.row(&[
            format!("weighted round-robin (cycle {cycle})"),
            f2(l),
            pct(penalty_vs_optimal(&wrr, &values, PAPER_ARRIVAL_RATE)?),
        ]);
    }
    Ok(t)
}

/// Simulated (pipeline) reproduction of Figure 1: each experiment through
/// the discrete-event simulator with stochastic service.
///
/// # Errors
/// Propagates mechanism/simulation errors.
pub fn figure1_simulated(horizon: f64, seed: u64) -> Result<Table, MechanismError> {
    let config = SimulationConfig {
        horizon,
        seed,
        model: ServiceModel::StationaryExponential,
        workload: Default::default(),
        warmup: 0.0,
        estimator: EstimatorConfig::default(),
    };
    let optimal = lb_core::optimal_latency_linear(&paper_true_values(), PAPER_ARRIVAL_RATE)?;
    let mut t = Table::new(&[
        "Experiment",
        "L (analytic)",
        "L (simulated)",
        "vs True1 (sim)",
    ]);
    for spec in paper_experiments() {
        let analytic = run_experiment(&spec)?;
        let sim = crate::paper::run_experiment_simulated(&spec, &config)?;
        t.row(&[
            spec.name.into(),
            f2(analytic.total_latency),
            f2(sim.total_latency),
            pct((sim.total_latency - optimal) / optimal),
        ]);
    }
    Ok(t)
}

/// Observability demo: a chaotic multi-round session recorded end-to-end by
/// a telemetry ring, rendered as a protocol timeline plus the metrics
/// snapshot derived from the same recording. A small 4-machine system keeps
/// the timeline readable.
///
/// # Errors
/// Propagates mechanism errors from the session.
pub fn telemetry_demo() -> Result<String, MechanismError> {
    use lb_proto::{run_chaos_session, ChaosConfig, ChaosSessionConfig, Observers};
    use lb_telemetry::{render_timeline, MetricsRegistry, RingCollector};
    use std::sync::Arc;

    let config = ProtocolConfig {
        // Feasible for every >= 2-machine subset, so chaotic exclusions
        // never make the allocation itself infeasible.
        total_rate: 0.8,
        link_latency: 0.001,
        simulation: SimulationConfig {
            horizon: 300.0,
            seed: 9,
            model: ServiceModel::StationaryDeterministic,
            workload: Default::default(),
            warmup: 0.0,
            estimator: EstimatorConfig::default(),
        },
    };
    let session = ChaosSessionConfig::new(3, ChaosConfig::heavy(11));
    let trues = [1.0, 1.0, 2.0, 2.0];
    let ring = Arc::new(RingCollector::new(65_536));
    run_chaos_session(
        &CompensationBonusMechanism::paper(),
        &config,
        &session,
        |_, _| trues.iter().map(|&t| NodeSpec::truthful(t)).collect(),
        &Observers {
            collector: ring.clone(),
            ..Observers::default()
        },
        None,
    )?;

    let events = ring.snapshot();
    let mut registry = MetricsRegistry::new();
    registry.ingest(&events);
    let mut out = render_timeline(&events);
    out.push('\n');
    out.push_str(&registry.snapshot().to_text());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render_expected_row_counts() {
        assert_eq!(table1().len(), 4);
        assert_eq!(table2().len(), 8);
        assert_eq!(figure1().unwrap().len(), 8);
        assert_eq!(figure2().unwrap().len(), 8);
        assert_eq!(per_computer_figure("True1").unwrap().len(), 16);
        let (sweep, per_exp) = figure6().unwrap();
        assert_eq!(sweep.len(), 10);
        assert_eq!(per_exp.len(), 8);
    }

    #[test]
    fn unknown_experiment_is_an_error() {
        assert!(per_computer_figure("True9").is_err());
    }

    #[test]
    fn message_counts_are_linear() {
        let t = message_counts().unwrap();
        assert_eq!(t.len(), 6);
        let s = t.render();
        // Every row shows 5.0 messages per node.
        assert_eq!(s.matches("5.0").count(), 6, "{s}");
    }

    #[test]
    fn ablation_tables_build() {
        assert_eq!(ablation_verification().unwrap().len(), 8);
        let t = ablation_estimator().unwrap();
        assert_eq!(t.len(), 9);
    }

    #[test]
    fn multi_liar_degradation_is_monotone() {
        // The paper's conjecture, checked: more liars, more degradation.
        let t = multi_liar_demo().unwrap();
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn sensitivity_peaks_at_truth() {
        let t = sensitivity_demo().unwrap();
        assert_eq!(t.len(), 8);
    }

    #[test]
    fn churn_table_builds() {
        assert_eq!(churn_demo().unwrap().len(), 3);
    }

    #[test]
    fn telemetry_demo_renders_spans_and_counters() {
        let s = telemetry_demo().unwrap();
        assert!(s.contains("phase.collect_bids"), "{s}");
        assert!(s.contains("net.messages"), "{s}");
    }

    #[test]
    fn baselines_table_builds() {
        let t = baselines_demo().unwrap();
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn percentiles_table_builds_and_orders() {
        let t = percentiles_demo().unwrap();
        assert_eq!(t.len(), 8);
    }

    #[test]
    fn fees_table_shows_the_tradeoff() {
        let t = fees_demo().unwrap();
        assert_eq!(t.len(), 4);
        let s = t.render();
        // Beyond break-even some truthful agent goes negative.
        assert!(s.contains('-'), "{s}");
    }

    #[test]
    fn figure_charts_render() {
        let c = figure1_chart().unwrap();
        assert_eq!(c.len(), 8);
        let s = c.render();
        assert!(s.contains("True1") && s.contains("Low2"));
        let (p, u) = figure2_chart().unwrap();
        // Low2's negative payment must produce a left-growing bar.
        assert!(p.render().contains("-19.40"));
        assert!(u.render().contains("-32.51"));
    }

    #[test]
    fn extension_tables_build_with_expected_shapes() {
        assert_eq!(fault_tolerance().unwrap().len(), 4);
        assert_eq!(audit_demo().unwrap().len(), 2);
        assert_eq!(mm1_demo().unwrap().len(), 3);
        assert_eq!(dynamic_demo().unwrap().len(), 6);
    }

    #[test]
    fn dynamic_adaptation_benefit_is_zero_for_linear_and_grows_for_mm1() {
        let t = dynamic_demo().unwrap();
        let s = t.render();
        // Every linear row shows +0.0% benefit (PR scale invariance).
        assert_eq!(s.matches("+0.0%").count(), 3, "{s}");
        // The wild-swing M/M/1 row shows a double-digit benefit.
        assert!(s.contains("wild"), "{s}");
    }

    #[test]
    fn simulated_figure1_tracks_analytic_shape() {
        let t = figure1_simulated(2_000.0, 3).unwrap();
        assert_eq!(t.len(), 8);
    }
}
