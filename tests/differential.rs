//! Differential property tests: independent implementations of the same
//! quantity must agree on random inputs.
//!
//! * protocol runtime ⇔ direct mechanism evaluation,
//! * PR closed form ⇔ KKT solver,
//! * capped allocation ⇔ unconstrained PR when caps are loose,
//! * analytic frugality ⇔ empirical frugality,
//! * chaos transport at zero fault probability ⇔ reliable transports
//!   (simulated and sharded on worker threads), bit for bit,
//! * a declarative fault plan ⇔ chaos without retransmission ⇔ the sharded
//!   topology, bit for bit, with a closed-form message count,
//! * every transport ⇔ with and without observers, bit for bit,
//! * every chaos trace ⇔ clean `replay_check`,
//! * every settle entry point ⇔ digests pinned before the one-pass settle
//!   kernel landed.

use lb_stats::prop;
use lb_stats::rng::SplitMix64;
use lb_stats::{prop_assert, prop_assert_eq, Rng, Xoshiro256StarStar};
use lbmv::audit::{InvariantMonitor, MonitorConfig};
use lbmv::core::{
    inv_sum_dd, merge_inv_sums, pr_allocate, pr_allocate_capped, solve_convex, ConvexSolverOptions,
    LeaveOneOut, Linear, System, TwoF64,
};
use lbmv::mechanism::{
    run_mechanism, CompensationBonusMechanism, MechanismOutcome, OnlinePool, Profile,
    VerifiedMechanism,
};
use lbmv::proto::{
    drive_sharded_round, encode, replay_check, run_chaos_session, run_round, shard_ranges,
    ChaosConfig, ChaosNetStats, ChaosSessionConfig, Coordinator, CrashPlan, FaultPlan, Journal,
    MemJournal, Message, MessageStats, NodeSpec, Observers, ProtocolConfig, ProtocolError,
    ProtocolOutcome, RoundId, RoundReport, RoundSpec, Transport,
};
use lbmv::sim::driver::{verified_round, SimulationConfig};
use lbmv::sim::server::ServiceModel;
use lbmv::telemetry::{noop_collector, Collector, RingCollector, Sampler};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

fn proto_config() -> ProtocolConfig {
    ProtocolConfig {
        total_rate: 0.0, // overwritten per case
        link_latency: 0.0005,
        simulation: SimulationConfig {
            horizon: 100.0,
            seed: 99,
            model: ServiceModel::StationaryDeterministic,
            workload: Default::default(),
            warmup: 0.0,
            estimator: Default::default(),
        },
    }
}

/// The full message-passing protocol and the direct mechanism evaluation
/// agree on payments and utilities for random systems and deviations.
#[test]
fn prop_protocol_equals_mechanism() {
    prop::check(
        "prop_protocol_equals_mechanism",
        24,
        (
            prop::vec(0.2f64..8.0, 2..10),
            0.3f64..4.0,
            1.0f64..3.0,
            1.0f64..40.0,
        ),
        |(trues, bid_factor, exec_factor, rate)| {
            let mech = CompensationBonusMechanism::paper();
            let mut specs: Vec<NodeSpec> = trues.iter().map(|&t| NodeSpec::truthful(t)).collect();
            specs[0] = NodeSpec::strategic(trues[0], trues[0] * bid_factor, trues[0] * exec_factor);

            let mut config = proto_config();
            config.total_rate = rate;
            let proto = run_round(&RoundSpec::new(&mech, &specs, config))
                .map(|r| r.outcome)
                .unwrap();

            let sys = lbmv::core::System::from_true_values(&trues).unwrap();
            let profile = Profile::with_deviation(&sys, rate, 0, bid_factor, exec_factor).unwrap();
            let direct = run_mechanism(&mech, &profile).unwrap();

            for i in 0..trues.len() {
                prop_assert!((proto.rates[i] - direct.allocation.rate(i)).abs() < 1e-9);
                prop_assert!(
                    (proto.payments[i] - direct.payments[i]).abs() < 1e-6,
                    "payment {}: {} vs {}",
                    i,
                    proto.payments[i],
                    direct.payments[i]
                );
                prop_assert!((proto.utilities[i] - direct.utilities[i]).abs() < 1e-6);
            }
            Ok(())
        },
    );
}

/// Loose caps make the capped allocator and plain PR identical; the KKT
/// solver agrees with both.
#[test]
fn prop_three_allocators_agree() {
    prop::check(
        "prop_three_allocators_agree",
        24,
        (prop::vec(0.1f64..10.0, 1..10), 0.5f64..50.0),
        |(values, rate)| {
            let pr = pr_allocate(&values, rate).unwrap();
            let caps = vec![rate * 2.0; values.len()];
            let capped = pr_allocate_capped(&values, &caps, rate).unwrap();
            let fns: Vec<Linear> = values.iter().map(|&t| Linear::new(t)).collect();
            let refs: Vec<&Linear> = fns.iter().collect();
            let kkt = solve_convex(&refs, rate, ConvexSolverOptions::default()).unwrap();
            for i in 0..values.len() {
                prop_assert!((pr.rate(i) - capped.rate(i)).abs() < 1e-9);
                prop_assert!((pr.rate(i) - kkt.rate(i)).abs() < 1e-6 * pr.rate(i).max(1.0));
            }
            Ok(())
        },
    );
}

/// Analytic frugality formulas match the mechanism on uniform systems.
#[test]
fn prop_uniform_frugality_formulas() {
    prop::check(
        "prop_uniform_frugality_formulas",
        24,
        (2usize..24, 0.2f64..8.0, 0.5f64..30.0),
        |(n, t, rate)| {
            use lbmv::mechanism::metrics::{
                analytic_frugality_uniform_contributed, analytic_frugality_uniform_per_job,
                frugality_ratio,
            };
            let sys = lbmv::core::System::from_true_values(&vec![t; n]).unwrap();
            let profile = Profile::truthful(&sys, rate).unwrap();

            let contributed =
                run_mechanism(&CompensationBonusMechanism::contributed(), &profile).unwrap();
            prop_assert!(
                (frugality_ratio(&contributed) - analytic_frugality_uniform_contributed(n)).abs()
                    < 1e-9
            );
            let per_job = run_mechanism(&CompensationBonusMechanism::paper(), &profile).unwrap();
            prop_assert!(
                (frugality_ratio(&per_job) - analytic_frugality_uniform_per_job(n, rate)).abs()
                    < 1e-9
            );
            Ok(())
        },
    );
}

/// With every fault probability at zero the chaos runtime is bit-identical
/// to both reliable runtimes: the simulated network (same frames, same
/// clock, same floats) and the concurrent sharded topology.
#[test]
fn prop_zero_fault_chaos_equals_reliable_runtimes() {
    prop::check(
        "prop_zero_fault_chaos_equals_reliable_runtimes",
        24,
        (
            prop::vec(0.2f64..8.0, 2..10),
            0.3f64..4.0,
            1.0f64..40.0,
            0u64..1000,
        ),
        |(trues, bid_factor, rate, chaos_seed)| {
            let mech = CompensationBonusMechanism::paper();
            let mut specs: Vec<NodeSpec> = trues.iter().map(|&t| NodeSpec::truthful(t)).collect();
            specs[0] = NodeSpec::strategic(trues[0], trues[0] * bid_factor, trues[0]);

            let mut config = proto_config();
            config.total_rate = rate;
            let round = |transport: Transport| {
                run_round(&RoundSpec {
                    transport,
                    ..RoundSpec::new(&mech, &specs, config)
                })
                .unwrap()
            };
            let reliable = round(RoundSpec::new(&mech, &specs, config).transport).outcome;
            let sharded = round(Transport::Sharded { shards: 3 }).outcome;
            let chaos = round(Transport::Chaos(ChaosConfig::reliable(chaos_seed)));

            prop_assert_eq!(chaos.retries, 0);
            prop_assert_eq!(chaos.anomalies.total(), 0);
            for i in 0..trues.len() {
                // Exact equality: identical message schedule implies identical
                // estimator inputs, hence identical f64 results.
                prop_assert_eq!(chaos.outcome.rates[i], reliable.rates[i]);
                prop_assert_eq!(chaos.outcome.payments[i], reliable.payments[i]);
                prop_assert_eq!(chaos.outcome.utilities[i], reliable.utilities[i]);
                prop_assert_eq!(
                    chaos.outcome.estimated_exec_values[i],
                    reliable.estimated_exec_values[i]
                );
                prop_assert_eq!(chaos.outcome.rates[i], sharded.rates[i]);
                prop_assert_eq!(chaos.outcome.payments[i], sharded.payments[i]);
                prop_assert_eq!(chaos.outcome.utilities[i], sharded.utilities[i]);
                prop_assert_eq!(
                    chaos.outcome.estimated_exec_values[i],
                    sharded.estimated_exec_values[i]
                );
            }
            prop_assert_eq!(chaos.outcome.stats.messages, reliable.stats.messages);
            prop_assert_eq!(chaos.outcome.stats.bytes, reliable.stats.bytes);
            Ok(())
        },
    );
}

/// Every trace the chaos runtime emits — under arbitrary fault pressure —
/// passes the replay checker: the coordinator's-eye view of the round is
/// always causally and temporally consistent.
#[test]
fn prop_chaos_traces_always_replay_cleanly() {
    prop::check(
        "prop_chaos_traces_always_replay_cleanly",
        24,
        (
            prop::vec(0.2f64..8.0, 3..10),
            1.0f64..40.0,
            0u64..1000,
            0.0f64..0.3,
            0.0f64..0.3,
            0.0f64..0.3,
        ),
        |(trues, rate, chaos_seed, drop_prob, duplicate_prob, corrupt_prob)| {
            let mech = CompensationBonusMechanism::paper();
            let specs: Vec<NodeSpec> = trues.iter().map(|&t| NodeSpec::truthful(t)).collect();

            let mut config = proto_config();
            config.total_rate = rate;
            let mut chaos_cfg = ChaosConfig::reliable(chaos_seed);
            chaos_cfg.drop_prob = drop_prob;
            chaos_cfg.duplicate_prob = duplicate_prob;
            chaos_cfg.corrupt_prob = corrupt_prob;
            chaos_cfg.jitter = 0.004;

            let spec = RoundSpec {
                transport: Transport::Chaos(chaos_cfg),
                ..RoundSpec::new(&mech, &specs, config)
            };
            match run_round(&spec) {
                Ok(report) => {
                    let violations = replay_check(&report.trace, trues.len());
                    prop_assert!(
                        violations.is_empty(),
                        "replay violations under chaos: {:?}",
                        violations
                    );
                }
                // Heavy chaos may legitimately silence too many machines.
                Err(e) => prop_assert!(
                    matches!(
                        e,
                        ProtocolError::Mechanism(lbmv::mechanism::MechanismError::NeedTwoAgents)
                    ),
                    "unexpected error: {e}"
                ),
            }
            Ok(())
        },
    );
}

/// Draws a shard-oracle-shaped fault plan over `n` machines: lost bids,
/// partitions and lost first bid attempts (always leaving two respondents)
/// plus lost acks.
fn fault_plan(seed: u64, n: usize) -> FaultPlan {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut plan = FaultPlan::none();
    let mut bid_budget = n - 2;
    for machine in 0..n as u32 {
        if bid_budget > 0 && rng.next_bool(0.2) {
            bid_budget -= 1;
            match rng.next_below(3) {
                0 => plan.lose_bids_from.push(machine),
                1 => plan.partitioned.push(machine),
                _ => plan
                    .lose_bid_attempts
                    .push((machine, 1 + rng.next_below(3) as u32)),
            }
        } else if rng.next_bool(0.2) {
            plan.lose_acks_from.push(machine);
        }
    }
    plan
}

/// The control traffic a declarative fault plan leaves on the wire: every
/// machine is asked for a bid, every machine the request reaches answers,
/// and every respondent is assigned, acknowledges and is paid. Lost frames
/// are sent (and counted) all the same.
fn fault_plan_traffic(
    plan: &FaultPlan,
    outcome: &ProtocolOutcome,
    excluded: &[bool],
) -> MessageStats {
    let round = RoundId(0);
    let mut frames = Vec::new();
    for (i, &out) in excluded.iter().enumerate() {
        let machine = i as u32;
        frames.push(encode(&Message::RequestBid { round }));
        if !plan.partitioned.contains(&machine) {
            frames.push(encode(&Message::Bid {
                round,
                machine,
                value: 0.0,
            }));
        }
        if !out {
            let rate = outcome.rates[i];
            let amount = outcome.payments[i];
            frames.push(encode(&Message::Assign { round, rate }));
            frames.push(encode(&Message::ExecutionDone { round, machine }));
            frames.push(encode(&Message::Payment { round, amount }));
        }
    }
    MessageStats {
        messages: frames.len() as u64,
        bytes: frames.iter().map(|f| f.len() as u64).sum(),
    }
}

/// A declarative fault plan is a chaos round with retransmission off: with
/// `bid_retries: 0` a lost bid excludes at the first timeout, with no
/// anomalies, and the round settles bit for bit like the sharded topology
/// under the same plan (rates, payments, utilities, estimates, exclusions),
/// with exactly the control traffic the plan leaves on the wire — the
/// sharded round adding one `ShardSum` and one `ShardEstimates` per shard —
/// also when a machine lies, so verification moves its payment.
#[test]
fn prop_fault_plan_equals_chaos_without_retries() {
    prop::check(
        "prop_fault_plan_equals_chaos_without_retries",
        64,
        (
            prop::vec(0.2f64..8.0, 4..13),
            1.0f64..50.0,
            prop::any_u64(),
            prop::any_u64(),
            1usize..6,
        ),
        |(trues, rate, sim_seed, plan_seed, shards)| {
            let mech = CompensationBonusMechanism::paper();
            let mut specs: Vec<NodeSpec> = trues.iter().map(|&t| NodeSpec::truthful(t)).collect();
            // Machine 0 overbids and runs slow: its verification estimate
            // moves its payment, on both topologies alike.
            let t = trues[0];
            specs[0] = NodeSpec::strategic(t, 2.0 * t, 1.5 * t);
            let plan = fault_plan(plan_seed, specs.len());
            let mut config = proto_config();
            config.total_rate = rate;
            config.simulation.seed = sim_seed;

            let chaos = ChaosConfig {
                plan: plan.clone(),
                bid_retries: 0,
                ..ChaosConfig::reliable(sim_seed)
            };
            let report = run_round(&RoundSpec {
                transport: Transport::Chaos(chaos),
                ..RoundSpec::new(&mech, &specs, config)
            })
            .unwrap();

            let mut root =
                Coordinator::try_new(&mech, specs.len(), rate, RoundId(0), config.simulation)
                    .unwrap();
            let (sharded, _) =
                drive_sharded_round(&mut root, &specs, &config, shards, &plan).unwrap();

            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let (o, s) = (&report.outcome, &sharded.outcome);
            prop_assert_eq!(bits(&o.rates), bits(&s.rates));
            prop_assert_eq!(bits(&o.payments), bits(&s.payments));
            prop_assert_eq!(bits(&o.utilities), bits(&s.utilities));
            prop_assert_eq!(
                bits(&o.estimated_exec_values),
                bits(&s.estimated_exec_values)
            );
            prop_assert_eq!(&report.excluded, &sharded.excluded);
            prop_assert_eq!(o.stats, fault_plan_traffic(&plan, o, &report.excluded));
            prop_assert_eq!(
                s.stats.messages,
                o.stats.messages + 2 * shard_ranges(specs.len(), shards).len() as u64
            );
            prop_assert_eq!(report.retries, 0);
            prop_assert_eq!(report.anomalies.total(), 0);
            prop_assert_eq!(sharded.anomalies.total(), 0);
            Ok(())
        },
    );
}

/// What a round must reproduce whatever watches it.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    rates: Vec<u64>,
    payments: Vec<u64>,
    utilities: Vec<u64>,
    estimates: Vec<u64>,
    excluded: Vec<bool>,
    retries: u64,
    anomalies: u64,
    faults: ChaosNetStats,
    messages: u64,
}

fn fingerprint(report: &RoundReport) -> Fingerprint {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let o = &report.outcome;
    Fingerprint {
        rates: bits(&o.rates),
        payments: bits(&o.payments),
        utilities: bits(&o.utilities),
        estimates: bits(&o.estimated_exec_values),
        excluded: report.excluded.clone(),
        retries: report.retries,
        anomalies: report.anomalies.total(),
        faults: report.faults,
        messages: o.stats.messages,
    }
}

/// Observers observe: over every transport (reliable, threads, chaos,
/// sharded) a round with no observers, a recording collector, a collector
/// sampled out by `Sampler::Never` or the invariant monitor settles bit
/// for bit the same: rates, payments,
/// utilities, estimates, exclusions, retries, anomalies, faults and message
/// counts. Byte counts are identical too, except that a recorded round's
/// frames carry the trace-context trailer, which only adds bytes.
/// Journals come out byte-identical in every case.
#[test]
fn prop_observers_are_inert_on_every_transport() {
    prop::check(
        "prop_observers_are_inert_on_every_transport",
        6,
        (prop::vec(0.2f64..8.0, 3..9), 1.0f64..40.0, 0u64..1000),
        |(trues, rate, seed)| {
            let mech = CompensationBonusMechanism::paper();
            let specs: Vec<NodeSpec> = trues.iter().map(|&t| NodeSpec::truthful(t)).collect();
            let n = specs.len();
            let mut config = proto_config();
            config.total_rate = rate;
            // The invariant monitor over a disabled collector comes last.
            let arms = |ring: &Arc<RingCollector>, monitor: &Arc<InvariantMonitor>| {
                [
                    Observers::default(),
                    Observers {
                        collector: ring.clone(),
                        ..Observers::default()
                    },
                    Observers {
                        collector: ring.clone(),
                        sampler: Sampler::Never,
                    },
                    Observers {
                        collector: monitor.clone() as Arc<dyn Collector>,
                        ..Observers::default()
                    },
                ]
            };
            let monitor = || {
                Arc::new(InvariantMonitor::new(
                    noop_collector(),
                    MonitorConfig::default(),
                ))
            };

            for transport in [
                RoundSpec::new(&mech, &specs, config).transport,
                Transport::Chaos(ChaosConfig::heavy(seed)),
                Transport::Sharded { shards: 3 },
            ] {
                let ring = Arc::new(RingCollector::new(1 << 16));
                let watcher = monitor();
                let runs: Vec<_> = arms(&ring, &watcher)
                    .into_iter()
                    .map(|observers| {
                        let spec = RoundSpec {
                            transport: transport.clone(),
                            observers,
                            ..RoundSpec::new(&mech, &specs, config)
                        };
                        run_round(&spec).map_err(|e| e.to_string())
                    })
                    .collect();
                let plain = &runs[0];
                for (arm, run) in runs.iter().enumerate() {
                    prop_assert!(
                        run.as_ref().map(fingerprint) == plain.as_ref().map(fingerprint),
                        "{:?}: observer arm {}",
                        transport,
                        arm
                    );
                    if let (Ok(run), Ok(plain)) = (run, plain) {
                        let (got, want) = (run.outcome.stats.bytes, plain.outcome.stats.bytes);
                        if arm == 1 {
                            prop_assert!(got > want, "{:?}: trailers add bytes", transport);
                        } else {
                            prop_assert!(got == want, "{:?} arm {}", transport, arm);
                        }
                    }
                }
                // The monitor watched its round while adding no trailer.
                let settled = u64::from(runs.last().is_some_and(Result::is_ok));
                prop_assert_eq!(watcher.stats().rounds, settled);
            }

            // Journals: a durable chaos round and a durable sharded round
            // write the same bytes whatever watches them.
            let ring = Arc::new(RingCollector::new(1 << 16));
            let mut journals = Vec::new();
            for observers in arms(&ring, &monitor()) {
                let journal = CrashPlan::none().journal(Vec::new());
                // One round: the session records it with
                // `observers.round_collector(seed, 0)`.
                let session = ChaosSessionConfig::new(1, ChaosConfig::heavy(seed));
                let chaos = run_chaos_session(
                    &mech,
                    &config,
                    &session,
                    |_, _| specs.clone(),
                    &observers,
                    Some(&journal),
                )
                .map(|report| report.rounds[0].settled().map(fingerprint))
                .map_err(|e| e.to_string());

                let sharded_journal = Rc::new(RefCell::new(MemJournal::new()));
                let mut root = Coordinator::try_new(&mech, n, rate, RoundId(0), config.simulation)
                    .unwrap()
                    .with_journal(sharded_journal.clone())
                    .with_collector(observers.round_collector(config.simulation.seed, 0));
                drive_sharded_round(&mut root, &specs, &config, 3, &FaultPlan::none()).unwrap();
                journals.push((
                    chaos,
                    journal.borrow().bytes().unwrap(),
                    sharded_journal.borrow().bytes().unwrap(),
                ));
            }
            for (arm, journal) in journals.iter().enumerate() {
                prop_assert!(*journal == journals[0], "journal arm {}", arm);
            }
            Ok(())
        },
    );
}

/// Folds the bits of `values` into `h` through SplitMix64's finaliser.
fn fold_bits(h: u64, values: impl IntoIterator<Item = f64>) -> u64 {
    values.into_iter().fold(h, |h, v| {
        let mut z = h ^ v.to_bits();
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    })
}

/// Rates, payments, valuations, utilities and the realised latency.
fn outcome_digest(o: &MechanismOutcome) -> u64 {
    let h = fold_bits(0, o.allocation.rates().iter().copied());
    let h = fold_bits(h, o.payments.iter().copied());
    let h = fold_bits(h, o.valuations.iter().copied());
    let h = fold_bits(h, o.utilities.iter().copied());
    fold_bits(h, [o.total_latency])
}

/// Pins every settle entry point to fixed values rather than to another
/// path that would drift with it: `run_mechanism` under both valuation
/// models, `payments_with_sum` against 1, 3 and 8 merged partial sums,
/// both breakdown components, the leave-one-out batch, a simulated
/// verified round and an online tick.
#[test]
fn golden_settle_digests() {
    let mut g = SplitMix64::new(0x5e771e);
    let trues: Vec<f64> = (0..4096)
        .map(|_| 10f64.powf(-3.0 + 6.0 * g.next_f64()))
        .collect();
    let r = 4096.0;
    let profile =
        Profile::with_deviation(&System::from_true_values(&trues).unwrap(), r, 0, 3.0, 3.0)
            .unwrap();
    let (bids, exec) = (profile.bids(), profile.exec_values());
    let mut got = Vec::new();
    for m in [
        CompensationBonusMechanism::paper(),
        CompensationBonusMechanism::contributed(),
    ] {
        got.push(outcome_digest(&run_mechanism(&m, &profile).unwrap()));
        let alloc = m.allocate(bids, r).unwrap();
        for k in [1, 3, 8] {
            let partials: Vec<TwoF64> = bids
                .chunks(bids.len().div_ceil(k))
                .map(inv_sum_dd)
                .collect();
            let s = merge_inv_sums(&partials);
            got.push(fold_bits(
                0,
                m.payments_with_sum(bids, &alloc, exec, r, s).unwrap(),
            ));
        }
        let breakdown = m.payment_breakdown(bids, &alloc, exec, r).unwrap();
        got.push(fold_bits(
            0,
            breakdown.iter().flat_map(|b| [b.compensation, b.bonus]),
        ));
    }
    let loo = LeaveOneOut::compute(bids, r).unwrap();
    let h = fold_bits(0, [loo.optimal_latency()]);
    let h = fold_bits(h, loo.all_excluding().iter().copied());
    got.push(fold_bits(h, loo.marginals().iter().copied()));

    let small = Profile::with_deviation(
        &System::from_true_values(&trues[..256]).unwrap(),
        256.0,
        0,
        3.0,
        3.0,
    )
    .unwrap();
    let config = SimulationConfig {
        horizon: 20.0,
        seed: 0x5e77,
        model: ServiceModel::StationaryExponential,
        ..SimulationConfig::default()
    };
    let round = verified_round(&CompensationBonusMechanism::paper(), &small, &config).unwrap();
    got.push(outcome_digest(&round.outcome) ^ outcome_digest(&round.oracle_outcome).rotate_left(1));

    let mut pool = OnlinePool::new(r).unwrap();
    for (slot, &t) in trues[..1024].iter().enumerate() {
        pool.join(slot, t).unwrap();
    }
    for slot in (0..1024).step_by(7) {
        pool.leave(slot).unwrap();
    }
    for slot in (1..1024).step_by(5).filter(|s| s % 7 != 0) {
        pool.rate_change(slot, 2.0 * trues[slot]).unwrap();
    }
    let live = pool.live_bids();
    let alloc = pool.allocation().unwrap();
    let pay = CompensationBonusMechanism::paper()
        .payments_with_sum(&live, &alloc, &live, r, pool.harmonic_sum())
        .unwrap();
    got.push(fold_bits(fold_bits(0, alloc.rates().iter().copied()), pay));

    // Computed before the one-pass settle kernel landed.
    let expected: [u64; 13] = [
        0x8cd0_c1c1_88ab_fc54,
        0xfb14_c8c3_d388_d057,
        0xfb14_c8c3_d388_d057,
        0xfb14_c8c3_d388_d057,
        0x1ee4_2e86_6557_6712,
        0x8dfb_902b_300a_fb3d,
        0x631b_947d_0eb1_bdaa,
        0x631b_947d_0eb1_bdaa,
        0x631b_947d_0eb1_bdaa,
        0x3d05_cff5_98ff_da0e,
        0x18fd_76fc_fe44_1f21,
        0x767c_afa9_4041_58e5,
        0x8b58_e58d_2c40_7d62,
    ];
    for (case, (g, e)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(*g, *e, "case {case}: digest {g:#018x}, expected {e:#018x}");
    }
}
