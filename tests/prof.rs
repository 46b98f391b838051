//! End-to-end `lb-prof`: the cross-shard rollup, the critical-path round
//! profiler and the regression sentinel — and above all their **inertness**:
//! a detached, attached or sampling-skipped profiler must leave every
//! runtime's settled outcome bit-identical.

use lbmv::mechanism::CompensationBonusMechanism;
use lbmv::prof::{check, profile_events, Baseline, RoundProfiler, SentinelConfig};
use lbmv::proto::{
    drive_sharded_round, run_round, Coordinator, FaultPlan, NodeSpec, Observers, ProtocolConfig,
    RoundId, RoundReport, RoundSpec, Transport,
};
use lbmv::sim::driver::SimulationConfig;
use lbmv::sim::server::ServiceModel;
use lbmv::stats::{LatencySketch, OnlineStats, SKETCH_RTOL};
use lbmv::telemetry::{noop_collector, RingCollector};
use std::cell::RefCell;
use std::sync::Arc;

const BASELINE_LOG: &str = include_str!("../BENCH_round_scaling.json");

fn config() -> ProtocolConfig {
    ProtocolConfig {
        total_rate: 20.0,
        link_latency: 0.001,
        simulation: SimulationConfig {
            horizon: 50.0,
            seed: 7,
            model: ServiceModel::StationaryDeterministic,
            workload: Default::default(),
            warmup: 0.0,
            estimator: Default::default(),
        },
    }
}

/// One sharded round (`shards` coordinators, optionally profiled) watched
/// by `observers`.
fn sharded_round(
    specs: &[NodeSpec],
    shards: usize,
    profiler: Option<&RefCell<RoundProfiler>>,
    observers: Observers,
) -> RoundReport {
    let mech = CompensationBonusMechanism::paper();
    let spec = RoundSpec {
        transport: Transport::Sharded { shards, profiler },
        observers,
        ..RoundSpec::new(&mech, specs, config())
    };
    run_round(&spec).unwrap()
}

fn specs(n: usize) -> Vec<NodeSpec> {
    (0..n)
        .map(|i| NodeSpec::truthful(1.0 + (i % 7) as f64))
        .collect()
}

/// Drives `rounds` profiled sharded rounds with consecutive round ids, so
/// sampling periods actually skip rounds.
fn drive_rounds(
    n: usize,
    shards: usize,
    rounds: u64,
    profiler: &mut RoundProfiler,
) -> Vec<(Vec<f64>, Vec<f64>)> {
    let mech = CompensationBonusMechanism::paper();
    let specs = specs(n);
    let config = config();
    (0..rounds)
        .map(|round| {
            let mut root = Coordinator::try_new(
                &mech,
                n,
                config.total_rate,
                RoundId(round),
                config.simulation,
            )
            .unwrap();
            let (report, _) = drive_sharded_round(
                &mut root,
                &specs,
                &config,
                shards,
                &FaultPlan::none(),
                Some(profiler),
            )
            .unwrap();
            // A reliable transport delivers nothing anomalous.
            assert_eq!(report.anomalies.total(), 0);
            (report.outcome.rates, report.outcome.payments)
        })
        .collect()
}

#[test]
fn profiler_is_bit_inert_across_runtimes() {
    let mech = CompensationBonusMechanism::paper();
    let (n, shards) = (60, 4);
    let specs = specs(n);
    let config = config();

    // The detached runtimes agree bit-for-bit (the established
    // cross-runtime differential), giving the baseline outcome.
    let deterministic = run_round(&RoundSpec::new(&mech, &specs, config))
        .unwrap()
        .outcome;
    let sharded = sharded_round(&specs, shards, None, Observers::default());
    let sharded_excluded = sharded.excluded;
    let sharded = sharded.outcome;
    assert_eq!(deterministic.rates, sharded.rates);
    assert_eq!(deterministic.payments, sharded.payments);
    assert_eq!(
        deterministic.estimated_exec_values,
        sharded.estimated_exec_values
    );

    // Attaching a profiler must change nothing observable: outcome vectors,
    // exclusions and the audited message statistics are all bit-identical.
    let profiler = RefCell::new(RoundProfiler::new());
    let profiled = sharded_round(
        &specs,
        shards,
        Some(&profiler),
        Observers {
            collector: noop_collector(),
            ..Observers::default()
        },
    );
    let profiler = profiler.into_inner();
    let profiled_excluded = profiled.excluded;
    let profiled = profiled.outcome;
    assert_eq!(profiled.rates, sharded.rates);
    assert_eq!(profiled.payments, sharded.payments);
    assert_eq!(
        profiled.estimated_exec_values,
        sharded.estimated_exec_values
    );
    assert_eq!(profiled_excluded, sharded_excluded);
    assert_eq!(
        profiled.stats, sharded.stats,
        "profile frames are a side channel"
    );
    assert_eq!(profiler.rounds_profiled(), 1);
    let (frames, bytes) = profiler.frames();
    assert_eq!(frames, shards as u64, "one profile frame per shard");
    assert!(bytes > 0);

    // A sampling-skipped round takes the detached fast path: no rollup, no
    // frames, and the same settled outcome as a detached drive of the same
    // round id.
    let drive = |attach: Option<&mut RoundProfiler>| {
        let mut root =
            Coordinator::try_new(&mech, n, config.total_rate, RoundId(1), config.simulation)
                .unwrap();
        let (report, _) = drive_sharded_round(
            &mut root,
            &specs,
            &config,
            shards,
            &FaultPlan::none(),
            attach,
        )
        .unwrap();
        assert_eq!(report.anomalies.total(), 0);
        let o = report.outcome;
        (o.rates, o.payments, o.stats)
    };
    let mut sampled = RoundProfiler::sampled(2);
    assert!(!sampled.should_profile(1));
    let skipped = drive(Some(&mut sampled));
    let detached = drive(None);
    assert_eq!(skipped, detached);
    assert_eq!(sampled.rounds_profiled(), 0);
    assert_eq!(sampled.frames(), (0, 0));
    assert!(sampled.rollup().is_empty());
}

#[test]
fn rollup_matches_whole_fleet_recompute() {
    let (n, shards, rounds) = (64, 4, 5u64);
    let mut profiler = RoundProfiler::new();
    let outcomes = drive_rounds(n, shards, rounds, &mut profiler);
    // Determinism across rounds of the same spec set: the profiler's
    // presence every round never perturbs the settled outcome.
    for o in &outcomes[1..] {
        assert_eq!(*o, outcomes[0]);
    }

    assert_eq!(profiler.rounds_profiled(), rounds);
    for series in profiler.series() {
        assert_eq!(series.count(), rounds, "one observation per round/phase");
    }

    // Each profiled round contributes one sample per shard per phase and
    // one machine-wall observation per machine.
    let rollup = profiler.rollup();
    let shard_rollups: Vec<_> = rollup.shards().collect();
    assert_eq!(shard_rollups.len(), shards);
    for phase in 0..4 {
        let fleet = rollup.fleet_phase(phase);
        assert_eq!(fleet.count(), rounds * shards as u64);
        // The fleet view is the exact merge of the per-shard sketches:
        // recomputing it by hand answers every quantile read bitwise.
        let mut manual = LatencySketch::new();
        for s in &shard_rollups {
            manual.merge(&s.phases[phase]);
        }
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(manual.quantile(q).to_bits(), fleet.quantile(q).to_bits());
        }
        // And every per-shard quantile lies inside the fleet's exact range.
        for s in &shard_rollups {
            let p99 = s.phases[phase].p99();
            assert!(p99 >= fleet.min() && p99 <= fleet.max());
        }
    }
    let machine = rollup.fleet_machine();
    assert_eq!(machine.count(), rounds * n as u64);
    // The sketch accuracy contract on a real population: the fleet p50
    // within SKETCH_RTOL of itself re-read through per-shard merges is
    // already bitwise; check the read stays inside the exact extrema.
    assert!(machine.p50() >= machine.min() && machine.p50() <= machine.max());
    let json = profiler.to_json().render();
    assert!(json.contains("\"fleet\"") && json.contains("\"machine_wall\""));
}

#[test]
fn critical_path_profile_covers_an_observed_sharded_round() {
    let (n, shards) = (256, 4);
    let ring = Arc::new(RingCollector::new(1 << 20));
    sharded_round(
        &specs(n),
        shards,
        None,
        Observers {
            collector: ring.clone(),
            ..Observers::default()
        },
    );
    assert_eq!(ring.overwritten(), 0, "ring too small for the round");

    let profile = profile_events(&ring.snapshot()).unwrap();
    assert!(profile.round_wall > 0.0);
    assert!(
        profile.coverage > 0.75,
        "phase spans cover the round: {}",
        profile.coverage
    );
    assert!(profile.path.iter().any(|p| p.name.starts_with("phase.")));
    assert!(
        profile.path.iter().any(|p| p.shard.is_some()),
        "path descends into the shard tier"
    );
    assert!(!profile.stragglers.is_empty());

    // The JSONL codec is the dashboard interchange: exact round-trip.
    let text = lbmv::prof::to_jsonl(std::slice::from_ref(&profile));
    let back = lbmv::prof::from_jsonl(&text).unwrap();
    assert_eq!(back, vec![profile]);
}

/// The n = 10⁵ acceptance point: critical-path span sum ≥ 95% of round
/// wall-time on a sharded round. Minutes-scale; run with `--ignored`.
#[test]
#[ignore = "n = 100_000 acceptance run; minutes on a laptop"]
fn critical_path_coverage_at_scale() {
    let (n, shards) = (100_000, 8);
    let ring = Arc::new(RingCollector::new(1 << 22));
    sharded_round(
        &specs(n),
        shards,
        None,
        Observers {
            collector: ring.clone(),
            ..Observers::default()
        },
    );
    assert_eq!(ring.overwritten(), 0, "ring too small for the round");
    let profile = profile_events(&ring.snapshot()).unwrap();
    assert!(
        profile.coverage >= 0.95,
        "critical-path coverage at n = 100000: {}",
        profile.coverage
    );
}

#[test]
fn sentinel_flags_injected_settle_slowdown_but_not_clean_series() {
    let baseline = Baseline::parse(BASELINE_LOG, "seed").unwrap();
    let cfg = SentinelConfig::default();
    let row = baseline.row_for(10_000).expect("seed row at n = 10^4");

    // A clean synthetic series: every phase runs at 80% of the baseline
    // p99, with a deterministic sub-permille wobble so the t-interval is
    // finite. Nothing may be flagged.
    let series_at = |scale: [f64; 4]| {
        let mut series = [OnlineStats::new(); 4];
        for round in 0..8 {
            let wobble = 1.0 + 1e-4 * f64::from(round % 3);
            for (i, s) in series.iter_mut().enumerate() {
                s.push(row.phase_p99_ms[i] * 1e-3 * scale[i] * wobble);
            }
        }
        series
    };
    let clean = check(&series_at([0.8; 4]), 10_000, &baseline, &cfg);
    assert_eq!(clean.len(), 4);
    assert!(
        clean.iter().all(|v| !v.regressed),
        "clean series flagged: {clean:?}"
    );

    // The same series with settle at 2×: only settle trips the threshold
    // (baseline p99 × 1.25 < observed CI low).
    let slowed = check(&series_at([0.8, 0.8, 0.8, 2.0]), 10_000, &baseline, &cfg);
    for v in &slowed {
        assert_eq!(v.regressed, v.phase == "settle", "{v:?}");
    }

    // No baseline row at this n: the sentinel stays silent rather than
    // comparing against the wrong population size.
    assert!(check(&series_at([2.0; 4]), 31_337, &baseline, &cfg).is_empty());
}

/// The full sentinel acceptance loop against live rounds: profile real
/// sharded rounds at n = 10⁴ and check the unmodified run is not flagged
/// against the checked-in seed baseline. Timing-sensitive; run with
/// `--ignored` on a quiet machine.
#[test]
#[ignore = "timing-dependent acceptance run at n = 10^4"]
fn sentinel_accepts_live_rounds_against_seed_baseline() {
    let mut profiler = RoundProfiler::new();
    drive_rounds(10_000, 8, 4, &mut profiler);
    let baseline = Baseline::parse(BASELINE_LOG, "seed").unwrap();
    let verdicts = check(
        profiler.series(),
        10_000,
        &baseline,
        &SentinelConfig::default(),
    );
    assert_eq!(verdicts.len(), 4);
    assert!(
        verdicts.iter().all(|v| !v.regressed),
        "unmodified run flagged: {verdicts:?}"
    );
}

#[test]
fn sketch_tolerance_bounds_hold_on_profiled_phase_reads() {
    // Drive enough profiled rounds that the per-phase sketches hold a real
    // population, then check each read honours the documented relative
    // tolerance against the exact mean/extrema bracket.
    let mut profiler = RoundProfiler::new();
    drive_rounds(48, 3, 6, &mut profiler);
    let rollup = profiler.rollup();
    for phase in 0..4 {
        let fleet = rollup.fleet_phase(phase);
        assert!(!fleet.is_empty());
        for q in [0.25, 0.5, 0.9, 0.99] {
            let read = fleet.quantile(q);
            assert!(
                read >= fleet.min() / (1.0 + SKETCH_RTOL)
                    && read <= fleet.max() * (1.0 + SKETCH_RTOL),
                "phase {phase} q{q} read {read} outside tolerance of [{}, {}]",
                fleet.min(),
                fleet.max()
            );
        }
    }
}
