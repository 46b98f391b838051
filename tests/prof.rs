//! End-to-end `lb-prof`: the profiler as analyses over the spans a
//! sharded round records — per-shard stage durations, the critical-path
//! round profiler and the regression sentinel — and above all their
//! **inertness**: recording a round for the profiler leaves every
//! runtime's settled outcome bit-identical.

use lbmv::mechanism::CompensationBonusMechanism;
use lbmv::prof::{check, profile_events, Baseline, SentinelConfig};
use lbmv::proto::{
    drive_sharded_round, run_round, Coordinator, FaultPlan, NodeSpec, Observers, ProtocolConfig,
    RoundId, RoundReport, RoundSpec, ShardPhaseTimings, Transport,
};
use lbmv::sim::driver::SimulationConfig;
use lbmv::sim::server::ServiceModel;
use lbmv::stats::{LatencySketch, OnlineStats, SKETCH_RTOL};
use lbmv::telemetry::{
    noop_collector, replay_spans, Collector, FieldValue, RingCollector, Sampler,
};
use std::collections::BTreeMap;
use std::sync::Arc;

const BASELINE_LOG: &str = include_str!("../BENCH_round_scaling.json");

/// The spans each shard worker records per stage, in protocol order.
const STAGES: [&str; 3] = ["shard.collect", "shard.verify", "shard.execute"];

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

/// One sharded round (`shards` coordinators) watched by `observers`.
fn sharded_round(specs: &[NodeSpec], shards: usize, observers: Observers) -> RoundReport {
    let mech = CompensationBonusMechanism::paper();
    let spec = RoundSpec {
        transport: Transport::Sharded { shards },
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

/// Drives `rounds` sharded rounds with consecutive round ids, recording
/// each into `collector`; returns each round's report and root timings.
fn drive_rounds(
    n: usize,
    shards: usize,
    rounds: u64,
    collector: &Arc<dyn Collector>,
) -> Vec<(RoundReport, ShardPhaseTimings)> {
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
            .unwrap()
            .with_collector(Arc::clone(collector));
            let (report, timings) =
                drive_sharded_round(&mut root, &specs, &config, shards, &FaultPlan::none())
                    .unwrap();
            // A reliable transport delivers nothing anomalous.
            assert_eq!(report.anomalies.total(), 0);
            (report, timings)
        })
        .collect()
}

/// Every shard stage span of a recording: its duration, keyed by
/// `(stage index into STAGES, shard)`.
fn stage_durations(ring: &RingCollector) -> BTreeMap<(usize, u64), Vec<f64>> {
    let spans = replay_spans(&ring.snapshot()).expect("recording replays cleanly");
    let mut out: BTreeMap<(usize, u64), Vec<f64>> = BTreeMap::new();
    for span in &spans {
        let Some(stage) = STAGES.iter().position(|s| span.name == *s) else {
            continue;
        };
        let Some(FieldValue::U64(shard)) = span.field("shard") else {
            panic!("{} span without a shard field", span.name);
        };
        out.entry((stage, *shard))
            .or_default()
            .push(span.duration());
    }
    out
}

#[test]
fn profiler_is_bit_inert_across_runtimes() {
    let mech = CompensationBonusMechanism::paper();
    let (n, shards) = (60, 4);
    let specs = specs(n);
    let config = config();

    // The unobserved runtimes agree bit-for-bit (the established
    // cross-runtime differential), giving the baseline outcome.
    let deterministic = run_round(&RoundSpec::new(&mech, &specs, config))
        .unwrap()
        .outcome;
    let sharded = sharded_round(&specs, shards, Observers::default());
    let sharded_excluded = sharded.excluded;
    let sharded = sharded.outcome;
    assert_eq!(deterministic.rates, sharded.rates);
    assert_eq!(deterministic.payments, sharded.payments);
    assert_eq!(
        deterministic.estimated_exec_values,
        sharded.estimated_exec_values
    );

    // Recording the round for the profiler changes nothing the round
    // decides: outcome vectors, exclusions and message counts are
    // bit-identical. Bytes differ only by the trace-context trailers.
    let ring = Arc::new(RingCollector::new(1 << 16));
    let recorded = sharded_round(
        &specs,
        shards,
        Observers {
            collector: ring.clone(),
            ..Observers::default()
        },
    );
    let recorded_excluded = recorded.excluded;
    let recorded = recorded.outcome;
    assert_eq!(recorded.rates, sharded.rates);
    assert_eq!(recorded.payments, sharded.payments);
    assert_eq!(
        recorded.estimated_exec_values,
        sharded.estimated_exec_values
    );
    assert_eq!(recorded_excluded, sharded_excluded);
    assert_eq!(recorded.stats.messages, sharded.stats.messages);
    assert!(recorded.stats.bytes > sharded.stats.bytes);

    // The profiler reads that recording: one span per shard and stage.
    let durations = stage_durations(&ring);
    assert_eq!(durations.len(), STAGES.len() * shards);
    assert!(durations.values().all(|d| d.len() == 1));
    profile_events(&ring.snapshot()).expect("recorded round profiles");

    // A round the sampler skips records nothing and is the unobserved
    // round exactly, bytes included.
    let skipped = Arc::new(RingCollector::new(1 << 10));
    let unsampled = sharded_round(
        &specs,
        shards,
        Observers {
            collector: skipped.clone(),
            sampler: Sampler::Never,
        },
    );
    assert!(skipped.snapshot().is_empty());
    assert_eq!(unsampled.outcome.rates, sharded.rates);
    assert_eq!(unsampled.outcome.payments, sharded.payments);
    assert_eq!(unsampled.outcome.stats, sharded.stats);
}

#[test]
fn rollup_matches_whole_fleet_recompute() {
    let (n, shards, rounds) = (64, 4, 5u64);
    let ring = Arc::new(RingCollector::new(1 << 18));
    let outcomes = drive_rounds(n, shards, rounds, &(ring.clone() as Arc<dyn Collector>));
    assert_eq!(ring.overwritten(), 0, "ring too small for the rounds");
    // Determinism across rounds of the same spec set: recording every
    // round never perturbs the settled outcome.
    let first = &outcomes[0].0.outcome;
    for (report, timings) in &outcomes {
        assert_eq!(report.outcome.rates, first.rates);
        assert_eq!(report.outcome.payments, first.payments);
        let [c, a, e, s] = [
            timings.collect,
            timings.allocate,
            timings.execute,
            timings.settle,
        ];
        assert!([c, a, e, s].iter().all(|w| w.is_finite() && *w >= 0.0));
    }

    // Each round contributes one span per shard per stage. Per-shard
    // sketches of those durations merge into the fleet view exactly:
    // every quantile read is bitwise the whole-population sketch's.
    let durations = stage_durations(&ring);
    for stage in 0..STAGES.len() {
        let per_shard: Vec<&Vec<f64>> = (0..shards as u64)
            .map(|s| &durations[&(stage, s)])
            .collect();
        assert!(per_shard.iter().all(|d| d.len() == rounds as usize));
        let mut fleet = LatencySketch::new();
        let mut whole = Vec::new();
        for d in &per_shard {
            fleet.merge(&LatencySketch::from_slice(d));
            whole.extend_from_slice(d);
        }
        let whole = LatencySketch::from_slice(&whole);
        assert_eq!(fleet.count(), rounds * shards as u64);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(fleet.quantile(q).to_bits(), whole.quantile(q).to_bits());
        }
        // And every per-shard quantile lies inside the fleet's exact range.
        for d in &per_shard {
            let p99 = LatencySketch::from_slice(d).p99();
            assert!(p99 >= fleet.min() && p99 <= fleet.max());
        }
    }
}

#[test]
fn critical_path_profile_covers_an_observed_sharded_round() {
    let (n, shards) = (256, 4);
    let ring = Arc::new(RingCollector::new(1 << 20));
    sharded_round(
        &specs(n),
        shards,
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

/// The full sentinel acceptance loop against live rounds: time real
/// sharded rounds at n = 10⁴ and check the unmodified run is not flagged
/// against the checked-in seed baseline. Timing-sensitive; run with
/// `--ignored` on a quiet machine.
#[test]
#[ignore = "timing-dependent acceptance run at n = 10^4"]
fn sentinel_accepts_live_rounds_against_seed_baseline() {
    let mut series = [OnlineStats::new(); 4];
    for (_, t) in drive_rounds(10_000, 8, 4, &noop_collector()) {
        for (stats, seconds) in series
            .iter_mut()
            .zip([t.collect, t.allocate, t.execute, t.settle])
        {
            stats.push(seconds);
        }
    }
    let baseline = Baseline::parse(BASELINE_LOG, "seed").unwrap();
    let verdicts = check(&series, 10_000, &baseline, &SentinelConfig::default());
    assert_eq!(verdicts.len(), 4);
    assert!(
        verdicts.iter().all(|v| !v.regressed),
        "unmodified run flagged: {verdicts:?}"
    );
}

#[test]
fn sketch_tolerance_bounds_hold_on_profiled_phase_reads() {
    // Record enough rounds that each stage's sketch holds a real
    // population, then check each read honours the documented relative
    // tolerance against the exact extrema bracket.
    let ring = Arc::new(RingCollector::new(1 << 18));
    drive_rounds(48, 3, 6, &(ring.clone() as Arc<dyn Collector>));
    let durations = stage_durations(&ring);
    for (stage, name) in STAGES.iter().enumerate() {
        let mut fleet = LatencySketch::new();
        for (_, d) in durations.iter().filter(|((s, _), _)| *s == stage) {
            fleet.merge(&LatencySketch::from_slice(d));
        }
        assert_eq!(fleet.count(), 6 * 3, "{name}");
        for q in [0.25, 0.5, 0.9, 0.99] {
            let read = fleet.quantile(q);
            assert!(
                read >= fleet.min() / (1.0 + SKETCH_RTOL)
                    && read <= fleet.max() * (1.0 + SKETCH_RTOL),
                "{name} q{q} read {read} outside tolerance of [{}, {}]",
                fleet.min(),
                fleet.max()
            );
        }
    }
}
