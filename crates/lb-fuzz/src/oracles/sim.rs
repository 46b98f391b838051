//! Sim oracle: the verification kernel is positional and total.
//!
//! One iteration draws a random fleet — bids, actual execution values,
//! explicit rates with some machines idle (rate 0 or ≤ 10⁻¹²) — and a
//! random [`SimulationConfig`]: any of the four service models, Poisson or
//! bursty arrivals, warm-up, a sample cap and estimator noise. It checks
//! three properties of [`simulate_partition`]:
//!
//! 1. **Partition transparency.** Cutting the fleet at 1–8 random points
//!    and simulating each piece at its global stream offset must reproduce
//!    the one-partition report bit for bit: every observation (index, rate,
//!    arrival count, raw response statistics, estimate) and every
//!    estimated execution value. Each partition's latency total is a sum
//!    in a different order, so the totals agree to [`REL_TOL`].
//! 2. **Totality.** Corrupting one input — an actual value that is not
//!    finite and positive, a rate that is negative or not finite, a mean
//!    response `t̃·x` that overflows, a length mismatch, a bad horizon,
//!    bursty parameters out of range (or in range but giving a busy
//!    machine a calm rate that is not a normal float) or an estimator noise
//!    cv whose square overflows — must return `Err` from
//!    [`simulate_partition`] (and, for actual values, from
//!    [`simulate_round`]), never panic.
//! 3. **The kernel is its public pieces.** At a random stream offset up to
//!    2⁶³, the one streaming kernel reproduces, bit for bit, a reference
//!    assembled from the crate's public pieces one stage at a time: the
//!    whole trace from [`per_machine_traces_offset`], then every response
//!    from [`ServiceModel::responses`] on the indexed response stream, then
//!    [`ExecValueEstimator`] beside an [`OnlineStats`] over the responses
//!    past the warm-up.

use super::{close, REL_TOL};
use crate::generate::{latency_values, rng_for};
use lb_sim::driver::{
    simulate_partition, simulate_round, PartitionReport, SimulationConfig, RESPONSE_STREAM_SALT,
};
use lb_sim::estimator::{EstimatorConfig, ExecValueEstimator};
use lb_sim::metrics::MachineObservation;
use lb_sim::server::ServiceModel;
use lb_sim::workload::{per_machine_traces_offset, WorkloadModel};
use lb_stats::{OnlineStats, Rng, Xoshiro256StarStar};

const MODELS: [ServiceModel; 4] = [
    ServiceModel::StationaryExponential,
    ServiceModel::StationaryDeterministic,
    ServiceModel::Mm1Queue,
    ServiceModel::PsQueue,
];

fn config(rng: &mut Xoshiro256StarStar) -> SimulationConfig {
    let horizon = rng.next_range(1.0, 20.0);
    #[allow(clippy::cast_possible_truncation)]
    let model = MODELS[rng.next_below(4) as usize];
    let workload = if rng.next_bool(0.5) {
        WorkloadModel::Poisson
    } else {
        WorkloadModel::Bursty {
            burstiness: rng.next_range(1.5, 8.0),
            dwell_means: [rng.next_range(0.5, 5.0), rng.next_range(0.5, 5.0)],
        }
    };
    #[allow(clippy::cast_possible_truncation)]
    let max_samples = rng.next_bool(0.3).then(|| 1 + rng.next_below(8) as usize);
    SimulationConfig {
        horizon,
        seed: rng.next_u64(),
        model,
        workload,
        warmup: if rng.next_bool(0.5) {
            0.0
        } else {
            rng.next_range(0.0, horizon / 2.0)
        },
        estimator: EstimatorConfig {
            max_samples,
            noise_cv: if rng.next_bool(0.5) {
                0.0
            } else {
                rng.next_range(0.0, 0.5)
            },
        },
    }
}

/// Every output bit of one observation.
fn observation_bits(o: &MachineObservation) -> [u64; 10] {
    let (count, mean, m2, min, max, sum) = o.response.parts();
    [
        o.machine as u64,
        o.assigned_rate.to_bits(),
        o.jobs_arrived,
        count,
        mean.to_bits(),
        m2.to_bits(),
        min.to_bits(),
        max.to_bits(),
        sum.to_bits(),
        o.estimated_exec.map_or(u64::MAX, f64::to_bits),
    ]
}

/// Runs one sim-oracle iteration.
///
/// # Errors
/// Returns a description of the first divergence between the partitioned
/// and the one-partition reports, or of an invalid input that was
/// accepted.
pub fn check(seed: u64) -> Result<(), String> {
    let mut rng = rng_for(seed);
    #[allow(clippy::cast_possible_truncation)]
    let n = 1 + rng.next_below(48) as usize;
    let bids = latency_values(&mut rng, n, 1.0);
    let actual: Vec<f64> = bids
        .iter()
        .map(|&b| b * 10f64.powf(rng.next_range(-0.5, 0.5)))
        .collect();
    let rates: Vec<f64> = (0..n)
        .map(|_| match rng.next_below(5) {
            0 => 0.0,
            1 => 1e-12 * rng.next_f64(),
            _ => 10f64.powf(rng.next_range(-1.5, 0.5)),
        })
        .collect();
    let config = config(&mut rng);

    // Property 1: partitions concatenate to the one-partition report.
    let whole = simulate_partition(&bids, &actual, &rates, &config, 0)
        .map_err(|e| format!("valid fleet rejected: {e}"))?;
    #[allow(clippy::cast_possible_truncation)]
    let mut cuts: Vec<usize> = (0..1 + rng.next_below(8))
        .map(|_| rng.next_below(n as u64 + 1) as usize)
        .collect();
    cuts.extend([0, n]);
    cuts.sort_unstable();
    let mut parts = Vec::new();
    for w in cuts.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        let part = simulate_partition(
            &bids[lo..hi],
            &actual[lo..hi],
            &rates[lo..hi],
            &config,
            lo as u64,
        )
        .map_err(|e| format!("partition {lo}..{hi} rejected: {e}"))?;
        parts.push(part);
    }
    compare(&whole, &parts, &format!("cuts {cuts:?}"))?;

    // Property 3: at a random stream offset, the kernel is its pieces.
    let offset = rng.next_u64() >> (1 + rng.next_below(63));
    let kernel = simulate_partition(&bids, &actual, &rates, &config, offset)
        .map_err(|e| format!("fleet at offset {offset} rejected: {e}"))?;
    let pieces = reference(&bids, &actual, &rates, &config, offset);
    compare(
        &pieces,
        &[kernel],
        &format!("kernel vs public pieces at offset {offset}"),
    )?;

    // Property 2: one corrupted input is an error, not a panic.
    let bad_values = [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    #[allow(clippy::cast_possible_truncation)]
    let (at, bad) = (
        rng.next_below(n as u64) as usize,
        bad_values[rng.next_below(bad_values.len() as u64) as usize],
    );
    let mut bad_actual = actual.clone();
    bad_actual[at] = bad;
    if simulate_partition(&bids, &bad_actual, &rates, &config, 0).is_ok() {
        return Err(format!("actual value {bad} at machine {at} accepted"));
    }
    if simulate_round(&bids, &bad_actual, 1.0, &config).is_ok() {
        return Err(format!("round accepted actual value {bad} at machine {at}"));
    }
    let mut bad_rates = rates.clone();
    bad_rates[at] = if bad == 0.0 { -f64::MIN_POSITIVE } else { bad };
    if simulate_partition(&bids, &actual, &bad_rates, &config, 0).is_ok() {
        return Err(format!("rate {} at machine {at} accepted", bad_rates[at]));
    }
    let (mut huge_actual, mut busy_rates) = (actual.clone(), rates.clone());
    (huge_actual[at], busy_rates[at]) = (f64::MAX, 2.0);
    if simulate_partition(&bids, &huge_actual, &busy_rates, &config, 0).is_ok() {
        return Err(format!(
            "overflowing mean response at machine {at} accepted"
        ));
    }
    let dwell_overflow = SimulationConfig {
        workload: WorkloadModel::Bursty {
            burstiness: rng.next_range(1.5, 8.0),
            dwell_means: [f64::MAX, rng.next_range(0.5, 1.0) * f64::MAX],
        },
        ..config
    };
    if simulate_partition(&bids, &actual, &busy_rates, &dwell_overflow, 0).is_ok() {
        return Err(format!(
            "overflowing dwell sum at busy machine {at} accepted"
        ));
    }
    if simulate_partition(&bids, &actual, &rates[1..], &config, 0).is_ok() {
        return Err(format!("{} rates for {n} machines accepted", n - 1));
    }
    let mut bad_config = config;
    match rng.next_below(4) {
        0 => bad_config.horizon = if bad == 0.0 { -1.0 } else { bad },
        1 => {
            bad_config.workload = WorkloadModel::Bursty {
                burstiness: rng.next_range(-1.0, 1.0),
                dwell_means: [1.0, 1.0],
            }
        }
        2 => {
            bad_config.workload = WorkloadModel::Bursty {
                burstiness: 2.0,
                dwell_means: [1.0, bad],
            }
        }
        _ => {
            bad_config.estimator.noise_cv = if rng.next_bool(0.5) {
                f64::INFINITY
            } else {
                rng.next_range(2.0, 1e4) * 1e154
            }
        }
    }
    if simulate_partition(&bids, &actual, &rates, &bad_config, 0).is_ok() {
        return Err(format!("invalid config accepted: {bad_config:?}"));
    }
    Ok(())
}

/// The partition report built stage by stage from the public pieces: each
/// machine's whole trace, then all its responses, then the estimator over
/// the responses past the warm-up.
fn reference(
    bids: &[f64],
    actual: &[f64],
    rates: &[f64],
    config: &SimulationConfig,
    offset: u64,
) -> PartitionReport {
    let traces =
        per_machine_traces_offset(rates, config.horizon, config.seed, config.workload, offset);
    let responses = Xoshiro256StarStar::seed_from_u64(config.seed ^ RESPONSE_STREAM_SALT);
    let mut report = PartitionReport {
        observations: Vec::new(),
        estimated_exec_values: Vec::new(),
        estimated_total_latency: 0.0,
    };
    for (i, trace) in traces.iter().enumerate() {
        let machine = offset + i as u64;
        let mut rng = responses.stream(machine);
        let arrivals: Vec<f64> = trace.iter().map(|job| job.arrival).collect();
        let drawn = config
            .model
            .responses(&arrivals, actual[i], rates[i], &mut rng);
        let mut estimator = ExecValueEstimator::new(config.estimator);
        let mut observed = OnlineStats::new();
        for (&a, &r) in arrivals.iter().zip(&drawn) {
            if a >= config.warmup {
                observed.push(r);
                estimator.observe(r, &mut rng);
            }
        }
        let estimate = estimator.estimate(&observed, rates[i]);
        let obs = MachineObservation {
            machine: usize::try_from(machine).unwrap_or(usize::MAX),
            assigned_rate: rates[i],
            jobs_arrived: arrivals.len() as u64,
            response: observed,
            estimated_exec: estimate,
        };
        report.estimated_total_latency += obs.latency_contribution();
        report
            .estimated_exec_values
            .push(estimate.unwrap_or(bids[i]));
        report.observations.push(obs);
    }
    report
}

/// The concatenated `parts` against `whole`; `what` names the comparison
/// in any divergence.
fn compare(whole: &PartitionReport, parts: &[PartitionReport], what: &str) -> Result<(), String> {
    let observations = parts.iter().flat_map(|p| &p.observations);
    let estimates = parts.iter().flat_map(|p| &p.estimated_exec_values);
    if observations.clone().count() != whole.observations.len() {
        return Err(format!("{what}: machine count differs"));
    }
    for (i, (got, want)) in observations.zip(&whole.observations).enumerate() {
        if observation_bits(got) != observation_bits(want) {
            return Err(format!(
                "{what}: machine {i} observed {got:?}, expected {want:?}"
            ));
        }
    }
    for (i, (got, want)) in estimates.zip(&whole.estimated_exec_values).enumerate() {
        if got.to_bits() != want.to_bits() {
            return Err(format!(
                "{what}: machine {i} estimate {got:e}, expected {want:e}"
            ));
        }
    }
    let total: f64 = parts.iter().map(|p| p.estimated_total_latency).sum();
    let want = whole.estimated_total_latency;
    if !close(total, want, want) {
        return Err(format!(
            "{what}: latency total {total:e} vs {want:e} (tolerance {REL_TOL:e})"
        ));
    }
    Ok(())
}
