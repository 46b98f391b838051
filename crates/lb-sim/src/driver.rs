//! Round drivers: the full allocate → execute → observe → estimate → pay
//! pipeline of the paper's protocol, realised over the discrete-event
//! substrate.

use crate::estimator::{EstimatorConfig, ExecValueEstimator};
use crate::metrics::MachineObservation;
use crate::server::{ps_responses, ServiceModel};
use crate::workload::IDLE_RATE;
use lb_core::{pr_allocate, Allocation, CoreError};
use lb_mechanism::{settle_verified, MechanismError, MechanismOutcome, Profile, VerifiedMechanism};
use lb_stats::online::OnlineStats;
use lb_stats::rng::Xoshiro256StarStar;
use std::borrow::Cow;

/// Configuration of one simulated round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulationConfig {
    /// Simulated horizon (seconds of job arrivals).
    pub horizon: f64,
    /// Root RNG seed; every machine derives an independent stream from it.
    pub seed: u64,
    /// How machines realise the latency abstraction.
    pub model: ServiceModel,
    /// How job arrivals are generated (Poisson or bursty MMPP).
    pub workload: crate::workload::WorkloadModel,
    /// Warm-up period: completions of jobs arriving before this time are
    /// executed but not used for estimation (discards queueing transients).
    pub warmup: f64,
    /// Verification sensor configuration.
    pub estimator: EstimatorConfig,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        Self {
            horizon: 2_000.0,
            seed: 0x5eed,
            model: ServiceModel::StationaryExponential,
            workload: crate::workload::WorkloadModel::Poisson,
            warmup: 0.0,
            estimator: EstimatorConfig::default(),
        }
    }
}

/// What the coordinator learns from one simulated execution round.
#[derive(Debug, Clone)]
pub struct RoundReport {
    /// The PR allocation computed from the bids.
    pub allocation: Allocation,
    /// Per-machine observations.
    pub observations: Vec<MachineObservation>,
    /// Estimated execution values (falls back to the machine's bid when a
    /// machine stayed idle and produced no evidence).
    pub estimated_exec_values: Vec<f64>,
    /// Estimated total latency `Σ x_i · mean_response_i`.
    pub estimated_total_latency: f64,
}

/// Salt XORed into [`SimulationConfig::seed`] to key the response streams.
///
/// Machine `i`'s arrivals come from stream `i` of
/// `Xoshiro256StarStar::seed_from_u64(seed)` and its service draws (then
/// any estimator noise) from stream `i` of
/// `Xoshiro256StarStar::seed_from_u64(seed ^ RESPONSE_STREAM_SALT)`; code
/// that replays a round's responses derives the same streams.
pub const RESPONSE_STREAM_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Simulates one execution round: PR-allocate the bids, drive per-machine
/// Poisson arrivals through the service model at the machines' *actual*
/// execution values, observe completions, and estimate the execution values.
///
/// # Errors
/// Propagates allocation errors (invalid bids or total rate), then
/// rejects the inputs [`simulate_partition`] rejects, with the PR rates.
pub fn simulate_round(
    bids: &[f64],
    actual_exec_values: &[f64],
    total_rate: f64,
    config: &SimulationConfig,
) -> Result<RoundReport, CoreError> {
    let allocation = pr_allocate(bids, total_rate)?;
    simulate_allocated(bids, actual_exec_values, allocation, config)
}

/// [`simulate_round`] on an allocation already computed from the bids.
fn simulate_allocated(
    bids: &[f64],
    actual_exec_values: &[f64],
    allocation: Allocation,
    config: &SimulationConfig,
) -> Result<RoundReport, CoreError> {
    validate(bids, actual_exec_values, allocation.rates(), config)?;
    let part = simulate_machines(bids, actual_exec_values, allocation.rates(), config, 0);
    Ok(RoundReport {
        allocation,
        observations: part.observations,
        estimated_exec_values: part.estimated_exec_values,
        estimated_total_latency: part.estimated_total_latency,
    })
}

/// What one contiguous partition of machines observed during execution — a
/// [`RoundReport`] without the allocation (the sharded coordinator computes
/// the allocation once at the root and hands each shard its rate slice).
#[derive(Debug, Clone)]
pub struct PartitionReport {
    /// Per-machine observations; `machine` indices are *global*
    /// (`stream_offset + local index`).
    pub observations: Vec<MachineObservation>,
    /// Estimated execution values for this partition's machines, in local
    /// order (bid fallback for idle machines, exactly as [`RoundReport`]).
    pub estimated_exec_values: Vec<f64>,
    /// This partition's contribution to the estimated total latency.
    pub estimated_total_latency: f64,
}

/// Simulates the execution phase for a *contiguous partition* of a larger
/// round: `bids[i]`, `actual_exec_values[i]` and `rates[i]` all describe
/// global machine `stream_offset + i`.
///
/// Every machine draws from the same per-machine RNG streams it would use in
/// the single-coordinator [`simulate_round`] (trace stream and response
/// stream both keyed by the global index), so concatenating the partition
/// reports of a sharded round reproduces the unsharded round observation for
/// observation, bit for bit. The caller supplies the rates — this function
/// never re-runs the allocation.
///
/// # Errors
/// Returns [`CoreError::LengthMismatch`] on arity mismatches,
/// [`CoreError::InvalidRate`] for a non-positive horizon or a rate that is
/// negative or not finite, and [`CoreError::InvalidParameter`] for an
/// actual execution value that is not finite and positive, a mean
/// response `t̃·x` that overflows or underflows on a machine with jobs,
/// bursty parameters out of range (including calm or burst rates that are
/// not normal floats), an estimator noise cv whose square overflows
/// (infinite included), or a stream offset that
/// overflows a `u64` when the machine count is added.
pub fn simulate_partition(
    bids: &[f64],
    actual_exec_values: &[f64],
    rates: &[f64],
    config: &SimulationConfig,
    stream_offset: u64,
) -> Result<PartitionReport, CoreError> {
    validate(bids, actual_exec_values, rates, config)?;
    if stream_offset.checked_add(bids.len() as u64).is_none() {
        return Err(CoreError::InvalidParameter {
            name: "stream offset",
            value: stream_offset as f64,
        });
    }
    Ok(simulate_machines(
        bids,
        actual_exec_values,
        rates,
        config,
        stream_offset,
    ))
}

/// Rejects the caller input the kernel's samplers would panic on (see
/// [`simulate_partition`]'s errors).
fn validate(
    bids: &[f64],
    actual_exec_values: &[f64],
    rates: &[f64],
    config: &SimulationConfig,
) -> Result<(), CoreError> {
    if let Some(actual) = [actual_exec_values.len(), rates.len()]
        .into_iter()
        .find(|&len| len != bids.len())
    {
        return Err(CoreError::LengthMismatch {
            expected: bids.len(),
            actual,
        });
    }
    if !(config.horizon.is_finite() && config.horizon > 0.0) {
        return Err(CoreError::InvalidRate(config.horizon));
    }
    let invalid = |name, value| Err(CoreError::InvalidParameter { name, value });
    if let Some(&value) = actual_exec_values
        .iter()
        .find(|v| !(v.is_finite() && **v > 0.0))
    {
        return invalid("actual exec value", value);
    }
    if let Some(&rate) = rates.iter().find(|r| !(r.is_finite() && **r >= 0.0)) {
        return Err(CoreError::InvalidRate(rate));
    }
    if let Some(mean) = actual_exec_values
        .iter()
        .zip(rates)
        .filter(|&(_, &rate)| rate > IDLE_RATE)
        .map(|(&actual, &rate)| actual * rate)
        .find(|mean| !mean.is_normal())
    {
        return invalid("mean response", mean);
    }
    config.workload.check(rates)?;
    // The noise law takes ln(1 + cv²): an infinite cv, or one whose square
    // overflows, has no finite log-normal parameters.
    let cv = config.estimator.noise_cv;
    if (cv * cv).is_infinite() {
        return invalid("noise cv", cv);
    }
    Ok(())
}

/// The per-machine execution kernel: generate arrivals, drive the service
/// model, estimate execution values. [`validate`] has accepted the inputs.
///
/// Each machine makes one streaming pass: every arrival drawn from its
/// trace stream is served at once, its response drawn from the response
/// stream and folded into the machine's one [`OnlineStats`] (one Welford
/// update per job past the warm-up). The two streams are independent, so
/// interleaving their draws leaves every bit as a trace-then-responses
/// order would. Two cases keep a buffer, reused across machines:
/// - the PS queue cannot answer a job before the whole trace is in, so it
///   buffers the arrivals and then draws every service requirement;
/// - an estimator with a sample cap or noise observes the responses it
///   keeps only after all of them are drawn, since noise shares the
///   response stream and that order is part of the output.
///
/// An idle machine still advances both streams but draws nothing.
fn simulate_machines(
    bids: &[f64],
    actual_exec_values: &[f64],
    rates: &[f64],
    config: &SimulationConfig,
    stream_offset: u64,
) -> PartitionReport {
    // One jump per machine and stream, after an O(log offset) skip-ahead
    // (bit-identical to `stream(global index)`).
    let trace_streams = Xoshiro256StarStar::seed_from_u64(config.seed).streams(stream_offset);
    let response_streams = Xoshiro256StarStar::seed_from_u64(config.seed ^ RESPONSE_STREAM_SALT)
        .streams(stream_offset);
    let (horizon, warmup) = (config.horizon, config.warmup);
    let keep = config.estimator.max_samples.unwrap_or(usize::MAX);
    let mut arrivals = Vec::new();
    let mut kept = Vec::new();
    let mut observations = Vec::with_capacity(bids.len());
    let mut estimated = Vec::with_capacity(bids.len());
    let mut total_latency = 0.0;

    let machines = rates.iter().zip(trace_streams.zip(response_streams));
    for (i, (&rate, (trace_rng, mut rng))) in machines.enumerate() {
        let stream = stream_offset + i as u64;
        let mut estimator = ExecValueEstimator::new(config.estimator);
        let apart = estimator.samples_apart();
        let mut stats = OnlineStats::new();
        let mut jobs = 0u64;
        kept.clear();
        let mut job = |arrival: f64, response: f64| {
            jobs += 1;
            if arrival >= warmup {
                stats.push(response);
                if apart && kept.len() < keep {
                    kept.push(response);
                }
            }
        };
        if rate > IDLE_RATE {
            let mean_response = actual_exec_values[i] * rate;
            let workload = config.workload;
            match config.model.server(mean_response, rate) {
                Some(mut server) => workload.for_each_arrival(rate, horizon, trace_rng, |a| {
                    job(a, server.respond(a, &mut rng));
                }),
                None => {
                    arrivals.clear();
                    workload.for_each_arrival(rate, horizon, trace_rng, |a| arrivals.push(a));
                    if !arrivals.is_empty() {
                        let responses = ps_responses(&arrivals, mean_response, rate, &mut rng);
                        for (&a, r) in arrivals.iter().zip(responses) {
                            job(a, r);
                        }
                    }
                }
            }
        }
        for &r in &kept {
            estimator.observe(r, &mut rng);
        }
        let estimate = estimator.estimate(&stats, rate);
        let obs = MachineObservation {
            machine: usize::try_from(stream).unwrap_or(usize::MAX),
            assigned_rate: rate,
            jobs_arrived: jobs,
            response: stats,
            estimated_exec: estimate,
        };
        total_latency += obs.latency_contribution();
        // Idle machines produce no verification evidence: fall back to the bid.
        estimated.push(estimate.unwrap_or(bids[i]));
        observations.push(obs);
    }

    PartitionReport {
        observations,
        estimated_exec_values: estimated,
        estimated_total_latency: total_latency,
    }
}

/// Outcome of a *verified* round: simulation-backed estimates feeding the
/// mechanism's payment computation.
#[derive(Debug, Clone)]
pub struct VerifiedRound {
    /// The simulation evidence.
    pub report: RoundReport,
    /// Mechanism accounting computed from the *estimated* execution values —
    /// what the coordinator would actually pay.
    pub outcome: MechanismOutcome,
    /// Mechanism accounting computed from the *true* execution values — the
    /// oracle used to quantify estimation error.
    pub oracle_outcome: MechanismOutcome,
}

impl VerifiedRound {
    /// Maximum absolute payment error introduced by estimation, across agents.
    #[must_use]
    pub fn max_payment_error(&self) -> f64 {
        self.outcome
            .payments
            .iter()
            .zip(&self.oracle_outcome.payments)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

/// Runs the paper's full protocol loop for one round, end to end:
///
/// 1. allocate jobs with PR on the bids,
/// 2. execute them in the discrete-event simulator at the true execution
///    values,
/// 3. estimate `t̃` from observed completions (verification),
/// 4. compute payments from the bids and *estimated* execution values.
///
/// The returned [`VerifiedRound`] also carries the oracle outcome (payments
/// under the exact execution values) so callers can quantify the estimator's
/// effect — the `ablation` bench sweeps noise and sample budgets through
/// this function.
///
/// Everything a round derives from the bids alone is derived once: the
/// mechanism's bid side ([`VerifiedMechanism::bid_side`]) gives the PR
/// rates the simulator runs, the payments settle borrows it, and the
/// oracle settle consumes it ([`settle_verified`]). The result is, bit for
/// bit and error for error, [`simulate_round`], the estimates clamped to at
/// least `1e-12`, [`lb_mechanism::run_verified`] on them, then
/// [`lb_mechanism::run_mechanism`].
///
/// # Errors
/// Propagates simulation and mechanism errors.
pub fn verified_round<M: VerifiedMechanism + ?Sized>(
    mechanism: &M,
    profile: &Profile,
    config: &SimulationConfig,
) -> Result<VerifiedRound, MechanismError> {
    let (bids, exec) = (profile.bids(), profile.exec_values());
    let side = mechanism.bid_side(bids.into(), profile.total_rate(), None)?;
    let report = simulate_allocated(bids, exec, side.pr_allocation()?, config)?;

    // The estimate may come out slightly below an agent's true value due to
    // sampling noise; clamp into validity (the mechanism interface requires
    // positive values, not truth-consistency — the coordinator does not know
    // the truth). Estimates already at or above the floor are used as they
    // are, without a copy.
    let estimates = &report.estimated_exec_values;
    let estimated: Cow<'_, [f64]> = if estimates.iter().all(|&e| e >= ESTIMATE_FLOOR) {
        Cow::Borrowed(estimates)
    } else {
        Cow::Owned(estimates.iter().map(|&e| e.max(ESTIMATE_FLOOR)).collect())
    };

    // Payments follow the estimates; agents' real utilities are driven by
    // their *actual* costs.
    let outcome = settle_verified(mechanism, profile, Cow::Borrowed(&side), &estimated)?;
    let oracle_outcome = settle_verified(mechanism, profile, Cow::Owned(side), exec)?;
    Ok(VerifiedRound {
        report,
        outcome,
        oracle_outcome,
    })
}

/// The least estimated execution value a verified round pays against.
const ESTIMATE_FLOOR: f64 = 1e-12;

#[cfg(test)]
mod tests {
    use super::*;
    use lb_core::scenario::{paper_system, paper_true_values, PAPER_ARRIVAL_RATE};
    use lb_mechanism::{run_mechanism, run_verified, CompensationBonusMechanism};

    fn deterministic_config() -> SimulationConfig {
        SimulationConfig {
            horizon: 500.0,
            seed: 1,
            model: ServiceModel::StationaryDeterministic,
            workload: Default::default(),
            warmup: 0.0,
            estimator: EstimatorConfig::default(),
        }
    }

    #[test]
    fn deterministic_round_recovers_exec_values_exactly() {
        let trues = paper_true_values();
        let report =
            simulate_round(&trues, &trues, PAPER_ARRIVAL_RATE, &deterministic_config()).unwrap();
        for (i, (&est, &t)) in report.estimated_exec_values.iter().zip(&trues).enumerate() {
            assert!((est - t).abs() < 1e-9, "machine {i}: {est} vs {t}");
        }
        // Estimated total latency matches the closed form.
        assert!(
            (report.estimated_total_latency - 400.0 / 5.1).abs() < 1e-6,
            "L = {}",
            report.estimated_total_latency
        );
    }

    #[test]
    fn lazy_machine_is_detected() {
        let trues = paper_true_values();
        let mut exec = trues.clone();
        exec[0] = 2.0; // C1 runs twice as slow.
        let report =
            simulate_round(&trues, &exec, PAPER_ARRIVAL_RATE, &deterministic_config()).unwrap();
        assert!((report.estimated_exec_values[0] - 2.0).abs() < 1e-9);
        assert!((report.estimated_exec_values[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn partitioned_simulation_is_bit_identical_to_the_full_round() {
        // The sharded coordinator splits the execution phase across shard
        // workers via simulate_partition. Stitching the partition reports
        // back together must reproduce the single-coordinator round bit for
        // bit — the stochastic model makes this a real test of the global
        // RNG stream alignment.
        let trues = paper_true_values();
        let config = SimulationConfig {
            horizon: 500.0,
            seed: 9,
            model: ServiceModel::StationaryExponential,
            workload: Default::default(),
            warmup: 0.0,
            estimator: EstimatorConfig::default(),
        };
        let full = simulate_round(&trues, &trues, PAPER_ARRIVAL_RATE, &config).unwrap();
        for k in [1usize, 3, 5, 16] {
            let chunk = trues.len().div_ceil(k);
            let mut estimates = Vec::new();
            let mut observations = Vec::new();
            let mut latency_parts = Vec::new();
            for (s, part) in trues.chunks(chunk).enumerate() {
                let off = s * chunk;
                let rates = &full.allocation.rates()[off..off + part.len()];
                let p = simulate_partition(part, part, rates, &config, off as u64).unwrap();
                estimates.extend(p.estimated_exec_values);
                observations.extend(p.observations);
                latency_parts.push(p.estimated_total_latency);
            }
            assert_eq!(estimates.len(), trues.len(), "k = {k}");
            for i in 0..trues.len() {
                assert_eq!(
                    estimates[i].to_bits(),
                    full.estimated_exec_values[i].to_bits(),
                    "k = {k}, machine {i}: estimate diverged"
                );
                assert_eq!(observations[i].machine, full.observations[i].machine);
                assert_eq!(
                    observations[i].jobs_arrived,
                    full.observations[i].jobs_arrived
                );
                assert_eq!(
                    observations[i].assigned_rate.to_bits(),
                    full.observations[i].assigned_rate.to_bits()
                );
            }
            // The latency total is a diagnostic, not a protocol output; the
            // partition grouping may regroup the fold, so compare relatively.
            let stitched: f64 = latency_parts.iter().sum();
            assert!(
                (stitched - full.estimated_total_latency).abs()
                    <= 1e-12 * full.estimated_total_latency.abs(),
                "k = {k}: latency {stitched} vs {}",
                full.estimated_total_latency
            );
        }
    }

    /// Folds a partition's outputs into one word: every estimate, and per
    /// machine its index, rate, arrival count, raw response statistics and
    /// estimate, plus the latency total.
    fn digest(h: u64, p: &PartitionReport) -> u64 {
        fn mix(mut z: u64) -> u64 {
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        let mut words = p
            .estimated_exec_values
            .iter()
            .map(|e| e.to_bits())
            .collect::<Vec<_>>();
        for o in &p.observations {
            let (count, mean, m2, min, max, sum) = o.response.parts();
            words.extend([
                o.machine as u64,
                o.assigned_rate.to_bits(),
                o.jobs_arrived,
                count,
            ]);
            words.extend([mean, m2, min, max, sum].map(f64::to_bits));
            words.push(o.estimated_exec.map_or(u64::MAX, f64::to_bits));
        }
        words.push(p.estimated_total_latency.to_bits());
        words.into_iter().fold(h, |h, w| mix(h ^ w))
    }

    #[test]
    fn golden_simulator_digests() {
        // Pins the kernel's outputs to fixed values, not to another path:
        // every model, both workloads, estimator noise, warm-up and sample
        // caps, through the round and through explicit-rate partitions with
        // idle machines at stream offset 0 and at a non-zero offset.
        use crate::workload::WorkloadModel;
        use lb_stats::rng::{Rng, SplitMix64};
        const N: usize = 1024;
        const OFFSET: usize = 517;
        let mut g = SplitMix64::new(0x601d);
        let mut log_uniform = |lo: f64, hi: f64| 10f64.powf(lo + (hi - lo) * g.next_f64());
        let bids: Vec<f64> = (0..N).map(|_| log_uniform(0.0, 2.0)).collect();
        let actual: Vec<f64> = bids
            .iter()
            .enumerate()
            .map(|(i, &b)| if i % 9 == 0 { 2.0 * b } else { b })
            .collect();
        let rates: Vec<f64> = (0..N)
            .map(|i| match (i % 5, i % 13) {
                (0, _) => 0.0,
                (_, 0) => 1e-13,
                _ => log_uniform(-1.0, 0.5),
            })
            .collect();
        let models = [
            ServiceModel::StationaryExponential,
            ServiceModel::StationaryDeterministic,
            ServiceModel::Mm1Queue,
            ServiceModel::PsQueue,
        ];
        let workloads = [
            WorkloadModel::Poisson,
            WorkloadModel::Bursty {
                burstiness: 5.0,
                dwell_means: [3.0, 1.0],
            },
        ];
        let plain = (0.0, EstimatorConfig::default());
        let knobs = (
            1.0,
            EstimatorConfig {
                max_samples: Some(3),
                noise_cv: 0.25,
            },
        );
        let mut got = Vec::new();
        for (m, &model) in models.iter().enumerate() {
            for (w, &workload) in workloads.iter().enumerate() {
                for (k, &(warmup, estimator)) in [plain, knobs].iter().enumerate() {
                    let config = SimulationConfig {
                        horizon: 6.0,
                        seed: 0xd1ce + (m * 4 + w * 2 + k) as u64,
                        model,
                        workload,
                        warmup,
                        estimator,
                    };
                    let round = simulate_round(&bids, &actual, N as f64, &config).unwrap();
                    let round = PartitionReport {
                        observations: round.observations,
                        estimated_exec_values: round.estimated_exec_values,
                        estimated_total_latency: round.estimated_total_latency,
                    };
                    let whole = simulate_partition(&bids, &actual, &rates, &config, 0).unwrap();
                    let tail = simulate_partition(
                        &bids[OFFSET..],
                        &actual[OFFSET..],
                        &rates[OFFSET..],
                        &config,
                        OFFSET as u64,
                    )
                    .unwrap();
                    let parts = [round, whole, tail];
                    for p in &parts {
                        assert!(p.observations.iter().any(|o| o.response.count() > 1));
                    }
                    got.push(parts.iter().fold(0, digest));
                }
            }
        }
        // Computed before the stream table and the reused buffers landed.
        let expected: [u64; 16] = [
            0x2848_526c_6801_3d6c,
            0xf9c2_0e9a_1bd4_76da,
            0xa50d_406a_ac38_990d,
            0x6b1d_cf6d_fa1f_56bc,
            0xfd86_32b3_0f86_ced5,
            0xe9fc_6682_c526_e52c,
            0xfbe6_d33f_4cc4_870c,
            0xf474_1c12_42f4_0c80,
            0x084c_aa57_87f4_0d32,
            0x950d_2647_c25a_8f9b,
            0x8f35_df27_8387_d0ed,
            0x7808_867b_e42f_cfc4,
            0xfcf4_98bc_0896_78a3,
            0xdd10_bf87_dbeb_2e9d,
            0x5f95_d724_39bf_326d,
            0x414f_720f_ecc9_d5a8,
        ];
        for (case, (g, e)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(*g, *e, "case {case}: digest {g:#018x}, expected {e:#018x}");
        }
    }

    #[test]
    fn partition_arity_mismatches_are_rejected() {
        let cfg = deterministic_config();
        assert!(simulate_partition(&[1.0, 2.0], &[1.0], &[0.5, 0.5], &cfg, 0).is_err());
        assert!(simulate_partition(&[1.0, 2.0], &[1.0, 2.0], &[0.5], &cfg, 0).is_err());
        assert!(matches!(
            simulate_partition(&[1.0], &[1.0], &[], &cfg, 0),
            Err(CoreError::LengthMismatch {
                expected: 1,
                actual: 0
            })
        ));
        let mut bad = cfg;
        bad.horizon = -1.0;
        assert!(simulate_partition(&[1.0], &[1.0], &[0.5], &bad, 0).is_err());
    }

    /// One machine through `simulate_partition` with the given actual
    /// value and rate: the shape of each input that used to panic.
    fn one_machine(actual: f64, rate: f64) -> Result<PartitionReport, CoreError> {
        simulate_partition(&[1.0], &[actual], &[rate], &deterministic_config(), 0)
    }

    #[test]
    fn zero_actual_value_on_an_idle_machine_is_a_typed_error() {
        assert!(matches!(
            one_machine(0.0, 0.0),
            Err(CoreError::InvalidParameter {
                name: "actual exec value",
                value: 0.0
            })
        ));
    }

    #[test]
    fn nan_actual_value_is_a_typed_error() {
        assert!(matches!(
            one_machine(f64::NAN, 0.5),
            Err(CoreError::InvalidParameter { name: "actual exec value", value }) if value.is_nan()
        ));
    }

    #[test]
    fn nan_rate_is_a_typed_error() {
        assert!(matches!(
            one_machine(1.0, f64::NAN),
            Err(CoreError::InvalidRate(r)) if r.is_nan()
        ));
    }

    #[test]
    fn negative_rate_is_a_typed_error() {
        assert!(matches!(
            one_machine(1.0, -1.0),
            Err(CoreError::InvalidRate(r)) if r == -1.0
        ));
    }

    #[test]
    fn mean_response_overflow_and_underflow_are_typed_errors() {
        for (actual, rate) in [(1e300, 1e10), (1e-300, 1e-11)] {
            assert!(matches!(
                one_machine(actual, rate),
                Err(CoreError::InvalidParameter {
                    name: "mean response",
                    ..
                })
            ));
        }
        // An idle machine draws no response, so its product is not checked.
        assert!(one_machine(1e-300, 1e-13).is_ok());
    }

    #[test]
    fn bursty_rates_that_overflow_or_vanish_are_typed_errors() {
        // Each parameter is in range, but the calm rate they give is NaN
        // (the dwell sum overflows) or zero (the burst weight overflows).
        for (burstiness, dwell_means) in [(2.0, [1e308, 1e308]), (1e308, [1.0, 10.0])] {
            let config = SimulationConfig {
                workload: crate::workload::WorkloadModel::Bursty {
                    burstiness,
                    dwell_means,
                },
                ..deterministic_config()
            };
            assert!(matches!(
                simulate_partition(&[1.0], &[1.0], &[0.5], &config, 0),
                Err(CoreError::InvalidParameter {
                    name: "bursty arrival rate",
                    ..
                })
            ));
            // An idle machine draws no arrivals, so its rates are not checked.
            assert!(simulate_partition(&[1.0], &[1.0], &[0.0], &config, 0).is_ok());
        }
    }

    #[test]
    fn noise_cv_whose_square_overflows_is_a_typed_error() {
        for noise_cv in [1e155, f64::INFINITY, f64::NEG_INFINITY] {
            let config = SimulationConfig {
                estimator: EstimatorConfig {
                    max_samples: None,
                    noise_cv,
                },
                ..deterministic_config()
            };
            assert!(matches!(
                simulate_partition(&[1.0], &[1.0], &[0.5], &config, 0),
                Err(CoreError::InvalidParameter {
                    name: "noise cv",
                    ..
                })
            ));
        }
    }

    #[test]
    fn a_stream_offset_past_u64_is_a_typed_error() {
        let cfg = deterministic_config();
        let at = |offset| simulate_partition(&[1.0, 1.0], &[1.0; 2], &[0.5; 2], &cfg, offset);
        assert!(matches!(
            at(u64::MAX - 1),
            Err(CoreError::InvalidParameter {
                name: "stream offset",
                ..
            })
        ));
        let top = at(u64::MAX - 2).unwrap();
        assert_eq!(top.observations[1].machine as u64, u64::MAX - 1);
    }

    #[test]
    fn round_rejects_a_non_positive_actual_value() {
        let trues = paper_true_values();
        let mut actual = trues.clone();
        actual[4] = -2.0;
        assert!(matches!(
            simulate_round(&trues, &actual, PAPER_ARRIVAL_RATE, &deterministic_config()),
            Err(CoreError::InvalidParameter {
                name: "actual exec value",
                value: -2.0
            })
        ));
    }

    #[test]
    fn stochastic_round_estimates_within_tolerance() {
        let trues = paper_true_values();
        let config = SimulationConfig {
            horizon: 20_000.0,
            seed: 2,
            model: ServiceModel::StationaryExponential,
            workload: Default::default(),
            warmup: 0.0,
            estimator: EstimatorConfig::default(),
        };
        let report = simulate_round(&trues, &trues, PAPER_ARRIVAL_RATE, &config).unwrap();
        for (i, (&est, &t)) in report.estimated_exec_values.iter().zip(&trues).enumerate() {
            let rel = (est - t).abs() / t;
            assert!(rel < 0.1, "machine {i}: {est} vs {t}");
        }
    }

    #[test]
    fn verified_round_payments_match_oracle_in_deterministic_mode() {
        let sys = paper_system();
        let profile = Profile::truthful(&sys, PAPER_ARRIVAL_RATE).unwrap();
        let vr = verified_round(
            &CompensationBonusMechanism::paper(),
            &profile,
            &deterministic_config(),
        )
        .unwrap();
        assert!(
            vr.max_payment_error() < 1e-6,
            "error {}",
            vr.max_payment_error()
        );
    }

    #[test]
    fn verified_round_detects_and_penalizes_laziness() {
        let sys = paper_system();
        let honest = Profile::truthful(&sys, PAPER_ARRIVAL_RATE).unwrap();
        let lazy = Profile::with_deviation(&sys, PAPER_ARRIVAL_RATE, 0, 1.0, 2.0).unwrap();
        let mech = CompensationBonusMechanism::paper();
        let cfg = deterministic_config();
        let p_honest = verified_round(&mech, &honest, &cfg)
            .unwrap()
            .outcome
            .payments[0];
        let p_lazy = verified_round(&mech, &lazy, &cfg).unwrap().outcome.payments[0];
        assert!(
            p_lazy < p_honest - 1e-6,
            "lazy {p_lazy} !< honest {p_honest}"
        );
    }

    /// Every output bit of a verified round, in a fixed order: the report's
    /// rates, estimates, latency and per-machine observations, then each
    /// outcome's columns and realised latency.
    fn round_bits(report: &RoundReport, outcomes: [&MechanismOutcome; 2]) -> Vec<u64> {
        let mut words: Vec<u64> = report
            .allocation
            .rates()
            .iter()
            .chain(&report.estimated_exec_values)
            .chain([&report.estimated_total_latency])
            .map(|x| x.to_bits())
            .collect();
        for o in &report.observations {
            let (count, mean, m2, min, max, sum) = o.response.parts();
            words.extend([o.machine as u64, o.assigned_rate.to_bits(), o.jobs_arrived]);
            words.push(count);
            words.extend([mean, m2, min, max, sum].map(f64::to_bits));
            words.push(o.estimated_exec.map_or(u64::MAX, f64::to_bits));
        }
        for out in outcomes {
            let columns = [
                out.allocation.rates(),
                &out.payments,
                &out.valuations,
                &out.utilities,
            ];
            for column in columns {
                words.push(column.len() as u64);
                words.extend(column.iter().map(|x| x.to_bits()));
            }
            words.push(out.total_latency.to_bits());
        }
        words
    }

    /// `verified_round` as the calls it stands for: `simulate_round`, the
    /// `max(1e-12)` clamp of the estimates, `run_verified` on them, then
    /// `run_mechanism` for the oracle.
    fn composed_round(
        mechanism: &dyn VerifiedMechanism,
        profile: &Profile,
        config: &SimulationConfig,
    ) -> Result<Vec<u64>, MechanismError> {
        let (bids, exec, r) = (profile.bids(), profile.exec_values(), profile.total_rate());
        let report = simulate_round(bids, exec, r, config)?;
        let estimated: Vec<f64> = report
            .estimated_exec_values
            .iter()
            .map(|&e| e.max(1e-12))
            .collect();
        let outcome = run_verified(mechanism, profile, &estimated)?;
        let oracle = run_mechanism(mechanism, profile)?;
        Ok(round_bits(&report, [&outcome, &oracle]))
    }

    /// `verified_round` equals the composed calls bit for bit: report,
    /// outcome and oracle, for CB under both valuation models and for the
    /// unverified mechanism, which takes the trait's default path. The
    /// inputs cover block edges (n = 16, 17), idle machines and a machine
    /// that dominates `S` (the leave-one-out re-sum fallback, and an
    /// estimate under the clamp). Invalid inputs give the same error, and
    /// `simulate_round` keeps naming invalid bids "latency coefficient".
    #[test]
    fn prop_verified_round_equals_the_composed_calls() {
        use lb_mechanism::UnverifiedCompensationBonus;
        use lb_stats::{prop, prop_assert_eq};
        let mechanisms: [&dyn VerifiedMechanism; 3] = [
            &CompensationBonusMechanism::paper(),
            &CompensationBonusMechanism::contributed(),
            &UnverifiedCompensationBonus::default(),
        ];
        let models = [
            ServiceModel::StationaryExponential,
            ServiceModel::StationaryDeterministic,
            ServiceModel::Mm1Queue,
            ServiceModel::PsQueue,
        ];
        prop::check(
            "prop_verified_round_equals_the_composed_calls",
            32,
            (
                (0usize..4, 0usize..3),
                prop::vec(-3.0f64..3.0, 1000..1001),
                prop::vec(1.0f64..3.0, 1000..1001),
                (0.5f64..3.0, 1.0f64..64.0),
                prop::any_u64(),
                (0usize..4, prop::any_bool()),
            ),
            |((size, shape), exponents, slowdowns, (bid_factor, r), seed, (model, noisy))| {
                let n = [2, 16, 17, 1000][size];
                let mut trues: Vec<f64> = exponents[..n].iter().map(|&e| 10f64.powf(e)).collect();
                match shape {
                    // Every fifth machine is too slow to get a job.
                    1 => trues.iter_mut().step_by(5).skip(1).for_each(|t| *t *= 1e20),
                    // The last machine's 1/t outweighs the rest of S by
                    // more than 1e18, and every other machine is idle.
                    2 => trues[n - 1] = 1e-25,
                    _ => {}
                }
                let mut bids = trues.clone();
                bids[0] *= bid_factor;
                let exec: Vec<f64> = trues.iter().zip(&slowdowns).map(|(t, k)| t * k).collect();
                let profile = Profile::new(trues, bids, exec, r).unwrap();
                let config = SimulationConfig {
                    horizon: 2.0,
                    seed,
                    model: models[model],
                    estimator: EstimatorConfig {
                        max_samples: noisy.then_some(3),
                        noise_cv: if noisy { 0.25 } else { 0.0 },
                    },
                    ..SimulationConfig::default()
                };
                for m in mechanisms {
                    let round = verified_round(m, &profile, &config).unwrap();
                    let got = round_bits(&round.report, [&round.outcome, &round.oracle_outcome]);
                    prop_assert_eq!(got, composed_round(m, &profile, &config).unwrap());
                }
                Ok(())
            },
        );

        // Errors: the same variant and message as the composed calls.
        let shown = |r: Result<Vec<u64>, MechanismError>| format!("{:?}", r.map(drop));
        let two = Profile::new(vec![1.0, 2.0], vec![1.0, 2.0], vec![1.0, 2.0], 3.0).unwrap();
        let one = Profile::new(vec![1.0], vec![1.0], vec![1.0], 3.0).unwrap();
        let slow = Profile::new(vec![1.0, 1.0], vec![1.0, 1.0], vec![1e300, 1.0], 1e10).unwrap();
        let config = deterministic_config();
        let cases = [
            (
                &two,
                SimulationConfig {
                    horizon: 0.0,
                    ..config
                },
                "InvalidRate(0.0)",
            ),
            (
                &two,
                SimulationConfig {
                    horizon: f64::NAN,
                    ..config
                },
                "InvalidRate(NaN)",
            ),
            (&one, config, "NeedTwoAgents"),
            (&slow, config, "\"mean response\""),
        ];
        for (profile, config, needle) in cases {
            for m in mechanisms {
                let want = shown(composed_round(m, profile, &config));
                assert!(want.contains(needle), "{want}");
                let got = verified_round(m, profile, &config)
                    .map(|v| round_bits(&v.report, [&v.outcome, &v.oracle_outcome]));
                assert_eq!(shown(got), want);
            }
        }
        let cfg = deterministic_config();
        assert_eq!(
            format!(
                "{:?}",
                simulate_round(&[1.0, -1.0], &[1.0, 1.0], 3.0, &cfg).map(drop)
            ),
            "Err(InvalidParameter { name: \"latency coefficient\", value: -1.0 })"
        );
        assert_eq!(
            format!(
                "{:?}",
                simulate_round(&[1.0, 2.0], &[1.0, 2.0], 0.0, &cfg).map(drop)
            ),
            "Err(InvalidRate(0.0))"
        );
        assert_eq!(
            format!(
                "{:?}",
                simulate_round(&[1.0, 2.0], &[1.0], 3.0, &cfg).map(drop)
            ),
            "Err(LengthMismatch { expected: 2, actual: 1 })"
        );
        assert_eq!(
            format!("{:?}", simulate_round(&[], &[], 3.0, &cfg).map(drop)),
            "Err(EmptySystem)"
        );
    }

    #[test]
    fn bursty_workload_keeps_the_estimator_unbiased_for_stationary_service() {
        // Under the stationary service models the response law does not
        // depend on the arrival pattern, so MMPP bursts change only the
        // sample count, not the estimate's target.
        let trues = paper_true_values();
        let config = SimulationConfig {
            horizon: 20_000.0,
            seed: 21,
            model: ServiceModel::StationaryExponential,
            workload: crate::workload::WorkloadModel::Bursty {
                burstiness: 8.0,
                dwell_means: [50.0, 10.0],
            },
            warmup: 0.0,
            estimator: EstimatorConfig::default(),
        };
        let report = simulate_round(&trues, &trues, PAPER_ARRIVAL_RATE, &config).unwrap();
        for (i, (&est, &t)) in report.estimated_exec_values.iter().zip(&trues).enumerate() {
            let rel = (est - t).abs() / t;
            assert!(rel < 0.1, "machine {i}: {est} vs {t}");
        }
    }

    #[test]
    fn bursty_workload_biases_queueing_latency_upward() {
        // With a *real* queue, bursts congest the server: the measured mean
        // response (and hence the estimated t~) exceeds the stationary
        // target. This quantifies where the paper's stationary assumption
        // matters.
        let trues = vec![1.0, 1.0];
        let rate = 2.0;
        let mk = |workload| SimulationConfig {
            horizon: 30_000.0,
            seed: 22,
            model: ServiceModel::Mm1Queue,
            workload,
            warmup: 500.0,
            estimator: EstimatorConfig::default(),
        };
        let calm = simulate_round(
            &trues,
            &trues,
            rate,
            &mk(crate::workload::WorkloadModel::Poisson),
        )
        .unwrap();
        let bursty = simulate_round(
            &trues,
            &trues,
            rate,
            &mk(crate::workload::WorkloadModel::Bursty {
                burstiness: 6.0,
                dwell_means: [40.0, 10.0],
            }),
        )
        .unwrap();
        assert!(
            bursty.estimated_exec_values[0] > 1.2 * calm.estimated_exec_values[0],
            "bursty {} vs calm {}",
            bursty.estimated_exec_values[0],
            calm.estimated_exec_values[0]
        );
    }

    #[test]
    fn mismatched_exec_length_is_rejected() {
        let trues = paper_true_values();
        let err = simulate_round(
            &trues,
            &trues[..3],
            PAPER_ARRIVAL_RATE,
            &deterministic_config(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::LengthMismatch { .. }));
    }

    #[test]
    fn invalid_horizon_is_rejected() {
        let trues = paper_true_values();
        let mut cfg = deterministic_config();
        cfg.horizon = 0.0;
        assert!(simulate_round(&trues, &trues, PAPER_ARRIVAL_RATE, &cfg).is_err());
    }
}
