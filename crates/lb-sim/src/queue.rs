//! FCFS single-server queue simulation and M/M/1 analytics.
//!
//! The paper's latency abstraction is justified (Sec. 2) as "the expected
//! waiting time in an M/G/1 queue under light load"; this module provides
//! the actual queueing machinery so that justification can be *checked*:
//! an FCFS server (Lindley's recursion) and a processor-sharing server,
//! plus the closed-form M/M/1 stationary quantities (mean response
//! `1/(μ−λ)`, utilization `ρ = λ/μ`, Little's law) the tests validate the
//! simulator against.

use lb_stats::dist::{sample, Distribution};
use lb_stats::online::OnlineStats;
use lb_stats::rng::Xoshiro256StarStar;

/// Closed-form stationary quantities of an M/M/1 queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mm1Analytic {
    /// Arrival rate λ.
    pub lambda: f64,
    /// Service rate μ.
    pub mu: f64,
}

impl Mm1Analytic {
    /// Creates the analytic model.
    ///
    /// # Panics
    /// Panics unless `0 < lambda < mu` (stability).
    #[must_use]
    pub fn new(lambda: f64, mu: f64) -> Self {
        assert!(
            lambda > 0.0 && mu > lambda,
            "Mm1Analytic: need 0 < lambda < mu"
        );
        Self { lambda, mu }
    }

    /// Server utilization `ρ = λ/μ`.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.lambda / self.mu
    }

    /// Mean response (sojourn) time `W = 1/(μ−λ)`.
    #[must_use]
    pub fn mean_response(&self) -> f64 {
        1.0 / (self.mu - self.lambda)
    }

    /// Mean waiting time in queue `Wq = ρ/(μ−λ)`.
    #[must_use]
    pub fn mean_wait(&self) -> f64 {
        self.utilization() / (self.mu - self.lambda)
    }

    /// Mean number in system `L = λW` (Little's law).
    #[must_use]
    pub fn mean_in_system(&self) -> f64 {
        self.lambda * self.mean_response()
    }
}

/// Per-job record produced by the FCFS simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobRecord {
    /// Arrival time.
    pub arrival: f64,
    /// Service start time (`>= arrival`).
    pub start: f64,
    /// Completion time.
    pub completion: f64,
}

impl JobRecord {
    /// Total time in system (response/sojourn time).
    #[must_use]
    pub fn response(&self) -> f64 {
        self.completion - self.arrival
    }

    /// Time spent waiting before service began.
    #[must_use]
    pub fn wait(&self) -> f64 {
        self.start - self.arrival
    }
}

/// An FCFS single server between jobs, by Lindley's recursion: a job
/// starts at its arrival or when the job before it completes, whichever is
/// later. It needs only the jobs before it, so the verification kernel
/// serves each job as it arrives.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Fcfs {
    free_at: f64,
}

impl Fcfs {
    /// Serves the next job (arrivals in order) for `service` seconds; a
    /// negative service time counts as zero.
    #[inline]
    pub(crate) fn serve(&mut self, arrival: f64, service: f64) -> JobRecord {
        let start = arrival.max(self.free_at);
        self.free_at = start + service.max(0.0);
        JobRecord {
            arrival,
            start,
            completion: self.free_at,
        }
    }
}

/// Simulates an FCFS single-server queue over explicit arrival times with
/// service times drawn from `service`, one per job in arrival order.
///
/// Returns one [`JobRecord`] per arrival, in arrival order.
///
/// # Panics
/// Panics if `arrivals` is not sorted ascending or contains negatives.
#[must_use]
pub fn simulate_fcfs<D: Distribution + ?Sized>(
    arrivals: &[f64],
    service: &D,
    rng: &mut Xoshiro256StarStar,
) -> Vec<JobRecord> {
    let mut prev = 0.0;
    for &a in arrivals {
        assert!(
            a >= prev && a >= 0.0,
            "simulate_fcfs: arrivals must be sorted and non-negative"
        );
        prev = a;
    }
    let mut server = Fcfs::default();
    arrivals
        .iter()
        .map(|&a| server.serve(a, sample(service, rng)))
        .collect()
}

/// Simulates an egalitarian processor-sharing (PS) server: all jobs in the
/// system receive an equal share of the service capacity.
///
/// `requirements[i]` is job `i`'s total service requirement (time it would
/// take alone on the server). PS has no waiting room — every job starts
/// immediately at a reduced rate — so `start == arrival` in the records.
///
/// Classic facts validated by the tests: for M/M/1-PS the mean sojourn time
/// equals FCFS's `1/(μ−λ)`, and unlike FCFS the PS mean is *insensitive* to
/// the service-time distribution beyond its mean.
///
/// # Panics
/// Panics if the inputs differ in length, arrivals are unsorted/negative, or
/// any requirement is non-positive.
#[must_use]
pub fn simulate_ps(arrivals: &[f64], requirements: &[f64]) -> Vec<JobRecord> {
    assert_eq!(
        arrivals.len(),
        requirements.len(),
        "simulate_ps: arity mismatch"
    );
    let n = arrivals.len();
    let mut records: Vec<JobRecord> = arrivals
        .iter()
        .map(|&a| JobRecord {
            arrival: a,
            start: a,
            completion: 0.0,
        })
        .collect();
    let mut prev = 0.0;
    for (&a, &r) in arrivals.iter().zip(requirements) {
        assert!(
            a >= prev && a >= 0.0,
            "simulate_ps: arrivals must be sorted and non-negative"
        );
        assert!(
            r.is_finite() && r > 0.0,
            "simulate_ps: requirements must be > 0"
        );
        prev = a;
    }

    // Active set: (job index, remaining requirement).
    let mut active: Vec<(usize, f64)> = Vec::new();
    let mut now = 0.0f64;
    let mut next_arrival = 0usize;

    loop {
        if active.is_empty() {
            if next_arrival == n {
                break;
            }
            now = arrivals[next_arrival];
            active.push((next_arrival, requirements[next_arrival]));
            next_arrival += 1;
            continue;
        }
        let k = active.len() as f64;
        let min_rem = active.iter().map(|&(_, r)| r).fold(f64::INFINITY, f64::min);
        let finish_dt = min_rem * k;
        let arrival_dt = if next_arrival < n {
            arrivals[next_arrival] - now
        } else {
            f64::INFINITY
        };

        if arrival_dt < finish_dt {
            // Serve everyone at rate 1/k until the arrival, then admit it.
            for entry in &mut active {
                entry.1 -= arrival_dt / k;
            }
            now += arrival_dt;
            active.push((next_arrival, requirements[next_arrival]));
            next_arrival += 1;
        } else {
            // Run to the next completion epoch.
            for entry in &mut active {
                entry.1 -= min_rem;
            }
            now += finish_dt;
            active.retain(|&(idx, rem)| {
                if rem <= 1e-12 {
                    records[idx].completion = now;
                    false
                } else {
                    true
                }
            });
        }
    }
    records
}

/// Summary statistics of a simulated queue run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueSummary {
    /// Response-time statistics.
    pub response: OnlineStats,
    /// Waiting-time statistics.
    pub wait: OnlineStats,
    /// Fraction of the makespan the server was busy.
    pub utilization: f64,
}

/// Summarises job records (optionally discarding a warm-up prefix by time).
#[must_use]
pub fn summarize(records: &[JobRecord], warmup: f64) -> QueueSummary {
    let mut response = OnlineStats::new();
    let mut wait = OnlineStats::new();
    let mut busy = 0.0;
    let mut makespan = 0.0f64;
    for r in records {
        makespan = makespan.max(r.completion);
        if r.arrival >= warmup {
            response.push(r.response());
            wait.push(r.wait());
        }
        busy += r.completion - r.start;
    }
    let utilization = if makespan > 0.0 {
        (busy / makespan).min(1.0)
    } else {
        0.0
    };
    QueueSummary {
        response,
        wait,
        utilization,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::PoissonProcess;
    use lb_stats::dist::{Deterministic, Exponential};

    #[test]
    fn analytic_formulas() {
        let q = Mm1Analytic::new(2.0, 5.0);
        assert!((q.utilization() - 0.4).abs() < 1e-12);
        assert!((q.mean_response() - 1.0 / 3.0).abs() < 1e-12);
        assert!((q.mean_wait() - 0.4 / 3.0).abs() < 1e-12);
        assert!((q.mean_in_system() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "need 0 < lambda < mu")]
    fn analytic_rejects_unstable() {
        let _ = Mm1Analytic::new(5.0, 5.0);
    }

    #[test]
    fn empty_arrivals_yield_no_records() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0);
        let out = simulate_fcfs(&[], &Deterministic::new(1.0), &mut rng);
        assert!(out.is_empty());
    }

    #[test]
    fn deterministic_light_load_has_no_waiting() {
        // Arrivals every 2s, service 1s: never any queueing.
        let arrivals: Vec<f64> = (0..100).map(|i| 2.0 * i as f64).collect();
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let recs = simulate_fcfs(&arrivals, &Deterministic::new(1.0), &mut rng);
        for r in &recs {
            assert_eq!(r.wait(), 0.0);
            assert!((r.response() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn overload_builds_queue() {
        // Arrivals every 1s, service 2s: waits grow linearly.
        let arrivals: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        let recs = simulate_fcfs(&arrivals, &Deterministic::new(2.0), &mut rng);
        assert!(recs.last().unwrap().wait() > 40.0);
        // FCFS order is preserved.
        for w in recs.windows(2) {
            assert!(w[1].start >= w[0].completion - 1e-12);
        }
    }

    #[test]
    fn mm1_simulation_matches_analytic_mean_response() {
        let lambda = 2.0;
        let mu = 5.0;
        let mut arrivals_gen = PoissonProcess::new(lambda, Xoshiro256StarStar::seed_from_u64(3));
        let arrivals = arrivals_gen.arrivals_until(20_000.0);
        let mut rng = Xoshiro256StarStar::seed_from_u64(4);
        let recs = simulate_fcfs(&arrivals, &Exponential::new(mu), &mut rng);
        let summary = summarize(&recs, 100.0);
        let analytic = Mm1Analytic::new(lambda, mu);
        let rel =
            (summary.response.mean() - analytic.mean_response()).abs() / analytic.mean_response();
        assert!(
            rel < 0.05,
            "mean response {} vs analytic {}",
            summary.response.mean(),
            analytic.mean_response()
        );
        assert!((summary.utilization - analytic.utilization()).abs() < 0.02);
    }

    #[test]
    fn littles_law_holds_in_simulation() {
        let lambda = 3.0;
        let mu = 4.0;
        let mut arrivals_gen = PoissonProcess::new(lambda, Xoshiro256StarStar::seed_from_u64(5));
        let arrivals = arrivals_gen.arrivals_until(30_000.0);
        let mut rng = Xoshiro256StarStar::seed_from_u64(6);
        let recs = simulate_fcfs(&arrivals, &Exponential::new(mu), &mut rng);
        let summary = summarize(&recs, 500.0);
        // L = λW: estimate L from the response-time integral.
        let l_est = lambda * summary.response.mean();
        let analytic = Mm1Analytic::new(lambda, mu).mean_in_system();
        let rel = (l_est - analytic).abs() / analytic;
        assert!(rel < 0.1, "L {} vs analytic {}", l_est, analytic);
    }

    #[test]
    fn ps_single_job_runs_at_full_speed() {
        let recs = simulate_ps(&[1.0], &[2.5]);
        assert!((recs[0].completion - 3.5).abs() < 1e-12);
        assert_eq!(recs[0].wait(), 0.0);
    }

    #[test]
    fn ps_two_overlapping_jobs_share_the_server() {
        // Job 0 arrives at 0 needing 2s; job 1 arrives at 1 needing 1s.
        // 0..1: job 0 alone (1s done, 1s left). 1..3: both at half rate —
        // at t=3 both have 0.5·2 = 1s served, so both finish exactly at 3.
        let recs = simulate_ps(&[0.0, 1.0], &[2.0, 1.0]);
        assert!((recs[0].completion - 3.0).abs() < 1e-9, "{recs:?}");
        assert!((recs[1].completion - 3.0).abs() < 1e-9, "{recs:?}");
    }

    #[test]
    fn mm1_ps_mean_sojourn_matches_fcfs_formula() {
        let lambda = 2.0;
        let mu = 5.0;
        let mut arrivals_gen = PoissonProcess::new(lambda, Xoshiro256StarStar::seed_from_u64(30));
        let arrivals = arrivals_gen.arrivals_until(20_000.0);
        let mut rng = Xoshiro256StarStar::seed_from_u64(31);
        let svc = Exponential::new(mu);
        let reqs: Vec<f64> = arrivals
            .iter()
            .map(|_| lb_stats::dist::sample(&svc, &mut rng))
            .collect();
        let recs = simulate_ps(&arrivals, &reqs);
        let summary = summarize(&recs, 200.0);
        let analytic = Mm1Analytic::new(lambda, mu).mean_response();
        let rel = (summary.response.mean() - analytic).abs() / analytic;
        assert!(
            rel < 0.06,
            "PS mean {} vs 1/(mu-lambda) {}",
            summary.response.mean(),
            analytic
        );
    }

    #[test]
    fn ps_is_insensitive_to_service_variance_while_fcfs_is_not() {
        // Same mean service time, heavy-tailed (Pareto) requirements:
        // FCFS (M/G/1) pays the Pollaczek-Khinchine variance penalty, PS
        // does not — its mean sojourn stays at the M/M/1 value.
        use lb_stats::dist::Pareto;
        let lambda = 2.0;
        let mean_svc = 0.2; // mu = 5
        let analytic = Mm1Analytic::new(lambda, 1.0 / mean_svc).mean_response();

        let mut arrivals_gen = PoissonProcess::new(lambda, Xoshiro256StarStar::seed_from_u64(32));
        let arrivals = arrivals_gen.arrivals_until(60_000.0);
        // Shape 2.1: CV² ≈ 4.8 > 1 so the Pollaczek-Khinchine penalty is
        // real. (Shape 2.5 would have CV² = 0.8 < 1 — *less* variable than
        // exponential — and FCFS would actually beat PS.)
        let svc = Pareto::with_mean(mean_svc, 2.1);
        let mut rng = Xoshiro256StarStar::seed_from_u64(33);
        let reqs: Vec<f64> = arrivals
            .iter()
            .map(|_| lb_stats::dist::sample(&svc, &mut rng))
            .collect();

        let ps = summarize(&simulate_ps(&arrivals, &reqs), 500.0);
        // FCFS with the *same* arrivals and requirements.
        let mut fcfs_recs: Vec<JobRecord> = arrivals
            .iter()
            .map(|&a| JobRecord {
                arrival: a,
                start: 0.0,
                completion: 0.0,
            })
            .collect();
        let mut busy = 0.0f64;
        for (i, (&a, &r)) in arrivals.iter().zip(&reqs).enumerate() {
            let start = a.max(busy);
            fcfs_recs[i].start = start;
            fcfs_recs[i].completion = start + r;
            busy = fcfs_recs[i].completion;
        }
        let fcfs = summarize(&fcfs_recs, 500.0);

        let ps_rel = (ps.response.mean() - analytic).abs() / analytic;
        assert!(
            ps_rel < 0.15,
            "PS mean {} vs insensitive value {}",
            ps.response.mean(),
            analytic
        );
        assert!(
            fcfs.response.mean() > 1.2 * ps.response.mean(),
            "FCFS {} should exceed PS {} under high-variance service",
            fcfs.response.mean(),
            ps.response.mean()
        );
    }

    #[test]
    #[should_panic(expected = "requirements must be > 0")]
    fn ps_rejects_nonpositive_requirements() {
        let _ = simulate_ps(&[0.0], &[0.0]);
    }

    #[test]
    fn queue_responses_are_positively_autocorrelated() {
        // Successive sojourn times through a busy M/M/1 share queueing
        // periods, so their autocorrelation is strongly positive — the
        // reason the estimator's effective sample size is below the job
        // count and batch means are the right CI tool.
        let lambda = 4.0;
        let mu = 5.0; // rho = 0.8
        let mut arrivals_gen = PoissonProcess::new(lambda, Xoshiro256StarStar::seed_from_u64(8));
        let arrivals = arrivals_gen.arrivals_until(20_000.0);
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        let recs = simulate_fcfs(&arrivals, &Exponential::new(mu), &mut rng);
        let responses: Vec<f64> = recs.iter().skip(500).map(JobRecord::response).collect();
        let rho1 = lb_stats::autocorr::autocorrelation(&responses, 1);
        assert!(rho1 > 0.5, "lag-1 autocorrelation {rho1}");
        let ess = lb_stats::autocorr::effective_sample_size(&responses);
        assert!(
            ess < 0.5 * responses.len() as f64,
            "effective sample size {ess} of {} not reduced",
            responses.len()
        );
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_arrivals_panic() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let _ = simulate_fcfs(&[2.0, 1.0], &Deterministic::new(1.0), &mut rng);
    }
}
