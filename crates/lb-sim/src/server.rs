//! Per-machine service models.
//!
//! The paper's model is a *mean-value* abstraction: a machine with execution
//! value `t̃` serving jobs at rate `x` completes each job in `l(x) = t̃·x`
//! time on average. A service model turns that abstraction into a concrete
//! stochastic process producing per-job response times whose stationary mean
//! equals `t̃·x`:
//!
//! * [`ServiceModel::StationaryExponential`] — responses drawn i.i.d. from
//!   `Exp(mean = t̃·x)`. The lightest-weight realisation; matches the
//!   M/G/1-light-load reading where per-job delay is memoryless around the
//!   operating point.
//! * [`ServiceModel::StationaryDeterministic`] — every response exactly
//!   `t̃·x`; zero-variance pipeline used to validate the estimator and to
//!   reproduce the paper's analytic numbers exactly.
//! * [`ServiceModel::Mm1Queue`] — a literal FCFS M/M/1 queue whose service
//!   rate is calibrated so the stationary mean response at arrival rate `x`
//!   equals `t̃·x`: `1/(μ−x) = t̃·x ⇒ μ = x + 1/(t̃·x)`. The heaviest but
//!   most faithful realisation: responses are autocorrelated through the
//!   queue, stressing the estimator the way a real system would.

use crate::queue::{simulate_fcfs, JobRecord};
use lb_stats::dist::{sample, Exponential};
use lb_stats::rng::Xoshiro256StarStar;

/// Stochastic realisation of the paper's latency abstraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServiceModel {
    /// I.i.d. exponential responses with mean `t̃·x`.
    #[default]
    StationaryExponential,
    /// Constant responses of exactly `t̃·x`.
    StationaryDeterministic,
    /// A real FCFS M/M/1 queue calibrated to mean response `t̃·x`.
    Mm1Queue,
    /// A processor-sharing M/M/1-PS queue calibrated to mean response
    /// `t̃·x` (same stationary mean as FCFS, different dynamics: no waiting
    /// room, service-variance-insensitive).
    PsQueue,
}

impl ServiceModel {
    /// Simulates the completion of the jobs arriving at `arrivals` (sorted)
    /// on a machine with execution value `exec_value` assigned arrival rate
    /// `assigned_rate`, returning per-job response times.
    ///
    /// For `assigned_rate == 0` (machine idle) the result is empty.
    ///
    /// # Panics
    /// Panics on invalid parameters (negative rate, non-positive exec value).
    #[must_use]
    pub fn responses(
        self,
        arrivals: &[f64],
        exec_value: f64,
        assigned_rate: f64,
        rng: &mut Xoshiro256StarStar,
    ) -> Vec<f64> {
        let mut out = Vec::new();
        self.responses_into(arrivals, exec_value, assigned_rate, rng, &mut out);
        out
    }

    /// [`Self::responses`] into a caller-owned buffer: replaces the contents
    /// of `out` with one response per arrival. The stationary models touch
    /// no heap once `out` has grown to the largest machine's job count; the
    /// two queue models still build their own job records.
    ///
    /// # Panics
    /// Panics on invalid parameters (negative rate, non-positive exec value).
    pub(crate) fn responses_into(
        self,
        arrivals: &[f64],
        exec_value: f64,
        assigned_rate: f64,
        rng: &mut Xoshiro256StarStar,
        out: &mut Vec<f64>,
    ) {
        assert!(
            exec_value.is_finite() && exec_value > 0.0,
            "ServiceModel: invalid exec value"
        );
        assert!(
            assigned_rate.is_finite() && assigned_rate >= 0.0,
            "ServiceModel: invalid rate"
        );
        out.clear();
        if arrivals.is_empty() || assigned_rate <= 0.0 {
            return;
        }
        let mean_response = exec_value * assigned_rate;
        match self {
            Self::StationaryExponential => {
                let d = Exponential::with_mean(mean_response);
                out.extend(arrivals.iter().map(|_| sample(&d, rng)));
            }
            Self::StationaryDeterministic => out.resize(arrivals.len(), mean_response),
            Self::Mm1Queue => {
                // Calibrate mu so the stationary mean response equals t̃·x.
                let mu = assigned_rate + 1.0 / mean_response;
                let recs: Vec<JobRecord> = simulate_fcfs(arrivals, &Exponential::new(mu), rng);
                out.extend(recs.iter().map(JobRecord::response));
            }
            Self::PsQueue => {
                // M/M/1-PS shares the FCFS mean response 1/(mu - x): same
                // calibration, processor-sharing dynamics.
                let mu = assigned_rate + 1.0 / mean_response;
                let svc = Exponential::new(mu);
                let reqs: Vec<f64> = arrivals.iter().map(|_| sample(&svc, rng)).collect();
                out.extend(
                    crate::queue::simulate_ps(arrivals, &reqs)
                        .iter()
                        .map(JobRecord::response),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::PoissonProcess;
    use lb_stats::online::OnlineStats;

    fn arrivals(rate: f64, horizon: f64, seed: u64) -> Vec<f64> {
        PoissonProcess::new(rate, Xoshiro256StarStar::seed_from_u64(seed)).arrivals_until(horizon)
    }

    #[test]
    fn deterministic_model_hits_target_exactly() {
        let a = arrivals(2.0, 100.0, 1);
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        let r = ServiceModel::StationaryDeterministic.responses(&a, 3.0, 2.0, &mut rng);
        assert_eq!(r.len(), a.len());
        for &t in &r {
            assert!((t - 6.0).abs() < 1e-12);
        }
    }

    #[test]
    fn exponential_model_mean_converges_to_target() {
        let a = arrivals(4.0, 20_000.0, 3);
        let mut rng = Xoshiro256StarStar::seed_from_u64(4);
        let r = ServiceModel::StationaryExponential.responses(&a, 1.5, 4.0, &mut rng);
        let stats = OnlineStats::from_slice(&r);
        let target = 6.0;
        assert!(
            (stats.mean() - target).abs() / target < 0.02,
            "mean {}",
            stats.mean()
        );
    }

    #[test]
    fn mm1_model_mean_converges_to_target() {
        let rate = 2.0;
        let exec = 1.0;
        let a = arrivals(rate, 50_000.0, 5);
        let mut rng = Xoshiro256StarStar::seed_from_u64(6);
        let r = ServiceModel::Mm1Queue.responses(&a, exec, rate, &mut rng);
        // Discard a warm-up prefix: queue starts empty.
        let tail = &r[r.len() / 10..];
        let stats = OnlineStats::from_slice(tail);
        let target = exec * rate; // 2.0
        assert!(
            (stats.mean() - target).abs() / target < 0.06,
            "mean {}",
            stats.mean()
        );
    }

    #[test]
    fn ps_model_mean_converges_to_target() {
        let rate = 2.0;
        let exec = 1.0;
        let a = arrivals(rate, 50_000.0, 15);
        let mut rng = Xoshiro256StarStar::seed_from_u64(16);
        let r = ServiceModel::PsQueue.responses(&a, exec, rate, &mut rng);
        let tail = &r[r.len() / 10..];
        let stats = OnlineStats::from_slice(tail);
        let target = exec * rate;
        assert!(
            (stats.mean() - target).abs() / target < 0.06,
            "mean {}",
            stats.mean()
        );
    }

    #[test]
    fn idle_machine_produces_nothing() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        assert!(ServiceModel::StationaryExponential
            .responses(&[], 1.0, 1.0, &mut rng)
            .is_empty());
        assert!(ServiceModel::Mm1Queue
            .responses(&[1.0, 2.0], 1.0, 0.0, &mut rng)
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "invalid exec value")]
    fn invalid_exec_value_panics() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(8);
        let _ = ServiceModel::StationaryExponential.responses(&[1.0], 0.0, 1.0, &mut rng);
    }
}
