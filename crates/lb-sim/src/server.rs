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

use crate::queue::{simulate_ps, Fcfs, JobRecord};
use lb_stats::dist::Exponential;
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
        assert!(
            exec_value.is_finite() && exec_value > 0.0,
            "ServiceModel: invalid exec value"
        );
        assert!(
            assigned_rate.is_finite() && assigned_rate >= 0.0,
            "ServiceModel: invalid rate"
        );
        if arrivals.is_empty() || assigned_rate <= 0.0 {
            return Vec::new();
        }
        let mean_response = exec_value * assigned_rate;
        match self.server(mean_response, assigned_rate) {
            Some(mut server) => arrivals.iter().map(|&a| server.respond(a, rng)).collect(),
            None => ps_responses(arrivals, mean_response, assigned_rate, rng),
        }
    }

    /// The per-job server of a busy machine with mean response
    /// `mean_response` (finite and positive) at arrival rate
    /// `assigned_rate`, or `None` for [`Self::PsQueue`], whose responses
    /// need the whole trace ([`ps_responses`]).
    pub(crate) fn server(self, mean_response: f64, assigned_rate: f64) -> Option<Server> {
        match self {
            Self::StationaryExponential => {
                Some(Server::Exponential(Exponential::with_mean(mean_response)))
            }
            Self::StationaryDeterministic => Some(Server::Deterministic(mean_response)),
            Self::Mm1Queue => Some(Server::Fcfs(
                queue_service(mean_response, assigned_rate),
                Fcfs::default(),
            )),
            Self::PsQueue => None,
        }
    }
}

/// The service law of both queue models: rate `mu` calibrated so the
/// stationary mean response `1/(mu − x)` equals `t̃·x` (M/M/1-PS shares the
/// FCFS mean: same calibration, processor-sharing dynamics).
fn queue_service(mean_response: f64, assigned_rate: f64) -> Exponential {
    Exponential::new(assigned_rate + 1.0 / mean_response)
}

/// One machine's server, stepped one job at a time in arrival order: what
/// [`ServiceModel::responses`] and the verification kernel both run.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Server {
    /// I.i.d. responses from this law.
    Exponential(Exponential),
    /// Every response this long.
    Deterministic(f64),
    /// An FCFS queue with service times from this law.
    Fcfs(Exponential, Fcfs),
}

impl Server {
    /// The response time of the job arriving at `arrival`; the random
    /// models draw from the machine's response stream `rng`.
    #[inline]
    pub(crate) fn respond(&mut self, arrival: f64, rng: &mut Xoshiro256StarStar) -> f64 {
        match self {
            Self::Exponential(d) => d.draw(rng),
            Self::Deterministic(r) => *r,
            Self::Fcfs(service, queue) => queue.serve(arrival, service.draw(rng)).response(),
        }
    }
}

/// The M/M/1-PS responses to `arrivals` (sorted, non-empty) at mean response
/// `mean_response` and arrival rate `assigned_rate`: every job's service
/// requirement is drawn from `rng` in arrival order before any job is
/// served, since a PS response depends on the jobs that arrive after it.
pub(crate) fn ps_responses(
    arrivals: &[f64],
    mean_response: f64,
    assigned_rate: f64,
    rng: &mut Xoshiro256StarStar,
) -> Vec<f64> {
    let service = queue_service(mean_response, assigned_rate);
    let requirements: Vec<f64> = arrivals.iter().map(|_| service.draw(rng)).collect();
    simulate_ps(arrivals, &requirements)
        .iter()
        .map(JobRecord::response)
        .collect()
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
