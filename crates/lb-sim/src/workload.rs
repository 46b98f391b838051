//! Job arrival workloads.
//!
//! The paper assumes jobs arrive at the system with total rate `R` and that
//! the PR allocation splits this stream so machine `i` receives rate `x_i`.
//! Splitting a Poisson stream by independent routing yields independent
//! Poisson streams, so the simulator generates one [`PoissonProcess`] per
//! machine at its assigned rate.

use lb_core::CoreError;
use lb_stats::dist::Exponential;
use lb_stats::rng::Xoshiro256StarStar;

/// A homogeneous Poisson arrival process with a private RNG stream.
#[derive(Debug, Clone)]
pub struct PoissonProcess {
    interarrival: Exponential,
    rng: Xoshiro256StarStar,
    now: f64,
}

impl PoissonProcess {
    /// Creates a Poisson process with the given arrival rate (> 0) and a
    /// dedicated RNG stream.
    ///
    /// # Panics
    /// Panics unless `rate` is finite and strictly positive.
    #[must_use]
    pub fn new(rate: f64, rng: Xoshiro256StarStar) -> Self {
        Self {
            interarrival: Exponential::new(rate),
            rng,
            now: 0.0,
        }
    }

    /// The arrival rate λ.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.interarrival.rate()
    }

    /// Draws the next arrival time (strictly increasing).
    pub fn next_arrival(&mut self) -> f64 {
        self.now += self.interarrival.draw(&mut self.rng);
        self.now
    }

    /// Generates all arrival times up to `horizon`.
    pub fn arrivals_until(&mut self, horizon: f64) -> Vec<f64> {
        let mut out = Vec::with_capacity((self.rate() * horizon).ceil().max(1.0) as usize);
        until(|| self.next_arrival(), horizon, |t| out.push(t));
        out
    }
}

/// Hands `next()` arrivals to `f` until one lands past `horizon`. The
/// process is left past the horizon, so a later call continues it.
#[inline]
fn until(mut next: impl FnMut() -> f64, horizon: f64, mut f: impl FnMut(f64)) {
    loop {
        let t = next();
        if t > horizon {
            break;
        }
        f(t);
    }
}

/// A two-state Markov-modulated Poisson process (MMPP-2): bursty arrivals.
///
/// The process alternates between a *calm* and a *burst* state with
/// exponentially distributed dwell times; within a state, arrivals are
/// Poisson at that state's rate. MMPPs are the standard parsimonious model
/// of bursty traffic, used here to stress the verification estimator beyond
/// the paper's stationary-Poisson assumption.
#[derive(Debug, Clone)]
struct MmppProcess {
    /// Interarrival law in each state.
    gaps: [Exponential; 2],
    /// Dwell-time law in each state.
    dwells: [Exponential; 2],
    state: usize,
    state_until: f64,
    now: f64,
    rng: Xoshiro256StarStar,
}

impl MmppProcess {
    /// Creates an MMPP-2 starting in state 0. All rates and dwell means
    /// must be finite and positive ([`WorkloadModel::check`]).
    fn new(rates: [f64; 2], dwell_means: [f64; 2], mut rng: Xoshiro256StarStar) -> Self {
        let dwells = dwell_means.map(Exponential::with_mean);
        let first_dwell = dwells[0].draw(&mut rng);
        Self {
            gaps: rates.map(Exponential::new),
            dwells,
            state: 0,
            state_until: first_dwell,
            now: 0.0,
            rng,
        }
    }

    /// Draws the next arrival time (strictly increasing), switching states
    /// as dwell periods expire.
    #[inline]
    fn next_arrival(&mut self) -> f64 {
        loop {
            let candidate = self.now + self.gaps[self.state].draw(&mut self.rng);
            if candidate <= self.state_until {
                self.now = candidate;
                return self.now;
            }
            // The tentative arrival falls after the state switch: advance to
            // the switch and resample in the new state (memorylessness makes
            // this exact).
            self.now = self.state_until;
            self.state ^= 1;
            self.state_until = self.now + self.dwells[self.state].draw(&mut self.rng);
        }
    }
}

/// The calm and burst arrival rates of a bursty machine at long-run rate
/// `rate`: the burst state runs `burstiness` times faster, and the
/// dwell-weighted mean is `rate`: `r_calm·d0 + b·r_calm·d1 = rate·(d0+d1)`.
fn bursty_rates(rate: f64, burstiness: f64, [d0, d1]: [f64; 2]) -> [f64; 2] {
    let r_calm = rate * (d0 + d1) / (d0 + burstiness * d1);
    [r_calm, burstiness * r_calm]
}

/// A job flowing through the simulated system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    /// Global job identifier.
    pub id: u64,
    /// Machine the job was routed to.
    pub machine: usize,
    /// Arrival time at the machine.
    pub arrival: f64,
}

/// How job arrivals are generated for each machine.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum WorkloadModel {
    /// Stationary Poisson arrivals at the assigned rate (the paper's model).
    #[default]
    Poisson,
    /// Bursty MMPP-2 arrivals whose *long-run mean* equals the assigned
    /// rate: the burst state runs at `burstiness ×` the calm state's rate.
    Bursty {
        /// Ratio of burst-state to calm-state arrival rate (> 1).
        burstiness: f64,
        /// Mean dwell time in each state (calm, burst), in seconds.
        dwell_means: [f64; 2],
    },
}

/// A machine whose rate is at most this is idle: it receives no jobs.
pub(crate) const IDLE_RATE: f64 = 1e-12;

impl WorkloadModel {
    /// Rejects a bursty model whose burstiness is not finite and above 1,
    /// whose dwell means are not finite and positive, or whose calm or
    /// burst rate is not a normal float on a busy machine at one of
    /// `rates` (say, a dwell sum that overflows).
    ///
    /// # Errors
    /// [`CoreError::InvalidParameter`] naming the first bad value.
    pub(crate) fn check(self, rates: &[f64]) -> Result<(), CoreError> {
        let Self::Bursty {
            burstiness,
            dwell_means,
        } = self
        else {
            return Ok(());
        };
        let invalid = |name, value| Err(CoreError::InvalidParameter { name, value });
        if !(burstiness.is_finite() && burstiness > 1.0) {
            return invalid("burstiness", burstiness);
        }
        if let Some(&d) = dwell_means.iter().find(|d| !(d.is_finite() && **d > 0.0)) {
            return invalid("dwell mean", d);
        }
        if let Some(r) = rates
            .iter()
            .filter(|&&rate| rate > IDLE_RATE)
            .flat_map(|&rate| bursty_rates(rate, burstiness, dwell_means))
            .find(|r| !r.is_normal())
        {
            return invalid("bursty arrival rate", r);
        }
        Ok(())
    }

    /// Hands one machine's arrival times up to `horizon` at long-run rate
    /// `rate`, drawn from its trace stream `rng`, to `f` in order. An idle
    /// machine (rate ≤ 10⁻¹²) gets none. The caller has checked the rate
    /// (finite) and the model ([`Self::check`]).
    #[inline]
    pub(crate) fn for_each_arrival(
        self,
        rate: f64,
        horizon: f64,
        rng: Xoshiro256StarStar,
        f: impl FnMut(f64),
    ) {
        if rate <= IDLE_RATE {
            return;
        }
        match self {
            Self::Poisson => {
                let mut p = PoissonProcess::new(rate, rng);
                until(|| p.next_arrival(), horizon, f);
            }
            Self::Bursty {
                burstiness,
                dwell_means,
            } => {
                let rates = bursty_rates(rate, burstiness, dwell_means);
                let mut p = MmppProcess::new(rates, dwell_means, rng);
                until(|| p.next_arrival(), horizon, f);
            }
        }
    }
}

/// Generates per-machine arrival traces for a *contiguous slice* of a larger
/// system: `rates[i]` describes global machine `offset + i`, which receives a
/// stream at long-run rate `rates[i]` under `model`. Machines with zero (or
/// epsilon) rate receive no jobs.
///
/// Machine `offset + i` draws from RNG stream `offset + i` of the same base
/// seed, so partitioning a round across shard coordinators and concatenating
/// the traces reproduces the single-coordinator traces arrival-for-arrival
/// (job *ids* are numbered per call, but nothing downstream consumes them —
/// observations and estimates depend only on arrival times). The
/// verification kernel ([`crate::driver::simulate_partition`]) draws the
/// same arrivals from the same streams without materialising the traces.
///
/// # Panics
/// Panics if `horizon` is not positive, any rate is negative/non-finite,
/// or a bursty model is out of range (burstiness not above 1, a dwell mean
/// not finite and positive, or a calm or burst rate that is not normal).
#[must_use]
pub fn per_machine_traces_offset(
    rates: &[f64],
    horizon: f64,
    seed: u64,
    model: WorkloadModel,
    offset: u64,
) -> Vec<Vec<Job>> {
    assert!(
        horizon.is_finite() && horizon > 0.0,
        "per_machine_traces: invalid horizon"
    );
    if let Some(rate) = rates.iter().find(|r| !(r.is_finite() && **r >= 0.0)) {
        panic!("per_machine_traces: invalid rate {rate}");
    }
    if let Err(e) = model.check(rates) {
        panic!("per_machine_traces: {e}");
    }
    // Streams are positional: idle machines still consume theirs.
    let streams = Xoshiro256StarStar::seed_from_u64(seed).streams(offset);
    let first = usize::try_from(offset).unwrap_or(usize::MAX);
    let mut arrivals = Vec::new();
    let mut next_id = 0u64;
    rates
        .iter()
        .zip(streams)
        .enumerate()
        .map(|(i, (&rate, stream_rng))| {
            arrivals.clear();
            model.for_each_arrival(rate, horizon, stream_rng, |t| arrivals.push(t));
            let machine = first.saturating_add(i);
            arrivals
                .iter()
                .map(|&arrival| {
                    let id = next_id;
                    next_id += 1;
                    Job {
                        id,
                        machine,
                        arrival,
                    }
                })
                .collect()
        })
        .collect()
}

/// Generates per-machine *Poisson* arrival traces (the paper's model).
///
/// # Panics
/// Panics if `horizon` is not positive or any rate is negative/non-finite.
#[must_use]
pub fn per_machine_traces(rates: &[f64], horizon: f64, seed: u64) -> Vec<Vec<Job>> {
    per_machine_traces_offset(rates, horizon, seed, WorkloadModel::Poisson, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lb_stats::online::OnlineStats;

    /// Long-run average arrival rate of an MMPP-2 (dwell-weighted).
    fn mean_rate(p: &MmppProcess) -> f64 {
        let rates = p.gaps.map(|g| g.rate());
        let dwell_means = p.dwells.map(|d| 1.0 / d.rate());
        let w = dwell_means[0] + dwell_means[1];
        (rates[0] * dwell_means[0] + rates[1] * dwell_means[1]) / w
    }

    /// All of an MMPP-2's arrival times up to `horizon`.
    fn mmpp_arrivals_until(p: &mut MmppProcess, horizon: f64) -> Vec<f64> {
        let mut out = Vec::new();
        until(|| p.next_arrival(), horizon, |t| out.push(t));
        out
    }

    #[test]
    fn arrivals_are_strictly_increasing() {
        let mut p = PoissonProcess::new(5.0, Xoshiro256StarStar::seed_from_u64(1));
        let mut prev = 0.0;
        for _ in 0..1000 {
            let t = p.next_arrival();
            assert!(t > prev);
            prev = t;
        }
    }

    #[test]
    fn empirical_rate_matches() {
        let mut p = PoissonProcess::new(4.0, Xoshiro256StarStar::seed_from_u64(2));
        let arrivals = p.arrivals_until(10_000.0);
        let rate = arrivals.len() as f64 / 10_000.0;
        assert!((rate - 4.0).abs() < 0.1, "rate = {rate}");
    }

    #[test]
    fn interarrival_times_are_exponential() {
        let mut p = PoissonProcess::new(2.0, Xoshiro256StarStar::seed_from_u64(3));
        let arrivals = p.arrivals_until(50_000.0);
        let mut stats = OnlineStats::new();
        let mut prev = 0.0;
        for &t in &arrivals {
            stats.push(t - prev);
            prev = t;
        }
        // Mean 0.5, std 0.5 for Exp(2).
        assert!((stats.mean() - 0.5).abs() < 0.01, "mean {}", stats.mean());
        assert!(
            (stats.std_dev() - 0.5).abs() < 0.02,
            "std {}",
            stats.std_dev()
        );
    }

    #[test]
    fn interarrivals_pass_a_ks_test_against_the_exponential_cdf() {
        // Stronger than the moment checks: the full interarrival law is
        // exponential (Kolmogorov-Smirnov at 1%).
        let rate = 3.0;
        let mut p = PoissonProcess::new(rate, Xoshiro256StarStar::seed_from_u64(20));
        let arrivals = p.arrivals_until(5_000.0);
        let mut gaps = Vec::with_capacity(arrivals.len());
        let mut prev = 0.0;
        for &t in &arrivals {
            gaps.push(t - prev);
            prev = t;
        }
        let test = lb_stats::ks::ks_test(&gaps, lb_stats::ks::exponential_cdf(rate)).unwrap();
        assert!(!test.rejects_at(0.01), "KS p-value {}", test.p_value);
    }

    #[test]
    fn mmpp_interarrivals_fail_the_single_exponential_ks_test() {
        // The same test separates the bursty process from a plain Poisson
        // stream of equal mean rate.
        let mut p = MmppProcess::new(
            [0.5, 10.0],
            [40.0, 10.0],
            Xoshiro256StarStar::seed_from_u64(21),
        );
        let arrivals = mmpp_arrivals_until(&mut p, 5_000.0);
        let mut gaps = Vec::with_capacity(arrivals.len());
        let mut prev = 0.0;
        for &t in &arrivals {
            gaps.push(t - prev);
            prev = t;
        }
        let test =
            lb_stats::ks::ks_test(&gaps, lb_stats::ks::exponential_cdf(mean_rate(&p))).unwrap();
        assert!(test.rejects_at(0.001), "KS p-value {}", test.p_value);
    }

    #[test]
    fn continuation_past_horizon_is_seamless() {
        let mut p = PoissonProcess::new(1.0, Xoshiro256StarStar::seed_from_u64(4));
        let first = p.arrivals_until(100.0);
        let second = p.arrivals_until(200.0);
        assert!(second.first().copied().unwrap_or(f64::INFINITY) > 100.0);
        assert!(!first.is_empty());
    }

    #[test]
    fn traces_cover_machines_proportionally() {
        let rates = [4.0, 2.0, 0.0];
        let traces = per_machine_traces(&rates, 5_000.0, 7);
        assert_eq!(traces.len(), 3);
        assert!(traces[2].is_empty());
        let ratio = traces[0].len() as f64 / traces[1].len() as f64;
        assert!((ratio - 2.0).abs() < 0.15, "ratio = {ratio}");
        // Job ids are globally unique.
        let mut ids: Vec<u64> = traces.iter().flatten().map(|j| j.id).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before);
    }

    #[test]
    fn mmpp_mean_rate_matches_empirical() {
        let mut p = MmppProcess::new(
            [1.0, 20.0],
            [50.0, 5.0],
            Xoshiro256StarStar::seed_from_u64(11),
        );
        let horizon = 50_000.0;
        let arrivals = mmpp_arrivals_until(&mut p, horizon);
        let empirical = arrivals.len() as f64 / horizon;
        let analytic = mean_rate(&p); // (1*50 + 20*5)/55 = 150/55
        assert!((analytic - 150.0 / 55.0).abs() < 1e-12);
        assert!(
            (empirical - analytic).abs() / analytic < 0.05,
            "empirical {empirical} vs analytic {analytic}"
        );
    }

    #[test]
    fn mmpp_is_burstier_than_poisson() {
        // Index of dispersion of counts over windows: Poisson = 1, MMPP > 1.
        let window = 10.0;
        let horizon = 20_000.0;
        let count_variance = |arrivals: &[f64]| -> (f64, f64) {
            let bins = (horizon / window) as usize;
            let mut counts = vec![0u32; bins];
            for &a in arrivals {
                let b = ((a / window) as usize).min(bins - 1);
                counts[b] += 1;
            }
            let s =
                OnlineStats::from_slice(&counts.iter().map(|&c| f64::from(c)).collect::<Vec<_>>());
            (s.mean(), s.variance())
        };
        let mut mmpp = MmppProcess::new(
            [0.5, 10.0],
            [40.0, 10.0],
            Xoshiro256StarStar::seed_from_u64(12),
        );
        let (m_mean, m_var) = count_variance(&mmpp_arrivals_until(&mut mmpp, horizon));
        let mut poisson =
            PoissonProcess::new(mean_rate(&mmpp), Xoshiro256StarStar::seed_from_u64(13));
        let (p_mean, p_var) = count_variance(&poisson.arrivals_until(horizon));
        let mmpp_iod = m_var / m_mean;
        let poisson_iod = p_var / p_mean;
        assert!(
            mmpp_iod > 2.0 * poisson_iod,
            "IoD mmpp {mmpp_iod} vs poisson {poisson_iod}"
        );
    }

    #[test]
    fn mmpp_arrivals_strictly_increase() {
        let mut p = MmppProcess::new(
            [2.0, 8.0],
            [5.0, 5.0],
            Xoshiro256StarStar::seed_from_u64(14),
        );
        let mut prev = 0.0;
        for _ in 0..5_000 {
            let t = p.next_arrival();
            assert!(t > prev);
            prev = t;
        }
    }

    #[test]
    fn offset_traces_stitch_into_the_full_round() {
        // Sharding a round: generating each contiguous chunk of machines with
        // its global stream offset reproduces the single-call traces
        // arrival-for-arrival (ids are per-call; nothing downstream reads them).
        let rates = [1.0, 2.0, 0.5, 3.0, 0.0, 1.5, 2.5];
        let horizon = 200.0;
        let seed = 42;
        let full = per_machine_traces(&rates, horizon, seed);
        for k in [1usize, 2, 3, 7] {
            let chunk = rates.len().div_ceil(k);
            let mut stitched: Vec<Vec<Job>> = Vec::new();
            for (s, part) in rates.chunks(chunk).enumerate() {
                stitched.extend(per_machine_traces_offset(
                    part,
                    horizon,
                    seed,
                    WorkloadModel::Poisson,
                    (s * chunk) as u64,
                ));
            }
            assert_eq!(stitched.len(), full.len(), "k = {k}");
            for (m, (a, b)) in stitched.iter().zip(&full).enumerate() {
                assert_eq!(a.len(), b.len(), "k = {k}, machine {m}");
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.machine, y.machine);
                    assert_eq!(x.arrival.to_bits(), y.arrival.to_bits());
                }
            }
        }
    }

    #[test]
    fn traces_are_deterministic_per_seed() {
        let a = per_machine_traces(&[1.0, 2.0], 100.0, 42);
        let b = per_machine_traces(&[1.0, 2.0], 100.0, 42);
        assert_eq!(a, b);
        let c = per_machine_traces(&[1.0, 2.0], 100.0, 43);
        assert_ne!(a, c);
    }
}
