//! The invariant monitor over settled rounds.
//!
//! [`InvariantMonitor`] is a [`Collector`] wrapper: attach it where a
//! coordinator expects its telemetry collector. Every settle hands it the
//! round as one typed [`SettledRound`] view ([`Collector::settled`]); the
//! monitor forwards the view to the wrapped collector (which records the
//! settlement gauges if enabled) and then checks it. Everything else —
//! [`Collector::enabled`], [`Collector::record`], span ids — is the wrapped
//! collector's, so the monitor is *additive*: attaching it turns no tracing
//! on, and detaching it leaves the recording, the allocation and the
//! payments bit-identical (observation inertness; the differential tests
//! live in `tests/audit.rs` and `tests/differential.rs`).
//!
//! Per settled round it checks:
//!
//! 1. **conservation** — `Σ x_i = R` within [`feasibility_tolerance`];
//! 2. **feasibility** — every allocated rate is finite and non-negative;
//! 3. **exclusion** — excluded machines got rate 0 and payment 0;
//! 4. **total** — the exported `round.payment.total` matches `Σ P_i`;
//! 5. **floor** (Theorem 3.2, when every respondent's execution value
//!    matches its bid) — each respondent's utility `P_i + V_i ≥ 0`;
//! 6. **drift** (sampled) — payments agree with the independent
//!    double-double reference of [`crate::reference`];
//! 7. **margin** (sampled) — an online truthfulness probe
//!    ([`lb_mechanism::truthfulness_probe`], O(n)): one agent per sampled
//!    round is re-evaluated under a perturbed bid; against a consistent
//!    round the observed bid must weakly dominate (Theorem 3.1).
//!
//! Outcomes are re-emitted as `audit.*` telemetry under
//! [`Subsystem::Audit`] (gauges `audit.check.<name>`, `audit.margin.min`,
//! `audit.drift.max`, counters `audit.rounds` and
//! `audit.violation.<name>`, instants `audit.report` /
//! `audit.violation`) right after the round's settlement gauges,
//! accumulated in [`MonitorStats`], and the latest round's
//! [`MonitorReport`] is kept for the `invariants` document.

use crate::reference::reference_payments;
use crate::report::{CheckOutcome, MonitorReport};
use lb_core::{compensated_sum, feasibility_tolerance};
use lb_mechanism::{truthfulness_probe, CompensationBonusMechanism};
use lb_telemetry::{
    Collector, EventKind, Field, Sampler, SettledRound, SpanId, Subsystem, TelemetryEvent,
};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Seed of the head-based sampler (fixed, so a replay samples the same
/// rounds).
const SAMPLER_SEED: u64 = 0;

/// Relative bid perturbation of the truthfulness probe (probed up on even
/// rounds, down on odd ones).
const PROBE_DELTA: f64 = 0.1;

/// Relative tolerance of the payment-scale checks (total, floor, drift,
/// margin) and of the execution-matches-bid consistency test.
const REL_TOL: f64 = 1e-9;

/// Monitor configuration.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// The mechanism the coordinator is believed to run; used by the floor
    /// valuation, the drift reference and the truthfulness probe.
    pub mechanism: CompensationBonusMechanism,
    /// Which rounds get the O(n) heavyweights: the double-double
    /// payment-drift reference and the truthfulness probe.
    pub sampler: Sampler,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        Self {
            mechanism: CompensationBonusMechanism::paper(),
            sampler: Sampler::Always,
        }
    }
}

/// Cumulative monitor statistics, cheap to snapshot.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MonitorStats {
    /// Rounds observed to completion.
    pub rounds: u64,
    /// Rounds with at least one violation.
    pub violating_rounds: u64,
    /// Violations by check name.
    pub violations: BTreeMap<&'static str, u64>,
    /// Smallest truthfulness margin probed so far (`None` until a probe
    /// runs).
    pub min_margin: Option<f64>,
    /// Largest relative payment drift seen so far.
    pub max_drift: Option<f64>,
    /// Index of the last completed round.
    pub last_round: Option<u64>,
}

impl MonitorStats {
    /// Total violations across all checks.
    #[must_use]
    pub fn total_violations(&self) -> u64 {
        self.violations.values().sum()
    }

    /// Folds one round's report into the running totals.
    fn add(&mut self, report: &MonitorReport) {
        self.rounds += 1;
        self.last_round = Some(report.round);
        if !report.ok() {
            self.violating_rounds += 1;
        }
        for check in report.checks.iter().filter(|c| !c.ok) {
            *self.violations.entry(check.name).or_insert(0) += 1;
        }
        if let Some(margin) = report.check("margin").map(|c| c.value) {
            self.min_margin = Some(self.min_margin.map_or(margin, |m| m.min(margin)));
        }
        if let Some(drift) = report.check("drift").map(|c| c.value) {
            self.max_drift = Some(self.max_drift.map_or(drift, |d| d.max(drift)));
        }
    }
}

/// What the monitor has accumulated, behind one lock.
#[derive(Default)]
struct State {
    stats: MonitorStats,
    latest: Option<MonitorReport>,
}

/// The invariant monitor. See the module docs.
pub struct InvariantMonitor {
    inner: Arc<dyn Collector>,
    config: MonitorConfig,
    state: Mutex<State>,
}

impl InvariantMonitor {
    /// Wraps `inner` with the given configuration.
    #[must_use]
    pub fn new(inner: Arc<dyn Collector>, config: MonitorConfig) -> Self {
        Self {
            inner,
            config,
            state: Mutex::new(State::default()),
        }
    }

    /// The accumulated state. A thread that panicked while holding the
    /// lock left it consistent (every update is a single push or a
    /// counter bump), so poisoning is ignored.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Snapshot of the cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> MonitorStats {
        self.state().stats.clone()
    }

    /// The most recent round's report, if any round completed.
    #[must_use]
    pub fn latest_report(&self) -> Option<MonitorReport> {
        self.state().latest.clone()
    }

    /// Runs every check against a settled round.
    fn check_round(&self, round: &SettledRound<'_>) -> MonitorReport {
        let n = round.machines();
        let mut checks = Vec::new();
        let mut violations = Vec::new();
        let fail = |checks: &mut Vec<CheckOutcome>,
                    violations: &mut Vec<String>,
                    name: &'static str,
                    ok: bool,
                    value: f64,
                    detail: String| {
            checks.push(CheckOutcome { name, ok, value });
            if !ok {
                violations.push(format!("{name}: {detail}"));
            }
        };

        let respondents: Vec<usize> = (0..n)
            .filter(|&i| !round.excluded[i] && round.bids[i] > 0.0)
            .collect();
        let consistent = respondents.iter().all(|&i| {
            let scale = 1.0 + round.bids[i].abs();
            (round.estimates[i] - round.bids[i]).abs() <= REL_TOL * scale
        });

        // 1. Conservation: allocated rates sum to R.
        let tol = feasibility_tolerance(n, round.total_rate);
        let residual = compensated_sum(round.rates.iter().copied()) - round.total_rate;
        fail(
            &mut checks,
            &mut violations,
            "conservation",
            residual.abs() <= tol,
            residual,
            format!("Σx − R = {residual:e} exceeds {tol:e}"),
        );

        // 2. Feasibility: finite, non-negative rates.
        let min_rate = round.rates.iter().copied().fold(f64::INFINITY, f64::min);
        let finite = round.rates.iter().all(|x| x.is_finite());
        fail(
            &mut checks,
            &mut violations,
            "feasibility",
            finite && min_rate >= 0.0,
            min_rate,
            format!("minimum allocated rate {min_rate}"),
        );

        // 3. Exclusion zeroing: excluded machines hold nothing and get paid
        // nothing.
        let excess = (0..n)
            .filter(|&i| round.excluded[i])
            .map(|i| round.rates[i].abs().max(round.payments[i].abs()))
            .fold(0.0f64, f64::max);
        fail(
            &mut checks,
            &mut violations,
            "exclusion",
            excess == 0.0,
            excess,
            format!("excluded machine holds rate/payment up to {excess}"),
        );

        // 4. The exported aggregate matches the per-machine payments.
        let payment_scale: f64 = 1.0 + round.payments.iter().map(|p| p.abs()).sum::<f64>();
        let total_residual = compensated_sum(round.payments.iter().copied()) - round.payment_total;
        fail(
            &mut checks,
            &mut violations,
            "total",
            total_residual.abs() <= REL_TOL * payment_scale,
            total_residual,
            format!("ΣP − round.payment.total = {total_residual:e}"),
        );

        // 5. Theorem 3.2 floor: in a consistent round (every respondent
        // executed at its bid) each respondent's utility P_i + V_i is a
        // leave-one-out marginal contribution, hence non-negative.
        if consistent && respondents.len() >= 2 {
            let model = self.config.mechanism.valuation;
            let mut worst = f64::INFINITY;
            let mut worst_agent = 0;
            for &i in &respondents {
                let utility =
                    round.payments[i] + model.valuation(round.rates[i], round.estimates[i]);
                if utility < worst {
                    worst = utility;
                    worst_agent = i;
                }
            }
            fail(
                &mut checks,
                &mut violations,
                "floor",
                worst >= -REL_TOL * payment_scale,
                worst,
                format!("machine {worst_agent} utility {worst} below zero"),
            );
        }

        // The respondent-subset clones are only needed by the sampled heavy
        // checks; on unsampled rounds the monitor must not allocate them.
        if respondents.len() >= 2 && self.config.sampler.admits(SAMPLER_SEED, round.round) {
            let sub =
                |source: &[f64]| -> Vec<f64> { respondents.iter().map(|&i| source[i]).collect() };
            let (sub_bids, sub_estimates) = (sub(round.bids), sub(round.estimates));

            // 6. Sampled double-double payment drift.
            if let Some(reference) = reference_payments(
                &sub_bids,
                &sub(round.rates),
                &sub_estimates,
                round.total_rate,
                self.config.mechanism.valuation,
            ) {
                let drift = respondents
                    .iter()
                    .zip(&reference)
                    .map(|(&i, &reference)| {
                        (round.payments[i] - reference).abs() / (1.0 + reference.abs())
                    })
                    .fold(0.0f64, f64::max);
                fail(
                    &mut checks,
                    &mut violations,
                    "drift",
                    drift <= REL_TOL,
                    drift,
                    format!("payment drifted {drift:e} from the dd reference"),
                );
            }

            // 7. Sampled truthfulness probe: one agent and one perturbation
            // direction per sampled round (direction alternates with the round
            // parity, agents rotate round-robin), so a session sweeps the fleet
            // in both directions at half the per-probe cost.
            #[allow(clippy::cast_possible_truncation)]
            let agent = (round.round as usize) % respondents.len();
            let delta = if round.round % 2 == 0 {
                PROBE_DELTA
            } else {
                -PROBE_DELTA
            };
            let margin = truthfulness_probe(
                &self.config.mechanism,
                &sub_bids,
                agent,
                delta,
                &sub_estimates,
                round.total_rate,
            )
            .map_or(f64::INFINITY, |probe| probe.margin());
            if margin.is_finite() {
                // Theorem 3.1 only bounds consistent rounds; otherwise the
                // margin is recorded as data, not judged.
                let ok = !consistent || margin >= -REL_TOL * payment_scale;
                fail(
                    &mut checks,
                    &mut violations,
                    "margin",
                    ok,
                    margin,
                    format!(
                        "respondent {} (machine {}) gains {:e} by deviating",
                        agent, respondents[agent], -margin
                    ),
                );
            }
        }

        MonitorReport {
            round: round.round,
            machines: n,
            respondents: respondents.len(),
            consistent,
            checks,
            violations,
        }
    }

    /// Re-emits a report as `audit.*` telemetry on the wrapped collector.
    fn emit(&self, at: f64, report: &MonitorReport, stats: &MonitorStats) {
        if !self.inner.enabled() {
            return;
        }
        for check in &report.checks {
            self.inner.record(TelemetryEvent {
                at,
                name: Cow::Owned(format!("audit.check.{}", check.name)),
                cat: Subsystem::Audit,
                kind: EventKind::Gauge {
                    value: if check.ok { 1.0 } else { 0.0 },
                },
                fields: Vec::new(),
            });
            if !check.ok {
                self.inner.record(TelemetryEvent {
                    at,
                    name: Cow::Owned(format!("audit.violation.{}", check.name)),
                    cat: Subsystem::Audit,
                    kind: EventKind::Counter { delta: 1 },
                    fields: Vec::new(),
                });
            }
        }
        if let Some(margin) = report.check("margin").map(|c| c.value) {
            self.inner
                .gauge(at, "audit.margin.last", Subsystem::Audit, margin);
        }
        if let Some(min_margin) = stats.min_margin {
            self.inner
                .gauge(at, "audit.margin.min", Subsystem::Audit, min_margin);
        }
        if let Some(max_drift) = stats.max_drift {
            self.inner
                .gauge(at, "audit.drift.max", Subsystem::Audit, max_drift);
        }
        self.inner.counter(at, "audit.rounds", Subsystem::Audit, 1);
        let mut fields = vec![
            Field::u64("round", report.round),
            Field::bool("ok", report.ok()),
        ];
        if let Some(first) = report.violations.first() {
            fields.push(Field::str("first", first.clone()));
            self.inner
                .instant(at, "audit.violation", Subsystem::Audit, fields.clone());
        }
        self.inner
            .instant(at, "audit.report", Subsystem::Audit, fields);
    }

    /// Checks a settled round, accounts it, re-emits it and keeps the
    /// report.
    fn finish_round(&self, at: f64, round: &SettledRound<'_>) {
        let report = self.check_round(round);
        let stats = {
            let mut state = self.state();
            state.stats.add(&report);
            state.stats.clone()
        };
        self.emit(at, &report, &stats);
        self.state().latest = Some(report);
    }
}

impl Collector for InvariantMonitor {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn record(&self, event: TelemetryEvent) {
        self.inner.record(event);
    }

    fn next_span_id(&self) -> SpanId {
        self.inner.next_span_id()
    }

    /// Forwards the round to the wrapped collector, then checks it.
    fn settled(&self, at: f64, round: &SettledRound<'_>) {
        self.inner.settled(at, round);
        self.finish_round(at, round);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lb_core::scenario::{paper_system, PAPER_ARRIVAL_RATE};
    use lb_mechanism::{run_mechanism, Profile};
    use lb_telemetry::{noop_collector, RingCollector};

    /// Hands one settled paper-rate round to the monitor, as a settling
    /// coordinator would.
    fn feed_round(
        monitor: &InvariantMonitor,
        round: u64,
        bids: &[f64],
        rates: &[f64],
        execs: &[f64],
        excluded: &[bool],
        payments: &[f64],
    ) {
        let view = SettledRound::new(
            round,
            PAPER_ARRIVAL_RATE,
            bids,
            rates,
            execs,
            excluded,
            payments,
            payments.iter().sum(),
        )
        .unwrap();
        monitor.settled(1.0, &view);
    }

    /// A truthful paper-testbed round as (bids, rates, execs, excluded,
    /// payments).
    #[allow(clippy::type_complexity)]
    fn truthful_round() -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<bool>, Vec<f64>) {
        let mech = CompensationBonusMechanism::paper();
        let profile = Profile::truthful(&paper_system(), PAPER_ARRIVAL_RATE).unwrap();
        let out = run_mechanism(&mech, &profile).unwrap();
        let n = profile.len();
        (
            profile.bids().to_vec(),
            (0..n).map(|i| out.allocation.rate(i)).collect(),
            profile.exec_values().to_vec(),
            vec![false; n],
            out.payments.clone(),
        )
    }

    #[test]
    fn clean_round_passes_every_check() {
        let monitor = InvariantMonitor::new(noop_collector(), MonitorConfig::default());
        let (bids, rates, execs, excluded, payments) = truthful_round();
        feed_round(&monitor, 0, &bids, &rates, &execs, &excluded, &payments);
        let report = monitor.latest_report().expect("round observed");
        assert!(report.ok(), "{:?}", report.violations);
        assert!(report.consistent);
        assert_eq!(report.respondents, bids.len());
        for name in [
            "conservation",
            "feasibility",
            "exclusion",
            "total",
            "floor",
            "drift",
            "margin",
        ] {
            assert!(report.check(name).is_some(), "{name} missing");
        }
        let stats = monitor.stats();
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.total_violations(), 0);
        assert!(stats.min_margin.unwrap() >= -1e-9);
        assert!(stats.max_drift.unwrap() <= 1e-9);
    }

    #[test]
    fn corrupted_payment_is_flagged() {
        let monitor = InvariantMonitor::new(noop_collector(), MonitorConfig::default());
        let (bids, rates, execs, excluded, mut payments) = truthful_round();
        payments[3] += 0.5; // skim half a unit
        feed_round(&monitor, 0, &bids, &rates, &execs, &excluded, &payments);
        let report = monitor.latest_report().unwrap();
        assert!(!report.ok());
        assert!(!report.check("drift").unwrap().ok, "{report:?}");
    }

    #[test]
    fn conservation_violation_is_flagged() {
        let monitor = InvariantMonitor::new(noop_collector(), MonitorConfig::default());
        let (bids, mut rates, execs, excluded, payments) = truthful_round();
        rates[0] += 0.25;
        feed_round(&monitor, 0, &bids, &rates, &execs, &excluded, &payments);
        let report = monitor.latest_report().unwrap();
        assert!(!report.check("conservation").unwrap().ok);
    }

    #[test]
    fn excluded_machine_with_payment_is_flagged() {
        let monitor = InvariantMonitor::new(noop_collector(), MonitorConfig::default());
        let (bids, rates, execs, mut excluded, payments) = truthful_round();
        excluded[5] = true; // machine 5 still holds its rate and payment
        feed_round(&monitor, 0, &bids, &rates, &execs, &excluded, &payments);
        let report = monitor.latest_report().unwrap();
        assert!(!report.check("exclusion").unwrap().ok);
    }

    #[test]
    fn floor_violation_is_flagged() {
        let monitor = InvariantMonitor::new(noop_collector(), MonitorConfig::default());
        let (bids, rates, execs, excluded, mut payments) = truthful_round();
        // Underpay machine 0 so its utility P + V dives below zero.
        payments[0] -= 1000.0;
        feed_round(&monitor, 0, &bids, &rates, &execs, &excluded, &payments);
        let report = monitor.latest_report().unwrap();
        assert!(!report.ok());
        assert!(!report.check("floor").unwrap().ok);
        assert_eq!(monitor.stats().violating_rounds, 1);
    }

    #[test]
    fn inconsistent_round_skips_floor_but_records_margin() {
        let monitor = InvariantMonitor::new(noop_collector(), MonitorConfig::default());
        let (bids, rates, mut execs, excluded, payments) = truthful_round();
        execs[2] *= 1.5; // machine 2 executed slower than it bid
        feed_round(&monitor, 0, &bids, &rates, &execs, &excluded, &payments);
        let report = monitor.latest_report().unwrap();
        assert!(!report.consistent);
        assert!(report.check("floor").is_none());
        // Margins are recorded as data but never judged in an inconsistent
        // round.
        if let Some(margin) = report.check("margin") {
            assert!(margin.ok);
        }
    }

    #[test]
    fn negative_rate_is_a_feasibility_violation() {
        let monitor = InvariantMonitor::new(noop_collector(), MonitorConfig::default());
        let (bids, mut rates, execs, excluded, payments) = truthful_round();
        rates[1] = -rates[1];
        feed_round(&monitor, 0, &bids, &rates, &execs, &excluded, &payments);
        let report = monitor.latest_report().unwrap();
        assert!(!report.ok());
        assert!(!report.check("feasibility").unwrap().ok);
    }

    #[test]
    fn nan_rate_is_reported_by_the_checks_it_breaks() {
        let monitor = InvariantMonitor::new(noop_collector(), MonitorConfig::default());
        let (bids, mut rates, execs, excluded, payments) = truthful_round();
        rates[2] = f64::NAN;
        feed_round(&monitor, 0, &bids, &rates, &execs, &excluded, &payments);
        let report = monitor.latest_report().unwrap();
        assert!(!report.check("feasibility").unwrap().ok, "{report:?}");
        assert!(!report.check("conservation").unwrap().ok, "{report:?}");
        assert!(
            report.violations.iter().all(|v| !v.starts_with("stream:")),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn sharded_round_streams_through_the_monitor() {
        // The monitor attaches to the *root* of the hierarchical shard
        // tier exactly as it does to a single coordinator: the shard
        // workers report partial sums upward, the root settles, and the
        // round it hands over must pass every check.
        use lb_proto::{run_round, NodeSpec, Observers, ProtocolConfig, RoundSpec, Transport};
        use lb_sim::driver::SimulationConfig;
        use lb_sim::server::ServiceModel;

        let monitor = Arc::new(InvariantMonitor::new(
            noop_collector(),
            MonitorConfig::default(),
        ));
        let mech = CompensationBonusMechanism::paper();
        #[allow(clippy::cast_precision_loss)]
        let specs: Vec<NodeSpec> = (0..24)
            .map(|i| NodeSpec::truthful(1.0 + (i % 7) as f64))
            .collect();
        let config = ProtocolConfig {
            total_rate: 20.0,
            simulation: SimulationConfig {
                horizon: 50.0,
                seed: 7,
                model: ServiceModel::StationaryDeterministic,
                warmup: 0.0,
                ..SimulationConfig::default()
            },
            ..ProtocolConfig::default()
        };
        let spec = RoundSpec {
            transport: Transport::Sharded { shards: 5 },
            observers: Observers {
                collector: Arc::clone(&monitor) as Arc<dyn Collector>,
                ..Observers::default()
            },
            ..RoundSpec::new(&mech, &specs, config)
        };
        let report = run_round(&spec).expect("sharded round settles");
        assert_eq!(report.outcome.rates.len(), specs.len());

        let audit = monitor
            .latest_report()
            .expect("root settle streamed its gauges through the shard tier");
        assert!(audit.ok(), "{:?}", audit.violations);
        assert_eq!(audit.respondents, specs.len());
        let stats = monitor.stats();
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.total_violations(), 0);
    }

    #[test]
    fn forwards_events_and_emits_audit_telemetry() {
        let ring = Arc::new(RingCollector::new(4096));
        let monitor = InvariantMonitor::new(ring.clone(), MonitorConfig::default());
        assert!(monitor.enabled());
        let (bids, rates, execs, excluded, payments) = truthful_round();
        feed_round(&monitor, 3, &bids, &rates, &execs, &excluded, &payments);
        let events = ring.snapshot();
        // The settlement gauges reach the wrapped collector first…
        let total = events
            .iter()
            .position(|e| e.name == "round.payment.total")
            .expect("settlement gauges forwarded");
        assert_eq!(total, 5 * bids.len() + 2);
        // …then the audit re-emission.
        assert!(events[total + 1..]
            .iter()
            .all(|e| e.cat == Subsystem::Audit));
        assert!(events
            .iter()
            .any(|e| e.name == "audit.check.conservation" && e.cat == Subsystem::Audit));
        assert!(events.iter().any(|e| e.name == "audit.report"));
        assert!(events.iter().any(|e| e.name == "audit.rounds"));
    }

    #[test]
    fn monitor_over_a_disabled_collector_is_disabled_but_still_checks() {
        let monitor = InvariantMonitor::new(noop_collector(), MonitorConfig::default());
        assert!(!monitor.enabled());
        assert!(monitor.next_span_id().is_null());
        let (bids, rates, execs, excluded, payments) = truthful_round();
        feed_round(&monitor, 0, &bids, &rates, &execs, &excluded, &payments);
        assert_eq!(monitor.stats().rounds, 1);
    }

    #[test]
    fn sampling_gates_the_expensive_checks() {
        let monitor = InvariantMonitor::new(
            noop_collector(),
            MonitorConfig {
                sampler: Sampler::PerRound(2),
                ..MonitorConfig::default()
            },
        );
        let (bids, rates, execs, excluded, payments) = truthful_round();
        let reports: Vec<MonitorReport> = (0..2)
            .map(|round| {
                feed_round(&monitor, round, &bids, &rates, &execs, &excluded, &payments);
                monitor.latest_report().expect("round observed")
            })
            .collect();
        assert!(reports[0].check("drift").is_some());
        assert!(reports[0].check("margin").is_some());
        assert!(reports[1].check("drift").is_none());
        assert!(reports[1].check("margin").is_none());
        // The cheap structural checks run on every round.
        for report in &reports {
            assert!(report.check("conservation").is_some());
            assert!(report.check("floor").is_some());
        }
    }
}
