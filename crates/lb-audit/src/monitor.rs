//! The streaming economic-invariant monitor.
//!
//! [`InvariantMonitor`] is a [`Collector`] wrapper: attach it where a
//! coordinator expects its telemetry collector and it observes the
//! settlement gauge stream (`bid.m{i}`, `alloc.rate.m{i}`, `exec.est.m{i}`,
//! `excluded.m{i}`, `payment.m{i}`, then `round.index`,
//! `round.total_rate`, `round.payment.total`), treating
//! `round.payment.total` — which the coordinator emits strictly last — as
//! the end-of-round trigger. Every event is forwarded unchanged to the
//! wrapped collector, so the monitor is *additive*: detach it and the
//! recording, the allocation and the payments are bit-identical
//! (observation inertness; the differential test lives in `tests/audit.rs`).
//!
//! Per settled round it checks:
//!
//! 1. **conservation** — `Σ x_i = R` within [`feasibility_tolerance`];
//! 2. **feasibility** — every allocated rate is finite and non-negative;
//! 3. **exclusion** — excluded machines got rate 0 and payment 0;
//! 4. **total** — the emitted `round.payment.total` matches `Σ P_i`;
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
//! `audit.violation`), accumulated in [`MonitorStats`], and kept as
//! [`MonitorReport`]s for exposition. [`ViolationPolicy`] decides whether a
//! violation merely logs or panics the process (`Abort` — for harnesses
//! that must fail fast, e.g. CI fuzz runs).

use crate::reference::reference_payments;
use crate::report::{CheckOutcome, MonitorReport};
use lb_core::{compensated_sum, feasibility_tolerance};
use lb_mechanism::{truthfulness_probe, CompensationBonusMechanism};
use lb_telemetry::{Collector, EventKind, Field, Sampler, SpanId, Subsystem, TelemetryEvent};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// What to do when a round violates an invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ViolationPolicy {
    /// Record the violation (telemetry, stats, report) and keep going.
    #[default]
    Log,
    /// Record the violation, then panic. For harnesses where a violated
    /// economic invariant must fail the run immediately.
    Abort,
}

/// Monitor configuration.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// The mechanism the coordinator is believed to run; used by the floor
    /// valuation, the drift reference and the truthfulness probe.
    pub mechanism: CompensationBonusMechanism,
    /// Seed for the head-based samplers (pair with the session seed so a
    /// replay samples the same rounds).
    pub seed: u64,
    /// Which rounds get the double-double payment-drift reference.
    pub drift_sampler: Sampler,
    /// Which rounds get a truthfulness probe.
    pub probe_sampler: Sampler,
    /// Relative bid perturbation for the probe (probed both up and down).
    pub probe_delta: f64,
    /// Relative tolerance for the payment-scale checks (total, floor,
    /// drift, margin).
    pub rel_tol: f64,
    /// Violation handling.
    pub policy: ViolationPolicy,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        Self {
            mechanism: CompensationBonusMechanism::paper(),
            seed: 0,
            drift_sampler: Sampler::Always,
            probe_sampler: Sampler::Always,
            probe_delta: 0.1,
            rel_tol: 1e-9,
            policy: ViolationPolicy::Log,
        }
    }
}

/// Cumulative monitor statistics, cheap to snapshot for exposition.
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
}

/// Per-round observation being assembled from the gauge stream.
#[derive(Debug, Default)]
struct Observation {
    bids: Vec<f64>,
    rates: Vec<f64>,
    execs: Vec<f64>,
    excluded: Vec<f64>,
    payments: Vec<f64>,
    round: u64,
    total_rate: f64,
}

impl Observation {
    fn set(slot: &mut Vec<f64>, machine: usize, value: f64) {
        // The coordinator emits machines in index order, so the hot path is
        // a plain push; the general resize only runs on out-of-order or
        // re-emitted gauges.
        if slot.len() == machine {
            slot.push(value);
        } else if slot.len() > machine {
            slot[machine] = value;
        } else {
            slot.resize(machine, f64::NAN);
            slot.push(value);
        }
    }

    /// All five per-machine vectors fully populated and equally long?
    fn complete(&self) -> bool {
        let n = self.payments.len();
        n > 0
            && [&self.bids, &self.rates, &self.execs, &self.excluded]
                .iter()
                .all(|v| v.len() == n)
            && [
                &self.bids,
                &self.rates,
                &self.execs,
                &self.excluded,
                &self.payments,
            ]
            .iter()
            .all(|v| v.iter().all(|x| !x.is_nan()))
    }
}

/// Strips `prefix` + decimal machine index from a per-machine gauge name.
/// Manual digit loop: this runs once per settlement gauge, and
/// `str::parse`'s full `FromStr` machinery is measurable there.
fn machine_index(name: &str, prefix: &str) -> Option<usize> {
    let digits = name.strip_prefix(prefix)?.as_bytes();
    if digits.is_empty() {
        return None;
    }
    let mut index = 0usize;
    for &b in digits {
        if !b.is_ascii_digit() {
            return None;
        }
        index = index.checked_mul(10)?.checked_add(usize::from(b - b'0'))?;
    }
    Some(index)
}

/// Source of unique monitor instance ids (keys into the thread-local
/// observation registry).
static MONITOR_IDS: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Per-thread, per-monitor in-flight observations. The ingest path is
    /// the monitor's only per-event cost, and a process-wide mutex there
    /// triples it; a round's settlement gauges are emitted back-to-back by
    /// one coordinator thread, so thread-local assembly is both lock-free
    /// and immune to two coordinators interleaving their streams.
    static OBSERVATIONS: RefCell<Vec<(u64, Observation)>> = const { RefCell::new(Vec::new()) };
}

/// The streaming invariant monitor. See the module docs.
///
/// Rounds are assembled per emitting thread: all settlement gauges of one
/// round must arrive from the same thread (the coordinator's settle phase
/// is single-threaded, so this holds by construction).
pub struct InvariantMonitor {
    inner: std::sync::Arc<dyn Collector>,
    config: MonitorConfig,
    /// Key into [`OBSERVATIONS`], unique per monitor instance.
    id: u64,
    stats: Mutex<MonitorStats>,
    reports: Mutex<Vec<MonitorReport>>,
    /// Span ids when the wrapped collector is disabled (ids must still be
    /// unique so span pairing stays well-formed for any later wrapper).
    fallback_ids: AtomicU64,
    #[allow(clippy::type_complexity)]
    on_violation: Mutex<Option<Box<dyn Fn(&MonitorReport) + Send + Sync>>>,
}

impl Drop for InvariantMonitor {
    fn drop(&mut self) {
        // Release this monitor's buffer on the dropping thread (buffers on
        // other threads are reclaimed only at thread exit; each is a few
        // small vectors, bounded by the monitors that thread ever fed).
        let _ = OBSERVATIONS.try_with(|cell| {
            if let Ok(mut buffers) = cell.try_borrow_mut() {
                buffers.retain(|(id, _)| *id != self.id);
            }
        });
    }
}

impl InvariantMonitor {
    /// Wraps `inner` with the given configuration.
    #[must_use]
    pub fn new(inner: std::sync::Arc<dyn Collector>, config: MonitorConfig) -> Self {
        Self {
            inner,
            config,
            id: MONITOR_IDS.fetch_add(1, Ordering::Relaxed),
            stats: Mutex::new(MonitorStats::default()),
            reports: Mutex::new(Vec::new()),
            fallback_ids: AtomicU64::new(1),
            on_violation: Mutex::new(None),
        }
    }

    /// Registers a callback invoked (synchronously, on the recording
    /// thread) for every violating round's report, before the policy acts.
    pub fn set_violation_callback(
        &self,
        callback: impl Fn(&MonitorReport) + Send + Sync + 'static,
    ) {
        *self.on_violation.lock().expect("monitor callback lock") = Some(Box::new(callback));
    }

    /// Snapshot of the cumulative statistics.
    ///
    /// # Panics
    /// Panics if a recording thread panicked while holding the stats lock.
    #[must_use]
    pub fn stats(&self) -> MonitorStats {
        self.stats.lock().expect("monitor stats lock").clone()
    }

    /// The most recent round's report, if any round completed.
    ///
    /// # Panics
    /// Panics if a recording thread panicked while holding the report lock.
    #[must_use]
    pub fn latest_report(&self) -> Option<MonitorReport> {
        self.reports
            .lock()
            .expect("monitor report lock")
            .last()
            .cloned()
    }

    /// All reports so far, in round-completion order.
    ///
    /// # Panics
    /// Panics if a recording thread panicked while holding the report lock.
    #[must_use]
    pub fn reports(&self) -> Vec<MonitorReport> {
        self.reports.lock().expect("monitor report lock").clone()
    }

    /// Ingests one gauge; returns the finished observation on the
    /// end-of-round trigger. This is the per-event hot path: one
    /// thread-local lookup and a first-byte dispatch, no locks.
    fn ingest(&self, name: &str, value: f64) -> Option<(Observation, f64)> {
        OBSERVATIONS.with(|cell| {
            let mut buffers = cell.borrow_mut();
            let obs = match buffers.iter().position(|(id, _)| *id == self.id) {
                Some(pos) => &mut buffers[pos].1,
                None => {
                    buffers.push((self.id, Observation::default()));
                    &mut buffers.last_mut().expect("just pushed").1
                }
            };
            match name.as_bytes().first() {
                Some(b'b') => {
                    if let Some(i) = machine_index(name, "bid.m") {
                        Observation::set(&mut obs.bids, i, value);
                    }
                }
                Some(b'a') => {
                    if let Some(i) = machine_index(name, "alloc.rate.m") {
                        Observation::set(&mut obs.rates, i, value);
                    }
                }
                Some(b'e') => {
                    if let Some(i) = machine_index(name, "exec.est.m") {
                        Observation::set(&mut obs.execs, i, value);
                    } else if let Some(i) = machine_index(name, "excluded.m") {
                        Observation::set(&mut obs.excluded, i, value);
                    }
                }
                Some(b'p') => {
                    if let Some(i) = machine_index(name, "payment.m") {
                        Observation::set(&mut obs.payments, i, value);
                    }
                }
                Some(b'r') => {
                    if name == "round.index" {
                        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                        {
                            obs.round = value.max(0.0) as u64;
                        }
                    } else if name == "round.total_rate" {
                        obs.total_rate = value;
                    } else if name == "round.payment.total" {
                        return Some((std::mem::take(obs), value));
                    }
                }
                _ => {}
            }
            None
        })
    }

    /// Runs every check against a completed observation.
    fn check_round(&self, obs: &Observation, payment_total: f64) -> MonitorReport {
        let n = obs.payments.len();
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

        if !obs.complete() {
            return MonitorReport {
                round: obs.round,
                machines: n,
                respondents: 0,
                consistent: false,
                checks,
                violations: vec![format!(
                    "stream: round {} settlement gauges incomplete",
                    obs.round
                )],
            };
        }

        let respondents: Vec<usize> = (0..n)
            .filter(|&i| obs.excluded[i] == 0.0 && obs.bids[i] > 0.0)
            .collect();
        let consistent = respondents.iter().all(|&i| {
            let scale = 1.0 + obs.bids[i].abs();
            (obs.execs[i] - obs.bids[i]).abs() <= self.config.rel_tol * scale
        });

        // 1. Conservation: allocated rates sum to R.
        let tol = feasibility_tolerance(n, obs.total_rate);
        let residual = compensated_sum(obs.rates.iter().copied()) - obs.total_rate;
        fail(
            &mut checks,
            &mut violations,
            "conservation",
            residual.abs() <= tol,
            residual,
            format!("Σx − R = {residual:e} exceeds {tol:e}"),
        );

        // 2. Feasibility: finite, non-negative rates.
        let min_rate = obs.rates.iter().copied().fold(f64::INFINITY, f64::min);
        let finite = obs.rates.iter().all(|x| x.is_finite());
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
            .filter(|&i| obs.excluded[i] != 0.0)
            .map(|i| obs.rates[i].abs().max(obs.payments[i].abs()))
            .fold(0.0f64, f64::max);
        fail(
            &mut checks,
            &mut violations,
            "exclusion",
            excess == 0.0,
            excess,
            format!("excluded machine holds rate/payment up to {excess}"),
        );

        // 4. The emitted aggregate matches the per-machine payments.
        let payment_scale: f64 = 1.0 + obs.payments.iter().map(|p| p.abs()).sum::<f64>();
        let total_residual = compensated_sum(obs.payments.iter().copied()) - payment_total;
        fail(
            &mut checks,
            &mut violations,
            "total",
            total_residual.abs() <= self.config.rel_tol * payment_scale,
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
                let utility = obs.payments[i] + model.valuation(obs.rates[i], obs.execs[i]);
                if utility < worst {
                    worst = utility;
                    worst_agent = i;
                }
            }
            let floor_tol = self.config.rel_tol * payment_scale;
            fail(
                &mut checks,
                &mut violations,
                "floor",
                worst >= -floor_tol,
                worst,
                format!("machine {worst_agent} utility {worst} below zero"),
            );
        }

        // The respondent-subset clones are only needed by the sampled heavy
        // checks; on unsampled rounds the monitor must not allocate them.
        let drift_round = respondents.len() >= 2
            && self
                .config
                .drift_sampler
                .admits(self.config.seed, obs.round);
        let probe_round = respondents.len() >= 2
            && self
                .config
                .probe_sampler
                .admits(self.config.seed, obs.round);
        let sub = |source: &[f64]| -> Vec<f64> { respondents.iter().map(|&i| source[i]).collect() };
        let (sub_bids, sub_execs) = if drift_round || probe_round {
            (sub(&obs.bids), sub(&obs.execs))
        } else {
            (Vec::new(), Vec::new())
        };

        // 6. Sampled double-double payment drift.
        if drift_round {
            if let Some(reference) = reference_payments(
                &sub_bids,
                &sub(&obs.rates),
                &sub_execs,
                obs.total_rate,
                self.config.mechanism.valuation,
            ) {
                let mut drift = 0.0f64;
                let sub_payments = sub(&obs.payments);
                for (&paid, &reference) in sub_payments.iter().zip(&reference) {
                    drift = drift.max((paid - reference).abs() / (1.0 + reference.abs()));
                }
                fail(
                    &mut checks,
                    &mut violations,
                    "drift",
                    drift <= self.config.rel_tol,
                    drift,
                    format!("payment drifted {drift:e} from the dd reference"),
                );
            }
        }

        // 7. Sampled truthfulness probe: one agent and one perturbation
        // direction per sampled round (direction alternates with the round
        // parity, agents rotate round-robin), so a session sweeps the fleet
        // in both directions at half the per-probe cost.
        if probe_round {
            #[allow(clippy::cast_possible_truncation)]
            let agent = (obs.round as usize) % respondents.len();
            let delta = if obs.round % 2 == 0 {
                self.config.probe_delta
            } else {
                -self.config.probe_delta
            };
            let mut margin = f64::INFINITY;
            if let Ok(probe) = truthfulness_probe(
                &self.config.mechanism,
                &sub_bids,
                agent,
                delta,
                &sub_execs,
                obs.total_rate,
            ) {
                margin = margin.min(probe.margin());
            }
            if margin.is_finite() {
                // Theorem 3.1 only bounds consistent rounds; otherwise the
                // margin is recorded as data, not judged.
                let ok = !consistent || margin >= -self.config.rel_tol * payment_scale;
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
            round: obs.round,
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
        if !report.violations.is_empty() {
            fields.push(Field::str("first", report.violations[0].clone()));
            self.inner
                .instant(at, "audit.violation", Subsystem::Audit, fields.clone());
        }
        self.inner
            .instant(at, "audit.report", Subsystem::Audit, fields);
    }

    /// Trigger path: check, account, emit, notify, enforce policy.
    fn finish_round(&self, at: f64, obs: &Observation, payment_total: f64) {
        let report = self.check_round(obs, payment_total);
        let stats = {
            let mut stats = self.stats.lock().expect("monitor stats lock");
            stats.rounds += 1;
            stats.last_round = Some(report.round);
            if !report.ok() {
                stats.violating_rounds += 1;
            }
            for check in &report.checks {
                if !check.ok {
                    *stats.violations.entry(check.name).or_insert(0) += 1;
                }
            }
            if let Some(margin) = report.check("margin").map(|c| c.value) {
                stats.min_margin = Some(stats.min_margin.map_or(margin, |m: f64| m.min(margin)));
            }
            if let Some(drift) = report.check("drift").map(|c| c.value) {
                stats.max_drift = Some(stats.max_drift.map_or(drift, |d: f64| d.max(drift)));
            }
            stats.clone()
        };
        self.emit(at, &report, &stats);
        let violated = !report.ok();
        if violated {
            if let Some(callback) = self
                .on_violation
                .lock()
                .expect("monitor callback lock")
                .as_ref()
            {
                callback(&report);
            }
        }
        let summary = report.violations.join("; ");
        self.reports
            .lock()
            .expect("monitor report lock")
            .push(report);
        if violated && self.config.policy == ViolationPolicy::Abort {
            panic!("lb-audit invariant violation: {summary}");
        }
    }

    /// Returns a checked round's buffers to the thread-local slot so the
    /// next round stores into retained capacity instead of regrowing five
    /// vectors from empty.
    fn recycle(&self, mut obs: Observation) {
        obs.bids.clear();
        obs.rates.clear();
        obs.execs.clear();
        obs.excluded.clear();
        obs.payments.clear();
        obs.round = 0;
        obs.total_rate = 0.0;
        let _ = OBSERVATIONS.try_with(|cell| {
            if let Ok(mut buffers) = cell.try_borrow_mut() {
                if let Some(pos) = buffers.iter().position(|(id, o)| {
                    *id == self.id && o.payments.is_empty() && o.bids.is_empty()
                }) {
                    buffers[pos].1 = obs;
                }
            }
        });
    }
}

impl Collector for InvariantMonitor {
    /// Always enabled: the monitor needs the gauge stream even when the
    /// wrapped collector is a noop (checks still run; only re-emission is
    /// skipped).
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: TelemetryEvent) {
        if event.cat == Subsystem::Coordinator {
            if let EventKind::Gauge { value } = event.kind {
                if let Some((obs, payment_total)) = self.ingest(&event.name, value) {
                    self.finish_round(event.at, &obs, payment_total);
                    self.recycle(obs);
                }
            }
        }
        if self.inner.enabled() {
            self.inner.record(event);
        }
    }

    fn next_span_id(&self) -> SpanId {
        if self.inner.enabled() {
            self.inner.next_span_id()
        } else {
            SpanId(self.fallback_ids.fetch_add(1, Ordering::Relaxed))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lb_core::scenario::{paper_system, PAPER_ARRIVAL_RATE};
    use lb_mechanism::{run_mechanism, Profile};
    use lb_telemetry::{noop_collector, RingCollector};
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    /// Feeds one settled paper-rate round's gauge stream straight into the
    /// monitor, exactly as `Coordinator::emit_settlement_gauges` would.
    fn feed_round(
        monitor: &InvariantMonitor,
        round: u64,
        bids: &[f64],
        rates: &[f64],
        execs: &[f64],
        excluded: &[bool],
        payments: &[f64],
    ) {
        let gauge = |name: String, value: f64| {
            monitor.record(TelemetryEvent {
                at: 1.0,
                name: Cow::Owned(name),
                cat: Subsystem::Coordinator,
                kind: EventKind::Gauge { value },
                fields: Vec::new(),
            });
        };
        for i in 0..payments.len() {
            gauge(format!("bid.m{i}"), bids[i]);
            gauge(format!("alloc.rate.m{i}"), rates[i]);
            gauge(format!("exec.est.m{i}"), execs[i]);
            gauge(
                format!("excluded.m{i}"),
                if excluded[i] { 1.0 } else { 0.0 },
            );
            gauge(format!("payment.m{i}"), payments[i]);
        }
        #[allow(clippy::cast_precision_loss)]
        gauge("round.index".to_string(), round as f64);
        gauge("round.total_rate".to_string(), PAPER_ARRIVAL_RATE);
        gauge("round.payment.total".to_string(), payments.iter().sum());
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
    fn floor_violation_is_flagged_and_callback_fires() {
        let monitor = InvariantMonitor::new(noop_collector(), MonitorConfig::default());
        let fired = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&fired);
        monitor.set_violation_callback(move |report| {
            assert!(!report.ok());
            seen.fetch_add(1, Ordering::SeqCst);
        });
        let (bids, rates, execs, excluded, mut payments) = truthful_round();
        // Underpay machine 0 so its utility P + V dives below zero.
        payments[0] -= 1000.0;
        feed_round(&monitor, 0, &bids, &rates, &execs, &excluded, &payments);
        let report = monitor.latest_report().unwrap();
        assert!(!report.check("floor").unwrap().ok);
        assert_eq!(fired.load(Ordering::SeqCst), 1);
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
    #[should_panic(expected = "lb-audit invariant violation")]
    fn abort_policy_panics_on_violation() {
        let monitor = InvariantMonitor::new(
            noop_collector(),
            MonitorConfig {
                policy: ViolationPolicy::Abort,
                ..MonitorConfig::default()
            },
        );
        let (bids, mut rates, execs, excluded, payments) = truthful_round();
        rates[1] = -rates[1];
        feed_round(&monitor, 0, &bids, &rates, &execs, &excluded, &payments);
    }

    #[test]
    fn sharded_round_streams_through_the_monitor() {
        // The monitor attaches to the *root* of the hierarchical shard
        // tier exactly as it does to a single coordinator: the shard
        // workers report partial sums upward, the root settles, and its
        // settlement gauge stream must pass every streaming check.
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
            transport: Transport::Sharded {
                shards: 5,
                profiler: None,
            },
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
        let (bids, rates, execs, excluded, payments) = truthful_round();
        feed_round(&monitor, 3, &bids, &rates, &execs, &excluded, &payments);
        let events = ring.snapshot();
        // Every forwarded gauge is present…
        assert!(events.iter().any(|e| e.name == "round.payment.total"));
        // …plus the audit re-emission.
        assert!(events
            .iter()
            .any(|e| e.name == "audit.check.conservation" && e.cat == Subsystem::Audit));
        assert!(events.iter().any(|e| e.name == "audit.report"));
        assert!(events.iter().any(|e| e.name == "audit.rounds"));
    }

    #[test]
    fn sampling_gates_the_expensive_checks() {
        let monitor = InvariantMonitor::new(
            noop_collector(),
            MonitorConfig {
                drift_sampler: Sampler::Never,
                probe_sampler: Sampler::PerRound(2),
                ..MonitorConfig::default()
            },
        );
        let (bids, rates, execs, excluded, payments) = truthful_round();
        for round in 0..2 {
            feed_round(&monitor, round, &bids, &rates, &execs, &excluded, &payments);
        }
        let reports = monitor.reports();
        assert!(reports[0].check("drift").is_none());
        assert!(reports[0].check("margin").is_some());
        assert!(reports[1].check("margin").is_none());
    }

    #[test]
    fn incomplete_stream_is_a_stream_violation_not_a_panic() {
        let monitor = InvariantMonitor::new(noop_collector(), MonitorConfig::default());
        monitor.record(TelemetryEvent {
            at: 0.0,
            name: Cow::Borrowed("payment.m0"),
            cat: Subsystem::Coordinator,
            kind: EventKind::Gauge { value: 1.0 },
            fields: Vec::new(),
        });
        monitor.record(TelemetryEvent {
            at: 0.0,
            name: Cow::Borrowed("round.payment.total"),
            cat: Subsystem::Coordinator,
            kind: EventKind::Gauge { value: 1.0 },
            fields: Vec::new(),
        });
        let report = monitor.latest_report().unwrap();
        assert!(!report.ok());
        assert!(report.violations[0].starts_with("stream:"));
    }
}
