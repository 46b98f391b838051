//! The round engine: the one event loop every round runs through, plus
//! seeded probabilistic fault injection with retransmission.
//!
//! The loop is written once against a small transport trait with two
//! links: the in-memory `SimNetwork` — reliable, or fault-injecting through
//! a [`ChaosConfig`] — and the shard tier of [`crate::shard`], whose
//! machines run on worker threads. A lossy link arms retry timers; a
//! lossless one arms none and only falls back to the drain-timeout rules if
//! it ever runs dry without progress. The link is also the round's
//! topology: the loop's triggers reach the harmonic sum and verification
//! through it, so every topology crosses its phases in this one loop.
//!
//! Under chaos every frame independently risks being dropped, duplicated,
//! corrupted, or delay-jittered, driven by a seeded
//! [`lb_stats::Xoshiro256StarStar`] stream so any failure reproduces from its
//! seed alone. On top of the hostile link the coordinator runs a
//! *retransmission protocol*: missing bids are re-requested with bounded
//! retries and exponential backoff in simulated time, and only a machine
//! that stays silent through every retry is excluded (the `L_{-i}`
//! counterfactual of the paper). The declarative faults of [`FaultPlan`]
//! layer on top; with `bid_retries: 0` a plan excludes on first loss. The
//! coordinator absorbs duplicated, stale, or misrouted frames and counts
//! them as [`Anomaly`] events.
//!
//! The incentive properties are seed-independent: whatever the fault
//! schedule, allocation over the respondents sums to `R`, settled payments
//! satisfy Def. 3.3 (`C_i + B_i`, re-checkable by [`crate::audit`]), and a
//! truthful machine that participates never realises negative utility — the
//! soak tests at the bottom of this file assert exactly that over a hundred
//! seeds.

use crate::coordinator::{check_width, Coordinator, CoordinatorPhase, ProtocolError};
use crate::faults::FaultPlan;
use crate::journal::{CrashingJournal, Journal};
use crate::message::{Message, RoundId};
use crate::network::{Endpoint, FrameFate, Link, MessageStats, NetPoll, SimNetwork};
use crate::node::{NodeAgent, NodeSpec};
use crate::recovery::{recover_round, RoundContext};
use crate::runtime::{ProtocolConfig, RoundReport};
use crate::trace::{Anomaly, AnomalyStats, RoundTrace, TraceEntry};
use lb_core::CoreError;
use lb_mechanism::VerifiedMechanism;
use lb_sim::events::EventQueue;
use lb_sim::time::SimTime;
use lb_stats::{Rng, Xoshiro256StarStar};
use lb_telemetry::{noop_collector, Collector, Field, Subsystem, TraceContext};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Configuration of the chaos injector and the retransmission protocol.
///
/// Probabilities apply independently per frame; `plan` layers the
/// declarative faults of [`FaultPlan`] on top (a frame is lost if either
/// source says so).
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed of the chaos RNG. Round `r` uses the non-overlapping stream
    /// `r` of this seed, so multi-round sessions are reproducible and
    /// per-round faults are independent.
    pub seed: u64,
    /// Probability that a frame is lost in transit.
    pub drop_prob: f64,
    /// Probability that a frame is delivered twice.
    pub duplicate_prob: f64,
    /// Probability that a frame arrives corrupted (always detected — the
    /// link model is CRC-checked, so corruption costs a frame but never
    /// smuggles bad data into the mechanism).
    pub corrupt_prob: f64,
    /// Maximum extra per-frame delay, uniform in `[0, jitter]` seconds.
    pub jitter: f64,
    /// Declarative faults applied in addition to the probabilistic ones.
    pub plan: FaultPlan,
    /// How many times a missing bid is re-requested before exclusion.
    pub bid_retries: u32,
    /// Sim-time before the first bid-retry timer fires. Must comfortably
    /// exceed one round trip or the coordinator re-requests bids that are
    /// merely in flight.
    pub retry_timeout: f64,
    /// Exponential backoff factor between successive retries (≥ 1).
    pub backoff: f64,
    /// Sim-time after which execution settles without the missing acks.
    pub exec_timeout: f64,
}

impl ChaosConfig {
    /// A fault-free configuration, the reliable transport: all probabilities
    /// zero, retry policy set but never armed, since a runtime built from a
    /// configuration that injects no fault is lossless.
    #[must_use]
    pub fn reliable(seed: u64) -> Self {
        Self {
            seed,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            corrupt_prob: 0.0,
            jitter: 0.0,
            plan: FaultPlan::none(),
            bid_retries: 3,
            retry_timeout: 0.05,
            backoff: 2.0,
            exec_timeout: 1.0,
        }
    }

    /// A hostile configuration: 15% loss, 10% duplication, 10% corruption
    /// and 5 ms jitter per frame — the soak-test default.
    #[must_use]
    pub fn heavy(seed: u64) -> Self {
        Self {
            drop_prob: 0.15,
            duplicate_prob: 0.10,
            corrupt_prob: 0.10,
            jitter: 0.005,
            ..Self::reliable(seed)
        }
    }

    /// Whether a frame can meet any fault: a nonzero probability, nonzero
    /// jitter or a non-empty plan. Without one the link is lossless.
    fn injects_faults(&self) -> bool {
        self.drop_prob > 0.0
            || self.duplicate_prob > 0.0
            || self.corrupt_prob > 0.0
            || self.jitter > 0.0
            || !self.plan.is_empty()
    }

    /// Checks every field is in range.
    ///
    /// # Errors
    /// Returns [`ProtocolError::InvalidConfig`] naming the first field out
    /// of range.
    pub fn validate(&self) -> Result<(), ProtocolError> {
        let checks = [
            (
                (0.0..=1.0).contains(&self.drop_prob),
                "drop_prob must be in [0, 1]",
            ),
            (
                (0.0..=1.0).contains(&self.duplicate_prob),
                "duplicate_prob must be in [0, 1]",
            ),
            (
                (0.0..=1.0).contains(&self.corrupt_prob),
                "corrupt_prob must be in [0, 1]",
            ),
            (
                self.jitter.is_finite() && self.jitter >= 0.0,
                "jitter must be finite and >= 0",
            ),
            (
                self.retry_timeout.is_finite() && self.retry_timeout > 0.0,
                "retry_timeout must be positive",
            ),
            (
                self.backoff.is_finite() && self.backoff >= 1.0,
                "backoff must be >= 1",
            ),
            (
                self.exec_timeout.is_finite() && self.exec_timeout > 0.0,
                "exec_timeout must be positive",
            ),
        ];
        match checks.into_iter().find(|&(ok, _)| !ok) {
            Some((_, what)) => Err(ProtocolError::InvalidConfig { what }),
            None => Ok(()),
        }
    }
}

/// Per-round fate oracle: one seeded RNG stream deciding every frame's fate.
struct ChaosInjector {
    rng: Xoshiro256StarStar,
    chaos: ChaosConfig,
    /// Shared with the owning [`ChaosRuntime`] so `lose_bid_attempts`
    /// counts transmissions across the whole session ("the first `k`
    /// ever"), letting a transient fault heal in a later round.
    bid_attempts: Rc<RefCell<Vec<u32>>>,
}

impl ChaosInjector {
    fn fate(&mut self, from: Endpoint, to: Endpoint, message: &Message) -> FrameFate {
        // Exactly five draws per frame regardless of the outcome, so one
        // frame's fate never shifts the random stream seen by the next.
        let c = &self.chaos;
        let drop = self.rng.next_bool(c.drop_prob);
        let duplicate = self.rng.next_bool(c.duplicate_prob);
        let corrupt = self.rng.next_bool(c.corrupt_prob);
        let extra_delay = self.rng.next_range(0.0, c.jitter);
        let duplicate_extra_delay = self.rng.next_range(0.0, c.jitter);
        let declared = c
            .plan
            .drops_counted(from, to, message, &mut self.bid_attempts.borrow_mut());
        FrameFate {
            drop: drop || declared,
            duplicate,
            corrupt,
            extra_delay,
            duplicate_extra_delay,
        }
    }
}

/// Link-level fault counters for one round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosNetStats {
    /// Frames lost in transit (probabilistic or declarative).
    pub dropped: u64,
    /// Duplicate copies injected.
    pub duplicated: u64,
    /// Frames delivered with detected corruption.
    pub corrupted: u64,
}

impl ChaosNetStats {
    fn since(self, earlier: Self) -> Self {
        Self {
            dropped: self.dropped - earlier.dropped,
            duplicated: self.duplicated - earlier.duplicated,
            corrupted: self.corrupted - earlier.corrupted,
        }
    }

    /// Adds another round's counters.
    pub(crate) fn merge(&mut self, other: &Self) {
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.corrupted += other.corrupted;
    }
}

/// What it took to push rounds through their crash schedule (a durable
/// [`crate::session::run_chaos_session`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundRecoveryStats {
    /// Injected crashes consumed while completing the round.
    pub crashes: u64,
    /// Journal records replayed across all recoveries of the round.
    pub records_replayed: u64,
    /// Torn-tail bytes truncated across all recoveries of the round.
    pub truncated_bytes: u64,
}

/// Timers the engine interleaves with frame arrivals.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ChaosTimer {
    /// Re-request missing bids (or give up and exclude) for `round`.
    BidTimeout { round: RoundId, attempt: u32 },
    /// Settle `round` from measurements even though acks are missing.
    ExecTimeout { round: RoundId },
}

/// One round's frame schedule and link bookkeeping, beyond what the
/// coordinator itself records.
pub(crate) struct Drive {
    /// The coordinator's-eye trace: accepted inbound frames at delivery
    /// time, outbound frames at send time.
    pub trace: RoundTrace,
    /// Anomalies absorbed on the link, before the coordinator.
    pub anomalies: AnomalyStats,
    /// Bid re-requests sent.
    pub retries: u64,
    /// The round's traffic.
    pub stats: MessageStats,
    /// The round's link-level faults.
    pub faults: ChaosNetStats,
}

impl Drive {
    /// The round's report, read off the settled coordinator and the node
    /// agents that served it.
    pub(crate) fn report(
        self,
        coordinator: &Coordinator<'_>,
        specs: &[NodeSpec],
        nodes: &[NodeAgent],
    ) -> Result<RoundReport, ProtocolError> {
        let mut report = RoundReport::settled(coordinator, specs, nodes, self.stats)?;
        report.anomalies.merge(&self.anomalies);
        report.retries = self.retries;
        report.trace = self.trace;
        report.faults = self.faults;
        Ok(report)
    }
}

/// The event loop of one round: delivers frames and fires timers in time
/// order until the coordinator is done and the link has drained.
///
/// Node-bound frames are served by `nodes` (the simulated network; the
/// shard link serves its own on worker threads and passes none);
/// `actual_exec` is the world the verification simulation runs against.
/// `retry` is the retransmission policy of a lossy link; `None` arms no
/// timers. `opening` names the first recipients of the current phase's
/// frame: the missing bids of a fresh round, or what a recovered
/// coordinator derived from its replayed state ([`Coordinator::resume`]).
/// The round opens at the link's clock, and is sealed at it once settled
/// and drained: the seal ends the settle phase.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive_round<L: Link>(
    link: &mut L,
    timers: &mut EventQueue<ChaosTimer>,
    retry: Option<&ChaosConfig>,
    collector: &dyn Collector,
    coordinator: &mut Coordinator<'_>,
    nodes: &mut [NodeAgent],
    actual_exec: &[f64],
    opening: Vec<u32>,
) -> Result<Drive, ProtocolError> {
    let round = coordinator.round();
    let stats0 = link.stats();
    let faults0 = link.faults();
    let mut out = Drive {
        trace: RoundTrace::default(),
        anomalies: AnomalyStats::default(),
        retries: 0,
        stats: MessageStats::default(),
        faults: ChaosNetStats::default(),
    };
    let mut exec_timer_armed = false;
    let mut now: SimTime = link.now().max(timers.now());

    // Open the round first so the opening frames already carry the current
    // phase span in their trace context.
    coordinator.set_now(now.seconds());
    coordinator.ensure_round_span();
    send_from_coordinator(link, coordinator, opening, now, &mut out.trace)?;
    if let Some(chaos) = retry {
        if coordinator.phase() == CoordinatorPhase::CollectingBids {
            timers.schedule(
                now + chaos.retry_timeout,
                ChaosTimer::BidTimeout { round, attempt: 0 },
            );
        }
    }

    loop {
        if coordinator.phase() == CoordinatorPhase::Done && link.pending() == 0 {
            break;
        }
        let take_frame = match (link.next_arrival_time(), timers.peek_time()) {
            (Some(f), Some(t)) => f <= t,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => {
                // Nothing in flight and no timer armed, yet the round is not
                // done: the link drained without progress. Close the stuck
                // phase so the round always terminates.
                if coordinator.phase() == CoordinatorPhase::Done {
                    break;
                }
                coordinator.set_now(now.seconds());
                let outgoing = coordinator.close_phase_in(actual_exec, link)?;
                send_from_coordinator(link, coordinator, outgoing, now, &mut out.trace)?;
                arm_exec_timer(timers, retry, coordinator, now, &mut exec_timer_armed);
                continue;
            }
        };

        if take_frame {
            match link.poll()? {
                None => {}
                Some(NetPoll::Corrupt { at, .. }) => {
                    now = now.max(at);
                    note_link_anomaly(collector, now, &mut out.anomalies, Anomaly::CorruptFrame);
                }
                Some(NetPoll::Frame(delivery)) => {
                    now = now.max(delivery.at);
                    match delivery.to {
                        Endpoint::Node(i) => {
                            let agent = nodes.get_mut(i as usize);
                            let anomaly = match agent {
                                // Addressed nowhere.
                                None => Some(Anomaly::Misrouted),
                                // Straggler from a previous round.
                                Some(_) if delivery.message.round() != round => {
                                    Some(Anomaly::StaleRound)
                                }
                                Some(agent) => {
                                    let reply = agent.serve(
                                        &delivery.message,
                                        delivery.ctx,
                                        collector,
                                        now.seconds(),
                                        coordinator.phase_span(),
                                    );
                                    if let Some((reply, child)) = &reply {
                                        let (from, to) = (Endpoint::Node(i), Endpoint::Coordinator);
                                        link.send(from, to, reply, child.as_ref())?;
                                    }
                                    // Only a payment needs no reply; any
                                    // other frame was not for a node.
                                    let paid = matches!(delivery.message, Message::Payment { .. });
                                    (reply.is_none() && !paid).then_some(Anomaly::Misrouted)
                                }
                            };
                            if let Some(anomaly) = anomaly {
                                note_link_anomaly(collector, now, &mut out.anomalies, anomaly);
                            }
                        }
                        Endpoint::Coordinator => {
                            coordinator.set_now(now.seconds());
                            let before = coordinator.anomalies().total();
                            let outgoing =
                                coordinator.handle_in(&delivery.message, actual_exec, link)?;
                            if L::TRACED && coordinator.anomalies().total() == before {
                                // Accepted: it enters the audit trail.
                                out.trace.entries.push(TraceEntry {
                                    at: delivery.at.seconds(),
                                    from: delivery.from,
                                    to: delivery.to,
                                    message: delivery.message,
                                });
                            }
                            send_from_coordinator(
                                link,
                                coordinator,
                                outgoing,
                                now,
                                &mut out.trace,
                            )?;
                        }
                    }
                }
            }
        } else if let (Some((at, timer)), Some(chaos)) = (timers.pop(), retry) {
            // Keep the two clocks in lockstep: safe because the timer was
            // chosen only when no earlier frame is pending.
            link.advance_to(at);
            now = now.max(at);
            coordinator.set_now(now.seconds());
            fire_timer(
                link,
                timers,
                chaos,
                collector,
                coordinator,
                actual_exec,
                timer,
                now,
                &mut out,
            )?;
        }

        arm_exec_timer(timers, retry, coordinator, now, &mut exec_timer_armed);
    }

    // The payment fan-out has been handed over: the seal ends the settle
    // phase and closes the round's spans.
    coordinator.set_now(now.max(link.now()).seconds());
    coordinator.seal()?;

    out.stats = MessageStats {
        messages: link.stats().messages - stats0.messages,
        bytes: link.stats().bytes - stats0.bytes,
    };
    out.faults = link.faults().since(faults0);
    Ok(out)
}

/// Arms the execution timeout once, as the round enters execution on a
/// lossy link.
fn arm_exec_timer(
    timers: &mut EventQueue<ChaosTimer>,
    retry: Option<&ChaosConfig>,
    coordinator: &Coordinator<'_>,
    now: SimTime,
    armed: &mut bool,
) {
    let Some(chaos) = retry else { return };
    if !*armed && coordinator.phase() == CoordinatorPhase::Executing {
        *armed = true;
        timers.schedule(
            now + chaos.exec_timeout,
            ChaosTimer::ExecTimeout {
                round: coordinator.round(),
            },
        );
    }
}

/// Handles one fired timer: re-requests missing bids with backoff, or
/// falls back to exclusion once retries are exhausted, or settles without
/// the missing acks. Timers of earlier rounds are ignored.
#[allow(clippy::too_many_arguments)]
fn fire_timer<L: Link>(
    link: &mut L,
    timers: &mut EventQueue<ChaosTimer>,
    chaos: &ChaosConfig,
    collector: &dyn Collector,
    coordinator: &mut Coordinator<'_>,
    actual_exec: &[f64],
    timer: ChaosTimer,
    now: SimTime,
    out: &mut Drive,
) -> Result<(), ProtocolError> {
    let round = coordinator.round();
    match timer {
        ChaosTimer::BidTimeout { round: r, attempt }
            if r == round && coordinator.phase() == CoordinatorPhase::CollectingBids =>
        {
            let missing = coordinator.missing_bids();
            if missing.is_empty() || attempt >= chaos.bid_retries {
                // Retries exhausted: fall back to exclusion.
                let outgoing = coordinator.close_phase_in(actual_exec, link)?;
                return send_from_coordinator(link, coordinator, outgoing, now, &mut out.trace);
            }
            // Retransmissions carry the same `phase.collect_bids` context as
            // the originals: they are part of the same trace.
            for i in missing {
                out.retries += 1;
                if collector.enabled() {
                    collector.instant(
                        now.seconds(),
                        "chaos.retransmit",
                        Subsystem::Chaos,
                        vec![
                            Field::u64("machine", u64::from(i)),
                            Field::u64("attempt", u64::from(attempt)),
                        ],
                    );
                }
                send_from_coordinator(link, coordinator, [i], now, &mut out.trace)?;
            }
            let delay = chaos.retry_timeout
                * chaos
                    .backoff
                    .powi(i32::try_from(attempt + 1).unwrap_or(i32::MAX));
            collector.histogram(now.seconds(), "chaos.backoff", Subsystem::Chaos, delay);
            timers.schedule(
                now + delay,
                ChaosTimer::BidTimeout {
                    round,
                    attempt: attempt + 1,
                },
            );
            Ok(())
        }
        ChaosTimer::ExecTimeout { round: r }
            if r == round && coordinator.phase() == CoordinatorPhase::Executing =>
        {
            let outgoing = coordinator.close_phase_in(actual_exec, link)?;
            send_from_coordinator(link, coordinator, outgoing, now, &mut out.trace)
        }
        // Stale timer from an earlier round, or a phase already left.
        ChaosTimer::BidTimeout { .. } | ChaosTimer::ExecTimeout { .. } => Ok(()),
    }
}

/// Counts a link-level anomaly and mirrors it as an `anomaly` telemetry
/// instant on the chaos lane (the coordinator emits its own for the frames
/// it absorbs itself).
fn note_link_anomaly(
    collector: &dyn Collector,
    at: SimTime,
    stats: &mut AnomalyStats,
    anomaly: Anomaly,
) {
    stats.record(anomaly);
    if collector.enabled() {
        collector.instant(
            at.seconds(),
            "anomaly",
            Subsystem::Chaos,
            vec![Field::str("kind", anomaly.name())],
        );
    }
}

/// Sends the current phase's frame ([`Coordinator::outbound`]) to each of
/// `recipients`, recording it in the trace at the coordinator's send
/// instant on a traced link. Frames are built and carry the coordinator's
/// trace context *after* the transition that named the recipients, so they
/// carry the span of the phase they belong to.
fn send_from_coordinator<L: Link>(
    link: &mut L,
    coordinator: &Coordinator<'_>,
    recipients: impl IntoIterator<Item = u32>,
    now: SimTime,
    trace: &mut RoundTrace,
) -> Result<(), ProtocolError> {
    let mut recipients = recipients.into_iter().peekable();
    if recipients.peek().is_none() {
        return Ok(());
    }
    link.enter_phase(coordinator.phase_span());
    let wire = coordinator.wire_context();
    let frames = coordinator.outbound()?;
    for i in recipients {
        let message = frames.frame(i);
        link.send(
            Endpoint::Coordinator,
            Endpoint::Node(i),
            &message,
            wire.as_ref(),
        )?;
        if L::TRACED {
            trace.entries.push(TraceEntry {
                at: now.seconds(),
                from: Endpoint::Coordinator,
                to: Endpoint::Node(i),
                message,
            });
        }
    }
    Ok(())
}

/// A persistent simulated transport plus the round engine.
///
/// The network (and its clock) lives across rounds, so late frames from a
/// previous round can straggle into the next one — where the coordinator
/// absorbs them as [`Anomaly::StaleRound`]. Construct once, then call
/// [`ChaosRuntime::run_round`] per round; [`crate::session::run_chaos_session`]
/// is the one public driver of multi-round sessions.
pub(crate) struct ChaosRuntime {
    network: SimNetwork,
    timers: EventQueue<ChaosTimer>,
    chaos: ChaosConfig,
    /// Whether the link can lose frames. A lossless runtime installs no
    /// fault injector and arms no retry timers.
    lossy: bool,
    protocol: ProtocolConfig,
    n: usize,
    /// Session-cumulative bid-transmission counts for the declarative
    /// `lose_bid_attempts` faults (shared with the per-round injector).
    bid_attempts: Rc<RefCell<Vec<u32>>>,
    /// The injector's stream of the latest round, `(r, stream r of the
    /// chaos seed)`. The next round's stream is one jump on from it, where
    /// deriving stream `r` from the seed costs `r + 1` jumps.
    stream: (u64, Xoshiro256StarStar),
    collector: Arc<dyn Collector>,
}

impl std::fmt::Debug for ChaosRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosRuntime")
            .field("n", &self.n)
            .field("chaos", &self.chaos)
            .field("pending", &self.network.pending())
            .finish()
    }
}

impl ChaosRuntime {
    /// Creates a chaos runtime for `n` machines. A configuration that
    /// injects no fault builds a lossless runtime: no injector, no timers.
    ///
    /// # Errors
    /// Returns [`ProtocolError::MissingState`] for `n == 0`,
    /// [`ProtocolError::TooManyNodes`] beyond the `u32` wire width, and
    /// [`ProtocolError::InvalidConfig`] for an invalid chaos configuration
    /// or link latency, or, on a lossy link, a `retry_timeout` or
    /// `exec_timeout` that does not exceed one round trip
    /// (`2 · link_latency`): such a timer fires before any reply can arrive
    /// and excludes every machine.
    pub fn new(
        n: usize,
        protocol: ProtocolConfig,
        chaos: ChaosConfig,
    ) -> Result<Self, ProtocolError> {
        chaos.validate()?;
        // Every node answers every request, so a link that cannot lose,
        // delay or duplicate a frame needs neither the injector nor timers,
        // and has no timer to bound.
        let lossy = chaos.injects_faults();
        let round_trip = 2.0 * protocol.link_latency;
        if lossy && (chaos.retry_timeout <= round_trip || chaos.exec_timeout <= round_trip) {
            return Err(ProtocolError::InvalidConfig {
                what: "retry_timeout and exec_timeout must exceed 2 * link_latency",
            });
        }
        check_width(n)?;
        let latency = protocol.link_latency;
        if !(latency.is_finite() && latency >= 0.0) {
            return Err(ProtocolError::InvalidConfig {
                what: "link_latency must be finite and >= 0",
            });
        }
        Ok(Self {
            network: SimNetwork::with_constant_latency(latency),
            timers: EventQueue::new(),
            stream: (0, Xoshiro256StarStar::seed_from_u64(chaos.seed).stream(0)),
            chaos,
            lossy,
            protocol,
            n,
            bid_attempts: Rc::new(RefCell::new(vec![0; n])),
            collector: noop_collector(),
        })
    }

    /// The current unified simulated time of the runtime (network clock and
    /// timer clock in lockstep) — the timestamp source for session-level
    /// telemetry.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.network.now().max(self.timers.now())
    }

    /// Attaches a telemetry collector. It is forwarded to the underlying
    /// network (frame-level `net.*` events) and to every round's coordinator
    /// (`round`/`phase.*` spans, anomaly and exclusion instants); the engine
    /// itself adds `chaos.retransmit` instants, `chaos.backoff` delay samples
    /// and link-level anomaly instants. All events carry simulated time.
    pub fn set_collector(&mut self, collector: Arc<dyn Collector>) {
        self.network.set_collector(Arc::clone(&collector));
        self.collector = collector;
    }

    /// Stream `round` of the chaos seed: reproducible, and provably
    /// non-overlapping with every other round's stream.
    fn chaos_stream(&mut self, round: RoundId) -> Xoshiro256StarStar {
        let (at, stream) = &mut self.stream;
        if round.0 < *at {
            *stream = Xoshiro256StarStar::seed_from_u64(self.chaos.seed).stream(round.0);
        } else if round.0 > *at {
            // `stream(k)` is `k + 1` jumps on.
            *stream = stream.stream(round.0 - *at - 1);
        }
        *at = round.0;
        stream.clone()
    }

    /// Runs one round over the network.
    ///
    /// `active[i] == false` quarantines machine `i` for this round: it is
    /// excluded up front and receives no bid request. Each round derives its
    /// simulation seed as `base seed + round` (matching independent
    /// [`crate::run_round`] calls) and its chaos stream as stream `round` of
    /// the chaos seed.
    ///
    /// With a `journal` the round is durable: it runs against the
    /// crash-injecting journal, recovering and resuming after every
    /// injected crash until it completes. Each continuation replays the
    /// journal's valid prefix into a fresh coordinator ([`recover_round`]),
    /// re-derives the in-flight fan-out from the reconstructed state
    /// ([`Coordinator::resume`]) and rejoins the event loop. The network and
    /// timer queues survive the crash: frames sent before it still arrive
    /// afterwards, and the recovered coordinator absorbs the resulting
    /// duplicates as anomalies. The report's message/fault counters cover
    /// the final continuation only (earlier continuations died with the
    /// crashed process); allocations, payments and exclusions are
    /// reconstructed state and therefore bit-identical to an uninterrupted
    /// run.
    ///
    /// # Errors
    /// Returns [`lb_core::CoreError::LengthMismatch`] (as
    /// [`ProtocolError::Mechanism`]) when `specs` or `active` do not have
    /// one entry per machine, leaving the runtime untouched. Otherwise
    /// propagates mechanism errors — notably
    /// [`lb_mechanism::MechanismError::NeedTwoAgents`] when fewer than two
    /// machines' bids survive every retry — and non-crash journal errors
    /// (crashes themselves are consumed by the recovery loop).
    pub fn run_round(
        &mut self,
        mechanism: &dyn VerifiedMechanism,
        specs: &[NodeSpec],
        round: RoundId,
        active: &[bool],
        journal: Option<&Rc<RefCell<CrashingJournal>>>,
    ) -> Result<(RoundReport, RoundRecoveryStats), ProtocolError> {
        let n = self.n;
        for len in [specs.len(), active.len()] {
            if len != n {
                return Err(CoreError::LengthMismatch {
                    expected: n,
                    actual: len,
                }
                .into());
            }
        }
        let mut sim = self.protocol.simulation;
        sim.seed = sim.seed.wrapping_add(round.0);
        let ctx = RoundContext {
            n,
            total_rate: self.protocol.total_rate,
            round,
            sim,
        };
        let actual_exec: Vec<f64> = specs.iter().map(|s| s.exec_value).collect();
        let mut stats = RoundRecoveryStats::default();

        loop {
            let now = self.now().seconds();
            let (mut coordinator, replayed) = match journal {
                Some(journal) => {
                    let (coordinator, recovery) = recover_round(
                        mechanism,
                        Rc::clone(journal) as Rc<RefCell<dyn Journal>>,
                        &ctx,
                        Arc::clone(&self.collector),
                        now,
                    )?;
                    stats.records_replayed += recovery.records_replayed;
                    (coordinator, recovery.records_replayed)
                }
                None => (
                    Coordinator::try_new(mechanism, n, ctx.total_rate, round, sim)?
                        .with_collector(Arc::clone(&self.collector)),
                    0,
                ),
            };
            if self.collector.enabled() {
                // One deterministic trace per round, derived from the chaos
                // seed so a replay of the same seed reproduces identical
                // trace ids. Head-based sampling happens one level up (an
                // unsampled round runs with the noop collector), so an
                // instrumented round here is always sampled.
                coordinator =
                    coordinator.with_trace(TraceContext::root(self.chaos.seed, round.0, true));
            }
            coordinator.set_now(now);
            if self.lossy {
                // Fresh per-attempt injector: fresh RNG stream, but
                // session-cumulative bid-attempt counts.
                let mut injector = ChaosInjector {
                    rng: self.chaos_stream(round),
                    chaos: self.chaos.clone(),
                    bid_attempts: Rc::clone(&self.bid_attempts),
                };
                self.network
                    .set_fate_fn(move |from, to, m| injector.fate(from, to, m));
            }
            let mut nodes: Vec<NodeAgent> = (0u32..)
                .zip(specs)
                .map(|(i, &spec)| NodeAgent::new(i, spec))
                .collect();
            let attempt = (|coordinator: &mut Coordinator<'_>| {
                let resumed = if replayed > 0 {
                    Some(coordinator.resume(&actual_exec)?)
                } else {
                    None
                };
                if coordinator.phase() == CoordinatorPhase::CollectingBids {
                    // First attempt, or a crash before allocation: the
                    // quarantine decisions are (re-)applied idempotently.
                    for (i, &is_active) in active.iter().enumerate() {
                        if !is_active {
                            coordinator.exclude(i)?;
                        }
                    }
                }
                // A fresh round requests a bid from every active machine.
                let opening = resumed.unwrap_or_else(|| coordinator.missing_bids());
                drive_round(
                    &mut self.network,
                    &mut self.timers,
                    self.lossy.then_some(&self.chaos),
                    &*self.collector,
                    coordinator,
                    &mut nodes,
                    &actual_exec,
                    opening,
                )
            })(&mut coordinator);
            match attempt {
                Ok(drive) => return Ok((drive.report(&coordinator, specs, &nodes)?, stats)),
                Err(e) => {
                    // An abandoned round (e.g. NeedTwoAgents, or a crash)
                    // closes its spans so the recording replays cleanly.
                    coordinator.end_telemetry();
                    match journal {
                        Some(journal) if e.is_crash() => {
                            stats.crashes += 1;
                            let replay = journal.borrow_mut().revive()?;
                            stats.truncated_bytes += replay.truncated_tail as u64;
                        }
                        _ => return Err(e),
                    }
                }
            }
        }
    }
}

/// The message bound the retransmission protocol guarantees per round:
/// `n·(5 + 2·retry budget)` protocol messages plus one possible extra reply
/// per duplicated frame — still `O(n · (1 + retries))`.
#[must_use]
pub fn chaos_message_bound(n: usize, bid_retries: u32, duplicated: u64) -> u64 {
    (n as u64) * (5 + 2 * u64::from(bid_retries)) + 2 * duplicated
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{audit_settlement, SettlementRecord};
    use crate::runtime::{run_round, RoundSpec, Transport};
    use crate::trace::replay_check;
    use lb_mechanism::{CompensationBonusMechanism, MechanismError};
    use lb_sim::driver::SimulationConfig;
    use lb_sim::server::ServiceModel;
    use lb_stats::prop;

    const RATE: f64 = 12.0;

    fn config() -> ProtocolConfig {
        ProtocolConfig {
            total_rate: RATE,
            link_latency: 0.001,
            simulation: SimulationConfig {
                horizon: 50.0,
                seed: 5,
                model: ServiceModel::StationaryDeterministic,
                workload: Default::default(),
                warmup: 0.0,
                estimator: lb_sim::estimator::EstimatorConfig::default(),
            },
        }
    }

    fn specs() -> Vec<NodeSpec> {
        [1.0, 1.5, 2.0, 3.0, 4.5, 6.0]
            .iter()
            .map(|&t| NodeSpec::truthful(t))
            .collect()
    }

    /// Runs a single round under chaos on a fresh network.
    fn run_chaos_round(
        mech: &CompensationBonusMechanism,
        specs: &[NodeSpec],
        config: &ProtocolConfig,
        chaos: &ChaosConfig,
    ) -> Result<RoundReport, ProtocolError> {
        run_round(&RoundSpec {
            transport: Transport::Chaos(chaos.clone()),
            ..RoundSpec::new(mech, specs, *config)
        })
    }

    fn need_two(result: &Result<RoundReport, ProtocolError>) -> bool {
        matches!(
            result,
            Err(ProtocolError::Mechanism(MechanismError::NeedTwoAgents))
        )
    }

    #[test]
    fn only_a_configuration_that_injects_faults_builds_a_lossy_runtime() {
        let lossy = |chaos| ChaosRuntime::new(2, config(), chaos).unwrap().lossy;
        assert!(!lossy(ChaosConfig::reliable(3)));
        assert!(lossy(ChaosConfig::heavy(3)));
        for faulty in [
            ChaosConfig {
                duplicate_prob: 0.1,
                ..ChaosConfig::reliable(3)
            },
            ChaosConfig {
                jitter: 0.001,
                ..ChaosConfig::reliable(3)
            },
            ChaosConfig {
                plan: FaultPlan {
                    lose_acks_from: vec![1],
                    ..FaultPlan::none()
                },
                ..ChaosConfig::reliable(3)
            },
        ] {
            assert!(lossy(faulty));
        }
    }

    #[test]
    fn chaos_stream_cursor_matches_indexed_derivation() {
        let mut runtime = ChaosRuntime::new(2, config(), ChaosConfig::heavy(17)).unwrap();
        let base = Xoshiro256StarStar::seed_from_u64(17);
        // Repeats (crash retries), steps, skips and a step back.
        for round in [0, 0, 1, 4, 4, 5, 2, 9] {
            let mut got = runtime.chaos_stream(RoundId(round));
            let mut want = base.stream(round);
            assert_eq!(got.next_u64(), want.next_u64(), "round {round}");
        }
    }

    fn run_on(
        runtime: &mut ChaosRuntime,
        specs: &[NodeSpec],
    ) -> Result<RoundReport, ProtocolError> {
        let mech = CompensationBonusMechanism::paper();
        let active = vec![true; specs.len()];
        runtime
            .run_round(&mech, specs, RoundId(0), &active, None)
            .map(|(report, _)| report)
    }

    /// Checks every seed-independent invariant on one round report.
    fn assert_round_invariants(report: &RoundReport, specs: &[NodeSpec], chaos: &ChaosConfig) {
        let n = specs.len();
        let mech = CompensationBonusMechanism::paper();
        let o = &report.outcome;

        // Allocation over the respondents sums to R.
        let total: f64 = o.rates.iter().sum();
        assert!(
            (total - RATE).abs() < 1e-6,
            "allocation sums to {total}, want {RATE}"
        );
        for (i, &ex) in report.excluded.iter().enumerate() {
            if ex {
                assert_eq!(o.rates[i], 0.0, "excluded machine {i} got load");
                assert_eq!(o.payments[i], 0.0, "excluded machine {i} got paid");
            }
        }

        // Payments conserve C_i + B_i (Def. 3.3): the settlement audits
        // clean over the respondent sub-profile.
        let resp: Vec<usize> = (0..n).filter(|&i| !report.excluded[i]).collect();
        let record = SettlementRecord {
            bids: resp.iter().map(|&i| specs[i].bid).collect(),
            estimated_exec_values: resp.iter().map(|&i| o.estimated_exec_values[i]).collect(),
            total_rate: RATE,
            claimed_payments: resp.iter().map(|&i| o.payments[i]).collect(),
        };
        let audit = audit_settlement(&mech, &record, 1e-6).expect("auditable settlement");
        assert!(
            audit.all_verified(),
            "disputed machines: {:?}",
            audit.disputed()
        );

        // Voluntary participation (Thm 3.2): truthful respondents never
        // realise negative utility, chaos or not.
        for &i in &resp {
            if specs[i].is_truthful() {
                assert!(
                    o.utilities[i] >= -1e-6,
                    "machine {i} utility {}",
                    o.utilities[i]
                );
            }
        }

        // Message complexity stays O(n · (1 + retries)).
        let bound = chaos_message_bound(n, chaos.bid_retries, report.faults.duplicated);
        assert!(
            o.stats.messages <= bound,
            "{} messages exceeds bound {bound}",
            o.stats.messages
        );

        // The coordinator's-eye trace replays clean.
        let violations = replay_check(&report.trace, n);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn soak_one_hundred_twenty_seeds_hold_all_invariants() {
        let mech = CompensationBonusMechanism::paper();
        let specs = specs();
        let mut completed = 0u32;
        for seed in 0..120u64 {
            let chaos = ChaosConfig::heavy(seed);
            match run_chaos_round(&mech, &specs, &config(), &chaos) {
                Ok(report) => {
                    assert_round_invariants(&report, &specs, &chaos);
                    completed += 1;
                }
                // Legitimate when chaos silences all but one machine.
                result if need_two(&result) => {}
                Err(e) => panic!("seed {seed}: unexpected error {e:?}"),
            }
        }
        // Retransmission makes wholesale exclusion vanishingly rare: the
        // overwhelming majority of seeds must settle.
        assert!(completed >= 110, "only {completed}/120 seeds completed");
    }

    /// Randomised soak: arbitrary seeds and fault intensities.
    #[test]
    fn prop_invariants_hold_under_arbitrary_chaos() {
        prop::check(
            "prop_invariants_hold_under_arbitrary_chaos",
            32,
            (
                prop::any_u64(),
                0.0f64..0.3,
                0.0f64..0.3,
                0.0f64..0.3,
                0.0f64..0.01,
            ),
            |(seed, drop, dup, corrupt, jitter)| {
                let mech = CompensationBonusMechanism::paper();
                let specs = specs();
                let chaos = ChaosConfig {
                    drop_prob: drop,
                    duplicate_prob: dup,
                    corrupt_prob: corrupt,
                    jitter,
                    ..ChaosConfig::reliable(seed)
                };
                match run_chaos_round(&mech, &specs, &config(), &chaos) {
                    Ok(report) => assert_round_invariants(&report, &specs, &chaos),
                    result if need_two(&result) => {}
                    Err(e) => panic!("unexpected error {e:?}"),
                }
                Ok(())
            },
        );
    }

    #[test]
    fn dropped_bid_is_retransmitted_and_included() {
        // Machine 0's first bid transmission is lost; the retry gets
        // through, so it is *included* — the whole point of retransmission.
        let mech = CompensationBonusMechanism::paper();
        let specs = specs();
        let chaos = ChaosConfig {
            plan: FaultPlan {
                lose_bid_attempts: vec![(0, 1)],
                ..FaultPlan::none()
            },
            ..ChaosConfig::reliable(42)
        };
        let report = run_chaos_round(&mech, &specs, &config(), &chaos).unwrap();

        assert!(
            !report.excluded[0],
            "machine 0 was excluded despite retransmission"
        );
        assert!(report.outcome.rates[0] > 0.0);
        assert_eq!(report.retries, 1, "exactly one re-request expected");

        // Same participant set, same measurements: payments match the
        // fault-free run exactly.
        let clean = run_chaos_round(&mech, &specs, &config(), &ChaosConfig::reliable(42)).unwrap();
        assert_eq!(report.outcome.payments, clean.outcome.payments);
        assert_round_invariants(&report, &specs, &chaos);
    }

    #[test]
    fn persistent_silence_exhausts_retries_then_excludes() {
        // Every bid transmission from machine 0 is lost: after the retry
        // budget the coordinator falls back to exclusion.
        let mech = CompensationBonusMechanism::paper();
        let specs = specs();
        let chaos = ChaosConfig {
            plan: FaultPlan {
                lose_bids_from: vec![0],
                ..FaultPlan::none()
            },
            ..ChaosConfig::reliable(42)
        };
        let report = run_chaos_round(&mech, &specs, &config(), &chaos).unwrap();

        assert!(report.excluded[0]);
        assert_eq!(report.outcome.rates[0], 0.0);
        assert_eq!(report.outcome.payments[0], 0.0);
        assert_eq!(
            report.retries,
            u64::from(chaos.bid_retries),
            "full retry budget spent"
        );
        assert_round_invariants(&report, &specs, &chaos);
    }

    #[test]
    fn same_seed_reproduces_the_same_round() {
        let mech = CompensationBonusMechanism::paper();
        let specs = specs();
        let chaos = ChaosConfig::heavy(1234);
        let a = run_chaos_round(&mech, &specs, &config(), &chaos).unwrap();
        let b = run_chaos_round(&mech, &specs, &config(), &chaos).unwrap();
        assert_eq!(a.outcome.payments, b.outcome.payments);
        assert_eq!(a.outcome.stats, b.outcome.stats);
        assert_eq!(a.anomalies, b.anomalies);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn duplicated_frames_are_absorbed_idempotently() {
        // Duplicate every frame: the coordinator must absorb the duplicate
        // bids/acks and the outcome must match the clean run exactly.
        let mech = CompensationBonusMechanism::paper();
        let specs = specs();
        let chaos = ChaosConfig {
            duplicate_prob: 1.0,
            ..ChaosConfig::reliable(3)
        };
        let report = run_chaos_round(&mech, &specs, &config(), &chaos).unwrap();
        let clean = run_chaos_round(&mech, &specs, &config(), &ChaosConfig::reliable(3)).unwrap();
        assert_eq!(report.outcome.payments, clean.outcome.payments);
        assert!(
            report.anomalies.total() > 0,
            "duplicates should surface as anomalies"
        );
        assert!(report.faults.duplicated > 0);
        assert_round_invariants(&report, &specs, &chaos);
    }

    #[test]
    fn fully_corrupted_links_exclude_everything_cleanly() {
        // Every frame corrupt: no bid ever arrives intact, so the round
        // aborts with NeedTwoAgents — an error, never a panic.
        let mech = CompensationBonusMechanism::paper();
        let specs = specs();
        let chaos = ChaosConfig {
            corrupt_prob: 1.0,
            ..ChaosConfig::reliable(3)
        };
        assert!(need_two(&run_chaos_round(&mech, &specs, &config(), &chaos)));
    }

    // Pinned regression: a frame that is not addressed to a node used to
    // panic the node; the event loop now counts it as misrouted.
    #[test]
    fn frames_not_addressed_to_a_node_count_as_misrouted() {
        let mech = CompensationBonusMechanism::paper();
        let specs = specs();
        let mut network = SimNetwork::with_constant_latency(0.001);
        let stray = Message::ShardSum {
            round: RoundId(0),
            shard: 0,
            sum_hi: 1.0,
            sum_lo: 0.0,
        };
        let (from, to) = (Endpoint::Coordinator, Endpoint::Node(0));
        network.send(from, to, &stray, None).unwrap();
        let sim = config().simulation;
        let mut c = Coordinator::try_new(&mech, specs.len(), RATE, RoundId(0), sim).unwrap();
        let mut nodes: Vec<NodeAgent> = (0u32..)
            .zip(&specs)
            .map(|(i, &spec)| NodeAgent::new(i, spec))
            .collect();
        let actual: Vec<f64> = specs.iter().map(|spec| spec.exec_value).collect();
        let opening = c.missing_bids();
        let timers = &mut EventQueue::new();
        let collector = noop_collector();
        let drive = drive_round(
            &mut network,
            timers,
            None,
            &*collector,
            &mut c,
            &mut nodes,
            &actual,
            opening,
        )
        .unwrap();
        assert_eq!(drive.anomalies.misrouted, 1);
        assert_eq!(drive.anomalies.total(), 1);
        assert_eq!(c.phase(), CoordinatorPhase::Done);
    }

    #[test]
    fn invalid_probability_is_rejected() {
        let chaos = ChaosConfig {
            drop_prob: 1.5,
            ..ChaosConfig::reliable(0)
        };
        assert!(matches!(
            ChaosRuntime::new(2, config(), chaos),
            Err(ProtocolError::InvalidConfig {
                what: "drop_prob must be in [0, 1]"
            })
        ));
    }

    #[test]
    fn instrumented_chaotic_round_records_a_replayable_story() {
        use lb_telemetry::{replay_spans, MetricsRegistry, RingCollector};

        // A lost first bid forces a retransmission; heavy chaos on top makes
        // sure drops, duplicates and corruption all appear in the recording.
        let specs = specs();
        let chaos = ChaosConfig {
            plan: FaultPlan {
                lose_bid_attempts: vec![(0, 1)],
                ..FaultPlan::none()
            },
            ..ChaosConfig::heavy(7)
        };
        let ring = Arc::new(RingCollector::new(65_536));
        let mut runtime = ChaosRuntime::new(specs.len(), config(), chaos).unwrap();
        runtime.set_collector(ring.clone());
        let report = run_on(&mut runtime, &specs).unwrap();

        let events = ring.snapshot();
        assert_eq!(ring.overwritten(), 0, "ring too small for the round");

        // The span story replays cleanly: one round span, nested phases.
        let spans = replay_spans(&events).unwrap();
        assert_eq!(spans.iter().filter(|s| s.name == "round").count(), 1);
        assert!(spans
            .iter()
            .any(|s| s.name == "phase.collect_bids" && s.depth == 1));
        assert!(spans
            .iter()
            .any(|s| s.name == "phase.settle" && s.depth == 1));

        // The settle phase ends at the seal, once the payment fan-out has
        // drained: every payment delivery falls inside it.
        let settle = spans.iter().find(|s| s.name == "phase.settle").unwrap();
        let paid: Vec<f64> = events
            .iter()
            .filter(|e| e.name == "node.payment")
            .map(|e| e.at)
            .collect();
        assert!(!paid.is_empty());
        assert!(
            paid.iter().all(|&at| settle.start < at && at <= settle.end),
            "payments at {paid:?} outside phase.settle {}..{}",
            settle.start,
            settle.end
        );

        // Retransmissions and anomalies are visible one-for-one.
        let retransmits = events
            .iter()
            .filter(|e| e.name == "chaos.retransmit")
            .count();
        assert_eq!(retransmits as u64, report.retries);
        let anomaly_instants = events.iter().filter(|e| e.name == "anomaly").count();
        assert_eq!(anomaly_instants as u64, report.anomalies.total());

        // The registry's wire counters agree with the report's statistics.
        let mut reg = MetricsRegistry::new();
        reg.ingest(&events);
        assert_eq!(reg.counter("net.messages"), report.outcome.stats.messages);
        assert_eq!(reg.counter("net.bytes"), report.outcome.stats.bytes);
        assert_eq!(reg.counter("net.fate.dropped"), report.faults.dropped);
        assert_eq!(reg.counter("anomaly.total"), report.anomalies.total());
    }

    #[test]
    fn retransmitted_chaotic_round_stitches_into_one_trace() {
        use lb_telemetry::{replay_spans, EventKind, FieldValue, RingCollector};

        // Machine 0's first bid request is lost; the retransmission carries
        // the same phase.collect_bids context, so its bid span still stitches
        // into the one round trace.
        let specs = specs();
        let n = specs.len();
        let chaos = ChaosConfig {
            plan: FaultPlan {
                lose_bid_attempts: vec![(0, 1)],
                ..FaultPlan::none()
            },
            ..ChaosConfig::reliable(42)
        };
        let ring = Arc::new(RingCollector::new(65_536));
        let mut runtime = ChaosRuntime::new(n, config(), chaos).unwrap();
        runtime.set_collector(ring.clone());
        let report = run_on(&mut runtime, &specs).unwrap();
        assert_eq!(report.retries, 1);

        let events = ring.snapshot();
        let spans = replay_spans(&events).expect("traced chaos recording replays cleanly");

        // The round span advertises the trace id derived from the chaos seed.
        let expected = TraceContext::root(42, 0, true);
        let round_start = events
            .iter()
            .find(|e| e.name == "round" && matches!(e.kind, EventKind::SpanStart { .. }))
            .unwrap();
        #[allow(clippy::cast_possible_truncation)]
        let lo = expected.trace_id as u64;
        assert_eq!(round_start.field("trace_lo"), Some(&FieldValue::U64(lo)));

        let phase_id = |name: &str| {
            spans
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("{name} span recorded"))
                .id
        };
        let collect = phase_id("phase.collect_bids");
        let execute = phase_id("phase.execute");
        let bids: Vec<_> = spans.iter().filter(|s| s.name == "node.bid").collect();
        let execs: Vec<_> = spans.iter().filter(|s| s.name == "node.execute").collect();
        // Every bid request opens a node span: machine 0 answers both the
        // original request (that bid is lost in transit) and the
        // retransmission, so there are n + 1 bid spans — and every one is
        // parented on the matching coordinator phase.
        assert_eq!(bids.len(), n + 1);
        assert_eq!(execs.len(), n);
        assert!(bids.iter().all(|s| s.parent == Some(collect)));
        assert!(execs.iter().all(|s| s.parent == Some(execute)));
        assert_eq!(
            events.iter().filter(|e| e.name == "node.payment").count(),
            n
        );
    }

    #[test]
    fn heavy_chaos_trace_still_replays_cleanly() {
        use lb_telemetry::{replay_spans, RingCollector};

        // Under heavy loss/duplication/corruption some contexts arrive stale
        // (their span already closed). Those must degrade to instants — the
        // recording must replay cleanly for every seed that settles.
        let specs = specs();
        for seed in 0..20u64 {
            let ring = Arc::new(RingCollector::new(65_536));
            let mut runtime =
                ChaosRuntime::new(specs.len(), config(), ChaosConfig::heavy(seed)).unwrap();
            runtime.set_collector(ring.clone());
            match run_on(&mut runtime, &specs) {
                Ok(_) => {
                    let events = ring.snapshot();
                    assert_eq!(ring.overwritten(), 0, "seed {seed}: ring too small");
                    replay_spans(&events)
                        .unwrap_or_else(|e| panic!("seed {seed}: replay failed: {e:?}"));
                }
                result if need_two(&result) => {}
                Err(e) => panic!("seed {seed}: unexpected error {e:?}"),
            }
        }
    }
}
