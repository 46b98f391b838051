//! One protocol round, whatever carries it: [`run_round`].
//!
//! A [`RoundSpec`] names the round — mechanism, machines, configuration —
//! and two orthogonal choices: the [`Transport`] its frames travel over and
//! the [`Observers`] attached to it. Every round runs through the one event
//! loop of [`crate::chaos`], [`Transport::Sharded`]'s two-level topology of
//! [`crate::shard`] included: it collects bids, allocates, executes with
//! verification and settles, and the [`RoundReport`] carries
//! the full accounting plus the message statistics that validate the
//! paper's `O(n)` message claim (exactly `5n` control messages on a
//! reliable single-coordinator round).

use crate::chaos::{ChaosConfig, ChaosNetStats, ChaosRuntime};
use crate::coordinator::{check_width, Coordinator, ProtocolError};
use crate::faults::FaultPlan;
use crate::message::RoundId;
use crate::network::MessageStats;
use crate::node::{NodeAgent, NodeSpec};
use crate::shard::drive_sharded_round;
use crate::trace::{AnomalyStats, RoundTrace};
use lb_mechanism::VerifiedMechanism;
use lb_sim::driver::SimulationConfig;
use lb_telemetry::{noop_collector, Collector, Sampler, TraceContext};
use std::sync::Arc;

/// Configuration of a protocol round.
#[derive(Debug, Clone, Copy)]
pub struct ProtocolConfig {
    /// Total job arrival rate `R`.
    pub total_rate: f64,
    /// Constant per-link network latency (control plane).
    pub link_latency: f64,
    /// Execution-simulation configuration (data plane / verification).
    pub simulation: SimulationConfig,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        Self {
            total_rate: 20.0,
            link_latency: 0.001,
            simulation: SimulationConfig::default(),
        }
    }
}

/// Result of one protocol round.
#[derive(Debug, Clone)]
pub struct ProtocolOutcome {
    /// Per-node assigned rates.
    pub rates: Vec<f64>,
    /// Per-node payments as received by the nodes.
    pub payments: Vec<f64>,
    /// Per-node realised utilities (computed node-side from their actual
    /// execution values).
    pub utilities: Vec<f64>,
    /// Execution values the coordinator estimated (the verification output).
    pub estimated_exec_values: Vec<f64>,
    /// Control-plane traffic statistics.
    pub stats: MessageStats,
}

/// Everything one round produced.
#[derive(Debug, Clone)]
pub struct RoundReport {
    /// The protocol outcome (full width; excluded machines at rate 0,
    /// payment 0).
    pub outcome: ProtocolOutcome,
    /// Which machines ended the round excluded (quarantined up front or
    /// silent through every retry).
    pub excluded: Vec<bool>,
    /// Number of bid re-requests sent (one per missing machine per retry).
    pub retries: u64,
    /// Anomalies absorbed by the coordinator and the link combined.
    pub anomalies: AnomalyStats,
    /// The coordinator's-eye trace of the round: accepted inbound frames at
    /// delivery time, outbound frames at send time, on every
    /// single-coordinator transport (empty for sharded rounds, whose frames
    /// travel between tiers). A reliable round traces one entry per
    /// message.
    pub trace: RoundTrace,
    /// Link-level fault counters for the round.
    pub faults: ChaosNetStats,
}

impl RoundReport {
    /// Reads a settled round off its coordinator. Utilities are node-side
    /// where a machine's agent saw both its assignment and its payment, and
    /// the coordinator's ledger elsewhere (identical by construction;
    /// excluded machines served no jobs, so their utility is their ledger
    /// payment, 0).
    ///
    /// # Errors
    /// Returns [`ProtocolError::MissingState`] if the round has not settled.
    pub(crate) fn settled(
        coordinator: &Coordinator<'_>,
        specs: &[NodeSpec],
        nodes: &[NodeAgent],
        stats: MessageStats,
    ) -> Result<Self, ProtocolError> {
        let missing = |what| ProtocolError::MissingState { what };
        let allocation = coordinator.allocation().ok_or(missing("allocation"))?;
        let payments = coordinator.payments().ok_or(missing("payments"))?.to_vec();
        let estimated = coordinator
            .estimated_exec_values()
            .ok_or(missing("execution estimates"))?
            .to_vec();
        let mechanism = coordinator.mechanism();
        let rates: Vec<f64> = (0..specs.len()).map(|i| allocation.rate(i)).collect();
        let utilities = (0..specs.len())
            .map(|i| {
                let ledger = if rates[i] == 0.0 {
                    payments[i]
                } else {
                    payments[i] + mechanism.valuation(rates[i], specs[i].exec_value)
                };
                nodes
                    .get(i)
                    .and_then(|node| node.utility(mechanism.valuation_model()))
                    .unwrap_or(ledger)
            })
            .collect();
        Ok(Self {
            outcome: ProtocolOutcome {
                rates,
                payments,
                utilities,
                estimated_exec_values: estimated,
                stats,
            },
            excluded: coordinator.excluded().to_vec(),
            retries: 0,
            anomalies: *coordinator.anomalies(),
            trace: RoundTrace::default(),
            faults: ChaosNetStats::default(),
        })
    }
}

/// What carries a round's frames between the coordinator and its machines.
#[derive(Debug, Clone)]
pub enum Transport {
    /// The in-memory simulated network, lossless: no fault injector, no
    /// retry timers. Round traces are rooted at the simulation seed.
    Reliable,
    /// The simulated network under seeded fault injection, with the
    /// retransmission protocol. Round traces are rooted at the chaos seed.
    Chaos(ChaosConfig),
    /// The two-level topology of [`crate::shard`]: a root coordinator over
    /// `shards` shard coordinators (clamped to `1..=n`, so `shards: 1` is
    /// one shard under the root, not the single-coordinator round), each
    /// serving its machines on its own worker thread. Lossless, so it arms
    /// no retry timers; timestamps are wall-clock seconds since the round
    /// started. Round traces are rooted at the simulation seed; the
    /// report's trace is empty.
    Sharded {
        /// Shard count `k`.
        shards: usize,
    },
}

/// Everything attached to a round that observes it without changing it:
/// rates, payments, estimates, exclusions, message statistics and journal
/// bytes are bit-identical with or without observers.
#[derive(Clone)]
pub struct Observers {
    /// Receives the round's spans, frame events and counters. An enabled
    /// collector also turns on wire-propagated tracing: frames carry a
    /// [`lb_telemetry::TraceContext`] trailer and nodes record `node.bid` /
    /// `node.execute` spans parented on the coordinator's phase spans.
    pub collector: Arc<dyn Collector>,
    /// Head-based sampling, decided per round from `(trace seed, round)`:
    /// an unsampled round runs with the noop collector, recording nothing
    /// and putting no trailer on the wire.
    pub sampler: Sampler,
}

impl Default for Observers {
    fn default() -> Self {
        Self {
            collector: noop_collector(),
            sampler: Sampler::Always,
        }
    }
}

impl Observers {
    /// The collector round `round` of a trace rooted at `seed` runs with:
    /// the attached one if the sampler admits it, the noop one otherwise.
    #[must_use]
    pub fn round_collector(&self, seed: u64, round: u64) -> Arc<dyn Collector> {
        if self.sampler.admits(seed, round) {
            Arc::clone(&self.collector)
        } else {
            noop_collector()
        }
    }
}

/// One round to run: see [`run_round`].
#[derive(Clone)]
pub struct RoundSpec<'a> {
    /// The mechanism settling the round.
    pub mechanism: &'a dyn VerifiedMechanism,
    /// Every machine's behaviour.
    pub specs: &'a [NodeSpec],
    /// Rate, link latency and verification simulation.
    pub config: ProtocolConfig,
    /// What carries the frames.
    pub transport: Transport,
    /// What watches the round.
    pub observers: Observers,
}

impl<'a> RoundSpec<'a> {
    /// A single-coordinator round over the reliable transport with no
    /// observers.
    #[must_use]
    pub fn new(
        mechanism: &'a dyn VerifiedMechanism,
        specs: &'a [NodeSpec],
        config: ProtocolConfig,
    ) -> Self {
        Self {
            mechanism,
            specs,
            config,
            transport: Transport::Reliable,
            observers: Observers::default(),
        }
    }
}

/// Runs one round (round id 0) as `spec` describes.
///
/// Every transport settles identically on the same inputs: the reliable
/// network and a fault-free chaos configuration agree bit for bit, and so
/// does the sharded topology on its worker threads for every `k`.
///
/// # Errors
/// Returns [`ProtocolError::MissingState`] for an empty `specs`,
/// [`ProtocolError::TooManyNodes`] beyond the `u32` wire width, and
/// [`ProtocolError::InvalidConfig`] for an invalid chaos configuration or
/// link latency. Otherwise propagates mechanism, simulation and codec errors —
/// notably [`lb_mechanism::MechanismError::NeedTwoAgents`] when fewer than
/// two machines' bids survive.
pub fn run_round(spec: &RoundSpec<'_>) -> Result<RoundReport, ProtocolError> {
    let n = spec.specs.len();
    check_width(n)?;
    let seed = match &spec.transport {
        Transport::Chaos(chaos) => chaos.seed,
        Transport::Reliable | Transport::Sharded { .. } => spec.config.simulation.seed,
    };
    let collector = spec.observers.round_collector(seed, 0);
    let mut runtime = match &spec.transport {
        Transport::Reliable => ChaosRuntime::reliable(n, spec.config)?,
        Transport::Chaos(chaos) => ChaosRuntime::new(n, spec.config, chaos.clone())?,
        Transport::Sharded { shards } => {
            // The root's trace is rooted at the simulation seed (inert
            // unless the collector is enabled).
            let (rate, sim) = (spec.config.total_rate, spec.config.simulation);
            let mut root = Coordinator::try_new(spec.mechanism, n, rate, RoundId(0), sim)?
                .with_trace(TraceContext::root(seed, 0, true))
                .with_collector(collector);
            return drive_sharded_round(
                &mut root,
                spec.specs,
                &spec.config,
                *shards,
                &FaultPlan::none(),
            )
            .map(|(report, _)| report);
        }
    };
    runtime.set_collector(collector);
    let active = vec![true; n];
    let (report, _) = runtime.run_round(spec.mechanism, spec.specs, RoundId(0), &active, None)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosRuntime;
    use lb_core::scenario::{paper_true_values, PAPER_ARRIVAL_RATE};
    use lb_mechanism::{CompensationBonusMechanism, MechanismError};
    use lb_sim::server::ServiceModel;
    use lb_telemetry::{replay_spans, MetricsRegistry, RingCollector};

    fn config() -> ProtocolConfig {
        ProtocolConfig {
            total_rate: PAPER_ARRIVAL_RATE,
            link_latency: 0.001,
            simulation: SimulationConfig {
                horizon: 300.0,
                seed: 3,
                model: ServiceModel::StationaryDeterministic,
                workload: Default::default(),
                warmup: 0.0,
                estimator: lb_sim::estimator::EstimatorConfig::default(),
            },
        }
    }

    fn paper_specs() -> Vec<NodeSpec> {
        paper_true_values()
            .iter()
            .map(|&t| NodeSpec::truthful(t))
            .collect()
    }

    fn reliable(specs: &[NodeSpec]) -> RoundReport {
        let mech = CompensationBonusMechanism::paper();
        run_round(&RoundSpec::new(&mech, specs, config())).unwrap()
    }

    #[test]
    fn reliable_round_trace_passes_replay_check() {
        let specs = paper_specs();
        let report = reliable(&specs);
        assert_eq!(
            report.trace.entries.len() as u64,
            report.outcome.stats.messages
        );
        let violations = crate::trace::replay_check(&report.trace, specs.len());
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(report.retries, 0);
        assert_eq!(report.anomalies.total(), 0);
    }

    #[test]
    fn reliable_round_trace_is_the_coordinators_view() {
        use crate::message::Message;
        use crate::network::Endpoint;
        let specs = paper_specs();
        let n = specs.len();
        let entries = reliable(&specs).trace.entries;
        let latency = config().link_latency;
        // Bid requests enter at their send time, bids at their delivery
        // time one round trip later.
        let requests: Vec<_> = entries
            .iter()
            .filter(|e| matches!(e.message, Message::RequestBid { .. }))
            .collect();
        let bids: Vec<_> = entries
            .iter()
            .filter(|e| matches!(e.message, Message::Bid { .. }))
            .collect();
        assert_eq!((requests.len(), bids.len()), (n, n));
        assert!(requests
            .iter()
            .all(|e| e.at == 0.0 && e.from == Endpoint::Coordinator));
        assert!(bids
            .iter()
            .all(|e| e.at == 2.0 * latency && e.to == Endpoint::Coordinator));
        assert!(entries.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn observed_round_replays_cleanly_and_matches_the_wire_stats() {
        let mech = CompensationBonusMechanism::paper();
        let specs = paper_specs();
        let ring = Arc::new(RingCollector::new(16_384));
        let spec = RoundSpec {
            observers: Observers {
                collector: ring.clone(),
                ..Observers::default()
            },
            ..RoundSpec::new(&mech, &specs, config())
        };
        let report = run_round(&spec).unwrap();

        let events = ring.snapshot();
        let spans = replay_spans(&events).expect("recording replays cleanly");
        assert_eq!(spans.iter().filter(|s| s.name == "round").count(), 1);
        for phase in [
            "phase.collect_bids",
            "phase.allocate",
            "phase.execute",
            "phase.settle",
        ] {
            assert!(
                spans.iter().any(|s| s.name == phase && s.depth == 1),
                "missing {phase}"
            );
        }

        // Wire-propagated context: every node's bid and execution work is a
        // span parented on the coordinator's matching phase span.
        let n = specs.len();
        let collect = spans
            .iter()
            .find(|s| s.name == "phase.collect_bids")
            .unwrap()
            .id;
        let execute = spans.iter().find(|s| s.name == "phase.execute").unwrap().id;
        let bids: Vec<_> = spans.iter().filter(|s| s.name == "node.bid").collect();
        let execs: Vec<_> = spans.iter().filter(|s| s.name == "node.execute").collect();
        assert_eq!(bids.len(), n);
        assert_eq!(execs.len(), n);
        assert!(bids.iter().all(|s| s.parent == Some(collect)));
        assert!(execs.iter().all(|s| s.parent == Some(execute)));
        assert_eq!(
            events.iter().filter(|e| e.name == "node.payment").count(),
            n
        );

        let mut reg = MetricsRegistry::new();
        reg.ingest(&events);
        assert_eq!(reg.counter("net.messages"), report.outcome.stats.messages);
        assert_eq!(reg.counter("net.bytes"), report.outcome.stats.bytes);
        assert_eq!(
            report.trace.entries.len() as u64,
            report.outcome.stats.messages
        );
        // Reliable network: nothing dropped, nothing anomalous.
        assert_eq!(reg.counter("net.fate.dropped"), 0);
        assert_eq!(reg.counter("anomaly.total"), 0);
    }

    #[test]
    fn strategic_node_is_detected_and_penalized() {
        let mut specs = paper_specs();
        let honest = reliable(&specs).outcome;

        // C1 bids truthfully but executes twice as slow (paper's True2).
        specs[0] = NodeSpec::strategic(1.0, 1.0, 2.0);
        let lazy = reliable(&specs).outcome;
        assert!(
            (lazy.estimated_exec_values[0] - 2.0).abs() < 1e-9,
            "laziness not detected"
        );
        assert!(
            lazy.payments[0] < honest.payments[0],
            "laziness not penalized"
        );
        assert!(
            lazy.utilities[0] < honest.utilities[0],
            "laziness profitable"
        );
    }

    #[test]
    fn unsampled_rounds_run_with_the_noop_collector() {
        let observers = Observers {
            collector: Arc::new(RingCollector::new(16)),
            sampler: Sampler::Never,
        };
        assert!(!observers.round_collector(1, 0).enabled());
        let sampled = Observers {
            sampler: Sampler::Always,
            ..observers
        };
        assert!(sampled.round_collector(1, 0).enabled());
    }

    #[test]
    fn empty_specs_are_a_typed_error() {
        let mech = CompensationBonusMechanism::paper();
        for transport in [
            Transport::Reliable,
            Transport::Chaos(ChaosConfig::reliable(1)),
            Transport::Sharded { shards: 3 },
        ] {
            let spec = RoundSpec {
                transport,
                ..RoundSpec::new(&mech, &[], config())
            };
            assert!(matches!(
                run_round(&spec),
                Err(ProtocolError::MissingState { .. })
            ));
        }
    }

    #[test]
    fn invalid_chaos_config_is_a_typed_error() {
        let mech = CompensationBonusMechanism::paper();
        let specs = paper_specs();
        let chaos = ChaosConfig {
            drop_prob: 1.5,
            ..ChaosConfig::reliable(0)
        };
        let spec = RoundSpec {
            transport: Transport::Chaos(chaos.clone()),
            ..RoundSpec::new(&mech, &specs, config())
        };
        assert!(matches!(
            run_round(&spec),
            Err(ProtocolError::InvalidConfig {
                what: "drop_prob must be in [0, 1]"
            })
        ));
        assert!(matches!(
            ChaosRuntime::new(specs.len(), config(), chaos),
            Err(ProtocolError::InvalidConfig { .. })
        ));
        let mut bad_latency = config();
        bad_latency.link_latency = -1.0;
        assert!(matches!(
            run_round(&RoundSpec::new(&mech, &specs, bad_latency)),
            Err(ProtocolError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn timeouts_within_one_round_trip_are_a_typed_error() {
        let mech = CompensationBonusMechanism::paper();
        let specs = paper_specs();
        let mut slow = config();
        slow.link_latency = 0.025; // one round trip = the 0.05 s retry timeout
        let short_exec = ChaosConfig {
            exec_timeout: 2.0 * config().link_latency,
            ..ChaosConfig::reliable(0)
        };
        for (protocol, chaos) in [(slow, ChaosConfig::reliable(0)), (config(), short_exec)] {
            assert!(matches!(
                ChaosRuntime::new(specs.len(), protocol, chaos.clone()),
                Err(ProtocolError::InvalidConfig { .. })
            ));
            let spec = RoundSpec {
                transport: Transport::Chaos(chaos),
                ..RoundSpec::new(&mech, &specs, protocol)
            };
            assert!(matches!(
                run_round(&spec),
                Err(ProtocolError::InvalidConfig { .. })
            ));
        }
        // The reliable transport arms no timers, so it has no such bound.
        assert!(run_round(&RoundSpec::new(&mech, &specs, slow)).is_ok());
    }

    #[test]
    fn oversized_round_is_a_typed_error() {
        // Checked before any per-machine state is allocated.
        let n = u32::MAX as usize + 1;
        assert!(matches!(
            ChaosRuntime::new(n, config(), ChaosConfig::reliable(0)),
            Err(ProtocolError::TooManyNodes { n: got }) if got == n
        ));
    }

    #[test]
    fn length_mismatches_are_typed_errors_and_leave_the_runtime_unchanged() {
        let mech = CompensationBonusMechanism::paper();
        let specs = paper_specs();
        let n = specs.len();
        let fresh = || ChaosRuntime::new(n, config(), ChaosConfig::heavy(5)).unwrap();
        let mismatch = |e: ProtocolError| {
            matches!(
                e,
                ProtocolError::Mechanism(MechanismError::Core(
                    lb_core::CoreError::LengthMismatch { .. }
                ))
            )
        };

        let mut runtime = fresh();
        let active = vec![true; n];
        let short_specs = runtime.run_round(&mech, &specs[1..], RoundId(0), &active, None);
        assert!(mismatch(short_specs.unwrap_err()));
        let short_active = runtime.run_round(&mech, &specs, RoundId(0), &active[1..], None);
        assert!(mismatch(short_active.unwrap_err()));

        // The failed calls left no trace: the next round is exactly the one
        // a fresh runtime would run.
        let (after, _) = runtime
            .run_round(&mech, &specs, RoundId(0), &active, None)
            .unwrap();
        let mut clean_runtime = fresh();
        let (clean, _) = clean_runtime
            .run_round(&mech, &specs, RoundId(0), &active, None)
            .unwrap();
        assert_eq!(after.outcome.payments, clean.outcome.payments);
        assert_eq!(after.outcome.stats, clean.outcome.stats);
        assert_eq!(after.trace, clean.trace);
        assert_eq!(after.faults, clean.faults);
        assert_eq!(runtime.now(), clean_runtime.now());
    }
}
