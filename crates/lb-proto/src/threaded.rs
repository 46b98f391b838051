//! The OS-thread transport: real concurrency, identical outcomes.
//!
//! Each machine runs on its own scoped OS thread and talks to the
//! coordinator over `std::sync::mpsc` channels carrying *encoded* frames.
//! The coordinator runs the one round engine ([`crate::chaos`]) on the
//! calling thread — its state machine is sequential by design — so the
//! outcome is bit-identical to the simulated transports while the transport
//! is genuinely concurrent. Channels cannot lose frames, so the round arms
//! no retry timers.
//!
//! # Distributed tracing
//!
//! When a sampled round runs with a collector attached, every coordinator
//! frame carries a [`lb_telemetry::TraceContext`] trailer naming the
//! currently open phase span, and node threads continue that trace through
//! the same node handler the simulated network uses, so one round stitches
//! into a single trace across all threads. The parent is always still open
//! when a node span starts: the coordinator records a phase span *before*
//! sending the phase's frames and closes it only *after* receiving the
//! replies the nodes record their spans ahead of.

use crate::chaos::drive_round;
use crate::codec::{decode_with_context, encode_with_context, CodecError};
use crate::coordinator::{ProtocolError, Topology};
use crate::message::Message;
use crate::network::{codec_error, Delivery, Endpoint, Link, MessageStats, NetPoll};
use crate::node::{NodeAgent, NodeSpec};
use crate::runtime::{RoundReport, RoundSpec};
use lb_mechanism::MechanismError;
use lb_sim::events::EventQueue;
use lb_sim::time::SimTime;
use lb_telemetry::{Collector, TraceContext};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::{Builder, Scope, ScopedJoinHandle};
use std::time::Instant;

fn chan_err(context: &str) -> MechanismError {
    MechanismError::Core(lb_core::CoreError::Infeasible {
        reason: format!("protocol channel closed: {context}"),
    })
}

/// A frame on the shared node → coordinator lane; a worker that cannot
/// decode its inbound frame reports the codec error instead of panicking.
type NodeFrame = (u32, Result<Vec<u8>, CodecError>);

/// The channel transport: one lane down to each node thread, one shared
/// lane back up. Every frame is counted on the coordinator's side as it is
/// sent or received.
struct ThreadLink<'scope> {
    to_nodes: Vec<Sender<Vec<u8>>>,
    from_nodes: Receiver<NodeFrame>,
    workers: Vec<ScopedJoinHandle<'scope, NodeAgent>>,
    /// Replies still owed: one per bid request and per assignment sent.
    awaiting: usize,
    stats: MessageStats,
    collector: Arc<dyn Collector>,
    epoch: Instant,
}

impl<'scope> ThreadLink<'scope> {
    /// Spawns one worker per machine, each serving its frames until its
    /// lane closes and then handing its agent back.
    ///
    /// # Errors
    /// Returns [`ProtocolError::ThreadRefused`] when the OS refuses a
    /// thread; the lanes already opened close as it returns.
    fn spawn(
        scope: &'scope Scope<'scope, '_>,
        specs: &[NodeSpec],
        collector: &Arc<dyn Collector>,
        epoch: Instant,
    ) -> Result<Self, ProtocolError> {
        let (to_coord, from_nodes) = channel::<NodeFrame>();
        let mut to_nodes = Vec::with_capacity(specs.len());
        let mut workers = Vec::with_capacity(specs.len());
        for (machine, &spec) in (0u32..).zip(specs) {
            let (tx, rx) = channel::<Vec<u8>>();
            to_nodes.push(tx);
            let to_coord = to_coord.clone();
            let collector = Arc::clone(collector);
            let worker = Builder::new().spawn_scoped(scope, move || {
                let mut agent = NodeAgent::new(machine, spec);
                let now = || epoch.elapsed().as_secs_f64();
                while let Ok(frame) = rx.recv() {
                    let reply = match decode_with_context::<Message>(&frame) {
                        Ok((message, ctx)) => agent
                            .serve(&message, ctx, &*collector, now, |_| true)
                            .map(|(reply, child)| Ok(encode_with_context(&reply, child.as_ref()))),
                        Err(e) => Some(Err(e)),
                    };
                    let Some(reply) = reply else { continue };
                    let corrupt = reply.is_err();
                    // A closed lane means the coordinator returned early.
                    if to_coord.send((machine, reply)).is_err() || corrupt {
                        break;
                    }
                }
                agent
            });
            // Returning early drops the lanes already opened, so their
            // workers exit and the enclosing scope joins them.
            let refused = |_| ProtocolError::ThreadRefused {
                worker: machine as usize,
            };
            workers.push(worker.map_err(refused)?);
        }
        Ok(Self {
            to_nodes,
            from_nodes,
            workers,
            awaiting: 0,
            stats: MessageStats::default(),
            collector: Arc::clone(collector),
            epoch,
        })
    }

    fn count(&mut self, payload: &[u8]) {
        let epoch = self.epoch;
        let at = || epoch.elapsed().as_secs_f64();
        self.stats.count(payload.len(), &*self.collector, at);
    }

    /// Closes every lane and joins the workers, returning their agents.
    fn finish(self) -> Result<Vec<NodeAgent>, ProtocolError> {
        drop(self.to_nodes);
        self.workers
            .into_iter()
            .map(|worker| {
                worker
                    .join()
                    .map_err(|_| ProtocolError::from(chan_err("node thread panicked")))
            })
            .collect()
    }
}

impl Topology for ThreadLink<'_> {}

impl Link for ThreadLink<'_> {
    fn now(&self) -> SimTime {
        SimTime::new(self.epoch.elapsed().as_secs_f64())
    }

    fn next_arrival_time(&self) -> Option<SimTime> {
        (self.awaiting > 0).then(|| self.now())
    }

    fn poll(&mut self) -> Result<Option<NetPoll>, ProtocolError> {
        if self.awaiting == 0 {
            return Ok(None);
        }
        let (machine, frame) = self
            .from_nodes
            .recv()
            .map_err(|_| chan_err("all nodes hung up"))?;
        let frame = frame.map_err(codec_error)?;
        self.awaiting -= 1;
        self.count(&frame);
        let (message, ctx): (Message, Option<TraceContext>) =
            decode_with_context(&frame).map_err(codec_error)?;
        Ok(Some(NetPoll::Frame(Delivery {
            from: Endpoint::Node(machine),
            to: Endpoint::Coordinator,
            message,
            at: self.now(),
            ctx,
        })))
    }

    fn pending(&self) -> usize {
        self.awaiting
    }

    fn send(
        &mut self,
        _from: Endpoint,
        to: Endpoint,
        message: &Message,
        ctx: Option<&TraceContext>,
    ) -> Result<(), ProtocolError> {
        let lane = to
            .node_index()
            .and_then(|i| self.to_nodes.get(i as usize))
            .ok_or_else(|| chan_err("no lane to the receiver"))?
            .clone();
        let payload = encode_with_context(message, ctx);
        self.count(&payload);
        if matches!(message, Message::RequestBid { .. } | Message::Assign { .. }) {
            self.awaiting += 1;
        }
        lane.send(payload)
            .map_err(|_| chan_err("node hung up").into())
    }

    fn stats(&self) -> MessageStats {
        self.stats
    }
}

/// Runs `spec`'s round with every machine on its own thread. The round's
/// trace is rooted at the simulation seed.
///
/// Errors surface as `Err` — a codec failure on any thread, or a channel
/// closed by an early error — and the worker threads shut down cleanly in
/// every error path rather than panicking or deadlocking.
pub(crate) fn run_threaded(
    spec: &RoundSpec<'_>,
    collector: Arc<dyn Collector>,
) -> Result<RoundReport, ProtocolError> {
    let mut coordinator = spec.root(Arc::clone(&collector))?;
    let opening = coordinator.missing_bids();
    let actual_exec: Vec<f64> = spec.specs.iter().map(|s| s.exec_value).collect();
    let epoch = Instant::now();
    std::thread::scope(|scope| {
        let mut link = ThreadLink::spawn(scope, spec.specs, &collector, epoch)?;
        coordinator.set_now(epoch.elapsed().as_secs_f64());
        let drive = drive_round(
            &mut link,
            &mut EventQueue::new(),
            None,
            &*collector,
            &mut coordinator,
            &mut [],
            &actual_exec,
            opening,
            false,
        )
        .inspect_err(|_| coordinator.end_telemetry())?;
        let nodes = link.finish()?;
        drive.report(&coordinator, spec.specs, &nodes)
    })
}

#[cfg(test)]
mod tests {
    use crate::node::NodeSpec;
    use crate::runtime::{
        run_round, Observers, ProtocolConfig, ProtocolOutcome, RoundSpec, Transport,
    };
    use lb_core::scenario::{paper_true_values, PAPER_ARRIVAL_RATE};
    use lb_mechanism::CompensationBonusMechanism;
    use lb_sim::driver::SimulationConfig;
    use lb_sim::server::ServiceModel;
    use lb_telemetry::{
        replay_spans, EventKind, FieldValue, MetricsRegistry, RingCollector, Sampler, TraceContext,
    };
    use std::sync::Arc;

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

    /// One threaded round watched by `observers`.
    fn threaded(specs: &[NodeSpec], cfg: ProtocolConfig, observers: Observers) -> ProtocolOutcome {
        let mech = CompensationBonusMechanism::paper();
        let spec = RoundSpec {
            transport: Transport::Threads,
            observers,
            ..RoundSpec::new(&mech, specs, cfg)
        };
        run_round(&spec).unwrap().outcome
    }

    fn ring_observers(ring: &Arc<RingCollector>, sampler: Sampler) -> Observers {
        Observers {
            collector: ring.clone(),
            sampler,
        }
    }

    #[test]
    fn mechanism_error_shuts_down_workers_cleanly() {
        // An invalid total rate makes allocation fail once the last bid is
        // in. The error must surface as `Err` — not a panic, and not a
        // deadlock waiting on worker threads.
        let mech = CompensationBonusMechanism::paper();
        let specs: Vec<NodeSpec> = vec![NodeSpec::truthful(1.0), NodeSpec::truthful(2.0)];
        let mut cfg = config();
        cfg.total_rate = -1.0;
        let spec = RoundSpec {
            transport: Transport::Threads,
            ..RoundSpec::new(&mech, &specs, cfg)
        };
        assert!(run_round(&spec).is_err());
    }

    #[test]
    fn observed_threaded_round_records_replayable_spans() {
        let ring = Arc::new(RingCollector::new(16_384));
        let outcome = threaded(
            &paper_specs(),
            config(),
            ring_observers(&ring, Sampler::Always),
        );

        // The coordinator's sequential spans replay cleanly around the node
        // threads' concurrent events.
        let events = ring.snapshot();
        let spans = replay_spans(&events).expect("recording replays cleanly");
        assert_eq!(spans.iter().filter(|s| s.name == "round").count(), 1);
        assert!(spans.iter().any(|s| s.name == "phase.settle"));

        let mut reg = MetricsRegistry::new();
        reg.ingest(&events);
        assert_eq!(reg.counter("net.messages"), outcome.stats.messages);
        assert_eq!(reg.counter("net.bytes"), outcome.stats.bytes);
    }

    #[test]
    fn traced_threaded_round_stitches_one_trace_across_all_nodes() {
        use std::collections::BTreeSet;
        let specs = paper_specs();
        let n = specs.len();
        let ring = Arc::new(RingCollector::new(16_384));
        threaded(&specs, config(), ring_observers(&ring, Sampler::Always));

        let events = ring.snapshot();
        let spans = replay_spans(&events).expect("traced recording replays cleanly");

        // The round span advertises the deterministic trace id.
        let expected = TraceContext::root(config().simulation.seed, 0, true);
        let round_start = events
            .iter()
            .find(|e| e.name == "round" && matches!(e.kind, EventKind::SpanStart { .. }))
            .expect("round span recorded");
        #[allow(clippy::cast_possible_truncation)]
        let lo = expected.trace_id as u64;
        let hi = (expected.trace_id >> 64) as u64;
        assert_eq!(round_start.field("trace_lo"), Some(&FieldValue::U64(lo)));
        assert_eq!(round_start.field("trace_hi"), Some(&FieldValue::U64(hi)));

        // Every node contributed a bid span and an execute span, parented on
        // the coordinator's matching phase span — one stitched trace.
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
        assert_eq!(bids.len(), n, "one bid span per node");
        assert_eq!(execs.len(), n, "one execute span per node");
        assert!(bids.iter().all(|s| s.parent == Some(collect)));
        assert!(execs.iter().all(|s| s.parent == Some(execute)));

        // All n distinct machines participated (not one node recorded n times),
        // and every one acknowledged its payment.
        let machines: BTreeSet<u64> = events
            .iter()
            .filter(|e| e.name == "node.bid")
            .filter_map(|e| match e.field("machine") {
                Some(&FieldValue::U64(m)) => Some(m),
                _ => None,
            })
            .collect();
        assert_eq!(machines.len(), n);
        assert_eq!(
            events.iter().filter(|e| e.name == "node.payment").count(),
            n
        );
    }
}
