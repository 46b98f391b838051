//! In-memory simulated network with delay and accounting.
//!
//! Every control message is encoded to its wire form before "transmission",
//! so the statistics measure real bytes; delivery is ordered by a
//! deterministic discrete-event queue with a constant link latency.

use crate::chaos::ChaosNetStats;
use crate::codec::{decode_with_context, encode_with_context};
use crate::coordinator::{ProtocolError, Topology};
use crate::message::Message;
use lb_sim::events::EventQueue;
use lb_sim::time::SimTime;
use lb_telemetry::{noop_collector, Collector, Field, SpanId, Subsystem, TraceContext};
use std::sync::Arc;

/// Network endpoint address: the coordinator or a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// The mechanism centre.
    Coordinator,
    /// Machine `i`.
    Node(u32),
}

impl Endpoint {
    /// Human-readable label (`coordinator` / `node3`) for telemetry fields.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            Endpoint::Coordinator => "coordinator".to_string(),
            Endpoint::Node(i) => format!("node{i}"),
        }
    }

    /// The machine index, for node endpoints.
    #[must_use]
    pub fn node_index(self) -> Option<u32> {
        match self {
            Endpoint::Coordinator => None,
            Endpoint::Node(i) => Some(i),
        }
    }
}

/// Aggregate traffic statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MessageStats {
    /// Number of control messages sent.
    pub messages: u64,
    /// Total encoded bytes sent.
    pub bytes: u64,
}

impl MessageStats {
    /// Counts one sent frame of `len` bytes and, when telemetry is on, the
    /// `net.messages` / `net.bytes` counters at the time `at` reads.
    pub(crate) fn count(&mut self, len: usize, collector: &dyn Collector, at: impl Fn() -> f64) {
        self.messages += 1;
        self.bytes += len as u64;
        if collector.enabled() {
            let at = at();
            collector.counter(at, "net.messages", Subsystem::Network, 1);
            collector.counter(at, "net.bytes", Subsystem::Network, len as u64);
        }
    }
}

/// A delivered frame.
#[derive(Debug, Clone)]
pub struct Delivery {
    /// Sender.
    pub from: Endpoint,
    /// Receiver.
    pub to: Endpoint,
    /// Decoded message.
    pub message: Message,
    /// Simulated delivery time.
    pub at: SimTime,
    /// Trace context carried in the frame's trailer, if the sender attached
    /// one. Rides the wire inside the payload, so it is subject to the same
    /// loss, duplication and corruption as the message itself.
    pub ctx: Option<TraceContext>,
}

/// The fate a chaos injector assigns to a single frame in transit.
///
/// The default fate delivers the frame untouched; an injector can combine
/// loss, duplication, corruption, and jitter on a single frame.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FrameFate {
    /// Lose the frame in transit (sent and counted, never delivered).
    pub drop: bool,
    /// Deliver a second copy of the frame.
    pub duplicate: bool,
    /// Mangle the payload; the corruption is always *detected* on receipt
    /// (a CRC-style link model), surfacing as [`NetPoll::Corrupt`].
    pub corrupt: bool,
    /// Extra delay added to the base link latency (clamped at zero).
    pub extra_delay: f64,
    /// Extra delay for the duplicate copy, if any (clamped at zero).
    pub duplicate_extra_delay: f64,
}

/// Result of polling the network for the next arrival.
#[derive(Debug, Clone)]
pub enum NetPoll {
    /// A frame arrived intact and decoded cleanly.
    Frame(Delivery),
    /// A frame arrived but its payload failed integrity checks; the receiver
    /// discards it (the link model guarantees corruption is detected).
    Corrupt {
        /// Sender of the damaged frame.
        from: Endpoint,
        /// Receiver that detected the damage.
        to: Endpoint,
        /// Simulated arrival time.
        at: SimTime,
    },
}

struct Frame {
    from: Endpoint,
    to: Endpoint,
    payload: Vec<u8>,
    corrupt: bool,
}

/// A per-frame hook consulted on every send.
type FateHook = Box<dyn FnMut(Endpoint, Endpoint, &Message) -> FrameFate>;

/// Deterministic star-topology network between one coordinator and `n` nodes.
pub(crate) struct SimNetwork {
    queue: EventQueue<Frame>,
    latency: f64,
    stats: MessageStats,
    fate_fn: Option<FateHook>,
    dropped: u64,
    duplicated: u64,
    corrupted: u64,
    collector: Arc<dyn Collector>,
}

impl SimNetwork {
    /// Creates a network with a constant per-link latency.
    ///
    /// # Panics
    /// Panics if `latency` is negative or non-finite.
    #[must_use]
    pub(crate) fn with_constant_latency(latency: f64) -> Self {
        assert!(
            latency.is_finite() && latency >= 0.0,
            "SimNetwork: invalid latency"
        );
        Self {
            queue: EventQueue::new(),
            latency,
            stats: MessageStats::default(),
            fate_fn: None,
            dropped: 0,
            duplicated: 0,
            corrupted: 0,
            collector: noop_collector(),
        }
    }

    /// Attaches a telemetry collector. The network then emits a `net.send`
    /// instant per frame (with its fate), `net.deliver` / `net.corrupt`
    /// instants on receipt, and `net.messages` / `net.bytes` counters, all
    /// timestamped on the network's simulated clock.
    pub(crate) fn set_collector(&mut self, collector: Arc<dyn Collector>) {
        self.collector = collector;
    }

    /// Installs a chaos hook deciding the [`FrameFate`] of every frame. The
    /// hook is typically a seeded RNG consumer, so it is `FnMut`; it may be
    /// stateful (e.g. drop only the first `k` attempts).
    pub(crate) fn set_fate_fn(
        &mut self,
        fate: impl FnMut(Endpoint, Endpoint, &Message) -> FrameFate + 'static,
    ) {
        self.fate_fn = Some(Box::new(fate));
    }

    /// Emits the `net.send` instant and the message/byte counters for one
    /// frame, tagging its fate (`delivered` / `dropped` / `corrupted` /
    /// `duplicated`).
    fn note_send(
        &self,
        from: Endpoint,
        to: Endpoint,
        message: &Message,
        bytes: usize,
        fate: &'static str,
    ) {
        if !self.collector.enabled() {
            return;
        }
        let at = self.queue.now().seconds();
        let mut fields = vec![
            Field::str("kind", message.kind_name()),
            Field::str("from", from.label()),
            Field::str("to", to.label()),
            Field::u64("bytes", bytes as u64),
            Field::str("fate", fate),
        ];
        // Star topology: the non-coordinator endpoint identifies the link.
        if let Some(node) = to.node_index().or_else(|| from.node_index()) {
            fields.push(Field::u64("node", u64::from(node)));
        }
        self.collector
            .instant(at, "net.send", Subsystem::Network, fields);
        self.collector
            .counter(at, "net.messages", Subsystem::Network, 1);
        self.collector
            .counter(at, "net.bytes", Subsystem::Network, bytes as u64);
    }
}

/// What carries one round's frames between the coordinator and its
/// machines: the simulated network (reliable, or fault-injecting through a
/// fate hook) or the shard tier of [`crate::shard`]. The round engine
/// ([`crate::chaos`]) is written once against this; the link is also the
/// round's [`Topology`].
pub(crate) trait Link: Topology {
    /// Whether the engine records the coordinator's-eye `RoundTrace` here.
    const TRACED: bool = true;
    /// Notes the coordinator's open phase span ahead of a fan-out.
    fn enter_phase(&mut self, _phase_span: SpanId) {}
    /// The link's clock.
    fn now(&self) -> SimTime;
    /// When the next in-flight frame arrives, if one is in flight.
    fn next_arrival_time(&self) -> Option<SimTime>;
    /// Takes the next arrival, in arrival order.
    fn poll(&mut self) -> Result<Option<NetPoll>, ProtocolError>;
    /// Moves the clock to a timer deadline no later than the next arrival.
    fn advance_to(&mut self, _at: SimTime) {}
    /// Frames in flight.
    fn pending(&self) -> usize;
    /// Sends one frame, stamped with `ctx` when present.
    fn send(
        &mut self,
        from: Endpoint,
        to: Endpoint,
        message: &Message,
        ctx: Option<&TraceContext>,
    ) -> Result<(), ProtocolError>;
    /// Traffic so far.
    fn stats(&self) -> MessageStats;
    /// Link-level fault counters so far: none on a lossless link.
    fn faults(&self) -> ChaosNetStats {
        ChaosNetStats::default()
    }
}

impl Topology for SimNetwork {}

impl Link for SimNetwork {
    fn now(&self) -> SimTime {
        self.queue.now()
    }

    fn next_arrival_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Delivers the next frame in timestamp order, reporting detected
    /// corruption as [`NetPoll::Corrupt`] instead of an error.
    ///
    /// The link model is CRC-style: corruption injected by the chaos hook is
    /// *always* detected at the receiver and never silently accepted, and any
    /// mangled payload that coincidentally still decodes is rejected by the
    /// integrity flag rather than trusted.
    ///
    /// # Errors
    /// Propagates codec errors on frames that were *not* flagged corrupt
    /// (which indicate a bug in the message types, not injected chaos).
    fn poll(&mut self) -> Result<Option<NetPoll>, ProtocolError> {
        match self.queue.pop() {
            None => Ok(None),
            Some((at, frame)) => {
                if frame.corrupt {
                    self.collector.instant(
                        at.seconds(),
                        "net.corrupt",
                        Subsystem::Network,
                        vec![
                            Field::str("from", frame.from.label()),
                            Field::str("to", frame.to.label()),
                        ],
                    );
                    return Ok(Some(NetPoll::Corrupt {
                        from: frame.from,
                        to: frame.to,
                        at,
                    }));
                }
                let (message, ctx): (Message, _) = decode_with_context(&frame.payload)?;
                self.collector.instant(
                    at.seconds(),
                    "net.deliver",
                    Subsystem::Network,
                    vec![
                        Field::str("kind", message.kind_name()),
                        Field::str("from", frame.from.label()),
                        Field::str("to", frame.to.label()),
                    ],
                );
                Ok(Some(NetPoll::Frame(Delivery {
                    from: frame.from,
                    to: frame.to,
                    message,
                    at,
                    ctx,
                })))
            }
        }
    }

    fn advance_to(&mut self, at: SimTime) {
        self.queue.advance_to(at);
    }

    fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Sends `message` with `ctx` embedded in the frame payload as a
    /// trailer when present; without one the wire bytes, statistics and
    /// fault stream are those of an untraced frame.
    fn send(
        &mut self,
        from: Endpoint,
        to: Endpoint,
        message: &Message,
        ctx: Option<&TraceContext>,
    ) -> Result<(), ProtocolError> {
        let payload = encode_with_context(message, ctx);
        let size = payload.len();
        self.stats.messages += 1;
        self.stats.bytes += size as u64;
        let fate = match &mut self.fate_fn {
            Some(fate) => fate(from, to, message),
            None => FrameFate::default(),
        };
        if fate.drop {
            self.dropped += 1;
            self.note_send(from, to, message, size, "dropped");
            return Ok(());
        }
        let payload = if fate.corrupt {
            self.corrupted += 1;
            let mut damaged = payload;
            let mid = damaged.len() / 2;
            damaged[mid] ^= 0x55;
            damaged
        } else {
            payload
        };
        self.note_send(
            from,
            to,
            message,
            size,
            match (fate.corrupt, fate.duplicate) {
                (true, _) => "corrupted",
                (false, true) => "duplicated",
                (false, false) => "delivered",
            },
        );
        let base = self.latency;
        // Only a duplicated frame copies its payload; the original is
        // still scheduled first, so queue tie-breaks are unchanged.
        let duplicate = fate.duplicate.then(|| payload.clone());
        self.queue.schedule_in(
            base + fate.extra_delay.max(0.0),
            Frame {
                from,
                to,
                payload,
                corrupt: fate.corrupt,
            },
        );
        if let Some(payload) = duplicate {
            self.duplicated += 1;
            self.queue.schedule_in(
                base + fate.duplicate_extra_delay.max(0.0),
                Frame {
                    from,
                    to,
                    payload,
                    corrupt: fate.corrupt,
                },
            );
        }
        Ok(())
    }

    fn stats(&self) -> MessageStats {
        self.stats
    }

    fn faults(&self) -> ChaosNetStats {
        ChaosNetStats {
            dropped: self.dropped,
            duplicated: self.duplicated,
            corrupted: self.corrupted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::RoundId;

    fn next_frame(net: &mut SimNetwork) -> Delivery {
        match net.poll().unwrap() {
            Some(NetPoll::Frame(delivery)) => delivery,
            other => panic!("expected an intact frame, got {other:?}"),
        }
    }

    #[test]
    fn messages_flow_and_are_counted() {
        let mut net = SimNetwork::with_constant_latency(0.01);
        let m = Message::RequestBid { round: RoundId(1) };
        net.send(Endpoint::Coordinator, Endpoint::Node(0), &m, None)
            .unwrap();
        net.send(Endpoint::Coordinator, Endpoint::Node(1), &m, None)
            .unwrap();
        assert_eq!(net.pending(), 2);
        assert_eq!(net.stats().messages, 2);
        assert!(net.stats().bytes > 0);

        let d = next_frame(&mut net);
        assert_eq!(d.message, m);
        assert_eq!(d.to, Endpoint::Node(0));
        assert!((d.at.seconds() - 0.01).abs() < 1e-12);
        assert_eq!(net.pending(), 1);
    }

    #[test]
    fn delayed_frame_is_overtaken() {
        // Node 0's frame is delayed in transit; node 1's, sent second,
        // arrives first.
        let mut net = SimNetwork::with_constant_latency(0.001);
        net.set_fate_fn(|_, to, _| FrameFate {
            extra_delay: if to == Endpoint::Node(0) { 0.1 } else { 0.0 },
            ..FrameFate::default()
        });
        let m = Message::RequestBid { round: RoundId(1) };
        net.send(Endpoint::Coordinator, Endpoint::Node(0), &m, None)
            .unwrap();
        net.send(Endpoint::Coordinator, Endpoint::Node(1), &m, None)
            .unwrap();
        let first = next_frame(&mut net);
        assert_eq!(first.to, Endpoint::Node(1));
    }

    #[test]
    fn empty_network_delivers_nothing() {
        let mut net = SimNetwork::with_constant_latency(0.0);
        assert!(net.poll().unwrap().is_none());
    }

    #[test]
    #[should_panic(expected = "invalid latency")]
    fn negative_latency_is_rejected() {
        let _ = SimNetwork::with_constant_latency(-1.0);
    }

    #[test]
    fn fate_drop_loses_the_frame() {
        let mut net = SimNetwork::with_constant_latency(0.01);
        net.set_fate_fn(|_, _, _| FrameFate {
            drop: true,
            ..FrameFate::default()
        });
        let m = Message::RequestBid { round: RoundId(1) };
        net.send(Endpoint::Coordinator, Endpoint::Node(0), &m, None)
            .unwrap();
        assert_eq!(net.pending(), 0);
        assert_eq!(net.faults().dropped, 1);
        assert_eq!(
            net.stats().messages,
            1,
            "dropped frames still count as sent"
        );
    }

    #[test]
    fn fate_duplicate_delivers_two_copies() {
        let mut net = SimNetwork::with_constant_latency(0.01);
        net.set_fate_fn(|_, _, _| FrameFate {
            duplicate: true,
            duplicate_extra_delay: 0.05,
            ..FrameFate::default()
        });
        let m = Message::RequestBid { round: RoundId(1) };
        net.send(Endpoint::Coordinator, Endpoint::Node(0), &m, None)
            .unwrap();
        assert_eq!(net.pending(), 2);
        assert_eq!(net.faults().duplicated, 1);
        assert_eq!(
            net.stats().messages,
            1,
            "duplicates are link noise, not protocol messages"
        );
        let first = next_frame(&mut net);
        let second = next_frame(&mut net);
        assert_eq!(first.message, m);
        assert_eq!(second.message, m);
        assert!(second.at > first.at);
    }

    #[test]
    fn fate_corrupt_is_always_detected() {
        let mut net = SimNetwork::with_constant_latency(0.01);
        net.set_fate_fn(|_, _, _| FrameFate {
            corrupt: true,
            ..FrameFate::default()
        });
        let m = Message::RequestBid { round: RoundId(1) };
        net.send(Endpoint::Coordinator, Endpoint::Node(3), &m, None)
            .unwrap();
        assert_eq!(net.faults().corrupted, 1);
        match net.poll().unwrap().unwrap() {
            NetPoll::Corrupt { to, .. } => assert_eq!(to, Endpoint::Node(3)),
            NetPoll::Frame(d) => panic!("corrupt frame delivered intact: {d:?}"),
        }
    }

    #[test]
    fn fate_jitter_delays_delivery() {
        let mut net = SimNetwork::with_constant_latency(0.01);
        net.set_fate_fn(|_, _, _| FrameFate {
            extra_delay: 0.1,
            ..FrameFate::default()
        });
        let m = Message::RequestBid { round: RoundId(1) };
        net.send(Endpoint::Coordinator, Endpoint::Node(0), &m, None)
            .unwrap();
        let d = next_frame(&mut net);
        assert!((d.at.seconds() - 0.11).abs() < 1e-12);
    }

    #[test]
    fn stateful_fate_hook_can_count_attempts() {
        // Drop only the first attempt per destination; the retry goes through.
        let mut seen = [0u32; 2];
        let mut net = SimNetwork::with_constant_latency(0.01);
        net.set_fate_fn(move |_, to, _| {
            let Endpoint::Node(i) = to else {
                return FrameFate::default();
            };
            seen[i as usize] += 1;
            FrameFate {
                drop: seen[i as usize] == 1,
                ..FrameFate::default()
            }
        });
        let m = Message::RequestBid { round: RoundId(1) };
        net.send(Endpoint::Coordinator, Endpoint::Node(0), &m, None)
            .unwrap();
        assert_eq!(net.pending(), 0);
        net.send(Endpoint::Coordinator, Endpoint::Node(0), &m, None)
            .unwrap();
        assert_eq!(net.pending(), 1);
        assert_eq!(net.faults().dropped, 1);
    }

    #[test]
    fn telemetry_records_sends_fates_and_deliveries() {
        use lb_telemetry::{MetricsRegistry, RingCollector};
        let ring = Arc::new(RingCollector::new(128));
        let mut net = SimNetwork::with_constant_latency(0.01);
        net.set_collector(ring.clone());
        // First frame to a destination is dropped, others delivered; one
        // frame corrupted.
        let mut first = true;
        net.set_fate_fn(move |_, _, _| {
            if first {
                first = false;
                FrameFate {
                    drop: true,
                    ..FrameFate::default()
                }
            } else {
                FrameFate::default()
            }
        });
        let m = Message::RequestBid { round: RoundId(1) };
        net.send(Endpoint::Coordinator, Endpoint::Node(0), &m, None)
            .unwrap();
        net.send(Endpoint::Coordinator, Endpoint::Node(0), &m, None)
            .unwrap();
        net.send(Endpoint::Coordinator, Endpoint::Node(1), &m, None)
            .unwrap();
        while let Some(_poll) = net.poll().unwrap() {}

        let mut reg = MetricsRegistry::new();
        reg.ingest(&ring.snapshot());
        assert_eq!(reg.counter("net.messages"), net.stats().messages);
        assert_eq!(reg.counter("net.bytes"), net.stats().bytes);
        assert_eq!(reg.counter("net.fate.dropped"), net.faults().dropped);
        assert_eq!(reg.counter("net.fate.delivered"), 2);
        let events = ring.snapshot();
        let sends_to = |node: u64| {
            events
                .iter()
                .filter(|e| e.name == "net.send")
                .filter(|e| e.field("node") == Some(&lb_telemetry::FieldValue::U64(node)))
                .count()
        };
        assert_eq!((sends_to(0), sends_to(1)), (2, 1));
        let deliveries = events.iter().filter(|e| e.name == "net.deliver").count();
        assert_eq!(deliveries, 2);
    }

    #[test]
    fn telemetry_flags_detected_corruption() {
        use lb_telemetry::RingCollector;
        let ring = Arc::new(RingCollector::new(32));
        let mut net = SimNetwork::with_constant_latency(0.01);
        net.set_collector(ring.clone());
        net.set_fate_fn(|_, _, _| FrameFate {
            corrupt: true,
            ..FrameFate::default()
        });
        let m = Message::RequestBid { round: RoundId(1) };
        net.send(Endpoint::Coordinator, Endpoint::Node(3), &m, None)
            .unwrap();
        let _ = net.poll().unwrap().unwrap();
        let events = ring.snapshot();
        assert!(events.iter().any(|e| e.name == "net.corrupt"));
        let send = events.iter().find(|e| e.name == "net.send").unwrap();
        assert_eq!(
            send.field("fate"),
            Some(&lb_telemetry::FieldValue::Str("corrupted".into()))
        );
    }

    #[test]
    fn advance_to_interleaves_timers_with_arrivals() {
        let mut net = SimNetwork::with_constant_latency(0.5);
        let m = Message::RequestBid { round: RoundId(1) };
        net.send(Endpoint::Coordinator, Endpoint::Node(0), &m, None)
            .unwrap();
        assert_eq!(net.next_arrival_time(), Some(SimTime::new(0.5)));
        net.advance_to(SimTime::new(0.25));
        assert_eq!(net.now(), SimTime::new(0.25));
        let d = next_frame(&mut net);
        assert_eq!(d.at, SimTime::new(0.5));
    }

    #[test]
    fn trace_context_rides_the_frame_end_to_end() {
        let mut net = SimNetwork::with_constant_latency(0.01);
        let m = Message::RequestBid { round: RoundId(4) };
        let ctx = TraceContext::root(9, 4, true).with_span(17);
        net.send(Endpoint::Coordinator, Endpoint::Node(0), &m, Some(&ctx))
            .unwrap();
        net.send(Endpoint::Coordinator, Endpoint::Node(1), &m, None)
            .unwrap();

        let traced = next_frame(&mut net);
        assert_eq!(traced.message, m);
        assert_eq!(traced.ctx, Some(ctx));
        let plain = next_frame(&mut net);
        assert_eq!(plain.ctx, None, "untraced frames carry no context");
    }

    #[test]
    fn traced_duplicate_copies_both_carry_the_context() {
        let mut net = SimNetwork::with_constant_latency(0.01);
        net.set_fate_fn(|_, _, _| FrameFate {
            duplicate: true,
            duplicate_extra_delay: 0.05,
            ..FrameFate::default()
        });
        let m = Message::RequestBid { round: RoundId(4) };
        let ctx = TraceContext::root(9, 4, true);
        net.send(Endpoint::Coordinator, Endpoint::Node(0), &m, Some(&ctx))
            .unwrap();
        let first = next_frame(&mut net);
        let second = next_frame(&mut net);
        assert_eq!(first.ctx, Some(ctx));
        assert_eq!(second.ctx, Some(ctx), "retransmitted copy keeps the trace");
    }
}
