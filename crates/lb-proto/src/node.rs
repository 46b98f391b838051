//! Node-side behaviour.
//!
//! A node is a machine participating in the protocol. Its *behaviour* is the
//! pair (bid, execution value); strategic reasoning about how to choose them
//! lives in `lb-agents` — the protocol layer only needs the chosen values.

use crate::message::Message;
use lb_telemetry::{Collector, Field, SpanId, Subsystem, TraceContext};

/// Static behaviour specification of one node for one round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSpec {
    /// The machine's private true value `t_i`.
    pub true_value: f64,
    /// The bid it will report, `b_i`.
    pub bid: f64,
    /// The execution value it will realise, `t̃_i ≥ t_i`.
    pub exec_value: f64,
}

impl NodeSpec {
    /// A truthful node: bids its true value and executes at full capacity.
    ///
    /// # Panics
    /// Panics unless `true_value` is finite and positive.
    #[must_use]
    pub fn truthful(true_value: f64) -> Self {
        assert!(
            true_value.is_finite() && true_value > 0.0,
            "NodeSpec: invalid true value"
        );
        Self {
            true_value,
            bid: true_value,
            exec_value: true_value,
        }
    }

    /// A strategic node with explicit bid and execution values.
    ///
    /// # Panics
    /// Panics on invalid values or `exec_value < true_value` (machines
    /// cannot run faster than their capacity).
    #[must_use]
    pub fn strategic(true_value: f64, bid: f64, exec_value: f64) -> Self {
        assert!(
            true_value.is_finite() && true_value > 0.0,
            "NodeSpec: invalid true value"
        );
        assert!(bid.is_finite() && bid > 0.0, "NodeSpec: invalid bid");
        assert!(
            exec_value.is_finite() && exec_value >= true_value,
            "NodeSpec: exec value must be >= true value"
        );
        Self {
            true_value,
            bid,
            exec_value,
        }
    }

    /// Whether this node is fully truthful.
    #[must_use]
    pub fn is_truthful(&self) -> bool {
        (self.bid - self.true_value).abs() < 1e-12
            && (self.exec_value - self.true_value).abs() < 1e-12
    }
}

/// Runtime state of a node inside one protocol round.
#[derive(Debug, Clone)]
pub struct NodeAgent {
    /// Machine index.
    pub machine: u32,
    /// Behaviour for this round.
    pub spec: NodeSpec,
    /// Assigned rate, once the coordinator's `Assign` arrives.
    pub assigned_rate: Option<f64>,
    /// Payment received, once `Payment` arrives.
    pub payment: Option<f64>,
}

impl NodeAgent {
    /// Creates a node agent.
    #[must_use]
    pub fn new(machine: u32, spec: NodeSpec) -> Self {
        Self {
            machine,
            spec,
            assigned_rate: None,
            payment: None,
        }
    }

    /// Handles an incoming coordinator message, possibly producing a reply.
    /// A node-originated or shard-control message is not addressed to a
    /// node: it is ignored and gets no reply (the event loop counts it as
    /// [`crate::trace::Anomaly::Misrouted`]).
    pub fn handle(&mut self, message: &Message) -> Option<Message> {
        match *message {
            Message::RequestBid { round } => Some(Message::Bid {
                round,
                machine: self.machine,
                value: self.spec.bid,
            }),
            Message::Assign { round, rate } => {
                self.assigned_rate = Some(rate);
                // Execution itself is simulated by the coordinator's
                // measurement plane; the node just acknowledges completion.
                Some(Message::ExecutionDone {
                    round,
                    machine: self.machine,
                })
            }
            Message::Payment { amount, .. } => {
                // First write wins: a settle fan-out can reach the node more
                // than once (chaos duplication, or a recovered coordinator
                // re-sending from its durable ledger), and the duplicate
                // must not re-apply — the ledger already holds exactly one
                // payment per round.
                if self.payment.is_none() {
                    self.payment = Some(amount);
                }
                None
            }
            Message::Bid { .. }
            | Message::ExecutionDone { .. }
            | Message::ShardSum { .. }
            | Message::ShardEstimates { .. } => None,
        }
    }

    /// Serves one coordinator frame as a traced node — the node side of
    /// the simulated network.
    ///
    /// Continues the trace the frame carried: the work is recorded as a
    /// `node.bid` / `node.execute` span parented on the span named in the
    /// frame's context (a `node.payment` instant for a payment), closed
    /// before the reply leaves, and the reply is stamped with the child
    /// context. A context naming any span but the coordinator's open
    /// `phase_span` (a duplicate straggling past a phase transition)
    /// degrades to an instant so the recording still replays cleanly.
    /// Everything is stamped `at`. Unsampled frames, or a disabled
    /// collector, record nothing and reply without a context.
    pub(crate) fn serve(
        &mut self,
        message: &Message,
        ctx: Option<TraceContext>,
        collector: &dyn Collector,
        at: f64,
        phase_span: SpanId,
    ) -> Option<(Message, Option<TraceContext>)> {
        let ctx = ctx.filter(|c| c.sampled && collector.enabled());
        let span = ctx.map_or(SpanId::NULL, |c| {
            let fields = vec![Field::u64("machine", u64::from(self.machine))];
            let name = match message {
                Message::RequestBid { .. } => "node.bid",
                Message::Assign { .. } => "node.execute",
                Message::Payment { .. } => {
                    collector.instant(at, "node.payment", Subsystem::Node, fields);
                    return SpanId::NULL;
                }
                _ => return SpanId::NULL,
            };
            let parent = SpanId(c.span_id);
            if parent.is_null() || parent != phase_span {
                collector.instant(at, name, Subsystem::Node, fields);
                return SpanId::NULL;
            }
            collector.span_start_in(at, name, Subsystem::Node, parent, fields)
        });
        let reply = self.handle(message);
        if !span.is_null() {
            // Close before replying: the parent phase span cannot end until
            // the reply arrives, so child spans always nest inside it.
            collector.span_end(at, span);
        }
        let child = ctx.filter(|_| !span.is_null()).map(|c| c.with_span(span.0));
        reply.map(|reply| (reply, child))
    }

    /// The node's realised utility for a finished round: payment plus its
    /// valuation under the given model.
    #[must_use]
    pub fn utility(&self, model: lb_mechanism::traits::ValuationModel) -> Option<f64> {
        let p = self.payment?;
        let x = self.assigned_rate?;
        Some(p + model.valuation(x, self.spec.exec_value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::RoundId;
    use lb_mechanism::traits::ValuationModel;

    #[test]
    fn truthful_spec() {
        let s = NodeSpec::truthful(2.0);
        assert!(s.is_truthful());
        assert_eq!(s.bid, 2.0);
        assert_eq!(s.exec_value, 2.0);
    }

    #[test]
    fn strategic_spec_validation() {
        let s = NodeSpec::strategic(1.0, 3.0, 2.0);
        assert!(!s.is_truthful());
        assert_eq!(s.bid, 3.0);
    }

    #[test]
    #[should_panic(expected = "exec value must be >= true value")]
    fn exec_below_truth_panics() {
        let _ = NodeSpec::strategic(2.0, 2.0, 1.0);
    }

    #[test]
    fn node_replies_to_protocol_messages() {
        let mut node = NodeAgent::new(3, NodeSpec::truthful(2.0));
        let round = RoundId(5);
        let bid = node.handle(&Message::RequestBid { round }).unwrap();
        assert_eq!(
            bid,
            Message::Bid {
                round,
                machine: 3,
                value: 2.0
            }
        );

        let done = node.handle(&Message::Assign { round, rate: 1.5 }).unwrap();
        assert_eq!(done, Message::ExecutionDone { round, machine: 3 });
        assert_eq!(node.assigned_rate, Some(1.5));

        assert!(node
            .handle(&Message::Payment { round, amount: 7.0 })
            .is_none());
        assert_eq!(node.payment, Some(7.0));

        let u = node.utility(ValuationModel::PerJobLatency).unwrap();
        assert!((u - (7.0 - 2.0 * 1.5)).abs() < 1e-12);
    }

    #[test]
    fn utility_is_none_before_settlement() {
        let node = NodeAgent::new(0, NodeSpec::truthful(1.0));
        assert!(node.utility(ValuationModel::PerJobLatency).is_none());
    }

    // Pinned regression: `handle` is public, and a frame that is not
    // addressed to a node used to panic; it is now ignored with no reply.
    #[test]
    fn misrouted_messages_get_no_reply_and_no_panic() {
        let round = RoundId(0);
        let misrouted = [
            Message::Bid {
                round,
                machine: 1,
                value: 1.0,
            },
            Message::ExecutionDone { round, machine: 1 },
            Message::ShardSum {
                round,
                shard: 0,
                sum_hi: 1.0,
                sum_lo: 0.0,
            },
            Message::ShardEstimates {
                round,
                shard: 0,
                estimates: vec![1.0],
            },
        ];
        let mut node = NodeAgent::new(0, NodeSpec::truthful(1.0));
        for message in &misrouted {
            assert_eq!(node.handle(message), None, "{}", message.kind());
        }
        assert_eq!((node.assigned_rate, node.payment), (None, None));
    }
}
