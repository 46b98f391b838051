//! Sharded hierarchical coordinator: million-machine rounds over a
//! two-level tree.
//!
//! A round splits across `k` *shard coordinators*, each owning a contiguous
//! slice of `n/k` machines. The shard tier is a `Link`, so the one round
//! engine ([`crate::chaos`]) sequences a sharded round with the same
//! triggers as a single-coordinator one; the link decides only where frames
//! and the round's two aggregate steps run:
//!
//! * **Relay** — a coordinator fan-out is queued per shard, and the next
//!   poll relays it as one parallel stage, one scoped worker thread per
//!   shard. Each worker returns its machines' replies as one length-prefixed
//!   buffer; the root ingests them in shard order, then machine order, so
//!   the journal is byte-identical whatever the scheduling.
//! * **Aggregate** — at allocation each shard's partial double-double sum
//!   `Σ 1/b_i` travels upward as a [`Message::ShardSum`] carrying both
//!   limbs, and the root merges the partials with
//!   [`lb_core::merge_inv_sums`]. Settlement reuses the bid side built on
//!   the merged sum; only a settle that lost it (a recovered generation, a
//!   retry after an error) runs the same exchange again to rebuild it.
//! * **Verify** — each shard simulates its respondents
//!   ([`lb_sim::driver::simulate_partition`], with RNG streams keyed by
//!   global respondent ordinal, so the observation is bit-identical to the
//!   unsharded one) and ships the estimates upward as
//!   [`Message::ShardEstimates`]; the root scatters them and commits.
//!
//! The root stays on the calling thread, which owns the non-`Send` journal
//! handle, so [`crate::recovery::recover_round`] + [`drive_sharded_round`]
//! resume a crashed sharded round from any record boundary.
//!
//! # Numerical contract
//!
//! The merged harmonic sum differs from the sequential single-coordinator
//! fold only by the double-double representation error, about `n · 2⁻¹⁰⁶`
//! relative — far below the `2⁻⁵³` step of the final `f64` rounding, so
//! allocations and payments are bit-identical to the single-coordinator
//! round for every shard count (`k = 1` *is* the sequential fold). The
//! `lb-fuzz` `shard` oracle re-checks this differentially every CI run.

use crate::chaos::drive_round;
use crate::codec::{decode_with_context, encode_with_context, put_with_context};
use crate::coordinator::{Coordinator, ProtocolError, Topology, VerifyInput};
use crate::faults::FaultPlan;
use crate::framing::{FrameReader, FrameWriter};
use crate::message::{Message, RoundId};
use crate::network::{Delivery, Endpoint, Link, MessageStats, NetPoll};
use crate::node::{NodeAgent, NodeSpec};
use crate::runtime::{ProtocolConfig, RoundReport};
use lb_core::{merge_inv_sums, CoreError, TwoF64};
use lb_sim::driver::SimulationConfig;
use lb_sim::events::EventQueue;
use lb_sim::time::SimTime;
use lb_telemetry::{Collector, Field, SpanId, Subsystem, TraceContext};
use std::ops::Range;
use std::sync::Arc;
use std::thread::Builder;
use std::time::Instant;

/// Contiguous shard ranges: `k` slices covering `0..n`, the first `n % k`
/// one element longer. `k` is clamped to `1..=n` (a shard never owns zero
/// machines, and at least one shard exists).
#[must_use]
pub fn shard_ranges(n: usize, k: usize) -> Vec<Range<usize>> {
    let k = k.clamp(1, n.max(1));
    let base = n / k;
    let extra = n % k;
    let mut out = Vec::with_capacity(k);
    let mut start = 0;
    for s in 0..k {
        let len = base + usize::from(s < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// The shard owning global machine index `i` under `ranges`.
fn shard_of(ranges: &[Range<usize>], i: usize) -> usize {
    ranges.partition_point(|r| r.end <= i)
}

/// Narrows a shard index to the `u32` wire width used by `ShardSum` /
/// `ShardEstimates` frames. Reachable only with an absurd shard count, but
/// it answers with a typed error instead of panicking mid-round.
fn shard_wire_id(shard: usize) -> Result<u32, ProtocolError> {
    u32::try_from(shard).map_err(|_| ProtocolError::TooManyShards { shard })
}

/// Wall-clock seconds a sharded round spent in each phase, from the phase
/// boundaries the root coordinator records at the link's clock — the same
/// times its `phase.*` spans start and end at (collect includes the upward
/// bid forwarding; allocate includes the partial-sum merge and the
/// distributed verification simulation). The four add up to the time from
/// the round's opening to its seal. A phase a recovered round resumed past
/// reads 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardPhaseTimings {
    /// Bid request fan-out, shard-local collection, upward ingest, timeout.
    pub collect: f64,
    /// Partial-sum aggregation, allocation, verification, commit.
    pub allocate: f64,
    /// Assign fan-out and completion acknowledgements.
    pub execute: f64,
    /// Payment computation and downward delivery, up to the seal.
    pub settle: f64,
}

/// Control messages a fault-free sharded round exchanges: the
/// single-coordinator `5n` (request, bid, assign, ack, payment per node)
/// plus one `ShardSum` and one `ShardEstimates` per shard.
#[must_use]
pub fn expected_sharded_message_count(n: usize, shards: usize) -> u64 {
    5 * n as u64 + 2 * shard_ranges(n, shards).len() as u64
}

/// The span name of each stage, indexed like the fields of
/// [`ShardPhaseTimings`].
const STAGES: [&str; 4] = [
    "shard.collect",
    "shard.verify",
    "shard.execute",
    "shard.settle",
];

fn decode_frame(frame: &[u8]) -> Result<Message, ProtocolError> {
    let (msg, _ctx): (Message, Option<TraceContext>) = decode_with_context(frame)?;
    Ok(msg)
}

/// The context upward frames carry: the shard's own span when one is open,
/// otherwise the root's wire context unchanged.
fn upward_ctx(wire: Option<TraceContext>, span: SpanId) -> Option<TraceContext> {
    if span.is_null() {
        wire
    } else {
        wire.map(|c| c.with_span(span.0))
    }
}

/// One shard's machines (the first is global machine `start`) and, per frame
/// queued since the last stage, its machine and the value `x` it carries.
struct Shard {
    start: usize,
    agents: Vec<NodeAgent>,
    down: Vec<(u32, f64)>,
}

/// A downward frame's stage, as an index into [`STAGES`], and the rate or
/// payment `x` it carries (0 for a bid request).
fn stage_of(message: &Message) -> Option<(usize, f64)> {
    match *message {
        Message::RequestBid { .. } => Some((0, 0.0)),
        Message::Assign { rate, .. } => Some((2, rate)),
        Message::Payment { amount, .. } => Some((3, amount)),
        _ => None,
    }
}

/// Stage `phase`'s frame of `round` carrying `x`: the inverse of
/// [`stage_of`].
fn stage_frame(phase: usize, round: RoundId, x: f64) -> Message {
    match phase {
        0 => Message::RequestBid { round },
        2 => Message::Assign { round, rate: x },
        _ => Message::Payment { round, amount: x },
    }
}

/// What one shard worker hands back up, plus the frames it counted (both
/// directions): on a relay stage, the replies that arrived, length-prefixed
/// ([`FrameWriter`]) in machine order; on the verify stage,
/// the encoded [`Message::ShardEstimates`] frame, which can outgrow a
/// stream frame.
#[derive(Default)]
struct ShardBatch {
    up: Vec<u8>,
    sent: MessageStats,
}

/// What every worker of one stage shares: the round and the fault plan, the
/// root's wire context and open phase span for the stage, and the clock and
/// collector its telemetry goes to.
struct Relay<'a> {
    round: RoundId,
    faults: &'a FaultPlan,
    wire: Option<TraceContext>,
    parent: SpanId,
    collector: Arc<dyn Collector>,
    epoch: Instant,
}

impl Relay<'_> {
    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Opens shard `shard`'s `name` span under the root's phase span, which
    /// every stage runs inside: the settle phase stays open until the seal.
    fn span(&self, name: &'static str, shard: usize, machines: usize) -> SpanId {
        if !self.collector.enabled() {
            return SpanId::NULL;
        }
        let (c, at) = (&self.collector, self.now());
        let fields = vec![
            Field::u64("shard", shard as u64),
            Field::u64("machines", machines as u64),
        ];
        c.span_start_in(at, name, Subsystem::Shard, self.parent, fields)
    }

    /// Sends each queued `phase` frame of `shard` to its machine (encoded
    /// into one reused buffer, decoded for the node) and forwards the
    /// replies upward, in machine order, parented on `span`. Every frame is
    /// counted as sent before the fault plan decides whether it arrives.
    /// Each machine bids once per sharded round, so every bid is a first
    /// attempt (no per-attempt count: `&mut []`).
    fn run(
        &self,
        shard: &mut Shard,
        phase: usize,
        span: SpanId,
    ) -> Result<ShardBatch, ProtocolError> {
        let (mut sent, mut up) = (MessageStats::default(), FrameWriter::new());
        let mut count = |len| sent.count(len, &*self.collector, || self.now());
        let up_ctx = upward_ctx(self.wire, span);
        let lost =
            |from, to, message: &Message| self.faults.drops_counted(from, to, message, &mut []);
        let mut frame = Vec::new();
        for (machine, x) in shard.down.drain(..) {
            let agent = &mut shard.agents[machine as usize - shard.start];
            let node = Endpoint::Node(machine);
            let request = stage_frame(phase, self.round, x);
            frame.clear();
            put_with_context(&mut frame, &request, self.wire.as_ref());
            count(frame.len());
            if lost(Endpoint::Coordinator, node, &request) {
                continue;
            }
            let Some(reply) = agent.handle(&decode_frame(&frame)?) else {
                continue;
            };
            if lost(node, Endpoint::Coordinator, &reply) {
                frame.clear();
                put_with_context(&mut frame, &reply, up_ctx.as_ref());
                count(frame.len());
                continue;
            }
            let framed = up.len();
            up.write_with_context(&reply, up_ctx.as_ref())?;
            // The stream's u32 length prefix is not part of the frame.
            count(up.len() - framed - 4);
        }
        Ok(ShardBatch {
            up: up.take(),
            sent,
        })
    }
}

/// Runs one stage on every shard at once — one scoped worker thread per
/// work item — and joins the workers in shard order, folding their traffic
/// into `stats`.
///
/// Every handle is joined even after a failure: an unjoined panicked scoped
/// thread would re-raise its panic when the scope closes, turning a
/// contained shard failure back into a root abort. The first error wins, a
/// panicked worker surfaces as [`ProtocolError::ShardPanicked`], a worker
/// the OS refused to start as [`ProtocolError::ThreadRefused`], and traffic
/// from the shards that did complete still counts.
fn fan_out<T: Send>(
    items: impl IntoIterator<Item = T>,
    work: impl Fn(usize, T) -> Result<ShardBatch, ProtocolError> + Sync,
    stats: &mut MessageStats,
) -> Result<Vec<ShardBatch>, ProtocolError> {
    let joined: Vec<_> = std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = items
            .into_iter()
            .enumerate()
            .map(|(s, item)| Builder::new().spawn_scoped(scope, move || work(s, item)))
            .collect();
        handles.into_iter().map(|h| h.map(|h| h.join())).collect()
    });
    let mut batches = Vec::with_capacity(joined.len());
    let mut first_err: Option<ProtocolError> = None;
    for (shard, joined) in joined.into_iter().enumerate() {
        let err = match joined {
            Ok(Ok(Ok(batch))) => {
                stats.messages += batch.sent.messages;
                stats.bytes += batch.sent.bytes;
                batches.push(batch);
                continue;
            }
            Ok(Ok(Err(e))) => e,
            Ok(Err(_)) => ProtocolError::ShardPanicked { shard },
            Err(_) => ProtocolError::ThreadRefused { worker: shard },
        };
        first_err = first_err.or(Some(err));
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(batches),
    }
}

fn verify_shard(
    shard: usize,
    input: &VerifyInput,
    sim: &SimulationConfig,
    round: RoundId,
    relay: &Relay<'_>,
) -> Result<ShardBatch, ProtocolError> {
    let shard_u32 = shard_wire_id(shard)?;
    let span = relay.span(STAGES[1], shard, input.bids.len());
    let msg = Message::ShardEstimates {
        round,
        shard: shard_u32,
        estimates: input.simulate(sim)?,
    };
    let mut batch = ShardBatch {
        up: encode_with_context(&msg, upward_ctx(relay.wire, span).as_ref()),
        ..ShardBatch::default()
    };
    batch
        .sent
        .count(batch.up.len(), &*relay.collector, || relay.now());
    relay.collector.span_end(relay.now(), span);
    Ok(batch)
}

/// The shard tier as the round engine's link and topology. The machines
/// live here and are served on the stages' worker threads. A stage's
/// replies all arrive at the stage's one clock read. The link records no
/// coordinator's-eye trace: at `n = 10⁶` its `5n` entries would come to
/// about 320 MB.
struct ShardLink<'a> {
    relay: Relay<'a>,
    ranges: Vec<Range<usize>>,
    shards: Vec<Shard>,
    sim: SimulationConfig,
    /// The phase and count of the frames queued since the last relay; its
    /// reply buffers (one per shard) not yet polled, and their arrival time.
    phase: usize,
    queued: usize,
    up: std::vec::IntoIter<Vec<u8>>,
    reader: FrameReader,
    at: SimTime,
    stats: MessageStats,
}

impl<'a> ShardLink<'a> {
    fn new(
        round: RoundId,
        specs: &[NodeSpec],
        shards: usize,
        sim: SimulationConfig,
        faults: &'a FaultPlan,
        collector: &Arc<dyn Collector>,
    ) -> Self {
        let ranges = shard_ranges(specs.len(), shards);
        // The root's width fits the u32 wire format, so the zip never
        // truncates.
        let mut agents = (0u32..).zip(specs).map(|(i, &s)| NodeAgent::new(i, s));
        let shards = ranges
            .iter()
            .map(|r| Shard {
                start: r.start,
                agents: agents.by_ref().take(r.len()).collect(),
                down: Vec::with_capacity(r.len()),
            })
            .collect();
        Self {
            relay: Relay {
                round,
                faults,
                wire: None,
                parent: SpanId::NULL,
                collector: Arc::clone(collector),
                epoch: Instant::now(),
            },
            ranges,
            shards,
            sim,
            phase: 0,
            queued: 0,
            up: Vec::new().into_iter(),
            reader: FrameReader::new(),
            at: SimTime::ZERO,
            stats: MessageStats::default(),
        }
    }

    /// Relays the queued fan-out as one stage on every shard at once; the
    /// replies become the next arrivals.
    fn relay(&mut self) -> Result<(), ProtocolError> {
        let (relay, phase) = (&self.relay, self.phase);
        let batches = fan_out(
            &mut self.shards,
            |s, shard| {
                let span = relay.span(STAGES[phase], s, shard.down.len());
                let batch = relay.run(shard, phase, span);
                relay.collector.span_end(relay.now(), span);
                batch
            },
            &mut self.stats,
        )?;
        self.at = self.now();
        self.queued = 0;
        self.up = batches
            .into_iter()
            .map(|b| b.up)
            .collect::<Vec<_>>()
            .into_iter();
        Ok(())
    }
}

impl Topology for ShardLink<'_> {
    /// The relay epoch's wall seconds, so the root's phase spans enclose the
    /// shards' spans.
    fn clock(&self, _: &Coordinator<'_>) -> f64 {
        self.relay.now()
    }

    fn inv_sum(&mut self, coordinator: &Coordinator<'_>) -> Result<TwoF64, ProtocolError> {
        self.relay.wire = coordinator.wire_context();
        let mut partials = Vec::with_capacity(self.ranges.len());
        for (s, range) in self.ranges.iter().enumerate() {
            let partial = coordinator.partial_inv_sum(range.clone());
            // The partials travel as ShardSum frames: both double-double
            // limbs on the wire, so the merge is exact.
            let msg = Message::ShardSum {
                round: coordinator.round(),
                shard: shard_wire_id(s)?,
                sum_hi: partial.hi,
                sum_lo: partial.lo,
            };
            let frame = encode_with_context(&msg, self.relay.wire.as_ref());
            self.stats
                .count(frame.len(), &*self.relay.collector, || self.relay.now());
            let Message::ShardSum { sum_hi, sum_lo, .. } = decode_frame(&frame)? else {
                return Err(ProtocolError::ReplayMismatch {
                    what: "shard sum frame decoded to a different message",
                });
            };
            partials.push(TwoF64 {
                hi: sum_hi,
                lo: sum_lo,
            });
        }
        Ok(merge_inv_sums(&partials))
    }

    /// Each shard simulates its own respondents at their global respondent
    /// stream offsets. An empty bid slot inside a range is a silent machine
    /// (lost frame, timeout exclusion): it took the exclusion path at the
    /// bid timeout and is never simulated.
    fn verify(
        &mut self,
        coordinator: &Coordinator<'_>,
        rates: &[f64],
        actual_exec_values: &[f64],
    ) -> Result<Vec<f64>, ProtocolError> {
        let ranges = self.ranges.iter().cloned();
        let inputs = coordinator.verify_inputs(ranges, rates, actual_exec_values)?;
        self.relay.wire = coordinator.wire_context();
        self.relay.parent = coordinator.phase_span();
        let (relay, sim, round) = (&self.relay, self.sim, coordinator.round());
        let batches = fan_out(
            &inputs,
            |s, input| verify_shard(s, input, &sim, round, relay),
            &mut self.stats,
        )?;
        // Scatter each shard's estimates into the full-width vector the
        // commit journals (excluded machines: no verification evidence, 0).
        let mut shard_estimates = Vec::with_capacity(inputs.len());
        for (batch, input) in batches.iter().zip(&inputs) {
            let Message::ShardEstimates { estimates, .. } = decode_frame(&batch.up)? else {
                return Err(ProtocolError::ReplayMismatch {
                    what: "shard estimate frame decoded to a different message",
                });
            };
            if estimates.len() != input.idx.len() {
                return Err(CoreError::LengthMismatch {
                    expected: input.idx.len(),
                    actual: estimates.len(),
                }
                .into());
            }
            shard_estimates.push(estimates);
        }
        let idx = inputs.iter().map(|input| &input.idx);
        Ok(coordinator.scatter(idx.zip(&shard_estimates)))
    }
}

impl Link for ShardLink<'_> {
    const TRACED: bool = false;

    fn enter_phase(&mut self, phase_span: SpanId) {
        self.relay.parent = phase_span;
    }

    fn now(&self) -> SimTime {
        SimTime::new(self.relay.now())
    }

    fn next_arrival_time(&self) -> Option<SimTime> {
        (self.pending() > 0).then_some(self.at)
    }

    fn poll(&mut self) -> Result<Option<NetPoll>, ProtocolError> {
        if self.up.len() + self.reader.pending() == 0 && self.queued > 0 {
            self.relay()?;
        }
        loop {
            let next = self.reader.next_frame_with_context::<Message>();
            if let Some((message, ctx)) = next? {
                let from = message
                    .machine()
                    .map_or(Endpoint::Coordinator, Endpoint::Node);
                return Ok(Some(NetPoll::Frame(Delivery {
                    from,
                    to: Endpoint::Coordinator,
                    message,
                    at: self.at,
                    ctx,
                })));
            }
            let Some(buffer) = self.up.next() else {
                // Workers write whole frames: a partial tail is corrupt.
                return match self.reader.pending() {
                    0 => Ok(None),
                    _ => Err(ProtocolError::ReplayMismatch {
                        what: "a shard reply stream ended inside a frame",
                    }),
                };
            };
            self.reader.feed(&buffer);
        }
    }

    /// Zero exactly when nothing is queued or left to poll.
    fn pending(&self) -> usize {
        self.queued + self.up.len() + self.reader.pending()
    }

    fn send(
        &mut self,
        _from: Endpoint,
        to: Endpoint,
        message: &Message,
        ctx: Option<&TraceContext>,
    ) -> Result<(), ProtocolError> {
        let n = self.ranges.last().map_or(0, |r| r.end);
        let machine = to.node_index().map_or(n, |i| i as usize);
        let shard = self
            .shards
            .get_mut(shard_of(&self.ranges, machine))
            .ok_or(ProtocolError::MachineOutOfRange { machine, n })?;
        let this_round = message.round() == self.relay.round;
        let (phase, x) = stage_of(message)
            .filter(|&(phase, _)| this_round && (self.queued == 0 || phase == self.phase))
            .ok_or(ProtocolError::ReplayMismatch {
                what: "a relay stage carries one kind of coordinator frame of its round",
            })?;
        shard.down.push((machine as u32, x));
        self.phase = phase;
        self.queued += 1;
        self.relay.wire = ctx.copied();
        Ok(())
    }

    fn stats(&self) -> MessageStats {
        self.stats
    }
}

/// Drives one sharded round to completion on `root`, fresh *or* recovered
/// mid-round by [`crate::recovery::recover_round`]: the round engine picks
/// up from whatever phase the replay reconstructed
/// ([`Coordinator::resume`]) and continues the journal exactly where an
/// uninterrupted run would have, so both produce byte-identical journals.
/// The round is sealed once settled. Returns the report (utilities from the
/// coordinator's ledger; no trace) and the root's phase timings, recorded
/// whether or not a collector is attached.
///
/// `faults` drops frames exactly as a single-coordinator round under
/// [`crate::chaos::ChaosConfig`] with `bid_retries: 0`: lost bids exclude
/// the machine at the bid timeout, lost acks don't delay settlement,
/// partitioned machines see nothing. Lost frames are counted as sent.
///
/// With an enabled collector on `root`, every stage records one
/// `shard.collect` / `shard.verify` / `shard.execute` / `shard.settle` span
/// per shard under the root's phase span: the per-shard, per-stage wall
/// times the profiler and the dashboard read.
///
/// # Errors
/// Propagates mechanism errors (notably
/// [`lb_mechanism::MechanismError::NeedTwoAgents`] when fewer than two bids
/// survive), journal failures (including injected crashes) and codec
/// errors. A panicking shard worker
/// does not take the root down: it surfaces as
/// [`ProtocolError::ShardPanicked`] after every other worker has been
/// joined, with the journal truncated at a record boundary so the round
/// replays exactly like any other crash-interrupted round.
pub fn drive_sharded_round(
    root: &mut Coordinator<'_>,
    specs: &[NodeSpec],
    config: &ProtocolConfig,
    shards: usize,
    faults: &FaultPlan,
) -> Result<(RoundReport, ShardPhaseTimings), ProtocolError> {
    let n = specs.len();
    if n != root.excluded().len() {
        return Err(CoreError::LengthMismatch {
            expected: root.excluded().len(),
            actual: n,
        }
        .into());
    }
    let (round, collector) = (root.round(), Arc::clone(root.collector()));
    let sim = config.simulation;
    let mut link = ShardLink::new(round, specs, shards, sim, faults, &collector);
    let actual: Vec<f64> = specs.iter().map(|spec| spec.exec_value).collect();
    root.set_now(link.now().seconds());
    // A fresh root opens by requesting every bid, a recovered one with
    // whatever its replayed phase still owes.
    let timers = &mut EventQueue::new();
    let drive = root.resume_in(&actual, &mut link).and_then(|opening| {
        let nodes = &mut [];
        drive_round(
            &mut link,
            timers,
            None,
            &*collector,
            root,
            nodes,
            &actual,
            opening,
        )
    });
    // An abandoned round closes its spans, as the chaos runtime's does.
    let drive = drive.inspect_err(|_| root.end_telemetry())?;
    let [collect, allocate, execute, settle] = root.phase_seconds();
    let timings = ShardPhaseTimings {
        collect,
        allocate,
        execute,
        settle,
    };
    Ok((drive.report(root, specs, &[])?, timings))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{Journal, JournalRecord, JournalReplay, MemJournal};
    use crate::recovery::{recover_round, RoundContext};
    use crate::runtime::{run_round, Observers, RoundSpec, Transport};
    use lb_core::scenario::{paper_true_values, PAPER_ARRIVAL_RATE};
    use lb_mechanism::{CompensationBonusMechanism, MechanismError};
    use lb_telemetry::noop_collector;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn config() -> ProtocolConfig {
        ProtocolConfig {
            total_rate: PAPER_ARRIVAL_RATE,
            simulation: SimulationConfig {
                horizon: 300.0,
                seed: 3,
                ..SimulationConfig::default()
            },
            ..ProtocolConfig::default()
        }
    }

    fn sharded(
        mech: &CompensationBonusMechanism,
        specs: &[NodeSpec],
        shards: usize,
        observers: Observers,
    ) -> RoundReport {
        let spec = RoundSpec {
            transport: Transport::Sharded { shards },
            observers,
            ..RoundSpec::new(mech, specs, config())
        };
        run_round(&spec).unwrap()
    }

    fn truthful_specs() -> Vec<NodeSpec> {
        paper_true_values()
            .iter()
            .map(|&t| NodeSpec::truthful(t))
            .collect()
    }

    #[test]
    fn shard_ranges_partition_the_index_space() {
        for (n, k) in [(10, 3), (16, 4), (5, 5), (7, 64), (1, 1), (4096, 7)] {
            let ranges = shard_ranges(n, k);
            assert_eq!(ranges.len(), k.min(n));
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().unwrap().end, n);
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start, "contiguous");
                assert!(w[0].len() >= w[1].len(), "longer shards first");
            }
            assert!(ranges.iter().all(|r| !r.is_empty()));
            for i in 0..n {
                assert!(ranges[shard_of(&ranges, i)].contains(&i));
            }
        }
    }

    #[test]
    fn shard_count_is_a_no_op_for_the_round_outcome() {
        let mech = CompensationBonusMechanism::paper();
        let mut specs = truthful_specs();
        // A lazy machine: its verification estimate differs from its bid.
        specs[0] = NodeSpec::strategic(1.0, 1.0, 2.0);
        let reference = run_round(&RoundSpec::new(&mech, &specs, config())).unwrap();
        assert_ne!(reference.outcome.estimated_exec_values[0], 1.0);
        for k in [1usize, 2, 3, 4, 5, 7, 16, 64] {
            let report = sharded(&mech, &specs, k, Observers::default());
            assert!(report.excluded.iter().all(|&x| !x), "k = {k}");
            assert_eq!(report.anomalies.total(), 0, "k = {k}");
            assert_eq!(
                report.outcome.stats.messages,
                expected_sharded_message_count(specs.len(), k),
                "k = {k}"
            );
            assert_eq!(reference.outcome.rates, report.outcome.rates, "k = {k}");
            assert_eq!(
                reference.outcome.payments, report.outcome.payments,
                "k = {k}"
            );
            assert_eq!(
                reference.outcome.estimated_exec_values, report.outcome.estimated_exec_values,
                "k = {k}"
            );
        }
    }

    #[test]
    fn sharded_round_recovers_bit_identically_from_any_crash_point() {
        let mech = CompensationBonusMechanism::paper();
        let specs = truthful_specs();
        let cfg = ProtocolConfig {
            simulation: SimulationConfig {
                horizon: 40.0,
                ..config().simulation
            },
            ..config()
        };
        let ctx = RoundContext {
            n: specs.len(),
            total_rate: cfg.total_rate,
            round: RoundId(0),
            sim: cfg.simulation,
        };

        // Reference: one uninterrupted durable sharded round.
        let journal: Rc<RefCell<MemJournal>> = Rc::new(RefCell::new(MemJournal::new()));
        let mut root = Coordinator::try_new(&mech, ctx.n, ctx.total_rate, ctx.round, ctx.sim)
            .unwrap()
            .with_journal(journal.clone());
        drive_sharded_round(&mut root, &specs, &cfg, 4, &FaultPlan::none()).unwrap();
        let reference_bytes = journal.borrow().bytes().unwrap();
        let reference_payments = root.payments().unwrap().to_vec();
        assert!(root.is_sealed());

        // Crash at every record boundary, recover, finish, compare.
        let boundaries = JournalReplay::boundaries(&reference_bytes);
        assert!(boundaries.len() > 10, "round journals several records");
        for &cut in &boundaries {
            let truncated = reference_bytes[..cut].to_vec();
            let recovered: Rc<RefCell<dyn Journal>> =
                Rc::new(RefCell::new(MemJournal::from_bytes(truncated)));
            let (mut root, _report) =
                recover_round(&mech, recovered.clone(), &ctx, noop_collector(), 0.0).unwrap();
            drive_sharded_round(&mut root, &specs, &cfg, 4, &FaultPlan::none()).unwrap();
            assert_eq!(
                root.payments().unwrap(),
                &reference_payments[..],
                "payments after crash at byte {cut}"
            );
            let replayed_bytes = recovered.borrow().bytes().unwrap();
            assert_eq!(
                replayed_bytes, reference_bytes,
                "journal after crash at byte {cut}"
            );
        }
    }

    #[test]
    fn observed_sharded_round_records_replayable_shard_spans() {
        use lb_telemetry::{replay_spans, RingCollector};
        let mech = CompensationBonusMechanism::paper();
        let specs = truthful_specs();
        let ring = Arc::new(RingCollector::new(16_384));
        let k = 4;
        let report = sharded(
            &mech,
            &specs,
            k,
            Observers {
                collector: ring.clone(),
                ..Observers::default()
            },
        );

        let events = ring.snapshot();
        let spans = replay_spans(&events).expect("recording replays cleanly");
        let phase_id = |name: &str| {
            spans
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("{name} span recorded"))
                .id
        };
        let collect = phase_id("phase.collect_bids");
        let allocate = phase_id("phase.allocate");
        let execute = phase_id("phase.execute");
        let settle = phase_id("phase.settle");
        for (name, parent) in [
            ("shard.collect", collect),
            ("shard.verify", allocate),
            ("shard.execute", execute),
            ("shard.settle", settle),
        ] {
            let shard_spans: Vec<_> = spans.iter().filter(|s| s.name == name).collect();
            assert_eq!(shard_spans.len(), k, "{name}: one span per shard");
            assert!(
                shard_spans.iter().all(|s| s.parent == Some(parent)),
                "{name} parents on its phase span"
            );
        }
        // Verification runs on the simulation clock, so it records no
        // per-machine spans under the wall-clock shard spans.
        assert!(!spans.iter().any(|s| s.name == "sim.machine"));
        // The net counters agree with the report's frame accounting.
        let mut reg = lb_telemetry::MetricsRegistry::new();
        reg.ingest(&events);
        assert_eq!(reg.counter("net.messages"), report.outcome.stats.messages);
        assert_eq!(reg.counter("net.bytes"), report.outcome.stats.bytes);
    }

    /// The root's phase timings are its phase spans: each equals the
    /// duration of its `phase.*` span, and together they run from the
    /// round's opening to its seal. An unobserved round times every phase
    /// too.
    #[test]
    fn phase_timings_are_the_durations_of_the_phase_spans() {
        use lb_telemetry::{replay_spans, Phase, RingCollector};
        let mech = CompensationBonusMechanism::paper();
        let (specs, cfg) = (truthful_specs(), config());
        let root = |collector: Arc<dyn Collector>| {
            let (n, r) = (specs.len(), cfg.total_rate);
            Coordinator::try_new(&mech, n, r, RoundId(0), cfg.simulation)
                .unwrap()
                .with_collector(collector)
        };
        let ring = Arc::new(RingCollector::new(16_384));
        let mut observed = root(ring.clone());
        let (_, t) =
            drive_sharded_round(&mut observed, &specs, &cfg, 4, &FaultPlan::none()).unwrap();
        let seconds = [t.collect, t.allocate, t.execute, t.settle];
        let spans = replay_spans(&ring.snapshot()).expect("recording replays cleanly");
        let span = |name: &str| spans.iter().find(|s| s.name == name).unwrap();
        for (phase, seconds) in Phase::ALL.into_iter().zip(seconds) {
            let duration = span(phase.span_name()).duration();
            assert_eq!(duration.to_bits(), seconds.to_bits(), "{}", phase.name());
        }
        let round = span("round").duration();
        let sum: f64 = seconds.iter().sum();
        assert!((sum - round).abs() <= 1e-12, "{sum} vs {round}");

        let mut unobserved = root(noop_collector());
        let (_, t) =
            drive_sharded_round(&mut unobserved, &specs, &cfg, 4, &FaultPlan::none()).unwrap();
        let seconds = [t.collect, t.allocate, t.execute, t.settle];
        assert!(seconds.iter().all(|&s| s > 0.0), "{t:?}");
    }

    /// A round recovered mid-execute opens, and is timed, as execute: it
    /// records `phase.execute`, never `phase.collect_bids`, and reads 0 for
    /// the phases it resumed past.
    #[test]
    fn a_round_recovered_mid_execute_opens_the_execute_phase() {
        use lb_telemetry::{replay_spans, RingCollector};
        let mech = CompensationBonusMechanism::paper();
        let (specs, cfg) = (truthful_specs(), config());
        let ctx = RoundContext {
            n: specs.len(),
            total_rate: cfg.total_rate,
            round: RoundId(0),
            sim: cfg.simulation,
        };
        let journal = Rc::new(RefCell::new(MemJournal::new()));
        let mut root = Coordinator::try_new(&mech, ctx.n, ctx.total_rate, ctx.round, ctx.sim)
            .unwrap()
            .with_journal(journal.clone());
        drive_sharded_round(&mut root, &specs, &cfg, 4, &FaultPlan::none()).unwrap();
        let bytes = journal.borrow().bytes().unwrap();
        let records = crate::journal::read_journal(&bytes).unwrap().records;
        let committed = records
            .iter()
            .position(|r| matches!(r, JournalRecord::AllocationCommitted { .. }))
            .unwrap();
        let cut = JournalReplay::boundaries(&bytes)[committed + 1];
        let torn: Rc<RefCell<dyn Journal>> =
            Rc::new(RefCell::new(MemJournal::from_bytes(bytes[..cut].to_vec())));

        let ring = Arc::new(RingCollector::new(16_384));
        let (mut root, _) = recover_round(&mech, torn, &ctx, ring.clone(), 0.0).unwrap();
        assert_eq!(root.phase(), crate::CoordinatorPhase::Executing);
        let (_, t) = drive_sharded_round(&mut root, &specs, &cfg, 4, &FaultPlan::none()).unwrap();
        let spans = replay_spans(&ring.snapshot()).expect("recording replays cleanly");
        let named = |name: &str| spans.iter().any(|s| s.name == name);
        assert!(named("phase.execute") && named("phase.settle"));
        assert!(!named("phase.collect_bids") && !named("phase.allocate"));
        assert_eq!((t.collect, t.allocate), (0.0, 0.0));
        assert!(t.execute > 0.0 && t.settle > 0.0, "{t:?}");
    }

    #[test]
    fn sharded_transitions_enforce_width_agreement() {
        let mech = CompensationBonusMechanism::paper();
        let specs = truthful_specs();
        let mut root = Coordinator::try_new(
            &mech,
            4,
            config().total_rate,
            RoundId(0),
            config().simulation,
        )
        .unwrap();
        assert!(matches!(
            drive_sharded_round(&mut root, &specs, &config(), 2, &FaultPlan::none()),
            Err(ProtocolError::Mechanism(MechanismError::Core(
                CoreError::LengthMismatch { .. }
            )))
        ));
    }

    // Pinned regression: shard ids that exceed the u32 wire
    // width answer with a typed error, not the former
    // `expect("shard count fits u32")` panic.
    #[test]
    fn oversized_shard_index_is_a_typed_error() {
        assert_eq!(shard_wire_id(0).unwrap(), 0);
        assert_eq!(shard_wire_id(u32::MAX as usize).unwrap(), u32::MAX);
        assert!(matches!(
            shard_wire_id(u32::MAX as usize + 1),
            Err(ProtocolError::TooManyShards { shard }) if shard == u32::MAX as usize + 1
        ));
        let err = shard_wire_id(usize::MAX).unwrap_err();
        assert!(err.to_string().contains("u32 wire-format limit"));
        assert!(!err.is_crash(), "an oversized shard id is not a crash");
    }

    // Pinned regression: a panicking shard worker surfaces as
    // `ProtocolError::ShardPanicked` after every other worker has been
    // joined — the former `handle.join().expect(...)` took the whole root
    // down, and an unjoined sibling would have re-raised at scope exit.
    #[test]
    fn panicking_shard_worker_degrades_to_a_typed_error() {
        let mut stats = MessageStats::default();
        let work = |shard: usize, ()| {
            assert_ne!(shard, 1, "worker dies mid-phase");
            let mut batch = ShardBatch::default();
            if shard == 0 {
                batch.sent.messages = 3;
                batch.sent.bytes = 96;
            }
            Ok(batch)
        };
        let Err(err) = fan_out(vec![(); 3], work, &mut stats) else {
            panic!("a panicking worker must fail the stage");
        };
        assert!(matches!(err, ProtocolError::ShardPanicked { shard: 1 }));
        assert!(err.to_string().contains("shard 1"));
        // Traffic from the shards that completed is still accounted.
        assert_eq!(stats.messages, 3);
        assert_eq!(stats.bytes, 96);
    }

    #[test]
    fn mechanism_error_shuts_down_workers_cleanly() {
        // An invalid total rate makes allocation fail once the last bid is
        // in, after the collect stage's workers have joined. The error must
        // surface as `Err`: not a panic, and not a hang waiting on workers.
        let mech = CompensationBonusMechanism::paper();
        let specs = truthful_specs();
        let cfg = ProtocolConfig {
            total_rate: -1.0,
            ..config()
        };
        let journal: Rc<RefCell<dyn Journal>> = Rc::new(RefCell::new(MemJournal::new()));
        let mut root = Coordinator::try_new(
            &mech,
            specs.len(),
            cfg.total_rate,
            RoundId(0),
            cfg.simulation,
        )
        .unwrap()
        .with_journal(Rc::clone(&journal));
        let result = drive_sharded_round(&mut root, &specs, &cfg, 3, &FaultPlan::none());
        assert!(matches!(result, Err(ProtocolError::Mechanism(_))));
        let replay = crate::journal::read_journal(&journal.borrow().bytes().unwrap()).unwrap();
        let bids = replay
            .records
            .iter()
            .filter(|r| matches!(r, JournalRecord::BidAccepted { .. }));
        assert_eq!(bids.count(), specs.len(), "every bid was in");

        let spec = RoundSpec {
            transport: Transport::Sharded { shards: 3 },
            ..RoundSpec::new(&mech, &specs, cfg)
        };
        assert!(run_round(&spec).is_err());
    }

    // A reply stream that ends inside a frame fails the round instead of
    // leaving the engine polling forever.
    #[test]
    fn truncated_reply_stream_is_an_error() {
        let specs = truthful_specs();
        let faults = FaultPlan::none();
        let sim = config().simulation;
        let mut link = ShardLink::new(RoundId(0), &specs, 2, sim, &faults, &noop_collector());
        let mut stream = FrameWriter::new();
        stream
            .write(&Message::RequestBid { round: RoundId(0) })
            .unwrap();
        let mut bytes = stream.take();
        bytes.pop();
        link.up = vec![bytes].into_iter();
        assert!(link.pending() > 0);
        assert!(matches!(
            link.poll(),
            Err(ProtocolError::ReplayMismatch { .. })
        ));
    }

    // A whole frame whose payload does not decode fails the round with
    // the typed codec error.
    #[test]
    fn undecodable_reply_frame_is_a_codec_error() {
        let specs = truthful_specs();
        let faults = FaultPlan::none();
        let sim = config().simulation;
        let mut link = ShardLink::new(RoundId(0), &specs, 2, sim, &faults, &noop_collector());
        let payload = [0xFF_u8; 3];
        let mut bytes = (payload.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&payload);
        link.up = vec![bytes].into_iter();
        let err = link.poll().unwrap_err();
        assert!(matches!(err, ProtocolError::Codec(_)), "{err:?}");
        assert!(err.to_string().starts_with("codec: "), "{err}");
    }

    // Pinned regression: a machine that stays silent inside a
    // shard (its bid frame lost before the allocate stage) is routed
    // through the exclusion path — the verify fan-out used to index the
    // bid slot with `expect("respondent")`.
    #[test]
    fn silent_machine_inside_a_shard_is_excluded_not_a_panic() {
        let mech = CompensationBonusMechanism::paper();
        let specs = truthful_specs();
        // Machine 5 sits strictly inside the middle of three shards over
        // the paper's ten machines (ranges 0..4, 4..7, 7..10).
        let faults = FaultPlan {
            lose_bids_from: vec![5],
            ..FaultPlan::default()
        };
        let journal: Rc<RefCell<dyn Journal>> = Rc::new(RefCell::new(MemJournal::new()));
        let mut root = Coordinator::try_new(
            &mech,
            specs.len(),
            config().total_rate,
            RoundId(0),
            config().simulation,
        )
        .unwrap()
        .with_journal(Rc::clone(&journal));
        let (report, _timings) =
            drive_sharded_round(&mut root, &specs, &config(), 3, &faults).unwrap();
        assert_eq!(report.anomalies.total(), 0);
        assert!(report.excluded[5], "silent machine is excluded");
        assert_eq!(report.outcome.rates[5], 0.0);
        assert_eq!(report.outcome.payments[5], 0.0);
        assert!(root.is_sealed(), "round completes and seals");
        // The journal of the degraded round still replays cleanly.
        let replay = crate::journal::read_journal(&journal.borrow().bytes().unwrap()).unwrap();
        assert!(!replay.records.is_empty());
        assert_eq!(replay.truncated_tail, 0);
    }
}
