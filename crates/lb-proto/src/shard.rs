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
//!   [`lb_core::merge_inv_sums`]. Settlement reuses the merged sum.
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
use lb_prof::{RoundProfiler, WireShardProfile, PHASES};
use lb_sim::driver::SimulationConfig;
use lb_sim::events::EventQueue;
use lb_sim::time::SimTime;
use lb_stats::LatencySketch;
use lb_telemetry::{Collector, EventKind, Field, SpanId, Subsystem, TelemetryEvent, TraceContext};
use std::borrow::Cow;
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
/// `ShardEstimates` / `ShardProfile` frames. Reachable only with an absurd
/// shard count, but it answers with a typed error instead of panicking
/// mid-round.
fn shard_wire_id(shard: usize) -> Result<u32, ProtocolError> {
    u32::try_from(shard).map_err(|_| ProtocolError::TooManyShards { shard })
}

/// Wall-clock seconds spent in each phase of a sharded round, measured at
/// the root (collect includes the upward bid forwarding; allocate includes
/// the partial-sum merge and the distributed verification simulation). A
/// phase a recovered round resumed past reads 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardPhaseTimings {
    /// Bid request fan-out, shard-local collection, upward ingest, timeout.
    pub collect: f64,
    /// Partial-sum aggregation, allocation, verification, commit.
    pub allocate: f64,
    /// Assign fan-out and completion acknowledgements.
    pub execute: f64,
    /// Payment computation, downward delivery, seal.
    pub settle: f64,
}

/// Control messages a fault-free sharded round exchanges: the
/// single-coordinator `5n` (request, bid, assign, ack, payment per node)
/// plus one `ShardSum` and one `ShardEstimates` per shard.
#[must_use]
pub fn expected_sharded_message_count(n: usize, shards: usize) -> u64 {
    5 * n as u64 + 2 * shard_ranges(n, shards).len() as u64
}

/// The span or instant name of each stage, indexed like [`PHASES`].
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

/// A downward frame's stage, as an index into [`PHASES`], and the rate or
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
/// stream frame. `elapsed` and `prof` are profiler-only side channels: the
/// worker's wall time and, on profiled verify stages, the encoded
/// [`Message::ShardProfile`] frame, kept out of the protocol's accounting.
#[derive(Default)]
struct ShardBatch {
    up: Vec<u8>,
    sent: MessageStats,
    elapsed: f64,
    prof: Option<Vec<u8>>,
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

    /// Opens shard `shard`'s `name` span under the root's phase span. With
    /// no phase span open (the round has settled) it records an instant.
    fn span(&self, name: &'static str, shard: usize, machines: usize) -> SpanId {
        if !self.collector.enabled() {
            return SpanId::NULL;
        }
        let (c, at) = (&self.collector, self.now());
        let fields = vec![
            Field::u64("shard", shard as u64),
            Field::u64("machines", machines as u64),
        ];
        if self.parent.is_null() {
            c.instant(at, name, Subsystem::Shard, fields);
            return SpanId::NULL;
        }
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
        let up = up.take();
        Ok(ShardBatch {
            up,
            sent,
            ..ShardBatch::default()
        })
    }
}

/// The profiled round's per-shard phase wall times: fed to the profiler as
/// each stage joins, and kept for the `shard.phase.seconds` gauges once the
/// round is sealed.
struct PhaseClock<'p> {
    profiler: &'p mut RoundProfiler,
    seconds: Vec<[f64; 4]>,
}

/// Runs one stage on every shard at once — one scoped worker thread per
/// work item — and joins the workers in shard order, folding their traffic
/// into `stats` and their wall times into `clock`'s `phase`.
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
    clock: Option<&mut PhaseClock<'_>>,
    phase: usize,
) -> Result<Vec<ShardBatch>, ProtocolError> {
    let joined: Vec<_> = std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = items
            .into_iter()
            .enumerate()
            .map(|(s, item)| {
                Builder::new().spawn_scoped(scope, move || {
                    let started = Instant::now();
                    let mut batch = work(s, item)?;
                    batch.elapsed = started.elapsed().as_secs_f64();
                    Ok(batch)
                })
            })
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
    if let Some(e) = first_err {
        return Err(e);
    }
    if let Some(clock) = clock {
        for (s, batch) in batches.iter().enumerate() {
            clock.profiler.record_phase(s as u32, phase, batch.elapsed);
            clock.seconds[s][phase] = batch.elapsed;
        }
    }
    Ok(batches)
}

fn verify_shard(
    shard: usize,
    input: &VerifyInput,
    sim: &SimulationConfig,
    round: RoundId,
    relay: &Relay<'_>,
    profile: bool,
) -> Result<ShardBatch, ProtocolError> {
    let shard_u32 = shard_wire_id(shard)?;
    let mut batch = ShardBatch::default();
    let span = relay.span(STAGES[1], shard, input.bids.len());
    let ctx = upward_ctx(relay.wire, span);
    // Profiled rounds time the kernel in blocks of machines and give each
    // machine its block's mean wall time in the shard's sketch. The probe
    // observes the kernel without participating, so the estimates are
    // bit-identical to the unprofiled path.
    let mut wall = profile.then(|| (LatencySketch::new(), None::<(u64, f64)>));
    let mut probe = |first: u64, machines: usize, seconds: f64| {
        if let Some((sketch, slowest)) = wall.as_mut() {
            let mean = seconds / machines as f64;
            sketch.record_n(mean, machines as u64);
            if slowest.is_none_or(|(_, w)| mean > w) {
                // Name the block by the *local* respondent ordinal of its
                // first machine: the worker does not know the global index
                // space; the root maps it.
                *slowest = Some((first - input.offset, mean));
            }
        }
    };
    let estimates = input.simulate(
        sim,
        profile.then_some(&mut probe as &mut dyn FnMut(u64, usize, f64)),
    )?;
    if let Some((machine_wall, slowest)) = wall {
        let msg = Message::ShardProfile {
            round,
            shard: shard_u32,
            profile: Box::new(WireShardProfile {
                shard: shard_u32,
                machines: input.bids.len() as u64,
                machine_wall: machine_wall.to_wire(),
                slowest,
            }),
        };
        // Deliberately not counted: profiling frames are accounted by the
        // profiler alone, never MessageStats or the net.* counters.
        batch.prof = Some(encode_with_context(&msg, ctx.as_ref()));
    }
    let msg = Message::ShardEstimates {
        round,
        shard: shard_u32,
        estimates,
    };
    batch.up = encode_with_context(&msg, ctx.as_ref());
    batch
        .sent
        .count(batch.up.len(), &*relay.collector, || relay.now());
    relay.collector.span_end(relay.now(), span);
    Ok(batch)
}

/// Folds one shard's profiling side channel into the profiler: its
/// [`Message::ShardProfile`] frame, with the shard-local ordinal of its
/// slowest block's first machine mapped back to a global index through
/// `idx`, the shard's respondent map.
fn ingest_profile(
    profiler: &mut RoundProfiler,
    frame: Option<&[u8]>,
    idx: &[usize],
) -> Result<(), ProtocolError> {
    let mismatch = |what| ProtocolError::ReplayMismatch { what };
    let frame = frame.ok_or(mismatch("missing shard profile frame"))?;
    profiler.note_frame(frame.len());
    let Message::ShardProfile { profile, .. } = decode_frame(frame)? else {
        return Err(mismatch(
            "shard profile frame decoded to a different message",
        ));
    };
    let slowest = profile
        .slowest
        .map(|(local, wall)| {
            usize::try_from(local)
                .ok()
                .and_then(|l| idx.get(l))
                .map(|&i| (i as u64, wall))
                .ok_or(mismatch("shard profile names a machine outside its shard"))
        })
        .transpose()?;
    profiler
        .ingest_shard(&profile, slowest)
        .map_err(|_| mismatch("corrupt shard profile frame"))
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
    /// The harmonic sum merged at allocation, which settlement reuses.
    merged: Option<TwoF64>,
    clock: Option<PhaseClock<'a>>,
    /// When the root first entered each phase (indexed like [`PHASES`]).
    starts: [Option<Instant>; 4],
}

impl<'a> ShardLink<'a> {
    fn new(
        round: RoundId,
        specs: &[NodeSpec],
        shards: usize,
        sim: SimulationConfig,
        faults: &'a FaultPlan,
        collector: &Arc<dyn Collector>,
        profiler: Option<&'a mut RoundProfiler>,
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
            clock: profiler.map(|profiler| PhaseClock {
                profiler,
                seconds: vec![[0.0; 4]; ranges.len()],
            }),
            ranges,
            shards,
            sim,
            phase: 0,
            queued: 0,
            up: Vec::new().into_iter(),
            reader: FrameReader::new(),
            at: SimTime::ZERO,
            stats: MessageStats::default(),
            merged: None,
            starts: [None; 4],
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
            self.clock.as_mut(),
            phase,
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

    /// Closes the round's clocks: the root's wall seconds per phase, fed
    /// to the profiler's trend series, and each shard's phase seconds as
    /// `shard.phase.seconds` gauges (telemetry only — the round's outcome
    /// was sealed before and never depends on the profiler).
    fn finish(self, round: RoundId) -> ShardPhaseTimings {
        let (mut seconds, mut stop) = ([0.0; 4], Instant::now());
        for (phase, start) in self.starts.iter().enumerate().rev() {
            if let Some(start) = *start {
                seconds[phase] = stop.duration_since(start).as_secs_f64();
                stop = start;
            }
        }
        if let Some(clock) = self.clock {
            clock.profiler.finish_round(round.0, seconds);
            let (collector, at) = (&self.relay.collector, self.relay.now());
            let shards = clock.seconds.iter().filter(|_| collector.enabled());
            for (s, phases) in shards.enumerate() {
                for (phase, &value) in PHASES.iter().zip(phases) {
                    collector.record(TelemetryEvent {
                        at,
                        name: Cow::Borrowed("shard.phase.seconds"),
                        cat: Subsystem::Shard,
                        kind: EventKind::Gauge { value },
                        fields: vec![Field::u64("shard", s as u64), Field::str("phase", *phase)],
                    });
                }
            }
        }
        let [collect, allocate, execute, settle] = seconds;
        ShardPhaseTimings {
            collect,
            allocate,
            execute,
            settle,
        }
    }
}

impl Topology for ShardLink<'_> {
    fn inv_sum(
        &mut self,
        coordinator: &Coordinator<'_>,
        allocating: bool,
    ) -> Result<TwoF64, ProtocolError> {
        self.starts[if allocating { 1 } else { 3 }].get_or_insert_with(Instant::now);
        // The root's telemetry clock follows the wall clock across the
        // aggregate steps, so its phase spans enclose the shards' spans.
        coordinator.set_now(self.now().seconds());
        if let (false, Some(s)) = (allocating, self.merged) {
            return Ok(s);
        }
        self.relay.wire = coordinator.wire_context();
        let mut partials = Vec::with_capacity(self.ranges.len());
        for (s, range) in self.ranges.iter().enumerate() {
            let partial = coordinator.partial_inv_sum(range.clone());
            if !allocating {
                partials.push(partial);
                continue;
            }
            // At allocation the partials travel as ShardSum frames: both
            // double-double limbs on the wire, so the merge is exact.
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
        let s = merge_inv_sums(&partials);
        self.merged = Some(s);
        Ok(s)
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
        let profiling = self.clock.is_some();
        let batches = fan_out(
            &inputs,
            |s, input| verify_shard(s, input, &sim, round, relay, profiling),
            &mut self.stats,
            self.clock.as_mut(),
            1,
        )?;
        coordinator.set_now(self.now().seconds());
        // Fold each shard's profile frame into the profiler and scatter its
        // estimates into the full-width vector the commit journals
        // (excluded machines: no verification evidence, 0).
        let mut shard_estimates = Vec::with_capacity(inputs.len());
        for (batch, input) in batches.iter().zip(&inputs) {
            if let Some(clock) = self.clock.as_mut() {
                ingest_profile(clock.profiler, batch.prof.as_deref(), &input.idx)?;
            }
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
        self.starts[phase].get_or_insert_with(Instant::now);
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
/// coordinator's ledger; no trace) and the root's phase timings.
///
/// `faults` drops frames exactly as a single-coordinator round under
/// [`crate::chaos::ChaosConfig`] with `bid_retries: 0`: lost bids exclude
/// the machine at the bid timeout, lost acks don't delay settlement,
/// partitioned machines see nothing. Lost frames are counted as sent.
///
/// With a `profiler` that samples this round, each shard's verify worker
/// ships a [`Message::ShardProfile`] frame (its block-timed per-machine
/// wall-time sketch and slowest block) into the profiler's cross-shard
/// rollup, with each worker's per-phase wall time. Only the profiler counts those
/// frames, and its probe only observes the kernel, so the outcome, the
/// journal and [`MessageStats`] are bit-identical with or without it.
///
/// # Errors
/// Propagates mechanism errors (notably
/// [`lb_mechanism::MechanismError::NeedTwoAgents`] when fewer than two bids
/// survive), journal failures (including injected crashes) and codec
/// errors; [`ProtocolError::ReplayMismatch`] if a profiled verify worker
/// returns a missing or corrupt profile frame. A panicking shard worker
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
    profiler: Option<&mut RoundProfiler>,
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
    let profiler = profiler.filter(|p| p.should_profile(round.0));
    let sim = config.simulation;
    let mut link = ShardLink::new(round, specs, shards, sim, faults, &collector, profiler);
    let actual: Vec<f64> = specs.iter().map(|spec| spec.exec_value).collect();
    root.set_now(link.now().seconds());
    // A fresh root opens by requesting every bid, a recovered one with
    // whatever its replayed phase still owes.
    let opening = root.resume_in(&actual, &mut link)?;
    let timers = &mut EventQueue::new();
    let drive = drive_round(
        &mut link,
        timers,
        None,
        &*collector,
        root,
        &mut [],
        &actual,
        opening,
        true,
    )?;
    let timings = link.finish(round);
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
        profiler: Option<&RefCell<RoundProfiler>>,
        observers: Observers,
    ) -> RoundReport {
        let spec = RoundSpec {
            transport: Transport::Sharded { shards, profiler },
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
            let report = sharded(&mech, &specs, k, None, Observers::default());
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
        drive_sharded_round(&mut root, &specs, &cfg, 4, &FaultPlan::none(), None).unwrap();
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
            drive_sharded_round(&mut root, &specs, &cfg, 4, &FaultPlan::none(), None).unwrap();
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
            None,
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
        for (name, parent) in [
            ("shard.collect", collect),
            ("shard.verify", allocate),
            ("shard.execute", execute),
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
        assert_eq!(
            events.iter().filter(|e| e.name == "shard.settle").count(),
            k
        );
        // The net counters agree with the report's frame accounting.
        let mut reg = lb_telemetry::MetricsRegistry::new();
        reg.ingest(&events);
        assert_eq!(reg.counter("net.messages"), report.outcome.stats.messages);
        assert_eq!(reg.counter("net.bytes"), report.outcome.stats.bytes);
    }

    #[test]
    fn profiled_round_is_bit_identical_and_fills_the_rollup() {
        let mech = CompensationBonusMechanism::paper();
        let specs = truthful_specs();
        let k = 4;
        let plain = sharded(&mech, &specs, k, None, Observers::default());

        let profiler = RefCell::new(RoundProfiler::new());
        let profiled = sharded(&mech, &specs, k, Some(&profiler), Observers::default());
        let profiler = profiler.into_inner();

        assert_eq!(
            plain.outcome.rates, profiled.outcome.rates,
            "allocations bit-identical"
        );
        assert_eq!(
            plain.outcome.payments, profiled.outcome.payments,
            "payments bit-identical"
        );
        assert_eq!(
            plain.outcome.estimated_exec_values, profiled.outcome.estimated_exec_values,
            "estimates bit-identical"
        );
        assert_eq!(plain.excluded, profiled.excluded);
        assert_eq!(
            plain.outcome.stats.messages, profiled.outcome.stats.messages,
            "profile frames never enter the protocol's message count"
        );
        assert_eq!(plain.outcome.stats.bytes, profiled.outcome.stats.bytes);

        assert_eq!(profiler.rounds_profiled(), 1);
        let (frames, bytes) = profiler.frames();
        assert_eq!(frames, k as u64, "one profile frame per shard");
        assert!(bytes > 0);
        let rollup = profiler.rollup();
        assert_eq!(rollup.shards().count(), k);
        assert_eq!(
            rollup.fleet_machine().count(),
            specs.len() as u64,
            "every respondent's verification wall time lands in the fleet sketch"
        );
        for phase in 0..PHASES.len() {
            assert_eq!(rollup.fleet_phase(phase).count(), k as u64);
            assert_eq!(profiler.series()[phase].count(), 1);
        }
        for shard in rollup.shards() {
            let (machine, wall) = shard.slowest_machine.expect("slowest recorded");
            assert!(
                shard_ranges(specs.len(), k)[shard.shard as usize].contains(&(machine as usize)),
                "slowest machine id is global and inside its own shard"
            );
            assert!(wall.is_finite() && wall >= 0.0);
        }
        let (round, phase_wall) = profiler.last_round().expect("round recorded");
        assert_eq!(round, 0);
        assert!(phase_wall.iter().all(|w| w.is_finite() && *w >= 0.0));
    }

    #[test]
    fn sampled_profiler_skips_unsampled_rounds_without_perturbing_them() {
        let mech = CompensationBonusMechanism::paper();
        let specs = truthful_specs();
        let round = RoundId(1);
        let mut root = Coordinator::try_new(
            &mech,
            specs.len(),
            config().total_rate,
            round,
            config().simulation,
        )
        .unwrap();
        // Every-2nd-round sampling: round 1 is off-sample, so the profiled
        // driver must behave exactly like the plain one.
        let mut profiler = RoundProfiler::sampled(2);
        let (report, _timings) = drive_sharded_round(
            &mut root,
            &specs,
            &config(),
            3,
            &FaultPlan::none(),
            Some(&mut profiler),
        )
        .unwrap();
        assert_eq!(
            report.outcome.stats.messages,
            expected_sharded_message_count(specs.len(), 3)
        );
        assert_eq!(profiler.rounds_profiled(), 0);
        assert_eq!(profiler.frames(), (0, 0));
        assert!(profiler.rollup().is_empty());
        assert_eq!(report.anomalies.total(), 0);
        let plain = sharded(&mech, &specs, 3, None, Observers::default());
        assert_eq!(plain.outcome.rates, report.outcome.rates);
        assert_eq!(plain.outcome.payments, report.outcome.payments);
    }

    #[test]
    fn profiled_round_emits_per_shard_phase_gauges_and_stays_replayable() {
        use lb_telemetry::{replay_spans, FieldValue, RingCollector};
        let mech = CompensationBonusMechanism::paper();
        let specs = truthful_specs();
        let ring = Arc::new(RingCollector::new(16_384));
        let k = 4;
        let profiler = RefCell::new(RoundProfiler::new());
        let report = sharded(
            &mech,
            &specs,
            k,
            Some(&profiler),
            Observers {
                collector: ring.clone(),
                ..Observers::default()
            },
        );

        let events = ring.snapshot();
        replay_spans(&events).expect("profiled recording still replays cleanly");
        // The net counters still agree with the report: gauges and profile
        // frames are invisible to the protocol's accounting.
        let mut reg = lb_telemetry::MetricsRegistry::new();
        reg.ingest(&events);
        assert_eq!(reg.counter("net.messages"), report.outcome.stats.messages);
        assert_eq!(reg.counter("net.bytes"), report.outcome.stats.bytes);

        let gauges: Vec<_> = events
            .iter()
            .filter(|e| e.name == "shard.phase.seconds")
            .collect();
        assert_eq!(gauges.len(), k * PHASES.len(), "one gauge per shard-phase");
        for phase in PHASES {
            for shard in 0..k as u64 {
                assert!(
                    gauges.iter().any(|e| {
                        e.field("shard") == Some(&FieldValue::U64(shard))
                            && e.field("phase") == Some(&FieldValue::Str(phase.to_string()))
                    }),
                    "gauge for shard {shard} phase {phase}"
                );
            }
        }
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
            drive_sharded_round(&mut root, &specs, &config(), 2, &FaultPlan::none(), None),
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
        let Err(err) = fan_out(vec![(); 3], work, &mut stats, None, 0) else {
            panic!("a panicking worker must fail the stage");
        };
        assert!(matches!(err, ProtocolError::ShardPanicked { shard: 1 }));
        assert!(err.to_string().contains("shard 1"));
        // Traffic from the shards that completed is still accounted.
        assert_eq!(stats.messages, 3);
        assert_eq!(stats.bytes, 96);
    }

    // Pinned regression: a profile frame whose slowest machine lies outside
    // its shard's respondent map is a replay mismatch, not an index panic.
    #[test]
    fn out_of_range_profile_ordinal_is_a_replay_mismatch() {
        let frame = |slowest| {
            let profile = WireShardProfile {
                shard: 0,
                machines: 3,
                machine_wall: LatencySketch::new().to_wire(),
                slowest,
            };
            encode_with_context(
                &Message::ShardProfile {
                    round: RoundId(0),
                    shard: 0,
                    profile: Box::new(profile),
                },
                None,
            )
        };
        let idx = [4, 5, 6];
        let mut profiler = RoundProfiler::new();
        for local in [3, u64::MAX] {
            assert!(matches!(
                ingest_profile(&mut profiler, Some(&frame(Some((local, 0.1)))), &idx),
                Err(ProtocolError::ReplayMismatch { .. })
            ));
        }
        assert!(matches!(
            ingest_profile(&mut profiler, None, &idx),
            Err(ProtocolError::ReplayMismatch { .. })
        ));
        ingest_profile(&mut profiler, Some(&frame(Some((2, 0.1)))), &idx).unwrap();
        let shard = profiler.rollup().shards().next().unwrap();
        assert_eq!(shard.slowest_machine, Some((6, 0.1)));
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
        let result = drive_sharded_round(&mut root, &specs, &cfg, 3, &FaultPlan::none(), None);
        assert!(matches!(result, Err(ProtocolError::Mechanism(_))));
        let replay = crate::journal::read_journal(&journal.borrow().bytes().unwrap()).unwrap();
        let bids = replay
            .records
            .iter()
            .filter(|r| matches!(r, JournalRecord::BidAccepted { .. }));
        assert_eq!(bids.count(), specs.len(), "every bid was in");

        let spec = RoundSpec {
            transport: Transport::Sharded {
                shards: 3,
                profiler: None,
            },
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
        let mut link = ShardLink::new(RoundId(0), &specs, 2, sim, &faults, &noop_collector(), None);
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
        let mut link = ShardLink::new(RoundId(0), &specs, 2, sim, &faults, &noop_collector(), None);
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
            drive_sharded_round(&mut root, &specs, &config(), 3, &faults, None).unwrap();
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
