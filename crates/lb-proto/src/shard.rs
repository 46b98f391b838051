//! Sharded hierarchical coordinator: million-machine rounds over a
//! two-level tree.
//!
//! The single [`crate::coordinator::Coordinator`] tops out well below 10⁶
//! machines: every phase funnels through one state machine that touches
//! every frame. This module splits a round across `k` *shard coordinators*,
//! each owning a contiguous slice of `n/k` machines:
//!
//! * **Collect** — each shard requests and gathers its own slice's bids in
//!   parallel (one worker thread per shard), forwarding the accepted `Bid`
//!   frames upward over the existing wire codec.
//! * **Aggregate** — each shard reduces its respondent bids to a partial
//!   double-double harmonic sum `Σ 1/b_i`, shipped upward as a
//!   [`Message::ShardSum`] carrying both limbs; the root merges the partials
//!   with [`lb_core::merge_inv_sums`] (a balanced pairwise tree) and runs
//!   the PR allocation against the merged sum.
//! * **Execute / verify** — each shard runs the verification simulation for
//!   its own respondents ([`lb_sim::driver::simulate_partition`], whose
//!   per-machine RNG streams are keyed by global respondent ordinal, so the
//!   sharded observation is bit-identical to the unsharded one) and ships
//!   the estimates upward as [`Message::ShardEstimates`].
//! * **Settle** — the root computes payments against the merged sum and the
//!   shards fan the `Payment` frames back down in parallel.
//!
//! The root stays on the calling thread (it owns the non-`Send` journal
//! handle); shard workers run under [`std::thread::scope`] and only touch
//! their own agents plus the shared, thread-safe
//! [`lb_telemetry::Collector`]. Frames are decoded and ingested at the root
//! in shard order, so the journal grammar — `RoundOpened`, ascending
//! `BidAccepted`/`ExclusionDecided`, `AllocationCommitted`,
//! `ExecutionObserved`, `PaymentsCommitted`, the seals — is byte-identical
//! to an uninterrupted run regardless of worker scheduling, and
//! [`crate::recovery::recover_round`] + [`drive_sharded_round`] resume a
//! crashed sharded round from any record boundary.
//!
//! # Numerical contract
//!
//! The merged harmonic sum differs from the sequential single-coordinator
//! fold only by the double-double representation error, about `n · 2⁻¹⁰⁶`
//! relative — far below the `2⁻⁵³` step of the final `f64` rounding, so
//! allocations and payments are bit-identical to the single-coordinator
//! round for every shard count (`k = 1` *is* the sequential fold). The
//! `lb-fuzz` `shard` oracle re-checks this differentially every CI run.

use crate::codec::{decode_with_context, encode_with_context, CodecError};
use crate::coordinator::{Coordinator, CoordinatorPhase, ProtocolError};
use crate::faults::FaultPlan;
use crate::message::{Message, RoundId};
use crate::network::MessageStats;
use crate::node::{NodeAgent, NodeSpec};
use crate::runtime::{ProtocolConfig, RoundReport, RoundSpec};
use lb_core::{inv_sum_dd, merge_inv_sums, CoreError, TwoF64};
use lb_mechanism::MechanismError;
use lb_prof::{LatencySketch, RoundProfiler, WireShardProfile, PHASES};
use lb_sim::driver::{simulate_partition_observed, simulate_partition_timed, SimulationConfig};
use lb_telemetry::{Collector, EventKind, Field, SpanId, Subsystem, TelemetryEvent, TraceContext};
use std::borrow::Cow;
use std::cell::RefCell;
use std::ops::Range;
use std::sync::Arc;
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
/// the partial-sum merge and the distributed verification simulation).
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

fn codec_err(e: CodecError) -> ProtocolError {
    crate::network::codec_error(e).into()
}

/// Counts one encoded frame into shard-local stats and, when telemetry is
/// on, the shared `net.*` counters (same accounting as the threaded
/// runtime).
fn count_frame(stats: &mut MessageStats, collector: &dyn Collector, epoch: Instant, frame: &[u8]) {
    stats.messages += 1;
    stats.bytes += frame.len() as u64;
    if collector.enabled() {
        let at = epoch.elapsed().as_secs_f64();
        collector.counter(at, "net.messages", Subsystem::Network, 1);
        collector.counter(at, "net.bytes", Subsystem::Network, frame.len() as u64);
    }
}

fn shard_span(
    collector: &dyn Collector,
    epoch: Instant,
    name: &'static str,
    parent: SpanId,
    shard: usize,
    machines: usize,
) -> SpanId {
    if !collector.enabled() {
        return SpanId::NULL;
    }
    collector.span_start_in(
        epoch.elapsed().as_secs_f64(),
        name,
        Subsystem::Shard,
        parent,
        vec![
            Field::u64("shard", shard as u64),
            Field::u64("machines", machines as u64),
        ],
    )
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

/// Whether a machine's bid is lost on the way up. `lose_bid_attempts` with
/// any `k >= 1` is fatal here because the sharded driver, like a chaos
/// round with `bid_retries: 0`, never retries.
fn bid_lost(faults: &FaultPlan, machine: u32) -> bool {
    faults.lose_bids_from.contains(&machine)
        || faults.partitioned.contains(&machine)
        || faults
            .lose_bid_attempts
            .iter()
            .any(|&(m, k)| m == machine && k >= 1)
}

fn ack_lost(faults: &FaultPlan, machine: u32) -> bool {
    faults.lose_acks_from.contains(&machine) || faults.partitioned.contains(&machine)
}

/// Splits `agents` into per-shard mutable slices following `ranges`.
fn shard_slices<'a>(
    agents: &'a mut [NodeAgent],
    ranges: &[Range<usize>],
) -> Vec<&'a mut [NodeAgent]> {
    let mut out = Vec::with_capacity(ranges.len());
    let mut rest = agents;
    for r in ranges {
        let (head, tail) = rest.split_at_mut(r.len());
        out.push(head);
        rest = tail;
    }
    out
}

/// The root's view of who can still participate: the accepted bid for
/// non-excluded machines, `None` elsewhere.
fn respondent_bids(root: &Coordinator<'_>) -> Vec<Option<f64>> {
    root.bid_slots()
        .iter()
        .zip(root.excluded())
        .map(|(bid, &excluded)| if excluded { None } else { *bid })
        .collect()
}

/// Recomputes the merged harmonic sum from the root's current bid state —
/// per-shard partials over the same ranges, merged the same way — so a
/// recovered round settles against bit-identically the sum the crashed
/// process allocated with.
fn merged_sum(root: &Coordinator<'_>, ranges: &[Range<usize>]) -> TwoF64 {
    let bids = respondent_bids(root);
    let partials: Vec<TwoF64> = ranges
        .iter()
        .map(|r| {
            let values: Vec<f64> = bids[r.clone()].iter().filter_map(|b| *b).collect();
            inv_sum_dd(&values)
        })
        .collect();
    merge_inv_sums(&partials)
}

/// What one shard worker hands back up: the encoded node-originated frames
/// in ascending machine order, plus the frames it counted (both directions).
///
/// `elapsed` and `prof` are profiler-only side channels: the worker's own
/// wall time, and — on profiled verify stages — the encoded
/// [`Message::ShardProfile`] frame, carried *outside* `up` so it never
/// enters the protocol's frame accounting or the root's ingest loop.
#[derive(Default)]
struct ShardBatch {
    up: Vec<Vec<u8>>,
    sent: MessageStats,
    elapsed: f64,
    prof: Option<Vec<u8>>,
}

#[allow(clippy::too_many_arguments)]
fn collect_shard(
    shard: usize,
    range: Range<usize>,
    agents: &mut [NodeAgent],
    already: &[bool],
    excluded: &[bool],
    faults: &FaultPlan,
    round: RoundId,
    wire: Option<TraceContext>,
    parent: SpanId,
    collector: &dyn Collector,
    epoch: Instant,
) -> Result<ShardBatch, ProtocolError> {
    let started = Instant::now();
    let mut batch = ShardBatch::default();
    let span = shard_span(
        collector,
        epoch,
        "shard.collect",
        parent,
        shard,
        range.len(),
    );
    for (agent, i) in agents.iter_mut().zip(range) {
        let machine = agent.machine;
        // Machines that already bid (a recovered round's durable prefix),
        // quarantined machines, and partitioned machines get no request.
        if already[i] || excluded[i] || faults.partitioned.contains(&machine) {
            continue;
        }
        let request = Message::RequestBid { round };
        let frame = encode_with_context(&request, wire.as_ref());
        count_frame(&mut batch.sent, collector, epoch, &frame);
        let (request, _ctx): (Message, Option<TraceContext>) =
            decode_with_context(&frame).map_err(codec_err)?;
        let Some(bid) = agent.handle(&request) else {
            continue;
        };
        if bid_lost(faults, machine) {
            continue;
        }
        let ctx = upward_ctx(wire, span);
        let frame = encode_with_context(&bid, ctx.as_ref());
        count_frame(&mut batch.sent, collector, epoch, &frame);
        batch.up.push(frame);
    }
    collector.span_end(epoch.elapsed().as_secs_f64(), span);
    batch.elapsed = started.elapsed().as_secs_f64();
    Ok(batch)
}

#[allow(clippy::too_many_arguments)]
fn verify_shard(
    shard: usize,
    sub_bids: &[f64],
    sub_exec: &[f64],
    sub_rates: &[f64],
    stream_offset: u64,
    sim: &SimulationConfig,
    round: RoundId,
    wire: Option<TraceContext>,
    parent: SpanId,
    collector: &dyn Collector,
    epoch: Instant,
    profile: bool,
) -> Result<ShardBatch, ProtocolError> {
    let started = Instant::now();
    let mut batch = ShardBatch::default();
    let span = shard_span(
        collector,
        epoch,
        "shard.verify",
        parent,
        shard,
        sub_bids.len(),
    );
    let shard_u32 = shard_wire_id(shard)?;
    let report = if profile {
        // Profiled verify: identical kernel, plus a per-machine wall-time
        // probe feeding the shard's sketch. The probe observes the loop
        // without participating, so estimates are bit-identical to the
        // unprofiled path.
        let mut machine_wall = LatencySketch::new();
        let mut slowest: Option<(u64, f64)> = None;
        let report = simulate_partition_timed(
            sub_bids,
            sub_exec,
            sub_rates,
            sim,
            stream_offset,
            collector,
            span,
            &mut |machine, wall| {
                machine_wall.record(wall);
                if slowest.is_none_or(|(_, w)| wall > w) {
                    // Keep the *local* respondent ordinal: the worker does
                    // not know the global index space; the root maps it.
                    slowest = Some((machine - stream_offset, wall));
                }
            },
        )
        .map_err(|e| ProtocolError::from(MechanismError::Core(e)))?;
        let msg = Message::ShardProfile {
            round,
            shard: shard_u32,
            profile: WireShardProfile {
                shard: shard_u32,
                machines: sub_bids.len() as u64,
                machine_wall: machine_wall.to_wire(),
                slowest,
            },
        };
        let ctx = upward_ctx(wire, span);
        // Deliberately NOT count_frame'd: profiling frames are accounted by
        // the profiler alone, never MessageStats or the net.* counters.
        batch.prof = Some(encode_with_context(&msg, ctx.as_ref()));
        report
    } else {
        simulate_partition_observed(
            sub_bids,
            sub_exec,
            sub_rates,
            sim,
            stream_offset,
            collector,
            span,
        )
        .map_err(|e| ProtocolError::from(MechanismError::Core(e)))?
    };
    let msg = Message::ShardEstimates {
        round,
        shard: shard_u32,
        estimates: report.estimated_exec_values,
    };
    let ctx = upward_ctx(wire, span);
    let frame = encode_with_context(&msg, ctx.as_ref());
    count_frame(&mut batch.sent, collector, epoch, &frame);
    batch.up.push(frame);
    collector.span_end(epoch.elapsed().as_secs_f64(), span);
    batch.elapsed = started.elapsed().as_secs_f64();
    Ok(batch)
}

#[allow(clippy::too_many_arguments)]
fn execute_shard(
    shard: usize,
    range: Range<usize>,
    agents: &mut [NodeAgent],
    assigns: &[(usize, Message)],
    faults: &FaultPlan,
    wire: Option<TraceContext>,
    parent: SpanId,
    collector: &dyn Collector,
    epoch: Instant,
) -> Result<ShardBatch, ProtocolError> {
    let started = Instant::now();
    let mut batch = ShardBatch::default();
    let span = shard_span(
        collector,
        epoch,
        "shard.execute",
        parent,
        shard,
        assigns.len(),
    );
    for (i, msg) in assigns {
        let local = i - range.start;
        let machine = agents[local].machine;
        if faults.partitioned.contains(&machine) {
            continue;
        }
        let frame = encode_with_context(msg, wire.as_ref());
        count_frame(&mut batch.sent, collector, epoch, &frame);
        let (assign, _ctx): (Message, Option<TraceContext>) =
            decode_with_context(&frame).map_err(codec_err)?;
        let Some(ack) = agents[local].handle(&assign) else {
            continue;
        };
        if ack_lost(faults, machine) {
            continue;
        }
        let ctx = upward_ctx(wire, span);
        let frame = encode_with_context(&ack, ctx.as_ref());
        count_frame(&mut batch.sent, collector, epoch, &frame);
        batch.up.push(frame);
    }
    collector.span_end(epoch.elapsed().as_secs_f64(), span);
    batch.elapsed = started.elapsed().as_secs_f64();
    Ok(batch)
}

#[allow(clippy::too_many_arguments)]
fn settle_shard(
    shard: usize,
    range: Range<usize>,
    agents: &mut [NodeAgent],
    payments: &[(usize, Message)],
    faults: &FaultPlan,
    wire: Option<TraceContext>,
    collector: &dyn Collector,
    epoch: Instant,
) -> Result<ShardBatch, ProtocolError> {
    let started = Instant::now();
    let mut batch = ShardBatch::default();
    for (i, msg) in payments {
        let local = i - range.start;
        let machine = agents[local].machine;
        if faults.partitioned.contains(&machine) {
            continue;
        }
        let frame = encode_with_context(msg, wire.as_ref());
        count_frame(&mut batch.sent, collector, epoch, &frame);
        let (payment, _ctx): (Message, Option<TraceContext>) =
            decode_with_context(&frame).map_err(codec_err)?;
        let _ = agents[local].handle(&payment);
    }
    // The phase spans closed when the root settled, so the downward
    // delivery is an instant, not a span.
    collector.instant(
        epoch.elapsed().as_secs_f64(),
        "shard.settle",
        Subsystem::Shard,
        vec![
            Field::u64("shard", shard as u64),
            Field::u64("machines", payments.len() as u64),
        ],
    );
    batch.elapsed = started.elapsed().as_secs_f64();
    Ok(batch)
}

/// Joins one stage's workers in shard order, folding their traffic into
/// `stats` and returning the whole batches (upward frames plus the
/// profiler-only side channels), still shard-ordered.
fn join_stage(
    handles: Vec<std::thread::ScopedJoinHandle<'_, Result<ShardBatch, ProtocolError>>>,
    stats: &mut MessageStats,
) -> Result<Vec<ShardBatch>, ProtocolError> {
    let mut batches = Vec::with_capacity(handles.len());
    // Join *every* handle even after a failure: an unjoined panicked scoped
    // thread would re-raise its panic when the scope closes, turning a
    // contained shard failure back into a root abort. The first error wins;
    // traffic from shards that did complete still counts.
    let mut first_err: Option<ProtocolError> = None;
    for (shard, handle) in handles.into_iter().enumerate() {
        match handle.join() {
            Ok(Ok(batch)) => {
                stats.messages += batch.sent.messages;
                stats.bytes += batch.sent.bytes;
                batches.push(batch);
            }
            Ok(Err(e)) => first_err = first_err.or(Some(e)),
            Err(_) => first_err = first_err.or(Some(ProtocolError::ShardPanicked { shard })),
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(batches),
    }
}

/// Drives one sharded round to completion on `root`, which may be freshly
/// constructed *or* recovered mid-round by [`crate::recovery::recover_round`]
/// — the driver picks up from whatever phase the replay reconstructed, and
/// the records it appends continue the journal exactly where an
/// uninterrupted run would have, so crash-recovered and uninterrupted rounds
/// produce byte-identical journals.
///
/// `faults` drops frames exactly as a single-coordinator round under
/// [`crate::chaos::ChaosConfig`] with `bid_retries: 0`: lost bids exclude
/// the machine at the bid timeout, lost acks don't delay settlement,
/// partitioned machines see nothing.
///
/// With a `profiler` that samples this round, each shard's verify worker
/// ships a [`Message::ShardProfile`] frame (its per-machine wall-time
/// sketch plus its slowest machine) alongside the estimates, and the root
/// ingests them into the profiler's cross-shard rollup together with each
/// worker's per-phase wall time. Profiling frames are counted exclusively
/// by the profiler's own accounting — never [`MessageStats`] or the `net.*`
/// counters — and the probe observes the verification kernel without
/// participating, so rates, payments, estimates, exclusions, the journal
/// and the message statistics are bit-identical with the profiler attached,
/// detached, or sampling.
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
    mut profiler: Option<&mut RoundProfiler>,
) -> Result<(MessageStats, ShardPhaseTimings), ProtocolError> {
    let n = specs.len();
    if n != root.bid_slots().len() {
        return Err(CoreError::LengthMismatch {
            expected: root.bid_slots().len(),
            actual: n,
        }
        .into());
    }
    let round = root.round();
    let collector = Arc::clone(root.collector());
    let epoch = Instant::now();
    let ranges = shard_ranges(n, shards);
    let mut stats = MessageStats::default();
    let mut timings = ShardPhaseTimings::default();
    let profiling = profiler.as_ref().is_some_and(|p| p.should_profile(round.0));
    // This round's per-shard phase seconds, kept for the gauge emission
    // after settlement (telemetry-only; outcomes never read it).
    let mut shard_phase: Vec<[f64; 4]> = vec![[0.0; 4]; ranges.len()];

    // Machine ids travel as u32; the width was validated when the root was
    // constructed, but the driver re-checks instead of carrying a reachable
    // panic on the hot path.
    if u32::try_from(n).is_err() {
        return Err(ProtocolError::TooManyNodes { n });
    }
    #[allow(clippy::cast_possible_truncation)]
    let mut agents: Vec<NodeAgent> = specs
        .iter()
        .enumerate()
        .map(|(i, &spec)| NodeAgent::new(i as u32, spec))
        .collect();

    // The merged harmonic sum, carried from allocation to settlement.
    // Recomputed from journal state when the round resumes past allocation.
    let mut merged: Option<TwoF64> = None;

    // ---- Collect: shard-local bid gathering, upward ingest, timeout. ----
    if root.phase() == CoordinatorPhase::CollectingBids {
        let t = Instant::now();
        root.set_now(epoch.elapsed().as_secs_f64());
        root.ensure_round_span();
        let wire = root.wire_context();
        let parent = root.phase_span();
        let already: Vec<bool> = root.bid_slots().iter().map(Option::is_some).collect();
        let excluded = root.excluded().to_vec();

        let batches = std::thread::scope(|scope| {
            let handles = ranges
                .iter()
                .enumerate()
                .zip(shard_slices(&mut agents, &ranges))
                .map(|((s, range), slice)| {
                    let (already, excluded, collector) = (&already, &excluded, &collector);
                    let range = range.clone();
                    scope.spawn(move || {
                        collect_shard(
                            s,
                            range,
                            slice,
                            already,
                            excluded,
                            faults,
                            round,
                            wire,
                            parent,
                            &**collector,
                            epoch,
                        )
                    })
                })
                .collect();
            join_stage(handles, &mut stats)
        })?;
        if profiling {
            if let Some(p) = profiler.as_deref_mut() {
                for (s, batch) in batches.iter().enumerate() {
                    p.record_phase(s as u32, 0, batch.elapsed);
                    shard_phase[s][0] = batch.elapsed;
                }
            }
        }
        for frame in batches.into_iter().flat_map(|b| b.up) {
            let (msg, _ctx): (Message, Option<TraceContext>) =
                decode_with_context(&frame).map_err(codec_err)?;
            root.set_now(epoch.elapsed().as_secs_f64());
            root.ingest(&msg)?;
        }
        root.set_now(epoch.elapsed().as_secs_f64());
        root.close_bidding_sharded()?;
        timings.collect = t.elapsed().as_secs_f64();
    }

    // ---- Aggregate + allocate + distributed verification. ----
    if root.phase() == CoordinatorPhase::CollectingBids {
        let t = Instant::now();
        let bids = respondent_bids(root);
        let wire = root.wire_context();

        // Partial harmonic sums travel as ShardSum frames: both double-double
        // limbs on the wire, so the merge at the root is exact.
        let mut partials = Vec::with_capacity(ranges.len());
        for (s, range) in ranges.iter().enumerate() {
            let values: Vec<f64> = bids[range.clone()].iter().filter_map(|b| *b).collect();
            let partial = inv_sum_dd(&values);
            let msg = Message::ShardSum {
                round,
                shard: shard_wire_id(s)?,
                sum_hi: partial.hi,
                sum_lo: partial.lo,
            };
            let frame = encode_with_context(&msg, wire.as_ref());
            count_frame(&mut stats, &*collector, epoch, &frame);
            let (decoded, _ctx): (Message, Option<TraceContext>) =
                decode_with_context(&frame).map_err(codec_err)?;
            let Message::ShardSum { sum_hi, sum_lo, .. } = decoded else {
                return Err(ProtocolError::ReplayMismatch {
                    what: "shard sum frame decoded to a different message",
                });
            };
            partials.push(TwoF64 {
                hi: sum_hi,
                lo: sum_lo,
            });
        }
        let s_dd = merge_inv_sums(&partials);
        merged = Some(s_dd);

        root.set_now(epoch.elapsed().as_secs_f64());
        let rates = root.begin_allocation_sharded(s_dd)?;
        let parent = root.phase_span();

        // Per-shard verification simulation: each shard simulates its own
        // respondents at their global respondent stream offsets.
        let mut shard_inputs = Vec::with_capacity(ranges.len());
        let mut offset = 0u64;
        for range in &ranges {
            // An empty bid slot inside the range is a silent machine (lost
            // frame, timeout exclusion): it is filtered into the same
            // excluded-respondent path the root applied at the bid timeout,
            // never assumed to have answered.
            let present: Vec<(usize, f64)> = range
                .clone()
                .filter_map(|i| bids[i].map(|b| (i, b)))
                .collect();
            let idx: Vec<usize> = present.iter().map(|&(i, _)| i).collect();
            let sub_bids: Vec<f64> = present.iter().map(|&(_, b)| b).collect();
            let sub_exec: Vec<f64> = idx.iter().map(|&i| specs[i].exec_value).collect();
            let sub_rates: Vec<f64> = idx.iter().map(|&i| rates[i]).collect();
            let m = idx.len() as u64;
            shard_inputs.push((idx, sub_bids, sub_exec, sub_rates, offset));
            offset += m;
        }
        let sim = config.simulation;
        let batches = std::thread::scope(|scope| {
            let handles = shard_inputs
                .iter()
                .enumerate()
                .map(|(s, (_, sub_bids, sub_exec, sub_rates, off))| {
                    let (collector, sim) = (&collector, &sim);
                    let off = *off;
                    scope.spawn(move || {
                        verify_shard(
                            s,
                            sub_bids,
                            sub_exec,
                            sub_rates,
                            off,
                            sim,
                            round,
                            wire,
                            parent,
                            &**collector,
                            epoch,
                            profiling,
                        )
                    })
                })
                .collect();
            join_stage(handles, &mut stats)
        })?;

        // Ingest the profiling side channel: per-shard wall time and the
        // ShardProfile frames, with the slowest machine's shard-local
        // ordinal mapped back to its global index via the respondent map.
        if profiling {
            if let Some(p) = profiler.as_deref_mut() {
                for (s, batch) in batches.iter().enumerate() {
                    p.record_phase(s as u32, 1, batch.elapsed);
                    shard_phase[s][1] = batch.elapsed;
                    let frame = batch.prof.as_ref().ok_or(ProtocolError::ReplayMismatch {
                        what: "missing shard profile frame",
                    })?;
                    p.note_frame(frame.len());
                    let (msg, _ctx): (Message, Option<TraceContext>) =
                        decode_with_context(frame).map_err(codec_err)?;
                    let Message::ShardProfile { profile, .. } = msg else {
                        return Err(ProtocolError::ReplayMismatch {
                            what: "shard profile frame decoded to a different message",
                        });
                    };
                    let slowest_global = profile
                        .slowest
                        .map(|(local, w)| (shard_inputs[s].0[local as usize] as u64, w));
                    p.ingest_shard(&profile, slowest_global).map_err(|_| {
                        ProtocolError::ReplayMismatch {
                            what: "corrupt shard profile frame",
                        }
                    })?;
                }
            }
        }

        // Scatter the shard estimates into the full-width vector the commit
        // journals (excluded machines: no verification evidence, 0).
        let mut estimates = vec![0.0; n];
        for (batch, (idx, ..)) in batches.iter().zip(&shard_inputs) {
            let frame = batch.up.first().ok_or(ProtocolError::ReplayMismatch {
                what: "missing shard estimate frame",
            })?;
            let (msg, _ctx): (Message, Option<TraceContext>) =
                decode_with_context(frame).map_err(codec_err)?;
            let Message::ShardEstimates { estimates: est, .. } = msg else {
                return Err(ProtocolError::ReplayMismatch {
                    what: "shard estimate frame decoded to a different message",
                });
            };
            if est.len() != idx.len() {
                return Err(CoreError::LengthMismatch {
                    expected: idx.len(),
                    actual: est.len(),
                }
                .into());
            }
            for (&i, v) in idx.iter().zip(est) {
                estimates[i] = v;
            }
        }
        root.set_now(epoch.elapsed().as_secs_f64());
        root.commit_allocation_sharded(rates, estimates)?;
        timings.allocate = t.elapsed().as_secs_f64();
    }

    // ---- Execute: Assign fan-out, shard-local acks, upward ingest. ----
    if root.phase() == CoordinatorPhase::Executing {
        let t = Instant::now();
        // Rebuild the pending fan-out from round state rather than trusting
        // the commit's return value: on a recovered round, machines whose
        // acks are already journalled must not be re-assigned.
        let assigns: Vec<Vec<(usize, Message)>> = {
            let bids = respondent_bids(root);
            let done = root.done_flags();
            let alloc = root
                .allocation()
                .ok_or(ProtocolError::MissingState { what: "allocation" })?;
            ranges
                .iter()
                .map(|r| {
                    r.clone()
                        .filter(|&i| bids[i].is_some() && !done[i])
                        .map(|i| {
                            (
                                i,
                                Message::Assign {
                                    round,
                                    rate: alloc.rate(i),
                                },
                            )
                        })
                        .collect()
                })
                .collect()
        };
        let wire = root.wire_context();
        let parent = root.phase_span();
        let batches = std::thread::scope(|scope| {
            let handles = ranges
                .iter()
                .enumerate()
                .zip(shard_slices(&mut agents, &ranges))
                .zip(&assigns)
                .map(|(((s, range), slice), shard_assigns)| {
                    let collector = &collector;
                    let range = range.clone();
                    scope.spawn(move || {
                        execute_shard(
                            s,
                            range,
                            slice,
                            shard_assigns,
                            faults,
                            wire,
                            parent,
                            &**collector,
                            epoch,
                        )
                    })
                })
                .collect();
            join_stage(handles, &mut stats)
        })?;
        if profiling {
            if let Some(p) = profiler.as_deref_mut() {
                for (s, batch) in batches.iter().enumerate() {
                    p.record_phase(s as u32, 2, batch.elapsed);
                    shard_phase[s][2] = batch.elapsed;
                }
            }
        }
        for frame in batches.into_iter().flat_map(|b| b.up) {
            let (msg, _ctx): (Message, Option<TraceContext>) =
                decode_with_context(&frame).map_err(codec_err)?;
            root.set_now(epoch.elapsed().as_secs_f64());
            root.ingest(&msg)?;
        }
        timings.execute = t.elapsed().as_secs_f64();

        // ---- Settle against the merged sum; fan payments back down. ----
        let t = Instant::now();
        let s_dd = merged.unwrap_or_else(|| merged_sum(root, &ranges));
        root.set_now(epoch.elapsed().as_secs_f64());
        let payments = root.settle_sharded(s_dd)?;
        let (sent, shard_settle) = deliver_payments(
            root,
            &mut agents,
            &ranges,
            payments,
            faults,
            &collector,
            epoch,
        )?;
        stats.messages += sent.messages;
        stats.bytes += sent.bytes;
        if profiling {
            if let Some(p) = profiler.as_deref_mut() {
                for (s, &e) in shard_settle.iter().enumerate() {
                    p.record_phase(s as u32, 3, e);
                    shard_phase[s][3] = e;
                }
            }
        }
        timings.settle = t.elapsed().as_secs_f64();
    } else if root.phase() == CoordinatorPhase::Done && !root.is_sealed() {
        // Recovered past settlement but before the seal: re-send the Payment
        // fan-out from the durable ledger (idempotent at the nodes), then
        // seal.
        let t = Instant::now();
        root.set_now(epoch.elapsed().as_secs_f64());
        let payments = root.resume(&[])?;
        let (sent, shard_settle) = deliver_payments(
            root,
            &mut agents,
            &ranges,
            payments,
            faults,
            &collector,
            epoch,
        )?;
        stats.messages += sent.messages;
        stats.bytes += sent.bytes;
        if profiling {
            if let Some(p) = profiler.as_deref_mut() {
                for (s, &e) in shard_settle.iter().enumerate() {
                    p.record_phase(s as u32, 3, e);
                    shard_phase[s][3] = e;
                }
            }
        }
        timings.settle = t.elapsed().as_secs_f64();
    }

    // Close the profiled round: fold the root's phase wall times into the
    // trend series, then surface this round's per-shard phase seconds as
    // `shard.phase.seconds` gauges (telemetry only — the round's outcome
    // was sealed above and never depends on the profiler).
    if profiling && root.is_sealed() {
        if let Some(p) = profiler {
            p.finish_round(
                round.0,
                [
                    timings.collect,
                    timings.allocate,
                    timings.execute,
                    timings.settle,
                ],
            );
            if collector.enabled() {
                let at = epoch.elapsed().as_secs_f64();
                for (s, phases) in shard_phase.iter().enumerate() {
                    for (pidx, &seconds) in phases.iter().enumerate() {
                        collector.record(TelemetryEvent {
                            at,
                            name: Cow::Borrowed("shard.phase.seconds"),
                            cat: Subsystem::Shard,
                            kind: EventKind::Gauge { value: seconds },
                            fields: vec![
                                Field::u64("shard", s as u64),
                                Field::str("phase", PHASES[pidx]),
                            ],
                        });
                    }
                }
            }
        }
    }

    Ok((stats, timings))
}

/// Payment delivery tail shared by the fresh and recovered paths: partition
/// the fan-out by shard, deliver in parallel, seal the round. Returns the
/// delivery traffic plus each shard worker's wall time (profiler-only).
fn deliver_payments(
    root: &mut Coordinator<'_>,
    agents: &mut [NodeAgent],
    ranges: &[Range<usize>],
    payments: Vec<(u32, Message)>,
    faults: &FaultPlan,
    collector: &Arc<dyn Collector>,
    epoch: Instant,
) -> Result<(MessageStats, Vec<f64>), ProtocolError> {
    let wire = root.wire_context();
    let mut per_shard: Vec<Vec<(usize, Message)>> = vec![Vec::new(); ranges.len()];
    for (machine, msg) in payments {
        let i = machine as usize;
        per_shard[shard_of(ranges, i)].push((i, msg));
    }
    let mut stats = MessageStats::default();
    let batches = std::thread::scope(|scope| {
        let handles = ranges
            .iter()
            .enumerate()
            .zip(shard_slices(agents, ranges))
            .zip(&per_shard)
            .map(|(((s, range), slice), shard_payments)| {
                let collector = &*collector;
                let range = range.clone();
                scope.spawn(move || {
                    settle_shard(
                        s,
                        range,
                        slice,
                        shard_payments,
                        faults,
                        wire,
                        &**collector,
                        epoch,
                    )
                })
            })
            .collect();
        join_stage(handles, &mut stats)
    })?;
    let elapsed = batches.iter().map(|b| b.elapsed).collect();
    root.set_now(epoch.elapsed().as_secs_f64());
    root.seal()?;
    Ok((stats, elapsed))
}

/// Runs `spec`'s round over `shards` shard coordinators. The root carries
/// `collector` — its `round`/`phase.*` spans plus per-shard
/// `shard.collect` / `shard.verify` / `shard.execute` spans (each parenting
/// its machines' `sim.machine` spans) and `shard.settle` instants,
/// timestamped with wall-clock seconds since the round started — and
/// `profiler` profiles it.
pub(crate) fn run_sharded(
    spec: &RoundSpec<'_>,
    shards: usize,
    profiler: Option<&RefCell<RoundProfiler>>,
    collector: Arc<dyn Collector>,
) -> Result<RoundReport, ProtocolError> {
    let round = RoundId(0);
    let config = &spec.config;
    let mut root = Coordinator::try_new(
        spec.mechanism,
        spec.specs.len(),
        config.total_rate,
        round,
        config.simulation,
    )?
    .with_collector(Arc::clone(&collector));
    if collector.enabled() {
        root = root.with_trace(TraceContext::root(config.simulation.seed, round.0, true));
    }
    let mut profiler = profiler.map(RefCell::borrow_mut);
    let (stats, _) = drive_sharded_round(
        &mut root,
        spec.specs,
        config,
        shards,
        &FaultPlan::none(),
        profiler.as_deref_mut(),
    )?;
    report_from_root(&root, spec.specs, stats)
}

/// Reads the full-width outcome off a settled root coordinator: rates,
/// payments and estimates from its ledger, utilities from the ledger and
/// each machine's actual execution value in `specs`.
///
/// # Errors
/// Returns [`ProtocolError::MissingState`] if the round has not settled.
pub fn report_from_root(
    root: &Coordinator<'_>,
    specs: &[NodeSpec],
    stats: MessageStats,
) -> Result<RoundReport, ProtocolError> {
    RoundReport::settled(root, specs, &[], stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{Journal, JournalReplay, MemJournal};
    use crate::recovery::{recover_round, RoundContext};
    use crate::runtime::{run_round, Observers, Transport};
    use lb_core::scenario::{paper_true_values, PAPER_ARRIVAL_RATE};
    use lb_mechanism::CompensationBonusMechanism;
    use lb_telemetry::noop_collector;
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
        // The per-machine verification spans nest inside their shard's span.
        let verify_ids: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "shard.verify")
            .map(|s| s.id)
            .collect();
        let machines: Vec<_> = spans.iter().filter(|s| s.name == "sim.machine").collect();
        assert_eq!(machines.len(), specs.len());
        assert!(machines
            .iter()
            .all(|s| s.parent.is_some_and(|p| verify_ids.contains(&p))));
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
        let (stats, _timings) = drive_sharded_round(
            &mut root,
            &specs,
            &config(),
            3,
            &FaultPlan::none(),
            Some(&mut profiler),
        )
        .unwrap();
        assert_eq!(
            stats.messages,
            expected_sharded_message_count(specs.len(), 3)
        );
        assert_eq!(profiler.rounds_profiled(), 0);
        assert_eq!(profiler.frames(), (0, 0));
        assert!(profiler.rollup().is_empty());
        let report = report_from_root(&root, &specs, stats).unwrap();
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

    // Pinned regression (ISSUE 10): shard ids that exceed the u32 wire
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

    // Pinned regression (ISSUE 10): a panicking shard worker surfaces as
    // `ProtocolError::ShardPanicked` after every other worker has been
    // joined — the former `handle.join().expect(...)` took the whole root
    // down, and an unjoined sibling would have re-raised at scope exit.
    #[test]
    fn panicking_shard_worker_degrades_to_a_typed_error() {
        let mut stats = MessageStats::default();
        let err = std::thread::scope(|scope| {
            let handles = vec![
                scope.spawn(|| {
                    let mut batch = ShardBatch::default();
                    batch.sent.messages = 3;
                    batch.sent.bytes = 96;
                    Ok(batch)
                }),
                scope.spawn(|| -> Result<ShardBatch, ProtocolError> {
                    panic!("worker dies mid-phase")
                }),
                scope.spawn(|| Ok(ShardBatch::default())),
            ];
            match join_stage(handles, &mut stats) {
                Err(e) => e,
                Ok(_) => panic!("a panicking worker must fail the stage"),
            }
        });
        assert!(matches!(err, ProtocolError::ShardPanicked { shard: 1 }));
        assert!(err.to_string().contains("shard 1"));
        // Traffic from the shards that completed is still accounted.
        assert_eq!(stats.messages, 3);
        assert_eq!(stats.bytes, 96);
    }

    // Pinned regression (ISSUE 10): a machine that stays silent inside a
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
        let (stats, _timings) =
            drive_sharded_round(&mut root, &specs, &config(), 3, &faults, None).unwrap();
        let report = report_from_root(&root, &specs, stats).unwrap();
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
