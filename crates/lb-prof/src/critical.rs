//! Critical-path analysis over a replayed round trace.
//!
//! A round's wall-time decomposes along the coordinator→shard chain: the
//! root's phase spans are sequential and partition the round span, and
//! within each phase the barrier joins on its *straggler* — the shard span
//! with the latest end, since the root cannot proceed until every worker
//! has reported. [`profile_events`] walks that structure over the
//! [`CompletedSpan`] forest of [`lb_telemetry::replay_spans`]:
//!
//! 1. find the round root (the `round` span);
//! 2. its direct phase children, in start order, are the top-level path —
//!    their summed durations over the round duration is the profile's
//!    **coverage** (≥95 % on a healthy sharded round; the gap is
//!    inter-phase coordinator work that belongs to no phase span);
//! 3. each path node descends into its latest-ending non-simulator child
//!    (the barrier-gating straggler), recording per-node **self-time**
//!    (duration not covered by any child's interval — coordination
//!    overhead) and **blocked-time** (the interval union of its children —
//!    time spent waiting on deeper work);
//! 4. per phase, shard children are ranked by duration into the straggler
//!    table.
//!
//! Simulator (`sim.*`) spans are deliberately excluded from the wall-time
//! path: the simulator records none today, but recordings made by earlier
//! builds carry `sim.machine` spans stamped on the *simulation* clock
//! (`0 → horizon`), whose durations are not wall-time. The shard tier's
//! `shard.*` spans are on the wall clock, one per shard and stage.
//!
//! Timestamps are ordered with [`f64::total_cmp`], so a non-finite span
//! timestamp in a caller's recording gives a (meaningless) profile rather
//! than a panic.
//!
//! The resulting [`RoundProfile`] renders as text for terminal dashboards.

use lb_telemetry::{replay_spans, CompletedSpan, ReplayError, Subsystem, TelemetryEvent};
use std::fmt;
use std::fmt::Write as _;

/// Why a trace could not be profiled.
#[derive(Debug, Clone, PartialEq)]
pub enum ProfileError {
    /// The recording does not replay cleanly.
    Replay(ReplayError),
    /// No `round` span in the trace.
    NoRoundSpan,
    /// The round span has zero (or negative) duration, so attribution is
    /// undefined.
    EmptyRound,
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::Replay(e) => write!(f, "trace does not replay: {e}"),
            ProfileError::NoRoundSpan => write!(f, "no round span in trace"),
            ProfileError::EmptyRound => write!(f, "round span has no duration"),
        }
    }
}

impl std::error::Error for ProfileError {}

impl From<ReplayError> for ProfileError {
    fn from(e: ReplayError) -> Self {
        ProfileError::Replay(e)
    }
}

/// One node on the critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathNode {
    /// Span name (`round`, `phase.allocate`, `shard.verify`, `machine`).
    pub name: String,
    /// Nesting depth on the path (0 = the round span).
    pub depth: usize,
    /// Start timestamp, seconds on the recording clock.
    pub start: f64,
    /// End timestamp.
    pub end: f64,
    /// Duration not covered by any child interval: the node's own work.
    pub self_time: f64,
    /// Interval-union of the node's children: time waiting on deeper work.
    pub blocked_time: f64,
    /// Shard index, when the node is a shard span.
    pub shard: Option<u64>,
    /// Machine id, when the node is a machine leaf.
    pub machine: Option<u64>,
}

impl PathNode {
    /// Node duration in seconds.
    #[must_use]
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// One entry of the per-phase straggler ranking.
#[derive(Debug, Clone, PartialEq)]
pub struct Straggler {
    /// Phase span name the shard gated.
    pub phase: String,
    /// Shard index.
    pub shard: u64,
    /// The shard span's wall duration.
    pub duration: f64,
}

/// The structured report of one profiled round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundProfile {
    /// Round span wall duration, seconds.
    pub round_wall: f64,
    /// Σ top-level path segment durations / round duration.
    pub coverage: f64,
    /// The critical path, root first.
    pub path: Vec<PathNode>,
    /// Per-phase shard ranking, slowest first (top 3 per phase).
    pub stragglers: Vec<Straggler>,
}

/// Shards ranked per phase, slowest first, retained per phase.
const STRAGGLERS_PER_PHASE: usize = 3;

fn field_u64(span: &CompletedSpan, key: &str) -> Option<u64> {
    match span.field(key) {
        Some(lb_telemetry::FieldValue::U64(v)) => Some(*v),
        _ => None,
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_length(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.retain(|&(s, e)| e > lo && s < hi);
    for iv in &mut intervals {
        iv.0 = iv.0.max(lo);
        iv.1 = iv.1.min(hi);
    }
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Profiles a replayed span forest. See the module docs for the algorithm.
///
/// # Errors
/// [`ProfileError::NoRoundSpan`] when the trace has no round root,
/// [`ProfileError::EmptyRound`] when the root has no duration.
fn analyze(spans: &[CompletedSpan]) -> Result<RoundProfile, ProfileError> {
    let root = spans
        .iter()
        .find(|s| s.name == "round")
        .ok_or(ProfileError::NoRoundSpan)?;
    let round_wall = root.duration();
    if round_wall <= 0.0 {
        return Err(ProfileError::EmptyRound);
    }

    let children = |id| -> Vec<&CompletedSpan> {
        let mut kids: Vec<&CompletedSpan> = spans
            .iter()
            .filter(|s| s.parent == Some(id) && s.cat != Subsystem::Sim)
            .collect();
        kids.sort_by(|a, b| a.start.total_cmp(&b.start));
        kids
    };

    // Top level: the root's phase children in start order.
    let phases = children(root.id);
    let covered: f64 = phases.iter().map(|p| p.duration()).sum();
    let coverage = covered / round_wall;

    let mut path = Vec::new();
    let mut stragglers = Vec::new();
    let node_of = |span: &CompletedSpan, depth: usize, kids: &[&CompletedSpan]| PathNode {
        name: span.name.clone(),
        depth,
        start: span.start,
        end: span.end,
        self_time: span.duration()
            - union_length(
                kids.iter().map(|k| (k.start, k.end)).collect(),
                span.start,
                span.end,
            ),
        blocked_time: union_length(
            kids.iter().map(|k| (k.start, k.end)).collect(),
            span.start,
            span.end,
        ),
        shard: field_u64(span, "shard").filter(|_| span.cat == Subsystem::Shard),
        machine: None,
    };

    path.push(node_of(root, 0, &phases));
    for phase in &phases {
        // Descend the barrier chain: at each level the latest-ending child
        // is the straggler that gated the join.
        let mut depth = 1;
        let mut current = *phase;
        loop {
            let kids = children(current.id);
            path.push(node_of(current, depth, &kids));
            if current.cat == Subsystem::Shard {
                // Shard ranking is recorded at the phase level below.
            }
            let Some(straggler) = kids.iter().max_by(|a, b| a.end.total_cmp(&b.end)) else {
                break;
            };
            current = straggler;
            depth += 1;
        }
        // Straggler table: this phase's shard children by duration.
        let mut shard_kids: Vec<&CompletedSpan> = children(phase.id)
            .into_iter()
            .filter(|s| s.cat == Subsystem::Shard)
            .collect();
        shard_kids.sort_by(|a, b| b.duration().total_cmp(&a.duration()));
        for s in shard_kids.iter().take(STRAGGLERS_PER_PHASE) {
            if let Some(shard) = field_u64(s, "shard") {
                stragglers.push(Straggler {
                    phase: phase.name.clone(),
                    shard,
                    duration: s.duration(),
                });
            }
        }
    }

    Ok(RoundProfile {
        round_wall,
        coverage,
        path,
        stragglers,
    })
}

/// Replays `events` (with shard-lineage validation) and profiles the result.
///
/// # Errors
/// Propagates replay errors; [`ProfileError::NoRoundSpan`] when the trace
/// has no round root, [`ProfileError::EmptyRound`] when the root has no
/// duration.
pub fn profile_events(events: &[TelemetryEvent]) -> Result<RoundProfile, ProfileError> {
    let spans = replay_spans(events)?;
    analyze(&spans)
}

impl RoundProfile {
    /// Renders the profile as a fixed-width text block.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "round wall {:.3} ms, critical-path coverage {:.1}%",
            self.round_wall * 1e3,
            self.coverage * 100.0
        );
        for n in &self.path {
            let mut label = n.name.clone();
            if let Some(s) = n.shard {
                let _ = write!(label, "[{s}]");
            }
            if let Some(m) = n.machine {
                let _ = write!(label, " m{m}");
            }
            let _ = writeln!(
                out,
                "{:indent$}{label:<28} {:>10.3} ms  self {:>10.3} ms  blocked {:>10.3} ms",
                "",
                n.duration() * 1e3,
                n.self_time * 1e3,
                n.blocked_time * 1e3,
                indent = n.depth * 2,
            );
        }
        if !self.stragglers.is_empty() {
            let _ = writeln!(out, "stragglers:");
            for s in &self.stragglers {
                let _ = writeln!(
                    out,
                    "  {:<22} shard {:>3}  {:>10.3} ms",
                    s.phase,
                    s.shard,
                    s.duration * 1e3
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lb_telemetry::{Collector, Field, RingCollector, SpanId};

    /// A synthetic two-shard round: phases sequential under the round span,
    /// shard spans under each phase, one shard clearly the straggler.
    fn synthetic_round() -> Vec<TelemetryEvent> {
        let ring = RingCollector::new(256);
        let round = ring.span_start(0.0, "round", Subsystem::Coordinator, vec![]);
        let collect = ring.span_start_in(
            0.0,
            "phase.collect_bids",
            Subsystem::Coordinator,
            round,
            vec![],
        );
        let s0 = ring.span_start_in(
            0.0,
            "shard.collect",
            Subsystem::Shard,
            collect,
            vec![Field::u64("shard", 0)],
        );
        let s1 = ring.span_start_in(
            0.0,
            "shard.collect",
            Subsystem::Shard,
            collect,
            vec![Field::u64("shard", 1)],
        );
        ring.span_end(0.2, s0);
        ring.span_end(0.5, s1); // straggler
        ring.span_end(0.6, collect);
        let allocate =
            ring.span_start_in(0.6, "phase.allocate", Subsystem::Coordinator, round, vec![]);
        ring.span_end(1.0, allocate);
        ring.span_end(1.05, round);
        ring.snapshot()
    }

    #[test]
    fn synthetic_round_profiles_with_high_coverage() {
        let profile = profile_events(&synthetic_round()).unwrap();
        assert!((profile.round_wall - 1.05).abs() < 1e-12);
        // Phases cover 0.0..0.6 and 0.6..1.0 of a 1.05 s round.
        assert!((profile.coverage - 1.0 / 1.05).abs() < 1e-9);
        // Path: round → collect → shard 1 (the straggler), then allocate.
        let names: Vec<&str> = profile.path.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "round",
                "phase.collect_bids",
                "shard.collect",
                "phase.allocate"
            ]
        );
        let shard_node = &profile.path[2];
        assert_eq!(shard_node.shard, Some(1), "latest-ending shard wins");
        assert!((shard_node.duration() - 0.5).abs() < 1e-12);
        // Collect phase: children cover 0.0..0.5 of its 0.6 s → 0.1 s self.
        let collect_node = &profile.path[1];
        assert!((collect_node.blocked_time - 0.5).abs() < 1e-12);
        assert!((collect_node.self_time - 0.1).abs() < 1e-12);
        // Straggler table ranks shard 1 first for the collect phase.
        assert_eq!(profile.stragglers[0].shard, 1);
        assert_eq!(profile.stragglers[0].phase, "phase.collect_bids");
        assert_eq!(profile.stragglers[1].shard, 0);
    }

    #[test]
    fn missing_round_span_is_an_error() {
        let ring = RingCollector::new(16);
        let s = ring.span_start(0.0, "phase.allocate", Subsystem::Coordinator, vec![]);
        ring.span_end(1.0, s);
        assert_eq!(
            profile_events(&ring.snapshot()),
            Err(ProfileError::NoRoundSpan)
        );
    }

    #[test]
    fn recorded_sim_spans_stay_off_the_wall_time_path() {
        // Earlier builds recorded `sim.machine` spans on the simulation
        // clock under the allocate phase; they must not enter the path.
        let ring = RingCollector::new(16);
        let round = ring.span_start(0.0, "round", Subsystem::Coordinator, vec![]);
        let allocate =
            ring.span_start_in(0.0, "phase.allocate", Subsystem::Coordinator, round, vec![]);
        let machine = ring.span_start_in(0.0, "sim.machine", Subsystem::Sim, allocate, vec![]);
        ring.span_end(300.0, machine);
        ring.span_end(0.5, allocate);
        ring.span_end(0.5, round);
        let profile = profile_events(&ring.snapshot()).unwrap();
        let names: Vec<&str> = profile.path.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(names, ["round", "phase.allocate"]);
        assert!((profile.path[1].self_time - 0.5).abs() < 1e-12);
    }

    #[test]
    fn nan_timestamp_profiles_without_panicking() {
        let span = |id: u64, parent: Option<u64>, name: &str, start: f64, end: f64| CompletedSpan {
            id: SpanId(id),
            parent: parent.map(SpanId),
            name: name.to_string(),
            cat: Subsystem::Coordinator,
            start,
            end,
            depth: usize::from(parent.is_some()),
            fields: vec![],
        };
        let spans = [
            span(1, None, "round", 0.0, 1.0),
            span(2, Some(1), "phase.collect_bids", f64::NAN, 0.4),
            span(3, Some(1), "phase.allocate", 0.4, 0.9),
        ];
        let profile = analyze(&spans).expect("a round root with a duration");
        assert_eq!(profile.path[0].name, "round");
        assert_eq!(profile.path.len(), 3, "both phases stay on the path");
    }

    // Pinned regression: a recording whose phase starts at NaN used to
    // profile, then panic when the profile's NaN coverage was rendered.
    #[test]
    fn nan_phase_start_profiles_and_renders_without_panicking() {
        let ring = RingCollector::new(16);
        let round = ring.span_start(0.0, "round", Subsystem::Coordinator, vec![]);
        let collect = ring.span_start_in(
            f64::NAN,
            "phase.collect_bids",
            Subsystem::Coordinator,
            round,
            vec![],
        );
        ring.span_end(0.4, collect);
        ring.span_end(1.0, round);
        let profile = profile_events(&ring.snapshot()).expect("a round root with a duration");
        assert!(profile.coverage.is_nan());
        assert!(profile.render_text().contains("coverage NaN%"));
    }

    #[test]
    fn render_text_mentions_coverage_and_stragglers() {
        let profile = profile_events(&synthetic_round()).unwrap();
        let text = profile.render_text();
        assert!(text.contains("coverage"));
        assert!(text.contains("stragglers:"));
        assert!(text.contains("shard"));
    }
}
