//! Cross-shard telemetry rollup: per-shard and fleet-wide phase/machine
//! latency distributions without shipping raw spans off-shard.
//!
//! Each shard worker of the hierarchical round summarizes its own
//! per-machine verification wall-times (timed in blocks of machines) into
//! one [`WireShardProfile`] — a fixed-size [`WireSketch`] plus the first
//! machine of its slowest block — that travels to the root alongside the
//! `ShardSum`/`ShardEstimates` frames. The root feeds those frames plus its own per-shard, per-phase
//! stage timings into a [`RoundProfiler`], which accumulates:
//!
//! * a per-shard [`ShardRollup`] — one [`LatencySketch`] per protocol phase
//!   (one sample per profiled round) and one machine-wall sketch (one
//!   sample per machine per profiled round);
//! * a root-level phase series ([`OnlineStats`] per phase) that the
//!   regression sentinel tests against named baselines;
//! * profile-frame accounting, kept **separate** from the protocol's
//!   `MessageStats` so attaching a profiler never changes the audited
//!   message counts.
//!
//! Fleet-wide views are merges over the per-shard sketches
//! ([`Rollup::fleet_phase`] / [`Rollup::fleet_machine`]) — exact, because
//! sketch merge is exact.

use lb_stats::{LatencySketch, OnlineStats, WireError, WireSketch};
use lb_telemetry::Json;
use std::collections::BTreeMap;

/// Phase labels, in protocol order — the same vocabulary as the
/// `ShardPhaseTimings` fields and the `p99_<phase>_ms` columns of
/// `BENCH_round_scaling.json`.
pub const PHASES: [&str; 4] = ["collect", "allocate", "execute", "settle"];

/// What one shard worker ships to the root when a round is profiled: its
/// machine-wall sketch and the slowest block it saw. Indices are
/// shard-local respondent ordinals; the root maps them to global machine
/// ids (the worker does not know the global index space).
#[derive(Debug, Clone, PartialEq)]
pub struct WireShardProfile {
    /// Shard index.
    pub shard: u32,
    /// Machines this shard simulated this round.
    pub machines: u64,
    /// Per-machine verification wall-times, sketched. The kernel times
    /// blocks of `lb_sim::driver::PROBE_BLOCK` machines, one clock read
    /// per block boundary, and each machine carries its block's mean: the
    /// sketch sees no spread inside a block.
    pub machine_wall: WireSketch,
    /// `(local respondent index, wall seconds)` of the slowest block: the
    /// index of its first machine and its mean wall time per machine.
    pub slowest: Option<(u64, f64)>,
}

/// Accumulated profile of one shard across profiled rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRollup {
    /// Shard index.
    pub shard: u32,
    /// One sketch per phase; each profiled round contributes one sample.
    pub phases: [LatencySketch; 4],
    /// Per-machine verification wall-times across profiled rounds.
    pub machine_wall: LatencySketch,
    /// Slowest block of the most recent profiled round `(global id of its
    /// first machine, mean wall seconds per machine)`.
    pub slowest_machine: Option<(u64, f64)>,
}

impl ShardRollup {
    fn new(shard: u32) -> Self {
        Self {
            shard,
            phases: [
                LatencySketch::new(),
                LatencySketch::new(),
                LatencySketch::new(),
                LatencySketch::new(),
            ],
            machine_wall: LatencySketch::new(),
            slowest_machine: None,
        }
    }
}

/// The per-shard rollup table plus fleet-wide merged views.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Rollup {
    shards: BTreeMap<u32, ShardRollup>,
}

impl Rollup {
    /// Per-shard rollups in shard order.
    pub fn shards(&self) -> impl Iterator<Item = &ShardRollup> {
        self.shards.values()
    }

    /// Whether no shard has contributed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The rollup of one shard, if it has contributed.
    #[must_use]
    pub fn shard(&self, shard: u32) -> Option<&ShardRollup> {
        self.shards.get(&shard)
    }

    fn entry(&mut self, shard: u32) -> &mut ShardRollup {
        self.shards
            .entry(shard)
            .or_insert_with(|| ShardRollup::new(shard))
    }

    /// Fleet-wide sketch of one phase: the merge of every shard's sketch.
    ///
    /// # Panics
    /// Panics if `phase >= 4`.
    #[must_use]
    pub fn fleet_phase(&self, phase: usize) -> LatencySketch {
        assert!(phase < PHASES.len(), "Rollup: phase index out of range");
        let mut fleet = LatencySketch::new();
        for s in self.shards.values() {
            fleet.merge(&s.phases[phase]);
        }
        fleet
    }

    /// Fleet-wide machine-wall sketch: the merge of every shard's sketch.
    #[must_use]
    pub fn fleet_machine(&self) -> LatencySketch {
        let mut fleet = LatencySketch::new();
        for s in self.shards.values() {
            fleet.merge(&s.machine_wall);
        }
        fleet
    }
}

/// Summarizes a sketch for the JSON documents: count + p50/p99/max/mean.
fn sketch_json(sketch: &LatencySketch) -> Json {
    if sketch.is_empty() {
        return Json::obj([("count", Json::Num(0.0))]);
    }
    #[allow(clippy::cast_precision_loss)]
    Json::obj([
        ("count", Json::Num(sketch.count() as f64)),
        ("mean_s", Json::Num(sketch.mean())),
        ("p50_s", Json::Num(sketch.p50())),
        ("p99_s", Json::Num(sketch.p99())),
        ("max_s", Json::Num(sketch.max())),
    ])
}

/// Collects per-shard rollup frames and root phase timings across rounds;
/// the attachable end of the profiled sharded drive.
///
/// A profiler is *sampled* when built with [`RoundProfiler::sampled`]: only
/// every `every`-th round (by round id) is profiled; the rest behave as if
/// the profiler were detached.
#[derive(Debug, Clone)]
pub struct RoundProfiler {
    every: u64,
    rollup: Rollup,
    series: [OnlineStats; 4],
    last_round: Option<(u64, [f64; 4])>,
    rounds_profiled: u64,
    prof_frames: u64,
    prof_bytes: u64,
}

impl Default for RoundProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl RoundProfiler {
    /// A profiler that profiles every round.
    #[must_use]
    pub fn new() -> Self {
        Self::sampled(1)
    }

    /// A profiler that profiles every `every`-th round (round id modulo).
    ///
    /// # Panics
    /// Panics if `every == 0`.
    #[must_use]
    pub fn sampled(every: u64) -> Self {
        assert!(every >= 1, "RoundProfiler: sampling period must be >= 1");
        Self {
            every,
            rollup: Rollup::default(),
            series: [OnlineStats::new(); 4],
            last_round: None,
            rounds_profiled: 0,
            prof_frames: 0,
            prof_bytes: 0,
        }
    }

    /// Whether round `round` should be profiled under the sampling period.
    #[must_use]
    pub fn should_profile(&self, round: u64) -> bool {
        round % self.every == 0
    }

    /// Accounts one profile frame. Deliberately separate from the
    /// protocol's `MessageStats`: profile frames are observability traffic
    /// and must not perturb the audited control-plane counts.
    pub fn note_frame(&mut self, bytes: usize) {
        self.prof_frames += 1;
        self.prof_bytes += bytes as u64;
    }

    /// `(frames, bytes)` of profile traffic accounted so far.
    #[must_use]
    pub fn frames(&self) -> (u64, u64) {
        (self.prof_frames, self.prof_bytes)
    }

    /// Ingests one shard's profile frame. `slowest_global` is the frame's
    /// `slowest` entry with the local index already mapped to a global
    /// machine id by the root.
    ///
    /// # Errors
    /// Propagates [`WireError`] for corrupt frames; the rollup is left
    /// unchanged.
    pub fn ingest_shard(
        &mut self,
        wire: &WireShardProfile,
        slowest_global: Option<(u64, f64)>,
    ) -> Result<(), WireError> {
        let sketch = LatencySketch::from_wire(&wire.machine_wall)?;
        let entry = self.rollup.entry(wire.shard);
        entry.machine_wall.merge(&sketch);
        if slowest_global.is_some() {
            entry.slowest_machine = slowest_global;
        }
        Ok(())
    }

    /// Records one phase's wall-time for one shard in the current round.
    ///
    /// # Panics
    /// Panics if `phase >= 4`.
    pub fn record_phase(&mut self, shard: u32, phase: usize, seconds: f64) {
        assert!(phase < PHASES.len(), "RoundProfiler: phase out of range");
        self.rollup.entry(shard).phases[phase].record(seconds);
    }

    /// Closes one profiled round: feeds the root's phase wall-times into
    /// the sentinel series and remembers them as the latest round.
    pub fn finish_round(&mut self, round: u64, phase_wall: [f64; 4]) {
        for (stats, secs) in self.series.iter_mut().zip(phase_wall) {
            stats.push(secs);
        }
        self.last_round = Some((round, phase_wall));
        self.rounds_profiled += 1;
    }

    /// The accumulated per-shard rollup.
    #[must_use]
    pub fn rollup(&self) -> &Rollup {
        &self.rollup
    }

    /// Root phase wall-time series across profiled rounds, in
    /// [`PHASES`] order — the regression sentinel's observations.
    #[must_use]
    pub fn series(&self) -> &[OnlineStats; 4] {
        &self.series
    }

    /// The most recent profiled round's `(round, phase wall seconds)`.
    #[must_use]
    pub fn last_round(&self) -> Option<(u64, [f64; 4])> {
        self.last_round
    }

    /// Number of rounds profiled so far.
    #[must_use]
    pub fn rounds_profiled(&self) -> u64 {
        self.rounds_profiled
    }

    /// The `/profile` document: sampling state, frame accounting, the
    /// latest round's phase breakdown, per-shard and fleet-wide sketch
    /// summaries.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn to_json(&self) -> Json {
        let last = match self.last_round {
            Some((round, walls)) => Json::obj([
                ("round", Json::Num(round as f64)),
                (
                    "phase_wall_s",
                    Json::obj(
                        PHASES
                            .iter()
                            .zip(walls)
                            .map(|(name, w)| (name.to_string(), Json::Num(w))),
                    ),
                ),
            ]),
            None => Json::Null,
        };
        let shards: Vec<Json> = self
            .rollup
            .shards()
            .map(|s| {
                Json::obj([
                    ("shard", Json::Num(f64::from(s.shard))),
                    (
                        "phases",
                        Json::obj(
                            PHASES
                                .iter()
                                .zip(&s.phases)
                                .map(|(name, sk)| (name.to_string(), sketch_json(sk))),
                        ),
                    ),
                    ("machine_wall", sketch_json(&s.machine_wall)),
                    (
                        "slowest_machine",
                        match s.slowest_machine {
                            Some((m, w)) => Json::obj([
                                ("machine", Json::Num(m as f64)),
                                ("wall_s", Json::Num(w)),
                            ]),
                            None => Json::Null,
                        },
                    ),
                ])
            })
            .collect();
        let fleet = Json::obj(
            PHASES
                .iter()
                .enumerate()
                .map(|(i, name)| (name.to_string(), sketch_json(&self.rollup.fleet_phase(i))))
                .chain(std::iter::once((
                    "machine_wall".to_string(),
                    sketch_json(&self.rollup.fleet_machine()),
                ))),
        );
        Json::obj([
            ("rounds_profiled", Json::Num(self.rounds_profiled as f64)),
            ("sampling_period", Json::Num(self.every as f64)),
            ("profile_frames", Json::Num(self.prof_frames as f64)),
            ("profile_bytes", Json::Num(self.prof_bytes as f64)),
            ("last_round", last),
            ("shards", Json::Arr(shards)),
            ("fleet", fleet),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_period_gates_rounds() {
        let always = RoundProfiler::new();
        assert!(always.should_profile(0) && always.should_profile(1));
        let every3 = RoundProfiler::sampled(3);
        assert!(every3.should_profile(0));
        assert!(!every3.should_profile(1));
        assert!(!every3.should_profile(2));
        assert!(every3.should_profile(3));
    }

    #[test]
    fn fleet_views_merge_per_shard_sketches_exactly() {
        let mut p = RoundProfiler::new();
        let a = LatencySketch::from_slice(&[1e-3, 2e-3, 3e-3]);
        let b = LatencySketch::from_slice(&[4e-3, 5e-3]);
        p.ingest_shard(
            &WireShardProfile {
                shard: 0,
                machines: 3,
                machine_wall: a.to_wire(),
                slowest: Some((2, 3e-3)),
            },
            Some((2, 3e-3)),
        )
        .unwrap();
        p.ingest_shard(
            &WireShardProfile {
                shard: 1,
                machines: 2,
                machine_wall: b.to_wire(),
                slowest: Some((1, 5e-3)),
            },
            Some((4, 5e-3)),
        )
        .unwrap();

        let mut whole = a;
        whole.merge(&b);
        let fleet = p.rollup().fleet_machine();
        assert_eq!(fleet, whole);
        assert_eq!(
            p.rollup().shard(1).unwrap().slowest_machine,
            Some((4, 5e-3))
        );
    }

    #[test]
    fn corrupt_shard_frame_is_rejected_without_mutation() {
        let mut p = RoundProfiler::new();
        let mut wire = LatencySketch::from_slice(&[1e-3]).to_wire();
        wire.m2 = -1.0;
        let err = p.ingest_shard(
            &WireShardProfile {
                shard: 0,
                machines: 1,
                machine_wall: wire,
                slowest: None,
            },
            None,
        );
        assert!(err.is_err());
        assert!(p.rollup().is_empty());
    }

    #[test]
    fn series_and_document_reflect_finished_rounds() {
        let mut p = RoundProfiler::new();
        p.record_phase(0, 0, 0.01);
        p.record_phase(0, 3, 0.02);
        p.finish_round(0, [0.01, 0.005, 0.002, 0.02]);
        p.finish_round(1, [0.012, 0.005, 0.002, 0.022]);
        assert_eq!(p.series()[0].count(), 2);
        assert_eq!(p.last_round(), Some((1, [0.012, 0.005, 0.002, 0.022])));

        let doc = p.to_json();
        assert_eq!(doc.get("rounds_profiled").and_then(Json::as_u64), Some(2));
        let text = doc.render();
        let back = Json::parse(&text).expect("document is real JSON");
        assert_eq!(back.get("sampling_period").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn frame_accounting_is_separate_state() {
        let mut p = RoundProfiler::new();
        p.note_frame(100);
        p.note_frame(50);
        assert_eq!(p.frames(), (2, 150));
    }
}
