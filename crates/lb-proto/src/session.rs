//! Multi-round protocol sessions.
//!
//! The paper describes a single round; a deployed system runs the protocol
//! repeatedly (its load changes, its machines learn). [`run_chaos_session`]
//! drives a sequence of rounds over one persistent simulated network,
//! letting the caller supply each round's node behaviour through a policy
//! callback — which is how the strategic learners from `lb-agents` plug
//! into the real protocol (see the workspace integration tests) — and
//! aggregates the per-round reports and traffic statistics. A reliable
//! session is the `ChaosConfig::reliable(seed)` case.
//!
//! The session tracks per-machine health across rounds. A machine excluded
//! too often in a row is *quarantined* (excluded up front, no
//! retransmission budget wasted on it) for an exponentially growing number
//! of rounds, then re-admitted — so a transiently faulty machine rejoins
//! the mechanism instead of being lost forever, exactly the recovery story
//! a deployed mechanism needs. Its [`Observers`] record the whole session
//! down to frame level, sampled per round, and given a crash-injecting
//! journal the session is durable: it survives the coordinator being
//! killed mid-record and restarts from a previous process generation's
//! journal.

use crate::chaos::{ChaosConfig, ChaosNetStats, ChaosRuntime, RoundRecoveryStats};
use crate::coordinator::ProtocolError;
use crate::journal::CrashingJournal;
use crate::message::RoundId;
use crate::node::NodeSpec;
use crate::recovery::split_rounds;
use crate::runtime::{Observers, ProtocolConfig, RoundReport};
use crate::trace::AnomalyStats;
use lb_core::CoreError;
use lb_mechanism::{MechanismError, VerifiedMechanism};
use lb_stats::{Rng, Xoshiro256StarStar};
use lb_telemetry::{Field, Subsystem};
use std::cell::RefCell;
use std::rc::Rc;

/// Per-machine health state a chaos session tracks across rounds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MachineHealth {
    /// Exclusions in consecutive *active* rounds (quarantined rounds do not
    /// count — the machine was never given a chance).
    pub consecutive_exclusions: u32,
    /// Total rounds in which the machine was active but ended excluded.
    pub total_exclusions: u32,
    /// First round index at which the machine is active again; at or past
    /// this round the machine is not quarantined.
    pub quarantined_until: u32,
    /// Number of quarantine spells served so far.
    pub quarantine_spells: u32,
    /// Length of the most recent quarantine spell (rounds); doubles on each
    /// consecutive offence and resets when the machine completes a round.
    pub last_spell: u32,
}

/// Configuration of a fault-tolerant multi-round session.
#[derive(Debug, Clone)]
pub struct ChaosSessionConfig {
    /// Number of rounds to play.
    pub rounds: u32,
    /// Chaos and retransmission configuration, shared by every round.
    pub chaos: ChaosConfig,
    /// Quarantine a machine after this many consecutive exclusions (≥ 1).
    pub quarantine_after: u32,
    /// Length of the first quarantine spell, in rounds (≥ 1).
    pub quarantine_rounds: u32,
    /// Upper bound on a quarantine spell as it doubles (≥ `quarantine_rounds`).
    pub max_quarantine_rounds: u32,
}

impl ChaosSessionConfig {
    /// A session with the default health policy: quarantine after 2
    /// consecutive exclusions, first spell 1 round, spells capped at 8.
    /// [`run_chaos_session`] rejects `rounds == 0`.
    #[must_use]
    pub fn new(rounds: u32, chaos: ChaosConfig) -> Self {
        Self {
            rounds,
            chaos,
            quarantine_after: 2,
            quarantine_rounds: 1,
            max_quarantine_rounds: 8,
        }
    }

    fn validate(&self) -> Result<(), ProtocolError> {
        let checks = [
            (self.rounds > 0, "a session needs at least one round"),
            (self.quarantine_after >= 1, "quarantine_after must be >= 1"),
            (
                self.quarantine_rounds >= 1,
                "quarantine_rounds must be >= 1",
            ),
            (
                self.max_quarantine_rounds >= self.quarantine_rounds,
                "max_quarantine_rounds must be >= quarantine_rounds",
            ),
        ];
        match checks.into_iter().find(|&(ok, _)| !ok) {
            Some((_, what)) => Err(ProtocolError::InvalidConfig { what }),
            None => self.chaos.validate(),
        }
    }
}

/// How one round of a chaos session ended.
#[derive(Debug)]
pub enum ChaosRoundResult {
    /// The round settled; full report attached.
    Settled(Box<RoundReport>),
    /// The round could not run (fewer than two machines' bids survived);
    /// the session lifted every quarantine and carried on.
    Aborted(MechanismError),
}

impl ChaosRoundResult {
    /// The settled report, if the round settled.
    #[must_use]
    pub fn settled(&self) -> Option<&RoundReport> {
        match self {
            Self::Settled(report) => Some(report.as_ref()),
            Self::Aborted(_) => None,
        }
    }
}

/// Summary of a finished fault-tolerant session.
#[derive(Debug)]
pub struct ChaosSessionReport {
    /// Result of every round run in this process, in order. Rounds
    /// reconstructed from a pre-existing journal are *not* re-listed here
    /// (their full reports died with the process that ran them); they are
    /// accounted in `recovered_rounds`, in the health state, and in
    /// `cumulative_payments`.
    pub rounds: Vec<ChaosRoundResult>,
    /// Final health state of every machine.
    pub health: Vec<MachineHealth>,
    /// Total control messages across the settled rounds.
    pub total_messages: u64,
    /// Total control bytes across the settled rounds.
    pub total_bytes: u64,
    /// Total bid re-requests sent across the settled rounds.
    pub total_retries: u64,
    /// Anomalies absorbed across the settled rounds.
    pub anomalies: AnomalyStats,
    /// Link-level fault counters aggregated across the settled rounds.
    pub faults: ChaosNetStats,
    /// Rounds that aborted with [`MechanismError::NeedTwoAgents`].
    pub aborted_rounds: u32,
    /// Times a previously excluded machine completed a round again.
    pub readmissions: u32,
    /// Rounds whose outcome was reconstructed from the initial journal
    /// rather than run in this process (0 without a journal).
    pub recovered_rounds: u32,
    /// Injected crashes consumed, journal records replayed and torn-tail
    /// bytes truncated across the session (all 0 without a journal).
    pub recovery: RoundRecoveryStats,
    /// Per-machine payments summed over every settled round — with a
    /// journal, over every `PaymentsCommitted` record, recovered rounds
    /// included. One record per settled round regardless of how many
    /// crashes interrupted it, so this total is exactly-once by
    /// construction.
    pub cumulative_payments: Vec<f64>,
}

/// Applies the post-settlement health policy for one round: blame active
/// excluded machines (quarantining repeat offenders), clear the record of
/// active machines that completed. Shared by the live driver and by
/// journal-based session recovery, so a machine's quarantine schedule is
/// bit-identical whether the round ran in this process or was replayed from
/// a dead one's journal. Returns the number of machines readmitted.
fn apply_settled_health(
    health: &mut [MachineHealth],
    session: &ChaosSessionConfig,
    round: u32,
    active: &[bool],
    excluded: &[bool],
    mut on_quarantine: impl FnMut(usize, u32),
    mut on_readmit: impl FnMut(usize),
) -> u32 {
    let mut readmissions = 0;
    for i in 0..health.len() {
        if !active[i] {
            continue; // quarantined: no chance given, no blame.
        }
        if excluded[i] {
            health[i].consecutive_exclusions += 1;
            health[i].total_exclusions += 1;
            if health[i].consecutive_exclusions >= session.quarantine_after {
                let spell = if health[i].last_spell == 0 {
                    session.quarantine_rounds
                } else {
                    (health[i].last_spell * 2).min(session.max_quarantine_rounds)
                };
                health[i].last_spell = spell;
                health[i].quarantined_until = round + 1 + spell;
                health[i].quarantine_spells += 1;
                on_quarantine(i, spell);
            }
        } else {
            if health[i].consecutive_exclusions > 0 {
                readmissions += 1;
                on_readmit(i);
            }
            health[i].consecutive_exclusions = 0;
            health[i].last_spell = 0;
        }
    }
    readmissions
}

/// Applies the aborted-round health policy: wipe the slate so the next
/// round can recruit every machine.
fn apply_aborted_health(health: &mut [MachineHealth], round: u32) {
    for h in health {
        h.quarantined_until = round + 1;
        h.consecutive_exclusions = 0;
        h.last_spell = 0;
    }
}

/// Session state folded from a pre-existing journal: sealed blocks are
/// finished rounds, a non-final unsealed block is an aborted round (the
/// session moved on without sealing it), and an unsealed *final* block is
/// the round the dead process was in — resumed, not folded.
#[derive(Default)]
struct Folded {
    health: Vec<MachineHealth>,
    cumulative_payments: Vec<f64>,
    recovered_rounds: u32,
    aborted_rounds: u32,
    readmissions: u32,
    truncated_bytes: u64,
    start_round: u32,
}

fn fold_journal(
    journal: &RefCell<CrashingJournal>,
    session: &ChaosSessionConfig,
) -> Result<Folded, ProtocolError> {
    let replay = journal.borrow_mut().revive()?;
    let mut folded = Folded {
        truncated_bytes: replay.truncated_tail as u64,
        ..Folded::default()
    };
    let blocks = split_rounds(&replay.records)?;
    for (bi, block) in blocks.iter().enumerate() {
        if folded.health.is_empty() {
            folded.health = vec![MachineHealth::default(); block.n];
            folded.cumulative_payments = vec![0.0; block.n];
        }
        if folded.health.len() != block.n {
            return Err(ProtocolError::ReplayMismatch {
                what: "machine count changed in the journal",
            });
        }
        let round = u32::try_from(block.round.0).map_err(|_| ProtocolError::ReplayMismatch {
            what: "round index exceeds u32",
        })?;
        if block.sealed {
            let quarantined = block.quarantined();
            let active: Vec<bool> = (0..block.n).map(|i| !quarantined.contains(&i)).collect();
            let mut excluded = vec![false; block.n];
            for i in block.excluded() {
                excluded[i] = true;
            }
            folded.readmissions += apply_settled_health(
                &mut folded.health,
                session,
                round,
                &active,
                &excluded,
                |_, _| (),
                |_| (),
            );
            if let Some(p) = block.payments() {
                for (total, &x) in folded.cumulative_payments.iter_mut().zip(p) {
                    *total += x;
                }
            }
            folded.recovered_rounds += 1;
            folded.start_round = round + 1;
        } else if bi + 1 != blocks.len() {
            apply_aborted_health(&mut folded.health, round);
            folded.aborted_rounds += 1;
            folded.recovered_rounds += 1;
            folded.start_round = round + 1;
        } else {
            // The dead process's in-flight round: run it (the in-round
            // recovery inside `ChaosRuntime::run_round` replays this block).
            folded.start_round = round;
        }
    }
    Ok(folded)
}

/// Runs a fault-tolerant multi-round session over one persistent simulated
/// network.
///
/// `policy` is called before each round with the round index and the most
/// recent *settled* report (`None` before the first settlement) and returns
/// every machine's behaviour; strategic agents read `prev.map(|r| &r.outcome)`.
/// Machine count must stay constant. Round `r` simulates with seed
/// `config.simulation.seed + r`, so under [`ChaosConfig::reliable`] the
/// session settles exactly like independent [`crate::run_round`] calls.
///
/// Health policy: a machine excluded in `quarantine_after` consecutive
/// active rounds is quarantined for `quarantine_rounds` rounds, doubling on
/// each repeat offence up to `max_quarantine_rounds`; completing a round
/// resets its record. A round that cannot run ([`MechanismError::NeedTwoAgents`])
/// is recorded as [`ChaosRoundResult::Aborted`] and lifts every quarantine.
/// If quarantines would leave fewer than two machines active, they are
/// lifted pre-emptively instead of aborting the round.
///
/// `observers` record the session: frame-level `net.*` events, per-round
/// `round`/`phase.*` spans, retransmissions, and the session's own health
/// decisions — a `session.quarantine` instant (fields `machine`, `spell`)
/// when a machine is put away, `session.readmit` (field `machine`) when a
/// previously excluded machine completes a round again, and `session.abort`
/// (field `round`) when a round cannot run. All events carry simulated time
/// from the session's persistent clock, which never resets between rounds.
/// The sampler decides per round from `(chaos seed, round index)`: an
/// unsampled round runs with the noop collector and pays nothing, on the
/// wire or off it. Outcomes never depend on observers.
///
/// With a `journal` the session is durable: the coordinator process is
/// killed at every crash offset the journal was built with (tearing the
/// in-flight record mid-write), recovered by replaying the journal
/// ([`crate::recovery::recover_round`]), and resumed — and the session's
/// allocations, payments and quarantine schedule come out identical to an
/// uninterrupted run. The journal's initial content carries state across
/// simulated process generations: start from an empty journal for a fresh
/// session, or from a previous run's bytes to restart after its rounds. Any
/// torn tail is truncated on open; sealed rounds are folded into the health
/// state and payment totals (the policy is *not* re-consulted for them); an
/// unsealed final round is resumed mid-flight. The session closes by
/// recording its crash history as one `session.durable` instant with the
/// u64 fields `crashes`, `recovered_rounds`, `records_replayed` and
/// `truncated_tail_bytes`.
///
/// # Errors
/// Propagates unexpected mechanism errors ([`MechanismError::NeedTwoAgents`]
/// is handled internally as an aborted round). An invalid configuration,
/// an empty spec list from the policy, a machine count that changes between
/// rounds (or differs from the journal's), and journal corruption surface
/// as infeasible-core errors, exactly as [`ProtocolError::into_mechanism`]
/// maps them.
pub fn run_chaos_session<M, P>(
    mechanism: &M,
    config: &ProtocolConfig,
    session: &ChaosSessionConfig,
    mut policy: P,
    observers: &Observers,
    journal: Option<&Rc<RefCell<CrashingJournal>>>,
) -> Result<ChaosSessionReport, MechanismError>
where
    M: VerifiedMechanism,
    P: FnMut(u32, Option<&RoundReport>) -> Vec<NodeSpec>,
{
    session.validate().map_err(ProtocolError::into_mechanism)?;
    let folded = match journal {
        Some(journal) => fold_journal(journal, session).map_err(ProtocolError::into_mechanism)?,
        None => Folded::default(),
    };
    let mut report = ChaosSessionReport {
        rounds: Vec::with_capacity(session.rounds as usize),
        health: folded.health,
        total_messages: 0,
        total_bytes: 0,
        total_retries: 0,
        anomalies: AnomalyStats::default(),
        faults: ChaosNetStats::default(),
        aborted_rounds: folded.aborted_rounds,
        readmissions: folded.readmissions,
        recovered_rounds: folded.recovered_rounds,
        recovery: RoundRecoveryStats {
            truncated_bytes: folded.truncated_bytes,
            ..RoundRecoveryStats::default()
        },
        cumulative_payments: folded.cumulative_payments,
    };
    let mut runtime: Option<ChaosRuntime> = None;
    // Index into `report.rounds` of the latest settled round.
    let mut last_settled: Option<usize> = None;

    for round in folded.start_round..session.rounds {
        let prev = last_settled.and_then(|i| report.rounds[i].settled());
        let specs = policy(round, prev);
        let n = specs.len();
        let runtime = if let Some(runtime) = runtime.as_mut() {
            runtime
        } else {
            let fresh = ChaosRuntime::new(n, *config, session.chaos.clone())
                .map_err(ProtocolError::into_mechanism)?;
            if report.health.is_empty() {
                report.health = vec![MachineHealth::default(); n];
                report.cumulative_payments = vec![0.0; n];
            }
            runtime.insert(fresh)
        };
        if report.health.len() != n {
            return Err(CoreError::LengthMismatch {
                expected: report.health.len(),
                actual: n,
            }
            .into());
        }

        // Head-based sampling: an unsampled round runs with the noop
        // collector, so it records nothing and its frames carry no trace
        // trailer. The session's own instants follow the same decision.
        let collector = observers.round_collector(session.chaos.seed, u64::from(round));
        runtime.set_collector(collector.clone());

        let mut active: Vec<bool> = report
            .health
            .iter()
            .map(|h| round >= h.quarantined_until)
            .collect();
        if active.iter().filter(|&&a| a).count() < 2 {
            // Quarantine must never starve the mechanism below its minimum
            // participation: give everyone another chance instead.
            for h in &mut report.health {
                h.quarantined_until = round;
            }
            active = vec![true; n];
        }

        match runtime.run_round(
            mechanism,
            &specs,
            RoundId(u64::from(round)),
            &active,
            journal,
        ) {
            Ok((settled, recovery)) => {
                report.recovery.crashes += recovery.crashes;
                report.recovery.records_replayed += recovery.records_replayed;
                report.recovery.truncated_bytes += recovery.truncated_bytes;
                report.total_messages += settled.outcome.stats.messages;
                report.total_bytes += settled.outcome.stats.bytes;
                report.total_retries += settled.retries;
                report.anomalies.merge(&settled.anomalies);
                report.faults.merge(&settled.faults);
                let at = runtime.now().seconds();
                report.readmissions += apply_settled_health(
                    &mut report.health,
                    session,
                    round,
                    &active,
                    &settled.excluded,
                    |i, spell| {
                        if collector.enabled() {
                            collector.instant(
                                at,
                                "session.quarantine",
                                Subsystem::Session,
                                vec![
                                    Field::u64("machine", i as u64),
                                    Field::u64("spell", u64::from(spell)),
                                ],
                            );
                        }
                    },
                    |i| {
                        if collector.enabled() {
                            collector.instant(
                                at,
                                "session.readmit",
                                Subsystem::Session,
                                vec![Field::u64("machine", i as u64)],
                            );
                        }
                    },
                );
                for (total, &x) in report
                    .cumulative_payments
                    .iter_mut()
                    .zip(&settled.outcome.payments)
                {
                    *total += x;
                }
                last_settled = Some(report.rounds.len());
                report
                    .rounds
                    .push(ChaosRoundResult::Settled(Box::new(settled)));
            }
            Err(ProtocolError::Mechanism(MechanismError::NeedTwoAgents)) => {
                report.aborted_rounds += 1;
                if collector.enabled() {
                    collector.instant(
                        runtime.now().seconds(),
                        "session.abort",
                        Subsystem::Session,
                        vec![Field::u64("round", u64::from(round))],
                    );
                }
                // Chaos silenced (or quarantine sidelined) too many machines
                // at once: wipe the slate so the next round can recruit all.
                apply_aborted_health(&mut report.health, round);
                report
                    .rounds
                    .push(ChaosRoundResult::Aborted(MechanismError::NeedTwoAgents));
            }
            Err(e) => return Err(e.into_mechanism()),
        }
    }

    if journal.is_some() {
        // The crash history as one typed instant, so lb_top shows it
        // without access to the report. The runtime is lazily constructed
        // per round; a session with no live round never builds one and
        // records the instant at t = 0.
        let at = runtime.as_ref().map_or(0.0, |rt| rt.now().seconds());
        observers.collector.instant(
            at,
            "session.durable",
            Subsystem::Session,
            vec![
                Field::u64("crashes", report.recovery.crashes),
                Field::u64("recovered_rounds", u64::from(report.recovered_rounds)),
                Field::u64("records_replayed", report.recovery.records_replayed),
                Field::u64("truncated_tail_bytes", report.recovery.truncated_bytes),
            ],
        );
    }
    Ok(report)
}

/// When to kill the coordinator process in a durable session: absolute byte
/// offsets into the journal at which the write (and the process) dies
/// mid-record, exactly like a crash between `write(2)` and `fsync(2)`.
#[derive(Debug, Clone, Default)]
pub struct CrashPlan {
    /// Absolute journal byte offsets to crash at, each consumed once.
    pub offsets: Vec<u64>,
}

impl CrashPlan {
    /// A plan with no crashes: the durable session runs straight through.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Crash at exactly these journal byte offsets.
    #[must_use]
    pub fn at(offsets: Vec<u64>) -> Self {
        Self { offsets }
    }

    /// `crashes` pseudo-random crash offsets in `[0, max_byte)`, derived
    /// from `seed` — the same seed always kills the coordinator at the same
    /// bytes, so any durable-session failure reproduces from its seed. A
    /// `max_byte` of 0 yields no offsets.
    #[must_use]
    pub fn seeded(seed: u64, crashes: usize, max_byte: u64) -> Self {
        if max_byte == 0 {
            return Self::none();
        }
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let offsets = (0..crashes).map(|_| rng.next_below(max_byte)).collect();
        Self { offsets }
    }

    /// A crash-injecting journal starting from `initial` bytes (a previous
    /// generation's journal, or empty for a fresh session) that dies at
    /// this plan's offsets — the journal a durable [`run_chaos_session`]
    /// runs against.
    #[must_use]
    pub fn journal(&self, initial: Vec<u8>) -> Rc<RefCell<CrashingJournal>> {
        Rc::new(RefCell::new(CrashingJournal::with_crashes(
            initial,
            self.offsets.clone(),
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{run_round, RoundSpec};
    use lb_core::scenario::{paper_true_values, PAPER_ARRIVAL_RATE};
    use lb_mechanism::CompensationBonusMechanism;
    use lb_sim::driver::SimulationConfig;
    use lb_sim::server::ServiceModel;

    fn config() -> ProtocolConfig {
        ProtocolConfig {
            total_rate: PAPER_ARRIVAL_RATE,
            link_latency: 0.001,
            simulation: SimulationConfig {
                horizon: 200.0,
                seed: 77,
                model: ServiceModel::StationaryDeterministic,
                workload: Default::default(),
                warmup: 0.0,
                estimator: lb_sim::estimator::EstimatorConfig::default(),
            },
        }
    }

    fn reliable_session<P>(rounds: u32, policy: P) -> ChaosSessionReport
    where
        P: FnMut(u32, Option<&RoundReport>) -> Vec<NodeSpec>,
    {
        let session = ChaosSessionConfig::new(rounds, ChaosConfig::reliable(0));
        let mech = CompensationBonusMechanism::paper();
        run_chaos_session(
            &mech,
            &config(),
            &session,
            policy,
            &Observers::default(),
            None,
        )
        .unwrap()
    }

    fn settled(report: &ChaosSessionReport) -> Vec<&RoundReport> {
        report
            .rounds
            .iter()
            .map(|r| r.settled().expect("reliable round settles"))
            .collect()
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn constant_policy_session_accumulates_linearly() {
        let specs: Vec<NodeSpec> = paper_true_values()
            .iter()
            .map(|&t| NodeSpec::truthful(t))
            .collect();
        let report = reliable_session(5, |_, _| specs.clone());
        let rounds = settled(&report);
        assert_eq!(rounds.len(), 5);
        assert_eq!(report.total_messages, 5 * 80);
        // Deterministic service: every round pays the same, so the cumulative
        // payment is 5x a single round.
        let single = rounds[0].outcome.payments[0];
        assert!((super::chaos_tests::cumulative_payment(&report, 0) - 5.0 * single).abs() < 1e-9);
        let utility: f64 = rounds.iter().map(|r| r.outcome.utilities[0]).sum();
        assert!((utility - 5.0 * rounds[0].outcome.utilities[0]).abs() < 1e-9);
    }

    #[test]
    fn reliable_chaos_session_matches_independent_rounds() {
        // A reactive policy: machine 0 throttles whenever its previous
        // utility was above 10 (an arbitrary rule to exercise the plumbing),
        // so the specs change from round to round.
        let trues = paper_true_values();
        let mut played: Vec<Vec<NodeSpec>> = Vec::new();
        let mut seen: Vec<Option<Vec<u64>>> = Vec::new();
        let report = reliable_session(6, |round, prev| {
            assert_eq!(round as usize, played.len());
            seen.push(prev.map(|r| bits(&r.outcome.payments)));
            let throttle = prev.is_some_and(|r| r.outcome.utilities[0] > 10.0);
            let specs: Vec<NodeSpec> = trues
                .iter()
                .enumerate()
                .map(|(i, &t)| {
                    if i == 0 && throttle {
                        NodeSpec::strategic(t, t, 2.0 * t)
                    } else {
                        NodeSpec::truthful(t)
                    }
                })
                .collect();
            played.push(specs.clone());
            specs
        });
        let rounds = settled(&report);
        assert_eq!(rounds.len(), 6);
        assert_eq!(report.aborted_rounds, 0);
        assert_eq!(report.total_retries, 0);
        assert_eq!(report.anomalies.total(), 0);
        assert_eq!(report.faults, ChaosNetStats::default());
        assert!(report.health.iter().all(|h| *h == MachineHealth::default()));

        // The policy saw each round's predecessor, and reacted to it: round 0
        // truthful (utility 19.13 > 10) -> round 1 throttles -> its utility
        // falls below 10 -> round 2 truthful again, and so on.
        assert_eq!(seen[0], None);
        for r in 1..rounds.len() {
            assert_eq!(
                seen[r],
                Some(bits(&rounds[r - 1].outcome.payments)),
                "round {r}"
            );
            assert_ne!(played[r][0], played[r - 1][0], "round {r}");
        }

        // Round r is the independent reliable round at seed `base + r`.
        let mech = CompensationBonusMechanism::paper();
        let (mut messages, mut bytes) = (0, 0);
        for (r, (got, specs)) in rounds.iter().zip(&played).enumerate() {
            let mut round_config = config();
            round_config.simulation.seed += r as u64;
            let want = run_round(&RoundSpec::new(&mech, specs, round_config))
                .unwrap()
                .outcome;
            let (got, want) = (&got.outcome, &want);
            assert_eq!(bits(&got.rates), bits(&want.rates), "round {r}");
            assert_eq!(bits(&got.payments), bits(&want.payments), "round {r}");
            assert_eq!(
                bits(&got.estimated_exec_values),
                bits(&want.estimated_exec_values),
                "round {r}"
            );
            assert_eq!(bits(&got.utilities), bits(&want.utilities), "round {r}");
            assert_eq!(got.stats, want.stats, "round {r}");
            messages += want.stats.messages;
            bytes += want.stats.bytes;
        }
        assert_eq!(report.total_messages, messages);
        assert_eq!(report.total_bytes, bytes);
    }
}

#[cfg(test)]
mod chaos_tests {
    use super::*;
    use crate::faults::FaultPlan;
    use lb_mechanism::CompensationBonusMechanism;
    use lb_sim::driver::SimulationConfig;
    use lb_sim::server::ServiceModel;
    use lb_telemetry::Sampler;
    use std::sync::Arc;

    const RATE: f64 = 12.0;

    /// Payment received by machine `i`, summed over the rounds this process
    /// settled (recovered rounds excluded, unlike `cumulative_payments`).
    pub(super) fn cumulative_payment(report: &ChaosSessionReport, i: usize) -> f64 {
        report
            .rounds
            .iter()
            .filter_map(ChaosRoundResult::settled)
            .map(|r| r.outcome.payments[i])
            .sum()
    }

    pub(super) fn config() -> ProtocolConfig {
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

    pub(super) fn specs(n: usize) -> Vec<NodeSpec> {
        (0..n)
            .map(|i| NodeSpec::truthful(1.0 + i as f64 * 0.5))
            .collect()
    }

    #[test]
    fn transient_fault_quarantine_then_readmission() {
        // Machine 0's first 4 bid transmissions ever are lost — exactly its
        // round-0 budget (1 initial + 3 retries). It is excluded in round 0,
        // quarantined for round 1, and readmitted in round 2 where its fifth
        // transmission finally gets through.
        let mech = CompensationBonusMechanism::paper();
        let specs = specs(3);
        let chaos = ChaosConfig {
            plan: FaultPlan {
                lose_bid_attempts: vec![(0, 4)],
                ..FaultPlan::none()
            },
            ..ChaosConfig::reliable(1)
        };
        let session = ChaosSessionConfig {
            quarantine_after: 1,
            ..ChaosSessionConfig::new(3, chaos)
        };
        let report = run_chaos_session(
            &mech,
            &config(),
            &session,
            |_, _| specs.clone(),
            &Observers::default(),
            None,
        )
        .unwrap();

        let r0 = report.rounds[0]
            .settled()
            .expect("round 0 settles over the other two");
        assert!(
            r0.excluded[0],
            "round 0: machine 0 silent through every retry"
        );
        assert_eq!(r0.retries, 3, "round 0 spends the full retry budget");

        let r1 = report.rounds[1].settled().expect("round 1 settles");
        assert!(r1.excluded[0], "round 1: machine 0 quarantined up front");
        assert_eq!(
            r1.retries, 0,
            "no retransmission budget wasted on a quarantined machine"
        );

        let r2 = report.rounds[2].settled().expect("round 2 settles");
        assert!(!r2.excluded[0], "round 2: machine 0 is back");
        assert!(r2.outcome.rates[0] > 0.0);

        assert_eq!(report.readmissions, 1);
        assert_eq!(report.total_retries, 3);
        assert_eq!(report.health[0].total_exclusions, 1);
        assert_eq!(report.health[0].quarantine_spells, 1);
        assert_eq!(report.health[0].consecutive_exclusions, 0);
    }

    #[test]
    fn persistent_offender_backs_off_exponentially() {
        // Machine 0 never gets a bid through: each time it returns from
        // quarantine it re-offends, and its spells double up to the cap.
        let mech = CompensationBonusMechanism::paper();
        let specs = specs(3);
        let chaos = ChaosConfig {
            plan: FaultPlan {
                lose_bids_from: vec![0],
                ..FaultPlan::none()
            },
            ..ChaosConfig::reliable(2)
        };
        let session = ChaosSessionConfig {
            quarantine_after: 1,
            quarantine_rounds: 1,
            max_quarantine_rounds: 2,
            ..ChaosSessionConfig::new(7, chaos)
        };
        let report = run_chaos_session(
            &mech,
            &config(),
            &session,
            |_, _| specs.clone(),
            &Observers::default(),
            None,
        )
        .unwrap();

        // Active (and excluded) in rounds 0, 2, 5; quarantined 1, 3-4, 6.
        assert_eq!(report.aborted_rounds, 0);
        assert_eq!(report.health[0].total_exclusions, 3);
        assert_eq!(report.health[0].quarantine_spells, 3);
        assert_eq!(
            report.health[0].last_spell, 2,
            "spell doubled then hit the cap"
        );
        assert_eq!(report.total_retries, 9, "3 active rounds x 3 retries");
        assert_eq!(report.readmissions, 0);
        for result in &report.rounds {
            let settled = result
                .settled()
                .expect("two healthy machines keep settling");
            assert!(settled.excluded[0]);
            let total: f64 = settled.outcome.rates.iter().sum();
            assert!((total - RATE).abs() < 1e-6);
        }
        // The healthy machines never suffer.
        assert_eq!(report.health[1], MachineHealth::default());
        assert_eq!(report.health[2], MachineHealth::default());
    }

    #[test]
    fn aborted_rounds_are_recorded_and_session_continues() {
        // Two machines, one permanently silent: every round fails its
        // minimum-participation requirement, yet the session never panics
        // and reports each abort.
        let mech = CompensationBonusMechanism::paper();
        let specs = specs(2);
        let chaos = ChaosConfig {
            plan: FaultPlan {
                lose_bids_from: vec![0],
                ..FaultPlan::none()
            },
            ..ChaosConfig::reliable(3)
        };
        let session = ChaosSessionConfig::new(2, chaos);
        let report = run_chaos_session(
            &mech,
            &config(),
            &session,
            |_, _| specs.clone(),
            &Observers::default(),
            None,
        )
        .unwrap();
        assert_eq!(report.rounds.len(), 2);
        assert_eq!(report.aborted_rounds, 2);
        assert!(report.rounds.iter().all(|r| r.settled().is_none()));
        assert_eq!(report.readmissions, 0);
    }

    #[test]
    fn policy_sees_latest_settled_report() {
        let mech = CompensationBonusMechanism::paper();
        let specs = specs(3);
        let mut observed = Vec::new();
        let session = ChaosSessionConfig::new(3, ChaosConfig::reliable(4));
        let _ = run_chaos_session(
            &mech,
            &config(),
            &session,
            |round, prev| {
                observed.push((round, prev.is_some()));
                specs.clone()
            },
            &Observers::default(),
            None,
        )
        .unwrap();
        assert_eq!(observed, vec![(0, false), (1, true), (2, true)]);
    }

    #[test]
    fn heavy_chaos_sessions_never_panic_and_keep_invariants() {
        let mech = CompensationBonusMechanism::paper();
        let specs = specs(6);
        for seed in 0..20u64 {
            let session = ChaosSessionConfig::new(6, ChaosConfig::heavy(seed));
            let report = run_chaos_session(
                &mech,
                &config(),
                &session,
                |_, _| specs.clone(),
                &Observers::default(),
                None,
            )
            .unwrap();
            assert_eq!(report.rounds.len(), 6, "seed {seed}");
            let mut settled_messages = 0;
            for result in &report.rounds {
                let Some(r) = result.settled() else { continue };
                settled_messages += r.outcome.stats.messages;
                let total: f64 = r.outcome.rates.iter().sum();
                assert!((total - RATE).abs() < 1e-6, "seed {seed}");
                for (i, &ex) in r.excluded.iter().enumerate() {
                    if !ex {
                        assert!(r.outcome.utilities[i] >= -1e-6, "seed {seed} machine {i}");
                    }
                }
            }
            assert_eq!(report.total_messages, settled_messages, "seed {seed}");
        }
    }

    #[test]
    fn sampled_session_records_only_admitted_rounds() {
        use lb_telemetry::{replay_spans, EventKind, RingCollector};
        let mech = CompensationBonusMechanism::paper();
        let specs = specs(3);
        let session = ChaosSessionConfig::new(4, ChaosConfig::reliable(9));
        let ring = Arc::new(RingCollector::new(65_536));
        let observers = Observers {
            collector: ring.clone(),
            sampler: Sampler::PerRound(2),
        };
        let sampled = run_chaos_session(
            &mech,
            &config(),
            &session,
            |_, _| specs.clone(),
            &observers,
            None,
        )
        .unwrap();

        // PerRound(2) admits rounds 0 and 2: exactly two round spans, and
        // the partial recording still replays cleanly.
        let events = ring.snapshot();
        let round_spans = events
            .iter()
            .filter(|e| e.name == "round" && matches!(e.kind, EventKind::SpanStart { .. }))
            .count();
        assert_eq!(round_spans, 2);
        replay_spans(&events).expect("sampled recording replays cleanly");

        // Sampling never changes what the mechanism computes — only the
        // trailer bytes on sampled rounds' frames.
        let plain = run_chaos_session(
            &mech,
            &config(),
            &session,
            |_, _| specs.clone(),
            &Observers::default(),
            None,
        )
        .unwrap();
        for (s, p) in sampled.rounds.iter().zip(plain.rounds.iter()) {
            assert_eq!(
                s.settled().unwrap().outcome.payments,
                p.settled().unwrap().outcome.payments
            );
            assert_eq!(
                s.settled().unwrap().outcome.rates,
                p.settled().unwrap().outcome.rates
            );
        }
        assert_eq!(sampled.total_messages, plain.total_messages);
        assert!(sampled.total_bytes > plain.total_bytes);
    }

    #[test]
    fn machine_count_change_is_rejected() {
        let mech = CompensationBonusMechanism::paper();
        let session = ChaosSessionConfig::new(2, ChaosConfig::reliable(0));
        let result = run_chaos_session(
            &mech,
            &config(),
            &session,
            |round, _| specs(if round == 0 { 3 } else { 4 }),
            &Observers::default(),
            None,
        );
        assert!(matches!(
            result,
            Err(MechanismError::Core(CoreError::LengthMismatch {
                expected: 3,
                actual: 4
            }))
        ));
    }

    #[test]
    fn invalid_session_config_is_an_error() {
        let mech = CompensationBonusMechanism::paper();
        for session in [
            ChaosSessionConfig {
                quarantine_after: 0,
                ..ChaosSessionConfig::new(2, ChaosConfig::reliable(0))
            },
            ChaosSessionConfig::new(
                2,
                ChaosConfig {
                    backoff: 0.5,
                    ..ChaosConfig::reliable(0)
                },
            ),
        ] {
            let result = run_chaos_session(
                &mech,
                &config(),
                &session,
                |_, _| specs(3),
                &Observers::default(),
                None,
            );
            assert!(result.is_err(), "{session:?}");
        }
        let zero = ChaosSessionConfig::new(0, ChaosConfig::reliable(0));
        let err = run_chaos_session(
            &mech,
            &config(),
            &zero,
            |_, _| specs(3),
            &Observers::default(),
            None,
        )
        .unwrap_err();
        assert!(err.to_string().contains("at least one round"), "{err}");

        // An empty spec list from the policy is rejected, not run.
        let session = ChaosSessionConfig::new(2, ChaosConfig::reliable(0));
        let empty = run_chaos_session(
            &mech,
            &config(),
            &session,
            |_, _| Vec::new(),
            &Observers::default(),
            None,
        );
        assert!(empty.is_err());
    }

    #[test]
    fn duplicated_settle_is_idempotent() {
        // Pinned regression: with duplicate_prob = 1.0 every frame — the
        // settle fan-out included — is delivered twice. The duplicate
        // Payment must hit the node's first-write-wins guard, so payments,
        // utilities and the session's cumulative payment are bit-identical
        // to a reliable run, and the duplicates never inflate the ledger.
        let mech = CompensationBonusMechanism::paper();
        let specs = specs(4);
        let clean_session = ChaosSessionConfig::new(3, ChaosConfig::reliable(11));
        let clean = run_chaos_session(
            &mech,
            &config(),
            &clean_session,
            |_, _| specs.clone(),
            &Observers::default(),
            None,
        )
        .unwrap();

        let dup = ChaosConfig {
            duplicate_prob: 1.0,
            ..ChaosConfig::reliable(11)
        };
        let dup_session = ChaosSessionConfig::new(3, dup);
        let report = run_chaos_session(
            &mech,
            &config(),
            &dup_session,
            |_, _| specs.clone(),
            &Observers::default(),
            None,
        )
        .unwrap();

        assert!(
            report.faults.duplicated > 0,
            "the duplicate fate must actually fire"
        );
        for (r, (d, c)) in report.rounds.iter().zip(clean.rounds.iter()).enumerate() {
            let d = d.settled().expect("duplicated round settles");
            let c = c.settled().expect("clean round settles");
            assert_eq!(d.outcome.payments, c.outcome.payments, "round {r}");
            assert_eq!(d.outcome.rates, c.outcome.rates, "round {r}");
            // Utilities are computed from the node's own received payment:
            // a double-counted duplicate would show up right here.
            assert_eq!(d.outcome.utilities, c.outcome.utilities, "round {r}");
        }
        for i in 0..4 {
            assert_eq!(
                cumulative_payment(&report, i).to_bits(),
                cumulative_payment(&clean, i).to_bits(),
                "machine {i}"
            );
        }
    }
}

#[cfg(test)]
mod durable_tests {
    use super::chaos_tests::{config, cumulative_payment, specs};
    use super::*;
    use crate::faults::FaultPlan;
    use crate::journal::Journal;
    use crate::journal::JournalRecord;
    use crate::journal::JournalReplay;
    use lb_mechanism::CompensationBonusMechanism;

    /// A durable session and the bytes its journal ends with.
    struct Durable {
        report: ChaosSessionReport,
        journal_bytes: Vec<u8>,
    }

    fn run_durable(
        session: &ChaosSessionConfig,
        nodes: usize,
        plan: &CrashPlan,
        initial_journal: Vec<u8>,
    ) -> Durable {
        let mech = CompensationBonusMechanism::paper();
        let journal = plan.journal(initial_journal);
        let report = run_chaos_session(
            &mech,
            &config(),
            session,
            |_, _| specs(nodes),
            &Observers::default(),
            Some(&journal),
        )
        .unwrap();
        let journal_bytes = journal.borrow().bytes().unwrap();
        Durable {
            report,
            journal_bytes,
        }
    }

    fn assert_same_rounds(durable: &ChaosSessionReport, plain: &ChaosSessionReport) {
        assert_eq!(durable.rounds.len(), plain.rounds.len());
        for (r, (d, p)) in durable.rounds.iter().zip(plain.rounds.iter()).enumerate() {
            let d = d.settled().expect("durable round settles");
            let p = p.settled().expect("plain round settles");
            assert_eq!(d.outcome.payments, p.outcome.payments, "round {r}");
            assert_eq!(d.outcome.rates, p.outcome.rates, "round {r}");
            assert_eq!(d.excluded, p.excluded, "round {r}");
        }
    }

    #[test]
    fn crash_free_durable_session_matches_plain_chaos_session() {
        let mech = CompensationBonusMechanism::paper();
        let specs = specs(3);
        let session = ChaosSessionConfig::new(3, ChaosConfig::reliable(7));
        let plain = run_chaos_session(
            &mech,
            &config(),
            &session,
            |_, _| specs.clone(),
            &Observers::default(),
            None,
        )
        .unwrap();
        let durable = run_durable(&session, 3, &CrashPlan::none(), Vec::new());

        assert_eq!(durable.report.recovery.crashes, 0);
        assert_eq!(durable.report.recovered_rounds, 0);
        assert_eq!(durable.report.recovery.records_replayed, 0);
        assert_same_rounds(&durable.report, &plain);
        for i in 0..3 {
            assert_eq!(
                durable.report.cumulative_payments[i].to_bits(),
                cumulative_payment(&plain, i).to_bits(),
                "machine {i}"
            );
        }
        assert!(!durable.journal_bytes.is_empty());
    }

    #[test]
    fn crashing_at_every_record_boundary_is_invisible_in_the_outcome() {
        // Reference: a crash-free durable run, which also yields the exact
        // journal this session writes. Then re-run with the coordinator
        // killed at every record boundary of that journal — each write dies
        // mid-`append`, gets truncated on revival and replayed — and demand
        // the same session, bit for bit.
        let session = ChaosSessionConfig::new(2, ChaosConfig::reliable(13));
        let reference = run_durable(&session, 3, &CrashPlan::none(), Vec::new());

        let cuts: Vec<u64> = JournalReplay::boundaries(&reference.journal_bytes)
            .into_iter()
            .map(|b| b as u64)
            .collect();
        let expected_crashes = cuts.len() as u64;
        let crashed = run_durable(&session, 3, &CrashPlan::at(cuts), Vec::new());

        assert!(
            crashed.report.recovery.crashes >= expected_crashes - 1,
            "all boundary crashes fire"
        );
        assert!(crashed.report.recovery.records_replayed > 0);
        assert_same_rounds(&crashed.report, &reference.report);
        for i in 0..3 {
            assert_eq!(
                crashed.report.cumulative_payments[i].to_bits(),
                reference.report.cumulative_payments[i].to_bits(),
                "machine {i}"
            );
        }
        assert_sealed_blocks_match(&crashed.journal_bytes, &reference.journal_bytes);
    }

    /// The healed journal need not be byte-identical to the reference one —
    /// in-flight frames re-delivered after a crash can reorder records
    /// within a block — but it must replay to the same sealed rounds with
    /// the same committed payments.
    fn assert_sealed_blocks_match(got: &[u8], want: &[u8]) {
        let got = split_rounds(&crate::journal::read_journal(got).unwrap().records).unwrap();
        let want = split_rounds(&crate::journal::read_journal(want).unwrap().records).unwrap();
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want.iter()) {
            assert_eq!(g.round, w.round);
            assert_eq!(g.sealed, w.sealed);
            assert_eq!(g.payments(), w.payments(), "round {:?}", g.round);
        }
    }

    #[test]
    fn mid_record_crashes_truncate_the_torn_tail_and_still_converge() {
        let session = ChaosSessionConfig::new(2, ChaosConfig::reliable(13));
        let reference = run_durable(&session, 3, &CrashPlan::none(), Vec::new());

        let max_byte = reference.journal_bytes.len() as u64;
        for seed in 0..5u64 {
            let plan = CrashPlan::seeded(seed, 4, max_byte);
            let crashed = run_durable(&session, 3, &plan, Vec::new());
            assert!(crashed.report.recovery.crashes > 0, "seed {seed}");
            assert_same_rounds(&crashed.report, &reference.report);
            assert_sealed_blocks_match(&crashed.journal_bytes, &reference.journal_bytes);
        }
    }

    #[test]
    fn quarantine_state_survives_a_crash_between_rounds() {
        // Generation 1: machine 0 never gets a bid through round 0, is
        // excluded, and (quarantine_after = 1) earns a 1-round quarantine.
        // The process then "dies" — all that survives is the journal.
        let faulty = ChaosConfig {
            plan: FaultPlan {
                lose_bids_from: vec![0],
                ..FaultPlan::none()
            },
            ..ChaosConfig::reliable(1)
        };
        let gen1_session = ChaosSessionConfig {
            quarantine_after: 1,
            ..ChaosSessionConfig::new(1, faulty)
        };
        let gen1 = run_durable(&gen1_session, 3, &CrashPlan::none(), Vec::new());
        assert_eq!(gen1.report.health[0].total_exclusions, 1);

        // Generation 2: a fresh process (machine 0 healthy again) restarts
        // from the journal and plays rounds 1 and 2. The journal alone must
        // carry the quarantine: round 1 excludes machine 0 up front, round 2
        // re-admits it on schedule.
        let gen2_session = ChaosSessionConfig {
            quarantine_after: 1,
            ..ChaosSessionConfig::new(3, ChaosConfig::reliable(1))
        };
        let gen2 = run_durable(
            &gen2_session,
            3,
            &CrashPlan::none(),
            gen1.journal_bytes.clone(),
        );

        assert_eq!(
            gen2.report.recovered_rounds, 1,
            "round 0 folded from the journal"
        );
        assert_eq!(gen2.report.rounds.len(), 2, "rounds 1 and 2 ran live");
        let r1 = gen2.report.rounds[0].settled().expect("round 1 settles");
        assert!(r1.excluded[0], "round 1: quarantine restored from journal");
        assert_eq!(r1.retries, 0, "no budget wasted on a quarantined machine");
        let r2 = gen2.report.rounds[1].settled().expect("round 2 settles");
        assert!(!r2.excluded[0], "round 2: re-admitted on schedule");
        assert!(r2.outcome.rates[0] > 0.0);
        assert_eq!(gen2.report.readmissions, 1);

        // Exactly-once across generations: machine 0's total is round 1's
        // nothing plus round 2's payment; the sealed round-0 block is folded
        // once, not re-run.
        assert_eq!(
            gen2.report.cumulative_payments[0].to_bits(),
            (r2.outcome.payments[0]).to_bits()
        );
    }

    #[test]
    fn unsealed_final_round_is_resumed_mid_flight() {
        // Truncate a finished 2-round journal shortly after round 1's
        // `RoundOpened`: the restarted session must fold round 0 as settled
        // and resume round 1 from its replayed partial state, landing on the
        // same outcome as the uninterrupted run.
        let session = ChaosSessionConfig::new(2, ChaosConfig::reliable(21));
        let reference = run_durable(&session, 3, &CrashPlan::none(), Vec::new());

        let replay = crate::journal::read_journal(&reference.journal_bytes).unwrap();
        let opened_round_1 = replay
            .records
            .iter()
            .position(|r| matches!(r, JournalRecord::RoundOpened { round, .. } if round.0 == 1))
            .expect("round 1 opened");
        let boundaries = JournalReplay::boundaries(&reference.journal_bytes);
        // Keep RoundOpened plus the first bid of round 1.
        let cut = boundaries[opened_round_1 + 2];
        let resumed = run_durable(
            &session,
            3,
            &CrashPlan::none(),
            reference.journal_bytes[..cut].to_vec(),
        );

        assert_eq!(
            resumed.report.recovered_rounds, 1,
            "round 0 folded as sealed"
        );
        assert_eq!(resumed.report.rounds.len(), 1, "round 1 resumed live");
        assert!(
            resumed.report.recovery.records_replayed >= 2,
            "partial round 1 replayed"
        );
        let r1 = resumed.report.rounds[0].settled().expect("round 1 settles");
        let want = reference.report.rounds[1]
            .settled()
            .expect("reference round 1 settled");
        assert_eq!(r1.outcome.payments, want.outcome.payments);
        assert_eq!(r1.outcome.rates, want.outcome.rates);
        for i in 0..3 {
            assert_eq!(
                resumed.report.cumulative_payments[i].to_bits(),
                reference.report.cumulative_payments[i].to_bits(),
                "machine {i}"
            );
        }
        assert_sealed_blocks_match(&resumed.journal_bytes, &reference.journal_bytes);
    }
}
