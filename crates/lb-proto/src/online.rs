//! The online mechanism session: a long-running event loop over machine
//! churn.
//!
//! The batch sessions in [`crate::session`] re-run the whole protocol round
//! from scratch at a fixed cadence — every membership change costs O(n).
//! [`OnlineSession`] instead consumes a stream of
//! [`OnlineEvent::Join`] / [`OnlineEvent::Leave`] /
//! [`OnlineEvent::RateChange`] events, each of which touches only the
//! affected machine's term of the harmonic sum `S = Σ 1/b_i`
//! ([`lb_mechanism::OnlinePool`], O(1) amortized); every other machine's PR
//! rate is rescaled *implicitly* through the updated `S` and can be read
//! back in O(1) at any moment ([`OnlineSession::rate_of`]).
//!
//! Payments stay a batch affair: an [`OnlineEvent::RoundTick`] freezes the
//! current membership and hands its bids and acknowledgements to the
//! coordinator, whose last bid allocates and whose last acknowledgement
//! settles (the batch payment kernel underneath), both against the
//! *incrementally maintained* double-double sum, with verification
//! simulated exactly as a batch round. Journal grammar, telemetry spans and
//! settlement gauges are identical to batch rounds, so crash recovery
//! ([`crate::recovery`]), the audit monitors and the critical-path
//! profiler work unchanged: attach them through [`OnlineSession::with_journal`] /
//! [`OnlineSession::with_collector`].

use crate::coordinator::{Coordinator, Local, ProtocolError, Topology};
use crate::journal::Journal;
use crate::message::{Message, RoundId};
use crate::node::NodeSpec;
use crate::runtime::ProtocolConfig;
use lb_core::{CoreError, TwoF64};
use lb_mechanism::online::{OnlineError, OnlinePool};
use lb_mechanism::VerifiedMechanism;
use lb_sim::churn::ChurnEvent;
use lb_telemetry::{noop_collector, Collector, Field, Subsystem};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// One event of the online mechanism stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OnlineEvent {
    /// A machine joins at slot `machine` with behaviour `spec`.
    Join {
        /// Stable slot id of the machine.
        machine: usize,
        /// Its bid/execution behaviour.
        spec: NodeSpec,
    },
    /// The machine at slot `machine` leaves.
    Leave {
        /// Slot id.
        machine: usize,
    },
    /// The machine at slot `machine` re-bids.
    RateChange {
        /// Slot id.
        machine: usize,
        /// Its new behaviour.
        spec: NodeSpec,
    },
    /// Settle boundary: run one payment round over the live machines.
    RoundTick,
}

impl OnlineEvent {
    /// Lifts a simulator churn event ([`lb_sim::churn`]) into a protocol
    /// event with truthful behaviour — the default for differential
    /// streams, where strategy is not under test.
    ///
    /// # Panics
    /// Panics if the churn event carries a non-positive or non-finite
    /// latency value (the generator never emits one).
    #[must_use]
    pub fn from_churn(event: ChurnEvent) -> Self {
        match event {
            ChurnEvent::Join { slot, value } => Self::Join {
                machine: slot,
                spec: NodeSpec::truthful(value),
            },
            ChurnEvent::Leave { slot } => Self::Leave { machine: slot },
            ChurnEvent::RateChange { slot, value } => Self::RateChange {
                machine: slot,
                spec: NodeSpec::truthful(value),
            },
            ChurnEvent::Tick => Self::RoundTick,
        }
    }
}

/// What applying one event did.
#[derive(Debug, Clone, PartialEq)]
pub enum OnlineApplied {
    /// A machine joined.
    Joined {
        /// Its slot.
        machine: usize,
    },
    /// A machine left.
    Left {
        /// Its slot.
        machine: usize,
    },
    /// A machine re-bid.
    Rebid {
        /// Its slot.
        machine: usize,
    },
    /// A tick settled a payment round.
    Settled(OnlineTick),
    /// A tick arrived with fewer than two live machines; nothing to settle.
    TickSkipped,
}

/// Outcome of one settled tick.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineTick {
    /// The round id the tick settled as.
    pub round: u64,
    /// Slot ids of the settled machines, in dense (slot) order — index `k`
    /// of `payments` refers to `machines[k]`.
    pub machines: Vec<usize>,
    /// Per-machine payments, dense.
    pub payments: Vec<f64>,
}

/// Summary of a finished online session.
#[derive(Debug, Clone)]
pub struct OnlineReport {
    /// Membership events applied (ticks excluded).
    pub events: u64,
    /// Ticks that settled a round.
    pub ticks_settled: u64,
    /// Ticks skipped for lack of two live machines.
    pub ticks_skipped: u64,
    /// Compensated re-sums the harmonic sum needed over the whole stream.
    pub resums: u64,
    /// Machines live at the end of the stream.
    pub live: usize,
    /// Cumulative payment per slot over every settled tick.
    pub cumulative_payments: Vec<f64>,
}

fn online_err(e: OnlineError) -> ProtocolError {
    match e {
        OnlineError::Mechanism(e) => ProtocolError::Mechanism(e),
        slot_err => ProtocolError::Mechanism(
            CoreError::Infeasible {
                reason: slot_err.to_string(),
            }
            .into(),
        ),
    }
}

/// A tick's topology, `Tick(s, epoch)`: the pool's incremental sum `s`
/// and the single coordinator's verification, each step moving the
/// telemetry clock as a link's does (the allocate span covers the kernel).
struct Tick(TwoF64, Instant);

impl Topology for Tick {
    fn inv_sum(
        &mut self,
        coordinator: &Coordinator<'_>,
        _allocating: bool,
    ) -> Result<TwoF64, ProtocolError> {
        coordinator.set_now(self.1.elapsed().as_secs_f64());
        Ok(self.0)
    }

    fn verify(
        &mut self,
        coordinator: &Coordinator<'_>,
        rates: &[f64],
        actual_exec_values: &[f64],
    ) -> Result<Vec<f64>, ProtocolError> {
        let estimates = Local.verify(coordinator, rates, actual_exec_values)?;
        coordinator.set_now(self.1.elapsed().as_secs_f64());
        Ok(estimates)
    }
}

/// A long-running online mechanism session. See the module docs.
pub struct OnlineSession<'m> {
    mechanism: &'m dyn VerifiedMechanism,
    config: ProtocolConfig,
    pool: OnlinePool,
    specs: Vec<Option<NodeSpec>>,
    ledger: Vec<f64>,
    collector: Arc<dyn Collector>,
    journal: Option<Rc<RefCell<dyn Journal>>>,
    epoch: Instant,
    next_round: u64,
    events: u64,
    ticks_settled: u64,
    ticks_skipped: u64,
}

impl<'m> OnlineSession<'m> {
    /// Creates an empty session distributing `config.total_rate`.
    ///
    /// # Errors
    /// Rejects a non-finite or non-positive total rate.
    pub fn new(
        mechanism: &'m dyn VerifiedMechanism,
        config: ProtocolConfig,
    ) -> Result<Self, ProtocolError> {
        let pool = OnlinePool::new(config.total_rate).map_err(online_err)?;
        Ok(Self {
            mechanism,
            config,
            pool,
            specs: Vec::new(),
            ledger: Vec::new(),
            collector: noop_collector(),
            journal: None,
            epoch: Instant::now(),
            next_round: 0,
            events: 0,
            ticks_settled: 0,
            ticks_skipped: 0,
        })
    }

    /// Attaches a telemetry collector: membership events become `online.*`
    /// instants and every settled tick records the full round grammar —
    /// which is also how the audit-layer invariant monitors observe the
    /// session (they are collector decorators).
    #[must_use]
    pub fn with_collector(mut self, collector: Arc<dyn Collector>) -> Self {
        self.collector = collector;
        self
    }

    /// Attaches a durable journal. Each settled tick appends one complete
    /// round block in the standard grammar, so an interrupted session
    /// recovers with the existing [`crate::recovery`] machinery.
    #[must_use]
    pub fn with_journal(mut self, journal: Rc<RefCell<dyn Journal>>) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Number of live machines.
    #[must_use]
    pub fn live(&self) -> usize {
        self.pool.live()
    }

    /// The next tick's round id.
    #[must_use]
    pub fn next_round(&self) -> u64 {
        self.next_round
    }

    /// Compensated re-sums of `S` so far.
    #[must_use]
    pub fn resums(&self) -> u64 {
        self.pool.resums()
    }

    /// The incrementally maintained harmonic sum (diagnostics and
    /// differential testing).
    #[must_use]
    pub fn harmonic_sum(&self) -> lb_core::TwoF64 {
        self.pool.harmonic_sum()
    }

    /// The current PR rate of the machine at `slot`, O(1) — evaluated
    /// against the incremental `S`, so it already reflects every event
    /// applied so far.
    #[must_use]
    pub fn rate_of(&self, slot: usize) -> Option<f64> {
        self.pool.rate_of(slot)
    }

    /// Cumulative payment of the machine at `slot` over all settled ticks.
    #[must_use]
    pub fn cumulative_payment(&self, slot: usize) -> f64 {
        self.ledger.get(slot).copied().unwrap_or(0.0)
    }

    fn instant(&self, name: &'static str, machine: usize) {
        self.collector.instant(
            self.epoch.elapsed().as_secs_f64(),
            name,
            Subsystem::Coordinator,
            vec![Field::u64("machine", machine as u64)],
        );
    }

    /// Applies one event. Membership events are O(1) amortized; a
    /// [`OnlineEvent::RoundTick`] runs one full settle round (O(live)).
    ///
    /// # Errors
    /// Membership violations (occupied/vacant slots, invalid bids) and any
    /// protocol/journal/mechanism error from a tick round. A failed tick
    /// leaves the membership state untouched, so the session can continue
    /// once the cause (e.g. a crashed journal) is repaired.
    pub fn apply(&mut self, event: OnlineEvent) -> Result<OnlineApplied, ProtocolError> {
        match event {
            OnlineEvent::Join { machine, spec } => {
                self.pool.join(machine, spec.bid).map_err(online_err)?;
                if self.specs.len() <= machine {
                    self.specs.resize(machine + 1, None);
                    self.ledger.resize(machine + 1, 0.0);
                }
                self.specs[machine] = Some(spec);
                self.events += 1;
                self.instant("online.join", machine);
                Ok(OnlineApplied::Joined { machine })
            }
            OnlineEvent::Leave { machine } => {
                self.pool.leave(machine).map_err(online_err)?;
                self.specs[machine] = None;
                self.events += 1;
                self.instant("online.leave", machine);
                Ok(OnlineApplied::Left { machine })
            }
            OnlineEvent::RateChange { machine, spec } => {
                self.pool
                    .rate_change(machine, spec.bid)
                    .map_err(online_err)?;
                self.specs[machine] = Some(spec);
                self.events += 1;
                self.instant("online.rebid", machine);
                Ok(OnlineApplied::Rebid { machine })
            }
            OnlineEvent::RoundTick => self.settle_tick(),
        }
    }

    /// Runs one settle round over the live machines against the
    /// incremental harmonic sum.
    fn settle_tick(&mut self) -> Result<OnlineApplied, ProtocolError> {
        if self.pool.live() < 2 {
            self.ticks_skipped += 1;
            self.instant("online.tick_skipped", self.pool.live());
            return Ok(OnlineApplied::TickSkipped);
        }
        let slots = self.pool.live_slots();
        let bids = self.pool.live_bids();
        let m = slots.len();
        let round = RoundId(self.next_round);
        let exec: Option<Vec<f64>> = slots
            .iter()
            .map(|&i| self.specs[i].map(|s| s.exec_value))
            .collect();
        let exec = exec.ok_or(ProtocolError::MissingState {
            what: "live machine spec",
        })?;

        // Per-tick simulation seed, like the batch sessions' per-round one.
        let mut sim = self.config.simulation;
        sim.seed = sim.seed.wrapping_add(self.next_round);

        let mut root = Coordinator::try_new(self.mechanism, m, self.config.total_rate, round, sim)?
            .with_collector(Arc::clone(&self.collector));
        if let Some(journal) = &self.journal {
            root = root.with_journal(Rc::clone(journal));
        }

        // The machines already "sent" their bids as membership events, and
        // each acknowledges its assignment at once. `try_new` bounds `m` by
        // the u32 wire width, so the machine ids never wrap.
        let mut tick = Tick(self.pool.harmonic_sum(), self.epoch);
        root.set_now(self.epoch.elapsed().as_secs_f64());
        let mut assigned = Vec::new();
        for (machine, &value) in (0..).zip(&bids) {
            let bid = Message::Bid {
                round,
                machine,
                value,
            };
            assigned.extend(root.handle_in(&bid, &exec, &mut tick)?);
        }
        let mut paid = Vec::new();
        for machine in assigned {
            let done = Message::ExecutionDone { round, machine };
            paid.extend(root.handle_in(&done, &exec, &mut tick)?);
        }
        let payments = root
            .payments()
            .ok_or(ProtocolError::MissingState {
                what: "payment ledger",
            })?
            .to_vec();
        for k in paid.into_iter().map(|machine| machine as usize) {
            self.ledger[slots[k]] += payments[k];
        }
        root.seal()?;

        self.next_round += 1;
        self.ticks_settled += 1;
        Ok(OnlineApplied::Settled(OnlineTick {
            round: round.0,
            machines: slots,
            payments,
        }))
    }

    /// Applies a whole event stream, returning the session summary.
    ///
    /// # Errors
    /// Stops at the first event that fails, as [`OnlineSession::apply`].
    pub fn run(
        &mut self,
        events: impl IntoIterator<Item = OnlineEvent>,
    ) -> Result<OnlineReport, ProtocolError> {
        for event in events {
            self.apply(event)?;
        }
        Ok(self.report())
    }

    /// The session summary so far.
    #[must_use]
    pub fn report(&self) -> OnlineReport {
        OnlineReport {
            events: self.events,
            ticks_settled: self.ticks_settled,
            ticks_skipped: self.ticks_skipped,
            resums: self.pool.resums(),
            live: self.pool.live(),
            cumulative_payments: self.ledger.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{read_journal, Journal, MemJournal};
    use crate::runtime::{run_round, RoundSpec};
    use lb_core::inv_sum_dd;
    use lb_mechanism::CompensationBonusMechanism;
    use lb_sim::churn::{ChurnConfig, ChurnGen};

    fn config() -> ProtocolConfig {
        ProtocolConfig {
            total_rate: 10.0,
            ..ProtocolConfig::default()
        }
    }

    #[test]
    fn events_update_rates_in_o1_and_match_scratch() {
        let mech = CompensationBonusMechanism::paper();
        let mut session = OnlineSession::new(&mech, config()).unwrap();
        for (slot, t) in [(0, 1.0), (1, 2.0), (2, 4.0)] {
            session
                .apply(OnlineEvent::Join {
                    machine: slot,
                    spec: NodeSpec::truthful(t),
                })
                .unwrap();
        }
        session.apply(OnlineEvent::Leave { machine: 1 }).unwrap();
        session
            .apply(OnlineEvent::RateChange {
                machine: 2,
                spec: NodeSpec::truthful(0.5),
            })
            .unwrap();

        let scratch = inv_sum_dd(&[1.0, 0.5]);
        let rel = (session.harmonic_sum().value() - scratch.value()).abs() / scratch.value();
        assert!(rel <= 1e-12, "incremental S off by {rel:e}");
        // Factored rates: x_i = (1/b_i)/S · R.
        let r0 = session.rate_of(0).unwrap();
        let r2 = session.rate_of(2).unwrap();
        assert!((r0 + r2 - 10.0).abs() <= 1e-9 * 10.0);
        assert!(session.rate_of(1).is_none(), "left machine has no rate");
    }

    #[test]
    fn tick_settles_like_a_batch_round() {
        // A session whose membership equals a static spec list must settle
        // its first tick exactly like the batch runtime does its round 0
        // (same bids, same verification seed, same allocation inputs).
        let mech = CompensationBonusMechanism::paper();
        let specs: Vec<NodeSpec> = [1.0, 2.0, 3.0, 5.0]
            .iter()
            .map(|&t| NodeSpec::truthful(t))
            .collect();
        let batch = run_round(&RoundSpec::new(&mech, &specs, config()))
            .map(|r| r.outcome)
            .unwrap();

        let mut session = OnlineSession::new(&mech, config()).unwrap();
        for (slot, &spec) in specs.iter().enumerate() {
            session
                .apply(OnlineEvent::Join {
                    machine: slot,
                    spec,
                })
                .unwrap();
        }
        let applied = session.apply(OnlineEvent::RoundTick).unwrap();
        let OnlineApplied::Settled(tick) = applied else {
            panic!("tick did not settle: {applied:?}");
        };
        assert_eq!(tick.round, 0);
        assert_eq!(tick.machines, vec![0, 1, 2, 3]);
        for (k, &p) in tick.payments.iter().enumerate() {
            let rel =
                (p - batch.payments[k]).abs() / batch.payments[k].abs().max(f64::MIN_POSITIVE);
            assert!(
                rel <= 1e-12,
                "machine {k}: online payment {p} vs batch {}",
                batch.payments[k]
            );
            assert_eq!(session.cumulative_payment(k), p);
        }
    }

    #[test]
    fn skipped_ticks_and_journalled_churn_stream() {
        let mech = CompensationBonusMechanism::paper();
        let journal: Rc<RefCell<dyn Journal>> = Rc::new(RefCell::new(MemJournal::new()));
        let mut session = OnlineSession::new(&mech, config())
            .unwrap()
            .with_journal(Rc::clone(&journal));

        // Not enough machines: the tick is skipped, not an error.
        assert_eq!(
            session.apply(OnlineEvent::RoundTick).unwrap(),
            OnlineApplied::TickSkipped
        );

        let cfg = ChurnConfig {
            slots: 16,
            initial: 4,
            events: 400,
            tick_every: 50,
            ..ChurnConfig::default()
        };
        let report = session
            .run(ChurnGen::new(cfg, 11).map(OnlineEvent::from_churn))
            .unwrap();
        assert_eq!(report.ticks_settled + report.ticks_skipped, 8 + 1);
        assert!(report.ticks_settled >= 1);
        assert!(report.events >= 392 - 8);
        assert_eq!(report.live, session.live());

        // Every settled tick appended a complete, clean round block.
        let replay = read_journal(&journal.borrow().bytes().unwrap()).unwrap();
        assert_eq!(replay.truncated_tail, 0);
        assert!(!replay.records.is_empty());
        // Consecutive ticks continue the round-id sequence.
        assert_eq!(session.next_round(), report.ticks_settled);
    }
}
