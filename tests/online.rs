//! Online mechanism integration: streaming joins/leaves through the full
//! facade.
//!
//! * the O(1) incremental pool agrees bit-for-bit with the factored
//!   closed-form allocation after arbitrary churn;
//! * an [`OnlineSession`]'s first settle tick pays exactly what a batch
//!   [`run_round`] pays on the same population;
//! * a journalled churn session leaves a cleanly-split round journal and
//!   internally consistent report totals.

use lbmv::core::{inv_sum_dd, pr_allocate_with_sum, TwoF64};
use lbmv::mechanism::{CompensationBonusMechanism, OnlinePool};
use lbmv::proto::{
    read_journal, run_round, split_rounds, Journal, MemJournal, NodeSpec, OnlineApplied,
    OnlineEvent, OnlineSession, ProtocolConfig, RoundSpec,
};
use lbmv::sim::churn::{ChurnConfig, ChurnEvent, ChurnGen};
use lbmv::sim::driver::SimulationConfig;
use lbmv::sim::server::ServiceModel;
use std::cell::RefCell;
use std::rc::Rc;

const RATE: f64 = 12.0;

fn sim(seed: u64) -> SimulationConfig {
    SimulationConfig {
        horizon: 50.0,
        seed,
        model: ServiceModel::StationaryDeterministic,
        workload: Default::default(),
        warmup: 0.0,
        estimator: Default::default(),
    }
}

fn config(seed: u64) -> ProtocolConfig {
    ProtocolConfig {
        total_rate: RATE,
        link_latency: 0.0005,
        simulation: sim(seed),
    }
}

#[test]
fn incremental_pool_tracks_the_closed_form_bit_for_bit() {
    let mut pool = OnlinePool::new(RATE).unwrap();
    let mut mirror: Vec<Option<f64>> = vec![None; 8];

    let script = [
        ChurnEvent::Join {
            slot: 0,
            value: 1.0,
        },
        ChurnEvent::Join {
            slot: 3,
            value: 2.5,
        },
        ChurnEvent::Join {
            slot: 5,
            value: 0.25,
        },
        ChurnEvent::RateChange {
            slot: 3,
            value: 4.0,
        },
        ChurnEvent::Join {
            slot: 1,
            value: 8.0,
        },
        ChurnEvent::Leave { slot: 0 },
        ChurnEvent::Join {
            slot: 7,
            value: 0.125,
        },
        ChurnEvent::Leave { slot: 5 },
    ];
    for event in script {
        match event {
            ChurnEvent::Join { slot, value } => {
                pool.join(slot, value).unwrap();
                mirror[slot] = Some(value);
            }
            ChurnEvent::Leave { slot } => {
                pool.leave(slot).unwrap();
                mirror[slot] = None;
            }
            ChurnEvent::RateChange { slot, value } => {
                pool.rate_change(slot, value).unwrap();
                mirror[slot] = Some(value);
            }
            ChurnEvent::Tick => {}
        }
        let live: Vec<f64> = mirror.iter().copied().flatten().collect();
        if live.len() < 2 {
            continue;
        }
        // The pool's rates must be *bit-identical* to the factored closed
        // form evaluated at the pool's own S — same expression, same order.
        let alloc = pr_allocate_with_sum(&live, RATE, pool.harmonic_sum()).unwrap();
        let live_slots: Vec<usize> = (0..mirror.len()).filter(|&s| mirror[s].is_some()).collect();
        for (k, &slot) in live_slots.iter().enumerate() {
            let incremental = pool.rate_of(slot).unwrap();
            assert_eq!(
                incremental.to_bits(),
                alloc.rate(k).to_bits(),
                "slot {slot} diverged from the closed form"
            );
        }
        // And the incrementally maintained S stays within the drift bar of
        // a from-scratch double-double fold.
        let scratch = inv_sum_dd(&live).value();
        let rel = (pool.harmonic_sum().value() - scratch).abs() / scratch.abs();
        assert!(rel <= 1e-12, "S drifted {rel:e} relative");
    }

    // Absent machines read back as no rate at all.
    assert_eq!(pool.rate_of(0), None);
    assert_eq!(pool.live(), 3);

    // A compensated re-sum restores bit-exactness against the fold.
    pool.resum();
    let live: Vec<f64> = mirror.iter().copied().flatten().collect();
    let scratch: TwoF64 = inv_sum_dd(&live);
    assert_eq!(
        pool.harmonic_sum().value().to_bits(),
        scratch.value().to_bits()
    );
}

#[test]
fn first_settle_tick_pays_exactly_like_a_batch_round() {
    let mech = CompensationBonusMechanism::paper();
    let trues = [1.0, 2.0, 4.0, 8.0];
    let config = config(7);

    let mut session = OnlineSession::new(&mech, config).unwrap();
    for (slot, &t) in trues.iter().enumerate() {
        let applied = session
            .apply(OnlineEvent::Join {
                machine: slot,
                spec: NodeSpec::truthful(t),
            })
            .unwrap();
        assert_eq!(applied, OnlineApplied::Joined { machine: slot });
    }
    let tick = match session.apply(OnlineEvent::RoundTick).unwrap() {
        OnlineApplied::Settled(tick) => tick,
        other => panic!("expected a settled tick, got {other:?}"),
    };

    // Round 0 of the online session uses seed base+0, exactly like the
    // batch runtime; a join-only history makes S bit-identical to the
    // batch fold, so the whole payment vector must match to the bit.
    let specs: Vec<NodeSpec> = trues.iter().map(|&t| NodeSpec::truthful(t)).collect();
    let batch = run_round(&RoundSpec::new(&mech, &specs, config))
        .map(|r| r.outcome)
        .unwrap();

    assert_eq!(tick.round, 0);
    assert_eq!(tick.machines, vec![0, 1, 2, 3]);
    assert_eq!(tick.payments.len(), batch.payments.len());
    for (k, (&online, &offline)) in tick.payments.iter().zip(&batch.payments).enumerate() {
        assert_eq!(
            online.to_bits(),
            offline.to_bits(),
            "machine {k}: online {online} vs batch {offline}"
        );
        assert_eq!(session.cumulative_payment(k).to_bits(), offline.to_bits());
    }
    assert_eq!(session.next_round(), 1);
}

#[test]
fn journalled_churn_session_reports_consistent_totals() {
    let mech = CompensationBonusMechanism::paper();
    let config = config(21);
    let churn = ChurnConfig {
        slots: 24,
        initial: 5,
        events: 500,
        half_width: 2.0,
        tick_every: 60,
        min_live: 2,
    };
    let seed = 9;

    let journal: Rc<RefCell<dyn Journal>> = Rc::new(RefCell::new(MemJournal::new()));
    let mut session = OnlineSession::new(&mech, config)
        .unwrap()
        .with_journal(journal.clone());
    let report = session
        .run(ChurnGen::new(churn, seed).map(OnlineEvent::from_churn))
        .unwrap();

    // The report's totals must reconcile with the stream itself.
    let stream: Vec<ChurnEvent> = ChurnGen::new(churn, seed).collect();
    let ticks = stream
        .iter()
        .filter(|e| matches!(e, ChurnEvent::Tick))
        .count() as u64;
    let membership = stream.len() as u64 - ticks;
    assert_eq!(report.events, membership);
    assert_eq!(report.ticks_settled + report.ticks_skipped, ticks);
    assert!(report.ticks_settled > 0, "stream settled no rounds");
    assert_eq!(report.cumulative_payments.len(), churn.slots);
    assert!(report.cumulative_payments.iter().all(|p| p.is_finite()));

    // Each settled tick left exactly one complete round block behind.
    let bytes = journal.borrow().bytes().unwrap();
    let replay = read_journal(&bytes).unwrap();
    assert_eq!(replay.truncated_tail, 0);
    let blocks = split_rounds(&replay.records).unwrap();
    assert_eq!(blocks.len() as u64, report.ticks_settled);

    // And an unjournalled session reproduces the same session end to end.
    let again = OnlineSession::new(&mech, config)
        .unwrap()
        .run(ChurnGen::new(churn, seed).map(OnlineEvent::from_churn))
        .unwrap();
    assert_eq!(again.events, report.events);
    assert_eq!(again.ticks_settled, report.ticks_settled);
    assert_eq!(again.live, report.live);
    for (slot, (&a, &b)) in again
        .cumulative_payments
        .iter()
        .zip(&report.cumulative_payments)
        .enumerate()
    {
        assert_eq!(a.to_bits(), b.to_bits(), "slot {slot} replayed differently");
    }
}
