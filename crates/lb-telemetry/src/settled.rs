//! The settled-round view a coordinator hands its collector at the end of
//! the pay phase.
//!
//! A settling coordinator calls [`Collector::settled`] once with a borrowed
//! [`SettledRound`]. The default implementation records the view under
//! [`Subsystem::Coordinator`] at the settle timestamp: per machine, in index
//! order, one `settle.machine` instant whose typed fields are `machine`
//! (u64), `bid`, `rate`, `estimate`, `excluded` (bool) and `payment`; then
//! the gauges `round.index`, `round.total_rate` and, last,
//! `round.payment.total`. Event names are fixed, so no name carries a
//! machine index; dashboards and recorded JSONL read the fields. An observer
//! that checks the round (lb-audit's invariant monitor) overrides
//! [`Collector::settled`] and reads the typed slices instead.

use crate::collector::Collector;
use crate::event::{Field, Subsystem};
use std::fmt;

/// One settled round, borrowed from the coordinator that settled it.
///
/// The five machine-indexed slices are equally long and non-empty; the
/// only way to build a view is [`SettledRound::new`], which checks that,
/// so no observer can see a partial round.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct SettledRound<'a> {
    /// Round index.
    pub round: u64,
    /// The arrival rate `R` the allocation distributes.
    pub total_rate: f64,
    /// Each machine's bid (0 for a machine that never bid).
    pub bids: &'a [f64],
    /// Allocated rates `x_i`.
    pub rates: &'a [f64],
    /// The coordinator's execution-value estimates `t̃_i`.
    pub estimates: &'a [f64],
    /// Whether each machine was excluded from the round.
    pub excluded: &'a [bool],
    /// Payments `P_i`.
    pub payments: &'a [f64],
    /// The payment aggregate the coordinator exports as
    /// `round.payment.total`.
    pub payment_total: f64,
}

/// [`SettledRound::new`] was given empty or unequally long slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnLengthError {
    /// Lengths of bids, rates, estimates, excluded and payments.
    pub lengths: [usize; 5],
}

impl fmt::Display for ColumnLengthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "settled round needs equally long, non-empty columns; got lengths {:?}",
            self.lengths
        )
    }
}

impl std::error::Error for ColumnLengthError {}

impl<'a> SettledRound<'a> {
    /// Builds the view.
    ///
    /// # Errors
    /// Returns [`ColumnLengthError`] when a slice is empty or the slices
    /// differ in length.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        round: u64,
        total_rate: f64,
        bids: &'a [f64],
        rates: &'a [f64],
        estimates: &'a [f64],
        excluded: &'a [bool],
        payments: &'a [f64],
        payment_total: f64,
    ) -> Result<Self, ColumnLengthError> {
        let lengths = [
            bids.len(),
            rates.len(),
            estimates.len(),
            excluded.len(),
            payments.len(),
        ];
        if lengths[0] == 0 || lengths.iter().any(|&len| len != lengths[0]) {
            return Err(ColumnLengthError { lengths });
        }
        Ok(Self {
            round,
            total_rate,
            bids,
            rates,
            estimates,
            excluded,
            payments,
            payment_total,
        })
    }

    /// Number of machines in the round.
    #[must_use]
    pub fn machines(&self) -> usize {
        self.payments.len()
    }

    /// Records the settlement events of the module docs into `collector`.
    pub(crate) fn record<C: Collector + ?Sized>(&self, collector: &C, at: f64) {
        for i in 0..self.machines() {
            collector.instant(
                at,
                "settle.machine",
                Subsystem::Coordinator,
                vec![
                    Field::u64("machine", i as u64),
                    Field::f64("bid", self.bids[i]),
                    Field::f64("rate", self.rates[i]),
                    Field::f64("estimate", self.estimates[i]),
                    Field::bool("excluded", self.excluded[i]),
                    Field::f64("payment", self.payments[i]),
                ],
            );
        }
        let gauge = |name, value| collector.gauge(at, name, Subsystem::Coordinator, value);
        #[allow(clippy::cast_precision_loss)]
        gauge("round.index", self.round as f64);
        gauge("round.total_rate", self.total_rate);
        gauge("round.payment.total", self.payment_total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, FieldValue};
    use crate::ring::RingCollector;

    #[test]
    fn rejects_empty_and_unequal_columns() {
        let (two, one) = ([1.0, 2.0], [1.0]);
        let flags = [false, false];
        let err = SettledRound::new(0, 3.0, &two, &two, &one, &flags, &two, 0.0).unwrap_err();
        assert_eq!(err.lengths, [2, 2, 1, 2, 2]);
        assert!(SettledRound::new(0, 3.0, &two, &two, &two, &[false], &two, 0.0).is_err());
        assert!(SettledRound::new(0, 3.0, &[], &[], &[], &[], &[], 0.0).is_err());
        let ok = SettledRound::new(0, 3.0, &two, &two, &two, &flags, &two, 3.0).unwrap();
        assert_eq!(ok.machines(), 2);
    }

    #[test]
    fn default_hook_records_one_instant_per_machine_then_the_round_gauges() {
        let ring = RingCollector::new(64);
        let view = SettledRound::new(
            7,
            3.0,
            &[1.0, 2.0],
            &[2.0, 1.0],
            &[1.5, 2.5],
            &[false, true],
            &[0.25, 0.0],
            0.25,
        )
        .unwrap();
        ring.settled(4.5, &view);
        let events = ring.snapshot();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_ref()).collect();
        assert_eq!(
            names,
            [
                "settle.machine",
                "settle.machine",
                "round.index",
                "round.total_rate",
                "round.payment.total",
            ]
        );
        assert_eq!(
            events[1].fields,
            [
                Field::u64("machine", 1),
                Field::f64("bid", 2.0),
                Field::f64("rate", 1.0),
                Field::f64("estimate", 2.5),
                Field::bool("excluded", true),
                Field::f64("payment", 0.0),
            ]
        );
        assert_eq!(events[0].kind, EventKind::Instant);
        assert_eq!(events[0].field("machine"), Some(&FieldValue::U64(0)));
        assert_eq!(events[0].field("excluded"), Some(&FieldValue::Bool(false)));
        let values: Vec<EventKind> = events[2..].iter().map(|e| e.kind.clone()).collect();
        assert_eq!(
            values,
            [7.0, 3.0, 0.25].map(|value| EventKind::Gauge { value })
        );
        assert!(events
            .iter()
            .all(|e| e.at == 4.5 && e.cat == Subsystem::Coordinator));
    }
}
