//! Incremental re-allocation for the online mechanism.
//!
//! The batch mechanism recomputes the harmonic sum `S = Σ 1/b_i` and every
//! rate from scratch each round — O(n) per change. [`OnlinePool`] instead
//! keeps the membership in *factored form*: a per-slot bid `b_i` plus the
//! incrementally maintained double-double `S`
//! ([`lb_core::IncrementalInvSum`]). A Join adds `1/b_i` to `S`, a Leave
//! subtracts it, a rate change replaces it — O(1) amortized — and the PR
//! rates `x_i = (1/b_i)/S · R` never need storing at all: every machine's
//! rate is implicitly rescaled by the updated `S`, and
//! [`OnlinePool::rate_of`] evaluates any one of them on demand with the
//! *identical* expression [`lb_core::pr_allocate_with_sum`] uses, so a
//! materialized [`OnlinePool::allocation`] agrees with the factored view
//! bit for bit.
//!
//! Drift from the incremental updates is bounded explicitly: once the
//! tracked bound crosses `DRIFT_REL_TOL` relative (heavy cancellation) or
//! the event count since the last re-found reaches the live-machine count
//! (amortization), the pool re-founds `S` with one compensated from-scratch
//! fold — keeping the state within `1e-12` relative of a batch rebuild at
//! *every* event, the contract the `online` fuzz oracle enforces.

use crate::error::MechanismError;
use lb_core::{pr_allocate_with_sum, Allocation, CoreError, IncrementalInvSum, TwoF64};
use std::fmt;

/// Relative drift at which the pool re-founds `S` from the live bids. Two
/// decades of headroom under the `1e-12` equivalence bar the oracle checks.
const DRIFT_REL_TOL: f64 = 1e-14;

/// Floor on the re-sum period, so tiny pools do not re-found on every event.
const MIN_RESUM_PERIOD: u64 = 64;

/// Errors from online membership events.
#[derive(Debug, Clone, PartialEq)]
pub enum OnlineError {
    /// A Join named a slot that is already live.
    SlotOccupied {
        /// The offending slot.
        slot: usize,
    },
    /// A Leave or rate change named a slot with no live machine.
    SlotVacant {
        /// The offending slot.
        slot: usize,
    },
    /// The underlying mechanism or problem model rejected the event.
    Mechanism(MechanismError),
}

impl fmt::Display for OnlineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::SlotOccupied { slot } => write!(f, "slot {slot} already holds a live machine"),
            Self::SlotVacant { slot } => write!(f, "slot {slot} holds no live machine"),
            Self::Mechanism(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for OnlineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Mechanism(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MechanismError> for OnlineError {
    fn from(e: MechanismError) -> Self {
        Self::Mechanism(e)
    }
}

impl From<CoreError> for OnlineError {
    fn from(e: CoreError) -> Self {
        Self::Mechanism(MechanismError::Core(e))
    }
}

/// Streaming machine membership with an incrementally maintained harmonic
/// sum — the O(1)-per-event core of the online mechanism.
#[derive(Debug, Clone)]
pub struct OnlinePool {
    /// Slot-indexed bids; `None` marks a vacant slot. The vector grows on
    /// demand, so slot ids are stable across the whole stream.
    bids: Vec<Option<f64>>,
    live: usize,
    total_rate: f64,
    s: IncrementalInvSum,
}

impl OnlinePool {
    /// An empty pool distributing total arrival rate `r`.
    ///
    /// # Errors
    /// Returns [`CoreError::InvalidRate`] (as [`OnlineError::Mechanism`])
    /// unless `r` is finite and positive.
    pub fn new(r: f64) -> Result<Self, OnlineError> {
        lb_core::allocation::validate_rate(r)?;
        Ok(Self {
            bids: Vec::new(),
            live: 0,
            total_rate: r,
            s: IncrementalInvSum::new(),
        })
    }

    fn validate_bid(bid: f64) -> Result<(), OnlineError> {
        if bid.is_finite() && bid > 0.0 {
            Ok(())
        } else {
            Err(CoreError::InvalidParameter {
                name: "bid",
                value: bid,
            }
            .into())
        }
    }

    /// Joins a machine at `slot` with bid `bid`: adds `1/bid` to `S`. O(1)
    /// amortized (the slot vector grows to cover `slot` on first use).
    ///
    /// # Errors
    /// Rejects occupied slots and non-positive/non-finite bids.
    pub fn join(&mut self, slot: usize, bid: f64) -> Result<(), OnlineError> {
        Self::validate_bid(bid)?;
        if self.bids.len() <= slot {
            self.bids.resize(slot + 1, None);
        }
        if self.bids[slot].is_some() {
            return Err(OnlineError::SlotOccupied { slot });
        }
        self.bids[slot] = Some(bid);
        self.live += 1;
        self.s.insert(bid);
        self.maybe_resum();
        Ok(())
    }

    /// Removes the machine at `slot`: subtracts its `1/bid` from `S`.
    /// Returns the bid that was live. O(1) amortized.
    ///
    /// # Errors
    /// Rejects vacant slots.
    pub fn leave(&mut self, slot: usize) -> Result<f64, OnlineError> {
        let bid = self
            .bids
            .get_mut(slot)
            .and_then(Option::take)
            .ok_or(OnlineError::SlotVacant { slot })?;
        self.live -= 1;
        self.s.remove(bid);
        self.maybe_resum();
        Ok(bid)
    }

    /// Changes the bid of the machine at `slot` (remove-then-insert on
    /// `S`). Returns the previous bid. O(1) amortized.
    ///
    /// # Errors
    /// Rejects vacant slots and invalid bids.
    pub fn rate_change(&mut self, slot: usize, bid: f64) -> Result<f64, OnlineError> {
        Self::validate_bid(bid)?;
        // Confirm occupancy before writing: an erroring rate_change must
        // leave the pool untouched, so the vacant-slot check cannot ride on
        // `Option::replace` (which would deposit the bid first).
        let Some(Some(live_bid)) = self.bids.get_mut(slot) else {
            return Err(OnlineError::SlotVacant { slot });
        };
        let old = std::mem::replace(live_bid, bid);
        self.s.replace(old, bid);
        self.maybe_resum();
        Ok(old)
    }

    /// Re-founds `S` when the drift bound crosses `DRIFT_REL_TOL`
    /// relative (cancellation guard) or one period of events has elapsed
    /// (amortization: the period is at least the live count, so the O(live)
    /// fold costs O(1) per event).
    fn maybe_resum(&mut self) {
        let period = (self.live as u64).max(MIN_RESUM_PERIOD);
        if self.s.needs_resum(DRIFT_REL_TOL) || self.s.ops_since_resum() >= period {
            self.resum();
        }
    }

    /// Unconditionally re-founds `S` with a compensated from-scratch fold
    /// over the live bids in slot order — afterwards `S` is bit-identical
    /// to what a batch rebuild computes.
    pub fn resum(&mut self) {
        let values = self.live_bids();
        self.s.resum(&values);
    }

    /// The incrementally maintained harmonic sum `S = Σ 1/b_i`.
    #[must_use]
    pub fn harmonic_sum(&self) -> TwoF64 {
        self.s.value()
    }

    /// Compensated re-sums performed so far (telemetry).
    #[must_use]
    pub fn resums(&self) -> u64 {
        self.s.resums()
    }

    /// Current upper bound on the absolute drift of `S` (telemetry).
    #[must_use]
    pub fn drift_bound(&self) -> f64 {
        self.s.drift_bound()
    }

    /// The total arrival rate `R` the pool distributes.
    #[must_use]
    pub fn total_rate(&self) -> f64 {
        self.total_rate
    }

    /// Number of live machines.
    #[must_use]
    pub fn live(&self) -> usize {
        self.live
    }

    /// Width of the slot space (highest slot ever joined, plus one).
    #[must_use]
    pub fn slots(&self) -> usize {
        self.bids.len()
    }

    /// The bid at `slot`, if live.
    #[must_use]
    fn bid_of(&self, slot: usize) -> Option<f64> {
        self.bids.get(slot).copied().flatten()
    }

    /// The PR rate of the machine at `slot`, evaluated on demand against
    /// the incremental `S` — the identical expression
    /// [`pr_allocate_with_sum`] uses, so the factored and materialized
    /// views agree bit for bit. O(1).
    #[must_use]
    pub fn rate_of(&self, slot: usize) -> Option<f64> {
        let b = self.bid_of(slot)?;
        let inv_sum = self.s.value().value();
        Some((1.0 / b) / inv_sum * self.total_rate)
    }

    /// Live bids in slot order — the dense bid vector a batch settle or a
    /// from-scratch rebuild consumes. O(slots).
    #[must_use]
    pub fn live_bids(&self) -> Vec<f64> {
        self.bids.iter().copied().flatten().collect()
    }

    /// Live slot ids in slot order, aligned with [`OnlinePool::live_bids`].
    #[must_use]
    pub fn live_slots(&self) -> Vec<usize> {
        self.bids
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.map(|_| i))
            .collect()
    }

    /// Materializes the dense allocation over the live machines (slot
    /// order) against the incremental `S` — the settle-on-tick entry point.
    /// O(live).
    ///
    /// # Errors
    /// Returns [`MechanismError::NeedTwoAgents`] with fewer than two live
    /// machines (the bonus term is undefined otherwise), or numeric errors
    /// from [`pr_allocate_with_sum`].
    pub fn allocation(&self) -> Result<Allocation, OnlineError> {
        if self.live < 2 {
            return Err(MechanismError::NeedTwoAgents.into());
        }
        let values = self.live_bids();
        Ok(pr_allocate_with_sum(
            &values,
            self.total_rate,
            self.s.value(),
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lb_core::inv_sum_dd;

    fn rel(a: f64, b: f64) -> f64 {
        (a - b).abs() / b.abs().max(f64::MIN_POSITIVE)
    }

    #[test]
    fn join_leave_rate_change_track_a_batch_rebuild() {
        let mut pool = OnlinePool::new(10.0).unwrap();
        pool.join(0, 1.0).unwrap();
        pool.join(1, 2.0).unwrap();
        pool.join(3, 4.0).unwrap();
        assert_eq!(pool.live(), 3);
        assert_eq!(pool.live_slots(), vec![0, 1, 3]);

        let scratch = inv_sum_dd(&[1.0, 2.0, 4.0]);
        assert!(rel(pool.harmonic_sum().value(), scratch.value()) <= 1e-15);

        pool.rate_change(1, 0.5).unwrap();
        pool.leave(0).unwrap();
        let scratch = inv_sum_dd(&[0.5, 4.0]);
        assert!(rel(pool.harmonic_sum().value(), scratch.value()) <= 1e-14);

        // The factored rate equals the materialized allocation bit for bit.
        let alloc = pool.allocation().unwrap();
        assert_eq!(pool.rate_of(1).unwrap().to_bits(), alloc.rate(0).to_bits());
        assert_eq!(pool.rate_of(3).unwrap().to_bits(), alloc.rate(1).to_bits());
        // Conservation: the two rates sum to R within feasibility noise.
        assert!(alloc.is_feasible(10.0, 1e-9));
    }

    #[test]
    fn slot_conflicts_and_bad_bids_are_typed_errors() {
        let mut pool = OnlinePool::new(5.0).unwrap();
        pool.join(2, 1.0).unwrap();
        assert_eq!(
            pool.join(2, 1.0).unwrap_err(),
            OnlineError::SlotOccupied { slot: 2 }
        );
        assert_eq!(
            pool.leave(7).unwrap_err(),
            OnlineError::SlotVacant { slot: 7 }
        );
        assert_eq!(
            pool.rate_change(0, 2.0).unwrap_err(),
            OnlineError::SlotVacant { slot: 0 }
        );
        assert!(matches!(
            pool.join(3, -1.0).unwrap_err(),
            OnlineError::Mechanism(MechanismError::Core(CoreError::InvalidParameter { .. }))
        ));
        assert!(OnlinePool::new(f64::NAN).is_err());
        // One live machine cannot settle.
        assert!(matches!(
            pool.allocation().unwrap_err(),
            OnlineError::Mechanism(MechanismError::NeedTwoAgents)
        ));
    }

    #[test]
    fn rate_change_on_vacant_slot_leaves_pool_untouched() {
        let mut pool = OnlinePool::new(5.0).unwrap();
        pool.join(0, 1.0).unwrap();
        pool.join(2, 4.0).unwrap();
        // Slot 1 is allocated (inside the slot vector) but vacant — the
        // regression wrote the bid into it before reporting SlotVacant.
        let sum_before = pool.harmonic_sum();
        assert_eq!(
            pool.rate_change(1, 2.0).unwrap_err(),
            OnlineError::SlotVacant { slot: 1 }
        );
        assert_eq!(pool.bid_of(1), None, "no phantom bid after error");
        assert_eq!(pool.live(), 2);
        assert_eq!(pool.live_slots(), vec![0, 2]);
        assert_eq!(
            pool.harmonic_sum().value().to_bits(),
            sum_before.value().to_bits(),
            "S untouched by the failed event"
        );
        // The slot is still joinable and the pool still settles.
        pool.join(1, 2.0).unwrap();
        let scratch = inv_sum_dd(&[1.0, 2.0, 4.0]);
        assert!(rel(pool.harmonic_sum().value(), scratch.value()) <= 1e-14);
        assert!(pool.allocation().is_ok());
    }

    #[test]
    fn cancellation_guard_triggers_resum() {
        let mut pool = OnlinePool::new(1.0).unwrap();
        pool.join(0, 1e6).unwrap();
        pool.join(1, 2e6).unwrap();
        // A dominant machine churning in and out forces the guard well
        // before the periodic re-sum would fire.
        for _ in 0..40 {
            pool.join(2, 1e-9).unwrap();
            pool.leave(2).unwrap();
        }
        assert!(pool.resums() >= 1, "guard or period re-founded S");
        let scratch = inv_sum_dd(&pool.live_bids());
        assert!(rel(pool.harmonic_sum().value(), scratch.value()) <= 1e-12);
    }
}
