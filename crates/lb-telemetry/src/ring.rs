//! [`RingCollector`]: a bounded in-memory recorder.
//!
//! Events are appended to a fixed-capacity ring buffer guarded by a
//! `std::sync::Mutex` (uncontended lock/unlock is a couple of atomic
//! operations — "lock-free-ish" for the single-digit-nanosecond budget of an
//! instrumentation point). A poisoned lock is entered anyway: a panicking
//! recorder must not take the remaining history with it. When the ring is full the *oldest* event is
//! overwritten and counted, so a long chaotic session keeps its most recent
//! history instead of aborting or reallocating.

use crate::collector::Collector;
use crate::event::{SpanId, TelemetryEvent};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Default event capacity: enough for several heavy chaos rounds.
const DEFAULT_CAPACITY: usize = 16_384;

struct RingInner {
    buf: VecDeque<TelemetryEvent>,
    overwritten: u64,
}

/// A thread-safe, fixed-capacity event recorder.
pub struct RingCollector {
    capacity: usize,
    next_id: AtomicU64,
    inner: Mutex<RingInner>,
}

impl std::fmt::Debug for RingCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("RingCollector")
            .field("capacity", &self.capacity)
            .field("len", &inner.buf.len())
            .field("overwritten", &inner.overwritten)
            .finish()
    }
}

impl Default for RingCollector {
    fn default() -> Self {
        Self::new(DEFAULT_CAPACITY)
    }
}

impl RingCollector {
    /// Creates a recorder holding at most `capacity` events.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "RingCollector: capacity must be positive");
        Self {
            capacity,
            next_id: AtomicU64::new(1),
            inner: Mutex::new(RingInner {
                buf: VecDeque::with_capacity(capacity),
                overwritten: 0,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, RingInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Maximum number of events retained.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of events currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().buf.len()
    }

    /// Whether no events have been retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock().buf.is_empty()
    }

    /// Number of old events overwritten because the ring was full.
    #[must_use]
    pub fn overwritten(&self) -> u64 {
        self.lock().overwritten
    }

    /// Copies the current contents, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<TelemetryEvent> {
        self.lock().buf.iter().cloned().collect()
    }

    /// Drains the recorder, returning everything recorded so far (oldest
    /// first) and resetting the overwrite counter.
    #[must_use]
    pub fn take(&self) -> Vec<TelemetryEvent> {
        let mut inner = self.lock();
        inner.overwritten = 0;
        inner.buf.drain(..).collect()
    }
}

impl Collector for RingCollector {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: TelemetryEvent) {
        let mut inner = self.lock();
        if inner.buf.len() == self.capacity {
            inner.buf.pop_front();
            inner.overwritten = inner.overwritten.saturating_add(1);
        }
        inner.buf.push_back(event);
    }

    fn next_span_id(&self) -> SpanId {
        SpanId(self.next_id.fetch_add(1, Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Subsystem;

    #[test]
    fn records_in_order_and_allocates_distinct_ids() {
        let ring = RingCollector::new(8);
        let a = ring.span_start(0.0, "round", Subsystem::Coordinator, vec![]);
        let b = ring.span_start_in(0.1, "phase.collect_bids", Subsystem::Coordinator, a, vec![]);
        ring.span_end(0.4, b);
        ring.span_end(0.5, a);
        assert_ne!(a, b);
        assert!(!a.is_null() && !b.is_null());
        let events = ring.snapshot();
        assert_eq!(events.len(), 4);
        assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn full_ring_overwrites_oldest() {
        let ring = RingCollector::new(3);
        for i in 0..5 {
            ring.instant(f64::from(i), "tick", Subsystem::Network, vec![]);
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.overwritten(), 2);
        let events = ring.snapshot();
        assert_eq!(events[0].at, 2.0, "oldest surviving event is tick #2");
    }

    #[test]
    fn take_drains_and_resets() {
        let ring = RingCollector::new(2);
        ring.instant(0.0, "a", Subsystem::Network, vec![]);
        ring.instant(1.0, "b", Subsystem::Network, vec![]);
        ring.instant(2.0, "c", Subsystem::Network, vec![]);
        assert_eq!(ring.overwritten(), 1);
        let drained = ring.take();
        assert_eq!(drained.len(), 2);
        assert!(ring.is_empty());
        assert_eq!(ring.overwritten(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let _ = RingCollector::new(0);
    }
}
