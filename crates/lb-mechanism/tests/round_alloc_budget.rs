//! Allocation budget of a verified round's mechanism work: one bid side,
//! a settle against the estimates that borrows it and an oracle settle
//! that consumes it allocate only the eight columns the two outcomes
//! return. The estimate settle's payment column is the one copy of the
//! `L_{-i}` column; the oracle settle pays in the column itself.

// Counting bytes needs a `GlobalAlloc` impl, which is `unsafe` to write;
// this test binary is the only place the workspace lint gives way.
#![allow(unsafe_code)]

use lb_core::System;
use lb_mechanism::{settle_verified, CompensationBonusMechanism, Profile, VerifiedMechanism};
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::borrow::Cow;
use std::cell::Cell;

/// Counts the bytes the calling thread requests, so the test harness's own
/// threads cannot disturb a measurement.
struct Counting;

thread_local! {
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn bump(bytes: usize) {
    BYTES.with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method forwards to the system allocator with the caller's
// arguments unchanged; the counter is a const-initialised thread-local,
// which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { SystemAlloc.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const N: usize = 1 << 14;
const SLACK: usize = 4096;

/// Bytes requested by the calling thread while `f` runs.
fn bytes_during<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (BYTES.with(Cell::get) - before, out)
}

fn profile() -> Profile {
    #[allow(clippy::cast_precision_loss)]
    let trues: Vec<f64> = (0..N).map(|i| 1.0 + (i % 97) as f64 * 0.13).collect();
    let system = System::from_true_values(&trues).unwrap();
    Profile::with_deviation(&system, 64.0, 0, 3.0, 3.0).unwrap()
}

#[test]
fn a_verified_round_allocates_only_the_columns_it_returns() {
    let profile = profile();
    let (bids, exec, r) = (profile.bids(), profile.exec_values(), profile.total_rate());
    let estimated: Vec<f64> = exec.iter().map(|e| e * 1.01).collect();
    let m = CompensationBonusMechanism::paper();
    let (bytes, (outcome, oracle)) = bytes_during(|| {
        let side = m.bid_side(bids.into(), r, None).unwrap();
        let outcome = settle_verified(&m, &profile, Cow::Borrowed(&side), &estimated);
        let oracle = settle_verified(&m, &profile, Cow::Owned(side), exec);
        (outcome.unwrap(), oracle.unwrap())
    });
    assert_eq!(outcome.payments.len(), N);
    assert_eq!(oracle.utilities.len(), N);
    // Two outcomes of four columns: rates, payments, valuations, utilities.
    let budget = 2 * 32 * N + SLACK;
    assert!(
        bytes <= budget,
        "bid side and two settles: {bytes} bytes (budget {budget})"
    );
}
