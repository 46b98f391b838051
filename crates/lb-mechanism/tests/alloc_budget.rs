//! Allocation budget of the settle kernel: CB's inherent
//! `payments_with_sum`, the body of a settle against a given `S`, allocates
//! only its output, and `run_mechanism` (a folded bid side settled once)
//! only its four output columns (rates, payments, valuations, utilities) —
//! no leave-one-out, marginal or breakdown vector on the way.

// Counting bytes needs a `GlobalAlloc` impl, which is `unsafe` to write;
// this test binary is the only place the workspace lint gives way.
#![allow(unsafe_code)]

use lb_core::{inv_sum_dd, System};
use lb_mechanism::{run_mechanism, CompensationBonusMechanism, Profile, VerifiedMechanism};
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
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
fn payments_allocate_only_their_output() {
    let profile = profile();
    let (bids, exec, r) = (profile.bids(), profile.exec_values(), profile.total_rate());
    let m = CompensationBonusMechanism::paper();
    let s = inv_sum_dd(bids);
    let alloc = m.allocate(bids, r).unwrap();
    let (bytes, payments) = bytes_during(|| m.payments_with_sum(bids, &alloc, exec, r, s));
    assert_eq!(payments.unwrap().len(), N);
    let budget = 8 * N + SLACK;
    assert!(
        bytes <= budget,
        "payments_with_sum: {bytes} bytes (budget {budget})"
    );
}

#[test]
fn a_round_allocates_only_its_four_columns() {
    let profile = profile();
    let m = CompensationBonusMechanism::paper();
    let (bytes, outcome) = bytes_during(|| run_mechanism(&m, &profile));
    assert_eq!(outcome.unwrap().utilities.len(), N);
    let budget = 32 * N + SLACK;
    assert!(
        bytes <= budget,
        "run_mechanism: {bytes} bytes (budget {budget})"
    );
}
