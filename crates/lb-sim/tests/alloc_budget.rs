//! Allocation budget of the verification kernel: one `simulate_partition`
//! call makes a number of heap allocations that does not grow with the
//! machine count. Beyond its two output vectors, only the doubling of the
//! reused arrivals and responses buffers may allocate.

// Counting allocations needs a `GlobalAlloc` impl, which is `unsafe` to
// write; this test binary is the only place the workspace lint gives way.
#![allow(unsafe_code)]

use lb_sim::driver::{simulate_partition, SimulationConfig};
use lb_sim::server::ServiceModel;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the calling thread's allocations and reallocations, so the test
/// harness's own threads cannot disturb a measurement.
struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn bump() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a const-initialised thread-local, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The most allocations one call may make, whatever the machine count.
const BUDGET: usize = 16;

/// Runs one partition of `n` machines, every third one idle, and returns
/// the allocations it made and the largest per-machine job count.
fn allocations_for(n: usize) -> (usize, u64) {
    let bids = vec![2.0; n];
    let rates: Vec<f64> = (0..n).map(|i| if i % 3 == 0 { 0.0 } else { 0.5 }).collect();
    let config = SimulationConfig {
        horizon: 8.0,
        seed: 11,
        model: ServiceModel::StationaryExponential,
        ..SimulationConfig::default()
    };
    let before = ALLOCS.with(Cell::get);
    let report = simulate_partition(&bids, &bids, &rates, &config, 0, None).unwrap();
    let allocs = ALLOCS.with(Cell::get) - before;
    let max_jobs = report.observations.iter().map(|o| o.jobs_arrived).max();
    (allocs, max_jobs.unwrap_or(0))
}

#[test]
fn partition_allocations_do_not_grow_with_the_machine_count() {
    for n in [16, 16_384] {
        let (allocs, max_jobs) = allocations_for(n);
        // Two output vectors, then at most one growth per power of two of
        // the largest job count for each of the two buffers.
        let doublings = (u64::BITS - max_jobs.leading_zeros()) as usize;
        assert!(
            allocs <= BUDGET && allocs <= 2 + 2 * doublings,
            "{n} machines: {allocs} allocations (budget {BUDGET}, \
             largest machine {max_jobs} jobs)"
        );
    }
}
