//! Allocation budget of a sharded protocol round: the bytes one
//! `Transport::Sharded { shards: 8 }` round requests, per machine, stay
//! flat as the machine count grows, and no transition builds a
//! per-machine vector of frames on the way (the coordinator names
//! recipients; each shard builds a frame only as it sends it).
//!
//! The round spreads over shard worker threads, so the counter is global,
//! and this binary holds a single test so nothing else allocates while it
//! measures.

// Counting bytes needs a `GlobalAlloc` impl, which is `unsafe` to write;
// this test binary is the only place the workspace lint gives way.
#![allow(unsafe_code)]

use lbmv::mechanism::CompensationBonusMechanism;
use lbmv::proto::{
    expected_sharded_message_count, run_round, NodeSpec, ProtocolConfig, RoundSpec, Transport,
};
use lbmv::sim::driver::SimulationConfig;
use lbmv::sim::server::ServiceModel;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts the bytes every thread requests.
struct Counting;

static BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to the system allocator with the caller's
// arguments unchanged; the counter is a static atomic, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const SHARDS: usize = 8;

/// Bytes per machine per round when each transition returned a
/// `Vec<(u32, Message)>` of 168-byte entries: the Assign fan-out of the
/// commit and the Payment fan-out of the settle.
const WITH_FAN_OUT_VECTORS: f64 = 1731.0;

/// Bytes requested per machine by one sharded round over `n` machines.
fn bytes_per_machine(n: usize) -> f64 {
    let mech = CompensationBonusMechanism::paper();
    #[allow(clippy::cast_precision_loss)]
    let specs: Vec<NodeSpec> = (0..n)
        .map(|i| NodeSpec::truthful(1.0 + (i % 7) as f64))
        .collect();
    let config = ProtocolConfig {
        total_rate: 20.0,
        simulation: SimulationConfig {
            horizon: 50.0,
            seed: 7,
            model: ServiceModel::StationaryDeterministic,
            ..SimulationConfig::default()
        },
        ..ProtocolConfig::default()
    };
    let spec = RoundSpec {
        transport: Transport::Sharded {
            shards: SHARDS,
            profiler: None,
        },
        ..RoundSpec::new(&mech, &specs, config)
    };
    let before = BYTES.load(Ordering::Relaxed);
    let report = run_round(&spec).unwrap();
    let bytes = BYTES.load(Ordering::Relaxed) - before;
    assert_eq!(
        report.outcome.stats.messages,
        expected_sharded_message_count(n, SHARDS)
    );
    #[allow(clippy::cast_precision_loss)]
    let per_machine = bytes as f64 / n as f64;
    per_machine
}

#[test]
fn sharded_round_bytes_per_machine_are_flat_and_carry_no_fan_out_vector() {
    let small = bytes_per_machine(1 << 12);
    let large = bytes_per_machine(1 << 16);
    assert!(
        (large - small).abs() <= 0.05 * small,
        "bytes per machine grow with n: {small:.0} at 2^12, {large:.0} at 2^16"
    );
    assert!(
        large <= WITH_FAN_OUT_VECTORS - 300.0,
        "{large:.0} bytes per machine at 2^16: a per-machine frame vector is back"
    );
}
