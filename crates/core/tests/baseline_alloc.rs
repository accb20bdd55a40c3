//! The Δ-efficient baseline MIS evaluates its guards and activations
//! without touching the allocator.
//!
//! `BaselineMis` reads every neighbour on every guard evaluation and every
//! activation, so it is the protocol whose per-activation cost scales with
//! Δ. Both of its rules are evaluated in one pass over the ports, with no
//! buffer of the neighbours' registers. A counting global allocator checks
//! that, once the executor's scratch is warm, neither silent stepping
//! (every selected process re-checks all its neighbours and stays put) nor
//! a repair after a corrupted membership (guard re-evaluations and moves)
//! allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use selfstab_core::baselines::BaselineMis;
use selfstab_core::mis::Membership;
use selfstab_graph::{generators, NodeId};
use selfstab_runtime::scheduler::Synchronous;
use selfstab_runtime::{SimOptions, Simulation};

/// Global allocation-event counter (alloc + realloc; frees are irrelevant
/// to the "no allocation" claim).
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

impl CountingAllocator {
    fn count(&self) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed); // ordering: count-only; asserted after quiescence
    }
}

// SAFETY: delegates every operation unchanged to the `System` allocator;
// the only addition is a relaxed counter increment.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed) // ordering: read on the asserting thread between steps
}

#[test]
fn baseline_mis_steps_without_allocating() {
    // One test function only: the counter is process-global, and a second
    // concurrently-running test would pollute it.
    let graph = generators::grid(8, 8);
    let mut sim = Simulation::new(
        &graph,
        BaselineMis::with_greedy_coloring(&graph),
        Synchronous,
        5,
        SimOptions::default(),
    );
    assert!(sim.run_until_silent(100_000).silent);
    // Warm the executor's scratch with a few repairs.
    for round in 0..4 {
        sim.set_state(NodeId::new(9 * round + 3), Membership::Dominator);
        sim.run_steps(40);
    }
    assert!(sim.run_until_silent(100_000).silent);

    // Silent stepping: the synchronous daemon activates every process,
    // and each one reads all its neighbours.
    let reads_before = sim.stats().total_read_operations();
    let before = allocation_count();
    sim.run_steps(200);
    let allocations = allocation_count() - before;
    assert!(sim.stats().total_read_operations() > reads_before);
    assert_eq!(
        allocations, 0,
        "silent stepping allocated {allocations} times"
    );

    // Repair: corrupted memberships re-evaluate guards and move.
    let before = allocation_count();
    for round in 0..8 {
        sim.set_state(NodeId::new(7 * round + 1), Membership::Dominator);
        sim.run_steps(40);
    }
    let allocations = allocation_count() - before;
    assert!(sim.is_legitimate());
    assert_eq!(
        allocations, 0,
        "repair stepping allocated {allocations} times"
    );

    // The counter works: an explicit allocation registers.
    let before = allocation_count();
    let v: Vec<u64> = Vec::with_capacity(32);
    assert!(v.capacity() >= 32);
    assert!(allocation_count() > before);
}
