//! The Δ-efficient baselines, MIS, and the protocols whose guard is
//! derived from `activate` evaluate their guards and activations without
//! touching the allocator.
//!
//! The baselines read every neighbour on every guard evaluation and every
//! activation, so they are the protocols whose per-activation cost scales
//! with Δ. `BaselineMis` evaluates both of its rules in one pass over the
//! ports; `BaselineMatching` and `BaselineColoring` take the whole
//! neighbourhood through `NeighborView::read_all`, which lends it out
//! instead of copying it into a buffer. A counting global allocator checks
//! that, once the executor's scratch is warm, neither silent stepping
//! (every selected process re-checks all its neighbours and stays put) nor
//! repairs (guard re-evaluations and moves, colour redraws included)
//! allocate.
//!
//! The synchronous daemon settles every selected guard through the
//! activation itself, so MIS, MATCHING and the BFS tree also run under
//! `CentralRandom::enabled_only()`, which reads the enabled set: every
//! dirty guard then goes through `is_enabled` before selection, and that
//! must not allocate either. MIS's lane runs its hand-written guard;
//! MATCHING and the BFS tree write none, so their lanes cover the derived
//! one, which runs `activate` on a lazily seeded generator.
//!
//! A silence check (`Simulation::is_silent`) evaluates every process's
//! `is_silent_at` on the simulation's own communication cache, so on a
//! silent simulation 100 checks allocate nothing either: for the three
//! baselines and the BFS tree, which use the default (`!is_enabled`), and
//! for COLORING, MIS and MATCHING, which state their own predicate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use selfstab_core::baselines::{BaselineColoring, BaselineMatching, BaselineMis};
use selfstab_core::coloring::Coloring;
use selfstab_core::matching::{Matching, MatchingState};
use selfstab_core::mis::{Membership, Mis, MisState};
use selfstab_core::spanning::{BfsState, BfsTree};
use selfstab_graph::{generators, Graph, NodeId, Port};
use selfstab_runtime::scheduler::{CentralRandom, DistributedRandom, Scheduler, Synchronous};
use selfstab_runtime::{Protocol, SimOptions, Simulation};

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
fn baseline_protocols_step_without_allocating() {
    // One test function only: the counter is process-global, and a second
    // concurrently-running test would pollute it.
    let graph = generators::grid(8, 8);
    baseline_mis_steps_without_allocating(&graph);
    baseline_matching_checks_without_allocating(&graph);
    baseline_coloring_redraws_without_allocating(&graph);
    let mis = Mis::with_greedy_coloring(&graph);
    let dominator = MisState {
        status: Membership::Dominator,
        cur: Port::new(0),
    };
    guards_evaluate_without_allocating(&graph, mis, dominator);
    let matching = Matching::with_greedy_coloring(&graph);
    let married_to_no_one = MatchingState {
        married: true,
        pr: None,
        cur: Port::new(0),
    };
    guards_evaluate_without_allocating(&graph, matching, married_to_no_one);
    let fake_root = BfsState {
        dist: 0,
        parent: Port::new(0),
    };
    let bfs = BfsTree::new(&graph, NodeId::new(0));
    guards_evaluate_without_allocating(&graph, bfs, fake_root);
    coloring_checks_silence_without_allocating(&graph);

    // The counter works: an explicit allocation registers.
    let before = allocation_count();
    let v: Vec<u64> = Vec::with_capacity(32);
    assert!(v.capacity() >= 32);
    assert!(allocation_count() > before);
}

/// Runs `steps` steps of a silent `sim` and asserts that they read
/// neighbours and did not allocate.
fn assert_silent_stepping_is_allocation_free<P: Protocol, S: Scheduler>(
    sim: &mut Simulation<'_, P, S>,
    steps: u64,
) {
    let name = sim.protocol().name();
    let reads_before = sim.stats().total_read_operations();
    let before = allocation_count();
    sim.run_steps(steps);
    let allocations = allocation_count() - before;
    assert!(sim.stats().total_read_operations() > reads_before);
    assert_eq!(
        allocations, 0,
        "{name}: silent stepping allocated {allocations} times"
    );
}

/// Asserts that `sim` is silent and that 100 more silence checks do not
/// allocate.
fn assert_silence_checks_are_allocation_free<P: Protocol, S: Scheduler>(
    sim: &Simulation<'_, P, S>,
) {
    let name = sim.protocol().name();
    assert!(sim.is_silent(), "{name}: not silent");
    let before = allocation_count();
    let silent_checks = (0..100).filter(|_| sim.is_silent()).count();
    let allocations = allocation_count() - before;
    assert_eq!(silent_checks, 100, "{name}: silence must stay");
    assert_eq!(
        allocations, 0,
        "{name}: 100 silence checks allocated {allocations} times"
    );
}

fn baseline_mis_steps_without_allocating(graph: &Graph) {
    let mut sim = Simulation::new(
        graph,
        BaselineMis::with_greedy_coloring(graph),
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
    assert_silent_stepping_is_allocation_free(&mut sim, 200);
    assert_silence_checks_are_allocation_free(&sim);

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
}

fn baseline_matching_checks_without_allocating(graph: &Graph) {
    let mut sim = Simulation::new(
        graph,
        BaselineMatching::with_greedy_coloring(graph),
        Synchronous,
        5,
        SimOptions::default(),
    );
    assert!(sim.run_until_silent(100_000).silent);
    assert_silent_stepping_is_allocation_free(&mut sim, 200);
    assert_silence_checks_are_allocation_free(&sim);
}

fn baseline_coloring_redraws_without_allocating(graph: &Graph) {
    let n = graph.node_count();
    let mut sim = Simulation::with_config(
        graph,
        BaselineColoring::new(graph),
        Synchronous,
        vec![0; n],
        5,
        SimOptions::default(),
    );
    // Warm the executor's scratch, then put every process back in
    // conflict: the all-zero configuration again.
    assert!(sim.run_until_silent(100_000).silent);
    assert_silence_checks_are_allocation_free(&sim);
    for p in graph.nodes() {
        sim.set_state(p, 0);
    }
    let before = allocation_count();
    let outcome = sim.step();
    let allocations = allocation_count() - before;
    assert_eq!(outcome.executed, n, "every process redraws its colour");
    assert_eq!(
        allocations, 0,
        "a redraw step allocated {allocations} times"
    );
}

/// Drives `protocol` to silence under `CentralRandom::enabled_only()`, then
/// checks that silent stepping and repairs allocate nothing once warm. Each
/// repair writes `corrupt` into a process other than 0 (the BFS root),
/// dirtying its neighbourhood, whose guards `is_enabled` settles before
/// the next selection.
fn guards_evaluate_without_allocating<P: Protocol>(graph: &Graph, protocol: P, corrupt: P::State) {
    let name = protocol.name();
    let mut sim = Simulation::new(
        graph,
        protocol,
        CentralRandom::enabled_only(),
        5,
        SimOptions::default(),
    );
    let victim = |round: usize| NodeId::new(1 + (9 * round) % (graph.node_count() - 1));
    assert!(sim.run_until_silent(1_000_000).silent, "{name}: no silence");
    // Warm the executor's scratch with a few repairs.
    for round in 0..4 {
        sim.set_state(victim(round), corrupt.clone());
        sim.run_steps(300);
    }
    assert!(sim.run_until_silent(1_000_000).silent, "{name}: no silence");

    assert_silent_stepping_is_allocation_free(&mut sim, 2_000);
    assert_silence_checks_are_allocation_free(&sim);

    let guards_before = sim.guard_evaluations();
    let before = allocation_count();
    for round in 4..12 {
        sim.set_state(victim(round), corrupt.clone());
        sim.run_steps(300);
    }
    let allocations = allocation_count() - before;
    assert!(sim.guard_evaluations() > guards_before);
    assert_eq!(
        allocations, 0,
        "{name}: repair stepping allocated {allocations} times"
    );
}

/// COLORING stays enabled wherever a process has a neighbour, so its
/// silence is its own predicate: no neighbour shares a colour.
fn coloring_checks_silence_without_allocating(graph: &Graph) {
    let mut sim = Simulation::new(
        graph,
        Coloring::new(graph),
        DistributedRandom::new(0.5),
        5,
        SimOptions::default(),
    );
    assert!(sim.run_until_silent(100_000).silent);
    assert_silent_stepping_is_allocation_free(&mut sim, 200);
    assert_silence_checks_are_allocation_free(&sim);
}
