//! Steady-state `Simulation::step()` performs **zero heap allocations**.
//!
//! A counting global allocator records every `alloc`/`realloc`; after a
//! warm-up phase that grows the executor's scratch buffers to their working
//! size, driving the simulation further — silent stepping, fault injection,
//! repair stepping — must not touch the allocator at all. This is the
//! enforcement test for the zero-allocation hot path: any future `Vec`,
//! `Box`, clone or format sneaking into `step()` (or into the schedulers'
//! `select`) trips it immediately.
//!
//! The one deliberate exception is a trace sink: while one is attached,
//! every step builds a record for it and therefore allocates by design;
//! none is attached here, as in every large-scale experiment. Metrics stay
//! disabled, as they are by default, so the registry costs one relaxed
//! load per step.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use selfstab_graph::{generators, Graph, NodeId, Port};
use selfstab_runtime::faults::{BallCenter, FaultInjector, FaultLoad, FaultModel};
use selfstab_runtime::protocol::Protocol;
use selfstab_runtime::scheduler::{
    CentralRandom, CentralRoundRobin, DistributedRandom, LocallyCentral, Scheduler, Synchronous,
};
use selfstab_runtime::view::NeighborView;
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

/// Minimum-propagation toy protocol with `Copy` state: the same executor
/// shape as the paper protocols (guard reads all neighbors, activation
/// copies the minimum) without depending on `selfstab-core`.
struct MinValue;

impl Protocol for MinValue {
    type State = u32;
    type Comm = u32;

    fn name(&self) -> &'static str {
        "min-value"
    }

    fn arbitrary_state(&self, _graph: &Graph, p: NodeId, _rng: &mut dyn RngCore) -> u32 {
        (p.index() as u32) * 13 + 7
    }

    fn comm(&self, _p: NodeId, state: &u32) -> u32 {
        *state
    }

    fn is_enabled(
        &self,
        graph: &Graph,
        p: NodeId,
        state: &u32,
        view: &NeighborView<'_, u32>,
    ) -> bool {
        (0..graph.degree(p)).any(|i| view.read(Port::new(i)) < state)
    }

    fn activate(
        &self,
        graph: &Graph,
        p: NodeId,
        state: &u32,
        view: &NeighborView<'_, u32>,
        _rng: &mut dyn RngCore,
    ) -> Option<u32> {
        let min = (0..graph.degree(p))
            .map(|i| *view.read(Port::new(i)))
            .min()
            .unwrap_or(*state);
        (min < *state).then_some(min)
    }

    fn comm_bits(&self, _graph: &Graph, _p: NodeId) -> u64 {
        32
    }

    fn state_bits(&self, _graph: &Graph, _p: NodeId) -> u64 {
        32
    }

    fn is_legitimate(&self, _graph: &Graph, config: &[u32]) -> bool {
        let min = config.iter().min().copied().unwrap_or(0);
        config.iter().all(|&v| v == min)
    }
}

/// Drives one daemon through the three steady-state regimes and asserts
/// that none of them allocates after warm-up.
fn assert_zero_alloc_steady_state<S: Scheduler>(graph: &Graph, scheduler: S, daemon: &str) {
    let mut sim = Simulation::new(graph, MinValue, scheduler, 42, SimOptions::default());

    // Converge, then warm every scratch buffer past its working size:
    // plain silent steps plus a few fault/repair cycles so the dirty queue,
    // the update buffer and the read log have all seen their peak load.
    let report = sim.run_until_silent(500_000);
    assert!(report.silent, "{daemon}: MinValue must stabilize");
    sim.run_steps(300);
    for round in 0..5u32 {
        sim.set_state(
            NodeId::new((7 * round as usize + 1) % graph.node_count()),
            0,
        );
        sim.run_steps(100);
    }

    // Regime 1: silent stepping.
    let before = allocation_count();
    sim.run_steps(2_000);
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "{daemon}: silent stepping allocated {} times",
        after - before
    );

    // Regime 2: fault injection + repair stepping.
    let before = allocation_count();
    for round in 0..20u32 {
        sim.set_state(
            NodeId::new((3 * round as usize + 2) % graph.node_count()),
            0,
        );
        sim.run_steps(50);
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "{daemon}: fault/repair stepping allocated {} times",
        after - before
    );

    // Regime 3: enabled-set queries between steps (refresh path).
    let before = allocation_count();
    for _ in 0..200 {
        let _ = sim.enabled_set().count();
        sim.step();
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "{daemon}: enabled-set refresh allocated {} times",
        after - before
    );

    // Regime 4: structured fault injections (the fault-scenario engine's
    // victim selection + adversarial state search) interleaved with
    // stepping. The injector's scratch — partial Fisher–Yates pool, BFS
    // distance/queue buffers, victim list — is warmed by one injection per
    // model, after which repeated injections must not allocate.
    let models = [
        FaultModel::Uniform(FaultLoad::Fraction(0.05)),
        FaultModel::DegreeTargeted(FaultLoad::Count(3)),
        FaultModel::Ball {
            center: BallCenter::Random,
            radius: 2,
        },
        FaultModel::StuckAt(FaultLoad::Count(2)),
    ];
    let mut injector = FaultInjector::new(graph);
    let mut fault_rng = StdRng::seed_from_u64(7);
    for &model in &models {
        injector.inject(&mut sim, model, &mut fault_rng);
        sim.run_steps(30);
    }
    let before = allocation_count();
    for round in 0..12u32 {
        let model = models[round as usize % models.len()];
        injector.inject(&mut sim, model, &mut fault_rng);
        sim.run_steps(50);
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "{daemon}: structured fault injection + repair stepping allocated {} times",
        after - before
    );
}

#[test]
fn steady_state_step_performs_zero_heap_allocations() {
    // One test function only: the counter is process-global, and a second
    // concurrently-running test would pollute it.
    assert!(
        !selfstab_runtime::telemetry::metrics::enabled(),
        "this binary never enables metrics; the regimes below rely on it"
    );
    let ring = generators::ring(128);
    let grid = generators::grid(12, 12);

    assert_zero_alloc_steady_state(&ring, CentralRandom::new(), "central-random");
    assert_zero_alloc_steady_state(&ring, CentralRandom::enabled_only(), "central-enabled");
    assert_zero_alloc_steady_state(&ring, CentralRoundRobin::new(), "round-robin");
    assert_zero_alloc_steady_state(&ring, Synchronous, "synchronous");
    assert_zero_alloc_steady_state(&ring, DistributedRandom::new(0.3), "distributed-random");
    assert_zero_alloc_steady_state(
        &grid,
        DistributedRandom::new(0.3),
        "distributed-random/grid",
    );
    assert_zero_alloc_steady_state(&grid, LocallyCentral::new(0.4), "locally-central/grid");

    // Sanity check that the counter actually works: an explicit allocation
    // must register.
    let before = allocation_count();
    let v: Vec<u64> = Vec::with_capacity(32);
    assert!(v.capacity() >= 32);
    assert!(
        allocation_count() > before,
        "counting allocator must observe explicit allocations"
    );
}
