//! A simulation holds each per-process row once.
//!
//! A byte-counting global allocator tracks the live heap bytes and their
//! peak. The test clones an MIS protocol, builds a synchronous
//! `Simulation` on `barabasi_albert(10⁴, 3)` and runs one step, the step
//! that stages the most updates. The peak of the bytes that clone and
//! simulation hold must stay within the sum of their rows, derived below
//! from the row sizes. A second copy of any per-process row, such as a
//! staged state or communication value, private offsets in the statistics
//! or a protocol clone that copies its colours, exceeds it, and so does a
//! statistics row wider than its one selection count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::SeedableRng;
use selfstab_core::mis::{Mis, MisComm, MisState};
use selfstab_graph::{generators, NodeId};
use selfstab_runtime::scheduler::Synchronous;
use selfstab_runtime::stats::ProcessStats;
use selfstab_runtime::{SimOptions, Simulation};

/// Heap bytes currently allocated.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The largest value `LIVE` reached since the last `reset_peak`.
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct ByteCountingAllocator;

impl ByteCountingAllocator {
    fn grow(&self, bytes: usize) {
        // ordering: byte counts only; read on the asserting thread after the work is done
        let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(live, Ordering::Relaxed); // ordering: as above
    }

    fn shrink(&self, bytes: usize) {
        LIVE.fetch_sub(bytes, Ordering::Relaxed); // ordering: byte counts only
    }
}

// SAFETY: delegates every operation unchanged to the `System` allocator
// and returns its result as is; the only addition is relaxed updates of
// two byte counters, which never allocate.
unsafe impl GlobalAlloc for ByteCountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as the new block arriving before the old one leaves,
        // which is what a moving realloc holds at its peak.
        self.grow(new_size);
        self.shrink(layout.size());
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.shrink(layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: ByteCountingAllocator = ByteCountingAllocator;

/// Starts a new peak from the bytes live now, and returns them.
fn reset_peak() -> usize {
    let live = LIVE.load(Ordering::Relaxed); // ordering: single asserting thread
    PEAK.store(live, Ordering::Relaxed); // ordering: as above
    live
}

fn peak() -> usize {
    PEAK.load(Ordering::Relaxed) // ordering: single asserting thread
}

#[test]
fn a_synchronous_mis_step_holds_each_row_once() {
    // One test function only: the counters are process-global.
    let graph = generators::barabasi_albert(10_000, 3, &mut StdRng::seed_from_u64(1)).unwrap();
    let n = graph.node_count();
    let ports = 2 * graph.edge_count();
    let protocol = Mis::with_greedy_coloring(&graph);

    // The rows, in bytes per process (each width is asserted, so the
    // budget follows the types):
    //   config      MisState                          8
    //   comm cache  MisComm                           8
    //   statistics  ProcessStats                      8
    //   flag byte   enabled, dirty, selected          1
    //   dirty queue NodeId                            4
    //   selection   NodeId                            4
    //   staged      (NodeId, bool)                    8
    // plus one read-flag byte per port (2m), and a few Δ- or #C-sized
    // buffers (read-port slots, the clone's palette). Debug builds also
    // fill the sampled invariant check's scratch, one `bool` per process
    // pushed into a `Vec` that doubles: `2^⌈log₂ n⌉` bytes, and half as
    // many again while its last realloc moves it. The clone shares
    // its colours with `protocol`, so it adds no per-process row.
    assert_eq!(size_of::<MisState>(), 8);
    assert_eq!(size_of::<MisComm>(), 8);
    assert_eq!(size_of::<ProcessStats>(), 8);
    assert_eq!(size_of::<NodeId>(), 4);
    assert_eq!(size_of::<(NodeId, bool)>(), 8);
    let per_process = 8 + 8 + 8 + 1 + 4 + 4 + 8;
    // The rows above account for every live byte the step holds at its
    // peak, so this is the whole slack the test allows: room for small
    // incidental buffers that no row names. It is under one byte per
    // process (n = 10⁴), so a second copy of any per-process row, even a
    // one-byte one, still exceeds the budget.
    const HEADROOM: usize = 4096;
    let small_buffers = 4 * (graph.max_degree() + protocol.coloring().color_count()) + HEADROOM;
    let debug_scratch = if cfg!(debug_assertions) {
        3 * n.next_power_of_two() / 2
    } else {
        0
    };
    let budget = per_process * n + ports + small_buffers + debug_scratch;

    let before = reset_peak();
    let clone = protocol.clone();
    let mut sim = Simulation::new(&graph, clone, Synchronous, 1, SimOptions::default());
    let outcome = sim.step();
    let held = peak() - before;
    assert!(
        outcome.executed > n / 2,
        "the first step from an arbitrary configuration stages most processes ({} of {n})",
        outcome.executed
    );
    assert!(
        held <= budget,
        "clone + simulation peaked at {held} B, over the budget of {budget} B \
         ({per_process} B per process, {ports} port flags, {small_buffers} B of small buffers, \
         {debug_scratch} B of debug scratch) by {} B",
        held - budget
    );
    drop(sim);
}
