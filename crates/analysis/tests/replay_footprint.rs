//! Replaying a trace holds no more memory than recording it.
//!
//! A byte-counting global allocator tracks the live heap bytes and their
//! peak. The test records the 10⁴-process acceptance cell (`ring(10000)`)
//! into a trace file and replays the file, each from a fresh peak, and
//! bounds the replay's peak by the recording's plus two terms:
//!
//! * 8 B per process: the replay stages each recorded selection (4 B per
//!   selected process), and the simulation reads it into its own
//!   selection buffer (4 B more), which the recording's daemon filled in
//!   place;
//! * twice the largest record: the replay's own trace keeps only its
//!   newest record, in a buffer that grows by doubling.
//!
//! Everything else the replay holds, the recording holds too: the same
//! graph, protocol, simulation rows and fault injector, and where the
//! replay holds the file's step stream, the recording held a trace buffer
//! at least as large. A replay that decodes the stream into records, or
//! keeps its own trace whole, exceeds the bound.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use selfstab_analysis::tracecell::{self, TraceCellSpec};
use selfstab_analysis::Workload;
use selfstab_runtime::{read_trace_file, Trace};

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
fn replaying_the_ten_thousand_process_cell_holds_no_more_than_recording_it() {
    // One test function only: the counters are process-global.
    let spec = TraceCellSpec {
        workload: Workload::Ring(10_000),
        seed: 0x1CDC5,
        max_steps: 20_000,
    };
    let path = std::env::temp_dir().join(format!(
        "sstb_replay_footprint_{}.trace",
        std::process::id()
    ));

    let before = reset_peak();
    let recorded = tracecell::record(&spec, &path).expect("records the 10k cell");
    let recording = peak() - before;
    let before = reset_peak();
    let replayed = tracecell::replay(&path).expect("replays without divergence");
    let replay = peak() - before;
    assert_eq!(
        (
            replayed.steps,
            replayed.stats_digest,
            replayed.config_digest
        ),
        (
            recorded.steps,
            recorded.stats_digest,
            recorded.config_digest
        )
    );

    // Each record's length as the encoder writes it alone: its step index
    // (at most 98 here) then takes one byte, as its delta does in the
    // stream.
    let (header, trace, _) = read_trace_file(&path).expect("reads the recorded file");
    let largest_record = trace
        .records()
        .iter()
        .map(|record| {
            let mut alone = Trace::new();
            alone.push(record);
            alone.bytes().len()
        })
        .max()
        .expect("the cell records steps");
    std::fs::remove_file(&path).ok();
    let n = header.node_count as usize;
    let budget = recording + 8 * n + 2 * largest_record;
    assert!(
        replay <= budget,
        "the replay peaked at {replay} B, over the recording's {recording} B + 8 B × {n} \
         processes + 2 × {largest_record} B of record by {} B",
        replay - budget
    );
}
