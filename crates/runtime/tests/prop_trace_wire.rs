//! Property tests over the telemetry wire format: arbitrary
//! [`StepRecord`] sequences — empty steps, backwards step jumps,
//! duplicate and unsorted process ids, maximum-degree read lists,
//! `u32`-boundary node ids — must round-trip byte-exactly through a
//! [`Trace`]'s delta/varint encoding and through a trace file, and bytes
//! that no encoder wrote — random soup behind a trace header, or a trace
//! file with overwritten bytes or a cut tail — must read or fail with an
//! error, never panic.
//!
//! Reading such a file must also request memory in proportion to the file,
//! never to a count or length the file claims: a counting allocator sums
//! the bytes [`read_trace_file`] requests, on the reading thread only, and
//! the sum must stay within [`PER_BYTE`] bytes per byte of the file plus
//! [`FIXED`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use selfstab_graph::{NodeId, Port};
use selfstab_runtime::telemetry::sstb::{TRACE_MAGIC, TRACE_VERSION};
use selfstab_runtime::trace::{ActivationRecord, StepRecord};
use selfstab_runtime::{read_trace_file, Trace, TraceFooter, TraceHeader};

/// Bytes the reader may request per byte of the file: 1 for the file,
/// read whole into the buffer that becomes the trace, and 1 for the
/// header's metadata, copied into its own `String` and at most as long as
/// the file. The step stream is checked where it lies, so nothing the
/// file claims sizes an allocation.
const PER_BYTE: usize = 2;

/// Bytes the reader may request whatever the file's length: one error
/// message, which names the path or a few numbers, with room to spare.
const FIXED: usize = 4096;

thread_local! {
    /// Bytes requested on this thread since counting began, or `None`
    /// while it is not counting.
    static REQUESTED: Cell<Option<usize>> = const { Cell::new(None) };
}

struct CountingAllocator;

impl CountingAllocator {
    fn count(size: usize) {
        // `try_with`: the allocator may run while the thread's locals are
        // torn down, and `REQUESTED` has no destructor to miss.
        let _ = REQUESTED.try_with(|requested| {
            if let Some(total) = requested.get() {
                requested.set(Some(total.saturating_add(size)));
            }
        });
    }
}

// SAFETY: delegates every operation unchanged to the `System` allocator;
// the only addition is a thread-local sum of the requested sizes.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Reads the trace file at `path`, which holds `bytes`, and asserts that
/// the reader requested at most `PER_BYTE` bytes per byte of it plus
/// `FIXED`.
fn read_within_the_allocation_bound(path: &Path, bytes: &[u8]) {
    std::fs::write(path, bytes).expect("writes the trace file");
    REQUESTED.with(|requested| requested.set(Some(0)));
    let read = read_trace_file(path);
    let requested = REQUESTED
        .with(|requested| requested.replace(None))
        .expect("counting");
    drop(read);
    let bound = PER_BYTE * bytes.len() + FIXED;
    assert!(
        requested <= bound,
        "reading a {}-byte trace file requested {requested} bytes (bound {bound})",
        bytes.len()
    );
}

/// `len` bytes of soup, half of them below 4 so that counts and read tags
/// stay plausible and decoding reaches past the first fields.
fn byte_soup(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len)
        .map(|_| {
            if rng.gen_bool(0.5) {
                rng.gen_range(0..4u8)
            } else {
                rng.next_u32() as u8
            }
        })
        .collect()
}

/// Builds a deterministic, deliberately adversarial record sequence from
/// one sampled seed. The shapes this must cover (the proptest stub only
/// supports range strategies, so the structure comes from an inner RNG):
///
/// * empty steps (no activations),
/// * step indices that jump backwards and forwards (zigzag deltas),
/// * unsorted, duplicated process ids (including `NodeId::MAX_INDEX`),
/// * ascending read lists (bitmap encoding) and shuffled/duplicated read
///   lists (delta-list encoding), up to max-degree width.
fn arbitrary_records(seed: u64, steps: usize) -> Vec<StepRecord> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut step = rng.gen_range(0..1_000u64);
    let mut records = Vec::with_capacity(steps);
    for _ in 0..steps {
        // Jump forwards usually, backwards sometimes, occasionally to an
        // extreme index.
        step = match rng.gen_range(0..10u32) {
            0 => step.wrapping_sub(rng.gen_range(0..50u64)),
            1 => u64::MAX - rng.gen_range(0..3u64),
            _ => step.wrapping_add(rng.gen_range(0..9u64)),
        };
        let activation_count = match rng.gen_range(0..8u32) {
            0 | 1 => 0, // empty steps are common under sparse daemons
            2 => rng.gen_range(1..40usize),
            _ => rng.gen_range(1..6usize),
        };
        let mut activations = Vec::with_capacity(activation_count);
        for _ in 0..activation_count {
            let process = match rng.gen_range(0..12u32) {
                0 => NodeId::MAX_INDEX,
                1 => NodeId::MAX_INDEX - rng.gen_range(1..4usize),
                2 if !activations.is_empty() => {
                    // Duplicate an earlier process id (unsorted repeat).
                    let prev: &ActivationRecord = &activations[0];
                    prev.process.index()
                }
                _ => rng.gen_range(0..64usize),
            };
            let reads = match rng.gen_range(0..6u32) {
                // Strictly ascending → bitmap-eligible.
                0 => {
                    let len = rng.gen_range(0..16usize);
                    let mut port = 0usize;
                    (0..len)
                        .map(|_| {
                            port += rng.gen_range(1..5usize);
                            Port::new(port)
                        })
                        .collect()
                }
                // Max-degree wide, descending first-touch order.
                1 => {
                    let degree = rng.gen_range(200..600usize);
                    (0..degree).rev().map(Port::new).collect()
                }
                // Short list with duplicates, arbitrary order.
                2 | 3 => {
                    let len = rng.gen_range(1..10usize);
                    (0..len)
                        .map(|_| Port::new(rng.gen_range(0..7usize)))
                        .collect()
                }
                _ => Vec::new(),
            };
            activations.push(ActivationRecord {
                process: NodeId::new(process),
                executed: rng.gen_bool(0.5),
                reads,
                comm_changed: rng.gen_bool(0.3),
            });
        }
        records.push(StepRecord { step, activations });
    }
    records
}

/// Writes `records` as a sealed trace file at `path` and returns its
/// bytes.
fn recorded_trace(path: &Path, records: &[StepRecord]) -> Vec<u8> {
    let mut trace = Trace::new();
    for record in records {
        trace.push(record);
    }
    let header = TraceHeader {
        node_count: 64,
        seed: 1,
        meta: "workload=ring(64)".to_string(),
    };
    let footer = TraceFooter {
        steps: records.len() as u64,
        stats_digest: 2,
        config_digest: 3,
    };
    trace
        .write_file(path, &header, &footer)
        .expect("writes the trace file");
    std::fs::read(path).expect("reads the trace file back")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn record_soup_behind_a_valid_header_reads_without_panicking_within_the_allocation_bound(
        seed in 0u64..1_000_000,
    ) {
        let path = std::env::temp_dir()
            .join(format!("sstb_wire_records_{seed}_{}.trace", std::process::id()));
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..32 {
            // A valid header (node count 1, seed 0, no metadata) and a
            // step tag, so the soup is parsed as step records.
            let mut bytes = TRACE_MAGIC.to_vec();
            bytes.extend_from_slice(&[TRACE_VERSION, 1, 0, 0, 0x01]);
            let len = rng.gen_range(0..256usize);
            bytes.extend(byte_soup(&mut rng, len));
            read_within_the_allocation_bound(&path, &bytes);
        }
        std::fs::remove_file(&path).expect("removes the trace file");
    }

    #[test]
    fn byte_soup_behind_a_trace_header_reads_without_panicking_within_the_allocation_bound(
        seed in 0u64..1_000_000,
    ) {
        let path = std::env::temp_dir()
            .join(format!("sstb_wire_soup_{seed}_{}.trace", std::process::id()));
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..32 {
            // The magic and version, so the reader gets to the header and
            // the step stream.
            let mut bytes = TRACE_MAGIC.to_vec();
            bytes.push(TRACE_VERSION);
            let len = rng.gen_range(0..256usize);
            bytes.extend(byte_soup(&mut rng, len));
            read_within_the_allocation_bound(&path, &bytes);
        }
        std::fs::remove_file(&path).expect("removes the trace file");
    }

    #[test]
    fn corrupted_trace_files_read_without_panicking_within_the_allocation_bound(
        seed in 0u64..1_000_000,
        steps in 1usize..20,
    ) {
        let path = std::env::temp_dir()
            .join(format!("sstb_wire_corrupt_{seed}_{}.trace", std::process::id()));
        let recorded = recorded_trace(&path, &arbitrary_records(seed, steps));
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..8 {
            let mut bytes = recorded.clone();
            if rng.gen_bool(0.5) {
                for _ in 0..rng.gen_range(1..4u32) {
                    let at = rng.gen_range(0..bytes.len());
                    bytes[at] = rng.next_u32() as u8;
                }
            } else {
                bytes.truncate(rng.gen_range(0..bytes.len()));
            }
            read_within_the_allocation_bound(&path, &bytes);
        }
        std::fs::remove_file(&path).expect("removes the trace file");
    }

    #[test]
    fn wire_round_trips_arbitrary_record_sequences(
        seed in 0u64..1_000_000,
        steps in 0usize..40,
    ) {
        let records = arbitrary_records(seed, steps);
        let mut trace = Trace::new();
        for record in &records {
            trace.push(record);
        }
        prop_assert_eq!(trace.steps(), records.len() as u64);
        prop_assert_eq!(trace.records(), records.clone());
        // Whatever the encoder writes is canonical, so its file reads back.
        let path = std::env::temp_dir()
            .join(format!("sstb_wire_round_trip_{seed}_{}.trace", std::process::id()));
        recorded_trace(&path, &records);
        let (_, read, _) = read_trace_file(&path).expect("the encoder's file reads");
        std::fs::remove_file(&path).expect("removes the trace file");
        prop_assert_eq!(read.bytes(), trace.bytes());
        prop_assert_eq!(read.steps(), trace.steps());
        prop_assert_eq!(read.records(), records);
    }
}
