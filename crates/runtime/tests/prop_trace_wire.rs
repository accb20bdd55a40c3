//! Property tests over the telemetry wire format: arbitrary
//! [`StepRecord`] sequences — empty steps, backwards step jumps,
//! duplicate and unsorted process ids, maximum-degree read lists,
//! `u32`-boundary node ids — must round-trip byte-exactly through
//! [`MemorySink`]'s delta/varint encoding, and bytes that no encoder
//! wrote — random soup, or a trace file with overwritten bytes or a cut
//! tail — must decode or fail with an error, never panic.

use std::path::Path;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use selfstab_graph::{NodeId, Port};
use selfstab_runtime::telemetry::wire;
use selfstab_runtime::trace::{ActivationRecord, StepRecord};
use selfstab_runtime::{
    FileSink, MemorySink, TraceFileReader, TraceFooter, TraceHeader, TraceSink,
};

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

/// Records `records` into a sealed trace file at `path` and returns its
/// bytes.
fn recorded_trace(path: &Path, records: &[StepRecord]) -> Vec<u8> {
    let header = TraceHeader {
        node_count: 64,
        seed: 1,
        meta: "workload=ring(64)".to_string(),
    };
    let mut sink = FileSink::create(path, &header).expect("creates the trace file");
    for record in records {
        sink.record_step(record);
    }
    let footer = TraceFooter {
        steps: records.len() as u64,
        stats_digest: 2,
        config_digest: 3,
    };
    sink.finish(&footer).expect("seals the trace file");
    std::fs::read(path).expect("reads the trace file back")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn decode_step_fails_without_panicking_on_byte_soup(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..32 {
            // Half the bytes small, so counts and read tags stay plausible
            // and decoding reaches past the first fields.
            let len = rng.gen_range(0..256usize);
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    if rng.gen_bool(0.5) {
                        rng.gen_range(0..4u8)
                    } else {
                        rng.next_u32() as u8
                    }
                })
                .collect();
            let (mut pos, mut prev_step) = (0, None);
            // Every decoded record consumes at least one byte.
            while pos < bytes.len() {
                match wire::decode_step(&bytes, &mut pos, prev_step) {
                    Ok(record) => prev_step = Some(record.step),
                    Err(_) => break,
                }
            }
        }
    }

    #[test]
    fn corrupted_trace_files_fail_without_panicking(
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
            std::fs::write(&path, &bytes).expect("writes the corrupted trace");
            if let Ok(mut reader) = TraceFileReader::open(&path) {
                let _ = reader.read_to_end();
            }
        }
        std::fs::remove_file(&path).expect("removes the trace file");
    }

    #[test]
    fn wire_round_trips_arbitrary_record_sequences(
        seed in 0u64..1_000_000,
        steps in 0usize..40,
    ) {
        let records = arbitrary_records(seed, steps);
        let mut sink = MemorySink::new();
        for record in &records {
            sink.record_step(record);
        }
        prop_assert_eq!(sink.steps(), records.len() as u64);
        let decoded = sink.decode_all().expect("generated streams are well-formed");
        prop_assert_eq!(decoded, records);
    }
}
