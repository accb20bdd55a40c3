//! Property tests over the telemetry wire format: arbitrary
//! [`StepRecord`] sequences — empty steps, backwards step jumps,
//! duplicate and unsorted process ids, maximum-degree read lists,
//! `u32`-boundary node ids — must round-trip byte-exactly through
//! [`MemorySink`]'s delta/varint encoding.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selfstab_graph::{NodeId, Port};
use selfstab_runtime::trace::{ActivationRecord, StepRecord};
use selfstab_runtime::MemorySink;
use selfstab_runtime::TraceSink;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

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
