//! Acceptance tests for the telemetry layer's headline guarantees. A
//! 10⁴-process COLORING fault-recovery run (1) records into the binary
//! trace container, (2) replays to a byte-identical
//! [`RunStats`](selfstab_runtime::RunStats) and final configuration, and
//! (3) the binary container is at least 10× smaller than the same step
//! records serialized as JSON. The canonical cell that CI records and
//! replays is pinned to the bytes it produced when the trace format and
//! the fault-scenario engine were last changed.

use selfstab_analysis::tracecell::{self, TraceCellSpec};
use selfstab_analysis::Workload;
use selfstab_runtime::{read_trace_file, StepRecord};

/// Serializes step records as one JSON document,
/// `{"steps":[{"step":0,"activations":[{"process":2,"executed":true,
/// "reads":[0,3],"comm_changed":true}]}]}`: the footprint baseline the
/// binary container is measured against.
fn records_json(records: &[StepRecord]) -> String {
    let steps: Vec<String> = records
        .iter()
        .map(|record| {
            let activations: Vec<String> = record
                .activations
                .iter()
                .map(|a| {
                    let reads: Vec<String> = a
                        .reads
                        .iter()
                        .map(|port| port.index().to_string())
                        .collect();
                    format!(
                        "{{\"process\":{},\"executed\":{},\"reads\":[{}],\"comm_changed\":{}}}",
                        a.process.index(),
                        a.executed,
                        reads.join(","),
                        a.comm_changed
                    )
                })
                .collect();
            format!(
                "{{\"step\":{},\"activations\":[{}]}}",
                record.step,
                activations.join(",")
            )
        })
        .collect();
    format!("{{\"steps\":[{}]}}", steps.join(","))
}

#[test]
fn ten_thousand_node_trace_replays_byte_identically_and_beats_json_tenfold() {
    let spec = TraceCellSpec {
        workload: Workload::Ring(10_000),
        seed: 0x1CDC5,
        max_steps: 20_000,
    };
    let path =
        std::env::temp_dir().join(format!("sstb_acceptance_10k_{}.trace", std::process::id()));

    let recorded = tracecell::record(&spec, &path).expect("records the 10k cell");
    assert!(
        recorded.recovered,
        "the cell must re-stabilize within its budget (ran {} steps)",
        recorded.steps
    );
    assert!(recorded.steps > 0);

    let replayed = tracecell::replay(&path).expect("replays without divergence");
    assert_eq!(replayed.steps, recorded.steps, "step count");
    assert_eq!(replayed.rounds, recorded.rounds, "round count");
    assert_eq!(
        replayed.stats_digest, recorded.stats_digest,
        "RunStats must replay byte-identically"
    );
    assert_eq!(
        replayed.config_digest, recorded.config_digest,
        "the final configuration must replay byte-identically"
    );

    // Compare the container against the same step records serialized as
    // JSON, decoded from the recorded file itself.
    let (_, trace, _) = read_trace_file(&path).expect("reads the recorded file");
    let records = trace.records();
    assert_eq!(records.len() as u64, recorded.steps, "one record per step");
    let json = records_json(&records);
    assert!(
        recorded.trace_bytes.saturating_mul(10) <= json.len() as u64,
        "binary trace must be >= 10x smaller than JSON: {} * 10 > {}",
        recorded.trace_bytes,
        json.len()
    );

    std::fs::remove_file(&path).ok();
}

/// FNV-1a-64 over the bytes of a file, one byte at a time.
fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The canonical cell (`--trace-workload 'grid(10x10)' --trace-seed
/// 20090622`) records the same run into the same bytes, and replays it.
/// A change to the executor, the fault-scenario engine, COLORING or the
/// trace encoding that alters any of these values changes every recorded
/// trace, and must say why. The stats digest, and so the file's FNV,
/// follow the footer's `RunStats::digest`, which folds one selection count
/// per process and the two read maxima as store-wide scalars: narrowing
/// the statistics row to that count changed these two values, and not the
/// step stream, the file's length or the config digest.
#[test]
fn canonical_grid_trace_is_pinned() {
    let spec = TraceCellSpec {
        workload: Workload::Grid(10, 10),
        seed: 20_090_622,
        ..TraceCellSpec::default()
    };
    let path = std::env::temp_dir().join(format!("sstb_canonical_{}.trace", std::process::id()));
    let recorded = tracecell::record(&spec, &path).expect("records the canonical cell");
    let bytes = std::fs::read(&path).expect("reads the trace back");
    assert_eq!((recorded.steps, recorded.rounds), (96, 12));
    assert_eq!(recorded.trace_bytes, 15_999);
    assert_eq!(bytes.len(), 15_999);
    assert_eq!(recorded.stats_digest, 0xd200_768c_268c_94ad);
    assert_eq!(recorded.config_digest, 0x1293_6a50_aad9_7041);
    assert_eq!(fnv1a_bytes(&bytes), 0x8c9f_6e83_7891_48dd);

    let replayed = tracecell::replay(&path).expect("replays without divergence");
    assert_eq!(
        (
            replayed.steps,
            replayed.rounds,
            replayed.stats_digest,
            replayed.config_digest
        ),
        (96, 12, recorded.stats_digest, recorded.config_digest)
    );
    std::fs::remove_file(&path).ok();
}
