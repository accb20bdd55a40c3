//! Acceptance test for the telemetry layer's headline guarantees, at the
//! scale the issue pinned: a 10⁴-process COLORING fault-recovery run
//! (1) records into the binary trace container, (2) replays to a
//! byte-identical [`RunStats`](selfstab_runtime::RunStats) and final
//! configuration, and (3) the binary container is at least 10× smaller
//! than the same step records serialized as JSON.

use selfstab_analysis::tracecell::{self, TraceCellSpec};
use selfstab_analysis::Workload;
use selfstab_runtime::{StepRecord, TraceFileReader};

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
    let records = TraceFileReader::open(&path)
        .and_then(|mut reader| reader.read_to_end())
        .expect("decodes the recorded file");
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
