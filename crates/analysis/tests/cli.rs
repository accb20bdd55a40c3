//! The `experiments` binary's inputs: a workload label the generators
//! reject, whether given on the command line or read from a trace file's
//! metadata, is an error on stderr with exit code 1 — never a panic (exit
//! code 101) — the record/replay summary stays valid JSON for any output
//! path, `--only` selects experiments by a case-insensitive list, and a
//! flag that the chosen mode would ignore is an error, `--list` included:
//! it answers only after reading the whole command line.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use selfstab_analysis::tracecell::{self, TraceCellSpec};
use selfstab_analysis::Workload;

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("runs the experiments binary")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("selfstab_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("creates a scratch directory");
    dir
}

fn assert_rejected(output: &Output, label: &str, reason: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{label}: {stderr}");
    assert!(
        stderr.contains(label) && stderr.contains(reason),
        "{label}: stderr lacks the reason: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{label}: {stderr}");
}

const REJECTED: [(&str, &str); 10] = [
    ("ring(2)", "at least three processes"),
    ("path(0)", "at least one process"),
    ("grid(0x4)", "at least one row and one column"),
    ("hypercube(0)", "between 1 and 20 dimensions"),
    ("ba(5,0)", "0 < attach < n"),
    ("gnp(10,1.5)", "not in [0, 1]"),
    // Beyond what the graph builder holds: these must not reach a
    // generator, which would materialize billions of edges first.
    ("ring(5000000000)", "processes exceed"),
    ("path(9000000000)", "processes exceed"),
    ("complete(100000)", "edges exceed"),
    ("grid(4294967296x4294967296)", "overflows"),
];

#[test]
fn rejected_trace_workloads_exit_with_the_reason() {
    let dir = scratch_dir("trace_workload");
    let out = dir.join("t.bin");
    let out = out.to_str().expect("UTF-8 temp path");
    for (label, reason) in REJECTED {
        let output = experiments(&["--trace-out", out, "--trace-workload", label]);
        assert_rejected(&output, label, reason);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Records a cell on `recorded` and rewrites the workload label in its
/// metadata to `label`, a label of the same length (so the header still
/// decodes).
fn patched_trace(dir: &Path, recorded: Workload, label: &str) -> PathBuf {
    let original = recorded.label();
    assert_eq!(original.len(), label.len(), "{original} vs {label}");
    let path = dir.join(format!("{original}.bin"));
    let spec = TraceCellSpec {
        workload: recorded,
        seed: 9,
        max_steps: 2_000,
    };
    tracecell::record(&spec, &path).expect("records");
    let mut bytes = std::fs::read(&path).expect("reads back");
    let at = bytes
        .windows(original.len())
        .position(|w| w == original.as_bytes())
        .expect("the metadata names the workload");
    bytes[at..at + label.len()].copy_from_slice(label.as_bytes());
    std::fs::write(&path, &bytes).expect("writes the patched trace");
    path
}

#[test]
fn rejected_replay_workloads_exit_with_the_reason() {
    let dir = scratch_dir("replay");
    // One recordable workload per rejected label, with a label of the
    // same length.
    let recorded: [Workload; REJECTED.len()] = [
        Workload::Ring(3),
        Workload::Ring(4),
        Workload::Grid(3, 4),
        Workload::Hypercube(3),
        Workload::Ring(5),
        Workload::Gnp(10, 0.5),
        Workload::Caterpillar(3, 2),
        Workload::Caterpillar(4, 2),
        Workload::Caterpillar(5, 2),
        // 0.1 + 0.2 prints as 0.30000000000000004: a 27-byte label.
        Workload::Gnp(10, 0.1 + 0.2),
    ];
    for (workload, (label, reason)) in recorded.into_iter().zip(REJECTED) {
        let path = patched_trace(&dir, workload, label);
        let output = experiments(&["--replay", path.to_str().expect("UTF-8 temp path")]);
        assert_rejected(&output, label, reason);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `--only` takes a comma-separated, case-insensitive list and runs exactly
/// the named experiments; E8 shares the `E7/E8` table.
#[test]
fn only_runs_a_case_insensitive_list_of_experiments() {
    let output = experiments(&["--quick", "--only", "e8,E1", "--format", "json"]);
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 tables");
    let ids: Vec<&str> = stdout
        .split("{\"id\": \"")
        .skip(1)
        .map(|rest| rest.split('"').next().expect("the id's closing quote"))
        .collect();
    assert_eq!(ids, ["E1", "E7/E8"]);
}

#[test]
fn trace_summaries_escape_control_characters_in_paths() {
    let dir = scratch_dir("tab");
    let path = dir.join("a\tb.bin");
    let output = experiments(&[
        "--trace-out",
        path.to_str().expect("UTF-8 temp path"),
        "--trace-workload",
        "ring(8)",
    ]);
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 summary");
    assert!(stdout.contains("a\\tb.bin"), "{stdout}");
    assert!(!stdout.contains('\t'), "raw tab in the summary: {stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The campaign's options in a trace cell, and the recorded cell's
/// options outside a recording, change nothing, so each exits 1 naming
/// the flag and the mode before anything runs or is written.
#[test]
fn flags_the_chosen_mode_ignores_exit_with_the_reason() {
    let dir = scratch_dir("mode");
    let out = dir.join("t.bin");
    let out = out.to_str().expect("UTF-8 temp path");
    let campaign: [&[&str]; 7] = [
        &["--quick"],
        &["--csv", "tables"],
        &["--only", "E3"],
        &["--seed", "4"],
        &["--threads", "2"],
        &["--format", "json"],
        &["--progress"],
    ];
    let mut cases: Vec<(Vec<&str>, &str, &str)> = Vec::new();
    for mode in ["--trace-out", "--replay"] {
        for flag in campaign {
            let mut args = vec![mode, out];
            args.extend_from_slice(flag);
            cases.push((args, flag[0], mode));
        }
    }
    cases.extend([
        // Without the check these two run and exit 0: E3, dropping the
        // seed, and the default cell in the default format.
        (
            vec!["--quick", "--only", "E3", "--trace-seed", "5"],
            "--trace-seed",
            "without --trace-out",
        ),
        (
            vec!["--trace-out", out, "--seed", "4", "--format", "json"],
            "--seed",
            "--trace-out",
        ),
        (
            vec!["--trace-workload", "ring(8)"],
            "--trace-workload",
            "without --trace-out",
        ),
        (
            vec!["--replay", out, "--trace-workload", "ring(8)"],
            "--trace-workload",
            "--replay",
        ),
        (
            vec!["--replay", out, "--trace-seed", "5"],
            "--trace-seed",
            "--replay",
        ),
        // `--list` answers only after the whole command line is read.
        (vec!["--list", "--bogus"], "--bogus", "unknown argument"),
        (vec!["--bogus", "--list"], "--bogus", "unknown argument"),
        (
            vec!["--list", "--trace-seed", "5", "--quick"],
            "--trace-seed",
            "without --trace-out",
        ),
        (vec!["--list", "--quick"], "--quick", "with --list"),
        (
            vec!["--list", "--trace-out", out],
            "--trace-out",
            "with --list",
        ),
        (
            vec!["--metrics", "json", "--list"],
            "--metrics",
            "with --list",
        ),
    ]);
    for (args, flag, mode) in cases {
        let output = experiments(&args);
        let label = args.join(" ");
        assert_rejected(&output, flag, mode);
        assert!(output.stdout.is_empty(), "{label}: ran anyway");
        assert!(!dir.join("t.bin").exists(), "{label}: wrote a trace");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn list_alone_prints_every_experiment() {
    let output = experiments(&["--list"]);
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 list");
    let ids: Vec<&str> = stdout
        .lines()
        .filter_map(|line| line.split_whitespace().next())
        .collect();
    assert_eq!(ids.first(), Some(&"E1"), "{stdout}");
    assert!(ids.contains(&"E7/E8") && ids.contains(&"E14"), "{stdout}");
}
