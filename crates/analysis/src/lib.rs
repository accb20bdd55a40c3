//! Experiment harness reproducing the paper's evaluation artifacts.
//!
//! The paper is a theory paper: its "evaluation" is a set of theorems,
//! bounds and figure constructions. Each experiment in
//! [`experiments`] regenerates one of them as a table whose *shape* can be
//! compared against the paper's claim (the `experiments` binary prints
//! them; `crates/analysis/golden/quick_tables.json` and
//! `full_tables.json` record the `--quick` and the full tables):
//!
//! | Experiment | Paper artifact | Claim checked |
//! |---|---|---|
//! | E1  | §3.2 examples        | communication/space complexity: `log(∆+1)` vs `∆·log(∆+1)` bits |
//! | E2  | Fig. 7, Thm 3        | COLORING stabilizes w.p. 1 and is 1-efficient |
//! | E3  | Fig. 8, Lemma 4      | MIS stabilizes within `∆·#C` rounds |
//! | E4  | Thm 6, Fig. 9        | MIS is ♦-(⌊(Lmax+1)/2⌋, 1)-stable |
//! | E5  | Fig. 10, Lemma 9     | MATCHING stabilizes within `(∆+1)n+2` rounds |
//! | E6  | Thm 8, Fig. 11       | MATCHING is ♦-(2⌈m/(2∆−1)⌉, 1)-stable |
//! | E7  | Thm 1, Figs 1–2      | frozen-read coloring deadlocks in illegitimate silent configurations |
//! | E8  | Thm 2, Figs 3–6      | frozen-read MIS deadlocks even with root + dag orientation |
//! | E9  | §1, §6               | stabilized-phase read overhead and fault recovery, efficient vs baseline |
//! | E10 | §6 open question     | the round-robin transformer yields 1-efficient protocols |
//! | E11 | design ablations     | identifier quality (#C) and daemon choice do not affect correctness |
//! | E12 | spanning subsystem   | silent BFS tree: oracle-verified convergence scaling with the tree height |
//! | E13 | spanning subsystem   | leader election: unique min-id leader, ♦-1-efficient vs the Δ-efficient baseline |
//! | E14 | fault-scenario engine | recovery cost depends on *which* processes a fault hits: uniform vs hubs vs ball vs stuck-at vs bursty |
//!
//! Every experiment module is a table function whose one public item is
//! `run`: it declares its run grid as a [`campaign::CampaignSpec`]
//! (workload × daemon × parameters × seeds, each workload's graph built
//! once) executed by the parallel campaign engine — see the [`campaign`]
//! module for the engine's determinism guarantees — and folds each grid
//! point's runs straight into its row. The `experiments` binary (`cargo
//! run --release -p selfstab-analysis --bin experiments`) prints every
//! table (`--only E12,E13` runs a subset, `--seed N` changes the base
//! seed, `--threads N` sets the worker count, `--format json` emits one
//! machine-readable document, `--list` shows the identifiers); the
//! end-to-end benchmark (`perfbench/`) times the `--quick` suite as its
//! `paper-suite` workload.
//!
//! The binary is also the observability entry point: `--trace-out` /
//! `--replay` record and verify the canonical [`tracecell`] through the
//! runtime's compact binary trace format, `--metrics table|json` prints
//! the [`metrics_report`] over the runtime's phase/fault/campaign
//! registry, and `--progress` streams one line per completed campaign
//! cell to stderr.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod experiments;
pub mod metrics_report;
pub mod stats;
pub mod table;
pub mod tracecell;
pub mod workloads;

pub use campaign::{CampaignSpec, CellOutcome, DaemonSpec};
pub use table::ExperimentTable;
pub use workloads::Workload;
