//! E11 — ablations on the design choices called out in `DESIGN.md`.
//!
//! Two knobs of the reproduction are not fixed by the paper and deserve an
//! ablation:
//!
//! 1. **Local identifiers.** The MIS/MATCHING protocols only require colors
//!    that are unique within each neighborhood; the Lemma 4 bound `∆·#C`
//!    depends on how many distinct colors the assignment uses. We compare
//!    the greedy coloring against DSATUR (usually fewer colors) and measure
//!    the effect on the bound and on the observed convergence.
//! 2. **Daemon.** The paper assumes an arbitrary distributed fair daemon; we
//!    compare convergence of COLORING under the synchronous, distributed
//!    random, locally-central and central round-robin daemons to show the
//!    protocols do not secretly rely on a friendly scheduler.

use selfstab_core::coloring::Coloring;
use selfstab_core::mis::Mis;
use selfstab_graph::coloring as graph_coloring;
use selfstab_runtime::scheduler::Synchronous;
use selfstab_runtime::{SimOptions, Simulation};

use super::ExperimentConfig;
use crate::campaign::{grid2, CampaignSpec, DaemonSpec};
use crate::stats::Summary;
use crate::table::ExperimentTable;
use crate::workloads::Workload;

/// The identifier-assignment axis of the ablation grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdentifierKind {
    /// First-fit greedy coloring.
    Greedy,
    /// DSATUR (usually fewer colors).
    Dsatur,
}

impl IdentifierKind {
    fn label(&self) -> &'static str {
        match self {
            IdentifierKind::Greedy => "greedy",
            IdentifierKind::Dsatur => "dsatur",
        }
    }

    fn coloring(&self, graph: &selfstab_graph::Graph) -> graph_coloring::LocalColoring {
        match self {
            IdentifierKind::Greedy => graph_coloring::greedy(graph),
            IdentifierKind::Dsatur => graph_coloring::dsatur(graph),
        }
    }
}

/// Result of the identifier ablation on one workload.
#[derive(Debug, Clone)]
pub struct IdentifierAblation {
    /// Colors used by the greedy assignment.
    pub greedy_colors: usize,
    /// Colors used by DSATUR.
    pub dsatur_colors: usize,
    /// Lemma 4 bound with greedy identifiers.
    pub greedy_bound: u64,
    /// Lemma 4 bound with DSATUR identifiers.
    pub dsatur_bound: u64,
    /// Mean rounds to silence with greedy identifiers.
    pub greedy_rounds: f64,
    /// Mean rounds to silence with DSATUR identifiers.
    pub dsatur_rounds: f64,
}

/// The identifier-ablation cell: one MIS run with the given identifier
/// assignment, under the synchronous daemon, within the Lemma 4 bound.
pub fn identifier_cell(
    workload: &Workload,
    kind: IdentifierKind,
    config: &ExperimentConfig,
    seed: u64,
) -> u64 {
    let graph = workload.build(config.base_seed);
    let protocol = Mis::new(kind.coloring(&graph));
    let bound = protocol.round_bound(&graph);
    let report = Simulation::new(&graph, protocol, Synchronous, seed, SimOptions::default())
        .run_until_silent(bound + 16);
    assert!(report.silent, "MIS must stabilize within its bound");
    report.total_rounds
}

/// The daemon-ablation cell: one COLORING run under the given daemon.
pub fn daemon_cell(
    workload: &Workload,
    daemon: DaemonSpec,
    config: &ExperimentConfig,
    seed: u64,
) -> u64 {
    let graph = workload.build(config.base_seed);
    let report = Simulation::new(
        &graph,
        Coloring::new(&graph),
        daemon.build(),
        seed,
        SimOptions::default(),
    )
    .run_until_silent(config.max_steps);
    assert!(report.silent, "COLORING must stabilize under a fair daemon");
    report.total_steps
}

/// Runs the identifier ablation for MIS on one workload.
pub fn identifier_ablation(workload: &Workload, config: &ExperimentConfig) -> IdentifierAblation {
    let graph = workload.build(config.base_seed);
    let greedy = graph_coloring::greedy(&graph);
    let dsatur = graph_coloring::dsatur(&graph);
    let spec = CampaignSpec::with_config(
        grid2(
            &[*workload],
            &[IdentifierKind::Greedy, IdentifierKind::Dsatur],
        ),
        config,
    );
    let results = spec.run(config.threads, |c| {
        identifier_cell(&c.point.0, c.point.1, config, c.seed)
    });
    let mean = |runs: &[u64]| Summary::from_counts(runs.iter().copied()).mean;
    IdentifierAblation {
        greedy_colors: greedy.color_count(),
        dsatur_colors: dsatur.color_count(),
        greedy_bound: Mis::new(greedy).round_bound(&graph),
        dsatur_bound: Mis::new(dsatur).round_bound(&graph),
        greedy_rounds: mean(&results[0].runs),
        dsatur_rounds: mean(&results[1].runs),
    }
}

/// Steps-to-silence summary of COLORING on one workload under one daemon.
pub fn daemon_ablation(
    workload: &Workload,
    config: &ExperimentConfig,
    daemon: DaemonSpec,
) -> Summary {
    let spec = CampaignSpec::with_config(grid2(&[*workload], &[daemon]), config);
    let results = spec.run(config.threads, |c| {
        daemon_cell(&c.point.0, c.point.1, config, c.seed)
    });
    Summary::from_counts(results[0].runs.iter().copied())
}

/// Runs E11 and renders its table.
pub fn run(config: &ExperimentConfig) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E11",
        "ablations: local-identifier quality (MIS) and daemon choice (COLORING)",
        vec![
            "workload",
            "knob",
            "variant",
            "#C / daemon detail",
            "bound",
            "measured",
        ],
    );
    // Identifier ablation: (workload × identifier kind) grid.
    let id_workloads = [
        Workload::Gnp(48, 0.12),
        Workload::Grid(6, 6),
        Workload::Star(24),
    ];
    let id_spec = CampaignSpec::with_config(
        grid2(
            &id_workloads,
            &[IdentifierKind::Greedy, IdentifierKind::Dsatur],
        ),
        config,
    );
    for point in id_spec.run(config.threads, |c| {
        identifier_cell(&c.point.0, c.point.1, config, c.seed)
    }) {
        let (workload, kind) = *point.point;
        let graph = workload.build(config.base_seed);
        let coloring = kind.coloring(&graph);
        let bound = Mis::new(coloring.clone()).round_bound(&graph);
        let rounds = Summary::from_counts(point.runs.iter().copied()).mean;
        table.push_row(vec![
            workload.label(),
            "identifiers".into(),
            kind.label().into(),
            format!("#C = {}", coloring.color_count()),
            bound.to_string(),
            format!("{rounds:.1} rounds"),
        ]);
    }
    // Daemon ablation: (workload × daemon) grid.
    let daemon_workloads = [Workload::Ring(32), Workload::Gnp(48, 0.12)];
    let daemon_spec = CampaignSpec::with_config(
        grid2(&daemon_workloads, &DaemonSpec::ablation_set()),
        config,
    );
    for point in daemon_spec.run(config.threads, |c| {
        daemon_cell(&c.point.0, c.point.1, config, c.seed)
    }) {
        let (workload, daemon) = *point.point;
        let summary = Summary::from_counts(point.runs.iter().copied());
        table.push_row(vec![
            workload.label(),
            "daemon".into(),
            daemon.name().into(),
            "steps to silence".into(),
            "-".into(),
            summary.display_mean_max(),
        ]);
    }
    table.push_note(
        "identifier ablation: fewer colors (#C) tighten the Lemma 4 bound Δ·#C; measured rounds move much less than the bound",
    );
    table.push_note(
        "daemon ablation: COLORING stabilizes under every fair daemon; serial daemons need more steps (one process per step) but not more work",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dsatur_never_uses_more_colors_than_greedy() {
        let cfg = ExperimentConfig::quick();
        let a = identifier_ablation(&Workload::Grid(4, 4), &cfg);
        assert!(a.dsatur_colors <= a.greedy_colors);
        assert!(a.dsatur_bound <= a.greedy_bound);
        assert!(a.greedy_rounds >= 1.0);
    }

    #[test]
    fn coloring_converges_under_all_daemons() {
        let cfg = ExperimentConfig::quick();
        let workload = Workload::Ring(12);
        for daemon in DaemonSpec::ablation_set() {
            let summary = daemon_ablation(&workload, &cfg, daemon);
            assert_eq!(summary.count as u64, cfg.runs, "{}", daemon.name());
        }
    }

    #[test]
    fn table_contains_both_ablations() {
        let table = run(&ExperimentConfig::quick());
        assert!(table.rows.iter().any(|r| r[1] == "identifiers"));
        assert!(table.rows.iter().any(|r| r[1] == "daemon"));
    }
}
