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
use selfstab_graph::coloring::{self as graph_coloring, LocalColoring};
use selfstab_graph::Graph;
use selfstab_runtime::scheduler::Synchronous;
use selfstab_runtime::{SimOptions, Simulation};

use super::{topologies, ExperimentConfig};
use crate::campaign::{grid2, CampaignSpec, DaemonSpec};
use crate::stats::Summary;
use crate::table::ExperimentTable;
use crate::workloads::Workload;

/// The identifier-assignment axis of the ablation grid.
#[derive(Clone, Copy)]
enum IdentifierKind {
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

    fn coloring(&self, graph: &Graph) -> LocalColoring {
        match self {
            IdentifierKind::Greedy => graph_coloring::greedy(graph),
            IdentifierKind::Dsatur => graph_coloring::dsatur(graph),
        }
    }
}

/// The identifier-ablation cell: rounds to silence of one MIS run with the
/// given identifier assignment, under the synchronous daemon, within the
/// Lemma 4 bound.
fn identifier_cell(graph: &Graph, kind: IdentifierKind, seed: u64) -> u64 {
    let protocol = Mis::new(kind.coloring(graph));
    let bound = protocol.round_bound(graph);
    let report = Simulation::new(graph, protocol, Synchronous, seed, SimOptions::default())
        .run_until_silent(bound + 16);
    assert!(report.silent, "MIS must stabilize within its bound");
    report.total_rounds
}

/// The daemon-ablation cell: steps to silence of one COLORING run under
/// the given daemon.
fn daemon_cell(graph: &Graph, daemon: DaemonSpec, config: &ExperimentConfig, seed: u64) -> u64 {
    let report = Simulation::new(
        graph,
        Coloring::new(graph),
        daemon.build(),
        seed,
        SimOptions::default(),
    )
    .run_until_silent(config.max_steps);
    assert!(report.silent, "COLORING must stabilize under a fair daemon");
    report.total_steps
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
    let id_topologies = topologies(
        [
            Workload::Gnp(48, 0.12),
            Workload::Grid(6, 6),
            Workload::Star(24),
        ],
        config,
    );
    let id_spec = CampaignSpec::with_config(
        grid2(
            &id_topologies.iter().collect::<Vec<_>>(),
            &[IdentifierKind::Greedy, IdentifierKind::Dsatur],
        ),
        config,
    );
    for point in id_spec.run(config.threads, |c| {
        identifier_cell(&c.point.0.graph, c.point.1, c.seed)
    }) {
        let (topology, kind) = point.point;
        let coloring = kind.coloring(&topology.graph);
        let color_count = coloring.color_count();
        let bound = Mis::new(coloring).round_bound(&topology.graph);
        let rounds = Summary::from_counts(point.runs.iter().copied()).mean;
        table.push_row(vec![
            topology.workload.label(),
            "identifiers".into(),
            kind.label().into(),
            format!("#C = {color_count}"),
            bound.to_string(),
            format!("{rounds:.1} rounds"),
        ]);
    }
    // Daemon ablation: (workload × daemon) grid.
    let daemon_topologies = topologies([Workload::Ring(32), Workload::Gnp(48, 0.12)], config);
    let daemon_spec = CampaignSpec::with_config(
        grid2(
            &daemon_topologies.iter().collect::<Vec<_>>(),
            &DaemonSpec::ablation_set(),
        ),
        config,
    );
    for point in daemon_spec.run(config.threads, |c| {
        daemon_cell(&c.point.0.graph, c.point.1, config, c.seed)
    }) {
        let (topology, daemon) = point.point;
        let summary = Summary::from_counts(point.runs.iter().copied());
        table.push_row(vec![
            topology.workload.label(),
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
        let grid = &topologies([Workload::Grid(4, 4)], &cfg)[0].graph;
        let greedy = IdentifierKind::Greedy.coloring(grid);
        let dsatur = IdentifierKind::Dsatur.coloring(grid);
        assert!(dsatur.color_count() <= greedy.color_count());
        assert!(Mis::new(dsatur).round_bound(grid) <= Mis::new(greedy).round_bound(grid));
        let rounds: u64 = cfg
            .seeds()
            .map(|seed| identifier_cell(grid, IdentifierKind::Greedy, seed))
            .sum();
        assert!(rounds >= cfg.runs, "at least one round per run on average");
    }

    #[test]
    fn coloring_converges_under_all_daemons() {
        let cfg = ExperimentConfig::quick();
        let ring = &topologies([Workload::Ring(12)], &cfg)[0].graph;
        for daemon in DaemonSpec::ablation_set() {
            for seed in cfg.seeds() {
                // The cell asserts that the run reached silence.
                daemon_cell(ring, daemon, &cfg, seed);
            }
        }
    }

    #[test]
    fn table_contains_both_ablations() {
        let table = run(&ExperimentConfig::quick());
        assert!(table.rows.iter().any(|r| r[1] == "identifiers"));
        assert!(table.rows.iter().any(|r| r[1] == "daemon"));
    }
}
