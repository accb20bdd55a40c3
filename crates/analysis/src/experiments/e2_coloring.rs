//! E2 — convergence of the COLORING protocol (Figure 7, Theorem 3).
//!
//! For each workload the table reports the distribution of steps and rounds
//! until silence over independent runs, plus the measured efficiency. The
//! paper's claim: the protocol stabilizes with probability 1 (so every run
//! within the step budget terminates) while reading a single neighbor per
//! step.

use selfstab_core::coloring::Coloring;
use selfstab_graph::Graph;
use selfstab_runtime::scheduler::DistributedRandom;
use selfstab_runtime::{SimOptions, Simulation};

use super::{topologies, ExperimentConfig, Topology};
use crate::campaign::{CampaignSpec, CellOutcome};
use crate::stats::Summary;
use crate::table::ExperimentTable;
use crate::workloads::Workload;

/// Metrics of one stabilized run.
struct ColoringRun {
    /// Steps to silence.
    steps: u64,
    /// Rounds to silence.
    rounds: u64,
    /// Largest read-set size observed in any single activation.
    efficiency: usize,
}

/// The campaign cell: one COLORING run from the seed's initial
/// configuration.
fn cell(graph: &Graph, config: &ExperimentConfig, seed: u64) -> CellOutcome<ColoringRun> {
    let mut sim = Simulation::new(
        graph,
        Coloring::new(graph),
        DistributedRandom::new(0.5),
        seed,
        SimOptions::default(),
    );
    let report = sim.run_until_silent(config.max_steps);
    if !report.silent {
        return CellOutcome::Timeout;
    }
    CellOutcome::Stabilized(ColoringRun {
        steps: report.total_steps,
        rounds: report.total_rounds,
        efficiency: sim.stats().measured_efficiency(),
    })
}

/// Runs E2 and renders its table.
pub fn run(config: &ExperimentConfig) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E2",
        "COLORING convergence (probabilistic stabilization, 1-efficiency)",
        vec![
            "workload",
            "n",
            "Δ",
            "runs",
            "steps to silence",
            "rounds to silence",
            "max k",
            "timeouts",
        ],
    );
    let workloads = Workload::convergence_suite()
        .into_iter()
        .chain([Workload::Complete(12), Workload::Star(33)]);
    let spec = CampaignSpec::with_config(topologies(workloads, config), config);
    for point in spec.run(config.threads, |c| cell(&c.point.graph, config, c.seed)) {
        let Topology { workload, graph } = point.point;
        let steps = Summary::from_counts(point.stabilized().map(|r| r.steps));
        let rounds = Summary::from_counts(point.stabilized().map(|r| r.rounds));
        let max_k = point.stabilized().map(|r| r.efficiency).max().unwrap_or(0);
        table.push_row(vec![
            workload.label(),
            graph.node_count().to_string(),
            graph.max_degree().to_string(),
            config.runs.to_string(),
            steps.display_mean_max(),
            rounds.display_mean_max(),
            max_k.to_string(),
            point.timeouts().to_string(),
        ]);
    }
    table.push_note("paper claim (Thm 3): stabilizes with probability 1 (timeouts = 0) and reads exactly one neighbor per step (max k = 1)");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coloring_always_stabilizes_and_stays_one_efficient() {
        let cfg = ExperimentConfig::quick();
        let ring = &topologies([Workload::Ring(16)], &cfg)[0];
        for seed in cfg.seeds() {
            let CellOutcome::Stabilized(run) = cell(&ring.graph, &cfg, seed) else {
                panic!("seed {seed} timed out");
            };
            assert!(run.efficiency <= 1, "seed {seed} read {}", run.efficiency);
        }
    }

    #[test]
    fn table_has_a_row_per_workload() {
        let table = run(&ExperimentConfig::quick());
        assert_eq!(table.rows.len(), Workload::convergence_suite().len() + 2);
        for row in &table.rows {
            assert_eq!(
                row.last().unwrap(),
                "0",
                "timeouts must be zero ({})",
                row[0]
            );
        }
    }
}
