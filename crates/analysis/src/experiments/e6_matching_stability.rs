//! E6 — ♦-(x, 1)-stability of the MATCHING protocol (Theorem 8, Figure 11).
//!
//! On the exact Figure 11 topology (∆ = 4, m = 14) and on other workloads,
//! the table compares the number of eventually-married (hence 1-stable)
//! processes against the theoretical lower bound `2⌈m/(2∆−1)⌉`.

use selfstab_core::matching::Matching;
use selfstab_graph::Graph;
use selfstab_runtime::scheduler::DistributedRandom;
use selfstab_runtime::{SimOptions, Simulation};

use super::{topologies, ExperimentConfig, Topology};
use crate::campaign::{CampaignSpec, CellOutcome};
use crate::table::ExperimentTable;
use crate::workloads::Workload;

/// Metrics of one stabilized run.
struct MatchingStabilityRun {
    /// Matched processes in the silent configuration.
    matched: usize,
    /// Processes whose suffix read set has at most one element.
    stable: usize,
}

/// The campaign cell: one MATCHING stability run.
fn cell(graph: &Graph, config: &ExperimentConfig, seed: u64) -> CellOutcome<MatchingStabilityRun> {
    let mut sim = Simulation::new(
        graph,
        Matching::with_greedy_coloring(graph),
        DistributedRandom::new(0.5),
        seed,
        SimOptions::default(),
    );
    if !sim.run_until_silent(config.max_steps).silent {
        return CellOutcome::Timeout;
    }
    let matched = 2 * sim.protocol().output(graph, sim.config()).len();
    sim.mark_suffix();
    sim.run_steps((graph.node_count() as u64) * 20);
    CellOutcome::Stabilized(MatchingStabilityRun {
        matched,
        stable: sim.stats().stable_process_count(sim.graph(), 1),
    })
}

/// Runs E6 and renders its table.
pub fn run(config: &ExperimentConfig) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E6",
        "MATCHING ♦-(x,1)-stability vs the Theorem 8 bound 2⌈m/(2Δ−1)⌉",
        vec![
            "workload",
            "n",
            "m",
            "Δ",
            "bound",
            "matched (min over runs)",
            "1-stable (min)",
            "bound satisfied",
        ],
    );
    let workloads = [
        Workload::Figure11,
        Workload::Ring(16),
        Workload::Path(17),
        Workload::Grid(4, 4),
        Workload::Star(17),
        Workload::Gnp(32, 0.15),
    ];
    let spec = CampaignSpec::with_config(topologies(workloads, config), config);
    for point in spec.run(config.threads, |c| cell(&c.point.graph, config, c.seed)) {
        let Topology { workload, graph } = point.point;
        let bound = Matching::stability_bound(graph);
        let min_matched = point.stabilized().map(|r| r.matched).min().unwrap_or(0);
        let min_stable = point.stabilized().map(|r| r.stable).min().unwrap_or(0);
        table.push_row(vec![
            workload.label(),
            graph.node_count().to_string(),
            graph.edge_count().to_string(),
            graph.max_degree().to_string(),
            bound.to_string(),
            min_matched.to_string(),
            min_stable.to_string(),
            (min_matched >= bound && min_stable >= bound).to_string(),
        ]);
    }
    table.push_note("paper claim (Thm 8): at least 2⌈m/(2Δ−1)⌉ processes are eventually married and keep reading a single neighbor; Figure 11 (Δ=4, m=14) can meet the bound exactly");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure11_meets_the_bound() {
        let cfg = ExperimentConfig::quick();
        let figure11 = &topologies([Workload::Figure11], &cfg)[0].graph;
        assert_eq!(figure11.edge_count(), 14);
        assert_eq!(figure11.max_degree(), 4);
        assert_eq!(Matching::stability_bound(figure11), 4);
        for seed in cfg.seeds() {
            let CellOutcome::Stabilized(run) = cell(figure11, &cfg, seed) else {
                panic!("seed {seed} timed out");
            };
            assert!(run.matched >= 4, "seed {seed}: {} matched", run.matched);
            assert!(run.stable >= 4, "seed {seed}: {} stable", run.stable);
        }
    }

    #[test]
    fn table_reports_bound_satisfied() {
        let table = run(&ExperimentConfig::quick());
        for row in &table.rows {
            assert_eq!(row.last().unwrap(), "true", "bound violated on {}", row[0]);
        }
    }
}
