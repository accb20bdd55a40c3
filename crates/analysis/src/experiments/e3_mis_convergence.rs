//! E3 — convergence of the MIS protocol against the Lemma 4 bound.
//!
//! For each workload the table reports the measured rounds-to-silence
//! against the theoretical bound `∆ · #C` and checks that every silent
//! configuration is a maximal independent set (Lemma 3).

use selfstab_core::mis::Mis;
use selfstab_graph::{verify, Graph};
use selfstab_runtime::scheduler::Synchronous;
use selfstab_runtime::{SimOptions, Simulation};

use super::{topologies, ExperimentConfig, Topology};
use crate::campaign::{CampaignSpec, CellOutcome};
use crate::stats::Summary;
use crate::table::ExperimentTable;
use crate::workloads::Workload;

/// Metrics of one stabilized run.
struct MisRun {
    /// Rounds to silence.
    rounds: u64,
    /// Whether the silent configuration is a maximal independent set.
    legitimate: bool,
}

/// The campaign cell: one MIS run under the synchronous daemon (each step
/// is a round, making the bound directly comparable).
fn cell(graph: &Graph, config: &ExperimentConfig, seed: u64) -> CellOutcome<MisRun> {
    let protocol = Mis::with_greedy_coloring(graph);
    let bound = protocol.round_bound(graph);
    let mut sim = Simulation::new(graph, protocol, Synchronous, seed, SimOptions::default());
    let report = sim.run_until_silent(config.max_steps.min(bound + 16));
    if !report.silent {
        return CellOutcome::Timeout;
    }
    CellOutcome::Stabilized(MisRun {
        rounds: report.total_rounds,
        legitimate: verify::is_maximal_independent_set(graph, &Mis::output(sim.config())),
    })
}

/// Runs E3 and renders its table.
pub fn run(config: &ExperimentConfig) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E3",
        "MIS convergence vs the Lemma 4 bound Δ·#C (rounds, synchronous daemon)",
        vec![
            "workload",
            "n",
            "Δ",
            "#C",
            "rounds to silence",
            "bound Δ·#C",
            "within bound",
            "MIS in every silent config",
        ],
    );
    let spec = CampaignSpec::with_config(topologies(Workload::convergence_suite(), config), config);
    for point in spec.run(config.threads, |c| cell(&c.point.graph, config, c.seed)) {
        let Topology { workload, graph } = point.point;
        let protocol = Mis::with_greedy_coloring(graph);
        let bound = protocol.round_bound(graph);
        let rounds = Summary::from_counts(point.stabilized().map(|r| r.rounds));
        let within = point.timeouts() == 0 && point.stabilized().all(|r| r.rounds <= bound + 1);
        table.push_row(vec![
            workload.label(),
            graph.node_count().to_string(),
            graph.max_degree().to_string(),
            protocol.coloring().color_count().to_string(),
            rounds.display_mean_max(),
            bound.to_string(),
            within.to_string(),
            point.stabilized().all(|r| r.legitimate).to_string(),
        ]);
    }
    table.push_note("paper claim (Lemmas 3-4, Thm 5): silence within Δ·#C rounds and every silent configuration is a maximal independent set");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mis_respects_the_bound_on_the_suite() {
        let cfg = ExperimentConfig::quick();
        for topology in topologies([Workload::Ring(16), Workload::Grid(4, 4)], &cfg) {
            let graph = &topology.graph;
            let bound = Mis::with_greedy_coloring(graph).round_bound(graph);
            for seed in cfg.seeds() {
                let CellOutcome::Stabilized(run) = cell(graph, &cfg, seed) else {
                    panic!("{} seed {seed} timed out", topology.workload);
                };
                assert!(run.legitimate, "{} seed {seed}", topology.workload);
                assert!(run.rounds <= bound + 1, "{} seed {seed}", topology.workload);
            }
        }
    }

    #[test]
    fn table_reports_within_bound_true() {
        let table = run(&ExperimentConfig::quick());
        for row in &table.rows {
            assert_eq!(row[6], "true", "bound violated on {}", row[0]);
            assert_eq!(row[7], "true", "illegitimate silent config on {}", row[0]);
        }
    }
}
