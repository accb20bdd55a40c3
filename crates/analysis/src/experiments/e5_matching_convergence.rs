//! E5 — convergence of the MATCHING protocol against the Lemma 9 bound.
//!
//! For each workload the table reports the measured rounds-to-silence
//! against the theoretical bound `(∆+1)·n + 2` and checks that every silent
//! configuration induces a maximal matching (Lemma 6).

use selfstab_core::matching::Matching;
use selfstab_graph::{verify, Graph};
use selfstab_runtime::scheduler::Synchronous;
use selfstab_runtime::{SimOptions, Simulation};

use super::{topologies, ExperimentConfig, Topology};
use crate::campaign::{CampaignSpec, CellOutcome};
use crate::stats::Summary;
use crate::table::ExperimentTable;
use crate::workloads::Workload;

/// Metrics of one stabilized run.
struct MatchingRun {
    /// Rounds to silence.
    rounds: u64,
    /// Whether the silent configuration induces a maximal matching.
    legitimate: bool,
}

/// The campaign cell: one MATCHING run under the synchronous daemon.
fn cell(graph: &Graph, config: &ExperimentConfig, seed: u64) -> CellOutcome<MatchingRun> {
    let bound = Matching::round_bound(graph);
    let mut sim = Simulation::new(
        graph,
        Matching::with_greedy_coloring(graph),
        Synchronous,
        seed,
        SimOptions::default(),
    );
    let report = sim.run_until_silent(config.max_steps.min(bound + 16));
    if !report.silent {
        return CellOutcome::Timeout;
    }
    let edges = sim.protocol().output(graph, sim.config());
    CellOutcome::Stabilized(MatchingRun {
        rounds: report.total_rounds,
        legitimate: verify::is_maximal_matching(graph, &edges),
    })
}

/// Runs E5 and renders its table.
pub fn run(config: &ExperimentConfig) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E5",
        "MATCHING convergence vs the Lemma 9 bound (Δ+1)·n+2 (rounds, synchronous daemon)",
        vec![
            "workload",
            "n",
            "Δ",
            "rounds to silence",
            "bound (Δ+1)n+2",
            "within bound",
            "maximal matching in every silent config",
        ],
    );
    let workloads = Workload::convergence_suite()
        .into_iter()
        .chain([Workload::Figure11]);
    let spec = CampaignSpec::with_config(topologies(workloads, config), config);
    for point in spec.run(config.threads, |c| cell(&c.point.graph, config, c.seed)) {
        let Topology { workload, graph } = point.point;
        let bound = Matching::round_bound(graph);
        let rounds = Summary::from_counts(point.stabilized().map(|r| r.rounds));
        let within = point.timeouts() == 0 && point.stabilized().all(|r| r.rounds <= bound);
        table.push_row(vec![
            workload.label(),
            graph.node_count().to_string(),
            graph.max_degree().to_string(),
            rounds.display_mean_max(),
            bound.to_string(),
            within.to_string(),
            point.stabilized().all(|r| r.legitimate).to_string(),
        ]);
    }
    table.push_note("paper claim (Lemmas 6 and 9, Thm 7): silence within (Δ+1)n+2 rounds and every silent configuration induces a maximal matching");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matching_respects_the_bound_on_small_workloads() {
        let cfg = ExperimentConfig::quick();
        for topology in topologies([Workload::Ring(12), Workload::Figure11], &cfg) {
            let (workload, graph) = (topology.workload, &topology.graph);
            let bound = Matching::round_bound(graph);
            for seed in cfg.seeds() {
                let CellOutcome::Stabilized(run) = cell(graph, &cfg, seed) else {
                    panic!("{workload} seed {seed} timed out");
                };
                assert!(run.legitimate, "{workload} seed {seed}");
                assert!(run.rounds <= bound, "{workload} seed {seed}");
            }
        }
    }

    #[test]
    fn table_reports_within_bound_true() {
        let table = run(&ExperimentConfig::quick());
        for row in &table.rows {
            assert_eq!(row[5], "true", "bound violated on {}", row[0]);
            assert_eq!(row[6], "true", "illegitimate silent config on {}", row[0]);
        }
    }
}
