//! E3 — convergence of the MIS protocol against the Lemma 4 bound.
//!
//! For each workload the table reports the measured rounds-to-silence
//! against the theoretical bound `∆ · #C` and checks that every silent
//! configuration is a maximal independent set (Lemma 3).

use selfstab_core::mis::Mis;
use selfstab_graph::verify;
use selfstab_runtime::scheduler::Synchronous;
use selfstab_runtime::{SimOptions, Simulation};

use super::ExperimentConfig;
use crate::campaign::{CampaignSpec, CellOutcome, PointResult};
use crate::stats::Summary;
use crate::table::ExperimentTable;
use crate::workloads::Workload;

/// Metrics of one stabilized run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MisRun {
    /// Rounds to silence.
    pub rounds: u64,
    /// Whether the silent configuration is a maximal independent set.
    pub legitimate: bool,
}

/// Aggregated measurements of one workload.
#[derive(Debug, Clone)]
pub struct MisConvergence {
    /// Rounds to silence per run.
    pub rounds: Vec<u64>,
    /// The Lemma 4 bound `∆ · #C` for the workload.
    pub bound: u64,
    /// Whether every silent configuration satisfied the MIS predicate.
    pub all_legitimate: bool,
    /// Runs that failed to stabilize within the budget.
    pub timeouts: u64,
}

/// The Lemma 4 bound of one workload.
fn round_bound(workload: &Workload, config: &ExperimentConfig) -> u64 {
    let graph = workload.build(config.base_seed);
    Mis::with_greedy_coloring(&graph).round_bound(&graph)
}

/// The campaign cell: one (workload, seed) MIS run under the synchronous
/// daemon (each step is a round, making the bound directly comparable).
pub fn cell(workload: &Workload, config: &ExperimentConfig, seed: u64) -> CellOutcome<MisRun> {
    let graph = workload.build(config.base_seed);
    let protocol = Mis::with_greedy_coloring(&graph);
    let bound = protocol.round_bound(&graph);
    let mut sim = Simulation::new(&graph, protocol, Synchronous, seed, SimOptions::default());
    let report = sim.run_until_silent(config.max_steps.min(bound + 16));
    if !report.silent {
        return CellOutcome::Timeout;
    }
    CellOutcome::Stabilized(MisRun {
        rounds: report.total_rounds,
        legitimate: verify::is_maximal_independent_set(&graph, &Mis::output(sim.config())),
    })
}

fn aggregate(
    point: &PointResult<'_, Workload, CellOutcome<MisRun>>,
    config: &ExperimentConfig,
) -> MisConvergence {
    MisConvergence {
        rounds: point.stabilized().map(|r| r.rounds).collect(),
        bound: round_bound(point.point, config),
        all_legitimate: point.stabilized().all(|r| r.legitimate),
        timeouts: point.timeouts(),
    }
}

/// Measures MIS convergence on one workload.
pub fn measure(workload: &Workload, config: &ExperimentConfig) -> MisConvergence {
    let spec = CampaignSpec::with_config(vec![*workload], config);
    let results = spec.run(config.threads, |c| cell(c.point, config, c.seed));
    aggregate(&results[0], config)
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
    let spec = CampaignSpec::with_config(Workload::convergence_suite(), config);
    for point in spec.run(config.threads, |c| cell(c.point, config, c.seed)) {
        let graph = point.point.build(config.base_seed);
        let color_count = Mis::with_greedy_coloring(&graph).coloring().color_count();
        let m = aggregate(&point, config);
        let rounds = Summary::from_counts(m.rounds.iter().copied());
        let within = m.timeouts == 0 && m.rounds.iter().all(|&r| r <= m.bound + 1);
        table.push_row(vec![
            point.point.label(),
            graph.node_count().to_string(),
            graph.max_degree().to_string(),
            color_count.to_string(),
            rounds.display_mean_max(),
            m.bound.to_string(),
            within.to_string(),
            m.all_legitimate.to_string(),
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
        for workload in [Workload::Ring(16), Workload::Grid(4, 4)] {
            let m = measure(&workload, &cfg);
            assert_eq!(m.timeouts, 0);
            assert!(m.all_legitimate);
            assert!(m.rounds.iter().all(|&r| r <= m.bound + 1));
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
