//! E5 — convergence of the MATCHING protocol against the Lemma 9 bound.
//!
//! For each workload the table reports the measured rounds-to-silence
//! against the theoretical bound `(∆+1)·n + 2` and checks that every silent
//! configuration induces a maximal matching (Lemma 6).

use selfstab_core::matching::Matching;
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
pub struct MatchingRun {
    /// Rounds to silence.
    pub rounds: u64,
    /// Whether the silent configuration induces a maximal matching.
    pub legitimate: bool,
}

/// Aggregated measurements of one workload.
#[derive(Debug, Clone)]
pub struct MatchingConvergence {
    /// Rounds to silence per run.
    pub rounds: Vec<u64>,
    /// The Lemma 9 bound `(∆+1)·n + 2`.
    pub bound: u64,
    /// Whether every silent configuration induced a maximal matching.
    pub all_legitimate: bool,
    /// Runs that failed to stabilize within the budget.
    pub timeouts: u64,
}

/// The campaign cell: one (workload, seed) MATCHING run under the
/// synchronous daemon.
pub fn cell(workload: &Workload, config: &ExperimentConfig, seed: u64) -> CellOutcome<MatchingRun> {
    let graph = workload.build(config.base_seed);
    let bound = Matching::round_bound(&graph);
    let mut sim = Simulation::new(
        &graph,
        Matching::with_greedy_coloring(&graph),
        Synchronous,
        seed,
        SimOptions::default(),
    );
    let report = sim.run_until_silent(config.max_steps.min(bound + 16));
    if !report.silent {
        return CellOutcome::Timeout;
    }
    let edges = sim.protocol().output(&graph, sim.config());
    CellOutcome::Stabilized(MatchingRun {
        rounds: report.total_rounds,
        legitimate: verify::is_maximal_matching(&graph, &edges),
    })
}

fn aggregate(
    point: &PointResult<'_, Workload, CellOutcome<MatchingRun>>,
    config: &ExperimentConfig,
) -> MatchingConvergence {
    let graph = point.point.build(config.base_seed);
    MatchingConvergence {
        rounds: point.stabilized().map(|r| r.rounds).collect(),
        bound: Matching::round_bound(&graph),
        all_legitimate: point.stabilized().all(|r| r.legitimate),
        timeouts: point.timeouts(),
    }
}

/// Measures MATCHING convergence on one workload.
pub fn measure(workload: &Workload, config: &ExperimentConfig) -> MatchingConvergence {
    let spec = CampaignSpec::with_config(vec![*workload], config);
    let results = spec.run(config.threads, |c| cell(c.point, config, c.seed));
    aggregate(&results[0], config)
}

/// The E5 workload axis.
pub fn workloads() -> Vec<Workload> {
    Workload::convergence_suite()
        .into_iter()
        .chain([Workload::Figure11])
        .collect()
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
    let spec = CampaignSpec::with_config(workloads(), config);
    for point in spec.run(config.threads, |c| cell(c.point, config, c.seed)) {
        let graph = point.point.build(config.base_seed);
        let m = aggregate(&point, config);
        let rounds = Summary::from_counts(m.rounds.iter().copied());
        let within = m.timeouts == 0 && m.rounds.iter().all(|&r| r <= m.bound);
        table.push_row(vec![
            point.point.label(),
            graph.node_count().to_string(),
            graph.max_degree().to_string(),
            rounds.display_mean_max(),
            m.bound.to_string(),
            within.to_string(),
            m.all_legitimate.to_string(),
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
        for workload in [Workload::Ring(12), Workload::Figure11] {
            let m = measure(&workload, &cfg);
            assert_eq!(m.timeouts, 0, "{workload}");
            assert!(m.all_legitimate, "{workload}");
            assert!(m.rounds.iter().all(|&r| r <= m.bound), "{workload}");
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
