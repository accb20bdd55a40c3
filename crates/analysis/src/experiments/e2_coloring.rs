//! E2 — convergence of the COLORING protocol (Figure 7, Theorem 3).
//!
//! For each workload the table reports the distribution of steps and rounds
//! until silence over independent runs, plus the measured efficiency. The
//! paper's claim: the protocol stabilizes with probability 1 (so every run
//! within the step budget terminates) while reading a single neighbor per
//! step.

use selfstab_core::coloring::Coloring;
use selfstab_runtime::scheduler::DistributedRandom;
use selfstab_runtime::{SimOptions, Simulation};

use super::ExperimentConfig;
use crate::campaign::{CampaignSpec, CellOutcome, PointResult};
use crate::stats::Summary;
use crate::table::ExperimentTable;
use crate::workloads::Workload;

/// Metrics of one stabilized run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColoringRun {
    /// Steps to silence.
    pub steps: u64,
    /// Rounds to silence.
    pub rounds: u64,
    /// Largest read-set size observed in any single activation.
    pub efficiency: usize,
}

/// Aggregated measurements of one workload.
#[derive(Debug, Clone)]
pub struct ColoringConvergence {
    /// Steps to silence per run.
    pub steps: Vec<u64>,
    /// Rounds to silence per run.
    pub rounds: Vec<u64>,
    /// Largest read-set size observed in any single activation, per run.
    pub efficiency: Vec<usize>,
    /// Runs that failed to stabilize within the budget.
    pub timeouts: u64,
}

/// The campaign cell: one (workload, seed) COLORING run. Pure — every
/// input is rebuilt locally from the grid coordinates, so cells run on any
/// worker thread.
pub fn cell(workload: &Workload, config: &ExperimentConfig, seed: u64) -> CellOutcome<ColoringRun> {
    let graph = workload.build(config.base_seed);
    let mut sim = Simulation::new(
        &graph,
        Coloring::new(&graph),
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

fn aggregate(point: &PointResult<'_, Workload, CellOutcome<ColoringRun>>) -> ColoringConvergence {
    ColoringConvergence {
        steps: point.stabilized().map(|r| r.steps).collect(),
        rounds: point.stabilized().map(|r| r.rounds).collect(),
        efficiency: point.stabilized().map(|r| r.efficiency).collect(),
        timeouts: point.timeouts(),
    }
}

/// Measures the convergence of COLORING on one workload.
pub fn measure(workload: &Workload, config: &ExperimentConfig) -> ColoringConvergence {
    let spec = CampaignSpec::with_config(vec![*workload], config);
    let results = spec.run(config.threads, |c| cell(c.point, config, c.seed));
    aggregate(&results[0])
}

/// The E2 workload axis.
pub fn workloads() -> Vec<Workload> {
    Workload::convergence_suite()
        .into_iter()
        .chain([Workload::Complete(12), Workload::Star(33)])
        .collect()
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
    let spec = CampaignSpec::with_config(workloads(), config);
    for point in spec.run(config.threads, |c| cell(c.point, config, c.seed)) {
        let graph = point.point.build(config.base_seed);
        let measurement = aggregate(&point);
        let steps = Summary::from_counts(measurement.steps.iter().copied());
        let rounds = Summary::from_counts(measurement.rounds.iter().copied());
        let max_k = measurement.efficiency.iter().copied().max().unwrap_or(0);
        table.push_row(vec![
            point.point.label(),
            graph.node_count().to_string(),
            graph.max_degree().to_string(),
            config.runs.to_string(),
            steps.display_mean_max(),
            rounds.display_mean_max(),
            max_k.to_string(),
            measurement.timeouts.to_string(),
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
        let m = measure(&Workload::Ring(16), &cfg);
        assert_eq!(m.timeouts, 0);
        assert_eq!(m.steps.len() as u64, cfg.runs);
        assert!(m.efficiency.iter().all(|&k| k <= 1));
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

    #[test]
    fn measure_is_thread_count_independent() {
        let cfg = ExperimentConfig::quick();
        let single = measure(&Workload::Ring(16), &cfg.with_threads(1));
        let parallel = measure(&Workload::Ring(16), &cfg.with_threads(4));
        assert_eq!(single.steps, parallel.steps);
        assert_eq!(single.rounds, parallel.rounds);
        assert_eq!(single.efficiency, parallel.efficiency);
    }
}
