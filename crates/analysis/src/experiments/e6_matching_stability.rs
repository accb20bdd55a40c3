//! E6 — ♦-(x, 1)-stability of the MATCHING protocol (Theorem 8, Figure 11).
//!
//! On the exact Figure 11 topology (∆ = 4, m = 14) and on other workloads,
//! the table compares the number of eventually-married (hence 1-stable)
//! processes against the theoretical lower bound `2⌈m/(2∆−1)⌉`.

use selfstab_core::matching::Matching;
use selfstab_runtime::scheduler::DistributedRandom;
use selfstab_runtime::{SimOptions, Simulation};

use super::ExperimentConfig;
use crate::campaign::{CampaignSpec, CellOutcome, PointResult};
use crate::table::ExperimentTable;
use crate::workloads::Workload;

/// Metrics of one stabilized run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchingStabilityRun {
    /// Matched processes in the silent configuration.
    pub matched: usize,
    /// Processes whose suffix read set has at most one element.
    pub stable: usize,
}

/// Aggregated measurements of one workload.
#[derive(Debug, Clone)]
pub struct MatchingStability {
    /// Edge count m.
    pub edges: usize,
    /// Maximum degree Δ.
    pub max_degree: usize,
    /// The Theorem 8 bound 2⌈m/(2Δ−1)⌉.
    pub bound: usize,
    /// Minimum over runs of the number of matched processes.
    pub min_matched: usize,
    /// Minimum over runs of the measured 1-stable process count (suffix
    /// read sets after stabilization).
    pub min_stable: usize,
    /// Number of processes.
    pub nodes: usize,
}

/// The campaign cell: one (workload, seed) MATCHING stability run.
pub fn cell(
    workload: &Workload,
    config: &ExperimentConfig,
    seed: u64,
) -> CellOutcome<MatchingStabilityRun> {
    let graph = workload.build(config.base_seed);
    let mut sim = Simulation::new(
        &graph,
        Matching::with_greedy_coloring(&graph),
        DistributedRandom::new(0.5),
        seed,
        SimOptions::default(),
    );
    if !sim.run_until_silent(config.max_steps).silent {
        return CellOutcome::Timeout;
    }
    let matched = 2 * sim.protocol().output(&graph, sim.config()).len();
    sim.mark_suffix();
    sim.run_steps((graph.node_count() as u64) * 20);
    CellOutcome::Stabilized(MatchingStabilityRun {
        matched,
        stable: sim.stats().stable_process_count(1),
    })
}

fn aggregate(
    point: &PointResult<'_, Workload, CellOutcome<MatchingStabilityRun>>,
    config: &ExperimentConfig,
) -> MatchingStability {
    let graph = point.point.build(config.base_seed);
    MatchingStability {
        edges: graph.edge_count(),
        max_degree: graph.max_degree(),
        bound: Matching::stability_bound(&graph),
        min_matched: point.stabilized().map(|r| r.matched).min().unwrap_or(0),
        min_stable: point.stabilized().map(|r| r.stable).min().unwrap_or(0),
        nodes: graph.node_count(),
    }
}

/// Measures ♦-(x, 1)-stability of MATCHING on one workload.
pub fn measure(workload: &Workload, config: &ExperimentConfig) -> MatchingStability {
    let spec = CampaignSpec::with_config(vec![*workload], config);
    let results = spec.run(config.threads, |c| cell(c.point, config, c.seed));
    aggregate(&results[0], config)
}

/// The E6 workload axis.
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload::Figure11,
        Workload::Ring(16),
        Workload::Path(17),
        Workload::Grid(4, 4),
        Workload::Star(17),
        Workload::Gnp(32, 0.15),
    ]
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
    let spec = CampaignSpec::with_config(workloads(), config);
    for point in spec.run(config.threads, |c| cell(c.point, config, c.seed)) {
        let m = aggregate(&point, config);
        table.push_row(vec![
            point.point.label(),
            m.nodes.to_string(),
            m.edges.to_string(),
            m.max_degree.to_string(),
            m.bound.to_string(),
            m.min_matched.to_string(),
            m.min_stable.to_string(),
            (m.min_matched >= m.bound && m.min_stable >= m.bound).to_string(),
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
        let m = measure(&Workload::Figure11, &cfg);
        assert_eq!(m.edges, 14);
        assert_eq!(m.max_degree, 4);
        assert_eq!(m.bound, 4);
        assert!(m.min_matched >= 4);
        assert!(m.min_stable >= 4);
    }

    #[test]
    fn table_reports_bound_satisfied() {
        let table = run(&ExperimentConfig::quick());
        for row in &table.rows {
            assert_eq!(row.last().unwrap(), "true", "bound violated on {}", row[0]);
        }
    }
}
