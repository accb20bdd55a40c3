//! E4 — ♦-(x, 1)-stability of the MIS protocol (Theorem 6, Figure 9).
//!
//! On the Figure 9 path family (and a few other workloads) the table
//! compares the number of processes that, once the protocol has stabilized,
//! keep reading a single fixed neighbor (`x` measured through the suffix
//! read sets) against the theoretical lower bound `⌊(Lmax+1)/2⌋`.

use selfstab_core::mis::{Membership, Mis};
use selfstab_graph::longest_path;
use selfstab_runtime::scheduler::DistributedRandom;
use selfstab_runtime::{SimOptions, Simulation};

use super::ExperimentConfig;
use crate::campaign::{CampaignSpec, CellOutcome, PointResult};
use crate::table::ExperimentTable;
use crate::workloads::Workload;

/// Metrics of one stabilized run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MisStabilityRun {
    /// Processes whose suffix read set has at most one element.
    pub stable: usize,
    /// Dominated processes in the silent configuration.
    pub dominated: usize,
}

/// Aggregated measurements of one workload.
#[derive(Debug, Clone)]
pub struct MisStability {
    /// Lmax (exact when the graph is small enough).
    pub lmax: usize,
    /// Whether the reported Lmax is exact.
    pub lmax_exact: bool,
    /// The Theorem 6 bound ⌊(Lmax+1)/2⌋.
    pub bound: usize,
    /// Minimum over runs of the measured 1-stable process count.
    pub min_stable: usize,
    /// Minimum over runs of the number of dominated processes.
    pub min_dominated: usize,
    /// Number of processes.
    pub nodes: usize,
}

/// The campaign cell: one (workload, seed) stability run — stabilize, mark
/// the suffix, drive the silent system, and measure the suffix read sets.
pub fn cell(
    workload: &Workload,
    config: &ExperimentConfig,
    seed: u64,
) -> CellOutcome<MisStabilityRun> {
    let graph = workload.build(config.base_seed);
    let mut sim = Simulation::new(
        &graph,
        Mis::with_greedy_coloring(&graph),
        DistributedRandom::new(0.5),
        seed,
        SimOptions::default(),
    );
    if !sim.run_until_silent(config.max_steps).silent {
        return CellOutcome::Timeout;
    }
    let dominated = sim
        .config()
        .iter()
        .filter(|s| s.status == Membership::Dominated)
        .count();
    // Measure the suffix read sets over a stabilized window.
    sim.mark_suffix();
    sim.run_steps((graph.node_count() as u64) * 20);
    CellOutcome::Stabilized(MisStabilityRun {
        stable: sim.stats().stable_process_count(1),
        dominated,
    })
}

fn aggregate(
    point: &PointResult<'_, Workload, CellOutcome<MisStabilityRun>>,
    config: &ExperimentConfig,
) -> MisStability {
    let graph = point.point.build(config.base_seed);
    let lp = longest_path::longest_path(&graph, longest_path::DEFAULT_EXACT_BUDGET);
    MisStability {
        lmax: lp.length,
        lmax_exact: lp.exact,
        bound: Mis::stability_bound(lp.length),
        min_stable: point.stabilized().map(|r| r.stable).min().unwrap_or(0),
        min_dominated: point.stabilized().map(|r| r.dominated).min().unwrap_or(0),
        nodes: graph.node_count(),
    }
}

/// Measures ♦-(x, 1)-stability of MIS on one workload.
pub fn measure(workload: &Workload, config: &ExperimentConfig) -> MisStability {
    let spec = CampaignSpec::with_config(vec![*workload], config);
    let results = spec.run(config.threads, |c| cell(c.point, config, c.seed));
    aggregate(&results[0], config)
}

/// The E4 workload axis.
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload::Path(9),
        Workload::Path(17),
        Workload::Path(33),
        Workload::Ring(16),
        Workload::Caterpillar(8, 2),
        Workload::Grid(4, 4),
    ]
}

/// Runs E4 and renders its table.
pub fn run(config: &ExperimentConfig) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E4",
        "MIS ♦-(x,1)-stability vs the Theorem 6 bound ⌊(Lmax+1)/2⌋",
        vec![
            "workload",
            "n",
            "Lmax",
            "bound",
            "1-stable (min over runs)",
            "dominated (min)",
            "bound satisfied",
        ],
    );
    let spec = CampaignSpec::with_config(workloads(), config);
    for point in spec.run(config.threads, |c| cell(c.point, config, c.seed)) {
        let m = aggregate(&point, config);
        let lmax = if m.lmax_exact {
            m.lmax.to_string()
        } else {
            format!(">={}", m.lmax)
        };
        table.push_row(vec![
            point.point.label(),
            m.nodes.to_string(),
            lmax,
            m.bound.to_string(),
            m.min_stable.to_string(),
            m.min_dominated.to_string(),
            (m.min_stable >= m.bound).to_string(),
        ]);
    }
    table.push_note("paper claim (Thm 6): once stabilized, at least ⌊(Lmax+1)/2⌋ processes read a single fixed neighbor; the Figure 9 paths achieve the bound");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_meets_the_theorem6_bound() {
        let cfg = ExperimentConfig::quick();
        let m = measure(&Workload::Path(11), &cfg);
        assert_eq!(m.lmax, 10);
        assert_eq!(m.bound, 5);
        assert!(m.min_stable >= m.bound);
        assert!(m.min_dominated >= m.bound);
    }

    #[test]
    fn table_reports_bound_satisfied() {
        let table = run(&ExperimentConfig::quick());
        for row in &table.rows {
            assert_eq!(row.last().unwrap(), "true", "bound violated on {}", row[0]);
        }
    }
}
