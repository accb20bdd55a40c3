//! E4 — ♦-(x, 1)-stability of the MIS protocol (Theorem 6, Figure 9).
//!
//! On the Figure 9 path family (and a few other workloads) the table
//! compares the number of processes that, once the protocol has stabilized,
//! keep reading a single fixed neighbor (`x` measured through the suffix
//! read sets) against the theoretical lower bound `⌊(Lmax+1)/2⌋`.

use selfstab_core::mis::{Membership, Mis};
use selfstab_graph::{longest_path, Graph};
use selfstab_runtime::scheduler::DistributedRandom;
use selfstab_runtime::{SimOptions, Simulation};

use super::{topologies, ExperimentConfig, Topology};
use crate::campaign::{CampaignSpec, CellOutcome};
use crate::table::ExperimentTable;
use crate::workloads::Workload;

/// Metrics of one stabilized run.
struct MisStabilityRun {
    /// Processes whose suffix read set has at most one element.
    stable: usize,
    /// Dominated processes in the silent configuration.
    dominated: usize,
}

/// The campaign cell: one stability run — stabilize, mark the suffix,
/// drive the silent system, and measure the suffix read sets.
fn cell(graph: &Graph, config: &ExperimentConfig, seed: u64) -> CellOutcome<MisStabilityRun> {
    let mut sim = Simulation::new(
        graph,
        Mis::with_greedy_coloring(graph),
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
        stable: sim.stats().stable_process_count(sim.graph(), 1),
        dominated,
    })
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
    let workloads = [
        Workload::Path(9),
        Workload::Path(17),
        Workload::Path(33),
        Workload::Ring(16),
        Workload::Caterpillar(8, 2),
        Workload::Grid(4, 4),
    ];
    let spec = CampaignSpec::with_config(topologies(workloads, config), config);
    for point in spec.run(config.threads, |c| cell(&c.point.graph, config, c.seed)) {
        let Topology { workload, graph } = point.point;
        let lp = longest_path::longest_path(graph, longest_path::DEFAULT_EXACT_BUDGET);
        let bound = Mis::stability_bound(lp.length);
        let min_stable = point.stabilized().map(|r| r.stable).min().unwrap_or(0);
        let min_dominated = point.stabilized().map(|r| r.dominated).min().unwrap_or(0);
        let lmax = if lp.exact {
            lp.length.to_string()
        } else {
            format!(">={}", lp.length)
        };
        table.push_row(vec![
            workload.label(),
            graph.node_count().to_string(),
            lmax,
            bound.to_string(),
            min_stable.to_string(),
            min_dominated.to_string(),
            (min_stable >= bound).to_string(),
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
        let path = &topologies([Workload::Path(11)], &cfg)[0];
        let lp = longest_path::longest_path(&path.graph, longest_path::DEFAULT_EXACT_BUDGET);
        assert_eq!(lp.length, 10);
        let bound = Mis::stability_bound(lp.length);
        assert_eq!(bound, 5);
        for seed in cfg.seeds() {
            let CellOutcome::Stabilized(run) = cell(&path.graph, &cfg, seed) else {
                panic!("seed {seed} timed out");
            };
            assert!(run.stable >= bound, "seed {seed}: {} stable", run.stable);
            assert!(
                run.dominated >= bound,
                "seed {seed}: {} dominated",
                run.dominated
            );
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
