//! E1 — communication and space complexity (Section 3.2 examples,
//! Definitions 5–6).
//!
//! For each workload the table reports, for the 1-efficient protocols and
//! their Δ-efficient baselines, the *measured* per-step efficiency `k` and
//! the resulting communication complexity in bits. The paper's claim: the
//! 1-efficient protocols read `log(∆+1)`-ish bits per step where the
//! baselines read `∆ ·` that amount.

use selfstab_core::baselines::{BaselineColoring, BaselineMis};
use selfstab_core::coloring::Coloring;
use selfstab_core::measures::{self, ComplexityReport};
use selfstab_core::mis::Mis;
use selfstab_graph::Graph;
use selfstab_runtime::scheduler::DistributedRandom;
use selfstab_runtime::{Protocol, SimOptions, Simulation};

use super::{topologies, ExperimentConfig};
use crate::campaign::{grid2, CampaignSpec};
use crate::table::ExperimentTable;
use crate::workloads::Workload;

/// The protocol axis of the E1 grid: each 1-efficient protocol of the paper
/// next to its Δ-efficient local-checking baseline.
#[derive(Clone, Copy)]
enum ProtocolKind {
    Coloring,
    BaselineColoring,
    Mis,
    BaselineMis,
}

/// The campaign cell: runs one protocol to silence, then keeps it running
/// for a fixed window so that the *stabilized-phase* read behavior is
/// measured even when the random initial configuration happened to be
/// legitimate already.
fn cell(
    graph: &Graph,
    kind: ProtocolKind,
    config: &ExperimentConfig,
    seed: u64,
) -> ComplexityReport {
    fn complexity<P: Protocol>(
        graph: &Graph,
        protocol: P,
        config: &ExperimentConfig,
        seed: u64,
    ) -> ComplexityReport {
        let mut sim = Simulation::new(
            graph,
            protocol,
            DistributedRandom::new(0.5),
            seed,
            SimOptions::default(),
        );
        sim.run_until_silent(config.max_steps);
        sim.run_steps(50 * graph.node_count() as u64);
        measures::complexity_report(sim.protocol(), graph, sim.stats())
    }
    match kind {
        ProtocolKind::Coloring => complexity(graph, Coloring::new(graph), config, seed),
        ProtocolKind::BaselineColoring => {
            complexity(graph, BaselineColoring::new(graph), config, seed)
        }
        ProtocolKind::Mis => complexity(graph, Mis::with_greedy_coloring(graph), config, seed),
        ProtocolKind::BaselineMis => complexity(
            graph,
            BaselineMis::with_greedy_coloring(graph),
            config,
            seed,
        ),
    }
}

/// Runs E1 and renders its table.
pub fn run(config: &ExperimentConfig) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E1",
        "communication complexity per step: 1-efficient vs Δ-efficient (bits)",
        vec![
            "workload",
            "n",
            "Δ",
            "protocol",
            "measured k",
            "comm bits/step",
            "Δ-efficient bits",
            "ratio",
        ],
    );
    let topologies = topologies(Workload::degree_suite(), config);
    let kinds = [
        ProtocolKind::Coloring,
        ProtocolKind::BaselineColoring,
        ProtocolKind::Mis,
        ProtocolKind::BaselineMis,
    ];
    // One run per (workload, protocol) point: the measured efficiency is a
    // worst-case maximum over a long window, not a seed-sensitive average.
    let spec = CampaignSpec::new(
        grid2(&topologies.iter().collect::<Vec<_>>(), &kinds),
        vec![config.base_seed],
    );
    for point in spec.run(config.threads, |c| {
        cell(&c.point.0.graph, c.point.1, config, c.seed)
    }) {
        let report = &point.runs[0];
        let ratio = if report.communication_bits == 0 {
            "-".to_string()
        } else {
            format!(
                "{:.1}x",
                report.delta_communication_bits as f64 / report.communication_bits as f64
            )
        };
        table.push_row(vec![
            point.point.0.workload.label(),
            report.nodes.to_string(),
            report.max_degree.to_string(),
            report.protocol.to_string(),
            report.measured_efficiency.to_string(),
            report.communication_bits.to_string(),
            report.delta_communication_bits.to_string(),
            ratio,
        ]);
    }
    table.push_note(
        "paper claim (§3.2): 1-efficient protocols read log(Δ+1)-order bits per step; \
         local-checking baselines read Δ times as much",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_shape_matches_the_paper_claim() {
        let table = run(&ExperimentConfig::quick());
        assert_eq!(table.id, "E1");
        assert!(!table.rows.is_empty());
        // Every 1-efficient protocol row must report k = 1 and a strictly
        // smaller bit count than its Δ-efficient counterpart (for Δ > 1).
        for row in &table.rows {
            let delta: usize = row[2].parse().unwrap();
            let protocol = &row[3];
            let k: usize = row[4].parse().unwrap();
            if protocol.contains("1-efficient") {
                assert_eq!(k, 1, "{protocol} on {} read {k} neighbors", row[0]);
            } else if delta > 1 {
                assert!(k > 1, "baseline {protocol} on {} read only {k}", row[0]);
            }
        }
    }
}
