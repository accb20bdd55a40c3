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
use selfstab_core::measures;
use selfstab_core::mis::Mis;
use selfstab_graph::Graph;
use selfstab_runtime::scheduler::DistributedRandom;
use selfstab_runtime::{Protocol, SimOptions, Simulation};

use super::ExperimentConfig;
use crate::campaign::{grid2, CampaignSpec};
use crate::table::ExperimentTable;
use crate::workloads::Workload;

/// The protocol axis of the E1 grid: each 1-efficient protocol of the paper
/// next to its Δ-efficient local-checking baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// 1-efficient COLORING (Figure 7).
    Coloring,
    /// Δ-efficient baseline coloring.
    BaselineColoring,
    /// 1-efficient MIS (Figure 8).
    Mis,
    /// Δ-efficient baseline MIS.
    BaselineMis,
}

impl ProtocolKind {
    /// The axis in presentation order (1-efficient before its baseline).
    pub fn all() -> Vec<ProtocolKind> {
        vec![
            ProtocolKind::Coloring,
            ProtocolKind::BaselineColoring,
            ProtocolKind::Mis,
            ProtocolKind::BaselineMis,
        ]
    }
}

/// The campaign cell: runs one protocol on one workload to silence, then
/// keeps it running for a fixed window so that the *stabilized-phase* read
/// behavior is measured even when the random initial configuration happened
/// to be legitimate already.
pub fn cell(
    workload: &Workload,
    kind: ProtocolKind,
    config: &ExperimentConfig,
    seed: u64,
) -> measures::ComplexityReport {
    fn complexity<P: Protocol>(
        graph: &Graph,
        protocol: P,
        seed: u64,
        max_steps: u64,
    ) -> measures::ComplexityReport {
        let mut sim = Simulation::new(
            graph,
            protocol,
            DistributedRandom::new(0.5),
            seed,
            SimOptions::default(),
        );
        sim.run_until_silent(max_steps);
        sim.run_steps(50 * graph.node_count() as u64);
        measures::complexity_report(sim.protocol(), graph, sim.stats())
    }
    let graph = workload.build(config.base_seed);
    match kind {
        ProtocolKind::Coloring => complexity(&graph, Coloring::new(&graph), seed, config.max_steps),
        ProtocolKind::BaselineColoring => complexity(
            &graph,
            BaselineColoring::new(&graph),
            seed,
            config.max_steps,
        ),
        ProtocolKind::Mis => complexity(
            &graph,
            Mis::with_greedy_coloring(&graph),
            seed,
            config.max_steps,
        ),
        ProtocolKind::BaselineMis => complexity(
            &graph,
            BaselineMis::with_greedy_coloring(&graph),
            seed,
            config.max_steps,
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
    // One run per (workload, protocol) point: the measured efficiency is a
    // worst-case maximum over a long window, not a seed-sensitive average.
    let spec = CampaignSpec::new(
        grid2(&Workload::degree_suite(), &ProtocolKind::all()),
        vec![config.base_seed],
    );
    for point in spec.run(config.threads, |c| {
        cell(&c.point.0, c.point.1, config, c.seed)
    }) {
        let (workload, _) = *point.point;
        let report = point.runs.into_iter().next().expect("one run per point");
        push_report(&mut table, &workload, report);
    }
    table.push_note(
        "paper claim (§3.2): 1-efficient protocols read log(Δ+1)-order bits per step; \
         local-checking baselines read Δ times as much",
    );
    table
}

fn push_report(
    table: &mut ExperimentTable,
    workload: &Workload,
    report: measures::ComplexityReport,
) {
    let ratio = if report.communication_bits == 0 {
        "-".to_string()
    } else {
        format!(
            "{:.1}x",
            report.delta_communication_bits as f64 / report.communication_bits as f64
        )
    };
    table.push_row(vec![
        workload.label(),
        report.nodes.to_string(),
        report.max_degree.to_string(),
        report.protocol.to_string(),
        report.measured_efficiency.to_string(),
        report.communication_bits.to_string(),
        report.delta_communication_bits.to_string(),
        ratio,
    ]);
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
