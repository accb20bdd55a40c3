//! E10 — the round-robin local-checking transformer (extension answering the
//! paper's concluding open question for edge-checkable specifications).
//!
//! The table compares, per workload, the hand-written `COLORING` protocol
//! against `RoundRobinChecker<ColoringSpec>` (the transformer applied to the
//! plain edge-checkable coloring specification) and against the Δ-efficient
//! baseline: both transformer and hand-written protocol must be 1-efficient
//! and converge, while the baseline pays Δ reads per step.

use selfstab_core::baselines::BaselineColoring;
use selfstab_core::coloring::Coloring;
use selfstab_core::transformer::{ColoringSpec, RoundRobinChecker};
use selfstab_graph::Graph;
use selfstab_runtime::scheduler::DistributedRandom;
use selfstab_runtime::{Protocol, SimOptions, Simulation};

use super::{topologies, ExperimentConfig};
use crate::campaign::{grid2, CampaignSpec, CellOutcome};
use crate::stats::Summary;
use crate::table::ExperimentTable;
use crate::workloads::Workload;

/// The protocol axis of the E10 grid.
#[derive(Clone, Copy)]
enum Variant {
    /// Hand-written COLORING (Figure 7).
    HandWritten,
    /// The round-robin transformer over the edge-checkable coloring spec.
    Transformed,
    /// The Δ-efficient local-checking baseline.
    Baseline,
}

impl Variant {
    /// The [`Protocol::name`] of the variant (asserted against the built
    /// protocols in the tests below).
    fn protocol_name(&self) -> &'static str {
        match self {
            Variant::HandWritten => "coloring-1-efficient",
            Variant::Transformed => "transformed-coloring",
            Variant::Baseline => "coloring-baseline-delta-efficient",
        }
    }
}

/// Metrics of one stabilized run.
struct TransformerRun {
    /// Steps to silence.
    steps: u64,
    /// Largest measured per-activation read count.
    efficiency: usize,
}

/// The campaign cell: one run of `variant`.
fn cell(
    graph: &Graph,
    variant: Variant,
    config: &ExperimentConfig,
    seed: u64,
) -> CellOutcome<TransformerRun> {
    fn drive<P: Protocol>(
        graph: &Graph,
        protocol: P,
        config: &ExperimentConfig,
        seed: u64,
    ) -> CellOutcome<TransformerRun> {
        let mut sim = Simulation::new(
            graph,
            protocol,
            DistributedRandom::new(0.5),
            seed,
            SimOptions::default(),
        );
        let report = sim.run_until_silent(config.max_steps);
        if !report.silent {
            return CellOutcome::Timeout;
        }
        CellOutcome::Stabilized(TransformerRun {
            steps: report.total_steps,
            efficiency: sim.stats().measured_efficiency(),
        })
    }
    match variant {
        Variant::HandWritten => drive(graph, Coloring::new(graph), config, seed),
        Variant::Transformed => drive(
            graph,
            RoundRobinChecker::new(ColoringSpec::new(graph)),
            config,
            seed,
        ),
        Variant::Baseline => drive(graph, BaselineColoring::new(graph), config, seed),
    }
}

/// Runs E10 and renders its table.
pub fn run(config: &ExperimentConfig) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E10",
        "round-robin transformer vs hand-written COLORING vs Δ-efficient baseline",
        vec![
            "workload",
            "protocol",
            "steps to silence",
            "max k",
            "timeouts",
        ],
    );
    let topologies = topologies(
        [
            Workload::Ring(24),
            Workload::Grid(5, 5),
            Workload::Gnp(32, 0.15),
        ],
        config,
    );
    let variants = [
        Variant::HandWritten,
        Variant::Transformed,
        Variant::Baseline,
    ];
    let spec = CampaignSpec::with_config(
        grid2(&topologies.iter().collect::<Vec<_>>(), &variants),
        config,
    );
    for point in spec.run(config.threads, |c| {
        cell(&c.point.0.graph, c.point.1, config, c.seed)
    }) {
        let (topology, variant) = point.point;
        let steps = Summary::from_counts(point.stabilized().map(|r| r.steps));
        let max_k = point.stabilized().map(|r| r.efficiency).max().unwrap_or(0);
        table.push_row(vec![
            topology.workload.label(),
            variant.protocol_name().to_string(),
            steps.display_mean_max(),
            max_k.to_string(),
            point.timeouts().to_string(),
        ]);
    }
    table.push_note("extension of §6: the transformed protocol is 1-efficient (max k = 1) and converges like the hand-written COLORING; the baseline reads Δ registers per step");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_labels_match_the_built_protocols() {
        let graph = &topologies([Workload::Ring(6)], &ExperimentConfig::quick())[0].graph;
        assert_eq!(
            Variant::HandWritten.protocol_name(),
            Coloring::new(graph).name()
        );
        assert_eq!(
            Variant::Transformed.protocol_name(),
            RoundRobinChecker::new(ColoringSpec::new(graph)).name()
        );
        assert_eq!(
            Variant::Baseline.protocol_name(),
            BaselineColoring::new(graph).name()
        );
    }

    #[test]
    fn transformer_is_one_efficient_and_converges() {
        let cfg = ExperimentConfig::quick();
        let ring = &topologies([Workload::Ring(12)], &cfg)[0].graph;
        let efficiency = |variant| -> Vec<usize> {
            cfg.seeds()
                .map(|seed| match cell(ring, variant, &cfg, seed) {
                    CellOutcome::Stabilized(run) => run.efficiency,
                    CellOutcome::Timeout => panic!("seed {seed} timed out"),
                })
                .collect()
        };
        assert!(efficiency(Variant::Transformed).iter().all(|&k| k <= 1));
        // The baseline on a ring reads up to 2 neighbors per step.
        assert!(efficiency(Variant::Baseline).into_iter().max() >= Some(1));
    }

    #[test]
    fn table_rows_cover_all_protocols() {
        let table = run(&ExperimentConfig::quick());
        assert_eq!(table.rows.len(), 9);
        for row in &table.rows {
            assert_eq!(
                row.last().unwrap(),
                "0",
                "timeout on {} / {}",
                row[0],
                row[1]
            );
        }
    }
}
