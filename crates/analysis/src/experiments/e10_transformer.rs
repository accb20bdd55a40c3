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

use super::ExperimentConfig;
use crate::campaign::{grid2, CampaignSpec, CellOutcome, PointResult};
use crate::stats::Summary;
use crate::table::ExperimentTable;
use crate::workloads::Workload;

/// The protocol axis of the E10 grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Hand-written COLORING (Figure 7).
    HandWritten,
    /// The round-robin transformer over the edge-checkable coloring spec.
    Transformed,
    /// The Δ-efficient local-checking baseline.
    Baseline,
}

impl Variant {
    /// The axis in presentation order.
    pub fn all() -> Vec<Variant> {
        vec![
            Variant::HandWritten,
            Variant::Transformed,
            Variant::Baseline,
        ]
    }

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransformerRun {
    /// Steps to silence.
    pub steps: u64,
    /// Largest measured per-activation read count.
    pub efficiency: usize,
}

/// Aggregated measurements for one (workload, protocol) pair.
#[derive(Debug, Clone)]
pub struct TransformerMeasurement {
    /// Protocol name.
    pub protocol: &'static str,
    /// Steps to silence per run.
    pub steps: Vec<u64>,
    /// Largest measured per-activation read count.
    pub max_efficiency: usize,
    /// Runs that did not stabilize within the budget.
    pub timeouts: u64,
}

/// The campaign cell: one (workload, variant, seed) run.
pub fn cell(
    workload: &Workload,
    variant: Variant,
    config: &ExperimentConfig,
    seed: u64,
) -> CellOutcome<TransformerRun> {
    fn drive<P: Protocol>(
        graph: &Graph,
        protocol: P,
        seed: u64,
        max_steps: u64,
    ) -> CellOutcome<TransformerRun> {
        let mut sim = Simulation::new(
            graph,
            protocol,
            DistributedRandom::new(0.5),
            seed,
            SimOptions::default(),
        );
        let report = sim.run_until_silent(max_steps);
        if !report.silent {
            return CellOutcome::Timeout;
        }
        CellOutcome::Stabilized(TransformerRun {
            steps: report.total_steps,
            efficiency: sim.stats().measured_efficiency(),
        })
    }
    let graph = workload.build(config.base_seed);
    match variant {
        Variant::HandWritten => drive(&graph, Coloring::new(&graph), seed, config.max_steps),
        Variant::Transformed => drive(
            &graph,
            RoundRobinChecker::new(ColoringSpec::new(&graph)),
            seed,
            config.max_steps,
        ),
        Variant::Baseline => drive(
            &graph,
            BaselineColoring::new(&graph),
            seed,
            config.max_steps,
        ),
    }
}

fn aggregate(
    point: &PointResult<'_, (Workload, Variant), CellOutcome<TransformerRun>>,
) -> TransformerMeasurement {
    let (_, variant) = point.point;
    TransformerMeasurement {
        protocol: variant.protocol_name(),
        steps: point.stabilized().map(|r| r.steps).collect(),
        max_efficiency: point.stabilized().map(|r| r.efficiency).max().unwrap_or(0),
        timeouts: point.timeouts(),
    }
}

/// Measures the three coloring variants on one workload.
pub fn measure(workload: &Workload, config: &ExperimentConfig) -> Vec<TransformerMeasurement> {
    let spec = CampaignSpec::with_config(grid2(&[*workload], &Variant::all()), config);
    spec.run(config.threads, |c| {
        cell(&c.point.0, c.point.1, config, c.seed)
    })
    .iter()
    .map(aggregate)
    .collect()
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
    let workloads = [
        Workload::Ring(24),
        Workload::Grid(5, 5),
        Workload::Gnp(32, 0.15),
    ];
    let spec = CampaignSpec::with_config(grid2(&workloads, &Variant::all()), config);
    for point in spec.run(config.threads, |c| {
        cell(&c.point.0, c.point.1, config, c.seed)
    }) {
        let (workload, _) = point.point;
        let m = aggregate(&point);
        table.push_row(vec![
            workload.label(),
            m.protocol.to_string(),
            Summary::from_counts(m.steps.iter().copied()).display_mean_max(),
            m.max_efficiency.to_string(),
            m.timeouts.to_string(),
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
        let graph = Workload::Ring(6).build(1);
        assert_eq!(
            Variant::HandWritten.protocol_name(),
            Coloring::new(&graph).name()
        );
        assert_eq!(
            Variant::Transformed.protocol_name(),
            RoundRobinChecker::new(ColoringSpec::new(&graph)).name()
        );
        assert_eq!(
            Variant::Baseline.protocol_name(),
            BaselineColoring::new(&graph).name()
        );
    }

    #[test]
    fn transformer_is_one_efficient_and_converges() {
        let cfg = ExperimentConfig::quick();
        let results = measure(&Workload::Ring(12), &cfg);
        assert_eq!(results.len(), 3);
        let transformed = &results[1];
        assert_eq!(transformed.timeouts, 0);
        assert!(transformed.max_efficiency <= 1);
        // The baseline on a ring reads up to 2 neighbors per step.
        assert!(results[2].max_efficiency >= 1);
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
