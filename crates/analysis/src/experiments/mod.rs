//! The experiments E1–E14 (see the crate-level table).
//!
//! Each experiment module is a table function: its one public item, `run`,
//! maps an [`ExperimentConfig`] to an [`ExperimentTable`]. It declares its
//! run grid as a [`CampaignSpec`](crate::campaign::CampaignSpec) —
//! workloads × daemons × protocol parameters × seeds — whose points carry
//! or borrow each workload's graph, built once from `config.base_seed`.
//! The campaign engine runs the module's private cell, a pure function of
//! one point and one seed, on `config.threads` worker threads, and `run`
//! folds each point's runs straight into its row: the numbers a row shows
//! are computed in one place. The `experiments` binary prints the tables,
//! the integration tests check their invariants (including byte-identical
//! output across thread counts), and the end-to-end benchmark
//! (`perfbench/`) times the `--quick` suite.

pub mod e10_transformer;
pub mod e11_ablation;
pub mod e12_bfs_tree;
pub mod e13_leader_election;
pub mod e14_fault_models;
pub mod e1_communication;
pub mod e2_coloring;
pub mod e3_mis_convergence;
pub mod e4_mis_stability;
pub mod e5_matching_convergence;
pub mod e6_matching_stability;
pub mod e7_impossibility;
pub mod e9_fault_recovery;

use selfstab_graph::Graph;

use crate::table::ExperimentTable;
use crate::workloads::Workload;

/// Shared knobs for the experiment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentConfig {
    /// Number of independent runs (seeds) per data point.
    pub runs: u64,
    /// Step budget per run; runs that do not stabilize within the budget are
    /// reported as such (they should not happen for the paper's protocols).
    pub max_steps: u64,
    /// Base RNG seed; run `i` of a data point uses `base_seed + i`.
    pub base_seed: u64,
    /// Worker threads used by the campaign engine (at least 1). Every cell
    /// of a campaign is a pure function of its grid point and seed, so the
    /// thread count affects wall-clock time only — tables are byte-identical
    /// for every value (see `tests/determinism.rs`).
    pub threads: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            runs: 10,
            max_steps: 2_000_000,
            base_seed: 0xC0FFEE,
            threads: crate::campaign::default_threads(),
        }
    }
}

impl ExperimentConfig {
    /// A cheaper configuration for smoke tests and CI.
    pub fn quick() -> Self {
        ExperimentConfig {
            runs: 3,
            max_steps: 500_000,
            ..ExperimentConfig::default()
        }
    }

    /// The seeds of the individual runs.
    pub fn seeds(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.runs).map(move |i| self.base_seed.wrapping_add(i))
    }

    /// Replaces the campaign worker-thread count (clamped to at least 1).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// A workload and its topology. Every cell and every row of the
/// workload's grid points reads this one graph, so the runs of a point
/// differ only in their seed.
struct Topology {
    workload: Workload,
    graph: Graph,
}

/// The topologies of `workloads`, in order, each built once from
/// `config.base_seed`.
fn topologies(
    workloads: impl IntoIterator<Item = Workload>,
    config: &ExperimentConfig,
) -> Vec<Topology> {
    workloads
        .into_iter()
        .map(|workload| Topology {
            graph: workload.build(config.base_seed),
            workload,
        })
        .collect()
}

/// An experiment runner: a pure function from the shared configuration to a
/// rendered table.
pub type Runner = fn(&ExperimentConfig) -> ExperimentTable;

/// One experiment registration: the identifier its table carries
/// (slash-separated when one table covers several experiments, e.g.
/// `"E7/E8"`), a one-line description, and its runner.
#[derive(Clone, Copy)]
pub struct Experiment {
    /// Identifier, e.g. `"E3"`.
    pub id: &'static str,
    /// One-line description (shown by `experiments --list`).
    pub title: &'static str,
    /// Generates the experiment's table.
    pub runner: Runner,
}

/// Every experiment in presentation order, keyed by identifier.
pub fn registry() -> Vec<Experiment> {
    fn entry(id: &'static str, title: &'static str, runner: Runner) -> Experiment {
        Experiment { id, title, runner }
    }
    vec![
        entry(
            "E1",
            "communication complexity per step: 1-efficient vs Δ-efficient",
            e1_communication::run,
        ),
        entry(
            "E2",
            "COLORING convergence and 1-efficiency (Fig. 7, Thm 3)",
            e2_coloring::run,
        ),
        entry(
            "E3",
            "MIS convergence vs the Lemma 4 bound Δ·#C",
            e3_mis_convergence::run,
        ),
        entry(
            "E4",
            "MIS ♦-(x,1)-stability vs the Theorem 6 bound",
            e4_mis_stability::run,
        ),
        entry(
            "E5",
            "MATCHING convergence vs the Lemma 9 bound (Δ+1)n+2",
            e5_matching_convergence::run,
        ),
        entry(
            "E6",
            "MATCHING ♦-(x,1)-stability vs the Theorem 8 bound",
            e6_matching_stability::run,
        ),
        entry(
            "E7/E8",
            "impossibility constructions of Theorems 1-2",
            e7_impossibility::run,
        ),
        entry(
            "E9",
            "stabilized-phase reads and transient-fault recovery",
            e9_fault_recovery::run,
        ),
        entry(
            "E10",
            "round-robin transformer vs hand-written COLORING",
            e10_transformer::run,
        ),
        entry(
            "E11",
            "ablations: identifier quality and daemon choice",
            e11_ablation::run,
        ),
        entry(
            "E12",
            "silent BFS spanning tree: convergence and post-silence cost",
            e12_bfs_tree::run,
        ),
        entry(
            "E13",
            "communication-efficient leader election vs the Δ-efficient baseline",
            e13_leader_election::run,
        ),
        entry(
            "E14",
            "recovery cost vs structured fault models (uniform/hubs/ball/stuck-at/bursty)",
            e14_fault_models::run,
        ),
    ]
}

/// Whether an experiment identifier (possibly compound, `"E7/E8"`) matches
/// one of the requested identifiers (case-insensitive).
pub fn id_matches(id: &str, only: &[String]) -> bool {
    id.split('/')
        .any(|part| only.iter().any(|o| o.eq_ignore_ascii_case(part)))
}

/// Runs every experiment and returns the tables in order.
pub fn run_all(config: &ExperimentConfig) -> Vec<ExperimentTable> {
    run_selected(config, None)
}

/// Runs the experiments whose identifier matches `only` (all of them when
/// `only` is `None`) — unselected experiments are **not executed**, so
/// `--only E12` costs only E12's runtime.
pub fn run_selected(config: &ExperimentConfig, only: Option<&[String]>) -> Vec<ExperimentTable> {
    registry()
        .into_iter()
        .filter(|e| only.is_none_or(|only| id_matches(e.id, only)))
        .map(|e| (e.runner)(config))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_seeds_are_distinct_and_counted() {
        let cfg = ExperimentConfig {
            runs: 5,
            max_steps: 10,
            base_seed: 100,
            ..ExperimentConfig::default()
        };
        let seeds: Vec<u64> = cfg.seeds().collect();
        assert_eq!(seeds, vec![100, 101, 102, 103, 104]);
    }

    #[test]
    fn quick_config_is_smaller() {
        let quick = ExperimentConfig::quick();
        let full = ExperimentConfig::default();
        assert!(quick.runs < full.runs);
        assert!(quick.max_steps <= full.max_steps);
        assert!(quick.threads >= 1);
    }

    #[test]
    fn with_threads_clamps_to_at_least_one_worker() {
        let cfg = ExperimentConfig::quick().with_threads(0);
        assert_eq!(cfg.threads, 1);
        assert_eq!(ExperimentConfig::quick().with_threads(4).threads, 4);
    }

    #[test]
    fn registry_ids_are_unique_and_ordered() {
        let entries = registry();
        let ids: Vec<&str> = entries.iter().map(|e| e.id).collect();
        let mut unique = ids.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), ids.len());
        assert_eq!(ids.first(), Some(&"E1"));
        assert!(ids.contains(&"E12"));
        assert!(ids.contains(&"E13"));
        assert!(entries.iter().all(|e| !e.title.is_empty()));
    }

    #[test]
    fn id_matching_is_case_insensitive_and_splits_compounds() {
        let only = vec!["e8".to_string(), "E12".to_string()];
        assert!(id_matches("E7/E8", &only));
        assert!(id_matches("E12", &only));
        assert!(!id_matches("E9", &only));
    }

    #[test]
    fn run_selected_skips_unselected_experiments() {
        let cfg = ExperimentConfig {
            runs: 1,
            max_steps: 200_000,
            base_seed: 1,
            ..ExperimentConfig::default()
        };
        let only = vec!["E2".to_string()];
        let tables = run_selected(&cfg, Some(&only));
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].id, "E2");
    }
}
