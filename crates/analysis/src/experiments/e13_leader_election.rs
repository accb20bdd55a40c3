//! E13 — communication-efficient leader election (identified networks).
//!
//! For each workload and scheduler the table reports convergence to a
//! unique minimum-identifier leader with an oracle-verified BFS tree, and
//! contrasts the **post-stabilization communication cost** against the
//! classical Δ-efficient structure of E12: once silent, the election probes
//! exactly one neighbor per activation (suffix k = 1), while the BFS tree
//! protocol run on the *same topology and scheduler* keeps reading whole
//! neighborhoods.

use rand::rngs::StdRng;
use rand::SeedableRng;
use selfstab_core::measures::suffix_comm_report;
use selfstab_core::spanning::{is_bfs_spanning_tree, LeaderElection};
use selfstab_graph::Identifiers;
use selfstab_runtime::{SimOptions, Simulation};

use super::e12_bfs_tree;
use super::ExperimentConfig;
use crate::campaign::{grid2, CampaignSpec, CellOutcome, DaemonSpec, PointResult};
use crate::stats::Summary;
use crate::table::ExperimentTable;
use crate::workloads::Workload;

/// Metrics of one stabilized run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeaderElectionRun {
    /// Rounds to silence.
    pub rounds: u64,
    /// Steps to silence.
    pub steps: u64,
    /// Post-stabilization reads per selection.
    pub suffix_reads_per_selection: f64,
    /// Post-stabilization efficiency (1 when stabilized probing works as
    /// designed).
    pub suffix_efficiency: usize,
    /// Whether the run elected exactly the minimum-identifier process with
    /// an oracle-verified BFS tree around it.
    pub verified: bool,
}

/// Aggregated measurements of one workload under one daemon.
#[derive(Debug, Clone)]
pub struct LeaderElectionConvergence {
    /// Rounds to silence per run.
    pub rounds: Vec<u64>,
    /// Steps to silence per run.
    pub steps: Vec<u64>,
    /// Post-stabilization reads per selection, per run.
    pub suffix_reads_per_selection: Vec<f64>,
    /// Post-stabilization efficiency, per run (1 when stabilized probing
    /// works as designed).
    pub suffix_efficiency: Vec<usize>,
    /// Runs that elected exactly the minimum-identifier process with an
    /// oracle-verified BFS tree.
    pub verified: u64,
    /// Runs that failed to stabilize within the budget.
    pub timeouts: u64,
}

/// The campaign cell: one (workload, daemon, seed) election run. The
/// topology is a function of the base seed alone; identifier placement and
/// the initial configuration vary per run (the elected process — and the
/// tree around it — must not depend on process indices).
pub fn cell(
    workload: &Workload,
    daemon: DaemonSpec,
    config: &ExperimentConfig,
    seed: u64,
) -> CellOutcome<LeaderElectionRun> {
    let graph = workload.build(config.base_seed);
    let ids = Identifiers::shuffled(graph.node_count(), &mut StdRng::seed_from_u64(seed));
    let protocol = LeaderElection::new(&graph, ids);
    let expected = protocol.expected_leader().expect("non-empty workloads");
    let mut sim = Simulation::new(
        &graph,
        protocol,
        daemon.build(),
        seed,
        SimOptions::default().with_check_interval(8),
    );
    let report = sim.run_until_silent(config.max_steps);
    if !report.silent {
        return CellOutcome::Timeout;
    }
    let config = sim.config();
    let unique_leader = sim.protocol().self_declared_leaders(config) == vec![expected];
    let dist = LeaderElection::distances(config);
    let parents = sim.protocol().parent_ports(config);
    let verified = unique_leader && is_bfs_spanning_tree(&graph, expected, &dist, &parents);
    sim.mark_suffix();
    sim.run_steps(10 * graph.node_count() as u64);
    let suffix = suffix_comm_report(sim.protocol(), &graph, sim.stats());
    CellOutcome::Stabilized(LeaderElectionRun {
        rounds: report.total_rounds,
        steps: report.total_steps,
        suffix_reads_per_selection: suffix.reads_per_selection,
        suffix_efficiency: suffix.suffix_efficiency,
        verified,
    })
}

fn aggregate<P>(
    point: &PointResult<'_, P, CellOutcome<LeaderElectionRun>>,
) -> LeaderElectionConvergence {
    LeaderElectionConvergence {
        rounds: point.stabilized().map(|r| r.rounds).collect(),
        steps: point.stabilized().map(|r| r.steps).collect(),
        suffix_reads_per_selection: point
            .stabilized()
            .map(|r| r.suffix_reads_per_selection)
            .collect(),
        suffix_efficiency: point.stabilized().map(|r| r.suffix_efficiency).collect(),
        verified: point.stabilized().filter(|r| r.verified).count() as u64,
        timeouts: point.timeouts(),
    }
}

/// Measures leader election on one workload under one daemon.
pub fn measure(
    workload: &Workload,
    daemon: DaemonSpec,
    config: &ExperimentConfig,
) -> LeaderElectionConvergence {
    let spec = CampaignSpec::with_config(grid2(&[*workload], &[daemon]), config);
    let results = spec.run(config.threads, |c| {
        cell(&c.point.0, c.point.1, config, c.seed)
    });
    aggregate(&results[0])
}

/// Runs E13 and renders its table.
pub fn run(config: &ExperimentConfig) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E13",
        "leader election: unique min-id leader, BFS tree, ♦-1-efficiency vs the Δ-efficient baseline",
        vec![
            "workload",
            "scheduler",
            "n",
            "Δ",
            "runs",
            "rounds to silence",
            "suffix reads/sel",
            "suffix k",
            "bfs suffix reads/sel",
            "bfs suffix k",
            "leader+tree ok",
            "timeouts",
        ],
    );
    let points = grid2(&Workload::spanning_suite(), &DaemonSpec::spanning_set());
    let election_spec = CampaignSpec::with_config(points.clone(), config);
    let election = election_spec.run(config.threads, |c| {
        cell(&c.point.0, c.point.1, config, c.seed)
    });
    // The Δ-efficient structure on the same topology and scheduler, for a
    // direct post-silence cost comparison. One run per point suffices: the
    // suffix cost of the stabilized structure is a property of the
    // topology, not of the seed (E12 tables the full spread), so E13 does
    // not pay the whole baseline suite again.
    let baseline_spec = CampaignSpec::new(points, vec![config.base_seed]);
    let baseline = baseline_spec.run(config.threads, |c| {
        e12_bfs_tree::cell(&c.point.0, c.point.1, config, c.seed)
    });
    for (election_point, baseline_point) in election.iter().zip(&baseline) {
        let (workload, daemon) = *election_point.point;
        let graph = workload.build(config.base_seed);
        let m = aggregate(election_point);
        let b = e12_bfs_tree::aggregate(baseline_point);
        let rounds = Summary::from_counts(m.rounds.iter().copied());
        let reads = Summary::from_samples(m.suffix_reads_per_selection.iter().copied());
        let baseline_reads = Summary::from_samples(b.suffix_reads_per_selection.iter().copied());
        let k = m.suffix_efficiency.iter().copied().max().unwrap_or(0);
        let baseline_k = b.suffix_efficiency.iter().copied().max().unwrap_or(0);
        table.push_row(vec![
            workload.label(),
            daemon.name().to_string(),
            graph.node_count().to_string(),
            graph.max_degree().to_string(),
            config.runs.to_string(),
            rounds.display_mean_max(),
            format!("{:.2}", reads.mean),
            k.to_string(),
            format!("{:.2}", baseline_reads.mean),
            baseline_k.to_string(),
            format!("{}/{}", m.verified, m.rounds.len()),
            m.timeouts.to_string(),
        ]);
    }
    table.push_note(
        "leader+tree ok: stabilized runs electing exactly the minimum-identifier process, \
         with distances equal to the oracle BFS layers around it",
    );
    table.push_note(
        "suffix k = 1: after stabilization the election probes a single neighbor per \
         activation (♦-1-efficiency), while the E12 structure pays Δ reads on the same \
         topology and scheduler (bfs suffix columns)",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leader_election_verifies_and_is_suffix_one_efficient() {
        let cfg = ExperimentConfig::quick();
        let m = measure(&Workload::Grid(3, 4), DaemonSpec::Synchronous, &cfg);
        assert_eq!(m.timeouts, 0);
        assert_eq!(m.verified, cfg.runs);
        assert!(m.suffix_efficiency.iter().all(|&k| k <= 1));
        assert!(m
            .suffix_reads_per_selection
            .iter()
            .all(|&r| r <= 1.0 + 1e-9));
    }

    #[test]
    fn election_beats_the_baseline_post_silence_on_a_dense_workload() {
        let cfg = ExperimentConfig::quick();
        let election = measure(&Workload::Hypercube(4), DaemonSpec::Synchronous, &cfg);
        let baseline =
            e12_bfs_tree::measure(&Workload::Hypercube(4), DaemonSpec::Synchronous, &cfg);
        assert_eq!(election.timeouts, 0);
        assert_eq!(baseline.timeouts, 0);
        let e: f64 = election.suffix_reads_per_selection.iter().sum::<f64>()
            / election.suffix_reads_per_selection.len() as f64;
        let b: f64 = baseline.suffix_reads_per_selection.iter().sum::<f64>()
            / baseline.suffix_reads_per_selection.len() as f64;
        assert!(
            e < b,
            "election must read fewer neighbors per step after silence ({e} vs {b})"
        );
    }
}
