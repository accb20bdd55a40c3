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
use selfstab_graph::{Graph, Identifiers};
use selfstab_runtime::{SimOptions, Simulation};

use super::{e12_bfs_tree, topologies, ExperimentConfig, Topology};
use crate::campaign::{grid2, CampaignSpec, CellOutcome, DaemonSpec};
use crate::stats::Summary;
use crate::table::ExperimentTable;
use crate::workloads::Workload;

/// Metrics of one stabilized run.
struct LeaderElectionRun {
    /// Rounds to silence.
    rounds: u64,
    /// Post-stabilization reads per selection.
    suffix_reads_per_selection: f64,
    /// Post-stabilization efficiency (1 when stabilized probing works as
    /// designed).
    suffix_efficiency: usize,
    /// Whether the run elected exactly the minimum-identifier process with
    /// an oracle-verified BFS tree around it.
    verified: bool,
}

/// The campaign cell: one election run under `daemon`. Identifier
/// placement and the initial configuration vary with the seed (the elected
/// process — and the tree around it — must not depend on process indices).
fn cell(
    graph: &Graph,
    daemon: DaemonSpec,
    config: &ExperimentConfig,
    seed: u64,
) -> CellOutcome<LeaderElectionRun> {
    let ids = Identifiers::shuffled(graph.node_count(), &mut StdRng::seed_from_u64(seed));
    let protocol = LeaderElection::new(graph, ids);
    let expected = protocol.expected_leader().expect("non-empty workloads");
    let mut sim = Simulation::new(graph, protocol, daemon.build(), seed, SimOptions::default());
    let report = sim.run_until_silent(config.max_steps);
    if !report.silent {
        return CellOutcome::Timeout;
    }
    let config = sim.config();
    let unique_leader = sim.protocol().self_declared_leaders(config) == vec![expected];
    let dist = LeaderElection::distances(config);
    let parents = sim.protocol().parent_ports(config);
    let verified = unique_leader && is_bfs_spanning_tree(graph, expected, &dist, &parents);
    sim.mark_suffix();
    sim.run_steps(10 * graph.node_count() as u64);
    let suffix = suffix_comm_report(sim.protocol(), graph, sim.stats());
    CellOutcome::Stabilized(LeaderElectionRun {
        rounds: report.total_rounds,
        suffix_reads_per_selection: suffix.reads_per_selection,
        suffix_efficiency: suffix.suffix_efficiency,
        verified,
    })
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
    let topologies = topologies(Workload::spanning_suite(), config);
    let points = grid2(
        &topologies.iter().collect::<Vec<_>>(),
        &DaemonSpec::spanning_set(),
    );
    let election_spec = CampaignSpec::with_config(points.clone(), config);
    let election = election_spec.run(config.threads, |c| {
        cell(&c.point.0.graph, c.point.1, config, c.seed)
    });
    // The Δ-efficient structure on the same topology and scheduler, for a
    // direct post-silence cost comparison. One run per point suffices: the
    // suffix cost of the stabilized structure is a property of the
    // topology, not of the seed (E12 tables the full spread), so E13 does
    // not pay the whole baseline suite again.
    let baseline_spec = CampaignSpec::new(points, vec![config.base_seed]);
    let baseline = baseline_spec.run(config.threads, |c| {
        e12_bfs_tree::cell(&c.point.0.graph, c.point.1, config, c.seed)
    });
    for (point, baseline) in election.iter().zip(&baseline) {
        let (Topology { workload, graph }, daemon) = point.point;
        let rounds = Summary::from_counts(point.stabilized().map(|r| r.rounds));
        let reads = Summary::from_samples(point.stabilized().map(|r| r.suffix_reads_per_selection));
        let k = point
            .stabilized()
            .map(|r| r.suffix_efficiency)
            .max()
            .unwrap_or(0);
        let baseline_reads =
            Summary::from_samples(baseline.stabilized().map(|r| r.suffix_reads_per_selection));
        let baseline_k = baseline
            .stabilized()
            .map(|r| r.suffix_efficiency)
            .max()
            .unwrap_or(0);
        let verified = point.stabilized().filter(|r| r.verified).count();
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
            format!("{verified}/{}", point.stabilized_count()),
            point.timeouts().to_string(),
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
        let grid = &topologies([Workload::Grid(3, 4)], &cfg)[0].graph;
        for seed in cfg.seeds() {
            let CellOutcome::Stabilized(run) = cell(grid, DaemonSpec::Synchronous, &cfg, seed)
            else {
                panic!("seed {seed} timed out");
            };
            assert!(run.verified, "seed {seed}");
            assert!(run.suffix_efficiency <= 1, "seed {seed}");
            assert!(run.suffix_reads_per_selection <= 1.0 + 1e-9, "seed {seed}");
        }
    }

    #[test]
    fn election_beats_the_baseline_post_silence_on_a_dense_workload() {
        let cfg = ExperimentConfig::quick();
        let cube = &topologies([Workload::Hypercube(4)], &cfg)[0].graph;
        let sync = DaemonSpec::Synchronous;
        // Summed over the same seeds, so the sums compare as the means do.
        let (mut election, mut baseline) = (0.0, 0.0);
        for seed in cfg.seeds() {
            let (CellOutcome::Stabilized(e), CellOutcome::Stabilized(b)) = (
                cell(cube, sync, &cfg, seed),
                e12_bfs_tree::cell(cube, sync, &cfg, seed),
            ) else {
                panic!("seed {seed} timed out");
            };
            election += e.suffix_reads_per_selection;
            baseline += b.suffix_reads_per_selection;
        }
        assert!(
            election < baseline,
            "election must read fewer neighbors per step after silence ({election} vs {baseline})"
        );
    }
}
