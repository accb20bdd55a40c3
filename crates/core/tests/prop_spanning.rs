//! Property-based tests of the spanning subsystem: from arbitrary corrupted
//! initial configurations, on ring, grid, GNP and random-tree topologies,
//! under several schedulers, the stabilized configuration is a **genuine
//! BFS spanning tree** — distances equal the oracle BFS layers, every
//! parent points one layer up, and there is exactly one root/leader.
//!
//! The tree predicate is global, so these runs stress the incremental
//! executor's dirty-set propagation much harder than the local predicates
//! (coloring/MIS/matching): one repair near the root can flip guards across
//! a whole subtree over the following steps.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use selfstab_core::spanning::{is_bfs_spanning_tree, BfsTree, LeaderElection};
use selfstab_graph::{generators, properties, Graph, Identifiers, NodeId};
use selfstab_runtime::scheduler::{
    CentralRandom, DistributedRandom, Fair, StarvingAdversary, Synchronous,
};
use selfstab_runtime::{Protocol, SimOptions, Simulation};

/// The four topology families the acceptance criteria name, selected by
/// index so every proptest case draws one.
fn topology(kind: u8, n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    match kind % 4 {
        0 => generators::ring(n.max(3)),
        1 => {
            let rows = (2 + n % 4).max(2);
            generators::grid(rows, n.div_ceil(rows).max(2))
        }
        2 => {
            let p = 0.15 + 3.0 / n as f64;
            generators::gnp_connected(n, p.min(1.0), &mut rng).expect("valid parameters")
        }
        _ => generators::random_tree(n, &mut rng),
    }
}

/// One scheduler per index: synchronous, distributed-random,
/// central-random (enabled-preferring), and a fairness-wrapped starving
/// adversary — four qualitatively different daemons.
fn run_to_silence<P: Protocol>(
    graph: &Graph,
    protocol: P,
    scheduler_kind: u8,
    seed: u64,
    max_steps: u64,
) -> (bool, Vec<P::State>) {
    let options = SimOptions::default();
    match scheduler_kind % 4 {
        0 => {
            let mut sim = Simulation::new(graph, protocol, Synchronous, seed, options);
            let report = sim.run_until_silent(max_steps);
            (report.silent, sim.into_parts().0)
        }
        1 => {
            let mut sim =
                Simulation::new(graph, protocol, DistributedRandom::new(0.5), seed, options);
            let report = sim.run_until_silent(max_steps);
            (report.silent, sim.into_parts().0)
        }
        2 => {
            let mut sim = Simulation::new(
                graph,
                protocol,
                CentralRandom::enabled_only(),
                seed,
                options,
            );
            let report = sim.run_until_silent(max_steps);
            (report.silent, sim.into_parts().0)
        }
        _ => {
            let window = 4 * graph.node_count() as u64;
            let scheduler = Fair::new(StarvingAdversary::new(), window);
            let mut sim = Simulation::new(graph, protocol, scheduler, seed, options);
            let report = sim.run_until_silent(max_steps);
            (report.silent, sim.into_parts().0)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bfs_tree_stabilizes_to_the_oracle_tree(
        kind in 0u8..4,
        scheduler_kind in 0u8..4,
        n in 6usize..20,
        graph_seed in 0u64..1_000,
        root_pick in 0usize..1_000,
        run_seed in 0u64..1_000,
    ) {
        let graph = topology(kind, n, graph_seed);
        let root = NodeId::new(root_pick % graph.node_count());
        let protocol = BfsTree::new(&graph, root);
        let (silent, config) =
            run_to_silence(&graph, protocol.clone(), scheduler_kind, run_seed, 2_000_000);
        prop_assert!(silent, "BFS tree did not stabilize on {graph} (root {root})");

        // Oracle check: distances are the BFS layers, parents point one
        // layer up, and the parent edges form a spanning tree.
        let dist = BfsTree::distances(&config);
        let parents = protocol.parent_ports(&config);
        prop_assert!(is_bfs_spanning_tree(&graph, root, &dist, &parents));
        let oracle: Vec<usize> =
            properties::bfs_distances(&graph, root).into_iter().flatten().collect();
        prop_assert_eq!(&dist, &oracle, "distances differ from oracle on {}", graph);
        let tree_edges: Vec<(usize, usize)> = protocol
            .parents(&graph, &config)
            .into_iter()
            .enumerate()
            .filter_map(|(child, parent)| {
                parent.map(|q| (child.min(q.index()), child.max(q.index())))
            })
            .collect();
        prop_assert_eq!(tree_edges.len(), graph.node_count() - 1);
        let tree = Graph::from_edges(graph.node_count(), &tree_edges).unwrap();
        prop_assert!(properties::is_tree(&tree), "parent edges are not a tree");
    }

    #[test]
    fn leader_election_elects_a_unique_leader_with_a_bfs_tree(
        kind in 0u8..4,
        scheduler_kind in 0u8..4,
        n in 6usize..16,
        graph_seed in 0u64..1_000,
        id_seed in 0u64..1_000,
        run_seed in 0u64..1_000,
    ) {
        let graph = topology(kind, n, graph_seed);
        let ids = Identifiers::shuffled(graph.node_count(), &mut StdRng::seed_from_u64(id_seed));
        let protocol = LeaderElection::new(&graph, ids);
        let expected = protocol.expected_leader().unwrap();
        let (silent, config) =
            run_to_silence(&graph, protocol.clone(), scheduler_kind, run_seed, 4_000_000);
        prop_assert!(silent, "leader election did not stabilize on {graph}");

        // Exactly one self-declared leader: the minimum-identifier process.
        prop_assert_eq!(
            protocol.self_declared_leaders(&config),
            vec![expected],
            "unique-leader violation on {}",
            graph
        );
        // Everyone agrees on the elected identifier.
        let min_id = protocol.ids().id(expected);
        prop_assert!(config.iter().all(|s| s.leader == min_id));
        // The dist/parent pairs are an oracle-verified BFS tree rooted at
        // the leader.
        let dist = LeaderElection::distances(&config);
        let parents = protocol.parent_ports(&config);
        prop_assert!(
            is_bfs_spanning_tree(&graph, expected, &dist, &parents),
            "stabilized claim is not a BFS spanning tree on {}",
            graph
        );
    }

    #[test]
    fn leader_election_is_eventually_one_efficient(
        kind in 0u8..4,
        n in 6usize..14,
        graph_seed in 0u64..500,
        run_seed in 0u64..500,
    ) {
        let graph = topology(kind, n, graph_seed);
        let ids = Identifiers::shuffled(graph.node_count(), &mut StdRng::seed_from_u64(run_seed));
        let protocol = LeaderElection::new(&graph, ids);
        let mut sim = Simulation::new(
            &graph,
            protocol,
            DistributedRandom::new(0.5),
            run_seed,
            SimOptions::default(),
        );
        prop_assert!(sim.run_until_silent(4_000_000).silent);
        sim.mark_suffix();
        sim.run_steps(500);
        prop_assert!(sim.is_silent(), "silence must be closed under execution");
        // Post-stabilization every activation probes exactly one neighbor.
        prop_assert!(sim.stats().suffix_measured_efficiency() <= 1);
    }

}
