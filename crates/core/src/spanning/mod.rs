//! Silent self-stabilizing spanning-tree protocols.
//!
//! The canonical silent protocols in the literature are spanning-tree
//! constructions (Dolev–Israeli–Moran and its descendants, revisited by
//! Devismes & Johnen, *Silent Self-stabilizing BFS Tree Algorithms
//! Revised*). This module grows the paper's protocol family with two of
//! them, exercising the network models the base protocols do not use:
//!
//! * [`BfsTree`] — a silent BFS spanning-tree construction for **rooted**
//!   networks (one distinguished root [`NodeId`], a constant of the
//!   protocol value like the local colors of MIS): every process maintains a
//!   `dist`/`parent` pair, the guard is the local BFS consistency check,
//!   and each repair reads the whole neighborhood (the classical
//!   Δ-efficient structure the paper's measures charge for),
//! * [`LeaderElection`] — a **communication-efficient** leader election
//!   with tree construction for **identified** networks
//!   ([`selfstab_graph::Identifiers`]), in the style of Défago, Emek,
//!   Kutten, Masuzawa & Tamura, *Communication Efficient Self-Stabilizing
//!   Leader Election*: after stabilization each activation probes a single
//!   neighbor round-robin (♦-1-efficiency), falling back to a full
//!   neighborhood scan only while repairing.
//!
//! Both stabilize to a configuration whose correctness predicate is
//! **global** — the `parent` pointers form a BFS spanning tree whose
//! distances equal the oracle BFS layers, with exactly one root/leader —
//! unlike the local predicates (coloring, MIS, matching) shipped so far.
//! The property tests verify stabilized configurations against the graph
//! crate's oracle, [`selfstab_graph::properties::bfs_distances`] from the
//! root or the elected leader.

pub mod bfs_tree;
pub mod leader_election;

pub use bfs_tree::{BfsState, BfsTree};
pub use leader_election::{LeaderElection, LeaderElectionState};

use selfstab_graph::{Graph, NodeId, Port};

/// Checks that `dist`/`parent` vectors describe a genuine BFS spanning tree
/// of `graph` rooted at `root`:
///
/// * `dist` equals the oracle BFS layering from `root`,
/// * every non-root parent pointer is a valid port leading one layer up,
/// * the root is its own tree's only process without a parent.
///
/// Shared by both protocols' legitimacy predicates and by the test suites.
pub fn is_bfs_spanning_tree(
    graph: &Graph,
    root: NodeId,
    dist: &[usize],
    parents: &[Option<Port>],
) -> bool {
    if dist.len() != graph.node_count() || parents.len() != graph.node_count() {
        return false;
    }
    let oracle = selfstab_graph::properties::bfs_distances(graph, root);
    for p in graph.nodes() {
        match oracle[p.index()] {
            None => return false, // unreachable process: no spanning tree
            Some(layer) if dist[p.index()] != layer => return false,
            Some(_) => {}
        }
        if p == root {
            if parents[p.index()].is_some() {
                return false;
            }
            continue;
        }
        let Some(parent_port) = parents[p.index()] else {
            return false;
        };
        if parent_port.index() >= graph.degree(p) {
            return false;
        }
        let parent = graph.neighbor(p, parent_port);
        if dist[parent.index()] + 1 != dist[p.index()] {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfstab_graph::generators;

    #[test]
    fn oracle_accepts_a_genuine_bfs_tree_and_rejects_corruptions() {
        let graph = generators::ring(5);
        let root = NodeId::new(0);
        // Ring 0-1-2-3-4-0: BFS layers 0,1,2,2,1.
        let dist = vec![0, 1, 2, 2, 1];
        // Ports on a ring generator: process i's port to i+1 and to i-1.
        let parent_port = |p: usize, q: usize| {
            graph
                .port_to(NodeId::new(p), NodeId::new(q))
                .map(Some)
                .unwrap()
        };
        let parents = vec![
            None,
            parent_port(1, 0),
            parent_port(2, 1),
            parent_port(3, 4),
            parent_port(4, 0),
        ];
        assert!(is_bfs_spanning_tree(&graph, root, &dist, &parents));

        // Wrong distance.
        let mut bad = dist.clone();
        bad[2] = 1;
        assert!(!is_bfs_spanning_tree(&graph, root, &bad, &parents));
        // Root with a parent.
        let mut bad_parents = parents.clone();
        bad_parents[0] = Some(Port::new(0));
        assert!(!is_bfs_spanning_tree(&graph, root, &dist, &bad_parents));
        // Non-root without a parent.
        let mut orphan = parents.clone();
        orphan[3] = None;
        assert!(!is_bfs_spanning_tree(&graph, root, &dist, &orphan));
        // Parent pointing sideways (same layer) instead of up.
        let sideways = vec![
            None,
            parent_port(1, 0),
            parent_port(2, 3),
            parent_port(3, 4),
            parent_port(4, 0),
        ];
        assert!(!is_bfs_spanning_tree(&graph, root, &dist, &sideways));
        // Mismatched vector lengths.
        assert!(!is_bfs_spanning_tree(&graph, root, &dist[..4], &parents));
    }
}
