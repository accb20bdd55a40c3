//! The exact topologies appearing in the paper's figures.
//!
//! * [`theorem1_chain`] / [`theorem1_general`] — the anonymous networks used
//!   in the proof of Theorem 1 (Figures 1 and 2),
//! * [`theorem2_network`] / [`theorem2_general`] — the rooted, dag-oriented
//!   network used in the proof of Theorem 2 (Figures 3–6),
//! * [`figure9_path`] — the path family matching the ♦-(⌊(Lmax+1)/2⌋, 1)
//!   stability bound of the MIS protocol (Figure 9),
//! * [`figure11_example`] — the ∆ = 4, m = 14 graph matching the
//!   ♦-(2⌈m/(2∆−1)⌉, 1) stability bound of the MATCHING protocol
//!   (Figure 11).

use crate::builder::GraphBuilder;
use crate::error::GraphError;
use crate::graph::Graph;
use crate::node::NodeId;

/// The anonymous chain of five processes `p1 — p2 — p3 — p4 — p5` used in
/// the ∆ = 2 case of Theorem 1 (Figure 1).
///
/// Process indices are 0-based: paper process `p_i` is [`NodeId`] `i - 1`.
pub fn theorem1_chain() -> Graph {
    crate::generators::path(5)
}

/// The seven-process chain obtained by splicing two copies of the Theorem 1
/// chain (configuration (c) of Figure 1).
pub fn theorem1_spliced_chain() -> Graph {
    crate::generators::path(7)
}

/// The generalization of the Theorem 1 topology for an arbitrary maximum
/// degree `delta >= 2` (Figure 2 shows `delta = 3`).
///
/// The graph has `delta² + 1` processes: a center of degree `delta` linked
/// to `delta` middle processes of degree `delta`, each of which carries
/// `delta - 1` pendant leaves.
///
/// Layout of the returned graph: process 0 is the center, processes
/// `1..=delta` are the middle processes, and the leaves follow.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] when `delta < 2`.
pub fn theorem1_general(delta: usize) -> Result<Graph, GraphError> {
    if delta < 2 {
        return Err(GraphError::InvalidParameters {
            reason: format!("theorem 1 generalization needs delta >= 2, got {delta}"),
        });
    }
    let n = delta * delta + 1;
    let mut builder = GraphBuilder::new(n);
    let mut next_leaf = delta + 1;
    for middle in 1..=delta {
        builder = builder.edge(0, middle);
        for _ in 0..(delta - 1) {
            builder = builder.edge(middle, next_leaf);
            next_leaf += 1;
        }
    }
    debug_assert_eq!(next_leaf, n);
    builder.build()
}

/// A rooted, dag-oriented network: the underlying undirected graph plus the
/// root process and the orientation (directed edges) the proof fixes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootedDagNetwork {
    /// The underlying undirected communication graph.
    pub graph: Graph,
    /// The distinguished root process.
    pub root: NodeId,
    /// The dag orientation as `(from, to)` pairs over neighboring processes.
    pub oriented_edges: Vec<(NodeId, NodeId)>,
}

impl RootedDagNetwork {
    /// Processes with no incoming oriented edge (sources of the dag).
    pub fn sources(&self) -> Vec<NodeId> {
        self.graph
            .nodes()
            .filter(|&p| self.oriented_edges.iter().all(|&(_, to)| to != p))
            .collect()
    }

    /// Processes with no outgoing oriented edge (sinks of the dag).
    pub fn sinks(&self) -> Vec<NodeId> {
        self.graph
            .nodes()
            .filter(|&p| self.oriented_edges.iter().all(|&(from, _)| from != p))
            .collect()
    }
}

/// The six-process rooted, dag-oriented network of Theorem 2 (Figure 3).
///
/// Paper process `p_i` is [`NodeId`] `i - 1`. The underlying graph is the
/// 6-cycle `p1 — p2 — p5 — p4 — p6 — p3 — p1`; the orientation makes `p1`
/// (the root) and `p4` sources and `p5`, `p6` sinks, exactly as drawn in
/// Figure 3.
pub fn theorem2_network() -> RootedDagNetwork {
    // 0-based: p1=0, p2=1, p3=2, p4=3, p5=4, p6=5.
    let graph = Graph::from_edges(6, &[(0, 1), (0, 2), (1, 4), (2, 5), (3, 4), (3, 5)])
        .expect("theorem 2 network construction is always valid");
    let o = |a: usize, b: usize| (NodeId::new(a), NodeId::new(b));
    RootedDagNetwork {
        graph,
        root: NodeId::new(0),
        oriented_edges: vec![o(0, 1), o(0, 2), o(1, 4), o(2, 5), o(3, 4), o(3, 5)],
    }
}

/// The generalization of the Theorem 2 topology for maximum degree
/// `delta >= 2` (Figure 6 shows `delta = 3`): `delta - 2` pendant leaves are
/// attached to each of the six original processes, oriented so that `p1` and
/// `p4` remain sources and `p5`, `p6` remain sinks.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] when `delta < 2`.
pub fn theorem2_general(delta: usize) -> Result<RootedDagNetwork, GraphError> {
    if delta < 2 {
        return Err(GraphError::InvalidParameters {
            reason: format!("theorem 2 generalization needs delta >= 2, got {delta}"),
        });
    }
    let base = theorem2_network();
    let pendants_per_node = delta - 2;
    let n = 6 + 6 * pendants_per_node;
    let mut builder = GraphBuilder::new(n);
    for (a, b) in base.graph.edges() {
        builder = builder.edge(a.index(), b.index());
    }
    let mut oriented = base.oriented_edges.clone();
    let mut next = 6;
    for core in 0..6usize {
        for _ in 0..pendants_per_node {
            builder = builder.edge(core, next);
            // Sources (p1 = 0, p4 = 3) point towards their leaves so they
            // stay sources; every other process receives an edge from its
            // leaves so the sinks (p5 = 4, p6 = 5) stay sinks.
            if core == 0 || core == 3 {
                oriented.push((NodeId::new(core), NodeId::new(next)));
            } else {
                oriented.push((NodeId::new(next), NodeId::new(core)));
            }
            next += 1;
        }
    }
    Ok(RootedDagNetwork {
        graph: builder.build()?,
        root: base.root,
        oriented_edges: oriented,
    })
}

/// The path family of Figure 9: on a path, once the MIS protocol has
/// stabilized at most `⌈(Lmax+1)/2⌉` processes are Dominators, so at least
/// `⌊(Lmax+1)/2⌋` processes are dominated and eventually 1-stable — the
/// figure's alternating black/white path achieves the bound exactly.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn figure9_path(n: usize) -> Graph {
    crate::generators::path(n)
}

/// The ∆ = 4, m = 14 example of Figure 11 that matches the
/// ♦-(2⌈m/(2∆−1)⌉, 1)-stability bound of the MATCHING protocol.
///
/// The graph contains two "gadgets", each built around one matched edge
/// whose endpoints have degree ∆ = 4; every other edge is incident to a
/// matched endpoint, so the maximal matching `{(u1, v1), (u2, v2)}` of size
/// `⌈14 / 7⌉ = 2` (4 matched processes) is exactly the bound.
///
/// Layout: processes 0–3 are the matched endpoints `u1, v1, u2, v2`,
/// process 4 is the shared unmatched process connecting the gadgets, and
/// processes 5–14 are pendant leaves.
pub fn figure11_example() -> Graph {
    // u1 = 0, v1 = 1, u2 = 2, v2 = 3, w = 4 (shared unmatched), leaves 5..15.
    Graph::from_edges(
        15,
        &[
            (0, 1), // matched edge u1 - v1
            (2, 3), // matched edge u2 - v2
            (1, 4), // v1 - w
            (2, 4), // u2 - w
            // pendant leaves of u1 (3 of them -> degree 4)
            (0, 5),
            (0, 6),
            (0, 7),
            // pendant leaves of v1 (2 of them -> degree 4 with u1 and w)
            (1, 8),
            (1, 9),
            // pendant leaves of u2 (2 of them -> degree 4 with v2 and w)
            (2, 10),
            (2, 11),
            // pendant leaves of v2 (3 of them -> degree 4)
            (3, 12),
            (3, 13),
            (3, 14),
        ],
    )
    .expect("figure 11 construction is always valid")
}

/// The two matched edges of the Figure 11 example, as `(u, v)` pairs.
pub fn figure11_tight_matching() -> Vec<(NodeId, NodeId)> {
    vec![
        (NodeId::new(0), NodeId::new(1)),
        (NodeId::new(2), NodeId::new(3)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;
    use crate::verify;

    /// Asserts that `net` orients every graph edge exactly once and that
    /// `rank` rises along every oriented edge, so the orientation has no
    /// directed cycle.
    fn assert_ranked_orientation(net: &RootedDagNetwork, rank: &[usize]) {
        assert_eq!(net.oriented_edges.len(), net.graph.edge_count());
        let mut undirected: Vec<_> = net
            .oriented_edges
            .iter()
            .map(|&(from, to)| (from.min(to), from.max(to)))
            .collect();
        undirected.sort();
        undirected.dedup();
        assert_eq!(undirected.len(), net.graph.edge_count());
        for &(from, to) in &net.oriented_edges {
            assert!(net.graph.has_edge(from, to), "{from} → {to} is not an edge");
            assert!(rank[from.index()] < rank[to.index()], "{from} → {to}");
        }
    }

    #[test]
    fn theorem1_chain_is_a_five_path() {
        let g = theorem1_chain();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(theorem1_spliced_chain().node_count(), 7);
    }

    #[test]
    fn theorem1_general_sizes() {
        for delta in 2..=5 {
            let g = theorem1_general(delta).unwrap();
            assert_eq!(g.node_count(), delta * delta + 1, "delta = {delta}");
            assert_eq!(g.max_degree(), delta);
            assert!(properties::is_connected(&g));
            // center and middle processes all have degree delta
            assert_eq!(g.degree(NodeId::new(0)), delta);
            for middle in 1..=delta {
                assert_eq!(g.degree(NodeId::new(middle)), delta);
            }
        }
        assert!(theorem1_general(1).is_err());
    }

    #[test]
    fn theorem2_network_matches_figure3() {
        let net = theorem2_network();
        assert_eq!(net.graph.node_count(), 6);
        assert_eq!(net.graph.edge_count(), 6);
        assert!(net.graph.nodes().all(|p| net.graph.degree(p) == 2));
        assert_eq!(net.root, NodeId::new(0));
        // p2's neighbors are p1 and p5, as used in the proof.
        let p2 = NodeId::new(1);
        let mut nbrs: Vec<_> = net.graph.neighbors(p2).collect();
        nbrs.sort();
        assert_eq!(nbrs, vec![NodeId::new(0), NodeId::new(4)]);
        // Sources are p1 and p4, sinks are p5 and p6.
        assert_eq!(net.sources(), vec![NodeId::new(0), NodeId::new(3)]);
        assert_eq!(net.sinks(), vec![NodeId::new(4), NodeId::new(5)]);
        // Sources at rank 0, their successors p2, p3 at 1, the sinks at 2.
        assert_ranked_orientation(&net, &[0, 1, 1, 0, 2, 2]);
    }

    #[test]
    fn theorem2_general_preserves_sources_and_sinks() {
        for delta in 2..=4 {
            let net = theorem2_general(delta).unwrap();
            assert_eq!(net.graph.node_count(), 6 + 6 * (delta - 2));
            assert_eq!(net.graph.max_degree(), delta);
            assert!(properties::is_connected(&net.graph));
            let sources = net.sources();
            let sinks = net.sinks();
            assert!(sources.contains(&NodeId::new(0)), "p1 must stay a source");
            assert!(sources.contains(&NodeId::new(3)), "p4 must stay a source");
            assert!(sinks.contains(&NodeId::new(4)), "p5 must stay a sink");
            assert!(sinks.contains(&NodeId::new(5)), "p6 must stay a sink");
            // Figure 3's ranks; leaves of the sources p1, p4 sit one rank
            // above them, every other leaf below its process at rank 0.
            let mut rank = vec![0, 1, 1, 0, 2, 2];
            for core in 0..6 {
                rank.extend(std::iter::repeat_n(
                    usize::from(core == 0 || core == 3),
                    delta - 2,
                ));
            }
            assert_ranked_orientation(&net, &rank);
        }
        assert!(theorem2_general(0).is_err());
    }

    #[test]
    fn figure11_example_matches_the_bound() {
        let g = figure11_example();
        assert_eq!(g.max_degree(), 4);
        assert_eq!(g.edge_count(), 14);
        assert!(properties::is_connected(&g));
        let matching = figure11_tight_matching();
        assert!(verify::is_matching(&g, &matching));
        assert!(verify::is_maximal_matching(&g, &matching));
        // The bound 2 * ceil(m / (2Δ - 1)) = 4 matched processes is achieved.
        let bound = 2 * 14_usize.div_ceil(2 * 4 - 1);
        assert_eq!(2 * matching.len(), bound);
    }

    #[test]
    fn figure9_path_is_a_path() {
        let g = figure9_path(9);
        assert_eq!(g.edge_count(), 8);
        assert_eq!(g.max_degree(), 2);
    }
}
