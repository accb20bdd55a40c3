//! The dag orientation induced by a local coloring (Theorem 4 of the paper).
//!
//! With locally-unique, totally-ordered colors, orienting every edge from the
//! smaller to the larger color yields a directed acyclic graph. The MIS and
//! MATCHING protocols exploit exactly this orientation for symmetry breaking;
//! the impossibility result of Theorem 2 shows that even such an orientation
//! (plus a root) does not make `k`-stable solutions possible for `k < Δ`.

use std::collections::VecDeque;

use crate::coloring::LocalColoring;
use crate::error::GraphError;
use crate::graph::Graph;
use crate::node::NodeId;

/// A dag orientation of a graph's edges.
///
/// Stored in the same **CSR (compressed sparse row)** layout as
/// [`Graph`] itself — flat head/tail arrays plus offset arrays — in both
/// directions, so [`DagOrientation::successors`] *and*
/// [`DagOrientation::predecessors`] are `O(1)` contiguous-slice lookups
/// (the row-of-`Vec`s predecessor scan of the seed was `O(n·Δ)` per call).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DagOrientation {
    /// Flat CSR successor array: the heads of the edges oriented away from
    /// `p` are `succ[succ_offsets[p] .. succ_offsets[p + 1]]`.
    succ: Vec<NodeId>,
    /// CSR row offsets for `succ`, `n + 1` entries.
    succ_offsets: Vec<u32>,
    /// Flat CSR predecessor array (tails of incoming edges), ascending per
    /// row.
    pred: Vec<NodeId>,
    /// CSR row offsets for `pred`, `n + 1` entries.
    pred_offsets: Vec<u32>,
}

impl DagOrientation {
    /// Assembles both CSR directions from a directed edge list (via the
    /// shared [`crate::csr`] builder). Successor rows keep the edge-list
    /// order; predecessor rows are sorted ascending.
    fn from_directed_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let (succ, succ_offsets) =
            crate::csr::from_pairs(n, edges.iter().map(|&(f, t)| (f.index(), t)));
        let (mut pred, pred_offsets) =
            crate::csr::from_pairs(n, edges.iter().map(|&(f, t)| (t.index(), f)));
        for p in 0..n {
            let start = pred_offsets[p] as usize;
            let end = pred_offsets[p + 1] as usize;
            pred[start..end].sort_unstable();
        }
        DagOrientation {
            succ,
            succ_offsets,
            pred,
            pred_offsets,
        }
    }

    /// Builds the orientation of Theorem 4: the edge `{p, q}` is oriented
    /// `p → q` exactly when `C.p ≺ C.q`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameters`] when the coloring does not
    /// cover the graph or is not proper (two neighbors with equal colors
    /// cannot be oriented).
    pub fn from_coloring(graph: &Graph, coloring: &LocalColoring) -> Result<Self, GraphError> {
        if !coloring.is_proper(graph) {
            return Err(GraphError::InvalidParameters {
                reason: "the coloring is not a proper distance-1 coloring of the graph".into(),
            });
        }
        let edges: Vec<(NodeId, NodeId)> = graph
            .edges()
            .map(|(p, q)| {
                if coloring.color(p) < coloring.color(q) {
                    (p, q)
                } else {
                    (q, p)
                }
            })
            .collect();
        Ok(Self::from_directed_edges(graph.node_count(), &edges))
    }

    /// Builds an orientation from an explicit list of directed edges.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameters`] when an oriented edge is not
    /// an edge of `graph`, is duplicated, or the orientation has a directed
    /// cycle.
    pub fn from_edges(graph: &Graph, edges: &[(NodeId, NodeId)]) -> Result<Self, GraphError> {
        let mut seen = std::collections::BTreeSet::new();
        for &(from, to) in edges {
            graph.check_node(from)?;
            graph.check_node(to)?;
            if !graph.has_edge(from, to) {
                return Err(GraphError::InvalidParameters {
                    reason: format!("{from} → {to} is not an edge of the graph"),
                });
            }
            let key = (from.index().min(to.index()), from.index().max(to.index()));
            if !seen.insert(key) {
                return Err(GraphError::InvalidParameters {
                    reason: format!("edge {{{from}, {to}}} oriented more than once"),
                });
            }
        }
        let orientation = Self::from_directed_edges(graph.node_count(), edges);
        if orientation.topological_order().is_none() {
            return Err(GraphError::InvalidParameters {
                reason: "the orientation contains a directed cycle".into(),
            });
        }
        Ok(orientation)
    }

    fn node_count(&self) -> usize {
        self.succ_offsets.len() - 1
    }

    /// Successor set `Succ.p`: neighbors reached by edges oriented away from
    /// `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn successors(&self, p: NodeId) -> &[NodeId] {
        let start = self.succ_offsets[p.index()] as usize;
        let end = self.succ_offsets[p.index() + 1] as usize;
        &self.succ[start..end]
    }

    /// Predecessors of `p` (tails of its incoming oriented edges), in
    /// ascending process order — an `O(1)` slice lookup on the reverse CSR
    /// direction.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn predecessors(&self, p: NodeId) -> &[NodeId] {
        let start = self.pred_offsets[p.index()] as usize;
        let end = self.pred_offsets[p.index() + 1] as usize;
        &self.pred[start..end]
    }

    /// Number of oriented edges.
    pub fn edge_count(&self) -> usize {
        self.succ.len()
    }

    /// A topological order of the processes, or `None` if the orientation
    /// has a directed cycle (it then is not a dag).
    pub fn topological_order(&self) -> Option<Vec<NodeId>> {
        let n = self.node_count();
        let mut indegree: Vec<usize> = (0..n)
            .map(|p| self.predecessors(NodeId::new(p)).len())
            .collect();
        let mut queue: VecDeque<NodeId> = (0..n)
            .filter(|&i| indegree[i] == 0)
            .map(NodeId::new)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(p) = queue.pop_front() {
            order.push(p);
            for &q in self.successors(p) {
                indegree[q.index()] -= 1;
                if indegree[q.index()] == 0 {
                    queue.push_back(q);
                }
            }
        }
        if order.len() == n {
            Some(order)
        } else {
            None
        }
    }
}

/// Convenience check used by tests and the paper-topology constructors:
/// returns `true` when `edges` orients a subset of `graph`'s edges without
/// creating a directed cycle.
pub fn edges_form_dag(graph: &Graph, edges: &[(NodeId, NodeId)]) -> bool {
    DagOrientation::from_edges(graph, edges).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coloring;
    use crate::generators;

    #[test]
    fn coloring_orientation_is_acyclic_on_many_graphs() {
        for g in [
            generators::path(8),
            generators::ring(9),
            generators::complete(6),
            generators::grid(4, 4),
            generators::wheel(7),
        ] {
            let c = coloring::greedy(&g);
            let dag = DagOrientation::from_coloring(&g, &c).unwrap();
            assert!(dag.topological_order().is_some(), "cycle on {g}");
            assert_eq!(dag.edge_count(), g.edge_count());
        }
    }

    #[test]
    fn orientation_respects_color_order() {
        let g = generators::path(4);
        let c = coloring::greedy(&g);
        let dag = DagOrientation::from_coloring(&g, &c).unwrap();
        for (p, q) in g.edges() {
            let p_to_q = dag.successors(p).contains(&q);
            let q_to_p = dag.successors(q).contains(&p);
            assert!(p_to_q ^ q_to_p, "every edge is oriented exactly once");
            if p_to_q {
                assert!(c.color(p) < c.color(q));
            } else {
                assert!(c.color(q) < c.color(p));
            }
        }
    }

    #[test]
    fn rejects_improper_coloring() {
        let g = generators::path(3);
        let c = coloring::LocalColoring::new_unchecked(vec![0, 0, 1]);
        assert!(DagOrientation::from_coloring(&g, &c).is_err());
    }

    #[test]
    fn from_edges_validates_input() {
        let g = generators::ring(4);
        let n = NodeId::new;
        // A proper dag orientation.
        let dag = DagOrientation::from_edges(
            &g,
            &[(n(0), n(1)), (n(1), n(2)), (n(3), n(2)), (n(0), n(3))],
        )
        .unwrap();
        assert!(dag.predecessors(n(0)).is_empty());
        assert!(dag.successors(n(2)).is_empty());
        assert_eq!(dag.predecessors(n(2)), vec![n(1), n(3)]);

        // A directed cycle is rejected.
        assert!(DagOrientation::from_edges(
            &g,
            &[(n(0), n(1)), (n(1), n(2)), (n(2), n(3)), (n(3), n(0))]
        )
        .is_err());
        // Non-edges are rejected.
        assert!(DagOrientation::from_edges(&g, &[(n(0), n(2))]).is_err());
        // Duplicated orientations are rejected.
        assert!(DagOrientation::from_edges(&g, &[(n(0), n(1)), (n(1), n(0))]).is_err());
    }

    #[test]
    fn sources_and_sinks_cover_all_extremes() {
        let g = generators::star(5);
        let c = coloring::greedy(&g);
        let dag = DagOrientation::from_coloring(&g, &c).unwrap();
        // In a star colored greedily, the center gets color 0 and points to
        // every leaf.
        assert!(dag.predecessors(NodeId::new(0)).is_empty());
        for leaf in 1..5 {
            assert!(dag.successors(NodeId::new(leaf)).is_empty());
        }
    }
}
