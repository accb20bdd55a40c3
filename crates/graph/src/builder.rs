//! Incremental construction of [`Graph`] values.

use std::collections::BTreeSet;

use crate::error::GraphError;
use crate::graph::Graph;
use crate::node::NodeId;

/// Builder for [`Graph`] values.
///
/// The builder records edges in insertion order; the port numbering of every
/// process follows the order in which its incident edges were added. Use
/// [`Graph::shuffle_ports`] afterwards if an adversarial or randomized
/// labelling is required.
///
/// # Example
///
/// ```
/// use selfstab_graph::GraphBuilder;
///
/// let g = GraphBuilder::new(4)
///     .edge(0, 1)
///     .edge(1, 2)
///     .edge(2, 3)
///     .build()?;
/// assert_eq!(g.node_count(), 4);
/// assert_eq!(g.edge_count(), 3);
/// # Ok::<(), selfstab_graph::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    node_count: usize,
    edges: Vec<(usize, usize)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph over `node_count` processes and no edge.
    pub fn new(node_count: usize) -> Self {
        GraphBuilder {
            node_count,
            edges: Vec::new(),
        }
    }

    /// Adds the undirected edge `{a, b}`.
    ///
    /// Errors are deferred to [`build`](Self::build) so that calls can be
    /// chained fluently.
    #[must_use]
    pub fn edge(mut self, a: usize, b: usize) -> Self {
        self.edges.push((a, b));
        self
    }

    /// Adds every edge from an iterator of endpoint pairs.
    #[must_use]
    pub fn edges<I: IntoIterator<Item = (usize, usize)>>(mut self, iter: I) -> Self {
        self.edges.extend(iter);
        self
    }

    /// Validates the recorded edges and produces the immutable [`Graph`].
    ///
    /// # Errors
    ///
    /// * [`GraphError::TooManyNodes`] if `node_count` exceeds the `u32`
    ///   [`NodeId`] space,
    /// * [`GraphError::TooManyEdges`] if the edges would overflow the `u32`
    ///   CSR port-entry space,
    /// * [`GraphError::NodeOutOfRange`] if an endpoint is `>= node_count`,
    /// * [`GraphError::SelfLoop`] if an edge `{p, p}` was added,
    /// * [`GraphError::DuplicateEdge`] if the same undirected edge was added
    ///   twice.
    pub fn build(self) -> Result<Graph, GraphError> {
        let n = self.node_count;
        // Capacity checks come first, before any per-edge work or
        // allocation: a request beyond the u32-compacted identifier space
        // must fail fast with a typed error instead of wrapping (or
        // attempting a multi-gigabyte validation pass).
        if n > NodeId::MAX_INDEX + 1 {
            return Err(GraphError::TooManyNodes {
                node_count: n,
                max_nodes: NodeId::MAX_INDEX + 1,
            });
        }
        let max_edges = (u32::MAX as usize) / 2;
        if self.edges.len() > max_edges {
            return Err(GraphError::TooManyEdges {
                edge_count: self.edges.len(),
                max_edges,
            });
        }
        let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
        // First pass: validate every edge. Out-of-range endpoints are
        // clamped into the identifier range for error reporting only —
        // `NodeId::new` itself would panic on an endpoint beyond
        // `NodeId::MAX_INDEX`.
        for &(a, b) in &self.edges {
            if a >= n {
                return Err(GraphError::NodeOutOfRange {
                    node: NodeId::new(a.min(NodeId::MAX_INDEX)),
                    node_count: n,
                });
            }
            if b >= n {
                return Err(GraphError::NodeOutOfRange {
                    node: NodeId::new(b.min(NodeId::MAX_INDEX)),
                    node_count: n,
                });
            }
            if a == b {
                return Err(GraphError::SelfLoop {
                    node: NodeId::new(a),
                });
            }
            let key = (a.min(b), a.max(b));
            if !seen.insert(key) {
                return Err(GraphError::DuplicateEdge {
                    a: NodeId::new(a),
                    b: NodeId::new(b),
                });
            }
        }
        let edge_count = seen.len();
        // Second pass: hand both endpoint directions to the shared CSR
        // builder. Port numbering of every process follows the order in
        // which its incident edges were added, which is exactly the
        // pair-order guarantee of `csr::from_pairs`.
        let mut pairs: Vec<(usize, NodeId)> = Vec::with_capacity(2 * self.edges.len());
        for &(a, b) in &self.edges {
            pairs.push((a, NodeId::new(b)));
            pairs.push((b, NodeId::new(a)));
        }
        let (neighbors, offsets) = crate::csr::from_pairs(n, &pairs);
        Ok(Graph::from_csr(neighbors, offsets, edge_count))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_simple_graph() {
        let g = GraphBuilder::new(3).edge(0, 1).edge(1, 2).build().unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.degree(NodeId::new(1)), 2);
    }

    #[test]
    fn builds_edgeless_graph() {
        let g = GraphBuilder::new(5).build().unwrap();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn port_order_follows_insertion_order() {
        let g = GraphBuilder::new(4)
            .edge(0, 2)
            .edge(0, 1)
            .edge(0, 3)
            .build()
            .unwrap();
        let neighbors: Vec<_> = g.neighbors(NodeId::new(0)).collect();
        assert_eq!(
            neighbors,
            vec![NodeId::new(2), NodeId::new(1), NodeId::new(3)]
        );
    }

    #[test]
    fn rejects_self_loop() {
        let err = GraphBuilder::new(2).edge(1, 1).build().unwrap_err();
        assert_eq!(
            err,
            GraphError::SelfLoop {
                node: NodeId::new(1)
            }
        );
    }

    #[test]
    fn rejects_duplicate_edge_in_either_direction() {
        let err = GraphBuilder::new(2)
            .edge(0, 1)
            .edge(1, 0)
            .build()
            .unwrap_err();
        assert!(matches!(err, GraphError::DuplicateEdge { .. }));
    }

    #[test]
    fn rejects_out_of_range_endpoint() {
        let err = GraphBuilder::new(2).edge(0, 2).build().unwrap_err();
        assert_eq!(
            err,
            GraphError::NodeOutOfRange {
                node: NodeId::new(2),
                node_count: 2
            }
        );
    }

    #[test]
    fn edges_iterator_helper() {
        let g = GraphBuilder::new(4)
            .edges((0..3).map(|i| (i, i + 1)))
            .build()
            .unwrap();
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn node_count_beyond_u32_is_a_typed_error_not_a_wrap() {
        // The capacity check fires before any allocation or edge work, so
        // this runs in O(1) despite the absurd node count.
        let err = GraphBuilder::new(NodeId::MAX_INDEX + 2)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            GraphError::TooManyNodes {
                node_count: NodeId::MAX_INDEX + 2,
                max_nodes: NodeId::MAX_INDEX + 1,
            }
        );
        // usize::MAX must not wrap either.
        let err = GraphBuilder::new(usize::MAX).build().unwrap_err();
        assert!(matches!(err, GraphError::TooManyNodes { .. }));
    }

    #[test]
    fn out_of_range_endpoint_beyond_u32_reports_instead_of_panicking() {
        // An endpoint outside the u32 identifier space cannot be
        // represented in the error's NodeId; it is clamped to MAX_INDEX
        // for reporting, and the build still fails with the typed error.
        let err = GraphBuilder::new(2)
            .edge(0, usize::MAX)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            GraphError::NodeOutOfRange {
                node: NodeId::new(NodeId::MAX_INDEX),
                node_count: 2,
            }
        );
    }

    #[test]
    fn large_graphs_near_the_compacted_width_still_build() {
        // A 2^20-process ring: comfortably valid under the u32 cap, large
        // enough to catch accidental narrowing in the CSR scatter.
        let n = 1usize << 20;
        let g = GraphBuilder::new(n)
            .edges((0..n).map(|i| (i, (i + 1) % n)))
            .build()
            .unwrap();
        assert_eq!(g.node_count(), n);
        assert_eq!(g.edge_count(), n);
        assert_eq!(g.degree(NodeId::new(n - 1)), 2);
        assert_eq!(
            g.neighbor_slice(NodeId::new(n - 1)),
            &[NodeId::new(n - 2), NodeId::new(0)]
        );
    }
}
