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
    ///
    /// A builder with no edge yet adopts a `Vec` of pairs as its edge list
    /// instead of copying it.
    #[must_use]
    pub fn edges<I: IntoIterator<Item = (usize, usize)>>(mut self, iter: I) -> Self {
        if self.edges.is_empty() {
            // Collecting a `Vec`'s own iterator reuses its buffer.
            self.edges = iter.into_iter().collect();
        } else {
            self.edges.extend(iter);
        }
        self
    }

    /// Validates the recorded edges and produces the immutable [`Graph`].
    ///
    /// Takes time linear in `node_count` plus the number of edges. Besides
    /// the recorded edge list and the graph itself, it allocates only a few
    /// `node_count`-entry `u32` arrays.
    ///
    /// # Errors
    ///
    /// Capacity is checked first, before any per-edge work:
    ///
    /// * [`GraphError::TooManyNodes`] if `node_count` exceeds the `u32`
    ///   [`NodeId`] space,
    /// * [`GraphError::TooManyEdges`] if the edges would overflow the `u32`
    ///   CSR port-entry space.
    ///
    /// Otherwise the error describes the first invalid edge in insertion
    /// order:
    ///
    /// * [`GraphError::NodeOutOfRange`] if an endpoint is `>= node_count`
    ///   (an endpoint beyond [`NodeId::MAX_INDEX`] is reported as
    ///   `MAX_INDEX`),
    /// * [`GraphError::SelfLoop`] if the edge is `{p, p}`,
    /// * [`GraphError::DuplicateEdge`] if the same undirected edge was added
    ///   before, in either orientation; `a` and `b` are the endpoints of the
    ///   later copy, in the order it was added.
    pub fn build(self) -> Result<Graph, GraphError> {
        let n = self.node_count;
        // Capacity checks come first, before any per-edge work or
        // allocation: a request beyond the u32-compacted identifier space
        // must fail fast with a typed error instead of wrapping.
        if n > NodeId::MAX_INDEX + 1 {
            return Err(GraphError::TooManyNodes {
                node_count: n,
                max_nodes: NodeId::MAX_INDEX + 1,
            });
        }
        if self.edges.len() > MAX_EDGES {
            return Err(GraphError::TooManyEdges {
                edge_count: self.edges.len(),
                max_edges: MAX_EDGES,
            });
        }
        if let Some(bad) = self
            .edges
            .iter()
            .position(|&(a, b)| a >= n || b >= n || a == b)
        {
            return Err(first_invalid_edge(n, &self.edges[..=bad]));
        }
        // Port numbering of every process follows the order in which its
        // incident edges were added, which is exactly the pair-order
        // guarantee of `csr::from_pairs`.
        let (neighbors, offsets) = crate::csr::from_pairs(
            n,
            self.edges
                .iter()
                .flat_map(|&(a, b)| [(a, NodeId::new(b)), (b, NodeId::new(a))]),
        );
        // Every endpoint is in range and no edge is a loop, so a row lists
        // a neighbour twice exactly when an edge was added twice.
        if has_repeated_neighbor(&neighbors, &offsets) {
            return Err(first_invalid_edge(n, &self.edges));
        }
        Ok(Graph::from_csr(neighbors, offsets, self.edges.len()))
    }
}

/// The most undirected edges a [`Graph`] holds: each takes two `u32` CSR
/// port entries.
pub(crate) const MAX_EDGES: usize = u32::MAX as usize / 2;

/// Whether some CSR row lists the same neighbour twice.
fn has_repeated_neighbor(neighbors: &[NodeId], offsets: &[u32]) -> bool {
    // `last_row[q]` is the last row seen listing `q`. It starts as `q`
    // itself, which no loop-free row lists, so row `p` finds `p` there
    // only when it listed `q` before.
    let mut last_row: Vec<NodeId> = (0..offsets.len() - 1).map(NodeId::new).collect();
    for (p, bounds) in offsets.windows(2).enumerate() {
        let p = NodeId::new(p);
        for &q in &neighbors[bounds[0] as usize..bounds[1] as usize] {
            if std::mem::replace(&mut last_row[q.index()], p) == p {
                return true;
            }
        }
    }
    false
}

/// The error for the first invalid edge of `edges`, found by a sequential
/// scan that keeps every edge seen in a `BTreeSet`. `build` calls it only
/// on a list it knows to hold an invalid edge.
fn first_invalid_edge(n: usize, edges: &[(usize, usize)]) -> GraphError {
    let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
    // Out-of-range endpoints are clamped into the identifier range for
    // error reporting only — `NodeId::new` itself would panic on an
    // endpoint beyond `NodeId::MAX_INDEX`.
    for &(a, b) in edges {
        if a >= n {
            return GraphError::NodeOutOfRange {
                node: NodeId::new(a.min(NodeId::MAX_INDEX)),
                node_count: n,
            };
        }
        if b >= n {
            return GraphError::NodeOutOfRange {
                node: NodeId::new(b.min(NodeId::MAX_INDEX)),
                node_count: n,
            };
        }
        if a == b {
            return GraphError::SelfLoop {
                node: NodeId::new(a),
            };
        }
        if !seen.insert((a.min(b), a.max(b))) {
            return GraphError::DuplicateEdge {
                a: NodeId::new(a),
                b: NodeId::new(b),
            };
        }
    }
    unreachable!("first_invalid_edge is called on a list with an invalid edge")
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
        // The error names the later copy, as it was added.
        let err = GraphBuilder::new(4)
            .edges(vec![(0, 1), (2, 3), (1, 2), (3, 2), (0, 1)])
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            GraphError::DuplicateEdge {
                a: NodeId::new(3),
                b: NodeId::new(2)
            }
        );
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
    fn edges_adopts_a_vec_on_an_empty_builder() {
        let list: Vec<(usize, usize)> = (0..3).map(|i| (i, i + 1)).collect();
        let buffer = list.as_ptr();
        let builder = GraphBuilder::new(4).edges(list);
        assert_eq!(builder.edges.as_ptr(), buffer);
        // A non-empty builder appends instead.
        let builder = builder.edges(vec![(0, 3)]);
        assert_eq!(builder.edges, vec![(0, 1), (1, 2), (2, 3), (0, 3)]);
        assert_eq!(builder.build().unwrap().edge_count(), 4);
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
