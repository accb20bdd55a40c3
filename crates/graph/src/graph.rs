//! The locally-labelled undirected graph type.

use std::fmt;
use std::ops::Range;

use rand::seq::SliceRandom;
use rand::Rng;

use crate::builder::GraphBuilder;
use crate::error::GraphError;
use crate::node::{NodeId, Port};

/// An undirected simple graph with per-process local port numbering.
///
/// This is the communication topology of the paper's model: every process
/// `p` has `δ.p` neighbors reachable through local ports `0..δ.p`. A port
/// number is meaningful only to its owner — the two endpoints of an edge will
/// in general address it through different port numbers, exactly as in the
/// anonymous network model where processes can only *locally* distinguish
/// their neighbors.
///
/// `Graph` is immutable once built (use [`GraphBuilder`] or the
/// [`generators`](crate::generators) module); the simulation runtime shares
/// it read-only across all simulated processes, which keeps ownership simple
/// despite the conceptually shared topology.
///
/// # Memory layout
///
/// The adjacency structure is stored in **CSR (compressed sparse row)**
/// form: one flat neighbor array plus an offset array, so the neighbors of
/// process `p` are the contiguous slice
/// `neighbors[offsets[p] .. offsets[p + 1]]`. Compared to the
/// `Vec<Vec<NodeId>>`-of-rows layout this removes one pointer indirection
/// and one cache line per process on every neighborhood scan — the single
/// hottest access pattern of the simulator — and packs the whole topology
/// into two allocations regardless of `n`. [`Graph::neighbor_slice`]
/// exposes the raw slice; [`Graph::neighbors`] / [`Graph::ports`] are
/// slice-backed iterators over it.
///
/// # Example
///
/// ```
/// use selfstab_graph::{Graph, GraphBuilder, NodeId, Port};
///
/// let g: Graph = GraphBuilder::new(3)
///     .edge(0, 1)
///     .edge(1, 2)
///     .build()
///     .unwrap();
/// let p1 = NodeId::new(1);
/// assert_eq!(g.degree(p1), 2);
/// // The neighbor behind each port of p1:
/// let neighbors: Vec<_> = g.neighbors(p1).collect();
/// assert_eq!(neighbors.len(), 2);
/// // Port lookup is symmetric with neighbor lookup:
/// let q = g.neighbor(p1, Port::new(0));
/// assert_eq!(g.port_to(p1, q), Some(Port::new(0)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    /// Flat CSR neighbor array: the neighbor behind port `i` of process `p`
    /// is `neighbors[offsets[p] as usize + i]`.
    neighbors: Vec<NodeId>,
    /// CSR row offsets, `n + 1` entries; `offsets[p + 1] - offsets[p]` is
    /// the degree `δ.p`. `u32` keeps the array half the size of `usize` on
    /// 64-bit targets (2·10⁹ directed edges is far beyond simulated scale).
    offsets: Vec<u32>,
    /// Number of undirected edges.
    edge_count: usize,
}

impl Graph {
    /// Builds a graph directly from its CSR representation.
    ///
    /// This is the internal constructor used by [`GraphBuilder`]; it assumes
    /// the structure is already a valid simple undirected graph
    /// (`offsets.len() == n + 1`, monotone, `neighbors.len() == 2m`).
    pub(crate) fn from_csr(neighbors: Vec<NodeId>, offsets: Vec<u32>, edge_count: usize) -> Self {
        debug_assert!(!offsets.is_empty(), "offsets must have n + 1 entries");
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        debug_assert_eq!(*offsets.last().unwrap() as usize, neighbors.len());
        debug_assert_eq!(neighbors.len(), 2 * edge_count);
        Graph {
            neighbors,
            offsets,
            edge_count,
        }
    }

    /// Number of processes `n = |Π|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m = |E|`.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Iterator over all process identifiers `0..n`.
    #[inline]
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::new)
    }

    /// Degree `δ.p` of process `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[inline]
    pub fn degree(&self, p: NodeId) -> usize {
        (self.offsets[p.index() + 1] - self.offsets[p.index()]) as usize
    }

    /// Maximum degree `Δ` of the graph (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// The neighbors of `p` as a contiguous slice, indexed by port.
    ///
    /// This is the zero-cost view the runtime's neighbor views are built
    /// on: one bounds check, no per-process indirection.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[inline]
    pub fn neighbor_slice(&self, p: NodeId) -> &[NodeId] {
        &self.neighbors[self.port_range(p)]
    }

    /// Where `p`'s ports sit in the flat CSR arrays:
    /// [`Graph::neighbor_slice`] is this range of the neighbor array, and
    /// port `i` of `p` is entry `port_range(p).start + i`. A per-port
    /// array laid out like the graph (the runtime's read flags) indexes
    /// its rows with it.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[inline]
    pub fn port_range(&self, p: NodeId) -> Range<usize> {
        self.offsets[p.index()] as usize..self.offsets[p.index() + 1] as usize
    }

    /// The neighbor of `p` behind local port `port`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range or `port >= δ.p`.
    #[inline]
    pub fn neighbor(&self, p: NodeId, port: Port) -> NodeId {
        self.neighbor_slice(p)[port.index()]
    }

    /// Iterator over the neighbors of `p`, in port order.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[inline]
    pub fn neighbors(&self, p: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.neighbor_slice(p).iter().copied()
    }

    /// Iterator over `(port, neighbor)` pairs of `p`, in port order.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[inline]
    pub fn ports(&self, p: NodeId) -> impl Iterator<Item = (Port, NodeId)> + '_ {
        self.neighbor_slice(p)
            .iter()
            .enumerate()
            .map(|(i, &q)| (Port::new(i), q))
    }

    /// The port of `p` that leads to `q`, if `q` is a neighbor of `p`.
    #[inline]
    pub fn port_to(&self, p: NodeId, q: NodeId) -> Option<Port> {
        self.neighbor_slice(p)
            .iter()
            .position(|&r| r == q)
            .map(Port::new)
    }

    /// Returns `true` when `{p, q}` is an edge of the graph.
    pub fn has_edge(&self, p: NodeId, q: NodeId) -> bool {
        self.port_to(p, q).is_some()
    }

    /// Iterator over all undirected edges, each reported once with
    /// `edge.0 < edge.1` (by process index).
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |p| {
            self.neighbors(p)
                .filter(move |&q| p < q)
                .map(move |q| (p, q))
        })
    }

    /// Checks that a node identifier is valid for this graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] when `p.index() >= n`.
    pub fn check_node(&self, p: NodeId) -> Result<(), GraphError> {
        if p.index() < self.node_count() {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfRange {
                node: p,
                node_count: self.node_count(),
            })
        }
    }

    /// Returns a copy of this graph with the port numbering of every process
    /// shuffled by `rng`.
    ///
    /// The underlying edge set is unchanged; only the local channel labels
    /// move. The impossibility arguments of the paper (Theorems 1 and 2) rely
    /// on the adversary's freedom to pick local labellings, and protocol
    /// correctness must never depend on a particular labelling — the test
    /// suites use this to check that.
    pub fn shuffle_ports<R: Rng + ?Sized>(&self, rng: &mut R) -> Graph {
        let mut shuffled = self.clone();
        for p in 0..shuffled.node_count() {
            let start = shuffled.offsets[p] as usize;
            let end = shuffled.offsets[p + 1] as usize;
            shuffled.neighbors[start..end].shuffle(rng);
        }
        shuffled
    }

    /// Iterator over the per-process adjacency rows (neighbor of each port,
    /// per process), each row a slice of the CSR neighbor array. Mostly
    /// useful for serialization and debugging.
    pub fn adjacency(&self) -> impl Iterator<Item = &[NodeId]> + '_ {
        self.nodes().map(move |p| self.neighbor_slice(p))
    }

    /// Convenience constructor from an explicit edge list over `n` processes.
    ///
    /// # Errors
    ///
    /// Propagates the [`GraphBuilder`] errors: out-of-range endpoints,
    /// self-loops and duplicate edges.
    ///
    /// # Example
    ///
    /// ```
    /// use selfstab_graph::Graph;
    /// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
    /// assert_eq!(g.edge_count(), 4);
    /// ```
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Graph, GraphError> {
        GraphBuilder::new(n).edges(edges.iter().copied()).build()
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "graph(n={}, m={}, Δ={})",
            self.node_count(),
            self.edge_count(),
            self.max_degree()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn triangle() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap()
    }

    #[test]
    fn counts_and_degrees() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.max_degree(), 2);
        for p in g.nodes() {
            assert_eq!(g.degree(p), 2);
        }
    }

    #[test]
    fn ports_and_neighbors_are_consistent() {
        let g = triangle();
        for p in g.nodes() {
            for (port, q) in g.ports(p) {
                assert_eq!(g.neighbor(p, port), q);
                assert_eq!(g.port_to(p, q), Some(port));
                assert!(g.has_edge(p, q));
                assert!(g.has_edge(q, p));
            }
        }
    }

    #[test]
    fn neighbor_slice_matches_iterators() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (3, 4), (1, 2)]).unwrap();
        for p in g.nodes() {
            let slice = g.neighbor_slice(p);
            assert_eq!(slice.len(), g.degree(p));
            let iterated: Vec<_> = g.neighbors(p).collect();
            assert_eq!(slice, &iterated[..]);
        }
        // The port ranges tile the flat arrays in process order.
        let mut next = 0;
        for p in g.nodes() {
            let range = g.port_range(p);
            assert_eq!((range.start, range.len()), (next, g.degree(p)));
            next = range.end;
        }
        assert_eq!(next, 2 * g.edge_count());
        let rows: Vec<&[NodeId]> = g.adjacency().collect();
        assert_eq!(rows.len(), g.node_count());
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(*row, g.neighbor_slice(NodeId::new(i)));
        }
    }

    #[test]
    fn edges_are_reported_once() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        for (a, b) in edges {
            assert!(a < b);
        }
    }

    #[test]
    fn port_to_missing_neighbor_is_none() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(g.port_to(NodeId::new(0), NodeId::new(3)), None);
        assert!(!g.has_edge(NodeId::new(0), NodeId::new(3)));
    }

    #[test]
    fn check_node_rejects_out_of_range() {
        let g = triangle();
        assert!(g.check_node(NodeId::new(2)).is_ok());
        assert_eq!(
            g.check_node(NodeId::new(3)),
            Err(GraphError::NodeOutOfRange {
                node: NodeId::new(3),
                node_count: 3
            })
        );
    }

    #[test]
    fn shuffle_ports_preserves_edge_set() {
        let g = Graph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2)]).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let shuffled = g.shuffle_ports(&mut rng);
        assert_eq!(shuffled.edge_count(), g.edge_count());
        for p in g.nodes() {
            let mut a: Vec<_> = g.neighbors(p).collect();
            let mut b: Vec<_> = shuffled.neighbors(p).collect();
            a.sort();
            b.sort();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn display_mentions_sizes() {
        let g = triangle();
        assert_eq!(g.to_string(), "graph(n=3, m=3, Δ=2)");
    }

    #[test]
    fn from_edges_rejects_bad_input() {
        assert!(Graph::from_edges(2, &[(0, 0)]).is_err());
        assert!(Graph::from_edges(2, &[(0, 1), (1, 0)]).is_err());
        assert!(Graph::from_edges(2, &[(0, 5)]).is_err());
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let empty = Graph::from_edges(0, &[]).unwrap();
        assert_eq!(empty.node_count(), 0);
        assert_eq!(empty.edge_count(), 0);
        assert_eq!(empty.max_degree(), 0);
        assert_eq!(empty.nodes().count(), 0);

        let edgeless = Graph::from_edges(4, &[]).unwrap();
        assert_eq!(edgeless.node_count(), 4);
        for p in edgeless.nodes() {
            assert_eq!(edgeless.degree(p), 0);
            assert!(edgeless.neighbor_slice(p).is_empty());
        }
    }
}
