//! Distance-1 (proper) colorings used as the paper's "local identifiers".
//!
//! The MIS and MATCHING protocols assume every process `p` carries a
//! communication **constant** `C.p` — a color that is unique within its
//! neighborhood — and that colors are totally ordered by `≺`. This module
//! provides such colorings ([`greedy`] and [`dsatur`]), a validated
//! container type ([`LocalColoring`]), and helpers for the `#C` and `R(c)`
//! quantities appearing in the MIS convergence bound (Lemma 4).

use std::sync::Arc;

use crate::error::GraphError;
use crate::graph::Graph;
use crate::node::NodeId;

/// A color, represented as a small non-negative integer ordered by the usual
/// integer order (the paper's `≺` relation).
///
/// Colors are local identifiers: a proper coloring never needs more than
/// `Δ + 1` of them, and `Δ` is bounded by the `u32` node range, so a `u32`
/// holds every color a constructor here produces. The MIS and MATCHING
/// communication rows carry `C.p`, and the narrower type halves the MIS
/// row (16 → 8 bytes) that every activation reads from a neighbor.
pub type Color = u32;

/// A proper (distance-1) vertex coloring of a graph, used as the local
/// identifiers `C.p` of the MIS and MATCHING protocols.
///
/// The colors are constants, so clones share one per-process slice: a
/// protocol built from a coloring clones in `O(#C)`, not `O(n)`.
///
/// # Example
///
/// ```
/// use selfstab_graph::{coloring, generators, verify};
///
/// let g = generators::ring(5);
/// let c = coloring::greedy(&g);
/// assert!(verify::is_proper_coloring(&g, c.colors()));
/// assert!(c.color_count() <= g.max_degree() + 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalColoring {
    colors: Arc<[Color]>,
    /// The distinct colors in use, sorted: `#C` is its length and `R(c)` a
    /// binary search into it.
    palette: Vec<Color>,
}

impl LocalColoring {
    /// The one constructor every public one goes through: computes the
    /// palette once, so [`LocalColoring::color_count`] and
    /// [`LocalColoring::rank`] never rescan the colors.
    fn from_colors(colors: Vec<Color>) -> Self {
        let mut palette = colors.clone();
        palette.sort_unstable();
        palette.dedup();
        // A few distinct colors survive out of n entries: release the rest.
        palette.shrink_to_fit();
        LocalColoring {
            colors: colors.into(),
            palette,
        }
    }

    /// Wraps an explicit color assignment, checking that it is a proper
    /// coloring of `graph`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameters`] when the vector length does
    /// not match the process count or two neighbors share a color.
    pub fn new(graph: &Graph, colors: Vec<Color>) -> Result<Self, GraphError> {
        if colors.len() != graph.node_count() {
            return Err(GraphError::InvalidParameters {
                reason: format!(
                    "coloring has {} entries for a graph of {} processes",
                    colors.len(),
                    graph.node_count()
                ),
            });
        }
        for (p, q) in graph.edges() {
            if colors[p.index()] == colors[q.index()] {
                return Err(GraphError::InvalidParameters {
                    reason: format!("neighbors {p} and {q} share color {}", colors[p.index()]),
                });
            }
        }
        Ok(Self::from_colors(colors))
    }

    /// Wraps a color assignment without checking it against a graph.
    ///
    /// Intended for tests that need an improper coloring on purpose (e.g. to
    /// model a corrupted constant); prefer [`LocalColoring::new`] elsewhere.
    pub fn new_unchecked(colors: Vec<Color>) -> Self {
        Self::from_colors(colors)
    }

    /// Color `C.p` of process `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[inline]
    pub fn color(&self, p: NodeId) -> Color {
        self.colors[p.index()]
    }

    /// All colors, indexed by process.
    pub fn colors(&self) -> &[Color] {
        &self.colors
    }

    /// Number of processes covered by the coloring.
    pub fn len(&self) -> usize {
        self.colors.len()
    }

    /// Returns `true` when the coloring covers no process.
    pub fn is_empty(&self) -> bool {
        self.colors.is_empty()
    }

    /// Number of distinct colors used (`#C` in the paper's Lemma 4 bound).
    pub fn color_count(&self) -> usize {
        self.palette.len()
    }

    /// Rank `R(c)` of a color: the number of distinct used colors strictly
    /// smaller than `c` (Notation 1 of the paper).
    pub fn rank(&self, c: Color) -> usize {
        self.palette.partition_point(|&d| d < c)
    }
}

/// Greedy coloring in process-index order: each process takes the smallest
/// color unused by its already-colored neighbors. Uses at most `Δ + 1`
/// colors.
pub fn greedy(graph: &Graph) -> LocalColoring {
    greedy_with_order(graph, graph.nodes())
}

/// Greedy coloring following an explicit process order.
///
/// # Panics
///
/// Panics if `order` mentions a process that is out of range. Processes
/// missing from `order` keep color 0, which may make the result improper —
/// pass a complete order.
pub fn greedy_with_order<I: IntoIterator<Item = NodeId>>(graph: &Graph, order: I) -> LocalColoring {
    let n = graph.node_count();
    let mut colors: Vec<Option<Color>> = vec![None; n];
    for p in order {
        let used: Vec<Color> = graph
            .neighbors(p)
            .filter_map(|q| colors[q.index()])
            .collect();
        let mut c = 0;
        while used.contains(&c) {
            c += 1;
        }
        colors[p.index()] = Some(c);
    }
    LocalColoring::from_colors(colors.into_iter().map(|c| c.unwrap_or(0)).collect())
}

/// DSATUR coloring: always colors next the process with the highest number
/// of distinctly-colored neighbors (ties broken by degree, then index).
/// Often uses fewer colors than [`greedy`], which makes the MIS convergence
/// bound `Δ · #C` tighter.
pub fn dsatur(graph: &Graph) -> LocalColoring {
    let n = graph.node_count();
    let mut colors: Vec<Option<Color>> = vec![None; n];
    for _ in 0..n {
        // Pick the uncolored process with maximum saturation.
        let p = graph
            .nodes()
            .filter(|p| colors[p.index()].is_none())
            .max_by_key(|&p| {
                let mut nbr_colors: Vec<Color> = graph
                    .neighbors(p)
                    .filter_map(|q| colors[q.index()])
                    .collect();
                nbr_colors.sort_unstable();
                nbr_colors.dedup();
                (
                    nbr_colors.len(),
                    graph.degree(p),
                    std::cmp::Reverse(p.index()),
                )
            })
            .expect("an uncolored process remains");
        let used: Vec<Color> = graph
            .neighbors(p)
            .filter_map(|q| colors[q.index()])
            .collect();
        let mut c = 0;
        while used.contains(&c) {
            c += 1;
        }
        colors[p.index()] = Some(c);
    }
    LocalColoring::from_colors(colors.into_iter().map(|c| c.unwrap_or(0)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, verify};

    #[test]
    fn colors_are_4_bytes() {
        // MIS and MATCHING communication rows carry a color; a wider
        // color pads the row every activation reads from a neighbor.
        assert_eq!(std::mem::size_of::<Color>(), 4);
    }

    #[test]
    fn greedy_is_proper_and_within_palette() {
        for g in [
            generators::path(10),
            generators::ring(9),
            generators::complete(6),
            generators::star(8),
            generators::grid(4, 5),
            generators::caterpillar(5, 3),
        ] {
            let c = greedy(&g);
            assert!(
                verify::is_proper_coloring(&g, c.colors()),
                "greedy coloring improper on {g}"
            );
            assert!(c.color_count() <= g.max_degree() + 1);
        }
    }

    #[test]
    fn dsatur_is_proper_and_no_worse_than_palette() {
        for g in [
            generators::ring(9),
            generators::complete(6),
            generators::grid(4, 5),
            generators::wheel(8),
        ] {
            let c = dsatur(&g);
            assert!(
                verify::is_proper_coloring(&g, c.colors()),
                "dsatur coloring improper on {g}"
            );
            assert!(c.color_count() <= g.max_degree() + 1);
        }
    }

    #[test]
    fn dsatur_colors_bipartite_graphs_with_two_colors() {
        let g = generators::grid(4, 6);
        assert_eq!(dsatur(&g).color_count(), 2);
        let g = generators::complete_bipartite(3, 5);
        assert_eq!(dsatur(&g).color_count(), 2);
    }

    #[test]
    fn new_validates_properness() {
        let g = generators::path(3);
        assert!(LocalColoring::new(&g, vec![0, 1, 0]).is_ok());
        assert!(LocalColoring::new(&g, vec![0, 0, 1]).is_err());
        assert!(LocalColoring::new(&g, vec![0, 1]).is_err());
    }

    #[test]
    fn color_count_and_rank() {
        let c = LocalColoring::new_unchecked(vec![2, 0, 2, 5, 0]);
        assert_eq!(c.color_count(), 3);
        assert_eq!(c.rank(0), 0);
        assert_eq!(c.rank(2), 1);
        assert_eq!(c.rank(5), 2);
        assert_eq!(c.rank(7), 3);

        // Every constructor agrees with a from-scratch count of the colors.
        let g = generators::grid(4, 5);
        let order: Vec<NodeId> = (0..g.node_count()).rev().map(NodeId::new).collect();
        let checked = LocalColoring::new(&g, greedy(&g).colors().to_vec()).unwrap();
        for c in [
            checked,
            LocalColoring::new_unchecked(vec![7, 3, 7, 1]),
            greedy(&g),
            greedy_with_order(&g, order),
            dsatur(&g),
        ] {
            let mut distinct = c.colors().to_vec();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(c.color_count(), distinct.len());
            for probe in 0..=distinct.last().copied().unwrap_or(0) + 1 {
                let smaller = distinct.iter().filter(|&&d| d < probe).count();
                assert_eq!(c.rank(probe), smaller, "rank({probe}) of {:?}", c.colors());
            }
        }
    }

    #[test]
    fn accessors() {
        let c = LocalColoring::new_unchecked(vec![3, 1]);
        assert_eq!(c.color(NodeId::new(0)), 3);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
        assert_eq!(c.colors(), &[3, 1]);
    }

    #[test]
    fn clones_share_the_colors_and_compare_by_content() {
        let c = greedy(&generators::grid(4, 5));
        let clone = c.clone();
        assert_eq!(clone.colors().as_ptr(), c.colors().as_ptr());
        assert_eq!(clone, c);
        assert_eq!(format!("{clone:?}"), format!("{c:?}"));
        // Equality compares the colors, not where they are stored.
        let copy = LocalColoring::new_unchecked(c.colors().to_vec());
        assert_ne!(copy.colors().as_ptr(), c.colors().as_ptr());
        assert_eq!(copy, c);
        assert_ne!(
            LocalColoring::new_unchecked(vec![3, 1]),
            LocalColoring::new_unchecked(vec![1, 3])
        );
        // Debug prints the colors as a list.
        assert_eq!(
            format!("{:?}", LocalColoring::new_unchecked(vec![3, 1, 3])),
            "LocalColoring { colors: [3, 1, 3], palette: [1, 3] }"
        );
    }

    #[test]
    fn greedy_with_custom_order_stays_proper() {
        let g = generators::ring(6);
        let order: Vec<NodeId> = (0..6).rev().map(NodeId::new).collect();
        let c = greedy_with_order(&g, order);
        assert!(verify::is_proper_coloring(&g, c.colors()));
    }
}
