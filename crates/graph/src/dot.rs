//! Graphviz DOT export of spanning trees, for visual inspection of
//! protocol outputs while debugging experiments.

use std::fmt::Write as _;

use crate::graph::Graph;
use crate::node::NodeId;

/// Renders a spanning tree embedded in the graph: tree edges (given as
/// `parents[p] = Some(parent of p)`) are drawn directed and bold, non-tree
/// edges dashed, and the root (every process without a parent) doubly
/// circled.
///
/// The parent vector is exactly the shape the spanning-tree protocols
/// stabilize to, so a stabilized configuration can be dumped directly.
///
/// # Example
///
/// ```
/// use selfstab_graph::{dot, generators, NodeId};
/// let g = generators::path(3);
/// let parents = vec![None, Some(NodeId::new(0)), Some(NodeId::new(1))];
/// let out = dot::to_dot_tree(&g, "chain", &parents);
/// assert!(out.contains("p1 -> p0"));
/// assert!(out.contains("doublecircle"));
/// ```
pub fn to_dot_tree(graph: &Graph, name: &str, parents: &[Option<NodeId>]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph {name} {{");
    for p in graph.nodes() {
        let shape = match parents.get(p.index()) {
            Some(None) => " [shape=doublecircle]",
            _ => "",
        };
        let _ = writeln!(out, "  {p}{shape};");
    }
    for (p, q) in graph.edges() {
        // Each parent pointer is rendered as its own bold child -> parent
        // arc; a corrupted configuration where two adjacent processes name
        // each other as parent therefore shows *both* arcs. Edges carrying
        // no parent pointer are dashed and arrowless.
        let p_points_to_q = parents.get(p.index()).copied().flatten() == Some(q);
        let q_points_to_p = parents.get(q.index()).copied().flatten() == Some(p);
        if p_points_to_q {
            let _ = writeln!(out, "  {p} -> {q} [penwidth=2];");
        }
        if q_points_to_p {
            let _ = writeln!(out, "  {q} -> {p} [penwidth=2];");
        }
        if !p_points_to_q && !q_points_to_p {
            let _ = writeln!(out, "  {p} -> {q} [dir=none, style=dashed];");
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn tree_dot_distinguishes_tree_and_non_tree_edges() {
        let g = generators::ring(4);
        // Spanning tree rooted at p0: 1 -> 0, 3 -> 0, 2 -> 1.
        let parents = vec![
            None,
            Some(NodeId::new(0)),
            Some(NodeId::new(1)),
            Some(NodeId::new(0)),
        ];
        let dot = to_dot_tree(&g, "ring4", &parents);
        assert!(dot.starts_with("digraph ring4 {"));
        assert!(dot.contains("p0 [shape=doublecircle];"));
        assert!(dot.contains("p1 -> p0 [penwidth=2];"));
        assert!(dot.contains("p2 -> p1 [penwidth=2];"));
        assert!(dot.contains("p3 -> p0 [penwidth=2];"));
        // The ring's fourth edge {2, 3} is not a tree edge.
        assert!(dot.contains("p2 -> p3 [dir=none, style=dashed];"));
        assert_eq!(dot.matches("penwidth=2").count(), 3);
    }

    #[test]
    fn tree_dot_renders_both_arcs_of_a_mutual_parent_pair() {
        // A corrupted configuration may have adjacent processes naming each
        // other as parent; the dump must show both pointers.
        let g = generators::path(2);
        let parents = vec![Some(NodeId::new(1)), Some(NodeId::new(0))];
        let dot = to_dot_tree(&g, "loop2", &parents);
        assert!(dot.contains("p0 -> p1 [penwidth=2];"));
        assert!(dot.contains("p1 -> p0 [penwidth=2];"));
        assert!(!dot.contains("style=dashed"));
    }
}
