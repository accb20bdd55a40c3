//! Output-specification verifiers for the three problems studied in the
//! paper: proper vertex coloring, maximal independent set and maximal
//! matching.
//!
//! These checks are deliberately independent from the protocol
//! implementations: the test suites and the experiment harness use them to
//! validate every silent configuration a protocol reaches.

use crate::graph::Graph;
use crate::node::NodeId;

/// Returns `true` when `colors[p] != colors[q]` for every edge `{p, q}` —
/// the vertex coloring predicate of Section 5.1.
///
/// `colors` is indexed by process; a vector of the wrong length is never a
/// proper coloring.
pub fn is_proper_coloring<C: PartialEq>(graph: &Graph, colors: &[C]) -> bool {
    colors.len() == graph.node_count()
        && graph
            .edges()
            .all(|(p, q)| colors[p.index()] != colors[q.index()])
}

/// Returns `true` when `members` is an independent set: no two members are
/// neighbors. `members` is a boolean per process.
pub fn is_independent_set(graph: &Graph, members: &[bool]) -> bool {
    members.len() == graph.node_count()
        && graph
            .edges()
            .all(|(p, q)| !(members[p.index()] && members[q.index()]))
}

/// Returns `true` when `members` is a *maximal* independent set: it is an
/// independent set and every non-member has at least one member neighbor —
/// the MIS predicate of Section 5.2.
pub fn is_maximal_independent_set(graph: &Graph, members: &[bool]) -> bool {
    is_independent_set(graph, members)
        && graph
            .nodes()
            .all(|p| members[p.index()] || graph.neighbors(p).any(|q| members[q.index()]))
}

/// Returns `true` when `edges` is a matching: every listed pair is an edge of
/// the graph, no pair is listed twice and no process is incident to two
/// listed edges.
pub fn is_matching(graph: &Graph, edges: &[(NodeId, NodeId)]) -> bool {
    let mut used = vec![false; graph.node_count()];
    for &(p, q) in edges {
        if p.index() >= graph.node_count() || q.index() >= graph.node_count() {
            return false;
        }
        if !graph.has_edge(p, q) {
            return false;
        }
        if used[p.index()] || used[q.index()] {
            return false;
        }
        used[p.index()] = true;
        used[q.index()] = true;
    }
    true
}

/// Returns `true` when `edges` is a *maximal* matching: it is a matching and
/// no edge of the graph has both endpoints unmatched — the maximal matching
/// predicate of Section 5.3.
pub fn is_maximal_matching(graph: &Graph, edges: &[(NodeId, NodeId)]) -> bool {
    if !is_matching(graph, edges) {
        return false;
    }
    let mut matched = vec![false; graph.node_count()];
    for &(p, q) in edges {
        matched[p.index()] = true;
        matched[q.index()] = true;
    }
    graph
        .edges()
        .all(|(p, q)| matched[p.index()] || matched[q.index()])
}

/// The lower bound of Biedl et al. used by Theorem 8: any maximal matching
/// has at least `⌈m / (2Δ − 1)⌉` edges.
///
/// Returns 0 for an edgeless graph.
pub fn maximal_matching_size_lower_bound(graph: &Graph) -> usize {
    let m = graph.edge_count();
    let delta = graph.max_degree();
    if m == 0 || delta == 0 {
        return 0;
    }
    let denom = 2 * delta - 1;
    m.div_ceil(denom)
}

/// The ♦-(x, 1)-stability bound of Theorem 8: at least
/// `2⌈m / (2Δ − 1)⌉` processes are eventually matched (hence 1-stable).
pub fn matching_stability_bound(graph: &Graph) -> usize {
    2 * maximal_matching_size_lower_bound(graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn proper_coloring_checks() {
        let g = generators::path(4);
        assert!(is_proper_coloring(&g, &[0, 1, 0, 1]));
        assert!(!is_proper_coloring(&g, &[0, 0, 1, 0]));
        assert!(!is_proper_coloring(&g, &[0, 1, 0]));
    }

    #[test]
    fn independent_set_checks() {
        let g = generators::path(5);
        assert!(is_independent_set(&g, &[true, false, true, false, true]));
        assert!(!is_independent_set(&g, &[true, true, false, false, false]));
        assert!(!is_independent_set(&g, &[true, false, true]));
    }

    #[test]
    fn maximal_independent_set_checks() {
        let g = generators::path(5);
        // Alternating set is maximal.
        assert!(is_maximal_independent_set(
            &g,
            &[true, false, true, false, true]
        ));
        // {p1, p4} dominates p0, p2, p3 — also maximal.
        assert!(is_maximal_independent_set(
            &g,
            &[false, true, false, false, true]
        ));
        // {p0} alone leaves p2..p4 undominated.
        assert!(!is_maximal_independent_set(
            &g,
            &[true, false, false, false, false]
        ));
        // The empty set is independent but never maximal on a non-empty graph.
        assert!(!is_maximal_independent_set(&g, &[false; 5]));
    }

    #[test]
    fn matching_checks() {
        let g = generators::ring(6);
        let n = NodeId::new;
        assert!(is_matching(&g, &[(n(0), n(1)), (n(2), n(3))]));
        // Shared endpoint.
        assert!(!is_matching(&g, &[(n(0), n(1)), (n(1), n(2))]));
        // Not an edge.
        assert!(!is_matching(&g, &[(n(0), n(3))]));
        // Out of range.
        assert!(!is_matching(&g, &[(n(0), n(9))]));
        // Empty matching is a matching.
        assert!(is_matching(&g, &[]));
    }

    #[test]
    fn maximal_matching_checks() {
        let g = generators::ring(6);
        let n = NodeId::new;
        assert!(is_maximal_matching(
            &g,
            &[(n(0), n(1)), (n(2), n(3)), (n(4), n(5))]
        ));
        // {0-1, 3-4} leaves no edge with two unmatched endpoints? Edge {2,3}
        // touches 3 (matched); edge {5,0} touches 0 (matched); edge {1,2}
        // touches 1; edge {4,5} touches 4. So it is maximal too.
        assert!(is_maximal_matching(&g, &[(n(0), n(1)), (n(3), n(4))]));
        // {0-1} alone leaves edge {3,4} uncovered.
        assert!(!is_maximal_matching(&g, &[(n(0), n(1))]));
        // The empty matching is not maximal on a non-empty graph.
        assert!(!is_maximal_matching(&g, &[]));
    }

    #[test]
    fn matching_bounds_match_figure11() {
        let g = generators::figure11_example();
        assert_eq!(maximal_matching_size_lower_bound(&g), 2);
        assert_eq!(matching_stability_bound(&g), 4);
    }

    #[test]
    fn matching_bound_on_ring() {
        let g = generators::ring(6);
        // m = 6, delta = 2 => ceil(6/3) = 2 edges, 4 processes.
        assert_eq!(maximal_matching_size_lower_bound(&g), 2);
        assert_eq!(matching_stability_bound(&g), 4);
    }

    #[test]
    fn matching_bound_degenerate_cases() {
        let g = crate::Graph::from_edges(3, &[]).unwrap();
        assert_eq!(maximal_matching_size_lower_bound(&g), 0);
        assert_eq!(matching_stability_bound(&g), 0);
    }
}
