//! Structural graph properties used by the model, the bounds and the
//! experiment harness.

use std::collections::VecDeque;

use crate::graph::Graph;
use crate::node::NodeId;

/// Degree sequence, sorted in non-increasing order.
pub fn degree_sequence(graph: &Graph) -> Vec<usize> {
    let mut degrees: Vec<usize> = graph.nodes().map(|p| graph.degree(p)).collect();
    degrees.sort_unstable_by(|a, b| b.cmp(a));
    degrees
}

/// BFS distances from `source` to every process; `None` marks unreachable
/// processes.
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn bfs_distances(graph: &Graph, source: NodeId) -> Vec<Option<usize>> {
    let n = graph.node_count();
    assert!(source.index() < n, "source {source} out of range");
    let mut dist = vec![None; n];
    dist[source.index()] = Some(0);
    let mut queue = VecDeque::from([source]);
    while let Some(p) = queue.pop_front() {
        let d = dist[p.index()].expect("queued processes have a distance");
        for q in graph.neighbors(p) {
            if dist[q.index()].is_none() {
                dist[q.index()] = Some(d + 1);
                queue.push_back(q);
            }
        }
    }
    dist
}

/// Connected components, each as a sorted list of process identifiers. The
/// components themselves are sorted by their smallest member.
pub fn connected_components(graph: &Graph) -> Vec<Vec<NodeId>> {
    let n = graph.node_count();
    let mut visited = vec![false; n];
    let mut components = Vec::new();
    for start in graph.nodes() {
        if visited[start.index()] {
            continue;
        }
        let mut component = Vec::new();
        let mut queue = VecDeque::from([start]);
        visited[start.index()] = true;
        while let Some(p) = queue.pop_front() {
            component.push(p);
            for q in graph.neighbors(p) {
                if !visited[q.index()] {
                    visited[q.index()] = true;
                    queue.push_back(q);
                }
            }
        }
        component.sort();
        components.push(component);
    }
    components
}

/// Returns `true` when the graph is connected (the empty graph counts as
/// connected).
pub fn is_connected(graph: &Graph) -> bool {
    connected_components(graph).len() <= 1
}

/// Returns `true` when the graph is a tree (connected with `m = n - 1`).
pub fn is_tree(graph: &Graph) -> bool {
    graph.node_count() > 0 && graph.edge_count() == graph.node_count() - 1 && is_connected(graph)
}

/// Eccentricity of `source`: the greatest BFS distance to any reachable
/// process.
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn eccentricity(graph: &Graph, source: NodeId) -> usize {
    bfs_distances(graph, source)
        .into_iter()
        .flatten()
        .max()
        .unwrap_or(0)
}

/// Diameter `D` of the graph: the largest eccentricity over all processes.
///
/// Returns `None` for a disconnected graph (the diameter is unbounded) and
/// `Some(0)` for a single process.
pub fn diameter(graph: &Graph) -> Option<usize> {
    if graph.node_count() == 0 || !is_connected(graph) {
        return None;
    }
    Some(
        graph
            .nodes()
            .map(|p| eccentricity(graph, p))
            .max()
            .unwrap_or(0),
    )
}

/// Returns `true` when the graph is bipartite (2-colorable).
pub fn is_bipartite(graph: &Graph) -> bool {
    let n = graph.node_count();
    let mut side: Vec<Option<bool>> = vec![None; n];
    for start in graph.nodes() {
        if side[start.index()].is_some() {
            continue;
        }
        side[start.index()] = Some(false);
        let mut queue = VecDeque::from([start]);
        while let Some(p) = queue.pop_front() {
            let s = side[p.index()].expect("queued processes have a side");
            for q in graph.neighbors(p) {
                match side[q.index()] {
                    None => {
                        side[q.index()] = Some(!s);
                        queue.push_back(q);
                    }
                    Some(t) if t == s => return false,
                    Some(_) => {}
                }
            }
        }
    }
    true
}

/// Number of triangles (3-cycles) in the graph.
pub fn triangle_count(graph: &Graph) -> usize {
    let mut count = 0;
    for (p, q) in graph.edges() {
        for r in graph.neighbors(p) {
            if r > q && graph.has_edge(q, r) {
                count += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn degrees_of_a_star() {
        let g = generators::star(6);
        assert_eq!(g.max_degree(), 5);
        assert_eq!(degree_sequence(&g), vec![5, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn bfs_distances_on_a_path() {
        let g = generators::path(5);
        let d = bfs_distances(&g, NodeId::new(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
        // Processes unreachable from the source have no distance.
        let split = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let d = bfs_distances(&split, NodeId::new(0));
        assert_eq!(d, vec![Some(0), Some(1), None, None]);
    }

    #[test]
    fn connectivity_and_components() {
        let g = Graph::from_edges(5, &[(0, 1), (2, 3)]).unwrap();
        assert!(!is_connected(&g));
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0], vec![NodeId::new(0), NodeId::new(1)]);
        assert_eq!(comps[1], vec![NodeId::new(2), NodeId::new(3)]);
        assert_eq!(comps[2], vec![NodeId::new(4)]);

        assert!(is_connected(&generators::ring(7)));
    }

    #[test]
    fn tree_detection() {
        assert!(is_tree(&generators::path(6)));
        assert!(is_tree(&generators::star(5)));
        assert!(!is_tree(&generators::ring(5)));
        assert!(!is_tree(&Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap()));
    }

    #[test]
    fn diameter_of_known_graphs() {
        assert_eq!(diameter(&generators::path(6)), Some(5));
        assert_eq!(diameter(&generators::ring(8)), Some(4));
        assert_eq!(diameter(&generators::complete(5)), Some(1));
        assert_eq!(diameter(&generators::path(1)), Some(0));
        assert_eq!(
            diameter(&Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap()),
            None
        );
    }

    #[test]
    fn eccentricity_of_star_center_and_leaf() {
        let g = generators::star(6);
        assert_eq!(eccentricity(&g, NodeId::new(0)), 1);
        assert_eq!(eccentricity(&g, NodeId::new(3)), 2);
    }

    #[test]
    fn bipartite_detection() {
        assert!(is_bipartite(&generators::path(10)));
        assert!(is_bipartite(&generators::ring(8)));
        assert!(!is_bipartite(&generators::ring(7)));
        assert!(!is_bipartite(&generators::complete(4)));
        assert!(is_bipartite(&generators::grid(3, 5)));
    }

    #[test]
    fn triangle_counts_of_known_graphs() {
        assert_eq!(triangle_count(&generators::complete(4)), 4);
        assert_eq!(triangle_count(&generators::complete(5)), 10);
        assert_eq!(triangle_count(&generators::ring(6)), 0);
        assert_eq!(triangle_count(&generators::wheel(5)), 4);
        assert_eq!(triangle_count(&generators::star(7)), 0);
    }
}
