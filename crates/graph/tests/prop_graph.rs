//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

use selfstab_graph::{
    coloring, generators, longest_path, properties, verify, Graph, GraphBuilder, GraphError, NodeId,
};

/// Strategy producing a connected random graph together with the seed used.
fn connected_graph() -> impl Strategy<Value = selfstab_graph::Graph> {
    (3usize..40, 0u64..1_000, 1u32..30).prop_map(|(n, seed, dense)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = f64::from(dense) / 100.0 + 2.0 / n as f64;
        generators::gnp_connected(n, p.min(1.0), &mut rng).expect("valid parameters")
    })
}

/// Reference adjacency model for the CSR layout: per-process neighbor rows
/// in edge-insertion order, exactly the `Vec<Vec<NodeId>>` representation
/// the seed `Graph` used before the CSR migration.
fn reference_adjacency(n: usize, edges: &[(usize, usize)]) -> Vec<Vec<NodeId>> {
    let mut rows: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for &(a, b) in edges {
        rows[a].push(NodeId::new(b));
        rows[b].push(NodeId::new(a));
    }
    rows
}

/// The builder's validation as it was before construction became linear,
/// copied verbatim: capacity checks, then one sequential scan that keeps
/// every edge seen in a `BTreeSet` and stops at the first invalid edge.
/// Returns the edge count of a valid list.
fn reference_validation(n: usize, edges: &[(usize, usize)]) -> Result<usize, GraphError> {
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
    if edges.len() > max_edges {
        return Err(GraphError::TooManyEdges {
            edge_count: edges.len(),
            max_edges,
        });
    }
    let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
    // First pass: validate every edge. Out-of-range endpoints are
    // clamped into the identifier range for error reporting only —
    // `NodeId::new` itself would panic on an endpoint beyond
    // `NodeId::MAX_INDEX`.
    for &(a, b) in edges {
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
    Ok(seen.len())
}

/// Builds `edges` and checks the whole result against the reference: the
/// same error, or a graph whose rows match the reference adjacency.
fn assert_build_matches_reference(n: usize, edges: &[(usize, usize)]) {
    match (
        GraphBuilder::new(n).edges(edges.to_vec()).build(),
        reference_validation(n, edges),
    ) {
        (Ok(g), Ok(edge_count)) => {
            assert_csr_matches_reference(&g, &reference_adjacency(n, edges), edge_count);
        }
        (built, reference) => assert_eq!(built.err(), reference.err(), "edges {edges:?}"),
    }
}

/// Checks that a CSR [`Graph`] agrees with the reference `Vec<Vec<NodeId>>`
/// adjacency on degrees, neighbor iteration order, port arithmetic and the
/// edge count.
fn assert_csr_matches_reference(g: &Graph, reference: &[Vec<NodeId>], edge_count: usize) {
    assert_eq!(g.node_count(), reference.len());
    assert_eq!(g.edge_count(), edge_count);
    let mut max_degree = 0;
    for p in g.nodes() {
        let row = &reference[p.index()];
        max_degree = max_degree.max(row.len());
        assert_eq!(g.degree(p), row.len(), "degree of {p}");
        assert_eq!(
            g.neighbor_slice(p),
            &row[..],
            "CSR row of {p} must match the reference row in iteration order"
        );
        let iterated: Vec<NodeId> = g.neighbors(p).collect();
        assert_eq!(iterated, row[..].to_vec(), "iterator order of {p}");
        for (i, &q) in row.iter().enumerate() {
            assert_eq!(g.neighbor(p, selfstab_graph::Port::new(i)), q);
        }
    }
    assert_eq!(g.max_degree(), max_degree);
    let rows: Vec<&[NodeId]> = g.adjacency().collect();
    assert_eq!(rows.len(), reference.len());
    for (row, reference_row) in rows.iter().zip(reference) {
        assert_eq!(*row, &reference_row[..]);
    }
    // Handshake lemma against the flat layout.
    let degree_sum: usize = g.nodes().map(|p| g.degree(p)).sum();
    assert_eq!(degree_sum, 2 * g.edge_count());
}

/// The CSR layout must agree with the reference adjacency on every
/// deterministic generator family (the insertion orders differ per family,
/// so this exercises the builder's CSR scatter broadly).
#[test]
fn csr_layout_matches_reference_adjacency_across_generators() {
    let mut rng = StdRng::seed_from_u64(0xC5);
    let graphs: Vec<Graph> = vec![
        generators::path(17),
        generators::ring(12),
        generators::complete(9),
        generators::star(11),
        generators::wheel(8),
        generators::complete_bipartite(4, 6),
        generators::grid(5, 7),
        generators::torus(4, 5),
        generators::balanced_tree(3, 3),
        generators::caterpillar(6, 2),
        generators::lollipop(5, 4),
        generators::hypercube(4),
        generators::barbell(4, 3),
        generators::petersen(),
        generators::random_tree(23, &mut rng),
        generators::barabasi_albert(40, 3, &mut rng).unwrap(),
        generators::gnp_connected(30, 0.15, &mut rng).unwrap(),
        generators::gnm_connected(25, 40, &mut rng).unwrap(),
        generators::random_regular(20, 4, &mut rng).unwrap(),
    ];
    for g in &graphs {
        // Recover the insertion-order edge list from the graph itself: for
        // each process the ports enumerate its incident edges in insertion
        // order, and `edges()` yields the canonical (min, max) pairs; the
        // reference model must therefore be rebuilt from a replayed
        // insertion. Replay through the public builder API with the same
        // edge sequence the generator used is not observable, so instead
        // check self-consistency: rebuilding via `from_edges` with the
        // canonical edge enumeration must reproduce a graph whose rows
        // match ITS reference rows.
        let edges: Vec<(usize, usize)> = g.edges().map(|(a, b)| (a.index(), b.index())).collect();
        let rebuilt = Graph::from_edges(g.node_count(), &edges).unwrap();
        let reference = reference_adjacency(g.node_count(), &edges);
        assert_csr_matches_reference(&rebuilt, &reference, g.edge_count());
        // The rebuilt graph has the same edge set as the original (port
        // orders may differ: insertion order is the canonical enumeration).
        for p in g.nodes() {
            let mut a: Vec<NodeId> = g.neighbors(p).collect();
            let mut b: Vec<NodeId> = rebuilt.neighbors(p).collect();
            a.sort();
            b.sort();
            assert_eq!(a, b, "edge set of {p} differs after rebuild");
        }
    }
}

/// The error names the first invalid edge in insertion order, whichever
/// check it fails, exactly as the reference scan does.
#[test]
fn build_reports_the_first_invalid_edge_in_insertion_order() {
    let far = NodeId::MAX_INDEX + 7;
    let cases: Vec<(Vec<(usize, usize)>, GraphError)> = vec![
        // An earlier duplicate wins over a later out-of-range edge ...
        (
            vec![(0, 1), (1, 2), (1, 0), (0, 5)],
            GraphError::DuplicateEdge {
                a: NodeId::new(1),
                b: NodeId::new(0),
            },
        ),
        // ... and an earlier out-of-range edge over a later duplicate.
        (
            vec![(0, 1), (0, 5), (1, 2), (0, 1)],
            GraphError::NodeOutOfRange {
                node: NodeId::new(5),
                node_count: 3,
            },
        ),
        // An endpoint beyond the identifier space is reported clamped.
        (
            vec![(0, 1), (far, 2), (2, 1), (1, 2)],
            GraphError::NodeOutOfRange {
                node: NodeId::new(NodeId::MAX_INDEX),
                node_count: 3,
            },
        ),
        (
            vec![(0, 2), (2, 1), (1, 2), (1, 1)],
            GraphError::DuplicateEdge {
                a: NodeId::new(1),
                b: NodeId::new(2),
            },
        ),
        // A list whose only fault is a duplicate names its later copy.
        (
            vec![(2, 1), (0, 2), (1, 2), (0, 1), (2, 0)],
            GraphError::DuplicateEdge {
                a: NodeId::new(1),
                b: NodeId::new(2),
            },
        ),
        (
            vec![(0, 2), (2, 2), (2, 0)],
            GraphError::SelfLoop {
                node: NodeId::new(2),
            },
        ),
    ];
    for (edges, expected) in cases {
        assert_eq!(reference_validation(3, &edges), Err(expected.clone()));
        assert_eq!(Graph::from_edges(3, &edges), Err(expected));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary random edge lists: the CSR graph built by the builder
    /// must agree with the reference `Vec<Vec<NodeId>>` adjacency built
    /// row-by-row from the same insertion sequence — including the port
    /// numbering, which follows insertion order in both models. Each bit
    /// of `faults` inserts one invalid edge at a random position: a
    /// duplicate in either orientation, a self-loop, an endpoint just out
    /// of range, and one beyond the `u32` identifier space. The build's
    /// result, error or graph, must equal the reference validation's.
    #[test]
    fn csr_builder_matches_reference_adjacency_on_random_edge_lists(
        n in 1usize..40,
        seed in 0u64..10_000,
        density in 1u32..40,
        faults in 0u32..16,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Draw a random simple edge list in random insertion order.
        let mut all: Vec<(usize, usize)> = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                all.push((a, b));
            }
        }
        use rand::seq::SliceRandom;
        all.shuffle(&mut rng);
        let keep = (all.len() * density as usize) / 100;
        let mut edges: Vec<(usize, usize)> = all.into_iter().take(keep).collect();
        // Randomize endpoint orientation: insertion order of (a, b) vs
        // (b, a) affects port numbering and must match the reference.
        for edge in &mut edges {
            if rng.gen_bool(0.5) {
                *edge = (edge.1, edge.0);
            }
        }
        if faults & 1 != 0 && !edges.is_empty() {
            let (a, b) = edges[rng.gen_range(0..edges.len())];
            let copy = if rng.gen_bool(0.5) { (a, b) } else { (b, a) };
            edges.insert(rng.gen_range(0..edges.len() + 1), copy);
        }
        if faults & 2 != 0 {
            let p = rng.gen_range(0..n);
            edges.insert(rng.gen_range(0..edges.len() + 1), (p, p));
        }
        for (bit, first_out) in [(4, n), (8, NodeId::MAX_INDEX + 1)] {
            if faults & bit != 0 {
                let out = first_out + rng.gen_range(0..3usize);
                let p = rng.gen_range(0..n);
                let edge = if rng.gen_bool(0.5) { (p, out) } else { (out, p) };
                edges.insert(rng.gen_range(0..edges.len() + 1), edge);
            }
        }
        assert_build_matches_reference(n, &edges);
    }

    #[test]
    fn generated_graphs_are_connected_simple_graphs(g in connected_graph()) {
        prop_assert!(properties::is_connected(&g));
        // Port <-> neighbor consistency on every process.
        for p in g.nodes() {
            let mut seen = std::collections::BTreeSet::new();
            for (port, q) in g.ports(p) {
                prop_assert_eq!(g.neighbor(p, port), q);
                prop_assert_eq!(g.port_to(p, q), Some(port));
                prop_assert_ne!(p, q, "no self-loop");
                prop_assert!(seen.insert(q), "no duplicate edge");
            }
        }
        // Handshake lemma.
        let degree_sum: usize = g.nodes().map(|p| g.degree(p)).sum();
        prop_assert_eq!(degree_sum, 2 * g.edge_count());
    }

    #[test]
    fn greedy_and_dsatur_colorings_are_proper(g in connected_graph()) {
        let greedy = coloring::greedy(&g);
        let dsatur = coloring::dsatur(&g);
        prop_assert!(verify::is_proper_coloring(&g, greedy.colors()));
        prop_assert!(verify::is_proper_coloring(&g, dsatur.colors()));
        prop_assert!(greedy.color_count() <= g.max_degree() + 1);
        prop_assert!(dsatur.color_count() <= g.max_degree() + 1);
    }

    #[test]
    fn longest_path_heuristic_is_a_lower_bound(
        n in 3usize..14,
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::gnp_connected(n, 0.3, &mut rng).expect("valid parameters");
        let exact = longest_path::longest_path_exact(&g);
        let lower = longest_path::longest_path_lower_bound(&g);
        prop_assert!(lower <= exact);
        prop_assert!(exact < n);
    }

    #[test]
    fn shuffling_ports_preserves_structure(g in connected_graph(), seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shuffled = g.shuffle_ports(&mut rng);
        prop_assert_eq!(shuffled.node_count(), g.node_count());
        prop_assert_eq!(shuffled.edge_count(), g.edge_count());
        for p in g.nodes() {
            let mut a: Vec<NodeId> = g.neighbors(p).collect();
            let mut b: Vec<NodeId> = shuffled.neighbors(p).collect();
            a.sort();
            b.sort();
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(
            properties::degree_sequence(&shuffled),
            properties::degree_sequence(&g)
        );
    }

    #[test]
    fn matching_lower_bound_is_attainable(g in connected_graph()) {
        // Build any maximal matching greedily and check it respects the
        // Biedl et al. bound used by Theorem 8.
        let mut matched = vec![false; g.node_count()];
        let mut edges = Vec::new();
        for (p, q) in g.edges() {
            if !matched[p.index()] && !matched[q.index()] {
                matched[p.index()] = true;
                matched[q.index()] = true;
                edges.push((p, q));
            }
        }
        prop_assert!(verify::is_maximal_matching(&g, &edges));
        prop_assert!(edges.len() >= verify::maximal_matching_size_lower_bound(&g));
    }
}
