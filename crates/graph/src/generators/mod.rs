//! Generators for the graph families used throughout the experiments.
//!
//! Two groups are provided:
//!
//! * classical families (paths, rings, cliques, stars, grids, trees, random
//!   graphs, …) used as workloads in experiments E1–E6 and E9,
//! * the exact topologies drawn in the paper (Theorem 1 and Theorem 2
//!   constructions, Figure 9 and Figure 11 lower-bound examples), re-exported
//!   from [`paper`].
//!
//! All deterministic generators panic only on programming errors (they accept
//! every size for which the family is defined and return an error otherwise);
//! randomized generators take an explicit `&mut impl Rng` so that experiments
//! are reproducible from a seed.

pub mod paper;

pub use paper::{
    figure11_example, figure11_tight_matching, figure9_path, theorem1_chain, theorem1_general,
    theorem1_spliced_chain, theorem2_general, theorem2_network, RootedDagNetwork,
};

use rand::seq::SliceRandom;
use rand::Rng;

use crate::builder::{GraphBuilder, MAX_EDGES};
use crate::error::GraphError;
use crate::graph::Graph;
use crate::node::NodeId;

/// Path (chain) graph `p0 - p1 - … - p(n-1)`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn path(n: usize) -> Graph {
    assert!(n > 0, "a path needs at least one process");
    GraphBuilder::new(n)
        .edges((0..n.saturating_sub(1)).map(|i| (i, i + 1)))
        .build()
        .expect("path construction is always valid")
}

/// Cycle (ring) graph over `n >= 3` processes.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn ring(n: usize) -> Graph {
    assert!(n >= 3, "a ring needs at least three processes");
    GraphBuilder::new(n)
        .edges((0..n).map(|i| (i, (i + 1) % n)))
        .build()
        .expect("ring construction is always valid")
}

/// Complete graph `K_n`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn complete(n: usize) -> Graph {
    assert!(n > 0, "a complete graph needs at least one process");
    let mut builder = GraphBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            builder = builder.edge(i, j);
        }
    }
    builder
        .build()
        .expect("complete graph construction is always valid")
}

/// Star graph: process 0 is the center, processes `1..n` are leaves.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn star(n: usize) -> Graph {
    assert!(n >= 2, "a star needs at least two processes");
    GraphBuilder::new(n)
        .edges((1..n).map(|i| (0, i)))
        .build()
        .expect("star construction is always valid")
}

/// Wheel graph: a ring over `1..n` plus a hub (process 0) connected to every
/// ring process.
///
/// # Panics
///
/// Panics if `n < 4`.
pub fn wheel(n: usize) -> Graph {
    assert!(n >= 4, "a wheel needs at least four processes");
    let rim = n - 1;
    let mut builder = GraphBuilder::new(n);
    for i in 0..rim {
        builder = builder.edge(1 + i, 1 + (i + 1) % rim);
        builder = builder.edge(0, 1 + i);
    }
    builder.build().expect("wheel construction is always valid")
}

/// Complete bipartite graph `K_{a,b}` (processes `0..a` on one side,
/// `a..a+b` on the other).
///
/// # Panics
///
/// Panics if `a == 0` or `b == 0`.
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    assert!(
        a > 0 && b > 0,
        "both sides of a complete bipartite graph must be non-empty"
    );
    let mut builder = GraphBuilder::new(a + b);
    for i in 0..a {
        for j in 0..b {
            builder = builder.edge(i, a + j);
        }
    }
    builder
        .build()
        .expect("complete bipartite construction is always valid")
}

/// `rows × cols` grid graph.
///
/// # Panics
///
/// Panics if `rows == 0` or `cols == 0`.
pub fn grid(rows: usize, cols: usize) -> Graph {
    assert!(
        rows > 0 && cols > 0,
        "a grid needs at least one row and one column"
    );
    let id = |r: usize, c: usize| r * cols + c;
    let mut builder = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                builder = builder.edge(id(r, c), id(r, c + 1));
            }
            if r + 1 < rows {
                builder = builder.edge(id(r, c), id(r + 1, c));
            }
        }
    }
    builder.build().expect("grid construction is always valid")
}

/// `rows × cols` torus (grid with wrap-around edges). Requires
/// `rows >= 3 && cols >= 3` so the graph stays simple.
///
/// # Panics
///
/// Panics if `rows < 3` or `cols < 3`.
pub fn torus(rows: usize, cols: usize) -> Graph {
    assert!(
        rows >= 3 && cols >= 3,
        "a torus needs at least 3 rows and 3 columns"
    );
    let id = |r: usize, c: usize| r * cols + c;
    let mut builder = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            builder = builder.edge(id(r, c), id(r, (c + 1) % cols));
            builder = builder.edge(id(r, c), id((r + 1) % rows, c));
        }
    }
    builder.build().expect("torus construction is always valid")
}

/// Balanced `arity`-ary tree with `depth` levels below the root.
///
/// A tree of depth 0 is a single process.
///
/// # Panics
///
/// Panics if `arity == 0`.
pub fn balanced_tree(arity: usize, depth: usize) -> Graph {
    assert!(arity > 0, "tree arity must be positive");
    // Number of nodes: 1 + arity + arity^2 + … + arity^depth.
    let mut n = 1usize;
    let mut level = 1usize;
    for _ in 0..depth {
        level *= arity;
        n += level;
    }
    // Children of node i are arity*i + 1 … arity*i + arity (heap layout),
    // so child c hangs below (c - 1) / arity, and walking the children in
    // order adds the edges parent by parent.
    GraphBuilder::new(n)
        .edges((1..n).map(|child| ((child - 1) / arity, child)))
        .build()
        .expect("balanced tree construction is always valid")
}

/// Caterpillar: a spine path of `spine` processes, each with `legs` pendant
/// leaves attached.
///
/// The Figure 9 lower-bound family for the MIS protocol is the special case
/// `legs = 0` (a bare path); richer caterpillars exercise the same bound with
/// larger degrees.
///
/// # Panics
///
/// Panics if `spine == 0`.
pub fn caterpillar(spine: usize, legs: usize) -> Graph {
    assert!(spine > 0, "a caterpillar needs a non-empty spine");
    let n = spine + spine * legs;
    let mut builder = GraphBuilder::new(n);
    for i in 0..spine.saturating_sub(1) {
        builder = builder.edge(i, i + 1);
    }
    let mut next = spine;
    for i in 0..spine {
        for _ in 0..legs {
            builder = builder.edge(i, next);
            next += 1;
        }
    }
    builder
        .build()
        .expect("caterpillar construction is always valid")
}

/// Lollipop graph: a clique of `clique` processes attached to a path of
/// `tail` processes.
///
/// # Panics
///
/// Panics if `clique < 3` or `tail == 0`.
pub fn lollipop(clique: usize, tail: usize) -> Graph {
    assert!(
        clique >= 3,
        "lollipop clique must have at least 3 processes"
    );
    assert!(tail > 0, "lollipop tail must be non-empty");
    let n = clique + tail;
    let mut builder = GraphBuilder::new(n);
    for i in 0..clique {
        for j in (i + 1)..clique {
            builder = builder.edge(i, j);
        }
    }
    builder = builder.edge(clique - 1, clique);
    for i in clique..(n - 1) {
        builder = builder.edge(i, i + 1);
    }
    builder
        .build()
        .expect("lollipop construction is always valid")
}

/// `d`-dimensional hypercube: `2^d` processes, each of degree `d`; two
/// processes are adjacent when their indices differ in exactly one bit.
///
/// # Panics
///
/// Panics if `dimension == 0` or `dimension > 20`.
pub fn hypercube(dimension: usize) -> Graph {
    assert!(dimension > 0, "a hypercube needs at least one dimension");
    assert!(
        dimension <= 20,
        "hypercubes above 2^20 processes are not supported"
    );
    let n = 1usize << dimension;
    let mut builder = GraphBuilder::new(n);
    for v in 0..n {
        for bit in 0..dimension {
            let u = v ^ (1 << bit);
            if v < u {
                builder = builder.edge(v, u);
            }
        }
    }
    builder
        .build()
        .expect("hypercube construction is always valid")
}

/// Barbell graph: two cliques of `clique` processes joined by a path of
/// `bridge` processes. A classic worst case for information propagation.
///
/// # Panics
///
/// Panics if `clique < 3`.
pub fn barbell(clique: usize, bridge: usize) -> Graph {
    assert!(clique >= 3, "barbell cliques need at least 3 processes");
    let n = 2 * clique + bridge;
    let mut builder = GraphBuilder::new(n);
    for offset in [0, clique + bridge] {
        for i in 0..clique {
            for j in (i + 1)..clique {
                builder = builder.edge(offset + i, offset + j);
            }
        }
    }
    // The bridge path connects the last process of the first clique to the
    // first process of the second clique.
    let mut previous = clique - 1;
    for b in 0..bridge {
        builder = builder.edge(previous, clique + b);
        previous = clique + b;
    }
    builder = builder.edge(previous, clique + bridge);
    builder
        .build()
        .expect("barbell construction is always valid")
}

/// The Petersen graph: 10 processes, 3-regular, girth 5 — a standard stress
/// topology for symmetry-sensitive distributed algorithms.
pub fn petersen() -> Graph {
    Graph::from_edges(
        10,
        &[
            // outer 5-cycle
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 0),
            // spokes
            (0, 5),
            (1, 6),
            (2, 7),
            (3, 8),
            (4, 9),
            // inner pentagram
            (5, 7),
            (7, 9),
            (9, 6),
            (6, 8),
            (8, 5),
        ],
    )
    .expect("petersen construction is always valid")
}

/// Uniform random spanning tree over `n` processes (random Prüfer-like
/// attachment: process `i > 0` attaches to a uniformly random earlier
/// process).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn random_tree<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Graph {
    assert!(n > 0, "a tree needs at least one process");
    let mut builder = GraphBuilder::new(n);
    for i in 1..n {
        let parent = rng.gen_range(0..i);
        builder = builder.edge(parent, i);
    }
    builder
        .build()
        .expect("random tree construction is always valid")
}

/// Barabási–Albert preferential-attachment graph: starting from a small
/// clique of `attach + 1` processes, every further process attaches to
/// `attach` distinct existing processes chosen with probability
/// proportional to their current degree.
///
/// The result is connected by construction and has the heavy-tailed degree
/// distribution typical of scale-free networks — a workload family whose
/// diameter grows like `log n / log log n`, complementing the
/// large-diameter rings/grids/trees in the spanning-tree experiments.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] when `attach == 0` or
/// `n <= attach`, and, before drawing anything, the capacity errors of
/// [`GraphBuilder::build`] ([`GraphError::TooManyNodes`],
/// [`GraphError::TooManyEdges`]) for a graph too large to hold.
pub fn barabasi_albert<R: Rng + ?Sized>(
    n: usize,
    attach: usize,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    if attach == 0 || n <= attach {
        return Err(GraphError::InvalidParameters {
            reason: format!("need 0 < attach < n, got n = {n}, attach = {attach}"),
        });
    }
    if n > NodeId::MAX_INDEX + 1 {
        return Err(GraphError::TooManyNodes {
            node_count: n,
            max_nodes: NodeId::MAX_INDEX + 1,
        });
    }
    let seed_size = attach + 1;
    // The seed clique, then `attach` edges for every later process. With
    // attach < n <= 2^32 the count stays below 2^63.
    let edge_count = seed_size * attach / 2 + (n - seed_size) * attach;
    if edge_count > MAX_EDGES {
        return Err(GraphError::TooManyEdges {
            edge_count,
            max_edges: MAX_EDGES,
        });
    }
    let mut edges: Vec<(usize, usize)> = Vec::with_capacity(edge_count);
    // `endpoints` repeats every process once per incident edge, so sampling
    // it uniformly is degree-proportional sampling.
    let mut endpoints: Vec<NodeId> = Vec::with_capacity(2 * edge_count);
    for i in 0..seed_size {
        for j in (i + 1)..seed_size {
            edges.push((i, j));
            endpoints.push(NodeId::new(i));
            endpoints.push(NodeId::new(j));
        }
    }
    let mut targets: Vec<NodeId> = Vec::with_capacity(attach);
    for v in seed_size..n {
        targets.clear();
        while targets.len() < attach {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            if !targets.contains(&t) {
                targets.push(t);
            }
        }
        for &t in &targets {
            edges.push((v, t.index()));
            endpoints.push(NodeId::new(v));
            endpoints.push(t);
        }
    }
    // Freed before the CSR build, which would otherwise hold it too.
    drop(endpoints);
    GraphBuilder::new(n).edges(edges).build()
}

/// Erdős–Rényi `G(n, p)` conditioned on connectivity: every possible edge is
/// included independently with probability `prob`, then any disconnected
/// result is patched by linking each extra component to the first one with a
/// single random edge.
///
/// The patching keeps the experiment workloads connected (the paper's model
/// assumes connected topologies) while perturbing the degree distribution
/// only marginally for the probabilities used in the experiments.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] when `n == 0` or `prob` is not
/// within `[0, 1]`.
pub fn gnp_connected<R: Rng + ?Sized>(
    n: usize,
    prob: f64,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    if n == 0 {
        return Err(GraphError::InvalidParameters {
            reason: "n must be positive".into(),
        });
    }
    if !(0.0..=1.0).contains(&prob) {
        return Err(GraphError::InvalidParameters {
            reason: format!("edge probability {prob} is not in [0, 1]"),
        });
    }
    let mut edges: Vec<(usize, usize)> = Vec::new();
    // At `prob == 0` no pair is drawn and `gen_bool` consumes no
    // randomness, so the n(n-1)/2 pairs need not be visited.
    if prob > 0.0 {
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.gen_bool(prob) {
                    edges.push((i, j));
                }
            }
        }
    }
    let graph = GraphBuilder::new(n).edges(edges.iter().copied()).build()?;
    let comps = crate::properties::connected_components(&graph);
    if comps.len() <= 1 {
        return Ok(graph);
    }
    // Patch connectivity: link a random representative of every other
    // component to a random process of the first component.
    let mut extra: Vec<(usize, usize)> = Vec::new();
    let first = &comps[0];
    for comp in comps.iter().skip(1) {
        let a = *first.choose(rng).expect("components are non-empty");
        let b = *comp.choose(rng).expect("components are non-empty");
        extra.push((a.index(), b.index()));
    }
    GraphBuilder::new(n)
        .edges(edges.into_iter().chain(extra))
        .build()
}

/// Random graph with exactly `m` edges chosen uniformly among all simple
/// graphs with `n` processes and `m` edges, patched to be connected the same
/// way as [`gnp_connected`].
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] when `m` exceeds `n(n-1)/2` or
/// `n == 0`.
pub fn gnm_connected<R: Rng + ?Sized>(
    n: usize,
    m: usize,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    if n == 0 {
        return Err(GraphError::InvalidParameters {
            reason: "n must be positive".into(),
        });
    }
    let max_m = n * (n - 1) / 2;
    if m > max_m {
        return Err(GraphError::InvalidParameters {
            reason: format!("m = {m} exceeds the maximum {max_m} for n = {n}"),
        });
    }
    let mut all: Vec<(usize, usize)> = Vec::with_capacity(max_m);
    for i in 0..n {
        for j in (i + 1)..n {
            all.push((i, j));
        }
    }
    all.shuffle(rng);
    let chosen: Vec<(usize, usize)> = all.into_iter().take(m).collect();
    let graph = GraphBuilder::new(n).edges(chosen.iter().copied()).build()?;
    let comps = crate::properties::connected_components(&graph);
    if comps.len() <= 1 {
        return Ok(graph);
    }
    let mut extra: Vec<(usize, usize)> = Vec::new();
    let first = &comps[0];
    for comp in comps.iter().skip(1) {
        let a = *first.choose(rng).expect("components are non-empty");
        let b = *comp.choose(rng).expect("components are non-empty");
        extra.push((a.index(), b.index()));
    }
    GraphBuilder::new(n)
        .edges(chosen.into_iter().chain(extra))
        .build()
}

/// Approximately `d`-regular random graph built by pairing half-edges
/// (configuration model) and dropping self-loops/duplicate edges, then
/// patched to be connected.
///
/// The result has maximum degree at most `d`; a few processes may end up
/// with smaller degree because collisions are dropped rather than retried.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] when `n == 0`, `d == 0`,
/// `d >= n`, or `n * d` is odd.
pub fn random_regular<R: Rng + ?Sized>(
    n: usize,
    d: usize,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    if n == 0 || d == 0 || d >= n {
        return Err(GraphError::InvalidParameters {
            reason: format!("need 0 < d < n, got n = {n}, d = {d}"),
        });
    }
    if !(n * d).is_multiple_of(2) {
        return Err(GraphError::InvalidParameters {
            reason: format!("n * d must be even, got n = {n}, d = {d}"),
        });
    }
    let mut stubs: Vec<usize> = (0..n).flat_map(|i| std::iter::repeat_n(i, d)).collect();
    stubs.shuffle(rng);
    let mut seen = std::collections::BTreeSet::new();
    let mut edges = Vec::new();
    for pair in stubs.chunks(2) {
        let (a, b) = (pair[0], pair[1]);
        if a == b {
            continue;
        }
        let key = (a.min(b), a.max(b));
        if seen.insert(key) {
            edges.push((a, b));
        }
    }
    let graph = GraphBuilder::new(n).edges(edges.iter().copied()).build()?;
    let comps = crate::properties::connected_components(&graph);
    if comps.len() <= 1 {
        return Ok(graph);
    }
    let mut extra = Vec::new();
    let first = &comps[0];
    for comp in comps.iter().skip(1) {
        let a = *first.choose(rng).expect("components are non-empty");
        let b = *comp.choose(rng).expect("components are non-empty");
        extra.push((a.index(), b.index()));
    }
    GraphBuilder::new(n)
        .edges(edges.into_iter().chain(extra))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn path_sizes() {
        let g = path(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(path(1).edge_count(), 0);
    }

    #[test]
    fn ring_is_two_regular() {
        let g = ring(6);
        assert_eq!(g.edge_count(), 6);
        assert!(g.nodes().all(|p| g.degree(p) == 2));
    }

    #[test]
    fn complete_graph_edge_count() {
        let g = complete(6);
        assert_eq!(g.edge_count(), 15);
        assert_eq!(g.max_degree(), 5);
    }

    #[test]
    fn star_and_wheel_shapes() {
        let s = star(7);
        assert_eq!(s.degree(crate::NodeId::new(0)), 6);
        assert!(s.nodes().skip(1).all(|p| s.degree(p) == 1));

        let w = wheel(7);
        assert_eq!(w.degree(crate::NodeId::new(0)), 6);
        assert!(w.nodes().skip(1).all(|p| w.degree(p) == 3));
    }

    #[test]
    fn complete_bipartite_shape() {
        let g = complete_bipartite(3, 4);
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.edge_count(), 12);
        assert!(properties::is_bipartite(&g));
    }

    #[test]
    fn grid_and_torus_shapes() {
        let g = grid(3, 4);
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.edge_count(), 3 * 3 + 2 * 4);
        assert_eq!(g.max_degree(), 4);

        let t = torus(3, 4);
        assert_eq!(t.edge_count(), 2 * 12);
        assert!(t.nodes().all(|p| t.degree(p) == 4));
    }

    #[test]
    fn balanced_tree_sizes() {
        let g = balanced_tree(2, 3);
        assert_eq!(g.node_count(), 15);
        assert_eq!(g.edge_count(), 14);
        assert!(properties::is_connected(&g));
        assert_eq!(balanced_tree(3, 0).node_count(), 1);
    }

    #[test]
    fn caterpillar_sizes() {
        let g = caterpillar(5, 2);
        assert_eq!(g.node_count(), 15);
        assert_eq!(g.edge_count(), 4 + 10);
        assert!(properties::is_connected(&g));
        // legs = 0 degenerates to a path
        let p = caterpillar(6, 0);
        assert_eq!(p.edge_count(), 5);
        assert_eq!(p.max_degree(), 2);
    }

    #[test]
    fn lollipop_shape() {
        let g = lollipop(4, 3);
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.edge_count(), 6 + 3);
        assert!(properties::is_connected(&g));
    }

    #[test]
    fn hypercube_is_d_regular() {
        for d in 1..=5 {
            let g = hypercube(d);
            assert_eq!(g.node_count(), 1 << d);
            assert_eq!(g.edge_count(), d * (1 << d) / 2);
            assert!(g.nodes().all(|p| g.degree(p) == d));
            assert!(properties::is_connected(&g));
            assert!(properties::is_bipartite(&g));
        }
    }

    #[test]
    fn barbell_shape() {
        let g = barbell(4, 2);
        assert_eq!(g.node_count(), 10);
        // 2 cliques of 6 edges each + 3 bridge edges.
        assert_eq!(g.edge_count(), 6 + 6 + 3);
        assert!(properties::is_connected(&g));
        assert_eq!(g.max_degree(), 4);
        // No bridge (bridge = 0) directly joins the two cliques.
        let direct = barbell(3, 0);
        assert_eq!(direct.node_count(), 6);
        assert_eq!(direct.edge_count(), 3 + 3 + 1);
        assert!(properties::is_connected(&direct));
    }

    #[test]
    fn petersen_is_three_regular_with_15_edges() {
        let g = petersen();
        assert_eq!(g.node_count(), 10);
        assert_eq!(g.edge_count(), 15);
        assert!(g.nodes().all(|p| g.degree(p) == 3));
        assert!(properties::is_connected(&g));
        assert!(!properties::is_bipartite(&g));
        // The Petersen graph is triangle-free.
        assert_eq!(properties::triangle_count(&g), 0);
    }

    #[test]
    fn random_tree_is_a_tree() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [1usize, 2, 10, 57] {
            let g = random_tree(n, &mut rng);
            assert_eq!(g.node_count(), n);
            assert_eq!(g.edge_count(), n - 1);
            assert!(properties::is_connected(&g));
        }
    }

    #[test]
    fn barabasi_albert_is_connected_and_heavy_tailed() {
        let mut rng = StdRng::seed_from_u64(21);
        let g = barabasi_albert(60, 2, &mut rng).unwrap();
        assert_eq!(g.node_count(), 60);
        // Seed clique of 3 edges plus 2 edges per later process.
        assert_eq!(g.edge_count(), 3 + 2 * (60 - 3));
        assert!(properties::is_connected(&g));
        // Preferential attachment concentrates degree on early processes.
        assert!(g.max_degree() > 2 * 2);
        assert!(g.nodes().all(|p| g.degree(p) >= 2));
        assert!(barabasi_albert(5, 0, &mut rng).is_err());
        assert!(barabasi_albert(3, 3, &mut rng).is_err());
    }

    #[test]
    fn barabasi_albert_is_reproducible_from_the_seed() {
        let g1 = barabasi_albert(40, 3, &mut StdRng::seed_from_u64(8)).unwrap();
        let g2 = barabasi_albert(40, 3, &mut StdRng::seed_from_u64(8)).unwrap();
        assert_eq!(g1, g2);
    }

    #[test]
    fn gnp_is_connected_and_reproducible() {
        let mut rng1 = StdRng::seed_from_u64(3);
        let mut rng2 = StdRng::seed_from_u64(3);
        let g1 = gnp_connected(40, 0.08, &mut rng1).unwrap();
        let g2 = gnp_connected(40, 0.08, &mut rng2).unwrap();
        assert_eq!(g1, g2);
        assert!(properties::is_connected(&g1));
    }

    #[test]
    fn gnp_rejects_bad_probability() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(gnp_connected(10, 1.5, &mut rng).is_err());
        assert!(gnp_connected(0, 0.5, &mut rng).is_err());
    }

    #[test]
    fn gnm_has_at_least_m_edges_and_is_connected() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = gnm_connected(30, 45, &mut rng).unwrap();
        assert!(g.edge_count() >= 45);
        assert!(properties::is_connected(&g));
        assert!(gnm_connected(5, 100, &mut rng).is_err());
    }

    #[test]
    fn random_regular_bounds_degrees() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = random_regular(24, 4, &mut rng).unwrap();
        assert!(properties::is_connected(&g));
        // Connectivity patching may push a degree slightly above d, but the
        // bulk of processes keep degree <= d + 1.
        assert!(g.nodes().all(|p| g.degree(p) <= 6));
        assert!(random_regular(10, 0, &mut rng).is_err());
        assert!(random_regular(10, 10, &mut rng).is_err());
        assert!(random_regular(5, 3, &mut rng).is_err());
    }
}
