//! Silent self-stabilizing BFS spanning-tree construction for rooted
//! networks (Dolev–Israeli–Moran style, as revisited by Devismes & Johnen).
//!
//! Every process `p` maintains:
//!
//! * a communication variable `dist.p ∈ {0..n}` — its claimed distance to
//!   the root,
//! * an internal variable `parent.p ∈ [0..δ.p)` — the port of its tree
//!   parent.
//!
//! Guarded actions:
//!
//! 1. (root only) `dist.r ≠ 0` → `dist.r ← 0`,
//! 2. (non-root) the **local BFS consistency check** fails — `dist.p ≠
//!    1 + min_q dist.q`, or `parent.p` does not point to a neighbor at
//!    distance `dist.p − 1` → recompute `dist.p ← 1 + min_q dist.q`
//!    (capped at `n`) and re-aim `parent.p` at a minimizing port.
//!
//! Each repair reads the **whole neighborhood**, so the protocol is
//! Δ-efficient — the classical structure whose post-stabilization
//! communication cost the paper's measures are designed to expose (compare
//! [`LeaderElection`](crate::spanning::LeaderElection), which probes one
//! neighbor per step once stabilized).
//!
//! Once silent, the configuration is a genuine BFS tree: distances equal
//! the oracle BFS layers of the rooted graph and every parent points one
//! layer up ([`is_bfs_spanning_tree`](crate::spanning::is_bfs_spanning_tree)).
//! The distance domain is capped at `n`, which bounds `comm_bits` at
//! `log(n+1)` and kills corrupted distance chains: a fake distance wave can
//! only grow until the true wave from the root overtakes it.

use rand::Rng;
use rand::RngCore;
use selfstab_graph::{Graph, NodeId, Port};
use selfstab_runtime::protocol::{bits_for_domain, Protocol};
use selfstab_runtime::view::NeighborView;

/// Full state of a process running [`BfsTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BfsState {
    /// Communication variable `dist.p`: claimed distance to the root.
    pub dist: usize,
    /// Internal variable `parent.p`: port of the tree parent (meaningless
    /// on the root).
    pub parent: Port,
}

/// The silent BFS spanning-tree protocol for rooted networks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfsTree {
    root: NodeId,
    /// Distance domain bound: `dist ∈ {0..cap}`, with `cap = n`.
    cap: usize,
}

impl BfsTree {
    /// Creates the protocol for `graph` rooted at `root`.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not a process of `graph`.
    pub fn new(graph: &Graph, root: NodeId) -> Self {
        graph.check_node(root).expect("root in range");
        BfsTree {
            root,
            cap: graph.node_count(),
        }
    }

    /// The distinguished root process.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The distance-domain bound (`n`).
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Extracts the distance vector from a configuration.
    pub fn distances(config: &[BfsState]) -> Vec<usize> {
        config.iter().map(|s| s.dist).collect()
    }

    /// Extracts the parent ports from a configuration (`None` on the root).
    pub fn parent_ports(&self, config: &[BfsState]) -> Vec<Option<Port>> {
        config
            .iter()
            .enumerate()
            .map(|(i, s)| (NodeId::new(i) != self.root).then_some(s.parent))
            .collect()
    }

    /// Resolves the parent ports into parent processes (`None` on the root
    /// and for out-of-range ports).
    pub fn parents(&self, graph: &Graph, config: &[BfsState]) -> Vec<Option<NodeId>> {
        self.parent_ports(config)
            .into_iter()
            .enumerate()
            .map(|(i, port)| {
                let p = NodeId::new(i);
                port.filter(|port| port.index() < graph.degree(p))
                    .map(|port| graph.neighbor(p, port))
            })
            .collect()
    }

    /// The minimum neighbor distance and whether `state` passes the local
    /// BFS consistency check, evaluated through `view`.
    ///
    /// Returns `(desired_dist, desired_parent, consistent)`; reading through
    /// `view` charges the communication measures when the view tracks.
    #[inline]
    fn check(
        &self,
        graph: &Graph,
        p: NodeId,
        state: &BfsState,
        view: &NeighborView<'_, usize>,
    ) -> (usize, Port, bool) {
        debug_assert_ne!(p, self.root);
        let degree = graph.degree(p);
        let mut min_dist = usize::MAX;
        let mut argmin = Port::new(0);
        for (i, &d) in view.read_all().iter().enumerate() {
            if d < min_dist {
                min_dist = d;
                argmin = Port::new(i);
            }
        }
        let desired = min_dist.saturating_add(1).min(self.cap);
        // Keep the current parent when it already points one layer up;
        // re-aiming only on violation keeps the stabilized tree stable.
        let parent_ok = state.parent.index() < degree
            && *view.read(state.parent) == min_dist
            && state.dist == desired;
        if parent_ok {
            (desired, state.parent, true)
        } else {
            (desired, argmin, false)
        }
    }
}

impl Protocol for BfsTree {
    type State = BfsState;
    type Comm = usize;

    fn name(&self) -> &'static str {
        "bfs-spanning-tree"
    }

    fn arbitrary_state(&self, graph: &Graph, p: NodeId, rng: &mut dyn RngCore) -> BfsState {
        BfsState {
            dist: rng.gen_range(0..self.cap + 1),
            parent: Port::new(rng.gen_range(0..graph.degree(p).max(1))),
        }
    }

    #[inline]
    fn comm(&self, _p: NodeId, state: &BfsState) -> usize {
        state.dist
    }

    #[inline]
    fn activate(
        &self,
        graph: &Graph,
        p: NodeId,
        state: &BfsState,
        view: &NeighborView<'_, usize>,
        _rng: &mut dyn RngCore,
    ) -> Option<BfsState> {
        if p == self.root {
            return (state.dist != 0).then_some(BfsState {
                dist: 0,
                parent: state.parent,
            });
        }
        if graph.degree(p) == 0 {
            return None; // unreachable: nothing to repair against
        }
        let (desired, parent, consistent) = self.check(graph, p, state, view);
        (!consistent).then_some(BfsState {
            dist: desired,
            parent,
        })
    }

    fn comm_bits(&self, _graph: &Graph, _p: NodeId) -> u64 {
        bits_for_domain(self.cap as u64 + 1)
    }

    fn state_bits(&self, graph: &Graph, p: NodeId) -> u64 {
        bits_for_domain(self.cap as u64 + 1) + bits_for_domain(graph.degree(p).max(1) as u64)
    }

    fn is_legitimate(&self, graph: &Graph, config: &[BfsState]) -> bool {
        let dist = BfsTree::distances(config);
        let parents = self.parent_ports(config);
        crate::spanning::is_bfs_spanning_tree(graph, self.root, &dist, &parents)
    }

    // Silence is the default `is_silent_at`, "p's guard does not hold":
    // the protocol is terminal once silent. On connected graphs (the model's
    // standing assumption) it coincides with legitimacy: the guard of every
    // process is the local BFS consistency check, and local consistency
    // everywhere forces `dist` to equal the oracle BFS layering (follow the
    // strictly-decreasing parent chain to the root). On a disconnected
    // graph an unreachable component can quiesce at the cap; such runs
    // report silent without legitimate, which is what the oracle-based
    // predicate should say about a rootless component.
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfstab_graph::{generators, properties};
    use selfstab_runtime::scheduler::{DistributedRandom, Synchronous};
    use selfstab_runtime::{SimOptions, Simulation};

    #[test]
    fn stabilizes_to_the_oracle_layers_on_a_grid() {
        let graph = generators::grid(4, 5);
        let protocol = BfsTree::new(&graph, NodeId::new(7));
        let mut sim = Simulation::new(
            &graph,
            protocol,
            DistributedRandom::new(0.5),
            3,
            SimOptions::default(),
        );
        let report = sim.run_until_silent(200_000);
        assert!(report.silent);
        assert!(report.legitimate);
        let oracle: Vec<usize> = properties::bfs_distances(&graph, NodeId::new(7))
            .into_iter()
            .flatten()
            .collect();
        assert_eq!(BfsTree::distances(sim.config()), oracle);
    }

    #[test]
    fn stabilized_parents_form_a_spanning_tree() {
        let graph = generators::ring(9);
        let protocol = BfsTree::new(&graph, NodeId::new(4));
        let mut sim = Simulation::new(
            &graph,
            protocol.clone(),
            Synchronous,
            11,
            SimOptions::default(),
        );
        assert!(sim.run_until_silent(10_000).silent);
        // Tree edges: one per non-root process, together spanning the graph.
        let parents = protocol.parents(&graph, sim.config());
        let edges: Vec<(usize, usize)> = parents
            .iter()
            .enumerate()
            .filter_map(|(child, parent)| {
                parent.map(|q| (child.min(q.index()), child.max(q.index())))
            })
            .collect();
        assert_eq!(edges.len(), 8);
        let tree = Graph::from_edges(9, &edges).unwrap();
        assert!(properties::is_tree(&tree));
    }

    #[test]
    fn synchronous_convergence_is_linear_in_the_height() {
        // From any initial configuration the true BFS wave propagates one
        // layer per synchronous round; the cap bounds the initial garbage.
        let graph = generators::path(24);
        let protocol = BfsTree::new(&graph, NodeId::new(0));
        let mut sim = Simulation::new(&graph, protocol, Synchronous, 7, SimOptions::default());
        let report = sim.run_until_silent(10_000);
        assert!(report.silent);
        assert!(
            report.rounds <= 2 * 24 + 2,
            "BFS must converge within O(n) synchronous rounds, took {}",
            report.rounds
        );
    }

    #[test]
    fn root_action_and_domains() {
        let graph = generators::star(5);
        let protocol = BfsTree::new(&graph, NodeId::new(0));
        assert_eq!(protocol.root(), NodeId::new(0));
        assert_eq!(protocol.cap(), 5);
        // comm = dist, domain 0..=5 -> 3 bits.
        assert_eq!(protocol.comm_bits(&graph, NodeId::new(0)), 3);
        assert!(protocol.state_bits(&graph, NodeId::new(0)) > 3);
        let config = vec![
            BfsState {
                dist: 3,
                parent: Port::new(0),
            };
            5
        ];
        let mut sim = Simulation::with_config(
            &graph,
            protocol,
            Synchronous,
            config,
            0,
            SimOptions::default(),
        );
        let report = sim.run_until_silent(100);
        assert!(report.silent);
        assert_eq!(sim.config()[0].dist, 0);
        assert!(sim.config().iter().skip(1).all(|s| s.dist == 1));
    }

    #[test]
    #[should_panic(expected = "root in range")]
    fn rejects_an_out_of_range_root() {
        BfsTree::new(&generators::path(3), NodeId::new(3));
    }

    #[test]
    fn is_delta_efficient_not_one_efficient() {
        let graph = generators::wheel(8);
        let protocol = BfsTree::new(&graph, NodeId::new(2));
        let mut sim = Simulation::new(
            &graph,
            protocol,
            DistributedRandom::new(0.5),
            5,
            SimOptions::default(),
        );
        assert!(sim.run_until_silent(100_000).silent);
        // Repairs read the whole neighborhood: the hub reads δ = 7 neighbors.
        assert!(sim.stats().measured_efficiency() > 1);
    }

    #[test]
    fn corrupted_small_distances_are_repaired() {
        // A corrupted dist smaller than possible (a "fake root" wave) must
        // be flushed: neighbors of the fake distance keep re-deriving larger
        // values until the true wave dominates.
        let graph = generators::path(6);
        let protocol = BfsTree::new(&graph, NodeId::new(0));
        let mut config: Vec<BfsState> = (0..6)
            .map(|_| BfsState {
                dist: 0,
                parent: Port::new(0),
            })
            .collect();
        config[5].dist = 0; // far end claims to be at the root
        let mut sim = Simulation::with_config(
            &graph,
            protocol,
            Synchronous,
            config,
            9,
            SimOptions::default(),
        );
        let report = sim.run_until_silent(10_000);
        assert!(report.silent);
        assert_eq!(BfsTree::distances(sim.config()), vec![0, 1, 2, 3, 4, 5]);
    }
}
