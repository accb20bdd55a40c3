//! Protocol `COLORING` (Figure 7): 1-efficient probabilistic (∆+1)-vertex
//! coloring for arbitrary anonymous networks.
//!
//! Every process `p` maintains:
//!
//! * a communication variable `C.p ∈ {1..∆+1}` — its color,
//! * an internal variable `cur.p ∈ [1..δ.p]` — the neighbor currently being
//!   checked (round-robin).
//!
//! Guarded actions, in priority order:
//!
//! 1. `C.p = C.(cur.p)` → pick a new color uniformly in `{1..∆+1}`, advance
//!    `cur.p`,
//! 2. `C.p ≠ C.(cur.p)` → advance `cur.p`.
//!
//! The protocol reads exactly one neighbor per activation, so it is
//! 1-efficient (Definition 4); it stabilizes to a proper coloring with
//! probability 1 (Theorem 3) and is silent: once the coloring is proper no
//! communication variable ever changes again (only the internal `cur`
//! pointers keep moving).

use rand::Rng;
use rand::RngCore;
use selfstab_graph::{verify, Graph, NodeId, Port};
use selfstab_runtime::protocol::{bits_for_domain, Protocol};
use selfstab_runtime::view::NeighborView;

/// Full state of a process running [`Coloring`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColoringState {
    /// Communication variable `C.p`: the current color, in `0..palette`.
    pub color: usize,
    /// Internal variable `cur.p`: the neighbor currently checked.
    pub cur: Port,
}

/// The `COLORING` protocol of Figure 7.
///
/// The palette size is fixed at construction to `∆ + 1`, the minimum that
/// works on every graph of maximum degree `∆` (the network may contain a
/// `(∆+1)`-clique).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coloring {
    palette: usize,
}

impl Coloring {
    /// Creates the protocol for `graph`, using the minimal palette `∆ + 1`.
    pub fn new(graph: &Graph) -> Self {
        Coloring {
            palette: graph.max_degree() + 1,
        }
    }

    /// Creates the protocol with an explicit palette size (at least 1).
    ///
    /// A palette smaller than `∆ + 1` may make some graphs uncolorable, in
    /// which case the protocol never stabilizes; larger palettes speed up
    /// convergence at the cost of `comm_bits`.
    pub fn with_palette(palette: usize) -> Self {
        Coloring {
            palette: palette.max(1),
        }
    }

    /// Number of colors available to each process.
    pub fn palette(&self) -> usize {
        self.palette
    }

    /// Extracts the color vector (the protocol's output function `color.p`)
    /// from a configuration.
    pub fn output(config: &[ColoringState]) -> Vec<usize> {
        config.iter().map(|s| s.color).collect()
    }
}

impl Protocol for Coloring {
    type State = ColoringState;
    type Comm = usize;

    fn name(&self) -> &'static str {
        "coloring-1-efficient"
    }

    fn arbitrary_state(&self, graph: &Graph, p: NodeId, rng: &mut dyn RngCore) -> ColoringState {
        let degree = graph.degree(p).max(1);
        ColoringState {
            color: rng.gen_range(0..self.palette),
            cur: Port::new(rng.gen_range(0..degree)),
        }
    }

    #[inline]
    fn comm(&self, _p: NodeId, state: &ColoringState) -> usize {
        state.color
    }

    /// Hand-written because it is O(1): the derived guard would read the
    /// checked neighbor and, on a conflict, redraw a color, only to learn
    /// what the degree already says.
    #[inline]
    fn is_enabled(
        &self,
        graph: &Graph,
        p: NodeId,
        _state: &ColoringState,
        _view: &NeighborView<'_, usize>,
    ) -> bool {
        // One of the two guards always holds, so a process with at least one
        // neighbor is always enabled. Isolated processes have nothing to do.
        graph.degree(p) > 0
    }

    #[inline]
    fn activate(
        &self,
        graph: &Graph,
        p: NodeId,
        state: &ColoringState,
        view: &NeighborView<'_, usize>,
        rng: &mut dyn RngCore,
    ) -> Option<ColoringState> {
        let degree = graph.degree(p);
        if degree == 0 {
            return None;
        }
        let cur = state.cur.clamp_to_degree(degree);
        let neighbor_color = *view.read(cur);
        let next = cur.next_round_robin(degree);
        if state.color == neighbor_color {
            // Action 1: conflict with the checked neighbor — redraw.
            Some(ColoringState {
                color: rng.gen_range(0..self.palette),
                cur: next,
            })
        } else {
            // Action 2: no conflict — just move the check pointer.
            Some(ColoringState {
                color: state.color,
                cur: next,
            })
        }
    }

    fn comm_bits(&self, _graph: &Graph, _p: NodeId) -> u64 {
        bits_for_domain(self.palette as u64)
    }

    fn state_bits(&self, graph: &Graph, p: NodeId) -> u64 {
        bits_for_domain(self.palette as u64) + bits_for_domain(graph.degree(p).max(1) as u64)
    }

    fn is_legitimate(&self, graph: &Graph, config: &[ColoringState]) -> bool {
        let colors = Coloring::output(config);
        verify::is_proper_coloring(graph, &colors)
    }

    /// Silent where no neighbour shares `p`'s colour, so a configuration
    /// is silent exactly when it is legitimate. A process with a neighbour
    /// is always enabled, advancing its pointer, so the default
    /// (`!is_enabled`) never holds; but once the coloring predicate holds
    /// it is closed and action 1 never fires again (Lemma 1), so the
    /// communication variables are fixed.
    #[inline]
    fn is_silent_at(
        &self,
        _graph: &Graph,
        _p: NodeId,
        state: &ColoringState,
        view: &NeighborView<'_, usize>,
    ) -> bool {
        view.read_all().iter().all(|&color| color != state.color)
    }
}

/// The paper's communication-complexity figure for `COLORING`
/// (Section 3.2 example): `log(∆+1)` bits read per process per step.
pub fn communication_complexity_bits(graph: &Graph) -> u64 {
    bits_for_domain(graph.max_degree() as u64 + 1)
}

/// The paper's space-complexity figure for `COLORING` (Section 3.2 example):
/// `2·log(∆+1) + log(δ.p)` bits for process `p`.
pub fn space_complexity_bits(graph: &Graph, p: NodeId) -> u64 {
    2 * bits_for_domain(graph.max_degree() as u64 + 1)
        + bits_for_domain(graph.degree(p).max(1) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfstab_graph::generators;
    use selfstab_runtime::scheduler::{
        CentralRandom, DistributedRandom, Fair, StarvingAdversary, Synchronous,
    };
    use selfstab_runtime::{SimOptions, Simulation};

    #[test]
    fn stabilizes_on_a_ring() {
        let graph = generators::ring(12);
        let protocol = Coloring::new(&graph);
        let mut sim = Simulation::new(
            &graph,
            protocol,
            DistributedRandom::new(0.5),
            1,
            SimOptions::default(),
        );
        let report = sim.run_until_silent(200_000);
        assert!(report.silent, "did not stabilize within the step budget");
        assert!(report.legitimate);
        assert!(verify::is_proper_coloring(
            &graph,
            &Coloring::output(sim.config())
        ));
    }

    #[test]
    fn stabilizes_on_a_clique_with_minimal_palette() {
        // The clique forces every one of the ∆+1 colors to be used.
        let graph = generators::complete(5);
        let protocol = Coloring::new(&graph);
        assert_eq!(protocol.palette(), 5);
        let mut sim = Simulation::new(
            &graph,
            protocol,
            DistributedRandom::new(0.5),
            3,
            SimOptions::default(),
        );
        let report = sim.run_until_silent(500_000);
        assert!(report.silent);
        let colors = Coloring::output(sim.config());
        let mut unique = colors.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 5, "a clique needs all ∆+1 colors");
    }

    /// A fixed moderately dense random graph used by several tests.
    fn sample_random_graph() -> Graph {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(77);
        generators::gnp_connected(20, 0.2, &mut rng).expect("valid parameters")
    }

    #[test]
    fn is_one_efficient_in_every_step() {
        let graph = sample_random_graph();
        let protocol = Coloring::new(&graph);
        let mut sim = Simulation::new(&graph, protocol, Synchronous, 5, SimOptions::default());
        sim.run_until_silent(50_000);
        // Definition 4 checked on every activation: every process reads at
        // most one neighbor in every step.
        assert_eq!(sim.stats().measured_efficiency(), 1);
    }

    #[test]
    fn coloring_predicate_is_closed_once_reached() {
        // Lemma 1: a process only changes its color when it sees a conflict,
        // so from a legitimate configuration the colors never change.
        let graph = generators::path(6);
        let protocol = Coloring::new(&graph);
        // Build an explicitly proper configuration.
        let config: Vec<ColoringState> = graph
            .nodes()
            .map(|p| ColoringState {
                color: p.index() % 2,
                cur: Port::new(0),
            })
            .collect();
        let mut sim = Simulation::with_config(
            &graph,
            protocol,
            Synchronous,
            config.clone(),
            9,
            SimOptions::default(),
        );
        assert!(sim.is_legitimate());
        sim.run_steps(200);
        assert_eq!(Coloring::output(sim.config()), Coloring::output(&config));
    }

    #[test]
    fn stabilizes_under_fair_adversarial_scheduler() {
        let graph = generators::grid(3, 4);
        let protocol = Coloring::new(&graph);
        let scheduler = Fair::new(StarvingAdversary::new(), 3 * graph.node_count() as u64);
        let mut sim = Simulation::new(&graph, protocol, scheduler, 13, SimOptions::default());
        let report = sim.run_until_silent(400_000);
        assert!(report.silent);
    }

    #[test]
    fn stabilizes_under_central_daemon() {
        let graph = generators::star(8);
        let protocol = Coloring::new(&graph);
        let mut sim = Simulation::new(
            &graph,
            protocol,
            CentralRandom::new(),
            21,
            SimOptions::default(),
        );
        let report = sim.run_until_silent(200_000);
        assert!(report.silent);
    }

    #[test]
    fn complexity_figures_match_the_paper() {
        let graph = generators::star(9); // ∆ = 8
        let protocol = Coloring::new(&graph);
        // log(∆+1) = log(9) -> 4 bits.
        assert_eq!(communication_complexity_bits(&graph), 4);
        assert_eq!(protocol.comm_bits(&graph, NodeId::new(0)), 4);
        // Center: 2*4 + log(8) = 8 + 3 = 11 bits.
        assert_eq!(space_complexity_bits(&graph, NodeId::new(0)), 11);
        // Leaf: 2*4 + log(1) = 8 + 1 = 9 bits.
        assert_eq!(space_complexity_bits(&graph, NodeId::new(3)), 9);
        assert_eq!(protocol.state_bits(&graph, NodeId::new(0)), 4 + 3);
    }

    #[test]
    fn arbitrary_states_stay_in_domain() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let graph = generators::wheel(7);
        let protocol = Coloring::new(&graph);
        let mut rng = StdRng::seed_from_u64(2);
        for p in graph.nodes() {
            for _ in 0..50 {
                let s = protocol.arbitrary_state(&graph, p, &mut rng);
                assert!(s.color < protocol.palette());
                assert!(s.cur.index() < graph.degree(p));
            }
        }
    }

    #[test]
    fn isolated_process_is_disabled() {
        let graph = Graph::from_edges(3, &[(0, 1)]).unwrap();
        let protocol = Coloring::new(&graph);
        let comm = vec![0usize, 0, 0];
        let view = NeighborView::from_snapshot(&graph, NodeId::new(2), &comm);
        assert!(!protocol.is_enabled(
            &graph,
            NodeId::new(2),
            &ColoringState {
                color: 0,
                cur: Port::new(0)
            },
            &view
        ));
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        assert!(protocol
            .activate(
                &graph,
                NodeId::new(2),
                &ColoringState {
                    color: 0,
                    cur: Port::new(0)
                },
                &view,
                &mut rng
            )
            .is_none());
    }

    #[test]
    fn out_of_range_cur_from_a_fault_is_reinterpreted() {
        // A transient fault may leave cur outside 0..δ; the activation
        // clamps it instead of panicking.
        let graph = generators::path(3);
        let protocol = Coloring::new(&graph);
        let config = vec![
            ColoringState {
                color: 0,
                cur: Port::new(0),
            },
            ColoringState {
                color: 0,
                cur: Port::new(17),
            },
            ColoringState {
                color: 1,
                cur: Port::new(0),
            },
        ];
        let mut sim = Simulation::with_config(
            &graph,
            protocol,
            Synchronous,
            config,
            4,
            SimOptions::default(),
        );
        let report = sim.run_until_silent(100_000);
        assert!(report.silent);
    }
}
