//! Protocol `MIS` (Figure 8): 1-efficient deterministic maximal independent
//! set for locally-identified networks.
//!
//! Every process `p` maintains:
//!
//! * a communication variable `S.p ∈ {Dominator, dominated}`,
//! * a communication **constant** `C.p` — a color unique in `p`'s
//!   neighborhood, totally ordered by `≺` (provided by a
//!   [`LocalColoring`]); the colors induce the dag orientation of Theorem 4,
//! * an internal variable `cur.p ∈ [1..δ.p]` — the neighbor currently
//!   checked (round-robin).
//!
//! Guarded actions, in priority order:
//!
//! 1. `S.(cur.p) = Dominator ∧ C.(cur.p) ≺ C.p ∧ S.p = Dominator` →
//!    `S.p ← dominated`,
//! 2. `(S.(cur.p) = dominated ∨ C.p ≺ C.(cur.p)) ∧ S.p = dominated` →
//!    `S.p ← Dominator`, advance `cur.p`,
//! 3. `S.p = Dominator` → advance `cur.p`.
//!
//! The protocol reads one neighbor per activation (1-efficient), stabilizes
//! in at most `∆ · #C` rounds (Lemma 4), every silent configuration
//! satisfies the MIS predicate (Lemma 3), and it is
//! ♦-(⌊(Lmax+1)/2⌋, 1)-stable (Theorem 6): once stabilized, every dominated
//! process keeps reading the single Dominator neighbor its `cur` pointer
//! settled on, while Dominators keep scanning all their neighbors forever.

use rand::Rng;
use rand::RngCore;
use selfstab_graph::coloring::{Color, LocalColoring};
use selfstab_graph::{longest_path, verify, Graph, NodeId, Port};
use selfstab_runtime::protocol::{bits_for_domain, Protocol};
use selfstab_runtime::view::NeighborView;

/// The membership communication variable `S.p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Membership {
    /// The process believes it belongs to the independent set.
    Dominator,
    /// The process believes it is covered by a neighboring Dominator.
    Dominated,
}

/// Full state of a process running [`Mis`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MisState {
    /// Communication variable `S.p`.
    pub status: Membership,
    /// Internal variable `cur.p`.
    pub cur: Port,
}

/// Communication state of a process running [`Mis`]: the membership variable
/// plus the color constant (both are read together when a neighbor checks
/// this process).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MisComm {
    /// `S.p`.
    pub status: Membership,
    /// The communication constant `C.p`.
    pub color: Color,
}

/// The `MIS` protocol of Figure 8.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mis {
    coloring: LocalColoring,
}

impl Mis {
    /// Creates the protocol from the local identifiers (a proper distance-1
    /// coloring) of the network.
    pub fn new(coloring: LocalColoring) -> Self {
        Mis { coloring }
    }

    /// Creates the protocol using a greedy distance-1 coloring of `graph` as
    /// the local identifiers.
    pub fn with_greedy_coloring(graph: &Graph) -> Self {
        Mis {
            coloring: selfstab_graph::coloring::greedy(graph),
        }
    }

    /// The local identifiers used by this instance.
    pub fn coloring(&self) -> &LocalColoring {
        &self.coloring
    }

    /// The protocol's output function `inMIS.p` over a configuration: one
    /// boolean per process.
    pub fn output(config: &[MisState]) -> Vec<bool> {
        config
            .iter()
            .map(|s| s.status == Membership::Dominator)
            .collect()
    }

    /// Lemma 4's convergence bound: at most `∆ · #C` rounds to reach a
    /// silent configuration.
    pub fn round_bound(&self, graph: &Graph) -> u64 {
        graph.max_degree() as u64 * self.coloring.color_count() as u64
    }

    /// Theorem 6's ♦-(x, 1)-stability bound: at least `⌊(Lmax+1)/2⌋`
    /// processes eventually read a single fixed neighbor. `lmax` is the
    /// longest elementary path length; use
    /// [`longest_path::longest_path`] to compute it.
    pub fn stability_bound(lmax: usize) -> usize {
        longest_path::mis_stability_bound(lmax)
    }

    #[inline]
    fn color(&self, p: NodeId) -> Color {
        self.coloring.color(p)
    }
}

impl Protocol for Mis {
    type State = MisState;
    type Comm = MisComm;

    fn name(&self) -> &'static str {
        "mis-1-efficient"
    }

    fn arbitrary_state(&self, graph: &Graph, p: NodeId, rng: &mut dyn RngCore) -> MisState {
        let degree = graph.degree(p).max(1);
        MisState {
            status: if rng.gen_bool(0.5) {
                Membership::Dominator
            } else {
                Membership::Dominated
            },
            cur: Port::new(rng.gen_range(0..degree)),
        }
    }

    #[inline]
    fn comm(&self, p: NodeId, state: &MisState) -> MisComm {
        // The communication state a neighbor reads is the S variable plus
        // the color constant C.p.
        MisComm {
            status: state.status,
            color: self.color(p),
        }
    }

    /// Hand-written because a Dominator needs no read: action 1 or action
    /// 3 fires at every Dominator with a neighbor, so only a dominated
    /// process reads its checked neighbor, for action 2's test. The derived
    /// guard would read that neighbor at a Dominator too, only to tell
    /// action 1 from action 3. Once stabilized, every Dominator moves on
    /// every activation, and its next guard evaluation reads nothing.
    #[inline(always)]
    fn is_enabled(
        &self,
        graph: &Graph,
        p: NodeId,
        state: &MisState,
        view: &NeighborView<'_, MisComm>,
    ) -> bool {
        let degree = graph.degree(p);
        match state.status {
            // An isolated Dominator is disabled forever.
            Membership::Dominator => degree > 0,
            // An isolated dominated process promotes itself.
            Membership::Dominated if degree == 0 => true,
            Membership::Dominated => {
                let neighbor = view.read(state.cur.clamp_to_degree(degree));
                neighbor.status == Membership::Dominated || self.color(p) < neighbor.color
            }
        }
    }

    /// Evaluates the guarded actions of `p` in priority order and returns
    /// the successor state, or `None` when every action is disabled.
    ///
    /// Always inlined: with `#[inline]` alone the release step called it
    /// out of line, through two copies.
    #[inline(always)]
    fn activate(
        &self,
        graph: &Graph,
        p: NodeId,
        state: &MisState,
        view: &NeighborView<'_, MisComm>,
        _rng: &mut dyn RngCore,
    ) -> Option<MisState> {
        let degree = graph.degree(p);
        if degree == 0 {
            // An isolated process must be in the MIS; once there it is
            // disabled forever.
            return match state.status {
                Membership::Dominated => Some(MisState {
                    status: Membership::Dominator,
                    cur: state.cur,
                }),
                Membership::Dominator => None,
            };
        }
        let cur = state.cur.clamp_to_degree(degree);
        let neighbor = *view.read(cur);
        let my_color = self.color(p);
        let next = cur.next_round_robin(degree);

        // Action 1: two neighboring Dominators — the larger color yields.
        if neighbor.status == Membership::Dominator
            && neighbor.color < my_color
            && state.status == Membership::Dominator
        {
            return Some(MisState {
                status: Membership::Dominated,
                cur,
            });
        }
        // Action 2: a dominated process with no justification from the
        // checked neighbor promotes itself.
        if (neighbor.status == Membership::Dominated || my_color < neighbor.color)
            && state.status == Membership::Dominated
        {
            return Some(MisState {
                status: Membership::Dominator,
                cur: next,
            });
        }
        // Action 3: a Dominator keeps scanning its neighborhood forever.
        if state.status == Membership::Dominator {
            return Some(MisState {
                status: Membership::Dominator,
                cur: next,
            });
        }
        None
    }

    fn comm_bits(&self, _graph: &Graph, _p: NodeId) -> u64 {
        // S (1 bit) plus the color constant.
        1 + bits_for_domain(self.coloring.color_count().max(1) as u64)
    }

    fn state_bits(&self, graph: &Graph, p: NodeId) -> u64 {
        self.comm_bits(graph, p) + bits_for_domain(graph.degree(p).max(1) as u64)
    }

    fn is_legitimate(&self, graph: &Graph, config: &[MisState]) -> bool {
        verify::is_maximal_independent_set(graph, &Mis::output(config))
    }

    /// A configuration is silent iff no continuation can ever change an
    /// S variable, that is iff at every process:
    /// * a Dominator has no Dominator neighbor (its round-robin scan would
    ///   otherwise eventually trigger action 1 on one of the two),
    /// * a dominated process points at a Dominator of smaller color
    ///   (otherwise action 2 is enabled right now).
    #[inline]
    fn is_silent_at(
        &self,
        graph: &Graph,
        p: NodeId,
        state: &MisState,
        view: &NeighborView<'_, MisComm>,
    ) -> bool {
        let degree = graph.degree(p);
        match state.status {
            Membership::Dominator => view
                .read_all()
                .iter()
                .all(|q| q.status != Membership::Dominator),
            // An isolated dominated process promotes itself.
            Membership::Dominated if degree == 0 => false,
            Membership::Dominated => {
                let q = view.read(state.cur.clamp_to_degree(degree));
                q.status == Membership::Dominator && q.color < self.color(p)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfstab_graph::generators;
    use selfstab_runtime::protocol::is_silent_config;
    use selfstab_runtime::scheduler::{DistributedRandom, Synchronous};
    use selfstab_runtime::{SimOptions, Simulation};

    #[test]
    fn mis_state_rows_are_8_bytes() {
        // The executor writes one state row per activation: a one-byte
        // status and a 32-bit `cur` port.
        assert_eq!(std::mem::size_of::<MisState>(), 8);
    }

    #[test]
    fn mis_comm_rows_are_8_bytes() {
        // Every activation reads one neighbor's comm row: a one-byte
        // status and a 32-bit color constant.
        assert_eq!(std::mem::size_of::<MisComm>(), 8);
    }

    fn protocol_for(graph: &Graph) -> Mis {
        Mis::with_greedy_coloring(graph)
    }

    #[test]
    fn stabilizes_on_small_graphs() {
        for graph in [
            generators::path(9),
            generators::ring(8),
            generators::star(7),
            generators::grid(3, 4),
            generators::complete(5),
        ] {
            let protocol = protocol_for(&graph);
            let mut sim = Simulation::new(
                &graph,
                protocol,
                DistributedRandom::new(0.5),
                11,
                SimOptions::default(),
            );
            let report = sim.run_until_silent(200_000);
            assert!(report.silent, "MIS did not stabilize on {graph}");
            assert!(report.legitimate, "silent but not a MIS on {graph}");
            assert!(verify::is_maximal_independent_set(
                &graph,
                &Mis::output(sim.config())
            ));
        }
    }

    #[test]
    fn is_one_efficient_in_every_step() {
        let graph = generators::grid(4, 4);
        let protocol = protocol_for(&graph);
        let mut sim = Simulation::new(&graph, protocol, Synchronous, 3, SimOptions::default());
        sim.run_until_silent(100_000);
        assert_eq!(sim.stats().measured_efficiency(), 1);
    }

    #[test]
    fn silent_configurations_satisfy_the_predicate() {
        // Lemma 3 checked by simulation from many arbitrary configurations.
        let graph = generators::caterpillar(4, 2);
        for seed in 0..20 {
            let protocol = protocol_for(&graph);
            let mut sim = Simulation::new(
                &graph,
                protocol,
                DistributedRandom::new(0.6),
                seed,
                SimOptions::default(),
            );
            let report = sim.run_until_silent(200_000);
            assert!(report.silent);
            assert!(
                verify::is_maximal_independent_set(&graph, &Mis::output(sim.config())),
                "silent configuration violates the MIS predicate (seed {seed})"
            );
        }
    }

    #[test]
    fn round_bound_of_lemma_4_holds_under_synchronous_daemon() {
        // Under the synchronous daemon every step is a round, so the round
        // count is easy to compare against ∆ · #C.
        for (graph, seed) in [
            (generators::path(10), 1u64),
            (generators::ring(9), 2),
            (generators::grid(3, 5), 3),
            (generators::star(9), 4),
        ] {
            let protocol = protocol_for(&graph);
            let bound = protocol.round_bound(&graph);
            let mut sim =
                Simulation::new(&graph, protocol, Synchronous, seed, SimOptions::default());
            let report = sim.run_until_silent(100_000);
            assert!(report.silent);
            assert!(
                report.total_rounds <= bound + 1,
                "stabilized in {} rounds, bound is {} on {graph}",
                report.total_rounds,
                bound
            );
        }
    }

    #[test]
    fn stability_bound_matches_figure_9_on_paths() {
        // On a path of n processes Lmax = n - 1, so at least ⌊n/2⌋ processes
        // are eventually dominated and 1-stable.
        let graph = generators::figure9_path(11);
        let protocol = protocol_for(&graph);
        let bound = Mis::stability_bound(
            longest_path::longest_path(&graph, longest_path::DEFAULT_EXACT_BUDGET).length,
        );
        assert_eq!(bound, 5);
        let mut sim = Simulation::new(
            &graph,
            protocol,
            DistributedRandom::new(0.5),
            17,
            SimOptions::default(),
        );
        let report = sim.run_until_silent(200_000);
        assert!(report.silent);
        // Dominated processes are exactly the eventually-1-stable ones.
        let dominated = sim
            .config()
            .iter()
            .filter(|s| s.status == Membership::Dominated)
            .count();
        assert!(dominated >= bound);
        // Measure it through the read sets as well: after stabilization every
        // dominated process reads its single justifying neighbor only.
        sim.mark_suffix();
        sim.run_steps(2_000);
        assert!(sim.stats().stable_process_count(sim.graph(), 1) >= bound);
    }

    #[test]
    fn legitimate_and_silent_configurations_are_detected() {
        let graph = generators::path(3);
        let coloring = LocalColoring::new(&graph, vec![0, 1, 0]).unwrap();
        let protocol = Mis::new(coloring);
        // p1 (color 1) dominated pointing at p0 (color 0, Dominator): silent.
        let silent_config = vec![
            MisState {
                status: Membership::Dominator,
                cur: Port::new(0),
            },
            MisState {
                status: Membership::Dominated,
                cur: Port::new(0),
            },
            MisState {
                status: Membership::Dominator,
                cur: Port::new(0),
            },
        ];
        assert!(protocol.is_legitimate(&graph, &silent_config));
        assert!(is_silent_config(&protocol, &graph, &silent_config));

        // Same statuses, but p1 points at p2 which has a *larger* color
        // (color 0 < color 1 is false: p2 has color 0 < p1's color 1, fine)…
        // make it non-silent instead by turning p2 into a dominated process:
        // p1 then points at a dominated neighbor and will promote itself.
        let not_silent = vec![
            MisState {
                status: Membership::Dominator,
                cur: Port::new(0),
            },
            MisState {
                status: Membership::Dominated,
                cur: Port::new(1),
            },
            MisState {
                status: Membership::Dominated,
                cur: Port::new(0),
            },
        ];
        assert!(!is_silent_config(&protocol, &graph, &not_silent));
        // And it is not even legitimate: p2 is dominated with no Dominator
        // neighbor.
        assert!(!protocol.is_legitimate(&graph, &not_silent));
    }

    #[test]
    fn two_adjacent_dominators_are_never_silent() {
        let graph = generators::path(2);
        let coloring = LocalColoring::new(&graph, vec![0, 1]).unwrap();
        let protocol = Mis::new(coloring);
        let config = vec![
            MisState {
                status: Membership::Dominator,
                cur: Port::new(0),
            },
            MisState {
                status: Membership::Dominator,
                cur: Port::new(0),
            },
        ];
        assert!(!is_silent_config(&protocol, &graph, &config));
        assert!(!protocol.is_legitimate(&graph, &config));
        // And the protocol resolves the conflict deterministically: the
        // larger color yields.
        let mut sim = Simulation::with_config(
            &graph,
            protocol,
            Synchronous,
            config,
            5,
            SimOptions::default(),
        );
        let report = sim.run_until_silent(1_000);
        assert!(report.silent);
        assert_eq!(sim.config()[0].status, Membership::Dominator);
        assert_eq!(sim.config()[1].status, Membership::Dominated);
    }

    #[test]
    fn isolated_process_joins_the_set() {
        let graph = Graph::from_edges(3, &[(0, 1)]).unwrap();
        let coloring = LocalColoring::new(&graph, vec![0, 1, 0]).unwrap();
        let protocol = Mis::new(coloring);
        let mut sim = Simulation::new(&graph, protocol, Synchronous, 2, SimOptions::default());
        let report = sim.run_until_silent(1_000);
        assert!(report.silent);
        assert_eq!(sim.config()[2].status, Membership::Dominator);
    }

    #[test]
    fn complexity_accounting() {
        let graph = generators::star(9);
        let protocol = protocol_for(&graph);
        // S is 1 bit; the greedy coloring of a star uses 2 colors -> 1 bit.
        assert_eq!(protocol.comm_bits(&graph, NodeId::new(0)), 2);
        // Center has degree 8 -> 3 more bits for cur.
        assert_eq!(protocol.state_bits(&graph, NodeId::new(0)), 5);
        assert_eq!(protocol.round_bound(&graph), 8 * 2);
    }

    #[test]
    fn comm_attaches_the_color_constant() {
        let graph = generators::path(3);
        let protocol = protocol_for(&graph);
        let state = MisState {
            status: Membership::Dominator,
            cur: Port::new(0),
        };
        for p in graph.nodes() {
            let comm = protocol.comm(p, &state);
            assert_eq!(comm.color, protocol.coloring().color(p));
            assert_eq!(comm.status, Membership::Dominator);
        }
    }
}
