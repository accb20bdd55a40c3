//! Δ-efficient baseline maximal independent set (local checking).
//!
//! Deterministic protocol in the style of Ikeda, Kamei & Kakugawa: every
//! activation reads the membership variable (and identifier) of **all**
//! neighbors.
//!
//! * a member leaves the set when a neighboring member has a smaller
//!   identifier,
//! * a non-member joins when every neighbor is either a non-member or has a
//!   larger identifier.
//!
//! Locally-unique colors play the role of the identifiers, exactly as in the
//! paper's `MIS` protocol, so the two protocols compute the same kind of
//! structure and differ only in communication behavior.

use rand::Rng;
use rand::RngCore;
use selfstab_graph::coloring::{Color, LocalColoring};
use selfstab_graph::{verify, Graph, NodeId, Port};
use selfstab_runtime::protocol::{bits_for_domain, Protocol};
use selfstab_runtime::view::NeighborView;

use crate::mis::{Membership, MisComm};

/// The Δ-efficient baseline MIS protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineMis {
    coloring: LocalColoring,
}

impl BaselineMis {
    /// Creates the protocol from the local identifiers of the network.
    pub fn new(coloring: LocalColoring) -> Self {
        BaselineMis { coloring }
    }

    /// Creates the protocol using a greedy distance-1 coloring of `graph`.
    pub fn with_greedy_coloring(graph: &Graph) -> Self {
        BaselineMis {
            coloring: selfstab_graph::coloring::greedy(graph),
        }
    }

    /// The local identifiers used by this instance.
    pub fn coloring(&self) -> &LocalColoring {
        &self.coloring
    }

    /// The output function: membership booleans per process.
    pub fn output(config: &[Membership]) -> Vec<bool> {
        config.iter().map(|s| *s == Membership::Dominator).collect()
    }

    #[inline]
    fn color(&self, p: NodeId) -> Color {
        self.coloring.color(p)
    }

    #[inline]
    fn eval(
        &self,
        graph: &Graph,
        p: NodeId,
        state: &Membership,
        view: &NeighborView<'_, MisComm>,
    ) -> Option<Membership> {
        let my_color = self.color(p);
        // Both rules in one pass that reads every port once, in port order:
        // the Δ-efficient read pattern, whatever the outcome.
        let (mut must_leave, mut may_join) = (false, true);
        for i in 0..graph.degree(p) {
            let n = view.read(Port::new(i));
            must_leave |= n.status == Membership::Dominator && n.color < my_color;
            may_join &= n.status == Membership::Dominated || my_color < n.color;
        }
        match state {
            Membership::Dominator => must_leave.then_some(Membership::Dominated),
            Membership::Dominated => may_join.then_some(Membership::Dominator),
        }
    }
}

impl Protocol for BaselineMis {
    /// The whole state is the membership variable.
    type State = Membership;
    type Comm = MisComm;

    fn name(&self) -> &'static str {
        "mis-baseline-delta-efficient"
    }

    fn arbitrary_state(&self, _graph: &Graph, _p: NodeId, rng: &mut dyn RngCore) -> Membership {
        if rng.gen_bool(0.5) {
            Membership::Dominator
        } else {
            Membership::Dominated
        }
    }

    #[inline]
    fn comm(&self, p: NodeId, state: &Membership) -> MisComm {
        MisComm {
            status: *state,
            color: self.color(p),
        }
    }

    #[inline]
    fn is_enabled(
        &self,
        graph: &Graph,
        p: NodeId,
        state: &Membership,
        view: &NeighborView<'_, MisComm>,
    ) -> bool {
        self.eval(graph, p, state, view).is_some()
    }

    #[inline]
    fn activate(
        &self,
        graph: &Graph,
        p: NodeId,
        state: &Membership,
        view: &NeighborView<'_, MisComm>,
        _rng: &mut dyn RngCore,
    ) -> Option<Membership> {
        self.eval(graph, p, state, view)
    }

    fn comm_bits(&self, _graph: &Graph, _p: NodeId) -> u64 {
        1 + bits_for_domain(self.coloring.color_count().max(1) as u64)
    }

    fn state_bits(&self, graph: &Graph, p: NodeId) -> u64 {
        self.comm_bits(graph, p)
    }

    fn is_legitimate(&self, graph: &Graph, config: &[Membership]) -> bool {
        verify::is_maximal_independent_set(graph, &BaselineMis::output(config))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfstab_graph::generators;
    use selfstab_runtime::scheduler::{CentralRandom, DistributedRandom, Synchronous};
    use selfstab_runtime::{SimOptions, Simulation};

    #[test]
    fn stabilizes_under_central_daemon() {
        for graph in [
            generators::path(10),
            generators::ring(9),
            generators::star(8),
            generators::grid(4, 4),
        ] {
            let protocol = BaselineMis::with_greedy_coloring(&graph);
            let mut sim = Simulation::new(
                &graph,
                protocol,
                CentralRandom::enabled_only(),
                3,
                SimOptions::default(),
            );
            let report = sim.run_until_silent(200_000);
            assert!(report.silent, "no silence on {graph}");
            assert!(verify::is_maximal_independent_set(
                &graph,
                &BaselineMis::output(sim.config())
            ));
        }
    }

    #[test]
    fn stabilizes_under_distributed_daemon() {
        // The identifier ordering makes the protocol converge even when
        // neighbors move simultaneously.
        let graph = generators::grid(3, 5);
        let protocol = BaselineMis::with_greedy_coloring(&graph);
        let mut sim = Simulation::new(
            &graph,
            protocol,
            DistributedRandom::new(0.5),
            11,
            SimOptions::default(),
        );
        let report = sim.run_until_silent(200_000);
        assert!(report.silent);
        assert!(report.legitimate);
    }

    #[test]
    fn reads_every_neighbor_each_step() {
        let graph = generators::star(7);
        let protocol = BaselineMis::with_greedy_coloring(&graph);
        let config = vec![Membership::Dominated; 7];
        let mut sim = Simulation::with_config(
            &graph,
            protocol,
            Synchronous,
            config,
            5,
            SimOptions::default(),
        );
        sim.run_until_silent(10_000);
        assert_eq!(sim.stats().measured_efficiency(), graph.max_degree());
    }

    #[test]
    fn produces_the_same_kind_of_structure_as_the_efficient_protocol() {
        let graph = generators::ring(8);
        let protocol = BaselineMis::with_greedy_coloring(&graph);
        let mut sim = Simulation::new(
            &graph,
            protocol,
            CentralRandom::enabled_only(),
            13,
            SimOptions::default(),
        );
        let report = sim.run_until_silent(100_000);
        assert!(report.silent);
        let members = BaselineMis::output(sim.config());
        assert!(verify::is_maximal_independent_set(&graph, &members));
        // On an 8-ring a MIS has between 3 and 4 members.
        let count = members.iter().filter(|&&b| b).count();
        assert!((3..=4).contains(&count));
    }
}
