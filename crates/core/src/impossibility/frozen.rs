//! Frozen-read protocol variants.
//!
//! A *frozen-read* protocol is the limit case of the stability the
//! impossibility results rule out: every process reads one designated
//! neighbor forever (its read set has size exactly 1 in every computation,
//! so the protocol is 1-stable, hence ♦-k-stable and k-stable for every
//! k ≥ 1). The designated ports model the reading choice a ♦-(∆−1)-stable
//! protocol must eventually commit to; the adversarial local labelling of
//! the proofs corresponds to choosing these ports.

use rand::Rng;
use rand::RngCore;
use selfstab_graph::coloring::{Color, LocalColoring};
use selfstab_graph::{verify, Graph, NodeId, Port};
use selfstab_runtime::protocol::{bits_for_domain, Protocol};
use selfstab_runtime::view::NeighborView;

use crate::mis::{Membership, MisComm, MisState};

/// Frozen-read variant of the `COLORING` protocol: each process only ever
/// reads the neighbor behind its designated port and redraws its color when
/// it observes a conflict with that single neighbor.
///
/// By construction the protocol is 1-stable; Theorem 1 implies it cannot be
/// self-stabilizing for the coloring predicate on topologies of degree
/// ∆ ≥ 2, and [`crate::impossibility::theorem1`] exhibits the silent,
/// illegitimate configurations that prove it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrozenReadColoring {
    palette: usize,
    frozen: Vec<Port>,
}

impl FrozenReadColoring {
    /// Creates the protocol with the given palette and designated ports
    /// (one per process).
    ///
    /// # Panics
    ///
    /// Panics if `frozen.len()` does not match the graph size when the
    /// protocol is later executed (checked lazily at activation).
    pub fn new(palette: usize, frozen: Vec<Port>) -> Self {
        FrozenReadColoring {
            palette: palette.max(1),
            frozen,
        }
    }

    /// Extracts the colors from a configuration.
    pub fn output(config: &[usize]) -> Vec<usize> {
        config.to_vec()
    }
}

impl Protocol for FrozenReadColoring {
    /// The state is just the color; the designated port is a constant.
    type State = usize;
    type Comm = usize;

    fn name(&self) -> &'static str {
        "coloring-frozen-read"
    }

    fn arbitrary_state(&self, _graph: &Graph, _p: NodeId, rng: &mut dyn RngCore) -> usize {
        rng.gen_range(0..self.palette)
    }

    #[inline]
    fn comm(&self, _p: NodeId, state: &usize) -> usize {
        *state
    }

    #[inline]
    fn activate(
        &self,
        graph: &Graph,
        p: NodeId,
        state: &usize,
        view: &NeighborView<'_, usize>,
        rng: &mut dyn RngCore,
    ) -> Option<usize> {
        if graph.degree(p) == 0 {
            return None;
        }
        let port = self.frozen[p.index()].clamp_to_degree(graph.degree(p));
        if view.read(port) == state {
            Some(rng.gen_range(0..self.palette))
        } else {
            None
        }
    }

    fn comm_bits(&self, _graph: &Graph, _p: NodeId) -> u64 {
        bits_for_domain(self.palette as u64)
    }

    fn state_bits(&self, _graph: &Graph, _p: NodeId) -> u64 {
        bits_for_domain(self.palette as u64)
    }

    fn is_legitimate(&self, graph: &Graph, config: &[usize]) -> bool {
        verify::is_proper_coloring(graph, config)
    }
}

/// Frozen-read variant of the `MIS` protocol: same guarded actions as
/// Figure 8 except that `cur` never advances — each process reads its
/// designated neighbor forever.
///
/// The protocol is deterministic and free to exploit the local colors (and
/// hence the dag orientation of Theorem 4) exactly as the hypotheses of
/// Theorem 2 allow; [`crate::impossibility::theorem2`] builds the silent,
/// illegitimate configuration showing it is not self-stabilizing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrozenReadMis {
    coloring: LocalColoring,
    frozen: Vec<Port>,
}

impl FrozenReadMis {
    /// Creates the protocol from local identifiers and designated ports.
    pub fn new(coloring: LocalColoring, frozen: Vec<Port>) -> Self {
        FrozenReadMis { coloring, frozen }
    }

    /// The output function (membership booleans).
    pub fn output(config: &[MisState]) -> Vec<bool> {
        config
            .iter()
            .map(|s| s.status == Membership::Dominator)
            .collect()
    }

    #[inline]
    fn color(&self, p: NodeId) -> Color {
        self.coloring.color(p)
    }
}

impl Protocol for FrozenReadMis {
    type State = MisState;
    type Comm = MisComm;

    fn name(&self) -> &'static str {
        "mis-frozen-read"
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
        MisComm {
            status: state.status,
            color: self.color(p),
        }
    }

    #[inline]
    fn activate(
        &self,
        graph: &Graph,
        p: NodeId,
        state: &MisState,
        view: &NeighborView<'_, MisComm>,
        _rng: &mut dyn RngCore,
    ) -> Option<MisState> {
        if graph.degree(p) == 0 {
            return match state.status {
                Membership::Dominated => Some(MisState {
                    status: Membership::Dominator,
                    cur: state.cur,
                }),
                Membership::Dominator => None,
            };
        }
        let port = self.frozen[p.index()].clamp_to_degree(graph.degree(p));
        let neighbor = *view.read(port);
        let my_color = self.color(p);
        if neighbor.status == Membership::Dominator
            && neighbor.color < my_color
            && state.status == Membership::Dominator
        {
            return Some(MisState {
                status: Membership::Dominated,
                cur: port,
            });
        }
        if (neighbor.status == Membership::Dominated || my_color < neighbor.color)
            && state.status == Membership::Dominated
        {
            return Some(MisState {
                status: Membership::Dominator,
                cur: port,
            });
        }
        None
    }

    fn comm_bits(&self, _graph: &Graph, _p: NodeId) -> u64 {
        1 + bits_for_domain(self.coloring.color_count().max(1) as u64)
    }

    fn state_bits(&self, graph: &Graph, p: NodeId) -> u64 {
        self.comm_bits(graph, p)
    }

    fn is_legitimate(&self, graph: &Graph, config: &[MisState]) -> bool {
        verify::is_maximal_independent_set(graph, &FrozenReadMis::output(config))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfstab_graph::generators;
    use selfstab_runtime::protocol::is_silent_config;
    use selfstab_runtime::scheduler::DistributedRandom;
    use selfstab_runtime::{SimOptions, Simulation};

    #[test]
    fn frozen_coloring_is_one_stable_by_construction() {
        let graph = generators::ring(6);
        let frozen = vec![Port::new(0); 6];
        let protocol = FrozenReadColoring::new(3, frozen);
        let mut sim = Simulation::new(
            &graph,
            protocol,
            DistributedRandom::new(0.5),
            3,
            SimOptions::default(),
        );
        sim.run_steps(500);
        // Every process reads at most one distinct neighbor over the whole
        // computation: 1-stability (Definition 7), not just ♦-1-stability.
        assert_eq!(sim.stats().k_stable_process_count(sim.graph(), 1), 6);
        assert!(sim.stats().measured_efficiency() <= 1);
    }

    #[test]
    fn frozen_mis_is_one_stable_by_construction() {
        let graph = generators::path(5);
        let frozen: Vec<Port> = vec![Port::new(0); 5];
        let protocol = FrozenReadMis::new(selfstab_graph::coloring::greedy(&graph), frozen);
        let mut sim = Simulation::new(
            &graph,
            protocol,
            DistributedRandom::new(0.5),
            7,
            SimOptions::default(),
        );
        sim.run_steps(500);
        assert_eq!(sim.stats().k_stable_process_count(sim.graph(), 1), 5);
    }

    #[test]
    fn frozen_coloring_silence_check_matches_guards() {
        let graph = generators::path(3);
        let frozen = vec![Port::new(0), Port::new(0), Port::new(0)];
        let protocol = FrozenReadColoring::new(3, frozen);
        // p1 reads p0 (its port 0); p2 reads p1.
        assert!(is_silent_config(&protocol, &graph, &[0, 1, 0]));
        // p1 reads p0 and both hold 0: conflict observed, not silent.
        assert!(!is_silent_config(&protocol, &graph, &[0, 0, 1]));
        // p1 and p2 conflict, but p2 reads p1 — so the conflict IS observed.
        assert!(!is_silent_config(&protocol, &graph, &[0, 1, 1]));
    }
}
