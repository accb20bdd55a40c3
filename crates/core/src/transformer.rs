//! Round-robin checking transformer (extension).
//!
//! The paper's concluding remarks leave open "the possibility of designing
//! an efficient general transformer for protocols matching the local
//! checking paradigm". This module answers the question for the subclass of
//! **edge-checkable** specifications: predicates expressed as a conjunction,
//! over every edge `{p, q}`, of a binary predicate on the two endpoint
//! outputs (proper coloring is the canonical example).
//!
//! Given an [`EdgeCheckable`] specification, the [`RoundRobinChecker`]
//! produces a 1-efficient silent protocol: every process keeps one output
//! communication variable and a round-robin `cur` pointer, checks one
//! neighbor per activation, and calls the specification's correction action
//! when the pairwise predicate is violated — exactly the structure of the
//! paper's `COLORING`, generalized.
//!
//! The transformed protocol is self-stabilizing whenever the specification's
//! correction is *locally convergent*: from any pair of conflicting outputs,
//! the correction resolves the conflict with positive probability without
//! creating permanently unresolvable conflicts elsewhere (the specification
//! documents this requirement). The stabilized phase is then 1-efficient
//! and silent by construction.

use rand::RngCore;
use selfstab_graph::{Graph, NodeId, Port};
use selfstab_runtime::protocol::{bits_for_domain, Protocol};
use selfstab_runtime::view::NeighborView;
use std::fmt;

/// An edge-checkable specification: a pairwise predicate over neighboring
/// outputs plus a correction action.
pub trait EdgeCheckable {
    /// The per-process output value (becomes the only communication
    /// variable of the transformed protocol).
    type Output: Clone + fmt::Debug + PartialEq + Send + Sync;

    /// Short human-readable name of the transformed protocol.
    fn name(&self) -> &'static str;

    /// Samples an arbitrary output for process `p` (the self-stabilization
    /// adversary may have left anything).
    fn arbitrary_output(&self, graph: &Graph, p: NodeId, rng: &mut dyn RngCore) -> Self::Output;

    /// Returns `true` when the outputs of two neighbors conflict (the edge
    /// violates the specification).
    fn conflict(&self, mine: &Self::Output, neighbor: &Self::Output) -> bool;

    /// Correction action executed by `p` when it observes a conflict with
    /// the checked neighbor; returns `p`'s new output.
    fn correct(
        &self,
        graph: &Graph,
        p: NodeId,
        mine: &Self::Output,
        neighbor: &Self::Output,
        rng: &mut dyn RngCore,
    ) -> Self::Output;

    /// Number of bits needed to encode an output of process `p`.
    fn output_bits(&self, graph: &Graph, p: NodeId) -> u64;
}

/// State of a process running a [`RoundRobinChecker`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckerState<O> {
    /// The output communication variable.
    pub output: O,
    /// The internal round-robin check pointer.
    pub cur: Port,
}

/// The 1-efficient transformed protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRobinChecker<E> {
    spec: E,
}

impl<E: EdgeCheckable> RoundRobinChecker<E> {
    /// Wraps an edge-checkable specification.
    pub fn new(spec: E) -> Self {
        RoundRobinChecker { spec }
    }

    /// The wrapped specification.
    pub fn spec(&self) -> &E {
        &self.spec
    }

    /// Extracts the outputs of a configuration.
    pub fn output(config: &[CheckerState<E::Output>]) -> Vec<E::Output> {
        config.iter().map(|s| s.output.clone()).collect()
    }
}

impl<E: EdgeCheckable + Send + Sync> Protocol for RoundRobinChecker<E> {
    type State = CheckerState<E::Output>;
    type Comm = E::Output;

    fn name(&self) -> &'static str {
        self.spec.name()
    }

    fn arbitrary_state(&self, graph: &Graph, p: NodeId, rng: &mut dyn RngCore) -> Self::State {
        use rand::Rng;
        let degree = graph.degree(p).max(1);
        CheckerState {
            output: self.spec.arbitrary_output(graph, p, rng),
            cur: Port::new(rng.gen_range(0..degree)),
        }
    }

    #[inline]
    fn comm(&self, _p: NodeId, state: &Self::State) -> Self::Comm {
        state.output.clone()
    }

    /// Hand-written because it is O(1): the derived guard would read the
    /// checked neighbor and, on a conflict, run the specification's
    /// correction, only to learn what the degree already says.
    #[inline]
    fn is_enabled(
        &self,
        graph: &Graph,
        p: NodeId,
        _state: &Self::State,
        _view: &NeighborView<'_, Self::Comm>,
    ) -> bool {
        // Like COLORING: either the checked neighbor conflicts (correct) or
        // it does not (advance) — always enabled unless isolated.
        graph.degree(p) > 0
    }

    #[inline]
    fn activate(
        &self,
        graph: &Graph,
        p: NodeId,
        state: &Self::State,
        view: &NeighborView<'_, Self::Comm>,
        rng: &mut dyn RngCore,
    ) -> Option<Self::State> {
        let degree = graph.degree(p);
        if degree == 0 {
            return None;
        }
        let cur = state.cur.clamp_to_degree(degree);
        let neighbor = view.read(cur);
        let next = cur.next_round_robin(degree);
        if self.spec.conflict(&state.output, neighbor) {
            let corrected = self.spec.correct(graph, p, &state.output, neighbor, rng);
            Some(CheckerState {
                output: corrected,
                cur: next,
            })
        } else {
            Some(CheckerState {
                output: state.output.clone(),
                cur: next,
            })
        }
    }

    fn comm_bits(&self, graph: &Graph, p: NodeId) -> u64 {
        self.spec.output_bits(graph, p)
    }

    fn state_bits(&self, graph: &Graph, p: NodeId) -> u64 {
        self.spec.output_bits(graph, p) + bits_for_domain(graph.degree(p).max(1) as u64)
    }

    fn is_legitimate(&self, graph: &Graph, config: &[Self::State]) -> bool {
        graph.edges().all(|(p, q)| {
            !self
                .spec
                .conflict(&config[p.index()].output, &config[q.index()].output)
        })
    }

    /// Silent where `p`'s output conflicts with no neighbour's. As in
    /// COLORING, a process with a neighbour is always enabled, so the
    /// default (`!is_enabled`) never holds; but once no process sees a
    /// conflict, no correction fires again and only the `cur` pointers
    /// move. For a symmetric pairwise predicate, as both shipped
    /// specifications are, a configuration is then silent exactly when it
    /// is legitimate.
    #[inline]
    fn is_silent_at(
        &self,
        _graph: &Graph,
        _p: NodeId,
        state: &Self::State,
        view: &NeighborView<'_, Self::Comm>,
    ) -> bool {
        view.read_all()
            .iter()
            .all(|neighbor| !self.spec.conflict(&state.output, neighbor))
    }
}

/// The paper's `COLORING` protocol expressed as an edge-checkable
/// specification: the pairwise predicate is "colors differ" and the
/// correction redraws uniformly from the palette.
///
/// `RoundRobinChecker<ColoringSpec>` behaves exactly like
/// [`crate::coloring::Coloring`]; the equivalence is checked in the tests
/// and in the E10 experiment table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColoringSpec {
    /// Number of colors available.
    pub palette: usize,
}

impl ColoringSpec {
    /// Minimal palette for `graph`: `∆ + 1`.
    pub fn new(graph: &Graph) -> Self {
        ColoringSpec {
            palette: graph.max_degree() + 1,
        }
    }
}

impl EdgeCheckable for ColoringSpec {
    type Output = usize;

    fn name(&self) -> &'static str {
        "transformed-coloring"
    }

    fn arbitrary_output(&self, _graph: &Graph, _p: NodeId, rng: &mut dyn RngCore) -> usize {
        use rand::Rng;
        rng.gen_range(0..self.palette.max(1))
    }

    #[inline]
    fn conflict(&self, mine: &usize, neighbor: &usize) -> bool {
        mine == neighbor
    }

    #[inline]
    fn correct(
        &self,
        _graph: &Graph,
        _p: NodeId,
        _mine: &usize,
        _neighbor: &usize,
        rng: &mut dyn RngCore,
    ) -> usize {
        use rand::Rng;
        rng.gen_range(0..self.palette.max(1))
    }

    fn output_bits(&self, _graph: &Graph, _p: NodeId) -> u64 {
        bits_for_domain(self.palette.max(1) as u64)
    }
}

/// A second edge-checkable specification used in tests and examples:
/// neighboring processes must hold values that differ by at least `gap`
/// modulo `modulus` (a toy frequency-assignment constraint). Corrections
/// redraw uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeparationSpec {
    /// Size of the value domain.
    pub modulus: usize,
    /// Minimal circular distance between neighboring values.
    pub gap: usize,
}

impl SeparationSpec {
    /// Creates the specification; `modulus` must be large enough for the
    /// graph's maximum degree (`modulus > 2 · gap · ∆` is always safe).
    pub fn new(modulus: usize, gap: usize) -> Self {
        SeparationSpec {
            modulus: modulus.max(1),
            gap,
        }
    }

    #[inline]
    fn circular_distance(&self, a: usize, b: usize) -> usize {
        let d = a.abs_diff(b) % self.modulus;
        d.min(self.modulus - d)
    }
}

impl EdgeCheckable for SeparationSpec {
    type Output = usize;

    fn name(&self) -> &'static str {
        "transformed-separation"
    }

    fn arbitrary_output(&self, _graph: &Graph, _p: NodeId, rng: &mut dyn RngCore) -> usize {
        use rand::Rng;
        rng.gen_range(0..self.modulus)
    }

    #[inline]
    fn conflict(&self, mine: &usize, neighbor: &usize) -> bool {
        self.circular_distance(*mine, *neighbor) < self.gap
    }

    #[inline]
    fn correct(
        &self,
        _graph: &Graph,
        _p: NodeId,
        _mine: &usize,
        _neighbor: &usize,
        rng: &mut dyn RngCore,
    ) -> usize {
        use rand::Rng;
        rng.gen_range(0..self.modulus)
    }

    fn output_bits(&self, _graph: &Graph, _p: NodeId) -> u64 {
        bits_for_domain(self.modulus as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfstab_graph::{generators, verify};
    use selfstab_runtime::scheduler::{DistributedRandom, Synchronous};
    use selfstab_runtime::{SimOptions, Simulation};

    #[test]
    fn transformed_coloring_stabilizes_and_is_one_efficient() {
        let graph = generators::grid(3, 4);
        let protocol = RoundRobinChecker::new(ColoringSpec::new(&graph));
        let mut sim = Simulation::new(
            &graph,
            protocol,
            DistributedRandom::new(0.5),
            3,
            SimOptions::default(),
        );
        let report = sim.run_until_silent(300_000);
        assert!(report.silent);
        let colors = RoundRobinChecker::<ColoringSpec>::output(sim.config());
        assert!(verify::is_proper_coloring(&graph, &colors));
        assert_eq!(sim.stats().measured_efficiency(), 1);
    }

    #[test]
    fn transformed_coloring_matches_the_handwritten_protocol_bits() {
        let graph = generators::star(9);
        let transformed = RoundRobinChecker::new(ColoringSpec::new(&graph));
        let handwritten = crate::coloring::Coloring::new(&graph);
        for p in graph.nodes() {
            assert_eq!(
                transformed.comm_bits(&graph, p),
                handwritten.comm_bits(&graph, p)
            );
            assert_eq!(
                transformed.state_bits(&graph, p),
                handwritten.state_bits(&graph, p)
            );
        }
    }

    #[test]
    fn separation_spec_stabilizes_on_a_ring() {
        let graph = generators::ring(8);
        // Ring has ∆ = 2; a modulus of 12 with gap 3 leaves plenty of room.
        let protocol = RoundRobinChecker::new(SeparationSpec::new(12, 3));
        let mut sim = Simulation::new(
            &graph,
            protocol,
            DistributedRandom::new(0.5),
            9,
            SimOptions::default(),
        );
        let report = sim.run_until_silent(500_000);
        assert!(report.silent);
        let values = RoundRobinChecker::<SeparationSpec>::output(sim.config());
        let spec = SeparationSpec::new(12, 3);
        for (p, q) in graph.edges() {
            assert!(!spec.conflict(&values[p.index()], &values[q.index()]));
        }
    }

    #[test]
    fn legitimate_configurations_are_silent() {
        let graph = generators::path(4);
        let protocol = RoundRobinChecker::new(ColoringSpec::new(&graph));
        let config: Vec<CheckerState<usize>> = (0..4)
            .map(|i| CheckerState {
                output: i % 2,
                cur: Port::new(0),
            })
            .collect();
        let mut sim = Simulation::with_config(
            &graph,
            protocol,
            Synchronous,
            config.clone(),
            2,
            SimOptions::default(),
        );
        assert!(sim.is_silent());
        sim.run_steps(100);
        assert_eq!(
            RoundRobinChecker::<ColoringSpec>::output(sim.config()),
            RoundRobinChecker::<ColoringSpec>::output(&config)
        );
    }

    #[test]
    fn separation_distance_is_circular() {
        let spec = SeparationSpec::new(10, 3);
        assert_eq!(spec.circular_distance(1, 9), 2);
        assert_eq!(spec.circular_distance(0, 5), 5);
        assert!(spec.conflict(&1, &9));
        assert!(!spec.conflict(&0, &5));
    }
}
