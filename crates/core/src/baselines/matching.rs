//! Δ-efficient baseline maximal matching (local checking).
//!
//! Deterministic protocol in the style of Manne, Mjelde, Pilard & Tixeuil
//! (the algorithm the paper's `MATCHING` is derived from): every activation
//! reads the variables of **all** neighbors. A process maintains a pointer
//! `PR` and a married flag `M` and applies, in priority order:
//!
//! 1. update `M` to whether the pointed neighbor points back,
//! 2. abandon a proposal to a neighbor that is married to someone else or
//!    has a smaller color,
//! 3. accept a proposal (some neighbor points at it),
//! 4. propose to a free, unmarried neighbor of larger color.
//!
//! Unlike the 1-efficient `MATCHING`, this baseline has no `cur` pointer:
//! a stabilized process is simply disabled, but discovering that requires
//! reading every neighbor at every check — the `∆ ·` communication factor
//! the paper eliminates.

use rand::Rng;
use rand::RngCore;
use selfstab_graph::coloring::{Color, LocalColoring};
use selfstab_graph::{verify, Graph, NodeId, Port};
use selfstab_runtime::protocol::{bits_for_domain, Protocol};
use selfstab_runtime::view::NeighborView;

use crate::matching::MatchingComm;

/// State of a process running [`BaselineMatching`]: both variables are
/// communication variables; there is no internal variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaselineMatchingState {
    /// `M.p`.
    pub married: bool,
    /// `PR.p`: `None` is the paper's `0`.
    pub pr: Option<Port>,
}

/// The Δ-efficient baseline maximal matching protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineMatching {
    coloring: LocalColoring,
}

impl BaselineMatching {
    /// Creates the protocol from the local identifiers of the network.
    pub fn new(coloring: LocalColoring) -> Self {
        BaselineMatching { coloring }
    }

    /// Creates the protocol using a greedy distance-1 coloring of `graph`.
    pub fn with_greedy_coloring(graph: &Graph) -> Self {
        BaselineMatching {
            coloring: selfstab_graph::coloring::greedy(graph),
        }
    }

    /// The local identifiers used by this instance.
    pub fn coloring(&self) -> &LocalColoring {
        &self.coloring
    }

    #[inline]
    fn color(&self, p: NodeId) -> Color {
        self.coloring.color(p)
    }

    /// The matched edges of a configuration (mutually pointing pairs).
    pub fn output(&self, graph: &Graph, config: &[BaselineMatchingState]) -> Vec<(NodeId, NodeId)> {
        let mut edges = Vec::new();
        for p in graph.nodes() {
            if let Some(port) = config[p.index()].pr {
                if port.index() >= graph.degree(p) {
                    continue;
                }
                let q = graph.neighbor(p, port);
                if p < q && config[q.index()].pr == graph.port_to(q, p) {
                    edges.push((p, q));
                }
            }
        }
        edges
    }
}

impl Protocol for BaselineMatching {
    type State = BaselineMatchingState;
    type Comm = MatchingComm;

    fn name(&self) -> &'static str {
        "matching-baseline-delta-efficient"
    }

    fn arbitrary_state(
        &self,
        graph: &Graph,
        p: NodeId,
        rng: &mut dyn RngCore,
    ) -> BaselineMatchingState {
        let degree = graph.degree(p).max(1);
        let pr = if rng.gen_bool(0.5) {
            None
        } else {
            Some(Port::new(rng.gen_range(0..degree)))
        };
        BaselineMatchingState {
            married: rng.gen_bool(0.5),
            pr,
        }
    }

    #[inline]
    fn comm(&self, p: NodeId, state: &BaselineMatchingState) -> MatchingComm {
        MatchingComm {
            married: state.married,
            pr: state.pr,
            color: self.color(p),
        }
    }

    #[inline]
    fn activate(
        &self,
        graph: &Graph,
        p: NodeId,
        state: &BaselineMatchingState,
        view: &NeighborView<'_, MatchingComm>,
        _rng: &mut dyn RngCore,
    ) -> Option<BaselineMatchingState> {
        let degree = graph.degree(p);
        if degree == 0 {
            if state.married || state.pr.is_some() {
                return Some(BaselineMatchingState {
                    married: false,
                    pr: None,
                });
            }
            return None;
        }
        let my_color = self.color(p);
        let neighbors = view.read_all();
        let pr = state.pr.map(|port| port.clamp_to_degree(degree));
        let points_back = |port: Port| {
            let q = graph.neighbor(p, port);
            neighbors[port].pr == graph.port_to(q, p)
        };
        let married_now = pr.map(points_back).unwrap_or(false);

        // Rule 1: keep M consistent.
        if state.married != married_now {
            return Some(BaselineMatchingState {
                married: married_now,
                pr,
            });
        }
        match pr {
            Some(port) if !points_back(port) => {
                let n = &neighbors[port];
                // Rule 2: abandon a hopeless proposal.
                if n.married || n.color < my_color {
                    return Some(BaselineMatchingState {
                        married: state.married,
                        pr: None,
                    });
                }
                // Otherwise keep waiting for the neighbor to accept.
                // A corrupted out-of-range pointer is normalised.
                if pr != state.pr {
                    return Some(BaselineMatchingState {
                        married: state.married,
                        pr,
                    });
                }
                None
            }
            Some(_) => {
                // Married and consistent: disabled.
                if pr != state.pr {
                    return Some(BaselineMatchingState {
                        married: state.married,
                        pr,
                    });
                }
                None
            }
            None => {
                // Rule 3: accept the proposal of the smallest-color suitor.
                let suitor = (0..degree)
                    .map(Port::new)
                    .filter(|&port| points_back(port))
                    .min_by_key(|&port| neighbors[port].color);
                if let Some(port) = suitor {
                    return Some(BaselineMatchingState {
                        married: state.married,
                        pr: Some(port),
                    });
                }
                // Rule 4: propose to the smallest-color free unmarried
                // neighbor of larger color.
                let target = (0..degree)
                    .map(Port::new)
                    .filter(|&port| {
                        let n = &neighbors[port];
                        n.pr.is_none() && !n.married && my_color < n.color
                    })
                    .min_by_key(|&port| neighbors[port].color);
                if let Some(port) = target {
                    return Some(BaselineMatchingState {
                        married: state.married,
                        pr: Some(port),
                    });
                }
                None
            }
        }
    }

    fn comm_bits(&self, graph: &Graph, p: NodeId) -> u64 {
        1 + bits_for_domain(graph.degree(p) as u64 + 1)
            + bits_for_domain(self.coloring.color_count().max(1) as u64)
    }

    fn state_bits(&self, graph: &Graph, p: NodeId) -> u64 {
        self.comm_bits(graph, p)
    }

    fn is_legitimate(&self, graph: &Graph, config: &[BaselineMatchingState]) -> bool {
        verify::is_maximal_matching(graph, &self.output(graph, config))
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
            generators::path(9),
            generators::ring(8),
            generators::star(7),
            generators::grid(3, 4),
            generators::figure11_example(),
        ] {
            let protocol = BaselineMatching::with_greedy_coloring(&graph);
            let mut sim = Simulation::new(
                &graph,
                protocol,
                CentralRandom::enabled_only(),
                3,
                SimOptions::default(),
            );
            let report = sim.run_until_silent(300_000);
            assert!(report.silent, "no silence on {graph}");
            assert!(report.legitimate, "not a maximal matching on {graph}");
        }
    }

    #[test]
    fn stabilizes_under_distributed_daemon() {
        let graph = generators::grid(3, 4);
        let protocol = BaselineMatching::with_greedy_coloring(&graph);
        let mut sim = Simulation::new(
            &graph,
            protocol,
            DistributedRandom::new(0.5),
            17,
            SimOptions::default(),
        );
        let report = sim.run_until_silent(300_000);
        assert!(report.silent);
        assert!(report.legitimate);
    }

    #[test]
    fn reads_every_neighbor_each_step() {
        let graph = generators::star(6);
        let protocol = BaselineMatching::with_greedy_coloring(&graph);
        let config = vec![
            BaselineMatchingState {
                married: false,
                pr: None
            };
            6
        ];
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
    fn matched_output_respects_the_biedl_bound() {
        let graph = generators::figure11_example();
        let protocol = BaselineMatching::with_greedy_coloring(&graph);
        let mut sim = Simulation::new(
            &graph,
            protocol,
            CentralRandom::enabled_only(),
            19,
            SimOptions::default(),
        );
        let report = sim.run_until_silent(300_000);
        assert!(report.silent);
        let edges = sim.protocol().output(&graph, sim.config());
        assert!(edges.len() >= verify::maximal_matching_size_lower_bound(&graph));
        assert!(verify::is_maximal_matching(&graph, &edges));
    }
}
