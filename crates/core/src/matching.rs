//! Protocol `MATCHING` (Figure 10): 1-efficient deterministic maximal
//! matching for locally-identified networks.
//!
//! Every process `p` maintains:
//!
//! * communication variables `M.p ∈ {true, false}` (am I married?) and
//!   `PR.p ∈ {0 .. δ.p}` (the neighbor I am married to / propose to, or 0
//!   when free),
//! * a communication **constant** `C.p` — a color unique in `p`'s
//!   neighborhood (provided by a [`LocalColoring`]),
//! * an internal variable `cur.p ∈ [1..δ.p]` — the neighbor currently
//!   checked (round-robin).
//!
//! Two neighbors are *married* when their `PR` variables point at each
//! other; the predicate `PRmarried(p) ≡ (PR.p = cur.p ∧ PR.(cur.p) = p)`
//! lets `p` evaluate this by reading only the neighbor designated by `cur.p`.
//! The six guarded actions (priority order) are transcribed verbatim in
//! `Matching`'s `activate`.
//!
//! The protocol reads one neighbor per activation (1-efficient), reaches a
//! silent configuration in at most `(∆+1)·n + 2` rounds (Lemma 9), every
//! silent configuration induces a maximal matching (Lemma 6), and it is
//! ♦-(2⌈m/(2∆−1)⌉, 1)-stable (Theorem 8): married processes end up reading
//! only their partner.

use rand::Rng;
use rand::RngCore;
use selfstab_graph::coloring::{Color, LocalColoring};
use selfstab_graph::{verify, Graph, NodeId, Port};
use selfstab_runtime::protocol::{bits_for_domain, Protocol};
use selfstab_runtime::view::NeighborView;

/// Full state of a process running [`Matching`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchingState {
    /// Communication variable `M.p`: whether `p` believes it is married.
    pub married: bool,
    /// Communication variable `PR.p`: `None` encodes the paper's `0`
    /// ("free"), `Some(port)` points at a neighbor.
    pub pr: Option<Port>,
    /// Internal variable `cur.p`: the neighbor currently checked.
    pub cur: Port,
}

/// Communication state of a process running [`Matching`]: everything a
/// neighbor reads when checking this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchingComm {
    /// `M.p`.
    pub married: bool,
    /// `PR.p`, expressed in the owner's local port numbering.
    pub pr: Option<Port>,
    /// The communication constant `C.p`.
    pub color: Color,
}

/// The `MATCHING` protocol of Figure 10.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matching {
    coloring: LocalColoring,
}

impl Matching {
    /// Creates the protocol from the local identifiers (a proper distance-1
    /// coloring) of the network.
    pub fn new(coloring: LocalColoring) -> Self {
        Matching { coloring }
    }

    /// Creates the protocol using a greedy distance-1 coloring of `graph` as
    /// the local identifiers.
    pub fn with_greedy_coloring(graph: &Graph) -> Self {
        Matching {
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

    /// The protocol's output: the set of matched edges
    /// `{{p, q} : inMM[q].p ∨ inMM[p].q}` of a configuration, each edge
    /// reported once, as `(p, q)` with `p < q`, in order of `p` and then of
    /// `p`'s ports.
    ///
    /// Linear in `m`, up to the `port_to` scan of each edge's upper
    /// endpoint: each edge is tested once, from its lower endpoint.
    pub fn output(&self, graph: &Graph, config: &[MatchingState]) -> Vec<(NodeId, NodeId)> {
        let mut edges = Vec::new();
        for p in graph.nodes() {
            for (port, q) in graph.ports(p).filter(|&(_, q)| p < q) {
                // The edge {p, q} is matched when inMM[q].p ∨ inMM[p].q.
                if self.in_mm(graph, config, p, port) || self.in_mm_towards(graph, config, q, p) {
                    edges.push((p, q));
                }
            }
        }
        edges
    }

    /// `inMM[q].p` where `q` is the neighbor behind `port` of `p`.
    fn in_mm(&self, graph: &Graph, config: &[MatchingState], p: NodeId, port: Port) -> bool {
        let state = &config[p.index()];
        if state.pr != Some(port) || state.cur != port {
            return false;
        }
        let q = graph.neighbor(p, port);
        config[q.index()].pr == graph.port_to(q, p)
    }

    /// `inMM[p].q` expressed with explicit endpoints (helper for `output`).
    fn in_mm_towards(&self, graph: &Graph, config: &[MatchingState], q: NodeId, p: NodeId) -> bool {
        match graph.port_to(q, p) {
            Some(port) => self.in_mm(graph, config, q, port),
            None => false,
        }
    }

    /// Lemma 9's convergence bound: at most `(∆+1)·n + 2` rounds to reach a
    /// silent configuration.
    pub fn round_bound(graph: &Graph) -> u64 {
        (graph.max_degree() as u64 + 1) * graph.node_count() as u64 + 2
    }

    /// Theorem 8's ♦-(x, 1)-stability bound: at least `2⌈m/(2∆−1)⌉`
    /// processes are eventually married (hence 1-stable).
    pub fn stability_bound(graph: &Graph) -> usize {
        verify::matching_stability_bound(graph)
    }
}

impl Protocol for Matching {
    type State = MatchingState;
    type Comm = MatchingComm;

    fn name(&self) -> &'static str {
        "matching-1-efficient"
    }

    fn arbitrary_state(&self, graph: &Graph, p: NodeId, rng: &mut dyn RngCore) -> MatchingState {
        let degree = graph.degree(p).max(1);
        let pr = if rng.gen_bool(0.5) {
            None
        } else {
            Some(Port::new(rng.gen_range(0..degree)))
        };
        MatchingState {
            married: rng.gen_bool(0.5),
            pr,
            cur: Port::new(rng.gen_range(0..degree)),
        }
    }

    #[inline]
    fn comm(&self, p: NodeId, state: &MatchingState) -> MatchingComm {
        MatchingComm {
            married: state.married,
            pr: state.pr,
            color: self.color(p),
        }
    }

    /// Evaluates the six guarded actions of `p` in priority order; returns
    /// the successor state or `None` when `p` is disabled.
    #[inline]
    fn activate(
        &self,
        graph: &Graph,
        p: NodeId,
        state: &MatchingState,
        view: &NeighborView<'_, MatchingComm>,
        _rng: &mut dyn RngCore,
    ) -> Option<MatchingState> {
        let degree = graph.degree(p);
        if degree == 0 {
            // A process with no neighbor can never be matched; it is
            // silent once its variables are sane.
            if state.married || state.pr.is_some() {
                return Some(MatchingState {
                    married: false,
                    pr: None,
                    cur: state.cur,
                });
            }
            return None;
        }
        let cur = state.cur.clamp_to_degree(degree);
        // Re-normalise a corrupted PR pointer into the domain {0..δ.p}.
        let pr = state.pr.map(|port| port.clamp_to_degree(degree));
        let q = graph.neighbor(p, cur);
        let neighbor = *view.read(cur);
        let my_color = self.color(p);
        let next = cur.next_round_robin(degree);
        // Does the checked neighbor's PR point back at p?
        let neighbor_points_back = neighbor.pr == graph.port_to(q, p);
        // PRmarried(p) ≡ PR.p = cur.p ∧ PR.(cur.p) = p.
        let pr_married = pr == Some(cur) && neighbor_points_back;

        // Action 1: PR.p ∉ {0, cur.p} → PR.p ← cur.p.
        if let Some(target) = pr {
            if target != cur {
                return Some(MatchingState {
                    married: state.married,
                    pr: Some(cur),
                    cur,
                });
            }
        }
        // Action 2: M.p ≠ PRmarried(p) → M.p ← PRmarried(p).
        if state.married != pr_married {
            return Some(MatchingState {
                married: pr_married,
                pr,
                cur,
            });
        }
        // Action 3: PR.p = 0 ∧ PR.(cur.p) = p → PR.p ← cur.p.
        if pr.is_none() && neighbor_points_back {
            return Some(MatchingState {
                married: state.married,
                pr: Some(cur),
                cur,
            });
        }
        // Action 4: PR.p = cur.p ∧ PR.(cur.p) ≠ p ∧ (M.(cur.p) ∨ C.(cur.p) ≺ C.p)
        //           → PR.p ← 0.
        if pr == Some(cur)
            && !neighbor_points_back
            && (neighbor.married || neighbor.color < my_color)
        {
            return Some(MatchingState {
                married: state.married,
                pr: None,
                cur,
            });
        }
        // Action 5: PR.p = 0 ∧ PR.(cur.p) = 0 ∧ C.p ≺ C.(cur.p) ∧ ¬M.(cur.p)
        //           → PR.p ← cur.p.
        if pr.is_none() && neighbor.pr.is_none() && my_color < neighbor.color && !neighbor.married {
            return Some(MatchingState {
                married: state.married,
                pr: Some(cur),
                cur,
            });
        }
        // Action 6: PR.p = 0 ∧ (PR.(cur.p) ≠ 0 ∨ C.(cur.p) ≺ C.p ∨ M.(cur.p))
        //           → advance cur.p.
        if pr.is_none() && (neighbor.pr.is_some() || neighbor.color < my_color || neighbor.married)
        {
            return Some(MatchingState {
                married: state.married,
                pr,
                cur: next,
            });
        }
        // If a corrupted out-of-range pointer was re-normalised, commit the
        // normalisation so the state stays within its domain.
        if pr != state.pr || cur != state.cur {
            return Some(MatchingState {
                married: state.married,
                pr,
                cur,
            });
        }
        None
    }

    fn comm_bits(&self, graph: &Graph, p: NodeId) -> u64 {
        // M (1 bit) + PR over {0..δ.p} + the color constant.
        1 + bits_for_domain(graph.degree(p) as u64 + 1)
            + bits_for_domain(self.coloring.color_count().max(1) as u64)
    }

    fn state_bits(&self, graph: &Graph, p: NodeId) -> u64 {
        self.comm_bits(graph, p) + bits_for_domain(graph.degree(p).max(1) as u64)
    }

    fn is_legitimate(&self, graph: &Graph, config: &[MatchingState]) -> bool {
        let edges = self.output(graph, config);
        verify::is_maximal_matching(graph, &edges)
    }

    /// A configuration is silent iff no continuation can ever change M or
    /// PR. Because free processes cycle their cur pointer over every
    /// neighbor, the conditions below quantify over all neighbors for
    /// free processes and over the current pointer only for engaged ones:
    ///
    ///  (a) PR.p ∈ {0, cur.p}                         (else action 1),
    ///  (b) M.p = PRmarried(p)                        (else action 2),
    ///  (c) if p points at q = cur.p and q does not point back:
    ///      ¬M.q ∧ C.p ≺ C.q                          (else action 4); a
    ///      configuration passing (c) at p is still flagged through q's
    ///      own conditions (see the module tests),
    ///  (d) if p is free: no neighbor q points at p (action 3 would fire
    ///      once cur.p reaches q) and no free unmarried neighbor q has
    ///      C.p ≺ C.q (action 5 would fire).
    #[inline]
    fn is_silent_at(
        &self,
        graph: &Graph,
        p: NodeId,
        state: &MatchingState,
        view: &NeighborView<'_, MatchingComm>,
    ) -> bool {
        let degree = graph.degree(p);
        if degree == 0 {
            return !state.married && state.pr.is_none();
        }
        let cur = state.cur.clamp_to_degree(degree);
        let pr = state.pr.map(|port| port.clamp_to_degree(degree));
        // An out-of-domain pointer will be rewritten; (a).
        if pr != state.pr || pr.is_some_and(|target| target != cur) {
            return false;
        }
        let points_back =
            |port: Port, q: &MatchingComm| q.pr == graph.port_to(graph.neighbor(p, port), p);
        let my_color = self.color(p);
        match pr {
            Some(port) => {
                let q = view.read(port);
                let pr_married = points_back(port, q);
                // (b), and (c) where p is waiting on q.
                state.married == pr_married && (pr_married || (!q.married && q.color >= my_color))
            }
            // (b), and (d): p is free.
            None => {
                !state.married
                    && view.read_all().iter().enumerate().all(|(i, q)| {
                        !points_back(Port::new(i), q)
                            && (q.pr.is_some() || q.married || q.color <= my_color)
                    })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use selfstab_graph::generators;
    use selfstab_runtime::protocol::is_silent_config;
    use selfstab_runtime::scheduler::{DistributedRandom, Synchronous};
    use selfstab_runtime::{SimOptions, Simulation};

    /// The reference for `Matching::output`, quadratic in the matching's
    /// size: every endpoint tests every edge, and `Vec::contains` drops
    /// the second report, so edges come in the order they are first met.
    fn quadratic_output(
        protocol: &Matching,
        graph: &Graph,
        config: &[MatchingState],
    ) -> Vec<(NodeId, NodeId)> {
        let mut edges = Vec::new();
        for p in graph.nodes() {
            for (port, q) in graph.ports(p) {
                if protocol.in_mm(graph, config, p, port)
                    || protocol.in_mm_towards(graph, config, q, p)
                {
                    let key = if p < q { (p, q) } else { (q, p) };
                    if !edges.contains(&key) {
                        edges.push(key);
                    }
                }
            }
        }
        edges
    }

    #[test]
    fn output_equals_the_quadratic_scan_on_every_generator_family() {
        let mut rng = StdRng::seed_from_u64(7);
        let graphs = [
            generators::path(7),
            generators::ring(9),
            generators::complete(6),
            generators::star(8),
            generators::wheel(7),
            generators::complete_bipartite(3, 4),
            generators::grid(3, 4),
            generators::torus(3, 4),
            generators::balanced_tree(2, 3),
            generators::caterpillar(4, 2),
            generators::lollipop(4, 3),
            generators::hypercube(3),
            generators::barbell(4, 2),
            generators::petersen(),
            generators::random_tree(20, &mut rng),
            generators::barabasi_albert(30, 2, &mut rng).unwrap(),
            generators::gnp_connected(20, 0.2, &mut rng).unwrap(),
            generators::gnm_connected(20, 40, &mut rng).unwrap(),
            generators::random_regular(12, 3, &mut rng).unwrap(),
            generators::theorem1_chain(),
            generators::theorem1_spliced_chain(),
            generators::theorem1_general(4).unwrap(),
            generators::theorem2_network().graph,
            generators::theorem2_general(4).unwrap().graph,
            generators::figure9_path(9),
            generators::figure11_example(),
            Graph::from_edges(5, &[(0, 1), (1, 2)]).unwrap(),
        ];
        for graph in &graphs {
            let protocol = protocol_for(graph);
            // Arbitrary configurations, and the same ones with every
            // process pointing at the neighbor it checks, where mutual
            // pointers (matched edges) are common.
            for _ in 0..20 {
                let mut config: Vec<MatchingState> = graph
                    .nodes()
                    .map(|p| protocol.arbitrary_state(graph, p, &mut rng))
                    .collect();
                let expected = quadratic_output(&protocol, graph, &config);
                assert_eq!(protocol.output(graph, &config), expected, "{graph}");
                for state in &mut config {
                    state.pr = Some(state.cur);
                }
                let expected = quadratic_output(&protocol, graph, &config);
                assert_eq!(protocol.output(graph, &config), expected, "{graph}");
            }
            // The silent configurations runs reach: maximal matchings.
            for seed in 0..3 {
                let mut sim = Simulation::new(
                    graph,
                    protocol.clone(),
                    DistributedRandom::new(0.5),
                    seed,
                    SimOptions::default(),
                );
                assert!(sim.run_until_silent(400_000).silent, "{graph}");
                let output = protocol.output(graph, sim.config());
                assert!(!output.is_empty(), "{graph}");
                let expected = quadratic_output(&protocol, graph, sim.config());
                assert_eq!(output, expected, "{graph}");
            }
        }
    }

    #[test]
    fn matching_state_rows_are_16_bytes() {
        // The executor writes one state row per activation: a flag, an
        // optional 32-bit `PR` port and a 32-bit `cur` port.
        assert_eq!(std::mem::size_of::<MatchingState>(), 16);
    }

    #[test]
    fn matching_comm_rows_are_16_bytes() {
        // Every activation reads one neighbor's comm row: a flag, an
        // optional 32-bit `PR` port and a 32-bit color constant.
        assert_eq!(std::mem::size_of::<MatchingComm>(), 16);
    }

    fn protocol_for(graph: &Graph) -> Matching {
        Matching::with_greedy_coloring(graph)
    }

    #[test]
    fn stabilizes_on_small_graphs() {
        for graph in [
            generators::path(8),
            generators::ring(9),
            generators::star(6),
            generators::grid(3, 4),
            generators::complete(5),
            generators::figure11_example(),
        ] {
            let protocol = protocol_for(&graph);
            let mut sim = Simulation::new(
                &graph,
                protocol,
                DistributedRandom::new(0.5),
                23,
                SimOptions::default(),
            );
            let report = sim.run_until_silent(400_000);
            assert!(report.silent, "MATCHING did not stabilize on {graph}");
            assert!(
                report.legitimate,
                "silent but not a maximal matching on {graph}"
            );
        }
    }

    #[test]
    fn silent_configurations_induce_maximal_matchings() {
        let graph = generators::grid(3, 3);
        for seed in 0..20 {
            let protocol = protocol_for(&graph);
            let mut sim = Simulation::new(
                &graph,
                protocol,
                DistributedRandom::new(0.6),
                seed,
                SimOptions::default(),
            );
            let report = sim.run_until_silent(400_000);
            assert!(report.silent, "seed {seed}");
            let edges = sim.protocol().output(&graph, sim.config());
            assert!(
                verify::is_maximal_matching(&graph, &edges),
                "silent configuration does not induce a maximal matching (seed {seed})"
            );
        }
    }

    #[test]
    fn is_one_efficient_in_every_step() {
        let graph = generators::ring(10);
        let protocol = protocol_for(&graph);
        let mut sim = Simulation::new(&graph, protocol, Synchronous, 3, SimOptions::default());
        sim.run_until_silent(200_000);
        assert_eq!(sim.stats().measured_efficiency(), 1);
    }

    #[test]
    fn round_bound_of_lemma_9_holds_under_synchronous_daemon() {
        for (graph, seed) in [
            (generators::path(8), 1u64),
            (generators::ring(8), 2),
            (generators::grid(3, 4), 3),
            (generators::figure11_example(), 4),
        ] {
            let protocol = protocol_for(&graph);
            let bound = Matching::round_bound(&graph);
            let mut sim =
                Simulation::new(&graph, protocol, Synchronous, seed, SimOptions::default());
            let report = sim.run_until_silent(500_000);
            assert!(report.silent, "no silence on {graph}");
            assert!(
                report.total_rounds <= bound,
                "stabilized in {} rounds, bound is {} on {graph}",
                report.total_rounds,
                bound
            );
        }
    }

    #[test]
    fn stability_bound_of_theorem_8_holds() {
        let graph = generators::figure11_example();
        let protocol = protocol_for(&graph);
        let bound = Matching::stability_bound(&graph);
        assert_eq!(bound, 4);
        let mut sim = Simulation::new(
            &graph,
            protocol,
            DistributedRandom::new(0.5),
            31,
            SimOptions::default(),
        );
        let report = sim.run_until_silent(400_000);
        assert!(report.silent);
        let matched = sim.protocol().output(&graph, sim.config()).len() * 2;
        assert!(
            matched >= bound,
            "only {matched} matched processes, bound {bound}"
        );
        // Married processes are 1-stable on the suffix: they keep reading
        // their partner only.
        sim.mark_suffix();
        sim.run_steps(2_000);
        assert!(sim.stats().stable_process_count(sim.graph(), 1) >= bound);
    }

    #[test]
    fn married_pair_is_silent_and_detected() {
        let graph = generators::path(2);
        let coloring = LocalColoring::new(&graph, vec![0, 1]).unwrap();
        let protocol = Matching::new(coloring);
        let married = vec![
            MatchingState {
                married: true,
                pr: Some(Port::new(0)),
                cur: Port::new(0),
            },
            MatchingState {
                married: true,
                pr: Some(Port::new(0)),
                cur: Port::new(0),
            },
        ];
        assert!(is_silent_config(&protocol, &graph, &married));
        assert!(protocol.is_legitimate(&graph, &married));
        assert_eq!(
            protocol.output(&graph, &married),
            vec![(NodeId::new(0), NodeId::new(1))]
        );

        // Two free neighbors are never silent: the smaller color proposes.
        let free = vec![
            MatchingState {
                married: false,
                pr: None,
                cur: Port::new(0),
            },
            MatchingState {
                married: false,
                pr: None,
                cur: Port::new(0),
            },
        ];
        assert!(!is_silent_config(&protocol, &graph, &free));
        assert!(!protocol.is_legitimate(&graph, &free));
    }

    #[test]
    fn lying_married_flag_is_corrected() {
        // A transient fault sets M.p = true on a free process: action 2
        // corrects it within one activation.
        let graph = generators::path(3);
        let protocol = protocol_for(&graph);
        let config = vec![
            MatchingState {
                married: true,
                pr: None,
                cur: Port::new(0),
            },
            MatchingState {
                married: false,
                pr: None,
                cur: Port::new(0),
            },
            MatchingState {
                married: true,
                pr: None,
                cur: Port::new(0),
            },
        ];
        let mut sim = Simulation::with_config(
            &graph,
            protocol,
            Synchronous,
            config,
            7,
            SimOptions::default(),
        );
        let report = sim.run_until_silent(10_000);
        assert!(report.silent);
        assert!(report.legitimate);
    }

    #[test]
    fn initial_pointer_cycles_are_broken() {
        // A 3-cycle of PR pointers (p0 → p1 → p2 → p0) must be broken by the
        // color rule (action 4) and still converge to a maximal matching.
        let graph = generators::ring(3);
        let protocol = protocol_for(&graph);
        let port_to = |a: usize, b: usize| {
            graph
                .port_to(NodeId::new(a), NodeId::new(b))
                .expect("neighbors")
        };
        let config = vec![
            MatchingState {
                married: false,
                pr: Some(port_to(0, 1)),
                cur: port_to(0, 1),
            },
            MatchingState {
                married: false,
                pr: Some(port_to(1, 2)),
                cur: port_to(1, 2),
            },
            MatchingState {
                married: false,
                pr: Some(port_to(2, 0)),
                cur: port_to(2, 0),
            },
        ];
        let mut sim = Simulation::with_config(
            &graph,
            protocol,
            Synchronous,
            config,
            9,
            SimOptions::default(),
        );
        let report = sim.run_until_silent(100_000);
        assert!(report.silent);
        assert!(report.legitimate);
        assert_eq!(sim.protocol().output(&graph, sim.config()).len(), 1);
    }

    #[test]
    fn out_of_range_pointers_from_faults_are_normalised() {
        let graph = generators::path(4);
        let protocol = protocol_for(&graph);
        let config = vec![
            MatchingState {
                married: true,
                pr: Some(Port::new(9)),
                cur: Port::new(7),
            },
            MatchingState {
                married: false,
                pr: Some(Port::new(3)),
                cur: Port::new(5),
            },
            MatchingState {
                married: true,
                pr: None,
                cur: Port::new(2),
            },
            MatchingState {
                married: false,
                pr: Some(Port::new(1)),
                cur: Port::new(0),
            },
        ];
        let mut sim = Simulation::with_config(
            &graph,
            protocol,
            DistributedRandom::new(0.7),
            config,
            13,
            SimOptions::default(),
        );
        let report = sim.run_until_silent(200_000);
        assert!(report.silent);
        assert!(report.legitimate);
    }

    #[test]
    fn complexity_accounting() {
        let graph = generators::star(5); // center degree 4
        let protocol = protocol_for(&graph);
        // M (1) + PR over {0..4} (3 bits) + color over 2 colors (1 bit).
        assert_eq!(protocol.comm_bits(&graph, NodeId::new(0)), 1 + 3 + 1);
        // ... plus cur over 4 ports (2 bits).
        assert_eq!(protocol.state_bits(&graph, NodeId::new(0)), 1 + 3 + 1 + 2);
        assert_eq!(Matching::round_bound(&graph), 5 * 5 + 2);
    }

    #[test]
    fn isolated_process_stays_free_and_silent() {
        let graph = Graph::from_edges(3, &[(0, 1)]).unwrap();
        let protocol = Matching::with_greedy_coloring(&graph);
        let mut sim = Simulation::new(&graph, protocol, Synchronous, 5, SimOptions::default());
        let report = sim.run_until_silent(10_000);
        assert!(report.silent);
        let s = &sim.config()[2];
        assert!(!s.married);
        assert!(s.pr.is_none());
    }
}
