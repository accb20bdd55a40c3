//! Property-based tests of the three 1-efficient protocols.
//!
//! These check, over randomly generated connected topologies, random seeds
//! and random initial configurations, the paper's main claims:
//!
//! * convergence to a silent configuration satisfying the problem predicate,
//! * 1-efficiency in every step (Definition 4),
//! * the round bounds of Lemma 4 and Lemma 9,
//! * the ♦-(x, 1)-stability bounds of Theorems 6 and 8,
//! * closure of the legitimacy predicates,
//! * the measures `RunStats` reports (each process's selections,
//!   k-efficiency, its suffix form, and the k-stable and ♦-k-stable
//!   process counts) equal the same measures recomputed from the run's
//!   step records.
//!
//! They also check the `Protocol` contract on the protocols that keep a
//! hand-written guard (COLORING, its baseline, MIS, the transformer and the
//! leader election): each guard agrees with whether `activate` moves, and
//! a mutant guard fails the same check. Every shipped protocol's
//! `is_silent_at` holds at every process where no guard does, a
//! configuration the reference calls silent keeps its communication
//! variables fixed, and a simulation started there agrees with the
//! reference.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use selfstab_core::baselines::{BaselineColoring, BaselineMatching, BaselineMis};
use selfstab_core::coloring::{Coloring, ColoringState};
use selfstab_core::impossibility::{FrozenReadColoring, FrozenReadMis};
use selfstab_core::matching::Matching;
use selfstab_core::mis::{Membership, Mis};
use selfstab_core::spanning::{BfsTree, LeaderElection};
use selfstab_core::transformer::{ColoringSpec, RoundRobinChecker, SeparationSpec};
use selfstab_graph::coloring::greedy;
use selfstab_graph::{generators, longest_path, verify, Graph, Identifiers, NodeId, Port};
use selfstab_runtime::protocol::is_silent_config;
use selfstab_runtime::scheduler::{DistributedRandom, Synchronous};
use selfstab_runtime::view::NeighborView;
use selfstab_runtime::{Protocol, SimOptions, Simulation, StepRecord};

fn random_connected_graph(n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let p = 0.15 + 3.0 / n as f64;
    generators::gnp_connected(n, p.min(1.0), &mut rng).expect("valid parameters")
}

/// What one process did over some step records.
struct Reads {
    /// Its activations.
    activations: u64,
    /// The most distinct ports one of its activations read (Definition
    /// 4's `k` for it).
    most: usize,
    /// The size of its read set.
    read_set: usize,
}

/// What each of the `n` processes did over `records`, rebuilt by its own
/// scan with a linear `contains` probe.
fn reads_per_process(records: &[StepRecord], n: usize) -> Vec<Reads> {
    (0..n)
        .map(|p| {
            let mut reads = Reads {
                activations: 0,
                most: 0,
                read_set: 0,
            };
            let mut ports: Vec<Port> = Vec::new();
            for activation in records.iter().flat_map(|r| &r.activations) {
                if activation.process.index() != p {
                    continue;
                }
                reads.activations += 1;
                reads.most = reads.most.max(activation.reads.len());
                for &port in &activation.reads {
                    if !ports.contains(&port) {
                        ports.push(port);
                    }
                }
            }
            reads.read_set = ports.len();
            reads
        })
        .collect()
}

/// Runs `protocol` under `DistributedRandom(0.5)`, recording its trace: to
/// silence, then the suffix marker, then 300
/// more steps. Every measure `RunStats` reports, per process (selections
/// and read sets) and in aggregate, must equal the same measure
/// recomputed from the decoded step records.
fn assert_run_stats_match_the_records<P: Protocol>(graph: &Graph, protocol: P, seed: u64) {
    let name = protocol.name();
    let mut sim = Simulation::new(
        graph,
        protocol,
        DistributedRandom::new(0.5),
        seed,
        SimOptions::default(),
    );
    sim.record_trace();
    let report = sim.run_until_silent(1_000_000);
    assert!(report.silent, "{name} did not stabilize on {graph}");
    let marker = sim.steps();
    sim.mark_suffix();
    sim.run_steps(300);

    let records = sim.trace().expect("recording").records();
    assert_eq!(records.len() as u64, sim.steps(), "{name}");
    let suffix = &records[records.partition_point(|r| r.step < marker)..];
    let ever = reads_per_process(&records, graph.node_count());
    let since_marker = reads_per_process(suffix, graph.node_count());
    let stats = sim.stats();
    for p in graph.nodes() {
        let reported = (
            stats.process(p).selections,
            stats.distinct_neighbors_ever(graph, p),
            stats.distinct_neighbors_since_marker(graph, p),
        );
        let from_records = (
            ever[p.index()].activations,
            ever[p.index()].read_set,
            since_marker[p.index()].read_set,
        );
        assert_eq!(reported, from_records, "{name}, {p}");
    }
    let most = |reads: &[Reads]| reads.iter().map(|r| r.most).max().unwrap_or(0);
    assert_eq!(stats.measured_efficiency(), most(&ever), "{name}");
    assert_eq!(
        stats.suffix_measured_efficiency(),
        most(&since_marker),
        "{name}"
    );
    for k in 0..=graph.max_degree() + 1 {
        let at_most_k = |reads: &[Reads]| reads.iter().filter(|r| r.read_set <= k).count();
        let counts = (
            stats.k_stable_process_count(graph, k),
            stats.stable_process_count(graph, k),
        );
        assert_eq!(
            counts,
            (at_most_k(&ever), at_most_k(&since_marker)),
            "{name}, k = {k}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn run_stats_measures_match_the_decoded_records(
        n in 4usize..24,
        graph_seed in 0u64..1_000,
        run_seed in 0u64..1_000,
    ) {
        let graph = random_connected_graph(n, graph_seed);
        assert_run_stats_match_the_records(&graph, Coloring::new(&graph), run_seed);
        assert_run_stats_match_the_records(&graph, Mis::with_greedy_coloring(&graph), run_seed);
        assert_run_stats_match_the_records(
            &graph,
            Matching::with_greedy_coloring(&graph),
            run_seed,
        );
    }

    #[test]
    fn coloring_stabilizes_and_is_one_efficient(
        n in 4usize..24,
        graph_seed in 0u64..1_000,
        run_seed in 0u64..1_000,
    ) {
        let graph = random_connected_graph(n, graph_seed);
        let protocol = Coloring::new(&graph);
        let mut sim = Simulation::new(
            &graph,
            protocol,
            DistributedRandom::new(0.5),
            run_seed,
            SimOptions::default(),
        );
        let report = sim.run_until_silent(1_000_000);
        prop_assert!(report.silent, "COLORING did not stabilize on {graph}");
        prop_assert!(verify::is_proper_coloring(&graph, &Coloring::output(sim.config())));
        prop_assert!(sim.stats().measured_efficiency() <= 1);
    }

    #[test]
    fn mis_stabilizes_within_the_lemma4_bound(
        n in 4usize..22,
        graph_seed in 0u64..1_000,
        run_seed in 0u64..1_000,
    ) {
        let graph = random_connected_graph(n, graph_seed);
        let protocol = Mis::with_greedy_coloring(&graph);
        let bound = protocol.round_bound(&graph);
        // Under the synchronous daemon every step is a round, which makes
        // the Lemma 4 bound directly checkable.
        let mut sim = Simulation::new(
            &graph,
            protocol,
            Synchronous,
            run_seed,
            SimOptions::default(),
        );
        let report = sim.run_until_silent(bound + 10);
        prop_assert!(report.silent, "MIS exceeded the ∆·#C round bound on {graph}");
        prop_assert!(report.total_rounds <= bound + 1);
        prop_assert!(verify::is_maximal_independent_set(&graph, &Mis::output(sim.config())));
        prop_assert!(sim.stats().measured_efficiency() <= 1);
    }

    #[test]
    fn mis_satisfies_the_theorem6_stability_bound(
        n in 4usize..16,
        graph_seed in 0u64..500,
        run_seed in 0u64..500,
    ) {
        let graph = random_connected_graph(n, graph_seed);
        let protocol = Mis::with_greedy_coloring(&graph);
        let lmax = longest_path::longest_path_exact(&graph);
        let bound = Mis::stability_bound(lmax);
        let mut sim = Simulation::new(
            &graph,
            protocol,
            DistributedRandom::new(0.5),
            run_seed,
            SimOptions::default(),
        );
        let report = sim.run_until_silent(1_000_000);
        prop_assert!(report.silent);
        // The dominated processes are the eventually-1-stable ones.
        let dominated = sim
            .config()
            .iter()
            .filter(|s| s.status == Membership::Dominated)
            .count();
        prop_assert!(
            dominated >= bound,
            "{dominated} dominated processes < bound {bound} (Lmax = {lmax}) on {graph}"
        );
        sim.mark_suffix();
        sim.run_steps(1_000);
        prop_assert!(sim.stats().stable_process_count(sim.graph(), 1) >= bound);
    }

    #[test]
    fn matching_stabilizes_within_the_lemma9_bound(
        n in 4usize..20,
        graph_seed in 0u64..1_000,
        run_seed in 0u64..1_000,
    ) {
        let graph = random_connected_graph(n, graph_seed);
        let protocol = Matching::with_greedy_coloring(&graph);
        let bound = Matching::round_bound(&graph);
        let mut sim = Simulation::new(
            &graph,
            protocol,
            Synchronous,
            run_seed,
            SimOptions::default(),
        );
        let report = sim.run_until_silent(bound + 10);
        prop_assert!(report.silent, "MATCHING exceeded the (∆+1)n+2 round bound on {graph}");
        let edges = sim.protocol().output(&graph, sim.config());
        prop_assert!(verify::is_maximal_matching(&graph, &edges));
        prop_assert!(sim.stats().measured_efficiency() <= 1);
        // Theorem 8: at least 2⌈m/(2∆−1)⌉ processes are matched.
        prop_assert!(2 * edges.len() >= Matching::stability_bound(&graph));
    }

    #[test]
    fn coloring_predicate_is_closed(
        n in 4usize..20,
        graph_seed in 0u64..1_000,
        run_seed in 0u64..1_000,
    ) {
        let graph = random_connected_graph(n, graph_seed);
        let protocol = Coloring::new(&graph);
        // Start from a legitimate configuration produced by the greedy
        // coloring; run for a while; the colors must never change.
        let greedy = selfstab_graph::coloring::greedy(&graph);
        let config: Vec<_> = graph
            .nodes()
            .map(|p| selfstab_core::coloring::ColoringState {
                color: greedy.color(p) as usize,
                cur: selfstab_graph::Port::new(0),
            })
            .collect();
        let mut sim = Simulation::with_config(
            &graph,
            protocol,
            DistributedRandom::new(0.7),
            config.clone(),
            run_seed,
            SimOptions::default(),
        );
        prop_assert!(sim.is_legitimate());
        sim.run_steps(500);
        prop_assert_eq!(Coloring::output(sim.config()), Coloring::output(&config));
        prop_assert_eq!(sim.stats().total_comm_changes(), 0);
    }

    #[test]
    fn mis_and_matching_tolerate_adversarial_port_labellings(
        n in 4usize..16,
        graph_seed in 0u64..500,
        shuffle_seed in 0u64..500,
    ) {
        // Correctness must not depend on the local port numbering (the
        // impossibility proofs exploit adversarial labellings; the positive
        // protocols must shrug them off).
        let base = random_connected_graph(n, graph_seed);
        let mut rng = StdRng::seed_from_u64(shuffle_seed);
        let graph = base.shuffle_ports(&mut rng);
        let mis = Mis::with_greedy_coloring(&graph);
        let mut sim = Simulation::new(
            &graph,
            mis,
            DistributedRandom::new(0.5),
            shuffle_seed,
            SimOptions::default(),
        );
        let report = sim.run_until_silent(1_000_000);
        prop_assert!(report.silent);
        prop_assert!(report.legitimate);

        let matching = Matching::with_greedy_coloring(&graph);
        let mut sim = Simulation::new(
            &graph,
            matching,
            DistributedRandom::new(0.5),
            shuffle_seed.wrapping_add(1),
            SimOptions::default(),
        );
        let report = sim.run_until_silent(1_000_000);
        prop_assert!(report.silent);
        prop_assert!(report.legitimate);
    }

    #[test]
    fn silence_implies_legitimacy_for_all_three_protocols(
        n in 4usize..16,
        graph_seed in 0u64..500,
        run_seed in 0u64..500,
    ) {
        // Lemmas 1, 3 and 6: every silent configuration satisfies the
        // problem predicate.
        let graph = random_connected_graph(n, graph_seed);

        let coloring = Coloring::new(&graph);
        let mut sim = Simulation::new(&graph, coloring, DistributedRandom::new(0.5), run_seed, SimOptions::default());
        if sim.run_until_silent(500_000).silent {
            prop_assert!(sim.is_legitimate());
        }

        let mis = Mis::with_greedy_coloring(&graph);
        let mut sim = Simulation::new(&graph, mis, DistributedRandom::new(0.5), run_seed, SimOptions::default());
        if sim.run_until_silent(500_000).silent {
            prop_assert!(sim.is_legitimate());
        }

        let matching = Matching::with_greedy_coloring(&graph);
        let mut sim = Simulation::new(&graph, matching, DistributedRandom::new(0.5), run_seed, SimOptions::default());
        if sim.run_until_silent(500_000).silent {
            prop_assert!(sim.is_legitimate());
        }
    }
}

/// The first disagreement between `protocol`'s `is_enabled` and whether
/// its `activate` moves, over 50 random configurations of `graph` and four
/// activation generators each, or `None` when they always agree.
fn guard_disagreement<P: Protocol>(graph: &Graph, protocol: &P) -> Option<String> {
    for config_seed in 0..50u64 {
        let mut rng = StdRng::seed_from_u64(config_seed);
        let config: Vec<P::State> = graph
            .nodes()
            .map(|p| protocol.arbitrary_state(graph, p, &mut rng))
            .collect();
        let snapshot: Vec<P::Comm> = graph
            .nodes()
            .map(|p| protocol.comm(p, &config[p.index()]))
            .collect();
        for p in graph.nodes() {
            let state = &config[p.index()];
            let view = NeighborView::from_snapshot(graph, p, &snapshot);
            let enabled = protocol.is_enabled(graph, p, state, &view);
            for rng_seed in 0..4u64 {
                let view = NeighborView::from_snapshot(graph, p, &snapshot);
                let mut rng = StdRng::seed_from_u64(rng_seed);
                let moved = protocol
                    .activate(graph, p, state, &view, &mut rng)
                    .is_some();
                if moved != enabled {
                    return Some(format!(
                        "{} on {graph}, configuration seed {config_seed}, process {p}, \
                         rng seed {rng_seed}: is_enabled says {enabled}, activate moved: {moved}",
                        protocol.name()
                    ));
                }
            }
        }
    }
    None
}

/// A grid, a star (its leaves have degree 1) and a graph with an isolated
/// process (degree 0).
fn contract_graphs() -> [Graph; 3] {
    [
        generators::grid(3, 3),
        generators::star(6),
        Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3)]).expect("valid edges"),
    ]
}

/// The `Protocol` contract binds every hand-written guard: it is an
/// optimisation of the guard `activate` defines, so it must say whether
/// the activation moves, whatever generator the activation draws from.
#[test]
fn hand_written_guards_agree_with_activate() {
    for graph in contract_graphs() {
        assert_eq!(guard_disagreement(&graph, &Coloring::new(&graph)), None);
        assert_eq!(
            guard_disagreement(&graph, &BaselineColoring::new(&graph)),
            None
        );
        // MIS's guard reads nothing at a Dominator: the graphs' isolated
        // process is the one place a Dominator is disabled, and a leaf's
        // checked neighbour is its only one.
        assert_eq!(
            guard_disagreement(&graph, &Mis::with_greedy_coloring(&graph)),
            None
        );
        let transformed = RoundRobinChecker::new(ColoringSpec::new(&graph));
        assert_eq!(guard_disagreement(&graph, &transformed), None);
        let separation = SeparationSpec::new(4 * graph.max_degree() + 1, 2);
        assert_eq!(
            guard_disagreement(&graph, &RoundRobinChecker::new(separation)),
            None
        );
        let election = LeaderElection::new(&graph, Identifiers::sequential(graph.node_count()));
        assert_eq!(guard_disagreement(&graph, &election), None);
    }
}

/// The first breach of the silence contract by `protocol` on `graph`, or
/// `None` when there is none: (a) `is_silent_at` must hold at every
/// process whose guard does not, so a configuration where no process is
/// enabled is silent, (b) from a configuration the reference
/// `is_silent_config` reports silent, `100·n` steps of the distributed
/// daemon must change no communication variable, and (c) a simulation
/// started there must say what the reference says. Checked on `extra`, on
/// 50 random configurations and on the configurations `run_until_silent`
/// reaches from them.
fn silence_breach<P: Protocol + Clone>(
    graph: &Graph,
    protocol: &P,
    extra: &[Vec<P::State>],
) -> Option<String> {
    let simulation = |config: &[P::State], seed| {
        Simulation::with_config(
            graph,
            protocol.clone(),
            DistributedRandom::new(0.5),
            config.to_vec(),
            seed,
            SimOptions::default(),
        )
    };
    let mut configs = extra.to_vec();
    for seed in 0..50u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let config: Vec<P::State> = graph
            .nodes()
            .map(|p| protocol.arbitrary_state(graph, p, &mut rng))
            .collect();
        let mut sim = simulation(&config, seed);
        sim.run_until_silent(5_000);
        configs.push(config);
        configs.push(sim.config().to_vec());
    }
    let name = protocol.name();
    for (i, config) in configs.iter().enumerate() {
        if configs[..i].contains(config) {
            continue;
        }
        let snapshot: Vec<P::Comm> = graph
            .nodes()
            .map(|p| protocol.comm(p, &config[p.index()]))
            .collect();
        for p in graph.nodes() {
            let state = &config[p.index()];
            let view = NeighborView::from_snapshot(graph, p, &snapshot);
            if !protocol.is_enabled(graph, p, state, &view)
                && !protocol.is_silent_at(graph, p, state, &view)
            {
                return Some(format!(
                    "{name} on {graph}: process {p} is disabled in {config:?}, yet not silent"
                ));
            }
        }
        let silent = is_silent_config(protocol, graph, config);
        let mut sim = simulation(config, 1);
        if sim.is_silent() != silent {
            return Some(format!(
                "{name} on {graph}: the simulation says silent: {}, the reference {silent}, \
                 in {config:?}",
                sim.is_silent()
            ));
        }
        if silent {
            sim.run_steps(100 * graph.node_count() as u64);
            let changes = sim.stats().total_comm_changes();
            if changes > 0 {
                return Some(format!(
                    "{name} on {graph}: {config:?} is reported silent, yet {changes} \
                     communication variables changed in the next {} steps",
                    sim.steps()
                ));
            }
        }
    }
    None
}

/// Every shipped protocol's silence predicate, on the contract graphs and
/// on `path(2)`. There the greedy colours are [0, 1], and the Δ-efficient
/// MIS baseline's [Dominated, Dominator] is a maximal independent set in
/// which process 0 may still join: legitimate, but not silent.
#[test]
fn silence_predicates_hold_where_no_guard_does_and_keep_comm_fixed() {
    let mut graphs = contract_graphs().to_vec();
    graphs.push(generators::path(2));
    for graph in &graphs {
        let n = graph.node_count();
        let legitimate_not_silent = match n {
            2 => vec![vec![Membership::Dominated, Membership::Dominator]],
            _ => Vec::new(),
        };
        let breaches = [
            silence_breach(graph, &Coloring::new(graph), &[]),
            silence_breach(graph, &Mis::with_greedy_coloring(graph), &[]),
            silence_breach(graph, &Matching::with_greedy_coloring(graph), &[]),
            silence_breach(graph, &BaselineColoring::new(graph), &[]),
            silence_breach(
                graph,
                &BaselineMis::with_greedy_coloring(graph),
                &legitimate_not_silent,
            ),
            silence_breach(graph, &BaselineMatching::with_greedy_coloring(graph), &[]),
            silence_breach(
                graph,
                &FrozenReadColoring::new(graph.max_degree() + 1, vec![Port::new(0); n]),
                &[],
            ),
            silence_breach(
                graph,
                &FrozenReadMis::new(greedy(graph), vec![Port::new(0); n]),
                &[],
            ),
            silence_breach(graph, &BfsTree::new(graph, NodeId::new(0)), &[]),
            silence_breach(
                graph,
                &LeaderElection::new(graph, Identifiers::sequential(n)),
                &[],
            ),
            silence_breach(
                graph,
                &RoundRobinChecker::new(ColoringSpec::new(graph)),
                &[],
            ),
            silence_breach(
                graph,
                &RoundRobinChecker::new(SeparationSpec::new(4 * graph.max_degree() + 1, 2)),
                &[],
            ),
        ];
        for breach in breaches {
            assert_eq!(breach, None);
        }
    }
}

/// The leader election's silence predicate is local, so a run whose
/// communication variables stop changing is reported silent even where no
/// configuration is legitimate: the third contract graph leaves process 4
/// isolated, so no BFS tree spans it.
#[test]
fn leader_election_reaches_reported_silence_on_every_contract_graph() {
    for graph in contract_graphs() {
        let protocol = LeaderElection::new(&graph, Identifiers::sequential(graph.node_count()));
        for seed in 0..50u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let config: Vec<_> = graph
                .nodes()
                .map(|p| protocol.arbitrary_state(&graph, p, &mut rng))
                .collect();
            let mut sim = Simulation::with_config(
                &graph,
                protocol.clone(),
                DistributedRandom::new(0.5),
                config,
                seed,
                SimOptions::default(),
            );
            assert!(
                sim.run_until_silent(20_000).silent,
                "{graph}, seed {seed}: not reported silent within 20,000 steps"
            );
        }
    }
}

/// COLORING with a guard that wrongly says "disabled" at every process of
/// degree 1: a contract mutant.
struct DisabledAtDegreeOne(Coloring);

impl Protocol for DisabledAtDegreeOne {
    type State = ColoringState;
    type Comm = usize;

    fn name(&self) -> &'static str {
        "coloring-disabled-at-degree-one"
    }

    fn arbitrary_state(&self, graph: &Graph, p: NodeId, rng: &mut dyn RngCore) -> ColoringState {
        self.0.arbitrary_state(graph, p, rng)
    }

    fn comm(&self, p: NodeId, state: &ColoringState) -> usize {
        self.0.comm(p, state)
    }

    fn is_enabled(
        &self,
        graph: &Graph,
        p: NodeId,
        state: &ColoringState,
        view: &NeighborView<'_, usize>,
    ) -> bool {
        graph.degree(p) != 1 && self.0.is_enabled(graph, p, state, view)
    }

    fn activate(
        &self,
        graph: &Graph,
        p: NodeId,
        state: &ColoringState,
        view: &NeighborView<'_, usize>,
        rng: &mut dyn RngCore,
    ) -> Option<ColoringState> {
        self.0.activate(graph, p, state, view, rng)
    }

    fn comm_bits(&self, graph: &Graph, p: NodeId) -> u64 {
        self.0.comm_bits(graph, p)
    }

    fn state_bits(&self, graph: &Graph, p: NodeId) -> u64 {
        self.0.state_bits(graph, p)
    }

    fn is_legitimate(&self, graph: &Graph, config: &[ColoringState]) -> bool {
        self.0.is_legitimate(graph, config)
    }
}

/// Positive control: the check above catches a guard that disagrees with
/// `activate` on both graphs that have a process of degree 1.
#[test]
fn a_guard_that_disagrees_with_activate_fails_the_contract_check() {
    let [_, star, with_isolated] = contract_graphs();
    for graph in [star, with_isolated] {
        let mutant = DisabledAtDegreeOne(Coloring::new(&graph));
        assert!(
            guard_disagreement(&graph, &mutant).is_some(),
            "the contract check missed the mutant on {graph}"
        );
    }
}
