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
//! * the measures `RunStats` reports (k-efficiency, its suffix form, and
//!   the k-stable and ♦-k-stable process counts) equal the same measures
//!   recomputed from the run's step records.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use selfstab_core::coloring::Coloring;
use selfstab_core::matching::Matching;
use selfstab_core::mis::{Membership, Mis};
use selfstab_graph::{generators, longest_path, verify, Graph, Port};
use selfstab_runtime::scheduler::{DistributedRandom, Synchronous};
use selfstab_runtime::{MemorySink, Protocol, SimOptions, Simulation, StepRecord};

fn random_connected_graph(n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let p = 0.15 + 3.0 / n as f64;
    generators::gnp_connected(n, p.min(1.0), &mut rng).expect("valid parameters")
}

/// What each of the `n` processes read over `records`: the most distinct
/// ports one of its activations read (Definition 4's `k` for it), and the
/// size of its read set, rebuilt by its own scan with a linear `contains`
/// probe.
fn reads_per_process(records: &[StepRecord], n: usize) -> Vec<(usize, usize)> {
    (0..n)
        .map(|p| {
            let mut most = 0;
            let mut ports: Vec<Port> = Vec::new();
            for activation in records.iter().flat_map(|r| &r.activations) {
                if activation.process.index() != p {
                    continue;
                }
                most = most.max(activation.reads.len());
                for &port in &activation.reads {
                    if !ports.contains(&port) {
                        ports.push(port);
                    }
                }
            }
            (most, ports.len())
        })
        .collect()
}

/// Runs `protocol` under `DistributedRandom(0.5)` with a shared
/// [`MemorySink`] attached: to silence, then the suffix marker, then 300
/// more steps. Every measure `RunStats` reports, per process and in
/// aggregate, must equal the same measure recomputed from the decoded
/// step records.
fn assert_run_stats_match_the_records<P: Protocol>(graph: &Graph, protocol: P, seed: u64) {
    let name = protocol.name();
    let mut sim = Simulation::new(
        graph,
        protocol,
        DistributedRandom::new(0.5),
        seed,
        SimOptions::default(),
    );
    let sink = Arc::new(Mutex::new(MemorySink::new()));
    sim.attach_trace_sink(Box::new(Arc::clone(&sink)));
    let report = sim.run_until_silent(1_000_000);
    assert!(report.silent, "{name} did not stabilize on {graph}");
    let marker = sim.steps();
    sim.mark_suffix();
    sim.run_steps(300);

    let records = sink.lock().unwrap().decode_all().expect("decodes");
    assert_eq!(records.len() as u64, sim.steps(), "{name}");
    let suffix = &records[records.partition_point(|r| r.step < marker)..];
    let ever = reads_per_process(&records, graph.node_count());
    let since_marker = reads_per_process(suffix, graph.node_count());
    let stats = sim.stats();
    for p in graph.nodes() {
        let row = stats.process(p);
        let reported = [
            (
                row.max_reads_per_activation as usize,
                stats.distinct_neighbors_ever(p),
            ),
            (
                row.max_reads_per_activation_since_marker as usize,
                stats.distinct_neighbors_since_marker(p),
            ),
        ];
        let from_records = [ever[p.index()], since_marker[p.index()]];
        assert_eq!(reported, from_records, "{name}, {p}");
    }
    let most = |reads: &[(usize, usize)]| reads.iter().map(|&(most, _)| most).max().unwrap_or(0);
    assert_eq!(stats.measured_efficiency(), most(&ever), "{name}");
    assert_eq!(
        stats.suffix_measured_efficiency(),
        most(&since_marker),
        "{name}"
    );
    for k in 0..=graph.max_degree() + 1 {
        let at_most_k = |reads: &[(usize, usize)]| reads.iter().filter(|r| r.1 <= k).count();
        let counts = (
            stats.k_stable_process_count(k),
            stats.stable_process_count(k),
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
        prop_assert!(sim.stats().stable_process_count(1) >= bound);
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

/// Deterministic regression tests for the protocol trait contract: guards
/// are deterministic, so `is_enabled` must agree with `activate`.
#[test]
fn is_enabled_agrees_with_activate_for_deterministic_protocols() {
    use rand::rngs::StdRng;
    use selfstab_runtime::view::NeighborView;
    let graph = generators::grid(3, 3);
    let mis = Mis::with_greedy_coloring(&graph);
    let matching = Matching::with_greedy_coloring(&graph);
    let mut rng = StdRng::seed_from_u64(5);
    for seed in 0..50u64 {
        let mut seed_rng = StdRng::seed_from_u64(seed);
        let mis_config: Vec<_> = graph
            .nodes()
            .map(|p| mis.arbitrary_state(&graph, p, &mut seed_rng))
            .collect();
        let mis_snapshot: Vec<_> = graph
            .nodes()
            .map(|p| mis.comm(p, &mis_config[p.index()]))
            .collect();
        for p in graph.nodes() {
            let view = NeighborView::from_snapshot(&graph, p, &mis_snapshot, false);
            let enabled = mis.is_enabled(&graph, p, &mis_config[p.index()], &view);
            let view = NeighborView::from_snapshot(&graph, p, &mis_snapshot, false);
            let outcome = mis.activate(&graph, p, &mis_config[p.index()], &view, &mut rng);
            assert_eq!(enabled, outcome.is_some());
        }

        let m_config: Vec<_> = graph
            .nodes()
            .map(|p| matching.arbitrary_state(&graph, p, &mut seed_rng))
            .collect();
        let m_snapshot: Vec<_> = graph
            .nodes()
            .map(|p| matching.comm(p, &m_config[p.index()]))
            .collect();
        for p in graph.nodes() {
            let view = NeighborView::from_snapshot(&graph, p, &m_snapshot, false);
            let enabled = matching.is_enabled(&graph, p, &m_config[p.index()], &view);
            let view = NeighborView::from_snapshot(&graph, p, &m_snapshot, false);
            let outcome = matching.activate(&graph, p, &m_config[p.index()], &view, &mut rng);
            assert_eq!(enabled, outcome.is_some());
        }
    }
}
