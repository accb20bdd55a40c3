//! Integration tests mapping each of the paper's main claims to a checkable
//! statement about the implementation. One test per theorem/lemma, spanning
//! all workspace crates through the `selfstab` facade.

use selfstab::prelude::*;
use selfstab_core::impossibility::{theorem1, theorem2};
use selfstab_core::matching::Matching;
use selfstab_core::measures;
use selfstab_core::mis::{Membership, Mis};
use selfstab_graph::longest_path;

/// Theorem 3: `COLORING` is a 1-efficient protocol that stabilizes to the
/// vertex coloring predicate with probability 1 in any anonymous network.
#[test]
fn theorem_3_coloring_is_one_efficient_and_stabilizes() {
    for (graph, seed) in [
        (generators::ring(20), 1u64),
        (generators::complete(7), 2),
        (generators::grid(4, 5), 3),
        (generators::theorem1_general(4).unwrap(), 4),
    ] {
        let protocol = Coloring::new(&graph);
        let mut sim = Simulation::new(
            &graph,
            protocol,
            DistributedRandom::new(0.5),
            seed,
            SimOptions::default(),
        );
        let report = sim.run_until_silent(2_000_000);
        assert!(report.silent, "no stabilization on {graph}");
        assert!(verify::is_proper_coloring(
            &graph,
            &selfstab_core::coloring::Coloring::output(sim.config())
        ));
        assert!(
            sim.stats().measured_efficiency() <= 1,
            "not 1-efficient on {graph}"
        );
    }
}

/// Theorem 5 + Lemmas 3–4: `MIS` is 1-efficient, silent configurations
/// satisfy the MIS predicate, and silence is reached within `∆·#C` rounds.
#[test]
fn theorem_5_mis_is_one_efficient_and_bounded() {
    for (graph, seed) in [
        (generators::path(20), 1u64),
        (generators::grid(4, 5), 2),
        (generators::wheel(12), 3),
    ] {
        let protocol = Mis::with_greedy_coloring(&graph);
        let bound = protocol.round_bound(&graph);
        let mut sim = Simulation::new(&graph, protocol, Synchronous, seed, SimOptions::default());
        let report = sim.run_until_silent(bound + 16);
        assert!(report.silent, "MIS exceeded its round bound on {graph}");
        assert!(report.total_rounds <= bound + 1);
        assert!(verify::is_maximal_independent_set(
            &graph,
            &Mis::output(sim.config())
        ));
        assert!(sim.stats().measured_efficiency() <= 1);
    }
}

/// Theorem 6: `MIS` is ♦-(⌊(Lmax+1)/2⌋, 1)-stable, and the Figure 9 path
/// family matches the bound.
#[test]
fn theorem_6_mis_stability_bound() {
    let graph = generators::figure9_path(15);
    let lmax = longest_path::longest_path_exact(&graph);
    assert_eq!(lmax, 14);
    let bound = Mis::stability_bound(lmax);
    assert_eq!(bound, 7);

    let protocol = Mis::with_greedy_coloring(&graph);
    let mut sim = Simulation::new(
        &graph,
        protocol,
        DistributedRandom::new(0.5),
        9,
        SimOptions::default(),
    );
    assert!(sim.run_until_silent(2_000_000).silent);
    sim.mark_suffix();
    sim.run_steps(3_000);
    assert!(sim.stats().stable_process_count(sim.graph(), 1) >= bound);
    // The dominated processes are exactly the ones that settled on one
    // neighbor; on a path at least half the processes are dominated.
    let dominated = sim
        .config()
        .iter()
        .filter(|s| s.status == Membership::Dominated)
        .count();
    assert!(dominated >= bound);
}

/// Theorem 7 + Lemmas 6 and 9: `MATCHING` is 1-efficient, silent
/// configurations induce maximal matchings, and silence is reached within
/// `(∆+1)n+2` rounds.
#[test]
fn theorem_7_matching_is_one_efficient_and_bounded() {
    for (graph, seed) in [
        (generators::ring(14), 1u64),
        (generators::grid(3, 5), 2),
        (generators::figure11_example(), 3),
    ] {
        let protocol = Matching::with_greedy_coloring(&graph);
        let bound = Matching::round_bound(&graph);
        let mut sim = Simulation::new(&graph, protocol, Synchronous, seed, SimOptions::default());
        let report = sim.run_until_silent(bound + 16);
        assert!(
            report.silent,
            "MATCHING exceeded its round bound on {graph}"
        );
        assert!(report.total_rounds <= bound);
        let edges = sim.protocol().output(&graph, sim.config());
        assert!(verify::is_maximal_matching(&graph, &edges));
        assert!(sim.stats().measured_efficiency() <= 1);
    }
}

/// Theorem 8: `MATCHING` is ♦-(2⌈m/(2∆−1)⌉, 1)-stable and the Figure 11
/// example meets the bound.
#[test]
fn theorem_8_matching_stability_bound() {
    let graph = generators::figure11_example();
    assert_eq!(graph.edge_count(), 14);
    assert_eq!(graph.max_degree(), 4);
    let bound = Matching::stability_bound(&graph);
    assert_eq!(bound, 4);
    let outcome = selfstab::run_matching(&graph, 11, 2_000_000).expect("stabilizes");
    assert!(2 * outcome.output.len() >= bound);
    assert!(verify::is_maximal_matching(&graph, &outcome.output));
}

/// Theorem 1: the frozen-read (1-stable) coloring protocol admits an
/// illegitimate silent configuration on the anonymous topologies of
/// Figures 1–2, hence cannot be self-stabilizing.
#[test]
fn theorem_1_impossibility_construction() {
    for delta in 2..=4 {
        let ce = if delta == 2 {
            theorem1::counterexample_delta2()
        } else {
            theorem1::counterexample_general(delta).unwrap()
        };
        assert!(ce.violates_predicate(), "Δ = {delta}");
        assert!(ce.is_silent(), "Δ = {delta}");
        // No escape over a long fair execution.
        let mut sim = Simulation::with_config(
            &ce.graph,
            ce.protocol.clone(),
            DistributedRandom::new(0.5),
            ce.config.clone(),
            delta as u64,
            SimOptions::default(),
        );
        sim.run_steps(5_000);
        assert_eq!(sim.stats().total_comm_changes(), 0);
        assert!(!sim.is_legitimate());
    }
}

/// Theorem 2: the frozen-read (1-stable) MIS protocol admits an illegitimate
/// silent configuration even on the rooted, dag-oriented topologies of
/// Figures 3–6.
#[test]
fn theorem_2_impossibility_construction() {
    for delta in 2..=4 {
        let ce = if delta == 2 {
            theorem2::counterexample_delta2()
        } else {
            theorem2::counterexample_general(delta).unwrap()
        };
        assert!(ce.violates_predicate(), "Δ = {delta}");
        assert!(ce.is_silent(), "Δ = {delta}");
        let mut sim = Simulation::with_config(
            ce.graph(),
            ce.protocol.clone(),
            DistributedRandom::new(0.5),
            ce.config.clone(),
            delta as u64,
            SimOptions::default(),
        );
        sim.run_steps(5_000);
        assert_eq!(sim.stats().total_comm_changes(), 0);
        assert!(!sim.is_legitimate());
    }
}

/// Section 3.2 examples (Definitions 5–6): the communication complexity of
/// `COLORING` is `log(∆+1)` bits per process per step, against
/// `∆·log(∆+1)` for classical local checking; its space complexity is
/// `2·log(∆+1) + log(δ.p)`.
#[test]
fn section_3_2_complexity_examples() {
    let graph = generators::star(9); // ∆ = 8
    let protocol = Coloring::new(&graph);
    assert_eq!(
        measures::communication_complexity_bits(&protocol, &graph, 1),
        4
    );
    assert_eq!(
        measures::communication_complexity_bits(&protocol, &graph, graph.max_degree()),
        32
    );
    let hub = NodeId::new(0);
    assert_eq!(
        measures::space_complexity_bits_of(&protocol, &graph, hub, 1),
        selfstab_core::coloring::space_complexity_bits(&graph, hub)
    );
}
