//! Integration tests for the extension surface: the locally-central daemon
//! and the round-robin transformer, used together across crates.

use selfstab::prelude::*;
use selfstab_core::transformer::{ColoringSpec, EdgeCheckable, RoundRobinChecker, SeparationSpec};
use selfstab_runtime::scheduler::LocallyCentral;

/// The MIS protocol runs unchanged under the locally-central daemon (a
/// strictly weaker adversary than the distributed one) and still satisfies
/// its bounds.
#[test]
fn mis_under_the_locally_central_daemon() {
    let graph = generators::grid(5, 5);
    let protocol = Mis::with_greedy_coloring(&graph);
    let mut sim = Simulation::new(
        &graph,
        protocol,
        LocallyCentral::new(0.6),
        3,
        SimOptions::default(),
    );
    let report = sim.run_until_silent(2_000_000);
    assert!(report.silent);
    assert!(verify::is_maximal_independent_set(
        &graph,
        &Mis::output(sim.config())
    ));
    assert!(sim.stats().measured_efficiency() <= 1);
}

/// The transformer applied to a non-coloring edge-checkable specification
/// (circular separation) stabilizes on topologies from the graph crate and
/// stays 1-efficient.
#[test]
fn transformer_on_a_separation_constraint() {
    let graph = generators::petersen();
    let protocol = RoundRobinChecker::new(SeparationSpec::new(16, 2));
    let mut sim = Simulation::new(
        &graph,
        protocol,
        DistributedRandom::new(0.5),
        9,
        SimOptions::default(),
    );
    let report = sim.run_until_silent(2_000_000);
    assert!(report.silent);
    let values = RoundRobinChecker::<SeparationSpec>::output(sim.config());
    let spec = SeparationSpec::new(16, 2);
    for (p, q) in graph.edges() {
        assert!(!spec.conflict(&values[p.index()], &values[q.index()]));
    }
    assert!(sim.stats().measured_efficiency() <= 1);
}

/// The transformer applied to the coloring specification computes a proper
/// coloring on a hypercube and stays 1-efficient.
#[test]
fn transformer_coloring_on_a_hypercube() {
    let graph = generators::hypercube(4);
    let protocol = RoundRobinChecker::new(ColoringSpec::new(&graph));
    let mut sim = Simulation::new(
        &graph,
        protocol,
        DistributedRandom::new(0.5),
        6,
        SimOptions::default(),
    );
    let report = sim.run_until_silent(2_000_000);
    assert!(report.silent);
    let colors = RoundRobinChecker::<ColoringSpec>::output(sim.config());
    assert!(verify::is_proper_coloring(&graph, &colors));
    assert!(sim.stats().measured_efficiency() <= 1);
}
