//! Scenario: pairwise backup assignment in a server fleet.
//!
//! Servers that share a fast link want to pair up so each pair replicates to
//! one another; a pairing that cannot be extended is a maximal matching.
//! The paper's 1-efficient MATCHING protocol computes it so that, once
//! stable, every paired server only polls its own partner — not the whole
//! rack — and the assignment survives arbitrary memory corruption.
//!
//! ```text
//! cargo run --example pairwise_backup_matching
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use selfstab::prelude::*;
use selfstab_core::matching::Matching;
use selfstab_runtime::faults::{run_fault_plan, FaultInjector, FaultLoad, FaultModel, FaultPlan};

fn main() {
    // The replication fabric: the Figure 11 topology of the paper plus a
    // random fleet, to show both the tight bound and a realistic case.
    let fig11 = generators::figure11_example();
    report_on("paper Figure 11 fabric", &fig11, 5);

    let mut rng = StdRng::seed_from_u64(17);
    let fleet = generators::gnp_connected(30, 0.12, &mut rng).expect("valid G(n,p) parameters");
    report_on("random 30-server fleet", &fleet, 6);
}

fn report_on(label: &str, graph: &Graph, seed: u64) {
    println!("== {label}: {graph} ==");
    let protocol = Matching::with_greedy_coloring(graph);
    let bound = Matching::stability_bound(graph);
    let mut sim = Simulation::new(
        graph,
        protocol,
        DistributedRandom::new(0.5),
        seed,
        SimOptions::default(),
    );
    let report = sim.run_until_silent(5_000_000);
    let pairs = sim.protocol().output(graph, sim.config());
    println!(
        "paired {} of {} servers in {} rounds (valid maximal matching: {}, Theorem 8 bound: >= {} paired)",
        2 * pairs.len(),
        graph.node_count(),
        report.total_rounds,
        verify::is_maximal_matching(graph, &pairs),
        bound
    );
    assert!(report.silent && verify::is_maximal_matching(graph, &pairs));
    for (a, b) in pairs.iter().take(6) {
        println!("  {a} <-> {b}");
    }
    if pairs.len() > 6 {
        println!("  … and {} more pairs", pairs.len() - 6);
    }

    // Corrupt a third of the fleet and watch the pairing repair itself:
    // the fault-scenario engine injects, then steps until silence.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD);
    let outage = FaultPlan::single(FaultModel::Uniform(FaultLoad::Count(
        graph.node_count() / 3,
    )));
    let recovery = run_fault_plan(
        &mut sim,
        &outage,
        &mut FaultInjector::new(graph),
        &mut rng,
        5_000_000,
    );
    let pairs = sim.protocol().output(graph, sim.config());
    let rounds = recovery.recovery_rounds.expect("MATCHING re-stabilizes");
    let maximal = sim.is_legitimate() && verify::is_maximal_matching(graph, &pairs);
    println!(
        "after corrupting {} servers: re-paired in {rounds} rounds, still maximal: {maximal}\n",
        recovery.victims
    );
    assert!(maximal);
}
