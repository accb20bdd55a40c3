//! Quickstart: run the three 1-efficient protocols of the paper on a small
//! random network and print what they compute and what they cost.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use selfstab::prelude::*;
use selfstab_core::measures;

fn main() {
    // A connected random network of 24 processes.
    let mut rng = StdRng::seed_from_u64(2024);
    let graph = generators::gnp_connected(24, 0.15, &mut rng).expect("valid G(n,p) parameters");
    println!("network: {graph}");

    // 1. (∆+1)-coloring with the probabilistic 1-efficient COLORING protocol.
    let outcome = selfstab::run_coloring(&graph, 1, 5_000_000).expect("stabilizes w.p. 1");
    println!(
        "\nCOLORING   : proper = {}, colors used = {}, steps = {}, rounds = {}, k = {}",
        verify::is_proper_coloring(&graph, &outcome.output),
        {
            let mut c = outcome.output.clone();
            c.sort_unstable();
            c.dedup();
            c.len()
        },
        outcome.steps,
        outcome.rounds,
        outcome.measured_efficiency,
    );
    assert!(verify::is_proper_coloring(&graph, &outcome.output));
    assert_eq!(outcome.measured_efficiency, 1);

    // 2. Maximal independent set with the deterministic 1-efficient MIS.
    let outcome = selfstab::run_mis(&graph, 2, 5_000_000).expect("stabilizes");
    println!(
        "MIS        : maximal independent set = {}, |set| = {}, steps = {}, k = {}",
        verify::is_maximal_independent_set(&graph, &outcome.output),
        outcome.output.iter().filter(|&&b| b).count(),
        outcome.steps,
        outcome.measured_efficiency,
    );
    assert!(verify::is_maximal_independent_set(&graph, &outcome.output));
    assert_eq!(outcome.measured_efficiency, 1);

    // 3. Maximal matching with the deterministic 1-efficient MATCHING.
    let outcome = selfstab::run_matching(&graph, 3, 5_000_000).expect("stabilizes");
    println!(
        "MATCHING   : maximal matching = {}, |matching| = {}, steps = {}, k = {}",
        verify::is_maximal_matching(&graph, &outcome.output),
        outcome.output.len(),
        outcome.steps,
        outcome.measured_efficiency,
    );
    assert!(verify::is_maximal_matching(&graph, &outcome.output));
    assert_eq!(outcome.measured_efficiency, 1);

    // 4. What did 1-efficiency buy? Compare per-step communication with the
    //    classical Δ-efficient local-checking strategy (Definition 5).
    let protocol = Coloring::new(&graph);
    let mut sim = Simulation::new(
        &graph,
        protocol,
        DistributedRandom::new(0.5),
        7,
        SimOptions::default(),
    );
    sim.run_until_silent(5_000_000);
    let report = measures::complexity_report(sim.protocol(), &graph, sim.stats());
    println!(
        "\ncommunication per step: {} bits (1-efficient) vs {} bits (Δ-efficient local checking)",
        report.communication_bits, report.delta_communication_bits
    );
}
