//! Scenario: TDMA-style slot assignment in a sensor grid.
//!
//! A wireless sensor deployment wants neighboring nodes to transmit in
//! different time slots; slots are exactly colors, so the paper's
//! 1-efficient COLORING protocol solves the problem while letting every
//! sensor listen to only **one** neighbor per wake-up — the headline saving
//! for battery-powered radios. The example also injects a burst of
//! transient memory faults and shows the protocol re-stabilizing.
//!
//! ```text
//! cargo run --example sensor_slot_assignment
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use selfstab::prelude::*;
use selfstab_core::coloring::Coloring;
use selfstab_runtime::faults::{FaultInjector, FaultLoad, FaultModel};

fn count_conflicts(graph: &Graph, colors: &[usize]) -> usize {
    graph
        .edges()
        .filter(|&(a, b)| colors[a.index()] == colors[b.index()])
        .count()
}

fn main() {
    // A 6x6 sensor grid: 36 sensors, ∆ = 4, so 5 slots suffice.
    let graph = generators::grid(6, 6);
    let protocol = Coloring::new(&graph);
    println!(
        "deployment: {graph}, slots available: {}",
        protocol.palette()
    );

    let mut sim = Simulation::new(
        &graph,
        protocol,
        DistributedRandom::new(0.4),
        11,
        SimOptions::default(),
    );
    let report = sim.run_until_silent(5_000_000);
    let colors = Coloring::output(sim.config());
    println!(
        "initial convergence: silent = {}, rounds = {}, conflicts = {}",
        report.silent,
        report.total_rounds,
        count_conflicts(&graph, &colors)
    );
    assert!(report.silent && count_conflicts(&graph, &colors) == 0);
    println!(
        "per wake-up, every sensor reads exactly {} neighbor register(s)",
        sim.stats().measured_efficiency()
    );
    assert_eq!(sim.stats().measured_efficiency(), 1);

    // A lightning strike scrambles the memory of a quarter of the sensors.
    let mut rng = StdRng::seed_from_u64(99);
    let strike = FaultModel::Uniform(FaultLoad::Count(graph.node_count() / 4));
    let victims = FaultInjector::new(&graph)
        .inject(&mut sim, strike, &mut rng)
        .len();
    let colors = Coloring::output(sim.config());
    println!(
        "\ntransient fault hits {victims} sensors -> {} slot conflicts appear",
        count_conflicts(&graph, &colors)
    );

    let rounds_before = sim.rounds();
    let report = sim.run_until_silent(5_000_000);
    let colors = Coloring::output(sim.config());
    println!(
        "self-stabilization: recovered in {} rounds, conflicts = {}, proper = {}",
        sim.rounds() - rounds_before,
        count_conflicts(&graph, &colors),
        report.legitimate
    );
    assert!(report.silent && report.legitimate && count_conflicts(&graph, &colors) == 0);

    // Print the final slot map row by row.
    println!("\nfinal slot assignment (rows of the grid):");
    for row in 0..6 {
        let slots: Vec<String> = (0..6)
            .map(|col| colors[row * 6 + col].to_string())
            .collect();
        println!("  {}", slots.join(" "));
    }
}
