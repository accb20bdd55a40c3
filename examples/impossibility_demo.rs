//! Demonstration of the paper's impossibility results (Theorems 1 and 2).
//!
//! The example builds the counterexample constructions of Figures 1–6: a
//! 1-stable ("frozen-read") protocol, the exact topology of the proof, and
//! the spliced configuration that is **silent yet illegitimate**. It then
//! simulates thousands of steps to show that the protocol never escapes —
//! and contrasts it with the paper's real 1-efficient protocols, which keep
//! scanning their neighborhood round-robin and *do* recover from the same
//! configuration.
//!
//! ```text
//! cargo run --example impossibility_demo
//! ```

use selfstab::prelude::*;
use selfstab_core::coloring::{Coloring, ColoringState};
use selfstab_core::impossibility::{theorem1, theorem2};
use selfstab_core::mis::Mis;
use selfstab_graph::coloring::{Color, LocalColoring};

fn main() {
    theorem1_demo();
    println!();
    theorem2_demo();
}

fn theorem1_demo() {
    println!("== Theorem 1: anonymous networks, ♦-k-stability with k < Δ is impossible ==");
    let ce = theorem1::counterexample_delta2();
    let (a, b) = ce.conflicting_pair;
    println!(
        "topology: chain of {} anonymous processes (Figure 1c); processes {a} and {b} share color {}",
        ce.graph.node_count(),
        ce.config[a.index()]
    );
    println!(
        "the spliced configuration violates the coloring predicate: {}",
        ce.violates_predicate()
    );
    println!(
        "it is silent for the frozen-read (1-stable) coloring protocol: {}",
        ce.is_silent()
    );

    // Simulate: the frozen-read protocol never escapes.
    let mut sim = Simulation::with_config(
        &ce.graph,
        ce.protocol.clone(),
        DistributedRandom::new(0.5),
        ce.config.clone(),
        1,
        SimOptions::default(),
    );
    sim.run_steps(10_000);
    println!(
        "after 10000 steps under the distributed fair daemon: {} communication changes, legitimate = {}",
        sim.stats().total_comm_changes(),
        sim.is_legitimate()
    );

    // Contrast: the real COLORING protocol recovers from the very same
    // configuration because it keeps cycling over all neighbors.
    let config: Vec<ColoringState> = ce
        .config
        .iter()
        .map(|&color| ColoringState {
            color,
            cur: Port::new(0),
        })
        .collect();
    let mut sim = Simulation::with_config(
        &ce.graph,
        Coloring::with_palette(3),
        DistributedRandom::new(0.5),
        config,
        2,
        SimOptions::default(),
    );
    let report = sim.run_until_silent(1_000_000);
    println!(
        "the paper's COLORING protocol from the same configuration: silent = {}, proper = {} (in {} steps)",
        report.silent, report.legitimate, report.steps
    );
}

fn theorem2_demo() {
    println!(
        "== Theorem 2: even rooted + dag-oriented networks do not allow k-stability with k < Δ =="
    );
    let ce = theorem2::counterexample_delta2();
    let (a, b) = ce.conflicting_pair;
    println!(
        "topology: the 6-process rooted dag-oriented network of Figure 3 (root {}, sources {:?}, sinks {:?})",
        ce.network.root,
        ce.network.sources(),
        ce.network.sinks()
    );
    println!("processes {a} and {b} are adjacent Dominators in the spliced configuration");
    println!("violates the MIS predicate: {}", ce.violates_predicate());
    println!(
        "silent for the frozen-read (1-stable) MIS protocol: {}",
        ce.is_silent()
    );

    let mut sim = Simulation::with_config(
        ce.graph(),
        ce.protocol.clone(),
        DistributedRandom::new(0.5),
        ce.config.clone(),
        3,
        SimOptions::default(),
    );
    sim.run_steps(10_000);
    println!(
        "after 10000 steps: {} communication changes, legitimate = {}",
        sim.stats().total_comm_changes(),
        sim.is_legitimate()
    );

    // Contrast with the real MIS protocol on the same colors.
    let colors: Vec<Color> = ce
        .graph()
        .nodes()
        .map(|p| ce.protocol.comm(p, &ce.config[p.index()]).color)
        .collect();
    let coloring = LocalColoring::new(ce.graph(), colors).expect("the proof's coloring is proper");
    let mut sim = Simulation::with_config(
        ce.graph(),
        Mis::new(coloring),
        DistributedRandom::new(0.5),
        ce.config.clone(),
        4,
        SimOptions::default(),
    );
    let report = sim.run_until_silent(1_000_000);
    println!(
        "the paper's MIS protocol from the same configuration: silent = {}, maximal independent set = {} (in {} steps)",
        report.silent, report.legitimate, report.steps
    );
}
