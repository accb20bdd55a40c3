//! Scenario: clusterhead election in an ad-hoc network.
//!
//! Ad-hoc routing stacks elect *clusterheads* such that every node is either
//! a clusterhead or adjacent to one, and no two clusterheads are neighbors —
//! exactly a maximal independent set. The paper's 1-efficient MIS protocol
//! computes it while, once stable, every non-clusterhead keeps monitoring a
//! single clusterhead (its dominator), which is also the node it would route
//! through.
//!
//! The example compares the stabilized-phase read traffic of the 1-efficient
//! protocol against the classical Δ-efficient baseline and checks the
//! ♦-(⌊(Lmax+1)/2⌋, 1)-stability bound of Theorem 6.
//!
//! ```text
//! cargo run --example clusterhead_election
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use selfstab::prelude::*;
use selfstab_core::baselines::BaselineMis;
use selfstab_core::mis::Mis;
use selfstab_graph::longest_path;

fn main() {
    // An ad-hoc network: a connected random graph of 40 radios.
    let mut rng = StdRng::seed_from_u64(7);
    let graph = generators::gnp_connected(40, 0.1, &mut rng).expect("valid G(n,p) parameters");
    println!("ad-hoc network: {graph}");

    // 1-efficient MIS.
    let protocol = Mis::with_greedy_coloring(&graph);
    let mut sim = Simulation::new(
        &graph,
        protocol,
        DistributedRandom::new(0.5),
        21,
        SimOptions::default(),
    );
    let report = sim.run_until_silent(5_000_000);
    let members = Mis::output(sim.config());
    let clusterheads = members.iter().filter(|&&b| b).count();
    println!(
        "\n1-efficient MIS : clusterheads = {clusterheads}, valid = {}, rounds = {}",
        verify::is_maximal_independent_set(&graph, &members),
        report.total_rounds
    );
    assert!(report.silent && verify::is_maximal_independent_set(&graph, &members));

    // Stabilized-phase behavior: how many radios settle on monitoring a
    // single neighbor (Theorem 6)?
    sim.mark_suffix();
    sim.run_steps(2_000);
    let lmax = longest_path::longest_path_lower_bound(&graph);
    let bound = Mis::stability_bound(lmax);
    println!(
        "once stable      : {} of {} radios read a single fixed neighbor (Theorem 6 bound >= {bound}, Lmax >= {lmax})",
        sim.stats().stable_process_count(1),
        graph.node_count()
    );

    // Baseline comparison: the Δ-efficient protocol keeps reading every
    // neighbor at every check.
    let baseline = BaselineMis::with_greedy_coloring(&graph);
    let mut base_sim = Simulation::new(
        &graph,
        baseline,
        CentralRandom::enabled_only(),
        22,
        SimOptions::default(),
    );
    base_sim.run_until_silent(5_000_000);
    let reads_before = base_sim.stats().total_read_operations();
    base_sim.run_steps(2_000);
    let baseline_reads = base_sim.stats().total_read_operations() - reads_before;

    let reads_before = sim.stats().total_read_operations();
    sim.run_steps(2_000);
    let efficient_reads = sim.stats().total_read_operations() - reads_before;
    println!(
        "steady-state traffic over 2000 steps: {efficient_reads} register reads (1-efficient) vs {baseline_reads} (Δ-efficient baseline)"
    );

    // Show the routing structure: each dominated radio and its clusterhead.
    println!("\nsample of the cluster structure (first 10 dominated radios):");
    let mut shown = 0;
    for p in graph.nodes() {
        if members[p.index()] {
            continue;
        }
        if let Some(head) = graph.neighbors(p).find(|q| members[q.index()]) {
            println!("  radio {p} -> clusterhead {head}");
            shown += 1;
            if shown == 10 {
                break;
            }
        }
    }
}
