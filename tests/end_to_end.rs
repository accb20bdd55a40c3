//! End-to-end integration tests: the facade API, fault recovery across
//! protocols, scheduler robustness and the experiment harness smoke test.

use rand::rngs::StdRng;
use rand::SeedableRng;
use selfstab::prelude::*;
use selfstab_analysis::experiments::{self, ExperimentConfig};
use selfstab_core::matching::Matching;
use selfstab_core::mis::Mis;
use selfstab_runtime::faults::{run_fault_plan, FaultInjector, FaultLoad, FaultModel, FaultPlan};

#[test]
fn facade_helpers_cover_the_three_problems() {
    let mut rng = StdRng::seed_from_u64(1);
    let graph = generators::gnp_connected(25, 0.15, &mut rng).unwrap();

    let coloring = selfstab::run_coloring(&graph, 1, 2_000_000).unwrap();
    assert!(verify::is_proper_coloring(&graph, &coloring.output));

    let mis = selfstab::run_mis(&graph, 2, 2_000_000).unwrap();
    assert!(verify::is_maximal_independent_set(&graph, &mis.output));

    let matching = selfstab::run_matching(&graph, 3, 2_000_000).unwrap();
    assert!(verify::is_maximal_matching(&graph, &matching.output));

    for k in [
        coloring.measured_efficiency,
        mis.measured_efficiency,
        matching.measured_efficiency,
    ] {
        assert!(k <= 1, "all three protocols are 1-efficient");
    }
}

#[test]
fn protocols_recover_from_repeated_fault_bursts() {
    let graph = generators::grid(5, 5);
    let protocol = Mis::with_greedy_coloring(&graph);
    let mut sim = Simulation::new(
        &graph,
        protocol,
        DistributedRandom::new(0.5),
        7,
        SimOptions::default(),
    );
    assert!(sim.run_until_silent(2_000_000).silent);
    let mut rng = StdRng::seed_from_u64(17);
    let mut injector = FaultInjector::new(&graph);
    let burst_plan = FaultPlan::single(FaultModel::Uniform(FaultLoad::Count(6)));
    for burst in 0..5 {
        let telemetry = run_fault_plan(&mut sim, &burst_plan, &mut injector, &mut rng, 2_000_000);
        assert_eq!(telemetry.victims, 6, "burst {burst}");
        assert!(
            telemetry.recovery_rounds.is_some(),
            "burst {burst}: no recovery"
        );
        assert!(
            sim.is_legitimate(),
            "burst {burst}: recovered to an illegitimate configuration"
        );
    }
}

#[test]
fn matching_recovers_from_adversarially_corrupted_pointers() {
    let graph = generators::figure11_example();
    let protocol = Matching::with_greedy_coloring(&graph);
    let mut sim = Simulation::new(
        &graph,
        protocol,
        DistributedRandom::new(0.5),
        3,
        SimOptions::default(),
    );
    assert!(sim.run_until_silent(2_000_000).silent);
    // Corrupt every process at once (the worst transient fault).
    let mut rng = StdRng::seed_from_u64(23);
    let everyone = FaultModel::Uniform(FaultLoad::Fraction(1.0));
    let victims = FaultInjector::new(&graph)
        .inject(&mut sim, everyone, &mut rng)
        .len();
    assert_eq!(victims, graph.node_count());
    let report = sim.run_until_silent(2_000_000);
    assert!(report.silent);
    assert!(report.legitimate);
}

#[test]
fn protocols_converge_under_every_scheduler() {
    let graph = generators::ring(10);

    let mut sim = Simulation::new(
        &graph,
        Coloring::new(&graph),
        Synchronous,
        1,
        SimOptions::default(),
    );
    assert!(sim.run_until_silent(2_000_000).silent, "synchronous daemon");

    let mut sim = Simulation::new(
        &graph,
        Coloring::new(&graph),
        CentralRoundRobin::new(),
        2,
        SimOptions::default(),
    );
    assert!(
        sim.run_until_silent(2_000_000).silent,
        "central round-robin daemon"
    );

    let mut sim = Simulation::new(
        &graph,
        Coloring::new(&graph),
        Fair::new(StarvingAdversary::new(), 40),
        3,
        SimOptions::default(),
    );
    assert!(
        sim.run_until_silent(2_000_000).silent,
        "fair adversarial daemon"
    );

    let mut sim = Simulation::new(
        &graph,
        Mis::with_greedy_coloring(&graph),
        Fair::new(StarvingAdversary::new(), 40),
        4,
        SimOptions::default(),
    );
    assert!(
        sim.run_until_silent(2_000_000).silent,
        "MIS under fair adversarial daemon"
    );

    let mut sim = Simulation::new(
        &graph,
        Matching::with_greedy_coloring(&graph),
        Fair::new(StarvingAdversary::new(), 40),
        5,
        SimOptions::default(),
    );
    assert!(
        sim.run_until_silent(2_000_000).silent,
        "MATCHING under fair adversarial daemon"
    );
}

#[test]
fn experiment_harness_smoke_test() {
    // A minimal configuration: every experiment must produce a non-empty
    // table and report that the paper's claim holds.
    let config = ExperimentConfig {
        runs: 1,
        max_steps: 500_000,
        base_seed: 0xABCD,
        ..ExperimentConfig::default()
    };
    let tables = experiments::run_all(&config);
    assert_eq!(tables.len(), experiments::registry().len());
    for table in &tables {
        assert!(!table.rows.is_empty(), "{} has no rows", table.id);
        assert!(!table.headers.is_empty());
        // Text and CSV rendering never panic and contain the data.
        let text = table.to_text();
        let csv = table.to_csv();
        assert!(text.contains(&table.id));
        assert!(csv.lines().count() > table.rows.len());
    }
    // The impossibility table must confirm both theorems on every row.
    let imp = tables.iter().find(|t| t.id == "E7/E8").unwrap();
    for row in &imp.rows {
        assert_eq!(row[3], "true");
        assert_eq!(row[4], "true");
        assert_eq!(row[6], "false");
    }
}
