//! Differential test of the executor on the real protocols.
//!
//! For each protocol of this crate, a sequential executor with the default
//! options is the baseline. Its maintained enabled set must equal the
//! from-scratch reference (`Simulation::recompute_enabled_into`) after
//! every injection and every step, which makes its run the one a
//! full-recompute executor would produce. A second lane runs the same
//! execution beside it on the 4-worker sharded executor (threaded dispatch
//! forced on these small graphs) and must be **byte-identical** to the
//! baseline at every observation point: step outcomes, executed lists,
//! configurations, maintained enabled sets, silence/legitimacy verdicts,
//! statistics and final reports.
//!
//! The drive alternates structured fault injections with short step bursts,
//! so the comparison covers corrupted configurations, repair waves and the
//! silent regime, not just clean convergence. A final case records an MIS
//! fault-recovery run into a trace file and replays it with deep per-step
//! record comparison.

use rand::rngs::StdRng;
use rand::SeedableRng;
use selfstab_core::coloring::Coloring;
use selfstab_core::matching::Matching;
use selfstab_core::mis::{Membership, Mis, MisState};
use selfstab_core::spanning::LeaderElection;
use selfstab_core::transformer::{ColoringSpec, RoundRobinChecker};
use selfstab_graph::{generators, Graph, Identifiers};
use selfstab_runtime::faults::{
    run_fault_plan, BallCenter, FaultEvent, FaultInjector, FaultLoad, FaultModel, FaultPlan,
};
use selfstab_runtime::scheduler::DistributedRandom;
use selfstab_runtime::telemetry::{replay_with, Fnv64, TraceFileReader, TraceFooter, TraceHeader};
use selfstab_runtime::{FileSink, Protocol, RunStats, SimOptions, Simulation};

/// One executor lane: a simulation in some executor configuration plus its
/// own (identically seeded) fault stream.
struct Lane<'g, P: Protocol> {
    sim: Simulation<'g, P, DistributedRandom>,
    injector: FaultInjector,
    fault_rng: StdRng,
}

fn models() -> [FaultModel; 3] {
    [
        FaultModel::Uniform(FaultLoad::Fraction(0.25)),
        FaultModel::Ball {
            center: BallCenter::Random,
            radius: 1,
        },
        FaultModel::DegreeTargeted(FaultLoad::Count(3)),
    ]
}

/// The 4-worker sharded executor, dispatching to threads on every phase.
fn sharded_options() -> SimOptions {
    SimOptions::default()
        .with_step_workers(4)
        .with_parallel_work_threshold(0)
}

/// Asserts that `sim`'s maintained enabled set equals the from-scratch
/// reference (`at` says where in the drive the check ran).
fn assert_matches_reference<P: Protocol>(
    sim: &mut Simulation<'_, P, DistributedRandom>,
    reference: &mut Vec<bool>,
    name: &str,
    at: std::fmt::Arguments<'_>,
) {
    sim.recompute_enabled_into(reference);
    assert_eq!(
        sim.enabled_set().as_flags(),
        &reference[..],
        "{name}: maintained enabled set diverged from the reference {at}"
    );
}

/// Runs the sequential baseline against the sharded lane in lockstep
/// through fault/repair cycles, checks the baseline against the reference
/// after every injection and step, and asserts that no observable ever
/// diverges between the two lanes.
fn assert_mode_equivalence<P: Protocol>(
    graph: &Graph,
    make: impl Fn() -> P,
    seed: u64,
    name: &str,
) {
    let lane = |options: SimOptions| Lane {
        sim: Simulation::new(graph, make(), DistributedRandom::new(0.5), seed, options),
        injector: FaultInjector::new(graph),
        fault_rng: StdRng::seed_from_u64(seed ^ 0xFA17),
    };
    let mut baseline = lane(SimOptions::default());
    let mut sharded = lane(sharded_options());
    let mut reference = Vec::new();

    let models = models();
    for cycle in 0..8 {
        let model = models[cycle % models.len()];
        let expected_victims = baseline
            .injector
            .inject(&mut baseline.sim, model, &mut baseline.fault_rng)
            .to_vec();
        assert_matches_reference(
            &mut baseline.sim,
            &mut reference,
            name,
            format_args!("after the injection of cycle {cycle}"),
        );
        let victims = sharded
            .injector
            .inject(&mut sharded.sim, model, &mut sharded.fault_rng);
        assert_eq!(
            victims,
            &expected_victims[..],
            "{name}/workers-4: victims diverged at cycle {cycle}"
        );
        for step in 0..9 {
            let expected_outcome = baseline.sim.step();
            assert_matches_reference(
                &mut baseline.sim,
                &mut reference,
                name,
                format_args!("at cycle {cycle} step {step}"),
            );
            let outcome = sharded.sim.step();
            assert_eq!(
                outcome, expected_outcome,
                "{name}/workers-4: step outcome diverged at cycle {cycle} step {step}"
            );
            assert_eq!(
                sharded.sim.last_executed(),
                baseline.sim.last_executed(),
                "{name}/workers-4: executed list diverged at cycle {cycle} step {step}"
            );
            assert_eq!(
                sharded.sim.config(),
                baseline.sim.config(),
                "{name}/workers-4: configuration diverged at cycle {cycle} step {step}"
            );
            assert_eq!(
                sharded.sim.enabled_set().as_flags(),
                baseline.sim.enabled_set().as_flags(),
                "{name}/workers-4: enabled flags diverged at cycle {cycle} step {step}"
            );
            assert_eq!(
                sharded.sim.is_silent(),
                baseline.sim.is_silent(),
                "{name}/workers-4: silence verdict diverged at cycle {cycle} step {step}"
            );
            assert_eq!(
                sharded.sim.is_legitimate(),
                baseline.sim.is_legitimate(),
                "{name}/workers-4: legitimacy verdict diverged at cycle {cycle} step {step}"
            );
        }
    }

    // Settle: same silent point, same verdicts, same stats.
    let expected_report = baseline.sim.run_until_silent(1_000_000);
    assert!(expected_report.silent, "{name}: baseline must settle");
    assert!(baseline.sim.is_legitimate());
    let report = sharded.sim.run_until_silent(1_000_000);
    assert_eq!(
        report, expected_report,
        "{name}/workers-4: final reports diverged"
    );
    assert!(
        sharded.sim.is_legitimate(),
        "{name}/workers-4: silent but not legitimate"
    );
    assert_eq!(
        sharded.sim.config(),
        baseline.sim.config(),
        "{name}/workers-4: final configurations diverged"
    );
    assert_eq!(
        sharded.sim.stats(),
        baseline.sim.stats(),
        "{name}/workers-4: stats diverged"
    );
}

#[test]
fn coloring_modes_match_sequential() {
    let graph = generators::ring(24);
    assert_mode_equivalence(&graph, || Coloring::new(&graph), 11, "coloring");
}

#[test]
fn mis_modes_match_sequential() {
    let graph = generators::grid(5, 6);
    assert_mode_equivalence(&graph, || Mis::with_greedy_coloring(&graph), 22, "mis");
}

#[test]
fn matching_modes_match_sequential() {
    let mut rng = StdRng::seed_from_u64(7);
    let graph = generators::gnp_connected(20, 0.25, &mut rng).expect("valid parameters");
    assert_mode_equivalence(
        &graph,
        || Matching::with_greedy_coloring(&graph),
        33,
        "matching",
    );
}

#[test]
fn leader_election_modes_match_sequential() {
    let graph = generators::grid(4, 5);
    assert_mode_equivalence(
        &graph,
        || LeaderElection::new(&graph, Identifiers::sequential(graph.node_count())),
        44,
        "leader-election",
    );
}

#[test]
fn checker_transformer_modes_match_sequential() {
    let graph = generators::ring(18);
    assert_mode_equivalence(
        &graph,
        || RoundRobinChecker::new(ColoringSpec::new(&graph)),
        55,
        "rr-checker(coloring)",
    );
}

fn mis_config_digest(config: &[MisState]) -> u64 {
    let mut hasher = Fnv64::new();
    hasher.write_usize(config.len());
    for state in config {
        hasher.write_bool(state.status == Membership::Dominator);
        hasher.write_usize(state.cur.index());
    }
    hasher.finish()
}

/// Records an MIS fault-recovery run into a trace file, replays it with
/// deep per-step record comparison, and cross-checks the whole run against
/// the 4-worker sharded execution of the same scenario.
#[test]
fn record_replay_verifies_against_capture() {
    let graph = generators::grid(6, 6);
    let seed = 64;
    let plan = || {
        FaultPlan::new(vec![
            FaultEvent {
                at_step: 0,
                model: FaultModel::Uniform(FaultLoad::Fraction(0.25)),
            },
            FaultEvent {
                at_step: 17,
                model: FaultModel::StuckAt(FaultLoad::Count(3)),
            },
            FaultEvent {
                at_step: 43,
                model: FaultModel::Uniform(FaultLoad::Count(2)),
            },
        ])
    };
    const FAULT_RNG_SALT: u64 = 0xFA17;
    const MAX_STEPS: u64 = 3_000;
    let path = std::env::temp_dir().join(format!(
        "sstb_step_replay_{seed}_{}.trace",
        std::process::id()
    ));

    // Record under the default options.
    let mut sim = Simulation::new(
        &graph,
        Mis::with_greedy_coloring(&graph),
        DistributedRandom::new(0.5),
        seed,
        SimOptions::default(),
    );
    let sink = FileSink::create(
        &path,
        &TraceHeader {
            node_count: graph.node_count() as u64,
            seed,
            meta: format!("protocol=mis-1-efficient;seed={seed}"),
        },
    )
    .expect("creates trace file");
    sim.attach_trace_sink(Box::new(sink));
    let mut injector = FaultInjector::new(&graph);
    let mut rng = StdRng::seed_from_u64(seed ^ FAULT_RNG_SALT);
    run_fault_plan(&mut sim, &plan(), &mut injector, &mut rng, MAX_STEPS);
    let steps = sim.steps();
    assert!(steps > 0, "the scenario must execute steps");
    let recorded_stats: RunStats = sim.stats().clone();
    let recorded_config = sim.config().to_vec();
    let mut sink = sim.detach_trace_sink().expect("sink attached");
    sink.finish(&TraceFooter {
        steps,
        stats_digest: recorded_stats.digest(),
        config_digest: mis_config_digest(&recorded_config),
    })
    .expect("seals trace file");

    // The same scenario on the sharded executor must produce the same run.
    let mut sharded = Simulation::new(
        &graph,
        Mis::with_greedy_coloring(&graph),
        DistributedRandom::new(0.5),
        seed,
        sharded_options(),
    );
    let mut injector = FaultInjector::new(&graph);
    let mut rng = StdRng::seed_from_u64(seed ^ FAULT_RNG_SALT);
    run_fault_plan(&mut sharded, &plan(), &mut injector, &mut rng, MAX_STEPS);
    assert_eq!(sharded.steps(), steps, "sharded run: step count");
    assert_eq!(sharded.stats(), &recorded_stats, "sharded run: stats");
    assert_eq!(
        sharded.config(),
        &recorded_config[..],
        "sharded run: config"
    );

    // Replay, comparing every step record activation by activation.
    let mut reader = TraceFileReader::open(&path).expect("opens trace file");
    let records = reader.read_to_end().expect("decodes step stream");
    let footer = *reader.footer().expect("footer after the stream");
    assert_eq!(footer.steps, steps);

    let scenario = plan();
    let mut injector = FaultInjector::new(&graph);
    let mut rng = StdRng::seed_from_u64(seed ^ FAULT_RNG_SALT);
    let mut next_event = 0;
    let outcome = replay_with(
        &graph,
        Mis::with_greedy_coloring(&graph),
        seed,
        SimOptions::default(),
        records,
        |sim| {
            while next_event < scenario.events().len()
                && scenario.events()[next_event].at_step <= sim.steps()
            {
                injector.inject(sim, scenario.events()[next_event].model, &mut rng);
                next_event += 1;
            }
        },
    )
    .unwrap_or_else(|divergence| panic!("{divergence}"));

    assert_eq!(
        next_event,
        scenario.events().len(),
        "every recorded injection must fire during replay"
    );
    assert_eq!(outcome.steps, steps, "replay: step count");
    assert_eq!(outcome.stats, recorded_stats, "replay: RunStats equality");
    assert_eq!(outcome.config, recorded_config, "replay: final config");
    assert_eq!(
        outcome.stats.digest(),
        footer.stats_digest,
        "replay: stats digest vs footer"
    );
    assert_eq!(
        mis_config_digest(&outcome.config),
        footer.config_digest,
        "replay: config digest vs footer"
    );
    std::fs::remove_file(&path).ok();
}
