//! The reference matrix: the executor's maintained enabled set equals the
//! from-scratch reference after every step and every fault injection, for
//! every shipped protocol under every daemon and every fault model.
//!
//! `Simulation::recompute_enabled_into` re-evaluates every guard against
//! the current configuration. Selection reads only the enabled set and the
//! daemon RNG, so a run whose maintained set equals the reference after
//! every operation is the run an executor that re-evaluated every guard on
//! every step would produce. The matrix crosses:
//!
//! * the shipped protocols — COLORING, MIS, MATCHING, the leader election,
//!   the round-robin checker transformer over the coloring spec and the
//!   rooted BFS spanning tree, each on a topology of its own;
//! * the seven daemons — synchronous, central round-robin, central random
//!   over the enabled processes, distributed random, locally central, and
//!   the fairness wrapper over distributed random and over the starving
//!   adversary;
//! * the four structured fault models — uniform, degree-targeted, ball and
//!   stuck-at.
//!
//! Each cell runs a fixed drive: 12 cycles of 7 steps, each followed by an
//! injection. Fault injection (`Simulation::set_state`) mutates the
//! configuration outside the activation path, and two daemons carry
//! cross-step state an injection does not pass through (`LocallyCentral`
//! keeps its shuffle scratch, `Fair`'s window never sees an injected
//! process as selected), so the injections land **mid-round** — asserted
//! under round-robin — and the check runs right after each one. The cell
//! then runs to silence, checking after every step, and must end silent
//! and legitimate. It must also have evaluated no more guards than an
//! executor that re-evaluated every guard at each of its refreshes.
//!
//! A property test adds random step/injection interleavings for random
//! (protocol, daemon) pairs on random topologies, and a final case records
//! an MIS fault-recovery run into a trace file and replays it, comparing
//! every step record activation by activation.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use selfstab_core::coloring::Coloring;
use selfstab_core::matching::Matching;
use selfstab_core::mis::{Membership, Mis, MisState};
use selfstab_core::spanning::{BfsTree, LeaderElection};
use selfstab_core::transformer::{ColoringSpec, RoundRobinChecker};
use selfstab_graph::{generators, Graph, Identifiers, NodeId, RootedGraph};
use selfstab_runtime::faults::{
    run_fault_plan, BallCenter, FaultEvent, FaultInjector, FaultLoad, FaultModel, FaultPlan,
};
use selfstab_runtime::scheduler::{
    CentralRandom, CentralRoundRobin, DistributedRandom, Fair, LocallyCentral, Scheduler,
    StarvingAdversary, Synchronous,
};
use selfstab_runtime::telemetry::{self, Fnv64, TraceFileReader, TraceFooter, TraceHeader};
use selfstab_runtime::{FileSink, Protocol, RunStats, SimOptions, Simulation};

/// The seven daemons, by name.
const DAEMONS: [&str; 7] = [
    "synchronous",
    "central-round-robin",
    "central-random-enabled",
    "distributed-random",
    "locally-central",
    "fair(distributed-random)",
    "fair(starving-adversary)",
];

/// Builds the daemon called `name`.
fn daemon(name: &str) -> Box<dyn Scheduler + Send> {
    match name {
        "synchronous" => Box::new(Synchronous),
        "central-round-robin" => Box::new(CentralRoundRobin::new()),
        "central-random-enabled" => Box::new(CentralRandom::enabled_only()),
        "distributed-random" => Box::new(DistributedRandom::new(0.4)),
        "locally-central" => Box::new(LocallyCentral::new(0.5)),
        "fair(distributed-random)" => Box::new(Fair::new(DistributedRandom::new(0.05), 4)),
        "fair(starving-adversary)" => Box::new(Fair::new(StarvingAdversary::new(), 3)),
        other => panic!("unknown daemon {other}"),
    }
}

/// The four structured fault models.
fn models() -> [FaultModel; 4] {
    [
        FaultModel::Uniform(FaultLoad::Fraction(0.25)),
        FaultModel::DegreeTargeted(FaultLoad::Count(3)),
        FaultModel::Ball {
            center: BallCenter::Random,
            radius: 1,
        },
        FaultModel::StuckAt(FaultLoad::Count(2)),
    ]
}

/// The shipped protocols, in the order [`with_protocol`] builds them.
const PROTOCOLS: [&str; 6] = [
    "coloring",
    "mis",
    "matching",
    "leader-election",
    "rr-checker(coloring)",
    "bfs-tree",
];

/// The index of the one rooted protocol in [`PROTOCOLS`].
const BFS_TREE: usize = 5;

/// A run over one protocol. The method is generic, so one protocol table
/// ([`with_protocol`]) serves the fixed drives and the property test.
trait OnProtocol {
    fn run<P: Protocol>(&mut self, graph: &Graph, protocol: P);
}

/// Runs `on` over shipped protocol `index` (see [`PROTOCOLS`]) on
/// `graph`; the BFS tree is rooted at `root`.
fn with_protocol(index: usize, graph: &Graph, root: NodeId, on: &mut impl OnProtocol) {
    match index {
        0 => on.run(graph, Coloring::new(graph)),
        1 => on.run(graph, Mis::with_greedy_coloring(graph)),
        2 => on.run(graph, Matching::with_greedy_coloring(graph)),
        3 => {
            let ids = Identifiers::sequential(graph.node_count());
            on.run(graph, LeaderElection::new(graph, ids));
        }
        4 => on.run(graph, RoundRobinChecker::new(ColoringSpec::new(graph))),
        _ => {
            let network = RootedGraph::new(graph.clone(), root).expect("root in range");
            on.run(graph, BfsTree::new(&network));
        }
    }
}

/// The fixed drives' topology for shipped protocol `index`; the BFS tree
/// is rooted at process 0.
fn fixed_topology(index: usize) -> Graph {
    match index {
        0 => generators::ring(24),
        1 => generators::grid(5, 6),
        2 => generators::gnp_connected(20, 0.25, &mut StdRng::seed_from_u64(7))
            .expect("valid parameters"),
        4 => generators::ring(18),
        _ => generators::grid(4, 5),
    }
}

/// A random topology of about `n` processes for shipped protocol `index`:
/// a ring, grid, connected G(n, p) or random tree by `family` for the BFS
/// tree, and the G(n, p) for every other protocol.
fn random_topology(index: usize, family: u8, n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let family = if index == BFS_TREE { family } else { 2 };
    match family {
        0 => generators::ring(n),
        1 => {
            let rows = 2 + n % 4;
            generators::grid(rows, n.div_ceil(rows).max(2))
        }
        2 => {
            let p = (0.15 + 3.0 / n as f64).min(1.0);
            generators::gnp_connected(n, p, &mut rng).expect("valid parameters")
        }
        _ => generators::random_tree(n, &mut rng),
    }
}

/// One element of a drive: execute a step, or inject a structured fault
/// (index into [`models`]).
#[derive(Debug, Clone, Copy)]
enum Op {
    Step,
    Inject(usize),
}

/// The fixed drive: 12 cycles of 7 steps, each followed by an injection of
/// fault model `model`. 7 steps between injections is coprime with every
/// process count in [`fixed_topology`], so under round-robin the
/// injections land mid-round.
fn cycle_ops(model: usize) -> Vec<Op> {
    (0..12)
        .flat_map(|_| std::iter::repeat_n(Op::Step, 7).chain([Op::Inject(model)]))
        .collect()
}

/// Derives a random step/inject interleaving from one seed (the vendored
/// proptest exposes scalar range strategies; sequences are derived).
fn ops_from_seed(seed: u64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let len = rand::Rng::gen_range(&mut rng, 5..30usize);
    (0..len)
        .map(|_| {
            if rand::Rng::gen_range(&mut rng, 0..5u32) == 0 {
                Op::Inject(rand::Rng::gen_range(&mut rng, 0..4usize))
            } else {
                Op::Step
            }
        })
        .collect()
}

/// Steps a drive may take to re-stabilize after its last operation.
const SETTLE_STEPS: u64 = 200_000;

/// Asserts that `sim`'s maintained enabled set equals the from-scratch
/// reference (`at` says where in the drive the check ran).
fn assert_matches_reference<P: Protocol, S: Scheduler>(
    sim: &mut Simulation<'_, P, S>,
    reference: &mut Vec<bool>,
    lane: &str,
    at: std::fmt::Arguments<'_>,
) {
    sim.recompute_enabled_into(reference);
    assert!(
        sim.enabled_set().flags().eq(reference.iter().copied()),
        "{lane}: maintained enabled set diverged from the reference {at}"
    );
}

/// One drive of the matrix: a protocol under one daemon through `ops`.
struct Drive<'a> {
    daemon: &'static str,
    seed: u64,
    ops: &'a [Op],
    /// Set by the run: how many injections landed strictly inside a round.
    mid_round_injections: usize,
}

impl OnProtocol for Drive<'_> {
    /// Drives the protocol through `ops`, checking the reference after
    /// every operation, then runs it to silence, checking after every
    /// step.
    fn run<P: Protocol>(&mut self, graph: &Graph, protocol: P) {
        let lane = format!("{}/{}/{graph}", protocol.name(), self.daemon);
        let mut sim = Simulation::new(
            graph,
            protocol,
            daemon(self.daemon),
            self.seed,
            SimOptions::default(),
        );
        let mut injector = FaultInjector::new(graph);
        let mut fault_rng = StdRng::seed_from_u64(self.seed ^ 0xFA17);
        let models = models();
        let mut reference = Vec::new();
        // Step count at the most recent round boundary: an injection lands
        // mid-round exactly when steps have run since then.
        let mut round_boundary = 0u64;
        let mut injections = 0u64;
        // Guards the injector evaluates itself: the stuck-at model scores
        // each candidate state through the enabled set.
        let mut search_evaluations = 0u64;
        for (i, &op) in self.ops.iter().enumerate() {
            match op {
                Op::Step => {
                    let rounds_before = sim.rounds();
                    sim.step();
                    if sim.rounds() > rounds_before {
                        round_boundary = sim.steps();
                    }
                }
                Op::Inject(m) => {
                    if sim.steps() > round_boundary {
                        self.mid_round_injections += 1;
                    }
                    let before = sim.guard_evaluations();
                    injector.inject(&mut sim, models[m], &mut fault_rng);
                    search_evaluations += sim.guard_evaluations() - before;
                    injections += 1;
                }
            }
            assert_matches_reference(
                &mut sim,
                &mut reference,
                &lane,
                format_args!("after op {i} ({op:?})"),
            );
        }
        let budget = sim.steps() + SETTLE_STEPS;
        while !sim.is_silent() && sim.steps() < budget {
            sim.step();
            let steps = sim.steps();
            assert_matches_reference(
                &mut sim,
                &mut reference,
                &lane,
                format_args!("while settling, at step {steps}"),
            );
        }
        assert!(sim.is_silent(), "{lane}: must re-stabilize");
        assert!(sim.is_legitimate(), "{lane}: silent but not legitimate");
        // Every operation is followed by a check, so the guards refresh
        // once initially, once per step and once per injection, each
        // evaluating a guard at most once.
        let refreshes = sim.steps() + 1 + injections;
        let evaluations = sim.guard_evaluations() - search_evaluations;
        assert!(
            evaluations <= refreshes * graph.node_count() as u64,
            "{lane}: {evaluations} guard evaluations in {refreshes} refreshes"
        );
    }
}

/// The fixed drive for every daemon × fault model on shipped protocol
/// `index`.
fn assert_matrix(index: usize) {
    let graph = fixed_topology(index);
    for daemon in DAEMONS {
        for (m, model) in models().iter().enumerate() {
            let ops = cycle_ops(m);
            let mut drive = Drive {
                daemon,
                seed: 0x5AA27 + index as u64,
                ops: &ops,
                mid_round_injections: 0,
            };
            with_protocol(index, &graph, NodeId::new(0), &mut drive);
            if daemon == "central-round-robin" {
                let mid_round = drive.mid_round_injections;
                assert!(
                    mid_round >= 10,
                    "{}/{daemon}/{model}: injections overwhelmingly land mid-round \
                     ({mid_round} of 12)",
                    PROTOCOLS[index]
                );
            }
        }
    }
}

#[test]
fn coloring_matches_the_reference_under_every_daemon_and_fault_model() {
    assert_matrix(0);
}

#[test]
fn mis_matches_the_reference_under_every_daemon_and_fault_model() {
    assert_matrix(1);
}

#[test]
fn matching_matches_the_reference_under_every_daemon_and_fault_model() {
    assert_matrix(2);
}

#[test]
fn leader_election_matches_the_reference_under_every_daemon_and_fault_model() {
    assert_matrix(3);
}

#[test]
fn checker_transformer_matches_the_reference_under_every_daemon_and_fault_model() {
    assert_matrix(4);
}

#[test]
fn bfs_tree_matches_the_reference_under_every_daemon_and_fault_model() {
    assert_matrix(BFS_TREE);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random step/fault interleavings keep the maintained enabled set
    /// equal to the reference, for every protocol under every daemon on
    /// random topologies.
    #[test]
    fn random_step_fault_interleavings_match_the_reference(
        protocol in 0usize..6,
        daemon_idx in 0usize..7,
        seed in 0u64..1_000_000,
        ops_seed in 0u64..1_000_000,
        n in 4usize..20,
        family in 0u8..4,
        root_pick in 0usize..1_000,
    ) {
        let ops = ops_from_seed(ops_seed);
        let mut drive = Drive {
            daemon: DAEMONS[daemon_idx],
            seed,
            ops: &ops,
            mid_round_injections: 0,
        };
        let graph = random_topology(protocol, family, n, seed);
        let root = NodeId::new(root_pick % graph.node_count());
        with_protocol(protocol, &graph, root, &mut drive);
    }
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

/// Records an MIS fault-recovery run into a trace file and replays it,
/// comparing every step record activation by activation and the final
/// stats and configuration with the recording and its footer digests.
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

    // Replay, comparing every step record activation by activation.
    let mut reader = TraceFileReader::open(&path).expect("opens trace file");
    let records = reader.read_to_end().expect("decodes step stream");
    let footer = *reader.footer().expect("footer after the stream");
    assert_eq!(footer.steps, steps);

    let mut replay_rng = StdRng::seed_from_u64(seed ^ FAULT_RNG_SALT);
    let outcome = telemetry::replay(
        &graph,
        Mis::with_greedy_coloring(&graph),
        seed,
        SimOptions::default(),
        records,
        &plan(),
        &mut replay_rng,
    )
    .unwrap_or_else(|divergence| panic!("{divergence}"));

    assert_eq!(
        replay_rng.next_u64(),
        rng.next_u64(),
        "the replay must draw exactly the recording's fault stream"
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
