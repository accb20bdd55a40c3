//! The incremental executor matches its from-scratch reference, and the
//! sharded executor is observably identical to the sequential one, at
//! every worker count, under every daemon and every fault model.
//!
//! The executor shards the graph into contiguous node partitions and runs
//! guard evaluation and activation staging per shard (on worker threads
//! when `step_workers > 1`), then merges the per-shard results in shard
//! order. Nothing about that reorganization may be observable: this
//! regression test drives a sequential baseline (`step_workers = 1`) and
//! sharded executors at 2, 4 and 8 workers in lockstep — with the work
//! threshold forced to zero so the threaded dispatch path actually runs on
//! these small graphs — and asserts after every step and every mid-round
//! fault injection that the enabled flags, the [`StepOutcome`], the
//! configuration, and the full [`RunStats`] (including the per-port read
//! footprints behind the paper's k-efficiency measures) never diverge.
//!
//! After every operation the sequential lane's maintained enabled set is
//! also checked against [`Simulation::recompute_enabled_into`], which
//! re-evaluates every guard from scratch. Fault injection
//! ([`Simulation::set_state`]) mutates the configuration outside the
//! activation path, and two daemons carry cross-step state an injection
//! does not pass through ([`LocallyCentral`] keeps its shuffle scratch,
//! [`Fair`]'s window never sees an injected process as selected), so the
//! fixed drive injects **mid-round** (asserted under round-robin) and the
//! check runs right after each injection. Selection reads only the enabled
//! set and the daemon RNG, so a run that passes this check after every
//! operation is the run a full-recompute executor would produce.
//!
//! The protocol draws from its activation RNG, so the test also locks down
//! the worker-count-invariant per-activation RNG derivation: if worker
//! count ever leaked into the random streams, configurations would split
//! at the first randomized activation.
//!
//! A property test adds random interleavings of steps and structured fault
//! injections as inputs: the 4-worker executor must match the sequential
//! one, and the sequential one the reference, after every operation,
//! under all seven daemons.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use selfstab_graph::{generators, Graph, NodeId, Port};
use selfstab_runtime::faults::{BallCenter, FaultInjector, FaultLoad, FaultModel};
use selfstab_runtime::protocol::Protocol;
use selfstab_runtime::scheduler::{
    CentralRandom, CentralRoundRobin, DistributedRandom, Fair, LocallyCentral, Scheduler,
    StarvingAdversary, Synchronous,
};
use selfstab_runtime::view::NeighborView;
use selfstab_runtime::{SimOptions, Simulation};

/// Minimum propagation with randomized over-write: disabled processes may
/// still be selected, and enabled ones draw from the activation RNG to
/// decide between two equivalent descents. Guards read every neighbor, so
/// every fault flips guards across the whole victim neighborhood — the
/// worst case for per-shard dirty routing — and the RNG draw makes any
/// worker-count leakage into the random streams immediately visible.
struct NoisyMin;

impl Protocol for NoisyMin {
    type State = u32;
    type Comm = u32;

    fn name(&self) -> &'static str {
        "noisy-min"
    }

    fn arbitrary_state(&self, _graph: &Graph, _p: NodeId, rng: &mut dyn RngCore) -> u32 {
        rand::Rng::gen_range(rng, 0..1000)
    }

    fn comm(&self, _p: NodeId, state: &u32) -> u32 {
        *state
    }

    fn is_enabled(
        &self,
        graph: &Graph,
        p: NodeId,
        state: &u32,
        view: &NeighborView<'_, u32>,
    ) -> bool {
        (0..graph.degree(p)).any(|i| view.read(Port::new(i)) < state)
    }

    fn activate(
        &self,
        graph: &Graph,
        p: NodeId,
        state: &u32,
        view: &NeighborView<'_, u32>,
        rng: &mut dyn RngCore,
    ) -> Option<u32> {
        let min = (0..graph.degree(p))
            .map(|i| *view.read(Port::new(i)))
            .min()
            .unwrap_or(*state);
        if min >= *state {
            return None;
        }
        // Descend to the neighborhood minimum, or (with probability 1/2,
        // drawn from the per-activation RNG) overshoot-then-correct via
        // min itself plus a derived bit — both choices keep convergence,
        // but the drawn bit lands in the communication variable, so any
        // divergence in RNG streams becomes a configuration divergence.
        let jitter = (rng.next_u64() & 1) as u32;
        Some(min.saturating_sub(jitter.min(min)))
    }

    fn comm_bits(&self, _graph: &Graph, _p: NodeId) -> u64 {
        32
    }

    fn state_bits(&self, _graph: &Graph, _p: NodeId) -> u64 {
        32
    }

    fn is_legitimate(&self, _graph: &Graph, config: &[u32]) -> bool {
        let min = config.iter().min().copied().unwrap_or(0);
        config.iter().all(|&v| v == min)
    }
}

/// The structured fault models an injection cycle rotates through.
fn models() -> [FaultModel; 4] {
    [
        FaultModel::Uniform(FaultLoad::Count(2)),
        FaultModel::DegreeTargeted(FaultLoad::Count(2)),
        FaultModel::Ball {
            center: BallCenter::Random,
            radius: 1,
        },
        FaultModel::StuckAt(FaultLoad::Count(1)),
    ]
}

/// One executor under test plus its private fault stream (identically
/// seeded across all executors, so victims must match).
struct Lane<'g, S: Scheduler> {
    workers: usize,
    sim: Simulation<'g, NoisyMin, S>,
    injector: FaultInjector,
    fault_rng: StdRng,
}

/// One element of a drive: execute a step, or inject a structured fault
/// (index into [`models`]).
#[derive(Debug, Clone, Copy)]
enum Op {
    Step,
    Inject(usize),
}

/// The fixed drive: 12 cycles of 7 steps, each followed by an injection.
/// 7 steps between injections is coprime with every round length in play,
/// so injections keep landing mid-round.
fn cycle_ops() -> Vec<Op> {
    (0..12)
        .flat_map(|cycle| std::iter::repeat_n(Op::Step, 7).chain([Op::Inject(cycle)]))
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

/// Drives the sequential baseline and sharded executors at each of
/// `workers` in lockstep under one daemon through `ops`, and asserts that
/// no observable ever diverges and that the baseline's enabled set equals
/// the from-scratch reference after every operation. Returns how many
/// injections landed strictly inside a round.
fn assert_ops_equivalence<S: Scheduler>(
    graph: &Graph,
    make: impl Fn() -> S,
    daemon: &str,
    seed: u64,
    ops: &[Op],
    workers: &[usize],
) -> usize {
    let lane = |workers: usize| {
        let options = SimOptions::default()
            .with_step_workers(workers)
            // Force the threaded dispatch path: the production threshold
            // would keep these deliberately small graphs sequential.
            .with_parallel_work_threshold(0);
        Lane {
            workers,
            sim: Simulation::new(graph, NoisyMin, make(), seed, options),
            injector: FaultInjector::new(graph),
            fault_rng: StdRng::seed_from_u64(seed ^ 0x5EED),
        }
    };
    let mut baseline = lane(1);
    let mut sharded: Vec<Lane<'_, S>> = workers.iter().map(|&w| lane(w)).collect();

    let models = models();
    let mut reference = Vec::new();
    // Step count at the most recent round boundary: an injection lands
    // mid-round exactly when steps have run since then.
    let mut round_boundary = 0u64;
    let mut mid_round_injections = 0usize;
    for (i, &op) in ops.iter().enumerate() {
        match op {
            Op::Step => {
                let rounds_before = baseline.sim.rounds();
                let expected_outcome = baseline.sim.step();
                if baseline.sim.rounds() > rounds_before {
                    round_boundary = baseline.sim.steps();
                }
                for lane in &mut sharded {
                    let outcome = lane.sim.step();
                    let workers = lane.workers;
                    assert_eq!(
                        outcome, expected_outcome,
                        "{daemon}/workers={workers}: step outcome diverged (op {i})"
                    );
                    assert_eq!(
                        lane.sim.last_selected(),
                        baseline.sim.last_selected(),
                        "{daemon}/workers={workers}: selected list diverged (op {i})"
                    );
                    assert_eq!(
                        lane.sim.last_executed(),
                        baseline.sim.last_executed(),
                        "{daemon}/workers={workers}: executed list diverged (op {i})"
                    );
                }
            }
            Op::Inject(m) => {
                if baseline.sim.steps() > round_boundary {
                    mid_round_injections += 1;
                }
                let model = models[m % models.len()];
                let expected_victims = baseline
                    .injector
                    .inject(&mut baseline.sim, model, &mut baseline.fault_rng)
                    .to_vec();
                for lane in &mut sharded {
                    let victims = lane
                        .injector
                        .inject(&mut lane.sim, model, &mut lane.fault_rng);
                    let workers = lane.workers;
                    assert_eq!(
                        victims,
                        &expected_victims[..],
                        "{daemon}/workers={workers}: victim selection must be worker-count-independent"
                    );
                    assert_eq!(
                        lane.sim.stats(),
                        baseline.sim.stats(),
                        "{daemon}/workers={workers}: stats diverged after injection (op {i}, {model})"
                    );
                }
            }
        }
        // The heart of the regression: updates and mid-round injections
        // mark dirty nodes straight into per-shard queues; the baseline's
        // maintained enabled set must equal the from-scratch reference,
        // and every sharded lane's configuration and enabled set must
        // match the baseline's, after every operation.
        baseline.sim.recompute_enabled_into(&mut reference);
        let expected_flags = baseline.sim.enabled_set().as_flags().to_vec();
        assert_eq!(
            expected_flags, reference,
            "{daemon}: maintained enabled set diverged from the reference (op {i})"
        );
        for lane in &mut sharded {
            let workers = lane.workers;
            assert_eq!(
                lane.sim.config(),
                baseline.sim.config(),
                "{daemon}/workers={workers}: configuration diverged (op {i})"
            );
            assert_eq!(
                lane.sim.enabled_set().as_flags(),
                expected_flags,
                "{daemon}/workers={workers}: enabled flags diverged (op {i})"
            );
        }
    }
    // After the storm, every executor settles to the same silent point
    // with the same observable statistics, in the same number of steps.
    let expected_report = baseline.sim.run_until_silent(100_000);
    assert!(
        expected_report.silent,
        "{daemon}: baseline must re-stabilize"
    );
    baseline.sim.recompute_enabled_into(&mut reference);
    assert_eq!(
        baseline.sim.enabled_set().as_flags(),
        &reference[..],
        "{daemon}: maintained enabled set diverged from the reference at silence"
    );
    for lane in &mut sharded {
        let report = lane.sim.run_until_silent(100_000);
        let workers = lane.workers;
        assert_eq!(
            report, expected_report,
            "{daemon}/workers={workers}: reports diverged"
        );
        assert_eq!(lane.sim.config(), baseline.sim.config());
        assert_eq!(
            lane.sim.stats(),
            baseline.sim.stats(),
            "{daemon}/workers={workers}: final stats diverged"
        );
    }
    mid_round_injections
}

/// The fixed drive at 2, 4 and 8 workers; returns how many of its 12
/// injections landed mid-round.
fn assert_parallel_equivalence<S: Scheduler>(
    graph: &Graph,
    make: impl Fn() -> S,
    daemon: &str,
) -> usize {
    assert_ops_equivalence(graph, make, daemon, 0x5AA27, &cycle_ops(), &[2, 4, 8])
}

#[test]
fn sharded_executor_matches_sequential_under_every_daemon() {
    let grid = generators::grid(4, 5);
    assert_parallel_equivalence(&grid, || Synchronous, "synchronous");
    // One process per step on 20 processes, 7 steps between injections:
    // the injections land strictly inside rounds, the timing the
    // dirty-marking of `set_state` has to survive.
    let mid_round =
        assert_parallel_equivalence(&grid, CentralRoundRobin::new, "central-round-robin");
    assert!(
        mid_round >= 10,
        "injections overwhelmingly land mid-round ({mid_round} of 12)"
    );
    assert_parallel_equivalence(&grid, CentralRandom::enabled_only, "central-random-enabled");
    assert_parallel_equivalence(&grid, || DistributedRandom::new(0.4), "distributed-random");
    assert_parallel_equivalence(&grid, || LocallyCentral::new(&grid, 0.5), "locally-central");
    assert_parallel_equivalence(
        &grid,
        || Fair::new(DistributedRandom::new(0.05), 4),
        "fair(distributed-random)",
    );
    assert_parallel_equivalence(
        &grid,
        || Fair::new(StarvingAdversary::new(), 3),
        "fair(starving-adversary)",
    );
}

#[test]
fn sharded_executor_matches_sequential_on_irregular_topologies() {
    // Degree-skewed graphs stress the degree-weighted partition cuts: the
    // hub of a star and the tail of a barabasi-albert graph land in
    // different shards at different worker counts.
    let ba = generators::barabasi_albert(60, 3, &mut StdRng::seed_from_u64(7))
        .expect("valid barabasi-albert parameters");
    let topologies = [("star-24", generators::star(24)), ("ba-60", ba)];
    for (name, graph) in &topologies {
        assert_parallel_equivalence(graph, || Synchronous, &format!("{name}/synchronous"));
        assert_parallel_equivalence(
            graph,
            || DistributedRandom::new(0.3),
            &format!("{name}/distributed-random"),
        );
    }
}

#[test]
fn more_workers_than_nodes_degrades_gracefully() {
    // 8 workers on a 6-node ring: the partition clamps to nonempty shards
    // (fewer shards than requested workers) and must still agree with the
    // sequential executor all the way to silence.
    let ring = generators::ring(6);
    assert_parallel_equivalence(&ring, || Synchronous, "tiny-ring/synchronous");
    assert_parallel_equivalence(
        &ring,
        CentralRoundRobin::new,
        "tiny-ring/central-round-robin",
    );
}

/// Runs one random interleaving at 4 workers under the daemon with index
/// `daemon_idx` (all seven are covered).
fn run_with_daemon(graph: &Graph, daemon_idx: usize, seed: u64, ops: &[Op]) {
    let check = |make: &dyn Fn() -> Box<dyn Scheduler + Send>, daemon: &str| {
        assert_ops_equivalence(graph, make, daemon, seed, ops, &[4]);
    };
    match daemon_idx {
        0 => check(&|| Box::new(Synchronous), "synchronous"),
        1 => check(&|| Box::new(CentralRoundRobin::new()), "round-robin"),
        2 => check(
            &|| Box::new(CentralRandom::enabled_only()),
            "central-random",
        ),
        3 => check(
            &|| Box::new(DistributedRandom::new(0.4)),
            "distributed-random",
        ),
        4 => check(
            &|| Box::new(LocallyCentral::new(graph, 0.5)),
            "locally-central",
        ),
        5 => check(
            &|| Box::new(Fair::new(DistributedRandom::new(0.05), 4)),
            "fair(distributed-random)",
        ),
        _ => check(
            &|| Box::new(Fair::new(StarvingAdversary::new(), 3)),
            "fair(starving-adversary)",
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The sharded executor is observably identical to the sequential one
    /// under random step/fault interleavings, for every daemon.
    #[test]
    fn random_step_fault_interleavings_match_sequential_under_every_daemon(
        daemon_idx in 0usize..7,
        seed in 0u64..1_000_000,
        ops_seed in 0u64..1_000_000,
    ) {
        let graph = generators::grid(4, 5);
        let ops = ops_from_seed(ops_seed);
        run_with_daemon(&graph, daemon_idx, seed, &ops);
    }
}
