//! End-to-end record → replay determinism, across every daemon.
//!
//! Each case runs a randomized protocol (the activation draws from the
//! per-activation RNG, so the replay must reproduce the executor's RNG
//! keying exactly) under one of the seven daemons, with mid-run fault
//! injections driven by the fault-scenario engine, while a [`FileSink`]
//! captures the step stream. The trace file is then read back and
//! replayed through [`telemetry::replay`] with the same plan and fault
//! RNG; the replayed [`RunStats`] and final configuration must equal the
//! recording's both by `PartialEq` and by the FNV digests sealed in the
//! trace footer.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use selfstab_graph::{generators, Graph, NodeId, Port};
use selfstab_runtime::faults::{
    run_fault_plan, FaultEvent, FaultInjector, FaultLoad, FaultModel, FaultPlan,
};
use selfstab_runtime::protocol::Protocol;
use selfstab_runtime::scheduler::{
    CentralRandom, CentralRoundRobin, DistributedRandom, Fair, LocallyCentral, Scheduler,
    StarvingAdversary, Synchronous,
};
use selfstab_runtime::telemetry::{self, Fnv64, TraceFileReader, TraceFooter, TraceHeader};
use selfstab_runtime::view::NeighborView;
use selfstab_runtime::{FileSink, RunStats, SimOptions, Simulation};

/// Greedy coloring whose repair move consults the activation RNG: a
/// process in conflict with a neighbor jumps to a *random* free color.
/// Replay can only reproduce this if the executor's `(seed, step,
/// process)` RNG keying survives the round trip.
struct RandomRecolor {
    palette: usize,
}

impl Protocol for RandomRecolor {
    type State = usize;
    type Comm = usize;

    fn name(&self) -> &'static str {
        "random-recolor"
    }

    fn arbitrary_state(&self, _graph: &Graph, _p: NodeId, rng: &mut dyn RngCore) -> usize {
        rng.gen_range(0..self.palette)
    }

    fn comm(&self, _p: NodeId, state: &usize) -> usize {
        *state
    }

    fn is_enabled(
        &self,
        graph: &Graph,
        p: NodeId,
        state: &usize,
        view: &NeighborView<'_, usize>,
    ) -> bool {
        (0..graph.degree(p)).any(|i| view.read(Port::new(i)) == state)
    }

    fn activate(
        &self,
        graph: &Graph,
        p: NodeId,
        state: &usize,
        view: &NeighborView<'_, usize>,
        rng: &mut dyn RngCore,
    ) -> Option<usize> {
        let taken: Vec<usize> = (0..graph.degree(p))
            .map(|i| *view.read(Port::new(i)))
            .collect();
        if !taken.contains(state) {
            return None;
        }
        let free: Vec<usize> = (0..self.palette).filter(|c| !taken.contains(c)).collect();
        if free.is_empty() {
            None
        } else {
            Some(free[rng.gen_range(0..free.len())])
        }
    }

    fn comm_bits(&self, _graph: &Graph, _p: NodeId) -> u64 {
        8
    }

    fn state_bits(&self, _graph: &Graph, _p: NodeId) -> u64 {
        8
    }

    fn is_legitimate(&self, graph: &Graph, config: &[usize]) -> bool {
        graph.nodes().all(|p| {
            graph
                .neighbors(p)
                .all(|q| config[p.index()] != config[q.index()])
        })
    }
}

fn config_digest(config: &[usize]) -> u64 {
    let mut hasher = Fnv64::new();
    hasher.write_usize(config.len());
    for &state in config {
        hasher.write_usize(state);
    }
    hasher.finish()
}

/// The mid-run fault plan: injections landing between round boundaries
/// while earlier repairs are still in flight.
fn plan() -> FaultPlan {
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
}

const FAULT_RNG_SALT: u64 = 0xFA17;
const MAX_STEPS: u64 = 3_000;

/// Records one fault-recovery run under `scheduler` into a temp trace
/// file, replays it, and checks byte-identity of stats and config.
fn record_and_replay<S: Scheduler>(graph: &Graph, scheduler: S, seed: u64, daemon: &str) {
    let palette = graph.max_degree() + 2;
    let path = std::env::temp_dir().join(format!(
        "sstb_replay_{daemon}_{}_{}.trace",
        seed,
        std::process::id()
    ));

    // Record.
    let mut sim = Simulation::new(
        graph,
        RandomRecolor { palette },
        scheduler,
        seed,
        SimOptions::default(),
    );
    let sink = FileSink::create(
        &path,
        &TraceHeader {
            node_count: graph.node_count() as u64,
            seed,
            meta: format!("protocol=random-recolor;daemon={daemon};seed={seed}"),
        },
    )
    .expect("creates trace file");
    sim.attach_trace_sink(Box::new(sink));
    let mut injector = FaultInjector::new(graph);
    let mut rng = StdRng::seed_from_u64(seed ^ FAULT_RNG_SALT);
    run_fault_plan(&mut sim, &plan(), &mut injector, &mut rng, MAX_STEPS);
    let steps = sim.steps();
    assert!(steps > 0, "{daemon}: the scenario must execute steps");
    let recorded_stats: RunStats = sim.stats().clone();
    let stats_digest = recorded_stats.digest();
    let cfg_digest = config_digest(sim.config());
    let recorded_config = sim.config().to_vec();
    let mut sink = sim.detach_trace_sink().expect("sink attached");
    sink.finish(&TraceFooter {
        steps,
        stats_digest,
        config_digest: cfg_digest,
    })
    .expect("seals trace file");

    // Replay: every replayed step record is compared with the recorded
    // one, activation by activation (executed flag, comm flag, reads).
    let mut reader = TraceFileReader::open(&path).expect("opens trace file");
    let records = reader.read_to_end().expect("decodes step stream");
    let footer = *reader.footer().expect("footer after the stream");
    assert_eq!(footer.steps, steps, "{daemon}");

    let mut replay_rng = StdRng::seed_from_u64(seed ^ FAULT_RNG_SALT);
    let outcome = telemetry::replay(
        graph,
        RandomRecolor { palette },
        seed,
        SimOptions::default(),
        records,
        &plan(),
        &mut replay_rng,
    )
    .unwrap_or_else(|divergence| panic!("{daemon}: {divergence}"));

    assert_eq!(
        replay_rng.next_u64(),
        rng.next_u64(),
        "{daemon}: the replay must draw exactly the recording's fault stream"
    );
    assert_eq!(outcome.steps, steps, "{daemon}: step count");
    assert_eq!(outcome.stats, recorded_stats, "{daemon}: RunStats equality");
    assert_eq!(outcome.config, recorded_config, "{daemon}: final config");
    assert_eq!(
        outcome.stats.digest(),
        footer.stats_digest,
        "{daemon}: stats digest vs footer"
    );
    assert_eq!(
        config_digest(&outcome.config),
        footer.config_digest,
        "{daemon}: config digest vs footer"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn record_replay_round_trips_under_every_daemon() {
    let ring = generators::ring(40);
    let grid = generators::grid(6, 6);

    record_and_replay(&ring, Synchronous, 11, "synchronous");
    record_and_replay(&ring, CentralRoundRobin::new(), 12, "central-round-robin");
    record_and_replay(&ring, CentralRandom::new(), 13, "central-random");
    record_and_replay(
        &ring,
        CentralRandom::enabled_only(),
        14,
        "central-random-enabled",
    );
    record_and_replay(&grid, DistributedRandom::new(0.4), 15, "distributed-random");
    record_and_replay(&grid, StarvingAdversary::new(), 16, "starving-adversary");
    record_and_replay(&grid, LocallyCentral::new(0.5), 17, "locally-central");
    record_and_replay(
        &ring,
        Fair::new(StarvingAdversary::new(), 8),
        18,
        "fair-starving",
    );
}

/// A truncated trace (no footer) and a doctored step stream must both be
/// reported, not silently replayed.
#[test]
fn corrupt_traces_are_rejected() {
    let ring = generators::ring(16);
    let seed = 5;
    let path =
        std::env::temp_dir().join(format!("sstb_replay_corrupt_{}.trace", std::process::id()));
    let mut sim = Simulation::new(
        &ring,
        RandomRecolor { palette: 4 },
        DistributedRandom::new(0.5),
        seed,
        SimOptions::default(),
    );
    let sink = FileSink::create(
        &path,
        &TraceHeader {
            node_count: 16,
            seed,
            meta: String::new(),
        },
    )
    .expect("creates");
    sim.attach_trace_sink(Box::new(sink));
    let mut injector = FaultInjector::new(&ring);
    let mut rng = StdRng::seed_from_u64(seed ^ FAULT_RNG_SALT);
    run_fault_plan(&mut sim, &plan(), &mut injector, &mut rng, MAX_STEPS);
    let steps = sim.steps();
    let mut sink = sim.detach_trace_sink().expect("attached");
    sink.finish(&TraceFooter {
        steps,
        stats_digest: sim.stats().digest(),
        config_digest: config_digest(sim.config()),
    })
    .expect("seals");

    // Truncation: drop the footer and half a record.
    let bytes = std::fs::read(&path).expect("reads");
    let truncated = &bytes[..bytes.len() - 20];
    let trunc_path = path.with_extension("truncated");
    std::fs::write(&trunc_path, truncated).expect("writes");
    let mut reader = TraceFileReader::open(&trunc_path).expect("header still valid");
    let result = reader.read_to_end();
    assert!(
        result.is_err() || reader.footer().is_none(),
        "a truncated stream must not produce a sealed footer"
    );

    // Replaying under the wrong seed must diverge (the executed sets
    // cannot match the recording's RNG stream).
    let mut reader = TraceFileReader::open(&path).expect("opens");
    let records = reader.read_to_end().expect("decodes");
    let mut wrong_rng = StdRng::seed_from_u64((seed + 1) ^ FAULT_RNG_SALT);
    let result = telemetry::replay(
        &ring,
        RandomRecolor { palette: 4 },
        seed + 1,
        SimOptions::default(),
        records,
        &plan(),
        &mut wrong_rng,
    );
    assert!(
        result.is_err(),
        "replaying under a different seed must report a divergence"
    );
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&trunc_path).ok();
}
