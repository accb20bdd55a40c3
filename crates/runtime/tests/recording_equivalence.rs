//! The executor's read recording against a naive per-port reference.
//!
//! A tracked view records an activation's distinct ports in one pass, and
//! `RunStats` records the activation on the process's CSR row, setting the
//! whole row at once when every port was read and folding the store-wide
//! totals and the widest read set once per step. Here a test protocol
//! replays a seeded script of single reads, whole-neighbourhood reads
//! (`read_all`) and repeats on random graphs, under the synchronous and
//! the distributed random daemon, and a reference that knows nothing of
//! those shortcuts recomputes every activation port by port: the distinct
//! ports in first-read order, the operation count, each process's row,
//! both per-port read sets around a suffix marker, the totals and the
//! widest read set of the run and of the suffix, updated per activation.
//! After every step each of them must equal what the executor recorded,
//! and every trace record's read list must equal the reference's.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use selfstab_graph::{generators, Graph, NodeId, Port};
use selfstab_runtime::protocol::Protocol;
use selfstab_runtime::scheduler::{DistributedRandom, Scheduler, Synchronous};
use selfstab_runtime::stats::ProcessStats;
use selfstab_runtime::view::NeighborView;
use selfstab_runtime::{SimOptions, Simulation};

/// Steps per case.
const STEPS: u64 = 24;
/// The step before which the suffix marker is placed.
const MARK_AT: u64 = 10;

/// One operation of an activation's script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// `view.read(port)`.
    Read(usize),
    /// `view.read_all()`.
    ReadAll,
}

/// What process `p` of degree `degree` reads on its `count`-th
/// activation, drawn from a generator keyed by `(seed, p, count)`, so the
/// protocol and the reference derive the same script.
fn script(seed: u64, p: NodeId, count: u32, degree: usize) -> Vec<Op> {
    let key = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (p.index() as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ u64::from(count);
    let mut rng = StdRng::seed_from_u64(key);
    if degree == 0 {
        return vec![Op::ReadAll; rng.gen_range(0..3)];
    }
    let mut ops = Vec::new();
    // One script in four starts by reading every port once, in a random
    // order, through single reads.
    if rng.gen_range(0..4) == 0 {
        let mut ports: Vec<usize> = (0..degree).collect();
        ports.shuffle(&mut rng);
        ops.extend(ports.into_iter().map(Op::Read));
    }
    for _ in 0..rng.gen_range(0..6) {
        // Ports are drawn mostly from the first three, so repeats are common.
        let op = match rng.gen_range(0..8) {
            0 | 1 => Op::ReadAll,
            2 => Op::Read(rng.gen_range(0..degree)),
            _ => Op::Read(rng.gen_range(0..degree.min(3))),
        };
        ops.push(op);
    }
    ops
}

/// Replays its script on every activation and counts its activations in
/// its state, so it is always enabled and its scripts never repeat.
struct Scripted {
    seed: u64,
}

impl Protocol for Scripted {
    type State = u32;
    type Comm = u32;

    fn name(&self) -> &'static str {
        "scripted-reads"
    }

    fn arbitrary_state(&self, _graph: &Graph, _p: NodeId, _rng: &mut dyn RngCore) -> u32 {
        0
    }

    fn comm(&self, _p: NodeId, state: &u32) -> u32 {
        *state
    }

    fn activate(
        &self,
        graph: &Graph,
        p: NodeId,
        state: &u32,
        view: &NeighborView<'_, u32>,
        _rng: &mut dyn RngCore,
    ) -> Option<u32> {
        for op in script(self.seed, p, *state, graph.degree(p)) {
            match op {
                Op::Read(port) => {
                    view.read(Port::new(port));
                }
                Op::ReadAll => {
                    view.read_all();
                }
            }
        }
        Some(state + 1)
    }

    fn comm_bits(&self, _graph: &Graph, _p: NodeId) -> u64 {
        32
    }

    fn state_bits(&self, _graph: &Graph, _p: NodeId) -> u64 {
        32
    }

    fn is_legitimate(&self, _graph: &Graph, _config: &[u32]) -> bool {
        true
    }
}

/// Which script shapes the cases met: each must occur, or the test
/// checks less than it says.
#[derive(Debug, Default)]
struct Coverage {
    read_all_after_a_read: usize,
    read_after_read_all: usize,
    every_port_by_single_reads: usize,
    repeated_reads: usize,
    nothing_read: usize,
}

impl Coverage {
    fn count(&mut self, script: &[Op], degree: usize, distinct: usize, operations: usize) {
        let after = |first: fn(&Op) -> bool, then: fn(&Op) -> bool| {
            script
                .iter()
                .position(first)
                .is_some_and(|i| script[i + 1..].iter().any(then))
        };
        let is_read = |op: &Op| matches!(op, Op::Read(_));
        let is_read_all = |op: &Op| *op == Op::ReadAll;
        self.read_all_after_a_read += usize::from(after(is_read, is_read_all));
        self.read_after_read_all += usize::from(after(is_read_all, is_read));
        self.every_port_by_single_reads +=
            usize::from(degree > 1 && distinct == degree && !script.iter().any(is_read_all));
        self.repeated_reads += usize::from(operations > distinct);
        self.nothing_read += usize::from(distinct == 0);
    }
}

/// The naive per-port reference: every read sets its port's flags one by
/// one, and every activation adds to the totals and the maxima at once.
struct Reference {
    /// Activations of each process so far (the protocol's state).
    counts: Vec<u32>,
    rows: Vec<ProcessStats>,
    read_ever: Vec<Vec<bool>>,
    read_since_marker: Vec<Vec<bool>>,
    selections: u64,
    read_operations: u64,
    selections_at_marker: u64,
    read_operations_at_marker: u64,
    /// The widest read set of any activation, over the run and since the
    /// marker.
    widest: usize,
    widest_since_marker: usize,
}

impl Reference {
    fn new(graph: &Graph) -> Self {
        let ports = |p: NodeId| vec![false; graph.degree(p)];
        Reference {
            counts: vec![0; graph.node_count()],
            rows: vec![ProcessStats::default(); graph.node_count()],
            read_ever: graph.nodes().map(ports).collect(),
            read_since_marker: graph.nodes().map(ports).collect(),
            selections: 0,
            read_operations: 0,
            selections_at_marker: 0,
            read_operations_at_marker: 0,
            widest: 0,
            widest_since_marker: 0,
        }
    }

    /// Replays `p`'s next script port by port and returns the distinct
    /// ports it read, in first-read order.
    fn activate(
        &mut self,
        seed: u64,
        graph: &Graph,
        p: NodeId,
        coverage: &mut Coverage,
    ) -> Vec<Port> {
        let i = p.index();
        let degree = graph.degree(p);
        let script = script(seed, p, self.counts[i], degree);
        self.counts[i] += 1;
        let mut distinct: Vec<Port> = Vec::new();
        let mut operations = 0;
        let read = |port: usize, distinct: &mut Vec<Port>| {
            if !distinct.contains(&Port::new(port)) {
                distinct.push(Port::new(port));
            }
        };
        for &op in &script {
            match op {
                Op::Read(port) => {
                    read(port, &mut distinct);
                    operations += 1;
                }
                Op::ReadAll => {
                    for port in 0..degree {
                        read(port, &mut distinct);
                    }
                    operations += degree;
                }
            }
        }
        coverage.count(&script, degree, distinct.len(), operations);
        for port in &distinct {
            self.read_ever[i][port.index()] = true;
            self.read_since_marker[i][port.index()] = true;
        }
        self.rows[i].selections += 1;
        self.widest = self.widest.max(distinct.len());
        self.widest_since_marker = self.widest_since_marker.max(distinct.len());
        self.selections += 1;
        self.read_operations += operations as u64;
        distinct
    }

    fn mark_suffix(&mut self) {
        for flags in &mut self.read_since_marker {
            flags.fill(false);
        }
        self.widest_since_marker = 0;
        self.selections_at_marker = self.selections;
        self.read_operations_at_marker = self.read_operations;
    }
}

/// Runs the scripted protocol on `graph` under `scheduler` and compares
/// the executor's recording with the reference after every step.
fn check<S: Scheduler>(graph: &Graph, scheduler: S, seed: u64, coverage: &mut Coverage) {
    let label = format!("{graph} under {} at seed {seed}", scheduler.name());
    let n = graph.node_count();
    let mut sim = Simulation::with_config(
        graph,
        Scripted { seed },
        scheduler,
        vec![0; n],
        seed,
        SimOptions::default(),
    );
    sim.record_trace();
    let mut reference = Reference::new(graph);
    for step in 0..STEPS {
        if step == MARK_AT {
            sim.mark_suffix();
            reference.mark_suffix();
        }
        sim.step();
        let record = sim
            .trace()
            .expect("recording")
            .records()
            .pop()
            .expect("one record per step");
        for activation in &record.activations {
            let expected = reference.activate(seed, graph, activation.process, coverage);
            assert_eq!(
                activation.reads, expected,
                "{label}: read list of {} at step {step}",
                activation.process
            );
            assert!(activation.executed);
        }

        let stats = sim.stats();
        assert_eq!(
            stats.processes(),
            &reference.rows[..],
            "{label}: rows after step {step}"
        );
        for p in graph.nodes() {
            let ever = reference.read_ever[p.index()]
                .iter()
                .filter(|&&r| r)
                .count();
            let since = reference.read_since_marker[p.index()]
                .iter()
                .filter(|&&r| r)
                .count();
            assert_eq!(
                (
                    stats.distinct_neighbors_ever(graph, p),
                    stats.distinct_neighbors_since_marker(graph, p)
                ),
                (ever, since),
                "{label}: read sets of {p} after step {step}"
            );
        }
        assert_eq!(
            (
                stats.total_read_operations(),
                stats.suffix_selections(),
                stats.suffix_read_operations(),
            ),
            (
                reference.read_operations,
                reference.selections - reference.selections_at_marker,
                reference.read_operations - reference.read_operations_at_marker,
            ),
            "{label}: totals after step {step}"
        );
        assert_eq!(
            (
                stats.measured_efficiency(),
                stats.suffix_measured_efficiency()
            ),
            (reference.widest, reference.widest_since_marker),
            "{label}: widest read sets after step {step}"
        );
    }
}

/// Random connected graphs of several shapes, plus a hub of degree 20 and
/// a graph with an isolated process (degree 0, an empty row).
fn graphs(seed: u64) -> Vec<Graph> {
    let mut rng = StdRng::seed_from_u64(seed);
    vec![
        generators::gnp_connected(18, 0.25, &mut rng).expect("valid parameters"),
        generators::barabasi_albert(30, 2, &mut rng).expect("valid parameters"),
        generators::random_tree(25, &mut rng),
        generators::random_regular(16, 3, &mut rng).expect("valid parameters"),
        generators::star(21),
        Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3)]).expect("valid edges"),
    ]
}

#[test]
fn recorded_reads_equal_a_naive_per_port_reference() {
    let mut coverage = Coverage::default();
    for seed in 0..4 {
        for graph in graphs(seed) {
            check(&graph, Synchronous, seed, &mut coverage);
            check(&graph, DistributedRandom::new(0.5), seed, &mut coverage);
        }
    }
    let Coverage {
        read_all_after_a_read,
        read_after_read_all,
        every_port_by_single_reads,
        repeated_reads,
        nothing_read,
    } = coverage;
    for (shape, count) in [
        ("read_all after a read", read_all_after_a_read),
        ("a read after read_all", read_after_read_all),
        ("every port by single reads", every_port_by_single_reads),
        ("a repeated read", repeated_reads),
        ("no read at all", nothing_read),
    ] {
        assert!(count > 0, "no activation had {shape}");
    }
}
