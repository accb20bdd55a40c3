//! Steady-state executor hot path: silent stepping and repair waves at
//! large `n` on the paper's workload families.
//!
//! This bench is the perf trajectory anchor for the zero-allocation hot
//! path work: `Simulation::step()` on an already-(comm-)silent MIS system
//! measures exactly the per-step machinery — scheduler selection, enabled
//! set refresh, neighbor views, round bookkeeping — with no protocol
//! progress left to pay for. The `repair_wave` scenario injects a fault
//! into the stabilized configuration and drives a bounded burst of steps,
//! exercising the dirty-set maintenance and comm-cache update paths.
//!
//! Topologies: ring (constant degree, huge diameter), grid (constant
//! degree, √n diameter), Barabási–Albert (heavy-tailed degrees, log
//! diameter) at n ∈ {10³, 10⁴, 10⁵}. Each `(topology, n)` pair is
//! stabilized **once** and the resulting configuration is shared by both
//! scenario groups, so the (expensive, up-to-10⁵-process) setup is not
//! repeated; under `--quick` the 10⁵ tier is dropped entirely, keeping
//! the CI smoke step dominated by measurement rather than setup.
//!
//! Run `cargo bench -p selfstab-bench --bench hot_path -- --format json`
//! to write `BENCH_hot_path.json` (in `crates/bench/` — cargo runs bench
//! binaries with the package directory as cwd; see the vendored criterion
//! stub docs). CI runs it with `--quick` and uploads the summary as an
//! artifact.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use selfstab_core::mis::{Membership, Mis, MisState};
use selfstab_graph::{generators, Graph, NodeId, Port};
use selfstab_runtime::scheduler::{CentralRandom, Scheduler, Synchronous};
use selfstab_runtime::telemetry::TraceHeader;
use selfstab_runtime::{FileSink, MemorySink, NullSink, SimOptions, Simulation};

const TOPOLOGIES: [&str; 3] = ["ring", "grid", "barabasi-albert"];

/// The size tiers; `--quick` drops the 10⁵ tier so the CI smoke run is not
/// dominated by stabilizing 100k-process systems.
fn sizes() -> &'static [usize] {
    if criterion::quick_mode() {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000]
    }
}

/// The workload topologies, by construction.
fn topology(name: &str, n: usize) -> Graph {
    match name {
        "ring" => generators::ring(n),
        "grid" => {
            let side = (n as f64).sqrt().round() as usize;
            generators::grid(side, side)
        }
        "barabasi-albert" => generators::barabasi_albert(n, 3, &mut StdRng::seed_from_u64(0xBA))
            .expect("valid BA parameters"),
        other => panic!("unknown topology {other}"),
    }
}

/// One shared workload: a topology plus its stabilized MIS configuration.
struct Workload {
    label: String,
    graph: Graph,
    config: Vec<MisState>,
}

/// Builds every `(topology, n)` workload once: MIS is driven to a
/// comm-silent configuration under the synchronous daemon (fast:
/// O(Δ·#colors) rounds), and both scenario groups reuse the result.
fn workloads() -> Vec<Workload> {
    let mut all = Vec::new();
    for topo in TOPOLOGIES {
        for &n in sizes() {
            let graph = topology(topo, n);
            let mut sim = Simulation::new(
                &graph,
                Mis::with_greedy_coloring(&graph),
                Synchronous,
                0xC0FFEE,
                SimOptions::default(),
            );
            let report = sim.run_until_silent(10_000 + 200 * graph.node_count() as u64);
            assert!(report.silent, "MIS must stabilize before the benchmark");
            let (config, _, _) = sim.into_parts();
            all.push(Workload {
                label: format!("{topo}-{n}"),
                graph,
                config,
            });
        }
    }
    all
}

/// A stepping simulation over a pre-stabilized configuration.
fn stepping_sim<S: Scheduler>(workload: &Workload, scheduler: S) -> Simulation<'_, Mis, S> {
    Simulation::with_config(
        &workload.graph,
        Mis::with_greedy_coloring(&workload.graph),
        scheduler,
        workload.config.clone(),
        0xFEED,
        SimOptions::default(),
    )
}

/// Per-step cost of driving an already-silent system.
fn bench_silent_stepping(c: &mut Criterion, workloads: &[Workload]) {
    let mut group = c.benchmark_group("hot_path/silent_stepping");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(150));
    group.measurement_time(Duration::from_millis(400));
    for workload in workloads {
        let mut sim = stepping_sim(workload, CentralRandom::new());
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{}/central-random", workload.label)),
            &workload.graph,
            |b, _| b.iter(|| sim.step().comm_changed),
        );

        let mut sim = stepping_sim(workload, Synchronous);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{}/synchronous", workload.label)),
            &workload.graph,
            |b, _| b.iter(|| sim.step().comm_changed),
        );
    }
    group.finish();
}

/// Fault injection into a stabilized system plus a bounded repair burst.
fn bench_repair_wave(c: &mut Criterion, workloads: &[Workload]) {
    let mut group = c.benchmark_group("hot_path/repair_wave");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(150));
    group.measurement_time(Duration::from_millis(400));
    for workload in workloads {
        let mut sim = stepping_sim(workload, CentralRandom::enabled_only());
        let victim = NodeId::new(workload.graph.node_count() / 2);
        group.bench_with_input(
            BenchmarkId::from_parameter(&workload.label),
            &workload.graph,
            |b, _| {
                b.iter(|| {
                    // Flip the victim to a conflicting membership claim:
                    // its neighborhood re-evaluates and repairs within a
                    // few activations of the enabled-process daemon.
                    sim.set_state(
                        victim,
                        MisState {
                            status: Membership::Dominator,
                            cur: Port::new(0),
                        },
                    );
                    for _ in 0..32 {
                        sim.step();
                    }
                    sim.steps()
                })
            },
        );
    }
    group.finish();
}

/// Per-step cost of the telemetry sinks against the tracing-off baseline.
///
/// Two shapes: the central random daemon selects one process per step
/// (records are a handful of bytes — the sparse-daemon shape), and the
/// synchronous daemon selects every process (records carry `n`
/// activations — the worst-case shape). `off` runs with no sink at all;
/// `null-sink` must match it, because `is_recording() == false` makes
/// the executor skip record construction; `memory-sink` and `file-sink`
/// pay record building plus varint encoding (plus buffered I/O).
fn bench_tracing(c: &mut Criterion, workloads: &[Workload]) {
    let mut group = c.benchmark_group("hot_path/tracing");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(150));
    group.measurement_time(Duration::from_millis(400));

    let sparse = workloads
        .iter()
        .find(|w| w.label == "ring-10000")
        .expect("ring-10000 exists in every mode");
    let trace_path =
        std::env::temp_dir().join(format!("sstb_bench_tracing_{}.trace", std::process::id()));
    let header = TraceHeader {
        node_count: sparse.graph.node_count() as u64,
        seed: 0xFEED,
        meta: String::from("bench=hot_path/tracing"),
    };

    let mut sim = stepping_sim(sparse, CentralRandom::new());
    group.bench_with_input(
        BenchmarkId::from_parameter(format!("{}/central-random/off", sparse.label)),
        &sparse.graph,
        |b, _| b.iter(|| sim.step().comm_changed),
    );
    let mut sim = stepping_sim(sparse, CentralRandom::new());
    sim.attach_trace_sink(Box::new(NullSink));
    group.bench_with_input(
        BenchmarkId::from_parameter(format!("{}/central-random/null-sink", sparse.label)),
        &sparse.graph,
        |b, _| b.iter(|| sim.step().comm_changed),
    );
    let mut sim = stepping_sim(sparse, CentralRandom::new());
    sim.attach_trace_sink(Box::new(MemorySink::new()));
    group.bench_with_input(
        BenchmarkId::from_parameter(format!("{}/central-random/memory-sink", sparse.label)),
        &sparse.graph,
        |b, _| b.iter(|| sim.step().comm_changed),
    );
    let mut sim = stepping_sim(sparse, CentralRandom::new());
    let sink = FileSink::create(&trace_path, &header).expect("temp trace file");
    sim.attach_trace_sink(Box::new(sink));
    group.bench_with_input(
        BenchmarkId::from_parameter(format!("{}/central-random/file-sink", sparse.label)),
        &sparse.graph,
        |b, _| b.iter(|| sim.step().comm_changed),
    );

    // Worst-case record width: every process selected every step.
    let dense = workloads
        .iter()
        .find(|w| w.label == "ring-1000")
        .expect("ring-1000 exists in every mode");
    let mut sim = stepping_sim(dense, Synchronous);
    group.bench_with_input(
        BenchmarkId::from_parameter(format!("{}/synchronous/off", dense.label)),
        &dense.graph,
        |b, _| b.iter(|| sim.step().comm_changed),
    );
    let mut sim = stepping_sim(dense, Synchronous);
    let header = TraceHeader {
        node_count: dense.graph.node_count() as u64,
        seed: 0xFEED,
        meta: String::from("bench=hot_path/tracing"),
    };
    let sink = FileSink::create(&trace_path, &header).expect("temp trace file");
    sim.attach_trace_sink(Box::new(sink));
    group.bench_with_input(
        BenchmarkId::from_parameter(format!("{}/synchronous/file-sink", dense.label)),
        &dense.graph,
        |b, _| b.iter(|| sim.step().comm_changed),
    );
    group.finish();
    std::fs::remove_file(&trace_path).ok();
}

/// Entry point: stabilize every workload once, then run every scenario
/// over the shared configurations.
fn bench_hot_path(c: &mut Criterion) {
    let workloads = workloads();
    bench_silent_stepping(c, &workloads);
    bench_repair_wave(c, &workloads);
    bench_tracing(c, &workloads);
}

criterion_group!(benches, bench_hot_path);
criterion_main!(benches);
