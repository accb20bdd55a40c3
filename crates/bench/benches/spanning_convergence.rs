//! E12/E13 — spanning subsystem: time to silence of the BFS spanning tree
//! and the communication-efficient leader election across topology
//! families.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use selfstab_analysis::Workload;
use selfstab_bench::{bench_config, SAMPLE_SIZE};
use selfstab_core::spanning::{BfsTree, LeaderElection};
use selfstab_graph::{Identifiers, NodeId, RootedGraph};
use selfstab_runtime::scheduler::DistributedRandom;
use selfstab_runtime::{SimOptions, Simulation};

fn workloads() -> Vec<Workload> {
    vec![
        Workload::Ring(64),
        Workload::Grid(8, 8),
        Workload::Tree(64),
        Workload::Hypercube(6),
    ]
}

fn bench_bfs_tree(c: &mut Criterion) {
    let cfg = bench_config();
    let mut group = c.benchmark_group("e12_bfs_tree_convergence");
    group.sample_size(SAMPLE_SIZE);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(3));
    for workload in workloads() {
        let graph = workload.build(cfg.base_seed);
        let network = RootedGraph::new(graph.clone(), NodeId::new(graph.node_count() / 2))
            .expect("root in range");
        group.bench_with_input(
            BenchmarkId::from_parameter(workload.label()),
            &network,
            |b, net| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed = seed.wrapping_add(1);
                    let mut sim = Simulation::new(
                        net.graph(),
                        BfsTree::new(net),
                        DistributedRandom::new(0.5),
                        seed,
                        SimOptions::default(),
                    );
                    let report = sim.run_until_silent(cfg.max_steps);
                    assert!(report.silent, "BFS tree must stabilize");
                    report.total_steps
                })
            },
        );
    }
    group.finish();
}

fn bench_leader_election(c: &mut Criterion) {
    let cfg = bench_config();
    let mut group = c.benchmark_group("e13_leader_election_convergence");
    group.sample_size(SAMPLE_SIZE);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(3));
    for workload in workloads() {
        let graph = workload.build(cfg.base_seed);
        group.bench_with_input(
            BenchmarkId::from_parameter(workload.label()),
            &graph,
            |b, g| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed = seed.wrapping_add(1);
                    let ids =
                        Identifiers::shuffled(g.node_count(), &mut StdRng::seed_from_u64(seed));
                    let mut sim = Simulation::new(
                        g,
                        LeaderElection::new(g, ids),
                        DistributedRandom::new(0.5),
                        seed,
                        SimOptions::default().with_check_interval(8),
                    );
                    let report = sim.run_until_silent(cfg.max_steps);
                    assert!(report.silent, "leader election must stabilize");
                    report.total_steps
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_bfs_tree, bench_leader_election);
criterion_main!(benches);
