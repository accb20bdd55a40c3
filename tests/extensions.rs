//! Integration tests for the extension surface: the guarded-action DSL, the
//! locally-central daemon and the round-robin transformer, used together
//! across crates.

use selfstab::prelude::*;
use selfstab_core::transformer::{ColoringSpec, EdgeCheckable, RoundRobinChecker, SeparationSpec};
use selfstab_runtime::guarded::{ActionContext, GuardedAction, GuardedProtocol};
use selfstab_runtime::scheduler::LocallyCentral;

/// The MIS protocol runs unchanged under the locally-central daemon (a
/// strictly weaker adversary than the distributed one) and still satisfies
/// its bounds.
#[test]
fn mis_under_the_locally_central_daemon() {
    let graph = generators::grid(5, 5);
    let protocol = Mis::with_greedy_coloring(&graph);
    let mut sim = Simulation::new(
        &graph,
        protocol,
        LocallyCentral::new(0.6),
        3,
        SimOptions::default(),
    );
    let report = sim.run_until_silent(2_000_000);
    assert!(report.silent);
    assert!(verify::is_maximal_independent_set(
        &graph,
        &Mis::output(sim.config())
    ));
    assert!(sim.stats().measured_efficiency() <= 1);
}

/// The transformer applied to a non-coloring edge-checkable specification
/// (circular separation) stabilizes on topologies from the graph crate and
/// stays 1-efficient.
#[test]
fn transformer_on_a_separation_constraint() {
    let graph = generators::petersen();
    let protocol = RoundRobinChecker::new(SeparationSpec::new(16, 2));
    let mut sim = Simulation::new(
        &graph,
        protocol,
        DistributedRandom::new(0.5),
        9,
        SimOptions::default(),
    );
    let report = sim.run_until_silent(2_000_000);
    assert!(report.silent);
    let values = RoundRobinChecker::<SeparationSpec>::output(sim.config());
    let spec = SeparationSpec::new(16, 2);
    for (p, q) in graph.edges() {
        assert!(!spec.conflict(&values[p.index()], &values[q.index()]));
    }
    assert!(sim.stats().measured_efficiency() <= 1);
}

/// A protocol authored with the guarded-action DSL composes with the
/// transformer-equivalent hand-written protocol: both compute a proper
/// coloring on the same hypercube.
#[test]
fn guarded_dsl_protocol_on_a_hypercube() {
    let graph = generators::hypercube(4);
    let palette = graph.max_degree() + 1;

    // A DSL transcription of the Figure 7 COLORING protocol.
    let conflict = GuardedAction::new(
        "conflict-redraw",
        move |ctx: &ActionContext<'_, '_, (usize, Port), usize>| {
            let cur = ctx.state.1.clamp_to_degree(ctx.degree());
            *ctx.read(cur) == ctx.state.0
        },
        move |ctx, rng| {
            use rand::Rng;
            let cur = ctx.state.1.clamp_to_degree(ctx.degree());
            (
                rng.gen_range(0..palette),
                cur.next_round_robin(ctx.degree()),
            )
        },
    );
    let advance = GuardedAction::new(
        "advance",
        move |ctx: &ActionContext<'_, '_, (usize, Port), usize>| {
            let cur = ctx.state.1.clamp_to_degree(ctx.degree());
            *ctx.read(cur) != ctx.state.0
        },
        |ctx, _| {
            let cur = ctx.state.1.clamp_to_degree(ctx.degree());
            (ctx.state.0, cur.next_round_robin(ctx.degree()))
        },
    );
    let dsl_protocol = GuardedProtocol::new(
        "dsl-coloring",
        vec![conflict, advance],
        move |graph, p, rng: &mut dyn rand::RngCore| {
            use rand::Rng;
            (
                rng.gen_range(0..palette),
                Port::new(rng.gen_range(0..graph.degree(p))),
            )
        },
        |_, state| state.0,
        move |_, _| 64,
        move |_, _| 64,
        |graph: &Graph, config: &[(usize, Port)]| {
            graph
                .edges()
                .all(|(a, b)| config[a.index()].0 != config[b.index()].0)
        },
    );

    let mut sim = Simulation::new(
        &graph,
        dsl_protocol,
        DistributedRandom::new(0.5),
        5,
        SimOptions::default(),
    );
    let report = sim.run_until_silent(2_000_000);
    assert!(report.silent);
    let colors: Vec<usize> = sim.config().iter().map(|s| s.0).collect();
    assert!(verify::is_proper_coloring(&graph, &colors));
    assert!(sim.stats().measured_efficiency() <= 1);

    // Cross-check with the hand-written protocol on the same topology.
    let handwritten = RoundRobinChecker::new(ColoringSpec::new(&graph));
    let mut sim = Simulation::new(
        &graph,
        handwritten,
        DistributedRandom::new(0.5),
        6,
        SimOptions::default(),
    );
    assert!(sim.run_until_silent(2_000_000).silent);
}
