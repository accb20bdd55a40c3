//! Theorem 2 counterexamples (rooted, dag-oriented networks, Figures 3–6).
//!
//! Theorem 2 strengthens Theorem 1: when the communication constraint must
//! hold *from the start* (k-stability instead of ♦-k-stability), even a
//! rooted network equipped with a dag orientation — i.e. strong
//! symmetry-breaking information — does not admit k-stable
//! neighbor-complete protocols for k < ∆.
//!
//! The executable counterpart uses the frozen-read `MIS` protocol (a
//! deterministic, 1-stable protocol whose reading choices and actions may
//! depend on the local colors, hence on the dag orientation of Theorem 4 and
//! on any root marking): on the six-process network of Figure 3 (and on its
//! Figure 6 generalization) we build the spliced configuration of
//! Figure 4(c) — two adjacent Dominators whose designated reads point away
//! from each other — and show it is silent yet violates the MIS predicate.

use selfstab_graph::coloring::{Color, LocalColoring};
use selfstab_graph::generators::{self, RootedDagNetwork};
use selfstab_graph::{Graph, GraphError, NodeId, Port};

use super::frozen::FrozenReadMis;
use crate::mis::{Membership, MisState};

/// A ready-to-check counterexample for Theorem 2.
#[derive(Debug, Clone)]
pub struct Theorem2Counterexample {
    /// The rooted, dag-oriented topology (Figure 3 or its generalization).
    pub network: RootedDagNetwork,
    /// The frozen-read MIS protocol (deterministic, 1-stable, color-aware).
    pub protocol: FrozenReadMis,
    /// The spliced configuration: silent for `protocol` yet violating the
    /// MIS predicate.
    pub config: Vec<MisState>,
    /// The two adjacent Dominators witnessing the violation.
    pub conflicting_pair: (NodeId, NodeId),
}

impl Theorem2Counterexample {
    /// The underlying undirected graph.
    pub fn graph(&self) -> &Graph {
        &self.network.graph
    }

    /// Returns `true` when the configuration violates the MIS predicate.
    pub fn violates_predicate(&self) -> bool {
        !selfstab_graph::verify::is_maximal_independent_set(
            self.graph(),
            &FrozenReadMis::output(&self.config),
        )
    }

    /// Returns `true` when the configuration is silent for the frozen-read
    /// protocol.
    pub fn is_silent(&self) -> bool {
        selfstab_runtime::protocol::is_silent_config(&self.protocol, self.graph(), &self.config)
    }
}

/// Colors used on the six core processes (0-based `p1..p6`), chosen to be a
/// proper coloring of the Figure 3 cycle that satisfies all the ordering
/// constraints of the construction (see the module tests).
const CORE_COLORS: [Color; 6] = [1, 0, 0, 2, 1, 1];

/// Designated reads of the six core processes: `p2` and `p5` (the two
/// Dominators of the spliced configuration) read away from each other, and
/// every other process reads the neighbor that keeps it justified forever.
fn core_frozen_ports(graph: &Graph) -> Vec<Port> {
    let port = |a: usize, b: usize| {
        graph
            .port_to(NodeId::new(a), NodeId::new(b))
            .expect("core processes are neighbors in the Figure 3 network")
    };
    vec![
        port(0, 1), // p1 reads p2 (a Dominator of smaller color: stays dominated)
        port(1, 0), // p2 reads p1 (never p5)
        port(2, 5), // p3 reads p6 (a dominated process: p3 stays a Dominator)
        port(3, 4), // p4 reads p5 (a Dominator of smaller color: stays dominated)
        port(4, 3), // p5 reads p4 (never p2)
        port(5, 2), // p6 reads p3 (a Dominator of smaller color: stays dominated)
    ]
}

/// Membership of the six core processes in the spliced configuration:
/// `p2`, `p3` and `p5` are Dominators; `p2` and `p5` are adjacent — the
/// violation.
const CORE_STATUS: [Membership; 6] = [
    Membership::Dominated, // p1
    Membership::Dominator, // p2
    Membership::Dominator, // p3
    Membership::Dominated, // p4
    Membership::Dominator, // p5
    Membership::Dominated, // p6
];

/// The ∆ = 2 counterexample on the Figure 3 network.
pub fn counterexample_delta2() -> Theorem2Counterexample {
    build(generators::theorem2_network(), 0)
}

/// The Figure 6 generalization for maximum degree `delta >= 2`: `delta − 2`
/// pendant leaves are attached to every core process; leaves attached to a
/// Dominator core become dominated (and read their core), leaves attached to
/// a dominated core become Dominators (and are never contradicted through
/// their single designated read).
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] when `delta < 2`.
pub fn counterexample_general(delta: usize) -> Result<Theorem2Counterexample, GraphError> {
    Ok(build(generators::theorem2_general(delta)?, delta - 2))
}

fn build(network: RootedDagNetwork, pendants_per_core: usize) -> Theorem2Counterexample {
    let graph = &network.graph;
    let n = graph.node_count();
    debug_assert_eq!(n, 6 + 6 * pendants_per_core);

    // Colors: core processes keep the hand-picked proper coloring; leaves
    // take a fresh color larger than every core color, so they never force a
    // Dominator core to yield and dominated leaves are always justified.
    let leaf_color = 3;
    let mut colors = vec![leaf_color; n];
    colors[..6].copy_from_slice(&CORE_COLORS);
    let coloring = LocalColoring::new(graph, colors).expect("hand-picked coloring is proper");

    // Designated reads.
    let mut frozen = core_frozen_ports(graph);
    frozen.resize(n, Port::new(0)); // leaves read their unique core neighbor

    // Spliced configuration.
    let mut config: Vec<MisState> = CORE_STATUS
        .iter()
        .map(|&status| MisState {
            status,
            cur: Port::new(0),
        })
        .collect();
    for leaf in 6..n {
        let core = graph.neighbor(NodeId::new(leaf), Port::new(0));
        let status = match CORE_STATUS[core.index()] {
            // Leaf of a Dominator: dominated, justified forever by its core
            // (core color < leaf color).
            Membership::Dominator => Membership::Dominated,
            // Leaf of a dominated core: Dominator; its designated read sees
            // a dominated process, so action 1 never fires.
            Membership::Dominated => Membership::Dominator,
        };
        config.push(MisState {
            status,
            cur: Port::new(0),
        });
    }
    // Make every process's cur equal to its designated port for tidiness
    // (the frozen protocol ignores cur anyway).
    for (i, state) in config.iter_mut().enumerate() {
        state.cur = frozen[i];
    }

    let protocol = FrozenReadMis::new(coloring, frozen);
    Theorem2Counterexample {
        network,
        protocol,
        config,
        conflicting_pair: (NodeId::new(1), NodeId::new(4)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfstab_graph::verify;
    use selfstab_runtime::scheduler::{DistributedRandom, Synchronous};
    use selfstab_runtime::{SimOptions, Simulation};

    fn assert_counterexample_holds(ce: &Theorem2Counterexample) {
        // Two adjacent Dominators…
        let (a, b) = ce.conflicting_pair;
        assert!(ce.graph().has_edge(a, b));
        assert_eq!(ce.config[a.index()].status, Membership::Dominator);
        assert_eq!(ce.config[b.index()].status, Membership::Dominator);
        assert!(ce.violates_predicate());
        // …in a configuration that is silent for the 1-stable protocol.
        assert!(ce.is_silent());
    }

    #[test]
    fn hand_picked_coloring_is_proper_and_induces_the_dag() {
        let ce = counterexample_delta2();
        let coloring = LocalColoring::new(ce.graph(), CORE_COLORS.to_vec()).unwrap();
        // A proper coloring orients every edge towards the larger color,
        // and that orientation is a dag (Theorem 4), so the frozen-read
        // protocol really had the symmetry-breaking information Theorem 2
        // allows.
        assert!(verify::is_proper_coloring(ce.graph(), coloring.colors()));
    }

    #[test]
    fn delta2_counterexample_is_silent_and_illegitimate() {
        assert_counterexample_holds(&counterexample_delta2());
    }

    #[test]
    fn general_counterexamples_are_silent_and_illegitimate() {
        for delta in 2..=5 {
            let ce = counterexample_general(delta).unwrap();
            assert_eq!(ce.graph().max_degree(), delta);
            assert_counterexample_holds(&ce);
        }
        assert!(counterexample_general(1).is_err());
    }

    #[test]
    fn roots_and_sinks_of_the_network_are_preserved() {
        let ce = counterexample_general(3).unwrap();
        assert!(ce.network.sources().contains(&NodeId::new(0)));
        assert!(ce.network.sinks().contains(&NodeId::new(4)));
    }

    #[test]
    fn simulation_never_escapes_the_spliced_configuration() {
        let ce = counterexample_delta2();
        for seed in 0..5u64 {
            let mut sim = Simulation::with_config(
                ce.graph(),
                ce.protocol.clone(),
                DistributedRandom::new(0.5),
                ce.config.clone(),
                seed,
                SimOptions::default(),
            );
            sim.run_steps(2_000);
            assert_eq!(sim.stats().total_comm_changes(), 0, "seed {seed}");
            assert!(!sim.is_legitimate());
        }
        let mut sim = Simulation::with_config(
            ce.graph(),
            ce.protocol.clone(),
            Synchronous,
            ce.config.clone(),
            42,
            SimOptions::default(),
        );
        sim.run_steps(2_000);
        assert_eq!(sim.stats().total_comm_changes(), 0);
    }

    #[test]
    fn the_unrestricted_mis_protocol_does_escape() {
        // The round-robin MIS protocol from the same configuration (and the
        // same colors) converges to a correct MIS: the impossibility is
        // about freezing the reads, not about the configuration.
        use crate::mis::Mis;
        let ce = counterexample_delta2();
        let coloring = LocalColoring::new(ce.graph(), CORE_COLORS.to_vec()).unwrap();
        let protocol = Mis::new(coloring);
        let mut sim = Simulation::with_config(
            ce.graph(),
            protocol,
            DistributedRandom::new(0.5),
            ce.config.clone(),
            3,
            SimOptions::default(),
        );
        let report = sim.run_until_silent(100_000);
        assert!(report.silent);
        assert!(report.legitimate);
    }
}
