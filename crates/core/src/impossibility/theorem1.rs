//! Theorem 1 counterexamples (anonymous networks, Figures 1–2).
//!
//! Theorem 1: no ♦-k-stable (even probabilistic) neighbor-complete protocol
//! exists in arbitrary anonymous networks of degree ∆ > k. The proof splices
//! two silent configurations of an assumed ♦-(∆−1)-stable protocol into a
//! silent configuration that violates the predicate.
//!
//! The executable counterpart: for the coloring predicate (a
//! neighbor-complete specification) and the frozen-read `COLORING` protocol
//! (the strongest form of the ruled-out stability), we build exactly the
//! spliced configurations of Figure 1(c) (∆ = 2, a chain of seven
//! processes) and of the Figure 2 generalization (arbitrary ∆), and expose
//! them as [`Theorem1Counterexample`] values whose invariants —
//! *illegitimate yet silent* — are checked by the tests, the integration
//! suite and the E7/E8 experiment table.

use selfstab_graph::generators;
use selfstab_graph::{Graph, GraphError, NodeId, Port};

use super::frozen::FrozenReadColoring;

/// A ready-to-check counterexample: a topology, a frozen-read protocol and
/// the spliced configuration of the proof.
#[derive(Debug, Clone)]
pub struct Theorem1Counterexample {
    /// The anonymous topology (Figure 1(c) or its Figure 2 generalization).
    pub graph: Graph,
    /// The frozen-read coloring protocol with its designated ports (the
    /// reading choices a ♦-(∆−1)-stable protocol would have committed to).
    pub protocol: FrozenReadColoring,
    /// The spliced configuration: silent for `protocol` yet violating the
    /// coloring predicate.
    pub config: Vec<usize>,
    /// The two adjacent processes that share a color (the witness of
    /// neighbor-completeness).
    pub conflicting_pair: (NodeId, NodeId),
}

impl Theorem1Counterexample {
    /// Returns `true` when the configuration violates the coloring
    /// predicate (it must).
    pub fn violates_predicate(&self) -> bool {
        !selfstab_graph::verify::is_proper_coloring(&self.graph, &self.config)
    }

    /// Returns `true` when the configuration is silent for the frozen-read
    /// protocol (it must): no process can ever observe the conflict.
    pub fn is_silent(&self) -> bool {
        selfstab_runtime::protocol::is_silent_config(&self.protocol, &self.graph, &self.config)
    }
}

/// The ∆ = 2 counterexample of Figure 1(c): a chain of seven anonymous
/// processes in which `p'3` and `p'4` (0-based processes 2 and 3) share a
/// color while every designated read sees a different color.
pub fn counterexample_delta2() -> Theorem1Counterexample {
    let graph = generators::theorem1_spliced_chain();
    // Designated reads: the two middle processes read *away* from each
    // other, exactly the reading pattern a ♦-1-stable protocol on the
    // original five-process chains would have settled on.
    // Ports on a path built left-to-right: interior process i has port 0 ->
    // i-1 and port 1 -> i+1; the end processes have a single port 0.
    let frozen = vec![
        Port::new(0), // p'1 reads p'2
        Port::new(0), // p'2 reads p'1
        Port::new(0), // p'3 reads p'2   (never p'4)
        Port::new(1), // p'4 reads p'5   (never p'3)
        Port::new(1), // p'5 reads p'6
        Port::new(1), // p'6 reads p'7
        Port::new(0), // p'7 reads p'6
    ];
    let palette = graph.max_degree() + 1; // 3 colors
    let protocol = FrozenReadColoring::new(palette, frozen);
    // Colors: p'3 = p'4 = 0 is the violation; every frozen read crosses a
    // bichromatic edge.
    let config = vec![0, 1, 0, 0, 1, 0, 1];
    Theorem1Counterexample {
        graph,
        protocol,
        config,
        conflicting_pair: (NodeId::new(2), NodeId::new(3)),
    }
}

/// The Figure 2 generalization for an arbitrary maximum degree `delta >= 2`:
/// the center of the `∆² + 1`-process topology shares its color with one of
/// its middle neighbors, and the designated reads are chosen (as the
/// adversarial labelling of the proof allows) so that nobody ever looks at
/// the monochromatic edge.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] when `delta < 2`.
pub fn counterexample_general(delta: usize) -> Result<Theorem1Counterexample, GraphError> {
    let graph = generators::theorem1_general(delta)?;
    let n = graph.node_count();
    let center = NodeId::new(0);
    // Layout of `theorem1_general`: process 0 is the center, 1..=delta are
    // the middle processes, the rest are leaves. Port order follows edge
    // insertion: the center's port i-1 leads to middle i; middle i's port 0
    // leads to the center and ports 1.. lead to its leaves; a leaf's port 0
    // leads to its middle process.
    let conflicting_middle = NodeId::new(1);
    let other_middle = NodeId::new(2);

    let mut frozen = vec![Port::new(0); n];
    // The center reads a middle process that is NOT the conflicting one.
    frozen[center.index()] = graph
        .port_to(center, other_middle)
        .expect("center-middle edge");
    // The conflicting middle reads one of its leaves, never the center.
    frozen[conflicting_middle.index()] = Port::new(1);
    // Every other middle reads the center; every leaf reads its middle
    // (both are port 0 by construction, already the default).

    // Colors: center and the conflicting middle share color 0; all other
    // middles take color 1; all leaves take color 2 (delta >= 2 guarantees a
    // palette of at least 3).
    let mut config = vec![0usize; n];
    config[2..=delta].fill(1);
    config[(delta + 1)..n].fill(2);
    let protocol = FrozenReadColoring::new(graph.max_degree() + 1, frozen);
    Ok(Theorem1Counterexample {
        graph,
        protocol,
        config,
        conflicting_pair: (center, conflicting_middle),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfstab_runtime::scheduler::{DistributedRandom, Synchronous};
    use selfstab_runtime::{SimOptions, Simulation};

    fn assert_counterexample_holds(ce: &Theorem1Counterexample) {
        // (1) The spliced configuration violates the coloring predicate…
        assert!(
            ce.violates_predicate(),
            "the configuration should be illegitimate"
        );
        let (a, b) = ce.conflicting_pair;
        assert!(ce.graph.has_edge(a, b));
        assert_eq!(ce.config[a.index()], ce.config[b.index()]);
        // (2) …yet it is silent for the frozen-read protocol.
        assert!(ce.is_silent(), "the configuration should be silent");
    }

    #[test]
    fn delta2_counterexample_is_silent_and_illegitimate() {
        assert_counterexample_holds(&counterexample_delta2());
    }

    #[test]
    fn general_counterexamples_are_silent_and_illegitimate() {
        for delta in 2..=5 {
            let ce = counterexample_general(delta).unwrap();
            assert_counterexample_holds(&ce);
        }
        assert!(counterexample_general(1).is_err());
    }

    #[test]
    fn simulation_never_escapes_the_spliced_configuration() {
        // Run the frozen-read protocol from the spliced configuration under
        // two different daemons: the communication variables never change
        // and the predicate stays violated — the protocol does not
        // self-stabilize, which is exactly Theorem 1's claim for ♦-1-stable
        // protocols on ∆ = 2 topologies.
        let ce = counterexample_delta2();
        for seed in 0..5u64 {
            let mut sim = Simulation::with_config(
                &ce.graph,
                ce.protocol.clone(),
                DistributedRandom::new(0.5),
                ce.config.clone(),
                seed,
                SimOptions::default(),
            );
            sim.run_steps(2_000);
            assert_eq!(
                sim.config(),
                ce.config.as_slice(),
                "colors changed under seed {seed}"
            );
            assert!(!sim.is_legitimate());
            assert_eq!(sim.stats().total_comm_changes(), 0);
        }
        let mut sim = Simulation::with_config(
            &ce.graph,
            ce.protocol.clone(),
            Synchronous,
            ce.config.clone(),
            99,
            SimOptions::default(),
        );
        sim.run_steps(2_000);
        assert_eq!(sim.config(), ce.config.as_slice());
    }

    #[test]
    fn the_unrestricted_protocol_does_escape() {
        // Sanity check of the contrast: the real COLORING protocol (which
        // keeps scanning all neighbors round-robin) started from the same
        // illegitimate configuration does converge — the impossibility is
        // about the restriction to fewer-than-∆ reads, not about the
        // configuration itself.
        use crate::coloring::{Coloring, ColoringState};
        let ce = counterexample_delta2();
        let config: Vec<ColoringState> = ce
            .config
            .iter()
            .map(|&color| ColoringState {
                color,
                cur: Port::new(0),
            })
            .collect();
        let protocol = Coloring::with_palette(3);
        let mut sim = Simulation::with_config(
            &ce.graph,
            protocol,
            DistributedRandom::new(0.5),
            config,
            7,
            SimOptions::default(),
        );
        let report = sim.run_until_silent(200_000);
        assert!(report.silent);
        assert!(report.legitimate);
    }
}
