//! `selfstab` — a reproduction of *Communication Efficiency in
//! Self-stabilizing Silent Protocols* (Devismes, Masuzawa, Tixeuil, ICDCS
//! 2009 / INRIA RR-6731).
//!
//! The workspace is organized in layers; this facade crate re-exports them
//! and offers a few one-call helpers for the most common uses:
//!
//! * [`graph`] ([`selfstab_graph`]) — locally-labelled topologies,
//!   generators (including the paper's figures), properties, colorings,
//!   output verifiers,
//! * [`runtime`] ([`selfstab_runtime`]) — the shared-register guarded-action
//!   execution model: schedulers, rounds, read-tracking, silence detection,
//!   fault injection,
//! * [`core`] ([`selfstab_core`]) — the paper's 1-efficient protocols
//!   (`COLORING`, `MIS`, `MATCHING`), their Δ-efficient baselines, the
//!   communication-efficiency measures and the impossibility constructions,
//! * [`analysis`] ([`selfstab_analysis`]) — the experiment harness
//!   regenerating the paper's tables (the `experiments` binary; the quick
//!   tables are committed as `crates/analysis/golden/quick_tables.json`).
//!
//! # Quick start
//!
//! ```
//! use selfstab::prelude::*;
//!
//! // Color a 12-process ring with the 1-efficient COLORING protocol.
//! let graph = selfstab::graph::generators::ring(12);
//! let outcome = selfstab::run_coloring(&graph, 42, 1_000_000)
//!     .expect("COLORING stabilizes with probability 1");
//! assert!(selfstab::graph::verify::is_proper_coloring(&graph, &outcome.output));
//! assert_eq!(outcome.measured_efficiency, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use selfstab_analysis as analysis;
pub use selfstab_core as core;
pub use selfstab_graph as graph;
pub use selfstab_runtime as runtime;

/// Convenient glob-import of the most frequently used items.
pub mod prelude {
    pub use selfstab_core::baselines::{BaselineColoring, BaselineMatching, BaselineMis};
    pub use selfstab_core::coloring::Coloring;
    pub use selfstab_core::matching::Matching;
    pub use selfstab_core::mis::{Membership, Mis};
    pub use selfstab_graph::{generators, properties, verify, Graph, GraphBuilder, NodeId, Port};
    pub use selfstab_runtime::scheduler::{
        CentralRandom, CentralRoundRobin, DistributedRandom, Fair, StarvingAdversary, Synchronous,
    };
    pub use selfstab_runtime::{Protocol, RunReport, SimOptions, Simulation};
}

use selfstab_core::coloring::Coloring;
use selfstab_core::matching::Matching;
use selfstab_core::mis::Mis;
use selfstab_graph::{Graph, NodeId};
use selfstab_runtime::scheduler::DistributedRandom;
use selfstab_runtime::{Protocol, SimOptions, Simulation};

/// Result of a one-call protocol run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome<T> {
    /// The protocol's output once silent.
    pub output: T,
    /// Steps executed until silence.
    pub steps: u64,
    /// Rounds executed until silence.
    pub rounds: u64,
    /// Largest number of distinct neighbors any process read in a single
    /// activation (1 for the paper's protocols).
    pub measured_efficiency: usize,
}

/// Runs the 1-efficient `COLORING` protocol from a random configuration
/// under the distributed fair daemon until it stabilizes and returns one
/// color per process.
///
/// Returns `None` when the step budget is exhausted first (for the paper's
/// protocol this only happens if the budget is far too small — stabilization
/// has probability 1).
pub fn run_coloring(graph: &Graph, seed: u64, max_steps: u64) -> Option<RunOutcome<Vec<usize>>> {
    run_to_silence(graph, Coloring::new(graph), seed, max_steps, |_, config| {
        Coloring::output(config)
    })
}

/// Runs the 1-efficient `MIS` protocol (with a greedy local coloring as the
/// identifiers) until it stabilizes and returns the membership vector.
pub fn run_mis(graph: &Graph, seed: u64, max_steps: u64) -> Option<RunOutcome<Vec<bool>>> {
    run_to_silence(
        graph,
        Mis::with_greedy_coloring(graph),
        seed,
        max_steps,
        |_, config| Mis::output(config),
    )
}

/// Runs the 1-efficient `MATCHING` protocol until it stabilizes and returns
/// the matched edges.
pub fn run_matching(
    graph: &Graph,
    seed: u64,
    max_steps: u64,
) -> Option<RunOutcome<Vec<(NodeId, NodeId)>>> {
    run_to_silence(
        graph,
        Matching::with_greedy_coloring(graph),
        seed,
        max_steps,
        |protocol, config| protocol.output(graph, config),
    )
}

/// Shared by the three helpers: runs `protocol` from a random
/// configuration under the distributed daemon until silence and reads the
/// silent configuration through `output`; `None` when the budget runs out
/// first.
fn run_to_silence<P: Protocol, T>(
    graph: &Graph,
    protocol: P,
    seed: u64,
    max_steps: u64,
    output: impl FnOnce(&P, &[P::State]) -> T,
) -> Option<RunOutcome<T>> {
    let mut sim = Simulation::new(
        graph,
        protocol,
        DistributedRandom::new(0.5),
        seed,
        SimOptions::default(),
    );
    let report = sim.run_until_silent(max_steps);
    report.silent.then(|| RunOutcome {
        output: output(sim.protocol(), sim.config()),
        steps: report.total_steps,
        rounds: report.total_rounds,
        measured_efficiency: sim.stats().measured_efficiency(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfstab_graph::{generators, verify};

    #[test]
    fn run_coloring_produces_a_proper_coloring() {
        let graph = generators::grid(3, 4);
        let outcome = run_coloring(&graph, 1, 1_000_000).unwrap();
        assert!(verify::is_proper_coloring(&graph, &outcome.output));
        assert!(outcome.measured_efficiency <= 1);
        assert!(outcome.steps > 0 || outcome.rounds == 0);
    }

    #[test]
    fn run_mis_produces_a_maximal_independent_set() {
        let graph = generators::ring(9);
        let outcome = run_mis(&graph, 2, 1_000_000).unwrap();
        assert!(verify::is_maximal_independent_set(&graph, &outcome.output));
        assert!(outcome.measured_efficiency <= 1);
    }

    #[test]
    fn run_matching_produces_a_maximal_matching() {
        let graph = generators::figure11_example();
        let outcome = run_matching(&graph, 3, 1_000_000).unwrap();
        assert!(verify::is_maximal_matching(&graph, &outcome.output));
        assert!(2 * outcome.output.len() >= verify::matching_stability_bound(&graph));
    }

    #[test]
    fn tiny_budget_returns_none() {
        // The seed-4 start on a clique is not a proper coloring, so with no
        // step to spend the run is not silent.
        let graph = generators::complete(8);
        assert_eq!(run_coloring(&graph, 4, 0), None);
    }
}
