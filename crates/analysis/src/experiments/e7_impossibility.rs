//! E7/E8 — the impossibility constructions of Theorems 1 and 2
//! (Figures 1–6).
//!
//! For each maximum degree ∆ the table builds the paper's counterexample
//! configuration, checks that it violates the problem predicate and that it
//! is silent for the corresponding frozen-read (1-stable) protocol, and then
//! simulates it for a large number of steps to confirm that no
//! communication variable ever changes — the executable analogue of "the
//! protocol never recovers, hence no such protocol is self-stabilizing".

use selfstab_core::impossibility::{theorem1, theorem2};
use selfstab_graph::Graph;
use selfstab_runtime::scheduler::DistributedRandom;
use selfstab_runtime::{Protocol, SimOptions, Simulation};

use super::ExperimentConfig;
use crate::campaign::{grid2, CampaignSpec};
use crate::table::ExperimentTable;

/// The theorem axis of the E7/E8 grid.
#[derive(Clone, Copy)]
enum Theorem {
    /// Theorem 1: anonymous networks.
    One,
    /// Theorem 2: rooted networks with a dag orientation.
    Two,
}

impl Theorem {
    fn label(&self) -> &'static str {
        match self {
            Theorem::One => "Thm 1 (anonymous)",
            Theorem::Two => "Thm 2 (rooted+dag)",
        }
    }
}

/// Outcome of checking one counterexample.
struct CounterexampleCheck {
    /// Processes of the counterexample topology.
    nodes: usize,
    /// The configuration violates the problem predicate.
    violates_predicate: bool,
    /// The configuration is silent for the frozen-read protocol.
    silent: bool,
    /// Whether any communication variable changed during the simulation.
    escaped: bool,
}

/// The campaign cell: builds the counterexample of `theorem` for `delta`
/// and simulates it for `steps` steps.
fn cell(theorem: Theorem, delta: usize, steps: u64, seed: u64) -> CounterexampleCheck {
    fn escapes<P: Protocol>(
        graph: &Graph,
        protocol: P,
        config: Vec<P::State>,
        steps: u64,
        seed: u64,
    ) -> bool {
        let mut sim = Simulation::with_config(
            graph,
            protocol,
            DistributedRandom::new(0.5),
            config,
            seed,
            SimOptions::default(),
        );
        sim.run_steps(steps);
        sim.stats().total_comm_changes() > 0
    }
    match theorem {
        Theorem::One => {
            let ce = if delta == 2 {
                theorem1::counterexample_delta2()
            } else {
                theorem1::counterexample_general(delta).expect("delta >= 2")
            };
            CounterexampleCheck {
                nodes: ce.graph.node_count(),
                violates_predicate: ce.violates_predicate(),
                silent: ce.is_silent(),
                escaped: escapes(&ce.graph, ce.protocol, ce.config, steps, seed),
            }
        }
        Theorem::Two => {
            let ce = if delta == 2 {
                theorem2::counterexample_delta2()
            } else {
                theorem2::counterexample_general(delta).expect("delta >= 2")
            };
            CounterexampleCheck {
                nodes: ce.network.graph.node_count(),
                violates_predicate: ce.violates_predicate(),
                silent: ce.is_silent(),
                escaped: escapes(&ce.network.graph, ce.protocol, ce.config, steps, seed),
            }
        }
    }
}

/// Runs E7 (Theorem 1) and E8 (Theorem 2) and renders them as one table.
pub fn run(config: &ExperimentConfig) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E7/E8",
        "impossibility constructions: illegitimate silent configurations for 1-stable protocols",
        vec![
            "theorem",
            "Δ",
            "topology size",
            "violates predicate",
            "silent",
            "steps simulated",
            "ever escaped",
        ],
    );
    let steps = (config.max_steps / 100).clamp(1_000, 50_000);
    let spec = CampaignSpec::new(
        grid2(&[Theorem::One, Theorem::Two], &[2usize, 3, 4]),
        vec![config.base_seed],
    );
    for point in spec.run(config.threads, |c| {
        cell(c.point.0, c.point.1, steps, c.seed)
    }) {
        let (theorem, delta) = *point.point;
        let check = &point.runs[0];
        table.push_row(vec![
            theorem.label().into(),
            delta.to_string(),
            check.nodes.to_string(),
            check.violates_predicate.to_string(),
            check.silent.to_string(),
            steps.to_string(),
            check.escaped.to_string(),
        ]);
    }
    table.push_note("paper claim (Thms 1-2): every row must read violates=true, silent=true, escaped=false — the 1-stable protocol is stuck in an illegitimate configuration forever");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counterexamples_never_escape() {
        for delta in 2..=4 {
            for theorem in [Theorem::One, Theorem::Two] {
                let check = cell(theorem, delta, 2_000, 7);
                assert!(
                    check.violates_predicate && check.silent && !check.escaped,
                    "{} Δ={delta}",
                    theorem.label()
                );
            }
        }
    }

    #[test]
    fn table_rows_all_confirm_the_theorems() {
        let table = run(&ExperimentConfig::quick());
        assert_eq!(table.rows.len(), 6);
        for row in &table.rows {
            assert_eq!(row[3], "true");
            assert_eq!(row[4], "true");
            assert_eq!(row[6], "false");
        }
    }
}
