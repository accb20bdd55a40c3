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
use selfstab_runtime::scheduler::DistributedRandom;
use selfstab_runtime::{SimOptions, Simulation};

use super::ExperimentConfig;
use crate::campaign::{grid2, CampaignSpec};
use crate::table::ExperimentTable;

/// The theorem axis of the E7/E8 grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Theorem {
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

    fn topology_size(&self, delta: usize) -> usize {
        match self {
            Theorem::One => {
                if delta == 2 {
                    7
                } else {
                    delta * delta + 1
                }
            }
            Theorem::Two => 6 + 6 * (delta - 2),
        }
    }
}

/// Outcome of checking one counterexample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterexampleCheck {
    /// The configuration violates the problem predicate.
    pub violates_predicate: bool,
    /// The configuration is silent for the frozen-read protocol.
    pub silent: bool,
    /// Number of simulated steps during which no communication variable
    /// changed (equal to the requested budget when the check passes).
    pub steps_without_change: u64,
    /// Whether any communication variable changed during the simulation.
    pub escaped: bool,
}

/// Simulates the Theorem 1 counterexample for `delta` and reports the check.
pub fn check_theorem1(delta: usize, steps: u64, seed: u64) -> CounterexampleCheck {
    let ce = if delta == 2 {
        theorem1::counterexample_delta2()
    } else {
        theorem1::counterexample_general(delta).expect("delta >= 2")
    };
    let mut sim = Simulation::with_config(
        &ce.graph,
        ce.protocol.clone(),
        DistributedRandom::new(0.5),
        ce.config.clone(),
        seed,
        SimOptions::default(),
    );
    sim.run_steps(steps);
    CounterexampleCheck {
        violates_predicate: ce.violates_predicate(),
        silent: ce.is_silent(),
        steps_without_change: steps,
        escaped: sim.stats().total_comm_changes() > 0,
    }
}

/// Simulates the Theorem 2 counterexample for `delta` and reports the check.
pub fn check_theorem2(delta: usize, steps: u64, seed: u64) -> CounterexampleCheck {
    let ce = if delta == 2 {
        theorem2::counterexample_delta2()
    } else {
        theorem2::counterexample_general(delta).expect("delta >= 2")
    };
    let mut sim = Simulation::with_config(
        ce.graph(),
        ce.protocol.clone(),
        DistributedRandom::new(0.5),
        ce.config.clone(),
        seed,
        SimOptions::default(),
    );
    sim.run_steps(steps);
    CounterexampleCheck {
        violates_predicate: ce.violates_predicate(),
        silent: ce.is_silent(),
        steps_without_change: steps,
        escaped: sim.stats().total_comm_changes() > 0,
    }
}

/// The campaign cell: builds and simulates one counterexample.
pub fn cell(
    theorem: Theorem,
    delta: usize,
    config: &ExperimentConfig,
    seed: u64,
) -> CounterexampleCheck {
    let steps = (config.max_steps / 100).clamp(1_000, 50_000);
    match theorem {
        Theorem::One => check_theorem1(delta, steps, seed),
        Theorem::Two => check_theorem2(delta, steps, seed),
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
    let spec = CampaignSpec::new(
        grid2(&[Theorem::One, Theorem::Two], &[2usize, 3, 4]),
        vec![config.base_seed],
    );
    for point in spec.run(config.threads, |c| {
        cell(c.point.0, c.point.1, config, c.seed)
    }) {
        let (theorem, delta) = *point.point;
        let check = point.runs[0];
        table.push_row(vec![
            theorem.label().into(),
            delta.to_string(),
            theorem.topology_size(delta).to_string(),
            check.violates_predicate.to_string(),
            check.silent.to_string(),
            check.steps_without_change.to_string(),
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
            let c1 = check_theorem1(delta, 2_000, 7);
            assert!(
                c1.violates_predicate && c1.silent && !c1.escaped,
                "thm1 Δ={delta}"
            );
            let c2 = check_theorem2(delta, 2_000, 7);
            assert!(
                c2.violates_predicate && c2.silent && !c2.escaped,
                "thm2 Δ={delta}"
            );
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
