//! E9 — stabilized-phase overhead and transient-fault recovery.
//!
//! The paper's motivation (Section 1): the cost of self-stabilization when
//! there are *no* faults is the repeated checking of neighbors. This
//! experiment measures, for the 1-efficient MIS and its Δ-efficient
//! baseline:
//!
//! * the read operations performed per round *after* stabilization (the
//!   steady-state overhead the paper's contribution reduces), and
//! * the rounds needed to re-stabilize after `f` processes suffer a
//!   transient fault.
//!
//! Recovery runs through the fault-scenario engine
//! ([`selfstab_runtime::faults`]): a single uniform-random
//! [`FaultPlan`] injection — the easiest-case fault model. Experiment
//! E14 sweeps the *structured* models (degree-targeted hubs, ball-radius
//! regional corruption, adversarial stuck states, bursty re-injection) on
//! the same protocols.

use rand::rngs::StdRng;
use rand::SeedableRng;
use selfstab_core::baselines::BaselineMis;
use selfstab_core::mis::Mis;
use selfstab_graph::Graph;
use selfstab_runtime::faults::{run_fault_plan, FaultInjector, FaultLoad, FaultModel, FaultPlan};
use selfstab_runtime::scheduler::Synchronous;
use selfstab_runtime::{Protocol, Scheduler, SimOptions, Simulation};

use super::{topologies, ExperimentConfig, Topology};
use crate::campaign::{grid3, CampaignSpec, CellOutcome};
use crate::stats::Summary;
use crate::table::ExperimentTable;
use crate::workloads::Workload;

/// The protocol axis of the E9 grid (shared with E14).
#[derive(Clone, Copy)]
pub(super) enum MisKind {
    /// The paper's 1-efficient MIS.
    Efficient,
    /// The Δ-efficient local-checking baseline.
    Baseline,
}

impl MisKind {
    /// The protocol label used in table rows.
    pub(super) fn label(&self) -> &'static str {
        match self {
            MisKind::Efficient => "mis-1-efficient",
            MisKind::Baseline => "mis-baseline",
        }
    }
}

/// Metrics of one run whose initial stabilization succeeded.
struct FaultRecoveryRun {
    /// Reads per process per round over the stabilized window.
    steady_reads_per_round: f64,
    /// Rounds to re-stabilize after the faults (`None`: the recovery run
    /// did not re-stabilize within the budget).
    recovery_rounds: Option<u64>,
}

/// Total read operations per round over `window_rounds` further completed
/// rounds of a (typically stabilized) simulation — the pre-fault steady
/// baseline. Shared by E9 and E14 so their steady-state figures stay
/// directly comparable.
pub(super) fn steady_window_reads_per_round<P: Protocol, S: Scheduler>(
    sim: &mut Simulation<'_, P, S>,
    window_rounds: u64,
) -> f64 {
    let reads_before = sim.stats().total_read_operations();
    let rounds_before = sim.rounds();
    while sim.rounds() < rounds_before + window_rounds {
        sim.step();
    }
    (sim.stats().total_read_operations() - reads_before) as f64 / window_rounds as f64
}

/// The fault-stream RNG of a cell, derived from the cell seed — identical
/// in E9 and E14, so a uniform E14 scenario replays E9's faults exactly.
pub(super) fn fault_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(7))
}

/// The campaign cell: stabilize, measure the steady-state read overhead
/// over a fixed window of rounds, inject transient faults, and measure the
/// re-stabilization cost.
fn cell(
    graph: &Graph,
    kind: MisKind,
    faults: FaultLoad,
    config: &ExperimentConfig,
    seed: u64,
) -> CellOutcome<FaultRecoveryRun> {
    fn drive<P: Protocol>(
        graph: &Graph,
        protocol: P,
        faults: FaultLoad,
        config: &ExperimentConfig,
        seed: u64,
    ) -> CellOutcome<FaultRecoveryRun> {
        let mut sim = Simulation::new(graph, protocol, Synchronous, seed, SimOptions::default());
        if !sim.run_until_silent(config.max_steps).silent {
            return CellOutcome::Timeout;
        }
        // Steady-state read overhead over a fixed window of rounds.
        let steady_reads_per_round =
            steady_window_reads_per_round(&mut sim, 20) / graph.node_count() as f64;

        // Transient faults, then re-stabilization — through the
        // fault-scenario engine (one uniform injection at scenario start is
        // the seed experiment's model, expressed as a FaultPlan).
        let mut fault_rng = fault_rng(seed);
        let plan = FaultPlan::single(FaultModel::Uniform(faults));
        let mut injector = FaultInjector::new(graph);
        let telemetry = run_fault_plan(
            &mut sim,
            &plan,
            &mut injector,
            &mut fault_rng,
            config.max_steps,
        );
        CellOutcome::Stabilized(FaultRecoveryRun {
            steady_reads_per_round,
            recovery_rounds: telemetry.recovery_rounds,
        })
    }
    match kind {
        MisKind::Efficient => drive(
            graph,
            Mis::with_greedy_coloring(graph),
            faults,
            config,
            seed,
        ),
        MisKind::Baseline => drive(
            graph,
            BaselineMis::with_greedy_coloring(graph),
            faults,
            config,
            seed,
        ),
    }
}

/// Runs E9 and renders its table.
pub fn run(config: &ExperimentConfig) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E9",
        "stabilized-phase reads per process per round and recovery after transient faults (MIS vs baseline)",
        vec!["workload", "faults f", "protocol", "steady reads/process/round", "recovery rounds", "timeouts"],
    );
    let topologies = topologies(
        [
            Workload::Grid(5, 5),
            Workload::Gnp(40, 0.15),
            Workload::Star(25),
        ],
        config,
    );
    let fault_loads = [
        FaultLoad::Count(1),
        FaultLoad::Fraction(0.1),
        FaultLoad::Fraction(0.25),
    ];
    let kinds = [MisKind::Efficient, MisKind::Baseline];
    let spec = CampaignSpec::with_config(
        grid3(&topologies.iter().collect::<Vec<_>>(), &fault_loads, &kinds),
        config,
    );
    for point in spec.run(config.threads, |c| {
        cell(&c.point.0.graph, c.point.2, c.point.1, config, c.seed)
    }) {
        let (Topology { workload, graph }, faults, kind) = point.point;
        let steady = Summary::from_samples(point.stabilized().map(|r| r.steady_reads_per_round));
        let recovery = Summary::from_counts(point.stabilized().filter_map(|r| r.recovery_rounds));
        // A run times out when it never stabilizes, or when it stabilizes
        // but fails to recover from the injected faults.
        let timeouts = point.runs.len() - recovery.count;
        table.push_row(vec![
            workload.label(),
            faults.resolve(graph).to_string(),
            kind.label().to_string(),
            format!("{:.2}", steady.mean),
            recovery.display_mean_max(),
            timeouts.to_string(),
        ]);
    }
    table.push_note("paper claim (§1): after stabilization the 1-efficient protocol reads at most 1 register per process per activation, the local-checking baseline reads up to Δ; both recover from any transient fault");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The runs of `kind` on `graph` over the configuration's seeds, each
    /// of which must stabilize and then recover from `faults`.
    fn recovered_runs(
        graph: &Graph,
        kind: MisKind,
        faults: FaultLoad,
        cfg: &ExperimentConfig,
    ) -> Vec<FaultRecoveryRun> {
        cfg.seeds()
            .map(|seed| match cell(graph, kind, faults, cfg, seed) {
                CellOutcome::Stabilized(run) if run.recovery_rounds.is_some() => run,
                _ => panic!("{} seed {seed} timed out", kind.label()),
            })
            .collect()
    }

    #[test]
    fn efficient_protocol_reads_less_in_steady_state() {
        let cfg = ExperimentConfig::quick();
        let star = &topologies([Workload::Star(13)], &cfg)[0].graph;
        let steady = |kind| {
            let runs = recovered_runs(star, kind, FaultLoad::Count(1), &cfg);
            Summary::from_samples(runs.iter().map(|r| r.steady_reads_per_round)).mean
        };
        let efficient = steady(MisKind::Efficient);
        let baseline = steady(MisKind::Baseline);
        // The 1-efficient protocol reads at most one register per process
        // per round; the baseline's hub reads Δ = 12 registers whenever the
        // daemon activates it while enabled-checking, so its average is
        // higher on a star.
        assert!(efficient <= 1.01);
        assert!(baseline < efficient + 13.0, "sanity upper bound");
    }

    #[test]
    fn both_protocols_recover_from_faults() {
        let cfg = ExperimentConfig::quick();
        let grid = &topologies([Workload::Grid(4, 4)], &cfg)[0].graph;
        for kind in [MisKind::Efficient, MisKind::Baseline] {
            let runs = recovered_runs(grid, kind, FaultLoad::Fraction(0.25), &cfg);
            assert_eq!(runs.len() as u64, cfg.runs);
        }
    }
}
