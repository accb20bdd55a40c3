//! E14 — recovery cost under structured fault models.
//!
//! E9 measures recovery from *uniform-random* transient faults — the
//! easiest-case scenario. This experiment sweeps the structured
//! [`FaultModel`]s of the fault-scenario
//! engine over the same protocols: the same fault *load* delivered onto
//! uniformly random victims, onto the highest-degree hubs, as a correlated
//! ball around the hub, as adversarial stuck states chosen to maximize
//! guard churn, and as a bursty re-injection train — crossed with workload,
//! daemon and protocol (the 1-efficient MIS vs its Δ-efficient baseline).
//!
//! For every cell the recovery telemetry yields three numbers: rounds to
//! re-stabilize, **availability** (fraction of post-fault rounds whose
//! configuration was still legitimate — the service-loss view), and the
//! **read spike** (peak reads in one recovery round relative to the
//! pre-fault steady state — the full-Δ repair bill a ♦-k-efficient
//! protocol may transiently pay).

use selfstab_core::baselines::BaselineMis;
use selfstab_core::mis::Mis;
use selfstab_graph::Graph;
use selfstab_runtime::faults::{
    run_fault_plan, BallCenter, FaultInjector, FaultLoad, FaultModel, FaultPlan,
};
use selfstab_runtime::{Protocol, SimOptions, Simulation};

use super::e9_fault_recovery::{fault_rng, steady_window_reads_per_round, MisKind};
use super::{topologies, ExperimentConfig};
use crate::campaign::{CampaignSpec, CellOutcome, DaemonSpec};
use crate::stats::Summary;
use crate::table::ExperimentTable;
use crate::workloads::Workload;

/// The fault load every E14 scenario delivers (per injection): 20% of the
/// processes, so uniform, hub-targeted and stuck-at scenarios corrupt the
/// same number of victims and differ only in *which* states they hit (the
/// ball scenario corrupts the hub's radius-1 region instead — on hubby
/// topologies a comparable share of the system).
const FAULT_LOAD: FaultLoad = FaultLoad::Fraction(0.2);

/// The fault-plan sweep, each plan with its row label: the same fault
/// *load* delivered uniformly at random, onto the hubs, as a correlated
/// region around the hub, and as adversarial stuck states, plus a bursty
/// uniform re-injection (three injections 8 steps apart), so recovery cost
/// is compared across *who* gets hit, not just *how many*.
fn plans() -> Vec<(String, FaultPlan)> {
    let uniform = FaultModel::Uniform(FAULT_LOAD);
    let mut plans: Vec<(String, FaultPlan)> = [
        uniform,
        FaultModel::DegreeTargeted(FAULT_LOAD),
        FaultModel::Ball {
            center: BallCenter::Hub,
            radius: 1,
        },
        FaultModel::StuckAt(FAULT_LOAD),
    ]
    .into_iter()
    .map(|model| (model.to_string(), FaultPlan::single(model)))
    .collect();
    plans.push((format!("{uniform}×3@8"), FaultPlan::periodic(uniform, 8, 3)));
    plans
}

/// Metrics of one run whose initial stabilization succeeded.
struct FaultModelRun {
    /// Rounds to re-stabilize after the last injection (`None` on timeout).
    recovery_rounds: Option<u64>,
    /// Fraction of post-fault rounds with a legitimate configuration.
    availability: f64,
    /// Peak reads in a single recovery round relative to the steady-state
    /// reads per round (0 when the fault was absorbed without a round).
    read_spike: f64,
    /// Processes corrupted across all injections of the plan.
    victims: usize,
}

/// The campaign cell: stabilize, measure the steady-state read rate over a
/// fixed window of rounds, execute the fault plan, and read the recovery
/// telemetry.
fn cell(
    graph: &Graph,
    daemon: DaemonSpec,
    plan: &FaultPlan,
    kind: MisKind,
    config: &ExperimentConfig,
    seed: u64,
) -> CellOutcome<FaultModelRun> {
    fn drive<P: Protocol>(
        graph: &Graph,
        protocol: P,
        daemon: DaemonSpec,
        plan: &FaultPlan,
        config: &ExperimentConfig,
        seed: u64,
    ) -> CellOutcome<FaultModelRun> {
        let mut sim = Simulation::new(graph, protocol, daemon.build(), seed, SimOptions::default());
        if !sim.run_until_silent(config.max_steps).silent {
            return CellOutcome::Timeout;
        }
        // Pre-fault steady-state read rate over a window of rounds (same
        // helper and fault-RNG derivation as E9, so the two experiments'
        // figures stay directly comparable); E9 tables the per-process form
        // of this baseline, E14 only uses it to normalize the read spike.
        let steady_total = steady_window_reads_per_round(&mut sim, 10);

        let mut fault_rng = fault_rng(seed);
        let mut injector = FaultInjector::new(graph);
        let telemetry = run_fault_plan(
            &mut sim,
            plan,
            &mut injector,
            &mut fault_rng,
            config.max_steps,
        );
        CellOutcome::Stabilized(FaultModelRun {
            recovery_rounds: telemetry.recovery_rounds,
            availability: telemetry.availability,
            read_spike: if steady_total > 0.0 {
                telemetry.peak_round_reads as f64 / steady_total
            } else {
                0.0
            },
            victims: telemetry.victims,
        })
    }
    match kind {
        MisKind::Efficient => drive(
            graph,
            Mis::with_greedy_coloring(graph),
            daemon,
            plan,
            config,
            seed,
        ),
        MisKind::Baseline => drive(
            graph,
            BaselineMis::with_greedy_coloring(graph),
            daemon,
            plan,
            config,
            seed,
        ),
    }
}

/// Runs E14 and renders its table.
pub fn run(config: &ExperimentConfig) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E14",
        "recovery cost vs fault model: uniform vs hubs vs ball vs stuck-at vs bursty (MIS vs baseline)",
        vec![
            "workload",
            "daemon",
            "fault plan",
            "protocol",
            "victims",
            "recovery rounds",
            "availability",
            "read spike ×",
            "timeouts",
        ],
    );
    // A hubless grid, a star (extreme hub) and a heavy-tailed
    // Barabási–Albert graph: the families where targeted and regional
    // corruption should diverge most from uniform.
    let topologies = topologies(
        [
            Workload::Grid(5, 5),
            Workload::Star(25),
            Workload::Barabasi(40, 2),
        ],
        config,
    );
    let daemons = [DaemonSpec::Synchronous, DaemonSpec::DistributedRandom(0.5)];
    let kinds = [MisKind::Efficient, MisKind::Baseline];
    let plans = plans();
    let mut points = Vec::new();
    for topology in &topologies {
        for &daemon in &daemons {
            for (label, plan) in &plans {
                for &kind in &kinds {
                    points.push((topology, daemon, label, plan, kind));
                }
            }
        }
    }
    let spec = CampaignSpec::with_config(points, config);
    for point in spec.run(config.threads, |c| {
        let (topology, daemon, _, plan, kind) = *c.point;
        cell(&topology.graph, daemon, plan, kind, config, c.seed)
    }) {
        let (topology, daemon, label, _, kind) = *point.point;
        let victims = Summary::from_counts(point.stabilized().map(|r| r.victims as u64));
        let recovery = Summary::from_counts(point.stabilized().filter_map(|r| r.recovery_rounds));
        let availability = Summary::from_samples(point.stabilized().map(|r| r.availability));
        let read_spike = Summary::from_samples(point.stabilized().map(|r| r.read_spike));
        // A run times out when it never stabilizes, or when it stabilizes
        // but fails to recover from the plan within the budget.
        let timeouts = point.runs.len() - recovery.count;
        table.push_row(vec![
            topology.workload.label(),
            daemon.name().to_string(),
            label.clone(),
            kind.label().to_string(),
            victims.mean.round().to_string(),
            recovery.display_mean_max(),
            format!("{:.2}", availability.mean),
            format!("{:.1}", read_spike.mean),
            timeouts.to_string(),
        ]);
    }
    table.push_note(
        "same fault load, different victims: degree-targeted/ball/stuck-at scenarios are \
         structurally harder than uniform-random on hubby topologies — repair waves radiate \
         from high-degree processes and availability drops accordingly",
    );
    table.push_note(
        "read spike ×: peak reads in one recovery round relative to the pre-fault steady \
         round — the transient full-Δ bill the paper predicts even for ♦-1-efficient \
         protocols during repair",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The synchronous runs of `kind` under `plan` on `graph` over the
    /// configuration's seeds, each of which must stabilize and recover.
    fn recovered_runs(
        graph: &Graph,
        plan: &FaultPlan,
        kind: MisKind,
        cfg: &ExperimentConfig,
    ) -> Vec<FaultModelRun> {
        cfg.seeds()
            .map(
                |seed| match cell(graph, DaemonSpec::Synchronous, plan, kind, cfg, seed) {
                    CellOutcome::Stabilized(run) if run.recovery_rounds.is_some() => run,
                    _ => panic!("seed {seed} timed out"),
                },
            )
            .collect()
    }

    #[test]
    fn recovery_runs_and_reports_sane_figures() {
        let cfg = ExperimentConfig::quick();
        let grid = &topologies([Workload::Grid(4, 4)], &cfg)[0].graph;
        let uniform = FaultPlan::single(FaultModel::Uniform(FAULT_LOAD));
        for run in recovered_runs(grid, &uniform, MisKind::Efficient, &cfg) {
            assert!((0.0..=1.0).contains(&run.availability));
            assert_eq!(run.victims, 4, "20% of 16 processes");
        }
        // Every plan of the sweep is repaired, in every run, and the row
        // labels are pairwise distinct.
        let plans = plans();
        let labels: std::collections::BTreeSet<&str> =
            plans.iter().map(|(label, _)| label.as_str()).collect();
        assert_eq!(labels.len(), 5);
        for (_, plan) in &plans {
            recovered_runs(grid, plan, MisKind::Efficient, &cfg);
        }
    }

    #[test]
    fn hub_ball_on_a_star_corrupts_everything_and_costs_more() {
        // On a star, a radius-1 ball around the hub corrupts the whole
        // system while the uniform model corrupts 20% of it: the structured
        // scenario must be at least as expensive in recovery rounds on
        // average, with strictly more victims.
        let cfg = ExperimentConfig::quick();
        let star = &topologies([Workload::Star(25)], &cfg)[0].graph;
        let uniform = recovered_runs(
            star,
            &FaultPlan::single(FaultModel::Uniform(FAULT_LOAD)),
            MisKind::Baseline,
            &cfg,
        );
        let ball = recovered_runs(
            star,
            &FaultPlan::single(FaultModel::Ball {
                center: BallCenter::Hub,
                radius: 1,
            }),
            MisKind::Baseline,
            &cfg,
        );
        assert!(ball.iter().all(|r| r.victims == 25), "the whole star");
        assert!(uniform.iter().all(|r| r.victims == 5), "20% of 25");
        let rounds = |runs: &[FaultModelRun]| -> Vec<u64> {
            runs.iter().filter_map(|r| r.recovery_rounds).collect()
        };
        let (ball, uniform) = (rounds(&ball), rounds(&uniform));
        let mean = |rounds: &[u64]| rounds.iter().sum::<u64>() as f64 / rounds.len() as f64;
        assert!(
            mean(&ball) >= mean(&uniform),
            "corrupting the whole star must cost at least as many recovery rounds as 20% of it \
             ({ball:?} vs {uniform:?})"
        );
    }
}
