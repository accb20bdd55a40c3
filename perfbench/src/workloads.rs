//! The three workloads. Each one builds its inputs from the seed (set-up,
//! untimed), runs one untimed warm-up unit, then times units until the
//! pass budget is spent. Only public library APIs are called, with
//! `SimOptions::default()`, one campaign thread and one step worker.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use selfstab_analysis::experiments::{self, ExperimentConfig};
use selfstab_analysis::{campaign, ExperimentTable};
use selfstab_core::{measures, Mis};
use selfstab_graph::generators;
use selfstab_runtime::scheduler::{CentralRandom, Synchronous};
use selfstab_runtime::telemetry::metrics::{self, StepPhase};
use selfstab_runtime::{
    FaultInjector, FaultLoad, FaultModel, Protocol, RunReport, Scheduler, SimOptions, Simulation,
};

use crate::checks;
use crate::reference::{self, Reference};
use crate::spans::Probe;

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperSuite,
    Converge,
    Stabilized,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "paper-suite" => Some(Workload::PaperSuite),
            "converge" => Some(Workload::Converge),
            "stabilized" => Some(Workload::Stabilized),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSuite => "paper-suite",
            Workload::Converge => "converge",
            Workload::Stabilized => "stabilized",
        }
    }

    /// Runs one pass: set-up, warm-up, then (if `cfg.run_units`) timed
    /// units until `cfg.budget` is spent.
    pub fn run<P: Probe>(self, cfg: &PassConfig, probe: &mut P) -> Result<Pass, String> {
        match self {
            Workload::PaperSuite => paper_suite(cfg, probe),
            Workload::Converge => converge(cfg, probe),
            Workload::Stabilized => stabilized(cfg, probe),
        }
    }
}

/// What one pass does.
pub struct PassConfig {
    pub seed: u64,
    /// Process count override for `converge` and `stabilized`.
    pub n: Option<usize>,
    pub budget: Duration,
    /// `false`: set up and warm up only (the set-ups of `setup_s`).
    pub run_units: bool,
    /// Caps every run to silence inside a unit of `converge` and
    /// `stabilized` (tests use it to make the output checks fail).
    pub max_steps: Option<u64>,
}

/// Exact work counts of one unit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub steps: u64,
    pub rounds: u64,
    /// Processes selected by the daemon.
    pub activations: u64,
    pub guard_evals: u64,
    pub read_ops: u64,
    pub victims: u64,
    /// Steps from the fault injection back to silence.
    pub recovery_steps: u64,
}

/// Process-wide metrics registry totals (phases A–D, fault injections).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Registry {
    pub phase_ns: [u64; 4],
    pub phase_items: [u64; 4],
    pub phase_calls: [u64; 4],
    pub fault_victims: u64,
    pub fault_ns: u64,
}

impl Registry {
    pub fn now() -> Registry {
        let global = metrics::global();
        let mut snapshot = Registry {
            fault_victims: global.fault_victims(),
            fault_ns: global.fault_histogram().total_ns(),
            ..Registry::default()
        };
        for phase in StepPhase::ALL {
            let m = global.phase(phase);
            snapshot.phase_ns[phase as usize] = m.histogram().total_ns();
            snapshot.phase_items[phase as usize] = m.items();
            snapshot.phase_calls[phase as usize] = m.invocations();
        }
        snapshot
    }

    pub fn since(&self, before: &Registry) -> Registry {
        let sub = |a: [u64; 4], b: [u64; 4]| std::array::from_fn(|i| a[i] - b[i]);
        Registry {
            phase_ns: sub(self.phase_ns, before.phase_ns),
            phase_items: sub(self.phase_items, before.phase_items),
            phase_calls: sub(self.phase_calls, before.phase_calls),
            fault_victims: self.fault_victims - before.fault_victims,
            fault_ns: self.fault_ns - before.fault_ns,
        }
    }

    /// The executor's work as the registry counts it: the view from
    /// outside when simulations live inside experiment cells.
    pub fn counts(&self) -> Counts {
        let selection = StepPhase::Selection as usize;
        Counts {
            steps: self.phase_calls[selection],
            activations: self.phase_items[selection],
            guard_evals: self.phase_items[StepPhase::GuardRefresh as usize],
            victims: self.fault_victims,
            ..Counts::default()
        }
    }
}

/// One timed unit.
#[derive(Debug, Clone, Default)]
pub struct UnitResult {
    /// Wall seconds.
    pub secs: f64,
    /// `secs` at the nominal host speed (see `reference`).
    pub host_secs: f64,
    pub ok: bool,
    /// Exact work counts, equal in the untraced and the traced pass.
    pub counts: Counts,
    /// Selected processes that executed an action, summed from the
    /// `StepOutcome`s of the traced pass (0 in the untraced pass, whose
    /// library run loops do not return them).
    pub executed: u64,
    /// Registry delta over the unit (traced pass only).
    pub registry: Option<Registry>,
    /// Campaign cell durations of the unit (traced pass only).
    pub cells: Vec<f64>,
}

/// The outcome of one pass.
pub struct Pass {
    /// Wall time from the start of the pass to the first timed unit.
    pub setup_secs: f64,
    pub units: Vec<UnitResult>,
    /// Heap bytes per node of the (state, communication) stores.
    pub store_bytes_per_node: Option<(f64, f64)>,
}

/// Times units `1, 2, ...` until `budget` is spent (at least one unit),
/// each also at the nominal host speed. In a traced pass every unit also
/// gets its registry delta and campaign cell samples.
pub fn measure<P: Probe>(
    probe: &mut P,
    budget: Duration,
    mut unit: impl FnMut(&mut P, u64) -> UnitResult,
) -> Vec<UnitResult> {
    // The host reference is timed before the first unit and after every
    // unit, so each unit lies between two reference times.
    let mut reference = Reference::new();
    let mut before = reference.time();
    let started = Instant::now();
    let mut units = Vec::new();
    for index in 1.. {
        probe.set_unit(Some(index));
        let registry = P::TRACED.then(|| {
            campaign::clear_cell_duration_samples();
            Registry::now()
        });
        let mut result = unit(probe, index);
        let after = reference.time();
        result.host_secs = reference::corrected(result.secs, before, after);
        before = after;
        if let Some(registry) = registry {
            result.registry = Some(Registry::now().since(&registry));
            result.cells = campaign::cell_duration_samples();
        }
        units.push(result);
        if started.elapsed() >= budget {
            break;
        }
    }
    units
}

/// SplitMix64 finalizer: derives independent seeds from the one seed.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of stream `stream`, item `index`, under the run seed.
fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    mix(mix(mix(seed) ^ stream) ^ index)
}

const GRAPH_STREAM: u64 = 1;
const CONFIG_STREAM: u64 = 2;
const DAEMON_STREAM: u64 = 3;
const FAULT_STREAM: u64 = 4;

fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// `run_until_silent`; the traced run uses the equivalent loop so that
/// phase A (`enabled_set`), `step` and `is_silent` are timed apart. Also
/// returns the executed count of the traced loop's steps.
fn until_silent<P, Pr, S>(
    probe: &mut P,
    sim: &mut Simulation<'_, Pr, S>,
    max_steps: u64,
    check_interval: u64,
) -> (RunReport, u64)
where
    P: Probe,
    Pr: Protocol,
    S: Scheduler,
{
    if !P::TRACED {
        return (sim.run_until_silent(max_steps), 0);
    }
    let (start_steps, start_rounds) = (sim.steps(), sim.rounds());
    let mut silent = probe.leaf("core.is_silent", || sim.is_silent());
    let (mut executed, mut activated) = (0u64, 0u64);
    while !silent && executed < max_steps {
        activated += traced_step(probe, sim);
        executed += 1;
        if executed.is_multiple_of(check_interval) {
            silent = probe.leaf("core.is_silent", || sim.is_silent());
        }
    }
    if !silent {
        silent = probe.leaf("core.is_silent", || sim.is_silent());
    }
    let report = RunReport {
        silent,
        legitimate: probe.leaf("core.is_legitimate", || sim.is_legitimate()),
        steps: sim.steps() - start_steps,
        rounds: sim.rounds() - start_rounds,
        total_steps: sim.steps(),
        total_rounds: sim.rounds(),
    };
    (report, activated)
}

/// One traced step: phase A through `enabled_set`, then `step`, which
/// finds nothing left to refresh. Returns the executed count.
fn traced_step<P, Pr, S>(probe: &mut P, sim: &mut Simulation<'_, Pr, S>) -> u64
where
    P: Probe,
    Pr: Protocol,
    S: Scheduler,
{
    probe.leaf("executor.refresh", || {
        sim.enabled_set();
    });
    probe.leaf("executor.step", || sim.step()).executed as u64
}

/// `run_steps`; traced as the equivalent `enabled_set` + `step` loop.
/// Returns the executed count of the traced loop's steps.
fn steps<P, Pr, S>(probe: &mut P, sim: &mut Simulation<'_, Pr, S>, count: u64) -> u64
where
    P: Probe,
    Pr: Protocol,
    S: Scheduler,
{
    if !P::TRACED {
        sim.run_steps(count);
        return 0;
    }
    (0..count).map(|_| traced_step(probe, sim)).sum()
}

/// Absolute work totals of a simulation (`O(n)`; never inside a timed
/// region).
fn totals<Pr: Protocol, S: Scheduler>(sim: &Simulation<'_, Pr, S>) -> Counts {
    let stats = sim.stats();
    Counts {
        steps: sim.steps(),
        rounds: sim.rounds(),
        activations: stats.processes().iter().map(|p| p.selections).sum(),
        guard_evals: sim.guard_evaluations(),
        read_ops: stats.total_read_operations(),
        ..Counts::default()
    }
}

fn delta(after: Counts, before: Counts) -> Counts {
    Counts {
        steps: after.steps - before.steps,
        rounds: after.rounds - before.rounds,
        activations: after.activations - before.activations,
        guard_evals: after.guard_evals - before.guard_evals,
        read_ops: after.read_ops - before.read_ops,
        ..Counts::default()
    }
}

fn bytes_per_node<Pr: Protocol, S: Scheduler>(sim: &Simulation<'_, Pr, S>) -> (f64, f64) {
    let n = sim.graph().node_count() as f64;
    let (state, comm) = sim.store_heap_bytes();
    (state as f64 / n, comm as f64 / n)
}

/// Span names of the registry's experiments, in registry order.
pub const EXPERIMENT_SPANS: [&str; 13] = [
    "experiments.E1",
    "experiments.E2",
    "experiments.E3",
    "experiments.E4",
    "experiments.E5",
    "experiments.E6",
    "experiments.E7-E8",
    "experiments.E9",
    "experiments.E10",
    "experiments.E11",
    "experiments.E12",
    "experiments.E13",
    "experiments.E14",
];

/// `paper-suite`: one unit is one `--quick` pass of every experiment at one
/// campaign thread, rendered as text, CSV and JSON.
fn paper_suite<P: Probe>(cfg: &PassConfig, probe: &mut P) -> Result<Pass, String> {
    let started = Instant::now();
    let config = ExperimentConfig {
        base_seed: cfg.seed,
        ..ExperimentConfig::quick().with_threads(1)
    };
    let registry = experiments::registry();
    if registry.len() != EXPERIMENT_SPANS.len() {
        return Err(format!(
            "the registry lists {} experiments, the benchmark names {}",
            registry.len(),
            EXPERIMENT_SPANS.len()
        ));
    }
    let pass = |probe: &mut P| -> (Vec<ExperimentTable>, Vec<[String; 3]>) {
        let tables: Vec<ExperimentTable> = registry
            .iter()
            .zip(EXPERIMENT_SPANS)
            .map(|(experiment, span)| probe.leaf(span, || (experiment.runner)(&config)))
            .collect();
        let rendered = probe.leaf("table.render", || {
            tables
                .iter()
                .map(|t| [t.to_text(), t.to_csv(), t.to_json()])
                .collect()
        });
        (tables, rendered)
    };

    probe.set_unit(Some(0));
    let (tables, first) = probe.span("bench.unit", |p| pass(p));
    let warm_problems = checks::violations(&tables);
    if !warm_problems.is_empty() {
        eprintln!("warm-up pass failed its checks: {warm_problems:?}");
    }
    let setup_secs = secs_since(started);
    if !cfg.run_units {
        return Ok(Pass {
            setup_secs,
            units: Vec::new(),
            store_bytes_per_node: None,
        });
    }

    // The untraced pass's units run with the metrics registry off, so one
    // more untimed pass, after set-up is timed, counts the processes a pass
    // selects for `activations_per_s`. The traced pass takes each unit's
    // counts from the registry instead.
    let mut counts = Counts::default();
    if !P::TRACED {
        let was_enabled = metrics::enabled();
        metrics::set_enabled(true);
        let before = Registry::now();
        pass(probe);
        counts = Registry::now().since(&before).counts();
        metrics::set_enabled(was_enabled);
    }
    campaign::clear_cell_duration_samples();

    let mut units = measure(probe, cfg.budget, |probe, _| {
        let start = Instant::now();
        let (tables, rendered) = probe.span("bench.unit", |p| pass(p));
        let secs = secs_since(start);
        let problems = checks::violations(&tables);
        let identical = rendered == first;
        if !problems.is_empty() || !identical {
            eprintln!("paper-suite unit failed: identical={identical} {problems:?}");
        }
        UnitResult {
            secs,
            ok: problems.is_empty() && identical,
            counts,
            ..UnitResult::default()
        }
    });
    for unit in &mut units {
        if let Some(registry) = unit.registry {
            unit.counts = registry.counts();
            unit.executed = registry.phase_items[StepPhase::Merge as usize];
        }
    }
    Ok(Pass {
        setup_secs,
        units,
        store_bytes_per_node: None,
    })
}

/// Default process count of `converge`.
pub const CONVERGE_N: usize = 100_000;
/// Edges each new Barabási–Albert process attaches with.
const CONVERGE_ATTACH: usize = 3;
/// Step budget of one convergence (synchronous: one step is one round).
const CONVERGE_MAX_STEPS: u64 = 2_000;

/// `converge`: one unit builds a simulation from an arbitrary
/// configuration on a BA graph and runs it to silence under the
/// synchronous daemon.
fn converge<P: Probe>(cfg: &PassConfig, probe: &mut P) -> Result<Pass, String> {
    let started = Instant::now();
    let n = cfg.n.unwrap_or(CONVERGE_N);
    probe.set_unit(None);
    let (graph, protocol) = probe.span("bench.setup", |p| {
        let graph = p.leaf("graph.build", || {
            let mut rng = StdRng::seed_from_u64(derive(cfg.seed, GRAPH_STREAM, 0));
            generators::barabasi_albert(n, CONVERGE_ATTACH, &mut rng)
        });
        let graph = graph.map_err(|err| format!("graph generation failed: {err}"))?;
        let protocol = p.leaf("core.protocol_new", || Mis::with_greedy_coloring(&graph));
        Ok::<_, String>((graph, protocol))
    })?;
    let round_bound = protocol.round_bound(&graph);
    let max_steps = cfg
        .max_steps
        .unwrap_or_else(|| round_bound.min(CONVERGE_MAX_STEPS));
    let mut store_bytes = None;

    let mut unit = |probe: &mut P, index: u64| -> UnitResult {
        let seed = derive(cfg.seed, CONFIG_STREAM, index);
        let start = Instant::now();
        let (sim, (report, executed)) = probe.span("bench.unit", |p| {
            let mut sim = p.leaf("executor.new", || {
                Simulation::new(
                    &graph,
                    protocol.clone(),
                    Synchronous,
                    seed,
                    SimOptions::default(),
                )
            });
            let run = until_silent(p, &mut sim, max_steps, 1);
            (sim, run)
        });
        let secs = secs_since(start);
        let ok = report.silent && report.legitimate && report.rounds <= round_bound;
        if !ok {
            eprintln!("converge unit {index} failed: {report:?}, Lemma 4 bound {round_bound}");
        }
        store_bytes = Some(bytes_per_node(&sim));
        UnitResult {
            secs,
            ok,
            counts: totals(&sim),
            executed,
            ..UnitResult::default()
        }
    };
    probe.set_unit(Some(0));
    unit(probe, 0);
    let setup_secs = secs_since(started);
    let units = if cfg.run_units {
        measure(probe, cfg.budget, unit)
    } else {
        Vec::new()
    };
    Ok(Pass {
        setup_secs,
        units,
        store_bytes_per_node: store_bytes,
    })
}

/// Default process count of `stabilized`.
pub const STABILIZED_N: usize = 100_000;
/// Processes corrupted per unit.
const VICTIMS: usize = 4;
/// Silent steps run after each repair, per process.
const WINDOW_PER_NODE: u64 = 10;
/// Repair step budget, per process.
const REPAIR_BUDGET_PER_NODE: u64 = 200;
/// Step budget of the synchronous pre-stabilization.
const PRE_STABILIZE_MAX_STEPS: u64 = 10_000;
/// Largest n at which the traced pass times `suffix_comm_report`.
const SUFFIX_REPORT_MAX_N: usize = 100_000;

/// `stabilized`: a silent MIS on a ring under the central random daemon.
/// One unit injects a few faults, runs back to silence and then runs a
/// fixed window of silent steps.
fn stabilized<P: Probe>(cfg: &PassConfig, probe: &mut P) -> Result<Pass, String> {
    let started = Instant::now();
    let n = cfg.n.unwrap_or(STABILIZED_N);
    // A silence check every n/10 steps. The check stops at the first
    // unrepaired process, so only the last, successful one scans all n:
    // a fraction of a node visit per step, while repairs are timed to
    // within 1% of a unit.
    let check_interval = (n as u64 / 10).max(1);
    let window = WINDOW_PER_NODE * n as u64;
    let repair_budget = cfg.max_steps.unwrap_or(REPAIR_BUDGET_PER_NODE * n as u64);
    probe.set_unit(None);
    let (graph, protocol) = probe.span("bench.setup", |p| {
        let graph = p.leaf("graph.build", || generators::ring(n));
        let protocol = p.leaf("core.protocol_new", || Mis::with_greedy_coloring(&graph));
        (graph, protocol)
    });
    let mut sim = probe.span("bench.setup", |p| {
        let mut pre = p.leaf("executor.new", || {
            Simulation::new(
                &graph,
                protocol.clone(),
                Synchronous,
                derive(cfg.seed, CONFIG_STREAM, 0),
                SimOptions::default(),
            )
        });
        let (report, _) = until_silent(p, &mut pre, PRE_STABILIZE_MAX_STEPS, 1);
        if !(report.silent && report.legitimate) {
            return Err(format!("pre-stabilization failed: {report:?}"));
        }
        let (config, _, _) = pre.into_parts();
        Ok(p.leaf("executor.new", || {
            Simulation::with_config(
                &graph,
                protocol.clone(),
                CentralRandom::new(),
                config,
                derive(cfg.seed, DAEMON_STREAM, 0),
                SimOptions::default().with_check_interval(check_interval),
            )
        }))
    })?;
    let mut injector = FaultInjector::new(&graph);
    let mut fault_rng = StdRng::seed_from_u64(derive(cfg.seed, FAULT_STREAM, 0));
    let fault = FaultModel::Uniform(FaultLoad::Count(VICTIMS));
    let store_bytes = Some(bytes_per_node(&sim));

    let mut unit = |probe: &mut P, index: u64| -> UnitResult {
        let before = totals(&sim);
        let start = Instant::now();
        let (victims, report, executed, efficiency) = probe.span("bench.unit", |p| {
            let victims = p.leaf("faults.inject", || {
                injector.inject(&mut sim, fault, &mut fault_rng).len()
            });
            let (report, repaired) = until_silent(p, &mut sim, repair_budget, check_interval);
            p.leaf("stats.mark_suffix", || sim.mark_suffix());
            let windowed = steps(p, &mut sim, window);
            // The field `suffix_comm_report` copies; the report itself is
            // too slow to run per unit (see below).
            let efficiency = p.leaf("stats.suffix_efficiency", || {
                sim.stats().suffix_measured_efficiency()
            });
            (victims, report, repaired + windowed, efficiency)
        });
        let secs = secs_since(start);
        let ok = report.silent && report.legitimate && efficiency == 1;
        if !ok {
            eprintln!("stabilized unit {index} failed: {report:?}, suffix efficiency {efficiency}");
        }
        UnitResult {
            secs,
            ok,
            counts: Counts {
                victims: victims as u64,
                recovery_steps: report.steps,
                ..delta(totals(&sim), before)
            },
            executed,
            ..UnitResult::default()
        }
    };
    probe.set_unit(Some(0));
    unit(probe, 0);
    let setup_secs = secs_since(started);
    if !cfg.run_units {
        return Ok(Pass {
            setup_secs,
            units: Vec::new(),
            store_bytes_per_node: store_bytes,
        });
    }
    let mut units = measure(probe, cfg.budget, unit);
    // `suffix_comm_report` costs O(n² log n) on MIS (every `comm_bits` call
    // recounts the colors), about 0.3 s at n = 10⁴, so the traced pass
    // times it once, after the last unit, where n allows.
    if P::TRACED && n <= SUFFIX_REPORT_MAX_N {
        probe.set_unit(None);
        let report = probe.span("bench.final", |p| {
            p.leaf("core.suffix_report", || {
                measures::suffix_comm_report(sim.protocol(), &graph, sim.stats())
            })
        });
        if report.suffix_efficiency != 1 || report.suffix_steps != window {
            eprintln!("final suffix report failed: {report:?}");
            if let Some(last) = units.last_mut() {
                last.ok = false;
            }
        }
    }
    Ok(Pass {
        setup_secs,
        units,
        store_bytes_per_node: store_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::NoTrace;

    #[test]
    fn seeds_are_reproducible_and_streams_independent() {
        assert_eq!(derive(7, GRAPH_STREAM, 3), derive(7, GRAPH_STREAM, 3));
        assert_ne!(derive(7, GRAPH_STREAM, 3), derive(7, CONFIG_STREAM, 3));
        assert_ne!(derive(7, GRAPH_STREAM, 3), derive(8, GRAPH_STREAM, 3));
        assert_ne!(derive(7, GRAPH_STREAM, 3), derive(7, GRAPH_STREAM, 4));
    }

    #[test]
    fn measure_runs_until_the_budget_and_at_least_once() {
        let units = measure(&mut NoTrace, Duration::ZERO, |_, _| UnitResult::default());
        assert_eq!(units.len(), 1);
        let mut seen = Vec::new();
        let units = measure(&mut NoTrace, Duration::from_millis(20), |_, index| {
            seen.push(index);
            std::thread::sleep(Duration::from_millis(2));
            UnitResult::default()
        });
        assert!(units.len() >= 2);
        assert_eq!(seen, (1..=units.len() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn small_passes_are_correct_and_repeat_exactly() {
        for workload in [Workload::Converge, Workload::Stabilized] {
            let mut cfg = PassConfig {
                seed: 11,
                n: Some(2_000),
                budget: Duration::ZERO,
                run_units: true,
                max_steps: None,
            };
            let first = workload.run(&cfg, &mut NoTrace).expect("pass runs");
            let again = workload.run(&cfg, &mut NoTrace).expect("pass runs");
            assert!(first.units.iter().all(|u| u.ok), "{workload:?}");
            assert_eq!(first.units[0].counts, again.units[0].counts, "{workload:?}");
            assert!(first.units[0].counts.activations > 0);

            // One step cannot reach silence from an arbitrary configuration
            // or repair four faults: the real output checks must fail.
            cfg.max_steps = Some(1);
            let starved = workload.run(&cfg, &mut NoTrace).expect("pass runs");
            assert!(!starved.units.is_empty());
            assert!(starved.units.iter().all(|u| !u.ok), "{workload:?}");
        }
    }
}
