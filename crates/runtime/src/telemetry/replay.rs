//! Trace replay: drive a fresh [`Simulation`] by a recorded step stream
//! and verify that the execution reproduces step by step.
//!
//! # Determinism guarantee
//!
//! A simulation's observable execution is a pure function of `(graph,
//! protocol, construction seed, options, scheduler decisions, external
//! state writes)`. A trace records the scheduler decisions (the selected
//! set of every step); [`replay()`] re-runs the simulation with a
//! scheduler that emits exactly those selections, and
//! reproduces the external writes by re-firing the recorded run's
//! [`FaultPlan`] from the same fault RNG, under the firing rule of
//! [`run_fault_plan`](crate::faults::run_fault_plan). Everything else —
//! activation RNG streams (derived from `(seed, step, process)`), guard
//! evaluation, the merge order — is deterministic, so the replayed run
//! must match the recording in every observable: each activation's
//! executed flag, comm flag and read ports, [`RunStats`], final
//! configuration. The replay
//! records its own steps into a shared [`MemorySink`] and compares every
//! decoded record with the recorded one. Any mismatch is reported as a
//! [`ReplayDivergence`] naming the first step, process and field that
//! differed — a shareable anomaly artifact rather than a silent wrong
//! answer.

use std::sync::{Arc, Mutex};

use rand::RngCore;
use selfstab_graph::{Graph, NodeId};

use crate::executor::{SimOptions, Simulation};
use crate::faults::{fire_due_events, FaultInjector, FaultPlan};
use crate::protocol::Protocol;
use crate::scheduler::{Scheduler, SchedulerContext};
use crate::stats::RunStats;
use crate::telemetry::sink::{lock_shared, MemorySink};
use crate::telemetry::wire;
use crate::trace::{ActivationRecord, StepRecord};

/// Scheduler that replays recorded selections staged one step at a time.
///
/// [`replay()`] stages each record's selection before stepping; a step
/// without a staged selection panics (it would mean the driver and the
/// executor disagree about how many steps remain).
#[derive(Debug, Default)]
struct ReplayScheduler {
    staged: Vec<NodeId>,
}

impl ReplayScheduler {
    /// Stages the selection for the next step.
    fn stage(&mut self, selection: &[NodeId]) {
        self.staged.clear();
        self.staged.extend_from_slice(selection);
    }
}

impl Scheduler for ReplayScheduler {
    fn name(&self) -> &'static str {
        "replay"
    }

    fn select(
        &mut self,
        _ctx: &SchedulerContext<'_>,
        _rng: &mut dyn rand::RngCore,
        out: &mut Vec<NodeId>,
    ) {
        assert!(
            !self.staged.is_empty(),
            "ReplayScheduler stepped without a staged selection"
        );
        out.append(&mut self.staged);
    }
}

/// How a replayed step differed from its recording.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DivergenceKind {
    /// The record's step index does not match the simulation's counter.
    StepIndex,
    /// The recorded selection violates the scheduler contract (empty,
    /// unsorted, duplicated, or out of range) — a corrupt trace.
    Selection,
    /// A selected process's executed flag differs.
    Executed,
    /// A selected process's comm-changed flag differs.
    CommChanged,
    /// A selected process read different ports, or in a different order.
    Reads,
}

impl DivergenceKind {
    /// Stable snake_case name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            DivergenceKind::StepIndex => "step_index",
            DivergenceKind::Selection => "selection",
            DivergenceKind::Executed => "executed",
            DivergenceKind::CommChanged => "comm_changed",
            DivergenceKind::Reads => "reads",
        }
    }
}

/// First observed mismatch between a recording and its replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayDivergence {
    /// Step index (the recording's) at which the mismatch was observed.
    pub step: u64,
    /// What differed.
    pub kind: DivergenceKind,
    /// Human-readable description of the mismatch.
    pub detail: String,
}

impl std::fmt::Display for ReplayDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "replay diverged at step {} ({}): {}",
            self.step,
            self.kind.name(),
            self.detail
        )
    }
}

impl std::error::Error for ReplayDivergence {}

/// Result of a successful replay.
#[derive(Debug, Clone)]
pub struct ReplayOutcome<State> {
    /// The replayed run's aggregated statistics.
    pub stats: RunStats,
    /// The replayed run's final configuration.
    pub config: Vec<State>,
    /// Number of steps replayed.
    pub steps: u64,
}

/// Replays `records` through a fresh simulation, re-firing `plan` from
/// `fault_rng` to reproduce the recorded run's fault injections.
///
/// `graph`, `protocol`, `seed` and `options` must match the recorded
/// run's construction, and the trace must have been recorded from the
/// run's first step (the first record must carry step index 0). `plan`
/// and `fault_rng` must be the plan the recording ran from that step (an
/// empty plan for a run without faults) and an RNG in the state the
/// recording's fault RNG started in. Before every step, and once after the
/// last, every event whose offset is at most the steps replayed so far
/// fires on a fresh [`FaultInjector`]: the rule
/// [`run_fault_plan`](crate::faults::run_fault_plan) applies.
///
/// The replay attaches a shared [`MemorySink`] and compares every replayed
/// record with its recording, activation by activation: the executed
/// flag, the comm-changed flag and the read ports, in that order. The
/// first mismatch aborts the replay with a [`ReplayDivergence`]. The
/// final-state checks ([`RunStats`] equality or digest, configuration
/// equality or digest) are the caller's: this driver returns both in the
/// [`ReplayOutcome`].
pub fn replay<P, I, R>(
    graph: &Graph,
    protocol: P,
    seed: u64,
    options: SimOptions,
    records: I,
    plan: &FaultPlan,
    fault_rng: &mut R,
) -> Result<ReplayOutcome<P::State>, Box<ReplayDivergence>>
where
    P: Protocol,
    I: IntoIterator<Item = StepRecord>,
    R: RngCore,
{
    let mut sim = Simulation::new(graph, protocol, ReplayScheduler::default(), seed, options);
    let sink = Arc::new(Mutex::new(MemorySink::new()));
    sim.attach_trace_sink(Box::new(Arc::clone(&sink)));
    let mut injector = FaultInjector::new(graph);
    let mut next_event = 0;
    // Read position in, and last step of, the replay's own step stream.
    let (mut pos, mut prev) = (0, None);
    let n = graph.node_count();
    for record in records {
        if record.step != sim.steps() {
            return Err(Box::new(ReplayDivergence {
                step: record.step,
                kind: DivergenceKind::StepIndex,
                detail: format!(
                    "record carries step {} but the simulation is at step {}",
                    record.step,
                    sim.steps()
                ),
            }));
        }
        if let Some(detail) = selection_contract_violation(&record, n) {
            return Err(Box::new(ReplayDivergence {
                step: record.step,
                kind: DivergenceKind::Selection,
                detail,
            }));
        }

        fire_due_events(&mut sim, plan, &mut next_event, 0, &mut injector, fault_rng);
        sim.scheduler_mut().stage(&record.selected());
        sim.step();

        let replayed = wire::decode_step(lock_shared(&sink).bytes(), &mut pos, prev)
            .expect("the replay's own step stream decodes");
        prev = Some(replayed.step);
        if let Some((kind, detail)) = first_activation_mismatch(&record, &replayed) {
            return Err(Box::new(ReplayDivergence {
                step: record.step,
                kind,
                detail,
            }));
        }
    }
    // A recording may end with an injection (one due after the last step
    // it recorded) that is part of its final configuration.
    fire_due_events(&mut sim, plan, &mut next_event, 0, &mut injector, fault_rng);

    let steps = sim.steps();
    let (config, stats, _) = sim.into_parts();
    Ok(ReplayOutcome {
        stats,
        config,
        steps,
    })
}

/// Compares a recorded step with its replay, activation by activation,
/// and describes the first field that differs. Both records select the
/// same processes, because the replay staged the recorded selection.
fn first_activation_mismatch(
    recorded: &StepRecord,
    replayed: &StepRecord,
) -> Option<(DivergenceKind, String)> {
    debug_assert_eq!(recorded.selected(), replayed.selected());
    let ports = |a: &ActivationRecord| a.reads.iter().map(|p| p.index()).collect::<Vec<_>>();
    recorded
        .activations
        .iter()
        .zip(&replayed.activations)
        .find_map(|(rec, rep)| {
            let (kind, detail) = if rec.executed != rep.executed {
                let detail = format!(
                    "recorded executed={} but the replay executed={}",
                    rec.executed, rep.executed
                );
                (DivergenceKind::Executed, detail)
            } else if rec.comm_changed != rep.comm_changed {
                let detail = format!(
                    "recorded comm_changed={} but the replay observed {}",
                    rec.comm_changed, rep.comm_changed
                );
                (DivergenceKind::CommChanged, detail)
            } else if rec.reads != rep.reads {
                let detail = format!(
                    "recorded reads {:?} but the replay read {:?}",
                    ports(rec),
                    ports(rep)
                );
                (DivergenceKind::Reads, detail)
            } else {
                return None;
            };
            Some((kind, format!("process {}: {detail}", rec.process)))
        })
}

/// Checks a record's selection against the scheduler contract; returns a
/// description of the first violation.
fn selection_contract_violation(record: &StepRecord, node_count: usize) -> Option<String> {
    if record.activations.is_empty() {
        return Some("recorded selection is empty".to_string());
    }
    let mut prev: Option<NodeId> = None;
    for activation in &record.activations {
        let p = activation.process;
        if p.index() >= node_count {
            return Some(format!(
                "recorded selection names process {p} but the graph has {node_count} processes"
            ));
        }
        if prev.is_some_and(|q| q >= p) {
            return Some(format!(
                "recorded selection is not strictly increasing at process {p}"
            ));
        }
        prev = Some(p);
    }
    None
}
