//! The simulation engine: drives a protocol under a scheduler.
//!
//! # Incremental enabled-set maintenance
//!
//! The paper's communication measures are all about *not* looking at every
//! neighbor at every step, and the executor practices what the paper
//! preaches. Instead of recomputing the communication configuration and
//! re-evaluating every guard on every step (`O(n·Δ)` work per step, the
//! dominating cost for central daemons that activate one process at a
//! time), [`Simulation`] maintains two caches across steps:
//!
//! * the **communication configuration** — `comm(p, state_p)` for every
//!   `p` — updated only for processes whose activation changed their
//!   communication state, and
//! * the **enabled set** ([`EnabledSet`]) — re-evaluating `is_enabled` only
//!   for *dirty* processes: a process is dirty iff its own state changed
//!   since its guard was last evaluated, or a neighbor changed its
//!   communication state (guards read exactly the own state plus neighbor
//!   communication states, so nothing else can flip them).
//!
//! Fault injection ([`Simulation::set_state`]) refreshes the caches the
//! same way, marking the victim and its whole neighborhood dirty. The
//! invariant — the maintained set equals a from-scratch recomputation — has
//! one reference, [`Simulation::recompute_enabled_into`], which re-evaluates
//! every guard against the current configuration. Sampled `debug_assert`s
//! call it, and so does every differential test. Checking it after every
//! step and injection is enough: selection reads only the enabled set and
//! the daemon RNG, so a run whose maintained set matches the reference
//! throughout *is* the run that re-evaluates every guard on every step.
//!
//! # One loop per step
//!
//! [`Simulation::step`] runs four phases on the calling thread, each timed
//! by the [metrics registry](crate::telemetry::metrics) when it is enabled:
//!
//! * **A. guard refresh** — drain the dirty queue, re-evaluating exactly
//!   the guards that may have flipped;
//! * **B. selection** — the scheduler picks a non-empty subset from the
//!   enabled set, drawing from the simulation's RNG;
//! * **C. activation** — one loop over the selection in increasing id
//!   order: each selected process reads the pre-step configuration
//!   through a tracked view, its reads go straight into [`RunStats`], and
//!   its new state is staged;
//! * **D. merge** — the staged updates are applied simultaneously, keeping
//!   the communication cache current and dirtying the guards they may
//!   flip.
//!
//! The three per-process flags this needs — enabled, dirty, selected this
//! round — share one byte per process inside the [`EnabledSet`], so one
//! activation touches one flag byte instead of three arrays. Campaign
//! threads, not intra-step workers, are how a run uses more cores: every
//! experiment cell is an independent simulation.
//!
//! # Zero-allocation steady state
//!
//! [`Simulation::step`] performs **no heap allocation** once its scratch
//! buffers have grown to the execution's working size (checked by the
//! `zero_alloc` integration test with a counting allocator). Every
//! per-step collection is a persistent buffer owned by the simulation:
//!
//! * the scheduler writes its selection into a reused `Vec<NodeId>`
//!   (sorted and duplicate-free by the [`Scheduler`] contract — the
//!   executor `debug_assert`s instead of re-sorting),
//! * the dirty queue, staged updates, the executed list, the neighbor-view
//!   read log and the distinct-read set are all reused buffers drained in
//!   place,
//! * round detection decrements an `unselected_remaining` counter instead
//!   of scanning the selected-this-round flags every step,
//! * [`Simulation::comm_config`] returns the maintained cache by reference.
//!
//! The one deliberate exception, off by default: while a [`TraceSink`] is
//! attached, every step builds a [`StepRecord`] with one
//! `ActivationRecord` (plus its read list) per activation and hands it to
//! the sink.

use rand::rngs::StdRng;
use rand::SeedableRng;
use selfstab_graph::{Graph, NodeId, Port};

use crate::enabled::EnabledSet;
use crate::protocol::Protocol;
use crate::scheduler::{Scheduler, SchedulerContext};
use crate::stats::RunStats;
use crate::telemetry::metrics::{self, MetricsRegistry, StepPhase};
use crate::telemetry::sink::TraceSink;
use crate::trace::{ActivationRecord, StepRecord};
use crate::view::NeighborView;

/// Options controlling a [`Simulation`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimOptions {
    /// How many steps apart the silence/legitimacy predicates are evaluated
    /// while running to completion (1 = every step).
    pub check_interval: u64,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions { check_interval: 1 }
    }
}

impl SimOptions {
    /// Sets the silence-check interval (clamped to at least 1).
    #[must_use]
    pub fn with_check_interval(mut self, interval: u64) -> Self {
        self.check_interval = interval.max(1);
        self
    }
}

/// Summary of a [`Simulation::run_until_silent`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Whether the run reached a silent configuration before the step limit.
    pub silent: bool,
    /// Whether the final configuration satisfies the legitimacy predicate.
    pub legitimate: bool,
    /// Steps executed by this call.
    pub steps: u64,
    /// Rounds completed by this call (paper definition: every process
    /// selected at least once per round).
    pub rounds: u64,
    /// Total steps executed by the simulation since construction.
    pub total_steps: u64,
    /// Total rounds completed by the simulation since construction.
    pub total_rounds: u64,
}

/// What happened during a single step.
///
/// Kept `Copy`-small so [`Simulation::step`] stays allocation-free; the
/// process lists live in the simulation's reused scratch buffers and are
/// readable until the next step through [`Simulation::last_selected`] and
/// [`Simulation::last_executed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// Number of processes selected by the scheduler.
    pub selected: usize,
    /// Number of processes that executed an enabled action.
    pub executed: usize,
    /// Whether any communication variable changed.
    pub comm_changed: bool,
}

/// A running execution of `protocol` on `graph` under `scheduler`.
///
/// The simulation owns the configuration (one [`Protocol::State`] per
/// process) and advances it step by step following the paper's semantics:
/// all processes selected in a step evaluate their guards against the same
/// pre-step configuration, then all resulting state updates are applied
/// simultaneously (composite atomicity under a distributed daemon).
///
/// Internally the executor is *incremental*: it caches the communication
/// configuration and the enabled set across steps and re-evaluates a
/// process's guard only when the process or one of its neighbors changed
/// (see the [module documentation](self)), and its steady-state step loop
/// is allocation-free (every per-step collection is a persistent scratch
/// buffer).
pub struct Simulation<'g, P: Protocol, S: Scheduler> {
    graph: &'g Graph,
    protocol: P,
    scheduler: S,
    rng: StdRng,
    /// One full state per process, indexed by [`NodeId`].
    config: Vec<P::State>,
    stats: RunStats,
    /// Attached telemetry sink, if any, and the executor's only consumer
    /// of step records: it hands the sink every step's record. With no
    /// sink attached the executor builds no records at all.
    sink: Option<Box<dyn TraceSink>>,
    options: SimOptions,
    step: u64,
    rounds: u64,
    /// Number of processes not yet selected this round: the round is
    /// complete exactly when this reaches 0 (replaces an `O(n)` per-step
    /// scan of the selected-this-round flags; the equivalence is
    /// `debug_assert`ed).
    unselected_remaining: usize,
    /// Cached `comm(p, config[p])` for every process, kept current across
    /// steps (the seed executor recomputed this clone every step).
    comm_cache: Vec<P::Comm>,
    /// Maintained enabled set, valid for the current configuration once
    /// `refresh_enabled` has drained `dirty_queue`. Its flag bytes also
    /// hold each process's dirty and selected-this-round bits.
    enabled: EnabledSet,
    /// The processes whose dirty bit is set, each listed once; sized to
    /// `n` at construction, so it never grows.
    dirty_queue: Vec<NodeId>,
    /// Staged updates `(process, state, comm, comm_changed)` of the
    /// current step, applied simultaneously in the merge phase.
    staged: Vec<(NodeId, P::State, P::Comm, bool)>,
    /// Read-log buffer threaded through the tracked neighbor views (one
    /// activation at a time), so recording reads never allocates.
    read_log: Vec<Port>,
    /// Distinct ports of the current activation, first-read order.
    distinct_reads: Vec<Port>,
    /// Salt for the per-activation RNG streams, derived from the
    /// construction seed (see [`ActivationRng`]).
    activation_salt: u64,
    /// Total number of `is_enabled` evaluations performed — the cost the
    /// incremental maintenance is designed to shrink.
    guard_evaluations: u64,
    /// Scratch: the scheduler's selection for the current step.
    selected_scratch: Vec<NodeId>,
    /// Scratch: the processes that executed in the current step, in
    /// increasing id order (the selection's order).
    executed_scratch: Vec<NodeId>,
    /// Scratch for the sampled debug invariant check, so even debug builds
    /// keep the steady-state step allocation-free (the `zero_alloc`
    /// integration test runs in debug mode).
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    debug_enabled_scratch: Vec<bool>,
}

impl<'g, P: Protocol, S: Scheduler> Simulation<'g, P, S> {
    /// Creates a simulation from an **arbitrary random** initial
    /// configuration (the self-stabilization setting: transient faults may
    /// have left anything in the variables).
    ///
    /// # Example
    ///
    /// ```
    /// use selfstab_graph::generators;
    /// use selfstab_runtime::guarded::{ActionContext, GuardedAction, GuardedProtocol};
    /// use selfstab_runtime::scheduler::Synchronous;
    /// use selfstab_runtime::{SimOptions, Simulation};
    ///
    /// // "Adopt the largest value in my neighborhood" as a guarded action.
    /// let adopt = GuardedAction::new(
    ///     "adopt-max",
    ///     |ctx: &ActionContext<'_, '_, u32, u32>| ctx.neighbor_comms().any(|v| v > ctx.state),
    ///     |ctx, _rng| ctx.neighbor_comms().copied().max().unwrap_or(*ctx.state),
    /// );
    /// let protocol = GuardedProtocol::new(
    ///     "max-propagation",
    ///     vec![adopt],
    ///     |_, p, _| p.index() as u32,
    ///     |_, state| *state,
    ///     |_, _| 32,
    ///     |_, _| 32,
    ///     |_, config| config.iter().all(|&v| v == config.iter().copied().max().unwrap_or(0)),
    /// );
    ///
    /// let graph = generators::ring(5);
    /// let mut sim = Simulation::new(&graph, protocol, Synchronous, 7, SimOptions::default());
    /// assert_eq!(sim.steps(), 0);
    /// sim.run_steps(3);
    /// assert!(sim.config().iter().all(|&v| v == 4), "the maximum spread everywhere");
    /// ```
    pub fn new(
        graph: &'g Graph,
        protocol: P,
        scheduler: S,
        seed: u64,
        options: SimOptions,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let config: Vec<P::State> = graph
            .nodes()
            .map(|p| protocol.arbitrary_state(graph, p, &mut rng))
            .collect(); // lint: allow(hot-alloc) — construction of the initial configuration
        Self::with_config(
            graph,
            protocol,
            scheduler,
            config,
            seed.wrapping_add(1),
            options,
        )
    }

    /// Creates a simulation from an explicit initial configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config.len()` does not match the process count.
    pub fn with_config(
        graph: &'g Graph,
        protocol: P,
        scheduler: S,
        config: Vec<P::State>,
        seed: u64,
        options: SimOptions,
    ) -> Self {
        assert_eq!(
            config.len(),
            graph.node_count(),
            "configuration must contain one state per process"
        );
        // lint: allow(hot-alloc) — constructor-only degree table
        let degrees: Vec<usize> = graph.nodes().map(|p| graph.degree(p)).collect();
        let n = graph.node_count();
        let comm_cache: Vec<P::Comm> = graph
            .nodes()
            .map(|p| protocol.comm(p, &config[p.index()]))
            .collect(); // lint: allow(hot-alloc) — constructor-only comm-cache build

        // Nothing has been evaluated yet: every guard starts dirty.
        let mut dirty_queue = Vec::with_capacity(n);
        dirty_queue.extend(graph.nodes());
        Simulation {
            graph,
            protocol,
            scheduler,
            rng: StdRng::seed_from_u64(seed),
            config,
            stats: RunStats::new(&degrees),
            sink: None,
            options,
            step: 0,
            rounds: 0,
            unselected_remaining: n,
            comm_cache,
            enabled: EnabledSet::all_dirty(n),
            dirty_queue,
            // Scratch is sized for the worst case up front (a step stages
            // or executes at most n processes — selections are
            // duplicate-free by the scheduler contract — and a distinct
            // read set never exceeds the maximum degree), so the step loop
            // is allocation-free from the very first step.
            staged: Vec::with_capacity(n),
            read_log: Vec::with_capacity(graph.max_degree()),
            distinct_reads: Vec::with_capacity(graph.max_degree()),
            // Any injective-ish mixing of the seed works here; the constant
            // only separates the salt from the main RNG stream's seed.
            activation_salt: seed ^ 0xA076_1D64_78BD_642F,
            guard_evaluations: 0,
            selected_scratch: Vec::with_capacity(n),
            executed_scratch: Vec::with_capacity(n),
            debug_enabled_scratch: Vec::new(), // lint: allow(hot-alloc) — debug-assert scratch, grown once
        }
    }

    /// The simulated topology.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// The simulated topology with the graph's own lifetime.
    ///
    /// Unlike [`Simulation::graph`] (whose borrow is tied to `&self`), the
    /// returned reference lives as long as the graph itself, so callers —
    /// fault injectors in particular — can keep reading the topology while
    /// mutating the simulation in the same scope.
    pub fn topology(&self) -> &'g Graph {
        self.graph
    }

    /// The protocol being executed.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The current configuration (one state per process).
    pub fn config(&self) -> &[P::State] {
        &self.config
    }

    /// The current communication configuration (one communication state per
    /// process), served **by reference** from the maintained cache (the
    /// seed executor cloned the whole cache on every call).
    pub fn comm_config(&self) -> &[P::Comm] {
        &self.comm_cache
    }

    /// Heap bytes owned by the (state, communication) rows — the
    /// bytes-per-node figure the end-to-end benchmark reports.
    pub fn store_heap_bytes(&self) -> (usize, usize) {
        (
            self.config.capacity() * std::mem::size_of::<P::State>(),
            self.comm_cache.capacity() * std::mem::size_of::<P::Comm>(),
        )
    }

    /// The processes selected in the most recent step, in increasing id
    /// order (empty before the first step).
    pub fn last_selected(&self) -> &[NodeId] {
        &self.selected_scratch
    }

    /// The processes that executed an enabled action in the most recent
    /// step, in increasing id order (empty before the first step).
    pub fn last_executed(&self) -> &[NodeId] {
        &self.executed_scratch
    }

    /// The enabled set for the current configuration.
    ///
    /// Takes `&mut self` because pending guard re-evaluations (from the
    /// last step or the last fault injection) are flushed first.
    pub fn enabled_set(&mut self) -> &EnabledSet {
        self.refresh_enabled();
        &self.enabled
    }

    /// Total number of `is_enabled` evaluations performed so far.
    ///
    /// This grows with the amount of actual change per step (`O(Δ)` per
    /// activation) rather than with `n` per step, and it stays flat while
    /// the system is silent. Calls to
    /// [`Simulation::recompute_enabled_into`] are not counted. Kept out of
    /// [`RunStats`], which describes the execution, not the executor's
    /// work.
    pub fn guard_evaluations(&self) -> u64 {
        self.guard_evaluations
    }

    /// Aggregated execution statistics.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Attaches a telemetry sink; every subsequent step's record is
    /// streamed into it (replacing any previously attached sink).
    ///
    /// To read the records while the simulation owns the sink, attach a
    /// shared one: `Arc<Mutex<T>>` is a sink whenever `T` is, so a
    /// caller can keep one handle to a
    /// [`MemorySink`](crate::telemetry::MemorySink) and decode it between
    /// steps.
    ///
    /// Running with no sink attached is the zero-cost path: the executor
    /// checks once per step and skips record construction entirely.
    pub fn attach_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sink = Some(sink);
    }

    /// Detaches the telemetry sink, returning it so the owner can seal
    /// the stream ([`TraceSink::finish`]) with the run's digests.
    pub fn detach_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.sink.take()
    }

    /// Mutable access to the scheduler.
    ///
    /// Exists for drivers that feed the scheduler between steps — the
    /// trace replay driver stages each recorded selection through this
    /// before stepping ([`crate::telemetry::replay()`]).
    pub fn scheduler_mut(&mut self) -> &mut S {
        &mut self.scheduler
    }

    /// Total steps executed so far.
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// Total rounds completed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Evaluates the protocol's legitimacy predicate on the current
    /// configuration.
    pub fn is_legitimate(&self) -> bool {
        self.protocol.is_legitimate(self.graph, &self.config)
    }

    /// Evaluates the protocol's silence predicate on the current
    /// configuration.
    pub fn is_silent(&self) -> bool {
        self.protocol.is_silent_config(self.graph, &self.config)
    }

    /// Places the suffix marker for ♦-stability measurements at the current
    /// step (see [`RunStats::mark_suffix`]).
    pub fn mark_suffix(&mut self) {
        self.stats.mark_suffix(self.step);
    }

    /// Replaces the state of process `p` (used by fault injection).
    ///
    /// The communication cache is refreshed and `p` **and its whole
    /// neighborhood** are marked dirty, so the next step re-evaluates every
    /// guard the fault may have flipped.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn set_state(&mut self, p: NodeId, state: P::State) {
        self.comm_cache[p.index()] = self.protocol.comm(p, &state);
        self.config[p.index()] = state;
        // Conservatively dirty the neighborhood even when the communication
        // state happens to be unchanged: fault injection is rare and cold,
        // and the unconditional form keeps the invariant obviously safe.
        mark_dirty(&mut self.enabled, &mut self.dirty_queue, p);
        for q in self.graph.neighbors(p) {
            mark_dirty(&mut self.enabled, &mut self.dirty_queue, q);
        }
    }

    /// Phase A: re-evaluates the guards of every dirty process, bringing
    /// the maintained enabled set in sync with the current configuration.
    fn refresh_enabled(&mut self) {
        if self.dirty_queue.is_empty() {
            return;
        }
        // Timed only when the refresh drains work, so the silent steady
        // state pays one relaxed load and nothing else.
        let clock = PhaseClock::start(metrics::active());
        for &p in &self.dirty_queue {
            let view = NeighborView::from_snapshot(self.graph, p, &self.comm_cache, false);
            let enabled = self
                .protocol
                .is_enabled(self.graph, p, &self.config[p.index()], &view);
            self.enabled.settle(p, enabled);
        }
        let evaluated = self.dirty_queue.len();
        self.guard_evaluations += evaluated as u64;
        self.dirty_queue.clear();
        clock.stop(StepPhase::GuardRefresh, evaluated);
    }

    /// Writes the enabled flag of every process, re-evaluated from scratch
    /// against the current configuration, into `out` (cleared first;
    /// allocation-free once `out` has capacity `n`).
    ///
    /// This is the reference the incremental maintenance must agree with:
    /// after any step or fault injection, `out` equals
    /// [`Simulation::enabled_set`]'s [flags](EnabledSet::flags). The sampled
    /// debug invariant and the differential tests call it. It reads the
    /// communication cache, which [`Simulation::step`] and
    /// [`Simulation::set_state`] keep current, and it does not count
    /// towards [`Simulation::guard_evaluations`].
    pub fn recompute_enabled_into(&self, out: &mut Vec<bool>) {
        out.clear();
        for p in self.graph.nodes() {
            let view = NeighborView::from_snapshot(self.graph, p, &self.comm_cache, false);
            out.push(
                self.protocol
                    .is_enabled(self.graph, p, &self.config[p.index()], &view),
            );
        }
    }

    #[cfg(debug_assertions)]
    fn debug_check_enabled_invariant(&mut self) {
        // Sampled: every step on small systems, periodically on large ones,
        // so debug test runs stay fast while still covering long executions.
        let sampled = self.graph.node_count() <= 64 || self.step.is_multiple_of(101);
        if sampled {
            // Recompute into a persistent scratch: even the debug invariant
            // machinery must not allocate in steady state.
            let mut reference = std::mem::take(&mut self.debug_enabled_scratch);
            self.recompute_enabled_into(&mut reference);
            debug_assert!(
                self.enabled.flags().eq(reference.iter().copied()),
                "incremental enabled set diverged from full recomputation at step {}",
                self.step
            );
            self.debug_enabled_scratch = reference;
        }
    }

    /// Executes one step: asks the scheduler for a selection, activates every
    /// selected process against the pre-step configuration, then applies all
    /// updates simultaneously.
    ///
    /// Allocation-free in steady state: selection, updates, read tracking
    /// and round bookkeeping all reuse persistent buffers (see the
    /// [module documentation](self)). The selected/executed process lists
    /// of the step remain readable through [`Simulation::last_selected`] /
    /// [`Simulation::last_executed`].
    pub fn step(&mut self) -> StepOutcome {
        self.refresh_enabled();
        #[cfg(debug_assertions)]
        self.debug_check_enabled_invariant();

        // One relaxed load per step; `None` (the default) keeps every
        // phase free of clock reads and metric writes.
        let metrics = metrics::active();

        // Phase B: selection.
        let clock = PhaseClock::start(metrics);
        self.selected_scratch.clear();
        let ctx = SchedulerContext {
            step: self.step,
            graph: self.graph,
            enabled: &self.enabled,
        };
        self.scheduler
            .select(&ctx, &mut self.rng, &mut self.selected_scratch);
        assert!(
            !self.selected_scratch.is_empty(),
            "schedulers must select a non-empty subset"
        );
        debug_assert!(
            self.selected_scratch.windows(2).all(|w| w[0] < w[1]),
            "scheduler {} violated the sorted/duplicate-free selection contract",
            self.scheduler.name()
        );
        clock.stop(StepPhase::Selection, self.selected_scratch.len());

        // Phase C: activation. Every selected process evaluates against the
        // pre-step snapshot and stages its update; nothing it reads is
        // mutated until the merge below.
        let tracing = self.sink.is_some();
        // Step records are the one intentional per-step allocation: the
        // attached sink consumes them, so there is no buffer to reuse.
        // Off by default.
        let mut records: Vec<ActivationRecord> = Vec::new(); // lint: allow(hot-alloc) — the documented trace allocation (see above)
        if tracing {
            records.reserve(self.selected_scratch.len());
        }
        let graph = self.graph;
        let step = self.step;
        let clock = PhaseClock::start(metrics);
        let mut comm_changed_any = false;
        self.executed_scratch.clear();
        for &p in &self.selected_scratch {
            if self.enabled.mark_selected(p) {
                self.unselected_remaining -= 1;
            }
            let log_buffer = std::mem::take(&mut self.read_log);
            let view = NeighborView::with_log_buffer(graph, p, &self.comm_cache, true, log_buffer);
            let mut rng = activation_rng(self.activation_salt, step, p);
            let new_state =
                self.protocol
                    .activate(graph, p, &self.config[p.index()], &view, &mut rng);
            let read_operations = view.read_operations();
            // The distinct-read set: collected into the persistent scratch
            // normally, or — when tracing — straight into the exactly-sized
            // `Vec` the `ActivationRecord` will own, so the one documented
            // trace allocation is also the only scan.
            let mut traced_reads = Vec::new(); // lint: allow(hot-alloc) — the documented trace allocation (see above)
            let reads: &mut Vec<Port> = if tracing {
                traced_reads.reserve_exact(read_operations.min(graph.degree(p)));
                &mut traced_reads
            } else {
                &mut self.distinct_reads
            };
            view.collect_distinct_reads(reads);
            self.read_log = view.into_log_buffer();
            // A disabled selected process does nothing, but it still
            // evaluated its guards, so it is recorded as an activation
            // (with whatever it read, possibly nothing) like every other
            // selected process.
            self.stats.record_activation(p, reads, read_operations);
            let executed = new_state.is_some();
            let mut comm_changed = false;
            if let Some(new_state) = new_state {
                let new_comm = self.protocol.comm(p, &new_state);
                comm_changed = new_comm != self.comm_cache[p.index()];
                if comm_changed {
                    self.stats.record_comm_change(step);
                    comm_changed_any = true;
                }
                self.executed_scratch.push(p);
                self.staged.push((p, new_state, new_comm, comm_changed));
            }
            if tracing {
                records.push(ActivationRecord {
                    process: p,
                    executed,
                    reads: traced_reads,
                    comm_changed,
                });
            }
        }
        clock.stop(StepPhase::Activation, self.selected_scratch.len());

        // Phase D: merge. Apply all staged updates simultaneously,
        // maintaining the communication cache and dirtying exactly the
        // guards the updates may flip: the updated process itself (guards
        // read the own full state) and, when its communication state
        // changed, its neighbors.
        let clock = PhaseClock::start(metrics);
        for (p, state, comm, comm_changed) in self.staged.drain(..) {
            self.config[p.index()] = state;
            mark_dirty(&mut self.enabled, &mut self.dirty_queue, p);
            if comm_changed {
                self.comm_cache[p.index()] = comm;
                for q in graph.neighbors(p) {
                    mark_dirty(&mut self.enabled, &mut self.dirty_queue, q);
                }
            }
        }
        clock.stop(StepPhase::Merge, self.executed_scratch.len());
        if let Some(sink) = &mut self.sink {
            sink.record_step(&StepRecord {
                step,
                activations: records,
            });
        }

        self.step += 1;
        self.stats.steps = self.step;
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            self.unselected_remaining == 0,
            self.enabled.all_selected(),
            "round counter diverged from the selected-this-round flags at step {}",
            self.step
        );
        if self.unselected_remaining == 0 {
            self.rounds += 1;
            self.stats.rounds = self.rounds;
            self.enabled.start_round();
            self.unselected_remaining = graph.node_count();
        }

        StepOutcome {
            selected: self.selected_scratch.len(),
            executed: self.executed_scratch.len(),
            comm_changed: comm_changed_any,
        }
    }

    /// Runs exactly `steps` steps.
    pub fn run_steps(&mut self, steps: u64) {
        for _ in 0..steps {
            self.step();
        }
    }

    /// Runs until the protocol's silence predicate holds (checked every
    /// `check_interval` steps) or `max_steps` further steps have been
    /// executed.
    ///
    /// # Example
    ///
    /// ```
    /// use selfstab_graph::generators;
    /// use selfstab_runtime::guarded::{ActionContext, GuardedAction, GuardedProtocol};
    /// use selfstab_runtime::scheduler::DistributedRandom;
    /// use selfstab_runtime::{SimOptions, Simulation};
    ///
    /// let adopt_min = GuardedAction::new(
    ///     "adopt-smaller-value",
    ///     |ctx: &ActionContext<'_, '_, u32, u32>| ctx.neighbor_comms().any(|v| v < ctx.state),
    ///     |ctx, _rng| ctx.neighbor_comms().copied().min().unwrap_or(*ctx.state),
    /// );
    /// let protocol = GuardedProtocol::new(
    ///     "min-propagation",
    ///     vec![adopt_min],
    ///     |_, p, _| p.index() as u32 + 1,
    ///     |_, state| *state,
    ///     |_, _| 32,
    ///     |_, _| 32,
    ///     |_, config| config.iter().all(|&v| v == 1),
    /// );
    ///
    /// let graph = generators::ring(8);
    /// let mut sim = Simulation::new(
    ///     &graph,
    ///     protocol,
    ///     DistributedRandom::new(0.5),
    ///     3,
    ///     SimOptions::default(),
    /// );
    /// let report = sim.run_until_silent(100_000);
    /// assert!(report.silent, "min-propagation quiesces");
    /// assert!(report.legitimate, "everyone holds the global minimum");
    /// assert_eq!(report.total_steps, sim.steps());
    /// ```
    pub fn run_until_silent(&mut self, max_steps: u64) -> RunReport {
        let start_steps = self.step;
        let start_rounds = self.rounds;
        let mut silent = self.is_silent();
        let mut executed: u64 = 0;
        while !silent && executed < max_steps {
            self.step();
            executed += 1;
            if executed.is_multiple_of(self.options.check_interval) {
                silent = self.is_silent();
            }
        }
        if !silent {
            silent = self.is_silent();
        }
        RunReport {
            silent,
            legitimate: self.is_legitimate(),
            steps: self.step - start_steps,
            rounds: self.rounds - start_rounds,
            total_steps: self.step,
            total_rounds: self.rounds,
        }
    }

    /// Runs until the legitimacy predicate holds or `max_steps` further steps
    /// have been executed.
    pub fn run_until_legitimate(&mut self, max_steps: u64) -> RunReport {
        let start_steps = self.step;
        let start_rounds = self.rounds;
        let mut legitimate = self.is_legitimate();
        let mut executed: u64 = 0;
        while !legitimate && executed < max_steps {
            self.step();
            executed += 1;
            if executed.is_multiple_of(self.options.check_interval) {
                legitimate = self.is_legitimate();
            }
        }
        if !legitimate {
            legitimate = self.is_legitimate();
        }
        RunReport {
            silent: self.is_silent(),
            legitimate,
            steps: self.step - start_steps,
            rounds: self.rounds - start_rounds,
            total_steps: self.step,
            total_rounds: self.rounds,
        }
    }

    /// Consumes the simulation and returns its final configuration, stats
    /// and attached telemetry sink, if any.
    pub fn into_parts(self) -> (Vec<P::State>, RunStats, Option<Box<dyn TraceSink>>) {
        (self.config, self.stats, self.sink)
    }

    /// Mutable access to the RNG, for fault injection helpers that want to
    /// reuse the simulation's randomness.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }
}

/// Marks `p`'s guard dirty, queueing `p` on its first mark since the last
/// refresh (so the queue lists each process at most once).
#[inline]
fn mark_dirty(enabled: &mut EnabledSet, dirty_queue: &mut Vec<NodeId>, p: NodeId) {
    if enabled.mark_dirty(p) {
        dirty_queue.push(p);
    }
}

/// A step-phase timer: it reads the clock only while metrics are enabled,
/// so the default path costs nothing beyond the `Option` check.
struct PhaseClock(Option<(&'static MetricsRegistry, std::time::Instant)>);

impl PhaseClock {
    #[inline]
    fn start(metrics: Option<&'static MetricsRegistry>) -> Self {
        // lint: allow(determinism) — phase timing feeds the metrics histograms only
        PhaseClock(metrics.map(|m| (m, std::time::Instant::now())))
    }

    /// Records the phase's duration and work-item count.
    #[inline]
    fn stop(self, phase: StepPhase, items: usize) {
        if let Some((m, started)) = self.0 {
            m.phase(phase).record(items as u64, started.elapsed());
        }
    }
}

/// The private RNG of one activation, keyed by `(seed, step, process)`:
/// the random stream a protocol sees depends on which process is
/// activated at which step of which run, and on nothing else — not on the
/// order of activations within a step, nor on how many processes the step
/// selected. A replay of the same selections therefore hands every
/// activation the same randomness.
///
/// Expansion of the seed into generator state is **lazy**: protocols that
/// never draw during `activate` (MIS, matching, the min-value test
/// protocols — the synchronous hot path at 10⁶ activations per step) pay
/// one branch per activation instead of a full `seed_from_u64`.
struct ActivationRng {
    seed: u64,
    inner: Option<StdRng>,
}
impl ActivationRng {
    #[inline]
    fn rng(&mut self) -> &mut StdRng {
        self.inner
            .get_or_insert_with(|| StdRng::seed_from_u64(self.seed))
    }
}

impl rand::RngCore for ActivationRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        self.rng().next_u32()
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.rng().next_u64()
    }

    #[inline]
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.rng().fill_bytes(dest)
    }
}

/// Derives the private RNG of one activation (a SplitMix64 finalizer over
/// the salt/step/process mix; see [`ActivationRng`]).
fn activation_rng(salt: u64, step: u64, p: NodeId) -> ActivationRng {
    let mut z = salt
        ^ step.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (p.index() as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    ActivationRng {
        seed: z,
        inner: None,
    }
}

/// Runs one self-contained experiment **cell**: builds a [`Simulation`] from
/// its owned inputs, drives it to silence (or until `max_steps` further
/// steps), and extracts a result through `measure`.
///
/// This is the entry point parallel experiment campaigns use. Every mutable
/// piece of a cell is owned by the call — the protocol, the scheduler, the
/// configuration, and the [`StdRng`] seeded from `seed` — so any number of
/// `run_cell` invocations may execute concurrently on different threads
/// without sharing mutable state. [`Simulation`] itself is `Send` whenever
/// the protocol, scheduler, and their state types are `Send` (every protocol
/// and scheduler in this workspace is; the `send_bounds` test module pins
/// this down), so a cell may also be constructed on one thread and finished
/// on another.
///
/// The `measure` closure receives the [`RunReport`] of the silence run plus
/// the simulation itself, ready for post-stabilization driving
/// ([`Simulation::mark_suffix`], [`Simulation::run_steps`]) and metric
/// extraction.
///
/// # Example
///
/// ```
/// use selfstab_graph::generators;
/// use selfstab_runtime::guarded::{ActionContext, GuardedAction, GuardedProtocol};
/// use selfstab_runtime::scheduler::Synchronous;
/// use selfstab_runtime::{run_cell, SimOptions};
///
/// let adopt_min = GuardedAction::new(
///     "adopt-smaller-value",
///     |ctx: &ActionContext<'_, '_, u32, u32>| ctx.neighbor_comms().any(|v| v < ctx.state),
///     |ctx, _rng| ctx.neighbor_comms().copied().min().unwrap_or(*ctx.state),
/// );
/// let protocol = GuardedProtocol::new(
///     "min-propagation",
///     vec![adopt_min],
///     |_, p, _| p.index() as u32 + 1,
///     |_, state: &u32| *state,
///     |_, _| 32,
///     |_, _| 32,
///     |_, config: &[u32]| config.iter().all(|&v| v == 1),
/// );
/// let graph = generators::ring(8);
/// let steps = run_cell(
///     &graph,
///     protocol,
///     Synchronous,
///     7,
///     SimOptions::default(),
///     10_000,
///     |report, _sim| {
///         assert!(report.silent);
///         report.total_steps
///     },
/// );
/// assert!(steps > 0);
/// ```
pub fn run_cell<P, S, M, F>(
    graph: &Graph,
    protocol: P,
    scheduler: S,
    seed: u64,
    options: SimOptions,
    max_steps: u64,
    measure: F,
) -> M
where
    P: Protocol,
    S: Scheduler,
    F: FnOnce(RunReport, &mut Simulation<'_, P, S>) -> M,
{
    let mut sim = Simulation::new(graph, protocol, scheduler, seed, options);
    let report = sim.run_until_silent(max_steps);
    measure(report, &mut sim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{CentralRoundRobin, DistributedRandom, Synchronous};
    use crate::telemetry::MemorySink;
    use rand::RngCore;
    use selfstab_graph::generators;
    use std::sync::{Arc, Mutex};

    /// Toy silent protocol used to exercise the executor: each process
    /// exposes a value and copies the minimum of its own value and its
    /// neighbors' values. Stabilizes to "everyone holds the global minimum".
    struct MinValue;

    impl Protocol for MinValue {
        type State = u32;
        type Comm = u32;

        fn name(&self) -> &'static str {
            "min-value"
        }

        fn arbitrary_state(&self, _graph: &Graph, p: NodeId, _rng: &mut dyn RngCore) -> u32 {
            (p.index() as u32) * 7 + 3
        }

        fn comm(&self, _p: NodeId, state: &u32) -> u32 {
            *state
        }

        fn is_enabled(
            &self,
            graph: &Graph,
            p: NodeId,
            state: &u32,
            view: &NeighborView<'_, u32>,
        ) -> bool {
            (0..graph.degree(p)).any(|i| view.read(Port::new(i)) < state)
        }

        fn activate(
            &self,
            graph: &Graph,
            p: NodeId,
            state: &u32,
            view: &NeighborView<'_, u32>,
            _rng: &mut dyn RngCore,
        ) -> Option<u32> {
            let min = (0..graph.degree(p))
                .map(|i| *view.read(Port::new(i)))
                .min()
                .unwrap_or(*state);
            (min < *state).then_some(min)
        }

        fn comm_bits(&self, _graph: &Graph, _p: NodeId) -> u64 {
            32
        }

        fn state_bits(&self, _graph: &Graph, _p: NodeId) -> u64 {
            32
        }

        fn is_legitimate(&self, _graph: &Graph, config: &[u32]) -> bool {
            let min = config.iter().min().copied().unwrap_or(0);
            config.iter().all(|&v| v == min)
        }
    }

    /// Compile-time Send audit: experiment campaigns move cells across
    /// worker threads, so a [`Simulation`] over Send protocol/scheduler
    /// types must itself be Send (and the concrete schedulers must be Send
    /// individually — see the matching assertions in `scheduler::tests` and
    /// `guarded::tests`).
    #[test]
    fn simulation_is_send_for_send_protocol_and_scheduler() {
        fn assert_send<T: Send>() {}
        assert_send::<Simulation<'static, MinValue, Synchronous>>();
        assert_send::<Simulation<'static, MinValue, DistributedRandom>>();
        assert_send::<
            Simulation<
                'static,
                crate::guarded::GuardedProtocol<u32, u32>,
                Box<dyn crate::scheduler::Scheduler + Send>,
            >,
        >();
    }

    #[test]
    fn run_cell_matches_a_hand_driven_simulation() {
        let graph = generators::ring(8);
        let cell_steps = run_cell(
            &graph,
            MinValue,
            DistributedRandom::new(0.4),
            3,
            SimOptions::default(),
            10_000,
            |report, sim| {
                assert!(report.silent);
                assert_eq!(report.total_steps, sim.steps());
                report.total_steps
            },
        );
        let mut sim = Simulation::new(
            &graph,
            MinValue,
            DistributedRandom::new(0.4),
            3,
            SimOptions::default(),
        );
        let report = sim.run_until_silent(10_000);
        assert_eq!(cell_steps, report.total_steps);
    }

    #[test]
    fn synchronous_run_reaches_the_minimum() {
        let graph = generators::path(6);
        let mut sim = Simulation::new(&graph, MinValue, Synchronous, 1, SimOptions::default());
        let report = sim.run_until_silent(100);
        assert!(report.silent);
        assert!(report.legitimate);
        assert!(sim.config().iter().all(|&v| v == 3));
        // On a path of 6, information travels end to end in at most 5
        // synchronous steps.
        assert!(report.steps <= 6);
        // Under the synchronous daemon every step is a round.
        assert_eq!(report.steps, report.rounds);
    }

    #[test]
    fn step_outcome_and_last_step_accessors_agree() {
        let graph = generators::path(4);
        let mut sim = Simulation::new(&graph, MinValue, Synchronous, 1, SimOptions::default());
        assert!(sim.last_selected().is_empty());
        assert!(sim.last_executed().is_empty());
        let outcome = sim.step();
        assert_eq!(outcome.selected, 4, "synchronous selects everyone");
        assert_eq!(sim.last_selected().len(), outcome.selected);
        assert_eq!(sim.last_executed().len(), outcome.executed);
        assert!(sim
            .last_executed()
            .iter()
            .all(|p| sim.last_selected().contains(p)));
        // Selected list is sorted and duplicate-free per the contract.
        assert!(sim.last_selected().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn selected_disabled_processes_count_as_activations() {
        // Everyone already holds the minimum: the synchronous daemon
        // selects all three processes and none of them executes.
        let graph = generators::path(3);
        let mut sim = Simulation::with_config(
            &graph,
            MinValue,
            Synchronous,
            vec![4, 4, 4],
            0,
            SimOptions::default(),
        );
        let outcome = sim.step();
        assert_eq!((outcome.selected, outcome.executed), (3, 0));
        for p in graph.nodes() {
            let stats = sim.stats().process(p);
            assert_eq!(stats.selections, 1);
            // The disabled process still evaluated its guard, reading
            // every neighbor: its activation is recorded like any other.
            assert_eq!(
                stats.max_reads_per_activation as usize,
                graph.degree(p),
                "a selected disabled process is an activation"
            );
        }
        assert_eq!(sim.stats().suffix_selections(), 3);
        assert_eq!(sim.stats().suffix_read_operations(), 4);
    }

    #[test]
    fn round_robin_counts_rounds_correctly() {
        let graph = generators::ring(4);
        let mut sim = Simulation::new(
            &graph,
            MinValue,
            CentralRoundRobin::new(),
            2,
            SimOptions::default(),
        );
        sim.run_steps(12);
        // One process per step, 4 processes: 12 steps = 3 rounds.
        assert_eq!(sim.rounds(), 3);
        assert_eq!(sim.steps(), 12);
    }

    #[test]
    fn distributed_random_converges_and_tracks_reads() {
        let graph = generators::ring(8);
        let mut sim = Simulation::new(
            &graph,
            MinValue,
            DistributedRandom::new(0.4),
            3,
            SimOptions::default(),
        );
        let sink = Arc::new(Mutex::new(MemorySink::new()));
        sim.attach_trace_sink(Box::new(Arc::clone(&sink)));
        let report = sim.run_until_silent(10_000);
        assert!(report.silent);
        // MinValue reads both neighbors each activation: it is 2-efficient
        // (Δ-efficient), not 1-efficient.
        assert_eq!(sim.stats().measured_efficiency(), 2);
        let records = sink.lock().unwrap().decode_all().expect("decodes");
        assert_eq!(records.len() as u64, report.total_steps);
        let most_reads = records
            .iter()
            .flat_map(|r| &r.activations)
            .map(|a| a.reads.len())
            .max();
        assert_eq!(most_reads, Some(sim.stats().measured_efficiency()));
    }

    #[test]
    fn with_config_runs_from_explicit_configuration() {
        let graph = generators::path(3);
        let config = vec![5, 9, 1];
        let mut sim = Simulation::with_config(
            &graph,
            MinValue,
            Synchronous,
            config,
            7,
            SimOptions::default(),
        );
        assert!(!sim.is_legitimate());
        let report = sim.run_until_legitimate(50);
        assert!(report.legitimate);
        assert_eq!(sim.config(), &[1, 1, 1]);
        // Three u32 rows in each store.
        let (state_bytes, comm_bytes) = sim.store_heap_bytes();
        assert!(state_bytes >= 12 && comm_bytes >= 12);
    }

    #[test]
    fn suffix_marker_supports_stability_measurement() {
        let graph = generators::ring(5);
        let mut sim = Simulation::new(&graph, MinValue, Synchronous, 11, SimOptions::default());
        sim.run_until_silent(100);
        sim.mark_suffix();
        sim.run_steps(5);
        // After stabilization MinValue processes are disabled, but each
        // activation still reads both neighbors to discover that (exactly the
        // "check every neighbor forever" cost the paper wants to avoid), so
        // every process is 2-stable but not 1-stable on the suffix.
        assert_eq!(sim.stats().stable_process_count(2), 5);
        assert_eq!(sim.stats().stable_process_count(1), 0);
    }

    #[test]
    #[should_panic(expected = "one state per process")]
    fn with_config_rejects_wrong_length() {
        let graph = generators::path(3);
        let _ = Simulation::with_config(
            &graph,
            MinValue,
            Synchronous,
            vec![1, 2],
            0,
            SimOptions::default(),
        );
    }

    #[test]
    fn enabled_set_matches_full_recomputation_throughout_a_run() {
        let graph = generators::grid(4, 4);
        let mut sim = Simulation::new(
            &graph,
            MinValue,
            DistributedRandom::new(0.3),
            19,
            SimOptions::default(),
        );
        let mut reference = Vec::new();
        for _ in 0..200 {
            sim.recompute_enabled_into(&mut reference);
            assert_eq!(sim.enabled_set().flags().collect::<Vec<_>>(), reference);
            sim.step();
        }
        // Once silent, nothing is enabled and nothing is dirty.
        sim.run_until_silent(10_000);
        assert_eq!(sim.enabled_set().count(), 0);
    }

    #[test]
    fn step_outcome_comm_changed_agrees_with_stats_accounting() {
        // Regression test: `StepOutcome::comm_changed` and the per-process
        // `record_comm_change` accounting must describe the same events
        // (the seed executor derived them from two separate passes).
        let graph = generators::ring(6);
        let mut sim = Simulation::new(
            &graph,
            MinValue,
            DistributedRandom::new(0.5),
            13,
            SimOptions::default(),
        );
        let sink = Arc::new(Mutex::new(MemorySink::new()));
        sim.attach_trace_sink(Box::new(Arc::clone(&sink)));
        let mut changes_before = sim.stats().total_comm_changes();
        for _ in 0..300 {
            let step_index = sim.steps();
            let outcome = sim.step();
            let changes_after = sim.stats().total_comm_changes();
            assert_eq!(
                outcome.comm_changed,
                changes_after > changes_before,
                "StepOutcome::comm_changed disagrees with RunStats at step {step_index}"
            );
            if outcome.comm_changed {
                assert_eq!(sim.stats().last_comm_change_step(), Some(step_index));
            }
            // The step's per-activation record must agree as well.
            let record = sink.lock().unwrap().decode_all().unwrap().pop().unwrap();
            assert_eq!(record.step, step_index);
            assert_eq!(record.any_comm_changed(), outcome.comm_changed);
            assert_eq!(
                record.activations.iter().filter(|a| a.comm_changed).count() as u64,
                changes_after - changes_before,
            );
            // The record's selection matches the scratch-backed accessor.
            assert_eq!(record.selected(), sim.last_selected());
            changes_before = changes_after;
        }
    }

    #[test]
    fn fault_injection_reenables_guards() {
        let graph = generators::ring(8);
        let mut sim = Simulation::new(&graph, MinValue, Synchronous, 23, SimOptions::default());
        sim.run_until_silent(1_000);
        assert_eq!(sim.enabled_set().count(), 0, "silent: nothing enabled");
        // Drop a smaller value into process 4: its neighbors become enabled.
        sim.set_state(NodeId::new(4), 0);
        let mut reference = Vec::new();
        sim.recompute_enabled_into(&mut reference);
        assert_eq!(sim.enabled_set().flags().collect::<Vec<_>>(), reference);
        assert!(
            sim.enabled_set().count() > 0,
            "the fault re-enabled the neighborhood"
        );
    }

    #[test]
    fn guard_evaluation_counter_reflects_incrementality() {
        let graph = generators::ring(64);
        let mut sim = Simulation::new(
            &graph,
            MinValue,
            CentralRoundRobin::new(),
            3,
            SimOptions::default(),
        );
        sim.run_until_silent(10_000);
        // Flush the guards left dirty by the final step, then count.
        let _ = sim.enabled_set();
        let after_convergence = sim.guard_evaluations();
        // Post-silence stepping must not evaluate any guard at all (a
        // full recomputation would pay n = 64 evaluations per step), and
        // the reference itself is not counted.
        sim.run_steps(1_000);
        let mut reference = Vec::new();
        sim.recompute_enabled_into(&mut reference);
        assert_eq!(sim.guard_evaluations(), after_convergence);
        assert_eq!(sim.enabled_set().flags().collect::<Vec<_>>(), reference);
    }

    #[test]
    fn round_counter_matches_flag_scan_under_mixed_daemons() {
        // The O(1) round counter must agree with the historical O(n) flag
        // scan (also debug_asserted on every step) across daemons that
        // select one process, several, or everyone.
        let graph = generators::grid(3, 3);
        let mut sim = Simulation::new(
            &graph,
            MinValue,
            DistributedRandom::new(0.35),
            5,
            SimOptions::default(),
        );
        let mut seen = [false; 9];
        let mut rounds = 0u64;
        for _ in 0..500 {
            sim.step();
            for p in sim.last_selected() {
                seen[p.index()] = true;
            }
            if seen.iter().all(|&b| b) {
                rounds += 1;
                seen.iter_mut().for_each(|b| *b = false);
            }
            assert_eq!(sim.rounds(), rounds);
        }
    }
}
