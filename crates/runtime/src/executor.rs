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
//! [`Simulation::step`] runs its phases on the calling thread, each timed
//! by the [metrics registry](crate::telemetry::metrics) when it is enabled:
//!
//! * **A. guard refresh**, only for a daemon that reads the enabled set
//!   ([`Scheduler::reads_enabled_set`]) — drain the dirty queue,
//!   re-evaluating exactly the guards that may have flipped;
//! * **B. selection** — the scheduler picks a non-empty subset, drawing
//!   from the simulation's RNG;
//! * **C. activation** — one loop over the selection in increasing id
//!   order: each selected process reads its own state and, through a
//!   tracked view built from its CSR row, its neighbours' pre-step
//!   communication values in the cache; the view records each distinct
//!   port it reads in one reused buffer, and those ports go straight into
//!   [`RunStats`], on the same row (the store-wide totals and the widest
//!   read set are folded once per step). The new state is written into
//!   the process's row at once, and the process is staged with one flag:
//!   whether its communication value differs from the cached one. The
//!   write is safe because no other activation of the step reads that
//!   row (views read the cache, which stays pre-step until the merge),
//!   and phase A′ settles only processes the step did not select. By the
//!   [`Protocol`] contract the activation returns a new state exactly when
//!   the process's guard holds, so one write to the process's flag byte
//!   settles its guard and marks it selected this round;
//! * **A′. guard refresh** of the dirty guards no activation settled,
//!   still against the pre-step configuration (nothing is left after A);
//! * **D. merge** — the staged entries, process ids and comm flags only,
//!   are published simultaneously: the merge keeps the communication cache
//!   current and dirties the guards they may flip. The new communication
//!   value is not staged: [`Protocol::comm`] is a projection of the state,
//!   so the merge derives it from the new state in the configuration for
//!   the entries whose flag is set; a step that changes no communication
//!   value derives none.
//!
//! Either way every queued guard is settled once per step, against the
//! same configuration, so the enabled set is exact at selection for a
//! daemon that reads it and before the merge for every daemon, and the
//! guard count does not depend on the daemon. Under a daemon that reads no
//! enabled flag, such as the synchronous daemon, which selects every
//! process, each selected dirty guard is evaluated once, in its
//! activation, instead of twice.
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
//! * the dirty queue and the staged entries are reused buffers drained in
//!   place, and the read-port buffer has one slot per port of the
//!   largest degree, which every tracked view borrows in turn,
//! * round detection decrements an `unselected_remaining` counter instead
//!   of scanning the selected-this-round flags every step.
//!
//! A recording simulation ([`Simulation::record_trace`]) builds no record
//! either: the step encodes its selection and each activation straight
//! into the [`Trace`] it owns, which allocates only when its buffer grows.

use rand::rngs::StdRng;
use rand::SeedableRng;
use selfstab_graph::{Graph, NodeId, Port};

use crate::enabled::EnabledSet;
use crate::protocol::{ActivationRng, Protocol};
use crate::scheduler::{Scheduler, SchedulerContext};
use crate::stats::RunStats;
use crate::telemetry::metrics::{self, MetricsRegistry, StepPhase};
use crate::telemetry::Trace;
use crate::view::NeighborView;

/// Options controlling a [`Simulation`].
///
/// The one option is private, so every interval goes through the clamp of
/// [`SimOptions::with_check_interval`]; a literal does not compile:
///
/// ```compile_fail
/// let options = selfstab_runtime::SimOptions { check_interval: 0 };
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimOptions {
    /// How many steps apart [`Simulation::run_until_silent`] evaluates the
    /// silence predicate (1 = every step, never 0).
    check_interval: u64,
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
/// selected processes live in the simulation's reused scratch buffer and
/// are readable until the next step through [`Simulation::last_selected`].
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
    /// The trace being recorded, if any: each step encodes itself into it
    /// as it runs.
    trace: Option<Trace>,
    options: SimOptions,
    /// Number of processes not yet selected this round: the round is
    /// complete exactly when this reaches 0 (replaces an `O(n)` per-step
    /// scan of the selected-this-round flags; the equivalence is
    /// `debug_assert`ed).
    unselected_remaining: usize,
    /// Cached `comm(p, config[p])` for every process, kept current across
    /// steps (the seed executor recomputed this clone every step).
    comm_cache: Vec<P::Comm>,
    /// Maintained enabled set, valid for the current configuration once
    /// every guard on `dirty_queue` is settled. Its flag bytes also hold
    /// each process's dirty and selected-this-round bits.
    enabled: EnabledSet,
    /// The processes whose dirty bit is set, each listed once; sized to
    /// `n` at construction, so it never grows.
    dirty_queue: Vec<NodeId>,
    /// The executed activations `(process, comm_changed)` of the current
    /// step, whose new states are already in `config`; the merge marks
    /// their guards dirty and, for the entries whose flag is set, derives
    /// the new comm from `config` into the cache.
    staged: Vec<(NodeId, bool)>,
    /// Port slots lent to each activation's tracked view (`Δ` of them): the
    /// view writes the activation's distinct read ports into them, in
    /// first-read order, so recording reads never allocates.
    read_ports: Vec<Port>,
    /// Salt for the per-activation RNG streams, derived from the
    /// construction seed (see [`ActivationRng`]).
    activation_salt: u64,
    /// Total number of guards settled, by `is_enabled` or by an
    /// activation — the cost the incremental maintenance is designed to
    /// shrink.
    guard_evaluations: u64,
    /// Scratch: the scheduler's selection for the current step.
    selected_scratch: Vec<NodeId>,
    /// Scratch for the sampled debug invariant check, so even debug builds
    /// keep the steady-state step allocation-free (the `zero_alloc`
    /// integration test runs in debug mode).
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    debug_enabled_scratch: Vec<bool>,
}

impl<'g, P: Protocol, S: Scheduler> Simulation<'g, P, S> {
    /// Creates a simulation from an **arbitrary random** initial
    /// configuration (the self-stabilization setting: transient faults may
    /// have left anything in the variables). The [crate-level
    /// example](crate) builds and drives one.
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
            stats: RunStats::new(graph),
            trace: None,
            options,
            unselected_remaining: n,
            comm_cache,
            enabled: EnabledSet::all_dirty(n),
            dirty_queue,
            // Scratch is sized for the worst case up front (a step stages
            // at most n processes — selections are duplicate-free by the
            // scheduler contract — and a distinct read set never exceeds
            // the maximum degree), so the step loop is allocation-free
            // from the very first step.
            staged: Vec::with_capacity(n),
            read_ports: vec![Port::new(0); graph.max_degree()], // lint: allow(hot-alloc) — constructor-only read-port slots
            // Any injective-ish mixing of the seed works here; the constant
            // only separates the salt from the main RNG stream's seed.
            activation_salt: seed ^ 0xA076_1D64_78BD_642F,
            guard_evaluations: 0,
            selected_scratch: Vec::with_capacity(n),
            debug_enabled_scratch: Vec::new(), // lint: allow(hot-alloc) — debug-assert scratch, grown once
        }
    }

    /// The simulated topology.
    ///
    /// The reference lives as long as the graph itself, not as long as the
    /// borrow of `self`, so callers — fault injectors in particular — can
    /// keep reading the topology while mutating the simulation in the same
    /// scope.
    pub fn graph(&self) -> &'g Graph {
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

    /// The enabled set for the current configuration.
    ///
    /// Takes `&mut self` because pending guard re-evaluations (from the
    /// last step or the last fault injection) are flushed first.
    pub fn enabled_set(&mut self) -> &EnabledSet {
        self.refresh_enabled();
        &self.enabled
    }

    /// Total number of guard evaluations performed so far: one per dirty
    /// guard settled.
    ///
    /// A guard is settled once per step it was dirty at, either by
    /// `is_enabled` or, for a selected process whose daemon does not read
    /// the enabled set, by its activation, which evaluates the same guard
    /// on the same configuration. The count is therefore the same whether
    /// or not the caller asks for [`Simulation::enabled_set`] between
    /// steps. It grows with the amount of actual change per step (`O(Δ)`
    /// per activation) rather than with `n` per step, and it stays flat
    /// while the system is silent. Calls to
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

    /// Starts recording: from the next step on, each step encodes its
    /// selection and every activation's executed flag, comm flag and
    /// distinct read ports into the simulation's [`Trace`]. A trace that
    /// is already recording keeps recording. A trace recorded from the
    /// first step is what [`replay()`](crate::telemetry::replay())
    /// re-executes.
    ///
    /// Not recording is the default and the zero-cost path: the step tests
    /// once per step and once per activation whether a trace records, and
    /// encodes nothing. A recording step allocates only when the trace's
    /// buffer grows.
    pub fn record_trace(&mut self) {
        self.trace.get_or_insert_with(Trace::new);
    }

    /// The trace being recorded, if any.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Stops recording and returns the trace, if one was recording.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.trace.take()
    }

    /// The trace being recorded, if any, mutably: replay drops each
    /// record it has compared ([`Trace::clear`]).
    pub(crate) fn trace_mut(&mut self) -> Option<&mut Trace> {
        self.trace.as_mut()
    }

    /// Mutable access to the scheduler.
    ///
    /// Exists for drivers that feed the scheduler between steps — the
    /// trace replay driver stages each recorded selection through this
    /// before stepping ([`crate::telemetry::replay()`]).
    pub fn scheduler_mut(&mut self) -> &mut S {
        &mut self.scheduler
    }

    /// Total steps executed so far ([`RunStats::steps`]).
    pub fn steps(&self) -> u64 {
        self.stats.steps
    }

    /// Total rounds completed so far ([`RunStats::rounds`]).
    pub fn rounds(&self) -> u64 {
        self.stats.rounds
    }

    /// Evaluates the protocol's legitimacy predicate on the current
    /// configuration.
    pub fn is_legitimate(&self) -> bool {
        self.protocol.is_legitimate(self.graph, &self.config)
    }

    /// Whether the current configuration is silent: the protocol's
    /// [`Protocol::is_silent_at`] holds at every process, on untracked views
    /// of the communication cache, which [`Simulation::step`] and
    /// [`Simulation::set_state`] keep current. So it equals the reference
    /// [`is_silent_config`](crate::protocol::is_silent_config) on
    /// [`Simulation::config`] without building a snapshot: it allocates
    /// nothing, and it counts no guard evaluation.
    pub fn is_silent(&self) -> bool {
        crate::protocol::all_silent(&self.protocol, self.graph, &self.config, &self.comm_cache)
    }

    /// Places the suffix marker for ♦-stability measurements at the current
    /// step (see [`RunStats::mark_suffix`]).
    pub fn mark_suffix(&mut self) {
        self.stats.mark_suffix(self.stats.steps);
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

    /// Phase A: settles every queued guard, bringing the maintained enabled
    /// set in sync with the current configuration, and empties the queue.
    ///
    /// A guard that an activation of the running step already settled is
    /// no longer dirty: it is counted, as the activation evaluated it, but
    /// not evaluated again.
    fn refresh_enabled(&mut self) {
        if self.dirty_queue.is_empty() {
            return;
        }
        // Timed only when the refresh drains work, so the silent steady
        // state pays one relaxed load and nothing else.
        let clock = PhaseClock::start(metrics::active());
        for &p in &self.dirty_queue {
            if self.enabled.is_dirty(p) {
                let view =
                    NeighborView::untracked_row(self.graph.neighbor_slice(p), &self.comm_cache);
                let enabled =
                    self.protocol
                        .is_enabled(self.graph, p, &self.config[p.index()], &view);
                self.enabled.settle(p, enabled);
            }
        }
        let settled = self.dirty_queue.len();
        self.guard_evaluations += settled as u64;
        self.dirty_queue.clear();
        clock.stop(StepPhase::GuardRefresh, settled);
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
            let view = NeighborView::from_snapshot(self.graph, p, &self.comm_cache);
            out.push(
                self.protocol
                    .is_enabled(self.graph, p, &self.config[p.index()], &view),
            );
        }
    }

    /// Compares the enabled set with the reference on the rows the step
    /// has not written yet. The executed processes' rows already hold their
    /// new states; each was checked against its guard on the pre-step
    /// state before the write.
    #[cfg(debug_assertions)]
    fn debug_check_enabled_invariant(&mut self) {
        // Recompute into a persistent scratch: even the debug invariant
        // machinery must not allocate in steady state.
        let mut reference = std::mem::take(&mut self.debug_enabled_scratch);
        self.recompute_enabled_into(&mut reference);
        // The staged entries follow the selection, in increasing id order.
        let written = |i: usize| {
            self.staged
                .binary_search_by_key(&i, |&(p, _)| p.index())
                .is_ok()
        };
        debug_assert!(
            self.enabled
                .flags()
                .zip(&reference)
                .enumerate()
                .all(|(i, (flag, &expected))| flag == expected || written(i)),
            "incremental enabled set diverged from full recomputation at step {}",
            self.stats.steps
        );
        self.debug_enabled_scratch = reference;
    }

    /// Executes one step: asks the scheduler for a selection, activates every
    /// selected process against the pre-step configuration, then applies all
    /// updates simultaneously.
    ///
    /// The dirty guards are settled before selection for a daemon that
    /// reads the enabled set, and otherwise by the activations and after
    /// them (see the [module documentation](self)).
    ///
    /// Allocation-free in steady state: selection, updates, read tracking
    /// and round bookkeeping all reuse persistent buffers (see the
    /// [module documentation](self)). The step's selected processes remain
    /// readable through [`Simulation::last_selected`].
    pub fn step(&mut self) -> StepOutcome {
        // Phase A, only for a daemon that reads the enabled set: settle
        // every dirty guard before selection. For any other daemon the
        // activations below settle the selected guards themselves.
        let reads_enabled = self.scheduler.reads_enabled_set();
        if reads_enabled {
            self.refresh_enabled();
        }

        // One relaxed load per step; `None` (the default) keeps every
        // phase free of clock reads and metric writes.
        let metrics = metrics::active();

        // Phase B: selection.
        let clock = PhaseClock::start(metrics);
        self.selected_scratch.clear();
        let step = self.stats.steps;
        let ctx =
            SchedulerContext::from_parts(step, self.graph, reads_enabled.then_some(&self.enabled));
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

        // Phase C: activation. Every selected process evaluates its own
        // state and its neighbours' pre-step comm values, and writes its new
        // state into its row at once: no other activation of the step reads
        // that row (views read the comm cache, which stays pre-step until
        // the merge below), and phase A′ settles only processes the step
        // did not select. A recording trace opens the step's record here,
        // and each activation appends itself as it finishes.
        let mut trace = self.trace.as_mut();
        if let Some(trace) = &mut trace {
            trace.open_step(step, self.selected_scratch.iter().copied());
        }
        let graph = self.graph;
        // Sampled: every step on small systems, periodically on large ones,
        // so debug test runs stay fast while still covering long executions.
        #[cfg(debug_assertions)]
        let debug_sampled = graph.node_count() <= 64 || step.is_multiple_of(101);
        let clock = PhaseClock::start(metrics);
        let mut comm_changed_any = false;
        let mut read_operations_step = 0u64;
        let mut widest_step = 0usize;
        for &p in &self.selected_scratch {
            // p's CSR row: the view reads its neighbours, the record its
            // flag bytes, which are laid out like the graph.
            let row = graph.port_range(p);
            let view = NeighborView::tracked_row(
                graph.neighbor_slice(p),
                &self.comm_cache,
                &mut self.read_ports,
            );
            let mut rng = activation_rng(self.activation_salt, step, p);
            let new_state =
                self.protocol
                    .activate(graph, p, &self.config[p.index()], &view, &mut rng);
            let (distinct, read_operations) = view.finish();
            let reads = &self.read_ports[..distinct];
            // A disabled selected process does nothing, but it still
            // evaluated its guards, so it is recorded as an activation
            // (with whatever it read, possibly nothing) like every other
            // selected process.
            self.stats.record_activation(p, row, reads);
            read_operations_step += read_operations as u64;
            widest_step = widest_step.max(distinct);
            let executed = new_state.is_some();
            // By the `Protocol` contract the activation just evaluated p's
            // guard on the pre-step snapshot: one write settles it and
            // marks p selected this round.
            let first_this_round = self.enabled.settle_selected(p, executed);
            self.unselected_remaining -= usize::from(first_this_round);
            let mut comm_changed = false;
            if let Some(new_state) = new_state {
                // The write below replaces the row the reference would
                // read, so the guard of a moving process is checked here.
                #[cfg(debug_assertions)]
                if debug_sampled {
                    let view =
                        NeighborView::untracked_row(graph.neighbor_slice(p), &self.comm_cache);
                    debug_assert!(
                        self.protocol
                            .is_enabled(graph, p, &self.config[p.index()], &view),
                        "incremental enabled set diverged from full recomputation at step \
                         {step}: process {p} moved, but its guard on the pre-step state is false"
                    );
                }
                comm_changed = self.protocol.comm(p, &new_state) != self.comm_cache[p.index()];
                if comm_changed {
                    self.stats.record_comm_change(step);
                    comm_changed_any = true;
                }
                self.config[p.index()] = new_state;
                self.staged.push((p, comm_changed));
            }
            if let Some(trace) = &mut trace {
                trace.push_activation(executed, comm_changed, reads);
            }
        }
        self.stats.record_step_totals(
            self.selected_scratch.len(),
            read_operations_step,
            widest_step,
        );
        clock.stop(StepPhase::Activation, self.selected_scratch.len());

        // Phase A for the dirty guards no activation settled, still on the
        // pre-step snapshot: from here to the merge the set is exact,
        // whatever the daemon.
        self.refresh_enabled();
        #[cfg(debug_assertions)]
        if debug_sampled {
            self.debug_check_enabled_invariant();
        }

        // Phase D: merge. Publish all executed activations simultaneously,
        // bringing the communication cache up to date and dirtying exactly
        // the guards they may flip: the moved process itself (guards read
        // the own full state) and, when its communication state changed,
        // its neighbors. The cache entry is derived from the new state in
        // `config`, only where the activation found the comm changed.
        let clock = PhaseClock::start(metrics);
        // One staged entry per executed activation.
        let executed = self.staged.len();
        for (p, comm_changed) in self.staged.drain(..) {
            mark_dirty(&mut self.enabled, &mut self.dirty_queue, p);
            if comm_changed {
                self.comm_cache[p.index()] = self.protocol.comm(p, &self.config[p.index()]);
                for q in graph.neighbors(p) {
                    mark_dirty(&mut self.enabled, &mut self.dirty_queue, q);
                }
            }
        }
        clock.stop(StepPhase::Merge, executed);

        self.stats.steps += 1;
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            self.unselected_remaining == 0,
            self.enabled.all_selected(),
            "round counter diverged from the selected-this-round flags at step {}",
            self.stats.steps
        );
        if self.unselected_remaining == 0 {
            self.stats.rounds += 1;
            self.enabled.start_round();
            self.unselected_remaining = graph.node_count();
        }

        StepOutcome {
            selected: self.selected_scratch.len(),
            executed,
            comm_changed: comm_changed_any,
        }
    }

    /// Runs exactly `steps` steps.
    pub fn run_steps(&mut self, steps: u64) {
        for _ in 0..steps {
            self.step();
        }
    }

    /// Runs until [`Simulation::is_silent`] holds or `max_steps` further
    /// steps have been executed. Silence is checked before the first step
    /// and after every step, or every `k` steps under
    /// [`SimOptions::with_check_interval`]`(k)`, and once more at the end.
    pub fn run_until_silent(&mut self, max_steps: u64) -> RunReport {
        let (start_steps, start_rounds) = (self.steps(), self.rounds());
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
            steps: self.steps() - start_steps,
            rounds: self.rounds() - start_rounds,
            total_steps: self.steps(),
            total_rounds: self.rounds(),
        }
    }

    /// Consumes the simulation and returns its final configuration, stats
    /// and recorded trace, if any.
    pub fn into_parts(self) -> (Vec<P::State>, RunStats, Option<Trace>) {
        (self.config, self.stats, self.trace)
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

/// Derives the private RNG of one activation, keyed by `(seed, step,
/// process)`: the salt/step/process mix, which the generator finalizes on
/// its first draw (see [`ActivationRng`]).
#[inline]
fn activation_rng(salt: u64, step: u64, p: NodeId) -> ActivationRng {
    ActivationRng::new(
        salt ^ step.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (p.index() as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{CentralRandom, CentralRoundRobin, DistributedRandom, Synchronous};
    use rand::RngCore;
    use selfstab_graph::generators;

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

    /// Reads its last port, then its first, then its last again, and never
    /// moves: every activation reads one port twice.
    struct RereadsLastPort;

    impl Protocol for RereadsLastPort {
        type State = u32;
        type Comm = u32;

        fn name(&self) -> &'static str {
            "rereads-last-port"
        }

        fn arbitrary_state(&self, _graph: &Graph, _p: NodeId, _rng: &mut dyn RngCore) -> u32 {
            0
        }

        fn comm(&self, _p: NodeId, state: &u32) -> u32 {
            *state
        }

        fn activate(
            &self,
            graph: &Graph,
            p: NodeId,
            _state: &u32,
            view: &NeighborView<'_, u32>,
            _rng: &mut dyn RngCore,
        ) -> Option<u32> {
            let last = Port::new(graph.degree(p) - 1);
            for port in [last, Port::new(0), last] {
                let _ = view.read(port);
            }
            None
        }

        fn comm_bits(&self, _graph: &Graph, _p: NodeId) -> u64 {
            32
        }

        fn state_bits(&self, _graph: &Graph, _p: NodeId) -> u64 {
            32
        }

        fn is_legitimate(&self, _graph: &Graph, _config: &[u32]) -> bool {
            true
        }
    }

    /// Breaks the `Protocol` contract: its hand-written guard is never
    /// enabled, yet every activation moves.
    struct MovesWhileDisabled;

    impl Protocol for MovesWhileDisabled {
        type State = u32;
        type Comm = u32;

        fn name(&self) -> &'static str {
            "moves-while-disabled"
        }

        fn arbitrary_state(&self, _graph: &Graph, _p: NodeId, _rng: &mut dyn RngCore) -> u32 {
            0
        }

        fn comm(&self, _p: NodeId, state: &u32) -> u32 {
            *state
        }

        fn is_enabled(
            &self,
            _graph: &Graph,
            _p: NodeId,
            _state: &u32,
            _view: &NeighborView<'_, u32>,
        ) -> bool {
            false
        }

        fn activate(
            &self,
            _graph: &Graph,
            _p: NodeId,
            state: &u32,
            _view: &NeighborView<'_, u32>,
            _rng: &mut dyn RngCore,
        ) -> Option<u32> {
            Some(state + 1)
        }

        fn comm_bits(&self, _graph: &Graph, _p: NodeId) -> u64 {
            32
        }

        fn state_bits(&self, _graph: &Graph, _p: NodeId) -> u64 {
            32
        }

        fn is_legitimate(&self, _graph: &Graph, _config: &[u32]) -> bool {
            true
        }
    }

    /// Reads the enabled set while claiming not to.
    struct ReadsWithoutSaying;

    impl Scheduler for ReadsWithoutSaying {
        fn name(&self) -> &'static str {
            "reads-without-saying"
        }

        fn select(&mut self, ctx: &SchedulerContext<'_>, _rng: &mut StdRng, out: &mut Vec<NodeId>) {
            out.push(ctx.enabled().iter().next().unwrap_or(NodeId::new(0)));
        }

        fn reads_enabled_set(&self) -> bool {
            false
        }
    }

    /// Compile-time Send audit: experiment campaigns move cells across
    /// worker threads, so a [`Simulation`] over Send protocol/scheduler
    /// types must itself be Send (and the concrete schedulers must be Send
    /// individually — see the matching assertions in `scheduler::tests`).
    #[test]
    fn simulation_is_send_for_send_protocol_and_scheduler() {
        fn assert_send<T: Send>() {}
        assert_send::<Simulation<'static, MinValue, Synchronous>>();
        assert_send::<Simulation<'static, MinValue, DistributedRandom>>();
        assert_send::<Simulation<'static, MinValue, Box<dyn crate::scheduler::Scheduler + Send>>>();
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
    fn a_check_interval_of_zero_stops_at_the_first_silent_step() {
        let graph = generators::path(6);
        let mut reference =
            Simulation::new(&graph, MinValue, Synchronous, 1, SimOptions::default());
        let mut first_silent = 0;
        while !reference.is_silent() {
            reference.step();
            first_silent += 1;
        }
        // The minimum crosses the path one hop per step.
        assert_eq!(first_silent, 5);
        // The interval is clamped to 1: a check after every step.
        let options = SimOptions::default().with_check_interval(0);
        let mut sim = Simulation::new(&graph, MinValue, Synchronous, 1, options);
        let report = sim.run_until_silent(1_000);
        assert!(report.silent);
        assert_eq!(report.steps, first_silent);
    }

    #[test]
    fn step_outcome_and_last_step_accessors_agree() {
        let graph = generators::path(4);
        let mut sim = Simulation::new(&graph, MinValue, Synchronous, 1, SimOptions::default());
        assert!(sim.last_selected().is_empty());
        let outcome = sim.step();
        assert_eq!(outcome.selected, 4, "synchronous selects everyone");
        // Process 0 holds the minimum; the other three adopt a smaller value.
        assert_eq!(outcome.executed, 3);
        assert_eq!(sim.last_selected().len(), outcome.selected);
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
        let stats = sim.stats();
        for p in graph.nodes() {
            assert_eq!(stats.process(p).selections, 1);
            // The disabled process still evaluated its guard, reading
            // every neighbor: its activation is recorded like any other.
            assert_eq!(
                stats.distinct_neighbors_ever(&graph, p),
                graph.degree(p),
                "a selected disabled process is an activation"
            );
        }
        // The middle process read both of its neighbors.
        assert_eq!(stats.measured_efficiency(), 2);
        assert_eq!(stats.total_read_operations(), 4);
        assert_eq!(stats.suffix_selections(), 3);
        assert_eq!(stats.suffix_read_operations(), 4);
    }

    #[test]
    fn a_repeated_read_counts_as_an_operation_not_as_a_neighbor() {
        // On path(3) the end processes read their one port three times; the
        // middle one reads port 1, port 0, then port 1 again.
        let graph = generators::path(3);
        let mut sim = Simulation::with_config(
            &graph,
            RereadsLastPort,
            Synchronous,
            vec![0; 3],
            0,
            SimOptions::default(),
        );
        sim.record_trace();
        sim.step();
        let stats = sim.stats();
        // Three read operations per process, repeats included.
        assert_eq!(stats.total_read_operations(), 9);
        for p in graph.nodes() {
            assert_eq!(stats.distinct_neighbors_ever(&graph, p), graph.degree(p));
        }
        assert_eq!(stats.measured_efficiency(), 2);
        let record = sim.trace().unwrap().records().pop().unwrap();
        let reads: Vec<&[Port]> = record.activations.iter().map(|a| &a.reads[..]).collect();
        assert_eq!(
            reads,
            [
                &[Port::new(0)][..],
                &[Port::new(1), Port::new(0)][..],
                &[Port::new(0)][..],
            ],
            "distinct ports in first-read order"
        );
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
        sim.record_trace();
        let report = sim.run_until_silent(10_000);
        assert!(report.silent);
        // MinValue reads both neighbors each activation: it is 2-efficient
        // (Δ-efficient), not 1-efficient.
        assert_eq!(sim.stats().measured_efficiency(), 2);
        let records = sim.trace().unwrap().records();
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
        let report = sim.run_until_silent(50);
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
        assert_eq!(sim.stats().stable_process_count(&graph, 2), 5);
        assert_eq!(sim.stats().stable_process_count(&graph, 1), 0);
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
        sim.record_trace();
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
            let record = sim.trace().unwrap().records().pop().unwrap();
            assert_eq!(record.step, step_index);
            assert_eq!(
                record.activations.iter().any(|a| a.comm_changed),
                outcome.comm_changed
            );
            assert_eq!(
                record.activations.iter().filter(|a| a.comm_changed).count() as u64,
                changes_after - changes_before,
            );
            // The record's selection matches the scratch-backed accessor.
            let selected: Vec<NodeId> = record.activations.iter().map(|a| a.process).collect();
            assert_eq!(selected, sim.last_selected());
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

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "the Protocol contract requires activate")]
    fn an_activation_that_contradicts_a_settled_guard_panics() {
        // The daemon reads the set, so every guard is settled before
        // selection; the activation of the process it falls back to then
        // contradicts its clean guard.
        let graph = generators::path(3);
        let mut sim = Simulation::new(
            &graph,
            MovesWhileDisabled,
            CentralRandom::enabled_only(),
            1,
            SimOptions::default(),
        );
        sim.step();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "incremental enabled set diverged from full recomputation")]
    fn an_activation_that_contradicts_a_dirty_guard_fails_the_invariant_check() {
        // Every guard is dirty and every process selected, so each one is
        // settled from its activation alone, which the reference refutes.
        let graph = generators::path(3);
        let mut sim = Simulation::new(
            &graph,
            MovesWhileDisabled,
            Synchronous,
            1,
            SimOptions::default(),
        );
        sim.step();
    }

    #[test]
    #[should_panic(expected = "the enabled set was not refreshed for this step")]
    fn a_daemon_that_reads_the_set_must_say_so() {
        let graph = generators::path(3);
        let mut sim = Simulation::new(
            &graph,
            MinValue,
            ReadsWithoutSaying,
            1,
            SimOptions::default(),
        );
        sim.step();
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
