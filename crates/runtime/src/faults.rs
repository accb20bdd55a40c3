//! Transient-fault injection and the declarative fault-scenario engine.
//!
//! Self-stabilization promises recovery from *any* transient fault: a fault
//! may overwrite the variables of any subset of processes with arbitrary
//! values. But *which* subset matters enormously for the repair bill — a
//! ♦-k-efficient silent protocol may pay full-Δ communication during
//! repair, and corrupting a hub, a whole region, or a state crafted to
//! flip many guards produces very different recovery regimes than the
//! uniform-random corruption the easiest-case experiments explore.
//!
//! This module provides three layers:
//!
//! * **[`FaultModel`]** — *what* a single injection corrupts: uniformly
//!   random victims, the highest-degree hubs, a BFS ball around a center
//!   (correlated regional corruption), or adversarial `StuckAt` states
//!   chosen (by candidate search) to maximize guard churn in the victim's
//!   neighborhood,
//! * **[`FaultPlan`]** — *when* injections happen: a sorted list of timed
//!   [`FaultEvent`]s (single shots, periodic re-injection, bursts) relative
//!   to the start of a scenario run,
//! * **[`run_fault_plan`]** — the scenario driver: executes a plan against
//!   a running [`Simulation`], keeps stepping until the system is silent
//!   at a round boundary or a budget runs out, and accumulates one
//!   [`RecoveryTelemetry`] round by round (victims, recovery rounds,
//!   availability and the peak reads of one round). Silence is
//!   [`Simulation::is_silent`], the protocol's [`Protocol::is_silent_at`] at
//!   every process on the executor's communication cache, checked once per
//!   round, so every scenario that steps ends on a whole round.
//!
//! Plan events fire under one rule, applied by [`run_fault_plan`] and by
//! [`replay`](crate::telemetry::replay()): before a step, every event whose
//! offset is at most the steps executed so far fires, in plan order. A
//! recorded scenario therefore replays from its plan and fault RNG alone.
//!
//! Every injection goes through [`Simulation::set_state`], which refreshes
//! the executor's cached communication configuration and marks the victim
//! and its whole neighborhood dirty — so the incremental enabled set stays
//! sound even though a fault changes state outside the normal activation
//! path (the `reference_matrix` test of `selfstab-core` checks it against
//! [`Simulation::recompute_enabled_into`] after every injection, under
//! every daemon and every fault model).
//!
//! Victim selection runs on a reusable [`FaultInjector`] scratch: uniform
//! sampling is a **partial Fisher–Yates** over a persistent permutation
//! pool (`O(count)` random swaps per injection instead of the seed's full
//! `O(n)` shuffle), and the ball model's BFS reuses persistent distance and
//! queue buffers — repeated injections at `n = 10⁵` touch the allocator
//! not at all once warmed (enforced by `tests/zero_alloc.rs`).

use rand::{Rng, RngCore};
use selfstab_graph::{Graph, NodeId};
use std::fmt;

use crate::executor::Simulation;
use crate::protocol::Protocol;
use crate::scheduler::Scheduler;

/// A fault scenario for experiment definitions: how many processes to
/// corrupt, expressed as an absolute count or as a fraction of `n`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultLoad {
    /// Corrupt exactly this many processes.
    Count(usize),
    /// Corrupt `ceil(fraction * n)` processes.
    Fraction(f64),
}

impl FaultLoad {
    /// Resolves the scenario to a process count for a graph of `n`
    /// processes (at least 1 when the graph is non-empty and the load is
    /// non-zero).
    pub fn resolve(&self, graph: &Graph) -> usize {
        let n = graph.node_count();
        match *self {
            FaultLoad::Count(c) => c.min(n),
            FaultLoad::Fraction(f) => {
                if n == 0 || f <= 0.0 {
                    0
                } else {
                    ((f * n as f64).ceil() as usize).clamp(1, n)
                }
            }
        }
    }
}

impl fmt::Display for FaultLoad {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultLoad::Count(c) => write!(f, "{c}"),
            FaultLoad::Fraction(frac) => write!(f, "{:.0}%", frac * 100.0),
        }
    }
}

/// Where a [`FaultModel::Ball`] injection is centered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BallCenter {
    /// A uniformly random process (fresh draw per injection).
    Random,
    /// The maximum-degree process (smallest id on ties) — the hub whose
    /// corruption radiates furthest.
    Hub,
    /// A fixed process index.
    Node(usize),
}

impl fmt::Display for BallCenter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            BallCenter::Random => write!(f, "rand"),
            BallCenter::Hub => write!(f, "hub"),
            BallCenter::Node(i) => write!(f, "p{i}"),
        }
    }
}

/// *What* one fault injection corrupts: the victim-selection strategy (and,
/// for [`FaultModel::StuckAt`], the state-selection strategy) of a single
/// transient fault.
///
/// All variants overwrite victims with [`Protocol::arbitrary_state`]
/// samples except `StuckAt`, which searches a small candidate set per
/// victim for the state that *enables the most guards* in the victim's
/// closed neighborhood — the adversarial "stuck" value that maximizes
/// immediate repair churn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultModel {
    /// Uniformly random distinct victims (the classical, easiest-case
    /// model).
    Uniform(FaultLoad),
    /// The highest-degree processes (hubs), ties broken by smaller id —
    /// the targeted-fault sensitivity model: corrupting a hub perturbs Δ
    /// neighborhoods at once.
    DegreeTargeted(FaultLoad),
    /// Every process within `radius` hops of `center` — correlated
    /// regional corruption (a "lightning strike" hitting one area).
    Ball {
        /// Center of the corrupted region.
        center: BallCenter,
        /// Hop radius; `0` corrupts only the center.
        radius: usize,
    },
    /// Uniformly random victims overwritten with adversarially chosen
    /// states: per victim, several arbitrary-state candidates are scored by
    /// how many guards they enable in the victim's closed neighborhood and
    /// the worst one sticks.
    StuckAt(FaultLoad),
}

/// Candidate states sampled per victim by the [`FaultModel::StuckAt`]
/// search.
const STUCK_AT_CANDIDATES: usize = 8;

impl fmt::Display for FaultModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultModel::Uniform(load) => write!(f, "uniform({load})"),
            FaultModel::DegreeTargeted(load) => write!(f, "hubs({load})"),
            FaultModel::Ball { center, radius } => write!(f, "ball({center},r{radius})"),
            FaultModel::StuckAt(load) => write!(f, "stuck({load})"),
        }
    }
}

/// Reusable victim-selection scratch: repeated injections (fault plans,
/// large-n benches) select victims without touching the allocator once the
/// buffers are warm.
///
/// * `pool` holds a persistent permutation of all processes; uniform
///   sampling performs a **partial Fisher–Yates** — `count` random prefix
///   swaps — and reads the prefix. Any permutation of the pool is an
///   equally valid starting point, so the pool is never re-initialized.
/// * the ball model's BFS reuses a persistent distance array and queue.
/// * `victims` holds the most recent selection (the slice
///   [`FaultInjector::select_victims`] and [`FaultInjector::inject`]
///   return).
#[derive(Debug, Clone)]
pub struct FaultInjector {
    /// Persistent permutation of all node ids (partial Fisher–Yates pool).
    pool: Vec<NodeId>,
    /// Victims of the most recent injection.
    victims: Vec<NodeId>,
    /// BFS scratch: hop distance per process; `u32::MAX` = unvisited.
    dist: Vec<u32>,
    /// BFS scratch: queue (drained by index, never popped from the front).
    queue: Vec<NodeId>,
    /// Nodes sorted by (degree desc, id asc); a fixed function of the
    /// graph, computed lazily on the first degree-targeted selection so
    /// periodic hub plans pay the `O(n log n)` sort once, not per event.
    by_degree: Vec<NodeId>,
    /// Scratch for [`FaultInjector::last_victims_distinct`]: sorted and
    /// deduplicated in place so distinctness checks stay allocation-free
    /// once warm.
    distinct_scratch: Vec<NodeId>,
}

impl FaultInjector {
    /// Creates the injector for `graph` (buffers sized to `n` once).
    pub fn new(graph: &Graph) -> Self {
        let n = graph.node_count();
        FaultInjector {
            pool: graph.nodes().collect(), // lint: allow(hot-alloc) — injector construction; buffers persist
            victims: Vec::with_capacity(n),
            dist: vec![u32::MAX; n], // lint: allow(hot-alloc) — injector construction; buffers persist
            queue: Vec::with_capacity(n),
            by_degree: Vec::new(), // lint: allow(hot-alloc) — filled once on first hub-targeted injection
            distinct_scratch: Vec::with_capacity(n),
        }
    }

    /// Whether the most recent selection hit pairwise-distinct processes —
    /// an invariant of every fault model (checked by `debug_assert!` after
    /// each selection). Uses a persistent sort-and-dedup scratch, so the
    /// check never allocates once warm.
    pub fn last_victims_distinct(&mut self) -> bool {
        self.distinct_scratch.clear();
        self.distinct_scratch.extend_from_slice(&self.victims);
        self.distinct_scratch.sort_unstable();
        self.distinct_scratch.dedup();
        self.distinct_scratch.len() == self.victims.len()
    }

    /// Selects the victims of `model` on `graph` into the internal buffer
    /// (no states are written — [`FaultInjector::inject`] does both).
    ///
    /// # Panics
    ///
    /// Panics if the injector was built for a different process count, or
    /// if a [`BallCenter::Node`] index is out of range.
    pub fn select_victims<R: RngCore>(
        &mut self,
        graph: &Graph,
        model: FaultModel,
        rng: &mut R,
    ) -> &[NodeId] {
        let n = graph.node_count();
        assert_eq!(
            self.pool.len(),
            n,
            "FaultInjector was built for a different graph size"
        );
        self.victims.clear();
        match model {
            FaultModel::Uniform(load) | FaultModel::StuckAt(load) => {
                let count = load.resolve(graph);
                // Partial Fisher–Yates: after i swaps the prefix pool[..i]
                // is a uniform i-subset in uniform order, regardless of the
                // permutation the pool started from.
                for i in 0..count {
                    let j = rng.gen_range(i..n);
                    self.pool.swap(i, j);
                    self.victims.push(self.pool[i]);
                }
            }
            FaultModel::DegreeTargeted(load) => {
                let count = load.resolve(graph);
                // (degree desc, id asc) order: deterministic, so hub
                // targeting is seed-independent; cached across injections.
                if self.by_degree.len() != n {
                    self.by_degree.clear();
                    self.by_degree.extend(graph.nodes());
                    self.by_degree
                        .sort_unstable_by_key(|&p| (std::cmp::Reverse(graph.degree(p)), p.index()));
                }
                self.victims.extend_from_slice(&self.by_degree[..count]);
            }
            FaultModel::Ball { center, radius } => {
                let center = match center {
                    BallCenter::Random => NodeId::new(rng.gen_range(0..n)),
                    BallCenter::Hub => graph
                        .nodes()
                        .max_by_key(|&p| (graph.degree(p), std::cmp::Reverse(p.index())))
                        .expect("non-empty graph"),
                    BallCenter::Node(i) => {
                        assert!(i < n, "ball center {i} out of range (n = {n})");
                        NodeId::new(i)
                    }
                };
                // Bounded BFS over persistent scratch.
                self.dist.iter_mut().for_each(|d| *d = u32::MAX);
                self.queue.clear();
                self.dist[center.index()] = 0;
                self.queue.push(center);
                let mut head = 0;
                while head < self.queue.len() {
                    let p = self.queue[head];
                    head += 1;
                    let d = self.dist[p.index()];
                    self.victims.push(p);
                    if (d as usize) < radius {
                        for q in graph.neighbors(p) {
                            if self.dist[q.index()] == u32::MAX {
                                self.dist[q.index()] = d + 1;
                                self.queue.push(q);
                            }
                        }
                    }
                }
            }
        }
        debug_assert!(
            self.last_victims_distinct(),
            "fault models must select pairwise-distinct victims"
        );
        &self.victims
    }

    /// Executes one injection: selects victims per `model` and overwrites
    /// their states through [`Simulation::set_state`] (which keeps the
    /// incremental enabled set sound). Returns the victims.
    ///
    /// Allocation-free once warm for `Copy`-state protocols (the `StuckAt`
    /// search clones candidate states, so heap-backed states allocate there
    /// by necessity).
    pub fn inject<P, S, R>(
        &mut self,
        sim: &mut Simulation<'_, P, S>,
        model: FaultModel,
        rng: &mut R,
    ) -> &[NodeId]
    where
        P: Protocol,
        S: Scheduler,
        R: RngCore,
    {
        let graph = sim.graph();
        self.select_victims(graph, model, rng);
        let adversarial = matches!(model, FaultModel::StuckAt(_));
        for i in 0..self.victims.len() {
            let p = self.victims[i];
            if adversarial {
                // Candidate search: keep the state that enables the most
                // guards in p's closed neighborhood. Candidates are applied
                // through set_state so the maintained enabled set scores
                // them; the winner is re-applied last and therefore sticks.
                let mut best: Option<(P::State, usize)> = None;
                for _ in 0..STUCK_AT_CANDIDATES {
                    let candidate = sim.protocol().arbitrary_state(graph, p, rng);
                    sim.set_state(p, candidate.clone()); // lint: allow(hot-alloc) — bounded candidate search, not steady-state stepping
                    let enabled = sim.enabled_set();
                    let churn = enabled.is_enabled(p) as usize
                        + graph
                            .neighbors(p)
                            .filter(|&q| enabled.is_enabled(q))
                            .count();
                    if best.as_ref().is_none_or(|&(_, b)| churn > b) {
                        best = Some((candidate, churn));
                    }
                }
                let (state, _) = best.expect("at least one candidate");
                sim.set_state(p, state);
            } else {
                let state = sim.protocol().arbitrary_state(graph, p, rng);
                sim.set_state(p, state);
            }
        }
        // Re-checked after the `StuckAt` candidate search, not just after
        // selection: the search mutates the simulation per candidate, and
        // a future refactor routing that through victim bookkeeping must
        // not be able to duplicate entries unnoticed.
        debug_assert!(
            self.last_victims_distinct(),
            "fault injection must leave pairwise-distinct victims"
        );
        &self.victims
    }
}

/// One timed injection of a [`FaultPlan`]: the step offset (relative to the
/// start of the scenario run) at which `model` fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Steps after the start of the plan run at which the injection lands.
    pub at_step: u64,
    /// What the injection corrupts.
    pub model: FaultModel,
}

/// A declarative schedule of timed mid-run fault injections, executed by
/// [`run_fault_plan`] and re-fired by [`replay`](crate::telemetry::replay()).
/// Events are kept sorted by step offset.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan firing the given events (sorted by offset internally; ties
    /// fire in the given order).
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at_step);
        FaultPlan { events }
    }

    /// A single injection at scenario start.
    pub fn single(model: FaultModel) -> Self {
        FaultPlan::new(vec![FaultEvent { at_step: 0, model }]) // lint: allow(hot-alloc) — plan construction
    }

    /// `injections` firings of `model`, `period` steps apart, starting at
    /// scenario start — periodic (bursty when `period` is small)
    /// re-injection while the previous repair may still be in flight.
    pub fn periodic(model: FaultModel, period: u64, injections: usize) -> Self {
        FaultPlan::new(
            (0..injections as u64)
                .map(|i| FaultEvent {
                    at_step: i * period,
                    model,
                })
                .collect(), // lint: allow(hot-alloc) — plan construction
        )
    }
}

/// What one scenario run cost, accumulated round by round: who was hit,
/// whether and how fast the system was silent again, how much service the
/// repair lost and how hard its reads spiked.
///
/// The paper's concern is the post-fault bill of a communication-efficient
/// silent protocol: a ♦-k-efficient protocol may pay full-Δ reads during
/// repair. Rounds completed before the first injection (a delayed plan
/// stepping a silent system) are not part of the repair and count toward
/// neither `availability` nor `peak_round_reads`.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryTelemetry {
    /// Processes corrupted, summed over the plan's injections.
    pub victims: usize,
    /// Rounds from the last injection to the first round boundary at
    /// which the system is silent (`None` when the budget ran out first:
    /// the system did not recover). At least 1 whenever a step ran after
    /// the last injection.
    pub recovery_rounds: Option<u64>,
    /// Fraction of the rounds completed after the first injection whose
    /// closing configuration satisfied the legitimacy predicate (1.0 when
    /// no round completed: the plan left the system silent).
    pub availability: f64,
    /// Most read operations in one round completed after the first
    /// injection.
    pub peak_round_reads: u64,
}

/// Fires, in plan order, every event of `plan` from index `*next` on whose
/// offset is at most the steps `sim` has executed since step `start`,
/// advances `*next` past them, and returns the processes they corrupted.
///
/// This is the plan's one firing rule: [`run_fault_plan`] applies it
/// before every step of a scenario, counting from the scenario's first
/// step, and [`replay`](crate::telemetry::replay()) before every replayed
/// step, counting from the recording's first step, so a replay re-injects
/// exactly what the recording injected.
pub(crate) fn fire_due_events<P, S, R>(
    sim: &mut Simulation<'_, P, S>,
    plan: &FaultPlan,
    next: &mut usize,
    start: u64,
    injector: &mut FaultInjector,
    rng: &mut R,
) -> usize
where
    P: Protocol,
    S: Scheduler,
    R: RngCore,
{
    let offset = sim.steps() - start;
    let mut victims = 0;
    while let Some(event) = plan.events.get(*next).filter(|e| e.at_step <= offset) {
        let metrics = crate::telemetry::metrics::active();
        // lint: allow(determinism) — injection timing feeds the metrics histograms only
        let injection_started = metrics.map(|_| std::time::Instant::now());
        let hit = injector.inject(sim, event.model, rng).len();
        if let (Some(m), Some(started)) = (metrics, injection_started) {
            m.record_fault_injection(hit as u64, started.elapsed());
        }
        victims += hit;
        *next += 1;
    }
    victims
}

/// Executes `plan` against a running simulation: injects each event at its
/// step offset, then keeps stepping until the system is **silent** again
/// or `max_steps` scenario steps have been executed.
///
/// Silence has one test, [`Simulation::is_silent`] at a round boundary
/// once every event has fired: the scenario's start counts as one, and
/// after it every step that completes a round. A scenario that steps
/// therefore ends on a whole round, whether the protocol's guards fall
/// quiet (its silence is then "no guard holds") or stay enabled forever,
/// probing while its communication variables quiesce (COLORING, MIS, the
/// leader election). Checking once per round also amortizes the `O(n)`
/// predicate to `O(1)` per step under central daemons.
///
/// At every round boundary after the first injection the driver checks
/// legitimacy and counts the round's reads, which it folds into the
/// returned [`RecoveryTelemetry`]. The `injector` scratch is reused across
/// events (and across calls), so repeated scenarios at large `n` stay
/// allocation-free on the injection path.
///
/// Typically called on a stabilized simulation (so the recovery cost is
/// attributable to the plan), but any starting configuration works.
pub fn run_fault_plan<P, S, R>(
    sim: &mut Simulation<'_, P, S>,
    plan: &FaultPlan,
    injector: &mut FaultInjector,
    rng: &mut R,
    max_steps: u64,
) -> RecoveryTelemetry
where
    P: Protocol,
    S: Scheduler,
    R: RngCore,
{
    let start_step = sim.steps();
    let mut next_event = 0;
    let mut victims = 0;
    let mut recovery_rounds = None;
    // Rounds completed after the first injection, how many of them closed
    // legitimate, and the most reads one of them performed.
    let (mut repair_rounds, mut legitimate_rounds, mut peak_round_reads) = (0u64, 0u64, 0u64);
    let mut round_start_reads = sim.stats().total_read_operations();
    let mut rounds_at_last_injection = sim.rounds();
    // The scenario's start counts as a round boundary, so a plan that
    // leaves the system silent ends before its first step.
    let mut at_round_boundary = true;
    loop {
        let due_from = next_event;
        victims += fire_due_events(sim, plan, &mut next_event, start_step, injector, rng);
        if next_event > due_from {
            rounds_at_last_injection = sim.rounds();
        }
        // Checked only on a round boundary, so a scenario that steps ends
        // on a whole round.
        if next_event == plan.events.len() && at_round_boundary && sim.is_silent() {
            recovery_rounds = Some(sim.rounds() - rounds_at_last_injection);
            break;
        }
        if sim.steps() - start_step >= max_steps {
            break;
        }
        let rounds_before = sim.rounds();
        sim.step();
        at_round_boundary = sim.rounds() > rounds_before;
        if at_round_boundary {
            let reads_now = sim.stats().total_read_operations();
            if next_event > 0 {
                repair_rounds += 1;
                legitimate_rounds += u64::from(sim.is_legitimate());
                peak_round_reads = peak_round_reads.max(reads_now - round_start_reads);
            }
            round_start_reads = reads_now;
        }
    }
    RecoveryTelemetry {
        victims,
        recovery_rounds,
        availability: if repair_rounds == 0 {
            1.0
        } else {
            legitimate_rounds as f64 / repair_rounds as f64
        },
        peak_round_reads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::SimOptions;
    use crate::scheduler::{DistributedRandom, Synchronous};
    use crate::view::NeighborView;
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;
    use selfstab_graph::generators;
    use selfstab_graph::Port;

    struct MinValue;

    impl Protocol for MinValue {
        type State = u32;
        type Comm = u32;

        fn name(&self) -> &'static str {
            "min-value"
        }

        fn arbitrary_state(&self, _graph: &Graph, _p: NodeId, rng: &mut dyn RngCore) -> u32 {
            rng.gen_range(0..1000)
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

    #[test]
    fn fault_count_is_clamped() {
        let graph = generators::path(4);
        let mut sim = Simulation::new(&graph, MinValue, Synchronous, 6, SimOptions::default());
        let mut rng = StdRng::seed_from_u64(1);
        let mut injector = FaultInjector::new(&graph);
        let victims = injector
            .inject(
                &mut sim,
                FaultModel::Uniform(FaultLoad::Count(100)),
                &mut rng,
            )
            .len();
        assert_eq!(victims, 4);

        // Distinctness via the injector's own allocation-free check.
        let selected = injector
            .select_victims(&graph, FaultModel::Uniform(FaultLoad::Count(100)), &mut rng)
            .len();
        assert_eq!(selected, 4);
        assert!(injector.last_victims_distinct(), "victims are distinct");
    }

    #[test]
    fn fault_load_resolution() {
        let graph = generators::ring(10);
        assert_eq!(FaultLoad::Count(3).resolve(&graph), 3);
        assert_eq!(FaultLoad::Count(30).resolve(&graph), 10);
        assert_eq!(FaultLoad::Fraction(0.25).resolve(&graph), 3);
        assert_eq!(FaultLoad::Fraction(0.0).resolve(&graph), 0);
        assert_eq!(FaultLoad::Fraction(0.01).resolve(&graph), 1);
        assert_eq!(FaultLoad::Fraction(2.0).resolve(&graph), 10);
    }

    #[test]
    fn uniform_victims_are_distinct_and_uniformly_spread() {
        let graph = generators::ring(16);
        let mut injector = FaultInjector::new(&graph);
        let mut rng = StdRng::seed_from_u64(3);
        let mut hits = [0u32; 16];
        for _ in 0..400 {
            let victims =
                injector.select_victims(&graph, FaultModel::Uniform(FaultLoad::Count(4)), &mut rng);
            assert_eq!(victims.len(), 4);
            let mut sorted: Vec<_> = victims.to_vec();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "distinct victims");
            for v in victims {
                hits[v.index()] += 1;
            }
        }
        // 400 draws of 4-of-16: every process expects 100 hits; a process
        // never (or always) drawn would betray a broken partial shuffle.
        assert!(
            hits.iter().all(|&h| (40..160).contains(&h)),
            "hit histogram is far from uniform: {hits:?}"
        );
    }

    #[test]
    fn degree_targeted_hits_the_hubs_deterministically() {
        let graph = generators::star(7); // hub 0 with degree 6
        let mut injector = FaultInjector::new(&graph);
        let mut rng = StdRng::seed_from_u64(4);
        let victims = injector
            .select_victims(
                &graph,
                FaultModel::DegreeTargeted(FaultLoad::Count(3)),
                &mut rng,
            )
            .to_vec();
        assert_eq!(victims[0], NodeId::new(0), "the hub is corrupted first");
        // Leaves tie at degree 1: smaller ids win.
        assert_eq!(victims[1..], [NodeId::new(1), NodeId::new(2)]);
        // No randomness involved: a second injector agrees.
        let mut other = FaultInjector::new(&graph);
        let mut rng2 = StdRng::seed_from_u64(999);
        assert_eq!(
            other.select_victims(
                &graph,
                FaultModel::DegreeTargeted(FaultLoad::Count(3)),
                &mut rng2
            ),
            &victims[..]
        );
    }

    #[test]
    fn ball_selects_exactly_the_radius_neighborhood() {
        let graph = generators::path(7); // 0-1-2-3-4-5-6
        let mut injector = FaultInjector::new(&graph);
        let mut rng = StdRng::seed_from_u64(5);
        let mut victims: Vec<usize> = injector
            .select_victims(
                &graph,
                FaultModel::Ball {
                    center: BallCenter::Node(3),
                    radius: 2,
                },
                &mut rng,
            )
            .iter()
            .map(|p| p.index())
            .collect();
        victims.sort_unstable();
        assert_eq!(victims, vec![1, 2, 3, 4, 5]);
        // Radius 0 corrupts only the center; a hub center on a star is the
        // max-degree process.
        let star = generators::star(5);
        let mut star_injector = FaultInjector::new(&star);
        let victims = star_injector.select_victims(
            &star,
            FaultModel::Ball {
                center: BallCenter::Hub,
                radius: 0,
            },
            &mut rng,
        );
        assert_eq!(victims, &[NodeId::new(0)]);
    }

    #[test]
    fn stuck_at_enables_more_guards_than_it_must() {
        // On a silent ring, a StuckAt injection must leave at least the
        // victim's neighborhood churning: the candidate search maximizes
        // enabled guards, so *some* guard is enabled afterwards unless no
        // candidate can enable any (impossible here: any value below the
        // minimum enables both neighbors).
        let graph = generators::ring(12);
        let mut sim = Simulation::with_config(
            &graph,
            MinValue,
            Synchronous,
            vec![500; 12],
            7,
            SimOptions::default(),
        );
        assert_eq!(sim.enabled_set().count(), 0, "uniformly 500 is silent");
        let mut injector = FaultInjector::new(&graph);
        let mut rng = StdRng::seed_from_u64(11);
        let victims = injector
            .inject(&mut sim, FaultModel::StuckAt(FaultLoad::Count(1)), &mut rng)
            .to_vec();
        assert_eq!(victims.len(), 1);
        assert!(
            sim.enabled_set().count() >= 2,
            "the adversarial state enables the victim's neighbors"
        );
    }

    #[test]
    fn fault_plans_sort_events_and_build_schedules() {
        let model = FaultModel::Uniform(FaultLoad::Count(1));
        let plan = FaultPlan::new(vec![
            FaultEvent { at_step: 9, model },
            FaultEvent { at_step: 2, model },
        ]);
        assert_eq!(plan.events[0].at_step, 2);
        assert_eq!(plan.events.len(), 2);
        assert_eq!(FaultPlan::single(model).events[0].at_step, 0);
        let periodic = FaultPlan::periodic(model, 10, 3);
        let offsets: Vec<u64> = periodic.events.iter().map(|e| e.at_step).collect();
        assert_eq!(offsets, vec![0, 10, 20]);
    }

    #[test]
    fn run_fault_plan_reports_victims_and_recovery() {
        let graph = generators::ring(10);
        let mut sim = Simulation::new(&graph, MinValue, Synchronous, 21, SimOptions::default());
        sim.run_until_silent(10_000);
        let mut injector = FaultInjector::new(&graph);
        let mut rng = StdRng::seed_from_u64(8);
        let plan = FaultPlan::periodic(FaultModel::Uniform(FaultLoad::Fraction(0.3)), 3, 2);
        let telemetry = run_fault_plan(&mut sim, &plan, &mut injector, &mut rng, 10_000);
        // MinValue is not actually self-stabilizing (a fault can lower the
        // minimum), but it always re-reaches a silent legitimate point of
        // its own spec, which is what we exercise here.
        assert_eq!(telemetry.victims, 6, "two injections of 30% of 10");
        assert!(telemetry.recovery_rounds.is_some(), "MinValue quiesces");
        assert!(sim.is_legitimate());
        assert!((0.0..=1.0).contains(&telemetry.availability));
        // The last round closed legitimate, so some repair round did.
        assert!(telemetry.availability > 0.0);
        assert!(telemetry.peak_round_reads > 0, "the repair wave reads");
    }

    #[test]
    fn rounds_before_the_first_injection_are_not_repair_rounds() {
        // A delayed plan steps a silent ring for 40 legitimate rounds, then
        // sticks one process below the common value. The minimum spreads
        // one hop per synchronous round, so ring(8) is repaired after 4
        // rounds of which only the last closes legitimate.
        let graph = generators::ring(8);
        let silent = || {
            Simulation::with_config(
                &graph,
                MinValue,
                Synchronous,
                vec![500; 8],
                3,
                SimOptions::default(),
            )
        };
        let mut sim = silent();
        let mut injector = FaultInjector::new(&graph);
        let mut rng = StdRng::seed_from_u64(4);
        let plan = FaultPlan::new(vec![FaultEvent {
            at_step: 40,
            model: FaultModel::StuckAt(FaultLoad::Count(1)),
        }]);
        let telemetry = run_fault_plan(&mut sim, &plan, &mut injector, &mut rng, 10_000);
        assert_eq!(telemetry.victims, 1);
        assert_eq!(telemetry.recovery_rounds, Some(4));
        assert_eq!(sim.steps(), 44);
        assert_eq!(
            telemetry.availability, 0.25,
            "the 40 quiet rounds do not count"
        );
        assert_eq!(
            telemetry.peak_round_reads, 16,
            "every process reads both neighbours"
        );

        // No injection: no repair round, and an already silent system ends
        // the scenario before its first step.
        let empty = run_fault_plan(
            &mut silent(),
            &FaultPlan::default(),
            &mut injector,
            &mut rng,
            10_000,
        );
        assert_eq!(empty.victims, 0);
        assert_eq!(empty.recovery_rounds, Some(0));
        assert_eq!(empty.availability, 1.0);
        assert_eq!(empty.peak_round_reads, 0);
    }

    #[test]
    fn a_scenario_that_steps_after_its_last_injection_ends_on_a_round_boundary() {
        // MinValue is terminal: once repaired, no guard holds. Under the
        // distributed daemon the repair often ends mid-round, yet the
        // scenario runs on to the round boundary, so it reports at least
        // one recovery round and that round's reads.
        let graph = generators::star(25);
        let uniform = FaultModel::Uniform(FaultLoad::Fraction(0.2));
        for plan in [
            FaultPlan::single(uniform),
            FaultPlan::periodic(uniform, 3, 2),
        ] {
            let last_injection = plan.events.last().expect("one event").at_step;
            for seed in 0..20 {
                let mut sim = Simulation::with_config(
                    &graph,
                    MinValue,
                    DistributedRandom::new(0.5),
                    vec![500; 25],
                    seed,
                    SimOptions::default(),
                );
                let mut injector = FaultInjector::new(&graph);
                let mut rng = StdRng::seed_from_u64(seed);
                let telemetry = run_fault_plan(&mut sim, &plan, &mut injector, &mut rng, 10_000);
                if sim.steps() > last_injection {
                    assert!(
                        telemetry.recovery_rounds >= Some(1),
                        "seed {seed}, {} steps: {telemetry:?}",
                        sim.steps()
                    );
                    assert!(telemetry.peak_round_reads > 0, "seed {seed}: {telemetry:?}");
                }
            }
        }
    }

    #[test]
    fn run_fault_plan_respects_the_step_budget() {
        let graph = generators::ring(8);
        let mut sim = Simulation::new(&graph, MinValue, Synchronous, 2, SimOptions::default());
        sim.run_until_silent(1_000);
        let start = sim.steps();
        let mut injector = FaultInjector::new(&graph);
        let mut rng = StdRng::seed_from_u64(13);
        // Re-inject every step forever-ish: the budget must end the run.
        let plan = FaultPlan::periodic(FaultModel::Uniform(FaultLoad::Count(2)), 1, 1_000);
        let telemetry = run_fault_plan(&mut sim, &plan, &mut injector, &mut rng, 50);
        assert_eq!(telemetry.recovery_rounds, None);
        assert_eq!(sim.steps() - start, 50);
        assert_eq!(telemetry.victims, 2 * 51, "offsets 0..=50 fire");
    }

    #[test]
    fn model_and_load_labels_are_compact() {
        assert_eq!(
            FaultModel::Uniform(FaultLoad::Count(3)).to_string(),
            "uniform(3)"
        );
        assert_eq!(
            FaultModel::DegreeTargeted(FaultLoad::Fraction(0.1)).to_string(),
            "hubs(10%)"
        );
        assert_eq!(
            FaultModel::Ball {
                center: BallCenter::Hub,
                radius: 2
            }
            .to_string(),
            "ball(hub,r2)"
        );
        assert_eq!(
            FaultModel::StuckAt(FaultLoad::Fraction(0.25)).to_string(),
            "stuck(25%)"
        );
        assert_eq!(BallCenter::Random.to_string(), "rand");
        assert_eq!(BallCenter::Node(4).to_string(), "p4");
    }
}
