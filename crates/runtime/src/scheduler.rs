//! Schedulers (daemons): which processes are activated at each step.
//!
//! The paper assumes a **distributed fair** scheduler: any non-empty subset
//! of processes may be selected at each step, and every process is selected
//! infinitely often. [`DistributedRandom`] models it (fair with probability
//! 1); [`Fair`] wraps any scheduler with an explicit fairness enforcer so
//! that even adversarial strategies satisfy the assumption within a bounded
//! window. The synchronous and central daemons are special cases useful for
//! experiments and for deterministic tests.
//!
//! Most daemons select without looking at which processes are enabled;
//! only [`CentralRandom::enabled_only`] and [`StarvingAdversary`] read the
//! enabled set, and each daemon says which it is through
//! [`Scheduler::reads_enabled_set`].
//!
//! A daemon draws from the executor's own generator, passed by its
//! concrete type ([`StdRng`]) rather than as `&mut dyn RngCore`: every
//! coin a daemon flips then compiles to an inlined generator step instead
//! of a virtual call, which matters for [`DistributedRandom`], whose
//! selection is one draw per process.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use selfstab_graph::{Graph, NodeId};

use crate::enabled::EnabledSet;

/// Read-only information handed to a scheduler when it selects a step.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerContext<'a> {
    /// 0-based index of the step being scheduled.
    pub step: u64,
    /// The simulated graph, for daemons whose selection depends on the
    /// topology ([`LocallyCentral`]).
    pub graph: &'a Graph,
    /// The enabled set, present only when the executor refreshed it for
    /// this step (see [`SchedulerContext::enabled`]).
    enabled: Option<&'a EnabledSet>,
}

impl<'a> SchedulerContext<'a> {
    /// A context whose enabled set is current: `enabled` must describe the
    /// configuration the step starts from, one flag per process of `graph`.
    ///
    /// # Panics
    ///
    /// Panics if `enabled` and `graph` disagree on the process count.
    pub fn new(step: u64, graph: &'a Graph, enabled: &'a EnabledSet) -> Self {
        assert_eq!(
            enabled.node_count(),
            graph.node_count(),
            "the enabled set must have one flag per process"
        );
        Self::from_parts(step, graph, Some(enabled))
    }

    /// The executor's context: `enabled` is `None` when the set was not
    /// refreshed for this step.
    #[inline]
    pub(crate) fn from_parts(step: u64, graph: &'a Graph, enabled: Option<&'a EnabledSet>) -> Self {
        SchedulerContext {
            step,
            graph,
            enabled,
        }
    }

    /// Number of processes in the system.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// The enabled set maintained incrementally by the executor: which
    /// processes have an enabled action in the current configuration, with
    /// an `O(1)` cardinality.
    ///
    /// # Panics
    ///
    /// Panics when the executor did not refresh the set for this step,
    /// which it skips exactly when the scheduler's
    /// [`Scheduler::reads_enabled_set`] returns `false`: a daemon that
    /// reads the set must say so, or it would read a stale one.
    pub fn enabled(&self) -> &'a EnabledSet {
        self.enabled.expect(
            "the enabled set was not refreshed for this step: \
             a scheduler that reads it must return true from reads_enabled_set",
        )
    }
}

/// A scheduler selects a non-empty subset of processes at every step.
///
/// # Contract
///
/// * The executor only invokes [`Scheduler::select`] on **non-empty**
///   systems (`ctx.node_count() >= 1`); a scheduler given an empty system
///   should panic rather than fabricate a selection.
/// * The executor hands `select` an **empty** buffer (cleared, but with its
///   previous capacity — across steps this makes selection allocation-free
///   once the buffer has grown to the scheduler's working size).
/// * On return the buffer must hold a non-empty subset of `0..n` in
///   **strictly increasing order** (sorted, no duplicates). The executor
///   `debug_assert`s this instead of re-sorting on the hot path; daemons
///   that generate selections out of order (e.g. via shuffling) sort before
///   returning. Selecting a *disabled* process is allowed (it is a no-op
///   activation in the model).
/// * A daemon reads the enabled set only if
///   [`Scheduler::reads_enabled_set`] says so. The executor refreshes the
///   set before selection only for such a daemon, and
///   [`SchedulerContext::enabled`] panics for any other.
pub trait Scheduler {
    /// Short human-readable name, used in reports.
    fn name(&self) -> &'static str;

    /// Writes the processes activated at this step into `out`, drawing
    /// any randomness from `rng`, the executor's generator.
    ///
    /// See the [trait documentation](Scheduler) for the selection contract.
    fn select(&mut self, ctx: &SchedulerContext<'_>, rng: &mut StdRng, out: &mut Vec<NodeId>);

    /// Whether [`Scheduler::select`] reads the enabled set
    /// ([`SchedulerContext::enabled`]).
    ///
    /// A fact about the daemon, not an option. The executor evaluates the
    /// step's dirty guards before selection only for a daemon that reads
    /// the set; for any other, each selected process's activation settles
    /// its own guard and the rest are evaluated after the activations, so
    /// a selected process's guard is evaluated once instead of twice.
    /// Either order yields the same enabled set and the same guard count.
    /// The default, `true`, is always safe.
    fn reads_enabled_set(&self) -> bool {
        true
    }
}

/// Boxed schedulers forward to their contents, so heterogeneous scheduler
/// collections (`Box<dyn Scheduler>`) can be driven — and wrapped in
/// [`Fair`] — like any concrete scheduler.
impl<S: Scheduler + ?Sized> Scheduler for Box<S> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn select(&mut self, ctx: &SchedulerContext<'_>, rng: &mut StdRng, out: &mut Vec<NodeId>) {
        (**self).select(ctx, rng, out);
    }

    fn reads_enabled_set(&self) -> bool {
        (**self).reads_enabled_set()
    }
}

/// Synchronous daemon: every process is activated at every step.
#[derive(Debug, Clone, Copy, Default)]
pub struct Synchronous;

impl Scheduler for Synchronous {
    fn name(&self) -> &'static str {
        "synchronous"
    }

    fn select(&mut self, ctx: &SchedulerContext<'_>, _rng: &mut StdRng, out: &mut Vec<NodeId>) {
        out.extend((0..ctx.node_count()).map(NodeId::new));
    }

    fn reads_enabled_set(&self) -> bool {
        false
    }
}

/// Central round-robin daemon: exactly one process per step, in cyclic order.
#[derive(Debug, Clone, Copy, Default)]
pub struct CentralRoundRobin {
    next: usize,
}

impl CentralRoundRobin {
    /// Creates a round-robin daemon starting from process 0.
    pub fn new() -> Self {
        CentralRoundRobin { next: 0 }
    }
}

impl Scheduler for CentralRoundRobin {
    fn name(&self) -> &'static str {
        "central-round-robin"
    }

    /// # Panics
    ///
    /// Panics on an empty system (`n = 0`): there is no process to select,
    /// and silently clamping would fabricate a selection of a process that
    /// does not exist (see the [`Scheduler`] contract).
    fn select(&mut self, ctx: &SchedulerContext<'_>, _rng: &mut StdRng, out: &mut Vec<NodeId>) {
        let n = ctx.node_count();
        assert!(
            n > 0,
            "CentralRoundRobin cannot select from an empty system"
        );
        let chosen = NodeId::new(self.next % n);
        self.next = (self.next + 1) % n;
        out.push(chosen);
    }

    fn reads_enabled_set(&self) -> bool {
        false
    }
}

/// Central random daemon: one uniformly random process per step.
///
/// Prefers enabled processes when `prefer_enabled` is set, which speeds up
/// convergence measurements without affecting correctness (selecting a
/// disabled process is a no-op in the model).
#[derive(Debug, Clone, Copy)]
pub struct CentralRandom {
    prefer_enabled: bool,
}

impl CentralRandom {
    /// One uniformly random process per step.
    pub fn new() -> Self {
        CentralRandom {
            prefer_enabled: false,
        }
    }

    /// One uniformly random *enabled* process per step (falls back to any
    /// process when none is enabled).
    pub fn enabled_only() -> Self {
        CentralRandom {
            prefer_enabled: true,
        }
    }
}

impl Default for CentralRandom {
    fn default() -> Self {
        CentralRandom::new()
    }
}

impl Scheduler for CentralRandom {
    fn name(&self) -> &'static str {
        "central-random"
    }

    /// # Panics
    ///
    /// Panics on an empty system (`n = 0`), per the [`Scheduler`] contract.
    fn select(&mut self, ctx: &SchedulerContext<'_>, rng: &mut StdRng, out: &mut Vec<NodeId>) {
        let n = ctx.node_count();
        assert!(n > 0, "CentralRandom cannot select from an empty system");
        if self.prefer_enabled {
            // The maintained enabled set makes this allocation-free: draw a
            // rank among the enabled processes and walk to it.
            let enabled = ctx.enabled();
            if enabled.any() {
                let rank = rng.gen_range(0..enabled.count());
                if let Some(p) = enabled.iter().nth(rank) {
                    out.push(p);
                    return;
                }
            }
        }
        out.push(NodeId::new(rng.gen_range(0..n)));
    }

    /// Only [`CentralRandom::enabled_only`] reads the set.
    fn reads_enabled_set(&self) -> bool {
        self.prefer_enabled
    }
}

/// Distributed random daemon: every process is selected independently with
/// probability `activation_prob`; if the sample is empty, one process is
/// drawn uniformly so the step is never empty.
///
/// This daemon is fair with probability 1, which is the paper's assumption
/// for the probabilistic convergence of the COLORING protocol.
#[derive(Debug, Clone, Copy)]
pub struct DistributedRandom {
    activation_prob: f64,
}

impl DistributedRandom {
    /// Creates the daemon with a per-process activation probability clamped
    /// to `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics when `activation_prob` is NaN (clamping would silently
    /// propagate it into every selection).
    pub fn new(activation_prob: f64) -> Self {
        assert!(!activation_prob.is_nan(), "activation probability is NaN");
        DistributedRandom {
            activation_prob: activation_prob.clamp(f64::MIN_POSITIVE, 1.0),
        }
    }
}

impl Default for DistributedRandom {
    fn default() -> Self {
        DistributedRandom::new(0.5)
    }
}

impl Scheduler for DistributedRandom {
    fn name(&self) -> &'static str {
        "distributed-random"
    }

    fn select(&mut self, ctx: &SchedulerContext<'_>, rng: &mut StdRng, out: &mut Vec<NodeId>) {
        let n = ctx.node_count();
        // One coin per process in ascending order, which keeps the output
        // sorted by construction. The compaction has no branch on the
        // coin: every process is written at the next free slot and the
        // slot is kept only if its coin came up, so a fair coin costs no
        // mispredicted jump. `out` starts empty, and the executor's buffer
        // already holds `n`, so the resize does not allocate.
        //
        // The loop has no panic path, and it flips its coins on a local
        // copy of the generator, written back once after the loop, so the
        // generator's state stays in registers instead of being stored
        // back at every coin. A graph holds at most `NodeId::MAX_INDEX + 1`
        // processes, and bounding `n` by that lets every id below it
        // convert without a range check; the slot `kept <= i` exists.
        let n = n.min(NodeId::MAX_INDEX + 1);
        out.resize(n, NodeId::new(0));
        let slots = out.as_mut_slice();
        let mut coins = rng.clone();
        let mut kept = 0;
        for i in 0..n {
            if let Some(slot) = slots.get_mut(kept) {
                *slot = NodeId::new(i);
            }
            kept += usize::from(coins.gen_bool(self.activation_prob));
        }
        *rng = coins;
        out.truncate(kept);
        if out.is_empty() && n > 0 {
            out.push(NodeId::new(rng.gen_range(0..n)));
        }
    }

    fn reads_enabled_set(&self) -> bool {
        false
    }
}

/// Adversarial daemon that tries to starve progress: it activates only the
/// single enabled process that was activated most recently (breaking ties by
/// smallest index), in an attempt to let the same processes run over and
/// over. Wrap it in [`Fair`] to satisfy the paper's fairness assumption.
#[derive(Debug, Clone, Default)]
pub struct StarvingAdversary {
    last_activation: Vec<u64>,
}

impl StarvingAdversary {
    /// Creates the adversary.
    pub fn new() -> Self {
        StarvingAdversary {
            last_activation: Vec::new(),
        }
    }
}

impl Scheduler for StarvingAdversary {
    fn name(&self) -> &'static str {
        "starving-adversary"
    }

    /// # Panics
    ///
    /// Panics on an empty system (`n = 0`), per the [`Scheduler`] contract.
    fn select(&mut self, ctx: &SchedulerContext<'_>, rng: &mut StdRng, out: &mut Vec<NodeId>) {
        let n = ctx.node_count();
        assert!(
            n > 0,
            "StarvingAdversary cannot select from an empty system"
        );
        if self.last_activation.len() != n {
            self.last_activation = vec![0; n];
        }
        let chosen = ctx
            .enabled()
            .iter()
            .max_by_key(|p| {
                (
                    self.last_activation[p.index()],
                    std::cmp::Reverse(p.index()),
                )
            })
            .unwrap_or_else(|| NodeId::new(rng.gen_range(0..n)));
        self.last_activation[chosen.index()] = ctx.step + 1;
        out.push(chosen);
    }
}

/// Locally-central daemon: selects a random *independent* set of
/// processes — no two neighbors are ever activated in the same step.
///
/// Selection ignores the enabled set. Each step visits all `n` processes
/// in a random order and keeps each one with the activation probability
/// unless a neighbor was already kept. If it keeps no process, it selects
/// one uniformly at random.
///
/// Many self-stabilizing algorithms in the literature are proved under this
/// daemon because it removes simultaneous moves of neighbors; it is a
/// strictly weaker adversary than the distributed daemon, so every protocol
/// in this crate also works under it. Useful for experiments isolating the
/// effect of neighbor concurrency.
#[derive(Debug, Clone)]
pub struct LocallyCentral {
    activation_prob: f64,
    /// Scratch: visit order of the greedy independent-set pass (reused
    /// across steps so selection stays allocation-free in steady state).
    order: Vec<usize>,
    /// Scratch: `kept[p]` marks processes already added this step.
    kept: Vec<bool>,
}

impl LocallyCentral {
    /// Creates the daemon with the given per-process activation
    /// probability (clamped to `(0, 1]`). It reads the neighborhoods from
    /// the simulated graph ([`SchedulerContext::graph`]) at every step.
    pub fn new(activation_prob: f64) -> Self {
        assert!(!activation_prob.is_nan(), "activation probability is NaN");
        LocallyCentral {
            activation_prob: activation_prob.clamp(f64::MIN_POSITIVE, 1.0),
            order: Vec::new(),
            kept: Vec::new(),
        }
    }
}

impl Scheduler for LocallyCentral {
    fn name(&self) -> &'static str {
        "locally-central"
    }

    fn select(&mut self, ctx: &SchedulerContext<'_>, rng: &mut StdRng, out: &mut Vec<NodeId>) {
        let n = ctx.node_count();
        // Visit processes in a random order, greedily keeping those whose
        // neighbors have not been kept yet.
        self.order.clear();
        self.order.extend(0..n);
        self.order.shuffle(rng);
        self.kept.clear();
        self.kept.resize(n, false);
        for i in 0..self.order.len() {
            let p = self.order[i];
            if !rng.gen_bool(self.activation_prob) {
                continue;
            }
            let conflicts = ctx
                .graph
                .neighbors(NodeId::new(p))
                .any(|q| self.kept[q.index()]);
            if !conflicts {
                self.kept[p] = true;
                out.push(NodeId::new(p));
            }
        }
        if out.is_empty() && n > 0 {
            out.push(NodeId::new(rng.gen_range(0..n)));
        }
        // The greedy pass visits in shuffled order; the contract wants
        // sorted output.
        out.sort_unstable();
    }

    fn reads_enabled_set(&self) -> bool {
        false
    }
}

/// Fairness-enforcing wrapper: guarantees that no process goes more than
/// `window` consecutive steps without being selected, by force-including any
/// overdue process in the selection.
///
/// With this wrapper, any inner scheduler satisfies the paper's *fair*
/// assumption (every process selected infinitely often).
#[derive(Debug, Clone)]
pub struct Fair<S> {
    inner: S,
    window: u64,
    last_selected: Vec<u64>,
}

impl<S: Scheduler> Fair<S> {
    /// Wraps `inner`, forcing every process to be selected at least once
    /// every `window` steps (`window >= 1`).
    pub fn new(inner: S, window: u64) -> Self {
        Fair {
            inner,
            window: window.max(1),
            last_selected: Vec::new(),
        }
    }

    /// Read access to the wrapped scheduler.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: Scheduler> Scheduler for Fair<S> {
    fn name(&self) -> &'static str {
        "fair"
    }

    fn select(&mut self, ctx: &SchedulerContext<'_>, rng: &mut StdRng, out: &mut Vec<NodeId>) {
        let n = ctx.node_count();
        if self.last_selected.len() != n {
            self.last_selected = vec![ctx.step; n];
        }
        self.inner.select(ctx, rng, out);
        let inner_len = out.len();
        for i in 0..n {
            if ctx.step.saturating_sub(self.last_selected[i]) >= self.window {
                let p = NodeId::new(i);
                if !out[..inner_len].contains(&p) {
                    out.push(p);
                }
            }
        }
        for p in out.iter() {
            self.last_selected[p.index()] = ctx.step + 1;
        }
        // Force-included processes were appended out of order.
        if out.len() > inner_len {
            out.sort_unstable();
        }
    }

    /// The wrapper itself reads no enabled flag; its inner daemon may.
    fn reads_enabled_set(&self) -> bool {
        self.inner.reads_enabled_set()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

    /// A system to schedule: a graph and its processes' enabled flags.
    struct System {
        graph: Graph,
        enabled: EnabledSet,
    }

    impl System {
        fn ctx(&self, step: u64) -> SchedulerContext<'_> {
            SchedulerContext::new(step, &self.graph, &self.enabled)
        }
    }

    /// `flags.len()` processes with no edges between them.
    fn system(flags: &[bool]) -> System {
        System {
            graph: Graph::from_edges(flags.len(), &[]).expect("edgeless graph"),
            enabled: EnabledSet::from_flags(flags.to_vec()),
        }
    }

    /// Test adapter for the buffer-based contract: returns the selection as
    /// an owned vector, as the old `select` signature did.
    fn select_vec<S: Scheduler + ?Sized>(
        s: &mut S,
        ctx: &SchedulerContext<'_>,
        rng: &mut StdRng,
    ) -> Vec<NodeId> {
        let mut out = Vec::new();
        s.select(ctx, rng, &mut out);
        assert!(
            out.windows(2).all(|w| w[0] < w[1]),
            "{}: selection must be sorted and duplicate-free, got {out:?}",
            s.name()
        );
        out
    }

    /// Compile-time Send audit: parallel experiment campaigns build one
    /// daemon per cell and may move it to a worker thread, so every daemon
    /// in this module (and the boxed forms the experiments pass around)
    /// must be Send.
    #[test]
    fn every_scheduler_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Synchronous>();
        assert_send::<CentralRoundRobin>();
        assert_send::<CentralRandom>();
        assert_send::<DistributedRandom>();
        assert_send::<StarvingAdversary>();
        assert_send::<LocallyCentral>();
        assert_send::<Fair<DistributedRandom>>();
        assert_send::<Box<dyn Scheduler + Send>>();
    }

    #[test]
    fn only_daemons_that_select_by_enabledness_read_the_enabled_set() {
        let reads = |s: &dyn Scheduler| s.reads_enabled_set();
        assert!(!reads(&Synchronous));
        assert!(!reads(&CentralRoundRobin::new()));
        assert!(!reads(&CentralRandom::new()));
        assert!(!reads(&DistributedRandom::new(0.5)));
        assert!(!reads(&LocallyCentral::new(0.5)));
        assert!(reads(&CentralRandom::enabled_only()));
        assert!(reads(&StarvingAdversary::new()));
        // The wrapper and the box answer for their contents.
        assert!(!reads(&Fair::new(DistributedRandom::new(0.5), 4)));
        assert!(reads(&Fair::new(StarvingAdversary::new(), 4)));
        let boxed: Box<dyn Scheduler> = Box::new(CentralRandom::enabled_only());
        assert!(reads(&boxed));
        let boxed: Box<dyn Scheduler> = Box::new(Synchronous);
        assert!(!reads(&boxed));
    }

    #[test]
    #[should_panic(expected = "one flag per process")]
    fn a_context_rejects_an_enabled_set_of_another_size() {
        let graph = Graph::from_edges(3, &[]).expect("edgeless graph");
        let enabled = EnabledSet::new(2);
        let _ = SchedulerContext::new(0, &graph, &enabled);
    }

    #[test]
    fn synchronous_selects_everyone() {
        let sys = system(&[true, false, true]);
        let mut rng = StdRng::seed_from_u64(0);
        let mut s = Synchronous;
        assert_eq!(select_vec(&mut s, &sys.ctx(0), &mut rng).len(), 3);
    }

    #[test]
    fn selection_buffer_is_reused_not_grown() {
        let sys = system(&[true; 16]);
        let mut rng = StdRng::seed_from_u64(0);
        let mut s = Synchronous;
        let mut out = Vec::new();
        s.select(&sys.ctx(0), &mut rng, &mut out);
        let capacity = out.capacity();
        for step in 1..50 {
            out.clear();
            s.select(&sys.ctx(step), &mut rng, &mut out);
        }
        assert_eq!(out.len(), 16);
        assert_eq!(out.capacity(), capacity, "steady-state capacity is stable");
    }

    #[test]
    fn round_robin_cycles_over_processes() {
        let sys = system(&[true; 3]);
        let mut rng = StdRng::seed_from_u64(0);
        let mut s = CentralRoundRobin::new();
        let picks: Vec<usize> = (0..6)
            .map(|i| select_vec(&mut s, &sys.ctx(i), &mut rng)[0].index())
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "empty system")]
    fn round_robin_rejects_empty_systems() {
        let sys = system(&[]);
        let mut rng = StdRng::seed_from_u64(0);
        let mut s = CentralRoundRobin::new();
        let _ = select_vec(&mut s, &sys.ctx(0), &mut rng);
    }

    #[test]
    fn central_random_prefers_enabled_when_asked() {
        let sys = system(&[false, false, true, false]);
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = CentralRandom::enabled_only();
        for step in 0..20 {
            let picked = select_vec(&mut s, &sys.ctx(step), &mut rng);
            assert_eq!(picked, vec![NodeId::new(2)]);
        }
        // Falls back to any process when nothing is enabled.
        let none = system(&[false; 4]);
        let picked = select_vec(&mut s, &none.ctx(0), &mut rng);
        assert_eq!(picked.len(), 1);
    }

    #[test]
    fn distributed_random_never_returns_empty() {
        let sys = system(&[true; 5]);
        let mut rng = StdRng::seed_from_u64(2);
        let mut s = DistributedRandom::new(0.01);
        for step in 0..200 {
            assert!(!select_vec(&mut s, &sys.ctx(step), &mut rng).is_empty());
        }
    }

    /// The branch-free compaction keeps exactly the processes whose coin
    /// came up: one `gen_bool` per process in id order, then one fallback
    /// draw when no coin did, and the generator ends where that leaves it.
    #[test]
    fn distributed_random_keeps_exactly_the_processes_whose_coin_came_up() {
        for n in [1, 2, 7, 64, 65, 1000] {
            let sys = system(&vec![true; n]);
            for p in [f64::MIN_POSITIVE, 0.001, 0.3, 0.5, 0.999, 1.0] {
                let mut s = DistributedRandom::new(p);
                for seed in 0..50 {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut coins = rng.clone();
                    let mut expected: Vec<NodeId> = (0..n)
                        .filter(|_| coins.gen_bool(p))
                        .map(NodeId::new)
                        .collect();
                    if expected.is_empty() {
                        expected.push(NodeId::new(coins.gen_range(0..n)));
                    }
                    let case = format!("n = {n}, p = {p:e}, seed = {seed}");
                    assert_eq!(
                        select_vec(&mut s, &sys.ctx(seed), &mut rng),
                        expected,
                        "{case}"
                    );
                    assert_eq!(rng.next_u64(), coins.next_u64(), "{case}: generator state");
                }
            }
        }
    }

    #[test]
    fn distributed_random_eventually_selects_everyone() {
        let sys = system(&[true; 6]);
        let mut rng = StdRng::seed_from_u64(3);
        let mut s = DistributedRandom::new(0.3);
        let mut seen = [false; 6];
        for step in 0..500 {
            for p in select_vec(&mut s, &sys.ctx(step), &mut rng) {
                seen[p.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "fair with probability 1");
    }

    #[test]
    fn starving_adversary_keeps_activating_the_same_process() {
        let sys = system(&[true; 4]);
        let mut rng = StdRng::seed_from_u64(4);
        let mut s = StarvingAdversary::new();
        let first = select_vec(&mut s, &sys.ctx(0), &mut rng)[0];
        for step in 1..10 {
            assert_eq!(select_vec(&mut s, &sys.ctx(step), &mut rng), vec![first]);
        }
    }

    #[test]
    fn locally_central_never_activates_two_neighbors() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut s = LocallyCentral::new(0.8);
        // One daemon on systems of different sizes: it reads each step's
        // neighborhoods from the context, so none is stale.
        for n in [8, 4, 10] {
            let sys = System {
                graph: selfstab_graph::generators::ring(n),
                enabled: EnabledSet::from_flags(vec![true; n]),
            };
            for step in 0..200 {
                let chosen = select_vec(&mut s, &sys.ctx(step), &mut rng);
                assert!(!chosen.is_empty());
                for &a in &chosen {
                    for &b in &chosen {
                        assert!(
                            a == b || !sys.graph.has_edge(a, b),
                            "ring({n}): neighbors {a} and {b} both activated"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fair_wrapper_bounds_starvation() {
        let sys = system(&[true; 4]);
        let mut rng = StdRng::seed_from_u64(5);
        let window = 6;
        let mut s = Fair::new(StarvingAdversary::new(), window);
        let mut last = [0u64; 4];
        for step in 0..100 {
            for p in select_vec(&mut s, &sys.ctx(step), &mut rng) {
                last[p.index()] = step;
            }
            for (i, &l) in last.iter().enumerate() {
                assert!(step - l <= window, "process {i} starved at step {step}");
            }
        }
        assert_eq!(s.inner().name(), "starving-adversary");
    }
}
