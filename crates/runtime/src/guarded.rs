//! A small guarded-action framework.
//!
//! The paper presents every protocol as an ordered list of guarded actions
//! `⟨guard⟩ → ⟨statement⟩` evaluated with priority (the first enabled action
//! is executed, atomically). The concrete protocols in `selfstab-core`
//! implement [`Protocol`] directly for clarity
//! and performance, but it is often convenient — for prototyping a new
//! protocol, for teaching, or for writing executable transcriptions of
//! pseudo-code — to author the action list literally. This module provides
//! that: [`GuardedAction`] values grouped in a [`GuardedProtocol`], which
//! implements [`Protocol`] with the paper's priority semantics.
//!
//! # Example
//!
//! A two-action transcription of a "copy the maximum of my neighbors if it
//! is larger" protocol:
//!
//! ```
//! use selfstab_graph::{generators, Graph, NodeId, Port};
//! use selfstab_runtime::guarded::{ActionContext, GuardedAction, GuardedProtocol};
//! use selfstab_runtime::scheduler::Synchronous;
//! use selfstab_runtime::{SimOptions, Simulation};
//!
//! let propagate_max = GuardedAction::new(
//!     "adopt-larger-value",
//!     |ctx: &ActionContext<'_, '_, u32, u32>| ctx.neighbor_comms().any(|v| *v > *ctx.state),
//!     |ctx, _rng| ctx.neighbor_comms().copied().max().unwrap_or(*ctx.state),
//! );
//! let protocol = GuardedProtocol::new(
//!     "max-propagation",
//!     vec![propagate_max],
//!     |_, p: NodeId, _| p.index() as u32,      // arbitrary state: the index
//!     |_, state: &u32| *state,                 // comm = whole state
//!     |_, _| 32,                               // comm bits
//!     |_, _| 32,                               // state bits
//!     |_: &Graph, config: &[u32]| {
//!         let max = config.iter().max().copied().unwrap_or(0);
//!         config.iter().all(|&v| v == max)
//!     },
//! );
//! let graph = generators::path(5);
//! let mut sim = Simulation::new(&graph, protocol, Synchronous, 1, SimOptions::default());
//! assert!(sim.run_until_silent(100).silent);
//! assert!(sim.config().iter().all(|&v| v == 4));
//! ```

use std::fmt;

use rand::RngCore;
use selfstab_graph::{Graph, NodeId, Port};

use crate::protocol::Protocol;
use crate::view::NeighborView;

/// Everything a guard or statement may look at: the process, its state, the
/// read-tracked view of its neighborhood, and the topology handle needed for
/// degree/port arithmetic.
pub struct ActionContext<'a, 'v, S, C> {
    /// The graph (for degrees and port arithmetic only — neighbor *state*
    /// must go through [`ActionContext::view`]).
    pub graph: &'a Graph,
    /// The process being activated.
    pub process: NodeId,
    /// Its current full state.
    pub state: &'a S,
    /// The read-tracked view of its neighbors' communication states.
    pub view: &'a NeighborView<'v, C>,
}

impl<S, C> ActionContext<'_, '_, S, C> {
    /// Degree of the activated process.
    pub fn degree(&self) -> usize {
        self.graph.degree(self.process)
    }

    /// Reads the communication state behind `port` (recorded by the view).
    pub fn read(&self, port: Port) -> &C {
        self.view.read(port)
    }

    /// Iterates over the communication states of every neighbor, in port
    /// order (each access is a recorded read — a guard using this is
    /// Δ-efficient by construction).
    pub fn neighbor_comms(&self) -> impl Iterator<Item = &C> + '_ {
        (0..self.degree()).map(move |i| self.view.read(Port::new(i)))
    }
}

/// Boxed guard predicate of a [`GuardedAction`].
pub type GuardFn<S, C> = Box<dyn Fn(&ActionContext<'_, '_, S, C>) -> bool + Send + Sync>;
/// Boxed statement (action body) of a [`GuardedAction`].
pub type StatementFn<S, C> =
    Box<dyn Fn(&ActionContext<'_, '_, S, C>, &mut dyn RngCore) -> S + Send + Sync>;
/// Boxed arbitrary-state sampler of a [`GuardedProtocol`].
pub type ArbitraryFn<S> = Box<dyn Fn(&Graph, NodeId, &mut dyn RngCore) -> S + Send + Sync>;
/// Boxed communication projection of a [`GuardedProtocol`].
pub type CommFn<S, C> = Box<dyn Fn(NodeId, &S) -> C + Send + Sync>;
/// Boxed per-process bit-count function of a [`GuardedProtocol`].
pub type BitsFn = Box<dyn Fn(&Graph, NodeId) -> u64 + Send + Sync>;
/// Boxed legitimacy predicate of a [`GuardedProtocol`].
pub type LegitimateFn<S> = Box<dyn Fn(&Graph, &[S]) -> bool + Send + Sync>;

/// One `⟨guard⟩ → ⟨statement⟩` pair.
pub struct GuardedAction<S, C> {
    name: &'static str,
    guard: GuardFn<S, C>,
    statement: StatementFn<S, C>,
}

impl<S, C> GuardedAction<S, C> {
    /// Creates an action from a guard predicate and a statement producing
    /// the successor state.
    pub fn new<G, A>(name: &'static str, guard: G, statement: A) -> Self
    where
        G: Fn(&ActionContext<'_, '_, S, C>) -> bool + Send + Sync + 'static,
        A: Fn(&ActionContext<'_, '_, S, C>, &mut dyn RngCore) -> S + Send + Sync + 'static,
    {
        GuardedAction {
            name,
            guard: Box::new(guard),
            statement: Box::new(statement),
        }
    }

    /// The action's name (used in debugging output).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Evaluates the guard.
    pub fn is_enabled(&self, ctx: &ActionContext<'_, '_, S, C>) -> bool {
        (self.guard)(ctx)
    }

    /// Executes the statement.
    pub fn execute(&self, ctx: &ActionContext<'_, '_, S, C>, rng: &mut dyn RngCore) -> S {
        (self.statement)(ctx, rng)
    }
}

impl<S, C> fmt::Debug for GuardedAction<S, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GuardedAction")
            .field("name", &self.name)
            .finish()
    }
}

/// A protocol authored as an ordered list of guarded actions (highest
/// priority first), plus the projections and predicates the
/// [`Protocol`] trait needs.
pub struct GuardedProtocol<S, C> {
    name: &'static str,
    actions: Vec<GuardedAction<S, C>>,
    arbitrary: ArbitraryFn<S>,
    comm: CommFn<S, C>,
    comm_bits: BitsFn,
    state_bits: BitsFn,
    legitimate: LegitimateFn<S>,
}

impl<S, C> GuardedProtocol<S, C> {
    /// Assembles a protocol from its action list and projections.
    ///
    /// The closures mirror the [`Protocol`] methods; `arbitrary` may ignore
    /// its RNG for deterministic initialization in tests.
    #[allow(clippy::too_many_arguments)]
    pub fn new<FA, FC, FB, FS, FL>(
        name: &'static str,
        actions: Vec<GuardedAction<S, C>>,
        arbitrary: FA,
        comm: FC,
        comm_bits: FB,
        state_bits: FS,
        legitimate: FL,
    ) -> Self
    where
        FA: Fn(&Graph, NodeId, &mut dyn RngCore) -> S + Send + Sync + 'static,
        FC: Fn(NodeId, &S) -> C + Send + Sync + 'static,
        FB: Fn(&Graph, NodeId) -> u64 + Send + Sync + 'static,
        FS: Fn(&Graph, NodeId) -> u64 + Send + Sync + 'static,
        FL: Fn(&Graph, &[S]) -> bool + Send + Sync + 'static,
    {
        GuardedProtocol {
            name,
            actions,
            arbitrary: Box::new(arbitrary),
            comm: Box::new(comm),
            comm_bits: Box::new(comm_bits),
            state_bits: Box::new(state_bits),
            legitimate: Box::new(legitimate),
        }
    }

    /// The ordered action list (highest priority first).
    pub fn actions(&self) -> &[GuardedAction<S, C>] {
        &self.actions
    }

    /// Returns the name of the highest-priority enabled action, if any
    /// (useful for debugging executions).
    pub fn enabled_action_name(
        &self,
        graph: &Graph,
        p: NodeId,
        state: &S,
        view: &NeighborView<'_, C>,
    ) -> Option<&'static str> {
        let ctx = ActionContext {
            graph,
            process: p,
            state,
            view,
        };
        self.actions
            .iter()
            .find(|a| a.is_enabled(&ctx))
            .map(|a| a.name())
    }
}

impl<S, C> fmt::Debug for GuardedProtocol<S, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GuardedProtocol")
            .field("name", &self.name)
            .field(
                "actions",
                &self.actions.iter().map(|a| a.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl<S, C> Protocol for GuardedProtocol<S, C>
where
    S: Clone + fmt::Debug + PartialEq + Send + Sync,
    C: Clone + fmt::Debug + PartialEq + Send + Sync,
{
    type State = S;
    type Comm = C;

    fn name(&self) -> &'static str {
        self.name
    }

    fn arbitrary_state(&self, graph: &Graph, p: NodeId, rng: &mut dyn RngCore) -> S {
        (self.arbitrary)(graph, p, rng)
    }

    fn comm(&self, p: NodeId, state: &S) -> C {
        (self.comm)(p, state)
    }

    fn is_enabled(&self, graph: &Graph, p: NodeId, state: &S, view: &NeighborView<'_, C>) -> bool {
        let ctx = ActionContext {
            graph,
            process: p,
            state,
            view,
        };
        self.actions.iter().any(|a| a.is_enabled(&ctx))
    }

    fn activate(
        &self,
        graph: &Graph,
        p: NodeId,
        state: &S,
        view: &NeighborView<'_, C>,
        rng: &mut dyn RngCore,
    ) -> Option<S> {
        let ctx = ActionContext {
            graph,
            process: p,
            state,
            view,
        };
        // The paper's priority rule: the first action whose guard holds is
        // the one executed, atomically.
        self.actions
            .iter()
            .find(|a| a.is_enabled(&ctx))
            .map(|a| a.execute(&ctx, rng))
    }

    fn comm_bits(&self, graph: &Graph, p: NodeId) -> u64 {
        (self.comm_bits)(graph, p)
    }

    fn state_bits(&self, graph: &Graph, p: NodeId) -> u64 {
        (self.state_bits)(graph, p)
    }

    fn is_legitimate(&self, graph: &Graph, config: &[S]) -> bool {
        (self.legitimate)(graph, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{SimOptions, Simulation};
    use crate::scheduler::{DistributedRandom, Synchronous};
    use rand::Rng;
    use selfstab_graph::generators;

    /// A literal transcription of the paper's Figure 7 COLORING protocol
    /// into the guarded-action DSL: the state is `(color, cur)`.
    fn figure7_coloring(palette: usize) -> GuardedProtocol<(usize, Port), usize> {
        let action1 = GuardedAction::new(
            "conflict-redraw",
            |ctx: &ActionContext<'_, '_, (usize, Port), usize>| {
                let cur = ctx.state.1.clamp_to_degree(ctx.degree());
                *ctx.read(cur) == ctx.state.0
            },
            move |ctx, rng| {
                let cur = ctx.state.1.clamp_to_degree(ctx.degree());
                (
                    rng.gen_range(0..palette),
                    cur.next_round_robin(ctx.degree()),
                )
            },
        );
        let action2 = GuardedAction::new(
            "advance-pointer",
            |ctx: &ActionContext<'_, '_, (usize, Port), usize>| {
                let cur = ctx.state.1.clamp_to_degree(ctx.degree());
                *ctx.read(cur) != ctx.state.0
            },
            |ctx, _rng| {
                let cur = ctx.state.1.clamp_to_degree(ctx.degree());
                (ctx.state.0, cur.next_round_robin(ctx.degree()))
            },
        );
        GuardedProtocol::new(
            "figure7-coloring-dsl",
            vec![action1, action2],
            move |graph, p, rng: &mut dyn RngCore| {
                (
                    rng.gen_range(0..palette),
                    Port::new(rng.gen_range(0..graph.degree(p).max(1))),
                )
            },
            |_, state| state.0,
            move |_, _| crate::protocol::bits_for_domain(palette as u64),
            move |graph, p| {
                crate::protocol::bits_for_domain(palette as u64)
                    + crate::protocol::bits_for_domain(graph.degree(p).max(1) as u64)
            },
            |graph: &Graph, config: &[(usize, Port)]| {
                graph
                    .edges()
                    .all(|(a, b)| config[a.index()].0 != config[b.index()].0)
            },
        )
    }

    /// Compile-time Send audit: every closure slot of a [`GuardedProtocol`]
    /// is boxed with `Send + Sync` bounds, so the assembled protocol can be
    /// executed by any worker thread of a parallel experiment campaign.
    #[test]
    fn guarded_protocols_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GuardedAction<u32, u32>>();
        assert_send_sync::<GuardedProtocol<u32, u32>>();
        assert_send_sync::<GuardedProtocol<(usize, Port), usize>>();
    }

    #[test]
    fn dsl_coloring_stabilizes_and_is_one_efficient() {
        let graph = generators::ring(10);
        let protocol = figure7_coloring(graph.max_degree() + 1);
        let mut sim = Simulation::new(
            &graph,
            protocol,
            DistributedRandom::new(0.5),
            3,
            SimOptions::default(),
        );
        let report = sim.run_until_silent(500_000);
        assert!(report.silent);
        assert!(report.legitimate);
        assert_eq!(sim.stats().measured_efficiency(), 1);
    }

    #[test]
    fn priority_selects_the_first_enabled_action() {
        // Two actions with overlapping guards: only the first must run.
        let high = GuardedAction::new(
            "set-to-one",
            |_: &ActionContext<'_, '_, u32, u32>| true,
            |_, _| 1u32,
        );
        let low = GuardedAction::new(
            "set-to-two",
            |_: &ActionContext<'_, '_, u32, u32>| true,
            |_, _| 2u32,
        );
        let protocol = GuardedProtocol::new(
            "priority-check",
            vec![high, low],
            |_, _, _: &mut dyn RngCore| 0u32,
            |_, s| *s,
            |_, _| 2,
            |_, _| 2,
            |_: &Graph, config: &[u32]| config.iter().all(|&v| v == 1),
        );
        let graph = generators::path(2);
        let mut sim = Simulation::new(&graph, protocol, Synchronous, 1, SimOptions::default());
        sim.step();
        assert_eq!(sim.config(), &[1, 1]);
        assert!(sim.is_legitimate());
    }

    #[test]
    fn enabled_action_name_reports_the_winning_guard() {
        let graph = generators::path(2);
        let protocol = figure7_coloring(3);
        let comm = vec![1usize, 1];
        let view = NeighborView::from_snapshot(&graph, NodeId::new(0), &comm, false);
        let name = protocol.enabled_action_name(&graph, NodeId::new(0), &(1, Port::new(0)), &view);
        assert_eq!(name, Some("conflict-redraw"));
        let view = NeighborView::from_snapshot(&graph, NodeId::new(0), &comm, false);
        let name = protocol.enabled_action_name(&graph, NodeId::new(0), &(2, Port::new(0)), &view);
        assert_eq!(name, Some("advance-pointer"));
    }

    #[test]
    fn debug_output_lists_action_names() {
        let protocol = figure7_coloring(3);
        let debug = format!("{protocol:?}");
        assert!(debug.contains("figure7-coloring-dsl"));
        assert!(debug.contains("conflict-redraw"));
        assert!(debug.contains("advance-pointer"));
        assert_eq!(protocol.actions().len(), 2);
        assert_eq!(protocol.actions()[0].name(), "conflict-redraw");
    }
}
