//! Shared-register, guarded-action computational model for self-stabilizing
//! protocols.
//!
//! This crate implements the execution model of Section 2 of *Communication
//! Efficiency in Self-stabilizing Silent Protocols* (Devismes, Masuzawa,
//! Tixeuil):
//!
//! * processes hold **communication variables** (readable by neighbors) and
//!   **internal variables** (private); a [`Protocol`]
//!   describes one local algorithm executed by every process,
//! * a **scheduler** (daemon) picks a non-empty subset of processes at each
//!   step; selected processes execute one enabled action atomically, all
//!   reading the *pre-step* configuration ([`scheduler`]),
//! * **rounds** capture the execution rate of the slowest process,
//! * every neighbor read goes through a [`NeighborView`]
//!   that records which ports were read, so that the paper's communication
//!   measures (k-efficiency, ♦-(x,k)-stability, communication complexity) are
//!   *measured* from executions rather than assumed ([`stats`]),
//! * [`Simulation`] drives executions from arbitrary
//!   (possibly corrupted) configurations, detects silence and legitimacy, and
//!   supports transient-fault injection ([`faults`]),
//! * the executor is **incremental**: it caches the communication
//!   configuration and maintains the [`EnabledSet`]
//!   across steps, re-evaluating a guard only when the process or a
//!   neighbor changed — `O(changes·Δ)` per step instead of `O(n·Δ)` (see
//!   the [`executor`] module documentation),
//! * [`telemetry`] streams per-step records to disk in a compact binary
//!   format, replays recorded runs checking every activation's executed
//!   flag, comm flag and read ports, and exposes per-phase runtime
//!   metrics — all strictly pay-for-what-you-use.
//!
//! # Example
//!
//! ```
//! use selfstab_graph::generators;
//! use selfstab_runtime::protocol::Protocol;
//! use selfstab_runtime::scheduler::{DistributedRandom, Synchronous};
//! use selfstab_runtime::view::NeighborView;
//! use selfstab_runtime::{SimOptions, Simulation};
//! use rand::RngCore;
//!
//! /// A toy silent protocol: every process copies the minimum of its own
//! /// value and its neighbors' values (converges to the global minimum).
//! struct MinProtocol;
//!
//! impl Protocol for MinProtocol {
//!     type State = u32;
//!     type Comm = u32;
//!     fn name(&self) -> &'static str { "min" }
//!     fn arbitrary_state(
//!         &self,
//!         _graph: &selfstab_graph::Graph,
//!         p: selfstab_graph::NodeId,
//!         _rng: &mut dyn RngCore,
//!     ) -> u32 { p.index() as u32 + 1 }
//!     fn comm(&self, _p: selfstab_graph::NodeId, state: &u32) -> u32 { *state }
//!     // The guarded action: `is_enabled` defaults to whether this moves.
//!     fn activate(
//!         &self,
//!         graph: &selfstab_graph::Graph,
//!         p: selfstab_graph::NodeId,
//!         state: &u32,
//!         view: &NeighborView<'_, u32>,
//!         _rng: &mut dyn RngCore,
//!     ) -> Option<u32> {
//!         let min = (0..graph.degree(p))
//!             .map(|i| *view.read(selfstab_graph::Port::new(i)))
//!             .min()
//!             .unwrap_or(*state);
//!         (min < *state).then_some(min)
//!     }
//!     fn comm_bits(&self, _g: &selfstab_graph::Graph, _p: selfstab_graph::NodeId) -> u64 { 32 }
//!     fn state_bits(&self, _g: &selfstab_graph::Graph, _p: selfstab_graph::NodeId) -> u64 { 32 }
//!     fn is_legitimate(&self, graph: &selfstab_graph::Graph, config: &[u32]) -> bool {
//!         let min = config.iter().min().copied().unwrap_or(0);
//!         config.iter().all(|&v| v == min) && graph.node_count() == config.len()
//!     }
//! }
//!
//! let graph = generators::ring(6);
//! let mut sim = Simulation::new(&graph, MinProtocol, DistributedRandom::new(0.5), 42, SimOptions::default());
//! assert_eq!(sim.steps(), 0);
//! let report = sim.run_until_silent(10_000);
//! assert!(report.silent && report.legitimate);
//! assert_eq!(report.total_steps, sim.steps());
//!
//! // Under the synchronous daemon the minimum (1, held by process 0)
//! // travels one hop per step, so three steps reach the far side, where
//! // no guard holds: the default silence predicate.
//! let mut sim = Simulation::new(&graph, MinProtocol, Synchronous, 7, SimOptions::default());
//! sim.run_steps(3);
//! assert!(sim.config().iter().all(|&v| v == 1));
//! assert!(sim.is_silent());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod enabled;
pub mod executor;
pub mod faults;
pub mod protocol;
pub mod scheduler;
pub mod stats;
pub mod telemetry;
pub mod trace;
pub mod view;

pub use enabled::EnabledSet;
pub use executor::{RunReport, SimOptions, Simulation};
pub use faults::{
    run_fault_plan, BallCenter, FaultInjector, FaultLoad, FaultModel, FaultPlan, RecoveryTelemetry,
};
pub use protocol::Protocol;
pub use scheduler::Scheduler;
pub use stats::RunStats;
pub use telemetry::{read_trace_file, Trace, TraceFooter, TraceHeader};
pub use trace::StepRecord;
pub use view::NeighborView;
