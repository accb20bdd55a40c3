//! The paper's contribution: communication-efficient self-stabilizing silent
//! protocols.
//!
//! This crate implements Section 5 of *Communication Efficiency in
//! Self-stabilizing Silent Protocols* (Devismes, Masuzawa, Tixeuil, ICDCS
//! 2009 / INRIA RR-6731), together with everything needed to evaluate it:
//!
//! * [`coloring`] — the 1-efficient probabilistic (∆+1)-coloring protocol
//!   `COLORING` (Figure 7, Theorem 3), for anonymous networks,
//! * [`mis`] — the 1-efficient deterministic maximal-independent-set protocol
//!   `MIS` (Figure 8, Theorems 4–6), for locally-identified networks,
//! * [`matching`] — the 1-efficient deterministic maximal-matching protocol
//!   `MATCHING` (Figure 10, Theorems 7–8),
//! * [`baselines`] — the classical ∆-efficient local-checking protocols the
//!   paper implicitly compares against (each step reads every neighbor),
//! * [`measures`] — the communication/space complexity accounting of
//!   Definitions 4–6 and the ♦-(x,k)-stability measurements of Definitions
//!   7–9,
//! * [`spanning`] — the silent spanning-tree subsystem: a BFS spanning-tree
//!   protocol for rooted networks and a communication-efficient leader
//!   election (with tree construction) for identified networks,
//! * [`impossibility`] — executable counterexample constructions mirroring
//!   the proofs of Theorems 1 and 2 (Figures 1–6),
//! * [`transformer`] — an extension answering (for edge-checkable
//!   specifications) the paper's concluding open question: a generic
//!   transformer turning a ∆-efficient local-checking protocol into a
//!   1-efficient round-robin-checking protocol.
//!
//! # Quick start
//!
//! ```
//! use selfstab_core::coloring::Coloring;
//! use selfstab_graph::generators;
//! use selfstab_runtime::scheduler::DistributedRandom;
//! use selfstab_runtime::{SimOptions, Simulation};
//!
//! let graph = generators::ring(10);
//! let protocol = Coloring::new(&graph);
//! let mut sim = Simulation::new(&graph, protocol, DistributedRandom::new(0.5), 7,
//!                               SimOptions::default());
//! let report = sim.run_until_silent(100_000);
//! assert!(report.silent, "COLORING stabilizes with probability 1");
//! assert_eq!(sim.stats().measured_efficiency(), 1, "COLORING is 1-efficient");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod coloring;
pub mod impossibility;
pub mod matching;
pub mod measures;
pub mod mis;
pub mod spanning;
pub mod transformer;

pub use coloring::Coloring;
pub use matching::Matching;
pub use mis::Mis;
pub use spanning::{BfsTree, LeaderElection};
