//! Locally-labelled undirected graph substrate for self-stabilizing protocol
//! simulation.
//!
//! This crate models the communication topology of the paper *Communication
//! Efficiency in Self-stabilizing Silent Protocols* (Devismes, Masuzawa,
//! Tixeuil): a distributed system is an undirected connected graph
//! `G = (Π, E)` in which every process `p` distinguishes its neighbors only
//! through **local port numbers** `1..δ.p`. The crate provides:
//!
//! * the [`Graph`] type with per-process port labelling and a [`GraphBuilder`],
//! * [`generators`] for classical families (paths, rings, cliques, grids,
//!   trees, random graphs, …) and for the *exact topologies used in the
//!   paper* (Theorem 1 and 2 constructions, Figure 9 and Figure 11 examples),
//! * structural [`properties`] (degree, diameter, connectivity, …) and the
//!   [`longest_path`] computation needed by Theorem 6,
//! * distance-1 [`coloring`] providing the "local identifiers" `C.p` required
//!   by the MIS and MATCHING protocols,
//! * the [`identifiers`] of the identified network model (unique
//!   per-process ids, for leader election); the rooted model needs only a
//!   root [`NodeId`], and [`properties::bfs_distances`] is its oracle,
//! * [`verify`] predicates for the three output specifications (proper
//!   coloring, maximal independent set, maximal matching).
//!
//! # Example
//!
//! ```
//! use selfstab_graph::{generators, properties};
//!
//! let g = generators::ring(8);
//! assert_eq!(g.node_count(), 8);
//! assert_eq!(g.edge_count(), 8);
//! assert_eq!(g.max_degree(), 2);
//! assert!(properties::is_connected(&g));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod coloring;
mod csr;
pub mod error;
pub mod generators;
pub mod graph;
pub mod identifiers;
pub mod longest_path;
pub mod node;
pub mod properties;
pub mod verify;

pub use builder::GraphBuilder;
pub use coloring::LocalColoring;
pub use error::GraphError;
pub use graph::Graph;
pub use identifiers::Identifiers;
pub use node::{NodeId, Port};
