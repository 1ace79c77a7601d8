//! Graph substrate for the NosWalker reproduction.
//!
//! This crate provides everything the random walk engines need to know about
//! graphs, independent of any storage or scheduling concern:
//!
//! * [`Csr`] — an in-memory compressed-sparse-row adjacency structure with
//!   optional edge weights and optional per-vertex [alias tables](alias) for
//!   O(1) weighted sampling (the representation the paper uses for the
//!   weighted `K30W` dataset, §4.1).
//! * [`CsrBuilder`] — incremental construction from edge lists.
//! * [`generators`] — deterministic synthetic graph generators covering the
//!   paper's dataset families: RMAT/Kronecker power-law graphs (Kron30/31
//!   stand-ins), configuration-model power-law graphs (the `α2.7` dataset),
//!   uniform-degree graphs (the `G12` dataset) and Erdős–Rényi graphs.
//! * [`partition`] — splitting the on-disk edge region into coarse blocks
//!   aligned to vertex boundaries, plus 4 KiB fine-grained page math
//!   (paper §3.3.1).
//! * [`layout`] — the byte-level on-disk edge record formats
//!   ([`EdgeFormat`]) shared by all out-of-core engines.
//! * [`stats`] — degree distributions and skewness measures used by the
//!   sensitivity experiments (§4.3).
//!
//! # Example
//!
//! ```
//! use noswalker_graph::{generators, stats};
//!
//! let g = generators::rmat(10, 8, generators::RmatParams::default(), 42);
//! assert_eq!(g.num_vertices(), 1 << 10);
//! let s = stats::DegreeStats::of(&g);
//! assert!(s.max_degree >= s.avg_degree as u64);
//! ```

#![warn(unused_crate_dependencies)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod alias;
pub mod builder;
pub mod csr;
pub mod generators;
pub mod io;
pub mod layout;
pub mod partition;
pub mod stats;

pub use alias::AliasTable;
pub use builder::CsrBuilder;
pub use csr::Csr;
pub use layout::{EdgeFormat, VertexEdges};
pub use partition::{BlockId, BlockInfo, Partition, FINE_PAGE_BYTES};

/// Identifier of a vertex.
///
/// The paper's graphs reach 3.5 B vertices; our scaled datasets stay well
/// within `u32`, which halves the memory cost of every edge record — the same
/// choice GraphWalker and KnightKing make.
pub type VertexId = u32;

/// Index into the (conceptually flat) edge array.
pub type EdgeIndex = u64;
