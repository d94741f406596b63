//! Graph substrate for the Khuzdul reproduction.
//!
//! This crate provides everything the distributed GPM engine needs from the
//! input graph side:
//!
//! * [`Graph`] — an immutable, undirected graph in CSR form with sorted
//!   adjacency lists and optional vertex labels;
//! * [`GraphBuilder`] — edge-list ingestion with self-loop removal and
//!   duplicate-edge elimination (the paper's preprocessing, §7.1);
//! * [`gen`] — deterministic synthetic generators (Erdős–Rényi,
//!   Barabási–Albert, R-MAT, and structured fixtures) used as stand-ins for
//!   the paper's datasets;
//! * [`datasets`] — a registry mapping the paper's dataset names (Table 1)
//!   to scaled-down synthetic equivalents with the same skew class;
//! * [`partition`] — 1-D hash graph partitioning (§2.2) with NUMA
//!   sub-partitioning (§5.4);
//! * [`rank`] — the relabelling by ascending degree that every partitioned
//!   graph and single-machine executor applies, so that symmetry breaking
//!   reads degree-oriented windows (§7.2, Table 5);
//! * [`set_ops`] — the sorted-set kernels (intersection, subtraction,
//!   galloping search) that embedding extension is built from;
//! * [`io`] — plain-text and binary edge-list readers/writers.
//!
//! # Example
//!
//! ```
//! use gpm_graph::{gen, partition::PartitionedGraph};
//!
//! let g = gen::barabasi_albert(1_000, 4, 42);
//! let parts = PartitionedGraph::new(&g, 4, 1);
//! assert_eq!(parts.part_count(), 4);
//! // Every vertex is owned by exactly one part.
//! let total: usize = (0..parts.part_count())
//!     .map(|p| parts.part(p).owned_count())
//!     .sum();
//! assert_eq!(total, g.vertex_count());
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod analysis;
mod builder;
mod csr;
pub mod datasets;
pub mod gen;
pub mod io;
pub mod partition;
pub mod rank;
pub mod set_ops;

pub use builder::GraphBuilder;
pub use csr::Graph;

/// Identifier of a vertex in an input graph.
///
/// 32 bits comfortably covers the scaled-down synthetic datasets this
/// reproduction runs on (the paper's largest graph has 3.5 B vertices and
/// would need 64 bits; see `DESIGN.md` §1 for the scaling substitution).
pub type VertexId = u32;

/// Vertex label used by labeled workloads such as frequent subgraph mining.
pub type Label = u16;

/// Degree of a vertex.
pub type Degree = u32;
