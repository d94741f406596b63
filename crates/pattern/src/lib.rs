//! Pattern substrate for the Khuzdul reproduction.
//!
//! Pattern-aware GPM systems (AutoMine, GraphPi, Peregrine, …) compile a
//! small *pattern graph* into a nested-loop enumeration program. This crate
//! implements that whole pipeline:
//!
//! * [`Pattern`] — connected graphs of up to [`MAX_PATTERN_VERTICES`]
//!   vertices with optional labels;
//! * [`iso`] — isomorphism tests, automorphism groups, canonical codes;
//! * [`genpat`] — generation of all connected size-k patterns (for k-motif
//!   counting) and labeled pattern extension (for FSM);
//! * [`order`] — matching-order heuristics: an Automine-style greedy
//!   connectivity order (its ties priced by the cost model) and a
//!   GraphPi-style exhaustive cost-model search;
//! * [`restrictions`] — symmetry-breaking ordering constraints that make
//!   each subgraph be enumerated exactly once (GraphZero/GraphPi style);
//! * [`plan`] — the [`plan::MatchingPlan`] compiler: per-level intersect /
//!   subtract / filter programs with active-vertex sets (the paper's
//!   extendable-embedding metadata, §3.1) and vertical computation reuse
//!   annotations (§5.1);
//! * [`interp`] — a single-machine reference interpreter for plans;
//! * [`oracle`] — a brute-force counting oracle used as the test ground
//!   truth for every other counting path in the workspace.
//!
//! # Example: count triangles two ways
//!
//! ```
//! use gpm_pattern::{plan::{MatchingPlan, PlanOptions}, interp, oracle, Pattern};
//! use gpm_graph::gen;
//!
//! let g = gen::erdos_renyi(60, 200, 1);
//! let tri = Pattern::triangle();
//! let plan = MatchingPlan::compile(&tri, &PlanOptions::default()).unwrap();
//! let fast = interp::count_embeddings(&g, &plan);
//! let slow = oracle::count_subgraphs(&g, &tri, false);
//! assert_eq!(fast, slow);
//! ```

#![warn(missing_docs)]

mod pattern;

pub mod genpat;
pub mod interp;
pub mod iso;
pub mod oracle;
pub mod order;
pub mod plan;
pub mod restrictions;

pub use pattern::{Pattern, PatternError};

/// Maximum number of vertices in a pattern.
///
/// Eight covers every workload in the paper (up to 5-cliques and 6-motifs)
/// while keeping exhaustive order search and automorphism enumeration
/// trivially fast.
pub const MAX_PATTERN_VERTICES: usize = 8;
