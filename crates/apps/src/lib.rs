//! GPM applications on top of the Khuzdul engine (the paper's §7.1
//! evaluation workloads).
//!
//! * [`counting`] — Triangle Counting (TC), k-Clique Counting (k-CC,
//!   including the orientation-optimized variant used for the large-graph
//!   study), and k-Motif Counting (k-MC);
//! * [`fsm`] — Frequent Subgraph Mining with minimum-image (MNI) support
//!   over labeled graphs, growing candidate patterns edge by edge up to
//!   three edges (the paper's Table 4 methodology, following Peregrine);
//! * [`cli`] — the `gpm` command-line tool.

#![warn(missing_docs)]

pub mod cli;
pub mod counting;
pub mod fsm;
