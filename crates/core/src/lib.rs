//! **Khuzdul** — a distributed graph pattern mining (GPM) execution engine.
//!
//! This crate is a from-scratch Rust reproduction of the system described
//! in *"Khuzdul: Efficient and Scalable Distributed Graph Pattern Mining
//! Engine"* (Chen & Qian, ASPLOS 2023). It executes pattern enumeration
//! programs — compiled [`MatchingPlan`]s, the reified form of the paper's
//! generated `EXTEND` functions — over a 1-D hash-partitioned graph spread
//! across the machines (and NUMA sockets) of a simulated cluster.
//!
//! The engine implements the paper's full mechanism stack:
//!
//! * **Extendable embeddings** (§3): each fine-grained task is one
//!   extension of a partially-constructed embedding whose *active edge
//!   lists* are locally available; activeness is anti-monotone, so an
//!   embedding stores at most one new edge list beyond its parent's.
//! * **BFS-DFS hybrid exploration** (§4.2): embeddings live in per-level
//!   fixed-capacity *chunks*; exploration is BFS within a chunk and DFS
//!   across chunks, bounding memory to `depth × chunk` while keeping
//!   enough concurrent tasks for batched communication.
//! * **Circulant scheduling** (§4.3): a chunk's missing edge lists are
//!   bucketed by owner machine and fetched in circulant order; the part
//!   coordinator submits the requests asynchronously and integrates the
//!   replies in submission order while the later ones are in flight.
//! * **Low-cost data sharing** (§5): vertical data reuse via parent
//!   pointers, vertical *computation* reuse via stored intermediate
//!   intersection results, horizontal sharing via a collision-dropping
//!   hash table per chunk, and a never-evicting static cache
//!   (plus FIFO/LIFO/LRU/MRU variants for the paper's Figure 16 study).
//! * **NUMA awareness** (§5.4): each socket runs the hybrid exploration
//!   independently on its sub-partition.
//!
//! # Quick start
//!
//! ```
//! use gpm_graph::{gen, partition::PartitionedGraph};
//! use gpm_pattern::{plan::{MatchingPlan, PlanOptions}, Pattern};
//! use khuzdul::{Engine, EngineConfig};
//!
//! let g = gen::erdos_renyi(300, 1500, 7);
//! let pg = PartitionedGraph::new(&g, 4, 1); // 4 machines
//! let engine = Engine::new(pg, EngineConfig::default());
//! let plan = MatchingPlan::compile(&Pattern::triangle(), &PlanOptions::automine()).unwrap();
//! let run = engine.count(&plan);
//! assert_eq!(run.count, gpm_pattern::oracle::count_subgraphs(&g, &Pattern::triangle(), false));
//! engine.shutdown();
//! ```

#![warn(missing_docs)]

pub mod cache;
mod chunk;
mod control;
mod engine;
mod extend;
pub mod incident;
pub mod rebalance;
mod runtime;
mod scheduler;
pub mod service;
pub mod stats;
pub mod status;

pub use cache::{CacheConfig, CachePolicy};
pub use control::{ControlConfig, ControlMode, ControlPlaneSummary};
pub use engine::{Engine, EngineConfig, EngineError, PartHealth, QueryCtx, DEFAULT_ROOT_BUDGET};
pub use incident::{list_bundles, validate_bundle, Bundle, IncidentConfig, IncidentManager};
pub use rebalance::{RebalanceConfig, RebalanceStats};
pub use scheduler::StealConfig;
pub use service::{Completion, MemoStats, MiningService, QueryHandle, QueryOutcome, ServiceConfig};
pub use stats::{PartStats, RunStats, TrafficSummary};
pub use status::{read_status, StatusDoc, StatusServer};

// Fabric knobs and errors surface through `EngineConfig` / `try_count`,
// and the counter table through `Engine::metrics` / `RunStats::counter`,
// so re-export them for downstream callers.
pub use gpm_cluster::{Counter, Counts, CrashAt, FabricConfig, FaultPlan, FetchError, RetryPolicy};

// Observability surfaces through `EngineConfig::obs` / `Engine::report`;
// re-export the types callers hold or write out.
pub use gpm_obs::{ObsConfig, Recorder, RunReport};

// Re-export the plan types that form the engine's EXTEND-level interface.
pub use gpm_pattern::plan::MatchingPlan;

/// Helpers the unit tests of several modules share.
#[cfg(test)]
mod test_support {
    use gpm_graph::VertexId;
    use gpm_pattern::plan::MatchingPlan;

    /// What the interpreter visits for `plan` on `g` ranked by degree,
    /// mapped back to `g`'s ids and sorted: the multiset an engine over
    /// `g` visits.
    pub(crate) fn ranked_visits(g: &gpm_graph::Graph, plan: &MatchingPlan) -> Vec<Vec<VertexId>> {
        let (ranked, original) = gpm_graph::rank::rank_by_degree(g);
        let mut want = Vec::new();
        gpm_pattern::interp::enumerate_embeddings(&ranked, plan, |m| {
            want.push(m.iter().map(|&v| original[v as usize]).collect());
        });
        want.sort_unstable();
        want
    }
}
