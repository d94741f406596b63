//! Replicated-graph distributed execution (GraphPi's distributed mode).
//!
//! Every machine holds the entire graph, so enumeration never
//! communicates; only coarse task-distribution control messages cross the
//! network. This is the paper's strongest *performance* baseline (Table 2,
//! Figure 13) — and its weakness is exactly what Table 5 shows: the graph
//! must fit in a single machine's memory, so it cannot scale to the large
//! datasets.
//!
//! The paper attributes GraphPi's overhead on small inputs to its
//! "complicated task partitioning and distribution method"; the
//! reproduction keeps that shape with a central block queue that machines
//! poll over (accounted) control messages, distributing the **first loop
//! only** in coarse blocks — parallelism is limited to root granularity,
//! unlike Khuzdul's fine-grained extension tasks.

use gpm_graph::rank::rank_by_degree;
use gpm_graph::Graph;
use gpm_pattern::interp;
use gpm_pattern::plan::MatchingPlan;
use khuzdul::{PartStats, RunStats, TrafficSummary};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Accounted size of one task-distribution control message.
const CONTROL_MSG_BYTES: u64 = 64;

/// Configuration of the replicated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicatedConfig {
    /// Number of machines (each holding a full graph replica).
    pub machines: usize,
    /// Compute threads per machine.
    pub threads_per_machine: usize,
    /// Roots per distributed task block.
    pub task_block: usize,
}

impl Default for ReplicatedConfig {
    fn default() -> Self {
        ReplicatedConfig { machines: 4, threads_per_machine: 2, task_block: 256 }
    }
}

/// A distributed GPM system with a fully replicated graph.
///
/// # Example
///
/// ```
/// use gpm_baselines::replicated::{ReplicatedCluster, ReplicatedConfig};
/// use gpm_pattern::{plan::{MatchingPlan, PlanOptions}, Pattern};
/// use gpm_graph::gen;
///
/// let g = gen::erdos_renyi(100, 400, 2);
/// let cluster = ReplicatedCluster::new(g.clone(), ReplicatedConfig::default());
/// let plan = MatchingPlan::compile(&Pattern::triangle(), &PlanOptions::graphpi()).unwrap();
/// let run = cluster.count(&plan);
/// assert_eq!(run.count, gpm_pattern::oracle::count_subgraphs(&g, &Pattern::triangle(), false));
/// ```
#[derive(Debug)]
pub struct ReplicatedCluster {
    graph: Graph,
    cfg: ReplicatedConfig,
}

impl ReplicatedCluster {
    /// Builds the cluster (conceptually replicating `graph`, ranked by
    /// degree as every system's input is, to every machine — one copy is
    /// shared in-process, but the memory footprint reported by
    /// [`ReplicatedCluster::replicated_bytes`] is per-replica).
    pub fn new(graph: Graph, cfg: ReplicatedConfig) -> Self {
        assert!(cfg.machines >= 1 && cfg.threads_per_machine >= 1 && cfg.task_block >= 1);
        ReplicatedCluster { graph: rank_by_degree(&graph).0, cfg }
    }

    /// Total memory the replication policy needs cluster-wide.
    pub fn replicated_bytes(&self) -> usize {
        self.graph.size_bytes() * self.cfg.machines
    }

    /// Counts `plan`'s embeddings across the cluster.
    pub fn count(&self, plan: &MatchingPlan) -> RunStats {
        let t0 = Instant::now();
        let n = self.graph.vertex_count();
        let queue = AtomicUsize::new(0);
        let total = AtomicU64::new(0);
        let control_msgs = AtomicU64::new(0);
        let block = self.cfg.task_block;
        let mut per_part: Vec<PartStats> = Vec::new();
        crossbeam::thread::scope(|s| {
            let mut handles = Vec::new();
            for _machine in 0..self.cfg.machines {
                let queue = &queue;
                let total = &total;
                let control_msgs = &control_msgs;
                let graph = &self.graph;
                let threads = self.cfg.threads_per_machine;
                handles.push(s.spawn(move |s2| {
                    let m0 = Instant::now();
                    let sched = AtomicU64::new(0);
                    let machine_count = AtomicU64::new(0);
                    crossbeam::thread::scope(|s3| {
                        let _ = s2; // machine-level scope marker
                        for _ in 0..threads {
                            s3.spawn(|_| {
                                let (mut local, mut bufs) = (0u64, interp::Buffers::default());
                                loop {
                                    // One control round-trip per block
                                    // fetched from the coordinator.
                                    let ts = Instant::now();
                                    let start = queue.fetch_add(block, Ordering::Relaxed);
                                    control_msgs.fetch_add(1, Ordering::Relaxed);
                                    sched.fetch_add(
                                        ts.elapsed().as_nanos() as u64,
                                        Ordering::Relaxed,
                                    );
                                    if start >= n {
                                        break;
                                    }
                                    for v in start..(start + block).min(n) {
                                        local += interp::count_from_root(
                                            graph, plan, v as u32, &mut bufs,
                                        );
                                    }
                                }
                                machine_count.fetch_add(local, Ordering::Relaxed);
                            });
                        }
                    })
                    .expect("machine scope");
                    let count = machine_count.into_inner();
                    total.fetch_add(count, Ordering::Relaxed);
                    let elapsed = m0.elapsed();
                    let scheduler = Duration::from_nanos(sched.into_inner());
                    PartStats {
                        count,
                        compute: elapsed.saturating_sub(scheduler),
                        scheduler,
                        ..PartStats::default()
                    }
                }));
            }
            for h in handles {
                per_part.push(h.join().expect("machine thread"));
            }
        })
        .expect("cluster scope");
        let machines = self.cfg.machines as u64;
        RunStats {
            count: total.into_inner(),
            elapsed: t0.elapsed(),
            per_part,
            traffic: TrafficSummary {
                // Control traffic only; block requests from non-
                // coordinator machines cross the network.
                network_bytes: control_msgs.into_inner() * CONTROL_MSG_BYTES * (machines - 1)
                    / machines.max(1),
                ..TrafficSummary::default()
            },
            failures: Default::default(),
            control: Default::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::gen;
    use gpm_pattern::plan::PlanOptions;
    use gpm_pattern::{oracle, Pattern};

    fn plan(p: &Pattern) -> MatchingPlan {
        MatchingPlan::compile(p, &PlanOptions::graphpi()).unwrap()
    }

    #[test]
    fn counts_match_oracle() {
        let g = gen::erdos_renyi(150, 700, 1);
        let cluster = ReplicatedCluster::new(g.clone(), ReplicatedConfig::default());
        for p in [Pattern::triangle(), Pattern::clique(4), Pattern::path(4)] {
            let expect = oracle::count_subgraphs(&g, &p, false);
            assert_eq!(cluster.count(&plan(&p)).count, expect, "{p}");
        }
    }

    #[test]
    fn machine_count_invariance() {
        let g = gen::barabasi_albert(200, 4, 2);
        let p = plan(&Pattern::clique(4));
        let expect = oracle::count_subgraphs(&g, &Pattern::clique(4), false);
        for machines in [1, 2, 8] {
            let cluster = ReplicatedCluster::new(
                g.clone(),
                ReplicatedConfig { machines, ..ReplicatedConfig::default() },
            );
            assert_eq!(cluster.count(&p).count, expect, "{machines} machines");
        }
    }

    #[test]
    fn memory_footprint_scales_with_machines() {
        let g = gen::complete(50);
        let one = ReplicatedCluster::new(
            g.clone(),
            ReplicatedConfig { machines: 1, ..Default::default() },
        );
        let eight =
            ReplicatedCluster::new(g, ReplicatedConfig { machines: 8, ..Default::default() });
        assert_eq!(eight.replicated_bytes(), 8 * one.replicated_bytes());
    }

    #[test]
    fn traffic_is_control_only() {
        let g = gen::erdos_renyi(100, 400, 4);
        let cluster = ReplicatedCluster::new(g, ReplicatedConfig::default());
        let run = cluster.count(&plan(&Pattern::triangle()));
        // A few control messages, no data: far below one edge list per
        // root.
        assert!(run.traffic.network_bytes < 100 * 64 * 8);
    }
}
