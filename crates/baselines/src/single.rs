//! Efficient single-machine GPM engines (Table 3's comparison set).
//!
//! One multi-threaded executor parallelized over enumeration roots, with
//! presets standing in for the paper's single-machine comparators:
//!
//! * [`SingleMachine::automine_ih`] — AutoMine-style plans (the paper's
//!   in-house reimplementation, also the COST-metric reference when run
//!   with one thread);
//! * [`SingleMachine::peregrine_like`] — pattern-aware matching with the
//!   GraphPi-style order search (a different, sometimes better schedule).
//!
//! Both rank their input by degree ([`gpm_graph::rank`]), as every
//! partitioned graph does, so a symmetry-broken plan reads Pangolin's
//! degree-oriented windows here too and the distributed and single-machine
//! systems compare scheduling, not vertex order.

use gpm_graph::rank::rank_by_degree;
use gpm_graph::Graph;
use gpm_pattern::plan::{MatchingPlan, PlanOptions};
use gpm_pattern::{interp, Pattern};
use khuzdul::{PartStats, RunStats};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// A single-machine GPM engine: shared-memory, root-parallel.
///
/// # Example
///
/// ```
/// use gpm_baselines::single::SingleMachine;
/// use gpm_pattern::Pattern;
/// use gpm_graph::gen;
///
/// let g = gen::erdos_renyi(100, 400, 1);
/// let engine = SingleMachine::automine_ih(g.clone(), 2);
/// let run = engine.count(&Pattern::triangle()).unwrap();
/// assert_eq!(run.count, gpm_pattern::oracle::count_subgraphs(&g, &Pattern::triangle(), false));
/// ```
#[derive(Debug)]
pub struct SingleMachine {
    /// The input, ranked by degree.
    graph: Graph,
    threads: usize,
    /// The preset's plan family.
    opts: PlanOptions,
}

impl SingleMachine {
    /// AutomineIH: AutoMine-style greedy matching orders.
    pub fn automine_ih(graph: Graph, threads: usize) -> Self {
        SingleMachine::ranked(&graph, threads, PlanOptions::automine())
    }

    /// Peregrine-like: pattern-aware matching with cost-model orders.
    pub fn peregrine_like(graph: Graph, threads: usize) -> Self {
        SingleMachine::ranked(&graph, threads, PlanOptions::graphpi())
    }

    fn ranked(graph: &Graph, threads: usize, opts: PlanOptions) -> Self {
        SingleMachine { graph: rank_by_degree(graph).0, threads: threads.max(1), opts }
    }

    /// Compiles the preset's plan for `pattern`.
    ///
    /// # Errors
    ///
    /// Returns plan-compilation errors (e.g. a pattern above the size
    /// limit).
    pub fn compile(&self, pattern: &Pattern) -> Result<MatchingPlan, String> {
        MatchingPlan::compile(pattern, &self.opts)
    }

    /// Counts `pattern`'s embeddings with root-parallel execution.
    ///
    /// # Errors
    ///
    /// Propagates [`SingleMachine::compile`] errors.
    pub fn count(&self, pattern: &Pattern) -> Result<RunStats, String> {
        let plan = self.compile(pattern)?;
        Ok(self.count_plan(&plan))
    }

    /// Counts with a caller-supplied plan.
    pub fn count_plan(&self, plan: &MatchingPlan) -> RunStats {
        let t0 = Instant::now();
        let n = self.graph.vertex_count();
        let cursor = AtomicUsize::new(0);
        let total = AtomicU64::new(0);
        const BLOCK: usize = 64;
        if self.threads == 1 {
            let (mut count, mut bufs) = (0u64, interp::Buffers::default());
            for v in self.graph.vertices() {
                count += interp::count_from_root(&self.graph, plan, v, &mut bufs);
            }
            total.store(count, Ordering::Relaxed);
        } else {
            crossbeam::thread::scope(|s| {
                for _ in 0..self.threads {
                    s.spawn(|_| {
                        let (mut local, mut bufs) = (0u64, interp::Buffers::default());
                        loop {
                            let start = cursor.fetch_add(BLOCK, Ordering::Relaxed);
                            if start >= n {
                                break;
                            }
                            for v in start..(start + BLOCK).min(n) {
                                local +=
                                    interp::count_from_root(&self.graph, plan, v as u32, &mut bufs);
                            }
                        }
                        total.fetch_add(local, Ordering::Relaxed);
                    });
                }
            })
            .expect("single-machine scope");
        }
        let elapsed = t0.elapsed();
        RunStats {
            count: total.into_inner(),
            elapsed,
            per_part: vec![PartStats { count: 0, compute: elapsed, ..PartStats::default() }],
            traffic: Default::default(),
            failures: Default::default(),
            control: Default::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::gen;
    use gpm_pattern::oracle;

    #[test]
    fn automine_matches_oracle() {
        let g = gen::erdos_renyi(120, 500, 3);
        let engine = SingleMachine::automine_ih(g.clone(), 2);
        for p in [Pattern::triangle(), Pattern::clique(4), Pattern::cycle(4)] {
            let expect = oracle::count_subgraphs(&g, &p, false);
            assert_eq!(engine.count(&p).unwrap().count, expect, "{p}");
        }
    }

    #[test]
    fn peregrine_like_matches_oracle() {
        let g = gen::barabasi_albert(150, 4, 5);
        let engine = SingleMachine::peregrine_like(g.clone(), 2);
        for p in [Pattern::triangle(), Pattern::house(), Pattern::tailed_triangle()] {
            let expect = oracle::count_subgraphs(&g, &p, false);
            assert_eq!(engine.count(&p).unwrap().count, expect, "{p}");
        }
    }

    #[test]
    fn pangolin_orientation_counts_cliques() {
        // Ranked ids: each symmetry-broken clique is walked along the
        // degree-oriented windows.
        let g = gen::barabasi_albert(150, 6, 7);
        let engine = SingleMachine::automine_ih(g.clone(), 2);
        for k in [3usize, 4, 5] {
            let p = Pattern::clique(k);
            let expect = oracle::count_subgraphs(&g, &p, false);
            assert_eq!(engine.count(&p).unwrap().count, expect, "{k}-clique");
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let g = gen::erdos_renyi(100, 450, 9);
        let p = Pattern::clique(4);
        let one = SingleMachine::automine_ih(g.clone(), 1).count(&p).unwrap().count;
        let four = SingleMachine::automine_ih(g, 4).count(&p).unwrap().count;
        assert_eq!(one, four);
    }

    #[test]
    fn no_traffic_reported() {
        let g = gen::complete(10);
        let run = SingleMachine::automine_ih(g, 2).count(&Pattern::triangle()).unwrap();
        assert_eq!(run.traffic.network_bytes, 0);
        assert_eq!(run.count, 120);
    }
}
