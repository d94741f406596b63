//! G-thinker-like "moving data to computation" baseline (§2.3).
//!
//! One **coarse-grained task per embedding tree**: before a tree rooted at
//! `v` can be explored, the task must gather every remote edge list its
//! exploration touches (the k-hop data). A bounded pool of concurrent
//! tasks shares a **general software cache** that maintains, per cached
//! list, the set of tasks referencing it — the task↔data map whose
//! maintenance cost the paper identifies as G-thinker's bottleneck
//! (Figure 2, Figure 15). The scheduler repeatedly scans the pool checking
//! whether each task's required data has arrived.
//!
//! The reproduction deliberately keeps those costs: per-vertex reference
//! sets are updated on every request and release, the scheduler re-checks
//! whole requirement sets, and task concurrency is bounded (limiting
//! communication/computation overlap), so the Table 2 / Figure 15 shapes
//! regenerate.

use gpm_cluster::{Counter, EdgeListClient, EdgeListService, FabricConfig};
use gpm_graph::partition::PartitionedGraph;
use gpm_graph::VertexId;
use gpm_obs::{ObsHandle, Recorder, RunReport, SpanKind};
use gpm_pattern::plan::{MatchingPlan, PlanOptions};
use gpm_pattern::{interp, Pattern, MAX_PATTERN_VERTICES};
use khuzdul::{PartStats, RunStats, TrafficSummary};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// G-thinker configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GThinkerConfig {
    /// Maximum concurrently active tasks per machine (the paper observes
    /// G-thinker sustains only a few hundred trees at once).
    pub max_active_tasks: usize,
    /// Software cache capacity in bytes per machine.
    pub cache_capacity: usize,
}

impl Default for GThinkerConfig {
    fn default() -> Self {
        GThinkerConfig { max_active_tasks: 256, cache_capacity: 64 << 20 }
    }
}

/// The G-thinker-like distributed GPM system.
#[derive(Debug)]
pub struct GThinker {
    pg: PartitionedGraph,
    cfg: GThinkerConfig,
    recorder: Arc<Recorder>,
}

impl GThinker {
    /// Builds the system over a partitioned graph (one worker per part).
    pub fn new(pg: PartitionedGraph, cfg: GThinkerConfig) -> Self {
        GThinker { pg, cfg, recorder: Recorder::disabled() }
    }

    /// Attaches an observability recorder; fabric fetches, scheduler
    /// scans, task probes, and cache GC all record spans into it.
    pub fn with_recorder(mut self, recorder: Arc<Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// The attached recorder (a disabled one unless [`Self::with_recorder`]
    /// was used).
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }

    /// The machine-readable report for `run`: the run's counters plus
    /// this system's recorded histograms and span accounting, built
    /// through the same pipeline as the engine's so Fig. 15 comparisons
    /// read one artifact shape.
    pub fn report(&self, run: &RunStats) -> RunReport {
        let mut r = run.to_report("gthinker");
        self.recorder.augment_report(&mut r);
        r
    }

    /// Counts `pattern`'s embeddings.
    ///
    /// # Errors
    ///
    /// Propagates plan compilation errors.
    pub fn count(&self, pattern: &Pattern, base: &PlanOptions) -> Result<RunStats, String> {
        // No vertical computation reuse: G-thinker explores trees with
        // plain nested loops.
        let opts = PlanOptions { vertical_reuse: false, ..base.clone() };
        let plan = MatchingPlan::compile(pattern, &opts)?;
        Ok(self.count_plan(&plan))
    }

    fn count_plan(&self, plan: &MatchingPlan) -> RunStats {
        let service = EdgeListService::start_observed(
            &self.pg,
            None,
            FabricConfig::default(),
            Arc::clone(&self.recorder),
        );
        let total = AtomicU64::new(0);
        let t0 = Instant::now();
        let mut per_part = Vec::with_capacity(self.pg.part_count());
        crossbeam::thread::scope(|s| {
            let mut handles = Vec::new();
            for part in 0..self.pg.part_count() {
                let worker = PartWorker {
                    pg: &self.pg,
                    plan,
                    cfg: self.cfg,
                    part,
                    client: service.client(part),
                    total: &total,
                    obs: self.recorder.handle(part as u32),
                };
                handles.push(s.spawn(move |_| worker.run()));
            }
            for h in handles {
                per_part.push(h.join().expect("gthinker worker"));
            }
        })
        .expect("gthinker scope");
        let elapsed = t0.elapsed();
        let fetched = service.metrics().totals();
        let traffic = TrafficSummary {
            network_bytes: fetched[Counter::NetworkBytes],
            cross_socket_bytes: fetched[Counter::NumaBytes],
            requests: fetched[Counter::FetchRequests],
            ..TrafficSummary::default()
        };
        service.shutdown();
        RunStats {
            count: total.into_inner(),
            elapsed,
            per_part,
            traffic,
            failures: Default::default(),
            control: Default::default(),
        }
    }
}

/// A cached edge list with its referencing-task set (the expensive map).
#[derive(Debug)]
struct CacheEntry {
    data: Vec<VertexId>,
    refs: HashSet<usize>,
    present: bool,
}

/// One coarse-grained task: the embedding tree rooted at `root`.
#[derive(Debug)]
struct Task {
    id: usize,
    root: VertexId,
    /// Every vertex whose edge list this tree's exploration touches.
    required: HashSet<VertexId>,
    ready: bool,
}

struct PartWorker<'a> {
    pg: &'a PartitionedGraph,
    plan: &'a MatchingPlan,
    cfg: GThinkerConfig,
    part: usize,
    client: EdgeListClient,
    total: &'a AtomicU64,
    obs: ObsHandle,
}

impl PartWorker<'_> {
    fn run(mut self) -> PartStats {
        let mut compute = Duration::ZERO;
        let mut network = Duration::ZERO;
        let mut scheduler = Duration::ZERO;
        let mut cache_time = Duration::ZERO;
        let mut count = 0u64;

        let owned: Vec<VertexId> = self.pg.part(self.part).owned().to_vec();
        let root_label = self.plan.root_label();
        if self.plan.depth() == 1 {
            let t = Instant::now();
            count = owned
                .iter()
                .filter(|&&v| root_label.is_none() || self.pg.label(v) == root_label)
                .count() as u64;
            self.total.fetch_add(count, Ordering::Relaxed);
            return PartStats { count, compute: t.elapsed(), ..PartStats::default() };
        }

        let mut cache: HashMap<VertexId, CacheEntry> = HashMap::new();
        let mut cache_bytes = 0usize;
        let mut tasks: Vec<Task> = Vec::new();
        let mut next_root = 0usize;
        let mut next_task_id = 0usize;

        loop {
            // Admit new tasks up to the concurrency bound.
            while tasks.len() < self.cfg.max_active_tasks && next_root < owned.len() {
                let v = owned[next_root];
                next_root += 1;
                if root_label.is_some() && self.pg.label(v) != root_label {
                    continue;
                }
                tasks.push(Task {
                    id: next_task_id,
                    root: v,
                    required: HashSet::new(),
                    ready: true, // a fresh task can always probe
                });
                next_task_id += 1;
            }
            if tasks.is_empty() {
                break;
            }

            // Scheduler scan: re-check every waiting task's whole
            // requirement set against the cache (the paper's periodic
            // readiness check).
            let ts = Instant::now();
            let scan_start = self.obs.start();
            for task in &mut tasks {
                if !task.ready {
                    task.ready = task.required.iter().all(|v| {
                        self.pg.part(self.part).edge_list(*v).is_some()
                            || cache.get(v).is_some_and(|e| e.present)
                    });
                }
            }
            self.obs.span(SpanKind::SchedulerScan, scan_start, tasks.len() as u64);
            scheduler += ts.elapsed();

            // Execute every ready task one probe/final round.
            let mut finished: Vec<usize> = Vec::new();
            let mut to_fetch: HashSet<VertexId> = HashSet::new();
            // Index loop: the body takes further disjoint borrows of
            // `tasks` while mutating the cache map.
            #[allow(clippy::needless_range_loop)]
            for ti in 0..tasks.len() {
                if !tasks[ti].ready {
                    continue;
                }
                let te = Instant::now();
                let probe_start = self.obs.start();
                let mut missing: HashSet<VertexId> = HashSet::new();
                let mut touched: HashSet<VertexId> = HashSet::new();
                let tree_count = self.explore(tasks[ti].root, &cache, &mut missing, &mut touched);
                self.obs.span(SpanKind::Job, probe_start, tasks[ti].root as u64);
                compute += te.elapsed();

                let tc = Instant::now();
                if missing.is_empty() {
                    // Tree complete: release references (map updates).
                    count += tree_count;
                    let id = tasks[ti].id;
                    for v in tasks[ti].required.iter() {
                        if let Some(e) = cache.get_mut(v) {
                            e.refs.remove(&id);
                        }
                    }
                    finished.push(ti);
                } else {
                    // Register new requirements in the task↔data map.
                    let id = tasks[ti].id;
                    for &v in &missing {
                        let entry = cache.entry(v).or_insert_with(|| CacheEntry {
                            data: Vec::new(),
                            refs: HashSet::new(),
                            present: false,
                        });
                        entry.refs.insert(id);
                        if !entry.present {
                            to_fetch.insert(v);
                        }
                    }
                    // Present entries the probe read must be pinned too,
                    // or GC could evict data a waiting task depends on —
                    // exactly the task↔data bookkeeping G-thinker pays
                    // for on every request.
                    for &v in &touched {
                        if let Some(e) = cache.get_mut(&v) {
                            e.refs.insert(id);
                        }
                    }
                    let task = &mut tasks[ti];
                    task.required.extend(touched);
                    task.required.extend(missing);
                    task.ready = false;
                }
                cache_time += tc.elapsed();
            }
            for ti in finished.into_iter().rev() {
                tasks.swap_remove(ti);
            }

            // Fetch missing lists, grouped by owner.
            if !to_fetch.is_empty() {
                let tn = Instant::now();
                let mut by_owner: Vec<Vec<VertexId>> = vec![Vec::new(); self.pg.part_count()];
                for v in to_fetch {
                    by_owner[self.pg.owner(v)].push(v);
                }
                for (owner, vs) in by_owner.into_iter().enumerate() {
                    if vs.is_empty() || owner == self.part {
                        continue;
                    }
                    let lists =
                        self.client.fetch(owner, &vs).expect("gthinker fetched from non-owner");
                    for (k, v) in vs.iter().enumerate() {
                        let data = lists.list(k).to_vec();
                        cache_bytes += std::mem::size_of_val(&data[..]);
                        let e = cache.get_mut(v).expect("entry was registered");
                        e.data = data;
                        e.present = true;
                    }
                }
                network += tn.elapsed();
            }

            // Garbage collection: evict unreferenced entries when over
            // capacity (a full map scan — more bookkeeping).
            if cache_bytes > self.cfg.cache_capacity {
                let tc = Instant::now();
                let gc_start = self.obs.start();
                let victims: Vec<VertexId> = cache
                    .iter()
                    .filter(|(_, e)| e.present && e.refs.is_empty())
                    .map(|(&v, _)| v)
                    .collect();
                let mut evicted = 0u64;
                for v in victims {
                    if cache_bytes <= self.cfg.cache_capacity {
                        break;
                    }
                    if let Some(e) = cache.remove(&v) {
                        cache_bytes -= std::mem::size_of_val(&e.data[..]);
                        evicted += 1;
                    }
                }
                self.obs.span(SpanKind::CacheGc, gc_start, evicted);
                cache_time += tc.elapsed();
            }
        }

        self.total.fetch_add(count, Ordering::Relaxed);
        PartStats { count, compute, network, scheduler, cache: cache_time, ..PartStats::default() }
    }

    /// Explores the whole tree rooted at `root`, pruning at missing
    /// remote lists (recorded in `missing`). Returns the embeddings
    /// counted — only valid when `missing` stays empty.
    fn explore(
        &self,
        root: VertexId,
        cache: &HashMap<VertexId, CacheEntry>,
        missing: &mut HashSet<VertexId>,
        touched: &mut HashSet<VertexId>,
    ) -> u64 {
        let mut matched = vec![root];
        let mut count = 0u64;
        self.descend(0, &mut matched, cache, missing, touched, &mut count);
        count
    }

    fn list_of<'c>(
        &'c self,
        v: VertexId,
        cache: &'c HashMap<VertexId, CacheEntry>,
        missing: &mut HashSet<VertexId>,
        touched: &mut HashSet<VertexId>,
    ) -> Option<&'c [VertexId]> {
        touched.insert(v);
        if let Some(l) = self.pg.part(self.part).edge_list(v) {
            return Some(l);
        }
        match cache.get(&v) {
            Some(e) if e.present => Some(&e.data),
            _ => {
                missing.insert(v);
                None
            }
        }
    }

    fn descend(
        &self,
        level: usize,
        matched: &mut Vec<VertexId>,
        cache: &HashMap<VertexId, CacheEntry>,
        missing: &mut HashSet<VertexId>,
        touched: &mut HashSet<VertexId>,
        count: &mut u64,
    ) {
        let lp = &self.plan.levels()[level];
        // Every list the level reads, intersected then subtracted, in
        // order; the probe prunes at the first one not yet local.
        let mut lists: [&[VertexId]; MAX_PATTERN_VERTICES] = Default::default();
        for p in lp.lists.iter().chain(lp.subtract.iter()) {
            match self.list_of(matched[p], cache, missing, touched) {
                Some(l) => lists[p] = l,
                None => return,
            }
        }
        // No intermediates are stored here, so the raw window is the
        // level's whole window — the same kernel work the engine does.
        let (mut raw, mut tmp) = (Vec::new(), Vec::new());
        lp.raw_candidates(matched, |p| lists[p], || &[], &mut tmp, &mut raw);
        let terminal = level + 1 == self.plan.levels().len();
        let label = |v| self.pg.label(v);
        for &cand in &raw {
            if !interp::passes_filters(lp, matched, cand, label) {
                continue;
            }
            if terminal {
                *count += 1;
            } else {
                matched.push(cand);
                self.descend(level + 1, matched, cache, missing, touched, count);
                matched.pop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::gen;
    use gpm_pattern::oracle;

    fn run(g: &gpm_graph::Graph, machines: usize, p: &Pattern) -> RunStats {
        let pg = PartitionedGraph::new(g, machines, 1);
        GThinker::new(pg, GThinkerConfig::default()).count(p, &PlanOptions::automine()).unwrap()
    }

    #[test]
    fn counts_match_oracle() {
        let g = gen::erdos_renyi(120, 500, 6);
        for p in [Pattern::triangle(), Pattern::clique(4), Pattern::cycle(4)] {
            let expect = oracle::count_subgraphs(&g, &p, false);
            assert_eq!(run(&g, 4, &p).count, expect, "{p}");
        }
    }

    #[test]
    fn machine_invariance() {
        let g = gen::barabasi_albert(150, 4, 9);
        let p = Pattern::triangle();
        let expect = oracle::count_subgraphs(&g, &p, false);
        for machines in [1, 2, 6] {
            assert_eq!(run(&g, machines, &p).count, expect, "{machines}");
        }
    }

    #[test]
    fn breakdown_includes_cache_and_scheduler_time() {
        let g = gen::barabasi_albert(300, 5, 3);
        let stats = run(&g, 4, &Pattern::clique(4));
        let b = stats.breakdown();
        assert!(b.cache > 0.0, "cache bookkeeping must be visible");
        assert!(b.compute > 0.0);
    }

    #[test]
    fn small_cache_forces_gc() {
        let g = gen::barabasi_albert(200, 5, 4);
        let pg = PartitionedGraph::new(&g, 4, 1);
        let sys =
            GThinker::new(pg, GThinkerConfig { cache_capacity: 4 << 10, max_active_tasks: 16 });
        let stats = sys.count(&Pattern::triangle(), &PlanOptions::automine()).unwrap();
        assert_eq!(stats.count, oracle::count_subgraphs(&g, &Pattern::triangle(), false));
    }

    #[test]
    fn labeled_patterns() {
        let g = gen::with_random_labels(&gen::erdos_renyi(100, 400, 8), 3, 2);
        let p = Pattern::path(3).with_labels(vec![1, 0, 2]).unwrap();
        let expect = oracle::count_subgraphs(&g, &p, false);
        assert_eq!(run(&g, 3, &p).count, expect);
    }

    #[test]
    fn observed_run_records_scheduler_and_task_spans() {
        let g = gen::barabasi_albert(150, 4, 5);
        let pg = PartitionedGraph::new(&g, 3, 1);
        let rec = Recorder::new(&gpm_obs::ObsConfig::enabled());
        let sys = GThinker::new(pg, GThinkerConfig::default()).with_recorder(Arc::clone(&rec));
        let stats = sys.count(&Pattern::triangle(), &PlanOptions::automine()).unwrap();
        let spans = rec.spans();
        assert!(spans.iter().any(|s| s.kind == SpanKind::SchedulerScan), "no scheduler scans");
        assert!(spans.iter().any(|s| s.kind == SpanKind::Job), "no task probes");
        let report = sys.report(&stats);
        assert_eq!(report.system, "gthinker");
        assert_eq!(report.traffic.fetch_requests, stats.traffic.requests);
        gpm_obs::validate_report(&report.to_json()).expect("gthinker report must validate");
    }
}
