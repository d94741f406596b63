//! "Moving computation to data" (the aDFS-like policy, §2.3).
//!
//! Extensions execute on a machine that holds the needed edge lists;
//! partially-constructed embeddings are shipped there, together with every
//! active edge list the target does not own (the paper's example: subgraph
//! `(v0, v2)` is sent to machine 2 *together with `N(0)`*). The carried
//! lists are what makes this policy expensive: the same long edge lists
//! cross the network over and over, attached to different embeddings, and
//! no data reuse is possible because possession follows the embedding.
//! Figure 10 regenerates from this implementation.

use gpm_cluster::metrics::{ClusterMetrics, Counter};
use gpm_cluster::post::PostOffice;
use gpm_cluster::work::WorkCounter;
use gpm_graph::partition::PartitionedGraph;
use gpm_graph::VertexId;
use gpm_obs::{ObsHandle, Recorder, RunReport, SpanKind};
use gpm_pattern::plan::{MatchingPlan, PlanOptions};
use gpm_pattern::{interp, Pattern};
use khuzdul::{PartStats, RunStats, TrafficSummary};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A partial embedding in flight, with its carried edge lists.
#[derive(Debug, Clone)]
struct Job {
    /// Number of matched positions is `level + 1`.
    level: usize,
    matched: Vec<VertexId>,
    /// `(position, edge list)` pairs the sender possessed and the target
    /// does not own.
    carried: Vec<(usize, Vec<VertexId>)>,
}

impl Job {
    fn bytes(&self) -> u64 {
        16 + 4 * self.matched.len() as u64
            + self.carried.iter().map(|(_, l)| 8 + 4 * l.len() as u64).sum::<u64>()
    }
}

/// The moving-computation-to-data cluster.
#[derive(Debug)]
pub struct CtdCluster {
    pg: PartitionedGraph,
    recorder: Arc<Recorder>,
}

impl CtdCluster {
    /// Builds the cluster over a partitioned graph (one worker per part).
    pub fn new(pg: PartitionedGraph) -> Self {
        CtdCluster { pg, recorder: Recorder::disabled() }
    }

    /// Attaches an observability recorder; each executed job records a
    /// span into it.
    pub fn with_recorder(mut self, recorder: Arc<Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// The attached recorder (a disabled one unless [`Self::with_recorder`]
    /// was used).
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }

    /// The machine-readable report for `run`, built through the same
    /// pipeline as the engine's.
    pub fn report(&self, run: &RunStats) -> RunReport {
        let mut r = run.to_report("ctd");
        self.recorder.augment_report(&mut r);
        r
    }

    /// Counts `pattern`'s embeddings.
    ///
    /// The plan is compiled internally with vertical computation reuse
    /// disabled — intermediate results cannot be carried across machines
    /// under this policy.
    ///
    /// # Errors
    ///
    /// Propagates plan compilation errors, and refuses a pattern with edge
    /// labels: a part keeps vertex labels only.
    pub fn count(&self, pattern: &Pattern, base: &PlanOptions) -> Result<RunStats, String> {
        let opts = PlanOptions { vertical_reuse: false, ..base.clone() };
        let plan = MatchingPlan::compile(pattern, &opts)?;
        if plan.requires_edge_labels() {
            return Err("ctd matches vertex labels only".into());
        }
        Ok(self.count_plan(&plan))
    }

    fn count_plan(&self, plan: &MatchingPlan) -> RunStats {
        let parts = self.pg.part_count();
        let metrics = ClusterMetrics::new(parts, self.pg.sockets_per_machine());
        let post: PostOffice<Job> =
            PostOffice::new_observed(parts, metrics, Arc::clone(&self.recorder));
        let wc = WorkCounter::new();
        let roots_done = AtomicUsize::new(0);
        let total = AtomicU64::new(0);
        let t0 = Instant::now();
        let mut per_part = Vec::with_capacity(parts);
        crossbeam::thread::scope(|s| {
            let mut handles = Vec::new();
            for part in 0..parts {
                let worker = Worker {
                    pg: &self.pg,
                    plan,
                    part,
                    parts,
                    endpoint: post.endpoint(part),
                    wc: wc.clone(),
                    roots_done: &roots_done,
                    total: &total,
                    obs: self.recorder.handle(part as u32),
                };
                handles.push(s.spawn(move |_| worker.run()));
            }
            for h in handles {
                per_part.push(h.join().expect("ctd worker"));
            }
        })
        .expect("ctd scope");
        let sent = post.metrics().totals();
        RunStats {
            count: total.into_inner(),
            elapsed: t0.elapsed(),
            per_part,
            traffic: TrafficSummary {
                network_bytes: sent[Counter::NetworkBytes],
                cross_socket_bytes: sent[Counter::NumaBytes],
                requests: sent[Counter::FetchRequests],
                ..TrafficSummary::default()
            },
            failures: Default::default(),
            control: Default::default(),
        }
    }
}

struct Worker<'a> {
    pg: &'a PartitionedGraph,
    plan: &'a MatchingPlan,
    part: usize,
    parts: usize,
    endpoint: gpm_cluster::post::Endpoint<Job>,
    wc: WorkCounter,
    roots_done: &'a AtomicUsize,
    total: &'a AtomicU64,
    obs: ObsHandle,
}

impl Worker<'_> {
    fn run(mut self) -> PartStats {
        let t0 = Instant::now();
        let mut busy = Duration::ZERO;
        let mut count = 0u64;
        let owned: Vec<VertexId> = self.pg.part(self.part).owned().to_vec();
        let depth = self.plan.depth();
        let root_label = self.plan.root_label();
        let mut next_root = 0usize;
        let mut roots_finished = false;
        loop {
            if let Some(job) = self.endpoint.try_recv() {
                let tb = Instant::now();
                let js = self.obs.start();
                self.process(&job, &mut count);
                self.obs.span(SpanKind::Job, js, job.level as u64);
                self.wc.done();
                busy += tb.elapsed();
                continue;
            }
            if next_root < owned.len() {
                let tb = Instant::now();
                let v = owned[next_root];
                next_root += 1;
                let ok = root_label.is_none() || self.pg.label(v) == root_label;
                if ok {
                    if depth == 1 {
                        count += 1;
                    } else {
                        let job = Job { level: 0, matched: vec![v], carried: Vec::new() };
                        let js = self.obs.start();
                        self.process(&job, &mut count);
                        self.obs.span(SpanKind::Job, js, 0);
                    }
                }
                busy += tb.elapsed();
                continue;
            }
            if !roots_finished {
                roots_finished = true;
                self.roots_done.fetch_add(1, Ordering::SeqCst);
            }
            if self.roots_done.load(Ordering::SeqCst) == self.parts && self.wc.is_quiescent() {
                break;
            }
            std::thread::yield_now();
        }
        self.total.fetch_add(count, Ordering::Relaxed);
        let elapsed = t0.elapsed();
        PartStats {
            count,
            compute: busy,
            scheduler: elapsed.saturating_sub(busy),
            ..PartStats::default()
        }
    }

    /// The edge list of the vertex at `pos`: carried, or owned locally.
    fn list_of<'j>(&'j self, job: &'j Job, pos: usize) -> &'j [VertexId] {
        if let Some((_, l)) = job.carried.iter().find(|(p, _)| *p == pos) {
            return l;
        }
        self.pg
            .part(self.part)
            .edge_list(job.matched[pos])
            .expect("ctd routing invariant: needed list is carried or local")
    }

    fn process(&self, job: &Job, count: &mut u64) {
        let lp = &self.plan.levels()[job.level];
        // No intermediates are stored here, so the raw window is the
        // level's whole window — the same kernel work the engine does.
        let (mut raw, mut tmp) = (Vec::new(), Vec::new());
        lp.raw_candidates(&job.matched, |p| self.list_of(job, p), || &[], &mut tmp, &mut raw);
        let terminal = job.level + 1 == self.plan.levels().len();
        let label = |v| self.pg.label(v);
        for &cand in &raw {
            if !interp::passes_filters(lp, &job.matched, cand, label, |_, _| None) {
                continue;
            }
            if terminal {
                *count += 1;
                continue;
            }
            // Route the child: if the new vertex's list is active and
            // remote, computation moves to its owner.
            let target = if lp.new_vertex_active { self.pg.owner(cand) } else { self.part };
            let mut matched = job.matched.clone();
            matched.push(cand);
            // Carry every still-active list the target does not own.
            let mut carried = Vec::new();
            for p in lp.active_after.iter() {
                if p >= matched.len() - 1 {
                    continue; // the new vertex's list is local at target
                }
                if self.pg.owner(matched[p]) == target {
                    continue;
                }
                carried.push((p, self.list_of(job, p).to_vec()));
            }
            let child = Job { level: job.level + 1, matched, carried };
            if target == self.part {
                self.process(&child, count);
            } else {
                let bytes = child.bytes();
                self.wc.add(1);
                self.endpoint.send(target, child, bytes);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::gen;
    use gpm_pattern::oracle;

    fn count_of(g: &gpm_graph::Graph, machines: usize, p: &Pattern) -> RunStats {
        let pg = PartitionedGraph::new(g, machines, 1);
        CtdCluster::new(pg).count(p, &PlanOptions::automine()).unwrap()
    }

    #[test]
    fn counts_match_oracle() {
        let g = gen::erdos_renyi(120, 500, 3);
        for p in [Pattern::triangle(), Pattern::clique(4), Pattern::cycle(4)] {
            let expect = oracle::count_subgraphs(&g, &p, false);
            assert_eq!(count_of(&g, 4, &p).count, expect, "{p}");
        }
    }

    #[test]
    fn machine_invariance() {
        let g = gen::barabasi_albert(150, 4, 7);
        let p = Pattern::tailed_triangle();
        let expect = oracle::count_subgraphs(&g, &p, false);
        for machines in [1, 2, 5] {
            assert_eq!(count_of(&g, machines, &p).count, expect, "{machines}");
        }
    }

    #[test]
    fn single_machine_has_no_traffic() {
        let g = gen::erdos_renyi(80, 300, 1);
        let run = count_of(&g, 1, &Pattern::triangle());
        assert_eq!(run.traffic.network_bytes, 0);
    }

    #[test]
    fn carries_heavy_traffic_on_skewed_graphs() {
        // The defining property: traffic far exceeds the bytes a
        // fetch-based policy needs, because edge lists ride along with
        // embeddings.
        let g = gen::barabasi_albert(200, 5, 2);
        let run = count_of(&g, 4, &Pattern::clique(4));
        assert!(
            run.traffic.network_bytes > 4 * g.size_bytes() as u64 / 2,
            "expected massive carried-list traffic, got {}",
            run.traffic.network_bytes
        );
    }

    #[test]
    fn labeled_patterns() {
        let g = gen::with_random_labels(&gen::erdos_renyi(100, 400, 5), 3, 1);
        let p = Pattern::path(3).with_labels(vec![0, 1, 2]).unwrap();
        let expect = oracle::count_subgraphs(&g, &p, false);
        assert_eq!(count_of(&g, 3, &p).count, expect);
        // A part keeps vertex labels only: edge labels are refused.
        let edged = Pattern::path(3).with_edge_labels(&[(0, 1, 0), (1, 2, 1)]).unwrap();
        let ctd = CtdCluster::new(PartitionedGraph::new(&g, 3, 1));
        assert!(ctd.count(&edged, &PlanOptions::automine()).is_err());
    }

    #[test]
    fn observed_run_records_job_spans() {
        let g = gen::erdos_renyi(100, 400, 2);
        let pg = PartitionedGraph::new(&g, 3, 1);
        let rec = Recorder::new(&gpm_obs::ObsConfig::enabled());
        let sys = CtdCluster::new(pg).with_recorder(Arc::clone(&rec));
        let stats = sys.count(&Pattern::triangle(), &PlanOptions::automine()).unwrap();
        assert!(rec.spans().iter().any(|s| s.kind == SpanKind::Job), "no job spans recorded");
        // Every shipped job left a linked send→recv pair in the trace.
        let spans = rec.spans();
        let sent: Vec<_> = spans.iter().filter(|s| s.kind == SpanKind::PostSend).collect();
        assert!(!sent.is_empty(), "3-part run shipped no jobs");
        for s in &sent {
            assert_ne!(s.link, 0, "post sends must carry a message id");
        }
        assert!(
            spans.iter().any(|s| s.kind == SpanKind::PostRecv && sent[0].link == s.link),
            "first shipped job has no matching receive"
        );
        let report = sys.report(&stats);
        assert_eq!(report.system, "ctd");
        assert_eq!(report.traffic.network_bytes, stats.traffic.network_bytes);
        gpm_obs::validate_report(&report.to_json()).expect("ctd report must validate");
    }
}
