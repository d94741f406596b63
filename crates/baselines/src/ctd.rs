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

use crossbeam::channel::{unbounded, Receiver, Sender};
use gpm_cluster::metrics::{ClusterMetrics, Counter};
use gpm_graph::partition::PartitionedGraph;
use gpm_graph::VertexId;
use gpm_obs::{ObsHandle, Recorder, RunReport, SpanKind};
use gpm_pattern::plan::{MatchingPlan, PlanOptions};
use gpm_pattern::{interp, Pattern};
use khuzdul::{PartStats, RunStats, TrafficSummary};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
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

/// A shipped job with its trace context: the message id (nonzero, the
/// link between its `PostSend` and `PostRecv` events) and the sending
/// part.
type Envelope = (u64, usize, Job);

/// The wire between one run's workers: an unbounded mailbox per part,
/// and the count of shipped jobs not yet finished.
///
/// The run has no global barrier: it is over only when every part has
/// run out of roots and no shipped job is queued or running. A job is
/// only made by a root or by another job, so once `in_flight` reads zero
/// after every part finished its roots, no job can appear again.
struct Wire<'a> {
    mailboxes: Vec<(Sender<Envelope>, Receiver<Envelope>)>,
    metrics: ClusterMetrics,
    recorder: &'a Recorder,
    next_msg: AtomicU64,
    in_flight: AtomicI64,
}

impl<'a> Wire<'a> {
    /// An empty wire between `parts` parts, `sockets_per_machine` to a
    /// machine, recording its messages into `recorder`.
    fn new(parts: usize, sockets_per_machine: usize, recorder: &'a Recorder) -> Self {
        Wire {
            mailboxes: (0..parts).map(|_| unbounded()).collect(),
            metrics: ClusterMetrics::new(parts, sockets_per_machine),
            recorder,
            next_msg: AtomicU64::new(0),
            in_flight: AtomicI64::new(0),
        }
    }

    /// Ships `job` from part `from` to part `to`: counts it in flight,
    /// accounts its bytes to the link it crosses, and records a
    /// `PostSend` event linked to the `PostRecv` its receiver records.
    fn send(&self, from: usize, to: usize, job: Job) {
        // `Relaxed` suffices: the job is counted *before* the channel
        // send publishes it, and that publication is itself a
        // synchronizing operation — any thread that can receive the job
        // already observes its registration through the same edge. The
        // count therefore never under-counts live work; no other
        // thread's data depends on this store being ordered.
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        let bytes = job.bytes();
        let class = self.metrics.classify(from, to);
        self.metrics.part(from).add_transfer(class, bytes, 0);
        // Offset by one so 0 stays "unlinked" (gpm_obs::Span::link).
        let msg_id = self.next_msg.fetch_add(1, Ordering::Relaxed) + 1;
        self.recorder.event(0, SpanKind::PostSend, from as u32, bytes, msg_id);
        self.mailboxes[to].0.send((msg_id, from, job)).expect("every mailbox outlives the run");
    }

    /// The next job waiting in `part`'s mailbox, if any.
    fn try_recv(&self, part: usize) -> Option<Job> {
        let (msg_id, from, job) = self.mailboxes[part].1.try_recv().ok()?;
        self.recorder.event(0, SpanKind::PostRecv, part as u32, from as u64, msg_id);
        Some(job)
    }

    /// Marks one received job finished.
    ///
    /// `Release` publishes every write the finishing thread made on
    /// behalf of the job (the children it shipped, each counted in flight
    /// before it was sent) to any thread whose `Acquire` load in
    /// [`Wire::quiescent`] subsequently observes the decrement. That is
    /// exactly the edge termination needs: a thread that reads zero sees
    /// *all* effects of *all* finished jobs.
    fn done(&self) {
        let prev = self.in_flight.fetch_sub(1, Ordering::Release);
        debug_assert!(prev > 0, "in-flight job count went negative");
    }

    /// Whether no shipped job is queued or running.
    ///
    /// `Acquire` pairs with the `Release` decrement in [`Wire::done`]:
    /// observing the count that a decrement produced also makes the
    /// finishing thread's prior writes visible, so a zero read is a safe
    /// quiescence signal, not merely a stale snapshot. (A `SeqCst` pair
    /// would add a total order no site uses — none reasons about the
    /// interleaving of two *different* atomics.)
    fn quiescent(&self) -> bool {
        self.in_flight.load(Ordering::Acquire) == 0
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
    /// Propagates plan compilation errors.
    pub fn count(&self, pattern: &Pattern, base: &PlanOptions) -> Result<RunStats, String> {
        let opts = PlanOptions { vertical_reuse: false, ..base.clone() };
        let plan = MatchingPlan::compile(pattern, &opts)?;
        Ok(self.count_plan(&plan))
    }

    fn count_plan(&self, plan: &MatchingPlan) -> RunStats {
        let parts = self.pg.part_count();
        let wire = Wire::new(parts, self.pg.sockets_per_machine(), &self.recorder);
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
                    wire: &wire,
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
        let sent = wire.metrics.totals();
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
    wire: &'a Wire<'a>,
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
            if let Some(job) = self.wire.try_recv(self.part) {
                let tb = Instant::now();
                let js = self.obs.start();
                self.process(&job, &mut count);
                self.obs.span(SpanKind::Job, js, job.level as u64);
                self.wire.done();
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
            if self.roots_done.load(Ordering::SeqCst) == self.parts && self.wire.quiescent() {
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
            if !interp::passes_filters(lp, &job.matched, cand, label) {
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
                self.wire.send(self.part, target, child);
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
    fn shipped_bytes_are_classified_by_the_link_they_cross() {
        let g = gen::barabasi_albert(200, 5, 2);
        let run = |machines, sockets| {
            let pg = PartitionedGraph::new(&g, machines, sockets);
            CtdCluster::new(pg).count(&Pattern::clique(4), &PlanOptions::automine()).unwrap()
        };
        // Two sockets of one machine: every shipped job crosses a socket,
        // none the network.
        let numa = run(1, 2).traffic;
        assert!(numa.cross_socket_bytes > 0, "{numa:?}");
        assert_eq!(numa.network_bytes, 0, "{numa:?}");
        let both = run(2, 2).traffic;
        assert!(both.cross_socket_bytes > 0 && both.network_bytes > 0, "{both:?}");
    }

    #[test]
    fn many_parts_quiesce_only_after_the_last_shipped_job() {
        // Sixteen workers ship jobs to one another while each decides,
        // from the in-flight count alone, whether the run is over. A
        // worker that read zero before the last shipped job finished
        // would stop early, and its part's jobs would be missing from
        // the count.
        let g = gen::barabasi_albert(300, 6, 11);
        let p = Pattern::clique(4);
        let expect = oracle::count_subgraphs(&g, &p, false);
        for round in 0..5 {
            let pg = PartitionedGraph::new(&g, 8, 2);
            let run = CtdCluster::new(pg).count(&p, &PlanOptions::automine()).unwrap();
            assert_eq!(run.count, expect, "round {round}");
        }
    }

    fn job(tag: VertexId) -> Job {
        Job { level: 0, matched: vec![tag], carried: Vec::new() }
    }

    #[test]
    fn wire_delivers_jobs_across_threads() {
        let rec = Recorder::disabled();
        let wire = Wire::new(2, 1, &rec);
        let got = std::thread::scope(|s| {
            let rx = s.spawn(|| {
                let mut got = Vec::new();
                while got.len() < 10 {
                    match wire.try_recv(1) {
                        Some(j) => got.push(j.matched[0]),
                        None => std::thread::yield_now(),
                    }
                }
                got
            });
            for i in 0..10 {
                wire.send(0, 1, job(i));
            }
            rx.join().unwrap()
        });
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        assert!(wire.try_recv(0).is_none(), "the sender's own mailbox got a job");
    }

    #[test]
    fn observed_wire_links_each_send_to_its_recv() {
        let rec = Recorder::new(&gpm_obs::ObsConfig::enabled());
        let wire = Wire::new(2, 1, &rec);
        wire.send(0, 1, job(7));
        wire.send(0, 1, job(8));
        assert_eq!(wire.try_recv(1).map(|j| j.matched[0]), Some(7));
        assert_eq!(wire.try_recv(1).map(|j| j.matched[0]), Some(8));
        let spans = rec.spans();
        let sends: Vec<_> = spans.iter().filter(|s| s.kind == SpanKind::PostSend).collect();
        let recvs: Vec<_> = spans.iter().filter(|s| s.kind == SpanKind::PostRecv).collect();
        assert_eq!(sends.len(), 2);
        assert_eq!(recvs.len(), 2);
        for send in &sends {
            assert_ne!(send.link, 0);
            assert_eq!(send.arg, job(7).bytes(), "a send records the bytes it shipped");
            assert!(
                recvs.iter().any(|r| r.link == send.link && r.arg == 0 && r.part == 1),
                "send {} has no matching recv at part 1 from part 0",
                send.link
            );
        }
        assert_ne!(sends[0].link, sends[1].link, "distinct messages share a link");
    }

    #[test]
    fn wire_quiesces_once_every_shipped_job_is_done() {
        let rec = Recorder::disabled();
        let wire = Wire::new(2, 1, &rec);
        assert!(wire.quiescent());
        for i in 0..3 {
            wire.send(0, 1, job(i));
        }
        for _ in 0..3 {
            assert!(!wire.quiescent(), "quiescent with a shipped job not done");
            wire.try_recv(1).expect("a shipped job");
            wire.done();
        }
        assert!(wire.quiescent());
    }

    #[test]
    fn wire_in_flight_count_is_shared_across_threads() {
        let rec = Recorder::disabled();
        let wire = Wire::new(4, 1, &rec);
        for i in 0..100 {
            wire.send(0, i as usize % 4, job(i));
        }
        std::thread::scope(|s| {
            for part in 0..4 {
                let wire = &wire;
                s.spawn(move || {
                    for _ in 0..25 {
                        wire.try_recv(part).expect("25 jobs per part");
                        wire.done();
                    }
                });
            }
        });
        assert!(wire.quiescent());
    }

    #[test]
    fn wire_orderings_survive_a_spawning_stress() {
        // Eight threads drive the Relaxed add / Release done / Acquire
        // read protocol the way CTD workers do: a job may ship a child
        // before it retires, so quiescence must only be observable after
        // every transitively shipped job retired. Each thread publishes
        // a side effect before each `done`; a zero read must see them all.
        const PARTS: usize = 8;
        const UNITS: u64 = 1_000;
        let rec = Recorder::disabled();
        let wire = Wire::new(PARTS, 2, &rec);
        let effects = AtomicU64::new(0);
        for part in 0..PARTS {
            for i in 0..UNITS {
                wire.send(part, part, job(i as VertexId));
            }
        }
        std::thread::scope(|s| {
            for part in 0..PARTS {
                let (wire, effects) = (&wire, &effects);
                s.spawn(move || {
                    while let Some(j) = wire.try_recv(part) {
                        // Every 7th root job ships a child to the next part.
                        if j.level == 0 && j.matched[0] % 7 == 0 {
                            let child = Job { level: 1, ..j.clone() };
                            wire.send(part, (part + 1) % PARTS, child);
                        }
                        effects.fetch_add(1, Ordering::Relaxed);
                        wire.done();
                    }
                });
            }
        });
        // A child shipped to a part whose thread already drained its
        // mailbox is still queued: the count must say so.
        for part in 0..PARTS {
            while wire.try_recv(part).is_some() {
                assert!(!wire.quiescent(), "quiescent with a queued child");
                effects.fetch_add(1, Ordering::Relaxed);
                wire.done();
            }
        }
        assert!(wire.quiescent());
        let children = PARTS as u64 * UNITS.div_ceil(7);
        assert_eq!(effects.load(Ordering::Relaxed), PARTS as u64 * UNITS + children);
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
