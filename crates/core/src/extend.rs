//! The extend (computation) phase: running the plan over the claimable
//! ranges of a chunk.
//!
//! Split out of the per-part coordinator (`runtime.rs`): this module owns
//! everything that executes *inside* a phase — the [`Worker`] claim loop
//! over the phase's [`TaskPool`], single-embedding extension, and where an
//! embedding's edge lists and stored intermediate live ([`Lists`]). The set
//! algebra is the plan's ([`LevelPlan::candidates`]) and the loop nest
//! below the last fetched level is the workspace's one depth-first walker
//! ([`interp::Walk`]), told by [`Lists`] where the data is. Phases are
//! dispatched to the engine's persistent worker pool through the part's
//! [`Gate`](crate::scheduler::Gate); no threads are spawned here.
//!
//! [`LevelPlan::candidates`]: gpm_pattern::plan::LevelPlan::candidates

use crate::chunk::{Chunk, Emb, ListRef, PushOutcome, Resume, StagedChild};
use crate::runtime::{PartCtx, PartRun};
use crate::scheduler::{Task, TaskPool, MINI_BATCH};
use gpm_cluster::Counter;
use gpm_graph::partition::vertex_hash;
use gpm_graph::set_ops::{self, Bits, Side};
use gpm_graph::{Label, VertexId};
use gpm_obs::{Metric, SpanKind};
use gpm_pattern::interp::{self, DataSource, Walk};
use gpm_pattern::MAX_PATTERN_VERTICES;
use parking_lot::Mutex;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

impl PartRun<'_> {
    /// Extend phase: run the plan over the chunk's unprocessed embeddings
    /// until the work is exhausted or the next-level chunk fills. Work is
    /// drained as mini-batch range tasks; multi-threaded phases run on the
    /// persistent pool's parked workers.
    ///
    /// Above the bottom of the stack an embedding is extended by one
    /// level and its children parked in the next chunk, to wait for their
    /// lists. An embedding of the bottom chunk holds every list the rest
    /// of the plan reads, so it is walked to the end of the plan in the
    /// worker's scratch and nothing is parked below it.
    pub(crate) fn extend(&mut self, cur: usize) {
        let t0 = Instant::now();
        let ets = self.obs.start();
        let bottom = cur == self.last;
        let next_len = |levels: &[Chunk]| if bottom { 0 } else { levels[cur + 1].embs.len() };
        let next_before = next_len(&self.levels);

        let start_cursor = self.levels[cur].cursor;
        let old_resumes = std::mem::take(&mut self.levels[cur].resumes);
        let leftovers = std::mem::take(&mut self.levels[cur].leftovers);
        let (read, rest) = self.levels.split_at_mut(cur + 1);
        let read: &[Chunk] = read;
        let next: Option<Mutex<&mut Chunk>> = if bottom {
            None
        } else {
            Some(Mutex::new(rest.first_mut().expect("next level chunk exists")))
        };

        let total = read[cur].embs.len();
        let full = AtomicBool::new(false);
        let new_resumes: Mutex<Vec<Resume>> = Mutex::new(Vec::new());
        let counter = AtomicU64::new(0);
        let held = AtomicU64::new(0);
        let threads = self.ctx.cfg.compute_threads.max(1);

        let pending_work = old_resumes.len()
            + leftovers.iter().map(|&(s, e)| (e - s) as usize).sum::<usize>()
            + total.saturating_sub(start_cursor);
        // A mini-batch is sized for embeddings that cost one extension
        // each. Where more than one plan level runs under an embedding —
        // the walk below the bottom chunk, owned and held children walked
        // in place one chunk above it — it stands for a subtree, and a
        // handful of them (a stolen batch of hub roots) is already a phase
        // worth sharing: such a phase is cut into about eight tasks a
        // worker, however few embeddings that makes a task.
        let subtrees = cur + 1 >= self.last && self.ctx.plan.levels().len() - cur > 1;
        let mini = if subtrees {
            (pending_work / (threads * 8)).clamp(1, MINI_BATCH) as u32
        } else {
            MINI_BATCH as u32
        };
        let worth_sharing = pending_work > MINI_BATCH || (subtrees && pending_work > 1);
        let tasks = TaskPool::new(threads);
        tasks.seed(
            old_resumes.len() as u32,
            &leftovers,
            (start_cursor as u32, total as u32),
            threads as u32,
        );

        {
            let worker = Worker {
                ctx: &self.ctx,
                read,
                cur,
                last: self.last,
                next: &next,
                old_resumes: &old_resumes,
                tasks: &tasks,
                mini,
                full: &full,
                new_resumes: &new_resumes,
                counter: &counter,
                held: &held,
                scratch: &self.workers,
            };
            match &self.ctx.gate {
                Some(gate) if threads > 1 && worth_sharing => {
                    gate.run_phase(threads, &|w| worker.run(w));
                }
                // Small phases (and single-threaded configs) run inline on
                // the coordinator; the pool workers stay parked.
                _ => worker.run(0),
            }
        }

        // Write back scheduling state: paused embeddings plus every range
        // the pool still held unclaimed when the phase ended.
        let mut resumes = new_resumes.into_inner();
        let mut leftover_ranges: Vec<(u32, u32)> = Vec::new();
        let mut overclaim = 0u64;
        for task in tasks.drain() {
            match task {
                Task::Resumes { start, end } => {
                    // An end past the captured resume list would mean a
                    // worker fabricated resume indices. The clamp keeps the
                    // write-back memory-safe, but the bug must not hide:
                    // debug builds assert, release builds bump a counter.
                    debug_assert!(
                        (end as usize) <= old_resumes.len(),
                        "resume task outruns the captured resume list"
                    );
                    let end_c = (end as usize).min(old_resumes.len());
                    let start_c = (start as usize).min(end_c);
                    overclaim += (end as usize - end_c) as u64;
                    resumes.extend_from_slice(&old_resumes[start_c..end_c]);
                }
                Task::Fresh { start, end } => leftover_ranges.push((start, end)),
            }
        }
        if overclaim > 0 {
            self.obs.observe(Metric::ResumeOverclaim, overclaim);
        }
        // End `next`'s mutable borrow of self.levels before re-borrowing.
        #[allow(clippy::drop_non_drop)]
        drop(next);
        let chunk = &mut self.levels[cur];
        chunk.cursor = total;
        leftover_ranges.sort_unstable();
        chunk.leftovers = leftover_ranges;
        chunk.resumes = resumes;
        let grown = next_len(&self.levels).saturating_sub(next_before);
        if !bottom {
            self.obs.observe(Metric::ChunkFanout, grown as u64);
        }
        self.obs.span(SpanKind::Extend, ets, grown as u64);
        self.stats.count += counter.load(Ordering::SeqCst);
        // A held child's list stayed off the wire, as a sharer's does.
        let held = held.into_inner();
        if held > 0 {
            self.ctx.client.scope().add(Counter::Coalesced, held);
            #[cfg(test)]
            self.ctx.pool.held.fetch_add(held, Ordering::Relaxed);
        }
        self.stats.compute += t0.elapsed();
    }
}

/// Shared state of one extend phase; each claimant (pooled worker or the
/// inline coordinator) runs [`Worker::run`] with its worker index.
struct Worker<'a, 'c, 'e> {
    ctx: &'a PartCtx<'e>,
    read: &'a [Chunk],
    cur: usize,
    /// The bottom of the chunk stack (the plan's last fetched level).
    last: usize,
    next: &'a Option<Mutex<&'c mut Chunk>>,
    old_resumes: &'a [Resume],
    tasks: &'a TaskPool,
    mini: u32,
    full: &'a AtomicBool,
    new_resumes: &'a Mutex<Vec<Resume>>,
    counter: &'a AtomicU64,
    /// Children walked on a list their parent's fill holds.
    held: &'a AtomicU64,
    /// The run's per-worker scratch, by worker index.
    scratch: &'a [Mutex<Scratch>],
}

impl Worker<'_, '_, '_> {
    fn stopped(&self) -> bool {
        self.ctx.stop.is_some_and(|s| s.load(Ordering::Relaxed))
    }

    /// Whether the phase must stop claiming: the next-level chunk filled,
    /// or the run was cooperatively cancelled.
    fn halted(&self) -> bool {
        self.full.load(Ordering::Acquire) || self.stopped()
    }

    fn run(&self, w: usize) {
        // Uncontended: a worker index is one thread for the whole phase.
        let mut scratch = self.scratch[w].lock();
        let mut local_count = 0u64;
        'claim: while !self.halted() {
            let Some(task) = self.tasks.claim(w, self.mini) else { break };
            match task {
                // Paused embeddings first: task seeding orders resume
                // ranges ahead of fresh ones in the injector.
                Task::Resumes { start, end } => {
                    for r in start..end {
                        if self.halted() {
                            self.tasks.give_back(w, Task::Resumes { start: r, end });
                            break 'claim;
                        }
                        let Resume { emb, cand_offset } = self.old_resumes[r as usize];
                        if let Some(paused_at) =
                            self.extend_one(emb, cand_offset, &mut scratch, &mut local_count)
                        {
                            self.new_resumes.lock().push(Resume { emb, cand_offset: paused_at });
                            self.full.store(true, Ordering::Release);
                            self.tasks.give_back(w, Task::Resumes { start: r + 1, end });
                            break 'claim;
                        }
                    }
                }
                Task::Fresh { start, end } => {
                    for i in start..end {
                        if self.halted() {
                            self.tasks.give_back(w, Task::Fresh { start: i, end });
                            break 'claim;
                        }
                        if let Some(paused_at) =
                            self.extend_one(i, 0, &mut scratch, &mut local_count)
                        {
                            self.new_resumes.lock().push(Resume { emb: i, cand_offset: paused_at });
                            self.full.store(true, Ordering::Release);
                            self.tasks.give_back(w, Task::Fresh { start: i + 1, end });
                            break 'claim;
                        }
                    }
                }
            }
        }
        self.counter.fetch_add(local_count, Ordering::Relaxed);
        self.held.fetch_add(std::mem::take(&mut scratch.held), Ordering::Relaxed);
    }

    /// Extends one embedding from raw-candidate offset `from`. Returns
    /// `Some(offset)` if the next chunk filled before all candidates were
    /// consumed.
    fn extend_one(
        &self,
        emb: u32,
        from: u32,
        scratch: &mut Scratch,
        local_count: &mut u64,
    ) -> Option<u32> {
        let (ctx, cur) = (self.ctx, self.cur);
        let plan = ctx.plan;
        let mut lists = Lists {
            ctx,
            read: self.read,
            chain: [0; MAX_PATTERN_VERTICES],
            depth: cur,
            child: Cell::new(None),
        };
        let mut matched = [0 as VertexId; MAX_PATTERN_VERTICES];
        ancestor_chain(self.read, cur, emb, &mut matched, &mut lists.chain);
        // The intermediate the level above stored for this embedding, in
        // this chunk's arena (vertical computation reuse, §5.1).
        let chunk = &self.read[cur];
        let stored = chunk.embs[emb as usize].inter.map_or(&[][..], |span| chunk.inter(span));
        debug_assert!(
            cur == 0
                || plan.levels()[cur - 1].store_intermediate
                    == chunk.embs[emb as usize].inter.is_some(),
            "an intermediate is stored exactly where the plan says one is read"
        );

        let (bufs, tmp) = scratch.bufs.from_level(cur, plan.levels().len());
        if cur == self.last {
            debug_assert_eq!(from, 0, "a walked embedding never pauses");
            *local_count += self.walk(&lists, matched, |walk| {
                walk.descend(cur, stored, bufs, tmp);
            });
            return None;
        }

        let lp = &plan.levels()[cur];
        let (buf, deeper) = bufs.split_first_mut().expect("one buffer per remaining level");
        // The raw set is a window of the list it is cut from wherever the
        // level computes nothing; a resumed embedding gets the same
        // window, so `from` indexes it as it did before the pause.
        let raw = lp.candidates(&matched, |p| lists.side(p, matched[p]), stored, tmp, buf);
        // A child whose list has to be fetched is parked in the next
        // chunk. One with nothing to wait for — its list is this part's,
        // or held: fetched or cached for its parent's own fill, cut no
        // higher than the child's bound — is, when the next chunk is the
        // bottom of the stack, walked here, with this level's raw set (in
        // scratch, or where its list lives) as its stored intermediate.
        let in_place = cur + 1 == self.last;
        let holds = in_place && ctx.cfg.horizontal_sharing;
        scratch.parked.clear();
        scratch.walked.clear();
        for (i, &cand) in raw.iter().enumerate().skip(from as usize) {
            if interp::passes_residual(&lists, lp, &matched, cand) {
                let child = StagedChild { vertex: cand, raw_index: i as u32, held: None };
                if in_place && ctx.part.edge_list(cand).is_some() {
                    scratch.walked.push(child);
                } else if let Some(j) = holds.then(|| self.holder(&matched, cand)).flatten() {
                    scratch.walked.push(StagedChild { held: Some(j), ..child });
                } else {
                    scratch.parked.push(child);
                }
            }
        }
        // Park first: where the push stops is where this embedding
        // resumes, so only the walked children before that point are
        // walked now. Those past it are staged again on resume, with the
        // parked ones they sit between — each child is handled once.
        let paused_at = if scratch.parked.is_empty() {
            None
        } else {
            let inter = lp.store_intermediate.then_some(raw);
            // A child waiting for its list waits for the part the plan
            // reads of it.
            let bound = plan.fetch_bound(cur + 1);
            let list = |child: VertexId| {
                if lp.new_vertex_active {
                    ListRef::Pending(bound.above(&matched[..=cur], child))
                } else {
                    ListRef::None
                }
            };
            let mut next =
                self.next.as_ref().expect("a level above the bottom has a next chunk").lock();
            match next.try_push_children(emb, &scratch.parked, list, inter) {
                PushOutcome::All => None,
                PushOutcome::Partial(n) => Some(scratch.parked[n].raw_index),
            }
        };
        let walk_now = paused_at.map_or(scratch.walked.len(), |at| {
            scratch.walked.partition_point(|child| child.raw_index < at)
        });
        if walk_now > 0 {
            let walked = &scratch.walked[..walk_now];
            scratch.held += walked.iter().filter(|child| child.held.is_some()).count() as u64;
            *local_count += self.walk(&lists, matched, |walk| {
                for child in walked {
                    lists.child.set(child.held);
                    walk.matched[cur + 1] = child.vertex;
                    if !walk.descend(cur + 1, raw, deeper, tmp) {
                        break;
                    }
                }
            });
        }
        paused_at
    }

    /// The embedding of the parent's fill holding `child`'s list, cut no
    /// higher than the child's own bound (`None`, whole, is the lowest).
    fn holder(&self, matched: &[VertexId], child: VertexId) -> Option<u32> {
        let chunk = &self.read[self.cur];
        let (j, above) = chunk.share.holder(&chunk.embs, child, vertex_hash(child))?;
        let wants = self.ctx.plan.fetch_bound(self.cur + 1).above(&matched[..=self.cur], child);
        (above <= wants).then_some(j)
    }

    /// Runs `body` on a depth-first walk below the prefix `matched`, and
    /// returns how many embeddings it found. Cancellation is seen between
    /// embeddings, however long one parked embedding's walk is.
    fn walk<'a>(
        &self,
        lists: &'a Lists<'a, '_>,
        matched: [VertexId; MAX_PATTERN_VERTICES],
        body: impl FnOnce(&mut Walk<'_, Lists<'a, '_>>),
    ) -> u64 {
        let plan = self.ctx.plan;
        let mut deliver = self.ctx.visitor.map(|visit| {
            move |m: &[VertexId]| {
                visit(m);
                !self.stopped()
            }
        });
        let mut walk = match &mut deliver {
            None => Walk::counting(plan, lists),
            Some(deliver) => Walk::visiting(plan, lists, deliver),
        };
        walk.matched = matched;
        body(&mut walk);
        walk.count
    }
}

/// Per-worker scratch buffers, kept with the run's pooled state.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// One candidate buffer per plan level, plus set-algebra scratch.
    bufs: interp::Buffers,
    /// Children of the embedding being extended that wait for a fetch.
    parked: Vec<StagedChild>,
    /// Its children walked in place: owned, or held by the parent's fill.
    walked: Vec<StagedChild>,
    /// Held children walked since the phase began.
    held: u64,
}

/// Where an embedding's data lives (vertical data reuse, §5.1): each
/// ancestor's list where resolve put it, reached through the parent chain
/// walked once by [`ancestor_chain`]. A position below the parked
/// embedding is the child walked in place: owned, or held in its chunk.
///
/// A hot list's bitmap comes from whichever of the three places a list
/// lives holds it: the part, for its own lists; the cache entry the list
/// was admitted as; or the chunk whose fill fetched it. The cache and the
/// fill ask the hot rule of the window they hold, cut above its bound, so
/// the walk reads their choice off a held list's home; only an owned list
/// costs it a compare of the length.
struct Lists<'a, 'e> {
    ctx: &'a PartCtx<'e>,
    read: &'a [Chunk],
    /// `chain[p]` = index, in chunk `p`, of the ancestor matched there.
    chain: [u32; MAX_PATTERN_VERTICES],
    /// Position of the parked embedding's own vertex.
    depth: usize,
    /// The embedding of chunk `depth` holding the list of the child
    /// walked in place; `None` while that list is this part's.
    child: Cell<Option<u32>>,
}

impl DataSource for Lists<'_, '_> {
    #[inline(always)]
    fn side(&self, pos: usize, v: VertexId) -> Side<'_> {
        let side = match self.held(pos) {
            Some((chunk, e)) => resolve_side(self.ctx, chunk, e),
            None => owned_side(self.ctx, v),
        };
        #[cfg(test)]
        if side.bits.is_some() {
            self.ctx.pool.tally_bitmap(self.home(pos));
        }
        side
    }

    #[inline]
    fn label(&self, v: VertexId) -> Option<Label> {
        self.ctx.label(v)
    }
}

impl Lists<'_, '_> {
    /// The chunk and the embedding that hold the list matched at `pos`:
    /// an ancestor, or below the parked embedding the child's holder;
    /// `None` where a child walked in place reads the part's list.
    #[inline]
    fn held(&self, pos: usize) -> Option<(&Chunk, &Emb)> {
        let (level, e) = if pos <= self.depth {
            (pos, self.chain[pos])
        } else {
            (self.depth, self.child.get()?)
        };
        let chunk = &self.read[level];
        Some((chunk, &chunk.embs[e as usize]))
    }

    /// Where the list at `pos` lives: 0 owned, 1 cached, 2 fetched.
    #[cfg(test)]
    fn home(&self, pos: usize) -> usize {
        let Some((chunk, mut e)) = self.held(pos) else { return 0 };
        if let ListRef::Peer(j) = e.list {
            e = &chunk.embs[j as usize];
        }
        match e.list {
            ListRef::Local => 0,
            ListRef::Cached(_) => 1,
            ListRef::Fetched { .. } | ListRef::Hot(_) => 2,
            other => unreachable!("a list handed out from {other:?}"),
        }
    }
}

/// Walks `emb`'s parent chain once — vertical data reuse by index
/// chasing (§5.1) — recording each level's matched vertex and the index of
/// the ancestor embedding that holds its edge list.
fn ancestor_chain(
    read: &[Chunk],
    level: usize,
    emb: u32,
    matched: &mut [VertexId],
    chain: &mut [u32],
) {
    let (mut l, mut e) = (level, emb);
    loop {
        let ancestor = &read[l].embs[e as usize];
        matched[l] = ancestor.vertex;
        chain[l] = e;
        if l == 0 {
            break;
        }
        e = ancestor.parent;
        l -= 1;
    }
}

/// The edge list `e` (an embedding of `chunk`) was resolved to, with the
/// bitmap the place it lives keeps: the part for an owned list, the cache
/// entry, or the chunk whose fill fetched it (a peer reads its
/// claimant's).
#[inline]
fn resolve_side<'a>(ctx: &'a PartCtx<'_>, chunk: &'a Chunk, e: &Emb) -> Side<'a> {
    let e = match e.list {
        ListRef::Peer(j) => &chunk.embs[j as usize],
        _ => e,
    };
    match e.list {
        ListRef::Local => owned_side(ctx, e.vertex),
        ListRef::Cached(pin) => chunk.pinned(pin),
        ListRef::Fetched { seg, start, len } => Side::plain(chunk.fetched(seg, start, len)),
        ListRef::Hot(i) => chunk.hot_list(i),
        ListRef::Peer(_) => panic!("peer chains are length 1"),
        ListRef::Pending(_) => panic!("extension reached an unresolved edge list"),
        ListRef::None => panic!("extension requested an inactive vertex's list"),
    }
}

/// This part's list of `v`, with its bitmap if it is hot: a whole list, so
/// a cold one costs a compare of its length and no lookup.
#[inline]
fn owned_side<'a>(ctx: &'a PartCtx<'_>, v: VertexId) -> Side<'a> {
    let list = ctx.part.edge_list(v).expect("an owned list is this part's");
    let hot = set_ops::is_hot(list.len(), None, ctx.part.vertex_count());
    Side { list, bits: if hot { owned_bits(ctx, v) } else { None } }
}

/// Out of line: asked for hot lists only, and a walk's per-list path must
/// stay small enough to inline.
#[inline(never)]
fn owned_bits<'a>(ctx: &'a PartCtx<'_>, v: VertexId) -> Option<Bits<'a>> {
    ctx.part.bits(v)
}

#[cfg(test)]
mod tests {
    use crate::engine::{Engine, EngineConfig};
    use crate::test_support::ranked_visits;
    use gpm_graph::gen;
    use gpm_graph::partition::PartitionedGraph;
    use gpm_graph::VertexId;
    use gpm_pattern::order::OrderChoice;
    use gpm_pattern::plan::{MatchingPlan, PlanOptions};
    use gpm_pattern::{interp, oracle, Pattern};
    use parking_lot::Mutex;
    use std::sync::atomic::Ordering;

    fn plan(p: &Pattern) -> MatchingPlan {
        MatchingPlan::compile(p, &PlanOptions::automine()).unwrap()
    }

    /// Every embedding the engine visits, sorted.
    fn visited(engine: &Engine, plan: &MatchingPlan) -> (u64, Vec<Vec<VertexId>>) {
        let seen = Mutex::new(Vec::new());
        let run = engine.enumerate(plan, |m| seen.lock().push(m.to_vec()));
        let mut seen = seen.into_inner();
        seen.sort_unstable();
        (run.count, seen)
    }

    #[test]
    fn a_parent_pausing_among_owned_and_remote_children_yields_each_once() {
        // K12 on two parts, triangles, three embeddings to a chunk: the
        // stack is roots + one fetched level, so a root's children are
        // split — owned ones walked in place, remote ones parked — and
        // parking stops every third child. The root below has remote
        // children to pause on and owned children on both sides of a
        // pause; a child walked both before the pause and after the
        // resume, or by neither, shows in the multiset.
        let g = gen::complete(12);
        let pg = PartitionedGraph::new(&g, 2, 1);
        let tri = plan(&Pattern::triangle());
        assert_eq!(tri.last_fetched_level(), 1);
        let mixed = g.vertices().any(|root| {
            let owner = pg.owner(root);
            let children: Vec<bool> = g
                .neighbors(root)
                .iter()
                .filter(|&&c| interp::passes_filters(&tri.levels()[0], &[root], c, |v| g.label(v)))
                .map(|&c| pg.owner(c) == owner)
                .collect();
            let remote = children.iter().filter(|owned| !**owned).count();
            let first_remote = children.iter().position(|owned| !owned);
            let last_remote = children.iter().rposition(|owned| !owned);
            remote > 3
                && children[..first_remote.unwrap()].iter().any(|&owned| owned)
                && children[last_remote.unwrap()..].iter().any(|&owned| owned)
        });
        assert!(mixed, "no root with owned children around more than a chunk of remote ones");

        let want = ranked_visits(&g, &tri);
        for threads in [1, 2] {
            let engine = Engine::new(
                PartitionedGraph::new(&g, 2, 1),
                EngineConfig { chunk_capacity: 3, compute_threads: threads, ..Default::default() },
            );
            assert_eq!(engine.count(&tri).count, 220, "{threads} thread(s)");
            let (count, seen) = visited(&engine, &tri);
            assert_eq!(count, 220, "{threads} thread(s)");
            assert_eq!(seen, want, "{threads} thread(s)");
            engine.shutdown();
        }
    }

    #[test]
    fn a_window_borrowed_as_candidate_set_pauses_resumes_and_is_stored_exactly() {
        // Where a level computes nothing its candidate set is a window of
        // the list it is cut from — an ancestor's, in a chunk, or the
        // stored intermediate in the chunk's arena — not a buffer. Three
        // embeddings to a chunk pause every parent in the middle of such a
        // window, so it resumes at an index into a window cut again; the
        // children parked from it get the window as their intermediate,
        // and those walked in place read it where it lies.
        // The 4-cycle runs in id order, whose v2 comes from v1's window.
        let g = gen::barabasi_albert(70, 4, 23);
        let cases = [
            (Pattern::path(4), OrderChoice::Automine, "C1:"),
            (Pattern::star(4), OrderChoice::Automine, "C2 clamped"),
            (Pattern::cycle(4), OrderChoice::Given(vec![0, 1, 2, 3]), "N(v1) clamped"),
            (Pattern::house(), OrderChoice::Automine, "N(v1):"),
        ];
        for (p, order, window_level) in cases {
            let plan = MatchingPlan::compile(&p, &PlanOptions { order, ..PlanOptions::automine() })
                .unwrap();
            assert!(plan.describe().contains(&format!("in {window_level}")), "{}", plan.describe());
            assert!(plan.levels().iter().all(|l| l.plain), "{p}");
            let expect = oracle::count_subgraphs(&g, &p, false);
            let want = ranked_visits(&g, &plan);
            assert_eq!(want.len() as u64, expect, "{p}");
            for chunk_capacity in [3, 64] {
                for compute_threads in [1, 2] {
                    let what = format!("{p}, chunk {chunk_capacity}, {compute_threads} thread(s)");
                    let engine = Engine::new(
                        PartitionedGraph::new(&g, 2, 1),
                        EngineConfig { chunk_capacity, compute_threads, ..Default::default() },
                    );
                    assert_eq!(engine.count(&plan).count, expect, "{what}");
                    let (count, seen) = visited(&engine, &plan);
                    assert_eq!(count, expect, "{what}");
                    assert!(seen == want, "{what}: the visited multiset differs");
                    engine.shutdown();
                }
            }
        }
    }

    #[test]
    fn held_children_are_walked_in_place_exactly() {
        // A child whose list its parent's own fill fetched is walked on
        // that list, not parked, wherever the share table is on. Over the
        // service patterns and the 4- and 5-cliques (whose bounds cut
        // every fetched list), on a BA and an R-MAT graph, 2 and 3 parts,
        // chunks of 3 (every parent pauses among walked and parked
        // children), 64 and the default, one and two compute threads, with
        // and without the share table, no cache and a static one from
        // degree 16: the count is the oracle's, the visited multiset the
        // interpreter's, and children were held exactly where the table
        // was on.
        use crate::cache::CacheConfig;
        let graphs = [gen::barabasi_albert(40, 3, 29), gen::rmat(6, 5, (0.57, 0.19, 0.19), 3)];
        let patterns = [
            Pattern::triangle(),
            Pattern::clique(4),
            Pattern::path(4),
            Pattern::cycle(4),
            Pattern::star(4),
            Pattern::diamond(),
            Pattern::house(),
            Pattern::clique(5),
        ];
        for g in &graphs {
            let plans: Vec<_> = patterns
                .iter()
                .map(|p| {
                    let plan = plan(p);
                    let want = ranked_visits(g, &plan);
                    assert_eq!(want.len() as u64, oracle::count_subgraphs(g, p, false), "{p}");
                    (plan, want)
                })
                .collect();
            for parts in [2, 3] {
                for chunk_capacity in [3, 64, EngineConfig::default().chunk_capacity] {
                    for compute_threads in [1, 2] {
                        for horizontal_sharing in [true, false] {
                            for cache in [
                                CacheConfig::disabled(),
                                CacheConfig { degree_threshold: 16, ..CacheConfig::default() },
                            ] {
                                let what = format!(
                                    "{} vertices, {parts} parts, chunk {chunk_capacity}, \
                                     {compute_threads} thread(s), sharing {horizontal_sharing}, \
                                     {:?}",
                                    g.vertex_count(),
                                    cache.policy
                                );
                                let engine = Engine::new(
                                    PartitionedGraph::new(g, parts, 1),
                                    EngineConfig {
                                        chunk_capacity,
                                        compute_threads,
                                        horizontal_sharing,
                                        cache,
                                        ..Default::default()
                                    },
                                );
                                for (plan, want) in &plans {
                                    let what = format!("{what}\n{}", plan.describe());
                                    let expect = want.len() as u64;
                                    assert_eq!(engine.count(plan).count, expect, "{what}");
                                    let (count, seen) = visited(&engine, plan);
                                    assert_eq!(count, expect, "{what}");
                                    assert!(seen == *want, "visited multiset differs: {what}");
                                }
                                let held: u64 = engine
                                    .run_pools
                                    .iter()
                                    .map(|pool| pool.held.load(Ordering::Relaxed))
                                    .sum();
                                assert_eq!(held > 0, horizontal_sharing, "{held} held: {what}");
                                engine.shutdown();
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_star_parks_only_its_roots_and_fetches_nothing() {
        // Every level of a star reads the centre's list and no other: the
        // stack is the root chunk alone, and an owned root needs no fetch.
        let g = gen::barabasi_albert(300, 4, 7);
        let star = plan(&Pattern::star(4));
        assert_eq!(star.last_fetched_level(), 0);
        let engine = Engine::new(
            PartitionedGraph::new(&g, 2, 1),
            EngineConfig { chunk_capacity: 64, ..EngineConfig::default() },
        );
        let run = engine.count(&star);
        assert_eq!(run.count, oracle::count_subgraphs(&g, &Pattern::star(4), false));
        assert_eq!((run.traffic.requests, run.traffic.network_bytes), (0, 0));
        for part in &run.per_part {
            assert!(part.peak_embeddings <= 64, "peak {} > one root batch", part.peak_embeddings);
        }
        // Visited, not only counted: the walk hands over whole tuples.
        let (count, seen) = visited(&engine, &star);
        assert_eq!(count, run.count);
        let want = ranked_visits(&g, &star);
        assert_eq!(seen, want);
        engine.shutdown();
    }
}
