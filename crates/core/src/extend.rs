//! The extend (computation) phase: running a level's extension program
//! over the claimable ranges of a chunk.
//!
//! Split out of the per-part coordinator (`runtime.rs`): this module owns
//! everything that executes *inside* a phase — the [`Worker`] claim loop
//! over the phase's [`TaskPool`], single-embedding extension, and where an
//! embedding's edge lists and stored intermediate live; the set algebra
//! itself is the plan's ([`LevelPlan::raw_candidates`],
//! [`LevelPlan::count_candidates`]). Phases are dispatched to
//! the engine's persistent worker pool through the part's
//! [`Gate`](crate::scheduler::Gate); no threads are spawned here.

use crate::chunk::{Chunk, Emb, ListRef, PushOutcome, Resume, StagedChild};
use crate::runtime::{PartCtx, PartRun};
use crate::scheduler::{Task, TaskPool};
use gpm_graph::VertexId;
use gpm_obs::{Metric, SpanKind};
use gpm_pattern::interp;
use gpm_pattern::plan::{LevelPlan, PairMode};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

impl PartRun<'_> {
    /// Extend phase: run the level's extension program over the chunk's
    /// unprocessed embeddings until the work is exhausted or the
    /// next-level chunk fills. Work is drained as mini-batch range tasks;
    /// multi-threaded phases run on the persistent pool's parked workers.
    pub(crate) fn extend(&mut self, cur: usize) {
        let t0 = Instant::now();
        let ets = self.obs.start();
        let next_before = self.levels.get(cur + 1).map_or(0, |c| c.embs.len());
        let plan = self.ctx.plan;
        let lp = &plan.levels()[cur];
        let terminal = cur + 1 == plan.levels().len();
        // IEP pair shortcut (counting only): the second-to-last level
        // counts pairs instead of materializing the final two loops.
        let pair = if self.ctx.visitor.is_none() && cur + 2 == plan.levels().len() {
            plan.pair_count_mode()
        } else {
            None
        };

        let start_cursor = self.levels[cur].cursor;
        let old_resumes = std::mem::take(&mut self.levels[cur].resumes);
        let leftovers = std::mem::take(&mut self.levels[cur].leftovers);
        let (read, rest) = self.levels.split_at_mut(cur + 1);
        let read: &[Chunk] = read;
        let next: Option<Mutex<&mut Chunk>> = if terminal {
            None
        } else {
            Some(Mutex::new(rest.first_mut().expect("next level chunk exists")))
        };

        let total = read[cur].embs.len();
        let full = AtomicBool::new(false);
        let new_resumes: Mutex<Vec<Resume>> = Mutex::new(Vec::new());
        let counter = AtomicU64::new(0);
        let threads = self.ctx.cfg.compute_threads.max(1);
        let mini = self.ctx.cfg.mini_batch.max(1) as u32;

        let pending_work = old_resumes.len()
            + leftovers.iter().map(|&(s, e)| (e - s) as usize).sum::<usize>()
            + total.saturating_sub(start_cursor);
        let tasks = TaskPool::new(threads, Arc::clone(&self.ctx.queue_depth));
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
                lp,
                terminal,
                pair,
                next: &next,
                old_resumes: &old_resumes,
                tasks: &tasks,
                mini,
                full: &full,
                new_resumes: &new_resumes,
                counter: &counter,
            };
            match &self.ctx.gate {
                Some(gate) if threads > 1 && pending_work > self.ctx.cfg.mini_batch => {
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
        let grown =
            self.levels.get(cur + 1).map_or(0, |c| c.embs.len()).saturating_sub(next_before);
        if !terminal {
            self.obs.observe(Metric::ChunkFanout, grown as u64);
        }
        self.obs.span(SpanKind::Extend, ets, grown as u64);
        self.count += counter.load(Ordering::SeqCst);
        self.compute += t0.elapsed();
    }
}

/// Shared state of one extend phase; each claimant (pooled worker or the
/// inline coordinator) runs [`Worker::run`] with its worker index.
struct Worker<'a, 'c, 'e> {
    ctx: &'a PartCtx<'e>,
    read: &'a [Chunk],
    cur: usize,
    lp: &'a LevelPlan,
    terminal: bool,
    pair: Option<PairMode>,
    next: &'a Option<Mutex<&'c mut Chunk>>,
    old_resumes: &'a [Resume],
    tasks: &'a TaskPool,
    mini: u32,
    full: &'a AtomicBool,
    new_resumes: &'a Mutex<Vec<Resume>>,
    counter: &'a AtomicU64,
}

impl Worker<'_, '_, '_> {
    /// Whether the phase must stop claiming: the next-level chunk filled,
    /// or the run was cooperatively cancelled.
    fn halted(&self) -> bool {
        self.full.load(Ordering::Acquire)
            || self.ctx.stop.is_some_and(|s| s.load(Ordering::Relaxed))
    }

    fn run(&self, w: usize) {
        let mut scratch = Scratch::default();
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
        let ctx = self.ctx;
        let lp = self.lp;
        let mut matched = [0 as VertexId; gpm_pattern::MAX_PATTERN_VERTICES];
        let mut chain = [0u32; gpm_pattern::MAX_PATTERN_VERTICES];
        ancestor_chain(self.read, self.cur, emb, &mut matched, &mut chain);

        // Where this embedding's data lives (vertical reuse, §5.1): each
        // ancestor's list where resolve put it, reached through the chain
        // walked once above; the intermediate in this chunk's arena.
        let list_at = |pos: usize| {
            let chunk = &self.read[pos];
            resolve_ref(ctx, chunk, &chunk.embs[chain[pos] as usize])
        };
        let stored = || {
            let chunk = &self.read[self.cur];
            let span = chunk.embs[emb as usize].inter;
            chunk.inter(span.expect("plan guarantees a stored intermediate"))
        };

        // Counting without a visitor never needs the candidates themselves.
        if ctx.visitor.is_none() && (self.terminal || self.pair.is_some()) {
            debug_assert_eq!(from, 0, "counted levels never pause");
            let passes = |c| passes_filters(ctx, lp, &matched, c);
            let Scratch { raw, tmp, .. } = scratch;
            let k = lp.count_candidates(&matched, list_at, stored, passes, tmp, raw);
            *local_count += self.pair.map_or(k, |mode| interp::pair_contribution(k, mode));
            return None;
        }

        lp.raw_candidates(&matched, list_at, stored, &mut scratch.tmp, &mut scratch.raw);

        if self.terminal {
            debug_assert_eq!(from, 0, "terminal levels never pause");
            let visit = ctx.visitor.expect("terminal levels without a visitor are counted");
            let mut tuple = [0 as VertexId; gpm_pattern::MAX_PATTERN_VERTICES];
            tuple[..=self.cur].copy_from_slice(&matched[..=self.cur]);
            for &cand in &scratch.raw {
                if passes_filters(ctx, lp, &matched, cand) {
                    *local_count += 1;
                    tuple[self.cur + 1] = cand;
                    visit(&tuple[..self.cur + 2]);
                }
            }
            return None;
        }

        scratch.staged.clear();
        for (i, &cand) in scratch.raw.iter().enumerate().skip(from as usize) {
            if passes_filters(ctx, lp, &matched, cand) {
                scratch.staged.push(StagedChild { vertex: cand, raw_index: i as u32 });
            }
        }
        if scratch.staged.is_empty() {
            return None;
        }
        let inter: Option<&[VertexId]> =
            if lp.store_intermediate { Some(&scratch.raw) } else { None };
        let mut next = self.next.as_ref().expect("non-terminal extension has a next chunk").lock();
        match next.try_push_children(emb, &scratch.staged, lp.new_vertex_active, inter) {
            PushOutcome::All => None,
            PushOutcome::Partial(n) => Some(scratch.staged[n].raw_index),
        }
    }
}

/// Per-thread scratch buffers.
#[derive(Default)]
struct Scratch {
    raw: Vec<VertexId>,
    tmp: Vec<VertexId>,
    staged: Vec<StagedChild>,
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

/// The edge list `e` (an embedding of `chunk`) was resolved to.
fn resolve_ref<'a>(ctx: &'a PartCtx<'_>, chunk: &'a Chunk, e: &Emb) -> &'a [VertexId] {
    match e.list {
        ListRef::Local => ctx.part.edge_list(e.vertex).expect("local vertex owned by this part"),
        ListRef::Cached(pin) => chunk.pinned(pin),
        ListRef::Fetched { start, len } => chunk.fetched(start, len),
        ListRef::Peer(j) => {
            let peer = &chunk.embs[j as usize];
            debug_assert!(!matches!(peer.list, ListRef::Peer(_)), "peer chains are length 1");
            resolve_ref(ctx, chunk, peer)
        }
        ListRef::Pending => panic!("extension reached an unresolved edge list"),
        ListRef::None => panic!("extension requested an inactive vertex's list"),
    }
}

/// Order/injectivity/label filters for one candidate.
#[inline]
fn passes_filters(ctx: &PartCtx<'_>, lp: &LevelPlan, matched: &[VertexId], cand: VertexId) -> bool {
    for &p in &lp.lower {
        if cand <= matched[p] {
            return false;
        }
    }
    for &p in &lp.upper {
        if cand >= matched[p] {
            return false;
        }
    }
    for &p in &lp.distinct {
        if cand == matched[p] {
            return false;
        }
    }
    if let Some(required) = lp.label {
        if ctx.label(cand) != Some(required) {
            return false;
        }
    }
    true
}
