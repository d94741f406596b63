//! Per-part coordination: the BFS-DFS hybrid loop with its resolve
//! (communication) phase, root seeding from the cross-part ledger, and
//! donation of never-started level-0 work to starving parts.
//!
//! Each part (machine × socket) runs [`run_part`] independently. The loop
//! keeps a stack of per-level [`Chunk`]s: the deepest chunk with
//! unprocessed embeddings is always processed next (DFS over chunks), and
//! each chunk's embeddings are extended breadth-first until the next
//! level's chunk fills (§4.2). A chunk exists to batch the fetches of
//! the embeddings parked in it, so the stack ends at the plan's last
//! fetched level; below it extension is depth-first (see
//! [`crate::extend`]). Before extension, a chunk's unresolved edge lists
//! are fetched in circulant owner order (§4.3): the coordinator submits
//! the round's requests itself — the fabric's `fetch_async` does not wait
//! for the transfer — and integrates the replies in submission order
//! while the later ones are in flight.
//!
//! The coordinator talks to the root ledger once per batch: the claim of
//! the next batch carries the retirement of the finished one, and its
//! reply carries the status an idle or donating part needs.
//!
//! The compute half of the phase lives in [`crate::extend`]; the worker
//! pool and task model live in [`crate::scheduler`], the stealing ledger's
//! typed operations in [`crate::control`].

use crate::cache::SharedCache;
use crate::chunk::{Chunk, Emb, ListRef, NO_PARENT};
use crate::control::ControlPlane;
use crate::engine::EngineConfig;
use crate::extend::Scratch;
use crate::scheduler::{Gate, LiveQueries, MINI_BATCH};
use crate::stats::PartStats;
use gpm_cluster::{ClaimSource, Counter, EdgeListClient, FetchError, PendingFetch};
use gpm_graph::partition::{vertex_hash, GraphPart};
use gpm_graph::{Label, VertexId};
use gpm_obs::{ObsHandle, QueryProgress, Recorder, SpanKind};
use gpm_pattern::plan::MatchingPlan;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Embedding visitor used by `Engine::enumerate`.
pub(crate) type Visitor<'a> = &'a (dyn Fn(&[VertexId]) + Sync);

/// Everything a part needs to run one plan.
pub(crate) struct PartCtx<'e> {
    pub part: Arc<GraphPart>,
    pub labels: Option<Arc<Vec<Label>>>,
    pub client: EdgeListClient,
    pub cache: Arc<SharedCache>,
    pub plan: &'e MatchingPlan,
    pub cfg: &'e EngineConfig,
    pub my_part: usize,
    pub part_count: usize,
    pub owner: gpm_graph::partition::OwnerMap,
    pub visitor: Option<Visitor<'e>>,
    /// Cooperative cancellation: set by `Engine::enumerate_until` when the
    /// caller has seen enough embeddings. Checked between scheduling steps
    /// and work claims, so some in-flight extensions may still complete.
    pub stop: Option<&'e AtomicBool>,
    /// The engine's observability recorder; the part coordinator buffers
    /// its spans in a thread-local [`ObsHandle`] made from this.
    pub obs: Arc<Recorder>,
    /// Run-scoped control plane all parts claim their seed batches from
    /// (over the carrier `EngineConfig::control` picks).
    pub ledger: Arc<ControlPlane>,
    /// This part's gate into the engine's persistent worker pool; `None`
    /// for single-threaded configs, which extend inline.
    pub gate: Option<Arc<Gate>>,
    /// The engine's live queries; root claims are paced against them
    /// (never truncated), and every claim recorded through them wakes
    /// paced peers.
    pub live: &'e LiveQueries,
    /// This query's fairness quantum: how far (in claimed roots) it may
    /// race ahead of the least-served active query before pacing.
    pub root_budget: u64,
    /// This query's progress tracker, fed on every claimed batch and
    /// every batch retirement — also the run's heartbeat: the engine's
    /// stall watchdog fires an incident bundle when it freezes.
    pub progress: Arc<QueryProgress>,
    /// Where this part's runs take their working state from and return
    /// it to.
    pub pool: &'e StatePool,
}

impl PartCtx<'_> {
    #[inline]
    pub(crate) fn label(&self, v: VertexId) -> Option<Label> {
        self.labels.as_ref().map(|l| l[v as usize])
    }
}

/// Runs the whole plan on one part, returning its statistics, or the
/// first fetch failure encountered.
pub(crate) fn run_part(ctx: PartCtx<'_>) -> Result<PartStats, FetchError> {
    PartRun::new(ctx).run()
}

/// What a run on one part works in: the chunk stack with its share
/// tables and arenas, the resolve buckets, and one extend scratch per
/// worker — everything that grows to a working size and is then only
/// overwritten.
#[derive(Debug, Default)]
pub(crate) struct RunState {
    levels: Vec<Chunk>,
    scratch: ResolveScratch,
    workers: Vec<Mutex<Scratch>>,
}

/// One part's idle [`RunState`]s. A run takes one (or starts an empty
/// one) and hands it back cleared when it ends, however it ends, so a
/// query on a warm engine grows nothing. Never holds more than were in
/// use at once on this part.
#[derive(Debug, Default)]
pub(crate) struct StatePool {
    idle: Mutex<Vec<RunState>>,
    /// Bitmaps the part's walks were handed, by where the list lives:
    /// owned, cached, fetched.
    #[cfg(test)]
    bitmaps: [std::sync::atomic::AtomicU64; 3],
    /// Children the part's walks read from a list their parent's fill held.
    #[cfg(test)]
    pub(crate) held: std::sync::atomic::AtomicU64,
}

impl StatePool {
    /// Drops every idle state.
    pub(crate) fn release(&self) {
        self.idle.lock().clear();
    }

    /// Idle states held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.idle.lock().len()
    }

    #[cfg(test)]
    pub(crate) fn tally_bitmap(&self, home: usize) {
        self.bitmaps[home].fetch_add(1, Ordering::Relaxed);
    }

    /// How many bitmaps the part's walks were handed: owned, cached,
    /// fetched.
    #[cfg(test)]
    pub(crate) fn bitmaps_handed(&self) -> [u64; 3] {
        self.bitmaps.each_ref().map(|n| n.load(Ordering::Relaxed))
    }
}

pub(crate) struct PartRun<'e> {
    pub(crate) ctx: PartCtx<'e>,
    /// The chunk stack, `0..=last` in use. A pooled stack that served a
    /// deeper plan keeps its spare chunks, empty.
    pub(crate) levels: Vec<Chunk>,
    /// The bottom of the stack: the plan's last fetched level.
    pub(crate) last: usize,
    /// Extend scratch, one per worker index.
    pub(crate) workers: Vec<Mutex<Scratch>>,
    /// The part's count, timers and counters, returned by `run`.
    pub(crate) stats: PartStats,
    /// Whether a seeded ledger batch is still to be retired: on the next
    /// claim, or alone if the run ends first.
    batch_open: bool,
    /// Roots inside that batch, for progress accounting: recorded as
    /// "completed" when it is retired.
    outstanding_roots: usize,
    /// Resolve-phase working storage, kept across phases so a resolve
    /// allocates nothing once the buffers have grown to a chunk's worth.
    scratch: ResolveScratch,
    // Kept as its own field (not inside `ctx`) so span recording can
    // borrow it mutably while `self.levels` chunks are also borrowed.
    pub(crate) obs: ObsHandle,
}

/// Per-owner fetch buckets of one resolve phase, as parallel columns:
/// `embs[t][k]` is the embedding waiting for the list of `vertices[t][k]`,
/// and — at a level the plan bounds — `above[t][k]` the bound it needs the
/// list above. The vertex and bound columns are what goes on the wire.
#[derive(Debug, Default)]
struct ResolveScratch {
    embs: Vec<Vec<u32>>,
    vertices: Vec<Vec<VertexId>>,
    above: Vec<Vec<VertexId>>,
    /// Targets with a non-empty bucket, in submission order.
    order: Vec<usize>,
    /// Submitted, not yet waited fetches with their targets, oldest
    /// first. Empty between phases.
    inflight: VecDeque<(usize, PendingFetch)>,
}

impl<'e> PartRun<'e> {
    fn new(ctx: PartCtx<'e>) -> Self {
        let last = ctx.plan.last_fetched_level();
        let RunState { mut levels, mut scratch, mut workers } =
            ctx.pool.idle.lock().pop().unwrap_or_default();
        // A single-vertex plan extends nothing and needs no chunk.
        let depth = if ctx.plan.depth() > 1 { last + 1 } else { 0 };
        if levels.len() < depth {
            levels.resize_with(depth, Chunk::default);
        }
        levels.iter_mut().for_each(|c| c.capacity = ctx.cfg.chunk_capacity);
        scratch.embs.resize_with(ctx.part_count, Vec::new);
        scratch.vertices.resize_with(ctx.part_count, Vec::new);
        scratch.above.resize_with(ctx.part_count, Vec::new);
        let threads = ctx.cfg.compute_threads.max(1);
        if workers.len() < threads {
            workers.resize_with(threads, Mutex::default);
        }
        let obs = ctx.obs.handle_for_query(ctx.my_part as u32, ctx.client.query_id());
        PartRun {
            levels,
            last,
            workers,
            stats: PartStats::default(),
            batch_open: false,
            outstanding_roots: 0,
            scratch,
            ctx,
            obs,
        }
    }

    fn run(&mut self) -> Result<PartStats, FetchError> {
        if self.ctx.plan.depth() == 1 {
            self.count_single_vertices();
        } else {
            self.hybrid_loop()?;
        }
        Ok(std::mem::take(&mut self.stats))
    }

    fn count_single_vertices(&mut self) {
        let t0 = Instant::now();
        let required = self.ctx.plan.root_label();
        for &v in self.ctx.part.owned() {
            if required.is_some() && self.ctx.label(v) != required {
                continue;
            }
            self.stats.count += 1;
            if let Some(visit) = self.ctx.visitor {
                visit(&[v]);
            }
        }
        // Single-vertex plans never touch the ledger; report the whole
        // owned range as claimed-and-completed in one step.
        let n = self.ctx.part.owned().len() as u64;
        self.ctx.live.record_claimed(&self.ctx.progress, self.ctx.my_part, n, false);
        self.ctx.progress.record_completed(self.ctx.my_part, n);
        self.stats.compute += t0.elapsed();
    }

    /// The DFS-over-chunks / BFS-within-chunk driver (§4.2, Figure 7).
    fn hybrid_loop(&mut self) -> Result<(), FetchError> {
        let result = self.hybrid_loop_inner();
        // Retire a batch still on the books (stop or error: no next
        // claim will carry it), so peers waiting on quiescence are never
        // wedged by this part.
        if self.batch_open {
            self.ctx.ledger.batch_done(self.ctx.my_part);
            self.close_batch();
        }
        result
    }

    fn hybrid_loop_inner(&mut self) -> Result<(), FetchError> {
        loop {
            if self.ctx.stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
                return Ok(());
            }
            // Fail-stop self-check: once this part's own death is
            // detected anywhere in the cluster, stop producing results —
            // the engine discards this part's stats wholesale and the
            // recovery pass re-executes every root it ever claimed.
            if self.ctx.client.is_part_dead(self.ctx.my_part) {
                return Err(FetchError::PartDead { part: self.ctx.my_part });
            }
            // Bottom-up release: a chunk whose work is done and whose
            // child level is empty can be freed as a whole (the
            // "terminated" transition of Figure 6, per level).
            for l in (0..self.levels.len()).rev() {
                if !self.levels[l].has_work() && !self.levels[l].is_empty() {
                    let child_empty = l + 1 >= self.levels.len() || self.levels[l + 1].is_empty();
                    if child_empty {
                        self.levels[l].clear();
                        self.obs.event(SpanKind::ChunkRelease, l as u64);
                    }
                }
            }
            let live: usize = self.levels.iter().map(|c| c.embs.len()).sum();
            self.stats.peak_embeddings = self.stats.peak_embeddings.max(live);
            let cur = (0..self.levels.len()).rev().find(|&l| self.levels[l].has_work());
            match cur {
                Some(cur) => {
                    if cur == 0 {
                        self.maybe_donate();
                        if !self.levels[0].has_work() {
                            continue;
                        }
                    }
                    self.resolve(cur)?;
                    self.extend(cur);
                }
                None => {
                    // The whole stack drained: the seeded batch is done,
                    // and the next claim says so.
                    if !self.seed_roots()? {
                        return Ok(());
                    }
                }
            }
        }
    }

    /// Books the seeded batch as retired on this side, once the ledger
    /// has been told.
    fn close_batch(&mut self) {
        if !std::mem::take(&mut self.batch_open) {
            return;
        }
        self.ctx.progress.record_completed(self.ctx.my_part, self.outstanding_roots as u64);
        self.outstanding_roots = 0;
    }

    /// Claims the next root batch from the ledger — retiring the finished
    /// one in the same message — and seeds the root chunk. The ledger
    /// sizes the batch; a chunk's worth is the most it may be (§4.2).
    /// With stealing enabled this may block (in 1 ms slices, one claim
    /// each) until work appears somewhere; returns `Ok(false)` once the
    /// whole run has quiesced or this part was stopped, and `Err` if a
    /// message-based control plane lost an operation past its retry
    /// budget (the part must abort rather than spin or silently quiesce).
    fn seed_roots(&mut self) -> Result<bool, FetchError> {
        let t0 = Instant::now();
        let mut starving = false;
        let mut failure: Option<FetchError> = None;
        let seeded = loop {
            if self.ctx.stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
                break false;
            }
            // Fairness pacing: yield the pool to less-served resident
            // queries before claiming more roots for this one.
            self.ctx.live.pace(self.ctx.client.query_id(), self.ctx.root_budget);
            let claimed = self.ctx.ledger.claim(
                self.ctx.my_part,
                self.ctx.cfg.chunk_capacity,
                self.batch_open,
            );
            if claimed.is_ok() {
                self.close_batch();
            }
            match claimed {
                Ok(Some((source, roots))) => {
                    self.seed_batch_into_chunk(source, &roots);
                    break true;
                }
                Ok(None) => {
                    if !self.ctx.ledger.stealing() || self.ctx.ledger.finished(self.ctx.my_part) {
                        break false;
                    }
                    // A failed run can never quiesce: the dead part's
                    // outstanding batches are never retired. Once a
                    // failure is known and nothing is claimable, stop
                    // waiting — the engine's recovery pass re-executes
                    // whatever the dead part took with it.
                    if (0..self.ctx.part_count).any(|p| self.ctx.client.is_part_dead(p)) {
                        break false;
                    }
                    if !starving {
                        starving = true;
                        self.ctx.ledger.set_starving(self.ctx.my_part, true);
                    }
                    let its = self.obs.start();
                    self.ctx.ledger.wait_for_work();
                    self.obs.span(SpanKind::Idle, its, 0);
                }
                Err(e) => {
                    failure = Some(e);
                    break false;
                }
            }
        };
        if starving {
            self.ctx.ledger.set_starving(self.ctx.my_part, false);
        }
        self.stats.scheduler += t0.elapsed();
        match failure {
            Some(e) => Err(e),
            None => Ok(seeded),
        }
    }

    /// Fills the root chunk with one claimed batch. Stolen or spilled
    /// roots are usually owned elsewhere: they seed as [`ListRef::Pending`]
    /// and their edge lists flow through the fabric during resolve — data
    /// moves, computation does not.
    fn seed_batch_into_chunk(&mut self, source: ClaimSource, roots: &[VertexId]) {
        let ts = self.obs.start();
        if let ClaimSource::Stolen(victim) = source {
            self.obs.event(SpanKind::Steal, victim as u64);
        }
        let required = self.ctx.plan.root_label();
        let root_active = self.ctx.plan.root_active();
        let fetch = self.ctx.plan.fetch_bound(0);
        let my_part = self.ctx.my_part;
        let chunk = &mut self.levels[0];
        debug_assert!(chunk.is_empty(), "root chunk must be clear before reseeding");
        let mut any_pending = false;
        for &v in roots {
            if required.is_some() && self.ctx.labels.as_ref().map(|l| l[v as usize]) != required {
                continue;
            }
            let list = if !root_active {
                ListRef::None
            } else if self.ctx.owner.owner(v) == my_part {
                ListRef::Local
            } else {
                any_pending = true;
                ListRef::Pending(fetch.above(&[], v))
            };
            chunk.embs.push(Emb { parent: NO_PARENT, vertex: v, list, inter: None });
        }
        let seeded = chunk.embs.len();
        chunk.resolved_upto = if any_pending { 0 } else { seeded };
        self.batch_open = true;
        self.outstanding_roots = roots.len();
        let stolen = !matches!(source, ClaimSource::Own);
        if stolen {
            self.stats.roots_stolen += roots.len() as u64;
        }
        self.ctx.live.record_claimed(&self.ctx.progress, my_part, roots.len() as u64, stolen);
        self.obs.span(SpanKind::SeedRoots, ts, seeded as u64);
    }

    /// Hands half of the never-started level-0 roots this part can spare
    /// to the ledger's spill when other parts are starving (steal-half),
    /// off the tail of the leftover ranges and through the middle of one
    /// where needed: a guided grant is large, and its one leftover range
    /// is all a single-threaded part has to share. Only roots that no
    /// worker has touched move: their embeddings stay behind as inert
    /// entries (the release pass frees them with the chunk), and the
    /// claimant restarts them from scratch on its own side of the fabric.
    fn maybe_donate(&mut self) {
        if !self.ctx.ledger.stealing() {
            return;
        }
        let threads = self.ctx.cfg.compute_threads.max(1);
        let keep = (MINI_BATCH * threads) as u32;
        let volume: u32 = self.levels[0].leftovers.iter().map(|&(s, e)| e - s).sum();
        // The local test first: most rounds leave nothing to give away,
        // and finding that out must not cost a message.
        if volume <= keep {
            return;
        }
        // The last claim's count is as old as this batch; ask again.
        self.ctx.ledger.refresh(self.ctx.my_part);
        if self.ctx.ledger.starving(self.ctx.my_part) == 0 {
            return;
        }
        let chunk = &mut self.levels[0];
        let mut give = (volume - keep).div_ceil(2);
        let mut donated: Vec<VertexId> = Vec::with_capacity(give as usize);
        while give > 0 {
            let (start, end) = chunk.leftovers.last_mut().expect("leftovers hold `volume` roots");
            let from = end.saturating_sub(give).max(*start);
            donated.extend(chunk.embs[from as usize..*end as usize].iter().map(|e| e.vertex));
            give -= *end - from;
            if from == *start {
                chunk.leftovers.pop();
            } else {
                *end = from;
            }
        }
        self.stats.roots_donated += donated.len() as u64;
        // Donated roots leave this part's responsibility: the claimant
        // records them claimed (and completed) on its own side, so drop
        // them from this part's outstanding-progress tally.
        self.outstanding_roots = self.outstanding_roots.saturating_sub(donated.len());
        self.obs.event(SpanKind::Donate, donated.len() as u64);
        self.ctx.ledger.donate(self.ctx.my_part, donated);
    }

    /// Resolve phase: make every pending edge list of the current chunk
    /// locally available — local partition, horizontal sharing, cache, or
    /// batched remote fetch in circulant order. A fetch asks only for the
    /// part of each list the plan reads, where the plan bounds the level,
    /// and the cache answers a list cut at or below that bound.
    ///
    /// # Errors
    ///
    /// Propagates the first [`FetchError`] of the round (after draining
    /// every outstanding completion, so the fabric unwinds cleanly).
    fn resolve(&mut self, cur: usize) -> Result<(), FetchError> {
        if self.levels[cur].resolved_upto >= self.levels[cur].embs.len() {
            return Ok(());
        }
        let t0 = Instant::now();
        let rts = self.obs.start();
        let part_count = self.ctx.part_count;
        let my_part = self.ctx.my_part;
        let cache_enabled = self.ctx.cache.is_enabled();
        let sharing = self.ctx.cfg.horizontal_sharing;
        let bounded = self.ctx.plan.fetch_bound(cur).is_bounded();
        let ResolveScratch { embs: bucket_embs, vertices: bucket_vertices, above, order, .. } =
            &mut self.scratch;
        bucket_embs.iter_mut().for_each(Vec::clear);
        bucket_vertices.iter_mut().for_each(Vec::clear);
        above.iter_mut().for_each(Vec::clear);

        let chunk = &mut self.levels[cur];
        if sharing {
            chunk.share.reset(chunk.capacity);
        }
        // Every pending list gets its home here, once; extension reads it
        // from there without looking anything up again. One hash per
        // embedding serves the owner map and the share table, and the
        // outcomes are tallied locally.
        let (mut hits, mut misses, mut shared) = (0u64, 0u64, 0u64);
        for i in chunk.resolved_upto..chunk.embs.len() {
            if !matches!(chunk.embs[i].list, ListRef::Pending(_)) {
                continue;
            }
            let v = chunk.embs[i].vertex;
            let hash = vertex_hash(v);
            let owner = self.ctx.owner.owner_hashed(v, hash);
            if owner == my_part {
                chunk.embs[i].list = ListRef::Local;
                continue;
            }
            if sharing && chunk.share.share(&mut chunk.embs, i, hash) {
                shared += 1;
                continue;
            }
            bucket_embs[owner].push(i as u32);
            bucket_vertices[owner].push(v);
        }
        // Once every sharer has lowered its claimant's bound, each claimant
        // asks the cache for its list above that bound; a miss stays in
        // its bucket and its bound goes out with the request.
        let columns = bucket_embs.iter_mut().zip(bucket_vertices.iter_mut());
        for ((embs, vertices), above) in columns.zip(above.iter_mut()) {
            let mut kept = 0;
            for k in 0..embs.len() {
                let (i, v) = (embs[k] as usize, vertices[k]);
                let ListRef::Pending(bound) = chunk.embs[i].list else {
                    unreachable!("a claimant waits until its fill resolves")
                };
                if cache_enabled {
                    if let Some(list) = self.ctx.cache.lookup_above(v, bound) {
                        hits += 1;
                        self.obs.event(SpanKind::CacheLookup, 1);
                        chunk.embs[i].list = chunk.push_pinned(list);
                        continue;
                    }
                    misses += 1;
                    self.obs.event(SpanKind::CacheLookup, 0);
                }
                (embs[kept], vertices[kept]) = (i as u32, v);
                kept += 1;
                if bounded {
                    above.push(bound.expect("a bounded level bounds every list"));
                }
            }
            embs.truncate(kept);
            vertices.truncate(kept);
        }
        chunk.resolved_upto = chunk.embs.len();
        if hits + misses + shared > 0 {
            let counted = self.ctx.client.scope();
            counted.add(Counter::CacheHits, hits);
            counted.add(Counter::CacheMisses, misses);
            counted.add(Counter::Coalesced, shared);
        }

        // Circulant owner order: (K+1) % N, (K+2) % N, … (§4.3). The
        // ablation switch reverts to natural order.
        order.clear();
        order.extend(
            (1..part_count)
                .map(|r| (my_part + r) % part_count)
                .filter(|&t| !bucket_embs[t].is_empty()),
        );
        if !self.ctx.cfg.circulant {
            order.sort_unstable();
        }
        let remote: u64 = bucket_embs.iter().map(|b| b.len() as u64).sum();
        // Submit every batch, oldest reply integrated whenever the
        // part's window is full, so batch i+1's transfer is in flight
        // while batch i is integrated. The window is shared with this
        // part's other queries; the one rule that keeps them from
        // wedging each other is never to block on it while holding an
        // un-waited fetch — wait the oldest instead.
        let network_before = self.stats.network;
        // Keep going after a failure so every window slot retires, then
        // report the first.
        let mut failure: Option<FetchError> = None;
        let mut note = |outcome: Result<(), FetchError>| {
            if let Err(e) = outcome {
                failure.get_or_insert(e);
            }
        };
        for k in 0..self.scratch.order.len() {
            let t = self.scratch.order[k];
            let issued = loop {
                let vertices = &self.scratch.vertices[t];
                let above = bounded.then_some(&self.scratch.above[t][..]);
                match self.ctx.client.try_fetch_async(t, vertices, above) {
                    Ok(Some(pending)) => break Ok(pending),
                    Err(e) => break Err(e),
                    Ok(None) => {}
                }
                match self.scratch.inflight.pop_front() {
                    Some((t, oldest)) => note(self.collect(cur, t, oldest)),
                    // Holding nothing, so blocking is safe: the slots
                    // belong to other queries, which follow the rule.
                    None => {
                        let tw = Instant::now();
                        let issued = self.ctx.client.fetch_clamped_async(t, vertices, above);
                        self.stats.network += tw.elapsed();
                        break issued;
                    }
                }
            };
            note(issued.map(|pending| self.scratch.inflight.push_back((t, pending))));
        }
        while let Some((t, oldest)) = self.scratch.inflight.pop_front() {
            note(self.collect(cur, t, oldest));
        }
        self.stats.scheduler += t0.elapsed().saturating_sub(self.stats.network - network_before);
        self.obs.span(SpanKind::Resolve, rts, remote);
        match failure {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Waits for one submitted fetch of the current resolve phase and
    /// moves its lists into `cur`'s chunk, for the embeddings bucketed
    /// under target `t`.
    fn collect(&mut self, cur: usize, t: usize, pending: PendingFetch) -> Result<(), FetchError> {
        let bts = self.obs.start();
        let tw = Instant::now();
        // The causal request id links the span covering this blocked
        // wait to the issue/serve spans of the request it waited on.
        let req_id = pending.request_id();
        let outcome = pending.wait_split();
        self.stats.network += tw.elapsed();
        self.obs.span_linked(SpanKind::BucketRound, bts, t as u64, req_id);
        // The reply is adopted as it arrived: each embedding's list is a
        // span of the payload the responder wrote, never copied again.
        let (lists, split) = outcome?;
        self.stats.responder_queue += split.queue;
        self.stats.retry_backoff += split.backoff;
        let (embs, vertices) = (&self.scratch.embs[t], &self.scratch.vertices[t]);
        debug_assert_eq!(lists.len(), vertices.len(), "one list per requested vertex");
        let cache_enabled = self.ctx.cache.is_enabled();
        let (above, graph) = (&self.scratch.above[t], self.ctx.part.vertex_count());
        let chunk = &mut self.levels[cur];
        let seg = chunk.next_segment();
        for (k, (&emb_i, &v)) in embs.iter().zip(vertices).enumerate() {
            let (start, list, bound) = (lists.span(k).0, lists.list(k), above.get(k).copied());
            // A hot list gets its bitmap here, once, on the claimant.
            chunk.embs[emb_i as usize].list = chunk.home_fetched((seg, start), list, bound, graph);
            if cache_enabled {
                self.ctx.cache.offer(v, list, bound);
            }
        }
        chunk.segments.push(lists.into_payload());
        if cache_enabled {
            self.obs.event(SpanKind::CacheInsert, vertices.len() as u64);
        }
        Ok(())
    }
}

impl Drop for PartRun<'_> {
    /// Hands the working state back to the part's pool, cleared — on
    /// every exit path: completion, stop, a failed fetch, a
    /// recovery pass.
    fn drop(&mut self) {
        let mut state = RunState {
            levels: std::mem::take(&mut self.levels),
            scratch: std::mem::take(&mut self.scratch),
            workers: std::mem::take(&mut self.workers),
        };
        state.levels.iter_mut().for_each(Chunk::clear);
        state.scratch.inflight.clear();
        self.ctx.pool.idle.lock().push(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::ControlMode;
    use crate::scheduler::StealConfig;
    use gpm_cluster::{ControlLedgerConfig, EdgeListService};
    use gpm_graph::gen;
    use gpm_graph::partition::PartitionedGraph;
    use gpm_pattern::plan::PlanOptions;
    use gpm_pattern::Pattern;

    /// Runs `body` on part 0's coordinator of a 2-part er(200, 800)
    /// triangle run with stealing on (smallest grant 16, one compute
    /// thread), with the run's control plane, a reader of part 0's
    /// control-message count, and the run's stop flag.
    fn with_part_run(
        mode: ControlMode,
        body: impl FnOnce(&mut PartRun<'_>, &ControlPlane, &dyn Fn() -> u64, &AtomicBool),
    ) {
        let g = gen::erdos_renyi(200, 800, 3);
        let pg = PartitionedGraph::new(&g, 2, 1);
        let service = EdgeListService::start(&pg, None);
        let plan = MatchingPlan::compile(&Pattern::triangle(), &PlanOptions::automine()).unwrap();
        let cfg = EngineConfig {
            compute_threads: 1,
            steal: StealConfig { enabled: true, batch: 16 },
            ..EngineConfig::default()
        };
        let ledger = Arc::new(ControlPlane::start(
            (0..2).map(|p| pg.part(p).owned().to_vec()).collect(),
            ControlLedgerConfig { stealing: true, batch: 16, ..ControlLedgerConfig::default() },
            mode,
            service.metrics(),
            &Arc::default(),
            Recorder::disabled(),
            None,
        ));
        let stop = AtomicBool::new(false);
        let pool = StatePool::default();
        let live = LiveQueries::default();
        let mut run = PartRun::new(PartCtx {
            part: pg.part_arc(0),
            labels: pg.labels(),
            client: service.client(0),
            cache: Arc::new(SharedCache::for_part(
                &cfg.cache,
                1,
                pg.vertex_count(),
                pg.hot_from(cfg.cache.degree_threshold),
            )),
            plan: &plan,
            cfg: &cfg,
            my_part: 0,
            part_count: 2,
            owner: pg.owner_map(),
            visitor: None,
            stop: Some(&stop),
            obs: Recorder::disabled(),
            ledger: Arc::clone(&ledger),
            gate: None,
            live: &live,
            root_budget: u64::MAX,
            progress: Arc::new(QueryProgress::new(0, pg.vertex_count() as u64, 2)),
            pool: &pool,
        });
        let sent = || service.metrics().part(0).get(Counter::CtrlSent);
        body(&mut run, &ledger, &sent, &stop);
        drop(run);
        service.shutdown();
    }

    /// What one part coordinator says to the ledger, message by message:
    /// one per claimed batch (the retirement rides along) whatever size
    /// the ledger made it, none to find out it has nothing to give, one
    /// to ask who is starving when it does, one to give.
    #[test]
    fn a_coordinator_spends_one_control_message_per_batch() {
        with_part_run(ControlMode::Msg, |run, ledger, sent, stop| {
            // A quarter of part 0's roots (1 / (2 x parts)), not the 16
            // that are the smallest grant.
            let guided = run.ctx.part.owned().len() / 4;
            assert!(guided > 16, "part 0 owns {} roots", run.ctx.part.owned().len());
            assert!(run.seed_roots().unwrap());
            assert_eq!((sent(), run.levels[0].embs.len()), (1, guided));
            // Leftovers within what this part keeps for itself
            // (`MINI_BATCH` per compute thread): nothing to give, so
            // nothing is asked.
            let root = |v| Emb { parent: NO_PARENT, vertex: v, list: ListRef::Local, inter: None };
            run.levels[0].embs = (0..128).map(root).collect();
            run.levels[0].leftovers = vec![(0, 64)];
            run.maybe_donate();
            assert_eq!(sent(), 1);
            // More than that: worth one question. Nobody is starving.
            run.levels[0].leftovers = vec![(0, 64), (64, 128)];
            run.maybe_donate();
            assert_eq!((sent(), run.stats.roots_donated), (2, 0));
            // Somebody is: the question, then the donation — half of
            // what can be spared, out of the last range.
            ledger.set_starving(1, true);
            run.maybe_donate();
            assert_eq!((sent(), run.stats.roots_donated), (4, 32));
            assert_eq!(run.levels[0].leftovers, vec![(0, 64), (64, 96)]);
            // The stack drains; the next claim is the retirement too.
            run.levels[0].clear();
            assert!(run.seed_roots().unwrap());
            assert_eq!(sent(), 5);
            // Stopped mid-batch: no next claim will carry the retirement,
            // so it goes alone and peers never wedge.
            stop.store(true, Ordering::Relaxed);
            run.hybrid_loop().unwrap();
            assert_eq!((sent(), run.batch_open), (6, false));
        });
    }

    /// Steal-half: a part with one compute thread has one leftover range,
    /// and gives a starving peer half of what it can spare by splitting
    /// it, tail first.
    #[test]
    fn a_donor_splits_its_one_leftover_range_in_half() {
        with_part_run(ControlMode::Shared, |run, ledger, _, _| {
            let root = |v| Emb { parent: NO_PARENT, vertex: v, list: ListRef::Local, inter: None };
            run.levels[0].embs = (0..1000).map(root).collect();
            run.levels[0].cursor = 1000;
            // Nobody starves: nothing moves, however much is left over.
            run.levels[0].leftovers = vec![(0, 1000)];
            run.maybe_donate();
            assert_eq!((run.stats.roots_donated, ledger.state_summary().spill_len), (0, Some(0)));
            // A starving peer, but no more left than this part keeps.
            ledger.set_starving(1, true);
            run.levels[0].leftovers = vec![(0, 64)];
            run.maybe_donate();
            assert_eq!((run.stats.roots_donated, ledger.state_summary().spill_len), (0, Some(0)));
            // ceil((1000 - 64) / 2) roots off the tail.
            run.levels[0].leftovers = vec![(0, 1000)];
            run.maybe_donate();
            assert_eq!(run.levels[0].leftovers, vec![(0, 532)]);
            assert_eq!(
                (run.stats.roots_donated, ledger.state_summary().spill_len),
                (468, Some(468))
            );
            // Whole ranges go first, then the split.
            run.levels[0].leftovers = vec![(0, 100), (200, 230), (500, 510)];
            run.maybe_donate();
            assert_eq!(run.levels[0].leftovers, vec![(0, 100), (200, 202)]);
            assert_eq!(run.stats.roots_donated, 468 + 38);
            // With nobody dead, the lost roots are what sits in the spill.
            let mut spilled = ledger.lost_roots(&[]).unwrap();
            spilled.sort_unstable();
            assert_eq!(spilled, (202..230).chain(500..510).chain(532..1000).collect::<Vec<_>>());
        });
    }
}
