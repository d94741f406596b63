//! Chunks: per-level arenas of extendable embeddings.
//!
//! A chunk stores every embedding of one tree level currently alive on a
//! part, back-to-back (§4.2): `(parent index, new vertex, edge-list slot,
//! intermediate-result span)`. Chunks are allocated and released as whole
//! levels — the paper's answer to BFS fragmentation — and parents always
//! outlive children (DFS over levels), so vertical sharing is plain index
//! chasing.

use gpm_graph::VertexId;
use std::sync::Arc;

/// Where an embedding's (new vertex's) active edge list lives. Plain
/// data: every variant is an index or a span into storage the chunk (or
/// the part) owns, so embeddings are `Copy` and a level is released
/// without per-embedding drop glue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum ListRef {
    /// The vertex is not active: no list is ever needed (anti-monotone
    /// inactive case, §3.1).
    #[default]
    None,
    /// Active but not yet resolved; fixed during the chunk's resolve
    /// phase, before any extension reads it.
    Pending,
    /// Owned by the local part; read directly from the graph partition.
    Local,
    /// Served from the software cache: index into [`Chunk::pins`], whose
    /// `Arc` keeps an evicted entry alive until the chunk is released.
    Cached(u32),
    /// Fetched from a remote part: a span of a reply this chunk adopted.
    Fetched {
        /// Index into [`Chunk::segments`].
        seg: u16,
        /// Offset into that segment.
        start: u32,
        /// List length.
        len: u32,
    },
    /// Horizontal sharing (§5.2): the embedding at this index in the same
    /// chunk holds the list (never itself a `Peer`).
    Peer(u32),
}

/// One extendable embedding inside a chunk.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Emb {
    /// Index of the parent embedding in the previous level's chunk
    /// (`u32::MAX` for roots).
    pub parent: u32,
    /// The vertex this embedding added to its parent.
    pub vertex: VertexId,
    /// Where this vertex's active edge list lives.
    pub list: ListRef,
    /// Span of this embedding's stored intermediate result (raw candidate
    /// set) in [`Chunk::inter_data`], for vertical computation reuse.
    pub inter: Option<(u32, u32)>,
}

/// Sentinel parent index for root embeddings.
pub(crate) const NO_PARENT: u32 = u32::MAX;

/// A paused extension: `emb` was being extended and the next raw
/// candidate to consume is at index `cand_offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Resume {
    pub emb: u32,
    pub cand_offset: u32,
}

/// Horizontal-sharing hash table: open addressing, **no collision
/// chains** — on a slot conflict the insertion is simply dropped (§5.2).
///
/// The table remembers which slots the current fill wrote, so preparing
/// it for the next fill wipes those and nothing else — a chunk of sixteen
/// roots pays for sixteen slots, not for the table — and a slot is the
/// eight bytes it has to be: a pooled table ends up wholly resident, so
/// its size is what a warm part holds per chunk.
#[derive(Debug, Default)]
pub(crate) struct ShareTable {
    slots: Vec<ShareSlot>,
    mask: usize,
    /// Indices of the slots written since the last reset.
    written: Vec<u32>,
}

#[derive(Debug, Clone, Copy, Default)]
struct ShareSlot {
    vertex: VertexId,
    /// Index of the registered embedding plus one; 0 marks a free slot,
    /// so a zeroed table is an empty one.
    emb1: u32,
}

impl ShareTable {
    /// Prepares the table for a chunk of `capacity` embeddings: every
    /// registration of earlier fills is forgotten.
    pub fn reset(&mut self, capacity: usize) {
        let want = (capacity * 2).next_power_of_two().max(16);
        if self.slots.len() != want {
            self.slots = vec![ShareSlot::default(); want];
            self.mask = want - 1;
            self.written.clear();
        }
        for i in self.written.drain(..) {
            self.slots[i as usize].emb1 = 0;
        }
    }

    /// Returns the embedding already registered for `v` in this fill, or
    /// registers `emb` and returns `None`. A slot occupied by a
    /// *different* vertex drops the registration (no chain), returning
    /// `None`. `hash` must be `vertex_hash(v)`.
    #[inline]
    pub fn lookup_or_claim(&mut self, v: VertexId, hash: u64, emb: u32) -> Option<u32> {
        debug_assert_eq!(hash, gpm_graph::partition::vertex_hash(v));
        let index = hash as usize & self.mask;
        let slot = self.slots.get_mut(index)?;
        if slot.emb1 == 0 {
            *slot = ShareSlot { vertex: v, emb1: emb + 1 };
            self.written.push(index as u32);
            None
        } else if slot.vertex == v {
            Some(slot.emb1 - 1)
        } else {
            None // collision: drop, accept redundant fetch
        }
    }
}

/// A per-level chunk of extendable embeddings with its data arenas and
/// BFS-DFS bookkeeping.
#[derive(Debug, Default)]
pub(crate) struct Chunk {
    /// Embeddings of this level.
    pub embs: Vec<Emb>,
    /// Remotely fetched edge lists: the reply payloads of this fill's
    /// fetches, each kept as the fabric delivered it. A fetched list is
    /// written once, by the responder, and read from there: adopting a
    /// reply moves its payload in.
    pub segments: Vec<Vec<VertexId>>,
    /// Cache entries this level's [`ListRef::Cached`] embeddings read,
    /// pinned until the level is released.
    pub pins: Vec<Arc<[VertexId]>>,
    /// Arena of stored intermediate results.
    pub inter_data: Vec<VertexId>,
    /// `embs[..cursor]` have been offered to an extend phase.
    pub cursor: usize,
    /// Partially-extended embeddings to resume first.
    pub resumes: Vec<Resume>,
    /// Never-started `embs` ranges handed back by an extend phase (the
    /// next-level chunk filled, or the run stopped, before any worker
    /// claimed them). Half-open, sorted, disjoint. At level 0 these are
    /// the unit of cross-part donation: whole ranges can be moved to the
    /// steal ledger's spill because no worker has touched them.
    pub leftovers: Vec<(u32, u32)>,
    /// `embs[..resolved_upto]` have had their edge lists resolved.
    pub resolved_upto: usize,
    /// Maximum number of embeddings (the chunk size knob, §4.2/§7.7).
    pub capacity: usize,
    /// Horizontal-sharing table for the current fill.
    pub share: ShareTable,
}

impl Chunk {
    /// An empty chunk bounded to `capacity` embeddings.
    #[cfg(test)]
    pub fn new(capacity: usize) -> Self {
        Chunk { capacity, ..Chunk::default() }
    }

    /// Whether any embeddings remain to extend (fresh, paused, or handed
    /// back unstarted).
    pub fn has_work(&self) -> bool {
        self.cursor < self.embs.len() || !self.resumes.is_empty() || !self.leftovers.is_empty()
    }

    /// Whether the chunk holds no embeddings at all.
    pub fn is_empty(&self) -> bool {
        self.embs.is_empty()
    }

    /// Remaining room in embeddings.
    pub fn room(&self) -> usize {
        self.capacity.saturating_sub(self.embs.len())
    }

    /// Releases the whole level at once (the "terminated" transition of
    /// Figure 6, done chunk-wise).
    pub fn clear(&mut self) {
        self.embs.clear();
        self.segments.clear();
        self.pins.clear();
        self.inter_data.clear();
        self.cursor = 0;
        self.resumes.clear();
        self.leftovers.clear();
        self.resolved_upto = 0;
        // `share` is reset lazily at the next resolve.
    }

    /// The index the next reply pushed onto [`Chunk::segments`] gets —
    /// asked for first, because the [`ListRef`]s into a reply are written
    /// while the reply still says where its lists are.
    pub fn next_segment(&self) -> u16 {
        // A fill is resolved once, with at most one reply per remote part.
        u16::try_from(self.segments.len()).expect("more replies in one fill than parts")
    }

    /// Stores an intermediate result, returning its span.
    pub fn push_inter(&mut self, data: &[VertexId]) -> (u32, u32) {
        let start = self.inter_data.len() as u32;
        self.inter_data.extend_from_slice(data);
        (start, data.len() as u32)
    }

    /// Pins a cache entry for this level's lifetime, returning its
    /// `ListRef`.
    pub fn push_pinned(&mut self, list: Arc<[VertexId]>) -> ListRef {
        self.pins.push(list);
        ListRef::Cached((self.pins.len() - 1) as u32)
    }

    /// Resolves a `Cached` index.
    #[inline]
    pub fn pinned(&self, i: u32) -> &[VertexId] {
        &self.pins[i as usize]
    }

    /// Resolves a `Fetched` span.
    #[inline]
    pub fn fetched(&self, seg: u16, start: u32, len: u32) -> &[VertexId] {
        &self.segments[seg as usize][start as usize..(start + len) as usize]
    }

    /// Resolves an intermediate span.
    #[inline]
    pub fn inter(&self, span: (u32, u32)) -> &[VertexId] {
        &self.inter_data[span.0 as usize..(span.0 + span.1) as usize]
    }
}

/// Result of pushing children into the next-level chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PushOutcome {
    /// All children fit.
    All,
    /// Only the first `n` children fit; the chunk is now full.
    Partial(usize),
}

/// A child embedding staged for pushing: `(vertex, raw candidate index)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StagedChild {
    pub vertex: VertexId,
    pub raw_index: u32,
}

impl Chunk {
    /// Pushes the children of `parent` (staged in raw-candidate order)
    /// into this chunk, honoring capacity. If `inter` is provided and at
    /// least one child is pushed, the intermediate result is stored once
    /// and shared by every pushed child. `needs_list` marks the new
    /// vertex active (list fetch required later).
    pub fn try_push_children(
        &mut self,
        parent: u32,
        children: &[StagedChild],
        needs_list: bool,
        inter: Option<&[VertexId]>,
    ) -> PushOutcome {
        let n = children.len().min(self.room());
        if n > 0 {
            let span = inter.map(|d| self.push_inter(d));
            for c in &children[..n] {
                self.embs.push(Emb {
                    parent,
                    vertex: c.vertex,
                    list: if needs_list { ListRef::Pending } else { ListRef::None },
                    inter: span,
                });
            }
        }
        if n == children.len() {
            PushOutcome::All
        } else {
            PushOutcome::Partial(n)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn staged(vs: &[VertexId]) -> Vec<StagedChild> {
        vs.iter()
            .enumerate()
            .map(|(i, &v)| StagedChild { vertex: v, raw_index: i as u32 })
            .collect()
    }

    #[test]
    fn push_within_capacity() {
        let mut c = Chunk::new(10);
        let out = c.try_push_children(NO_PARENT, &staged(&[1, 2, 3]), true, None);
        assert_eq!(out, PushOutcome::All);
        assert_eq!(c.embs.len(), 3);
        assert!(c.embs.iter().all(|e| e.list == ListRef::Pending));
        assert!(c.has_work());
    }

    #[test]
    fn push_truncates_at_capacity() {
        let mut c = Chunk::new(2);
        let out = c.try_push_children(0, &staged(&[1, 2, 3, 4]), false, None);
        assert_eq!(out, PushOutcome::Partial(2));
        assert_eq!(c.embs.len(), 2);
        assert_eq!(c.room(), 0);
        let out2 = c.try_push_children(0, &staged(&[9]), false, None);
        assert_eq!(out2, PushOutcome::Partial(0));
    }

    #[test]
    fn inter_shared_among_siblings() {
        let mut c = Chunk::new(10);
        c.try_push_children(0, &staged(&[5, 6]), false, Some(&[7, 8, 9]));
        let s0 = c.embs[0].inter.unwrap();
        let s1 = c.embs[1].inter.unwrap();
        assert_eq!(s0, s1);
        assert_eq!(c.inter(s0), &[7, 8, 9]);
    }

    #[test]
    fn inter_not_stored_when_nothing_pushed() {
        let mut c = Chunk::new(0);
        c.try_push_children(0, &staged(&[5]), false, Some(&[1, 2]));
        assert!(c.inter_data.is_empty());
    }

    #[test]
    fn adopted_segments_are_read_in_place_and_released_whole() {
        let mut c = Chunk::new(4);
        let payload = vec![10, 20, 30];
        let at = payload.as_ptr();
        c.segments.push(payload);
        assert_eq!(c.next_segment(), 1);
        c.segments.push(vec![40, 50]);
        assert_eq!(c.fetched(1, 0, 2), &[40, 50]);
        assert_eq!(c.fetched(0, 1, 2), &[20, 30]);
        assert_eq!(c.fetched(0, 0, 3).as_ptr(), at, "adopting moves the reply, it does not copy");
        c.clear();
        assert!(c.segments.is_empty(), "release drops every adopted reply as a whole");
        assert_eq!(c.next_segment(), 0, "the next fill numbers its segments from 0");
    }

    #[test]
    fn clear_releases_everything() {
        let mut c = Chunk::new(4);
        c.try_push_children(0, &staged(&[1]), true, Some(&[2]));
        c.segments.push(vec![3]);
        c.cursor = 1;
        c.resumes.push(Resume { emb: 0, cand_offset: 2 });
        c.resolved_upto = 1;
        c.clear();
        assert!(c.is_empty());
        assert!(!c.has_work());
        assert!(c.segments.is_empty());
        assert_eq!(c.inter_data.len(), 0);
        assert_eq!(c.resolved_upto, 0);
    }

    fn claim(t: &mut ShareTable, v: VertexId, emb: u32) -> Option<u32> {
        t.lookup_or_claim(v, gpm_graph::partition::vertex_hash(v), emb)
    }

    #[test]
    fn share_table_claim_and_hit() {
        let mut t = ShareTable::default();
        t.reset(8);
        assert_eq!(claim(&mut t, 42, 0), None); // claimed
        assert_eq!(claim(&mut t, 42, 1), Some(0)); // shared
        assert_eq!(claim(&mut t, 42, 2), Some(0));
    }

    #[test]
    fn share_table_before_first_reset_shares_nothing() {
        let mut t = ShareTable::default();
        assert_eq!(claim(&mut t, 42, 0), None);
        assert_eq!(claim(&mut t, 42, 1), None);
    }

    #[test]
    fn share_table_drops_collisions() {
        // Tiny table to force collisions.
        let mut t = ShareTable::default();
        t.reset(1); // 16 slots
        let mut dropped = 0;
        let mut claimed = 0;
        for v in 0..64u32 {
            match claim(&mut t, v, v) {
                None => {
                    // Either claimed or dropped; re-query distinguishes.
                    if claim(&mut t, v, 999) == Some(v) {
                        claimed += 1;
                    } else {
                        dropped += 1;
                    }
                }
                Some(_) => panic!("distinct vertices cannot hit"),
            }
        }
        assert!(claimed <= 16);
        assert!(dropped > 0, "collisions should drop on a saturated table");
    }

    #[test]
    fn share_table_reset_forgets_every_entry() {
        let mut t = ShareTable::default();
        t.reset(8);
        for v in 0..16u32 {
            claim(&mut t, v, v);
        }
        t.reset(8);
        assert!(t.slots.iter().all(|s| s.emb1 == 0), "a reset leaves no slot written");
        for v in 0..16u32 {
            assert_ne!(claim(&mut t, v, 100 + v), Some(v), "stale entry for {v} survived reset");
        }
        assert_eq!(claim(&mut t, 7, 5), Some(107));
        assert!(std::mem::size_of::<ShareSlot>() <= 8);
    }

    #[test]
    fn share_table_resize_starts_a_clean_table() {
        let mut t = ShareTable::default();
        t.reset(8);
        claim(&mut t, 7, 3);
        t.reset(64);
        assert_eq!(claim(&mut t, 7, 5), None);
    }

    #[test]
    fn embeddings_are_small_plain_data() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<Emb>();
        assert!(std::mem::size_of::<Emb>() <= 32, "Emb is {} B", std::mem::size_of::<Emb>());
    }

    #[test]
    fn pinned_list_outlives_its_cache_entry() {
        use crate::cache::{CachePolicy, SharedCache};
        let cache = SharedCache::new(CachePolicy::Fifo, 100, 1);
        cache.maybe_insert(1, &[7; 10]);
        let mut c = Chunk::new(4);
        let list = c.push_pinned(cache.lookup(1).unwrap());
        cache.maybe_insert(2, &[0; 10]);
        cache.maybe_insert(3, &[0; 10]); // evicts 1
        assert!(cache.lookup(1).is_none());
        match list {
            ListRef::Cached(i) => assert_eq!(c.pinned(i), &[7; 10]),
            other => panic!("unexpected {other:?}"),
        }
        c.clear();
        assert!(c.pins.is_empty(), "release drops the level's pins as a whole");
    }
}
