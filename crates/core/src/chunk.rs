//! Chunks: per-level arenas of extendable embeddings.
//!
//! A chunk stores every embedding of one tree level currently alive on a
//! part, back-to-back (§4.2): `(parent index, new vertex, edge-list slot,
//! intermediate-result span)`. Chunks are allocated and released as whole
//! levels — the paper's answer to BFS fragmentation — and parents always
//! outlive children (DFS over levels), so vertical sharing is plain index
//! chasing.

use crate::cache::Entry;
use gpm_graph::set_ops::{self, Bits, Side};
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
    /// phase, before any extension reads it. Carries the exclusive lower
    /// bound above which the plan reads the list (`None`: all of it) —
    /// what a fetch of the list asks for.
    Pending(Option<VertexId>),
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
    /// Fetched, and hot: index into [`Chunk::hot`], which holds the span
    /// and the bitmap the fill built for it.
    Hot(u32),
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

/// Horizontal-sharing hash table (§5.2): the first embedding of a fill
/// that waits for a vertex's list claims the vertex, and every later one
/// reads the claimant's list instead of asking for its own.
///
/// Open addressing with linear probing over at least `2 × capacity` slots,
/// of which a fill claims at most `capacity`, so a probe always ends at the
/// vertex or at a free slot: no claim is ever dropped. This departs from
/// the paper's table, which drops a registration that collides and accepts
/// the redundant fetch. Here the table is the only deduplication before
/// the wire — the fabric sends requests as asked — so a dropped claim
/// would be a duplicate list crossing the network.
///
/// The table remembers which slots the current fill wrote, so preparing
/// it for the next fill wipes those and nothing else — a chunk of sixteen
/// roots pays for sixteen slots, not for the table — and a slot is the
/// eight bytes it has to be: a pooled table ends up wholly resident, so
/// its size is what a warm part holds per chunk.
///
/// Once the fill is resolved, the table serves the level below too: a
/// child whose vertex a claimant holds, fetched at or below the child's
/// own bound, reads the claimant's list ([`ShareTable::holder`]).
#[derive(Debug, Default)]
pub(crate) struct ShareTable {
    slots: Vec<ShareSlot>,
    mask: usize,
    /// Indices of the slots written since the last reset.
    written: Vec<u32>,
    /// By claimant's embedding: the lowest bound among its readers, plus
    /// one (0: the whole list). Grows with the fills, not the table.
    above1: Vec<VertexId>,
}

#[derive(Debug, Clone, Copy, Default)]
struct ShareSlot {
    vertex: VertexId,
    /// Index of the claiming embedding plus one; 0 marks a free slot,
    /// so a zeroed table is an empty one.
    emb1: u32,
}

fn plus_one(above: Option<VertexId>) -> VertexId {
    above.map_or(0, |b| b + 1)
}

impl ShareTable {
    /// Prepares the table for a fill of at most `capacity` embeddings:
    /// every claim of earlier fills is forgotten.
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

    /// Points the pending `embs[i]` at the embedding that claimed its
    /// vertex in this fill, lowering the claimant's bound to the lower of
    /// the two so its fetch covers both readers — and returns `true`; or
    /// claims the vertex for `embs[i]` and returns `false`. `hash` must be
    /// `vertex_hash` of its vertex.
    #[inline]
    pub fn share(&mut self, embs: &mut [Emb], i: usize, hash: u64) -> bool {
        let Emb { vertex: v, list: ListRef::Pending(above), .. } = embs[i] else {
            unreachable!("only a pending list is shared")
        };
        debug_assert_eq!(hash, gpm_graph::partition::vertex_hash(v));
        if self.slots.is_empty() {
            return false;
        }
        // A fill claims at most half the slots; past all of them the probe
        // would not end.
        assert!(self.written.len() < self.slots.len(), "share table over-filled");
        let mut index = hash as usize & self.mask;
        loop {
            let slot = &mut self.slots[index];
            if slot.emb1 == 0 {
                *slot = ShareSlot { vertex: v, emb1: i as u32 + 1 };
                self.written.push(index as u32);
                if self.above1.len() < embs.len() {
                    self.above1.resize(embs.len(), 0);
                }
                self.above1[i] = plus_one(above);
                return false;
            }
            if slot.vertex == v {
                let first = slot.emb1 - 1;
                match &mut embs[first as usize].list {
                    ListRef::Pending(kept) => *kept = (*kept).min(above),
                    other => unreachable!("a claimant waits until its fill resolves: {other:?}"),
                }
                let kept = &mut self.above1[first as usize];
                *kept = (*kept).min(plus_one(above));
                embs[i].list = ListRef::Peer(first);
                return true;
            }
            index = (index + 1) & self.mask;
        }
    }

    /// The claimant of `v` in the fill `embs`, if its list is fetched or
    /// cached, with the bound it asked for (`None`: whole; a cached list is
    /// cut at or below it). Never inserts. The table is reset when its
    /// chunk's next fill resolves, so a slot counts only if it names an
    /// embedding of `v` this fill resolved remotely.
    #[inline]
    pub fn holder(&self, embs: &[Emb], v: VertexId, hash: u64) -> Option<(u32, Option<VertexId>)> {
        let mut index = hash as usize & self.mask;
        while let Some(slot) = self.slots.get(index).filter(|slot| slot.emb1 != 0) {
            if slot.vertex == v {
                let j = slot.emb1 - 1;
                let e = embs.get(j as usize)?;
                let served = matches!(
                    e.list,
                    ListRef::Fetched { .. } | ListRef::Hot(_) | ListRef::Cached(_)
                );
                let above = self.above1[j as usize].checked_sub(1);
                return (e.vertex == v && served).then_some((j, above));
            }
            index = (index + 1) & self.mask;
        }
        None
    }
}

/// A hot fetched list: its span of a reply, the bound it was fetched
/// above, and where its bitmap is in [`Chunk::bitmaps`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct HotList {
    seg: u16,
    start: u32,
    len: u32,
    above: Option<VertexId>,
    words: (u32, u32),
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
    /// The hot lists among this fill's fetched ones, by [`ListRef::Hot`]
    /// index: one per claimant, which its peers read through it. A bitmap
    /// covers the ids above its list's cut and is no larger than the list
    /// (and a word), so a fill's bitmaps never outweigh what it fetched.
    pub hot: Vec<HotList>,
    /// Arena of their bitmaps.
    pub bitmaps: Vec<u64>,
    /// Cache entries this level's [`ListRef::Cached`] embeddings read,
    /// pinned until the level is released.
    pub pins: Vec<Arc<Entry>>,
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
        self.hot.clear();
        self.bitmaps.clear();
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
    pub fn push_pinned(&mut self, entry: Arc<Entry>) -> ListRef {
        self.pins.push(entry);
        ListRef::Cached((self.pins.len() - 1) as u32)
    }

    /// Resolves a `Cached` index.
    #[inline]
    pub fn pinned(&self, i: u32) -> Side<'_> {
        self.pins[i as usize].side()
    }

    /// Resolves a `Fetched` span.
    #[inline]
    pub fn fetched(&self, seg: u16, start: u32, len: u32) -> &[VertexId] {
        &self.segments[seg as usize][start as usize..(start + len) as usize]
    }

    /// Where the fetched `list` — the span `(seg, start)` of a reply this
    /// chunk is adopting, asked for above `above` — lives: a plain span,
    /// or, if it is hot as cut for a graph of `vertices` vertices, a
    /// [`HotList`] with the bitmap built here over the ids above the cut.
    pub fn home_fetched(
        &mut self,
        (seg, start): (u16, u32),
        list: &[VertexId],
        above: Option<VertexId>,
        vertices: usize,
    ) -> ListRef {
        let len = list.len() as u32;
        if !set_ops::is_hot(list.len(), above, vertices) {
            return ListRef::Fetched { seg, start, len };
        }
        let at = self.bitmaps.len() as u32;
        set_ops::push_bitmap(list, above, vertices, &mut self.bitmaps);
        let words = (at, self.bitmaps.len() as u32 - at);
        self.hot.push(HotList { seg, start, len, above, words });
        ListRef::Hot(self.hot.len() as u32 - 1)
    }

    /// Resolves a `Hot` index: the list and its bitmap.
    #[inline]
    pub fn hot_list(&self, i: u32) -> Side<'_> {
        let HotList { seg, start, len, above, words: (at, n) } = self.hot[i as usize];
        let words = &self.bitmaps[at as usize..(at + n) as usize];
        Side { list: self.fetched(seg, start, len), bits: Some(Bits::new(words, above)) }
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

/// A child embedding staged for pushing or for a walk in place: `(vertex,
/// raw candidate index)`, and where a walked child's list lives: the
/// embedding of the parent's chunk that holds it, or (`None`) the part.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StagedChild {
    pub vertex: VertexId,
    pub raw_index: u32,
    pub held: Option<u32>,
}

impl Chunk {
    /// Pushes the children of `parent` (staged in raw-candidate order)
    /// into this chunk, honoring capacity. If `inter` is provided and at
    /// least one child is pushed, the intermediate result is stored once
    /// and shared by every pushed child. `list` says where a child's list
    /// will live: [`ListRef::Pending`] with its bound where the new vertex
    /// is active, [`ListRef::None`] where it is not.
    pub fn try_push_children(
        &mut self,
        parent: u32,
        children: &[StagedChild],
        list: impl Fn(VertexId) -> ListRef,
        inter: Option<&[VertexId]>,
    ) -> PushOutcome {
        let n = children.len().min(self.room());
        if n > 0 {
            let span = inter.map(|d| self.push_inter(d));
            for c in &children[..n] {
                self.embs.push(Emb { parent, vertex: c.vertex, list: list(c.vertex), inter: span });
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

    fn inactive(_: VertexId) -> ListRef {
        ListRef::None
    }

    fn staged(vs: &[VertexId]) -> Vec<StagedChild> {
        vs.iter()
            .enumerate()
            .map(|(i, &v)| StagedChild { vertex: v, raw_index: i as u32, held: None })
            .collect()
    }

    #[test]
    fn push_within_capacity() {
        let mut c = Chunk::new(10);
        let above = |v: VertexId| ListRef::Pending(Some(v * 10));
        let out = c.try_push_children(NO_PARENT, &staged(&[1, 2, 3]), above, None);
        assert_eq!(out, PushOutcome::All);
        assert_eq!(c.embs.len(), 3);
        assert!(c.embs.iter().all(|e| e.list == ListRef::Pending(Some(e.vertex * 10))));
        assert!(c.has_work());
    }

    #[test]
    fn push_truncates_at_capacity() {
        let mut c = Chunk::new(2);
        let out = c.try_push_children(0, &staged(&[1, 2, 3, 4]), inactive, None);
        assert_eq!(out, PushOutcome::Partial(2));
        assert_eq!(c.embs.len(), 2);
        assert_eq!(c.room(), 0);
        let out2 = c.try_push_children(0, &staged(&[9]), inactive, None);
        assert_eq!(out2, PushOutcome::Partial(0));
    }

    #[test]
    fn inter_shared_among_siblings() {
        let mut c = Chunk::new(10);
        c.try_push_children(0, &staged(&[5, 6]), inactive, Some(&[7, 8, 9]));
        let s0 = c.embs[0].inter.unwrap();
        let s1 = c.embs[1].inter.unwrap();
        assert_eq!(s0, s1);
        assert_eq!(c.inter(s0), &[7, 8, 9]);
    }

    #[test]
    fn inter_not_stored_when_nothing_pushed() {
        let mut c = Chunk::new(0);
        c.try_push_children(0, &staged(&[5]), inactive, Some(&[1, 2]));
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
    fn a_hot_fetched_list_gets_its_bitmap_in_the_chunk_and_goes_with_it() {
        // |V| = 96: a whole list of three entries is hot, and so is one
        // cut above 4 (91 ids it can hold). A window of two ids cut above
        // 70 can hold only 25 ids: it is hot too, with a bitmap of the one
        // word that holds them. Two ids cut above 4, or one whole, are not.
        let mut c = Chunk::new(4);
        let payload: Vec<VertexId> = vec![5, 9, 40, 41, 90, 7, 71, 90, 5, 40];
        let seg = c.next_segment();
        let cut = c.home_fetched((seg, 0), &payload[..5], Some(4), 96);
        let cold = c.home_fetched((seg, 5), &payload[5..6], None, 96);
        let high = c.home_fetched((seg, 6), &payload[6..8], Some(70), 96);
        let low = c.home_fetched((seg, 8), &payload[8..], Some(4), 96);
        c.segments.push(payload);
        assert_eq!((cut, cold), (ListRef::Hot(0), ListRef::Fetched { seg, start: 5, len: 1 }));
        assert_eq!((high, low), (ListRef::Hot(1), ListRef::Fetched { seg, start: 8, len: 2 }));
        let side = c.hot_list(0);
        assert_eq!(side.list, &[5, 9, 40, 41, 90]);
        let bits = side.bits.expect("a hot list carries its bitmap");
        assert!((5..96).all(|v| bits.contains(v) == side.list.contains(&v)));
        let side = c.hot_list(1);
        let bits = side.bits.expect("a hot window carries its bitmap");
        assert!((71..96).all(|v| bits.contains(v) == side.list.contains(&v)));
        // At or below the cut it holds nothing, and a debug build refuses
        // the question.
        #[cfg(debug_assertions)]
        assert!(std::panic::catch_unwind(|| bits.contains(40)).is_err());
        assert_eq!(c.bitmaps.len(), 3);
        c.clear();
        assert!(c.hot.is_empty() && c.bitmaps.is_empty(), "release drops the fill's bitmaps");
    }

    #[test]
    fn clear_releases_everything() {
        let mut c = Chunk::new(4);
        c.try_push_children(0, &staged(&[1]), |_| ListRef::Pending(None), Some(&[2]));
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

    fn pending(vertex: VertexId, above: Option<VertexId>) -> Emb {
        Emb { parent: NO_PARENT, vertex, list: ListRef::Pending(above), inter: None }
    }

    fn share(t: &mut ShareTable, embs: &mut [Emb], i: usize) -> bool {
        t.share(embs, i, gpm_graph::partition::vertex_hash(embs[i].vertex))
    }

    #[test]
    fn share_table_claim_and_hit() {
        let mut t = ShareTable::default();
        t.reset(8);
        let mut embs = vec![pending(42, Some(5)); 3];
        assert!(!share(&mut t, &mut embs, 0)); // claimed
        assert!(share(&mut t, &mut embs, 1)); // shared
        assert!(share(&mut t, &mut embs, 2));
        assert_eq!(embs[1].list, ListRef::Peer(0));
        assert_eq!(embs[2].list, ListRef::Peer(0));
        assert_eq!(embs[0].list, ListRef::Pending(Some(5)));
    }

    #[test]
    fn share_table_before_first_reset_shares_nothing() {
        let mut t = ShareTable::default();
        let mut embs = vec![pending(42, None); 2];
        assert!(!share(&mut t, &mut embs, 0));
        assert!(!share(&mut t, &mut embs, 1));
        assert!(embs.iter().all(|e| e.list == ListRef::Pending(None)));
    }

    #[test]
    fn share_table_never_drops_and_keeps_the_lowest_bound() {
        // A fill as large as the table is sized for (half its slots), with
        // every vertex hashed to the same home slot so each probe runs past
        // all the claims before it: every vertex is claimed by its first
        // embedding, every later one shares it, and the claimant ends with
        // the lowest bound among them (`None`, the whole list, is lower
        // than any bound).
        let capacity = 64;
        let mut t = ShareTable::default();
        t.reset(capacity);
        assert_eq!(t.slots.len(), 2 * capacity);
        let home = |v: VertexId| gpm_graph::partition::vertex_hash(v) as usize & t.mask;
        let vertices: Vec<VertexId> = (0..).filter(|&v| home(v) == home(0)).take(37).collect();
        let readers = |k: usize| -> &[Option<VertexId>] {
            match k {
                0..12 => &[Some(30), Some(10), Some(40)],
                12 => &[Some(30), Some(10), None, Some(40)],
                _ => &[Some(7)],
            }
        };
        let mut embs = Vec::new();
        for (k, &v) in vertices.iter().enumerate() {
            embs.extend(readers(k).iter().map(|&above| pending(v, above)));
        }
        assert_eq!(embs.len(), capacity);
        let mut first: Vec<usize> = Vec::new();
        for i in 0..embs.len() {
            if !share(&mut t, &mut embs, i) {
                first.push(i);
            }
        }
        assert_eq!(first.len(), vertices.len(), "a claim was dropped");
        for (k, &claimant) in first.iter().enumerate() {
            assert_eq!(embs[claimant].vertex, vertices[k]);
            let lowest = readers(k).iter().copied().min().unwrap();
            assert_eq!(embs[claimant].list, ListRef::Pending(lowest), "{}", vertices[k]);
        }
        for e in &embs {
            if let ListRef::Peer(j) = e.list {
                assert_eq!(embs[j as usize].vertex, e.vertex, "a peer of another vertex");
                assert!(first.contains(&(j as usize)), "a peer chain");
            }
        }
        let shared = embs.iter().filter(|e| matches!(e.list, ListRef::Peer(_))).count();
        assert_eq!(shared + first.len(), embs.len());
    }

    #[test]
    fn share_table_reset_forgets_every_entry() {
        let mut t = ShareTable::default();
        t.reset(8);
        let mut embs: Vec<Emb> = (0..8).map(|v| pending(v, None)).collect();
        for i in 0..embs.len() {
            share(&mut t, &mut embs, i);
        }
        t.reset(8);
        assert!(t.slots.iter().all(|s| s.emb1 == 0), "a reset leaves no slot written");
        let mut again: Vec<Emb> = (0..8).map(|v| pending(v, None)).collect();
        for i in 0..again.len() {
            assert!(!share(&mut t, &mut again, i), "stale entry for {i} survived reset");
        }
        assert!(std::mem::size_of::<ShareSlot>() <= 8);
    }

    #[test]
    fn holder_names_a_resolved_claimant_of_this_fill_with_its_lowest_bound() {
        let holder = |t: &ShareTable, embs: &[Emb], v: VertexId| {
            t.holder(embs, v, gpm_graph::partition::vertex_hash(v))
        };
        let mut t = ShareTable::default();
        let mut embs = vec![
            pending(42, Some(30)),
            pending(42, Some(10)),
            pending(7, None),
            pending(9, Some(3)),
        ];
        assert_eq!(holder(&t, &embs, 42), None, "a table never reset holds nothing");
        t.reset(8);
        assert_eq!(holder(&t, &embs, 42), None, "an empty table holds nothing");
        for i in 0..embs.len() {
            share(&mut t, &mut embs, i);
        }
        assert_eq!(holder(&t, &embs, 42), None, "a claimant still waiting holds nothing");
        // The fill resolves; each claimant's list is fetched, cold or hot,
        // or served by the cache.
        let fetched = ListRef::Fetched { seg: 0, start: 0, len: 1 };
        embs[0].list = fetched;
        embs[2].list = ListRef::Cached(0);
        embs[3].list = ListRef::Hot(0);
        assert_eq!(holder(&t, &embs, 42), Some((0, Some(10))), "the sharer lowered the bound");
        assert_eq!(holder(&t, &embs, 7), Some((2, None)));
        assert_eq!(holder(&t, &embs, 9), Some((3, Some(3))));
        assert_eq!(holder(&t, &embs, 8), None, "never claimed");
        // The chunk is released and refilled, and the table waits for the
        // next fill's resolve to be reset: its slots name an embedding of
        // another vertex, one whose list this fill did not fetch, and one
        // past the fill's end. None of them holds anything.
        let owned = Emb { list: ListRef::Local, ..pending(7, None) };
        let next = [Emb { list: fetched, ..pending(5, None) }, pending(6, None), owned];
        for v in [42, 7, 9] {
            assert_eq!(holder(&t, &next, v), None, "{v}: a slot left by an earlier fill");
        }
    }

    #[test]
    fn share_table_resize_starts_a_clean_table() {
        let mut t = ShareTable::default();
        t.reset(8);
        let mut embs = vec![pending(7, None); 2];
        share(&mut t, &mut embs, 0);
        t.reset(64);
        assert!(!share(&mut t, &mut embs, 1));
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
            ListRef::Cached(i) => assert_eq!(c.pinned(i).list, &[7; 10]),
            other => panic!("unexpected {other:?}"),
        }
        c.clear();
        assert!(c.pins.is_empty(), "release drops the level's pins as a whole");
    }
}
