//! 1-D hash graph partitioning (paper §2.2) with NUMA sub-partitioning
//! (§5.4).
//!
//! The input is first ranked by degree ([`crate::rank`]): every id a part
//! stores or serves is a ranked id, and the partitioned graph keeps the
//! permutation back to the input's ids. The vertex set is divided among
//! `machines × sockets` *parts* by a mixing hash; part `p` stores the full
//! (sorted) edge list of every vertex it owns — "all edges with at least
//! one endpoint in V_i". Vertex labels are replicated to every part: they
//! cost 2 bytes per vertex and labeled matching must test the label of
//! arbitrary candidate vertices, so replication is the standard choice.

use crate::csr::Graph;
use crate::rank;
use crate::set_ops::{Bits, HotLists};
use crate::{Degree, Label, VertexId};
use std::sync::Arc;

/// SplitMix64-style mixing hash used to assign vertices to parts.
///
/// Deterministic and well-mixed so that consecutively-numbered hub
/// vertices (e.g. Barabási–Albert seeds) spread across machines, the
/// "balanced data distribution" requirement of §2.2.
#[inline]
pub fn vertex_hash(v: VertexId) -> u64 {
    let mut x = (v as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Vertex-to-part assignment strategy.
///
/// The paper uses hash partitioning "to ensure balanced data
/// distribution" (§2.2); the range strategy exists to demonstrate why —
/// ranked ids ascend with degree, so ranges concentrate the hubs on the
/// last part.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Partitioner {
    /// Mixing-hash assignment (the paper's choice).
    #[default]
    Hash,
    /// Contiguous ranges of (ranked) vertex ids: the hubs land on the
    /// last part.
    Range,
}

/// A copyable resolver from vertex to owning part, shared by the engine
/// and the message layers so the owner computation is defined in exactly
/// one place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OwnerMap {
    strategy: Partitioner,
    parts: usize,
    vertices: usize,
}

impl OwnerMap {
    /// Resolver for `parts` parts over `vertices` vertices.
    pub fn new(strategy: Partitioner, parts: usize, vertices: usize) -> Self {
        assert!(parts >= 1, "need at least one part");
        OwnerMap { strategy, parts, vertices }
    }

    /// Number of parts.
    pub fn parts(&self) -> usize {
        self.parts
    }

    /// The part owning vertex `v`.
    #[inline]
    pub fn owner(&self, v: VertexId) -> usize {
        self.owner_hashed(v, vertex_hash(v))
    }

    /// [`OwnerMap::owner`] for a caller that already holds
    /// `hash == vertex_hash(v)` — the resolve loop computes the hash once
    /// per embedding and feeds it to every table keyed by it.
    #[inline]
    pub fn owner_hashed(&self, v: VertexId, hash: u64) -> usize {
        debug_assert_eq!(hash, vertex_hash(v));
        match self.strategy {
            Partitioner::Hash => (hash % self.parts as u64) as usize,
            Partitioner::Range => {
                let span = self.vertices.div_ceil(self.parts).max(1);
                ((v as usize) / span).min(self.parts - 1)
            }
        }
    }
}

/// The sub-graph owned by one part (one socket of one machine).
#[derive(Debug, Clone)]
pub struct GraphPart {
    part_id: usize,
    owned: Vec<VertexId>,
    offsets: Vec<u64>,
    neighbors: Vec<VertexId>,
    /// `rank_of[v]` = position of `v` in `owned`, or [`NOT_OWNED`]; dense
    /// over `0..=owned.last()`, so ids past the table are not owned.
    rank_of: Vec<u32>,
    /// `|V|` of the whole graph: the id space the bitmaps cover.
    vertices: usize,
    /// Bitmaps of the hot owned lists, by rank.
    hot: HotLists,
}

/// `rank_of` entry of a vertex another part owns.
const NOT_OWNED: u32 = u32::MAX;

impl GraphPart {
    /// Builds the part, its vertex→rank index and the bitmaps of its hot
    /// lists from CSR columns the caller has already checked (`owned`
    /// strictly sorted) of a graph of `vertices` vertices.
    fn indexed(
        part_id: usize,
        owned: Vec<VertexId>,
        offsets: Vec<u64>,
        neighbors: Vec<VertexId>,
        vertices: usize,
    ) -> GraphPart {
        assert!(owned.len() < NOT_OWNED as usize, "too many owned vertices for a u32 rank");
        let mut rank_of = vec![NOT_OWNED; owned.last().map_or(0, |&v| v as usize + 1)];
        for (rank, &v) in owned.iter().enumerate() {
            rank_of[v as usize] = rank as u32;
        }
        let list = |rank: usize| &neighbors[offsets[rank] as usize..offsets[rank + 1] as usize];
        let hot = HotLists::build(vertices, (0..owned.len()).map(list));
        GraphPart { part_id, owned, offsets, neighbors, rank_of, vertices, hot }
    }

    /// Rebuilds a part of a graph of `vertices` vertices from raw CSR
    /// columns — the receive side of a slice transfer (replica
    /// re-replication streams exactly these three arrays). The columns
    /// must describe a well-formed CSR:
    /// sorted owned vertices, `owned.len() + 1` monotone offsets starting
    /// at 0, and a neighbor array whose length matches the last offset.
    ///
    /// # Panics
    ///
    /// Panics when the columns are inconsistent — a corrupted transfer
    /// must never install a slice that panics later at serve time.
    pub fn from_csr(
        part_id: usize,
        owned: Vec<VertexId>,
        offsets: Vec<u64>,
        neighbors: Vec<VertexId>,
        vertices: usize,
    ) -> GraphPart {
        assert_eq!(offsets.len(), owned.len() + 1, "offset column length mismatch");
        assert_eq!(offsets.first(), Some(&0), "offset column must start at 0");
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "offset column must be monotone");
        assert_eq!(
            *offsets.last().unwrap() as usize,
            neighbors.len(),
            "neighbor column length mismatch"
        );
        assert!(owned.windows(2).all(|w| w[0] < w[1]), "owned column must be strictly sorted");
        GraphPart::indexed(part_id, owned, offsets, neighbors, vertices)
    }

    /// Identifier of this part within its [`PartitionedGraph`].
    pub fn part_id(&self) -> usize {
        self.part_id
    }

    /// Sorted list of vertices owned by this part.
    pub fn owned(&self) -> &[VertexId] {
        &self.owned
    }

    /// The raw CSR offset column (`owned_count() + 1` entries) — the
    /// send side of a slice transfer.
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The raw CSR adjacency column — the send side of a slice transfer.
    pub fn neighbors(&self) -> &[VertexId] {
        &self.neighbors
    }

    /// Number of owned vertices.
    pub fn owned_count(&self) -> usize {
        self.owned.len()
    }

    /// `|V|` of the graph this part belongs to.
    pub fn vertex_count(&self) -> usize {
        self.vertices
    }

    #[inline]
    fn rank(&self, v: VertexId) -> Option<usize> {
        match self.rank_of.get(v as usize) {
            Some(&rank) if rank != NOT_OWNED => Some(rank as usize),
            _ => None,
        }
    }

    /// Edge list of `v` if this part owns it, `None` otherwise. One
    /// load from the vertex→rank index, no search.
    #[inline]
    pub fn edge_list(&self, v: VertexId) -> Option<&[VertexId]> {
        self.rank(v).map(|rank| self.edge_list_by_rank(rank))
    }

    /// The bitmap of `v`'s list if this part owns `v` and the list is hot.
    #[inline]
    pub fn bits(&self, v: VertexId) -> Option<Bits<'_>> {
        self.hot.get(self.rank(v)?)
    }

    /// Edge list of the `rank`-th owned vertex.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= self.owned_count()`.
    #[inline]
    pub fn edge_list_by_rank(&self, rank: usize) -> &[VertexId] {
        let lo = self.offsets[rank] as usize;
        let hi = self.offsets[rank + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// Number of adjacency entries stored by this part.
    pub fn adjacency_len(&self) -> usize {
        self.neighbors.len()
    }

    /// In-memory size of this part's CSR arrays, vertex→rank index and
    /// hot lists' bitmaps in bytes.
    pub fn size_bytes(&self) -> usize {
        self.owned.len() * std::mem::size_of::<VertexId>()
            + self.offsets.len() * std::mem::size_of::<u64>()
            + self.neighbors.len() * std::mem::size_of::<VertexId>()
            + self.rank_of.len() * std::mem::size_of::<u32>()
            + self.hot.size_bytes()
    }
}

/// A degree-ranked graph hash-partitioned across
/// `machines × sockets_per_machine` parts.
///
/// # Example
///
/// ```
/// use gpm_graph::{gen, partition::PartitionedGraph, rank::rank_by_degree};
///
/// let g = gen::erdos_renyi(100, 400, 1);
/// let pg = PartitionedGraph::new(&g, 2, 2); // 2 machines, 2 sockets each
/// assert_eq!(pg.part_count(), 4);
/// let (ranked, original) = rank_by_degree(&g);
/// let v = 42; // a ranked id: the input's vertex original[42]
/// assert_eq!(pg.original_id(v), original[42]);
/// assert_eq!(pg.part(pg.owner(v)).edge_list(v).unwrap(), ranked.neighbors(v));
/// ```
#[derive(Debug, Clone)]
pub struct PartitionedGraph {
    machines: usize,
    sockets_per_machine: usize,
    vertex_count: usize,
    /// `original[v]`: the input's id of the ranked vertex `v`.
    original: Arc<[VertexId]>,
    owner_map: OwnerMap,
    parts: Vec<Arc<GraphPart>>,
    labels: Option<Arc<Vec<Label>>>,
    /// Replication factor `r`: every part's edge lists are also hosted
    /// by its `r - 1` hash predecessors, so `r = 1` means no replicas.
    replication: usize,
    /// `replicas[host]` = the parts whose edge-list slices `host` stores
    /// in addition to its own: its hash successors
    /// `host+1 … host+r-1 (mod n)`. Replica slices are separate from the
    /// primary (`part(p).edge_list` still answers only for owned
    /// vertices); in this in-process simulation they share the primary's
    /// CSR arrays through the `Arc`.
    replicas: Vec<Vec<Arc<GraphPart>>>,
}

impl PartitionedGraph {
    /// Partitions `g` across `machines` machines with
    /// `sockets_per_machine` NUMA sockets each, using hash assignment
    /// (the paper's strategy).
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    pub fn new(g: &Graph, machines: usize, sockets_per_machine: usize) -> Self {
        PartitionedGraph::with_partitioner(g, machines, sockets_per_machine, Partitioner::Hash)
    }

    /// Ranks `g` by degree ([`crate::rank`]) and partitions the ranked
    /// graph with an explicit [`Partitioner`] strategy.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    pub fn with_partitioner(
        g: &Graph,
        machines: usize,
        sockets_per_machine: usize,
        strategy: Partitioner,
    ) -> Self {
        assert!(machines >= 1 && sockets_per_machine >= 1, "need at least one part");
        let part_count = machines * sockets_per_machine;
        let n = g.vertex_count();
        let owner_map = OwnerMap::new(strategy, part_count, n);
        let original = rank::degree_order(g);
        let parts = rank::ranked_columns(g, &original, part_count, |v| owner_map.owner(v))
            .into_iter()
            .enumerate()
            .map(|(part_id, (owned, offsets, neighbors))| {
                Arc::new(GraphPart::indexed(part_id, owned, offsets, neighbors, n))
            })
            .collect();
        PartitionedGraph {
            machines,
            sockets_per_machine,
            vertex_count: n,
            labels: g.labels().map(|l| Arc::new(rank::permuted_labels(l, &original))),
            original: original.into(),
            owner_map,
            parts,
            replication: 1,
            replicas: vec![Vec::new(); part_count],
        }
    }

    /// Partitions with hash assignment and replication factor `r`:
    /// besides its own slice, every part hosts the edge-list slices of
    /// its `r - 1` hash successors, so any single fail-stop part failure
    /// leaves every slice reachable whenever `r ≥ 2`.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero or `r` is zero or exceeds the part
    /// count.
    pub fn with_replication(
        g: &Graph,
        machines: usize,
        sockets_per_machine: usize,
        r: usize,
    ) -> Self {
        let mut pg = PartitionedGraph::new(g, machines, sockets_per_machine);
        pg.set_replication(r);
        pg
    }

    /// (Re)assigns the replication factor, rebuilding the replica
    /// placement: part `p` hosts the slices of parts
    /// `p+1 … p+r-1 (mod n)`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is zero or exceeds the part count.
    pub fn set_replication(&mut self, r: usize) {
        let n = self.parts.len();
        assert!(r >= 1, "replication factor must be at least 1");
        assert!(r <= n, "replication factor {r} exceeds part count {n}");
        self.replication = r;
        self.replicas = (0..n)
            .map(|host| (1..r).map(|k| Arc::clone(&self.parts[(host + k) % n])).collect())
            .collect();
    }

    /// The copyable vertex→part resolver used by all message layers.
    pub fn owner_map(&self) -> OwnerMap {
        self.owner_map
    }

    /// Number of machines.
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// NUMA sockets per machine.
    pub fn sockets_per_machine(&self) -> usize {
        self.sockets_per_machine
    }

    /// Total number of parts (`machines × sockets_per_machine`).
    pub fn part_count(&self) -> usize {
        self.parts.len()
    }

    /// Number of vertices in the whole graph.
    pub fn vertex_count(&self) -> usize {
        self.vertex_count
    }

    /// The input's id of the ranked vertex `v`.
    #[inline]
    pub fn original_id(&self, v: VertexId) -> VertexId {
        self.original[v as usize]
    }

    /// The first ranked id whose degree is at least `threshold`, or `|V|`
    /// when none is: ids ascend with degree, so `degree(v) ≥ threshold`
    /// exactly when `v ≥ hot_from(threshold)`. A binary search over the
    /// owning parts' list lengths.
    pub fn hot_from(&self, threshold: Degree) -> VertexId {
        let degree = |v| self.part(self.owner(v)).edge_list(v).map_or(0, <[_]>::len);
        let (mut lo, mut hi) = (0, self.vertex_count as VertexId);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if (degree(mid) as Degree) < threshold {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// The part owning vertex `v`.
    #[inline]
    pub fn owner(&self, v: VertexId) -> usize {
        self.owner_map.owner(v)
    }

    /// The machine a part belongs to.
    #[inline]
    pub fn machine_of_part(&self, part: usize) -> usize {
        part / self.sockets_per_machine
    }

    /// The socket (within its machine) a part belongs to.
    #[inline]
    pub fn socket_of_part(&self, part: usize) -> usize {
        part % self.sockets_per_machine
    }

    /// Borrow a part.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn part(&self, id: usize) -> &GraphPart {
        &self.parts[id]
    }

    /// Shared handle to a part, for moving into a machine thread.
    pub fn part_arc(&self, id: usize) -> Arc<GraphPart> {
        Arc::clone(&self.parts[id])
    }

    /// Replicated label array by ranked id (present iff the input graph
    /// was labeled).
    pub fn labels(&self) -> Option<Arc<Vec<Label>>> {
        self.labels.clone()
    }

    /// Label of `v`, if the graph is labeled.
    #[inline]
    pub fn label(&self, v: VertexId) -> Option<Label> {
        self.labels.as_ref().map(|l| l[v as usize])
    }

    /// Sum of all parts' CSR bytes — the partitioned memory footprint.
    pub fn total_size_bytes(&self) -> usize {
        self.parts.iter().map(|p| p.size_bytes()).sum()
    }

    /// Replication factor `r` (1 = no replicas).
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// The replica slices hosted by `host` besides its own: the parts
    /// `host+1 … host+r-1 (mod n)`, in placement order.
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range.
    pub fn hosted_replicas(&self, host: usize) -> &[Arc<GraphPart>] {
        &self.replicas[host]
    }

    /// The parts hosting a replica of `source`'s slice, nearest
    /// (hash-predecessor) first: `source-1 … source-(r-1) (mod n)`.
    /// Empty when `r = 1`. A fetch for a dead `source` fails over to the
    /// first live entry.
    pub fn replica_holders(&self, source: usize) -> Vec<usize> {
        let n = self.parts.len();
        (1..self.replication).map(|k| (source + n - k) % n).collect()
    }

    /// Bytes of CSR data hosted as replicas across all parts — the
    /// memory cost of the replication factor on top of
    /// [`PartitionedGraph::total_size_bytes`].
    pub fn replica_size_bytes(&self) -> usize {
        self.replicas.iter().flatten().map(|p| p.size_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::rank::rank_by_degree;

    #[test]
    fn parts_cover_and_partition_vertices() {
        let g = gen::erdos_renyi(500, 2000, 4);
        let pg = PartitionedGraph::new(&g, 3, 2);
        let mut seen = vec![false; 500];
        for p in 0..pg.part_count() {
            for &v in pg.part(p).owned() {
                assert!(!seen[v as usize], "vertex {v} owned twice");
                seen[v as usize] = true;
                assert_eq!(pg.owner(v), p, "owner() disagrees with membership");
            }
        }
        assert!(seen.iter().all(|&s| s), "some vertex unowned");
    }

    #[test]
    fn edge_lists_match_source_graph() {
        let input = gen::barabasi_albert(300, 3, 8);
        let pg = PartitionedGraph::new(&input, 4, 1);
        let (g, original) = rank_by_degree(&input);
        assert!(g.vertices().all(|v| pg.original_id(v) == original[v as usize]));
        for v in g.vertices() {
            let part = pg.part(pg.owner(v));
            assert_eq!(part.edge_list(v).unwrap(), g.neighbors(v));
        }
    }

    #[test]
    fn non_owner_returns_none() {
        let g = gen::complete(16);
        let pg = PartitionedGraph::new(&g, 4, 1);
        for v in g.vertices() {
            for p in 0..4 {
                if p != pg.owner(v) {
                    assert!(pg.part(p).edge_list(v).is_none());
                }
            }
        }
    }

    #[test]
    fn partition_is_reasonably_balanced() {
        let g = gen::erdos_renyi(4000, 16000, 2);
        let pg = PartitionedGraph::new(&g, 8, 1);
        let expected = 4000 / 8;
        for p in 0..8 {
            let c = pg.part(p).owned_count();
            assert!(
                c > expected / 2 && c < expected * 2,
                "part {p} owns {c}, expected around {expected}"
            );
        }
    }

    #[test]
    fn machine_socket_mapping() {
        let g = gen::complete(10);
        let pg = PartitionedGraph::new(&g, 2, 2);
        assert_eq!(pg.machine_of_part(0), 0);
        assert_eq!(pg.machine_of_part(1), 0);
        assert_eq!(pg.machine_of_part(2), 1);
        assert_eq!(pg.socket_of_part(1), 1);
        assert_eq!(pg.socket_of_part(2), 0);
    }

    #[test]
    fn labels_replicated() {
        let g = gen::with_random_labels(&gen::barabasi_albert(20, 3, 1), 5, 3);
        let pg = PartitionedGraph::new(&g, 3, 1);
        for v in g.vertices() {
            assert_eq!(pg.label(v), g.label(pg.original_id(v)));
        }
    }

    #[test]
    fn single_part_owns_everything() {
        let g = gen::complete(7);
        let pg = PartitionedGraph::new(&g, 1, 1);
        assert_eq!(pg.part(0).owned_count(), 7);
        assert_eq!(pg.part(0).adjacency_len(), g.adjacency_len());
    }

    #[test]
    #[should_panic(expected = "at least one part")]
    fn zero_machines_panics() {
        PartitionedGraph::new(&gen::complete(3), 0, 1);
    }

    #[test]
    fn range_partitioning_assigns_contiguous_blocks() {
        let input = gen::erdos_renyi(100, 300, 1);
        let pg = PartitionedGraph::with_partitioner(&input, 4, 1, Partitioner::Range);
        let g = rank_by_degree(&input).0;
        for v in g.vertices() {
            assert_eq!(pg.owner(v), (v as usize) / 25);
            let part = pg.part(pg.owner(v));
            assert_eq!(part.edge_list(v).unwrap(), g.neighbors(v));
        }
    }

    #[test]
    fn range_partitioning_concentrates_ba_hubs() {
        // Ranked ids ascend with degree: range partitioning puts the
        // heavy adjacency mass on the last part — the imbalance hash
        // partitioning exists to avoid (§2.2).
        let g = gen::barabasi_albert(4000, 8, 3);
        let range = PartitionedGraph::with_partitioner(&g, 4, 1, Partitioner::Range);
        let hash = PartitionedGraph::with_partitioner(&g, 4, 1, Partitioner::Hash);
        let load = |pg: &PartitionedGraph| -> (usize, usize) {
            let loads: Vec<usize> = (0..4).map(|p| pg.part(p).adjacency_len()).collect();
            (*loads.iter().max().unwrap(), *loads.iter().min().unwrap())
        };
        let (range_max, range_min) = load(&range);
        let (hash_max, hash_min) = load(&hash);
        assert_eq!(range.part(3).adjacency_len(), range_max, "the hubs sit on the last part");
        let range_skew = range_max as f64 / range_min.max(1) as f64;
        let hash_skew = hash_max as f64 / hash_min.max(1) as f64;
        assert!(
            range_skew > 2.0 * hash_skew,
            "expected range skew ({range_skew:.2}) >> hash skew ({hash_skew:.2})"
        );
    }

    #[test]
    fn owner_map_is_copyable_and_consistent() {
        let g = gen::complete(30);
        let pg = PartitionedGraph::with_partitioner(&g, 3, 2, Partitioner::Hash);
        let map = pg.owner_map();
        assert_eq!(map.parts(), 6);
        for v in g.vertices() {
            assert_eq!(map.owner(v), pg.owner(v));
        }
    }

    #[test]
    fn replication_places_successor_slices() {
        let input = gen::erdos_renyi(200, 800, 7);
        let pg = PartitionedGraph::with_replication(&input, 4, 1, 2);
        let g = rank_by_degree(&input).0;
        assert_eq!(pg.replication(), 2);
        for host in 0..4 {
            let hosted = pg.hosted_replicas(host);
            assert_eq!(hosted.len(), 1);
            assert_eq!(hosted[0].part_id(), (host + 1) % 4);
        }
        // Holder list is the inverse mapping, nearest predecessor first.
        for source in 0..4 {
            assert_eq!(pg.replica_holders(source), vec![(source + 4 - 1) % 4]);
        }
        // Replica slices answer exactly what the primary answers.
        for v in g.vertices() {
            let owner = pg.owner(v);
            let holder = pg.replica_holders(owner)[0];
            let replica = pg
                .hosted_replicas(holder)
                .iter()
                .find_map(|p| p.edge_list(v))
                .expect("replica must hold the slice");
            assert_eq!(replica, g.neighbors(v));
        }
        assert_eq!(pg.replica_size_bytes(), pg.total_size_bytes());
    }

    #[test]
    fn no_replication_by_default() {
        let g = gen::complete(12);
        let pg = PartitionedGraph::new(&g, 3, 1);
        assert_eq!(pg.replication(), 1);
        assert!(pg.replica_holders(0).is_empty());
        assert!(pg.hosted_replicas(2).is_empty());
        assert_eq!(pg.replica_size_bytes(), 0);
    }

    #[test]
    fn full_replication_covers_all_other_parts() {
        let g = gen::complete(12);
        let mut pg = PartitionedGraph::new(&g, 3, 1);
        pg.set_replication(3);
        for source in 0..3 {
            let holders = pg.replica_holders(source);
            assert_eq!(holders.len(), 2);
            assert!(!holders.contains(&source), "a part never replicates itself");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds part count")]
    fn over_replication_panics() {
        let g = gen::complete(6);
        PartitionedGraph::with_replication(&g, 2, 1, 3);
    }

    #[test]
    fn from_csr_roundtrips_a_part() {
        let g = gen::erdos_renyi(120, 500, 5);
        let pg = PartitionedGraph::new(&g, 3, 1);
        let src = pg.part(1);
        let rebuilt = GraphPart::from_csr(
            src.part_id(),
            src.owned().to_vec(),
            src.offsets().to_vec(),
            src.neighbors().to_vec(),
            src.vertex_count(),
        );
        assert_eq!(rebuilt.part_id(), 1);
        assert_eq!(rebuilt.owned_count(), src.owned_count());
        for &v in src.owned() {
            assert_eq!(rebuilt.edge_list(v), src.edge_list(v));
        }
    }

    #[test]
    #[should_panic(expected = "neighbor column length mismatch")]
    fn from_csr_rejects_truncated_columns() {
        GraphPart::from_csr(0, vec![1, 2], vec![0, 2, 4], vec![3], 4);
    }

    #[test]
    fn a_part_keeps_a_bitmap_beside_each_hot_owned_list_and_counts_it() {
        // |V| = 320: a list of ten or more entries is hot.
        let input = gen::barabasi_albert(320, 3, 11);
        let pg = PartitionedGraph::new(&input, 2, 1);
        let g = rank_by_degree(&input).0;
        let hot = |v: VertexId| crate::set_ops::is_hot(g.degree(v) as usize, None, 320);
        assert!(g.vertices().any(hot) && !g.vertices().all(hot));
        for p in 0..2 {
            let part = pg.part(p);
            let owned_hot = part.owned().iter().filter(|&&v| hot(v)).count();
            for &v in part.owned() {
                assert_eq!(part.bits(v).is_some(), hot(v), "{v}");
                if let Some(bits) = part.bits(v) {
                    assert!(g.vertices().all(|u| bits.contains(u) == g.has_edge(v, u)), "{v}");
                }
            }
            let other = pg.part(1 - p).owned();
            assert!(other.iter().all(|&v| part.bits(v).is_none()), "only owned lists");
            let rebuilt = GraphPart::from_csr(
                p,
                part.owned().to_vec(),
                part.offsets().to_vec(),
                part.neighbors().to_vec(),
                320,
            );
            assert!(part.owned().iter().all(|&v| rebuilt.bits(v).is_some() == hot(v)));
            assert_eq!(rebuilt.size_bytes(), part.size_bytes());
            // A slot per owned rank, then the bitmaps: five words a hot list.
            let csr =
                part.owned().len() * (4 + 8) + 8 + (part.adjacency_len() + part.rank_of.len()) * 4;
            assert_eq!(part.size_bytes(), csr + part.owned().len() * 4 + owned_hot * 5 * 8);
        }
        // No hot list, nothing kept: the CSR columns and the rank index.
        let sparse = PartitionedGraph::new(&gen::erdos_renyi(2000, 4000, 3), 2, 1);
        let part = sparse.part(0);
        let csr =
            part.owned().len() * (4 + 8) + 8 + (part.adjacency_len() + part.rank_of.len()) * 4;
        assert_eq!(part.size_bytes(), csr);
    }

    #[test]
    fn hot_from_splits_the_ranked_ids_at_the_degree_threshold() {
        let g = gen::barabasi_albert(500, 3, 4);
        let pg = PartitionedGraph::new(&g, 3, 1);
        let ranked = rank_by_degree(&g).0;
        for threshold in [0, 1, 3, 4, 10, 64, ranked.max_degree(), ranked.max_degree() + 1] {
            let from = pg.hot_from(threshold);
            for v in ranked.vertices() {
                assert_eq!(ranked.degree(v) >= threshold, v >= from, "t {threshold}, v {v}");
            }
        }
        assert_eq!(pg.hot_from(ranked.max_degree() + 1), 500);
    }

    #[test]
    fn range_owner_stays_in_bounds() {
        // div_ceil rounding must never produce an out-of-range part.
        let map = OwnerMap::new(Partitioner::Range, 7, 100);
        for v in 0..100u32 {
            assert!(map.owner(v) < 7);
        }
        let tiny = OwnerMap::new(Partitioner::Range, 4, 2);
        for v in 0..2u32 {
            assert!(tiny.owner(v) < 4);
        }
    }
}
