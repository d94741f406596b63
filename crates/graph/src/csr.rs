//! Compressed sparse row (CSR) graph representation.

use crate::set_ops::{self, Bits, HotLists};
use crate::{Degree, Label, VertexId};
use std::sync::OnceLock;

/// An immutable undirected graph in CSR form with sorted adjacency lists:
/// every edge `{u, v}` appears in both `neighbors(u)` and `neighbors(v)`.
///
/// Adjacency lists are sorted in ascending vertex order, which the engine
/// relies on for merge-based intersection during embedding extension.
///
/// # Example
///
/// ```
/// use gpm_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(4);
/// b.add_edge(0, 1);
/// b.add_edge(1, 2);
/// b.add_edge(2, 0);
/// b.add_edge(2, 3);
/// let g = b.build();
/// assert_eq!(g.vertex_count(), 4);
/// assert_eq!(g.edge_count(), 4);
/// assert_eq!(g.neighbors(2), &[0, 1, 3]);
/// assert!(g.has_edge(0, 2));
/// assert!(!g.has_edge(0, 3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<u64>,
    neighbors: Vec<VertexId>,
    labels: Option<Vec<Label>>,
    hot: LazyHot,
}

/// The bitmaps of a graph's hot lists, built the first time a hot list's
/// bitmap is asked for ([`Graph::bits`]). Derived data: graphs with the
/// same lists are equal whether or not either has built them, and a copy
/// builds its own.
#[derive(Debug, Default)]
struct LazyHot(OnceLock<HotLists>);

impl Clone for LazyHot {
    fn clone(&self) -> Self {
        LazyHot::default()
    }
}

impl PartialEq for LazyHot {
    fn eq(&self, _: &LazyHot) -> bool {
        true
    }
}

impl Eq for LazyHot {}

impl Graph {
    pub(crate) fn from_parts(
        offsets: Vec<u64>,
        neighbors: Vec<VertexId>,
        labels: Option<Vec<Label>>,
    ) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.last().unwrap() as usize, neighbors.len());
        if let Some(l) = &labels {
            debug_assert_eq!(l.len() + 1, offsets.len());
        }
        Graph { offsets, neighbors, labels, hot: LazyHot::default() }
    }

    /// An empty graph with `n` isolated vertices.
    pub fn empty(n: usize) -> Self {
        Graph::from_parts(vec![0; n + 1], Vec::new(), None)
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges: each edge `{u, v}` counts once although it is
    /// stored twice.
    pub fn edge_count(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Total number of stored adjacency entries (`2|E|`).
    pub fn adjacency_len(&self) -> usize {
        self.neighbors.len()
    }

    /// The sorted neighbor list of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// The bitmap of `v`'s neighbor list if the list is hot
    /// ([`set_ops::is_hot`]); a cold one costs a compare. The first hot
    /// list asked for builds the bitmaps of all of them, and a graph with
    /// none builds nothing.
    #[inline]
    pub fn bits(&self, v: VertexId) -> Option<Bits<'_>> {
        if set_ops::is_hot(self.degree(v) as usize, None, self.vertex_count()) {
            self.hot_bits(v)
        } else {
            None
        }
    }

    /// Out of line, so that a cold list's path stays a compare.
    #[inline(never)]
    fn hot_bits(&self, v: VertexId) -> Option<Bits<'_>> {
        let n = self.vertex_count();
        let lists = || HotLists::build(n, (0..n as VertexId).map(|u| self.neighbors(u)));
        self.hot.0.get_or_init(lists).get(v as usize)
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> Degree {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as Degree
    }

    /// Largest degree over all vertices (0 for an empty graph).
    pub fn max_degree(&self) -> Degree {
        (0..self.vertex_count() as VertexId).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Whether the edge `(u, v)` is stored, via binary search on `u`'s list.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// The label of `v`, or `None` if the graph is unlabeled.
    #[inline]
    pub fn label(&self, v: VertexId) -> Option<Label> {
        self.labels.as_ref().map(|l| l[v as usize])
    }

    /// The full label array, if present.
    pub fn labels(&self) -> Option<&[Label]> {
        self.labels.as_deref()
    }

    /// Whether the graph carries vertex labels.
    pub fn is_labeled(&self) -> bool {
        self.labels.is_some()
    }

    /// Returns a copy of this graph with the given labels attached.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != self.vertex_count()`.
    pub fn with_labels(&self, labels: Vec<Label>) -> Graph {
        assert_eq!(labels.len(), self.vertex_count(), "label array size mismatch");
        Graph { labels: Some(labels), ..self.clone() }
    }

    /// Iterator over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.vertex_count() as VertexId
    }

    /// Iterator over every stored arc `(u, v)`: each edge is yielded twice
    /// (once per direction); use [`Graph::edges`] for the deduplicated
    /// view.
    pub fn arcs(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices().flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Iterator over undirected edges with `u <= v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.arcs().filter(|&(u, v)| u <= v)
    }

    /// In-memory size of the CSR arrays in bytes, the paper's "graph size"
    /// notion used to express cache capacities as a fraction of graph size.
    /// The hot lists' bitmaps are derived, built on demand, and not
    /// counted.
    pub fn size_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u64>()
            + self.neighbors.len() * std::mem::size_of::<VertexId>()
            + self.labels.as_ref().map_or(0, |l| l.len() * std::mem::size_of::<Label>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle_plus_tail() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 0);
        b.add_edge(2, 3);
        b.build()
    }

    #[test]
    fn counts_and_degrees() {
        let g = triangle_plus_tail();
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.adjacency_len(), 8);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn neighbor_lists_are_sorted() {
        let g = triangle_plus_tail();
        for v in g.vertices() {
            let n = g.neighbors(v);
            assert!(n.windows(2).all(|w| w[0] < w[1]), "unsorted list for {v}");
        }
    }

    #[test]
    fn has_edge_is_symmetric_for_undirected() {
        let g = triangle_plus_tail();
        for u in g.vertices() {
            for v in g.vertices() {
                assert_eq!(g.has_edge(u, v), g.has_edge(v, u));
            }
        }
    }

    #[test]
    fn edges_yields_each_edge_once() {
        let g = triangle_plus_tail();
        let mut e: Vec<_> = g.edges().collect();
        e.sort_unstable();
        assert_eq!(e, vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.vertex_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
        assert!(g.neighbors(4).is_empty());
    }

    #[test]
    fn labels_roundtrip() {
        let g = triangle_plus_tail();
        assert!(!g.is_labeled());
        assert_eq!(g.label(0), None);
        let g = g.with_labels(vec![7, 7, 9, 3]);
        assert!(g.is_labeled());
        assert_eq!(g.label(2), Some(9));
        assert_eq!(g.labels().unwrap(), &[7, 7, 9, 3]);
    }

    #[test]
    #[should_panic(expected = "label array size mismatch")]
    fn wrong_label_len_panics() {
        triangle_plus_tail().with_labels(vec![1, 2]);
    }

    #[test]
    fn size_bytes_counts_all_arrays() {
        let g = triangle_plus_tail();
        let base = 5 * 8 + 8 * 4;
        assert_eq!(g.size_bytes(), base);
        let gl = g.with_labels(vec![0; 4]);
        assert_eq!(gl.size_bytes(), base + 4 * 2);
    }

    #[test]
    fn a_hot_list_comes_with_its_bitmap_and_a_cold_one_builds_nothing() {
        // The centre of a 100-vertex star is hot (99 × 32 ≥ 100), a leaf
        // is not (32 < 100).
        let g = crate::gen::star(100);
        assert!(g.bits(1).is_none());
        assert!(g.hot.0.get().is_none(), "a cold list looks nothing up");
        let centre = g.bits(0).expect("the centre is hot");
        assert!((0..100).all(|v| centre.contains(v) == g.has_edge(0, v)));
        assert_eq!(g.hot.0.get().map(HotLists::len), Some(1));
        assert_eq!(g.clone(), g, "the bitmaps are not part of what a graph is");
    }
}
