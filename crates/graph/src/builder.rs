//! Edge-list ingestion with the paper's preprocessing (§7.1): self-loops
//! and duplicate edges are removed, and directed inputs are symmetrized.

use crate::csr::Graph;
use crate::{Label, VertexId};

/// Incremental builder producing a deduplicated, sorted [`Graph`].
///
/// Edges may be added in any order and either direction; the builder
/// symmetrizes, removes self-loops and duplicates, and sorts adjacency
/// lists.
///
/// # Example
///
/// ```
/// use gpm_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1);
/// b.add_edge(1, 0); // duplicate, ignored
/// b.add_edge(1, 1); // self-loop, ignored
/// b.add_edge(1, 2);
/// let g = b.build();
/// assert_eq!(g.edge_count(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(VertexId, VertexId)>,
    labels: Option<Vec<Label>>,
}

impl GraphBuilder {
    /// A builder for a graph with `n` vertices (ids `0..n`).
    pub fn new(n: usize) -> Self {
        GraphBuilder { n, edges: Vec::new(), labels: None }
    }

    /// A builder that grows the vertex set to cover every endpoint seen.
    pub fn growable() -> Self {
        GraphBuilder::new(0)
    }

    /// Number of vertices the built graph will have.
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// Adds the undirected edge `{u, v}`. Self-loops are dropped silently;
    /// duplicates are eliminated at [`GraphBuilder::build`] time.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        if u != v {
            self.n = self.n.max(u.max(v) as usize + 1);
            self.edges.push((u.min(v), u.max(v)));
        }
        self
    }

    /// Adds every edge from an iterator of endpoint pairs.
    pub fn extend_edges<I: IntoIterator<Item = (VertexId, VertexId)>>(
        &mut self,
        iter: I,
    ) -> &mut Self {
        for (u, v) in iter {
            self.add_edge(u, v);
        }
        self
    }

    /// Attaches per-vertex labels; the slice is indexed by vertex id and
    /// must cover every vertex present at build time.
    pub fn labels(&mut self, labels: Vec<Label>) -> &mut Self {
        self.n = self.n.max(labels.len());
        self.labels = Some(labels);
        self
    }

    /// Builds the immutable CSR graph.
    ///
    /// # Panics
    ///
    /// Panics if labels were provided but do not cover every vertex.
    pub fn build(&self) -> Graph {
        let mut edges = self.edges.clone();
        edges.sort_unstable();
        edges.dedup();

        let n = self.n;
        let mut degree = vec![0u64; n];
        for &(u, v) in &edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = vec![0u64; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + degree[i];
        }
        let mut cursor: Vec<u64> = offsets[..n].to_vec();
        let mut neighbors = vec![0 as VertexId; offsets[n] as usize];
        for &(u, v) in &edges {
            neighbors[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            neighbors[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        }
        // Each vertex's slice was filled in ascending order of the *other*
        // endpoint only for the min-endpoint copies; sort each list.
        for v in 0..n {
            let lo = offsets[v] as usize;
            let hi = offsets[v + 1] as usize;
            neighbors[lo..hi].sort_unstable();
        }

        let labels = self.labels.clone();
        if let Some(l) = &labels {
            assert!(l.len() >= n, "labels must cover every vertex ({} < {n})", l.len());
        }
        let labels = labels.map(|mut l| {
            l.truncate(n);
            l
        });
        Graph::from_parts(offsets, neighbors, labels)
    }
}

impl FromIterator<(VertexId, VertexId)> for GraphBuilder {
    fn from_iter<I: IntoIterator<Item = (VertexId, VertexId)>>(iter: I) -> Self {
        let mut b = GraphBuilder::growable();
        b.extend_edges(iter);
        b
    }
}

impl Extend<(VertexId, VertexId)> for GraphBuilder {
    fn extend<I: IntoIterator<Item = (VertexId, VertexId)>>(&mut self, iter: I) {
        self.extend_edges(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_self_loop_removal() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).add_edge(1, 0).add_edge(0, 1).add_edge(2, 2);
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(2), &[] as &[VertexId]);
    }

    #[test]
    fn growable_tracks_max_vertex() {
        let b: GraphBuilder = [(0, 5), (2, 3)].into_iter().collect();
        let g = b.build();
        assert_eq!(g.vertex_count(), 6);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn adjacency_sorted_regardless_of_insertion_order() {
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 5).add_edge(0, 2).add_edge(0, 4).add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.neighbors(0), &[1, 2, 4, 5]);
    }

    #[test]
    fn labels_truncated_to_vertex_count() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        b.labels(vec![3, 4]);
        let g = b.build();
        assert_eq!(g.labels().unwrap(), &[3, 4]);
    }

    #[test]
    #[should_panic(expected = "labels must cover")]
    fn short_labels_panic() {
        let mut b = GraphBuilder::new(0);
        b.add_edge(0, 3);
        b.labels(vec![1]);
        // add another edge after labels to force n > labels.len()
        b.add_edge(4, 5);
        b.build();
    }

    #[test]
    fn extend_trait() {
        let mut b = GraphBuilder::new(0);
        b.extend([(0, 1), (1, 2)]);
        assert_eq!(b.build().edge_count(), 2);
    }
}
