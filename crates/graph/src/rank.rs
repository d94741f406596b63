//! Degree ranking: relabel a graph so that ids ascend with `(degree, id)`.
//!
//! Symmetry breaking orders a match's vertices by id, and a fetch ships
//! only the part of a list above its bound. Under ranked ids "my
//! neighbours above me" is the degree-oriented out-list of Pangolin's
//! orientation, which the paper applies to its largest graphs (§7.2, Table
//! 5), without a second graph kind. Every
//! [`PartitionedGraph`](crate::partition::PartitionedGraph) and every
//! single-machine executor ranks its input.

use crate::csr::Graph;
use crate::{Label, VertexId};

/// `g` relabelled so that the vertex ranked `r`th by ascending
/// `(degree, id)` becomes `r`, with that permutation: `original[r]` is
/// the id in `g` of the ranked vertex `r`. Labels move with their
/// vertices. No list is sorted.
///
/// # Example
///
/// ```
/// use gpm_graph::{gen, rank::rank_by_degree};
///
/// let g = gen::star(5); // the centre 0 has degree 4, every leaf 1
/// let (ranked, original) = rank_by_degree(&g);
/// assert_eq!(original, vec![1, 2, 3, 4, 0]);
/// assert_eq!(ranked.neighbors(4), &[0, 1, 2, 3]);
/// assert_eq!(ranked.neighbors(0), &[4]);
/// ```
pub fn rank_by_degree(g: &Graph) -> (Graph, Vec<VertexId>) {
    let original = degree_order(g);
    let (_, offsets, neighbors) = ranked_columns(g, &original, 1, |_| 0).pop().expect("one part");
    let labels = g.labels().map(|l| permuted_labels(l, &original));
    (Graph::from_parts(offsets, neighbors, labels), original)
}

/// `original[r]`: the vertex of `g` that ranks `r`th by ascending
/// `(degree, id)`.
pub(crate) fn degree_order(g: &Graph) -> Vec<VertexId> {
    let mut original: Vec<VertexId> = g.vertices().collect();
    original.sort_by_key(|&v| g.degree(v)); // stable: ties stay in id order
    original
}

/// `labels` indexed by ranked id.
pub(crate) fn permuted_labels(labels: &[Label], original: &[VertexId]) -> Vec<Label> {
    original.iter().map(|&v| labels[v as usize]).collect()
}

/// `g` under the ranked ids of `original`, split into `parts` CSR slices
/// by `owner` (a ranked id's part): per part, the ranked ids it owns in
/// ascending order, their offsets, and their sorted lists. A two-pass
/// transpose: size every list, then walk the ranks in order and append
/// each to its neighbours' lists, which therefore come out sorted.
pub(crate) fn ranked_columns(
    g: &Graph,
    original: &[VertexId],
    parts: usize,
    owner: impl Fn(VertexId) -> usize,
) -> Vec<(Vec<VertexId>, Vec<u64>, Vec<VertexId>)> {
    let n = original.len();
    let mut rank = vec![0 as VertexId; n];
    let mut columns = vec![(Vec::new(), vec![0u64], Vec::new()); parts];
    // Each ranked vertex's part, and where its next entry goes there.
    let (mut part_of, mut cursor) = (vec![0u32; n], vec![0u64; n]);
    for (r, &v) in original.iter().enumerate() {
        rank[v as usize] = r as VertexId;
        let part = owner(r as VertexId);
        let (owned, offsets, _) = &mut columns[part];
        let at = *offsets.last().expect("starts at 0");
        owned.push(r as VertexId);
        offsets.push(at + u64::from(g.degree(v)));
        (part_of[r], cursor[r]) = (part as u32, at);
    }
    for (_, offsets, neighbors) in &mut columns {
        *neighbors = vec![0; *offsets.last().expect("starts at 0") as usize];
    }
    for (r, &v) in original.iter().enumerate() {
        for &w in g.neighbors(v) {
            let t = rank[w as usize] as usize;
            columns[part_of[t] as usize].2[cursor[t] as usize] = r as VertexId;
            cursor[t] += 1;
        }
    }
    columns
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    /// `N(v) ∩ (v, ∞)` of a ranked graph: what a symmetry-broken plan
    /// reads above `v`.
    fn above(g: &Graph, v: VertexId) -> &[VertexId] {
        let list = g.neighbors(v);
        &list[list.partition_point(|&w| w <= v)..]
    }

    #[test]
    fn keeps_each_edge_once() {
        let g = gen::erdos_renyi(200, 800, 3);
        let (ranked, original) = rank_by_degree(&g);
        assert_eq!(ranked.edge_count(), g.edge_count());
        let mut back: Vec<(VertexId, VertexId)> = ranked
            .vertices()
            .flat_map(|r| above(&ranked, r).iter().map(move |&w| (r, w)))
            .map(|(r, w)| (original[r as usize], original[w as usize]))
            .map(|(u, v)| (u.min(v), u.max(v)))
            .collect();
        back.sort_unstable();
        assert_eq!(back, g.edges().collect::<Vec<_>>(), "the windows above hold each edge once");
    }

    #[test]
    fn is_acyclic_by_rank() {
        let g = gen::barabasi_albert(300, 4, 9);
        let (ranked, original) = rank_by_degree(&g);
        for r in ranked.vertices() {
            let v = original[r as usize];
            assert_eq!(ranked.degree(r), g.degree(v));
            if r > 0 {
                let u = original[r as usize - 1];
                assert!((g.degree(u), u) < (g.degree(v), v), "rank {r} out of order");
            }
            let list = ranked.neighbors(r);
            assert!(list.windows(2).all(|w| w[0] < w[1]), "list of {r} unsorted");
            let mut back: Vec<VertexId> = list.iter().map(|&w| original[w as usize]).collect();
            back.sort_unstable();
            assert_eq!(back, g.neighbors(v));
        }
    }

    #[test]
    fn triangle_count_preserved() {
        let g = gen::erdos_renyi(100, 600, 5);
        let undirected = {
            let mut count = 0u64;
            for (u, v) in g.edges() {
                let mut common = Vec::new();
                crate::set_ops::intersect_into(g.neighbors(u), g.neighbors(v), &mut common);
                count += common.iter().filter(|&&w| w > v).count() as u64;
            }
            count
        };
        let (ranked, _) = rank_by_degree(&g);
        let mut oriented = 0u64;
        for u in ranked.vertices() {
            let out = above(&ranked, u);
            for &v in out {
                oriented += crate::set_ops::intersect_count(out, above(&ranked, v)) as u64;
            }
        }
        assert_eq!(oriented, undirected);
    }

    #[test]
    fn max_out_degree_shrinks_on_skewed_graph() {
        let g = gen::barabasi_albert(1000, 5, 2);
        let (ranked, _) = rank_by_degree(&g);
        let widest = ranked.vertices().map(|v| above(&ranked, v).len()).max().unwrap();
        assert!(widest < g.max_degree() as usize / 2, "{widest} of {}", g.max_degree());
    }

    #[test]
    fn ranking_twice_is_the_identity() {
        let (ranked, _) = rank_by_degree(&gen::barabasi_albert(200, 3, 5));
        let (again, original) = rank_by_degree(&ranked);
        assert_eq!(again, ranked);
        assert!(original.iter().enumerate().all(|(r, &v)| r as VertexId == v));
    }

    #[test]
    fn labels_survive_ranking() {
        let g = gen::with_random_labels(&gen::barabasi_albert(50, 3, 1), 3, 1);
        let (ranked, original) = rank_by_degree(&g);
        assert!(ranked.vertices().all(|r| ranked.label(r) == g.label(original[r as usize])));
    }

    #[test]
    fn columns_split_the_ranked_lists_by_owner() {
        let g = gen::erdos_renyi(200, 800, 3);
        let (ranked, original) = rank_by_degree(&g);
        let columns = ranked_columns(&g, &original, 3, |r| (r % 3) as usize);
        for (part, (owned, offsets, neighbors)) in columns.iter().enumerate() {
            assert!(owned.iter().all(|&r| r as usize % 3 == part));
            for (i, &r) in owned.iter().enumerate() {
                let list = &neighbors[offsets[i] as usize..offsets[i + 1] as usize];
                assert_eq!(list, ranked.neighbors(r));
            }
        }
    }
}
