//! Pattern-oblivious enumeration (the Arabesque/RStream generation).
//!
//! The paper's introduction contrasts two GPM methodologies: the early
//! systems enumerate **all** connected size-k subgraphs and run an
//! isomorphism check on each, while pattern-aware systems construct only
//! matching embeddings. This module implements the oblivious approach —
//! the ESU (Wernicke) algorithm enumerating every connected induced
//! k-vertex subgraph exactly once and sorting it into its isomorphism
//! class — so the repository can regenerate the motivation: pattern-aware
//! enumeration wins by orders of magnitude on anything non-trivial.

use gpm_graph::{Graph, VertexId};
use gpm_pattern::{iso, Pattern};
use std::collections::HashMap;

/// Census of connected induced `k`-subgraphs by isomorphism class.
///
/// Keys are canonical codes ([`iso::canonical_code`]); values are counts.
/// This is exactly what a motif-counting application needs, computed the
/// pattern-oblivious way.
///
/// # Panics
///
/// Panics if `k` is zero or exceeds [`gpm_pattern::MAX_PATTERN_VERTICES`].
///
/// # Example
///
/// ```
/// use gpm_baselines::oblivious;
/// use gpm_graph::gen;
///
/// let census = oblivious::induced_census(&gen::complete(5), 3);
/// // K5 has C(5,3) = 10 triangles and nothing else.
/// assert_eq!(census.values().sum::<u64>(), 10);
/// assert_eq!(census.len(), 1);
/// ```
pub fn induced_census(g: &Graph, k: usize) -> HashMap<Vec<u8>, u64> {
    assert!((1..=gpm_pattern::MAX_PATTERN_VERTICES).contains(&k), "unsupported size {k}");
    let mut census: HashMap<Vec<u8>, u64> = HashMap::new();
    enumerate_connected_induced(g, k, &mut |vs| {
        let p = induced_pattern(g, vs);
        *census.entry(iso::canonical_code(&p)).or_insert(0) += 1;
    });
    census
}

/// Enumerates every connected induced `k`-vertex subgraph exactly once
/// (ESU): each subgraph is discovered from its minimum vertex, extending
/// only with exclusive neighbors larger than the root.
pub fn enumerate_connected_induced(g: &Graph, k: usize, visit: &mut impl FnMut(&[VertexId])) {
    if k == 1 {
        for v in g.vertices() {
            visit(&[v]);
        }
        return;
    }
    for root in g.vertices() {
        let mut sub = vec![root];
        let ext: Vec<VertexId> = g.neighbors(root).iter().copied().filter(|&u| u > root).collect();
        extend_esu(g, root, &mut sub, ext, k, visit);
    }
}

fn extend_esu(
    g: &Graph,
    root: VertexId,
    sub: &mut Vec<VertexId>,
    ext: Vec<VertexId>,
    k: usize,
    visit: &mut impl FnMut(&[VertexId]),
) {
    if sub.len() == k {
        visit(sub);
        return;
    }
    let mut ext = ext;
    while let Some(w) = ext.pop() {
        // New extension candidates: exclusive neighbors of w — larger
        // than the root and not adjacent to any current subgraph vertex.
        let mut next_ext = ext.clone();
        for &u in g.neighbors(w) {
            if u > root
                && u != w
                && !sub.iter().any(|&s| s == u || g.has_edge(s, u))
                && !next_ext.contains(&u)
            {
                next_ext.push(u);
            }
        }
        sub.push(w);
        extend_esu(g, root, sub, next_ext, k, visit);
        sub.pop();
    }
}

fn induced_pattern(g: &Graph, vs: &[VertexId]) -> Pattern {
    let mut edges = Vec::new();
    for (i, &u) in vs.iter().enumerate() {
        for (j, &v) in vs.iter().enumerate().take(i) {
            if g.has_edge(u, v) {
                edges.push((j, i));
            }
        }
    }
    Pattern::from_edges(vs.len(), &edges).expect("induced subgraph of ESU is connected")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::gen;
    use gpm_pattern::{genpat, oracle};

    #[test]
    fn esu_counts_match_direct_triple_census() {
        let g = gen::erdos_renyi(40, 150, 3);
        let census = induced_census(&g, 3);
        let total: u64 = census.values().sum();
        // Direct count of connected triples.
        let mut expect = 0u64;
        let n = g.vertex_count() as u32;
        for a in 0..n {
            for b in (a + 1)..n {
                for c in (b + 1)..n {
                    let e =
                        g.has_edge(a, b) as u8 + g.has_edge(a, c) as u8 + g.has_edge(b, c) as u8;
                    if e >= 2 {
                        expect += 1;
                    }
                }
            }
        }
        assert_eq!(total, expect);
    }

    #[test]
    fn census_classes_match_pattern_aware_counts() {
        let g = gen::erdos_renyi(30, 110, 7);
        for k in [3usize, 4] {
            let census = induced_census(&g, k);
            for p in genpat::connected_patterns(k) {
                let code = iso::canonical_code(&p);
                let oblivious = census.get(&code).copied().unwrap_or(0);
                let aware = oracle::count_subgraphs(&g, &p, true);
                assert_eq!(oblivious, aware, "class {p}");
            }
        }
    }

    #[test]
    fn each_subgraph_enumerated_exactly_once() {
        let g = gen::erdos_renyi(20, 70, 4);
        let mut seen = std::collections::HashSet::new();
        enumerate_connected_induced(&g, 3, &mut |vs| {
            let mut key = vs.to_vec();
            key.sort_unstable();
            assert!(seen.insert(key), "duplicate subgraph {vs:?}");
        });
    }

    #[test]
    fn single_vertex_census() {
        let g = gen::complete(6);
        let census = induced_census(&g, 1);
        assert_eq!(census.values().sum::<u64>(), 6);
    }
}
