//! Pattern-set generation.
//!
//! * [`connected_patterns`] — all non-isomorphic connected unlabeled
//!   patterns of a given size, the pattern set of k-motif counting;
//! * [`labeled_edge_patterns`] / [`extend_by_edge`] — seed and grow
//!   labeled candidate patterns for frequent subgraph mining (FSM grows
//!   patterns edge by edge, Table 4 mines patterns of up to 3 edges).

use crate::{iso, Pattern};
use gpm_graph::Label;
use std::collections::HashSet;

/// All connected patterns with `k` vertices, up to isomorphism, in a
/// deterministic order.
///
/// # Panics
///
/// Panics if `k` is zero or exceeds [`crate::MAX_PATTERN_VERTICES`].
///
/// # Example
///
/// ```
/// use gpm_pattern::genpat;
///
/// assert_eq!(genpat::connected_patterns(3).len(), 2);  // path, triangle
/// assert_eq!(genpat::connected_patterns(4).len(), 6);
/// assert_eq!(genpat::connected_patterns(5).len(), 21);
/// ```
pub fn connected_patterns(k: usize) -> Vec<Pattern> {
    assert!((1..=crate::MAX_PATTERN_VERTICES).contains(&k), "unsupported pattern size {k}");
    if k == 1 {
        return vec![Pattern::single_vertex()];
    }
    let pairs: Vec<(usize, usize)> = (0..k).flat_map(|v| (0..v).map(move |u| (u, v))).collect();
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    let mut out = Vec::new();
    for mask in 0u32..(1 << pairs.len()) {
        if (mask.count_ones() as usize) < k - 1 {
            continue; // cannot be connected
        }
        let edges: Vec<(usize, usize)> = pairs
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &e)| e)
            .collect();
        let Ok(p) = Pattern::from_edges(k, &edges) else {
            continue; // disconnected
        };
        if seen.insert(iso::canonical_code(&p)) {
            out.push(p);
        }
    }
    out
}

/// All single-edge labeled patterns over `label_count` labels, up to
/// isomorphism (i.e. unordered label pairs) — the seeds of FSM's
/// pattern-growth loop.
pub fn labeled_edge_patterns(label_count: Label) -> Vec<Pattern> {
    let mut out = Vec::new();
    for a in 0..label_count {
        for b in a..label_count {
            out.push(Pattern::edge().with_labels(vec![a, b]).expect("endpoint labels are valid"));
        }
    }
    out
}

/// Every pattern obtainable from `p` by adding one edge — either between
/// two existing non-adjacent vertices, or to a fresh vertex with any of
/// `label_count` labels (fresh vertices are only added while the pattern
/// is below `max_vertices`). Results are deduplicated up to isomorphism.
pub fn extend_by_edge(p: &Pattern, label_count: Label, max_vertices: usize) -> Vec<Pattern> {
    assert!(p.is_labeled(), "FSM pattern growth requires labeled patterns");
    let n = p.size();
    let labels = p.labels().unwrap().to_vec();
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    let mut push = |cand: Pattern, seen: &mut HashSet<Vec<u8>>| {
        if seen.insert(iso::canonical_code(&cand)) {
            out.push(cand);
        }
    };
    // Close an edge between existing vertices.
    for u in 0..n {
        for v in 0..u {
            if !p.has_edge(u, v) {
                let mut edges = p.edges();
                edges.push((v, u));
                let cand = Pattern::from_edges(n, &edges)
                    .expect("adding an edge keeps the pattern valid")
                    .with_labels(labels.clone())
                    .expect("labels unchanged");
                push(cand, &mut seen);
            }
        }
    }
    // Grow a new labeled vertex attached to each existing vertex.
    if n < max_vertices {
        for u in 0..n {
            for l in 0..label_count {
                let mut edges = p.edges();
                edges.push((u, n));
                let mut new_labels = labels.clone();
                new_labels.push(l);
                let cand = Pattern::from_edges(n + 1, &edges)
                    .expect("attachment keeps the pattern connected")
                    .with_labels(new_labels)
                    .expect("label per vertex");
                push(cand, &mut seen);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_connected_graph_counts() {
        assert_eq!(connected_patterns(1).len(), 1);
        assert_eq!(connected_patterns(2).len(), 1);
        assert_eq!(connected_patterns(3).len(), 2);
        assert_eq!(connected_patterns(4).len(), 6);
        assert_eq!(connected_patterns(5).len(), 21);
    }

    #[test]
    fn generated_patterns_are_pairwise_non_isomorphic() {
        let ps = connected_patterns(4);
        for i in 0..ps.len() {
            for j in 0..i {
                assert!(!iso::are_isomorphic(&ps[i], &ps[j]), "{} ~ {}", ps[i], ps[j]);
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(connected_patterns(4), connected_patterns(4));
    }

    #[test]
    fn edge_seed_count() {
        // Unordered label pairs: C(l+1, 2).
        assert_eq!(labeled_edge_patterns(3).len(), 6);
        assert_eq!(labeled_edge_patterns(1).len(), 1);
    }

    #[test]
    fn extension_from_labeled_edge() {
        let e = Pattern::edge().with_labels(vec![0, 1]).unwrap();
        let ext = extend_by_edge(&e, 2, 3);
        // No edge can be closed (K2 complete); growth: attach labeled
        // vertex to either endpoint: 2 endpoints x 2 labels, some
        // isomorphic. Endpoints have distinct labels so all 4 distinct.
        assert_eq!(ext.len(), 4);
        for p in &ext {
            assert_eq!(p.size(), 3);
            assert_eq!(p.edge_count(), 2);
        }
    }

    #[test]
    fn extension_respects_max_vertices() {
        let e = Pattern::edge().with_labels(vec![0, 0]).unwrap();
        let ext = extend_by_edge(&e, 2, 2);
        assert!(ext.is_empty(), "no growth allowed at max size and K2 has no missing edge");
    }

    #[test]
    fn closing_an_edge() {
        let p3 = Pattern::path(3).with_labels(vec![0, 0, 0]).unwrap();
        let ext = extend_by_edge(&p3, 1, 3);
        // Close 0-2 into a triangle, or grow to 4 vertices (forbidden by
        // max): with max_vertices=3 only the triangle remains.
        assert_eq!(ext.len(), 1);
        assert_eq!(ext[0].edge_count(), 3);
    }

    #[test]
    #[should_panic(expected = "labeled")]
    fn unlabeled_growth_panics() {
        extend_by_edge(&Pattern::edge(), 1, 3);
    }
}
