//! Deterministic synthetic graph generators.
//!
//! These are the stand-ins for the paper's datasets (see `DESIGN.md` §1):
//! [`barabasi_albert`] and [`rmat`] produce the skewed, power-law degree
//! distributions of web/social graphs (LiveJournal, UK, Twitter, …), while
//! [`erdos_renyi`] produces the flat degree profile of the Patents graph.
//! All generators are deterministic given the seed.

use crate::builder::GraphBuilder;
use crate::csr::Graph;
use crate::{Label, VertexId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// G(n, m) Erdős–Rényi graph: `m` distinct uniform random edges.
///
/// Duplicate samples are rejected, so the result has exactly
/// `min(m, n*(n-1)/2)` edges. Degree distribution is binomial — the
/// "less-skewed, Patents-like" regime of the paper (§7.2, §7.5).
pub fn erdos_renyi(n: usize, m: usize, seed: u64) -> Graph {
    assert!(n >= 2, "need at least two vertices");
    let mut rng = StdRng::seed_from_u64(seed);
    let max_edges = n * (n - 1) / 2;
    let m = m.min(max_edges);
    let mut seen = std::collections::HashSet::with_capacity(m * 2);
    let mut b = GraphBuilder::new(n);
    while seen.len() < m {
        let u = rng.random_range(0..n) as VertexId;
        let v = rng.random_range(0..n) as VertexId;
        if u == v {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if seen.insert(key) {
            b.add_edge(key.0, key.1);
        }
    }
    b.build()
}

/// Barabási–Albert preferential attachment: each new vertex attaches to
/// `m_attach` existing vertices chosen proportionally to degree.
///
/// Produces a power-law degree distribution ("rich get richer") — the
/// skewed regime where Khuzdul's static cache and horizontal sharing shine.
pub fn barabasi_albert(n: usize, m_attach: usize, seed: u64) -> Graph {
    assert!(m_attach >= 1, "attachment count must be positive");
    assert!(n > m_attach, "need more vertices than the attachment count");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    // Repeated-endpoint list: sampling an element uniformly is sampling a
    // vertex proportionally to its degree.
    let mut endpoints: Vec<VertexId> = Vec::with_capacity(2 * n * m_attach);
    // Seed clique over the first m_attach + 1 vertices.
    for u in 0..=m_attach as VertexId {
        for v in 0..u {
            b.add_edge(u, v);
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    let mut targets = Vec::with_capacity(m_attach);
    for u in (m_attach + 1) as VertexId..n as VertexId {
        targets.clear();
        while targets.len() < m_attach {
            let t = endpoints[rng.random_range(0..endpoints.len())];
            if t != u && !targets.contains(&t) {
                targets.push(t);
            }
        }
        for &t in &targets {
            b.add_edge(u, t);
            endpoints.push(u);
            endpoints.push(t);
        }
    }
    b.build()
}

/// R-MAT recursive-matrix generator (`2^scale` vertices,
/// `edge_factor * 2^scale` sampled edges before deduplication).
///
/// The `(a, b, c)` probabilities (with `d = 1 - a - b - c`) control skew;
/// the classic Graph500 parameters `(0.57, 0.19, 0.19)` give a heavy-tailed
/// distribution comparable to web crawls (uk/tw stand-ins).
pub fn rmat(scale: u32, edge_factor: usize, probs: (f64, f64, f64), seed: u64) -> Graph {
    let (a, bb, c) = probs;
    let d = 1.0 - a - bb - c;
    assert!(a > 0.0 && bb >= 0.0 && c >= 0.0 && d >= 0.0, "invalid R-MAT probabilities");
    let n = 1usize << scale;
    let m = edge_factor * n;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for _ in 0..m {
        let (mut u, mut v) = (0usize, 0usize);
        for _ in 0..scale {
            let r: f64 = rng.random();
            let (du, dv) = if r < a {
                (0, 0)
            } else if r < a + bb {
                (0, 1)
            } else if r < a + bb + c {
                (1, 0)
            } else {
                (1, 1)
            };
            u = (u << 1) | du;
            v = (v << 1) | dv;
        }
        b.add_edge(u as VertexId, v as VertexId);
    }
    b.build()
}

/// Complete graph on `n` vertices.
pub fn complete(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for u in 0..n as VertexId {
        for v in 0..u {
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// Star with one center (vertex 0) and `n - 1` leaves.
pub fn star(n: usize) -> Graph {
    assert!(n >= 2);
    let mut b = GraphBuilder::new(n);
    for v in 1..n as VertexId {
        b.add_edge(0, v);
    }
    b.build()
}

/// Simple path `0 - 1 - … - (n-1)`.
pub fn path(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for v in 1..n as VertexId {
        b.add_edge(v - 1, v);
    }
    b.build()
}

/// Cycle on `n >= 3` vertices.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3);
    let mut b = GraphBuilder::new(n);
    for v in 1..n as VertexId {
        b.add_edge(v - 1, v);
    }
    b.add_edge(n as VertexId - 1, 0);
    b.build()
}

/// Attaches uniform random labels from `0..label_count` to `g`.
///
/// This mirrors the paper's FSM methodology: "for unlabeled datasets like
/// lj, we randomly synthesized their labels" (§7.2).
pub fn with_random_labels(g: &Graph, label_count: Label, seed: u64) -> Graph {
    assert!(label_count >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let labels: Vec<Label> =
        (0..g.vertex_count()).map(|_| rng.random_range(0..label_count)).collect();
    g.with_labels(labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn er_exact_edge_count_and_determinism() {
        let g1 = erdos_renyi(100, 300, 7);
        let g2 = erdos_renyi(100, 300, 7);
        assert_eq!(g1.edge_count(), 300);
        assert_eq!(g1, g2);
        let g3 = erdos_renyi(100, 300, 8);
        assert_ne!(g1, g3);
    }

    #[test]
    fn er_caps_at_complete() {
        let g = erdos_renyi(5, 1000, 1);
        assert_eq!(g.edge_count(), 10);
    }

    #[test]
    fn ba_is_connected_and_skewed() {
        let g = barabasi_albert(500, 3, 11);
        assert_eq!(g.vertex_count(), 500);
        // Every non-seed vertex has degree >= m_attach.
        for v in g.vertices() {
            assert!(g.degree(v) >= 3, "vertex {v} under-attached");
        }
        // Power-law: max degree far above the mean.
        let mean = g.adjacency_len() as f64 / 500.0;
        assert!(g.max_degree() as f64 > 4.0 * mean, "expected a skewed hub");
    }

    #[test]
    fn rmat_shape() {
        let g = rmat(8, 8, (0.57, 0.19, 0.19), 3);
        assert_eq!(g.vertex_count(), 256);
        assert!(g.edge_count() > 0);
        assert!(g.edge_count() <= 8 * 256);
        let mean = g.adjacency_len() as f64 / 256.0;
        assert!(g.max_degree() as f64 > 3.0 * mean, "R-MAT should be skewed");
    }

    #[test]
    fn structured_fixtures() {
        assert_eq!(complete(5).edge_count(), 10);
        assert_eq!(star(6).edge_count(), 5);
        assert_eq!(star(6).degree(0), 5);
        assert_eq!(path(4).edge_count(), 3);
        assert_eq!(cycle(5).edge_count(), 5);
    }

    #[test]
    fn random_labels_cover_range() {
        let g = with_random_labels(&complete(50), 4, 5);
        let labels = g.labels().unwrap();
        assert!(labels.iter().all(|&l| l < 4));
        // With 50 draws and 4 labels, each should almost surely appear.
        for l in 0..4 {
            assert!(labels.contains(&l), "label {l} missing");
        }
    }
}
