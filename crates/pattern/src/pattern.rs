//! The [`Pattern`] type: small connected graphs to be mined.

use crate::MAX_PATTERN_VERTICES;
use gpm_graph::Label;
use std::fmt;

/// Errors produced when constructing a [`Pattern`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatternError {
    /// More than [`MAX_PATTERN_VERTICES`] vertices.
    TooLarge(usize),
    /// Fewer than one vertex.
    Empty,
    /// An edge endpoint is out of `0..n`.
    BadEdge(usize, usize),
    /// An edge joins a vertex to itself.
    SelfLoop(usize),
    /// The pattern is not connected (GPM patterns must be).
    Disconnected,
    /// Label array length does not match the vertex count.
    BadLabels {
        /// Vertex count of the pattern.
        expected: usize,
        /// Length of the supplied label array.
        got: usize,
    },
}

impl fmt::Display for PatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternError::TooLarge(n) => {
                write!(f, "pattern has {n} vertices, maximum is {MAX_PATTERN_VERTICES}")
            }
            PatternError::Empty => write!(f, "pattern must have at least one vertex"),
            PatternError::BadEdge(u, v) => write!(f, "edge ({u}, {v}) is out of range"),
            PatternError::SelfLoop(u) => write!(f, "edge ({u}, {u}) is a self-loop"),
            PatternError::Disconnected => write!(f, "pattern must be connected"),
            PatternError::BadLabels { expected, got } => {
                write!(f, "expected {expected} labels, got {got}")
            }
        }
    }
}

impl std::error::Error for PatternError {}

/// A small connected pattern graph with optional vertex labels.
///
/// Stored as bitmask adjacency rows (`adj[i]` bit `j` set iff `{i, j}` is a
/// pattern edge), which makes isomorphism and automorphism enumeration
/// cheap for patterns of up to [`MAX_PATTERN_VERTICES`] vertices.
///
/// # Example
///
/// ```
/// use gpm_pattern::Pattern;
///
/// let p = Pattern::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
/// assert_eq!(p.size(), 4);
/// assert_eq!(p.edge_count(), 4);
/// assert!(p.has_edge(0, 1));
/// assert!(!p.has_edge(0, 2));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Pattern {
    n: usize,
    adj: [u8; MAX_PATTERN_VERTICES],
    labels: Option<Vec<Label>>,
}

impl Pattern {
    /// Builds a pattern from an edge list over vertices `0..n`.
    ///
    /// # Errors
    ///
    /// Returns an error if the pattern is empty, too large, has an
    /// out-of-range edge or a self-loop, or is disconnected.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Pattern, PatternError> {
        if n == 0 {
            return Err(PatternError::Empty);
        }
        if n > MAX_PATTERN_VERTICES {
            return Err(PatternError::TooLarge(n));
        }
        let mut adj = [0u8; MAX_PATTERN_VERTICES];
        for &(u, v) in edges {
            if u >= n || v >= n {
                return Err(PatternError::BadEdge(u, v));
            }
            if u == v {
                return Err(PatternError::SelfLoop(u));
            }
            adj[u] |= 1 << v;
            adj[v] |= 1 << u;
        }
        let p = Pattern { n, adj, labels: None };
        if !p.is_connected() {
            return Err(PatternError::Disconnected);
        }
        Ok(p)
    }

    /// Attaches labels to the pattern's vertices.
    ///
    /// # Errors
    ///
    /// Returns [`PatternError::BadLabels`] on length mismatch.
    pub fn with_labels(mut self, labels: Vec<Label>) -> Result<Pattern, PatternError> {
        if labels.len() != self.n {
            return Err(PatternError::BadLabels { expected: self.n, got: labels.len() });
        }
        self.labels = Some(labels);
        Ok(self)
    }

    /// The single-vertex pattern (optionally used as an enumeration seed).
    pub fn single_vertex() -> Pattern {
        Pattern { n: 1, adj: [0; MAX_PATTERN_VERTICES], labels: None }
    }

    /// The single-edge pattern.
    pub fn edge() -> Pattern {
        Pattern::from_edges(2, &[(0, 1)]).expect("edge pattern is valid")
    }

    /// The triangle (3-clique).
    pub fn triangle() -> Pattern {
        Pattern::clique(3)
    }

    /// The complete pattern on `k` vertices.
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or exceeds [`MAX_PATTERN_VERTICES`].
    pub fn clique(k: usize) -> Pattern {
        let mut edges = Vec::new();
        for u in 0..k {
            for v in 0..u {
                edges.push((u, v));
            }
        }
        Pattern::from_edges(k, &edges).expect("clique pattern is valid")
    }

    /// Simple path on `k` vertices (`k-1` edges).
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or exceeds [`MAX_PATTERN_VERTICES`].
    pub fn path(k: usize) -> Pattern {
        let edges: Vec<_> = (1..k).map(|i| (i - 1, i)).collect();
        Pattern::from_edges(k, &edges).expect("path pattern is valid")
    }

    /// Star with one center and `k - 1` leaves.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` or `k` exceeds [`MAX_PATTERN_VERTICES`].
    pub fn star(k: usize) -> Pattern {
        let edges: Vec<_> = (1..k).map(|i| (0, i)).collect();
        Pattern::from_edges(k, &edges).expect("star pattern is valid")
    }

    /// Cycle on `k >= 3` vertices.
    ///
    /// # Panics
    ///
    /// Panics if `k < 3` or `k` exceeds [`MAX_PATTERN_VERTICES`].
    pub fn cycle(k: usize) -> Pattern {
        let mut edges: Vec<_> = (1..k).map(|i| (i - 1, i)).collect();
        edges.push((k - 1, 0));
        Pattern::from_edges(k, &edges).expect("cycle pattern is valid")
    }

    /// A triangle with a pendant vertex ("tailed triangle").
    pub fn tailed_triangle() -> Pattern {
        Pattern::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]).expect("valid")
    }

    /// Two triangles sharing one edge ("diamond" / 4-chordal-cycle).
    pub fn diamond() -> Pattern {
        Pattern::from_edges(4, &[(0, 1), (1, 2), (2, 0), (0, 3), (1, 3)]).expect("valid")
    }

    /// A 4-cycle plus a roof vertex ("house").
    pub fn house() -> Pattern {
        Pattern::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4)]).expect("valid")
    }

    /// Number of vertices.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        (0..self.n).map(|i| self.adj[i].count_ones() as usize).sum::<usize>() / 2
    }

    /// Whether the edge `{u, v}` exists.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    #[inline]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        assert!(u < self.n && v < self.n, "endpoint out of range");
        self.adj[u] & (1 << v) != 0
    }

    /// Adjacency bitmask of vertex `u` (bit `j` ⇔ edge `{u, j}`).
    #[inline]
    pub fn adjacency_bits(&self, u: usize) -> u8 {
        self.adj[u]
    }

    /// Degree of pattern vertex `u`.
    pub fn degree(&self, u: usize) -> usize {
        self.adj[u].count_ones() as usize
    }

    /// Neighbors of `u` in ascending order.
    pub fn neighbors(&self, u: usize) -> Vec<usize> {
        (0..self.n).filter(|&v| self.has_edge(u, v)).collect()
    }

    /// Edge list with `u < v`.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for v in 0..self.n {
            for u in 0..v {
                if self.has_edge(u, v) {
                    out.push((u, v));
                }
            }
        }
        out
    }

    /// The pattern's labels, if any.
    pub fn labels(&self) -> Option<&[Label]> {
        self.labels.as_deref()
    }

    /// Label of vertex `u`, if the pattern is labeled.
    pub fn label(&self, u: usize) -> Option<Label> {
        self.labels.as_ref().map(|l| l[u])
    }

    /// Whether the pattern carries labels.
    pub fn is_labeled(&self) -> bool {
        self.labels.is_some()
    }

    /// Whether every vertex is reachable from vertex 0.
    pub fn is_connected(&self) -> bool {
        if self.n == 0 {
            return false;
        }
        let mut seen: u8 = 1;
        let mut frontier: u8 = 1;
        while frontier != 0 {
            let mut next: u8 = 0;
            let mut f = frontier;
            while f != 0 {
                let v = f.trailing_zeros() as usize;
                f &= f - 1;
                next |= self.adj[v];
            }
            frontier = next & !seen;
            seen |= next;
        }
        seen.count_ones() as usize >= self.n
    }

    /// The pattern with vertices renumbered by `perm` (`perm[i]` is the new
    /// id of old vertex `i`).
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..size()`.
    pub fn permuted(&self, perm: &[usize]) -> Pattern {
        assert_eq!(perm.len(), self.n, "permutation size mismatch");
        let mut check: u8 = 0;
        for &p in perm {
            assert!(p < self.n, "permutation value out of range");
            check |= 1 << p;
        }
        assert_eq!(check.count_ones() as usize, self.n, "not a permutation");
        let mut adj = [0u8; MAX_PATTERN_VERTICES];
        for u in 0..self.n {
            for v in 0..self.n {
                if self.has_edge(u, v) {
                    adj[perm[u]] |= 1 << perm[v];
                }
            }
        }
        let labels = self.labels.as_ref().map(|l| {
            let mut nl = vec![0; self.n];
            for u in 0..self.n {
                nl[perm[u]] = l[u];
            }
            nl
        });
        Pattern { n: self.n, adj, labels }
    }
}

impl fmt::Debug for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pattern(n={}, edges={:?}", self.n, self.edges())?;
        if let Some(l) = &self.labels {
            write!(f, ", labels={l:?}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let e: Vec<String> = self.edges().iter().map(|(u, v)| format!("{u}-{v}")).collect();
        write!(f, "P{}[{}]", self.n, e.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Pattern::triangle().edge_count(), 3);
        assert_eq!(Pattern::clique(5).edge_count(), 10);
        assert_eq!(Pattern::path(4).edge_count(), 3);
        assert_eq!(Pattern::star(5).degree(0), 4);
        assert_eq!(Pattern::cycle(5).edge_count(), 5);
        assert_eq!(Pattern::tailed_triangle().size(), 4);
        assert_eq!(Pattern::diamond().edge_count(), 5);
        assert_eq!(Pattern::house().size(), 5);
        assert_eq!(Pattern::single_vertex().size(), 1);
        assert_eq!(Pattern::edge().size(), 2);
    }

    #[test]
    fn error_cases() {
        assert_eq!(Pattern::from_edges(0, &[]), Err(PatternError::Empty));
        assert_eq!(Pattern::from_edges(9, &[]), Err(PatternError::TooLarge(9)));
        assert_eq!(Pattern::from_edges(3, &[(0, 3)]), Err(PatternError::BadEdge(0, 3)));
        assert_eq!(Pattern::from_edges(2, &[(1, 1)]), Err(PatternError::SelfLoop(1)));
        assert_eq!(PatternError::BadEdge(0, 3).to_string(), "edge (0, 3) is out of range");
        assert_eq!(PatternError::SelfLoop(1).to_string(), "edge (1, 1) is a self-loop");
        assert_eq!(Pattern::from_edges(3, &[(0, 1)]), Err(PatternError::Disconnected));
        assert!(Pattern::triangle().with_labels(vec![1]).is_err());
    }

    #[test]
    fn connectivity() {
        assert!(Pattern::path(6).is_connected());
        assert!(Pattern::from_edges(4, &[(0, 1), (2, 3)]).is_err());
    }

    #[test]
    fn permutation_preserves_structure() {
        let p = Pattern::tailed_triangle();
        let q = p.permuted(&[3, 2, 1, 0]);
        assert_eq!(q.edge_count(), p.edge_count());
        assert!(q.has_edge(3, 2)); // old (0,1)
        assert!(q.has_edge(1, 0)); // old (2,3)
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn bad_permutation_panics() {
        Pattern::triangle().permuted(&[0, 0, 1]);
    }

    #[test]
    fn labels() {
        let p = Pattern::edge().with_labels(vec![5, 6]).unwrap();
        assert!(p.is_labeled());
        assert_eq!(p.label(1), Some(6));
        let q = p.permuted(&[1, 0]);
        assert_eq!(q.label(0), Some(6));
    }

    #[test]
    fn display_and_debug() {
        let p = Pattern::triangle();
        assert_eq!(format!("{p}"), "P3[0-1,0-2,1-2]");
        assert!(format!("{p:?}").contains("edges"));
    }
}
