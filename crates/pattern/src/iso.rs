//! Isomorphism, automorphisms and canonical codes for patterns.
//!
//! Patterns are at most [`crate::MAX_PATTERN_VERTICES`] vertices, so plain
//! permutation backtracking with degree pruning is more than fast enough;
//! no VF2 machinery is needed at this size.

use crate::Pattern;

/// Enumerates every automorphism of `p` (as permutations `perm[i]` = image
/// of vertex `i`). Labels, if present, must be preserved.
///
/// The identity is always included, so the result is never empty.
///
/// # Example
///
/// ```
/// use gpm_pattern::{iso, Pattern};
///
/// assert_eq!(iso::automorphisms(&Pattern::triangle()).len(), 6);
/// assert_eq!(iso::automorphisms(&Pattern::path(3)).len(), 2);
/// assert_eq!(iso::automorphisms(&Pattern::tailed_triangle()).len(), 2);
/// ```
pub fn automorphisms(p: &Pattern) -> Vec<Vec<usize>> {
    isomorphisms(p, p)
}

/// Number of automorphisms of `p` (`|Aut(p)|`).
pub fn automorphism_count(p: &Pattern) -> u64 {
    automorphisms(p).len() as u64
}

/// Enumerates every isomorphism from `a` to `b` (empty if none exists).
pub fn isomorphisms(a: &Pattern, b: &Pattern) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    search(a, b, &mut |perm| {
        out.push(perm.to_vec());
        false
    });
    out
}

/// Whether two patterns are isomorphic (respecting labels).
pub fn are_isomorphic(a: &Pattern, b: &Pattern) -> bool {
    search(a, b, &mut |_| true)
}

/// Backtracks over the isomorphisms from `a` to `b`, handing each to
/// `found`; stops at the first one `found` answers `true` for, and returns
/// whether it stopped.
fn search(a: &Pattern, b: &Pattern, found: &mut impl FnMut(&[usize]) -> bool) -> bool {
    if a.size() != b.size() || a.edge_count() != b.edge_count() || a.is_labeled() != b.is_labeled()
    {
        return false;
    }
    let n = a.size();
    extend(a, b, 0, &mut vec![usize::MAX; n], &mut vec![false; n], found)
}

fn extend(
    a: &Pattern,
    b: &Pattern,
    i: usize,
    perm: &mut Vec<usize>,
    used: &mut Vec<bool>,
    found: &mut impl FnMut(&[usize]) -> bool,
) -> bool {
    if i == a.size() {
        return found(perm);
    }
    for cand in 0..a.size() {
        if used[cand] || a.degree(i) != b.degree(cand) || a.label(i) != b.label(cand) {
            continue;
        }
        // Edges between i and already-mapped vertices must be preserved
        // both ways (patterns, unlike matches, are exact structures).
        if !(0..i).all(|j| a.has_edge(i, j) == b.has_edge(cand, perm[j])) {
            continue;
        }
        perm[i] = cand;
        used[cand] = true;
        if extend(a, b, i + 1, perm, used, found) {
            return true;
        }
        used[cand] = false;
        perm[i] = usize::MAX;
    }
    false
}

/// Canonical code of a pattern: the lexicographically smallest
/// `(adjacency bits, labels)` encoding over all vertex permutations.
///
/// Two patterns have equal canonical codes iff they are isomorphic, so the
/// code can key dedup maps (e.g. motif tables, FSM candidate sets).
///
/// # Example
///
/// ```
/// use gpm_pattern::{iso, Pattern};
///
/// let a = Pattern::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
/// let b = Pattern::from_edges(3, &[(2, 0), (0, 1)]).unwrap();
/// assert_eq!(iso::canonical_code(&a), iso::canonical_code(&b));
/// ```
pub fn canonical_code(p: &Pattern) -> Vec<u8> {
    let n = p.size();
    let mut best: Option<Vec<u8>> = None;
    let mut perm: Vec<usize> = (0..n).collect();
    permute_all(&mut perm, 0, &mut |perm| {
        let q = p.permuted(perm);
        let mut code = Vec::with_capacity(1 + n * 3);
        code.push(n as u8);
        for i in 0..n {
            code.push(q.adjacency_bits(i));
        }
        if let Some(labels) = q.labels() {
            for &l in labels {
                code.extend_from_slice(&l.to_le_bytes());
            }
        }
        match &best {
            Some(b) if *b <= code => {}
            _ => best = Some(code),
        }
    });
    best.expect("at least one permutation exists")
}

fn permute_all(perm: &mut Vec<usize>, i: usize, f: &mut impl FnMut(&[usize])) {
    let n = perm.len();
    if i == n {
        f(perm);
        return;
    }
    for j in i..n {
        perm.swap(i, j);
        permute_all(perm, i + 1, f);
        perm.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn automorphism_counts_of_known_patterns() {
        assert_eq!(automorphism_count(&Pattern::clique(4)), 24);
        assert_eq!(automorphism_count(&Pattern::clique(5)), 120);
        assert_eq!(automorphism_count(&Pattern::path(4)), 2);
        assert_eq!(automorphism_count(&Pattern::star(5)), 24);
        assert_eq!(automorphism_count(&Pattern::cycle(4)), 8);
        assert_eq!(automorphism_count(&Pattern::cycle(5)), 10);
        assert_eq!(automorphism_count(&Pattern::diamond()), 4);
        assert_eq!(automorphism_count(&Pattern::single_vertex()), 1);
    }

    #[test]
    fn automorphisms_are_valid_permutations() {
        let p = Pattern::house();
        for a in automorphisms(&p) {
            let q = p.permuted(&a);
            assert_eq!(q, p, "automorphism {a:?} does not fix the pattern");
        }
    }

    #[test]
    fn isomorphic_relabelings_detected() {
        let a = Pattern::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let b = Pattern::from_edges(4, &[(3, 1), (1, 0), (0, 2)]).unwrap();
        assert!(are_isomorphic(&a, &b));
        assert_eq!(canonical_code(&a), canonical_code(&b));
    }

    #[test]
    fn non_isomorphic_same_size() {
        let path = Pattern::path(4);
        let star = Pattern::star(4);
        assert_eq!(path.edge_count(), star.edge_count());
        assert!(!are_isomorphic(&path, &star));
        assert_ne!(canonical_code(&path), canonical_code(&star));
    }

    #[test]
    fn labels_break_symmetry() {
        let unlabeled = Pattern::edge();
        let ab = Pattern::edge().with_labels(vec![0, 1]).unwrap();
        let ba = Pattern::edge().with_labels(vec![1, 0]).unwrap();
        let aa = Pattern::edge().with_labels(vec![0, 0]).unwrap();
        assert_eq!(automorphism_count(&ab), 1);
        assert_eq!(automorphism_count(&aa), 2);
        assert!(are_isomorphic(&ab, &ba));
        assert!(!are_isomorphic(&ab, &aa));
        assert!(!are_isomorphic(&ab, &unlabeled));
        assert_eq!(canonical_code(&ab), canonical_code(&ba));
    }
}
