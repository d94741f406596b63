//! Symmetry-breaking ordering restrictions (GraphZero/GraphPi style).
//!
//! An unrestricted pattern-aware enumeration finds every *injective map*
//! from the pattern into the graph — `|Aut(p)|` maps per subgraph. To count
//! each subgraph exactly once, pattern-aware systems add ordering
//! constraints `f(u) < f(v)` between pattern vertices that select exactly
//! one canonical map per subgraph.
//!
//! The generator below builds a stabilizer chain over the automorphism
//! group: repeatedly take the earliest (in matching order) vertex moved by
//! a surviving automorphism, emit one `<` constraint per image, and keep
//! only the automorphisms fixing that vertex. The surviving map is the one
//! whose value at each chain base point is minimal over the orbit, which
//! exists and is unique for every subgraph. Turning one stage round (every
//! `<` of that base read as `>`) keeps the map whose base value is maximal
//! instead, as unique; the plan compiler turns the stages that give its
//! fetched lists the short end of their edges.

use crate::{iso, Pattern};

/// The constraint `f(smaller) < f(larger)` between two pattern vertices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Restriction {
    /// Pattern vertex whose image must be the smaller vertex id.
    pub smaller: usize,
    /// Pattern vertex whose image must be the larger vertex id.
    pub larger: usize,
}

/// Generates a complete restriction set for `p` given a matching order.
///
/// The order determines which orbit representatives get constrained first
/// so constraints prune as early as possible during enumeration.
///
/// Guarantees (validated by property tests):
/// * for every subgraph of any graph isomorphic to `p`, exactly **one** of
///   its `|Aut(p)|` injective maps satisfies all restrictions;
/// * an asymmetric pattern yields no restrictions.
///
/// # Panics
///
/// Panics if `order` is not a permutation of `0..p.size()`.
///
/// # Example
///
/// ```
/// use gpm_pattern::{restrictions, Pattern};
///
/// // Triangle: |Aut| = 6 needs two chained constraints.
/// let r = restrictions::generate(&Pattern::triangle(), &[0, 1, 2]);
/// assert_eq!(r.len(), 3); // v0 < v1, v0 < v2, then v1 < v2
/// ```
pub fn generate(p: &Pattern, order: &[usize]) -> Vec<Restriction> {
    assert_eq!(order.len(), p.size(), "order must cover the pattern");
    let mut perms = iso::automorphisms(p);
    let mut out = Vec::new();
    while perms.len() > 1 {
        let &base = order
            .iter()
            .find(|&&v| perms.iter().any(|perm| perm[v] != v))
            .expect("a non-identity automorphism moves some vertex");
        let mut images: Vec<usize> =
            perms.iter().map(|perm| perm[base]).filter(|&v| v != base).collect();
        images.sort_unstable();
        images.dedup();
        for img in images {
            out.push(Restriction { smaller: base, larger: img });
        }
        perms.retain(|perm| perm[base] == base);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn asymmetric_pattern_has_no_restrictions() {
        // Path 0-1-2 with a triangle at one end: 0-1,1-2,2-3,3-1 is... use
        // the "paw + tail" which is asymmetric: tailed triangle with an
        // extra tail vertex.
        let p = Pattern::from_edges(5, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]).unwrap();
        assert_eq!(iso::automorphism_count(&p), 2); // 0<->1 swap
        let p_asym =
            Pattern::from_edges(5, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (0, 3)]).unwrap();
        if iso::automorphism_count(&p_asym) == 1 {
            assert!(generate(&p_asym, &order(5)).is_empty());
        }
    }

    #[test]
    fn clique_restrictions_form_total_order() {
        let p = Pattern::clique(4);
        let r = generate(&p, &order(4));
        // Stabilizer chain on a clique: 3 + 2 + 1 constraints.
        assert_eq!(r.len(), 6);
        // They must force v0 < v1 < v2 < v3.
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert!(r.contains(&Restriction { smaller: i, larger: j }), "missing {i} < {j}");
            }
        }
    }

    #[test]
    fn edge_pattern_single_restriction() {
        let r = generate(&Pattern::edge(), &order(2));
        assert_eq!(r, vec![Restriction { smaller: 0, larger: 1 }]);
    }

    #[test]
    fn star_restrictions_order_leaves() {
        let p = Pattern::star(4); // center 0, leaves 1..3, |Aut| = 6
        let r = generate(&p, &order(4));
        assert!(r.contains(&Restriction { smaller: 1, larger: 2 }));
        assert!(r.contains(&Restriction { smaller: 1, larger: 3 }));
        assert!(r.contains(&Restriction { smaller: 2, larger: 3 }));
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn respects_matching_order_for_base_choice() {
        // With reversed matching order the first moved vertex differs.
        let p = Pattern::edge();
        let r = generate(&p, &[1, 0]);
        assert_eq!(r, vec![Restriction { smaller: 1, larger: 0 }]);
    }

    #[test]
    #[should_panic(expected = "order must cover")]
    fn bad_order_panics() {
        generate(&Pattern::triangle(), &[0, 1]);
    }
}
