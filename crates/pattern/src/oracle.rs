//! Brute-force counting oracle.
//!
//! Plain backtracking subgraph-isomorphism counting with no
//! pattern-awareness beyond candidate generation from a matched neighbor.
//! Deliberately simple: every optimized counting path in the workspace is
//! validated against these functions on small graphs.

use crate::{iso, Pattern};
use gpm_graph::{Graph, VertexId};

/// Counts injective maps `f` from `p` into `g` such that every pattern
/// edge maps to a graph edge (and, if `induced`, every pattern non-edge to
/// a graph non-edge). Labels are respected when both sides carry them.
///
/// # Example
///
/// ```
/// use gpm_pattern::{oracle, Pattern};
/// use gpm_graph::gen;
///
/// // A triangle has 6 injective maps onto itself.
/// assert_eq!(oracle::count_injective_maps(&gen::complete(3), &Pattern::triangle(), false), 6);
/// ```
pub fn count_injective_maps(g: &Graph, p: &Pattern, induced: bool) -> u64 {
    let mut count = 0u64;
    enumerate_maps(g, p, induced, &mut |_| count += 1);
    count
}

/// Counts distinct subgraphs of `g` isomorphic to `p`:
/// `count_injective_maps / |Aut(p)|`.
pub fn count_subgraphs(g: &Graph, p: &Pattern, induced: bool) -> u64 {
    let maps = count_injective_maps(g, p, induced);
    let aut = iso::automorphism_count(p);
    debug_assert_eq!(maps % aut, 0, "maps must divide evenly by |Aut|");
    maps / aut
}

/// Enumerates injective maps, invoking `visit` with `f` where `f[i]` is
/// the graph vertex pattern vertex `i` maps to.
pub fn enumerate_maps(g: &Graph, p: &Pattern, induced: bool, visit: &mut impl FnMut(&[VertexId])) {
    // Match pattern vertices in a connected order for pruning.
    let order = crate::order::automine_order(p);
    let n = p.size();
    let mut map = vec![VertexId::MAX; n]; // pattern vertex -> graph vertex
    let mut rec = Recursion { g, p, induced, order: &order, map: &mut map };
    rec.descend(0, &mut |m: &[VertexId]| visit(m));
}

struct Recursion<'a> {
    g: &'a Graph,
    p: &'a Pattern,
    induced: bool,
    order: &'a [usize],
    map: &'a mut Vec<VertexId>,
}

impl Recursion<'_> {
    fn descend(&mut self, i: usize, visit: &mut dyn FnMut(&[VertexId])) {
        let n = self.p.size();
        if i == n {
            visit(self.map);
            return;
        }
        let pv = self.order[i];
        // Candidates: all graph vertices for the first level, otherwise the
        // neighbors of one already-matched pattern neighbor.
        let anchor = self.order[..i].iter().copied().find(|&u| self.p.has_edge(u, pv));
        let run = |this: &mut Self, cand: VertexId, visit: &mut dyn FnMut(&[VertexId])| {
            if this.feasible(pv, cand, i) {
                this.map[pv] = cand;
                this.descend(i + 1, visit);
                this.map[pv] = VertexId::MAX;
            }
        };
        match anchor {
            None => {
                for cand in self.g.vertices() {
                    run(self, cand, visit);
                }
            }
            Some(u) => {
                let around = self.map[u];
                let neigh: Vec<VertexId> = self.g.neighbors(around).to_vec();
                for cand in neigh {
                    run(self, cand, visit);
                }
            }
        }
    }

    fn feasible(&self, pv: usize, cand: VertexId, matched_levels: usize) -> bool {
        // Label.
        if let Some(required) = self.p.label(pv) {
            if self.g.label(cand) != Some(required) {
                return false;
            }
        }
        for &u in &self.order[..matched_levels] {
            let gu = self.map[u];
            if gu == cand {
                return false; // injectivity
            }
            let pat_edge = self.p.has_edge(u, pv);
            let graph_edge = self.g.has_edge(gu, cand);
            if pat_edge && !graph_edge {
                return false;
            }
            if self.induced && !pat_edge && graph_edge {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::gen;

    #[test]
    fn triangles_in_complete_graph() {
        // K_n has C(n,3) triangles.
        assert_eq!(count_subgraphs(&gen::complete(6), &Pattern::triangle(), false), 20);
        assert_eq!(count_subgraphs(&gen::complete(6), &Pattern::clique(4), false), 15);
    }

    #[test]
    fn induced_vs_non_induced() {
        let k4 = gen::complete(4);
        let p3 = Pattern::path(3);
        // Non-induced: C(4,3) triples × 3 mid-points = 12 paths.
        assert_eq!(count_subgraphs(&k4, &p3, false), 12);
        // Induced: K4 has no induced P3.
        assert_eq!(count_subgraphs(&k4, &p3, true), 0);
    }

    #[test]
    fn cycle_counts() {
        let c6 = gen::cycle(6);
        assert_eq!(count_subgraphs(&c6, &Pattern::cycle(6), false), 1);
        assert_eq!(count_subgraphs(&c6, &Pattern::path(3), false), 6);
        assert_eq!(count_subgraphs(&c6, &Pattern::triangle(), false), 0);
    }

    #[test]
    fn star_counts() {
        let s = gen::star(7); // center + 6 leaves
        assert_eq!(count_subgraphs(&s, &Pattern::star(4), false), 20); // C(6,3)
        assert_eq!(count_subgraphs(&s, &Pattern::path(3), false), 15); // C(6,2)
    }

    #[test]
    fn labels_respected() {
        let g = gen::path(3).with_labels(vec![0, 1, 0]);
        let p_match = Pattern::path(3).with_labels(vec![0, 1, 0]).unwrap();
        let p_miss = Pattern::path(3).with_labels(vec![1, 0, 1]).unwrap();
        assert_eq!(count_subgraphs(&g, &p_match, false), 1);
        assert_eq!(count_subgraphs(&g, &p_miss, false), 0);
    }

    #[test]
    fn maps_divide_by_automorphisms() {
        let g = gen::erdos_renyi(20, 60, 1);
        for p in [Pattern::triangle(), Pattern::star(4), Pattern::cycle(4)] {
            let maps = count_injective_maps(&g, &p, false);
            assert_eq!(maps % iso::automorphism_count(&p), 0);
        }
    }
}
