//! Single-machine reference interpreter for [`MatchingPlan`]s, and the one
//! depth-first walker every executor in the workspace runs.
//!
//! This is the "nested loops" of the paper's Figure 1: the simplest
//! correct executor of a plan. [`Walk`] is the loop nest itself, told by a
//! [`DataSource`] where each position's edge list lives. Run over a
//! [`Graph`] it is the ground truth for engine tests, the core of the
//! single-machine baselines, and the oracle cross-checks; the distributed
//! engine runs the same walk below the last level it has to fetch for,
//! with lists that live in its chunks.

use crate::plan::{LevelPlan, MatchingPlan, PairMode, Positions};
use crate::MAX_PATTERN_VERTICES;
use gpm_graph::set_ops::Side;
use gpm_graph::{Graph, Label, VertexId};

/// Where a walk's data lives: the executor's half of the plan/executor
/// split. The plan says *what* each level intersects and filters on; the
/// source hands over the lists, the bitmaps of the hot ones it keeps, and
/// labels.
pub trait DataSource {
    /// The edge list of `v`, the vertex matched at position `pos`, with
    /// its bitmap where the holder keeps one ([`gpm_graph::set_ops::is_hot`]
    /// of the list in hand), as a plain level reads it: a cold list must
    /// cost a compare and no lookup. Inline it always, so that the list
    /// comes back in registers.
    fn side(&self, pos: usize, v: VertexId) -> Side<'_>;
    /// `v`'s label, on a labeled graph.
    fn label(&self, v: VertexId) -> Option<Label>;
}

impl DataSource for Graph {
    /// A whole list, whose bitmap [`Graph::bits`] finds past a compare of
    /// the degree.
    #[inline(always)]
    fn side(&self, _pos: usize, v: VertexId) -> Side<'_> {
        Side { list: self.neighbors(v), bits: self.bits(v) }
    }

    fn label(&self, v: VertexId) -> Option<Label> {
        Graph::label(self, v)
    }
}

/// Working buffers of a walk, grown once and reused for every embedding:
/// one candidate buffer per level plus scratch. A level writes its buffer
/// only where its candidate set has to be computed (an intersection);
/// where the set is a window of one list it is read where that list
/// lives. Either way the slice the level iterates is also the stored
/// intermediate the next level reads, so vertical reuse costs no copy.
#[derive(Debug, Default)]
pub struct Buffers {
    cands: Vec<Vec<VertexId>>,
    tmp: Vec<VertexId>,
}

impl Buffers {
    /// `(buffers of levels from.., scratch)` for a plan of `levels`
    /// levels.
    pub fn from_level(
        &mut self,
        from: usize,
        levels: usize,
    ) -> (&mut [Vec<VertexId>], &mut Vec<VertexId>) {
        if self.cands.len() < levels {
            self.cands.resize_with(levels, Vec::new);
        }
        (&mut self.cands[from..levels], &mut self.tmp)
    }
}

/// What a visiting walk hands each embedding to; `false` ends the walk.
pub type Visit<'a> = &'a mut dyn FnMut(&[VertexId]) -> bool;

/// A depth-first walk of a plan's levels: the matched prefix, the running
/// count, and what to do with a complete embedding.
///
/// Without a visitor the walk only counts, so the last level's candidates
/// are counted rather than iterated and, under the IEP shortcut, the last
/// two loops collapse into pair arithmetic. With one, every embedding is
/// handed over in matching-order positions, and a `false` from the
/// visitor ends the walk.
pub struct Walk<'a, S: DataSource> {
    plan: &'a MatchingPlan,
    src: &'a S,
    pair: Option<PairMode>,
    visit: Option<Visit<'a>>,
    /// The level that is counted instead of walked: the last one, the one
    /// above it under the pair shortcut, none (`usize::MAX`) for a
    /// visiting walk.
    counted: usize,
    /// The vertices matched so far, by position. The caller fills the
    /// prefix above the level it descends from.
    pub matched: [VertexId; MAX_PATTERN_VERTICES],
    /// Embeddings found so far.
    pub count: u64,
}

impl<'a, S: DataSource> Walk<'a, S> {
    /// A walk that counts, by the plan's
    /// [`pair_count_mode`](MatchingPlan::pair_count_mode) where it has one.
    pub fn counting(plan: &'a MatchingPlan, src: &'a S) -> Self {
        let pair = plan.pair_count_mode();
        let counted = plan.levels().len().saturating_sub(1 + usize::from(pair.is_some()));
        Walk { plan, src, pair, visit: None, counted, matched: [0; MAX_PATTERN_VERTICES], count: 0 }
    }

    /// A walk that hands every embedding to `visit`.
    pub fn visiting(plan: &'a MatchingPlan, src: &'a S, visit: Visit<'a>) -> Self {
        Walk { visit: Some(visit), pair: None, counted: usize::MAX, ..Walk::counting(plan, src) }
    }

    /// Walks every embedding rooted at `v`. Returns `false` once the
    /// visitor has asked to stop.
    pub fn from_root(&mut self, v: VertexId, bufs: &mut Buffers) -> bool {
        if self.plan.root_label().is_some_and(|required| self.src.label(v) != Some(required)) {
            return true;
        }
        self.matched[0] = v;
        let levels = self.plan.levels().len();
        if levels == 0 {
            self.count += 1;
            return self.visit.as_mut().is_none_or(|visit| visit(&self.matched[..1]));
        }
        let (cands, tmp) = bufs.from_level(0, levels);
        self.descend(0, &[], cands, tmp)
    }

    /// Walks plan levels `level..` below the prefix `matched[..=level]`.
    /// `stored` is the intermediate the level above stored (read only by
    /// the reuse sources); `bufs` holds one buffer per remaining level,
    /// `bufs[0]` for this level's candidate set where it has to be
    /// computed. That set — computed, or a window borrowed from the list
    /// it is cut from — is the next level's `stored`. Returns `false` once
    /// the visitor has asked to stop.
    pub fn descend(
        &mut self,
        level: usize,
        stored: &[VertexId],
        bufs: &mut [Vec<VertexId>],
        tmp: &mut Vec<VertexId>,
    ) -> bool {
        debug_assert!(level <= self.counted, "the walk stops at the counted level");
        let (plan, src) = (self.plan, self.src);
        let lp = &plan.levels()[level];
        let (buf, deeper) = bufs.split_first_mut().expect("one buffer per remaining level");
        if level == self.counted {
            self.count += self.count_level(lp, stored, tmp, buf);
            return true;
        }
        let matched = &self.matched;
        let cands = lp.candidates(matched, |p| src.side(p, matched[p]), stored, tmp, buf);
        let last = level + 1 == plan.levels().len();
        for &cand in cands {
            if !passes_residual(src, lp, &self.matched, cand) {
                continue;
            }
            self.matched[lp.position] = cand;
            let keep = if level + 1 == self.counted {
                // Counted here: the level below is a length or one
                // intersection, not worth a frame of its own.
                let below = &plan.levels()[level + 1];
                self.count += self.count_level(below, cands, tmp, &mut deeper[0]);
                true
            } else if last {
                self.count += 1;
                let visit = self.visit.as_mut().expect("a last level without a visitor is counted");
                visit(&self.matched[..=lp.position])
            } else {
                self.descend(level + 1, cands, deeper, tmp)
            };
            if !keep {
                return false;
            }
        }
        true
    }

    /// What the counted level `lp` contributes below the matched prefix.
    #[inline]
    fn count_level(
        &self,
        lp: &LevelPlan,
        stored: &[VertexId],
        tmp: &mut Vec<VertexId>,
        buf: &mut Vec<VertexId>,
    ) -> u64 {
        let (src, matched) = (self.src, &self.matched);
        let passes = |c| passes_filters(lp, matched, c, |v| src.label(v));
        let k = lp.count(matched, |p| src.side(p, matched[p]), stored, passes, tmp, buf);
        self.pair.map_or(k, |mode| pair_contribution(k, mode))
    }
}

/// Counts the embeddings a plan produces on `g`.
///
/// With symmetry breaking on (the default) this is the number of
/// subgraphs isomorphic to the pattern; with it off, the number of
/// injective maps.
///
/// # Example
///
/// ```
/// use gpm_pattern::{interp, plan::{MatchingPlan, PlanOptions}, Pattern};
/// use gpm_graph::gen;
///
/// let plan = MatchingPlan::compile(&Pattern::triangle(), &PlanOptions::default()).unwrap();
/// assert_eq!(interp::count_embeddings(&gen::complete(4), &plan), 4);
/// ```
pub fn count_embeddings(g: &Graph, plan: &MatchingPlan) -> u64 {
    let mut count = 0u64;
    enumerate_embeddings(g, plan, |_| count += 1);
    count
}

/// Enumerates embeddings, invoking `visit` with the matched vertices in
/// matching-order positions (`matched[i]` = graph vertex at position `i`).
pub fn enumerate_embeddings<F: FnMut(&[VertexId])>(g: &Graph, plan: &MatchingPlan, mut visit: F) {
    enumerate_embeddings_until(g, plan, |m| {
        visit(m);
        true
    });
}

/// Enumerates embeddings with early termination: `visit` returns `false`
/// to stop the walk (used by bounded queries such as FSM's
/// support-threshold check and exists-a-match queries).
pub fn enumerate_embeddings_until<F: FnMut(&[VertexId]) -> bool>(
    g: &Graph,
    plan: &MatchingPlan,
    mut visit: F,
) {
    let mut bufs = Buffers::default();
    let mut walk = Walk::visiting(plan, g, &mut visit);
    for v in g.vertices() {
        if !walk.from_root(v, &mut bufs) {
            return;
        }
    }
}

/// Whether `cand`, a member of the level's raw candidate set, extends the
/// matched prefix: the *residual* check — the order bounds the raw
/// window's clamp did not apply, injectivity, labels. On the raw set it
/// decides what [`passes_filters`] decides, without comparing again what
/// the clamp already has.
#[inline]
pub fn passes_residual<S: DataSource>(
    src: &S,
    lp: &LevelPlan,
    matched: &[VertexId],
    cand: VertexId,
) -> bool {
    lp.unfiltered || passes(lp, (lp.rest_lower, lp.rest_upper), matched, cand, |v| src.label(v))
}

/// Whether candidate `cand` passes all of the level's filters (bounds,
/// injectivity, labels) given the matched prefix: the full check, for a
/// candidate no window has been applied to. `label` reads the executor's
/// graph: a [`DataSource`], or a part's own label array.
#[inline]
pub fn passes_filters(
    lp: &LevelPlan,
    matched: &[VertexId],
    cand: VertexId,
    label: impl Fn(VertexId) -> Option<Label>,
) -> bool {
    passes(lp, (lp.lower, lp.upper), matched, cand, label)
}

/// Whether `cand` lies above every vertex matched at `lower` and below
/// every one matched at `upper`, differs from those the level must avoid
/// and carries the level's label.
#[inline]
fn passes(
    lp: &LevelPlan,
    (lower, upper): (Positions, Positions),
    matched: &[VertexId],
    cand: VertexId,
    label: impl Fn(VertexId) -> Option<Label>,
) -> bool {
    lower.iter().all(|p| cand > matched[p])
        && upper.iter().all(|p| cand < matched[p])
        && lp.distinct.iter().all(|p| cand != matched[p])
        && lp.label.is_none_or(|required| label(cand) == Some(required))
}

/// Counts embeddings using the final-level counting shortcut: instead of
/// iterating the last level's candidates, count the bounded intersection
/// without materialising it where the filters allow. Produces identical
/// results to [`count_embeddings`]; used by counting-only applications.
pub fn count_embeddings_fast(g: &Graph, plan: &MatchingPlan) -> u64 {
    let mut bufs = Buffers::default();
    let mut walk = Walk::counting(plan, g);
    for v in g.vertices() {
        walk.from_root(v, &mut bufs);
    }
    walk.count
}

/// Pairs contributed by a qualifying candidate set of size `k` under the
/// IEP shortcut.
pub fn pair_contribution(k: u64, mode: PairMode) -> u64 {
    match mode {
        PairMode::Unordered => k * k.saturating_sub(1) / 2,
        PairMode::Ordered => k * k.saturating_sub(1),
    }
}

/// Counts the embeddings rooted at `v` only (level-0 vertex fixed),
/// using the fast final-level shortcut. Summing over all vertices equals
/// [`count_embeddings_fast`]; single-machine baselines parallelize over
/// roots with this, each worker thread passing its own `bufs`.
pub fn count_from_root(g: &Graph, plan: &MatchingPlan, v: VertexId, bufs: &mut Buffers) -> u64 {
    let mut walk = Walk::counting(plan, g);
    walk.from_root(v, bufs);
    walk.count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanOptions;
    use crate::{oracle, Pattern};
    use gpm_graph::gen;

    fn check_all(g: &Graph, p: &Pattern, induced: bool) {
        let opts = PlanOptions {
            induced,
            order: crate::order::OrderChoice::Automine,
            ..PlanOptions::default()
        };
        let plan = MatchingPlan::compile(p, &opts).unwrap();
        let expect = oracle::count_subgraphs(g, p, induced);
        assert_eq!(count_embeddings(g, &plan), expect, "slow path, {p}, induced={induced}");
        assert_eq!(count_embeddings_fast(g, &plan), expect, "fast path, {p}");
        let gp_opts = PlanOptions { order: crate::order::OrderChoice::GraphPi, ..opts };
        let plan2 = MatchingPlan::compile(p, &gp_opts).unwrap();
        assert_eq!(count_embeddings(g, &plan2), expect, "graphpi order, {p}");
    }

    #[test]
    fn known_counts_on_fixtures() {
        let k5 = gen::complete(5);
        let tri = MatchingPlan::compile(&Pattern::triangle(), &PlanOptions::default()).unwrap();
        assert_eq!(count_embeddings(&k5, &tri), 10); // C(5,3)
        let p3 = MatchingPlan::compile(&Pattern::path(3), &PlanOptions::default()).unwrap();
        assert_eq!(count_embeddings(&k5, &p3), 30); // C(5,3) * 3
        let star = MatchingPlan::compile(&Pattern::star(4), &PlanOptions::default()).unwrap();
        assert_eq!(count_embeddings(&gen::star(6), &star), 10); // C(5,3)
    }

    #[test]
    fn matches_oracle_on_random_graphs() {
        let g = gen::erdos_renyi(40, 160, 9);
        for p in [
            Pattern::triangle(),
            Pattern::path(3),
            Pattern::path(4),
            Pattern::star(4),
            Pattern::cycle(4),
            Pattern::clique(4),
            Pattern::tailed_triangle(),
            Pattern::diamond(),
        ] {
            check_all(&g, &p, false);
            check_all(&g, &p, true);
        }
    }

    /// The plan walked by the general route alone — `raw_candidates` and the
    /// full `passes_filters`, fresh buffers, never a plain level's shortcut —
    /// checking at every level it reaches that `candidates`,
    /// `passes_residual` and `count` compute the same: the same raw set,
    /// the same verdict on each member of it, the same count. Returns
    /// every embedding.
    fn general_route(g: &Graph, plan: &MatchingPlan) -> Vec<Vec<VertexId>> {
        fn below(
            g: &Graph,
            plan: &MatchingPlan,
            level: usize,
            matched: &mut [VertexId; MAX_PATTERN_VERTICES],
            stored: &[VertexId],
            out: &mut Vec<Vec<VertexId>>,
        ) {
            let Some(lp) = plan.levels().get(level) else {
                out.push(matched[..=level].to_vec());
                return;
            };
            let what = format!("level {level} below {:?}\n{}", &matched[..=level], plan.describe());
            let (mut tmp, mut raw, mut buf) = (Vec::new(), Vec::new(), Vec::new());
            let mut count_buf = Vec::new();
            let prefix = *matched;
            let list_at = |p: usize| g.neighbors(prefix[p]);
            let side_at = |p: usize| g.side(p, prefix[p]);
            lp.raw_candidates(&prefix, list_at, || stored, &mut tmp, &mut raw);
            assert_eq!(lp.candidates(&prefix, side_at, stored, &mut tmp, &mut buf), raw, "{what}");
            let passes = |c| passes_filters(lp, &prefix, c, |v| g.label(v));
            let passing: Vec<VertexId> = raw.iter().copied().filter(|&c| passes(c)).collect();
            for &c in &raw {
                assert_eq!(passes_residual(g, lp, &prefix, c), passing.contains(&c), "{c}: {what}");
            }
            let counted = lp.count(&prefix, side_at, stored, passes, &mut tmp, &mut count_buf);
            assert_eq!(counted, passing.len() as u64, "{what}");
            for c in passing {
                matched[lp.position] = c;
                below(g, plan, level + 1, matched, &raw, out);
            }
        }
        let mut out = Vec::new();
        for v in g.vertices() {
            if plan.root_label().is_none_or(|required| g.label(v) == Some(required)) {
                below(g, plan, 0, &mut [v; MAX_PATTERN_VERTICES], &[], &mut out);
            }
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn every_small_pattern_matches_oracle_and_the_general_route_under_both_compilers() {
        // Every connected pattern of up to 5 vertices x {automine, graphpi}
        // x {non-induced, induced} x {unlabeled, labeled}: whatever bounds
        // the compiler pushed into the candidate computation, whichever
        // levels are plain, and whether the last levels are iterated,
        // counted or pair-counted, the plan counts what the brute-force
        // oracle counts and visits what the general route visits. The hubs
        // of the skewed graph make the bounds cut real ranges. On 28
        // vertices every list is hot, so every plain two-input level probes
        // a bitmap; the same edges among 328 vertices make the hubs hot and
        // the rest cold, so plain levels probe, merge and gallop.
        let ba = gen::barabasi_albert(28, 4, 17);
        let mut padded = gpm_graph::GraphBuilder::new(ba.vertex_count() + 300);
        let padded = padded.extend_edges(ba.edges()).build();
        let hot = |g: &Graph| g.vertices().filter(|&v| g.bits(v).is_some()).count();
        assert_eq!(hot(&ba), 28);
        assert!((3..20).contains(&hot(&padded)), "{} hot lists", hot(&padded));
        let graphs = [ba, padded].map(|g| {
            let labeled = gen::with_random_labels(&g, 2, 5);
            (g, labeled)
        });
        let (mut seen, mut plain, mut pair_counted) = (0, 0, 0);
        for k in 1..=5 {
            for p in crate::genpat::connected_patterns(k) {
                seen += 1;
                let labels = (0..k as gpm_graph::Label).map(|i| i % 2).collect();
                let with_labels = p.clone().with_labels(labels).unwrap();
                let inputs =
                    graphs.iter().flat_map(|(g, labeled)| [(g, &p), (labeled, &with_labels)]);
                for (g, p) in inputs {
                    for induced in [false, true] {
                        let expect = oracle::count_subgraphs(g, p, induced);
                        for base in [PlanOptions::automine(), PlanOptions::graphpi()] {
                            let opts = PlanOptions { induced, ..base };
                            let plan = MatchingPlan::compile(p, &opts).unwrap();
                            let what = format!("{p}, induced={induced}\n{}", plan.describe());
                            assert_eq!(count_embeddings_fast(g, &plan), expect, "counted: {what}");
                            let mut visited = Vec::new();
                            enumerate_embeddings(g, &plan, |m| visited.push(m.to_vec()));
                            visited.sort_unstable();
                            assert_eq!(visited.len() as u64, expect, "iterated: {what}");
                            assert_eq!(visited, general_route(g, &plan), "{what}");
                            plain += plan.levels().iter().filter(|l| l.plain).count();
                            pair_counted += usize::from(plan.pair_count_mode().is_some());
                        }
                    }
                }
            }
        }
        assert_eq!(seen, 31, "every connected pattern of up to five vertices");
        assert!(plain > 100 && pair_counted > 5, "{plain} plain levels, {pair_counted} pairs");
    }

    #[test]
    fn matches_oracle_on_skewed_graph() {
        let g = gen::barabasi_albert(60, 3, 5);
        for p in [Pattern::triangle(), Pattern::clique(4), Pattern::cycle(4)] {
            check_all(&g, &p, false);
        }
    }

    #[test]
    fn no_symmetry_break_counts_maps() {
        let g = gen::erdos_renyi(30, 100, 3);
        let p = Pattern::triangle();
        let opts = PlanOptions { symmetry_break: false, ..PlanOptions::default() };
        let plan = MatchingPlan::compile(&p, &opts).unwrap();
        assert_eq!(count_embeddings(&g, &plan), oracle::count_injective_maps(&g, &p, false));
    }

    #[test]
    fn reuse_toggle_is_invisible() {
        let g = gen::erdos_renyi(50, 250, 7);
        for p in [Pattern::clique(4), Pattern::clique(5), Pattern::diamond()] {
            let with = MatchingPlan::compile(&p, &PlanOptions::default()).unwrap();
            let without = MatchingPlan::compile(
                &p,
                &PlanOptions { vertical_reuse: false, ..PlanOptions::default() },
            )
            .unwrap();
            assert_eq!(count_embeddings(&g, &with), count_embeddings(&g, &without));
        }
    }

    #[test]
    fn labeled_counting() {
        let g = gen::with_random_labels(&gen::erdos_renyi(40, 150, 2), 3, 4);
        let p = Pattern::path(3).with_labels(vec![0, 1, 2]).unwrap();
        let plan = MatchingPlan::compile(&p, &PlanOptions::default()).unwrap();
        assert_eq!(count_embeddings(&g, &plan), oracle::count_subgraphs(&g, &p, false));
    }

    #[test]
    fn enumerate_yields_valid_embeddings() {
        let g = gen::erdos_renyi(25, 80, 1);
        let p = Pattern::cycle(4);
        let plan = MatchingPlan::compile(&p, &PlanOptions::default()).unwrap();
        let order = plan.order().to_vec();
        let mut n = 0u64;
        enumerate_embeddings(&g, &plan, |m| {
            n += 1;
            // Every pattern edge must map to a graph edge.
            for (u, v) in p.edges() {
                let pu = order.iter().position(|&x| x == u).unwrap();
                let pv = order.iter().position(|&x| x == v).unwrap();
                assert!(g.has_edge(m[pu], m[pv]));
            }
            // Injectivity.
            let mut s = m.to_vec();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), m.len());
        });
        assert_eq!(n, oracle::count_subgraphs(&g, &p, false));
    }

    #[test]
    fn iep_pair_counting_matches_oracle() {
        let g = gen::barabasi_albert(120, 5, 13);
        for p in [
            Pattern::path(3), // wedge: symmetric pair
            Pattern::star(4), // last two of three leaves
            Pattern::star(5),
            Pattern::tailed_triangle(), // no independent symmetric tail pair order-dependent
            Pattern::cycle(4),          // adjacent last vertices: no IEP
            Pattern::clique(4),
        ] {
            let iep = PlanOptions { iep: true, ..PlanOptions::default() };
            let plan = MatchingPlan::compile(&p, &iep).unwrap();
            let expect = oracle::count_subgraphs(&g, &p, false);
            assert_eq!(count_embeddings_fast(&g, &plan), expect, "{p}");
            // Sanity: wedges and stars actually take the shortcut.
            if p == Pattern::path(3) || p == Pattern::star(4) {
                assert_eq!(plan.pair_count_mode(), Some(crate::plan::PairMode::Unordered));
            }
            if p == Pattern::clique(4) || p == Pattern::cycle(4) {
                assert_eq!(plan.pair_count_mode(), None, "{p} has adjacent tail");
            }
        }
    }

    #[test]
    fn iep_with_distinct_leaf_labels_uses_ordered_mode_or_none() {
        // Labeled star: leaves with different labels break the symmetry;
        // counting must still match the oracle whatever mode is chosen.
        let g = gen::with_random_labels(&gen::barabasi_albert(100, 5, 3), 2, 8);
        let p = Pattern::star(3).with_labels(vec![0, 1, 1]).unwrap();
        let iep = PlanOptions { iep: true, ..PlanOptions::default() };
        let plan = MatchingPlan::compile(&p, &iep).unwrap();
        assert_eq!(count_embeddings_fast(&g, &plan), oracle::count_subgraphs(&g, &p, false));
    }

    #[test]
    fn count_from_root_partitions_total() {
        let g = gen::erdos_renyi(60, 250, 11);
        for p in [Pattern::triangle(), Pattern::clique(4), Pattern::star(4)] {
            let plan = MatchingPlan::compile(&p, &PlanOptions::default()).unwrap();
            let mut bufs = Buffers::default();
            let total: u64 = g.vertices().map(|v| count_from_root(&g, &plan, v, &mut bufs)).sum();
            assert_eq!(total, count_embeddings_fast(&g, &plan), "{p}");
        }
    }

    #[test]
    fn count_from_root_respects_root_label() {
        let g = gen::with_random_labels(&gen::complete(12), 2, 3);
        let p = Pattern::edge().with_labels(vec![0, 1]).unwrap();
        let plan = MatchingPlan::compile(&p, &PlanOptions::default()).unwrap();
        let root_label = plan.root_label().unwrap();
        for v in g.vertices() {
            if g.label(v) != Some(root_label) {
                assert_eq!(count_from_root(&g, &plan, v, &mut Buffers::default()), 0);
            }
        }
    }

    #[test]
    fn enumerate_until_stops_promptly() {
        let g = gen::complete(20);
        let plan = MatchingPlan::compile(&Pattern::triangle(), &PlanOptions::default()).unwrap();
        let mut seen = 0u64;
        enumerate_embeddings_until(&g, &plan, |_| {
            seen += 1;
            seen < 5
        });
        assert_eq!(seen, 5, "single-threaded early exit is exact");
        // And the non-stopping variant sees everything.
        let mut all = 0u64;
        enumerate_embeddings_until(&g, &plan, |_| {
            all += 1;
            true
        });
        assert_eq!(all, 1140); // C(20,3)
    }

    #[test]
    fn single_vertex_plan() {
        let g = gen::complete(6);
        let p = Pattern::single_vertex();
        let plan = MatchingPlan::compile(&p, &PlanOptions::default()).unwrap();
        assert_eq!(count_embeddings(&g, &plan), 6);
        assert_eq!(count_embeddings_fast(&g, &plan), 6);
    }
}
