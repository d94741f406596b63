//! The matching-plan compiler.
//!
//! A [`MatchingPlan`] is the reified form of the paper's generated `EXTEND`
//! function (§3.2): for each tree level it records which already-matched
//! positions' edge lists must be intersected (and, for induced matching,
//! subtracted), which filters apply, which positions stay *active*
//! (anti-monotone, §3.1), and whether the level's candidate set can be
//! derived from the parent's stored intermediate result (vertical
//! computation sharing, §5.1).
//!
//! Client systems — k-Automine and k-GraphPi — differ only in the
//! [`PlanOptions`] they compile with; the Khuzdul engine executes plans
//! without knowing which system produced them.

use crate::order::{self, OrderChoice};
use crate::restrictions::{self, Restriction};
use crate::{iso, Pattern, MAX_PATTERN_VERTICES};
use gpm_graph::set_ops::{self, Side};
use gpm_graph::{Label, VertexId};

/// How a level's raw candidate set is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CandidateSource {
    /// Intersect the edge lists of all `intersect` positions.
    #[default]
    Scratch,
    /// The candidate set equals the parent's stored intermediate result.
    ParentIntermediate,
    /// The candidate set is the parent's stored intermediate result
    /// intersected with the edge list of the immediately preceding
    /// position (the vertex the parent was extended with).
    ParentIntermediateAndNew,
}

/// Per-level extension program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelPlan {
    /// The embedding position this level fills (1-based; position 0 is the
    /// enumeration root).
    pub position: usize,
    /// Positions whose graph edge lists are intersected to produce raw
    /// candidates. Non-empty for every level (connected-prefix property).
    pub intersect: Vec<usize>,
    /// Induced matching only: positions whose edge lists are subtracted
    /// (the candidate must *not* be adjacent to them).
    pub subtract: Vec<usize>,
    /// Positions the candidate must differ from (injectivity checks not
    /// already implied by adjacency or ordering constraints).
    pub distinct: Vec<usize>,
    /// Positions whose matched vertex the candidate must exceed
    /// (symmetry-breaking `>` bounds).
    pub lower: Vec<usize>,
    /// Positions whose matched vertex the candidate must be below
    /// (symmetry-breaking `<` bounds).
    pub upper: Vec<usize>,
    /// The subset of `lower` an executor may apply to the level's *raw*
    /// candidate set, by clamping the inputs of the intersection. All of
    /// `lower` when the level stores no intermediate; when it does, the
    /// stored set feeds later levels, so only the bounds every transitive
    /// consumer of it also carries.
    pub raw_lower: Vec<usize>,
    /// The subset of `upper` that may be applied to the raw candidate set
    /// (see `raw_lower`).
    pub raw_upper: Vec<usize>,
    /// Required label of the candidate, for labeled patterns.
    pub label: Option<Label>,
    /// Required **edge** labels: `(position, label)` pairs meaning the
    /// graph edge between the candidate and that matched position must
    /// carry the label. Only single-machine executors support these (the
    /// paper's engine, like ours, ships vertex labels only).
    pub edge_labels: Vec<(usize, Label)>,
    /// How the raw candidate set is computed.
    pub source: CandidateSource,
    /// Whether embeddings created at this level must store their raw
    /// candidate set for reuse by the next level.
    pub store_intermediate: bool,
    /// Positions (including possibly this one) whose edge lists are still
    /// needed by levels *after* this one — the extendable embedding's
    /// active-vertex set once this level's vertex is appended.
    pub active_after: Vec<usize>,
    /// Whether the vertex matched at this level is itself active later
    /// (if `false`, its edge list never needs to be fetched — the paper's
    /// "not all vertices are active" case).
    pub new_vertex_active: bool,
    /// The level as the inner loop reads it, derived from the fields above
    /// once, at the end of compilation.
    pub lowered: Lowered,
}

/// A set of embedding positions in one byte, bit `p` for position `p`:
/// what the walk iterates per candidate where the plan keeps a heap
/// `Vec<usize>`. An empty set costs one test.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct Positions(u8);

const _: () = assert!(MAX_PATTERN_VERTICES <= u8::BITS as usize);

impl FromIterator<usize> for Positions {
    fn from_iter<I: IntoIterator<Item = usize>>(positions: I) -> Self {
        Positions(positions.into_iter().fold(0, |bits, p| {
            assert!(p < MAX_PATTERN_VERTICES, "position {p} outside an embedding");
            bits | 1 << p
        }))
    }
}

impl Positions {
    /// The positions, ascending.
    #[inline]
    pub fn iter(self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let p = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                p
            })
        })
    }

    /// Whether the set names `p`.
    #[inline]
    pub fn contains(self, p: usize) -> bool {
        self.0 >> p & 1 == 1
    }

    /// Whether the set names no position.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// How many positions the set names.
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }
}

impl std::fmt::Debug for Positions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One level lowered to the flat form executors run. The paper's client
/// systems hand the engine a *compiled* `EXTEND` (§3.2); this is as close
/// as a reified plan gets: every position list a byte, the order bounds
/// split into what the raw window's clamp applies and the *residual*
/// still owed per candidate, and what the inner loop would otherwise ask
/// per call answered once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Lowered {
    /// `LevelPlan::source`.
    pub source: CandidateSource,
    /// Positions whose edge lists the source reads: all of `intersect`
    /// from scratch, the preceding position beside a reused intermediate,
    /// none when the intermediate is the candidate set.
    pub lists: Positions,
    /// `LevelPlan::raw_lower`: the lower bounds the raw window applies.
    pub raw_lower: Positions,
    /// `LevelPlan::raw_upper`.
    pub raw_upper: Positions,
    /// `lower − raw_lower`: the lower bounds a member of the raw set is
    /// still to be checked against.
    pub rest_lower: Positions,
    /// `upper − raw_upper`.
    pub rest_upper: Positions,
    /// `LevelPlan::distinct`.
    pub distinct: Positions,
    /// The `distinct` positions the pattern makes adjacent to every
    /// intersected position: each one's vertex is in every input list for
    /// certain, so counting the level need not search for it.
    pub distinct_adjacent: Positions,
    /// No label, edge label or subtraction, and at most two inputs: the
    /// raw set is a clamped window of one list or one two-way
    /// intersection, and the level never takes the general route.
    pub plain: bool,
    /// Nothing is left to check per candidate: every member of the raw
    /// set extends the embedding.
    pub unfiltered: bool,
}

impl Lowered {
    /// Lowers a finished level; `adjacent(p, q)` says whether the pattern
    /// has an edge between the vertices matched at `p` and `q`.
    fn of(lp: &LevelPlan, adjacent: impl Fn(usize, usize) -> bool) -> Lowered {
        let set = |positions: &[usize]| positions.iter().copied().collect::<Positions>();
        let lists = match lp.source {
            CandidateSource::Scratch => set(&lp.intersect),
            CandidateSource::ParentIntermediate => set(&[]),
            CandidateSource::ParentIntermediateAndNew => set(&[lp.position - 1]),
        };
        let inputs = lists.len() + usize::from(lp.source != CandidateSource::Scratch);
        let (raw_lower, raw_upper) = (set(&lp.raw_lower), set(&lp.raw_upper));
        let rest_lower = Positions(set(&lp.lower).0 & !raw_lower.0);
        let rest_upper = Positions(set(&lp.upper).0 & !raw_upper.0);
        let in_every_list = |p: &usize| lp.intersect.iter().all(|&q| adjacent(*p, q));
        let unlabelled = lp.label.is_none() && lp.edge_labels.is_empty();
        Lowered {
            source: lp.source,
            lists,
            raw_lower,
            raw_upper,
            rest_lower,
            rest_upper,
            distinct: set(&lp.distinct),
            distinct_adjacent: lp.distinct.iter().copied().filter(in_every_list).collect(),
            plain: unlabelled && lp.subtract.is_empty() && inputs <= 2,
            unfiltered: unlabelled
                && rest_lower.is_empty()
                && rest_upper.is_empty()
                && lp.distinct.is_empty(),
        }
    }

    /// The window the raw candidate set is clamped to.
    #[inline]
    pub fn raw_window(&self, matched: &[VertexId]) -> Window {
        window_at(self.raw_lower, self.raw_upper, matched)
    }

    /// The window all of the level's order bounds put on a candidate: raw
    /// and residual bounds together.
    #[inline]
    pub fn window(&self, matched: &[VertexId]) -> Window {
        let lower = Positions(self.raw_lower.0 | self.rest_lower.0);
        let upper = Positions(self.raw_upper.0 | self.rest_upper.0);
        window_at(lower, upper, matched)
    }

    /// The one or two inputs of a plain level, unclamped: a stored
    /// intermediate never carries a bitmap, a list may.
    #[inline]
    fn inputs<'a>(
        &self,
        list_at: impl Fn(usize) -> Side<'a>,
        stored: &'a [VertexId],
    ) -> (Side<'a>, Option<Side<'a>>) {
        debug_assert!(self.plain);
        let mut lists = self.lists.iter().map(list_at);
        match self.source {
            CandidateSource::Scratch => {
                let first = lists.next().expect("a level from scratch intersects a list");
                (first, lists.next())
            }
            CandidateSource::ParentIntermediate | CandidateSource::ParentIntermediateAndNew => {
                (Side::plain(stored), lists.next())
            }
        }
    }
}

/// The window above every vertex matched at `lower` and below every one
/// matched at `upper`.
#[inline]
fn window_at(lower: Positions, upper: Positions, matched: &[VertexId]) -> Window {
    (lower.iter().map(|p| matched[p]).max(), upper.iter().map(|p| matched[p]).min())
}

/// An exclusive `(lo, hi)` window on candidate vertices; either side may
/// be open.
pub type Window = (Option<VertexId>, Option<VertexId>);

/// How much of the edge list matched at one position the rest of the plan
/// can read, so how much of it a fetch has to move. Every level that reads
/// the list — as an intersected input, beside a reused intermediate, or
/// subtracted — clamps it to the level's raw window (or a narrower one)
/// before it looks at it, so nothing at or below that window's lower bound
/// is ever read. When the list is fetched only the positions up to its own
/// are matched: each reading level contributes the raw lower bounds among
/// those, and the list is needed above the least of the reading levels'
/// largest known bound. A reading level with no such bound reads the list
/// whole, and so does the fetch ([`FetchBound::above`] is `None`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FetchBound(Vec<Positions>);

impl FetchBound {
    /// The bound of the list matched at `p`, from the plan's levels.
    fn of(p: usize, levels: &[LevelPlan]) -> FetchBound {
        let mut known = Vec::new();
        for lp in
            levels.iter().filter(|lp| lp.lowered.lists.contains(p) || lp.subtract.contains(&p))
        {
            let bounds: Positions = lp.lowered.raw_lower.iter().filter(|&q| q <= p).collect();
            if bounds.is_empty() {
                return FetchBound::default();
            }
            known.push(bounds);
        }
        known.sort_unstable_by_key(|s| s.0);
        known.dedup();
        FetchBound(known)
    }

    /// The exclusive lower bound above which the list of `child` is read,
    /// `child` matched after the vertices of `prefix`; `None` when it is
    /// read whole.
    #[inline]
    pub fn above(&self, prefix: &[VertexId], child: VertexId) -> Option<VertexId> {
        let at = |q: usize| prefix.get(q).copied().unwrap_or(child);
        self.0.iter().map(|known| known.iter().map(at).max().expect("a known bound")).min()
    }

    /// Whether a fetch of the list can ever be cut short.
    #[inline]
    pub fn is_bounded(&self) -> bool {
        !self.0.is_empty()
    }
}

/// Executing one level. The plan knows *what* a level computes; the
/// executor passes in *where the data lives*: `list_at(p)` is the edge
/// list of the vertex matched at position `p` (with its bitmap, where the
/// executor keeps one), and `stored` the intermediate stored by the
/// previous level (read only by the reuse sources). Every input is
/// clamped to the level's window before it is intersected, so what the
/// order bounds exclude is never scanned — except a list with a bitmap,
/// which a plain level never scans: the other input's window is probed
/// against it.
///
/// Executors call [`candidates`](Self::candidates) and
/// [`count`](Self::count). A [plain](Lowered::plain) level runs there from
/// its lowered form; labelled and induced levels, and intersections of
/// three lists or more, take the general route —
/// [`raw_candidates`](Self::raw_candidates) and
/// [`count_candidates`](Self::count_candidates), which compute any level
/// and are what the lowered form is tested against.
impl LevelPlan {
    /// The level's raw candidate set — the candidate source restricted to
    /// the raw window, so it may be stored as the next level's
    /// intermediate — as a slice. A plain level with one input has nothing
    /// to compute: its set is the clamped window *of that input*, borrowed
    /// where it lives. Only an intersection (or the general route) writes
    /// `buf`. Candidates still owe the residual check. `tmp` is scratch.
    #[inline]
    pub fn candidates<'a>(
        &self,
        matched: &[VertexId],
        list_at: impl Fn(usize) -> Side<'a>,
        stored: &'a [VertexId],
        tmp: &mut Vec<VertexId>,
        buf: &'a mut Vec<VertexId>,
    ) -> &'a [VertexId] {
        let lowered = &self.lowered;
        if !lowered.plain {
            self.raw_candidates(matched, |p| list_at(p).list, || stored, tmp, buf);
            return buf;
        }
        let (lo, hi) = lowered.raw_window(matched);
        let (a, b) = lowered.inputs(list_at, stored);
        let Some(b) = b else { return set_ops::clamp(a.list, lo, hi) };
        buf.clear();
        set_ops::intersect_sides_into(a, b, lo, hi, buf);
        buf
    }

    /// Counts the candidates that pass all of the level's filters, for a
    /// level nothing is stored from (terminal, or pair-counted): a plain
    /// level is the length of a window or the size of one two-way
    /// intersection, less the `distinct` vertices inside it. `passes` is
    /// the executor's full per-candidate filter, which only the general
    /// route calls; `tmp` and `buf` are scratch.
    #[inline]
    pub fn count<'a>(
        &self,
        matched: &[VertexId],
        list_at: impl Fn(usize) -> Side<'a>,
        stored: &'a [VertexId],
        passes: impl Fn(VertexId) -> bool,
        tmp: &mut Vec<VertexId>,
        buf: &mut Vec<VertexId>,
    ) -> u64 {
        let lowered = &self.lowered;
        if !lowered.plain {
            let list_at = |p| list_at(p).list;
            return self.count_candidates(matched, list_at, || stored, passes, tmp, buf);
        }
        let (lo, hi) = lowered.window(matched);
        let (a, b) = lowered.inputs(list_at, stored);
        let (a, size) = match b {
            // One input: its window is the candidate set, and what the
            // collision checks below search.
            None => {
                let window = set_ops::clamp(a.list, lo, hi);
                (Side { list: window, ..a }, window.len())
            }
            Some(b) => (a, set_ops::intersect_sides_count(a, b, lo, hi)),
        };
        if size == 0 {
            return 0;
        }
        // A matched vertex the level must avoid is one candidate fewer if
        // it is in the window (two compares) and in every input: known
        // from the pattern, or a bit or a search per input.
        let collides = |p: usize| {
            let m = matched[p];
            lo.is_none_or(|lo| m > lo)
                && hi.is_none_or(|hi| m < hi)
                && (lowered.distinct_adjacent.contains(p)
                    || a.contains(m) && b.is_none_or(|b| b.contains(m)))
        };
        (size - lowered.distinct.iter().filter(|&p| collides(p)).count()) as u64
    }

    /// The window all of this level's order bounds put on a candidate,
    /// given the matched prefix. Legal on the raw set only where no
    /// intermediate is stored from it: terminal and count-only levels, and
    /// executors that never reuse intermediates.
    pub fn window(&self, matched: &[VertexId]) -> Window {
        self.lowered.window(matched)
    }

    /// The level's intersection inputs per its candidate source, each
    /// clamped to `(lo, hi)`, written to the front of `lists`; returns how
    /// many.
    fn clamped_inputs<'a>(
        &self,
        (lo, hi): Window,
        list_at: &impl Fn(usize) -> &'a [VertexId],
        stored: impl FnOnce() -> &'a [VertexId],
        lists: &mut [&'a [VertexId]; MAX_PATTERN_VERTICES],
    ) -> usize {
        match self.source {
            CandidateSource::Scratch => {
                for (k, &p) in self.intersect.iter().enumerate() {
                    lists[k] = set_ops::clamp(list_at(p), lo, hi);
                }
                self.intersect.len()
            }
            CandidateSource::ParentIntermediate => {
                lists[0] = set_ops::clamp(stored(), lo, hi);
                1
            }
            CandidateSource::ParentIntermediateAndNew => {
                lists[0] = set_ops::clamp(stored(), lo, hi);
                lists[1] = set_ops::clamp(list_at(self.position - 1), lo, hi);
                2
            }
        }
    }

    /// The general route to [`candidates`](Self::candidates), for any
    /// level: computes the raw candidate set into `out` — the candidate
    /// source minus the subtracted lists, restricted to
    /// the [raw window](Lowered::raw_window) — so `out` may be stored as the
    /// next level's intermediate. Candidates still have to pass the
    /// per-candidate filters. `tmp` is scratch.
    pub fn raw_candidates<'a>(
        &self,
        matched: &[VertexId],
        list_at: impl Fn(usize) -> &'a [VertexId],
        stored: impl FnOnce() -> &'a [VertexId],
        tmp: &mut Vec<VertexId>,
        out: &mut Vec<VertexId>,
    ) {
        let (lo, hi) = self.lowered.raw_window(matched);
        let mut lists: [&[VertexId]; MAX_PATTERN_VERTICES] = Default::default();
        let n = self.clamped_inputs((lo, hi), &list_at, stored, &mut lists);
        set_ops::intersect_many_into(&mut lists[..n], tmp, out);
        for &p in &self.subtract {
            tmp.clear();
            set_ops::subtract_into(out, set_ops::clamp(list_at(p), lo, hi), tmp);
            std::mem::swap(out, tmp);
        }
    }

    /// The general route to [`count`](Self::count), for any level nothing
    /// is stored from (terminal, or pair-counted). All of its
    /// order bounds then clamp the inputs, and what is left is the size of
    /// an intersection — never materialised — minus the `distinct` vertices
    /// that fall in it. Labels and subtraction need the candidates
    /// themselves: those levels are materialised and put through `passes`,
    /// the executor's per-candidate filter. `tmp` and `out` are scratch.
    pub fn count_candidates<'a>(
        &self,
        matched: &[VertexId],
        list_at: impl Fn(usize) -> &'a [VertexId],
        stored: impl FnOnce() -> &'a [VertexId],
        passes: impl Fn(VertexId) -> bool,
        tmp: &mut Vec<VertexId>,
        out: &mut Vec<VertexId>,
    ) -> u64 {
        if self.label.is_some() || !self.edge_labels.is_empty() || !self.subtract.is_empty() {
            self.raw_candidates(matched, list_at, stored, tmp, out);
            return out.iter().filter(|&&c| passes(c)).count() as u64;
        }
        let mut lists: [&[VertexId]; MAX_PATTERN_VERTICES] = Default::default();
        let n = self.clamped_inputs(self.window(matched), &list_at, stored, &mut lists);
        let lists = &mut lists[..n];
        let collisions = self
            .distinct
            .iter()
            .filter(|&&p| lists.iter().all(|l| set_ops::contains(l, matched[p])))
            .count();
        (set_ops::intersect_many_count(lists, tmp, out) - collisions) as u64
    }
}

/// Options controlling plan compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanOptions {
    /// Matching-order strategy.
    pub order: OrderChoice,
    /// Induced (exact) matching instead of non-induced subgraph matching.
    pub induced: bool,
    /// Emit symmetry-breaking restrictions so each subgraph is enumerated
    /// exactly once. Disable to enumerate all injective maps (used by
    /// tests and by orientation-preprocessed clique counting, where the
    /// DAG already breaks the symmetry).
    pub symmetry_break: bool,
    /// Annotate vertical computation reuse (Figure 11's ablation switch).
    pub vertical_reuse: bool,
    /// Enable the inclusion–exclusion counting shortcut for the last two
    /// levels (GraphPi's IEP, restricted to the common symmetric-pair
    /// case). Counting-only: enumeration ignores it. This is part of what
    /// makes k-GraphPi faster than k-Automine on motif workloads (§7.2).
    pub iep: bool,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions {
            order: OrderChoice::Automine,
            induced: false,
            symmetry_break: true,
            vertical_reuse: true,
            iep: false,
        }
    }
}

impl PlanOptions {
    /// Options as k-Automine's compiler would emit them.
    pub fn automine() -> Self {
        PlanOptions { order: OrderChoice::Automine, ..PlanOptions::default() }
    }

    /// Options as k-GraphPi's compiler would emit them (cost-model order
    /// search plus the IEP counting shortcut).
    pub fn graphpi() -> Self {
        PlanOptions { order: OrderChoice::GraphPi, iep: true, ..PlanOptions::default() }
    }
}

/// How the final two positions combine under the IEP shortcut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairMode {
    /// The two positions carry a `<` restriction (symmetric pair): each
    /// qualifying candidate set of size `k` contributes `k·(k−1)/2`.
    Unordered,
    /// No mutual restriction, only injectivity: contributes `k·(k−1)`.
    Ordered,
}

/// A compiled enumeration program for one pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchingPlan {
    pattern: Pattern,
    options: PlanOptions,
    order: Vec<usize>,
    levels: Vec<LevelPlan>,
    restrictions: Vec<Restriction>,
    aut_count: u64,
    root_label: Option<Label>,
    pair: Option<PairMode>,
    /// `fetch[p]` = the fetch bound of the list matched at position `p`.
    fetch: Vec<FetchBound>,
}

impl MatchingPlan {
    /// Compiles `pattern` into a plan under the given options.
    ///
    /// # Errors
    ///
    /// Returns an error if a supplied order is invalid for the pattern.
    pub fn compile(pattern: &Pattern, options: &PlanOptions) -> Result<MatchingPlan, String> {
        let n = pattern.size();
        let order = order::resolve(pattern, &options.order)?;
        let restr = if options.symmetry_break && n > 1 {
            restrictions::generate(pattern, &order)
        } else {
            Vec::new()
        };
        // pos[v] = level at which pattern vertex v is matched.
        let mut pos = vec![0usize; n];
        for (i, &v) in order.iter().enumerate() {
            pos[v] = i;
        }

        let mut levels = Vec::with_capacity(n.saturating_sub(1));
        for i in 1..n {
            let v = order[i];
            let intersect: Vec<usize> = (0..i).filter(|&j| pattern.has_edge(order[j], v)).collect();
            debug_assert!(!intersect.is_empty(), "connected-prefix violated");
            let subtract: Vec<usize> = if options.induced {
                (0..i).filter(|&j| !pattern.has_edge(order[j], v)).collect()
            } else {
                Vec::new()
            };
            let mut lower = Vec::new();
            let mut upper = Vec::new();
            for r in &restr {
                let (ps, pl) = (pos[r.smaller], pos[r.larger]);
                if ps.max(pl) == i {
                    if pl == i {
                        // candidate is the larger one: candidate > pos ps
                        lower.push(ps);
                    } else {
                        // candidate is the smaller one: candidate < pos pl
                        upper.push(pl);
                    }
                }
            }
            lower.sort_unstable();
            lower.dedup();
            upper.sort_unstable();
            upper.dedup();
            // Injectivity: candidates are adjacent to `intersect` positions
            // (self-loops are impossible), and positions bounded by < / >
            // cannot collide either. Everything else needs a != check.
            let distinct: Vec<usize> = (0..i)
                .filter(|j| !intersect.contains(j) && !lower.contains(j) && !upper.contains(j))
                .collect();
            let edge_labels: Vec<(usize, Label)> = intersect
                .iter()
                .filter_map(|&j| pattern.edge_label(order[j], v).map(|l| (j, l)))
                .collect();
            levels.push(LevelPlan {
                position: i,
                intersect,
                subtract,
                distinct,
                lower,
                upper,
                raw_lower: Vec::new(),
                raw_upper: Vec::new(),
                label: pattern.label(v),
                edge_labels,
                source: CandidateSource::Scratch,
                store_intermediate: false,
                active_after: Vec::new(),
                new_vertex_active: false,
                lowered: Lowered::default(),
            });
        }

        // Vertical computation reuse annotations (§5.1 / Figure 9). Only
        // for non-induced plans: subtraction results are not reusable the
        // same way.
        if options.vertical_reuse && !options.induced {
            for i in 1..levels.len() {
                let (prev, cur) = {
                    let (a, b) = levels.split_at_mut(i);
                    (&mut a[i - 1], &mut b[0])
                };
                if cur.intersect == prev.intersect {
                    cur.source = CandidateSource::ParentIntermediate;
                    prev.store_intermediate = true;
                } else {
                    // prev.intersect ∪ {prev.position} == cur.intersect ?
                    let mut expected = prev.intersect.clone();
                    expected.push(prev.position);
                    expected.sort_unstable();
                    let mut cur_sorted = cur.intersect.clone();
                    cur_sorted.sort_unstable();
                    if expected == cur_sorted {
                        cur.source = CandidateSource::ParentIntermediateAndNew;
                        prev.store_intermediate = true;
                    }
                }
            }
        }

        // Bounds that may be pushed into the raw candidate computation,
        // last level first: a stored intermediate is the next level's
        // input (and, through it, the input of every level chained after
        // it), so it may only lose candidates all of those reject too.
        for i in (0..levels.len()).rev() {
            let (head, tail) = levels.split_at_mut(i + 1);
            let lp = &mut head[i];
            lp.raw_lower = lp.lower.clone();
            lp.raw_upper = lp.upper.clone();
            if lp.store_intermediate {
                let consumer = &tail[0];
                lp.raw_lower.retain(|p| consumer.raw_lower.contains(p));
                lp.raw_upper.retain(|p| consumer.raw_upper.contains(p));
            }
        }

        // Active sets: position p is active entering level l iff some
        // level >= l intersects or subtracts p. active_after of level i is
        // the set entering level i+1.
        let need_at = |l: usize| -> Vec<usize> {
            let mut need: Vec<usize> = Vec::new();
            for lp in &levels[l - 1..] {
                // Scratch levels read their intersect lists; reuse levels
                // only read the *new* list (ParentIntermediateAndNew) or
                // nothing (ParentIntermediate).
                match lp.source {
                    CandidateSource::Scratch => need.extend(&lp.intersect),
                    CandidateSource::ParentIntermediate => {}
                    CandidateSource::ParentIntermediateAndNew => {
                        need.push(lp.position - 1);
                    }
                }
                need.extend(&lp.subtract);
            }
            need.sort_unstable();
            need.dedup();
            need
        };
        let level_count = levels.len();
        let afters: Vec<Vec<usize>> = (0..level_count)
            .map(|i| if i + 1 < level_count { need_at(i + 2) } else { Vec::new() })
            .collect();
        for (lp, after) in levels.iter_mut().zip(afters) {
            lp.new_vertex_active = after.contains(&lp.position);
            lp.active_after = after;
            // Last: the lowered form is a function of the finished level.
            lp.lowered = Lowered::of(lp, |p, q| pattern.has_edge(order[p], order[q]));
        }

        let root_label = pattern.label(order[0]);
        Ok(MatchingPlan {
            pattern: pattern.clone(),
            options: options.clone(),
            order,
            pair: pair_mode(options, &levels),
            fetch: (0..n).map(|p| FetchBound::of(p, &levels)).collect(),
            levels,
            restrictions: restr,
            aut_count: iso::automorphism_count(pattern),
            root_label,
        })
    }

    /// The pattern this plan enumerates.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// The options the plan was compiled with.
    pub fn options(&self) -> &PlanOptions {
        &self.options
    }

    /// The matching order (`order[i]` = pattern vertex matched at level `i`).
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Per-level extension programs (`levels()[i]` fills position `i + 1`).
    pub fn levels(&self) -> &[LevelPlan] {
        &self.levels
    }

    /// The symmetry-breaking restrictions in force.
    pub fn restrictions(&self) -> &[Restriction] {
        &self.restrictions
    }

    /// `|Aut(pattern)|`.
    pub fn automorphism_count(&self) -> u64 {
        self.aut_count
    }

    /// Required label of the root (level-0) vertex, for labeled patterns.
    pub fn root_label(&self) -> Option<Label> {
        self.root_label
    }

    /// Number of embedding positions (= pattern size).
    pub fn depth(&self) -> usize {
        self.pattern.size()
    }

    /// `true` if each subgraph is produced exactly once (symmetry breaking
    /// on); `false` if the plan enumerates all injective maps.
    pub fn counts_subgraphs(&self) -> bool {
        self.options.symmetry_break
    }

    /// Whether any level filters on **edge** labels. Such plans run on
    /// the single-machine executors only: the distributed engine (like
    /// the paper's) does not ship edge labels with fetched lists.
    pub fn requires_edge_labels(&self) -> bool {
        self.levels.iter().any(|l| !l.edge_labels.is_empty())
    }

    /// Renders the plan as the nested-loop pseudocode its `EXTEND`
    /// function implements (the paper's Figure 1/Figure 5 listing) — for
    /// docs, debugging, and porting-effort comparisons.
    ///
    /// # Example
    ///
    /// ```
    /// use gpm_pattern::{plan::{MatchingPlan, PlanOptions}, Pattern};
    ///
    /// let opts = PlanOptions { vertical_reuse: false, ..PlanOptions::automine() };
    /// let plan = MatchingPlan::compile(&Pattern::triangle(), &opts).unwrap();
    /// let code = plan.describe();
    /// assert!(code.contains("for v0 in V"));
    /// assert!(code.contains("N(v0) ∩ N(v1)"));
    /// ```
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "// pattern {}, order {:?}", self.pattern, self.order);
        if !self.restrictions.is_empty() {
            let r: Vec<String> = self
                .restrictions
                .iter()
                .map(|r| {
                    format!(
                        "v{} < v{}",
                        pos_of(&self.order, r.smaller),
                        pos_of(&self.order, r.larger)
                    )
                })
                .collect();
            let _ = write!(out, ", restrictions: {}", r.join(", "));
        }
        out.push('\n');
        let mut indent = String::new();
        let _ = writeln!(
            out,
            "for v0 in V{}:",
            self.root_label.map_or(String::new(), |l| format!(" with label {l}"))
        );
        indent.push_str("  ");
        for (i, lp) in self.levels.iter().enumerate() {
            let source = match lp.source {
                CandidateSource::Scratch => {
                    let lists: Vec<String> =
                        lp.intersect.iter().map(|&p| format!("N(v{p})")).collect();
                    lists.join(" ∩ ")
                }
                CandidateSource::ParentIntermediate => format!("C{i}"),
                CandidateSource::ParentIntermediateAndNew => {
                    format!("C{i} ∩ N(v{})", lp.position - 1)
                }
            };
            // Bounds pushed into the candidate computation render on the
            // source; the rest stay per-candidate filters.
            let pushed: Vec<String> = lp
                .raw_lower
                .iter()
                .map(|p| format!("> v{p}"))
                .chain(lp.raw_upper.iter().map(|p| format!("< v{p}")))
                .collect();
            let source = if pushed.is_empty() {
                source
            } else {
                format!("{source} clamped to {}", pushed.join(", "))
            };
            let mut clauses: Vec<String> = Vec::new();
            for &p in &lp.subtract {
                clauses.push(format!("∉ N(v{p})"));
            }
            for &p in lp.lower.iter().filter(|p| !lp.raw_lower.contains(p)) {
                clauses.push(format!("> v{p}"));
            }
            for &p in lp.upper.iter().filter(|p| !lp.raw_upper.contains(p)) {
                clauses.push(format!("< v{p}"));
            }
            for &p in &lp.distinct {
                clauses.push(format!("≠ v{p}"));
            }
            if let Some(l) = lp.label {
                clauses.push(format!("label {l}"));
            }
            for &(p, l) in &lp.edge_labels {
                clauses.push(format!("edge(v{p})~{l}"));
            }
            let filter = if clauses.is_empty() {
                String::new()
            } else {
                format!("  if {}", clauses.join(", "))
            };
            let _ = writeln!(out, "{indent}for v{} in {source}:{filter}", lp.position);
            if lp.store_intermediate {
                let _ = writeln!(out, "{indent}  // store C{} for reuse", lp.position);
            }
            indent.push_str("  ");
        }
        let _ = writeln!(out, "{indent}emit embedding");
        out
    }

    /// The IEP pair-counting shortcut for the last two levels, when the
    /// plan's structure admits it and [`PlanOptions::iep`] is on.
    ///
    /// Applicable when the final two pattern vertices are non-adjacent,
    /// draw from the *same* candidate set (the second level reuses the
    /// parent's intermediate), and differ only by injectivity or one
    /// mutual `<` restriction. A counting executor then replaces the
    /// final two loops with `k·(k−1)/2` (or `k·(k−1)`) per candidate set
    /// of size `k` — collapsing, e.g., wedge counting to degree
    /// arithmetic.
    pub fn pair_count_mode(&self) -> Option<PairMode> {
        self.pair
    }

    /// The deepest position whose vertex is active — whose edge list some
    /// later level reads — or 0 when no position past the root is. Below
    /// it every level reads only lists an ancestor already holds, so an
    /// executor that holds embeddings back until their lists arrive has
    /// nothing left to wait for: an embedding complete up to this
    /// position can be extended depth-first to the end of the plan.
    pub fn last_fetched_level(&self) -> usize {
        self.levels.iter().rposition(|l| l.new_vertex_active).map_or(0, |i| i + 1)
    }

    /// How much of the edge list matched at position `p` the plan reads:
    /// what an executor that fetches the list needs to ask for.
    pub fn fetch_bound(&self, p: usize) -> &FetchBound {
        &self.fetch[p]
    }

    /// Whether the root vertex's edge list is needed by level 1 (it always
    /// is for patterns with more than one vertex).
    pub fn root_active(&self) -> bool {
        self.levels.first().is_some_and(|l| {
            matches!(l.source, CandidateSource::Scratch) && l.intersect.contains(&0)
                || l.subtract.contains(&0)
        })
    }
}

/// [`MatchingPlan::pair_count_mode`], decided once when the plan is
/// compiled: executors ask per run, the baselines per root.
fn pair_mode(options: &PlanOptions, levels: &[LevelPlan]) -> Option<PairMode> {
    if !options.iep || levels.len() < 2 {
        return None;
    }
    let l1 = &levels[levels.len() - 2];
    let l2 = &levels[levels.len() - 1];
    if l2.source != CandidateSource::ParentIntermediate
        || !l1.subtract.is_empty()
        || !l2.subtract.is_empty()
        || l1.label != l2.label
        || !l1.edge_labels.is_empty()
        || !l2.edge_labels.is_empty()
        || l2.upper != l1.upper
    {
        return None;
    }
    let p1 = l1.position;
    // Symmetric pair: l2 gains exactly the restriction `pos p1 < new`.
    let mut lower_plus = l1.lower.clone();
    lower_plus.push(p1);
    lower_plus.sort_unstable();
    let mut l2_lower = l2.lower.clone();
    l2_lower.sort_unstable();
    if l2_lower == lower_plus && l2.distinct == l1.distinct {
        return Some(PairMode::Unordered);
    }
    // Asymmetric pair (e.g. differing labels made restrictions
    // impossible): l2 gains exactly the injectivity check against p1.
    let mut distinct_plus = l1.distinct.clone();
    distinct_plus.push(p1);
    distinct_plus.sort_unstable();
    let mut l2_distinct = l2.distinct.clone();
    l2_distinct.sort_unstable();
    if l2.lower == l1.lower && l2_distinct == distinct_plus {
        return Some(PairMode::Ordered);
    }
    None
}

fn pos_of(order: &[usize], pattern_vertex: usize) -> usize {
    order.iter().position(|&v| v == pattern_vertex).expect("vertex is in the order")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn describe_renders_the_paper_listing() {
        let plan = MatchingPlan::compile(&Pattern::clique(4), &PlanOptions::default()).unwrap();
        let code = plan.describe();
        assert!(code.contains("for v0 in V"), "{code}");
        assert!(code.contains("for v1 in N(v0)"), "{code}");
        // Vertical reuse shows up as a stored intermediate.
        assert!(code.contains("store C"), "{code}");
        assert!(code.contains("emit embedding"), "{code}");
        // Restrictions render as ordering filters.
        assert!(code.contains("> v"), "{code}");
        // Every line count: header + root + 3 levels + stores + emit.
        assert!(code.lines().count() >= 6);
    }

    #[test]
    fn describe_includes_labels_and_subtracts() {
        let p = Pattern::path(3).with_labels(vec![1, 2, 3]).unwrap();
        let opts = PlanOptions { induced: true, ..PlanOptions::default() };
        let plan = MatchingPlan::compile(&p, &opts).unwrap();
        let code = plan.describe();
        assert!(code.contains("label"), "{code}");
        assert!(code.contains("∉ N(v"), "{code}");
    }

    #[test]
    fn triangle_plan_shape() {
        let plan = MatchingPlan::compile(&Pattern::triangle(), &PlanOptions::default()).unwrap();
        assert_eq!(plan.depth(), 3);
        assert_eq!(plan.levels().len(), 2);
        let l1 = &plan.levels()[0];
        assert_eq!(l1.intersect, vec![0]);
        let l2 = &plan.levels()[1];
        assert_eq!(l2.intersect, vec![0, 1]);
        // Full symmetry broken: three restrictions for |Aut| = 6.
        assert_eq!(plan.restrictions().len(), 3);
        assert_eq!(plan.automorphism_count(), 6);
        assert!(plan.root_active());
    }

    #[test]
    fn clique_plan_uses_vertical_reuse() {
        let plan = MatchingPlan::compile(&Pattern::clique(5), &PlanOptions::default()).unwrap();
        let levels = plan.levels();
        assert_eq!(levels[0].source, CandidateSource::Scratch);
        for l in &levels[1..] {
            assert_eq!(
                l.source,
                CandidateSource::ParentIntermediateAndNew,
                "clique level {} should chain intersections",
                l.position
            );
        }
        for l in &levels[..levels.len() - 1] {
            assert!(l.store_intermediate);
        }
        assert!(!levels.last().unwrap().store_intermediate);
    }

    #[test]
    fn clique_trims_every_stored_intermediate_by_its_full_bound_set() {
        for k in 3..=6 {
            for opts in [PlanOptions::automine(), PlanOptions::graphpi()] {
                let plan = MatchingPlan::compile(&Pattern::clique(k), &opts).unwrap();
                for l in plan.levels() {
                    // Total order v0 < v1 < ...: every earlier position bounds
                    // the level from below, and every consumer repeats it.
                    assert_eq!(l.lower, (0..l.position).collect::<Vec<_>>());
                    assert_eq!((&l.raw_lower, &l.raw_upper), (&l.lower, &l.upper), "{k}-clique");
                }
                assert!(plan.describe().contains("C1 ∩ N(v1) clamped to > v0, > v1"));
            }
        }
    }

    #[test]
    fn bound_missing_from_a_consumer_stays_out_of_the_stored_intermediate() {
        // Both patterns bound v1 from below by v0 and store C1 = N(v0) for
        // v2, which carries no such bound: trimming C1 would lose v2's
        // candidates below v0.
        for p in [Pattern::house(), Pattern::diamond()] {
            for opts in [PlanOptions::automine(), PlanOptions::graphpi()] {
                let plan = MatchingPlan::compile(&p, &opts).unwrap();
                let l1 = &plan.levels()[0];
                assert!(l1.store_intermediate && l1.lower == [0], "{p}");
                assert!(!plan.levels()[1].lower.contains(&0), "{p}");
                assert!(l1.raw_lower.is_empty() && l1.raw_upper.is_empty(), "{p}");
                // The bound is still enforced, per candidate.
                assert!(plan.describe().contains("for v1 in N(v0):  if > v0"), "{p}");
            }
        }
    }

    #[test]
    fn raw_bounds_are_a_subset_of_own_bounds_and_full_without_a_store() {
        for k in 2..=5 {
            for p in crate::genpat::connected_patterns(k) {
                for opts in [PlanOptions::automine(), PlanOptions::graphpi()] {
                    let plan = MatchingPlan::compile(&p, &opts).unwrap();
                    for l in plan.levels() {
                        assert!(l.raw_lower.iter().all(|b| l.lower.contains(b)), "{p}");
                        assert!(l.raw_upper.iter().all(|b| l.upper.contains(b)), "{p}");
                        if !l.store_intermediate {
                            assert_eq!((&l.raw_lower, &l.raw_upper), (&l.lower, &l.upper), "{p}");
                        }
                    }
                    // A pair-counted level stores nothing when it is counted,
                    // and every bound it has is legal either way.
                    if plan.pair_count_mode().is_some() {
                        let l1 = &plan.levels()[plan.levels().len() - 2];
                        assert_eq!((&l1.raw_lower, &l1.raw_upper), (&l1.lower, &l1.upper), "{p}");
                    }
                }
            }
        }
    }

    #[test]
    fn lowered_level_says_what_the_lists_say() {
        let set = |ps: Positions| ps.iter().collect::<Vec<usize>>();
        let (mut plain, mut general, mut unfiltered) = (0, 0, 0);
        for k in 2..=5 {
            for p in crate::genpat::connected_patterns(k) {
                let labels = (0..k as Label).map(|i| i % 2).collect();
                for p in [p.clone(), p.with_labels(labels).unwrap()] {
                    for base in [PlanOptions::automine(), PlanOptions::graphpi()] {
                        for (induced, vertical_reuse) in
                            [(false, true), (false, false), (true, true)]
                        {
                            let opts = PlanOptions { induced, vertical_reuse, ..base.clone() };
                            let plan = MatchingPlan::compile(&p, &opts).unwrap();
                            for l in plan.levels() {
                                let low = &l.lowered;
                                let what = format!("level {}\n{}", l.position, plan.describe());
                                // The raw window's bounds and the residual
                                // split the level's bounds.
                                for (raw, rest, all) in [
                                    (low.raw_lower, low.rest_lower, &l.lower),
                                    (low.raw_upper, low.rest_upper, &l.upper),
                                ] {
                                    let mut both = [set(raw), set(rest)].concat();
                                    both.sort_unstable();
                                    assert_eq!(&both, all, "{what}");
                                    assert!(set(raw).iter().all(|p| !rest.contains(*p)), "{what}");
                                }
                                assert_eq!(set(low.raw_lower), l.raw_lower, "{what}");
                                assert_eq!(set(low.raw_upper), l.raw_upper, "{what}");
                                assert_eq!(set(low.distinct), l.distinct, "{what}");
                                let reads = match l.source {
                                    CandidateSource::Scratch => l.intersect.clone(),
                                    CandidateSource::ParentIntermediate => Vec::new(),
                                    CandidateSource::ParentIntermediateAndNew => {
                                        vec![l.position - 1]
                                    }
                                };
                                assert_eq!(
                                    (low.source, set(low.lists)),
                                    (l.source, reads),
                                    "{what}"
                                );
                                // Adjacent to every intersected position, in
                                // the pattern: nothing more, nothing less.
                                let order = plan.order();
                                let adjacent: Vec<usize> = l
                                    .distinct
                                    .iter()
                                    .copied()
                                    .filter(|&d| {
                                        l.intersect.iter().all(|&q| p.has_edge(order[d], order[q]))
                                    })
                                    .collect();
                                assert_eq!(set(low.distinct_adjacent), adjacent, "{what}");
                                let unlabelled = l.label.is_none() && l.edge_labels.is_empty();
                                let inputs = low.lists.len()
                                    + usize::from(l.source != CandidateSource::Scratch);
                                assert_eq!(
                                    low.plain,
                                    unlabelled && l.subtract.is_empty() && inputs <= 2,
                                    "{what}"
                                );
                                assert_eq!(
                                    low.unfiltered,
                                    unlabelled
                                        && l.distinct.is_empty()
                                        && l.lower == l.raw_lower
                                        && l.upper == l.raw_upper,
                                    "{what}"
                                );
                                plain += usize::from(low.plain);
                                general += usize::from(!low.plain);
                                unfiltered += usize::from(low.unfiltered);
                            }
                        }
                    }
                }
            }
        }
        // Both routes and both answers occur, or the sweep proves nothing.
        assert!(plain > 100 && general > 100 && unfiltered > 50, "{plain} {general} {unfiltered}");
        // The service workload's plans run lowered from end to end.
        for p in [
            Pattern::triangle(),
            Pattern::clique(4),
            Pattern::path(4),
            Pattern::cycle(4),
            Pattern::star(4),
            Pattern::diamond(),
            Pattern::house(),
        ] {
            let plan = MatchingPlan::compile(&p, &PlanOptions::automine()).unwrap();
            assert!(plan.levels().iter().all(|l| l.lowered.plain), "{}", plan.describe());
        }
        // A clique checks nothing per candidate: its bounds all clamp.
        let clique = MatchingPlan::compile(&Pattern::clique(5), &PlanOptions::default()).unwrap();
        assert!(clique.levels().iter().all(|l| l.lowered.unfiltered));
        // A house's first level keeps its bound per candidate (the stored
        // set feeds a level without it) and, of the two vertices its last
        // level must avoid, knows v1 to be in both lists and searches for v2.
        let house = MatchingPlan::compile(&Pattern::house(), &PlanOptions::default()).unwrap();
        let (first, last) = (&house.levels()[0].lowered, &house.levels()[3].lowered);
        assert_eq!((set(first.raw_lower), set(first.rest_lower)), (vec![], vec![0]));
        assert!(!first.unfiltered);
        assert_eq!((set(last.distinct), set(last.distinct_adjacent)), (vec![1, 2], vec![1]));
    }

    #[test]
    fn reuse_disabled_by_option() {
        let opts = PlanOptions { vertical_reuse: false, ..PlanOptions::default() };
        let plan = MatchingPlan::compile(&Pattern::clique(4), &opts).unwrap();
        assert!(plan
            .levels()
            .iter()
            .all(|l| l.source == CandidateSource::Scratch && !l.store_intermediate));
    }

    #[test]
    fn active_sets_are_anti_monotone() {
        for p in [
            Pattern::clique(5),
            Pattern::cycle(5),
            Pattern::house(),
            Pattern::tailed_triangle(),
            Pattern::star(5),
        ] {
            for opts in [PlanOptions::automine(), PlanOptions::graphpi()] {
                let plan = MatchingPlan::compile(&p, &opts).unwrap();
                let levels = plan.levels();
                for w in levels.windows(2) {
                    // Positions active after level i+1, restricted to those
                    // existing at level i, must be a subset of those active
                    // after level i (anti-monotonicity, §3.1).
                    for pos in &w[1].active_after {
                        if *pos <= w[0].position {
                            assert!(
                                w[0].active_after.contains(pos),
                                "activeness resurrected for {p} at {pos}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn last_fetched_level_is_the_deepest_active_position() {
        let mut seen = 0;
        for k in 1..=5 {
            for p in crate::genpat::connected_patterns(k) {
                for opts in [PlanOptions::automine(), PlanOptions::graphpi()] {
                    let plan = MatchingPlan::compile(&p, &opts).unwrap();
                    let last = plan.last_fetched_level();
                    let deepest_active = plan
                        .levels()
                        .iter()
                        .filter(|l| l.new_vertex_active)
                        .map(|l| l.position)
                        .max()
                        .unwrap_or(0);
                    assert_eq!(last, deepest_active, "{p}\n{}", plan.describe());
                    // What the definition buys: no level reads the list of
                    // a position past it.
                    for l in plan.levels() {
                        let reads = match l.source {
                            CandidateSource::Scratch => l.intersect.clone(),
                            CandidateSource::ParentIntermediate => Vec::new(),
                            CandidateSource::ParentIntermediateAndNew => vec![l.position - 1],
                        };
                        assert!(reads.iter().chain(&l.subtract).all(|&r| r <= last), "{p}");
                    }
                }
                seen += 1;
            }
        }
        assert_eq!(seen, 31, "every connected pattern of up to five vertices");
        // A star reads its centre's list at every level and nothing else.
        for k in 3..=6 {
            for opts in [PlanOptions::automine(), PlanOptions::graphpi()] {
                let plan = MatchingPlan::compile(&Pattern::star(k), &opts).unwrap();
                assert_eq!(plan.last_fetched_level(), 0, "star:{k}");
            }
        }
        // A clique reads every list but the last vertex's.
        let clique = MatchingPlan::compile(&Pattern::clique(5), &PlanOptions::default()).unwrap();
        assert_eq!(clique.last_fetched_level(), 3);
    }

    #[test]
    fn fetch_bounds_of_the_service_patterns() {
        let none: &[&[usize]] = &[];
        let cases: [(Pattern, [&[&[usize]]; 4]); 5] = [
            // A fetched list is read above the largest matched vertex the
            // level reading it is bounded by.
            (Pattern::triangle(), [&[&[0]], &[&[0, 1]], none, none]),
            (Pattern::cycle(4), [&[&[0]], &[&[0]], &[&[0, 1]], none]),
            (Pattern::clique(4), [&[&[0]], &[&[0, 1]], &[&[0, 1, 2]], none]),
            // C1 = N(v0) is stored for v2, which carries no bound, and v3
            // reads N(v1) unbounded: the last fetched list ships whole.
            (Pattern::path(4), [none; 4]),
            // Every level reads the centre's list; the first unbounded.
            (Pattern::star(4), [none; 4]),
        ];
        for (p, want) in cases {
            let plan = MatchingPlan::compile(&p, &PlanOptions::automine()).unwrap();
            let got: Vec<Vec<Vec<usize>>> = (0..plan.depth())
                .map(|q| plan.fetch_bound(q).0.iter().map(|s| s.iter().collect()).collect())
                .collect();
            let want: Vec<Vec<Vec<usize>>> = want
                .iter()
                .take(plan.depth())
                .map(|b| b.iter().map(|s| s.to_vec()).collect())
                .collect();
            assert_eq!(got, want, "{}", plan.describe());
        }
        let triangle =
            MatchingPlan::compile(&Pattern::triangle(), &PlanOptions::automine()).unwrap();
        assert_eq!(triangle.fetch_bound(1).above(&[4], 9), Some(9));
        assert_eq!(triangle.fetch_bound(1).above(&[4], 2), Some(4));
        assert!(!triangle.fetch_bound(2).is_bounded());
        // The house reads N(v1) unbounded at v3, and N(v0) unbounded at v1.
        let house = MatchingPlan::compile(&Pattern::house(), &PlanOptions::automine()).unwrap();
        assert!((0..5).all(|q| !house.fetch_bound(q).is_bounded()), "{}", house.describe());
        assert_eq!(house.fetch_bound(1).above(&[4], 9), None);
    }

    #[test]
    fn a_fetch_bound_never_exceeds_a_reading_levels_raw_window() {
        // Over every connected pattern of up to five vertices, labelled or
        // not, induced or not, under both compilers: the fetch bound of a
        // list is at most the raw lower bound of every level that reads it
        // (so no reader misses an entry), and it is the least such bound
        // over what is matched when the list is fetched (so nothing
        // shippable is left in).
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut draw = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as VertexId % 1000
        };
        let (mut bounded, mut whole) = (0, 0);
        for k in 2..=5 {
            for p in crate::genpat::connected_patterns(k) {
                let labels = (0..k as Label).map(|i| i % 2).collect();
                for p in [p.clone(), p.with_labels(labels).unwrap()] {
                    for base in [PlanOptions::automine(), PlanOptions::graphpi()] {
                        for induced in [false, true] {
                            let opts = PlanOptions { induced, ..base.clone() };
                            let plan = MatchingPlan::compile(&p, &opts).unwrap();
                            for q in 0..plan.depth() {
                                let readers: Vec<&LevelPlan> = plan
                                    .levels()
                                    .iter()
                                    .filter(|l| {
                                        let via_source = match l.source {
                                            CandidateSource::Scratch => l.intersect.contains(&q),
                                            CandidateSource::ParentIntermediate => false,
                                            CandidateSource::ParentIntermediateAndNew => {
                                                l.position - 1 == q
                                            }
                                        };
                                        via_source || l.subtract.contains(&q)
                                    })
                                    .collect();
                                let bound = plan.fetch_bound(q);
                                let what = format!("position {q}\n{}", plan.describe());
                                let known = |l: &LevelPlan| -> Vec<usize> {
                                    l.raw_lower.iter().copied().filter(|&b| b <= q).collect()
                                };
                                let reads_whole = readers.is_empty()
                                    || readers.iter().any(|l| known(l).is_empty());
                                assert_eq!(bound.is_bounded(), !reads_whole, "{what}");
                                bounded += usize::from(bound.is_bounded());
                                whole += usize::from(!bound.is_bounded());
                                for _ in 0..8 {
                                    let matched: Vec<VertexId> =
                                        (0..plan.depth()).map(|_| draw()).collect();
                                    let lowest =
                                        |bs: &[usize]| bs.iter().map(|&b| matched[b]).max();
                                    let above = bound.above(&matched[..q], matched[q]);
                                    for l in &readers {
                                        if let (Some(above), Some(lo)) =
                                            (above, lowest(&l.raw_lower))
                                        {
                                            assert!(above <= lo, "{what}");
                                        }
                                    }
                                    let tightest = readers
                                        .iter()
                                        .map(|l| lowest(&known(l)))
                                        .collect::<Option<Vec<_>>>()
                                        .and_then(|each| each.into_iter().min());
                                    assert_eq!(above, tightest, "{what}");
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(bounded > 100 && whole > 100, "{bounded} bounded, {whole} whole");
    }

    #[test]
    fn last_level_has_no_active_positions() {
        let plan = MatchingPlan::compile(&Pattern::clique(4), &PlanOptions::default()).unwrap();
        assert!(plan.levels().last().unwrap().active_after.is_empty());
        assert!(!plan.levels().last().unwrap().new_vertex_active);
    }

    #[test]
    fn paper_fig5_pattern_inactive_third_vertex() {
        // The paper's running pattern (Fig 5): A-B, A-C, A-D, B-C, B-D —
        // i.e. two vertices (A, B) adjacent to everything, C and D only to
        // A and B. Matched in order A, B, C, D: after matching C, the next
        // extension intersects N(A) ∩ N(B) again, so C is *inactive*.
        let p = Pattern::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]).unwrap();
        let opts =
            PlanOptions { order: OrderChoice::Given(vec![0, 1, 2, 3]), ..PlanOptions::default() };
        let plan = MatchingPlan::compile(&p, &opts).unwrap();
        let l2 = &plan.levels()[1]; // fills position 2 (C)
        assert!(!l2.new_vertex_active, "C must be inactive (paper §3.1)");
        assert_eq!(l2.active_after, Vec::<usize>::new()); // reuse covers level 3
                                                          // And level 3 reuses the parent's N(A)∩N(B) intermediate.
        assert_eq!(plan.levels()[2].source, CandidateSource::ParentIntermediate);
    }

    #[test]
    fn induced_plan_has_subtract_and_distinct() {
        let opts = PlanOptions { induced: true, ..PlanOptions::default() };
        let plan = MatchingPlan::compile(&Pattern::path(3), &opts).unwrap();
        // Path 0-1-2 ordered from the middle: level 2 must exclude
        // adjacency to one endpoint.
        let l2 = &plan.levels()[1];
        assert_eq!(l2.subtract.len(), 1);
        // The subtracted position must also be != checked or bounded.
        let covered = l2.distinct.len() + l2.lower.len() + l2.upper.len();
        assert!(covered >= 1);
    }

    #[test]
    fn labeled_plan_carries_labels() {
        let p = Pattern::path(3).with_labels(vec![1, 2, 3]).unwrap();
        let plan = MatchingPlan::compile(&p, &PlanOptions::default()).unwrap();
        let mut seen: Vec<Option<Label>> = vec![plan.root_label()];
        seen.extend(plan.levels().iter().map(|l| l.label));
        let mut labels: Vec<_> = seen.into_iter().map(Option::unwrap).collect();
        labels.sort_unstable();
        assert_eq!(labels, vec![1, 2, 3]);
    }

    #[test]
    fn given_bad_order_is_rejected() {
        let opts =
            PlanOptions { order: OrderChoice::Given(vec![0, 2, 1]), ..PlanOptions::default() };
        assert!(MatchingPlan::compile(&Pattern::path(3), &opts).is_err());
    }

    #[test]
    fn no_symmetry_break_means_no_bounds() {
        let opts = PlanOptions { symmetry_break: false, ..PlanOptions::default() };
        let plan = MatchingPlan::compile(&Pattern::clique(4), &opts).unwrap();
        assert!(plan.restrictions().is_empty());
        for l in plan.levels() {
            assert!(l.lower.is_empty() && l.upper.is_empty());
        }
        assert!(!plan.counts_subgraphs());
    }
}
