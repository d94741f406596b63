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

/// Per-level extension program. Every position list is a [`Positions`]
/// set, so what the compiler derives, the general route and the inner
/// loop all read one form, in ascending position order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelPlan {
    /// The embedding position this level fills (1-based; position 0 is the
    /// enumeration root).
    pub position: usize,
    /// Positions whose graph edge lists are intersected to produce raw
    /// candidates. Non-empty for every level (connected-prefix property).
    pub intersect: Positions,
    /// Induced matching only: positions whose edge lists are subtracted
    /// (the candidate must *not* be adjacent to them).
    pub subtract: Positions,
    /// Positions the candidate must differ from (injectivity checks not
    /// already implied by adjacency or ordering constraints).
    pub distinct: Positions,
    /// The `distinct` positions the pattern makes adjacent to every
    /// intersected position: each one's vertex is in every input list for
    /// certain, so counting the level need not search for it.
    pub distinct_adjacent: Positions,
    /// Positions whose matched vertex the candidate must exceed
    /// (symmetry-breaking `>` bounds).
    pub lower: Positions,
    /// Positions whose matched vertex the candidate must be below
    /// (symmetry-breaking `<` bounds).
    pub upper: Positions,
    /// The subset of `lower` an executor may apply to the level's *raw*
    /// candidate set, by clamping the inputs of the intersection. All of
    /// `lower` when the level stores no intermediate; when it does, the
    /// stored set feeds later levels, so only the bounds every transitive
    /// consumer of it also carries.
    pub raw_lower: Positions,
    /// The subset of `upper` that may be applied to the raw candidate set
    /// (see `raw_lower`).
    pub raw_upper: Positions,
    /// `lower − raw_lower`: the lower bounds a member of the raw set is
    /// still to be checked against.
    pub rest_lower: Positions,
    /// `upper − raw_upper`.
    pub rest_upper: Positions,
    /// Required label of the candidate, for labeled patterns.
    pub label: Option<Label>,
    /// How the raw candidate set is computed.
    pub source: CandidateSource,
    /// Positions whose edge lists the source reads: all of `intersect`
    /// from scratch, the preceding position beside a reused intermediate,
    /// none when the intermediate is the candidate set.
    pub lists: Positions,
    /// Whether embeddings created at this level must store their raw
    /// candidate set for reuse by the next level.
    pub store_intermediate: bool,
    /// Positions (including possibly this one) whose edge lists are still
    /// needed by levels *after* this one — the extendable embedding's
    /// active-vertex set once this level's vertex is appended.
    pub active_after: Positions,
    /// Whether the vertex matched at this level is itself active later
    /// (if `false`, its edge list never needs to be fetched — the paper's
    /// "not all vertices are active" case).
    pub new_vertex_active: bool,
    /// No label or subtraction, and at most two inputs: the
    /// raw set is a clamped window of one list or one two-way
    /// intersection, and the level never takes the general route.
    pub plain: bool,
    /// Nothing is left to check per candidate: every member of the raw
    /// set extends the embedding.
    pub unfiltered: bool,
}

/// A set of embedding positions in one byte, bit `p` for position `p`:
/// the form every position list of a [`LevelPlan`] takes. An empty set
/// costs one test.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct Positions(u8);

const _: () = assert!(MAX_PATTERN_VERTICES <= u8::BITS as usize);

impl FromIterator<usize> for Positions {
    fn from_iter<I: IntoIterator<Item = usize>>(positions: I) -> Self {
        positions.into_iter().fold(Positions::default(), Positions::with)
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

    /// The set with `p` added.
    #[inline]
    pub fn with(self, p: usize) -> Positions {
        assert!(p < MAX_PATTERN_VERTICES, "position {p} outside an embedding");
        Positions(self.0 | 1 << p)
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

impl std::ops::BitOr for Positions {
    type Output = Positions;
    fn bitor(self, other: Positions) -> Positions {
        Positions(self.0 | other.0)
    }
}

impl std::ops::BitAnd for Positions {
    type Output = Positions;
    fn bitand(self, other: Positions) -> Positions {
        Positions(self.0 & other.0)
    }
}

/// Set difference: the positions of `self` not in `other`.
impl std::ops::Sub for Positions {
    type Output = Positions;
    fn sub(self, other: Positions) -> Positions {
        Positions(self.0 & !other.0)
    }
}

impl std::fmt::Debug for Positions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
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
        for lp in levels.iter().filter(|lp| (lp.lists | lp.subtract).contains(p)) {
            let bounds: Positions = lp.raw_lower.iter().filter(|&q| q <= p).collect();
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
/// [`count`](Self::count). A [plain](Self::plain) level runs there
/// directly; labelled and induced levels, and intersections of three
/// lists or more, take the general route —
/// [`raw_candidates`](Self::raw_candidates) and
/// [`count_candidates`](Self::count_candidates), which compute any level
/// and are what the plain route is tested against. The CTD and G-thinker
/// baselines call `raw_candidates` for every level they run.
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
        if !self.plain {
            self.raw_candidates(matched, |p| list_at(p).list, || stored, tmp, buf);
            return buf;
        }
        let (lo, hi) = self.raw_window(matched);
        let (a, b) = self.inputs(list_at, stored);
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
        if !self.plain {
            let list_at = |p| list_at(p).list;
            return self.count_candidates(matched, list_at, || stored, passes, tmp, buf);
        }
        let (lo, hi) = self.window(matched);
        let (a, b) = self.inputs(list_at, stored);
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
                && (self.distinct_adjacent.contains(p)
                    || a.contains(m) && b.is_none_or(|b| b.contains(m)))
        };
        (size - self.distinct.iter().filter(|&p| collides(p)).count()) as u64
    }

    /// The window the raw candidate set is clamped to.
    #[inline]
    pub fn raw_window(&self, matched: &[VertexId]) -> Window {
        window_at(self.raw_lower, self.raw_upper, matched)
    }

    /// The window all of this level's order bounds put on a candidate,
    /// given the matched prefix. Legal on the raw set only where no
    /// intermediate is stored from it: the levels `count` sizes.
    #[inline]
    fn window(&self, matched: &[VertexId]) -> Window {
        window_at(self.lower, self.upper, matched)
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

    /// The level's intersection inputs per its candidate source — the
    /// stored intermediate first where the source reads one, then the
    /// lists it reads — each clamped to `(lo, hi)`, written to the front
    /// of `lists`; returns how many.
    fn clamped_inputs<'a>(
        &self,
        (lo, hi): Window,
        list_at: &impl Fn(usize) -> &'a [VertexId],
        stored: impl FnOnce() -> &'a [VertexId],
        lists: &mut [&'a [VertexId]; MAX_PATTERN_VERTICES],
    ) -> usize {
        let mut n = 0;
        if self.source != CandidateSource::Scratch {
            lists[0] = set_ops::clamp(stored(), lo, hi);
            n = 1;
        }
        for p in self.lists.iter() {
            lists[n] = set_ops::clamp(list_at(p), lo, hi);
            n += 1;
        }
        n
    }

    /// The general route to [`candidates`](Self::candidates), for any
    /// level: computes the raw candidate set into `out` — the candidate
    /// source minus the subtracted lists, restricted to
    /// the [raw window](Self::raw_window) — so `out` may be stored as the
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
        let (lo, hi) = self.raw_window(matched);
        let mut lists: [&[VertexId]; MAX_PATTERN_VERTICES] = Default::default();
        let n = self.clamped_inputs((lo, hi), &list_at, stored, &mut lists);
        set_ops::intersect_many_into(&mut lists[..n], tmp, out);
        for p in self.subtract.iter() {
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
        if self.label.is_some() || !self.subtract.is_empty() {
            self.raw_candidates(matched, list_at, stored, tmp, out);
            return out.iter().filter(|&&c| passes(c)).count() as u64;
        }
        let mut lists: [&[VertexId]; MAX_PATTERN_VERTICES] = Default::default();
        let n = self.clamped_inputs(self.window(matched), &list_at, stored, &mut lists);
        let lists = &mut lists[..n];
        let collisions = self
            .distinct
            .iter()
            .filter(|&p| lists.iter().all(|l| set_ops::contains(l, matched[p])))
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
    /// tests).
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
        let mut restr = if options.symmetry_break && n > 1 {
            restrictions::generate(pattern, &order)
        } else {
            Vec::new()
        };
        let mut levels = levels_of(pattern, options, &order, &restr);
        if turn_to_short_ends(&mut restr, &order, &levels) {
            levels = levels_of(pattern, options, &order, &restr);
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
                        lp.intersect.iter().map(|p| format!("N(v{p})")).collect();
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
            let mut clauses: Vec<String> = lp
                .subtract
                .iter()
                .map(|p| format!("∉ N(v{p})"))
                .chain(lp.rest_lower.iter().map(|p| format!("> v{p}")))
                .chain(lp.rest_upper.iter().map(|p| format!("< v{p}")))
                .chain(lp.distinct.iter().map(|p| format!("≠ v{p}")))
                .collect();
            if let Some(l) = lp.label {
                clauses.push(format!("label {l}"));
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
        self.levels.first().is_some_and(|l| (l.lists | l.subtract).contains(0))
    }
}

/// The levels of `pattern` matched in `order` under the restrictions
/// `restr`: what each level intersects, subtracts and bounds, the reuse
/// annotations, the bounds pushed into raw candidate sets, and the active
/// sets.
fn levels_of(
    pattern: &Pattern,
    options: &PlanOptions,
    order: &[usize],
    restr: &[Restriction],
) -> Vec<LevelPlan> {
    let n = pattern.size();
    // pos[v] = level at which pattern vertex v is matched.
    let mut pos = vec![0usize; n];
    for (i, &v) in order.iter().enumerate() {
        pos[v] = i;
    }

    let adjacent = |p: usize, q: usize| pattern.has_edge(order[p], order[q]);
    let mut levels = Vec::with_capacity(n.saturating_sub(1));
    for (i, &v) in order.iter().enumerate().skip(1) {
        let intersect: Positions = (0..i).filter(|&j| adjacent(j, i)).collect();
        debug_assert!(!intersect.is_empty(), "connected-prefix violated");
        let subtract: Positions = if options.induced {
            (0..i).filter(|&j| !adjacent(j, i)).collect()
        } else {
            Positions::default()
        };
        let (mut lower, mut upper) = (Positions::default(), Positions::default());
        for r in restr {
            let (ps, pl) = (pos[r.smaller], pos[r.larger]);
            if ps.max(pl) == i {
                if pl == i {
                    // candidate is the larger one: candidate > pos ps
                    lower = lower.with(ps);
                } else {
                    // candidate is the smaller one: candidate < pos pl
                    upper = upper.with(pl);
                }
            }
        }
        // Injectivity: candidates are adjacent to `intersect` positions
        // (self-loops are impossible), and positions bounded by < / >
        // cannot collide either. Everything else needs a != check.
        let bounded = intersect | lower | upper;
        let distinct: Positions = (0..i).filter(|&j| !bounded.contains(j)).collect();
        levels.push(LevelPlan {
            position: i,
            intersect,
            subtract,
            distinct,
            distinct_adjacent: distinct
                .iter()
                .filter(|&d| intersect.iter().all(|q| adjacent(d, q)))
                .collect(),
            lower,
            upper,
            raw_lower: Positions::default(),
            raw_upper: Positions::default(),
            rest_lower: Positions::default(),
            rest_upper: Positions::default(),
            label: pattern.label(v),
            source: CandidateSource::Scratch,
            lists: intersect,
            store_intermediate: false,
            active_after: Positions::default(),
            new_vertex_active: false,
            plain: false,
            unfiltered: false,
        });
    }

    // Vertical computation reuse annotations (§5.1 / Figure 9). Only
    // for non-induced plans: subtraction results are not reusable the
    // same way.
    if options.vertical_reuse && !options.induced {
        for i in 1..levels.len() {
            let (head, tail) = levels.split_at_mut(i);
            let (prev, cur) = (&mut head[i - 1], &mut tail[0]);
            if cur.intersect == prev.intersect {
                cur.source = CandidateSource::ParentIntermediate;
                cur.lists = Positions::default();
            } else if cur.intersect == prev.intersect.with(prev.position) {
                cur.source = CandidateSource::ParentIntermediateAndNew;
                cur.lists = Positions::default().with(prev.position);
            } else {
                continue;
            }
            prev.store_intermediate = true;
        }
    }

    // Last level first: the bounds that may be pushed into the raw
    // candidate computation — a stored intermediate is the next
    // level's input (and, through it, the input of every level
    // chained after it), so it may only lose candidates all of those
    // reject too — and the active set, every position a later level
    // reads the list of.
    let mut read_later = Positions::default();
    for i in (0..levels.len()).rev() {
        let (head, tail) = levels.split_at_mut(i + 1);
        let lp = &mut head[i];
        (lp.raw_lower, lp.raw_upper) = match tail.first() {
            Some(consumer) if lp.store_intermediate => {
                (lp.lower & consumer.raw_lower, lp.upper & consumer.raw_upper)
            }
            _ => (lp.lower, lp.upper),
        };
        (lp.rest_lower, lp.rest_upper) = (lp.lower - lp.raw_lower, lp.upper - lp.raw_upper);
        lp.active_after = read_later;
        lp.new_vertex_active = read_later.contains(lp.position);
        read_later = read_later | lp.lists | lp.subtract;
        let unlabelled = lp.label.is_none();
        let inputs = lp.lists.len() + usize::from(lp.source != CandidateSource::Scratch);
        lp.plain = unlabelled && lp.subtract.is_empty() && inputs <= 2;
        lp.unfiltered = unlabelled
            && lp.rest_lower.is_empty()
            && lp.rest_upper.is_empty()
            && lp.distinct.is_empty();
    }
    levels
}

/// Turns round each stage of the restriction chain (its restrictions
/// share their `smaller` vertex, the stage's base) where that gives the
/// fetched lists the short end of their edges, and says whether it turned
/// any. Ids ascend with degree ([`gpm_graph::rank`]), so a vertex bounded
/// above the base is the higher-degree end of its edge with it: that is
/// the end a fetch wants only when the bound cuts the list it ships. A
/// stage turns when its base's list is never fetched (the root's is
/// owned), some image's list ships whole, and no fetch bound names the
/// base; the turned stage keeps the map whose base is the *largest* over
/// its orbit, as unique as the smallest, and no fetch bound moves.
fn turn_to_short_ends(restr: &mut [Restriction], order: &[usize], levels: &[LevelPlan]) -> bool {
    let n = order.len();
    let fetch: Vec<FetchBound> = (0..n).map(|p| FetchBound::of(p, levels)).collect();
    let fetched = |p: usize| p > 0 && levels.iter().any(|lp| (lp.lists | lp.subtract).contains(p));
    let mut turned = false;
    for stage in restr.chunk_by_mut(|a, b| a.smaller == b.smaller) {
        let base = pos_of(order, stage[0].smaller);
        let cuts = fetch.iter().any(|f| f.0.iter().any(|known| known.contains(base)));
        let whole = stage.iter().any(|r| {
            let q = pos_of(order, r.larger);
            fetched(q) && !fetch[q].is_bounded()
        });
        if !fetched(base) && !cuts && whole {
            for r in stage.iter_mut() {
                (r.smaller, r.larger) = (r.larger, r.smaller);
            }
            turned = true;
        }
    }
    turned
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
        || l2.upper != l1.upper
    {
        return None;
    }
    let p1 = l1.position;
    // Symmetric pair: l2 gains exactly the restriction `pos p1 < new`.
    if l2.lower == l1.lower.with(p1) && l2.distinct == l1.distinct {
        return Some(PairMode::Unordered);
    }
    // Asymmetric pair (e.g. differing labels made restrictions
    // impossible): l2 gains exactly the injectivity check against p1.
    if l2.lower == l1.lower && l2.distinct == l1.distinct.with(p1) {
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
        assert_eq!(l1.intersect, Positions::from_iter([0]));
        let l2 = &plan.levels()[1];
        assert_eq!(l2.intersect, Positions::from_iter([0, 1]));
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
                    assert_eq!(l.lower, (0..l.position).collect::<Positions>());
                    assert_eq!((&l.raw_lower, &l.raw_upper), (&l.lower, &l.upper), "{k}-clique");
                }
                assert!(plan.describe().contains("C1 ∩ N(v1) clamped to > v0, > v1"));
            }
        }
    }

    #[test]
    fn bound_missing_from_a_consumer_stays_out_of_the_stored_intermediate() {
        // Both patterns bound v1 by v0 (from below or, turned to the short
        // end, from above) and store C1 = N(v0) for v2, which carries no
        // such bound: trimming C1 would lose v2's candidates beyond v0.
        for p in [Pattern::house(), Pattern::diamond()] {
            for opts in [PlanOptions::automine(), PlanOptions::graphpi()] {
                let plan = MatchingPlan::compile(&p, &opts).unwrap();
                let l1 = &plan.levels()[0];
                let v0 = Positions::from_iter([0]);
                assert!(l1.store_intermediate && l1.lower | l1.upper == v0, "{p}");
                assert!(!(plan.levels()[1].lower | plan.levels()[1].upper).contains(0), "{p}");
                assert!(l1.raw_lower.is_empty() && l1.raw_upper.is_empty(), "{p}");
                // The bound is still enforced, per candidate.
                let code = plan.describe();
                assert!(
                    code.contains("for v1 in N(v0):  if > v0")
                        || code.contains("for v1 in N(v0):  if < v0"),
                    "{code}"
                );
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
                                let what = format!("level {}\n{}", l.position, plan.describe());
                                // The raw window's bounds and the residual
                                // split the level's bounds.
                                for (raw, rest, all) in [
                                    (l.raw_lower, l.rest_lower, l.lower),
                                    (l.raw_upper, l.rest_upper, l.upper),
                                ] {
                                    let mut both = [set(raw), set(rest)].concat();
                                    both.sort_unstable();
                                    assert_eq!(both, set(all), "{what}");
                                    assert!(set(raw).iter().all(|p| !rest.contains(*p)), "{what}");
                                }
                                let reads = match l.source {
                                    CandidateSource::Scratch => set(l.intersect),
                                    CandidateSource::ParentIntermediate => Vec::new(),
                                    CandidateSource::ParentIntermediateAndNew => {
                                        vec![l.position - 1]
                                    }
                                };
                                assert_eq!(set(l.lists), reads, "{what}");
                                // Adjacent to every intersected position, in
                                // the pattern: nothing more, nothing less.
                                let order = plan.order();
                                let adjacent: Vec<usize> = l
                                    .distinct
                                    .iter()
                                    .filter(|&d| {
                                        l.intersect.iter().all(|q| p.has_edge(order[d], order[q]))
                                    })
                                    .collect();
                                assert_eq!(set(l.distinct_adjacent), adjacent, "{what}");
                                let unlabelled = l.label.is_none();
                                let inputs =
                                    reads.len() + usize::from(l.source != CandidateSource::Scratch);
                                assert_eq!(
                                    l.plain,
                                    unlabelled && l.subtract.is_empty() && inputs <= 2,
                                    "{what}"
                                );
                                assert_eq!(
                                    l.unfiltered,
                                    unlabelled
                                        && l.distinct.is_empty()
                                        && l.lower == l.raw_lower
                                        && l.upper == l.raw_upper,
                                    "{what}"
                                );
                                plain += usize::from(l.plain);
                                general += usize::from(!l.plain);
                                unfiltered += usize::from(l.unfiltered);
                            }
                        }
                    }
                }
            }
        }
        // Both routes and both answers occur, or the sweep proves nothing.
        assert!(plain > 100 && general > 100 && unfiltered > 50, "{plain} {general} {unfiltered}");
        // The service workload's plans are plain from end to end.
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
            assert!(plan.levels().iter().all(|l| l.plain), "{}", plan.describe());
        }
        // A clique checks nothing per candidate: its bounds all clamp.
        let clique = MatchingPlan::compile(&Pattern::clique(5), &PlanOptions::default()).unwrap();
        assert!(clique.levels().iter().all(|l| l.unfiltered));
        // A house's first level keeps its bound per candidate (the stored
        // set feeds a level without it; the bound is turned below v0, see
        // `whole_lists_take_the_short_end_of_their_edge`) and, of the two
        // vertices its last level must avoid, knows v1 to be in both lists
        // and searches for v2.
        let house = MatchingPlan::compile(&Pattern::house(), &PlanOptions::default()).unwrap();
        let (first, last) = (&house.levels()[0], &house.levels()[3]);
        assert_eq!((set(first.raw_upper), set(first.rest_upper)), (vec![], vec![0]));
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
                    for pos in w[1].active_after.iter() {
                        if pos <= w[0].position {
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
                        let reads: Vec<usize> = match l.source {
                            CandidateSource::Scratch => l.intersect.iter().collect(),
                            CandidateSource::ParentIntermediate => Vec::new(),
                            CandidateSource::ParentIntermediateAndNew => vec![l.position - 1],
                        };
                        assert!(
                            reads.into_iter().chain(l.subtract.iter()).all(|r| r <= last),
                            "{p}"
                        );
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
            // The 4-cycle's v3 is bounded by v0 alone (`v1 < v2` is checked at
            // v2), so N(v2) ships cut above v0.
            (Pattern::cycle(4), [&[&[0]], &[&[0]], &[&[0]], none]),
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
                                            CandidateSource::Scratch => l.intersect.contains(q),
                                            CandidateSource::ParentIntermediate => false,
                                            CandidateSource::ParentIntermediateAndNew => {
                                                l.position - 1 == q
                                            }
                                        };
                                        via_source || l.subtract.contains(q)
                                    })
                                    .collect();
                                let bound = plan.fetch_bound(q);
                                let what = format!("position {q}\n{}", plan.describe());
                                let known = |l: &LevelPlan| -> Positions {
                                    l.raw_lower.iter().filter(|&b| b <= q).collect()
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
                                        |bs: Positions| bs.iter().map(|b| matched[b]).max();
                                    let above = bound.above(&matched[..q], matched[q]);
                                    for l in &readers {
                                        if let (Some(above), Some(lo)) =
                                            (above, lowest(l.raw_lower))
                                        {
                                            assert!(above <= lo, "{what}");
                                        }
                                    }
                                    let tightest = readers
                                        .iter()
                                        .map(|l| lowest(known(l)))
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
        assert!(l2.active_after.is_empty()); // reuse covers level 3
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
    fn whole_lists_take_the_short_end_of_their_edge() {
        // A path and a house bound v1 by the root alone and ship N(v1)
        // whole: the stage turns, so v1 is below v0 — on ranked ids the
        // lower-degree end of the edge.
        for p in [Pattern::path(4), Pattern::house()] {
            for opts in [PlanOptions::automine(), PlanOptions::graphpi()] {
                let plan = MatchingPlan::compile(&p, &opts).unwrap();
                let l1 = &plan.levels()[0];
                assert!(l1.lower.is_empty() && l1.upper == Positions::from_iter([0]), "{p}");
                assert!(!plan.fetch_bound(1).is_bounded(), "{p}");
                let turned = plan.restrictions().iter().all(|r| {
                    (pos_of(plan.order(), r.smaller), pos_of(plan.order(), r.larger)) == (1, 0)
                });
                assert!(turned, "{}", plan.describe());
            }
        }
        // Where a bound cuts a fetched list, or the list bounded above the
        // base is never fetched, every stage keeps the smaller base.
        for p in [Pattern::triangle(), Pattern::clique(5), Pattern::cycle(4), Pattern::star(4)] {
            let plan = MatchingPlan::compile(&p, &PlanOptions::automine()).unwrap();
            assert!(plan.levels().iter().all(|l| l.upper.is_empty()), "{}", plan.describe());
        }
    }

    #[test]
    fn no_symmetry_break_means_no_bounds() {
        let opts = PlanOptions { symmetry_break: false, ..PlanOptions::default() };
        let plan = MatchingPlan::compile(&Pattern::clique(4), &opts).unwrap();
        assert!(plan.restrictions().is_empty());
        for l in plan.levels() {
            assert!(l.lower.is_empty() && l.upper.is_empty());
        }
    }
}
