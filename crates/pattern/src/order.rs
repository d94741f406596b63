//! Matching-order selection.
//!
//! The matching order — which pattern vertex each loop level matches —
//! determines both the cost of enumeration and how early symmetry-breaking
//! restrictions can prune. k-Automine and k-GraphPi differ exactly here
//! (paper §7.2 attributes k-GraphPi's 3-MC advantage to "GraphPi's better
//! pattern matching algorithm"):
//!
//! * [`automine_order`] — greedy: start from a max-degree vertex, then
//!   repeatedly append the vertex most connected to the prefix; where
//!   that rule ties, [`estimate_cost`] picks among the orders it admits
//!   (on ranked vertex ids this puts a cycle's wedges on its root);
//! * [`graphpi_order`] — exhaustive search over all connected-prefix
//!   permutations scored by a random-graph cost model that accounts for
//!   restriction pruning.

use crate::restrictions;
use crate::Pattern;

/// Which matching-order strategy a plan should use.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum OrderChoice {
    /// Greedy connectivity order (AutoMine-style).
    #[default]
    Automine,
    /// Exhaustive cost-model search (GraphPi-style).
    GraphPi,
    /// A caller-supplied order (must have the connected-prefix property).
    Given(Vec<usize>),
}

/// Whether `order` has the connected-prefix property: every vertex after
/// the first is adjacent to at least one earlier vertex.
pub fn has_connected_prefix(p: &Pattern, order: &[usize]) -> bool {
    if order.len() != p.size() {
        return false;
    }
    let mut seen = vec![false; p.size()];
    let mut used = 0u16;
    for (i, &v) in order.iter().enumerate() {
        if v >= p.size() || seen[v] {
            return false;
        }
        seen[v] = true;
        if i > 0 && !order[..i].iter().any(|&u| p.has_edge(u, v)) {
            return false;
        }
        used |= 1 << v;
    }
    used.count_ones() as usize == p.size()
}

/// AutoMine-style greedy order: highest-degree start vertex, then at each
/// step an unmatched vertex with the most neighbors in the prefix, and
/// among those the higher pattern degree. The rule's remaining ties are
/// broken by cost, not by id: every order it admits is enumerated
/// (branching once per distinct set of prefix positions the tied
/// vertices attach to) and the one [`estimate_cost`] rates cheapest wins,
/// the lower-id greedy on equal cost. Where the rule admits one order —
/// every clique and star — no cost is evaluated.
///
/// # Example
///
/// ```
/// use gpm_pattern::{order, Pattern};
///
/// let o = order::automine_order(&Pattern::tailed_triangle());
/// assert!(order::has_connected_prefix(&Pattern::tailed_triangle(), &o));
/// assert_eq!(o[0], 2); // the degree-3 hub goes first
/// // A 4-cycle draws its third vertex from the start vertex's neighbors too.
/// assert_eq!(order::automine_order(&Pattern::cycle(4)), vec![0, 1, 3, 2]);
/// ```
pub fn automine_order(p: &Pattern) -> Vec<usize> {
    let start = (0..p.size()).max_by_key(|&v| (p.degree(v), std::cmp::Reverse(v))).unwrap();
    let mut order = Vec::with_capacity(p.size());
    order.push(start);
    let mut orders = Vec::new();
    greedy_orders(p, &mut order, &mut orders);
    if orders.len() == 1 {
        return orders.pop().unwrap();
    }
    let model = CostModel::default();
    // `min_by` keeps the first of equal minima: the lower-id greedy.
    orders
        .into_iter()
        .map(|o| (estimate_cost(p, &o, &model), o))
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .unwrap()
        .1
}

/// Appends to `out` every completion of `order` that [`automine_order`]'s
/// rule admits, lower-id choices first. Tied vertices attaching to the
/// same prefix positions are one branch (its lowest id).
fn greedy_orders(p: &Pattern, order: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    let n = p.size();
    if order.len() == n {
        out.push(order.clone());
        return;
    }
    let key = |a: u8, v: usize| (a.count_ones(), p.degree(v));
    let best = (0..n).filter(|v| !order.contains(v)).map(|v| key(attach(p, order, v), v)).max();
    // Connected patterns always offer a connected next vertex.
    debug_assert!(best.is_some_and(|b| b.0 > 0));
    // A prefix has at most 7 positions, so an attach set is below 128.
    let mut branched = 0u128;
    for v in 0..n {
        if order.contains(&v) {
            continue;
        }
        let a = attach(p, order, v);
        if Some(key(a, v)) == best && branched & 1 << a == 0 {
            branched |= 1 << a;
            order.push(v);
            greedy_orders(p, order, out);
            order.pop();
        }
    }
}

/// The prefix positions `v` is adjacent to, as a bit set.
fn attach(p: &Pattern, order: &[usize], v: usize) -> u8 {
    (0..order.len()).filter(|&i| p.has_edge(order[i], v)).fold(0, |m, i| m | 1 << i)
}

/// Parameters of the random-graph cost model used by [`graphpi_order`]
/// and by [`automine_order`]'s tie-break.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Assumed vertex count of the data graph.
    pub vertices: f64,
    /// Assumed average degree.
    pub avg_degree: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Representative mid-size graph; only *relative* costs matter.
        CostModel { vertices: 1.0e5, avg_degree: 50.0 }
    }
}

/// Estimated enumeration cost of a given order under the model, including
/// restriction pruning (each restriction at a level roughly halves the
/// candidates that survive).
pub fn estimate_cost(p: &Pattern, order: &[usize], model: &CostModel) -> f64 {
    let n = p.size();
    let q = (model.avg_degree / model.vertices).min(1.0);
    let restr = restrictions::generate(p, order);
    // pos[v] = level of pattern vertex v
    let mut pos = vec![0usize; n];
    for (i, &v) in order.iter().enumerate() {
        pos[v] = i;
    }
    let mut partials = model.vertices; // level-0 candidates
    let mut cost = 0.0;
    for i in 1..n {
        let v = order[i];
        let connected = order[..i].iter().filter(|&&u| p.has_edge(u, v)).count();
        // Candidates: one neighbor expansion, each extra adjacency
        // constraint thins by q.
        let mut cands = model.avg_degree * q.powi(connected as i32 - 1);
        // Each `<` restriction whose later endpoint is this level halves
        // the surviving candidates.
        let restr_here = restr.iter().filter(|r| pos[r.smaller].max(pos[r.larger]) == i).count();
        cands *= 0.5f64.powi(restr_here as i32);
        // Work at this level: one intersection per connected prefix vertex
        // over the current partial embeddings.
        cost += partials * (connected as f64).max(1.0);
        partials *= cands;
    }
    cost + partials
}

/// GraphPi-style order: exhaustive search over all connected-prefix
/// permutations, scored with [`estimate_cost`] (which folds in the quality
/// of the restriction set each order admits).
///
/// # Example
///
/// ```
/// use gpm_pattern::{order, Pattern};
///
/// let p = Pattern::cycle(4);
/// let o = order::graphpi_order(&p, &order::CostModel::default());
/// assert!(order::has_connected_prefix(&p, &o));
/// ```
pub fn graphpi_order(p: &Pattern, model: &CostModel) -> Vec<usize> {
    let n = p.size();
    let mut best: Option<(f64, Vec<usize>)> = None;
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut used = vec![false; n];
    search_orders(p, &mut order, &mut used, &mut |cand| {
        let cost = estimate_cost(p, cand, model);
        match &best {
            Some((c, _)) if *c <= cost => {}
            _ => best = Some((cost, cand.to_vec())),
        }
    });
    best.expect("connected pattern has at least one valid order").1
}

fn search_orders(
    p: &Pattern,
    order: &mut Vec<usize>,
    used: &mut Vec<bool>,
    f: &mut impl FnMut(&[usize]),
) {
    let n = p.size();
    if order.len() == n {
        f(order);
        return;
    }
    for v in 0..n {
        if used[v] {
            continue;
        }
        if !order.is_empty() && !order.iter().any(|&u| p.has_edge(u, v)) {
            continue;
        }
        used[v] = true;
        order.push(v);
        search_orders(p, order, used, f);
        order.pop();
        used[v] = false;
    }
}

/// Resolves an [`OrderChoice`] to a concrete matching order.
///
/// # Errors
///
/// Returns an error message if a [`OrderChoice::Given`] order lacks the
/// connected-prefix property.
pub fn resolve(p: &Pattern, choice: &OrderChoice) -> Result<Vec<usize>, String> {
    match choice {
        OrderChoice::Automine => Ok(automine_order(p)),
        OrderChoice::GraphPi => Ok(graphpi_order(p, &CostModel::default())),
        OrderChoice::Given(o) => {
            if has_connected_prefix(p, o) {
                Ok(o.clone())
            } else {
                Err(format!("order {o:?} lacks the connected-prefix property"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genpat;

    #[test]
    fn automine_order_valid_for_all_fixtures() {
        for p in [
            Pattern::triangle(),
            Pattern::clique(5),
            Pattern::path(5),
            Pattern::star(5),
            Pattern::cycle(6),
            Pattern::tailed_triangle(),
            Pattern::diamond(),
            Pattern::house(),
        ] {
            let o = automine_order(&p);
            assert!(has_connected_prefix(&p, &o), "invalid order for {p}");
        }
    }

    #[test]
    fn graphpi_order_valid_and_at_least_as_cheap() {
        let model = CostModel::default();
        for p in [Pattern::cycle(5), Pattern::tailed_triangle(), Pattern::house()] {
            let ga = automine_order(&p);
            let gp = graphpi_order(&p, &model);
            assert!(has_connected_prefix(&p, &gp));
            assert!(
                estimate_cost(&p, &gp, &model) <= estimate_cost(&p, &ga, &model) + 1e-9,
                "graphpi order should never cost more for {p}"
            );
        }
    }

    #[test]
    fn connected_prefix_detection() {
        let p = Pattern::path(4); // 0-1-2-3
        assert!(has_connected_prefix(&p, &[1, 0, 2, 3]));
        assert!(!has_connected_prefix(&p, &[0, 2, 1, 3]));
        assert!(!has_connected_prefix(&p, &[0, 1, 2])); // wrong length
        assert!(!has_connected_prefix(&p, &[0, 0, 1, 2])); // repeat
    }

    #[test]
    fn resolve_rejects_bad_given_order() {
        let p = Pattern::path(3);
        assert!(resolve(&p, &OrderChoice::Given(vec![0, 2, 1])).is_err());
        assert_eq!(resolve(&p, &OrderChoice::Given(vec![1, 0, 2])).unwrap(), vec![1, 0, 2]);
    }

    #[test]
    fn cost_model_prefers_dense_prefixes() {
        // For the tailed triangle, starting at the hub (vertex 2) and
        // closing the triangle early must beat starting at the tail.
        let p = Pattern::tailed_triangle();
        let model = CostModel::default();
        let good = estimate_cost(&p, &[2, 0, 1, 3], &model);
        let bad = estimate_cost(&p, &[3, 2, 0, 1], &model);
        assert!(good < bad);
    }

    /// The greedy with every tie broken by lower id: what
    /// [`automine_order`] must never cost more than, and must return where
    /// the rule admits one order.
    fn id_greedy(p: &Pattern) -> Vec<usize> {
        let mut order = Vec::new();
        while order.len() < p.size() {
            let next = (0..p.size())
                .filter(|v| !order.contains(v))
                .max_by_key(|&v| {
                    let conn = order.iter().filter(|&&u| p.has_edge(u, v)).count();
                    (conn, p.degree(v), std::cmp::Reverse(v))
                })
                .unwrap();
            order.push(next);
        }
        order
    }

    #[test]
    fn automine_puts_a_cycles_wedges_on_its_start_vertex() {
        assert_eq!(automine_order(&Pattern::cycle(4)), vec![0, 1, 3, 2]);
        assert_eq!(automine_order(&Pattern::cycle(5)), vec![0, 1, 4, 2, 3]);
        // Where the id tie-break is already cheapest, it stays.
        assert_eq!(automine_order(&Pattern::house()), vec![0, 1, 4, 2, 3]);
        assert_eq!(automine_order(&Pattern::path(4)), vec![1, 2, 0, 3]);
    }

    #[test]
    fn automine_obeys_the_greedy_rule_and_never_costs_more_than_the_id_tie_break() {
        let model = CostModel::default();
        for p in genpat::connected_patterns(4).into_iter().chain(genpat::connected_patterns(5)) {
            let o = automine_order(&p);
            assert!(has_connected_prefix(&p, &o), "{p}");
            assert_eq!(p.degree(o[0]), (0..p.size()).map(|v| p.degree(v)).max().unwrap(), "{p}");
            let key = |i: usize, v: usize| {
                (o[..i].iter().filter(|&&u| p.has_edge(u, v)).count(), p.degree(v))
            };
            for i in 1..p.size() {
                let best = o[i..].iter().map(|&v| key(i, v)).max().unwrap();
                assert_eq!(key(i, o[i]), best, "{p}: {o:?} breaks the greedy at level {i}");
            }
            let old = id_greedy(&p);
            assert!(estimate_cost(&p, &o, &model) <= estimate_cost(&p, &old, &model), "{p}");
            // Where the rule admits one order, that order is the old one.
            let mut admitted = Vec::new();
            greedy_orders(&p, &mut vec![o[0]], &mut admitted);
            if admitted.len() == 1 {
                assert_eq!(o, old, "{p}");
            }
        }
    }

    #[test]
    fn single_vertex_order() {
        assert_eq!(automine_order(&Pattern::single_vertex()), vec![0]);
    }
}
