//! Counting applications: TC, k-CC, k-MC.

use gpm_pattern::genpat;
use gpm_pattern::plan::{MatchingPlan, PlanOptions};
use gpm_pattern::Pattern;
use khuzdul::{Engine, RunStats};

/// Counts triangles.
///
/// # Example
///
/// ```
/// use gpm_apps::counting;
/// use gpm_graph::{gen, partition::PartitionedGraph};
/// use gpm_pattern::plan::PlanOptions;
/// use khuzdul::{Engine, EngineConfig};
///
/// let g = gen::complete(5);
/// let engine = Engine::new(PartitionedGraph::new(&g, 2, 1), EngineConfig::default());
/// let run = counting::triangle_count(&engine, &PlanOptions::automine()).unwrap();
/// assert_eq!(run.count, 10);
/// engine.shutdown();
/// ```
pub fn triangle_count(engine: &Engine, opts: &PlanOptions) -> Result<RunStats, String> {
    clique_count(engine, 3, opts)
}

/// Counts k-cliques.
///
/// # Errors
///
/// Returns plan-compilation errors (e.g. `k` above the pattern limit).
pub fn clique_count(engine: &Engine, k: usize, opts: &PlanOptions) -> Result<RunStats, String> {
    let plan = MatchingPlan::compile(&Pattern::clique(k), opts)?;
    Ok(engine.count(&plan))
}

/// Per-pattern output of k-motif counting.
#[derive(Debug, Clone, Default)]
pub struct MotifCounts {
    /// `(pattern, induced count)` for every connected size-k pattern, in
    /// the deterministic [`genpat::connected_patterns`] order.
    pub per_pattern: Vec<(Pattern, u64)>,
    /// Every pattern's run folded through [`RunStats::absorb`], with
    /// `count` the census total (the number of connected induced
    /// k-subgraphs). On the `iep` route the runs counted non-induced, so
    /// `run.per_part[i].count` sums non-induced counts and the parts'
    /// counts need not add up to `run.count`; every other per-part field
    /// is what the runs did.
    pub run: RunStats,
}

/// k-Motif Counting: the induced count of every connected size-k
/// pattern (the paper's k-MC application).
///
/// The plan options pick the client system's route. Without `iep`
/// (k-Automine) every pattern is counted induced. With `iep` (k-GraphPi)
/// every pattern is counted **non-induced**, where the IEP pair shortcut
/// and cheaper filters apply, and the induced counts come from solving
/// the inclusion–exclusion system
///
/// ```text
/// noninduced(p) = Σ_{q ⊇ p, |q| = k}  sub(p, q) · induced(q)
/// ```
///
/// where `sub(p, q)` is the number of copies of `p` inside the pattern
/// `q` — tiny integers computed once with the oracle. The system is
/// triangular in edge-count order, so back-substitution over integers is
/// exact. Both routes give identical counts; the paper attributes
/// k-GraphPi's 3-MC advantage to the second. On it, every field of `run`
/// but `count` totals the non-induced runs.
///
/// # Errors
///
/// Returns plan-compilation errors.
pub fn motif_count(engine: &Engine, k: usize, opts: &PlanOptions) -> Result<MotifCounts, String> {
    let patterns = genpat::connected_patterns(k);
    let plan_opts = PlanOptions { induced: !opts.iep, ..opts.clone() };
    let mut run = RunStats::default();
    let mut counts = Vec::with_capacity(patterns.len());
    for p in &patterns {
        let one = engine.count(&MatchingPlan::compile(p, &plan_opts)?);
        counts.push(one.count);
        run.absorb(&one);
    }
    if opts.iep {
        counts = solve_induced(&patterns, &counts);
        run.count = counts.iter().sum();
    }
    Ok(MotifCounts { per_pattern: patterns.into_iter().zip(counts).collect(), run })
}

/// Induced counts from non-induced ones: back-substitution in decreasing
/// edge-count order, starting from the densest pattern (the k-clique),
/// whose non-induced count is its induced count.
fn solve_induced(patterns: &[Pattern], noninduced: &[u64]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..patterns.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(patterns[i].edge_count()));
    let mut induced = vec![0i128; patterns.len()];
    for &i in &order {
        let mut value = noninduced[i] as i128;
        for &j in &order {
            if patterns[j].edge_count() > patterns[i].edge_count() {
                let c = copies_inside(&patterns[i], &patterns[j]);
                value -= c as i128 * induced[j];
            }
        }
        induced[i] = value;
    }
    induced
        .into_iter()
        .map(|c| {
            debug_assert!(c >= 0, "inclusion–exclusion produced a negative count");
            c as u64
        })
        .collect()
}

/// Number of subgraphs of the (tiny) pattern `sup` isomorphic to `sub`.
fn copies_inside(sub: &Pattern, sup: &Pattern) -> u64 {
    let mut b = gpm_graph::GraphBuilder::new(sup.size());
    for (u, v) in sup.edges() {
        b.add_edge(u as u32, v as u32);
    }
    gpm_pattern::oracle::count_subgraphs(&b.build(), sub, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::partition::PartitionedGraph;
    use gpm_graph::{gen, Graph};
    use gpm_pattern::oracle;
    use khuzdul::EngineConfig;

    fn engine_for(g: &Graph, machines: usize) -> Engine {
        Engine::new(PartitionedGraph::new(g, machines, 1), EngineConfig::default())
    }

    #[test]
    fn tc_matches_oracle() {
        let g = gen::erdos_renyi(150, 700, 3);
        let engine = engine_for(&g, 4);
        let run = triangle_count(&engine, &PlanOptions::automine()).unwrap();
        assert_eq!(run.count, oracle::count_subgraphs(&g, &Pattern::triangle(), false));
        engine.shutdown();
    }

    #[test]
    fn kcc_matches_oracle() {
        let g = gen::erdos_renyi(100, 800, 5);
        let engine = engine_for(&g, 3);
        for k in [4usize, 5] {
            let run = clique_count(&engine, k, &PlanOptions::graphpi()).unwrap();
            assert_eq!(
                run.count,
                oracle::count_subgraphs(&g, &Pattern::clique(k), false),
                "k = {k}"
            );
        }
        engine.shutdown();
    }

    #[test]
    fn oriented_clique_counting_agrees() {
        // Every partitioned graph is ranked by degree, so the
        // symmetry-broken clique plan walks the degree-oriented windows.
        let g = gen::barabasi_albert(200, 6, 7);
        for machines in [1, 4] {
            let engine = engine_for(&g, machines);
            for k in [3usize, 4] {
                let run = clique_count(&engine, k, &PlanOptions::automine()).unwrap();
                assert_eq!(
                    run.count,
                    oracle::count_subgraphs(&g, &Pattern::clique(k), false),
                    "k = {k}, {machines} machines"
                );
            }
            engine.shutdown();
        }
    }

    #[test]
    fn three_motifs_partition_connected_triples() {
        let g = gen::erdos_renyi(60, 250, 9);
        let engine = engine_for(&g, 2);
        let motifs = motif_count(&engine, 3, &PlanOptions::automine()).unwrap();
        assert_eq!(motifs.per_pattern.len(), 2);
        for (p, c) in &motifs.per_pattern {
            assert_eq!(*c, oracle::count_subgraphs(&g, p, true), "{p}");
        }
        // Triangles + induced paths = all connected triples.
        let tri = oracle::count_subgraphs(&g, &Pattern::triangle(), false);
        let wedge = oracle::count_subgraphs(&g, &Pattern::path(3), true);
        assert_eq!(motifs.run.count, tri + wedge);
        engine.shutdown();
    }

    #[test]
    fn noninduced_motif_route_matches_induced_route() {
        let g = gen::erdos_renyi(50, 220, 6);
        let engine = engine_for(&g, 2);
        for k in [3usize, 4] {
            let direct = motif_count(&engine, k, &PlanOptions::automine()).unwrap();
            let via = motif_count(&engine, k, &PlanOptions::graphpi()).unwrap();
            assert_eq!(direct.run.count, via.run.count, "k = {k}");
            for ((p1, c1), (p2, c2)) in direct.per_pattern.iter().zip(&via.per_pattern) {
                assert_eq!(p1, p2);
                assert_eq!(c1, c2, "pattern {p1}");
            }
        }
        engine.shutdown();
    }

    #[test]
    fn copies_inside_known_values() {
        // A triangle contains 3 wedges; K4 contains 4 triangles and 12
        // wedge subgraphs.
        assert_eq!(copies_inside(&Pattern::path(3), &Pattern::triangle()), 3);
        assert_eq!(copies_inside(&Pattern::triangle(), &Pattern::clique(4)), 4);
        assert_eq!(copies_inside(&Pattern::path(3), &Pattern::clique(4)), 12);
        assert_eq!(copies_inside(&Pattern::clique(4), &Pattern::clique(4)), 1);
    }

    #[test]
    fn four_motifs_match_oracle() {
        let g = gen::erdos_renyi(40, 160, 4);
        let engine = engine_for(&g, 2);
        let motifs = motif_count(&engine, 4, &PlanOptions::automine()).unwrap();
        assert_eq!(motifs.per_pattern.len(), 6);
        for (p, c) in &motifs.per_pattern {
            assert_eq!(*c, oracle::count_subgraphs(&g, p, true), "{p}");
        }
        engine.shutdown();
    }
}
