//! Ablation benches for design choices DESIGN.md calls out beyond the
//! paper's own figures: circulant vs. natural fetch order, the cost of
//! the share-table on unskewed inputs, and the fetch fabric's
//! request-window depth.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpm_graph::partition::PartitionedGraph;
use gpm_graph::{gen, Graph};
use gpm_pattern::plan::{MatchingPlan, PlanOptions};
use gpm_pattern::Pattern;
use khuzdul::{CacheConfig, Engine, EngineConfig, FabricConfig, StealConfig};

const MACHINES: usize = 4;

fn skewed() -> Graph {
    gen::barabasi_albert(3_000, 8, 0xab)
}

fn flat() -> Graph {
    gen::erdos_renyi(3_000, 24_000, 0xab)
}

fn run(g: &Graph, cfg: EngineConfig, plan: &MatchingPlan) -> u64 {
    let e = Engine::new(PartitionedGraph::new(g, MACHINES, 1), cfg);
    let c = e.count(plan).count;
    e.shutdown();
    c
}

/// Circulant fetch ordering vs. natural owner order (§4.3).
fn circulant_order(c: &mut Criterion) {
    let g = skewed();
    let plan = MatchingPlan::compile(&Pattern::clique(4), &PlanOptions::graphpi()).unwrap();
    let mut grp = c.benchmark_group("ablation_circulant");
    grp.sample_size(10);
    for (name, circulant) in [("circulant", true), ("natural", false)] {
        grp.bench_function(name, |b| {
            b.iter(|| run(&g, EngineConfig { circulant, ..EngineConfig::default() }, &plan))
        });
    }
    grp.finish();
}

/// Horizontal sharing on a flat (ER) graph, where few lists repeat within
/// a chunk: measures pure table overhead (the cost side of §5.2's
/// trade-off).
fn share_table_overhead(c: &mut Criterion) {
    let g = flat();
    let plan = MatchingPlan::compile(&Pattern::clique(4), &PlanOptions::graphpi()).unwrap();
    let mut grp = c.benchmark_group("ablation_share_table_flat_graph");
    grp.sample_size(10);
    for (name, horizontal) in [("with_table", true), ("without_table", false)] {
        grp.bench_function(name, |b| {
            b.iter(|| {
                run(
                    &g,
                    EngineConfig {
                        horizontal_sharing: horizontal,
                        cache: CacheConfig::disabled(),
                        ..EngineConfig::default()
                    },
                    &plan,
                )
            })
        });
    }
    grp.finish();
}

/// Pattern-oblivious vs. pattern-aware enumeration — the paper's §1
/// motivation for building on pattern-aware systems at all.
fn oblivious_vs_aware(c: &mut Criterion) {
    use gpm_baselines::oblivious;
    use gpm_pattern::interp;
    let g = gen::erdos_renyi(300, 1800, 0xcd);
    let mut grp = c.benchmark_group("ablation_oblivious_vs_aware_4motifs");
    grp.sample_size(10);
    grp.bench_function("oblivious_esu_census", |b| {
        b.iter(|| oblivious::induced_census(&g, 4).values().sum::<u64>())
    });
    grp.bench_function("pattern_aware_plans", |b| {
        let plans: Vec<MatchingPlan> = gpm_pattern::genpat::connected_patterns(4)
            .iter()
            .map(|p| {
                MatchingPlan::compile(p, &PlanOptions { induced: true, ..PlanOptions::automine() })
                    .unwrap()
            })
            .collect();
        b.iter(|| plans.iter().map(|p| interp::count_embeddings_fast(&g, p)).sum::<u64>())
    });
    grp.finish();
}

/// Request-window depth of the async fetch fabric: window = 1 serializes
/// every transfer (the pre-fabric blocking RPC), larger windows overlap
/// modelled network delays with integration. Run on an R-MAT stand-in
/// with the paper's 56 Gbps model (plus a fat latency so the overlap is
/// visible at bench scale).
fn request_window(c: &mut Criterion) {
    use gpm_cluster::NetworkModel;
    let g = gen::rmat(11, 12, (0.57, 0.19, 0.19), 0xab);
    let plan = MatchingPlan::compile(&Pattern::triangle(), &PlanOptions::automine()).unwrap();
    let mut grp = c.benchmark_group("ablation_request_window");
    grp.sample_size(10);
    for window in [1usize, 2, 4, 8, 16] {
        grp.bench_with_input(BenchmarkId::from_parameter(window), &window, |b, &window| {
            b.iter(|| {
                run(
                    &g,
                    EngineConfig {
                        network: Some(NetworkModel { latency_us: 200.0, bandwidth_gbps: 56.0 }),
                        fabric: FabricConfig { window, ..FabricConfig::default() },
                        ..EngineConfig::default()
                    },
                    &plan,
                )
            })
        });
    }
    grp.finish();
}

/// Cross-part work stealing on/off, power-law vs. Erdős–Rényi. The
/// interesting case is the skewed graph under *range* partitioning
/// (hubs concentrated on part 0): stealing should close the per-part
/// busy-time gap the `RunReport` exposes. The ER graph bounds the cost
/// of the ledger when there is nothing to rebalance. Besides the timing,
/// each variant prints the report's busy-time imbalance ratio once, so a
/// bench run doubles as the balance experiment.
fn steal(c: &mut Criterion) {
    use gpm_graph::partition::Partitioner;
    let plan = MatchingPlan::compile(&Pattern::triangle(), &PlanOptions::automine()).unwrap();
    let mut grp = c.benchmark_group("ablation_steal");
    grp.sample_size(10);
    let graphs: [(&str, Graph, Partitioner); 2] = [
        ("powerlaw_range", gen::rmat(11, 12, (0.57, 0.19, 0.19), 0xab), Partitioner::Range),
        ("erdos_renyi_hash", flat(), Partitioner::Hash),
    ];
    for (gname, g, strategy) in &graphs {
        for (sname, enabled) in [("steal_on", true), ("steal_off", false)] {
            let cfg = || EngineConfig {
                compute_threads: 2,
                steal: StealConfig { enabled, batch: 256, ..StealConfig::default() },
                ..EngineConfig::default()
            };
            // One observed run per variant for the balance numbers.
            let e =
                Engine::new(PartitionedGraph::with_partitioner(g, MACHINES, 1, *strategy), cfg());
            let run = e.count(&plan);
            let report = e.report(&run, "khuzdul");
            let stolen: u64 = run.per_part.iter().map(|p| p.roots_stolen).sum();
            eprintln!(
                "ablation_steal/{gname}/{sname}: busy_imbalance={:.3} roots_stolen={stolen} count={}",
                report.busy_imbalance(),
                run.count,
            );
            e.shutdown();
            grp.bench_function(format!("{gname}/{sname}"), |b| {
                b.iter(|| run_with(g, *strategy, cfg(), &plan))
            });
        }
    }
    grp.finish();
}

fn run_with(
    g: &Graph,
    strategy: gpm_graph::partition::Partitioner,
    cfg: EngineConfig,
    plan: &MatchingPlan,
) -> u64 {
    let e = Engine::new(PartitionedGraph::with_partitioner(g, MACHINES, 1, strategy), cfg);
    let c = e.count(plan).count;
    e.shutdown();
    c
}

/// Hash vs. range partitioning — why §2.2 insists on hash assignment:
/// BA vertex ids correlate with degree, so ranges concentrate hubs.
fn partitioner_strategy(c: &mut Criterion) {
    use gpm_graph::partition::Partitioner;
    let g = skewed();
    let plan = MatchingPlan::compile(&Pattern::clique(4), &PlanOptions::graphpi()).unwrap();
    let mut grp = c.benchmark_group("ablation_partitioner");
    grp.sample_size(10);
    for (name, strategy) in [("hash", Partitioner::Hash), ("range", Partitioner::Range)] {
        grp.bench_function(name, |b| {
            b.iter(|| {
                let e = Engine::new(
                    PartitionedGraph::with_partitioner(&g, MACHINES, 1, strategy),
                    EngineConfig::default(),
                );
                let c = e.count(&plan).count;
                e.shutdown();
                c
            })
        });
    }
    grp.finish();
}

/// Multi-tenant scaling: 1→8 identical-cost queries sharing one
/// resident engine. Prints each query's wall time and cache hit rate —
/// trailing queries amortize the never-evict cache the leaders warmed —
/// then benches the whole batch's makespan.
fn concurrency(c: &mut Criterion) {
    use khuzdul::{MiningService, ServiceConfig};
    use std::sync::Arc;
    let g = gen::rmat(11, 12, (0.57, 0.19, 0.19), 0xab);
    let pattern = Pattern::clique(4);
    let opts = PlanOptions::automine();
    // Memoization off: every query enumerates, so the measured benefit
    // is shared-cache amortization, not the memo short-circuit.
    let cfg =
        |n: usize| ServiceConfig { max_concurrent: n, memoize: false, ..ServiceConfig::default() };
    let batch = |n: usize| {
        let engine =
            Arc::new(Engine::new(PartitionedGraph::new(&g, MACHINES, 1), EngineConfig::default()));
        let svc = MiningService::start(engine, cfg(n));
        let handles: Vec<_> = (0..n).map(|_| svc.submit(&pattern, &opts).unwrap()).collect();
        for h in &handles {
            h.wait().unwrap();
        }
        svc
    };
    let mut grp = c.benchmark_group("ablation_concurrency");
    grp.sample_size(10);
    for n in [1usize, 2, 4, 8] {
        // One instrumented batch outside the timing loop: per-query wall
        // time and hit rate.
        let svc = batch(n);
        for o in svc.outcomes() {
            let stats = o.result.expect("bench queries succeed");
            let (hits, misses) = (stats.traffic.cache_hits, stats.traffic.cache_misses);
            eprintln!(
                "ablation_concurrency: n={n} q{} wall={:?} cache_hit_rate={:.3}",
                o.query_id,
                o.elapsed,
                hits as f64 / (hits + misses).max(1) as f64
            );
        }
        drop(svc);
        grp.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let svc = batch(n);
                svc.outcomes().iter().map(|o| o.result.as_ref().unwrap().count).sum::<u64>()
            })
        });
    }
    grp.finish();
}

criterion_group!(
    benches,
    circulant_order,
    share_table_overhead,
    oblivious_vs_aware,
    partitioner_strategy,
    request_window,
    steal,
    concurrency
);
criterion_main!(benches);
