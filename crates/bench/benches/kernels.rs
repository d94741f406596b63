//! Criterion micro-benchmarks for the computational kernels everything
//! else is built from: sorted-set operations, plan interpretation,
//! partition/fetch primitives, and the observability hot path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gpm_graph::set_ops::{self, Side};
use gpm_graph::{gen, partition::PartitionedGraph};
use gpm_obs::{Metric, ObsConfig, Recorder, SpanKind};
use gpm_pattern::interp;
use gpm_pattern::plan::{MatchingPlan, PlanOptions};
use gpm_pattern::Pattern;
use khuzdul::cache::SharedCache;
use khuzdul::{CachePolicy, Engine, EngineConfig};
use std::hint::black_box;

fn bench_set_ops(c: &mut Criterion) {
    // Every number below, and every walk further down, depends on it.
    println!("set_ops kernel: {}", set_ops::kernel());
    let mut g = c.benchmark_group("set_ops");
    let a: Vec<u32> = (0..10_000).map(|i| i * 3).collect();
    let b: Vec<u32> = (0..10_000).map(|i| i * 5).collect();
    let short: Vec<u32> = (0..100).map(|i| i * 321).collect();
    g.bench_function("intersect_balanced_10k", |bench| {
        bench.iter(|| {
            let mut out = Vec::new();
            set_ops::intersect_into(black_box(&a), black_box(&b), &mut out);
            out
        })
    });
    g.bench_function("intersect_galloping_100_vs_10k", |bench| {
        bench.iter(|| {
            let mut out = Vec::new();
            set_ops::intersect_into(black_box(&short), black_box(&a), &mut out);
            out
        })
    });
    g.bench_function("intersect_count_10k", |bench| {
        bench.iter(|| set_ops::intersect_count(black_box(&a), black_box(&b)))
    });
    g.bench_function("subtract_10k", |bench| {
        bench.iter(|| {
            let mut out = Vec::new();
            set_ops::subtract_into(black_box(&a), black_box(&b), &mut out);
            out
        })
    });

    // The strided inputs above repeat with period 15, which a branch
    // predictor learns. Adjacency lists do not: every pair among the 64
    // longest lists of a skewed graph is what extension really merges
    // (the benchmark's `graph.set_ops.hub_pair_ns_per_elem` input). The
    // bounded cases clamp both lists to the window above the pair's
    // lower-id hub and below the other, as a clique level's bounds do.
    let graph = gen::rmat(12, 16, (0.57, 0.19, 0.19), 12);
    let mut by_degree: Vec<u32> = graph.vertices().collect();
    by_degree.sort_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
    by_degree.truncate(64);
    let pairs: Vec<(u32, u32)> = by_degree
        .iter()
        .enumerate()
        .flat_map(|(i, &u)| by_degree[i + 1..].iter().map(move |&v| (u.min(v), u.max(v))))
        .collect();
    let n = |v| graph.neighbors(v);
    let bn = |v, lo, hi| set_ops::clamp(graph.neighbors(v), lo, hi);
    g.bench_function("hub_pairs_count", |bench| {
        bench.iter(|| {
            pairs.iter().map(|&(u, v)| set_ops::intersect_count(n(u), n(v))).sum::<usize>()
        })
    });
    g.bench_function("hub_pairs_into", |bench| {
        let mut out = Vec::new();
        bench.iter(|| {
            for &(u, v) in &pairs {
                out.clear();
                set_ops::intersect_into(n(u), n(v), &mut out);
                black_box(&out);
            }
        })
    });
    g.bench_function("hub_pairs_bounded_count", |bench| {
        bench.iter(|| {
            pairs
                .iter()
                .map(|&(u, v)| {
                    let (lo, hi) = (Some(u), Some(v));
                    set_ops::intersect_count(bn(u, lo, hi), bn(v, lo, hi))
                })
                .sum::<usize>()
        })
    });
    g.bench_function("hub_pairs_bounded_into", |bench| {
        let mut out = Vec::new();
        bench.iter(|| {
            for &(u, v) in &pairs {
                let (lo, hi) = (Some(u), Some(v));
                out.clear();
                set_ops::intersect_into(bn(u, lo, hi), bn(v, lo, hi), &mut out);
                black_box(&out);
            }
        })
    });
    g.finish();
}

/// The intersections a 4-clique level really runs, by shape: for every
/// edge `u < v` of the `hub_cliques` graph, `N(u)` and `N(v)` clamped above
/// `v` as the level's bounds clamp them, binned by the shorter length and
/// the length ratio — the two things `set_ops` chooses a kernel by for
/// lists without a bitmap (block merge from 8 on the shorter side, gallop
/// from 16×). Each bin runs the dispatching kernel and the scalar merge it
/// falls back to, counting and materialising, and reports time per
/// scanned element (`|a| + |b|`). The pairs with a hot list
/// (`set_ops::is_hot`) are binned again under `hot/`, with a third row:
/// `probe`, the call a plain level makes for the pair — the hot list with
/// its bitmap, the other list clamped and probed against it — per element
/// of the same clamped pair, so the three rows compare. The `probe` row
/// pays for the one clamp a level still makes; the other two rows are
/// handed both lists clamped.
fn bench_set_ops_shapes(c: &mut Criterion) {
    const SHORT: [(&str, usize); 4] =
        [("1-7", 8), ("8-31", 32), ("32-127", 128), ("128+", usize::MAX)];
    const RATIO: [(&str, usize); 3] = [("1-4", 4), ("4-16", 16), ("16+", usize::MAX)];
    const BINS: usize = SHORT.len() * RATIO.len();
    let graph = gen::rmat(12, 16, (0.57, 0.19, 0.19), 12);
    let mut bins: Vec<Bin> = vec![Bin::default(); 2 * BINS];
    for (u, v) in graph.edges() {
        let lo = Some(u.max(v));
        let side = |v| Side { list: graph.neighbors(v), bits: graph.bits(v) };
        let (a, b) = (side(u), side(v));
        let (ca, cb) = (set_ops::clamp(a.list, lo, None), set_ops::clamp(b.list, lo, None));
        let (short, long) = (ca.len().min(cb.len()), ca.len().max(cb.len()));
        if short == 0 {
            continue;
        }
        let s = SHORT.iter().position(|&(_, end)| short < end).expect("last bin is open");
        let r = RATIO.iter().position(|&(_, end)| long / short < end).expect("last bin is open");
        bins[s * RATIO.len() + r].pairs.push((ca, cb));
        if a.bits.is_some() || b.bits.is_some() {
            let hot = &mut bins[BINS + s * RATIO.len() + r];
            hot.pairs.push((ca, cb));
            hot.sides.push((a, b, lo));
        }
    }
    let mut g = c.benchmark_group("set_ops_shapes");
    for (bin, Bin { pairs, sides }) in bins.iter().enumerate().filter(|(_, b)| !b.pairs.is_empty())
    {
        let (short, ratio) = (SHORT[bin % BINS / RATIO.len()].0, RATIO[bin % RATIO.len()].0);
        let scanned: usize = pairs.iter().map(|(a, b)| a.len() + b.len()).sum();
        g.throughput(Throughput::Elements(scanned as u64));
        let hot = if bin >= BINS { "hot/" } else { "" };
        let shape = format!("{hot}short_{short}/ratio_{ratio}/pairs_{}", pairs.len());
        type Count = fn(&[u32], &[u32]) -> usize;
        type Into = fn(&[u32], &[u32], &mut Vec<u32>);
        for (name, count, into) in [
            ("dispatch", set_ops::intersect_count as Count, set_ops::intersect_into as Into),
            ("scalar", set_ops::merge_intersect_count, set_ops::merge_intersect_into),
        ] {
            g.bench_function(format!("count/{shape}/{name}"), |bench| {
                bench.iter(|| pairs.iter().map(|(a, b)| count(a, b)).sum::<usize>())
            });
            g.bench_function(format!("into/{shape}/{name}"), |bench| {
                let mut out = Vec::new();
                bench.iter(|| {
                    for (a, b) in pairs {
                        out.clear();
                        into(a, b, &mut out);
                        black_box(&out);
                    }
                })
            });
        }
        if sides.is_empty() {
            continue;
        }
        g.bench_function(format!("count/{shape}/probe"), |bench| {
            bench.iter(|| {
                sides
                    .iter()
                    .map(|&(a, b, lo)| set_ops::intersect_sides_count(a, b, lo, None))
                    .sum::<usize>()
            })
        });
        g.bench_function(format!("into/{shape}/probe"), |bench| {
            let mut out = Vec::new();
            bench.iter(|| {
                for &(a, b, lo) in sides {
                    out.clear();
                    set_ops::intersect_sides_into(a, b, lo, None, &mut out);
                    black_box(&out);
                }
            })
        });
    }
    g.finish();
}

/// One shape bin of [`bench_set_ops_shapes`]: its pairs clamped, and — in
/// a `hot/` bin — as a plain level hands them to the kernel, with the
/// window's lower bound.
#[derive(Clone, Default)]
struct Bin<'a> {
    pairs: Vec<(&'a [u32], &'a [u32])>,
    sides: Vec<(Side<'a>, Side<'a>, Option<u32>)>,
}

/// The hand-written loop nests a compiler would emit for the three plans
/// below (`MatchingPlan::describe` prints the same loops): what
/// `interp::Walk` would cost with no plan to read. "Interpretation
/// overhead" is a `count_fast` row over its `hand` row.
mod hand {
    use gpm_graph::{set_ops, Graph};

    /// `v0 < v1 < v2`, all adjacent.
    pub fn triangle(g: &Graph) -> u64 {
        let mut count = 0;
        for v0 in g.vertices() {
            let c1 = set_ops::clamp(g.neighbors(v0), Some(v0), None);
            for &v1 in c1 {
                let (a, b) = (above(c1, v1), above(g.neighbors(v1), v1));
                count += set_ops::intersect_count(a, b) as u64;
            }
        }
        count
    }

    /// `v0 < v1 < v2 < v3`, all adjacent; each level narrows the last.
    pub fn clique4(g: &Graph) -> u64 {
        let (mut count, mut c2) = (0, Vec::new());
        for v0 in g.vertices() {
            let c1 = set_ops::clamp(g.neighbors(v0), Some(v0), None);
            for &v1 in c1 {
                c2.clear();
                set_ops::intersect_into(above(c1, v1), above(g.neighbors(v1), v1), &mut c2);
                for &v2 in &c2 {
                    let (a, b) = (above(&c2, v2), above(g.neighbors(v2), v2));
                    count += set_ops::intersect_count(a, b) as u64;
                }
            }
        }
        count
    }

    /// The cycle `v0 v1 v2 v3` with `v0` its smallest vertex and `v1 < v3`.
    pub fn cycle4(g: &Graph) -> u64 {
        let mut count = 0;
        for v0 in g.vertices() {
            let n0 = set_ops::clamp(g.neighbors(v0), Some(v0), None);
            for &v1 in n0 {
                for &v2 in set_ops::clamp(g.neighbors(v1), Some(v0), None) {
                    let (a, b) = (above(n0, v1), above(g.neighbors(v2), v1));
                    count += set_ops::intersect_count(a, b) as u64;
                }
            }
        }
        count
    }

    fn above(list: &[u32], v: u32) -> &[u32] {
        set_ops::clamp(list, Some(v), None)
    }
}

/// What reading the plan costs: the interpreter's counting walk on the
/// service workload's patterns over the `service_mixed` graph, and on the
/// `sparse_fetch` and `hub_cliques` graphs with their heaviest pattern,
/// each beside the hand-written nest where there is one.
fn bench_plan_interp(c: &mut Criterion) {
    type Hand = fn(&gpm_graph::Graph) -> u64;
    let hand_of = |spec: &str| -> Option<Hand> {
        match spec {
            "triangle" => Some(hand::triangle),
            "clique:4" => Some(hand::clique4),
            "cycle:4" => Some(hand::cycle4),
            _ => None,
        }
    };
    let mut service: Vec<&str> = include_str!("../../../ci/service-workload.txt")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    // The eighth query repeats the first; a row per distinct pattern.
    service.sort_unstable();
    service.dedup();
    let rmat = (0.57, 0.19, 0.19);
    let graphs = [
        ("er_2k_8k", gen::erdos_renyi(2_000, 8_000, 12), service),
        ("er_50k_200k", gen::erdos_renyi(50_000, 200_000, 12), vec!["cycle:4"]),
        ("rmat_12_16", gen::rmat(12, 16, rmat, 12), vec!["clique:4"]),
    ];
    let mut g = c.benchmark_group("plan_interp");
    for (graph_name, graph, specs) in &graphs {
        for spec in specs {
            let pattern = gpm_apps::cli::parse_pattern(spec).expect("workload pattern parses");
            let plan = MatchingPlan::compile(&pattern, &PlanOptions::automine()).unwrap();
            let row = format!("{graph_name}/{spec}");
            g.bench_with_input(BenchmarkId::new("count_fast", &row), &plan, |bench, plan| {
                bench.iter(|| interp::count_embeddings_fast(black_box(graph), plan))
            });
            if let Some(hand) = hand_of(spec) {
                assert_eq!(hand(graph), interp::count_embeddings_fast(graph, &plan), "{row}");
                g.bench_function(BenchmarkId::new("hand", &row), |bench| {
                    bench.iter(|| hand(black_box(graph)))
                });
            }
        }
    }
    g.finish();
}

/// The depth-first tail through the engine against the same walk on the
/// whole graph. `path:4` parks one fetched level and walks two below it;
/// `star:4` parks only its roots and fetches nothing. What the engine
/// costs over the interpreter here is chunking and resolve, not the walk:
/// both run [`interp::Walk`].
fn bench_extend_tail(c: &mut Criterion) {
    let graph = gen::erdos_renyi(3_000, 12_000, 12);
    let cfg = EngineConfig { compute_threads: 1, ..EngineConfig::default() };
    let engine = Engine::new(PartitionedGraph::new(&graph, 2, 1), cfg);
    let mut g = c.benchmark_group("extend_tail");
    for (name, p) in [("path4", Pattern::path(4)), ("star4", Pattern::star(4))] {
        let plan = MatchingPlan::compile(&p, &PlanOptions::automine()).unwrap();
        let expect = interp::count_embeddings_fast(&graph, &plan);
        assert_eq!(engine.count(&plan).count, expect, "{name}");
        g.bench_with_input(BenchmarkId::new("engine_2_parts", name), &plan, |bench, plan| {
            bench.iter(|| engine.count(black_box(plan)).count)
        });
        g.bench_with_input(BenchmarkId::new("interp", name), &plan, |bench, plan| {
            bench.iter(|| interp::count_embeddings_fast(black_box(&graph), plan))
        });
    }
    g.finish();
    engine.shutdown();
}

fn bench_partitioning(c: &mut Criterion) {
    let graph = gen::barabasi_albert(50_000, 8, 3);
    c.bench_function("partition_50k_into_8", |bench| {
        bench.iter(|| PartitionedGraph::new(black_box(&graph), 8, 1))
    });
}

/// What one resolved list costs to find: the part's vertex→rank index
/// (owned and not-owned vertices of one hash part) and the static cache's
/// lookup, empty (the lock-free answer every low-skew graph gets) and
/// populated (hit and miss through the read lock).
fn bench_part_lookup(c: &mut Criterion) {
    let mut g = c.benchmark_group("part_lookup");
    let graph = gen::erdos_renyi(50_000, 200_000, 12);
    let pg = PartitionedGraph::new(&graph, 2, 1);
    let part = pg.part(0);
    // Probe in a scattered order, as embeddings' vertices arrive.
    let scattered = |p: usize| -> Vec<u32> {
        let mut vs: Vec<u32> = pg.part(p).owned().to_vec();
        vs.sort_by_key(|&v| gpm_graph::partition::vertex_hash(v));
        vs.truncate(4096);
        vs
    };
    let (owned, foreign) = (scattered(0), scattered(1));
    g.bench_function("edge_list_hit_x4096", |bench| {
        bench.iter(|| {
            owned.iter().map(|&v| part.edge_list(v).map_or(0, <[u32]>::len)).sum::<usize>()
        })
    });
    g.bench_function("edge_list_miss_x4096", |bench| {
        bench.iter(|| foreign.iter().filter(|&&v| part.edge_list(v).is_some()).count())
    });
    let empty = SharedCache::new(CachePolicy::Static, 1 << 20, 1);
    g.bench_function("cache_lookup_empty_x4096", |bench| {
        bench.iter(|| foreign.iter().filter(|&&v| empty.lookup(v).is_some()).count())
    });
    let populated = SharedCache::new(CachePolicy::Static, 1 << 20, 1);
    for &v in &foreign[..2048] {
        populated.maybe_insert(v, graph.neighbors(v));
    }
    g.bench_function("cache_lookup_populated_x4096", |bench| {
        bench.iter(|| foreign.iter().filter(|&&v| populated.lookup(v).is_some()).count())
    });
    g.finish();
}

fn bench_plan_compilation(c: &mut Criterion) {
    let mut g = c.benchmark_group("plan_compile");
    g.bench_function("automine_5clique", |bench| {
        bench.iter(|| MatchingPlan::compile(&Pattern::clique(5), &PlanOptions::automine()).unwrap())
    });
    g.bench_function("graphpi_house_exhaustive", |bench| {
        bench.iter(|| MatchingPlan::compile(&Pattern::house(), &PlanOptions::graphpi()).unwrap())
    });
    g.finish();
}

/// Observability overhead, two ways: the raw record-call hot path
/// (disabled must be a single relaxed-atomic branch — nanoseconds, no
/// allocation) and a whole engine run with tracing off vs. on (the
/// disabled case is the <2% regression budget in the acceptance
/// criteria; compare against a build without the obs crate).
fn bench_obs_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("obs_overhead");
    for (name, cfg) in [("disabled", ObsConfig::default()), ("enabled", ObsConfig::enabled())] {
        let rec = Recorder::new(&cfg);
        let mut h = rec.handle(0);
        g.bench_function(BenchmarkId::new("span_record", name), |bench| {
            bench.iter(|| {
                let ts = h.start();
                h.span(black_box(SpanKind::Extend), ts, black_box(1));
            })
        });
        g.bench_function(BenchmarkId::new("histogram_observe", name), |bench| {
            bench.iter(|| rec.observe(black_box(Metric::ChunkFanout), black_box(17)))
        });
        // The causal-tracing variant: a linked span through the central
        // recorder, as the fabric's issue/serve/wait triples record
        // them. Disabled must cost the same single relaxed-atomic
        // branch as the unlinked path (now_ns is also branch-only when
        // off).
        g.bench_function(BenchmarkId::new("span", name), |bench| {
            bench.iter(|| {
                let ts = rec.now_ns();
                rec.span(
                    black_box(0),
                    black_box(SpanKind::Fetch),
                    black_box(0),
                    ts,
                    black_box(1),
                    black_box(42),
                );
            })
        });
    }
    // The flight ring a coarse event also lands in: enabled is one
    // fetch_add plus a slot write (tens of nanoseconds, no allocation,
    // no lock); disabled is a single branch. The ring is armed during
    // incident-armed runs, so this IS the hot path tax of
    // `--incident-dir`.
    {
        use gpm_obs::FlightRecorder;
        for (name, ring) in
            [("disabled", FlightRecorder::disabled()), ("enabled", FlightRecorder::new(4096))]
        {
            g.bench_function(BenchmarkId::new("flight_record", name), |bench| {
                bench.iter(|| {
                    ring.record(
                        black_box(SpanKind::Steal),
                        black_box(1),
                        black_box(2),
                        black_box(3),
                    )
                })
            });
        }
    }
    // Progress tracking, on for every run: a handful of relaxed atomic
    // adds per claimed and per retired root batch.
    {
        let progress = gpm_obs::QueryProgress::new(1, 1 << 20, 4);
        g.bench_function(BenchmarkId::new("progress_record", "enabled"), |bench| {
            bench.iter(|| {
                progress.record_claimed(black_box(0), black_box(64), false);
                progress.record_completed(black_box(0), black_box(64));
            })
        });
    }
    let graph = gen::erdos_renyi(500, 3_000, 7);
    let plan = MatchingPlan::compile(&Pattern::triangle(), &PlanOptions::automine()).unwrap();
    for (name, obs) in [("disabled", ObsConfig::default()), ("enabled", ObsConfig::enabled())] {
        let engine = Engine::new(
            PartitionedGraph::new(&graph, 4, 1),
            EngineConfig { obs, ..EngineConfig::default() },
        );
        g.bench_function(BenchmarkId::new("engine_triangle", name), |bench| {
            bench.iter(|| black_box(engine.count(&plan).count))
        });
        engine.shutdown();
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_set_ops,
    bench_set_ops_shapes,
    bench_plan_interp,
    bench_extend_tail,
    bench_partitioning,
    bench_part_lookup,
    bench_plan_compilation,
    bench_obs_overhead
);
criterion_main!(benches);
