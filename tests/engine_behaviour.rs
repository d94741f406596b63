//! Cross-crate integration: engine-level behaviour the paper promises —
//! bounded memory via chunking, traffic reductions from each sharing
//! mechanism, cache semantics, and workload-level end-to-end runs.

use khuzdul::{CacheConfig, CachePolicy};
use khuzdul_repro::apps::counting;
use khuzdul_repro::apps::fsm::{fsm, fsm_single, FsmConfig};
use khuzdul_repro::engine::{Engine, EngineConfig};
use khuzdul_repro::graph::partition::PartitionedGraph;
use khuzdul_repro::graph::{datasets::DatasetId, gen};
use khuzdul_repro::pattern::plan::{MatchingPlan, PlanOptions};
use khuzdul_repro::pattern::{oracle, Pattern};

fn engine_with(g: &gpm_graph::Graph, machines: usize, cfg: EngineConfig) -> Engine {
    Engine::new(PartitionedGraph::new(g, machines, 1), cfg)
}

#[test]
fn tiny_chunks_still_complete_deep_patterns() {
    // chunk capacity 3 on a 5-level pattern: maximal pause/resume stress.
    // Every clique level clamps its raw candidate set (and the stored
    // intermediate) by its bounds, so each `PushOutcome::Partial` here
    // records an offset into a clamped set and must resume into the same
    // one, whichever compiler ordered the plan.
    let g = gen::erdos_renyi(80, 500, 5);
    let p = Pattern::clique(5);
    let expect = oracle::count_subgraphs(&g, &p, false);
    let engine = engine_with(&g, 3, EngineConfig { chunk_capacity: 3, ..EngineConfig::default() });
    for opts in [PlanOptions::automine(), PlanOptions::graphpi()] {
        let plan = MatchingPlan::compile(&p, &opts).unwrap();
        assert!(plan.levels().iter().all(|l| !l.raw_lower.is_empty() || !l.raw_upper.is_empty()));
        assert_eq!(engine.count(&plan).count, expect);
        let visited = std::sync::atomic::AtomicU64::new(0);
        let run = engine.enumerate(&plan, |_| {
            visited.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!((run.count, visited.into_inner()), (expect, expect));
    }
    engine.shutdown();
}

#[test]
fn every_small_pattern_is_exact_wherever_its_chunk_stack_ends() {
    // Every connected pattern of up to five vertices x both compilers x
    // {1, 2, 4} parts x chunk capacity {3, default}, counted and
    // enumerated. The patterns differ in where the stack ends (a star's
    // at the roots, a clique's one short of the pattern, a house's in the
    // middle with an inactive level above), the part counts in how many
    // children are owned and walked in place (all, half, a quarter), and
    // capacity 3 pauses every parent that parks more than three. The
    // count is the oracle's; the visited multiset is the interpreter's,
    // which walks the same plan over the whole graph ranked by degree,
    // mapped back to the graph's ids.
    let g = gen::barabasi_albert(28, 4, 17);
    let (ranked, original) = khuzdul_repro::graph::rank::rank_by_degree(&g);
    let mut plans = Vec::new();
    for k in 1..=5 {
        for p in khuzdul_repro::pattern::genpat::connected_patterns(k) {
            let expect = oracle::count_subgraphs(&g, &p, false);
            for opts in [PlanOptions::automine(), PlanOptions::graphpi()] {
                let plan = MatchingPlan::compile(&p, &opts).unwrap();
                let mut tuples = Vec::new();
                khuzdul_repro::pattern::interp::enumerate_embeddings(&ranked, &plan, |m| {
                    tuples.push(m.iter().map(|&v| original[v as usize]).collect::<Vec<_>>());
                });
                tuples.sort_unstable();
                assert_eq!(tuples.len() as u64, expect, "{p}");
                plans.push((plan, expect, tuples));
            }
        }
    }
    assert_eq!(plans.len(), 2 * 31);
    let bottoms: Vec<usize> = plans.iter().map(|(plan, ..)| plan.last_fetched_level()).collect();
    assert!((0..=3).all(|level| bottoms.contains(&level)), "stack bottoms covered: {bottoms:?}");
    for machines in [1, 2, 4] {
        for chunk_capacity in [3, EngineConfig::default().chunk_capacity] {
            let engine = engine_with(
                &g,
                machines,
                EngineConfig { chunk_capacity, ..EngineConfig::default() },
            );
            for (plan, expect, tuples) in &plans {
                let what =
                    format!("{machines} part(s), capacity {chunk_capacity}\n{}", plan.describe());
                assert_eq!(engine.count(plan).count, *expect, "counted: {what}");
                let seen = std::sync::Mutex::new(Vec::new());
                let run = engine.enumerate(plan, |m| seen.lock().unwrap().push(m.to_vec()));
                let mut seen = seen.into_inner().unwrap();
                seen.sort_unstable();
                assert_eq!(run.count, *expect, "enumerated: {what}");
                assert!(seen == *tuples, "visited multiset differs: {what}");
            }
            engine.shutdown();
        }
    }
}

#[test]
fn every_sharing_mechanism_reduces_traffic_on_skewed_graphs() {
    let g = gen::barabasi_albert(400, 6, 13);
    let p = Pattern::clique(4);
    let plan = MatchingPlan::compile(&p, &PlanOptions::automine()).unwrap();
    let run_with = |horizontal: bool, cache: CacheConfig| {
        let engine = engine_with(
            &g,
            4,
            EngineConfig { horizontal_sharing: horizontal, cache, ..EngineConfig::default() },
        );
        let r = engine.count(&plan);
        engine.shutdown();
        r
    };
    let none = run_with(false, CacheConfig::disabled());
    let horizontal = run_with(true, CacheConfig::disabled());
    assert_eq!(none.count, horizontal.count);
    // The share table is the only dedup before the wire: without it every
    // duplicate list crosses the network (§5.2).
    assert!(horizontal.traffic.network_bytes < none.traffic.network_bytes);
    assert!(horizontal.traffic.coalesced > 0 && none.traffic.coalesced == 0);
    // Every list arrives cut to what the plan reads, cached or not.
    // Without the share table the cache beats shipping every duplicate,
    // whether its threshold is under most degrees (every vertex has at
    // least 6 edges) or picks out the hubs. With the table, one run asks
    // the cache for nothing an earlier fill fetched: a fill fetches a
    // vertex once, and a 4-clique's `v2` lists, fetched by the fill of
    // their `v1` siblings, are walked there (no hits; a second run on the
    // warm engine would hit). So on one run the cache gives up nothing:
    // it never costs bytes against the table alone, and saves them
    // against the cache alone.
    for threshold in [4, 8] {
        let eligible = CacheConfig { degree_threshold: threshold, ..CacheConfig::default() };
        let cache = run_with(false, eligible);
        let both = run_with(true, eligible);
        assert_eq!(none.count, cache.count);
        assert_eq!(none.count, both.count);
        assert!(cache.traffic.cache_hits > 0, "{threshold}");
        assert!(cache.traffic.network_bytes < none.traffic.network_bytes, "{threshold}");
        assert!(both.traffic.network_bytes < cache.traffic.network_bytes, "{threshold}");
        assert!(both.traffic.network_bytes <= horizontal.traffic.network_bytes, "{threshold}");
    }
}

#[test]
fn vertical_reuse_reduces_intersection_work_not_traffic_correctness() {
    let g = gen::barabasi_albert(300, 5, 2);
    for k in [4usize, 5] {
        let p = Pattern::clique(k);
        let expect = oracle::count_subgraphs(&g, &p, false);
        for reuse in [true, false] {
            let opts = PlanOptions { vertical_reuse: reuse, ..PlanOptions::graphpi() };
            let plan = MatchingPlan::compile(&p, &opts).unwrap();
            let engine = engine_with(&g, 4, EngineConfig::default());
            assert_eq!(engine.count(&plan).count, expect, "k={k} reuse={reuse}");
            engine.shutdown();
        }
    }
}

#[test]
fn cache_policies_only_change_costs_never_results() {
    let g = gen::barabasi_albert(250, 5, 21);
    let p = Pattern::clique(4);
    let plan = MatchingPlan::compile(&p, &PlanOptions::automine()).unwrap();
    let mut counts = Vec::new();
    for policy in [
        CachePolicy::Disabled,
        CachePolicy::Static,
        CachePolicy::Fifo,
        CachePolicy::Lifo,
        CachePolicy::Lru,
        CachePolicy::Mru,
    ] {
        let engine = engine_with(
            &g,
            4,
            EngineConfig {
                cache: CacheConfig {
                    policy,
                    capacity_per_machine: 8 << 10, // small: forces evictions
                    degree_threshold: 1,
                },
                ..EngineConfig::default()
            },
        );
        counts.push(engine.count(&plan).count);
        engine.shutdown();
    }
    assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
}

#[test]
fn motif_counting_full_dataset_pipeline() {
    // End to end through the dataset registry, the engine and the apps
    // crate, checked against the oracle.
    let g = gen::barabasi_albert(150, 4, 4);
    let engine = engine_with(&g, 2, EngineConfig::default());
    let motifs = counting::motif_count(&engine, 4, &PlanOptions::automine()).unwrap();
    engine.shutdown();
    for (p, c) in &motifs.per_pattern {
        assert_eq!(*c, oracle::count_subgraphs(&g, p, true), "{p}");
    }
}

#[test]
fn fsm_distributed_equals_single_on_dataset_standin() {
    let g = DatasetId::Mico.build_labeled(3);
    // Trim to a small subgraph for test speed.
    let mut b = gpm_graph::GraphBuilder::new(2000);
    for (u, v) in g.edges() {
        if u < 2000 && v < 2000 {
            b.add_edge(u, v);
        }
    }
    b.labels(g.labels().unwrap()[..2000].to_vec());
    let g = b.build();
    let cfg = FsmConfig { support_threshold: 40, max_edges: 2, ..FsmConfig::default() };
    let single = fsm_single(&g, &cfg);
    let engine = engine_with(&g, 4, EngineConfig::default());
    let dist = fsm(&engine, &cfg);
    engine.shutdown();
    assert_eq!(single.frequent.len(), dist.frequent.len());
    assert!(!single.frequent.is_empty(), "threshold should keep some patterns");
}

#[test]
fn network_model_changes_time_not_results() {
    let g = gen::barabasi_albert(200, 5, 9);
    let p = Pattern::triangle();
    let plan = MatchingPlan::compile(&p, &PlanOptions::automine()).unwrap();
    let expect = oracle::count_subgraphs(&g, &p, false);
    let engine = engine_with(
        &g,
        4,
        EngineConfig {
            network: Some(gpm_cluster::NetworkModel { latency_us: 50.0, bandwidth_gbps: 1.0 }),
            ..EngineConfig::default()
        },
    );
    let run = engine.count(&plan);
    engine.shutdown();
    assert_eq!(run.count, expect);
    assert!(run.per_part.iter().any(|p| !p.network.is_zero()));
}

#[test]
fn run_stats_are_internally_consistent() {
    let g = gen::erdos_renyi(150, 700, 3);
    let plan = MatchingPlan::compile(&Pattern::clique(4), &PlanOptions::automine()).unwrap();
    let engine = engine_with(&g, 4, EngineConfig::default());
    let run = engine.count(&plan);
    engine.shutdown();
    assert_eq!(run.count, run.per_part.iter().map(|p| p.count).sum::<u64>());
    assert_eq!(run.per_part.len(), 4);
    let b = run.breakdown();
    for f in [b.compute, b.network, b.scheduler, b.cache] {
        assert!((0.0..=1.0).contains(&f));
    }
}

/// `(count, network_bytes, fetch requests, coalesced, cache hits, cache
/// misses)` of one run.
type Routing = (u64, u64, u64, u64, u64, u64);

/// Rows: graph × pattern × horizontal sharing {on, off}. First recorded
/// from the commit before the resolve path was rewritten (single-hash
/// loop, batched counters, pin list, epoch-tagged share table).
///
/// Re-recorded when the chunk stack was cut at the last fetched level and
/// owned children stopped being parked: the last chunk then holds only
/// embeddings that wait for a fetch, so one fill batches (and dedups) more
/// of them. Where no chunk fills nothing moved; the rmat 4-cycle rows went
/// 91 892 → 87 848 bytes, 30 → 24 requests and 14 532 → 14 660 coalesced
/// (sharing off), everything else identical. (The path, star and house
/// rows were added with that change, to pin the depth-first tail; against
/// the commit before it they differ only in the rmat house rows — 360 104
/// → 314 348 bytes, 261 → 201 requests, and 802 of the 1 004 932 lookups
/// moving from hit to miss, because a fuller round looks a hub up more
/// often before that round's reply admits it.)
///
/// Re-recorded again when requests started to carry the plan's fetch
/// bound and the share table became the one dedup (the fabric stopped
/// coalescing), column by column:
/// * `count`, `requests`, cache hits and misses: identical on every row —
///   the cache admits exactly the lists it admitted (a cut list is shorter
///   than the threshold of 16) and every bucket still goes out once.
/// * `network_bytes`: lower on every "on" row whose plan bounds a fetched
///   list (triangle, 4-cycle, 4-clique; e.g. er 4-cycle 544 556 → 450 264);
///   equal where it bounds none (path, house) or fetches nothing (star).
///   On the "off" rows duplicates now reach the wire, so bytes rise (er
///   4-cycle 544 556 → 1 437 836), except er triangle, whose cut lists
///   outweigh its duplicates (214 980 → 211 812).
/// * `coalesced`: on "on" rows the duplicates the share table absorbed —
///   exactly what the fabric used to coalesce on the "off" rows, since
///   both removed repeats of one vertex within one fill; 0 on "off" rows.
///
/// Re-recorded when a child whose list its parent's own fill had fetched
/// started to be walked on that list ("held") instead of parked, column by
/// column:
/// * `count`: identical on every row.
/// * Only the "on" rows of the 4-cycle and the 4-clique move. Their bottom
///   chunk is level 2, and a `v2` is often a `v1` sibling in the level-1
///   fill above it. Every "off" row is identical (the rule rides the
///   sharing switch), and so are the triangle (its level-0 chunk holds
///   owned roots, which claim nothing), the path, the house (the level
///   above their bottom chunk claims nothing) and the star.
/// * `network_bytes`: lower, since a held list is not fetched again (er
///   4-cycle 450 264 → 336 812, rmat 4-cycle 85 092 → 77 036). Both
///   4-clique rows now equal their triangle rows (er 127 968 → 126 432, rmat
///   63 740 → 58 444): every `v2` is held, so the 4-clique fetches exactly
///   its level-1 lists, which are the triangle's lists with the same bounds.
/// * `requests`: 4-clique 24 → 12, since the bottom chunk sends none. The
///   4-cycle keeps 24: a `v2` that is no sibling, or whose list the cache
///   served above, is still parked.
/// * `coalesced`: up by the held children (rmat 4-clique 1 924 → 8 509, er
///   4-cycle 43 028 → 47 249).
/// * Cache hits and misses: down, since a held child is never looked up
///   (rmat 4-clique 6 320 / 2 984 → 0 / 2 127, again the triangle row's).
///
/// Re-recorded when every bounded list started to ship cut at its bound,
/// whatever the cache may admit, and the cache started to keep that bound
/// (an entry answers a lookup at or above the bound it was cut at), with
/// the lookup moved after the share table, column by column:
/// * `count`: identical on every row.
/// * `network_bytes`: lower on the triangle and 4-clique rows, whose lists
///   at or above the threshold used to ship whole (rmat "on" 58 444 →
///   36 720, er "on" 126 432 → 124 048; rmat triangle "off" 262 324 →
///   124 548). Higher on the 4-cycle rows (rmat "on" 77 036 → 80 040,
///   +3.9 %; "off" 618 128 → 674 176, +9.1 %; er +0.05 % and +1.0 %): the
///   4-cycle reads `N(v)` above `v` as a root but above a lower `v0` deeper
///   down, so an entry cut above a high bound cannot answer a lower one, as
///   the whole entry did. Equal on the path, star and house rows, which
///   fetch every list whole.
/// * `requests`: identical on every row: each bucket still goes out once.
/// * `coalesced`: on "on" rows a repeat of a cached vertex within a fill is
///   now a sharer rather than a second hit, and a child whose list the
///   cache served to its parent's fill is held (rmat house 285 109 →
///   991 299, rmat 4-cycle 43 112 → 43 488); 0 on "off" rows.
/// * Cache hits and misses: counted once per claimant, after the share
///   table, instead of once per remote embedding before it (rmat house
///   "on" 711 530 / 293 402 → 5 340 / 8 293, rmat triangle "on" misses
///   2 127 → 795; "off" rows, where each embedding claims, keep this
///   basis). A lookup below an entry's bound misses: on the "off" rows of
///   the 4-cycle and the 4-clique hits turn into misses (rmat 4-cycle
///   28 600 / 16 301 → 24 845 / 20 056).
///
/// Re-recorded when every partitioned graph started to rank its vertices
/// by ascending degree, the static cache started to admit by full degree
/// (a vertex at or above the first id of degree 16), and the plan compiler
/// started to turn a restriction stage round where that gives a list
/// shipped whole the lower-degree end of its edge (path, house: `v1 < v0`),
/// column by column:
/// * `count`: identical on every row.
/// * `network_bytes`: lower wherever a plan cuts its lists above `v0` — the
///   window above a vertex is now its degree-oriented out-list (rmat
///   triangle "on" 36 720 → 23 624, rmat 4-clique "off" 276 640 → 111 852,
///   er triangle "on" 124 048 → 112 532, rmat 4-cycle "on" 80 040 →
///   74 400). Lower too where a plan ships `N(v1)` whole, now from the
///   lower-degree end (rmat 4-path "off" 269 244 → 198 776, er house "off"
///   465 112 → 394 200, rmat house "on" 314 348 → 258 852), except the rmat
///   house "off" row (12 050 312 → 12 202 688, +1.3 %), the er 4-path "on"
///   row (214 980 → 216 116, +0.5 %) and the "off" rows of the er 4-cycle
///   (1 451 864 → 1 561 492, +7.6 %), whose level-2 lists are cut above a
///   lower `v0` than their own vertex.
/// * `requests`: identical except the rmat 4-cycle "off" (24 → 29), the rmat
///   4-clique "off" (24 → 12) and the rmat house rows (201 → 162): the
///   number of fills follows the embeddings parked at fetched levels.
/// * `coalesced`: up on the "on" rows whose plans cut lists (rmat 4-cycle
///   43 488 → 89 118), since more children share a hub's window; down on
///   the path and house rows (rmat house 991 299 → 794 578), whose
///   children now fetch short lists; 0 on "off" rows.
/// * Cache hits and misses: a hub is admitted by its degree however short
///   its window, so the rmat clique and cycle rows hit more (4-clique "off"
///   2 520 / 6 784 → 7 022 / 2 118, 4-cycle "off" 24 845 / 20 056 →
///   73 510 / 16 617); the house rows look up fewer lists, as they fetch
///   fewer hubs (rmat "off" 711 530 / 293 402 → 577 819 / 227 361).
///
/// Re-recorded when k-Automine's greedy order started to break its ties by
/// cost: the 4-cycle's order went `[0, 1, 2, 3]` → `[0, 1, 3, 2]`, so `v2`
/// is drawn from the root's stored `N(v0)` and the last level intersects two
/// lists of the root's own fill. Only the four 4-cycle rows moved:
/// * `count`: identical.
/// * `network_bytes`: er "on" 313 268 → 183 120, "off" 1 561 492 → 975 756;
///   rmat "on" 74 400 → 51 504, "off" 687 532 → 373 240.
/// * `requests`: er "on" 24 → 12, rmat "on" 24 → 12, rmat "off" 29 → 18
///   (er "off" stays 24): no children are parked at a second fetched level.
/// * `coalesced`: er 55 076 → 21 618, rmat 89 118 → 12 638.
/// * Cache hits / misses: er "on" 0 / 8 605 → 0 / 4 503, "off" 1 140 /
///   62 541 → 947 / 25 174; rmat "on" 0 / 1 009 → 0 / 370, "off" 73 510 /
///   16 617 → 10 879 / 2 129.
///
/// Any other movement means a routing decision changed.
const GOLDEN_ROUTING: [Routing; 24] = [
    (92, 112532, 12, 4480, 0, 4503),              // er triangle on
    (92, 201944, 12, 0, 0, 8983),                 // er triangle off
    (493, 183120, 12, 21618, 0, 4503),            // er 4-cycle on
    (493, 975756, 24, 0, 947, 25174),             // er 4-cycle off
    (0, 112532, 12, 4549, 0, 4503),               // er 4-clique on
    (0, 203536, 24, 0, 8, 9044),                  // er 4-clique off
    (764221, 216116, 12, 3285, 0, 5698),          // er 4-path on
    (764221, 338260, 12, 0, 0, 8983),             // er 4-path off
    (254752, 0, 0, 0, 0, 0),                      // er 4-star on
    (254752, 0, 0, 0, 0, 0),                      // er 4-star off
    (42, 262996, 24, 3489, 0, 6760),              // er house on
    (42, 394200, 24, 0, 0, 10249),                // er house off
    (9519, 23624, 12, 1748, 0, 370),              // rmat triangle on
    (9519, 111852, 12, 0, 0, 2118),               // rmat triangle off
    (271380, 51504, 12, 12638, 0, 370),           // rmat 4-cycle on
    (271380, 373240, 18, 0, 10879, 2129),         // rmat 4-cycle off
    (22236, 23624, 12, 8770, 0, 370),             // rmat 4-clique on
    (22236, 111852, 12, 0, 7022, 2118),           // rmat 4-clique off
    (4719332, 61320, 12, 1289, 0, 829),           // rmat 4-path on
    (4719332, 198776, 12, 0, 0, 2118),            // rmat 4-path off
    (3927740, 0, 0, 0, 0, 0),                     // rmat 4-star on
    (3927740, 0, 0, 0, 0, 0),                     // rmat 4-star off
    (21397141, 258852, 162, 794578, 4121, 6481),  // rmat house on
    (21397141, 12202688, 162, 0, 577819, 227361), // rmat house off
];

#[test]
fn resolve_routing_decisions_match_recorded_constants() {
    // One coordinator thread per part and no stealing: the order in which
    // embeddings reach resolve, and so every cache admission, share-table
    // claim, bucket and wire request, is a function of the input alone.
    // A resolve change that moves one list to a different home moves one
    // of these numbers.
    let graphs = [gen::erdos_renyi(3000, 12000, 12), gen::rmat(9, 8, (0.57, 0.19, 0.19), 12)];
    let patterns = [
        Pattern::triangle(),
        Pattern::cycle(4),
        Pattern::clique(4),
        Pattern::path(4),
        Pattern::star(4),
        Pattern::house(),
    ];
    let mut got: Vec<Routing> = Vec::new();
    for g in &graphs {
        for p in &patterns {
            let plan = MatchingPlan::compile(p, &PlanOptions::automine()).unwrap();
            for horizontal_sharing in [true, false] {
                let engine = engine_with(
                    g,
                    4,
                    EngineConfig {
                        horizontal_sharing,
                        compute_threads: 1,
                        // Small and permissive enough that the R-MAT hubs
                        // are admitted, hit, and then fill the cache.
                        cache: CacheConfig {
                            capacity_per_machine: 16 << 10,
                            degree_threshold: 16,
                            policy: CachePolicy::Static,
                        },
                        ..EngineConfig::default()
                    },
                );
                let r = engine.count(&plan);
                engine.shutdown();
                let t = r.traffic;
                got.push((
                    r.count,
                    t.network_bytes,
                    t.requests,
                    t.coalesced,
                    t.cache_hits,
                    t.cache_misses,
                ));
            }
        }
    }
    assert_eq!(got, GOLDEN_ROUTING, "a routing decision changed");
}
