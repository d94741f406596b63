//! Property-based tests: the distributed engine must agree with the
//! single-machine reference interpreter for arbitrary graphs, patterns,
//! and engine configurations.

use gpm_graph::partition::{PartitionedGraph, Partitioner};
use gpm_graph::{gen, GraphBuilder};
use gpm_obs::ControlSection;
use gpm_pattern::plan::{MatchingPlan, PlanOptions};
use gpm_pattern::{interp, Pattern};
use khuzdul::{
    CacheConfig, CachePolicy, ControlConfig, ControlMode, Engine, EngineConfig, EngineError,
    FabricConfig, FaultPlan, RetryPolicy, StealConfig,
};
use proptest::prelude::*;
use std::time::Duration;

fn arb_pattern() -> impl Strategy<Value = Pattern> {
    prop_oneof![
        Just(Pattern::edge()),
        Just(Pattern::triangle()),
        Just(Pattern::path(3)),
        Just(Pattern::path(4)),
        Just(Pattern::star(4)),
        Just(Pattern::cycle(4)),
        Just(Pattern::clique(4)),
        Just(Pattern::tailed_triangle()),
        Just(Pattern::diamond()),
    ]
}

fn arb_config() -> impl Strategy<Value = EngineConfig> {
    (
        prop_oneof![Just(4usize), Just(64), Just(4096)],
        1usize..=3,
        any::<bool>(),
        any::<bool>(),
        prop_oneof![
            Just(CachePolicy::Disabled),
            Just(CachePolicy::Static),
            Just(CachePolicy::Lru),
        ],
    )
        .prop_map(|(chunk, threads, horizontal, circulant, policy)| EngineConfig {
            chunk_capacity: chunk,
            compute_threads: threads,
            horizontal_sharing: horizontal,
            circulant,
            cache: CacheConfig { policy, degree_threshold: 4, ..CacheConfig::default() },
            ..EngineConfig::default()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_matches_interpreter(
        edges in prop::collection::vec((0u32..60, 0u32..60), 30..200),
        p in arb_pattern(),
        cfg in arb_config(),
        machines in 1usize..5,
        sockets in 1usize..3,
    ) {
        let g = edges.into_iter().collect::<GraphBuilder>().build();
        if g.vertex_count() < 2 { return Ok(()); }
        let plan = MatchingPlan::compile(&p, &PlanOptions::automine()).unwrap();
        let expect = interp::count_embeddings(&g, &plan);
        let pg = PartitionedGraph::new(&g, machines, sockets);
        let engine = Engine::new(pg, cfg);
        let run = engine.count(&plan);
        engine.shutdown();
        prop_assert_eq!(run.count, expect);
    }

    #[test]
    fn counts_invariant_under_request_window(
        seed in 0u64..500,
        p in arb_pattern(),
    ) {
        let g = gen::erdos_renyi(50, 200, seed);
        let plan = MatchingPlan::compile(&p, &PlanOptions::automine()).unwrap();
        let mut counts = Vec::new();
        for window in [1usize, 2, 8] {
            let pg = PartitionedGraph::new(&g, 3, 1);
            let engine = Engine::new(pg, EngineConfig {
                fabric: FabricConfig { window, ..FabricConfig::default() },
                ..EngineConfig::default()
            });
            counts.push(engine.count(&plan).count);
            engine.shutdown();
        }
        prop_assert_eq!(counts[0], counts[1]);
        prop_assert_eq!(counts[1], counts[2]);
    }

    #[test]
    fn counts_invariant_under_fault_injection(
        seed in 0u64..200,
        fault_seed in 0u64..u64::MAX,
        p in arb_pattern(),
    ) {
        let g = gen::erdos_renyi(40, 160, seed);
        let plan = MatchingPlan::compile(&p, &PlanOptions::automine()).unwrap();
        let pg = PartitionedGraph::new(&g, 3, 1);
        let clean = Engine::new(pg, EngineConfig::default());
        let expect = clean.count(&plan).count;
        clean.shutdown();

        let pg = PartitionedGraph::new(&g, 3, 1);
        let engine = Engine::new(pg, EngineConfig {
            fabric: FabricConfig {
                window: 4,
                retry: RetryPolicy {
                    max_attempts: 8,
                    timeout: Duration::from_millis(50),
                    backoff: Duration::from_millis(1),
                },
                fault: Some(FaultPlan { seed: fault_seed, ..FaultPlan::drops(0.05) }),
            },
            ..EngineConfig::default()
        });
        let run = engine.try_count(&plan).expect("retries must mask the fault plan");
        engine.shutdown();
        prop_assert_eq!(run.count, expect);
    }

    #[test]
    fn counts_invariant_under_crash_schedules(
        seed in 0u64..100,
        crash_part in 0usize..4,
        crash_after in prop_oneof![0u64..8, 8u64..64],
        steal in any::<bool>(),
        p in arb_pattern(),
    ) {
        // The seeded skewed R-MAT fixture under range partitioning (as in
        // `counts_invariant_under_work_stealing`): the hub vertices all
        // land on part 0, so steal-path donations and adoptions are in
        // flight when a crash lands.
        let g = gen::rmat(6, 8, (0.57, 0.19, 0.19), seed);
        let plan = MatchingPlan::compile(&p, &PlanOptions::automine()).unwrap();
        let pg = PartitionedGraph::with_partitioner(&g, 4, 1, Partitioner::Range);
        let clean = Engine::new(pg, EngineConfig::default());
        let expect = clean.count(&plan).count;
        clean.shutdown();

        let crashy = |mode: ControlMode| EngineConfig {
            // Small chunks split the fetch workload into many wire
            // requests so most sampled schedules actually fire mid-run.
            chunk_capacity: 32,
            steal: StealConfig { enabled: steal, batch: 4 },
            control: ControlConfig { mode },
            fabric: FabricConfig {
                retry: RetryPolicy {
                    max_attempts: 4,
                    timeout: Duration::from_millis(50),
                    backoff: Duration::from_millis(1),
                },
                fault: Some(FaultPlan::crash_at(crash_part, crash_after)),
                ..FabricConfig::default()
            },
            ..EngineConfig::default()
        };
        for mode in [ControlMode::Shared, ControlMode::Msg] {
            // With a replica, every crash schedule must recover the exact
            // count — whether the crash fires early, mid-run, or never —
            // under either control-plane carrier.
            let mut pg = PartitionedGraph::with_partitioner(&g, 4, 1, Partitioner::Range);
            pg.set_replication(2);
            let engine = Engine::new(pg, crashy(mode));
            let run = engine.try_count(&plan).expect("replication must mask a single crash");
            engine.shutdown();
            prop_assert!(run.count == expect, "mode {:?}: {} != {}", mode, run.count, expect);

            // Without one, the same schedule either never fires (exact
            // count) or surfaces as a typed loss — never a wrong count,
            // never a hang.
            let pg = PartitionedGraph::with_partitioner(&g, 4, 1, Partitioner::Range);
            let engine = Engine::new(pg, crashy(mode));
            let res = engine.try_count(&plan);
            engine.shutdown();
            match res {
                Ok(run) => {
                    prop_assert!(run.count == expect, "mode {:?}: {} != {}", mode, run.count, expect)
                }
                Err(EngineError::PartLost { part }) => prop_assert_eq!(part, crash_part),
                Err(e) => prop_assert!(false, "unexpected error under {:?}: {}", mode, e),
            }
        }
    }

    #[test]
    fn counts_invariant_under_control_message_faults(
        seed in 0u64..100,
        fault_seed in 0u64..u64::MAX,
        p in arb_pattern(),
    ) {
        // Dropping replies on both planes — control messages (claims,
        // retirements, quiescence polls) and data fetches — must never
        // change counts: control replies are replayed from the
        // responder's dedup cache, so a retried claim is never applied
        // twice, and a retried fetch re-reads an immutable list.
        let g = gen::rmat(6, 8, (0.57, 0.19, 0.19), seed);
        let plan = MatchingPlan::compile(&p, &PlanOptions::automine()).unwrap();
        let pg = PartitionedGraph::with_partitioner(&g, 4, 1, Partitioner::Range);
        let clean = Engine::new(pg, EngineConfig::default());
        let expect = clean.count(&plan).count;
        clean.shutdown();

        let pg = PartitionedGraph::with_partitioner(&g, 4, 1, Partitioner::Range);
        let engine = Engine::new(pg, EngineConfig {
            chunk_capacity: 32,
            steal: StealConfig { enabled: true, batch: 4 },
            control: ControlConfig { mode: ControlMode::Msg },
            // A drop costs one timeout on either plane: the CLI's tight
            // 25 ms keeps the 24 cases to a few seconds.
            fabric: FabricConfig {
                retry: RetryPolicy {
                    max_attempts: 10,
                    timeout: Duration::from_millis(25),
                    backoff: Duration::from_micros(500),
                },
                fault: Some(FaultPlan { seed: fault_seed, ..FaultPlan::drops(0.2) }),
                ..FabricConfig::default()
            },
            ..EngineConfig::default()
        });
        let run = engine.try_count(&plan).expect("retries must mask dropped control replies");
        let parts = engine.metrics().totals();
        engine.shutdown();
        prop_assert_eq!(run.count, expect);
        // How many of a few dozen messages a 20% plan drops is a chance
        // (that it drops at all is pinned, with a fixed seed, by
        // `gpm_cluster::control`'s unit tests). These are consequences:
        // every drop was retried, and the run's own account of its
        // control messages is the part rows summed.
        prop_assert!(run.control.retried >= run.control.dropped, "{:?}", run.control);
        prop_assert_eq!(run.control, ControlSection::from(&parts));
    }

    #[test]
    fn counts_invariant_under_work_stealing(
        seed in 0u64..200,
        p in arb_pattern(),
    ) {
        // Skewed R-MAT under range partitioning: the low-id hub vertices
        // all land on part 0, so the other parts starve early and the
        // steal path (cursor steals, spill donations, ledger quiescence)
        // actually runs. The count must be bit-identical across steal
        // on/off, thread counts, and part counts.
        let g = gen::rmat(6, 8, (0.57, 0.19, 0.19), seed);
        let plan = MatchingPlan::compile(&p, &PlanOptions::automine()).unwrap();
        let mut expect: Option<u64> = None;
        for parts in [1usize, 4] {
            for threads in [1usize, 2, 4] {
                for steal in [false, true] {
                    for mode in [ControlMode::Shared, ControlMode::Msg] {
                        // The message carrier only differs once several
                        // parts actually coordinate; skip the degenerate
                        // single-part sweep to keep the case affordable.
                        if mode == ControlMode::Msg && parts == 1 {
                            continue;
                        }
                        let pg =
                            PartitionedGraph::with_partitioner(&g, parts, 1, Partitioner::Range);
                        let engine = Engine::new(pg, EngineConfig {
                            compute_threads: threads,
                            // Small chunks force multi-chunk levels, pauses,
                            // and leftover hand-backs under stealing.
                            chunk_capacity: 64,
                            steal: StealConfig { enabled: steal, batch: 8 },
                            control: ControlConfig { mode },
                            ..EngineConfig::default()
                        });
                        let c = engine.count(&plan).count;
                        engine.shutdown();
                        match expect {
                            None => expect = Some(c),
                            Some(e) => prop_assert!(
                                c == e,
                                "count diverged: parts={} threads={} steal={} mode={:?}: {} != {}",
                                parts, threads, steal, mode, c, e
                            ),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ranked_execution_matches_the_oracle_in_input_ids(
        kind in 0usize..3,
        seed in 0u64..1000,
        parts in prop_oneof![Just(1usize), Just(2), Just(4)],
        range in any::<bool>(),
        p in arb_pattern(),
    ) {
        let g = match kind {
            0 => gen::erdos_renyi(60, 240, seed),
            1 => gen::barabasi_albert(60, 4, seed),
            _ => gen::rmat(6, 4, (0.57, 0.19, 0.19), seed),
        };
        let strategy = if range { Partitioner::Range } else { Partitioner::Hash };
        let pg = PartitionedGraph::with_partitioner(&g, parts, 1, strategy);
        // The window a symmetry-broken plan reads above `v` is the
        // degree-oriented out-list of the vertex it stands for.
        let rank_less = |u: u32, w: u32| (g.degree(u), u) < (g.degree(w), w);
        for v in 0..g.vertex_count() as u32 {
            let list = pg.part(pg.owner(v)).edge_list(v).unwrap();
            let mut above: Vec<u32> =
                list.iter().filter(|&&w| w > v).map(|&w| pg.original_id(w)).collect();
            above.sort_unstable();
            let u = pg.original_id(v);
            let out: Vec<u32> = g.neighbors(u).iter().copied().filter(|&w| rank_less(u, w)).collect();
            prop_assert!(above == out, "ranked {v} is {u}: {above:?} above, {out:?} out");
        }
        // Each match as the set of edges it covers, in input ids.
        let edges_of = |at: &dyn Fn(usize) -> u32| {
            let mut e: Vec<(u32, u32)> =
                p.edges().iter().map(|&(a, b)| (at(a).min(at(b)), at(a).max(at(b)))).collect();
            e.sort_unstable();
            e
        };
        let mut want = std::collections::BTreeSet::new();
        gpm_pattern::oracle::enumerate_maps(&g, &p, false, &mut |f| {
            want.insert(edges_of(&|i| f[i]));
        });
        let plan = MatchingPlan::compile(&p, &PlanOptions::automine()).unwrap();
        let engine = Engine::new(pg, EngineConfig::default());
        let counted = engine.count(&plan).count;
        let seen = std::sync::Mutex::new(Vec::new());
        engine.enumerate(&plan, |m| {
            let mut at = [0; 8];
            for (pos, &pv) in plan.order().iter().enumerate() {
                at[pv] = m[pos];
            }
            seen.lock().unwrap().push(edges_of(&|i| at[i]));
        });
        engine.shutdown();
        prop_assert_eq!(counted, want.len() as u64);
        let seen = seen.into_inner().unwrap();
        prop_assert_eq!(seen.len(), want.len());
        prop_assert_eq!(seen.into_iter().collect::<std::collections::BTreeSet<_>>(), want);
    }

    #[test]
    fn engine_enumerate_agrees_with_count(
        seed in 0u64..500,
        p in arb_pattern(),
    ) {
        let g = gen::erdos_renyi(50, 200, seed);
        let plan = MatchingPlan::compile(&p, &PlanOptions::automine()).unwrap();
        let pg = PartitionedGraph::new(&g, 3, 1);
        let engine = Engine::new(pg, EngineConfig::default());
        let seen = std::sync::atomic::AtomicU64::new(0);
        let run = engine.enumerate(&plan, |_| {
            seen.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        let counted = engine.count(&plan);
        engine.shutdown();
        prop_assert_eq!(run.count, seen.into_inner());
        prop_assert_eq!(run.count, counted.count);
    }
}
