//! Scheduler-layer integration tests: the persistent worker pool and
//! cross-part work stealing.

use gpm_graph::partition::{PartitionedGraph, Partitioner};
use gpm_graph::{gen, GraphBuilder};
use gpm_obs::{PartProgress, SpanKind};
use gpm_pattern::plan::{MatchingPlan, PlanOptions};
use gpm_pattern::{oracle, Pattern};
use khuzdul::{ControlConfig, ControlMode, Engine, EngineConfig, ObsConfig, StealConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

fn plan(p: &Pattern) -> MatchingPlan {
    MatchingPlan::compile(p, &PlanOptions::automine()).unwrap()
}

/// A `(k - 1)`-regular graph on `n` vertices, which degree ranking leaves
/// in place: a k-clique at each of `starts`, and a bipartite circulant
/// (no triangle) between the two halves of the other ids, in id order.
fn regular(n: u32, k: u32, starts: &[u32]) -> gpm_graph::Graph {
    let mut b = GraphBuilder::new(n as usize);
    let mut light = vec![true; n as usize];
    for &s in starts {
        for i in s..s + k {
            light[i as usize] = false;
            for j in i + 1..s + k {
                b.add_edge(i, j);
            }
        }
    }
    let light: Vec<u32> = (0..n).filter(|&v| light[v as usize]).collect();
    let (left, right) = light.split_at(light.len() / 2);
    for (i, &u) in left.iter().enumerate() {
        for j in 0..k as usize - 1 {
            b.add_edge(u, right[(i + j) % right.len()]);
        }
    }
    let g = b.build();
    assert!(g.vertices().all(|v| g.degree(v) == k - 1), "not {}-regular", k - 1);
    g
}

/// A graph whose work sits at the front of the id range: four disjoint
/// 80-cliques on ids 0..320, then 2680 triangle-free vertices of the same
/// degree. Degree ranking keeps its ids, so range partitioning loads the
/// first part with every clique and the last with next to nothing.
fn skewed() -> gpm_graph::Graph {
    regular(3000, 80, &[0, 80, 160, 240])
}

/// [`skewed`]'s triangles: four cliques of C(80, 3) = 82 160.
const SKEWED_TRIANGLES: u64 = 4 * 82_160;

/// Regression for the per-phase spawn storm: one engine run must spawn
/// exactly `parts × compute_threads` pooled compute threads, and a second
/// run must reuse them all instead of spawning fresh ones.
#[test]
fn pool_spawns_once_and_is_reused_across_runs() {
    let g = gen::erdos_renyi(300, 2400, 17);
    let pg = PartitionedGraph::new(&g, 4, 1);
    let engine = Engine::new(pg, EngineConfig { compute_threads: 4, ..EngineConfig::default() });
    assert!(
        engine.compute_thread_names().is_empty(),
        "the pool must be lazy: no compute threads before the first run"
    );

    let expect = oracle::count_subgraphs(&g, &Pattern::triangle(), false);
    assert_eq!(engine.count(&plan(&Pattern::triangle())).count, expect);
    let names = engine.compute_thread_names();
    assert_eq!(names.len(), 16, "parts × compute_threads = 4 × 4 workers");
    let mut distinct = names.clone();
    distinct.sort();
    distinct.dedup();
    assert_eq!(distinct.len(), 16, "every pooled thread has a unique name");
    for part in 0..4 {
        for w in 0..4 {
            assert!(
                names.contains(&format!("khuzdul-compute-{part}-{w}")),
                "missing worker {part}-{w} in {names:?}"
            );
        }
    }

    // A different plan on the same engine: same pool, not a new spawn.
    let expect4 = oracle::count_subgraphs(&g, &Pattern::clique(4), false);
    assert_eq!(engine.count(&plan(&Pattern::clique(4))).count, expect4);
    assert_eq!(engine.compute_thread_names(), names, "second run must reuse the pooled threads");
    engine.shutdown();
}

#[test]
fn single_threaded_config_never_spawns_a_pool() {
    let g = gen::erdos_renyi(120, 700, 3);
    let pg = PartitionedGraph::new(&g, 3, 1);
    let engine = Engine::new(pg, EngineConfig { compute_threads: 1, ..EngineConfig::default() });
    let expect = oracle::count_subgraphs(&g, &Pattern::triangle(), false);
    assert_eq!(engine.count(&plan(&Pattern::triangle())).count, expect);
    assert!(engine.compute_thread_names().is_empty(), "inline extension needs no pool");
    engine.shutdown();
}

/// The ISSUE's acceptance criterion: on a skewed graph, stealing must
/// lower the max/mean per-part busy-time ratio while leaving the count
/// bit-identical — under **both** control-plane carriers (the message
/// ledger must rebalance exactly like the shared-memory one).
#[test]
fn stealing_rebalances_a_skewed_graph_without_changing_the_count() {
    let g = skewed();
    let p = plan(&Pattern::triangle());
    let expect = SKEWED_TRIANGLES;
    for mode in [ControlMode::Shared, ControlMode::Msg] {
        let run_with = |enabled: bool| {
            let pg = PartitionedGraph::with_partitioner(&g, 4, 1, Partitioner::Range);
            let engine = Engine::new(
                pg,
                EngineConfig {
                    compute_threads: 2,
                    steal: StealConfig { enabled, batch: 64 },
                    control: ControlConfig { mode },
                    ..EngineConfig::default()
                },
            );
            let run = engine.count(&p);
            let report = engine.report(&run, "khuzdul");
            engine.shutdown();
            (run, report)
        };

        let (run_off, report_off) = run_with(false);
        let (run_on, report_on) = run_with(true);
        assert_eq!(run_on.count, run_off.count, "{mode:?}: stealing must not change the count");
        assert_eq!(run_on.count, expect);

        let stolen: u64 = run_on.per_part.iter().map(|p| p.roots_stolen).sum();
        assert!(stolen > 0, "{mode:?}: range-partitioned R-MAT must starve parts into stealing");
        assert_eq!(
            run_off.per_part.iter().map(|p| p.roots_stolen).sum::<u64>(),
            0,
            "{mode:?}: stealing off must never move roots"
        );

        let (off, on) = (report_off.busy_imbalance(), report_on.busy_imbalance());
        assert!(
            on < off,
            "{mode:?}: stealing must reduce busy-time imbalance on a skewed graph: \
             on={on:.3} off={off:.3}"
        );
    }
}

/// Steal-half, end to end. Under range partitioning every 4-clique of
/// [`skewed`] sits in one grant (part 0's first, unless part 1 steals that
/// range before part 0 claims it), which is then all of the run's work
/// and, on one compute thread, a single leftover range. The visitor holds
/// the part at its first match until every root outside its hands has
/// retired, so the other part has drained everything else and starves
/// while the holder is still inside the grant, and only a donation that
/// splits that range can feed it.
#[test]
fn a_single_threaded_part_shares_its_heavy_first_grant() {
    let g = skewed();
    let p = plan(&Pattern::clique(4));
    // Four cliques of C(80, 4) = 1 581 580.
    let expect = 4 * 1_581_580;
    for mode in [ControlMode::Shared, ControlMode::Msg] {
        let pg = PartitionedGraph::with_partitioner(&g, 2, 1, Partitioner::Range);
        let engine = Engine::new(
            pg,
            EngineConfig {
                compute_threads: 1,
                // Part 0 is back at its root chunk, where it looks for
                // starving peers, every 512 parked children.
                chunk_capacity: 512,
                steal: StealConfig { enabled: true, batch: 16 },
                control: ControlConfig { mode },
                ..EngineConfig::default()
            },
        );
        let held = AtomicBool::new(false);
        let run = engine.enumerate(&p, |_| {
            if held.swap(true, Ordering::Relaxed) {
                return;
            }
            let deadline = Instant::now() + Duration::from_secs(60);
            while Instant::now() < deadline {
                let Some(progress) = engine.active_progress().pop() else { break };
                let s = progress.snapshot();
                let in_hand = |p: &PartProgress| p.claimed - p.completed;
                let holders = s.per_part.iter().filter(|p| in_hand(p) > 0).count();
                let held: u64 = s.per_part.iter().map(in_hand).sum();
                if holders == 1 && s.completed + held >= s.roots_total {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        engine.shutdown();
        assert_eq!(run.count, expect, "{mode:?}");
        let donated: u64 = run.per_part.iter().map(|p| p.roots_donated).sum();
        assert!(donated > 0, "{mode:?}: part 0 kept its whole first grant to itself");
    }
}

/// Two triangle-dense hubs, one per simulated machine, among triangle-free
/// vertices of the same degree (so degree ranking keeps the ids): under
/// range partitioning into 2 machines × 2 sockets, parts 0 and 2 hold the
/// cliques while parts 1 and 3 drain their own roots early and have to
/// steal. Each starving thief therefore always has a same-machine hub
/// with work left — the configuration where victim ordering actually
/// decides whether stolen roots cross the network.
fn twin_hub() -> gpm_graph::Graph {
    regular(512, 64, &[0, 256])
}

/// NUMA-aware victim ordering, end to end: the machine-first ordering
/// the main pass always uses must leave results unchanged — exact counts,
/// steals actually occurring, and every steal span naming a real victim
/// other than the thief. The preference property itself (a thief picks
/// the most-loaded part of its own machine while one has work) is only
/// well-defined at claim time, where the ledger unit tests pin it
/// deterministically; asserting a cross-machine traffic *ratio* here
/// depends on which thief the OS happens to schedule and was a permanent
/// source of CI flakes.
#[test]
fn numa_victim_ordering_cuts_cross_machine_steal_traffic() {
    let g = twin_hub();
    let p = plan(&Pattern::triangle());
    let expect = oracle::count_subgraphs(&g, &Pattern::triangle(), false);
    let run_once = || {
        let pg = PartitionedGraph::with_partitioner(&g, 2, 2, Partitioner::Range);
        let engine = Engine::new(
            pg,
            EngineConfig {
                compute_threads: 2,
                // Small batches force many steal rounds, so victim
                // selection runs repeatedly.
                steal: StealConfig { enabled: true, batch: 4 },
                obs: ObsConfig::enabled(),
                ..EngineConfig::default()
            },
        );
        let run = engine.count(&p);
        // Every cursor steal leaves a span: part = thief, arg = victim.
        let mut total = 0u64;
        for s in engine.recorder().spans() {
            if s.kind == SpanKind::Steal {
                total += 1;
                assert!((s.arg as usize) < 4, "victim {} out of range", s.arg);
                assert_ne!(s.arg, s.part as u64, "a thief cannot steal from itself");
            }
        }
        engine.shutdown();
        assert_eq!(run.count, expect);
        total
    };
    // A few runs so a single lucky scheduling of the light parts cannot
    // leave the steal path unexercised.
    let steals = (0..6).map(|_| run_once()).sum::<u64>();
    assert!(steals > 0, "twin hubs must force steals");
}

/// Stealing is keyed off the run, not baked into part state: the same
/// engine must honour a config where it is disabled (`sequential_parts`
/// forces it off even when enabled).
#[test]
fn sequential_parts_disables_stealing() {
    let g = skewed();
    let pg = PartitionedGraph::with_partitioner(&g, 4, 1, Partitioner::Range);
    let engine = Engine::new(
        pg,
        EngineConfig {
            compute_threads: 2,
            sequential_parts: true,
            steal: StealConfig { enabled: true, batch: 64 },
            ..EngineConfig::default()
        },
    );
    let run = engine.count(&plan(&Pattern::triangle()));
    assert_eq!(run.count, SKEWED_TRIANGLES);
    assert_eq!(
        run.per_part.iter().map(|p| p.roots_stolen + p.roots_donated).sum::<u64>(),
        0,
        "an idle sequential part can never be refilled, so stealing must stay off"
    );
    engine.shutdown();
}
