//! Self-healing cluster integration: after a fail-stop crash the
//! background rebalancer must restore the configured replication
//! factor, so a *second* crash of a different part at `r = 2` still
//! yields bit-identical counts instead of a typed loss; dead-owner
//! fetches must spread across every live holder instead of hammering
//! one; and with `--rebalance off` the pre-healing envelope (exact or
//! typed `PartLost`, never a wrong count) must reproduce verbatim.

use khuzdul::{
    CacheConfig, CachePolicy, ControlConfig, ControlMode, Counter, CrashAt, Engine, EngineConfig,
    EngineError, FabricConfig, FaultPlan, ObsConfig, RebalanceConfig, RetryPolicy, StealConfig,
};
use khuzdul_repro::graph::partition::{PartitionedGraph, Partitioner};
use khuzdul_repro::graph::{gen, Graph};
use khuzdul_repro::pattern::plan::{MatchingPlan, PlanOptions};
use khuzdul_repro::pattern::{oracle, Pattern};
use proptest::prelude::*;
use std::time::Duration;

fn plan(p: &Pattern) -> MatchingPlan {
    MatchingPlan::compile(p, &PlanOptions::automine()).unwrap()
}

/// Engine config for crash tests: short retry fuse so abandoned
/// in-flight requests fail over quickly, small chunks so many wire
/// requests are in flight when a crash fires, and the cache disabled so
/// every query round regenerates the same fetch traffic (the crash
/// fuses burn at a steady, predictable rate).
fn crashy(mode: ControlMode, rebalance: bool, crashes: Vec<CrashAt>) -> EngineConfig {
    EngineConfig {
        chunk_capacity: 64,
        cache: CacheConfig { policy: CachePolicy::Disabled, ..CacheConfig::default() },
        obs: ObsConfig::enabled(),
        control: ControlConfig { mode },
        rebalance: RebalanceConfig { enabled: rebalance },
        fabric: FabricConfig {
            retry: RetryPolicy {
                max_attempts: 4,
                timeout: Duration::from_millis(50),
                backoff: Duration::from_millis(1),
            },
            fault: (!crashes.is_empty()).then(|| FaultPlan { crashes, ..FaultPlan::default() }),
            ..FabricConfig::default()
        },
        ..EngineConfig::default()
    }
}

/// Total fetch requests one query issues under `crashy` with no faults:
/// the yardstick for placing the second crash's fuse well past the
/// first query (so it burns through repaired ground, not the repair
/// window itself).
fn probe_requests(g: &Graph, p: &Pattern, replication: usize) -> u64 {
    let pg = PartitionedGraph::with_replication(g, 4, 1, replication);
    let engine = Engine::new(pg, crashy(ControlMode::Shared, true, vec![]));
    engine.try_count(&plan(p)).expect("fault-free probe");
    let total = (0..4).map(|q| engine.metrics().part(q).get(Counter::FetchRequests)).sum();
    engine.shutdown();
    total
}

/// The headline: parts 2 and 1 are *adjacent* on the replica ring at
/// `r = 2` (part 1 holds the only other copy of slice 2), so before
/// self-healing this double crash was unsurvivable. With the rebalancer
/// on, the first death is repaired back to two copies before the second
/// fuse burns down, and every query round — before, between, and after
/// the crashes — reports the exact count under both control carriers.
#[test]
fn double_crash_with_rebalance_stays_exact_under_both_carriers() {
    let g = gen::erdos_renyi(150, 700, 5);
    let p = Pattern::triangle();
    let expect = oracle::count_subgraphs(&g, &p, false);
    let total = probe_requests(&g, &p, 2);
    assert!(total > 0, "probe run must fetch");
    for mode in [ControlMode::Shared, ControlMode::Msg] {
        let crashes = vec![
            CrashAt { part: 2, after_requests: 4 },
            // Far enough out that it cannot fire during the first
            // query (even counting rerouted and recovery traffic),
            // close enough that repeated cache-cold queries reach it.
            CrashAt { part: 1, after_requests: 2 * total },
        ];
        let pg = PartitionedGraph::with_replication(&g, 4, 1, 2);
        let engine = Engine::new(pg, crashy(mode, true, crashes));
        let pl = plan(&p);
        let mut both_dead_at = None;
        for round in 0..24 {
            let run = engine
                .try_count(&pl)
                .unwrap_or_else(|e| panic!("mode={mode:?} round={round}: {e}"));
            assert_eq!(run.count, expect, "mode={mode:?} round={round}");
            let dead = engine.part_health().iter().filter(|h| !h.alive).count();
            if dead == 2 {
                both_dead_at = Some(round);
                break;
            }
        }
        let killed = both_dead_at
            .unwrap_or_else(|| panic!("mode={mode:?}: second crash never fired in 24 rounds"));
        // Steady state on the doubly-degraded cluster: still exact.
        let run = engine.try_count(&pl).expect("post-double-crash query");
        assert_eq!(run.count, expect, "mode={mode:?} after both deaths (round {killed})");
        // The repairs are observable: transfers streamed, copies
        // restored, nothing lost, and effective replication is back at
        // the configured factor even with two of four parts gone.
        let reb = engine.rebalance_section();
        assert!(reb.enabled, "mode={mode:?}");
        assert!(reb.transfers >= 2, "mode={mode:?}: {reb:?}");
        assert!(reb.slices_restored >= 2, "mode={mode:?}: {reb:?}");
        assert_eq!(reb.slices_lost, 0, "mode={mode:?}: {reb:?}");
        assert_eq!(reb.min_effective_replication, 2, "mode={mode:?}: {reb:?}");
        assert!(reb.routing_epoch > 0, "mode={mode:?}: repairs must republish routing");
        let report = engine.report(&run, "khuzdul");
        assert_eq!(report.rebalance, reb);
        gpm_obs::validate_report(&report.to_json()).expect("healed report must validate");
        engine.shutdown();
    }
}

/// The same adjacent double-crash schedule with `--rebalance off`
/// reproduces the static envelope: the first death is masked by the
/// configured replica (exact counts), and the round where the second
/// fuse burns fails with the *typed* loss — never a wrong count, never
/// a hang.
#[test]
fn double_crash_without_rebalance_is_a_typed_loss() {
    let g = gen::erdos_renyi(150, 700, 5);
    let p = Pattern::triangle();
    let expect = oracle::count_subgraphs(&g, &p, false);
    let total = probe_requests(&g, &p, 2);
    for mode in [ControlMode::Shared, ControlMode::Msg] {
        let crashes = vec![
            CrashAt { part: 2, after_requests: 4 },
            CrashAt { part: 1, after_requests: 2 * total },
        ];
        let pg = PartitionedGraph::with_replication(&g, 4, 1, 2);
        let engine = Engine::new(pg, crashy(mode, false, crashes));
        let pl = plan(&p);
        let mut lost = None;
        for round in 0..24 {
            match engine.try_count(&pl) {
                Ok(run) => assert_eq!(run.count, expect, "mode={mode:?} round={round}"),
                Err(EngineError::PartLost { part }) => {
                    lost = Some(part);
                    break;
                }
                Err(e) => panic!("mode={mode:?} round={round}: expected PartLost, got {e}"),
            }
        }
        let part = lost
            .unwrap_or_else(|| panic!("mode={mode:?}: static cluster never hit the typed loss"));
        assert!(part == 1 || part == 2, "mode={mode:?}: lost part {part} not in the schedule");
        let reb = engine.rebalance_section();
        assert!(!reb.enabled, "mode={mode:?}");
        assert_eq!(reb.transfers, 0, "mode={mode:?}: no rebalancer, no transfers");
        engine.shutdown();
    }
}

/// Spread failover: at `r = 3`, a dead part's slice has two surviving
/// holders (three once the rebalancer installs a fresh copy), and the
/// rerouted fetch stream must rotate across them — at least two
/// distinct holders serve rerouted bytes and none serves more than 70%
/// of them — while the count stays exact.
#[test]
fn rerouted_fetches_spread_across_live_holders() {
    let g = gen::erdos_renyi(150, 700, 5);
    let p = Pattern::triangle();
    let expect = oracle::count_subgraphs(&g, &p, false);
    let pg = PartitionedGraph::with_replication(&g, 4, 1, 3);
    let engine = Engine::new(
        pg,
        EngineConfig {
            // Very small chunks: many independent rerouted fetches, so
            // the round-robin spread is measured over a real sample.
            chunk_capacity: 16,
            cache: CacheConfig { policy: CachePolicy::Disabled, ..CacheConfig::default() },
            ..crashy(ControlMode::Shared, true, vec![CrashAt { part: 2, after_requests: 0 }])
        },
    );
    let run = engine.try_count(&plan(&p)).expect("two replicas must mask the crash");
    assert_eq!(run.count, expect);
    assert!(run.failures.rerouted_requests > 0, "the crash must actually reroute traffic");
    let health = engine.part_health();
    assert_eq!(health[2].rerouted_served_bytes, 0, "a dead part serves nothing");
    let served: Vec<(usize, u64)> = health
        .iter()
        .filter(|h| h.rerouted_served_bytes > 0)
        .map(|h| (h.part, h.rerouted_served_bytes))
        .collect();
    let total: u64 = served.iter().map(|(_, b)| b).sum();
    assert!(served.len() >= 2, "rerouted traffic must spread across holders, got {served:?}");
    let (hot, max) = served.iter().copied().max_by_key(|&(_, b)| b).unwrap();
    assert!(
        (max as f64) <= 0.70 * (total as f64),
        "holder {hot} served {max} of {total} rerouted bytes (> 70%): {served:?}"
    );
    engine.shutdown();
}

/// Picks a second crash part that shares no slice holders with the
/// first at the given replication, so the schedule's survivability
/// never depends on racing the repair thread: at `r = 2` on four parts
/// only the diagonal qualifies; at `r = 3` two deaths always leave a
/// holder.
fn second_part(first: usize, offset: usize, replication: usize) -> usize {
    if replication == 2 {
        (first + 2) % 4
    } else {
        (first + offset) % 4
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random crash schedules (one or two crashes of distinct parts,
    /// staggered fuses) x replication {2, 3} x control {shared, msg} x
    /// rebalance {on, off}, on the skewed R-MAT fixture under range
    /// partitioning. With the rebalancer on, every schedule recovers
    /// the exact count; with it off, a schedule either stays exact or
    /// fails with the typed loss naming a crashed part — never a wrong
    /// count, never a hang.
    #[test]
    fn random_crash_schedules_heal_or_fail_typed(
        seed in 0u64..100,
        replication in 2usize..=3,
        first_part in 0usize..4,
        first_after in 0u64..8,
        two_crashes in any::<bool>(),
        offset in 1usize..4,
        stagger in 0u64..32,
        steal in any::<bool>(),
        p in prop_oneof![
            Just(Pattern::triangle()),
            Just(Pattern::path(4)),
            Just(Pattern::cycle(4)),
        ],
    ) {
        let g = gen::rmat(6, 8, (0.57, 0.19, 0.19), seed);
        let pl = plan(&p);
        let pg = PartitionedGraph::with_partitioner(&g, 4, 1, Partitioner::Range);
        let clean = Engine::new(pg, EngineConfig::default());
        let expect = clean.count(&pl).count;
        clean.shutdown();

        let mut crashes = vec![CrashAt { part: first_part, after_requests: first_after }];
        if two_crashes {
            crashes.push(CrashAt {
                part: second_part(first_part, offset, replication),
                after_requests: first_after + stagger,
            });
        }
        let two = crashes.len() == 2;
        for mode in [ControlMode::Shared, ControlMode::Msg] {
            for heal in [true, false] {
                let mut pg = PartitionedGraph::with_partitioner(&g, 4, 1, Partitioner::Range);
                pg.set_replication(replication);
                let engine = Engine::new(pg, EngineConfig {
                    chunk_capacity: 32,
                    steal: StealConfig { enabled: steal, batch: 4 },
                    ..crashy(mode, heal, crashes.clone())
                });
                let res = engine.try_count(&pl);
                engine.shutdown();
                match res {
                    Ok(run) => prop_assert!(
                        run.count == expect,
                        "mode {:?} heal {} r {}: {} != {}",
                        mode, heal, replication, run.count, expect
                    ),
                    Err(EngineError::PartLost { part }) => {
                        // Only a static r=2 cluster losing both copies
                        // of a slice may fail — and then only typed,
                        // naming a part from the schedule.
                        prop_assert!(
                            !heal && replication == 2 && two,
                            "mode {:?} heal {} r {} two {}: unexpected PartLost {}",
                            mode, heal, replication, two, part
                        );
                        prop_assert!(
                            crashes.iter().any(|c| c.part == part),
                            "lost part {} not in schedule {:?}", part, crashes
                        );
                    }
                    Err(e) => prop_assert!(
                        false,
                        "mode {:?} heal {}: unexpected error {}", mode, heal, e
                    ),
                }
            }
        }
    }
}
