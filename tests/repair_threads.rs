//! Re-replication runs inside the failover that detects a death: no
//! repair thread polls for deaths, and no watchdog watches a transfer.
//! This reads the process's thread names (`/proc/self/task/*/comm`,
//! Linux only) around an engine that heals a double crash.

use khuzdul::{
    CacheConfig, CachePolicy, Counter, CrashAt, Engine, EngineConfig, FabricConfig, FaultPlan,
    RetryPolicy,
};
use khuzdul_repro::graph::gen;
use khuzdul_repro::graph::partition::PartitionedGraph;
use khuzdul_repro::pattern::plan::{MatchingPlan, PlanOptions};
use khuzdul_repro::pattern::{oracle, Pattern};
use std::time::{Duration, Instant};

/// Names of this process's threads, as the kernel truncates them (15
/// bytes).
fn thread_names() -> Vec<String> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs lists this process's threads");
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .collect()
}

/// Threads that would repair or watch a repair in the background: the
/// truncated names `khuzdul-rebalance`, `khuzdul-rebalance-watchdog` and
/// `khuzdul-stall-watchdog` would run under.
fn repair_threads() -> Vec<String> {
    let background = |n: &String| {
        n.starts_with("khuzdul-rebalan") || n.starts_with("khuzdul-stall") || n.contains("watchdog")
    };
    thread_names().into_iter().filter(background).collect()
}

fn config(crashes: Vec<CrashAt>) -> EngineConfig {
    EngineConfig {
        chunk_capacity: 64,
        cache: CacheConfig { policy: CachePolicy::Disabled, ..CacheConfig::default() },
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

#[cfg(target_os = "linux")]
#[test]
fn a_healed_double_crash_runs_no_repair_thread() {
    let g = gen::erdos_renyi(150, 700, 5);
    let p = Pattern::triangle();
    let plan = MatchingPlan::compile(&p, &PlanOptions::automine()).unwrap();
    let expect = oracle::count_subgraphs(&g, &p, false);
    // One fault-free query's fetches: the second fuse burns well past it.
    let probe = Engine::new(PartitionedGraph::with_replication(&g, 4, 1, 2), config(vec![]));
    probe.count(&plan);
    let total: u64 = (0..4).map(|q| probe.metrics().part(q).get(Counter::FetchRequests)).sum();
    probe.shutdown();
    // Parts 2 and 1 are adjacent on the replica ring at r = 2: only a
    // repair of the first death keeps the second survivable.
    let crashes = vec![
        CrashAt { part: 2, after_requests: 4 },
        CrashAt { part: 1, after_requests: 2 * total },
    ];
    let engine = Engine::new(PartitionedGraph::with_replication(&g, 4, 1, 2), config(crashes));
    // A new thread names itself once it first runs: wait for the
    // responders' names, which also shows the names read are this
    // process's.
    let responders = || thread_names().iter().filter(|n| n.starts_with("edgelist-")).count();
    let deadline = Instant::now() + Duration::from_secs(10);
    while responders() < 4 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(responders() >= 4, "responder threads not found: {:?}", thread_names());
    assert_eq!(repair_threads(), Vec::<String>::new(), "before the crashes");
    let mut dead = 0;
    for round in 0..24 {
        let run = engine.try_count(&plan).unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert_eq!(run.count, expect, "round {round}");
        dead = engine.part_health().iter().filter(|h| !h.alive).count();
        if dead == 2 {
            break;
        }
    }
    assert_eq!(dead, 2, "the second crash never fired");
    let reb = engine.rebalance_section();
    assert!(reb.transfers >= 2 && reb.min_effective_replication == 2, "{reb:?}");
    assert_eq!(repair_threads(), Vec::<String>::new(), "after the healed double crash");
    engine.shutdown();
}
