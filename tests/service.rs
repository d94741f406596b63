//! Multi-tenant service integration: overlapping queries on one shared
//! engine must behave exactly like solo runs — bit-identical counts
//! under interleaving, work stealing, memoization, and an injected
//! fail-stop crash — and the service's aggregate report must validate
//! as schema v6 with one section per query.

use khuzdul::{
    ControlConfig, ControlMode, Counter, Engine, EngineConfig, FabricConfig, FaultPlan,
    MiningService, ObsConfig, QueryCtx, RetryPolicy, ServiceConfig, StealConfig,
};
use khuzdul_repro::graph::partition::PartitionedGraph;
use khuzdul_repro::graph::{gen, Graph};
use khuzdul_repro::pattern::plan::{MatchingPlan, PlanOptions};
use khuzdul_repro::pattern::{oracle, Pattern};
use std::sync::Arc;
use std::time::Duration;

/// The mixed workload every test replays: four distinct patterns plus a
/// duplicate triangle (isomorphic resubmission) that must memoize.
fn workload() -> Vec<Pattern> {
    vec![
        Pattern::triangle(),
        Pattern::clique(4),
        Pattern::path(4),
        Pattern::cycle(4),
        Pattern::triangle(),
    ]
}

fn solo_counts(g: &Graph, patterns: &[Pattern]) -> Vec<u64> {
    patterns.iter().map(|p| oracle::count_subgraphs(g, p, false)).collect()
}

/// Overlapping queries submitted from separate threads, with stealing
/// both off and on and under **both** control-plane carriers: each
/// count is bit-identical to its solo run, and the duplicate is served
/// from the memo. This is the ISSUE's service-level acceptance: four
/// concurrent queries must stay exact when every claim, donation, and
/// quiescence vote rides the message fabric instead of shared atomics.
#[test]
fn overlapping_queries_match_solo_counts_under_steal_on_and_off() {
    let g = gen::barabasi_albert(300, 5, 17);
    let patterns = workload();
    let expect = solo_counts(&g, &patterns);
    for mode in [ControlMode::Shared, ControlMode::Msg] {
        for steal in [false, true] {
            let engine = Arc::new(Engine::new(
                PartitionedGraph::new(&g, 4, 1),
                EngineConfig {
                    steal: StealConfig { enabled: steal, batch: 8 },
                    control: ControlConfig { mode },
                    ..EngineConfig::default()
                },
            ));
            let svc = MiningService::start(
                Arc::clone(&engine),
                ServiceConfig { max_concurrent: 4, root_budget: 64, ..ServiceConfig::default() },
            );
            // Submit serially (admission order is part of the contract),
            // then wait from separate threads so all queries overlap.
            let handles: Vec<_> =
                patterns.iter().map(|p| svc.submit(p, &PlanOptions::automine()).unwrap()).collect();
            let counts: Vec<u64> = std::thread::scope(|s| {
                let joins: Vec<_> = handles
                    .iter()
                    .map(|h| s.spawn(move || h.wait().expect("query must succeed").count))
                    .collect();
                joins.into_iter().map(|j| j.join().unwrap()).collect()
            });
            assert_eq!(counts, expect, "mode={mode:?} steal={steal}");
            assert!(
                handles[4].memoized(),
                "mode={mode:?} steal={steal}: duplicate triangle must be served from the memo"
            );
            assert!(handles[..4].iter().all(|h| !h.memoized()), "mode={mode:?} steal={steal}");
            // The carriers are observable: only the message ledger sends
            // control messages, and its report says so — per query and
            // in the aggregate — while the shared ledger stays silent.
            let report = svc.report("khuzdul-service");
            let sent = engine.metrics().totals()[Counter::CtrlSent];
            match mode {
                ControlMode::Shared => assert_eq!(sent, 0, "shared ledger must send no messages"),
                ControlMode::Msg => {
                    assert!(sent > 0, "message ledger must coordinate via messages");
                    assert_eq!(
                        report.control.sent,
                        report.queries.iter().map(|q| q.control.sent).sum::<u64>(),
                        "aggregate control counters must reconcile with the per-query sections"
                    );
                    assert!(report.control.sent > 0);
                }
            }
            gpm_obs::validate_report(&report.to_json()).expect("service report must validate");
        }
    }
}

/// Queries raced from separate *submitting* threads still all complete
/// exactly; admission order is whatever the race produced, but every
/// count matches its solo run.
#[test]
fn racing_submitters_still_get_exact_counts() {
    let g = gen::erdos_renyi(250, 1500, 9);
    let patterns = workload();
    let expect = solo_counts(&g, &patterns);
    let engine = Arc::new(Engine::new(PartitionedGraph::new(&g, 3, 1), EngineConfig::default()));
    let svc = MiningService::start(
        engine,
        ServiceConfig { max_concurrent: 3, ..ServiceConfig::default() },
    );
    let counts: Vec<u64> = std::thread::scope(|s| {
        let joins: Vec<_> = patterns
            .iter()
            .map(|p| {
                let svc = &svc;
                s.spawn(move || {
                    svc.submit(p, &PlanOptions::automine()).unwrap().wait().unwrap().count
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });
    assert_eq!(counts, expect);
}

/// A fail-stop crash of a replicated part mid-workload: every
/// overlapping query fails over and still reports its exact solo count,
/// and at least one query's stats carry the failure accounting.
#[test]
fn concurrent_queries_survive_a_crash_with_exact_counts() {
    let g = gen::erdos_renyi(150, 700, 5);
    let patterns = workload();
    let expect = solo_counts(&g, &patterns);
    let engine = Arc::new(Engine::new(
        PartitionedGraph::with_replication(&g, 4, 1, 2),
        EngineConfig {
            // Small chunks split the fetch workload into many wire
            // requests so the crash lands mid-run.
            chunk_capacity: 64,
            obs: ObsConfig::enabled(),
            fabric: FabricConfig {
                retry: RetryPolicy {
                    max_attempts: 4,
                    timeout: Duration::from_millis(50),
                    backoff: Duration::from_millis(1),
                },
                fault: Some(FaultPlan::crash_at(2, 4)),
                ..FabricConfig::default()
            },
            ..EngineConfig::default()
        },
    ));
    let svc = MiningService::start(
        Arc::clone(&engine),
        ServiceConfig { max_concurrent: 4, root_budget: 64, ..ServiceConfig::default() },
    );
    let handles: Vec<_> =
        patterns.iter().map(|p| svc.submit(p, &PlanOptions::automine()).unwrap()).collect();
    let stats: Vec<_> = std::thread::scope(|s| {
        let joins: Vec<_> = handles
            .iter()
            .map(|h| s.spawn(move || h.wait().expect("a replica must mask the crash")))
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });
    let counts: Vec<u64> = stats.iter().map(|r| r.count).collect();
    assert_eq!(counts, expect, "crash must not perturb any query's count");
    // Whichever query was in flight at the crash re-routed traffic;
    // every query admitted after it observes the dead part too.
    assert!(
        stats.iter().any(|r| r.failures.parts_failed > 0),
        "no query observed the injected crash"
    );
    assert!(
        stats.iter().any(|r| r.failures.rerouted_requests > 0),
        "no query re-routed fetches to the replica holder"
    );
    // The service-level report counts the dead part once and validates.
    let report = svc.report("khuzdul-service");
    assert_eq!(report.failures.parts_failed, 1);
    assert_eq!(report.queries.len(), patterns.len());
    gpm_obs::validate_report(&report.to_json())
        .expect("crash-workload service report must validate");
}

/// The aggregate report: one section per query in admission order, the
/// memoized query carrying the original's count with zero traffic, and
/// per-query critical paths only for enumerated queries, each read off
/// that query's own part timers, summing to the top-level section.
#[test]
fn service_report_attributes_per_query() {
    let g = gen::barabasi_albert(250, 5, 3);
    let patterns = workload();
    let expect = solo_counts(&g, &patterns);
    let engine = Arc::new(Engine::new(
        PartitionedGraph::new(&g, 3, 1),
        EngineConfig { obs: ObsConfig::enabled(), ..EngineConfig::default() },
    ));
    let svc = MiningService::start(engine, ServiceConfig::default());
    for p in &patterns {
        svc.submit(p, &PlanOptions::automine()).unwrap();
    }
    let outcomes = svc.drain();
    assert_eq!(outcomes.len(), patterns.len());
    let report = svc.report("khuzdul-service");
    assert_eq!(report.queries.len(), patterns.len());
    for (i, q) in report.queries.iter().enumerate() {
        assert_eq!(q.count, expect[i], "query {i} ({})", q.pattern);
    }
    // Query ids are unique and ascending in admission order.
    let ids: Vec<u64> = report.queries.iter().map(|q| q.query_id).collect();
    assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids not ascending: {ids:?}");
    let memo = &report.queries[4];
    assert!(memo.memoized);
    assert_eq!(memo.traffic.fetch_requests, 0, "memo hit must do no fetches");
    assert_eq!(memo.count, report.queries[0].count);
    // Each enumerated query's critical path is its own run's account, and
    // the top-level section sums them part by part.
    let mut summed = vec![gpm_obs::PartCriticalPath::default(); 3];
    for (o, q) in outcomes.iter().zip(&report.queries) {
        let stats = o.result.as_ref().expect("fault-free query");
        if o.memoized {
            assert_eq!(q.critical_path, gpm_obs::CriticalPathSection::default());
            continue;
        }
        assert_eq!(q.critical_path, stats.critical_path(), "query {}", q.pattern);
        let f = &q.critical_path.fractions;
        let sum = f.compute + f.fetch_wait + f.responder_queue + f.retry_backoff;
        assert!((sum - 1.0).abs() < 1e-9, "query {}: {f:?}", q.pattern);
        for (row, part) in q.critical_path.per_part.iter().zip(&stats.per_part) {
            let waited = row.fetch_wait_ns + row.responder_queue_ns + row.retry_backoff_ns;
            assert_eq!(row.compute_ns, part.compute.as_nanos() as u64);
            assert_eq!(waited, part.network.as_nanos() as u64);
            let total = &mut summed[row.part as usize];
            total.part = row.part;
            total.compute_ns += row.compute_ns;
            total.fetch_wait_ns += row.fetch_wait_ns;
            total.responder_queue_ns += row.responder_queue_ns;
            total.retry_backoff_ns += row.retry_backoff_ns;
        }
    }
    assert_eq!(report.critical_path.per_part, summed);
    gpm_obs::validate_report(&report.to_json()).expect("must validate");
}

/// Direct engine-level interleaving (no service): two queries driven
/// from two threads with distinct `QueryCtx`s share the pool and both
/// report exact per-query traffic — fetches attributed to the query
/// that issued them, not pooled.
#[test]
fn query_scoped_traffic_attribution_is_disjoint() {
    let g = gen::barabasi_albert(300, 5, 23);
    let tri = Pattern::triangle();
    let sq = Pattern::cycle(4);
    let engine = Arc::new(Engine::new(PartitionedGraph::new(&g, 3, 1), EngineConfig::default()));
    let plan_tri = MatchingPlan::compile(&tri, &PlanOptions::automine()).unwrap();
    let plan_sq = MatchingPlan::compile(&sq, &PlanOptions::automine()).unwrap();
    // Solo baselines on a fresh engine each (cold cache), sequential.
    let solo_tri = {
        let e = Engine::new(PartitionedGraph::new(&g, 3, 1), EngineConfig::default());
        e.try_count(&plan_tri).unwrap()
    };
    let solo_sq = {
        let e = Engine::new(PartitionedGraph::new(&g, 3, 1), EngineConfig::default());
        e.try_count(&plan_sq).unwrap()
    };
    let (a, b) = std::thread::scope(|s| {
        let e1 = Arc::clone(&engine);
        let e2 = Arc::clone(&engine);
        let q1 = QueryCtx { root_budget: 32, ..e1.default_query() };
        let q2 = QueryCtx { root_budget: 32, ..e2.default_query() };
        let p1 = &plan_tri;
        let p2 = &plan_sq;
        let t1 = s.spawn(move || e1.try_count_query(p1, &q1).unwrap());
        let t2 = s.spawn(move || e2.try_count_query(p2, &q2).unwrap());
        (t1.join().unwrap(), t2.join().unwrap())
    });
    assert_eq!(a.count, solo_tri.count);
    assert_eq!(b.count, solo_sq.count);
    // Per-query request counts are individually plausible (nonzero, not
    // the pooled sum): each query's requests stay at or below what it
    // needed solo on a cold shared cache — never both zero and never
    // the other query's traffic folded in.
    assert!(a.traffic.requests > 0 || b.traffic.requests > 0);
    assert!(
        a.traffic.requests <= solo_tri.traffic.requests,
        "triangle attributed {} requests, solo needed only {}",
        a.traffic.requests,
        solo_tri.traffic.requests
    );
    assert!(
        b.traffic.requests <= solo_sq.traffic.requests,
        "4-cycle attributed {} requests, solo needed only {}",
        b.traffic.requests,
        solo_sq.traffic.requests
    );
}

/// The two views of the one counter table agree. Two queries overlap on
/// a resident service — message carrier, stealing on, so fetch and
/// control counters both move — after a warm-up query the window must
/// not count: counter by counter, the two queries' shares add up to
/// what the part rows grew by over the same window.
#[test]
fn concurrent_queries_sum_to_the_part_rows_counter_by_counter() {
    let g = gen::barabasi_albert(300, 5, 29);
    let engine = Arc::new(Engine::new(
        PartitionedGraph::new(&g, 3, 1),
        EngineConfig {
            steal: StealConfig { enabled: true, batch: 8 },
            control: ControlConfig { mode: ControlMode::Msg },
            ..EngineConfig::default()
        },
    ));
    let svc = MiningService::start(
        Arc::clone(&engine),
        ServiceConfig { max_concurrent: 2, root_budget: 32, ..ServiceConfig::default() },
    );
    let opts = PlanOptions::automine();
    svc.submit(&Pattern::path(3), &opts).unwrap().wait().unwrap();
    let before = engine.metrics().totals();
    let handles = [
        svc.submit(&Pattern::triangle(), &opts).unwrap(),
        svc.submit(&Pattern::cycle(4), &opts).unwrap(),
    ];
    let [a, b] = handles.map(|h| h.wait().expect("query must succeed"));
    let after = engine.metrics().totals();
    let mut compared = 0;
    for &c in Counter::ALL {
        if let (Some(qa), Some(qb)) = (a.counter(c), b.counter(c)) {
            assert_eq!(qa + qb, after[c] - before[c], "{}", c.name());
            compared += 1;
        }
    }
    assert_eq!(compared, 12, "every row a query's stats carry");
    assert!(a.traffic.requests + b.traffic.requests > 0);
    assert!(a.control.sent > 0 && b.control.sent > 0);
}
