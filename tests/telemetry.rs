//! Live telemetry plane integration: a real workload scraped over HTTP
//! while it runs. Per-query completion fractions must be monotone and
//! land at 1.0, and the final `/metrics` exposition must parse and
//! reconcile **exactly** — sample for sample — with the schema-v4
//! `RunReport` the service writes.

use gpm_obs::{sample_value, validate_exposition};
use khuzdul::{
    read_status, ControlConfig, ControlMode, Engine, EngineConfig, FabricConfig, FaultPlan,
    MemoStats, MiningService, RetryPolicy, ServiceConfig, StatusServer,
};
use khuzdul_repro::graph::gen;
use khuzdul_repro::graph::partition::PartitionedGraph;
use khuzdul_repro::pattern::plan::PlanOptions;
use khuzdul_repro::pattern::{oracle, Pattern};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect status server");
    // A status plane that waits on the engine fails the read, not the suite.
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(s, "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).expect("read response");
    out.split_once("\r\n\r\n").expect("header/body split").1.to_string()
}

/// Scrapes `/status` while a mixed workload runs, asserting every
/// in-flight query's completion fraction is monotone non-decreasing and
/// within [0, 1]; then reconciles the final `/metrics` scrape against
/// the service's own `RunReport`, exactly.
#[test]
fn scraped_progress_is_monotone_and_metrics_reconcile_with_the_report() {
    let g = gen::barabasi_albert(500, 6, 23);
    let patterns = vec![
        Pattern::triangle(),
        Pattern::clique(4),
        Pattern::path(4),
        Pattern::cycle(4),
        Pattern::triangle(), // memoized duplicate
    ];
    let engine = Arc::new(Engine::new(PartitionedGraph::new(&g, 3, 1), EngineConfig::default()));
    let svc = Arc::new(MiningService::start(
        Arc::clone(&engine),
        ServiceConfig {
            max_concurrent: 2,
            slow_query: Some(Duration::ZERO),
            ..ServiceConfig::default()
        },
    ));
    let server = StatusServer::start(Arc::clone(&svc), "127.0.0.1:0").expect("bind status server");
    let addr = server.local_addr();

    let handles: Vec<_> =
        patterns.iter().map(|p| svc.submit(p, &PlanOptions::automine()).unwrap()).collect();
    // Scrape concurrently with the workload until every handle resolves.
    let done = AtomicBool::new(false);
    let fractions: HashMap<u64, Vec<f64>> = std::thread::scope(|s| {
        let scraper = s.spawn(|| {
            let mut seen: HashMap<u64, Vec<f64>> = HashMap::new();
            while !done.load(Ordering::SeqCst) {
                let doc = read_status(&http_get(addr, "/status")).expect("/status reads");
                for q in doc.active_queries {
                    let f = q.fraction;
                    assert!((0.0..=1.0).contains(&f), "fraction out of range: {f}");
                    assert!(
                        q.completed <= q.claimed + q.recovered,
                        "completions cannot outrun claims"
                    );
                    seen.entry(q.query_id).or_default().push(f);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            seen
        });
        for h in &handles {
            h.wait().expect("workload query succeeds");
        }
        done.store(true, Ordering::SeqCst);
        scraper.join().expect("scraper thread")
    });
    for (qid, fs) in &fractions {
        assert!(
            fs.windows(2).all(|w| w[0] <= w[1]),
            "query {qid}: fraction regressed mid-run: {fs:?}"
        );
    }

    let outcomes = svc.drain();
    let report = svc.report("khuzdul-service");
    gpm_obs::validate_report(&report.to_json()).expect("schema v6 report");
    // Progress landed at 1.0: every enumerated (non-memoized) query
    // retired at least its whole root multiset. The root total equals
    // the graph's vertex count (1-D hash partition of all vertices).
    for q in &report.queries {
        if !q.memoized {
            assert_eq!(q.roots_total, g.vertex_count() as u64, "q{}", q.query_id);
            assert!(
                q.roots_completed >= q.roots_total,
                "q{} did not land at 1.0: {}/{}",
                q.query_id,
                q.roots_completed,
                q.roots_total
            );
        }
    }
    // Counts are still exact under scraping.
    for (o, p) in outcomes.iter().zip(&patterns) {
        let got = o.result.as_ref().expect("success").count;
        assert_eq!(got, oracle::count_subgraphs(&g, p, false), "{p}");
    }

    // Final scrape: well-formed exposition, and exact reconciliation
    // with the aggregate and per-query report sections.
    let metrics = http_get(addr, "/metrics");
    validate_exposition(&metrics).expect("well-formed Prometheus exposition");
    let sample =
        |name: &str| sample_value(&metrics, name, None).unwrap_or_else(|| panic!("{name}"));
    assert_eq!(sample("gpm_embeddings_total"), report.count as f64);
    assert_eq!(sample("gpm_fetch_requests_total"), report.traffic.fetch_requests as f64);
    assert_eq!(sample("gpm_network_bytes_total"), report.traffic.network_bytes as f64);
    assert_eq!(sample("gpm_numa_bytes_total"), report.traffic.numa_bytes as f64);
    assert_eq!(sample("gpm_cache_hits_total"), report.traffic.cache_hits as f64);
    assert_eq!(sample("gpm_cache_misses_total"), report.traffic.cache_misses as f64);
    assert_eq!(sample("gpm_coalesced_requests_total"), report.traffic.coalesced_requests as f64);
    assert_eq!(sample("gpm_retries_total"), report.traffic.retries as f64);
    assert_eq!(sample("gpm_reexecuted_roots_total"), report.failures.reexecuted_roots as f64);
    assert_eq!(sample("gpm_parts_failed_total"), report.failures.parts_failed as f64);
    assert_eq!(sample("gpm_queries_completed_total"), report.queries.len() as f64);
    for q in &report.queries {
        let label = format!("query_id=\"{}\"", q.query_id);
        assert_eq!(
            sample_value(&metrics, "gpm_query_embeddings_total", Some(&label)),
            Some(q.count as f64),
            "per-query count must reconcile for q{}",
            q.query_id
        );
    }
    // Memo counters agree between the scrape and the report sections.
    let MemoStats { entries, hits, evictions } = svc.memo_stats();
    assert_eq!(sample("gpm_memo_entries"), entries as f64);
    assert_eq!(sample("gpm_memo_hits_total"), hits as f64);
    assert_eq!(sample("gpm_memo_evictions_total"), evictions as f64);
    assert_eq!(hits, 1, "the duplicate triangle hit the memo");
    let last = report.queries.last().expect("five queries");
    assert!(last.memoized);
    let enumerated = &report.queries[0];
    assert_eq!(enumerated.memo_evictions, 0, "capacity 256 never evicts here");
    assert!(enumerated.memo_entries >= 1);

    // The slow-query log caught everything (threshold zero) and the
    // status document agrees with the outcome count.
    let doc = read_status(&http_get(addr, "/status")).expect("/status reads");
    assert_eq!(doc.completed, outcomes.len() as u64);
    assert!(!doc.slow_queries.is_empty(), "zero threshold logs every completion as slow");
    // The ring records executed queries; memoized duplicates spent no
    // engine time and never pass through an executor.
    let executed = outcomes.iter().filter(|o| !o.memoized).count();
    assert_eq!(doc.recent_completions.len(), executed);
    assert_eq!(doc.memo, svc.memo_stats());
}

/// The memo LRU: a capacity-capped service evicts the least-recently
/// used entry, counts the evictions, and still answers every query
/// exactly.
#[test]
fn memo_lru_evicts_at_capacity_and_counts_it() {
    let g = gen::barabasi_albert(200, 4, 9);
    let engine = Arc::new(Engine::new(PartitionedGraph::new(&g, 2, 1), EngineConfig::default()));
    let svc = Arc::new(MiningService::start(
        Arc::clone(&engine),
        ServiceConfig { max_concurrent: 2, memo_capacity: 2, ..ServiceConfig::default() },
    ));
    let opts = PlanOptions::automine();
    let patterns = [Pattern::triangle(), Pattern::path(3), Pattern::cycle(4), Pattern::triangle()];
    for p in &patterns {
        svc.submit(p, &opts).unwrap().wait().unwrap();
    }
    let MemoStats { entries, hits, evictions } = svc.memo_stats();
    assert_eq!(entries, 2, "capacity bounds the memo");
    assert!(evictions >= 1, "inserting past capacity evicted");
    // The triangle was evicted by cycle:4 (LRU), so its resubmission
    // re-enumerated rather than hitting the memo.
    assert_eq!(hits, 0, "LRU evicted the triangle before its duplicate arrived");
    let outcomes = svc.drain();
    for (o, p) in outcomes.iter().zip(&patterns) {
        assert_eq!(o.result.as_ref().unwrap().count, oracle::count_subgraphs(&g, p, false), "{p}");
    }
    // Eviction counters surface in the per-query report sections.
    let report = svc.report("khuzdul-service");
    let last = report.queries.last().unwrap();
    assert!(last.memo_evictions >= 1);
    assert!(last.memo_entries <= 2);
}

/// `/status` answers while a query is wedged: every control reply over
/// the message carrier is dropped, so the query claims nothing for
/// 16 attempts of 100 ms, and a scrape in that time reads and lists it
/// as active.
#[test]
fn status_answers_while_a_msg_control_query_is_wedged() {
    const WEDGE: Duration = Duration::from_millis(1_600);
    let g = gen::erdos_renyi(100, 500, 3);
    let engine = Arc::new(Engine::new(
        PartitionedGraph::new(&g, 2, 1),
        EngineConfig {
            control: ControlConfig { mode: ControlMode::Msg },
            fabric: FabricConfig {
                retry: RetryPolicy {
                    max_attempts: 16,
                    timeout: Duration::from_millis(100),
                    backoff: Duration::ZERO,
                },
                fault: Some(FaultPlan::drops(1.0)),
                ..FabricConfig::default()
            },
            ..EngineConfig::default()
        },
    ));
    let svc = Arc::new(MiningService::start(Arc::clone(&engine), ServiceConfig::default()));
    let server = StatusServer::start(Arc::clone(&svc), "127.0.0.1:0").expect("bind status server");
    let submitted = Instant::now();
    let h = svc.submit(&Pattern::triangle(), &PlanOptions::automine()).unwrap();
    // The query is listed once the executor admits it; a listed query
    // has not failed yet, since a finished one leaves the live map.
    let listed = loop {
        let doc = read_status(&http_get(server.local_addr(), "/status")).expect("/status reads");
        if doc.active_queries.iter().any(|q| q.query_id == h.query_id()) {
            break submitted.elapsed();
        }
        assert!(submitted.elapsed() < WEDGE / 2, "the wedged query was never listed as active");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(h.wait().is_err(), "an all-drops control plane fails the query");
    assert!(
        submitted.elapsed() >= WEDGE && listed < WEDGE / 2,
        "listed after {listed:?}, failed after {:?}",
        submitted.elapsed()
    );
    drop(server);
    svc.drain();
}
