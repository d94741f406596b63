//! End-to-end observability acceptance (the ISSUE's acceptance run): a
//! seeded 4-part triangle count with tracing enabled must produce
//!
//! * a Chrome trace that validates and puts chunk work, bucket rounds,
//!   and fetches on distinct tracks, and
//! * a `RunReport` whose traffic totals match the legacy
//!   `TrafficSummary` counter-for-counter.

use gpm_graph::{gen, partition::PartitionedGraph};
use gpm_obs::{parse_json, validate_report, validate_trace, RunReport};
use gpm_pattern::plan::{MatchingPlan, PlanOptions};
use gpm_pattern::Pattern;
use khuzdul::{Engine, EngineConfig, ObsConfig, RunStats};
use serde::Value;
use std::collections::{HashMap, HashSet};

/// One seeded observed triangle count over 4 machines.
fn observed_triangle_run() -> (RunStats, RunReport, String) {
    let g = gen::erdos_renyi(300, 1_500, 7);
    let engine = Engine::new(
        PartitionedGraph::new(&g, 4, 1),
        EngineConfig { obs: ObsConfig::enabled(), ..EngineConfig::default() },
    );
    let plan = MatchingPlan::compile(&Pattern::triangle(), &PlanOptions::automine()).unwrap();
    let run = engine.count(&plan);
    let report = engine.report(&run, "khuzdul-automine");
    let trace = engine.chrome_trace();
    engine.shutdown();
    (run, report, trace)
}

#[test]
fn chrome_trace_validates_with_distinct_tracks() {
    let (run, _, trace) = observed_triangle_run();
    let g = gen::erdos_renyi(300, 1_500, 7);
    assert_eq!(run.count, gpm_pattern::oracle::count_subgraphs(&g, &Pattern::triangle(), false));
    validate_trace(&trace).expect("trace must validate");
    // The span taxonomy lands on named per-part lanes: chunk lifecycle,
    // bucket rounds, and fetches are distinct tid tracks.
    for lane in ["chunks", "resolve", "bucket-rounds", "fetches"] {
        assert!(trace.contains(&format!("\"name\":\"{lane}\"")), "missing lane {lane}:\n{trace}");
    }
    for event in ["seed_roots", "extend", "resolve", "bucket_round", "fetch"] {
        assert!(trace.contains(&format!("\"name\":\"{event}\"")), "missing event {event}");
    }
    // 4 machines → processes part 0..=3 in the metadata.
    for part in 0..4 {
        assert!(trace.contains(&format!("part {part}")), "missing process for part {part}");
    }
}

#[test]
fn report_totals_match_legacy_traffic_summary() {
    let (run, report, _) = observed_triangle_run();
    validate_report(&report.to_json()).expect("report must validate");
    assert_eq!(report.count, run.count);
    assert_eq!(report.elapsed_ns, run.elapsed.as_nanos() as u64);
    // Counter-for-counter against the legacy TrafficSummary.
    assert_eq!(report.traffic.fetch_requests, run.traffic.requests);
    assert_eq!(report.traffic.cache_hits, run.traffic.cache_hits);
    assert_eq!(report.traffic.cache_misses, run.traffic.cache_misses);
    assert_eq!(report.traffic.coalesced_requests, run.traffic.coalesced);
    assert_eq!(report.traffic.retries, run.traffic.retries);
    assert_eq!(report.traffic.network_bytes, run.traffic.network_bytes);
    assert_eq!(report.traffic.numa_bytes, run.traffic.cross_socket_bytes);
    // The recorder-owned sections are populated: every metric has a
    // histogram entry and the fetch latency histogram saw real fetches.
    assert_eq!(report.histograms.len(), gpm_obs::Metric::ALL.len());
    let fetch = report.histogram("fetch_latency_ns").expect("fetch histogram");
    assert!(fetch.count > 0, "no fetch latencies recorded");
    assert!(fetch.p50 <= fetch.p95 && fetch.p95 <= fetch.p99);
    assert!(report.spans.recorded > 0);
}

fn obj<'a>(v: &'a Value, ctx: &str) -> &'a [(String, Value)] {
    match v {
        Value::Map(m) => m,
        other => panic!("{ctx}: expected object, got {other:?}"),
    }
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    obj(v, key).iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn str_field<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    match field(v, key) {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}

fn u64_field(v: &Value, key: &str) -> Option<u64> {
    match field(v, key) {
        Some(Value::UInt(u)) => Some(*u),
        _ => None,
    }
}

/// The tentpole acceptance criterion: the exported trace of a 4-part
/// seeded run contains matched flow events (`ph:"s"` paired with
/// `ph:"f"`) whose ids link a fetch-issue instant, the responder serve
/// that answered it, and the wait that consumed the reply — all for the
/// same request — verified by parsing the JSON, not by substring luck.
#[test]
fn flow_events_causally_link_the_fetch_lifecycle() {
    let (_, _, trace) = observed_triangle_run();
    let doc = parse_json(&trace).expect("trace must parse");
    let events = match field(&doc, "traceEvents") {
        Some(Value::Seq(events)) => events,
        other => panic!("traceEvents: expected array, got {other:?}"),
    };
    let mut starts: HashSet<u64> = HashSet::new();
    let mut finishes: HashSet<u64> = HashSet::new();
    let mut members: HashMap<u64, HashSet<&str>> = HashMap::new();
    for e in events {
        match str_field(e, "ph") {
            Some("s") | Some("f") if str_field(e, "cat") == Some("khuzdul.flow") => {
                let id = u64_field(e, "id").expect("flow event without id");
                let set = if str_field(e, "ph") == Some("s") { &mut starts } else { &mut finishes };
                set.insert(id);
            }
            Some("X") | Some("i") => {
                let Some(args) = field(e, "args") else { continue };
                if let Some(link) = u64_field(args, "link") {
                    members.entry(link).or_default().insert(str_field(e, "name").unwrap());
                }
            }
            _ => {}
        }
    }
    assert!(!starts.is_empty(), "traced fetch run emitted no flow starts");
    assert_eq!(starts, finishes, "every flow start must have a matching finish and vice versa");
    // At least one request's full lifecycle is linked end to end: the
    // issue instant, the remote serve, the reply wait, and the bucket
    // round that blocked on it.
    let complete = starts
        .iter()
        .filter(|id| {
            members.get(id).is_some_and(|m| {
                ["fetch_issue", "serve", "fetch", "bucket_round"]
                    .iter()
                    .all(|name| m.contains(name))
            })
        })
        .count();
    assert!(
        complete > 0,
        "no flow id links a complete issue/serve/wait lifecycle; members: {members:?}"
    );
}

/// Critical-path acceptance: the RunReport of an observed run carries
/// fractions that sum to 1 ± 0.01, attributed from linked waits, and the
/// report passes `validate_report` (which enforces the same bound).
#[test]
fn critical_path_fractions_sum_to_one() {
    let (_, report, _) = observed_triangle_run();
    validate_report(&report.to_json()).expect("report must validate");
    let f = &report.critical_path.fractions;
    let sum = f.compute + f.fetch_wait + f.responder_queue + f.retry_backoff;
    assert!((sum - 1.0).abs() <= 0.01, "fractions must sum to 1: {f:?} (sum {sum})");
    assert!(f.compute > 0.0, "a triangle count spends time computing");
    assert_eq!(report.critical_path.per_part.len(), 4, "one attribution row per part");
    let linked: u64 = report.critical_path.per_part.iter().map(|p| p.linked_waits).sum();
    assert!(linked > 0, "a 4-part run must attribute at least one linked wait");
}

/// Regression-gate acceptance: `report diff` passes a report against
/// itself and exits non-zero (an `Err` through the CLI) on an injected
/// ≥10% fetch-wait regression.
#[test]
fn report_diff_gates_injected_fetch_wait_regression() {
    let (_, report, _) = observed_triangle_run();
    let dir = std::env::temp_dir().join(format!("gpm-obs-gate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let base = dir.join("base.json");
    let cand = dir.join("cand.json");
    std::fs::write(&base, report.to_json()).unwrap();
    let argv = |s: String| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let ok =
        gpm_apps::cli::run(&argv(format!("report diff {} {}", base.display(), base.display())))
            .expect("a report must not regress against itself");
    assert!(ok.contains("PASS"), "{ok}");
    let mut perturbed = report.clone();
    let f = &mut perturbed.critical_path.fractions;
    // The share moves from compute, so the fractions still sum to 1: the
    // gate refuses a report the validator refuses, and this one must
    // fail on the regression itself.
    let moved = f.fetch_wait * 0.10 + 0.02;
    assert!(f.fetch_wait <= 0.85, "no headroom to inject a regression: {f:?}");
    assert!(f.compute >= moved, "no compute share to move: {f:?}");
    f.fetch_wait += moved;
    f.compute -= moved;
    std::fs::write(&cand, perturbed.to_json()).unwrap();
    let verdict =
        gpm_apps::cli::run(&argv(format!("report diff {} {}", base.display(), cand.display())));
    let Err(gpm_apps::cli::Error::Failed { output, error }) = verdict else {
        panic!("injected fetch-wait regression must fail the gate: {verdict:?}");
    };
    assert!(output.contains("fetch_wait"), "{output}");
    assert!(output.contains("REGRESSION"), "{output}");
    assert!(error.contains("regression") && !error.contains('\n'), "{error}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn disabled_tracing_records_nothing_but_still_reports_counters() {
    let g = gen::erdos_renyi(200, 800, 11);
    let engine = Engine::new(PartitionedGraph::new(&g, 4, 1), EngineConfig::default());
    let plan = MatchingPlan::compile(&Pattern::triangle(), &PlanOptions::automine()).unwrap();
    let run = engine.count(&plan);
    let report = engine.report(&run, "khuzdul-automine");
    let trace = engine.chrome_trace();
    engine.shutdown();
    assert_eq!(trace, r#"{"traceEvents":[]}"#);
    assert_eq!(report.spans.recorded, 0);
    // Counters still flow through the report even with tracing off.
    assert_eq!(report.traffic.fetch_requests, run.traffic.requests);
    validate_report(&report.to_json()).expect("disabled-run report must validate");
}
