//! Per-layer probes: one layer's public entry point, called on a fixed
//! seeded input and timed from outside through [`Tracer::sample`].
//!
//! The set-operation, plan-compile and observability inputs are the ones
//! `crates/bench/benches/kernels.rs` uses (10k × 10k multiples of 3 and 5,
//! 100 vs 10k, 5-clique, house), so a number here and a number there talk
//! about the same work.

use crate::record::{Row, WorkloadResult};
use crate::stats;
use crate::trace::Tracer;
use gpm_cluster::{
    ClusterMetrics, ControlLedgerConfig, ControlLedgerService, CtrlOp, CtrlPayload,
    EdgeListService, FabricConfig,
};
use gpm_graph::partition::PartitionedGraph;
use gpm_graph::{gen, set_ops, Graph, VertexId};
use gpm_obs::{FlightKind, FlightRecorder, ObsConfig, QueryProgress, Recorder, SpanKind};
use gpm_pattern::plan::{MatchingPlan, PlanOptions};
use gpm_pattern::Pattern;
use khuzdul::cache::SharedCache;
use khuzdul::{CachePolicy, Engine, EngineConfig, MiningService, ServiceConfig};
use std::hint::black_box;
use std::sync::Arc;

/// Seed of the probes' own inputs, so a probe reads the same on every
/// workload seed.
const PROBE_SEED: u64 = 0x6b68_757a;

/// Intervals per probe: 1000 for calls of micro- or nanoseconds, 20 for
/// calls of milliseconds; `--smoke` divides by 16, never below 20.
#[derive(Debug, Clone, Copy)]
pub struct Reps {
    /// For calls far shorter than a millisecond.
    pub short: usize,
    /// For millisecond-scale calls.
    pub long: usize,
}

impl Reps {
    /// The interval counts for a full or a smoke run.
    pub fn new(smoke: bool) -> Reps {
        Reps { short: if smoke { 63 } else { 1000 }, long: 20 }
    }
}

/// Runs every probe and pushes one row per metric into `out`.
///
/// `graph` and `pg` are the workload's own, used where a probe's input
/// is meant to look like the workload (hub lists, owned vertices);
/// `cfg` is the workload's engine configuration.
pub fn run(
    graph: &Graph,
    pg: &PartitionedGraph,
    cfg: &EngineConfig,
    reps: Reps,
    tracer: &mut Tracer,
    out: &mut WorkloadResult,
) {
    set_ops_probes(graph, reps, tracer, out);
    plan_probes(reps, tracer, out);
    query_floor_probes(reps, tracer, out);
    fabric_probes(pg, reps, tracer, out);
    control_probes(reps, tracer, out);
    cache_probes(cfg, reps, tracer, out);
    obs_probes(reps, tracer, out);
}

fn set_ops_probes(graph: &Graph, reps: Reps, tracer: &mut Tracer, out: &mut WorkloadResult) {
    let a: Vec<VertexId> = (0..10_000).map(|i| i * 3).collect();
    let b: Vec<VertexId> = (0..10_000).map(|i| i * 5).collect();
    let short: Vec<VertexId> = (0..100).map(|i| i * 321).collect();
    let elems = (a.len() + b.len()) as f64;
    let mut buf = Vec::with_capacity(a.len());

    let ns = tracer.sample("graph.set_ops.intersect_into", reps.short, 1, || {
        buf.clear();
        set_ops::intersect_into(black_box(&a), black_box(&b), &mut buf);
        black_box(buf.len());
    });
    out.push(Row::from_samples("graph.set_ops.merge_ns_per_elem", &scaled(&ns, 1.0 / elems)));

    let ns = tracer.sample("graph.set_ops.intersect_into", reps.short, 10, || {
        buf.clear();
        set_ops::intersect_into(black_box(&short), black_box(&a), &mut buf);
        black_box(buf.len());
    });
    let per_probe = 1.0 / short.len() as f64;
    out.push(Row::from_samples("graph.set_ops.gallop_ns_per_probe", &scaled(&ns, per_probe)));

    let ns = tracer.sample("graph.set_ops.intersect_count", reps.short, 1, || {
        black_box(set_ops::intersect_count(black_box(&a), black_box(&b)));
    });
    out.push(Row::from_samples("graph.set_ops.count_ns_per_elem", &scaled(&ns, 1.0 / elems)));

    let ns = tracer.sample("graph.set_ops.subtract_into", reps.short, 1, || {
        buf.clear();
        set_ops::subtract_into(black_box(&a), black_box(&b), &mut buf);
        black_box(buf.len());
    });
    out.push(Row::from_samples("graph.set_ops.subtract_ns_per_elem", &scaled(&ns, 1.0 / elems)));

    // What extend does on a skewed graph: every pair among the 64
    // longest adjacency lists of the workload's own graph.
    let mut by_degree: Vec<VertexId> = graph.vertices().collect();
    by_degree.sort_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
    let hubs: Vec<&[VertexId]> = by_degree.iter().take(64).map(|&v| graph.neighbors(v)).collect();
    let mut swept = 0usize;
    for (i, x) in hubs.iter().enumerate() {
        for y in &hubs[i + 1..] {
            swept += x.len() + y.len();
        }
    }
    let ns = tracer.sample("graph.set_ops.intersect_count", reps.long, 1, || {
        for (i, x) in hubs.iter().enumerate() {
            for y in &hubs[i + 1..] {
                black_box(set_ops::intersect_count(x, y));
            }
        }
    });
    let per_elem = 1.0 / swept.max(1) as f64;
    out.push(Row::from_samples("graph.set_ops.hub_pair_ns_per_elem", &scaled(&ns, per_elem)));
}

fn plan_probes(reps: Reps, tracer: &mut Tracer, out: &mut WorkloadResult) {
    let ns = tracer.sample("pattern.plan.compile", reps.short, 1, || {
        black_box(MatchingPlan::compile(&Pattern::clique(5), &PlanOptions::automine()))
            .expect("5-clique compiles");
    });
    out.push(Row::from_samples("pattern.plan.compile_automine_us", &scaled(&ns, 1e-3)));
    let ns = tracer.sample("pattern.plan.compile", reps.short, 1, || {
        black_box(MatchingPlan::compile(&Pattern::house(), &PlanOptions::graphpi()))
            .expect("house compiles");
    });
    out.push(Row::from_samples("pattern.plan.compile_graphpi_us", &scaled(&ns, 1e-3)));
}

/// The floor under every query: a triangle count on a 64-vertex graph,
/// straight on a warm engine and through the service's admission path.
fn query_floor_probes(reps: Reps, tracer: &mut Tracer, out: &mut WorkloadResult) {
    let tiny = gen::erdos_renyi(64, 256, PROBE_SEED);
    let cfg = EngineConfig { compute_threads: 1, ..EngineConfig::default() };
    let engine =
        Arc::new(Engine::new(PartitionedGraph::new(&tiny, crate::workloads::PARTS, 1), cfg));
    let opts = PlanOptions::automine();
    let plan = MatchingPlan::compile(&Pattern::triangle(), &opts).expect("triangle compiles");
    engine.count(&plan);
    let direct = tracer.sample("core.engine.count", reps.short, 1, || {
        black_box(engine.count(&plan).count);
    });
    out.push(Row::from_samples("core.engine.min_query_us", &scaled(&direct, 1e-3)));

    let submit_wait = |service: &MiningService| {
        let handle = service.submit(&Pattern::triangle(), &opts).expect("triangle compiles");
        black_box(handle.wait().expect("fault-free query").count);
    };
    let service = MiningService::start(
        Arc::clone(&engine),
        ServiceConfig { memoize: false, ..ServiceConfig::default() },
    );
    submit_wait(&service);
    let admitted =
        tracer.sample("core.service.submit_wait", reps.short, 1, || submit_wait(&service));
    drop(service);
    let floor = stats::median(&direct);
    let overhead: Vec<f64> = admitted.iter().map(|ns| (ns - floor) * 1e-3).collect();
    out.push(Row::from_samples("core.service.admit_overhead_us", &overhead));

    let service = MiningService::start(Arc::clone(&engine), ServiceConfig::default());
    submit_wait(&service);
    let memo = tracer.sample("core.service.submit_wait", reps.short, 1, || submit_wait(&service));
    out.push(Row::from_samples("core.service.memo_hit_us", &scaled(&memo, 1e-3)));
}

fn fabric_probes(pg: &PartitionedGraph, reps: Reps, tracer: &mut Tracer, out: &mut WorkloadResult) {
    // A window of 8, so that the eight unawaited fetches below fit in
    // flight at once (the default window of 4 would block the fifth).
    let service = EdgeListService::start_with(
        pg,
        None,
        FabricConfig { window: 8, ..FabricConfig::default() },
    );
    let client = service.client(0);
    let remote = pg.part(1).owned();
    let one = &remote[..1];
    let batch = &remote[..remote.len().min(1024)];

    let ns = tracer.sample("cluster.fabric.fetch", 2 * reps.short, 1, || {
        black_box(client.fetch(1, one).expect("fault-free fetch").len());
    });
    out.push(Row::from_samples("cluster.fabric.fetch_rtt_us", &scaled(&ns, 1e-3)));
    out.push(Row::single("cluster.fabric.fetch_rtt_p99_us", stats::percentile(&ns, 0.99) * 1e-3));

    let mut bytes = 0u64;
    let ns = tracer.sample("cluster.fabric.fetch", reps.short / 4, 1, || {
        bytes = client.fetch(1, batch).expect("fault-free fetch").response_bytes();
    });
    // bytes per nanosecond × 1000 = MB/s.
    let mb_per_s: Vec<f64> = ns.iter().map(|ns| bytes as f64 * 1e3 / ns).collect();
    out.push(Row::from_samples("cluster.fabric.fetch_batch_mb_per_s", &mb_per_s));

    let ns = tracer.sample("cluster.fabric.fetch_async", reps.short / 2, 1, || {
        let pending: Vec<_> = (0..8)
            .map(|i| {
                client.fetch_async(1, &remote[i % remote.len()..][..1]).expect("fault-free fetch")
            })
            .collect();
        for p in pending {
            black_box(p.wait().expect("fault-free fetch").len());
        }
    });
    let per_s: Vec<f64> = ns.iter().map(|ns| 8.0 * 1e9 / ns).collect();
    out.push(Row::from_samples("cluster.fabric.window8_fetch_per_s", &per_s));
    service.shutdown();
}

fn control_probes(reps: Reps, tracer: &mut Tracer, out: &mut WorkloadResult) {
    let calls = 2 * reps.short;
    let roots: Vec<Vec<VertexId>> =
        (0..crate::workloads::PARTS).map(|_| (0..calls as VertexId + 1).collect()).collect();
    let ledger = ControlLedgerService::start(
        roots,
        Vec::new(),
        ControlLedgerConfig::default(),
        &ClusterMetrics::new(crate::workloads::PARTS, 1),
        Recorder::disabled(),
    );
    let client = ledger.client(0);
    let ns = tracer.sample("cluster.control.call", calls, 1, || {
        let reply = client.call(CtrlOp::Claim { own_batch: 1 }).expect("fault-free claim");
        assert!(matches!(reply, CtrlPayload::Claimed { .. }), "the ledger holds a root per call");
    });
    out.push(Row::from_samples("cluster.control.claim_rtt_us", &scaled(&ns, 1e-3)));
    let mean_ns = ns.iter().sum::<f64>() / ns.len() as f64;
    out.push(Row::single("cluster.control.claims_per_s", 1e9 / mean_ns));
}

fn cache_probes(cfg: &EngineConfig, reps: Reps, tracer: &mut Tracer, out: &mut WorkloadResult) {
    const KEYS: VertexId = 1024;
    let list: Vec<VertexId> = (0..cfg.cache.degree_threshold.max(1)).collect();
    let fresh = || SharedCache::new(CachePolicy::Static, 16 << 20, cfg.cache.degree_threshold);

    let mut cache = fresh();
    let ns = tracer.sample("core.cache.maybe_insert", reps.short, 1, || {
        cache = fresh();
        for v in 0..KEYS {
            black_box(cache.maybe_insert(v, &list));
        }
    });
    out.push(Row::from_samples("core.cache.insert_ns", &scaled(&ns, 1.0 / f64::from(KEYS))));
    assert_eq!(cache.len(), KEYS as usize, "every probe list was admitted");

    let mut v = 0;
    let ns = tracer.sample("core.cache.lookup", reps.short, KEYS as usize, || {
        v = (v + 1) % KEYS;
        black_box(cache.lookup(v).is_some());
    });
    out.push(Row::from_samples("core.cache.hit_ns", &ns));
    let ns = tracer.sample("core.cache.lookup", reps.short, KEYS as usize, || {
        v = (v + 1) % KEYS;
        black_box(cache.lookup(KEYS + v).is_some());
    });
    out.push(Row::from_samples("core.cache.miss_ns", &ns));
}

fn obs_probes(reps: Reps, tracer: &mut Tracer, out: &mut WorkloadResult) {
    const BATCH: usize = 1000;
    for (metric, cfg) in [
        ("obs.recorder.span_off_ns", ObsConfig::default()),
        ("obs.recorder.span_on_ns", ObsConfig::enabled()),
    ] {
        let recorder = Recorder::new(&cfg);
        let mut handle = recorder.handle(0);
        let ns = tracer.sample("obs.recorder.span", reps.short, BATCH, || {
            let ts = handle.start();
            handle.span(black_box(SpanKind::Extend), ts, black_box(1));
        });
        out.push(Row::from_samples(metric, &ns));
    }
    let ring = FlightRecorder::new(4096);
    let ns = tracer.sample("obs.flight.record", reps.short, BATCH, || {
        ring.record(black_box(FlightKind::Steal), black_box(1), black_box(2), black_box(3));
    });
    out.push(Row::from_samples("obs.flight.record_on_ns", &ns));
    let progress = QueryProgress::new(1, 1 << 20, 4);
    let ns = tracer.sample("obs.progress.record", reps.short, BATCH, || {
        progress.record_claimed(black_box(0), black_box(64), false);
        progress.record_completed(black_box(0), black_box(64));
    });
    out.push(Row::from_samples("obs.progress.record_on_ns", &ns));
}

fn scaled(xs: &[f64], by: f64) -> Vec<f64> {
    xs.iter().map(|x| x * by).collect()
}
