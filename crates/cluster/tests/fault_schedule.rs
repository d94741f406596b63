//! The seeded fault schedule, pinned: under one fixed drop plan, a run of
//! sequential fetches and a run of sequential control calls roll exactly
//! the fates recorded here. Each message's fate is a function of its
//! plan's seed, its target and its sequence number alone, so these
//! constants move only if the sequence numbers the two planes hand out,
//! or the draw itself, change. A dropped reply never arrives, so no
//! fate depends on how loaded the host is.

use gpm_cluster::{
    ClusterMetrics, ControlLedgerConfig, ControlLedgerService, Counter, CtrlOp, EdgeListService,
    FabricConfig, FaultPlan, RetryPolicy,
};
use gpm_graph::partition::PartitionedGraph;
use gpm_graph::rank::rank_by_degree;
use gpm_graph::VertexId;
use gpm_obs::{ObsConfig, Recorder, SpanKind};
use std::sync::Arc;
use std::time::Duration;

const CALLS: usize = 200;

fn plan() -> FaultPlan {
    FaultPlan { seed: 0x5eed, ..FaultPlan::drops(0.2) }
}

/// Generous enough that only a dropped reply ever times out.
fn retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 16,
        timeout: Duration::from_millis(40),
        backoff: Duration::from_micros(50),
    }
}

#[test]
fn fetch_fault_schedule_is_pinned() {
    let g = gpm_graph::gen::erdos_renyi(200, 800, 7);
    let pg = PartitionedGraph::new(&g, 2, 1);
    let g = rank_by_degree(&g).0;
    let obs = Recorder::new(&ObsConfig::enabled());
    let fabric = FabricConfig { retry: retry(), fault: Some(plan()), ..FabricConfig::default() };
    let service = EdgeListService::start_observed(&pg, None, fabric, Arc::clone(&obs));
    let client = service.client(0);
    let remote: Vec<VertexId> = pg.part(1).owned().to_vec();
    for i in 0..CALLS {
        let v = remote[i % remote.len()];
        assert_eq!(client.fetch(1, &[v]).unwrap().list(0), g.neighbors(v));
    }
    let drops = obs.spans().iter().filter(|s| s.kind == SpanKind::Fault && s.arg == 1).count();
    let faults = obs.spans().iter().filter(|s| s.kind == SpanKind::Fault).count();
    let retries = service.metrics().totals()[Counter::Retries];
    // Every dropped attempt is retried once, and a drop is the one fault.
    assert_eq!((retries, drops, faults), (63, 63, 63));
    service.shutdown();
}

#[test]
fn ctrl_fault_schedule_is_pinned() {
    let metrics = ClusterMetrics::new(1, 1);
    let cfg = ControlLedgerConfig { retry: retry(), fault: Some(plan()), ..Default::default() };
    let service = ControlLedgerService::start(
        vec![Vec::new()],
        Vec::new(),
        cfg,
        &metrics,
        Recorder::disabled(),
    );
    let client = service.client(0);
    for _ in 0..CALLS {
        client.call(CtrlOp::Poll).unwrap();
    }
    let row = metrics.part(0).snapshot();
    let counts = (row[Counter::CtrlSent], row[Counter::CtrlDropped], row[Counter::CtrlRetried]);
    // 200 calls plus one send per retry, and one retry per drop.
    assert_eq!(counts, (252, 52, 52));
}
