//! Re-replication: the self-healing half of the fault story.
//!
//! The fail-stop machinery (liveness promotion, failover routing, lost-
//! root recovery) keeps a run *correct* after a crash, but it leaves the
//! cluster degraded: every slice the dead part owned or hosted is one
//! copy short, so a second crash of the wrong part turns survivable into
//! `PartLost`. Healing closes that gap where the death is found: the
//! fabric failover that first promotes a part dead restores every short
//! slice before it re-routes (`gpm_cluster::EdgeListService::start_observed`
//! with `heal`). It pushes a live holder's copy, one message acked once,
//! to the next live non-holder on the hash-successor ring and republishes
//! the routing table, so a later crash of a *different* part at
//! replication 2 still yields bit-identical counts instead of a loss.
//!
//! The repair runs on whichever part coordinator's fetch detected the
//! death, so the run's own stall watchdog covers a wedged transfer. Each
//! healed death records a `rebalance_done` flight event, each transfer a
//! `replica_push`, and the fabric's totals feed the run report's
//! `rebalance` section.

/// Re-replication switch (`EngineConfig::rebalance`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebalanceConfig {
    /// Whether a death is repaired at all. On by default, effective with
    /// replication ≥ 2 and more than one part; the CLI's
    /// `--rebalance off` turns it off, reproducing the pre-healing
    /// envelope (a crash outliving the replicas is `PartLost`).
    pub enabled: bool,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig { enabled: true }
    }
}

#[cfg(test)]
mod tests {
    use gpm_cluster::{CrashAt, EdgeListService, FabricConfig, FaultPlan, FetchError};
    use gpm_graph::gen;
    use gpm_graph::partition::PartitionedGraph;

    #[test]
    fn a_death_is_repaired_back_to_full_replication() {
        let g = gen::erdos_renyi(64, 256, 21);
        let pg = PartitionedGraph::with_replication(&g, 4, 1, 2);
        let fabric =
            FabricConfig { fault: Some(FaultPlan::crash_at(0, 0)), ..FabricConfig::default() };
        let obs = gpm_obs::Recorder::disabled();
        let service = EdgeListService::start_observed(&pg, None, fabric, obs, true);
        // The first fetch touching part 0 kills it; its failover repairs
        // before it re-routes, so nothing is left to wait for.
        let client = service.client(1);
        let v = pg.part(0).owned()[0];
        client.fetch(0, &[v]).expect("failover masks the crash");
        assert_eq!(service.dead_parts(), vec![0]);
        // Every slice is back at the reachable target (r = 2, 3 live
        // parts), including the dead part's own slice.
        for s in 0..4 {
            assert!(
                service.live_copies(s) >= 2,
                "slice {s} still short: {} copies",
                service.live_copies(s)
            );
        }
        assert!(service.routing_epoch() > 0, "repairs must republish routing");
        let (transfers, bytes) = service.repair_totals();
        assert!(transfers >= 1);
        assert!(bytes > 0);
        service.shutdown();
    }

    #[test]
    fn total_copy_loss_marks_the_slice_lost() {
        // r = 2 on two parts: the first death leaves every slice the one
        // copy a single live part allows, so nothing is short; the second
        // leaves no copy to restore from, and the slices fail typed.
        let g = gen::erdos_renyi(64, 256, 21);
        let pg = PartitionedGraph::with_replication(&g, 2, 1, 2);
        // The second fuse lets part 1 serve the first failover.
        let crashes =
            vec![CrashAt { part: 0, after_requests: 0 }, CrashAt { part: 1, after_requests: 1 }];
        let fault = Some(FaultPlan { crashes, ..FaultPlan::default() });
        let fabric = FabricConfig { fault, ..FabricConfig::default() };
        let obs = gpm_obs::Recorder::disabled();
        let service = EdgeListService::start_observed(&pg, None, fabric, obs, true);
        let (v0, v1) = (pg.part(0).owned()[0], pg.part(1).owned()[0]);
        service.client(1).fetch(0, &[v0]).expect("part 1 holds slice 0");
        assert_eq!(service.repair_totals(), (0, 0), "one live part: nothing is short");
        assert_eq!(
            service.client(0).fetch(1, &[v1]),
            Err(FetchError::PartDead { part: 1 }),
            "no live copy of slice 1 is left"
        );
        assert_eq!(service.dead_parts(), vec![0, 1]);
        assert_eq!((service.live_copies(0), service.live_copies(1)), (0, 0));
        assert_eq!(service.client(1).fetch(0, &[v0]), Err(FetchError::PartDead { part: 0 }));
        assert_eq!(service.repair_totals(), (0, 0));
        service.shutdown();
    }
}
