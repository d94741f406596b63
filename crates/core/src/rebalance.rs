//! Background re-replication: the self-healing half of the fault story.
//!
//! The fail-stop machinery (liveness promotion, failover routing, lost-
//! root recovery) keeps a run *correct* after a crash, but it leaves the
//! cluster degraded: every slice the dead part owned or hosted is one
//! copy short, so a second crash of the wrong part turns survivable into
//! `PartLost`. The `Rebalancer` closes that gap. A background thread
//! watches [`EdgeListService::dead_parts`]; when a part is promoted
//! dead, it walks every slice whose effective replication dropped below
//! the configured factor, picks a replacement host in hash-successor
//! order (the same ring the static placement uses, skipping dead hosts
//! and existing holders), and streams the slice's CSR columns to the
//! host's responder as chunked `ReplicaPush` ops over the regular
//! transport. Each completed transfer atomically republishes the routing
//! table (epoch bump), so subsequent dead-owner fetches fail over to the
//! restored holder — and a later crash of a *different* part at
//! replication 2 still yields bit-identical counts instead of a loss.
//!
//! The transfer source is the in-process slice handle
//! ([`GraphPart`]): in a real deployment the bytes would stream from a
//! surviving holder's copy, but the copies are bit-identical by
//! construction, so the wire path — chunking, per-chunk acks, abort on
//! incoherent transfer, routing republish — exercises exactly what a
//! holder-to-holder stream would.
//!
//! A slice whose every copy died before a transfer could land is
//! unrepairable: it is marked lost ([`EdgeListService::mark_slice_lost`])
//! so armed grace-waiters fail `PartDead` immediately and the engine
//! reports the typed `PartLost` instead of running out the clock.
//!
//! Observability: each transfer advances a byte-progress counter that a
//! `StallWatchdog` (started only with incident capture + a stall window
//! configured, the same detector that watches the scheduler) checks — a
//! transfer that makes no byte progress for the window captures one
//! `rebalance_stuck` incident bundle. Each healed death records a
//! `rebalance_done` flight event, and cumulative counters feed the run
//! report's `rebalance` section.

use crate::incident::{CaptureSections, IncidentManager, StallWatchdog, Trigger};
use gpm_cluster::EdgeListService;
use gpm_graph::partition::GraphPart;
use gpm_obs::{SpanKind, TriggerKind};
use parking_lot::{Condvar, Mutex};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Background re-replication knobs (`EngineConfig::rebalance`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebalanceConfig {
    /// Whether the engine runs a rebalancer at all. On by default; the
    /// CLI's `--rebalance off` turns it off, reproducing the pre-healing
    /// envelope (a crash outliving the replicas is `PartLost`).
    pub enabled: bool,
    /// Adjacency entries per `ReplicaPush` chunk. Smaller chunks bound
    /// the responder's per-message service time; larger ones amortize
    /// the per-chunk ack round trip.
    pub chunk_entries: usize,
    /// Artificial pause between streamed chunks — a test knob for
    /// exercising the stuck-transfer watchdog and mid-transfer races.
    /// `Duration::ZERO` (the default) in production.
    pub chunk_delay: Duration,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig { enabled: true, chunk_entries: 64 * 1024, chunk_delay: Duration::ZERO }
    }
}

/// Poll interval of the death-watch loop.
const TICK: Duration = Duration::from_millis(1);

/// Bound on how long the engine's recovery gate waits for the repairs
/// of one death event to settle before consulting per-slice liveness
/// anyway. Generous: a wedged transfer is surfaced by the watchdog, not
/// by wedging the recovery pass.
const WAIT_CAP: Duration = Duration::from_secs(30);

/// Cumulative re-replication counters, monotone over the engine's life.
#[derive(Debug, Default)]
pub struct RebalanceStats {
    transfers: AtomicU64,
    bytes: AtomicU64,
    restored: AtomicU64,
    lost: AtomicU64,
}

impl RebalanceStats {
    /// Completed slice transfers.
    pub fn transfers(&self) -> u64 {
        self.transfers.load(Ordering::Relaxed)
    }

    /// Total wire bytes streamed by completed transfers.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Slice copies restored (one per completed transfer that published
    /// a new holder).
    pub fn restored(&self) -> u64 {
        self.restored.load(Ordering::Relaxed)
    }

    /// Slices declared unrepairable (every copy died first).
    pub fn lost(&self) -> u64 {
        self.lost.load(Ordering::Relaxed)
    }
}

/// State shared between the repair thread, the watchdog, and callers.
struct Shared {
    /// Dead parts whose repairs have fully settled (every short slice
    /// either restored or marked lost).
    handled: Mutex<HashSet<usize>>,
    cv: Condvar,
    stats: RebalanceStats,
    /// Wire bytes acked across all transfers; the watchdog's counter.
    progress: AtomicU64,
    /// Whether a repair (and therefore possibly a transfer) is in
    /// flight; the watchdog only counts stillness against this.
    repairing: AtomicBool,
}

/// The background re-replication service of one engine. Started by
/// `Engine::new` when rebalance is enabled, replication ≥ 2, and the
/// cluster has more than one part; stopped and joined on drop.
pub(crate) struct Rebalancer {
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
    /// Fires one `rebalance_stuck` bundle if a repair is in flight but
    /// no transfer byte has been acked for the stall window.
    _watchdog: Option<StallWatchdog>,
}

impl std::fmt::Debug for Rebalancer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rebalancer")
            .field("handled", &self.shared.handled.lock().len())
            .field("transfers", &self.shared.stats.transfers())
            .finish()
    }
}

impl Rebalancer {
    /// Starts the death-watch thread (and, with incident capture plus a
    /// stall window configured, the stuck-transfer watchdog) over
    /// `service`. `parts` are the in-process slice handles used as
    /// transfer sources; `replication` is the configured factor to
    /// restore toward.
    pub(crate) fn start(
        service: EdgeListService,
        parts: Vec<Arc<GraphPart>>,
        replication: usize,
        cfg: RebalanceConfig,
        incidents: Arc<IncidentManager>,
    ) -> Rebalancer {
        let shared = Arc::new(Shared {
            handled: Mutex::new(HashSet::new()),
            cv: Condvar::new(),
            stats: RebalanceStats::default(),
            progress: AtomicU64::new(0),
            repairing: AtomicBool::new(false),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("khuzdul-rebalance".to_string())
                .spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let fresh: Vec<usize> = {
                            let handled = shared.handled.lock();
                            service
                                .dead_parts()
                                .into_iter()
                                .filter(|d| !handled.contains(d))
                                .collect()
                        };
                        if fresh.is_empty() {
                            std::thread::sleep(TICK);
                            continue;
                        }
                        shared.repairing.store(true, Ordering::SeqCst);
                        for d in fresh {
                            let restored =
                                repair_after(&service, &parts, replication, &cfg, &shared);
                            let event = SpanKind::RebalanceDone;
                            service.recorder().event(0, event, d as u32, restored, 0);
                            shared.handled.lock().insert(d);
                            shared.cv.notify_all();
                        }
                        shared.repairing.store(false, Ordering::SeqCst);
                    }
                })
                .expect("spawn rebalancer")
        };
        let watchdog = match (incidents.stall_window(), incidents.enabled()) {
            (Some(window), true) => {
                let (counted, armed) = (Arc::clone(&shared), Arc::clone(&shared));
                Some(StallWatchdog::watch(
                    "khuzdul-rebalance-watchdog",
                    window,
                    move || counted.progress.load(Ordering::Relaxed),
                    move || armed.repairing.load(Ordering::SeqCst),
                    move |stalled, streamed| {
                        let detail = format!(
                            "re-replication transfer made no byte progress for {stalled:?} \
                             ({streamed} bytes streamed so far)"
                        );
                        let value = stalled.as_nanos() as u64;
                        let kind = TriggerKind::RebalanceStuck;
                        let trigger = Trigger::new(kind, 0, None, value, detail);
                        incidents.capture(trigger, CaptureSections::default());
                    },
                ))
            }
            _ => None,
        };
        Rebalancer { shared, stop, handle: Some(handle), _watchdog: watchdog }
    }

    /// Blocks until the repairs triggered by every death in `dead` have
    /// settled (each short slice restored or marked lost), or the wait
    /// cap expires. Called by the engine's recovery gate before it
    /// consults per-slice liveness.
    pub(crate) fn wait_for(&self, dead: &[usize]) {
        let deadline = Instant::now() + WAIT_CAP;
        let mut handled = self.shared.handled.lock();
        while !dead.iter().all(|d| handled.contains(d)) {
            let Some(left) =
                deadline.checked_duration_since(Instant::now()).filter(|d| !d.is_zero())
            else {
                break;
            };
            self.shared.cv.wait_for(&mut handled, left);
        }
    }

    /// Cumulative transfer counters, for the report's `rebalance`
    /// section and the status exporter.
    pub(crate) fn stats(&self) -> &RebalanceStats {
        &self.shared.stats
    }
}

impl Drop for Rebalancer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Repairs every slice whose effective replication dropped below the
/// reachable target (`replication`, capped by the live-part count).
/// Returns the number of copies restored. Scanning all slices instead of
/// just the newly dead part's is deliberate: slices already at target
/// cost one liveness read each, and the scan stays correct when several
/// parts died faster than the poll tick.
fn repair_after(
    service: &EdgeListService,
    parts: &[Arc<GraphPart>],
    replication: usize,
    cfg: &RebalanceConfig,
    shared: &Shared,
) -> u64 {
    let n = parts.len();
    let mut restored = 0u64;
    for (s, part) in parts.iter().enumerate() {
        // A host that dies mid-repair shrinks the target and fails the
        // in-flight transfer; both re-resolve on the next loop turn, and
        // every turn either restores a copy, marks the slice lost, or
        // runs out of candidate hosts, so the loop terminates.
        loop {
            let target = replication.min(n - service.dead_parts().len());
            let copies = service.live_copies(s);
            if copies >= target || target == 0 {
                break;
            }
            if copies == 0 {
                // Every copy died before a transfer could land: the
                // slice is unrepairable and waiters must fail typed
                // instead of running out the grace clock.
                service.mark_slice_lost(s);
                shared.stats.lost.fetch_add(1, Ordering::Relaxed);
                break;
            }
            let holders = service.live_holders(s);
            let host = (1..n)
                .map(|off| (s + off) % n)
                .find(|&h| !service.is_part_dead(h) && !holders.contains(&h));
            let Some(host) = host else { break };
            match service.replicate_slice(
                part,
                host,
                cfg.chunk_entries,
                &shared.progress,
                cfg.chunk_delay,
            ) {
                Ok(bytes) => {
                    shared.stats.transfers.fetch_add(1, Ordering::Relaxed);
                    shared.stats.bytes.fetch_add(bytes, Ordering::Relaxed);
                    shared.stats.restored.fetch_add(1, Ordering::Relaxed);
                    restored += 1;
                }
                Err(_) if service.is_part_dead(host) => {
                    // The chosen host died mid-transfer; the next turn
                    // re-resolves target and candidates without it.
                }
                Err(_) => break,
            }
        }
    }
    restored
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incident::IncidentConfig;
    use gpm_cluster::{CrashAt, FabricConfig, FaultPlan, RetryPolicy};
    use gpm_graph::gen;
    use gpm_graph::partition::PartitionedGraph;

    fn manager(dir: Option<std::path::PathBuf>, stall: Option<Duration>) -> Arc<IncidentManager> {
        let cfg = IncidentConfig { dir, stall };
        let flight = gpm_obs::FlightRecorder::new(256);
        let recorder = gpm_obs::Recorder::with_flight(&gpm_obs::ObsConfig::default(), flight);
        IncidentManager::new(&cfg, recorder, "rb-test".to_string())
    }

    fn crashy_service(pg: &PartitionedGraph, crashes: Vec<CrashAt>) -> EdgeListService {
        let fabric = FabricConfig {
            retry: RetryPolicy {
                max_attempts: 4,
                timeout: Duration::from_millis(100),
                backoff: Duration::from_millis(1),
            },
            fault: Some(FaultPlan { crashes, ..FaultPlan::default() }),
            ..FabricConfig::default()
        };
        EdgeListService::start_with(pg, None, fabric)
    }

    #[test]
    fn a_death_is_repaired_back_to_full_replication() {
        let g = gen::erdos_renyi(64, 256, 21);
        let pg = PartitionedGraph::with_replication(&g, 4, 1, 2);
        let service = crashy_service(&pg, vec![CrashAt { part: 0, after_requests: 0 }]);
        service.arm_rebalance();
        let parts: Vec<_> = (0..4).map(|p| pg.part_arc(p)).collect();
        let rb = Rebalancer::start(
            service.clone(),
            parts.clone(),
            2,
            RebalanceConfig::default(),
            manager(None, None),
        );
        // Trigger the crash: the first fetch touching part 0 kills it
        // and fails over to its holder.
        let client = service.client(1);
        let v = parts[0].owned()[0];
        let epoch0 = service.routing_epoch();
        client.fetch(0, &[v]).expect("failover masks the crash");
        rb.wait_for(&[0]);
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
        assert!(service.routing_epoch() > epoch0, "repairs must republish routing");
        assert!(rb.stats().transfers() >= 1);
        assert!(rb.stats().bytes() > 0);
        assert_eq!(rb.stats().lost(), 0);
        service.shutdown();
    }

    #[test]
    fn stuck_transfer_fires_one_rebalance_stuck_bundle() {
        let dir = std::env::temp_dir().join(format!("khuzdul-rb-stuck-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let g = gen::erdos_renyi(48, 120, 22);
        let pg = PartitionedGraph::with_replication(&g, 3, 1, 2);
        let service = crashy_service(&pg, vec![CrashAt { part: 0, after_requests: 0 }]);
        service.arm_rebalance();
        let parts: Vec<_> = (0..3).map(|p| pg.part_arc(p)).collect();
        let incidents = manager(Some(dir.clone()), Some(Duration::from_millis(20)));
        // Tiny chunks + a long per-chunk delay: the transfer's byte
        // progress freezes between chunks far past the stall window.
        let cfg = RebalanceConfig {
            chunk_entries: 8,
            chunk_delay: Duration::from_millis(120),
            ..RebalanceConfig::default()
        };
        let rb = Rebalancer::start(service.clone(), parts.clone(), 2, cfg, Arc::clone(&incidents));
        let client = service.client(1);
        let v = parts[0].owned()[0];
        client.fetch(0, &[v]).expect("failover masks the crash");
        let deadline = Instant::now() + Duration::from_secs(10);
        while incidents.incidents().is_empty() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let captured = incidents.incidents();
        assert_eq!(captured.len(), 1, "exactly one stuck bundle");
        assert_eq!(captured[0].trigger, TriggerKind::RebalanceStuck);
        let json = std::fs::read_to_string(&captured[0].path).unwrap();
        crate::incident::validate_bundle(&json).expect("stuck bundle validates");
        drop(rb);
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn total_copy_loss_marks_the_slice_lost() {
        let g = gen::erdos_renyi(48, 128, 23);
        // r = 2 on 3 parts: slice 0's only holder is part 2. Killing
        // both before any repair leaves slice 0 unrepairable.
        let pg = PartitionedGraph::with_replication(&g, 3, 1, 2);
        let service = crashy_service(
            &pg,
            vec![CrashAt { part: 0, after_requests: 0 }, CrashAt { part: 2, after_requests: 0 }],
        );
        let parts: Vec<_> = (0..3).map(|p| pg.part_arc(p)).collect();
        let client = service.client(1);
        let v = parts[0].owned()[0];
        // First fetch kills part 0, fails over to holder 2, which the
        // chained crash entry then kills too; disarmed routing fails
        // typed immediately. The rebalancer starts only afterwards so
        // no repair can race the chained kill.
        let err = client.fetch(0, &[v]).expect_err("both copies are gone");
        assert!(matches!(err, gpm_cluster::FetchError::PartDead { .. }), "{err:?}");
        let rb = Rebalancer::start(
            service.clone(),
            parts.clone(),
            2,
            RebalanceConfig::default(),
            manager(None, None),
        );
        rb.wait_for(&[0, 2]);
        assert_eq!(service.live_copies(0), 0);
        assert!(rb.stats().lost() >= 1);
        service.shutdown();
    }
}
