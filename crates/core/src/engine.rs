//! The [`Engine`]: cluster setup and run orchestration.

use crate::cache::{CacheConfig, SharedCache};
use crate::control::{ControlConfig, ControlPlane};
use crate::incident::{
    config_fingerprint, counter_snapshot, CaptureSections, IncidentConfig, IncidentManager,
    StallWatchdog, Trigger,
};
use crate::rebalance::{RebalanceConfig, Rebalancer};
use crate::runtime::{run_part, PartCtx, StatePool, Visitor};
use crate::scheduler::{place_recovery_roots, LiveQueries, StealConfig, WorkerPool};
use crate::stats::{PartStats, RunStats, TrafficSummary};
use gpm_cluster::{
    ClusterMetrics, ControlLedgerConfig, Counter, Counters, EdgeListService, FabricConfig,
    FetchError, NetworkModel,
};
use gpm_graph::partition::PartitionedGraph;
use gpm_graph::VertexId;
use gpm_obs::{
    ControlSection, FailureSection, FlightRecorder, HolderReroute, ObsConfig, QueryProgress,
    RebalanceSection, Recorder, RunReport, SpanKind, TriggerKind, FLIGHT_CAPACITY, NO_PART,
};
use gpm_pattern::plan::MatchingPlan;
use gpm_pattern::MAX_PATTERN_VERTICES;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Finished-progress entries the engine retains for late collectors
/// (the service attaches them to query outcomes); oldest drop first.
const FINISHED_PROGRESS_CAP: usize = 64;

/// One part's replica-placement and health row, as served by `/status`
/// and rendered by `gpm top` (see [`Engine::part_health`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartHealth {
    /// The part this row describes.
    pub part: usize,
    /// Whether the part is live (not promoted dead by the liveness
    /// tracker).
    pub alive: bool,
    /// Slices this part currently hosts a copy of: its own, the
    /// replicas it was configured with, and any the rebalancer
    /// installed after a death.
    pub hosted_slices: Vec<usize>,
    /// Live copies of this part's own slice across the cluster right
    /// now — below the configured replication factor while a repair is
    /// pending, zero when the slice is lost.
    pub live_copies: usize,
    /// Rerouted fetches this part served on behalf of dead owners.
    pub rerouted_served_requests: u64,
    /// Bytes it served for them.
    pub rerouted_served_bytes: u64,
}

/// A failed engine run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// An unrecoverable fabric failure on a live part: a shutdown race,
    /// an ownership violation, or retry exhaustion that failover could
    /// not mask.
    Fetch(FetchError),
    /// A part fail-stopped and no live replica holds its slice
    /// (replication < 2, or the deaths outlived the replicas with
    /// rebalance off): its roots — and any results it produced — are
    /// unrecoverable, so the run's counts cannot be trusted.
    PartLost {
        /// The part that fail-stopped.
        part: usize,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Fetch(e) => write!(f, "fetch failed: {e}"),
            EngineError::PartLost { part } => write!(
                f,
                "part {part} fail-stopped with no live replica to recover from \
                 (raise --replication, or leave --rebalance on so repairs \
                 outpace the next crash)"
            ),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Fetch(e) => Some(e),
            EngineError::PartLost { .. } => None,
        }
    }
}

/// Everything tied to one query submission, as opposed to the engine's
/// process-wide state (graph, fabric, caches, worker pool). Legacy
/// entry points ([`Engine::count`] and friends) synthesize one per call;
/// the resident service constructs them explicitly per tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryCtx {
    /// Unique id of this query; tags spans, wire requests, and per-query
    /// metrics. Must come from [`Engine::next_query_id`] (id 0 is the
    /// conventional unattributed bucket and never a real query).
    pub query_id: u64,
    /// Fairness quantum: how many claimed roots this query may race ahead
    /// of the least-served concurrent query before its claims are paced.
    /// Pacing only delays claims — counts stay bit-identical to a solo
    /// run regardless of the budget.
    pub root_budget: u64,
}

/// Default fairness quantum for queries that don't specify one.
pub const DEFAULT_ROOT_BUDGET: u64 = 4096;

impl From<FetchError> for EngineError {
    fn from(e: FetchError) -> Self {
        EngineError::Fetch(e)
    }
}

/// Engine configuration: the switches of the paper's §4–§6 that some
/// caller outside the tests sets — the CLI, a figure bin, an ablation
/// bench or the benchmark harness. A knob with one value in use is a
/// constant instead, as the 64-embedding mini-batch (§6) is.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Maximum embeddings per chunk (the chunk-size knob of §4.2/§7.7;
    /// the paper expresses it in bytes, which divides by the per-embedding
    /// footprint to the count used here).
    pub chunk_capacity: usize,
    /// Compute threads per part (the paper reserves one core in four for
    /// communication; here each part's coordinator submits and collects
    /// its own fetches between extension phases).
    pub compute_threads: usize,
    /// Horizontal data sharing within a chunk (§5.2; Figure 12 ablation).
    pub horizontal_sharing: bool,
    /// Circulant fetch ordering (§4.3; ablation switch).
    pub circulant: bool,
    /// Software cache configuration (§5.3; Table 6 / Figures 16–17).
    pub cache: CacheConfig,
    /// Optional network cost model applied to cross-machine fetches.
    pub network: Option<NetworkModel>,
    /// Request-fabric tuning: per-part in-flight window, retry policy,
    /// and optional fault injection. `window = 1` with no faults
    /// reproduces the old fully serialized transfer behaviour.
    pub fabric: FabricConfig,
    /// Run the simulated machines one after another instead of
    /// concurrently. On hosts with fewer cores than simulated machines
    /// this removes core-contention noise from the per-part timers, so
    /// [`RunStats::simulated_makespan`] estimates real-cluster runtime
    /// (used by the scalability experiments; see `EXPERIMENTS.md`).
    pub sequential_parts: bool,
    /// Observability: span tracing and histograms.
    /// Disabled by default; every record site then costs one branch on a
    /// relaxed atomic flag.
    pub obs: ObsConfig,
    /// Cross-part work stealing (§6's dynamic distribution generalized
    /// across parts): idle parts claim unvisited root ranges from loaded
    /// parts through a run-scoped ledger. Off by default so traffic
    /// comparisons stay deterministic; the CLI turns it on. Forced off
    /// under `sequential_parts` (an idle sequential part can never be
    /// refilled by a concurrently loaded one).
    pub steal: StealConfig,
    /// Which carrier runs the steal/claim control plane: shared-memory
    /// atomics (the default) or typed control messages over the cluster's
    /// channel layer, under `fabric`'s retry policy and fault plan.
    /// Both carriers produce bit-identical counts.
    pub control: ControlConfig,
    /// Incident capture: the bundle directory (off by default — no
    /// directory, no captures), the stall-watchdog window, and bundle
    /// retention.
    pub incident: IncidentConfig,
    /// Background re-replication after a fail-stop death: restore every
    /// short slice to the configured replication factor so a later
    /// crash of a different part stays survivable. On by default;
    /// effective only with replication ≥ 2 and more than one part.
    pub rebalance: RebalanceConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            chunk_capacity: 16 * 1024,
            compute_threads: 2,
            horizontal_sharing: true,
            circulant: true,
            cache: CacheConfig::default(),
            network: None,
            fabric: FabricConfig::default(),
            sequential_parts: false,
            obs: ObsConfig::default(),
            steal: StealConfig::default(),
            control: ControlConfig::default(),
            incident: IncidentConfig::default(),
            rebalance: RebalanceConfig::default(),
        }
    }
}

/// The Khuzdul distributed execution engine.
///
/// Owns the simulated cluster: the partitioned graph, the edge-list
/// service threads, and one software cache per part. A single engine can
/// run many plans (the caches persist across runs, as in the paper's
/// multi-pattern applications); [`Engine::shutdown`] stops the service.
#[derive(Debug)]
pub struct Engine {
    pg: PartitionedGraph,
    service: EdgeListService,
    caches: Vec<Arc<SharedCache>>,
    /// Idle run state, per part: chunk stacks and scratch that finished
    /// runs left behind for the next one.
    pub(crate) run_pools: Vec<StatePool>,
    /// The event stream: span ring, flight ring, histograms.
    recorder: Arc<Recorder>,
    /// Incident bundle capture over the recorder's flight ring (see
    /// [`IncidentConfig`]).
    incidents: Arc<IncidentManager>,
    /// Background re-replication service, running whenever rebalance is
    /// enabled, replication ≥ 2, and the cluster has several parts.
    /// `None` otherwise, and a slice whose every copy died fails at once.
    rebalancer: Option<Rebalancer>,
    cfg: EngineConfig,
    /// The persistent compute pool: `parts × compute_threads` workers,
    /// spawned once on the first multi-threaded run and parked between
    /// extend phases (and between runs) ever after. `None` until then and
    /// forever when `compute_threads <= 1`, which extends inline on the
    /// part coordinator.
    pool: OnceLock<WorkerPool>,
    /// Next query id; ids are unique per engine and never 0 (the
    /// unattributed bucket).
    next_query: AtomicU64,
    /// The progress trackers of the runs in flight, by query id: what
    /// paces them against each other, and what gates
    /// [`Engine::reset_caches`].
    live: LiveQueries,
    /// Recently finished trackers (bounded ring), for collectors that
    /// look the query up after the run returned.
    finished_progress: Mutex<std::collections::VecDeque<Arc<QueryProgress>>>,
}

impl Engine {
    /// Builds an engine over `pg` (which fixes machines × sockets).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.chunk_capacity` is zero (extension could never make
    /// progress).
    pub fn new(pg: PartitionedGraph, cfg: EngineConfig) -> Engine {
        assert!(cfg.chunk_capacity >= 1, "chunk capacity must be positive");
        // The flight ring keeps the stream's coarse events whenever
        // *either* full span tracing or incident capture wants them; with
        // both off it is the disabled stub and every record is a branch.
        let flight = if cfg.incident.dir.is_some() || cfg.obs.enabled {
            FlightRecorder::new(FLIGHT_CAPACITY)
        } else {
            FlightRecorder::disabled()
        };
        let recorder = Recorder::with_flight(&cfg.obs, flight);
        let fingerprint = config_fingerprint(&format!("{cfg:?}"));
        let incidents = IncidentManager::new(&cfg.incident, Arc::clone(&recorder), fingerprint);
        let service = EdgeListService::start_observed(
            &pg,
            cfg.network,
            cfg.fabric.clone(),
            Arc::clone(&recorder),
        );
        // Ranked ids ascend with degree: the static cache admits `v` by
        // its full degree when `v` is at or above this one id.
        let hot_from = pg.hot_from(cfg.cache.degree_threshold);
        let caches = (0..pg.part_count())
            .map(|_| {
                let sockets = pg.sockets_per_machine();
                Arc::new(SharedCache::for_part(&cfg.cache, sockets, pg.vertex_count(), hot_from))
            })
            .collect();
        // Self-healing: with replicas to restore toward, arm the grace
        // wait (dead-owner fetches briefly wait out an in-flight repair
        // instead of failing) and start the background rebalancer.
        let rebalancer = (cfg.rebalance.enabled && pg.replication() >= 2 && pg.part_count() > 1)
            .then(|| {
                service.arm_rebalance();
                Rebalancer::start(
                    service.clone(),
                    (0..pg.part_count()).map(|p| pg.part_arc(p)).collect(),
                    pg.replication(),
                    cfg.rebalance.clone(),
                    Arc::clone(&incidents),
                )
            });
        let parts = pg.part_count();
        Engine {
            pg,
            service,
            caches,
            run_pools: (0..parts).map(|_| StatePool::default()).collect(),
            recorder,
            incidents,
            rebalancer,
            cfg,
            pool: OnceLock::new(),
            next_query: AtomicU64::new(1),
            live: LiveQueries::default(),
            finished_progress: Mutex::new(std::collections::VecDeque::new()),
        }
    }

    /// Progress trackers of all in-flight queries, unordered.
    pub fn active_progress(&self) -> Vec<Arc<QueryProgress>> {
        self.live.trackers()
    }

    /// Removes and returns the finished tracker for `query_id`, if it is
    /// still in the bounded finished ring.
    pub fn take_finished_progress(&self, query_id: u64) -> Option<Arc<QueryProgress>> {
        let mut ring = self.finished_progress.lock();
        let idx = ring.iter().position(|p| p.query_id() == query_id)?;
        ring.remove(idx)
    }

    /// Number of query runs currently in flight.
    pub fn active_query_count(&self) -> usize {
        self.live.len()
    }

    /// Allocates a fresh query id (unique per engine, never 0).
    pub fn next_query_id(&self) -> u64 {
        self.next_query.fetch_add(1, Ordering::Relaxed)
    }

    /// A [`QueryCtx`] with a fresh id and the default fairness budget —
    /// what every legacy single-query entry point runs as.
    pub fn default_query(&self) -> QueryCtx {
        QueryCtx { query_id: self.next_query_id(), root_budget: DEFAULT_ROOT_BUDGET }
    }

    /// The partitioned graph the engine runs on.
    pub fn partitioned_graph(&self) -> &PartitionedGraph {
        &self.pg
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Cluster-wide communication metrics (monotonic across runs).
    pub fn metrics(&self) -> &ClusterMetrics {
        self.service.metrics()
    }

    /// The observability recorder (enabled per [`EngineConfig::obs`]).
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }

    /// The incident manager: the flight ring plus every bundle captured
    /// so far (see [`EngineConfig::incident`]).
    pub fn incidents(&self) -> &Arc<IncidentManager> {
        &self.incidents
    }

    /// Chrome trace-event JSON of every span recorded so far; load the
    /// written file in `chrome://tracing` or Perfetto.
    pub fn chrome_trace(&self) -> String {
        self.recorder.chrome_trace()
    }

    /// The versioned machine-readable report for `run`: the run's
    /// counters and breakdown plus the recorder's histograms and span
    /// accounting. `system` names the producer (e.g. `"khuzdul"`).
    pub fn report(&self, run: &RunStats, system: &str) -> RunReport {
        let mut report = run.to_report(system);
        self.recorder.augment_report(&mut report);
        report.incidents = self.incidents.incidents();
        report.rebalance = self.rebalance_section();
        report
    }

    /// One row per part of the replica-placement/health table served by
    /// `/status` and rendered by `gpm top`: liveness, the slices the
    /// part currently hosts copies of (its own plus replicas, including
    /// any installed by the rebalancer), how many live copies its own
    /// slice has right now, and the rerouted fetch traffic it has
    /// served on behalf of dead owners.
    pub fn part_health(&self) -> Vec<PartHealth> {
        let metrics = self.service.metrics();
        (0..self.pg.part_count())
            .map(|p| {
                let pm = metrics.part(p);
                PartHealth {
                    part: p,
                    alive: !self.service.is_part_dead(p),
                    hosted_slices: self.service.hosted_slices(p),
                    live_copies: self.service.live_copies(p),
                    rerouted_served_requests: pm.get(Counter::ReroutedServedRequests),
                    rerouted_served_bytes: pm.get(Counter::ReroutedServedBytes),
                }
            })
            .collect()
    }

    /// The report's self-healing section: rebalancer transfer totals,
    /// current routing epoch, the minimum live copy count over all
    /// slices (the "are we back to `r`?" answer), and each holder's
    /// share of the rerouted fetch traffic the spread-failover policy
    /// handed it.
    pub fn rebalance_section(&self) -> RebalanceSection {
        let n = self.pg.part_count();
        let metrics = self.service.metrics();
        let per_holder_rerouted: Vec<HolderReroute> = (0..n)
            .filter_map(|p| {
                let pm = metrics.part(p);
                let (requests, bytes) =
                    (pm.get(Counter::ReroutedServedRequests), pm.get(Counter::ReroutedServedBytes));
                (requests != 0 || bytes != 0).then_some(HolderReroute {
                    part: p as u64,
                    requests,
                    bytes,
                })
            })
            .collect();
        let stats = self.rebalancer.as_ref().map(|r| r.stats());
        RebalanceSection {
            enabled: self.rebalancer.is_some(),
            transfers: stats.map_or(0, |s| s.transfers()),
            bytes: stats.map_or(0, |s| s.bytes()),
            slices_restored: stats.map_or(0, |s| s.restored()),
            slices_lost: stats.map_or(0, |s| s.lost()),
            routing_epoch: self.service.routing_epoch(),
            configured_replication: self.pg.replication() as u64,
            min_effective_replication: (0..n)
                .map(|s| self.service.live_copies(s) as u64)
                .min()
                .unwrap_or(0),
            per_holder_rerouted,
        }
    }

    /// Names of the pooled compute threads, in spawn order (one
    /// `khuzdul-compute-{part}-{worker}` entry per worker). Empty until
    /// the first multi-threaded run spawns the pool, and stable across
    /// subsequent runs — the regression oracle that extend phases reuse
    /// pooled workers instead of spawning fresh threads.
    pub fn compute_thread_names(&self) -> Vec<String> {
        self.pool.get().map(|p| p.thread_names().to_vec()).unwrap_or_default()
    }

    /// Drops all cached edge lists (for between-run isolation in
    /// benchmarks), and the working state finished runs left pooled, and
    /// returns `true` if the caches were cleared.
    ///
    /// **Invariant**: clearing is only sound while no query is in flight.
    /// A run's resolve phase inserts into the caches concurrently, so a
    /// clear racing it interleaves with those inserts: entries admitted
    /// before the clear survive in [`Engine::cache_bytes`] accounting
    /// while their bytes were subtracted wholesale, undercounting the
    /// total. The method therefore refuses (returns `false`, caches
    /// untouched) unless the engine is query-quiescent; callers retry
    /// after draining their queries.
    pub fn reset_caches(&self) -> bool {
        if self.live.len() > 0 {
            return false;
        }
        for c in &self.caches {
            c.clear();
        }
        self.run_pools.iter().for_each(StatePool::release);
        true
    }

    /// Total bytes currently held by all part caches. Exact only while
    /// query-quiescent (see [`Engine::reset_caches`]); mid-run reads race
    /// concurrent inserts and may transiently lag.
    pub fn cache_bytes(&self) -> usize {
        self.caches.iter().map(|c| c.bytes()).sum()
    }

    /// Counts the embeddings `plan` produces over the whole cluster.
    ///
    /// # Panics
    ///
    /// Panics if the fabric reports an unrecoverable fault (see
    /// [`Engine::try_count`] for the non-panicking form).
    pub fn count(&self, plan: &MatchingPlan) -> RunStats {
        self.run(plan, None, None)
    }

    /// Like [`Engine::count`], but surfaces failures — shutdown races,
    /// ownership violations, retry exhaustion under fault injection, and
    /// unrecoverable part losses — as a typed [`EngineError`] instead of
    /// panicking.
    ///
    /// A fail-stop part failure with replication ≥ 2 is **not** an
    /// error: fetches fail over to replica holders, the dead part's
    /// partial results are discarded, and a recovery pass re-executes
    /// its lost roots on the survivors, so the returned counts are
    /// bit-identical to a fault-free run. The failover and re-execution
    /// volume is reported in [`RunStats::failures`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Fetch`] for a fabric failure no retry or
    /// failover masked, and [`EngineError::PartLost`] when a part dies
    /// with no live replica of its slice.
    pub fn try_count(&self, plan: &MatchingPlan) -> Result<RunStats, EngineError> {
        self.try_run(plan, None, None, None)
    }

    /// Enumerates embeddings, calling `visit` (possibly concurrently from
    /// many threads) with the matched vertices in matching-order
    /// positions, as ids of the graph the partitioned graph was built
    /// from.
    pub fn enumerate<F>(&self, plan: &MatchingPlan, visit: F) -> RunStats
    where
        F: Fn(&[VertexId]) + Sync,
    {
        self.run(plan, Some(&|m: &[VertexId]| self.in_input_ids(m, &visit)), None)
    }

    /// Enumerates embeddings with cooperative early termination: when
    /// `visit` returns `false`, the engine stops scheduling new work.
    /// In-flight extensions may still invoke `visit` a bounded number of
    /// times after the first `false` (the cancellation is cooperative,
    /// checked between work claims).
    ///
    /// Used by bounded queries: FSM's "support already above threshold"
    /// cut and exists-a-match queries.
    pub fn enumerate_until<F>(&self, plan: &MatchingPlan, visit: F) -> RunStats
    where
        F: Fn(&[VertexId]) -> bool + Sync,
    {
        let stop = std::sync::atomic::AtomicBool::new(false);
        let wrapped = |m: &[VertexId]| {
            if !self.in_input_ids(m, &visit) {
                stop.store(true, std::sync::atomic::Ordering::Relaxed);
            }
        };
        self.run(plan, Some(&wrapped), Some(&stop))
    }

    /// Calls `visit` with the ranked match `m` mapped back to the input
    /// graph's ids.
    fn in_input_ids<R>(&self, m: &[VertexId], visit: impl Fn(&[VertexId]) -> R) -> R {
        let mut ids = [0; MAX_PATTERN_VERTICES];
        for (id, &v) in ids.iter_mut().zip(m) {
            *id = self.pg.original_id(v);
        }
        visit(&ids[..m.len()])
    }

    /// Counts `plan` under an explicit [`QueryCtx`] — the resident
    /// service's entry point. Several such runs may execute concurrently
    /// on one engine: they share the worker pool, the fabric, and the
    /// caches, while each keeps its own root ledger, traffic accounting,
    /// and failure recovery.
    ///
    /// # Errors
    ///
    /// As [`Engine::try_count`].
    pub fn try_count_query(
        &self,
        plan: &MatchingPlan,
        query: &QueryCtx,
    ) -> Result<RunStats, EngineError> {
        self.try_run(plan, None, None, Some(*query))
    }

    fn run(
        &self,
        plan: &MatchingPlan,
        visitor: Option<Visitor<'_>>,
        stop: Option<&std::sync::atomic::AtomicBool>,
    ) -> RunStats {
        self.try_run(plan, visitor, stop, None).unwrap_or_else(|e| panic!("engine run failed: {e}"))
    }

    fn try_run(
        &self,
        plan: &MatchingPlan,
        visitor: Option<Visitor<'_>>,
        stop: Option<&std::sync::atomic::AtomicBool>,
        query: Option<QueryCtx>,
    ) -> Result<RunStats, EngineError> {
        let query = query.unwrap_or_else(|| self.default_query());
        let qid = query.query_id;
        self.recorder.event(qid, SpanKind::QueryAdmit, NO_PART, 0, 0);
        let parts = self.pg.part_count();
        // Live progress tracker: the root multiset size is known up front
        // (the union of each part's owned vertices), so a monotone
        // completion fraction falls out of the ledger's claim/retire
        // traffic. Registered for the whole run; the guard moves it to
        // the finished ring on every return path, so a failed query never
        // wedges its peers' pacing.
        let total: u64 = (0..parts).map(|p| self.pg.part(p).owned().len() as u64).sum();
        let progress = Arc::new(QueryProgress::new(qid, total, parts));
        self.live.admit(Arc::clone(&progress));
        let mut guard = QueryGuard { engine: self, qid, ok: false };
        let query_row = Arc::new(Counters::default());
        // Run-scoped scheduler state: the root ledger every part claims
        // its seed batches from (and steals through, when enabled).
        let stealing = self.cfg.steal.enabled && !self.cfg.sequential_parts && parts > 1;
        let owned = (0..parts).map(|p| self.pg.part(p).owned().to_vec()).collect();
        let numa = self.cfg.steal.numa.then(|| self.pg.sockets_per_machine().max(1));
        let ledger = self.make_ledger(owned, stealing, numa, qid, &query_row);
        // The persistent pool outlives the run; first multi-threaded run
        // pays the spawn cost, every later one reuses the parked workers.
        let pool = (self.cfg.compute_threads > 1).then(|| {
            self.pool
                .get_or_init(|| WorkerPool::new(parts, self.cfg.compute_threads, &self.recorder))
        });
        // The stall watchdog (started only with incident capture + a
        // window configured; joined on every return path) fires one
        // `stall` bundle if the tracker's claims and retirements freeze —
        // the wedged-run case no error path reaches.
        let _watchdog =
            StallWatchdog::start(&self.incidents, Arc::clone(&progress), Arc::clone(&ledger));
        let t0 = Instant::now();
        let make_ctx = |part: usize, ledger: &Arc<ControlPlane>| PartCtx {
            part: self.pg.part_arc(part),
            labels: self.pg.labels(),
            client: self.service.client_for_query(part, qid, &query_row),
            cache: Arc::clone(&self.caches[part]),
            plan,
            cfg: &self.cfg,
            my_part: part,
            part_count: parts,
            owner: self.pg.owner_map(),
            visitor,
            stop,
            obs: Arc::clone(&self.recorder),
            ledger: Arc::clone(ledger),
            gate: pool.map(|p| p.gate(part)),
            live: &self.live,
            root_budget: query.root_budget,
            progress: Arc::clone(&progress),
            pool: &self.run_pools[part],
        };
        // Per-part result slots: a part that aborts (fail-stop
        // self-check or a fetch error) leaves its slot empty.
        let mut slots: Vec<Option<PartStats>> = (0..parts).map(|_| None).collect();
        // First failure, tagged with the part that reported it: errors
        // from parts that turn out to be dead are the expected fail-stop
        // signal; errors from live parts are real.
        let mut failure: Option<(usize, FetchError)> = None;
        self.run_parts(&mut slots, &mut failure, (0..parts).collect(), |p| make_ctx(p, &ledger));
        // A failure run: every detected-dead part's results are discarded
        // wholesale and its roots re-executed on the survivors, making
        // counts bit-identical to a fault-free run (DESIGN.md §9).
        //
        // The pass itself is failover-capable: a part that crashes
        // *during* a recovery pass starts another round, which re-derives
        // what it took to its grave from the claim/donate logs of every
        // ledger used so far — its main-pass claims live in the original
        // ledger, its recovery-pass claims in that round's recovery
        // ledger. Each round kills at least one more part, so the loop is
        // bounded by `parts` (and exits earlier once the dead outnumber
        // the replicas).
        let mut all_dead: Vec<usize> = Vec::new();
        let mut ledgers: Vec<Arc<ControlPlane>> = vec![Arc::clone(&ledger)];
        let mut reexecuted_roots = 0u64;
        loop {
            let new_dead: Vec<usize> =
                self.service.dead_parts().into_iter().filter(|d| !all_dead.contains(d)).collect();
            if new_dead.is_empty() {
                break;
            }
            // A fail-stopped part's results are never trusted, including
            // whatever it contributed to earlier passes as a survivor.
            for &d in &new_dead {
                slots[d] = None;
            }
            all_dead.extend(&new_dead);
            all_dead.sort_unstable();
            // Survivability gate. With the rebalancer running, a death
            // only loses data if a slice's every copy died before a
            // repair landed: wait for the repairs this death triggered
            // to settle, then ask liveness per dead-owned slice. With
            // rebalance off, the static envelope holds verbatim — once
            // the dead reach the replication factor, some slice has no
            // copy left.
            let lost_part = match &self.rebalancer {
                Some(rb) => {
                    rb.wait_for(&new_dead);
                    all_dead.iter().copied().find(|&d| self.service.live_copies(d) == 0)
                }
                None if self.pg.replication() <= all_dead.len() => Some(new_dead[0]),
                None => None,
            };
            if let Some(part) = lost_part {
                self.capture_incident(
                    TriggerKind::PartLost,
                    qid,
                    Some(part as u64),
                    all_dead.len() as u64,
                    format!(
                        "part {part} fail-stopped with no live replica (replication {}, dead {:?})",
                        self.pg.replication(),
                        all_dead
                    ),
                    &ledger,
                );
                return Err(EngineError::PartLost { part });
            }
            match failure.take() {
                // A dead part aborting itself is expected, not an error.
                Some((from, _)) if all_dead.contains(&from) => {}
                Some((_, e)) => return Err(EngineError::Fetch(e)),
                None => {}
            }
            let mut lost: Vec<VertexId> = Vec::new();
            for l in &ledgers {
                lost.extend(l.lost_roots(&new_dead)?);
            }
            let n_lost = lost.len() as u64;
            reexecuted_roots += n_lost;
            progress.record_recovered(n_lost);
            // One bundle per recovery round: the crash is survivable
            // (replicas mask it), but the operator still wants the
            // incident — which part died, how many roots re-execute, and
            // what the scheduler looked like at that moment.
            self.capture_incident(
                TriggerKind::PartFailed,
                qid,
                Some(new_dead[0] as u64),
                n_lost,
                format!(
                    "part(s) {new_dead:?} fail-stopped; re-executing {n_lost} lost roots \
                     on the survivors"
                ),
                &ledger,
            );
            let rts = self.recorder.now_ns();
            let recovery = self.make_recovery_ledger(lost, qid, &query_row, &all_dead);
            ledgers.push(Arc::clone(&recovery));
            let survivors: Vec<usize> = (0..parts).filter(|p| !all_dead.contains(p)).collect();
            self.run_parts(&mut slots, &mut failure, survivors, |p| make_ctx(p, &recovery));
            self.recorder.span(qid, SpanKind::Recovery, new_dead[0] as u32, rts, n_lost, 0);
        }
        if let Some((_, e)) = failure {
            return Err(EngineError::Fetch(e));
        }
        // Dead parts report zeroed stats: everything they did was
        // discarded and re-executed elsewhere.
        for &d in &all_dead {
            slots[d] = Some(PartStats::default());
        }
        let per_part: Vec<PartStats> =
            slots.into_iter().map(|s| s.expect("every live part reports stats")).collect();
        let elapsed = t0.elapsed();
        // Every client this run used counted into `query_row`, so it holds
        // exactly this query's traffic even with other queries running
        // concurrently.
        let counted = query_row.snapshot();
        let stats = RunStats {
            count: per_part.iter().map(|p| p.count).sum(),
            elapsed,
            per_part,
            traffic: TrafficSummary::from(&counted),
            failures: FailureSection {
                // Dead parts observed by the end of this query's run; a
                // query admitted after a crash still pays the failover
                // and recovery for it, so it reports the failure too.
                parts_failed: all_dead.len() as u64,
                reexecuted_roots,
                ..FailureSection::from(&counted)
            },
            control: ControlSection::from(&counted),
        };
        progress.mark_done();
        guard.ok = true;
        Ok(stats)
    }

    /// Captures one incident bundle with the engine-wide context
    /// sections: every live query's progress snapshot, the cluster
    /// counter totals, and the triggering run's ledger state. The
    /// sections are built only when capture is enabled; the trigger's
    /// flight event is recorded either way.
    fn capture_incident(
        &self,
        kind: TriggerKind,
        qid: u64,
        part: Option<u64>,
        value: u64,
        detail: String,
        ledger: &Arc<ControlPlane>,
    ) {
        let sections = if self.incidents.enabled() {
            CaptureSections {
                progress: self.active_progress().iter().map(|p| p.snapshot()).collect(),
                counters: Some(counter_snapshot(&self.service.metrics().totals())),
                ledger: Some(ledger.state_summary()),
            }
        } else {
            CaptureSections::default()
        };
        self.incidents.capture(Trigger::new(kind, qid, part, value, detail), sections);
    }

    /// Builds a run-scoped control plane over one root list per part, in
    /// the configured carrier. Both carriers deliver to the same ledger
    /// state machine, so counts are bit-identical either way.
    fn make_ledger(
        &self,
        roots: Vec<Vec<VertexId>>,
        stealing: bool,
        numa: Option<usize>,
        qid: u64,
        query_row: &Arc<Counters>,
    ) -> Arc<ControlPlane> {
        let cfg = ControlLedgerConfig {
            stealing,
            batch: self.cfg.steal.batch.max(1),
            numa,
            retry: self.cfg.fabric.retry,
            fault: self.cfg.fabric.fault.clone(),
            query: qid,
        };
        Arc::new(ControlPlane::start(
            roots,
            cfg,
            self.cfg.control.mode,
            self.service.metrics(),
            query_row,
            Arc::clone(&self.recorder),
            Some(Arc::clone(&self.incidents)),
        ))
    }

    /// A control plane for a recovery pass: the same ledger over
    /// different root lists. Lost roots are **placed**, not spilled: each
    /// survivor gets a share inversely weighted by its current load
    /// (the rerouted-fetch service it has served, in KiB) as its own range,
    /// so recovery work lands on the parts that are not already busy
    /// serving the dead part's traffic. Stealing is forced on, so a bad
    /// estimate costs a steal, never a stall.
    fn make_recovery_ledger(
        &self,
        lost: Vec<VertexId>,
        qid: u64,
        query_row: &Arc<Counters>,
        dead: &[usize],
    ) -> Arc<ControlPlane> {
        let metrics = self.service.metrics();
        let loads: Vec<u64> = (0..self.pg.part_count())
            .map(|p| metrics.part(p).get(Counter::ReroutedServedBytes) / 1024)
            .collect();
        self.make_ledger(place_recovery_roots(lost, &loads, dead), true, None, qid, query_row)
    }

    /// Runs `run_part` for each part in `run`, sequentially or
    /// concurrently per the config. A part's stats are **merged** into
    /// its slot (the recovery pass adds to the survivor's main-pass
    /// stats); errors land in `failure` (first one wins) with the part
    /// that reported them, and all requested parts always run to
    /// completion — under failover a sibling's error must not strand
    /// the rest.
    fn run_parts<'e>(
        &self,
        slots: &mut [Option<PartStats>],
        failure: &mut Option<(usize, FetchError)>,
        run: Vec<usize>,
        make_ctx: impl Fn(usize) -> PartCtx<'e>,
    ) {
        let mut record = |part: usize, outcome: Result<PartStats, FetchError>| match outcome {
            Ok(stats) => match &mut slots[part] {
                Some(s) => s.merge(&stats),
                none => *none = Some(stats),
            },
            Err(e) => {
                failure.get_or_insert((part, e));
            }
        };
        if self.cfg.sequential_parts {
            for part in run {
                let outcome = run_part(make_ctx(part));
                record(part, outcome);
            }
        } else {
            let mut outcomes: Vec<(usize, Result<PartStats, FetchError>)> =
                Vec::with_capacity(run.len());
            crossbeam::thread::scope(|s| {
                let mut handles = Vec::with_capacity(run.len());
                for &part in &run {
                    let ctx = make_ctx(part);
                    handles.push((
                        part,
                        s.builder()
                            .name(format!("khuzdul-part-{part}"))
                            .spawn(move |_| run_part(ctx))
                            .expect("spawn part coordinator"),
                    ));
                }
                // Join every part before reporting: a failing part must
                // not leave siblings running against a dead fabric.
                for (part, h) in handles {
                    outcomes.push((part, h.join().expect("part coordinator panicked")));
                }
            })
            .expect("engine scope");
            for (part, outcome) in outcomes {
                record(part, outcome);
            }
        }
    }

    /// Stops the cluster service threads.
    ///
    /// Optional: dropping the engine shuts the service down too (and the
    /// shutdown is idempotent), so an early `?`-return that skips this
    /// call no longer leaks the responder threads or the parked worker
    /// pool. Kept for call sites that want the stop to be explicit.
    pub fn shutdown(self) {
        // Drop does the work.
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Idempotent: harmless after an explicit `shutdown()`. The worker
        // pool's own `Drop` (a field of `self`) then joins the parked
        // compute threads.
        self.service.shutdown();
    }
}

/// Moves a run's tracker out of the live map into the finished ring (which
/// wakes paced peers), and records its `query_complete` event, on every
/// exit path, error or success.
struct QueryGuard<'a> {
    engine: &'a Engine,
    qid: u64,
    /// Set just before a successful return; the event's arg.
    ok: bool,
}

impl Drop for QueryGuard<'_> {
    fn drop(&mut self) {
        let recorder = &self.engine.recorder;
        recorder.event(self.qid, SpanKind::QueryComplete, NO_PART, u64::from(self.ok), 0);
        // The bounded finished ring keeps the tracker, so a collector can
        // still attach it to the query outcome after the run returned —
        // on success *and* error paths alike.
        if let Some(p) = self.engine.live.leave(self.qid) {
            let mut ring = self.engine.finished_progress.lock();
            ring.push_back(p);
            while ring.len() > FINISHED_PROGRESS_CAP {
                ring.pop_front();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CachePolicy;
    use crate::control::ControlMode;
    use crate::test_support::ranked_visits;
    use gpm_graph::gen;
    use gpm_pattern::oracle;
    use gpm_pattern::plan::PlanOptions;
    use gpm_pattern::Pattern;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    fn engine_for(g: &gpm_graph::Graph, machines: usize, sockets: usize) -> Engine {
        let pg = PartitionedGraph::new(g, machines, sockets);
        Engine::new(pg, EngineConfig::default())
    }

    fn plan(p: &Pattern) -> MatchingPlan {
        MatchingPlan::compile(p, &PlanOptions::automine()).unwrap()
    }

    #[test]
    fn triangle_count_matches_oracle() {
        let g = gen::erdos_renyi(200, 900, 3);
        let expect = oracle::count_subgraphs(&g, &Pattern::triangle(), false);
        let engine = engine_for(&g, 4, 1);
        let run = engine.count(&plan(&Pattern::triangle()));
        assert_eq!(run.count, expect);
        assert!(run.traffic.network_bytes > 0, "distributed run must communicate");
        engine.shutdown();
    }

    #[test]
    fn clique_counts_match_oracle() {
        let g = gen::erdos_renyi(120, 900, 5);
        let engine = engine_for(&g, 3, 1);
        for k in [3usize, 4, 5] {
            let p = Pattern::clique(k);
            let expect = oracle::count_subgraphs(&g, &p, false);
            assert_eq!(engine.count(&plan(&p)).count, expect, "k = {k}");
        }
        engine.shutdown();
    }

    #[test]
    fn skewed_graph_patterns() {
        let g = gen::barabasi_albert(400, 4, 11);
        let engine = engine_for(&g, 4, 1);
        for p in [
            Pattern::triangle(),
            Pattern::path(4),
            Pattern::cycle(4),
            Pattern::tailed_triangle(),
            Pattern::clique(4),
        ] {
            let expect = oracle::count_subgraphs(&g, &p, false);
            assert_eq!(engine.count(&plan(&p)).count, expect, "pattern {p}");
        }
        engine.shutdown();
    }

    #[test]
    fn counts_invariant_under_machine_count() {
        let g = gen::erdos_renyi(150, 700, 9);
        let p = Pattern::cycle(4);
        let expect = oracle::count_subgraphs(&g, &p, false);
        for machines in [1, 2, 3, 5, 8] {
            let engine = engine_for(&g, machines, 1);
            assert_eq!(engine.count(&plan(&p)).count, expect, "{machines} machines");
            engine.shutdown();
        }
    }

    #[test]
    fn counts_invariant_under_partitioner() {
        use gpm_graph::partition::Partitioner;
        let g = gen::barabasi_albert(250, 5, 15);
        let p = Pattern::clique(4);
        let expect = oracle::count_subgraphs(&g, &p, false);
        for strategy in [Partitioner::Hash, Partitioner::Range] {
            let pg = PartitionedGraph::with_partitioner(&g, 4, 1, strategy);
            let engine = Engine::new(pg, EngineConfig::default());
            assert_eq!(engine.count(&plan(&p)).count, expect, "{strategy:?}");
            engine.shutdown();
        }
    }

    #[test]
    fn counts_invariant_under_numa_sockets() {
        let g = gen::erdos_renyi(150, 700, 2);
        let p = Pattern::clique(4);
        let expect = oracle::count_subgraphs(&g, &p, false);
        for sockets in [1, 2, 4] {
            let engine = engine_for(&g, 2, sockets);
            assert_eq!(engine.count(&plan(&p)).count, expect, "{sockets} sockets");
            engine.shutdown();
        }
    }

    #[test]
    fn counts_invariant_under_chunk_capacity() {
        // Tiny chunks force deep pause/resume chains — the paper's Fig 7
        // execution — and must not change results.
        let g = gen::barabasi_albert(150, 4, 3);
        let p = Pattern::clique(4);
        let expect = oracle::count_subgraphs(&g, &p, false);
        for cap in [2usize, 7, 64, 1024, 1 << 20] {
            let pg = PartitionedGraph::new(&g, 3, 1);
            let engine =
                Engine::new(pg, EngineConfig { chunk_capacity: cap, ..EngineConfig::default() });
            assert_eq!(engine.count(&plan(&p)).count, expect, "capacity {cap}");
            engine.shutdown();
        }
    }

    #[test]
    fn counts_invariant_under_thread_count() {
        let g = gen::erdos_renyi(200, 1200, 4);
        let p = Pattern::clique(4);
        let expect = oracle::count_subgraphs(&g, &p, false);
        for threads in [1usize, 2, 4] {
            let pg = PartitionedGraph::new(&g, 2, 1);
            let engine = Engine::new(
                pg,
                EngineConfig { compute_threads: threads, ..EngineConfig::default() },
            );
            assert_eq!(engine.count(&plan(&p)).count, expect, "{threads} threads");
            engine.shutdown();
        }
    }

    #[test]
    fn counts_invariant_under_sharing_toggles() {
        let g = gen::barabasi_albert(250, 5, 6);
        let p = Pattern::clique(4);
        let expect = oracle::count_subgraphs(&g, &p, false);
        for horizontal in [false, true] {
            for circulant in [false, true] {
                let pg = PartitionedGraph::new(&g, 4, 1);
                let engine = Engine::new(
                    pg,
                    EngineConfig {
                        horizontal_sharing: horizontal,
                        circulant,
                        ..EngineConfig::default()
                    },
                );
                assert_eq!(engine.count(&plan(&p)).count, expect);
                engine.shutdown();
            }
        }
    }

    #[test]
    fn counts_invariant_under_cache_policy() {
        let g = gen::barabasi_albert(200, 5, 8);
        let p = Pattern::triangle();
        let expect = oracle::count_subgraphs(&g, &p, false);
        for policy in [
            CachePolicy::Disabled,
            CachePolicy::Static,
            CachePolicy::Fifo,
            CachePolicy::Lifo,
            CachePolicy::Lru,
            CachePolicy::Mru,
        ] {
            let pg = PartitionedGraph::new(&g, 4, 1);
            let engine = Engine::new(
                pg,
                EngineConfig {
                    cache: CacheConfig { policy, ..CacheConfig::default() },
                    ..EngineConfig::default()
                },
            );
            assert_eq!(engine.count(&plan(&p)).count, expect, "{policy:?}");
            engine.shutdown();
        }
    }

    #[test]
    fn clamped_fetches_are_exact_and_cached_at_their_bound() {
        // Every connected pattern of up to five vertices, induced or not,
        // on a plain graph and on a labelled one, over 2 and 3 parts, with
        // and without the share table, under no cache, a static cache
        // whose threshold splits the degrees, one with a lower threshold
        // small enough to fill within the first plans (the hubs' ranked
        // windows are short), and a FIFO cache (which admits
        // any list): the count is the oracle's, the visited multiset the
        // interpreter's, and after every run each list a cache holds is
        // its owner's adjacency above the bound the entry records — and
        // some entries are cut.
        use gpm_pattern::genpat;
        let plain = gen::barabasi_albert(30, 4, 3);
        assert!(plain.max_degree() >= 16 && plain.vertices().any(|v| plain.degree(v) < 16));
        let labelled = gen::with_random_labels(&plain, 2, 5);
        let (mut bounded, mut cut) = (0, 0);
        for g in [&plain, &labelled] {
            let mut plans = Vec::new();
            for k in 1..=5 {
                for p in genpat::connected_patterns(k) {
                    let p = if g.labels().is_some() {
                        p.with_labels((0..k as u16).map(|i| i % 2).collect()).unwrap()
                    } else {
                        p
                    };
                    for induced in [false, true] {
                        let opts = PlanOptions { induced, ..PlanOptions::automine() };
                        let plan = MatchingPlan::compile(&p, &opts).unwrap();
                        let expect = oracle::count_subgraphs(g, &p, induced);
                        let want = ranked_visits(g, &plan);
                        assert_eq!(want.len() as u64, expect, "{p}");
                        let last = plan.last_fetched_level();
                        bounded += usize::from(
                            plan.depth() > 1
                                && (0..=last).any(|l| plan.fetch_bound(l).is_bounded()),
                        );
                        plans.push((plan, expect, want));
                    }
                }
            }
            assert_eq!(plans.len(), 2 * 31);
            // The ids the parts and the caches hold.
            let ranked = gpm_graph::rank::rank_by_degree(g).0;
            for parts in [2, 3] {
                for horizontal_sharing in [true, false] {
                    for cache in [
                        CacheConfig::disabled(),
                        CacheConfig { degree_threshold: 16, ..CacheConfig::default() },
                        CacheConfig {
                            degree_threshold: 8,
                            capacity_per_machine: 40,
                            ..CacheConfig::default()
                        },
                        CacheConfig { policy: CachePolicy::Fifo, ..CacheConfig::default() },
                    ] {
                        let engine = Engine::new(
                            PartitionedGraph::new(g, parts, 1),
                            EngineConfig {
                                horizontal_sharing,
                                cache,
                                compute_threads: 1,
                                ..EngineConfig::default()
                            },
                        );
                        for (plan, expect, want) in &plans {
                            let what = format!(
                                "{parts} parts, sharing {horizontal_sharing}, {:?}\n{}",
                                cache.policy,
                                plan.describe()
                            );
                            assert_eq!(engine.count(plan).count, *expect, "counted: {what}");
                            let seen = Mutex::new(Vec::new());
                            let run = engine.enumerate(plan, |m| seen.lock().push(m.to_vec()));
                            let mut seen = seen.into_inner();
                            seen.sort_unstable();
                            assert_eq!(run.count, *expect, "enumerated: {what}");
                            assert!(seen == *want, "visited multiset differs: {what}");
                            for (v, entry) in engine.caches.iter().flat_map(|c| c.snapshot().1) {
                                let list = ranked.neighbors(v);
                                let want = gpm_graph::set_ops::clamp(list, entry.above, None);
                                assert_eq!(&entry[..], want, "{v} above {:?}: {what}", entry.above);
                                cut += usize::from(entry.len() < list.len());
                            }
                        }
                        if cache.capacity_per_machine == 40 {
                            let full = engine.caches.iter().any(|c| c.snapshot().0);
                            assert!(full, "no small cache filled");
                        }
                        engine.shutdown();
                    }
                }
            }
        }
        assert!(bounded > 20, "only {bounded} plans fetch a bounded list");
        assert!(cut > 0, "no cache held a cut list");
    }

    /// Runs the triangle, 4-clique, 4-cycle and diamond over `g` on 2 and
    /// 3 parts, with and without the share table, under each of `caches`:
    /// the count must be the oracle's and the visited multiset the
    /// interpreter's. Returns, per run, what it was and the bitmaps the
    /// walks were handed with owned, cached and fetched lists.
    fn bitmaps_by_home(g: &gpm_graph::Graph, caches: &[CacheConfig]) -> Vec<(String, [u64; 3])> {
        let patterns =
            [Pattern::triangle(), Pattern::clique(4), Pattern::cycle(4), Pattern::diamond()];
        let plans: Vec<_> = patterns
            .iter()
            .map(|p| {
                let plan = plan(p);
                let want = ranked_visits(g, &plan);
                assert_eq!(want.len() as u64, oracle::count_subgraphs(g, p, false), "{p}");
                (plan, want)
            })
            .collect();
        let mut runs = Vec::new();
        for parts in [2, 3] {
            for horizontal_sharing in [true, false] {
                for &cache in caches {
                    let what = format!("{parts} parts, sharing {horizontal_sharing}, {cache:?}");
                    let engine = Engine::new(
                        PartitionedGraph::new(g, parts, 1),
                        EngineConfig { horizontal_sharing, cache, ..EngineConfig::default() },
                    );
                    for (plan, want) in &plans {
                        let what = format!("{what}\n{}", plan.describe());
                        assert_eq!(engine.count(plan).count, want.len() as u64, "{what}");
                        let seen = Mutex::new(Vec::new());
                        engine.enumerate(plan, |m| seen.lock().push(m.to_vec()));
                        let mut seen = seen.into_inner();
                        seen.sort_unstable();
                        assert!(seen == *want, "visited multiset differs: {what}");
                    }
                    let handed = engine.run_pools.iter().fold([0; 3], |sum, pool| {
                        let handed = pool.bitmaps_handed();
                        [0, 1, 2].map(|home| sum[home] + handed[home])
                    });
                    engine.shutdown();
                    runs.push((what, handed));
                }
            }
        }
        runs
    }

    #[test]
    fn hot_lists_probed_from_every_home_keep_counts_exact() {
        // An R-MAT graph whose hubs are hot (degree × 32 ≥ 256: eight and
        // up) and whose tail is cold, under no cache, a static cache that
        // admits degree 16 and up (so hot lists of degree 8-15 are always
        // fetched, cut above their bound) and a FIFO cache small enough
        // to evict while walks hold its lists: the walks were handed
        // bitmaps of owned lists, of fetched lists and, wherever a cache
        // admits, of cached ones.
        let g = gen::rmat(8, 8, (0.57, 0.19, 0.19), 5);
        let hot = |v| gpm_graph::set_ops::is_hot(g.degree(v) as usize, None, g.vertex_count());
        let hubs = g.vertices().filter(|&v| hot(v)).count();
        assert!(hubs > 10 && hubs < g.vertex_count() / 2, "{hubs} hot lists");
        assert!(g.vertices().any(|v| hot(v) && g.degree(v) < 16));
        let caches = [
            CacheConfig::disabled(),
            CacheConfig { degree_threshold: 16, ..CacheConfig::default() },
            CacheConfig {
                policy: CachePolicy::Fifo,
                capacity_per_machine: 1024,
                degree_threshold: 1,
            },
        ];
        for (what, [owned, cached, fetched]) in bitmaps_by_home(&g, &caches) {
            let caches = !what.contains("Disabled");
            assert!(owned > 0 && fetched > 0, "{owned} owned, {fetched} fetched: {what}");
            assert_eq!(cached > 0, caches, "{cached} cached: {what}");
        }
    }

    #[test]
    fn windows_above_a_high_bound_are_probed_where_no_whole_list_is_hot() {
        // K20 on top of a sparse random graph of 1024 vertices: no list is
        // hot whole (degree × 32 < 1024), but once ranked the clique holds
        // the top ids, so a member's window cut above another member can
        // hold at most 19 ids and is hot from one entry up. Those windows,
        // fetched and cached, are probed through bitmaps of their own span;
        // the FIFO cache is small enough to evict while walks hold them.
        let mut b = gpm_graph::GraphBuilder::new(1024);
        b.extend_edges(gen::erdos_renyi(1024, 1500, 9).edges());
        for u in 0..20 {
            b.extend_edges((u + 1..20).map(|v| (u, v)));
        }
        let g = b.build();
        let n = g.vertex_count();
        assert!(g.vertices().all(|v| !gpm_graph::set_ops::is_hot(g.degree(v) as usize, None, n)));
        let caches = [
            CacheConfig::disabled(),
            CacheConfig { degree_threshold: 16, ..CacheConfig::default() },
            CacheConfig {
                policy: CachePolicy::Fifo,
                capacity_per_machine: 256,
                degree_threshold: 1,
            },
        ];
        for (what, [owned, cached, fetched]) in bitmaps_by_home(&g, &caches) {
            let caches = !what.contains("Disabled");
            assert!(owned == 0 && fetched > 0, "{owned} owned, {fetched} fetched: {what}");
            assert_eq!(cached > 0, caches, "{cached} cached: {what}");
        }
    }

    #[test]
    fn horizontal_sharing_reduces_fetch_workload() {
        // The share table is the one dedup before the wire (§5.2): without
        // it, every embedding of a fill waiting for the same vertex asks
        // for the list again, and every copy crosses the network.
        let g = gen::barabasi_albert(300, 6, 1);
        let p = Pattern::clique(4);
        let mk = |horizontal: bool| {
            let pg = PartitionedGraph::new(&g, 4, 1);
            let engine = Engine::new(
                pg,
                EngineConfig {
                    horizontal_sharing: horizontal,
                    cache: CacheConfig::disabled(),
                    ..EngineConfig::default()
                },
            );
            let run = engine.count(&plan(&p));
            engine.shutdown();
            run
        };
        let with = mk(true);
        let without = mk(false);
        assert_eq!(with.count, without.count);
        assert!(
            with.traffic.network_bytes < without.traffic.network_bytes,
            "horizontal sharing must cut traffic ({} vs {})",
            with.traffic.network_bytes,
            without.traffic.network_bytes
        );
        // With the table on, a 4-clique child whose list its parent's fill
        // holds is walked on it, so a bottom chunk may fetch nothing and
        // send no request (12 against 24 here); without it every fill asks.
        assert!(
            with.traffic.requests <= without.traffic.requests,
            "sharing must not add requests ({} vs {})",
            with.traffic.requests,
            without.traffic.requests
        );
        assert!(with.traffic.coalesced > 0, "nothing shared");
        assert_eq!(without.traffic.coalesced, 0, "something shared with sharing off");
    }

    #[test]
    fn larger_window_reduces_network_wait() {
        use std::time::Duration;
        // With a network model attached, window=1 pays the full modelled
        // delay per transfer back-to-back (the old blocking behaviour);
        // window=8 keeps several transfers in flight so their modelled
        // delays overlap and the summed network wait drops.
        let g = gen::barabasi_albert(300, 6, 23);
        let p = Pattern::clique(4);
        let mk = |window: usize| {
            let pg = PartitionedGraph::new(&g, 4, 1);
            let engine = Engine::new(
                pg,
                EngineConfig {
                    network: Some(NetworkModel { latency_us: 2000.0, bandwidth_gbps: 56.0 }),
                    sequential_parts: true,
                    cache: CacheConfig::disabled(),
                    fabric: FabricConfig { window, ..FabricConfig::default() },
                    ..EngineConfig::default()
                },
            );
            let run = engine.count(&plan(&p));
            engine.shutdown();
            run
        };
        let serial = mk(1);
        let windowed = mk(8);
        assert_eq!(serial.count, windowed.count);
        assert_eq!(serial.traffic.network_bytes, windowed.traffic.network_bytes);
        let wait = |r: &RunStats| r.per_part.iter().map(|p| p.network).sum::<Duration>();
        let (s, w) = (wait(&serial), wait(&windowed));
        assert!(
            s.as_secs_f64() > w.as_secs_f64() * 1.3,
            "window=8 must overlap transfers (window=1 waited {s:?}, window=8 waited {w:?})"
        );
    }

    #[test]
    fn counts_survive_dropped_replies() {
        use gpm_cluster::{FaultPlan, RetryPolicy};
        use std::time::Duration;
        let g = gen::erdos_renyi(150, 700, 5);
        let p = Pattern::triangle();
        let expect = oracle::count_subgraphs(&g, &p, false);
        let pg = PartitionedGraph::new(&g, 4, 1);
        let engine = Engine::new(
            pg,
            EngineConfig {
                // Small chunks, so the run makes a couple of hundred wire
                // requests: at a dozen, "5 % of them were dropped" is a
                // coin flip.
                chunk_capacity: 8,
                fabric: FabricConfig {
                    window: 4,
                    retry: RetryPolicy {
                        max_attempts: 10,
                        timeout: Duration::from_millis(30),
                        backoff: Duration::from_micros(500),
                    },
                    fault: Some(FaultPlan::drops(0.05)),
                },
                ..EngineConfig::default()
            },
        );
        let run = engine.try_count(&plan(&p)).expect("retries must mask 5% dropped replies");
        assert_eq!(run.count, expect);
        assert!(run.traffic.retries > 0, "the fault plan must actually have dropped replies");
        engine.shutdown();
    }

    #[test]
    fn exhausted_retries_surface_as_typed_error() {
        use gpm_cluster::{FaultPlan, RetryPolicy};
        use std::time::Duration;
        let g = gen::erdos_renyi(100, 500, 3);
        let pg = PartitionedGraph::new(&g, 2, 1);
        let engine = Engine::new(
            pg,
            EngineConfig {
                fabric: FabricConfig {
                    window: 2,
                    retry: RetryPolicy {
                        max_attempts: 2,
                        timeout: Duration::from_millis(5),
                        backoff: Duration::from_micros(100),
                    },
                    fault: Some(FaultPlan::drops(1.0)),
                },
                ..EngineConfig::default()
            },
        );
        match engine.try_count(&plan(&Pattern::triangle())) {
            Err(EngineError::Fetch(FetchError::Timeout { .. })) => {}
            other => panic!("expected a timeout error, got {other:?}"),
        }
        engine.shutdown();
    }

    /// Short-fuse retry policy for crash tests: in-flight requests that
    /// the dying responder abandons must time out quickly so the pending
    /// fetch resubmits, sees `PartDead`, and fails over.
    fn crash_retry() -> gpm_cluster::RetryPolicy {
        use std::time::Duration;
        gpm_cluster::RetryPolicy {
            max_attempts: 4,
            timeout: Duration::from_millis(50),
            backoff: Duration::from_millis(1),
        }
    }

    #[test]
    fn crashed_part_fails_over_and_recovers_exact_counts() {
        use gpm_cluster::FaultPlan;
        let g = gen::erdos_renyi(150, 700, 5);
        let p = Pattern::triangle();
        let expect = oracle::count_subgraphs(&g, &p, false);
        for steal in [false, true] {
            let pg = PartitionedGraph::with_replication(&g, 4, 1, 2);
            let victim_roots = pg.part(2).owned().len() as u64;
            let engine = Engine::new(
                pg,
                EngineConfig {
                    // Small chunks split the fetch workload into many wire
                    // requests so the crash lands mid-run, with live
                    // fetches still headed for the dead part.
                    chunk_capacity: 64,
                    steal: StealConfig { enabled: steal, batch: 8, ..StealConfig::default() },
                    obs: ObsConfig::enabled(),
                    fabric: FabricConfig {
                        retry: crash_retry(),
                        fault: Some(FaultPlan::crash_at(2, 4)),
                        ..FabricConfig::default()
                    },
                    ..EngineConfig::default()
                },
            );
            let run = engine.try_count(&plan(&p)).expect("a replica must mask the crash");
            assert_eq!(run.count, expect, "steal={steal}");
            // The failure must be visible in the run stats: the dead part
            // was detected, traffic was re-routed to the replica holder,
            // and every root of the dead part ran on a survivor.
            assert_eq!(run.failures.parts_failed, 1, "steal={steal}");
            assert!(run.failures.rerouted_requests > 0, "steal={steal}");
            assert!(run.failures.rerouted_bytes > 0, "steal={steal}");
            let reexecuted = run.failures.reexecuted_roots;
            if steal {
                // A part whose responder dies before its coordinator's
                // first claim sees its own death and claims nothing, and
                // the survivors may steal its whole range before the
                // recovery pass: then nothing is re-executed. Every root
                // it owned was re-executed or stolen by a survivor.
                let stolen: u64 = run.per_part.iter().map(|p| p.roots_stolen).sum();
                assert!(reexecuted + stolen >= victim_roots, "{reexecuted} + {stolen}");
            } else {
                // Nobody else may claim its roots: all of them re-execute,
                // those it claimed and those it never reached.
                assert_eq!(reexecuted, victim_roots);
            }
            let report = engine.report(&run, "khuzdul");
            assert_eq!(report.failures.parts_failed, 1);
            assert_eq!(report.failures.rerouted_bytes, run.failures.rerouted_bytes);
            assert_eq!(report.failures.reexecuted_roots, run.failures.reexecuted_roots);
            gpm_obs::validate_report(&report.to_json()).expect("crash-run report must validate");
            let spans = engine.recorder().spans();
            for kind in [SpanKind::PartCrash, SpanKind::PartFailed, SpanKind::Recovery] {
                assert!(spans.iter().any(|s| s.kind == kind), "missing {kind:?} span");
            }
            engine.shutdown();
        }
    }

    #[test]
    fn crash_without_a_replica_is_part_lost() {
        use gpm_cluster::FaultPlan;
        let g = gen::erdos_renyi(150, 700, 5);
        let pg = PartitionedGraph::new(&g, 4, 1); // replication = 1
        let engine = Engine::new(
            pg,
            EngineConfig {
                chunk_capacity: 64,
                fabric: FabricConfig {
                    retry: crash_retry(),
                    fault: Some(FaultPlan::crash_at(2, 4)),
                    ..FabricConfig::default()
                },
                ..EngineConfig::default()
            },
        );
        match engine.try_count(&plan(&Pattern::triangle())) {
            Err(EngineError::PartLost { part: 2 }) => {}
            other => panic!("expected PartLost for part 2, got {other:?}"),
        }
        engine.shutdown();
    }

    #[test]
    fn immediate_crash_recovers_the_whole_partition() {
        use gpm_cluster::FaultPlan;
        // `after_requests: 0` kills part 1 on the very first fetch that
        // targets it, so essentially all of its work is re-executed.
        let g = gen::erdos_renyi(120, 500, 7);
        let p = Pattern::triangle();
        let expect = oracle::count_subgraphs(&g, &p, false);
        let pg = PartitionedGraph::with_replication(&g, 3, 1, 2);
        let engine = Engine::new(
            pg,
            EngineConfig {
                fabric: FabricConfig {
                    retry: crash_retry(),
                    fault: Some(FaultPlan::crash_at(1, 0)),
                    ..FabricConfig::default()
                },
                ..EngineConfig::default()
            },
        );
        let run = engine.try_count(&plan(&p)).expect("a replica must mask the crash");
        assert_eq!(run.count, expect);
        assert!(run.failures.reexecuted_roots > 0);
        // The dead part reports no stats of its own: its slot is zeroed
        // and the re-executed work lands on the survivors.
        assert_eq!(run.per_part[1].count, 0);
        engine.shutdown();
    }

    /// Regression: a second fail-stop crash landing while the recovery
    /// pass is already re-executing the first casualty's roots used to
    /// surface as a fetch error — the engine ran exactly one recovery
    /// round and treated any failure during it as fatal. The recovery
    /// loop must instead fail over again, round after round, as long as
    /// replication outnumbers the dead. Replication 3 masks two deaths.
    #[test]
    fn chained_crashes_fail_over_round_after_round() {
        use gpm_cluster::{CrashAt, FaultPlan};
        let g = gen::erdos_renyi(150, 700, 5);
        let p = Pattern::triangle();
        let expect = oracle::count_subgraphs(&g, &p, false);
        let engine_with = |steal: bool, fault: Option<FaultPlan>| {
            Engine::new(
                PartitionedGraph::with_replication(&g, 4, 1, 3),
                EngineConfig {
                    chunk_capacity: 64,
                    steal: StealConfig { enabled: steal, batch: 8, ..StealConfig::default() },
                    obs: ObsConfig::enabled(),
                    fabric: FabricConfig { retry: crash_retry(), fault, ..FabricConfig::default() },
                    ..EngineConfig::default()
                },
            )
        };
        // The second fuse is sized from what part 2 serves when nothing
        // fails and nothing is stolen, not written down: how many
        // requests a run makes is the engine's business and has changed
        // before. Half of that count burns for certain — the failed run
        // asks part 2 for more, not less: it also holds part 1's replica,
        // and every stolen batch resolves through a chunk stack of its own
        // (which is why the count is not taken with stealing on: how much
        // is stolen differs from run to run) — and not at once.
        let fault_free = engine_with(false, None);
        assert_eq!(fault_free.count(&plan(&p)).count, expect);
        let served = fault_free.metrics().part(2).get(Counter::ServedRequests);
        fault_free.shutdown();
        assert!(served >= 4, "part 2 served only {served} requests");
        for steal in [false, true] {
            let engine = engine_with(
                steal,
                Some(FaultPlan {
                    crashes: vec![
                        // The first part dies on the very first fetch, so its
                        // whole root set re-executes and the recovery pass
                        // runs long...
                        CrashAt { part: 1, after_requests: 0 },
                        // ...and the second fuse burns through the main pass
                        // and often into that recovery; the loop must absorb
                        // the death in either phase without losing a root.
                        CrashAt { part: 2, after_requests: served / 2 },
                    ],
                    ..FaultPlan::default()
                }),
            );
            let run = engine.try_count(&plan(&p)).expect("replication 3 must mask two crashes");
            assert_eq!(run.count, expect, "steal={steal}");
            assert_eq!(run.failures.parts_failed, 2, "steal={steal}");
            assert!(run.failures.reexecuted_roots > 0, "steal={steal}");
            // Both dead parts' partial results are discarded; survivors
            // absorb the re-executed roots.
            assert_eq!(run.per_part[1].count + run.per_part[2].count, 0, "steal={steal}");
            let spans = engine.recorder().spans();
            assert!(
                spans.iter().any(|s| s.kind == SpanKind::Recovery),
                "steal={steal}: no recovery span"
            );
            engine.shutdown();
        }
    }

    #[test]
    fn static_cache_reduces_traffic() {
        let g = gen::barabasi_albert(300, 6, 2);
        // One run, and a second on the warm engine. Within one run the
        // share table already keeps most repeats off the wire: a fill
        // fetches a vertex once, and a clique's deeper lists, fetched or
        // cached for the fill of their siblings, are walked there, not
        // looked up. A list arrives cut at its bound whether or not the
        // cache admits it, so the first run never pays for the cache, and
        // the warm run reads what the first admitted.
        for p in [Pattern::triangle(), Pattern::clique(4), Pattern::clique(5)] {
            let mk = |cache: CacheConfig| {
                let pg = PartitionedGraph::new(&g, 4, 1);
                let engine = Engine::new(pg, EngineConfig { cache, ..EngineConfig::default() });
                let runs = (engine.count(&plan(&p)), engine.count(&plan(&p)));
                engine.shutdown();
                runs
            };
            let (without, again) = mk(CacheConfig::disabled());
            assert_eq!(again.traffic.network_bytes, without.traffic.network_bytes, "{p}");
            // At 4 every cut list of 4 or more is eligible, at 8 the hubs'.
            for threshold in [4, 8] {
                let cache = CacheConfig { degree_threshold: threshold, ..CacheConfig::default() };
                let (first, warm) = mk(cache);
                let what = format!("{p}, threshold {threshold}");
                assert_eq!((first.count, warm.count), (without.count, without.count), "{what}");
                assert!(first.traffic.network_bytes <= without.traffic.network_bytes, "{what}");
                assert!(warm.traffic.cache_hits > 0, "{what}");
                assert!(warm.traffic.network_bytes < without.traffic.network_bytes, "{what}");
            }
        }
    }

    #[test]
    fn enumerate_visits_every_embedding() {
        let g = gen::erdos_renyi(80, 350, 8);
        let p = Pattern::triangle();
        let engine = engine_for(&g, 2, 1);
        let seen = std::sync::Mutex::new(Vec::new());
        let run = engine.enumerate(&plan(&p), |m| {
            let mut t = m.to_vec();
            t.sort_unstable();
            seen.lock().unwrap().push((t[0], t[1], t[2]));
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        let expect = oracle::count_subgraphs(&g, &p, false);
        assert_eq!(run.count, expect);
        assert_eq!(seen.len() as u64, expect);
        seen.dedup();
        assert_eq!(seen.len() as u64, expect, "duplicate triangles visited");
        // Each visited triple really is a triangle.
        for (a, b, c) in seen {
            assert!(g.has_edge(a, b) && g.has_edge(b, c) && g.has_edge(a, c));
        }
        engine.shutdown();
    }

    #[test]
    fn labeled_pattern_counting() {
        let g = gen::with_random_labels(&gen::erdos_renyi(150, 700, 5), 3, 9);
        let p = Pattern::path(3).with_labels(vec![0, 1, 2]).unwrap();
        let expect = oracle::count_subgraphs(&g, &p, false);
        let engine = engine_for(&g, 3, 1);
        assert_eq!(engine.count(&plan(&p)).count, expect);
        engine.shutdown();
    }

    #[test]
    fn induced_pattern_counting() {
        let g = gen::erdos_renyi(100, 500, 6);
        let p = Pattern::path(4);
        let expect = oracle::count_subgraphs(&g, &p, true);
        let opts = PlanOptions { induced: true, ..PlanOptions::automine() };
        let plan = MatchingPlan::compile(&p, &opts).unwrap();
        let engine = engine_for(&g, 3, 1);
        assert_eq!(engine.count(&plan).count, expect);
        engine.shutdown();
    }

    #[test]
    fn edge_and_single_vertex_patterns() {
        let g = gen::erdos_renyi(100, 300, 2);
        let engine = engine_for(&g, 2, 1);
        assert_eq!(engine.count(&plan(&Pattern::edge())).count, 300);
        assert_eq!(engine.count(&plan(&Pattern::single_vertex())).count, 100);
        engine.shutdown();
    }

    #[test]
    fn multiple_runs_share_cache() {
        let g = gen::barabasi_albert(200, 5, 4);
        let pg = PartitionedGraph::new(&g, 4, 1);
        let engine = Engine::new(
            pg,
            EngineConfig {
                cache: CacheConfig { degree_threshold: 4, ..CacheConfig::default() },
                ..EngineConfig::default()
            },
        );
        let p = plan(&Pattern::triangle());
        let first = engine.count(&p);
        let warm = engine.count(&p);
        assert_eq!(first.count, warm.count);
        assert!(engine.cache_bytes() > 0);
        assert!(
            warm.traffic.network_bytes <= first.traffic.network_bytes,
            "warm cache cannot increase traffic"
        );
        assert!(engine.reset_caches(), "quiescent engine must clear");
        assert_eq!(engine.cache_bytes(), 0);
        engine.shutdown();
    }

    /// Drops `engine` and asserts none of its threads outlived it. Every
    /// thread an engine starts — fabric responders, the pooled
    /// `khuzdul-compute-*` workers, part coordinators, watchdogs, control
    /// responders; nothing else, a coordinator submits its own fetches —
    /// holds a clone of that engine's recorder for as long as it runs, so
    /// a sole remaining owner means they have all been joined. Unlike a
    /// process-wide census (thread names are cut to 15 bytes by the OS,
    /// so sibling tests' engines are indistinguishable there), this sees
    /// only the engine under test.
    fn assert_drop_joins_every_thread(engine: Engine) {
        let recorder = Arc::clone(engine.recorder());
        assert!(Arc::strong_count(&recorder) > 1, "running threads share the recorder");
        drop(engine);
        assert_eq!(Arc::strong_count(&recorder), 1, "a dropped engine left owners of its recorder");
    }

    #[test]
    fn dropped_engines_leak_no_threads() {
        use gpm_cluster::{FaultPlan, RetryPolicy};
        let g = gen::erdos_renyi(100, 400, 3);
        let p = Pattern::triangle();
        // A query that errors (retries exhausted) on an engine that never
        // calls `shutdown()` — the old leak scenario.
        let engine = Engine::new(
            PartitionedGraph::new(&g, 2, 1),
            EngineConfig {
                fabric: FabricConfig {
                    retry: RetryPolicy {
                        max_attempts: 2,
                        timeout: Duration::from_millis(5),
                        backoff: Duration::from_micros(100),
                    },
                    fault: Some(FaultPlan::drops(1.0)),
                    ..FabricConfig::default()
                },
                ..EngineConfig::default()
            },
        );
        assert!(engine.try_count(&plan(&p)).is_err());
        assert_drop_joins_every_thread(engine);
        // A clean run with the worker pool spawned and the message
        // carrier's responder in play.
        let engine = Engine::new(
            PartitionedGraph::new(&g, 2, 1),
            EngineConfig {
                compute_threads: 2,
                control: ControlConfig { mode: ControlMode::Msg },
                ..EngineConfig::default()
            },
        );
        engine.count(&plan(&p));
        assert_eq!(engine.compute_thread_names().len(), 4);
        assert_drop_joins_every_thread(engine);
    }

    #[test]
    fn explicit_shutdown_then_drop_is_idempotent() {
        let g = gen::erdos_renyi(80, 300, 1);
        let engine = engine_for(&g, 2, 1);
        engine.count(&plan(&Pattern::triangle()));
        // `shutdown(self)` consumes the engine and its Drop runs the
        // (idempotent) service shutdown a second time — must not panic.
        engine.shutdown();
    }

    /// Every way out of a run leaves the live registry empty: after a
    /// success, an early stop and a crash with no replica,
    /// no query is in flight, the caches reset, and each admitted run's
    /// tracker (ids 1, 2, … in admission order) sits in the finished ring.
    #[test]
    fn every_exit_path_leaves_the_live_registry_empty() {
        use gpm_cluster::FaultPlan;
        let g = gen::erdos_renyi(150, 700, 5);
        let engine = Engine::new(
            PartitionedGraph::new(&g, 4, 1), // replication = 1
            EngineConfig {
                chunk_capacity: 64,
                fabric: FabricConfig {
                    retry: crash_retry(),
                    fault: Some(FaultPlan::crash_at(2, 4)),
                    ..FabricConfig::default()
                },
                ..EngineConfig::default()
            },
        );
        let quiescent = |admitted: u64| {
            assert_eq!(engine.active_query_count(), 0);
            assert!(engine.active_progress().is_empty());
            assert!(engine.reset_caches(), "no query is in flight");
            let finished: Vec<u64> =
                engine.finished_progress.lock().iter().map(|p| p.query_id()).collect();
            assert_eq!(finished, (1..=admitted).collect::<Vec<_>>());
        };
        // An edge extends from the root's own list: these two runs fetch
        // nothing, so part 2's crash budget is left for the last.
        let edge = plan(&Pattern::path(2));
        assert_eq!(engine.try_count(&edge).unwrap().count, 700);
        quiescent(1);
        assert!(engine.enumerate_until(&edge, |_| false).count >= 1);
        quiescent(2);
        assert_eq!(engine.metrics().totals()[Counter::FetchRequests], 0);
        assert!(matches!(
            engine.try_count(&plan(&Pattern::triangle())),
            Err(EngineError::PartLost { part: 2 })
        ));
        quiescent(3);
        engine.shutdown();
    }

    fn incident_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("khuzdul-engine-inc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn masked_crash_emits_exactly_one_part_failed_bundle() {
        use gpm_cluster::FaultPlan;
        let g = gen::erdos_renyi(150, 700, 5);
        let p = Pattern::triangle();
        let expect = oracle::count_subgraphs(&g, &p, false);
        let dir = incident_dir("partfailed");
        let pg = PartitionedGraph::with_replication(&g, 4, 1, 2);
        let engine = Engine::new(
            pg,
            EngineConfig {
                chunk_capacity: 64,
                incident: IncidentConfig { dir: Some(dir.clone()), ..IncidentConfig::default() },
                fabric: FabricConfig {
                    retry: crash_retry(),
                    fault: Some(FaultPlan::crash_at(2, 4)),
                    ..FabricConfig::default()
                },
                ..EngineConfig::default()
            },
        );
        let run = engine.try_count(&plan(&p)).expect("a replica must mask the crash");
        assert_eq!(run.count, expect);
        let incidents = engine.incidents().incidents();
        assert_eq!(incidents.len(), 1, "one crash, one bundle: {incidents:?}");
        assert_eq!(incidents[0].trigger, TriggerKind::PartFailed);
        let json = std::fs::read_to_string(&incidents[0].path).unwrap();
        crate::incident::validate_bundle(&json).expect("part-failed bundle validates");
        assert!(json.contains("\"part\": 2") || json.contains("\"part\":2"));
        // The flight slice recorded the crash and the recovery pass
        // around the trigger.
        assert!(json.contains("\"part_crash\""));
        engine.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One event, both rings: in a traced crash run with an incident dir,
    /// every coarse kind appears as often in the flight ring as in the
    /// span ring — nothing recorded twice, nothing recorded to one only.
    #[test]
    fn a_traced_crash_run_records_each_coarse_event_once_in_both_rings() {
        use gpm_cluster::FaultPlan;
        let g = gen::erdos_renyi(150, 700, 5);
        let dir = incident_dir("bothrings");
        let engine = Engine::new(
            PartitionedGraph::with_replication(&g, 4, 1, 2),
            EngineConfig {
                chunk_capacity: 64,
                steal: StealConfig { enabled: true, batch: 8, ..StealConfig::default() },
                obs: ObsConfig::enabled(),
                incident: IncidentConfig { dir: Some(dir.clone()), ..IncidentConfig::default() },
                fabric: FabricConfig {
                    retry: crash_retry(),
                    fault: Some(FaultPlan::crash_at(2, 4)),
                    ..FabricConfig::default()
                },
                ..EngineConfig::default()
            },
        );
        let p = Pattern::triangle();
        let run = engine.try_count(&plan(&p)).expect("a replica must mask the crash");
        assert_eq!(run.count, oracle::count_subgraphs(&g, &p, false));
        let flight = engine.incidents().flight();
        let events = flight.snapshot();
        assert_eq!(events.len() as u64, flight.recorded(), "the ring did not wrap");
        let spans = engine.recorder().spans();
        assert_eq!(engine.recorder().spans_dropped(), 0);
        for kind in SpanKind::ALL.into_iter().filter(|k| k.coarse()) {
            let in_flight = events.iter().filter(|e| e.kind == kind).count();
            let in_spans = spans.iter().filter(|s| s.kind == kind).count();
            assert_eq!(in_flight, in_spans, "{kind:?}");
        }
        for kind in [SpanKind::QueryAdmit, SpanKind::QueryComplete, SpanKind::PartCrash] {
            assert!(events.iter().any(|e| e.kind == kind), "no {kind:?} event");
        }
        let incidents = engine.incidents().incidents();
        let json = std::fs::read_to_string(&incidents[0].path).unwrap();
        assert!(json.contains("\"part_crash\""), "the bundle holds the death");
        engine.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unmasked_crash_emits_a_part_lost_bundle() {
        use gpm_cluster::FaultPlan;
        let g = gen::erdos_renyi(150, 700, 5);
        let dir = incident_dir("partlost");
        let pg = PartitionedGraph::new(&g, 4, 1); // replication = 1
        let engine = Engine::new(
            pg,
            EngineConfig {
                chunk_capacity: 64,
                incident: IncidentConfig { dir: Some(dir.clone()), ..IncidentConfig::default() },
                fabric: FabricConfig {
                    retry: crash_retry(),
                    fault: Some(FaultPlan::crash_at(2, 4)),
                    ..FabricConfig::default()
                },
                ..EngineConfig::default()
            },
        );
        assert!(matches!(
            engine.try_count(&plan(&Pattern::triangle())),
            Err(EngineError::PartLost { part: 2 })
        ));
        // A failed query still completes in the flight ring (tracing is
        // off; the incident dir arms the ring): admitted, then completed
        // with arg 0.
        let lifecycle: Vec<(SpanKind, u64)> = engine
            .incidents()
            .flight()
            .snapshot()
            .iter()
            .filter(|e| matches!(e.kind, SpanKind::QueryAdmit | SpanKind::QueryComplete))
            .map(|e| (e.kind, e.a))
            .collect();
        assert_eq!(lifecycle, [(SpanKind::QueryAdmit, 0), (SpanKind::QueryComplete, 0)]);
        let incidents = engine.incidents().incidents();
        assert_eq!(incidents.len(), 1);
        assert_eq!(incidents[0].trigger, TriggerKind::PartLost);
        let json = std::fs::read_to_string(&incidents[0].path).unwrap();
        crate::incident::validate_bundle(&json).expect("part-lost bundle validates");
        // Engine-side captures carry the full context sections.
        assert!(json.contains("\"fetch_requests\""), "counters section present");
        assert!(json.contains("\"carrier\""), "ledger section present");
        // The report's incidents[] mirrors the captures and still
        // validates under the report schema.
        let report = engine.report(&RunStats::default(), "khuzdul");
        assert_eq!(report.incidents.len(), 1);
        assert_eq!(report.incidents[0].trigger, TriggerKind::PartLost);
        gpm_obs::validate_report(&report.to_json()).expect("report with incidents validates");
        engine.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The watchdog bundles a wedged run while it is wedged, not when it
    /// fails: at 16 attempts of 100 ms the run holds on for over 1.6 s,
    /// and the bundle lands within the 120 ms window plus slack of the
    /// query's admission. No backoff: doubled per attempt from 1 ms, it
    /// alone would hold the run for 33 s.
    #[test]
    fn wedged_msg_control_run_trips_the_stall_watchdog() {
        use gpm_cluster::{FaultPlan, RetryPolicy};
        const ATTEMPTS: u32 = 16;
        const TIMEOUT: Duration = Duration::from_millis(100);
        const WINDOW: Duration = Duration::from_millis(120);
        const SLACK: Duration = Duration::from_millis(600);
        let g = gen::erdos_renyi(100, 500, 3);
        let dir = incident_dir("stall");
        let pg = PartitionedGraph::new(&g, 2, 1);
        let engine = Engine::new(
            pg,
            EngineConfig {
                // Message-based control plane where every reply is
                // dropped: claims retry for far longer than the stall
                // window, so progress never moves (and no fetch is ever
                // sent) until the retry budget finally expires.
                control: ControlConfig { mode: ControlMode::Msg },
                fabric: FabricConfig {
                    retry: RetryPolicy {
                        max_attempts: ATTEMPTS,
                        timeout: TIMEOUT,
                        backoff: Duration::ZERO,
                    },
                    fault: Some(FaultPlan::drops(1.0)),
                    ..FabricConfig::default()
                },
                steal: StealConfig { enabled: true, ..StealConfig::default() },
                incident: IncidentConfig { dir: Some(dir.clone()), stall: Some(WINDOW) },
                ..EngineConfig::default()
            },
        );
        assert!(engine.try_count(&plan(&Pattern::triangle())).is_err(), "all-drops wire fails");
        let failed_ns = engine.incidents().flight().now_ns();
        let incidents = engine.incidents().incidents();
        let stalls: Vec<_> = incidents.iter().filter(|i| i.trigger == TriggerKind::Stall).collect();
        assert_eq!(stalls.len(), 1, "the watchdog fires exactly once: {incidents:?}");
        let json = std::fs::read_to_string(&stalls[0].path).unwrap();
        let bundle = crate::incident::validate_bundle(&json).expect("stall bundle validates");
        // The stall bundle dumps the scheduler state: the msg carrier's
        // client-side summary plus the live progress snapshot.
        assert!(bundle.ledger.is_some() && json.contains("\"msg\""), "ledger carrier recorded");
        assert!(json.contains("\"roots_total\""), "progress snapshot recorded");
        let admit = bundle.flight.events.iter().find(|e| e.kind == SpanKind::QueryAdmit);
        let admit_ns = admit.expect("the bundle holds the query's admission").at_ns;
        let (fired, failed) = (bundle.trigger.at_ns - admit_ns, failed_ns - admit_ns);
        assert!(failed >= (TIMEOUT * ATTEMPTS).as_nanos() as u64, "failed after {failed} ns");
        assert!(
            fired >= WINDOW.as_nanos() as u64 && fired <= (WINDOW + SLACK).as_nanos() as u64,
            "bundled {fired} ns after admission; the run failed after {failed} ns"
        );
        engine.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reset_caches_refuses_while_a_query_is_in_flight() {
        let g = gen::barabasi_albert(200, 5, 4);
        let pg = PartitionedGraph::new(&g, 4, 1);
        let engine = Engine::new(
            pg,
            EngineConfig {
                cache: CacheConfig { degree_threshold: 4, ..CacheConfig::default() },
                ..EngineConfig::default()
            },
        );
        let refused = AtomicBool::new(false);
        engine.enumerate(&plan(&Pattern::triangle()), |_| {
            // Mid-run: the engine is not query-quiescent, so clearing
            // must be refused (a clear racing resolve-phase inserts
            // undercuts the cache-bytes accounting).
            if !engine.reset_caches() {
                refused.store(true, Ordering::Relaxed);
            }
        });
        assert!(refused.load(Ordering::Relaxed), "mid-run reset must be refused");
        assert!(engine.cache_bytes() > 0, "refused reset must leave the cache intact");
        assert!(engine.reset_caches(), "quiescent engine must clear");
        assert_eq!(engine.cache_bytes(), 0);
        engine.shutdown();
    }

    /// Also at `window = 1`, where every fetch of every query on a part
    /// competes for that part's one slot: a coordinator that blocked on
    /// the window while holding an un-waited fetch would wait for itself.
    /// The queries run on detached threads under a deadline, so that
    /// shows up as a failure, not a hung suite.
    #[test]
    fn concurrent_queries_on_one_engine_match_solo_counts() {
        let g = gen::barabasi_albert(250, 5, 33);
        let patterns =
            [Pattern::triangle(), Pattern::clique(4), Pattern::path(4), Pattern::cycle(4)];
        let expect: Vec<u64> =
            patterns.iter().map(|p| oracle::count_subgraphs(&g, p, false)).collect();
        for window in [FabricConfig::default().window, 1] {
            let engine = Arc::new(Engine::new(
                PartitionedGraph::new(&g, 4, 1),
                EngineConfig {
                    fabric: FabricConfig { window, ..FabricConfig::default() },
                    ..EngineConfig::default()
                },
            ));
            let (tx, rx) = std::sync::mpsc::channel();
            for (i, p) in patterns.iter().enumerate() {
                let (engine, tx, p) = (Arc::clone(&engine), tx.clone(), plan(p));
                std::thread::spawn(move || {
                    let q = QueryCtx { root_budget: 64, ..engine.default_query() };
                    let run = engine.try_count_query(&p, &q).expect("query run");
                    let _ = tx.send((i, run.count));
                });
            }
            let mut counts = vec![0u64; patterns.len()];
            for _ in &patterns {
                let (i, count) = rx
                    .recv_timeout(Duration::from_secs(120))
                    .unwrap_or_else(|_| panic!("window {window}: a query never finished"));
                counts[i] = count;
            }
            assert_eq!(counts, expect, "window {window}");
        }
    }

    #[test]
    fn memory_bound_follows_chunk_capacity() {
        // The §4.2 guarantee: live embeddings never exceed
        // chunk_capacity x (chunks in the stack), independent of the
        // graph — and the stack is as deep as the plan's last fetched
        // level, not as the pattern.
        let g = gen::barabasi_albert(400, 6, 17);
        for cap in [8usize, 64, 1024] {
            let pg = PartitionedGraph::new(&g, 2, 1);
            let engine =
                Engine::new(pg, EngineConfig { chunk_capacity: cap, ..EngineConfig::default() });
            for (p, chunks) in
                [(Pattern::clique(4), 3), (Pattern::path(4), 2), (Pattern::star(4), 1)]
            {
                let plan = plan(&p);
                assert_eq!(plan.last_fetched_level() + 1, chunks, "{p}");
                let run = engine.count(&plan);
                for part in &run.per_part {
                    assert!(
                        part.peak_embeddings <= cap * chunks,
                        "{p}, cap {cap}: peak {} exceeds bound {}",
                        part.peak_embeddings,
                        cap * chunks
                    );
                }
            }
            engine.shutdown();
        }
    }

    /// Idle run states held for each part.
    fn pooled(engine: &Engine) -> Vec<usize> {
        engine.run_pools.iter().map(StatePool::len).collect()
    }

    #[test]
    fn run_state_is_pooled_up_to_peak_concurrency_and_returned_on_every_exit() {
        let g = gen::barabasi_albert(250, 5, 33);
        let patterns =
            [Pattern::triangle(), Pattern::clique(4), Pattern::path(4), Pattern::star(4)];
        let expect: Vec<u64> =
            patterns.iter().map(|p| oracle::count_subgraphs(&g, p, false)).collect();
        let engine =
            Arc::new(Engine::new(PartitionedGraph::new(&g, 2, 1), EngineConfig::default()));
        assert_eq!(pooled(&engine), [0, 0]);
        // One query at a time, deep plans after shallow ones and back:
        // one state per part, whatever it last served.
        for round in 0..50 {
            let i = round % patterns.len();
            assert_eq!(engine.count(&plan(&patterns[i])).count, expect[i], "round {round}");
            assert_eq!(pooled(&engine), [1, 1], "round {round}");
        }
        // Four at once: at most four per part, and the same counts.
        let barrier = Arc::new(std::sync::Barrier::new(patterns.len()));
        let handles: Vec<_> = patterns
            .iter()
            .map(|p| {
                let (engine, barrier, p) = (Arc::clone(&engine), Arc::clone(&barrier), plan(p));
                std::thread::spawn(move || {
                    barrier.wait();
                    engine.try_count_query(&p, &engine.default_query()).expect("query run").count
                })
            })
            .collect();
        let counts: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(counts, expect);
        let held = pooled(&engine);
        assert!(held.iter().all(|&n| (1..=patterns.len()).contains(&n)), "{held:?}");
        // A stopped run hands its state back like a finished one.
        let before = pooled(&engine);
        assert!(engine.enumerate_until(&plan(&Pattern::triangle()), |_| false).count >= 1);
        assert_eq!(pooled(&engine), before);
        // Releasing is part of resetting the engine between runs.
        assert!(engine.reset_caches());
        assert_eq!(pooled(&engine), [0, 0]);

        // A run that fails — every reply dropped, retries exhausted —
        // still returns what each part was working in.
        let failing = Engine::new(
            PartitionedGraph::new(&g, 2, 1),
            EngineConfig {
                fabric: FabricConfig {
                    retry: gpm_cluster::RetryPolicy {
                        max_attempts: 2,
                        timeout: Duration::from_millis(5),
                        backoff: Duration::from_micros(100),
                    },
                    fault: Some(gpm_cluster::FaultPlan::drops(1.0)),
                    ..FabricConfig::default()
                },
                ..EngineConfig::default()
            },
        );
        assert!(matches!(
            failing.try_count(&plan(&Pattern::triangle())),
            Err(EngineError::Fetch(FetchError::Timeout { .. }))
        ));
        assert_eq!(pooled(&failing), [1, 1]);
    }

    #[test]
    fn sequential_parts_mode_matches_concurrent() {
        let g = gen::barabasi_albert(300, 5, 19);
        let p = Pattern::clique(4);
        let expect = oracle::count_subgraphs(&g, &p, false);
        let pg = PartitionedGraph::new(&g, 4, 1);
        let engine =
            Engine::new(pg, EngineConfig { sequential_parts: true, ..EngineConfig::default() });
        let run = engine.count(&plan(&p));
        engine.shutdown();
        assert_eq!(run.count, expect);
        assert_eq!(run.per_part.len(), 4);
        // The makespan is the max part, never more than the wall clock of
        // the sequential run and never less than elapsed/parts.
        let makespan = run.simulated_makespan();
        assert!(makespan <= run.elapsed);
        assert!(makespan.as_secs_f64() >= run.elapsed.as_secs_f64() / 8.0);
    }

    #[test]
    fn observed_run_records_spans_and_matching_report() {
        use gpm_obs::SpanKind;
        let g = gen::erdos_renyi(150, 700, 13);
        let pg = PartitionedGraph::new(&g, 4, 1);
        let engine =
            Engine::new(pg, EngineConfig { obs: ObsConfig::enabled(), ..EngineConfig::default() });
        let run = engine.count(&plan(&Pattern::triangle()));
        let report = engine.report(&run, "khuzdul");
        // Report totals mirror the legacy TrafficSummary counters.
        assert_eq!(report.count, run.count);
        assert_eq!(report.traffic.fetch_requests, run.traffic.requests);
        assert_eq!(report.traffic.network_bytes, run.traffic.network_bytes);
        assert_eq!(report.traffic.cache_hits, run.traffic.cache_hits);
        assert_eq!(report.traffic.coalesced_requests, run.traffic.coalesced);
        gpm_obs::validate_report(&report.to_json()).expect("engine report must validate");
        // The scheduler, resolve phase, and fabric all left spans.
        let spans = engine.recorder().spans();
        for kind in
            [SpanKind::SeedRoots, SpanKind::Resolve, SpanKind::BucketRound, SpanKind::Extend]
        {
            assert!(spans.iter().any(|s| s.kind == kind), "missing {kind:?} span");
        }
        assert!(report.spans.recorded > 0);
        gpm_obs::validate_trace(&engine.chrome_trace()).expect("trace must validate");
        engine.shutdown();
    }

    #[test]
    fn disabled_obs_records_nothing() {
        let g = gen::erdos_renyi(100, 400, 5);
        let engine = engine_for(&g, 2, 1);
        engine.count(&plan(&Pattern::triangle()));
        assert!(!engine.recorder().is_enabled());
        assert_eq!(engine.recorder().spans_recorded(), 0);
        engine.shutdown();
    }

    #[test]
    fn breakdown_is_populated() {
        let g = gen::erdos_renyi(200, 1000, 1);
        let engine = engine_for(&g, 2, 1);
        let run = engine.count(&plan(&Pattern::clique(4)));
        let b = run.breakdown();
        assert!(b.compute > 0.0);
        assert!((b.compute + b.network + b.scheduler - 1.0).abs() < 1e-6);
        engine.shutdown();
    }

    #[test]
    fn enumerate_until_stops_early() {
        let g = gen::complete(30); // plenty of triangles
        let engine = engine_for(&g, 2, 1);
        let (seen, fake) = (AtomicU64::new(0), AtomicU64::new(0));
        engine.enumerate_until(&plan(&Pattern::triangle()), |m| {
            let real = m.len() == 3
                && g.has_edge(m[0], m[1])
                && g.has_edge(m[1], m[2])
                && g.has_edge(m[0], m[2]);
            fake.fetch_add(u64::from(!real), Ordering::Relaxed);
            seen.fetch_add(1, Ordering::Relaxed) < 10
        });
        let seen = seen.into_inner();
        let total = engine.count(&plan(&Pattern::triangle())).count;
        assert_eq!(fake.into_inner(), 0, "every visited match is a real embedding");
        assert!(seen >= 11, "visited at least until the stop signal");
        assert!(seen < total, "must stop well before all {total} (saw {seen})");
        engine.shutdown();
    }

    #[test]
    fn graphpi_plans_run_too() {
        let g = gen::erdos_renyi(120, 600, 7);
        let engine = engine_for(&g, 2, 1);
        for p in [Pattern::cycle(4), Pattern::house(), Pattern::diamond()] {
            let plan = MatchingPlan::compile(&p, &PlanOptions::graphpi()).unwrap();
            let expect = oracle::count_subgraphs(&g, &p, false);
            assert_eq!(engine.count(&plan).count, expect, "{p}");
        }
        engine.shutdown();
    }

    #[test]
    fn iep_pair_counting_in_the_distributed_engine() {
        let g = gen::barabasi_albert(300, 6, 21);
        let engine = engine_for(&g, 4, 1);
        // A star on k >= 3 vertices has a unique centre, so it occurs
        // Σ_v C(deg v, k−1) times (`path:3` is `star:3`); the brute-force
        // oracle, which takes a minute on the larger stars, checks `path:4`.
        let stars = |k: u64| -> u64 {
            let choose = |n: u64| (0..k - 1).fold(1, |c, i| c * n.saturating_sub(i) / (i + 1));
            g.vertices().map(|v| choose(g.degree(v) as u64)).sum()
        };
        for (p, expect) in [
            (Pattern::path(3), stars(3)),
            (Pattern::star(4), stars(4)),
            (Pattern::star(5), stars(5)),
            (Pattern::path(4), oracle::count_subgraphs(&g, &Pattern::path(4), false)),
        ] {
            let iep = PlanOptions { iep: true, ..PlanOptions::automine() };
            let plan = MatchingPlan::compile(&p, &iep).unwrap();
            assert_eq!(engine.count(&plan).count, expect, "{p}");
            // Enumeration must ignore the shortcut and still visit every
            // embedding individually.
            let seen = std::sync::atomic::AtomicU64::new(0);
            engine.enumerate(&plan, |_| {
                seen.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            });
            assert_eq!(seen.into_inner(), expect, "enumerate bypasses IEP for {p}");
        }
        engine.shutdown();
    }

    /// The critical-path section is the parts' own timers: compute as
    /// timed, network split where the fabric's waits measured it. An
    /// untraced run reports it whole, and a traced run whose rings keep
    /// one span per shard — dropping nearly all of them — reports the
    /// same account.
    #[test]
    fn critical_path_is_the_part_timers_traced_or_not() {
        let g = gen::erdos_renyi(300, 1_500, 7);
        for obs in [ObsConfig::default(), ObsConfig { enabled: true, span_capacity: 1 }] {
            let cfg = EngineConfig { obs: obs.clone(), ..EngineConfig::default() };
            let engine = Engine::new(PartitionedGraph::new(&g, 4, 1), cfg);
            let run = engine.count(&plan(&Pattern::triangle()));
            let report = engine.report(&run, "khuzdul");
            engine.shutdown();
            assert_eq!(obs.enabled, report.spans.dropped > 0, "{:?}", report.spans);
            let cp = &report.critical_path;
            assert_eq!(cp.per_part.len(), 4);
            for (row, part) in cp.per_part.iter().zip(&run.per_part) {
                let ns = |d: Duration| d.as_nanos() as u64;
                let waited = row.fetch_wait_ns + row.responder_queue_ns + row.retry_backoff_ns;
                assert_eq!(row.compute_ns, ns(part.compute), "part {}", row.part);
                assert_eq!(waited, ns(part.network), "part {}", row.part);
                assert_eq!(row.responder_queue_ns, ns(part.responder_queue));
                assert_eq!(row.retry_backoff_ns, ns(part.retry_backoff));
            }
            let f = cp.fractions;
            let sum = f.compute + f.fetch_wait + f.responder_queue + f.retry_backoff;
            assert!((sum - 1.0).abs() < 1e-9, "{f:?}");
            assert!(f.compute > 0.0 && f.fetch_wait > 0.0, "{f:?}");
        }
    }
}
