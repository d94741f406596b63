//! The async request-window fabric over the [`ChannelTransport`].
//!
//! [`EdgeListClient::fetch_async`] issues a sequence-tagged request and
//! returns a [`PendingFetch`] completion handle immediately; the caller
//! overlaps other work (integrating the previous batch, submitting the
//! next one) and collects the reply later with [`PendingFetch::wait`].
//! The fabric layers four mechanisms over the raw transport:
//!
//! * **Backpressure** — each client part holds a bounded in-flight
//!   window ([`FabricConfig::window`]); `fetch_async` blocks once the
//!   window is full and unblocks as completions retire, and
//!   [`EdgeListClient::try_fetch_async`] reports a full window instead,
//!   for callers that hold fetches of their own. Window size 1
//!   reproduces the old blocking RPC's fully serialized transfers.
//! * **Bounded requests** — a request may carry one exclusive lower
//!   bound per vertex. The responder then serves every list above its
//!   bound, so only the part of a list its reader can reach crosses the
//!   wire. Requests are sent as asked: deduplicating them is the caller's
//!   business (the engine's share table), not the fabric's.
//! * **Timeout/retry** — each attempt has a deadline; lost replies are
//!   retried with exponential backoff and a fresh sequence number (stale
//!   replies are discarded by tag) —
//!   the same discipline, in the same code, as the control plane's calls
//!   (see [`crate::transport`]).
//! * **Typed failure** — every way a fetch can fail is a
//!   [`FetchError`] variant propagated to the caller, never a panic.
//! * **Failover and repair** — a fetch whose target is fail-stop dead
//!   re-routes to a live replica holder. On a healing service the
//!   failover that first detects a death restores every slice it left
//!   short, inline and under one repair lock, before it re-routes.

use crate::metrics::{ClusterMetrics, Counter, Counters, Scope, TrafficClass};
use crate::transport::{
    await_reply, ChannelTransport, FaultPlan, FetchedLists, ReplicaPush, RetryPolicy, WireReply,
    WireRequest,
};
use crate::{NetworkModel, PartId};
use crossbeam::channel::{unbounded, Receiver, Sender};
use gpm_graph::partition::PartitionedGraph;
use gpm_graph::VertexId;
use gpm_obs::{Metric, Recorder, SpanKind};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shared liveness state of the cluster: which parts have been detected
/// as fail-stop dead, and who holds a replica of each part's slice.
///
/// A part is *promoted* to dead only when a submission to it returns
/// [`FetchError::PartDead`] (the transport saw the fail-stop kill); a
/// lost reply never promotes. Promotion is broadcast by construction:
/// every client of the service shares this one structure, so after the
/// first detection all later fetches route around the dead part
/// immediately instead of burning their own retry budgets.
#[derive(Debug)]
struct Liveness {
    dead: Vec<AtomicBool>,
    /// `holders[p]` = parts hosting a replica of `p`'s slice, nearest
    /// hash-predecessor first (see `PartitionedGraph::replica_holders`).
    /// Mutable at runtime: re-replication appends restored holders and
    /// republishes by bumping [`Liveness::epoch`].
    holders: parking_lot::RwLock<Vec<Vec<PartId>>>,
    /// Routing epoch, bumped on every holder-set change.
    epoch: AtomicU64,
    /// Per-owner round-robin cursors: dead-owner fetches spread across
    /// all live holders instead of hammering the nearest hash-successor.
    rr: Vec<AtomicU64>,
    /// Re-replication, when the service heals; `None` otherwise, and a
    /// slice whose every copy died fails at once.
    heal: Option<Heal>,
}

/// Re-replication state: the repair lock and its cumulative totals.
#[derive(Debug)]
struct Heal {
    /// Held by the client that promotes a part dead, from the promotion
    /// until every short slice is restored (or has no live copy left to
    /// restore from). A route that finds no live holder takes it once, so
    /// it sees whatever the repair in flight publishes.
    repair: Mutex<()>,
    /// The copy count a repair restores toward, capped by the live parts.
    replication: usize,
    /// Completed transfers, each one restored copy.
    transfers: AtomicU64,
    /// Wire bytes of the completed transfers.
    bytes: AtomicU64,
}

impl Liveness {
    fn new(pg: &PartitionedGraph, heal: bool) -> Liveness {
        let parts = pg.part_count();
        Liveness {
            dead: (0..parts).map(|_| AtomicBool::new(false)).collect(),
            holders: parking_lot::RwLock::new((0..parts).map(|p| pg.replica_holders(p)).collect()),
            epoch: AtomicU64::new(0),
            rr: (0..parts).map(|_| AtomicU64::new(0)).collect(),
            heal: heal.then(|| Heal {
                repair: Mutex::new(()),
                replication: pg.replication(),
                transfers: AtomicU64::new(0),
                bytes: AtomicU64::new(0),
            }),
        }
    }

    fn is_dead(&self, part: PartId) -> bool {
        self.dead[part].load(Ordering::SeqCst)
    }

    /// Marks `part` dead; returns `true` on the first (promoting) call.
    fn promote(&self, part: PartId) -> bool {
        !self.dead[part].swap(true, Ordering::SeqCst)
    }

    /// Every part promoted dead so far.
    fn dead_parts(&self) -> Vec<PartId> {
        (0..self.dead.len()).filter(|&p| self.is_dead(p)).collect()
    }

    /// Registers `host` as a live holder of `slice`'s data and
    /// republishes the routing table (epoch bump). Idempotent.
    fn add_holder(&self, slice: PartId, host: PartId) {
        {
            let mut holders = self.holders.write();
            if host != slice && !holders[slice].contains(&host) {
                holders[slice].push(host);
            }
        }
        self.epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// The live holders of `slice`'s data right now, excluding `slice`
    /// itself (which serves its own slice while alive).
    fn live_holders(&self, slice: PartId) -> Vec<PartId> {
        self.holders.read()[slice].iter().copied().filter(|&h| !self.is_dead(h)).collect()
    }

    /// Live copies of `slice`'s data: its own part while alive, plus
    /// live replica holders — the slice's *effective* replication.
    fn live_copies(&self, slice: PartId) -> usize {
        usize::from(!self.is_dead(slice)) + self.live_holders(slice).len()
    }

    /// The part that should serve `owner`'s slice right now: `owner`
    /// itself while alive, else one of its live replica holders,
    /// round-robin so failover load spreads instead of hammering the
    /// nearest hash-successor. A healing service with no live holder for
    /// the slice waits out the repair in flight, if any, and looks once
    /// more before failing `PartDead`.
    fn route(&self, owner: PartId) -> Result<PartId, FetchError> {
        if !self.is_dead(owner) {
            return Ok(owner);
        }
        let pick = || {
            // One snapshot of the live set: a holder may die between two
            // passes over `holders`, so count and pick from the same one.
            let live = self.live_holders(owner);
            let turn = || self.rr[owner].fetch_add(1, Ordering::Relaxed) as usize;
            (!live.is_empty()).then(|| live[turn() % live.len()])
        };
        if let Some(holder) = pick() {
            return Ok(holder);
        }
        if let Some(heal) = &self.heal {
            // A repair publishes every holder it restores before it
            // releases the lock.
            drop(heal.repair.lock());
            if let Some(holder) = pick() {
                return Ok(holder);
            }
        }
        Err(FetchError::PartDead { part: owner })
    }
}

/// Why a fetch failed. A lost reply is retried by the fabric up to
/// [`RetryPolicy::max_attempts`] and surfaces as [`FetchError::Timeout`];
/// every error a reply carries surfaces to the caller at once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FetchError {
    /// The target part does not own some requested vertices.
    NotOwner {
        /// The part that was asked.
        target: PartId,
        /// The vertices it did not own.
        missing: Vec<VertexId>,
    },
    /// The service (or its responder threads) has shut down.
    Shutdown,
    /// No reply arrived within the retry budget.
    Timeout {
        /// The part that was asked.
        target: PartId,
        /// How many attempts were made before giving up.
        attempts: u32,
    },
    /// A response grew past the `u32` offset range of the wire format.
    TooLarge {
        /// The part serving the oversized reply.
        target: PartId,
        /// The edge-list entry count that overflowed.
        entries: usize,
    },
    /// The part is fail-stop dead and no live replica holder can serve
    /// its slice. With replication this only surfaces once every holder
    /// of the slice is dead too; without it, the first fetch after the
    /// failure is detected fails this way.
    PartDead {
        /// The dead part whose data is unreachable.
        part: PartId,
    },
}

impl fmt::Display for FetchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FetchError::NotOwner { target, missing } => write!(
                f,
                "part {} does not own {} requested vertices (first: {:?})",
                target,
                missing.len(),
                missing.first()
            ),
            FetchError::Shutdown => write!(f, "edge-list service has shut down"),
            FetchError::Timeout { target, attempts } => {
                write!(f, "no reply from part {target} after {attempts} attempts")
            }
            FetchError::TooLarge { target, entries } => write!(
                f,
                "reply from part {target} too large for the wire format ({entries} entries)"
            ),
            FetchError::PartDead { part } => {
                write!(f, "part {part} is dead and no live replica holds its slice")
            }
        }
    }
}

impl std::error::Error for FetchError {}

/// Configuration of the request fabric (threaded through
/// `EngineConfig::fabric` and the CLI).
#[derive(Debug, Clone, PartialEq)]
pub struct FabricConfig {
    /// Maximum in-flight requests per client part. `1` serializes
    /// transfers exactly like the old blocking RPC; larger windows let
    /// the comm pipeline overlap transfers with integration.
    pub window: usize,
    /// Timeout/retry behaviour.
    pub retry: RetryPolicy,
    /// Optional fault injection beneath the fabric, and beneath the
    /// message control carrier, which also runs under `retry`.
    pub fault: Option<FaultPlan>,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig { window: 4, retry: RetryPolicy::default(), fault: None }
    }
}

/// The per-part in-flight window: a small counting semaphore.
#[derive(Debug)]
struct Window {
    limit: usize,
    inflight: Mutex<usize>,
    retired: Condvar,
    /// `inflight` as of its last change, stored under its lock so the
    /// occupancy histogram reads it without taking it.
    gauge: AtomicU64,
}

impl Window {
    fn new(limit: usize) -> Self {
        Window {
            limit: limit.max(1),
            inflight: Mutex::new(0),
            retired: Condvar::new(),
            gauge: AtomicU64::new(0),
        }
    }

    /// Blocks until a slot frees up, then occupies it.
    fn acquire(self: &Arc<Self>) -> WindowPermit {
        let mut inflight = self.inflight.lock();
        while *inflight >= self.limit {
            self.retired.wait(&mut inflight);
        }
        self.occupy(inflight)
    }

    /// Occupies a slot if one is free right now.
    fn try_acquire(self: &Arc<Self>) -> Option<WindowPermit> {
        let inflight = self.inflight.lock();
        (*inflight < self.limit).then(|| self.occupy(inflight))
    }

    fn occupy(self: &Arc<Self>, mut inflight: MutexGuard<'_, usize>) -> WindowPermit {
        *inflight += 1;
        self.gauge.store(*inflight as u64, Ordering::Relaxed);
        WindowPermit { window: Arc::clone(self) }
    }

    /// Requests occupying the window right now.
    fn occupancy(&self) -> u64 {
        self.gauge.load(Ordering::Relaxed)
    }
}

/// Occupancy of one window slot; releases (and wakes a blocked
/// submitter) on drop, whether the fetch completed or was abandoned.
#[derive(Debug)]
struct WindowPermit {
    window: Arc<Window>,
}

impl Drop for WindowPermit {
    fn drop(&mut self) {
        let mut inflight = self.window.inflight.lock();
        *inflight = inflight.saturating_sub(1);
        self.window.gauge.store(*inflight as u64, Ordering::Relaxed);
        drop(inflight);
        self.window.retired.notify_one();
    }
}

/// The cluster-wide edge-list service: metrics, per-part windows, the
/// transport with its responder threads, and the liveness table every
/// client fails over through. A service started with `heal` (see
/// [`EdgeListService::start_observed`]) also re-replicates: the client
/// whose failover first sees a death repairs every short slice before it
/// re-routes, so no thread of the service's own watches for deaths.
///
/// # Example
///
/// ```
/// use gpm_cluster::EdgeListService;
/// use gpm_graph::{gen, partition::PartitionedGraph, rank::rank_by_degree};
///
/// let g = gen::erdos_renyi(100, 400, 1);
/// let pg = PartitionedGraph::new(&g, 4, 1);
/// let g = rank_by_degree(&g).0; // the ids the parts serve
/// let service = EdgeListService::start(&pg, None);
/// let client = service.client(0);
/// let v = 17;
/// let owner = pg.owner(v);
/// let lists = client.fetch(owner, &[v]).unwrap();
/// assert_eq!(lists.list(0), g.neighbors(v));
/// service.shutdown();
/// ```
#[derive(Debug, Clone)]
pub struct EdgeListService {
    transport: Arc<ChannelTransport>,
    metrics: ClusterMetrics,
    network: Option<NetworkModel>,
    retry: RetryPolicy,
    windows: Vec<Arc<Window>>,
    seq: Arc<AtomicU64>,
    liveness: Arc<Liveness>,
    obs: Arc<Recorder>,
}

impl EdgeListService {
    /// Starts the service over `pg` with the default [`FabricConfig`].
    pub fn start(pg: &PartitionedGraph, network: Option<NetworkModel>) -> Self {
        Self::start_with(pg, network, FabricConfig::default())
    }

    /// Starts the service with an explicit fabric configuration
    /// (window size, retry policy, optional fault injection).
    pub fn start_with(
        pg: &PartitionedGraph,
        network: Option<NetworkModel>,
        fabric: FabricConfig,
    ) -> Self {
        Self::start_observed(pg, network, fabric, Recorder::disabled(), false)
    }

    /// Like [`EdgeListService::start_with`], additionally recording
    /// fabric spans (fetch submit→complete, responder service, retries,
    /// injected faults) and histograms (fetch latency, batch bytes,
    /// window occupancy) into `obs`. With `heal`, the failover that
    /// detects a death first restores every slice it left short of
    /// `pg`'s replication factor (see [`EdgeListService::await_repairs`]).
    pub fn start_observed(
        pg: &PartitionedGraph,
        network: Option<NetworkModel>,
        fabric: FabricConfig,
        obs: Arc<Recorder>,
        heal: bool,
    ) -> Self {
        let parts = pg.part_count();
        let metrics = ClusterMetrics::new(parts, pg.sockets_per_machine());
        let transport = ChannelTransport::start(pg, &metrics, fabric.fault, Arc::clone(&obs));
        let windows = (0..parts).map(|_| Arc::new(Window::new(fabric.window))).collect();
        EdgeListService {
            transport: Arc::new(transport),
            metrics,
            network,
            retry: fabric.retry,
            windows,
            seq: Arc::new(AtomicU64::new(0)),
            liveness: Arc::new(Liveness::new(pg, heal)),
            obs,
        }
    }

    /// A client handle for `part` (cheap to clone, thread-safe). Clones
    /// share the part's in-flight window. Traffic is attributed to the
    /// conventional query id 0 (unattributed) and counted into the
    /// part's row and a fresh query row of the client's own; a caller
    /// that reads its query's traffic back uses
    /// [`EdgeListService::client_for_query`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `part` is out of range.
    pub fn client(&self, part: PartId) -> EdgeListClient {
        self.client_for_query(part, 0, &Arc::default())
    }

    /// A client handle for `part` whose traffic is attributed to
    /// `query_id`: the id is stamped on wire requests and spans, and the
    /// counters land in `row` — the query's row, which the caller made
    /// once for all of its clients — as well as in the part's. Clients
    /// of different queries on the same part share the part's in-flight
    /// window (the window models the part's link, which the queries
    /// contend for).
    ///
    /// # Panics
    ///
    /// Panics if `part` is out of range.
    pub fn client_for_query(
        &self,
        part: PartId,
        query_id: u64,
        row: &Arc<Counters>,
    ) -> EdgeListClient {
        assert!(part < self.windows.len(), "part out of range");
        EdgeListClient {
            part,
            query: query_id,
            scope: self.metrics.scope(part, row),
            transport: Arc::clone(&self.transport),
            metrics: self.metrics.clone(),
            network: self.network,
            retry: self.retry,
            window: Arc::clone(&self.windows[part]),
            seq: Arc::clone(&self.seq),
            liveness: Arc::clone(&self.liveness),
            obs: Arc::clone(&self.obs),
        }
    }

    /// Whether `part` has been detected as fail-stop dead.
    pub fn is_part_dead(&self, part: PartId) -> bool {
        self.liveness.is_dead(part)
    }

    /// Every part currently detected as fail-stop dead.
    pub fn dead_parts(&self) -> Vec<PartId> {
        self.liveness.dead_parts()
    }

    /// Whether this service re-replicates after a death.
    pub fn heals(&self) -> bool {
        self.liveness.heal.is_some()
    }

    /// Blocks while a repair is in flight. Every death promoted before
    /// the call has then been repaired: its short slices are back at the
    /// reachable replication, or have no live copy left.
    pub fn await_repairs(&self) {
        if let Some(heal) = &self.liveness.heal {
            drop(heal.repair.lock());
        }
    }

    /// Completed re-replication transfers and their wire bytes, over the
    /// service's life.
    pub fn repair_totals(&self) -> (u64, u64) {
        self.liveness.heal.as_ref().map_or((0, 0), |heal| {
            (heal.transfers.load(Ordering::Relaxed), heal.bytes.load(Ordering::Relaxed))
        })
    }

    /// Live copies of `slice`'s data (own part while alive + live
    /// replica holders) — its effective replication right now.
    pub fn live_copies(&self, slice: PartId) -> usize {
        self.liveness.live_copies(slice)
    }

    /// The live replica holders of `slice` (excluding the part itself).
    pub fn live_holders(&self, slice: PartId) -> Vec<PartId> {
        self.liveness.live_holders(slice)
    }

    /// Current routing epoch: bumped whenever re-replication publishes a
    /// restored holder. Lets callers (and the `/status` health view)
    /// observe that the failover table changed.
    pub fn routing_epoch(&self) -> u64 {
        self.liveness.epoch.load(Ordering::SeqCst)
    }

    /// The slice ids `part`'s responder currently hosts (own slice
    /// first), including slices installed by re-replication.
    pub fn hosted_slices(&self, part: PartId) -> Vec<PartId> {
        self.transport.hosted_slices(part)
    }

    /// The shared metrics of this cluster.
    pub fn metrics(&self) -> &ClusterMetrics {
        &self.metrics
    }

    /// The recorder this service reports spans and histograms into.
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.obs
    }

    /// Stops every responder and joins its thread. Idempotent — the
    /// engine's `Drop` calls this unconditionally, including after an
    /// errored run already tore the service down. Outstanding client
    /// handles survive but their subsequent fetches return
    /// [`FetchError::Shutdown`].
    pub fn shutdown(&self) {
        self.transport.shutdown();
    }
}

/// A per-part client of the [`EdgeListService`].
#[derive(Debug, Clone)]
pub struct EdgeListClient {
    part: PartId,
    /// The query this client works for (0 = unattributed). Stamped on
    /// every wire request and span.
    query: u64,
    /// Where this client's events are counted: `part`'s row and
    /// `query`'s.
    scope: Scope,
    transport: Arc<ChannelTransport>,
    metrics: ClusterMetrics,
    network: Option<NetworkModel>,
    retry: RetryPolicy,
    window: Arc<Window>,
    seq: Arc<AtomicU64>,
    liveness: Arc<Liveness>,
    obs: Arc<Recorder>,
}

impl EdgeListClient {
    /// The part this client belongs to.
    pub fn part(&self) -> PartId {
        self.part
    }

    /// Number of parts in the cluster.
    pub fn part_count(&self) -> usize {
        self.transport.part_count()
    }

    /// The query this client's traffic is attributed to (0 means
    /// unattributed).
    pub fn query_id(&self) -> u64 {
        self.query
    }

    /// The rows this client counts into. The part runtime also counts
    /// cache hits and misses here, so a query's hit rate is exact under
    /// interleaving.
    pub fn scope(&self) -> &Scope {
        &self.scope
    }

    /// Whether `part` has been detected as fail-stop dead. The part
    /// runtime polls its own id here to stop a dead part's coordinator.
    pub fn is_part_dead(&self, part: PartId) -> bool {
        self.liveness.is_dead(part)
    }

    /// Promotes `part` to the dead state, recording the failure (event +
    /// cluster counter) exactly once across all clients. The event is
    /// coarse, so a post-hoc incident bundle shows the death even with
    /// span tracing off. On a healing service the promoting call also
    /// repairs every slice the death left short before it returns, and
    /// promotes under the repair lock: a route that sees the death and
    /// no live holder waits for that repair instead of failing mid-way.
    fn promote_dead(&self, part: PartId) {
        let Some(heal) = &self.liveness.heal else {
            self.record_death(part);
            return;
        };
        let _repairing = heal.repair.lock();
        let mut deaths = Vec::new();
        if self.record_death(part) {
            deaths.push(part);
        }
        while let Some(dead) = deaths.pop() {
            let restored = self.repair(heal, &mut deaths);
            self.obs.event(0, SpanKind::RebalanceDone, dead as u32, restored, 0);
        }
    }

    /// Marks `part` dead and records the failure; `true` on the
    /// promoting call, the only one that records.
    fn record_death(&self, part: PartId) -> bool {
        let fresh = self.liveness.promote(part);
        if fresh {
            self.metrics.part(part).add(Counter::PartsFailed, 1);
            self.obs.event(self.query, SpanKind::PartFailed, part as u32, 0, 0);
        }
        fresh
    }

    /// Restores every slice with fewer live copies than the reachable
    /// target (the replication factor, capped by the live parts) by
    /// pushing a live copy to the next live non-holder in hash-successor
    /// order, the ring the static placement uses. A source or host found
    /// dead on the way is promoted and queued on `deaths` for a pass of
    /// its own.
    /// Returns the copies restored. Scanning every slice, not just the
    /// dead part's, costs one liveness read per slice at target.
    fn repair(&self, heal: &Heal, deaths: &mut Vec<PartId>) -> u64 {
        let (lv, n) = (&*self.liveness, self.part_count());
        let mut restored = 0;
        for slice in 0..n {
            // Every turn restores a copy, promotes a death or ends the
            // loop, so it ends.
            loop {
                let target = heal.replication.min(n - lv.dead_parts().len());
                let mut copies = lv.live_holders(slice);
                if !lv.is_dead(slice) {
                    copies.insert(0, slice);
                }
                if copies.len() >= target {
                    break;
                }
                // No live copy left: the slice is lost for good.
                let Some(&source) = copies.first() else { break };
                let mut ring = (1..n).map(|off| (slice + off) % n);
                let Some(host) = ring.find(|&h| !lv.is_dead(h) && !copies.contains(&h)) else {
                    break;
                };
                match self.replicate_slice(heal, slice, source, host) {
                    Ok(()) => restored += 1,
                    Err(FetchError::PartDead { part }) => {
                        if self.record_death(part) {
                            deaths.push(part);
                        }
                    }
                    Err(_) => break,
                }
            }
        }
        restored
    }

    /// Pushes `source`'s copy of `slice` to `host`, one message acked
    /// once, and publishes `host` as a live holder (routing-epoch bump).
    fn replicate_slice(
        &self,
        heal: &Heal,
        slice: PartId,
        source: PartId,
        host: PartId,
    ) -> Result<(), FetchError> {
        // A holder that was killed but not yet promoted has no copy to give.
        let copy = self.transport.hosted_slice(source, slice);
        let push = ReplicaPush { slice: copy.ok_or(FetchError::PartDead { part: source })? };
        let bytes = self.transport.push_replica(host, push, self.retry.timeout)?;
        self.liveness.add_holder(slice, host);
        heal.transfers.fetch_add(1, Ordering::Relaxed);
        heal.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.obs.event(0, SpanKind::ReplicaPush, slice as u32, host as u64, 0);
        Ok(())
    }

    /// Fetches the edge lists of `vertices` from `target`, blocking until
    /// the response arrives — [`fetch_async`] + [`PendingFetch::wait`].
    /// All vertices must be owned by `target`.
    ///
    /// Traffic and request count are recorded against this
    /// client's part; if a [`NetworkModel`] is configured, cross-machine
    /// fetches are additionally delayed by the modeled transfer time.
    ///
    /// [`fetch_async`]: EdgeListClient::fetch_async
    ///
    /// # Errors
    ///
    /// Any [`FetchError`] variant: `NotOwner` if `target` does not own
    /// some vertex, `Shutdown` after the service stopped, `Timeout` when
    /// the retry budget is exhausted, `TooLarge` on wire-format overflow.
    pub fn fetch(&self, target: PartId, vertices: &[VertexId]) -> Result<FetchedLists, FetchError> {
        self.fetch_async(target, vertices)?.wait()
    }

    /// [`fetch_clamped_async`](EdgeListClient::fetch_clamped_async) of
    /// whole lists.
    pub fn fetch_async(
        &self,
        target: PartId,
        vertices: &[VertexId],
    ) -> Result<PendingFetch, FetchError> {
        self.fetch_clamped_async(target, vertices, None)
    }

    /// Issues a fetch without waiting for the reply: each list whole, or
    /// the `k`-th list above `above[k]`.
    ///
    /// Blocks only while this part's in-flight window is full
    /// (backpressure); once a slot is free the request is submitted and
    /// a completion handle returned. The reply [`PendingFetch::wait`]
    /// returns reads in request order, so `lists.list(i)` always answers
    /// `vertices[i]` — a vertex requested twice is served twice.
    ///
    /// # Errors
    ///
    /// Returns [`FetchError::Shutdown`] if the service has stopped, or
    /// [`FetchError::PartDead`] if `target` is dead and no live replica
    /// holder can serve its slice.
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of range or `above` does not hold one
    /// bound per vertex.
    pub fn fetch_clamped_async(
        &self,
        target: PartId,
        vertices: &[VertexId],
        above: Option<&[VertexId]>,
    ) -> Result<PendingFetch, FetchError> {
        let permit = self.window.acquire();
        self.submit(target, vertices, above, permit)
    }

    /// [`fetch_clamped_async`] that never blocks: `Ok(None)`, with
    /// nothing submitted or recorded, when this part's in-flight window
    /// is full.
    ///
    /// The window is shared by every client of the part, so a caller
    /// holding un-waited fetches must not block on it — the slots it
    /// waits for may be its own. Such a caller submits through here and,
    /// on `None`, waits its oldest fetch before trying again.
    ///
    /// [`fetch_clamped_async`]: EdgeListClient::fetch_clamped_async
    ///
    /// # Errors
    ///
    /// As [`fetch_clamped_async`].
    pub fn try_fetch_async(
        &self,
        target: PartId,
        vertices: &[VertexId],
        above: Option<&[VertexId]>,
    ) -> Result<Option<PendingFetch>, FetchError> {
        match self.window.try_acquire() {
            Some(permit) => self.submit(target, vertices, above, permit).map(Some),
            None => Ok(None),
        }
    }

    /// Submits one request under an already-held window slot.
    fn submit(
        &self,
        target: PartId,
        vertices: &[VertexId],
        above: Option<&[VertexId]>,
        permit: WindowPermit,
    ) -> Result<PendingFetch, FetchError> {
        assert!(target < self.part_count(), "target part out of range");
        if let Some(above) = above {
            assert_eq!(above.len(), vertices.len(), "one bound per requested vertex");
        }
        self.obs.observe(Metric::WindowOccupancy, self.window.occupancy());
        let submitted_ns = self.obs.now_ns();
        let (reply_tx, reply_rx) = unbounded();
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        // The causal request id: the first attempt's seq, offset by one
        // so 0 stays "unlinked". Retries get a fresh seq (the fault plan
        // re-rolls per seq) but keep this id, so every span of the
        // lifecycle — issue, serves, retries, and the consuming wait —
        // shares one link.
        let req_id = seq + 1;
        self.obs.event(self.query, SpanKind::FetchIssue, self.part as u32, target as u64, req_id);
        let request = WireRequest {
            seq,
            req_id,
            query: self.query,
            // `target` stays the logical owner on the wire; the submission
            // goes to whichever part currently serves that slice.
            owner: target,
            vertices: Arc::from(vertices),
            above: above.map(Arc::from),
        };
        let mut fetch = PendingFetch {
            client: self.clone(),
            target: self.liveness.route(target)?,
            request,
            reply_tx,
            reply_rx,
            attempts: 1,
            submitted: Instant::now(),
            submitted_ns,
            _permit: permit,
        };
        fetch.send()?;
        Ok(fetch)
    }
}

/// How one [`PendingFetch::wait_split`] divides: the parts of the wait
/// that were not spent while the reply was served or in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WaitSplit {
    /// Waiting before the responder began serving the attempt that
    /// answered: behind the responder's other requests, or behind lost
    /// attempts.
    pub queue: Duration,
    /// Sleeping in retry backoff between attempts.
    pub backoff: Duration,
}

/// A fetch in flight: the completion handle returned by
/// [`EdgeListClient::fetch_async`].
///
/// Holds one slot of the issuing part's request window until it is
/// waited on or dropped; dropping abandons the fetch (the reply, if any,
/// is discarded).
#[derive(Debug)]
pub struct PendingFetch {
    client: EdgeListClient,
    /// The part currently serving the request: its logical owner while
    /// alive, else a replica holder. Updated when a mid-flight failover
    /// re-routes.
    target: PartId,
    /// The request as every submission (first attempt, retries,
    /// failovers) sends it — its columns shared, not copied — with the
    /// current attempt's `seq` and the stable causal `req_id`
    /// (first-attempt seq + 1).
    request: WireRequest,
    reply_tx: Sender<WireReply>,
    reply_rx: Receiver<WireReply>,
    attempts: u32,
    /// First submission time; the network model's transfer delay is
    /// measured from here so concurrent in-flight transfers overlap.
    submitted: Instant,
    /// Recorder timestamp of the first submission, for the `Fetch` span.
    submitted_ns: u64,
    _permit: WindowPermit,
}

impl PendingFetch {
    /// The causal request id of this fetch, stable across retries and
    /// nonzero by construction. Wait-side callers stamp it on the span
    /// covering their blocked `recv` (see `gpm_obs::Span::link`) so the
    /// trace links the wait to the issue and the responder's serve.
    pub fn request_id(&self) -> u64 {
        self.request.req_id
    }

    /// Blocks until the reply arrives (retrying on loss), counts the
    /// traffic, and returns the lists in request order:
    /// [`PendingFetch::wait_split`] without the split.
    ///
    /// # Errors
    ///
    /// The [`FetchError`] the reply carries, or [`FetchError::Timeout`]
    /// once the retry budget is exhausted.
    pub fn wait(self) -> Result<FetchedLists, FetchError> {
        self.wait_split().map(|(lists, _)| lists)
    }

    /// [`PendingFetch::wait`], also returning how this wait divides: the
    /// time before the responder began serving the attempt that answered,
    /// and the time this fetch slept in retry backoff. Both fall inside
    /// the wait, so together they are at most its length; the rest was
    /// spent while the reply was served or in (modelled) flight.
    ///
    /// # Errors
    ///
    /// As [`PendingFetch::wait`].
    pub fn wait_split(mut self) -> Result<(FetchedLists, WaitSplit), FetchError> {
        let waited = Instant::now();
        let mut backoff = Duration::ZERO;
        let mut sent = self.submitted;
        let (lists, served_at) = loop {
            let (deadline, seq) = (sent + self.client.retry.timeout, self.request.seq);
            match await_reply(&self.reply_rx, deadline, |r: &WireReply| r.seq == seq) {
                Some(WireReply { payload, served_at, .. }) => break (payload?, served_at),
                // Lost: another attempt.
                None => backoff += self.resubmit()?,
            }
            sent = Instant::now();
        };
        // Queueing is the overlap of this wait with [first submission,
        // serve start]. The wait opens after the submission and the serve
        // starts before its reply arrives, so that is the wait's time
        // before the serve — less the backoff, which sleeps inside it
        // ahead of the last attempt.
        let queue = served_at.saturating_duration_since(waited).saturating_sub(backoff);
        let req_bytes = self.request.wire_bytes();
        let resp_bytes = lists.response_bytes();
        if self.target != self.request.owner {
            // Served by a replica holder of a dead part: account the
            // failover traffic separately for the run report — once on
            // the issuing side, and once against the *serving holder* so
            // the spread (or hotspotting) of failover load is visible.
            let bytes = req_bytes + resp_bytes;
            self.client.scope.add(Counter::ReroutedRequests, 1);
            self.client.scope.add(Counter::ReroutedBytes, bytes);
            let holder = self.client.metrics.part(self.target);
            holder.add(Counter::ReroutedServedRequests, 1);
            holder.add(Counter::ReroutedServedBytes, bytes);
        }
        let obs = &self.client.obs;
        obs.span(
            self.client.query,
            SpanKind::Fetch,
            self.client.part as u32,
            self.submitted_ns,
            self.target as u64,
            self.request.req_id,
        );
        obs.observe(Metric::FetchLatencyNs, self.submitted.elapsed().as_nanos() as u64);
        obs.observe(Metric::BatchBytes, resp_bytes);
        let class = self.client.metrics.classify(self.client.part, self.target);
        self.client.scope.add_transfer(class, req_bytes, resp_bytes);
        if let (Some(model), TrafficClass::CrossMachine) = (self.client.network, class) {
            let target_delay = model.transfer_time(req_bytes + resp_bytes);
            // Time already spent since submission counts toward the
            // modeled transfer, so transfers in flight while the caller
            // integrated earlier batches cost nothing extra.
            if let Some(remaining) = target_delay.checked_sub(self.submitted.elapsed()) {
                precise_sleep(remaining);
            }
        }
        Ok((lists, WaitSplit { queue, backoff }))
    }

    /// One more attempt after a lost one: backoff, a fresh sequence
    /// number, [`PendingFetch::send`]; returns the backoff slept. Once the
    /// budget is spent the fetch fails with [`FetchError::Timeout`]; a lost
    /// reply never promotes the serving part to dead.
    fn resubmit(&mut self) -> Result<Duration, FetchError> {
        let (c, link) = (&self.client, self.request.req_id);
        let Some(slept) =
            c.retry.back_off(self.attempts, &c.obs, SpanKind::Retry, c.query, c.part, link)
        else {
            return Err(FetchError::Timeout { target: self.target, attempts: self.attempts });
        };
        c.scope.add(Counter::Retries, 1);
        self.attempts += 1;
        self.request.seq = c.seq.fetch_add(1, Ordering::Relaxed);
        self.send()?;
        Ok(slept)
    }

    /// Submits the current attempt to the part serving the owner's slice.
    /// While the transport reports that part dead, fails over and submits
    /// again; ends once a submission is accepted, or with
    /// [`FetchError::PartDead`] once no live holder is left — each turn
    /// promotes one more part, so it terminates.
    fn send(&mut self) -> Result<(), FetchError> {
        loop {
            let req = self.request.clone();
            match self.client.transport.submit(self.target, req, &self.reply_tx) {
                Err(FetchError::PartDead { part }) => self.fail_over(part)?,
                other => return other,
            }
        }
    }

    /// Promotes `dead` and re-routes this fetch to the next live holder
    /// of the owner's slice, with a fresh sequence number and a fresh
    /// attempt budget for the new link.
    fn fail_over(&mut self, dead: PartId) -> Result<(), FetchError> {
        let c = &self.client;
        c.promote_dead(dead);
        let owner = self.request.owner;
        self.target = c.liveness.route(owner)?;
        let (link, target) = (self.request.req_id, self.target as u64);
        c.obs.event(c.query, SpanKind::Failover, owner as u32, target, link);
        self.attempts = 1;
        self.request.seq = c.seq.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// Sleeps for short durations more precisely than `thread::sleep` alone:
/// sleeps for the bulk, spins for the tail.
fn precise_sleep(d: Duration) {
    if d.is_zero() {
        return;
    }
    let start = Instant::now();
    if d > Duration::from_micros(200) {
        std::thread::sleep(d - Duration::from_micros(100));
    }
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::CrashAt;
    use gpm_graph::gen;
    use gpm_graph::rank::rank_by_degree;

    /// A partitioned graph and the ranked graph its parts hold.
    fn cluster(machines: usize, sockets: usize) -> (gpm_graph::Graph, PartitionedGraph) {
        let g = gen::erdos_renyi(200, 800, 7);
        let pg = PartitionedGraph::new(&g, machines, sockets);
        (rank_by_degree(&g).0, pg)
    }

    #[test]
    fn fetch_returns_correct_lists() {
        let (g, pg) = cluster(4, 1);
        let service = EdgeListService::start(&pg, None);
        let client = service.client(0);
        for v in [0u32, 5, 17, 100, 199] {
            let owner = pg.owner(v);
            let lists = client.fetch(owner, &[v]).unwrap();
            assert_eq!(lists.list(0), g.neighbors(v));
        }
        service.shutdown();
    }

    #[test]
    fn batched_fetch_preserves_order() {
        let (g, pg) = cluster(2, 1);
        let service = EdgeListService::start(&pg, None);
        let client = service.client(1);
        // All vertices owned by part 0, batched.
        let owned: Vec<VertexId> = pg.part(0).owned().iter().copied().take(20).collect();
        let lists = client.fetch(0, &owned).unwrap();
        assert_eq!(lists.len(), owned.len());
        for (i, &v) in owned.iter().enumerate() {
            assert_eq!(lists.list(i), g.neighbors(v), "list {i} mismatched");
        }
        service.shutdown();
    }

    #[test]
    fn missing_vertex_is_an_error() {
        let (_, pg) = cluster(4, 1);
        let service = EdgeListService::start(&pg, None);
        let client = service.client(0);
        let v = (0..200u32).find(|&v| pg.owner(v) != 2).unwrap();
        let err = client.fetch(2, &[v]).unwrap_err();
        assert_eq!(err, FetchError::NotOwner { target: 2, missing: vec![v] });
        assert!(err.to_string().contains("does not own"));
        service.shutdown();
    }

    #[test]
    fn metrics_are_recorded() {
        let (_, pg) = cluster(2, 1);
        let service = EdgeListService::start(&pg, None);
        let client = service.client(1);
        let owned: Vec<VertexId> = pg.part(0).owned().iter().copied().take(5).collect();
        client.fetch(0, &owned).unwrap();
        let m = service.metrics();
        let totals = m.totals();
        assert_eq!(totals[Counter::FetchRequests], 1);
        assert!(totals[Counter::NetworkBytes] > 0);
        assert!(m.part(1).get(Counter::BytesReceived) > 0);
        assert!(m.part(0).get(Counter::ServedRequests) == 1);
        // No duplicates, no faults: nothing coalesced, nothing retried.
        assert_eq!(totals[Counter::Coalesced], 0);
        assert_eq!(totals[Counter::Retries], 0);
        service.shutdown();
    }

    #[test]
    fn cross_socket_classified_separately() {
        let (_, pg) = cluster(1, 2); // one machine, two sockets
        let service = EdgeListService::start(&pg, None);
        let client = service.client(0);
        let owned: Vec<VertexId> = pg.part(1).owned().iter().copied().take(3).collect();
        client.fetch(1, &owned).unwrap();
        assert_eq!(service.metrics().totals()[Counter::NetworkBytes], 0);
        assert!(service.metrics().totals()[Counter::NumaBytes] > 0);
        service.shutdown();
    }

    #[test]
    fn concurrent_clients() {
        let (g, pg) = cluster(4, 1);
        let service = EdgeListService::start(&pg, None);
        let mut joins = Vec::new();
        for part in 0..4 {
            let client = service.client(part);
            let g = g.clone();
            let pg = pg.clone();
            joins.push(std::thread::spawn(move || {
                for v in (part as u32 * 50)..(part as u32 * 50 + 50) {
                    let lists = client.fetch(pg.owner(v), &[v]).unwrap();
                    assert_eq!(lists.list(0), g.neighbors(v));
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        service.shutdown();
    }

    #[test]
    fn network_model_delays_cross_machine_only() {
        let (_, pg) = cluster(2, 1);
        // Very slow model so delay dominates.
        let model = NetworkModel { latency_us: 2000.0, bandwidth_gbps: 56.0 };
        let service = EdgeListService::start(&pg, Some(model));
        let client = service.client(1);
        let owned: Vec<VertexId> = pg.part(0).owned().iter().copied().take(1).collect();
        let t0 = Instant::now();
        client.fetch(0, &owned).unwrap();
        assert!(t0.elapsed().as_micros() >= 2000, "model delay not applied");
        service.shutdown();
    }

    #[test]
    fn empty_fetch() {
        let (_, pg) = cluster(2, 1);
        let service = EdgeListService::start(&pg, None);
        let lists = service.client(0).fetch(1, &[]).unwrap();
        assert!(lists.is_empty());
        assert_eq!(lists.len(), 0);
        service.shutdown();
    }

    #[test]
    fn a_vertex_requested_twice_is_served_twice() {
        let (g, pg) = cluster(2, 1);
        let service = EdgeListService::start(&pg, None);
        let client = service.client(1);
        let owned: Vec<VertexId> = pg.part(0).owned().iter().copied().take(3).collect();
        let (a, b, c) = (owned[0], owned[1], owned[2]);
        let request = [a, b, a, c, b, a];
        let lists = client.fetch(0, &request).unwrap();
        assert_eq!(lists.len(), request.len());
        for (i, &v) in request.iter().enumerate() {
            assert_eq!(lists.list(i), g.neighbors(v), "list {i} mismatched");
        }
        // Deduplicating is the requester's business: all six went out.
        assert_eq!(service.metrics().part(1).get(Counter::BytesSent), 16 + 4 * 6);
        assert_eq!(service.metrics().totals()[Counter::Coalesced], 0);
        service.shutdown();
    }

    /// What a bounded request must return for `v` with bound `above`.
    fn clamped(g: &gpm_graph::Graph, v: VertexId, above: VertexId) -> Vec<VertexId> {
        g.neighbors(v).iter().copied().filter(|&u| u > above).collect()
    }

    #[test]
    fn the_responder_clamps_every_bounded_list() {
        let (g, pg) = cluster(2, 1);
        let service = EdgeListService::start(&pg, None);
        let client = service.client(1);
        let owned: Vec<VertexId> = pg.part(0).owned().to_vec();
        let above: Vec<VertexId> = owned.iter().map(|&v| v.wrapping_mul(37) % 200).collect();
        let mut degrees: Vec<u32> = owned.iter().map(|&v| g.degree(v)).collect();
        degrees.sort_unstable();
        let median = degrees[degrees.len() / 2];
        let lists = client.fetch_clamped_async(0, &owned, Some(&above)).unwrap().wait().unwrap();
        // Cut lists on both sides of the median degree: no degree ships whole.
        let (mut short, mut long) = (0, 0);
        for (k, &v) in owned.iter().enumerate() {
            let want = clamped(&g, v, above[k]);
            assert_eq!(lists.list(k), &want[..], "{v} above {}", above[k]);
            if (want.len() as u32) < g.degree(v) {
                *if g.degree(v) < median { &mut short } else { &mut long } += 1;
            }
        }
        assert!(short > 0 && long > 0, "{short} short and {long} long lists cut");
        // The unbounded entry points still ship every list whole.
        let lists = client.fetch(0, &owned).unwrap();
        assert!(owned.iter().enumerate().all(|(k, &v)| lists.list(k) == g.neighbors(v)));
        service.shutdown();
    }

    #[test]
    fn bounded_replies_are_clamped_whatever_served_them() {
        let g = gen::erdos_renyi(200, 800, 7);
        let pg = PartitionedGraph::with_replication(&g, 3, 1, 2);
        let g = rank_by_degree(&g).0;
        let owned: Vec<VertexId> = pg.part(0).owned().iter().copied().take(12).collect();
        let faults = [
            None,
            // Replies lost: `resubmit` sends the same columns.
            Some(FaultPlan::drops(0.3)),
            // The owner dies under the loop: `fail_over` re-routes to the
            // replica holder, first at submission and then mid-flight, and
            // the holder clamps as the owner would.
            Some(FaultPlan::crash_at(0, 2)),
        ];
        for fault in faults {
            let fabric = FabricConfig { retry: faulty_retry(), fault, ..FabricConfig::default() };
            let service = EdgeListService::start_with(&pg, None, fabric.clone());
            let client = service.client(1);
            for round in 0..owned.len() - 2 {
                let request = &owned[round..round + 3];
                let above: Vec<VertexId> = request.iter().map(|&v| (v * 7 + 50) % 200).collect();
                let lists = client.fetch_clamped_async(0, request, Some(&above)).unwrap().wait();
                let lists = lists.unwrap();
                for (k, &v) in request.iter().enumerate() {
                    assert_eq!(lists.list(k), &clamped(&g, v, above[k])[..]);
                }
            }
            let totals = service.metrics().totals();
            let (retries, rerouted) = (totals[Counter::Retries], totals[Counter::ReroutedRequests]);
            match &fabric.fault {
                None => assert_eq!(retries + rerouted, 0),
                Some(plan) if plan.crashes.is_empty() => assert!(retries > 0),
                Some(_) => assert!(rerouted > 0),
            }
            service.shutdown();
        }
    }

    #[test]
    fn a_bound_costs_four_request_bytes() {
        let (_, pg) = cluster(2, 1);
        let service = EdgeListService::start(&pg, None);
        let client = service.client(1);
        let owned: Vec<VertexId> = pg.part(0).owned().iter().copied().take(8).collect();
        let sent = || service.metrics().part(1).get(Counter::BytesSent);
        client.fetch(0, &owned).unwrap();
        assert_eq!(sent(), 16 + 4 * 8);
        client.fetch_clamped_async(0, &owned, Some(&owned)).unwrap().wait().unwrap();
        assert_eq!(sent(), (16 + 4 * 8) + (16 + 4 * 8 + 4 * 8));
        service.shutdown();
    }

    #[test]
    fn query_scoped_clients_attribute_traffic_and_spans() {
        // Two queries fetch over the same service: each query's counters
        // see only its own requests, and every lifecycle span (issue,
        // serve, fetch) carries the issuing query's id.
        let (_, pg) = cluster(2, 1);
        let obs = Recorder::new(&gpm_obs::ObsConfig::enabled());
        let service = EdgeListService::start_observed(
            &pg,
            None,
            FabricConfig::default(),
            Arc::clone(&obs),
            false,
        );
        let (q7, q9) = (Arc::new(Counters::default()), Arc::new(Counters::default()));
        let c7 = service.client_for_query(1, 7, &q7);
        let c9 = service.client_for_query(1, 9, &q9);
        assert_eq!(c7.query_id(), 7);
        let owned: Vec<VertexId> = pg.part(0).owned().iter().copied().take(4).collect();
        c7.fetch(0, &owned[..2]).unwrap();
        c7.fetch(0, &owned[2..3]).unwrap();
        c9.fetch(0, &owned[3..]).unwrap();
        assert_eq!(q7.get(Counter::FetchRequests), 2);
        assert_eq!(q9.get(Counter::FetchRequests), 1);
        assert!(q7.get(Counter::NetworkBytes) > 0);
        // The issuing part's row is the two queries' rows summed, counter
        // by counter.
        let mut sum = q7.snapshot();
        sum += &q9.snapshot();
        assert_eq!(sum, service.metrics().part(1).snapshot());
        assert_eq!(sum[Counter::FetchRequests], 3);
        for s in obs.spans() {
            if matches!(s.kind, SpanKind::FetchIssue | SpanKind::Fetch | SpanKind::Serve) {
                assert!(s.query == 7 || s.query == 9, "unattributed lifecycle span: {s:?}");
            }
        }
        let fetches: Vec<u64> =
            obs.spans().iter().filter(|s| s.kind == SpanKind::Fetch).map(|s| s.query).collect();
        assert_eq!(fetches.iter().filter(|&&q| q == 7).count(), 2);
        assert_eq!(fetches.iter().filter(|&&q| q == 9).count(), 1);
        service.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent() {
        let (_, pg) = cluster(2, 1);
        let service = EdgeListService::start(&pg, None);
        let v = pg.part(0).owned()[0];
        assert!(service.client(1).fetch(0, &[v]).is_ok());
        service.shutdown();
        service.shutdown(); // second teardown must be a no-op, not a hang
        assert_eq!(service.client(1).fetch(0, &[v]).unwrap_err(), FetchError::Shutdown);
    }

    #[test]
    fn fetch_after_shutdown_is_a_typed_error() {
        let (_, pg) = cluster(2, 1);
        let service = EdgeListService::start(&pg, None);
        let client = service.client(0);
        let v = pg.part(1).owned()[0];
        assert!(client.fetch(1, &[v]).is_ok());
        service.shutdown();
        assert_eq!(client.fetch(1, &[v]).unwrap_err(), FetchError::Shutdown);
        assert!(FetchError::Shutdown.to_string().contains("shut down"));
    }

    #[test]
    fn window_bounds_inflight_requests() {
        let (_, pg) = cluster(2, 1);
        let fabric = FabricConfig { window: 2, ..FabricConfig::default() };
        let service = EdgeListService::start_with(&pg, None, fabric);
        let client = service.client(1);
        let owned: Vec<VertexId> = pg.part(0).owned().iter().copied().take(3).collect();
        let p0 = client.fetch_async(0, &owned[..1]).unwrap();
        let p1 = client.fetch_async(0, &owned[1..2]).unwrap();
        assert_eq!(service.windows[1].occupancy(), 2);
        // A non-blocking third issue reports the full window and leaves
        // no trace: nothing submitted, nothing counted.
        assert!(client.try_fetch_async(0, &owned[2..3], None).unwrap().is_none());
        assert_eq!(service.windows[1].occupancy(), 2);
        // A blocking third issue must wait until a slot retires.
        let (issued_tx, issued_rx) = unbounded::<()>();
        let c2 = client.clone();
        let vs = owned[2..3].to_vec();
        let t = std::thread::spawn(move || {
            let p = c2.fetch_async(0, &vs).unwrap();
            issued_tx.send(()).unwrap();
            p.wait().unwrap();
        });
        assert!(
            issued_rx.recv_timeout(Duration::from_millis(50)).is_err(),
            "third fetch issued past a full window"
        );
        p0.wait().unwrap();
        issued_rx.recv_timeout(Duration::from_secs(5)).expect("slot retire unblocks issue");
        p1.wait().unwrap();
        t.join().unwrap();
        assert_eq!(service.windows[1].occupancy(), 0);
        assert_eq!(service.metrics().part(0).get(Counter::ServedRequests), 3);
        let p3 =
            client.try_fetch_async(0, &owned[..1], None).unwrap().expect("the window has room");
        assert_eq!(p3.wait().unwrap().len(), 1);
        service.shutdown();
    }

    fn faulty_retry() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 10,
            timeout: Duration::from_millis(30),
            backoff: Duration::from_micros(500),
        }
    }

    #[test]
    fn dropped_replies_are_retried() {
        let (g, pg) = cluster(2, 1);
        let fabric = FabricConfig {
            retry: faulty_retry(),
            fault: Some(FaultPlan::drops(0.3)),
            ..FabricConfig::default()
        };
        let service = EdgeListService::start_with(&pg, None, fabric);
        let client = service.client(1);
        for &v in pg.part(0).owned().iter().take(30) {
            let lists = client.fetch(0, &[v]).unwrap();
            assert_eq!(lists.list(0), g.neighbors(v));
        }
        assert!(service.metrics().totals()[Counter::Retries] > 0, "30% drops must force retries");
        service.shutdown();
    }

    /// A wait under dropped replies splits into parts that fit inside
    /// it: the backoff it reports covers every sleep the policy owes the
    /// retries it took, and queueing plus backoff never exceed the wait.
    #[test]
    fn a_wait_reports_its_backoff_and_queueing_within_itself() {
        let (g, pg) = cluster(2, 1);
        let retry = faulty_retry();
        let fabric =
            FabricConfig { retry, fault: Some(FaultPlan::drops(0.5)), ..FabricConfig::default() };
        let service = EdgeListService::start_with(&pg, None, fabric);
        let client = service.client(1);
        let mut retried = 0;
        for &v in pg.part(0).owned().iter().take(20) {
            let before = service.metrics().totals()[Counter::Retries];
            let pending = client.fetch_async(0, &[v]).unwrap();
            let t0 = Instant::now();
            let (lists, split) = pending.wait_split().unwrap();
            let waited = t0.elapsed();
            assert_eq!(lists.list(0), g.neighbors(v));
            let retries = service.metrics().totals()[Counter::Retries] - before;
            let owed: Duration = (0..retries as u32).map(|k| retry.backoff * (1 << k)).sum();
            assert!(split.backoff >= owed, "{split:?} for {retries} retries, owed {owed:?}");
            assert!(split.queue + split.backoff <= waited, "{split:?} over a {waited:?} wait");
            retried += retries;
        }
        assert!(retried > 0, "50% drops must force retries");
        service.shutdown();
    }

    /// A late reply to an earlier attempt, queued ahead of the answer to
    /// the current one, is skipped: the wait takes only its own `seq`.
    #[test]
    fn a_late_reply_to_an_earlier_attempt_is_skipped() {
        let (g, pg) = cluster(2, 1);
        // A fresh service's first fetch takes seq 0 and its retry seq 1.
        // Pick the seed that loses exactly the first attempt.
        let fault = (0..)
            .map(|seed| FaultPlan { seed, ..FaultPlan::drops(0.5) })
            .find(|p| p.drops_reply(0, 0) && !p.drops_reply(0, 1))
            .expect("a quarter of all seeds drop seq 0 and deliver seq 1");
        let retry = RetryPolicy { timeout: Duration::from_secs(10), ..faulty_retry() };
        let fabric = FabricConfig { retry, fault: Some(fault), ..FabricConfig::default() };
        let service = EdgeListService::start_with(&pg, None, fabric);
        let v = pg.part(0).owned()[0];
        let mut pending = service.client(1).fetch_async(0, &[v]).unwrap();
        assert_eq!(pending.request.seq, 0);
        // The first attempt's reply, late and wrong, lands before the
        // retry is even sent.
        let stale = FetchedLists::from_parts(vec![0, 0], Vec::new());
        let late = WireReply { seq: 0, payload: Ok(stale), served_at: Instant::now() };
        pending.reply_tx.send(late).unwrap();
        pending.resubmit().unwrap();
        assert_eq!(pending.request.seq, 1);
        let (lists, _) = pending.wait_split().unwrap();
        assert_eq!(lists.list(0), g.neighbors(v), "the wait took the stale reply");
        service.shutdown();
    }

    #[test]
    fn exhausted_retries_become_timeout() {
        let (_, pg) = cluster(2, 1);
        let fabric = FabricConfig {
            retry: RetryPolicy {
                max_attempts: 3,
                timeout: Duration::from_millis(5),
                backoff: Duration::from_micros(100),
            },
            fault: Some(FaultPlan::drops(1.0)),
            ..FabricConfig::default()
        };
        let service = EdgeListService::start_with(&pg, None, fabric);
        let client = service.client(1);
        let v = pg.part(0).owned()[0];
        let err = client.fetch(0, &[v]).unwrap_err();
        assert_eq!(err, FetchError::Timeout { target: 0, attempts: 3 });
        assert!(err.to_string().contains("after 3 attempts"));
        assert_eq!(service.metrics().part(1).get(Counter::Retries), 2);
        assert!(!client.is_part_dead(0), "a lost reply never promotes its target");
        service.shutdown();
    }

    #[test]
    fn observed_service_records_fabric_spans() {
        let (_, pg) = cluster(2, 1);
        let obs = Recorder::new(&gpm_obs::ObsConfig::enabled());
        let service = EdgeListService::start_observed(
            &pg,
            None,
            FabricConfig::default(),
            Arc::clone(&obs),
            false,
        );
        let client = service.client(1);
        let owned: Vec<VertexId> = pg.part(0).owned().iter().copied().take(5).collect();
        client.fetch(0, &owned).unwrap();
        let spans = obs.spans();
        assert!(
            spans.iter().any(|s| s.kind == SpanKind::Fetch && s.part == 1 && s.arg == 0),
            "missing Fetch span: {spans:?}"
        );
        assert!(
            spans.iter().any(|s| s.kind == SpanKind::Serve && s.part == 0),
            "missing Serve span: {spans:?}"
        );
        assert_eq!(obs.hist_snapshot(Metric::FetchLatencyNs).count, 1);
        assert_eq!(obs.hist_snapshot(Metric::BatchBytes).count, 1);
        assert_eq!(obs.hist_snapshot(Metric::WindowOccupancy).count, 1);
        // Batch-bytes histogram saw exactly the accounted response size.
        assert_eq!(
            obs.hist_snapshot(Metric::BatchBytes).sum,
            service.metrics().part(1).get(Counter::BytesReceived)
        );
        service.shutdown();
    }

    #[test]
    fn observed_faults_and_retries_record_instants() {
        let (_, pg) = cluster(2, 1);
        let obs = Recorder::new(&gpm_obs::ObsConfig::enabled());
        let fabric = FabricConfig {
            retry: faulty_retry(),
            fault: Some(FaultPlan::drops(0.5)),
            ..FabricConfig::default()
        };
        let service = EdgeListService::start_observed(&pg, None, fabric, Arc::clone(&obs), false);
        let client = service.client(1);
        for &v in pg.part(0).owned().iter().take(20) {
            client.fetch(0, &[v]).unwrap();
        }
        let spans = obs.spans();
        assert!(
            spans.iter().any(|s| s.kind == SpanKind::Fault && s.arg == 1),
            "missing Fault(drop) instant"
        );
        let retries = spans.iter().filter(|s| s.kind == SpanKind::Retry).count() as u64;
        assert_eq!(retries, service.metrics().totals()[Counter::Retries]);
        assert!(retries > 0);
        service.shutdown();
    }

    #[test]
    fn fetch_lifecycle_spans_share_one_link() {
        // Tentpole: issue, responder serve, and the completed fetch all
        // carry the same nonzero causal link, and distinct requests get
        // distinct links.
        let (_, pg) = cluster(2, 1);
        let obs = Recorder::new(&gpm_obs::ObsConfig::enabled());
        let service = EdgeListService::start_observed(
            &pg,
            None,
            FabricConfig::default(),
            Arc::clone(&obs),
            false,
        );
        let client = service.client(1);
        let owned: Vec<VertexId> = pg.part(0).owned().iter().copied().take(2).collect();
        client.fetch(0, &owned[..1]).unwrap();
        client.fetch(0, &owned[1..]).unwrap();
        let spans = obs.spans();
        let mut links = Vec::new();
        for s in &spans {
            match s.kind {
                SpanKind::FetchIssue | SpanKind::Fetch | SpanKind::Serve => {
                    assert_ne!(s.link, 0, "unlinked lifecycle span: {s:?}");
                    links.push(s.link);
                }
                _ => {}
            }
        }
        links.sort_unstable();
        // Two requests × (issue + serve + fetch) = two groups of three.
        assert_eq!(links.len(), 6, "spans: {spans:?}");
        assert_eq!(links[0], links[2]);
        assert_eq!(links[3], links[5]);
        assert_ne!(links[0], links[3]);
        service.shutdown();
    }

    #[test]
    fn retry_spans_keep_the_original_link() {
        // Retries roll a fresh wire seq (the fault plan re-rolls per
        // seq) but the causal link must survive, so the trace ties each
        // backoff to the right request.
        let (_, pg) = cluster(2, 1);
        let obs = Recorder::new(&gpm_obs::ObsConfig::enabled());
        let fabric = FabricConfig {
            retry: faulty_retry(),
            fault: Some(FaultPlan::drops(0.5)),
            ..FabricConfig::default()
        };
        let service = EdgeListService::start_observed(&pg, None, fabric, Arc::clone(&obs), false);
        let client = service.client(1);
        for &v in pg.part(0).owned().iter().take(20) {
            client.fetch(0, &[v]).unwrap();
        }
        let spans = obs.spans();
        let retries: Vec<_> = spans.iter().filter(|s| s.kind == SpanKind::Retry).collect();
        assert!(!retries.is_empty(), "50% drops must force retries");
        for r in &retries {
            assert_ne!(r.link, 0, "retry span lost its link: {r:?}");
            assert!(
                spans.iter().any(|s| s.kind == SpanKind::Fetch && s.link == r.link),
                "retry link {} has no completed fetch",
                r.link
            );
            // The retry span covers the backoff sleep (500µs here).
            assert!(r.dur_ns >= 400_000, "retry span too short: {r:?}");
        }
        service.shutdown();
    }

    #[test]
    fn unobserved_service_records_nothing() {
        let (_, pg) = cluster(2, 1);
        let service = EdgeListService::start(&pg, None);
        let client = service.client(1);
        let v = pg.part(0).owned()[0];
        client.fetch(0, &[v]).unwrap();
        assert_eq!(service.recorder().spans_recorded(), 0);
        assert_eq!(service.recorder().hist_snapshot(Metric::FetchLatencyNs).count, 0);
        service.shutdown();
    }

    #[test]
    fn crashed_part_fails_over_to_a_replica_holder() {
        let g = gen::erdos_renyi(200, 800, 7);
        let pg = PartitionedGraph::with_replication(&g, 3, 1, 2);
        let g = rank_by_degree(&g).0;
        let fabric =
            FabricConfig { fault: Some(FaultPlan::crash_at(0, 3)), ..FabricConfig::default() };
        let service = EdgeListService::start_with(&pg, None, fabric);
        let client = service.client(1);
        let owned: Vec<VertexId> = pg.part(0).owned().iter().copied().take(10).collect();
        // The crash fires on the fourth submission targeting part 0;
        // every fetch still succeeds, served by the replica holder.
        for &v in &owned {
            let lists = client.fetch(0, &[v]).unwrap();
            assert_eq!(lists.list(0), g.neighbors(v));
        }
        assert!(client.is_part_dead(0));
        assert_eq!(service.dead_parts(), vec![0]);
        let totals = service.metrics().totals();
        assert_eq!(totals[Counter::PartsFailed], 1);
        assert!(totals[Counter::ReroutedRequests] >= 7, "{totals:?}");
        assert!(totals[Counter::ReroutedBytes] > 0);
        service.shutdown();
    }

    #[test]
    fn dead_part_without_replica_is_a_typed_error() {
        let (_, pg) = cluster(2, 1); // replication 1: no holder to fail over to
        let fabric =
            FabricConfig { fault: Some(FaultPlan::crash_at(0, 2)), ..FabricConfig::default() };
        let service = EdgeListService::start_with(&pg, None, fabric);
        let client = service.client(1);
        let mut last = None;
        for &v in pg.part(0).owned().iter().take(5) {
            if let Err(e) = client.fetch(0, &[v]) {
                last = Some(e);
                break;
            }
        }
        let err = last.expect("crash never surfaced");
        assert_eq!(err, FetchError::PartDead { part: 0 });
        assert!(err.to_string().contains("dead"));
        assert!(client.is_part_dead(0));
        assert_eq!(service.metrics().totals()[Counter::PartsFailed], 1);
        service.shutdown();
    }

    #[test]
    fn failover_records_failure_instants() {
        let g = gen::erdos_renyi(200, 800, 7);
        let pg = PartitionedGraph::with_replication(&g, 3, 1, 2);
        let obs = Recorder::new(&gpm_obs::ObsConfig::enabled());
        let fabric =
            FabricConfig { fault: Some(FaultPlan::crash_at(0, 1)), ..FabricConfig::default() };
        let service = EdgeListService::start_observed(&pg, None, fabric, Arc::clone(&obs), false);
        let client = service.client(2);
        for &v in pg.part(0).owned().iter().take(4) {
            client.fetch(0, &[v]).unwrap();
        }
        let spans = obs.spans();
        assert!(
            spans.iter().any(|s| s.kind == SpanKind::PartCrash && s.part == 0),
            "missing PartCrash instant: {spans:?}"
        );
        assert_eq!(
            spans.iter().filter(|s| s.kind == SpanKind::PartFailed && s.part == 0).count(),
            1,
            "PartFailed must be recorded exactly once"
        );
        let failover =
            spans.iter().find(|s| s.kind == SpanKind::Failover).expect("missing Failover instant");
        assert_eq!(failover.part, 0, "failover names the dead owner");
        assert_eq!(failover.arg, 2, "failover names the serving holder");
        assert_ne!(failover.link, 0, "failover instant keeps the request link");
        service.shutdown();
    }

    #[test]
    fn dead_owner_fetches_round_robin_across_live_holders() {
        // r = 3 on four parts: slice 0 is held by parts 3 and 2. With
        // part 0 dead, fetches for its slice must spread across both
        // holders instead of hammering the nearest hash-successor.
        let g = gen::erdos_renyi(200, 800, 7);
        let pg = PartitionedGraph::with_replication(&g, 4, 1, 3);
        let g = rank_by_degree(&g).0;
        let fabric =
            FabricConfig { fault: Some(FaultPlan::crash_at(0, 0)), ..FabricConfig::default() };
        let service = EdgeListService::start_with(&pg, None, fabric);
        let client = service.client(1);
        let owned: Vec<VertexId> = pg.part(0).owned().iter().copied().take(20).collect();
        for &v in &owned {
            let lists = client.fetch(0, &[v]).unwrap();
            assert_eq!(lists.list(0), g.neighbors(v));
        }
        let m = service.metrics();
        let served = |c| (m.part(2).get(c), m.part(3).get(c));
        let (s2, s3) = served(Counter::ReroutedServedRequests);
        assert!(s2 > 0 && s3 > 0, "one holder starved: part2={s2} part3={s3}");
        let (b2, b3) = served(Counter::ReroutedServedBytes);
        let max_share = b2.max(b3) as f64 / (b2 + b3) as f64;
        assert!(max_share <= 0.7, "holder hotspot: {b2} vs {b3} bytes ({max_share:.2})");
        // Issuer-side accounting still sees the union.
        assert_eq!(m.totals()[Counter::ReroutedRequests], s2 + s3);
        service.shutdown();
    }

    #[test]
    fn replicate_slice_restores_failover_after_total_holder_loss() {
        // r = 2 on three parts: slice 0's static copies are part 0 and its
        // one holder, part 2. Crash part 0, then part 2: the failover that
        // detects the first death copies slice 0 onto part 1 before it
        // re-routes, so once both static copies are gone part 1 serves.
        let g = gen::erdos_renyi(200, 800, 7);
        let pg = PartitionedGraph::with_replication(&g, 3, 1, 2);
        let g = rank_by_degree(&g).0;
        let fabric = FabricConfig {
            fault: Some(FaultPlan {
                crashes: vec![
                    CrashAt { part: 0, after_requests: 0 },
                    CrashAt { part: 2, after_requests: 0 },
                ],
                ..FaultPlan::default()
            }),
            ..FabricConfig::default()
        };
        let service =
            EdgeListService::start_observed(&pg, None, fabric, Recorder::disabled(), true);
        let client = service.client(1);
        // Failovers alternate between the two holders, so the second
        // fetch at the latest reaches part 2 and kills it.
        for &v in pg.part(0).owned().iter().take(4) {
            let lists = client.fetch(0, &[v]).unwrap();
            assert_eq!(lists.list(0), g.neighbors(v));
        }
        assert_eq!(service.dead_parts(), vec![0, 2]);
        assert_eq!(service.live_holders(0), vec![1]);
        assert!(service.hosted_slices(1).contains(&0), "slice 0 not installed on part 1");
        assert!(service.routing_epoch() > 0, "routing epoch not republished");
        assert!(service.metrics().part(1).get(Counter::ReroutedServedRequests) > 0);
        // Part 0's death left slices 0 and 1 one copy short; part 2's
        // left nothing short of the one copy two dead parts allow.
        let (transfers, bytes) = service.repair_totals();
        assert_eq!(transfers, 2);
        assert!(bytes > 0);
        service.shutdown();
    }

    #[test]
    fn a_holderless_route_waits_for_the_repair_lock_and_finds_the_repaired_holder() {
        // Slice 0's owner and only holder are dead while another thread
        // holds the repair lock: the route waits, and is served by the
        // holder the repair publishes before it lets go.
        let g = gen::erdos_renyi(200, 800, 7);
        let pg = PartitionedGraph::with_replication(&g, 3, 1, 2);
        let lv = Arc::new(Liveness::new(&pg, true));
        let repairing = lv.heal.as_ref().unwrap().repair.lock();
        lv.promote(0);
        lv.promote(2);
        let router = {
            let lv = Arc::clone(&lv);
            std::thread::spawn(move || lv.route(0))
        };
        std::thread::sleep(Duration::from_millis(50));
        assert!(!router.is_finished(), "the route must wait for the repair in flight");
        lv.add_holder(0, 1);
        drop(repairing);
        assert_eq!(router.join().unwrap(), Ok(1));
    }

    #[test]
    fn a_holderless_slice_fails_part_dead_at_once_after_the_lock() {
        let g = gen::erdos_renyi(200, 800, 7);
        let pg = PartitionedGraph::with_replication(&g, 3, 1, 2);
        for heal in [true, false] {
            let lv = Liveness::new(&pg, heal);
            lv.promote(0);
            lv.promote(2);
            let t0 = Instant::now();
            assert_eq!(lv.route(0), Err(FetchError::PartDead { part: 0 }), "heal={heal}");
            assert!(t0.elapsed() < Duration::from_millis(500), "heal={heal}: a route waited");
            // The other slices still route: slice 2 to its holder, part 1.
            assert_eq!(lv.route(2), Ok(1), "heal={heal}");
        }
    }
}
