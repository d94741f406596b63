//! Per-part traffic and timing counters.
//!
//! Every message layer in the workspace reports into these counters, which
//! back the paper's network-traffic tables (Table 6, Figure 12, Figure 16,
//! Figure 17) and the utilization plot (Figure 19).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Classification of a transfer by topology distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Between sockets of the same machine (NUMA interconnect).
    CrossSocket,
    /// Between machines (the actual network).
    CrossMachine,
}

/// Counters for one part. All methods are thread-safe.
#[derive(Debug, Default)]
pub struct PartMetrics {
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    cross_machine_bytes: AtomicU64,
    cross_socket_bytes: AtomicU64,
    requests: AtomicU64,
    served_requests: AtomicU64,
    served_bytes: AtomicU64,
    comm_wait_nanos: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    inflight: AtomicU64,
    inflight_peak: AtomicU64,
    coalesced: AtomicU64,
    retries: AtomicU64,
    rerouted_requests: AtomicU64,
    rerouted_bytes: AtomicU64,
    rerouted_served_requests: AtomicU64,
    rerouted_served_bytes: AtomicU64,
    ctrl_sent: AtomicU64,
    ctrl_retried: AtomicU64,
    ctrl_dropped: AtomicU64,
}

impl PartMetrics {
    /// Records an outgoing request of `req_bytes` answered with
    /// `resp_bytes`, classified by distance.
    pub fn record_fetch(&self, class: TrafficClass, req_bytes: u64, resp_bytes: u64) {
        self.bytes_sent.fetch_add(req_bytes, Ordering::Relaxed);
        self.bytes_received.fetch_add(resp_bytes, Ordering::Relaxed);
        self.requests.fetch_add(1, Ordering::Relaxed);
        let total = req_bytes + resp_bytes;
        match class {
            TrafficClass::CrossMachine => {
                self.cross_machine_bytes.fetch_add(total, Ordering::Relaxed)
            }
            TrafficClass::CrossSocket => {
                self.cross_socket_bytes.fetch_add(total, Ordering::Relaxed)
            }
        };
    }

    /// Records that this part served a request of `bytes` response bytes.
    pub fn record_served(&self, bytes: u64) {
        self.served_requests.fetch_add(1, Ordering::Relaxed);
        self.served_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Adds blocking time spent waiting for remote data.
    pub fn record_wait(&self, d: Duration) {
        self.comm_wait_nanos.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Records the software-cache outcomes of one resolve phase: `hits`
    /// lists needed no fetch, `misses` went on to the fabric.
    pub fn record_cache_lookups(&self, hits: u64, misses: u64) {
        self.cache_hits.fetch_add(hits, Ordering::Relaxed);
        self.cache_misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// Records a request entering this part's in-flight window.
    pub fn record_inflight_start(&self) {
        let now = self.inflight.fetch_add(1, Ordering::Relaxed) + 1;
        self.inflight_peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Records a request retiring from this part's in-flight window.
    ///
    /// Saturating: a completion racing a shutdown drain must not wrap the
    /// gauge to `u64::MAX` (that would report a permanently-full window).
    /// Debug builds assert on the mismatch so the race is still caught in
    /// tests.
    pub fn record_inflight_end(&self) {
        let prev = self
            .inflight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_sub(1)))
            .expect("fetch_update closure always returns Some");
        debug_assert!(prev > 0, "inflight gauge underflow: end without matching start");
    }

    /// Records `n` vertices deduplicated out of a request before it hit
    /// the wire.
    pub fn record_coalesced(&self, n: u64) {
        self.coalesced.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one retried request attempt.
    pub fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a fetch of `bytes` (request + response) this part
    /// completed against a replica holder because the owning part was
    /// dead.
    pub fn record_rerouted(&self, bytes: u64) {
        self.rerouted_requests.fetch_add(1, Ordering::Relaxed);
        self.rerouted_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records a rerouted fetch of `bytes` that *this part served* from
    /// its hosted copy of a dead part's slice — the holder-side mirror
    /// of [`PartMetrics::record_rerouted`], split per serving holder so
    /// failover hotspotting is observable.
    pub fn record_rerouted_served(&self, bytes: u64) {
        self.rerouted_served_requests.fetch_add(1, Ordering::Relaxed);
        self.rerouted_served_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Bytes sent in requests by this part.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }

    /// Bytes received in responses by this part.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received.load(Ordering::Relaxed)
    }

    /// Total bytes that crossed a machine boundary (both directions).
    pub fn cross_machine_bytes(&self) -> u64 {
        self.cross_machine_bytes.load(Ordering::Relaxed)
    }

    /// Total bytes that crossed only a socket boundary.
    pub fn cross_socket_bytes(&self) -> u64 {
        self.cross_socket_bytes.load(Ordering::Relaxed)
    }

    /// Number of fetch requests issued.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Number of requests served for other parts.
    pub fn served_requests(&self) -> u64 {
        self.served_requests.load(Ordering::Relaxed)
    }

    /// Response bytes served for other parts.
    pub fn served_bytes(&self) -> u64 {
        self.served_bytes.load(Ordering::Relaxed)
    }

    /// Total time this part's threads blocked on communication.
    pub fn comm_wait(&self) -> Duration {
        Duration::from_nanos(self.comm_wait_nanos.load(Ordering::Relaxed))
    }

    /// Cache hits recorded by this part.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Cache misses recorded by this part.
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses.load(Ordering::Relaxed)
    }

    /// Requests currently occupying this part's in-flight window.
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Relaxed)
    }

    /// Deepest the in-flight window ever got on this part.
    pub fn peak_inflight(&self) -> u64 {
        self.inflight_peak.load(Ordering::Relaxed)
    }

    /// Vertices saved from the wire by request coalescing.
    pub fn coalesced_requests(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Request attempts beyond the first (timeout/fault recovery).
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Fetches this part completed against a replica holder of a dead
    /// part.
    pub fn rerouted_requests(&self) -> u64 {
        self.rerouted_requests.load(Ordering::Relaxed)
    }

    /// Bytes (request + response) of this part's rerouted fetches.
    pub fn rerouted_bytes(&self) -> u64 {
        self.rerouted_bytes.load(Ordering::Relaxed)
    }

    /// Rerouted fetches this part served from a hosted replica of a
    /// dead part's slice.
    pub fn rerouted_served_requests(&self) -> u64 {
        self.rerouted_served_requests.load(Ordering::Relaxed)
    }

    /// Bytes (request + response) of rerouted fetches this part served.
    pub fn rerouted_served_bytes(&self) -> u64 {
        self.rerouted_served_bytes.load(Ordering::Relaxed)
    }

    /// Records one control-plane message attempt sent by this part.
    pub fn record_ctrl_sent(&self) {
        self.ctrl_sent.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one retried control-plane message attempt.
    pub fn record_ctrl_retry(&self) {
        self.ctrl_retried.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one control-plane message dropped by fault injection.
    pub fn record_ctrl_dropped(&self) {
        self.ctrl_dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Control-plane message attempts sent by this part.
    pub fn ctrl_sent(&self) -> u64 {
        self.ctrl_sent.load(Ordering::Relaxed)
    }

    /// Control-plane attempts beyond the first (timeout/fault recovery).
    pub fn ctrl_retried(&self) -> u64 {
        self.ctrl_retried.load(Ordering::Relaxed)
    }

    /// Control-plane messages dropped by the fault plan.
    pub fn ctrl_dropped(&self) -> u64 {
        self.ctrl_dropped.load(Ordering::Relaxed)
    }
}

/// Traffic counters attributed to one query of a multi-tenant run.
///
/// Part counters ([`PartMetrics`]) answer "what did this part do"; query
/// counters answer "what did this *query* cost", summed over every part
/// that worked on it. The fabric records each event into both, so a
/// resident engine interleaving several queries on one shared worker
/// pool can still report per-tenant traffic exactly — no before/after
/// snapshot deltas, which would misattribute a concurrent neighbour's
/// bytes.
#[derive(Debug, Default)]
pub struct QueryMetrics {
    requests: AtomicU64,
    network_bytes: AtomicU64,
    cross_socket_bytes: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    coalesced: AtomicU64,
    retries: AtomicU64,
    rerouted_requests: AtomicU64,
    rerouted_bytes: AtomicU64,
    ctrl_sent: AtomicU64,
    ctrl_retried: AtomicU64,
    ctrl_dropped: AtomicU64,
}

impl QueryMetrics {
    /// Records a completed fetch of `req_bytes + resp_bytes`, classified
    /// by topology distance.
    pub fn record_fetch(&self, class: TrafficClass, req_bytes: u64, resp_bytes: u64) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let total = req_bytes + resp_bytes;
        match class {
            TrafficClass::CrossMachine => self.network_bytes.fetch_add(total, Ordering::Relaxed),
            TrafficClass::CrossSocket => {
                self.cross_socket_bytes.fetch_add(total, Ordering::Relaxed)
            }
        };
    }

    /// Records the software-cache outcomes of one of this query's
    /// resolve phases.
    pub fn record_cache_lookups(&self, hits: u64, misses: u64) {
        self.cache_hits.fetch_add(hits, Ordering::Relaxed);
        self.cache_misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// Records `n` vertices coalesced out of this query's requests.
    pub fn record_coalesced(&self, n: u64) {
        self.coalesced.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one retried request attempt by this query.
    pub fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a fetch of `bytes` this query completed against a replica
    /// holder because the owning part was dead.
    pub fn record_rerouted(&self, bytes: u64) {
        self.rerouted_requests.fetch_add(1, Ordering::Relaxed);
        self.rerouted_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Fetch requests issued on behalf of this query.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Cross-machine bytes moved for this query (both directions).
    pub fn network_bytes(&self) -> u64 {
        self.network_bytes.load(Ordering::Relaxed)
    }

    /// Cross-socket bytes moved for this query.
    pub fn cross_socket_bytes(&self) -> u64 {
        self.cross_socket_bytes.load(Ordering::Relaxed)
    }

    /// Cache hits attributed to this query.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Cache misses attributed to this query.
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses.load(Ordering::Relaxed)
    }

    /// Vertices saved from the wire by coalescing for this query.
    pub fn coalesced_requests(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Request attempts beyond the first for this query.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Fetches of this query completed against replica holders.
    pub fn rerouted_requests(&self) -> u64 {
        self.rerouted_requests.load(Ordering::Relaxed)
    }

    /// Bytes (request + response) of this query's rerouted fetches.
    pub fn rerouted_bytes(&self) -> u64 {
        self.rerouted_bytes.load(Ordering::Relaxed)
    }

    /// Records one control-plane message attempt by this query.
    pub fn record_ctrl_sent(&self) {
        self.ctrl_sent.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one retried control-plane attempt by this query.
    pub fn record_ctrl_retry(&self) {
        self.ctrl_retried.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one control-plane message of this query dropped by fault
    /// injection.
    pub fn record_ctrl_dropped(&self) {
        self.ctrl_dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Control-plane message attempts sent for this query.
    pub fn ctrl_sent(&self) -> u64 {
        self.ctrl_sent.load(Ordering::Relaxed)
    }

    /// Control-plane attempts beyond the first for this query.
    pub fn ctrl_retried(&self) -> u64 {
        self.ctrl_retried.load(Ordering::Relaxed)
    }

    /// Control-plane messages of this query dropped by the fault plan.
    pub fn ctrl_dropped(&self) -> u64 {
        self.ctrl_dropped.load(Ordering::Relaxed)
    }
}

/// Aggregated metrics for all parts of a cluster.
#[derive(Debug, Clone)]
pub struct ClusterMetrics {
    parts: Vec<Arc<PartMetrics>>,
    /// Row-major `parts × parts` byte counters: `links[from*n + to]`.
    links: Arc<Vec<AtomicU64>>,
    /// Parts promoted to the fail-stop dead state by the fabric.
    parts_failed: Arc<AtomicU64>,
    /// Per-query counter registry, keyed by engine-assigned query id.
    queries: Arc<parking_lot::Mutex<HashMap<u64, Arc<QueryMetrics>>>>,
    sockets_per_machine: usize,
}

impl ClusterMetrics {
    /// Fresh counters for `parts` parts.
    pub fn new(parts: usize, sockets_per_machine: usize) -> Self {
        ClusterMetrics {
            parts: (0..parts).map(|_| Arc::new(PartMetrics::default())).collect(),
            links: Arc::new((0..parts * parts).map(|_| AtomicU64::new(0)).collect()),
            parts_failed: Arc::new(AtomicU64::new(0)),
            queries: Arc::new(parking_lot::Mutex::new(HashMap::new())),
            sockets_per_machine,
        }
    }

    /// Counters of one query, created on first use. The registry is
    /// shared by clones, so a fabric client and the engine resolve the
    /// same counters for the same id. Query id 0 is the conventional
    /// "unattributed" bucket used by legacy single-query paths.
    pub fn query(&self, query_id: u64) -> Arc<QueryMetrics> {
        Arc::clone(
            self.queries
                .lock()
                .entry(query_id)
                .or_insert_with(|| Arc::new(QueryMetrics::default())),
        )
    }

    /// Drops one query's counters from the registry (a resident service
    /// calls this after folding them into the query's report, so the
    /// registry doesn't grow without bound).
    pub fn retire_query(&self, query_id: u64) {
        self.queries.lock().remove(&query_id);
    }

    /// Records that a part was promoted to the fail-stop dead state.
    pub fn record_part_failed(&self) {
        self.parts_failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of parts promoted to the fail-stop dead state.
    pub fn parts_failed(&self) -> u64 {
        self.parts_failed.load(Ordering::Relaxed)
    }

    /// Records `bytes` moved over the directed link `from → to`.
    pub fn record_link(&self, from: usize, to: usize, bytes: u64) {
        let n = self.parts.len();
        self.links[from * n + to].fetch_add(bytes, Ordering::Relaxed);
    }

    /// The `parts × parts` traffic matrix (row = sender).
    ///
    /// Used to diagnose link balance — circulant scheduling (§4.3)
    /// spreads a chunk's fetches across all links instead of hammering
    /// one owner at a time.
    pub fn link_matrix(&self) -> Vec<Vec<u64>> {
        let n = self.parts.len();
        (0..n)
            .map(|f| (0..n).map(|t| self.links[f * n + t].load(Ordering::Relaxed)).collect())
            .collect()
    }

    /// `(max, min)` over the non-diagonal links with any traffic — a
    /// quick imbalance indicator.
    pub fn link_spread(&self) -> Option<(u64, u64)> {
        let m = self.link_matrix();
        let flows: Vec<u64> = m
            .iter()
            .enumerate()
            .flat_map(|(f, row)| {
                row.iter().enumerate().filter(move |(t, _)| *t != f).map(|(_, &b)| b)
            })
            .filter(|&b| b > 0)
            .collect();
        match (flows.iter().max(), flows.iter().min()) {
            (Some(&max), Some(&min)) => Some((max, min)),
            _ => None,
        }
    }

    /// Number of parts tracked.
    pub fn part_count(&self) -> usize {
        self.parts.len()
    }

    /// Sockets per machine (for traffic classification).
    pub fn sockets_per_machine(&self) -> usize {
        self.sockets_per_machine
    }

    /// Counters of one part.
    ///
    /// # Panics
    ///
    /// Panics if `part` is out of range.
    pub fn part(&self, part: usize) -> &Arc<PartMetrics> {
        &self.parts[part]
    }

    /// Classifies a transfer between two parts.
    pub fn classify(&self, from: usize, to: usize) -> TrafficClass {
        if from / self.sockets_per_machine == to / self.sockets_per_machine {
            TrafficClass::CrossSocket
        } else {
            TrafficClass::CrossMachine
        }
    }

    /// Sum of cross-machine bytes over all parts — the paper's "network
    /// traffic" metric.
    pub fn total_network_bytes(&self) -> u64 {
        self.parts.iter().map(|p| p.cross_machine_bytes()).sum()
    }

    /// Sum of cross-socket bytes over all parts.
    pub fn total_cross_socket_bytes(&self) -> u64 {
        self.parts.iter().map(|p| p.cross_socket_bytes()).sum()
    }

    /// Total fetch requests issued cluster-wide.
    pub fn total_requests(&self) -> u64 {
        self.parts.iter().map(|p| p.requests()).sum()
    }

    /// Total vertices saved from the wire by coalescing, cluster-wide.
    pub fn total_coalesced(&self) -> u64 {
        self.parts.iter().map(|p| p.coalesced_requests()).sum()
    }

    /// Total retried request attempts, cluster-wide.
    pub fn total_retries(&self) -> u64 {
        self.parts.iter().map(|p| p.retries()).sum()
    }

    /// Total fetches completed against replica holders of dead parts.
    pub fn total_rerouted_requests(&self) -> u64 {
        self.parts.iter().map(|p| p.rerouted_requests()).sum()
    }

    /// Total bytes of rerouted fetches, cluster-wide.
    pub fn total_rerouted_bytes(&self) -> u64 {
        self.parts.iter().map(|p| p.rerouted_bytes()).sum()
    }

    /// Total control-plane message attempts sent, cluster-wide.
    pub fn total_ctrl_sent(&self) -> u64 {
        self.parts.iter().map(|p| p.ctrl_sent()).sum()
    }

    /// Total retried control-plane attempts, cluster-wide.
    pub fn total_ctrl_retried(&self) -> u64 {
        self.parts.iter().map(|p| p.ctrl_retried()).sum()
    }

    /// Total control-plane messages dropped by fault injection.
    pub fn total_ctrl_dropped(&self) -> u64 {
        self.parts.iter().map(|p| p.ctrl_dropped()).sum()
    }

    /// Deepest in-flight window depth observed on any part.
    pub fn peak_inflight(&self) -> u64 {
        self.parts.iter().map(|p| p.peak_inflight()).max().unwrap_or(0)
    }

    /// One coherent-enough copy of every cumulative cluster counter, for
    /// windowed rollups: each field is a relaxed load, so the snapshot is
    /// not a single atomic cut, but every counter is individually exact
    /// and monotone — which is all a delta ring needs.
    pub fn counter_snapshot(&self) -> CounterSnapshot {
        let (hits, misses) =
            self.parts.iter().fold((0, 0), |(h, m), p| (h + p.cache_hits(), m + p.cache_misses()));
        CounterSnapshot {
            requests: self.total_requests(),
            network_bytes: self.total_network_bytes(),
            numa_bytes: self.total_cross_socket_bytes(),
            cache_hits: hits,
            cache_misses: misses,
            coalesced: self.total_coalesced(),
            retries: self.total_retries(),
            rerouted_requests: self.total_rerouted_requests(),
            rerouted_bytes: self.total_rerouted_bytes(),
            served_requests: self.parts.iter().map(|p| p.served_requests()).sum(),
            served_bytes: self.parts.iter().map(|p| p.served_bytes()).sum(),
            ctrl_sent: self.total_ctrl_sent(),
            ctrl_retried: self.total_ctrl_retried(),
            ctrl_dropped: self.total_ctrl_dropped(),
        }
    }

    /// Total blocking communication time summed over parts.
    pub fn total_comm_wait(&self) -> Duration {
        self.parts.iter().map(|p| p.comm_wait()).sum()
    }

    /// Cluster-wide cache hit rate in `[0, 1]`, or `None` if no lookups.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let hits: u64 = self.parts.iter().map(|p| p.cache_hits()).sum();
        let misses: u64 = self.parts.iter().map(|p| p.cache_misses()).sum();
        let total = hits + misses;
        (total > 0).then(|| hits as f64 / total as f64)
    }

    /// Network utilization over a run of `elapsed` wall-clock time on a
    /// cluster whose per-machine links follow `model`: achieved bytes/s
    /// divided by aggregate available bandwidth.
    pub fn network_utilization(
        &self,
        elapsed: Duration,
        model: &crate::NetworkModel,
        machines: usize,
    ) -> f64 {
        if elapsed.is_zero() || machines == 0 {
            return 0.0;
        }
        let achieved_bits = self.total_network_bytes() as f64 * 8.0;
        let available = model.bandwidth_gbps * 1e9 * elapsed.as_secs_f64() * machines as f64;
        (achieved_bits / available).min(1.0)
    }
}

/// Cumulative cluster-wide counter totals at one point in time, in a
/// fixed order ([`CounterSnapshot::NAMES`]) so a rollup ring can consume
/// them positionally. All values are monotone counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSnapshot {
    /// Fetch requests issued cluster-wide.
    pub requests: u64,
    /// Cross-machine bytes moved.
    pub network_bytes: u64,
    /// Cross-socket (same-machine) bytes moved.
    pub numa_bytes: u64,
    /// Static-cache hits.
    pub cache_hits: u64,
    /// Static-cache misses.
    pub cache_misses: u64,
    /// Vertices coalesced into already-pending fetches.
    pub coalesced: u64,
    /// Retried request attempts.
    pub retries: u64,
    /// Fetches re-routed to replica holders of dead parts.
    pub rerouted_requests: u64,
    /// Bytes moved by re-routed fetches.
    pub rerouted_bytes: u64,
    /// Requests served for other parts.
    pub served_requests: u64,
    /// Response bytes served for other parts.
    pub served_bytes: u64,
    /// Control-plane message attempts sent.
    pub ctrl_sent: u64,
    /// Retried control-plane attempts.
    pub ctrl_retried: u64,
    /// Control-plane messages dropped by fault injection.
    pub ctrl_dropped: u64,
}

impl CounterSnapshot {
    /// Counter names, matching [`CounterSnapshot::as_array`] order.
    pub const NAMES: [&'static str; 14] = [
        "fetch_requests",
        "network_bytes",
        "numa_bytes",
        "cache_hits",
        "cache_misses",
        "coalesced_requests",
        "retries",
        "rerouted_requests",
        "rerouted_bytes",
        "served_requests",
        "served_bytes",
        "ctrl_sent",
        "ctrl_retried",
        "ctrl_dropped",
    ];

    /// The counters as a positional array in [`CounterSnapshot::NAMES`]
    /// order, ready for `Rollup::push`.
    pub fn as_array(&self) -> [u64; 14] {
        [
            self.requests,
            self.network_bytes,
            self.numa_bytes,
            self.cache_hits,
            self.cache_misses,
            self.coalesced,
            self.retries,
            self.rerouted_requests,
            self.rerouted_bytes,
            self.served_requests,
            self.served_bytes,
            self.ctrl_sent,
            self.ctrl_retried,
            self.ctrl_dropped,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_recording_and_aggregation() {
        let m = ClusterMetrics::new(4, 2);
        m.part(0).record_fetch(TrafficClass::CrossMachine, 100, 900);
        m.part(1).record_fetch(TrafficClass::CrossSocket, 50, 450);
        assert_eq!(m.part(0).bytes_sent(), 100);
        assert_eq!(m.part(0).bytes_received(), 900);
        assert_eq!(m.total_network_bytes(), 1000);
        assert_eq!(m.total_cross_socket_bytes(), 500);
        assert_eq!(m.total_requests(), 2);
    }

    #[test]
    fn classification_by_machine() {
        let m = ClusterMetrics::new(4, 2);
        assert_eq!(m.classify(0, 1), TrafficClass::CrossSocket);
        assert_eq!(m.classify(0, 2), TrafficClass::CrossMachine);
        assert_eq!(m.classify(3, 2), TrafficClass::CrossSocket);
        let m1 = ClusterMetrics::new(4, 1);
        assert_eq!(m1.classify(0, 1), TrafficClass::CrossMachine);
    }

    #[test]
    fn wait_time_accumulates() {
        let m = ClusterMetrics::new(1, 1);
        m.part(0).record_wait(Duration::from_millis(3));
        m.part(0).record_wait(Duration::from_millis(4));
        assert_eq!(m.total_comm_wait(), Duration::from_millis(7));
    }

    #[test]
    fn cache_hit_rate() {
        let m = ClusterMetrics::new(2, 1);
        assert_eq!(m.cache_hit_rate(), None);
        m.part(0).record_cache_lookups(2, 0);
        m.part(1).record_cache_lookups(0, 1);
        assert!((m.cache_hit_rate().unwrap() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn link_matrix_accumulates_per_pair() {
        let m = ClusterMetrics::new(3, 1);
        m.record_link(0, 1, 100);
        m.record_link(0, 1, 50);
        m.record_link(2, 0, 7);
        let lm = m.link_matrix();
        assert_eq!(lm[0][1], 150);
        assert_eq!(lm[2][0], 7);
        assert_eq!(lm[1][2], 0);
        assert_eq!(m.link_spread(), Some((150, 7)));
    }

    #[test]
    fn fabric_counters_accumulate() {
        let m = ClusterMetrics::new(2, 1);
        m.part(0).record_inflight_start();
        m.part(0).record_inflight_start();
        assert_eq!(m.part(0).inflight(), 2);
        m.part(0).record_inflight_end();
        assert_eq!(m.part(0).inflight(), 1);
        assert_eq!(m.part(0).peak_inflight(), 2);
        assert_eq!(m.peak_inflight(), 2);
        m.part(1).record_coalesced(3);
        m.part(1).record_retry();
        m.part(1).record_retry();
        assert_eq!(m.total_coalesced(), 3);
        assert_eq!(m.total_retries(), 2);
    }

    #[test]
    fn counter_snapshot_mirrors_the_totals_positionally() {
        let m = ClusterMetrics::new(4, 2);
        m.part(0).record_fetch(TrafficClass::CrossMachine, 100, 900);
        m.part(1).record_fetch(TrafficClass::CrossSocket, 50, 450);
        m.part(0).record_cache_lookups(1, 0);
        m.part(1).record_cache_lookups(0, 1);
        m.part(1).record_coalesced(3);
        m.part(2).record_retry();
        m.part(2).record_served(64);
        let snap = m.counter_snapshot();
        assert_eq!(snap.requests, m.total_requests());
        assert_eq!(snap.network_bytes, m.total_network_bytes());
        assert_eq!(snap.numa_bytes, m.total_cross_socket_bytes());
        assert_eq!((snap.cache_hits, snap.cache_misses), (1, 1));
        assert_eq!((snap.coalesced, snap.retries), (3, 1));
        assert_eq!((snap.served_requests, snap.served_bytes), (1, 64));
        // The array view lines up with NAMES, name for value.
        let arr = snap.as_array();
        assert_eq!(arr.len(), CounterSnapshot::NAMES.len());
        let idx = CounterSnapshot::NAMES.iter().position(|n| *n == "network_bytes").unwrap();
        assert_eq!(arr[idx], snap.network_bytes);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "inflight gauge underflow")]
    fn unmatched_inflight_end_asserts_in_debug() {
        let m = PartMetrics::default();
        m.record_inflight_end();
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn unmatched_inflight_end_saturates_in_release() {
        let m = PartMetrics::default();
        m.record_inflight_end();
        assert_eq!(m.inflight(), 0, "gauge must saturate at zero, not wrap");
        m.record_inflight_start();
        assert_eq!(m.inflight(), 1);
    }

    #[test]
    fn failure_counters_accumulate() {
        let m = ClusterMetrics::new(3, 1);
        assert_eq!(m.parts_failed(), 0);
        m.record_part_failed();
        assert_eq!(m.parts_failed(), 1);
        // The counter is shared by clones, like the link matrix.
        assert_eq!(m.clone().parts_failed(), 1);
        m.part(1).record_rerouted(512);
        m.part(2).record_rerouted(100);
        assert_eq!(m.part(1).rerouted_requests(), 1);
        assert_eq!(m.part(1).rerouted_bytes(), 512);
        assert_eq!(m.total_rerouted_requests(), 2);
        assert_eq!(m.total_rerouted_bytes(), 612);
    }

    #[test]
    fn query_counters_are_shared_and_retire() {
        let m = ClusterMetrics::new(2, 1);
        let q = m.query(7);
        q.record_fetch(TrafficClass::CrossMachine, 100, 900);
        q.record_fetch(TrafficClass::CrossSocket, 10, 90);
        q.record_cache_lookups(1, 1);
        q.record_coalesced(5);
        q.record_retry();
        q.record_rerouted(256);
        // A clone resolves the same counters for the same id.
        let same = m.clone().query(7);
        assert_eq!(same.requests(), 2);
        assert_eq!(same.network_bytes(), 1000);
        assert_eq!(same.cross_socket_bytes(), 100);
        assert_eq!(same.cache_hits(), 1);
        assert_eq!(same.cache_misses(), 1);
        assert_eq!(same.coalesced_requests(), 5);
        assert_eq!(same.retries(), 1);
        assert_eq!(same.rerouted_requests(), 1);
        assert_eq!(same.rerouted_bytes(), 256);
        // Distinct ids get distinct counters.
        assert_eq!(m.query(8).requests(), 0);
        // Retiring drops the counters; re-resolving starts fresh.
        m.retire_query(7);
        assert_eq!(m.query(7).requests(), 0);
    }

    #[test]
    fn link_spread_empty_when_no_traffic() {
        assert_eq!(ClusterMetrics::new(2, 1).link_spread(), None);
    }

    #[test]
    fn utilization_bounded() {
        let m = ClusterMetrics::new(2, 1);
        m.part(0).record_fetch(TrafficClass::CrossMachine, 0, 7_000_000);
        let model = crate::NetworkModel::infiniband_56g();
        let u = m.network_utilization(Duration::from_millis(10), &model, 2);
        assert!(u > 0.0 && u <= 1.0, "{u}");
        assert_eq!(m.network_utilization(Duration::ZERO, &model, 2), 0.0);
    }
}
