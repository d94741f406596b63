//! The versioned machine-readable `RunReport`.

use crate::hist::HistogramSnapshot;
use crate::span::SpanKind;
use serde::{Deserialize, Serialize, Value};

/// Schema version written into every report. Bump on any
/// field removal/rename or semantic change; additive fields keep the
/// version (consumers must ignore unknown keys).
///
/// v2: `spans` gained per-shard `rings` occupancy and the report gained
/// the `critical_path` section (compute/fetch-wait/queue/retry
/// attribution).
///
/// v3: the report gained the `failures` section (fail-stop parts,
/// replica failover traffic, and recovery re-execution counts).
///
/// v4: the report gained the `queries` section — one entry per query of
/// a multi-tenant service run, each with its own count, traffic,
/// `failures`, and `critical_path` (empty for a single-query run
/// report). Additive (still v4): per-query `roots_total` /
/// `roots_completed` progress totals and `memo_entries` /
/// `memo_evictions` service-memo counters. Additive (still v4): the
/// `control` section (aggregate and per-query) — control-plane message
/// totals of the message-based steal/claim ledger; all-zero under the
/// shared-memory carrier and absent from pre-existing reports (readers
/// treat a missing section as all-zero). Additive (still v4): the
/// `incidents` section — one summary per incident bundle the run's
/// flight-recorder subsystem captured to disk (absent or empty for a
/// clean run; readers treat a missing section as empty) — and histogram
/// `p999`/`max` tail fields (readers treat missing tail fields as
/// unreported, not zero-valued). Additive (still v4): the `rebalance`
/// section — self-healing re-replication totals and per-holder
/// spread-failover accounting (readers treat a missing section as
/// disabled/all-zero).
///
/// v5: the gauge time series `series` is gone. A v4 report still reads:
/// its `series` key is ignored like any unknown key.
///
/// v6: `critical_path` is read off the parts' own timers, for every run
/// — `compute_ns` is the part's compute, and its network time splits into
/// `fetch_wait_ns`, `responder_queue_ns` and `retry_backoff_ns` where the
/// fabric's wait measured the split — instead of rebuilt from the spans
/// the trace rings kept. The per-part counts of waits found and not found
/// in the trace are gone: every wait is measured. A v4 or v5 report still
/// reads; its two counts are ignored like any unknown key.
pub const REPORT_SCHEMA_VERSION: u64 = 6;

/// End-of-run traffic totals, mirroring the engine's `TrafficSummary`
/// counter-for-counter so the two can be diffed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TrafficTotals {
    /// Remote adjacency requests issued over the fabric.
    pub fetch_requests: u64,
    /// Lookups answered by the never-evict static cache.
    pub cache_hits: u64,
    /// Lookups that went to the fabric because the cache missed.
    pub cache_misses: u64,
    /// Pending lists read from an earlier embedding of the same chunk
    /// fill instead of being fetched again (horizontal sharing).
    pub coalesced_requests: u64,
    /// Fetches resubmitted after a timeout or transient fault.
    pub retries: u64,
    /// Bytes moved across the simulated machine boundary.
    pub network_bytes: u64,
    /// Bytes moved between NUMA sockets on the same machine.
    pub numa_bytes: u64,
}

/// Runtime breakdown fractions (sum to 1 when any time was accounted,
/// all zero otherwise — never NaN).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct BreakdownFractions {
    /// Fraction of accounted time in pattern-extension compute.
    pub compute: f64,
    /// Fraction waiting on remote adjacency fetches.
    pub network: f64,
    /// Fraction in chunk scheduling.
    pub scheduler: f64,
    /// Fraction in cache maintenance.
    pub cache: f64,
}

/// Per-part counters copied from the engine's `PartStats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PartReport {
    /// Part id.
    pub part: u64,
    /// Embeddings matched by this part.
    pub count: u64,
    /// Nanoseconds in compute.
    pub compute_ns: u64,
    /// Nanoseconds waiting on the network.
    pub network_ns: u64,
    /// Nanoseconds in the chunk scheduler.
    pub scheduler_ns: u64,
    /// Nanoseconds in cache maintenance.
    pub cache_ns: u64,
    /// Peak live embeddings across all chunk levels.
    pub peak_embeddings: u64,
    /// Roots this part obtained from other parts (steals + spill claims).
    pub roots_stolen: u64,
    /// Roots this part donated to the cross-part spill.
    pub roots_donated: u64,
}

/// A named histogram snapshot in the report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NamedHistogram {
    /// Metric name (see `Metric::name`).
    pub name: String,
    /// The snapshot, with p50/p95/p99.
    pub histogram: HistogramSnapshot,
}

/// Occupancy of one span ring shard at report time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RingOccupancy {
    /// Shard index.
    pub shard: u64,
    /// Spans currently held.
    pub len: u64,
    /// Shard capacity.
    pub capacity: u64,
    /// Spans this shard overwrote after filling up.
    pub dropped: u64,
}

/// Span accounting: how much of the trace survived the ring buffers.
/// Nonzero `dropped` means the trace is truncated; `report-validate`
/// warns on it so truncated traces are never silently trusted.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SpanStats {
    /// Spans offered to the recorder.
    pub recorded: u64,
    /// Spans overwritten because a ring shard filled up.
    pub dropped: u64,
    /// Per-shard ring occupancy, in shard order (empty when the run did
    /// not attach a recorder).
    pub rings: Vec<RingOccupancy>,
}

/// Wall-time attribution fractions of the critical-path section. Each is
/// in `[0, 1]`; together they sum to 1 when any time was accounted and
/// are all zero otherwise (never NaN).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CriticalPathFractions {
    /// Fraction in pattern-extension compute.
    pub compute: f64,
    /// Fraction blocked on a remote fetch in flight (after subtracting
    /// responder queueing and retry backoff).
    pub fetch_wait: f64,
    /// Fraction of blocked time spent queueing behind a busy responder
    /// (issue until the responder started serving the request).
    pub responder_queue: f64,
    /// Fraction of blocked time spent in retry backoff sleeps.
    pub retry_backoff: f64,
}

/// Per-part critical-path decomposition, nanoseconds: the part's compute
/// timer, and its network timer split into the three blocked buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PartCriticalPath {
    /// Part id.
    pub part: u64,
    /// Nanoseconds in compute.
    pub compute_ns: u64,
    /// Nanoseconds blocked on in-flight fetches.
    pub fetch_wait_ns: u64,
    /// Nanoseconds of blocked time queued behind a responder.
    pub responder_queue_ns: u64,
    /// Nanoseconds of blocked time in retry backoff.
    pub retry_backoff_ns: u64,
}

/// The critical-path section of the report (schema v2): how the run's
/// accounted time divides into compute and the three kinds of waiting
/// on remote data.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CriticalPathSection {
    /// Run-wide attribution fractions.
    pub fractions: CriticalPathFractions,
    /// Per-part nanosecond decomposition, sorted by part.
    pub per_part: Vec<PartCriticalPath>,
}

impl CriticalPathSection {
    /// The section over `per_part`: each bucket's share of the time all
    /// rows account, all zero when they account none.
    pub fn from_parts(per_part: Vec<PartCriticalPath>) -> Self {
        let sum = |f: fn(&PartCriticalPath) -> u64| per_part.iter().map(f).sum::<u64>() as f64;
        let compute = sum(|p| p.compute_ns);
        let fetch_wait = sum(|p| p.fetch_wait_ns);
        let queue = sum(|p| p.responder_queue_ns);
        let backoff = sum(|p| p.retry_backoff_ns);
        let total = compute + fetch_wait + queue + backoff;
        let fractions = if total == 0.0 {
            CriticalPathFractions::default()
        } else {
            CriticalPathFractions {
                compute: compute / total,
                fetch_wait: fetch_wait / total,
                responder_queue: queue / total,
                retry_backoff: backoff / total,
            }
        };
        CriticalPathSection { fractions, per_part }
    }
}

/// Fail-stop failure accounting (schema v3). All-zero for a fault-free
/// run. `report-validate` warns when `parts_failed > 0` but
/// `rerouted_bytes == 0` — a part died and failover never engaged, so
/// the run either had no replicas or lost data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FailureSection {
    /// Parts declared failed (fail-stop) during the run.
    pub parts_failed: u64,
    /// Fetches re-routed from a dead part to a live replica holder.
    pub rerouted_requests: u64,
    /// Bytes (request + response) moved by re-routed fetches, accounted
    /// separately from regular traffic.
    pub rerouted_bytes: u64,
    /// Roots re-executed on surviving parts by the recovery pass.
    pub reexecuted_roots: u64,
}

/// One replica holder's share of a dead part's rerouted fetch traffic
/// (additive in v4): the spread-failover policy round-robins dead-owner
/// fetches across every live holder, and this records how much each one
/// actually served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HolderReroute {
    /// The part that served the rerouted fetches.
    pub part: u64,
    /// Rerouted fetches this holder answered.
    pub requests: u64,
    /// Bytes (request + response) this holder served for them.
    pub bytes: u64,
}

/// Self-healing re-replication accounting (additive in v4). All-zero
/// with `enabled: false` for runs without the background rebalancer;
/// `report-validate` warns when `min_effective_replication` ends below
/// `configured_replication` — a slice is still short a copy, so the next
/// crash may lose data.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RebalanceSection {
    /// Whether the background rebalancer was running.
    pub enabled: bool,
    /// Completed slice transfers (one per slice re-replicated).
    pub transfers: u64,
    /// CSR bytes streamed by those transfers.
    pub bytes: u64,
    /// Slices restored to a new holder.
    pub slices_restored: u64,
    /// Slices whose every copy died before a repair landed.
    pub slices_lost: u64,
    /// Routing epoch at report time; bumped on every holder-set change
    /// (death or repair), 0 for an undisturbed run.
    pub routing_epoch: u64,
    /// The replication factor the cluster was configured with.
    pub configured_replication: u64,
    /// Minimum live copy count over all slices at report time.
    pub min_effective_replication: u64,
    /// Per-holder rerouted-fetch service, sorted by part; empty when no
    /// fetch was ever rerouted.
    pub per_holder_rerouted: Vec<HolderReroute>,
}

/// Control-plane message accounting (additive in v4): the steal/claim
/// protocol's typed messages when the run coordinated through the
/// message-based ledger (`--control msg`). All-zero under the
/// shared-memory carrier, which exchanges no messages. `sent` counts
/// every attempt (first sends *and* retries), so `sent - retried` is the
/// number of distinct operations issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ControlSection {
    /// Control requests sent, including retransmissions.
    pub sent: u64,
    /// Control requests re-sent after a timeout or injected fault.
    pub retried: u64,
    /// Control replies dropped by fault injection.
    pub dropped: u64,
}

/// Summary of one incident bundle captured during the run (additive in
/// v4). The full schema-validated bundle — flight-ring slice, progress
/// snapshots, counters, scheduler state — lives on disk at
/// `path`; the report only carries enough to find and rank it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IncidentSummary {
    /// Stable bundle id (also the bundle's file stem).
    pub id: String,
    /// Trigger class.
    pub trigger: TriggerKind,
    /// Query the trigger was attributed to (0 when not query-scoped).
    pub query_id: u64,
    /// Trigger time, nanoseconds since the engine's flight-ring epoch.
    pub at_ns: u64,
    /// Bundle file path as written.
    pub path: String,
}

/// Named counter totals in their table's order: the `counters` object
/// of an incident bundle and of `/status`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterSnapshot(pub Vec<(String, u64)>);

impl Serialize for CounterSnapshot {
    fn to_value(&self) -> Value {
        Value::Map(self.0.iter().map(|(name, n)| (name.clone(), Value::UInt(*n))).collect())
    }
}

impl Deserialize for CounterSnapshot {
    fn from_value(v: &Value, path: &str) -> Result<Self, String> {
        let read = |(name, n): &(String, Value)| {
            Ok((name.clone(), u64::from_value(n, &format!("{path}.{name}"))?))
        };
        serde::object(v, path)?.iter().map(read).collect::<Result<_, String>>().map(CounterSnapshot)
    }
}

/// What fired an incident capture. Each variant has one stable name —
/// the bundle's `trigger.kind` and the report's `incidents[].trigger` —
/// and a coarse [`SpanKind`] recorded into the stream alongside the
/// capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerKind {
    /// A part fail-stopped and a recovery pass re-executed its roots.
    PartFailed,
    /// A part fail-stopped with no replica to recover from.
    PartLost,
    /// A query's cooperative deadline expired. Nothing produces it any
    /// more; it stays so that bundles written with it still read.
    DeadlineExceeded,
    /// A completed query exceeded the slow-query threshold.
    SlowQuery,
    /// The control-plane ledger lost a fire-and-forget operation.
    ControlPoison,
    /// The stall watchdog saw no scheduler progress for its window.
    Stall,
    /// A re-replication transfer made no byte progress for the stall
    /// window.
    RebalanceStuck,
}

serde_by_name!(TriggerKind, "trigger");

impl TriggerKind {
    /// Every trigger, in taxonomy order.
    pub const ALL: [TriggerKind; 7] = [
        TriggerKind::PartFailed,
        TriggerKind::PartLost,
        TriggerKind::DeadlineExceeded,
        TriggerKind::SlowQuery,
        TriggerKind::ControlPoison,
        TriggerKind::Stall,
        TriggerKind::RebalanceStuck,
    ];

    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            TriggerKind::PartFailed => "part_failed",
            TriggerKind::PartLost => "part_lost",
            TriggerKind::DeadlineExceeded => "deadline_exceeded",
            TriggerKind::SlowQuery => "slow_query",
            TriggerKind::ControlPoison => "control_poison",
            TriggerKind::Stall => "stall",
            TriggerKind::RebalanceStuck => "rebalance_stuck",
        }
    }

    /// The event recorded into the stream when this trigger fires.
    pub fn event(self) -> SpanKind {
        match self {
            TriggerKind::PartFailed | TriggerKind::PartLost => SpanKind::PartCrash,
            TriggerKind::DeadlineExceeded => SpanKind::DeadlineMiss,
            TriggerKind::SlowQuery => SpanKind::SlowQuery,
            TriggerKind::ControlPoison => SpanKind::ControlPoison,
            TriggerKind::Stall | TriggerKind::RebalanceStuck => SpanKind::Stall,
        }
    }
}

/// Per-query section of a multi-tenant service report (schema v4). One
/// entry per admitted query, in admission order; a plain single-run
/// report carries an empty `queries` list.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct QueryReport {
    /// Engine-assigned query id (nonzero; spans carry it in
    /// `Span::query`).
    pub query_id: u64,
    /// Human-readable pattern label the query was submitted with.
    pub pattern: String,
    /// Whether the result was served from the service memo instead of
    /// being enumerated. Memoized queries carry the original run's count
    /// but zero traffic of their own.
    pub memoized: bool,
    /// Embeddings matched by this query.
    pub count: u64,
    /// Wall-clock from admission to completion, nanoseconds.
    pub elapsed_ns: u64,
    /// Traffic attributed to this query by the query-scoped fabric
    /// counters.
    pub traffic: TrafficTotals,
    /// Fail-stop failures observed while this query ran.
    pub failures: FailureSection,
    /// Critical-path attribution from this query's own part timers.
    pub critical_path: CriticalPathSection,
    /// Size of the root multiset this query enumerated (0 for memoized
    /// queries, and in reports written while progress was optional).
    /// Additive in v4.
    #[serde(default)]
    pub roots_total: u64,
    /// Roots retired by the time the query finished — at least
    /// `roots_total` for a successful run, higher when a recovery pass
    /// re-executed lost roots.
    #[serde(default)]
    pub roots_completed: u64,
    /// Service memo entries resident when this query completed.
    /// Additive in v4.
    #[serde(default)]
    pub memo_entries: u64,
    /// Cumulative memo evictions by the time this query completed.
    #[serde(default)]
    pub memo_evictions: u64,
    /// Control-plane messages attributed to this query (additive in v4;
    /// all-zero under the shared-memory carrier).
    #[serde(default)]
    pub control: ControlSection,
}

/// The versioned run report written by `--report-out`.
///
/// Subsumes the engine's `TrafficSummary` and breakdown and adds
/// percentile histograms, so benches and CI diff one artifact instead
/// of scraping stdout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Report schema version ([`REPORT_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// System that produced the run (e.g. `khuzdul`, `gthinker`, `ctd`).
    pub system: String,
    /// Total embeddings matched.
    pub count: u64,
    /// Wall-clock elapsed, nanoseconds.
    pub elapsed_ns: u64,
    /// Traffic totals (mirror of `TrafficSummary`).
    pub traffic: TrafficTotals,
    /// Runtime breakdown fractions (`RunStats::breakdown`).
    pub breakdown: BreakdownFractions,
    /// Per-part counters.
    pub per_part: Vec<PartReport>,
    /// Percentile histograms, one per recorded metric.
    pub histograms: Vec<NamedHistogram>,
    /// Span ring accounting.
    pub spans: SpanStats,
    /// Critical-path attribution from the parts' timers; a service
    /// report sums its executed queries' sections.
    pub critical_path: CriticalPathSection,
    /// Fail-stop failure and failover accounting (all-zero for a
    /// fault-free run).
    pub failures: FailureSection,
    /// Self-healing re-replication and spread-failover accounting
    /// (additive in v4; `enabled: false` without the rebalancer).
    #[serde(default)]
    pub rebalance: RebalanceSection,
    /// Control-plane message accounting (additive in v4; all-zero under
    /// the shared-memory carrier).
    #[serde(default)]
    pub control: ControlSection,
    /// Per-query sections of a multi-tenant service run (schema v4),
    /// in admission order; empty for a single-query run.
    pub queries: Vec<QueryReport>,
    /// Incident bundles captured during the run (additive in v4), in
    /// capture order; empty for a clean run.
    #[serde(default)]
    pub incidents: Vec<IncidentSummary>,
}

impl TrafficTotals {
    /// Static-cache hit rate over all lookups, 0.0 when none.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

impl RunReport {
    /// Pretty JSON with a trailing newline. Field order follows the
    /// struct declaration and floats render via `{:?}`, so two reports
    /// built from identical data serialize to identical bytes.
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("in-memory serialization");
        s.push('\n');
        s
    }

    /// Writes [`RunReport::to_json`] to `path`.
    pub fn write_to(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Cross-machine bandwidth utilization in `[0, 1]`, per Fig. 19:
    /// observed network bytes over what `machines` full-duplex links at
    /// `bandwidth_gbps` could carry in the elapsed time. Always finite:
    /// zero elapsed time, zero machines, or non-positive bandwidth
    /// return 0.0 rather than dividing by zero.
    pub fn network_utilization(&self, bandwidth_gbps: f64, machines: usize) -> f64 {
        if self.elapsed_ns == 0 || machines == 0 || bandwidth_gbps <= 0.0 {
            return 0.0;
        }
        let seconds = self.elapsed_ns as f64 / 1e9;
        let capacity_bytes = bandwidth_gbps * 1e9 / 8.0 * seconds * machines as f64;
        (self.traffic.network_bytes as f64 / capacity_bytes).min(1.0)
    }

    /// The histogram named `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name).map(|h| &h.histogram)
    }

    /// Max-over-mean of per-part busy time (the sum of compute, network,
    /// scheduler, and cache ns). 1.0 means perfectly balanced parts;
    /// higher means skew. Edge cases are finite and documented: an empty
    /// `per_part` or one with no accounted time returns 0.0, and a
    /// single-part report returns exactly 1.0 (max equals mean).
    pub fn busy_imbalance(&self) -> f64 {
        let busy: Vec<u64> = self
            .per_part
            .iter()
            .map(|p| p.compute_ns + p.network_ns + p.scheduler_ns + p.cache_ns)
            .collect();
        let max = busy.iter().copied().max().unwrap_or(0);
        let mean = busy.iter().sum::<u64>() as f64 / busy.len().max(1) as f64;
        if mean == 0.0 {
            0.0
        } else {
            max as f64 / mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        RunReport {
            schema_version: REPORT_SCHEMA_VERSION,
            system: "khuzdul".to_string(),
            count: 42,
            elapsed_ns: 1_000_000_000,
            traffic: TrafficTotals {
                fetch_requests: 10,
                cache_hits: 30,
                cache_misses: 10,
                coalesced_requests: 2,
                retries: 1,
                network_bytes: 4096,
                numa_bytes: 512,
            },
            breakdown: BreakdownFractions {
                compute: 0.5,
                network: 0.3,
                scheduler: 0.1,
                cache: 0.1,
            },
            per_part: vec![PartReport {
                part: 0,
                count: 42,
                compute_ns: 5,
                network_ns: 3,
                scheduler_ns: 1,
                cache_ns: 1,
                peak_embeddings: 7,
                roots_stolen: 4,
                roots_donated: 0,
            }],
            histograms: vec![NamedHistogram {
                name: "fetch_latency_ns".to_string(),
                histogram: HistogramSnapshot::from_buckets(vec![0, 2, 1], 7, 3),
            }],
            spans: SpanStats {
                recorded: 12,
                dropped: 0,
                rings: vec![RingOccupancy { shard: 0, len: 12, capacity: 1024, dropped: 0 }],
            },
            critical_path: CriticalPathSection {
                fractions: CriticalPathFractions {
                    compute: 0.5,
                    fetch_wait: 0.3,
                    responder_queue: 0.15,
                    retry_backoff: 0.05,
                },
                per_part: vec![PartCriticalPath {
                    part: 0,
                    compute_ns: 50,
                    fetch_wait_ns: 30,
                    responder_queue_ns: 15,
                    retry_backoff_ns: 5,
                }],
            },
            failures: FailureSection {
                parts_failed: 1,
                rerouted_requests: 4,
                rerouted_bytes: 2048,
                reexecuted_roots: 9,
            },
            rebalance: RebalanceSection {
                enabled: true,
                transfers: 2,
                bytes: 8192,
                slices_restored: 2,
                slices_lost: 0,
                routing_epoch: 3,
                configured_replication: 2,
                min_effective_replication: 2,
                per_holder_rerouted: vec![
                    HolderReroute { part: 1, requests: 3, bytes: 1536 },
                    HolderReroute { part: 2, requests: 1, bytes: 512 },
                ],
            },
            control: ControlSection { sent: 120, retried: 6, dropped: 4 },
            queries: vec![QueryReport {
                query_id: 1,
                pattern: "triangle".to_string(),
                memoized: false,
                count: 42,
                elapsed_ns: 900_000_000,
                traffic: TrafficTotals {
                    fetch_requests: 10,
                    cache_hits: 30,
                    cache_misses: 10,
                    coalesced_requests: 2,
                    retries: 1,
                    network_bytes: 4096,
                    numa_bytes: 512,
                },
                failures: FailureSection {
                    parts_failed: 1,
                    rerouted_requests: 4,
                    rerouted_bytes: 2048,
                    reexecuted_roots: 9,
                },
                critical_path: CriticalPathSection {
                    fractions: CriticalPathFractions {
                        compute: 0.5,
                        fetch_wait: 0.3,
                        responder_queue: 0.15,
                        retry_backoff: 0.05,
                    },
                    per_part: Vec::new(),
                },
                roots_total: 300,
                roots_completed: 309,
                memo_entries: 1,
                memo_evictions: 0,
                control: ControlSection { sent: 120, retried: 6, dropped: 4 },
            }],
            incidents: vec![IncidentSummary {
                id: "incident-000001-part_failed".to_string(),
                trigger: TriggerKind::PartFailed,
                query_id: 1,
                at_ns: 450_000_000,
                path: "/tmp/incidents/incident-000001-part_failed.json".to_string(),
            }],
        }
    }

    #[test]
    fn empty_rows_yield_zero_fractions() {
        let cp = CriticalPathSection::from_parts(Vec::new());
        assert_eq!(cp, CriticalPathSection::default());
        let idle = vec![PartCriticalPath { part: 3, ..PartCriticalPath::default() }];
        assert_eq!(CriticalPathSection::from_parts(idle).fractions, Default::default());
    }

    #[test]
    fn fractions_are_each_bucket_over_every_row() {
        let row = |part, compute_ns, fetch_wait_ns, responder_queue_ns, retry_backoff_ns| {
            PartCriticalPath {
                part,
                compute_ns,
                fetch_wait_ns,
                responder_queue_ns,
                retry_backoff_ns,
            }
        };
        let cp =
            CriticalPathSection::from_parts(vec![row(0, 100, 120, 60, 20), row(1, 0, 0, 0, 0)]);
        assert_eq!(cp.per_part.len(), 2, "an idle part keeps its row");
        let f = cp.fractions;
        for v in [f.compute, f.fetch_wait, f.responder_queue, f.retry_backoff] {
            assert!((0.0..=1.0).contains(&v), "fraction {v} out of range");
        }
        let sum = f.compute + f.fetch_wait + f.responder_queue + f.retry_backoff;
        assert!((sum - 1.0).abs() < 1e-9, "fractions sum to {sum}");
        assert!((f.compute - 100.0 / 300.0).abs() < 1e-9);
        assert!((f.responder_queue - 60.0 / 300.0).abs() < 1e-9);
    }

    #[test]
    fn json_is_byte_stable() {
        // Satellite: identical data serializes to identical bytes.
        let a = sample().to_json();
        let b = sample().to_json();
        assert_eq!(a, b);
        assert!(a.ends_with('\n'));
        assert!(a.contains("\"schema_version\": 6"));
        assert!(!a.contains("\"series\""));
        assert!(a.contains("\"fetch_latency_ns\""));
        assert!(a.contains("\"critical_path\""));
        assert!(a.contains("\"rings\""));
        assert!(a.contains("\"failures\""));
        assert!(a.contains("\"rerouted_bytes\""));
        assert!(a.contains("\"queries\""));
        assert!(a.contains("\"query_id\": 1"));
        assert!(a.contains("\"memoized\": false"));
        assert!(a.contains("\"roots_total\": 300"));
        assert!(a.contains("\"memo_evictions\": 0"));
        assert!(a.contains("\"control\""));
        assert!(a.contains("\"retried\": 6"));
        assert!(a.contains("\"p999\""));
        assert!(a.contains("\"max\": 3"));
        assert!(a.contains("\"incidents\""));
        assert!(a.contains("\"trigger\": \"part_failed\""));
        assert!(a.contains("\"rebalance\""));
        assert!(a.contains("\"slices_restored\": 2"));
        assert!(a.contains("\"per_holder_rerouted\""));
        assert!(a.contains("\"min_effective_replication\": 2"));
    }

    #[test]
    fn cache_hit_rate_handles_zero() {
        assert_eq!(TrafficTotals::default().cache_hit_rate(), 0.0);
        assert_eq!(sample().traffic.cache_hit_rate(), 0.75);
    }

    #[test]
    fn network_utilization_bounds() {
        let r = sample();
        let u = r.network_utilization(56.0, 2);
        assert!(u > 0.0 && u <= 1.0);
        assert_eq!(r.network_utilization(56.0, 0), 0.0);
        let mut empty = sample();
        empty.elapsed_ns = 0;
        assert_eq!(empty.network_utilization(56.0, 2), 0.0);
    }

    #[test]
    fn histogram_lookup_by_name() {
        let r = sample();
        assert!(r.histogram("fetch_latency_ns").is_some());
        assert!(r.histogram("nope").is_none());
    }

    #[test]
    fn report_validates_against_schema() {
        crate::validate_report(&sample().to_json()).expect("sample report must validate");
    }

    #[test]
    fn busy_imbalance_edge_cases_are_finite() {
        // Satellite: zero-part and single-part reports must return the
        // documented finite values, never NaN.
        let mut r = sample();
        r.per_part.clear();
        assert_eq!(r.busy_imbalance(), 0.0);

        let single = sample();
        assert_eq!(single.per_part.len(), 1);
        assert_eq!(single.busy_imbalance(), 1.0);

        let mut idle = sample();
        idle.per_part[0] = PartReport { part: 0, ..PartReport::default() };
        assert_eq!(idle.busy_imbalance(), 0.0);
    }

    #[test]
    fn network_utilization_zero_elapsed_is_finite() {
        let mut r = sample();
        r.elapsed_ns = 0;
        let u = r.network_utilization(56.0, 4);
        assert!(u.is_finite());
        assert_eq!(u, 0.0);
        assert_eq!(r.network_utilization(0.0, 4), 0.0);
        assert_eq!(r.network_utilization(-1.0, 4), 0.0);
    }
}
