//! Event taxonomy: the one vocabulary of the span ring, the flight ring
//! and the trace, and where each kind renders.

/// The `part` of an event that belongs to no part (a query admission,
/// an incident trigger); the flight ring reports it as `u64::MAX` and the
/// trace as an `engine` process.
pub const NO_PART: u32 = u32::MAX;

/// Kind of a recorded span or instant event.
///
/// Kinds map to a fixed *lane* (`tid` in the Chrome trace) so related
/// events stack on the same track per part: chunk lifecycle on lane 0,
/// resolve on 1, bucket rounds on 2, fetches/retries on 3, cache traffic
/// on 4, responder service and fault/failure events on 5, baseline
/// scheduler scans on 6, load balancing (steal/donate/park/idle), crash
/// recovery and re-replication on 7, post-office message traffic on 8,
/// query lifecycle and incident triggers on 9.
///
/// The [`coarse`](SpanKind::coarse) kinds — one per scheduling decision or
/// anomaly, never one per fetch — are also what the flight ring keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// Seeding root embeddings for a part (arg = number seeded).
    SeedRoots,
    /// Resolve phase of a chunk (arg = embeddings pending fetch).
    Resolve,
    /// One circulant bucket round inside resolve (arg = target part).
    BucketRound,
    /// A fetch from submit to reply (arg = target part).
    Fetch,
    /// Extend phase of a chunk (arg = children produced).
    Extend,
    /// Instant: a chunk level was released (arg = level).
    ChunkRelease,
    /// Static-cache lookup (arg = 1 hit, 0 miss).
    CacheLookup,
    /// Instant: adjacency list inserted into the static cache (arg = vertex).
    CacheInsert,
    /// Responder thread serving one request (arg = response bytes).
    Serve,
    /// A fetch resubmission, spanning the retry backoff sleep
    /// (arg = attempt number).
    Retry,
    /// Instant: the fault plan injected a fault (arg = 1 drop, 2 error, 3 delay).
    Fault,
    /// Baseline scheduler scanning for a ready task (arg = tasks scanned).
    SchedulerScan,
    /// Baseline cache garbage collection (arg = entries evicted).
    CacheGc,
    /// Baseline task/job execution (arg = job id).
    Job,
    /// Instant: a root batch was stolen from another part (arg = victim).
    Steal,
    /// Instant: never-started level-0 roots were donated to the steal
    /// spill (arg = number of roots).
    Donate,
    /// A pooled compute worker parked between extend phases (arg = worker
    /// index within the part).
    Park,
    /// A part coordinator idled waiting for stealable work.
    Idle,
    /// Instant: a fetch was submitted to the fabric (arg = target part).
    FetchIssue,
    /// Instant: a post-office message was sent (arg = payload bytes).
    PostSend,
    /// Instant: a post-office message was received (arg = sender part).
    PostRecv,
    /// Instant: a part fail-stopped (part = that part) — the fault plan
    /// crashed its responder (arg = requests it had seen), or an incident
    /// trigger reported the death (arg = the trigger's value).
    PartCrash,
    /// Instant: liveness promoted a part to the failed state; later
    /// fetches to it fail fast or fail over (part = dead part).
    PartFailed,
    /// Instant: a fetch for a dead part was re-routed to a live replica
    /// holder (arg = replacement target).
    Failover,
    /// Recovery pass re-executing a dead part's lost roots on the
    /// surviving parts (arg = number of roots).
    Recovery,
    /// A control-plane message round trip, submit to reply (arg = the
    /// operation code from `CtrlOp::code`). Part is the *client* part.
    CtrlMsg,
    /// A control-plane message resubmission, spanning the retry backoff
    /// sleep (arg = attempt number).
    CtrlRetry,
    /// Instant: re-replication installed a slice on a new host
    /// (part = slice owner, arg = receiving host).
    ReplicaPush,
    /// Instant: a query was admitted to the engine (part = [`NO_PART`]).
    QueryAdmit,
    /// Instant: a query's run returned (part = [`NO_PART`], arg = 1 on
    /// success, 0 on error).
    QueryComplete,
    /// Instant: a fire-and-forget control operation failed and poisoned
    /// the query's ledger.
    ControlPoison,
    /// Instant: a query missed its deadline (arg = elapsed ns). Nothing
    /// records it any more; it stays so that bundles and traces written
    /// with it still read.
    DeadlineMiss,
    /// Instant: a completed query exceeded the slow-query threshold
    /// (arg = elapsed ns).
    SlowQuery,
    /// Instant: a stall watchdog fired (arg = stalled ns).
    Stall,
    /// Instant: re-replication settled every slice lost with a dead part
    /// (part = dead part, arg = slices restored).
    RebalanceDone,
}

impl SpanKind {
    /// Every kind, in declaration order (`ALL[k as usize] == k`).
    pub const ALL: [SpanKind; 35] = [
        SpanKind::SeedRoots,
        SpanKind::Resolve,
        SpanKind::BucketRound,
        SpanKind::Fetch,
        SpanKind::Extend,
        SpanKind::ChunkRelease,
        SpanKind::CacheLookup,
        SpanKind::CacheInsert,
        SpanKind::Serve,
        SpanKind::Retry,
        SpanKind::Fault,
        SpanKind::SchedulerScan,
        SpanKind::CacheGc,
        SpanKind::Job,
        SpanKind::Steal,
        SpanKind::Donate,
        SpanKind::Park,
        SpanKind::Idle,
        SpanKind::FetchIssue,
        SpanKind::PostSend,
        SpanKind::PostRecv,
        SpanKind::PartCrash,
        SpanKind::PartFailed,
        SpanKind::Failover,
        SpanKind::Recovery,
        SpanKind::CtrlMsg,
        SpanKind::CtrlRetry,
        SpanKind::ReplicaPush,
        SpanKind::QueryAdmit,
        SpanKind::QueryComplete,
        SpanKind::ControlPoison,
        SpanKind::DeadlineMiss,
        SpanKind::SlowQuery,
        SpanKind::Stall,
        SpanKind::RebalanceDone,
    ];

    /// Whether the flight ring keeps this kind: the scheduling decisions
    /// and anomalies an incident bundle is read for.
    #[inline]
    pub fn coarse(self) -> bool {
        matches!(
            self,
            SpanKind::Steal
                | SpanKind::Donate
                | SpanKind::Retry
                | SpanKind::PartCrash
                | SpanKind::PartFailed
                | SpanKind::Failover
                | SpanKind::Recovery
                | SpanKind::ReplicaPush
                | SpanKind::QueryAdmit
                | SpanKind::QueryComplete
                | SpanKind::ControlPoison
                | SpanKind::DeadlineMiss
                | SpanKind::SlowQuery
                | SpanKind::Stall
                | SpanKind::RebalanceDone
        )
    }

    /// Stable display name, used as the trace event name.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::SeedRoots => "seed_roots",
            SpanKind::Resolve => "resolve",
            SpanKind::BucketRound => "bucket_round",
            SpanKind::Fetch => "fetch",
            SpanKind::Extend => "extend",
            SpanKind::ChunkRelease => "chunk_release",
            SpanKind::CacheLookup => "cache_lookup",
            SpanKind::CacheInsert => "cache_insert",
            SpanKind::Serve => "serve",
            SpanKind::Retry => "retry",
            SpanKind::Fault => "fault",
            SpanKind::SchedulerScan => "scheduler_scan",
            SpanKind::CacheGc => "cache_gc",
            SpanKind::Job => "job",
            SpanKind::Steal => "steal",
            SpanKind::Donate => "donate",
            SpanKind::Park => "park",
            SpanKind::Idle => "idle",
            SpanKind::FetchIssue => "fetch_issue",
            SpanKind::PostSend => "post_send",
            SpanKind::PostRecv => "post_recv",
            SpanKind::PartCrash => "part_crash",
            SpanKind::PartFailed => "part_failed",
            SpanKind::Failover => "failover",
            SpanKind::Recovery => "recovery",
            SpanKind::CtrlMsg => "ctrl_msg",
            SpanKind::CtrlRetry => "ctrl_retry",
            SpanKind::ReplicaPush => "replica_push",
            SpanKind::QueryAdmit => "query_admit",
            SpanKind::QueryComplete => "query_complete",
            SpanKind::ControlPoison => "control_poison",
            SpanKind::DeadlineMiss => "deadline_miss",
            SpanKind::SlowQuery => "slow_query",
            SpanKind::Stall => "stall",
            SpanKind::RebalanceDone => "rebalance_done",
        }
    }

    /// Trace lane (`tid`) this kind renders on.
    pub fn lane(self) -> u32 {
        match self {
            SpanKind::SeedRoots | SpanKind::Extend | SpanKind::Job | SpanKind::ChunkRelease => 0,
            SpanKind::Resolve => 1,
            SpanKind::BucketRound => 2,
            SpanKind::Fetch | SpanKind::Retry | SpanKind::FetchIssue => 3,
            SpanKind::CacheLookup | SpanKind::CacheInsert | SpanKind::CacheGc => 4,
            SpanKind::Serve
            | SpanKind::Fault
            | SpanKind::PartCrash
            | SpanKind::PartFailed
            | SpanKind::Failover => 5,
            SpanKind::SchedulerScan => 6,
            SpanKind::Steal
            | SpanKind::Donate
            | SpanKind::Park
            | SpanKind::Idle
            | SpanKind::Recovery
            | SpanKind::CtrlMsg
            | SpanKind::CtrlRetry
            | SpanKind::ControlPoison
            | SpanKind::ReplicaPush
            | SpanKind::RebalanceDone => 7,
            SpanKind::PostSend | SpanKind::PostRecv => 8,
            SpanKind::QueryAdmit
            | SpanKind::QueryComplete
            | SpanKind::DeadlineMiss
            | SpanKind::SlowQuery
            | SpanKind::Stall => 9,
        }
    }

    /// Human-readable lane label for trace thread-name metadata.
    pub fn lane_name(lane: u32) -> &'static str {
        match lane {
            0 => "chunks",
            1 => "resolve",
            2 => "bucket-rounds",
            3 => "fetches",
            4 => "cache",
            5 => "responder",
            6 => "scheduler",
            7 => "balance",
            8 => "post",
            _ => "queries",
        }
    }
}

serde_by_name!(SpanKind, "event kind");

/// One recorded interval (or instant, when `dur_ns == 0`).
///
/// Timestamps are nanoseconds since the owning recorder's epoch, so two
/// runs that record identical synthetic timestamps serialize to identical
/// bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What was timed.
    pub kind: SpanKind,
    /// Owning part (renders as the trace `pid`).
    pub part: u32,
    /// Start, nanoseconds since recorder epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds; 0 marks an instant event.
    pub dur_ns: u64,
    /// Kind-specific argument (see each variant's doc).
    pub arg: u64,
    /// Causal link id tying this span to the request (or message) that
    /// produced it; 0 means unlinked. All spans of one fetch lifecycle —
    /// issue, responder serve, retries, and the wait that consumed the
    /// reply — share one nonzero link, which the Chrome exporter renders
    /// as flow-event arrows.
    pub link: u64,
    /// Id of the query this span belongs to; 0 means unattributed
    /// (engine-internal work, service plumbing, or a run recorded before
    /// query scoping), so a trace reads one query at a time.
    pub query: u64,
}

impl Span {
    /// Sort key giving exporters a deterministic order.
    pub fn sort_key(&self) -> (u64, u32, SpanKind, u64, u64, u64, u64) {
        (self.start_ns, self.part, self.kind, self.dur_ns, self.arg, self.link, self.query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_all_is_in_declaration_order() {
        let mut names: Vec<&str> = SpanKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SpanKind::ALL.len());
        for (i, k) in SpanKind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i, "{k:?} out of place");
        }
    }

    #[test]
    fn the_coarse_kinds_cover_every_name_a_bundle_has_carried() {
        // The flight ring's vocabulary before it became a view of this
        // one: bundles written then must still name only coarse kinds.
        let carried = [
            "query_admit",
            "query_complete",
            "steal",
            "donate",
            "retry",
            "failover",
            "part_crash",
            "recovery",
            "control_poison",
            "deadline_miss",
            "slow_query",
            "stall",
            "replica_push",
            "rebalance_done",
        ];
        let coarse: Vec<&str> =
            SpanKind::ALL.iter().filter(|k| k.coarse()).map(|k| k.name()).collect();
        for name in carried {
            assert!(coarse.contains(&name), "{name} is not coarse");
        }
        for fine in [
            SpanKind::FetchIssue,
            SpanKind::ChunkRelease,
            SpanKind::CacheLookup,
            SpanKind::PostSend,
            SpanKind::Fetch,
            SpanKind::Extend,
        ] {
            assert!(!fine.coarse(), "{fine:?} would flood the flight ring");
        }
    }

    #[test]
    fn chunk_bucket_fetch_lanes_are_distinct() {
        // Acceptance criterion: chunks, bucket rounds, and fetches render
        // on distinct tracks.
        let lanes = [SpanKind::Extend.lane(), SpanKind::BucketRound.lane(), SpanKind::Fetch.lane()];
        assert_ne!(lanes[0], lanes[1]);
        assert_ne!(lanes[1], lanes[2]);
        assert_ne!(lanes[0], lanes[2]);
    }

    #[test]
    fn fetch_lifecycle_shares_the_fetch_lane() {
        // Issue instants and retry spans stack under the fetch they
        // belong to, so flow arrows stay within two tracks per part.
        assert_eq!(SpanKind::FetchIssue.lane(), SpanKind::Fetch.lane());
        assert_eq!(SpanKind::Retry.lane(), SpanKind::Fetch.lane());
    }

    #[test]
    fn every_lane_has_a_label() {
        for k in SpanKind::ALL {
            assert!(!SpanKind::lane_name(k.lane()).is_empty());
        }
    }

    #[test]
    fn link_breaks_sort_ties_last() {
        let a = Span {
            kind: SpanKind::Fetch,
            part: 0,
            start_ns: 5,
            dur_ns: 1,
            arg: 0,
            link: 1,
            query: 0,
        };
        let b = Span { link: 2, ..a };
        assert!(a.sort_key() < b.sort_key());
    }

    #[test]
    fn query_breaks_sort_ties_after_link() {
        let a = Span {
            kind: SpanKind::Extend,
            part: 0,
            start_ns: 5,
            dur_ns: 1,
            arg: 0,
            link: 0,
            query: 1,
        };
        let b = Span { query: 2, ..a };
        assert!(a.sort_key() < b.sort_key());
    }
}
