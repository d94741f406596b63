//! Always-on flight recorder: a bounded, lock-free ring of recent
//! coarse events.
//!
//! Full span tracing ([`crate::Recorder`]) is opt-in because it costs
//! timestamps and ring writes per fetch; the flight ring records only
//! *coarse* events — steals, donations, retries, failovers, crashes,
//! control poisons, query admissions/completions — so it can
//! stay on for the lifetime of a resident service. When something goes
//! wrong (a crash, a deadline miss, a wedge), the last few thousand
//! events are still there to snapshot into an incident bundle, the way
//! an aircraft flight recorder survives the flight it describes.
//!
//! **Overhead discipline** (same as [`crate::QueryProgress`]): when the
//! ring is disabled, [`FlightRecorder::record`] is one relaxed atomic
//! load and a branch — no timestamp, no ring write. When enabled, a
//! record is one `fetch_add` to claim a slot plus five relaxed stores
//! and one release store; the `obs` group of the `kernels` bench holds
//! this under ~60ns/event.
//!
//! **Consistency**: each slot carries its global sequence number,
//! published last with `Release`. [`FlightRecorder::snapshot`] re-reads
//! the sequence after copying a slot and drops any slot a concurrent
//! writer tore — snapshots are best-effort by design, never blocking a
//! recording thread.

use serde::Serialize;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Default number of slots in a flight ring. At a few hundred coarse
/// events per second of steady-state service traffic this holds several
/// seconds of history around any trigger.
pub const FLIGHT_CAPACITY: usize = 4096;

/// Coarse event classes the flight ring records.
///
/// Deliberately small: one event per *scheduling decision or anomaly*,
/// never one per fetch or per embedding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
#[repr(u8)]
pub enum FlightKind {
    /// A query was admitted to the engine (`a` = query).
    QueryAdmit,
    /// A query completed (`a` = query, `b` = 1 on success, 0 on error).
    QueryComplete,
    /// A part claimed roots stolen from another (`a` = query, `part` =
    /// thief, `b` = victim or donated batch size).
    Steal,
    /// A part donated roots to the spill (`a` = query, `b` = count).
    Donate,
    /// A fetch or control message was retried (`a` = query).
    Retry,
    /// A failed part's requests were re-routed to a replica holder
    /// (`a` = query, `part` = dead part).
    Failover,
    /// A part fail-stopped (`a` = query, `part` = dead part).
    PartCrash,
    /// A recovery pass re-executed lost roots (`a` = query, `b` = roots).
    Recovery,
    /// The control-plane ledger was poisoned by a fire-and-forget wire
    /// failure (`a` = query).
    ControlPoison,
    /// A query missed its deadline (`a` = query).
    DeadlineMiss,
    /// A completed query exceeded the slow-query threshold (`a` = query,
    /// `b` = elapsed ns).
    SlowQuery,
    /// The stall watchdog fired (`a` = query or 0, `b` = stalled ns).
    Stall,
    /// A slice was re-replicated onto a new host (`part` = slice owner,
    /// `a` = receiving host).
    ReplicaPush,
    /// Re-replication restored every repairable slice lost with a dead
    /// part (`part` = dead part, `a` = slices restored).
    RebalanceDone,
}

impl FlightKind {
    /// Every kind, for exhaustive schema/rendering tables.
    pub const ALL: [FlightKind; 14] = [
        FlightKind::QueryAdmit,
        FlightKind::QueryComplete,
        FlightKind::Steal,
        FlightKind::Donate,
        FlightKind::Retry,
        FlightKind::Failover,
        FlightKind::PartCrash,
        FlightKind::Recovery,
        FlightKind::ControlPoison,
        FlightKind::DeadlineMiss,
        FlightKind::SlowQuery,
        FlightKind::Stall,
        FlightKind::ReplicaPush,
        FlightKind::RebalanceDone,
    ];

    /// Stable machine-readable name, used in incident bundles.
    pub fn name(self) -> &'static str {
        match self {
            FlightKind::QueryAdmit => "query_admit",
            FlightKind::QueryComplete => "query_complete",
            FlightKind::Steal => "steal",
            FlightKind::Donate => "donate",
            FlightKind::Retry => "retry",
            FlightKind::Failover => "failover",
            FlightKind::PartCrash => "part_crash",
            FlightKind::Recovery => "recovery",
            FlightKind::ControlPoison => "control_poison",
            FlightKind::DeadlineMiss => "deadline_miss",
            FlightKind::SlowQuery => "slow_query",
            FlightKind::Stall => "stall",
            FlightKind::ReplicaPush => "replica_push",
            FlightKind::RebalanceDone => "rebalance_done",
        }
    }

    fn from_u8(v: u8) -> Option<FlightKind> {
        FlightKind::ALL.get(v as usize).copied()
    }
}

/// One event copied out of the ring by [`FlightRecorder::snapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct FlightEvent {
    /// Global sequence number (monotone across the ring's lifetime).
    pub seq: u64,
    /// Nanoseconds since the recorder was created.
    pub at_ns: u64,
    /// Event class.
    pub kind: FlightKind,
    /// Query id the event belongs to (0 when not query-scoped).
    pub query: u64,
    /// Part the event happened on (`u64::MAX` when not part-scoped).
    pub part: u64,
    /// Kind-specific payload (see [`FlightKind`] docs).
    pub a: u64,
}

/// A slot is written non-atomically field by field; `seq` is stored last
/// with `Release` (and first set to 0 with `Release` to invalidate the
/// old event), so a reader that sees the same nonzero `seq` before and
/// after copying the fields got a consistent event.
#[derive(Debug)]
struct FlightSlot {
    seq: AtomicU64,
    at_ns: AtomicU64,
    kind: AtomicU64,
    query: AtomicU64,
    part: AtomicU64,
    a: AtomicU64,
}

impl FlightSlot {
    fn empty() -> FlightSlot {
        FlightSlot {
            seq: AtomicU64::new(0),
            at_ns: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            query: AtomicU64::new(0),
            part: AtomicU64::new(0),
            a: AtomicU64::new(0),
        }
    }
}

/// The bounded lock-free event ring. Cheap enough to share one per
/// engine across every worker, comm, and service thread.
#[derive(Debug)]
pub struct FlightRecorder {
    enabled: AtomicBool,
    epoch: Instant,
    cursor: AtomicU64,
    slots: Box<[FlightSlot]>,
}

impl FlightRecorder {
    /// An enabled ring with `capacity` slots (clamped to at least 8).
    pub fn new(capacity: usize) -> Arc<FlightRecorder> {
        Arc::new(FlightRecorder {
            enabled: AtomicBool::new(true),
            epoch: Instant::now(),
            cursor: AtomicU64::new(0),
            slots: (0..capacity.max(8)).map(|_| FlightSlot::empty()).collect(),
        })
    }

    /// A disabled ring: every [`record`](Self::record) is one relaxed
    /// branch, and [`snapshot`](Self::snapshot) is empty. One slot is
    /// still allocated so the type has no special empty case.
    pub fn disabled() -> Arc<FlightRecorder> {
        let r = FlightRecorder::new(8);
        r.enabled.store(false, Ordering::Relaxed);
        r
    }

    /// Whether the ring is recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded (including those overwritten).
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Nanoseconds since this ring was created — the time domain of
    /// [`FlightEvent::at_ns`], so incident triggers can stamp themselves
    /// consistently with the events around them.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records one coarse event. The disabled path is a single relaxed
    /// load and branch; the enabled path claims a slot with `fetch_add`
    /// and publishes with one release store.
    pub fn record(&self, kind: FlightKind, query: u64, part: u64, a: u64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let at_ns = self.epoch.elapsed().as_nanos() as u64;
        let n = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(n as usize) % self.slots.len()];
        // Invalidate the old event so a concurrent snapshot never mixes
        // its fields with ours, then publish the new sequence last.
        slot.seq.store(0, Ordering::Release);
        slot.at_ns.store(at_ns, Ordering::Relaxed);
        slot.kind.store(kind as u8 as u64, Ordering::Relaxed);
        slot.query.store(query, Ordering::Relaxed);
        slot.part.store(part, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.seq.store(n + 1, Ordering::Release);
    }

    /// Copies the ring's current contents, oldest first. Torn slots
    /// (overwritten mid-copy) are dropped rather than blocking writers.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        let mut events: Vec<FlightEvent> = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 {
                continue;
            }
            let ev = FlightEvent {
                seq: s1 - 1,
                at_ns: slot.at_ns.load(Ordering::Relaxed),
                kind: match FlightKind::from_u8(slot.kind.load(Ordering::Relaxed) as u8) {
                    Some(k) => k,
                    None => continue,
                },
                query: slot.query.load(Ordering::Relaxed),
                part: slot.part.load(Ordering::Relaxed),
                a: slot.a.load(Ordering::Relaxed),
            };
            if slot.seq.load(Ordering::Acquire) != s1 {
                continue;
            }
            events.push(ev);
        }
        events.sort_by_key(|e| e.seq);
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_ring_records_nothing() {
        let r = FlightRecorder::disabled();
        r.record(FlightKind::Steal, 1, 2, 3);
        assert!(!r.is_enabled());
        assert_eq!(r.recorded(), 0);
        assert!(r.snapshot().is_empty());
    }

    #[test]
    fn events_come_back_in_order_with_payloads() {
        let r = FlightRecorder::new(64);
        r.record(FlightKind::QueryAdmit, 7, u64::MAX, 0);
        r.record(FlightKind::Steal, 7, 2, 1);
        r.record(FlightKind::QueryComplete, 7, u64::MAX, 1);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].kind, FlightKind::QueryAdmit);
        assert_eq!(snap[1].kind, FlightKind::Steal);
        assert_eq!((snap[1].query, snap[1].part, snap[1].a), (7, 2, 1));
        assert_eq!(snap[2].kind, FlightKind::QueryComplete);
        assert!(snap.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(snap.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let r = FlightRecorder::new(8);
        for i in 0..20u64 {
            r.record(FlightKind::Retry, i, 0, 0);
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), 8);
        assert_eq!(r.recorded(), 20);
        // Only the newest capacity-many survive.
        assert_eq!(snap.first().unwrap().query, 12);
        assert_eq!(snap.last().unwrap().query, 19);
    }

    #[test]
    fn concurrent_writers_produce_consistent_snapshots() {
        let r = FlightRecorder::new(128);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let r = &r;
                s.spawn(move || {
                    for i in 0..1000u64 {
                        r.record(FlightKind::Donate, t, t, i);
                    }
                });
            }
            for _ in 0..50 {
                for e in r.snapshot() {
                    // A torn slot would mix one writer's query with
                    // another's part.
                    assert_eq!(e.query, e.part, "torn slot: {e:?}");
                }
            }
        });
        assert_eq!(r.recorded(), 4000);
    }

    #[test]
    fn kind_names_are_stable_and_unique() {
        let names: Vec<&str> = FlightKind::ALL.iter().map(|k| k.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        for (i, k) in FlightKind::ALL.iter().enumerate() {
            assert_eq!(FlightKind::from_u8(i as u8), Some(*k), "repr drifted");
        }
    }
}
