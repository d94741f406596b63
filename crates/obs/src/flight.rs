//! The flight ring: a bounded, lock-free ring of the span stream's
//! coarse events.
//!
//! Full span tracing ([`crate::Recorder`]) is opt-in because it costs
//! timestamps and ring writes per fetch; the flight ring keeps only the
//! events whose kind is [`SpanKind::coarse`] — steals, donations, retries,
//! failovers, crashes, control poisons, query admissions/completions — so
//! it can stay on for the lifetime of a resident service. There is one
//! vocabulary: the recorder writes a coarse event here and (when tracing)
//! into its span ring in the same call, stamped by this ring's clock. When
//! something goes wrong (a crash, a poisoned control plane, a wedge), the
//! last few thousand events are still here to snapshot into an incident
//! bundle, the way an aircraft flight recorder survives the flight it
//! describes.
//!
//! **Overhead discipline**: when the ring is disabled, [`FlightRecorder::record`]
//! is one relaxed atomic load and a branch — no timestamp, no ring write.
//! When enabled, a record is one `fetch_add` to claim a slot plus five
//! relaxed stores and two release stores; the `obs` group of the `kernels`
//! bench holds this under ~60ns/event.
//!
//! **Consistency**: a writer stores 0 into the slot's sequence word, then
//! the fields, then the slot's global sequence number plus one, both with
//! `Release`. [`FlightRecorder::snapshot`] reads the word before and after
//! copying the fields and keeps the slot only if it read the same nonzero
//! value twice — a slot a concurrent writer was rewriting is dropped.
//! Snapshots are best-effort by design, never blocking a recording thread.

use crate::span::SpanKind;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Number of slots in an engine's flight ring. At a few hundred coarse
/// events per second of steady-state service traffic this holds several
/// seconds of history around any trigger.
pub const FLIGHT_CAPACITY: usize = 4096;

/// The flight ring's event kind: the span vocabulary, of which the ring
/// keeps the [`coarse`](SpanKind::coarse) kinds.
pub type FlightKind = SpanKind;

/// One event copied out of the ring by [`FlightRecorder::snapshot`]; an
/// incident bundle's `flight.events` entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlightEvent {
    /// Global sequence number (monotone across the ring's lifetime).
    pub seq: u64,
    /// Nanoseconds since the ring was created (the recorder's clock).
    pub at_ns: u64,
    /// Event class.
    pub kind: SpanKind,
    /// Query id the event belongs to (0 when not query-scoped).
    pub query: u64,
    /// Part the event happened on (`u64::MAX` when not part-scoped).
    pub part: u64,
    /// The event's `arg` (see each [`SpanKind`] variant's doc).
    pub a: u64,
}

/// One slot: `seq` is 0 while a writer fills the fields and the event's
/// sequence number plus one once it is published (see the module doc).
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
    #[inline]
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

    /// Nanoseconds since this ring was created: the one clock of the
    /// recorder carrying it, so [`FlightEvent::at_ns`] and a span's
    /// `start_ns` are on the same time line.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records one event stamped now. The disabled path is a single
    /// relaxed load and branch. Engine code records through
    /// [`crate::Recorder::event`], which also writes the span ring.
    pub fn record(&self, kind: SpanKind, query: u64, part: u64, a: u64) {
        if self.is_enabled() {
            self.write(self.now_ns(), kind, query, part, a);
        }
    }

    /// Claims a slot with `fetch_add` and publishes an event stamped
    /// `at_ns`, whatever its kind. Callers check [`is_enabled`](Self::is_enabled).
    pub(crate) fn write(&self, at_ns: u64, kind: SpanKind, query: u64, part: u64, a: u64) {
        let n = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(n as usize) % self.slots.len()];
        // Invalidate the old event so a concurrent snapshot never mixes
        // its fields with ours, then publish the new sequence last.
        slot.seq.store(0, Ordering::Release);
        slot.at_ns.store(at_ns, Ordering::Relaxed);
        slot.kind.store(kind as u64, Ordering::Relaxed);
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
                kind: match SpanKind::ALL.get(slot.kind.load(Ordering::Relaxed) as usize) {
                    Some(&k) => k,
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
        r.record(SpanKind::Steal, 1, 2, 3);
        assert!(!r.is_enabled());
        assert_eq!(r.recorded(), 0);
        assert!(r.snapshot().is_empty());
    }

    #[test]
    fn events_come_back_in_order_with_payloads() {
        let r = FlightRecorder::new(64);
        r.record(SpanKind::QueryAdmit, 7, u64::MAX, 0);
        r.record(SpanKind::Steal, 7, 2, 1);
        r.record(SpanKind::QueryComplete, 7, u64::MAX, 1);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].kind, SpanKind::QueryAdmit);
        assert_eq!(snap[1].kind, SpanKind::Steal);
        assert_eq!((snap[1].query, snap[1].part, snap[1].a), (7, 2, 1));
        assert_eq!(snap[2].kind, SpanKind::QueryComplete);
        assert!(snap.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(snap.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let r = FlightRecorder::new(8);
        for i in 0..20u64 {
            r.record(SpanKind::Retry, i, 0, 0);
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
                        r.record(SpanKind::Donate, t, t, i);
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
    fn every_kind_survives_the_slot_encoding() {
        let r = FlightRecorder::new(64);
        for k in SpanKind::ALL {
            r.record(k, 1, 2, 3);
        }
        let kinds: Vec<SpanKind> = r.snapshot().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, SpanKind::ALL);
    }
}
