//! The central recorder: sharded span rings and histograms.

use crate::flight::FlightRecorder;
use crate::hist::{Histogram, HistogramSnapshot};
use crate::span::{Span, SpanKind, NO_PART};
use crate::ObsConfig;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of span ring shards on the central recorder. Cross-thread
/// producers (fabric, responders) hash by part; engine threads buffer
/// locally in an [`ObsHandle`] and only touch a shard on flush.
const SHARDS: usize = 16;

/// Metrics with a dedicated histogram on the recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Fetch latency, submit to reply, nanoseconds.
    FetchLatencyNs,
    /// Response payload size per fetch, bytes.
    BatchBytes,
    /// Children produced per chunk extend.
    ChunkFanout,
    /// In-flight window occupancy observed at each acquire.
    WindowOccupancy,
    /// Resume entries clamped away in extend write-back because a task
    /// range outran the captured resume list. Always 0 in a correct
    /// build: any observation flags a worker accounting bug that the
    /// write-back clamp would otherwise silently hide.
    ResumeOverclaim,
    /// Control-plane claim round-trip latency, submit to reply,
    /// nanoseconds. Only populated under the message-based control
    /// plane (`--control msg`); empty under shared memory.
    CtrlRttNs,
}

/// One row per metric: its report index and stable name. The single
/// source of truth — `Metric::ALL`, `Metric::name`, and the validator's
/// allowed-histogram-name list all derive from this table, so adding a
/// metric cannot desync the recorder from the schema check.
const METRIC_TABLE: [(Metric, &str); 6] = [
    (Metric::FetchLatencyNs, "fetch_latency_ns"),
    (Metric::BatchBytes, "batch_bytes"),
    (Metric::ChunkFanout, "chunk_fanout"),
    (Metric::WindowOccupancy, "window_occupancy"),
    (Metric::ResumeOverclaim, "resume_overclaim"),
    (Metric::CtrlRttNs, "ctrl_rtt_ns"),
];

impl Metric {
    /// All metrics, in report order (derived from the metric table).
    pub const ALL: [Metric; 6] = {
        let mut all = [METRIC_TABLE[0].0; METRIC_TABLE.len()];
        let mut i = 0;
        while i < METRIC_TABLE.len() {
            all[i] = METRIC_TABLE[i].0;
            i += 1;
        }
        all
    };

    /// Stable name used in the `RunReport` (derived from the metric
    /// table).
    pub fn name(self) -> &'static str {
        METRIC_TABLE[self.index()].1
    }

    fn index(self) -> usize {
        match self {
            Metric::FetchLatencyNs => 0,
            Metric::BatchBytes => 1,
            Metric::ChunkFanout => 2,
            Metric::WindowOccupancy => 3,
            Metric::ResumeOverclaim => 4,
            Metric::CtrlRttNs => 5,
        }
    }
}

/// Bounded span buffer: appends until full, then overwrites the oldest
/// entry, counting how many were displaced.
#[derive(Debug, Default)]
struct Ring {
    buf: Vec<Span>,
    cap: usize,
    next: usize,
    dropped: u64,
}

impl Ring {
    fn with_capacity(cap: usize) -> Ring {
        Ring { buf: Vec::new(), cap: cap.max(1), next: 0, dropped: 0 }
    }

    fn push(&mut self, span: Span) {
        if self.buf.len() < self.cap {
            self.buf.push(span);
        } else {
            self.buf[self.next] = span;
            self.next = (self.next + 1) % self.cap;
            self.dropped += 1;
        }
    }
}

/// The run-wide sink for spans and histogram observations, and
/// the one entry to the event stream: [`span`](Recorder::span),
/// [`event`](Recorder::event) and [`span_at`](Recorder::span_at).
///
/// A record of a [`coarse`](SpanKind::coarse) kind lands in the flight
/// ring whenever that ring is armed, and every record lands in the span
/// ring while tracing is on — one call, one clock (the flight ring's).
/// With both off a record is a branch (two for a coarse kind): no
/// allocation, no locks, no clock reads.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    shards: Vec<Mutex<Ring>>,
    hists: [Histogram; 6],
    recorded: AtomicU64,
    shard_cap: usize,
    flight: Arc<FlightRecorder>,
}

impl Recorder {
    /// A recorder configured by `cfg` (enabled or not per `cfg.enabled`),
    /// with a disabled flight ring.
    pub fn new(cfg: &ObsConfig) -> Arc<Recorder> {
        Recorder::with_flight(cfg, FlightRecorder::disabled())
    }

    /// A recorder whose coarse events also land in `flight`, on
    /// `flight`'s clock. The flight ring has its own enable flag: it keeps
    /// incident-grade events (steals, retries, failovers) even when span
    /// tracing is off, so post-hoc bundles always have a black box to read.
    pub fn with_flight(cfg: &ObsConfig, flight: Arc<FlightRecorder>) -> Arc<Recorder> {
        let shard_cap = (cfg.span_capacity / SHARDS).max(1);
        Arc::new(Recorder {
            enabled: cfg.enabled,
            shards: (0..SHARDS).map(|_| Mutex::new(Ring::with_capacity(shard_cap))).collect(),
            hists: std::array::from_fn(|_| Histogram::new()),
            recorded: AtomicU64::new(0),
            shard_cap,
            flight,
        })
    }

    /// A permanently-disabled recorder for callers that don't trace.
    pub fn disabled() -> Arc<Recorder> {
        Recorder::new(&ObsConfig::default())
    }

    /// The flight ring this recorder's coarse events land in. Its enable
    /// flag is independent of span tracing: [`Recorder::is_enabled`]
    /// gates spans and histograms only.
    #[inline]
    pub fn flight(&self) -> &Arc<FlightRecorder> {
        &self.flight
    }

    /// Whether recording is on (the hot-path branch).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds on the recorder's clock, or 0 when tracing is disabled
    /// (no clock read on the disabled path).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        if !self.is_enabled() {
            return 0;
        }
        self.flight.now_ns()
    }

    /// Records `query`'s span of `kind` on `part` from `start_ns` (from
    /// [`Recorder::now_ns`]) to now. `link` is a causal id tying the span
    /// to a request lifecycle (0 = unlinked); `query` 0 is unattributed.
    /// A coarse kind also lands in the flight ring, stamped at its end.
    #[inline]
    pub fn span(&self, query: u64, kind: SpanKind, part: u32, start_ns: u64, arg: u64, link: u64) {
        if let Some(end) = self.stamp(kind) {
            let dur_ns = end.saturating_sub(start_ns);
            self.keep(Span { kind, part, start_ns, dur_ns, arg, link, query }, None);
        }
    }

    /// Records an instant (zero-duration span) of `kind` stamped now;
    /// arguments as for [`Recorder::span`].
    #[inline]
    pub fn event(&self, query: u64, kind: SpanKind, part: u32, arg: u64, link: u64) {
        if let Some(now) = self.stamp(kind) {
            self.keep(Span { kind, part, start_ns: now, dur_ns: 0, arg, link, query }, None);
        }
    }

    /// Records an unattributed span with explicit endpoints into the span
    /// ring only. Exists so tests (and any replay tooling) can produce
    /// byte-identical exports from synthetic timestamps, independent of
    /// wall-clock jitter; synthetic times are not the flight ring's clock.
    pub fn span_at(
        &self,
        kind: SpanKind,
        part: u32,
        start_ns: u64,
        end_ns: u64,
        arg: u64,
        link: u64,
    ) {
        if self.is_enabled() {
            let dur_ns = end_ns.saturating_sub(start_ns);
            self.push(Span { kind, part, start_ns, dur_ns, arg, link, query: 0 });
        }
    }

    /// The clock reading that ends a record of `kind` now, or `None` when
    /// neither ring keeps it.
    #[inline]
    fn stamp(&self, kind: SpanKind) -> Option<u64> {
        let kept = self.is_enabled() || (kind.coarse() && self.flight.is_enabled());
        kept.then(|| self.flight.now_ns())
    }

    /// Hands a stamped span to the rings that keep it: a coarse one to the
    /// flight ring (at its end), and any to `buf` — or the span ring — while
    /// tracing.
    #[inline]
    fn keep(&self, span: Span, buf: Option<&mut Vec<Span>>) {
        if span.kind.coarse() && self.flight.is_enabled() {
            let part = if span.part == NO_PART { u64::MAX } else { u64::from(span.part) };
            let at_ns = span.start_ns + span.dur_ns;
            self.flight.write(at_ns, span.kind, span.query, part, span.arg);
        }
        if self.is_enabled() {
            match buf {
                Some(buf) => buf.push(span),
                None => self.push(span),
            }
        }
    }

    fn push(&self, span: Span) {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        self.shards[span.part as usize % SHARDS].lock().push(span);
    }

    fn push_batch(&self, part: u32, spans: &[Span]) {
        if spans.is_empty() {
            return;
        }
        self.recorded.fetch_add(spans.len() as u64, Ordering::Relaxed);
        let mut ring = self.shards[part as usize % SHARDS].lock();
        for &s in spans {
            ring.push(s);
        }
    }

    /// Records one observation of `v` into `metric`'s histogram.
    #[inline]
    pub fn observe(&self, metric: Metric, v: u64) {
        if !self.is_enabled() {
            return;
        }
        self.hists[metric.index()].observe(v);
    }

    /// Snapshot of `metric`'s histogram.
    pub fn hist_snapshot(&self, metric: Metric) -> HistogramSnapshot {
        self.hists[metric.index()].snapshot()
    }

    /// A per-thread handle buffering spans for `part` locally.
    pub fn handle(self: &Arc<Recorder>, part: u32) -> ObsHandle {
        self.handle_for_query(part, 0)
    }

    /// Like [`Recorder::handle`], stamping every buffered span with
    /// `query` so multi-tenant traces attribute work to the issuing
    /// query (0 = unattributed).
    pub fn handle_for_query(self: &Arc<Recorder>, part: u32, query: u64) -> ObsHandle {
        ObsHandle { rec: Arc::clone(self), part, query, buf: Vec::new() }
    }

    /// All recorded spans, deterministically sorted by
    /// `(start_ns, part, kind, dur_ns, arg)`.
    pub fn spans(&self) -> Vec<Span> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend_from_slice(&shard.lock().buf);
        }
        out.sort_unstable_by_key(|s| s.sort_key());
        out
    }

    /// Total spans offered to the recorder (including later overwritten).
    pub fn spans_recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Spans overwritten because a ring shard was full.
    pub fn spans_dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().dropped).sum()
    }

    /// Per-shard ring occupancy, one entry per shard in shard order.
    /// Surfaced in the report so a truncated trace (nonzero `dropped`)
    /// is never silently trusted.
    pub fn ring_occupancy(&self) -> Vec<crate::report::RingOccupancy> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let r = s.lock();
                crate::report::RingOccupancy {
                    shard: i as u64,
                    len: r.buf.len() as u64,
                    capacity: r.cap as u64,
                    dropped: r.dropped,
                }
            })
            .collect()
    }

    /// Clears spans and drop counters (histograms persist — the
    /// engine resets by building a fresh recorder instead).
    pub fn reset_spans(&self) {
        for shard in &self.shards {
            *shard.lock() = Ring::with_capacity(self.shard_cap);
        }
        self.recorded.store(0, Ordering::Relaxed);
    }

    /// Chrome trace-event JSON for all recorded spans.
    pub fn chrome_trace(&self) -> String {
        crate::trace::chrome_trace(&self.spans())
    }

    /// Fills a report's recorder-owned sections: the per-metric
    /// histograms and the span ring accounting. Counter, breakdown and
    /// critical-path fields are the caller's to populate.
    pub fn augment_report(&self, report: &mut crate::report::RunReport) {
        report.histograms = Metric::ALL
            .iter()
            .map(|&m| crate::report::NamedHistogram {
                name: m.name().to_string(),
                histogram: self.hist_snapshot(m),
            })
            .collect();
        report.spans = crate::report::SpanStats {
            recorded: self.spans_recorded(),
            dropped: self.spans_dropped(),
            rings: self.ring_occupancy(),
        };
    }
}

/// A per-thread span buffer: engine threads record here without touching
/// any shared lock, then flush once (or on drop) into the recorder.
#[derive(Debug)]
pub struct ObsHandle {
    rec: Arc<Recorder>,
    part: u32,
    query: u64,
    buf: Vec<Span>,
}

impl ObsHandle {
    /// Whether the owning recorder is enabled.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.rec.is_enabled()
    }

    /// Start timestamp for a span (0 when disabled; pairs with
    /// [`ObsHandle::span`]).
    #[inline]
    pub fn start(&self) -> u64 {
        self.rec.now_ns()
    }

    /// Buffers a span from `start_ns` to now.
    #[inline]
    pub fn span(&mut self, kind: SpanKind, start_ns: u64, arg: u64) {
        self.span_linked(kind, start_ns, arg, 0);
    }

    /// Like [`ObsHandle::span`] with a causal `link` id (0 = unlinked)
    /// tying the span to the request lifecycle it waited on.
    #[inline]
    pub fn span_linked(&mut self, kind: SpanKind, start_ns: u64, arg: u64, link: u64) {
        if let Some(end) = self.rec.stamp(kind) {
            let (part, query, dur_ns) = (self.part, self.query, end.saturating_sub(start_ns));
            let span = Span { kind, part, start_ns, dur_ns, arg, link, query };
            self.rec.keep(span, Some(&mut self.buf));
        }
    }

    /// Buffers an instant event stamped now; a coarse one reaches the
    /// flight ring at once, as with [`Recorder::event`].
    #[inline]
    pub fn event(&mut self, kind: SpanKind, arg: u64) {
        if let Some(now) = self.rec.stamp(kind) {
            let (part, query) = (self.part, self.query);
            let span = Span { kind, part, start_ns: now, dur_ns: 0, arg, link: 0, query };
            self.rec.keep(span, Some(&mut self.buf));
        }
    }

    /// Records one histogram observation on the owning recorder.
    #[inline]
    pub fn observe(&self, metric: Metric, v: u64) {
        self.rec.observe(metric, v);
    }

    /// Pushes the buffered spans into the recorder and clears the buffer.
    pub fn flush(&mut self) {
        self.rec.push_batch(self.part, &self.buf);
        self.buf.clear();
    }
}

impl Drop for ObsHandle {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        assert_eq!(rec.now_ns(), 0);
        rec.span(0, SpanKind::Fetch, 0, 0, 0, 0);
        rec.event(0, SpanKind::Retry, 0, 1, 0);
        rec.observe(Metric::BatchBytes, 128);
        let mut h = rec.handle(0);
        h.span(SpanKind::Extend, h.start(), 3);
        h.flush();
        assert!(rec.spans().is_empty());
        assert_eq!(rec.spans_recorded(), 0);
        assert_eq!(rec.hist_snapshot(Metric::BatchBytes).count, 0);
    }

    #[test]
    fn spans_sort_deterministically() {
        let rec = Recorder::new(&ObsConfig::enabled());
        rec.span_at(SpanKind::Fetch, 1, 50, 90, 0, 0);
        rec.span_at(SpanKind::Resolve, 0, 10, 30, 0, 0);
        rec.span_at(SpanKind::Fetch, 0, 50, 70, 2, 0);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].kind, SpanKind::Resolve);
        assert_eq!(spans[1].part, 0);
        assert_eq!(spans[2].part, 1);
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let cfg = ObsConfig { enabled: true, span_capacity: SHARDS * 2 };
        let rec = Recorder::new(&cfg);
        // All on part 0 → one shard, capacity 2.
        for i in 0..5u64 {
            rec.span_at(SpanKind::Job, 0, i, i + 1, i, 0);
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(rec.spans_recorded(), 5);
        assert_eq!(rec.spans_dropped(), 3);
        // The newest spans survive.
        assert!(spans.iter().all(|s| s.arg >= 3));
    }

    #[test]
    fn handle_buffers_until_flush() {
        let rec = Recorder::new(&ObsConfig::enabled());
        let mut h = rec.handle(2);
        h.event(SpanKind::ChunkRelease, 0);
        assert!(rec.spans().is_empty());
        h.flush();
        assert_eq!(rec.spans().len(), 1);
        assert_eq!(rec.spans()[0].part, 2);
    }

    #[test]
    fn handle_flushes_on_drop() {
        let rec = Recorder::new(&ObsConfig::enabled());
        {
            let mut h = rec.handle(1);
            h.event(SpanKind::CacheInsert, 7);
        }
        assert_eq!(rec.spans().len(), 1);
    }

    #[test]
    fn metric_names_unique() {
        let mut names: Vec<&str> = Metric::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Metric::ALL.len());
    }

    #[test]
    fn metric_table_rows_sit_at_their_own_index() {
        // `name()` indexes the table by `index()`, so the two must agree.
        for (i, (m, _)) in METRIC_TABLE.iter().enumerate() {
            assert_eq!(m.index(), i);
            assert_eq!(Metric::ALL[i], *m);
        }
    }

    #[test]
    fn linked_spans_carry_their_link() {
        let rec = Recorder::new(&ObsConfig::enabled());
        rec.span_at(SpanKind::Fetch, 0, 10, 20, 1, 7);
        rec.event(0, SpanKind::FetchIssue, 0, 1, 7);
        rec.span_at(SpanKind::Extend, 0, 0, 5, 0, 0);
        let mut h = rec.handle(0);
        h.span_linked(SpanKind::BucketRound, h.start(), 1, 7);
        h.flush();
        let spans = rec.spans();
        assert_eq!(spans.iter().filter(|s| s.link == 7).count(), 3);
        assert_eq!(spans.iter().filter(|s| s.link == 0).count(), 1);
    }

    #[test]
    fn query_scoped_records_stamp_the_query() {
        let rec = Recorder::new(&ObsConfig::enabled());
        rec.span(3, SpanKind::Fetch, 0, 10, 1, 7);
        rec.event(3, SpanKind::FetchIssue, 0, 1, 7);
        let mut h = rec.handle_for_query(0, 3);
        h.span(SpanKind::Extend, h.start(), 0);
        h.event(SpanKind::ChunkRelease, 0);
        h.flush();
        rec.span_at(SpanKind::Job, 0, 0, 5, 0, 0);
        let spans = rec.spans();
        assert_eq!(spans.iter().filter(|s| s.query == 3).count(), 4);
        assert_eq!(spans.iter().filter(|s| s.query == 0).count(), 1);
    }

    #[test]
    fn one_event_lands_in_both_rings() {
        use crate::flight::FlightRecorder;
        // Tracing off, flight ring armed: a coarse event reaches the ring
        // alone.
        let rec = Recorder::with_flight(&ObsConfig::default(), FlightRecorder::new(16));
        rec.event(7, SpanKind::Steal, 2, 3, 0);
        let mut h = rec.handle_for_query(1, 7);
        h.event(SpanKind::Donate, 5);
        h.flush();
        assert!(rec.spans().is_empty());
        let snap = rec.flight().snapshot();
        let got: Vec<_> = snap.iter().map(|e| (e.kind, e.query, e.part, e.a)).collect();
        assert_eq!(got, [(SpanKind::Steal, 7, 2, 3), (SpanKind::Donate, 7, 1, 5)]);
        // Tracing on: the same call writes both, on one clock.
        let rec = Recorder::with_flight(&ObsConfig::enabled(), FlightRecorder::new(16));
        rec.event(7, SpanKind::QueryAdmit, NO_PART, 0, 0);
        let t0 = rec.now_ns();
        rec.span(7, SpanKind::Recovery, 1, t0, 4, 0);
        let spans = rec.spans();
        let flight = rec.flight().snapshot();
        assert_eq!(spans.len(), 2);
        let admit = flight.iter().find(|e| e.kind == SpanKind::QueryAdmit).unwrap();
        assert_eq!(admit.part, u64::MAX, "no part reads as u64::MAX in a bundle");
        assert_eq!(admit.at_ns, spans[0].start_ns);
        let recovery = flight.iter().find(|e| e.kind == SpanKind::Recovery).unwrap();
        assert_eq!(recovery.at_ns, spans[1].start_ns + spans[1].dur_ns, "stamped at its end");
        // Without an armed ring, nothing grows.
        let plain = Recorder::new(&ObsConfig::enabled());
        plain.event(1, SpanKind::Steal, 2, 3, 0);
        assert!(plain.flight().snapshot().is_empty());
        assert_eq!(plain.spans().len(), 1);
    }

    #[test]
    fn fine_kinds_never_reach_the_flight_ring() {
        use crate::flight::FlightRecorder;
        let rec = Recorder::with_flight(&ObsConfig::enabled(), FlightRecorder::new(16));
        rec.event(1, SpanKind::FetchIssue, 0, 1, 9);
        rec.event(1, SpanKind::PostSend, 0, 64, 3);
        rec.span(1, SpanKind::Fetch, 0, rec.now_ns(), 1, 9);
        let mut h = rec.handle(0);
        h.event(SpanKind::ChunkRelease, 0);
        h.event(SpanKind::CacheLookup, 1);
        h.span(SpanKind::Extend, h.start(), 3);
        h.flush();
        assert_eq!(rec.spans().len(), 6);
        assert!(rec.flight().snapshot().is_empty());
        assert_eq!(rec.flight().recorded(), 0);
    }

    #[test]
    fn ring_occupancy_covers_every_shard() {
        let cfg = ObsConfig { enabled: true, span_capacity: SHARDS * 2 };
        let rec = Recorder::new(&cfg);
        for i in 0..5u64 {
            rec.span_at(SpanKind::Job, 0, i, i + 1, i, 0);
        }
        let rings = rec.ring_occupancy();
        assert_eq!(rings.len(), SHARDS);
        assert_eq!(rings[0].len, 2);
        assert_eq!(rings[0].capacity, 2);
        assert_eq!(rings[0].dropped, 3);
        assert!(rings[1..].iter().all(|r| r.len == 0 && r.dropped == 0));
        assert_eq!(rings.iter().map(|r| r.dropped).sum::<u64>(), rec.spans_dropped());
    }
}
