//! Observability for the Khuzdul reproduction: spans, histograms,
//! gauges, and exporters.
//!
//! The paper's evaluation (runtime breakdown, Figure 15; utilization
//! timeline, Figure 19; cache ablations, Table 6) needs to know *when*
//! each chunk, bucket round, and fetch happened, not just end-of-run
//! totals. This crate provides that visibility at near-zero cost when
//! disabled:
//!
//! * **Spans** ([`Span`], [`SpanKind`]) — timestamped intervals recorded
//!   into per-thread ring buffers ([`ObsHandle`]) or, for cross-thread
//!   producers like the fabric, into a small set of sharded rings on the
//!   central [`Recorder`]. Rings overwrite their oldest entry when full,
//!   so memory stays bounded and the hot path never blocks on a slow
//!   consumer.
//! * **Histograms** ([`Histogram`]) — lock-free log2-bucketed counters
//!   for latency/size distributions, with p50/p95/p99 percentiles and
//!   shard merging ([`HistogramSnapshot::merge`]).
//! * **Gauges** ([`GaugeSample`]) — per-part utilization samples taken on
//!   a configurable tick ([`ObsConfig::tick`]), forming a time series.
//! * **Flight ring** ([`FlightRecorder`]) — an always-on bounded ring of
//!   coarse events (steals, retries, failovers, admits) that survives to
//!   be snapshotted into incident bundles even when span tracing is off.
//! * **Exporters** — a Chrome trace-event JSON file
//!   ([`Recorder::chrome_trace`], loadable in `chrome://tracing` or
//!   Perfetto) and a versioned machine-readable [`RunReport`]
//!   (schema [`REPORT_SCHEMA_VERSION`]) that subsumes the engine's
//!   `TrafficSummary`/`Breakdown` and adds percentiles per metric.
//! * **Causal links** — spans of one request lifecycle share a nonzero
//!   [`Span::link`]; the trace exporter renders them as flow arrows
//!   (issue → serve → wait), [`critical_path`] decomposes wall time
//!   into compute/fetch-wait/queue/backoff fractions from them, and
//!   [`diff_reports`] gates CI on those fractions regressing.
//!
//! **Overhead model**: every record method first loads a relaxed
//! [`AtomicBool`](std::sync::atomic::AtomicBool) and returns if tracing
//! is disabled — no allocation, no locks, no timestamps on that path.
//! The `obs` group of the `kernels` bench measures this branch.

#![warn(missing_docs)]

mod critical;
mod diff;
mod export;
mod flight;
mod hist;
mod progress;
mod recorder;
mod report;
mod rollup;
mod span;
mod trace;
mod validate;

pub use critical::critical_path;
pub use diff::{diff_reports, DiffThresholds, ReportDiff};
pub use export::{render_prometheus, sample_value, validate_exposition, PromKind, PromMetric};
pub use flight::{FlightEvent, FlightKind, FlightRecorder, FLIGHT_CAPACITY};
pub use hist::{bucket_of, bucket_upper, Histogram, HistogramSnapshot, BUCKETS};
pub use progress::{PartProgress, QueryProgress};
pub use recorder::{GaugeSample, Metric, ObsHandle, Recorder};
pub use report::{
    BreakdownFractions, ControlSection, CriticalPathFractions, CriticalPathSection, FailureSection,
    HolderReroute, IncidentSummary, NamedHistogram, PartCriticalPath, PartReport, QueryReport,
    RebalanceSection, RingOccupancy, RunReport, SeriesPoint, SpanStats, TrafficTotals,
    REPORT_SCHEMA_VERSION,
};
pub use rollup::{Rollup, Window};
pub use span::{Span, SpanKind};
pub use trace::chrome_trace;
pub use validate::{parse_json, validate_report, validate_trace};

/// Readers of parsed JSON documents — reports, incident bundles, the
/// `/status` page — shared by every validator and renderer: strict
/// accessors that name the offending field (`req_*`, `opt_u64`, `as_*`)
/// and lenient ones that read a missing field as empty (`field`, `uint`,
/// `num`, `text`, `seq`).
pub mod json {
    pub use crate::validate::{
        as_map, as_seq, field, get, num, opt_u64, parse_json, req_fraction, req_map, req_seq,
        req_str, req_u64, seq, text, uint,
    };
}

use std::time::Duration;

/// Observability configuration, threaded through `EngineConfig::obs`.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsConfig {
    /// Master switch. When `false`, every record call is a branch on a
    /// relaxed atomic flag and nothing is allocated.
    pub enabled: bool,
    /// Gauge sampling tick for the utilization time series.
    pub tick: Duration,
    /// Total span budget across all ring shards; the oldest spans are
    /// overwritten (and counted as dropped) past this.
    pub span_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig { enabled: false, tick: Duration::from_millis(5), span_capacity: 1 << 18 }
    }
}

impl ObsConfig {
    /// An enabled configuration with the default tick and capacity.
    pub fn enabled() -> Self {
        ObsConfig { enabled: true, ..ObsConfig::default() }
    }
}
