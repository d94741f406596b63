//! Observability for the Khuzdul reproduction: spans, histograms,
//! progress, and exporters.
//!
//! The paper's evaluation (runtime breakdown, Figure 15; utilization
//! timeline, Figure 19; cache ablations, Table 6) needs to know *when*
//! each chunk, bucket round, and fetch happened, not just end-of-run
//! totals. This crate provides that visibility at near-zero cost when
//! disabled:
//!
//! * **Spans** ([`Span`], [`SpanKind`]) — timestamped intervals and
//!   instants, the one event vocabulary, recorded into per-thread buffers
//!   ([`ObsHandle`]) or, for cross-thread producers like the fabric, into
//!   a small set of sharded rings on the central [`Recorder`]. Rings
//!   overwrite their oldest entry when full, so memory stays bounded and
//!   the hot path never blocks on a slow consumer.
//! * **Histograms** ([`Histogram`]) — lock-free log2-bucketed counters
//!   for latency/size distributions, with p50/p95/p99 percentiles and
//!   shard merging ([`HistogramSnapshot::merge`]).
//! * **Flight ring** ([`FlightRecorder`]) — the stream's coarse events
//!   ([`SpanKind::coarse`]: steals, retries, failovers, admits) in a
//!   bounded ring that stays armed when span tracing is off, to be
//!   snapshotted into incident bundles. A choke point records once
//!   ([`Recorder::event`]) and both rings see it, on one clock.
//! * **Progress** ([`QueryProgress`]) — every run's root claims and
//!   retirements, a few relaxed atomics; the status plane's fractions and
//!   the stall watchdog read the same counters.
//! * **Exporters** — a Chrome trace-event JSON file
//!   ([`Recorder::chrome_trace`], loadable in `chrome://tracing` or
//!   Perfetto) and a versioned machine-readable [`RunReport`]
//!   (schema [`REPORT_SCHEMA_VERSION`]) that subsumes the engine's
//!   `TrafficSummary` and breakdown and adds percentiles per metric. Its
//!   critical-path section ([`CriticalPathSection::from_parts`]) turns the
//!   parts' own timers into compute/fetch-wait/queue/backoff fractions,
//!   and [`diff_reports`] gates CI on those fractions regressing.
//! * **Causal links** — spans of one request lifecycle share a nonzero
//!   [`Span::link`]; the trace exporter renders them as flow arrows
//!   (issue → serve → wait).
//!
//! **Overhead model**: every record method first loads a relaxed
//! [`AtomicBool`](std::sync::atomic::AtomicBool) and returns if tracing
//! is disabled — no allocation, no locks, no timestamps on that path.
//! The `obs` group of the `kernels` bench measures this branch.

#![warn(missing_docs)]

/// `Serialize` and `Deserialize` for a unit enum as its `name()`, read
/// back through its `ALL` table; `$what` names it in the error.
macro_rules! serde_by_name {
    ($t:ty, $what:literal) => {
        impl serde::Serialize for $t {
            fn to_value(&self) -> serde::Value {
                serde::Value::Str(self.name().to_string())
            }
        }
        impl serde::Deserialize for $t {
            fn from_value(v: &serde::Value, path: &str) -> Result<Self, String> {
                let name = String::from_value(v, path)?;
                let kind = <$t>::ALL.into_iter().find(|k| k.name() == name);
                kind.ok_or_else(|| format!("{path}: unknown {} {name:?}", $what))
            }
        }
    };
}

mod diff;
mod export;
mod flight;
mod hist;
mod progress;
mod recorder;
mod report;
mod span;
mod trace;
mod validate;

pub use diff::{diff_reports, DiffThresholds, ReportDiff};
pub use export::{render_prometheus, sample_value, validate_exposition, PromKind, PromMetric};
pub use flight::{FlightEvent, FlightKind, FlightRecorder, FLIGHT_CAPACITY};
pub use hist::{bucket_of, bucket_upper, Histogram, HistogramSnapshot, BUCKETS};
pub use progress::{PartProgress, ProgressSnapshot, QueryProgress};
pub use recorder::{Metric, ObsHandle, Recorder};
pub use report::{
    BreakdownFractions, ControlSection, CounterSnapshot, CriticalPathFractions,
    CriticalPathSection, FailureSection, HolderReroute, IncidentSummary, NamedHistogram,
    PartCriticalPath, PartReport, QueryReport, RebalanceSection, RingOccupancy, RunReport,
    SpanStats, TrafficTotals, TriggerKind, REPORT_SCHEMA_VERSION,
};
pub use span::{Span, SpanKind, NO_PART};
pub use trace::chrome_trace;
pub use validate::{parse_json, validate_report, validate_trace};

/// Observability configuration, threaded through `EngineConfig::obs`.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsConfig {
    /// Master switch. When `false`, every record call is a branch on a
    /// relaxed atomic flag and nothing is allocated.
    pub enabled: bool,
    /// Total span budget across all ring shards; the oldest spans are
    /// overwritten (and counted as dropped) past this.
    pub span_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig { enabled: false, span_capacity: 1 << 18 }
    }
}

impl ObsConfig {
    /// An enabled configuration with the default capacity.
    pub fn enabled() -> Self {
        ObsConfig { enabled: true, ..ObsConfig::default() }
    }
}
