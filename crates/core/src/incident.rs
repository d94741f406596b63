//! Incident detection and automatic bundle capture.
//!
//! When something goes wrong — a part fail-stops, a query blows the slow
//! threshold, the control plane poisons itself, or
//! a run wedges entirely — a post-hoc `RunReport` is too late and too
//! aggregated to debug from. This module captures an **incident bundle**
//! at the moment of the trigger: a JSON file holding the flight-ring
//! slice around the event (the coarse events of the recorder's stream,
//! [`gpm_obs::FlightRecorder`]), every in-flight
//! query's progress snapshot, a cluster counter snapshot, a scheduler /
//! ledger state summary (per-part cursors, spill depth, quiescence,
//! starvation, poison), a config fingerprint, and the trigger record
//! itself.
//!
//! Six triggers fire, one [`TriggerKind`] each — the same type names
//! the report's `incidents[]` entries: `part_failed`, `part_lost`,
//! `slow_query`, `control_poison`, `stall`, and `rebalance_stuck`. (A
//! seventh, `deadline_exceeded`, is only read: nothing fires it any
//! more, and bundles written with it still validate.) The first four
//! wire into existing engine/service/control choke points; `stall` comes from the
//! `StallWatchdog` — a per-run thread that fires when the run is still
//! in flight but its progress tracker has seen no root claim or
//! retirement for a configurable window, dumping scheduler state instead
//! of letting a wedged run hang silently — and `rebalance_stuck` from the
//! same watchdog over a re-replication transfer.
//!
//! A bundle is one typed document, [`Bundle`]: capture serializes it and
//! [`validate_bundle`] reads it back, so the writer, the validator and
//! `gpm incident` share one definition.
//!
//! Capture is **off by default**: with no [`IncidentConfig::dir`] the
//! manager records nothing and every trigger site costs one `Option`
//! branch.

use crate::control::{ControlPlane, ControlPlaneSummary};
use gpm_cluster::{Counter, Counts};
use gpm_obs::{
    CounterSnapshot, FlightEvent, FlightRecorder, IncidentSummary, ProgressSnapshot, QueryProgress,
    Recorder, TriggerKind, NO_PART,
};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Version stamped into every bundle; bump on breaking layout changes.
pub const BUNDLE_SCHEMA_VERSION: u64 = 1;

/// Most bundle files retained in a bundle directory; the oldest (by
/// bundle sequence) are deleted past this.
pub(crate) const MAX_BUNDLES: usize = 64;

/// Incident capture knobs, threaded through `EngineConfig::incident`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IncidentConfig {
    /// Directory bundles are written to. `None` (the default) disables
    /// capture entirely — triggers cost one branch and write nothing.
    pub dir: Option<PathBuf>,
    /// Stall-watchdog window: a run whose progress tracker sees no root
    /// claim or retirement for this long triggers a `stall` bundle.
    /// `None` disables the watchdog.
    pub stall: Option<Duration>,
}

/// One incident bundle: what capture writes, [`validate_bundle`] reads
/// and `gpm incident` renders.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Bundle {
    /// [`BUNDLE_SCHEMA_VERSION`].
    pub bundle_schema: u64,
    /// Stable id, also the file stem.
    pub id: String,
    /// What fired.
    pub trigger: Trigger,
    /// The engine configuration that captured it.
    pub config: BundleConfig,
    /// The flight ring at capture.
    pub flight: FlightSlice,
    /// Live queries' progress at capture.
    pub progress: Vec<ProgressSnapshot>,
    /// Cluster counter totals, where the trigger site had them.
    pub counters: Option<CounterSnapshot>,
    /// The triggering run's control-plane state, where there was one.
    pub ledger: Option<ControlPlaneSummary>,
}

/// A bundle's trigger record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trigger {
    /// Trigger class.
    pub kind: TriggerKind,
    /// Query the trigger belongs to (0 when not query-scoped).
    pub query_id: u64,
    /// Part involved, if any.
    pub part: Option<u64>,
    /// Kind-specific payload: lost roots re-executed, elapsed ns,
    /// stalled ns.
    pub value: u64,
    /// Human-readable one-liner.
    pub detail: String,
    /// Capture time, nanoseconds since the flight ring's epoch.
    pub at_ns: u64,
}

impl Trigger {
    /// A trigger record; capture stamps its time.
    pub(crate) fn new(
        kind: TriggerKind,
        query_id: u64,
        part: Option<u64>,
        value: u64,
        detail: String,
    ) -> Trigger {
        Trigger { kind, query_id, part, value, detail, at_ns: 0 }
    }
}

/// A bundle's `config` section.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BundleConfig {
    /// `config_fingerprint` of the engine configuration.
    pub fingerprint: String,
    /// The stall-watchdog window, if one was armed.
    pub stall_ms: Option<u64>,
}

/// A bundle's `flight` section: the ring's retained events.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlightSlice {
    /// Ring slots.
    pub capacity: u64,
    /// Events ever recorded, overwritten ones included.
    pub recorded: u64,
    /// The retained events, oldest first.
    pub events: Vec<FlightEvent>,
}

/// The exported rows of `totals`, name for value: the `counters` of a
/// bundle and of `/status`.
pub(crate) fn counter_snapshot(totals: &Counts) -> CounterSnapshot {
    CounterSnapshot(Counter::exported().map(|c| (c.name().to_string(), totals[c])).collect())
}

/// Optional context sections a trigger site attaches to its bundle.
/// Every field may be degraded to nothing — a bundle with just the
/// flight slice and the trigger is still worth having.
#[derive(Debug, Default)]
pub(crate) struct CaptureSections {
    /// Per-query progress snapshots (live queries at capture time).
    pub progress: Vec<ProgressSnapshot>,
    /// Cluster counter snapshot.
    pub counters: Option<CounterSnapshot>,
    /// Scheduler/ledger state summary.
    pub ledger: Option<ControlPlaneSummary>,
}

/// The per-engine incident sink: records triggers into the engine's
/// event stream, snapshots its flight ring, and owns the bundle directory
/// and the list of captures for the report's `incidents[]` section and
/// the `/incidents` status route.
#[derive(Debug)]
pub struct IncidentManager {
    dir: Option<PathBuf>,
    stall: Option<Duration>,
    recorder: Arc<Recorder>,
    fingerprint: String,
    seq: AtomicU64,
    captured: Mutex<Vec<IncidentSummary>>,
}

impl IncidentManager {
    /// A manager over `recorder`'s flight ring, capturing per `cfg`.
    /// `fingerprint` identifies the engine configuration that produced
    /// the bundles (see [`config_fingerprint`]). The capture sequence resumes past
    /// any bundles already in the directory, so repeated runs into one
    /// `--incident-dir` accumulate instead of overwriting.
    pub(crate) fn new(
        cfg: &IncidentConfig,
        recorder: Arc<Recorder>,
        fingerprint: String,
    ) -> Arc<IncidentManager> {
        let seq = cfg
            .dir
            .as_deref()
            .and_then(|d| list_bundles(d).ok())
            .and_then(|bundles| {
                bundles
                    .iter()
                    .filter_map(|p| {
                        let stem = p.file_stem()?.to_str()?;
                        stem.strip_prefix("incident-")?.get(..6)?.parse::<u64>().ok()
                    })
                    .max()
            })
            .unwrap_or(0);
        Arc::new(IncidentManager {
            dir: cfg.dir.clone(),
            stall: cfg.stall,
            recorder,
            fingerprint,
            seq: AtomicU64::new(seq),
            captured: Mutex::new(Vec::new()),
        })
    }

    /// Whether captures write bundles (a directory is configured).
    pub fn enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// The coarse-event flight ring bundles snapshot from.
    pub fn flight(&self) -> &Arc<FlightRecorder> {
        self.recorder.flight()
    }

    /// The configured stall-watchdog window, if any.
    pub(crate) fn stall_window(&self) -> Option<Duration> {
        self.stall
    }

    /// Summaries of every bundle captured by this manager, in capture
    /// order — the source of the report's `incidents[]` section.
    pub fn incidents(&self) -> Vec<IncidentSummary> {
        self.captured.lock().clone()
    }

    /// Captures one bundle: stamps the trigger and records it as an
    /// event (which the flight ring keeps), snapshots the ring, writes
    /// the bundle, enforces retention, and remembers the summary. Returns
    /// `None` when capture is disabled or the write failed (a broken
    /// incident sink must never fail the run it is describing).
    pub(crate) fn capture(
        &self,
        mut trigger: Trigger,
        sections: CaptureSections,
    ) -> Option<IncidentSummary> {
        trigger.at_ns = self.flight().now_ns();
        let part = trigger.part.map_or(NO_PART, |p| p as u32);
        self.recorder.event(trigger.query_id, trigger.kind.event(), part, trigger.value, 0);
        let dir = self.dir.as_ref()?;
        let n = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let id = format!("incident-{n:06}-{}", trigger.kind.name());
        let path = dir.join(format!("{id}.json"));
        let flight = self.flight();
        // The events before the count, so the count covers every one.
        let events = flight.snapshot();
        let flight =
            FlightSlice { capacity: flight.capacity() as u64, recorded: flight.recorded(), events };
        let summary = IncidentSummary {
            id: id.clone(),
            trigger: trigger.kind,
            query_id: trigger.query_id,
            at_ns: trigger.at_ns,
            path: path.display().to_string(),
        };
        let bundle = Bundle {
            bundle_schema: BUNDLE_SCHEMA_VERSION,
            id,
            trigger,
            config: BundleConfig {
                fingerprint: self.fingerprint.clone(),
                stall_ms: self.stall.map(|w| w.as_millis() as u64),
            },
            flight,
            progress: sections.progress,
            counters: sections.counters,
            ledger: sections.ledger,
        };
        std::fs::create_dir_all(dir).ok()?;
        std::fs::write(&path, serde_json::to_string(&bundle).expect("bundle renders")).ok()?;
        self.enforce_retention(dir);
        self.captured.lock().push(summary.clone());
        Some(summary)
    }

    /// Deletes the oldest bundles past [`MAX_BUNDLES`]. Bundle filenames
    /// embed a zero-padded sequence, so lexicographic order is capture
    /// order.
    fn enforce_retention(&self, dir: &Path) {
        let Ok(mut bundles) = list_bundles(dir) else { return };
        while bundles.len() > MAX_BUNDLES {
            let oldest = bundles.remove(0);
            let _ = std::fs::remove_file(oldest);
        }
    }
}

/// Bundle files in `dir`, oldest first (lexicographic — filenames embed
/// a zero-padded capture sequence).
pub fn list_bundles(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.extension().is_some_and(|x| x == "json")
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("incident-"))
        })
        .collect();
    out.sort();
    Ok(out)
}

/// A short FNV-1a fingerprint of the engine configuration, stamped into
/// every bundle so `incident diff` can flag config drift between runs.
pub(crate) fn config_fingerprint(desc: &str) -> String {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in desc.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    format!("{h:016x}")
}

/// The one bundle reader: `json` read into a [`Bundle`] through its own
/// field names, then the checks the types cannot express — the schema
/// version, a non-empty id, and a flight slice of coarse events in
/// strictly increasing `seq`, within its capacity and its recorded
/// count. `gpm incident` renders only what this returns, and the chaos
/// CI job runs it over every bundle a crash run emits.
///
/// # Errors
///
/// Returns a message naming the first offending field.
pub fn validate_bundle(json: &str) -> Result<Bundle, String> {
    let doc = gpm_obs::parse_json(json).map_err(|e| format!("bundle: {e}"))?;
    // The version first: another version may lay out anything.
    let schema: u64 =
        serde::field(serde::object(&doc, "bundle")?, "bundle_schema", "bundle", None)?;
    if schema != BUNDLE_SCHEMA_VERSION {
        return Err(format!(
            "bundle: schema version {schema} unsupported (expected {BUNDLE_SCHEMA_VERSION})"
        ));
    }
    let bundle = Bundle::from_value(&doc, "bundle")?;
    if bundle.id.is_empty() {
        return Err("bundle.id: empty".to_string());
    }
    let FlightSlice { capacity, recorded, events } = &bundle.flight;
    let retained = events.len() as u64;
    if retained > *capacity {
        return Err(format!("bundle.flight: {retained} events exceed the capacity {capacity}"));
    }
    if retained > *recorded {
        return Err(format!("bundle.flight.recorded: {recorded} < the {retained} events retained"));
    }
    for (i, e) in events.iter().enumerate() {
        let ctx = format!("bundle.flight.events[{i}]");
        if !e.kind.coarse() {
            return Err(format!("{ctx}.kind: {:?} is not a flight-ring kind", e.kind.name()));
        }
        if i > 0 && e.seq <= events[i - 1].seq {
            return Err(format!("{ctx}.seq: {} not strictly increasing", e.seq));
        }
    }
    Ok(bundle)
}

/// One stall detector: a thread that ticks at an eighth of its window
/// and fires once when a progress counter has stayed flat
/// for the whole window while an "armed" predicate held. Two watch a run
/// today — its progress tracker's claims and retirements
/// ([`StallWatchdog::start`]) and the rebalancer's transfer bytes — each
/// with its own trigger. It is stopped and joined on drop, so no thread
/// outlives the run (or the engine).
pub(crate) struct StallWatchdog {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl StallWatchdog {
    /// The per-run watchdog against wedged runs, if a window is
    /// configured and capture is enabled. The runtime feeds `progress` on
    /// every root claim and batch retirement; no movement of claimed +
    /// completed for the window means the scheduler is wedged (or the run
    /// is pathologically starved — either way worth a bundle), and one
    /// `stall` bundle dumps the live scheduler state and progress.
    pub(crate) fn start(
        manager: &Arc<IncidentManager>,
        progress: Arc<QueryProgress>,
        ledger: Arc<ControlPlane>,
    ) -> Option<StallWatchdog> {
        let window = manager.stall_window()?;
        if !manager.enabled() {
            return None;
        }
        let (mgr, watched) = (Arc::clone(manager), Arc::clone(&progress));
        let fire = move |stalled: Duration, moved: u64| {
            let sections = CaptureSections {
                progress: vec![progress.snapshot()],
                counters: None,
                ledger: Some(ledger.state_summary()),
            };
            let detail = format!(
                "no root claim or batch retirement for {stalled:?} \
                 (claimed + completed stuck at {moved})"
            );
            let (query_id, value) = (progress.query_id(), stalled.as_nanos() as u64);
            mgr.capture(Trigger::new(TriggerKind::Stall, query_id, None, value, detail), sections);
        };
        let counter = move || watched.claimed() + watched.completed();
        Some(StallWatchdog::watch("khuzdul-stall-watchdog", window, counter, || true, fire))
    }

    /// Starts a thread that calls `fire(stalled, counter)` once `counter`
    /// has not moved for `window` while `armed` held throughout; a
    /// disarmed tick restarts the clock. One bundle per watchdog: a stall
    /// does not get less stuck, and repeated captures would only spam
    /// near-identical bundles.
    pub(crate) fn watch(
        name: &str,
        window: Duration,
        counter: impl Fn() -> u64 + Send + 'static,
        armed: impl Fn() -> bool + Send + 'static,
        fire: impl FnOnce(Duration, u64) + Send + 'static,
    ) -> StallWatchdog {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                let tick = (window / 8).max(Duration::from_millis(1));
                let mut last = counter();
                let mut last_change = Instant::now();
                while !flag.load(Ordering::Relaxed) {
                    std::thread::sleep(tick);
                    let now = counter();
                    if now != last || !armed() {
                        last = now;
                        last_change = Instant::now();
                        continue;
                    }
                    let stalled = last_change.elapsed();
                    if stalled >= window && !flag.load(Ordering::Relaxed) {
                        fire(stalled, now);
                        break;
                    }
                }
            })
            .expect("spawn stall watchdog");
        StallWatchdog { stop, handle: Some(handle) }
    }
}

impl Drop for StallWatchdog {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_obs::SpanKind;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("khuzdul-incident-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A recorder whose flight ring is armed, span tracing off.
    fn armed_recorder() -> Arc<Recorder> {
        Recorder::with_flight(&gpm_obs::ObsConfig::default(), FlightRecorder::new(64))
    }

    fn manager(dir: Option<PathBuf>) -> Arc<IncidentManager> {
        let cfg = IncidentConfig { dir, ..IncidentConfig::default() };
        IncidentManager::new(&cfg, armed_recorder(), config_fingerprint("test"))
    }

    /// A control plane over no parts: something for a watchdog to dump.
    fn idle_ledger() -> Arc<ControlPlane> {
        Arc::new(ControlPlane::start(
            Vec::new(),
            gpm_cluster::ControlLedgerConfig::default(),
            crate::control::ControlMode::Shared,
            &gpm_cluster::ClusterMetrics::new(0, 1),
            &Arc::default(),
            gpm_obs::Recorder::disabled(),
            None,
        ))
    }

    fn trigger(kind: TriggerKind) -> Trigger {
        Trigger::new(kind, 7, Some(2), 42, "test trigger".to_string())
    }

    #[test]
    fn disabled_manager_captures_nothing_but_still_marks_the_ring() {
        let m = manager(None);
        assert!(!m.enabled());
        assert!(m.capture(trigger(TriggerKind::PartFailed), CaptureSections::default()).is_none());
        assert!(m.incidents().is_empty());
        // The trigger still left its mark in the flight ring — the next
        // enabled capture (or a live scrape) sees the history.
        assert_eq!(m.flight().snapshot().len(), 1);
    }

    #[test]
    fn captured_bundle_validates_and_lists() {
        let dir = temp_dir("roundtrip");
        let m = manager(Some(dir.clone()));
        m.recorder.event(7, SpanKind::QueryAdmit, NO_PART, 0, 0);
        m.recorder.event(7, SpanKind::Steal, 1, 0, 0);
        let progress = QueryProgress::new(7, 100, 2).snapshot();
        let counters = CounterSnapshot(vec![("x".to_string(), 1)]);
        let ledger = ControlPlaneSummary {
            carrier: "shared".to_string(),
            available: true,
            quiescent: Some(false),
            starving: Some(1),
            spill_len: Some(3),
            per_part_remaining: Some(vec![10, 0]),
            poisoned: None,
        };
        let sections = CaptureSections {
            progress: vec![progress.clone()],
            counters: Some(counters.clone()),
            ledger: Some(ledger.clone()),
        };
        let s = m.capture(trigger(TriggerKind::SlowQuery), sections).expect("captures");
        assert_eq!(s.trigger, TriggerKind::SlowQuery);
        assert_eq!(s.query_id, 7);
        assert!(s.id.starts_with("incident-000001-"));
        let listed = list_bundles(&dir).unwrap();
        assert_eq!(listed.len(), 1);
        let json = std::fs::read_to_string(&listed[0]).unwrap();
        let b = validate_bundle(&json).expect("bundle must validate");
        assert_eq!((b.id, b.trigger.kind, b.trigger.at_ns), (s.id, s.trigger, s.at_ns));
        assert_eq!(
            (b.progress, b.counters, b.ledger),
            (vec![progress], Some(counters), Some(ledger))
        );
        // The trigger itself landed in the flight slice.
        let kinds: Vec<SpanKind> = b.flight.events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, [SpanKind::QueryAdmit, SpanKind::Steal, SpanKind::SlowQuery]);
        assert_eq!(m.incidents().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Bundles this module's writer produced before it was typed — a
    /// masked crash's `part_failed` and a message-carrier `stall` —
    /// still read, field for field, and write back byte for byte.
    #[test]
    fn earlier_bundles_still_read() {
        for json in [PART_FAILED, STALL] {
            let bundle = validate_bundle(json).expect("fixture reads");
            assert_eq!(serde_json::to_string(&bundle).unwrap(), json);
        }
        let crash = validate_bundle(PART_FAILED).expect("part_failed fixture");
        assert_eq!((crash.trigger.kind, crash.trigger.part), (TriggerKind::PartFailed, Some(2)));
        assert_eq!(crash.counters.expect("counters").0.len(), Counter::exported().count());
        assert_eq!(crash.ledger.expect("ledger").per_part_remaining, Some(vec![0; 4]));
        let stall = validate_bundle(STALL).expect("stall fixture");
        assert_eq!((stall.config.stall_ms, stall.counters), (Some(300), None));
        assert_eq!(stall.progress[0].eta_ns, None);
        assert_eq!(stall.flight.events.last().map(|e| e.kind), Some(SpanKind::Stall));
    }

    const PART_FAILED: &str = include_str!("../../../ci/fixtures/part_failed.bundle.json");
    const STALL: &str = include_str!("../../../ci/fixtures/stall.bundle.json");

    /// Five fields of a real stall bundle broken the ways a lenient
    /// reader silently papers over — each refused, naming its field.
    #[test]
    fn a_bundle_with_missing_or_mistyped_fields_is_refused() {
        for (from, to, field) in [
            (r#""available":true,"#, "", "bundle.ledger.available: missing"),
            (r#""quiescent":false,"#, "", "bundle.ledger.quiescent: missing"),
            (r#""stolen":0,"#, "", "bundle.progress[0].stolen: missing"),
            (r#""recovered":0,"#, "", "bundle.progress[0].recovered: missing"),
            (r#""part":null"#, r#""part":"two""#, "bundle.trigger.part: expected unsigned"),
            (r#""stall_ms":300"#, r#""stall_ms":"300""#, "bundle.config.stall_ms: expected"),
            (r#""recorded":2"#, r#""recorded":1"#, "bundle.flight.recorded: 1 < the 2 events"),
        ] {
            assert!(STALL.contains(from), "{from}");
            let err = validate_bundle(&STALL.replacen(from, to, 1)).expect_err(from);
            assert!(err.starts_with(field), "{from}: {err}");
        }
    }

    #[test]
    fn retention_keeps_only_the_newest_bundles() {
        let dir = temp_dir("retention");
        let m = manager(Some(dir.clone()));
        for _ in 0..=MAX_BUNDLES {
            m.capture(trigger(TriggerKind::SlowQuery), CaptureSections::default()).unwrap();
        }
        let listed = list_bundles(&dir).unwrap();
        assert_eq!(listed.len(), MAX_BUNDLES);
        let names: Vec<String> =
            listed.iter().map(|p| p.file_name().unwrap().to_str().unwrap().to_string()).collect();
        assert!(names[0].starts_with("incident-000002-"), "oldest kept: {names:?}");
        let newest = format!("incident-{:06}-", MAX_BUNDLES + 1);
        assert!(names[MAX_BUNDLES - 1].starts_with(&newest), "newest kept: {names:?}");
        // The in-memory summary list still remembers every one.
        assert_eq!(m.incidents().len(), MAX_BUNDLES + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validate_bundle_rejects_malformed_documents() {
        for (json, needle) in [
            ("[]", "bundle: expected object"),
            ("{}", "bundle.bundle_schema: missing"),
            (r#"{"bundle_schema": 9}"#, "schema version 9"),
            (
                r#"{"bundle_schema": 1, "id": "x", "trigger": {"kind": "meteor", "query_id": 1, "value": 0, "at_ns": 0, "detail": ""}}"#,
                r#"bundle.trigger.kind: unknown trigger "meteor""#,
            ),
        ] {
            let err = validate_bundle(json).expect_err(json);
            assert!(err.contains(needle), "{json}: {err}");
        }
    }

    #[test]
    fn stall_watchdog_fires_once_when_progress_stops() {
        let dir = temp_dir("stall");
        let cfg = IncidentConfig { dir: Some(dir.clone()), stall: Some(Duration::from_millis(30)) };
        let m = IncidentManager::new(&cfg, armed_recorder(), config_fingerprint("t"));
        let progress = Arc::new(QueryProgress::new(9, 50, 1));
        let wd = StallWatchdog::start(&m, Arc::clone(&progress), idle_ledger()).expect("starts");
        // Keep claiming and retiring: no bundle may fire.
        for _ in 0..10 {
            progress.record_claimed(0, 1, false);
            progress.record_completed(0, 1);
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(m.incidents().is_empty(), "moving progress must not trip the watchdog");
        // Now wedge: progress freezes past the window.
        std::thread::sleep(Duration::from_millis(120));
        let incidents = m.incidents();
        assert_eq!(incidents.len(), 1, "frozen progress must fire exactly once");
        assert_eq!(incidents[0].trigger, TriggerKind::Stall);
        assert_eq!(incidents[0].query_id, 9);
        let json = std::fs::read_to_string(&incidents[0].path).unwrap();
        let bundle = validate_bundle(&json).expect("stall bundle validates");
        let ledger = bundle.ledger.expect("stall bundle must dump the ledger state");
        assert_eq!((ledger.carrier.as_str(), ledger.quiescent), ("shared", Some(true)));
        drop(wd);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stall_watchdog_declines_without_window_or_dir() {
        let progress = Arc::new(QueryProgress::new(1, 0, 1));
        // No window.
        let m = manager(Some(temp_dir("nowindow")));
        assert!(StallWatchdog::start(&m, Arc::clone(&progress), idle_ledger()).is_none());
        // Window but no dir.
        let cfg =
            IncidentConfig { stall: Some(Duration::from_millis(10)), ..IncidentConfig::default() };
        let m = IncidentManager::new(&cfg, Recorder::disabled(), String::new());
        assert!(StallWatchdog::start(&m, progress, idle_ledger()).is_none());
    }

    #[test]
    fn fingerprints_are_stable_and_distinguish_configs() {
        assert_eq!(config_fingerprint("a"), config_fingerprint("a"));
        assert_ne!(config_fingerprint("a"), config_fingerprint("b"));
        assert_eq!(config_fingerprint("a").len(), 16);
    }
}
