//! Incident detection and automatic bundle capture.
//!
//! When something goes wrong — a part fail-stops, a deadline fires, a
//! query blows the slow threshold, the control plane poisons itself, or
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
//! Six triggers exist, mirroring `gpm_obs`'s `INCIDENT_TRIGGERS`
//! taxonomy: `part_failed`, `part_lost`, `deadline_exceeded`,
//! `slow_query`, `control_poison`, and `stall`. The first five wire into
//! existing engine/service/control choke points; the last comes from the
//! [`StallWatchdog`] — a per-run thread that fires when the run is still
//! in flight but its progress tracker has seen no root claim or
//! retirement for a configurable window, dumping scheduler state instead
//! of letting a wedged run hang silently.
//!
//! Capture is **off by default**: with no [`IncidentConfig::dir`] the
//! manager records nothing and every trigger site costs one `Option`
//! branch. Bundles are schema-checked by [`validate_bundle`] — the same
//! check `gpm incident show` and the chaos CI job run.

use crate::control::{ControlPlane, ControlPlaneSummary};
use gpm_obs::json::{as_map, get, req_map, req_seq, req_str, req_u64};
use gpm_obs::{FlightRecorder, IncidentSummary, QueryProgress, Recorder, SpanKind, NO_PART};
use parking_lot::Mutex;
use serde::Value;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Version stamped into every bundle; bump on breaking layout changes.
pub const BUNDLE_SCHEMA_VERSION: u64 = 1;

/// Incident capture knobs, threaded through `EngineConfig::incident`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncidentConfig {
    /// Directory bundles are written to. `None` (the default) disables
    /// capture entirely — triggers cost one branch and write nothing.
    pub dir: Option<PathBuf>,
    /// Stall-watchdog window: a run whose progress tracker sees no root
    /// claim or retirement for this long triggers a `stall` bundle.
    /// `None` disables the watchdog.
    pub stall: Option<Duration>,
    /// Most bundle files retained in `dir`; the oldest (by bundle
    /// sequence) are deleted past this.
    pub max_bundles: usize,
}

impl Default for IncidentConfig {
    fn default() -> Self {
        IncidentConfig { dir: None, stall: None, max_bundles: 64 }
    }
}

/// What fired. Each variant maps 1:1 onto a stable bundle trigger name
/// and a coarse [`SpanKind`] recorded into the stream alongside the
/// capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerKind {
    /// A part fail-stopped and a recovery pass re-executed its roots.
    PartFailed,
    /// A part fail-stopped with no replica to recover from.
    PartLost,
    /// A query's cooperative deadline expired.
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

    /// Stable machine-readable name (matches the report validator's
    /// `INCIDENT_TRIGGERS` list).
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

    fn event(self) -> SpanKind {
        match self {
            TriggerKind::PartFailed | TriggerKind::PartLost => SpanKind::PartCrash,
            TriggerKind::DeadlineExceeded => SpanKind::DeadlineMiss,
            TriggerKind::SlowQuery => SpanKind::SlowQuery,
            TriggerKind::ControlPoison => SpanKind::ControlPoison,
            TriggerKind::Stall | TriggerKind::RebalanceStuck => SpanKind::Stall,
        }
    }
}

/// One trigger record, written verbatim into the bundle.
#[derive(Debug, Clone)]
pub(crate) struct Trigger {
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
}

/// Optional context sections a trigger site attaches to its bundle.
/// Every field may be degraded to nothing — a bundle with just the
/// flight slice and the trigger is still worth having.
#[derive(Debug, Default)]
pub(crate) struct CaptureSections {
    /// Per-query progress snapshots (live queries at capture time).
    pub progress: Vec<Value>,
    /// Cluster counter snapshot, as a name → value map.
    pub counters: Option<Value>,
    /// Scheduler/ledger state summary.
    pub ledger: Option<Value>,
}

/// The per-engine incident sink: records triggers into the engine's
/// event stream, snapshots its flight ring, and owns the bundle directory
/// and the list of captures for the report's `incidents[]` section and
/// the `/incidents` status route.
#[derive(Debug)]
pub struct IncidentManager {
    dir: Option<PathBuf>,
    stall: Option<Duration>,
    max_bundles: usize,
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
            max_bundles: cfg.max_bundles.max(1),
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

    /// The bundle directory, if configured.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
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

    /// Captures one bundle: records the trigger as an event (which the
    /// flight ring keeps), snapshots the ring, writes the schema-validated
    /// JSON file, enforces retention, and remembers the summary. Returns `None` when capture
    /// is disabled or the write failed (a broken incident sink must
    /// never fail the run it is describing).
    pub(crate) fn capture(
        &self,
        trigger: Trigger,
        sections: CaptureSections,
    ) -> Option<IncidentSummary> {
        let at_ns = self.flight().now_ns();
        let part = trigger.part.map_or(NO_PART, |p| p as u32);
        self.recorder.event(trigger.query_id, trigger.kind.event(), part, trigger.value, 0);
        let dir = self.dir.as_ref()?;
        let n = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let id = format!("incident-{n:06}-{}", trigger.kind.name());
        let path = dir.join(format!("{id}.json"));
        let doc = self.bundle_json(&id, &trigger, at_ns, &sections);
        std::fs::create_dir_all(dir).ok()?;
        std::fs::write(&path, serde_json::to_string(&doc).expect("bundle renders")).ok()?;
        self.enforce_retention(dir);
        let summary = IncidentSummary {
            id,
            trigger: trigger.kind.name().to_string(),
            query_id: trigger.query_id,
            at_ns,
            path: path.display().to_string(),
        };
        self.captured.lock().push(summary.clone());
        Some(summary)
    }

    fn bundle_json(
        &self,
        id: &str,
        trigger: &Trigger,
        at_ns: u64,
        sections: &CaptureSections,
    ) -> Value {
        let flight = self.flight();
        let events: Vec<Value> = flight
            .snapshot()
            .iter()
            .map(|e| {
                Value::Map(vec![
                    ("seq".into(), Value::UInt(e.seq)),
                    ("at_ns".into(), Value::UInt(e.at_ns)),
                    ("kind".into(), Value::Str(e.kind.name().to_string())),
                    ("query".into(), Value::UInt(e.query)),
                    ("part".into(), Value::UInt(e.part)),
                    ("a".into(), Value::UInt(e.a)),
                ])
            })
            .collect();
        Value::Map(vec![
            ("bundle_schema".into(), Value::UInt(BUNDLE_SCHEMA_VERSION)),
            ("id".into(), Value::Str(id.to_string())),
            (
                "trigger".into(),
                Value::Map(vec![
                    ("kind".into(), Value::Str(trigger.kind.name().to_string())),
                    ("query_id".into(), Value::UInt(trigger.query_id)),
                    ("part".into(), trigger.part.map(Value::UInt).unwrap_or(Value::Null)),
                    ("value".into(), Value::UInt(trigger.value)),
                    ("detail".into(), Value::Str(trigger.detail.clone())),
                    ("at_ns".into(), Value::UInt(at_ns)),
                ]),
            ),
            (
                "config".into(),
                Value::Map(vec![
                    ("fingerprint".into(), Value::Str(self.fingerprint.clone())),
                    (
                        "stall_ms".into(),
                        self.stall
                            .map(|w| Value::UInt(w.as_millis() as u64))
                            .unwrap_or(Value::Null),
                    ),
                ]),
            ),
            (
                "flight".into(),
                Value::Map(vec![
                    ("capacity".into(), Value::UInt(flight.capacity() as u64)),
                    ("recorded".into(), Value::UInt(flight.recorded())),
                    ("events".into(), Value::Seq(events)),
                ]),
            ),
            ("progress".into(), Value::Seq(sections.progress.clone())),
            ("counters".into(), sections.counters.clone().unwrap_or(Value::Null)),
            ("ledger".into(), sections.ledger.clone().unwrap_or(Value::Null)),
        ])
    }

    /// Deletes the oldest bundles past `max_bundles`. Bundle filenames
    /// embed a zero-padded sequence, so lexicographic order is capture
    /// order.
    fn enforce_retention(&self, dir: &Path) {
        let Ok(mut bundles) = list_bundles(dir) else { return };
        while bundles.len() > self.max_bundles {
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

/// JSON snapshot of one query's live progress: an entry of a bundle's
/// `progress` section and of `/status`'s `active_queries`.
pub(crate) fn progress_json(p: &QueryProgress) -> Value {
    Value::Map(vec![
        ("query_id".into(), Value::UInt(p.query_id())),
        ("roots_total".into(), Value::UInt(p.total())),
        ("claimed".into(), Value::UInt(p.claimed())),
        ("completed".into(), Value::UInt(p.completed())),
        ("stolen".into(), Value::UInt(p.stolen())),
        ("recovered".into(), Value::UInt(p.recovered())),
        ("done".into(), Value::Bool(p.is_done())),
        ("fraction".into(), Value::Float(p.fraction())),
        ("eta_ns".into(), p.eta_ns().map(Value::UInt).unwrap_or(Value::Null)),
        ("elapsed_ns".into(), Value::UInt(p.elapsed_ns())),
        (
            "per_part".into(),
            Value::Seq(
                p.per_part()
                    .iter()
                    .map(|pp| {
                        Value::Map(vec![
                            ("part".into(), Value::UInt(pp.part)),
                            ("claimed".into(), Value::UInt(pp.claimed)),
                            ("completed".into(), Value::UInt(pp.completed)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// JSON map of the exported cluster counters, name for value, for the
/// bundle's `counters` section.
pub(crate) fn counters_json(totals: &gpm_cluster::Counts) -> Value {
    Value::Map(
        gpm_cluster::Counter::exported()
            .map(|c| (c.name().to_string(), Value::UInt(totals[c])))
            .collect(),
    )
}

/// JSON form of a [`ControlPlaneSummary`] for the bundle's `ledger`
/// section.
pub(crate) fn ledger_json(s: &ControlPlaneSummary) -> Value {
    Value::Map(vec![
        ("carrier".into(), Value::Str(s.carrier.to_string())),
        ("available".into(), Value::Bool(s.poisoned.is_none())),
        ("quiescent".into(), Value::Bool(s.ledger.quiescent)),
        ("starving".into(), Value::UInt(s.ledger.starving)),
        ("spill_len".into(), Value::UInt(s.ledger.spill_len)),
        (
            "per_part_remaining".into(),
            Value::Seq(s.ledger.per_part_remaining.iter().map(|&r| Value::UInt(r)).collect()),
        ),
        (
            "poisoned".into(),
            s.poisoned.as_ref().map(|e| Value::Str(e.clone())).unwrap_or(Value::Null),
        ),
    ])
}

/// Validates one incident bundle: schema version, trigger taxonomy,
/// flight-slice shape, and the optional context sections. `gpm incident
/// show` refuses to render a bundle this rejects, and the chaos CI job
/// runs it over every bundle a crash run emits.
///
/// # Errors
///
/// Returns a message naming the first offending field.
pub fn validate_bundle(json: &str) -> Result<(), String> {
    let doc = gpm_obs::parse_json(json)?;
    let top = as_map(&doc, "bundle")?;
    let schema = req_u64(top, "bundle_schema", "bundle")?;
    if schema != BUNDLE_SCHEMA_VERSION {
        return Err(format!(
            "bundle: schema version {schema} unsupported (expected {BUNDLE_SCHEMA_VERSION})"
        ));
    }
    if req_str(top, "id", "bundle")?.is_empty() {
        return Err("bundle: 'id' must be non-empty".to_string());
    }
    let trigger = req_map(top, "trigger", "bundle")?;
    let kind = req_str(trigger, "kind", "trigger")?;
    if !TriggerKind::ALL.iter().any(|t| t.name() == kind) {
        return Err(format!("trigger: unknown kind '{kind}'"));
    }
    req_u64(trigger, "query_id", "trigger")?;
    req_u64(trigger, "value", "trigger")?;
    req_u64(trigger, "at_ns", "trigger")?;
    req_str(trigger, "detail", "trigger")?;
    let config = req_map(top, "config", "bundle")?;
    req_str(config, "fingerprint", "config")?;
    let flight = req_map(top, "flight", "bundle")?;
    let capacity = req_u64(flight, "capacity", "flight")?;
    req_u64(flight, "recorded", "flight")?;
    let events = req_seq(flight, "events", "flight")?;
    if events.len() as u64 > capacity {
        return Err(format!(
            "flight: {} events exceed the declared capacity {capacity}",
            events.len()
        ));
    }
    let mut last_seq = None;
    for (i, ev) in events.iter().enumerate() {
        let ctx = format!("flight.events[{i}]");
        let ev = as_map(ev, &ctx)?;
        let seq = req_u64(ev, "seq", &ctx)?;
        if last_seq.is_some_and(|p| seq <= p) {
            return Err(format!("{ctx}: seq {seq} not strictly increasing"));
        }
        last_seq = Some(seq);
        req_u64(ev, "at_ns", &ctx)?;
        req_u64(ev, "query", &ctx)?;
        req_u64(ev, "part", &ctx)?;
        req_u64(ev, "a", &ctx)?;
        let k = req_str(ev, "kind", &ctx)?;
        if !SpanKind::ALL.iter().any(|f| f.coarse() && f.name() == k) {
            return Err(format!("{ctx}: unknown event kind '{k}'"));
        }
    }
    for (i, p) in req_seq(top, "progress", "bundle")?.iter().enumerate() {
        let ctx = format!("progress[{i}]");
        let p = as_map(p, &ctx)?;
        for key in ["query_id", "roots_total", "claimed", "completed"] {
            req_u64(p, key, &ctx)?;
        }
    }
    match get(top, "ledger") {
        Some(Value::Null) | None => {}
        Some(l) => {
            let l = as_map(l, "bundle.ledger")?;
            req_str(l, "carrier", "ledger")?;
            req_u64(l, "spill_len", "ledger")?;
            req_u64(l, "starving", "ledger")?;
        }
    }
    Ok(())
}

/// One stall detector: a thread that ticks at an eighth of its window
/// and fires once when a progress counter has stayed flat
/// for the whole window while an "armed" predicate held. Two watch a run
/// today — its progress tracker's claims and retirements
/// ([`StallWatchdog::start`]) and the rebalancer's transfer bytes — each
/// with its own trigger. Like
/// the gauge sampler, it is stopped and joined on drop, so no thread
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
                progress: vec![progress_json(&progress)],
                counters: None,
                ledger: Some(ledger_json(&ledger.state_summary())),
            };
            let detail = format!(
                "no root claim or batch retirement for {stalled:?} \
                 (claimed + completed stuck at {moved})"
            );
            let (query_id, value) = (progress.query_id(), stalled.as_nanos() as u64);
            let trigger = Trigger { kind: TriggerKind::Stall, query_id, part: None, value, detail };
            mgr.capture(trigger, sections);
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

    fn manager(dir: Option<PathBuf>, max_bundles: usize) -> Arc<IncidentManager> {
        let cfg = IncidentConfig { dir, max_bundles, ..IncidentConfig::default() };
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
        Trigger { kind, query_id: 7, part: Some(2), value: 42, detail: "test trigger".to_string() }
    }

    #[test]
    fn disabled_manager_captures_nothing_but_still_marks_the_ring() {
        let m = manager(None, 8);
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
        let m = manager(Some(dir.clone()), 8);
        m.recorder.event(7, SpanKind::QueryAdmit, NO_PART, 0, 0);
        m.recorder.event(7, SpanKind::Steal, 1, 0, 0);
        let s = m
            .capture(
                trigger(TriggerKind::DeadlineExceeded),
                CaptureSections {
                    progress: vec![progress_json(&QueryProgress::new(7, 100, 2))],
                    counters: Some(Value::Map(vec![("x".into(), Value::UInt(1))])),
                    ledger: Some(ledger_json(&ControlPlaneSummary {
                        carrier: "shared",
                        ledger: gpm_cluster::LedgerSummary {
                            quiescent: false,
                            starving: 1,
                            spill_len: 3,
                            per_part_remaining: vec![10, 0],
                        },
                        poisoned: None,
                    })),
                },
            )
            .expect("enabled manager captures");
        assert_eq!(s.trigger, "deadline_exceeded");
        assert_eq!(s.query_id, 7);
        assert!(s.id.starts_with("incident-000001-"));
        let listed = list_bundles(&dir).unwrap();
        assert_eq!(listed.len(), 1);
        let json = std::fs::read_to_string(&listed[0]).unwrap();
        validate_bundle(&json).expect("bundle must validate");
        assert!(json.contains("\"deadline_exceeded\""));
        assert!(json.contains("\"per_part_remaining\""));
        // The trigger itself landed in the flight slice.
        assert!(json.contains("\"deadline_miss\""));
        assert_eq!(m.incidents().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_keeps_only_the_newest_bundles() {
        let dir = temp_dir("retention");
        let m = manager(Some(dir.clone()), 3);
        for _ in 0..5 {
            m.capture(trigger(TriggerKind::SlowQuery), CaptureSections::default()).unwrap();
        }
        let listed = list_bundles(&dir).unwrap();
        assert_eq!(listed.len(), 3);
        let names: Vec<String> =
            listed.iter().map(|p| p.file_name().unwrap().to_str().unwrap().to_string()).collect();
        assert!(names[0].starts_with("incident-000003-"), "oldest kept: {names:?}");
        assert!(names[2].starts_with("incident-000005-"), "newest kept: {names:?}");
        // The in-memory summary list still remembers all five.
        assert_eq!(m.incidents().len(), 5);
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
                "unknown kind 'meteor'",
            ),
        ] {
            let err = validate_bundle(json).expect_err(json);
            assert!(err.contains(needle), "{json}: {err}");
        }
    }

    #[test]
    fn stall_watchdog_fires_once_when_progress_stops() {
        let dir = temp_dir("stall");
        let cfg = IncidentConfig {
            dir: Some(dir.clone()),
            stall: Some(Duration::from_millis(30)),
            ..IncidentConfig::default()
        };
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
        assert_eq!(incidents[0].trigger, "stall");
        assert_eq!(incidents[0].query_id, 9);
        let json = std::fs::read_to_string(&incidents[0].path).unwrap();
        validate_bundle(&json).expect("stall bundle validates");
        assert!(json.contains("\"carrier\""), "stall bundle must dump the ledger state");
        drop(wd);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stall_watchdog_declines_without_window_or_dir() {
        let progress = Arc::new(QueryProgress::new(1, 0, 1));
        // No window.
        let m = manager(Some(temp_dir("nowindow")), 8);
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
