//! The cross-part work-coordination protocol as the runtime sees it.
//!
//! One state machine ([`gpm_cluster::Ledger`]) holds the root cursors,
//! the spill, the claim/donate logs and the quiescence count; one
//! [`Carrier`] gets each [`CtrlOp`] to it and brings the [`CtrlPayload`]
//! back — by locking shared memory, or by a control message through the
//! cluster's channel layer with retry/backoff and deterministic fault
//! injection. [`ControlPlane`] is everything above that seam, written
//! once: the typed operations a part coordinator calls, the decoding of
//! replies, and what happens when an operation is lost. The carriers are
//! interchangeable per run and produce bit-identical counts;
//! `EngineConfig::control` picks between them.

use crate::incident::{CaptureSections, IncidentManager, Trigger};
use gpm_cluster::{
    Carrier, ClaimSource, ClusterMetrics, ControlLedgerConfig, ControlLedgerService, Counters,
    CtrlOp, CtrlPayload, FaultPlan, FetchError, Ledger, RetryPolicy,
};
use gpm_graph::VertexId;
use gpm_obs::{Recorder, TriggerKind};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Which carrier runs the cross-part work-coordination protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ControlMode {
    /// The ledger behind a lock in shared memory (the default).
    #[default]
    Shared,
    /// Typed control messages over the cluster's channel layer, with
    /// retry/backoff and fault injection — the carrier that can stretch
    /// over a real multi-process transport.
    Msg,
}

/// Control-plane selection and, for the message carrier, its wire knobs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ControlConfig {
    /// Which carrier coordinates cross-part work.
    pub mode: ControlMode,
    /// Timeout/retry policy of control messages (message carrier only).
    pub retry: RetryPolicy,
    /// Optional deterministic fault plan applied to control messages —
    /// *not* to data fetches, which have their own plan in
    /// `EngineConfig::fault` (message carrier only).
    pub fault: Option<FaultPlan>,
}

/// What `ControlPlane::state_summary` reports: an incident bundle's
/// `ledger` section. The ledger's fields (see
/// [`gpm_cluster::LedgerSummary`]) are `None` when the carrier could not
/// read them without a round trip.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControlPlaneSummary {
    /// Carrier name (`"shared"` or `"msg"`).
    pub carrier: String,
    /// Whether the plane is unpoisoned.
    pub available: bool,
    /// Whether no claimed batch awaits retirement.
    pub quiescent: Option<bool>,
    /// Parts idle and polling.
    pub starving: Option<u64>,
    /// Donated roots unclaimed in the spill.
    pub spill_len: Option<u64>,
    /// Roots left on each part's cursor.
    pub per_part_remaining: Option<Vec<u64>>,
    /// The poison of a carrier that lost a fire-and-forget operation.
    pub poisoned: Option<String>,
}

/// One run's control plane: root claims, steals, donations, batch
/// retirements, starvation signals, quiescence votes and crash recovery.
///
/// The steady state is one message per batch: [`claim`] retires the
/// caller's finished batch and claims the next in one operation, and its
/// reply carries the quiescence verdict and the starvation count, which
/// [`finished`] and [`starving`] then read without asking again.
///
/// [`claim`] and [`lost_roots`] are fallible: a message carrier can
/// exhaust its retries, and the part coordinator must surface that as a
/// run failure instead of spinning forever or silently quiescing (either
/// could strand claimed-but-unprocessed roots). The fire-and-forget
/// operations (`batch_done`, `donate`, `set_starving`, `refresh`) cannot
/// surface wire errors through their signatures; losing one would
/// corrupt the protocol (a never-retired batch wedges quiescence), so a
/// failure **poisons** the control plane and the next fallible call
/// reports it — the run fails typed instead of hanging or miscounting.
///
/// [`claim`]: ControlPlane::claim
/// [`finished`]: ControlPlane::finished
/// [`starving`]: ControlPlane::starving
/// [`lost_roots`]: ControlPlane::lost_roots
pub(crate) struct ControlPlane {
    carrier: Carrier,
    stealing: bool,
    /// What the ledger last told each part, indexed by part. Written and
    /// read only by that part's coordinator.
    heard: Vec<Heard>,
    poisoned: Mutex<Option<FetchError>>,
    /// Query this run coordinates, stamped into poison incidents.
    query: u64,
    /// Incident sink; the first poison captures a `control_poison`
    /// bundle here before the run fails typed.
    incidents: Option<Arc<IncidentManager>>,
}

/// A claimed root batch and where it came from.
pub(crate) type Batch = (ClaimSource, Arc<[VertexId]>);

/// The status fields of the last claim or poll reply a part received.
#[derive(Default)]
struct Heard {
    finished: AtomicBool,
    starving: AtomicUsize,
}

impl ControlPlane {
    /// A control plane over one root list per part — each part's owned
    /// vertices for a normal pass, its placed share of the lost roots for
    /// a recovery pass — delivered by the carrier `mode` names. `cfg`
    /// carries the ledger's knobs for both carriers and the wire's knobs
    /// for the message one, whose clients count into `query_row` (the
    /// row of `cfg.query`) and their part's row in `metrics`.
    pub(crate) fn start(
        roots: Vec<Vec<VertexId>>,
        cfg: ControlLedgerConfig,
        mode: ControlMode,
        metrics: &ClusterMetrics,
        query_row: &Arc<Counters>,
        obs: Arc<Recorder>,
        incidents: Option<Arc<IncidentManager>>,
    ) -> ControlPlane {
        let (stealing, query, parts) = (cfg.stealing, cfg.query, roots.len());
        let carrier = match mode {
            ControlMode::Shared => {
                Carrier::shared(Ledger::new(roots, Vec::new(), stealing, cfg.batch, cfg.numa))
            }
            ControlMode::Msg => Carrier::msg(
                ControlLedgerService::start_for_query(
                    roots,
                    Vec::new(),
                    cfg,
                    metrics,
                    Arc::clone(query_row),
                    obs,
                ),
                parts,
            ),
        };
        let heard = (0..parts).map(|_| Heard::default()).collect();
        ControlPlane { carrier, stealing, heard, poisoned: Mutex::new(None), query, incidents }
    }

    /// Whether cross-part stealing is enabled for this run.
    pub(crate) fn stealing(&self) -> bool {
        self.stealing
    }

    /// Claims the next root batch for `me`, at most `cap` roots: own
    /// range first, then — with stealing on — the donation spill, then
    /// the unclaimed range of a victim part. How many roots it is within
    /// the cap is the ledger's decision. With `retire`, the same message
    /// first retires the batch `me` has just finished.
    /// `Ok(None)` means nothing was claimable right now. Every
    /// `Ok(Some(..))` is retired by a later `claim(.., true)` or, on the
    /// way out, by [`ControlPlane::batch_done`].
    pub(crate) fn claim(
        &self,
        me: usize,
        cap: usize,
        retire: bool,
    ) -> Result<Option<Batch>, FetchError> {
        let op = if retire {
            CtrlOp::RetireClaim { own_batch: cap }
        } else {
            CtrlOp::Claim { own_batch: cap }
        };
        match self.ask(me, op)? {
            CtrlPayload::Claimed { source, roots, starving } => {
                self.hear(me, false, starving);
                Ok(Some((source, roots)))
            }
            CtrlPayload::NoWork { finished, starving } => {
                self.hear(me, finished, starving);
                Ok(None)
            }
            other => Err(unexpected("claim", &other)),
        }
    }

    /// Retires one of `me`'s claimed batches without claiming another:
    /// the stop, deadline and error exits.
    pub(crate) fn batch_done(&self, me: usize) {
        self.tell(me, CtrlOp::BatchDone);
    }

    /// Adds never-started level-0 roots from `donor` to the shared
    /// spill, claimable by any part.
    pub(crate) fn donate(&self, donor: usize, roots: Vec<VertexId>) {
        if !roots.is_empty() {
            self.tell(donor, CtrlOp::Donate { roots });
        }
    }

    /// Marks `me` as idle-and-polling (or no longer so); loaded parts
    /// consult the count to decide whether donating is worthwhile.
    pub(crate) fn set_starving(&self, me: usize, on: bool) {
        self.tell(me, CtrlOp::Starving { on });
    }

    /// Asks the ledger for its current status on `me`'s behalf — for a
    /// part deep in a batch, whose last claim reply has gone stale.
    pub(crate) fn refresh(&self, me: usize) {
        match self.carrier.call(me, CtrlOp::Poll) {
            Ok(CtrlPayload::Status { finished, starving }) => self.hear(me, finished, starving),
            Ok(other) => self.poison(unexpected("poll", &other)),
            Err(e) => {
                self.hear(me, false, 0);
                self.poison(e);
            }
        }
    }

    /// Number of parts starving, as of `me`'s last claim or refresh.
    pub(crate) fn starving(&self, me: usize) -> usize {
        self.heard[me].starving.load(Ordering::Relaxed)
    }

    /// Whether the run had globally quiesced, as of `me`'s last claim or
    /// refresh. Only a claim that found nothing can have said so.
    pub(crate) fn finished(&self, me: usize) -> bool {
        self.heard[me].finished.load(Ordering::Relaxed)
    }

    fn hear(&self, me: usize, finished: bool, starving: usize) {
        self.heard[me].finished.store(finished, Ordering::Relaxed);
        self.heard[me].starving.store(starving, Ordering::Relaxed);
    }

    /// Parks the caller briefly until another part may have retired a
    /// batch or donated work; timed, so callers re-check stop flags
    /// regardless.
    pub(crate) fn wait_for_work(&self) {
        self.carrier.wait_for_work();
    }

    /// Reconstructs the exact multiset of roots whose results died with
    /// the `dead` parts (claim log minus donate log, plus unclaimed
    /// cursor tails, plus the orphaned spill). Called by the engine's
    /// recovery pass once no part is claiming anymore.
    pub(crate) fn lost_roots(&self, dead: &[usize]) -> Result<Vec<VertexId>, FetchError> {
        match self.ask(0, CtrlOp::CloseDead { dead: dead.to_vec() })? {
            CtrlPayload::Lost { roots } => Ok(roots),
            other => Err(unexpected("close-dead", &other)),
        }
    }

    /// A coarse point-in-time state snapshot for incident bundles. Safe
    /// to call from a watchdog thread while parts are mid-claim, and
    /// wire-free: see [`Carrier::summary`].
    pub(crate) fn state_summary(&self) -> ControlPlaneSummary {
        let poisoned = self.poisoned.lock().as_ref().map(|e| format!("{e:?}"));
        let ledger = self.carrier.summary();
        ControlPlaneSummary {
            carrier: self.carrier.name().to_string(),
            available: poisoned.is_none(),
            quiescent: ledger.as_ref().map(|l| l.quiescent),
            starving: ledger.as_ref().map(|l| l.starving),
            spill_len: ledger.as_ref().map(|l| l.spill_len),
            per_part_remaining: ledger.map(|l| l.per_part_remaining),
            poisoned,
        }
    }

    /// A fallible operation: refused once poisoned.
    fn ask(&self, from: usize, op: CtrlOp) -> Result<CtrlPayload, FetchError> {
        match self.poisoned.lock().clone() {
            Some(e) => Err(e),
            None => self.carrier.call(from, op),
        }
    }

    /// A fire-and-forget operation: a lost one poisons.
    fn tell(&self, from: usize, op: CtrlOp) {
        if let Err(e) = self.carrier.call(from, op) {
            self.poison(e);
        }
    }

    /// Records the first wire failure of a fire-and-forget operation and
    /// captures a `control_poison` incident bundle for it — the moment
    /// the protocol degrades, not when the next fallible call notices.
    fn poison(&self, e: FetchError) {
        {
            let mut guard = self.poisoned.lock();
            if guard.is_some() {
                return;
            }
            *guard = Some(e.clone());
        }
        if let Some(m) = &self.incidents {
            m.capture(
                Trigger::new(
                    TriggerKind::ControlPoison,
                    self.query,
                    None,
                    0,
                    format!("control-plane poisoned by a fire-and-forget failure: {e:?}"),
                ),
                CaptureSections {
                    ledger: Some(self.state_summary()),
                    ..CaptureSections::default()
                },
            );
        }
    }
}

fn unexpected(op: &str, payload: &CtrlPayload) -> FetchError {
    debug_assert!(false, "{op} answered with {payload:?}");
    FetchError::Shutdown
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn plane(
        roots: Vec<Vec<VertexId>>,
        mode: ControlMode,
        cfg: ControlLedgerConfig,
        incidents: Option<Arc<IncidentManager>>,
    ) -> ControlPlane {
        let metrics = ClusterMetrics::new(roots.len(), 1);
        let row = metrics.query(cfg.query);
        ControlPlane::start(roots, cfg, mode, &metrics, &row, Recorder::disabled(), incidents)
    }

    /// The ledger's behaviour is specified by the table in
    /// `gpm_cluster::ledger`; this checks the typed layer above it —
    /// every operation's reply decodes the same over both carriers.
    #[test]
    fn typed_operations_decode_replies_over_both_carriers() {
        let batch = |source, roots: &[VertexId]| Some((source, Arc::from(roots)));
        for mode in [ControlMode::Shared, ControlMode::Msg] {
            let cfg =
                ControlLedgerConfig { stealing: true, batch: 4, ..ControlLedgerConfig::default() };
            let cp = plane(vec![vec![7, 8], vec![9]], mode, cfg, None);
            assert!(cp.stealing());
            assert_eq!(cp.claim(0, 4, false).unwrap(), batch(ClaimSource::Own, &[7, 8]));
            assert_eq!(cp.claim(0, 4, false).unwrap(), batch(ClaimSource::Stolen(1), &[9]));
            assert_eq!(cp.claim(1, 4, false).unwrap(), None);
            assert!(!cp.finished(1), "outstanding batches block quiescence");
            cp.set_starving(1, true);
            assert_eq!(cp.starving(0), 0, "nobody was starving when part 0 last heard");
            cp.refresh(0);
            assert_eq!(cp.starving(0), 1);
            cp.donate(0, vec![8]);
            cp.donate(0, Vec::new());
            assert_eq!(cp.claim(1, 4, false).unwrap(), batch(ClaimSource::Spill, &[8]));
            assert_eq!(cp.starving(1), 1, "claim replies carry the count");
            cp.set_starving(1, false);
            cp.batch_done(0);
            assert_eq!(cp.claim(0, 4, true).unwrap(), None);
            assert!(!cp.finished(0) && cp.starving(0) == 0);
            assert_eq!(cp.claim(1, 4, true).unwrap(), None);
            assert!(cp.finished(1), "the last retirement and the verdict in one reply");
            let mut lost = cp.lost_roots(&[0]).unwrap();
            lost.sort_unstable();
            assert_eq!(lost, vec![7, 9], "part 0's claims minus its donation");
            let summary = cp.state_summary();
            assert!(summary.poisoned.is_none());
            match mode {
                ControlMode::Shared => {
                    assert_eq!(summary.carrier, "shared");
                    assert_eq!(summary.per_part_remaining, Some(vec![0, 0]));
                    assert_eq!(summary.quiescent, Some(true));
                }
                ControlMode::Msg => {
                    // The message carrier reads no ledger state: every
                    // ledger field is unread, not zero.
                    let unread = ControlPlaneSummary {
                        carrier: "msg".to_string(),
                        available: true,
                        ..ControlPlaneSummary::default()
                    };
                    assert_eq!(summary, unread);
                }
            }
        }
    }

    /// The per-batch message budget: a claimed batch costs one message
    /// whatever size the ledger made it, an idle slice costs one, and
    /// reading the status costs none.
    #[test]
    fn a_batch_costs_one_message_and_so_does_an_idle_slice() {
        let metrics = ClusterMetrics::new(2, 1);
        let cfg =
            ControlLedgerConfig { stealing: true, batch: 4, ..ControlLedgerConfig::default() };
        let cp = ControlPlane::start(
            vec![(0..40).collect(), Vec::new()],
            cfg,
            ControlMode::Msg,
            &metrics,
            &metrics.query(0),
            Recorder::disabled(),
            None,
        );
        let sent = |p: usize| metrics.part(p).get(gpm_cluster::Counter::CtrlSent);
        let (mut batches, mut claimed) = (0, 0);
        while let Some((_, roots)) = cp.claim(0, 64, batches > 0).unwrap() {
            batches += 1;
            claimed += roots.len();
            if claimed == 40 {
                // Every root is claimed, the last batch still running:
                // part 1 comes up empty. One slice, one message.
                assert_eq!(cp.claim(1, 64, false).unwrap(), None);
                assert!(!cp.finished(1) && cp.starving(1) == 0);
                assert_eq!(sent(1), 1);
            }
        }
        assert_eq!(claimed, 40);
        assert!(batches < 10, "guided grants beat ten at the floor: {batches}");
        assert!(cp.finished(0), "the claim that came up empty retired the last batch");
        assert_eq!(sent(0), batches + 1, "N claim/retire cycles cost N + 1 sends");
        assert_eq!(sent(1), 1);
    }

    #[test]
    fn first_poison_captures_a_control_poison_bundle() {
        use crate::incident::IncidentConfig;
        let dir = std::env::temp_dir().join(format!("khuzdul-ctrl-poison-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = IncidentConfig { dir: Some(dir.clone()), ..IncidentConfig::default() };
        let flight = gpm_obs::FlightRecorder::new(64);
        let recorder = gpm_obs::Recorder::with_flight(&gpm_obs::ObsConfig::default(), flight);
        let incidents = IncidentManager::new(&cfg, recorder, "t".to_string());
        let cfg = ControlLedgerConfig {
            stealing: true,
            batch: 4,
            retry: RetryPolicy {
                max_attempts: 2,
                timeout: Duration::from_millis(5),
                backoff: Duration::from_millis(1),
            },
            fault: Some(FaultPlan::drops(1.0)),
            query: 3,
            ..ControlLedgerConfig::default()
        };
        let ledger = plane(
            vec![vec![0, 2, 4, 6], vec![1, 3, 5, 7]],
            ControlMode::Msg,
            cfg,
            Some(Arc::clone(&incidents)),
        );
        // Fire-and-forget ops fail on the all-drops wire and poison the
        // ledger; only the FIRST failure captures a bundle.
        ledger.batch_done(0);
        ledger.set_starving(0, true);
        let captured = incidents.incidents();
        assert_eq!(captured.len(), 1, "exactly one bundle per poisoning");
        assert_eq!(captured[0].trigger, TriggerKind::ControlPoison);
        assert_eq!(captured[0].query_id, 3);
        let json = std::fs::read_to_string(&captured[0].path).unwrap();
        crate::incident::validate_bundle(&json).expect("poison bundle validates");
        assert!(json.contains("\"msg\""), "bundle names the msg carrier");
        assert!(
            json.contains("\"available\": false") || json.contains("\"available\":false"),
            "poisoned ledger reports unavailable"
        );
        assert!(ledger.claim(0, 4, false).is_err(), "poison surfaces on the next fallible call");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
