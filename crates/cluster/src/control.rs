//! How control operations reach the root ledger ([`crate::ledger`]).
//!
//! Most of this module is the message layer: a run-scoped responder
//! serving the cross-part work-coordination protocol (root claims,
//! steals, donations, batch retirements, starvation signals, quiescence
//! votes, and recovery-log queries) as typed messages. [`Carrier`], at
//! the bottom, is the seam over it and its shared-memory alternative.
//!
//! Where the data plane ([`crate::transport`]/[`crate::fabric`]) moves
//! edge lists, this layer moves *scheduling state* — under the same
//! message discipline, in the same code: per-attempt sequence numbers
//! rolling their fates under one deterministic [`FaultPlan`], the one
//! backoff of [`RetryPolicy`], and the one wait for an attempt's reply,
//! all from [`crate::transport`]. One thing is new: control operations
//! **mutate** the ledger, so the protocol must be exactly-once where data
//! fetches only needed at-least-once. Every request carries a `req_id` stable
//! across retries, and the responder keeps a one-deep reply cache per
//! sender: a retry of an operation whose reply was lost in the network is
//! answered from the cache instead of being applied twice. One-deep is
//! sound because each client issues control operations strictly
//! sequentially — [`ControlClient::call`] holds the client's one reply
//! channel for the length of a call and takes only the reply carrying
//! the call's own `req_id` off it.
//!
//! Under this carrier the [`Ledger`] lives *only inside the responder
//! thread* — no shared memory between client parts, which is exactly the
//! property that lets it stretch over a real multi-process transport
//! later.

use crate::fabric::FetchError;
use crate::ledger::{Ledger, LedgerSummary};
use crate::metrics::{ClusterMetrics, Counter, Counters, Scope};
use crate::transport::{
    await_reply, fate, CtrlOp, CtrlPayload, CtrlReply, CtrlRequest, FaultPlan, RetryPolicy,
};
use crate::PartId;
use crossbeam::channel::{unbounded, Receiver, Sender};
use gpm_graph::VertexId;
use gpm_obs::{Metric, Recorder, SpanKind};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of one control-ledger responder.
#[derive(Debug, Clone)]
pub struct ControlLedgerConfig {
    /// Whether idle parts may claim the spill or steal victim ranges,
    /// and with that whether the ledger sizes grants itself.
    pub stealing: bool,
    /// The smallest grant under stealing, from any source.
    pub batch: usize,
    /// `Some(sockets_per_machine)` enables NUMA-aware victim ordering:
    /// thieves prefer same-machine victims before crossing the network.
    pub numa: Option<usize>,
    /// Timeout/retry policy of every control client; an engine passes
    /// its fabric's.
    pub retry: RetryPolicy,
    /// Optional deterministic fault plan applied to control messages; an
    /// engine passes its fabric's. Its drop fraction rolls the same
    /// per-`(part, seq)` draw as the data plane; its scheduled crashes
    /// are ignored here — they count data-plane fetches only.
    pub fault: Option<FaultPlan>,
    /// Query id stamped on control spans and per-query counters.
    pub query: u64,
}

impl Default for ControlLedgerConfig {
    fn default() -> Self {
        ControlLedgerConfig {
            stealing: false,
            batch: 256,
            numa: None,
            retry: RetryPolicy::default(),
            fault: None,
            query: 0,
        }
    }
}

enum ServiceMsg {
    Op { req: CtrlRequest, reply_to: Sender<CtrlReply> },
    Shutdown,
}

/// The run-scoped control responder: one thread owning the entire
/// coordination state, serving [`CtrlRequest`]s from every part's
/// [`ControlClient`]. Dropping the service shuts the thread down and
/// joins it.
#[derive(Debug)]
pub struct ControlLedgerService {
    tx: Sender<ServiceMsg>,
    handle: Option<JoinHandle<()>>,
    seq: Arc<AtomicU64>,
    cfg: ControlLedgerConfig,
    metrics: ClusterMetrics,
    /// The row of `cfg.query`, resolved once for every client.
    query_row: Arc<Counters>,
    obs: Arc<Recorder>,
}

impl ControlLedgerService {
    /// Starts the responder thread over a [`Ledger`] of `roots` (one
    /// root list per part) with `spill` pre-seeded. Clients count into
    /// their part's row in `metrics` and a fresh query row of the
    /// service's own, which nothing reads back; a caller that reads its
    /// query's control traffic uses
    /// [`ControlLedgerService::start_for_query`].
    ///
    /// # Panics
    ///
    /// Panics if the fault plan fails [`FaultPlan::validate`].
    pub fn start(
        roots: Vec<Vec<VertexId>>,
        spill: Vec<VertexId>,
        cfg: ControlLedgerConfig,
        metrics: &ClusterMetrics,
        obs: Arc<Recorder>,
    ) -> ControlLedgerService {
        Self::start_for_query(roots, spill, cfg, metrics, Arc::default(), obs)
    }

    /// [`ControlLedgerService::start`] for a caller that already holds
    /// its query's row.
    ///
    /// # Panics
    ///
    /// Panics if the fault plan fails [`FaultPlan::validate`].
    pub fn start_for_query(
        roots: Vec<Vec<VertexId>>,
        spill: Vec<VertexId>,
        cfg: ControlLedgerConfig,
        metrics: &ClusterMetrics,
        query_row: Arc<Counters>,
        obs: Arc<Recorder>,
    ) -> ControlLedgerService {
        if let Some(plan) = &cfg.fault {
            plan.validate();
        }
        // One-deep reply cache per sender part: the reply to the last
        // operation applied for that part, replayed on a duplicate
        // `req_id` so retries are exactly-once. Claimed roots are a
        // shared buffer, so keeping the copy costs no second vector.
        let mut last_reply: Vec<Option<CtrlReply>> = vec![None; roots.len()];
        let mut ledger = Ledger::new(roots, spill, cfg.stealing, cfg.batch, cfg.numa);
        let (tx, rx) = unbounded::<ServiceMsg>();
        let handle = std::thread::Builder::new()
            .name(format!("khuzdul-ctrl-{}", cfg.query))
            .spawn(move || {
                while let Ok(ServiceMsg::Op { req, reply_to }) = rx.recv() {
                    let cached = &mut last_reply[req.from];
                    // A retry of an already-applied operation replays
                    // the cached reply and applies nothing.
                    if cached.as_ref().map(|c| c.req_id) != Some(req.req_id) {
                        let payload = ledger.apply(req.from, &req.op);
                        *cached = Some(CtrlReply { req_id: req.req_id, payload });
                    }
                    let _ = reply_to.send(cached.clone().expect("a reply was just cached"));
                }
            })
            .expect("spawn control responder thread");
        ControlLedgerService {
            tx,
            handle: Some(handle),
            seq: Arc::new(AtomicU64::new(0)),
            cfg,
            metrics: metrics.clone(),
            query_row,
            obs,
        }
    }

    /// A client through which `part` issues control operations.
    pub fn client(&self, part: PartId) -> ControlClient {
        let (reply_tx, inbox) = unbounded::<CtrlReply>();
        ControlClient {
            tx: self.tx.clone(),
            reply_tx,
            inbox: Mutex::new(inbox),
            part,
            query: self.cfg.query,
            seq: Arc::clone(&self.seq),
            retry: self.cfg.retry,
            fault: self.cfg.fault.clone(),
            scope: self.metrics.scope(part, &self.query_row),
            obs: Arc::clone(&self.obs),
        }
    }
}

impl Drop for ControlLedgerService {
    fn drop(&mut self) {
        let _ = self.tx.send(ServiceMsg::Shutdown);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// One part's handle to the control responder: blocking call semantics
/// over the non-blocking channel, with the data fabric's timeout/retry
/// discipline from the same code (fresh `seq` per attempt, the
/// [`RetryPolicy`] backoff, [`FetchError::Timeout`] on exhaustion).
#[derive(Debug)]
pub struct ControlClient {
    tx: Sender<ServiceMsg>,
    /// The sending half of this client's one reply channel, handed to the
    /// responder with every request.
    reply_tx: Sender<CtrlReply>,
    /// The receiving half, held for the length of a call: one call at a
    /// time per client is what makes the responder's one-deep replay
    /// cache sound.
    inbox: Mutex<Receiver<CtrlReply>>,
    part: PartId,
    query: u64,
    seq: Arc<AtomicU64>,
    retry: RetryPolicy,
    fault: Option<FaultPlan>,
    scope: Scope,
    obs: Arc<Recorder>,
}

impl ControlClient {
    /// The part this client issues operations for.
    pub fn part(&self) -> PartId {
        self.part
    }

    /// Issues `op` and blocks for its reply, retrying with backoff when a
    /// reply is lost.
    ///
    /// # Errors
    ///
    /// [`FetchError::Timeout`] after `retry.max_attempts` lost attempts,
    /// [`FetchError::Shutdown`] if the responder is gone.
    pub fn call(&self, op: CtrlOp) -> Result<CtrlPayload, FetchError> {
        let inbox = self.inbox.lock();
        let req_id = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let t0 = self.obs.now_ns();
        let code = op.code();
        let is_claim = matches!(op, CtrlOp::Claim { .. } | CtrlOp::RetireClaim { .. });
        let op = Arc::new(op);
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
            self.scope.add(Counter::CtrlSent, 1);
            // A dropped operation is still applied — the reply is lost in
            // the network — so its retry is answered from the
            // responder's dedup cache.
            let plan = self.fault.as_ref();
            let (reply_to, dropped) =
                fate(plan, &self.obs, self.part, seq, self.query, req_id, &self.reply_tx);
            if dropped {
                self.scope.add(Counter::CtrlDropped, 1);
            }
            let op = Arc::clone(&op);
            let req = CtrlRequest { seq, req_id, query: self.query, from: self.part, op };
            let msg = ServiceMsg::Op { req, reply_to };
            self.tx.send(msg).map_err(|_| FetchError::Shutdown)?;
            let deadline = Instant::now() + self.retry.timeout;
            if let Some(reply) = await_reply(&inbox, deadline, |r: &CtrlReply| r.req_id == req_id) {
                let part = self.part as u32;
                self.obs.span(self.query, SpanKind::CtrlMsg, part, t0, code, req_id);
                if is_claim {
                    self.obs.observe(Metric::CtrlRttNs, self.obs.now_ns().saturating_sub(t0));
                }
                return Ok(reply.payload);
            }
            let (obs, kind) = (&self.obs, SpanKind::CtrlRetry);
            if self.retry.back_off(attempts, obs, kind, self.query, self.part, req_id).is_none() {
                return Err(FetchError::Timeout { target: self.part, attempts });
            }
            self.scope.add(Counter::CtrlRetried, 1);
        }
    }
}

/// How a [`CtrlOp`] reaches the run's [`Ledger`] and its [`CtrlPayload`]
/// comes back. That is the carrier's whole job; what the operations
/// *mean* lives in the ledger, and the typed calls, reply decoding and
/// failure policy live once in the caller above this seam.
#[derive(Debug)]
pub enum Carrier {
    /// Lock and apply: the ledger sits behind a mutex in shared memory,
    /// and idle parts park on the condvar until a retirement or a
    /// donation may have changed the verdict.
    Shared {
        /// The run's ledger.
        ledger: Mutex<Ledger>,
        /// Signalled after every retirement and donation.
        idle: Condvar,
    },
    /// Send and wait: per-part clients in front of the responder thread
    /// that owns the ledger, with retry/backoff, exactly-once dedup and
    /// dropped replies on the way.
    Msg {
        /// One client per part, indexed by part.
        clients: Vec<ControlClient>,
        /// Owns the responder thread; joined when the carrier drops.
        service: ControlLedgerService,
    },
}

impl Carrier {
    /// Shared-memory delivery to `ledger`.
    pub fn shared(ledger: Ledger) -> Carrier {
        Carrier::Shared { ledger: Mutex::new(ledger), idle: Condvar::new() }
    }

    /// Message delivery from `parts` clients to `service`'s responder.
    pub fn msg(service: ControlLedgerService, parts: usize) -> Carrier {
        Carrier::Msg { clients: (0..parts).map(|p| service.client(p)).collect(), service }
    }

    /// Carrier name as reported in incident bundles.
    pub fn name(&self) -> &'static str {
        match self {
            Carrier::Shared { .. } => "shared",
            Carrier::Msg { .. } => "msg",
        }
    }

    /// Delivers `op` from part `from` and returns the ledger's reply.
    ///
    /// # Errors
    ///
    /// Shared memory cannot lose an operation; the message carrier fails
    /// as [`ControlClient::call`] does.
    pub fn call(&self, from: PartId, op: CtrlOp) -> Result<CtrlPayload, FetchError> {
        match self {
            Carrier::Shared { ledger, idle } => {
                let payload = ledger.lock().apply(from, &op);
                if matches!(
                    op,
                    CtrlOp::BatchDone | CtrlOp::RetireClaim { .. } | CtrlOp::Donate { .. }
                ) {
                    idle.notify_all();
                }
                Ok(payload)
            }
            Carrier::Msg { clients, .. } => clients[from].call(op),
        }
    }

    /// Parks the caller for at most a millisecond, or until another part
    /// retires a batch or donates work where the carrier can tell. Timed,
    /// so callers re-check stop flags and termination regardless.
    pub fn wait_for_work(&self) {
        let slice = Duration::from_millis(1);
        match self {
            Carrier::Shared { ledger, idle } => {
                let _ = idle.wait_for(&mut ledger.lock(), slice);
            }
            // No condvar spans the wire; the park also keeps the poll
            // loop from hammering the responder.
            Carrier::Msg { .. } => std::thread::sleep(slice),
        }
    }

    /// The ledger's state, where the carrier can read it without a round
    /// trip: incident capture runs exactly when the wire is suspect
    /// (poison, stall), so the message carrier reports `None` rather than
    /// risking a retry storm mid-bundle.
    pub fn summary(&self) -> Option<LedgerSummary> {
        match self {
            Carrier::Shared { ledger, .. } => Some(ledger.lock().summary()),
            Carrier::Msg { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ClaimSource;

    fn service(
        roots: Vec<Vec<VertexId>>,
        stealing: bool,
        batch: usize,
        fault: Option<FaultPlan>,
    ) -> ControlLedgerService {
        let n = roots.len();
        let cfg = ControlLedgerConfig {
            stealing,
            batch,
            retry: RetryPolicy {
                max_attempts: 10,
                timeout: Duration::from_millis(50),
                backoff: Duration::from_micros(200),
            },
            fault,
            ..ControlLedgerConfig::default()
        };
        ControlLedgerService::start(
            roots,
            Vec::new(),
            cfg,
            &ClusterMetrics::new(n, 1),
            Recorder::disabled(),
        )
    }

    fn claimed(p: CtrlPayload) -> (ClaimSource, Vec<VertexId>) {
        match p {
            CtrlPayload::Claimed { source, roots, .. } => (source, roots.to_vec()),
            other => panic!("expected a claim, got {other:?}"),
        }
    }

    #[test]
    fn dropped_replies_are_replayed_not_reapplied() {
        // Every message from part 0 is dropped on its first attempt
        // (seq parity makes drops deterministic per attempt is not
        // guaranteed, so drop *everything* and rely on dedup: with
        // drop_fraction 1.0 every attempt loses its reply and the call
        // must exhaust retries — instead use 0.5 and many attempts).
        let plan = FaultPlan { drop_fraction: 0.5, ..FaultPlan::default() };
        let svc = service(vec![vec![1, 2, 3, 4]], false, 2, Some(plan));
        let c0 = svc.client(0);
        // Each claim is applied exactly once despite lost replies: four
        // owned roots at a cap of 2 yield exactly two claims.
        let (_, first) = claimed(c0.call(CtrlOp::Claim { own_batch: 2 }).unwrap());
        let (_, second) = claimed(c0.call(CtrlOp::Claim { own_batch: 2 }).unwrap());
        assert_eq!((first, second), (vec![1, 2], vec![3, 4]));
        assert_eq!(
            c0.call(CtrlOp::RetireClaim { own_batch: 2 }).unwrap(),
            CtrlPayload::NoWork { finished: false, starving: 0 }
        );
        assert_eq!(
            c0.call(CtrlOp::RetireClaim { own_batch: 2 }).unwrap(),
            CtrlPayload::NoWork { finished: true, starving: 0 },
            "two batches, two retirements: a replayed one must not count twice"
        );
    }

    /// A late reply to a call that already returned (through a retry)
    /// must not answer the next call.
    #[test]
    fn a_late_reply_to_an_earlier_call_is_skipped() {
        let svc = service(vec![vec![1, 2, 3, 4]], false, 2, None);
        let c0 = svc.client(0);
        let first = c0.call(CtrlOp::Claim { own_batch: 2 }).unwrap();
        // Call 1 took req_id 1. Its reply arrives a second time, late,
        // ahead of anything call 2 will be sent.
        c0.reply_tx.send(CtrlReply { req_id: 1, payload: first.clone() }).unwrap();
        assert_eq!(claimed(first).1, vec![1, 2]);
        let (_, second) = claimed(c0.call(CtrlOp::Claim { own_batch: 2 }).unwrap());
        assert_eq!(second, vec![3, 4], "call 2 must skip call 1's late reply");
        assert!(c0.inbox.lock().is_empty());
    }

    #[test]
    fn exhausted_retries_fail_typed() {
        let plan = FaultPlan { drop_fraction: 1.0, ..FaultPlan::default() };
        let cfg = ControlLedgerConfig {
            retry: RetryPolicy {
                max_attempts: 3,
                timeout: Duration::from_millis(5),
                backoff: Duration::from_micros(100),
            },
            fault: Some(plan),
            ..ControlLedgerConfig::default()
        };
        let svc = ControlLedgerService::start(
            vec![vec![1]],
            Vec::new(),
            cfg,
            &ClusterMetrics::new(1, 1),
            Recorder::disabled(),
        );
        let c0 = svc.client(0);
        assert_eq!(
            c0.call(CtrlOp::Claim { own_batch: 1 }),
            Err(FetchError::Timeout { target: 0, attempts: 3 })
        );
    }

    /// A drop plan really drops, and each drop is retried: pinned by a
    /// seed under which the first attempt of the first call is lost, so
    /// no assertion depends on how many of the later draws come up.
    #[test]
    fn control_counters_account_sends_drops_and_retries() {
        let plan = FaultPlan { drop_fraction: 0.5, seed: 0x5eed, ..FaultPlan::default() };
        // The first call takes `req_id` 1 and its first attempt `seq` 2.
        assert!(plan.drops_reply(0, 2), "pick a seed that drops the first attempt");
        let metrics = ClusterMetrics::new(1, 1);
        let cfg = ControlLedgerConfig {
            retry: RetryPolicy {
                max_attempts: 10,
                timeout: Duration::from_millis(30),
                backoff: Duration::from_micros(200),
            },
            fault: Some(plan),
            ..ControlLedgerConfig::default()
        };
        let query_row = Arc::new(Counters::default());
        let svc = ControlLedgerService::start_for_query(
            vec![vec![1, 2]],
            Vec::new(),
            cfg,
            &metrics,
            Arc::clone(&query_row),
            Recorder::disabled(),
        );
        let c0 = svc.client(0);
        for _ in 0..8 {
            let _ = c0.call(CtrlOp::Poll).unwrap();
        }
        let row = metrics.part(0).snapshot();
        let (sent, retried, dropped) =
            (row[Counter::CtrlSent], row[Counter::CtrlRetried], row[Counter::CtrlDropped]);
        assert!(dropped >= 1, "the first attempt was dropped");
        assert!(retried >= dropped, "every dropped attempt is retried");
        assert_eq!(sent, 8 + retried, "each retry is one extra send");
        // The query's row saw the same events.
        assert_eq!(query_row.snapshot(), row);
    }
}
