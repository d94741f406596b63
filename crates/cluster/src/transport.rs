//! The wire layer beneath the request fabric and the control plane:
//! message types, the one transport, and the message discipline both
//! planes share.
//!
//! [`ChannelTransport`] is the in-process cluster: one responder thread
//! per part serving batched edge-list requests from its local
//! [`GraphPart`] (the paper's "graph data responding threads", §6). It
//! moves sequence-tagged [`WireRequest`]s to a target part's responder
//! and delivers [`WireReply`]s back on a caller-provided channel.
//! Submission is **non-blocking**: flow control (the in-flight window),
//! retries and metrics live one layer up, in [`crate::fabric`].
//!
//! What every request–reply exchange does, whichever plane it is on, is
//! written here once and used by fetches and control calls alike (a
//! slice transfer is one push and one ack, under a deadline only):
//!
//! * the fate of one message under an optional [`FaultPlan`] —
//!   delivered, or dropped (served, its reply lost) — rolled per
//!   `(target, seq)` (`fate`);
//! * the exponential backoff between attempts ([`RetryPolicy`]);
//! * the wait for the one reply an attempt is owed, before its deadline,
//!   discarding late replies to earlier attempts (`await_reply`).

use crate::fabric::FetchError;
use crate::metrics::{ClusterMetrics, Counter};
use crate::PartId;
use crossbeam::channel::{unbounded, Receiver, Sender};
use gpm_graph::partition::{GraphPart, PartitionedGraph};
use gpm_graph::{set_ops, VertexId};
use gpm_obs::{Recorder, SpanKind};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-message fixed overhead in accounted bytes (headers/envelopes).
pub(crate) const HEADER_BYTES: u64 = 16;

/// A batch of edge lists returned by a fetch.
///
/// `list(i)` is the edge list of the `i`-th requested vertex, in request
/// order — whole, or the part above its bound for a bounded request (see
/// [`WireRequest::above`]). What is stored is the reply as it crossed the
/// wire — the served lists back to back, written once by the responder —
/// and every requested list is a span of that payload.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FetchedLists {
    offsets: Vec<u32>,
    data: Vec<VertexId>,
}

impl FetchedLists {
    /// Number of lists in the batch.
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Where the `i`-th requested vertex's edge list sits in the payload,
    /// as `(start, len)`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn span(&self, i: usize) -> (u32, u32) {
        (self.offsets[i], self.offsets[i + 1] - self.offsets[i])
    }

    /// The `i`-th requested vertex's edge list.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn list(&self, i: usize) -> &[VertexId] {
        let (start, len) = self.span(i);
        &self.data[start as usize..(start + len) as usize]
    }

    /// Consumes the batch into the payload its [`span`]s index, so a
    /// caller can keep the lists without copying them.
    ///
    /// [`span`]: FetchedLists::span
    pub fn into_payload(self) -> Vec<VertexId> {
        self.data
    }

    /// Accounted size of the response on the wire, in bytes.
    pub fn response_bytes(&self) -> u64 {
        HEADER_BYTES + 4 * (self.offsets.len() as u64 + self.data.len() as u64)
    }

    /// Builds a batch from the served arrays.
    pub(crate) fn from_parts(offsets: Vec<u32>, data: Vec<VertexId>) -> Self {
        debug_assert!(!offsets.is_empty() && offsets[0] == 0);
        debug_assert_eq!(*offsets.last().unwrap() as usize, data.len());
        FetchedLists { offsets, data }
    }
}

/// Converts a running data length into a `u32` offset, reporting the
/// offending length on overflow instead of silently truncating.
pub(crate) fn checked_offset(len: usize) -> Result<u32, usize> {
    u32::try_from(len).map_err(|_| len)
}

/// One edge-list request on the wire, tagged with the issuing client's
/// sequence number so replies (and stale replies from timed-out attempts)
/// can be matched back to the right in-flight fetch.
///
/// Besides the per-attempt `seq`, every request carries a **trace
/// context**: the request id, stable across retries. The responder
/// stamps its `Serve` span with the request id, so the issue, every
/// retry, the responder's service interval, and the client wait that
/// consumes the reply all share one causal link, which the trace draws
/// as flow arrows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireRequest {
    /// Client-assigned sequence number; a retry gets a fresh one.
    pub seq: u64,
    /// Causal request id, stable across retries; 0 means the request is
    /// untraced (see `gpm_obs::Span::link`).
    pub req_id: u64,
    /// Id of the query this request works for; 0 means unattributed
    /// (see `gpm_obs::Span::query`). The responder stamps its `Serve`
    /// span with it, so a query's trace includes its service time.
    pub query: u64,
    /// The part whose edge-list slice is requested. Normally the
    /// submission target; differs when the fabric fails over a dead
    /// part's fetch to a replica holder, which then serves from its
    /// hosted copy of `owner`'s slice.
    pub owner: PartId,
    /// The vertices whose edge lists are requested — shared with the
    /// issuing fetch's completion handle, so a retry or failover
    /// resubmits the same list rather than a copy of it.
    pub vertices: Arc<[VertexId]>,
    /// A bounded request's column of exclusive lower bounds, one per
    /// vertex: the responder serves the `k`-th list above `above[k]`.
    /// `None` asks for every list whole.
    pub above: Option<Arc<[VertexId]>>,
}

impl WireRequest {
    /// Accounted wire size of the request in bytes: the header, and four
    /// bytes per requested vertex and per bound.
    pub fn wire_bytes(&self) -> u64 {
        let bounds = self.above.as_ref().map_or(0, |above| above.len());
        HEADER_BYTES + 4 * (self.vertices.len() + bounds) as u64
    }
}

/// One reply on the wire, carrying the request's sequence number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireReply {
    /// Sequence number of the request this answers.
    pub seq: u64,
    /// The served lists, or a typed failure.
    pub payload: Result<FetchedLists, FetchError>,
    /// When the responder began serving this attempt (when the reply was
    /// made, for a refusal): how the waiting side tells time
    /// queued from time served. Not counted in any wire-byte total.
    pub served_at: Instant,
}

/// One slice copy on the wire — the re-replication analogue of
/// [`WireRequest`]. After a part death the repair sends each short
/// slice's copy to a new host as one of these; the receiving responder
/// installs it into its hosted-slice set and acks once, so subsequent
/// failover fetches for the slice's owner are answered from it.
///
/// The slice travels as the `Arc` a live holder already serves from (the
/// copies are bit-identical by construction), and is accounted as what a
/// wire would carry: its three CSR columns plus one header.
#[derive(Debug, Clone)]
pub struct ReplicaPush {
    /// The slice copy to install on the receiver.
    pub slice: Arc<GraphPart>,
}

impl ReplicaPush {
    /// Accounted wire size of the transfer in bytes: one header, four
    /// bytes per owned vertex and adjacency entry, eight per offset.
    pub fn wire_bytes(&self) -> u64 {
        let s = &self.slice;
        HEADER_BYTES
            + 4 * (s.owned().len() as u64 + s.neighbors().len() as u64)
            + 8 * s.offsets().len() as u64
    }
}

/// A control-plane operation — the vocabulary of the work-coordination
/// protocol, applied by [`crate::ledger::Ledger`] whichever carrier
/// (see `crate::control`) delivers it. Where data fetches move edge lists
/// between parts, these move *scheduling state*: root claims, batch
/// retirements, donations, starvation signals, quiescence votes, and
/// recovery-log queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtrlOp {
    /// Claim the next root batch for the sender: its own unclaimed range
    /// first, then — with stealing on — the donation spill, then a steal
    /// from a victim part's range. The ledger sizes the grant (see
    /// [`crate::ledger::Ledger`]); the sender only bounds it.
    Claim {
        /// The most roots the sender can take in one grant, whatever the
        /// source — its chunk capacity. A cap, not a size: with stealing
        /// on the ledger usually grants fewer; `0` claims nothing.
        own_batch: usize,
    },
    /// Retire one of the sender's previously claimed batches, on its own:
    /// the exit paths (stop, deadline, error) that claim nothing further.
    BatchDone,
    /// Retire the sender's finished batch, then claim the next one as
    /// [`CtrlOp::Claim`] does — the steady-state hand-off, one message
    /// per batch. The retirement counts even when the claim finds nothing.
    RetireClaim {
        /// The cap on the grant, as in [`CtrlOp::Claim`].
        own_batch: usize,
    },
    /// Donate never-started level-0 roots to the shared spill.
    Donate {
        /// The donated root vertices.
        roots: Vec<VertexId>,
    },
    /// Flag the sender as starving (idle and polling for work) or not.
    Starving {
        /// `true` on entering the idle poll loop, `false` on leaving it.
        on: bool,
    },
    /// Read the global quiescence verdict and the starvation count.
    Poll,
    /// Close the `dead` parts' cursors and return the lost-root multiset
    /// reconstructed from the claim/donate message log.
    CloseDead {
        /// The fail-stopped parts whose work must be reconstructed.
        dead: Vec<PartId>,
    },
}

impl CtrlOp {
    /// Stable numeric code of the operation, recorded as the `arg` of
    /// control-message trace spans (1 = claim, 2 = batch-done,
    /// 3 = donate, 4 = starving, 5 = poll, 6 = close-dead,
    /// 7 = retire-claim).
    pub fn code(&self) -> u64 {
        match self {
            CtrlOp::Claim { .. } => 1,
            CtrlOp::BatchDone => 2,
            CtrlOp::Donate { .. } => 3,
            CtrlOp::Starving { .. } => 4,
            CtrlOp::Poll => 5,
            CtrlOp::CloseDead { .. } => 6,
            CtrlOp::RetireClaim { .. } => 7,
        }
    }
}

/// One control message on the wire. Mirrors [`WireRequest`]'s tagging
/// discipline: `seq` is fresh per attempt (the fault plan rolls a new
/// fate for each), while `req_id` is stable across retries — it is both
/// the causal trace link and the responder's **dedup key**, so a retried
/// operation whose original reply was lost in the network is answered
/// from the responder's reply cache instead of being applied twice
/// (control operations mutate scheduler state; exactly-once matters
/// here, unlike idempotent data fetches).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CtrlRequest {
    /// Client-assigned sequence number; a retry gets a fresh one.
    pub seq: u64,
    /// Causal id and dedup key, stable across retries.
    pub req_id: u64,
    /// Id of the query this operation coordinates for.
    pub query: u64,
    /// The part that issued this operation.
    pub from: PartId,
    /// The operation itself, shared by every attempt of one call.
    pub op: Arc<CtrlOp>,
}

/// Where a claimed root batch came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClaimSource {
    /// The claimant's own unclaimed root range.
    Own,
    /// The shared spill of donated level-0 ranges.
    Spill,
    /// Stolen from the given part's unclaimed root range.
    Stolen(PartId),
}

/// The payload of a control reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtrlPayload {
    /// A claim succeeded; the roots are now the claimant's to execute.
    Claimed {
        /// Where the batch came from.
        source: ClaimSource,
        /// The claimed root vertices (shared with the responder's replay
        /// cache, so a reply costs no second copy).
        roots: Arc<[VertexId]>,
        /// Number of parts currently flagged starving.
        starving: usize,
    },
    /// A claim found nothing claimable right now. Carries what the
    /// claimant would otherwise poll for before it parks.
    NoWork {
        /// Whether the run has globally quiesced.
        finished: bool,
        /// Number of parts currently flagged starving.
        starving: usize,
    },
    /// A fire-and-forget operation was applied.
    Ack,
    /// Answer to [`CtrlOp::Poll`].
    Status {
        /// Whether the run has globally quiesced (no outstanding
        /// batches, every cursor exhausted, spill empty).
        finished: bool,
        /// Number of parts currently flagged starving.
        starving: usize,
    },
    /// Answer to [`CtrlOp::CloseDead`]: the reconstructed lost roots.
    Lost {
        /// The multiset of roots to re-execute on the survivors.
        roots: Vec<VertexId>,
    },
}

/// One control reply, matched to its request by `req_id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CtrlReply {
    /// The request this answers (and dedup-cache key it was stored under).
    pub req_id: u64,
    /// The operation's result.
    pub payload: CtrlPayload,
}

enum Msg {
    Fetch {
        req: WireRequest,
        reply_to: Sender<WireReply>,
    },
    Push {
        push: ReplicaPush,
        ack: Sender<()>,
    },
    /// Stops the responder even while client clones are still alive.
    Shutdown,
}

/// The in-process cluster transport: one responder thread per part.
///
/// Each responder serves its own part's slice plus any replica slices
/// the partitioning hosts on it (selected per request by
/// [`WireRequest::owner`]), so a fetch re-routed around a dead part is
/// answered from the holder's copy. The hosted set is **mutable at
/// runtime**: re-replication pushes ([`ReplicaPush`]) install further
/// slices into it after a holder dies, restoring redundancy.
///
/// With a [`FaultPlan`], every fetch submission counts toward the plan's
/// crash schedule and then rolls its fate under the plan's drop fraction.
#[derive(Debug)]
pub struct ChannelTransport {
    senders: Vec<Sender<Msg>>,
    handles: parking_lot::Mutex<Vec<JoinHandle<()>>>,
    /// Set when a scheduled crash kills a part; distinguishes a fail-stop
    /// kill (submissions get [`FetchError::PartDead`]) from an orderly
    /// [`ChannelTransport::shutdown`] (submissions get
    /// [`FetchError::Shutdown`]). Shared with the responder threads so a
    /// killed responder abandons queued requests instead of draining them.
    dead: Arc<Vec<AtomicBool>>,
    /// Per-part hosted-slice registries (`[0]` is the part's own slice),
    /// shared with the responder threads. Responders take the read lock
    /// per request; a replica install takes the write lock once.
    slices: Vec<Arc<parking_lot::RwLock<Vec<Arc<GraphPart>>>>>,
    /// The fault plan fetch submissions pass through, if any.
    fault: Option<FaultPlan>,
    /// The plan's scheduled crashes in order, each with the submissions
    /// counted toward it and a once-only fired latch.
    crashes: Vec<(CrashAt, AtomicU64, AtomicBool)>,
    obs: Arc<Recorder>,
}

impl ChannelTransport {
    /// Starts one responder thread per part of `pg`, recording served
    /// requests into `metrics` and a `Serve` span per request into `obs`,
    /// with `fault` applied to every fetch submission.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`] or names a crash
    /// part out of range.
    pub fn start(
        pg: &PartitionedGraph,
        metrics: &ClusterMetrics,
        fault: Option<FaultPlan>,
        obs: Arc<Recorder>,
    ) -> Self {
        let parts = pg.part_count();
        if let Some(plan) = &fault {
            plan.validate();
            for c in &plan.crashes {
                assert!(
                    c.part < parts,
                    "FaultPlan crash part {} out of range (part count {parts})",
                    c.part
                );
            }
        }
        let dead: Arc<Vec<AtomicBool>> =
            Arc::new((0..parts).map(|_| AtomicBool::new(false)).collect());
        let mut senders = Vec::with_capacity(parts);
        let mut handles = Vec::with_capacity(parts);
        let mut registries = Vec::with_capacity(parts);
        for part_id in 0..parts {
            let (tx, rx) = unbounded::<Msg>();
            senders.push(tx);
            // Own slice first, then any replica slices hosted here.
            let mut slices = vec![pg.part_arc(part_id)];
            slices.extend(pg.hosted_replicas(part_id).iter().cloned());
            let registry = Arc::new(parking_lot::RwLock::new(slices));
            registries.push(Arc::clone(&registry));
            let part_metrics = Arc::clone(metrics.part(part_id));
            let obs = Arc::clone(&obs);
            let dead = Arc::clone(&dead);
            let handle = std::thread::Builder::new()
                .name(format!("edgelist-responder-{part_id}"))
                .spawn(move || {
                    loop {
                        let msg = match rx.recv() {
                            Ok(m) => m,
                            Err(_) => break,
                        };
                        // Fail-stop: a killed responder abandons queued
                        // requests unanswered; clients time out and
                        // discover the death on resubmission.
                        if dead[part_id].load(Ordering::SeqCst) {
                            break;
                        }
                        match msg {
                            Msg::Fetch { req, reply_to } => {
                                let (t0, served_at) = (obs.now_ns(), Instant::now());
                                let payload = serve(&registry.read(), &req);
                                if let Ok(lists) = &payload {
                                    part_metrics.add(Counter::ServedRequests, 1);
                                    part_metrics.add(Counter::ServedBytes, lists.response_bytes());
                                    obs.span(
                                        req.query,
                                        SpanKind::Serve,
                                        part_id as u32,
                                        t0,
                                        lists.response_bytes(),
                                        req.req_id,
                                    );
                                }
                                // A dropped reply receiver just means the
                                // client gave up (or the fault plan
                                // swallowed the reply); keep serving
                                // others.
                                let reply = WireReply { seq: req.seq, payload, served_at };
                                let _ = reply_to.send(reply);
                            }
                            Msg::Push { push, ack } => {
                                let mut slices = registry.write();
                                let owner = push.slice.part_id();
                                if slices.iter().all(|s| s.part_id() != owner) {
                                    slices.push(push.slice);
                                }
                                drop(slices);
                                let _ = ack.send(());
                            }
                            Msg::Shutdown => break,
                        }
                    }
                })
                .expect("spawn responder thread");
            handles.push(handle);
        }
        let crashes = fault.iter().flat_map(|plan| &plan.crashes);
        let crashes = crashes.map(|&c| (c, AtomicU64::new(0), AtomicBool::new(false))).collect();
        ChannelTransport {
            senders,
            handles: parking_lot::Mutex::new(handles),
            dead,
            slices: registries,
            fault,
            crashes,
            obs,
        }
    }

    /// Number of parts this transport connects.
    pub fn part_count(&self) -> usize {
        self.senders.len()
    }

    /// Queues `req` for `target`'s responder; the reply, carrying
    /// `req.seq`, goes to `reply_to` when served — unless the fault plan
    /// drops it.
    ///
    /// # Errors
    ///
    /// Returns [`FetchError::PartDead`] if the target responder was
    /// fail-stop killed, [`FetchError::Shutdown`] if it stopped as part
    /// of an orderly teardown.
    pub fn submit(
        &self,
        target: PartId,
        req: WireRequest,
        reply_to: &Sender<WireReply>,
    ) -> Result<(), FetchError> {
        self.maybe_crash(target);
        let plan = self.fault.as_ref();
        let (reply_to, _) = fate(plan, &self.obs, target, req.seq, req.query, req.req_id, reply_to);
        self.send(target, Msg::Fetch { req, reply_to })
    }

    /// Sends `push` to `target`'s responder, which installs the slice
    /// into its hosted set, and waits up to `timeout` for the one ack.
    /// Returns the transfer's wire bytes.
    ///
    /// Pushes bypass the fault plan: they roll no fate and do not count
    /// toward the crash schedule, which meters *fetch* submissions so a
    /// schedule fires at the same fetch with rebalance on or off.
    ///
    /// # Errors
    ///
    /// [`FetchError::PartDead`] if `target` was fail-stop killed, before
    /// or after the push was queued; [`FetchError::Shutdown`] after an
    /// orderly teardown; [`FetchError::Timeout`] if a live target never
    /// acks.
    pub fn push_replica(
        &self,
        target: PartId,
        push: ReplicaPush,
        timeout: Duration,
    ) -> Result<u64, FetchError> {
        let bytes = push.wire_bytes();
        let (ack, acked) = unbounded();
        self.send(target, Msg::Push { push, ack })?;
        match acked.recv_timeout(timeout) {
            Ok(()) => Ok(bytes),
            Err(_) if self.dead[target].load(Ordering::SeqCst) => {
                Err(FetchError::PartDead { part: target })
            }
            Err(_) => Err(FetchError::Timeout { target, attempts: 1 }),
        }
    }

    fn send(&self, target: PartId, msg: Msg) -> Result<(), FetchError> {
        assert!(target < self.senders.len(), "target part out of range");
        let dead = || self.dead[target].load(Ordering::SeqCst);
        if dead() {
            return Err(FetchError::PartDead { part: target });
        }
        // The queue may close between the check above and the send.
        self.senders[target].send(msg).map_err(|_| {
            if dead() {
                FetchError::PartDead { part: target }
            } else {
                FetchError::Shutdown
            }
        })
    }

    /// The slice ids `part`'s responder currently hosts, own slice
    /// first — the live replica-placement map, including slices
    /// installed by re-replication after start.
    ///
    /// # Panics
    ///
    /// Panics if `part` is out of range.
    pub fn hosted_slices(&self, part: PartId) -> Vec<PartId> {
        self.slices[part].read().iter().map(|s| s.part_id()).collect()
    }

    /// `holder`'s copy of `slice`, if its responder hosts one and has
    /// not been fail-stop killed.
    pub fn hosted_slice(&self, holder: PartId, slice: PartId) -> Option<Arc<GraphPart>> {
        if self.dead[holder].load(Ordering::SeqCst) {
            return None;
        }
        self.slices[holder].read().iter().find(|s| s.part_id() == slice).cloned()
    }

    /// Fires the next scheduled crash if `target` is its victim and its
    /// request budget is exhausted. Crashes chain: only the first
    /// unfired entry counts submissions, so later entries measure
    /// requests *since the previous crash* — which lets a schedule put
    /// the second crash inside the first one's recovery pass.
    fn maybe_crash(&self, target: PartId) {
        let next = self.crashes.iter().find(|(_, _, fired)| !fired.load(Ordering::SeqCst));
        let Some((crash, counted, fired)) = next else { return };
        if target == crash.part {
            let seen = counted.fetch_add(1, Ordering::Relaxed);
            if seen >= crash.after_requests && !fired.swap(true, Ordering::SeqCst) {
                self.obs.event(0, SpanKind::PartCrash, target as u32, seen, 0);
                self.kill_part(target);
            }
        }
    }

    /// Fail-stop kills `part`'s responder: its queue is closed, queued
    /// requests are abandoned unanswered, and every later submission to
    /// it returns [`FetchError::PartDead`]. The thread is joined by the
    /// eventual [`ChannelTransport::shutdown`]. Idempotent.
    fn kill_part(&self, part: PartId) {
        if !self.dead[part].swap(true, Ordering::SeqCst) {
            let _ = self.senders[part].send(Msg::Shutdown);
        }
    }

    /// Stops all responders and joins their threads. Idempotent.
    pub fn shutdown(&self) {
        for tx in &self.senders {
            let _ = tx.send(Msg::Shutdown);
        }
        for h in self.handles.lock().drain(..) {
            let _ = h.join();
        }
    }
}

/// Serves `req` from whichever of `slices` holds its owner's slice
/// (`slices[0]` is the responder's own part; the rest are hosted
/// replicas): each list whole, or — for a bounded request — the part
/// above its bound. A request for a part not hosted here is a routing bug
/// and answers [`FetchError::NotOwner`].
fn serve(slices: &[Arc<GraphPart>], req: &WireRequest) -> Result<FetchedLists, FetchError> {
    let (target, vertices) = (slices[0].part_id(), &req.vertices[..]);
    let Some(part) = slices.iter().find(|s| s.part_id() == req.owner) else {
        return Err(FetchError::NotOwner { target, missing: vertices.to_vec() });
    };
    // Size the reply before building it: one allocation of the whole
    // lists' length (what a cut reply never exceeds) instead of doubling
    // through it list by list.
    let mut entries = 0usize;
    let mut missing = Vec::new();
    for &v in vertices {
        match part.edge_list(v) {
            Some(list) => entries += list.len(),
            None => missing.push(v),
        }
    }
    if !missing.is_empty() {
        return Err(FetchError::NotOwner { target, missing });
    }
    checked_offset(entries).map_err(|entries| FetchError::TooLarge { target, entries })?;
    let mut offsets = Vec::with_capacity(vertices.len() + 1);
    offsets.push(0u32);
    let mut data = Vec::with_capacity(entries);
    for (k, &v) in vertices.iter().enumerate() {
        let list = part.edge_list(v).expect("ownership checked above");
        // A bound column shorter than the request leaves the rest whole.
        let list = set_ops::clamp(list, req.above.as_ref().and_then(|a| a.get(k).copied()), None);
        data.extend_from_slice(list);
        offsets.push(data.len() as u32);
    }
    Ok(FetchedLists::from_parts(offsets, data))
}

/// The faults of one run, on both planes: a reply arrives or is lost,
/// and a part lives or dies.
///
/// Drops are decided deterministically per `(seed, target, seq)`, so a
/// run with a fixed plan is reproducible, and a retried request (which
/// carries a fresh sequence number) re-rolls its fate — with a fraction
/// below 1.0, retries converge. The fabric holds the plan in its
/// [`ChannelTransport`]; the message control carrier drops the same
/// fraction of its replies and ignores the crashes.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Fraction of requests whose replies are silently dropped (the
    /// client sees a timeout).
    pub drop_fraction: f64,
    /// Seed of the deterministic per-message drop decision.
    pub seed: u64,
    /// Scheduled fail-stop crashes, fired **in list order**: entry
    /// `i + 1` starts counting submissions targeting its part only once
    /// entry `i` has fired, so sequential crash schedules ("part 1 after
    /// 4 requests, then part 2 after 6 further requests") are expressed
    /// directly. Empty means no crashes.
    pub crashes: Vec<CrashAt>,
}

/// A scheduled fail-stop crash: the responder of `part` is killed by the
/// first fetch submission targeting it once `after_requests` earlier
/// ones have been counted. `after_requests: 0` kills it on the very
/// first request. Only the data plane's fetches count; control calls and
/// slice transfers never do.
///
/// Unlike the probabilistic drops this is exact and deterministic:
/// the same workload crashes at the same point every run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashAt {
    /// The part whose responder is killed.
    pub part: PartId,
    /// How many submissions targeting `part` are served (or at least
    /// accepted) before the crash fires.
    pub after_requests: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan { drop_fraction: 0.0, seed: 0x5eed, crashes: Vec::new() }
    }
}

impl FaultPlan {
    /// A plan that only drops `fraction` of replies.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not a probability (see
    /// [`FaultPlan::validate`]).
    pub fn drops(fraction: f64) -> Self {
        let plan = FaultPlan { drop_fraction: fraction, ..FaultPlan::default() };
        plan.validate();
        plan
    }

    /// A plan that only crashes `part` after `after_requests`
    /// submissions targeting it.
    pub fn crash_at(part: PartId, after_requests: u64) -> Self {
        FaultPlan { crashes: vec![CrashAt { part, after_requests }], ..FaultPlan::default() }
    }

    /// Checks the plan's parameters, panicking with a descriptive
    /// message on nonsense: the drop fraction must be a finite value in
    /// `[0, 1]` (NaN, negative, and `> 1` are all rejected).
    pub fn validate(&self) {
        let f = self.drop_fraction;
        assert!(
            f.is_finite() && (0.0..=1.0).contains(&f),
            "FaultPlan.drop_fraction must be a probability in [0, 1], got {f}"
        );
    }

    /// Whether this plan drops the reply to message `seq` to `target`:
    /// one deterministic draw against the drop fraction.
    pub(crate) fn drops_reply(&self, target: PartId, seq: u64) -> bool {
        unit_hash(self.seed, target as u64, seq) < self.drop_fraction
    }
}

/// SplitMix64-style hash of `(seed, target, seq)` mapped to `[0, 1)`.
fn unit_hash(seed: u64, target: u64, seq: u64) -> f64 {
    let mut z = seed
        .wrapping_add(target.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(seq.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Rolls the fate of message `seq` to `target` under `plan` and returns
/// where the receiving end should send the reply, with whether it is
/// dropped: `reply_to` itself, or for a drop a black hole whose receiver
/// is already gone (the message is still served — the responder never
/// sees the loss — but its reply is lost in the network). A drop records
/// a `Fault` instant (`arg` 1) for `query`'s request `link`.
///
/// Both planes send through here — the fabric per fetch submission with
/// the target part, the control plane per call attempt with the calling
/// part — so one plan's draws mean the same on either.
pub(crate) fn fate<R>(
    plan: Option<&FaultPlan>,
    obs: &Recorder,
    target: PartId,
    seq: u64,
    query: u64,
    link: u64,
    reply_to: &Sender<R>,
) -> (Sender<R>, bool) {
    if !plan.is_some_and(|plan| plan.drops_reply(target, seq)) {
        return (reply_to.clone(), false);
    }
    obs.event(query, SpanKind::Fault, target as u32, 1, link);
    (unbounded().0, true)
}

/// Timeout and retry behaviour of a request–reply exchange: a fetch, a
/// slice transfer (timeout only) or a control call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included) before the exchange fails
    /// with [`FetchError::Timeout`].
    pub max_attempts: u32,
    /// Per-attempt reply deadline. The in-process transport answers in
    /// microseconds, so the generous default never fires without fault
    /// injection; tighten it when a [`FaultPlan`] drops replies.
    pub timeout: Duration,
    /// Backoff before the second attempt; doubles on each further retry,
    /// up to one attempt's `timeout`.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            timeout: Duration::from_secs(10),
            backoff: Duration::from_millis(2),
        }
    }
}

impl RetryPolicy {
    /// After `attempts` lost attempts of `query`'s request `link` from
    /// `part`: `None` once they exhaust the budget; otherwise sleeps the
    /// backoff ([`RetryPolicy::delay`]) under a `kind` span covering the
    /// sleep (a fetch's coarse `Retry` also reaches the flight ring), and
    /// returns how long it slept, so a fetch's wait can tell
    /// self-inflicted backoff from waiting on a reply.
    pub(crate) fn back_off(
        &self,
        attempts: u32,
        obs: &Recorder,
        kind: SpanKind,
        query: u64,
        part: PartId,
        link: u64,
    ) -> Option<Duration> {
        if attempts >= self.max_attempts.max(1) {
            return None;
        }
        let (t0, slept) = (obs.now_ns(), Instant::now());
        let backoff = self.delay(attempts);
        if !backoff.is_zero() {
            std::thread::sleep(backoff);
        }
        obs.span(query, kind, part as u32, t0, attempts as u64, link);
        Some(slept.elapsed())
    }

    /// The sleep after `attempts ≥ 1` lost attempts:
    /// [`RetryPolicy::backoff`] doubled per attempt after the first, and
    /// never longer than one attempt's [`RetryPolicy::timeout`], so a
    /// long budget costs at most twice its timeouts.
    fn delay(&self, attempts: u32) -> Duration {
        self.backoff.saturating_mul(1 << (attempts - 1).min(31)).min(self.timeout)
    }
}

/// Waits until `deadline` for the reply `ours` accepts, discarding any
/// other on `inbox`: a late answer to an attempt, or a call, that already
/// gave up on it. `None` once the deadline passes — the only way out
/// without a reply, since every caller holds a sender of its own inbox.
pub(crate) fn await_reply<R>(
    inbox: &Receiver<R>,
    deadline: Instant,
    ours: impl Fn(&R) -> bool,
) -> Option<R> {
    loop {
        let reply = inbox.recv_timeout(deadline.saturating_duration_since(Instant::now())).ok()?;
        if ours(&reply) {
            return Some(reply);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_backoff_never_outgrows_the_attempt_timeout() {
        let policy = RetryPolicy {
            max_attempts: 16,
            timeout: Duration::from_millis(5),
            backoff: Duration::from_millis(1),
        };
        let sleeps: Vec<Duration> = (1..16).map(|a| policy.delay(a)).collect();
        assert_eq!(sleeps[..4], [1, 2, 4, 5].map(Duration::from_millis));
        assert!(sleeps.iter().all(|&d| d <= policy.timeout));
        assert!(sleeps.iter().sum::<Duration>() < 16 * policy.timeout);
        // The uncapped doubling would have slept 2^15 - 1 ms.
        let far = RetryPolicy { max_attempts: 64, ..policy };
        assert_eq!(far.delay(63), policy.timeout);
    }

    #[test]
    fn checked_offset_guards_truncation() {
        assert_eq!(checked_offset(0), Ok(0));
        assert_eq!(checked_offset(u32::MAX as usize), Ok(u32::MAX));
        assert_eq!(checked_offset(u32::MAX as usize + 1), Err(u32::MAX as usize + 1));
        assert_eq!(checked_offset(usize::MAX), Err(usize::MAX));
    }

    #[test]
    fn fault_decisions_are_deterministic() {
        let plan = FaultPlan { drop_fraction: 0.3, ..Default::default() };
        for seq in 0..64 {
            assert_eq!(plan.drops_reply(1, seq), plan.drops_reply(1, seq));
        }
        // A retried message (fresh seq) can change fate.
        let fates: Vec<bool> = (0..64).map(|s| plan.drops_reply(0, s)).collect();
        assert!(fates.iter().any(|&f| f != fates[0]), "fates never vary: {fates:?}");
    }

    #[test]
    fn fault_fractions_roughly_respected() {
        let plan = FaultPlan { drop_fraction: 0.5, ..Default::default() };
        let drops = (0..1000).filter(|&s| plan.drops_reply(0, s)).count();
        assert!((350..650).contains(&drops), "{drops} drops out of 1000");
    }

    #[test]
    fn unit_hash_in_range() {
        for s in 0..100 {
            let r = unit_hash(7, 3, s);
            assert!((0.0..1.0).contains(&r));
        }
    }

    #[test]
    fn fault_plan_validation_rejects_bad_fractions() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let bad = [
            FaultPlan { drop_fraction: f64::NAN, ..FaultPlan::default() },
            FaultPlan { drop_fraction: f64::INFINITY, ..FaultPlan::default() },
            FaultPlan { drop_fraction: -0.1, ..FaultPlan::default() },
            FaultPlan { drop_fraction: 1.5, ..FaultPlan::default() },
        ];
        for plan in bad {
            assert!(
                catch_unwind(AssertUnwindSafe(|| plan.validate())).is_err(),
                "bad plan accepted: {plan:?}"
            );
        }
        // The boundaries are inclusive.
        FaultPlan { drop_fraction: 1.0, ..FaultPlan::default() }.validate();
        FaultPlan { drop_fraction: 0.0, ..FaultPlan::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "must be a probability")]
    fn drops_constructor_validates() {
        let _ = FaultPlan::drops(1.5);
    }

    fn start(pg: &PartitionedGraph, fault: Option<FaultPlan>) -> ChannelTransport {
        let metrics = ClusterMetrics::new(pg.part_count(), 1);
        ChannelTransport::start(pg, &metrics, fault, Recorder::disabled())
    }

    fn wire(seq: u64, owner: PartId, v: VertexId) -> WireRequest {
        WireRequest { seq, req_id: 0, query: 0, owner, vertices: Arc::from([v]), above: None }
    }

    #[test]
    fn crash_at_kills_the_responder_permanently() {
        let g = gpm_graph::gen::complete(12);
        let pg = PartitionedGraph::new(&g, 2, 1);
        let t = start(&pg, Some(FaultPlan::crash_at(1, 2)));
        let (tx, rx) = unbounded::<WireReply>();
        let v1 = pg.part(1).owned()[0];
        // The first two submissions targeting part 1 are served.
        for seq in 0..2 {
            t.submit(1, wire(seq, 1, v1), &tx).unwrap();
            let reply = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert!(reply.payload.is_ok(), "pre-crash serve failed: {reply:?}");
        }
        // The third fires the crash; it and every later one fail typed.
        for seq in 2..4 {
            assert_eq!(t.submit(1, wire(seq, 1, v1), &tx), Err(FetchError::PartDead { part: 1 }));
        }
        // The surviving part keeps serving.
        let v0 = pg.part(0).owned()[0];
        t.submit(0, wire(9, 0, v0), &tx).unwrap();
        assert!(rx.recv_timeout(Duration::from_secs(5)).unwrap().payload.is_ok());
        t.shutdown();
    }

    #[test]
    fn replica_holder_serves_a_hosted_slice() {
        // With r = 2 on three parts, part 0 hosts part 1's slice: a
        // request submitted to part 0 with owner = 1 is answered from
        // the replica, byte-identical to the primary's answer.
        let g = gpm_graph::gen::complete(12);
        let pg = PartitionedGraph::with_replication(&g, 3, 1, 2);
        let t = start(&pg, None);
        let v1 = pg.part(1).owned()[0];
        let (tx, rx) = unbounded::<WireReply>();
        t.submit(0, wire(0, 1, v1), &tx).unwrap();
        let from_replica = rx.recv_timeout(Duration::from_secs(5)).unwrap().payload.unwrap();
        t.submit(1, wire(1, 1, v1), &tx).unwrap();
        let from_primary = rx.recv_timeout(Duration::from_secs(5)).unwrap().payload.unwrap();
        assert_eq!(from_replica, from_primary);
        // A slice nobody here hosts (part 1 holds neither part 0's
        // primary nor its replica) is still a routing error.
        let err = {
            t.submit(1, wire(2, 0, v1), &tx).unwrap();
            rx.recv_timeout(Duration::from_secs(5)).unwrap().payload.unwrap_err()
        };
        assert_eq!(err, FetchError::NotOwner { target: 1, missing: vec![v1] });
        t.shutdown();
    }

    /// Pushes part `owner`'s slice from `pg` to `target`'s responder,
    /// asserting the ack and the accounted bytes.
    fn push_slice(t: &ChannelTransport, pg: &PartitionedGraph, owner: PartId, target: PartId) {
        let push = ReplicaPush { slice: pg.part_arc(owner) };
        let bytes = push.wire_bytes();
        let src = pg.part(owner);
        let columns = 4 * (src.owned().len() + src.neighbors().len()) + 8 * src.offsets().len();
        assert_eq!(bytes, HEADER_BYTES + columns as u64, "three columns plus one header");
        assert_eq!(t.push_replica(target, push, Duration::from_secs(5)), Ok(bytes));
    }

    #[test]
    fn replica_push_installs_a_servable_slice() {
        // No replication: part 2's responder starts hosting only its own
        // slice. After pushing part 0's slice to it, a fetch for owner 0
        // submitted to part 2 is answered byte-identically to the
        // primary's answer.
        let g = gpm_graph::gen::complete(12);
        let pg = PartitionedGraph::new(&g, 3, 1);
        let t = start(&pg, None);
        assert_eq!(t.hosted_slices(2), vec![2]);
        let v0 = pg.part(0).owned()[0];
        let (tx, rx) = unbounded::<WireReply>();
        t.submit(2, wire(0, 0, v0), &tx).unwrap();
        let before = rx.recv_timeout(Duration::from_secs(5)).unwrap().payload;
        assert!(matches!(before, Err(FetchError::NotOwner { .. })), "{before:?}");

        push_slice(&t, &pg, 0, 2);
        assert_eq!(t.hosted_slices(2), vec![2, 0]);

        t.submit(2, wire(1, 0, v0), &tx).unwrap();
        let from_new_replica = rx.recv_timeout(Duration::from_secs(5)).unwrap().payload.unwrap();
        t.submit(0, wire(2, 0, v0), &tx).unwrap();
        let from_primary = rx.recv_timeout(Duration::from_secs(5)).unwrap().payload.unwrap();
        assert_eq!(from_new_replica, from_primary);
        t.shutdown();
    }

    #[test]
    fn replica_push_bypasses_the_fault_plan() {
        // A plan that drops every fetch reply must not touch pushes, and
        // pushes must not advance crash request budgets.
        let g = gpm_graph::gen::complete(12);
        let pg = PartitionedGraph::new(&g, 2, 1);
        let plan = FaultPlan {
            drop_fraction: 1.0,
            crashes: vec![CrashAt { part: 1, after_requests: 1 }],
            ..FaultPlan::default()
        };
        let t = start(&pg, Some(plan));
        push_slice(&t, &pg, 0, 1);
        push_slice(&t, &pg, 0, 1);
        assert_eq!(t.hosted_slices(1), vec![1, 0], "a second copy of a slice is not installed");
        // The crash budget (1 fetch) is untouched by the two pushes: the
        // first fetch submission is still accepted.
        let v1 = pg.part(1).owned()[0];
        let (tx, _rx) = unbounded::<WireReply>();
        assert!(t.submit(1, wire(0, 1, v1), &tx).is_ok());
        t.shutdown();
    }
}
