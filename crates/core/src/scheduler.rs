//! The layered scheduler underneath per-part execution.
//!
//! Three pieces, bottom-up:
//!
//! 1. [`WorkerPool`] — one persistent pool of compute threads per engine
//!    (`parts × compute_threads`), created lazily on the first run and
//!    parked on a condvar between extend phases. This replaces the old
//!    per-extend-phase `crossbeam::thread::scope` spawn storm: a phase is
//!    dispatched to the already-running threads through a [`Gate`].
//! 2. [`TaskPool`] — the explicit task model of one extend phase. A
//!    [`Task`] is a claimable range of the chunk's embedding cursor (or of
//!    its resume list); coarse tasks are seeded into a per-part injector
//!    queue, workers split `mini_batch`-sized heads off them, keep the
//!    remainder in their own LIFO deque, and steal from sibling deques
//!    when both their deque and the injector run dry.
//! 3. [`RootLedger`] — the cross-part stealing coordinator. Root ranges
//!    are claimed from a shared per-part cursor in bounded batches, so an
//!    idle part can steal the unclaimed tail of a loaded part (and any
//!    level-0 ranges the loaded part donates to the spill). Only *root
//!    vertex ids* move between parts — their edge lists still flow through
//!    the fabric on demand, preserving the paper's "fetch data, never ship
//!    computation" rule. Termination uses a [`WorkCounter`] quiescence
//!    check instead of a per-part "my cursor is exhausted" test.

use gpm_cluster::work::WorkCounter;
use gpm_cluster::FetchError;
use gpm_graph::partition::GraphPart;
use gpm_graph::VertexId;
use gpm_obs::{Recorder, SpanKind};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Cross-part work-stealing knobs (`Engine` level).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StealConfig {
    /// Whether idle parts may steal unclaimed root ranges (and donated
    /// level-0 ranges) from loaded parts. Off by default: stealing trades
    /// extra cross-part fetch traffic for balance, which ablations must
    /// opt into explicitly.
    pub enabled: bool,
    /// Upper bound on roots taken per steal (and per claim once a part is
    /// feeding from the shared ledger). Smaller batches balance better;
    /// larger batches amortize seeding overhead.
    pub batch: usize,
    /// NUMA-aware victim ordering (paper §5.4): a thief prefers the
    /// most-loaded part on its *own machine* before crossing the
    /// simulated network, using the `machine * sockets_per_machine +
    /// socket` part numbering. On by default; turning it off reverts to
    /// flat most-loaded-anywhere selection.
    pub numa: bool,
}

impl Default for StealConfig {
    fn default() -> Self {
        StealConfig { enabled: false, batch: 256, numa: true }
    }
}

// ---------------------------------------------------------------------------
// Persistent worker pool
// ---------------------------------------------------------------------------

/// A phase job: called once per worker with the worker's index.
///
/// The `'static` is a lie told only inside [`Gate::run_phase`], which
/// blocks until every worker has finished the call — the borrowed phase
/// state therefore strictly outlives every dereference.
type Job = &'static (dyn Fn(usize) + Sync);

struct GateState {
    /// Bumped once per dispatched phase; workers run each epoch once.
    epoch: u64,
    job: Option<Job>,
    /// Workers still running (or yet to pick up) the current epoch's job.
    active: usize,
    panicked: bool,
    shutdown: bool,
}

/// Rendezvous point between one part's coordinator and its parked compute
/// workers. All state lives under one mutex, so dispatch and completion
/// cannot miss wakeups.
pub(crate) struct Gate {
    state: Mutex<GateState>,
    work_cv: Condvar,
    done_cv: Condvar,
}

impl Gate {
    fn new() -> Gate {
        Gate {
            state: Mutex::new(GateState {
                epoch: 0,
                job: None,
                active: 0,
                panicked: false,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        }
    }

    /// Runs `f(worker_index)` on all `threads` parked workers and blocks
    /// until every one of them has returned.
    ///
    /// Gates are shared: with several resident queries a part has one
    /// coordinator *per query*, all dispatching through the same gate.
    /// A dispatcher therefore first waits for any in-flight phase (another
    /// query's, or a predecessor epoch of its own) to fully retire before
    /// publishing its job — phases serialize per part, queries interleave
    /// at phase granularity.
    ///
    /// # Panics
    ///
    /// Re-panics on the caller if any worker panicked inside `f`, matching
    /// the old scoped-thread behavior.
    pub(crate) fn run_phase(&self, threads: usize, f: &(dyn Fn(usize) + Sync)) {
        // SAFETY: `job` escapes the borrow checker but not this function:
        // workers only call it between the dispatch below and the
        // `active == 0` wait returning, and we do not return (or unwind —
        // the wait loop cannot panic) before that.
        let job: Job = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        };
        let mut st = self.state.lock();
        // Wait out a concurrently dispatched phase: `job` is cleared (and
        // done_cv notified) only after its dispatcher has observed
        // `active == 0`, so `job.is_none() && active == 0` means fully
        // idle and safe to publish a new epoch.
        while st.active != 0 || st.job.is_some() {
            self.done_cv.wait(&mut st);
        }
        st.job = Some(job);
        st.active = threads;
        st.epoch += 1;
        self.work_cv.notify_all();
        while st.active != 0 {
            self.done_cv.wait(&mut st);
        }
        st.job = None;
        let panicked = std::mem::replace(&mut st.panicked, false);
        // Wake dispatchers blocked on the idle wait above — workers only
        // notify when `active` hits 0, at which point `job` is still set.
        self.done_cv.notify_all();
        drop(st);
        if panicked {
            panic!("a compute worker panicked during a dispatched extend phase");
        }
    }
}

fn worker_loop(gate: &Gate, part: u32, w: usize, rec: &Recorder) {
    let mut seen = 0u64;
    loop {
        let parked_at = rec.now_ns();
        let job = {
            let mut st = gate.state.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    seen = st.epoch;
                    break st.job.expect("a dispatched epoch always carries a job");
                }
                gate.work_cv.wait(&mut st);
            }
        };
        rec.record_span(SpanKind::Park, part, parked_at, w as u64);
        // A panicking job must still retire its `active` slot, or the
        // coordinator would wait forever; the panic is re-raised there.
        let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(w))).is_ok();
        let mut st = gate.state.lock();
        if !ok {
            st.panicked = true;
        }
        st.active -= 1;
        if st.active == 0 {
            gate.done_cv.notify_all();
        }
    }
}

/// The engine's persistent compute threads: `threads` parked workers per
/// part, spawned once and reused by every subsequent run.
pub(crate) struct WorkerPool {
    gates: Vec<Arc<Gate>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    names: Vec<String>,
    threads: usize,
}

impl WorkerPool {
    pub(crate) fn new(parts: usize, threads: usize, rec: &Arc<Recorder>) -> WorkerPool {
        let gates: Vec<Arc<Gate>> = (0..parts).map(|_| Arc::new(Gate::new())).collect();
        let mut handles = Vec::with_capacity(parts * threads);
        let mut names = Vec::with_capacity(parts * threads);
        for (part, gate) in gates.iter().enumerate() {
            for w in 0..threads {
                let name = format!("khuzdul-compute-{part}-{w}");
                names.push(name.clone());
                let gate = Arc::clone(gate);
                let rec = Arc::clone(rec);
                let handle = std::thread::Builder::new()
                    .name(name)
                    .spawn(move || worker_loop(&gate, part as u32, w, &rec))
                    .expect("spawn pooled compute worker");
                handles.push(handle);
            }
        }
        WorkerPool { gates, handles, names, threads }
    }

    pub(crate) fn gate(&self, part: usize) -> Arc<Gate> {
        Arc::clone(&self.gates[part])
    }

    /// Names of every pooled thread, in spawn order.
    pub(crate) fn thread_names(&self) -> &[String] {
        &self.names
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for gate in &self.gates {
            let mut st = gate.state.lock();
            st.shutdown = true;
            gate.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("parts", &self.gates.len())
            .field("threads", &self.threads)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Task model of one extend phase
// ---------------------------------------------------------------------------

/// A claimable slice of one extend phase's work: half-open index ranges
/// into either the phase's captured resume list or the chunk's embedding
/// array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Task {
    /// `old_resumes[start..end]`: paused embeddings, extended first.
    Resumes { start: u32, end: u32 },
    /// `embs[start..end]` from candidate offset 0: fresh embeddings.
    Fresh { start: u32, end: u32 },
}

impl Task {
    pub(crate) fn len(self) -> u32 {
        match self {
            Task::Resumes { start, end } | Task::Fresh { start, end } => end - start,
        }
    }

    /// Splits off at most `n` leading items; the tail (if any) keeps the
    /// same variant.
    fn split_head(self, n: u32) -> (Task, Option<Task>) {
        if self.len() <= n {
            return (self, None);
        }
        match self {
            Task::Resumes { start, end } => (
                Task::Resumes { start, end: start + n },
                Some(Task::Resumes { start: start + n, end }),
            ),
            Task::Fresh { start, end } => {
                (Task::Fresh { start, end: start + n }, Some(Task::Fresh { start: start + n, end }))
            }
        }
    }
}

/// Per-phase work queues: one shared injector plus one LIFO deque per
/// worker. The vendored crossbeam shim has no lock-free deque, so these
/// are short-critical-section mutexed `VecDeque`s — claims move whole
/// range tasks, so the lock is taken once per `mini_batch`, not per
/// embedding.
pub(crate) struct TaskPool {
    injector: Mutex<VecDeque<Task>>,
    deques: Vec<Mutex<VecDeque<Task>>>,
    /// Unclaimed embedding volume, mirrored into the part's queue-depth
    /// gauge so the sampler can record imbalance over time.
    depth: Arc<AtomicUsize>,
}

impl TaskPool {
    pub(crate) fn new(workers: usize, depth: Arc<AtomicUsize>) -> TaskPool {
        depth.store(0, Ordering::Relaxed);
        TaskPool {
            injector: Mutex::new(VecDeque::new()),
            deques: (0..workers.max(1)).map(|_| Mutex::new(VecDeque::new())).collect(),
            depth,
        }
    }

    /// Seeds the phase: `resumes` paused embeddings, any `leftovers`
    /// ranges returned unprocessed by earlier phases, and the unclaimed
    /// cursor range `fresh`. Each source is split into at most `pieces`
    /// coarse tasks so several workers can claim concurrently.
    pub(crate) fn seed(
        &self,
        resumes: u32,
        leftovers: &[(u32, u32)],
        fresh: (u32, u32),
        pieces: u32,
    ) {
        let mut tasks: Vec<Task> = Vec::new();
        push_split(&mut tasks, Task::Resumes { start: 0, end: resumes }, pieces);
        for &(start, end) in leftovers {
            push_split(&mut tasks, Task::Fresh { start, end }, pieces);
        }
        push_split(&mut tasks, Task::Fresh { start: fresh.0, end: fresh.1 }, pieces);
        let volume: usize = tasks.iter().map(|t| t.len() as usize).sum();
        self.depth.store(volume, Ordering::Relaxed);
        self.injector.lock().extend(tasks);
    }

    /// Claims up to `mini` embeddings for worker `w`: own deque newest-
    /// first, then the injector, then the oldest task of a sibling deque.
    /// Oversized claims are split and the tail stays on `w`'s own deque.
    pub(crate) fn claim(&self, w: usize, mini: u32) -> Option<Task> {
        let task = self.pop(w)?;
        let (head, tail) = task.split_head(mini.max(1));
        if let Some(tail) = tail {
            self.deques[w].lock().push_back(tail);
        }
        self.depth.fetch_sub(head.len() as usize, Ordering::Relaxed);
        Some(head)
    }

    /// Returns the unprocessed remainder of a claimed task (chunk filled
    /// or the run was stopped mid-batch).
    pub(crate) fn give_back(&self, w: usize, task: Task) {
        if task.len() == 0 {
            return;
        }
        self.depth.fetch_add(task.len() as usize, Ordering::Relaxed);
        self.deques[w].lock().push_back(task);
    }

    /// Drains every queue after the phase: whatever was never claimed (or
    /// was given back) is written back to the chunk's scheduling state.
    pub(crate) fn drain(&self) -> Vec<Task> {
        let mut out: Vec<Task> = self.injector.lock().drain(..).collect();
        for dq in &self.deques {
            out.extend(dq.lock().drain(..));
        }
        out
    }

    fn pop(&self, w: usize) -> Option<Task> {
        if let Some(t) = self.deques[w].lock().pop_back() {
            return Some(t);
        }
        if let Some(t) = self.injector.lock().pop_front() {
            return Some(t);
        }
        let n = self.deques.len();
        for off in 1..n {
            if let Some(t) = self.deques[(w + off) % n].lock().pop_front() {
                return Some(t);
            }
        }
        None
    }
}

fn push_split(out: &mut Vec<Task>, task: Task, pieces: u32) {
    let len = task.len();
    if len == 0 {
        return;
    }
    let step = len.div_ceil(pieces.max(1));
    let mut rest = task;
    loop {
        let (head, tail) = rest.split_head(step);
        out.push(head);
        match tail {
            Some(t) => rest = t,
            None => break,
        }
    }
}

// ---------------------------------------------------------------------------
// Cross-part root ledger
// ---------------------------------------------------------------------------

/// Where a claimed root batch came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ClaimSource {
    /// This part's own unclaimed root range.
    Own,
    /// The shared spill of donated level-0 ranges.
    Spill,
    /// Stolen from the given part's unclaimed root range.
    Stolen(usize),
}

/// The cross-part work-coordination protocol, abstracted over its
/// carrier: root claims, steals, donations, batch retirements,
/// starvation signals, quiescence votes, and crash recovery.
///
/// Two implementations exist. [`SharedLedger`] keeps the protocol on
/// shared-memory atomics (the default, and the only option before the
/// control plane was lifted out); [`crate::control::MsgLedger`] routes
/// every operation as a typed control message through the cluster
/// transport layer, with its own retry/backoff and fault injection. The
/// engine and runtime only ever see this trait, so the two carriers are
/// interchangeable per run — and must produce bit-identical counts.
///
/// [`claim`], [`finished`], and [`lost_roots`] are fallible: a
/// message-based carrier can exhaust its retries, and the part
/// coordinator must surface that as a run failure instead of spinning
/// forever or silently quiescing (either could strand claimed-but-
/// unprocessed roots). Fire-and-forget operations (`batch_done`,
/// `donate`, `set_starving`) stay infallible at the trait boundary; a
/// carrier that loses one poisons itself and reports the failure from
/// the next fallible call.
///
/// [`claim`]: ControlPlane::claim
/// [`finished`]: ControlPlane::finished
/// [`lost_roots`]: ControlPlane::lost_roots
pub(crate) trait ControlPlane: Send + Sync {
    /// Whether cross-part stealing is enabled for this run.
    fn stealing(&self) -> bool;

    /// Claims the next root batch for `me`: own range first (up to
    /// `own_batch` roots), then — with stealing on — the donation spill,
    /// then the unclaimed tail of a victim part. `Ok(None)` means
    /// nothing was claimable right now; pair every `Ok(Some(..))` with a
    /// later [`ControlPlane::batch_done`].
    fn claim(
        &self,
        me: usize,
        own_batch: usize,
    ) -> Result<Option<(ClaimSource, Vec<VertexId>)>, FetchError>;

    /// Retires one of `me`'s claimed batches (fully processed).
    fn batch_done(&self, me: usize);

    /// Adds never-started level-0 roots from `donor` to the shared
    /// spill, claimable by any part.
    fn donate(&self, donor: usize, roots: Vec<VertexId>);

    /// Marks `me` as idle-and-polling (or no longer so); loaded parts
    /// consult the count to decide whether donating is worthwhile.
    fn set_starving(&self, me: usize, on: bool);

    /// Number of parts currently starving, as observed by `me`.
    fn starving(&self, me: usize) -> usize;

    /// Global termination check for a part that found nothing to claim.
    fn finished(&self, me: usize) -> Result<bool, FetchError>;

    /// Parks `me` briefly until another part may have retired a batch or
    /// donated work; timed, so callers re-check stop flags regardless.
    fn wait_for_work(&self, me: usize);

    /// Reconstructs the exact multiset of roots whose results died with
    /// the `dead` parts (claim log minus donate log, plus unclaimed
    /// cursor tails, plus the orphaned spill). Called by the engine's
    /// recovery pass once no part is claiming anymore.
    fn lost_roots(&self, dead: &[usize]) -> Result<Vec<VertexId>, FetchError>;

    /// A coarse point-in-time state snapshot for incident bundles:
    /// per-part cursor remainders, spill depth, starvation, and
    /// quiescence. Must be safe to call from a watchdog thread while
    /// parts are mid-claim — a torn-but-plausible summary beats blocking
    /// the protocol. The default is a degraded "nothing observable"
    /// summary for carriers whose state lives behind a responder thread.
    fn state_summary(&self) -> LedgerStateSummary {
        LedgerStateSummary::default()
    }
}

/// What [`ControlPlane::state_summary`] reports into an incident bundle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct LedgerStateSummary {
    /// Carrier name (`"shared"` or `"msg"`; empty for the default).
    pub carrier: &'static str,
    /// Whether the fields below were actually observed (`false` means a
    /// degraded summary: the carrier cannot inspect its state cheaply).
    pub available: bool,
    /// Whether the work counter was quiescent (no outstanding batches).
    pub quiescent: bool,
    /// Parts currently idle-and-polling.
    pub starving: u64,
    /// Donated roots sitting unclaimed in the spill.
    pub spill_len: u64,
    /// Unclaimed roots left on each part's cursor, indexed by part.
    pub per_part_remaining: Vec<u64>,
    /// The poison of a message carrier that lost a fire-and-forget
    /// operation, if any.
    pub poisoned: Option<String>,
}

struct PartCursor {
    part: Arc<GraphPart>,
    /// Next unclaimed index into `part.owned()`. May overshoot the length
    /// after racing claims; overshoot is saturated on read.
    next: AtomicUsize,
}

/// Run-scoped coordinator for cross-part root stealing and termination.
///
/// Every part claims its root work from here in bounded batches instead of
/// walking a private cursor. Each claimed batch registers one unit on the
/// [`WorkCounter`]; the claimant retires it once its chunk stack has fully
/// drained. A part with nothing left to claim is *finished* only when the
/// counter is quiescent, every cursor is exhausted, and the spill is empty
/// — otherwise it parks briefly and retries, because a loaded part may
/// still donate work.
///
/// Early-exit race: a claimant moves a cursor (or empties the spill)
/// *before* registering its counter unit, so a concurrent [`finished`]
/// observer can see "all drained" while that batch is still being seeded.
/// This is benign for correctness — claimed work is never dropped, and the
/// engine still joins every part — the observer merely stops helping a
/// little early. The converse (reporting unfinished forever) cannot
/// happen: counter units strictly outlive their batch's processing.
///
/// [`finished`]: RootLedger::finished
pub(crate) struct RootLedger {
    parts: Vec<PartCursor>,
    /// Per-part *placed* roots: recovery work assigned to a specific
    /// part by the load-weighted placement pass. Served after the
    /// part's own cursor (which a placed-recovery ledger starts
    /// exhausted) and stealable through the same victim path as cursor
    /// tails, so a placement that turns out lopsided still self-heals.
    placed: Vec<Mutex<Vec<VertexId>>>,
    /// Donated level-0 root ranges, claimable by any part.
    spill: Mutex<Vec<VertexId>>,
    /// Per-part multiset of every root the part has claimed (own, spill,
    /// or stolen). Together with `donate_log` this reconstructs exactly
    /// which roots a fail-stop part took to its grave: its claims, minus
    /// what it donated back, were executed (if at all) only by the dead
    /// part, whose partial results the engine discards wholesale.
    claim_log: Vec<Mutex<Vec<VertexId>>>,
    /// Per-part multiset of every root the part donated to the spill.
    donate_log: Vec<Mutex<Vec<VertexId>>>,
    wc: WorkCounter,
    /// Number of parts currently idle and polling for work; loaded parts
    /// consult this to decide whether donating is worthwhile.
    starving: AtomicUsize,
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
    stealing: bool,
    batch: usize,
    /// `Some(sockets_per_machine)` enables NUMA-aware victim ordering:
    /// thieves prefer same-machine victims before crossing the network.
    numa: Option<usize>,
}

/// The shared-memory implementation of [`ControlPlane`]: the original
/// atomics-and-condvar [`RootLedger`], now one carrier behind the trait.
pub(crate) type SharedLedger = RootLedger;

impl RootLedger {
    pub(crate) fn new(
        parts: Vec<Arc<GraphPart>>,
        stealing: bool,
        batch: usize,
        numa: Option<usize>,
    ) -> RootLedger {
        let n = parts.len();
        RootLedger {
            parts: parts
                .into_iter()
                .map(|part| PartCursor { part, next: AtomicUsize::new(0) })
                .collect(),
            placed: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
            spill: Mutex::new(Vec::new()),
            claim_log: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
            donate_log: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
            wc: WorkCounter::new(),
            starving: AtomicUsize::new(0),
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
            stealing,
            batch: batch.max(1),
            numa: numa.map(|spm| spm.max(1)),
        }
    }

    pub(crate) fn stealing(&self) -> bool {
        self.stealing
    }

    /// Whether `p` sits on the same simulated machine as `me` under the
    /// configured NUMA ordering; always `false` with NUMA ordering off,
    /// which collapses victim selection back to flat most-loaded.
    fn same_machine(&self, me: usize, p: usize) -> bool {
        match self.numa {
            Some(spm) => p / spm == me / spm,
            None => false,
        }
    }

    /// Claims the next batch of roots for `me`: own cursor first (up to
    /// `own_batch` roots), then — with stealing enabled — the donation
    /// spill, then the unclaimed tail of the most-loaded other part.
    /// Registers one work unit per returned batch; pair every `Some` with
    /// a later [`RootLedger::batch_done`].
    pub(crate) fn claim(
        &self,
        me: usize,
        own_batch: usize,
    ) -> Option<(ClaimSource, Vec<VertexId>)> {
        if let Some(roots) = self.claim_range(me, own_batch) {
            self.wc.add(1);
            self.claim_log[me].lock().extend_from_slice(&roots);
            return Some((ClaimSource::Own, roots));
        }
        if !self.stealing {
            return None;
        }
        {
            let mut spill = self.spill.lock();
            if !spill.is_empty() {
                let take = self.batch.min(spill.len());
                let at = spill.len() - take;
                let roots = spill.split_off(at);
                self.wc.add(1);
                self.claim_log[me].lock().extend_from_slice(&roots);
                return Some((ClaimSource::Spill, roots));
            }
        }
        loop {
            // Victim order: with NUMA ordering on, the most-loaded part
            // of the thief's own machine beats any cross-machine part —
            // stolen roots resolve their edge lists over the fabric, so
            // keeping the victim local keeps that traffic off the
            // simulated network (§5.4). Ties fall back to most-loaded.
            let victim = (0..self.parts.len())
                .filter(|&p| p != me && self.remaining(p) > 0)
                .max_by_key(|&p| (self.same_machine(me, p), self.remaining(p)))?;
            if let Some(roots) = self.claim_range(victim, self.batch) {
                self.wc.add(1);
                self.claim_log[me].lock().extend_from_slice(&roots);
                return Some((ClaimSource::Stolen(victim), roots));
            }
            // Lost the race on that victim's last range; look again.
        }
    }

    /// Retires one claimed batch (its embeddings are fully processed) and
    /// wakes idle parts so they re-check for termination.
    pub(crate) fn batch_done(&self) {
        self.wc.done();
        self.idle_cv.notify_all();
    }

    /// Adds never-started level-0 roots from `donor` to the shared spill.
    /// The donor's own batch unit still covers them until a claimant
    /// re-registers them, and [`RootLedger::finished`] checks the spill
    /// directly, so no donated root can be dropped.
    pub(crate) fn donate(&self, donor: usize, mut roots: Vec<VertexId>) {
        if roots.is_empty() {
            return;
        }
        self.donate_log[donor].lock().extend_from_slice(&roots);
        self.spill.lock().append(&mut roots);
        self.idle_cv.notify_all();
    }

    pub(crate) fn set_starving(&self, on: bool) {
        if on {
            self.starving.fetch_add(1, Ordering::Relaxed);
        } else {
            self.starving.fetch_sub(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn starving(&self) -> usize {
        self.starving.load(Ordering::Relaxed)
    }

    /// Global termination check for a part that found nothing to claim.
    ///
    /// Order matters: the work counter is read *first* (its `Acquire` load
    /// pairs with the `Release` in `done()`), then the cursors, then the
    /// spill. Seeing the counter at zero first means every retired batch's
    /// effects are visible; any work added afterwards would re-populate a
    /// cursor or the spill, which are checked later and would flip the
    /// verdict back to "not finished".
    pub(crate) fn finished(&self) -> bool {
        if !self.wc.is_quiescent() {
            return false;
        }
        if (0..self.parts.len()).any(|p| self.remaining(p) > 0) {
            return false;
        }
        self.spill.lock().is_empty()
    }

    /// Parks briefly until another part retires a batch or donates work.
    /// The wait is timed so callers re-check stop flags and termination
    /// even if a notification slips by.
    pub(crate) fn wait_for_work(&self) {
        let mut guard = self.idle_lock.lock();
        let _ = self.idle_cv.wait_for(&mut guard, Duration::from_millis(1));
    }

    /// Unclaimed roots left on `part`: its cursor tail plus whatever
    /// sits on its placed queue.
    pub(crate) fn remaining(&self, part: usize) -> usize {
        let pc = &self.parts[part];
        // Relaxed everywhere on the cursor: it only partitions an
        // immutable, Arc-shared slice — no claimant-written payload hangs
        // off it, so there is nothing for stronger orderings to publish.
        pc.part.owned().len().saturating_sub(pc.next.load(Ordering::Relaxed))
            + self.placed[part].lock().len()
    }

    fn claim_range(&self, part: usize, n: usize) -> Option<Vec<VertexId>> {
        if n == 0 {
            return None;
        }
        let pc = &self.parts[part];
        let owned = pc.part.owned();
        if pc.next.load(Ordering::Relaxed) < owned.len() {
            let start = pc.next.fetch_add(n, Ordering::Relaxed);
            if start < owned.len() {
                let end = (start + n).min(owned.len());
                return Some(owned[start..end].to_vec());
            }
        }
        // Cursor exhausted: serve the part's placed queue (recovery
        // work assigned by the load-weighted placement pass). The lock
        // makes a placed root land in exactly one claim.
        let mut placed = self.placed[part].lock();
        if placed.is_empty() {
            return None;
        }
        let take = n.min(placed.len());
        Some(placed.drain(..take).collect())
    }

    // -- fail-stop recovery ------------------------------------------------

    /// Drains and returns the unclaimed tail of `part`'s cursor. The
    /// drain uses the same atomic cursor as [`claim`], so every root
    /// lands in exactly one of: a claimant's batch (and its
    /// `claim_log`) or this return value — never both, never neither.
    ///
    /// [`claim`]: RootLedger::claim
    pub(crate) fn close_part(&self, part: usize) -> Vec<VertexId> {
        let mut out = Vec::new();
        loop {
            let n = self.remaining(part);
            if n == 0 {
                return out;
            }
            if let Some(mut roots) = self.claim_range(part, n) {
                out.append(&mut roots);
            }
        }
    }

    /// Reconstructs the exact multiset of roots whose results died with
    /// the `dead` parts, assuming no part is still claiming:
    ///
    /// * every root a dead part claimed (its partial results are
    ///   discarded wholesale), **minus** what it donated back — a
    ///   donated root's fate belongs to whoever claimed it next;
    /// * the unclaimed tail of each dead part's cursor;
    /// * whatever is left in the spill — donated by anyone, claimed by
    ///   no one (survivors may stop claiming once a failure aborts the
    ///   run).
    ///
    /// Re-executing exactly this set on the survivors reproduces the
    /// fault-free counts bit for bit.
    pub(crate) fn lost_roots(&self, dead: &[usize]) -> Vec<VertexId> {
        let mut lost = Vec::new();
        for &d in dead {
            let mut donated: std::collections::HashMap<VertexId, usize> =
                std::collections::HashMap::new();
            for &r in self.donate_log[d].lock().iter() {
                *donated.entry(r).or_insert(0) += 1;
            }
            for &r in self.claim_log[d].lock().iter() {
                match donated.get_mut(&r) {
                    Some(n) if *n > 0 => *n -= 1,
                    _ => lost.push(r),
                }
            }
            lost.append(&mut self.close_part(d));
        }
        lost.append(&mut self.spill.lock());
        lost
    }

    /// A ledger for a *placed* recovery pass: every cursor starts
    /// exhausted and each part's share of the lost roots (from
    /// [`place_recovery_roots`]) sits on its own placed queue, so
    /// recovery work lands where the placement decided instead of
    /// wherever polls the spill first. Stealing is forced on: a part
    /// that drains its share early steals the loaded parts' placed
    /// tails through the ordinary victim path, so a placement that
    /// mispredicts load still balances out.
    pub(crate) fn placed_recovery(
        parts: Vec<Arc<GraphPart>>,
        assignments: Vec<Vec<VertexId>>,
        batch: usize,
    ) -> Self {
        let ledger = RootLedger::new(parts, true, batch, None);
        for pc in &ledger.parts {
            pc.next.store(pc.part.owned().len(), Ordering::Relaxed);
        }
        for (p, roots) in assignments.into_iter().enumerate() {
            *ledger.placed[p].lock() = roots;
        }
        ledger
    }
}

/// Splits `lost` roots across the surviving parts in inverse proportion
/// to their current load — the recovery-aware placement pass. `loads`
/// is a per-part service-pressure score (the engine feeds queue depth
/// plus rerouted-fetch service volume); `dead` parts receive nothing.
/// The split is contiguous and deterministic for a given input, and the
/// union of the assignments is exactly `lost`, so counts are unaffected
/// by *where* the roots land.
pub(crate) fn place_recovery_roots(
    lost: Vec<VertexId>,
    loads: &[u64],
    dead: &[usize],
) -> Vec<Vec<VertexId>> {
    let n = loads.len();
    let mut out: Vec<Vec<VertexId>> = (0..n).map(|_| Vec::new()).collect();
    let survivors: Vec<usize> = (0..n).filter(|p| !dead.contains(p)).collect();
    if lost.is_empty() || survivors.is_empty() {
        return out;
    }
    // Capacity score: the least-loaded survivor gets the largest share;
    // +1 keeps every survivor claimable even under a uniform load.
    let max = survivors.iter().map(|&p| loads[p]).max().unwrap_or(0);
    let caps: Vec<u64> = survivors.iter().map(|&p| max - loads[p] + 1).collect();
    let total: u64 = caps.iter().sum();
    let len = lost.len() as u64;
    // Largest-remainder apportionment of `len` roots over `caps`.
    let mut counts: Vec<u64> = caps.iter().map(|&c| len * c / total).collect();
    let mut leftover = len - counts.iter().sum::<u64>();
    let mut by_rem: Vec<usize> = (0..caps.len()).collect();
    by_rem.sort_by_key(|&i| (std::cmp::Reverse(len * caps[i] % total), i));
    for &i in &by_rem {
        if leftover == 0 {
            break;
        }
        counts[i] += 1;
        leftover -= 1;
    }
    let mut rest = lost;
    for (i, &p) in survivors.iter().enumerate() {
        let take = (counts[i] as usize).min(rest.len());
        let tail = rest.split_off(take);
        out[p] = std::mem::replace(&mut rest, tail);
    }
    out
}

/// The trait carrier of the shared-memory ledger: every operation
/// forwards to the inherent method (which tests and the recovery
/// constructors keep calling directly); the fallible signatures are
/// trivially `Ok` because shared memory cannot lose a message.
impl ControlPlane for RootLedger {
    fn stealing(&self) -> bool {
        RootLedger::stealing(self)
    }

    fn claim(
        &self,
        me: usize,
        own_batch: usize,
    ) -> Result<Option<(ClaimSource, Vec<VertexId>)>, FetchError> {
        Ok(RootLedger::claim(self, me, own_batch))
    }

    fn batch_done(&self, _me: usize) {
        RootLedger::batch_done(self)
    }

    fn donate(&self, donor: usize, roots: Vec<VertexId>) {
        RootLedger::donate(self, donor, roots)
    }

    fn set_starving(&self, _me: usize, on: bool) {
        RootLedger::set_starving(self, on)
    }

    fn starving(&self, _me: usize) -> usize {
        RootLedger::starving(self)
    }

    fn finished(&self, _me: usize) -> Result<bool, FetchError> {
        Ok(RootLedger::finished(self))
    }

    fn wait_for_work(&self, _me: usize) {
        RootLedger::wait_for_work(self)
    }

    fn lost_roots(&self, dead: &[usize]) -> Result<Vec<VertexId>, FetchError> {
        Ok(RootLedger::lost_roots(self, dead))
    }

    fn state_summary(&self) -> LedgerStateSummary {
        LedgerStateSummary {
            carrier: "shared",
            available: true,
            quiescent: self.wc.is_quiescent(),
            starving: RootLedger::starving(self) as u64,
            spill_len: self.spill.lock().len() as u64,
            per_part_remaining: (0..self.parts.len()).map(|p| self.remaining(p) as u64).collect(),
            poisoned: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Cross-query fairness arbiter
// ---------------------------------------------------------------------------

/// Pacing coordinator for concurrent queries sharing one worker pool.
///
/// Each active query registers itself and bumps its counter for every
/// root it claims from its own [`RootLedger`]. Before claiming, a part
/// coordinator calls [`QueryArbiter::pace`]: a query that has raced more
/// than `budget` roots ahead of the *least served* active query parks
/// briefly, yielding the part's compute threads to the straggler. The
/// least-served query never waits, so some query always makes progress,
/// and the waits are timed, so a stalled straggler (e.g. blocked on a
/// fetch) cannot wedge the rest of the service.
///
/// The budget is a fairness quantum only — it delays claims, it never
/// truncates them, so per-query counts stay bit-identical to solo runs.
#[derive(Debug, Default)]
pub struct QueryArbiter {
    active: Mutex<std::collections::HashMap<u64, Arc<std::sync::atomic::AtomicU64>>>,
    cv: Condvar,
}

impl QueryArbiter {
    /// Creates an arbiter with no registered queries.
    pub fn new() -> QueryArbiter {
        QueryArbiter::default()
    }

    /// Registers `query` as active with zero claimed roots.
    pub fn register(&self, query: u64) {
        self.active.lock().insert(query, Arc::new(std::sync::atomic::AtomicU64::new(0)));
    }

    /// Removes `query` and wakes paced peers (the minimum may have risen).
    pub fn deregister(&self, query: u64) {
        self.active.lock().remove(&query);
        self.cv.notify_all();
    }

    /// Records `n` roots claimed by `query` and wakes paced peers.
    pub fn note_claimed(&self, query: u64, n: u64) {
        let counter = self.active.lock().get(&query).map(Arc::clone);
        if let Some(c) = counter {
            c.fetch_add(n, Ordering::Relaxed);
            self.cv.notify_all();
        }
    }

    /// Blocks (briefly, in timed slices) while `query` is more than
    /// `budget` claimed roots ahead of the least-served active query.
    pub fn pace(&self, query: u64, budget: u64) {
        let mut active = self.active.lock();
        loop {
            let Some(mine) = active.get(&query).map(|c| c.load(Ordering::Relaxed)) else {
                return;
            };
            let min = active.values().map(|c| c.load(Ordering::Relaxed)).min().unwrap_or(0);
            if mine <= min.saturating_add(budget) {
                return;
            }
            let _ = self.cv.wait_for(&mut active, Duration::from_micros(200));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_graph::gen;
    use gpm_graph::partition::PartitionedGraph;

    fn depth() -> Arc<AtomicUsize> {
        Arc::new(AtomicUsize::new(0))
    }

    #[test]
    fn task_split_head_partitions_the_range() {
        let t = Task::Fresh { start: 10, end: 30 };
        let (head, tail) = t.split_head(8);
        assert_eq!(head, Task::Fresh { start: 10, end: 18 });
        assert_eq!(tail, Some(Task::Fresh { start: 18, end: 30 }));
        let (head, tail) = Task::Resumes { start: 0, end: 5 }.split_head(8);
        assert_eq!(head, Task::Resumes { start: 0, end: 5 });
        assert_eq!(tail, None);
    }

    #[test]
    fn claims_drain_resumes_before_fresh_work() {
        let pool = TaskPool::new(1, depth());
        pool.seed(4, &[], (0, 12), 1);
        let first = pool.claim(0, 64).expect("work seeded");
        assert_eq!(first, Task::Resumes { start: 0, end: 4 });
        let second = pool.claim(0, 64).expect("fresh range");
        assert_eq!(second, Task::Fresh { start: 0, end: 12 });
        assert!(pool.claim(0, 64).is_none());
    }

    #[test]
    fn oversized_claims_split_and_keep_the_tail_local() {
        let gauge = depth();
        let pool = TaskPool::new(2, Arc::clone(&gauge));
        pool.seed(0, &[], (0, 100), 1);
        assert_eq!(gauge.load(Ordering::Relaxed), 100);
        let head = pool.claim(0, 16).expect("head");
        assert_eq!(head.len(), 16);
        assert_eq!(gauge.load(Ordering::Relaxed), 84);
        // Worker 1 steals the tail parked on worker 0's deque.
        let stolen = pool.claim(1, 16).expect("stolen");
        assert_eq!(stolen, Task::Fresh { start: 16, end: 32 });
    }

    #[test]
    fn give_back_restores_depth_and_is_drained() {
        let gauge = depth();
        let pool = TaskPool::new(1, Arc::clone(&gauge));
        pool.seed(0, &[(5, 9)], (20, 24), 1);
        let t = pool.claim(0, 64).expect("leftover range first");
        assert_eq!(t, Task::Fresh { start: 5, end: 9 });
        pool.give_back(0, Task::Fresh { start: 7, end: 9 });
        assert_eq!(gauge.load(Ordering::Relaxed), 6);
        let mut rest = pool.drain();
        rest.sort_by_key(|t| t.len());
        assert_eq!(
            rest,
            vec![Task::Fresh { start: 7, end: 9 }, Task::Fresh { start: 20, end: 24 }]
        );
    }

    fn ledger(stealing: bool) -> RootLedger {
        let g = gen::erdos_renyi(64, 128, 9);
        let pg = PartitionedGraph::new(&g, 4, 1);
        let parts = (0..pg.part_count()).map(|p| pg.part_arc(p)).collect();
        RootLedger::new(parts, stealing, 8, None)
    }

    #[test]
    fn own_claims_walk_the_cursor_and_quiesce() {
        let ledger = ledger(false);
        let total = ledger.remaining(0);
        let mut seen = 0;
        while let Some((src, roots)) = ledger.claim(0, 10) {
            assert_eq!(src, ClaimSource::Own);
            seen += roots.len();
            ledger.batch_done();
        }
        assert_eq!(seen, total);
        assert_eq!(ledger.remaining(0), 0);
        // Stealing disabled: other parts' roots are out of reach.
        assert!(ledger.claim(0, 10).is_none());
        assert!(ledger.remaining(1) > 0);
    }

    #[test]
    fn steals_target_the_most_loaded_part() {
        let ledger = ledger(true);
        // Drain part 0's own roots in one oversized claim.
        let (src, _) = ledger.claim(0, usize::MAX).expect("own roots first");
        assert_eq!(src, ClaimSource::Own);
        ledger.batch_done();
        let before: Vec<usize> = (0..4).map(|p| ledger.remaining(p)).collect();
        let loaded = (1..4).max_by_key(|&p| before[p]).unwrap();
        let (src, roots) = ledger.claim(0, 10).expect("steal succeeds");
        assert_eq!(src, ClaimSource::Stolen(loaded));
        assert!(!roots.is_empty() && roots.len() <= 8);
        ledger.batch_done();
    }

    #[test]
    fn numa_victim_ordering_prefers_same_machine_parts() {
        // 2 machines x 2 sockets: parts {0, 1} share machine 0, parts
        // {2, 3} share machine 1 (part = machine * spm + socket).
        let g = gen::erdos_renyi(64, 128, 9);
        let pg = PartitionedGraph::new(&g, 2, 2);
        let mk = |numa: Option<usize>| {
            let parts = (0..pg.part_count()).map(|p| pg.part_arc(p)).collect();
            RootLedger::new(parts, true, 4, numa)
        };
        let shape = |ledger: &RootLedger| {
            // Drain part 0's own roots and most of its machine-mate's,
            // leaving part 1 lighter than both cross-machine parts.
            while ledger.claim_range(0, 16).is_some() {}
            let keep = 2;
            let n1 = ledger.remaining(1);
            assert!(ledger.claim_range(1, n1 - keep).is_some());
            assert!(ledger.remaining(1) < ledger.remaining(2));
            assert!(ledger.remaining(1) < ledger.remaining(3));
        };
        // Flat ordering steals from the most-loaded part anywhere.
        let flat = mk(None);
        shape(&flat);
        let loaded = (1..4).max_by_key(|&p| flat.remaining(p)).unwrap();
        let (src, _) = flat.claim(0, 0).expect("flat steal");
        assert_eq!(src, ClaimSource::Stolen(loaded));
        flat.batch_done();
        // NUMA ordering prefers the lighter same-machine part first.
        let numa = mk(Some(2));
        shape(&numa);
        let (src, _) = numa.claim(0, 0).expect("numa steal");
        assert_eq!(src, ClaimSource::Stolen(1));
        numa.batch_done();
        // Once the local machine is drained, it crosses to the most
        // loaded remote part like before.
        while numa.remaining(1) > 0 {
            numa.claim_range(1, 16);
        }
        let remote = (2..4).max_by_key(|&p| numa.remaining(p)).unwrap();
        let (src, _) = numa.claim(0, 0).expect("cross-machine steal");
        assert_eq!(src, ClaimSource::Stolen(remote));
        numa.batch_done();
    }

    #[test]
    fn donated_roots_block_termination_until_claimed() {
        let ledger = ledger(true);
        for p in 0..4 {
            while ledger.claim(p, usize::MAX).is_some() {
                ledger.batch_done();
            }
        }
        assert!(ledger.finished());
        ledger.donate(0, vec![1, 2, 3]);
        assert!(!ledger.finished());
        let (src, roots) = ledger.claim(2, 1).expect("spill is claimable by anyone");
        assert_eq!(src, ClaimSource::Spill);
        assert_eq!(roots.len(), 3);
        assert!(!ledger.finished(), "outstanding batch blocks termination");
        ledger.batch_done();
        assert!(ledger.finished());
    }

    #[test]
    fn close_part_drains_the_unclaimed_tail() {
        let ledger = ledger(false);
        let total = ledger.remaining(1);
        let (_, claimed) = ledger.claim(1, 3).expect("own roots");
        ledger.batch_done();
        let tail = ledger.close_part(1);
        assert_eq!(tail.len(), total - claimed.len());
        assert_eq!(ledger.remaining(1), 0);
        assert!(ledger.close_part(1).is_empty(), "close is idempotent");
        // No root is in both the claim and the tail.
        assert!(claimed.iter().all(|r| !tail.contains(r)));
    }

    #[test]
    fn lost_roots_reconstruct_the_dead_parts_exact_work() {
        let ledger = ledger(true);
        let total1 = ledger.remaining(1);
        // Part 1 claims two batches, donates part of the first back, and
        // then "dies". Part 0 claims the donation (it survives, so those
        // roots are its problem, not the recovery pass's).
        let (_, first) = ledger.claim(1, 4).expect("first batch");
        let (_, _second) = ledger.claim(1, 4).expect("second batch");
        ledger.donate(1, first[..2].to_vec());
        let (src, adopted) = ledger.claim(0, 0).expect("spill claim");
        assert_eq!(src, ClaimSource::Spill);
        assert_eq!(adopted.len(), 2);
        let mut lost = ledger.lost_roots(&[1]);
        // Lost = claimed (8) − donated (2) + unclaimed tail; the two
        // donated-and-adopted roots are excluded.
        assert_eq!(lost.len(), 8 - 2 + (total1 - 8));
        assert!(adopted.iter().all(|r| !lost.contains(r)));
        // Together, part 0's adoption and the lost set cover part 1's
        // owned roots exactly once each.
        lost.extend(adopted);
        lost.sort_unstable();
        let g = gen::erdos_renyi(64, 128, 9);
        let pg = PartitionedGraph::new(&g, 4, 1);
        let mut owned1 = pg.part(1).owned().to_vec();
        owned1.sort_unstable();
        assert_eq!(lost, owned1);
    }

    #[test]
    fn unclaimed_donations_are_lost_roots_even_from_survivors() {
        let ledger = ledger(true);
        let (_, mine) = ledger.claim(0, 4).expect("own roots");
        ledger.donate(0, mine[..3].to_vec());
        // Nobody claims the donation before the run aborts: the roots
        // must surface as lost even though part 0 survived.
        let lost = ledger.lost_roots(&[2]);
        for &r in &mine[..3] {
            assert!(lost.contains(&r), "unclaimed donation {r} dropped");
        }
    }

    #[test]
    fn placed_recovery_serves_shares_locally_and_steals_the_rest() {
        let g = gen::erdos_renyi(64, 128, 9);
        let pg = PartitionedGraph::new(&g, 4, 1);
        let parts: Vec<_> = (0..4).map(|p| pg.part_arc(p)).collect();
        let assignments = vec![vec![10, 11, 12], Vec::new(), vec![20], Vec::new()];
        let ledger = RootLedger::placed_recovery(parts, assignments, 8);
        assert!(ledger.stealing(), "placed recovery forces stealing on");
        assert_eq!(ledger.remaining(0), 3);
        assert_eq!(ledger.remaining(1), 0);
        // A part's placed share claims as its own work.
        let (src, roots) = ledger.claim(0, 8).expect("placed share");
        assert_eq!(src, ClaimSource::Own);
        assert_eq!(roots, vec![10, 11, 12]);
        // An empty-handed part steals a loaded part's placed tail.
        let (src, roots) = ledger.claim(1, 8).expect("steal placed work");
        assert_eq!(src, ClaimSource::Stolen(2));
        assert_eq!(roots, vec![20]);
        assert!(!ledger.finished(), "outstanding batches");
        ledger.batch_done();
        ledger.batch_done();
        assert!(ledger.finished());
        // lost_roots over a placed ledger still reconstructs exactly.
        assert!(ledger.claim(3, 8).is_none());
    }

    #[test]
    fn placement_gives_the_loaded_survivor_fewer_recovery_roots() {
        let lost: Vec<VertexId> = (0..100).collect();
        // Part 1 is busy serving rerouted fetches; part 3 is dead.
        let loads = [0u64, 900, 0, 5];
        let out = place_recovery_roots(lost.clone(), &loads, &[3]);
        assert_eq!(out.len(), 4);
        assert!(out[3].is_empty(), "dead parts receive nothing");
        assert!(
            out[1].len() < out[0].len() && out[1].len() < out[2].len(),
            "loaded survivor must receive fewer roots: {:?}",
            out.iter().map(|v| v.len()).collect::<Vec<_>>()
        );
        // The union of the shares is exactly the lost multiset, in order.
        let union: Vec<VertexId> = out.into_iter().flatten().collect();
        assert_eq!(union, lost);
    }

    #[test]
    fn placement_handles_degenerate_inputs() {
        // Uniform load: shares split evenly.
        let out = place_recovery_roots((0..9).collect(), &[7, 7, 7], &[]);
        assert_eq!(out.iter().map(|v| v.len()).collect::<Vec<_>>(), vec![3, 3, 3]);
        // No lost roots / no survivors: everything empty.
        assert!(place_recovery_roots(Vec::new(), &[1, 2], &[]).iter().all(|v| v.is_empty()));
        assert!(place_recovery_roots(vec![1, 2], &[1, 2], &[0, 1]).iter().all(|v| v.is_empty()));
    }

    #[test]
    fn pool_runs_phases_and_propagates_panics() {
        let rec = Recorder::disabled();
        let pool = WorkerPool::new(2, 3, &rec);
        assert_eq!(pool.thread_names().len(), 6);
        let hits = AtomicUsize::new(0);
        let gate = pool.gate(1);
        gate.run_phase(3, &|w| {
            assert!(w < 3);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 3);
        gate.run_phase(3, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 6);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.gate(0).run_phase(3, &|w| {
                if w == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(caught.is_err(), "worker panic surfaces on the coordinator");
        // The pool survives a panicked phase.
        pool.gate(0).run_phase(3, &|_| {});
    }

    #[test]
    fn concurrent_dispatchers_serialize_on_one_gate() {
        // Two "queries" hammer the same part's gate from separate threads;
        // every phase must run to completion without overlap or lost work.
        let rec = Recorder::disabled();
        let pool = WorkerPool::new(1, 2, &rec);
        let gate = pool.gate(0);
        let hits = Arc::new(AtomicUsize::new(0));
        let in_phase = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..2 {
                let gate = Arc::clone(&gate);
                let hits = Arc::clone(&hits);
                let in_phase = Arc::clone(&in_phase);
                s.spawn(move || {
                    for _ in 0..50 {
                        gate.run_phase(2, &|_| {
                            let n = in_phase.fetch_add(1, Ordering::SeqCst);
                            assert!(n < 2, "two phases overlapped on one gate");
                            hits.fetch_add(1, Ordering::SeqCst);
                            in_phase.fetch_sub(1, Ordering::SeqCst);
                        });
                    }
                });
            }
        });
        assert_eq!(hits.load(Ordering::SeqCst), 2 * 50 * 2);
    }

    #[test]
    fn arbiter_paces_the_leader_but_never_the_minimum() {
        let arb = QueryArbiter::new();
        arb.register(1);
        arb.register(2);
        arb.note_claimed(1, 100);
        // Query 2 is the minimum: pace returns immediately.
        let t0 = std::time::Instant::now();
        arb.pace(2, 8);
        assert!(t0.elapsed() < Duration::from_millis(50));
        // Query 1 is 100 ahead with budget 8: it parks until query 2
        // catches up (done here from another thread).
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(10));
                arb.note_claimed(2, 95);
            });
            arb.pace(1, 8);
        });
        // Deregistering the straggler lifts the brake entirely.
        arb.note_claimed(2, 1);
        arb.deregister(2);
        arb.pace(1, 0);
        // Unregistered queries are never paced.
        arb.pace(99, 0);
    }
}
