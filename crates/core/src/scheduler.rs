//! The layered scheduler underneath per-part execution.
//!
//! Two pieces, bottom-up:
//!
//! 1. [`WorkerPool`] — one persistent pool of compute threads per engine
//!    (`parts × compute_threads`), created lazily on the first run and
//!    parked on a condvar between extend phases. This replaces the old
//!    per-extend-phase `crossbeam::thread::scope` spawn storm: a phase is
//!    dispatched to the already-running threads through a [`Gate`].
//! 2. [`TaskPool`] — the explicit task model of one extend phase. A
//!    [`Task`] is a claimable range of the chunk's embedding cursor (or of
//!    its resume list); coarse tasks are seeded into a per-part injector
//!    queue, workers split [`MINI_BATCH`]-sized heads off them, keep the
//!    remainder in their own LIFO deque, and steal from sibling deques
//!    when both their deque and the injector run dry.
//!
//! Above them, cross-part stealing and termination run through the root
//! ledger in [`crate::control`]; what lives here is its configuration
//! ([`StealConfig`]), the placement of recovery roots, and the engine's
//! registry of live queries, which paces them against each other
//! (`LiveQueries`).

use gpm_graph::VertexId;
use gpm_obs::{QueryProgress, Recorder, SpanKind};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

/// Work-claim granularity for the dynamic distribution of extensions:
/// the paper's 64-embedding mini-batches (§6).
pub(crate) const MINI_BATCH: usize = 64;

/// Cross-part work-stealing knobs (`Engine` level).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StealConfig {
    /// Whether idle parts may steal unclaimed root ranges (and donated
    /// level-0 ranges) from loaded parts. Off by default: stealing trades
    /// extra cross-part fetch traffic for balance, which ablations must
    /// opt into explicitly.
    pub enabled: bool,
    /// The smallest grant: with stealing on the ledger sizes every claim
    /// — own range, spill or steal — as `1 / (2 × parts)` of what the
    /// source still holds, never fewer than this many roots while that
    /// many are left and never more than `chunk_capacity`. It sets how
    /// finely the tail of a run is balanced; the bulk goes out in large
    /// grants whatever it is.
    pub batch: usize,
}

impl Default for StealConfig {
    fn default() -> Self {
        StealConfig { enabled: false, batch: 256 }
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
        rec.span(0, SpanKind::Park, part, parked_at, w as u64, 0);
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
/// range tasks, so the lock is taken once per [`MINI_BATCH`], not per
/// embedding.
pub(crate) struct TaskPool {
    injector: Mutex<VecDeque<Task>>,
    deques: Vec<Mutex<VecDeque<Task>>>,
}

impl TaskPool {
    pub(crate) fn new(workers: usize) -> TaskPool {
        TaskPool {
            injector: Mutex::new(VecDeque::new()),
            deques: (0..workers.max(1)).map(|_| Mutex::new(VecDeque::new())).collect(),
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
        Some(head)
    }

    /// Returns the unprocessed remainder of a claimed task (chunk filled
    /// or the run was stopped mid-batch).
    pub(crate) fn give_back(&self, w: usize, task: Task) {
        if task.len() == 0 {
            return;
        }
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
// Recovery placement
// ---------------------------------------------------------------------------

/// Splits `lost` roots across the surviving parts in inverse proportion
/// to their current load — the recovery-aware placement pass. `loads`
/// is a per-part service-pressure score (the engine feeds the
/// rerouted-fetch service volume); `dead` parts receive nothing.
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

// ---------------------------------------------------------------------------
// Live queries and cross-query fairness
// ---------------------------------------------------------------------------

/// The engine's one registry of in-flight queries: each run's
/// [`QueryProgress`] tracker, by query id, from admission until its guard
/// drops, plus the condvar paced coordinators park on.
///
/// Pacing reads the trackers' claimed-root counts. Before claiming, a part
/// coordinator calls [`LiveQueries::pace`]: a query that has raced more
/// than `budget` roots ahead of the *least served* live query parks
/// briefly, yielding the part's compute threads to the straggler. The
/// least-served query never waits, so some query always makes progress,
/// and the waits are timed, so a stalled straggler (e.g. blocked on a
/// fetch) cannot wedge the rest of the service.
///
/// The budget is a fairness quantum only — it delays claims, it never
/// truncates them, so per-query counts stay bit-identical to solo runs.
#[derive(Debug, Default)]
pub(crate) struct LiveQueries {
    map: Mutex<HashMap<u64, Arc<QueryProgress>>>,
    cv: Condvar,
}

impl LiveQueries {
    /// Registers a run's tracker for the duration of the run.
    pub(crate) fn admit(&self, progress: Arc<QueryProgress>) {
        self.map.lock().insert(progress.query_id(), progress);
    }

    /// Removes `query`'s tracker and wakes paced peers (the minimum may
    /// have risen).
    pub(crate) fn leave(&self, query: u64) -> Option<Arc<QueryProgress>> {
        let gone = self.map.lock().remove(&query);
        self.cv.notify_all();
        gone
    }

    /// Records `n` roots claimed by `part` on `progress` and wakes paced
    /// peers.
    pub(crate) fn record_claimed(
        &self,
        progress: &QueryProgress,
        part: usize,
        n: u64,
        stolen: bool,
    ) {
        progress.record_claimed(part, n, stolen);
        self.cv.notify_all();
    }

    /// Number of queries in flight.
    pub(crate) fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// The live trackers, unordered.
    pub(crate) fn trackers(&self) -> Vec<Arc<QueryProgress>> {
        self.map.lock().values().cloned().collect()
    }

    /// Blocks (briefly, in timed slices) while `query` is more than
    /// `budget` claimed roots ahead of the least-served live query.
    pub(crate) fn pace(&self, query: u64, budget: u64) {
        let mut live = self.map.lock();
        loop {
            let Some(mine) = live.get(&query).map(|p| p.claimed()) else {
                return;
            };
            let min = live.values().map(|p| p.claimed()).min().unwrap_or(0);
            if mine <= min.saturating_add(budget) {
                return;
            }
            let _ = self.cv.wait_for(&mut live, Duration::from_micros(200));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
        let pool = TaskPool::new(1);
        pool.seed(4, &[], (0, 12), 1);
        let first = pool.claim(0, 64).expect("work seeded");
        assert_eq!(first, Task::Resumes { start: 0, end: 4 });
        let second = pool.claim(0, 64).expect("fresh range");
        assert_eq!(second, Task::Fresh { start: 0, end: 12 });
        assert!(pool.claim(0, 64).is_none());
    }

    #[test]
    fn oversized_claims_split_and_keep_the_tail_local() {
        let pool = TaskPool::new(2);
        pool.seed(0, &[], (0, 100), 1);
        let head = pool.claim(0, 16).expect("head");
        assert_eq!(head.len(), 16);
        // Worker 1 steals the tail parked on worker 0's deque.
        let stolen = pool.claim(1, 16).expect("stolen");
        assert_eq!(stolen, Task::Fresh { start: 16, end: 32 });
    }

    #[test]
    fn given_back_work_is_drained() {
        let pool = TaskPool::new(1);
        pool.seed(0, &[(5, 9)], (20, 24), 1);
        let t = pool.claim(0, 64).expect("leftover range first");
        assert_eq!(t, Task::Fresh { start: 5, end: 9 });
        pool.give_back(0, Task::Fresh { start: 7, end: 9 });
        let mut rest = pool.drain();
        rest.sort_by_key(|t| t.len());
        assert_eq!(
            rest,
            vec![Task::Fresh { start: 7, end: 9 }, Task::Fresh { start: 20, end: 24 }]
        );
    }

    /// Every seeded embedding is claimed or drained exactly once, however
    /// the claims split, steal and hand work back.
    #[test]
    fn claims_and_drain_cover_the_seed_exactly_once() {
        let pool = TaskPool::new(3);
        pool.seed(10, &[(40, 57)], (100, 230), 4);
        let (mut resumes, mut fresh) = (vec![0u32; 10], vec![0u32; 230]);
        let mut mark = |t: Task| match t {
            Task::Resumes { start, end } => (start..end).for_each(|i| resumes[i as usize] += 1),
            Task::Fresh { start, end } => (start..end).for_each(|i| fresh[i as usize] += 1),
        };
        for w in 0..20 {
            let Some(t) = pool.claim(w % 3, 7) else { break };
            // Every fifth claimant processes two and hands the rest back.
            let (head, tail) = if w % 5 == 4 { t.split_head(2) } else { (t, None) };
            mark(head);
            if let Some(tail) = tail {
                pool.give_back(w % 3, tail);
            }
        }
        pool.drain().into_iter().for_each(&mut mark);
        assert_eq!(resumes, vec![1; 10]);
        for (i, &n) in fresh.iter().enumerate() {
            let seeded = (40..57).contains(&i) || (100..230).contains(&i);
            assert_eq!(n, u32::from(seeded), "fresh embedding {i}");
        }
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
        let live = LiveQueries::default();
        let tracker = |q| Arc::new(QueryProgress::new(q, 1000, 1));
        let (leader, straggler) = (tracker(1), tracker(2));
        live.admit(Arc::clone(&leader));
        live.admit(Arc::clone(&straggler));
        live.record_claimed(&leader, 0, 100, false);
        // Query 2 is the minimum: pace returns immediately.
        let t0 = std::time::Instant::now();
        live.pace(2, 8);
        assert!(t0.elapsed() < Duration::from_millis(50));
        // Query 1 is 100 ahead with budget 8: it parks until query 2's
        // tracker records enough claims (done here from another thread).
        let released = AtomicUsize::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                assert_eq!(released.load(Ordering::SeqCst), 0, "the leader did not wait");
                live.record_claimed(&straggler, 0, 95, false);
            });
            live.pace(1, 8);
            released.store(1, Ordering::SeqCst);
        });
        assert!(straggler.claimed() + 8 >= leader.claimed());
        // The straggler's tracker leaving lifts the brake as well.
        live.record_claimed(&leader, 0, 100, false);
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                assert_eq!(released.load(Ordering::SeqCst), 1, "the leader did not wait");
                assert!(Arc::ptr_eq(&live.leave(2).unwrap(), &straggler));
            });
            live.pace(1, 0);
            released.store(2, Ordering::SeqCst);
        });
        assert_eq!(live.len(), 1);
        // Queries with no live tracker are never paced.
        live.pace(99, 0);
    }
}
