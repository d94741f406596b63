//! The resident multi-tenant mining service: first-class queries over
//! one shared [`Engine`].
//!
//! `Engine::count` is one-shot: the caller owns the run from admission
//! to report. [`MiningService`] instead keeps the engine resident and
//! treats each submission as a *query* — admitted FIFO under a
//! concurrency cap, executed on the engine's shared worker pool and
//! fabric with its own query-scoped ledger, traffic accounting, and
//! failure recovery, and reported as one `queries[]` section of a
//! schema-v4 aggregate [`RunReport`].
//!
//! Identical submissions (same pattern up to isomorphism, same graph,
//! same plan options) are **memoized**: the duplicate never claims a
//! root — it shares the original's result slot, waiting on it if the
//! original is still in flight. Failed runs are evicted from the memo so
//! a resubmission retries instead of replaying the error forever.

use crate::engine::{Engine, EngineError, QueryCtx, DEFAULT_ROOT_BUDGET};
use crate::incident::{counter_snapshot, CaptureSections, Trigger};
use crate::stats::RunStats;
use gpm_cluster::Counter;
use gpm_obs::{QueryReport, RunReport, TriggerKind};
use gpm_pattern::iso::canonical_code;
use gpm_pattern::plan::{MatchingPlan, PlanOptions};
use gpm_pattern::Pattern;
use parking_lot::{Condvar, Mutex};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Admission and fairness knobs of a [`MiningService`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Queries executing concurrently; further admissions queue FIFO.
    pub max_concurrent: usize,
    /// Per-query fairness quantum (claimed roots a query may race ahead
    /// of the least-served active query). Delays claims, never truncates
    /// them — see [`QueryCtx::root_budget`].
    pub root_budget: u64,
    /// Serve duplicate submissions from the memo instead of
    /// re-enumerating.
    pub memoize: bool,
    /// Most memo entries retained; inserting past the cap evicts the
    /// least-recently-used entry (in-flight entries stay valid — their
    /// slots are `Arc`-shared with every waiting handle).
    pub memo_capacity: usize,
    /// Queries slower than this land in the slow-query log exposed by
    /// the status plane. `None` disables the log.
    pub slow_query: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_concurrent: 2,
            root_budget: DEFAULT_ROOT_BUDGET,
            memoize: true,
            memo_capacity: 256,
            slow_query: None,
        }
    }
}

/// Result slot shared between a query's executor and every handle (the
/// submitter's and any memoized duplicates').
#[derive(Debug)]
struct QuerySlot {
    state: Mutex<Option<Result<Arc<RunStats>, EngineError>>>,
    cv: Condvar,
}

impl QuerySlot {
    fn new() -> Arc<QuerySlot> {
        Arc::new(QuerySlot { state: Mutex::new(None), cv: Condvar::new() })
    }

    fn fulfill(&self, result: Result<Arc<RunStats>, EngineError>) {
        *self.state.lock() = Some(result);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<Arc<RunStats>, EngineError> {
        let mut st = self.state.lock();
        while st.is_none() {
            self.cv.wait(&mut st);
        }
        st.as_ref().expect("slot fulfilled").clone()
    }

    fn peek(&self) -> Option<Result<Arc<RunStats>, EngineError>> {
        self.state.lock().clone()
    }
}

/// The submitter's side of one admitted query.
#[derive(Debug)]
pub struct QueryHandle {
    query_id: u64,
    pattern: String,
    memoized: bool,
    slot: Arc<QuerySlot>,
}

impl QueryHandle {
    /// The engine-assigned query id (tags this query's spans, wire
    /// requests, and report section).
    pub fn query_id(&self) -> u64 {
        self.query_id
    }

    /// Whether this submission was served from the memo (no enumeration
    /// of its own).
    pub fn memoized(&self) -> bool {
        self.memoized
    }

    /// Display form of the pattern this query was submitted with.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// Blocks until the query completes and returns its run statistics
    /// (shared with any memoized duplicates) or the failure.
    pub fn wait(&self) -> Result<Arc<RunStats>, EngineError> {
        self.slot.wait()
    }
}

/// What one admitted query came to: recorded per query for the
/// aggregate report.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Engine-assigned query id.
    pub query_id: u64,
    /// Display form of the submitted pattern.
    pub pattern: String,
    /// Served from the memo instead of enumerated.
    pub memoized: bool,
    /// The result (shared with the memo), or the typed failure.
    pub result: Result<Arc<RunStats>, EngineError>,
    /// Wall clock from admission to completion.
    pub elapsed: Duration,
    /// Size of the root multiset this query enumerated (0 when progress
    /// tracking is off or the query was memoized).
    pub roots_total: u64,
    /// Roots retired by the time the query finished (can exceed
    /// `roots_total` after a recovery pass).
    pub roots_completed: u64,
    /// Memo entries resident when this query completed.
    pub memo_entries: u64,
    /// Cumulative LRU evictions by the time this query completed.
    pub memo_evictions: u64,
}

/// One entry of the status plane's recent completions and slow-query
/// log, both read off the service's admission history.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Completion {
    /// Engine-assigned query id.
    pub query_id: u64,
    /// Display form of the submitted pattern.
    pub pattern: String,
    /// The embedding count, `None` if the query failed.
    pub count: Option<u64>,
    /// Wall clock from admission to completion, in nanoseconds.
    pub elapsed_ns: u64,
}

/// The memo's resident entry count, cumulative hits and cumulative LRU
/// evictions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoStats {
    /// Entries resident now.
    pub entries: u64,
    /// Submissions served from the memo.
    pub hits: u64,
    /// Entries evicted by the capacity cap.
    pub evictions: u64,
}

/// A submission's identity on this service's one graph: the pattern's
/// canonical code and the plan options.
type MemoKey = (Vec<u8>, String);

/// The memo map plus its LRU clock and counters, all under one lock.
#[derive(Default)]
struct MemoState {
    map: HashMap<MemoKey, MemoEntry>,
    /// Logical clock bumped on every touch; orders entries for LRU.
    tick: u64,
    hits: u64,
    evictions: u64,
}

struct MemoEntry {
    slot: Arc<QuerySlot>,
    last_used: u64,
}

impl MemoState {
    fn touch(&mut self, key: &MemoKey) -> Option<Arc<QuerySlot>> {
        self.tick += 1;
        let tick = self.tick;
        let e = self.map.get_mut(key)?;
        e.last_used = tick;
        self.hits += 1;
        Some(Arc::clone(&e.slot))
    }

    /// Inserts under the capacity cap, evicting least-recently-used
    /// entries first. A zero capacity admits nothing.
    fn insert(&mut self, key: MemoKey, slot: Arc<QuerySlot>, capacity: usize) {
        if capacity == 0 {
            return;
        }
        while self.map.len() >= capacity {
            let Some(lru) =
                self.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone())
            else {
                break;
            };
            self.map.remove(&lru);
            self.evictions += 1;
        }
        self.tick += 1;
        self.map.insert(key, MemoEntry { slot, last_used: self.tick });
    }
}

/// One queued execution.
struct Job {
    query_id: u64,
    /// This query's entry in [`ServiceInner::admitted`].
    index: usize,
    plan: MatchingPlan,
    key: MemoKey,
    slot: Arc<QuerySlot>,
    admitted: Instant,
}

/// One admitted query. The list of these, in admission order, is the
/// service's whole history: what a query came to is its slot's result
/// plus, for one that was executed, what the executor noted in `done`.
struct Admitted {
    query_id: u64,
    pattern: String,
    memoized: bool,
    slot: Arc<QuerySlot>,
    /// Set by the executor just before it fulfills the slot. Stays `None`
    /// for a memoized duplicate, which completes with its original and
    /// spent no engine time of its own.
    done: Option<Executed>,
}

/// What the executor records about a query it ran.
#[derive(Clone, Copy, Default)]
struct Executed {
    /// Position in completion order: the executor stamps it under the
    /// `admitted` lock as it sets `done`.
    seq: u64,
    elapsed: Duration,
    roots_total: u64,
    roots_completed: u64,
    memo_entries: u64,
    memo_evictions: u64,
}

/// Most recent completions the status plane lists.
const COMPLETIONS_CAP: usize = 128;
/// Most slow-query log entries the status plane lists.
const SLOW_LOG_CAP: usize = 32;

struct ServiceInner {
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    stop: AtomicBool,
    memo: Mutex<MemoState>,
    admitted: Mutex<Vec<Admitted>>,
    /// Executed queries so far; the next one's [`Executed::seq`].
    executed: AtomicU64,
}

/// A resident multi-tenant query engine over one [`Engine`]: FIFO
/// admission with a concurrency cap, per-query fairness budgets, and
/// memoization of identical submissions.
pub struct MiningService {
    engine: Arc<Engine>,
    cfg: ServiceConfig,
    inner: Arc<ServiceInner>,
    workers: Vec<std::thread::JoinHandle<()>>,
    started: Instant,
}

impl std::fmt::Debug for MiningService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MiningService")
            .field("cfg", &self.cfg)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl MiningService {
    /// Starts `cfg.max_concurrent` resident executor threads over
    /// `engine`.
    pub fn start(engine: Arc<Engine>, cfg: ServiceConfig) -> MiningService {
        let inner = Arc::new(ServiceInner {
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            stop: AtomicBool::new(false),
            memo: Mutex::new(MemoState::default()),
            admitted: Mutex::new(Vec::new()),
            executed: AtomicU64::new(0),
        });
        let workers = (0..cfg.max_concurrent.max(1))
            .map(|i| {
                let engine = Arc::clone(&engine);
                let inner = Arc::clone(&inner);
                let budget = cfg.root_budget;
                let slow = cfg.slow_query;
                std::thread::Builder::new()
                    .name(format!("khuzdul-query-{i}"))
                    .spawn(move || executor_loop(&engine, &inner, budget, slow))
                    .expect("spawn query executor")
            })
            .collect();
        MiningService { engine, cfg, inner, workers, started: Instant::now() }
    }

    /// The shared engine this service executes on.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Admits one query: compiles `pattern` under `opts` and queues it
    /// FIFO behind earlier submissions (bounded by the concurrency cap).
    /// An identical earlier submission (isomorphic pattern, same graph,
    /// same options) returns a memoized handle sharing its result slot —
    /// in flight or finished — without claiming a single root.
    ///
    /// # Errors
    ///
    /// Returns the plan compiler's error message if `pattern` cannot be
    /// compiled under `opts`; the query is refused before the memo and
    /// the queue.
    pub fn submit(&self, pattern: &Pattern, opts: &PlanOptions) -> Result<QueryHandle, String> {
        let plan = MatchingPlan::compile(pattern, opts)?;
        let key: MemoKey = (canonical_code(pattern), format!("{opts:?}"));
        let query_id = self.engine.next_query_id();
        // One lock for the memo-or-admit decision keeps admission order
        // well-defined under concurrent submitters.
        let mut memo = self.inner.memo.lock();
        if self.cfg.memoize {
            if let Some(slot) = memo.touch(&key) {
                let handle = QueryHandle {
                    query_id,
                    pattern: pattern.to_string(),
                    memoized: true,
                    slot: Arc::clone(&slot),
                };
                self.inner.admitted.lock().push(Admitted {
                    query_id,
                    pattern: pattern.to_string(),
                    memoized: true,
                    slot,
                    done: None,
                });
                return Ok(handle);
            }
        }
        let slot = QuerySlot::new();
        if self.cfg.memoize {
            memo.insert(key.clone(), Arc::clone(&slot), self.cfg.memo_capacity);
        }
        let index = {
            let mut admitted = self.inner.admitted.lock();
            admitted.push(Admitted {
                query_id,
                pattern: pattern.to_string(),
                memoized: false,
                slot: Arc::clone(&slot),
                done: None,
            });
            admitted.len() - 1
        };
        drop(memo);
        let job =
            Job { query_id, index, plan, key, slot: Arc::clone(&slot), admitted: Instant::now() };
        self.inner.queue.lock().push_back(job);
        self.inner.queue_cv.notify_one();
        Ok(QueryHandle { query_id, pattern: pattern.to_string(), memoized: false, slot })
    }

    /// Blocks until every admitted query has completed and returns their
    /// outcomes in admission order.
    pub fn drain(&self) -> Vec<QueryOutcome> {
        let admitted: Vec<(u64, Arc<QuerySlot>)> =
            self.inner.admitted.lock().iter().map(|a| (a.query_id, Arc::clone(&a.slot))).collect();
        for (_, slot) in &admitted {
            let _ = slot.wait();
        }
        self.outcomes()
    }

    /// Outcomes of every *completed* query so far, in admission order.
    /// Memoized queries resolve as soon as their original does.
    pub fn outcomes(&self) -> Vec<QueryOutcome> {
        self.inner
            .admitted
            .lock()
            .iter()
            .filter_map(|a| {
                let result = a.slot.peek()?;
                let done = a.done.unwrap_or_default();
                Some(QueryOutcome {
                    query_id: a.query_id,
                    pattern: a.pattern.clone(),
                    memoized: a.memoized,
                    result,
                    elapsed: done.elapsed,
                    roots_total: done.roots_total,
                    roots_completed: done.roots_completed,
                    memo_entries: done.memo_entries,
                    memo_evictions: done.memo_evictions,
                })
            })
            .collect()
    }

    /// The service-level aggregate report: totals summed over every
    /// completed query, the recorder's histograms and span accounting,
    /// and one `queries[]` section per completed query in admission order
    /// — each with its own traffic, failure, and critical-path
    /// attribution (read off that query's own part timers). The
    /// top-level critical path sums the executed queries' accounts.
    pub fn report(&self, system: &str) -> RunReport {
        let outcomes = self.outcomes();
        let mut agg = sum_outcomes(&outcomes);
        let critical_path = agg.critical_path();
        // Queries interleave on the same parts, so their per-part times
        // overlap; past the summed account, the aggregate carries totals
        // only.
        agg.per_part.clear();
        agg.elapsed = self.started.elapsed();
        // Service-level failure count: parts that fail-stopped, counted
        // once, not once per query that observed them.
        agg.failures.parts_failed = self.engine.metrics().totals()[Counter::PartsFailed];
        let mut report = agg.to_report(system);
        report.critical_path = critical_path;
        self.engine.recorder().augment_report(&mut report);
        report.incidents = self.engine.incidents().incidents();
        report.rebalance = self.engine.rebalance_section();
        report.queries = outcomes.iter().map(query_report).collect();
        report
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Wall clock since the service started.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// Jobs admitted but not yet picked up by an executor.
    pub fn queue_depth(&self) -> usize {
        self.inner.queue.lock().len()
    }

    /// Queries admitted so far (including memoized duplicates).
    pub fn admitted_count(&self) -> usize {
        self.inner.admitted.lock().len()
    }

    /// The memo's counters.
    pub fn memo_stats(&self) -> MemoStats {
        let m = self.inner.memo.lock();
        MemoStats { entries: m.map.len() as u64, hits: m.hits, evictions: m.evictions }
    }

    /// The last 128 *executed* queries to complete, oldest first.
    /// Memoized duplicates spend no engine time and are not listed.
    pub fn recent_completions(&self) -> Vec<Completion> {
        self.completions(|_| true, COMPLETIONS_CAP)
    }

    /// The last 32 completions slower than [`ServiceConfig::slow_query`],
    /// oldest first (empty when the threshold is unset).
    pub fn slow_queries(&self) -> Vec<Completion> {
        let Some(threshold) = self.cfg.slow_query else { return Vec::new() };
        self.completions(|done| done.elapsed >= threshold, SLOW_LOG_CAP)
    }

    /// The last `cap` executed queries `keep` selects whose result is in,
    /// in completion order.
    fn completions(&self, keep: impl Fn(&Executed) -> bool, cap: usize) -> Vec<Completion> {
        let admitted = self.inner.admitted.lock();
        let mut done: Vec<(Executed, &Admitted)> =
            admitted.iter().filter_map(|a| Some((a.done.filter(|d| keep(d))?, a))).collect();
        done.sort_unstable_by_key(|(d, _)| d.seq);
        let mut last: Vec<Completion> = (done.into_iter().rev())
            .filter_map(|(d, a)| {
                Some(Completion {
                    query_id: a.query_id,
                    pattern: a.pattern.clone(),
                    count: a.slot.peek()?.ok().map(|s| s.count),
                    elapsed_ns: d.elapsed.as_nanos() as u64,
                })
            })
            .take(cap)
            .collect();
        last.reverse();
        last
    }
}

impl Drop for MiningService {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        self.inner.queue_cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// What the completed `outcomes` add up to — the one aggregation behind
/// the service report and `/metrics`. Every completed query adds its
/// count; only those that ran add traffic, failures, control messages
/// and part timers (a memoized duplicate moved no bytes).
pub(crate) fn sum_outcomes(outcomes: &[QueryOutcome]) -> RunStats {
    let mut agg = RunStats::default();
    for o in outcomes {
        match &o.result {
            Ok(stats) if o.memoized => agg.count += stats.count,
            Ok(stats) => agg.absorb(stats),
            Err(_) => {}
        }
    }
    agg
}

/// One query's section of the aggregate report.
fn query_report(o: &QueryOutcome) -> QueryReport {
    let mut qr = QueryReport {
        query_id: o.query_id,
        pattern: o.pattern.clone(),
        memoized: o.memoized,
        elapsed_ns: o.elapsed.as_nanos() as u64,
        roots_total: o.roots_total,
        roots_completed: o.roots_completed,
        memo_entries: o.memo_entries,
        memo_evictions: o.memo_evictions,
        ..QueryReport::default()
    };
    // A failed query keeps the zeroed section (count 0, no traffic).
    if let Ok(stats) = &o.result {
        qr.count = stats.count;
        if !o.memoized {
            qr.traffic = (&stats.traffic).into();
            qr.failures = stats.failures;
            qr.control = stats.control;
            qr.critical_path = stats.critical_path();
        }
    }
    qr
}

fn executor_loop(engine: &Engine, inner: &ServiceInner, budget: u64, slow_query: Option<Duration>) {
    loop {
        let job = {
            let mut q = inner.queue.lock();
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                if inner.stop.load(Ordering::SeqCst) {
                    return;
                }
                inner.queue_cv.wait(&mut q);
            }
        };
        let query = QueryCtx { query_id: job.query_id, root_budget: budget };
        let result = engine.try_count_query(&job.plan, &query).map(Arc::new);
        if result.is_err() {
            // Never memoize a failure: a resubmission should retry.
            inner.memo.lock().map.remove(&job.key);
        }
        // The run's guard parked its progress tracker in the engine's
        // finished ring; fold it into the outcome.
        let (roots_total, roots_completed) = engine
            .take_finished_progress(job.query_id)
            .map(|p| (p.total(), p.completed()))
            .unwrap_or((0, 0));
        let (memo_entries, _, memo_evictions) = {
            let m = inner.memo.lock();
            (m.map.len() as u64, m.hits, m.evictions)
        };
        let elapsed = job.admitted.elapsed();
        let pattern = {
            let mut admitted = inner.admitted.lock();
            let entry = &mut admitted[job.index];
            debug_assert_eq!(entry.query_id, job.query_id);
            entry.done = Some(Executed {
                seq: inner.executed.fetch_add(1, Ordering::Relaxed),
                elapsed,
                roots_total,
                roots_completed,
                memo_entries,
                memo_evictions,
            });
            entry.pattern.clone()
        };
        // A completion over the slow-query threshold is an incident, not
        // just a log line: capture the bundle while the engine still has
        // the live context (concurrent queries' progress, counter totals).
        if slow_query.is_some_and(|t| elapsed >= t) {
            let incidents = engine.incidents();
            let sections = if incidents.enabled() {
                CaptureSections {
                    progress: engine.active_progress().iter().map(|p| p.snapshot()).collect(),
                    counters: Some(counter_snapshot(&engine.metrics().totals())),
                    ledger: None,
                }
            } else {
                CaptureSections::default()
            };
            incidents.capture(
                Trigger::new(
                    TriggerKind::SlowQuery,
                    job.query_id,
                    None,
                    elapsed.as_nanos() as u64,
                    format!(
                        "query {} ({pattern}) took {elapsed:?}, over the slow-query threshold",
                        job.query_id
                    ),
                ),
                sections,
            );
        }
        job.slot.fulfill(result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use gpm_graph::gen;
    use gpm_graph::partition::PartitionedGraph;
    use gpm_pattern::oracle;
    use gpm_pattern::order::OrderChoice;

    fn service(machines: usize) -> (gpm_graph::Graph, MiningService) {
        let g = gen::barabasi_albert(200, 5, 7);
        let pg = PartitionedGraph::new(&g, machines, 1);
        let engine = Arc::new(Engine::new(pg, EngineConfig::default()));
        (g, MiningService::start(engine, ServiceConfig::default()))
    }

    #[test]
    fn submissions_complete_with_exact_counts() {
        let (g, svc) = service(3);
        let opts = PlanOptions::automine();
        let h1 = svc.submit(&Pattern::triangle(), &opts).unwrap();
        let h2 = svc.submit(&Pattern::path(3), &opts).unwrap();
        assert!(!h1.memoized() && !h2.memoized());
        assert_ne!(h1.query_id(), h2.query_id());
        let r1 = h1.wait().unwrap();
        let r2 = h2.wait().unwrap();
        assert_eq!(r1.count, oracle::count_subgraphs(&g, &Pattern::triangle(), false));
        assert_eq!(r2.count, oracle::count_subgraphs(&g, &Pattern::path(3), false));
    }

    #[test]
    fn uncompilable_submissions_are_refused_and_the_service_keeps_serving() {
        let (g, svc) = service(3);
        let opts = PlanOptions::automine();
        // Vertex 2 of the path 0-1-2 is not adjacent to the prefix {0}.
        let disconnected = PlanOptions { order: OrderChoice::Given(vec![0, 2, 1]), ..opts.clone() };
        // Refused before the memo and the queue, so a resubmission is
        // refused again rather than handed a slot no executor fills.
        assert!(svc.submit(&Pattern::path(3), &disconnected).is_err());
        assert!(svc.submit(&Pattern::path(3), &disconnected).is_err());
        let h = svc.submit(&Pattern::triangle(), &opts).unwrap();
        assert!(!h.memoized());
        let expect = oracle::count_subgraphs(&g, &Pattern::triangle(), false);
        assert_eq!(h.wait().unwrap().count, expect);
        assert_eq!(svc.drain().len(), 1);
    }

    #[test]
    fn duplicates_are_memoized_even_isomorphic_ones() {
        let (g, svc) = service(3);
        let opts = PlanOptions::automine();
        let h1 = svc.submit(&Pattern::triangle(), &opts).unwrap();
        // Clique(3) is isomorphic to the triangle: the canonical form
        // keys the memo, so it must hit.
        let h2 = svc.submit(&Pattern::clique(3), &opts).unwrap();
        assert!(!h1.memoized());
        assert!(h2.memoized(), "isomorphic resubmission must memoize");
        let expect = oracle::count_subgraphs(&g, &Pattern::triangle(), false);
        assert_eq!(h1.wait().unwrap().count, expect);
        assert_eq!(h2.wait().unwrap().count, expect);
        // Different options miss the memo.
        let induced = PlanOptions { induced: true, ..PlanOptions::automine() };
        let h3 = svc.submit(&Pattern::triangle(), &induced).unwrap();
        assert!(!h3.memoized(), "different plan options are a different query");
        h3.wait().unwrap();
        let outcomes = svc.drain();
        assert_eq!(outcomes.len(), 3);
        assert_eq!(outcomes.iter().filter(|o| o.memoized).count(), 1);
    }

    #[test]
    fn aggregate_report_has_one_section_per_query_and_validates() {
        let (g, svc) = service(3);
        let opts = PlanOptions::automine();
        let patterns = [Pattern::triangle(), Pattern::path(3), Pattern::triangle()];
        let handles: Vec<QueryHandle> =
            patterns.iter().map(|p| svc.submit(p, &opts).unwrap()).collect();
        for h in &handles {
            h.wait().unwrap();
        }
        let report = svc.report("khuzdul-service");
        assert_eq!(report.queries.len(), 3);
        let expect_tri = oracle::count_subgraphs(&g, &Pattern::triangle(), false);
        assert_eq!(report.queries[0].count, expect_tri);
        assert!(report.queries[2].memoized);
        assert_eq!(report.queries[2].count, expect_tri);
        assert_eq!(report.queries[2].traffic.fetch_requests, 0, "memo hit does no traffic");
        assert_eq!(
            report.count,
            report.queries.iter().map(|q| q.count).sum::<u64>(),
            "aggregate count sums the per-query counts"
        );
        gpm_obs::validate_report(&report.to_json()).expect("service report must validate");
    }

    #[test]
    fn slow_queries_capture_incident_bundles_into_the_report() {
        use crate::incident::IncidentConfig;
        let dir = std::env::temp_dir().join(format!("khuzdul-svc-slow-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let g = gen::barabasi_albert(150, 4, 9);
        let pg = PartitionedGraph::new(&g, 2, 1);
        let engine = Arc::new(Engine::new(
            pg,
            EngineConfig {
                incident: IncidentConfig { dir: Some(dir.clone()), ..IncidentConfig::default() },
                ..EngineConfig::default()
            },
        ));
        // Threshold zero: every executed query is "slow".
        let svc = MiningService::start(
            engine,
            ServiceConfig { slow_query: Some(Duration::ZERO), ..ServiceConfig::default() },
        );
        let opts = PlanOptions::automine();
        let h1 = svc.submit(&Pattern::triangle(), &opts).unwrap();
        let h2 = svc.submit(&Pattern::clique(3), &opts).unwrap(); // memo hit
        h1.wait().unwrap();
        h2.wait().unwrap();
        svc.drain();
        let incidents = svc.engine().incidents().incidents();
        assert_eq!(incidents.len(), 1, "executed query captures; memo hit does not");
        assert_eq!(incidents[0].trigger, TriggerKind::SlowQuery);
        assert_eq!(incidents[0].query_id, h1.query_id());
        let json = std::fs::read_to_string(&incidents[0].path).unwrap();
        crate::incident::validate_bundle(&json).expect("slow-query bundle validates");
        let report = svc.report("khuzdul-service");
        assert_eq!(report.incidents.len(), 1);
        assert_eq!(report.incidents[0].trigger, TriggerKind::SlowQuery);
        gpm_obs::validate_report(&report.to_json()).expect("report with incidents validates");
        drop(svc);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_queries_are_evicted_from_the_memo() {
        use crate::engine::EngineConfig;
        use gpm_cluster::{FabricConfig, FaultPlan, RetryPolicy};
        let g = gen::barabasi_albert(150, 4, 5);
        let pg = PartitionedGraph::new(&g, 3, 1);
        // Every reply dropped, two attempts: the run must fail.
        let engine = Arc::new(Engine::new(
            pg,
            EngineConfig {
                fabric: FabricConfig {
                    retry: RetryPolicy {
                        max_attempts: 2,
                        timeout: Duration::from_millis(5),
                        backoff: Duration::from_micros(100),
                    },
                    fault: Some(FaultPlan::drops(1.0)),
                    ..FabricConfig::default()
                },
                ..EngineConfig::default()
            },
        ));
        let svc = MiningService::start(engine, ServiceConfig::default());
        let opts = PlanOptions::automine();
        let h1 = svc.submit(&Pattern::triangle(), &opts).unwrap();
        assert!(h1.wait().is_err(), "all-drops fabric must fail the query");
        // The failure must have been evicted: a resubmission is a fresh
        // (non-memoized) query, not a replay of the stored error.
        let h2 = svc.submit(&Pattern::triangle(), &opts).unwrap();
        assert!(!h2.memoized(), "failed query must not serve from the memo");
        assert!(h2.wait().is_err());
    }

    /// The status plane's two lists are views of the admission history:
    /// the last 128 executed queries in completion order and, with a zero
    /// threshold, the last 32 of them as slow, memoized duplicates in
    /// neither.
    #[test]
    fn completions_and_slow_queries_are_the_last_executed_queries() {
        let g = gen::erdos_renyi(40, 100, 3);
        let engine =
            Arc::new(Engine::new(PartitionedGraph::new(&g, 2, 1), EngineConfig::default()));
        let svc = MiningService::start(
            engine,
            ServiceConfig {
                max_concurrent: 2,
                slow_query: Some(Duration::ZERO),
                ..ServiceConfig::default()
            },
        );
        // 31 connected patterns on 1–5 vertices under 8 option sets:
        // 248 distinct memo keys.
        let queries: Vec<(Pattern, PlanOptions)> = (1..=5)
            .flat_map(gpm_pattern::genpat::connected_patterns)
            .flat_map(|p| {
                [PlanOptions::automine(), PlanOptions::graphpi()].into_iter().flat_map(move |o| {
                    [(false, false), (false, true), (true, false), (true, true)].map(
                        |(induced, vertical_reuse)| {
                            (p.clone(), PlanOptions { induced, vertical_reuse, ..o.clone() })
                        },
                    )
                })
            })
            .collect();
        let ids = |list: Vec<Completion>| list.iter().map(|c| c.query_id).collect::<Vec<_>>();
        let mut memoized = Vec::new();
        // 100 executed queries at once, each tenth resubmitted.
        let mut first = Vec::new();
        for (i, (p, o)) in queries[..100].iter().enumerate() {
            first.push(svc.submit(p, o).unwrap().query_id());
            if i % 10 == 0 {
                let dup = svc.submit(p, o).unwrap();
                assert!(dup.memoized());
                memoized.push(dup.query_id());
            }
        }
        svc.drain();
        let before = ids(svc.recent_completions());
        let mut sorted = before.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, first, "every executed query, no duplicate");
        // 60 more, one at a time: their completion order is their
        // admission order.
        let mut second = Vec::new();
        for (p, o) in &queries[100..160] {
            let h = svc.submit(p, o).unwrap();
            h.wait().unwrap();
            second.push(h.query_id());
            let dup = svc.submit(p, o).unwrap();
            assert!(dup.memoized());
            memoized.push(dup.query_id());
        }
        svc.drain();
        let recent = ids(svc.recent_completions());
        let expect: Vec<u64> = before[32..].iter().chain(&second).copied().collect();
        assert_eq!(recent, expect, "the last 128 in completion order");
        assert_eq!(ids(svc.slow_queries()), second[28..], "the last 32");
        assert!(recent.iter().all(|id| !memoized.contains(id)));
        let executed = svc.outcomes().iter().filter(|o| !o.memoized).count();
        assert_eq!((executed, svc.outcomes().len()), (160, 160 + memoized.len()));
        // The order is the executors' stamps, not admission: swap the
        // last two queries' stamps and both lists follow.
        {
            let mut admitted = svc.inner.admitted.lock();
            let mut stamps: Vec<&mut Executed> = admitted
                .iter_mut()
                .filter(|a| second[58..].contains(&a.query_id))
                .filter_map(|a| a.done.as_mut())
                .collect();
            let [x, y] = &mut stamps[..] else { panic!("two executed entries") };
            std::mem::swap(&mut x.seq, &mut y.seq);
        }
        let swapped = [second[59], second[58]];
        assert_eq!(ids(svc.recent_completions())[126..], swapped);
        assert_eq!(ids(svc.slow_queries())[30..], swapped);
    }
}
