//! Live per-query progress over the root multiset.
//!
//! Khuzdul's extend-based abstraction makes progress naturally
//! measurable: every query enumerates from a *known* root multiset (the
//! union of each part's owned vertices), claimed in batches through the
//! run-scoped root ledger and retired when the chunk stack drains. A
//! [`QueryProgress`] counts those claims and retirements with relaxed
//! atomics — no locks, no allocation after construction — so the status
//! plane can expose a monotonic completion fraction and a rate-based ETA
//! while the query runs.
//!
//! **Always on**: every run gets one (a handful of relaxed atomic adds
//! per root batch), and it is the run's heartbeat too — the stall
//! watchdog fires when claimed + completed stops moving.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Lock-free progress counters for one in-flight query.
///
/// `completed` can exceed `total` after a fail-stop recovery pass (lost
/// roots are re-executed on survivors), so [`fraction`] clamps at 1.0 —
/// together with monotone counters and a fixed total this makes the
/// fraction monotonically non-decreasing by construction.
///
/// [`fraction`]: QueryProgress::fraction
#[derive(Debug)]
pub struct QueryProgress {
    query_id: u64,
    /// Size of the root multiset this query will enumerate (fixed at
    /// construction).
    total: u64,
    claimed: AtomicU64,
    completed: AtomicU64,
    /// Roots claimed from another part's cursor (steals + spill claims).
    stolen: AtomicU64,
    /// Roots re-executed by a recovery pass after a part death.
    recovered: AtomicU64,
    /// Per-part `(claimed, completed)` counters, indexed by part.
    per_part: Vec<(AtomicU64, AtomicU64)>,
    done: AtomicBool,
    started: Instant,
}

/// Point-in-time copy of one part's progress counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PartProgress {
    /// Part id.
    pub part: u64,
    /// Roots this part has claimed so far.
    pub claimed: u64,
    /// Roots this part has retired so far.
    pub completed: u64,
}

/// Point-in-time copy of a [`QueryProgress`]: an entry of an incident
/// bundle's `progress` section and of `/status`'s `active_queries`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProgressSnapshot {
    /// The query.
    pub query_id: u64,
    /// Size of its root multiset.
    pub roots_total: u64,
    /// Roots claimed so far.
    pub claimed: u64,
    /// Roots retired so far.
    pub completed: u64,
    /// Roots claimed from another part's cursor or the spill.
    pub stolen: u64,
    /// Lost roots re-executed by recovery passes.
    pub recovered: u64,
    /// Whether the query was marked done.
    pub done: bool,
    /// [`QueryProgress::fraction`].
    pub fraction: f64,
    /// [`QueryProgress::eta_ns`].
    pub eta_ns: Option<u64>,
    /// Nanoseconds since the tracker was created.
    pub elapsed_ns: u64,
    /// Per-part counters, indexed by part.
    pub per_part: Vec<PartProgress>,
}

impl QueryProgress {
    /// A fresh tracker for `query_id` over `total` roots across `parts`
    /// parts.
    pub fn new(query_id: u64, total: u64, parts: usize) -> QueryProgress {
        QueryProgress {
            query_id,
            total,
            claimed: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
            recovered: AtomicU64::new(0),
            per_part: (0..parts).map(|_| (AtomicU64::new(0), AtomicU64::new(0))).collect(),
            done: AtomicBool::new(false),
            started: Instant::now(),
        }
    }

    /// The query this tracker belongs to.
    pub fn query_id(&self) -> u64 {
        self.query_id
    }

    /// Size of the root multiset (fixed at construction).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Records `n` roots claimed by `part`; `stolen` marks claims served
    /// from another part's cursor or the spill.
    pub fn record_claimed(&self, part: usize, n: u64, stolen: bool) {
        self.claimed.fetch_add(n, Ordering::Relaxed);
        if stolen {
            self.stolen.fetch_add(n, Ordering::Relaxed);
        }
        if let Some((c, _)) = self.per_part.get(part) {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Records `n` roots fully retired by `part` (their chunk stack
    /// drained back to empty).
    pub fn record_completed(&self, part: usize, n: u64) {
        self.completed.fetch_add(n, Ordering::Relaxed);
        if let Some((_, d)) = self.per_part.get(part) {
            d.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Records `n` lost roots re-executed by a recovery pass.
    pub fn record_recovered(&self, n: u64) {
        self.recovered.fetch_add(n, Ordering::Relaxed);
    }

    /// Marks the query finished; [`fraction`](Self::fraction) reports
    /// exactly 1.0 from here on.
    pub fn mark_done(&self) {
        self.done.store(true, Ordering::Release);
    }

    /// Whether [`mark_done`](Self::mark_done) was called.
    pub fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Roots claimed so far (all parts).
    pub fn claimed(&self) -> u64 {
        self.claimed.load(Ordering::Relaxed)
    }

    /// Roots retired so far (all parts).
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Nanoseconds since this tracker was created.
    fn elapsed_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    /// Monotonic completion fraction in `[0, 1]`: retired roots over the
    /// total, clamped at 1.0 (recovery re-execution can push retirements
    /// past the total), and exactly 1.0 once marked done. A zero-root
    /// query reports 0.0 until it is marked done.
    pub fn fraction(&self) -> f64 {
        if self.is_done() {
            return 1.0;
        }
        if self.total == 0 {
            return 0.0;
        }
        (self.completed() as f64 / self.total as f64).min(1.0)
    }

    /// Every counter, read now.
    pub fn snapshot(&self) -> ProgressSnapshot {
        ProgressSnapshot {
            query_id: self.query_id,
            roots_total: self.total,
            claimed: self.claimed(),
            completed: self.completed(),
            stolen: self.stolen.load(Ordering::Relaxed),
            recovered: self.recovered.load(Ordering::Relaxed),
            done: self.is_done(),
            fraction: self.fraction(),
            eta_ns: self.eta_ns(),
            elapsed_ns: self.elapsed_ns(),
            per_part: (self.per_part.iter().enumerate())
                .map(|(p, (c, d))| PartProgress {
                    part: p as u64,
                    claimed: c.load(Ordering::Relaxed),
                    completed: d.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }

    /// Rate-based remaining-time estimate in nanoseconds: remaining
    /// roots over the observed retirement rate. `None` until the first
    /// retirement (no rate yet) and `Some(0)` once done.
    pub fn eta_ns(&self) -> Option<u64> {
        if self.is_done() {
            return Some(0);
        }
        let completed = self.completed();
        if completed == 0 {
            return None;
        }
        let remaining = self.total.saturating_sub(completed);
        let elapsed = self.elapsed_ns().max(1);
        Some((remaining as f64 * elapsed as f64 / completed as f64) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_is_monotone_and_clamped() {
        let p = QueryProgress::new(7, 100, 2);
        assert_eq!(p.fraction(), 0.0);
        assert_eq!(p.eta_ns(), None, "no rate before the first retirement");
        let mut last = 0.0;
        for _ in 0..12 {
            p.record_claimed(0, 10, false);
            p.record_completed(0, 10);
            let f = p.fraction();
            assert!(f >= last, "fraction regressed: {f} < {last}");
            assert!(f <= 1.0, "fraction over 1.0: {f}");
            last = f;
        }
        // 120 completions over 100 roots (recovery overshoot): clamped.
        assert_eq!(p.fraction(), 1.0);
        assert_eq!(p.completed(), 120);
        p.mark_done();
        assert_eq!(p.fraction(), 1.0);
        assert_eq!(p.eta_ns(), Some(0));
    }

    #[test]
    fn per_part_and_steal_accounting() {
        let p = QueryProgress::new(1, 50, 2);
        p.record_claimed(0, 20, false);
        p.record_claimed(1, 10, true);
        p.record_completed(1, 10);
        p.record_recovered(3);
        let s = p.snapshot();
        assert_eq!((s.claimed, s.stolen, s.completed, s.recovered), (30, 10, 10, 3));
        assert_eq!(s.per_part[0], PartProgress { part: 0, claimed: 20, completed: 0 });
        assert_eq!(s.per_part[1], PartProgress { part: 1, claimed: 10, completed: 10 });
        assert_eq!((s.done, s.fraction, s.roots_total), (false, 0.2, 50));
        let eta = s.eta_ns.expect("rate exists after a retirement");
        assert!(eta > 0);
    }

    #[test]
    fn zero_root_query_reports_done_only_when_marked() {
        let p = QueryProgress::new(1, 0, 1);
        assert_eq!(p.fraction(), 0.0);
        p.mark_done();
        assert_eq!(p.fraction(), 1.0);
    }
}
