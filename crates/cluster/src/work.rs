//! Distributed termination detection for message-driven baselines.
//!
//! The "moving computation to data" baseline has no global barrier: a part
//! is done only when *no* part holds work and *no* message is in flight.
//! [`WorkCounter`] implements the standard outstanding-work counter: every
//! unit of work (a queued task or an in-flight message) increments it, and
//! completing the unit decrements it. When the counter reaches zero the
//! whole computation has quiesced — no new work can appear because work is
//! only created by existing work.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// Shared counter of outstanding work units.
///
/// # Example
///
/// ```
/// use gpm_cluster::work::WorkCounter;
///
/// let wc = WorkCounter::new();
/// wc.add(2);            // two root tasks
/// wc.done();            // one finished
/// assert!(!wc.is_quiescent());
/// wc.done();
/// assert!(wc.is_quiescent());
/// ```
#[derive(Debug, Clone, Default)]
pub struct WorkCounter {
    outstanding: Arc<AtomicI64>,
}

impl WorkCounter {
    /// A counter starting at zero.
    pub fn new() -> Self {
        WorkCounter::default()
    }

    /// Registers `n` new units of outstanding work.
    ///
    /// `Relaxed` suffices: registration must happen *before* the unit is
    /// published to whoever will complete it (a queue push, a message
    /// send), and that publication is itself a synchronizing operation —
    /// any thread that can observe the unit already observes its
    /// registration through the same edge. The counter therefore never
    /// under-counts live work; no other thread's data depends on this
    /// store being ordered.
    pub fn add(&self, n: u64) {
        self.outstanding.fetch_add(n as i64, Ordering::Relaxed);
    }

    /// Marks one unit complete.
    ///
    /// `Release` publishes every write the completing thread made on
    /// behalf of this unit (results, follow-on work registered via
    /// [`WorkCounter::add`]) to any thread whose `Acquire` load in
    /// [`WorkCounter::outstanding`] subsequently observes the decrement.
    /// That is exactly the edge termination detection needs: a thread
    /// that reads zero sees *all* effects of *all* completed units.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the counter would go negative, which
    /// indicates unbalanced accounting.
    pub fn done(&self) {
        let prev = self.outstanding.fetch_sub(1, Ordering::Release);
        debug_assert!(prev > 0, "WorkCounter went negative");
    }

    /// Current number of outstanding units.
    ///
    /// `Acquire` pairs with the `Release` decrement in
    /// [`WorkCounter::done`]: observing the count that a decrement
    /// produced also makes the completing thread's prior writes visible,
    /// so a zero read is a safe quiescence signal, not merely a stale
    /// snapshot. (With the old `SeqCst` pair the extra total-order
    /// guarantee was never used — no site reasons about the interleaving
    /// of two *different* atomics.)
    pub fn outstanding(&self) -> i64 {
        self.outstanding.load(Ordering::Acquire)
    }

    /// Whether all work has quiesced.
    pub fn is_quiescent(&self) -> bool {
        self.outstanding() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_accounting_quiesces() {
        let wc = WorkCounter::new();
        assert!(wc.is_quiescent());
        wc.add(3);
        assert_eq!(wc.outstanding(), 3);
        wc.done();
        wc.done();
        wc.done();
        assert!(wc.is_quiescent());
    }

    #[test]
    fn shared_across_threads() {
        let wc = WorkCounter::new();
        wc.add(100);
        let mut joins = Vec::new();
        for _ in 0..4 {
            let wc = wc.clone();
            joins.push(std::thread::spawn(move || {
                for _ in 0..25 {
                    wc.done();
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert!(wc.is_quiescent());
    }

    #[test]
    fn relaxed_orderings_survive_a_spawning_stress() {
        // 8 threads hammer the relaxed/acquire-release protocol with the
        // engine's actual usage shape: each completed unit may *spawn*
        // further units (add before done, like a task queuing children
        // before retiring), so quiescence must only be observable after
        // every transitively spawned unit retired. Each thread also
        // publishes a side-effect before its final `done`; the main
        // thread's acquire read of zero must see all of them.
        use std::sync::atomic::AtomicU64;
        let wc = WorkCounter::new();
        let effects = Arc::new(AtomicU64::new(0));
        const THREADS: u64 = 8;
        const UNITS: u64 = 2_000;
        wc.add(THREADS * UNITS);
        let mut joins = Vec::new();
        for _ in 0..THREADS {
            let wc = wc.clone();
            let effects = Arc::clone(&effects);
            joins.push(std::thread::spawn(move || {
                for i in 0..UNITS {
                    // Every 7th unit spawns a child unit and retires it
                    // too, exercising add() concurrent with done().
                    if i % 7 == 0 {
                        wc.add(1);
                        wc.done();
                    }
                    effects.fetch_add(1, Ordering::Relaxed);
                    wc.done();
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert!(wc.is_quiescent());
        // The Acquire read of zero must make every unit's side-effect
        // visible (Release on the final done of each thread).
        assert_eq!(effects.load(Ordering::Relaxed), THREADS * UNITS);
        assert_eq!(wc.outstanding(), 0);
    }
}
