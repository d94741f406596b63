//! The cross-part root ledger: the one state machine behind work
//! stealing, termination and crash recovery.
//!
//! Every part claims its root work from here in bounded batches instead
//! of walking a private cursor, so an idle part can steal the unclaimed
//! tail of a loaded part (and any level-0 ranges the loaded part donates
//! to the spill). Only *root vertex ids* move between parts — their edge
//! lists still flow through the fabric on demand, preserving the paper's
//! "fetch data, never ship computation" rule.
//!
//! With stealing on, the ledger sizes every grant itself (guided
//! self-scheduling): a claim takes `1 / (2 × parts)` of what its source
//! — the claimant's own cursor, the spill, a victim's cursor — still
//! holds, never less than the configured smallest grant while that much
//! is left and never more than the claimant's cap. Grants are coarse
//! while there is plenty, so a batch amortises its message and its chunk
//! stack, and fine at the tail, where balance is decided. With stealing
//! off nobody else can reach a cursor and a claim takes its whole cap.
//!
//! [`Ledger`] is plain single-threaded data: no atomics, no channels, no
//! locks. Its only mutating entry point is [`Ledger::apply`], which takes
//! one [`CtrlOp`] from one part and returns the [`CtrlPayload`] answering
//! it. *Delivery* is somebody else's job — see [`crate::control::Carrier`]
//! for the two ways an operation reaches a ledger (lock-and-apply in
//! shared memory, send-and-wait over control messages). A recovery pass
//! is the same machine over different root lists: each survivor's share
//! of the lost roots is its "own range", stealable like any other.

use crate::transport::{ClaimSource, CtrlOp, CtrlPayload};
use crate::PartId;
use gpm_graph::VertexId;
use std::collections::HashMap;
use std::sync::Arc;

/// Run-scoped coordinator state for root claims, stealing, donation,
/// quiescence and lost-root reconstruction.
///
/// Each claimed batch is one outstanding unit until its claimant retires
/// it once its chunk stack has fully drained — on the next claim
/// ([`CtrlOp::RetireClaim`]), or alone ([`CtrlOp::BatchDone`]). The
/// run is *finished* only when nothing is outstanding, every cursor is
/// exhausted and the spill is empty — until then a part with nothing to
/// claim parks and retries, because a loaded part may still donate.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// Per-part root lists: owned vertices for a normal pass, placed
    /// shares of the lost roots for a recovery pass.
    roots: Vec<Vec<VertexId>>,
    /// Next unclaimed index into each part's `roots`.
    cursor: Vec<usize>,
    /// Donated level-0 root ranges, claimable by any part.
    spill: Vec<VertexId>,
    /// Per-part multiset of every root the part has claimed (own, spill,
    /// or stolen). Together with `donate_log` this reconstructs exactly
    /// which roots a fail-stop part took to its grave: its claims, minus
    /// what it donated back, were executed (if at all) only by the dead
    /// part, whose partial results the engine discards wholesale.
    claim_log: Vec<Vec<VertexId>>,
    /// Per-part multiset of every root the part donated to the spill.
    donate_log: Vec<Vec<VertexId>>,
    /// Claimed-but-not-retired batches.
    outstanding: u64,
    /// Which parts are idle and polling for work. A bitmap, not a
    /// counter: repeating a signal or clearing one never set is a no-op.
    starving: Vec<bool>,
    stealing: bool,
    /// The smallest grant under stealing.
    batch: usize,
    numa: Option<usize>,
}

/// Read-only point-in-time view of a [`Ledger`] for incident bundles.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LedgerSummary {
    /// Whether no claimed batch is awaiting retirement.
    pub quiescent: bool,
    /// Parts currently idle-and-polling.
    pub starving: u64,
    /// Donated roots sitting unclaimed in the spill.
    pub spill_len: u64,
    /// Unclaimed roots left on each part's cursor, indexed by part.
    pub per_part_remaining: Vec<u64>,
}

impl Ledger {
    /// A ledger over one root list per part, with `spill` pre-seeded.
    ///
    /// `stealing` lets parts claim the spill and steal victim ranges, and
    /// makes every grant guided, the smallest being `batch` roots (at
    /// least one); `numa: Some(sockets_per_machine)` makes thieves prefer
    /// same-machine victims before crossing the simulated network, under
    /// the `machine * sockets_per_machine + socket` part numbering.
    pub fn new(
        roots: Vec<Vec<VertexId>>,
        spill: Vec<VertexId>,
        stealing: bool,
        batch: usize,
        numa: Option<usize>,
    ) -> Ledger {
        let n = roots.len();
        Ledger {
            roots,
            cursor: vec![0; n],
            spill,
            claim_log: vec![Vec::new(); n],
            donate_log: vec![Vec::new(); n],
            outstanding: 0,
            starving: vec![false; n],
            stealing,
            batch: batch.max(1),
            numa: numa.map(|spm| spm.max(1)),
        }
    }

    /// Applies one operation issued by part `from` and returns its reply.
    /// Exactly-once delivery is the carrier's obligation; every call here
    /// takes effect.
    pub fn apply(&mut self, from: PartId, op: &CtrlOp) -> CtrlPayload {
        match op {
            CtrlOp::Claim { own_batch } => self.claim(from, *own_batch),
            CtrlOp::BatchDone => {
                self.retire();
                CtrlPayload::Ack
            }
            // Retire first: the verdict a `NoWork` carries must already
            // count the sender's last batch as done.
            CtrlOp::RetireClaim { own_batch } => {
                self.retire();
                self.claim(from, *own_batch)
            }
            // The donor's own batch unit still covers the roots until a
            // claimant re-registers them, and `finished` checks the spill
            // directly, so no donated root can be dropped.
            CtrlOp::Donate { roots } => {
                self.donate_log[from].extend_from_slice(roots);
                self.spill.extend_from_slice(roots);
                CtrlPayload::Ack
            }
            CtrlOp::Starving { on } => {
                self.starving[from] = *on;
                CtrlPayload::Ack
            }
            CtrlOp::Poll => {
                CtrlPayload::Status { finished: self.finished(), starving: self.starving_count() }
            }
            CtrlOp::CloseDead { dead } => CtrlPayload::Lost { roots: self.close_dead(dead) },
        }
    }

    /// A snapshot of the coordination state.
    pub fn summary(&self) -> LedgerSummary {
        LedgerSummary {
            quiescent: self.outstanding == 0,
            starving: self.starving_count() as u64,
            spill_len: self.spill.len() as u64,
            per_part_remaining: (0..self.roots.len()).map(|p| self.remaining(p) as u64).collect(),
        }
    }

    fn starving_count(&self) -> usize {
        self.starving.iter().filter(|&&s| s).count()
    }

    fn remaining(&self, part: usize) -> usize {
        self.roots[part].len() - self.cursor[part]
    }

    fn retire(&mut self) {
        self.outstanding = self.outstanding.saturating_sub(1);
    }

    fn take_range(&mut self, part: usize, n: usize) -> Option<&[VertexId]> {
        let start = self.cursor[part];
        let end = start.saturating_add(n).min(self.roots[part].len());
        if start == end {
            return None;
        }
        self.cursor[part] = end;
        Some(&self.roots[part][start..end])
    }

    fn no_work(&self) -> CtrlPayload {
        CtrlPayload::NoWork { finished: self.finished(), starving: self.starving_count() }
    }

    /// How many of the `available` roots of one source a claim capped at
    /// `cap` is granted: the one sizing rule, whatever the source.
    fn grant(&self, available: usize, cap: usize) -> usize {
        let guided = if self.stealing {
            (available / (2 * self.roots.len())).max(self.batch)
        } else {
            usize::MAX
        };
        guided.min(cap).min(available)
    }

    /// Own range first, then — with stealing on — the tail of the spill,
    /// then the unclaimed range of a victim; at most `cap` roots.
    fn claim(&mut self, me: usize, cap: usize) -> CtrlPayload {
        if cap == 0 {
            return self.no_work();
        }
        let own = self.grant(self.remaining(me), cap);
        let (source, roots) = if let Some(roots) = self.take_range(me, own) {
            (ClaimSource::Own, Arc::<[VertexId]>::from(roots))
        } else if !self.stealing {
            return self.no_work();
        } else if !self.spill.is_empty() {
            let at = self.spill.len() - self.grant(self.spill.len(), cap);
            (ClaimSource::Spill, self.spill.drain(at..).collect())
        } else {
            // Victim order: with NUMA ordering on, the most-loaded part
            // of the thief's own machine beats any cross-machine part —
            // stolen roots resolve their edge lists over the fabric, so
            // keeping the victim local keeps that traffic off the
            // simulated network (§5.4). Ties fall back to most-loaded.
            let same_machine = |p: usize| self.numa.is_some_and(|spm| p / spm == me / spm);
            let victim = (0..self.roots.len())
                .filter(|&p| p != me && self.remaining(p) > 0)
                .max_by_key(|&p| (same_machine(p), self.remaining(p)));
            let Some(v) = victim else { return self.no_work() };
            let n = self.grant(self.remaining(v), cap);
            (ClaimSource::Stolen(v), self.take_range(v, n).expect("a victim has roots").into())
        };
        self.outstanding += 1;
        self.claim_log[me].extend_from_slice(&roots);
        CtrlPayload::Claimed { source, roots, starving: self.starving_count() }
    }

    fn finished(&self) -> bool {
        self.outstanding == 0
            && (0..self.roots.len()).all(|p| self.remaining(p) == 0)
            && self.spill.is_empty()
    }

    /// Reconstructs the exact multiset of roots whose results died with
    /// the `dead` parts, assuming no part is still claiming:
    ///
    /// * every root a dead part claimed (its partial results are
    ///   discarded wholesale), **minus** what it donated back — a
    ///   donated root's fate belongs to whoever claimed it next;
    /// * the unclaimed tail of each dead part's cursor, which this
    ///   drains so nobody can claim it afterwards;
    /// * whatever is left in the spill — donated by anyone, claimed by
    ///   no one (survivors may stop claiming once a failure aborts the
    ///   run).
    ///
    /// Re-executing exactly this set on the survivors reproduces the
    /// fault-free counts bit for bit.
    fn close_dead(&mut self, dead: &[PartId]) -> Vec<VertexId> {
        let mut lost = Vec::new();
        for &d in dead {
            let mut donated: HashMap<VertexId, usize> = HashMap::new();
            for &r in &self.donate_log[d] {
                *donated.entry(r).or_insert(0) += 1;
            }
            for &r in &self.claim_log[d] {
                match donated.get_mut(&r) {
                    Some(n) if *n > 0 => *n -= 1,
                    _ => lost.push(r),
                }
            }
            lost.extend_from_slice(self.take_range(d, usize::MAX).unwrap_or_default());
        }
        lost.append(&mut self.spill);
        lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{Carrier, ControlLedgerConfig, ControlLedgerService};
    use crate::{ClusterMetrics, FaultPlan, RetryPolicy};
    use gpm_obs::Recorder;
    use std::time::Duration;
    use ClaimSource::{Own, Spill, Stolen};
    use CtrlOp::{BatchDone, Poll};
    use CtrlPayload::Ack;

    /// One scripted behaviour: a ledger shape, then `(from, op, reply)`
    /// steps. The table below is the ledger's specification; it runs
    /// against every way an operation can reach a ledger.
    struct Row {
        name: &'static str,
        roots: Vec<Vec<VertexId>>,
        spill: Vec<VertexId>,
        stealing: bool,
        batch: usize,
        numa: Option<usize>,
        script: Vec<(PartId, CtrlOp, CtrlPayload)>,
    }

    fn claim(cap: usize) -> CtrlOp {
        CtrlOp::Claim { own_batch: cap }
    }
    fn donate(roots: &[VertexId]) -> CtrlOp {
        CtrlOp::Donate { roots: roots.to_vec() }
    }
    fn starving(on: bool) -> CtrlOp {
        CtrlOp::Starving { on }
    }
    fn close(dead: &[PartId]) -> CtrlOp {
        CtrlOp::CloseDead { dead: dead.to_vec() }
    }
    fn retire_claim(cap: usize) -> CtrlOp {
        CtrlOp::RetireClaim { own_batch: cap }
    }
    fn got(source: ClaimSource, roots: &[VertexId]) -> CtrlPayload {
        got_among(source, roots, 0)
    }
    fn got_among(source: ClaimSource, roots: &[VertexId], starving: usize) -> CtrlPayload {
        CtrlPayload::Claimed { source, roots: roots.into(), starving }
    }
    fn no_work(finished: bool, starving: usize) -> CtrlPayload {
        CtrlPayload::NoWork { finished, starving }
    }
    fn status(finished: bool, starving: usize) -> CtrlPayload {
        CtrlPayload::Status { finished, starving }
    }
    fn lost(roots: &[VertexId]) -> CtrlPayload {
        CtrlPayload::Lost { roots: roots.to_vec() }
    }

    fn table() -> Vec<Row> {
        vec![
            Row {
                name:
                    "stealing off: the own cursor walks in steps of the cap and reaches nobody else",
                roots: vec![vec![1, 2, 3], vec![10, 20]],
                spill: vec![],
                stealing: false,
                batch: 2,
                numa: None,
                script: vec![
                    (0, claim(2), got(Own, &[1, 2])),
                    (0, claim(2), got(Own, &[3])),
                    (0, claim(2), no_work(false, 0)),
                    (0, claim(0), no_work(false, 0)),
                    (0, Poll, status(false, 0)),
                    (1, claim(usize::MAX), got(Own, &[10, 20])),
                    (0, BatchDone, Ack),
                    (0, BatchDone, Ack),
                    (1, Poll, status(false, 0)),
                    (1, BatchDone, Ack),
                    (1, Poll, status(true, 0)),
                ],
            },
            Row {
                name: "claims go own, then spill, then steal; quiescence needs retirements",
                roots: vec![vec![1, 2, 3], vec![10, 20, 30]],
                spill: vec![],
                stealing: true,
                batch: 2,
                numa: None,
                script: vec![
                    (1, claim(1), got(Own, &[10])),
                    (1, donate(&[10]), Ack),
                    (0, claim(8), got(Own, &[1, 2])),
                    (0, claim(8), got(Own, &[3])),
                    (0, claim(8), got(Spill, &[10])),
                    (0, claim(8), got(Stolen(1), &[20, 30])),
                    (0, claim(8), no_work(false, 0)),
                    (1, claim(8), no_work(false, 0)),
                    (0, BatchDone, Ack),
                    (0, BatchDone, Ack),
                    (0, BatchDone, Ack),
                    (0, BatchDone, Ack),
                    (1, Poll, status(false, 0)),
                    (1, BatchDone, Ack),
                    (0, Poll, status(true, 0)),
                    // Part 1 kept nothing: its claim was donated back and
                    // its tail was stolen.
                    (0, close(&[1]), lost(&[])),
                ],
            },
            Row {
                name: "a guided own grant is 1/(2 x parts) of what is left, the floor at the tail",
                roots: vec![(0..12).collect(), vec![]],
                spill: vec![],
                stealing: true,
                batch: 2,
                numa: None,
                script: vec![
                    (0, claim(99), got(Own, &[0, 1, 2])),
                    (0, claim(99), got(Own, &[3, 4])),
                    (0, claim(99), got(Own, &[5, 6])),
                    // The cap wins over the floor.
                    (0, claim(1), got(Own, &[7])),
                    (0, claim(99), got(Own, &[8, 9])),
                    (0, claim(99), got(Own, &[10, 11])),
                    (0, claim(99), no_work(false, 0)),
                ],
            },
            Row {
                name:
                    "a steal is sized by what the victim has left: thief and victim walk one cursor",
                roots: vec![vec![], (0..16).collect()],
                spill: vec![],
                stealing: true,
                batch: 2,
                numa: None,
                script: vec![
                    (0, claim(99), got(Stolen(1), &[0, 1, 2, 3])),
                    (0, claim(99), got(Stolen(1), &[4, 5, 6])),
                    (1, claim(99), got(Own, &[7, 8])),
                    (0, claim(99), got(Stolen(1), &[9, 10])),
                ],
            },
            Row {
                name: "a spill claim is sized by what the spill holds, and comes off its tail",
                roots: vec![vec![], vec![]],
                spill: (20..36).collect(),
                stealing: true,
                batch: 2,
                numa: None,
                script: vec![
                    (0, claim(99), got(Spill, &[32, 33, 34, 35])),
                    (1, claim(99), got(Spill, &[29, 30, 31])),
                    (0, claim(99), got(Spill, &[27, 28])),
                    (1, claim(1), got(Spill, &[26])),
                ],
            },
            Row {
                name: "no grant exceeds the cap, and a cap of nothing claims nothing anywhere",
                roots: vec![(0..40).collect(), (40..80).collect()],
                spill: vec![90],
                stealing: true,
                batch: 2,
                numa: None,
                script: vec![
                    (0, claim(4), got(Own, &[0, 1, 2, 3])),
                    (0, claim(0), no_work(false, 0)),
                    (0, retire_claim(0), no_work(false, 0)),
                    (0, Poll, status(false, 0)),
                ],
            },
            Row {
                name: "no grant is smaller than `batch` while its source holds that many",
                roots: vec![vec![], vec![]],
                spill: vec![5, 6, 7],
                stealing: true,
                batch: 2,
                numa: None,
                script: vec![
                    (0, claim(8), got(Spill, &[6, 7])),
                    (1, claim(8), got(Spill, &[5])),
                    (0, claim(8), no_work(false, 0)),
                ],
            },
            Row {
                name: "steals target the most-loaded victim",
                roots: vec![vec![], vec![1], vec![2, 3, 4, 5]],
                spill: vec![],
                stealing: true,
                batch: 2,
                numa: None,
                script: vec![
                    (0, claim(8), got(Stolen(2), &[2, 3])),
                    (0, claim(8), got(Stolen(2), &[4, 5])),
                    (0, claim(8), got(Stolen(1), &[1])),
                    (0, claim(8), no_work(false, 0)),
                ],
            },
            // 2 machines x 2 sockets: parts {0, 1} share machine 0, parts
            // {2, 3} share machine 1 (part = machine * spm + socket).
            Row {
                name: "flat victim order steals from the most-loaded part anywhere",
                roots: vec![vec![], vec![1, 2], vec![3, 4, 5], vec![6, 7, 8, 9]],
                spill: vec![],
                stealing: true,
                batch: 4,
                numa: None,
                script: vec![(0, claim(8), got(Stolen(3), &[6, 7, 8, 9]))],
            },
            Row {
                name: "NUMA victim order prefers the lighter same-machine part, then crosses",
                roots: vec![vec![], vec![1, 2], vec![3, 4, 5], vec![6, 7, 8, 9]],
                spill: vec![],
                stealing: true,
                batch: 4,
                numa: Some(2),
                script: vec![
                    (0, claim(8), got(Stolen(1), &[1, 2])),
                    (0, claim(8), got(Stolen(3), &[6, 7, 8, 9])),
                    (0, claim(8), got(Stolen(2), &[3, 4, 5])),
                    (0, claim(8), no_work(false, 0)),
                ],
            },
            Row {
                name: "a donation blocks termination until it is claimed and retired",
                roots: vec![vec![1], vec![2]],
                spill: vec![],
                stealing: true,
                batch: 8,
                numa: None,
                script: vec![
                    (0, claim(8), got(Own, &[1])),
                    (1, claim(8), got(Own, &[2])),
                    (1, BatchDone, Ack),
                    (1, Poll, status(false, 0)),
                    (0, donate(&[1]), Ack),
                    (0, BatchDone, Ack),
                    (1, Poll, status(false, 0)),
                    (1, claim(1), got(Spill, &[1])),
                    (1, Poll, status(false, 0)),
                    (1, BatchDone, Ack),
                    (0, Poll, status(true, 0)),
                ],
            },
            Row {
                name: "lost roots = claims - donations + cursor tail + orphaned spill",
                roots: vec![vec![1, 2], vec![10, 20, 30, 40, 50]],
                spill: vec![],
                stealing: true,
                batch: 2,
                numa: None,
                script: vec![
                    // Part 1 claims two batches, donates the first back,
                    // and "dies". Part 0 adopts the donation: it
                    // survives, so those roots are its problem.
                    (1, claim(2), got(Own, &[10, 20])),
                    (1, claim(2), got(Own, &[30, 40])),
                    (1, donate(&[10, 20]), Ack),
                    (0, claim(1), got(Own, &[1])),
                    (0, claim(1), got(Own, &[2])),
                    (0, claim(8), got(Spill, &[10, 20])),
                    // A survivor's donation nobody claimed before the
                    // run aborted must surface as lost too.
                    (0, donate(&[1]), Ack),
                    (0, close(&[1]), lost(&[30, 40, 50, 1])),
                    // The dead part's cursor is closed, the spill empty:
                    // root 50 is not there to steal.
                    (0, claim(8), no_work(false, 0)),
                ],
            },
            Row {
                name: "placed recovery serves each part its share, then steals the rest",
                roots: vec![vec![10, 11, 12], vec![], vec![20], vec![]],
                spill: vec![],
                stealing: true,
                batch: 8,
                numa: None,
                script: vec![
                    (0, claim(8), got(Own, &[10, 11, 12])),
                    (1, claim(8), got(Stolen(2), &[20])),
                    (3, claim(8), no_work(false, 0)),
                    (3, Poll, status(false, 0)),
                    (0, BatchDone, Ack),
                    (1, BatchDone, Ack),
                    (3, Poll, status(true, 0)),
                ],
            },
            Row {
                name: "starvation is a per-part bitmap: off-without-on and on-twice are no-ops",
                roots: vec![vec![], vec![], vec![]],
                spill: vec![],
                stealing: true,
                batch: 1,
                numa: None,
                script: vec![
                    (1, starving(false), Ack),
                    (0, Poll, status(true, 0)),
                    (1, starving(true), Ack),
                    (1, starving(true), Ack),
                    (0, Poll, status(true, 1)),
                    (2, starving(true), Ack),
                    (0, Poll, status(true, 2)),
                    (1, starving(false), Ack),
                    (1, starving(false), Ack),
                    (0, Poll, status(true, 1)),
                    (2, starving(false), Ack),
                    (2, Poll, status(true, 0)),
                ],
            },
            Row {
                name: "a retirement rides on the next claim and is applied first, work or no work",
                roots: vec![vec![1, 2], vec![9]],
                spill: vec![],
                stealing: true,
                batch: 2,
                numa: None,
                script: vec![
                    (0, claim(1), got(Own, &[1])),
                    (1, claim(1), got(Own, &[9])),
                    (1, retire_claim(1), got(Stolen(0), &[2])),
                    (1, Poll, status(false, 0)),
                    // Delivered on a `NoWork`: part 1's batch is all
                    // that is left outstanding.
                    (0, retire_claim(1), no_work(false, 0)),
                    (0, Poll, status(false, 0)),
                    // The last retirement and the verdict in one reply;
                    // claim-then-retire would answer `finished: false`.
                    (1, retire_claim(1), no_work(true, 0)),
                    (0, Poll, status(true, 0)),
                ],
            },
            Row {
                name: "claim replies carry the starvation count a part would poll for",
                roots: vec![vec![1, 2], vec![], vec![]],
                spill: vec![],
                stealing: true,
                batch: 1,
                numa: None,
                script: vec![
                    (1, starving(true), Ack),
                    (0, claim(1), got_among(Own, &[1], 1)),
                    (2, claim(1), got_among(Stolen(0), &[2], 1)),
                    (2, starving(true), Ack),
                    (0, retire_claim(1), no_work(false, 2)),
                    (1, claim(1), no_work(false, 2)),
                    (2, retire_claim(0), no_work(true, 2)),
                ],
            },
        ]
    }

    type Deliver = Box<dyn FnMut(PartId, CtrlOp) -> CtrlPayload>;

    /// Every way a `CtrlOp` reaches a fresh ledger of `row`'s shape.
    fn deliveries(row: &Row) -> Vec<(&'static str, Deliver)> {
        let ledger =
            || Ledger::new(row.roots.clone(), row.spill.clone(), row.stealing, row.batch, row.numa);
        let parts = row.roots.len();
        let cfg = ControlLedgerConfig {
            stealing: row.stealing,
            batch: row.batch,
            numa: row.numa,
            retry: RetryPolicy {
                max_attempts: 12,
                timeout: Duration::from_millis(10),
                backoff: Duration::from_micros(100),
            },
            fault: Some(FaultPlan::drops(0.2)),
            query: 0,
        };
        let service = ControlLedgerService::start(
            row.roots.clone(),
            row.spill.clone(),
            cfg,
            &ClusterMetrics::new(parts, 1),
            Recorder::disabled(),
        );
        let (mut plain, shared, msg) =
            (ledger(), Carrier::shared(ledger()), Carrier::msg(service, parts));
        vec![
            ("the plain ledger", Box::new(move |from, op| plain.apply(from, &op))),
            (
                "the shared carrier",
                Box::new(move |from, op| {
                    shared.call(from, op).expect("shared memory loses nothing")
                }),
            ),
            (
                "the message carrier under 20% drops",
                Box::new(move |from, op| msg.call(from, op).expect("retries mask the drops")),
            ),
        ]
    }

    #[test]
    fn every_delivery_answers_the_scripted_table() {
        for row in table() {
            for (how, mut deliver) in deliveries(&row) {
                for (step, (from, op, want)) in row.script.iter().enumerate() {
                    let got = deliver(*from, op.clone());
                    assert_eq!(&got, want, "'{}', step {step} ({op:?}) over {how}", row.name);
                }
            }
        }
    }

    /// What guided sizing is for: a long cursor costs a few dozen claims
    /// (469 at a fixed 64), each within its bounds, each root granted once.
    #[test]
    fn guided_grants_drain_a_long_cursor_in_few_claims() {
        let (total, floor, cap) = (30_000, 64, 4096);
        let mut ledger = Ledger::new(vec![(0..total).collect(), vec![]], vec![], true, floor, None);
        let mut granted: Vec<VertexId> = Vec::new();
        let mut claims = 0;
        while let CtrlPayload::Claimed { roots, .. } = ledger.apply(0, &claim(cap)) {
            claims += 1;
            granted.extend(roots.iter());
            assert!(roots.len() <= cap, "claim {claims} took {} roots", roots.len());
            assert!(
                roots.len() >= floor || granted.len() == total as usize,
                "claim {claims} took {} roots with more left",
                roots.len()
            );
        }
        assert!(claims <= 40, "{claims} claims");
        assert_eq!(granted, (0..total).collect::<Vec<_>>());
    }

    #[test]
    fn summary_reads_the_state_without_changing_it() {
        let mut ledger = Ledger::new(vec![vec![1, 2, 3], vec![4]], vec![9], true, 2, None);
        ledger.apply(0, &claim(2));
        ledger.apply(1, &starving(true));
        let want = LedgerSummary {
            quiescent: false,
            starving: 1,
            spill_len: 1,
            per_part_remaining: vec![1, 1],
        };
        assert_eq!((ledger.summary(), ledger.summary()), (want.clone(), want));
        assert!(Ledger::new(vec![], vec![], false, 0, None).summary().quiescent);
    }
}
