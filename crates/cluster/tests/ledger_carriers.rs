//! Carrier equivalence and root conservation for the cross-part ledger:
//! whatever interleaving of operations 2–5 parts issue, the shared and
//! the message carrier answer identically, every root ends up in exactly
//! one place — however the ledger sized the grants and wherever a
//! donation split one — and every retirement — alone or riding on a
//! claim, retried or not — counts once.

use gpm_cluster::{
    Carrier, ClusterMetrics, ControlLedgerConfig, ControlLedgerService, CtrlOp, CtrlPayload,
    FaultPlan, Ledger, RetryPolicy,
};
use gpm_graph::VertexId;
use gpm_obs::Recorder;
use proptest::prelude::*;
use std::time::Duration;

/// One abstract step of one part, made concrete against the model of
/// which roots that part currently holds.
#[derive(Debug, Clone)]
enum Step {
    /// Claim at most this many roots.
    Claim(usize),
    /// Retire one batch and claim the next in one operation.
    RetireClaim(usize),
    /// Donate this many of the roots the part holds, off the tail of
    /// what it claimed — usually part of a grant, as steal-half gives.
    Donate(usize),
    BatchDone,
    Starving(bool),
    Poll,
    /// The part fail-stops; a survivor reports it.
    Die,
}

/// Caps below the smallest grant, and one no guided grant here reaches.
fn cap() -> impl Strategy<Value = usize> {
    prop_oneof![0usize..6, Just(64usize)]
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        cap().prop_map(Step::Claim),
        cap().prop_map(Step::Claim),
        cap().prop_map(Step::RetireClaim),
        (0usize..12).prop_map(Step::Donate),
        Just(Step::BatchDone),
        any::<bool>().prop_map(Step::Starving),
        Just(Step::Poll),
        Just(Step::Die),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn carriers_agree_and_every_root_lands_exactly_once(
        sizes in prop::collection::vec(0usize..48, 2..6),
        stealing in any::<bool>(),
        batch in 1usize..5,
        numa in prop_oneof![Just(None), Just(Some(1usize)), Just(Some(2usize))],
        steps in prop::collection::vec((0usize..5, step()), 0..60),
    ) {
        let parts = sizes.len();
        let roots: Vec<Vec<VertexId>> = sizes
            .iter()
            .enumerate()
            .map(|(p, &n)| (0..n).map(|i| (p * 100 + i) as VertexId).collect())
            .collect();
        let shared = Carrier::shared(Ledger::new(roots.clone(), Vec::new(), stealing, batch, numa));
        let cfg = ControlLedgerConfig {
            stealing,
            batch,
            numa,
            retry: RetryPolicy {
                max_attempts: 12,
                timeout: Duration::from_millis(10),
                backoff: Duration::from_micros(100),
            },
            fault: Some(FaultPlan::drops(0.1)),
            query: 0,
        };
        let metrics = ClusterMetrics::new(parts, 1);
        let service =
            ControlLedgerService::start(roots.clone(), Vec::new(), cfg, &metrics, Recorder::disabled());
        let msg = Carrier::msg(service, parts);
        let both = |from: usize, op: CtrlOp| -> Result<CtrlPayload, TestCaseError> {
            let reply = shared.call(from, op.clone()).expect("shared memory loses nothing");
            prop_assert_eq!(&reply, &msg.call(from, op).expect("retries mask the drops"));
            Ok(reply)
        };

        // The model: what each live part holds (claims minus donations),
        // how many claimed batches await retirement, who is dead, and
        // what recovery was told to re-execute.
        let mut held: Vec<Vec<VertexId>> = vec![Vec::new(); parts];
        let mut outstanding = 0u64;
        let mut dead = vec![false; parts];
        let mut lost: Vec<VertexId> = Vec::new();
        for (sel, step) in steps {
            let p = sel % parts;
            if dead[p] {
                continue;
            }
            match step {
                Step::Claim(cap) | Step::RetireClaim(cap) => {
                    let op = if matches!(step, Step::Claim(_)) {
                        CtrlOp::Claim { own_batch: cap }
                    } else {
                        outstanding = outstanding.saturating_sub(1);
                        CtrlOp::RetireClaim { own_batch: cap }
                    };
                    if let CtrlPayload::Claimed { roots, .. } = both(p, op)? {
                        prop_assert!(roots.len() <= cap, "{} roots under a cap of {cap}", roots.len());
                        held[p].extend(roots.iter());
                        outstanding += 1;
                    }
                }
                Step::Donate(n) => {
                    let at = held[p].len().saturating_sub(n);
                    let roots = held[p].split_off(at);
                    both(p, CtrlOp::Donate { roots })?;
                }
                Step::BatchDone => {
                    outstanding = outstanding.saturating_sub(1);
                    both(p, CtrlOp::BatchDone)?;
                }
                Step::Starving(on) => drop(both(p, CtrlOp::Starving { on })?),
                Step::Poll => drop(both(p, CtrlOp::Poll)?),
                Step::Die => {
                    let Some(survivor) = (0..parts).find(|&q| q != p && !dead[q]) else {
                        continue;
                    };
                    dead[p] = true;
                    // Everything the dead part held is discarded wholesale.
                    held[p].clear();
                    match both(survivor, CtrlOp::CloseDead { dead: vec![p] })? {
                        CtrlPayload::Lost { roots } => lost.extend(roots),
                        other => prop_assert!(false, "close-dead answered with {other:?}"),
                    }
                }
            }
        }

        // Survivors drain whatever is still claimable; what nobody can
        // claim (a spill with stealing off) is reported with no new death.
        let live: Vec<usize> = (0..parts).filter(|&p| !dead[p]).collect();
        for &p in &live {
            while let CtrlPayload::Claimed { roots, .. } =
                both(p, CtrlOp::Claim { own_batch: usize::MAX })?
            {
                held[p].extend(roots.iter());
                outstanding += 1;
            }
        }
        match both(live[0], CtrlOp::CloseDead { dead: Vec::new() })? {
            CtrlPayload::Lost { roots } => lost.extend(roots),
            other => prop_assert!(false, "close-dead answered with {other:?}"),
        }
        // Nothing is claimable any more, so the verdict hangs on the
        // retirements alone: a compound op applied twice under a dropped
        // reply would have retired a batch too many.
        let verdict = CtrlPayload::Status { finished: outstanding == 0, starving: 0 };
        for p in 0..parts {
            both(p, CtrlOp::Starving { on: false })?;
        }
        prop_assert_eq!(both(live[0], CtrlOp::Poll)?, verdict);
        let mut landed: Vec<VertexId> = held.concat();
        landed.extend(lost);
        landed.sort_unstable();
        let mut all: Vec<VertexId> = roots.concat();
        all.sort_unstable();
        prop_assert_eq!(landed, all);
    }
}
