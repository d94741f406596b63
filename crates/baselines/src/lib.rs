//! Baseline GPM systems the paper compares Khuzdul against.
//!
//! Every baseline is implemented from scratch so that Table 2, Table 3,
//! Figure 10 and Figure 15 can be regenerated in-repo (the original
//! systems are C++/Java and partly closed-source; see `DESIGN.md` §1):
//!
//! * [`single::SingleMachine`] — an efficient single-machine engine
//!   (the paper's in-house AutomineIH and the Peregrine-like variant are
//!   presets over the same executor);
//! * [`replicated::ReplicatedCluster`] — distributed execution with a
//!   fully replicated graph and coarse root-block task distribution
//!   (GraphPi's distributed mode);
//! * [`ctd::CtdCluster`] — "moving computation to data": partial
//!   embeddings plus their carried edge lists are shipped to the machine
//!   owning the next needed list (the aDFS-like policy of §2.3);
//! * [`gthinker::GThinker`] — "moving data to computation" with
//!   coarse-grained one-task-per-embedding-tree scheduling, a general
//!   software cache with task↔data reference maps, and bounded task
//!   concurrency (§2.3's description of G-thinker, including the
//!   overheads the paper measures in Figure 15).
//!
//! All baselines return [`khuzdul::RunStats`] so the bench harness can
//! print them side by side with the engine.

#![warn(missing_docs)]

pub mod ctd;
pub mod gthinker;
pub mod oblivious;
pub mod replicated;
pub mod single;
