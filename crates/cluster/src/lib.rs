//! Simulated distributed cluster for the Khuzdul reproduction.
//!
//! The paper runs on an 8-node InfiniBand cluster over MPI. This crate
//! substitutes an **in-process cluster**: each logical machine (or NUMA
//! socket — a *part*) owns a disjoint 1-D hash partition and communicates
//! with other parts *only* through the message layer defined here, which
//! accounts every byte. All the engine-level behaviour the paper measures
//! (task granularity, overlap, communication volume, reuse hit rates) is a
//! property of the partitioned-memory programming model and is preserved;
//! see `DESIGN.md` §1.
//!
//! Components:
//!
//! * [`transport`] — the wire layer: sequence-tagged request/reply
//!   messages, the one in-process [`ChannelTransport`] (the paper's
//!   "graph data responding threads", §6) with its optional deterministic
//!   [`FaultPlan`], and the message discipline both planes share — a
//!   message's fault fate, the [`RetryPolicy`] backoff, and the wait for
//!   an attempt's reply, each written once;
//! * [`fabric`] — the async request-window fabric above it:
//!   [`EdgeListClient::fetch_async`] with bounded per-part in-flight
//!   windows (backpressure), requests bounded to what their reader can
//!   reach ([`EdgeListClient::fetch_clamped_async`]), timeout/retry with backoff, and typed
//!   [`FetchError`]s instead of panics;
//! * [`ledger`] — the cross-part root ledger (claims, steals, donations,
//!   quiescence, lost-root reconstruction) as one plain state machine, and
//!   [`control`] — the two carriers that deliver operations to it, the
//!   message one retrying and injecting faults exactly as fetches do;
//! * [`metrics`] — the one counter table ([`Counter`]): every traffic,
//!   failure and control counter with its name and help text, kept as one
//!   [`Counters`] row per part and per query, written through a
//!   [`Scope`] and read as [`Counts`];
//! * [`NetworkModel`] — optional latency/bandwidth model used to convert
//!   measured bytes into network-utilization numbers and, when enabled, to
//!   delay fetches accordingly.

#![warn(missing_docs)]

pub mod control;
pub mod fabric;
pub mod ledger;
pub mod metrics;
pub mod transport;

pub use control::{Carrier, ControlClient, ControlLedgerConfig, ControlLedgerService};
pub use fabric::{EdgeListClient, EdgeListService, FabricConfig, FetchError, PendingFetch};
pub use ledger::{Ledger, LedgerSummary};
pub use metrics::{ClusterMetrics, Counter, Counters, Counts, Scope, TrafficClass};
pub use transport::{
    ChannelTransport, ClaimSource, CrashAt, CtrlOp, CtrlPayload, CtrlReply, CtrlRequest, FaultPlan,
    FetchedLists, RetryPolicy, WireReply, WireRequest,
};

/// Identifier of a part (one NUMA socket of one machine). Parts are
/// numbered `machine * sockets_per_machine + socket`.
pub type PartId = usize;

/// Optional network cost model.
///
/// The reproduction's channels are effectively infinitely fast, so wall
/// clock alone cannot show communication effects at the paper's scale.
/// When a model is supplied, every cross-machine fetch is delayed by
/// `latency + bytes / bandwidth`, and Figure 19's utilization is computed
/// as `bytes / (elapsed × bandwidth)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// One-way request latency in microseconds.
    pub latency_us: f64,
    /// Link bandwidth in gigabits per second (the paper's IB is 56 Gbps).
    pub bandwidth_gbps: f64,
}

impl NetworkModel {
    /// The paper's 56 Gbps InfiniBand with a ~2 µs latency.
    pub fn infiniband_56g() -> Self {
        NetworkModel { latency_us: 2.0, bandwidth_gbps: 56.0 }
    }

    /// Transfer time for `bytes` under this model.
    pub fn transfer_time(&self, bytes: u64) -> std::time::Duration {
        let secs = self.latency_us * 1e-6 + (bytes as f64 * 8.0) / (self.bandwidth_gbps * 1e9);
        std::time::Duration::from_secs_f64(secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_model_transfer_time() {
        let m = NetworkModel::infiniband_56g();
        let t = m.transfer_time(7_000_000); // 56 Mbit = 1ms at 56 Gbps
        assert!(t.as_secs_f64() > 0.9e-3 && t.as_secs_f64() < 1.2e-3, "{t:?}");
        // Latency floor.
        let t0 = m.transfer_time(0);
        assert!(t0.as_secs_f64() >= 2e-6);
    }
}
