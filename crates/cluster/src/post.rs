//! Typed point-to-point mailboxes between parts.
//!
//! The "moving computation to data" baseline ships partially-constructed
//! embeddings (plus carried edge lists) between machines instead of
//! fetching data; the G-thinker baseline ships task state. This module
//! provides the byte-accounted transport those baselines use.
//!
//! Like the fetch fabric, the post office propagates a **trace
//! context**: every message carries an auto-assigned id and its sender,
//! and an observed office (see [`PostOffice::new_observed`]) records
//! linked `PostSend`/`PostRecv` instants — so a baseline trace shows the
//! same send→receive arrows the engine's fetch lifecycle gets.

use crate::metrics::ClusterMetrics;
use crate::PartId;
use crossbeam::channel::{unbounded, Receiver, Sender};
use gpm_obs::{Recorder, SpanKind};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Internal channel payload: the message plus its trace context.
#[derive(Debug)]
struct Envelope<T> {
    /// Auto-assigned message id (nonzero), the causal link between the
    /// send and receive instants.
    msg_id: u64,
    /// The sending part.
    from: PartId,
    msg: T,
}

/// A cluster-wide typed mailbox network: every part can send to every
/// part; each part owns one receive queue.
///
/// # Example
///
/// ```
/// use gpm_cluster::post::PostOffice;
/// use gpm_cluster::metrics::ClusterMetrics;
///
/// let metrics = ClusterMetrics::new(2, 1);
/// let post: PostOffice<String> = PostOffice::new(2, metrics);
/// let a = post.endpoint(0);
/// let b = post.endpoint(1);
/// a.send(1, "hello".to_string(), 5);
/// assert_eq!(b.try_recv(), Some("hello".to_string()));
/// ```
#[derive(Debug)]
pub struct PostOffice<T> {
    senders: Vec<Sender<Envelope<T>>>,
    receivers: Vec<Receiver<Envelope<T>>>,
    metrics: ClusterMetrics,
    obs: Arc<Recorder>,
    next_id: Arc<AtomicU64>,
}

impl<T: Send> PostOffice<T> {
    /// Creates mailboxes for `parts` parts reporting into `metrics`.
    pub fn new(parts: usize, metrics: ClusterMetrics) -> Self {
        Self::new_observed(parts, metrics, Recorder::disabled())
    }

    /// Like [`PostOffice::new`], additionally recording a linked
    /// `PostSend` instant per send and `PostRecv` per delivery into
    /// `obs` (both carry the message's auto-assigned id as their causal
    /// link).
    pub fn new_observed(parts: usize, metrics: ClusterMetrics, obs: Arc<Recorder>) -> Self {
        assert_eq!(metrics.part_count(), parts, "metrics sized for a different cluster");
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..parts).map(|_| unbounded::<Envelope<T>>()).unzip();
        PostOffice { senders, receivers, metrics, obs, next_id: Arc::new(AtomicU64::new(0)) }
    }

    /// The endpoint of `part`: cheap to clone; receiving is multi-consumer
    /// (clones share the same queue).
    ///
    /// # Panics
    ///
    /// Panics if `part` is out of range.
    pub fn endpoint(&self, part: PartId) -> Endpoint<T> {
        assert!(part < self.senders.len(), "part out of range");
        Endpoint {
            part,
            senders: self.senders.clone(),
            receiver: self.receivers[part].clone(),
            metrics: self.metrics.clone(),
            obs: Arc::clone(&self.obs),
            next_id: Arc::clone(&self.next_id),
        }
    }

    /// The shared metrics.
    pub fn metrics(&self) -> &ClusterMetrics {
        &self.metrics
    }
}

/// Why a blocking receive returned no message.
///
/// Distinguishing the two matters for failure detection: a quiet peer
/// ([`RecvError::Timeout`]) may still send later, while a severed queue
/// ([`RecvError::Disconnected`]) can never deliver again, so a caller
/// waiting on a crashed peer should stop on the first receive instead
/// of re-arming the timeout forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// No message arrived before the deadline.
    Timeout,
    /// Every sender has been dropped: no message can ever arrive.
    Disconnected,
}

/// One part's sending/receiving endpoint of a [`PostOffice`].
#[derive(Debug, Clone)]
pub struct Endpoint<T> {
    part: PartId,
    senders: Vec<Sender<Envelope<T>>>,
    receiver: Receiver<Envelope<T>>,
    metrics: ClusterMetrics,
    obs: Arc<Recorder>,
    next_id: Arc<AtomicU64>,
}

impl<T: Send> Endpoint<T> {
    /// The part this endpoint belongs to.
    pub fn part(&self) -> PartId {
        self.part
    }

    /// Number of parts in the network.
    pub fn part_count(&self) -> usize {
        self.senders.len()
    }

    /// Sends `msg` to `to`, accounting `bytes` of traffic (the caller
    /// knows the serialized size of its message type).
    ///
    /// # Panics
    ///
    /// Panics if `to` is out of range or its queue is disconnected.
    pub fn send(&self, to: PartId, msg: T, bytes: u64) {
        let class = self.metrics.classify(self.part, to);
        self.metrics.part(self.part).add_transfer(class, bytes, 0);
        // Offset by one so 0 stays "unlinked" (gpm_obs::Span::link).
        let msg_id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        self.obs.event(0, SpanKind::PostSend, self.part as u32, bytes, msg_id);
        self.senders[to]
            .send(Envelope { msg_id, from: self.part, msg })
            .expect("post office receiver dropped");
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<T> {
        self.receiver.try_recv().ok().map(|env| self.open(env))
    }

    /// Blocking receive with timeout, distinguishing an empty queue
    /// ([`RecvError::Timeout`]) from a dead one
    /// ([`RecvError::Disconnected`]).
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvError> {
        use crossbeam::channel::RecvTimeoutError;
        match self.receiver.recv_timeout(timeout) {
            Ok(env) => Ok(self.open(env)),
            Err(RecvTimeoutError::Timeout) => Err(RecvError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(RecvError::Disconnected),
        }
    }

    /// Number of messages waiting in this part's queue.
    pub fn pending(&self) -> usize {
        self.receiver.len()
    }

    fn open(&self, env: Envelope<T>) -> T {
        self.obs.event(0, SpanKind::PostRecv, self.part as u32, env.from as u64, env.msg_id);
        env.msg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Counter, TrafficClass};
    use gpm_obs::ObsConfig;

    #[test]
    fn roundtrip_and_accounting() {
        let metrics = ClusterMetrics::new(4, 2);
        let post: PostOffice<u32> = PostOffice::new(4, metrics);
        let a = post.endpoint(0);
        let c = post.endpoint(2);
        a.send(2, 99, 40); // machine 0 -> machine 1
        assert_eq!(c.try_recv(), Some(99));
        assert_eq!(c.try_recv(), None);
        assert_eq!(post.metrics().totals()[Counter::NetworkBytes], 40);
        a.send(1, 1, 10); // same machine, different socket
        assert_eq!(post.metrics().totals()[Counter::NumaBytes], 10);
        assert_eq!(post.metrics().classify(0, 1), TrafficClass::CrossSocket);
    }

    #[test]
    fn recv_timeout_distinguishes_timeout_from_disconnect() {
        let post: PostOffice<()> = PostOffice::new(1, ClusterMetrics::new(1, 1));
        let mut e = post.endpoint(0);
        assert_eq!(e.recv_timeout(Duration::from_millis(5)), Err(RecvError::Timeout));
        // Sever every sender (the office's and the endpoint's own): a
        // dead queue now surfaces immediately, not after the timeout.
        drop(post);
        e.senders.clear();
        let start = std::time::Instant::now();
        assert_eq!(e.recv_timeout(Duration::from_secs(10)), Err(RecvError::Disconnected));
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "disconnect must not wait out the timeout"
        );
    }

    #[test]
    fn cross_thread_delivery() {
        let post: PostOffice<usize> = PostOffice::new(2, ClusterMetrics::new(2, 1));
        let tx = post.endpoint(0);
        let rx = post.endpoint(1);
        let t = std::thread::spawn(move || {
            let mut got = Vec::new();
            while got.len() < 10 {
                if let Ok(m) = rx.recv_timeout(Duration::from_secs(1)) {
                    got.push(m);
                }
            }
            got
        });
        for i in 0..10 {
            tx.send(1, i, 8);
        }
        let got = t.join().unwrap();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn pending_counts_queue_depth() {
        let post: PostOffice<u8> = PostOffice::new(2, ClusterMetrics::new(2, 1));
        let e0 = post.endpoint(0);
        let e1 = post.endpoint(1);
        e0.send(1, 1, 1);
        e0.send(1, 2, 1);
        assert_eq!(e1.pending(), 2);
    }

    #[test]
    fn observed_office_links_send_to_recv() {
        let obs = Recorder::new(&ObsConfig::enabled());
        let post: PostOffice<u8> =
            PostOffice::new_observed(2, ClusterMetrics::new(2, 1), Arc::clone(&obs));
        let e0 = post.endpoint(0);
        let e1 = post.endpoint(1);
        e0.send(1, 7, 24);
        e0.send(1, 8, 24);
        assert_eq!(e1.try_recv(), Some(7));
        assert_eq!(e1.try_recv(), Some(8));
        let spans = obs.spans();
        let sends: Vec<_> = spans.iter().filter(|s| s.kind == SpanKind::PostSend).collect();
        let recvs: Vec<_> = spans.iter().filter(|s| s.kind == SpanKind::PostRecv).collect();
        assert_eq!(sends.len(), 2);
        assert_eq!(recvs.len(), 2);
        for send in &sends {
            assert_ne!(send.link, 0);
            assert!(
                recvs.iter().any(|r| r.link == send.link && r.arg == 0),
                "send {} has no matching recv from part 0",
                send.link
            );
        }
        assert_ne!(sends[0].link, sends[1].link, "distinct messages share a link");
    }

    #[test]
    fn unobserved_office_records_nothing() {
        let post: PostOffice<u8> = PostOffice::new(2, ClusterMetrics::new(2, 1));
        let e0 = post.endpoint(0);
        e0.send(1, 1, 1);
        post.endpoint(1).try_recv();
        // The disabled recorder saw nothing.
        assert_eq!(e0.obs.spans_recorded(), 0);
    }

    #[test]
    #[should_panic(expected = "metrics sized")]
    fn mismatched_metrics_panics() {
        let _: PostOffice<u8> = PostOffice::new(3, ClusterMetrics::new(2, 1));
    }
}
