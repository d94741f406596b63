//! The counter table: every traffic, failure and control counter the
//! workspace keeps, declared once.
//!
//! A row of the table is a [`Counter`]: its stable name (the key in
//! `/status` and incident bundles, and the stem of its `/metrics`
//! sample), its help text, and whether it is exported at all.
//! [`Counters`] is one atomic cell per row and [`Counts`] its plain
//! snapshot. A part's view and a query's view are both a [`Counters`];
//! the fabric and control clients hold a [`Scope`] naming one of each, so
//! an event is written once and lands in both. Nothing is summed on read
//! or folded on retire: a part row only ever grows, as a cumulative
//! counter must, and a query row holds exactly that query's share
//! however many others ran beside it.
//!
//! These counters back the paper's network-traffic tables (Table 6,
//! Figure 12, Figure 16, Figure 17).

use std::ops::{AddAssign, Index};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Classification of a transfer by topology distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Between sockets of the same machine (NUMA interconnect).
    CrossSocket,
    /// Between machines (the actual network).
    CrossMachine,
}

/// What the table says about one counter.
struct Row {
    name: &'static str,
    sample: &'static str,
    exported: bool,
    help: &'static str,
}

/// Declares the table: one line per counter gives the variant, its
/// stable name, whether it is exported, and its help text (which is also
/// the variant's documentation).
macro_rules! counters {
    ($($variant:ident $name:literal $exported:literal $help:literal;)+) => {
        /// One row of the counter table.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Counter {
            $(#[doc = $help] $variant,)+
        }

        impl Counter {
            /// Every row, in table order.
            pub const ALL: &'static [Counter] = &[$(Counter::$variant,)+];
            const ROWS: &'static [Row] = &[$(Row {
                name: $name,
                sample: concat!("gpm_", $name, "_total"),
                exported: $exported,
                help: $help,
            },)+];
        }
    };
}

counters! {
    FetchRequests "fetch_requests" true "Remote edge-list fetch requests issued";
    NetworkBytes "network_bytes" true "Bytes that crossed a machine boundary, both directions";
    NumaBytes "numa_bytes" true "Bytes that crossed only a socket boundary";
    CacheHits "cache_hits" true "Edge-list cache hits";
    CacheMisses "cache_misses" true "Edge-list cache misses";
    Coalesced "coalesced_requests" true "Lists a share table kept off the wire: sharers and held children";
    Retries "retries" true "Fetch attempts beyond the first";
    ReroutedRequests "rerouted_requests" true "Fetches rerouted to a replica after a part death";
    ReroutedBytes "rerouted_bytes" true "Bytes of fetches rerouted to a replica";
    ServedRequests "served_requests" true "Fetch requests served for other parts";
    ServedBytes "served_bytes" true "Response bytes served for other parts";
    CtrlSent "ctrl_sent" true "Control-plane messages sent, retries included";
    CtrlRetried "ctrl_retried" true "Control-plane message attempts beyond the first";
    CtrlDropped "ctrl_dropped" true "Control-plane messages dropped by fault injection";
    BytesSent "bytes_sent" false "Request bytes put on the wire";
    BytesReceived "bytes_received" false "Response bytes taken off the wire";
    ReroutedServedRequests "rerouted_served_requests" false "Rerouted fetches this part served";
    ReroutedServedBytes "rerouted_served_bytes" false "Bytes of the rerouted fetches this part served";
    PartsFailed "parts_failed" false "Promotions of this part to the fail-stop dead state";
}

/// Number of rows in the table.
const N: usize = Counter::ALL.len();

impl Counter {
    fn row(self) -> &'static Row {
        &Self::ROWS[self as usize]
    }

    /// The stable external name of this counter.
    pub fn name(self) -> &'static str {
        self.row().name
    }

    /// The name of this counter's `/metrics` sample: `gpm_<name>_total`.
    pub fn sample_name(self) -> &'static str {
        self.row().sample
    }

    /// One-line description, used as the `/metrics` help text.
    pub fn help(self) -> &'static str {
        self.row().help
    }

    /// The exported rows, in table order: the ones `/status` and incident
    /// bundles carry. The rest serve tests and the engine's own
    /// decisions.
    pub fn exported() -> impl Iterator<Item = Counter> {
        Self::ALL.iter().copied().filter(|c| c.row().exported)
    }
}

/// One atomic cell per table row. All methods are thread-safe; every
/// cell is a statistic that publishes no other data, hence `Relaxed`.
#[derive(Debug)]
pub struct Counters([AtomicU64; N]);

impl Default for Counters {
    fn default() -> Self {
        Counters(std::array::from_fn(|_| AtomicU64::new(0)))
    }
}

impl Counters {
    /// Adds `n` to one counter.
    pub fn add(&self, counter: Counter, n: u64) {
        self.0[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of one counter.
    pub fn get(&self, counter: Counter) -> u64 {
        self.0[counter as usize].load(Ordering::Relaxed)
    }

    /// Records one request of `req_bytes` answered with `resp_bytes`,
    /// classified by distance.
    pub fn add_transfer(&self, class: TrafficClass, req_bytes: u64, resp_bytes: u64) {
        self.add(Counter::FetchRequests, 1);
        self.add(Counter::BytesSent, req_bytes);
        self.add(Counter::BytesReceived, resp_bytes);
        let by_class = match class {
            TrafficClass::CrossMachine => Counter::NetworkBytes,
            TrafficClass::CrossSocket => Counter::NumaBytes,
        };
        self.add(by_class, req_bytes + resp_bytes);
    }

    /// A plain copy of every cell. Each is a relaxed load, so the copy is
    /// not one atomic cut, but every counter is individually exact and
    /// monotone — which is all a cumulative counter needs.
    pub fn snapshot(&self) -> Counts {
        Counts(std::array::from_fn(|i| self.0[i].load(Ordering::Relaxed)))
    }
}

/// A plain snapshot of the table: one value per row, read with
/// `counts[Counter::NetworkBytes]` and summed with `+=`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts([u64; N]);

impl Default for Counts {
    fn default() -> Self {
        Counts([0; N])
    }
}

impl Index<Counter> for Counts {
    type Output = u64;

    fn index(&self, counter: Counter) -> &u64 {
        &self.0[counter as usize]
    }
}

impl AddAssign<&Counts> for Counts {
    fn add_assign(&mut self, other: &Counts) {
        for (mine, theirs) in self.0.iter_mut().zip(other.0) {
            *mine += theirs;
        }
    }
}

/// The counted half of a report's `failures` section; `parts_failed` and
/// `reexecuted_roots` are the engine's own observations.
impl From<&Counts> for gpm_obs::FailureSection {
    fn from(c: &Counts) -> Self {
        gpm_obs::FailureSection {
            rerouted_requests: c[Counter::ReroutedRequests],
            rerouted_bytes: c[Counter::ReroutedBytes],
            ..Default::default()
        }
    }
}

/// A report's `control` section.
impl From<&Counts> for gpm_obs::ControlSection {
    fn from(c: &Counts) -> Self {
        gpm_obs::ControlSection {
            sent: c[Counter::CtrlSent],
            retried: c[Counter::CtrlRetried],
            dropped: c[Counter::CtrlDropped],
        }
    }
}

/// Where a client's events land: the row of the part it runs on and the
/// row of the query it works for. One call writes both.
#[derive(Debug, Clone)]
pub struct Scope {
    part: Arc<Counters>,
    query: Arc<Counters>,
}

impl Scope {
    /// Adds `n` to `counter` in both rows.
    pub fn add(&self, counter: Counter, n: u64) {
        self.part.add(counter, n);
        self.query.add(counter, n);
    }

    /// [`Counters::add_transfer`] on both rows.
    pub fn add_transfer(&self, class: TrafficClass, req_bytes: u64, resp_bytes: u64) {
        self.part.add_transfer(class, req_bytes, resp_bytes);
        self.query.add_transfer(class, req_bytes, resp_bytes);
    }
}

/// The per-part rows of one cluster. A query's row is not kept here: its
/// run makes one (`Arc<Counters>`), hands it to every client and control
/// service it starts, and reads it back itself; [`ClusterMetrics::scope`]
/// pairs it with a part's row.
#[derive(Debug, Clone)]
pub struct ClusterMetrics {
    parts: Vec<Arc<Counters>>,
    sockets_per_machine: usize,
}

impl ClusterMetrics {
    /// Fresh counters for `parts` parts.
    pub fn new(parts: usize, sockets_per_machine: usize) -> Self {
        ClusterMetrics { parts: (0..parts).map(|_| Arc::default()).collect(), sockets_per_machine }
    }

    /// The scope of a client on `part` working for the query whose row
    /// is `query`.
    ///
    /// # Panics
    ///
    /// Panics if `part` is out of range.
    pub fn scope(&self, part: usize, query: &Arc<Counters>) -> Scope {
        Scope { part: Arc::clone(&self.parts[part]), query: Arc::clone(query) }
    }

    /// Number of parts tracked.
    pub fn part_count(&self) -> usize {
        self.parts.len()
    }

    /// Sockets per machine (for traffic classification).
    pub fn sockets_per_machine(&self) -> usize {
        self.sockets_per_machine
    }

    /// The row of one part.
    ///
    /// # Panics
    ///
    /// Panics if `part` is out of range.
    pub fn part(&self, part: usize) -> &Arc<Counters> {
        &self.parts[part]
    }

    /// Classifies a transfer between two parts.
    pub fn classify(&self, from: usize, to: usize) -> TrafficClass {
        if from / self.sockets_per_machine == to / self.sockets_per_machine {
            TrafficClass::CrossSocket
        } else {
            TrafficClass::CrossMachine
        }
    }

    /// Cluster-wide totals: the part rows summed, counter by counter.
    /// `totals()[Counter::NetworkBytes]` is the paper's "network
    /// traffic" metric.
    pub fn totals(&self) -> Counts {
        let mut sum = Counts::default();
        for part in &self.parts {
            sum += &part.snapshot();
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_has_its_own_name_and_index() {
        let names: std::collections::HashSet<_> = Counter::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), Counter::ALL.len(), "two rows share a name");
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "{c:?} is out of table order");
            assert!(!c.help().is_empty());
        }
    }

    /// The external contract: `/status` and incident bundles key their
    /// values by these strings, in this order. A rename or a reorder must
    /// show up as a diff of this list.
    #[test]
    fn exported_names_are_the_recorded_fourteen() {
        let names: Vec<_> = Counter::exported().map(Counter::name).collect();
        assert_eq!(
            names,
            [
                "fetch_requests",
                "network_bytes",
                "numa_bytes",
                "cache_hits",
                "cache_misses",
                "coalesced_requests",
                "retries",
                "rerouted_requests",
                "rerouted_bytes",
                "served_requests",
                "served_bytes",
                "ctrl_sent",
                "ctrl_retried",
                "ctrl_dropped",
            ]
        );
    }

    #[test]
    fn transfers_land_by_class_and_sum_over_parts() {
        let m = ClusterMetrics::new(4, 2);
        m.part(0).add_transfer(TrafficClass::CrossMachine, 100, 900);
        m.part(1).add_transfer(TrafficClass::CrossSocket, 50, 450);
        assert_eq!(m.part(0).get(Counter::BytesSent), 100);
        assert_eq!(m.part(0).get(Counter::BytesReceived), 900);
        let totals = m.totals();
        assert_eq!(totals[Counter::NetworkBytes], 1000);
        assert_eq!(totals[Counter::NumaBytes], 500);
        assert_eq!(totals[Counter::FetchRequests], 2);
        assert_eq!(totals[Counter::Retries], 0);
    }

    #[test]
    fn classification_by_machine() {
        let m = ClusterMetrics::new(4, 2);
        assert_eq!(m.classify(0, 1), TrafficClass::CrossSocket);
        assert_eq!(m.classify(0, 2), TrafficClass::CrossMachine);
        assert_eq!(m.classify(3, 2), TrafficClass::CrossSocket);
        let m1 = ClusterMetrics::new(4, 1);
        assert_eq!(m1.classify(0, 1), TrafficClass::CrossMachine);
    }

    #[test]
    fn a_scoped_event_shows_in_both_rows_and_a_part_event_in_one() {
        let m = ClusterMetrics::new(2, 1);
        let query = Arc::new(Counters::default());
        let scope = m.scope(1, &query);
        scope.add(Counter::Retries, 2);
        scope.add_transfer(TrafficClass::CrossMachine, 10, 90);
        m.part(1).add(Counter::ServedBytes, 64);
        assert_eq!(m.part(1).get(Counter::Retries), 2);
        assert_eq!(query.get(Counter::Retries), 2);
        assert_eq!(m.part(1).get(Counter::NetworkBytes), 100);
        assert_eq!(query.get(Counter::NetworkBytes), 100);
        assert_eq!(m.part(1).get(Counter::ServedBytes), 64);
        assert_eq!(query.get(Counter::ServedBytes), 0);
        // The other part's row saw none of it.
        assert_eq!(m.part(0).snapshot(), Counts::default());
    }

    #[test]
    fn counts_add_counter_by_counter() {
        let a = Counters::default();
        a.add(Counter::CacheHits, 3);
        let b = Counters::default();
        b.add(Counter::CacheHits, 4);
        b.add(Counter::CtrlSent, 1);
        let mut sum = a.snapshot();
        sum += &b.snapshot();
        assert_eq!(sum[Counter::CacheHits], 7);
        assert_eq!(sum[Counter::CtrlSent], 1);
    }
}
