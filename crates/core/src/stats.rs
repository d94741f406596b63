//! Run statistics: counts, timing breakdown, and traffic summary.

use gpm_cluster::{Counter, Counts};
use gpm_obs::{BreakdownFractions, ControlSection, FailureSection};
use std::time::Duration;

/// Per-part timing and output of one run.
#[derive(Debug, Clone, Default)]
pub struct PartStats {
    /// Embeddings produced (or visited) by this part. Over an engine
    /// run the parts' counts add up to [`RunStats::count`]; a caller that
    /// derives its total from several runs need not keep that (the
    /// k-GraphPi motif census reports induced totals over parts that
    /// counted non-induced).
    pub count: u64,
    /// Wall time spent extending embeddings (the paper's "compute").
    pub compute: Duration,
    /// Wall time blocked waiting for remote data (the paper's "network").
    pub network: Duration,
    /// The part of `network` before the responder began serving the
    /// attempt that answered: queued behind its other requests, or
    /// behind lost attempts (`WaitSplit::queue`). Zero for baselines,
    /// whose waits are not split.
    pub responder_queue: Duration,
    /// The part of `network` slept in retry backoff
    /// (`WaitSplit::backoff`).
    pub retry_backoff: Duration,
    /// Wall time in resolve-phase bookkeeping: bucketing, horizontal
    /// table, cache queries, chunk management (the paper's "scheduler").
    pub scheduler: Duration,
    /// Wall time maintaining a general software cache (task↔data map
    /// updates, reference GC). Zero for Khuzdul, whose static cache has no
    /// such bookkeeping; reported by the G-thinker baseline (Figure 15).
    pub cache: Duration,
    /// Peak number of live extendable embeddings across all levels of
    /// this part — the §4.2 memory bound: at most
    /// `chunk_capacity × (depth - 1)` regardless of graph size.
    pub peak_embeddings: usize,
    /// Roots this part obtained from other parts through the steal
    /// ledger (cursor steals and spill claims). Zero with stealing off.
    pub roots_stolen: u64,
    /// Roots this part donated to the steal ledger's spill for starving
    /// parts. Zero with stealing off.
    pub roots_donated: u64,
}

/// Communication summary of one run (deltas over the run window).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficSummary {
    /// Bytes that crossed machine boundaries.
    pub network_bytes: u64,
    /// Bytes that crossed only NUMA-socket boundaries.
    pub cross_socket_bytes: u64,
    /// Fetch requests issued.
    pub requests: u64,
    /// Software-cache hits during the run.
    pub cache_hits: u64,
    /// Software-cache misses during the run.
    pub cache_misses: u64,
    /// Pending lists a chunk fill's share table absorbed: embeddings that
    /// read an earlier embedding's list instead of fetching it again.
    pub coalesced: u64,
    /// Fetches re-submitted by the fabric's retry machinery (non-zero
    /// only under fault injection).
    pub retries: u64,
}

impl From<&Counts> for TrafficSummary {
    fn from(c: &Counts) -> Self {
        TrafficSummary {
            network_bytes: c[Counter::NetworkBytes],
            cross_socket_bytes: c[Counter::NumaBytes],
            requests: c[Counter::FetchRequests],
            cache_hits: c[Counter::CacheHits],
            cache_misses: c[Counter::CacheMisses],
            coalesced: c[Counter::Coalesced],
            retries: c[Counter::Retries],
        }
    }
}

/// The report's `traffic` section, field for field.
impl From<&TrafficSummary> for gpm_obs::TrafficTotals {
    fn from(t: &TrafficSummary) -> Self {
        gpm_obs::TrafficTotals {
            fetch_requests: t.requests,
            cache_hits: t.cache_hits,
            cache_misses: t.cache_misses,
            coalesced_requests: t.coalesced,
            retries: t.retries,
            network_bytes: t.network_bytes,
            numa_bytes: t.cross_socket_bytes,
        }
    }
}

impl TrafficSummary {
    /// Cache hit rate in `[0, 1]`, or `None` without lookups.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        (total > 0).then(|| self.cache_hits as f64 / total as f64)
    }
}

impl PartStats {
    /// Folds another pass's stats into this one (the recovery pass adds
    /// re-execution work to a survivor's main-pass stats; a multi-plan
    /// app adds its plans). Every field adds, except the peak, which is a
    /// high-water mark.
    pub fn merge(&mut self, other: &PartStats) {
        self.count += other.count;
        self.compute += other.compute;
        self.network += other.network;
        self.responder_queue += other.responder_queue;
        self.retry_backoff += other.retry_backoff;
        self.scheduler += other.scheduler;
        self.cache += other.cache;
        self.peak_embeddings = self.peak_embeddings.max(other.peak_embeddings);
        self.roots_stolen += other.roots_stolen;
        self.roots_donated += other.roots_donated;
    }

    /// This part's row of the report's critical-path section: compute as
    /// timed, and the network time split three ways — the queueing and
    /// backoff its waits measured, and the rest waiting on a reply.
    fn critical_path(&self, part: usize) -> gpm_obs::PartCriticalPath {
        let ns = |d: Duration| d.as_nanos() as u64;
        let (queue, backoff) = (ns(self.responder_queue), ns(self.retry_backoff));
        gpm_obs::PartCriticalPath {
            part: part as u64,
            compute_ns: ns(self.compute),
            fetch_wait_ns: ns(self.network).saturating_sub(queue + backoff),
            responder_queue_ns: queue,
            retry_backoff_ns: backoff,
        }
    }
}

/// The result of one engine run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Total embeddings counted (or visited).
    pub count: u64,
    /// End-to-end wall time.
    pub elapsed: Duration,
    /// Per-part detail.
    pub per_part: Vec<PartStats>,
    /// Communication summary.
    pub traffic: TrafficSummary,
    /// Fail-stop failure and failover accounting (deltas over the run
    /// window; all-zero for a fault-free run).
    pub failures: FailureSection,
    /// Control-plane message accounting (deltas over the run window).
    /// Non-zero only when the run coordinated steals and claims through
    /// the message-based ledger; deliberately *not* folded into
    /// [`TrafficSummary`], so shared-mode baselines stay bit-identical.
    pub control: ControlSection,
}

impl RunStats {
    /// Folds another run into this one: a multi-plan app's total, a
    /// service's aggregate over its queries. Every field adds — parts
    /// pairwise through [`PartStats::merge`] — except `parts_failed`,
    /// which each run reports as the dead set it saw by its end and so
    /// folds as a high-water mark.
    pub fn absorb(&mut self, run: &RunStats) {
        self.count += run.count;
        self.elapsed += run.elapsed;
        if self.per_part.len() < run.per_part.len() {
            self.per_part.resize_with(run.per_part.len(), PartStats::default);
        }
        for (mine, theirs) in self.per_part.iter_mut().zip(&run.per_part) {
            mine.merge(theirs);
        }
        let (t, r) = (&mut self.traffic, &run.traffic);
        t.network_bytes += r.network_bytes;
        t.cross_socket_bytes += r.cross_socket_bytes;
        t.requests += r.requests;
        t.cache_hits += r.cache_hits;
        t.cache_misses += r.cache_misses;
        t.coalesced += r.coalesced;
        t.retries += r.retries;
        let (f, r) = (&mut self.failures, &run.failures);
        f.parts_failed = f.parts_failed.max(r.parts_failed);
        f.rerouted_requests += r.rerouted_requests;
        f.rerouted_bytes += r.rerouted_bytes;
        f.reexecuted_roots += r.reexecuted_roots;
        let (c, r) = (&mut self.control, &run.control);
        c.sent += r.sent;
        c.retried += r.retried;
        c.dropped += r.dropped;
    }

    /// This run's value of a row of the counter table, or `None` for a
    /// row no summary carries (the serving side, raw wire bytes). The
    /// inverse of the summaries' and sections' `from(&Counts)`.
    pub fn counter(&self, counter: Counter) -> Option<u64> {
        let (t, f, c) = (&self.traffic, &self.failures, &self.control);
        Some(match counter {
            Counter::NetworkBytes => t.network_bytes,
            Counter::NumaBytes => t.cross_socket_bytes,
            Counter::FetchRequests => t.requests,
            Counter::CacheHits => t.cache_hits,
            Counter::CacheMisses => t.cache_misses,
            Counter::Coalesced => t.coalesced,
            Counter::Retries => t.retries,
            Counter::ReroutedRequests => f.rerouted_requests,
            Counter::ReroutedBytes => f.rerouted_bytes,
            Counter::CtrlSent => c.sent,
            Counter::CtrlRetried => c.retried,
            Counter::CtrlDropped => c.dropped,
            _ => return None,
        })
    }

    /// The simulated cluster makespan: the busiest part's accounted time
    /// (compute + network + scheduler + cache).
    ///
    /// On a host with fewer physical cores than simulated machines the
    /// wall-clock `elapsed` of a run measures core contention, not the
    /// cluster; the makespan of per-part busy times is the standard
    /// work-span estimate of what an actual cluster would take. Most
    /// accurate when the engine ran with
    /// `EngineConfig::sequential_parts = true`, which removes the
    /// contention from the per-part timers themselves.
    pub fn simulated_makespan(&self) -> Duration {
        self.per_part
            .iter()
            .map(|p| p.compute + p.network + p.scheduler + p.cache)
            .max()
            .unwrap_or(self.elapsed)
    }

    /// The report's critical-path section: one row per part, read off
    /// its timers.
    pub fn critical_path(&self) -> gpm_obs::CriticalPathSection {
        let rows = self.per_part.iter().enumerate().map(|(i, p)| p.critical_path(i));
        gpm_obs::CriticalPathSection::from_parts(rows.collect())
    }

    /// Converts this run into a [`gpm_obs::RunReport`] skeleton: count,
    /// elapsed time, traffic totals (field-for-field from
    /// [`TrafficSummary`]), breakdown and critical-path fractions, and
    /// per-part detail. Recorder-owned sections (histograms, span
    /// accounting) stay empty; `Engine::report` fills them via
    /// `gpm_obs::Recorder::augment_report`.
    pub fn to_report(&self, system: &str) -> gpm_obs::RunReport {
        gpm_obs::RunReport {
            schema_version: gpm_obs::REPORT_SCHEMA_VERSION,
            system: system.to_string(),
            count: self.count,
            elapsed_ns: self.elapsed.as_nanos() as u64,
            traffic: (&self.traffic).into(),
            breakdown: self.breakdown(),
            per_part: self
                .per_part
                .iter()
                .enumerate()
                .map(|(i, p)| gpm_obs::PartReport {
                    part: i as u64,
                    count: p.count,
                    compute_ns: p.compute.as_nanos() as u64,
                    network_ns: p.network.as_nanos() as u64,
                    scheduler_ns: p.scheduler.as_nanos() as u64,
                    cache_ns: p.cache.as_nanos() as u64,
                    peak_embeddings: p.peak_embeddings as u64,
                    roots_stolen: p.roots_stolen,
                    roots_donated: p.roots_donated,
                })
                .collect(),
            histograms: Vec::new(),
            spans: gpm_obs::SpanStats::default(),
            critical_path: self.critical_path(),
            failures: self.failures,
            rebalance: gpm_obs::RebalanceSection::default(),
            control: self.control,
            queries: Vec::new(),
            incidents: Vec::new(),
        }
    }

    /// Aggregated fractional breakdown over all parts (Figure 15).
    pub fn breakdown(&self) -> BreakdownFractions {
        let sum = |f: fn(&PartStats) -> Duration| -> f64 {
            self.per_part.iter().map(|p| f(p).as_secs_f64()).sum()
        };
        let compute = sum(|p| p.compute);
        let network = sum(|p| p.network);
        let scheduler = sum(|p| p.scheduler);
        let cache = sum(|p| p.cache);
        let total = compute + network + scheduler + cache;
        if total == 0.0 {
            return BreakdownFractions::default();
        }
        BreakdownFractions {
            compute: compute / total,
            network: network / total,
            scheduler: scheduler / total,
            cache: cache / total,
        }
    }
}

impl std::fmt::Display for RunStats {
    /// One-line human summary: count, wall time, traffic, breakdown.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let b = self.breakdown();
        write!(
            f,
            "{} embeddings in {:.3?} ({} net bytes / {} fetches; {:.0}% compute, \
             {:.0}% network, {:.0}% scheduler)",
            self.count,
            self.elapsed,
            self.traffic.network_bytes,
            self.traffic.requests,
            b.compute * 100.0,
            b.network * 100.0,
            b.scheduler * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_summary_mentions_everything() {
        let stats = RunStats {
            count: 42,
            elapsed: Duration::from_millis(5),
            per_part: vec![PartStats {
                compute: Duration::from_millis(4),
                network: Duration::from_millis(1),
                ..PartStats::default()
            }],
            traffic: TrafficSummary { network_bytes: 1000, requests: 3, ..Default::default() },
            ..Default::default()
        };
        let s = stats.to_string();
        assert!(s.contains("42 embeddings"));
        assert!(s.contains("1000 net bytes"));
        assert!(s.contains("compute"));
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let stats = RunStats {
            count: 1,
            elapsed: Duration::from_secs(1),
            per_part: vec![
                PartStats {
                    count: 1,
                    compute: Duration::from_millis(600),
                    network: Duration::from_millis(300),
                    scheduler: Duration::from_millis(100),
                    ..PartStats::default()
                },
                PartStats {
                    count: 0,
                    compute: Duration::from_millis(400),
                    network: Duration::from_millis(500),
                    scheduler: Duration::from_millis(100),
                    ..PartStats::default()
                },
            ],
            ..Default::default()
        };
        let b = stats.breakdown();
        assert!((b.compute + b.network + b.scheduler + b.cache - 1.0).abs() < 1e-9);
        assert!((b.compute - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_breakdown_is_zero() {
        let b = RunStats::default().breakdown();
        assert_eq!(b.compute, 0.0);
        assert_eq!(b.network, 0.0);
    }

    #[test]
    fn report_mirrors_traffic_summary_counter_for_counter() {
        let stats = RunStats {
            count: 9,
            elapsed: Duration::from_millis(2),
            per_part: vec![PartStats {
                count: 9,
                compute: Duration::from_millis(1),
                network: Duration::from_micros(500),
                scheduler: Duration::from_micros(500),
                peak_embeddings: 11,
                ..PartStats::default()
            }],
            traffic: TrafficSummary {
                network_bytes: 4096,
                cross_socket_bytes: 256,
                requests: 17,
                cache_hits: 5,
                cache_misses: 12,
                coalesced: 3,
                retries: 1,
            },
            failures: FailureSection {
                parts_failed: 1,
                rerouted_requests: 2,
                rerouted_bytes: 512,
                reexecuted_roots: 6,
            },
            control: ControlSection { sent: 40, retried: 3, dropped: 2 },
        };
        let r = stats.to_report("khuzdul");
        assert_eq!(r.system, "khuzdul");
        assert_eq!(r.count, stats.count);
        assert_eq!(r.elapsed_ns, 2_000_000);
        assert_eq!(r.traffic.fetch_requests, stats.traffic.requests);
        assert_eq!(r.traffic.cache_hits, stats.traffic.cache_hits);
        assert_eq!(r.traffic.cache_misses, stats.traffic.cache_misses);
        assert_eq!(r.traffic.coalesced_requests, stats.traffic.coalesced);
        assert_eq!(r.traffic.retries, stats.traffic.retries);
        assert_eq!(r.traffic.network_bytes, stats.traffic.network_bytes);
        assert_eq!(r.traffic.numa_bytes, stats.traffic.cross_socket_bytes);
        let b = stats.breakdown();
        assert_eq!(r.breakdown.compute, b.compute);
        assert_eq!(r.per_part.len(), 1);
        assert_eq!(r.per_part[0].peak_embeddings, 11);
        assert_eq!(r.failures.parts_failed, stats.failures.parts_failed);
        assert_eq!(r.failures.rerouted_requests, stats.failures.rerouted_requests);
        assert_eq!(r.failures.rerouted_bytes, stats.failures.rerouted_bytes);
        assert_eq!(r.failures.reexecuted_roots, stats.failures.reexecuted_roots);
        assert_eq!(r.control.sent, stats.control.sent);
        assert_eq!(r.control.retried, stats.control.retried);
        assert_eq!(r.control.dropped, stats.control.dropped);
        gpm_obs::validate_report(&r.to_json()).expect("converted report must validate");
    }

    /// `from(&Counts)` and `counter()` are the two directions of one
    /// mapping: a row a summary is built from reads back unchanged, and
    /// exactly the twelve rows a query is accountable for are carried.
    #[test]
    fn summaries_read_back_the_rows_they_were_built_from() {
        let row = gpm_cluster::Counters::default();
        for (i, &c) in Counter::ALL.iter().enumerate() {
            row.add(c, 100 + i as u64);
        }
        let counts = row.snapshot();
        let stats = RunStats {
            traffic: TrafficSummary::from(&counts),
            failures: FailureSection::from(&counts),
            control: ControlSection::from(&counts),
            ..RunStats::default()
        };
        let carried: Vec<Counter> =
            Counter::ALL.iter().copied().filter(|&c| stats.counter(c).is_some()).collect();
        assert_eq!(carried.len(), 12);
        for c in carried {
            assert_eq!(stats.counter(c), Some(counts[c]), "{}", c.name());
        }
        for c in [Counter::ServedRequests, Counter::BytesSent, Counter::PartsFailed] {
            assert_eq!(stats.counter(c), None, "{}", c.name());
        }
        assert_eq!((stats.failures.parts_failed, stats.failures.reexecuted_roots), (0, 0));
    }

    #[test]
    fn absorb_adds_every_field_and_keeps_high_water_marks() {
        let run = |k: u64| RunStats {
            count: k,
            elapsed: Duration::from_millis(k),
            per_part: vec![PartStats {
                count: k,
                compute: Duration::from_millis(2 * k),
                network: Duration::from_millis(3 * k),
                responder_queue: Duration::from_millis(k),
                retry_backoff: Duration::from_micros(k),
                scheduler: Duration::from_millis(4 * k),
                cache: Duration::from_millis(5 * k),
                peak_embeddings: 10 * k as usize,
                roots_stolen: 6 * k,
                roots_donated: 7 * k,
            }],
            traffic: TrafficSummary {
                network_bytes: k,
                cross_socket_bytes: 2 * k,
                requests: 3 * k,
                cache_hits: 4 * k,
                cache_misses: 5 * k,
                coalesced: 6 * k,
                retries: 7 * k,
            },
            failures: FailureSection {
                parts_failed: k,
                rerouted_requests: 2 * k,
                rerouted_bytes: 3 * k,
                reexecuted_roots: 4 * k,
            },
            control: ControlSection { sent: k, retried: 2 * k, dropped: 3 * k },
        };
        let mut total = RunStats::default();
        total.absorb(&run(1));
        total.absorb(&run(2));
        let sum = run(3);
        assert_eq!((total.count, total.elapsed), (sum.count, sum.elapsed));
        assert_eq!(total.traffic, sum.traffic);
        assert_eq!(total.control, sum.control);
        assert_eq!(total.failures, FailureSection { parts_failed: 2, ..sum.failures });
        let (part, want) = (&total.per_part[0], &sum.per_part[0]);
        assert_eq!(
            (part.count, part.compute, part.network, part.scheduler, part.cache),
            (want.count, want.compute, want.network, want.scheduler, want.cache)
        );
        assert_eq!(
            (part.responder_queue, part.retry_backoff, part.roots_stolen, part.roots_donated),
            (want.responder_queue, want.retry_backoff, want.roots_stolen, want.roots_donated)
        );
        assert_eq!(part.peak_embeddings, 20);
    }

    #[test]
    fn empty_run_report_has_zero_fractions() {
        // The Breakdown zero-total guard must survive the report path:
        // a run with no accounted time serializes finite zero fractions,
        // never NaN (which the JSON shim would render as null).
        let r = RunStats::default().to_report("khuzdul");
        assert_eq!(r.breakdown.compute, 0.0);
        assert_eq!(r.breakdown.network, 0.0);
        assert_eq!(r.breakdown.scheduler, 0.0);
        assert_eq!(r.breakdown.cache, 0.0);
        let json = r.to_json();
        assert!(!json.contains("null"), "zero-time breakdown must stay finite: {json}");
        gpm_obs::validate_report(&json).expect("empty-run report must validate");
    }

    #[test]
    fn hit_rate() {
        let t = TrafficSummary { cache_hits: 3, cache_misses: 1, ..Default::default() };
        assert!((t.cache_hit_rate().unwrap() - 0.75).abs() < 1e-9);
        assert_eq!(TrafficSummary::default().cache_hit_rate(), None);
    }
}
