//! The scrapeable status plane of a resident [`MiningService`].
//!
//! [`StatusServer`] binds a plain-`std` blocking HTTP listener (no new
//! dependencies — one line of request parsing is all a scraper needs)
//! and serves:
//!
//! * `GET /metrics` — Prometheus text exposition (format 0.0.4). The
//!   counters are computed from the **same sources**
//!   [`MiningService::report`] sums — the completed, non-memoized query
//!   outcomes — so the final scrape reconciles *exactly* with the
//!   schema-v4 `RunReport`, sample for sample.
//! * `GET /status` — a [`StatusDoc`] for humans and `gpm top`, which
//!   reads it back through [`read_status`]: service
//!   state, admission queue, live per-query progress with ETA, the
//!   recent completions and the slow-query log (both read off the
//!   service's admission history), and the live cumulative
//!   [`ClusterMetrics`] counters (these deliberately live outside the
//!   reconciliation contract — in-flight queries move them before any
//!   outcome exists; a scraper derives rates from two scrapes, as for
//!   any Prometheus counter).
//! * `GET /incidents` — the incident bundles captured so far, in
//!   capture order, mirroring the report's `incidents[]` section. Each
//!   entry carries the on-disk path of its full schema-validated
//!   bundle; `gpm incident show <path>` renders it.
//! * `GET /quit` — flags quit; `gpm serve --status-linger-ms` polls
//!   [`StatusServer::quit_requested`] so CI can end a linger cleanly.
//!
//! The server thread does all rendering and keeps no history; the
//! mining hot path is never touched — scrapes read the same atomics
//! and brief locks the report path already reads.
//!
//! [`ClusterMetrics`]: gpm_cluster::ClusterMetrics

use crate::engine::PartHealth;
use crate::incident::counter_snapshot;
use crate::service::{sum_outcomes, Completion, MemoStats, MiningService};
use gpm_cluster::Counter;
use gpm_obs::{
    render_prometheus, CounterSnapshot, HolderReroute, ProgressSnapshot, PromKind, PromMetric,
};
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A background HTTP exporter over one [`MiningService`]. Stops and
/// joins on drop.
#[derive(Debug)]
pub struct StatusServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    quit: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl StatusServer {
    /// Binds `addr` and starts serving `svc`; port 0 picks a free port
    /// (see [`StatusServer::local_addr`]).
    ///
    /// # Errors
    ///
    /// Returns the bind error if the address is unavailable.
    pub fn start(svc: Arc<MiningService>, addr: &str) -> std::io::Result<StatusServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let quit = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let thread_quit = Arc::clone(&quit);
        let handle = std::thread::Builder::new()
            .name("khuzdul-status".to_string())
            .spawn(move || serve_loop(&listener, &svc, &thread_stop, &thread_quit))
            .expect("spawn status server");
        Ok(StatusServer { local_addr, stop, quit, handle: Some(handle) })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Whether some client requested `GET /quit`.
    pub fn quit_requested(&self) -> bool {
        self.quit.load(Ordering::SeqCst)
    }
}

impl Drop for StatusServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn serve_loop(
    listener: &TcpListener,
    svc: &Arc<MiningService>,
    stop: &AtomicBool,
    quit: &AtomicBool,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => handle_conn(stream, svc, quit),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn handle_conn(mut stream: TcpStream, svc: &Arc<MiningService>, quit: &AtomicBool) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let mut buf = [0u8; 1024];
    let mut req = Vec::new();
    // Read to the end of the headers, not just of the request line: a
    // stream dropped with bytes unread, or still arriving, is closed with
    // a reset, which the client sees in place of the response.
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                req.extend_from_slice(&buf[..n]);
                if req.windows(4).any(|w| w == b"\r\n\r\n") || req.len() > 8192 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let line = String::from_utf8_lossy(&req);
    let path = line.split_whitespace().nth(1).unwrap_or("/").to_string();
    let (status, ctype, body) = match path.as_str() {
        "/metrics" => ("200 OK", "text/plain; version=0.0.4; charset=utf-8", render_metrics(svc)),
        "/status" => ("200 OK", "application/json", render_status(svc)),
        "/incidents" => ("200 OK", "application/json", render_incidents(svc)),
        "/quit" => {
            quit.store(true, Ordering::SeqCst);
            ("200 OK", "text/plain; charset=utf-8", "bye\n".to_string())
        }
        _ => ("404 Not Found", "text/plain; charset=utf-8", "not found\n".to_string()),
    };
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.flush();
}

/// Builds `/metrics` from the completed outcomes — the exact sources
/// [`MiningService::report`] sums — plus live service gauges.
fn render_metrics(svc: &MiningService) -> String {
    let outcomes = svc.outcomes();
    let agg = sum_outcomes(&outcomes);
    let engine = svc.engine();
    let memo = svc.memo_stats();
    let rebalance = engine.rebalance_section();
    let mut metrics = vec![
        PromMetric::scalar(
            "gpm_embeddings_total",
            "Embeddings counted by completed queries",
            PromKind::Counter,
            agg.count as f64,
        ),
        PromMetric::scalar(
            "gpm_queries_admitted_total",
            "Queries admitted (including memoized duplicates)",
            PromKind::Counter,
            svc.admitted_count() as f64,
        ),
        PromMetric::scalar(
            "gpm_queries_completed_total",
            "Queries completed (including memoized duplicates)",
            PromKind::Counter,
            outcomes.len() as f64,
        ),
        PromMetric::scalar(
            "gpm_rebalance_transfers_total",
            "Slices re-replicated to a new holder by the background rebalancer",
            PromKind::Counter,
            rebalance.transfers as f64,
        ),
        PromMetric::scalar(
            "gpm_rebalance_bytes_total",
            "CSR bytes streamed by background re-replication",
            PromKind::Counter,
            rebalance.bytes as f64,
        ),
        PromMetric::scalar(
            "gpm_slices_lost_total",
            "Slices whose every copy died before a repair landed",
            PromKind::Counter,
            rebalance.slices_lost as f64,
        ),
        PromMetric::scalar(
            "gpm_effective_replication_min",
            "Minimum live copy count over all slices right now",
            PromKind::Gauge,
            rebalance.min_effective_replication as f64,
        ),
        PromMetric::scalar(
            "gpm_reexecuted_roots_total",
            "Roots re-executed by recovery passes",
            PromKind::Counter,
            agg.failures.reexecuted_roots as f64,
        ),
        PromMetric::scalar(
            "gpm_parts_failed_total",
            "Parts that fail-stopped since the engine started",
            PromKind::Counter,
            engine.metrics().totals()[Counter::PartsFailed] as f64,
        ),
        PromMetric::scalar(
            "gpm_incidents_total",
            "Incident bundles captured since the engine started",
            PromKind::Counter,
            engine.incidents().incidents().len() as f64,
        ),
        PromMetric::scalar(
            "gpm_memo_entries",
            "Memo entries currently resident",
            PromKind::Gauge,
            memo.entries as f64,
        ),
        PromMetric::scalar(
            "gpm_memo_hits_total",
            "Submissions served from the memo",
            PromKind::Counter,
            memo.hits as f64,
        ),
        PromMetric::scalar(
            "gpm_memo_evictions_total",
            "Memo entries evicted by the LRU capacity cap",
            PromKind::Counter,
            memo.evictions as f64,
        ),
        PromMetric::scalar(
            "gpm_admission_queue_depth",
            "Jobs admitted but not yet executing",
            PromKind::Gauge,
            svc.queue_depth() as f64,
        ),
        PromMetric::scalar(
            "gpm_active_queries",
            "Queries currently executing on the engine",
            PromKind::Gauge,
            engine.active_query_count() as f64,
        ),
        PromMetric::scalar(
            "gpm_uptime_seconds",
            "Seconds since the service started",
            PromKind::Gauge,
            svc.uptime().as_secs_f64(),
        ),
    ];
    // One family per row of the counter table that a query's stats
    // carry. The rerouted families add, beside the query-attributed
    // aggregate as the bare sample, one `holder`-labelled sample per
    // replica that actually served rerouted traffic — the spread-failover
    // split. Summing across label sets double-counts; read the bare
    // sample for totals and the labelled ones for the split.
    for &counter in Counter::ALL {
        let Some(total) = agg.counter(counter) else { continue };
        let mut family = PromMetric::scalar(
            counter.sample_name(),
            counter.help(),
            PromKind::Counter,
            total as f64,
        );
        let split: Option<fn(&HolderReroute) -> u64> = match counter {
            Counter::ReroutedRequests => Some(|h| h.requests),
            Counter::ReroutedBytes => Some(|h| h.bytes),
            _ => None,
        };
        if let Some(split) = split {
            family.samples.extend(
                rebalance
                    .per_holder_rerouted
                    .iter()
                    .map(|h| (vec![("holder", h.part.to_string())], split(h) as f64)),
            );
        }
        metrics.push(family);
    }
    // Claim round-trip latency of the message control plane. The
    // exporter has no native histogram kind, so the recorder snapshot's
    // percentiles go out as a quantile-labelled gauge; the Prometheus
    // summary convention spells the observed maximum `quantile="1"`.
    let rtt = engine.recorder().hist_snapshot(gpm_obs::Metric::CtrlRttNs);
    if rtt.count > 0 {
        let mut quantiles = PromMetric {
            name: "gpm_ctrl_claim_rtt_ns",
            help: "Claim round-trip latency of the message control plane",
            kind: PromKind::Gauge,
            samples: Vec::new(),
        };
        for (q, v) in [
            ("0.5", rtt.p50),
            ("0.95", rtt.p95),
            ("0.99", rtt.p99),
            ("0.999", rtt.p999),
            ("1", rtt.max),
        ] {
            quantiles.samples.push((vec![("quantile", q.to_string())], v as f64));
        }
        metrics.push(quantiles);
    }
    // Per-query embedding counts of completed queries (memoized ones
    // repeat their original's count, as in the report).
    let mut per_query = PromMetric {
        name: "gpm_query_embeddings_total",
        help: "Embeddings counted, per completed query",
        kind: PromKind::Counter,
        samples: Vec::new(),
    };
    for o in &outcomes {
        if let Ok(stats) = &o.result {
            per_query
                .samples
                .push((vec![("query_id", o.query_id.to_string())], stats.count as f64));
        }
    }
    metrics.push(per_query);
    // Live progress of in-flight queries.
    let mut fractions = PromMetric {
        name: "gpm_query_progress_fraction",
        help: "Monotonic completion fraction of in-flight queries",
        kind: PromKind::Gauge,
        samples: Vec::new(),
    };
    for p in engine.active_progress() {
        fractions.samples.push((vec![("query_id", p.query_id().to_string())], p.fraction()));
    }
    metrics.push(fractions);
    render_prometheus(&metrics)
}

/// Builds `/incidents`: the capture-order incident summaries, exactly
/// the list [`MiningService::report`] attaches as `incidents[]`. The
/// full bundles live on disk at each entry's `path`.
fn render_incidents(svc: &MiningService) -> String {
    serde_json::to_string(&svc.engine().incidents().incidents()).expect("incident JSON renders")
}

/// The `/status` document: `render_status` writes it, [`read_status`]
/// reads it back for `gpm top`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusDoc {
    /// Nanoseconds since the service started.
    pub uptime_ns: u64,
    /// Queries the service runs at once.
    pub max_concurrent: u64,
    /// Jobs admitted but not yet executing.
    pub queue_depth: u64,
    /// Queries admitted, memoized duplicates included.
    pub admitted: u64,
    /// Queries completed, memoized duplicates included.
    pub completed: u64,
    /// Executing queries over `max_concurrent`.
    pub busy_fraction: f64,
    /// In-flight queries' progress, by query id.
    pub active_queries: Vec<ProgressSnapshot>,
    /// The memo's counters.
    pub memo: MemoStats,
    /// Replica placement and health.
    pub replicas: ReplicaTable,
    /// Recently executed queries, oldest first.
    pub recent_completions: Vec<Completion>,
    /// Completions over the slow-query threshold, oldest first.
    pub slow_queries: Vec<Completion>,
    /// The live cumulative cluster counters.
    pub counters: CounterSnapshot,
}

/// The replica section of `/status`: the rebalancer's cumulative totals
/// (as in the report's `rebalance` section) and one health row per part.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicaTable {
    /// Whether the background rebalancer runs.
    pub enabled: bool,
    /// The replication factor the graph was partitioned with.
    pub configured_replication: u64,
    /// The fewest live copies of any slice right now.
    pub min_effective_replication: u64,
    /// Routing epoch, bumped by each repair.
    pub routing_epoch: u64,
    /// Slices re-replicated so far.
    pub transfers: u64,
    /// Bytes those transfers streamed.
    pub bytes: u64,
    /// Slices restored to the configured factor.
    pub slices_restored: u64,
    /// Slices that lost every copy.
    pub slices_lost: u64,
    /// One row per part.
    pub parts: Vec<PartHealth>,
}

/// Reads a `/status` body.
///
/// # Errors
///
/// Returns a message naming the first missing or mistyped field.
pub fn read_status(json: &str) -> Result<StatusDoc, String> {
    let doc = gpm_obs::parse_json(json).map_err(|e| format!("status: {e}"))?;
    StatusDoc::from_value(&doc, "status")
}

fn render_status(svc: &MiningService) -> String {
    let engine = svc.engine();
    let mut active: Vec<ProgressSnapshot> =
        engine.active_progress().iter().map(|p| p.snapshot()).collect();
    active.sort_by_key(|p| p.query_id);
    let max_concurrent = svc.config().max_concurrent.max(1);
    let busy = engine.active_query_count().min(max_concurrent);
    let reb = engine.rebalance_section();
    let doc = StatusDoc {
        uptime_ns: svc.uptime().as_nanos() as u64,
        max_concurrent: max_concurrent as u64,
        queue_depth: svc.queue_depth() as u64,
        admitted: svc.admitted_count() as u64,
        completed: svc.outcomes().len() as u64,
        busy_fraction: busy as f64 / max_concurrent as f64,
        active_queries: active,
        memo: svc.memo_stats(),
        replicas: ReplicaTable {
            enabled: reb.enabled,
            configured_replication: reb.configured_replication,
            min_effective_replication: reb.min_effective_replication,
            routing_epoch: reb.routing_epoch,
            transfers: reb.transfers,
            bytes: reb.bytes,
            slices_restored: reb.slices_restored,
            slices_lost: reb.slices_lost,
            parts: engine.part_health(),
        },
        recent_completions: svc.recent_completions(),
        slow_queries: svc.slow_queries(),
        counters: counter_snapshot(&engine.metrics().totals()),
    };
    serde_json::to_string(&doc).expect("status JSON renders")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use crate::service::ServiceConfig;
    use gpm_graph::gen;
    use gpm_graph::partition::PartitionedGraph;
    use gpm_obs::IncidentSummary;
    use gpm_pattern::plan::PlanOptions;
    use gpm_pattern::Pattern;

    fn http_get(addr: SocketAddr, path: &str) -> String {
        http_get_in_pieces(
            addr,
            &[&format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")],
        )
    }

    /// One request written piece by piece, 20 ms apart; returns the body.
    /// Between pieces nothing may have come back: a server that answers
    /// (and closes) before it has read the request to the end resets a
    /// client whose remaining bytes land between its last read and the
    /// close.
    fn http_get_in_pieces(addr: SocketAddr, pieces: &[&str]) -> String {
        let mut s = TcpStream::connect(addr).expect("connect status server");
        s.set_nodelay(true).unwrap();
        for (i, piece) in pieces.iter().enumerate() {
            if i > 0 {
                std::thread::sleep(Duration::from_millis(20));
                s.set_nonblocking(true).unwrap();
                let early = s.peek(&mut [0]).map_err(|e| e.kind());
                assert_eq!(early, Err(std::io::ErrorKind::WouldBlock), "answered mid-request");
                s.set_nonblocking(false).unwrap();
            }
            s.write_all(piece.as_bytes()).expect("write request");
        }
        let mut out = String::new();
        s.read_to_string(&mut out).expect("read response");
        let (head, body) = out.split_once("\r\n\r\n").expect("header/body split");
        let declared = head.lines().find_map(|l| l.strip_prefix("Content-Length: "));
        assert_eq!(declared, Some(body.len().to_string().as_str()), "body cut short");
        body.to_string()
    }

    #[test]
    fn serves_metrics_status_and_quit() {
        let g = gen::barabasi_albert(150, 4, 11);
        let pg = PartitionedGraph::new(&g, 2, 1);
        let engine = Arc::new(Engine::new(pg, EngineConfig::default()));
        let svc = Arc::new(MiningService::start(engine, ServiceConfig::default()));
        let server = StatusServer::start(Arc::clone(&svc), "127.0.0.1:0").unwrap();
        let h = svc.submit(&Pattern::triangle(), &PlanOptions::automine()).unwrap();
        h.wait().unwrap();
        let metrics = http_get(server.local_addr(), "/metrics");
        gpm_obs::validate_exposition(&metrics).expect("exposition must be well-formed");
        let completed = gpm_obs::sample_value(&metrics, "gpm_queries_completed_total", None);
        assert_eq!(completed, Some(1.0));
        let report = svc.report("khuzdul-service");
        assert_eq!(
            gpm_obs::sample_value(&metrics, "gpm_embeddings_total", None),
            Some(report.count as f64),
            "scrape must reconcile with the report"
        );
        // The shared ledger sends no control messages, and the scrape
        // says so explicitly rather than omitting the family.
        assert_eq!(gpm_obs::sample_value(&metrics, "gpm_ctrl_sent_total", None), Some(0.0));
        let status = read_status(&http_get(server.local_addr(), "/status")).expect("/status reads");
        // The live cumulative counters, one per exported cluster counter.
        assert_eq!(status.counters.0.len(), Counter::exported().count());
        // The replica table is always present; at r=1 every part hosts
        // only its own slice and has exactly one live copy.
        assert_eq!(status.replicas.parts.len(), 2);
        assert!(status.replicas.parts.iter().all(|p| p.alive && p.live_copies == 1));
        assert_eq!((status.completed, status.recent_completions.len()), (1, 1));
        assert_eq!(
            gpm_obs::sample_value(&metrics, "gpm_effective_replication_min", None),
            Some(1.0),
            "r=1 run scrapes an effective replication of 1"
        );
        assert!(!server.quit_requested());
        assert_eq!(http_get(server.local_addr(), "/quit"), "bye\n");
        assert!(server.quit_requested());
        assert!(http_get(server.local_addr(), "/nope").contains("not found"));
    }

    /// A `/status` body the untyped writer served mid-run (two queries in
    /// flight, one without an ETA yet, r=2 replicas) reads into a
    /// [`StatusDoc`] and writes back byte for byte.
    #[test]
    fn an_earlier_status_body_reads_and_writes_back_unchanged() {
        let json = include_str!("../../../ci/fixtures/status.json");
        let doc = read_status(json).expect("fixture reads");
        assert_eq!(
            doc.active_queries.iter().map(|q| q.eta_ns.is_some()).collect::<Vec<_>>(),
            [true, false]
        );
        assert_eq!(doc.replicas.parts[3].hosted_slices, [3, 0]);
        assert_eq!(serde_json::to_string(&doc).unwrap(), json);
        let broken = json.replacen(r#""eta_ns":null,"#, "", 1);
        assert_eq!(read_status(&broken).unwrap_err(), "status.active_queries[1].eta_ns: missing");
    }

    /// A client whose headers arrive after its request line — several
    /// small writes, a slow link — still gets the whole response: the
    /// server must not answer and close while request bytes are in flight.
    #[test]
    fn a_request_arriving_in_two_pieces_gets_a_complete_response() {
        let g = gen::barabasi_albert(150, 4, 11);
        let engine =
            Arc::new(Engine::new(PartitionedGraph::new(&g, 2, 1), EngineConfig::default()));
        let svc = Arc::new(MiningService::start(engine, ServiceConfig::default()));
        let server = StatusServer::start(Arc::clone(&svc), "127.0.0.1:0").unwrap();
        let get = |path: &str| {
            http_get_in_pieces(
                server.local_addr(),
                &[&format!("GET {path} HTTP/1.1\r\n"), "Host: x\r\nConnection: close\r\n\r\n"],
            )
        };
        read_status(&get("/status")).expect("complete /status body");
        gpm_obs::validate_exposition(&get("/metrics")).expect("complete exposition");
    }

    /// Under the message control plane, `/metrics` exposes the control
    /// counters and the claim-RTT quantile gauge, and the counter
    /// reconciles exactly with the aggregate report section.
    #[test]
    fn metrics_expose_control_plane_under_msg_mode() {
        use crate::control::{ControlConfig, ControlMode};
        use crate::scheduler::StealConfig;
        let g = gen::barabasi_albert(200, 4, 29);
        let pg = PartitionedGraph::new(&g, 3, 1);
        let engine = Arc::new(Engine::new(
            pg,
            EngineConfig {
                steal: StealConfig { enabled: true, batch: 8, ..StealConfig::default() },
                control: ControlConfig { mode: ControlMode::Msg },
                // The RTT histogram records through the obs recorder,
                // which is off by default.
                obs: gpm_obs::ObsConfig::enabled(),
                ..EngineConfig::default()
            },
        ));
        let svc = Arc::new(MiningService::start(engine, ServiceConfig::default()));
        let server = StatusServer::start(Arc::clone(&svc), "127.0.0.1:0").unwrap();
        for p in [Pattern::triangle(), Pattern::cycle(4)] {
            svc.submit(&p, &PlanOptions::automine()).unwrap().wait().unwrap();
        }
        let metrics = http_get(server.local_addr(), "/metrics");
        gpm_obs::validate_exposition(&metrics).expect("exposition must be well-formed");
        let report = svc.report("khuzdul-service");
        assert!(report.control.sent > 0, "message mode must have coordinated via messages");
        assert_eq!(
            gpm_obs::sample_value(&metrics, "gpm_ctrl_sent_total", None),
            Some(report.control.sent as f64),
            "scrape must reconcile with the report's control section"
        );
        assert_eq!(
            gpm_obs::sample_value(&metrics, "gpm_ctrl_retried_total", None),
            Some(report.control.retried as f64),
        );
        assert_eq!(
            gpm_obs::sample_value(&metrics, "gpm_ctrl_dropped_total", None),
            Some(report.control.dropped as f64),
        );
        // Every claim acked means an RTT sample, so the quantile gauge
        // must be present with ordered percentiles, tail quantile and
        // observed max (`quantile="1"`) included.
        // `sample_value` matches the fragment against the whole rest of
        // the line, value included — a bare "1" would match the *digit*
        // in an earlier quantile's value, so match the full label.
        let q = |q: &str| {
            let label = format!("quantile=\"{q}\"");
            gpm_obs::sample_value(&metrics, "gpm_ctrl_claim_rtt_ns", Some(&label))
        };
        let (Some(p50), Some(p99), Some(p999), Some(max)) =
            (q("0.5"), q("0.99"), q("0.999"), q("1"))
        else {
            panic!("claim RTT gauge missing a quantile")
        };
        assert!(
            p50 <= p99 && p99 <= p999 && p999 <= max,
            "quantiles must be ordered and capped by the observed max: \
             p50={p50} p99={p99} p999={p999} max={max}"
        );
        assert!(max > 0.0, "observed max must be a real sample");
    }

    fn http_raw(addr: SocketAddr, payload: &[u8]) -> String {
        let mut s = TcpStream::connect(addr).expect("connect status server");
        s.write_all(payload).unwrap();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        out
    }

    /// Unknown routes must answer with a real 404 status line — a
    /// scraper probing the wrong path should see an HTTP error, not a
    /// hang or a dropped connection.
    #[test]
    fn unknown_routes_get_a_404_status_line() {
        let g = gen::barabasi_albert(80, 3, 7);
        let pg = PartitionedGraph::new(&g, 2, 1);
        let engine = Arc::new(Engine::new(pg, EngineConfig::default()));
        let svc = Arc::new(MiningService::start(engine, ServiceConfig::default()));
        let server = StatusServer::start(Arc::clone(&svc), "127.0.0.1:0").unwrap();
        let resp = http_raw(server.local_addr(), b"GET /definitely/not/a/route HTTP/1.1\r\n\r\n");
        assert!(
            resp.starts_with("HTTP/1.1 404 Not Found"),
            "expected a 404 status line, got: {resp:?}"
        );
        assert!(resp.contains("not found"));
    }

    /// A malformed request line (no method, no path, or plain garbage)
    /// must not wedge or kill the server: it answers 404 and keeps
    /// serving well-formed scrapes afterwards.
    #[test]
    fn malformed_requests_are_answered_and_the_server_survives() {
        let g = gen::barabasi_albert(80, 3, 13);
        let pg = PartitionedGraph::new(&g, 2, 1);
        let engine = Arc::new(Engine::new(pg, EngineConfig::default()));
        let svc = Arc::new(MiningService::start(engine, ServiceConfig::default()));
        let server = StatusServer::start(Arc::clone(&svc), "127.0.0.1:0").unwrap();
        for payload in
            [&b"garbage\r\n"[..], &b"\r\n"[..], &b"GET\r\n"[..], &b"\x00\x01\x02\xff\r\n"[..]]
        {
            let resp = http_raw(server.local_addr(), payload);
            assert!(
                resp.starts_with("HTTP/1.1 404"),
                "malformed request must get a 404, got: {resp:?}"
            );
        }
        // The listener is still healthy after the abuse.
        let metrics = http_get(server.local_addr(), "/metrics");
        gpm_obs::validate_exposition(&metrics).expect("server must keep serving after abuse");
    }

    /// Concurrent scrapers during an active workload all get complete,
    /// well-formed responses — the accept loop serves them one at a
    /// time, but nobody is dropped or handed a torn document.
    #[test]
    fn concurrent_scrapers_see_well_formed_output() {
        let g = gen::barabasi_albert(200, 4, 17);
        let pg = PartitionedGraph::new(&g, 2, 1);
        let engine = Arc::new(Engine::new(pg, EngineConfig::default()));
        let svc = Arc::new(MiningService::start(engine, ServiceConfig::default()));
        let server = StatusServer::start(Arc::clone(&svc), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let handles: Vec<_> = [Pattern::triangle(), Pattern::cycle(4), Pattern::clique(4)]
            .iter()
            .map(|p| svc.submit(p, &PlanOptions::automine()).unwrap())
            .collect();
        let scrapers: Vec<_> = (0..6)
            .map(|i| {
                std::thread::spawn(move || {
                    for _ in 0..4 {
                        let path = if i % 3 == 0 {
                            "/metrics"
                        } else if i % 3 == 1 {
                            "/status"
                        } else {
                            "/incidents"
                        };
                        let mut s = TcpStream::connect(addr).expect("connect");
                        write!(s, "GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
                        let mut out = String::new();
                        s.read_to_string(&mut out).expect("read");
                        let (_, body) = out.split_once("\r\n\r\n").expect("split");
                        match path {
                            "/metrics" => {
                                gpm_obs::validate_exposition(body).expect("torn exposition");
                            }
                            _ => {
                                gpm_obs::parse_json(body).expect("torn JSON");
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.wait().unwrap();
        }
        for s in scrapers {
            s.join().expect("scraper thread must not panic");
        }
    }

    /// After a crash the rerouted families carry the query-attributed
    /// total as the bare sample and, beside it, one `holder`-labelled
    /// sample per replica that served rerouted fetches; both reconcile
    /// with the report.
    #[test]
    fn rerouted_families_carry_the_total_and_the_per_holder_split() {
        use gpm_cluster::{FabricConfig, FaultPlan, RetryPolicy};
        let g = gen::erdos_renyi(150, 700, 5);
        let engine = Arc::new(Engine::new(
            PartitionedGraph::with_replication(&g, 4, 1, 2),
            EngineConfig {
                // Small chunks split the fetches into many wire requests,
                // so the crash lands mid-run.
                chunk_capacity: 64,
                fabric: FabricConfig {
                    retry: RetryPolicy {
                        max_attempts: 4,
                        timeout: Duration::from_millis(50),
                        backoff: Duration::from_millis(1),
                    },
                    fault: Some(FaultPlan::crash_at(2, 4)),
                    ..FabricConfig::default()
                },
                ..EngineConfig::default()
            },
        ));
        let svc = MiningService::start(engine, ServiceConfig::default());
        svc.submit(&Pattern::clique(4), &PlanOptions::automine()).unwrap().wait().unwrap();
        let text = render_metrics(&svc);
        gpm_obs::validate_exposition(&text).expect("exposition must be well-formed");
        let report = svc.report("khuzdul-service");
        let holders = &report.rebalance.per_holder_rerouted;
        assert!(report.failures.rerouted_requests > 0 && !holders.is_empty());
        type Split = fn(&HolderReroute) -> u64;
        let families: [(&str, u64, Split); 2] = [
            ("gpm_rerouted_requests_total", report.failures.rerouted_requests, |h| h.requests),
            ("gpm_rerouted_bytes_total", report.failures.rerouted_bytes, |h| h.bytes),
        ];
        for (family, total, split) in families {
            // The bare sample is the family's first line.
            assert_eq!(gpm_obs::sample_value(&text, family, None), Some(total as f64), "{family}");
            for h in holders {
                let label = format!("holder=\"{}\"", h.part);
                let served = gpm_obs::sample_value(&text, family, Some(&label));
                assert_eq!(served, Some(split(h) as f64), "{family}{{{label}}}");
            }
            // One query on a fresh engine: what it had rerouted is what
            // the holders served.
            assert_eq!(holders.iter().map(split).sum::<u64>(), total, "{family}");
        }
    }

    /// `/incidents` serves the capture-order summaries and `/metrics`
    /// counts them, reconciling with the report's `incidents[]`.
    #[test]
    fn incidents_route_lists_captured_bundles() {
        use crate::incident::IncidentConfig;
        let dir =
            std::env::temp_dir().join(format!("khuzdul-status-incidents-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let g = gen::barabasi_albert(120, 3, 19);
        let pg = PartitionedGraph::new(&g, 2, 1);
        let engine = Arc::new(Engine::new(
            pg,
            EngineConfig {
                incident: IncidentConfig { dir: Some(dir.clone()), ..IncidentConfig::default() },
                ..EngineConfig::default()
            },
        ));
        let svc = Arc::new(MiningService::start(
            engine,
            ServiceConfig { slow_query: Some(Duration::ZERO), ..ServiceConfig::default() },
        ));
        let server = StatusServer::start(Arc::clone(&svc), "127.0.0.1:0").unwrap();
        svc.submit(&Pattern::triangle(), &PlanOptions::automine()).unwrap().wait().unwrap();
        let body = http_get(server.local_addr(), "/incidents");
        let doc = gpm_obs::parse_json(&body).expect("incidents must be valid JSON");
        let entries: Vec<IncidentSummary> =
            Deserialize::from_value(&doc, "incidents").expect("incident summaries");
        assert_eq!(entries.len(), 1, "the zero-threshold slow-query log captures once");
        assert_eq!(entries[0].trigger, gpm_obs::TriggerKind::SlowQuery);
        let raw = std::fs::read_to_string(&entries[0].path).expect("bundle exists on disk");
        crate::incident::validate_bundle(&raw).expect("bundle validates");
        let metrics = http_get(server.local_addr(), "/metrics");
        assert_eq!(
            gpm_obs::sample_value(&metrics, "gpm_incidents_total", None),
            Some(1.0),
            "the scrape counts the captured bundle"
        );
        let report = svc.report("khuzdul-service");
        assert_eq!(report.incidents.len(), 1, "the report carries the same capture list");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
