//! Implementation of the `gpm` command-line tool: argument parsing,
//! graph/pattern specification grammar, and run reporting.
//!
//! Kept as a library module so the grammar is unit-testable; the `gpm`
//! binary is a thin wrapper over [`run`], which tells a command line that
//! does not parse from a command that ran and failed ([`Error`]). Every
//! subcommand that mines or loads a graph parses one `Cluster` config;
//! `gpm --help` prints the flags, grouped by the subcommands that take
//! them.

use gpm_baselines::ctd::CtdCluster;
use gpm_baselines::gthinker::{GThinker, GThinkerConfig};
use gpm_baselines::replicated::{ReplicatedCluster, ReplicatedConfig};
use gpm_baselines::single::SingleMachine;
use gpm_graph::datasets::DatasetId;
use gpm_graph::partition::PartitionedGraph;
use gpm_graph::{gen, Graph};
use gpm_obs::{DiffThresholds, Recorder, RunReport};
use gpm_pattern::plan::{MatchingPlan, PlanOptions};
use gpm_pattern::{Pattern, MAX_PATTERN_VERTICES};
use khuzdul::{
    Bundle, ControlConfig, ControlMode, CrashAt, Engine, EngineConfig, FabricConfig, FaultPlan,
    IncidentConfig, MiningService, ObsConfig, RebalanceConfig, RetryPolicy, RunStats,
    ServiceConfig, StatusDoc, StatusServer, StealConfig,
};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// `gpm --help`. A header names the subcommands that take the flags
/// below it, before its colon.
const USAGE: &str = "\
usage: gpm [SUBCOMMAND] [FLAGS]   (no SUBCOMMAND runs count; -h or --help prints this)

count, serve, motifs, fsm, stats: the graph
  --graph PATH              load a SNAP text (or .bin) edge list
  --gen SPEC                or generate: ba|er:N,M[,SEED] | rmat:SCALE,EF[,SEED] | dataset:ABBR
count, serve, motifs, fsm: the cluster (baselines read the first three)
  --machines N              simulated machines (default 4)
  --sockets N               NUMA sockets per machine (default 1)
  --threads N               compute threads per part (default 2)
  --replication N           each part also hosts its N-1 successors' slices (default 1)
  --window N                in-flight fetches per part (default 4)
  --retries N               attempts before a fetch or msg control call times out (default 4)
  --fault-drop F            drop this fraction of fetch (and msg control) replies
  --fault-crash PART@AFTER  kill PART once AFTER requests targeted it; repeatable
  --steal on|off            cross-part work stealing (default on)
  --steal-batch N           smallest root grant under stealing (default 256)
  --control shared|msg      how claims and steals reach the ledger (default shared)
  --rebalance on|off        restore lost replicas after a death (default on)
  --incident-dir DIR        capture crash, poison and stall bundles here
  --stall-ms MS             bundle a run whose claims stay flat this long (needs --incident-dir)
count, serve: output
  --quiet                   print only the counts
  --report-out FILE         write a RunReport JSON (arms tracing)
count: mine one pattern
  --pattern SPEC            triangle | clique:K | path:K | cycle:K | star:K | house |
                            diamond | tailed-triangle | edges:0-1,1-2,...
  --system NAME             khuzdul-automine (default) | khuzdul-graphpi | gthinker |
                            replicated | ctd | single
  --induced                 induced matching
  --trace-out FILE          write a Chrome trace JSON (arms tracing)
serve: replay a workload file on one resident engine
  --queries FILE            one pattern SPEC per line, then `induced` or `graphpi`
  --max-concurrent N        queries running at once (default 2)
  --root-budget N           roots a query claims before yielding its turn (default 4096)
  --memo-capacity N         results kept for duplicate queries (default 256)
  --slow-query-ms MS        log every query slower than this
  --status-addr ADDR        serve /status, /metrics and /quit here
  --status-linger-ms MS     keep that endpoint up this long after the workload
motifs: induced k-motif census
  --k K                     motif size (default 3)
fsm: frequent subgraph mining
  --threshold N             minimum support (default 100)
  --max-edges N             largest pattern, in edges (default 3)
  --labels N                random labels for an unlabeled graph (default 3)
top ADDR: live view of a serve status endpoint
  --watch SECS              a frame every SECS
  --frames N                stop after N frames (needs --watch)
report diff BASELINE CANDIDATE: the regression gate over two RunReports
  --traffic-rel F           relative traffic headroom
  --traffic-abs B           absolute traffic headroom, bytes
  --hit-rate-abs F          cache hit-rate headroom
  --imbalance-abs F         busy-imbalance headroom
  --frac-rel F              relative critical-path fraction headroom
  --frac-abs F              absolute critical-path fraction headroom
report-validate FILE, metrics-validate FILE, incident list DIR|show FILE|diff A B
";

/// Why a command did not succeed. The binary exits 2 and points at
/// `--help` on a usage error, and exits 1 on a failure.
#[derive(Debug)]
pub enum Error {
    /// The command line does not parse: an argument, flag or value is
    /// unknown, missing or malformed.
    Usage(String),
    /// The command ran and failed: a gate verdict, a rejected file, a
    /// failed run. `output` is what it rendered before it failed (a
    /// gate's comparison, printed to stdout like a success's; empty
    /// otherwise) and `error` the one-line reason.
    Failed {
        /// The rendered output.
        output: String,
        /// Why the command failed.
        error: String,
    },
}

impl From<String> for Error {
    fn from(error: String) -> Error {
        Error::Failed { output: String::new(), error }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (Error::Usage(e) | Error::Failed { error: e, .. }) = self;
        f.write_str(e)
    }
}

/// A usage error.
fn usage(e: impl Into<String>) -> Error {
    Error::Usage(e.into())
}

/// An argument list walked flag by flag: [`Args::value`] pulls the value
/// of the flag [`Args::flag`] last returned.
struct Args<'a> {
    rest: std::slice::Iter<'a, String>,
    flag: &'a str,
}

impl<'a> Args<'a> {
    fn new(args: &'a [String]) -> Self {
        Args { rest: args.iter(), flag: "" }
    }

    fn flag(&mut self) -> Option<&'a str> {
        self.flag = self.rest.next()?;
        Some(self.flag)
    }

    fn value(&mut self) -> Result<&'a str, String> {
        self.rest.next().map(String::as_str).ok_or_else(|| format!("{} needs a value", self.flag))
    }

    fn num(&mut self) -> Result<usize, String> {
        parse_num(self.value()?)
    }

    fn switch(&mut self) -> Result<bool, String> {
        match self.value()? {
            "on" => Ok(true),
            "off" => Ok(false),
            other => Err(format!("{} takes on|off, not '{other}'", self.flag)),
        }
    }
}

/// The cluster a subcommand mines on: where the graph comes from, every
/// flag that shapes the partition or the [`Engine`], and the two output
/// flags `count` and `serve` share. Each field is the flag of its name,
/// described in [`USAGE`]; `Default` is all zeros, [`Cluster::parse`]
/// starts from the CLI's defaults.
#[derive(Debug, Clone, Default, PartialEq)]
struct Cluster {
    graph: Option<GraphSource>,
    machines: usize,
    sockets: usize,
    threads: usize,
    replication: usize,
    window: usize,
    retries: u32,
    fault_drop: f64,
    /// `(part, after_requests)`, in flag order.
    fault_crash: Vec<(usize, u64)>,
    /// On here, where interactive runs want the balance; the library keeps
    /// it off for deterministic traffic.
    steal: bool,
    steal_batch: usize,
    control: ControlMode,
    rebalance: bool,
    incident_dir: Option<String>,
    stall_ms: Option<u64>,
    quiet: bool,
    report_out: Option<String>,
}

impl Cluster {
    /// Parses `args`, offering each flag to `own` (the calling
    /// subcommand's few flags) and the rest to [`Cluster::accept`], then
    /// validates the result and clamps its zero counts to one.
    fn parse(
        args: &[String],
        mut own: impl FnMut(&str, &mut Args) -> Result<bool, String>,
    ) -> Result<Cluster, String> {
        let fabric = FabricConfig::default();
        let mut c = Cluster {
            machines: 4,
            sockets: 1,
            threads: 2,
            replication: 1,
            window: fabric.window,
            retries: fabric.retry.max_attempts,
            steal: true,
            steal_batch: StealConfig::default().batch,
            rebalance: true,
            ..Cluster::default()
        };
        let mut args = Args::new(args);
        while let Some(flag) = args.flag() {
            if !own(flag, &mut args)? && !c.accept(flag, &mut args)? {
                return Err(format!("unknown flag '{flag}'"));
            }
        }
        if c.graph.is_none() {
            return Err("one of --graph or --gen is required".into());
        }
        if c.stall_ms.is_some() && c.incident_dir.is_none() {
            return Err("--stall-ms needs --incident-dir (a stall is reported as a bundle)".into());
        }
        let counts = [&mut c.machines, &mut c.sockets, &mut c.threads, &mut c.replication];
        for n in counts.into_iter().chain([&mut c.window, &mut c.steal_batch]) {
            *n = (*n).max(1);
        }
        c.retries = c.retries.max(1);
        let parts = c.machines * c.sockets;
        if let Some((part, after)) = c.fault_crash.iter().find(|&&(part, _)| part >= parts) {
            return Err(format!(
                "--fault-crash {part}@{after}: part {part} is out of range \
                 (parts are numbered below machines x sockets = {parts})"
            ));
        }
        Ok(c)
    }

    /// Takes `flag`, pulling its value from `args`, if it is one of the
    /// cluster's; `Ok(false)` if it is not.
    fn accept(&mut self, flag: &str, args: &mut Args) -> Result<bool, String> {
        match flag {
            "--graph" => self.graph = Some(GraphSource::Path(args.value()?.into())),
            "--gen" => self.graph = Some(GraphSource::Spec(args.value()?.into())),
            "--machines" => self.machines = args.num()?,
            "--sockets" => self.sockets = args.num()?,
            "--threads" => self.threads = args.num()?,
            "--replication" => self.replication = args.num()?,
            "--window" => self.window = args.num()?,
            "--retries" => {
                let v = args.value()?;
                self.retries = parse_num(v)?.try_into().map_err(|_| {
                    format!("--retries takes at most {} attempts, not {v}", u32::MAX)
                })?
            }
            "--fault-drop" => self.fault_drop = parse_fraction(args.value()?)?,
            "--fault-crash" => self.fault_crash.push(parse_crash(args.value()?)?),
            "--steal" => self.steal = args.switch()?,
            "--steal-batch" => self.steal_batch = args.num()?,
            "--control" => {
                self.control = match args.value()? {
                    "shared" => ControlMode::Shared,
                    "msg" => ControlMode::Msg,
                    other => return Err(format!("--control takes shared|msg, not '{other}'")),
                }
            }
            "--rebalance" => self.rebalance = args.switch()?,
            "--incident-dir" => self.incident_dir = Some(args.value()?.into()),
            "--stall-ms" => self.stall_ms = Some(args.num()? as u64),
            "--quiet" => self.quiet = true,
            "--report-out" => self.report_out = Some(args.value()?.into()),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The graph: loaded, or generated from a spec, which is a usage error
    /// if it does not parse.
    fn graph(&self) -> Result<Graph, Error> {
        match self.graph.as_ref().expect("Cluster::parse requires a graph") {
            GraphSource::Path(p) => {
                gpm_graph::io::load_graph(p).map_err(|e| Error::from(e.to_string()))
            }
            GraphSource::Spec(s) => parse_gen(s).map_err(usage),
        }
    }

    /// The Khuzdul engine over `graph` that this config describes.
    fn engine(&self, graph: &Graph, obs: ObsConfig) -> Engine {
        let mut fabric = FabricConfig { window: self.window, ..Default::default() };
        fabric.retry.max_attempts = self.retries;
        if self.fault_drop > 0.0 || !self.fault_crash.is_empty() {
            let crashes = self.fault_crash.iter();
            let crashes = crashes.map(|&(part, after_requests)| CrashAt { part, after_requests });
            fabric.fault =
                Some(FaultPlan { crashes: crashes.collect(), ..FaultPlan::drops(self.fault_drop) });
            // A dropped reply, or a request a crashed part abandoned,
            // resolves only by timeout: under injected faults the generous
            // default would crawl (or hold a wedge for minutes). Both
            // planes run under this policy.
            fabric.retry = RetryPolicy {
                max_attempts: self.retries,
                timeout: Duration::from_millis(25),
                backoff: Duration::from_millis(1),
            };
        }
        let parts = self.machines * self.sockets;
        let replication = self.replication.min(parts);
        Engine::new(
            PartitionedGraph::with_replication(graph, self.machines, self.sockets, replication),
            EngineConfig {
                compute_threads: self.threads,
                fabric,
                obs,
                steal: StealConfig {
                    enabled: self.steal,
                    batch: self.steal_batch,
                    ..StealConfig::default()
                },
                control: ControlConfig { mode: self.control },
                incident: IncidentConfig {
                    dir: self.incident_dir.clone().map(Into::into),
                    stall: self.stall_ms.map(Duration::from_millis),
                },
                rebalance: RebalanceConfig {
                    enabled: self.rebalance,
                    ..RebalanceConfig::default()
                },
                ..EngineConfig::default()
            },
        )
    }
}

/// `gpm count`'s command line: the cluster, the pattern and how to mine it.
#[derive(Debug, Clone, PartialEq)]
struct Options {
    cluster: Cluster,
    pattern: Pattern,
    system: System,
    induced: bool,
    trace_out: Option<String>,
}

/// `--graph PATH` or `--gen SPEC`.
#[derive(Debug, Clone, PartialEq)]
enum GraphSource {
    Path(String),
    Spec(String),
}

/// Selectable system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum System {
    KhuzdulAutomine,
    KhuzdulGraphpi,
    GThinker,
    Replicated,
    Ctd,
    Single,
}

/// Every system: its two `--system` spellings, the first of which is the
/// slug its `RunReport` carries, and its display name.
const SYSTEMS: [(System, [&str; 2], &str); 6] = [
    (System::KhuzdulAutomine, ["khuzdul-automine", "k-automine"], "k-Automine (Khuzdul)"),
    (System::KhuzdulGraphpi, ["khuzdul-graphpi", "k-graphpi"], "k-GraphPi (Khuzdul)"),
    (System::GThinker, ["gthinker", "g-thinker"], "G-thinker-like"),
    (System::Replicated, ["replicated", "graphpi"], "replicated GraphPi-like"),
    (System::Ctd, ["ctd", "adfs"], "aDFS-like (computation-to-data)"),
    (System::Single, ["single", "automine-ih"], "AutomineIH (single machine)"),
];

impl System {
    fn parse(s: &str) -> Result<System, String> {
        let row = SYSTEMS.iter().find(|(_, names, _)| names.contains(&s));
        row.map(|&(system, ..)| system).ok_or_else(|| format!("unknown system '{s}'"))
    }

    /// The slug a `RunReport` carries, and the display name.
    fn names(self) -> (&'static str, &'static str) {
        let row = SYSTEMS.iter().find(|row| row.0 == self).expect("every system has a row");
        (row.1[0], row.2)
    }
}

/// Parses `gpm count`'s argument list.
fn parse_args(args: &[String]) -> Result<Options, String> {
    let (mut pattern, mut system, mut induced, mut trace_out) =
        (None, System::KhuzdulAutomine, false, None);
    let cluster = Cluster::parse(args, |flag, args| {
        match flag {
            "--pattern" => pattern = Some(parse_pattern(args.value()?)?),
            "--system" => system = System::parse(args.value()?)?,
            "--induced" => induced = true,
            "--trace-out" => trace_out = Some(args.value()?.to_string()),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let pattern = pattern.ok_or("--pattern is required")?;
    Ok(Options { cluster, pattern, system, induced, trace_out })
}

fn parse_num(s: &str) -> Result<usize, String> {
    s.parse().map_err(|_| format!("'{s}' is not a number"))
}

fn parse_float(s: &str) -> Result<f64, String> {
    let f: f64 = s.parse().map_err(|_| format!("'{s}' is not a number"))?;
    if f.is_nan() || f < 0.0 {
        return Err(format!("'{s}' must be non-negative"));
    }
    Ok(f)
}

/// Parses a `--fault-crash` spec: `PART@AFTER`, e.g. `2@5000` kills
/// part 2 once 5000 requests have targeted it.
fn parse_crash(s: &str) -> Result<(usize, u64), String> {
    let (part, after) = s
        .split_once('@')
        .ok_or_else(|| format!("bad crash spec '{s}' (want PART@AFTER, e.g. 2@5000)"))?;
    Ok((parse_num(part)?, parse_num(after)? as u64))
}

fn parse_fraction(s: &str) -> Result<f64, String> {
    match parse_float(s)? {
        f if f <= 1.0 => Ok(f),
        _ => Err(format!("'{s}' must be a fraction in [0, 1]")),
    }
}

/// Parses a pattern spec: `triangle`, `clique:4`, `path:5`, `cycle:4`,
/// `star:5`, `house`, `diamond`, `tailed-triangle`, or
/// `edges:0-1,1-2,2-0`.
pub fn parse_pattern(spec: &str) -> Result<Pattern, String> {
    let (head, arg) = match spec.split_once(':') {
        Some((h, a)) => (h, Some(a)),
        None => (spec, None),
    };
    // A shape of `k` vertices, for `k` from `min` up to the engine's limit.
    let sized = |min: usize, shape: fn(usize) -> Pattern| -> Result<Pattern, String> {
        let k = parse_num(arg.ok_or_else(|| format!("'{head}' needs a size, e.g. {head}:4"))?)?;
        if !(min..=MAX_PATTERN_VERTICES).contains(&k) {
            return Err(format!("'{spec}': a {head} has {min} to {MAX_PATTERN_VERTICES} vertices"));
        }
        Ok(shape(k))
    };
    match head {
        "triangle" => Ok(Pattern::triangle()),
        "clique" => sized(1, Pattern::clique),
        "path" => sized(1, Pattern::path),
        "cycle" => sized(3, Pattern::cycle),
        "star" => sized(2, Pattern::star),
        "house" => Ok(Pattern::house()),
        "diamond" => Ok(Pattern::diamond()),
        "tailed-triangle" => Ok(Pattern::tailed_triangle()),
        "edges" => {
            let text = arg.ok_or("edges spec needs pairs, e.g. edges:0-1,1-2")?;
            let mut edges = Vec::new();
            let mut n = 0usize;
            for pair in text.split(',') {
                let (u, v) =
                    pair.split_once('-').ok_or_else(|| format!("bad edge '{pair}' (want U-V)"))?;
                let (u, v) = (parse_num(u)?, parse_num(v)?);
                n = n.max(u + 1).max(v + 1);
                edges.push((u, v));
            }
            Pattern::from_edges(n, &edges).map_err(|e| e.to_string())
        }
        other => Err(format!("unknown pattern '{other}'")),
    }
}

/// Parses a generator spec: `ba:N,M[,SEED]`, `er:N,M[,SEED]`,
/// `rmat:SCALE,EF[,SEED]`, or `dataset:ABBR`.
fn parse_gen(spec: &str) -> Result<Graph, String> {
    let (head, args) =
        spec.split_once(':').ok_or_else(|| format!("bad generator spec '{spec}'"))?;
    if head == "dataset" {
        let dataset = DatasetId::ALL.iter().find(|d| d.abbr() == args);
        return dataset.map(|d| d.build()).ok_or_else(|| format!("unknown dataset '{args}'"));
    }
    let (n, m, seed) = match args.split(',').collect::<Vec<_>>()[..] {
        [n, m] => (n, m, "42"),
        [n, m, seed] => (n, m, seed),
        _ => return Err(format!("bad generator spec '{spec}' (want {head}:N,M[,SEED])")),
    };
    let (n, m) = (parse_num(n)?, parse_num(m)?);
    let seed = seed.parse().map_err(|_| format!("'{seed}' in '{spec}' is not a seed"))?;
    match head {
        "ba" if m == 0 || m >= n => Err(format!("'{spec}': ba:N,M needs 1 <= M < N")),
        "ba" => Ok(gen::barabasi_albert(n, m, seed)),
        "er" if n < 2 => Err(format!("'{spec}': er:N,M needs N >= 2")),
        "er" => Ok(gen::erdos_renyi(n, m, seed)),
        // Vertex ids are u32: 2^31 vertices is the largest R-MAT graph.
        "rmat" if n > 31 => Err(format!("'{spec}': the rmat scale is at most 31, not {n}")),
        "rmat" => Ok(gen::rmat(n as u32, m, (0.57, 0.19, 0.19), seed)),
        other => Err(format!("unknown generator '{other}'")),
    }
}

/// Executes a command line and renders its output: the subcommand its
/// first argument names (`count` if none does), or the usage text if any
/// argument is `-h` or `--help`.
///
/// # Errors
///
/// [`Error::Usage`] for a command line that does not parse;
/// [`Error::Failed`] for I/O, plan-compilation and run failures, a file
/// that is refused and a regression verdict.
pub fn run(args: &[String]) -> Result<String, Error> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(USAGE.to_string());
    }
    let words: Vec<&str> = args.iter().take(2).map(String::as_str).collect();
    match words[..] {
        ["stats", ..] => run_stats(&args[1..]),
        ["motifs", ..] => run_motifs(&args[1..]),
        ["fsm", ..] => run_fsm(&args[1..]),
        ["count", ..] => run_count(&args[1..]),
        ["serve", ..] => run_serve(&args[1..]),
        ["top", ..] => run_top(&args[1..]),
        ["report-validate", ..] => run_report_validate(&args[1..]),
        ["metrics-validate", ..] => run_metrics_validate(&args[1..]),
        ["report", "diff"] => run_report_diff(&args[2..]),
        ["incident", "list"] => run_incident_list(&args[2..]),
        ["incident", "show"] => run_incident_show(&args[2..]),
        ["incident", "diff"] => run_incident_diff(&args[2..]),
        ["report", ..] => Err(usage("report takes one subcommand: diff")),
        ["incident", ..] => Err(usage("incident takes a subcommand: list, show or diff")),
        _ => run_count(args),
    }
}

/// One line of a `serve --queries` workload file: a pattern spec plus
/// optional per-query modifiers (`induced`, `graphpi`).
fn parse_query_line(line: &str) -> Result<Option<(Pattern, PlanOptions)>, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut words = line.split_whitespace();
    let pattern = parse_pattern(words.next().expect("non-empty line has a first word"))?;
    let mut opts = PlanOptions::automine();
    for word in words {
        match word {
            "induced" => opts.induced = true,
            "graphpi" => opts = PlanOptions { induced: opts.induced, ..PlanOptions::graphpi() },
            other => return Err(format!("unknown query modifier '{other}' in line '{line}'")),
        }
    }
    Ok(Some((pattern, opts)))
}

/// `gpm serve --queries FILE`: replays a workload file — one pattern
/// spec per line, `#` comments allowed — as concurrent queries against
/// one resident engine. Queries are admitted in file order (FIFO), run
/// up to `--max-concurrent` at a time on the shared worker pool, and
/// duplicate submissions are served from the memo. Results print in
/// admission order, so a seeded workload replays deterministically.
fn run_serve(args: &[String]) -> Result<String, Error> {
    let (mut queries_path, mut status_addr, mut linger_ms) = (None, None, 0u64);
    let mut config = ServiceConfig::default();
    let cluster = Cluster::parse(args, |flag, args| {
        match flag {
            "--queries" => queries_path = Some(args.value()?.to_string()),
            "--max-concurrent" => config.max_concurrent = args.num()?.max(1),
            "--root-budget" => config.root_budget = args.num()? as u64,
            "--memo-capacity" => config.memo_capacity = args.num()?,
            "--slow-query-ms" => {
                config.slow_query = Some(Duration::from_millis(args.num()? as u64))
            }
            "--status-addr" => status_addr = Some(args.value()?.to_string()),
            "--status-linger-ms" => linger_ms = args.num()? as u64,
            _ => return Ok(false),
        }
        Ok(true)
    })
    .map_err(usage)?;
    let queries_path = queries_path.ok_or_else(|| usage("serve needs --queries <file>"))?;
    let text = std::fs::read_to_string(&queries_path)
        .map_err(|e| format!("reading {queries_path}: {e}"))?;
    let workload: Vec<_> =
        text.lines().filter_map(|l| parse_query_line(l).transpose()).collect::<Result<_, _>>()?;
    if workload.is_empty() {
        return Err(format!("{queries_path}: no queries (every line blank or a comment)").into());
    }
    let graph = cluster.graph()?;
    let obs =
        if cluster.report_out.is_some() { ObsConfig::enabled() } else { ObsConfig::default() };
    let engine = Arc::new(cluster.engine(&graph, obs));
    let max_concurrent = config.max_concurrent;
    let service = Arc::new(MiningService::start(engine, config));
    // The status plane starts before any query is admitted, so scrapers
    // see the workload from its first root claim.
    let status_server = status_addr
        .map(|addr| {
            StatusServer::start(Arc::clone(&service), &addr)
                .map_err(|e| format!("binding status server on {addr}: {e}"))
        })
        .transpose()?;
    let quiet = cluster.quiet;
    let mut out = String::new();
    if let (Some(s), false) = (&status_server, quiet) {
        let _ =
            writeln!(out, "status plane on http://{}/ (/metrics, /status, /quit)", s.local_addr());
    }
    let handles: Vec<_> =
        workload.iter().map(|(p, o)| service.submit(p, o)).collect::<Result<_, _>>()?;
    for h in &handles {
        h.wait().map_err(|e| format!("query {} ({}): {e}", h.query_id(), h.pattern()))?;
    }
    let outcomes = service.drain();
    if !quiet {
        let _ = writeln!(
            out,
            "serving {} queries over {} machines x {} sockets ({max_concurrent} concurrent)",
            workload.len(),
            cluster.machines,
            cluster.sockets,
        );
    }
    for o in &outcomes {
        let stats = o.result.as_ref().expect("waited queries succeeded");
        if quiet {
            let _ = writeln!(out, "{}", stats.count);
        } else {
            let memo = if o.memoized { " (memoized)" } else { "" };
            let _ =
                writeln!(out, "q{:<3} {:<24} count={}{memo}", o.query_id, o.pattern, stats.count);
        }
    }
    if let (Some(dir), false) = (&cluster.incident_dir, quiet) {
        let n = service.engine().incidents().incidents().len();
        if n > 0 {
            let _ = writeln!(out, "{n} incident bundle(s) in {dir}");
        }
    }
    if let Some(path) = &cluster.report_out {
        let report = service.report("khuzdul-service");
        report.write_to(path).map_err(|e| format!("writing {path}: {e}"))?;
        if !quiet {
            let _ = writeln!(out, "report written to {path}");
        }
    }
    // Keep the status plane up after the workload (and after the report
    // file exists, so a scraper can reconcile against it); `GET /quit`
    // ends the linger early. The output is complete by then: print it
    // first, so whoever watches the lingering plane can read the counts.
    if let Some(server) = &status_server {
        if linger_ms > 0 {
            print!("{}", std::mem::take(&mut out));
            let _ = std::io::Write::flush(&mut std::io::stdout());
        }
        let deadline = std::time::Instant::now() + Duration::from_millis(linger_ms);
        while std::time::Instant::now() < deadline && !server.quit_requested() {
            std::thread::sleep(Duration::from_millis(50));
        }
    }
    Ok(out)
}

/// `gpm metrics-validate FILE`: syntax-check a saved Prometheus text
/// exposition (a `/metrics` scrape) and report its sample count.
fn run_metrics_validate(args: &[String]) -> Result<String, Error> {
    let path = args.first().ok_or_else(|| usage("metrics-validate needs a file path"))?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let samples = gpm_obs::validate_exposition(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(format!("{path}: valid Prometheus exposition ({samples} samples)\n"))
}

/// `gpm top ADDR [--watch SECS] [--frames N]`: live view of a
/// `gpm serve --status-addr` endpoint — service gauges, in-flight query
/// progress with ETA, recent completions, and the slow-query log,
/// rendered as a table. Without `--watch` it scrapes once; with it, a
/// frame per interval until `--frames` runs out or the server goes away
/// (a `serve --status-linger-ms` window ending, or `GET /quit`).
fn run_top(args: &[String]) -> Result<String, Error> {
    let (addr, watch, frames) = parse_top(args).map_err(usage)?;
    let mut out = String::new();
    for frame in 0..frames {
        if frame > 0 {
            std::thread::sleep(watch.unwrap_or_default());
        }
        let body = match http_get_body(addr, "/status") {
            Ok(body) => body,
            // A watched server disappearing mid-watch is the normal end
            // of a linger window, not an error; the first scrape failing
            // means there was never anything to watch.
            Err(e) if frame > 0 => {
                let _ = writeln!(out, "server gone: {e}");
                break;
            }
            Err(e) => return Err(e.into()),
        };
        let doc = khuzdul::read_status(&body).map_err(|e| format!("{addr}: bad /status: {e}"))?;
        if watch.is_some() {
            let _ = writeln!(out, "--- frame {} ---", frame + 1);
        }
        out.push_str(&render_top(addr, &doc));
    }
    Ok(out)
}

/// `gpm top`'s arguments: the address, the watch interval, and how many
/// frames to draw.
fn parse_top(args: &[String]) -> Result<(&str, Option<Duration>, usize), String> {
    let mut addr: Option<&str> = None;
    let mut watch: Option<Duration> = None;
    let mut frames: Option<usize> = None;
    let mut args = Args::new(args);
    while let Some(arg) = args.flag() {
        match arg {
            "--watch" => {
                let v = args.value()?;
                let secs = Duration::try_from_secs_f64(parse_float(v)?);
                watch = Some(secs.map_err(|e| format!("--watch {v}: {e}"))?)
            }
            "--frames" => frames = Some(args.num()?.max(1)),
            other if other.starts_with("--") => return Err(format!("unknown flag '{other}'")),
            other => addr = Some(other),
        }
    }
    let addr = addr.ok_or("top needs the status address, e.g. 127.0.0.1:9090")?;
    if frames.is_some() && watch.is_none() {
        return Err("--frames needs --watch".into());
    }
    Ok((addr, watch, frames.unwrap_or(if watch.is_some() { usize::MAX } else { 1 })))
}

/// Minimal blocking HTTP GET against the status server.
fn http_get_body(addr: &str, path: &str) -> Result<String, String> {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .and_then(|()| stream.set_write_timeout(Some(Duration::from_secs(5))))
        .map_err(|e| format!("{addr}: {e}"))?;
    // One buffer, one write: `write!` on the stream would send the request
    // as a segment per format fragment.
    let request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes()).map_err(|e| format!("{addr}: {e}"))?;
    let mut response = String::new();
    stream.read_to_string(&mut response).map_err(|e| format!("{addr}: {e}"))?;
    let (_, body) =
        response.split_once("\r\n\r\n").ok_or_else(|| format!("{addr}: malformed response"))?;
    Ok(body.to_string())
}

fn render_top(addr: &str, doc: &StatusDoc) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "khuzdul service @ {addr} — up {:.1}s, {} admitted / {} completed, queue {}, busy {:.0}%",
        doc.uptime_ns as f64 / 1e9,
        doc.admitted,
        doc.completed,
        doc.queue_depth,
        doc.busy_fraction * 100.0,
    );
    let m = &doc.memo;
    let _ =
        writeln!(out, "memo: {} entries, {} hits, {} evictions", m.entries, m.hits, m.evictions);
    // Replica placement and health. Quiet for an r=1 run with every
    // part alive — the table only earns its lines when there are
    // replicas to track or a death to diagnose.
    let reb = &doc.replicas;
    if reb.configured_replication >= 2 || reb.parts.iter().any(|p| !p.alive) {
        let _ = writeln!(
            out,
            "REPLICAS  r={} effective={} epoch={} repaired={} ({} B) lost={}",
            reb.configured_replication,
            reb.min_effective_replication,
            reb.routing_epoch,
            reb.slices_restored,
            reb.bytes,
            reb.slices_lost,
        );
        let _ = writeln!(
            out,
            "  {:>5} {:>6} {:>7} {:>14} {:<}",
            "part", "state", "copies", "rerouted", "hosts"
        );
        for p in &reb.parts {
            let hosts: Vec<String> = p.hosted_slices.iter().map(usize::to_string).collect();
            let _ = writeln!(
                out,
                "  {:>5} {:>6} {:>7} {:>12} B {:<}",
                format!("p{}", p.part),
                if p.alive { "live" } else { "DEAD" },
                p.live_copies,
                p.rerouted_served_bytes,
                hosts.join(","),
            );
        }
    }
    if !doc.active_queries.is_empty() {
        let _ = writeln!(out, "IN FLIGHT");
        let _ = writeln!(
            out,
            "  {:>5} {:>9} {:>13} {:>9} {:>9}",
            "query", "progress", "roots", "stolen", "eta"
        );
        for q in &doc.active_queries {
            let eta = q.eta_ns.map_or("?".to_string(), |ns| format!("{:.1}s", ns as f64 / 1e9));
            let _ = writeln!(
                out,
                "  {:>5} {:>8.1}% {:>6}/{:<6} {:>9} {:>9}",
                format!("q{}", q.query_id),
                q.fraction * 100.0,
                q.completed,
                q.roots_total,
                q.stolen,
                eta
            );
        }
    }
    if !doc.recent_completions.is_empty() {
        let _ = writeln!(out, "RECENT");
        for c in doc.recent_completions.iter().rev().take(10) {
            let count = c.count.map_or("failed".to_string(), |n| n.to_string());
            let _ = writeln!(
                out,
                "  q{:<4} {:<24} count={:<12} {:.1}ms",
                c.query_id,
                c.pattern,
                count,
                c.elapsed_ns as f64 / 1e6
            );
        }
    }
    if !doc.slow_queries.is_empty() {
        let _ = writeln!(out, "SLOW");
        for c in &doc.slow_queries {
            let _ = writeln!(
                out,
                "  q{:<4} {:<24} {:.1}ms",
                c.query_id,
                c.pattern,
                c.elapsed_ns as f64 / 1e6
            );
        }
    }
    out
}

/// `gpm report-validate FILE`: parse and schema-check a `RunReport`.
/// Soft findings (e.g. dropped spans) are reported as warnings without
/// failing validation.
fn run_report_validate(args: &[String]) -> Result<String, Error> {
    let path = args.first().ok_or_else(|| usage("report-validate needs a file path"))?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let (report, warnings) = gpm_obs::validate_report(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut out = String::new();
    for w in &warnings {
        let _ = writeln!(out, "{path}: warning: {w}");
    }
    let _ = writeln!(out, "{path}: valid RunReport (schema v{})", report.schema_version);
    Ok(out)
}

/// `gpm report diff BASELINE CANDIDATE [threshold flags]`: the perf
/// regression gate. Renders every comparison; returns [`Error::Failed`]
/// carrying that output (exit status 1 through the binary) when the
/// candidate regresses past the thresholds. The flags loosen or tighten
/// the [`DiffThresholds`] defaults: comparing two runs of a stochastic
/// workload wants looser fractions than comparing a run against its own
/// report.
fn run_report_diff(args: &[String]) -> Result<String, Error> {
    let ([baseline, candidate], t) = parse_diff(args).map_err(usage)?;
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"));
    let diff = gpm_obs::diff_reports(&read(baseline)?, &read(candidate)?, &t)?;
    let mut out = String::new();
    for line in &diff.compared {
        let _ = writeln!(out, "  {line}");
    }
    if diff.passed() {
        let _ = writeln!(out, "PASS: {candidate} within thresholds of {baseline}");
        return Ok(out);
    }
    for r in &diff.regressions {
        let _ = writeln!(out, "REGRESSION: {r}");
    }
    let error = format!("{} regression(s) against {baseline}", diff.regressions.len());
    let _ = writeln!(out, "FAIL: {error}");
    Err(Error::Failed { output: out, error })
}

/// `gpm report diff`'s arguments: the two report paths and the
/// thresholds.
fn parse_diff(args: &[String]) -> Result<([&str; 2], DiffThresholds), String> {
    let mut paths: Vec<&str> = Vec::new();
    let mut t = DiffThresholds::default();
    let mut args = Args::new(args);
    while let Some(arg) = args.flag() {
        match arg {
            "--traffic-rel" => t.traffic_rel = parse_float(args.value()?)?,
            "--traffic-abs" => t.traffic_abs = parse_float(args.value()?)?,
            "--hit-rate-abs" => t.hit_rate_abs = parse_float(args.value()?)?,
            "--imbalance-abs" => t.imbalance_abs = parse_float(args.value()?)?,
            "--frac-rel" => t.frac_rel = parse_float(args.value()?)?,
            "--frac-abs" => t.frac_abs = parse_float(args.value()?)?,
            other if other.starts_with("--") => return Err(format!("unknown flag '{other}'")),
            path => paths.push(path),
        }
    }
    let [baseline, candidate] = paths[..] else {
        return Err(format!(
            "report diff needs exactly two files: <baseline.json> <candidate.json> (got {})",
            paths.len()
        ));
    };
    Ok(([baseline, candidate], t))
}

/// Reads one bundle file through the bundle reader.
fn load_bundle(path: &str) -> Result<Bundle, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    khuzdul::validate_bundle(&text).map_err(|e| format!("{path}: {e}"))
}

/// `gpm incident list DIR`: one line per bundle, oldest first.
fn run_incident_list(args: &[String]) -> Result<String, Error> {
    let dir = args.first().ok_or_else(|| usage("incident list needs a directory"))?;
    let bundles = khuzdul::list_bundles(std::path::Path::new(dir.as_str()))
        .map_err(|e| format!("{dir}: {e}"))?;
    if bundles.is_empty() {
        return Ok(format!("{dir}: no incident bundles\n"));
    }
    let mut out = String::new();
    for path in &bundles {
        let b = load_bundle(&path.display().to_string())?;
        let _ = writeln!(
            out,
            "{:<32} {:<18} q{:<5} t+{:.3}s  {}",
            b.id,
            b.trigger.kind.name(),
            b.trigger.query_id,
            b.trigger.at_ns as f64 / 1e9,
            path.display()
        );
    }
    let _ = writeln!(out, "{} bundle(s) in {dir}", bundles.len());
    Ok(out)
}

/// `gpm incident show FILE`: render one bundle — trigger, config,
/// flight-ring slice, progress snapshots, counters, and ledger state.
fn run_incident_show(args: &[String]) -> Result<String, Error> {
    let path = args.first().ok_or_else(|| usage("incident show needs a bundle file"))?;
    Ok(render_bundle(&load_bundle(path)?))
}

fn render_bundle(b: &Bundle) -> String {
    let (t, mut out) = (&b.trigger, String::new());
    let _ = writeln!(out, "incident {}", b.id);
    let part = t.part.map_or(String::new(), |p| format!(" part {p}"));
    let _ = writeln!(
        out,
        "trigger  {} (query {}{part}, value {}, t+{:.3}s)",
        t.kind.name(),
        t.query_id,
        t.value,
        t.at_ns as f64 / 1e9,
    );
    let _ = writeln!(out, "detail   {}", t.detail);
    let stall = b.config.stall_ms.map_or(String::new(), |ms| format!(", stall watchdog {ms}ms"));
    let _ = writeln!(out, "config   fingerprint {}{stall}", b.config.fingerprint);
    let f = &b.flight;
    let _ = writeln!(
        out,
        "flight   {} of {} event(s) retained (capacity {})",
        f.events.len(),
        f.recorded,
        f.capacity,
    );
    for e in &f.events {
        let _ = writeln!(
            out,
            "  [{:>6}] t+{:<9.3} {:<15} q{:<5} part={:<20} a={}",
            e.seq,
            e.at_ns as f64 / 1e9,
            e.kind.name(),
            e.query,
            // u64::MAX marks an event that is not part-scoped.
            if e.part == u64::MAX { "-".to_string() } else { e.part.to_string() },
            e.a,
        );
    }
    for p in &b.progress {
        let _ = writeln!(
            out,
            "progress q{}: {}/{} roots completed, {} claimed, {} stolen, {} recovered",
            p.query_id, p.completed, p.roots_total, p.claimed, p.stolen, p.recovered,
        );
    }
    if let Some(counters) = &b.counters {
        let _ = writeln!(out, "counters");
        for (name, n) in &counters.0 {
            let _ = writeln!(out, "  {name:<24} {n}");
        }
    }
    if let Some(l) = &b.ledger {
        // The message carrier reads no ledger state into a bundle.
        let quiescent = l
            .quiescent
            .map_or(", ledger state not read".to_string(), |q| format!(", quiescent {q}"));
        let poisoned = l.poisoned.as_ref().map_or(String::new(), |e| format!(", poisoned: {e}"));
        let _ = writeln!(
            out,
            "ledger   carrier {}, available {}{quiescent}{poisoned}",
            l.carrier, l.available
        );
    }
    out
}

/// `gpm incident diff A B`: compare two bundles — trigger, config
/// fingerprint, flight-event mix, and counter deltas — to answer "is
/// this the same failure again?".
fn run_incident_diff(args: &[String]) -> Result<String, Error> {
    let [a_path, b_path] = args else {
        return Err(usage("incident diff needs exactly two bundle files"));
    };
    Ok(diff_bundles(&load_bundle(a_path)?, &load_bundle(b_path)?))
}

fn diff_bundles(a: &Bundle, b: &Bundle) -> String {
    fn row<T: std::fmt::Display + PartialEq>(out: &mut String, label: &str, a: T, b: T) {
        if a == b {
            let _ = writeln!(out, "  {label:<20} {a} (same)");
        } else {
            let _ = writeln!(out, "  {label:<20} {a} -> {b}");
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "{} vs {}", a.id, b.id);
    row(&mut out, "trigger", a.trigger.kind.name(), b.trigger.kind.name());
    row(&mut out, "query", a.trigger.query_id, b.trigger.query_id);
    row(&mut out, "config fingerprint", &a.config.fingerprint, &b.config.fingerprint);
    // Flight mix: events per kind, in either bundle's ring slice.
    let count = |doc: &Bundle, kind: &str| {
        doc.flight.events.iter().filter(|e| e.kind.name() == kind).count()
    };
    let mut kinds: Vec<&str> =
        a.flight.events.iter().chain(&b.flight.events).map(|e| e.kind.name()).collect();
    kinds.sort();
    kinds.dedup();
    for kind in kinds {
        row(&mut out, &format!("flight {kind}"), count(a, kind), count(b, kind));
    }
    // Counter deltas, where both bundles captured them.
    if let (Some(ca), Some(cb)) = (&a.counters, &b.counters) {
        for (name, va) in &ca.0 {
            let vb = cb.0.iter().find(|(k, _)| k == name).map_or(0, |(_, n)| *n);
            if *va != vb {
                row(&mut out, name, *va, vb);
            }
        }
    }
    out
}

/// `gpm stats`: Table-1-style characterization plus skew diagnostics.
fn run_stats(args: &[String]) -> Result<String, Error> {
    use gpm_graph::analysis;
    let cluster = Cluster::parse(args, |flag, _| match flag {
        "--graph" | "--gen" => Ok(false),
        other => Err(format!("unknown flag '{other}'")),
    })
    .map_err(usage)?;
    let g = cluster.graph()?;
    let mut out = String::new();
    let _ = writeln!(out, "vertices        {}", g.vertex_count());
    let _ = writeln!(out, "edges           {}", g.edge_count());
    let _ = writeln!(out, "max degree      {}", g.max_degree());
    let _ = writeln!(out, "size            {} bytes", g.size_bytes());
    let _ = writeln!(out, "degree gini     {:.3}", analysis::degree_gini(&g));
    if let Some(c) = analysis::global_clustering(&g) {
        let _ = writeln!(out, "clustering      {c:.4}");
    }
    let _ = writeln!(out, "largest comp.   {} vertices", analysis::largest_component_size(&g));
    let hist = analysis::degree_histogram_log2(&g);
    let _ = writeln!(out, "degree histogram (log2 buckets):");
    for (i, c) in hist.iter().enumerate() {
        if *c > 0 {
            let _ = writeln!(out, "  2^{i:<2} {c}");
        }
    }
    Ok(out)
}

/// `motifs` and `fsm` print neither a bare count nor a report.
fn no_output_flag(flag: &str) -> Result<bool, String> {
    match flag {
        "--quiet" | "--report-out" => Err(format!("{flag} is a count and serve flag")),
        _ => Ok(false),
    }
}

/// `gpm motifs --k K`: induced k-motif census.
fn run_motifs(args: &[String]) -> Result<String, Error> {
    let mut k = 3;
    let cluster = Cluster::parse(args, |flag, args| match flag {
        "--k" => {
            k = args.num()?;
            Ok(true)
        }
        _ => no_output_flag(flag),
    })
    .map_err(usage)?;
    let engine = cluster.engine(&cluster.graph()?, ObsConfig::default());
    let motifs = crate::counting::motif_count(&engine, k, &PlanOptions::automine())?;
    engine.shutdown();
    let mut out = String::new();
    let _ = writeln!(out, "{k}-motif census ({} machines):", cluster.machines);
    for (p, c) in &motifs.per_pattern {
        let _ = writeln!(out, "  {p:<30} {c}");
    }
    let _ = writeln!(out, "total connected {k}-subgraphs: {}", motifs.run.count);
    let _ = writeln!(out, "elapsed: {:?}", motifs.run.elapsed);
    Ok(out)
}

/// `gpm fsm --threshold T --max-edges E --labels L`.
fn run_fsm(args: &[String]) -> Result<String, Error> {
    let (mut threshold, mut max_edges, mut labels) = (100, 3, 3);
    let cluster = Cluster::parse(args, |flag, args| {
        match flag {
            "--threshold" => threshold = args.num()?,
            "--max-edges" => max_edges = args.num()?,
            "--labels" => labels = args.num()?,
            _ => return no_output_flag(flag),
        }
        Ok(true)
    })
    .map_err(usage)?;
    let g = cluster.graph()?;
    let g = if g.is_labeled() {
        g
    } else {
        gpm_graph::gen::with_random_labels(&g, labels as gpm_graph::Label, 7)
    };
    let engine = cluster.engine(&g, ObsConfig::default());
    let result = crate::fsm::fsm(
        &engine,
        &crate::fsm::FsmConfig {
            support_threshold: threshold as u64,
            max_edges,
            exact_supports: false,
        },
    );
    engine.shutdown();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fsm: {} candidates evaluated, {} frequent at support >= {threshold} ({:?})",
        result.evaluated,
        result.frequent.len(),
        result.elapsed
    );
    for (p, s) in &result.frequent {
        let labels = p
            .labels()
            .map(|l| l.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(","))
            .unwrap_or_default();
        let _ = writeln!(out, "  {p} [{labels}]  support>={s}");
    }
    Ok(out)
}

fn run_count(args: &[String]) -> Result<String, Error> {
    let opts = parse_args(args).map_err(usage)?;
    let c = &opts.cluster;
    let graph = c.graph()?;
    let ex = execute(&graph, &opts)?;
    if let Some(path) = &opts.trace_out {
        std::fs::write(path, &ex.trace).map_err(|e| format!("writing {path}: {e}"))?;
    }
    if let Some(path) = &c.report_out {
        ex.report.write_to(path).map_err(|e| format!("writing {path}: {e}"))?;
    }
    let stats = ex.stats;
    let mut out = String::new();
    if c.quiet {
        let _ = writeln!(out, "{}", stats.count);
        return Ok(out);
    }
    let _ = writeln!(
        out,
        "graph    {} vertices, {} edges, max degree {}",
        graph.vertex_count(),
        graph.edge_count(),
        graph.max_degree()
    );
    let _ =
        writeln!(out, "pattern  {}{}", opts.pattern, if opts.induced { " (induced)" } else { "" });
    let _ = writeln!(
        out,
        "system   {} ({} machines x {} sockets, {} threads; {} set kernels)",
        opts.system.names().1,
        c.machines,
        c.sockets,
        c.threads,
        gpm_graph::set_ops::kernel()
    );
    let _ = writeln!(out, "count    {}", stats.count);
    let _ = writeln!(out, "elapsed  {:?}", stats.elapsed);
    let _ = writeln!(
        out,
        "traffic  {} bytes in {} fetches ({} coalesced, {} retries)",
        stats.traffic.network_bytes,
        stats.traffic.requests,
        stats.traffic.coalesced,
        stats.traffic.retries
    );
    if stats.failures.parts_failed > 0 {
        let f = &stats.failures;
        let _ = writeln!(
            out,
            "failure  {} part(s) failed; {} fetches re-routed ({} bytes); {} roots re-executed",
            f.parts_failed, f.rerouted_requests, f.rerouted_bytes, f.reexecuted_roots
        );
    }
    let reb = &ex.report.rebalance;
    if reb.transfers > 0 || reb.slices_lost > 0 {
        let _ = writeln!(
            out,
            "rebalance {} slice(s) restored ({} transfers, {} bytes), {} lost; effective r={}; epoch {}",
            reb.slices_restored,
            reb.transfers,
            reb.bytes,
            reb.slices_lost,
            reb.min_effective_replication,
            reb.routing_epoch
        );
    }
    let b = stats.breakdown();
    let _ = writeln!(
        out,
        "split    {:.0}% compute / {:.0}% network / {:.0}% scheduler / {:.0}% cache",
        b.compute * 100.0,
        b.network * 100.0,
        b.scheduler * 100.0,
        b.cache * 100.0
    );
    if let (Some(dir), 1..) = (&c.incident_dir, ex.incidents) {
        let _ = writeln!(out, "incident {} bundle(s) in {dir}", ex.incidents);
    }
    Ok(out)
}

/// One executed run plus its observability artifacts. The report and
/// trace are always produced (they are cheap skeletons when tracing is
/// off); `run_count` only writes them to disk when the output flags ask.
struct Executed {
    stats: RunStats,
    report: RunReport,
    trace: String,
    /// Incident bundles captured during the run (0 for the baselines).
    incidents: usize,
}

fn execute(graph: &Graph, opts: &Options) -> Result<Executed, String> {
    let c = &opts.cluster;
    let mut plan_opts = match opts.system {
        System::KhuzdulGraphpi => PlanOptions::graphpi(),
        _ => PlanOptions::automine(),
    };
    plan_opts.induced = opts.induced;
    // Tracing is opt-in: either output flag arms the recorder.
    let observe = opts.trace_out.is_some() || c.report_out.is_some();
    let obs = if observe { ObsConfig::enabled() } else { ObsConfig::default() };
    let slug = opts.system.names().0;
    match opts.system {
        System::KhuzdulAutomine | System::KhuzdulGraphpi => {
            let plan = MatchingPlan::compile(&opts.pattern, &plan_opts)?;
            let engine = c.engine(graph, obs);
            let counted = engine.try_count(&plan);
            let incidents = engine.incidents().incidents().len();
            // The bundles are the whole point of a failed chaos run: point
            // the error at them.
            let stats = counted.map_err(|e| match (&c.incident_dir, incidents) {
                (Some(dir), 1..) => format!("{e} ({incidents} incident bundle(s) in {dir})"),
                _ => e.to_string(),
            })?;
            let report = engine.report(&stats, slug);
            let trace = engine.chrome_trace();
            engine.shutdown();
            Ok(Executed { stats, report, trace, incidents })
        }
        System::GThinker => {
            let recorder = Recorder::new(&obs);
            let pg = PartitionedGraph::new(graph, c.machines, c.sockets);
            let sys =
                GThinker::new(pg, GThinkerConfig::default()).with_recorder(Arc::clone(&recorder));
            let stats = sys.count(&opts.pattern, &plan_opts)?;
            let report = sys.report(&stats);
            let trace = recorder.chrome_trace();
            Ok(Executed { stats, report, trace, incidents: 0 })
        }
        System::Replicated => {
            let plan = MatchingPlan::compile(&opts.pattern, &plan_opts)?;
            let sys = ReplicatedCluster::new(
                graph.clone(),
                ReplicatedConfig {
                    machines: c.machines,
                    threads_per_machine: c.threads,
                    ..ReplicatedConfig::default()
                },
            );
            let stats = sys.count(&plan);
            // No fetch fabric to instrument: the report carries the
            // counters, the trace is a valid empty event list.
            let report = stats.to_report(slug);
            Ok(Executed { stats, report, trace: gpm_obs::chrome_trace(&[]), incidents: 0 })
        }
        System::Ctd => {
            let recorder = Recorder::new(&obs);
            let sys = CtdCluster::new(PartitionedGraph::new(graph, c.machines, c.sockets))
                .with_recorder(Arc::clone(&recorder));
            let stats = sys.count(&opts.pattern, &plan_opts)?;
            let report = sys.report(&stats);
            let trace = recorder.chrome_trace();
            Ok(Executed { stats, report, trace, incidents: 0 })
        }
        System::Single => {
            let sys = SingleMachine::automine_ih(graph.clone(), c.threads);
            let stats = if opts.induced {
                let plan = MatchingPlan::compile(&opts.pattern, &plan_opts)?;
                sys.count_plan(&plan)
            } else {
                sys.count(&opts.pattern)?
            };
            let report = stats.to_report(slug);
            Ok(Executed { stats, report, trace: gpm_obs::chrome_trace(&[]), incidents: 0 })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_minimal() {
        let o = parse_args(&argv("--gen ba:100,3 --pattern triangle")).unwrap();
        assert_eq!(o.cluster.machines, 4);
        assert_eq!(o.pattern, Pattern::triangle());
        assert_eq!(o.system, System::KhuzdulAutomine);
    }

    #[test]
    fn parse_full() {
        let o = parse_args(&argv(
            "--gen er:50,100 --pattern clique:4 --system gthinker --machines 2 \
             --sockets 2 --threads 3 --induced --quiet",
        ))
        .unwrap();
        assert_eq!(o.system, System::GThinker);
        assert_eq!((o.cluster.machines, o.cluster.sockets, o.cluster.threads), (2, 2, 3));
        assert!(o.induced && o.cluster.quiet);
    }

    #[test]
    fn parse_errors() {
        assert!(parse_args(&argv("--pattern triangle")).is_err()); // no graph
        assert!(parse_args(&argv("--gen ba:100,3")).is_err()); // no pattern
        assert!(parse_args(&argv("--gen ba:100,3 --pattern nope")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
        assert!(parse_args(&argv("--gen ba:100,3 --pattern triangle --machines x")).is_err());
        assert!(parse_args(&argv("--gen ba:100,3 --pattern triangle --fault-drop 1.5")).is_err());
        assert!(parse_args(&argv("--gen ba:100,3 --pattern triangle --fault-drop x")).is_err());
        // Sizes the pattern constructors would panic on name the spec.
        for spec in ["clique:0", "clique:40", "path:0", "star:1", "cycle:2", "cycle:9"] {
            let err =
                parse_args(&argv(&format!("--gen er:50,100 --pattern {spec}"))).expect_err(spec);
            assert!(err.contains(spec), "{err}");
        }
    }

    /// `--help` prints the usage text, and every `--flag` in it is taken
    /// by each subcommand its header names.
    #[test]
    fn usage_lists_only_flags_its_subcommands_take() {
        assert_eq!(run(&argv("--help")).unwrap(), USAGE);
        assert_eq!(run(&argv("serve --queries q.txt -h")).unwrap(), USAGE);
        let mut subcommands: Vec<&str> = Vec::new();
        for line in USAGE.lines().skip(1) {
            if !line.starts_with(' ') {
                let names = line.split_once(':').map_or("", |(names, _)| names);
                subcommands = names.split(", ").filter(|n| !n.is_empty()).collect();
                continue;
            }
            let flags = line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'));
            for flag in flags.filter(|w| w.starts_with("--")) {
                assert!(!subcommands.is_empty(), "{flag} is under no subcommand");
                for sub in &subcommands {
                    let err = run(&argv(&format!("{sub} {flag}"))).unwrap_err().to_string();
                    assert!(!err.contains("unknown flag"), "{sub} {flag}: {err}");
                }
            }
        }
        for sub in ["count", "serve", "motifs", "fsm", "stats", "top ADDR", "report diff A B"] {
            let err = run(&argv(&format!("{sub} --bogus"))).unwrap_err().to_string();
            assert!(err.contains("unknown flag '--bogus'"), "{sub}: {err}");
        }
    }

    #[test]
    fn parse_fabric_flags() {
        let o = parse_args(&argv(
            "--gen ba:100,3 --pattern triangle --window 8 --retries 6 --fault-drop 0.05",
        ))
        .unwrap();
        assert_eq!(o.cluster.window, 8);
        assert_eq!(o.cluster.retries, 6);
        assert!((o.cluster.fault_drop - 0.05).abs() < 1e-12);
        // Defaults track the fabric's own defaults.
        let d = parse_args(&argv("--gen ba:100,3 --pattern triangle")).unwrap();
        assert_eq!(d.cluster.window, FabricConfig::default().window);
        assert_eq!(d.cluster.fault_drop, 0.0);
        // --window 0 is clamped rather than deadlocking the fabric.
        let z = parse_args(&argv("--gen ba:100,3 --pattern triangle --window 0")).unwrap();
        assert_eq!(z.cluster.window, 1);
    }

    #[test]
    fn parse_steal_flags() {
        // CLI default: stealing on, batch from StealConfig's default.
        let d = parse_args(&argv("--gen ba:100,3 --pattern triangle")).unwrap();
        assert!(d.cluster.steal);
        assert_eq!(d.cluster.steal_batch, StealConfig::default().batch);
        let o = parse_args(&argv("--gen ba:100,3 --pattern triangle --steal off --steal-batch 32"))
            .unwrap();
        assert!(!o.cluster.steal);
        assert_eq!(o.cluster.steal_batch, 32);
        // Batch 0 is clamped, not a claim-nothing livelock.
        let z = parse_args(&argv("--gen ba:100,3 --pattern triangle --steal-batch 0")).unwrap();
        assert_eq!(z.cluster.steal_batch, 1);
        assert!(parse_args(&argv("--gen ba:100,3 --pattern triangle --steal maybe")).is_err());
    }

    #[test]
    fn parse_rebalance_flag() {
        // Self-healing is on by default; it only engages with replicas.
        let d = parse_args(&argv("--gen ba:100,3 --pattern triangle")).unwrap();
        assert!(d.cluster.rebalance);
        let o = parse_args(&argv("--gen ba:100,3 --pattern triangle --rebalance off")).unwrap();
        assert!(!o.cluster.rebalance);
        assert!(parse_args(&argv("--gen ba:100,3 --pattern triangle --rebalance maybe")).is_err());
    }

    #[test]
    fn steal_flag_does_not_change_the_count() {
        let on = run(&argv("--gen ba:120,4,9 --pattern triangle --machines 3 --quiet --steal on"))
            .unwrap();
        let off =
            run(&argv("--gen ba:120,4,9 --pattern triangle --machines 3 --quiet --steal off"))
                .unwrap();
        assert_eq!(on.trim(), off.trim());
    }

    #[test]
    fn count_under_fault_injection_still_agrees() {
        let clean =
            run(&argv("--gen er:60,200,3 --pattern triangle --machines 3 --quiet")).unwrap();
        let faulty = run(&argv(
            "--gen er:60,200,3 --pattern triangle --machines 3 --quiet \
             --window 4 --retries 10 --fault-drop 0.05",
        ))
        .unwrap();
        assert_eq!(clean.trim(), faulty.trim());
    }

    #[test]
    fn parse_failure_flags() {
        let o = parse_args(&argv(
            "--gen ba:100,3 --pattern triangle --replication 2 --fault-crash 2@5000",
        ))
        .unwrap();
        assert_eq!(o.cluster.replication, 2);
        assert_eq!(o.cluster.fault_crash, vec![(2, 5000)]);
        // The flag repeats: chained failures accumulate in order.
        let multi = parse_args(&argv(
            "--gen ba:100,3 --pattern triangle --replication 3 \
             --fault-crash 1@40 --fault-crash 2@90",
        ))
        .unwrap();
        assert_eq!(multi.cluster.fault_crash, vec![(1, 40), (2, 90)]);
        let d = parse_args(&argv("--gen ba:100,3 --pattern triangle")).unwrap();
        assert_eq!(d.cluster.replication, 1);
        assert!(d.cluster.fault_crash.is_empty());
        // Replication 0 is clamped to the un-replicated baseline.
        let z = parse_args(&argv("--gen ba:100,3 --pattern triangle --replication 0")).unwrap();
        assert_eq!(z.cluster.replication, 1);
        assert!(parse_args(&argv("--gen ba:100,3 --pattern triangle --fault-crash 2")).is_err());
        assert!(parse_args(&argv("--gen ba:100,3 --pattern triangle --fault-crash x@5")).is_err());
        assert!(parse_args(&argv("--gen ba:100,3 --pattern triangle --fault-crash 2@y")).is_err());
    }

    #[test]
    fn crash_part_must_be_a_part() {
        // Four parts by default: part 9 does not exist, whatever AFTER is.
        let err = parse_args(&argv("--gen er:300,1500,7 --pattern triangle --fault-crash 9@5"))
            .expect_err("part 9 of 4");
        assert!(err.contains("--fault-crash 9@5") && err.contains("= 4"), "{err}");
        // The range is machines x sockets, whichever order the flags come in.
        let ok = "--gen ba:100,3 --pattern triangle --fault-crash 5@1 --machines 3 --sockets 2";
        assert_eq!(parse_args(&argv(ok)).unwrap().cluster.fault_crash, vec![(5, 1)]);
        let err = parse_args(&argv(
            "--gen ba:100,3 --pattern triangle --fault-crash 6@1 --machines 3 --sockets 2",
        ))
        .expect_err("part 6 of 6");
        assert!(err.contains("--fault-crash 6@1"), "{err}");
    }

    #[test]
    fn retries_must_fit_the_attempt_counter() {
        let o =
            parse_args(&argv("--gen ba:100,3 --pattern triangle --retries 4294967295")).unwrap();
        assert_eq!(o.cluster.retries, u32::MAX);
        // One past u32::MAX used to wrap silently to 1 attempt.
        let err = parse_args(&argv("--gen ba:100,3 --pattern triangle --retries 4294967297"))
            .expect_err("too many attempts");
        assert!(err.contains("--retries") && err.contains("4294967297"), "{err}");
    }

    #[test]
    fn parse_control_flag() {
        let d = parse_args(&argv("--gen ba:100,3 --pattern triangle")).unwrap();
        assert_eq!(d.cluster.control, ControlMode::Shared, "shared atomics stay the default");
        let m = parse_args(&argv("--gen ba:100,3 --pattern triangle --control msg")).unwrap();
        assert_eq!(m.cluster.control, ControlMode::Msg);
        let s = parse_args(&argv("--gen ba:100,3 --pattern triangle --control shared")).unwrap();
        assert_eq!(s.cluster.control, ControlMode::Shared);
        let e = parse_args(&argv("--gen ba:100,3 --pattern triangle --control carrier-pigeon"));
        assert!(e.unwrap_err().contains("shared|msg"));
    }

    #[test]
    fn chaos_run_with_replica_agrees_with_clean_run() {
        let clean =
            run(&argv("--gen er:120,500,7 --pattern triangle --machines 3 --quiet")).unwrap();
        // Kill part 1 after a handful of requests; the replica holder
        // serves its slices and the recovery pass restores the count.
        let chaos = run(&argv(
            "--gen er:120,500,7 --pattern triangle --machines 3 --quiet \
             --replication 2 --fault-crash 1@0",
        ))
        .unwrap();
        assert_eq!(clean.trim(), chaos.trim());
        // The verbose report calls the failure out.
        let verbose = run(&argv(
            "--gen er:120,500,7 --pattern triangle --machines 3 \
             --replication 2 --fault-crash 1@0",
        ))
        .unwrap();
        assert!(verbose.contains("failure  1 part(s) failed"), "{verbose}");
        assert!(verbose.contains("re-executed"), "{verbose}");
    }

    #[test]
    fn chaos_run_without_replica_reports_the_loss() {
        let err = run(&argv(
            "--gen er:120,500,7 --pattern triangle --machines 3 --quiet --fault-crash 1@0",
        ))
        .unwrap_err()
        .to_string();
        assert!(err.contains("fail-stopped"), "{err}");
        assert!(err.contains("replication"), "{err}");
    }

    #[test]
    fn pattern_grammar() {
        assert_eq!(parse_pattern("clique:5").unwrap(), Pattern::clique(5));
        assert_eq!(parse_pattern("path:3").unwrap(), Pattern::path(3));
        assert_eq!(parse_pattern("edges:0-1,1-2,2-0").unwrap(), Pattern::triangle());
        assert!(parse_pattern("clique").is_err());
        assert!(parse_pattern("edges:0-").is_err());
        assert!(parse_pattern("edges:0-1,5-6").is_err()); // disconnected
        assert_eq!(parse_pattern("edges:0-1,1-1").unwrap_err(), "edge (1, 1) is a self-loop");
    }

    #[test]
    fn generator_grammar() {
        assert_eq!(parse_gen("ba:100,3,7").unwrap().vertex_count(), 100);
        assert_eq!(parse_gen("er:60,90").unwrap().edge_count(), 90);
        assert_eq!(parse_gen("rmat:6,4").unwrap().vertex_count(), 64);
        assert!(parse_gen("dataset:mc").is_ok());
        assert!(parse_gen("dataset:nope").is_err());
        assert!(parse_gen("zzz:1").is_err());
        // No silent default seed, no ignored trailing argument, and no
        // R-MAT scale wrapping through u32.
        let bad =
            ["ba:100,3,x", "ba:100,3,42,7", "er:60,90,1,2,3", "rmat:4294967300,2", "rmat:32,2"];
        for spec in bad {
            let err = parse_gen(spec).err().unwrap_or_else(|| panic!("{spec} parsed"));
            assert!(err.contains(spec), "{spec}: {err}");
        }
        assert!(parse_gen("dataset:mc,x").is_err());
        // A missing seed is still 42.
        assert!(parse_gen("ba:100,3,42").unwrap() == parse_gen("ba:100,3").unwrap());
    }

    #[test]
    fn stats_subcommand() {
        let out = run(&argv("stats --gen ba:300,4")).unwrap();
        assert!(out.contains("vertices        300"));
        assert!(out.contains("degree gini"));
        assert!(out.contains("degree histogram"));
    }

    /// `motifs` prints the induced count of every connected k-vertex
    /// pattern, then their total, each exact against the oracle; stealing
    /// (the cluster default) moves work, never a count.
    #[test]
    fn motifs_subcommand() {
        let spec = "er:30,110,3";
        let g = parse_gen(spec).unwrap();
        for k in [3usize, 4] {
            let counts: Vec<(Pattern, u64)> = (gpm_pattern::genpat::connected_patterns(k))
                .into_iter()
                .map(|p| {
                    let c = gpm_pattern::oracle::count_subgraphs(&g, &p, true);
                    (p, c)
                })
                .collect();
            let total: u64 = counts.iter().map(|(_, c)| c).sum();
            let mut lines = vec![format!("{k}-motif census (2 machines):")];
            lines.extend(counts.iter().map(|(p, c)| format!("  {p:<30} {c}")));
            lines.push(format!("total connected {k}-subgraphs: {total}"));
            for steal in ["on", "off"] {
                let cmd = format!("motifs --gen {spec} --k {k} --machines 2 --steal {steal}");
                let out = run(&argv(&cmd)).unwrap();
                assert_eq!(out.lines().take(lines.len()).collect::<Vec<_>>(), lines, "{cmd}");
            }
        }
    }

    #[test]
    fn fsm_subcommand() {
        let out =
            run(&argv("fsm --gen er:60,200 --threshold 5 --max-edges 2 --machines 2")).unwrap();
        assert!(out.contains("frequent at support >= 5"), "{out}");
        // Fewer labels, fewer distinct labelled candidates to evaluate.
        let evaluated = |out: &str| -> usize {
            out.split_whitespace().nth(1).and_then(|n| n.parse().ok()).expect("fsm: N candidates")
        };
        let two = run(&argv("fsm --gen er:60,200 --threshold 5 --max-edges 2 --labels 2")).unwrap();
        assert!(evaluated(&two) < evaluated(&out), "{two}\n{out}");
        // Stealing (the cluster default) moves work, never the frequent
        // set; a support is a lower bound that stops where the run does.
        let off = "fsm --gen er:60,200 --threshold 5 --max-edges 2 --machines 2 --steal off";
        let frequent = |out: &str| -> Vec<String> {
            out.lines().skip(1).map(|l| l.split("support").next().unwrap().to_string()).collect()
        };
        let off = run(&argv(off)).unwrap();
        assert_eq!(frequent(&out), frequent(&off));
        assert_eq!(evaluated(&out), evaluated(&off));
    }

    #[test]
    fn subcommand_errors() {
        assert!(run(&argv("stats")).is_err()); // no graph
        assert!(run(&argv("motifs --gen er:30,60 --k x")).is_err());
        assert!(run(&argv("fsm --gen er:30,60 --bogus 3")).is_err());
    }

    #[test]
    fn end_to_end_all_systems_agree() {
        let mut counts = Vec::new();
        for system in
            ["khuzdul-automine", "khuzdul-graphpi", "gthinker", "replicated", "ctd", "single"]
        {
            let out = run(&argv(&format!(
                "--gen er:60,200,3 --pattern triangle --machines 3 --system {system} --quiet"
            )))
            .unwrap();
            counts.push(out.trim().parse::<u64>().unwrap());
        }
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    }

    #[test]
    fn parse_output_flags() {
        let o = parse_args(&argv(
            "--gen ba:100,3 --pattern triangle --trace-out /tmp/t.json --report-out /tmp/r.json",
        ))
        .unwrap();
        assert_eq!(o.trace_out.as_deref(), Some("/tmp/t.json"));
        assert_eq!(o.cluster.report_out.as_deref(), Some("/tmp/r.json"));
        let d = parse_args(&argv("--gen ba:100,3 --pattern triangle")).unwrap();
        assert_eq!(d.trace_out, None);
        assert_eq!(d.cluster.report_out, None);
        assert!(parse_args(&argv("--gen ba:100,3 --pattern triangle --trace-out")).is_err());
    }

    /// Every system writes a schema-valid report and trace through the
    /// output flags, and `report-validate` accepts the report file.
    #[test]
    fn output_flags_write_valid_artifacts_for_every_system() {
        let dir = std::env::temp_dir().join(format!("gpm-cli-obs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for system in
            ["khuzdul-automine", "khuzdul-graphpi", "gthinker", "replicated", "ctd", "single"]
        {
            let trace = dir.join(format!("{system}.trace.json"));
            let report = dir.join(format!("{system}.report.json"));
            run(&argv(&format!(
                "--gen er:60,200,3 --pattern triangle --machines 3 --quiet --system {system} \
                 --trace-out {} --report-out {}",
                trace.display(),
                report.display()
            )))
            .unwrap();
            let trace_json = std::fs::read_to_string(&trace).unwrap();
            gpm_obs::validate_trace(&trace_json).unwrap_or_else(|e| panic!("{system}: {e}"));
            let out = run(&argv(&format!("report-validate {}", report.display()))).unwrap();
            assert!(out.contains("valid RunReport"), "{system}: {out}");
            let report_json = std::fs::read_to_string(&report).unwrap();
            assert!(report_json.contains(&format!("\"system\": \"{system}\"")), "{system}");
        }
        // Distributed systems actually record spans when the flags are on.
        let khuzdul = std::fs::read_to_string(dir.join("khuzdul-automine.trace.json")).unwrap();
        assert!(khuzdul.contains("resolve"), "khuzdul trace lacks resolve spans:\n{khuzdul}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_validate_rejects_garbage() {
        assert!(run(&argv("report-validate /nonexistent/x.json")).is_err());
        let dir = std::env::temp_dir();
        let bad = dir.join(format!("gpm-cli-bad-{}.json", std::process::id()));
        std::fs::write(&bad, "{\"schema_version\": 99}").unwrap();
        let err =
            run(&argv(&format!("report-validate {}", bad.display()))).unwrap_err().to_string();
        assert!(err.contains(&bad.display().to_string()));
        std::fs::remove_file(&bad).ok();
        assert!(run(&argv("report-validate")).is_err()); // no path
    }

    /// `report diff` as the CI gate uses it: a report self-diffs clean,
    /// a candidate with 10% more fetch-wait fails with non-empty
    /// regression lines, and loosened thresholds let it back through.
    #[test]
    fn report_diff_subcommand_gates_regressions() {
        use gpm_obs::{CriticalPathFractions, CriticalPathSection, PartReport, TrafficTotals};
        let mut base = RunReport {
            schema_version: gpm_obs::REPORT_SCHEMA_VERSION,
            system: "khuzdul-automine".into(),
            count: 500,
            elapsed_ns: 1_000_000,
            traffic: TrafficTotals {
                fetch_requests: 900,
                cache_hits: 500,
                cache_misses: 400,
                network_bytes: 1 << 18,
                ..Default::default()
            },
            per_part: (0..4)
                .map(|p| PartReport {
                    part: p,
                    count: 125,
                    compute_ns: 800,
                    network_ns: 400,
                    ..Default::default()
                })
                .collect(),
            critical_path: CriticalPathSection {
                fractions: CriticalPathFractions {
                    compute: 0.6,
                    fetch_wait: 0.3,
                    responder_queue: 0.06,
                    retry_backoff: 0.04,
                },
                per_part: Vec::new(),
            },
            breakdown: Default::default(),
            histograms: Vec::new(),
            spans: Default::default(),
            failures: Default::default(),
            rebalance: Default::default(),
            control: Default::default(),
            queries: Vec::new(),
            incidents: Vec::new(),
        };
        let dir = std::env::temp_dir().join(format!("gpm-cli-diff-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bp = dir.join("base.json");
        let cp = dir.join("cand.json");
        std::fs::write(&bp, base.to_json()).unwrap();
        let self_diff =
            run(&argv(&format!("report diff {} {}", bp.display(), bp.display()))).unwrap();
        assert!(self_diff.contains("PASS"), "{self_diff}");
        assert!(self_diff.contains("critical_path.fetch_wait"), "{self_diff}");
        // Inject the acceptance-criterion regression: +10% fetch wait.
        base.critical_path.fractions.fetch_wait *= 1.10;
        base.critical_path.fractions.compute -= 0.03;
        std::fs::write(&cp, base.to_json()).unwrap();
        let verdict = run(&argv(&format!("report diff {} {}", bp.display(), cp.display())));
        let Err(Error::Failed { output, error }) = verdict else {
            panic!("the regression must fail the gate: {verdict:?}");
        };
        assert!(output.contains("REGRESSION"), "{output}");
        assert!(output.contains("fetch_wait"), "{output}");
        assert_eq!(error, format!("1 regression(s) against {}", bp.display()));
        // Loosened thresholds (a noisy run-pair comparison) pass it.
        let loose = run(&argv(&format!(
            "report diff {} {} --frac-rel 0.5 --frac-abs 0.1",
            bp.display(),
            cp.display()
        )))
        .unwrap();
        assert!(loose.contains("PASS"), "{loose}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_diff_argument_errors() {
        assert!(run(&argv("report")).is_err());
        assert!(run(&argv("report frobnicate")).is_err());
        assert!(run(&argv("report diff only-one.json")).is_err());
        assert!(run(&argv("report diff a.json b.json --bogus 1")).is_err());
        assert!(run(&argv("report diff a.json b.json --frac-rel x")).is_err());
        assert!(run(&argv("report diff /nonexistent/a.json /nonexistent/b.json")).is_err());
    }

    #[test]
    fn verbose_report_mentions_everything() {
        let out = run(&argv("--gen ba:200,4 --pattern clique:4 --machines 2")).unwrap();
        let kernels = format!("; {} set kernels)", gpm_graph::set_ops::kernel());
        for needle in ["graph", "pattern", &kernels, "count", "elapsed", "traffic", "split"] {
            assert!(out.contains(needle), "missing {needle} in:\n{out}");
        }
    }

    #[test]
    fn parse_query_lines() {
        assert_eq!(parse_query_line("").unwrap(), None);
        assert_eq!(parse_query_line("  # comment").unwrap(), None);
        let (p, o) = parse_query_line("clique:4 induced").unwrap().unwrap();
        assert_eq!(p, Pattern::clique(4));
        assert!(o.induced);
        let (_, o) = parse_query_line("triangle graphpi").unwrap().unwrap();
        assert_eq!(o.order, PlanOptions::graphpi().order);
        assert!(parse_query_line("triangle frobnicate").is_err());
        assert!(parse_query_line("nope").is_err());
    }

    /// `serve` replays a workload file: counts match solo runs line by
    /// line, the duplicate is memoized, and the aggregate report
    /// validates as schema v6; `report-validate` names the version it
    /// read, so the committed v4 baseline reads as v4.
    #[test]
    fn serve_replays_a_workload_with_solo_counts() {
        let dir = std::env::temp_dir().join(format!("gpm-cli-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let workload = dir.join("queries.txt");
        std::fs::write(&workload, "# seeded workload\ntriangle\npath:3\ntriangle\ncycle:4\n")
            .unwrap();
        let report = dir.join("service.report.json");
        let out = run(&argv(&format!(
            "serve --gen ba:300,4,11 --queries {} --machines 3 --max-concurrent 3 \
             --report-out {}",
            workload.display(),
            report.display()
        )))
        .unwrap();
        assert!(out.contains("(memoized)"), "duplicate triangle must memoize:\n{out}");
        // Line-by-line: each query's count equals its solo run.
        for (pattern, line) in ["triangle", "path:3", "triangle", "cycle:4"]
            .iter()
            .zip(out.lines().filter(|l| l.starts_with('q')))
        {
            let solo =
                run(&argv(&format!("--gen ba:300,4,11 --pattern {pattern} --machines 3 --quiet")))
                    .unwrap();
            let want = format!("count={}", solo.trim());
            assert!(line.contains(&want), "{pattern}: expected {want} in '{line}'");
        }
        let json = std::fs::read_to_string(&report).unwrap();
        assert!(json.contains("\"queries\""), "report lacks per-query sections");
        let validated = run(&argv(&format!("report-validate {}", report.display()))).unwrap();
        assert!(validated.contains("valid RunReport (schema v6)"), "{validated}");
        let baseline =
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci/service-baseline.report.json");
        let validated = run(&argv(&format!("report-validate {baseline}"))).unwrap();
        assert!(validated.contains("valid RunReport (schema v4)"), "{validated}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `serve --status-addr` serves the live plane for the whole run,
    /// `--slow-query-ms 0` logs every query as slow, and `gpm top`
    /// renders the scraped `/status` document.
    #[test]
    fn serve_with_status_plane_and_top() {
        let dir = std::env::temp_dir().join(format!("gpm-cli-status-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let workload = dir.join("queries.txt");
        std::fs::write(&workload, "triangle\npath:3\ntriangle\n").unwrap();
        let out = run(&argv(&format!(
            "serve --gen ba:250,4,11 --queries {} --machines 2 --status-addr 127.0.0.1:0 \
             --slow-query-ms 0 --memo-capacity 8",
            workload.display()
        )))
        .unwrap();
        assert!(out.contains("status plane on http://"), "{out}");
        // The plane is gone with the run; `top` against it must fail
        // cleanly, as must a never-bound port.
        let addr = out
            .lines()
            .find(|l| l.contains("status plane"))
            .and_then(|l| l.split("http://").nth(1))
            .and_then(|l| l.split('/').next())
            .expect("address printed")
            .to_string();
        assert!(run(&argv(&format!("top {addr}"))).is_err());
        // A live server: drive `top` against a real /status document.
        use gpm_graph::partition::PartitionedGraph;
        let g = gen::barabasi_albert(200, 4, 3);
        let engine =
            Arc::new(Engine::new(PartitionedGraph::new(&g, 2, 1), EngineConfig::default()));
        let svc = Arc::new(MiningService::start(
            engine,
            ServiceConfig { slow_query: Some(Duration::ZERO), ..ServiceConfig::default() },
        ));
        let server = StatusServer::start(Arc::clone(&svc), "127.0.0.1:0").unwrap();
        let h = svc.submit(&Pattern::triangle(), &PlanOptions::automine()).unwrap();
        h.wait().unwrap();
        let top = run(&argv(&format!("top {}", server.local_addr()))).unwrap();
        assert!(top.contains("khuzdul service @"), "{top}");
        assert!(top.contains("memo:"), "{top}");
        assert!(top.contains("RECENT"), "{top}");
        assert!(top.contains("SLOW"), "{top}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_validate_subcommand() {
        let dir = std::env::temp_dir();
        let good = dir.join(format!("gpm-cli-metrics-{}.prom", std::process::id()));
        std::fs::write(
            &good,
            "# HELP gpm_up Whether the service is up\n# TYPE gpm_up gauge\ngpm_up 1\n",
        )
        .unwrap();
        let out = run(&argv(&format!("metrics-validate {}", good.display()))).unwrap();
        assert!(out.contains("valid Prometheus exposition (1 samples)"), "{out}");
        let bad = dir.join(format!("gpm-cli-metrics-bad-{}.prom", std::process::id()));
        std::fs::write(&bad, "not a metric line at all!\n").unwrap();
        assert!(run(&argv(&format!("metrics-validate {}", bad.display()))).is_err());
        assert!(run(&argv("metrics-validate")).is_err());
        assert!(run(&argv("metrics-validate /nonexistent/m.prom")).is_err());
        std::fs::remove_file(&good).ok();
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn top_argument_errors() {
        assert!(run(&argv("top")).is_err());
        // Unroutable/closed: connection refused surfaces as a clean error.
        assert!(run(&argv("top 127.0.0.1:1")).is_err());
        assert!(run(&argv("top 127.0.0.1:1 --watch")).is_err());
        assert!(run(&argv("top 127.0.0.1:1 --watch x")).is_err());
        let err = run(&argv("top 127.0.0.1:1 --watch inf")).unwrap_err().to_string();
        assert!(err.contains("--watch inf"), "{err}");
        assert!(run(&argv("top 127.0.0.1:1 --frames 2")).is_err()); // needs --watch
        assert!(run(&argv("top 127.0.0.1:1 --bogus 1")).is_err());
    }

    /// `top --watch` renders one frame per interval against a live
    /// server, and ends cleanly (not an error) when the server goes away
    /// mid-watch.
    #[test]
    fn top_watch_renders_bounded_frames() {
        use gpm_graph::partition::PartitionedGraph;
        let g = gen::barabasi_albert(150, 4, 5);
        let engine =
            Arc::new(Engine::new(PartitionedGraph::new(&g, 2, 1), EngineConfig::default()));
        let svc = Arc::new(MiningService::start(engine, ServiceConfig::default()));
        let server = StatusServer::start(Arc::clone(&svc), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();
        svc.submit(&Pattern::triangle(), &PlanOptions::automine()).unwrap().wait().unwrap();
        let out = run(&argv(&format!("top {addr} --watch 0.02 --frames 3"))).unwrap();
        assert_eq!(out.matches("--- frame").count(), 3, "{out}");
        assert_eq!(out.matches("khuzdul service @").count(), 3, "{out}");
        // Kill the server mid-watch: a long watch ends at the frame the
        // connection fails, reporting the disappearance in-band.
        let watcher = std::thread::spawn(move || {
            run(&argv(&format!("top {addr} --watch 0.05 --frames 1000")))
        });
        std::thread::sleep(Duration::from_millis(120));
        drop(server);
        drop(svc);
        let out = watcher.join().unwrap().unwrap();
        assert!(out.contains("server gone"), "{out}");
        assert!(out.matches("--- frame").count() < 1000, "{out}");
    }

    /// The acceptance-criterion chaos flow: a seeded `--fault-crash` run
    /// with a replica captures exactly one `part_failed` bundle, and the
    /// `incident` subcommands list, render, and diff it.
    #[test]
    fn chaos_run_captures_a_bundle_the_incident_commands_render() {
        let dir = std::env::temp_dir().join(format!("gpm-cli-incident-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = run(&argv(&format!(
            "--gen er:120,500,7 --pattern triangle --machines 3 \
             --replication 2 --fault-crash 1@0 --incident-dir {}",
            dir.display()
        )))
        .unwrap();
        assert!(out.contains("incident 1 bundle(s)"), "{out}");
        let listed = run(&argv(&format!("incident list {}", dir.display()))).unwrap();
        assert!(listed.contains("part_failed"), "{listed}");
        assert!(listed.contains("1 bundle(s)"), "{listed}");
        let path = listed
            .lines()
            .next()
            .and_then(|l| l.split_whitespace().last())
            .expect("list prints the bundle path")
            .to_string();
        let shown = run(&argv(&format!("incident show {path}"))).unwrap();
        assert!(shown.contains("trigger  part_failed"), "{shown}");
        assert!(shown.contains("part 1"), "{shown}");
        assert!(shown.contains("part_crash"), "the flight slice shows the death:\n{shown}");
        assert!(shown.contains("counters"), "{shown}");
        // A second identical run: the diff of the two bundles reports
        // the same trigger and the same config fingerprint.
        run(&argv(&format!(
            "--gen er:120,500,7 --pattern triangle --machines 3 --quiet \
             --replication 2 --fault-crash 1@0 --incident-dir {}",
            dir.display()
        )))
        .unwrap();
        let listed = run(&argv(&format!("incident list {}", dir.display()))).unwrap();
        assert!(listed.contains("2 bundle(s)"), "{listed}");
        let paths: Vec<&str> =
            listed.lines().take(2).filter_map(|l| l.split_whitespace().last()).collect();
        let diff = run(&argv(&format!("incident diff {} {}", paths[0], paths[1]))).unwrap();
        assert!(diff.contains("trigger"), "{diff}");
        assert!(diff.contains("part_failed (same)"), "{diff}");
        assert!(diff.contains("config fingerprint"), "{diff}");
        assert!(diff.contains("(same)"), "{diff}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An unmasked crash errs, but the error points at the bundle dir
    /// and the bundle survives for the post-mortem.
    #[test]
    fn failed_chaos_run_points_at_its_bundles() {
        let dir =
            std::env::temp_dir().join(format!("gpm-cli-incident-lost-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let err = run(&argv(&format!(
            "--gen er:120,500,7 --pattern triangle --machines 3 --quiet \
             --fault-crash 1@0 --incident-dir {}",
            dir.display()
        )))
        .unwrap_err()
        .to_string();
        assert!(err.contains("incident bundle(s)"), "{err}");
        let listed = run(&argv(&format!("incident list {}", dir.display()))).unwrap();
        assert!(listed.contains("part_lost"), "{listed}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn incident_argument_errors() {
        assert!(run(&argv("incident")).is_err());
        assert!(run(&argv("incident frobnicate")).is_err());
        assert!(run(&argv("incident list")).is_err());
        assert!(run(&argv("incident list /nonexistent/dir")).is_err());
        assert!(run(&argv("incident show")).is_err());
        assert!(run(&argv("incident show /nonexistent/b.json")).is_err());
        assert!(run(&argv("incident diff a.json")).is_err());
        // A non-bundle JSON file fails schema validation, not rendering.
        let bad =
            std::env::temp_dir().join(format!("gpm-cli-incident-bad-{}.json", std::process::id()));
        std::fs::write(&bad, "{\"bundle_schema\": 99}").unwrap();
        let err = run(&argv(&format!("incident show {}", bad.display()))).unwrap_err().to_string();
        assert!(err.contains(&bad.display().to_string()), "{err}");
        std::fs::remove_file(&bad).ok();
        // A real stall bundle with five fields deleted or mistyped: show
        // and list refuse it, naming the first field the reader hit.
        let dir = std::env::temp_dir().join(format!("gpm-cli-malformed-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let broken = [
            (r#""available":true,"quiescent":false,"#, ""),
            (r#""stolen":0,"recovered":0,"#, ""),
            (r#""part":null"#, r#""part":"two""#),
            (r#""stall_ms":300"#, r#""stall_ms":"300""#),
            (r#""recorded":2"#, r#""recorded":1"#),
        ]
        .iter()
        .fold(STALL_BUNDLE.to_string(), |b, (from, to)| {
            assert!(b.contains(from), "{from}");
            b.replacen(from, to, 1)
        });
        let path = dir.join("incident-000001-stall.json");
        std::fs::write(&path, broken).unwrap();
        for cmd in [
            format!("incident show {}", path.display()),
            format!("incident list {}", dir.display()),
        ] {
            let err = run(&argv(&cmd)).unwrap_err().to_string();
            assert!(err.contains("bundle.trigger.part: expected unsigned integer"), "{cmd}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    const PART_FAILED_BUNDLE: &str = include_str!("../../../ci/fixtures/part_failed.bundle.json");
    const STALL_BUNDLE: &str = include_str!("../../../ci/fixtures/stall.bundle.json");

    /// Bundles and a `/status` body written by the untyped writers render
    /// byte for byte as the untyped renderers printed them (the `.txt`
    /// beside each fixture is that output).
    #[test]
    fn earlier_documents_render_as_they_did() {
        let read = |json| khuzdul::validate_bundle(json).expect("fixture bundle reads");
        let (crash, stall) = (read(PART_FAILED_BUNDLE), read(STALL_BUNDLE));
        let crash_b = read(include_str!("../../../ci/fixtures/part_failed_b.bundle.json"));
        assert_eq!(
            render_bundle(&crash),
            include_str!("../../../ci/fixtures/part_failed.show.txt")
        );
        assert_eq!(render_bundle(&stall), include_str!("../../../ci/fixtures/stall.show.txt"));
        assert_eq!(
            diff_bundles(&crash, &stall),
            include_str!("../../../ci/fixtures/part_failed-vs-stall.diff.txt")
        );
        assert_eq!(
            diff_bundles(&crash, &crash_b),
            include_str!("../../../ci/fixtures/part_failed-vs-part_failed_b.diff.txt")
        );
        let status = khuzdul::read_status(include_str!("../../../ci/fixtures/status.json"))
            .expect("fixture /status reads");
        assert_eq!(
            render_top("127.0.0.1:9194", &status),
            include_str!("../../../ci/fixtures/status.top.txt")
        );
    }

    #[test]
    fn parse_incident_flags() {
        let o = parse_args(&argv(
            "--gen ba:100,3 --pattern triangle --incident-dir /tmp/inc --stall-ms 500",
        ))
        .unwrap();
        assert_eq!(o.cluster.incident_dir.as_deref(), Some("/tmp/inc"));
        assert_eq!(o.cluster.stall_ms, Some(500));
        let d = parse_args(&argv("--gen ba:100,3 --pattern triangle")).unwrap();
        assert_eq!(d.cluster.incident_dir, None);
        assert_eq!(d.cluster.stall_ms, None);
        assert!(parse_args(&argv("--gen ba:100,3 --pattern triangle --incident-dir")).is_err());
        assert!(parse_args(&argv("--gen ba:100,3 --pattern triangle --stall-ms x")).is_err());
        // A stall is reported as a bundle: without a directory the
        // watchdog would never start.
        let err = parse_args(&argv("--gen ba:100,3 --pattern triangle --stall-ms 500"));
        assert!(err.unwrap_err().contains("--incident-dir"));
    }

    /// The stall-watchdog acceptance flow, end to end from the CLI: a
    /// message-control run whose claim replies all vanish (so no fetch is
    /// ever sent) wedges until the retry budget expires, and the watchdog
    /// captures a `stall` bundle in the meantime.
    #[test]
    fn wedged_run_trips_the_stall_watchdog_from_the_cli() {
        let dir = std::env::temp_dir().join(format!("gpm-cli-wedged-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let err = run(&argv(&format!(
            "--gen er:100,500,3 --pattern triangle --machines 2 --quiet \
             --control msg --fault-drop 1.0 --retries 6 \
             --stall-ms 60 --incident-dir {}",
            dir.display()
        )))
        .unwrap_err()
        .to_string();
        assert!(err.contains("incident bundle(s)"), "{err}");
        let listed = run(&argv(&format!("incident list {}", dir.display()))).unwrap();
        // A control-poison bundle may ride along; pick the stall one by
        // its filename.
        let path = listed
            .lines()
            .find(|l| l.contains("stall.json"))
            .and_then(|l| l.split_whitespace().last())
            .unwrap_or_else(|| panic!("list prints the stall bundle path:\n{listed}"))
            .to_string();
        let shown = run(&argv(&format!("incident show {path}"))).unwrap();
        assert!(shown.contains("trigger  stall"), "{shown}");
        assert!(shown.contains("ledger"), "the wedged scheduler state is dumped:\n{shown}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_argument_errors() {
        assert!(run(&argv("serve --gen ba:100,3")).is_err()); // no --queries
        assert!(run(&argv("serve --queries /nonexistent/q.txt --gen ba:100,3")).is_err());
        assert!(run(&argv("serve --bogus x")).is_err());
        assert!(run(&argv("serve --gen ba:100,3 --rebalance maybe")).is_err());
        let dir = std::env::temp_dir();
        let empty = dir.join(format!("gpm-cli-serve-empty-{}.txt", std::process::id()));
        std::fs::write(&empty, "# nothing\n\n").unwrap();
        let err = run(&argv(&format!("serve --gen ba:100,3 --queries {}", empty.display())))
            .unwrap_err()
            .to_string();
        assert!(err.contains("no queries"), "{err}");
        std::fs::write(&empty, "triangle\nclique:40\n").unwrap();
        let err = run(&argv(&format!("serve --gen ba:100,3 --queries {}", empty.display())))
            .unwrap_err()
            .to_string();
        assert!(err.contains("clique:40"), "{err}");
        std::fs::remove_file(&empty).ok();
    }

    /// The resident service accepts the failure-model knobs: replicated
    /// hosting leaves every query's count untouched.
    #[test]
    fn serve_with_replication_keeps_counts() {
        let dir = std::env::temp_dir().join(format!("gpm-cli-serve-repl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let workload = dir.join("queries.txt");
        std::fs::write(&workload, "triangle\n").unwrap();
        let solo = run(&argv("--gen ba:200,4,11 --pattern triangle --machines 4 --quiet")).unwrap();
        let out = run(&argv(&format!(
            "serve --gen ba:200,4,11 --queries {} --machines 4 --replication 2",
            workload.display()
        )))
        .unwrap();
        assert!(
            out.contains(&format!("count={}", solo.trim())),
            "replicated serve must match the solo count:\n{out}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
