//! The four workloads: how each one's graph, engine and jobs are made
//! from the seed, how a run is measured end to end (tracing off), and how
//! the separate traced run reads each layer.
//!
//! The load is sized for two cores: every engine is 2 parts × 1 compute
//! thread, the service is driven by 2 closed-loop clients, and nothing
//! else runs while a job is timed.

use crate::probes::{self, Reps};
use crate::record::{Row, WorkloadResult};
use crate::stats;
use crate::trace::Tracer;
use gpm_baselines::gthinker::{GThinker, GThinkerConfig};
use gpm_baselines::replicated::{ReplicatedCluster, ReplicatedConfig};
use gpm_graph::partition::{PartitionedGraph, Partitioner};
use gpm_graph::{gen, Graph};
use gpm_obs::ObsConfig;
use gpm_pattern::plan::{MatchingPlan, PlanOptions};
use gpm_pattern::{interp, Pattern};
use khuzdul::{
    CacheConfig, ControlConfig, ControlMode, Engine, EngineConfig, MiningService, RunStats,
    ServiceConfig, StealConfig,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Parts of every engine (machines × 1 socket).
pub const PARTS: usize = 2;
/// Closed-loop clients driving the service.
const CLIENTS: usize = 2;
/// Segments of an end-to-end run. Each builds its system from nothing
/// (`setup_s` is the median of the builds) and serves an equal share of
/// the measured seconds, so one engine's luck with thread and memory
/// placement is a sixth of the run, and the segments' own values say how
/// steady the run's value is.
const SEGMENTS: usize = 6;
/// Fewest jobs a measurement takes however short `--seconds` is.
const MIN_JOBS: usize = 3;

/// One of the four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Hub-list intersection on a skewed graph, cache hits.
    HubCliques,
    /// Short lists on a sparse graph, cache misses, heavy fetch traffic.
    SparseFetch,
    /// Skewed parts rebalanced by stealing over control messages.
    StealMsg,
    /// Resident service answering millisecond queries.
    ServiceMixed,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 4] =
        [Kind::HubCliques, Kind::SparseFetch, Kind::StealMsg, Kind::ServiceMixed];

    /// The name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::HubCliques => "hub_cliques",
            Kind::SparseFetch => "sparse_fetch",
            Kind::StealMsg => "steal_msg",
            Kind::ServiceMixed => "service_mixed",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The input graph. Sizes are fixed here; `smoke` is about 1/16 of
    /// the edges with the same shape.
    fn graph(self, seed: u64, smoke: bool) -> Graph {
        match (self, smoke) {
            (Kind::HubCliques, false) => gen::rmat(12, 16, (0.57, 0.19, 0.19), seed),
            (Kind::HubCliques, true) => gen::rmat(9, 8, (0.57, 0.19, 0.19), seed),
            // Maximum degree stays far below the cache's admission
            // threshold, so every lookup misses and nothing is admitted.
            (Kind::SparseFetch, false) => gen::erdos_renyi(50_000, 200_000, seed),
            (Kind::SparseFetch, true) => gen::erdos_renyi(3_000, 12_000, seed),
            (Kind::StealMsg, false) => gen::barabasi_albert(60_000, 8, seed),
            (Kind::StealMsg, true) => gen::barabasi_albert(4_000, 8, seed),
            (Kind::ServiceMixed, false) => gen::erdos_renyi(2_000, 8_000, seed),
            (Kind::ServiceMixed, true) => gen::erdos_renyi(250, 1_000, seed),
        }
    }

    /// The patterns of one job, in submission order.
    fn patterns(self) -> Vec<Pattern> {
        match self {
            Kind::HubCliques => vec![Pattern::triangle(), Pattern::clique(4)],
            Kind::SparseFetch => vec![Pattern::triangle(), Pattern::cycle(4)],
            Kind::StealMsg => vec![Pattern::clique(4)],
            // The eight lines of ci/service-workload.txt.
            Kind::ServiceMixed => vec![
                Pattern::triangle(),
                Pattern::clique(4),
                Pattern::path(4),
                Pattern::cycle(4),
                Pattern::star(4),
                Pattern::diamond(),
                Pattern::house(),
                Pattern::triangle(),
            ],
        }
    }

    /// Range partition concentrates Barabási–Albert's early hubs on
    /// part 0, which is what gives the thief something to steal.
    fn partition(self, g: &Graph) -> PartitionedGraph {
        let strategy = if self == Kind::StealMsg { Partitioner::Range } else { Partitioner::Hash };
        PartitionedGraph::with_partitioner(g, PARTS, 1, strategy)
    }

    /// The carrier the workload's control plane runs on.
    fn control(self) -> ControlMode {
        if self == Kind::StealMsg {
            ControlMode::Msg
        } else {
            ControlMode::Shared
        }
    }

    fn engine_config(self, g: &Graph, obs: ObsConfig, control: ControlMode) -> EngineConfig {
        EngineConfig {
            compute_threads: 1,
            cache: CacheConfig {
                capacity_per_machine: (g.size_bytes() / 10).max(64 << 10),
                degree_threshold: 64,
                ..CacheConfig::default()
            },
            steal: StealConfig {
                enabled: self == Kind::StealMsg,
                batch: 16,
                ..StealConfig::default()
            },
            control: ControlConfig { mode: control, ..ControlConfig::default() },
            obs,
            ..EngineConfig::default()
        }
    }
}

/// What `--seed`, `--seconds` and `--smoke` said.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Seed of every generator.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Shrink the workloads to about 1/16.
    pub smoke: bool,
}

/// A built system: the graph, its plans and reference counts, and a warm
/// engine (behind the resident service, on `service_mixed`).
struct System {
    patterns: Vec<Pattern>,
    plans: Vec<MatchingPlan>,
    /// Reference count of each plan; what every job is checked against.
    expect: Arc<Vec<u64>>,
    /// Declared before the engine so that it stops first.
    service: Option<MiningService>,
    engine: Arc<Engine>,
    /// How long [`System::build`] took.
    setup: Duration,
}

/// One completed job: a pass over the plan list, or one client's round
/// of the eight service queries.
struct Job {
    wall: Duration,
    /// The job's `RunStats`, summed over its queries.
    stats: RunStats,
    /// Client-side latency and engine-side run time of each query.
    queries: Vec<(Duration, Duration)>,
    failed: u64,
}

/// The jobs of one measured window.
#[derive(Default)]
struct Window {
    jobs: Vec<Job>,
    elapsed: Duration,
}

impl Window {
    fn walls_s(&self) -> Vec<f64> {
        self.jobs.iter().map(|j| j.wall.as_secs_f64()).collect()
    }

    fn query_count(&self) -> usize {
        self.jobs.iter().map(|j| j.queries.len()).sum()
    }

    fn queries_per_s(&self) -> f64 {
        self.query_count() as f64 / self.elapsed.as_secs_f64()
    }

    fn latencies_ms(&self) -> Vec<f64> {
        self.jobs.iter().flat_map(|j| &j.queries).map(|(l, _)| l.as_secs_f64() * 1e3).collect()
    }

    fn per_job(&self, f: impl Fn(&RunStats) -> f64) -> Vec<f64> {
        self.jobs.iter().map(|j| f(&j.stats)).collect()
    }

    fn megabytes(&self) -> Vec<f64> {
        self.per_job(|s| s.traffic.network_bytes as f64 / 1e6)
    }

    fn count_into(&self, out: &mut WorkloadResult) {
        out.attempted += self.query_count() as u64;
        out.failed += self.jobs.iter().map(|j| j.failed).sum::<u64>();
    }
}

/// When a measurement stops.
#[derive(Clone, Copy)]
enum Until {
    /// After this many jobs per client (the warm-up).
    Jobs(usize),
    /// At this instant, but not before [`MIN_JOBS`] jobs per client.
    Deadline(Instant),
}

impl Until {
    fn seconds(s: f64) -> Until {
        Until::Deadline(Instant::now() + Duration::from_secs_f64(s))
    }

    fn reached(self, done: usize) -> bool {
        match self {
            Until::Jobs(n) => done >= n,
            Until::Deadline(at) => done >= MIN_JOBS && Instant::now() >= at,
        }
    }
}

/// Reference counts from the plain single-threaded interpreter on the
/// unpartitioned graph — never from the engine under test.
fn reference(graph: &Graph, plans: &[MatchingPlan]) -> Vec<u64> {
    plans.iter().map(|p| interp::count_embeddings_fast(graph, p)).collect()
}

fn compile(patterns: &[Pattern]) -> Vec<MatchingPlan> {
    let opts = PlanOptions::automine();
    patterns
        .iter()
        .map(|p| MatchingPlan::compile(p, &opts).expect("workload patterns compile"))
        .collect()
}

impl System {
    /// Set-up as a user pays it: generate, partition, start the engine
    /// (and the service), compile the plans, run one warm-up job so the
    /// static cache fills and the pools spawn.
    fn build(
        kind: Kind,
        p: &Params,
        obs: ObsConfig,
        control: ControlMode,
        expect: &Arc<Vec<u64>>,
        tracer: &mut Tracer,
        out: &mut WorkloadResult,
    ) -> System {
        let whole = tracer.begin("setup", 0);
        let (graph, _) = tracer.time("graph.gen", 0, || kind.graph(p.seed, p.smoke));
        let (pg, _) = tracer.time("graph.partition", 0, || kind.partition(&graph));
        let cfg = kind.engine_config(&graph, obs, control);
        let ((engine, service), _) = tracer.time("core.engine.start", 0, || {
            let engine = Arc::new(Engine::new(pg, cfg));
            let service = (kind == Kind::ServiceMixed).then(|| {
                let cfg =
                    ServiceConfig { max_concurrent: CLIENTS, memoize: false, ..Default::default() };
                MiningService::start(Arc::clone(&engine), cfg)
            });
            (engine, service)
        });
        let patterns = kind.patterns();
        let (plans, _) = tracer.time("pattern.plan.compile", 0, || compile(&patterns));
        let mut sys = System {
            patterns,
            plans,
            expect: Arc::clone(expect),
            service,
            engine,
            setup: Duration::ZERO,
        };
        sys.measure(Until::Jobs(1), tracer).count_into(out);
        sys.setup = tracer.end(whole);
        sys
    }

    /// Runs jobs until `until`, each query checked against the reference.
    fn measure(&self, until: Until, tracer: &mut Tracer) -> Window {
        let started = Instant::now();
        let jobs = match &self.service {
            None => {
                let mut jobs = Vec::new();
                while !until.reached(jobs.len()) {
                    jobs.push(self.batch_job(jobs.len() as u32, tracer));
                }
                jobs
            }
            Some(service) => std::thread::scope(|scope| {
                let clients: Vec<_> = (0..CLIENTS)
                    .map(|client| {
                        let mut tracer = tracer.fork();
                        scope.spawn(move || {
                            let mut jobs = Vec::new();
                            while !until.reached(jobs.len()) {
                                let pass = jobs.len() as u32;
                                jobs.push(self.service_job(service, client, pass, &mut tracer));
                            }
                            (jobs, tracer)
                        })
                    })
                    .collect();
                let mut jobs = Vec::new();
                for c in clients {
                    let (mine, forked) = c.join().expect("client thread");
                    jobs.extend(mine);
                    tracer.join(forked);
                }
                jobs
            }),
        };
        Window { jobs, elapsed: started.elapsed() }
    }

    /// One pass over the plan list on the warm engine.
    fn batch_job(&self, pass: u32, tracer: &mut Tracer) -> Job {
        let mut job = Job::empty();
        let open = tracer.begin("job", pass);
        for (plan, &expect) in self.plans.iter().zip(self.expect.iter()) {
            let (run, latency) =
                tracer.time("core.engine.count", pass, || self.engine.try_count(plan));
            job.record(run.map_err(|e| e.to_string()), expect, latency);
        }
        job.wall = tracer.end(open);
        job
    }

    /// One client's round: the eight patterns, each submitted and waited
    /// for before the next (closed loop). Clients start half a round
    /// apart so they do not march in step.
    fn service_job(
        &self,
        service: &MiningService,
        client: usize,
        pass: u32,
        tracer: &mut Tracer,
    ) -> Job {
        let mut job = Job::empty();
        let opts = PlanOptions::automine();
        let n = self.patterns.len();
        let open = tracer.begin("job", pass);
        for i in 0..n {
            let at = (i + client * n / CLIENTS) % n;
            let (run, latency) = tracer.time("core.service.submit_wait", pass, || {
                let handle = service.submit(&self.patterns[at], &opts)?;
                handle.wait().map_err(|e| e.to_string())
            });
            job.record(run.map(|stats| (*stats).clone()), self.expect[at], latency);
        }
        job.wall = tracer.end(open);
        job
    }

    /// Stops the service, then the engine under it.
    fn shutdown(self, tracer: &mut Tracer) {
        tracer.time("core.engine.shutdown", 0, || drop(self));
    }
}

impl Job {
    fn empty() -> Job {
        Job { wall: Duration::ZERO, stats: RunStats::default(), queries: Vec::new(), failed: 0 }
    }

    fn record(&mut self, run: Result<RunStats, String>, expect: u64, latency: Duration) {
        match run {
            Ok(run) if run.count == expect => {
                self.queries.push((latency, run.elapsed));
                fold(&mut self.stats, &run);
            }
            Ok(run) => {
                eprintln!("wrong count: engine says {}, reference says {expect}", run.count);
                self.queries.push((latency, run.elapsed));
                self.failed += 1;
            }
            Err(e) => {
                eprintln!("query failed: {e}");
                self.queries.push((latency, Duration::ZERO));
                self.failed += 1;
            }
        }
    }
}

/// Adds one query's statistics to its job's.
fn fold(into: &mut RunStats, run: &RunStats) {
    into.count += run.count;
    into.elapsed += run.elapsed;
    let (t, r) = (&mut into.traffic, &run.traffic);
    t.network_bytes += r.network_bytes;
    t.requests += r.requests;
    t.cache_hits += r.cache_hits;
    t.cache_misses += r.cache_misses;
    t.coalesced += r.coalesced;
    t.retries += r.retries;
    into.control.sent += run.control.sent;
    into.control.retried += run.control.retried;
    if into.per_part.is_empty() {
        into.per_part = run.per_part.clone();
        return;
    }
    for (acc, part) in into.per_part.iter_mut().zip(&run.per_part) {
        acc.count += part.count;
        acc.compute += part.compute;
        acc.network += part.network;
        acc.scheduler += part.scheduler;
        acc.peak_embeddings = acc.peak_embeddings.max(part.peak_embeddings);
        acc.roots_stolen += part.roots_stolen;
        acc.roots_donated += part.roots_donated;
    }
}

fn part_sum(run: &RunStats, f: impl Fn(&khuzdul::PartStats) -> Duration) -> f64 {
    run.per_part.iter().map(|p| f(p).as_secs_f64()).sum()
}

/// Restarts the kernel's record of this process's peak resident set, so
/// that each segment reads a peak of its own. Where the kernel refuses,
/// every segment reads the process's peak so far.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process since the last reset, from `VmHWM`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// The end-to-end run: tracing off everywhere, one row per end-to-end
/// metric.
pub fn end_to_end(kind: Kind, p: &Params) -> WorkloadResult {
    let mut out = WorkloadResult::new(kind.name(), false);
    let tracer = &mut Tracer::new(false);
    let expect = Arc::new(reference(&kind.graph(p.seed, p.smoke), &compile(&kind.patterns())));

    let (mut setups, mut peaks, mut segments) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SEGMENTS {
        reset_peak_rss();
        let system =
            System::build(kind, p, ObsConfig::default(), kind.control(), &expect, tracer, &mut out);
        setups.push(system.setup.as_secs_f64());
        let window = system.measure(Until::seconds(p.seconds / SEGMENTS as f64), tracer);
        window.count_into(&mut out);
        segments.push(window);
        system.shutdown(tracer);
        peaks.push(peak_rss_mb());
    }
    let per_segment =
        |f: &dyn Fn(&Window) -> Vec<f64>| segments.iter().map(f).collect::<Vec<Vec<f64>>>();

    out.push(Row::from_samples("setup_s", &setups));
    // The lower quartile, not the median: whatever else the host runs only
    // ever lengthens a job, so the faster jobs are the ones that time the
    // code, and a burst of interference has to cover three quarters of the
    // run before it moves this value.
    out.push(Row::from_segments("job_wall_s", &per_segment(&Window::walls_s), |xs| {
        stats::quartiles(xs).0
    }));
    out.push(Row::from_segments("net_mb_per_job", &per_segment(&Window::megabytes), stats::median));
    out.push(Row::from_samples("peak_rss_mb", &peaks));
    out
}

/// The traced run: every probe, then jobs with the system's own tracing
/// switched on, read through `RunStats` and the engine's report. Returns
/// the rows and leaves the harness's spans in `tracer`.
pub fn per_layer(kind: Kind, p: &Params, tracer: &mut Tracer) -> WorkloadResult {
    let mut out = WorkloadResult::new(kind.name(), true);
    let reps = Reps::new(p.smoke);
    let graph = kind.graph(p.seed, p.smoke);
    let plans = compile(&kind.patterns());
    let (expect, single_thread) =
        tracer.time("pattern.interp.count", 0, || reference(&graph, &plans));
    let expect = Arc::new(expect);

    let cfg = kind.engine_config(&graph, ObsConfig::default(), kind.control());
    setup_rows(kind, p, &graph, &cfg, reps, tracer, &mut out);
    probes::run(&graph, &kind.partition(&graph), &cfg, reps, tracer, &mut out);

    // Alternate untraced and traced slices so that drift in the machine
    // lands on both sides of `obs.trace.overhead_frac`. The recorder is
    // emptied before each traced slice, so its spans cover the last one.
    let plain =
        System::build(kind, p, ObsConfig::default(), kind.control(), &expect, tracer, &mut out);
    let traced =
        System::build(kind, p, ObsConfig::enabled(), kind.control(), &expect, tracer, &mut out);
    let slice = p.seconds / 8.0;
    let (mut off, mut on) = (Window::default(), Window::default());
    for _ in 0..3 {
        let window = plain.measure(Until::seconds(slice), tracer);
        off.elapsed += window.elapsed;
        off.jobs.extend(window.jobs);
        traced.engine.recorder().reset_spans();
        let window = traced.measure(Until::seconds(slice), tracer);
        on.elapsed = window.elapsed;
        on.jobs.extend(window.jobs);
    }
    off.count_into(&mut out);
    on.count_into(&mut out);
    plain.shutdown(tracer);
    let (wall_off, wall_on) = (stats::median(&off.walls_s()), stats::median(&on.walls_s()));
    out.push(Row::single("obs.trace.overhead_frac", wall_on / wall_off - 1.0));
    traced_rows(&traced, &on, reps, tracer, &mut out);
    traced.shutdown(tracer);
    service_rows(kind, &off, &mut out);

    // `steal_msg` alone drives the message carrier, so it alone runs the
    // same jobs once more over shared memory.
    let mut msg_over_shared = 0.0;
    if kind.control() == ControlMode::Msg {
        let (obs, carrier) = (ObsConfig::default(), ControlMode::Shared);
        let shared = System::build(kind, p, obs, carrier, &expect, tracer, &mut out);
        let window = shared.measure(Until::seconds(slice), tracer);
        window.count_into(&mut out);
        shared.shutdown(tracer);
        msg_over_shared = wall_off / stats::median(&window.walls_s());
    }
    out.push(Row::single("core.control.msg_over_shared", msg_over_shared));

    // The plain baseline: one thread on the whole graph.
    let single_thread = single_thread.as_secs_f64();
    let engine_s = stats::median(&off.per_job(|s| s.elapsed.as_secs_f64()));
    out.push(Row::single("pattern.interp.single_thread_s", single_thread));
    out.push(Row::single("core.engine.cost_ratio", engine_s / single_thread));
    baseline_rows(kind, graph, &plans, &expect, engine_s, tracer, &mut out);
    out
}

/// One job each on the two distributed designs the paper argues against,
/// on `hub_cliques` only (the Table 2 setting); 0 elsewhere.
fn baseline_rows(
    kind: Kind,
    graph: Graph,
    plans: &[MatchingPlan],
    expect: &[u64],
    engine_s: f64,
    tracer: &mut Tracer,
    out: &mut WorkloadResult,
) {
    let (mut gthinker_s, mut replicated_s) = (0.0, 0.0);
    if kind == Kind::HubCliques {
        let expected = expect.iter().fold(0u64, |a, b| a.wrapping_add(*b));
        let gthinker = GThinker::new(kind.partition(&graph), GThinkerConfig::default());
        let opts = PlanOptions::automine();
        let (count, wall) = tracer.time("baselines.gthinker.count", 0, || {
            plans
                .iter()
                .map(|plan| gthinker.count(plan.pattern(), &opts).map_or(u64::MAX, |r| r.count))
                .fold(0u64, u64::wrapping_add)
        });
        tally(out, "gthinker", count, expected);
        gthinker_s = wall.as_secs_f64();
        let config = ReplicatedConfig {
            machines: PARTS,
            threads_per_machine: 1,
            ..ReplicatedConfig::default()
        };
        let replicated = ReplicatedCluster::new(graph, config);
        let (count, wall) = tracer.time("baselines.replicated.count", 0, || {
            plans.iter().map(|plan| replicated.count(plan).count).fold(0u64, u64::wrapping_add)
        });
        tally(out, "replicated", count, expected);
        replicated_s = wall.as_secs_f64();
    }
    out.push(Row::single("baselines.gthinker.job_wall_s", gthinker_s));
    out.push(Row::single("baselines.replicated.job_wall_s", replicated_s));
    out.push(Row::single("core.engine.speedup_over_gthinker", gthinker_s / engine_s));
}

/// The layers `setup_s` is made of, each timed alone on the workload's
/// own graph.
fn setup_rows(
    kind: Kind,
    p: &Params,
    graph: &Graph,
    cfg: &EngineConfig,
    reps: Reps,
    tracer: &mut Tracer,
    out: &mut WorkloadResult,
) {
    let megaedges = graph.edge_count() as f64 / 1e6;
    let (mut gens, mut parts, mut starts, mut stops) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps.long {
        let (_, t) = tracer.time("graph.gen", 0, || kind.graph(p.seed, p.smoke));
        gens.push(megaedges / t.as_secs_f64());
        let (pg, t) = tracer.time("graph.partition", 0, || kind.partition(graph));
        parts.push(t.as_secs_f64() * 1e3);
        let (engine, t) = tracer.time("core.engine.start", 0, || Engine::new(pg, cfg.clone()));
        starts.push(t.as_secs_f64() * 1e3);
        let ((), t) = tracer.time("core.engine.shutdown", 0, || drop(engine));
        stops.push(t.as_secs_f64() * 1e3);
    }
    out.push(Row::from_samples("graph.gen.medges_per_s", &gens));
    out.push(Row::from_samples("graph.partition.build_ms", &parts));
    out.push(Row::from_samples("core.engine.start_ms", &starts));
    out.push(Row::from_samples("core.engine.shutdown_ms", &stops));
}

/// What the traced jobs `on` say about each layer. Times are medians
/// over the jobs; counters come from the last job; the report's spans
/// (and so its critical path) cover the last traced slice, `on.elapsed`.
fn traced_rows(
    traced: &System,
    on: &Window,
    reps: Reps,
    tracer: &mut Tracer,
    out: &mut WorkloadResult,
) {
    let run = &on.jobs.last().expect("at least MIN_JOBS jobs").stats;
    let (report, build_ms) =
        timed_ms(tracer, "obs.report.build", reps, || traced.engine.report(run, "khuzdul-bench"));
    let (json, serialize_ms) = timed_ms(tracer, "obs.report.serialize", reps, || report.to_json());
    let (valid, validate_ms) =
        timed_ms(tracer, "obs.report.validate", reps, || gpm_obs::validate_report(&json));
    out.attempted += 1;
    if let Err(e) = valid {
        eprintln!("the engine's own report fails report-validate: {e}");
        out.failed += 1;
    }
    out.push(Row::from_samples("obs.report.build_ms", &build_ms));
    out.push(Row::from_samples("obs.report.serialize_ms", &serialize_ms));
    out.push(Row::from_samples("obs.report.validate_ms", &validate_ms));

    let compute = on.per_job(|s| part_sum(s, |p| p.compute));
    let wait = on.per_job(|s| part_sum(s, |p| p.network));
    let resolve = on.per_job(|s| part_sum(s, |p| p.scheduler));
    let accounted = stats::median(&compute) + stats::median(&wait) + stats::median(&resolve);
    out.push(Row::single("core.extend.compute_share", stats::median(&compute) / accounted));
    // On the service a job's queries overlap the other client's, so the
    // engine time on offer is the job's wall on every part.
    let on_offer = PARTS as f64 * stats::median(&on.walls_s());
    out.push(Row::single("core.engine.accounted_frac", accounted / on_offer));
    out.push(Row::from_samples("core.extend.compute_s", &compute));
    out.push(Row::from_samples("cluster.fabric.wait_s", &wait));
    out.push(Row::from_samples("core.scheduler.resolve_s", &resolve));

    let hist = |name: &str, q: f64| report.histogram(name).map_or(0.0, |h| h.percentile(q) as f64);
    let parts = |f: fn(&khuzdul::PartStats) -> u64| run.per_part.iter().map(f);
    let t = &run.traffic;
    out.push(Row::single("cluster.fabric.requests", t.requests as f64));
    out.push(Row::single("cluster.fabric.coalesced", t.coalesced as f64));
    out.push(Row::single("cluster.fabric.retries", t.retries as f64));
    out.push(Row::single("cluster.fabric.fetch_p50_us", hist("fetch_latency_ns", 0.5) / 1e3));
    out.push(Row::single("cluster.fabric.fetch_p99_us", hist("fetch_latency_ns", 0.99) / 1e3));
    out.push(Row::single("cluster.fabric.batch_bytes_p50", hist("batch_bytes", 0.5)));
    out.push(Row::single("core.cache.hit_rate", t.cache_hit_rate().unwrap_or(0.0)));
    out.push(Row::single("core.cache.bytes", traced.engine.cache_bytes() as f64));
    let peak = parts(|p| p.peak_embeddings as u64).max().unwrap_or(0);
    out.push(Row::single("core.chunk.peak_embeddings", peak as f64));
    out.push(Row::single("core.chunk.fanout_p50", hist("chunk_fanout", 0.5)));
    out.push(Row::single(
        "core.scheduler.roots_stolen",
        parts(|p| p.roots_stolen).sum::<u64>() as f64,
    ));
    out.push(Row::single(
        "core.scheduler.roots_donated",
        parts(|p| p.roots_donated).sum::<u64>() as f64,
    ));
    out.push(Row::single("core.scheduler.busy_imbalance", report.busy_imbalance()));
    out.push(Row::single("cluster.control.msgs_sent", run.control.sent as f64));
    out.push(Row::single("cluster.control.retried", run.control.retried as f64));
    out.push(Row::single("cluster.control.rtt_p50_us", hist("ctrl_rtt_ns", 0.5) / 1e3));
    out.push(Row::single("cluster.control.rtt_p99_us", hist("ctrl_rtt_ns", 0.99) / 1e3));

    let critical = &report.critical_path;
    let covered: u64 = critical
        .per_part
        .iter()
        .map(|p| p.compute_ns + p.fetch_wait_ns + p.responder_queue_ns + p.retry_backoff_ns)
        .sum();
    let span_window_ns = PARTS as f64 * on.elapsed.as_nanos() as f64;
    out.push(Row::single("obs.critical.compute_frac", critical.fractions.compute));
    out.push(Row::single("obs.critical.fetch_wait_frac", critical.fractions.fetch_wait));
    out.push(Row::single("obs.critical.responder_queue_frac", critical.fractions.responder_queue));
    out.push(Row::single("obs.critical.coverage_frac", covered as f64 / span_window_ns));
    out.push(Row::single("obs.trace.spans_recorded", report.spans.recorded as f64));
    out.push(Row::single("obs.trace.spans_dropped", report.spans.dropped as f64));
}

/// Client latency of the untraced queries `off`, split at the engine's
/// door; 0 where no service stands in front of the engine.
fn service_rows(kind: Kind, off: &Window, out: &mut WorkloadResult) {
    let (mut latency, mut exec, mut queue) = (vec![0.0], vec![0.0], vec![0.0]);
    let mut rate = 0.0;
    if kind == Kind::ServiceMixed {
        rate = off.queries_per_s();
        latency = off.latencies_ms();
        let queries = || off.jobs.iter().flat_map(|j| &j.queries);
        exec = queries().map(|(_, e)| e.as_secs_f64() * 1e3).collect();
        queue = queries().map(|(l, e)| l.saturating_sub(*e).as_secs_f64() * 1e3).collect();
    }
    out.push(Row::single("core.service.queries_per_s", rate));
    out.push(Row::from_samples("core.service.query_p50_ms", &latency));
    out.push(Row::single("core.service.query_p95_ms", stats::percentile(&latency, 0.95)));
    out.push(Row::from_samples("core.service.queue_wait_p50_ms", &queue));
    out.push(Row::from_samples("core.service.exec_p50_ms", &exec));
}

/// `reps.long` timed calls of `f`, in milliseconds, with the last result.
fn timed_ms<T>(
    tracer: &mut Tracer,
    name: &'static str,
    reps: Reps,
    mut f: impl FnMut() -> T,
) -> (T, Vec<f64>) {
    let mut last = None;
    let ms = (0..reps.long)
        .map(|_| {
            let (value, t) = tracer.time(name, 0, &mut f);
            last = Some(value);
            t.as_secs_f64() * 1e3
        })
        .collect();
    (last.expect("reps.long is positive"), ms)
}

fn tally(out: &mut WorkloadResult, system: &str, count: u64, expected: u64) {
    out.attempted += 1;
    if count != expected {
        eprintln!("wrong count: {system} says {count}, reference says {expected}");
        out.failed += 1;
    }
}
