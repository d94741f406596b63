//! The benchmark's contract in one place: workloads, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repository
//! root is this table rendered by `khuzdul-bench spec`; a test keeps the
//! two equal.

use crate::record::entry;
use serde::Value;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` and the records use.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Name, unique across both tiers.
    pub name: &'static str,
    /// Unit printed beside every value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// get worse before `diff` calls it a regression. `None` on
    /// per-layer metrics: they explain, they do not gate.
    pub bound: Option<f64>,
}

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 28;
/// Seed of committed records and of every run made while a change is
/// written. A gain claimed on it must also hold on the held-out seed,
/// 7919, which is used for nothing else (see README.md).
pub const DEFAULT_SEED: u64 = 12;

/// The command `BENCHMARK.json` names, run from the repository root.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "khuzdul-bench/Cargo.toml",
    "--",
];

/// Workload names with the one-line reason each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "hub_cliques",
        "R-MAT hubs, triangle + 4-clique, cache hits: >=90% of part time is set intersection, so kernel work shows here and fabric/control work must not",
    ),
    (
        "sparse_fetch",
        "sparse Erdos-Renyi, triangle + 4-cycle, every cache lookup misses: wall is chunk bookkeeping, bucketing and fabric round trips, which the kernels bypass",
    ),
    (
        "steal_msg",
        "Barabasi-Albert under range partition, steal batch 16 over control messages: thousands of claims and steals drive the ledger and the message carrier",
    ),
    (
        "service_mixed",
        "resident service, 8 small patterns from 2 closed-loop clients: millisecond queries, so fixed per-query cost (compile, admission, hand-off) is the whole latency",
    ),
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec { name, unit, better, bound: Some(bound) }
}

const fn low(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better: Better::Lower, bound: None }
}

const fn high(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better: Better::Higher, bound: None }
}

/// What a user of the system sees; measured with tracing off.
///
/// The wall-clock bounds sit at the contract's ceiling because of the box,
/// not the code: ten runs of one binary spread `job_wall_s` by 2-7 % while
/// the host is quiet and by 10-20 % when it is not, every workload slowing
/// together for minutes (README.md, "Steadiness"). A bound under three times
/// the spread would reject the host, not a change.
pub const END_TO_END: [MetricSpec; 4] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("job_wall_s", "s", Better::Lower, 0.25),
    e2e("net_mb_per_job", "MB", Better::Lower, 0.10),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
];

/// One number per layer; measured in the separate traced run.
pub const PER_LAYER: [MetricSpec; 70] = [
    // Probes: fixed seeded inputs, timed from outside.
    low("graph.set_ops.merge_ns_per_elem", "ns"),
    low("graph.set_ops.gallop_ns_per_probe", "ns"),
    low("graph.set_ops.count_ns_per_elem", "ns"),
    low("graph.set_ops.subtract_ns_per_elem", "ns"),
    low("graph.set_ops.hub_pair_ns_per_elem", "ns"),
    high("graph.gen.medges_per_s", "1/s"),
    low("graph.partition.build_ms", "ms"),
    low("core.engine.start_ms", "ms"),
    low("core.engine.shutdown_ms", "ms"),
    low("pattern.plan.compile_automine_us", "us"),
    low("pattern.plan.compile_graphpi_us", "us"),
    low("core.engine.min_query_us", "us"),
    low("core.service.admit_overhead_us", "us"),
    low("core.service.memo_hit_us", "us"),
    low("cluster.fabric.fetch_rtt_us", "us"),
    low("cluster.fabric.fetch_rtt_p99_us", "us"),
    high("cluster.fabric.fetch_batch_mb_per_s", "MB/s"),
    high("cluster.fabric.window8_fetch_per_s", "1/s"),
    low("cluster.control.claim_rtt_us", "us"),
    high("cluster.control.claims_per_s", "1/s"),
    low("core.cache.hit_ns", "ns"),
    low("core.cache.miss_ns", "ns"),
    low("core.cache.insert_ns", "ns"),
    low("obs.recorder.span_off_ns", "ns"),
    low("obs.recorder.span_on_ns", "ns"),
    low("obs.flight.record_on_ns", "ns"),
    low("obs.progress.record_on_ns", "ns"),
    low("obs.report.build_ms", "ms"),
    low("obs.report.serialize_ms", "ms"),
    low("obs.report.validate_ms", "ms"),
    // Per workload: one job with tracing on, read from RunStats and the
    // engine's report.
    low("core.extend.compute_s", "s"),
    low("cluster.fabric.wait_s", "s"),
    low("core.scheduler.resolve_s", "s"),
    high("core.extend.compute_share", "frac"),
    high("core.engine.accounted_frac", "frac"),
    low("cluster.fabric.requests", "count"),
    high("cluster.fabric.coalesced", "count"),
    low("cluster.fabric.retries", "count"),
    low("cluster.fabric.fetch_p50_us", "us"),
    low("cluster.fabric.fetch_p99_us", "us"),
    low("cluster.fabric.batch_bytes_p50", "B"),
    high("core.cache.hit_rate", "frac"),
    low("core.cache.bytes", "B"),
    low("core.chunk.peak_embeddings", "count"),
    high("core.chunk.fanout_p50", "count"),
    low("core.scheduler.roots_stolen", "count"),
    low("core.scheduler.roots_donated", "count"),
    low("core.scheduler.busy_imbalance", "ratio"),
    low("cluster.control.msgs_sent", "count"),
    low("cluster.control.retried", "count"),
    low("cluster.control.rtt_p50_us", "us"),
    low("cluster.control.rtt_p99_us", "us"),
    low("core.control.msg_over_shared", "ratio"),
    high("core.service.queries_per_s", "1/s"),
    low("core.service.query_p50_ms", "ms"),
    low("core.service.query_p95_ms", "ms"),
    low("core.service.queue_wait_p50_ms", "ms"),
    low("core.service.exec_p50_ms", "ms"),
    high("obs.critical.compute_frac", "frac"),
    low("obs.critical.fetch_wait_frac", "frac"),
    low("obs.critical.responder_queue_frac", "frac"),
    high("obs.critical.coverage_frac", "frac"),
    low("obs.trace.overhead_frac", "frac"),
    high("obs.trace.spans_recorded", "count"),
    low("obs.trace.spans_dropped", "count"),
    low("pattern.interp.single_thread_s", "s"),
    low("core.engine.cost_ratio", "ratio"),
    low("baselines.gthinker.job_wall_s", "s"),
    low("baselines.replicated.job_wall_s", "s"),
    high("core.engine.speedup_over_gthinker", "ratio"),
];

/// The spec of `name` in either tier.
pub fn lookup(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|m| m.name == name)
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> Value {
    let s = |x: &str| Value::Str(x.to_string());
    let metric = |m: &MetricSpec| {
        let mut row = vec![
            entry("name", s(m.name)),
            entry("unit", s(m.unit)),
            entry("better", s(m.better.as_str())),
        ];
        if let Some(b) = m.bound {
            row.push(entry("bound", Value::Float(b)));
        }
        Value::Map(row)
    };
    Value::Map(vec![
        entry("command", Value::Seq(COMMAND.iter().map(|c| s(c)).collect())),
        entry("paths", Value::Seq(vec![s("khuzdul-bench")])),
        entry("run_seconds", Value::UInt(RUN_SECONDS)),
        (
            "workloads".to_string(),
            Value::Seq(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Value::Map(vec![entry("name", s(name)), entry("why", s(why))])
                    })
                    .collect(),
            ),
        ),
        entry("end_to_end", Value::Seq(END_TO_END.iter().map(metric).collect())),
        entry("per_layer", Value::Seq(PER_LAYER.iter().map(metric).collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = HashSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
    }

    #[test]
    fn units_bounds_and_reasons_fit_the_contract() {
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(
                m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
        }
        for m in &END_TO_END {
            let b = m.bound.expect("every end-to-end metric is bounded");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        let setup = lookup("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s carries the largest bound");
        for (_, why) in &WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(COMMAND.len() <= 32 && (1..=60).contains(&RUN_SECONDS));
    }

    /// `BENCHMARK.json` is generated, never edited: regenerate it with
    /// `khuzdul-bench spec > BENCHMARK.json` after changing this file.
    #[test]
    fn benchmark_json_on_disk_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let parsed = gpm_obs::parse_json(&on_disk).expect("BENCHMARK.json parses");
        assert_eq!(parsed, benchmark_json());
    }
}
