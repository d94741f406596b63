//! `report diff`: a thresholded comparator over two `RunReport`s — the
//! CI perf gate.
//!
//! The gate compares a candidate report against a baseline over the
//! quantities the paper's evaluation cares about: the embedding count
//! (must match exactly — a count change is a correctness bug, not a
//! regression), traffic totals, cache hit rate, busy imbalance, and the
//! critical-path fractions. Only *adverse* movement fails: more traffic,
//! a lower hit rate, more skew, more time blocked. Wall-clock elapsed
//! time is deliberately not compared — CI machines are too noisy for an
//! absolute time gate, which is exactly why the critical-path fractions
//! (self-normalizing) are the headline check.

use crate::report::REPORT_SCHEMA_VERSION;
use crate::validate::{
    as_map, get, parse_json, req_fraction, req_map, req_seq, req_u64, CRITICAL_PATH_FRACTION_KEYS,
    TRAFFIC_KEYS,
};
use serde::Value;

/// Tolerances for [`diff_reports`]. A candidate value `c` against
/// baseline `b` regresses when it moves adversely past
/// `b * (1 + rel) + abs` (resp. below `b - abs` for the hit rate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffThresholds {
    /// Relative headroom on traffic counters (requests, retries, bytes).
    pub traffic_rel: f64,
    /// Absolute headroom on traffic counters, masking tiny-base noise.
    pub traffic_abs: f64,
    /// Maximum tolerated absolute drop in cache hit rate.
    pub hit_rate_abs: f64,
    /// Absolute headroom on busy imbalance (a max-over-mean ratio).
    pub imbalance_abs: f64,
    /// Relative headroom on adverse critical-path fractions.
    pub frac_rel: f64,
    /// Absolute headroom on adverse critical-path fractions.
    pub frac_abs: f64,
}

impl Default for DiffThresholds {
    fn default() -> Self {
        DiffThresholds {
            traffic_rel: 0.25,
            traffic_abs: 64.0,
            hit_rate_abs: 0.05,
            imbalance_abs: 0.25,
            frac_rel: 0.05,
            frac_abs: 0.01,
        }
    }
}

/// Outcome of a report comparison: the values compared and every
/// regression found. Empty `regressions` means the gate passes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReportDiff {
    /// Human-readable `metric: baseline -> candidate` lines for every
    /// comparison performed, regression or not.
    pub compared: Vec<String>,
    /// One line per threshold violation.
    pub regressions: Vec<String>,
}

impl ReportDiff {
    /// Whether the candidate passed every check.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

struct Parsed {
    count: u64,
    traffic: Vec<(String, u64)>,
    hit_rate: f64,
    busy_imbalance: f64,
    fractions: Vec<(String, f64)>,
    /// Control-plane counters — `None` for reports written before the
    /// section existed (it is additive in v4 and optional here so old
    /// checked-in baselines keep parsing).
    control: Option<Vec<(String, u64)>>,
    queries: Vec<ParsedQuery>,
}

/// One `queries[]` entry of a schema-v4 service report, as the gate
/// compares it: identity (position + pattern), the exact count, and the
/// critical-path fractions.
struct ParsedQuery {
    pattern: String,
    memoized: bool,
    count: u64,
    fractions: Vec<(String, f64)>,
}

fn parse_report(json: &str, which: &str) -> Result<Parsed, String> {
    let doc = parse_json(json).map_err(|e| format!("{which}: {e}"))?;
    let top = as_map(&doc, which)?;
    let version = req_u64(top, "schema_version", which)?;
    if version != REPORT_SCHEMA_VERSION {
        return Err(format!(
            "{which}.schema_version: {version} != supported {REPORT_SCHEMA_VERSION}"
        ));
    }
    let traffic_map = req_map(top, "traffic", which)?;
    let mut traffic = Vec::new();
    for key in TRAFFIC_KEYS {
        traffic.push((key.to_string(), req_u64(traffic_map, key, "traffic")?));
    }
    let hits = req_u64(traffic_map, "cache_hits", "traffic")? as f64;
    let misses = req_u64(traffic_map, "cache_misses", "traffic")? as f64;
    let hit_rate = if hits + misses == 0.0 { 0.0 } else { hits / (hits + misses) };

    let per_part = req_seq(top, "per_part", which)?;
    let mut busy: Vec<u64> = Vec::new();
    for p in per_part {
        let m = as_map(p, "per_part[i]")?;
        busy.push(
            req_u64(m, "compute_ns", "p")?
                + req_u64(m, "network_ns", "p")?
                + req_u64(m, "scheduler_ns", "p")?
                + req_u64(m, "cache_ns", "p")?,
        );
    }
    let max = busy.iter().copied().max().unwrap_or(0);
    let mean = busy.iter().sum::<u64>() as f64 / busy.len().max(1) as f64;
    let busy_imbalance = if mean == 0.0 { 0.0 } else { max as f64 / mean };

    let cp = req_map(top, "critical_path", which)?;
    let fr = req_map(cp, "fractions", &format!("{which}.critical_path"))?;
    let mut fractions = Vec::new();
    for key in CRITICAL_PATH_FRACTION_KEYS {
        fractions.push((key.to_string(), req_fraction(fr, key, "critical_path.fractions")?));
    }

    let control = match get(top, "control") {
        Some(v) => {
            let m = as_map(v, "control")?;
            let mut c = Vec::new();
            for key in ["sent", "retried", "dropped"] {
                c.push((key.to_string(), req_u64(m, key, "control")?));
            }
            Some(c)
        }
        None => None,
    };

    let queries_seq = req_seq(top, "queries", which)?;
    let mut queries = Vec::new();
    for (i, q) in queries_seq.iter().enumerate() {
        let ctx = format!("{which}.queries[{i}]");
        let m = as_map(q, &ctx)?;
        let pattern = match get(m, "pattern") {
            Some(Value::Str(s)) => s.clone(),
            _ => return Err(format!("{ctx}.pattern: missing")),
        };
        let memoized = match get(m, "memoized") {
            Some(Value::Bool(b)) => *b,
            _ => return Err(format!("{ctx}.memoized: missing")),
        };
        let cp = req_map(m, "critical_path", &ctx)?;
        let fr = req_map(cp, "fractions", &format!("{ctx}.critical_path"))?;
        let mut fractions = Vec::new();
        for key in CRITICAL_PATH_FRACTION_KEYS {
            fractions.push((key.to_string(), req_fraction(fr, key, &ctx)?));
        }
        queries.push(ParsedQuery {
            pattern,
            memoized,
            count: req_u64(m, "count", &ctx)?,
            fractions,
        });
    }

    Ok(Parsed {
        count: req_u64(top, "count", which)?,
        traffic,
        hit_rate,
        busy_imbalance,
        fractions,
        control,
        queries,
    })
}

/// Compares `candidate` against `baseline` (both `RunReport` JSON) under
/// `t`. Returns `Err` when either document is unparseable or not a
/// supported-schema report; otherwise returns the full comparison, with
/// one regression line per threshold violation.
pub fn diff_reports(
    baseline: &str,
    candidate: &str,
    t: &DiffThresholds,
) -> Result<ReportDiff, String> {
    let base = parse_report(baseline, "baseline")?;
    let cand = parse_report(candidate, "candidate")?;
    let mut out = ReportDiff::default();

    out.compared.push(format!("count: {} -> {}", base.count, cand.count));
    if base.count != cand.count {
        out.regressions
            .push(format!("count mismatch: baseline {} != candidate {}", base.count, cand.count));
    }

    for ((key, b), (_, c)) in base.traffic.iter().zip(&cand.traffic) {
        out.compared.push(format!("traffic.{key}: {b} -> {c}"));
        let limit = *b as f64 * (1.0 + t.traffic_rel) + t.traffic_abs;
        if *c as f64 > limit {
            out.regressions.push(format!(
                "traffic.{key}: {c} exceeds baseline {b} by more than {:.0}% + {:.0}",
                t.traffic_rel * 100.0,
                t.traffic_abs
            ));
        }
    }

    out.compared.push(format!("cache_hit_rate: {:.4} -> {:.4}", base.hit_rate, cand.hit_rate));
    if cand.hit_rate < base.hit_rate - t.hit_rate_abs {
        out.regressions.push(format!(
            "cache_hit_rate: dropped {:.4} -> {:.4} (more than {:.4} below baseline)",
            base.hit_rate, cand.hit_rate, t.hit_rate_abs
        ));
    }

    out.compared
        .push(format!("busy_imbalance: {:.3} -> {:.3}", base.busy_imbalance, cand.busy_imbalance));
    if cand.busy_imbalance > base.busy_imbalance + t.imbalance_abs {
        out.regressions.push(format!(
            "busy_imbalance: {:.3} exceeds baseline {:.3} by more than {:.3}",
            cand.busy_imbalance, base.busy_imbalance, t.imbalance_abs
        ));
    }

    for ((key, b), (_, c)) in base.fractions.iter().zip(&cand.fractions) {
        out.compared.push(format!("critical_path.{key}: {b:.4} -> {c:.4}"));
        // Only blocked-time fractions regress upward; compute shrinking
        // is already covered by the others growing (they sum to 1).
        if key == "compute" {
            continue;
        }
        let limit = b * (1.0 + t.frac_rel) + t.frac_abs;
        if *c > limit {
            out.regressions.push(format!(
                "critical_path.{key}: {c:.4} exceeds baseline {b:.4} (limit {limit:.4})"
            ));
        }
    }

    // Control-plane counters are informational, never a gate: message
    // volume depends on steal timing, which is schedule-dependent even
    // for bit-identical counts. They only appear when both sides carry
    // the (additive, optional) section.
    if let (Some(b), Some(c)) = (&base.control, &cand.control) {
        for ((key, bv), (_, cv)) in b.iter().zip(c) {
            out.compared.push(format!("control.{key}: {bv} -> {cv}"));
        }
    }

    // Per-query gate (schema v4): the workloads must line up pairwise in
    // admission order, every per-query count must match exactly (a
    // mismatch is a correctness bug, not a perf regression), and
    // per-query critical-path fractions get the same adverse-movement
    // check as the aggregate — but only when the query was enumerated on
    // both sides (a memo hit has no path of its own).
    out.compared.push(format!("queries: {} -> {}", base.queries.len(), cand.queries.len()));
    if base.queries.len() != cand.queries.len() {
        out.regressions.push(format!(
            "queries: baseline has {}, candidate has {} — not the same workload",
            base.queries.len(),
            cand.queries.len()
        ));
    }
    for (i, (b, c)) in base.queries.iter().zip(&cand.queries).enumerate() {
        if b.pattern != c.pattern {
            out.regressions.push(format!(
                "queries[{i}].pattern: baseline {:?} != candidate {:?} — not the same workload",
                b.pattern, c.pattern
            ));
            continue;
        }
        out.compared
            .push(format!("queries[{i}].count ({}): {} -> {}", b.pattern, b.count, c.count));
        if b.count != c.count {
            out.regressions.push(format!(
                "queries[{i}].count ({}): baseline {} != candidate {}",
                b.pattern, b.count, c.count
            ));
        }
        if b.memoized || c.memoized {
            continue;
        }
        for ((key, bf), (_, cf)) in b.fractions.iter().zip(&c.fractions) {
            if key == "compute" {
                continue;
            }
            let limit = bf * (1.0 + t.frac_rel) + t.frac_abs;
            if *cf > limit {
                out.regressions.push(format!(
                    "queries[{i}].critical_path.{key} ({}): {cf:.4} exceeds baseline {bf:.4} \
                     (limit {limit:.4})",
                    b.pattern
                ));
            }
        }
    }

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{
        CriticalPathFractions, CriticalPathSection, PartReport, RunReport, SpanStats, TrafficTotals,
    };

    fn base_report() -> RunReport {
        RunReport {
            schema_version: REPORT_SCHEMA_VERSION,
            system: "khuzdul".to_string(),
            count: 100,
            elapsed_ns: 1_000_000,
            traffic: TrafficTotals {
                fetch_requests: 1000,
                cache_hits: 600,
                cache_misses: 400,
                coalesced_requests: 50,
                retries: 4,
                network_bytes: 1 << 20,
                numa_bytes: 1 << 10,
            },
            breakdown: Default::default(),
            per_part: (0..4)
                .map(|p| PartReport {
                    part: p,
                    count: 25,
                    compute_ns: 1000,
                    network_ns: 500,
                    scheduler_ns: 100,
                    cache_ns: 50,
                    ..Default::default()
                })
                .collect(),
            histograms: Vec::new(),
            series: Vec::new(),
            spans: SpanStats::default(),
            critical_path: CriticalPathSection {
                fractions: CriticalPathFractions {
                    compute: 0.60,
                    fetch_wait: 0.30,
                    responder_queue: 0.07,
                    retry_backoff: 0.03,
                },
                per_part: Vec::new(),
            },
            failures: Default::default(),
            rebalance: Default::default(),
            control: Default::default(),
            queries: Vec::new(),
            incidents: Vec::new(),
        }
    }

    #[test]
    fn identical_reports_pass() {
        let json = base_report().to_json();
        let d = diff_reports(&json, &json, &DiffThresholds::default()).unwrap();
        assert!(d.passed(), "regressions: {:?}", d.regressions);
        assert!(!d.compared.is_empty());
    }

    #[test]
    fn count_mismatch_fails() {
        let base = base_report().to_json();
        let mut cand = base_report();
        cand.count = 99;
        let d = diff_reports(&base, &cand.to_json(), &DiffThresholds::default()).unwrap();
        assert!(!d.passed());
        assert!(d.regressions[0].contains("count"));
    }

    #[test]
    fn ten_percent_fetch_wait_regression_fails() {
        // Acceptance criterion: an injected ≥10% fetch-wait regression
        // must fail the gate.
        let base = base_report().to_json();
        let mut cand = base_report();
        cand.critical_path.fractions.fetch_wait *= 1.10;
        cand.critical_path.fractions.compute -= 0.03;
        let d = diff_reports(&base, &cand.to_json(), &DiffThresholds::default()).unwrap();
        assert!(!d.passed());
        assert!(
            d.regressions.iter().any(|r| r.contains("fetch_wait")),
            "regressions: {:?}",
            d.regressions
        );
    }

    #[test]
    fn small_fraction_noise_passes() {
        let base = base_report().to_json();
        let mut cand = base_report();
        cand.critical_path.fractions.fetch_wait += 0.005;
        cand.critical_path.fractions.compute -= 0.005;
        let d = diff_reports(&base, &cand.to_json(), &DiffThresholds::default()).unwrap();
        assert!(d.passed(), "regressions: {:?}", d.regressions);
    }

    #[test]
    fn traffic_blowup_and_hit_rate_drop_fail() {
        let base = base_report().to_json();
        let mut cand = base_report();
        cand.traffic.network_bytes *= 2;
        cand.traffic.cache_hits = 300;
        cand.traffic.cache_misses = 700;
        let d = diff_reports(&base, &cand.to_json(), &DiffThresholds::default()).unwrap();
        assert!(d.regressions.iter().any(|r| r.contains("network_bytes")));
        assert!(d.regressions.iter().any(|r| r.contains("cache_hit_rate")));
    }

    #[test]
    fn compute_fraction_growth_is_not_a_regression() {
        // More compute share means less blocked time — the good
        // direction.
        let base = base_report().to_json();
        let mut cand = base_report();
        cand.critical_path.fractions.compute += 0.20;
        cand.critical_path.fractions.fetch_wait -= 0.20;
        let d = diff_reports(&base, &cand.to_json(), &DiffThresholds::default()).unwrap();
        assert!(d.passed(), "regressions: {:?}", d.regressions);
    }

    fn with_queries(mut r: RunReport) -> RunReport {
        use crate::report::QueryReport;
        r.queries = vec![
            QueryReport {
                query_id: 1,
                pattern: "triangle".to_string(),
                memoized: false,
                count: 60,
                critical_path: CriticalPathSection {
                    fractions: CriticalPathFractions {
                        compute: 0.7,
                        fetch_wait: 0.25,
                        responder_queue: 0.04,
                        retry_backoff: 0.01,
                    },
                    per_part: Vec::new(),
                },
                ..QueryReport::default()
            },
            QueryReport {
                query_id: 2,
                pattern: "triangle".to_string(),
                memoized: true,
                count: 60,
                ..QueryReport::default()
            },
        ];
        r
    }

    #[test]
    fn per_query_count_mismatch_fails() {
        // Satellite: the gate predates schema v4 and used to ignore
        // queries[] entirely — a per-query count change must now fail
        // even when the aggregate count happens to match.
        let base = with_queries(base_report());
        let mut cand = with_queries(base_report());
        cand.queries[0].count = 59;
        cand.queries[1].count = 61; // aggregate unchanged
        let d = diff_reports(&base.to_json(), &cand.to_json(), &DiffThresholds::default()).unwrap();
        assert!(!d.passed());
        assert!(
            d.regressions.iter().any(|r| r.contains("queries[0].count")),
            "regressions: {:?}",
            d.regressions
        );
    }

    #[test]
    fn per_query_workload_shape_must_match() {
        let base = with_queries(base_report());
        let mut fewer = with_queries(base_report());
        fewer.queries.pop();
        let d =
            diff_reports(&base.to_json(), &fewer.to_json(), &DiffThresholds::default()).unwrap();
        assert!(d.regressions.iter().any(|r| r.contains("not the same workload")));

        let mut renamed = with_queries(base_report());
        renamed.queries[0].pattern = "clique:4".to_string();
        let d =
            diff_reports(&base.to_json(), &renamed.to_json(), &DiffThresholds::default()).unwrap();
        assert!(d.regressions.iter().any(|r| r.contains("queries[0].pattern")));
    }

    #[test]
    fn per_query_fetch_wait_regression_fails_but_memo_hits_are_exempt() {
        let base = with_queries(base_report());
        let mut cand = with_queries(base_report());
        cand.queries[0].critical_path.fractions.fetch_wait = 0.35;
        cand.queries[0].critical_path.fractions.compute = 0.60;
        let d = diff_reports(&base.to_json(), &cand.to_json(), &DiffThresholds::default()).unwrap();
        assert!(
            d.regressions.iter().any(|r| r.contains("queries[0].critical_path.fetch_wait")),
            "regressions: {:?}",
            d.regressions
        );
        // The memoized entry (all-zero fractions) never regresses.
        assert!(!d.regressions.iter().any(|r| r.contains("queries[1].critical_path")));

        // Identical per-query sections pass.
        let clean = with_queries(base_report());
        let d =
            diff_reports(&base.to_json(), &clean.to_json(), &DiffThresholds::default()).unwrap();
        assert!(d.passed(), "regressions: {:?}", d.regressions);
    }

    #[test]
    fn control_section_is_optional_and_informational() {
        // Back-compat: a baseline written before the control section
        // existed (stripped here) must still parse, and a candidate that
        // does carry control counters must not regress against it.
        let full = base_report().to_json();
        let start = full.find("\"control\"").expect("serialized report has a control section");
        let line_start = full[..start].rfind('\n').unwrap() + 1;
        let end = start + full[start..].find("},").unwrap() + 3;
        let stripped = format!("{}{}", &full[..line_start], &full[end..]);
        assert!(!stripped.contains("\"control\""));

        let mut cand = base_report();
        cand.control = crate::report::ControlSection { sent: 10, retried: 1, dropped: 0 };
        let cand_json = cand.to_json();
        let d = diff_reports(&stripped, &cand_json, &DiffThresholds::default()).unwrap();
        assert!(d.passed(), "regressions: {:?}", d.regressions);
        assert!(!d.compared.iter().any(|l| l.contains("control.")));

        // When both sides carry the section, the values show up in the
        // comparison log — but adverse movement never gates.
        let mut noisy = base_report();
        noisy.control = crate::report::ControlSection { sent: 9999, retried: 500, dropped: 10 };
        let d = diff_reports(&cand_json, &noisy.to_json(), &DiffThresholds::default()).unwrap();
        assert!(d.compared.iter().any(|l| l.contains("control.sent")));
        assert!(d.passed(), "regressions: {:?}", d.regressions);
    }

    #[test]
    fn rejects_wrong_schema() {
        let err = diff_reports(
            r#"{"schema_version": 1}"#,
            r#"{"schema_version": 1}"#,
            &Default::default(),
        )
        .unwrap_err();
        assert!(err.contains("schema_version"));
    }
}
