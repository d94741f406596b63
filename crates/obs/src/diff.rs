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

use crate::report::CriticalPathFractions;
use crate::validate::{numbers, read_report};

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

/// One regression line per blocked-time fraction of `c` past its
/// baseline `b`; `at` names the section and `tag` follows the key.
fn gate_fractions(
    at: &str,
    tag: &str,
    b: &CriticalPathFractions,
    c: &CriticalPathFractions,
    t: &DiffThresholds,
    out: &mut Vec<String>,
) {
    for ((key, b), (_, c)) in numbers(b).into_iter().zip(numbers(c)) {
        // Only blocked-time fractions regress upward; compute shrinking
        // is already covered by the others growing (they sum to 1).
        let limit = b * (1.0 + t.frac_rel) + t.frac_abs;
        if key != "compute" && c > limit {
            out.push(format!("{at}.{key}{tag}: {c:.4} exceeds baseline {b:.4} (limit {limit:.4})"));
        }
    }
}

/// Compares `candidate` against `baseline` (both `RunReport` JSON) under
/// `t`. Both sides are read and checked by the same reader as
/// `report-validate`, so `Err` names the first field of either document
/// the validator would reject; otherwise returns the full comparison,
/// with one regression line per threshold violation.
pub fn diff_reports(
    baseline: &str,
    candidate: &str,
    t: &DiffThresholds,
) -> Result<ReportDiff, String> {
    let (base, _) = read_report(baseline, "baseline")?;
    let (cand, _) = read_report(candidate, "candidate")?;
    let mut out = ReportDiff::default();

    out.compared.push(format!("count: {} -> {}", base.count, cand.count));
    if base.count != cand.count {
        out.regressions
            .push(format!("count mismatch: baseline {} != candidate {}", base.count, cand.count));
    }

    for ((key, b), (_, c)) in numbers(&base.traffic).into_iter().zip(numbers(&cand.traffic)) {
        out.compared.push(format!("traffic.{key}: {b} -> {c}"));
        if c > b * (1.0 + t.traffic_rel) + t.traffic_abs {
            out.regressions.push(format!(
                "traffic.{key}: {c} exceeds baseline {b} by more than {:.0}% + {:.0}",
                t.traffic_rel * 100.0,
                t.traffic_abs
            ));
        }
    }

    let (b, c) = (base.traffic.cache_hit_rate(), cand.traffic.cache_hit_rate());
    out.compared.push(format!("cache_hit_rate: {b:.4} -> {c:.4}"));
    if c < b - t.hit_rate_abs {
        out.regressions.push(format!(
            "cache_hit_rate: dropped {b:.4} -> {c:.4} (more than {:.4} below baseline)",
            t.hit_rate_abs
        ));
    }

    let (b, c) = (base.busy_imbalance(), cand.busy_imbalance());
    out.compared.push(format!("busy_imbalance: {b:.3} -> {c:.3}"));
    if c > b + t.imbalance_abs {
        out.regressions.push(format!(
            "busy_imbalance: {c:.3} exceeds baseline {b:.3} by more than {:.3}",
            t.imbalance_abs
        ));
    }

    let (bf, cf) = (&base.critical_path.fractions, &cand.critical_path.fractions);
    for ((key, b), (_, c)) in numbers(bf).into_iter().zip(numbers(cf)) {
        out.compared.push(format!("critical_path.{key}: {b:.4} -> {c:.4}"));
    }
    gate_fractions("critical_path", "", bf, cf, t, &mut out.regressions);

    // Control-plane counters are informational, never a gate: message
    // volume depends on steal timing, which is schedule-dependent even
    // for bit-identical counts. They only appear when both sides sent
    // control messages (a report without the section reads as zero).
    if base.control.sent > 0 && cand.control.sent > 0 {
        for ((key, b), (_, c)) in numbers(&base.control).into_iter().zip(numbers(&cand.control)) {
            out.compared.push(format!("control.{key}: {b} -> {c}"));
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
        if !(b.memoized || c.memoized) {
            gate_fractions(
                &format!("queries[{i}].critical_path"),
                &format!(" ({})", b.pattern),
                &b.critical_path.fractions,
                &c.critical_path.fractions,
                t,
                &mut out.regressions,
            );
        }
    }

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{
        CriticalPathSection, PartReport, RunReport, SpanStats, TrafficTotals, REPORT_SCHEMA_VERSION,
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

    /// The committed service baseline CI gates against. It is a v4
    /// report that predates the additive v4 fields, so it pins the
    /// defaults they read as and that a v4 `series` is ignored.
    const SERVICE_BASELINE: &str = include_str!("../../../ci/service-baseline.report.json");

    #[test]
    fn identical_reports_pass() {
        for json in [base_report().to_json(), SERVICE_BASELINE.to_string()] {
            assert_eq!(crate::validate_report(&json).map(|(_, w)| w), Ok(Vec::new()));
            let d = diff_reports(&json, &json, &DiffThresholds::default()).unwrap();
            assert!(d.passed(), "regressions: {:?}", d.regressions);
            assert!(!d.compared.is_empty());
        }
        let (r, _) = read_report(SERVICE_BASELINE, "baseline").unwrap();
        assert_eq!((r.queries.len(), r.count), (8, 198_411));
        assert_eq!(r.control, Default::default());
        assert_eq!(r.rebalance, Default::default());
        assert!(r.incidents.is_empty());
        let h = &r.histograms[0].histogram;
        assert_eq!((h.p999, h.max), (h.p99, h.p99), "a missing tail reads as the p99");
        for q in &r.queries {
            assert_eq!((q.roots_total, q.roots_completed, q.memo_entries), (0, 0, 0));
            assert_eq!((q.memo_evictions, q.control), (0, Default::default()));
        }
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

        // The gate refuses what the validator refuses: the service
        // baseline with non-monotone percentiles and a duplicate query
        // id, on either side, fails with the offending field named.
        let (mut bad, _) = read_report(SERVICE_BASELINE, "baseline").unwrap();
        bad.queries[1].query_id = bad.queries[0].query_id;
        let duplicate = bad.to_json();
        let h = &mut bad.histograms[0].histogram;
        std::mem::swap(&mut h.p50, &mut h.p99);
        let both = bad.to_json();
        for (json, field) in [(&duplicate, "queries: duplicate query_id"), (&both, "histograms[0]")]
        {
            assert!(crate::validate_report(json).unwrap_err().contains(field));
            let err = diff_reports(SERVICE_BASELINE, json, &Default::default()).unwrap_err();
            assert!(err.starts_with(&format!("candidate.{field}")), "{err}");
            let err = diff_reports(json, SERVICE_BASELINE, &Default::default()).unwrap_err();
            assert!(err.starts_with(&format!("baseline.{field}")), "{err}");
        }
    }
}
