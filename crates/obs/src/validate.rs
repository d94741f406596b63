//! JSON parsing and schema validation for reports and traces.
//!
//! The vendored `serde_json` shim is write-only, so documents are parsed
//! with a small recursive-descent parser here. A report is then read into
//! a [`RunReport`] by its own `Deserialize` and checked over the typed
//! fields; a trace is validated structurally.

use crate::report::{ControlSection, CriticalPathSection, RunReport, REPORT_SCHEMA_VERSION};
use serde::{Deserialize, Serialize, Value};

/// Parses a JSON document into the vendored [`Value`] tree.
///
/// Supports the subset the exporters emit: objects, arrays, strings with
/// the standard escapes, numbers (integers parse as `UInt`/`Int`, others
/// as `Float`), booleans, and `null`. Arrays and objects nest at most
/// `MAX_DEPTH` (128) deep: the parser recurses once per level, so a deeper
/// document is an error rather than an overflowed stack.
pub fn parse_json(input: &str) -> Result<Value, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos, MAX_DEPTH)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// The deepest nesting of arrays and objects [`parse_json`] reads. The
/// documents this workspace writes nest at most 6 deep.
const MAX_DEPTH: usize = 128;

/// Parses the value at `pos`, inside which arrays and objects may nest
/// `depth` more levels.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{' | b'[') if depth == 0 => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}", pos = *pos))
        }
        Some(b'{') => parse_object(b, pos, depth - 1),
        Some(b'[') => parse_array(b, pos, depth - 1),
        Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
        Some(b't') => parse_literal(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_literal(b, pos, "null", Value::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_literal(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    *pos += 1; // '{'
    let mut entries = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Map(entries));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let val = parse_value(b, pos, depth)?;
        entries.push((key, val));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Map(entries));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Seq(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Seq(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected '\"' at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // The run up to the next quote or backslash: both are
                // ASCII, so the run ends on a character boundary.
                let run = b[*pos..].iter().take_while(|&&c| c != b'"' && c != b'\\').count();
                out.push_str(std::str::from_utf8(&b[*pos..*pos + run]).map_err(|e| e.to_string())?);
                *pos += run;
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut float = false;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    if text.is_empty() || text == "-" {
        return Err(format!("invalid number at byte {start}"));
    }
    if float {
        text.parse::<f64>().map(Value::Float).map_err(|e| e.to_string())
    } else if let Ok(u) = text.parse::<u64>() {
        Ok(Value::UInt(u))
    } else {
        text.parse::<i64>().map(Value::Int).map_err(|e| e.to_string())
    }
}

/// `key`'s value in the object `fields`.
fn get<'a>(fields: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// The unsigned integer at `key`; an error naming `ctx.key` when it is
/// missing or of another type.
fn req_u64(map: &[(String, Value)], key: &str, ctx: &str) -> Result<u64, String> {
    serde::field(map, key, ctx, None)
}

/// The array at `key`; an error naming `ctx.key` when it is missing or
/// of another type.
fn req_seq<'a>(map: &'a [(String, Value)], key: &str, ctx: &str) -> Result<&'a [Value], String> {
    match get(map, key) {
        Some(Value::Seq(s)) => Ok(s),
        Some(_) => Err(format!("{ctx}.{key}: expected array")),
        None => Err(format!("{ctx}.{key}: missing")),
    }
}

/// Histogram tails are additive in v4: a snapshot written without them
/// reports no tail past its p99, so a missing `p999` reads as the p99
/// and a missing `max` as the p999 — unreported, not zero.
fn fill_missing_tails(v: &mut Value) {
    match v {
        Value::Map(m) => {
            if let Some(mut tail) = get(m, "p99").cloned() {
                for key in ["p999", "max"] {
                    match get(m, key) {
                        Some(v) => tail = v.clone(),
                        None => m.push((key.to_string(), tail.clone())),
                    }
                }
            }
            m.iter_mut().for_each(|(_, v)| fill_missing_tails(v));
        }
        Value::Seq(s) => s.iter_mut().for_each(fill_missing_tails),
        _ => {}
    }
}

/// The one report reader: `json` read into a [`RunReport`] through the
/// report types' own field names, then the checks the types cannot
/// express. Absent additive sections read as zero or empty. Every error
/// names the offending field under `root`; the second value is the
/// non-fatal warnings. [`validate_report`] and `report diff` both read
/// through here, so the gate refuses whatever the validator refuses.
pub(crate) fn read_report(json: &str, root: &str) -> Result<(RunReport, Vec<String>), String> {
    let mut doc = parse_json(json).map_err(|e| format!("{root}: {e}"))?;
    // The version first: another version may lay out anything. A v4 or
    // v5 report differs only by keys the read ignores: v4's `series`, and
    // both versions' per-part counts of waits the trace linked.
    let version = req_u64(serde::object(&doc, root)?, "schema_version", root)?;
    if !(4..=REPORT_SCHEMA_VERSION).contains(&version) {
        return Err(format!(
            "{root}.schema_version: {version} not in supported 4..={REPORT_SCHEMA_VERSION}"
        ));
    }
    fill_missing_tails(&mut doc);
    let r = RunReport::from_value(&doc, root)?;
    let mut warnings = Vec::new();

    nonempty(&r.system, &format!("{root}.system"))?;
    let total = fraction_sum(&r.breakdown, &format!("{root}.breakdown"))?;
    if total > 1.0 + 1e-6 {
        return Err(format!("{root}.breakdown: fractions sum to {total} > 1"));
    }

    for (i, named) in r.histograms.iter().enumerate() {
        let ctx = format!("{root}.histograms[{i}]");
        // Allowed names derive from the same table as `Metric::name`, so
        // the two cannot drift apart.
        if !crate::Metric::ALL.iter().any(|m| m.name() == named.name) {
            return Err(format!("{ctx}.name: unknown metric {:?}", named.name));
        }
        let h = &named.histogram;
        if !(h.p50 <= h.p95 && h.p95 <= h.p99) {
            return Err(format!("{ctx}: percentiles not monotone"));
        }
        if h.p99 > h.p999 {
            return Err(format!("{ctx}: p99 {} > p999 {}", h.p99, h.p999));
        }
        let sum: u64 = h.buckets.iter().sum();
        if sum != h.count {
            return Err(format!("{ctx}: bucket sum {sum} != count {}", h.count));
        }
    }

    if r.spans.dropped > 0 {
        warnings.push(format!(
            "spans.dropped: {} spans were overwritten — the trace is truncated",
            r.spans.dropped
        ));
    }
    for (i, ring) in r.spans.rings.iter().enumerate() {
        if ring.len > ring.capacity {
            return Err(format!(
                "{root}.spans.rings[{i}]: len {} > capacity {}",
                ring.len, ring.capacity
            ));
        }
    }

    fractions_sum_to_one(&r.critical_path, &format!("{root}.critical_path"))?;
    let f = &r.failures;
    if f.parts_failed > 0 && f.rerouted_bytes == 0 {
        warnings.push(format!(
            "failures.parts_failed: {} part(s) failed but no bytes were \
             re-routed — failover never engaged (no replicas, or the dead parts' \
             data was never requested)",
            f.parts_failed
        ));
    }
    // Effective replication below the configured factor: a slice is
    // still short a copy, so the next crash may lose data.
    let reb = &r.rebalance;
    if reb.configured_replication > 1 && reb.min_effective_replication < reb.configured_replication
    {
        warnings.push(format!(
            "rebalance: effective replication {} is below the configured \
             factor {} — a slice is still short a copy, so the next \
             crash may lose data",
            reb.min_effective_replication, reb.configured_replication
        ));
    }
    if reb.slices_lost > 0 {
        warnings.push(format!(
            "rebalance.slices_lost: {} slice(s) lost every copy before a \
             repair landed — counts derived from them cannot be trusted",
            reb.slices_lost
        ));
    }
    retries_within_sends(&r.control, &format!("{root}.control"))?;

    let mut seen_ids: Vec<u64> = Vec::new();
    for (i, q) in r.queries.iter().enumerate() {
        let ctx = format!("{root}.queries[{i}]");
        if q.query_id == 0 {
            return Err(format!("{ctx}.query_id: must be nonzero"));
        }
        seen_ids.push(q.query_id);
        nonempty(&q.pattern, &format!("{ctx}.pattern"))?;
        fractions_sum_to_one(&q.critical_path, &format!("{ctx}.critical_path"))?;
        retries_within_sends(&q.control, &format!("{ctx}.control"))?;
        // A successful query that retired fewer roots than it claimed to
        // own leaked progress accounting somewhere — warn instead of
        // silently passing (absence or a disabled tracker reads as zero
        // and stays quiet).
        if q.roots_total > 0 && q.roots_completed < q.roots_total {
            warnings.push(format!(
                "queries[{i}]: query {} succeeded but completed only {} of \
                 {} roots — progress accounting leaked",
                q.query_id, q.roots_completed, q.roots_total
            ));
        }
    }
    seen_ids.sort_unstable();
    if seen_ids.windows(2).any(|w| w[0] == w[1]) {
        return Err(format!("{root}.queries: duplicate query_id"));
    }

    for (i, inc) in r.incidents.iter().enumerate() {
        let ctx = format!("{root}.incidents[{i}]");
        nonempty(&inc.id, &format!("{ctx}.id"))?;
        nonempty(&inc.path, &format!("{ctx}.path"))?;
    }
    Ok((r, warnings))
}

fn nonempty(s: &str, path: &str) -> Result<(), String> {
    if s.is_empty() {
        return Err(format!("{path}: empty"));
    }
    Ok(())
}

/// A report section's numeric fields, named as the report names them,
/// in declaration order.
pub(crate) fn numbers(section: &impl Serialize) -> Vec<(String, f64)> {
    let Value::Map(fields) = section.to_value() else { return Vec::new() };
    fields.into_iter().filter_map(|(k, v)| Some((k, f64::from_value(&v, "").ok()?))).collect()
}

/// The sum of a section of fractions, each in `[0, 1]`.
fn fraction_sum(section: &impl Serialize, path: &str) -> Result<f64, String> {
    numbers(section)
        .into_iter()
        .map(|(key, f)| {
            if (0.0..=1.0).contains(&f) {
                Ok(f)
            } else {
                Err(format!("{path}.{key}: {f} outside [0, 1]"))
            }
        })
        .sum()
}

/// Critical-path fractions each in `[0, 1]`, summing to 1 ± 0.01 (or all
/// zero).
fn fractions_sum_to_one(cp: &CriticalPathSection, path: &str) -> Result<(), String> {
    let sum = fraction_sum(&cp.fractions, &format!("{path}.fractions"))?;
    if sum != 0.0 && (sum - 1.0).abs() > 0.01 {
        return Err(format!("{path}.fractions: sum {sum} not within 1 ± 0.01"));
    }
    Ok(())
}

/// Retries can never exceed sends: every retry is a send.
fn retries_within_sends(c: &ControlSection, path: &str) -> Result<(), String> {
    if c.retried > c.sent {
        return Err(format!("{path}: retried {} > sent {}", c.retried, c.sent));
    }
    Ok(())
}

/// Validates a `RunReport` JSON document of schema version 4 to
/// [`REPORT_SCHEMA_VERSION`] by reading it into a [`RunReport`]: every
/// field present with the right type (the additive ones may be absent),
/// fractions finite and in `[0, 1]`, percentiles monotone, histogram
/// names drawn from the metric table, and critical-path fractions
/// summing to 1 ± 0.01 (or all zero).
///
/// Returns the report read and its non-fatal warnings on success — a
/// warning when
/// `spans.dropped` is nonzero (a truncated trace must never be silently
/// trusted), one when `failures.parts_failed` is nonzero but no bytes
/// were re-routed (a part died and failover never engaged), one per
/// query that retired fewer roots than it owned, and one when the
/// rebalance section reports effective replication below the configured
/// factor or permanently lost slices — and an error string naming the
/// offending field on a schema violation.
pub fn validate_report(json: &str) -> Result<(RunReport, Vec<String>), String> {
    read_report(json, "report")
}

/// Validates a Chrome trace-event JSON document: a top-level
/// `traceEvents` array whose entries all carry `name`/`ph`/`pid`/`tid`,
/// with `ts` on every non-metadata event, `dur` on complete events, and
/// `id` on flow events (`ph` of `s`/`t`/`f`). Flow arrows must also be
/// well-formed: every flow id needs exactly one start (`s`) and one
/// finish (`f`).
pub fn validate_trace(json: &str) -> Result<(), String> {
    let doc = parse_json(json)?;
    let top = serde::object(&doc, "trace")?;
    let events = req_seq(top, "traceEvents", "trace")?;
    let mut flow_starts: Vec<u64> = Vec::new();
    let mut flow_finishes: Vec<u64> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let m = serde::object(ev, "traceEvents[i]")?;
        let ph = match get(m, "ph") {
            Some(Value::Str(s)) if !s.is_empty() => s.clone(),
            _ => return Err(format!("traceEvents[{i}].ph: missing")),
        };
        match get(m, "name") {
            Some(Value::Str(s)) if !s.is_empty() => {}
            _ => return Err(format!("traceEvents[{i}].name: missing")),
        }
        req_u64(m, "pid", &format!("traceEvents[{i}]"))?;
        req_u64(m, "tid", &format!("traceEvents[{i}]"))?;
        if ph != "M" {
            match get(m, "ts") {
                Some(Value::Float(f)) if f.is_finite() && *f >= 0.0 => {}
                Some(Value::UInt(_)) => {}
                _ => return Err(format!("traceEvents[{i}].ts: missing or invalid")),
            }
            if ph == "X" {
                match get(m, "dur") {
                    Some(Value::Float(f)) if f.is_finite() && *f >= 0.0 => {}
                    Some(Value::UInt(_)) => {}
                    _ => return Err(format!("traceEvents[{i}].dur: missing or invalid")),
                }
            }
            if ph == "s" || ph == "t" || ph == "f" {
                let id = req_u64(m, "id", &format!("traceEvents[{i}]"))?;
                if ph == "s" {
                    flow_starts.push(id);
                } else if ph == "f" {
                    flow_finishes.push(id);
                }
            }
        }
    }
    flow_starts.sort_unstable();
    flow_finishes.sort_unstable();
    if flow_starts != flow_finishes {
        return Err("flow events: starts and finishes do not pair up by id".to_string());
    }
    let mut deduped = flow_starts.clone();
    deduped.dedup();
    if deduped.len() != flow_starts.len() {
        return Err("flow events: duplicate start for one id".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_roundtrip_shapes() {
        let v = parse_json(r#"{"a": 1, "b": [true, null, -2, 1.5], "c": "x\ny"}"#).unwrap();
        let m = serde::object(&v, "t").unwrap();
        assert_eq!(get(m, "a"), Some(&Value::UInt(1)));
        assert_eq!(
            get(m, "b"),
            Some(&Value::Seq(vec![
                Value::Bool(true),
                Value::Null,
                Value::Int(-2),
                Value::Float(1.5)
            ]))
        );
        assert_eq!(get(m, "c"), Some(&Value::Str("x\ny".to_string())));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json(r#"{"a" 1}"#).is_err());
        assert!(parse_json("12 34").is_err());
        assert!(parse_json("").is_err());
    }

    #[test]
    fn nesting_past_the_cap_is_an_error_not_an_overflow() {
        let deep = "[".repeat(100_000);
        let err = parse_json(&deep).unwrap_err();
        assert_eq!(err, format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}"));
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_json(&at_cap).is_ok());
        let past = format!("{}{}", "{\"a\":".repeat(MAX_DEPTH + 1), "}".repeat(MAX_DEPTH + 1));
        assert!(parse_json(&past).unwrap_err().starts_with("nesting deeper than"));
        assert!(validate_report(&deep).is_err());
    }

    #[test]
    fn parser_accepts_exporter_output() {
        // Round-trip: what serde_json (shim) writes, parse_json reads.
        let v = Value::Map(vec![
            ("f".to_string(), Value::Float(2.5)),
            ("whole".to_string(), Value::Float(1.0)),
            ("s".to_string(), Value::Str("a\"b".to_string())),
        ]);
        let compact = serde_json::to_string(&v).unwrap();
        assert_eq!(parse_json(&compact).unwrap(), v);
        let pretty = serde_json::to_string_pretty(&v).unwrap();
        assert_eq!(parse_json(&pretty).unwrap(), v);
    }

    /// The warnings of a report that validates.
    fn warnings_of(json: &str) -> Result<Vec<String>, String> {
        validate_report(json).map(|(_, warnings)| warnings)
    }

    #[test]
    fn validate_report_rejects_bad_version() {
        for v in [3, 7, 99] {
            let json = format!(r#"{{"schema_version": {v}}}"#);
            let err = warnings_of(&json).unwrap_err();
            assert!(err.contains("schema_version"), "v{v}: {err}");
        }
        let v6 = v5_report(FULL_TRAFFIC, CLEAN_SPANS, ZERO_CP, "[]")
            .replace(r#""schema_version": 5,"#, r#""schema_version": 6,"#);
        assert_eq!(validate_report(&v6).unwrap().0.schema_version, 6);
        // A v4 report still reads; its gauge `series` is ignored.
        let v4 = v5_report(FULL_TRAFFIC, CLEAN_SPANS, ZERO_CP, "[]").replace(
            r#""schema_version": 5,"#,
            r#""schema_version": 4, "series": [{"t_ns": 1,
                "part": 0, "inflight": 2, "network_bytes": 64, "queue_depth": 3}],"#,
        );
        let (r, warnings) = validate_report(&v4).unwrap();
        assert_eq!(r.schema_version, 4);
        assert!(warnings.is_empty());
    }

    /// A minimal valid v5 report with one substitutable section.
    fn v5_report(traffic: &str, spans: &str, critical_path: &str, histograms: &str) -> String {
        v5_report_with_failures(traffic, spans, critical_path, histograms, ZERO_FAILURES)
    }

    fn v5_report_with_failures(
        traffic: &str,
        spans: &str,
        critical_path: &str,
        histograms: &str,
        failures: &str,
    ) -> String {
        v5_report_with_queries(traffic, spans, critical_path, histograms, failures, "[]")
    }

    fn v5_report_with_queries(
        traffic: &str,
        spans: &str,
        critical_path: &str,
        histograms: &str,
        failures: &str,
        queries: &str,
    ) -> String {
        format!(
            r#"{{
            "schema_version": 5, "system": "khuzdul", "count": 0, "elapsed_ns": 1,
            "traffic": {traffic},
            "breakdown": {{"compute": 0.0, "network": 0.0, "scheduler": 0.0, "cache": 0.0}},
            "per_part": [], "histograms": {histograms},
            "spans": {spans},
            "critical_path": {critical_path},
            "failures": {failures},
            "queries": {queries}
        }}"#
        )
    }

    const FULL_TRAFFIC: &str = r#"{"fetch_requests": 0, "cache_hits": 0, "cache_misses": 0,
        "coalesced_requests": 0, "retries": 0, "network_bytes": 0, "numa_bytes": 0}"#;
    const CLEAN_SPANS: &str = r#"{"recorded": 0, "dropped": 0, "rings": []}"#;
    const ZERO_CP: &str = r#"{"fractions": {"compute": 0.0, "fetch_wait": 0.0,
        "responder_queue": 0.0, "retry_backoff": 0.0}, "per_part": []}"#;
    const ZERO_FAILURES: &str = r#"{"parts_failed": 0, "rerouted_requests": 0,
        "rerouted_bytes": 0, "reexecuted_roots": 0}"#;

    #[test]
    fn validate_report_rejects_missing_traffic_key() {
        let json = v5_report(r#"{"fetch_requests": 0}"#, CLEAN_SPANS, ZERO_CP, "[]");
        let err = warnings_of(&json).unwrap_err();
        assert!(err.contains("cache_hits"), "got: {err}");
    }

    #[test]
    fn validate_report_warns_on_dropped_spans() {
        let clean = v5_report(FULL_TRAFFIC, CLEAN_SPANS, ZERO_CP, "[]");
        assert!(warnings_of(&clean).unwrap().is_empty());
        let truncated = v5_report(
            FULL_TRAFFIC,
            r#"{"recorded": 10, "dropped": 3, "rings": [{"shard": 0, "len": 7, "capacity": 7, "dropped": 3}]}"#,
            ZERO_CP,
            "[]",
        );
        let warnings = warnings_of(&truncated).unwrap();
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("dropped"), "got: {warnings:?}");
    }

    #[test]
    fn validate_report_warns_when_failover_never_engaged() {
        // A part died but nothing was re-routed: either there were no
        // replicas or the dead data was never requested — worth a warning
        // either way, since counts may silently rest on luck.
        let stranded = v5_report_with_failures(
            FULL_TRAFFIC,
            CLEAN_SPANS,
            ZERO_CP,
            "[]",
            r#"{"parts_failed": 1, "rerouted_requests": 0,
                "rerouted_bytes": 0, "reexecuted_roots": 0}"#,
        );
        let warnings = warnings_of(&stranded).unwrap();
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("failover never engaged"), "got: {warnings:?}");

        // With failover traffic recorded, the same failure count is fine.
        let recovered = v5_report_with_failures(
            FULL_TRAFFIC,
            CLEAN_SPANS,
            ZERO_CP,
            "[]",
            r#"{"parts_failed": 1, "rerouted_requests": 3,
                "rerouted_bytes": 4096, "reexecuted_roots": 12}"#,
        );
        assert!(warnings_of(&recovered).unwrap().is_empty());

        // A report missing the failures section is not a v3 report.
        let missing = v5_report(FULL_TRAFFIC, CLEAN_SPANS, ZERO_CP, "[]")
            .replace(r#""parts_failed": 0,"#, "");
        assert!(warnings_of(&missing).unwrap_err().contains("parts_failed"));
    }

    #[test]
    fn validate_report_rejects_unbalanced_critical_path() {
        let bad = v5_report(
            FULL_TRAFFIC,
            CLEAN_SPANS,
            r#"{"fractions": {"compute": 0.5, "fetch_wait": 0.1,
                "responder_queue": 0.0, "retry_backoff": 0.0}, "per_part": []}"#,
            "[]",
        );
        let err = warnings_of(&bad).unwrap_err();
        assert!(err.contains("critical_path.fractions"), "got: {err}");

        let good = v5_report(
            FULL_TRAFFIC,
            CLEAN_SPANS,
            r#"{"fractions": {"compute": 0.6, "fetch_wait": 0.25,
                "responder_queue": 0.1, "retry_backoff": 0.05}, "per_part": []}"#,
            "[]",
        );
        warnings_of(&good).expect("fractions summing to 1 must validate");
    }

    #[test]
    fn validate_report_rejects_unknown_histogram_name() {
        // The allowed-name list derives from the metric table; a name
        // that isn't in it must be rejected.
        let bad = v5_report(
            FULL_TRAFFIC,
            CLEAN_SPANS,
            ZERO_CP,
            r#"[{"name": "made_up_metric", "histogram":
                {"count": 0, "sum": 0, "p50": 0, "p95": 0, "p99": 0, "buckets": []}}]"#,
        );
        let err = warnings_of(&bad).unwrap_err();
        assert!(err.contains("unknown metric"), "got: {err}");
    }

    const FULL_QUERY: &str = r#"[{"query_id": 1, "pattern": "triangle", "memoized": false,
        "count": 7, "elapsed_ns": 5,
        "traffic": {"fetch_requests": 0, "cache_hits": 0, "cache_misses": 0,
            "coalesced_requests": 0, "retries": 0, "network_bytes": 0, "numa_bytes": 0},
        "failures": {"parts_failed": 0, "rerouted_requests": 0,
            "rerouted_bytes": 0, "reexecuted_roots": 0},
        "critical_path": {"fractions": {"compute": 0.0, "fetch_wait": 0.0,
            "responder_queue": 0.0, "retry_backoff": 0.0}, "per_part": []}}]"#;

    #[test]
    fn validate_report_checks_query_sections() {
        let good = v5_report_with_queries(
            FULL_TRAFFIC,
            CLEAN_SPANS,
            ZERO_CP,
            "[]",
            ZERO_FAILURES,
            FULL_QUERY,
        );
        assert!(warnings_of(&good).unwrap().is_empty());

        // A report missing the queries section is refused.
        let missing =
            v5_report(FULL_TRAFFIC, CLEAN_SPANS, ZERO_CP, "[]").replace(r#""queries": []"#, "");
        let missing = missing.trim_end().trim_end_matches('}').trim_end().trim_end_matches(',');
        let missing = format!("{missing}}}");
        assert!(warnings_of(&missing).unwrap_err().contains("queries"));

        // query_id 0 is reserved for unattributed work.
        let zero_id = good.replace(r#""query_id": 1"#, r#""query_id": 0"#);
        assert!(warnings_of(&zero_id).unwrap_err().contains("nonzero"));

        // memoized must be a bool, not a count.
        let bad_memo = good.replace(r#""memoized": false"#, r#""memoized": 0"#);
        assert!(warnings_of(&bad_memo).unwrap_err().contains("memoized"));

        // Per-query traffic must carry every traffic key.
        let bad_traffic = good.replace(r#""numa_bytes": 0}"#, "}"); // strip one key
        assert!(warnings_of(&bad_traffic).is_err());

        // Duplicate query ids are rejected.
        let dup = good.replace(
            r#""queries": [{"query_id": 1"#,
            r#""queries": [{"query_id": 1, "pattern": "x", "memoized": true, "count": 0,
                "elapsed_ns": 0,
                "traffic": {"fetch_requests": 0, "cache_hits": 0, "cache_misses": 0,
                    "coalesced_requests": 0, "retries": 0, "network_bytes": 0, "numa_bytes": 0},
                "failures": {"parts_failed": 0, "rerouted_requests": 0,
                    "rerouted_bytes": 0, "reexecuted_roots": 0},
                "critical_path": {"fractions": {"compute": 0.0, "fetch_wait": 0.0,
                    "responder_queue": 0.0, "retry_backoff": 0.0}, "per_part": []}},
                {"query_id": 1"#,
        );
        assert!(warnings_of(&dup).unwrap_err().contains("duplicate"));
    }

    #[test]
    fn validate_report_warns_on_roots_accounting_leak() {
        // Satellite fix: a successful query with roots_completed <
        // roots_total used to pass silently.
        let leaky = FULL_QUERY.replace(
            r#""elapsed_ns": 5,"#,
            r#""elapsed_ns": 5, "roots_total": 100, "roots_completed": 90,"#,
        );
        let json =
            v5_report_with_queries(FULL_TRAFFIC, CLEAN_SPANS, ZERO_CP, "[]", ZERO_FAILURES, &leaky);
        let warnings = warnings_of(&json).unwrap();
        assert_eq!(warnings.len(), 1, "got: {warnings:?}");
        assert!(warnings[0].contains("progress accounting leaked"), "got: {warnings:?}");

        // Fully-retired and tracker-off queries stay quiet.
        let clean = FULL_QUERY.replace(
            r#""elapsed_ns": 5,"#,
            r#""elapsed_ns": 5, "roots_total": 100, "roots_completed": 100,"#,
        );
        let json =
            v5_report_with_queries(FULL_TRAFFIC, CLEAN_SPANS, ZERO_CP, "[]", ZERO_FAILURES, &clean);
        assert!(warnings_of(&json).unwrap().is_empty());
    }

    #[test]
    fn validate_report_checks_histogram_tail_fields() {
        // Additive: a histogram without p999/max still validates...
        let legacy = v5_report(
            FULL_TRAFFIC,
            CLEAN_SPANS,
            ZERO_CP,
            r#"[{"name": "fetch_latency_ns", "histogram":
                {"count": 1, "sum": 5, "p50": 7, "p95": 7, "p99": 7, "buckets": [0, 0, 0, 1]}}]"#,
        );
        assert!(warnings_of(&legacy).unwrap().is_empty());
        // ...and a present p999 must continue the monotone chain.
        let bad = v5_report(
            FULL_TRAFFIC,
            CLEAN_SPANS,
            ZERO_CP,
            r#"[{"name": "fetch_latency_ns", "histogram":
                {"count": 1, "sum": 5, "p50": 7, "p95": 7, "p99": 7, "p999": 3, "max": 5,
                 "buckets": [0, 0, 0, 1]}}]"#,
        );
        assert!(warnings_of(&bad).unwrap_err().contains("p999"));
        let good = bad.replace(r#""p999": 3"#, r#""p999": 7"#);
        assert!(warnings_of(&good).unwrap().is_empty());
    }

    #[test]
    fn validate_report_checks_rebalance_section() {
        // Absent: fine (additive). Present, healthy: fine and quiet.
        let base = v5_report(FULL_TRAFFIC, CLEAN_SPANS, ZERO_CP, "[]");
        assert!(warnings_of(&base).unwrap().is_empty());
        let healthy = base.replace(
            r#""queries": []"#,
            r#""queries": [], "rebalance": {"enabled": true, "transfers": 1, "bytes": 4096,
                "slices_restored": 1, "slices_lost": 0, "routing_epoch": 2,
                "configured_replication": 2, "min_effective_replication": 2,
                "per_holder_rerouted": [{"part": 1, "requests": 3, "bytes": 1024}]}"#,
        );
        assert!(warnings_of(&healthy).unwrap().is_empty());
        // Effective replication below the configured factor warns: a
        // slice is still short a copy.
        let degraded = healthy
            .replace(r#""min_effective_replication": 2"#, r#""min_effective_replication": 1"#);
        let warnings = warnings_of(&degraded).unwrap();
        assert_eq!(warnings.len(), 1, "got: {warnings:?}");
        assert!(warnings[0].contains("below the configured factor"), "got: {warnings:?}");
        // Lost slices warn too — the counts cannot be trusted.
        let lossy = healthy.replace(r#""slices_lost": 0"#, r#""slices_lost": 1"#);
        let warnings = warnings_of(&lossy).unwrap();
        assert_eq!(warnings.len(), 1, "got: {warnings:?}");
        assert!(warnings[0].contains("lost every copy"), "got: {warnings:?}");
        // Malformed sections are schema violations, not warnings.
        let bad = healthy.replace(r#""enabled": true"#, r#""enabled": 1"#);
        assert!(warnings_of(&bad).unwrap_err().contains("enabled"));
        let missing_key = healthy.replace(r#""routing_epoch": 2,"#, "");
        assert!(warnings_of(&missing_key).unwrap_err().contains("routing_epoch"));
    }

    #[test]
    fn validate_report_checks_incidents_section() {
        // Absent: fine (additive). Present and well-formed: fine.
        let base = v5_report(FULL_TRAFFIC, CLEAN_SPANS, ZERO_CP, "[]");
        assert!(warnings_of(&base).unwrap().is_empty());
        let with = base.replace(
            r#""queries": []"#,
            r#""queries": [], "incidents": [{"id": "incident-000001-stall",
                "trigger": "stall", "query_id": 0, "at_ns": 12345,
                "path": "/tmp/i/incident-000001-stall.json"}]"#,
        );
        assert!(warnings_of(&with).unwrap().is_empty());
        // Unknown trigger class and missing id are schema violations.
        let bad_trigger = with.replace(r#""trigger": "stall""#, r#""trigger": "gremlins""#);
        assert!(warnings_of(&bad_trigger).unwrap_err().contains("unknown trigger"));
        let no_id = with.replace(r#""id": "incident-000001-stall","#, "");
        assert!(warnings_of(&no_id).unwrap_err().contains("id"));
    }

    #[test]
    fn validate_trace_rejects_missing_ts() {
        let json = r#"{"traceEvents": [{"name": "x", "ph": "X", "pid": 0, "tid": 0}]}"#;
        assert!(validate_trace(json).is_err());
    }

    #[test]
    fn validate_trace_requires_flow_ids_and_pairing() {
        // A flow event without an id is rejected.
        let no_id = r#"{"traceEvents": [
            {"name": "request", "ph": "s", "pid": 0, "tid": 3, "ts": 1.0}]}"#;
        assert!(validate_trace(no_id).unwrap_err().contains("id"));
        // A start without a finish is rejected.
        let unpaired = r#"{"traceEvents": [
            {"name": "request", "ph": "s", "pid": 0, "tid": 3, "ts": 1.0, "id": 7}]}"#;
        assert!(validate_trace(unpaired).unwrap_err().contains("pair"));
        // A matched start/finish pair validates.
        let paired = r#"{"traceEvents": [
            {"name": "request", "ph": "s", "pid": 0, "tid": 3, "ts": 1.0, "id": 7},
            {"name": "request", "ph": "t", "pid": 1, "tid": 5, "ts": 2.0, "id": 7},
            {"name": "request", "ph": "f", "bp": "e", "pid": 0, "tid": 2, "ts": 3.0, "id": 7}]}"#;
        validate_trace(paired).expect("paired flow must validate");
    }
}
