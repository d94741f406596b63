//! JSON parsing and schema validation for reports and traces.
//!
//! The vendored `serde_json` shim is write-only, so CI's schema check
//! parses with a small recursive-descent parser here and validates the
//! resulting [`Value`] tree structurally.

use crate::report::REPORT_SCHEMA_VERSION;
use serde::Value;

/// Parses a JSON document into the vendored [`Value`] tree.
///
/// Supports the subset the exporters emit: objects, arrays, strings with
/// the standard escapes, numbers (integers parse as `UInt`/`Int`, others
/// as `Float`), booleans, and `null`.
pub fn parse_json(input: &str) -> Result<Value, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
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

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
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

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
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
        let val = parse_value(b, pos)?;
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

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Seq(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
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
                // Copy the full UTF-8 scalar starting here.
                let rest = &b[*pos..];
                let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                let c = s.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
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
pub fn get<'a>(fields: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// `v` as an unsigned integer: a `UInt`, or an `Int` that is not negative.
fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::UInt(u) => Some(*u),
        Value::Int(i) if *i >= 0 => Some(*i as u64),
        _ => None,
    }
}

/// `v` as a number of any representation.
fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// `v` as an object, or an error naming `ctx`.
pub fn as_map<'a>(v: &'a Value, ctx: &str) -> Result<&'a [(String, Value)], String> {
    match v {
        Value::Map(m) => Ok(m),
        _ => Err(format!("{ctx}: expected object")),
    }
}

/// `v` as an array, or an error naming `ctx`.
pub fn as_seq<'a>(v: &'a Value, ctx: &str) -> Result<&'a [Value], String> {
    match v {
        Value::Seq(s) => Ok(s),
        _ => Err(format!("{ctx}: expected array")),
    }
}

/// The unsigned integer at `key`; an error naming `ctx.key` when it is
/// missing or of another type.
pub fn req_u64(map: &[(String, Value)], key: &str, ctx: &str) -> Result<u64, String> {
    opt_u64(map, key, ctx)?.ok_or_else(|| format!("{ctx}.{key}: missing"))
}

/// An *additive* u64 field: absent is fine (`None`), but a present value
/// of the wrong type is still a schema violation.
pub fn opt_u64(map: &[(String, Value)], key: &str, ctx: &str) -> Result<Option<u64>, String> {
    get(map, key)
        .map(|v| as_u64(v).ok_or_else(|| format!("{ctx}.{key}: expected unsigned integer")))
        .transpose()
}

/// The string at `key`; an error naming `ctx.key` when it is missing or
/// of another type.
pub fn req_str<'a>(map: &'a [(String, Value)], key: &str, ctx: &str) -> Result<&'a str, String> {
    match get(map, key) {
        Some(Value::Str(s)) => Ok(s),
        Some(_) => Err(format!("{ctx}.{key}: expected string")),
        None => Err(format!("{ctx}.{key}: missing")),
    }
}

/// The object at `key`; an error naming `ctx.key` when it is missing or
/// of another type.
pub fn req_map<'a>(
    map: &'a [(String, Value)],
    key: &str,
    ctx: &str,
) -> Result<&'a [(String, Value)], String> {
    let ctx = format!("{ctx}.{key}");
    as_map(get(map, key).ok_or_else(|| format!("{ctx}: missing"))?, &ctx)
}

/// The array at `key`; an error naming `ctx.key` when it is missing or
/// of another type.
pub fn req_seq<'a>(
    map: &'a [(String, Value)],
    key: &str,
    ctx: &str,
) -> Result<&'a [Value], String> {
    let ctx = format!("{ctx}.{key}");
    as_seq(get(map, key).ok_or_else(|| format!("{ctx}: missing"))?, &ctx)
}

/// A number in `[0, 1]` at `key`; an error naming `ctx.key` when it is
/// missing, of another type or out of range.
pub fn req_fraction(map: &[(String, Value)], key: &str, ctx: &str) -> Result<f64, String> {
    let f = match get(map, key) {
        Some(v) => as_f64(v).ok_or_else(|| format!("{ctx}.{key}: expected number"))?,
        None => return Err(format!("{ctx}.{key}: missing")),
    };
    if !f.is_finite() || !(0.0..=1.0).contains(&f) {
        return Err(format!("{ctx}.{key}: {f} outside [0, 1]"));
    }
    Ok(f)
}

/// `key`'s value in `v`, `Null` when `v` is not an object or lacks it.
///
/// This and the four readers below are the lenient side of the same
/// accessors, for renderers that show whatever a document holds: an
/// absent key or a value of another type reads as `Null`, 0, `""` or
/// an empty array.
pub fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    static NULL: Value = Value::Null;
    match v {
        Value::Map(m) => get(m, key).unwrap_or(&NULL),
        _ => &NULL,
    }
}

/// The unsigned integer at `key` in `v`, else 0.
pub fn uint(v: &Value, key: &str) -> u64 {
    as_u64(field(v, key)).unwrap_or(0)
}

/// The number at `key` in `v`, else 0.
pub fn num(v: &Value, key: &str) -> f64 {
    as_f64(field(v, key)).unwrap_or(0.0)
}

/// The string at `key` in `v`, else `""`.
pub fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    match field(v, key) {
        Value::Str(s) => s,
        _ => "",
    }
}

/// The array at `key` in `v`, else empty.
pub fn seq<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match field(v, key) {
        Value::Seq(s) => s,
        _ => &[],
    }
}

pub(crate) const TRAFFIC_KEYS: [&str; 7] = [
    "fetch_requests",
    "cache_hits",
    "cache_misses",
    "coalesced_requests",
    "retries",
    "network_bytes",
    "numa_bytes",
];

const PART_KEYS: [&str; 9] = [
    "part",
    "count",
    "compute_ns",
    "network_ns",
    "scheduler_ns",
    "cache_ns",
    "peak_embeddings",
    "roots_stolen",
    "roots_donated",
];

const HIST_KEYS: [&str; 5] = ["count", "sum", "p50", "p95", "p99"];

/// Fraction keys of the critical-path section, in report order. Shared
/// with `report diff` so the gate and the validator check one list.
pub(crate) const CRITICAL_PATH_FRACTION_KEYS: [&str; 4] =
    ["compute", "fetch_wait", "responder_queue", "retry_backoff"];

/// Counter keys of the v3 failure section, in report order.
const FAILURE_KEYS: [&str; 4] =
    ["parts_failed", "rerouted_requests", "rerouted_bytes", "reexecuted_roots"];

/// Counter keys of the (additive-in-v4, optional) control section.
const CONTROL_KEYS: [&str; 3] = ["sent", "retried", "dropped"];

/// Counter keys of the (additive-in-v4, optional) rebalance section.
const REBALANCE_KEYS: [&str; 7] = [
    "transfers",
    "bytes",
    "slices_restored",
    "slices_lost",
    "routing_epoch",
    "configured_replication",
    "min_effective_replication",
];

/// Trigger classes an incident summary may carry, mirroring
/// `khuzdul::incident`'s trigger taxonomy.
pub(crate) const INCIDENT_TRIGGERS: [&str; 7] = [
    "part_failed",
    "part_lost",
    "deadline_exceeded",
    "slow_query",
    "control_poison",
    "stall",
    "rebalance_stuck",
];

/// Checks the incidents section *if present* (additive in v4: reports
/// written before the flight-recorder subsystem lack it, and readers
/// treat absence as an empty list).
fn check_incidents(parent: &[(String, Value)]) -> Result<(), String> {
    let Some(incidents) = get(parent, "incidents") else { return Ok(()) };
    for (i, inc) in as_seq(incidents, "incidents")?.iter().enumerate() {
        let ctx = format!("incidents[{i}]");
        let m = as_map(inc, &ctx)?;
        for key in ["id", "path"] {
            match get(m, key) {
                Some(Value::Str(s)) if !s.is_empty() => {}
                _ => return Err(format!("{ctx}.{key}: missing or empty")),
            }
        }
        match get(m, "trigger") {
            Some(Value::Str(s)) if INCIDENT_TRIGGERS.contains(&s.as_str()) => {}
            Some(Value::Str(s)) => return Err(format!("{ctx}.trigger: unknown trigger {s:?}")),
            _ => return Err(format!("{ctx}.trigger: missing or empty")),
        }
        req_u64(m, "query_id", &ctx)?;
        req_u64(m, "at_ns", &ctx)?;
    }
    Ok(())
}

/// Checks the rebalance section *if present* (additive in v4: reports
/// written before the self-healing subsystem lack it, and readers treat
/// absence as disabled/all-zero). A present section must be well-formed,
/// and two conditions earn warnings rather than errors: effective
/// replication ending below the configured factor (a slice is still
/// short a copy, so the next crash may lose data), and slices marked
/// permanently lost.
fn check_rebalance(parent: &[(String, Value)], warnings: &mut Vec<String>) -> Result<(), String> {
    let Some(reb) = get(parent, "rebalance") else { return Ok(()) };
    let m = as_map(reb, "rebalance")?;
    match get(m, "enabled") {
        Some(Value::Bool(_)) => {}
        _ => return Err("rebalance.enabled: missing or not a bool".to_string()),
    }
    for key in REBALANCE_KEYS {
        req_u64(m, key, "rebalance")?;
    }
    for (i, h) in req_seq(m, "per_holder_rerouted", "rebalance")?.iter().enumerate() {
        let ctx = format!("rebalance.per_holder_rerouted[{i}]");
        let hm = as_map(h, &ctx)?;
        for key in ["part", "requests", "bytes"] {
            req_u64(hm, key, &ctx)?;
        }
    }
    let configured = req_u64(m, "configured_replication", "rebalance")?;
    let effective = req_u64(m, "min_effective_replication", "rebalance")?;
    if configured > 1 && effective < configured {
        warnings.push(format!(
            "rebalance: effective replication {effective} is below the configured \
             factor {configured} — a slice is still short a copy, so the next \
             crash may lose data"
        ));
    }
    let lost = req_u64(m, "slices_lost", "rebalance")?;
    if lost > 0 {
        warnings.push(format!(
            "rebalance.slices_lost: {lost} slice(s) lost every copy before a \
             repair landed — counts derived from them cannot be trusted"
        ));
    }
    Ok(())
}

/// Checks a control section *if present*. The section is additive in
/// v4 — reports written before the message-based control plane lack it,
/// and readers treat a missing section as all-zero — so absence is not
/// an error, but a present section must be well-formed: all counters
/// u64, and retries can never exceed sends (every retry is a send).
fn check_control(parent: &[(String, Value)], ctx: &str) -> Result<(), String> {
    let Some(ctrl) = get(parent, "control") else { return Ok(()) };
    let m = as_map(ctrl, ctx)?;
    for key in CONTROL_KEYS {
        req_u64(m, key, ctx)?;
    }
    let (sent, retried) = (req_u64(m, "sent", ctx)?, req_u64(m, "retried", ctx)?);
    if retried > sent {
        return Err(format!("{ctx}: retried {retried} > sent {sent}"));
    }
    Ok(())
}

/// Checks a traffic section: all [`TRAFFIC_KEYS`] present as u64.
fn check_traffic(map: &[(String, Value)], ctx: &str) -> Result<(), String> {
    for key in TRAFFIC_KEYS {
        req_u64(map, key, ctx)?;
    }
    Ok(())
}

/// Checks a failures section; returns `(parts_failed, rerouted_bytes)`
/// so the caller can decide whether to warn.
fn check_failures(map: &[(String, Value)], ctx: &str) -> Result<(u64, u64), String> {
    for key in FAILURE_KEYS {
        req_u64(map, key, ctx)?;
    }
    Ok((req_u64(map, "parts_failed", ctx)?, req_u64(map, "rerouted_bytes", ctx)?))
}

/// Checks a critical-path section: fractions in `[0, 1]` summing to
/// 1 ± 0.01 (or all zero), and the per-part decomposition keys.
fn check_critical_path(map: &[(String, Value)], ctx: &str) -> Result<(), String> {
    let fractions = req_map(map, "fractions", ctx)?;
    let mut cp_sum = 0.0;
    for key in CRITICAL_PATH_FRACTION_KEYS {
        cp_sum += req_fraction(fractions, key, &format!("{ctx}.fractions"))?;
    }
    if cp_sum != 0.0 && (cp_sum - 1.0).abs() > 0.01 {
        return Err(format!("{ctx}.fractions: sum {cp_sum} not within 1 ± 0.01"));
    }
    let cp_parts = req_seq(map, "per_part", ctx)?;
    for (i, p) in cp_parts.iter().enumerate() {
        let m = as_map(p, &format!("{ctx}.per_part[{i}]"))?;
        for key in [
            "part",
            "compute_ns",
            "fetch_wait_ns",
            "responder_queue_ns",
            "retry_backoff_ns",
            "linked_waits",
            "unlinked_waits",
        ] {
            req_u64(m, key, &format!("{ctx}.per_part[{i}]"))?;
        }
    }
    Ok(())
}

/// Validates a `RunReport` JSON document against schema version
/// [`REPORT_SCHEMA_VERSION`]: required keys present with the right
/// types, fractions finite and in `[0, 1]`, percentiles monotone,
/// histogram names drawn from the metric table, and critical-path
/// fractions summing to 1 ± 0.01 (or all zero).
///
/// Returns the list of non-fatal warnings on success — a warning when
/// `spans.dropped` is nonzero (a truncated trace must never be silently
/// trusted), one when `failures.parts_failed` is nonzero but no bytes
/// were re-routed (a part died and failover never engaged), and one
/// when the rebalance section reports effective replication below the
/// configured factor or permanently lost slices — and an error string
/// on schema violation.
pub fn validate_report(json: &str) -> Result<Vec<String>, String> {
    let mut warnings = Vec::new();
    let doc = parse_json(json)?;
    let top = as_map(&doc, "report")?;

    let version = req_u64(top, "schema_version", "report")?;
    if version != REPORT_SCHEMA_VERSION {
        return Err(format!(
            "report.schema_version: {version} != supported {REPORT_SCHEMA_VERSION}"
        ));
    }
    match get(top, "system") {
        Some(Value::Str(s)) if !s.is_empty() => {}
        _ => return Err("report.system: missing or empty".to_string()),
    }
    req_u64(top, "count", "report")?;
    req_u64(top, "elapsed_ns", "report")?;

    let traffic = req_map(top, "traffic", "report")?;
    check_traffic(traffic, "traffic")?;

    let breakdown = req_map(top, "breakdown", "report")?;
    let mut total = 0.0;
    for key in ["compute", "network", "scheduler", "cache"] {
        total += req_fraction(breakdown, key, "breakdown")?;
    }
    if total > 1.0 + 1e-6 {
        return Err(format!("breakdown: fractions sum to {total} > 1"));
    }

    let per_part = req_seq(top, "per_part", "report")?;
    for (i, p) in per_part.iter().enumerate() {
        let m = as_map(p, "per_part[i]")?;
        for key in PART_KEYS {
            req_u64(m, key, &format!("per_part[{i}]"))?;
        }
    }

    let hists = req_seq(top, "histograms", "report")?;
    for (i, h) in hists.iter().enumerate() {
        let m = as_map(h, "histograms[i]")?;
        match get(m, "name") {
            // Allowed names derive from the same table as
            // `Metric::name`, so the two cannot drift apart.
            Some(Value::Str(s)) if crate::Metric::ALL.iter().any(|m| m.name() == s) => {}
            Some(Value::Str(s)) => {
                return Err(format!("histograms[{i}].name: unknown metric {s:?}"))
            }
            _ => return Err(format!("histograms[{i}].name: missing or empty")),
        }
        let snap = req_map(m, "histogram", &format!("histograms[{i}]"))?;
        for key in HIST_KEYS {
            req_u64(snap, key, &format!("histograms[{i}]"))?;
        }
        let (p50, p95, p99) =
            (req_u64(snap, "p50", "h")?, req_u64(snap, "p95", "h")?, req_u64(snap, "p99", "h")?);
        if !(p50 <= p95 && p95 <= p99) {
            return Err(format!("histograms[{i}]: percentiles not monotone"));
        }
        // Tail fields are additive in v4: absent in older reports, but a
        // present p999 must continue the monotone percentile chain.
        if let Some(p999) = opt_u64(snap, "p999", &format!("histograms[{i}]"))? {
            if p99 > p999 {
                return Err(format!("histograms[{i}]: p99 {p99} > p999 {p999}"));
            }
        }
        opt_u64(snap, "max", &format!("histograms[{i}]"))?;
        let buckets = req_seq(snap, "buckets", &format!("histograms[{i}]"))?;
        let count = req_u64(snap, "count", "h")?;
        let sum: u64 = buckets
            .iter()
            .map(|b| match b {
                Value::UInt(u) => Ok(*u),
                _ => Err(format!("histograms[{i}].buckets: non-integer entry")),
            })
            .sum::<Result<u64, String>>()?;
        if sum != count {
            return Err(format!("histograms[{i}]: bucket sum {sum} != count {count}"));
        }
    }

    let series = req_seq(top, "series", "report")?;
    for (i, s) in series.iter().enumerate() {
        let m = as_map(s, "series[i]")?;
        for key in ["t_ns", "part", "inflight", "network_bytes", "queue_depth"] {
            req_u64(m, key, &format!("series[{i}]"))?;
        }
    }

    let spans = req_map(top, "spans", "report")?;
    req_u64(spans, "recorded", "spans")?;
    let dropped = req_u64(spans, "dropped", "spans")?;
    if dropped > 0 {
        warnings.push(format!(
            "spans.dropped: {dropped} spans were overwritten — the trace and the \
             critical-path attribution derived from it are truncated"
        ));
    }
    let rings = req_seq(spans, "rings", "spans")?;
    for (i, r) in rings.iter().enumerate() {
        let m = as_map(r, "rings[i]")?;
        for key in ["shard", "len", "capacity", "dropped"] {
            req_u64(m, key, &format!("spans.rings[{i}]"))?;
        }
        let (len, cap) = (req_u64(m, "len", "r")?, req_u64(m, "capacity", "r")?);
        if len > cap {
            return Err(format!("spans.rings[{i}]: len {len} > capacity {cap}"));
        }
    }

    let cp = req_map(top, "critical_path", "report")?;
    check_critical_path(cp, "critical_path")?;

    let failures = req_map(top, "failures", "report")?;
    let (parts_failed, rerouted_bytes) = check_failures(failures, "failures")?;
    if parts_failed > 0 && rerouted_bytes == 0 {
        warnings.push(format!(
            "failures.parts_failed: {parts_failed} part(s) failed but no bytes were \
             re-routed — failover never engaged (no replicas, or the dead parts' \
             data was never requested)"
        ));
    }

    check_rebalance(top, &mut warnings)?;
    check_control(top, "control")?;

    let queries = req_seq(top, "queries", "report")?;
    let mut seen_ids: Vec<u64> = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let ctx = format!("queries[{i}]");
        let m = as_map(q, &ctx)?;
        let qid = req_u64(m, "query_id", &ctx)?;
        if qid == 0 {
            return Err(format!("{ctx}.query_id: must be nonzero"));
        }
        seen_ids.push(qid);
        match get(m, "pattern") {
            Some(Value::Str(s)) if !s.is_empty() => {}
            _ => return Err(format!("{ctx}.pattern: missing or empty")),
        }
        match get(m, "memoized") {
            Some(Value::Bool(_)) => {}
            _ => return Err(format!("{ctx}.memoized: missing or not a bool")),
        }
        req_u64(m, "count", &ctx)?;
        req_u64(m, "elapsed_ns", &ctx)?;
        let q_traffic = req_map(m, "traffic", &ctx)?;
        check_traffic(q_traffic, &format!("{ctx}.traffic"))?;
        let q_failures = req_map(m, "failures", &ctx)?;
        check_failures(q_failures, &format!("{ctx}.failures"))?;
        let q_cp = req_map(m, "critical_path", &ctx)?;
        check_critical_path(q_cp, &format!("{ctx}.critical_path"))?;
        check_control(m, &format!("{ctx}.control"))?;
        // A successful query that retired fewer roots than it claimed to
        // own leaked progress accounting somewhere — warn instead of
        // silently passing (the fields are additive, so absence or a
        // disabled tracker reads as zero and stays quiet).
        let roots_total = opt_u64(m, "roots_total", &ctx)?.unwrap_or(0);
        let roots_completed = opt_u64(m, "roots_completed", &ctx)?.unwrap_or(0);
        if roots_total > 0 && roots_completed < roots_total {
            warnings.push(format!(
                "{ctx}: query {qid} succeeded but completed only {roots_completed} of \
                 {roots_total} roots — progress accounting leaked"
            ));
        }
    }
    seen_ids.sort_unstable();
    let unique = seen_ids.len();
    seen_ids.dedup();
    if seen_ids.len() != unique {
        return Err("queries: duplicate query_id".to_string());
    }

    check_incidents(top)?;

    Ok(warnings)
}

/// Validates a Chrome trace-event JSON document: a top-level
/// `traceEvents` array whose entries all carry `name`/`ph`/`pid`/`tid`,
/// with `ts` on every non-metadata event, `dur` on complete events, and
/// `id` on flow events (`ph` of `s`/`t`/`f`). Flow arrows must also be
/// well-formed: every flow id needs exactly one start (`s`) and one
/// finish (`f`).
pub fn validate_trace(json: &str) -> Result<(), String> {
    let doc = parse_json(json)?;
    let top = as_map(&doc, "trace")?;
    let events = req_seq(top, "traceEvents", "trace")?;
    let mut flow_starts: Vec<u64> = Vec::new();
    let mut flow_finishes: Vec<u64> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let m = as_map(ev, "traceEvents[i]")?;
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
        let m = as_map(&v, "t").unwrap();
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

    #[test]
    fn validate_report_rejects_bad_version() {
        let json = r#"{"schema_version": 99}"#;
        let err = validate_report(json).unwrap_err();
        assert!(err.contains("schema_version"));
    }

    /// A minimal valid v4 report with one substitutable section.
    fn v4_report(traffic: &str, spans: &str, critical_path: &str, histograms: &str) -> String {
        v4_report_with_failures(traffic, spans, critical_path, histograms, ZERO_FAILURES)
    }

    fn v4_report_with_failures(
        traffic: &str,
        spans: &str,
        critical_path: &str,
        histograms: &str,
        failures: &str,
    ) -> String {
        v4_report_with_queries(traffic, spans, critical_path, histograms, failures, "[]")
    }

    fn v4_report_with_queries(
        traffic: &str,
        spans: &str,
        critical_path: &str,
        histograms: &str,
        failures: &str,
        queries: &str,
    ) -> String {
        format!(
            r#"{{
            "schema_version": 4, "system": "khuzdul", "count": 0, "elapsed_ns": 1,
            "traffic": {traffic},
            "breakdown": {{"compute": 0.0, "network": 0.0, "scheduler": 0.0, "cache": 0.0}},
            "per_part": [], "histograms": {histograms}, "series": [],
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
        let json = v4_report(r#"{"fetch_requests": 0}"#, CLEAN_SPANS, ZERO_CP, "[]");
        let err = validate_report(&json).unwrap_err();
        assert!(err.contains("cache_hits"), "got: {err}");
    }

    #[test]
    fn validate_report_warns_on_dropped_spans() {
        let clean = v4_report(FULL_TRAFFIC, CLEAN_SPANS, ZERO_CP, "[]");
        assert!(validate_report(&clean).unwrap().is_empty());
        let truncated = v4_report(
            FULL_TRAFFIC,
            r#"{"recorded": 10, "dropped": 3, "rings": [{"shard": 0, "len": 7, "capacity": 7, "dropped": 3}]}"#,
            ZERO_CP,
            "[]",
        );
        let warnings = validate_report(&truncated).unwrap();
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("dropped"), "got: {warnings:?}");
    }

    #[test]
    fn validate_report_warns_when_failover_never_engaged() {
        // A part died but nothing was re-routed: either there were no
        // replicas or the dead data was never requested — worth a warning
        // either way, since counts may silently rest on luck.
        let stranded = v4_report_with_failures(
            FULL_TRAFFIC,
            CLEAN_SPANS,
            ZERO_CP,
            "[]",
            r#"{"parts_failed": 1, "rerouted_requests": 0,
                "rerouted_bytes": 0, "reexecuted_roots": 0}"#,
        );
        let warnings = validate_report(&stranded).unwrap();
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("failover never engaged"), "got: {warnings:?}");

        // With failover traffic recorded, the same failure count is fine.
        let recovered = v4_report_with_failures(
            FULL_TRAFFIC,
            CLEAN_SPANS,
            ZERO_CP,
            "[]",
            r#"{"parts_failed": 1, "rerouted_requests": 3,
                "rerouted_bytes": 4096, "reexecuted_roots": 12}"#,
        );
        assert!(validate_report(&recovered).unwrap().is_empty());

        // A report missing the failures section is not a v3 report.
        let missing = v4_report(FULL_TRAFFIC, CLEAN_SPANS, ZERO_CP, "[]")
            .replace(r#""parts_failed": 0,"#, "");
        assert!(validate_report(&missing).unwrap_err().contains("parts_failed"));
    }

    #[test]
    fn validate_report_rejects_unbalanced_critical_path() {
        let bad = v4_report(
            FULL_TRAFFIC,
            CLEAN_SPANS,
            r#"{"fractions": {"compute": 0.5, "fetch_wait": 0.1,
                "responder_queue": 0.0, "retry_backoff": 0.0}, "per_part": []}"#,
            "[]",
        );
        let err = validate_report(&bad).unwrap_err();
        assert!(err.contains("critical_path.fractions"), "got: {err}");

        let good = v4_report(
            FULL_TRAFFIC,
            CLEAN_SPANS,
            r#"{"fractions": {"compute": 0.6, "fetch_wait": 0.25,
                "responder_queue": 0.1, "retry_backoff": 0.05}, "per_part": []}"#,
            "[]",
        );
        validate_report(&good).expect("fractions summing to 1 must validate");
    }

    #[test]
    fn validate_report_rejects_unknown_histogram_name() {
        // The allowed-name list derives from the metric table; a name
        // that isn't in it must be rejected.
        let bad = v4_report(
            FULL_TRAFFIC,
            CLEAN_SPANS,
            ZERO_CP,
            r#"[{"name": "made_up_metric", "histogram":
                {"count": 0, "sum": 0, "p50": 0, "p95": 0, "p99": 0, "buckets": []}}]"#,
        );
        let err = validate_report(&bad).unwrap_err();
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
        let good = v4_report_with_queries(
            FULL_TRAFFIC,
            CLEAN_SPANS,
            ZERO_CP,
            "[]",
            ZERO_FAILURES,
            FULL_QUERY,
        );
        assert!(validate_report(&good).unwrap().is_empty());

        // A report missing the queries section is not a v4 report.
        let missing =
            v4_report(FULL_TRAFFIC, CLEAN_SPANS, ZERO_CP, "[]").replace(r#""queries": []"#, "");
        let missing = missing.trim_end().trim_end_matches('}').trim_end().trim_end_matches(',');
        let missing = format!("{missing}}}");
        assert!(validate_report(&missing).unwrap_err().contains("queries"));

        // query_id 0 is reserved for unattributed work.
        let zero_id = good.replace(r#""query_id": 1"#, r#""query_id": 0"#);
        assert!(validate_report(&zero_id).unwrap_err().contains("nonzero"));

        // memoized must be a bool, not a count.
        let bad_memo = good.replace(r#""memoized": false"#, r#""memoized": 0"#);
        assert!(validate_report(&bad_memo).unwrap_err().contains("memoized"));

        // Per-query traffic must carry every traffic key.
        let bad_traffic = good.replace(r#""numa_bytes": 0}"#, "}"); // strip one key
        assert!(validate_report(&bad_traffic).is_err());

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
        assert!(validate_report(&dup).unwrap_err().contains("duplicate"));
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
            v4_report_with_queries(FULL_TRAFFIC, CLEAN_SPANS, ZERO_CP, "[]", ZERO_FAILURES, &leaky);
        let warnings = validate_report(&json).unwrap();
        assert_eq!(warnings.len(), 1, "got: {warnings:?}");
        assert!(warnings[0].contains("progress accounting leaked"), "got: {warnings:?}");

        // Fully-retired and tracker-off queries stay quiet.
        let clean = FULL_QUERY.replace(
            r#""elapsed_ns": 5,"#,
            r#""elapsed_ns": 5, "roots_total": 100, "roots_completed": 100,"#,
        );
        let json =
            v4_report_with_queries(FULL_TRAFFIC, CLEAN_SPANS, ZERO_CP, "[]", ZERO_FAILURES, &clean);
        assert!(validate_report(&json).unwrap().is_empty());
    }

    #[test]
    fn validate_report_checks_histogram_tail_fields() {
        // Additive: a histogram without p999/max still validates...
        let legacy = v4_report(
            FULL_TRAFFIC,
            CLEAN_SPANS,
            ZERO_CP,
            r#"[{"name": "fetch_latency_ns", "histogram":
                {"count": 1, "sum": 5, "p50": 7, "p95": 7, "p99": 7, "buckets": [0, 0, 0, 1]}}]"#,
        );
        assert!(validate_report(&legacy).unwrap().is_empty());
        // ...and a present p999 must continue the monotone chain.
        let bad = v4_report(
            FULL_TRAFFIC,
            CLEAN_SPANS,
            ZERO_CP,
            r#"[{"name": "fetch_latency_ns", "histogram":
                {"count": 1, "sum": 5, "p50": 7, "p95": 7, "p99": 7, "p999": 3, "max": 5,
                 "buckets": [0, 0, 0, 1]}}]"#,
        );
        assert!(validate_report(&bad).unwrap_err().contains("p999"));
        let good = bad.replace(r#""p999": 3"#, r#""p999": 7"#);
        assert!(validate_report(&good).unwrap().is_empty());
    }

    #[test]
    fn validate_report_checks_rebalance_section() {
        // Absent: fine (additive). Present, healthy: fine and quiet.
        let base = v4_report(FULL_TRAFFIC, CLEAN_SPANS, ZERO_CP, "[]");
        assert!(validate_report(&base).unwrap().is_empty());
        let healthy = base.replace(
            r#""queries": []"#,
            r#""queries": [], "rebalance": {"enabled": true, "transfers": 1, "bytes": 4096,
                "slices_restored": 1, "slices_lost": 0, "routing_epoch": 2,
                "configured_replication": 2, "min_effective_replication": 2,
                "per_holder_rerouted": [{"part": 1, "requests": 3, "bytes": 1024}]}"#,
        );
        assert!(validate_report(&healthy).unwrap().is_empty());
        // Effective replication below the configured factor warns: a
        // slice is still short a copy.
        let degraded = healthy
            .replace(r#""min_effective_replication": 2"#, r#""min_effective_replication": 1"#);
        let warnings = validate_report(&degraded).unwrap();
        assert_eq!(warnings.len(), 1, "got: {warnings:?}");
        assert!(warnings[0].contains("below the configured factor"), "got: {warnings:?}");
        // Lost slices warn too — the counts cannot be trusted.
        let lossy = healthy.replace(r#""slices_lost": 0"#, r#""slices_lost": 1"#);
        let warnings = validate_report(&lossy).unwrap();
        assert_eq!(warnings.len(), 1, "got: {warnings:?}");
        assert!(warnings[0].contains("lost every copy"), "got: {warnings:?}");
        // Malformed sections are schema violations, not warnings.
        let bad = healthy.replace(r#""enabled": true"#, r#""enabled": 1"#);
        assert!(validate_report(&bad).unwrap_err().contains("enabled"));
        let missing_key = healthy.replace(r#""routing_epoch": 2,"#, "");
        assert!(validate_report(&missing_key).unwrap_err().contains("routing_epoch"));
    }

    #[test]
    fn validate_report_checks_incidents_section() {
        // Absent: fine (additive). Present and well-formed: fine.
        let base = v4_report(FULL_TRAFFIC, CLEAN_SPANS, ZERO_CP, "[]");
        assert!(validate_report(&base).unwrap().is_empty());
        let with = base.replace(
            r#""queries": []"#,
            r#""queries": [], "incidents": [{"id": "incident-000001-stall",
                "trigger": "stall", "query_id": 0, "at_ns": 12345,
                "path": "/tmp/i/incident-000001-stall.json"}]"#,
        );
        assert!(validate_report(&with).unwrap().is_empty());
        // Unknown trigger class and missing id are schema violations.
        let bad_trigger = with.replace(r#""trigger": "stall""#, r#""trigger": "gremlins""#);
        assert!(validate_report(&bad_trigger).unwrap_err().contains("unknown trigger"));
        let no_id = with.replace(r#""id": "incident-000001-stall","#, "");
        assert!(validate_report(&no_id).unwrap_err().contains("id"));
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
