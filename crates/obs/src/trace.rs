//! Chrome trace-event JSON exporter (`chrome://tracing` / Perfetto).

use crate::span::{Span, SpanKind, NO_PART};
use serde::Value;

/// Renders `spans` as a Chrome trace-event JSON document.
///
/// Each part becomes a process (`pid`), each span-kind lane a thread
/// (`tid`), so chunks, bucket rounds, and fetches land on distinct
/// tracks. Intervals emit `ph:"X"` complete events; zero-duration spans
/// emit `ph:"i"` thread-scoped instants. Spans sharing a nonzero causal
/// link additionally emit a flow (`ph:"s"`/`"t"`/`"f"` with `id` =
/// link), so Perfetto draws arrows from each fetch issue through the
/// responder that served it to the wait that consumed the reply. Spans
/// are sorted by [`Span::sort_key`] first, so identical recorded data
/// always yields identical bytes.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut sorted: Vec<Span> = spans.to_vec();
    sorted.sort_unstable_by_key(|s| s.sort_key());

    let mut parts: Vec<u32> = sorted.iter().map(|s| s.part).collect();
    parts.sort_unstable();
    parts.dedup();
    let mut lanes: Vec<(u32, u32)> = sorted.iter().map(|s| (s.part, s.kind.lane())).collect();
    lanes.sort_unstable();
    lanes.dedup();

    let mut events = Vec::with_capacity(sorted.len() + parts.len() + lanes.len());
    for &part in &parts {
        let name = if part == NO_PART { "engine".to_string() } else { format!("part {part}") };
        events.push(metadata_event("process_name", part, 0, Value::Str(name)));
    }
    for &(part, lane) in &lanes {
        events.push(metadata_event(
            "thread_name",
            part,
            lane,
            Value::Str(SpanKind::lane_name(lane).to_string()),
        ));
    }
    for s in &sorted {
        events.push(span_event(s));
    }
    flow_events(&sorted, &mut events);

    let doc = Value::Map(vec![("traceEvents".to_string(), Value::Seq(events))]);
    serde_json::to_string(&doc).expect("in-memory serialization")
}

/// Emits one flow per causal link with at least two member spans: a
/// start (`ph:"s"`) anchored at the earliest member, step (`ph:"t"`)
/// arrows through intermediate members, and a finish (`ph:"f"`,
/// `bp:"e"`) anchored at the end of the member that completes last —
/// for a fetch lifecycle, the wait that consumed the reply.
fn flow_events(sorted: &[Span], events: &mut Vec<Value>) {
    let mut linked: Vec<(u64, usize)> =
        sorted.iter().enumerate().filter(|(_, s)| s.link != 0).map(|(i, s)| (s.link, i)).collect();
    linked.sort_unstable();
    let mut at = 0;
    while at < linked.len() {
        let link = linked[at].0;
        let mut end = at;
        while end < linked.len() && linked[end].0 == link {
            end += 1;
        }
        let group = &linked[at..end];
        at = end;
        if group.len() < 2 {
            continue; // An arrow needs two endpoints.
        }
        // Finish anchor: the member whose interval ends last (ties break
        // toward the later sort position, i.e. the wait-side span).
        let finish = group
            .iter()
            .map(|&(_, i)| i)
            .max_by_key(|&i| (sorted[i].start_ns + sorted[i].dur_ns, i))
            .expect("non-empty group");
        let (first, rest) = group.split_first().expect("non-empty group");
        events.push(flow_event(&sorted[first.1], "s", sorted[first.1].start_ns, link));
        for &(_, i) in rest {
            if i == finish {
                continue;
            }
            events.push(flow_event(&sorted[i], "t", sorted[i].start_ns, link));
        }
        if finish != first.1 {
            let f = &sorted[finish];
            events.push(flow_event(f, "f", f.start_ns + f.dur_ns, link));
        } else {
            // Degenerate: the earliest member also ends last. Land the
            // finish on the last member in sort order instead so the
            // flow still pairs up.
            let f = &sorted[group[group.len() - 1].1];
            events.push(flow_event(f, "f", f.start_ns + f.dur_ns, link));
        }
    }
}

fn flow_event(s: &Span, ph: &str, at_ns: u64, link: u64) -> Value {
    let mut fields = vec![
        ("name".to_string(), Value::Str("request".to_string())),
        ("cat".to_string(), Value::Str("khuzdul.flow".to_string())),
        ("ph".to_string(), Value::Str(ph.to_string())),
        ("id".to_string(), Value::UInt(link)),
        ("ts".to_string(), Value::Float(at_ns as f64 / 1000.0)),
        ("pid".to_string(), Value::UInt(s.part as u64)),
        ("tid".to_string(), Value::UInt(s.kind.lane() as u64)),
    ];
    if ph == "f" {
        // Bind to the enclosing slice's end, per the trace-event spec.
        fields.push(("bp".to_string(), Value::Str("e".to_string())));
    }
    Value::Map(fields)
}

fn metadata_event(name: &str, pid: u32, tid: u32, arg_name: Value) -> Value {
    Value::Map(vec![
        ("name".to_string(), Value::Str(name.to_string())),
        ("ph".to_string(), Value::Str("M".to_string())),
        ("pid".to_string(), Value::UInt(pid as u64)),
        ("tid".to_string(), Value::UInt(tid as u64)),
        ("args".to_string(), Value::Map(vec![("name".to_string(), arg_name)])),
    ])
}

fn span_event(s: &Span) -> Value {
    let mut fields = vec![
        ("name".to_string(), Value::Str(s.kind.name().to_string())),
        ("cat".to_string(), Value::Str("khuzdul".to_string())),
    ];
    let ts_us = s.start_ns as f64 / 1000.0;
    if s.dur_ns == 0 {
        fields.push(("ph".to_string(), Value::Str("i".to_string())));
        fields.push(("s".to_string(), Value::Str("t".to_string())));
        fields.push(("ts".to_string(), Value::Float(ts_us)));
    } else {
        fields.push(("ph".to_string(), Value::Str("X".to_string())));
        fields.push(("ts".to_string(), Value::Float(ts_us)));
        fields.push(("dur".to_string(), Value::Float(s.dur_ns as f64 / 1000.0)));
    }
    fields.push(("pid".to_string(), Value::UInt(s.part as u64)));
    fields.push(("tid".to_string(), Value::UInt(s.kind.lane() as u64)));
    let mut args = vec![("arg".to_string(), Value::UInt(s.arg))];
    if s.link != 0 {
        args.push(("link".to_string(), Value::UInt(s.link)));
    }
    fields.push(("args".to_string(), Value::Map(args)));
    Value::Map(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, part: u32, start_ns: u64, dur_ns: u64, arg: u64, link: u64) -> Span {
        Span { kind, part, start_ns, dur_ns, arg, link, query: 0 }
    }

    fn sample_spans() -> Vec<Span> {
        vec![
            span(SpanKind::Extend, 0, 1000, 5000, 12, 0),
            span(SpanKind::BucketRound, 0, 2000, 1500, 1, 0),
            span(SpanKind::Fetch, 1, 2500, 800, 0, 0),
            span(SpanKind::Retry, 1, 3000, 0, 2, 0),
        ]
    }

    fn linked_spans() -> Vec<Span> {
        vec![
            span(SpanKind::FetchIssue, 0, 100, 0, 1, 9),
            span(SpanKind::Fetch, 0, 100, 400, 1, 9),
            span(SpanKind::Serve, 1, 200, 100, 64, 9),
            span(SpanKind::BucketRound, 0, 150, 400, 1, 9),
        ]
    }

    #[test]
    fn trace_is_byte_stable_and_order_independent() {
        // Satellite: identical recorded data → identical bytes, even if
        // shards drained in a different order.
        let spans = sample_spans();
        let mut reversed = spans.clone();
        reversed.reverse();
        assert_eq!(chrome_trace(&spans), chrome_trace(&reversed));

        let linked = linked_spans();
        let mut linked_rev = linked.clone();
        linked_rev.reverse();
        assert_eq!(chrome_trace(&linked), chrome_trace(&linked_rev));
    }

    #[test]
    fn trace_validates_and_separates_tracks() {
        let json = chrome_trace(&sample_spans());
        crate::validate_trace(&json).expect("trace must validate");
        // Complete events for intervals, instant for the retry.
        assert!(json.contains(r#""ph":"X""#));
        assert!(json.contains(r#""ph":"i""#));
        assert!(json.contains(r#""s":"t""#));
        // Metadata names the processes and lanes.
        assert!(json.contains("process_name"));
        assert!(json.contains("thread_name"));
        assert!(json.contains("bucket-rounds"));
        // Distinct tracks for chunk work, bucket rounds, fetches.
        assert!(json.contains(r#""name":"extend","cat":"khuzdul","ph":"X""#));
        // Unlinked spans produce no flow events.
        assert!(!json.contains(r#""ph":"s""#));
    }

    #[test]
    fn linked_spans_emit_a_paired_flow() {
        let json = chrome_trace(&linked_spans());
        crate::validate_trace(&json).expect("linked trace must validate");
        // One start, two steps, one finish, all with the link as id.
        assert_eq!(json.matches(r#""ph":"s""#).count(), 1);
        assert_eq!(json.matches(r#""ph":"t""#).count(), 2);
        assert_eq!(json.matches(r#""ph":"f""#).count(), 1);
        assert!(json.contains(r#""cat":"khuzdul.flow""#));
        assert!(json.contains(r#""id":9"#));
        assert!(json.contains(r#""bp":"e""#));
        // Linked span events expose the link in their args.
        assert!(json.contains(r#""arg":64,"link":9"#));
        // The finish lands at the end of the latest-ending member (the
        // bucket-round wait: 150 + 400 = 550ns = 0.55µs).
        assert!(json.contains(r#""ph":"f","id":9,"ts":0.55"#), "got: {json}");
    }

    #[test]
    fn singleton_links_emit_no_flow() {
        let one = vec![span(SpanKind::Fetch, 0, 10, 5, 0, 3)];
        let json = chrome_trace(&one);
        crate::validate_trace(&json).expect("must validate");
        assert!(!json.contains(r#""ph":"s""#));
        assert!(!json.contains(r#""ph":"f""#));
    }

    #[test]
    fn empty_trace_is_valid() {
        let json = chrome_trace(&[]);
        crate::validate_trace(&json).expect("empty trace must validate");
        assert_eq!(json, r#"{"traceEvents":[]}"#);
    }
}
