//! Chrome trace-event JSON export.
//!
//! Renders a [`Trace`] in the [Trace Event Format] consumed by
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev): a
//! `traceEvents` array of duration-begin (`ph:"B"`) / duration-end
//! (`ph:"E"`) pairs emitted by depth-first walk of the span tree, with
//! span events as thread-scoped instants (`ph:"i"`). Timestamps are
//! microseconds from the trace epoch; all events share one pid/tid so
//! the viewer reconstructs nesting purely from B/E balance.
//!
//! Two clamps keep the output well-formed for any input tree:
//!
//! * a span still open at snapshot time ends at the trace wall time
//!   ([`SpanRecord::end_ns_or`](crate::SpanRecord::end_ns_or));
//! * a child is clipped to its parent's interval, so a guard that
//!   outlived its parent (or an unwind-truncated subtree) can never
//!   produce crossing B/E pairs.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::{AttrValue, Trace};
use serde::Value;

const PID: u64 = 1;
const TID: u64 = 1;

fn attr_value(v: &AttrValue) -> Value {
    match v {
        AttrValue::Bool(b) => Value::Bool(*b),
        AttrValue::Int(i) => Value::Int(*i),
        AttrValue::UInt(u) => Value::UInt(*u),
        AttrValue::Float(f) => Value::Float(*f),
        AttrValue::Str(s) => Value::Str(s.clone()),
    }
}

fn args_object(attrs: &[(String, AttrValue)]) -> Value {
    Value::Object(
        attrs
            .iter()
            .map(|(k, v)| (k.clone(), attr_value(v)))
            .collect(),
    )
}

fn ts_us(ns: u64) -> Value {
    Value::Float(ns as f64 / 1000.0)
}

fn event(name: &str, ph: &str, ns: u64, extra: Vec<(String, Value)>) -> Value {
    let mut pairs = vec![
        ("name".to_string(), Value::Str(name.to_string())),
        ("ph".to_string(), Value::Str(ph.to_string())),
        ("ts".to_string(), ts_us(ns)),
        ("pid".to_string(), Value::UInt(PID)),
        ("tid".to_string(), Value::UInt(TID)),
    ];
    pairs.extend(extra);
    Value::Object(pairs)
}

/// Renders a trace as Chrome trace-event JSON (one self-contained
/// document per compile; this is what `ptmap batch --trace-dir` writes
/// to `<job>.trace.json` and `ptmap serve` returns from
/// `GET /jobs/<trace-id>/trace`).
pub fn chrome_trace_json(trace: &Trace) -> String {
    let mut children: Vec<Vec<u32>> = vec![Vec::new(); trace.spans.len()];
    let mut roots: Vec<u32> = Vec::new();
    for span in &trace.spans {
        match span.parent {
            Some(p) => children[p as usize].push(span.id),
            None => roots.push(span.id),
        }
    }

    let mut events: Vec<Value> = vec![
        event(
            "process_name",
            "M",
            0,
            vec![(
                "args".to_string(),
                Value::Object(vec![(
                    "name".to_string(),
                    Value::Str(format!("ptmap {}", trace.name)),
                )]),
            )],
        ),
        event(
            "thread_name",
            "M",
            0,
            vec![(
                "args".to_string(),
                Value::Object(vec![(
                    "name".to_string(),
                    Value::Str("compile".to_string()),
                )]),
            )],
        ),
    ];

    // Iterative DFS: (span id, parent interval). Children are pushed
    // in reverse so they emit in creation (= start) order.
    let wall = trace.wall_ns;
    let mut stack: Vec<(u32, u64, u64, bool)> = Vec::new();
    for &r in roots.iter().rev() {
        stack.push((r, 0, wall, false));
    }
    let mut close: Vec<(String, u64)> = Vec::new();
    while let Some((id, lo, hi, visited)) = stack.pop() {
        let span = &trace.spans[id as usize];
        let start = span.start_ns.clamp(lo, hi);
        let end = span.end_ns_or(wall).clamp(start, hi);
        if visited {
            let (name, end_ns) = close.pop().expect("DFS close stack underflow");
            events.push(event(&name, "E", end_ns, Vec::new()));
            continue;
        }
        events.push(event(
            &span.name,
            "B",
            start,
            vec![("args".to_string(), args_object(&span.attrs))],
        ));
        for ev in &span.events {
            events.push(event(
                &ev.name,
                "i",
                ev.at_ns.clamp(start, end),
                vec![
                    ("s".to_string(), Value::Str("t".to_string())),
                    ("args".to_string(), args_object(&ev.attrs)),
                ],
            ));
        }
        close.push((span.name.clone(), end));
        stack.push((id, lo, hi, true));
        for &c in children[id as usize].iter().rev() {
            stack.push((c, start, end, false));
        }
    }

    let doc = Value::Object(vec![
        ("traceEvents".to_string(), Value::Array(events)),
        ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
        (
            "otherData".to_string(),
            Value::Object(vec![
                ("trace_id".to_string(), Value::Str(trace.trace_id.clone())),
                ("name".to_string(), Value::Str(trace.name.clone())),
                ("wall_ns".to_string(), Value::UInt(trace.wall_ns)),
            ]),
        ),
    ]);
    serde_json::to_string(&doc).expect("chrome trace rendering is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tracer;

    fn parse(json: &str) -> Value {
        serde_json::from_str::<Value>(json).expect("trace JSON parses")
    }

    fn trace_events(doc: &Value) -> Vec<Value> {
        doc.get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array")
            .to_vec()
    }

    /// Walks B/E events like a viewer would: every E must match the
    /// name of the innermost open B, and nothing stays open.
    fn assert_balanced(events: &[Value]) {
        let mut open: Vec<String> = Vec::new();
        for ev in events {
            let ph = ev.get("ph").and_then(|v| v.as_str()).expect("ph");
            let name = ev.get("name").and_then(|v| v.as_str()).expect("name");
            match ph {
                "B" => open.push(name.to_string()),
                "E" => {
                    let top = open
                        .pop()
                        .unwrap_or_else(|| panic!("E {name} with no open B"));
                    assert_eq!(top, name, "E closes the innermost B");
                }
                "i" | "M" => {}
                other => panic!("unexpected ph {other:?}"),
            }
        }
        assert!(open.is_empty(), "unclosed B events: {open:?}");
    }

    fn sample_trace() -> crate::Trace {
        let t = Tracer::root_with_id("gemm:24@S4", "00000000000000aa");
        {
            let compile = t.span("compile");
            {
                let explore = compile.tracer().span("explore");
                explore.attr("candidates", 9u64);
            }
            {
                let map = compile.tracer().span("map");
                let ii = map.tracer().span("ii_attempt");
                ii.attr("ii", 3u64);
                ii.event("restart");
            }
            compile.event_attr("degraded_retry", "rung", "quick");
        }
        t.finish().unwrap()
    }

    #[test]
    fn export_is_balanced_and_nested() {
        let json = chrome_trace_json(&sample_trace());
        let doc = parse(&json);
        let events = trace_events(&doc);
        assert_balanced(&events);
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("B"))
            .map(|e| e.get("name").and_then(|v| v.as_str()).unwrap())
            .collect();
        assert_eq!(names, vec!["compile", "explore", "map", "ii_attempt"]);
        // Instants emit grouped under their owning span's B record
        // (viewers re-sort by ts), so assert membership, not order.
        let mut instants: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("i"))
            .map(|e| e.get("name").and_then(|v| v.as_str()).unwrap())
            .collect();
        instants.sort_unstable();
        assert_eq!(instants, vec!["degraded_retry", "restart"]);
    }

    #[test]
    fn export_carries_attrs_and_metadata() {
        let json = chrome_trace_json(&sample_trace());
        let doc = parse(&json);
        assert_eq!(
            doc.get("otherData")
                .and_then(|o| o.get("trace_id"))
                .and_then(|v| v.as_str()),
            Some("00000000000000aa")
        );
        let events = trace_events(&doc);
        let ii = events
            .iter()
            .find(|e| e.get("name").and_then(|v| v.as_str()) == Some("ii_attempt"))
            .expect("ii_attempt B event");
        assert_eq!(
            ii.get("args")
                .and_then(|a| a.get("ii"))
                .and_then(|v| v.as_u64()),
            Some(3)
        );
    }

    #[test]
    fn unclosed_spans_still_export_balanced() {
        let t = Tracer::root("job");
        let outer = t.span("compile");
        let _inner = outer.tracer().span("map");
        // Snapshot with both spans still open.
        let trace = t.finish().unwrap();
        let json = chrome_trace_json(&trace);
        assert_balanced(&trace_events(&parse(&json)));
    }

    #[test]
    fn empty_trace_exports() {
        let t = Tracer::root("empty");
        let trace = t.finish().unwrap();
        let doc = parse(&chrome_trace_json(&trace));
        assert_balanced(&trace_events(&doc));
    }
}
