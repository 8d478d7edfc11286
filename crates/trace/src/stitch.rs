//! Cross-process trace stitching.
//!
//! A clustered compile produces two span trees with the same trace ID
//! on two different monotonic clocks: the gateway's (admission, ring
//! lookup, per-attempt `forward` spans) and the daemon's
//! (the `compile` tree the pipeline records). [`stitch`] merges them
//! into one tree the Chrome renderer can draw:
//!
//! * gateway spans keep their IDs and timestamps — the gateway's
//!   epoch is the stitched timeline;
//! * each daemon tree is re-IDed past the gateway's spans and grafted
//!   under the gateway's **anchor** span — the `forward` attempt
//!   marked `winner=true` (falling back to the last `forward`, then
//!   the gateway root) — since that is the interval during which the
//!   daemon was actually working on the request;
//! * daemon timestamps are rebased so the daemon root starts at the
//!   anchor's start and are clamped to the anchor's interval: the two
//!   clocks share no epoch, so relative placement inside the enclosing
//!   forward attempt is the only honest rendering.
//!
//! The result is a single connected tree under the gateway's trace ID;
//! [`chrome_trace_json`](crate::chrome_trace_json) renders it with its
//! usual child-clamping, so stitched output is always B/E balanced.

use crate::{SpanRecord, Trace};

/// Name of the per-attempt forwarding span the gateway records.
pub const FORWARD_SPAN: &str = "forward";
/// Attribute the gateway sets on the forward attempt that produced
/// the response the client saw.
pub const WINNER_ATTR: &str = "winner";

/// Index of the span daemon trees should be grafted under: the
/// winning `forward` attempt, else the last `forward`, else the first
/// root, else `None` (empty gateway trace).
fn anchor_index(spans: &[SpanRecord]) -> Option<usize> {
    let forwards: Vec<usize> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == FORWARD_SPAN)
        .map(|(i, _)| i)
        .collect();
    let winner = forwards.iter().copied().find(|&i| {
        spans[i]
            .attrs
            .iter()
            .any(|(k, v)| k == WINNER_ATTR && *v == crate::AttrValue::Bool(true))
    });
    winner
        .or_else(|| forwards.last().copied())
        .or_else(|| spans.iter().position(|s| s.parent.is_none()))
}

/// Merges daemon span trees into a gateway trace (see module docs).
///
/// Passing an empty `daemons` slice returns a (normalized) copy of
/// the gateway trace. An empty gateway trace gets a synthetic
/// `gateway` root so the result is still one connected tree.
pub fn stitch(gateway: &Trace, daemons: &[Trace]) -> Trace {
    let mut spans: Vec<SpanRecord> = gateway.spans.clone();
    let gateway_wall = gateway.wall_ns;
    // Close anything the gateway left open so grafted subtrees can't
    // outlive a dangling interval.
    for s in &mut spans {
        s.end_ns = s.end_ns_or(gateway_wall);
    }
    if spans.is_empty() {
        spans.push(SpanRecord {
            id: 0,
            parent: None,
            name: "gateway".to_string(),
            start_ns: 0,
            end_ns: gateway_wall,
            attrs: Vec::new(),
            events: Vec::new(),
        });
    }

    let anchor = anchor_index(&spans).expect("stitched trace always has a root");
    let (anchor_id, anchor_start, anchor_end) = {
        let a = &spans[anchor];
        (a.id, a.start_ns, a.end_ns.max(a.start_ns))
    };

    let mut wall_ns = gateway_wall;
    for daemon in daemons {
        let offset = spans.len() as u32;
        let Some(droot) = daemon.spans.iter().find(|s| s.parent.is_none()) else {
            continue;
        };
        let dbase = droot.start_ns;
        // Rebase a daemon timestamp onto the gateway timeline: the
        // daemon root lands at the anchor's start, everything else
        // keeps its distance from that root, clipped to the anchor.
        let rebase = |t: u64| -> u64 {
            anchor_start
                .saturating_add(t.saturating_sub(dbase))
                .clamp(anchor_start, anchor_end)
        };
        for span in &daemon.spans {
            let mut copy = span.clone();
            copy.id = span.id + offset;
            copy.parent = match span.parent {
                Some(p) => Some(p + offset),
                None => Some(anchor_id),
            };
            copy.start_ns = rebase(span.start_ns);
            copy.end_ns = rebase(span.end_ns_or(daemon.wall_ns));
            for ev in &mut copy.events {
                ev.at_ns = rebase(ev.at_ns);
            }
            wall_ns = wall_ns.max(copy.end_ns);
            spans.push(copy);
        }
    }

    Trace {
        trace_id: gateway.trace_id.clone(),
        name: gateway.name.clone(),
        wall_ns,
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{chrome_trace_json, AttrValue, Tracer};
    use proptest::prelude::*;
    use serde::Value;

    /// Builds a gateway-shaped trace: root > admission + N forward
    /// attempts, optionally marking one the winner.
    fn gateway_trace(attempts: usize, winner: Option<usize>) -> Trace {
        let t = Tracer::root_with_id("gateway", "00000000000000aa");
        {
            let root = t.span("gateway");
            {
                let adm = root.tracer().span("admission");
                adm.attr("key", "job");
            }
            for i in 0..attempts {
                let fwd = root.tracer().span(FORWARD_SPAN);
                fwd.attr("attempt", i as u64);
                if winner == Some(i) {
                    fwd.attr(WINNER_ATTR, true);
                }
            }
        }
        t.finish().unwrap()
    }

    /// Builds a daemon-shaped trace: compile > map > ii_attempt,
    /// with `depth` extra nested levels under map.
    fn daemon_trace(depth: usize) -> Trace {
        let t = Tracer::root_with_id("job", "00000000000000aa");
        {
            let compile = t.span("compile");
            compile.attr("ok", true);
            let map = compile.tracer().span("map");
            let mut scope = map.tracer().clone();
            let mut guards = Vec::new();
            for _ in 0..depth {
                let s = scope.span("ii_attempt");
                scope = s.tracer().clone();
                guards.push(s);
            }
            drop(guards);
        }
        t.finish().unwrap()
    }

    /// Structural invariants: ids are vec indices, exactly one root,
    /// every parent exists at a lower index.
    fn assert_connected_tree(trace: &Trace) {
        let mut roots = 0;
        for (i, s) in trace.spans.iter().enumerate() {
            assert_eq!(s.id as usize, i, "span id matches its index");
            match s.parent {
                None => roots += 1,
                Some(p) => assert!((p as usize) < i, "parent {p} precedes span {i}"),
            }
            assert!(s.start_ns <= s.end_ns, "span {i} interval is ordered");
        }
        assert_eq!(roots, 1, "stitched trace has exactly one root");
    }

    fn assert_chrome_balanced(trace: &Trace) {
        let doc = serde_json::from_str::<Value>(&chrome_trace_json(trace)).unwrap();
        let events = doc.get("traceEvents").and_then(|v| v.as_array()).unwrap();
        let mut open: Vec<String> = Vec::new();
        for ev in events {
            let ph = ev.get("ph").and_then(|v| v.as_str()).unwrap();
            let name = ev.get("name").and_then(|v| v.as_str()).unwrap();
            match ph {
                "B" => open.push(name.to_string()),
                "E" => assert_eq!(open.pop().as_deref(), Some(name), "E closes innermost B"),
                _ => {}
            }
        }
        assert!(open.is_empty(), "unclosed spans: {open:?}");
    }

    #[test]
    fn daemon_tree_grafts_under_winning_forward() {
        let gw = gateway_trace(3, Some(1));
        let stitched = stitch(&gw, &[daemon_trace(2)]);
        assert_connected_tree(&stitched);
        assert_eq!(stitched.trace_id, "00000000000000aa");

        let winner = stitched
            .spans_named(FORWARD_SPAN)
            .find(|s| {
                s.attrs
                    .iter()
                    .any(|(k, v)| k == WINNER_ATTR && *v == AttrValue::Bool(true))
            })
            .expect("winner forward span survives stitching");
        let compile = stitched
            .spans_named("compile")
            .next()
            .expect("daemon compile root present");
        assert_eq!(compile.parent, Some(winner.id));
        assert!(compile.start_ns >= winner.start_ns);
        assert!(compile.end_ns <= winner.end_ns.max(winner.start_ns));
        assert_chrome_balanced(&stitched);
    }

    #[test]
    fn no_winner_falls_back_to_last_forward_then_root() {
        let gw = gateway_trace(2, None);
        let stitched = stitch(&gw, &[daemon_trace(0)]);
        let last_forward = stitched.spans_named(FORWARD_SPAN).last().unwrap().id;
        let compile = stitched.spans_named("compile").next().unwrap();
        assert_eq!(compile.parent, Some(last_forward));

        let gw = gateway_trace(0, None);
        let stitched = stitch(&gw, &[daemon_trace(0)]);
        let root = stitched.spans.iter().find(|s| s.parent.is_none()).unwrap();
        let compile = stitched.spans_named("compile").next().unwrap();
        assert_eq!(compile.parent, Some(root.id));
        assert_connected_tree(&stitched);
    }

    #[test]
    fn empty_inputs_stay_well_formed() {
        let gw = gateway_trace(1, Some(0));
        let alone = stitch(&gw, &[]);
        assert_connected_tree(&alone);
        assert_eq!(alone.spans.len(), gw.spans.len());

        let empty = Tracer::root_with_id("gateway", "bb").finish().unwrap();
        let stitched = stitch(&empty, &[daemon_trace(1)]);
        assert_connected_tree(&stitched);
        assert!(stitched.spans_named("compile").next().is_some());
        assert_chrome_balanced(&stitched);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Any mix of gateway attempts, winner position, daemon count
        /// and nesting depth stitches to one connected tree whose
        /// Chrome rendering is B/E balanced, with every daemon compile
        /// root enclosed by the anchor forward span.
        #[test]
        fn stitched_cluster_trace_is_one_connected_tree(
            attempts in 0usize..4,
            pick_winner in any::<bool>(),
            daemons in 0usize..3,
            depth in 0usize..4,
        ) {
            let winner = if pick_winner && attempts > 0 {
                Some(attempts - 1)
            } else {
                None
            };
            let gw = gateway_trace(attempts, winner);
            let dtraces: Vec<Trace> = (0..daemons).map(|_| daemon_trace(depth)).collect();
            let stitched = stitch(&gw, &dtraces);

            assert_connected_tree(&stitched);
            assert_chrome_balanced(&stitched);
            prop_assert_eq!(
                stitched.spans_named("compile").count(),
                daemons,
                "every daemon root survives"
            );
            if attempts > 0 {
                let anchor = stitched.spans_named(FORWARD_SPAN).last().unwrap();
                for compile in stitched.spans_named("compile") {
                    prop_assert_eq!(compile.parent, Some(anchor.id));
                    prop_assert!(compile.start_ns >= anchor.start_ns);
                    prop_assert!(compile.end_ns <= anchor.end_ns.max(anchor.start_ns));
                }
            }
        }
    }
}
