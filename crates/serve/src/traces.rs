//! Ring-buffered in-memory trace store behind
//! `GET /jobs/<trace-id>/trace`.
//!
//! Every leader compile that the sampling policy keeps (plus every
//! compile whose client supplied an `X-Ptmap-Trace-Id`, and every
//! compile slower than the slow-compile threshold) deposits its span
//! tree here, both as the raw [`Trace`] and as rendered Chrome
//! trace-event JSON. The raw tree is what the gateway fetches (via
//! `GET /jobs/<trace-id>/trace?format=raw`) to stitch a cluster-wide trace;
//! the rendered document serves direct viewer requests. The store is
//! a bounded FIFO: a long-lived daemon holds at most
//! [`TRACE_RETENTION`] traces and evicts the oldest, so memory stays
//! bounded no matter the request rate — the store is a flight
//! recorder, not an archive.
//!
//! Lookup is by trace id (the value round-tripped in the
//! `X-Ptmap-Trace-Id` response header).

use crate::lock_unpoisoned;
use ptmap_trace::{chrome_trace_json, Trace};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// How many traces the ring buffer retains before evicting the oldest.
pub const TRACE_RETENTION: usize = 256;

/// One retained trace: the id, the compile's display name, the raw
/// span tree, and the fully rendered Chrome trace-event JSON document.
/// Both payloads sit behind `Arc`s so handing them to a response (or
/// the stitcher) never copies under the store lock.
#[derive(Debug, Clone)]
pub struct StoredTrace {
    /// The trace id (`X-Ptmap-Trace-Id`).
    pub trace_id: String,
    /// The compile's display name (job name).
    pub name: String,
    /// The raw span tree, for stitching.
    pub raw: Arc<Trace>,
    /// Rendered Chrome trace-event JSON.
    pub chrome_json: Arc<String>,
}

/// The bounded FIFO of retained traces.
#[derive(Debug, Default)]
pub struct TraceStore {
    inner: Mutex<VecDeque<StoredTrace>>,
    cap: usize,
}

impl TraceStore {
    /// A store retaining at most [`TRACE_RETENTION`] traces.
    pub fn new() -> TraceStore {
        TraceStore::with_capacity(TRACE_RETENTION)
    }

    /// A store with an explicit retention bound (tests).
    pub fn with_capacity(cap: usize) -> TraceStore {
        TraceStore {
            inner: Mutex::new(VecDeque::new()),
            cap: cap.max(1),
        }
    }

    /// Renders and inserts a finished trace, evicting the oldest
    /// beyond capacity. Re-inserting an id (a client replaying its
    /// own trace id) replaces the older entry rather than
    /// duplicating it.
    pub fn insert(&self, trace: Trace) {
        let chrome_json = chrome_trace_json(&trace);
        let mut inner = lock_unpoisoned(&self.inner);
        inner.retain(|t| t.trace_id != trace.trace_id);
        inner.push_back(StoredTrace {
            trace_id: trace.trace_id.clone(),
            name: trace.name.clone(),
            raw: Arc::new(trace),
            chrome_json: Arc::new(chrome_json),
        });
        while inner.len() > self.cap {
            inner.pop_front();
        }
    }

    /// Looks up a trace by its id.
    pub fn by_trace_id(&self, trace_id: &str) -> Option<StoredTrace> {
        lock_unpoisoned(&self.inner)
            .iter()
            .rev()
            .find(|t| t.trace_id == trace_id)
            .cloned()
    }

    /// Traces currently retained.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.inner).len()
    }

    /// Whether the store holds no traces.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptmap_trace::Tracer;

    fn trace(id: &str, name: &str) -> Trace {
        let t = Tracer::root_with_id(name, id);
        {
            let _root = t.span("compile");
        }
        t.finish().unwrap()
    }

    #[test]
    fn insert_and_lookup() {
        let s = TraceStore::new();
        assert!(s.is_empty());
        s.insert(trace("aa11", "gemm:16@S4"));
        let t = s.by_trace_id("aa11").expect("stored");
        assert_eq!(t.name, "gemm:16@S4");
        assert!(t.chrome_json.contains("traceEvents"));
        assert_eq!(t.raw.trace_id, "aa11");
        assert_eq!(t.raw.spans.len(), 1);
        assert!(s.by_trace_id("missing").is_none());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn ring_evicts_oldest() {
        let s = TraceStore::with_capacity(3);
        for i in 0..5 {
            s.insert(trace(&format!("id{i}"), &format!("job{i}")));
        }
        assert_eq!(s.len(), 3);
        assert!(s.by_trace_id("id0").is_none(), "oldest evicted");
        assert!(s.by_trace_id("id1").is_none());
        assert!(s.by_trace_id("id2").is_some());
        assert!(s.by_trace_id("id4").is_some());
    }

    #[test]
    fn reinsert_replaces_not_duplicates() {
        let s = TraceStore::with_capacity(4);
        s.insert(trace("same", "first"));
        s.insert(trace("same", "second"));
        assert_eq!(s.len(), 1);
        assert_eq!(s.by_trace_id("same").unwrap().name, "second");
    }
}
