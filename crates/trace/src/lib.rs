//! `ptmap-trace`: std-only hierarchical tracing for PT-Map compiles.
//!
//! The pipeline's [`Recorder`](../ptmap_pipeline/metrics) keeps flat
//! name→(sum, count) aggregates; that tells you *how much* time a stage
//! took across a batch, but not *where* one slow compile spent it. This
//! crate records a per-compile **span tree**:
//!
//! * a [`Tracer`] owns one trace (trace ID, monotonic epoch, span
//!   storage) and hands out RAII [`Span`] guards;
//! * spans nest — a `Span` created from another span's
//!   [`Span::tracer`] becomes its child — and carry typed
//!   `key=value` [`AttrValue`] attributes plus point-in-time
//!   [`EventRecord`] annotations (governor deadline hits, degraded
//!   retries, cache hits);
//! * dropping a `Span` stamps its end time, even during a panic
//!   unwind, so partial traces from failed compiles stay well-formed;
//! * [`Tracer::finish`] snapshots the tree into a serializable
//!   [`Trace`], and [`chrome_trace_json`] renders it as Chrome
//!   trace-event JSON loadable in `chrome://tracing` or Perfetto.
//!
//! **Disabled is free-ish**: [`Tracer::disabled`] carries no
//! allocation, and every operation on it (span creation, attributes,
//! events) is a branch on an `Option` — the same pattern the governor
//! uses for `Budget::unlimited`. Hot mapper loops therefore call the
//! traced entry points unconditionally.
//!
//! Trace IDs are deterministic: an FNV-1a hash of the root span name
//! mixed with a process-global counter, formatted as 16 hex digits.
//! No wall-clock or RNG is consulted, which keeps `--trace-dir` output
//! reproducible enough for CI to assert on and keeps this crate out of
//! the mapper's determinism budget.
//!
//! Head-based sampling lives here too: [`SamplePolicy::keep`] decides
//! from the trace ID hash (stable across processes) whether a finished
//! trace is exported, with a slow-compile threshold that force-keeps
//! outliers regardless of the sample fraction.
//!
//! [`prom`] is the workspace's one writer of the Prometheus text
//! exposition format, with its one bucketed [`prom::Histogram`].

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

mod chrome;
pub mod obs;
pub mod prom;
mod stitch;

pub use chrome::chrome_trace_json;
pub use stitch::{stitch, FORWARD_SPAN, WINNER_ATTR};

/// Locks a mutex, recovering from poisoning. The workspace's shared
/// state (trace span vectors, the recorder and report cache, the
/// daemon's maps, the learner's queues) outlives any one compile or
/// request, so a panicking one (isolated by `catch_unwind`) must not
/// wedge it. Every guarded value is valid after an interrupted
/// mutation, since pushes, inserts and counter bumps are atomic from
/// the structure's point of view, so continuing past the poison marker
/// is safe.
pub fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A typed attribute value attached to a span or event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AttrValue {
    Bool(bool),
    Int(i64),
    UInt(u64),
    Float(f64),
    Str(String),
}

impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}
impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::UInt(v)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::UInt(v as u64)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

/// Event names of the online-learning lifecycle (`ptmap-learn`).
///
/// The trainer runs as a governor-budgeted background loop, and its
/// state machine — accumulate samples, fine-tune a candidate, shadow
/// it against the serving model, promote or reject — is recorded as
/// events on the learn tracer's root span, next to the governor's own
/// `deadline_hit` / `cancelled` events. Shared constants so the engine
/// and the tests asserting on the trace agree on spelling.
pub mod learn_events {
    /// A fine-tuning round started (attrs: `samples`, `from_version`).
    pub const TRAIN_START: &str = "learn_train_start";
    /// A fine-tuning round finished and produced a candidate.
    pub const TRAIN_DONE: &str = "learn_train_done";
    /// A candidate entered shadow evaluation (attr: `window`).
    pub const SHADOW_START: &str = "learn_shadow_start";
    /// The shadow window closed and the candidate won; the serving
    /// model was hot-swapped (attrs: `version`, MAPE pair).
    pub const PROMOTE: &str = "learn_promote";
    /// The shadow window closed and the candidate lost; it was
    /// discarded and the serving model kept (attrs: MAPE pair).
    pub const REJECT: &str = "learn_reject";
}

/// A point-in-time annotation inside a span.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventRecord {
    pub name: String,
    /// Nanoseconds since the trace epoch.
    pub at_ns: u64,
    pub attrs: Vec<(String, AttrValue)>,
}

/// One recorded span. `id` is the span's index in [`Trace::spans`];
/// `parent` is `None` for the root.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: String,
    /// Nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Nanoseconds since the trace epoch; `u64::MAX` while the span
    /// is open (a span that never closed before the snapshot exports
    /// with the trace's wall time instead).
    pub end_ns: u64,
    pub attrs: Vec<(String, AttrValue)>,
    pub events: Vec<EventRecord>,
}

impl SpanRecord {
    /// End timestamp for export: an unclosed span (recorded `end_ns`
    /// predates `start_ns`, i.e. the guard never dropped before the
    /// snapshot) is clamped to the trace wall time.
    pub fn end_ns_or(&self, wall_ns: u64) -> u64 {
        if self.end_ns == u64::MAX || self.end_ns < self.start_ns {
            wall_ns.max(self.start_ns)
        } else {
            self.end_ns
        }
    }
}

/// A finished, serializable span tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    pub trace_id: String,
    /// Root name (the job name for pipeline compiles).
    pub name: String,
    /// Total nanoseconds from trace creation to [`Tracer::finish`].
    pub wall_ns: u64,
    pub spans: Vec<SpanRecord>,
}

impl Trace {
    pub fn wall_seconds(&self) -> f64 {
        self.wall_ns as f64 / 1e9
    }

    /// Spans with the given name, in creation order.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRecord> {
        self.spans.iter().filter(move |s| s.name == name)
    }
}

struct Inner {
    trace_id: String,
    name: String,
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Inner {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Handle into one trace, scoped to a parent span.
///
/// Cloning is cheap (an `Arc` bump); a clone records into the same
/// trace under the same parent. [`Tracer::disabled`] is the no-op
/// handle threaded through untraced call paths.
#[derive(Clone)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
    parent: Option<u32>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Tracer(disabled)"),
            Some(i) => write!(f, "Tracer({}, parent={:?})", i.trace_id, self.parent),
        }
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

static TRACE_SEQ: AtomicU64 = AtomicU64::new(1);

/// The workspace's 64-bit hash: FNV-1a over `bytes`, finalized with a
/// splitmix64 round. Stable across processes and platforms. Raw FNV-1a
/// is badly distributed in its high bits for short, similar inputs
/// (`peer#1`, `peer#2`, sequential hex trace IDs); the finalizer spreads
/// them over all 64 bits, so ring points, jitter, and sampling decisions
/// can use any slice of the result.
pub fn hash64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Deterministic trace ID: [`hash64`] of `name` mixed with a
/// process-wide sequence counter, as 16 lowercase hex digits. No clock,
/// no RNG.
pub fn next_trace_id(name: &str) -> String {
    let seq = TRACE_SEQ.fetch_add(1, Ordering::Relaxed);
    format!(
        "{:016x}",
        hash64(name.as_bytes()) ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    )
}

impl Tracer {
    /// A handle that records nothing; every operation is a no-op.
    pub fn disabled() -> Self {
        Tracer {
            inner: None,
            parent: None,
        }
    }

    /// Starts a new trace with a generated deterministic trace ID.
    pub fn root(name: &str) -> Self {
        Self::root_with_id(name, next_trace_id(name))
    }

    /// Starts a new trace under a caller-supplied trace ID (e.g. an
    /// `X-Ptmap-Trace-Id` request header).
    pub fn root_with_id(name: &str, trace_id: impl Into<String>) -> Self {
        Tracer {
            inner: Some(Arc::new(Inner {
                trace_id: trace_id.into(),
                name: name.to_string(),
                epoch: Instant::now(),
                spans: Mutex::new(Vec::new()),
            })),
            parent: None,
        }
    }

    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    pub fn trace_id(&self) -> Option<&str> {
        self.inner.as_deref().map(|i| i.trace_id.as_str())
    }

    /// Opens a span as a child of this handle's scope. The returned
    /// guard stamps the end time on drop (panic-safe).
    pub fn span(&self, name: &str) -> Span {
        let Some(inner) = &self.inner else {
            return Span {
                tracer: Tracer::disabled(),
            };
        };
        let now = inner.now_ns();
        let mut spans = lock_unpoisoned(&inner.spans);
        let id = spans.len() as u32;
        spans.push(SpanRecord {
            id,
            parent: self.parent,
            name: name.to_string(),
            start_ns: now,
            end_ns: u64::MAX,
            attrs: Vec::new(),
            events: Vec::new(),
        });
        drop(spans);
        Span {
            tracer: Tracer {
                inner: Some(Arc::clone(inner)),
                parent: Some(id),
            },
        }
    }

    /// Records an event on the span this handle is scoped to (no-op at
    /// trace root or when disabled).
    pub fn event(&self, name: &str) {
        self.event_with(name, &mut std::iter::empty());
    }

    fn event_with(&self, name: &str, attrs: &mut dyn Iterator<Item = (String, AttrValue)>) {
        let (Some(inner), Some(parent)) = (&self.inner, self.parent) else {
            return;
        };
        let now = inner.now_ns();
        let mut spans = lock_unpoisoned(&inner.spans);
        if let Some(rec) = spans.get_mut(parent as usize) {
            rec.events.push(EventRecord {
                name: name.to_string(),
                at_ns: now,
                attrs: attrs.collect(),
            });
        }
    }

    /// Snapshots the trace. Returns `None` on a disabled handle.
    /// Spans still open at this point export with the wall time as
    /// their end (see [`SpanRecord::end_ns_or`]).
    pub fn finish(&self) -> Option<Trace> {
        let inner = self.inner.as_deref()?;
        let wall_ns = inner.now_ns();
        let spans = lock_unpoisoned(&inner.spans).clone();
        Some(Trace {
            trace_id: inner.trace_id.clone(),
            name: inner.name.clone(),
            wall_ns,
            spans,
        })
    }
}

/// RAII span guard. Create children via [`Span::tracer`]; attach
/// attributes and events through the setter methods. The end
/// timestamp is recorded on drop — including drops during a panic
/// unwind, so a failed compile still produces a balanced tree.
#[derive(Debug)]
pub struct Span {
    tracer: Tracer,
}

impl Span {
    /// Handle scoped to this span: children created from it (or
    /// events recorded on it) nest under this span.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    pub fn enabled(&self) -> bool {
        self.tracer.enabled()
    }

    fn with_record<R>(&self, f: impl FnOnce(&mut SpanRecord) -> R) -> Option<R> {
        let inner = self.tracer.inner.as_deref()?;
        let id = self.tracer.parent?;
        let mut spans = lock_unpoisoned(&inner.spans);
        spans.get_mut(id as usize).map(f)
    }

    pub fn attr(&self, key: &str, value: impl Into<AttrValue>) {
        let value = value.into();
        self.with_record(|rec| rec.attrs.push((key.to_string(), value)));
    }

    pub fn event(&self, name: &str) {
        self.tracer.event(name);
    }

    pub fn event_attr(&self, name: &str, key: &str, value: impl Into<AttrValue>) {
        let mut attrs = std::iter::once((key.to_string(), value.into()));
        self.tracer.event_with(name, &mut attrs);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.tracer.inner.as_deref() {
            let now = inner.now_ns();
            if let Some(id) = self.tracer.parent {
                let mut spans = lock_unpoisoned(&inner.spans);
                if let Some(rec) = spans.get_mut(id as usize) {
                    rec.end_ns = now;
                }
            }
        }
    }
}

/// Head-based sampling with a slow-compile escape hatch.
///
/// The keep/drop decision hashes the trace ID (so it is stable for a
/// given ID across processes and restarts) and compares against the
/// sample fraction; traces at least `slow_ms` long are kept
/// regardless, so the outliers worth debugging always survive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplePolicy {
    /// Fraction of traces to keep, in `[0.0, 1.0]`.
    pub sample: f64,
    /// Wall-time threshold that force-keeps a trace.
    pub slow_ms: Option<u64>,
}

impl Default for SamplePolicy {
    fn default() -> Self {
        SamplePolicy {
            sample: 1.0,
            slow_ms: None,
        }
    }
}

impl SamplePolicy {
    /// Head decision from the trace ID alone.
    pub fn sampled(&self, trace_id: &str) -> bool {
        if self.sample >= 1.0 {
            return true;
        }
        if self.sample <= 0.0 {
            return false;
        }
        // Uniform in [0, 1) from the top 53 bits of the hash.
        let unit = (hash64(trace_id.as_bytes()) >> 11) as f64 / (1u64 << 53) as f64;
        unit < self.sample
    }

    /// Final keep decision for a finished trace.
    pub fn keep(&self, trace_id: &str, wall: Duration) -> bool {
        if self.sampled(trace_id) {
            return true;
        }
        match self.slow_ms {
            Some(ms) => wall >= Duration::from_millis(ms),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        assert_eq!(t.trace_id(), None);
        let s = t.span("x");
        s.attr("k", 1u64);
        s.event("e");
        drop(s);
        assert!(t.finish().is_none());
    }

    #[test]
    fn spans_nest_and_close() {
        let t = Tracer::root("job");
        {
            let a = t.span("explore");
            a.attr("candidates", 12u64);
            {
                let b = a.tracer().span("evaluate");
                b.event("pruned");
            }
            a.event_attr("note", "k", "v");
        }
        let trace = t.finish().unwrap();
        assert_eq!(trace.name, "job");
        assert_eq!(trace.spans.len(), 2);
        let a = &trace.spans[0];
        let b = &trace.spans[1];
        assert_eq!(a.name, "explore");
        assert_eq!(a.parent, None);
        assert_eq!(b.name, "evaluate");
        assert_eq!(b.parent, Some(a.id));
        assert!(a.end_ns >= a.start_ns);
        assert!(b.end_ns >= b.start_ns);
        assert!(b.start_ns >= a.start_ns);
        assert_eq!(
            a.attrs,
            vec![("candidates".to_string(), AttrValue::UInt(12))]
        );
        assert_eq!(a.events.len(), 1);
        assert_eq!(b.events.len(), 1);
        assert_eq!(b.events[0].name, "pruned");
    }

    #[test]
    fn span_end_recorded_during_panic_unwind() {
        let t = Tracer::root("job");
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _s = t.span("doomed");
            panic!("boom");
        }));
        assert!(err.is_err());
        let trace = t.finish().unwrap();
        assert_eq!(trace.spans.len(), 1);
        // The guard dropped during unwind, so the span closed.
        assert!(trace.spans[0].end_ns >= trace.spans[0].start_ns);
    }

    #[test]
    fn unclosed_span_clamps_to_wall() {
        let t = Tracer::root("job");
        let s = t.span("open");
        let trace = t.finish().unwrap();
        drop(s);
        let rec = &trace.spans[0];
        assert_eq!(rec.end_ns, u64::MAX);
        assert!(rec.end_ns_or(trace.wall_ns) >= rec.start_ns);
        assert_ne!(rec.end_ns_or(trace.wall_ns), u64::MAX);
    }

    #[test]
    fn trace_ids_are_unique_and_hex() {
        let a = next_trace_id("x");
        let b = next_trace_id("x");
        assert_ne!(a, b);
        for id in [&a, &b] {
            assert_eq!(id.len(), 16);
            assert!(id.chars().all(|c| c.is_ascii_hexdigit()));
        }
    }

    #[test]
    fn explicit_trace_id_round_trips() {
        let t = Tracer::root_with_id("job", "deadbeef00000001");
        assert_eq!(t.trace_id(), Some("deadbeef00000001"));
        let trace = t.finish().unwrap();
        assert_eq!(trace.trace_id, "deadbeef00000001");
    }

    #[test]
    fn sampling_is_deterministic_and_bounded() {
        let policy = SamplePolicy {
            sample: 0.5,
            slow_ms: None,
        };
        let ids: Vec<String> = (0..200).map(|i| format!("{i:016x}")).collect();
        let kept: Vec<bool> = ids.iter().map(|id| policy.sampled(id)).collect();
        let again: Vec<bool> = ids.iter().map(|id| policy.sampled(id)).collect();
        assert_eq!(kept, again);
        let n = kept.iter().filter(|&&k| k).count();
        assert!(n > 50 && n < 150, "sample=0.5 kept {n}/200");
        assert!(SamplePolicy::default().sampled("anything"));
        let none = SamplePolicy {
            sample: 0.0,
            slow_ms: None,
        };
        assert!(!none.sampled("anything"));
    }

    #[test]
    fn slow_traces_are_force_kept() {
        let policy = SamplePolicy {
            sample: 0.0,
            slow_ms: Some(100),
        };
        assert!(!policy.keep("id", Duration::from_millis(10)));
        assert!(policy.keep("id", Duration::from_millis(100)));
        assert!(policy.keep("id", Duration::from_secs(5)));
    }

    #[test]
    fn trace_serde_round_trip() {
        let t = Tracer::root_with_id("job", "0000000000000abc");
        {
            let s = t.span("map");
            s.attr("ii", 4u64);
            s.attr("ok", true);
            s.attr("ratio", 0.5f64);
            s.attr("label", "quick");
            s.attr("delta", -1i64);
            s.event("restart");
        }
        let trace = t.finish().unwrap();
        let json = serde_json::to_string(&trace).unwrap();
        let back: Trace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn clone_records_into_same_trace() {
        let t = Tracer::root("job");
        let t2 = t.clone();
        {
            let _a = t.span("a");
        }
        {
            let _b = t2.span("b");
        }
        let trace = t.finish().unwrap();
        assert_eq!(trace.spans.len(), 2);
    }
}
