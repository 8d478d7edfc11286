//! Structured event log and flight recorder.
//!
//! Spans (the rest of this crate) answer *where one request's time
//! went*; this module answers *what the process has been doing lately*.
//! An [`EventLog`] is a leveled, trace-id-correlated event sink with
//! two outputs:
//!
//! * **stderr**, rendered per [`LogFormat`] (`text` for humans, `json`
//!   for log shippers) — this replaces the ad-hoc `eprintln!`s that
//!   used to be scattered through the serve/gateway/pipeline code;
//! * a bounded in-memory **ring buffer** (the flight recorder) that
//!   always keeps the last [`EventLog::capacity`] events as JSON
//!   lines, regardless of the stderr format, so `GET /debug/events`
//!   can replay recent history and a drain or panic can dump it.
//!
//! Events never feed back into compile results: the log is observe-
//! only, so fixed-seed reports stay bit-identical with logging on or
//! off (the same contract the span tracer honours).
//!
//! One log per process is the norm (daemon and gateway are separate
//! processes); [`install`] publishes a log as the process-wide default
//! so library code without a handle — the pipeline's cache warnings,
//! for instance — can reach it via [`logger`]. In-process cluster
//! tests boot several services in one process; each keeps its own
//! `Arc<EventLog>` for `/debug/events`, and the first to install wins
//! the global slot.

use crate::AttrValue;
use serde::Value;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

/// Default flight-recorder depth (events).
pub const DEFAULT_CAPACITY: usize = 256;

/// Event severity, ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Debug = 0,
    Info = 1,
    Warn = 2,
    Error = 3,
}

impl Level {
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Parses `debug|info|warn|error` (case-insensitive).
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" | "warning" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }
}

/// How events are rendered on stderr. The flight recorder always
/// keeps JSON, so `/debug/events` output is format-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogFormat {
    Text,
    Json,
}

impl LogFormat {
    /// Parses `text|json` (case-insensitive).
    pub fn parse(s: &str) -> Option<LogFormat> {
        match s.to_ascii_lowercase().as_str() {
            "text" => Some(LogFormat::Text),
            "json" => Some(LogFormat::Json),
            _ => None,
        }
    }
}

/// A leveled structured-event sink with a bounded flight recorder.
pub struct EventLog {
    component: String,
    level: Level,
    format: LogFormat,
    ring: Mutex<VecDeque<String>>,
    capacity: usize,
    emitted: AtomicU64,
    suppressed: AtomicU64,
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "EventLog({}, level={}, cap={})",
            self.component,
            self.level.as_str(),
            self.capacity
        )
    }
}

fn unix_seconds() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0)
}

fn attr_json(v: &AttrValue) -> Value {
    match v {
        AttrValue::Bool(b) => Value::Bool(*b),
        AttrValue::Int(i) => Value::Int(*i),
        AttrValue::UInt(u) => Value::UInt(*u),
        AttrValue::Float(f) => Value::Float(*f),
        AttrValue::Str(s) => Value::Str(s.clone()),
    }
}

fn attr_text(v: &AttrValue) -> String {
    match v {
        AttrValue::Bool(b) => b.to_string(),
        AttrValue::Int(i) => i.to_string(),
        AttrValue::UInt(u) => u.to_string(),
        AttrValue::Float(f) => format!("{f}"),
        AttrValue::Str(s) => {
            if s.chars().any(|c| c.is_whitespace() || c == '"') {
                format!("{s:?}")
            } else {
                s.clone()
            }
        }
    }
}

impl EventLog {
    pub fn new(component: &str, level: Level, format: LogFormat) -> EventLog {
        EventLog::with_capacity(component, level, format, DEFAULT_CAPACITY)
    }

    pub fn with_capacity(
        component: &str,
        level: Level,
        format: LogFormat,
        capacity: usize,
    ) -> EventLog {
        EventLog {
            component: component.to_string(),
            level,
            format,
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            capacity: capacity.max(1),
            emitted: AtomicU64::new(0),
            suppressed: AtomicU64::new(0),
        }
    }

    pub fn component(&self) -> &str {
        &self.component
    }

    pub fn level(&self) -> Level {
        self.level
    }

    pub fn format(&self) -> LogFormat {
        self.format
    }

    /// Flight-recorder depth.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events that passed the level filter so far.
    pub fn emitted(&self) -> u64 {
        self.emitted.load(Ordering::Relaxed)
    }

    /// Events dropped by the level filter so far.
    pub fn suppressed(&self) -> u64 {
        self.suppressed.load(Ordering::Relaxed)
    }

    /// Records one event: a JSON line into the flight recorder and a
    /// format-dependent line on stderr. `fields` are flat key/values;
    /// `trace_id` correlates the event with a span tree.
    pub fn log(
        &self,
        level: Level,
        event: &str,
        trace_id: Option<&str>,
        msg: &str,
        fields: &[(&str, AttrValue)],
    ) {
        if level < self.level {
            self.suppressed.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.emitted.fetch_add(1, Ordering::Relaxed);
        let ts = unix_seconds();
        let json = self.render_json(ts, level, event, trace_id, msg, fields);
        {
            let mut ring = crate::lock_unpoisoned(&self.ring);
            if ring.len() >= self.capacity {
                ring.pop_front();
            }
            ring.push_back(json.clone());
        }
        match self.format {
            LogFormat::Json => eprintln!("{json}"),
            LogFormat::Text => {
                eprintln!(
                    "{}",
                    self.render_text(ts, level, event, trace_id, msg, fields)
                );
            }
        }
    }

    pub fn debug(&self, event: &str, trace_id: Option<&str>, msg: &str, f: &[(&str, AttrValue)]) {
        self.log(Level::Debug, event, trace_id, msg, f);
    }

    pub fn info(&self, event: &str, trace_id: Option<&str>, msg: &str, f: &[(&str, AttrValue)]) {
        self.log(Level::Info, event, trace_id, msg, f);
    }

    pub fn warn(&self, event: &str, trace_id: Option<&str>, msg: &str, f: &[(&str, AttrValue)]) {
        self.log(Level::Warn, event, trace_id, msg, f);
    }

    pub fn error(&self, event: &str, trace_id: Option<&str>, msg: &str, f: &[(&str, AttrValue)]) {
        self.log(Level::Error, event, trace_id, msg, f);
    }

    fn render_json(
        &self,
        ts: f64,
        level: Level,
        event: &str,
        trace_id: Option<&str>,
        msg: &str,
        fields: &[(&str, AttrValue)],
    ) -> String {
        let mut pairs: Vec<(String, Value)> = vec![
            ("ts".to_string(), Value::Float(ts)),
            ("level".to_string(), Value::Str(level.as_str().to_string())),
            ("component".to_string(), Value::Str(self.component.clone())),
            ("event".to_string(), Value::Str(event.to_string())),
        ];
        if let Some(id) = trace_id {
            pairs.push(("trace_id".to_string(), Value::Str(id.to_string())));
        }
        if !msg.is_empty() {
            pairs.push(("msg".to_string(), Value::Str(msg.to_string())));
        }
        for (k, v) in fields {
            pairs.push((k.to_string(), attr_json(v)));
        }
        serde_json::to_string(&Value::Object(pairs)).expect("event rendering is infallible")
    }

    fn render_text(
        &self,
        ts: f64,
        level: Level,
        event: &str,
        trace_id: Option<&str>,
        msg: &str,
        fields: &[(&str, AttrValue)],
    ) -> String {
        let mut line = format!(
            "[{ts:.3}] {:5} {} {event}",
            level.as_str().to_ascii_uppercase(),
            self.component
        );
        if let Some(id) = trace_id {
            line.push_str(&format!(" trace_id={id}"));
        }
        for (k, v) in fields {
            line.push_str(&format!(" {k}={}", attr_text(v)));
        }
        if !msg.is_empty() {
            line.push_str(": ");
            line.push_str(msg);
        }
        line
    }

    /// The last `n` recorded events as JSON lines, oldest first.
    pub fn recent(&self, n: usize) -> Vec<String> {
        let ring = crate::lock_unpoisoned(&self.ring);
        let skip = ring.len().saturating_sub(n);
        ring.iter().skip(skip).cloned().collect()
    }

    /// Number of events currently buffered.
    pub fn buffered(&self) -> usize {
        crate::lock_unpoisoned(&self.ring).len()
    }

    /// Dumps the flight recorder to stderr (drain, panic, post-mortem).
    pub fn dump_to_stderr(&self, reason: &str) {
        let lines = self.recent(usize::MAX);
        eprintln!(
            "--- flight recorder ({} events, reason: {reason}) ---",
            lines.len()
        );
        for line in lines {
            eprintln!("{line}");
        }
    }
}

static GLOBAL: OnceLock<Arc<EventLog>> = OnceLock::new();

/// Publishes `log` as the process-wide default. The first caller
/// wins; returns whether this call installed it.
pub fn install(log: Arc<EventLog>) -> bool {
    GLOBAL.set(log).is_ok()
}

/// The process-wide log: the installed one, or a lazily created
/// `info`/`text` default so library code can always emit.
pub fn logger() -> Arc<EventLog> {
    GLOBAL
        .get_or_init(|| Arc::new(EventLog::new("ptmap", Level::Info, LogFormat::Text)))
        .clone()
}

/// Chains a panic hook that dumps the flight recorder before the
/// previous hook (the default backtrace printer) runs. Call once from
/// a binary entry point; repeated installs stack harmlessly.
pub fn install_panic_hook() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let log = logger();
        let msg = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| info.payload().downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        let location = info
            .location()
            .map(|l| format!("{}:{}", l.file(), l.line()))
            .unwrap_or_else(|| "unknown".to_string());
        log.error(
            "panic",
            None,
            &msg,
            &[("location", AttrValue::Str(location))],
        );
        log.dump_to_stderr("panic");
        previous(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Value {
        serde_json::from_str::<Value>(line).expect("event line parses as JSON")
    }

    #[test]
    fn levels_parse_and_order() {
        assert!(Level::Debug < Level::Info);
        assert!(Level::Warn < Level::Error);
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("verbose"), None);
        assert_eq!(LogFormat::parse("JSON"), Some(LogFormat::Json));
        assert_eq!(LogFormat::parse("yaml"), None);
    }

    #[test]
    fn events_are_recorded_as_schema_valid_json() {
        let log = EventLog::new("test", Level::Debug, LogFormat::Json);
        log.info(
            "compile",
            Some("00000000000000aa"),
            "done",
            &[
                ("status", AttrValue::UInt(200)),
                ("peer", AttrValue::Str("127.0.0.1:1".into())),
            ],
        );
        let lines = log.recent(10);
        assert_eq!(lines.len(), 1);
        let ev = parse(&lines[0]);
        assert_eq!(ev.get("level").and_then(|v| v.as_str()), Some("info"));
        assert_eq!(ev.get("component").and_then(|v| v.as_str()), Some("test"));
        assert_eq!(ev.get("event").and_then(|v| v.as_str()), Some("compile"));
        assert_eq!(
            ev.get("trace_id").and_then(|v| v.as_str()),
            Some("00000000000000aa")
        );
        assert_eq!(ev.get("status").and_then(|v| v.as_u64()), Some(200));
        assert!(ev.get("ts").is_some(), "events carry a timestamp");
    }

    #[test]
    fn level_filter_suppresses_and_counts() {
        let log = EventLog::new("test", Level::Warn, LogFormat::Text);
        log.debug("noise", None, "", &[]);
        log.info("noise", None, "", &[]);
        log.warn("kept", None, "", &[]);
        assert_eq!(log.buffered(), 1);
        assert_eq!(log.emitted(), 1);
        assert_eq!(log.suppressed(), 2);
    }

    #[test]
    fn ring_is_bounded_and_replays_most_recent() {
        let log = EventLog::with_capacity("test", Level::Debug, LogFormat::Json, 4);
        for i in 0..10u64 {
            log.info("tick", None, "", &[("i", AttrValue::UInt(i))]);
        }
        let lines = log.recent(usize::MAX);
        assert_eq!(lines.len(), 4);
        let first = parse(&lines[0]);
        let last = parse(&lines[3]);
        assert_eq!(first.get("i").and_then(|v| v.as_u64()), Some(6));
        assert_eq!(last.get("i").and_then(|v| v.as_u64()), Some(9));
        // recent(n) trims from the old end.
        let tail = log.recent(2);
        assert_eq!(parse(&tail[0]).get("i").and_then(|v| v.as_u64()), Some(8));
    }

    #[test]
    fn text_rendering_quotes_awkward_values() {
        let log = EventLog::new("gw", Level::Debug, LogFormat::Text);
        let line = log.render_text(
            1.5,
            Level::Warn,
            "forward_failed",
            Some("ab"),
            "peer died",
            &[("peer", AttrValue::Str("a b".into()))],
        );
        assert!(line.contains("WARN"), "{line}");
        assert!(line.contains("forward_failed"), "{line}");
        assert!(line.contains("trace_id=ab"), "{line}");
        assert!(line.contains("peer=\"a b\""), "{line}");
        assert!(line.ends_with(": peer died"), "{line}");
    }

    #[test]
    fn global_logger_is_always_available() {
        let log = logger();
        log.info("global", None, "", &[]);
        assert!(log.emitted() >= 1);
    }
}
