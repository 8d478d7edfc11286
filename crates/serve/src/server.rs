//! The daemon: the compile endpoint and its admission bound.
//!
//! One [`ServerState`] holds everything resident: the report cache,
//! the pipeline recorder and the flight table, behind the shared
//! `service` (`service.rs`) skeleton that owns the accept loop,
//! routing plumbing and drain. Every request compiles
//! under a *scope* of the skeleton's root
//! [`Budget`](ptmap_governor::Budget): cancelling a request (client
//! disconnect, per-request deadline) never touches the root, while
//! cancelling the root (drain timeout) reaches every in-flight compile
//! through the ancestor chain.

use crate::coalesce::{Coalescer, Flight, Join};
use crate::http::{Request, Response};
use crate::service::{
    error_outcome, error_response, json_string, outcome_response, outcome_status, with_retry_after,
    Core, Service, ServiceHandle,
};
use crate::traces::TraceStore;
use ptmap_core::PtMapConfig;
use ptmap_pipeline::{compile_job_traced, BatchConfig, Job, JobOutcome, Recorder, ReportCache};
use ptmap_trace::obs::{Level, LogFormat};
use ptmap_trace::prom::{Exposition, Kind};
use ptmap_trace::{AttrValue, SamplePolicy, Tracer};
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the daemon is configured (flags + defaults).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:7199` by default; port `0` asks the OS
    /// for an ephemeral port — the chosen address is printed on boot).
    pub addr: String,
    /// Most leader compiles running at once; beyond this, new flights
    /// are refused with `503 overloaded` (admission control). Coalesced
    /// followers do not count.
    pub workers: usize,
    /// Persistent report cache directory (`None` = in-memory).
    pub cache_dir: Option<PathBuf>,
    /// Base compiler configuration shared by every request.
    pub base: PtMapConfig,
    /// Retry-ladder depth per compile.
    pub max_retries: u32,
    /// Per-request compile deadline when the client sends none; also
    /// the cap on client-supplied `X-Ptmap-Deadline-Ms`.
    pub default_timeout: Duration,
    /// How long drain waits for in-flight work before cancelling it.
    pub drain_timeout: Duration,
    /// Head-based trace sampling probability in `[0, 1]`: the fraction
    /// of compiles whose trace is retained in the ring buffer behind
    /// `GET /jobs/<trace-id>/trace`.
    pub trace_sample: f64,
    /// Slow-compile threshold: a compile slower than this keeps its
    /// trace even when sampled out, so outliers are always inspectable.
    pub trace_slow_ms: Option<u64>,
    /// Minimum severity of structured events emitted to stderr and
    /// retained by the flight recorder (`--log-level`).
    pub log_level: Level,
    /// How events are rendered on stderr (`--log-format json|text`);
    /// the flight recorder behind `GET /debug/events` always keeps
    /// JSON.
    pub log_format: LogFormat,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:7199".to_string(),
            workers: 8,
            cache_dir: None,
            base: PtMapConfig::default(),
            max_retries: 2,
            default_timeout: Duration::from_secs(300),
            drain_timeout: Duration::from_secs(20),
            trace_sample: 1.0,
            trace_slow_ms: None,
            log_level: Level::Info,
            log_format: LogFormat::Text,
        }
    }
}

/// What the drain reported when the server exited.
#[derive(Debug, Clone)]
pub struct DrainSummary {
    /// Requests handled over the server's lifetime.
    pub requests: u64,
    /// Underlying compiles started.
    pub compiles: u64,
    /// Requests served by coalescing onto another flight.
    pub coalesced: u64,
    /// Whether everything in flight finished inside the drain timeout
    /// (false means the root budget had to cancel stragglers).
    pub clean: bool,
}

/// Everything the handler threads share.
pub(crate) struct ServerState {
    core: Core,
    config: ServeConfig,
    cache: ReportCache,
    recorder: Recorder,
    coalescer: Arc<Coalescer>,
    /// Ring buffer of retained compile traces
    /// (`GET /jobs/<trace-id>/trace`).
    traces: TraceStore,
    /// Leader compiles currently running.
    inflight: AtomicUsize,
}

/// The bound, not-yet-running daemon.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

/// Releases an in-flight leader slot even if the compile panics.
struct InflightGuard<'a> {
    state: &'a ServerState,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.state.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Attaches the compile's trace id to the response, if it has one.
fn with_trace_header(resp: Response, outcome: &JobOutcome) -> Response {
    match &outcome.trace_id {
        Some(id) => resp.with_header("X-Ptmap-Trace-Id", id.clone()),
        None => resp,
    }
}

/// Finishes a leader's tracer and retains the rendered Chrome trace if
/// the sampling policy keeps it. `force_keep` bypasses sampling for
/// client-supplied trace ids (the client asked for this one by name).
/// Outcomes surface as `traces_stored` / `traces_sampled_out` pipeline
/// events in `/metrics`.
fn store_trace(state: &ServerState, tracer: &Tracer, force_keep: bool, wall: Duration) {
    let Some(trace) = tracer.finish() else {
        return;
    };
    let policy = SamplePolicy {
        sample: state.config.trace_sample,
        slow_ms: state.config.trace_slow_ms,
    };
    if force_keep || policy.keep(&trace.trace_id, wall) {
        state.traces.insert(trace);
        state.recorder.incr("traces_stored", 1);
    } else {
        state.recorder.incr("traces_sampled_out", 1);
    }
}

impl Server {
    /// Binds the listener and builds the resident state. The cache
    /// falls back to memory-only (with a warning) if the directory
    /// cannot be created, mirroring `run_batch`.
    pub fn bind(config: ServeConfig) -> std::io::Result<Server> {
        let (listener, core) = Core::bind(
            "serve",
            &config.addr,
            config.log_level,
            config.log_format,
            config.drain_timeout,
        )?;
        let cache = match config.cache_dir.as_deref() {
            Some(dir) => ReportCache::with_dir_or_memory(dir),
            None => ReportCache::in_memory(),
        };
        let state = Arc::new(ServerState {
            core,
            cache,
            recorder: Recorder::new(),
            coalescer: Arc::new(Coalescer::new()),
            traces: TraceStore::new(),
            inflight: AtomicUsize::new(0),
            config,
        });
        Ok(Server { listener, state })
    }

    /// The bound address (resolves port `0`).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A shutdown/introspection handle usable from another thread.
    pub fn handle(&self) -> ServiceHandle {
        ServiceHandle::new(&self.state)
    }

    /// Serves until SIGTERM/SIGINT (or [`ServiceHandle::shutdown`]),
    /// then drains and returns the lifetime summary.
    pub fn run(self) -> DrainSummary {
        let state = Arc::clone(&self.state);
        let clean = crate::service::serve(self.listener, Arc::clone(&state), || {});
        DrainSummary {
            requests: state.core.metrics.requests_total(),
            compiles: state.core.metrics.compiles_total(),
            coalesced: state.coalescer.coalesced_total(),
            clean,
        }
    }
}

impl Service for ServerState {
    fn core(&self) -> &Core {
        &self.core
    }

    fn metrics_text(&self, _live: bool) -> String {
        let mut w = Exposition::default();
        self.core.metrics.expose(&mut w);
        w.scalar(
            "ptmap_coalesced_requests_total",
            Kind::Counter,
            "Requests served by attaching to an in-flight compile.",
            self.coalescer.coalesced_total(),
        );
        w.scalar(
            "ptmap_compiles_started_total",
            Kind::Counter,
            "Underlying (leader) compiles started.",
            self.core.metrics.compiles_total(),
        );
        for (name, help, value) in [
            (
                "ptmap_inflight_compiles",
                "Leader compiles currently running.",
                self.inflight.load(Ordering::Relaxed),
            ),
            (
                "ptmap_inflight_flights",
                "Coalesced flights currently in the table.",
                self.coalescer.in_flight(),
            ),
            (
                "ptmap_draining",
                "1 while the server is draining for shutdown.",
                usize::from(self.core.draining()),
            ),
            (
                "ptmap_cache_entries",
                "Reports resident in the in-memory cache.",
                self.cache.len(),
            ),
            (
                "ptmap_trace_store_entries",
                "Compile traces retained in the ring buffer.",
                self.traces.len(),
            ),
        ] {
            w.scalar(name, Kind::Gauge, help, value);
        }
        let (hits, misses) = self.cache.stats();
        for (name, help, value) in [
            (
                "ptmap_cache_hits_total",
                "Report-cache hits since boot.",
                hits,
            ),
            (
                "ptmap_cache_misses_total",
                "Report-cache misses since boot.",
                misses,
            ),
            (
                "ptmap_cache_quarantines_total",
                "Corrupt disk cache entries quarantined since boot.",
                self.cache.quarantines(),
            ),
        ] {
            w.scalar(name, Kind::Counter, help, value);
        }

        let (spans, counters) = self.recorder.snapshot();
        let mut family = w.family(
            "ptmap_stage_seconds_total",
            Kind::Counter,
            "Pipeline span time by stage.",
        );
        for (stage, stat) in &spans {
            family.series(&[("stage", stage.as_str())], stat.seconds);
        }
        let mut family = w.family(
            "ptmap_stage_invocations_total",
            Kind::Counter,
            "Pipeline span entries by stage.",
        );
        for (stage, stat) in &spans {
            family.series(&[("stage", stage.as_str())], stat.count);
        }
        let mut family = w.family(
            "ptmap_pipeline_events_total",
            Kind::Counter,
            "Pipeline counters (cache, retries, jobs).",
        );
        for (event, n) in &counters {
            family.series(&[("event", event.as_str())], *n);
        }
        w.scalar(
            "ptmap_predictor_fallbacks_total",
            Kind::Counter,
            "Compiles that fell back to the analytical predictor because a GNN model failed \
             to load.",
            counters.get("predictor_fallbacks").copied().unwrap_or(0),
        );
        w.finish()
    }

    /// `POST /compile`: admission check, coalesced compile, synchronous
    /// response.
    fn compile(&self, request: &Request, stream: &TcpStream) -> Response {
        if self.core.draining() {
            self.core.metrics.reject("draining");
            return with_retry_after(
                outcome_response(&error_outcome(
                    "",
                    "draining",
                    "server is draining".to_string(),
                )),
                self.config.drain_timeout.as_secs(),
            );
        }
        let parsed = self
            .core
            .parse_job(request, &self.config.base, self.config.default_timeout);
        let (job, base, key, budget) = match parsed {
            Ok(r) => (r.job, r.base, r.key, r.budget),
            Err(resp) => return resp,
        };
        let quality = base.mapper.backend;

        match self.coalescer.join(&key, || budget.clone()) {
            Join::Leader(flight) => {
                // Capacity gate applies to new flights only — followers
                // ride along for free.
                let previous = self.inflight.fetch_add(1, Ordering::AcqRel);
                if previous >= self.config.workers {
                    self.inflight.fetch_sub(1, Ordering::AcqRel);
                    self.core.metrics.reject("capacity");
                    let outcome = error_outcome(
                        &job.name,
                        "overloaded",
                        format!(
                            "{} compiles already in flight (max {})",
                            previous, self.config.workers
                        ),
                    );
                    self.coalescer.complete(&key, &flight, outcome.clone());
                    // Capacity pressure is transient: tell the client when
                    // to retry instead of letting it hammer the gate.
                    return with_retry_after(outcome_response(&outcome), 1);
                }
                let _watcher = spawn_disconnect_watcher(self, stream, &flight);
                let trace_id = request.header("x-ptmap-trace-id");
                let outcome = lead(self, &job, base, &key, &flight, trace_id);
                with_trace_header(outcome_response(&outcome), &outcome)
                    .with_header("X-Ptmap-Quality", quality.as_str().to_string())
            }
            Join::Follower(flight) => {
                let settled = spawn_disconnect_watcher(self, stream, &flight);
                let result = flight.wait(budget.deadline());
                let already_settled = settled.swap(true, Ordering::AcqRel);
                match result {
                    Some(outcome) => with_trace_header(outcome_response(&outcome), &outcome)
                        .with_header("X-Ptmap-Quality", quality.as_str().to_string())
                        .with_header("X-Ptmap-Coalesced", "1".to_string()),
                    None => {
                        // Own deadline expired while the leader was still
                        // compiling; stop counting as an audience member.
                        if !already_settled {
                            self.coalescer.detach(&flight);
                        }
                        self.core.metrics.reject("deadline");
                        outcome_response(&error_outcome(
                            &job.name,
                            "timeout",
                            "deadline expired while waiting for in-flight compile".to_string(),
                        ))
                        .with_header("X-Ptmap-Coalesced", "1".to_string())
                    }
                }
            }
        }
    }

    /// `GET /jobs/<trace-id>/trace`: the retained trace of a compile,
    /// by the id its `X-Ptmap-Trace-Id` response header carried. The
    /// default rendering is Chrome trace-event JSON; `?format=raw`
    /// returns the serialized span tree instead, which is what the
    /// gateway fetches to stitch a cluster-wide trace.
    fn trace(&self, trace_id: &str, raw: bool) -> Response {
        match self.traces.by_trace_id(trace_id) {
            Some(stored) => {
                let body = if raw {
                    serde_json::to_string(stored.raw.as_ref()).unwrap_or_else(|_| "{}".to_string())
                } else {
                    stored.chrome_json.as_ref().clone()
                };
                Response::json(200, body).with_header("X-Ptmap-Trace-Id", stored.trace_id)
            }
            None => error_response(404, &format!("no trace {trace_id}")),
        }
    }

    /// `GET /healthz`: readiness.
    fn healthz(&self) -> Response {
        // The disk cache must stay writable; probe with a real write.
        if let Some(dir) = self.cache.dir() {
            let probe = dir.join(".healthz-probe");
            if std::fs::write(&probe, b"ok").is_err() {
                let status = format!("cache dir {} not writable", dir.display());
                return Response::json(503, format!("{{\"status\":{}}}", json_string(&status)));
            }
            let _ = std::fs::remove_file(&probe);
        }
        Response::json(200, "{\"status\":\"ok\"}".to_string())
    }

    fn summary(&self) -> Vec<(&'static str, AttrValue)> {
        vec![
            ("compiles", self.core.metrics.compiles_total().into()),
            ("coalesced", self.coalescer.coalesced_total().into()),
        ]
    }

    fn cancel(&self) {
        self.coalescer.cancel_all();
    }
}

/// Watches the request socket while the handler is busy compiling or
/// waiting; a client that disconnects detaches from the flight (the
/// last detach cancels the compile's budget). The returned flag gates
/// the detach: whichever side (watcher on EOF, handler on finish)
/// swaps it first owns the waiter slot.
fn spawn_disconnect_watcher(
    state: &ServerState,
    stream: &TcpStream,
    flight: &Arc<Flight>,
) -> Arc<AtomicBool> {
    let settled = Arc::new(AtomicBool::new(false));
    let Ok(mut watch) = stream.try_clone() else {
        return settled;
    };
    let _ = watch.set_read_timeout(None);
    let coalescer = Arc::clone(&state.coalescer);
    let flight = Arc::clone(flight);
    let settled_for_watcher = Arc::clone(&settled);
    let _ = std::thread::Builder::new()
        .name("ptmap-watch".to_string())
        .spawn(move || {
            let mut buf = [0u8; 64];
            loop {
                match watch.read(&mut buf) {
                    // EOF: the client closed (or the handler shut the
                    // socket down after responding).
                    Ok(0) => break,
                    // Unexpected extra bytes; keep watching.
                    Ok(_) => continue,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
            if !settled_for_watcher.swap(true, Ordering::AcqRel) {
                coalescer.detach(&flight);
            }
        });
    settled
}

/// The leader half of a flight. The caller has taken an in-flight
/// slot; this releases it once the compile ends, even by panic. The
/// trace is retained *before* the outcome is published, so a follower
/// acting on the outcome's trace id finds it. A client-supplied
/// `trace_id` is adopted verbatim and force-keeps the trace (the client
/// asked for this one by name); otherwise the leader mints one.
fn lead(
    state: &ServerState,
    job: &Job,
    base: PtMapConfig,
    key: &str,
    flight: &Flight,
    trace_id: Option<&str>,
) -> JobOutcome {
    let guard = InflightGuard { state };
    let t0 = Instant::now();
    let tracer = match trace_id {
        Some(id) => Tracer::root_with_id(&job.name, id.to_string()),
        None => Tracer::root(&job.name),
    };
    let config = BatchConfig {
        workers: 1,
        cache_dir: None,
        base,
        job_timeout: None,
        budget: flight.budget.clone(),
        max_retries: state.config.max_retries,
        // File export is the batch CLI's sink; the daemon renders and
        // retains traces itself (see `store_trace`).
        trace: None,
    };
    let (outcome, _metrics) =
        compile_job_traced(job, &config, &state.cache, &state.recorder, &tracer);
    drop(guard);
    // A cache hit never started a mapper run; the compile counter
    // tracks real underlying compiles.
    if !outcome.cache_hit {
        state.core.metrics.compile_started();
    }
    store_trace(state, &tracer, trace_id.is_some(), t0.elapsed());
    let fields = [
        ("name", AttrValue::Str(job.name.clone())),
        ("status", u64::from(outcome_status(&outcome)).into()),
        ("cache_hit", outcome.cache_hit.into()),
        ("retries", u64::from(outcome.retries).into()),
        ("seconds", t0.elapsed().as_secs_f64().into()),
    ];
    state
        .core
        .log
        .info("compile", outcome.trace_id.as_deref(), "", &fields);
    state.coalescer.complete(key, flight, outcome.clone());
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptmap_trace::prom::check_prometheus_text;

    fn bind() -> Server {
        Server::bind(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServeConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn metrics_text_is_valid_prometheus() {
        let server = bind();
        let state = &server.state;
        let metrics = &state.core.metrics;
        metrics.observe_request("compile", 200, Duration::from_millis(30));
        metrics.observe_request("compile", 504, Duration::from_millis(1));
        metrics.reject("deadline");
        metrics.compile_started();
        state.recorder.add_seconds("map", 1.25);
        state.recorder.incr("jobs_ok", 9);
        let text = server.handle().metrics_text();

        check_prometheus_text(&text).expect("must parse");
        assert!(text.contains("ptmap_build_info{version=\""));
        assert!(text.contains("ptmap_http_requests_total{endpoint=\"compile\",code=\"200\"} 1"));
        assert!(text.contains("ptmap_http_requests_total{endpoint=\"compile\",code=\"504\"} 1"));
        let bucket = "ptmap_http_request_seconds_bucket{endpoint=\"compile\"";
        assert!(text.contains(&format!("{bucket},le=\"1.0\"}} 2\n")));
        assert!(text.contains(&format!("{bucket},le=\"+Inf\"}} 2\n")));
        assert!(text.contains("ptmap_http_request_seconds_count{endpoint=\"compile\"} 2\n"));
        for q in ["0.5", "0.95", "0.99"] {
            let series = "ptmap_http_request_quantile_seconds{endpoint=\"compile\"";
            assert!(text.contains(&format!("{series},quantile=\"{q}\"}}")));
        }
        assert!(text.contains("ptmap_admission_rejects_total{reason=\"deadline\"} 1"));
        assert!(text.contains("\nptmap_compiles_started_total 1\n"));
        assert!(text.contains("\nptmap_coalesced_requests_total 0\n"));
        assert!(text.contains("\nptmap_trace_store_entries 0\n"));
        assert!(text.contains("\nptmap_cache_hits_total 0\n"));
        assert!(text.contains("ptmap_stage_seconds_total{stage=\"map\"} 1.25\n"));
        assert!(text.contains("ptmap_stage_invocations_total{stage=\"map\"} 1\n"));
        assert!(text.contains("ptmap_pipeline_events_total{event=\"jobs_ok\"} 9\n"));
        assert!(text.contains("\nptmap_predictor_fallbacks_total 0\n"));
    }
}
