//! The HTTP service skeleton shared by `ptmap serve` and `ptmap gateway`.
//!
//! Both are the same kind of process: a blocking accept loop that
//! hands each connection to its own thread, one request per connection,
//! a router whose plumbing endpoints (`/metrics`, `/debug/events`,
//! `/healthz`, the `/jobs/<id>` family, the 404/405 fallbacks) behave
//! identically, and a drain that stops accepting, waits for open
//! connections, then cancels stragglers through the root [`Budget`].
//! A stop watcher thread ends the accept loop: once a shutdown is
//! requested it connects to the service's own listener, which returns
//! the blocked `accept`. This module owns all of that. The daemon and
//! the gateway implement [`Service`]: their own endpoints, state and
//! drain hooks.

use crate::http::{read_request, write_response, HttpError, Request, Response};
use crate::metrics::ServiceMetrics;
use crate::{lock_unpoisoned, signal};
use ptmap_core::PtMapConfig;
use ptmap_governor::Budget;
use ptmap_mapper::BackendKind;
use ptmap_pipeline::{request_key, Job, JobOutcome, JobSpec};
use ptmap_trace::obs::{EventLog, Level, LogFormat};
use ptmap_trace::AttrValue;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the stop watcher reads the signal flag. A signal handler
/// can only set the flag, not notify a condvar, so this one thread
/// polls it; nothing on the request path does.
const SIGNAL_POLL: Duration = Duration::from_millis(20);

/// What a service adds to the skeleton: its endpoints and drain hooks.
pub(crate) trait Service: Send + Sync + 'static {
    fn core(&self) -> &Core;
    /// `POST /compile`; `stream` lets the daemon watch for a client
    /// disconnect while it compiles.
    fn compile(&self, request: &Request, stream: &TcpStream) -> Response;
    /// `POST /jobs`.
    fn submit(&self, request: &Request) -> Response;
    /// `GET /jobs/<id>`.
    fn poll(&self, id: u64) -> Response;
    /// `GET /jobs/<id>/trace` (non-empty `id`); `raw`: `?format=raw`.
    fn trace(&self, id: &str, raw: bool) -> Response;
    /// The service's one extra `GET` endpoint, if it has one
    /// (`/cluster`).
    fn extra_path(&self) -> Option<&'static str> {
        None
    }
    /// Answers [`Service::extra_path`].
    fn extra(&self) -> Response {
        error_response(404, "not found")
    }
    /// `GET /healthz` while not draining.
    fn healthz(&self) -> Response;
    /// The `/metrics` document; without `live` nothing is scraped.
    fn metrics_text(&self, live: bool) -> String;
    /// Service counters for the final `drained` event.
    fn summary(&self) -> Vec<(&'static str, AttrValue)>;
    /// Whether async jobs are queued or running (drain waits for them).
    fn busy(&self) -> bool {
        false
    }
    /// Drain began: stop taking background work.
    fn begin_drain(&self) {}
    /// Drain timed out: cancel what the root budget does not reach.
    fn cancel(&self) {}
}

/// The state every service shares: event log, HTTP metrics, root
/// budget and drain bookkeeping.
pub(crate) struct Core {
    /// Structured event log; also the `/debug/events` flight recorder.
    pub(crate) log: Arc<EventLog>,
    pub(crate) metrics: ServiceMetrics,
    /// Every request scope descends from this budget, so cancelling it
    /// (drain timeout) reaches all in-flight work.
    pub(crate) root: Budget,
    /// How long drain waits for in-flight work before cancelling it.
    pub(crate) drain_timeout: Duration,
    /// In-process shutdown request (tests; the CLI uses [`signal`]),
    /// and the condvar that wakes [`Core::wait_stop`] when it is set.
    stop: Mutex<bool>,
    stop_cv: Condvar,
    draining: AtomicBool,
    /// Open HTTP connections (drain waits for zero).
    conns: Mutex<usize>,
    conns_cv: Condvar,
}

impl Core {
    /// Binds a blocking listener on `addr`, pins the start-time
    /// gauge, and installs the event log process-wide so library code
    /// (pipeline cache warnings) reaches it too.
    pub(crate) fn bind(
        component: &str,
        addr: &str,
        log_level: Level,
        log_format: LogFormat,
        drain_timeout: Duration,
    ) -> std::io::Result<(TcpListener, Core)> {
        let listener = TcpListener::bind(addr)?;
        crate::metrics::process_start_seconds();
        let log = Arc::new(EventLog::new(component, log_level, log_format));
        ptmap_trace::obs::install(Arc::clone(&log));
        let core = Core {
            log,
            metrics: ServiceMetrics::default(),
            root: Budget::cancellable(),
            drain_timeout,
            stop: Mutex::new(false),
            stop_cv: Condvar::new(),
            draining: AtomicBool::new(false),
            conns: Mutex::new(0),
            conns_cv: Condvar::new(),
        };
        Ok((listener, core))
    }

    /// Whether SIGTERM/SIGINT or [`ServiceHandle::shutdown`] asked the
    /// service to stop.
    pub(crate) fn stopping(&self) -> bool {
        *lock_unpoisoned(&self.stop) || signal::shutdown_requested()
    }

    /// Asks the service to stop and wakes every [`Core::wait_stop`].
    fn request_stop(&self) {
        *lock_unpoisoned(&self.stop) = true;
        self.stop_cv.notify_all();
    }

    /// Sleeps for `timeout`, or less once a stop is requested, and
    /// returns [`Core::stopping`]. A signal wakes it within
    /// [`SIGNAL_POLL`]: the stop watcher turns the flag into a
    /// [`Core::request_stop`].
    pub(crate) fn wait_stop(&self, timeout: Duration) -> bool {
        let stop = lock_unpoisoned(&self.stop);
        let stop = self
            .stop_cv
            .wait_timeout_while(stop, timeout, |stop| !*stop)
            .unwrap_or_else(PoisonError::into_inner)
            .0;
        *stop || signal::shutdown_requested()
    }

    /// Whether the service has stopped accepting and is draining.
    pub(crate) fn draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Parses and admits one compile request. The `X-Ptmap-Deadline-Ms`
    /// and `X-Ptmap-Quality` headers and the spec body are checked
    /// first, then the governor admission check runs before resolution,
    /// so an already-expired deadline never loads a kernel or a model.
    /// Malformed input is a structured 400 (see [`parse_headers`] and
    /// [`parse_spec`]); an expired deadline is the timeout outcome.
    pub(crate) fn parse_job(
        &self,
        request: &Request,
        base: &PtMapConfig,
        default_timeout: Duration,
    ) -> Result<JobRequest, Response> {
        let (timeout, base) = parse_headers(request, base, default_timeout)?;
        let spec = parse_spec(&request.body)?;
        let budget = self.root.scoped_child(Some(timeout));
        if let Err(e) = budget.check() {
            self.metrics.reject("deadline");
            let name = spec.name.as_deref().unwrap_or(&spec.kernel);
            let outcome = error_outcome(name, e.class(), e.to_string());
            return Err(outcome_response(&outcome));
        }
        let job = Job::resolve(&spec).map_err(|e| bad_request("bad-spec", e))?;
        let key = request_key(&job, &base);
        Ok(JobRequest {
            job,
            base,
            key,
            timeout,
            budget,
        })
    }
}

/// An admitted compile request.
pub(crate) struct JobRequest {
    pub(crate) job: Job,
    /// The base config with the client's quality override applied.
    pub(crate) base: PtMapConfig,
    /// The pipeline request key: routing, coalescing and cache identity.
    pub(crate) key: String,
    /// The client's deadline, capped by the default.
    pub(crate) timeout: Duration,
    /// The request's scope of the root budget, already checked once.
    pub(crate) budget: Budget,
}

/// Validates the optional request headers: returns the deadline
/// (`X-Ptmap-Deadline-Ms`, capped at `default_timeout`) and `base` with
/// the `X-Ptmap-Quality` backend override folded in. The override lands
/// *before* any request key is computed, so an exact-tier request never
/// coalesces onto (or reads the cache entry of) a heuristic one.
pub(crate) fn parse_headers(
    request: &Request,
    base: &PtMapConfig,
    default_timeout: Duration,
) -> Result<(Duration, PtMapConfig), Response> {
    let timeout = match request.header("x-ptmap-deadline-ms") {
        None => default_timeout,
        Some(raw) => match raw.parse::<u64>() {
            Ok(ms) => Duration::from_millis(ms).min(default_timeout),
            Err(_) => {
                let message = format!("bad X-Ptmap-Deadline-Ms {raw:?}");
                return Err(bad_request("bad-deadline", message));
            }
        },
    };
    let mut base = base.clone();
    if let Some(raw) = request.header("x-ptmap-quality") {
        base.mapper.backend = raw
            .parse::<BackendKind>()
            .map_err(|e| bad_request("bad-quality", format!("bad X-Ptmap-Quality: {e}")))?;
    }
    Ok((timeout, base))
}

/// Parses the request body as a job spec.
pub(crate) fn parse_spec(body: &[u8]) -> Result<JobSpec, Response> {
    let text = std::str::from_utf8(body)
        .map_err(|_| bad_request("bad-spec", "body is not UTF-8".to_string()))?;
    serde_json::from_str::<JobSpec>(text)
        .map_err(|e| bad_request("bad-spec", format!("job spec: {e}")))
}

/// A structured 400: the human message plus a machine-readable reason
/// (`bad-deadline`, `bad-quality`, `bad-spec`) so clients can tell
/// *which* input was malformed without string matching.
fn bad_request(reason: &str, message: String) -> Response {
    let body = format!(
        "{{\"error\":{},\"reason\":{}}}",
        json_string(&message),
        json_string(reason)
    );
    Response::json(400, body)
}

pub(crate) fn error_response(status: u16, message: &str) -> Response {
    Response::json(status, format!("{{\"error\":{}}}", json_string(message)))
}

/// `text` as a JSON string literal, quotes included.
pub(crate) fn json_string(text: &str) -> String {
    serde_json::to_string(text).expect("a string always encodes")
}

/// Stamps a load-shedding 503 with the retry hint every rejected
/// client needs: when to come back (`Retry-After`, seconds). Without
/// it, a fleet of rejected clients retries at once and the overload
/// feeds itself.
pub(crate) fn with_retry_after(resp: Response, seconds: u64) -> Response {
    resp.with_header("Retry-After", seconds.max(1).to_string())
}

/// Builds a failure outcome in the same shape the pipeline produces,
/// so every error a client sees (admission, forward or compile) parses
/// the same way.
pub(crate) fn error_outcome(name: &str, class: &str, message: String) -> JobOutcome {
    JobOutcome {
        name: name.to_string(),
        cache_hit: false,
        report: None,
        error: Some(message),
        error_class: Some(class.to_string()),
        degraded: None,
        retries: 0,
        trace_id: None,
    }
}

/// HTTP status for a compile outcome.
pub(crate) fn outcome_status(outcome: &JobOutcome) -> u16 {
    if outcome.report.is_some() {
        return 200;
    }
    match outcome.error_class.as_deref() {
        Some("timeout") => 504,
        Some("cancelled") | Some("overloaded") | Some("draining") => 503,
        _ => 500,
    }
}

/// A compile outcome as a JSON response with its status.
pub(crate) fn outcome_response(outcome: &JobOutcome) -> Response {
    let body = serde_json::to_string(outcome).unwrap_or_else(|_| "{}".to_string());
    Response::json(outcome_status(outcome), body)
}

/// Tells a running service to drain (tests and the binary's own wiring;
/// external callers send SIGTERM) and renders its metrics.
#[derive(Clone)]
pub struct ServiceHandle {
    state: Arc<dyn Service>,
}

impl ServiceHandle {
    pub(crate) fn new<S: Service>(state: &Arc<S>) -> ServiceHandle {
        ServiceHandle {
            state: Arc::clone(state) as Arc<dyn Service>,
        }
    }

    /// Requests a graceful drain, as if SIGTERM arrived.
    pub fn shutdown(&self) {
        self.state.core().request_stop();
    }

    /// The rendered `/metrics` document, without anything that needs
    /// the network (the gateway's cluster rollup).
    pub fn metrics_text(&self) -> String {
        self.state.metrics_text(false)
    }
}

/// Decrements the open-connection count (and wakes the drain waiter)
/// when a handler thread exits, however it exits.
struct ConnGuard<S: Service>(Arc<S>);

impl<S: Service> Drop for ConnGuard<S> {
    fn drop(&mut self) {
        let core = self.0.core();
        let mut conns = lock_unpoisoned(&core.conns);
        *conns = conns.saturating_sub(1);
        core.conns_cv.notify_all();
    }
}

/// Serves `listener` until a shutdown is requested, then drains: stop
/// accepting, let in-flight work finish, cancel stragglers through the
/// root budget after the drain timeout. `join` then joins the service's
/// own threads before the final flush of latency events, the flight
/// recorder and the metrics. Returns whether the drain was clean
/// (false means the root budget had to cancel work).
pub(crate) fn serve<S: Service>(listener: TcpListener, state: Arc<S>, join: impl FnOnce()) -> bool {
    let core = state.core();
    let watcher = spawn_stop_watcher(Arc::clone(&state), &listener);
    while !core.stopping() {
        match listener.accept() {
            // The watcher's wake-up, or a client that lost the race
            // with the stop: closed unanswered, as the backlog is.
            Ok(_) if core.stopping() => break,
            Ok((stream, _peer)) => {
                *lock_unpoisoned(&core.conns) += 1;
                let guard = ConnGuard(Arc::clone(&state));
                let _ = std::thread::Builder::new()
                    .name("ptmap-conn".to_string())
                    .spawn(move || {
                        // Own the whole guard: it drops when this thread ends.
                        let guard = guard;
                        handle_connection(&*guard.0, stream);
                    });
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                core.log.warn(
                    "accept_error",
                    None,
                    &format!("accept: {e}; continuing"),
                    &[],
                );
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }

    drop(listener);
    core.draining.store(true, Ordering::Release);
    let _ = watcher.join();
    state.begin_drain();
    let mut clean = wait_idle(&*state, Instant::now() + core.drain_timeout);
    if !clean {
        core.log.warn(
            "drain_timeout",
            None,
            "drain timeout elapsed; cancelling in-flight work",
            &[("timeout_s", core.drain_timeout.as_secs().into())],
        );
        core.root.cancel();
        state.cancel();
        // Cancellation is cooperative; give work a bounded window to
        // observe it.
        clean = wait_idle(&*state, Instant::now() + Duration::from_secs(10));
    }
    join();

    // Flush where an operator (or the CI smoke test) can see it after
    // the port is gone.
    core.metrics.log_latency(&core.log);
    core.log.dump_to_stderr("drain");
    eprintln!("--- final metrics ---\n{}", state.metrics_text(false));
    let mut fields = vec![("requests", core.metrics.requests_total().into())];
    fields.extend(state.summary());
    fields.push(("clean", clean.into()));
    core.log
        .info("drained", None, if clean { "" } else { "forced" }, &fields);
    clean
}

/// Spawns the thread that ends the accept loop: it waits for a stop
/// request (a signal, seen within [`SIGNAL_POLL`], or
/// [`ServiceHandle::shutdown`]), passes it on to every
/// [`Core::wait_stop`], then connects to the listener so the blocked
/// `accept` returns. The connect is retried until the loop has exited,
/// so a lost or refused wake-up cannot hang the drain.
fn spawn_stop_watcher<S: Service>(state: Arc<S>, listener: &TcpListener) -> JoinHandle<()> {
    let bound = listener
        .local_addr()
        .expect("a bound listener has an address");
    let wake = wake_addr(bound);
    std::thread::Builder::new()
        .name("ptmap-stop".to_string())
        .spawn(move || {
            let core = state.core();
            while !core.wait_stop(SIGNAL_POLL) {}
            core.request_stop();
            while !core.draining() {
                // Dropped at once: the loop closes it unanswered.
                let _ = TcpStream::connect_timeout(&wake, Duration::from_millis(100));
                std::thread::sleep(Duration::from_millis(5));
            }
        })
        .expect("spawn stop watcher")
}

/// Where the stop watcher connects: the bound address, through
/// loopback when the service listens on every interface.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// Waits until no connection is open and the service is not busy, or
/// `deadline` passes. Returns whether idle was reached.
fn wait_idle<S: Service>(state: &S, deadline: Instant) -> bool {
    let core = state.core();
    let mut conns = lock_unpoisoned(&core.conns);
    loop {
        if *conns == 0 && !state.busy() {
            return true;
        }
        let now = Instant::now();
        if now >= deadline {
            return false;
        }
        // The condvar covers connection changes; background work is
        // picked up by the bounded wait.
        let wait = (deadline - now).min(Duration::from_millis(50));
        conns = core
            .conns_cv
            .wait_timeout(conns, wait)
            .unwrap_or_else(PoisonError::into_inner)
            .0;
    }
}

/// Reads, routes, answers, closes.
fn handle_connection<S: Service>(state: &S, mut stream: TcpStream) {
    // A client that connects and never sends a full request must not
    // pin a handler thread forever.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let request = match read_request(&mut stream) {
        Ok(r) => r,
        Err(HttpError::BadRequest(m)) => {
            let _ = write_response(&mut stream, &error_response(400, &m));
            return;
        }
        Err(HttpError::TooLarge(m)) => {
            let _ = write_response(&mut stream, &error_response(413, &m));
            return;
        }
        // The socket died mid-request; nobody is listening for errors.
        Err(HttpError::Io(_)) => return,
    };
    let _ = stream.set_read_timeout(None);

    let t0 = Instant::now();
    let (endpoint, response) = route(state, &request, &stream);
    state
        .core()
        .metrics
        .observe_request(endpoint, response.status, t0.elapsed());
    let _ = write_response(&mut stream, &response);
    // Wake any disconnect watcher still parked on the socket.
    let _ = stream.shutdown(Shutdown::Both);
}

/// Dispatches one request; returns the endpoint label (for metrics)
/// and the response.
fn route<S: Service>(state: &S, request: &Request, stream: &TcpStream) -> (&'static str, Response) {
    // Split an attached query string off before matching, so
    // `/jobs/<id>/trace?format=raw` routes like `/jobs/<id>/trace`.
    let (path, query) = match request.path.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (request.path.as_str(), None),
    };
    if let Some(extra) = state.extra_path().filter(|extra| *extra == path) {
        // The label is the path without its slash: `cluster`.
        return match request.method.as_str() {
            "GET" => (&extra[1..], state.extra()),
            _ => ("other", error_response(405, "method not allowed")),
        };
    }
    match (request.method.as_str(), path) {
        ("POST", "/compile") => ("compile", state.compile(request, stream)),
        ("POST", "/jobs") => ("jobs_submit", state.submit(request)),
        ("GET", path) if path.starts_with("/jobs/") && path.ends_with("/trace") => {
            let raw = query.is_some_and(|q| q.split('&').any(|kv| kv == "format=raw"));
            let id = path
                .strip_prefix("/jobs/")
                .and_then(|rest| rest.strip_suffix("/trace"));
            let response = match id {
                Some(id) if !id.is_empty() => state.trace(id, raw),
                _ => error_response(404, "not found"),
            };
            ("jobs_trace", response)
        }
        ("GET", path) if path.starts_with("/jobs/") => {
            let id_text = &path["/jobs/".len()..];
            let response = match id_text.parse::<u64>() {
                Ok(id) => state.poll(id),
                Err(_) => error_response(400, &format!("bad job id {id_text:?}")),
            };
            ("jobs_poll", response)
        }
        ("GET", "/metrics") => ("metrics", Response::text(200, state.metrics_text(true))),
        ("GET", "/debug/events") => (
            "debug_events",
            crate::events::events_response(&state.core().log, query),
        ),
        ("GET", "/healthz") if state.core().draining() => (
            "healthz",
            Response::json(503, "{\"status\":\"draining\"}".to_string()),
        ),
        ("GET", "/healthz") => ("healthz", state.healthz()),
        (_, path)
            if ["/compile", "/jobs", "/metrics", "/debug/events", "/healthz"].contains(&path) =>
        {
            ("other", error_response(405, "method not allowed"))
        }
        _ => ("other", error_response(404, "not found")),
    }
}
