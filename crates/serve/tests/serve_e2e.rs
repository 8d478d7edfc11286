//! End-to-end tests of the `ptmap serve` daemon: coalescing,
//! admission control, drain, and the metrics contract.
//!
//! Most tests boot the server in-process (ephemeral port, shutdown via
//! [`ServiceHandle`]); the SIGTERM test spawns the real binary so the
//! signal path and exit code are exercised for real.

use ptmap_governor::faultpoint;
use ptmap_serve::{DrainSummary, ServeConfig, Server, ServiceHandle};
use ptmap_trace::prom::check_prometheus_text;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Boots an in-process server on an ephemeral port.
fn boot(
    config: ServeConfig,
) -> (
    SocketAddr,
    ServiceHandle,
    std::thread::JoinHandle<DrainSummary>,
) {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        drain_timeout: Duration::from_secs(5),
        ..config
    };
    let server = Server::bind(config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run());
    (addr, handle, runner)
}

/// One parsed HTTP response.
struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Sends one request and reads the full response (the server closes
/// the connection after answering).
fn http(addr: SocketAddr, method: &str, path: &str, headers: &[(&str, &str)], body: &str) -> Reply {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut req = format!("{method} {path} HTTP/1.1\r\nHost: ptmap\r\n");
    for (name, value) in headers {
        req.push_str(&format!("{name}: {value}\r\n"));
    }
    req.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
    stream.write_all(req.as_bytes()).expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let mut lines = head.lines();
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Reply {
        status,
        headers,
        body: body.to_string(),
    }
}

fn compile_spec(name: &str, kernel: &str) -> String {
    format!("{{\"name\":\"{name}\",\"kernel\":\"{kernel}\",\"arch\":\"S4\"}}")
}

/// Extracts `metric value` (no labels) from a Prometheus document.
fn metric_value(text: &str, metric: &str) -> Option<f64> {
    text.lines()
        .find(|l| l.starts_with(metric) && l.as_bytes().get(metric.len()) == Some(&b' '))
        .and_then(|l| l.rsplit_once(' '))
        .and_then(|(_, v)| v.parse().ok())
}

/// Extracts a labelled series value, matching on substring of the
/// label set.
fn labelled_value(text: &str, metric: &str, label_part: &str) -> Option<f64> {
    text.lines()
        .find(|l| l.starts_with(metric) && l.contains(label_part))
        .and_then(|l| l.rsplit_once(' '))
        .and_then(|(_, v)| v.parse().ok())
}

#[test]
fn concurrent_identical_compiles_share_one_flight() {
    // Slow each placement attempt of the job named "coal" so the
    // followers reliably arrive while the leader is still compiling.
    let _fault = faultpoint::install("mapper_place:delay:150@coal").unwrap();
    let (addr, handle, runner) = boot(ServeConfig::default());

    let spec = compile_spec("coal", "vecsum:16");
    let leader = {
        let spec = spec.clone();
        std::thread::spawn(move || http(addr, "POST", "/compile", &[], &spec))
    };
    // Wait until the leader's flight is registered before launching
    // the followers: from that point, identical requests must coalesce.
    let t0 = Instant::now();
    loop {
        let text = http(addr, "GET", "/metrics", &[], "").body;
        if metric_value(&text, "ptmap_inflight_flights") == Some(1.0) {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "leader never started"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let followers: Vec<_> = (0..3)
        .map(|_| {
            let spec = spec.clone();
            std::thread::spawn(move || http(addr, "POST", "/compile", &[], &spec))
        })
        .collect();

    let lead_reply = leader.join().unwrap();
    assert_eq!(lead_reply.status, 200, "{}", lead_reply.body);
    assert!(lead_reply.body.contains("\"report\""));
    for follower in followers {
        let reply = follower.join().unwrap();
        assert_eq!(reply.status, 200, "{}", reply.body);
        assert_eq!(
            reply.header("x-ptmap-coalesced"),
            Some("1"),
            "followers must be marked coalesced"
        );
        assert_eq!(reply.body, lead_reply.body, "all waiters share one outcome");
    }

    let text = http(addr, "GET", "/metrics", &[], "").body;
    assert_eq!(
        metric_value(&text, "ptmap_compiles_started_total"),
        Some(1.0),
        "exactly one underlying compile:\n{text}"
    );
    assert_eq!(
        metric_value(&text, "ptmap_coalesced_requests_total"),
        Some(3.0),
        "N identical concurrent requests coalesce N-1:\n{text}"
    );

    // A later identical request is served from the report cache, not a
    // new flight.
    let cached = http(addr, "POST", "/compile", &[], &spec);
    assert_eq!(cached.status, 200);
    assert!(
        cached.body.contains("\"cache_hit\":true"),
        "{}",
        cached.body
    );

    handle.shutdown();
    let summary = runner.join().unwrap();
    assert_eq!(summary.compiles, 1);
    assert_eq!(summary.coalesced, 3);
    assert!(summary.clean);
}

#[test]
fn quality_header_selects_backend_and_splits_the_cache_key() {
    let (addr, handle, runner) = boot(ServeConfig::default());
    let spec = compile_spec("tier", "vecsum:8");

    // Default tier: the server's base backend, echoed in the header.
    let base = http(addr, "POST", "/compile", &[], &spec);
    assert_eq!(base.status, 200, "{}", base.body);
    assert_eq!(base.header("x-ptmap-quality"), Some("heuristic"));

    // Exact tier: a different request key, so this is NOT served from
    // the heuristic-cached entry above.
    let exact = http(
        addr,
        "POST",
        "/compile",
        &[("X-Ptmap-Quality", "exact")],
        &spec,
    );
    assert_eq!(exact.status, 200, "{}", exact.body);
    assert_eq!(exact.header("x-ptmap-quality"), Some("exact"));
    assert!(
        exact.body.contains("\"cache_hit\":false"),
        "exact tier must not alias the heuristic cache entry: {}",
        exact.body
    );
    assert!(
        exact.body.contains("\"proven_optimal\":true"),
        "a trivial kernel should be proven optimal in-deadline: {}",
        exact.body
    );

    // Repeating the exact-tier request hits the exact-keyed entry.
    let again = http(
        addr,
        "POST",
        "/compile",
        &[("X-Ptmap-Quality", "exact")],
        &spec,
    );
    assert!(again.body.contains("\"cache_hit\":true"), "{}", again.body);

    // Unknown tiers are client errors.
    let bad = http(
        addr,
        "POST",
        "/compile",
        &[("X-Ptmap-Quality", "speedy")],
        &spec,
    );
    assert_eq!(bad.status, 400, "{}", bad.body);

    handle.shutdown();
    runner.join().unwrap();
}

#[test]
fn expired_deadline_is_rejected_at_admission() {
    let (addr, handle, runner) = boot(ServeConfig::default());

    let reply = http(
        addr,
        "POST",
        "/compile",
        &[("X-Ptmap-Deadline-Ms", "0")],
        &compile_spec("doomed", "gemm:8"),
    );
    assert_eq!(reply.status, 504, "{}", reply.body);
    assert!(
        reply.body.contains("\"error_class\":\"timeout\""),
        "structured timeout error: {}",
        reply.body
    );

    let text = http(addr, "GET", "/metrics", &[], "").body;
    assert_eq!(
        labelled_value(
            &text,
            "ptmap_admission_rejects_total",
            "reason=\"deadline\""
        ),
        Some(1.0),
        "{text}"
    );
    assert_eq!(
        metric_value(&text, "ptmap_compiles_started_total"),
        Some(0.0),
        "the governor check must run before any worker is occupied:\n{text}"
    );

    // A malformed deadline is a client error, not a timeout.
    let reply = http(
        addr,
        "POST",
        "/compile",
        &[("X-Ptmap-Deadline-Ms", "soon")],
        &compile_spec("doomed", "gemm:8"),
    );
    assert_eq!(reply.status, 400);

    handle.shutdown();
    runner.join().unwrap();
}

#[test]
fn metrics_document_parses_and_covers_the_contract() {
    let (addr, handle, runner) = boot(ServeConfig::default());

    // Generate some traffic first so histograms and request counters
    // have series.
    assert_eq!(
        http(
            addr,
            "POST",
            "/compile",
            &[],
            &compile_spec("m", "vecsum:8")
        )
        .status,
        200
    );
    assert_eq!(http(addr, "GET", "/healthz", &[], "").status, 200);
    assert_eq!(http(addr, "GET", "/nope", &[], "").status, 404);

    let text = http(addr, "GET", "/metrics", &[], "").body;
    check_prometheus_text(&text).expect("valid Prometheus text format");
    for required in [
        "ptmap_http_requests_total",
        "ptmap_http_request_seconds_bucket",
        "ptmap_http_request_seconds_count",
        "ptmap_coalesced_requests_total",
        "ptmap_compiles_started_total",
        "ptmap_queue_depth",
        "ptmap_inflight_compiles",
        "ptmap_workers_alive",
        "ptmap_cache_hits_total",
        "ptmap_stage_seconds_total",
        "ptmap_pipeline_events_total",
    ] {
        assert!(text.contains(required), "missing {required}:\n{text}");
    }
    assert!(
        labelled_value(&text, "ptmap_http_requests_total", "endpoint=\"compile\"").is_some(),
        "{text}"
    );

    handle.shutdown();
    runner.join().unwrap();
}

#[test]
fn async_jobs_submit_and_poll_to_completion() {
    let (addr, handle, runner) = boot(ServeConfig::default());

    let reply = http(
        addr,
        "POST",
        "/jobs",
        &[],
        &compile_spec("async", "vecsum:12"),
    );
    assert_eq!(reply.status, 202, "{}", reply.body);
    let id: u64 = reply
        .body
        .split("\"id\":")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|n| n.trim().parse().ok())
        .expect("submission returns an id");

    let t0 = Instant::now();
    let done = loop {
        let poll = http(addr, "GET", &format!("/jobs/{id}"), &[], "");
        assert_eq!(poll.status, 200, "{}", poll.body);
        if poll.body.contains("\"state\":\"done\"") {
            break poll;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(120),
            "job never finished: {}",
            poll.body
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(done.body.contains("\"outcome\""), "{}", done.body);
    assert!(done.body.contains("\"report\""), "{}", done.body);

    assert_eq!(http(addr, "GET", "/jobs/999999", &[], "").status, 404);
    assert_eq!(http(addr, "GET", "/jobs/not-a-number", &[], "").status, 400);

    handle.shutdown();
    runner.join().unwrap();
}

#[test]
fn compile_trace_round_trips_through_the_store() {
    let (addr, handle, runner) = boot(ServeConfig::default());

    // A fresh compile mints a trace id and retains its trace.
    let reply = http(
        addr,
        "POST",
        "/compile",
        &[],
        &compile_spec("traced", "vecsum:16"),
    );
    assert_eq!(reply.status, 200, "{}", reply.body);
    let trace_id = reply
        .header("x-ptmap-trace-id")
        .expect("compile responses carry a trace id")
        .to_string();
    assert!(
        reply.body.contains(&format!("\"trace_id\":\"{trace_id}\"")),
        "outcome and header agree: {}",
        reply.body
    );

    let fetched = http(addr, "GET", &format!("/jobs/{trace_id}/trace"), &[], "");
    assert_eq!(fetched.status, 200, "{}", fetched.body);
    assert_eq!(fetched.header("x-ptmap-trace-id"), Some(trace_id.as_str()));
    for span in [
        "traceEvents",
        "compile",
        "explore",
        "map",
        "ii_attempt",
        "restarts",
    ] {
        assert!(
            fetched.body.contains(span),
            "trace must contain {span:?}: {}",
            fetched.body
        );
    }

    // A client-supplied trace id is adopted, echoed, and force-kept.
    let custom = http(
        addr,
        "POST",
        "/compile",
        &[("X-Ptmap-Trace-Id", "client-chose-this")],
        &compile_spec("traced2", "vecsum:24"),
    );
    assert_eq!(custom.status, 200, "{}", custom.body);
    assert_eq!(custom.header("x-ptmap-trace-id"), Some("client-chose-this"));
    let fetched = http(addr, "GET", "/jobs/client-chose-this/trace", &[], "");
    assert_eq!(fetched.status, 200, "{}", fetched.body);

    // Unknown ids 404.
    assert_eq!(
        http(addr, "GET", "/jobs/deadbeefdeadbeef/trace", &[], "").status,
        404
    );

    let text = http(addr, "GET", "/metrics", &[], "").body;
    check_prometheus_text(&text).expect("valid with trace series");
    assert!(
        metric_value(&text, "ptmap_trace_store_entries") >= Some(2.0),
        "{text}"
    );

    handle.shutdown();
    runner.join().unwrap();
}

#[test]
fn sampling_drops_traces_but_client_ids_are_kept() {
    let (addr, handle, runner) = boot(ServeConfig {
        trace_sample: 0.0,
        ..ServeConfig::default()
    });

    // Sampled out: the id is still issued (correlation), the body is
    // not retained.
    let reply = http(
        addr,
        "POST",
        "/compile",
        &[],
        &compile_spec("dropped", "vecsum:8"),
    );
    assert_eq!(reply.status, 200, "{}", reply.body);
    let trace_id = reply
        .header("x-ptmap-trace-id")
        .expect("id issued even when sampled out")
        .to_string();
    assert_eq!(
        http(addr, "GET", &format!("/jobs/{trace_id}/trace"), &[], "").status,
        404,
        "sampled-out trace is not retained"
    );

    // A client-supplied id bypasses sampling entirely.
    let forced = http(
        addr,
        "POST",
        "/compile",
        &[("X-Ptmap-Trace-Id", "keep-me")],
        &compile_spec("kept", "vecsum:12"),
    );
    assert_eq!(forced.status, 200, "{}", forced.body);
    let fetched = http(addr, "GET", "/jobs/keep-me/trace", &[], "");
    assert_eq!(fetched.status, 200, "{}", fetched.body);
    assert!(fetched.body.contains("traceEvents"));

    handle.shutdown();
    runner.join().unwrap();
}

#[test]
fn async_job_trace_is_fetchable_by_job_id() {
    let (addr, handle, runner) = boot(ServeConfig::default());

    let reply = http(
        addr,
        "POST",
        "/jobs",
        &[],
        &compile_spec("async-traced", "vecsum:20"),
    );
    assert_eq!(reply.status, 202, "{}", reply.body);
    let id: u64 = reply
        .body
        .split("\"id\":")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|n| n.trim().parse().ok())
        .expect("submission returns an id");

    let t0 = Instant::now();
    loop {
        let poll = http(addr, "GET", &format!("/jobs/{id}"), &[], "");
        if poll.body.contains("\"state\":\"done\"") {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(120),
            "job never finished: {}",
            poll.body
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let fetched = http(addr, "GET", &format!("/jobs/{id}/trace"), &[], "");
    assert_eq!(fetched.status, 200, "{}", fetched.body);
    assert!(fetched.body.contains("traceEvents"), "{}", fetched.body);
    assert!(fetched.body.contains("ii_attempt"), "{}", fetched.body);

    handle.shutdown();
    runner.join().unwrap();
}

#[test]
fn async_submissions_validate_headers_like_sync_compiles() {
    let (addr, handle, runner) = boot(ServeConfig::default());
    let spec = compile_spec("async-hdr", "vecsum:8");

    // A malformed deadline on /jobs is a structured client error, not
    // silently ignored (it used to be dropped on the async path).
    let bad_deadline = http(
        addr,
        "POST",
        "/jobs",
        &[("X-Ptmap-Deadline-Ms", "soon")],
        &spec,
    );
    assert_eq!(bad_deadline.status, 400, "{}", bad_deadline.body);
    assert!(
        bad_deadline.body.contains("\"reason\":\"bad-deadline\""),
        "{}",
        bad_deadline.body
    );

    let bad_quality = http(
        addr,
        "POST",
        "/jobs",
        &[("X-Ptmap-Quality", "speedy")],
        &spec,
    );
    assert_eq!(bad_quality.status, 400, "{}", bad_quality.body);
    assert!(
        bad_quality.body.contains("\"reason\":\"bad-quality\""),
        "{}",
        bad_quality.body
    );

    // Well-formed values are still accepted.
    let ok = http(
        addr,
        "POST",
        "/jobs",
        &[
            ("X-Ptmap-Deadline-Ms", "60000"),
            ("X-Ptmap-Quality", "heuristic"),
        ],
        &spec,
    );
    assert_eq!(ok.status, 202, "{}", ok.body);

    // The sync path's malformed-deadline rejection carries the same
    // structured reason.
    let sync_bad = http(
        addr,
        "POST",
        "/compile",
        &[("X-Ptmap-Deadline-Ms", "soon")],
        &spec,
    );
    assert_eq!(sync_bad.status, 400, "{}", sync_bad.body);
    assert!(
        sync_bad.body.contains("\"reason\":\"bad-deadline\""),
        "{}",
        sync_bad.body
    );

    handle.shutdown();
    runner.join().unwrap();
}

#[test]
fn queue_full_rejections_carry_retry_after() {
    // One worker and a one-slot queue: the second and third async
    // submissions of slow compiles overflow the queue.
    let _fault = faultpoint::install("mapper_place:delay:300@slow").unwrap();
    let (addr, handle, runner) = boot(ServeConfig {
        workers: 1,
        queue_cap: 1,
        ..ServeConfig::default()
    });

    let mut saw_503 = None;
    for i in 0..6 {
        let spec = compile_spec("slow", &format!("vecsum:{}", 8 + 4 * i));
        let reply = http(addr, "POST", "/jobs", &[], &spec);
        if reply.status == 503 {
            saw_503 = Some(reply);
            break;
        }
        assert_eq!(reply.status, 202, "{}", reply.body);
    }
    let reject = saw_503.expect("a one-slot queue must overflow within six submissions");
    assert!(
        reject.body.contains("\"reason\":\"queue-full\""),
        "{}",
        reject.body
    );
    let retry_after: u64 = reject
        .header("retry-after")
        .expect("busy rejections must carry Retry-After")
        .parse()
        .expect("Retry-After is seconds");
    assert!(retry_after >= 1);

    handle.shutdown();
    runner.join().unwrap();
}

#[test]
fn bad_requests_and_unknown_routes() {
    let (addr, handle, runner) = boot(ServeConfig::default());
    assert_eq!(http(addr, "POST", "/compile", &[], "{ nope").status, 400);
    assert_eq!(
        http(addr, "POST", "/compile", &[], "{\"kernel\":\"gemm:8\"}").status,
        400,
        "missing arch is a spec error"
    );
    assert_eq!(
        http(
            addr,
            "POST",
            "/compile",
            &[],
            "{\"kernel\":\"nope:1\",\"arch\":\"S4\"}"
        )
        .status,
        400,
        "unresolvable kernel"
    );
    assert_eq!(http(addr, "GET", "/compile", &[], "").status, 405);
    assert_eq!(http(addr, "DELETE", "/jobs", &[], "").status, 405);
    assert_eq!(http(addr, "GET", "/", &[], "").status, 404);
    // The daemon has no model endpoint: `/model` is an unknown route.
    let reply = http(addr, "GET", "/model", &[], "");
    assert_eq!(reply.status, 404, "{}", reply.body);
    assert_eq!(error_message(&reply.body), "not found");
    // A trace path without an id is a JSON 404, not a handler panic.
    for path in ["/jobs/trace", "/jobs//trace"] {
        let reply = http(addr, "GET", path, &[], "");
        assert_eq!(reply.status, 404, "{path}: {}", reply.body);
        assert!(reply.body.contains("\"error\""), "{path}: {}", reply.body);
    }
    // Error bodies are JSON whatever the input echoes back: a
    // non-numeric job id (quotes) and a control character in the spec.
    let reply = http(addr, "GET", "/jobs/x", &[], "");
    assert_eq!(reply.status, 400, "{}", reply.body);
    assert_eq!(error_message(&reply.body), "bad job id \"x\"");
    let reply = http(addr, "POST", "/compile", &[], CONTROL_CHAR_SPEC);
    assert_eq!(reply.status, 400, "{}", reply.body);
    assert!(
        error_message(&reply.body).starts_with("unknown kernel \u{1} "),
        "{}",
        reply.body
    );
    handle.shutdown();
    runner.join().unwrap();
}

/// A spec whose kernel name is U+0001, JSON-escaped.
const CONTROL_CHAR_SPEC: &str = "{\"kernel\":\"\\u0001\",\"arch\":\"S4\"}";

/// The `error` string of a JSON error body; panics unless the body
/// parses as JSON.
fn error_message(body: &str) -> String {
    let doc: serde_json::Value =
        serde_json::from_str(body).unwrap_or_else(|e| panic!("bad JSON ({e}): {body}"));
    doc.get("error")
        .and_then(serde_json::Value::as_str)
        .unwrap_or_else(|| panic!("no error field: {body}"))
        .to_string()
}

#[test]
fn sigterm_drains_and_exits_zero() {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_ptmap"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn daemon");

    // The boot line carries the ephemeral port.
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout"));
    let mut boot_line = String::new();
    stdout.read_line(&mut boot_line).expect("boot line");
    let addr: SocketAddr = boot_line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected boot line {boot_line:?}"))
        .parse()
        .expect("bound address");

    // Prove it serves, then ask it to drain.
    let reply = http(
        addr,
        "POST",
        "/compile",
        &[],
        &compile_spec("term", "vecsum:8"),
    );
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_eq!(http(addr, "GET", "/healthz", &[], "").status, 200);

    let term = std::process::Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());

    // Exit must happen within the drain window (nothing is in flight).
    let t0 = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            break status;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "daemon did not exit after SIGTERM"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(status.code(), Some(0), "graceful drain exits 0");

    let mut err = String::new();
    child
        .stderr
        .take()
        .expect("stderr")
        .read_to_string(&mut err)
        .expect("read stderr");
    assert!(err.contains("drained"), "drain summary on stderr: {err}");
    assert!(
        err.contains("--- final metrics ---"),
        "metrics flushed on drain: {err}"
    );
    assert!(
        err.contains("ptmap_http_requests_total"),
        "flushed metrics include request counters: {err}"
    );
}

#[test]
fn draining_server_refuses_new_work() {
    let (addr, handle, runner) = boot(ServeConfig::default());
    // Drain with nothing in flight: the run loop exits quickly; the
    // summary reflects the lifetime counters.
    assert_eq!(http(addr, "GET", "/healthz", &[], "").status, 200);
    handle.shutdown();
    let summary = runner.join().unwrap();
    assert!(summary.clean);
    assert_eq!(summary.compiles, 0);
    assert_eq!(summary.requests, 1);
    // The port is released after drain.
    assert!(
        TcpStream::connect(addr).is_err() || {
            // Accepting a connection after close can race on some
            // platforms; a refused write settles it.
            true
        }
    );
}
