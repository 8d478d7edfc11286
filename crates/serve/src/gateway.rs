//! The sharding gateway: one HTTP front for a cluster of daemons.
//!
//! `ptmap gateway` runs on the daemon's `service` (`service.rs`)
//! skeleton but compiles nothing itself. Every `POST /compile` is
//! routed by its pipeline
//! [`request_key`](ptmap_pipeline::request_key) over a consistent-hash
//! [`HashRing`] of backend daemons, so one kernel always lands on the
//! same peer and that peer's report cache stays hot. Around that core
//! routing decision the gateway layers the cluster's failure handling:
//!
//! * **Health-checked ejection** — a prober thread hits each peer's
//!   `/healthz` every `probe_interval`; a run of failures opens that
//!   peer's [`Breaker`] and replica selection skips it until a cooldown
//!   passes and a half-open probe succeeds. Ring membership never
//!   changes, so a recovered peer gets its keys (and cache) back.
//! * **Retry with backoff** — connect/transport failures and peer
//!   `503`s reshard to the next replica in the key's failover sequence
//!   after an exponential backoff (25 ms base) with deterministic
//!   jitter, all under the request's governor [`Budget`]; the deadline
//!   bounds the whole forward including every retry.
//! * **Deadline & trace propagation** — every hop re-derives
//!   `X-Ptmap-Deadline-Ms` from the *remaining* budget and carries the
//!   client's `X-Ptmap-Trace-Id` through, so a trace spans the cluster.
//!
//! `GET /metrics` serves the gateway's own series plus a cluster
//! rollup scraped from live peers; `GET /cluster` is the membership
//! introspection endpoint.

use crate::client::{self, ClientError, PeerResponse};
use crate::http::{Request, Response};
use crate::lock_unpoisoned;
use crate::service::{
    error_outcome, error_response, outcome_response, with_retry_after, Core, Service, ServiceHandle,
};
use crate::shard::{Breaker, BreakerState, HashRing};
use crate::traces::TraceStore;
use ptmap_core::PtMapConfig;
use ptmap_governor::faultpoint::{fail_point, with_scope};
use ptmap_governor::{faultpoint::sites, Budget};
use ptmap_trace::obs::{Level, LogFormat};
use ptmap_trace::prom::{parse_label_set, Exposition, Kind, Value as Sample};
use ptmap_trace::{
    chrome_trace_json, hash64, next_trace_id, stitch, AttrValue, Span, Trace, Tracer, FORWARD_SPAN,
    WINNER_ATTR,
};
use serde_json::Value;
use std::collections::BTreeMap;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Deadline for one health probe or metrics scrape of a peer.
const PROBE_DEADLINE: Duration = Duration::from_millis(750);
/// Deadline for assembling one stitched trace (the peer fan-out).
const TRACE_DEADLINE: Duration = Duration::from_secs(10);
/// First retry backoff step; doubles per retry, plus deterministic
/// jitter below one step.
const BACKOFF: Duration = Duration::from_millis(25);

/// How the gateway is configured (flags + defaults).
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Bind address (port `0` = ephemeral; printed on boot).
    pub addr: String,
    /// Backend daemon addresses (`host:port`). The ring is built over
    /// the deduplicated set.
    pub peers: Vec<String>,
    /// Health-probe period per peer.
    pub probe_interval: Duration,
    /// Consecutive failures that open a peer's breaker.
    pub failure_threshold: u32,
    /// How long an open breaker waits before a half-open probe.
    pub cooldown: Duration,
    /// Extra forward attempts after the first (resharded to the next
    /// replica each time).
    pub max_retries: u32,
    /// Base compiler configuration — must match the peers' so request
    /// keys (and therefore routing and cache identity) agree.
    pub base: PtMapConfig,
    /// Per-request deadline when the client sends none; also the cap
    /// on client-supplied `X-Ptmap-Deadline-Ms`.
    pub default_timeout: Duration,
    /// How long drain waits for in-flight forwards.
    pub drain_timeout: Duration,
    /// Minimum severity the structured event log records.
    pub log_level: Level,
    /// How event-log lines are rendered on stderr (the `/debug/events`
    /// flight recorder always keeps JSON).
    pub log_format: LogFormat,
}

impl Default for GatewayConfig {
    fn default() -> GatewayConfig {
        GatewayConfig {
            addr: "127.0.0.1:7190".to_string(),
            peers: Vec::new(),
            probe_interval: Duration::from_millis(500),
            failure_threshold: 3,
            cooldown: Duration::from_secs(2),
            max_retries: 3,
            base: PtMapConfig::default(),
            default_timeout: Duration::from_secs(300),
            drain_timeout: Duration::from_secs(20),
            log_level: Level::Info,
            log_format: LogFormat::Text,
        }
    }
}

/// What the gateway reported when it exited.
#[derive(Debug, Clone)]
pub struct GatewaySummary {
    /// Requests handled over the gateway's lifetime.
    pub requests: u64,
    /// Forward attempts dispatched to peers.
    pub forwards: u64,
    /// Forward attempts that were retries.
    pub retries: u64,
    /// Whether everything in flight finished inside the drain timeout.
    pub clean: bool,
}

/// Live per-peer state: identity, breaker, and counters.
struct Peer {
    addr: String,
    breaker: Mutex<Breaker>,
    /// Forward attempts that reached a parsed HTTP response.
    forwards: AtomicU64,
    /// Forward attempts that failed in transport.
    failures: AtomicU64,
    probes_ok: AtomicU64,
    probes_failed: AtomicU64,
}

/// Everything the gateway's handler threads share.
struct GatewayState {
    core: Core,
    config: GatewayConfig,
    ring: HashRing,
    peers: Vec<Peer>,
    /// Finished gateway-side span trees, ready for stitching.
    traces: TraceStore,
    /// (peer index, new state name) → transition count.
    transitions: Mutex<BTreeMap<(usize, &'static str), u64>>,
    retries: AtomicU64,
}

impl GatewayState {
    /// Forward attempts answered, over all peers.
    fn forwards(&self) -> u64 {
        self.peers
            .iter()
            .map(|p| p.forwards.load(Ordering::Relaxed))
            .sum()
    }

    /// Records a breaker transition for `/metrics`, `/cluster`, and
    /// the event log.
    fn note_transition(&self, peer: usize, change: Option<(BreakerState, BreakerState)>) {
        if let Some((from, to)) = change {
            *lock_unpoisoned(&self.transitions)
                .entry((peer, to.name()))
                .or_default() += 1;
            self.core.log.info(
                "breaker_transition",
                None,
                "",
                &[
                    ("peer", AttrValue::Str(self.peers[peer].addr.clone())),
                    ("from", from.name().into()),
                    ("to", to.name().into()),
                ],
            );
        }
    }

    /// Feeds one success or failure of peer `idx` to its breaker.
    fn record(&self, idx: usize, ok: bool) {
        let now = Instant::now();
        let mut breaker = lock_unpoisoned(&self.peers[idx].breaker);
        let change = if ok {
            breaker.record_success(now)
        } else {
            breaker.record_failure(now)
        };
        drop(breaker);
        self.note_transition(idx, change);
    }

    /// Peer indices whose breaker admits traffic right now.
    fn available_peers(&self) -> Vec<usize> {
        let now = Instant::now();
        (0..self.peers.len())
            .filter(|i| lock_unpoisoned(&self.peers[*i].breaker).admits(now))
            .collect()
    }

    /// The failover sequence for `key`, rotated by `offset`, with
    /// breaker-ejected peers moved to the back (they are still tried
    /// last rather than never — a fully ejected cluster beats an
    /// instant failure).
    fn candidates(&self, key: &str, offset: usize) -> Vec<usize> {
        let order = self.ring.replicas(key);
        if order.is_empty() {
            return order;
        }
        let rotated: Vec<usize> = (0..order.len())
            .map(|i| order[(offset + i) % order.len()])
            .collect();
        let now = Instant::now();
        let (open, shut): (Vec<usize>, Vec<usize>) = rotated
            .into_iter()
            .partition(|i| lock_unpoisoned(&self.peers[*i].breaker).admits(now));
        open.into_iter().chain(shut).collect()
    }
}

/// The bound, not-yet-running gateway.
pub struct Gateway {
    listener: TcpListener,
    state: Arc<GatewayState>,
}

impl Gateway {
    /// Binds the listener and builds the ring. Fails if no peers were
    /// given — a gateway with nothing behind it can only say 503.
    pub fn bind(config: GatewayConfig) -> std::io::Result<Gateway> {
        if config.peers.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "gateway needs at least one --peer",
            ));
        }
        let (listener, core) = Core::bind(
            "gateway",
            &config.addr,
            config.log_level,
            config.log_format,
            config.drain_timeout,
        )?;
        let ring = HashRing::new(&config.peers);
        let peers = ring
            .peers()
            .iter()
            .map(|addr| Peer {
                addr: addr.clone(),
                breaker: Mutex::new(Breaker::new(config.failure_threshold, config.cooldown)),
                forwards: AtomicU64::new(0),
                failures: AtomicU64::new(0),
                probes_ok: AtomicU64::new(0),
                probes_failed: AtomicU64::new(0),
            })
            .collect();
        let state = Arc::new(GatewayState {
            core,
            ring,
            peers,
            traces: TraceStore::new(),
            transitions: Mutex::new(BTreeMap::new()),
            retries: AtomicU64::new(0),
            config,
        });
        Ok(Gateway { listener, state })
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
    pub fn run(self) -> GatewaySummary {
        let state = Arc::clone(&self.state);

        // The health prober drives breaker transitions even when no
        // traffic is flowing, so recovery does not wait for a victim
        // request.
        let prober = {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("ptmap-probe".to_string())
                .spawn(move || {
                    while !state.core.stopping() {
                        for idx in 0..state.peers.len() {
                            probe_peer(&state, idx);
                        }
                        // Drain wakes the wait; while serving, the cadence
                        // is `probe_interval`.
                        state.core.wait_stop(state.config.probe_interval);
                    }
                })
                .expect("spawn prober")
        };

        let clean = crate::service::serve(self.listener, Arc::clone(&state), || {
            let _ = prober.join();
        });
        GatewaySummary {
            requests: state.core.metrics.requests_total(),
            forwards: state.forwards(),
            retries: state.retries.load(Ordering::Relaxed),
            clean,
        }
    }
}

impl Service for GatewayState {
    fn core(&self) -> &Core {
        &self.core
    }

    /// `POST /compile`: a forward. The whole hop records a gateway-side
    /// span tree under the client's trace id (or a freshly minted one),
    /// which is retained for stitching with the daemon's compile tree.
    fn compile(&self, request: &Request, _stream: &TcpStream) -> Response {
        if self.core.draining() {
            return draining_response(self);
        }
        let (trace_id, tracer) = gateway_tracer(request);
        let response = {
            let root = tracer.span("gateway");
            root.attr("endpoint", "compile");
            compile_via_cluster(self, request, &root, &trace_id)
        };
        if let Some(trace) = tracer.finish() {
            self.traces.insert(trace);
        }
        // Error paths carry no daemon-set trace-id header; stamp ours so
        // the client can still fetch the gateway-side trace.
        if response
            .headers
            .iter()
            .any(|(n, _)| n.eq_ignore_ascii_case("x-ptmap-trace-id"))
        {
            response
        } else {
            response.with_header("X-Ptmap-Trace-Id", trace_id)
        }
    }

    /// `GET /jobs/<trace-id>/trace`: one stitched cluster trace. The
    /// gateway's own span tree (admission, forwards, retries) and the
    /// daemon's compile tree are merged under the shared trace id: the
    /// daemon's spans graft onto the winning `forward` span. The gateway
    /// half comes from the local store; the daemon half is fanned out to
    /// live (breaker-admitting) peers with each probe bounded by a slice
    /// of the remaining request budget so one hung peer cannot starve
    /// the rest of the fan-out.
    fn trace(&self, trace_id: &str, raw: bool) -> Response {
        let budget = self.core.root.scoped_child(Some(TRACE_DEADLINE));

        let stored = self.traces.by_trace_id(trace_id);
        let gateway = stored.map(|s| s.raw.as_ref().clone());
        let mut daemon: Option<Trace> = None;
        let peers = self.available_peers();
        let total = peers.len();
        for (i, idx) in peers.into_iter().enumerate() {
            if budget.check().is_err() {
                break;
            }
            // Each probe gets an even slice of what is left (with a small
            // floor), never the whole remaining budget.
            let left = budget.remaining().unwrap_or(TRACE_DEADLINE);
            let slice = (left / (total - i) as u32)
                .max(Duration::from_millis(100))
                .min(left);
            let remote = format!("/jobs/{trace_id}/trace?format=raw");
            let deadline = Some(Instant::now() + slice);
            if let Ok(resp) = forward_once(self, idx, "GET", &remote, &[], b"", deadline) {
                if let Some(t) = parse_raw_trace(&resp) {
                    daemon = Some(t);
                    break;
                }
            }
        }
        trace_response(gateway, daemon, raw)
            .unwrap_or_else(|| error_response(404, &format!("no trace {trace_id}")))
    }

    fn extra_path(&self) -> Option<&'static str> {
        Some("/cluster")
    }

    /// `GET /cluster`: membership and breaker introspection.
    fn extra(&self) -> Response {
        let now = Instant::now();
        let transitions = lock_unpoisoned(&self.transitions).clone();
        let peers: Vec<Value> = self
            .peers
            .iter()
            .enumerate()
            .map(|(idx, peer)| {
                let mut breaker = lock_unpoisoned(&peer.breaker);
                let state_name = breaker.state(now).name();
                let consecutive = breaker.consecutive_failures();
                drop(breaker);
                let opened = transitions.get(&(idx, "open")).copied().unwrap_or(0);
                Value::Object(vec![
                    ("addr".to_string(), Value::Str(peer.addr.clone())),
                    ("state".to_string(), Value::Str(state_name.to_string())),
                    (
                        "consecutive_failures".to_string(),
                        Value::UInt(u64::from(consecutive)),
                    ),
                    (
                        "forwards".to_string(),
                        Value::UInt(peer.forwards.load(Ordering::Relaxed)),
                    ),
                    (
                        "failures".to_string(),
                        Value::UInt(peer.failures.load(Ordering::Relaxed)),
                    ),
                    (
                        "probes_ok".to_string(),
                        Value::UInt(peer.probes_ok.load(Ordering::Relaxed)),
                    ),
                    (
                        "probes_failed".to_string(),
                        Value::UInt(peer.probes_failed.load(Ordering::Relaxed)),
                    ),
                    ("times_opened".to_string(), Value::UInt(opened)),
                ])
            })
            .collect();
        let doc = Value::Object(vec![
            ("peers".to_string(), Value::Array(peers)),
            (
                "available".to_string(),
                Value::UInt(self.available_peers().len() as u64),
            ),
            (
                "vnodes_per_peer".to_string(),
                Value::UInt(crate::shard::VNODES as u64),
            ),
            ("draining".to_string(), Value::Bool(self.core.draining())),
        ]);
        Response::json(200, serde_json::to_string(&doc).unwrap_or_default())
    }

    /// Ready iff the gateway can route somewhere.
    fn healthz(&self) -> Response {
        match self.available_peers().len() {
            0 => Response::json(503, "{\"status\":\"no peers available\"}".to_string()),
            n => Response::json(
                200,
                format!("{{\"status\":\"ok\",\"peers_available\":{n}}}"),
            ),
        }
    }

    fn metrics_text(&self, live: bool) -> String {
        render_gateway_metrics(self, live)
    }

    fn summary(&self) -> Vec<(&'static str, AttrValue)> {
        vec![
            ("forwards", self.forwards().into()),
            ("retries", self.retries.load(Ordering::Relaxed).into()),
        ]
    }
}

/// A gateway-side trace under the client's `X-Ptmap-Trace-Id`, or
/// under a freshly minted id.
fn gateway_tracer(request: &Request) -> (String, Tracer) {
    let trace_id = request
        .header("x-ptmap-trace-id")
        .map(str::to_string)
        .unwrap_or_else(|| next_trace_id("gateway"));
    let tracer = Tracer::root_with_id("gateway", trace_id.clone());
    (trace_id, tracer)
}

/// Runs faultpoint `site` scoped to peer `addr`, as the client error
/// the injected fault simulates.
fn peer_fault(addr: &str, site: &'static str) -> Result<(), ClientError> {
    with_scope(addr, || fail_point(site)).map_err(|f| {
        if f.refused {
            ClientError::Connect(format!("{addr}: injected refusal"))
        } else {
            ClientError::Io(format!("injected fault at {}", f.site))
        }
    })
}

/// One health probe of one peer; drives its breaker.
fn probe_peer(state: &GatewayState, idx: usize) {
    let peer = &state.peers[idx];
    let deadline = Instant::now()
        + PROBE_DEADLINE.min(state.config.probe_interval.max(Duration::from_millis(50)));
    let healthy = peer_fault(&peer.addr, sites::PEER_HEALTH).is_ok()
        && client::request(&peer.addr, "GET", "/healthz", &[], b"", Some(deadline))
            .is_ok_and(|resp| resp.status == 200);
    let counter = if healthy {
        &peer.probes_ok
    } else {
        &peer.probes_failed
    };
    counter.fetch_add(1, Ordering::Relaxed);
    state.record(idx, healthy);
}

/// Why a forward produced no relayable response.
enum ForwardError {
    /// The ring is empty (cannot happen post-`bind`, but total).
    NoPeers,
    /// The request budget expired mid-forward.
    Deadline,
    /// Every attempt failed in transport; the last error and its class.
    Exhausted { attempts: u32, last: String },
}

/// One attempt against one peer, through the faultpoint.
fn forward_once(
    state: &GatewayState,
    idx: usize,
    method: &str,
    path: &str,
    headers: &[(String, String)],
    body: &[u8],
    deadline: Option<Instant>,
) -> Result<PeerResponse, ClientError> {
    let peer = &state.peers[idx];
    peer_fault(&peer.addr, sites::GATEWAY_FORWARD)?;
    let borrowed: Vec<(&str, &str)> = headers
        .iter()
        .map(|(n, v)| (n.as_str(), v.as_str()))
        .collect();
    client::request(&peer.addr, method, path, &borrowed, body, deadline)
}

/// Forwards a `POST /compile` with bounded retries, resharding to the
/// next replica after each transport failure (or peer 503) with
/// exponential backoff and deterministic jitter, all inside `budget`.
/// Returns the first real response and the peer index that produced
/// it. Every attempt opens a `forward` child span under `tracer`
/// carrying the peer, attempt number, outcome, and any backoff that
/// followed; the attempt that produced the relayed response is marked
/// `winner=true` (the stitch anchor).
fn forward_with_retries(
    state: &GatewayState,
    key: &str,
    headers: &[(String, String)],
    body: &[u8],
    budget: &Budget,
    tracer: &Tracer,
) -> Result<(PeerResponse, usize), ForwardError> {
    if state.ring.is_empty() {
        return Err(ForwardError::NoPeers);
    }
    let mut last_err = String::new();
    let mut last_busy: Option<(PeerResponse, usize)> = None;
    let mut attempts = 0u32;
    for attempt in 0..=state.config.max_retries {
        if budget.check().is_err() {
            return Err(ForwardError::Deadline);
        }
        let order = state.candidates(key, attempt as usize);
        let idx = order[0];
        let peer = &state.peers[idx];
        if attempt > 0 {
            state.retries.fetch_add(1, Ordering::Relaxed);
        }
        attempts += 1;

        let span = tracer.span(FORWARD_SPAN);
        span.attr("peer", peer.addr.as_str());
        span.attr("attempt", u64::from(attempt));
        // Breaker evidence: how many preferred replicas were ejected
        // and demoted behind this choice.
        let now = Instant::now();
        let ejected = order
            .iter()
            .filter(|i| !lock_unpoisoned(&state.peers[**i].breaker).admits(now))
            .count();
        if ejected > 0 {
            span.event_attr("breaker_skip", "ejected", ejected);
        }

        // Re-derive the hop deadline from what is left *now*.
        let mut hop_headers: Vec<(String, String)> = headers.to_vec();
        if let Some(left) = budget.remaining() {
            hop_headers.push((
                "X-Ptmap-Deadline-Ms".to_string(),
                (left.as_millis() as u64).max(1).to_string(),
            ));
        }
        match forward_once(
            state,
            idx,
            "POST",
            "/compile",
            &hop_headers,
            body,
            budget.deadline(),
        ) {
            Ok(resp) => {
                peer.forwards.fetch_add(1, Ordering::Relaxed);
                span.attr("status", u64::from(resp.status));
                // Any parsed response proves the peer alive.
                state.record(idx, true);
                if resp.status == 503 {
                    // Overloaded or draining: reshard, but the breaker
                    // stays closed — the peer is answering.
                    span.event("peer_busy");
                    last_busy = Some((resp, idx));
                    last_err = format!("{}: 503 busy", peer.addr);
                } else {
                    span.attr(WINNER_ATTR, true);
                    return Ok((resp, idx));
                }
            }
            Err(e) => {
                peer.failures.fetch_add(1, Ordering::Relaxed);
                state.record(idx, false);
                if matches!(e, ClientError::DeadlineExpired) {
                    span.attr("error", "deadline");
                    return Err(ForwardError::Deadline);
                }
                span.attr("error", e.to_string());
                last_err = format!("{}: {e}", peer.addr);
            }
        }
        // Backoff before the next replica: BACKOFF·2^attempt plus
        // jitter derived from (key, attempt) so a thundering herd of
        // retries for different keys spreads out, capped by the budget.
        if attempt < state.config.max_retries {
            let step = BACKOFF.saturating_mul(1 << attempt.min(10));
            let jitter_ms =
                hash64(format!("{key}:{attempt}").as_bytes()) % (BACKOFF.as_millis() as u64);
            let mut sleep = step + Duration::from_millis(jitter_ms);
            if let Some(left) = budget.remaining() {
                sleep = sleep.min(left);
            }
            span.attr("backoff_ms", sleep.as_millis() as u64);
            drop(span);
            std::thread::sleep(sleep);
        }
    }
    // All attempts spent. A peer's own 503 is more truthful than a
    // synthesized 502 — relay the last one if we saw any.
    if let Some(busy) = last_busy {
        return Ok(busy);
    }
    Err(ForwardError::Exhausted {
        attempts,
        last: last_err,
    })
}

/// Maps a terminal forward error to the client-facing response, in the
/// same outcome shape the daemons produce.
fn forward_error_response(
    state: &GatewayState,
    name: &str,
    err: ForwardError,
    trace_id: Option<&str>,
) -> Response {
    let (reason, class, message) = match &err {
        ForwardError::NoPeers => ("no-peers", "overloaded", "no backend peers".to_string()),
        ForwardError::Deadline => (
            "deadline",
            "timeout",
            "deadline expired while forwarding".to_string(),
        ),
        ForwardError::Exhausted { attempts, last } => (
            "unreachable",
            "unreachable",
            format!("all {attempts} forward attempts failed; last: {last}"),
        ),
    };
    state.core.metrics.reject(reason);
    let mut fields = vec![("name", name.into()), ("reason", reason.into())];
    if let ForwardError::Exhausted { attempts, .. } = err {
        fields.push(("attempts", u64::from(attempts).into()));
    }
    state
        .core
        .log
        .warn("forward_failed", trace_id, &message, &fields);
    let response = outcome_response(&error_outcome(name, class, message));
    match err {
        ForwardError::NoPeers => with_retry_after(response, 1),
        ForwardError::Deadline => response,
        // An unreachable cluster is a bad gateway, not a compile error.
        ForwardError::Exhausted { .. } => Response {
            status: 502,
            ..response
        },
    }
}

/// Relays a peer response, keeping the body byte-identical and the
/// API-meaningful headers, and stamping which peer answered.
fn relay(state: &GatewayState, resp: PeerResponse, idx: usize) -> Response {
    let mut out = Response::json(resp.status, String::new());
    out.body = resp.body.clone();
    for name in [
        "x-ptmap-trace-id",
        "x-ptmap-quality",
        "x-ptmap-coalesced",
        "retry-after",
    ] {
        if let Some(v) = resp.header(name) {
            out = out.with_header(name, v.to_string());
        }
    }
    out.with_header("X-Ptmap-Peer", state.peers[idx].addr.clone())
}

/// Headers propagated on every forwarded hop (minus the deadline,
/// which [`forward_with_retries`] re-derives per attempt).
fn hop_headers(request: &Request) -> Vec<(String, String)> {
    let mut headers = vec![("Content-Type".to_string(), "application/json".to_string())];
    for name in ["x-ptmap-trace-id", "x-ptmap-quality"] {
        if let Some(v) = request.header(name) {
            headers.push((name.to_string(), v.to_string()));
        }
    }
    headers
}

/// The gateway's own draining 503.
fn draining_response(state: &GatewayState) -> Response {
    state.core.metrics.reject("draining");
    with_retry_after(
        Response::json(
            503,
            "{\"error\":\"gateway is draining\",\"reason\":\"draining\"}".to_string(),
        ),
        state.config.drain_timeout.as_secs(),
    )
}

/// The body of one traced sync compile: admission, ring lookup,
/// forward.
fn compile_via_cluster(
    state: &GatewayState,
    request: &Request,
    root: &Span,
    trace_id: &str,
) -> Response {
    let admission = root.tracer().span("admission");
    let parsed = state
        .core
        .parse_job(request, &state.config.base, state.config.default_timeout);
    let (name, key, budget) = match parsed {
        Ok(r) => {
            admission.attr("timeout_ms", r.timeout.as_millis() as u64);
            (r.job.name, r.key, r.budget)
        }
        Err(resp) => {
            admission.attr("rejected", u64::from(resp.status));
            return resp;
        }
    };
    drop(admission);

    {
        let lookup = root.tracer().span("ring_lookup");
        let order = state.candidates(&key, 0);
        lookup.attr("owner", state.peers[order[0]].addr.as_str());
        lookup.attr("replicas", order.len());
    }

    // Always propagate the gateway's trace id: the daemon adopts it
    // (and force-keeps the trace), so its compile tree is fetchable
    // under the same id for stitching.
    let mut headers = hop_headers(request);
    if !headers
        .iter()
        .any(|(n, _)| n.eq_ignore_ascii_case("x-ptmap-trace-id"))
    {
        headers.push(("x-ptmap-trace-id".to_string(), trace_id.to_string()));
    }
    let forwarded =
        forward_with_retries(state, &key, &headers, &request.body, &budget, root.tracer());
    match forwarded {
        Ok((resp, idx)) => {
            state.core.log.info(
                "compile",
                Some(trace_id),
                "",
                &[
                    ("name", name.as_str().into()),
                    ("status", u64::from(resp.status).into()),
                    ("peer", AttrValue::Str(state.peers[idx].addr.clone())),
                ],
            );
            relay(state, resp, idx)
        }
        Err(err) => forward_error_response(state, &name, err, Some(trace_id)),
    }
}

/// Parses a raw daemon [`Trace`] out of a peer's
/// `/jobs/<trace-id>/trace?format=raw` response.
fn parse_raw_trace(resp: &PeerResponse) -> Option<Trace> {
    if resp.status != 200 {
        return None;
    }
    serde_json::from_str::<Trace>(&resp.body_text()).ok()
}

/// Serves whichever trace halves were found, stitched: Chrome
/// trace-event JSON by default, the raw span tree with `?format=raw`.
fn trace_response(gateway: Option<Trace>, daemon: Option<Trace>, raw: bool) -> Option<Response> {
    let trace = match (gateway, daemon) {
        (Some(gw), daemon) => stitch(&gw, &Vec::from_iter(daemon)),
        (None, daemon) => daemon?,
    };
    let body = if raw {
        serde_json::to_string(&trace).unwrap_or_else(|_| "{}".to_string())
    } else {
        chrome_trace_json(&trace)
    };
    Some(Response::json(200, body).with_header("X-Ptmap-Trace-Id", trace.trace_id.clone()))
}

/// The scalar singletons re-exported per peer in the cluster rollup.
const ROLLUP_METRICS: [(&str, &str); 4] = [
    (
        "ptmap_compiles_started_total",
        "ptmap_cluster_compiles_started_total",
    ),
    ("ptmap_inflight_compiles", "ptmap_cluster_inflight_compiles"),
    ("ptmap_cache_hits_total", "ptmap_cluster_cache_hits_total"),
    (
        "ptmap_process_start_time_seconds",
        "ptmap_cluster_peer_start_time_seconds",
    ),
];

/// Renders the gateway `/metrics` document. `rollup` additionally
/// scrapes each live peer's `/metrics` for the cluster view (skipped in
/// tests and the drain summary, where no network should be touched).
fn render_gateway_metrics(state: &GatewayState, rollup: bool) -> String {
    let mut w = Exposition::default();
    state.core.metrics.expose(&mut w);

    let mut family = w.family(
        "ptmap_gateway_forwards_total",
        Kind::Counter,
        "Forward attempts answered, by peer.",
    );
    for peer in &state.peers {
        family.series(
            &[("peer", peer.addr.as_str())],
            peer.forwards.load(Ordering::Relaxed),
        );
    }
    let mut family = w.family(
        "ptmap_gateway_forward_failures_total",
        Kind::Counter,
        "Forward attempts failed in transport, by peer.",
    );
    for peer in &state.peers {
        family.series(
            &[("peer", peer.addr.as_str())],
            peer.failures.load(Ordering::Relaxed),
        );
    }
    let mut family = w.family(
        "ptmap_gateway_probes_total",
        Kind::Counter,
        "Health probes, by peer and outcome.",
    );
    for peer in &state.peers {
        for (outcome, n) in [("ok", &peer.probes_ok), ("failed", &peer.probes_failed)] {
            let labels = [("peer", peer.addr.as_str()), ("outcome", outcome)];
            family.series(&labels, n.load(Ordering::Relaxed));
        }
    }

    let mut family = w.family(
        "ptmap_gateway_breaker_transitions_total",
        Kind::Counter,
        "Breaker transitions, by peer and entered state.",
    );
    for ((idx, to), n) in lock_unpoisoned(&state.transitions).iter() {
        let labels = [("peer", state.peers[*idx].addr.as_str()), ("state", to)];
        family.series(&labels, *n);
    }

    let mut family = w.family(
        "ptmap_gateway_peer_state",
        Kind::Gauge,
        "Breaker state per peer (0=closed, 1=half-open, 2=open).",
    );
    let now = Instant::now();
    let mut available = 0u64;
    for peer in &state.peers {
        let s = lock_unpoisoned(&peer.breaker).state(now);
        if s != BreakerState::Open {
            available += 1;
        }
        let code = match s {
            BreakerState::Closed => 0u64,
            BreakerState::HalfOpen => 1,
            BreakerState::Open => 2,
        };
        family.series(&[("peer", peer.addr.as_str())], code);
    }

    for (name, help, value) in [
        (
            "ptmap_gateway_peers_available",
            "Peers whose breaker admits traffic.",
            available,
        ),
        (
            "ptmap_gateway_draining",
            "1 while the gateway is draining for shutdown.",
            u64::from(state.core.draining()),
        ),
    ] {
        w.scalar(name, Kind::Gauge, help, value);
    }
    w.scalar(
        "ptmap_gateway_retries_total",
        Kind::Counter,
        "Forward attempts that were retries.",
        state.retries.load(Ordering::Relaxed),
    );

    if rollup {
        render_cluster_rollup(state, &mut w);
    }
    w.finish()
}

/// Scrapes each peer's `/metrics` and re-emits headline scalars under
/// `ptmap_cluster_*{peer="..."}`, plus an up/down gauge per peer.
fn render_cluster_rollup(state: &GatewayState, w: &mut Exposition) {
    let mut up: Vec<(usize, bool)> = Vec::new();
    let mut rows: BTreeMap<&'static str, Vec<(usize, Sample)>> = BTreeMap::new();
    let mut builds: Vec<(usize, Vec<(String, String)>)> = Vec::new();
    for (idx, peer) in state.peers.iter().enumerate() {
        let deadline = Instant::now() + PROBE_DEADLINE;
        let scraped = client::request(&peer.addr, "GET", "/metrics", &[], b"", Some(deadline));
        let scraped = scraped.ok().filter(|resp| resp.status == 200);
        up.push((idx, scraped.is_some()));
        let Some(resp) = scraped else { continue };
        let text = resp.body_text();
        for line in text.lines() {
            for (source, target) in ROLLUP_METRICS {
                let value = line.strip_prefix(source).and_then(|r| r.strip_prefix(' '));
                if let Some(value) = value.and_then(Sample::parse) {
                    rows.entry(target).or_default().push((idx, value));
                }
            }
            // Build identity carries its own label set; re-export it
            // with the peer label prepended.
            let labels = line
                .strip_prefix("ptmap_build_info{")
                .and_then(|rest| rest.rsplit_once(' '))
                .and_then(|(body, _)| body.strip_suffix('}'))
                .and_then(|body| parse_label_set(body).ok());
            if let Some(labels) = labels {
                builds.push((idx, labels));
            }
        }
    }
    let mut family = w.family(
        "ptmap_cluster_peer_up",
        Kind::Gauge,
        "Whether the peer answered a metrics scrape.",
    );
    for (idx, ok) in &up {
        family.series(&[("peer", state.peers[*idx].addr.as_str())], u64::from(*ok));
    }
    for (target, series) in rows {
        let mut family = w.family(
            target,
            Kind::Gauge,
            "Peer metric, rolled up by the gateway.",
        );
        for (idx, value) in series {
            family.series(&[("peer", state.peers[idx].addr.as_str())], value);
        }
    }
    if !builds.is_empty() {
        let mut family = w.family(
            "ptmap_cluster_peer_build_info",
            Kind::Gauge,
            "Peer build identity, rolled up by the gateway.",
        );
        for (idx, labels) in &builds {
            let mut all = vec![("peer", state.peers[*idx].addr.as_str())];
            all.extend(labels.iter().map(|(k, v)| (k.as_str(), v.as_str())));
            family.series(&all, 1u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_requires_peers() {
        let err = match Gateway::bind(GatewayConfig {
            addr: "127.0.0.1:0".to_string(),
            ..GatewayConfig::default()
        }) {
            Ok(_) => panic!("bind must fail without peers"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn gateway_metrics_text_is_valid_prometheus() {
        let gw = Gateway::bind(GatewayConfig {
            addr: "127.0.0.1:0".to_string(),
            // A quote in a peer name must be escaped in its labels.
            peers: vec![
                "127.0.0.1:1".to_string(),
                "127.0.0.1:2".to_string(),
                "peer\"3".to_string(),
            ],
            ..GatewayConfig::default()
        })
        .unwrap();
        gw.state
            .core
            .metrics
            .observe_request("compile", 200, Duration::from_millis(5));
        gw.state
            .note_transition(0, Some((BreakerState::Closed, BreakerState::Open)));
        let text = gw.handle().metrics_text();
        ptmap_trace::prom::check_prometheus_text(&text).expect("must parse");
        assert!(text.contains("ptmap_gateway_forwards_total{peer=\"127.0.0.1:1\"} 0"));
        assert!(text.contains(
            "ptmap_gateway_breaker_transitions_total{peer=\"127.0.0.1:1\",state=\"open\"} 1"
        ));
        assert!(text.contains("ptmap_gateway_forwards_total{peer=\"peer\\\"3\"} 0"));
        assert!(text.contains("ptmap_gateway_peers_available 3"));
        assert!(text.contains("ptmap_gateway_retries_total 0"));
    }

    #[test]
    fn candidates_rotate_and_demote_ejected_peers() {
        let gw = Gateway::bind(GatewayConfig {
            addr: "127.0.0.1:0".to_string(),
            peers: vec![
                "127.0.0.1:1".to_string(),
                "127.0.0.1:2".to_string(),
                "127.0.0.1:3".to_string(),
            ],
            failure_threshold: 1,
            ..GatewayConfig::default()
        })
        .unwrap();
        let state = &gw.state;
        let base = state.candidates("some-key", 0);
        assert_eq!(base.len(), 3);
        let rotated = state.candidates("some-key", 1);
        assert_eq!(rotated[0], base[1], "offset rotates the failover order");

        // Eject the owner: it must drop to the back, not vanish.
        let now = Instant::now();
        lock_unpoisoned(&state.peers[base[0]].breaker).record_failure(now);
        let after = state.candidates("some-key", 0);
        assert_eq!(after.len(), 3);
        assert_eq!(*after.last().unwrap(), base[0]);
        assert_eq!(after[0], base[1]);
    }
}
