//! The serve workloads: one `ptmap serve --workers 2` daemon, reached
//! directly (`serve_mixed`) or through `ptmap gateway` (`gateway_mixed`),
//! driven by a closed loop of two client threads sending `POST /compile`.
//!
//! Every pass boots fresh processes on ephemeral ports, so each pass
//! starts with a cold cache and compiles the same fixed set of distinct
//! specs; the seed decides the order in which they arrive and which hot
//! key each repeat names. Each distinct spec first arrives as two
//! back-to-back requests, one per client, so the second coalesces onto
//! the first's compile. Latencies are exact client-side samples.

use crate::stats;
use crate::{peak_rss_mb, Args, Outcome};
use ptmap_pipeline::metrics::Recorder;
use ptmap_pipeline::{compile_job, BatchConfig, Job, JobOutcome, JobSpec, ReportCache};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Whether clients talk to the daemon or to a gateway in front of it.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    Direct,
    Gateway,
}

/// The distinct `(kernel, arch, mode)` specs one pass compiles. The
/// first [`HOT`] form the hot set that most requests repeat; the rest
/// arrive once each (as a coalescing pair) and are never seen again.
const SPECS: &[(&str, &str, &str)] = &[
    ("app:GEM", "S4", "performance"),
    ("app:ATA", "R4", "performance"),
    ("app:TRI", "H6", "pareto"),
    ("app:BLU", "SL8", "performance"),
    ("app:COV", "S4", "pareto"),
    ("app:DOI", "R4", "performance"),
    ("app:TMM", "H6", "performance"),
    ("app:HAR", "SL8", "pareto"),
    ("app:CON", "S4", "performance"),
    ("app:TCO", "R4", "pareto"),
    ("app:WIN", "H6", "performance"),
    ("app:GEM", "SL8", "pareto"),
];
const HOT: usize = 4;
/// The hit/compile mix is a chosen synthetic figure, not one measured
/// from traffic. 4000 requests keep the 24 compiling requests of a pass
/// at 0.6%, so p99 is a cache-hit latency rather than the boundary
/// between hits and compiles, which moves with host speed. The tail
/// therefore does not price compiles; `wall_s` does.
const REQUESTS_PER_PASS: usize = 4000;
/// Estimated cost of one request, traced or not, through the gateway on
/// the 2-core host the benchmark was sized on; sizes traced passes.
const TRACED_MS_PER_REQUEST: f64 = 7.0;
const MIN_TRACED_REQUESTS: usize = 200;
/// Client threads; at most the two cores the benchmark is sized for.
const CLIENTS: usize = 2;
/// Extra boots per run, so `setup_s` is the median of many samples.
const SETUP_REPS: usize = 40;
const BOOT_TIMEOUT: Duration = Duration::from_secs(20);
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

fn request_body(spec: usize) -> String {
    let (kernel, arch, mode) = SPECS[spec];
    format!("{{\"kernel\":\"{kernel}\",\"arch\":\"{arch}\",\"mode\":\"{mode}\"}}")
}

/// The sequence of `requests` requests (indices into [`SPECS`]) of one
/// pass, a pure function of the seed and the pass number.
fn sequence(seed: u64, pass: u64, requests: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ pass.wrapping_mul(0xA076_1D64_78BD_642F));
    let mut hot: Vec<usize> = (0..HOT).collect();
    hot.shuffle(&mut rng);
    let mut fresh: Vec<usize> = (HOT..SPECS.len()).collect();
    fresh.shuffle(&mut rng);
    // Tokens: `None` = one hot repeat, `Some(f)` = a fresh pair.
    let repeats = requests - 2 * SPECS.len();
    let mut tokens: Vec<Option<usize>> = vec![None; repeats];
    tokens.extend(fresh.into_iter().map(Some));
    tokens.shuffle(&mut rng);
    let mut seq: Vec<usize> = hot.iter().flat_map(|&h| [h, h]).collect();
    for t in tokens {
        match t {
            Some(f) => seq.extend([f, f]),
            None => seq.push(rng.gen_range(0..HOT)),
        }
    }
    seq
}

/// Requests per pass of a traced run, sized so that its two passes fit
/// in `seconds` at about [`TRACED_MS_PER_REQUEST`] each.
fn traced_requests(seconds: Duration) -> usize {
    let fit = seconds.as_secs_f64() * 1e3 / 2.0 / TRACED_MS_PER_REQUEST;
    (fit as usize).clamp(MIN_TRACED_REQUESTS, REQUESTS_PER_PASS)
}

/// One HTTP/1.1 exchange on a fresh connection: `(status, body)`.
fn http(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| e.to_string())?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("write {addr}{path}: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read {addr}{path}: {e}"))?;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{addr}{path}: malformed response"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{addr}{path}: no status line"))?;
    Ok((status, body.to_string()))
}

/// Prometheus text exposition as `series -> value`.
fn scrape(addr: &str) -> Result<BTreeMap<String, f64>, String> {
    let (status, body) = http(addr, "GET", "/metrics", "")?;
    if status != 200 {
        return Err(format!("{addr}/metrics answered {status}"));
    }
    Ok(body
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (k, v) = l.rsplit_once(' ')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect())
}

/// Change of every series whose name is `name` (any labels) between
/// two scrapes. Series appear on first use, so the `before` scrape of a
/// fresh process may lack one; `after` must have it, or the program no
/// longer exports what this benchmark reads.
fn delta(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
    name: &str,
) -> Result<f64, String> {
    let matches =
        |k: &String| k == name || k.strip_prefix(name).is_some_and(|r| r.starts_with('{'));
    let sum = |m: &BTreeMap<String, f64>| {
        let values: Vec<f64> = m
            .iter()
            .filter(|(k, _)| matches(k))
            .map(|(_, v)| *v)
            .collect();
        (!values.is_empty()).then(|| values.iter().sum::<f64>())
    };
    let after = sum(after).ok_or_else(|| format!("/metrics has no series {name}"))?;
    Ok(after - sum(before).unwrap_or(0.0))
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}
const SIGTERM: i32 = 15;

/// A spawned `ptmap` process. Dropping it kills and reaps the process,
/// so no daemon or gateway outlives the benchmark on any exit path,
/// including a panic.
struct Proc {
    child: Child,
    addr: String,
    stdout_drain: Option<JoinHandle<()>>,
}

impl Proc {
    /// Spawns `ptmap <args>` and reads its `listening on ADDR` line.
    fn spawn(ptmap: &Path, args: &[&str]) -> Result<Proc, String> {
        let mut child = Command::new(ptmap)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", ptmap.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        // The reader keeps draining the log after the first line, so the
        // child never blocks on a full pipe.
        let stdout_drain = std::thread::spawn(move || {
            let mut lines = BufReader::new(stdout).lines();
            while let Some(Ok(line)) = lines.next() {
                if let Some(addr) = line.strip_prefix("listening on ") {
                    let _ = tx.send(addr.trim().to_string());
                }
            }
        });
        let mut proc = Proc {
            child,
            addr: String::new(),
            stdout_drain: Some(stdout_drain),
        };
        proc.addr = rx
            .recv_timeout(BOOT_TIMEOUT)
            .map_err(|_| format!("ptmap {} printed no listening address", args[0]))?;
        Ok(proc)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Polls `/healthz` until it answers 200.
    fn wait_healthy(&self) -> Result<(), String> {
        let t = Instant::now();
        while t.elapsed() < BOOT_TIMEOUT {
            if matches!(http(&self.addr, "GET", "/healthz", ""), Ok((200, _))) {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Err(format!("{} never became healthy", self.addr))
    }

    /// Sends SIGTERM and waits for the drain; the exit must be clean.
    fn terminate(mut self) -> Result<(), String> {
        // SAFETY: kill(2) takes plain integers and touches no memory of
        // this process; the pid is a child we have not reaped yet.
        let rc = unsafe { kill(self.pid() as i32, SIGTERM) };
        if rc != 0 {
            return Err(format!("SIGTERM to {} failed", self.pid()));
        }
        let t = Instant::now();
        while t.elapsed() < DRAIN_TIMEOUT {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("{} drained with {status}", self.addr)),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(e.to_string()),
            }
        }
        Err(format!(
            "{} did not drain within {DRAIN_TIMEOUT:?}",
            self.addr
        ))
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(drain) = self.stdout_drain.take() {
            let _ = drain.join();
        }
    }
}

/// In-process reference: the deterministic report JSON of every spec.
fn references() -> Result<Vec<(String, f64, f64)>, String> {
    let config = BatchConfig::default();
    SPECS
        .iter()
        .map(|&(kernel, arch, mode)| {
            let job = Job::resolve(&JobSpec {
                name: None,
                kernel: kernel.to_string(),
                arch: arch.to_string(),
                predictor: None,
                mode: Some(mode.to_string()),
            })?;
            let (outcome, _) =
                compile_job(&job, &config, &ReportCache::in_memory(), &Recorder::new());
            let report = outcome
                .report
                .ok_or_else(|| format!("{}: reference compile failed", job.name))?;
            let ii: u32 = report.pnls.iter().map(|p| p.ii).sum();
            let json = serde_json::to_string(&report.without_timing()).expect("report serializes");
            Ok((json, ii as f64, report.cycles as f64))
        })
        .collect()
}

/// One request's exact latency and raw answer.
type Sample = (f64, Result<(u16, String), String>);

/// What one pass measured.
struct Pass {
    setup_s: f64,
    wall_s: f64,
    latency_ms: Vec<f64>,
    rss_mb: f64,
    /// `/metrics` deltas over the pass: daemon, then gateway (if any).
    daemon: (BTreeMap<String, f64>, BTreeMap<String, f64>),
    gateway: Option<(BTreeMap<String, f64>, BTreeMap<String, f64>)>,
}

/// Spawns the daemon (and the gateway in front of it) and waits until
/// the front process answers `/healthz`; returns the set-up seconds.
fn boot(
    args: &Args,
    topology: Topology,
    trace_sample: &str,
) -> Result<(Proc, Option<Proc>, f64), String> {
    let t = Instant::now();
    let daemon = Proc::spawn(
        &args.ptmap,
        &[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--trace-sample",
            trace_sample,
            "--log-level",
            "warn",
        ],
    )?;
    daemon.wait_healthy()?;
    let gateway = match topology {
        Topology::Direct => None,
        Topology::Gateway => {
            let gw = Proc::spawn(
                &args.ptmap,
                &[
                    "gateway",
                    "--addr",
                    "127.0.0.1:0",
                    "--peers",
                    &daemon.addr,
                    "--log-level",
                    "warn",
                ],
            )?;
            gw.wait_healthy()?;
            Some(gw)
        }
    };
    Ok((daemon, gateway, t.elapsed().as_secs_f64()))
}

/// SIGTERM-drains the gateway, then the daemon; each must exit 0.
fn shutdown(daemon: Proc, gateway: Option<Proc>, out: &mut Outcome) {
    if let Some(gw) = gateway {
        gw.terminate()
            .unwrap_or_else(|e| out.mismatch(format!("gateway drain: {e}")));
    }
    daemon
        .terminate()
        .unwrap_or_else(|e| out.mismatch(format!("daemon drain: {e}")));
}

/// Boots the processes, runs one sequence, drains, and checks every
/// response against the in-process reference.
fn run_pass(
    args: &Args,
    topology: Topology,
    seq: &[usize],
    refs: &[(String, f64, f64)],
    trace_sample: &str,
    out: &mut Outcome,
) -> Result<Pass, String> {
    let (daemon, gateway, setup_s) = boot(args, topology, trace_sample)?;
    let target = gateway
        .as_ref()
        .map_or(daemon.addr.clone(), |g| g.addr.clone());
    let bodies: Vec<String> = (0..SPECS.len()).map(request_body).collect();

    let daemon_before = scrape(&daemon.addr)?;
    let gateway_before = gateway.as_ref().map(|g| scrape(&g.addr)).transpose()?;
    let cursor = AtomicUsize::new(0);
    let samples: Mutex<Vec<Option<Sample>>> = Mutex::new(vec![None; seq.len()]);
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= seq.len() {
                    break;
                }
                let t = Instant::now();
                let answer = http(&target, "POST", "/compile", &bodies[seq[i]]);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                samples.lock().expect("samples lock")[i] = Some((ms, answer));
            });
        }
    });
    let wall_s = t.elapsed().as_secs_f64();
    let daemon_after = scrape(&daemon.addr)?;
    let gateway_after = gateway.as_ref().map(|g| scrape(&g.addr)).transpose()?;
    let rss_mb = peak_rss_mb(Path::new(&format!("/proc/{}/status", daemon.pid()))).unwrap_or(0.0);
    shutdown(daemon, gateway, out);

    let samples = samples.into_inner().expect("samples lock");
    let mut latency_ms = Vec::with_capacity(samples.len());
    for (i, sample) in samples.into_iter().enumerate() {
        out.attempted += 1;
        let Some((ms, answer)) = sample else {
            out.failed += 1;
            continue;
        };
        latency_ms.push(ms);
        let verdict = answer.and_then(|(status, body)| {
            if status != 200 {
                return Err(format!("status {status}"));
            }
            let outcome: JobOutcome = serde_json::from_str(&body).map_err(|e| e.to_string())?;
            let report = outcome.report.ok_or("no report")?;
            let json = serde_json::to_string(&report.without_timing()).expect("report serializes");
            if json == refs[seq[i]].0 {
                Ok(())
            } else {
                Err("report differs from the in-process compile".to_string())
            }
        });
        if let Err(e) = verdict {
            out.failed += 1;
            out.mismatch(format!("request {i} ({}): {e}", request_body(seq[i])));
        }
    }
    Ok(Pass {
        setup_s,
        wall_s,
        latency_ms,
        rss_mb,
        daemon: (daemon_before, daemon_after),
        gateway: gateway_before.zip(gateway_after),
    })
}

pub fn run(args: &Args, topology: Topology) -> Result<Outcome, String> {
    let refs = references()?;
    let mut out = Outcome::default();
    if args.trace {
        // The same sequence untraced (the overhead baseline) and traced.
        let seq = sequence(args.seed, 0, traced_requests(args.seconds));
        let plain = run_pass(args, topology, &seq, &refs, "0", &mut out)?;
        let traced = run_pass(args, topology, &seq, &refs, "1", &mut out)?;
        if let Err(e) = layer_metrics(&traced, plain.wall_s, &mut out) {
            out.mismatch(e);
        }
        return Ok(out);
    }

    // Boots that only time set-up are killed when dropped, gateway
    // first; the SIGTERM drain is checked after every pass instead, as
    // the gateway's drain waits out its probe interval.
    let mut setup_s = Vec::new();
    for _ in 0..SETUP_REPS {
        let (daemon, gateway, s) = boot(args, topology, "0")?;
        setup_s.push(s);
        drop((gateway, daemon));
    }
    // Whole passes while the next one still fits in `--seconds`. One
    // pass already leaves p99 with ten samples beyond it.
    let t0 = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let seq = sequence(args.seed, passes.len() as u64, REQUESTS_PER_PASS);
        passes.push(run_pass(args, topology, &seq, &refs, "0", &mut out)?);
        let per_pass = t0.elapsed().as_secs_f64() / passes.len() as f64;
        if t0.elapsed().as_secs_f64() + per_pass > args.seconds.as_secs_f64() {
            break;
        }
    }
    let latencies: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.latency_ms.iter().copied())
        .collect();
    let (pct, tail) = stats::tail(&latencies);
    eprintln!(
        "tail_ms is p{pct} of {} request latencies ({} passes)",
        latencies.len(),
        passes.len()
    );
    let of = |f: fn(&Pass) -> f64| stats::median(&passes.iter().map(f).collect::<Vec<_>>());
    out.metric("wall_s", of(|p| p.wall_s));
    out.metric("p50_ms", stats::median(&latencies));
    out.metric("tail_ms", tail);
    out.metric("ii_sum", refs.iter().map(|r| r.1).sum());
    out.metric(
        "cycles_geomean",
        stats::geomean(&refs.iter().map(|r| r.2).collect::<Vec<_>>()),
    );
    // The daemon's accept loop sleeps 10 ms when idle, so a single boot
    // lands anywhere in that poll; the median of many boots is steady.
    setup_s.extend(passes.iter().map(|p| p.setup_s));
    out.metric("setup_s", stats::median(&setup_s));
    out.metric("peak_rss_mb", of(|p| p.rss_mb));
    Ok(out)
}

/// Per-layer metrics `serve_mixed` reaches; every other reads 0.
pub const LAYERS: &[&str] = &[
    "serve.handler_ms",
    "serve.outside_handler_ms",
    "serve.hit_ratio",
    "serve.coalesced",
    "serve.compiles_started",
    "serve.compile_ms",
    "transform.explore_ms",
    "transform.candidates",
    "eval.evaluate_ms",
    "eval.pruned_ratio",
    "mapper.map_ms",
    "sim.simulate_ms",
    "core.mapper_rejects",
    "trace.overhead_ratio",
];
/// Per-layer metrics `gateway_mixed` reaches in addition to [`LAYERS`].
pub const GATEWAY_LAYERS: &[&str] = &["gateway.hop_ms", "gateway.forwards", "gateway.retries"];

/// Per-layer metrics from the traced pass's `/metrics` deltas. Fails if
/// a series it reads is missing.
fn layer_metrics(pass: &Pass, untraced_wall_s: f64, out: &mut Outcome) -> Result<(), String> {
    let (db, da) = &pass.daemon;
    let d = |name: &str| delta(db, da, name);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let stage =
        |s: &str| Ok::<_, String>(d(&format!("ptmap_stage_seconds_total{{stage=\"{s}\"}}"))? * 1e3);
    let event = |e: &str| d(&format!("ptmap_pipeline_events_total{{event=\"{e}\"}}"));
    let handler_mean = |before, after| -> Result<f64, String> {
        let sum = delta(
            before,
            after,
            "ptmap_http_request_seconds_sum{endpoint=\"compile\"}",
        )?;
        let count = delta(
            before,
            after,
            "ptmap_http_request_seconds_count{endpoint=\"compile\"}",
        )?;
        Ok(ratio(sum * 1e3, count))
    };
    let client_mean = ratio(pass.latency_ms.iter().sum(), pass.latency_ms.len() as f64);
    let daemon_handler = handler_mean(db, da)?;
    let front_handler = match &pass.gateway {
        Some((gb, ga)) => {
            let gw_handler = handler_mean(gb, ga)?;
            out.metric("gateway.hop_ms", gw_handler - daemon_handler);
            out.metric(
                "gateway.forwards",
                delta(gb, ga, "ptmap_gateway_forwards_total")?,
            );
            out.metric(
                "gateway.retries",
                delta(gb, ga, "ptmap_gateway_retries_total")?,
            );
            gw_handler
        }
        None => daemon_handler,
    };
    let compiles = d("ptmap_compiles_started_total")?;
    let mut staged = 0.0;
    for s in ["explore", "evaluate", "map", "simulate"] {
        staged += stage(s)?;
    }
    let hits = d("ptmap_cache_hits_total")?;
    out.metric("serve.handler_ms", daemon_handler);
    out.metric("serve.outside_handler_ms", client_mean - front_handler);
    out.metric(
        "serve.hit_ratio",
        ratio(hits, hits + d("ptmap_cache_misses_total")?),
    );
    out.metric("serve.coalesced", d("ptmap_coalesced_requests_total")?);
    out.metric("serve.compiles_started", compiles);
    out.metric("serve.compile_ms", ratio(staged, compiles));
    out.metric("transform.explore_ms", stage("explore")?);
    out.metric("transform.candidates", event("candidates_explored")?);
    out.metric("eval.evaluate_ms", stage("evaluate")?);
    out.metric(
        "eval.pruned_ratio",
        ratio(event("candidates_pruned")?, event("candidates_explored")?),
    );
    out.metric("mapper.map_ms", stage("map")?);
    out.metric("sim.simulate_ms", stage("simulate")?);
    out.metric("core.mapper_rejects", event("mapper_rejects")?);
    out.metric("trace.overhead_ratio", ratio(pass.wall_s, untraced_wall_s));
    Ok(())
}
