//! `ptmap loadtest`: a closed-loop load generator for one daemon or a
//! gateway.
//!
//! Each of `workers` threads runs a closed loop — send one `POST
//! /compile`, wait for the full response, classify it, repeat — until
//! the shared request budget is spent. Closed-loop means concurrency
//! is bounded by the worker count, so the tool measures the service's
//! latency under a fixed offered parallelism rather than melting it
//! with an open firehose.
//!
//! The kernel sequence is a pure function of `seed`: request *i*
//! compiles `vecsum:<N>` with `N` drawn from `hash64(seed, i)` over
//! `distinct` variants. A fixed seed therefore produces the same
//! multiset of request keys on every run — which is what lets the CI
//! chaos test compare runs and lets a gateway's consistent-hash
//! routing be exercised deterministically.
//!
//! Failures are bucketed into a small taxonomy rather than counted as
//! one "errors" blob: transport classes from [`ClientError::class`]
//! (`connect`, `io`, `malformed`, `deadline`) and HTTP classes
//! (`http-4xx`, `http-500`, `http-502`, `http-503`, `http-504`), so a
//! run's report distinguishes "the cluster shed load" from "the
//! cluster broke".

use crate::client::{self, ClientError};
use ptmap_trace::hash64;
use ptmap_trace::prom::{Histogram, LATENCY_BUCKETS};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How a loadtest run is configured.
#[derive(Debug, Clone)]
pub struct LoadtestConfig {
    /// Target address (`host:port` of a daemon or gateway).
    pub target: String,
    /// Closed-loop worker threads.
    pub workers: usize,
    /// Total requests across all workers.
    pub requests: u64,
    /// Seed for the deterministic kernel sequence.
    pub seed: u64,
    /// Distinct kernel variants (distinct request keys) to cycle.
    pub distinct: u64,
    /// Per-request `X-Ptmap-Deadline-Ms` (`None` = server default).
    pub deadline_ms: Option<u64>,
}

impl Default for LoadtestConfig {
    fn default() -> LoadtestConfig {
        LoadtestConfig {
            target: "127.0.0.1:7199".to_string(),
            workers: 4,
            requests: 100,
            seed: 42,
            distinct: 8,
            deadline_ms: Some(30_000),
        }
    }
}

/// What a loadtest run measured.
#[derive(Debug)]
pub struct LoadtestReport {
    /// Requests sent.
    pub sent: u64,
    /// Requests answered `200`.
    pub ok: u64,
    /// Failures by taxonomy class.
    pub errors: BTreeMap<String, u64>,
    /// End-to-end request latency.
    pub latency: Histogram,
    /// Latency exemplars: the slowest requests of the run, slowest
    /// first, each with the `X-Ptmap-Trace-Id` the service answered
    /// with (when it did) — the handle to pull the exact distributed
    /// trace behind a tail-latency outlier.
    pub exemplars: Vec<Exemplar>,
    /// Wall-clock duration of the whole run.
    pub wall: Duration,
}

/// One tail-latency exemplar: a slow request and its trace id.
#[derive(Debug, Clone)]
pub struct Exemplar {
    /// End-to-end latency of the request, in seconds.
    pub seconds: f64,
    /// The `X-Ptmap-Trace-Id` response header, if the service sent
    /// one (transport failures have none).
    pub trace_id: Option<String>,
}

impl LoadtestReport {
    /// Total failed requests, any class.
    pub fn failed(&self) -> u64 {
        self.errors.values().sum()
    }

    /// Human-readable summary (one line per fact; stable prefixes for
    /// the CI smoke test to grep).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("loadtest sent: {}\n", self.sent));
        out.push_str(&format!("loadtest ok: {}\n", self.ok));
        out.push_str(&format!("loadtest failed: {}\n", self.failed()));
        for (class, n) in &self.errors {
            out.push_str(&format!("loadtest error {class}: {n}\n"));
        }
        for (q, label) in [(0.5, "p50"), (0.95, "p95"), (0.99, "p99")] {
            if let Some(v) = self.latency.quantile(q) {
                out.push_str(&format!("loadtest latency {label}: {v:.4}s\n"));
            }
        }
        for ex in &self.exemplars {
            out.push_str(&format!(
                "loadtest slowest: {:.4}s trace={}\n",
                ex.seconds,
                ex.trace_id.as_deref().unwrap_or("-")
            ));
        }
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            out.push_str(&format!(
                "loadtest throughput: {:.1} req/s over {secs:.2}s\n",
                self.sent as f64 / secs
            ));
        }
        out
    }
}

/// How many exemplars a run of `requests` reports: roughly the p99
/// tail, at least one, never more than eight.
fn exemplar_count(requests: u64) -> usize {
    ((requests / 100).clamp(1, 8)) as usize
}

/// The spec for request `i` of a seeded run.
fn spec_for(seed: u64, i: u64, distinct: u64) -> String {
    let variant = hash64(format!("loadtest:{seed}:{i}").as_bytes()) % distinct.max(1);
    // Small vecsum sizes keep each compile cheap; distinct sizes give
    // distinct request keys (and therefore distinct ring positions).
    let n = 4 + variant;
    format!("{{\"name\":\"lt-{variant}\",\"kernel\":\"vecsum:{n}\",\"arch\":\"S4\"}}")
}

/// Classifies one exchange for the error taxonomy. `None` = success.
fn classify(result: &Result<u16, ClientError>) -> Option<String> {
    match result {
        Ok(200) => None,
        Ok(status @ 400..=499) => Some(format!("http-4xx ({status})")),
        Ok(status) => Some(format!("http-{status}")),
        Err(e) => Some(e.class().to_string()),
    }
}

/// Runs the closed loop and gathers the report.
pub fn run_loadtest(config: &LoadtestConfig) -> LoadtestReport {
    let next = Arc::new(AtomicU64::new(0));
    let errors = Arc::new(Mutex::new(BTreeMap::<String, u64>::new()));
    let latency = Arc::new(Mutex::new(Histogram::new(LATENCY_BUCKETS)));
    let samples = Arc::new(Mutex::new(Vec::<Exemplar>::new()));
    let ok = Arc::new(AtomicU64::new(0));
    let sent = Arc::new(AtomicU64::new(0));

    let t0 = Instant::now();
    let mut threads = Vec::new();
    for _ in 0..config.workers.max(1) {
        let config = config.clone();
        let next = Arc::clone(&next);
        let errors = Arc::clone(&errors);
        let latency = Arc::clone(&latency);
        let samples = Arc::clone(&samples);
        let ok = Arc::clone(&ok);
        let sent = Arc::clone(&sent);
        threads.push(
            std::thread::Builder::new()
                .name("ptmap-loadtest".to_string())
                .spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= config.requests {
                        break;
                    }
                    let body = spec_for(config.seed, i, config.distinct);
                    let deadline_header = config.deadline_ms.map(|ms| ms.to_string());
                    let mut headers: Vec<(&str, &str)> = vec![("Content-Type", "application/json")];
                    if let Some(ms) = &deadline_header {
                        headers.push(("X-Ptmap-Deadline-Ms", ms));
                    }
                    let deadline = config.deadline_ms.map(|ms| {
                        Instant::now() + Duration::from_millis(ms) + Duration::from_secs(5)
                    });
                    let t = Instant::now();
                    let exchange = client::request(
                        &config.target,
                        "POST",
                        "/compile",
                        &headers,
                        body.as_bytes(),
                        deadline,
                    );
                    let elapsed = t.elapsed();
                    let trace_id = exchange
                        .as_ref()
                        .ok()
                        .and_then(|resp| resp.header("x-ptmap-trace-id"))
                        .map(str::to_string);
                    let result = exchange.map(|resp| resp.status);
                    sent.fetch_add(1, Ordering::Relaxed);
                    crate::lock_unpoisoned(&latency).observe(elapsed.as_secs_f64());
                    crate::lock_unpoisoned(&samples).push(Exemplar {
                        seconds: elapsed.as_secs_f64(),
                        trace_id,
                    });
                    match classify(&result) {
                        None => {
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Some(class) => {
                            *crate::lock_unpoisoned(&errors).entry(class).or_default() += 1;
                        }
                    }
                })
                .expect("spawn loadtest worker"),
        );
    }
    for t in threads {
        let _ = t.join();
    }

    // The p99 tail: sort all samples slowest-first and keep the top
    // handful, preferring ones that carry a trace id over equal-speed
    // ones that do not (an id makes the exemplar actionable).
    let mut samples = Arc::try_unwrap(samples)
        .map(|m| m.into_inner().unwrap_or_default())
        .unwrap_or_else(|arc| crate::lock_unpoisoned(&arc).clone());
    samples.sort_by(|a, b| {
        b.seconds
            .total_cmp(&a.seconds)
            .then_with(|| b.trace_id.is_some().cmp(&a.trace_id.is_some()))
    });
    samples.truncate(exemplar_count(config.requests));
    let latency = crate::lock_unpoisoned(&latency).clone();

    LoadtestReport {
        sent: sent.load(Ordering::Relaxed),
        ok: ok.load(Ordering::Relaxed),
        exemplars: samples,
        errors: Arc::try_unwrap(errors)
            .map(|m| m.into_inner().unwrap_or_default())
            .unwrap_or_else(|arc| crate::lock_unpoisoned(&arc).clone()),
        latency,
        wall: t0.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_sequence_is_seed_deterministic() {
        let a: Vec<String> = (0..20).map(|i| spec_for(7, i, 4)).collect();
        let b: Vec<String> = (0..20).map(|i| spec_for(7, i, 4)).collect();
        assert_eq!(a, b, "same seed, same sequence");
        let c: Vec<String> = (0..20).map(|i| spec_for(8, i, 4)).collect();
        assert_ne!(a, c, "different seed, different sequence");
        for spec in &a {
            assert!(spec.contains("vecsum:"), "{spec}");
        }
    }

    #[test]
    fn classification_taxonomy() {
        assert_eq!(classify(&Ok(200)), None);
        assert_eq!(classify(&Ok(503)), Some("http-503".to_string()));
        assert_eq!(classify(&Ok(404)), Some("http-4xx (404)".to_string()));
        assert_eq!(
            classify(&Err(ClientError::Connect("x".into()))),
            Some("connect".to_string())
        );
        assert_eq!(
            classify(&Err(ClientError::DeadlineExpired)),
            Some("deadline".to_string())
        );
    }

    #[test]
    fn loadtest_against_a_dead_port_reports_connect_errors() {
        // Bind then drop to get a very-likely-closed port.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let report = run_loadtest(&LoadtestConfig {
            target: addr.to_string(),
            workers: 2,
            requests: 10,
            ..LoadtestConfig::default()
        });
        assert_eq!(report.sent, 10);
        assert_eq!(report.ok, 0);
        assert_eq!(report.errors.get("connect"), Some(&10));
        // Connect failures carry no trace id, but the exemplar line
        // still reports the tail latency.
        assert_eq!(report.exemplars.len(), 1);
        assert!(report.exemplars[0].trace_id.is_none());
        let text = report.render();
        assert!(text.contains("loadtest sent: 10"), "{text}");
        assert!(text.contains("loadtest error connect: 10"), "{text}");
        assert!(text.contains("loadtest slowest: "), "{text}");
        assert!(text.contains("trace=-"), "{text}");
    }

    #[test]
    fn exemplar_count_tracks_the_p99_tail() {
        assert_eq!(exemplar_count(0), 1);
        assert_eq!(exemplar_count(50), 1);
        assert_eq!(exemplar_count(100), 1);
        assert_eq!(exemplar_count(300), 3);
        assert_eq!(exemplar_count(10_000), 8, "capped");
    }
}
