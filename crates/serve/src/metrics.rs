//! The HTTP layer's metrics: per-endpoint request counts and latency
//! histograms, admission rejections and leader compiles, plus the
//! build-identity gauges every service exports. Both `/metrics`
//! documents (daemon and gateway) start with
//! [`ServiceMetrics::expose`]; the text format itself lives in
//! [`ptmap_trace::prom`].
//!
//! Naming scheme: service metrics are `ptmap_http_*` / `ptmap_*`
//! gauges; pipeline spans become
//! `ptmap_stage_seconds_total{stage="..."}` (+ `_invocations_`), and
//! pipeline counters become `ptmap_pipeline_events_total{event="..."}`.

use crate::lock_unpoisoned;
use ptmap_trace::obs::EventLog;
use ptmap_trace::prom::{Exposition, Histogram, Kind, LATENCY_BUCKETS};
use ptmap_trace::AttrValue;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// The quantiles surfaced as gauge series and in the drain summary.
const QUANTILES: [f64; 3] = [0.5, 0.95, 0.99];

/// Counters and histograms owned by the HTTP layer (zeroed by
/// `default()`).
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    /// (endpoint, status) → requests.
    requests: Mutex<BTreeMap<(String, u16), u64>>,
    /// endpoint → latency histogram.
    latency: Mutex<BTreeMap<String, Histogram>>,
    /// Admission rejections by reason (`deadline`, `capacity`,
    /// `draining`; the gateway adds `no-peers` and `unreachable`).
    rejects: Mutex<BTreeMap<String, u64>>,
    /// Underlying compiles started (leader flights).
    compiles: AtomicU64,
}

impl ServiceMetrics {
    /// Records one handled request.
    pub fn observe_request(&self, endpoint: &str, status: u16, elapsed: Duration) {
        *lock_unpoisoned(&self.requests)
            .entry((endpoint.to_string(), status))
            .or_default() += 1;
        lock_unpoisoned(&self.latency)
            .entry(endpoint.to_string())
            .or_insert_with(|| Histogram::new(LATENCY_BUCKETS))
            .observe(elapsed.as_secs_f64());
    }

    /// Records one admission rejection.
    pub fn reject(&self, reason: &str) {
        *lock_unpoisoned(&self.rejects)
            .entry(reason.to_string())
            .or_default() += 1;
    }

    /// Records the start of one underlying (leader) compile.
    pub fn compile_started(&self) {
        self.compiles.fetch_add(1, Ordering::Relaxed);
    }

    /// Underlying compiles started so far.
    pub fn compiles_total(&self) -> u64 {
        self.compiles.load(Ordering::Relaxed)
    }

    /// Total requests handled (any endpoint, any status).
    pub fn requests_total(&self) -> u64 {
        lock_unpoisoned(&self.requests).values().sum()
    }

    /// Logs one `latency` event per endpoint: request count and the
    /// [`QUANTILES`] estimates, for the drain report on stderr.
    pub(crate) fn log_latency(&self, log: &EventLog) {
        for (endpoint, h) in lock_unpoisoned(&self.latency).iter() {
            let q = |q| AttrValue::from(h.quantile(q).unwrap_or(0.0));
            let fields = [
                ("endpoint", AttrValue::Str(endpoint.clone())),
                ("count", h.count().into()),
                ("p50_s", q(QUANTILES[0])),
                ("p95_s", q(QUANTILES[1])),
                ("p99_s", q(QUANTILES[2])),
            ];
            log.info("latency", None, "", &fields);
        }
    }

    /// Writes the sections every service's `/metrics` opens with: build
    /// identity and start time, then request counters, latency
    /// histograms and quantiles, and admission rejects.
    pub(crate) fn expose(&self, w: &mut Exposition) {
        let build = [
            ("version", env!("CARGO_PKG_VERSION")),
            ("git_sha", option_env!("PTMAP_GIT_SHA").unwrap_or("unknown")),
        ];
        let help = "Build identity (constant 1).";
        w.family("ptmap_build_info", Kind::Gauge, help)
            .series(&build, 1u64);
        w.scalar(
            "ptmap_process_start_time_seconds",
            Kind::Gauge,
            "Unix time the process started.",
            process_start_seconds(),
        );

        let requests = lock_unpoisoned(&self.requests);
        let mut family = w.family(
            "ptmap_http_requests_total",
            Kind::Counter,
            "HTTP requests handled.",
        );
        for ((endpoint, status), n) in requests.iter() {
            family.series(
                &[
                    ("endpoint", endpoint.as_str()),
                    ("code", &status.to_string()),
                ],
                *n,
            );
        }

        let latency = lock_unpoisoned(&self.latency);
        let mut family = w.family(
            "ptmap_http_request_seconds",
            Kind::Histogram,
            "Request latency by endpoint.",
        );
        for (endpoint, hist) in latency.iter() {
            family.histogram(&[("endpoint", endpoint.as_str())], hist);
        }
        let mut family = w.family(
            "ptmap_http_request_quantile_seconds",
            Kind::Gauge,
            "Estimated request latency quantiles by endpoint (bucket-interpolated).",
        );
        for (endpoint, hist) in latency.iter() {
            for q in QUANTILES {
                if let Some(v) = hist.quantile(q) {
                    let labels = [
                        ("endpoint", endpoint.as_str()),
                        ("quantile", &q.to_string()),
                    ];
                    family.series(&labels, v);
                }
            }
        }

        let rejects = lock_unpoisoned(&self.rejects);
        let mut family = w.family(
            "ptmap_admission_rejects_total",
            Kind::Counter,
            "Requests refused at admission.",
        );
        for (reason, n) in rejects.iter() {
            family.series(&[("reason", reason.as_str())], *n);
        }
    }
}

/// Unix timestamp captured the first time it is asked for. Both bind
/// paths touch it at boot, so by the time `/metrics` is scraped it
/// reflects (approximately) when the process started.
pub(crate) fn process_start_seconds() -> f64 {
    static START: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    *START.get_or_init(|| {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs_f64())
            .unwrap_or(0.0)
    })
}
