//! End-to-end tests of `ptmap serve --learn`: live sample capture,
//! background training, shadow verdicts, snapshot persistence across
//! restarts, `GET /model`, and the determinism guarantee (learning on
//! never changes compile results).

use ptmap_gnn::{ModelConfig, TrainConfig};
use ptmap_learn::LearnConfig;
use ptmap_serve::{DrainSummary, ServeConfig, Server, ServiceHandle};
use ptmap_trace::prom::check_prometheus_text;
use serde_json::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
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

/// A learn config small enough to train inside a test.
fn tiny_learn(dir: Option<PathBuf>) -> LearnConfig {
    LearnConfig {
        model_dir: dir,
        train_threshold: 4,
        shadow_window: 4,
        promote_margin: 0.02,
        train: TrainConfig {
            epochs: 10,
            ..TrainConfig::default()
        },
        model: ModelConfig {
            hidden: 8,
            layers: 2,
            ..ModelConfig::default()
        },
        ..LearnConfig::default()
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ptmap-learn-e2e-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Sends one request and reads the full response body.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: ptmap\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let status: u16 = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, body.to_string())
}

fn compile_spec(name: &str, kernel: &str) -> String {
    format!("{{\"name\":\"{name}\",\"kernel\":\"{kernel}\",\"arch\":\"S4\"}}")
}

/// Parses `GET /model` output.
fn model_status(addr: SocketAddr) -> Value {
    let (status, body) = http(addr, "GET", "/model", "");
    assert_eq!(status, 200, "GET /model: {body}");
    serde_json::from_str(&body).expect("model status parses")
}

fn status_u64(status: &Value, field: &str) -> u64 {
    match status {
        Value::Object(fields) => fields
            .iter()
            .find(|(n, _)| n == field)
            .and_then(|(_, v)| match v {
                Value::UInt(n) => Some(*n),
                Value::Int(n) => Some(*n as u64),
                _ => None,
            })
            .unwrap_or_else(|| panic!("no numeric field {field} in {status:?}")),
        other => panic!("status is not an object: {other:?}"),
    }
}

fn wait_for(what: &str, timeout: Duration, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if done() {
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("timed out waiting for {what}");
}

/// Extracts `metric value` (no labels) from a Prometheus document.
fn metric_value(text: &str, metric: &str) -> Option<f64> {
    text.lines()
        .find(|l| l.starts_with(metric) && l.as_bytes().get(metric.len()) == Some(&b' '))
        .and_then(|l| l.rsplit_once(' '))
        .and_then(|(_, v)| v.parse().ok())
}

/// The highest `N` among the `model-v<N>.bin` snapshots in `dir`.
fn latest_snapshot(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("model dir")
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            name.strip_prefix("model-v")?
                .strip_suffix(".bin")?
                .parse()
                .ok()
        })
        .max()
        .expect("at least one persisted snapshot")
}

#[test]
fn learning_lifecycle_smoke_and_snapshot_reload() {
    let dir = scratch("smoke");
    let (addr, handle, runner) = boot(ServeConfig {
        learn: Some(tiny_learn(Some(dir.clone()))),
        ..ServeConfig::default()
    });

    // Boot seeds version 1 and persists it before serving traffic.
    let status = model_status(addr);
    assert_eq!(status_u64(&status, "version"), 1);
    assert!(dir.join("model-v1.bin").exists(), "boot snapshot exists");

    // Drive distinct compiles (distinct kernels, so none cache-hit or
    // coalesce away), paced by `wait_for`, until a full train → shadow
    // → verdict lifecycle has run. A shadow window scores only samples
    // that arrive after its candidate is trained, so the traffic keeps
    // coming until the verdict.
    let mut sent = 0u32;
    wait_for("a shadow verdict", Duration::from_secs(60), || {
        let spec = compile_spec(&format!("learn-{sent}"), &format!("vecsum:{}", 8 + sent));
        let (status, body) = http(addr, "POST", "/compile", &spec);
        assert_eq!(status, 200, "compile {sent}: {body}");
        sent += 1;
        let s = model_status(addr);
        sent >= 16 && status_u64(&s, "promotions") + status_u64(&s, "rejections") >= 1
    });

    let status = model_status(addr);
    assert!(status_u64(&status, "samples_total") >= 16);
    assert!(status_u64(&status, "trainings") >= 1);
    let final_version = status_u64(&status, "version");

    // The metrics document carries the learning series and stays valid.
    let (code, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(code, 200);
    check_prometheus_text(&metrics).expect("metrics must stay parseable with --learn");
    assert_eq!(
        metric_value(&metrics, "ptmap_model_version"),
        Some(final_version as f64)
    );
    assert!(metric_value(&metrics, "ptmap_learn_samples_total").unwrap_or(0.0) >= 16.0);
    assert!(metric_value(&metrics, "ptmap_learn_trainings_total").unwrap_or(0.0) >= 1.0);
    assert!(metric_value(&metrics, "ptmap_learn_shadow_scores_total").unwrap_or(0.0) >= 1.0);
    assert_eq!(
        metric_value(&metrics, "ptmap_predictor_fallbacks_total"),
        Some(0.0),
        "no job referenced a broken gnn model"
    );
    // The spill log exists and is per-line checksummed.
    let spill = std::fs::read_to_string(dir.join("samples.jsonl")).expect("spill log");
    assert!(spill.lines().count() >= 16);
    for line in spill.lines() {
        let (sum, json) = line.split_once(' ').expect("checksummed line");
        assert_eq!(sum.len(), 64);
        assert!(json.starts_with('{'));
    }

    handle.shutdown();
    runner.join().expect("server thread");

    // A later lifecycle (or the trainer's final pump at drain) may
    // still have promoted after the read above, so the version the
    // daemon held at drain is its highest persisted snapshot.
    let held = latest_snapshot(&dir);
    assert!(
        held >= final_version,
        "v{held} persisted, v{final_version} served"
    );

    // A restart restores that version — promoted or not, the snapshot
    // round-trips.
    let (addr2, handle2, runner2) = boot(ServeConfig {
        learn: Some(tiny_learn(Some(dir.clone()))),
        ..ServeConfig::default()
    });
    let reborn = model_status(addr2);
    assert_eq!(
        status_u64(&reborn, "version"),
        held,
        "restart must reload the latest snapshot"
    );
    handle2.shutdown();
    runner2.join().expect("second server thread");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Drops the wall-clock field (`compile_seconds`) everywhere — the
/// compile result is deterministic, the clock is not.
fn strip_timing(v: Value) -> Value {
    match v {
        Value::Object(fields) => Value::Object(
            fields
                .into_iter()
                .filter(|(n, _)| n != "compile_seconds")
                .map(|(n, v)| (n, strip_timing(v)))
                .collect(),
        ),
        Value::Array(items) => Value::Array(items.into_iter().map(strip_timing).collect()),
        other => other,
    }
}

#[test]
fn learning_does_not_change_compile_results() {
    // The tap is observe-only: the same compile must produce an
    // identical report (and therefore identical cache keys) with
    // learning on and off.
    let compile_report = |learn: Option<LearnConfig>| -> Value {
        let (addr, handle, runner) = boot(ServeConfig {
            learn,
            ..ServeConfig::default()
        });
        let (status, body) = http(addr, "POST", "/compile", &compile_spec("det", "gemm:12"));
        assert_eq!(status, 200, "{body}");
        handle.shutdown();
        runner.join().expect("server thread");
        let outcome: Value = serde_json::from_str(&body).expect("outcome parses");
        match outcome {
            Value::Object(fields) => fields
                .into_iter()
                .find(|(n, _)| n == "report")
                .map(|(_, v)| strip_timing(v))
                .expect("outcome has a report"),
            other => panic!("outcome is not an object: {other:?}"),
        }
    };
    let without = compile_report(None);
    let with = compile_report(Some(tiny_learn(None)));
    assert_eq!(
        without, with,
        "--learn must be bit-identical to a learning-free daemon"
    );
}

#[test]
fn model_endpoint_is_404_without_learn() {
    let (addr, handle, runner) = boot(ServeConfig::default());
    let (status, body) = http(addr, "GET", "/model", "");
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("--learn"));
    // And the learning series stay out of /metrics.
    let (_, metrics) = http(addr, "GET", "/metrics", "");
    assert!(!metrics.contains("ptmap_learn_samples_total"));
    assert!(metrics.contains("ptmap_predictor_fallbacks_total 0"));
    handle.shutdown();
    runner.join().expect("server thread");
}
