//! One benchmark for PT-Map.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --ptmap <path>
//! ```
//!
//! Workloads: `suite_gnn` compiles the 44-job fig9 suite through
//! `ptmap_pipeline::run_batch`; `serve_mixed` and
//! `gateway_mixed` drive one `ptmap serve` daemon (directly, or through
//! `ptmap gateway`) with a seeded closed loop of two clients. With
//! `--trace 0` the last stdout line carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer breakdown of a separate traced
//! pass. The process exits 1 when any output fails its correctness gate.

mod serve;
mod stats;
mod suite;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The committed GNN checkpoint every result is tied to.
pub const CHECKPOINT: &str = "results/gnn_full_3000_120.json";

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// The `ptmap` CLI binary the serve workloads spawn.
    pub ptmap: PathBuf,
}

/// End-to-end metrics of an untraced run, with units. Every workload
/// reports every one of them.
const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("ii_sum", "count"),
    ("cycles_geomean", "cycles"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of a traced run, with units, named after the crate
/// (or service) they time. A layer a workload does not reach (see
/// [`reached`]) reads 0; one it reaches must have been measured.
const PER_LAYER: &[(&str, &str)] = &[
    ("transform.explore_ms", "ms"),
    ("transform.candidates", "count"),
    ("ir.build_dfg_ms", "ms"),
    ("ir.dfg_nodes_mean", "count"),
    ("gnn.build_input_ms", "ms"),
    ("gnn.forward_ms", "ms"),
    ("eval.evaluate_ms", "ms"),
    ("eval.self_ms", "ms"),
    ("eval.predict_ms", "ms"),
    ("eval.predict_calls", "count"),
    ("eval.select_ms", "ms"),
    ("eval.pruned_ratio", "ratio"),
    ("model.profile_ms", "ms"),
    ("mapper.map_ms", "ms"),
    ("mapper.calls", "count"),
    ("mapper.rungs", "count"),
    ("mapper.bfs_expansions", "count"),
    ("mapper.placements_tried", "count"),
    ("mapper.rung_success_ratio", "ratio"),
    ("mapper.ii_over_mii", "ratio"),
    ("sim.simulate_ms", "ms"),
    ("core.context_attempts", "count"),
    ("core.mapper_rejects", "count"),
    ("core.unattributed_ms", "ms"),
    ("core.compile_wall_ms", "ms"),
    ("pipeline.cache_key_ms", "ms"),
    ("pipeline.batch_overhead_ms", "ms"),
    ("serve.handler_ms", "ms"),
    ("serve.outside_handler_ms", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.compiles_started", "count"),
    ("serve.compile_ms", "ms"),
    ("gateway.hop_ms", "ms"),
    ("gateway.forwards", "count"),
    ("gateway.retries", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// What one run produced: the correctness verdict, operation counts and
/// the measured metrics.
#[derive(Default)]
pub struct Outcome {
    pub mismatches: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn mismatch(&mut self, what: String) {
        self.mismatches.push(what);
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut ptmap = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                seconds = Some(Duration::from_secs_f64(s.max(0.0)));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (expected 0 or 1)")),
                })
            }
            "--ptmap" => ptmap = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        ptmap: ptmap.ok_or("missing --ptmap")?,
    })
}

/// Reads, hashes and parses the GNN checkpoint. A missing or unparsable
/// file is fatal: nothing may retrain silently inside a timed set-up.
pub fn load_checkpoint() -> Result<(String, ptmap_gnn::PtMapGnn), String> {
    let text = std::fs::read_to_string(CHECKPOINT).map_err(|e| format!("{CHECKPOINT}: {e}"))?;
    let sha = ptmap_pipeline::hash::sha256_hex(&text);
    let model = serde_json::from_str(&text).map_err(|e| format!("{CHECKPOINT}: {e}"))?;
    Ok((sha, model))
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host and inputs a result depends on, as one JSON object.
fn provenance(args: &Args, checkpoint_sha: &str) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\": {:?}, \"seed\": {}, \"trace\": {}, \"available_parallelism\": {cores}, \
         \"git_sha\": {:?}, \"rustc\": {:?}, \"checkpoint_sha256\": {:?}}}",
        args.workload,
        args.seed,
        args.trace as u8,
        command_line("git", &["rev-parse", "HEAD"]),
        command_line("rustc", &["-V"]),
        checkpoint_sha,
    )
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(status_path: &Path) -> Option<f64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The per-layer metrics a workload's traced run measures.
fn reached(workload: &str) -> Vec<&'static str> {
    match workload {
        "suite_gnn" => suite::LAYERS.to_vec(),
        "serve_mixed" => serve::LAYERS.to_vec(),
        "gateway_mixed" => [serve::LAYERS, serve::GATEWAY_LAYERS].concat(),
        _ => Vec::new(),
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "suite_gnn" => suite::run(args),
        "serve_mixed" => serve::run(args, serve::Topology::Direct),
        "gateway_mixed" => serve::run(args, serve::Topology::Gateway),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let prov = match load_checkpoint() {
        Ok((sha, _)) => provenance(&args, &sha),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    println!("provenance: {prov}");
    let mut outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let reached = reached(&args.workload);
    let mut metrics = Vec::new();
    for &(name, unit) in catalogue {
        let value = match outcome.metrics.get(name) {
            Some(v) => *v,
            None if args.trace && !reached.contains(&name) => 0.0,
            None => {
                outcome.mismatch(format!("metric {name} was not measured"));
                0.0
            }
        };
        if !value.is_finite() {
            outcome.mismatch(format!("metric {name} is not finite"));
            continue;
        }
        println!("{name:<28} {value:>16.4} {unit}");
        metrics.push(format!(
            "{name:?}: {{\"value\": {value:?}, \"unit\": {unit:?}}}"
        ));
    }
    for m in &outcome.mismatches {
        eprintln!("perfbench: MISMATCH {m}");
    }
    let correct = outcome.mismatches.is_empty() && outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
