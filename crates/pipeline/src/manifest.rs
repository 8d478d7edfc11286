//! Batch manifests: what to compile, on what, with which predictor.
//!
//! A manifest is a JSON document listing jobs:
//!
//! ```json
//! {
//!   "jobs": [
//!     { "kernel": "app:ATA", "arch": "S4" },
//!     { "kernel": "gemm:32", "arch": "SL8", "mode": "pareto" },
//!     { "name": "mine", "kernel": "file:kernel.c", "arch": "file:arch.json",
//!       "predictor": "oracle" }
//!   ]
//! }
//! ```
//!
//! Kernel references:
//! * `app:<CODE>` — one of the paper's eleven applications (also
//!   accepted bare, e.g. `"ATA"`);
//! * `gemm:<N>` / `vecsum:<N>` — parameterized micro-kernels;
//! * `file:<path>` (or any value ending in `.c`) — a `#pragma PTMAP`
//!   C-dialect source file.
//!
//! Architecture references: a preset name (`S4`, `R4`, `H6`, `SL8`,
//! `HReA4`) or `file:<path>` for a JSON architecture description.
//!
//! Predictors: `analytical` (default), `oracle`, or `gnn:<model.json>`
//! for a trained checkpoint saved by the bench harness.

use crate::hash::sha256_hex;
use crate::lock_unpoisoned;
use ptmap_arch::{presets, CgraArch};
use ptmap_core::{PtMap, PtMapConfig};
use ptmap_eval::{AnalyticalPredictor, GnnPredictor, IiPredictor, OraclePredictor, RankMode};
use ptmap_gnn::PtMapGnn;
use ptmap_governor::faultpoint;
use ptmap_ir::Program;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::SystemTime;

/// One job line of a manifest (unresolved references).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Optional display name; defaults to `<kernel>@<arch>`.
    #[serde(default)]
    pub name: Option<String>,
    /// Kernel reference (see module docs).
    pub kernel: String,
    /// Architecture reference.
    pub arch: String,
    /// Predictor reference (`analytical` when omitted).
    #[serde(default)]
    pub predictor: Option<String>,
    /// Ranking mode: `performance` (default) or `pareto`.
    #[serde(default)]
    pub mode: Option<String>,
}

/// A parsed manifest.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Manifest {
    /// The jobs, in submission order.
    pub jobs: Vec<JobSpec>,
}

impl Manifest {
    /// Parses a manifest from JSON text.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("manifest: {e}"))
    }

    /// Resolves every job reference (kernels, architectures, models).
    pub fn resolve(&self) -> Result<Vec<Job>, String> {
        self.jobs.iter().map(Job::resolve).collect()
    }
}

/// The II predictor a job compiles with.
#[derive(Debug, Clone)]
pub enum PredictorSpec {
    /// MII analytical model.
    Analytical,
    /// The modulo scheduler itself (exact, slow).
    Oracle,
    /// A trained GNN checkpoint.
    Gnn(Box<PtMapGnn>),
}

impl PredictorSpec {
    /// Parses a predictor reference.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "analytical" => Ok(PredictorSpec::Analytical),
            "oracle" => Ok(PredictorSpec::Oracle),
            other => match other.strip_prefix("gnn:") {
                Some(path) => {
                    faultpoint::fail_point(faultpoint::sites::PREDICTOR_LOAD)
                        .map_err(|e| format!("reading model {path}: {e}"))?;
                    Ok(PredictorSpec::Gnn(Box::new(load_checkpoint(path)?)))
                }
                None => Err(format!(
                    "unknown predictor {other} (expected analytical, oracle, or gnn:<model.json>)"
                )),
            },
        }
    }

    /// [`PredictorSpec::parse`] with graceful degradation: a GNN
    /// checkpoint that cannot be read or parsed falls back to the
    /// analytical predictor, returning the reason so the caller records
    /// the degradation instead of failing the job. Unknown predictor
    /// *names* still error — a typo must not silently change results.
    pub fn parse_degrading(text: &str) -> Result<(Self, Option<String>), String> {
        match Self::parse(text) {
            Ok(spec) => Ok((spec, None)),
            Err(e) if text.starts_with("gnn:") => Ok((
                PredictorSpec::Analytical,
                Some(format!("predictor=analytical ({e})")),
            )),
            Err(e) => Err(e),
        }
    }

    /// Instantiates the predictor for a compilation.
    pub fn instantiate(&self) -> Box<dyn IiPredictor + Send + Sync> {
        match self {
            PredictorSpec::Analytical => Box::new(AnalyticalPredictor),
            PredictorSpec::Oracle => Box::new(OraclePredictor::default()),
            PredictorSpec::Gnn(model) => Box::new(GnnPredictor::new((**model).clone())),
        }
    }

    /// The predictor's contribution to the cache key. For the GNN this
    /// hashes the full parameter checkpoint: two different trainings of
    /// the same architecture must not share cache entries.
    pub fn key_value(&self) -> Value {
        match self {
            PredictorSpec::Analytical => Value::Str("analytical".to_string()),
            PredictorSpec::Oracle => Value::Str("oracle".to_string()),
            PredictorSpec::Gnn(model) => {
                Value::Str(format!("gnn:{}", model.digest(checkpoint_digest)))
            }
        }
    }
}

/// SHA-256 of a model's canonical JSON, memoized on the model by
/// [`PredictorSpec::key_value`].
fn checkpoint_digest(model: &PtMapGnn) -> String {
    let canon = serde_json::to_value(model)
        .expect("model serializes")
        .canonicalize();
    sha256_hex(&serde_json::to_string(&canon).expect("canonical value serializes"))
}

/// Checkpoints [`load_checkpoint`] keeps parsed, at most.
const CHECKPOINT_CACHE: usize = 4;

/// A parsed checkpoint and the file identity it was read from.
struct Loaded {
    path: PathBuf,
    modified: SystemTime,
    len: u64,
    model: PtMapGnn,
}

/// Reads and parses a GNN checkpoint, once per file version: the last
/// few checkpoints stay parsed, keyed by canonical path, modification
/// time and length, so a daemon answering `gnn:` requests neither
/// re-parses nor re-hashes the file (the returned clone shares the
/// memoized digest). Rewriting the file changes its key and reloads it.
fn load_checkpoint(path: &str) -> Result<PtMapGnn, String> {
    static LOADED: Mutex<Vec<Loaded>> = Mutex::new(Vec::new());
    let read_err = |e: std::io::Error| format!("reading model {path}: {e}");
    let canonical = std::fs::canonicalize(path).map_err(read_err)?;
    let meta = std::fs::metadata(&canonical).map_err(read_err)?;
    let modified = meta.modified().map_err(read_err)?;
    let len = meta.len();
    let is_current = |l: &Loaded| l.path == canonical && l.modified == modified && l.len == len;
    {
        let loaded = lock_unpoisoned(&LOADED);
        if let Some(l) = loaded.iter().find(|l| is_current(l)) {
            return Ok(l.model.clone());
        }
    }
    let text = std::fs::read_to_string(&canonical).map_err(read_err)?;
    let model: PtMapGnn = serde_json::from_str(&text).map_err(|e| format!("model {path}: {e}"))?;
    let mut loaded = lock_unpoisoned(&LOADED);
    loaded.retain(|l| l.path != canonical);
    if loaded.len() == CHECKPOINT_CACHE {
        loaded.remove(0);
    }
    loaded.push(Loaded {
        path: canonical,
        modified,
        len,
        model: model.clone(),
    });
    Ok(model)
}

/// A fully resolved job, ready to schedule.
#[derive(Debug, Clone)]
pub struct Job {
    /// Display name.
    pub name: String,
    /// The kernel to compile.
    pub program: Program,
    /// The target architecture.
    pub arch: CgraArch,
    /// The predictor driving evaluation.
    pub predictor: PredictorSpec,
    /// Ranking mode.
    pub mode: RankMode,
    /// Degradation applied while resolving (e.g. an unreadable GNN
    /// checkpoint replaced by the analytical predictor); surfaces in the
    /// job outcome and in the cache key.
    pub degraded: Option<String>,
}

impl Job {
    /// Resolves one manifest line. An unreadable or unparsable GNN
    /// checkpoint degrades to the analytical predictor (recorded in
    /// [`Job::degraded`]) instead of failing the whole manifest.
    pub fn resolve(spec: &JobSpec) -> Result<Job, String> {
        let program = resolve_kernel(&spec.kernel)?;
        let arch = resolve_arch(&spec.arch)?;
        let (predictor, degraded) =
            PredictorSpec::parse_degrading(spec.predictor.as_deref().unwrap_or("analytical"))?;
        let mode = match spec.mode.as_deref().unwrap_or("performance") {
            "performance" => RankMode::Performance,
            "pareto" => RankMode::Pareto,
            other => return Err(format!("unknown mode {other}")),
        };
        let name = spec
            .name
            .clone()
            .unwrap_or_else(|| format!("{}@{}", spec.kernel, arch.name()));
        Ok(Job {
            name,
            program,
            arch,
            predictor,
            mode,
            degraded,
        })
    }

    /// Builds the compiler this job runs under.
    pub fn compiler(&self, base: &PtMapConfig) -> PtMap {
        let config = PtMapConfig {
            mode: self.mode,
            ..base.clone()
        };
        PtMap::new(self.predictor.instantiate(), config)
    }
}

/// Resolves a kernel reference to a program.
pub fn resolve_kernel(text: &str) -> Result<Program, String> {
    if let Some(path) = text.strip_prefix("file:") {
        return load_kernel_file(path);
    }
    if text.ends_with(".c") {
        return load_kernel_file(text);
    }
    if let Some(n) = text.strip_prefix("gemm:") {
        let n: u64 = n.parse().map_err(|_| format!("bad gemm size in {text}"))?;
        return Ok(ptmap_workloads::micro::gemm(n));
    }
    if let Some(n) = text.strip_prefix("vecsum:") {
        let n: u64 = n
            .parse()
            .map_err(|_| format!("bad vecsum size in {text}"))?;
        return Ok(ptmap_workloads::micro::vec_reduction(n));
    }
    let code = text.strip_prefix("app:").unwrap_or(text);
    ptmap_workloads::apps::all()
        .into_iter()
        .find(|(c, _)| c.eq_ignore_ascii_case(code))
        .map(|(_, p)| p)
        .ok_or_else(|| format!("unknown kernel {text} (try app:ATA, gemm:32, or file:kernel.c)"))
}

fn load_kernel_file(path: &str) -> Result<Program, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("kernel");
    ptmap_ir::parse::parse_program(name, &text).map_err(|e| format!("{path}: {e}"))
}

/// Resolves an architecture reference.
pub fn resolve_arch(text: &str) -> Result<CgraArch, String> {
    if let Some(path) = text.strip_prefix("file:") {
        return ptmap_arch::io::load(path).map_err(|e| e.to_string());
    }
    match text {
        "S4" => Ok(presets::s4()),
        "R4" => Ok(presets::r4()),
        "H6" => Ok(presets::h6()),
        "SL8" => Ok(presets::sl8()),
        "HReA4" => Ok(presets::hrea4()),
        other => Err(format!("unknown architecture {other} (see `ptmap archs`)")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trips() {
        let m = Manifest {
            jobs: vec![
                JobSpec {
                    name: None,
                    kernel: "app:ATA".into(),
                    arch: "S4".into(),
                    predictor: None,
                    mode: None,
                },
                JobSpec {
                    name: Some("g".into()),
                    kernel: "gemm:32".into(),
                    arch: "SL8".into(),
                    predictor: Some("oracle".into()),
                    mode: Some("pareto".into()),
                },
            ],
        };
        let text = serde_json::to_string(&m).unwrap();
        assert_eq!(Manifest::from_json(&text).unwrap(), m);
    }

    #[test]
    fn defaults_fill_in() {
        let m = Manifest::from_json(r#"{"jobs": [{"kernel": "gemm:24", "arch": "S4"}]}"#).unwrap();
        let jobs = m.resolve().unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].name, "gemm:24@S4");
        assert_eq!(jobs[0].mode, RankMode::Performance);
        assert!(matches!(jobs[0].predictor, PredictorSpec::Analytical));
    }

    #[test]
    fn bare_app_codes_resolve() {
        assert!(resolve_kernel("ATA").is_ok());
        assert!(resolve_kernel("app:ata").is_ok());
        assert!(resolve_kernel("nope").is_err());
    }

    fn key(spec: &PredictorSpec) -> String {
        serde_json::to_string(&spec.key_value()).unwrap()
    }

    fn small_model(seed: u64) -> PtMapGnn {
        PtMapGnn::new(ptmap_gnn::ModelConfig {
            hidden: 4,
            seed,
            ..ptmap_gnn::ModelConfig::default()
        })
    }

    #[test]
    fn checkpoints_load_once_and_reload_when_rewritten() {
        let path = std::env::temp_dir().join(format!("ptmap-ckpt-{}.json", std::process::id()));
        let reference = format!("gnn:{}", path.display());
        let first = small_model(1);
        std::fs::write(&path, first.to_bytes()).unwrap();
        let a = PredictorSpec::parse(&reference).unwrap();
        let b = PredictorSpec::parse(&reference).unwrap();
        assert_eq!(key(&a), key(&b));
        // Rewrite with other weights and a later modification time.
        let second = small_model(2);
        std::fs::write(&path, second.to_bytes()).unwrap();
        let later = std::fs::metadata(&path).unwrap().modified().unwrap()
            + std::time::Duration::from_secs(1);
        std::fs::File::options()
            .append(true)
            .open(&path)
            .unwrap()
            .set_modified(later)
            .unwrap();
        let c = PredictorSpec::parse(&reference).unwrap();
        assert_ne!(key(&a), key(&c));
        assert_eq!(key(&c), key(&PredictorSpec::Gnn(Box::new(second))));
        // The fault point fires on every parse, cached or not.
        {
            let _faults = faultpoint::install("predictor_load:error").unwrap();
            assert!(PredictorSpec::parse(&reference).is_err());
        }
        assert!(PredictorSpec::parse(&reference).is_ok());
        std::fs::remove_file(&path).unwrap();
        assert!(PredictorSpec::parse(&reference).is_err());
    }

    #[test]
    fn unknown_references_error() {
        assert!(resolve_arch("Z9").is_err());
        assert!(PredictorSpec::parse("magic").is_err());
        let m = Manifest::from_json(
            r#"{"jobs": [{"kernel": "gemm:24", "arch": "S4", "mode": "fastest"}]}"#,
        )
        .unwrap();
        assert!(m.resolve().is_err());
    }
}
