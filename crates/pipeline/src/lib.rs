//! Batch compilation service for PT-Map.
//!
//! PT-Map's evaluation sweeps hundreds of (kernel, architecture,
//! predictor, ranking-mode) compilations; this crate turns those sweeps
//! into declarative, cached, parallel batch runs:
//!
//! * [`manifest`] — a JSON job manifest with kernel / architecture /
//!   predictor references, resolved to concrete [`Job`]s;
//! * [`scheduler`] — a `std::thread::scope` worker pool over channels
//!   with per-job panic isolation and deterministic (manifest-ordered)
//!   output;
//! * [`cache`] — a content-addressed report cache (SHA-256 over the
//!   canonical JSON of program + architecture + predictor + config)
//!   with an optional on-disk store that persists across runs;
//! * [`metrics`] — a std-only span/counter recorder emitting a JSON
//!   metrics document with per-stage timings, cache-hit counts, and
//!   pruning/mapper-effort counters for every job.
//!
//! The `ptmap batch` CLI subcommand and the `fig7`/`fig9` experiment
//! binaries are thin wrappers over [`run_batch`].
//!
//! # Example
//!
//! ```
//! use ptmap_pipeline::{run_batch, BatchConfig, Manifest};
//!
//! let manifest = Manifest::from_json(
//!     r#"{"jobs": [
//!         {"kernel": "gemm:24", "arch": "S4"},
//!         {"kernel": "gemm:24", "arch": "R4", "mode": "pareto"}
//!     ]}"#,
//! )?;
//! let jobs = manifest.resolve()?;
//! let batch = run_batch(&jobs, &BatchConfig { workers: 2, ..BatchConfig::default() });
//! assert_eq!(batch.outcomes.len(), 2);
//! assert!(batch.outcomes.iter().all(|o| o.report.is_some()));
//! # Ok::<(), String>(())
//! ```

pub mod cache;
pub mod hash;
pub mod manifest;
pub mod metrics;
pub mod scheduler;

pub use cache::{cache_key, request_key, ReportCache};
pub use manifest::{Job, JobSpec, Manifest, PredictorSpec};
pub use metrics::{BatchMetrics, JobMetrics, Recorder, SpanStat};
pub use scheduler::{
    compile_job, compile_job_traced, run_batch, run_batch_with_cache, BatchConfig, BatchReport,
    JobOutcome, TraceSettings,
};

pub(crate) use ptmap_trace::lock_unpoisoned;
