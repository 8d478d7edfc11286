//! Online cost-model learning for PT-Map.
//!
//! The GNN cost model ships trained offline, but a deployed daemon sees
//! the ground truth for free: every compile it serves ends with the
//! modulo scheduler producing the *actual* `(II, ProEpi)` the predictor
//! only estimated. This crate closes that loop:
//!
//! * [`sample`] — live `(features, predicted, actual)` samples captured
//!   through the observe-only `ptmap_eval::SampleTap` hook, buffered in
//!   a bounded drop-oldest queue and spilled to an append-only,
//!   checksummed JSONL log;
//! * [`store`] — versioned model snapshots (`model-v<N>.bin`) with
//!   checksum framing, corrupt-snapshot quarantine, and
//!   highest-valid-version restart recovery;
//! * [`shadow`] — per-model cycle-MAPE accumulators and error-ratio
//!   histograms used to judge a freshly trained candidate against the
//!   serving model on the same live window;
//! * [`engine`] — the [`LearnEngine`]: ingests samples off the request
//!   path, fine-tunes a copy of the serving model when enough fresh
//!   samples accumulate (budget-aware, one epoch at a time), shadows
//!   the candidate, and atomically promotes it behind a version counter
//!   only when it beats the serving model by the configured margin.
//!
//! The engine never feeds predictions back into compilation — compiles
//! keep their job-specified predictor — so `--learn` is bit-identical
//! to a learning-free daemon by construction. "Hot-swap" applies to the
//! *learned* model the engine serves through `GET /model` and snapshot
//! files, which operators can then point new jobs at (`gnn:<snapshot>`)
//! or ship to the fleet.

pub mod engine;
pub mod sample;
pub mod shadow;
pub mod store;

pub use engine::{LearnEngine, LearnStatus, ModelVersion, PumpReport, ShadowStatus};
pub use sample::LiveSample;
pub use shadow::{verdict, ModelEval, ShadowVerdict, ERROR_BUCKETS};
pub use store::ModelStore;

use std::path::PathBuf;

/// Online-learning configuration.
#[derive(Debug, Clone)]
pub struct LearnConfig {
    /// Directory for versioned snapshots and the sample spill log
    /// (`None` = memory only; nothing survives a restart).
    pub model_dir: Option<PathBuf>,
    /// Fresh samples required before a fine-tune round starts.
    pub train_threshold: usize,
    /// Shadow-scored samples required before a promote/reject verdict.
    pub shadow_window: usize,
    /// Relative cycle-MAPE margin the candidate must beat the serving
    /// model by on the shadow window (0.02 = 2 % better).
    pub promote_margin: f64,
    /// Bounded ingest queue capacity; overflow drops the *oldest*
    /// pending sample (freshest traffic wins) and counts the drop.
    pub pending_capacity: usize,
    /// Fine-tuning hyper-parameters (run one epoch at a time with a
    /// budget check between epochs, so a draining daemon stops fast).
    pub train: ptmap_gnn::TrainConfig,
    /// Architecture of the model seeded at first boot when no snapshot
    /// exists in `model_dir`.
    pub model: ptmap_gnn::ModelConfig,
}

impl Default for LearnConfig {
    fn default() -> Self {
        LearnConfig {
            model_dir: None,
            train_threshold: 32,
            shadow_window: 64,
            promote_margin: 0.02,
            pending_capacity: 4096,
            train: ptmap_gnn::TrainConfig {
                epochs: 30,
                ..ptmap_gnn::TrainConfig::default()
            },
            model: ptmap_gnn::ModelConfig::default(),
        }
    }
}

pub(crate) use ptmap_trace::lock_unpoisoned;
