//! Shared harness for the experiment binaries and Criterion benches.
//!
//! Every figure/table of the paper's evaluation has a binary in
//! `src/bin/` that prints the same rows/series the paper reports (and
//! writes JSON under `results/`), plus a Criterion bench wrapping a
//! scaled-down version. See DESIGN.md's experiment index.

use ptmap_arch::{presets, CgraArch};
use ptmap_eval::RankMode;
use ptmap_gnn::dataset::{generate_dataset, DatasetConfig, Sample};
use ptmap_gnn::model::{GnnVariant, ModelConfig, PtMapGnn};
use ptmap_gnn::train::{train, TrainConfig};
use ptmap_ir::Program;
use ptmap_pipeline::{run_batch, BatchConfig, Job, JobOutcome, PredictorSpec};
use std::collections::BTreeMap;
use std::path::PathBuf;

pub mod fig6;
pub mod suite;

/// Directory for cached models and result JSON.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("PTMAP_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    let p = PathBuf::from(dir);
    std::fs::create_dir_all(&p).expect("create results dir");
    p
}

/// The evaluation applications with their paper codes.
pub fn apps() -> Vec<(&'static str, Program)> {
    ptmap_workloads::apps::all()
}

/// The four evaluation architectures.
pub fn archs() -> Vec<CgraArch> {
    presets::evaluation_suite()
}

/// Geometric mean.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Scale knobs for dataset/training, overridable via env for quick runs.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Synthetic training samples.
    pub samples: usize,
    /// Training epochs.
    pub epochs: usize,
}

impl Scale {
    /// Full (default) experiment scale.
    pub fn full() -> Self {
        Scale {
            samples: env_usize("PTMAP_SAMPLES", 3000),
            epochs: env_usize("PTMAP_EPOCHS", 120),
        }
    }

    /// Reduced scale for Criterion smoke runs.
    pub fn quick() -> Self {
        Scale {
            samples: 120,
            epochs: 12,
        }
    }
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Trains (or loads from the results cache) a GNN variant on the
/// synthetic dataset.
pub fn trained_model(variant: GnnVariant, scale: Scale) -> PtMapGnn {
    let tag = format!("{variant:?}").to_lowercase();
    let path = results_dir().join(format!("gnn_{tag}_{}_{}.json", scale.samples, scale.epochs));
    if let Ok(text) = std::fs::read_to_string(&path) {
        if let Ok(model) = serde_json::from_str::<PtMapGnn>(&text) {
            return model;
        }
    }
    let data = synthetic_dataset(scale);
    let mut model = PtMapGnn::new(ModelConfig {
        variant,
        ..ModelConfig::default()
    });
    train(
        &mut model,
        &data,
        &TrainConfig {
            epochs: scale.epochs,
            ..TrainConfig::default()
        },
    );
    if let Ok(text) = serde_json::to_string(&model) {
        let _ = std::fs::write(&path, text);
    }
    model
}

/// The synthetic training dataset (Tab. 4 pipeline at reduced scale).
pub fn synthetic_dataset(scale: Scale) -> Vec<Sample> {
    generate_dataset(&DatasetConfig {
        samples: scale.samples,
        archs: archs(),
        seed: 21,
        ..DatasetConfig::default()
    })
}

/// Runs every (app × arch) PT-Map compilation through the batch
/// pipeline: parallel across jobs (`PTMAP_JOBS`, default = available
/// cores), persistent report cache under `results/ptmap-cache`, batch
/// metrics written as a JSON artifact. Returns the outcomes keyed by
/// `"<app>@<arch>"`.
pub fn ptmap_app_batch(
    gnn: &PtMapGnn,
    mode: RankMode,
    metrics_name: &str,
) -> BTreeMap<String, JobOutcome> {
    let model = Box::new(gnn.clone());
    let mut jobs = Vec::new();
    for arch in archs() {
        for (app, program) in apps() {
            jobs.push(Job {
                name: format!("{app}@{}", arch.name()),
                program,
                arch: arch.clone(),
                predictor: PredictorSpec::Gnn(model.clone()),
                mode,
                degraded: None,
            });
        }
    }
    let default_workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let config = BatchConfig {
        workers: env_usize("PTMAP_JOBS", default_workers),
        cache_dir: Some(results_dir().join("ptmap-cache")),
        ..BatchConfig::default()
    };
    let batch = run_batch(&jobs, &config);
    write_json(metrics_name, &batch.metrics);
    batch
        .outcomes
        .into_iter()
        .map(|o| (o.name.clone(), o))
        .collect()
}

/// Writes a JSON result artifact.
pub fn write_json<T: serde::Serialize>(name: &str, value: &T) {
    let path = results_dir().join(name);
    match serde_json::to_string_pretty(value) {
        Ok(text) => {
            if let Err(e) = std::fs::write(&path, text) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                eprintln!("wrote {}", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialize {name}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_known_values() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn apps_and_archs_load() {
        assert_eq!(apps().len(), 11);
        assert_eq!(archs().len(), 4);
    }
}
