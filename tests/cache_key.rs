//! The GNN's cache-key contribution is memoized on the model. It must
//! stay byte-identical to the definition it replaced (so existing
//! `--cache-dir` entries keep hitting), change when the weights change,
//! and stay put on a clone taken before the change.

use pt_map::arch::presets;
use pt_map::core::PtMapConfig;
use pt_map::eval::RankMode;
use pt_map::gnn::dataset::{generate_dataset, DatasetConfig};
use pt_map::gnn::{fine_tune, ModelConfig, PtMapGnn, TrainConfig};
use pt_map::pipeline::hash::sha256_hex;
use pt_map::pipeline::{cache_key, Job, PredictorSpec};
use serde_json::Value;
use std::path::Path;

/// The predictor key as it was computed before memoization: SHA-256 of
/// the model's canonical JSON, on every call.
fn old_key_value(model: &PtMapGnn) -> Value {
    let canon = serde_json::to_value(model)
        .expect("model serializes")
        .canonicalize();
    let text = serde_json::to_string(&canon).expect("canonical value serializes");
    Value::Str(format!("gnn:{}", sha256_hex(&text)))
}

/// The cache key as it was computed before memoization (schema 3, no
/// degradation label).
fn old_cache_key(job: &Job, model: &PtMapGnn, base: &PtMapConfig) -> String {
    let config = PtMapConfig {
        mode: job.mode,
        ..base.clone()
    };
    let payload = Value::Object(vec![
        ("schema".to_string(), Value::UInt(3)),
        (
            "program".to_string(),
            serde_json::to_value(&job.program).expect("ir serializes"),
        ),
        (
            "arch".to_string(),
            serde_json::to_value(&job.arch).expect("arch serializes"),
        ),
        ("predictor".to_string(), old_key_value(model)),
        (
            "config".to_string(),
            serde_json::to_value(&config).expect("config serializes"),
        ),
    ])
    .canonicalize();
    sha256_hex(&serde_json::to_string(&payload).expect("canonical payload serializes"))
}

fn text(v: &Value) -> String {
    serde_json::to_string(v).expect("value serializes")
}

fn job(predictor: PredictorSpec) -> Job {
    Job {
        name: "ATA@S4".to_string(),
        program: pt_map::pipeline::manifest::resolve_kernel("app:ATA").unwrap(),
        arch: presets::s4(),
        predictor,
        mode: RankMode::Performance,
        degraded: None,
    }
}

#[test]
fn memoized_key_matches_the_old_definition() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("results/gnn_full_3000_120.json");
    let loaded = PredictorSpec::parse(&format!("gnn:{}", path.display())).expect("checkpoint");
    let PredictorSpec::Gnn(checkpoint) = &loaded else {
        panic!("gnn spec")
    };
    let checkpoint = (**checkpoint).clone();
    let fresh = PtMapGnn::new(ModelConfig::default());
    let base = PtMapConfig::default();
    for model in [checkpoint, fresh] {
        let want = old_key_value(&model);
        let spec = PredictorSpec::Gnn(Box::new(model.clone()));
        // First call fills the memo, the second reads it.
        assert_eq!(text(&spec.key_value()), text(&want));
        assert_eq!(text(&spec.key_value()), text(&want));
        let job = job(spec);
        let old = old_cache_key(&job, &model, &base);
        assert_eq!(cache_key(&job, &base), old);
        assert_eq!(cache_key(&job, &base), old);
    }
}

#[test]
fn fine_tuning_changes_the_key_but_not_an_earlier_clone() {
    let samples = generate_dataset(&DatasetConfig {
        samples: 4,
        archs: vec![presets::s4()],
        seed: 5,
        ..DatasetConfig::default()
    });
    let mut model = PtMapGnn::new(ModelConfig {
        hidden: 8,
        ..ModelConfig::default()
    });
    let before_key = PredictorSpec::Gnn(Box::new(model.clone())).key_value();
    // Shares the now-filled memo with `model`.
    let before = model.clone();
    fine_tune(
        &mut model,
        &samples,
        &TrainConfig {
            epochs: 1,
            ..TrainConfig::default()
        },
    );
    let after_key = PredictorSpec::Gnn(Box::new(model.clone())).key_value();
    assert_ne!(text(&after_key), text(&before_key));
    assert_eq!(text(&after_key), text(&old_key_value(&model)));
    let before_again = PredictorSpec::Gnn(Box::new(before.clone())).key_value();
    assert_eq!(text(&before_again), text(&before_key));
    assert_eq!(text(&before_again), text(&old_key_value(&before)));
}
