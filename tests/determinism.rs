//! End-to-end determinism guarantees of the batch pipeline.
//!
//! Three properties, each required by the pipeline design:
//!   1. compiling the same (program, arch, config) twice yields identical
//!      reports modulo wall-clock timing;
//!   2. a batch run with many workers is byte-identical to the same batch
//!      run serially;
//!   3. a warm cache returns exactly what the cold run produced.

use pt_map::arch::presets;
use pt_map::core::{PtMap, PtMapConfig};
use pt_map::eval::AnalyticalPredictor;
use pt_map::pipeline::{
    run_batch, run_batch_with_cache, BatchConfig, Job, Manifest, PredictorSpec, ReportCache,
};
use pt_map::workloads::micro;

fn demo_manifest() -> Vec<Job> {
    let json = r#"{
        "jobs": [
            { "kernel": "gemm:8", "arch": "S4" },
            { "kernel": "gemm:8", "arch": "H6" },
            { "kernel": "vecsum:64", "arch": "S4", "mode": "pareto" },
            { "kernel": "app:TMM", "arch": "SL8", "predictor": "oracle" },
            { "kernel": "app:BLU", "arch": "R4" }
        ]
    }"#;
    Manifest::from_json(json).unwrap().resolve().unwrap()
}

#[test]
fn repeated_compiles_are_identical_modulo_timing() {
    let arch = presets::s4();
    let program = micro::gemm(16);
    let compile = || {
        PtMap::new(Box::new(AnalyticalPredictor), PtMapConfig::default())
            .compile(&program, &arch)
            .unwrap()
    };
    let (a, b) = (compile(), compile());
    assert_eq!(a.without_timing(), b.without_timing());
    // And the serialized form agrees too, so cache round-trips are exact.
    let json =
        |r: &pt_map::core::CompileReport| serde_json::to_string(&r.without_timing()).unwrap();
    assert_eq!(json(&a), json(&b));
}

#[test]
fn parallel_batch_is_byte_identical_to_serial() {
    let jobs = demo_manifest();
    let serial = run_batch(
        &jobs,
        &BatchConfig {
            workers: 1,
            ..BatchConfig::default()
        },
    );
    let wide = run_batch(
        &jobs,
        &BatchConfig {
            workers: 8,
            ..BatchConfig::default()
        },
    );
    assert_eq!(serial.deterministic_json(), wide.deterministic_json());
    // Order follows the manifest, not completion order.
    let names: Vec<&str> = wide.outcomes.iter().map(|o| o.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "gemm:8@S4",
            "gemm:8@H6",
            "vecsum:64@S4",
            "app:TMM@SL8",
            "app:BLU@R4"
        ]
    );
}

#[test]
fn warm_cache_reproduces_cold_run() {
    let jobs = demo_manifest();
    let cache = ReportCache::in_memory();
    let config = BatchConfig {
        workers: 4,
        ..BatchConfig::default()
    };
    let cold = run_batch_with_cache(&jobs, &config, &cache);
    let warm = run_batch_with_cache(&jobs, &config, &cache);
    assert_eq!(cold.metrics.cache_hits, 0);
    assert_eq!(warm.metrics.cache_hits, jobs.len() as u64);
    for (c, w) in cold.outcomes.iter().zip(&warm.outcomes) {
        assert!(!c.cache_hit && w.cache_hit);
        // Cached reports keep even the original measured timing.
        assert_eq!(c.report, w.report);
    }
}

#[test]
fn concurrent_gnn_jobs_do_not_change_batch_output() {
    // The GNN jobs running side by side share one parsed checkpoint
    // and its memoized digest.
    let mut jobs = demo_manifest();
    jobs.extend(
        Manifest::from_json(
            r#"{"jobs": [
                { "kernel": "gemm:8", "arch": "S4",
                  "predictor": "gnn:results/gnn_full_3000_120.json" },
                { "kernel": "gemm:8", "arch": "R4",
                  "predictor": "gnn:results/gnn_full_3000_120.json" }
            ]}"#,
        )
        .unwrap()
        .resolve()
        .unwrap(),
    );
    assert!(jobs[jobs.len() - 2..]
        .iter()
        .all(|j| matches!(j.predictor, PredictorSpec::Gnn(_))));
    let serial = run_batch(
        &jobs,
        &BatchConfig {
            workers: 1,
            ..BatchConfig::default()
        },
    );
    let wide = run_batch(
        &jobs,
        &BatchConfig {
            workers: 4,
            ..BatchConfig::default()
        },
    );
    assert_eq!(serial.deterministic_json(), wide.deterministic_json());
}

#[test]
fn predictor_identity_separates_cache_entries() {
    // Same kernel+arch under two predictors must occupy distinct cache
    // slots: a shared cache across heterogeneous manifests must never
    // serve one predictor's report for another.
    let json = r#"{
        "jobs": [
            { "name": "a", "kernel": "gemm:8", "arch": "S4" },
            { "name": "b", "kernel": "gemm:8", "arch": "S4", "predictor": "oracle" }
        ]
    }"#;
    let jobs = Manifest::from_json(json).unwrap().resolve().unwrap();
    assert!(matches!(jobs[0].predictor, PredictorSpec::Analytical));
    let cache = ReportCache::in_memory();
    let report = run_batch_with_cache(&jobs, &BatchConfig::default(), &cache);
    assert_eq!(report.metrics.cache_hits, 0);
    assert_eq!(cache.len(), 2);
}
