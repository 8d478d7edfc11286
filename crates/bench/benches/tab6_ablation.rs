//! Criterion bench for the Tab. 6 ablation: prints a reduced
//! RAMP/AL/AM/PT-Map row for one app on SL8 and times the AL tuner.

use criterion::{criterion_group, criterion_main, Criterion};
use ptmap_arch::presets;
use ptmap_bench::baselines::{Al, Baseline};
use ptmap_bench::suite::{run_suite, MapperSet};
use ptmap_eval::RankMode;
use ptmap_gnn::model::{GnnVariant, ModelConfig, PtMapGnn};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let gnn = PtMapGnn::new(ModelConfig {
        hidden: 8,
        variant: GnnVariant::Full,
        ..ModelConfig::default()
    });
    let arch = presets::sl8();
    let (app, program) = ptmap_bench::apps().remove(4); // TMM
    let rows = run_suite(
        &program,
        &arch,
        &gnn,
        RankMode::Performance,
        MapperSet::Ablation,
    );
    println!("[tab6 reduced] {app} on SL8:");
    for r in &rows {
        println!(
            "  {:<8} {}",
            r.mapper,
            r.cycles
                .map(|c| c.to_string())
                .unwrap_or_else(|| "fail".into())
        );
    }
    c.bench_function("tab6_al_tuning_budget8", |b| {
        b.iter(|| {
            let al = Al {
                budget: 8,
                ..Al::default()
            };
            black_box(al.run(&program, &arch).map(|r| r.cycles))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
