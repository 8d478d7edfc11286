//! Generality experiment: the unseen HReA-like 4×4 architecture. The
//! GNN is fine-tuned with 400 random programs labeled on the new
//! architecture, then PT-Map is compared against MapZero, IP, and PBP.

use ptmap_arch::presets;
use ptmap_bench::baselines::{Baseline, Ip, MapZero, Pbp};
use ptmap_bench::suite::ptmap_with;
use ptmap_bench::{geomean, trained_model, Scale};
use ptmap_eval::RankMode;
use ptmap_gnn::dataset::{generate_dataset, DatasetConfig};
use ptmap_gnn::model::GnnVariant;
use ptmap_gnn::train::{train, TrainConfig};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Row {
    app: String,
    mapper: String,
    cycles: Option<u64>,
}

fn main() {
    let arch = presets::hrea4();
    // Fine-tune the pre-trained model with 400 random programs on the
    // unseen architecture (the paper's recipe).
    let mut gnn = trained_model(GnnVariant::Full, Scale::full());
    let tune = generate_dataset(&DatasetConfig {
        samples: 400,
        archs: vec![arch.clone()],
        seed: 77,
        ..DatasetConfig::default()
    });
    train(
        &mut gnn,
        &tune,
        &TrainConfig {
            epochs: 30,
            ..TrainConfig::default()
        },
    );

    let mut rows = Vec::new();
    let mut per_mapper: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    println!(
        "{:<6} {:>10} {:>10} {:>10} {:>10}",
        "app", "MapZero", "IP", "PBP", "PT-Map"
    );
    for (app, program) in ptmap_bench::apps() {
        let mut results: Vec<(String, Option<u64>)> = Vec::new();
        results.push((
            "MapZero".into(),
            MapZero::default()
                .run(&program, &arch)
                .ok()
                .map(|r| r.cycles),
        ));
        results.push((
            "IP".into(),
            Ip::default().run(&program, &arch).ok().map(|r| r.cycles),
        ));
        results.push((
            "PBP".into(),
            Pbp::default().run(&program, &arch).ok().map(|r| r.cycles),
        ));
        let ptmap = ptmap_with(gnn.clone(), RankMode::Performance);
        results.push((
            "PT-Map".into(),
            ptmap.compile(&program, &arch).ok().map(|r| r.cycles),
        ));
        let pt = results.last().and_then(|(_, c)| *c);
        let mut cells = Vec::new();
        for (mapper, cycles) in &results {
            let speedup = match (pt, cycles) {
                (Some(p), Some(c)) => Some(*c as f64 / p as f64),
                _ => None,
            };
            cells.push(
                speedup
                    .map(|s| format!("{s:.2}x"))
                    .unwrap_or_else(|| "fail".into()),
            );
            if let Some(s) = speedup {
                per_mapper.entry(mapper.clone()).or_default().push(s);
            }
            rows.push(Row {
                app: app.to_string(),
                mapper: mapper.clone(),
                cycles: *cycles,
            });
        }
        println!(
            "{:<6} {:>10} {:>10} {:>10} {:>10}",
            app, cells[0], cells[1], cells[2], cells[3]
        );
    }
    println!("\nPT-Map geomean speedups on the unseen architecture:");
    for mapper in ["MapZero", "IP", "PBP"] {
        let g = geomean(per_mapper.get(mapper).map(Vec::as_slice).unwrap_or(&[]));
        println!("  vs {mapper:<8}: {g:.2}x");
    }
    ptmap_bench::write_json("generality.json", &rows);
}
