//! Running every mapper on an (app, architecture) pair.

use crate::baselines::{Al, Am, Baseline, Ip, Lisa, MapZero, Pbp, Ramp};
use ptmap_arch::CgraArch;
use ptmap_core::{CompileReport, PtMap, PtMapConfig};
use ptmap_eval::{GnnPredictor, RankMode};
use ptmap_gnn::PtMapGnn;
use ptmap_ir::Program;
use serde::{Deserialize, Serialize};

/// One mapper's outcome on one (app, arch) pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MapperResult {
    /// Mapper label.
    pub mapper: String,
    /// Total simulated cycles (`None` = fail).
    pub cycles: Option<u64>,
    /// Energy-delay product.
    pub edp: Option<f64>,
    /// Off-CGRA volume (bytes).
    pub volume: Option<u64>,
    /// Compilation wall-clock time.
    pub compile_seconds: f64,
}

impl MapperResult {
    fn from_report(mapper: &str, r: Result<CompileReport, ptmap_core::PtMapError>) -> Self {
        MapperResult::from_option(mapper, r.ok())
    }

    /// Builds a row from an optional report (`None` = fail) — the shape
    /// batch-pipeline outcomes arrive in.
    pub fn from_option(mapper: &str, r: Option<CompileReport>) -> Self {
        match r {
            Some(r) => MapperResult {
                mapper: mapper.to_string(),
                cycles: Some(r.cycles),
                edp: Some(r.edp),
                volume: Some(r.pnls.iter().map(|p| p.volume).sum()),
                compile_seconds: r.compile_seconds,
            },
            None => MapperResult {
                mapper: mapper.to_string(),
                cycles: None,
                edp: None,
                volume: None,
                compile_seconds: 0.0,
            },
        }
    }
}

/// Builds a PT-Map instance around a trained GNN.
pub fn ptmap_with(model: PtMapGnn, mode: RankMode) -> PtMap {
    let config = PtMapConfig {
        mode,
        ..PtMapConfig::default()
    };
    PtMap::new(Box::new(GnnPredictor::new(model)), config)
}

/// Which mappers to include in a suite run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapperSet {
    /// RAMP / LISA / MapZero / IP / PBP / PT-Map (Fig. 7–8).
    Comparison,
    /// RAMP / AL / AM / PT-Map (Tab. 6).
    Ablation,
}

/// Runs the selected mapper set on one (app, arch) pair. `mode` selects
/// performance or Pareto ranking for the transformation mappers.
pub fn run_suite(
    program: &Program,
    arch: &CgraArch,
    gnn: &PtMapGnn,
    mode: RankMode,
    set: MapperSet,
) -> Vec<MapperResult> {
    let mut out = baseline_suite(program, arch, mode, set);
    let ptmap = ptmap_with(gnn.clone(), mode);
    out.push(MapperResult::from_report(
        "PT-Map",
        ptmap.compile(program, arch),
    ));
    out
}

/// Runs only the baseline mappers of a set — figure binaries that push
/// their PT-Map compilations through the batch pipeline combine this
/// with the batch outcomes.
pub fn baseline_suite(
    program: &Program,
    arch: &CgraArch,
    mode: RankMode,
    set: MapperSet,
) -> Vec<MapperResult> {
    let mut out = Vec::new();
    match set {
        MapperSet::Comparison => {
            out.push(MapperResult::from_report(
                "RAMP",
                Ramp::default().run(program, arch),
            ));
            out.push(MapperResult::from_report(
                "LISA",
                Lisa::default().run(program, arch),
            ));
            out.push(MapperResult::from_report(
                "MapZero",
                MapZero::default().run(program, arch),
            ));
            out.push(MapperResult::from_report(
                "IP",
                Ip {
                    mode,
                    ..Ip::default()
                }
                .run(program, arch),
            ));
            out.push(MapperResult::from_report(
                "PBP",
                Pbp {
                    mode,
                    ..Pbp::default()
                }
                .run(program, arch),
            ));
        }
        MapperSet::Ablation => {
            out.push(MapperResult::from_report(
                "RAMP",
                Ramp::default().run(program, arch),
            ));
            out.push(MapperResult::from_report(
                "AL",
                Al::default().run(program, arch),
            ));
            out.push(MapperResult::from_report(
                "AM",
                Am::default().run(program, arch),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptmap_arch::presets;
    use ptmap_gnn::model::ModelConfig;

    #[test]
    fn suite_produces_all_rows() {
        let p = ptmap_workloads::micro::gemm(24);
        let gnn = PtMapGnn::new(ModelConfig {
            hidden: 8,
            ..ModelConfig::default()
        });
        let rows = run_suite(
            &p,
            &presets::s4(),
            &gnn,
            RankMode::Performance,
            MapperSet::Comparison,
        );
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().all(|r| r.cycles.is_some()), "{rows:?}");
    }
}
