//! The baseline mappers of the paper's evaluation.
//!
//! Two classes (Section 4.1), all sharing our extended-RAMP loop
//! scheduler as the context-generation back-end for fairness, exactly as
//! the paper configures them:
//!
//! * **Loop-scheduling mappers** — [`Ramp`] (the base scheduler),
//!   [`Lisa`] and [`MapZero`] (the learned schedulers, modeled as the
//!   same scheduler with progressively larger search budgets — see
//!   DESIGN.md's substitution table);
//! * **Program-transformation mappers** — [`Ip`] (loop interchange
//!   before scheduling) and [`Pbp`] (fusion/fission + interchange ranked
//!   by the MII analytical model).
//!
//! Plus the Tab. 6 ablations: [`Al`] (budgeted black-box tuning over the
//! Tab. 1 space, the OpenTuner stand-in) and [`Am`] (PT-Map's full
//! exploration evaluated with the MII model instead of the GNN).

use ptmap_arch::CgraArch;
use ptmap_core::{realize_program, CompileReport, PtMap, PtMapConfig, PtMapError};
use ptmap_eval::{AnalyticalPredictor, EvalConfig, RankMode};
use ptmap_ir::Program;
use ptmap_mapper::MapperConfig;
use ptmap_sim::EnergyModel;
use ptmap_transform::{ExploreConfig, FusionMode};

pub mod al;

pub use al::Al;

/// A baseline mapper producing the same report as PT-Map.
pub trait Baseline {
    /// Display name (paper's label).
    fn name(&self) -> &'static str;

    /// Compiles and simulates a program.
    ///
    /// # Errors
    ///
    /// Propagates [`PtMapError`] (e.g. when no mapping exists — the
    /// paper's "fail" entries in Tab. 6).
    fn run(&self, program: &Program, arch: &CgraArch) -> Result<CompileReport, PtMapError>;
}

/// RAMP: the plain loop-scheduling mapper, no program transformation.
#[derive(Debug, Clone, Default)]
pub struct Ramp {
    /// Back-end configuration.
    pub mapper: MapperConfig,
    /// Energy model.
    pub energy: EnergyModel,
}

impl Baseline for Ramp {
    fn name(&self) -> &'static str {
        "RAMP"
    }

    fn run(&self, program: &Program, arch: &CgraArch) -> Result<CompileReport, PtMapError> {
        realize_program(program, arch, &self.mapper, &self.energy, &[])
    }
}

/// LISA-like baseline: a stronger loop scheduler (larger search budget),
/// still without transformation.
#[derive(Debug, Clone)]
pub struct Lisa {
    /// Back-end configuration (elevated effort).
    pub mapper: MapperConfig,
    /// Energy model.
    pub energy: EnergyModel,
}

impl Default for Lisa {
    fn default() -> Self {
        Lisa {
            mapper: MapperConfig::default().with_effort(3),
            energy: EnergyModel::default(),
        }
    }
}

impl Baseline for Lisa {
    fn name(&self) -> &'static str {
        "LISA"
    }

    fn run(&self, program: &Program, arch: &CgraArch) -> Result<CompileReport, PtMapError> {
        realize_program(program, arch, &self.mapper, &self.energy, &[])
    }
}

/// MapZero-like baseline: the strongest loop scheduler of the comparison.
#[derive(Debug, Clone)]
pub struct MapZero {
    /// Back-end configuration (highest effort).
    pub mapper: MapperConfig,
    /// Energy model.
    pub energy: EnergyModel,
}

impl Default for MapZero {
    fn default() -> Self {
        MapZero {
            mapper: MapperConfig::default().with_effort(6),
            energy: EnergyModel::default(),
        }
    }
}

impl Baseline for MapZero {
    fn name(&self) -> &'static str {
        "MapZero"
    }

    fn run(&self, program: &Program, arch: &CgraArch) -> Result<CompileReport, PtMapError> {
        realize_program(program, arch, &self.mapper, &self.energy, &[])
    }
}

/// IP: joint affine transformation (loop interchange) before pipelining.
/// Realized as PT-Map's pipeline restricted to reordering with the MII
/// analytical model.
#[derive(Debug, Clone)]
pub struct Ip {
    /// Ranking mode (Pareto for the Fig. 8 energy comparison).
    pub mode: RankMode,
    /// Back-end configuration.
    pub mapper: MapperConfig,
    /// Energy model.
    pub energy: EnergyModel,
}

impl Default for Ip {
    fn default() -> Self {
        Ip {
            mode: RankMode::Performance,
            mapper: MapperConfig::default(),
            energy: EnergyModel::default(),
        }
    }
}

impl Ip {
    fn explore_config() -> ExploreConfig {
        ExploreConfig {
            fusion_modes: vec![FusionMode::AsIs],
            tile_sizes: Vec::new(),
            unroll_factors: vec![1],
            max_unroll_dims: 0,
            max_unroll_product: 1,
            reorder_depth: 3,
            max_candidates_per_pnl: 24,
        }
    }
}

impl Baseline for Ip {
    fn name(&self) -> &'static str {
        "IP"
    }

    fn run(&self, program: &Program, arch: &CgraArch) -> Result<CompileReport, PtMapError> {
        let config = PtMapConfig {
            explore: Self::explore_config(),
            eval: EvalConfig::default(),
            mapper: self.mapper.clone(),
            mode: self.mode,
            energy: self.energy,
            ..PtMapConfig::default()
        };
        PtMap::new(Box::new(AnalyticalPredictor), config).compile(program, arch)
    }
}

/// PBP: polyhedral-based pipelining of imperfectly-nested loops — loop
/// fusion/fission and interchange, ranked by the MII analytical model
/// (no tiling or unrolling).
#[derive(Debug, Clone)]
pub struct Pbp {
    /// Ranking mode (Pareto for the Fig. 8 energy comparison).
    pub mode: RankMode,
    /// Back-end configuration.
    pub mapper: MapperConfig,
    /// Energy model.
    pub energy: EnergyModel,
}

impl Default for Pbp {
    fn default() -> Self {
        Pbp {
            mode: RankMode::Performance,
            mapper: MapperConfig::default(),
            energy: EnergyModel::default(),
        }
    }
}

impl Pbp {
    fn explore_config() -> ExploreConfig {
        ExploreConfig {
            fusion_modes: FusionMode::ALL.to_vec(),
            tile_sizes: Vec::new(),
            unroll_factors: vec![1],
            max_unroll_dims: 0,
            max_unroll_product: 1,
            reorder_depth: 3,
            max_candidates_per_pnl: 24,
        }
    }
}

impl Baseline for Pbp {
    fn name(&self) -> &'static str {
        "PBP"
    }

    fn run(&self, program: &Program, arch: &CgraArch) -> Result<CompileReport, PtMapError> {
        let config = PtMapConfig {
            explore: Self::explore_config(),
            eval: EvalConfig::default(),
            mapper: self.mapper.clone(),
            mode: self.mode,
            energy: self.energy,
            ..PtMapConfig::default()
        };
        PtMap::new(Box::new(AnalyticalPredictor), config).compile(program, arch)
    }
}

/// AM (Tab. 6): PT-Map's full exploration with the MII analytical model
/// in place of the GNN. The paper shows it favoring over-coarse
/// candidates whose real IIs make them unmappable; our pipeline surfaces
/// that as extra context-generation attempts or outright failure.
#[derive(Debug, Clone, Default)]
pub struct Am {
    /// Back-end configuration.
    pub mapper: MapperConfig,
    /// Energy model.
    pub energy: EnergyModel,
}

impl Baseline for Am {
    fn name(&self) -> &'static str {
        "AM"
    }

    fn run(&self, program: &Program, arch: &CgraArch) -> Result<CompileReport, PtMapError> {
        let config = PtMapConfig {
            explore: ExploreConfig::default(),
            eval: EvalConfig {
                top_k: 20,
                combine_k: 1,
            },
            mapper: self.mapper.clone(),
            mode: RankMode::Performance,
            energy: self.energy,
            // Paper-faithful AM: first mappable choice wins, no identity
            // guard, and exhausting the top-20 is a "fail" (Tab. 6).
            realize_beam: 1,
            identity_guard: false,
            fallback: false,
        };
        PtMap::new(Box::new(AnalyticalPredictor), config).compile(program, arch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptmap_arch::presets;

    #[test]
    fn scheduling_baselines_never_transform() {
        let p = ptmap_workloads::micro::gemm(24);
        let arch = presets::s4();
        for b in [
            &Ramp::default() as &dyn Baseline,
            &Lisa::default(),
            &MapZero::default(),
        ] {
            let r = b.run(&p, &arch).unwrap();
            assert_eq!(r.pnls.len(), 1);
            assert_eq!(r.pnls[0].desc, "as-is", "{} transformed the loop", b.name());
        }
    }

    #[test]
    fn stronger_schedulers_not_worse() {
        let p = ptmap_workloads::apps::covariance();
        let arch = presets::r4();
        let ramp = Ramp::default().run(&p, &arch).unwrap();
        let mapzero = MapZero::default().run(&p, &arch).unwrap();
        assert!(
            mapzero.cycles <= ramp.cycles * 11 / 10,
            "MapZero {} should be at most ~RAMP {}",
            mapzero.cycles,
            ramp.cycles
        );
    }

    #[test]
    fn ip_explores_interchange_only() {
        let p = ptmap_workloads::micro::gemm(32);
        let arch = presets::s4();
        let r = Ip::default().run(&p, &arch).unwrap();
        // No unrolled or tiled candidate can be chosen.
        assert!(!r.pnls[0].desc.contains("unroll"));
        assert!(!r.pnls[0].desc.contains("tile"));
    }

    #[test]
    fn pbp_beats_or_matches_ramp_on_gemm() {
        let p = ptmap_workloads::micro::gemm(32);
        let arch = presets::s4();
        let ramp = Ramp::default().run(&p, &arch).unwrap();
        let pbp = Pbp::default().run(&p, &arch).unwrap();
        assert!(
            pbp.cycles <= ramp.cycles,
            "PBP {} vs RAMP {}",
            pbp.cycles,
            ramp.cycles
        );
    }

    #[test]
    fn am_runs_or_fails_gracefully() {
        let p = ptmap_workloads::apps::atax();
        let arch = presets::sl8();
        // Either outcome is valid; it must not panic.
        let _ = Am::default().run(&p, &arch);
    }
}
