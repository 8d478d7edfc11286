//! AL (Tab. 6): budgeted black-box tuning over the Tab. 1 space — the
//! OpenTuner stand-in.
//!
//! Each trial samples a fusion mode, a random loop order per PNL, an
//! optional innermost tile, and a random unroll vector, then *measures*
//! the candidate by actually mapping and simulating it (black-box tuners
//! have no model). Illegal transformations and unmappable candidates
//! burn budget without producing a result — the volatility the paper
//! reports, especially for programs with many PNLs.

use super::Baseline;
use ptmap_arch::CgraArch;
use ptmap_core::{realize_program, CompileReport, PtMapError};
use ptmap_ir::{LoopId, Program};
use ptmap_mapper::MapperConfig;
use ptmap_sim::EnergyModel;
use ptmap_transform::explore::apply_fusion_mode;
use ptmap_transform::{primitives, FusionMode};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The black-box tuning baseline.
#[derive(Debug, Clone)]
pub struct Al {
    /// Candidate evaluations (the paper gave OpenTuner four hours; the
    /// default here is a scaled-down budget, see DESIGN.md).
    pub budget: usize,
    /// RNG seed.
    pub seed: u64,
    /// Back-end configuration.
    pub mapper: MapperConfig,
    /// Energy model.
    pub energy: EnergyModel,
}

impl Default for Al {
    fn default() -> Self {
        Al {
            budget: 40,
            seed: 0xA1,
            mapper: MapperConfig::default(),
            energy: EnergyModel::default(),
        }
    }
}

impl Al {
    /// Draws and evaluates one random candidate; `None` when the sampled
    /// transformation is illegal or unmappable.
    fn trial(&self, program: &Program, arch: &CgraArch, rng: &mut StdRng) -> Option<CompileReport> {
        let mode = *[
            FusionMode::AsIs,
            FusionMode::NoFuse,
            FusionMode::MaxFuse,
            FusionMode::SmartFuse,
        ]
        .choose(rng)
        .expect("non-empty");
        let mut p = apply_fusion_mode(program, mode);
        let nests = p.perfect_nests();
        let mut unroll_per_pnl: Vec<Vec<(LoopId, u32)>> = Vec::new();
        for nest in &nests {
            // Random loop order over the whole chain.
            let mut order = nest.loops.clone();
            order.shuffle(rng);
            if order != nest.loops {
                match primitives::reorder(&p, nest.loops[0], &order) {
                    Ok(q) => p = q,
                    Err(_) => return None, // illegal sample: budget burned
                }
            }
            let pipelined = *order.last().expect("nest non-empty");
            // Random innermost tile.
            if rng.gen_bool(0.4) {
                let tile = 1u64 << rng.gen_range(4..=10);
                match primitives::strip_mine(&p, pipelined, tile) {
                    Ok((q, _)) => p = q,
                    Err(_) => return None,
                }
            }
            // Random unroll of the (current) pipelined loop.
            let f = *[1u32, 2, 4, 8].choose(rng).expect("non-empty");
            unroll_per_pnl.push(if f > 1 {
                vec![(pipelined, f)]
            } else {
                Vec::new()
            });
        }
        // Re-align unroll vectors with the transformed program's nests.
        let nests_now = p.perfect_nests();
        if nests_now.len() != unroll_per_pnl.len() {
            return None;
        }
        realize_program(&p, arch, &self.mapper, &self.energy, &unroll_per_pnl).ok()
    }
}

impl Baseline for Al {
    fn name(&self) -> &'static str {
        "AL"
    }

    fn run(&self, program: &Program, arch: &CgraArch) -> Result<CompileReport, PtMapError> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut best: Option<CompileReport> = None;
        for _ in 0..self.budget {
            if let Some(r) = self.trial(program, arch, &mut rng) {
                if best.as_ref().is_none_or(|b| r.cycles < b.cycles) {
                    best = Some(r);
                }
            }
        }
        best.ok_or(PtMapError::NothingMappable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptmap_arch::presets;

    #[test]
    fn al_finds_some_mapping_on_gemm() {
        let p = ptmap_workloads::micro::gemm(24);
        let al = Al {
            budget: 12,
            ..Al::default()
        };
        let r = al.run(&p, &presets::s4()).unwrap();
        assert!(r.cycles > 0);
    }

    #[test]
    fn al_is_seed_sensitive() {
        let p = ptmap_workloads::micro::gemm(24);
        let arch = presets::s4();
        let a = Al {
            budget: 6,
            seed: 1,
            ..Al::default()
        }
        .run(&p, &arch);
        let b = Al {
            budget: 6,
            seed: 2,
            ..Al::default()
        }
        .run(&p, &arch);
        // Different seeds explore different candidates; both may succeed
        // but typically with different quality (volatility).
        if let (Ok(a), Ok(b)) = (a, b) {
            // No assertion on inequality (could coincide); just sanity.
            assert!(a.cycles > 0 && b.cycles > 0);
        }
    }

    #[test]
    fn bigger_budget_not_worse() {
        let p = ptmap_workloads::micro::gemm(24);
        let arch = presets::s4();
        let small = Al {
            budget: 4,
            seed: 7,
            ..Al::default()
        }
        .run(&p, &arch);
        let large = Al {
            budget: 24,
            seed: 7,
            ..Al::default()
        }
        .run(&p, &arch);
        if let (Ok(s), Ok(l)) = (small, large) {
            assert!(l.cycles <= s.cycles);
        }
    }
}
