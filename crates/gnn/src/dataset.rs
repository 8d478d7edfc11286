//! Dataset generation: paired `<G_sw, G_hw, Vec> -> <II_map, ProEpi>`
//! samples labeled by the modulo-scheduling mapper (Tab. 4's synthetic
//! benchmark, at a reduced default scale).

use crate::features::{build_input, GnnInput};
use ptmap_arch::CgraArch;
use ptmap_ir::dfg::build_dfg;
use ptmap_ir::{Dfg, PerfectNest, Program};
use ptmap_mapper::{map_dfg, MapperConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One labeled sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Model input.
    pub input: GnnInput,
    /// Labeled mapped II.
    pub ii: u32,
    /// Labeled ProEpi.
    pub pro_epi: u32,
    /// MII prior of the sample.
    pub mii: u32,
    /// Tripcount of the pipelined loop (for cycle MAPE).
    pub tc: u64,
    /// Critical-path ProEpi estimate (what the MII-based analytical
    /// model would use).
    pub cp_estimate: u32,
}

/// Configuration of synthetic dataset generation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DatasetConfig {
    /// Target number of labeled samples (failed mappings are skipped).
    pub samples: usize,
    /// Architectures to sample from.
    #[serde(skip)]
    pub archs: Vec<CgraArch>,
    /// Unroll factors to sample from.
    pub unroll_factors: Vec<u32>,
    /// Mapper configuration used for labeling.
    pub mapper: MapperConfig,
    /// Generator seed.
    pub seed: u64,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig {
            samples: 512,
            archs: ptmap_arch::presets::evaluation_suite(),
            unroll_factors: vec![1, 2, 4, 8],
            mapper: MapperConfig::default(),
            seed: 1,
        }
    }
}

/// Generates a synthetic dataset: random single-level loops ×
/// randomly-sampled architectures × random unroll factors, labeled by
/// the mapper.
pub fn generate_dataset(config: &DatasetConfig) -> Vec<Sample> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut gen = ptmap_workloads_randgen(config.seed);
    let mut out = Vec::with_capacity(config.samples);
    let mut attempts = 0usize;
    while out.len() < config.samples && attempts < config.samples * 8 {
        attempts += 1;
        let program = gen.next_program();
        let nest = program.perfect_nests().remove(0);
        let arch = &config.archs[rng.gen_range(0..config.archs.len())];
        let f = config.unroll_factors[rng.gen_range(0..config.unroll_factors.len())];
        let unroll: Vec<(ptmap_ir::LoopId, u32)> = if f > 1 {
            vec![(nest.pipelined_loop(), f)]
        } else {
            Vec::new()
        };
        if let Some(s) = label_sample(&program, &nest, &unroll, arch, &config.mapper) {
            out.push(s);
        }
    }
    out
}

/// Labels one (program, nest, unroll, arch) combination by running the
/// mapper; `None` when the mapping fails.
pub fn label_sample(
    program: &Program,
    nest: &PerfectNest,
    unroll: &[(ptmap_ir::LoopId, u32)],
    arch: &CgraArch,
    mapper: &MapperConfig,
) -> Option<Sample> {
    let dfg = build_dfg(program, nest, unroll).ok()?;
    if dfg.is_empty() || dfg.len() > 200 {
        return None;
    }
    let mapping = map_dfg(&dfg, arch, mapper).ok()?;
    let input = build_input(&dfg, arch);
    let factor: u64 = unroll
        .iter()
        .filter(|&&(l, _)| l == nest.pipelined_loop())
        .map(|&(_, f)| f as u64)
        .product::<u64>()
        .max(1);
    Some(Sample {
        mii: input.mii,
        cp_estimate: cp_proepi(&dfg, input.mii),
        input,
        ii: mapping.ii,
        pro_epi: mapping.pro_epi(),
        tc: nest.pipelined_tripcount().div_ceil(factor),
    })
}

fn cp_proepi(dfg: &Dfg, mii: u32) -> u32 {
    dfg.critical_path().saturating_sub(mii)
}

fn ptmap_workloads_randgen(seed: u64) -> ptmap_workloads::RandomProgramGenerator {
    ptmap_workloads::RandomProgramGenerator::new(
        ptmap_workloads::RandomProgramConfig::default(),
        seed ^ 0x5EED,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptmap_arch::presets;

    #[test]
    fn generates_requested_count() {
        let data = generate_dataset(&DatasetConfig {
            samples: 30,
            archs: vec![presets::s4()],
            seed: 2,
            ..DatasetConfig::default()
        });
        assert!(data.len() >= 25, "got {}", data.len());
        for s in &data {
            assert!(s.ii >= s.mii);
            assert!(s.tc >= 8);
        }
    }

    #[test]
    fn unrolled_samples_show_residuals() {
        // With unrolling in the mix some samples have II > MII — the
        // signal the residual task learns.
        let data = generate_dataset(&DatasetConfig {
            samples: 60,
            archs: vec![presets::sl8(), presets::r4()],
            seed: 9,
            ..DatasetConfig::default()
        });
        let with_res = data.iter().filter(|s| s.ii > s.mii).count();
        assert!(
            with_res > 0,
            "no sample with II > MII out of {}",
            data.len()
        );
    }

    #[test]
    fn deterministic() {
        let cfg = DatasetConfig {
            samples: 10,
            archs: vec![presets::s4()],
            seed: 4,
            ..DatasetConfig::default()
        };
        let a = generate_dataset(&cfg);
        let b = generate_dataset(&cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.ii, x.pro_epi, x.mii), (y.ii, y.pro_epi, y.mii));
        }
    }
}
