//! Pluggable `(II, ProEpi)` predictors.

use ptmap_arch::CgraArch;
use ptmap_gnn::{HwEmbedding, SwKey};
use ptmap_ir::Dfg;
use ptmap_mapper::{map_dfg, MapperConfig};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Predicts the mapped II and pipeline fill/drain cycles of a DFG on an
/// architecture, without (necessarily) running loop scheduling.
pub trait IiPredictor {
    /// Returns `(ii, pro_epi)`; implementations must return `ii >= 1`.
    fn predict(&self, dfg: &Dfg, arch: &CgraArch) -> (u32, u32);

    /// A short name for reports.
    fn name(&self) -> &'static str;

    /// Model-version provenance. No predictor in the workspace carries
    /// one, so this is always `None`; it stays only because the
    /// benchmark's timing wrapper (`perfbench/src/suite.rs`) forwards
    /// it, and goes with that forwarding impl.
    fn version(&self) -> Option<u64> {
        None
    }
}

/// GNN-backed predictor (the PT-Map default).
///
/// Scores candidates on the tape-free inference path: the `G_hw` branch
/// is embedded once per architecture, and each candidate builds only
/// its `G_sw` half. Many candidates of one compile unroll to DFGs of the
/// same shape, so the predictor also memoizes its answer per
/// architecture and [`SwKey`]: a repeated shape returns the stored
/// answer without building an input or running the forward pass. Both
/// caches live on the instance (shared by concurrent callers and by
/// clones) and are dropped with it;
/// `PredictorSpec::instantiate` creates one instance per compile.
#[derive(Debug, Clone)]
pub struct GnnPredictor {
    model: ptmap_gnn::PtMapGnn,
    hw: Arc<Mutex<HwCache>>,
}

/// Per architecture a [`GnnPredictor`] has seen: its `G_hw` embedding
/// and the answers given so far, by DFG shape.
type HwCache = Vec<(CgraArch, HwEmbedding, HashMap<SwKey, (u32, u32)>)>;

impl GnnPredictor {
    /// Wraps a (trained) model.
    pub fn new(model: ptmap_gnn::PtMapGnn) -> Self {
        GnnPredictor {
            model,
            hw: Arc::default(),
        }
    }

    /// Access to the underlying model (e.g. for fine-tuning).
    pub fn model(&self) -> &ptmap_gnn::PtMapGnn {
        &self.model
    }

    /// The stored answer for `key` on `arch`, or else the architecture's
    /// `G_hw` embedding (computed on first use) to compute it with.
    fn lookup(&self, arch: &CgraArch, key: &SwKey) -> Result<(u32, u32), HwEmbedding> {
        let mut cache = self.lock();
        if let Some((_, hw, memo)) = cache.iter().find(|(a, _, _)| a == arch) {
            return memo.get(key).copied().ok_or_else(|| hw.clone());
        }
        let hw = self.model.embed_arch(arch);
        cache.push((arch.clone(), hw.clone(), HashMap::new()));
        Err(hw)
    }

    /// Stores the answer for `key` on `arch` (whose entry [`lookup`]
    /// created).
    ///
    /// [`lookup`]: Self::lookup
    fn remember(&self, arch: &CgraArch, key: SwKey, answer: (u32, u32)) {
        let mut cache = self.lock();
        if let Some((_, _, memo)) = cache.iter_mut().find(|(a, _, _)| a == arch) {
            memo.insert(key, answer);
        }
    }

    fn lock(&self) -> MutexGuard<'_, HwCache> {
        self.hw.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl IiPredictor for GnnPredictor {
    fn predict(&self, dfg: &Dfg, arch: &CgraArch) -> (u32, u32) {
        let key = SwKey::of(dfg);
        let hw = match self.lookup(arch, &key) {
            Ok(answer) => return answer,
            Err(hw) => hw,
        };
        // The forward pass runs outside the lock; threads that miss on
        // the same shape at once compute the same answer.
        let input = ptmap_gnn::build_sw_input(dfg, arch);
        let p = self.model.predict_sw(&input, &hw);
        let answer = (p.ii.max(1), p.pro_epi);
        self.remember(arch, key, answer);
        answer
    }

    fn name(&self) -> &'static str {
        "gnn"
    }
}

/// MII-based analytical predictor (PBP's model; the `AM` ablation).
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalyticalPredictor;

impl IiPredictor for AnalyticalPredictor {
    fn predict(&self, dfg: &Dfg, arch: &CgraArch) -> (u32, u32) {
        let ii = ptmap_mapper::mii(dfg, arch).max(1);
        (ii, dfg.critical_path().saturating_sub(ii))
    }

    fn name(&self) -> &'static str {
        "mii-analytical"
    }
}

/// Oracle predictor: actually runs the modulo scheduler. Exact but as
/// expensive as loop scheduling — used for ground truth and tests.
#[derive(Debug, Clone, Default)]
pub struct OraclePredictor {
    /// Mapper configuration used for the oracle runs.
    pub config: MapperConfig,
}

impl IiPredictor for OraclePredictor {
    fn predict(&self, dfg: &Dfg, arch: &CgraArch) -> (u32, u32) {
        match map_dfg(dfg, arch, &self.config) {
            Ok(m) => (m.ii, m.pro_epi()),
            // Infeasible: report an II past any CB capacity so the
            // pruning stage rejects the candidate.
            Err(_) => (u32::MAX / 2, 0),
        }
    }

    fn name(&self) -> &'static str {
        "oracle"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptmap_arch::presets;
    use ptmap_ir::{dfg::build_dfg, ProgramBuilder};

    fn dfg() -> Dfg {
        dfg_with(1, 1)
    }

    /// `X[i] += c`, unrolled `factor` times.
    fn dfg_with(c: i64, factor: u32) -> Dfg {
        let mut b = ProgramBuilder::new("k");
        let x = b.array("X", &[128]);
        let i = b.open_loop("i", 128);
        let v = b.add(b.load(x, &[b.idx(i)]), b.constant(c));
        b.store(x, &[b.idx(i)], v);
        b.close_loop();
        let p = b.finish();
        let nest = p.perfect_nests().remove(0);
        build_dfg(&p, &nest, &[(nest.pipelined_loop(), factor)]).unwrap()
    }

    #[test]
    fn analytical_matches_mii() {
        let d = dfg();
        let arch = presets::s4();
        let (ii, _) = AnalyticalPredictor.predict(&d, &arch);
        assert_eq!(ii, ptmap_mapper::mii(&d, &arch));
    }

    #[test]
    fn oracle_at_least_analytical() {
        let d = dfg();
        let arch = presets::s4();
        let (ii_a, _) = AnalyticalPredictor.predict(&d, &arch);
        let (ii_o, _) = OraclePredictor::default().predict(&d, &arch);
        assert!(ii_o >= ii_a);
    }

    #[test]
    fn gnn_predictor_runs_untrained() {
        let model = ptmap_gnn::PtMapGnn::new(ptmap_gnn::ModelConfig {
            hidden: 8,
            ..ptmap_gnn::ModelConfig::default()
        });
        let (ii, _) = GnnPredictor::new(model).predict(&dfg(), &presets::s4());
        assert!(ii >= 1);
    }

    #[test]
    fn gnn_predictor_stores_one_answer_per_shape_and_arch() {
        let model = ptmap_gnn::PtMapGnn::new(ptmap_gnn::ModelConfig {
            hidden: 8,
            ..ptmap_gnn::ModelConfig::default()
        });
        let predictor = GnnPredictor::new(model);
        let (s4, r4) = (presets::s4(), presets::r4());
        // The constant differs only in an `imm`: one shape.
        let same = [dfg_with(1, 1), dfg_with(1, 1), dfg_with(7, 1)];
        let answers: Vec<_> = same.iter().map(|d| predictor.predict(d, &s4)).collect();
        assert!(answers.iter().all(|&a| a == answers[0]));
        predictor.predict(&dfg_with(1, 2), &s4);
        predictor.predict(&dfg_with(1, 2), &r4);
        let memo_sizes: Vec<usize> = predictor.lock().iter().map(|(_, _, m)| m.len()).collect();
        assert_eq!(memo_sizes, [2, 1]);
    }
}
