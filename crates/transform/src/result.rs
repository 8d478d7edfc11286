//! The result forest produced by exploration.
//!
//! A leaf of the forest is a *result array* holding all valid
//! transformation candidates of one PNL (Fig. 5a); non-leaf structure is
//! implicit in the per-variant programs.

use crate::config::FusionMode;
use ptmap_ir::{LoopId, PerfectNest, Program};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One transformation candidate of a PNL: the (already rewritten)
/// program, the nest within it, and the unroll vector the DFG builder
/// will apply.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PnlCandidate {
    /// The transformed program this candidate's nest lives in.
    #[serde(skip, default = "empty_program")]
    pub program: Arc<Program>,
    /// The PNL after inter-loop transformations.
    pub nest: PerfectNest,
    /// Multi-dimensional unroll factors (loop, factor), factor ≥ 2.
    pub unroll: Vec<(LoopId, u32)>,
    /// Human-readable description of the applied primitives.
    pub desc: String,
}

fn empty_program() -> Arc<Program> {
    Arc::new(ptmap_ir::ProgramBuilder::new("deserialized").finish())
}

impl PnlCandidate {
    /// Unroll factor applied to a given loop (1 when not unrolled).
    pub fn unroll_factor(&self, l: LoopId) -> u32 {
        self.unroll
            .iter()
            .find(|&&(ul, _)| ul == l)
            .map(|&(_, f)| f)
            .unwrap_or(1)
    }

    /// Effective tripcounts of the nest loops after unrolling
    /// (`ceil(tc / factor)` per loop).
    pub fn effective_tripcounts(&self) -> Vec<u64> {
        self.nest.effective_tripcounts(&self.unroll)
    }

    /// Effective tripcount of the pipelined loop after unrolling.
    pub fn effective_pipelined_tc(&self) -> u64 {
        *self.effective_tripcounts().last().expect("nest non-empty")
    }

    /// Effective product of the folded (non-pipelined) tripcounts after
    /// unrolling, including imperfect outer loops.
    pub fn effective_folded_tc(&self) -> u64 {
        let eff = self.effective_tripcounts();
        eff[..eff.len() - 1].iter().product::<u64>() * self.nest.outer_tripcount()
    }

    /// Total unroll replication (product of factors).
    pub fn unroll_product(&self) -> u32 {
        self.unroll.iter().map(|&(_, f)| f).product()
    }
}

/// One program-level variant (a fusion/fission restructuring) and its
/// per-PNL result arrays.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProgramVariant {
    /// The restructured program.
    #[serde(skip, default = "empty_program")]
    pub program: Arc<Program>,
    /// Which fusion heuristic produced it.
    pub fusion: FusionMode,
    /// Result array per PNL, in program order.
    pub pnl_candidates: Vec<Vec<PnlCandidate>>,
}

impl ProgramVariant {
    /// Total candidates across all PNLs.
    pub fn candidate_count(&self) -> usize {
        self.pnl_candidates.iter().map(Vec::len).sum()
    }
}

/// Counters describing how the exploration spent its effort.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExploreStats {
    /// Loop orders enumerated across all PNLs.
    pub orders_enumerated: usize,
    /// Orders rejected by the dependence legality check.
    pub orders_illegal: usize,
    /// Tiled structures generated.
    pub tiled: usize,
    /// Flattened structures generated.
    pub flattened: usize,
    /// Unroll vectors attached (excluding the identity).
    pub unrolled: usize,
}

/// The exploration output: one variant per surviving fusion mode.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ResultForest {
    /// Program variants with their result arrays.
    pub variants: Vec<ProgramVariant>,
    /// Effort counters (Fig. 9's compile-time narrative).
    #[serde(default)]
    pub stats: ExploreStats,
}

impl ResultForest {
    /// Total candidates across the forest.
    pub fn candidate_count(&self) -> usize {
        self.variants
            .iter()
            .map(ProgramVariant::candidate_count)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptmap_ir::ProgramBuilder;

    fn candidate(unroll: Vec<(LoopId, u32)>) -> PnlCandidate {
        let mut b = ProgramBuilder::new("t");
        let x = b.array("X", &[8, 8]);
        let i = b.open_loop("i", 8);
        let j = b.open_loop("j", 8);
        b.store(x, &[b.idx(i), b.idx(j)], b.constant(0));
        b.close_loop();
        b.close_loop();
        let p = b.finish();
        let nest = p.perfect_nests().remove(0);
        PnlCandidate {
            program: Arc::new(p),
            nest,
            unroll,
            desc: "test".into(),
        }
    }

    #[test]
    fn effective_tripcounts_divide_by_factors() {
        let c0 = candidate(vec![]);
        let (i, j) = (c0.nest.loops[0], c0.nest.loops[1]);
        let c = candidate(vec![(i, 2), (j, 4)]);
        assert_eq!(c.effective_tripcounts(), vec![4, 2]);
        assert_eq!(c.effective_pipelined_tc(), 2);
        assert_eq!(c.effective_folded_tc(), 4);
        assert_eq!(c.unroll_product(), 8);
    }

    #[test]
    fn unroll_factor_defaults_to_one() {
        let c = candidate(vec![]);
        assert_eq!(c.unroll_factor(LoopId(99)), 1);
        assert_eq!(c.effective_tripcounts(), vec![8, 8]);
    }
}
