//! PNL-level evaluation: prediction, profiling, pruning, ranking.

use crate::predictor::IiPredictor;
use crate::program::{EvaluatedForest, EvaluatedVariant};
use crate::rank::{rank_pareto, rank_performance};
use crate::EvalConfig;
use ptmap_arch::CgraArch;
use ptmap_governor::{Budget, BudgetExceeded};
use ptmap_ir::dfg::build_dfg;
use ptmap_model::{pnl_cycles, pnl_total_cycles, MemoryProfiler};
use ptmap_transform::{PnlCandidate, ResultForest};
use serde::{Deserialize, Serialize};

/// Why a candidate was pruned by the architectural constraints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PruneReason {
    /// Predicted II exceeds the context-buffer capacity.
    ContextBuffer {
        /// Predicted II.
        ii: u32,
        /// CB capacity in contexts.
        capacity: u32,
    },
    /// The pipelined working set misses in the data buffer.
    DataBuffer {
        /// Detected capacity misses.
        misses: u64,
    },
    /// The DFG could not be built or is degenerate.
    Malformed,
}

/// A profiled candidate. It sits at the candidate's own index in
/// [`PnlRanking::evaluated`], which follows the exploration order of
/// the PNL's result array, so the candidate itself is read from the
/// forest.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvaluatedCandidate {
    /// Predicted computation cycles for the whole PNL (Eqn. 2).
    pub cycles: u64,
    /// Estimated off-CGRA volume in bytes (data + contexts).
    pub volume: u64,
    /// Predicted II.
    pub ii: u32,
    /// Predicted ProEpi.
    pub pro_epi: u32,
    /// The MII prior.
    pub mii: u32,
    /// Set when the candidate violates a constraint.
    pub pruned: Option<PruneReason>,
}

/// Evaluation result for one PNL: all candidates plus both rankings
/// (indices into `evaluated`, pruned candidates excluded).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PnlRanking {
    /// Profiled candidates, in exploration order.
    pub evaluated: Vec<EvaluatedCandidate>,
    /// Performance-mode ranking (top-K).
    pub performance: Vec<usize>,
    /// Pareto-mode ranking (top-K).
    pub pareto: Vec<usize>,
}

/// Profiles a single candidate.
pub fn evaluate_candidate(
    candidate: &PnlCandidate,
    arch: &CgraArch,
    predictor: &dyn IiPredictor,
) -> EvaluatedCandidate {
    let dfg = match build_dfg(&candidate.program, &candidate.nest, &candidate.unroll) {
        Ok(d) if !d.is_empty() => d,
        _ => {
            return EvaluatedCandidate {
                cycles: u64::MAX,
                volume: u64::MAX,
                ii: 0,
                pro_epi: 0,
                mii: 0,
                pruned: Some(PruneReason::Malformed),
            }
        }
    };
    let mii = ptmap_mapper::mii(&dfg, arch);
    let (ii, pro_epi) = predictor.predict(&dfg, arch);
    let cycle_l = pnl_cycles(candidate.effective_pipelined_tc(), ii, pro_epi);
    let compute = pnl_total_cycles(cycle_l, candidate.effective_folded_tc());
    let profile = MemoryProfiler::new(&candidate.program).profile(&candidate.nest, arch, ii);
    // Rank on the same double-buffered total the simulator will charge:
    // memory-bound candidates must not look fast.
    let transfer = profile
        .total_volume()
        .div_ceil(ptmap_sim::exec::OFFCHIP_BYTES_PER_CYCLE);
    let cycles = compute.max(transfer);

    let mut pruned = None;
    if ii > arch.cb_capacity() {
        pruned = Some(PruneReason::ContextBuffer {
            ii,
            capacity: arch.cb_capacity(),
        });
    } else if profile.capacity_misses > 0 {
        pruned = Some(PruneReason::DataBuffer {
            misses: profile.capacity_misses,
        });
    }

    EvaluatedCandidate {
        cycles,
        volume: profile.total_volume(),
        ii,
        pro_epi,
        mii,
        pruned,
    }
}

/// Ranks one PNL's profiled candidates, pruned ones excluded.
fn rank_evaluated(evaluated: Vec<EvaluatedCandidate>, config: &EvalConfig) -> PnlRanking {
    let survivors: Vec<usize> = (0..evaluated.len())
        .filter(|&i| evaluated[i].pruned.is_none())
        .collect();
    let points: Vec<(u64, u64)> = survivors
        .iter()
        .map(|&i| (evaluated[i].cycles, evaluated[i].volume))
        .collect();
    let performance: Vec<usize> = rank_performance(&points)
        .into_iter()
        .map(|r| survivors[r])
        .take(config.top_k)
        .collect();
    let pareto: Vec<usize> = rank_pareto(&points)
        .into_iter()
        .map(|r| survivors[r])
        .take(config.top_k)
        .collect();
    PnlRanking {
        evaluated,
        performance,
        pareto,
    }
}

/// Profiles a whole result forest.
pub fn evaluate_forest(
    forest: &ResultForest,
    arch: &CgraArch,
    predictor: &dyn IiPredictor,
    config: &EvalConfig,
) -> EvaluatedForest {
    evaluate_forest_budgeted(forest, arch, predictor, config, &Budget::unlimited())
        .expect("an unlimited budget never runs out")
}

/// [`evaluate_forest`] under a cooperative [`Budget`], checked before
/// each candidate so a deadline interrupts profiling within one
/// candidate's latency. Candidates are profiled in exploration order,
/// one predictor call each.
///
/// # Errors
///
/// The [`BudgetExceeded`] class when the budget runs out
/// mid-evaluation.
pub fn evaluate_forest_budgeted(
    forest: &ResultForest,
    arch: &CgraArch,
    predictor: &dyn IiPredictor,
    config: &EvalConfig,
    budget: &Budget,
) -> Result<EvaluatedForest, BudgetExceeded> {
    let mut variants = Vec::with_capacity(forest.variants.len());
    for v in &forest.variants {
        let mut rankings = Vec::with_capacity(v.pnl_candidates.len());
        for candidates in &v.pnl_candidates {
            let mut evaluated = Vec::with_capacity(candidates.len());
            for c in candidates {
                budget.check()?;
                evaluated.push(evaluate_candidate(c, arch, predictor));
            }
            rankings.push(rank_evaluated(evaluated, config));
        }
        variants.push(EvaluatedVariant {
            program: v.program.clone(),
            fusion: v.fusion,
            rankings,
        });
    }
    Ok(EvaluatedForest { variants })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::AnalyticalPredictor;
    use ptmap_arch::presets;
    use ptmap_transform::{explore, ExploreConfig};
    use ptmap_workloads::micro;

    /// The ranking of the first PNL of the first variant.
    fn first_ranking(
        forest: &ResultForest,
        arch: &CgraArch,
        predictor: &dyn IiPredictor,
        config: &EvalConfig,
    ) -> PnlRanking {
        evaluate_forest(forest, arch, predictor, config).variants[0].rankings[0].clone()
    }

    #[test]
    fn gemm_candidates_rank_and_prune() {
        let p = micro::gemm(64);
        let forest = explore(&p, &ExploreConfig::default());
        let arch = presets::s4();
        let ranking = first_ranking(&forest, &arch, &AnalyticalPredictor, &EvalConfig::default());
        assert!(!ranking.performance.is_empty());
        assert!(ranking.performance.len() <= 20);
        // Best performance candidate strictly beats the identity.
        let identity = forest.variants[0].pnl_candidates[0]
            .iter()
            .position(|c| c.unroll.is_empty() && c.nest.depth() == 3)
            .expect("identity candidate present");
        let best = ranking.performance[0];
        assert!(
            ranking.evaluated[best].cycles <= ranking.evaluated[identity].cycles,
            "ranking must not prefer worse-than-identity"
        );
    }

    #[test]
    fn cb_pruning_fires_for_large_predicted_ii() {
        // Oracle predictor on a congested architecture: some heavily
        // unrolled candidate should exceed CB capacity 8 and be pruned,
        // or at minimum no pruned candidate may appear in the rankings.
        let p = micro::gemm(64);
        let forest = explore(&p, &ExploreConfig::default());
        let arch = presets::r4();
        let ranking = first_ranking(
            &forest,
            &arch,
            &crate::predictor::OraclePredictor::default(),
            &EvalConfig::default(),
        );
        for &i in ranking.performance.iter().chain(&ranking.pareto) {
            assert!(ranking.evaluated[i].pruned.is_none());
        }
        let pruned = ranking
            .evaluated
            .iter()
            .filter(|e| e.pruned.is_some())
            .count();
        assert!(pruned > 0, "expected some pruned candidate on R4");
    }

    #[test]
    fn rankings_exclude_pruned() {
        let p = micro::gemm(64);
        let forest = explore(&p, &ExploreConfig::quick());
        let ranking = first_ranking(
            &forest,
            &presets::s4(),
            &AnalyticalPredictor,
            &EvalConfig {
                top_k: 5,
                combine_k: 2,
            },
        );
        assert!(ranking.performance.len() <= 5);
        assert!(ranking.pareto.len() <= 5);
    }

    #[test]
    fn cancelled_budget_stops_evaluation() {
        let p = micro::gemm(48);
        let forest = explore(&p, &ExploreConfig::quick());
        let budget = Budget::cancellable();
        budget.cancel();
        let r = evaluate_forest_budgeted(
            &forest,
            &presets::s4(),
            &AnalyticalPredictor,
            &EvalConfig::default(),
            &budget,
        );
        assert_eq!(r.err(), Some(BudgetExceeded::Cancelled));
    }

    #[test]
    fn expired_deadline_times_out_evaluation() {
        let p = micro::gemm(48);
        let forest = explore(&p, &ExploreConfig::quick());
        let budget = Budget::with_deadline(std::time::Duration::ZERO);
        let r = evaluate_forest_budgeted(
            &forest,
            &presets::s4(),
            &AnalyticalPredictor,
            &EvalConfig::default(),
            &budget,
        );
        assert_eq!(r.err(), Some(BudgetExceeded::Timeout));
    }

    #[test]
    fn generous_budget_matches_unbudgeted_ranking() {
        let p = micro::gemm(48);
        let forest = explore(&p, &ExploreConfig::quick());
        let free = evaluate_forest(
            &forest,
            &presets::s4(),
            &AnalyticalPredictor,
            &EvalConfig::default(),
        );
        let budget = Budget::with_deadline(std::time::Duration::from_secs(3600));
        let timed = evaluate_forest_budgeted(
            &forest,
            &presets::s4(),
            &AnalyticalPredictor,
            &EvalConfig::default(),
            &budget,
        )
        .unwrap();
        assert_eq!(free.variants.len(), timed.variants.len());
        for (f, t) in free.variants.iter().zip(&timed.variants) {
            for (a, b) in f.rankings.iter().zip(&t.rankings) {
                assert_eq!(a.performance, b.performance);
                assert_eq!(a.pareto, b.pareto);
                assert_eq!(a.evaluated.len(), b.evaluated.len());
            }
        }
    }
}
