//! PNL-level evaluation: prediction, profiling, pruning, ranking.

use crate::predictor::IiPredictor;
use crate::rank::{rank_pareto, rank_performance};
use crate::EvalConfig;
use ptmap_arch::CgraArch;
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

/// A profiled candidate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvaluatedCandidate {
    /// The candidate itself.
    pub candidate: PnlCandidate,
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
                candidate: candidate.clone(),
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
        candidate: candidate.clone(),
        cycles,
        volume: profile.total_volume(),
        ii,
        pro_epi,
        mii,
        pruned,
    }
}

/// Profiles and ranks every candidate of one PNL's result array.
fn evaluate_result_array(
    candidates: &[PnlCandidate],
    arch: &CgraArch,
    predictor: &dyn IiPredictor,
    config: &EvalConfig,
) -> PnlRanking {
    let evaluated: Vec<EvaluatedCandidate> = candidates
        .iter()
        .map(|c| evaluate_candidate(c, arch, predictor))
        .collect();
    rank_evaluated(evaluated, config)
}

/// Like [`evaluate_result_array`] but shards candidate profiling across
/// `workers` scoped threads under a cooperative
/// [`ptmap_governor::Budget`]. Candidates are independent, so the merged
/// (exploration-ordered) result is bit-identical to the serial path —
/// batch compilations lean on this for within-job parallelism. Every
/// shard checks the budget per candidate and stops early when it runs
/// out, so a deadline interrupts profiling within one candidate's
/// latency instead of one PNL's.
///
/// # Errors
///
/// [`crate::EvalError::Timeout`] / [`crate::EvalError::Cancelled`] when
/// the budget runs out mid-evaluation.
fn evaluate_result_array_sharded_budgeted(
    candidates: &[PnlCandidate],
    arch: &CgraArch,
    predictor: &(dyn IiPredictor + Sync),
    config: &EvalConfig,
    workers: usize,
    budget: &ptmap_governor::Budget,
) -> Result<PnlRanking, crate::EvalError> {
    if workers <= 1 || candidates.len() < 2 {
        let mut evaluated: Vec<EvaluatedCandidate> = Vec::with_capacity(candidates.len());
        for c in candidates {
            budget.check()?;
            evaluated.push(evaluate_candidate(c, arch, predictor));
        }
        return Ok(rank_evaluated(evaluated, config));
    }
    let chunk = candidates.len().div_ceil(workers.min(candidates.len()));
    let mut evaluated: Vec<Option<EvaluatedCandidate>> = vec![None; candidates.len()];
    std::thread::scope(|s| {
        for (out, work) in evaluated.chunks_mut(chunk).zip(candidates.chunks(chunk)) {
            s.spawn(move || {
                for (slot, c) in out.iter_mut().zip(work) {
                    // Early-out leaves the slot `None`; the caller sees
                    // the budget failure before ever unwrapping slots.
                    if budget.check().is_err() {
                        return;
                    }
                    *slot = Some(evaluate_candidate(c, arch, predictor));
                }
            });
        }
    });
    budget.check()?;
    let evaluated: Vec<EvaluatedCandidate> = evaluated
        .into_iter()
        .map(|e| e.expect("shard filled"))
        .collect();
    Ok(rank_evaluated(evaluated, config))
}

/// Ranking stage shared by the serial and sharded paths.
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
) -> crate::program::EvaluatedForest {
    let variants = forest
        .variants
        .iter()
        .map(|v| {
            let rankings: Vec<PnlRanking> = v
                .pnl_candidates
                .iter()
                .map(|ra| evaluate_result_array(ra, arch, predictor, config))
                .collect();
            crate::program::EvaluatedVariant {
                program: v.program.clone(),
                fusion: v.fusion,
                rankings,
            }
        })
        .collect();
    crate::program::EvaluatedForest { variants }
}

/// Profiles a whole result forest with candidate evaluation sharded
/// across `workers` threads under a cooperative
/// [`ptmap_governor::Budget`]. `workers <= 1` degenerates to the serial
/// path, and any worker count gives the same result as
/// [`evaluate_forest`].
///
/// # Errors
///
/// [`crate::EvalError::Timeout`] / [`crate::EvalError::Cancelled`] when
/// the budget runs out mid-evaluation.
pub fn evaluate_forest_sharded_budgeted(
    forest: &ResultForest,
    arch: &CgraArch,
    predictor: &(dyn IiPredictor + Sync),
    config: &EvalConfig,
    workers: usize,
    budget: &ptmap_governor::Budget,
) -> Result<crate::program::EvaluatedForest, crate::EvalError> {
    let mut variants = Vec::with_capacity(forest.variants.len());
    for v in &forest.variants {
        let mut rankings: Vec<PnlRanking> = Vec::with_capacity(v.pnl_candidates.len());
        for ra in &v.pnl_candidates {
            rankings.push(evaluate_result_array_sharded_budgeted(
                ra, arch, predictor, config, workers, budget,
            )?);
        }
        variants.push(crate::program::EvaluatedVariant {
            program: v.program.clone(),
            fusion: v.fusion,
            rankings,
        });
    }
    Ok(crate::program::EvaluatedForest { variants })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::AnalyticalPredictor;
    use ptmap_arch::presets;
    use ptmap_transform::{explore, ExploreConfig};
    use ptmap_workloads::micro;

    #[test]
    fn gemm_candidates_rank_and_prune() {
        let p = micro::gemm(64);
        let forest = explore(&p, &ExploreConfig::default());
        let arch = presets::s4();
        let ranking = evaluate_result_array(
            &forest.variants[0].pnl_candidates[0],
            &arch,
            &AnalyticalPredictor,
            &EvalConfig::default(),
        );
        assert!(!ranking.performance.is_empty());
        assert!(ranking.performance.len() <= 20);
        // Best performance candidate strictly beats the identity.
        let identity = ranking
            .evaluated
            .iter()
            .position(|e| e.candidate.unroll.is_empty() && e.candidate.nest.depth() == 3)
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
        let ranking = evaluate_result_array(
            &forest.variants[0].pnl_candidates[0],
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
    fn sharded_matches_serial() {
        let p = micro::gemm(48);
        let forest = explore(&p, &ExploreConfig::default());
        let arch = presets::s4();
        let cfg = EvalConfig::default();
        let serial = evaluate_result_array(
            &forest.variants[0].pnl_candidates[0],
            &arch,
            &AnalyticalPredictor,
            &cfg,
        );
        for workers in [2, 3, 8, 64] {
            let sharded = evaluate_result_array_sharded_budgeted(
                &forest.variants[0].pnl_candidates[0],
                &arch,
                &AnalyticalPredictor,
                &cfg,
                workers,
                &ptmap_governor::Budget::unlimited(),
            )
            .unwrap();
            assert_eq!(serial.performance, sharded.performance, "workers={workers}");
            assert_eq!(serial.pareto, sharded.pareto, "workers={workers}");
            assert_eq!(serial.evaluated.len(), sharded.evaluated.len());
            for (a, b) in serial.evaluated.iter().zip(&sharded.evaluated) {
                assert_eq!(a.cycles, b.cycles);
                assert_eq!(a.ii, b.ii);
                assert_eq!(a.pruned, b.pruned);
            }
        }
    }

    #[test]
    fn rankings_exclude_pruned() {
        let p = micro::gemm(64);
        let forest = explore(&p, &ExploreConfig::quick());
        let ranking = evaluate_result_array(
            &forest.variants[0].pnl_candidates[0],
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
    fn cancelled_budget_stops_evaluation_serial_and_sharded() {
        let p = micro::gemm(48);
        let forest = explore(&p, &ExploreConfig::quick());
        let candidates = &forest.variants[0].pnl_candidates[0];
        let budget = ptmap_governor::Budget::cancellable();
        budget.cancel();
        for workers in [1, 4] {
            let r = evaluate_result_array_sharded_budgeted(
                candidates,
                &presets::s4(),
                &AnalyticalPredictor,
                &EvalConfig::default(),
                workers,
                &budget,
            );
            assert_eq!(
                r.err(),
                Some(crate::EvalError::Cancelled),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn expired_deadline_times_out_evaluation() {
        let p = micro::gemm(48);
        let forest = explore(&p, &ExploreConfig::quick());
        let candidates = &forest.variants[0].pnl_candidates[0];
        let budget = ptmap_governor::Budget::with_deadline(std::time::Duration::ZERO);
        for workers in [1, 4] {
            let r = evaluate_result_array_sharded_budgeted(
                candidates,
                &presets::s4(),
                &AnalyticalPredictor,
                &EvalConfig::default(),
                workers,
                &budget,
            );
            assert_eq!(
                r.err(),
                Some(crate::EvalError::Timeout),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn generous_budget_matches_unbudgeted_ranking() {
        let p = micro::gemm(48);
        let forest = explore(&p, &ExploreConfig::quick());
        let candidates = &forest.variants[0].pnl_candidates[0];
        let free = evaluate_result_array(
            candidates,
            &presets::s4(),
            &AnalyticalPredictor,
            &EvalConfig::default(),
        );
        let budget = ptmap_governor::Budget::with_deadline(std::time::Duration::from_secs(3600));
        let timed = evaluate_result_array_sharded_budgeted(
            candidates,
            &presets::s4(),
            &AnalyticalPredictor,
            &EvalConfig::default(),
            4,
            &budget,
        )
        .unwrap();
        assert_eq!(free.performance, timed.performance);
        assert_eq!(free.pareto, timed.pareto);
        assert_eq!(free.evaluated.len(), timed.evaluated.len());
    }
}
