//! Per-compilation stage metrics.
//!
//! [`PtMap::compile_instrumented_traced`](crate::PtMap::compile_instrumented_traced)
//! fills a [`CompileMetrics`] while it runs, splitting the wall clock
//! across the four pipeline stages (exploration, evaluation, modulo
//! scheduling, simulation) and counting how the search spent its
//! effort. The batch pipeline (`ptmap-pipeline`) aggregates these per
//! job and across a whole manifest.

use serde::{Deserialize, Serialize};

/// Stage timings and effort counters for one compilation.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CompileMetrics {
    /// Wall-clock seconds in top-down exploration.
    pub explore_seconds: f64,
    /// Wall-clock seconds in bottom-up evaluation (prediction, memory
    /// profiling, pruning, ranking).
    pub evaluate_seconds: f64,
    /// Wall-clock seconds in the modulo-scheduling back-end (context
    /// generation `map_dfg` calls, including failed attempts).
    pub map_seconds: f64,
    /// Wall-clock seconds simulating accepted mappings (memory
    /// profiling, cycle/energy totals).
    pub simulate_seconds: f64,
    /// Candidates produced by the exploration.
    pub candidates_explored: usize,
    /// Candidates rejected by the CB/DB constraints.
    pub candidates_pruned: usize,
    /// `map_dfg` calls that produced a valid mapping.
    pub mapper_accepts: usize,
    /// `map_dfg` calls rejected by the scheduler.
    pub mapper_rejects: usize,
    /// Accepted mappings that were additionally checked by the mapping
    /// invariant validator (`ptmap_mapper::validate`); nonzero only when
    /// validation is enabled via config or `PTMAP_VALIDATE`.
    #[serde(default)]
    pub mappings_validated: usize,
    /// Ranked program-level choices tried during context generation.
    pub context_generation_attempts: usize,
    /// Mappings produced by the heuristic search (in portfolio mode:
    /// races the heuristic arm won or tied).
    #[serde(default)]
    pub backend_heuristic_wins: usize,
    /// Mappings produced by the exact branch-and-bound search (in
    /// portfolio mode: races it won with a strictly lower II).
    #[serde(default)]
    pub backend_exact_wins: usize,
    /// Mappings whose II was proven optimal (exact infeasibility proof
    /// below it, or landing exactly on the MII).
    #[serde(default)]
    pub exact_optimality_proofs: usize,
    /// Losing portfolio arms cancelled after a winner landed.
    #[serde(default)]
    pub portfolio_cancellations: usize,
    /// Degradations applied to produce this result (e.g. a retry at
    /// reduced effort after a timeout, or an analytical-predictor
    /// fallback after a GNN load failure). Empty for a full-fidelity
    /// compilation; consumers treat any entry as "result is best-effort".
    #[serde(default)]
    pub degradations: Vec<String>,
    /// Compilations that fell back from a GNN predictor to the
    /// analytical model (checkpoint missing/corrupt). A per-compile
    /// 0/1 flag that aggregates into a batch-wide count via
    /// [`absorb`](CompileMetrics::absorb).
    #[serde(default)]
    pub predictor_fallbacks: usize,
    /// Version of the model snapshot the predictor was loaded from,
    /// when it carries provenance (see `GnnPredictor::versioned`);
    /// `None` for analytical/oracle predictors and unversioned
    /// checkpoints. Aggregation keeps the highest version seen.
    #[serde(default)]
    pub model_version: Option<u64>,
}

impl CompileMetrics {
    /// Total instrumented time (sum of the four stages).
    pub fn staged_seconds(&self) -> f64 {
        self.explore_seconds + self.evaluate_seconds + self.map_seconds + self.simulate_seconds
    }

    /// Accumulates another compilation's metrics into `self`.
    pub fn absorb(&mut self, other: &CompileMetrics) {
        self.explore_seconds += other.explore_seconds;
        self.evaluate_seconds += other.evaluate_seconds;
        self.map_seconds += other.map_seconds;
        self.simulate_seconds += other.simulate_seconds;
        self.candidates_explored += other.candidates_explored;
        self.candidates_pruned += other.candidates_pruned;
        self.mapper_accepts += other.mapper_accepts;
        self.mapper_rejects += other.mapper_rejects;
        self.mappings_validated += other.mappings_validated;
        self.context_generation_attempts += other.context_generation_attempts;
        self.backend_heuristic_wins += other.backend_heuristic_wins;
        self.backend_exact_wins += other.backend_exact_wins;
        self.exact_optimality_proofs += other.exact_optimality_proofs;
        self.portfolio_cancellations += other.portfolio_cancellations;
        self.degradations.extend(other.degradations.iter().cloned());
        self.predictor_fallbacks += other.predictor_fallbacks;
        self.model_version = self.model_version.max(other.model_version);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_fields() {
        let mut a = CompileMetrics {
            explore_seconds: 1.0,
            candidates_explored: 3,
            mapper_accepts: 1,
            ..CompileMetrics::default()
        };
        let b = CompileMetrics {
            explore_seconds: 0.5,
            candidates_explored: 2,
            mapper_rejects: 4,
            ..CompileMetrics::default()
        };
        a.absorb(&b);
        assert_eq!(a.explore_seconds, 1.5);
        assert_eq!(a.candidates_explored, 5);
        assert_eq!(a.mapper_accepts, 1);
        assert_eq!(a.mapper_rejects, 4);
        assert!(a.staged_seconds() > 1.49);
    }

    #[test]
    fn absorb_sums_fallbacks_and_keeps_max_model_version() {
        let mut a = CompileMetrics {
            predictor_fallbacks: 1,
            model_version: Some(3),
            ..CompileMetrics::default()
        };
        let b = CompileMetrics {
            predictor_fallbacks: 2,
            model_version: Some(1),
            ..CompileMetrics::default()
        };
        a.absorb(&b);
        assert_eq!(a.predictor_fallbacks, 3);
        assert_eq!(a.model_version, Some(3));
        // None never regresses a known version.
        a.absorb(&CompileMetrics::default());
        assert_eq!(a.model_version, Some(3));
        // A known version upgrades None.
        let mut c = CompileMetrics::default();
        c.absorb(&a);
        assert_eq!(c.model_version, Some(3));
    }
}
