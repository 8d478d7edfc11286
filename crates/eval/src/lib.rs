//! Bottom-up evaluation of transformation candidates (Section 3.3).
//!
//! The exploration's result forest is profiled PNL-by-PNL:
//!
//! 1. each candidate's DFG gets an `(II, ProEpi)` prediction from a
//!    pluggable [`IiPredictor`] (the GNN, the MII analytical model, or
//!    the mapper itself as an oracle);
//! 2. Eqn. 1–2 turn the prediction into computation cycles, and the
//!    memory profiler estimates the off-CGRA volume;
//! 3. candidates violating the context-buffer (predicted II beyond CB
//!    capacity) or data-buffer (pipelined working set misses) constraints
//!    are pruned;
//! 4. survivors are ranked in *performance* mode (cycles, then volume)
//!    and *Pareto* mode (hypervolume against a reference point), and the
//!    per-PNL top-K selections combine into program-level choices via
//!    Eqn. 5.

pub mod pnl;
pub mod predictor;
pub mod program;
pub mod rank;
pub mod tap;

pub use pnl::{
    evaluate_candidate, evaluate_forest, evaluate_forest_budgeted, EvaluatedCandidate, PnlRanking,
    PruneReason,
};
pub use predictor::{AnalyticalPredictor, GnnPredictor, IiPredictor, OraclePredictor};
pub use program::{non_pnl_cycles, select_programs, EvaluatedForest, ProgramChoice};
pub use rank::{hypervolume, rank_pareto, rank_performance, RankMode};
pub use tap::{RecordingTap, SampleTap, TapObservation};

use serde::{Deserialize, Serialize};

/// Evaluation configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalConfig {
    /// Candidates kept per PNL after ranking (paper: top-20).
    pub top_k: usize,
    /// Per-PNL selections combined at the program level (bounds the
    /// combination product).
    pub combine_k: usize,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            top_k: 20,
            combine_k: 3,
        }
    }
}
