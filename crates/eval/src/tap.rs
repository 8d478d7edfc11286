//! Observe-only sample taps on accepted mappings.
//!
//! A [`SampleTap`] observes every mapping a compile accepts: the DFG
//! and architecture that were scored, what the predictor said, and
//! what the mapper actually produced — the predicted-vs-actual pair of
//! the paper's Fig. 6, taken from an ordinary compile. A tap is
//! installed per compiler with `PtMap::with_tap`; the benchmark's
//! traced pass uses one to collect the mapped DFGs. The tap sits
//! strictly off the decision path — implementations must not influence
//! the compile that fed them — so a compile reports the same result
//! with or without one (core's `tap_observes_without_changing_results`
//! test pins this down).
//!
//! The trait lives in `ptmap-eval`, next to the predictors whose
//! answers it reports, so `ptmap-core` can call it from its mapping
//! loop without a new dependency.

use ptmap_arch::CgraArch;
use ptmap_ir::Dfg;

/// What the pipeline observed for one accepted mapping: the predictor's
/// guess and the mapper's ground truth, plus enough metadata to turn
/// the pair into a training sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TapObservation {
    /// II the predictor forecast for this candidate.
    pub predicted_ii: u32,
    /// ProEpi the predictor forecast for this candidate.
    pub predicted_pro_epi: u32,
    /// II the mapper actually achieved.
    pub actual_ii: u32,
    /// ProEpi of the actual mapping.
    pub actual_pro_epi: u32,
    /// MII lower bound of the mapped DFG.
    pub mii: u32,
    /// Tripcount of the pipelined loop (for cycle-MAPE weighting).
    pub tc: u64,
    /// Mapper backend that produced the accepted mapping.
    pub backend: &'static str,
    /// Trace id of the compile, when tracing was active.
    pub trace_id: Option<String>,
}

/// An observer of completed compiles. Implementations must be cheap
/// and non-blocking (called on the request path) and must never feed
/// information back into compilation.
pub trait SampleTap: Send + Sync {
    /// Records one accepted mapping.
    fn record(&self, dfg: &Dfg, arch: &CgraArch, obs: &TapObservation);
}

/// A tap that counts and stores observations — for tests.
#[derive(Debug, Default)]
pub struct RecordingTap {
    observations: std::sync::Mutex<Vec<TapObservation>>,
}

impl RecordingTap {
    /// Empty recording tap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of everything recorded so far.
    pub fn observations(&self) -> Vec<TapObservation> {
        self.observations
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Number of recorded observations.
    pub fn len(&self) -> usize {
        self.observations
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl SampleTap for RecordingTap {
    fn record(&self, _dfg: &Dfg, _arch: &CgraArch, obs: &TapObservation) {
        self.observations
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(obs.clone());
    }
}
