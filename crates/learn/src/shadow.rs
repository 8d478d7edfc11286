//! Shadow evaluation: per-model cycle-error accumulators and the
//! promote/reject verdict.
//!
//! While a candidate model shadows, every live sample is scored by both
//! the candidate and the serving model against the mapper's ground
//! truth. The comparison metric is the paper's Fig. 6 cycle MAPE
//! (`Cycle = TC · II + ProEpi`), accumulated with the same
//! skip-and-count semantics as `ptmap_gnn::mape_cycles_detailed`:
//! zero-actual-cycle samples cannot contribute a percentage error, so
//! they are counted as skipped instead of NaN-poisoning the mean.

use ptmap_gnn::PtMapGnn;
use ptmap_gnn::Sample;
use ptmap_trace::prom::Histogram;
use serde::Serialize;

/// Upper edges of the absolute-error-ratio histogram buckets, as their
/// `le` label text; the implicit last bucket is `+Inf`.
pub const ERROR_BUCKETS: &[&str] = &["0.1", "0.25", "0.5", "1"];

/// Accumulated prediction quality of one model over live samples.
#[derive(Debug, Clone)]
pub struct ModelEval {
    /// Samples scored (used + skipped).
    pub scored: usize,
    /// Samples skipped for a zero actual cycle count.
    pub skipped: usize,
    /// Absolute error ratios of the used samples (its count is the
    /// number of samples that contributed one).
    pub errors: Histogram,
}

impl Default for ModelEval {
    fn default() -> Self {
        ModelEval {
            scored: 0,
            skipped: 0,
            errors: Histogram::new(ERROR_BUCKETS),
        }
    }
}

impl ModelEval {
    /// Folds one `(predicted, actual)` cycle pair in.
    pub fn score(&mut self, predicted: f64, actual: f64) {
        self.scored += 1;
        if actual <= 0.0 {
            self.skipped += 1;
            return;
        }
        self.errors.observe(((predicted - actual) / actual).abs());
    }

    /// Scores a model's prediction for one sample against the sample's
    /// mapper ground truth.
    pub fn score_model(&mut self, model: &PtMapGnn, sample: &Sample) {
        let pred = model.predict(&sample.input);
        self.score(
            cycles(pred.ii, pred.pro_epi, sample.tc),
            cycles(sample.ii, sample.pro_epi, sample.tc),
        );
    }

    /// Samples that contributed an error ratio.
    pub fn used(&self) -> u64 {
        self.errors.count()
    }

    /// Mean absolute percentage error (percent) over the used samples;
    /// `0.0` when nothing was usable.
    pub fn mape(&self) -> f64 {
        100.0 * self.errors.sum() / self.used().max(1) as f64
    }
}

/// Eqn. 1: `Cycle(l) = TC · II + ProEpi`.
pub fn cycles(ii: u32, pro_epi: u32, tc: u64) -> f64 {
    tc as f64 * ii as f64 + pro_epi as f64
}

/// The outcome of a completed shadow window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ShadowVerdict {
    /// Whether the candidate replaces the serving model.
    pub promote: bool,
    /// Candidate cycle MAPE on the window.
    pub candidate_mape: f64,
    /// Serving-model cycle MAPE on the same window.
    pub serving_mape: f64,
}

/// Judges a completed shadow window: the candidate is promoted only
/// when it scored at least one usable sample and its MAPE beats the
/// serving model's by the relative `margin` (`0.02` = must be ≥ 2 %
/// better). Ties and unusable windows keep the serving model — the
/// safe default under churn.
pub fn verdict(candidate: &ModelEval, serving: &ModelEval, margin: f64) -> ShadowVerdict {
    let candidate_mape = candidate.mape();
    let serving_mape = serving.mape();
    let promote = candidate.used() > 0 && candidate_mape < serving_mape * (1.0 - margin.max(0.0));
    ShadowVerdict {
        promote,
        candidate_mape,
        serving_mape,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skip_and_count_matches_gnn_semantics() {
        let mut e = ModelEval::default();
        e.score(110.0, 100.0); // 10 % error
        e.score(50.0, 0.0); // zero actual: skipped
        e.score(100.0, 200.0); // 50 % error
        assert_eq!(e.scored, 3);
        assert_eq!(e.used(), 2);
        assert_eq!(e.skipped, 1);
        assert!((e.mape() - 30.0).abs() < 1e-9);
        assert!(e.mape().is_finite());
    }

    #[test]
    fn buckets_cumulate_in_le_order() {
        let mut e = ModelEval::default();
        for ratio in [0.05, 0.2, 0.2, 0.4, 0.9, 3.0] {
            e.score(100.0 * (1.0 + ratio), 100.0);
        }
        let cum: Vec<(&str, u64)> = e.errors.buckets().collect();
        assert_eq!(cum, [("0.1", 1), ("0.25", 3), ("0.5", 4), ("1", 5)]);
        assert_eq!(e.used(), 6, "the ratio above the last edge lands in +Inf");
    }

    #[test]
    fn verdict_requires_margin_beating_improvement() {
        let mut better = ModelEval::default();
        better.score(105.0, 100.0); // 5 %
        let mut worse = ModelEval::default();
        worse.score(120.0, 100.0); // 20 %
        assert!(verdict(&better, &worse, 0.02).promote);
        assert!(!verdict(&worse, &better, 0.02).promote, "worse never wins");
        // Inside the margin: no promotion.
        let mut close = ModelEval::default();
        close.score(119.9, 100.0);
        assert!(!verdict(&close, &worse, 0.02).promote);
        // An all-skipped window never promotes.
        let mut empty = ModelEval::default();
        empty.score(1.0, 0.0);
        assert!(!verdict(&empty, &worse, 0.02).promote);
    }
}
