//! The learn engine: ingest → spill → fine-tune → shadow → promote.
//!
//! Request threads only ever touch the bounded pending queue (through
//! the `SampleTap` impl); everything else — spilling, scoring,
//! training, the promotion verdict — happens in [`LearnEngine::pump`],
//! which the daemon drives from a background thread. `pump` is
//! synchronous and deterministic given the sample stream, so tests can
//! drive a full train→shadow→promote lifecycle without threads.

use crate::sample::{LiveSample, PendingQueue};
use crate::shadow::{verdict, ModelEval};
use crate::store::ModelStore;
use crate::{lock_unpoisoned, LearnConfig};
use ptmap_arch::CgraArch;
use ptmap_eval::{SampleTap, TapObservation};
use ptmap_gnn::{build_input, fine_tune, PtMapGnn, Sample, TrainConfig};
use ptmap_governor::budget::Budget;
use ptmap_ir::dfg::Dfg;
use ptmap_pipeline::hash::sha256_hex;
use ptmap_trace::prom::{Exposition, Kind};
use ptmap_trace::{learn_events, Tracer};
use serde::Serialize;
use std::io::{self, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// An immutable, versioned model. Promotion swaps the `Arc` holding
/// one of these, so readers pin a consistent (version, weights) pair.
#[derive(Debug)]
pub struct ModelVersion {
    /// Monotonic version counter (1 at first boot).
    pub version: u64,
    /// The model weights.
    pub model: PtMapGnn,
}

/// A candidate mid-shadow: both models score the same live window.
struct ShadowState {
    candidate: PtMapGnn,
    candidate_eval: ModelEval,
    serving_eval: ModelEval,
    trained_on: usize,
}

/// State owned by the trainer side of the engine.
struct TrainerState {
    /// Samples accumulated toward the next fine-tune round.
    fresh: Vec<Sample>,
    /// Lifetime quality of the serving model (reset on promotion).
    serving_eval: ModelEval,
    shadow: Option<ShadowState>,
}

/// What one [`LearnEngine::pump`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PumpReport {
    /// Samples drained from the pending queue.
    pub drained: usize,
    /// Whether a fine-tune round ran (candidate entered shadow).
    pub trained: bool,
    /// Whether a shadow window concluded with a promotion.
    pub promoted: bool,
    /// Whether a shadow window concluded with a rejection.
    pub rejected: bool,
}

/// The online-learning engine. See the crate docs for the lifecycle.
pub struct LearnEngine {
    config: LearnConfig,
    store: ModelStore,
    pending: PendingQueue,
    serving: RwLock<Arc<ModelVersion>>,
    state: Mutex<TrainerState>,
    spill: Mutex<()>,
    spill_records: AtomicU64,
    spill_errors: AtomicU64,
    trainings: AtomicU64,
    shadow_scores: AtomicU64,
    promotions: AtomicU64,
    rejections: AtomicU64,
}

/// `GET /model` body: the engine's externally visible state.
#[derive(Debug, Clone, Serialize)]
pub struct LearnStatus {
    /// Serving model version.
    pub version: u64,
    /// Samples ever ingested / dropped by the bounded queue.
    pub samples_total: u64,
    pub samples_dropped: u64,
    /// Samples currently queued for the trainer.
    pub pending: usize,
    /// Fresh samples accumulated toward the next training round.
    pub fresh: usize,
    pub trainings: u64,
    pub promotions: u64,
    pub rejections: u64,
    pub snapshot_quarantines: u64,
    /// Lifetime serving-model quality.
    pub serving_mape: f64,
    pub serving_used: u64,
    pub serving_skipped: usize,
    /// Shadow window in flight, if any.
    pub shadow: Option<ShadowStatus>,
}

/// Status of an in-flight shadow window.
#[derive(Debug, Clone, Serialize)]
pub struct ShadowStatus {
    /// Samples the shadow window has scored so far.
    pub scored: usize,
    /// Samples the verdict needs.
    pub window: usize,
    /// Fresh-sample count the candidate was fine-tuned on.
    pub trained_on: usize,
    pub candidate_mape: f64,
    pub serving_mape: f64,
}

impl LearnEngine {
    /// Boots the engine: restores the highest valid snapshot from the
    /// configured model dir, or seeds version 1 from
    /// `config.model` and persists it immediately (so a snapshot always
    /// exists after first boot).
    pub fn new(config: LearnConfig) -> io::Result<Self> {
        let store = ModelStore::new(config.model_dir.clone())?;
        let (version, model) = match store.load_latest() {
            Some((v, m)) => (v, m),
            None => {
                let model = PtMapGnn::new(config.model.clone());
                store.persist(1, &model)?;
                (1, model)
            }
        };
        let pending = PendingQueue::new(config.pending_capacity);
        Ok(LearnEngine {
            pending,
            store,
            config,
            serving: RwLock::new(Arc::new(ModelVersion { version, model })),
            state: Mutex::new(TrainerState {
                fresh: Vec::new(),
                serving_eval: ModelEval::default(),
                shadow: None,
            }),
            spill: Mutex::new(()),
            spill_records: AtomicU64::new(0),
            spill_errors: AtomicU64::new(0),
            trainings: AtomicU64::new(0),
            shadow_scores: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
            rejections: AtomicU64::new(0),
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &LearnConfig {
        &self.config
    }

    /// The snapshot store.
    pub fn store(&self) -> &ModelStore {
        &self.store
    }

    /// Current serving model version number.
    pub fn version(&self) -> u64 {
        self.serving_model().version
    }

    /// Pins the current serving (version, model) pair.
    pub fn serving_model(&self) -> Arc<ModelVersion> {
        Arc::clone(
            &self
                .serving
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }

    /// Directly enqueues a live sample (the tap does this per compile).
    pub fn ingest(&self, sample: LiveSample) {
        self.pending.push(sample);
    }

    /// Samples currently waiting for the trainer.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Drains pending samples and advances the learning lifecycle one
    /// step: spill → score serving + shadow → verdict or fine-tune.
    /// Training runs outside the state lock, one epoch at a time with a
    /// budget check in between, so a draining daemon stops within one
    /// epoch and status queries never block on training.
    pub fn pump(&self, budget: &Budget, tracer: &Tracer) -> PumpReport {
        let span = tracer.span("learn_pump");
        let mut report = PumpReport::default();
        let drained = self.pending.drain();
        report.drained = drained.len();
        self.spill(&drained);

        let serving = self.serving_model();
        let mut state = lock_unpoisoned(&self.state);
        for live in &drained {
            state.serving_eval.score_model(&serving.model, &live.sample);
            if let Some(shadow) = &mut state.shadow {
                shadow
                    .candidate_eval
                    .score_model(&shadow.candidate, &live.sample);
                shadow
                    .serving_eval
                    .score_model(&serving.model, &live.sample);
                self.shadow_scores.fetch_add(1, Ordering::Relaxed);
            }
            state.fresh.push(live.sample.clone());
        }

        // A concluded shadow window yields a verdict before any new
        // training starts.
        let window_done = state
            .shadow
            .as_ref()
            .is_some_and(|s| s.candidate_eval.scored >= self.config.shadow_window);
        if window_done {
            let shadow = state.shadow.take().expect("window_done checked");
            let v = verdict(
                &shadow.candidate_eval,
                &shadow.serving_eval,
                self.config.promote_margin,
            );
            if v.promote {
                let next = serving.version + 1;
                let promoted = Arc::new(ModelVersion {
                    version: next,
                    model: shadow.candidate,
                });
                if let Err(e) = self.store.persist(next, &promoted.model) {
                    ptmap_trace::obs::logger().warn(
                        "snapshot_not_persisted",
                        None,
                        &format!("model snapshot v{next} not persisted: {e}"),
                        &[("version", next.into())],
                    );
                }
                *self
                    .serving
                    .write()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) = promoted;
                // The serving model changed; its lifetime eval restarts.
                state.serving_eval = ModelEval::default();
                self.promotions.fetch_add(1, Ordering::Relaxed);
                report.promoted = true;
                span.event_attr(learn_events::PROMOTE, "version", next);
                span.attr("candidate_mape", v.candidate_mape);
                span.attr("serving_mape", v.serving_mape);
            } else {
                self.rejections.fetch_add(1, Ordering::Relaxed);
                report.rejected = true;
                span.event_attr(learn_events::REJECT, "serving_version", serving.version);
            }
        } else if state.shadow.is_none() && state.fresh.len() >= self.config.train_threshold {
            // Enough fresh traffic and no shadow in flight: fine-tune a
            // copy of the serving model outside the lock.
            let samples = std::mem::take(&mut state.fresh);
            drop(state);
            span.event_attr(learn_events::TRAIN_START, "samples", samples.len());
            let round = self.trainings.load(Ordering::Relaxed);
            match self.train_candidate(&serving.model, &samples, round, budget) {
                Some(candidate) => {
                    self.trainings.fetch_add(1, Ordering::Relaxed);
                    report.trained = true;
                    span.event(learn_events::TRAIN_DONE);
                    let mut state = lock_unpoisoned(&self.state);
                    state.shadow = Some(ShadowState {
                        candidate,
                        candidate_eval: ModelEval::default(),
                        serving_eval: ModelEval::default(),
                        trained_on: samples.len(),
                    });
                    span.event_attr(
                        learn_events::SHADOW_START,
                        "window",
                        self.config.shadow_window,
                    );
                }
                None => {
                    // Budget exhausted before the first epoch finished:
                    // give the samples back so drain loses nothing.
                    let mut state = lock_unpoisoned(&self.state);
                    let mut restored = samples;
                    restored.append(&mut state.fresh);
                    state.fresh = restored;
                }
            }
        }
        report
    }

    /// Fine-tunes a copy of `base` on `samples`, one epoch per
    /// `fine_tune` call so the budget is honoured between epochs. Each
    /// epoch's shuffle seed derives from (config seed, round, epoch) so
    /// retraining on the same stream is reproducible. `None` when the
    /// budget expired before any epoch completed.
    fn train_candidate(
        &self,
        base: &PtMapGnn,
        samples: &[Sample],
        round: u64,
        budget: &Budget,
    ) -> Option<PtMapGnn> {
        let mut candidate = base.clone();
        let mut done = 0usize;
        for epoch in 0..self.config.train.epochs.max(1) {
            if budget.check().is_err() {
                break;
            }
            fine_tune(
                &mut candidate,
                samples,
                &TrainConfig {
                    epochs: 1,
                    seed: self
                        .config
                        .train
                        .seed
                        .wrapping_add(round.wrapping_mul(0x9E37_79B9))
                        .wrapping_add(epoch as u64),
                    ..self.config.train.clone()
                },
            );
            done += 1;
        }
        (done > 0).then_some(candidate)
    }

    /// Appends drained samples to the spill log (`samples.jsonl` in the
    /// model dir): one `"<sha256-hex> <json>"` line per sample, so a
    /// torn tail or bit rot is detectable line-by-line on replay.
    fn spill(&self, drained: &[LiveSample]) {
        let Some(dir) = self.store.dir() else { return };
        if drained.is_empty() {
            return;
        }
        let mut buf = String::new();
        for live in drained {
            match serde_json::to_string(live) {
                Ok(json) => {
                    buf.push_str(&sha256_hex(&json));
                    buf.push(' ');
                    buf.push_str(&json);
                    buf.push('\n');
                }
                Err(_) => {
                    self.spill_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let _guard = lock_unpoisoned(&self.spill);
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("samples.jsonl"))
            .and_then(|mut f| f.write_all(buf.as_bytes()));
        match appended {
            Ok(()) => {
                self.spill_records
                    .fetch_add(drained.len() as u64, Ordering::Relaxed);
            }
            Err(_) => {
                self.spill_errors
                    .fetch_add(drained.len() as u64, Ordering::Relaxed);
            }
        }
    }

    /// The engine's externally visible state, for `GET /model`.
    pub fn status(&self) -> LearnStatus {
        let serving = self.serving_model();
        let state = lock_unpoisoned(&self.state);
        LearnStatus {
            version: serving.version,
            samples_total: self.pending.total(),
            samples_dropped: self.pending.dropped(),
            pending: self.pending.len(),
            fresh: state.fresh.len(),
            trainings: self.trainings.load(Ordering::Relaxed),
            promotions: self.promotions.load(Ordering::Relaxed),
            rejections: self.rejections.load(Ordering::Relaxed),
            snapshot_quarantines: self.store.quarantines(),
            serving_mape: state.serving_eval.mape(),
            serving_used: state.serving_eval.used(),
            serving_skipped: state.serving_eval.skipped,
            shadow: state.shadow.as_ref().map(|s| ShadowStatus {
                scored: s.candidate_eval.scored,
                window: self.config.shadow_window,
                trained_on: s.trained_on,
                candidate_mape: s.candidate_eval.mape(),
                serving_mape: s.serving_eval.mape(),
            }),
        }
    }

    /// `GET /model` body.
    pub fn status_json(&self) -> String {
        serde_json::to_string_pretty(&self.status()).expect("status serializes")
    }

    /// Writes the learning subsystem's series into the daemon's
    /// `/metrics` document.
    pub fn expose_metrics(&self, w: &mut Exposition) {
        let status = self.status();
        let state = lock_unpoisoned(&self.state);
        w.scalar(
            "ptmap_model_version",
            Kind::Gauge,
            "Version of the serving learned cost model.",
            status.version,
        );
        w.scalar(
            "ptmap_learn_pending_samples",
            Kind::Gauge,
            "Live samples queued for the trainer.",
            status.pending,
        );
        for (name, help, value) in [
            (
                "ptmap_learn_samples_total",
                "Live samples ingested from completed compiles.",
                status.samples_total,
            ),
            (
                "ptmap_learn_samples_dropped_total",
                "Live samples evicted by the bounded ingest queue.",
                status.samples_dropped,
            ),
            (
                "ptmap_learn_spill_records_total",
                "Samples appended to the checksummed spill log.",
                self.spill_records.load(Ordering::Relaxed),
            ),
            (
                "ptmap_learn_spill_errors_total",
                "Samples that failed to spill.",
                self.spill_errors.load(Ordering::Relaxed),
            ),
            (
                "ptmap_learn_trainings_total",
                "Background fine-tune rounds completed.",
                status.trainings,
            ),
            (
                "ptmap_learn_shadow_scores_total",
                "Samples scored by a shadow candidate.",
                self.shadow_scores.load(Ordering::Relaxed),
            ),
            (
                "ptmap_learn_promotions_total",
                "Candidates promoted to serving.",
                status.promotions,
            ),
            (
                "ptmap_learn_rejections_total",
                "Candidates rejected after their shadow window.",
                status.rejections,
            ),
            (
                "ptmap_learn_snapshot_quarantines_total",
                "Corrupt model snapshots quarantined at load.",
                status.snapshot_quarantines,
            ),
        ] {
            w.scalar(name, Kind::Counter, help, value);
        }

        let mut evals = vec![("serving", &state.serving_eval)];
        if let Some(shadow) = &state.shadow {
            evals.push(("candidate", &shadow.candidate_eval));
        }
        let mut family = w.family(
            "ptmap_learn_model_mape",
            Kind::Gauge,
            "Live cycle MAPE (percent) per model.",
        );
        for &(model, eval) in &evals {
            family.series(&[("model", model)], eval.mape());
        }
        let mut family = w.family(
            "ptmap_learn_error_ratio",
            Kind::Histogram,
            "Absolute cycle-prediction error ratio per model.",
        );
        for &(model, eval) in &evals {
            family.histogram(&[("model", model)], &eval.errors);
        }
    }
}

impl std::fmt::Debug for LearnEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LearnEngine")
            .field("version", &self.version())
            .field("pending", &self.pending.len())
            .finish_non_exhaustive()
    }
}

impl SampleTap for LearnEngine {
    fn record(&self, dfg: &Dfg, arch: &CgraArch, obs: &TapObservation) {
        let input = build_input(dfg, arch);
        let cp_estimate = dfg.critical_path().saturating_sub(obs.mii);
        self.ingest(LiveSample {
            sample: Sample {
                input,
                ii: obs.actual_ii,
                pro_epi: obs.actual_pro_epi,
                mii: obs.mii,
                tc: obs.tc,
                cp_estimate,
            },
            predicted_ii: obs.predicted_ii,
            predicted_pro_epi: obs.predicted_pro_epi,
            backend: obs.backend.to_string(),
            trace_id: obs.trace_id.clone(),
        });
    }
}

// `cycles` is re-exported here so serve can compute request-side cycle
// figures consistently with the shadow scorer.
pub use crate::shadow::cycles as cycle_count;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::tests::live_sample;
    use ptmap_gnn::ModelConfig;
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ptmap-learn-engine-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_config(dir: Option<PathBuf>) -> LearnConfig {
        LearnConfig {
            model_dir: dir,
            train_threshold: 4,
            shadow_window: 4,
            promote_margin: 0.02,
            pending_capacity: 64,
            train: ptmap_gnn::TrainConfig {
                epochs: 40,
                ..ptmap_gnn::TrainConfig::default()
            },
            model: ModelConfig {
                hidden: 8,
                layers: 2,
                ..ModelConfig::default()
            },
        }
    }

    fn drive(engine: &LearnEngine, n: u32) -> PumpReport {
        for i in 0..n {
            engine.ingest(live_sample(i));
        }
        engine.pump(&Budget::unlimited(), &Tracer::disabled())
    }

    #[test]
    fn boot_seeds_v1_and_persists() {
        let dir = scratch("boot");
        let engine = LearnEngine::new(tiny_config(Some(dir.clone()))).unwrap();
        assert_eq!(engine.version(), 1);
        assert!(dir.join("model-v1.bin").exists());
        assert_eq!(engine.store().load_latest().map(|(v, _)| v), Some(1));
        // A second boot restores, not reseeds.
        let again = LearnEngine::new(tiny_config(Some(dir.clone()))).unwrap();
        assert_eq!(again.version(), 1);
        assert_eq!(
            again.serving_model().model.to_bytes(),
            engine.serving_model().model.to_bytes()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_training_beats_miscalibrated_model_and_promotes() {
        let dir = scratch("promote");
        let engine = LearnEngine::new(tiny_config(Some(dir.clone()))).unwrap();

        // Round 1: enough fresh samples trigger a fine-tune round; the
        // candidate enters shadow.
        let r = drive(&engine, 8);
        assert_eq!(r.drained, 8);
        assert!(r.trained, "threshold reached, training must run");
        assert!(engine.status().shadow.is_some());

        // Round 2: the shadow window fills; the fine-tuned candidate
        // must out-predict the untrained (miscalibrated) incumbent on
        // the same live distribution and be promoted atomically.
        let r = drive(&engine, 8);
        assert!(r.promoted, "trained candidate should beat the seed model");
        assert!(!r.rejected);
        assert_eq!(engine.version(), 2);
        let status = engine.status();
        assert!(status.shadow.is_none(), "shadow cleared after verdict");
        assert_eq!(status.promotions, 1);

        // The promoted version is snapshotted and reloads on restart.
        assert!(dir.join("model-v2.bin").exists());
        assert_eq!(engine.store().load_latest().map(|(v, _)| v), Some(2));
        let reborn = LearnEngine::new(tiny_config(Some(dir.clone()))).unwrap();
        assert_eq!(reborn.version(), 2);
        assert_eq!(
            reborn.serving_model().model.to_bytes(),
            engine.serving_model().model.to_bytes()
        );

        // The spill log holds every drained sample, checksummed.
        let spill = std::fs::read_to_string(dir.join("samples.jsonl")).unwrap();
        let lines: Vec<&str> = spill.lines().collect();
        assert_eq!(lines.len(), 16);
        for line in lines {
            let (sum, json) = line.split_once(' ').expect("checksummed line");
            assert_eq!(sum, sha256_hex(json), "line checksum must verify");
            let _: LiveSample = serde_json::from_str(json).expect("line parses");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancelled_budget_trains_nothing_and_restores_samples() {
        let engine = LearnEngine::new(tiny_config(None)).unwrap();
        let cancelled = Budget::cancellable();
        cancelled.cancel();
        for i in 0..8 {
            engine.ingest(live_sample(i));
        }
        let r = engine.pump(&cancelled, &Tracer::disabled());
        assert!(!r.trained, "no epoch fits in a cancelled budget");
        assert_eq!(engine.status().fresh, 8, "samples restored for later");
        assert!(engine.status().shadow.is_none());
        // With the budget restored, the next pump trains on them.
        let r = engine.pump(&Budget::unlimited(), &Tracer::disabled());
        assert!(r.trained);
    }

    #[test]
    fn rejection_keeps_serving_model() {
        // Deterministic rejection: a candidate trained on zero usable
        // variation (every sample identical to the serving model's
        // strength) cannot beat the 100 % margin.
        let mut cfg = tiny_config(None);
        cfg.promote_margin = 1.0; // candidate must be infinitely better
        let engine = LearnEngine::new(cfg).unwrap();
        let r1 = drive(&engine, 8);
        assert!(r1.trained);
        let r2 = drive(&engine, 8);
        assert!(r2.rejected, "no candidate clears a 100 % margin");
        assert!(!r2.promoted);
        assert_eq!(engine.version(), 1);
        assert_eq!(engine.status().rejections, 1);
    }

    #[test]
    fn tap_records_into_queue() {
        let engine = LearnEngine::new(tiny_config(None)).unwrap();
        let program = ptmap_workloads::micro::gemm(16);
        let nest = program.perfect_nests().remove(0);
        let dfg = ptmap_ir::dfg::build_dfg(&program, &nest, &[]).unwrap();
        let arch = ptmap_arch::presets::s4();
        engine.record(
            &dfg,
            &arch,
            &TapObservation {
                predicted_ii: 2,
                predicted_pro_epi: 5,
                actual_ii: 3,
                actual_pro_epi: 6,
                mii: 2,
                tc: 16,
                backend: "heuristic",
                trace_id: Some("t-1".to_string()),
            },
        );
        assert_eq!(engine.pending_len(), 1);
        let drained = engine.pending.drain();
        assert_eq!(drained[0].sample.ii, 3);
        assert_eq!(drained[0].sample.mii, 2);
        assert_eq!(drained[0].backend, "heuristic");
        assert_eq!(drained[0].trace_id.as_deref(), Some("t-1"));
        assert_eq!(
            drained[0].sample.cp_estimate,
            dfg.critical_path().saturating_sub(2)
        );
    }

    #[test]
    fn metrics_render_and_validate() {
        let engine = LearnEngine::new(tiny_config(None)).unwrap();
        drive(&engine, 8); // trains → shadow active → candidate series present
        let mut w = Exposition::default();
        engine.expose_metrics(&mut w);
        let text = w.finish();
        assert!(text.contains("ptmap_model_version 1\n"));
        assert!(text.contains("ptmap_learn_trainings_total 1\n"));
        assert!(text.contains("ptmap_learn_model_mape{model=\"serving\"}"));
        assert!(text.contains("ptmap_learn_model_mape{model=\"candidate\"}"));
        assert!(text.contains("ptmap_learn_error_ratio_bucket{model=\"serving\",le=\"1\"}"));
        assert!(text.contains("le=\"+Inf\""));
        // Syntax, one HELP per family, and cumulative buckets per model.
        ptmap_trace::prom::check_prometheus_text(&text).expect("must parse");
    }

    #[test]
    fn pump_is_deterministic_for_a_fixed_stream() {
        let run = || {
            let engine = LearnEngine::new(tiny_config(None)).unwrap();
            drive(&engine, 8);
            drive(&engine, 8);
            (
                engine.version(),
                engine.serving_model().model.to_bytes(),
                engine.status().promotions,
            )
        };
        assert_eq!(run(), run());
    }
}
