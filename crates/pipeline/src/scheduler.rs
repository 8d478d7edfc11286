//! The batch job scheduler.
//!
//! [`run_batch`] drains a manifest's resolved jobs through a
//! `std::thread::scope` worker pool fed over an `mpsc` channel: the job
//! indices are queued up front, each worker pulls the next index,
//! compiles (or hits the cache), and sends its outcome back on a result
//! channel. Outcomes are re-ordered by manifest index, so the output is
//! independent of scheduling — a `workers = 8` run is byte-identical
//! (modulo wall-clock fields) to a `workers = 1` run.
//!
//! Each job body runs under `catch_unwind`: a panicking compilation
//! produces an error outcome for that job and the rest of the batch
//! proceeds.
//!
//! # Governor
//!
//! A batch runs under a [`Budget`]: `deadline` caps the whole batch,
//! `job_timeout` caps each compilation attempt (via
//! [`Budget::child`], so the batch deadline still dominates), and
//! external cancellation propagates through the shared cancel flag.
//! A job that times out or panics is retried up to `max_retries`
//! times down a *degradation ladder* — first with a narrowed
//! exploration, then additionally with minimum mapper effort and beam —
//! and any outcome produced that way carries the degradation label
//! (which is also part of its cache key).

use crate::cache::{cache_key_degraded, ReportCache};
use crate::manifest::Job;
use crate::metrics::{BatchMetrics, JobMetrics, Recorder};
use ptmap_core::{CompileMetrics, CompileReport, PtMapConfig, PtMapError};
use ptmap_governor::{faultpoint, Budget};
use ptmap_trace::{SamplePolicy, Tracer};
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// Batch execution configuration.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Job-level worker threads (`<= 1` = serial).
    pub workers: usize,
    /// Directory for the persistent report cache (`None` = in-memory
    /// only).
    pub cache_dir: Option<PathBuf>,
    /// Base compiler configuration; each job overrides the ranking
    /// mode.
    pub base: PtMapConfig,
    /// Per-attempt compilation timeout (`None` = unlimited). Checked
    /// cooperatively inside every pipeline stage.
    pub job_timeout: Option<Duration>,
    /// The batch-wide budget: set a deadline to cap the whole run,
    /// clone-and-cancel from another thread to stop it early. Every
    /// job attempt runs under a [`Budget::child`] of this.
    pub budget: Budget,
    /// Timed-out or panicking jobs are retried this many times down
    /// the degradation ladder (0 = fail immediately). Deterministic
    /// errors and cancellation are never retried.
    pub max_retries: u32,
    /// Per-compile span-tree tracing (`None` = disabled; the compile
    /// hot path then sees only `Option` branches).
    pub trace: Option<TraceSettings>,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            workers: 1,
            cache_dir: None,
            base: PtMapConfig::default(),
            job_timeout: None,
            budget: Budget::unlimited(),
            max_retries: 2,
            trace: None,
        }
    }
}

/// Per-compile tracing policy for a batch run.
#[derive(Debug, Clone)]
pub struct TraceSettings {
    /// Directory receiving one `<job>.trace.json` Chrome trace-event
    /// document per kept compile (`None` = record but do not write —
    /// callers like `ptmap serve` export through their own sink).
    pub dir: Option<PathBuf>,
    /// Head-sampling fraction in `[0.0, 1.0]`: the keep decision
    /// hashes the trace ID, so it is stable across runs.
    pub sample: f64,
    /// Wall-time threshold (milliseconds) that force-keeps a trace
    /// regardless of sampling — slow outliers always survive.
    pub slow_ms: Option<u64>,
}

impl Default for TraceSettings {
    fn default() -> Self {
        TraceSettings {
            dir: None,
            sample: 1.0,
            slow_ms: None,
        }
    }
}

impl TraceSettings {
    /// The sampling policy these settings describe.
    pub fn policy(&self) -> SamplePolicy {
        SamplePolicy {
            sample: self.sample,
            slow_ms: self.slow_ms,
        }
    }
}

/// One rung of the retry ladder: the config for `attempt` (0 = the
/// caller's full-fidelity config) plus the degradation label recorded
/// in the outcome and mixed into the cache key. Later rungs shrink the
/// search so a retry after a timeout actually fits the budget.
fn ladder(base: &PtMapConfig, attempt: u32) -> (PtMapConfig, Option<String>) {
    match attempt {
        0 => (base.clone(), None),
        1 => (
            PtMapConfig {
                explore: ptmap_transform::ExploreConfig::quick(),
                ..base.clone()
            },
            Some("explore=quick".to_string()),
        ),
        _ => {
            // The deepest rung also abandons the exact/portfolio backends:
            // a job that blew its budget twice should not keep paying for
            // an optimality proof.
            let mut mapper = base.mapper.clone().with_effort(1);
            let mut label = "explore=quick,effort=1,realize_beam=1".to_string();
            if mapper.backend != ptmap_mapper::BackendKind::Heuristic {
                mapper.backend = ptmap_mapper::BackendKind::Heuristic;
                label.push_str(",backend=heuristic");
            }
            (
                PtMapConfig {
                    explore: ptmap_transform::ExploreConfig::quick(),
                    mapper,
                    realize_beam: 1,
                    ..base.clone()
                },
                Some(label),
            )
        }
    }
}

/// The outcome of one job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobOutcome {
    /// Job display name.
    pub name: String,
    /// Whether the report came from the cache.
    pub cache_hit: bool,
    /// The compilation report (`None` on failure).
    pub report: Option<CompileReport>,
    /// The failure message (`None` on success).
    pub error: Option<String>,
    /// Short machine-readable failure class (`timeout`, `cancelled`,
    /// `panic`, `fault`, `no-pnl`, `nothing-mappable`); `None` on
    /// success.
    #[serde(default)]
    pub error_class: Option<String>,
    /// The degradation ladder rung (plus any predictor fallback) that
    /// produced this outcome; `None` for a full-fidelity result.
    #[serde(default)]
    pub degraded: Option<String>,
    /// Extra attempts spent on this job beyond the first.
    #[serde(default)]
    pub retries: u32,
    /// The trace ID of the span tree recorded for this compile
    /// (`None` when tracing was disabled). Coalesced followers in
    /// `ptmap serve` surface the leader's trace ID here.
    #[serde(default)]
    pub trace_id: Option<String>,
}

impl JobOutcome {
    /// The outcome with wall-clock timing (and the run-unique trace
    /// ID) stripped from the report — the deterministic part, used for
    /// serial-vs-parallel and cache-vs-recompile identity checks.
    pub fn deterministic(&self) -> JobOutcome {
        JobOutcome {
            report: self.report.as_ref().map(CompileReport::without_timing),
            trace_id: None,
            ..self.clone()
        }
    }
}

/// The result of a batch run.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-job outcomes, in manifest order.
    pub outcomes: Vec<JobOutcome>,
    /// The batch metrics document.
    pub metrics: BatchMetrics,
}

impl BatchReport {
    /// JSON of the deterministic part of every outcome (manifest
    /// order, timing stripped). Two runs of the same manifest must
    /// produce identical strings regardless of worker count or cache
    /// temperature.
    pub fn deterministic_json(&self) -> String {
        let outcomes: Vec<JobOutcome> = self
            .outcomes
            .iter()
            .map(JobOutcome::deterministic)
            .collect();
        serde_json::to_string_pretty(&outcomes).expect("outcomes serialize")
    }
}

/// Runs a batch with a cache built from the configuration (persistent
/// when `cache_dir` is set).
pub fn run_batch(jobs: &[Job], config: &BatchConfig) -> BatchReport {
    let cache = match config.cache_dir.as_deref() {
        Some(dir) => ReportCache::with_dir_or_memory(dir),
        None => ReportCache::in_memory(),
    };
    run_batch_with_cache(jobs, config, &cache)
}

/// Runs a batch against a caller-owned cache (lets several batches —
/// e.g. the bench harness's figure runs — share one store).
pub fn run_batch_with_cache(
    jobs: &[Job],
    config: &BatchConfig,
    cache: &ReportCache,
) -> BatchReport {
    let t0 = Instant::now();
    let recorder = Recorder::new();
    let workers = config.workers.clamp(1, jobs.len().max(1));
    let quarantines_before = cache.quarantines();

    let mut slots: Vec<Option<(JobOutcome, JobMetrics)>> = vec![None; jobs.len()];
    if workers <= 1 {
        for (i, slot) in slots.iter_mut().enumerate() {
            *slot = Some(compile_job(&jobs[i], config, cache, &recorder));
        }
    } else {
        // Feed indices through a channel; workers drain it until empty.
        let (index_tx, index_rx) = mpsc::channel::<usize>();
        for i in 0..jobs.len() {
            index_tx.send(i).expect("queue job");
        }
        drop(index_tx);
        let index_rx = Mutex::new(index_rx);
        let (result_tx, result_rx) = mpsc::channel::<(usize, (JobOutcome, JobMetrics))>();
        std::thread::scope(|s| {
            let mut spawned = 0usize;
            for _ in 0..workers {
                // A faulted spawn (any mode) just means one fewer
                // worker; the queue drains through the survivors.
                let spawn_ok = catch_unwind(|| {
                    faultpoint::fail_point(faultpoint::sites::WORKER_SPAWN).is_ok()
                })
                .unwrap_or(false);
                if !spawn_ok {
                    recorder.incr("worker_spawn_failures", 1);
                    continue;
                }
                let result_tx = result_tx.clone();
                let index_rx = &index_rx;
                let recorder = &recorder;
                s.spawn(move || loop {
                    // Hold the receiver lock only for the pull.
                    let next = { index_rx.lock().unwrap().recv() };
                    let Ok(i) = next else { break };
                    let out = compile_job(&jobs[i], config, cache, recorder);
                    if result_tx.send((i, out)).is_err() {
                        break;
                    }
                });
                spawned += 1;
            }
            if spawned == 0 {
                // Every spawn faulted: drain the queue on this thread
                // so the batch still completes (degraded to serial).
                loop {
                    let next = { index_rx.lock().unwrap().recv() };
                    let Ok(i) = next else { break };
                    let out = compile_job(&jobs[i], config, cache, &recorder);
                    if result_tx.send((i, out)).is_err() {
                        break;
                    }
                }
            }
        });
        drop(result_tx);
        for (i, out) in result_rx {
            slots[i] = Some(out);
        }
    }

    let mut outcomes = Vec::with_capacity(jobs.len());
    let mut job_metrics = Vec::with_capacity(jobs.len());
    for slot in slots {
        let (o, m) = slot.expect("every job produced an outcome");
        outcomes.push(o);
        job_metrics.push(m);
    }
    let (spans, counters) = recorder.snapshot();
    let metrics = BatchMetrics {
        wall_seconds: t0.elapsed().as_secs_f64(),
        workers,
        cache_hits: counters.get("cache_hits").copied().unwrap_or(0),
        cache_misses: counters.get("cache_misses").copied().unwrap_or(0),
        cache_quarantines: cache.quarantines() - quarantines_before,
        spans,
        counters,
        jobs: job_metrics,
    };
    BatchReport { outcomes, metrics }
}

/// What one attempt (cache lookup + compilation) produced.
enum Attempt {
    CacheHit(CompileReport),
    Compiled(Result<CompileReport, PtMapError>, CompileMetrics),
}

/// Maps a pipeline error to its short machine-readable class.
fn error_class(e: &PtMapError) -> &'static str {
    match e {
        PtMapError::Timeout => "timeout",
        PtMapError::Cancelled => "cancelled",
        PtMapError::Fault(_) => "fault",
        PtMapError::NoPnl => "no-pnl",
        PtMapError::NothingMappable => "nothing-mappable",
        _ => "error",
    }
}

/// Compiles one job end to end: cache lookup, retry-ladder compilation
/// under the configured budget, metrics accounting — all under the
/// job's fault-injection scope (per-job `@<filter>` fault specs match
/// against the job name).
///
/// This is the shared library entry point behind both the batch
/// scheduler and the `ptmap serve` daemon: a caller owns the
/// [`ReportCache`] and [`Recorder`] (keeping them resident across
/// calls) and passes a [`BatchConfig`] describing the budget and retry
/// policy for this one compilation. `config.workers` and
/// `config.cache_dir` are ignored here — only `base`, `budget`,
/// `job_timeout`, and `max_retries` apply.
pub fn compile_job(
    job: &Job,
    config: &BatchConfig,
    cache: &ReportCache,
    recorder: &Recorder,
) -> (JobOutcome, JobMetrics) {
    match &config.trace {
        None => compile_job_traced(job, config, cache, recorder, &Tracer::disabled()),
        Some(settings) => {
            let tracer = Tracer::root(&job.name);
            let out = compile_job_traced(job, config, cache, recorder, &tracer);
            export_batch_trace(&tracer, settings, &out.1, recorder);
            out
        }
    }
}

/// [`compile_job`] recording its span tree under a caller-owned
/// [`Tracer`] — the daemon path, where the caller adopted the client's
/// `X-Ptmap-Trace-Id` and owns the export sink. `config.trace` is
/// ignored here; the caller decides what to keep.
pub fn compile_job_traced(
    job: &Job,
    config: &BatchConfig,
    cache: &ReportCache,
    recorder: &Recorder,
    tracer: &Tracer,
) -> (JobOutcome, JobMetrics) {
    faultpoint::with_scope(&job.name, || {
        run_one_scoped(job, config, cache, recorder, tracer)
    })
}

/// Applies the batch sampling policy to a finished compile and writes
/// the kept trace as `<job>.trace.json` (Chrome trace-event JSON)
/// under the configured directory.
fn export_batch_trace(
    tracer: &Tracer,
    settings: &TraceSettings,
    metrics: &JobMetrics,
    recorder: &Recorder,
) {
    let Some(dir) = &settings.dir else { return };
    let Some(trace) = tracer.finish() else { return };
    let wall = Duration::from_secs_f64(metrics.wall_seconds.max(0.0));
    if !settings.policy().keep(&trace.trace_id, wall) {
        recorder.incr("traces_sampled_out", 1);
        return;
    }
    let path = dir.join(format!("{}.trace.json", sanitize_file_stem(&metrics.job)));
    let write = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, ptmap_trace::chrome_trace_json(&trace)));
    match write {
        Ok(()) => recorder.incr("traces_written", 1),
        Err(e) => {
            ptmap_trace::obs::logger().warn(
                "trace_write_failed",
                Some(&trace.trace_id),
                &format!("writing trace {}: {e}", path.display()),
                &[],
            );
            recorder.incr("trace_write_failures", 1);
        }
    }
}

/// Job names (`gemm:24@S4`) become file stems: anything outside
/// `[A-Za-z0-9._-]` maps to `-` so the name stays one path component.
fn sanitize_file_stem(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') {
                c
            } else {
                '-'
            }
        })
        .collect()
}

/// The retry-ladder driver: walks attempts 0..=max_retries, each under
/// a fresh child budget and with panic isolation; only timeouts and
/// panics descend the ladder.
fn run_one_scoped(
    job: &Job,
    config: &BatchConfig,
    cache: &ReportCache,
    recorder: &Recorder,
    tracer: &Tracer,
) -> (JobOutcome, JobMetrics) {
    let t0 = Instant::now();
    let mut stages = CompileMetrics::default();
    // Predictor-fallback accounting: manifest resolution degrades a
    // failed GNN checkpoint load to the analytical predictor and labels
    // the job; surface it as a counted metric, once per job.
    if job
        .degraded
        .as_deref()
        .is_some_and(|d| d.contains("predictor=analytical"))
    {
        stages.predictor_fallbacks += 1;
        recorder.incr("predictor_fallbacks", 1);
    }
    let mut retries = 0u32;
    let mut last_error: Option<(String, &'static str)> = None;
    let mut success: Option<(CompileReport, bool, Option<String>)> = None;
    // The per-compile root span; governor events (deadline hits,
    // cancellation, degraded retries) attach to it or to the active
    // attempt span below it.
    let root = tracer.span("compile");
    root.attr("job", job.name.as_str());

    for attempt in 0..=config.max_retries {
        // The batch-wide budget dominates: once it is gone, nothing —
        // not even a first attempt — starts.
        if let Err(e) = config.budget.check() {
            let (msg, event) = match e {
                ptmap_governor::BudgetExceeded::Cancelled => ("batch cancelled", "cancelled"),
                _ => ("batch deadline exceeded", "deadline_hit"),
            };
            root.event_attr(event, "scope", "batch");
            last_error = Some((msg.to_string(), error_class(&PtMapError::from(e))));
            break;
        }
        let (cfg, rung) = ladder(&config.base, attempt);
        let label = match (&job.degraded, &rung) {
            (None, None) => None,
            (Some(d), None) => Some(d.clone()),
            (None, Some(r)) => Some(r.clone()),
            (Some(d), Some(r)) => Some(format!("{d},{r}")),
        };
        let key = cache_key_degraded(job, &cfg, label.as_deref());
        let attempt_span = root.tracer().span("attempt");
        attempt_span.attr("attempt", attempt as u64);
        if let Some(r) = &rung {
            attempt_span.attr("rung", r.as_str());
            root.event_attr("degraded_retry", "rung", r.as_str());
        }
        // Cache lookup and publication join the compilation inside
        // catch_unwind so a `panic`-mode fault at cache_read or
        // cache_write downs this job, not the whole batch.
        let attempted = catch_unwind(AssertUnwindSafe(|| {
            if let Some(report) = cache.get(&key) {
                return Attempt::CacheHit(report);
            }
            let budget = config.budget.child(config.job_timeout);
            let (result, m) = job.compiler(&cfg).compile_instrumented_traced(
                &job.program,
                &job.arch,
                &budget,
                attempt_span.tracer(),
            );
            if let Ok(report) = &result {
                cache.put(&key, report);
            }
            Attempt::Compiled(result, m)
        }));
        if attempt > 0 {
            retries += 1;
            recorder.incr("job_retries", 1);
        }
        match attempted {
            Ok(Attempt::CacheHit(report)) => {
                recorder.incr("cache_hits", 1);
                attempt_span.event("cache_hit");
                success = Some((report, true, label));
                break;
            }
            Ok(Attempt::Compiled(result, m)) => {
                recorder.incr("cache_misses", 1);
                stages.absorb(&m);
                match result {
                    Ok(report) => {
                        if let Some(l) = &label {
                            stages.degradations.push(l.clone());
                        }
                        success = Some((report, false, label));
                        break;
                    }
                    Err(e) => {
                        let class = error_class(&e);
                        let event = match class {
                            "timeout" => "deadline_hit",
                            "cancelled" => "cancelled",
                            _ => "compile_error",
                        };
                        attempt_span.event_attr(event, "class", class);
                        last_error = Some((e.to_string(), class));
                        if class != "timeout" {
                            break; // deterministic failure or cancel: no retry
                        }
                    }
                }
            }
            Err(panic) => {
                attempt_span.event("panic");
                last_error = Some((format!("panicked: {}", panic_message(&panic)), "panic"));
            }
        }
    }

    let ok = success.is_some();
    recorder.incr(if ok { "jobs_ok" } else { "jobs_failed" }, 1);
    recorder.add_seconds("explore", stages.explore_seconds);
    recorder.add_seconds("evaluate", stages.evaluate_seconds);
    recorder.add_seconds("map", stages.map_seconds);
    recorder.add_seconds("simulate", stages.simulate_seconds);
    recorder.incr("candidates_explored", stages.candidates_explored as u64);
    recorder.incr("candidates_pruned", stages.candidates_pruned as u64);
    recorder.incr("mapper_accepts", stages.mapper_accepts as u64);
    recorder.incr("mapper_rejects", stages.mapper_rejects as u64);
    recorder.incr(
        "backend_heuristic_wins",
        stages.backend_heuristic_wins as u64,
    );
    recorder.incr("backend_exact_wins", stages.backend_exact_wins as u64);
    recorder.incr(
        "exact_optimality_proofs",
        stages.exact_optimality_proofs as u64,
    );
    recorder.incr(
        "portfolio_cancellations",
        stages.portfolio_cancellations as u64,
    );
    let wall = t0.elapsed().as_secs_f64();
    recorder.add_seconds("job", wall);
    let (report, cache_hit, degraded, error, class) = match success {
        Some((report, hit, label)) => {
            if label.is_some() {
                recorder.incr("jobs_degraded", 1);
            }
            (Some(report), hit, label, None, None)
        }
        None => {
            let (msg, class) =
                last_error.unwrap_or_else(|| ("job produced no outcome".to_string(), "error"));
            (None, false, None, Some(msg), Some(class.to_string()))
        }
    };
    root.attr("ok", ok);
    root.attr("cache_hit", cache_hit);
    root.attr("retries", retries as u64);
    drop(root);
    (
        JobOutcome {
            name: job.name.clone(),
            cache_hit,
            report,
            error,
            error_class: class,
            degraded: degraded.clone(),
            retries,
            trace_id: tracer.trace_id().map(str::to_string),
        },
        JobMetrics {
            job: job.name.clone(),
            cache_hit,
            ok,
            wall_seconds: wall,
            stages,
        },
    )
}

/// Best-effort rendering of a panic payload.
fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::Manifest;

    fn jobs(n: usize) -> Vec<Job> {
        let sizes = [16, 20, 24, 28, 32, 36, 40, 44];
        let jobs: Vec<_> = (0..n)
            .map(|i| {
                format!(
                    r#"{{"kernel": "gemm:{}", "arch": "{}"}}"#,
                    sizes[i % sizes.len()],
                    if i % 2 == 0 { "S4" } else { "R4" }
                )
            })
            .collect();
        Manifest::from_json(&format!(r#"{{"jobs": [{}]}}"#, jobs.join(",")))
            .unwrap()
            .resolve()
            .unwrap()
    }

    fn quick_base() -> PtMapConfig {
        PtMapConfig {
            explore: ptmap_transform::ExploreConfig::quick(),
            ..PtMapConfig::default()
        }
    }

    #[test]
    fn serial_batch_compiles_all() {
        let config = BatchConfig {
            base: quick_base(),
            ..BatchConfig::default()
        };
        let batch = run_batch(&jobs(3), &config);
        assert_eq!(batch.outcomes.len(), 3);
        assert!(
            batch.outcomes.iter().all(|o| o.report.is_some()),
            "{:?}",
            batch.outcomes
        );
        assert_eq!(batch.metrics.cache_misses, 3);
        assert_eq!(batch.metrics.jobs.len(), 3);
        assert!(batch.metrics.spans.contains_key("evaluate"));
    }

    #[test]
    fn parallel_matches_serial() {
        let js = jobs(6);
        let serial = run_batch(
            &js,
            &BatchConfig {
                workers: 1,
                base: quick_base(),
                ..BatchConfig::default()
            },
        );
        let parallel = run_batch(
            &js,
            &BatchConfig {
                workers: 8,
                base: quick_base(),
                ..BatchConfig::default()
            },
        );
        assert_eq!(serial.deterministic_json(), parallel.deterministic_json());
    }

    #[test]
    fn in_memory_cache_hits_on_repeat() {
        // Two identical jobs: the second should hit the cache and carry
        // the identical report.
        let mut js = jobs(1);
        js.push(js[0].clone());
        let batch = run_batch(
            &js,
            &BatchConfig {
                base: quick_base(),
                ..BatchConfig::default()
            },
        );
        assert_eq!(batch.metrics.cache_hits, 1);
        assert_eq!(batch.metrics.cache_misses, 1);
        assert!(batch.outcomes[1].cache_hit);
        assert_eq!(
            batch.outcomes[0].report.as_ref().unwrap(),
            batch.outcomes[1].report.as_ref().unwrap(),
        );
    }

    fn sample_report() -> CompileReport {
        CompileReport {
            program: "gemm".into(),
            arch: "S4".into(),
            mode: ptmap_eval::RankMode::Performance,
            cycles: 10,
            energy_pj: 1.0,
            edp: 10.0,
            pnls: vec![],
            candidates_explored: 2,
            candidates_pruned: 1,
            context_generation_attempts: 1,
            compile_seconds: 0.25,
        }
    }

    #[test]
    fn batch_trace_dir_writes_chrome_traces() {
        let dir = std::env::temp_dir().join(format!("ptmap-trace-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = BatchConfig {
            base: quick_base(),
            trace: Some(TraceSettings {
                dir: Some(dir.clone()),
                ..TraceSettings::default()
            }),
            ..BatchConfig::default()
        };
        let js = jobs(2);
        let batch = run_batch(&js, &config);
        assert!(batch.outcomes.iter().all(|o| o.report.is_some()));
        assert!(batch.outcomes.iter().all(|o| o.trace_id.is_some()));
        assert_eq!(batch.metrics.counters.get("traces_written"), Some(&2));
        for job in &js {
            let path = dir.join(format!("{}.trace.json", sanitize_file_stem(&job.name)));
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let doc: serde::Value = serde_json::from_str(&text).unwrap();
            let events = doc
                .get("traceEvents")
                .and_then(|v| v.as_array())
                .expect("traceEvents");
            let begins: Vec<&str> = events
                .iter()
                .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("B"))
                .filter_map(|e| e.get("name").and_then(|v| v.as_str()))
                .collect();
            // The compile root, the retry-ladder attempt, the pipeline
            // stages, and at least one mapper II rung all show up.
            for name in [
                "compile",
                "attempt",
                "explore",
                "evaluate",
                "map",
                "ii_attempt",
            ] {
                assert!(begins.contains(&name), "{name} span missing: {begins:?}");
            }
            let ends = events
                .iter()
                .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("E"))
                .count();
            assert_eq!(begins.len(), ends, "balanced B/E pairs");
            // II-attempt spans carry the search counters.
            let ii = events
                .iter()
                .find(|e| e.get("name").and_then(|v| v.as_str()) == Some("ii_attempt"))
                .and_then(|e| e.get("args"))
                .expect("ii_attempt args");
            for key in [
                "restarts",
                "backtracks",
                "placements_tried",
                "bfs_expansions",
            ] {
                assert!(ii.get(key).is_some(), "missing counter {key}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_sampling_drops_and_slow_threshold_keeps() {
        let dir =
            std::env::temp_dir().join(format!("ptmap-trace-sample-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // sample=0.0 without a slow threshold: everything sampled out.
        let config = BatchConfig {
            base: quick_base(),
            trace: Some(TraceSettings {
                dir: Some(dir.clone()),
                sample: 0.0,
                slow_ms: None,
            }),
            ..BatchConfig::default()
        };
        let batch = run_batch(&jobs(1), &config);
        assert!(batch.outcomes[0].report.is_some());
        assert_eq!(batch.metrics.counters.get("traces_written"), None);
        assert_eq!(batch.metrics.counters.get("traces_sampled_out"), Some(&1));
        // sample=0.0 but slow_ms=0: every compile is a "slow" outlier.
        let config = BatchConfig {
            base: quick_base(),
            trace: Some(TraceSettings {
                dir: Some(dir.clone()),
                sample: 0.0,
                slow_ms: Some(0),
            }),
            ..BatchConfig::default()
        };
        let batch = run_batch(&jobs(1), &config);
        assert_eq!(batch.metrics.counters.get("traces_written"), Some(&1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ladder_rungs_shrink_search() {
        let base = PtMapConfig::default();
        let (c0, l0) = ladder(&base, 0);
        assert_eq!(l0, None);
        assert_eq!(c0.realize_beam, base.realize_beam);
        let (c1, l1) = ladder(&base, 1);
        assert_eq!(l1.as_deref(), Some("explore=quick"));
        assert_eq!(c1.explore, ptmap_transform::ExploreConfig::quick());
        let (c2, l2) = ladder(&base, 2);
        assert_eq!(l2.as_deref(), Some("explore=quick,effort=1,realize_beam=1"));
        assert_eq!(c2.realize_beam, 1);
        // The ladder bottoms out: further attempts reuse the last rung.
        let (c9, l9) = ladder(&base, 9);
        assert_eq!(l9, l2);
        assert_eq!(c9.realize_beam, 1);
        // A non-heuristic base additionally falls back to the heuristic
        // backend on the deepest rung (and says so in the label).
        let pf = PtMapConfig {
            mapper: base
                .mapper
                .clone()
                .with_backend(ptmap_mapper::BackendKind::Portfolio),
            ..base.clone()
        };
        let (c2p, l2p) = ladder(&pf, 2);
        assert_eq!(
            l2p.as_deref(),
            Some("explore=quick,effort=1,realize_beam=1,backend=heuristic")
        );
        assert_eq!(c2p.mapper.backend, ptmap_mapper::BackendKind::Heuristic);
    }

    #[test]
    fn cancelled_batch_fails_jobs_without_compiling() {
        let budget = Budget::cancellable();
        budget.cancel();
        let batch = run_batch(
            &jobs(3),
            &BatchConfig {
                budget,
                base: quick_base(),
                ..BatchConfig::default()
            },
        );
        assert_eq!(batch.outcomes.len(), 3);
        for o in &batch.outcomes {
            assert!(o.report.is_none());
            assert_eq!(o.error.as_deref(), Some("batch cancelled"));
            assert_eq!(o.error_class.as_deref(), Some("cancelled"));
            assert_eq!(o.retries, 0, "cancellation must not burn retries");
        }
        assert_eq!(batch.metrics.counters["jobs_failed"], 3);
        assert_eq!(batch.metrics.cache_misses, 0, "nothing may start");
    }

    #[test]
    fn timed_out_job_descends_ladder_to_degraded_result() {
        // Attempt 0 times out (its child budget is already expired);
        // attempt 1's degraded cache key is pre-seeded, so the job
        // recovers with the rung-1 label and one retry on the books.
        let js = jobs(1);
        let config = BatchConfig {
            job_timeout: Some(Duration::from_nanos(1)),
            max_retries: 2,
            ..BatchConfig::default()
        };
        let cache = ReportCache::in_memory();
        let report = sample_report();
        let (rung1_cfg, rung1_label) = ladder(&config.base, 1);
        let key = cache_key_degraded(&js[0], &rung1_cfg, rung1_label.as_deref());
        cache.put(&key, &report);

        let batch = run_batch_with_cache(&js, &config, &cache);
        let o = &batch.outcomes[0];
        assert_eq!(o.report.as_ref(), Some(&report));
        assert_eq!(o.degraded.as_deref(), Some("explore=quick"));
        assert_eq!(o.retries, 1);
        assert!(o.cache_hit);
        assert_eq!(o.error, None);
        assert_eq!(batch.metrics.counters["jobs_degraded"], 1);
        assert_eq!(batch.metrics.counters["job_retries"], 1);
    }

    #[test]
    fn exhausted_retries_surface_timeout_class() {
        let js = jobs(1);
        let batch = run_batch(
            &js,
            &BatchConfig {
                job_timeout: Some(Duration::from_nanos(1)),
                max_retries: 1,
                base: quick_base(),
                ..BatchConfig::default()
            },
        );
        let o = &batch.outcomes[0];
        assert!(o.report.is_none());
        assert_eq!(o.error_class.as_deref(), Some("timeout"));
        assert_eq!(
            o.error.as_deref(),
            Some("compilation timed out: budget exceeded")
        );
        assert_eq!(o.retries, 1, "every rung was tried");
    }

    #[test]
    fn panicking_job_is_isolated_and_classed() {
        // The fault targets one uniquely named job (the registry is
        // process-global, so the filter must not match the shared
        // `gemm:N@...` names other tests compile concurrently).
        let m = Manifest::from_json(
            r#"{"jobs": [
                {"name": "panicky-target", "kernel": "gemm:24", "arch": "S4"},
                {"kernel": "gemm:20", "arch": "R4"}
            ]}"#,
        )
        .unwrap();
        let js = m.resolve().unwrap();
        let _guard = faultpoint::install("mapper_place:panic@panicky-target").unwrap();
        let batch = run_batch(
            &js,
            &BatchConfig {
                max_retries: 1,
                base: quick_base(),
                ..BatchConfig::default()
            },
        );
        let bad = &batch.outcomes[0];
        assert!(bad.report.is_none());
        assert_eq!(bad.error_class.as_deref(), Some("panic"));
        assert!(
            bad.error
                .as_deref()
                .unwrap()
                .contains("injected panic at fault point mapper_place"),
            "{:?}",
            bad.error
        );
        assert_eq!(bad.retries, 1, "panics descend the ladder too");
        let good = &batch.outcomes[1];
        assert!(good.report.is_some(), "{:?}", good.error);
        assert_eq!(batch.metrics.counters["jobs_failed"], 1);
    }

    #[test]
    fn all_workers_faulted_degrades_to_serial_drain() {
        // worker_spawn fail-points fire on the batch thread, so scoping
        // the whole run isolates this test from concurrent ones.
        let _guard = faultpoint::install("worker_spawn:error@spawn-fault-test").unwrap();
        let js = jobs(3);
        let batch = faultpoint::with_scope("spawn-fault-test", || {
            run_batch(
                &js,
                &BatchConfig {
                    workers: 3,
                    base: quick_base(),
                    ..BatchConfig::default()
                },
            )
        });
        assert!(
            batch.outcomes.iter().all(|o| o.report.is_some()),
            "{:?}",
            batch
                .outcomes
                .iter()
                .map(|o| o.error.clone())
                .collect::<Vec<_>>()
        );
        assert_eq!(batch.metrics.counters["worker_spawn_failures"], 3);
    }

    #[test]
    fn gnn_fallback_degrades_and_counts() {
        // An unreadable GNN checkpoint degrades to the analytical
        // predictor at resolve time; the scheduler surfaces that as a
        // counted metric, not just a label.
        let m = Manifest::from_json(
            r#"{"jobs": [
                {"kernel": "gemm:24", "arch": "S4",
                 "predictor": "gnn:/nonexistent-model.json"},
                {"kernel": "gemm:20", "arch": "R4"}
            ]}"#,
        )
        .unwrap();
        let js = m.resolve().unwrap();
        let batch = run_batch(
            &js,
            &BatchConfig {
                base: quick_base(),
                ..BatchConfig::default()
            },
        );
        let o = &batch.outcomes[0];
        assert!(o.report.is_some(), "{:?}", o.error);
        assert!(
            o.degraded
                .as_deref()
                .is_some_and(|d| d.contains("predictor=analytical")),
            "{:?}",
            o.degraded
        );
        assert_eq!(batch.metrics.counters["predictor_fallbacks"], 1);
        assert_eq!(batch.metrics.jobs[0].stages.predictor_fallbacks, 1);
        assert_eq!(batch.metrics.jobs[1].stages.predictor_fallbacks, 0);
    }

    #[test]
    fn failing_job_does_not_sink_batch() {
        let mut js = jobs(2);
        // A PNL-free program fails with NoPnl but must not stop job 2.
        js[0].program = ptmap_ir::ProgramBuilder::new("empty").finish();
        let batch = run_batch(
            &js,
            &BatchConfig {
                workers: 2,
                base: quick_base(),
                ..BatchConfig::default()
            },
        );
        assert!(batch.outcomes[0].report.is_none());
        assert!(batch.outcomes[0].error.is_some());
        assert!(batch.outcomes[1].report.is_some());
        assert_eq!(batch.metrics.counters["jobs_failed"], 1);
    }
}
