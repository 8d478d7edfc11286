//! The `suite_gnn` workload: the fig9 suite of 11 applications x 4
//! architectures compiled through `ptmap_pipeline::run_batch`, one job
//! worker, a cold in-memory cache per pass, the default heuristic
//! backend, and the GNN from the committed checkpoint.
//!
//! Untraced runs time passes over the suite from outside each job's
//! call. Traced runs add one pass through
//! `PtMap::compile_instrumented_traced` that splits every compile's wall
//! time into layer self-times (see [`LayerTimes`]).

use crate::stats;
use crate::{load_checkpoint, peak_rss_mb, Args, Outcome};
use ptmap_arch::CgraArch;
use ptmap_core::{CompileReport, PtMap, PtMapConfig};
use ptmap_eval::{IiPredictor, RankMode, SampleTap, TapObservation};
use ptmap_governor::Budget;
use ptmap_ir::Dfg;
use ptmap_pipeline::{run_batch_with_cache, BatchConfig, Job, PredictorSpec, ReportCache};
use ptmap_trace::Tracer;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Set-up repetitions at the start of a run and after each pass;
/// `setup_s` is the median of all of them.
const SETUP_REPS: usize = 3;
/// Passes every run makes, however long a pass takes.
const MIN_PASSES: usize = 2;
/// Jobs per untraced run that are recompiled directly through
/// `PtMap::compile` and compared with the batch reports.
const DIRECT_CHECKS: usize = 4;

/// Loads the checkpoint and resolves the 44 jobs.
fn setup() -> Result<Vec<Job>, String> {
    let (_, model) = load_checkpoint()?;
    let mut jobs = Vec::new();
    for arch in ptmap_arch::presets::evaluation_suite() {
        for (code, program) in ptmap_workloads::apps::all() {
            jobs.push(Job {
                name: format!("{code}@{}", arch.name()),
                program,
                arch: arch.clone(),
                predictor: PredictorSpec::Gnn(Box::new(model.clone())),
                mode: RankMode::Performance,
                degraded: None,
            });
        }
    }
    Ok(jobs)
}

fn batch_config() -> BatchConfig {
    BatchConfig {
        workers: 1,
        ..BatchConfig::default()
    }
}

/// One untraced pass over the suite.
struct Pass {
    wall_s: f64,
    /// Per-job latency (ms), indexed like the job list.
    latency_ms: Vec<f64>,
    /// Per-job report, indexed like the job list (`None` = failed).
    reports: Vec<Option<CompileReport>>,
}

fn run_pass(jobs: &[Job], order: &[usize], config: &BatchConfig) -> Pass {
    let cache = ReportCache::in_memory();
    let mut latency_ms = vec![0.0; jobs.len()];
    let mut reports = vec![None; jobs.len()];
    let t0 = Instant::now();
    for &i in order {
        let t = Instant::now();
        let batch = run_batch_with_cache(std::slice::from_ref(&jobs[i]), config, &cache);
        latency_ms[i] = t.elapsed().as_secs_f64() * 1e3;
        reports[i] = batch.outcomes.into_iter().next().and_then(|o| o.report);
    }
    Pass {
        wall_s: t0.elapsed().as_secs_f64(),
        latency_ms,
        reports,
    }
}

/// SHA-256 over the deterministic (timing-free) reports, in job order.
fn digest(reports: &[Option<CompileReport>]) -> String {
    let text: Vec<String> = reports
        .iter()
        .map(|r| {
            r.as_ref().map_or("failed".to_string(), |r| {
                serde_json::to_string(&r.without_timing()).expect("report serializes")
            })
        })
        .collect();
    ptmap_pipeline::hash::sha256_hex(&text.join("\n"))
}

/// Checks one pass: every job produced a report.
fn check_pass(pass: &Pass, jobs: &[Job], out: &mut Outcome) {
    out.attempted += jobs.len() as u64;
    for (job, r) in jobs.iter().zip(&pass.reports) {
        if r.is_none() {
            out.failed += 1;
            out.mismatch(format!("{}: no report", job.name));
        }
    }
}

fn ii_sum(reports: &[Option<CompileReport>]) -> f64 {
    reports
        .iter()
        .flatten()
        .flat_map(|r| &r.pnls)
        .map(|p| p.ii as f64)
        .sum()
}

fn cycles_geomean(reports: &[Option<CompileReport>]) -> f64 {
    let cycles: Vec<f64> = reports.iter().flatten().map(|r| r.cycles as f64).collect();
    stats::geomean(&cycles)
}

/// Times [`SETUP_REPS`] set-ups into `jobs`, appending to `samples`.
fn timed_setups(jobs: &mut Vec<Job>, samples: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..SETUP_REPS {
        // Release the previous set first, so `peak_rss_mb` sees one set.
        jobs.clear();
        let t = Instant::now();
        *jobs = black_box(setup()?);
        samples.push(t.elapsed().as_secs_f64());
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut jobs = Vec::new();
    timed_setups(&mut jobs, &mut setup_s)?;
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(args.seed));
    let config = batch_config();
    let mut out = Outcome::default();
    if args.trace {
        traced_run(&jobs, &order, &config, &mut out);
        return Ok(out);
    }

    let t0 = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let pass = run_pass(&jobs, &order, &config);
        check_pass(&pass, &jobs, &mut out);
        let last = pass.wall_s;
        passes.push(pass);
        // Set-up is sampled between passes too, so its median spans
        // the run rather than its first second.
        timed_setups(&mut jobs, &mut setup_s)?;
        if passes.len() >= MIN_PASSES
            && t0.elapsed().as_secs_f64() + last > args.seconds.as_secs_f64()
        {
            break;
        }
    }
    let first = digest(&passes[0].reports);
    for (k, p) in passes.iter().enumerate().skip(1) {
        if digest(&p.reports) != first {
            out.mismatch(format!("pass {k} reports differ from pass 0"));
        }
    }
    // Direct in-process compiles of a seeded subset must reproduce the
    // batch reports exactly (timing aside).
    for &i in order.iter().take(DIRECT_CHECKS) {
        let job = &jobs[i];
        out.attempted += 1;
        match job.compiler(&config.base).compile(&job.program, &job.arch) {
            Ok(r)
                if Some(r.without_timing())
                    == passes[0].reports[i]
                        .as_ref()
                        .map(CompileReport::without_timing) => {}
            Ok(_) => out.mismatch(format!("{}: direct compile differs from batch", job.name)),
            Err(e) => {
                out.failed += 1;
                out.mismatch(format!("{}: direct compile failed: {e}", job.name));
            }
        }
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    eprintln!("suite digest {first} over passes of {walls:.3?} s");
    // The best pass, and each job's best latency over the passes: a
    // transient host slowdown during one pass does not move them.
    let per_job: Vec<f64> = (0..jobs.len())
        .map(|i| {
            passes
                .iter()
                .map(|p| p.latency_ms[i])
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let (pct, tail) = stats::tail(&per_job);
    eprintln!(
        "tail_ms is p{pct} of {} per-job best latencies ({} passes)",
        per_job.len(),
        passes.len()
    );
    out.metric(
        "wall_s",
        walls.iter().copied().fold(f64::INFINITY, f64::min),
    );
    out.metric("p50_ms", stats::median(&per_job));
    out.metric("tail_ms", tail);
    out.metric("ii_sum", ii_sum(&passes[0].reports));
    out.metric("cycles_geomean", cycles_geomean(&passes[0].reports));
    out.metric("setup_s", stats::median(&setup_s));
    out.metric(
        "peak_rss_mb",
        peak_rss_mb(std::path::Path::new("/proc/self/status")).unwrap_or(0.0),
    );
    Ok(out)
}

/// An [`IiPredictor`] wrapper that times every call into the real
/// predictor and records its answers in call order.
struct TimedPredictor {
    inner: Box<dyn IiPredictor + Send + Sync>,
    stats: Arc<PredictStats>,
}

#[derive(Default)]
struct PredictStats {
    ns: AtomicU64,
    calls: AtomicU64,
    answers: Mutex<Vec<(u32, u32)>>,
}

impl IiPredictor for TimedPredictor {
    fn predict(&self, dfg: &Dfg, arch: &CgraArch) -> (u32, u32) {
        let t = Instant::now();
        let answer = self.inner.predict(dfg, arch);
        self.stats
            .ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.stats.calls.fetch_add(1, Ordering::Relaxed);
        self.stats
            .answers
            .lock()
            .expect("answers lock")
            .push(answer);
        answer
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn version(&self) -> Option<u64> {
        self.inner.version()
    }
}

/// Replays recorded answers in call order, so the evaluation stage can
/// be rebuilt without paying for the predictor again.
struct ReplayPredictor(Mutex<VecDeque<(u32, u32)>>);

impl IiPredictor for ReplayPredictor {
    fn predict(&self, _: &Dfg, _: &CgraArch) -> (u32, u32) {
        self.0
            .lock()
            .expect("replay lock")
            .pop_front()
            .expect("replay has one answer per evaluated candidate")
    }

    fn name(&self) -> &'static str {
        "replay"
    }
}

/// Keeps the DFG of every accepted mapping for re-validation.
#[derive(Default)]
struct DfgTap(Mutex<Vec<(Dfg, u32)>>);

impl SampleTap for DfgTap {
    fn record(&self, dfg: &Dfg, _: &CgraArch, obs: &TapObservation) {
        self.0
            .lock()
            .expect("tap lock")
            .push((dfg.clone(), obs.actual_ii));
    }
}

/// Suite totals of the traced pass, in milliseconds unless named
/// otherwise. The self-times `explore + build_dfg + build_input +
/// forward + profile + eval_self + map + simulate + unattributed` add
/// up to `compile_wall` by construction; `eval_self` is the evaluate
/// span minus the replayed `ir`, `gnn` and `model` work inside it.
#[derive(Default)]
struct LayerTimes {
    compile_wall: f64,
    explore: f64,
    evaluate: f64,
    build_dfg: f64,
    build_input: f64,
    predict: f64,
    profile: f64,
    select: f64,
    map: f64,
    simulate: f64,
    cache_key: f64,
    candidates: u64,
    pruned: u64,
    dfgs: u64,
    dfg_nodes: u64,
    predict_calls: u64,
    map_calls: u64,
    rungs: u64,
    rung_successes: u64,
    bfs_expansions: u64,
    placements_tried: u64,
    context_attempts: u64,
    mapper_rejects: u64,
    ii: u64,
    mii: u64,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn attr_u64(span: &ptmap_trace::SpanRecord, key: &str) -> Option<u64> {
    span.attrs
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| match v {
            ptmap_trace::AttrValue::UInt(n) => Some(*n),
            ptmap_trace::AttrValue::Int(n) => u64::try_from(*n).ok(),
            ptmap_trace::AttrValue::Bool(b) => Some(*b as u64),
            _ => None,
        })
}

/// Re-maps an accepted DFG and checks the mapping structurally
/// (`ptmap_mapper::validate`) and by schedule replay
/// (`ptmap_sim::verify_mapping`), and that it reproduces the II.
fn check_mapping(
    dfg: &Dfg,
    arch: &CgraArch,
    config: &PtMapConfig,
    ii: Option<u32>,
) -> Result<(), String> {
    let outcome = ptmap_exact::map_with_backend(
        dfg,
        arch,
        &config.mapper,
        &Budget::unlimited(),
        &Tracer::disabled(),
    )
    .map_err(|e| format!("re-map failed: {e:?}"))?;
    let m = &outcome.mapping;
    if ii.is_some_and(|ii| ii != m.ii) {
        return Err(format!("re-mapped II {} != accepted II {ii:?}", m.ii));
    }
    ptmap_mapper::validate(dfg, arch, m).map_err(|v| format!("validate: {v}"))?;
    ptmap_sim::verify_mapping(dfg, m).map_err(|p| format!("verify_mapping: {}", p.join("; ")))
}

/// Compiles one job traced and adds its layer split to `lt`. Returns the
/// traced report.
fn traced_job(
    job: &Job,
    base: &PtMapConfig,
    lt: &mut LayerTimes,
    out: &mut Outcome,
) -> Option<CompileReport> {
    let config = PtMapConfig {
        mode: job.mode,
        ..base.clone()
    };
    let predict_stats = Arc::new(PredictStats::default());
    let tap = Arc::new(DfgTap::default());
    let compiler = PtMap::new(
        Box::new(TimedPredictor {
            inner: job.predictor.instantiate(),
            stats: Arc::clone(&predict_stats),
        }),
        config.clone(),
    )
    .with_tap(tap.clone());
    let tracer = Tracer::root(&job.name);
    let t = Instant::now();
    let (result, cm) = compiler.compile_instrumented_traced(
        &job.program,
        &job.arch,
        &Budget::unlimited(),
        &tracer,
    );
    let wall = ms(t);
    let trace = tracer.finish().expect("enabled tracer");
    out.attempted += 1;
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            out.failed += 1;
            out.mismatch(format!("{}: traced compile failed: {e}", job.name));
            return None;
        }
    };

    // Spans the program already emits.
    let (mut explore, mut evaluate, mut map, mut simulate) = (0.0, 0.0, 0.0, 0.0);
    for s in &trace.spans {
        let dur = (s.end_ns_or(trace.wall_ns) - s.start_ns) as f64 / 1e6;
        match (s.parent, s.name.as_str()) {
            (None, "explore") => explore += dur,
            (None, "evaluate") => evaluate += dur,
            (None, "map") => {
                map += dur;
                lt.map_calls += 1;
            }
            (None, "simulate") => simulate += dur,
            (_, "ii_attempt") => {
                lt.rungs += 1;
                lt.rung_successes += attr_u64(s, "success").unwrap_or(0);
                lt.bfs_expansions += attr_u64(s, "bfs_expansions").unwrap_or(0);
                lt.placements_tried += attr_u64(s, "placements_tried").unwrap_or(0);
            }
            _ => {}
        }
    }
    let predict = predict_stats.ns.load(Ordering::Relaxed) as f64 / 1e6;
    lt.predict_calls += predict_stats.calls.load(Ordering::Relaxed);

    // Replays on the explored candidates: the work the evaluate span
    // does in `ir`, `gnn` and `model`.
    let forest = ptmap_transform::explore(&job.program, &config.explore);
    let answers = std::mem::take(&mut *predict_stats.answers.lock().expect("answers lock"));
    let mut next_answer = answers.iter();
    let (mut build_dfg, mut build_input, mut profile) = (0.0, 0.0, 0.0);
    let mut dfgs = 0usize;
    for c in forest
        .variants
        .iter()
        .flat_map(|v| v.pnl_candidates.iter().flatten())
    {
        let t = Instant::now();
        let dfg = ptmap_ir::dfg::build_dfg(&c.program, &c.nest, &c.unroll);
        build_dfg += ms(t);
        let Ok(dfg) = dfg else { continue };
        if dfg.is_empty() {
            continue;
        }
        dfgs += 1;
        lt.dfg_nodes += dfg.len() as u64;
        let t = Instant::now();
        black_box(ptmap_gnn::build_input(&dfg, &job.arch));
        build_input += ms(t);
        let ii = next_answer.next().map_or(1, |a| a.0);
        let t = Instant::now();
        black_box(ptmap_model::MemoryProfiler::new(&c.program).profile(&c.nest, &job.arch, ii));
        profile += ms(t);
    }
    if next_answer.next().is_some() || dfgs != answers.len() {
        out.mismatch(format!(
            "{}: predictor answered {} candidates, replay built {dfgs} DFGs",
            job.name,
            answers.len()
        ));
    }
    let replay = ReplayPredictor(Mutex::new(answers.into_iter().collect()));
    let evaluated = ptmap_eval::evaluate_forest(&forest, &job.arch, &replay, &config.eval);
    let t = Instant::now();
    black_box(ptmap_eval::select_programs(
        &evaluated,
        config.mode,
        &config.eval,
    ));
    lt.select += ms(t);
    let t = Instant::now();
    black_box(ptmap_pipeline::cache_key(job, base));
    lt.cache_key += ms(t);

    // Every accepted mapping, transformed or identity, re-validated.
    for (dfg, ii) in tap.0.lock().expect("tap lock").iter() {
        out.attempted += 1;
        if let Err(e) = check_mapping(dfg, &job.arch, &config, Some(*ii)) {
            out.mismatch(format!("{}: {e}", job.name));
        }
    }
    for nest in job.program.perfect_nests() {
        out.attempted += 1;
        let checked = ptmap_ir::dfg::build_dfg(&job.program, &nest, &[])
            .map_err(|e| format!("identity build_dfg: {e:?}"))
            .and_then(|dfg| check_mapping(&dfg, &job.arch, &config, None));
        if let Err(e) = checked {
            out.mismatch(format!("{} identity: {e}", job.name));
        }
    }

    lt.compile_wall += wall;
    lt.explore += explore;
    lt.evaluate += evaluate;
    lt.build_dfg += build_dfg;
    lt.build_input += build_input;
    lt.dfgs += dfgs as u64;
    lt.predict += predict;
    lt.profile += profile;
    lt.map += map;
    lt.simulate += simulate;
    lt.candidates += report.candidates_explored as u64;
    lt.pruned += report.candidates_pruned as u64;
    lt.context_attempts += cm.context_generation_attempts as u64;
    lt.mapper_rejects += cm.mapper_rejects as u64;
    lt.ii += report.pnls.iter().map(|p| p.ii as u64).sum::<u64>();
    lt.mii += report.pnls.iter().map(|p| p.mii as u64).sum::<u64>();
    Some(report)
}

/// Per-layer metrics `suite_gnn` reaches; every other reads 0.
pub const LAYERS: &[&str] = &[
    "transform.explore_ms",
    "transform.candidates",
    "ir.build_dfg_ms",
    "ir.dfg_nodes_mean",
    "gnn.build_input_ms",
    "gnn.forward_ms",
    "eval.evaluate_ms",
    "eval.self_ms",
    "eval.predict_ms",
    "eval.predict_calls",
    "eval.select_ms",
    "eval.pruned_ratio",
    "model.profile_ms",
    "mapper.map_ms",
    "mapper.calls",
    "mapper.rungs",
    "mapper.bfs_expansions",
    "mapper.placements_tried",
    "mapper.rung_success_ratio",
    "mapper.ii_over_mii",
    "sim.simulate_ms",
    "core.context_attempts",
    "core.mapper_rejects",
    "core.unattributed_ms",
    "core.compile_wall_ms",
    "pipeline.cache_key_ms",
    "pipeline.batch_overhead_ms",
    "trace.overhead_ratio",
];

/// One untraced pass (the reference and the overhead baseline), then
/// the traced pass with replays and per-mapping checks.
fn traced_run(jobs: &[Job], order: &[usize], config: &BatchConfig, out: &mut Outcome) {
    let pass = run_pass(jobs, order, config);
    check_pass(&pass, jobs, out);
    let mut lt = LayerTimes::default();
    let mut traced_compile_s = 0.0;
    for &i in order {
        let job = &jobs[i];
        let Some(report) = traced_job(job, &config.base, &mut lt, out) else {
            continue;
        };
        traced_compile_s += report.compile_seconds;
        let untraced = pass.reports[i].as_ref().map(CompileReport::without_timing);
        if untraced.as_ref() != Some(&report.without_timing()) {
            out.mismatch(format!("{}: traced report differs from untraced", job.name));
        }
    }
    let untraced_compile_s: f64 = pass
        .reports
        .iter()
        .flatten()
        .map(|r| r.compile_seconds)
        .sum();
    let batch_overhead: f64 = pass
        .latency_ms
        .iter()
        .zip(&pass.reports)
        .map(|(l, r)| l - r.as_ref().map_or(0.0, |r| r.compile_seconds * 1e3))
        .sum();

    // The GNN predictor is `build_input` followed by the forward pass.
    let forward = lt.predict - lt.build_input;
    let eval_self = lt.evaluate - lt.build_dfg - lt.profile - lt.predict;
    let attributed = lt.explore
        + lt.build_dfg
        + lt.build_input
        + forward
        + lt.profile
        + eval_self
        + lt.map
        + lt.simulate;
    let unattributed = lt.compile_wall - attributed;
    eprintln!(
        "layer closure: {attributed:.3} ms attributed + {unattributed:.3} ms unattributed = {:.3} ms traced compile wall",
        lt.compile_wall
    );

    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    out.metric("transform.explore_ms", lt.explore);
    out.metric("transform.candidates", lt.candidates as f64);
    out.metric("ir.build_dfg_ms", lt.build_dfg);
    out.metric(
        "ir.dfg_nodes_mean",
        ratio(lt.dfg_nodes as f64, lt.dfgs as f64),
    );
    out.metric("gnn.build_input_ms", lt.build_input);
    out.metric("gnn.forward_ms", forward);
    out.metric("eval.evaluate_ms", lt.evaluate);
    out.metric("eval.self_ms", eval_self);
    out.metric("eval.predict_ms", lt.predict);
    out.metric("eval.predict_calls", lt.predict_calls as f64);
    out.metric("eval.select_ms", lt.select);
    out.metric(
        "eval.pruned_ratio",
        ratio(lt.pruned as f64, lt.candidates as f64),
    );
    out.metric("model.profile_ms", lt.profile);
    out.metric("mapper.map_ms", lt.map);
    out.metric("mapper.calls", lt.map_calls as f64);
    out.metric("mapper.rungs", lt.rungs as f64);
    out.metric("mapper.bfs_expansions", lt.bfs_expansions as f64);
    out.metric("mapper.placements_tried", lt.placements_tried as f64);
    out.metric(
        "mapper.rung_success_ratio",
        ratio(lt.rung_successes as f64, lt.rungs as f64),
    );
    out.metric("mapper.ii_over_mii", ratio(lt.ii as f64, lt.mii as f64));
    out.metric("sim.simulate_ms", lt.simulate);
    out.metric("core.context_attempts", lt.context_attempts as f64);
    out.metric("core.mapper_rejects", lt.mapper_rejects as f64);
    out.metric("core.unattributed_ms", unattributed);
    out.metric("core.compile_wall_ms", lt.compile_wall);
    out.metric("pipeline.cache_key_ms", lt.cache_key);
    out.metric("pipeline.batch_overhead_ms", batch_overhead);
    out.metric(
        "trace.overhead_ratio",
        ratio(traced_compile_s, untraced_compile_s),
    );
}
