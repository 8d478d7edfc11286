//! The end-to-end PT-Map framework (Fig. 3).
//!
//! [`PtMap::compile`] runs the full pipeline on an annotated program:
//!
//! 1. **Top-down exploration** (`ptmap-transform`) builds the result
//!    forest of transformation candidates;
//! 2. **Bottom-up evaluation** (`ptmap-eval`) profiles every candidate
//!    with the configured [`IiPredictor`] (GNN by default, analytical
//!    for the `AM` ablation), prunes against the CB/DB constraints, and
//!    ranks in the requested mode;
//! 3. **Context generation** walks the ranked program-level choices and
//!    accepts the highest-ranking one whose innermost loops all map
//!    under the real modulo scheduler (the extended-RAMP back-end);
//! 4. The accepted mapping set is **simulated** (`ptmap-sim`) for cycle,
//!    energy, and EDP totals.
//!
//! # Example
//!
//! ```
//! use ptmap_core::{PtMap, PtMapConfig};
//! use ptmap_eval::AnalyticalPredictor;
//! use ptmap_arch::presets;
//! use ptmap_ir::ProgramBuilder;
//!
//! let mut b = ProgramBuilder::new("scale");
//! let x = b.array("X", &[256]);
//! let i = b.open_loop("i", 256);
//! let v = b.mul(b.load(x, &[b.idx(i)]), b.constant(3));
//! b.store(x, &[b.idx(i)], v);
//! b.close_loop();
//! let program = b.finish();
//!
//! let ptmap = PtMap::new(Box::new(AnalyticalPredictor), PtMapConfig::default());
//! let report = ptmap.compile(&program, &presets::s4())?;
//! println!("cycles: {}, EDP: {:.3e}", report.cycles, report.edp);
//! # Ok::<(), ptmap_core::PtMapError>(())
//! ```

pub mod metrics;
pub mod realize;
pub mod report;

pub use metrics::CompileMetrics;
pub use realize::{realize_program, realize_program_budgeted};
pub use report::{CompileReport, PnlRealization};

use ptmap_arch::CgraArch;
use ptmap_eval::{select_programs, EvalConfig, IiPredictor, ProgramChoice, RankMode};
use ptmap_ir::Program;
use ptmap_mapper::MapperConfig;
use ptmap_model::MemoryProfiler;
use ptmap_sim::{simulate_pnl, EnergyModel};
use ptmap_transform::{ExploreConfig, ResultForest};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Instant;

/// Errors from the end-to-end pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PtMapError {
    /// The program has no perfectly nested loop to map.
    NoPnl,
    /// No ranked candidate combination was mappable by the back-end.
    NothingMappable,
    /// The compilation budget's deadline (or work limit) ran out;
    /// whichever stage was running (exploration, evaluation, context
    /// generation) stopped cooperatively at its next checkpoint.
    Timeout,
    /// The compilation budget was cancelled from outside.
    Cancelled,
    /// An `error`-mode fault point fired somewhere in the pipeline
    /// (fault injection only; see `ptmap_governor::faultpoint`).
    Fault(String),
}

impl From<ptmap_governor::BudgetExceeded> for PtMapError {
    fn from(e: ptmap_governor::BudgetExceeded) -> Self {
        match e {
            ptmap_governor::BudgetExceeded::Cancelled => PtMapError::Cancelled,
            ptmap_governor::BudgetExceeded::Timeout
            | ptmap_governor::BudgetExceeded::WorkExhausted => PtMapError::Timeout,
        }
    }
}

impl fmt::Display for PtMapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PtMapError::NoPnl => write!(f, "program contains no perfectly nested loop"),
            PtMapError::NothingMappable => {
                write!(
                    f,
                    "no ranked transformation had all innermost loops mappable"
                )
            }
            PtMapError::Timeout => write!(f, "compilation timed out: budget exceeded"),
            PtMapError::Cancelled => write!(f, "compilation cancelled"),
            PtMapError::Fault(site) => write!(f, "injected fault at {site}"),
        }
    }
}

impl std::error::Error for PtMapError {}

/// Pipeline configuration.
///
/// Serializes for content-addressed caching in `ptmap-pipeline`: every
/// field changes compilation results, so every field is part of the
/// cache key.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PtMapConfig {
    /// Exploration knobs.
    pub explore: ExploreConfig,
    /// Evaluation knobs (top-K etc.).
    pub eval: EvalConfig,
    /// The loop-scheduling back-end used for context generation.
    pub mapper: MapperConfig,
    /// Ranking mode for the final selection.
    pub mode: RankMode,
    /// Energy model for the report.
    pub energy: EnergyModel,
    /// How many ranked choices context generation actually schedules
    /// before keeping the best realized one (the paper stops at the
    /// first mappable choice; a small beam hedges predictor error).
    pub realize_beam: usize,
    /// Compare the realized choice against the identity mapping and keep
    /// the better — the untransformed program is always in PT-Map's
    /// space, so the output should never lose to it.
    pub identity_guard: bool,
    /// Fall back to the identity mapping when *no* ranked choice maps
    /// (disable to reproduce the paper's AM "fail" entries).
    pub fallback: bool,
}

impl Default for PtMapConfig {
    fn default() -> Self {
        PtMapConfig {
            explore: ExploreConfig::default(),
            eval: EvalConfig::default(),
            mapper: MapperConfig::default(),
            mode: RankMode::default(),
            energy: EnergyModel::default(),
            realize_beam: 4,
            identity_guard: true,
            fallback: true,
        }
    }
}

/// The PT-Map compiler.
pub struct PtMap {
    predictor: Box<dyn IiPredictor + Send + Sync>,
    config: PtMapConfig,
    tap: Option<std::sync::Arc<dyn ptmap_eval::SampleTap>>,
}

impl fmt::Debug for PtMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PtMap(predictor: {})", self.predictor.name())
    }
}

impl PtMap {
    /// Creates a compiler with a predictor and configuration.
    pub fn new(predictor: Box<dyn IiPredictor + Send + Sync>, config: PtMapConfig) -> Self {
        PtMap {
            predictor,
            config,
            tap: None,
        }
    }

    /// Attaches a [`ptmap_eval::SampleTap`] that observes every accepted
    /// mapping (predicted vs actual `(II, ProEpi)` plus the mapped DFG).
    /// The tap is observe-only: it runs after the mapping is accepted and
    /// cannot influence compilation, so results with and without a tap
    /// are bit-identical. Identity-guard/fallback realizations are not
    /// tapped — they carry no predictor forecast to compare against.
    pub fn with_tap(mut self, tap: std::sync::Arc<dyn ptmap_eval::SampleTap>) -> Self {
        self.tap = Some(tap);
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &PtMapConfig {
        &self.config
    }

    /// The predictor's short name (for cache keys and reports).
    pub fn predictor_name(&self) -> &'static str {
        self.predictor.name()
    }

    /// Runs the full pipeline.
    ///
    /// # Errors
    ///
    /// [`PtMapError::NoPnl`] when the program has no pipelined loop, and
    /// [`PtMapError::NothingMappable`] when context generation fails for
    /// every ranked choice.
    pub fn compile(&self, program: &Program, arch: &CgraArch) -> Result<CompileReport, PtMapError> {
        self.compile_instrumented_traced(
            program,
            arch,
            &ptmap_governor::Budget::unlimited(),
            &ptmap_trace::Tracer::disabled(),
        )
        .0
    }

    /// Runs the full pipeline under a cooperative
    /// [`ptmap_governor::Budget`] with span-tree instrumentation,
    /// returning the per-stage [`CompileMetrics`] alongside the result
    /// (the metrics are filled even when compilation fails).
    ///
    /// Every stage checks the budget at its natural granularity (per
    /// variant branch while exploring, per candidate while evaluating,
    /// per placement attempt while mapping) and surfaces
    /// [`PtMapError::Timeout`] / [`PtMapError::Cancelled`] promptly
    /// when it runs out. `explore` / `evaluate` / `map` / `simulate`
    /// child spans are recorded on `tracer` (the mapper nests its
    /// per-II `ii_attempt` spans under `map`). A disabled tracer costs
    /// nothing; an enabled one never changes the compile result.
    ///
    /// # Errors
    ///
    /// In the returned result: everything [`PtMap::compile`] returns,
    /// plus the budget errors.
    pub fn compile_instrumented_traced(
        &self,
        program: &Program,
        arch: &CgraArch,
        budget: &ptmap_governor::Budget,
        tracer: &ptmap_trace::Tracer,
    ) -> (Result<CompileReport, PtMapError>, CompileMetrics) {
        let mut m = CompileMetrics::default();
        let result = self.compile_inner(program, arch, budget, &mut m, tracer);
        (result, m)
    }

    fn compile_inner(
        &self,
        program: &Program,
        arch: &CgraArch,
        budget: &ptmap_governor::Budget,
        m: &mut CompileMetrics,
        tracer: &ptmap_trace::Tracer,
    ) -> Result<CompileReport, PtMapError> {
        let t0 = Instant::now();
        if program.perfect_nests().is_empty() {
            return Err(PtMapError::NoPnl);
        }
        // 1. Top-down exploration.
        let t = Instant::now();
        let span = tracer.span("explore");
        // A budgeted exploration only fails on the budget itself, so the
        // catch-all arm maps the remaining (unreachable) variants to
        // Timeout rather than inventing a new error class.
        let forest = ptmap_transform::explore_budgeted(program, &self.config.explore, budget)
            .map_err(|e| match e {
                ptmap_transform::TransformError::Cancelled => PtMapError::Cancelled,
                _ => PtMapError::Timeout,
            });
        m.explore_seconds += t.elapsed().as_secs_f64();
        if let Ok(f) = &forest {
            span.attr("candidates_explored", f.candidate_count());
        }
        drop(span);
        let forest = forest?;
        let explored = forest.candidate_count();
        m.candidates_explored = explored;
        // 2. Bottom-up evaluation + ranking.
        let t = Instant::now();
        let eval_span = tracer.span("evaluate");
        let eval = ptmap_eval::evaluate_forest_budgeted(
            &forest,
            arch,
            self.predictor.as_ref(),
            &self.config.eval,
            budget,
        );
        let eval = match eval {
            Ok(eval) => eval,
            Err(e) => {
                m.evaluate_seconds += t.elapsed().as_secs_f64();
                return Err(e.into());
            }
        };
        let pruned: usize = eval
            .variants
            .iter()
            .flat_map(|v| &v.rankings)
            .flat_map(|r| &r.evaluated)
            .filter(|e| e.pruned.is_some())
            .count();
        m.candidates_pruned = pruned;
        let choices = select_programs(&eval, self.config.mode, &self.config.eval);
        m.evaluate_seconds += t.elapsed().as_secs_f64();
        eval_span.attr("candidates_pruned", pruned);
        eval_span.attr("choices", choices.len());
        drop(eval_span);
        // 3. Context generation: schedule ranked choices in order, keep
        // the best of the first `realize_beam` that map.
        let mut attempts = 0usize;
        let mut best: Option<CompileReport> = None;
        let mut realized = 0usize;
        let objective = |r: &CompileReport| match self.config.mode {
            RankMode::Performance => r.cycles as f64,
            RankMode::Pareto => r.edp,
        };
        for choice in &choices {
            attempts += 1;
            if let Some(report) = self.realize(
                &forest, &eval, choice, arch, explored, pruned, attempts, t0, budget, m, tracer,
            )? {
                realized += 1;
                if best
                    .as_ref()
                    .is_none_or(|b| objective(&report) < objective(b))
                {
                    best = Some(report);
                }
                if realized >= self.config.realize_beam.max(1) {
                    break;
                }
            }
        }
        // Identity guard / fallback: the untransformed program is always
        // a legal member of the space.
        let use_identity = (best.is_none() && self.config.fallback)
            || (best.is_some() && self.config.identity_guard);
        if use_identity {
            let t = Instant::now();
            let identity_span = tracer.span("map");
            identity_span.attr("identity", true);
            let identity_result = crate::realize::realize_program_budgeted(
                program,
                arch,
                &self.config.mapper,
                &self.config.energy,
                &[],
                budget,
            );
            // The identity pass interleaves scheduling and simulation;
            // charge it to the mapping stage.
            m.map_seconds += t.elapsed().as_secs_f64();
            drop(identity_span);
            // Budget/fault errors abort the whole compile even when a
            // transformed choice already realized: a timed-out job must
            // not silently return a report that skipped the guard.
            if let Err(e) = &identity_result {
                if matches!(
                    e,
                    PtMapError::Timeout | PtMapError::Cancelled | PtMapError::Fault(_)
                ) {
                    return Err(e.clone());
                }
            }
            if let Ok(mut identity) = identity_result {
                m.mapper_accepts += identity.pnls.len();
                // Per-backend accounting for the identity pass too, so
                // wins always sum to accepts (cancellation counts are
                // search-path-only; the realizer drops them).
                for p in &identity.pnls {
                    match p.backend.as_str() {
                        "exact" => m.backend_exact_wins += 1,
                        _ => m.backend_heuristic_wins += 1,
                    }
                    m.exact_optimality_proofs += p.proven_optimal as usize;
                }
                if ptmap_mapper::validation_enabled(&self.config.mapper) {
                    m.mappings_validated += identity.pnls.len();
                }
                identity.mode = self.config.mode;
                identity.candidates_explored = explored;
                identity.candidates_pruned = pruned;
                identity.context_generation_attempts = attempts + 1;
                if best
                    .as_ref()
                    .is_none_or(|b| objective(&identity) < objective(b))
                {
                    best = Some(identity);
                }
            }
        }
        m.context_generation_attempts = attempts;
        match best {
            Some(mut report) => {
                report.compile_seconds = t0.elapsed().as_secs_f64();
                Ok(report)
            }
            None => Err(PtMapError::NothingMappable),
        }
    }

    /// Attempts to map every PNL of a program-level choice; returns the
    /// full report on success, `None` when the back-end rejects a
    /// candidate, and an error when the budget runs out (or a fault
    /// point fires) mid-realization.
    #[allow(clippy::too_many_arguments)]
    fn realize(
        &self,
        forest: &ResultForest,
        eval: &ptmap_eval::EvaluatedForest,
        choice: &ProgramChoice,
        arch: &CgraArch,
        explored: usize,
        pruned: usize,
        attempts: usize,
        t0: Instant,
        budget: &ptmap_governor::Budget,
        m: &mut CompileMetrics,
        tracer: &ptmap_trace::Tracer,
    ) -> Result<Option<CompileReport>, PtMapError> {
        let variant = &eval.variants[choice.variant];
        let candidates = &forest.variants[choice.variant].pnl_candidates;
        let mut pnls = Vec::new();
        let mut cycles = ptmap_eval::non_pnl_cycles(&variant.program);
        let mut energy = 0.0f64;
        for (pnl_idx, &sel) in choice.selection.iter().enumerate() {
            let e = &variant.rankings[pnl_idx].evaluated[sel];
            let c = &candidates[pnl_idx][sel];
            let t = Instant::now();
            let map_span = tracer.span("map");
            map_span.attr("attempt", attempts);
            map_span.attr("pnl", pnl_idx);
            let mapped = crate::realize::map_pnl(
                &c.program,
                &c.nest,
                &c.unroll,
                arch,
                &self.config.mapper,
                budget,
                map_span.tracer(),
            );
            m.map_seconds += t.elapsed().as_secs_f64();
            let Some((dfg, outcome)) = mapped? else {
                m.mapper_rejects += 1;
                return Ok(None);
            };
            map_span.attr("ii", outcome.mapping.ii as u64);
            map_span.attr("backend", outcome.backend);
            map_span.attr("proven_optimal", outcome.proven_optimal);
            if let Some(opt) = outcome.ii_opt {
                map_span.attr("ii_opt", opt as u64);
            }
            drop(map_span);
            m.mapper_accepts += 1;
            match outcome.backend {
                "exact" => m.backend_exact_wins += 1,
                _ => m.backend_heuristic_wins += 1,
            }
            m.exact_optimality_proofs += outcome.proven_optimal as usize;
            m.portfolio_cancellations += outcome.losers_cancelled as usize;
            let mapping = &outcome.mapping;
            // map_dfg validates internally when enabled; an accepted
            // mapping was therefore also a validated one.
            if ptmap_mapper::validation_enabled(&self.config.mapper) {
                m.mappings_validated += 1;
            }
            let t = Instant::now();
            let sim_span = tracer.span("simulate");
            sim_span.attr("pnl", pnl_idx);
            let profile = MemoryProfiler::new(&c.program).profile(&c.nest, arch, mapping.ii);
            // Report predicted vs actual for this accepted mapping to the
            // tap, if any. Strictly observe-only (see `with_tap`).
            if let Some(tap) = &self.tap {
                tap.record(
                    &dfg,
                    arch,
                    &ptmap_eval::TapObservation {
                        predicted_ii: e.ii,
                        predicted_pro_epi: e.pro_epi,
                        actual_ii: mapping.ii,
                        actual_pro_epi: mapping.pro_epi(),
                        mii: mapping.mii,
                        tc: c.effective_pipelined_tc(),
                        backend: outcome.backend,
                        trace_id: tracer.trace_id().map(str::to_string),
                    },
                );
            }
            let sim = simulate_pnl(
                mapping,
                &dfg,
                &c.nest,
                &c.unroll,
                &profile,
                &self.config.energy,
            );
            cycles += sim.cycles;
            energy += sim.energy_pj;
            pnls.push(PnlRealization::new(c.desc.clone(), e.ii, &outcome, &sim));
            m.simulate_seconds += t.elapsed().as_secs_f64();
            drop(sim_span);
        }
        let edp = self.config.energy.edp(energy, cycles);
        Ok(Some(CompileReport {
            program: variant.program.name.clone(),
            arch: arch.name().to_string(),
            mode: self.config.mode,
            cycles,
            energy_pj: energy,
            edp,
            pnls,
            candidates_explored: explored,
            candidates_pruned: pruned,
            context_generation_attempts: attempts,
            compile_seconds: t0.elapsed().as_secs_f64(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptmap_arch::presets;
    use ptmap_eval::AnalyticalPredictor;
    use ptmap_ir::dfg::build_dfg;
    use ptmap_mapper::map_dfg;
    use ptmap_trace::Tracer;

    fn quick_config() -> PtMapConfig {
        PtMapConfig {
            explore: ExploreConfig::quick(),
            ..PtMapConfig::default()
        }
    }

    #[test]
    fn gemm_compiles_end_to_end() {
        let p = ptmap_workloads::micro::gemm(32);
        let ptmap = PtMap::new(Box::new(AnalyticalPredictor), quick_config());
        let report = ptmap.compile(&p, &presets::s4()).unwrap();
        assert!(report.cycles > 0);
        assert!(report.energy_pj > 0.0);
        assert_eq!(report.pnls.len(), 1);
        assert!(report.candidates_explored > 0);
        assert!(report.compile_seconds >= 0.0);
    }

    #[test]
    fn multi_pnl_app_compiles() {
        let p = ptmap_workloads::apps::atax();
        let ptmap = PtMap::new(Box::new(AnalyticalPredictor), quick_config());
        let report = ptmap.compile(&p, &presets::s4()).unwrap();
        assert_eq!(report.pnls.len(), 3);
    }

    #[test]
    fn transformed_beats_untransformed_gemm() {
        // PT-Map's chosen GEMM mapping should beat the identity mapping
        // (the RAMP baseline) on a large array.
        let p = ptmap_workloads::micro::gemm(32);
        let arch = presets::sl8();
        let ptmap = PtMap::new(Box::new(AnalyticalPredictor), PtMapConfig::default());
        let report = ptmap.compile(&p, &arch).unwrap();

        // Identity baseline.
        let nest = p.perfect_nests().remove(0);
        let dfg = build_dfg(&p, &nest, &[]).unwrap();
        let m = map_dfg(&dfg, &arch, &MapperConfig::default()).unwrap();
        let base_cycles = m.cycles(nest.pipelined_tripcount())
            * (nest.folded_tripcount() * nest.outer_tripcount());
        assert!(
            report.cycles < base_cycles,
            "PT-Map {} vs baseline {base_cycles}",
            report.cycles
        );
    }

    #[test]
    fn pareto_mode_not_worse_volume_than_performance() {
        let p = ptmap_workloads::micro::gemm(64);
        let arch = presets::s4();
        let mk = |mode| {
            let cfg = PtMapConfig {
                mode,
                explore: ExploreConfig::quick(),
                ..PtMapConfig::default()
            };
            PtMap::new(Box::new(AnalyticalPredictor), cfg)
                .compile(&p, &arch)
                .unwrap()
        };
        let perf = mk(RankMode::Performance);
        let pareto = mk(RankMode::Pareto);
        let vol = |r: &CompileReport| r.pnls.iter().map(|x| x.volume).sum::<u64>();
        assert!(
            vol(&pareto) <= vol(&perf).max(1) * 2,
            "pareto volume {} should not explode vs performance {}",
            vol(&pareto),
            vol(&perf)
        );
    }

    #[test]
    fn instrumented_compile_fills_metrics() {
        let p = ptmap_workloads::micro::gemm(24);
        let ptmap = PtMap::new(Box::new(AnalyticalPredictor), quick_config());
        let (report, m) = ptmap.compile_instrumented_traced(
            &p,
            &presets::s4(),
            &ptmap_governor::Budget::unlimited(),
            &Tracer::disabled(),
        );
        let report = report.unwrap();
        assert_eq!(m.candidates_explored, report.candidates_explored);
        assert_eq!(m.candidates_pruned, report.candidates_pruned);
        assert!(m.explore_seconds >= 0.0 && m.evaluate_seconds > 0.0);
        assert!(m.map_seconds > 0.0, "context generation must be timed");
        assert!(m.mapper_accepts > 0);
        assert!(m.staged_seconds() <= report.compile_seconds * 1.5 + 0.1);
    }

    #[test]
    fn tap_observes_without_changing_results() {
        let p = ptmap_workloads::micro::gemm(24);
        let arch = presets::s4();
        let plain = PtMap::new(Box::new(AnalyticalPredictor), quick_config())
            .compile(&p, &arch)
            .unwrap();
        let tap = std::sync::Arc::new(ptmap_eval::RecordingTap::new());
        let tapped = PtMap::new(Box::new(AnalyticalPredictor), quick_config())
            .with_tap(tap.clone())
            .compile(&p, &arch)
            .unwrap();
        // Observe-only: identical output with and without the tap.
        assert_eq!(plain.without_timing(), tapped.without_timing());
        // And the tap saw every non-identity accepted mapping with
        // self-consistent fields.
        let obs = tap.observations();
        assert!(!obs.is_empty(), "accepted mappings must be tapped");
        for o in &obs {
            assert!(o.actual_ii >= o.mii);
            assert!(o.predicted_ii >= 1);
            assert!(o.tc >= 1);
            assert!(!o.backend.is_empty());
        }
    }

    #[test]
    fn no_pnl_error() {
        let p = ptmap_ir::ProgramBuilder::new("empty").finish();
        let ptmap = PtMap::new(Box::new(AnalyticalPredictor), quick_config());
        assert_eq!(ptmap.compile(&p, &presets::s4()), Err(PtMapError::NoPnl));
    }

    #[test]
    fn governor_variant_displays() {
        assert_eq!(
            PtMapError::Timeout.to_string(),
            "compilation timed out: budget exceeded"
        );
        assert_eq!(PtMapError::Cancelled.to_string(), "compilation cancelled");
        assert_eq!(
            PtMapError::Fault("cache_read".into()).to_string(),
            "injected fault at cache_read"
        );
        use ptmap_governor::BudgetExceeded;
        assert_eq!(
            PtMapError::from(BudgetExceeded::Timeout),
            PtMapError::Timeout
        );
        assert_eq!(
            PtMapError::from(BudgetExceeded::WorkExhausted),
            PtMapError::Timeout
        );
        assert_eq!(
            PtMapError::from(BudgetExceeded::Cancelled),
            PtMapError::Cancelled
        );
    }

    #[test]
    fn cancelled_budget_stops_compilation() {
        let p = ptmap_workloads::micro::gemm(24);
        let ptmap = PtMap::new(Box::new(AnalyticalPredictor), quick_config());
        let budget = ptmap_governor::Budget::cancellable();
        budget.cancel();
        assert_eq!(
            ptmap
                .compile_instrumented_traced(&p, &presets::s4(), &budget, &Tracer::disabled())
                .0,
            Err(PtMapError::Cancelled)
        );
    }

    #[test]
    fn expired_deadline_times_out_promptly() {
        let p = ptmap_workloads::micro::gemm(24);
        let ptmap = PtMap::new(Box::new(AnalyticalPredictor), quick_config());
        let budget = ptmap_governor::Budget::with_deadline(std::time::Duration::ZERO);
        let t0 = Instant::now();
        assert_eq!(
            ptmap
                .compile_instrumented_traced(&p, &presets::s4(), &budget, &Tracer::disabled())
                .0,
            Err(PtMapError::Timeout)
        );
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(5),
            "timeout must cut the search short"
        );
    }

    #[test]
    fn generous_budget_matches_unlimited_result() {
        // A deadline that never fires must not perturb the result: the
        // governor only *observes* until it trips.
        let p = ptmap_workloads::micro::gemm(24);
        let ptmap = PtMap::new(Box::new(AnalyticalPredictor), quick_config());
        let free = ptmap.compile(&p, &presets::s4()).unwrap();
        let budget = ptmap_governor::Budget::with_deadline(std::time::Duration::from_secs(3600));
        let timed = ptmap
            .compile_instrumented_traced(&p, &presets::s4(), &budget, &Tracer::disabled())
            .0
            .unwrap();
        assert_eq!(free.without_timing(), timed.without_timing());
    }
}
