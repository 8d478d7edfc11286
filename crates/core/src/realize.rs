//! Realizing a (possibly transformed) program without PT-Map's search:
//! map every PNL with the loop-scheduling back-end and simulate.
//!
//! This is the execution path of the scheduling-only baselines (RAMP and
//! the stronger learned schedulers) and of black-box tuners that measure
//! candidates directly.

use crate::report::{CompileReport, PnlRealization};
use crate::PtMapError;
use ptmap_arch::CgraArch;
use ptmap_eval::non_pnl_cycles;
use ptmap_governor::Budget;
use ptmap_ir::dfg::build_dfg;
use ptmap_ir::{Dfg, LoopId, PerfectNest, Program};
use ptmap_mapper::{BackendOutcome, MapError, MapperConfig};
use ptmap_model::MemoryProfiler;
use ptmap_sim::{simulate_pnl, EnergyModel};
use ptmap_trace::Tracer;
use std::time::Instant;

/// Builds one PNL's DFG with `unroll` and maps it with the configured
/// back-end. `Ok(None)` when the PNL is rejected (the DFG does not
/// build, or no mapping exists); budget and fault errors surface as
/// they are, since they must end the whole compile.
pub(crate) fn map_pnl(
    program: &Program,
    nest: &PerfectNest,
    unroll: &[(LoopId, u32)],
    arch: &CgraArch,
    mapper: &MapperConfig,
    budget: &Budget,
    tracer: &Tracer,
) -> Result<Option<(Dfg, BackendOutcome)>, PtMapError> {
    let Ok(dfg) = build_dfg(program, nest, unroll) else {
        return Ok(None);
    };
    match ptmap_exact::map_with_backend(&dfg, arch, mapper, budget, tracer) {
        Ok(outcome) => Ok(Some((dfg, outcome))),
        Err(MapError::Timeout) => Err(PtMapError::Timeout),
        Err(MapError::Cancelled) => Err(PtMapError::Cancelled),
        Err(MapError::Fault(site)) => Err(PtMapError::Fault(site)),
        Err(_) => Ok(None),
    }
}

/// Maps and simulates a program as-is: one mapping per PNL with the
/// given per-PNL unroll vectors (aligned with `program.perfect_nests()`;
/// pass an empty slice for no unrolling anywhere).
///
/// # Errors
///
/// [`PtMapError::NoPnl`] for PNL-free programs;
/// [`PtMapError::NothingMappable`] when any PNL fails to map.
pub fn realize_program(
    program: &Program,
    arch: &CgraArch,
    mapper: &MapperConfig,
    energy_model: &EnergyModel,
    unroll_per_pnl: &[Vec<(LoopId, u32)>],
) -> Result<CompileReport, PtMapError> {
    realize_program_budgeted(
        program,
        arch,
        mapper,
        energy_model,
        unroll_per_pnl,
        &Budget::unlimited(),
    )
}

/// [`realize_program`] under a cooperative [`Budget`] (threaded into
/// every mapper call).
///
/// # Errors
///
/// Everything [`realize_program`] returns, plus
/// [`PtMapError::Timeout`] / [`PtMapError::Cancelled`] from the budget
/// and [`PtMapError::Fault`] from injected faults.
pub fn realize_program_budgeted(
    program: &Program,
    arch: &CgraArch,
    mapper: &MapperConfig,
    energy_model: &EnergyModel,
    unroll_per_pnl: &[Vec<(LoopId, u32)>],
    budget: &Budget,
) -> Result<CompileReport, PtMapError> {
    let t0 = Instant::now();
    let nests = program.perfect_nests();
    if nests.is_empty() {
        return Err(PtMapError::NoPnl);
    }
    let mut pnls = Vec::new();
    let mut cycles = non_pnl_cycles(program);
    let mut energy = 0.0f64;
    for (i, nest) in nests.iter().enumerate() {
        let unroll = unroll_per_pnl.get(i).map_or(&[][..], Vec::as_slice);
        let (dfg, outcome) = map_pnl(
            program,
            nest,
            unroll,
            arch,
            mapper,
            budget,
            &Tracer::disabled(),
        )?
        .ok_or(PtMapError::NothingMappable)?;
        let profile = MemoryProfiler::new(program).profile(nest, arch, outcome.mapping.ii);
        let sim = simulate_pnl(&outcome.mapping, &dfg, nest, unroll, &profile, energy_model);
        cycles += sim.cycles;
        energy += sim.energy_pj;
        let desc = if unroll.is_empty() {
            "as-is".to_string()
        } else {
            format!("unroll{unroll:?}")
        };
        pnls.push(PnlRealization::new(
            desc,
            outcome.mapping.ii,
            &outcome,
            &sim,
        ));
    }
    let edp = energy_model.edp(energy, cycles);
    Ok(CompileReport {
        program: program.name.clone(),
        arch: arch.name().to_string(),
        mode: ptmap_eval::RankMode::Performance,
        cycles,
        energy_pj: energy,
        edp,
        pnls,
        candidates_explored: 1,
        candidates_pruned: 0,
        context_generation_attempts: 1,
        compile_seconds: t0.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptmap_arch::presets;

    #[test]
    fn identity_gemm_realizes() {
        let p = ptmap_workloads::micro::gemm(24);
        let r = realize_program(
            &p,
            &presets::s4(),
            &MapperConfig::default(),
            &EnergyModel::default(),
            &[],
        )
        .unwrap();
        assert_eq!(r.pnls.len(), 1);
        assert!(r.cycles >= 24 * 24 * 24 * 4);
    }

    #[test]
    fn unrolled_realization_fewer_cycles() {
        let p = ptmap_workloads::micro::gemm(24);
        let nest = p.perfect_nests().remove(0);
        let (i, j) = (nest.loops[0], nest.loops[1]);
        let base = realize_program(
            &p,
            &presets::sl8(),
            &MapperConfig::default(),
            &EnergyModel::default(),
            &[],
        )
        .unwrap();
        let unrolled = realize_program(
            &p,
            &presets::sl8(),
            &MapperConfig::default(),
            &EnergyModel::default(),
            &[vec![(i, 4), (j, 4)]],
        )
        .unwrap();
        assert!(
            unrolled.cycles < base.cycles,
            "unrolled {} vs base {}",
            unrolled.cycles,
            base.cycles
        );
    }

    #[test]
    fn unrolled_realization_is_the_simulators_answer() {
        // The report's per-PNL cycles and its energy are exactly what
        // the simulator computes for the same mapping and unroll vector.
        let p = ptmap_workloads::micro::gemm(24);
        let arch = presets::sl8();
        let nest = p.perfect_nests().remove(0);
        let unroll = vec![(nest.loops[0], 4), (nest.loops[1], 2)];
        let energy = EnergyModel::default();
        let report = realize_program(
            &p,
            &arch,
            &MapperConfig::default(),
            &energy,
            std::slice::from_ref(&unroll),
        )
        .unwrap();
        let dfg = build_dfg(&p, &nest, &unroll).unwrap();
        let outcome = ptmap_exact::map_with_backend(
            &dfg,
            &arch,
            &MapperConfig::default(),
            &Budget::unlimited(),
            &Tracer::disabled(),
        )
        .unwrap();
        let profile = MemoryProfiler::new(&p).profile(&nest, &arch, outcome.mapping.ii);
        let sim = simulate_pnl(&outcome.mapping, &dfg, &nest, &unroll, &profile, &energy);
        assert_eq!(report.pnls[0].ii, outcome.mapping.ii);
        assert_eq!(report.pnls[0].cycles, sim.cycles);
        assert_eq!(report.cycles, sim.cycles, "gemm has no non-PNL statements");
        assert_eq!(report.energy_pj.to_bits(), sim.energy_pj.to_bits());
        // The unrolled body runs fewer pipelined iterations than the
        // nest's own tripcounts would launch.
        let as_is = simulate_pnl(&outcome.mapping, &dfg, &nest, &[], &profile, &energy);
        assert!(sim.cycles < as_is.cycles);
    }

    #[test]
    fn all_apps_realize_on_s4() {
        for (name, p) in ptmap_workloads::apps::all() {
            let r = realize_program(
                &p,
                &presets::s4(),
                &MapperConfig::default(),
                &EnergyModel::default(),
                &[],
            );
            assert!(r.is_ok(), "{name} failed: {r:?}");
        }
    }
}
