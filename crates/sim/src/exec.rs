//! Cycle-level execution of a mapped PNL.

use crate::energy::EnergyModel;
use ptmap_ir::{Dfg, LoopId, PerfectNest};
use ptmap_mapper::Mapping;
use ptmap_model::MemoryProfile;
use serde::{Deserialize, Serialize};

/// Off-chip transfer bandwidth in bytes per cycle, used for the DB stall
/// model. Transfers are double-buffered: they only stall the pipeline
/// when the kernel is memory-bound (`transfer > compute`).
pub const OFFCHIP_BYTES_PER_CYCLE: u64 = 16;

/// Total cycles under the double-buffering model: compute and transfer
/// overlap fully, so the longer of the two dominates.
pub fn overlap_cycles(compute: u64, transfer: u64) -> u64 {
    compute.max(transfer)
}

/// Result of simulating one PNL.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PnlSim {
    /// Total cycles including pipeline fill/drain and DB stalls.
    pub cycles: u64,
    /// Cycles lost to off-CGRA data transfers not hidden by compute.
    pub stall_cycles: u64,
    /// Total energy (pJ) of the PNL's full iteration space.
    pub energy_pj: f64,
    /// Fraction of PE compute slots busy in the steady state.
    pub utilization: f64,
    /// Off-CGRA data volume in bytes (from the memory profile).
    pub volume_bytes: u64,
    /// Context-loading volume in bytes.
    pub context_bytes: u64,
}

/// Simulates one PNL whose DFG was built with the unroll vector
/// `unroll` (empty for none): the pipelined loop runs its effective
/// (post-unroll) `TC_l` iterations per launch, once per effective
/// iteration of the folded and imperfect-outer loops (Eqn. 1–2), plus a
/// stall term for off-CGRA traffic exceeding what the pipeline can
/// hide. Energy is priced by `energy` over the same iterations and
/// cycles.
pub fn simulate_pnl(
    mapping: &Mapping,
    dfg: &Dfg,
    nest: &PerfectNest,
    unroll: &[(LoopId, u32)],
    profile: &MemoryProfile,
    energy: &EnergyModel,
) -> PnlSim {
    debug_assert!(
        verify_mapping(dfg, mapping).is_ok(),
        "mapping must be valid"
    );
    let eff = nest.effective_tripcounts(unroll);
    let (&pipelined, folded) = eff.split_last().expect("nest has at least one loop");
    let launches = folded.iter().product::<u64>() * nest.outer_tripcount();
    let compute = mapping.cycles(pipelined) * launches;
    let transfer = profile.total_volume().div_ceil(OFFCHIP_BYTES_PER_CYCLE);
    let cycles = overlap_cycles(compute, transfer);
    PnlSim {
        cycles,
        stall_cycles: transfer.saturating_sub(compute),
        energy_pj: energy.pnl_energy_with_iterations(
            mapping,
            dfg,
            launches * pipelined,
            profile,
            cycles,
        ),
        utilization: mapping.utilization(),
        volume_bytes: profile.volume_bytes,
        context_bytes: profile.context_bytes,
    }
}

/// Checks that a mapping is consistent with its DFG: every node placed
/// exactly once, compute slots unique modulo II, and every edge's timing
/// satisfied.
///
/// # Errors
///
/// Returns a list of human-readable violations.
pub fn verify_mapping(dfg: &Dfg, mapping: &Mapping) -> Result<(), Vec<String>> {
    let mut problems = Vec::new();
    if mapping.placements.len() != dfg.len() {
        problems.push(format!(
            "{} placements for {} nodes",
            mapping.placements.len(),
            dfg.len()
        ));
    }
    let mut time = vec![None::<u32>; dfg.len()];
    let mut slots = std::collections::HashSet::new();
    for p in &mapping.placements {
        if p.node.index() >= dfg.len() {
            problems.push(format!("placement of unknown node {}", p.node));
            continue;
        }
        if time[p.node.index()].replace(p.time).is_some() {
            problems.push(format!("node {} placed twice", p.node));
        }
        if !slots.insert((p.pe, p.time % mapping.ii)) {
            problems.push(format!(
                "compute slot conflict at ({}, {})",
                p.pe,
                p.time % mapping.ii
            ));
        }
    }
    for e in dfg.edges() {
        let (Some(ts), Some(td)) = (time[e.src.index()], time[e.dst.index()]) else {
            problems.push(format!("edge {}->{} has unplaced endpoint", e.src, e.dst));
            continue;
        };
        let dep = ts as i64 + dfg.nodes()[e.src.index()].latency() as i64;
        let arrive = td as i64 + e.dist as i64 * mapping.ii as i64;
        if arrive < dep {
            problems.push(format!(
                "edge {}->{} (dist {}) violates timing: departs {dep}, arrives {arrive}",
                e.src, e.dst, e.dist
            ));
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptmap_arch::presets;
    use ptmap_ir::dfg::build_dfg;
    use ptmap_ir::ProgramBuilder;
    use ptmap_mapper::{map_dfg, MapperConfig};
    use ptmap_model::MemoryProfiler;

    fn setup() -> (ptmap_ir::Program, PerfectNest, Dfg, Mapping) {
        let mut b = ProgramBuilder::new("axpy");
        let x = b.array("X", &[512]);
        let y = b.array("Y", &[512]);
        let i = b.open_loop("i", 512);
        let v = b.add(
            b.mul(b.load(x, &[b.idx(i)]), b.constant(3)),
            b.load(y, &[b.idx(i)]),
        );
        b.store(y, &[b.idx(i)], v);
        b.close_loop();
        let p = b.finish();
        let nest = p.perfect_nests().remove(0);
        let dfg = build_dfg(&p, &nest, &[]).unwrap();
        let m = map_dfg(&dfg, &presets::s4(), &MapperConfig::default()).unwrap();
        (p, nest, dfg, m)
    }

    #[test]
    fn cycles_dominated_by_formula() {
        let (p, nest, dfg, m) = setup();
        let prof = MemoryProfiler::new(&p).profile(&nest, &presets::s4(), m.ii);
        let sim = simulate_pnl(&m, &dfg, &nest, &[], &prof, &EnergyModel::default());
        assert!(sim.cycles >= m.cycles(512));
        assert!(sim.cycles <= m.cycles(512) + sim.stall_cycles);
    }

    #[test]
    fn verify_accepts_mapper_output() {
        let (_, _, dfg, m) = setup();
        verify_mapping(&dfg, &m).unwrap();
    }

    #[test]
    fn verify_rejects_tampered_mapping() {
        let (_, _, dfg, mut m) = setup();
        // Force a slot conflict.
        let first = m.placements[0];
        m.placements[1].pe = first.pe;
        m.placements[1].time = first.time;
        assert!(verify_mapping(&dfg, &m).is_err());
    }

    #[test]
    fn verify_rejects_timing_violation() {
        let (_, _, dfg, mut m) = setup();
        // Move a consumer before its producer.
        let consumer = dfg.edges()[0].dst;
        for p in &mut m.placements {
            if p.node == consumer {
                p.time = 0;
            }
        }
        // (May also create a slot conflict; either way it must fail.)
        assert!(verify_mapping(&dfg, &m).is_err());
    }

    #[test]
    fn utilization_in_unit_range() {
        let (p, nest, dfg, m) = setup();
        let prof = MemoryProfiler::new(&p).profile(&nest, &presets::s4(), m.ii);
        let sim = simulate_pnl(&m, &dfg, &nest, &[], &prof, &EnergyModel::default());
        assert!(sim.utilization > 0.0 && sim.utilization <= 1.0);
    }
}
