//! Compilation reports.

use ptmap_eval::RankMode;
use ptmap_mapper::BackendOutcome;
use ptmap_sim::PnlSim;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Realization of one PNL in the accepted choice.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PnlRealization {
    /// Human-readable transformation description.
    pub desc: String,
    /// Achieved II from the loop-scheduling back-end.
    pub ii: u32,
    /// The MII bound.
    pub mii: u32,
    /// Achieved pipeline fill/drain cycles.
    pub pro_epi: u32,
    /// What the predictor forecast for this candidate.
    pub predicted_ii: u32,
    /// PE-array compute-slot utilization.
    pub utilization: f64,
    /// Simulated cycles for this PNL (including stalls).
    pub cycles: u64,
    /// Off-CGRA volume in bytes.
    pub volume: u64,
    /// Which mapper backend produced the mapping ("heuristic" /
    /// "exact"; in portfolio mode, the winning arm). Empty in reports
    /// from before backends existed.
    #[serde(default)]
    pub backend: String,
    /// The proven-optimal II, when the exact backend (or an MII hit)
    /// established one.
    #[serde(default)]
    pub ii_opt: Option<u32>,
    /// The heuristic's II for the same candidate, when a heuristic arm
    /// ran (exact/portfolio modes) — `heuristic_ii - ii_opt` is the
    /// measured heuristic optimality gap reported in EXPERIMENTS.md.
    #[serde(default)]
    pub heuristic_ii: Option<u32>,
    /// Whether `ii` is proven optimal — `ii - ii_opt.unwrap()` is then
    /// the measured optimality gap (zero unless a proof exists below
    /// the achieved II, which cannot happen: a strictly better II
    /// found by the exact backend becomes the mapping itself).
    #[serde(default)]
    pub proven_optimal: bool,
}

impl PnlRealization {
    /// The report entry of one mapped PNL, from its back-end outcome
    /// and its simulation.
    pub(crate) fn new(
        desc: String,
        predicted_ii: u32,
        outcome: &BackendOutcome,
        sim: &PnlSim,
    ) -> Self {
        let mapping = &outcome.mapping;
        PnlRealization {
            desc,
            ii: mapping.ii,
            mii: mapping.mii,
            pro_epi: mapping.pro_epi(),
            predicted_ii,
            utilization: sim.utilization,
            cycles: sim.cycles,
            volume: sim.volume_bytes + sim.context_bytes,
            backend: outcome.backend.to_string(),
            ii_opt: outcome.ii_opt,
            heuristic_ii: outcome.heuristic_ii,
            proven_optimal: outcome.proven_optimal,
        }
    }
}

/// The result of a full PT-Map compilation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompileReport {
    /// Program name.
    pub program: String,
    /// Architecture name.
    pub arch: String,
    /// Ranking mode used.
    pub mode: RankMode,
    /// Total simulated cycles (all PNLs + non-PNL statements + stalls).
    pub cycles: u64,
    /// Total estimated energy in picojoules.
    pub energy_pj: f64,
    /// Energy-delay product (pJ·cycles).
    pub edp: f64,
    /// Per-PNL details.
    pub pnls: Vec<PnlRealization>,
    /// Candidates produced by the exploration.
    pub candidates_explored: usize,
    /// Candidates rejected by the CB/DB constraints.
    pub candidates_pruned: usize,
    /// Ranked choices tried before one was fully mappable.
    pub context_generation_attempts: usize,
    /// Wall-clock compilation time.
    pub compile_seconds: f64,
}

impl CompileReport {
    /// A copy with the wall-clock timing zeroed. Compilation results
    /// are deterministic; the clock is not. Identity comparisons (cache
    /// validation, serial-vs-parallel batch equivalence) compare this
    /// form.
    pub fn without_timing(&self) -> CompileReport {
        CompileReport {
            compile_seconds: 0.0,
            ..self.clone()
        }
    }
}

impl fmt::Display for CompileReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} on {} [{:?}]: {} cycles, {:.3e} pJ, EDP {:.3e} ({} PNLs, {:.2}s)",
            self.program,
            self.arch,
            self.mode,
            self.cycles,
            self.energy_pj,
            self.edp,
            self.pnls.len(),
            self.compile_seconds
        )?;
        for (i, p) in self.pnls.iter().enumerate() {
            writeln!(
                f,
                "  PNL {i}: II {} (MII {}, predicted {}), util {:.1}%, {} cycles — {}",
                p.ii,
                p.mii,
                p.predicted_ii,
                p.utilization * 100.0,
                p.cycles,
                p.desc
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_lists_pnls() {
        let r = CompileReport {
            program: "gemm".into(),
            arch: "S4".into(),
            mode: RankMode::Performance,
            cycles: 1000,
            energy_pj: 5.0e6,
            edp: 5.0e9,
            pnls: vec![PnlRealization {
                desc: "order+unroll".into(),
                ii: 5,
                mii: 4,
                pro_epi: 7,
                predicted_ii: 5,
                utilization: 0.25,
                cycles: 900,
                volume: 4096,
                backend: "heuristic".into(),
                ii_opt: None,
                heuristic_ii: None,
                proven_optimal: false,
            }],
            candidates_explored: 42,
            candidates_pruned: 3,
            context_generation_attempts: 1,
            compile_seconds: 0.5,
        };
        let s = r.to_string();
        assert!(s.contains("gemm on S4"));
        assert!(s.contains("II 5 (MII 4"));
    }
}
