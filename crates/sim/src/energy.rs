//! Energy and EDP estimation.
//!
//! Per-component energy constants in picojoules, in the range of
//! published 45 nm CGRA numbers. Only *ratios* between mappings matter
//! for the reproduction (EDP reductions), so the constants are chosen for
//! plausible relative weight: off-chip traffic is ~an order of magnitude
//! costlier per word than a PE operation, which is what makes the
//! data-access-aware Pareto mode of PT-Map pay off.

use ptmap_ir::{Dfg, OpClass, OpKind};
use ptmap_mapper::Mapping;
use ptmap_model::MemoryProfile;
use serde::{Deserialize, Serialize};

/// Energy model with per-component constants (pJ).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// Energy of one arithmetic ALU operation.
    pub alu_pj: f64,
    /// Energy of one multiply (wider datapath activity).
    pub mul_pj: f64,
    /// Energy of one divide.
    pub div_pj: f64,
    /// Energy of one logic/compare operation.
    pub logic_pj: f64,
    /// Energy of one DB load or store.
    pub mem_pj: f64,
    /// Energy of one constant materialization or routed move.
    pub move_pj: f64,
    /// Energy of holding/moving one value through one routing residency.
    pub route_pj: f64,
    /// Context fetch energy per PE per cycle.
    pub context_pj: f64,
    /// Static/leakage energy per PE per cycle.
    pub static_pj: f64,
    /// Off-CGRA access energy per byte (CACTI-style DRAM/L2 figure).
    pub offchip_pj_per_byte: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            alu_pj: 2.0,
            mul_pj: 6.0,
            div_pj: 12.0,
            logic_pj: 1.5,
            mem_pj: 8.0,
            move_pj: 0.5,
            route_pj: 0.6,
            context_pj: 0.3,
            static_pj: 0.15,
            offchip_pj_per_byte: 30.0,
        }
    }
}

impl EnergyModel {
    /// Energy of one operation instance.
    pub fn op_energy(&self, op: OpKind) -> f64 {
        match op {
            OpKind::Mul => self.mul_pj,
            OpKind::Div => self.div_pj,
            _ => match op.class() {
                OpClass::Arithmetic => self.alu_pj,
                OpClass::Logic => self.logic_pj,
                OpClass::Memory => self.mem_pj,
                OpClass::Move => self.move_pj,
            },
        }
    }

    /// Total energy (pJ) of executing a mapped PNL's body `iterations`
    /// times in the given simulated cycle count. Unrolled bodies execute
    /// fewer, larger iterations; [`crate::simulate_pnl`] passes the
    /// effective (post-unroll) count.
    pub fn pnl_energy_with_iterations(
        &self,
        mapping: &Mapping,
        dfg: &Dfg,
        iterations: u64,
        profile: &MemoryProfile,
        cycles: u64,
    ) -> f64 {
        let iterations = iterations as f64;
        let per_iter_ops: f64 = dfg.nodes().iter().map(|n| self.op_energy(n.op)).sum();
        let per_iter_routes = mapping.route_slots as f64 * self.route_pj;
        let per_cycle = mapping.pe_count as f64 * (self.context_pj + self.static_pj);
        let offchip =
            (profile.volume_bytes + profile.context_bytes) as f64 * self.offchip_pj_per_byte;
        (per_iter_ops + per_iter_routes) * iterations + per_cycle * cycles as f64 + offchip
    }

    /// Energy-delay product in pJ·cycles.
    pub fn edp(&self, energy_pj: f64, cycles: u64) -> f64 {
        energy_pj * cycles as f64
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

    #[test]
    fn op_energy_ordering() {
        let m = EnergyModel::default();
        assert!(m.op_energy(OpKind::Load) > m.op_energy(OpKind::Add));
        assert!(m.op_energy(OpKind::Mul) > m.op_energy(OpKind::Add));
        assert!(m.op_energy(OpKind::Route) < m.op_energy(OpKind::Add));
    }

    #[test]
    fn offchip_traffic_dominates_when_thrashing() {
        // Two profiles differing only in volume: higher volume -> higher
        // energy, disproportionately.
        let mut b = ProgramBuilder::new("k");
        let x = b.array("X", &[256]);
        let i = b.open_loop("i", 256);
        let v = b.add(b.load(x, &[b.idx(i)]), b.constant(1));
        b.store(x, &[b.idx(i)], v);
        b.close_loop();
        let p = b.finish();
        let nest = p.perfect_nests().remove(0);
        let dfg = build_dfg(&p, &nest, &[]).unwrap();
        let arch = presets::s4();
        let mapping = map_dfg(&dfg, &arch, &MapperConfig::default()).unwrap();
        let prof = MemoryProfiler::new(&p).profile(&nest, &arch, mapping.ii);
        let model = EnergyModel::default();
        let cycles = mapping.cycles(256);
        let e1 = model.pnl_energy_with_iterations(
            &mapping,
            &dfg,
            nest.total_iterations(),
            &prof,
            cycles,
        );
        let mut thrash = prof;
        thrash.volume_bytes *= 10;
        let e2 = model.pnl_energy_with_iterations(
            &mapping,
            &dfg,
            nest.total_iterations(),
            &thrash,
            cycles,
        );
        assert!(e2 > e1 * 1.5, "e2 {e2} vs e1 {e1}");
    }

    #[test]
    fn edp_is_product() {
        let m = EnergyModel::default();
        assert_eq!(m.edp(10.0, 5), 50.0);
    }
}
