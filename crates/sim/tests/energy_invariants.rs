//! Energy-model invariants across workloads and architectures.

use ptmap_arch::presets;
use ptmap_ir::dfg::build_dfg;
use ptmap_mapper::{map_dfg, MapperConfig};
use ptmap_model::MemoryProfiler;
use ptmap_sim::{simulate_pnl, EnergyModel};

#[test]
fn energy_scales_with_iterations() {
    let mut b = ptmap_ir::ProgramBuilder::new("k");
    let x = b.array("X", &[2048]);
    let i = b.open_loop("i", 2048);
    let v = b.add(b.load(x, &[b.idx(i)]), b.constant(1));
    b.store(x, &[b.idx(i)], v);
    b.close_loop();
    let p = b.finish();
    let nest = p.perfect_nests().remove(0);
    let dfg = build_dfg(&p, &nest, &[]).unwrap();
    let arch = presets::s4();
    let m = map_dfg(&dfg, &arch, &MapperConfig::default()).unwrap();
    let prof = MemoryProfiler::new(&p).profile(&nest, &arch, m.ii);
    let model = EnergyModel::default();
    let e_small = model.pnl_energy_with_iterations(&m, &dfg, 100, &prof, m.cycles(100));
    let e_large = model.pnl_energy_with_iterations(&m, &dfg, 1000, &prof, m.cycles(1000));
    // The off-chip term is workload-constant; the dynamic part must
    // scale linearly with iterations.
    assert!(e_large > e_small, "energy must grow with iterations");
    let dynamic_small =
        e_small - (prof.volume_bytes + prof.context_bytes) as f64 * model.offchip_pj_per_byte;
    let dynamic_large =
        e_large - (prof.volume_bytes + prof.context_bytes) as f64 * model.offchip_pj_per_byte;
    assert!((dynamic_large / dynamic_small - 10.0).abs() < 1.5);
}

#[test]
fn every_app_energy_positive_and_finite() {
    let model = EnergyModel::default();
    for (name, p) in ptmap_workloads::apps::all() {
        for nest in p.perfect_nests() {
            let dfg = build_dfg(&p, &nest, &[]).unwrap();
            let arch = presets::s4();
            let m = map_dfg(&dfg, &arch, &MapperConfig::default())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let prof = MemoryProfiler::new(&p).profile(&nest, &arch, m.ii);
            let sim = simulate_pnl(&m, &dfg, &nest, &[], &prof, &model);
            let e = sim.energy_pj;
            assert!(e.is_finite() && e > 0.0, "{name}: energy {e}");
            assert!(model.edp(e, sim.cycles) > 0.0);
        }
    }
}

#[test]
fn offchip_constant_dominates_compute_per_word() {
    // Moving a word off-chip must cost more than computing on it — the
    // premise of data-access-aware optimization (Fig. 8).
    let m = EnergyModel::default();
    assert!(m.offchip_pj_per_byte * 4.0 > m.mul_pj + m.mem_pj);
}
