//! Cycle-level execution and energy models for mapped CGRA kernels.
//!
//! The paper evaluates performance on a cycle-accurate simulator and
//! energy on synthesized power numbers plus CACTI for off-chip accesses.
//! This crate is the reproduction's stand-in (see DESIGN.md): it executes
//! a [`ptmap_mapper::Mapping`] against the paper's cycle formulas plus a
//! DB-bandwidth stall model, and prices energy with per-component
//! constants calibrated to typical 45 nm CGRA publications. Absolute
//! joules are not meaningful; *ratios* between mappers are, because they
//! derive from relative cycle counts and traffic volumes.
//!
//! # Example
//!
//! ```
//! use ptmap_ir::{ProgramBuilder, dfg::build_dfg};
//! use ptmap_arch::presets;
//! use ptmap_mapper::{map_dfg, MapperConfig};
//! use ptmap_model::MemoryProfiler;
//! use ptmap_sim::{simulate_pnl, EnergyModel};
//!
//! let mut b = ProgramBuilder::new("scale");
//! let x = b.array("X", &[1024]);
//! let i = b.open_loop("i", 1024);
//! let v = b.mul(b.load(x, &[b.idx(i)]), b.constant(3));
//! b.store(x, &[b.idx(i)], v);
//! b.close_loop();
//! let p = b.finish();
//! let nest = p.perfect_nests().remove(0);
//! let dfg = build_dfg(&p, &nest, &[]).unwrap();
//! let arch = presets::s4();
//! let mapping = map_dfg(&dfg, &arch, &MapperConfig::default())?;
//! let profile = MemoryProfiler::new(&p).profile(&nest, &arch, mapping.ii);
//!
//! let sim = simulate_pnl(&mapping, &dfg, &nest, &[], &profile, &EnergyModel::default());
//! assert!(sim.cycles >= 1024);
//! assert!(sim.energy_pj > 0.0);
//! # Ok::<(), ptmap_mapper::MapError>(())
//! ```

pub mod dataflow;
pub mod energy;
pub mod exec;

pub use dataflow::execute_mapped_nest;
pub use energy::EnergyModel;
pub use exec::{simulate_pnl, verify_mapping, PnlSim};
