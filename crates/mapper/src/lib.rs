//! A RAMP-like modulo-scheduling mapper for CGRAs.
//!
//! Given a [`ptmap_ir::Dfg`] (one iteration of a pipelined loop) and a
//! [`ptmap_arch::CgraArch`], the mapper searches for the smallest
//! initiation interval at which every operation can be *placed* on a PE
//! time slot and every data edge *routed* through the time-extended
//! [`ptmap_arch::Mrrg`] — the resource-aware formulation of RAMP, the
//! loop-scheduling back-end the paper uses for every compared method.
//!
//! The search is iterative modulo scheduling: starting from the minimum
//! II (`max(ResMII, RecMII)`, see [`mod@mii`]), each candidate II gets a
//! bounded number of randomized placement attempts before escalating.
//! The [`MapperConfig::effort`] knob controls those budgets; the
//! baselines crate uses a higher effort to model the stronger GNN/RL
//! schedulers (LISA, MapZero) the paper compares against.
//!
//! # Example
//!
//! ```
//! use ptmap_ir::{ProgramBuilder, dfg::build_dfg};
//! use ptmap_arch::presets;
//! use ptmap_mapper::{map_dfg, MapperConfig};
//!
//! let mut b = ProgramBuilder::new("vadd");
//! let x = b.array("X", &[256]);
//! let y = b.array("Y", &[256]);
//! let i = b.open_loop("i", 256);
//! let v = b.add(b.load(x, &[b.idx(i)]), b.load(y, &[b.idx(i)]));
//! b.store(y, &[b.idx(i)], v);
//! b.close_loop();
//! let p = b.finish();
//! let nest = p.perfect_nests().remove(0);
//! let dfg = build_dfg(&p, &nest, &[]).unwrap();
//!
//! let mapping = map_dfg(&dfg, &presets::s4(), &MapperConfig::default())?;
//! assert!(mapping.ii >= 1);
//! # Ok::<(), ptmap_mapper::MapError>(())
//! ```

pub mod backend;
pub mod config;
pub mod context;
pub mod error;
pub mod mapping;
pub mod mii;
pub mod router;
pub mod scheduler;
pub mod state;
pub mod validate;

pub use backend::{BackendKind, BackendOutcome, HeuristicBackend, MapperBackend};
pub use config::MapperConfig;
pub use context::{generate_contexts, ContextImage, ContextWord};
pub use error::MapError;
pub use mapping::{Mapping, OperandSource, Placement, ProducerRoutes, RoutePos, RouteRecord};
pub use mii::{mii, rec_mii, res_mii, try_rec_mii};
pub use validate::{validate, Violation};

use ptmap_arch::CgraArch;
use ptmap_ir::Dfg;

/// Whether [`map_dfg`] should run the invariant validator: the config
/// flag, or the `PTMAP_VALIDATE` environment variable (any value except
/// `0`) to force it on process-wide — CI sets the variable so every
/// mapping produced by the test suite is checked.
pub fn validation_enabled(config: &MapperConfig) -> bool {
    config.validate
        || std::env::var_os("PTMAP_VALIDATE").is_some_and(|v| !v.is_empty() && v != *"0")
}

/// Maps a DFG onto an architecture, returning the mapping artifact.
///
/// When validation is enabled (see [`validation_enabled`]) the mapping
/// is checked against every structural invariant before being returned.
///
/// # Errors
///
/// Returns [`MapError::UnsupportedOp`] if some operation is supported by
/// no PE, [`MapError::EmptyDfg`] for an empty graph,
/// [`MapError::ZeroDistanceCycle`] for a dependence cycle no II can
/// satisfy, [`MapError::Infeasible`] when no II up to `config.max_ii`
/// admits a complete placement and routing, and
/// [`MapError::BrokenInvariant`] (a mapper bug) when the validator
/// rejects a produced mapping.
pub fn map_dfg(dfg: &Dfg, arch: &CgraArch, config: &MapperConfig) -> Result<Mapping, MapError> {
    map_dfg_traced(
        dfg,
        arch,
        config,
        &ptmap_governor::Budget::unlimited(),
        &ptmap_trace::Tracer::disabled(),
    )
}

/// [`map_dfg`] under a cooperative [`ptmap_governor::Budget`] and with
/// span-tree instrumentation.
///
/// The II escalation loop checks the budget per restart and per node
/// placement, returning [`MapError::Timeout`] / [`MapError::Cancelled`]
/// promptly when it runs out. An unlimited budget is free; a
/// deadline-free cancellable budget costs one relaxed atomic load per
/// check. One `ii_attempt` span per candidate II is recorded under
/// `tracer`, carrying restart, placement-backtrack, BFS-expansion, and
/// route-failure counters (see [`scheduler::Scheduler::run`]). A
/// disabled tracer costs nothing; an enabled one never changes the
/// produced mapping.
///
/// # Errors
///
/// Everything [`map_dfg`] returns, plus [`MapError::Timeout`] and
/// [`MapError::Cancelled`] from the budget.
pub fn map_dfg_traced(
    dfg: &Dfg,
    arch: &CgraArch,
    config: &MapperConfig,
    budget: &ptmap_governor::Budget,
    tracer: &ptmap_trace::Tracer,
) -> Result<Mapping, MapError> {
    let m = scheduler::Scheduler::new(dfg, arch, config)?.run(budget, tracer)?;
    if validation_enabled(config) {
        validate::validate(dfg, arch, &m).map_err(|v| MapError::BrokenInvariant(v.to_string()))?;
    }
    Ok(m)
}
