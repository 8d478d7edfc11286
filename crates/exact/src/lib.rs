//! Exact branch-and-bound CGRA mapping and the heuristic/exact
//! portfolio.
//!
//! `ptmap-mapper` defines the [`MapperBackend`] trait and the
//! heuristic backend; this crate adds the two searches that need more
//! machinery — [`ExactBackend`] (branch-and-bound over the shared
//! placement/routing state space, proving per-II infeasibility) and
//! [`PortfolioBackend`] (both searches raced under governor-cancelled
//! child budgets) — plus [`map_with_backend`], the dispatch entry
//! point the compile pipeline calls. Dispatch lives here rather than
//! in the mapper because the dependency arrow points this way:
//! `ptmap-exact` builds on the mapper's router, state, and validator.
//!
//! # Example
//!
//! ```
//! use ptmap_ir::{ProgramBuilder, dfg::build_dfg};
//! use ptmap_arch::presets;
//! use ptmap_mapper::{BackendKind, MapperConfig};
//!
//! let mut b = ProgramBuilder::new("vadd");
//! let x = b.array("X", &[64]);
//! let y = b.array("Y", &[64]);
//! let i = b.open_loop("i", 64);
//! let v = b.add(b.load(x, &[b.idx(i)]), b.load(y, &[b.idx(i)]));
//! b.store(y, &[b.idx(i)], v);
//! b.close_loop();
//! let p = b.finish();
//! let nest = p.perfect_nests().remove(0);
//! let dfg = build_dfg(&p, &nest, &[]).unwrap();
//!
//! let config = MapperConfig::default().with_backend(BackendKind::Exact);
//! let out = ptmap_exact::map_with_backend(
//!     &dfg,
//!     &presets::s4(),
//!     &config,
//!     &ptmap_governor::Budget::unlimited(),
//!     &ptmap_trace::Tracer::disabled(),
//! )?;
//! assert!(out.proven_optimal);
//! assert_eq!(out.ii_opt, Some(out.mapping.ii));
//! # Ok::<(), ptmap_mapper::MapError>(())
//! ```

mod bnb;
mod portfolio;

pub use bnb::ExactBackend;
pub use portfolio::PortfolioBackend;

use ptmap_arch::CgraArch;
use ptmap_governor::Budget;
use ptmap_ir::Dfg;
use ptmap_mapper::backend::{BackendKind, BackendOutcome, HeuristicBackend, MapperBackend};
use ptmap_mapper::error::MapError;
use ptmap_mapper::MapperConfig;
use ptmap_trace::Tracer;

/// Maps `dfg` with the backend selected by
/// [`MapperConfig::backend`] — the one dispatch point every consumer
/// (core pipeline, CLI, serve) goes through. With the default
/// heuristic backend this is a pure wrapper around
/// [`ptmap_mapper::map_dfg_traced`], so fixed-seed mappings are
/// bit-identical to direct mapper calls.
///
/// # Errors
///
/// As [`ptmap_mapper::map_dfg_traced`].
pub fn map_with_backend(
    dfg: &Dfg,
    arch: &CgraArch,
    config: &MapperConfig,
    budget: &Budget,
    tracer: &Tracer,
) -> Result<BackendOutcome, MapError> {
    backend_for(config.backend).map(dfg, arch, config, budget, tracer)
}

/// The backend implementation for a [`BackendKind`].
pub fn backend_for(kind: BackendKind) -> &'static dyn MapperBackend {
    match kind {
        BackendKind::Heuristic => &HeuristicBackend,
        BackendKind::Exact => &ExactBackend,
        BackendKind::Portfolio => &PortfolioBackend,
    }
}
