//! Pluggable mapper backends.
//!
//! The mapper's search is factored behind the [`MapperBackend`] trait
//! so the iterative-modulo-scheduling heuristic
//! ([`crate::scheduler::Scheduler`], wrapped by [`HeuristicBackend`])
//! is one of several interchangeable searches over the same problem:
//! place every DFG node on an MRRG compute slot and route every data
//! edge through [`crate::router::route_value`]. The exact
//! branch-and-bound backend and the portfolio runner live in the
//! `ptmap-exact` crate (the trait lives here so `ptmap-exact` can
//! depend on `ptmap-mapper`, not the other way around); its
//! `map_with_backend` dispatches on [`MapperConfig::backend`].
//!
//! Contract for implementors:
//!
//! * **Same problem, same answers.** A backend must accept exactly the
//!   DFGs the heuristic accepts (reject empty graphs, unsupported ops,
//!   zero-distance cycles with the same [`MapError`] variants) and must
//!   only return mappings that pass [`crate::validate::validate`].
//! * **Cooperative cancellation.** Long searches must call
//!   [`ptmap_governor::Budget::check`] frequently enough that a
//!   `cancel()` or deadline expiry is observed within a bounded amount
//!   of work, returning [`MapError::Cancelled`] / [`MapError::Timeout`].
//! * **Determinism.** Given the same config (including seed), a backend
//!   must produce bit-identical mappings run to run. Optimality claims
//!   ([`BackendOutcome::proven_optimal`]) are stated relative to the
//!   shared deterministic routing oracle — see DESIGN.md's "Mapper
//!   backends & portfolio" section.

use crate::config::MapperConfig;
use crate::error::MapError;
use crate::mapping::{Mapping, Placement, ProducerRoutes, RoutePos};
use crate::state::State;
use ptmap_arch::CgraArch;
use ptmap_governor::Budget;
use ptmap_ir::Dfg;
use ptmap_trace::Tracer;
use std::fmt;
use std::str::FromStr;

/// Which search produces mappings; selected by
/// [`MapperConfig::backend`] and dispatched by `ptmap-exact`'s
/// `map_with_backend`. Serializes as its lowercase name (manual serde
/// impls below — the canonical wire form is the same string the CLI
/// flag and the `X-Ptmap-Quality` header use).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// The randomized iterative-modulo-scheduling heuristic (fast,
    /// no optimality information beyond `ii == mii`).
    #[default]
    Heuristic,
    /// Branch-and-bound exact search: warm-started by the heuristic,
    /// then proves each II below the achieved one infeasible (or finds
    /// a better mapping).
    Exact,
    /// Heuristic and exact raced on separate threads under
    /// `Budget::scoped_child`; losers are cancelled when a winner
    /// lands.
    Portfolio,
}

impl BackendKind {
    /// The canonical lowercase name, matching CLI flag values, trace
    /// span attributes, and the `X-Ptmap-Quality` header.
    pub fn as_str(self) -> &'static str {
        match self {
            BackendKind::Heuristic => "heuristic",
            BackendKind::Exact => "exact",
            BackendKind::Portfolio => "portfolio",
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "heuristic" => Ok(BackendKind::Heuristic),
            "exact" => Ok(BackendKind::Exact),
            "portfolio" => Ok(BackendKind::Portfolio),
            other => Err(format!(
                "unknown backend '{other}' (expected heuristic, exact, or portfolio)"
            )),
        }
    }
}

impl serde::Serialize for BackendKind {
    fn serialize(&self) -> serde::Value {
        serde::Value::Str(self.as_str().to_string())
    }
}

impl serde::Deserialize for BackendKind {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::DeError> {
        let s = v
            .as_str()
            .ok_or_else(|| serde::DeError::new("backend: expected string"))?;
        s.parse().map_err(|e: String| serde::DeError::new(&e))
    }
}

/// A mapping plus the optimality evidence the producing search has.
#[derive(Debug, Clone)]
pub struct BackendOutcome {
    /// The winning mapping.
    pub mapping: Mapping,
    /// Canonical name of the search that produced `mapping` (in
    /// portfolio mode: the winner, not the configured backend).
    pub backend: &'static str,
    /// The proven-optimal II, when known: equals `mapping.ii` when the
    /// search proved every smaller II infeasible (or `ii == mii`).
    pub ii_opt: Option<u32>,
    /// The II the heuristic search achieved, when it ran and succeeded
    /// (always set for the plain heuristic; the warm start for exact;
    /// the heuristic arm for portfolio). `heuristic_ii - ii_opt` is the
    /// measured heuristic optimality gap when both are known.
    pub heuristic_ii: Option<u32>,
    /// Whether `mapping.ii` is proven optimal (relative to the shared
    /// routing oracle; see the module docs).
    pub proven_optimal: bool,
    /// Branch-and-bound steps spent by the exact search (0 for the
    /// plain heuristic).
    pub exact_steps: u64,
    /// How many losing portfolio arms were cancelled (0 outside
    /// portfolio mode).
    pub losers_cancelled: u32,
}

/// A search strategy that maps DFGs onto CGRAs. See the module docs
/// for the contract.
pub trait MapperBackend {
    /// The canonical backend name ([`BackendKind::as_str`] of the kind
    /// it implements).
    fn name(&self) -> &'static str;

    /// Maps `dfg` onto `arch`, reporting optimality evidence alongside
    /// the mapping.
    ///
    /// # Errors
    ///
    /// As [`crate::map_dfg_traced`].
    fn map(
        &self,
        dfg: &Dfg,
        arch: &CgraArch,
        config: &MapperConfig,
        budget: &Budget,
        tracer: &Tracer,
    ) -> Result<BackendOutcome, MapError>;
}

/// The existing iterative-modulo-scheduling stack as a backend. This
/// is a pure dispatch wrapper around [`crate::map_dfg_traced`], so
/// fixed-seed mappings are bit-identical to direct calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct HeuristicBackend;

impl MapperBackend for HeuristicBackend {
    fn name(&self) -> &'static str {
        BackendKind::Heuristic.as_str()
    }

    fn map(
        &self,
        dfg: &Dfg,
        arch: &CgraArch,
        config: &MapperConfig,
        budget: &Budget,
        tracer: &Tracer,
    ) -> Result<BackendOutcome, MapError> {
        let mapping = crate::map_dfg_traced(dfg, arch, config, budget, tracer)?;
        // Landing on the MII is the one optimality certificate the
        // heuristic gets for free: the MII is a valid lower bound.
        let proven_optimal = mapping.ii == mapping.mii;
        Ok(BackendOutcome {
            ii_opt: proven_optimal.then_some(mapping.ii),
            heuristic_ii: Some(mapping.ii),
            backend: self.name(),
            proven_optimal,
            exact_steps: 0,
            losers_cancelled: 0,
            mapping,
        })
    }
}

/// Assembles the final [`Mapping`] artifact from a complete search
/// [`State`] — the one assembly path shared by every backend, so
/// exact- and heuristic-produced mappings are structurally identical
/// for the same placement and routes. Takes `st.routes` out of the
/// state; callers must be done searching.
pub fn assemble_mapping(dfg: &Dfg, arch: &CgraArch, mii: u32, ii: u32, st: &mut State) -> Mapping {
    let mut placements = Vec::with_capacity(dfg.len());
    let mut t_min = u32::MAX;
    let mut t_max_end = 0u32;
    let mut pes = std::collections::BTreeSet::new();
    for (i, p) in st.place.iter().enumerate() {
        let (pe, t) = p.expect("all nodes placed");
        placements.push(Placement {
            node: ptmap_ir::NodeId(i as u32),
            pe,
            time: t,
        });
        t_min = t_min.min(t);
        t_max_end = t_max_end.max(t + dfg.nodes()[i].latency());
        pes.insert(pe);
    }
    let schedule_length = (t_max_end - t_min).max(ii);
    let route_trees = st
        .trees
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_empty())
        .map(|(i, t)| ProducerRoutes {
            producer: ptmap_ir::NodeId(i as u32),
            positions: t
                .positions()
                .iter()
                .map(|&(slot, cycle, claims)| RoutePos {
                    slot,
                    cycle,
                    claims,
                })
                .collect(),
        })
        .collect();
    Mapping {
        ii,
        mii,
        schedule_length,
        placements,
        route_slots: st.route_slots,
        routes: std::mem::take(&mut st.routes),
        route_trees,
        pes_used: pes.len() as u32,
        pe_count: arch.pe_count() as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_kind_round_trips_names() {
        for kind in [
            BackendKind::Heuristic,
            BackendKind::Exact,
            BackendKind::Portfolio,
        ] {
            assert_eq!(kind.as_str().parse::<BackendKind>(), Ok(kind));
            let json = serde_json::to_string(&kind).unwrap();
            assert_eq!(json, format!("\"{kind}\""));
            assert_eq!(serde_json::from_str::<BackendKind>(&json).unwrap(), kind);
        }
        assert!("sat".parse::<BackendKind>().is_err());
    }

    #[test]
    fn config_without_backend_field_defaults_to_heuristic() {
        // Pre-refactor serialized configs must keep parsing (cache
        // entries, serve requests).
        let json = r#"{"max_ii":20,"effort":1,"seed":5,"share_routes":true}"#;
        let cfg: MapperConfig = serde_json::from_str(json).unwrap();
        assert_eq!(cfg.backend, BackendKind::Heuristic);
        assert!(cfg.exact_steps_per_ii > 0);
    }

    #[test]
    fn backend_choice_changes_serialized_config() {
        // The pipeline cache key hashes the serialized config, so two
        // backends must never serialize identically.
        let heur = serde_json::to_string(&MapperConfig::default()).unwrap();
        let exact =
            serde_json::to_string(&MapperConfig::default().with_backend(BackendKind::Exact))
                .unwrap();
        assert_ne!(heur, exact);
    }
}
