//! Mapper configuration.

use crate::backend::BackendKind;
use serde::{Deserialize, Serialize};

/// Tuning knobs of the modulo scheduler.
///
/// The defaults model the paper's RAMP setup (max II 20). `effort`
/// scales the per-II attempt and candidate budgets; the baselines
/// (`ptmap_bench::baselines`) raise it to emulate the stronger learned
/// schedulers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MapperConfig {
    /// Largest initiation interval to try (paper: 20).
    pub max_ii: u32,
    /// Search effort multiplier (≥ 1). Scales restarts per II and the
    /// number of placement candidates examined per operation.
    pub effort: u32,
    /// RNG seed for the randomized placement order perturbations.
    pub seed: u64,
    /// Share route trees across a value's consumers (RAMP-style
    /// resource-aware routing). Disabling routes every fanout edge
    /// independently — an ablation knob; see DESIGN.md.
    pub share_routes: bool,
    /// Run the post-hoc invariant validator ([`crate::validate`]) on
    /// every mapping [`crate::map_dfg`] produces, turning silent route
    /// mis-accounting into a hard [`crate::MapError::BrokenInvariant`].
    /// Off by default (it costs an extra pass per accepted mapping);
    /// the `PTMAP_VALIDATE` environment variable force-enables it
    /// regardless of this flag (set in CI).
    #[serde(default)]
    pub validate: bool,
    /// Which search backend produces the mapping (see
    /// [`crate::backend`]). The heuristic scheduler is the default; the
    /// exact and portfolio backends live in the `ptmap-exact` crate and
    /// are dispatched by its `map_with_backend`. Serialized, so the
    /// pipeline cache key differs per backend by construction.
    #[serde(default)]
    pub backend: BackendKind,
    /// Deterministic cap on branch-and-bound steps (placement
    /// candidates examined) per candidate II for the exact backend.
    /// Hitting the cap downgrades an infeasibility proof to
    /// "exhausted" — the sweep stops claiming optimality but still
    /// returns the best mapping found.
    #[serde(default = "default_exact_steps_per_ii")]
    pub exact_steps_per_ii: u64,
}

fn default_exact_steps_per_ii() -> u64 {
    2_000_000
}

impl Default for MapperConfig {
    fn default() -> Self {
        MapperConfig {
            max_ii: 20,
            effort: 1,
            seed: 0xC6_4A,
            share_routes: true,
            validate: false,
            backend: BackendKind::Heuristic,
            exact_steps_per_ii: default_exact_steps_per_ii(),
        }
    }
}

impl MapperConfig {
    /// A configuration with a different effort level.
    pub fn with_effort(mut self, effort: u32) -> Self {
        self.effort = effort.max(1);
        self
    }

    /// A configuration with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// A configuration with the invariant validator enabled.
    pub fn with_validation(mut self, validate: bool) -> Self {
        self.validate = validate;
        self
    }

    /// A configuration with a different search backend.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Placement restarts attempted per candidate II.
    pub fn restarts_per_ii(&self) -> u32 {
        3 + self.effort
    }

    /// Placement candidates ((pe, t) pairs) examined per operation before
    /// the attempt is abandoned.
    pub fn candidates_per_op(&self) -> usize {
        (96 * self.effort) as usize
    }

    /// Whether to keep searching at a feasible II for a schedule with a
    /// shorter fill/drain (higher-effort schedulers polish ProEpi, which
    /// multiplies across pipeline launches).
    pub fn polish_schedule(&self) -> bool {
        self.effort >= 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_max_ii() {
        assert_eq!(MapperConfig::default().max_ii, 20);
    }

    #[test]
    fn effort_scales_budgets() {
        let base = MapperConfig::default();
        let hi = MapperConfig::default().with_effort(4);
        assert!(hi.restarts_per_ii() > base.restarts_per_ii());
        assert!(hi.candidates_per_op() > base.candidates_per_op());
    }

    #[test]
    fn effort_floor_is_one() {
        assert_eq!(MapperConfig::default().with_effort(0).effort, 1);
    }
}
