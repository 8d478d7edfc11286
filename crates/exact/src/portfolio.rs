//! The heuristic/exact portfolio: both searches raced on separate
//! threads under governor-cancellable child budgets.
//!
//! Cancellation protocol (see DESIGN.md, "Mapper backends &
//! portfolio"):
//!
//! * Each arm runs under its own [`Budget::scoped_child`], so the
//!   parent budget's deadline and cancellation propagate to both, and
//!   each arm can be cancelled individually without touching the
//!   parent.
//! * The heuristic arm publishes its achieved II into a shared upper
//!   bound the moment it lands, shrinking the exact arm's remaining
//!   sweep; if it lands *at the MII* the exact arm can neither improve
//!   nor prove anything new, so it is cancelled outright.
//! * The exact arm only ever finds a mapping after proving every
//!   smaller II infeasible (the sweep is bottom-up), so a find is
//!   always provably optimal — it cancels the heuristic arm.
//! * Ties go to the heuristic's mapping (deterministic output: the
//!   exact arm's find is only preferred at a strictly lower II).

use ptmap_arch::CgraArch;
use ptmap_governor::Budget;
use ptmap_ir::Dfg;
use ptmap_mapper::backend::{BackendOutcome, HeuristicBackend, MapperBackend};
use ptmap_mapper::error::MapError;
use ptmap_mapper::MapperConfig;
use ptmap_trace::Tracer;
use std::sync::atomic::{AtomicU32, Ordering};

use crate::bnb::{sweep, Problem, SweepEnd};

/// The portfolio backend: [`HeuristicBackend`] and the exact sweep
/// raced per compile; the heuristic answers fast, the exact arm
/// upgrades the answer to "proven optimal" (or a lower II) when it
/// finishes within budget.
#[derive(Debug, Default, Clone, Copy)]
pub struct PortfolioBackend;

impl MapperBackend for PortfolioBackend {
    fn name(&self) -> &'static str {
        "portfolio"
    }

    fn map(
        &self,
        dfg: &Dfg,
        arch: &CgraArch,
        config: &MapperConfig,
        budget: &Budget,
        tracer: &Tracer,
    ) -> Result<BackendOutcome, MapError> {
        // Structural validation once, before spawning anything, so both
        // arms see a well-formed problem and errors are deterministic.
        let p = Problem::new(dfg, arch, config)?;
        let start = p.mii.max(1);
        let max_ii = config.max_ii.max(start);
        let h_budget = budget.scoped_child(None);
        let e_budget = budget.scoped_child(None);
        let upper = AtomicU32::new(max_ii + 1);
        let cancels = AtomicU32::new(0);

        let (h_res, e_res) = std::thread::scope(|s| {
            let h_arm = s.spawn(|| {
                let r = HeuristicBackend.map(dfg, arch, config, &h_budget, tracer);
                if let Ok(out) = &r {
                    upper.fetch_min(out.mapping.ii, Ordering::AcqRel);
                    if out.mapping.ii == start && !e_budget.is_cancelled() {
                        // Landed at the MII: the exact arm can neither
                        // improve nor add a proof. Cancel it.
                        cancels.fetch_add(1, Ordering::Relaxed);
                        e_budget.cancel();
                    }
                }
                r
            });
            let e_arm = s.spawn(|| {
                let r = sweep(&p, &upper, &e_budget, tracer);
                if matches!(r, Ok(SweepEnd::Found { .. })) && !h_budget.is_cancelled() {
                    // A bottom-up find is provably optimal; the
                    // heuristic can only tie or lose. Cancel it.
                    cancels.fetch_add(1, Ordering::Relaxed);
                    h_budget.cancel();
                }
                r
            });
            (
                h_arm.join().expect("heuristic portfolio arm panicked"),
                e_arm.join().expect("exact portfolio arm panicked"),
            )
        });
        let losers_cancelled = cancels.load(Ordering::Relaxed);
        resolve(h_res, e_res, losers_cancelled, start, max_ii)
    }
}

/// Combines the two arms' results into one outcome. Pure so the
/// race-dependent combinations — several of which no deterministic
/// test can force through the real thread race — are directly
/// testable.
fn resolve(
    h_res: Result<BackendOutcome, MapError>,
    e_res: Result<SweepEnd, MapError>,
    losers_cancelled: u32,
    start: u32,
    max_ii: u32,
) -> Result<BackendOutcome, MapError> {
    match (h_res, e_res) {
        (Ok(h), Ok(SweepEnd::Found { mapping, steps })) => {
            if mapping.ii < h.mapping.ii {
                Ok(BackendOutcome {
                    ii_opt: Some(mapping.ii),
                    heuristic_ii: Some(h.mapping.ii),
                    backend: "exact",
                    proven_optimal: true,
                    exact_steps: steps,
                    losers_cancelled,
                    mapping: *mapping,
                })
            } else if mapping.ii == h.mapping.ii {
                // Tie: the exact arm proved everything below its find
                // infeasible, which covers the heuristic's II. Ties go
                // to the heuristic's mapping (deterministic output).
                Ok(BackendOutcome {
                    ii_opt: Some(h.mapping.ii),
                    heuristic_ii: Some(h.mapping.ii),
                    backend: "heuristic",
                    proven_optimal: true,
                    exact_steps: steps,
                    losers_cancelled,
                    mapping: h.mapping,
                })
            } else {
                // An exact find strictly *above* the heuristic's II
                // means the bottom-up sweep "proved" the heuristic's
                // II infeasible while the heuristic holds a validated
                // mapping at that very II — the canonical search space
                // missed a mapping it claims cannot exist. Surface the
                // contradiction instead of stamping `proven_optimal`
                // on it.
                Err(MapError::BrokenInvariant(format!(
                    "portfolio: exact bottom-up find at II {} contradicts the \
                     heuristic's validated mapping at II {} (the infeasibility \
                     proof for [{}, {}) cannot be sound)",
                    mapping.ii, h.mapping.ii, start, mapping.ii
                )))
            }
        }
        (Ok(h), Ok(SweepEnd::ProvenUpTo { next_ii, steps })) => {
            let proven = h.proven_optimal || next_ii >= h.mapping.ii;
            Ok(BackendOutcome {
                ii_opt: proven.then_some(h.mapping.ii),
                heuristic_ii: Some(h.mapping.ii),
                backend: "heuristic",
                proven_optimal: proven,
                exact_steps: steps,
                losers_cancelled,
                mapping: h.mapping,
            })
        }
        (Ok(h), Ok(SweepEnd::Exhausted { steps })) => Ok(BackendOutcome {
            ii_opt: h.ii_opt,
            heuristic_ii: Some(h.mapping.ii),
            backend: "heuristic",
            proven_optimal: h.proven_optimal,
            exact_steps: steps,
            losers_cancelled,
            mapping: h.mapping,
        }),
        (Ok(h), Err(e)) => match e {
            // The exact arm losing to cancellation or the deadline
            // is the portfolio working as intended.
            MapError::Cancelled | MapError::Timeout => Ok(BackendOutcome {
                ii_opt: h.ii_opt,
                heuristic_ii: Some(h.mapping.ii),
                backend: "heuristic",
                proven_optimal: h.proven_optimal,
                exact_steps: 0,
                losers_cancelled,
                mapping: h.mapping,
            }),
            // Anything else (a broken invariant) is a real bug.
            other => Err(other),
        },
        (Err(_), Ok(SweepEnd::Found { mapping, steps })) => Ok(BackendOutcome {
            ii_opt: Some(mapping.ii),
            heuristic_ii: None,
            backend: "exact",
            proven_optimal: true,
            exact_steps: steps,
            losers_cancelled,
            mapping: *mapping,
        }),
        (Err(h_err), Ok(SweepEnd::ProvenUpTo { next_ii, .. })) => {
            if next_ii > max_ii {
                // The exact arm proved the entire II range
                // infeasible — a definitive answer even when the
                // heuristic timed out.
                Err(MapError::Infeasible { mii: start, max_ii })
            } else {
                Err(h_err)
            }
        }
        (Err(h_err), _) => Err(h_err),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptmap_arch::presets;
    use ptmap_ir::{Dfg, OpKind};
    use ptmap_mapper::map_dfg;

    /// A real heuristic outcome plus a mapping to mutate: `resolve` is
    /// pure, so the race-ordering-dependent combinations are staged
    /// directly instead of through the (unforceable) thread race.
    fn fixtures() -> (BackendOutcome, ptmap_mapper::Mapping) {
        let mut dfg = Dfg::new();
        let a = dfg.add_node(OpKind::Add, None, None);
        let b = dfg.add_node(OpKind::Mul, None, None);
        let c = dfg.add_node(OpKind::Sub, None, None);
        dfg.add_edge(a, b, 0);
        dfg.add_edge(b, c, 0);
        dfg.add_edge(c, a, 1);
        let mapping = map_dfg(&dfg, &presets::s4(), &MapperConfig::default()).unwrap();
        let h = BackendOutcome {
            ii_opt: None,
            heuristic_ii: Some(mapping.ii),
            backend: "heuristic",
            proven_optimal: false,
            exact_steps: 0,
            losers_cancelled: 0,
            mapping: mapping.clone(),
        };
        (h, mapping)
    }

    #[test]
    fn exact_find_below_heuristic_wins_with_proof() {
        let (mut h, mut found) = fixtures();
        h.mapping.ii += 2;
        h.heuristic_ii = Some(h.mapping.ii);
        found.ii = h.mapping.ii - 1;
        let e = SweepEnd::Found {
            mapping: Box::new(found.clone()),
            steps: 9,
        };
        let out = resolve(Ok(h), Ok(e), 1, 1, 20).unwrap();
        assert_eq!(out.backend, "exact");
        assert!(out.proven_optimal);
        assert_eq!(out.ii_opt, Some(found.ii));
        assert_eq!(out.exact_steps, 9);
    }

    #[test]
    fn exact_find_tying_heuristic_keeps_heuristic_mapping() {
        let (h, found) = fixtures();
        let h_mapping = h.mapping.clone();
        let e = SweepEnd::Found {
            mapping: Box::new(found),
            steps: 4,
        };
        let out = resolve(Ok(h), Ok(e), 0, 1, 20).unwrap();
        assert_eq!(out.backend, "heuristic");
        assert!(out.proven_optimal);
        assert_eq!(out.ii_opt, Some(h_mapping.ii));
        assert_eq!(out.mapping, h_mapping);
    }

    #[test]
    fn exact_find_above_heuristic_is_a_broken_invariant_not_a_proof() {
        // Regression: this race outcome used to be folded into the tie
        // branch and labeled `proven_optimal: true` — but an exact find
        // strictly above the heuristic's II means the bottom-up sweep
        // "proved" infeasible an II the heuristic validly mapped.
        let (h, mut found) = fixtures();
        let h_ii = h.mapping.ii;
        found.ii += 1;
        let e = SweepEnd::Found {
            mapping: Box::new(found.clone()),
            steps: 4,
        };
        let err = resolve(Ok(h), Ok(e), 0, 1, 20).unwrap_err();
        let MapError::BrokenInvariant(msg) = err else {
            panic!("expected BrokenInvariant, got {err:?}");
        };
        assert!(msg.contains(&format!("II {}", found.ii)), "{msg}");
        assert!(msg.contains(&format!("II {h_ii}")), "{msg}");
    }
}
