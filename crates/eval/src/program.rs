//! Program-level evaluation and selection (Eqn. 5, Fig. 5c).

use crate::pnl::PnlRanking;
use crate::rank::{hypervolume, pareto_reference, RankMode};
use crate::EvalConfig;
use ptmap_ir::{Node, Program};
use ptmap_transform::FusionMode;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// An evaluated program variant.
#[derive(Debug, Clone)]
pub struct EvaluatedVariant {
    /// The restructured program.
    pub program: Arc<Program>,
    /// The fusion heuristic that produced it.
    pub fusion: FusionMode,
    /// Per-PNL rankings.
    pub rankings: Vec<PnlRanking>,
}

/// All evaluated variants of a program.
#[derive(Debug, Clone)]
pub struct EvaluatedForest {
    /// The variants.
    pub variants: Vec<EvaluatedVariant>,
}

/// A program-level choice: one candidate per PNL of one variant.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProgramChoice {
    /// Index of the variant in the forest.
    pub variant: usize,
    /// Chosen candidate index per PNL: into `rankings[i].evaluated`,
    /// and equally into the explored forest's
    /// `variants[variant].pnl_candidates[i]`.
    pub selection: Vec<usize>,
    /// Program-level cycles (Eqn. 5 plus non-PNL statement cycles).
    pub cycles: u64,
    /// Program-level off-CGRA volume.
    pub volume: u64,
}

/// Cycles spent in statements outside any PNL, computed statically from
/// tripcounts (insight 1 of Section 3.3: no pipelining there, one
/// operation per cycle on the host/controller side).
pub fn non_pnl_cycles(program: &Program) -> u64 {
    // Collect the statement ids inside PNLs.
    let mut pnl_stmts = std::collections::BTreeSet::new();
    for nest in program.perfect_nests() {
        for s in &nest.stmts {
            pnl_stmts.insert(s.id);
        }
    }
    fn rec(
        nodes: &[Node],
        trip: u64,
        pnl_stmts: &std::collections::BTreeSet<ptmap_ir::StmtId>,
    ) -> u64 {
        let mut total = 0;
        for n in nodes {
            match n {
                Node::Stmt(s) if !pnl_stmts.contains(&s.id) => {
                    total += trip * (s.value.op_count() as u64 + 1);
                }
                Node::Stmt(_) => {}
                Node::Loop(l) => {
                    total += rec(&l.body, trip * l.tripcount, pnl_stmts);
                }
            }
        }
        total
    }
    rec(&program.roots, 1, &pnl_stmts)
}

/// Combines per-PNL top-K selections into ranked program-level choices
/// for the requested mode.
pub fn select_programs(
    forest: &EvaluatedForest,
    mode: RankMode,
    config: &EvalConfig,
) -> Vec<ProgramChoice> {
    let mut choices: Vec<ProgramChoice> = Vec::new();
    for (vi, variant) in forest.variants.iter().enumerate() {
        let extra = non_pnl_cycles(&variant.program);
        // Per-PNL shortlists in the requested mode.
        let shortlists: Vec<&[usize]> = variant
            .rankings
            .iter()
            .map(|r| match mode {
                RankMode::Performance => &r.performance[..],
                RankMode::Pareto => &r.pareto[..],
            })
            .collect();
        if shortlists.iter().any(|s| s.is_empty()) {
            continue; // some PNL has no mappable candidate in this variant
        }
        // Enumerate the (capped) cartesian product of shortlists.
        let caps: Vec<usize> = shortlists
            .iter()
            .map(|s| s.len().min(config.combine_k.max(1)))
            .collect();
        let total: usize = caps.iter().product();
        for combo in 0..total.min(1024) {
            let mut rem = combo;
            let mut selection = Vec::with_capacity(shortlists.len());
            let mut cycles = extra;
            let mut volume = 0u64;
            for (s, &cap) in shortlists.iter().zip(&caps) {
                let pick = s[rem % cap];
                rem /= cap;
                let e = &forest.variants[vi].rankings[selection.len()].evaluated[pick];
                selection.push(pick);
                cycles = cycles.saturating_add(e.cycles);
                volume = volume.saturating_add(e.volume);
            }
            choices.push(ProgramChoice {
                variant: vi,
                selection,
                cycles,
                volume,
            });
        }
    }
    // Rank program-level choices.
    match mode {
        RankMode::Performance => choices.sort_by_key(|c| (c.cycles, c.volume)),
        RankMode::Pareto => {
            let pts: Vec<(u64, u64)> = choices.iter().map(|c| (c.cycles, c.volume)).collect();
            let reference = pareto_reference(&pts);
            choices
                .sort_by_key(|c| std::cmp::Reverse(hypervolume((c.cycles, c.volume), reference)));
        }
    }
    choices.truncate(config.top_k);
    choices
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pnl::evaluate_forest;
    use crate::predictor::AnalyticalPredictor;
    use ptmap_arch::presets;
    use ptmap_transform::{explore, ExploreConfig};

    #[test]
    fn non_pnl_cycles_counts_imperfect_statements() {
        // trisolv has statements directly under the imperfect i loop.
        let p = ptmap_workloads::apps::trisolv();
        let extra = non_pnl_cycles(&p);
        assert!(extra > 0);
        // A fully perfect program has none.
        let g = ptmap_workloads::micro::gemm(16);
        assert_eq!(non_pnl_cycles(&g), 0);
    }

    #[test]
    fn program_selection_end_to_end() {
        let p = ptmap_workloads::apps::atax();
        let forest = explore(&p, &ExploreConfig::quick());
        let arch = presets::s4();
        let eval = evaluate_forest(&forest, &arch, &AnalyticalPredictor, &EvalConfig::default());
        let perf = select_programs(&eval, RankMode::Performance, &EvalConfig::default());
        assert!(!perf.is_empty());
        // Performance list is sorted.
        for w in perf.windows(2) {
            assert!(w[0].cycles <= w[1].cycles);
        }
        let pareto = select_programs(&eval, RankMode::Pareto, &EvalConfig::default());
        assert!(!pareto.is_empty());
    }

    #[test]
    fn selections_index_valid_candidates() {
        let p = ptmap_workloads::micro::gemm(32);
        let forest = explore(&p, &ExploreConfig::quick());
        let eval = evaluate_forest(
            &forest,
            &presets::sl8(),
            &AnalyticalPredictor,
            &EvalConfig::default(),
        );
        for choice in select_programs(&eval, RankMode::Performance, &EvalConfig::default()) {
            let v = &eval.variants[choice.variant];
            assert_eq!(choice.selection.len(), v.rankings.len());
            for (pnl, &sel) in choice.selection.iter().enumerate() {
                assert!(v.rankings[pnl].evaluated[sel].pruned.is_none());
            }
        }
    }
}
