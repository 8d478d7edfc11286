//! Perfectly nested loops (PNLs), the unit of CGRA pipelining.

use crate::expr::Stmt;
use crate::id::LoopId;
use crate::program::Loop;
use serde::{Deserialize, Serialize};

/// A perfectly nested loop extracted from a [`crate::Program`].
///
/// The innermost loop of a PNL is the *pipelined loop* executed on the
/// CGRA; the remaining loops of the nest (plus any imperfect outer loops
/// recorded in [`outer`](Self::outer)) are *temporally folded*: each of
/// their iterations re-launches the pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfectNest {
    /// Loops of the nest, outermost first. Never empty.
    pub loops: Vec<LoopId>,
    /// Tripcount of each loop in [`loops`](Self::loops).
    pub tripcounts: Vec<u64>,
    /// Names of the nest loops (diagnostics).
    pub names: Vec<String>,
    /// Imperfect enclosing loops `(id, tripcount)`, outermost first.
    /// Their tripcounts multiply the whole-nest cycle count.
    pub outer: Vec<(LoopId, u64)>,
    /// The straight-line statements of the innermost body.
    pub stmts: Vec<Stmt>,
}

impl PerfectNest {
    /// Builds a nest descriptor from a perfect loop subtree.
    ///
    /// `outer` carries the imperfect enclosing loops.
    pub fn from_loop(root: &Loop, outer: &[(LoopId, u64)]) -> Self {
        let mut loops = Vec::new();
        let mut tripcounts = Vec::new();
        let mut names = Vec::new();
        let mut cur = root;
        loop {
            loops.push(cur.id);
            tripcounts.push(cur.tripcount);
            names.push(cur.name.clone());
            let inner: Vec<&Loop> = cur.direct_loops().collect();
            match inner.len() {
                0 => break,
                1 => cur = inner[0],
                _ => unreachable!("from_loop on a non-perfect nest"),
            }
        }
        let stmts = cur.direct_stmts().cloned().collect();
        PerfectNest {
            loops,
            tripcounts,
            names,
            outer: outer.to_vec(),
            stmts,
        }
    }

    /// The pipelined (innermost) loop.
    pub fn pipelined_loop(&self) -> LoopId {
        *self.loops.last().expect("nest has at least one loop")
    }

    /// Tripcount of the pipelined loop (`TC_l` in Eqn. 1).
    pub fn pipelined_tripcount(&self) -> u64 {
        *self.tripcounts.last().expect("nest has at least one loop")
    }

    /// Product of the tripcounts of the temporally folded loops — the
    /// nest loops above the pipelined one (`prod TC_idx, idx in O(l)` in
    /// Eqn. 2). Does not include [`outer`](Self::outer) loops.
    pub fn folded_tripcount(&self) -> u64 {
        self.tripcounts[..self.tripcounts.len() - 1]
            .iter()
            .product()
    }

    /// Product of the tripcounts of the imperfect enclosing loops.
    pub fn outer_tripcount(&self) -> u64 {
        self.outer.iter().map(|&(_, tc)| tc).product()
    }

    /// Total iterations of the innermost body.
    pub fn total_iterations(&self) -> u64 {
        self.tripcounts.iter().product::<u64>() * self.outer_tripcount()
    }

    /// Tripcounts of the nest loops after unrolling by `unroll`'s
    /// `(loop, factor)` pairs: `ceil(tc / factor)` per loop, `tc` for a
    /// loop that is not unrolled.
    pub fn effective_tripcounts(&self, unroll: &[(LoopId, u32)]) -> Vec<u64> {
        self.loops
            .iter()
            .zip(&self.tripcounts)
            .map(|(&l, &tc)| {
                let f = unroll
                    .iter()
                    .find(|&&(ul, _)| ul == l)
                    .map_or(1, |&(_, f)| f);
                tc.div_ceil(f as u64)
            })
            .collect()
    }

    /// Depth of the nest.
    pub fn depth(&self) -> usize {
        self.loops.len()
    }

    /// Position of a loop within the nest, if present.
    pub fn position(&self, l: LoopId) -> Option<usize> {
        self.loops.iter().position(|&x| x == l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;

    fn nest3() -> PerfectNest {
        let mut b = ProgramBuilder::new("t");
        let x = b.array("X", &[4, 5, 6]);
        let i = b.open_loop("i", 4);
        let j = b.open_loop("j", 5);
        let k = b.open_loop("k", 6);
        b.store(x, &[b.idx(i), b.idx(j), b.idx(k)], b.constant(0));
        b.close_loop();
        b.close_loop();
        b.close_loop();
        b.finish().perfect_nests().remove(0)
    }

    #[test]
    fn tripcount_products() {
        let n = nest3();
        assert_eq!(n.pipelined_tripcount(), 6);
        assert_eq!(n.folded_tripcount(), 20);
        assert_eq!(n.total_iterations(), 120);
        assert_eq!(n.depth(), 3);
    }

    #[test]
    fn effective_tripcounts_round_up() {
        let n = nest3();
        assert_eq!(n.effective_tripcounts(&[]), vec![4, 5, 6]);
        assert_eq!(
            n.effective_tripcounts(&[(n.loops[1], 2), (n.loops[2], 4)]),
            vec![4, 3, 2]
        );
    }

    #[test]
    fn position_lookup() {
        let n = nest3();
        assert_eq!(n.position(n.pipelined_loop()), Some(2));
        assert_eq!(n.position(LoopId(99)), None);
    }
}
